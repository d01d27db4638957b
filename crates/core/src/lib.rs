//! **FASTOD** — complete, minimal order-dependency discovery over a
//! set-containment lattice (paper §4).
//!
//! The discovery algorithm traverses the lattice of attribute sets level by
//! level (Algorithm 1). At node `X` it verifies the two canonical OD shapes
//! with context inside `X`:
//!
//! * `X\A: [] ↦ A` for `A ∈ X` — constancy / the FD fragment;
//! * `X\{A,B}: A ~ B` for `A,B ∈ X` — order compatibility.
//!
//! Candidate sets `C⁺c(X)` (attributes, Definition 7) and `C⁺s(X)`
//! (attribute pairs, Definition 8) encode which ODs can still be *minimal*,
//! letting the algorithm skip validations and delete entire lattice nodes
//! (Algorithm 4) without losing completeness (Theorem 8).
//!
//! Worst-case complexity is `O(2^|R|)` in the number of attributes — the
//! same as FD discovery and exponentially better than ORDER's factorial
//! list lattice — and linear in the number of tuples (§4.7).
//!
//! # Entry points
//!
//! * [`Fastod`] — the exact algorithm; produces a complete, minimal
//!   [`DiscoveryResult`];
//! * [`NoPruningFastod`] — ablation used by the paper's Exp-5/6: validates
//!   every non-trivial candidate OD with all pruning disabled;
//! * [`ApproxFastod`] — the §7 "future work" extension: ODs that hold after
//!   removing at most an ε-fraction of tuples.
//!
//! ```
//! use fastod::{DiscoveryConfig, Fastod};
//! use fastod_relation::RelationBuilder;
//!
//! let rel = RelationBuilder::new()
//!     .column_i64("month", vec![1, 1, 2, 2])
//!     .column_i64("quarter", vec![1, 1, 1, 1])
//!     .build()
//!     .unwrap();
//! let result = Fastod::new(DiscoveryConfig::default()).discover(&rel.encode());
//! // quarter is constant: {}: [] -> quarter is discovered.
//! assert!(result.ods.iter().any(|od| od.is_constancy()));
//! ```

#![deny(missing_docs)]

mod algorithm;
mod approximate;
mod cancel;
mod config;
mod lattice;
mod no_pruning;
mod pairset;
pub mod parallel;
mod result;
pub mod snapshot;
mod stats;
mod validators;

pub use algorithm::Fastod;
pub use approximate::{ApproxConfig, ApproxFastod};
pub use cancel::{CancelToken, Cancelled, PassError};
pub use config::{DiscoveryConfig, FdCheckMode};
pub use no_pruning::{NoPruningFastod, NoPruningResult};
pub use pairset::PairSet;
pub use parallel::Executor;
pub use result::DiscoveryResult;
pub use stats::{DiscoveryStats, LevelStats};
pub use validators::{ApproxValidator, ExactValidator, OdJudge, OdValidator, ValidationTask};
