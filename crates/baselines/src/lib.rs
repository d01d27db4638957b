//! Baseline discovery algorithms the paper compares FASTOD against (§5.3).
//!
//! * [`tane`] — **TANE** (Huhtala et al., ICDE 1998): minimal FD discovery
//!   over the set lattice with partitions, candidate sets and error rates.
//!   Used in Exp-4 to price the *extra* cost of order semantics: FASTOD's FD
//!   fragment must coincide with TANE's output.
//! * [`order`] — **ORDER** (Langer & Naumann, VLDBJ 2016): list-based OD
//!   discovery over the factorial list-containment lattice, re-implemented
//!   from its published description (see [`order`] for the documented
//!   approximation). Its aggressive swap pruning makes it fast on swap-dense
//!   data but **incomplete** — the central claim of §4.5/§5.3, reproduced by
//!   Exp-3.

pub mod order;
pub mod tane;

pub use order::{Order, OrderConfig, OrderResult};
pub use tane::{Tane, TaneConfig, TaneResult};
