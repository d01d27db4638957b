//! **Incremental OD discovery** — maintaining the complete, minimal cover of
//! canonical order dependencies while the relation **mutates**: appended
//! batches, row deletions, and in-place updates.
//!
//! [`crate::Fastod`](fastod::Fastod) answers "which ODs hold on `r`?" for a
//! *static* instance. Production relations are not static: tuples arrive,
//! get corrected, and get purged — and each mutation can change the answer.
//! This crate turns the one-shot algorithm into a long-lived service
//! primitive: [`IncrementalDiscovery`] wraps a discovered cover and accepts
//! appends ([`push_batch`](IncrementalDiscovery::push_batch)), deletions
//! ([`delete_rows`](IncrementalDiscovery::delete_rows)) and updates
//! ([`update_rows`](IncrementalDiscovery::update_rows)), after each of
//! which its [`cover`](IncrementalDiscovery::cover) is — exactly, not
//! approximately — what `Fastod::discover` would return on the **surviving
//! rows** (Theorem 8 keeps holding after every mutation; the equivalence is
//! pinned by an oracle-backed property suite).
//!
//! # Two monotone directions
//!
//! Both canonical OD shapes are *universally quantified over tuple pairs*:
//!
//! * `X: [] ↦ A` (constancy) fails iff some pair agrees on `X` but differs
//!   on `A` — a **split**;
//! * `X: A ~ B` (order compatibility) fails iff some pair inside an
//!   `X`-class is ordered oppositely by `A` and `B` — a **swap**.
//!
//! Every violation is a pair *within one context class*, which gives each
//! mutation direction a one-sided monotonicity:
//!
//! * **appends only falsify.** Appending tuples adds candidate pairs and
//!   removes none: an OD invalid on `r` stays invalid on `r ∪ Δr` (its
//!   witnessing pair is still there), and a valid OD needs re-checking only
//!   when its context partition is **dirty** — some appended row landed in
//!   (or created) a non-singleton class;
//! * **deletes only revive.** Deleting tuples removes candidate pairs and
//!   adds none: a valid OD stays valid, and an invalid OD flips back to
//!   valid exactly when its *last* violating pair is deleted — which can
//!   only happen in a context class that lost a row.
//!
//! The verdict cache ([`CachedVerdict`]) leans on both directions: under
//! appends a cached `false` is binding, under deletes a cached `true` is.
//! An invalid entry also caches one concrete **witness pair**, which
//! re-confirms falseness in O(1) for as long as both its rows stay live,
//! whatever else is deleted; when a delete kills it, an early-exit search
//! over the compacted context finds a fresh pair, or finds none and the
//! verdict revives. Witnesses are materialized lazily:
//! boolean scans do not report one, so the first delete that touches a
//! falsified entry's context pays one search. An update (delete + append)
//! runs as **one** combined pass: each cached verdict is threatened by
//! exactly one mutation direction, so the two monotonicity arguments
//! compose per entry.
//!
//! The same two directions shape the *cover*: appends retire cover members
//! by falsifying them (promoting previously-implied ODs into minimality),
//! deletes revive ODs (which can in turn retire members they now imply).
//! The engine replays the lattice traversal each pass with cached verdicts:
//! a flipped verdict re-opens (or re-closes) exactly the descendant region
//! the one-shot run would have explored differently, and the verdict cache
//! satisfies almost all of it without touching the data.
//!
//! # What a mutation costs
//!
//! With `Δ` mutated rows over `n` live ones:
//!
//! * **encoding** — appends grow dictionaries in `O(Δ log card)` (plus an
//!   `O(n)` code remap only for columns that saw values below their current
//!   maximum, [`fastod_relation::GrowableRelation`]); deletes are `O(Δ)`
//!   tombstone flips in a liveness mask — codes never move and row ids are
//!   stable forever;
//! * **partitions** — level-1 partitions absorb appends via
//!   `StrippedPartition::append_codes_masked`; a deeper node is touched
//!   only when *both* its generating parents are append-dirty, and then its
//!   retained partition absorbs the append by re-splitting just the parent
//!   classes that gained a row (`StrippedPartition::absorb_append`).
//!   Deletes are pure class compaction of the retained `Π*_X(r)`
//!   (`StrippedPartition::remove_rows_masked`): `Π*_X(r ∖ D)` needs no
//!   product.
//!   So **every** retained node absorbs every mutation in place, and only
//!   nodes without a retained partition (new or pruned earlier) are
//!   computed as products. A node whose parent the
//!   pass's own partitions show to determine the attribute it adds holds
//!   that parent's partition, as in one-shot generation; every pass first
//!   releases those sharers, so each shared partition absorbs a mutation
//!   once and is never copied, and shares again where the FD still holds;
//! * **validations** — appends: cached-invalid candidates are skipped
//!   outright, cached-valid ones on clean contexts too, the rest
//!   re-validate. Deletes: cached-valid candidates are skipped outright,
//!   cached-invalid ones on untouched contexts too, and the rest settle by
//!   a witness liveness probe (O(1)) or, when no live witness is cached,
//!   an early-exit witness search; contexts without a retained partition
//!   (level 0, or pruned earlier) count as touched and take the same route.
//!
//! The retained lattice ([`fastod::snapshot::DiscoverySnapshot`]) trades
//! memory — every post-prune node's partition stays resident — for
//! exactly this locality. perfbench's
//! `maintain` workload (`BENCHMARK.json`) times maintenance passes, and its
//! traced `incremental.vs_scratch` compares them with from-scratch
//! re-discovery.
//!
//! # Example
//!
//! ```
//! use fastod_incremental::IncrementalDiscovery;
//! use fastod_relation::RelationBuilder;
//!
//! let base = RelationBuilder::new()
//!     .column_i64("k", vec![1, 2])
//!     .column_i64("c", vec![7, 7])
//!     .build()
//!     .unwrap();
//! let mut engine = IncrementalDiscovery::new(&base);
//! assert!(engine.cover().iter().any(|od| od.is_constancy())); // {}: [] -> c
//!
//! // A batch that breaks c's constancy retires the OD from the cover …
//! let batch = RelationBuilder::new()
//!     .column_i64("k", vec![3])
//!     .column_i64("c", vec![8])
//!     .build()
//!     .unwrap();
//! let report = engine.push_batch(&batch).unwrap();
//! assert_eq!(report.retired.len(), 1);
//!
//! // … and deleting the offending row revives it.
//! let report = engine.delete_rows(&[2]).unwrap();
//! assert_eq!(report.promoted.len(), 1);
//! assert!(engine.cover().iter().any(|od| od.is_constancy()));
//! ```

#![deny(missing_docs)]

mod engine;
mod judge;
mod stats;

pub use engine::{IncrementalDiscovery, IncrementalError};
pub use judge::CachedVerdict;
pub use stats::{BatchCounters, BatchReport, IncrementalStats};
