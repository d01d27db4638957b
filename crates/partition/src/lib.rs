//! Partition machinery for order-dependency discovery (paper §4.6).
//!
//! The FASTOD, TANE and ORDER implementations all validate dependencies via
//! *partitions*: an attribute set `X` partitions the tuples into equivalence
//! classes `Π_X = { E(t_X) }`. This crate provides:
//!
//! * [`StrippedPartition`] — `Π*_X`, the partition with singleton classes
//!   discarded (Lemma 14: singletons cannot falsify any canonical OD),
//!   stored **flat** in CSR form (one contiguous row buffer + class
//!   offsets) so every scan is a linear walk over contiguous memory —
//!   see [`Classes`] for the borrowed view consumers iterate;
//! * linear-time **refinement** `Π*_{X ∪ {A}}` of a partition by one code
//!   column ([`StrippedPartition::refine`]) and the general partition
//!   **product** `Π_X = Π_Y · Π_Z`, both with reusable scratch space, so
//!   level `l` partitions are derived from level `l−1` partitions instead
//!   of being rebuilt from scratch;
//! * [`SortedColumn`] — the sorted partition `τ_A` (all rows ordered by `A`),
//!   built once per attribute with counting sort over dense-rank codes;
//! * one module of **class kernels** that answers every question asked of a
//!   canonical OD over the classes of its context: the verdict
//!   ([`holds`]), witness pairs ([`witnesses`]), the violating-pair count
//!   ([`count_violations`]), the removal size under a cap
//!   ([`removal_size`]), and the count, witnesses and removal rows at once
//!   ([`report`]). Each sorts a class once per OD shape — `X: [] ↦ A` by
//!   `A`, `X: A ~ B` by `(A, B)` — and makes one pass per question over it;
//!   the paper's τ-scan ([`tau_scan`]) is the one other order kernel, for
//!   contexts whose classes are large. The counts make cached verdicts
//!   maintainable under deletions, and the capped removal size serves the
//!   approximate-OD extension;
//! * mutation support for the incremental engine:
//!   [`StrippedPartition::remove_rows`] (exact in-place class compaction
//!   reporting a touched-class [`RemoveDelta`], whose detached classes the
//!   kernels count over) and tombstone-aware builders
//!   ([`StrippedPartition::from_codes_masked`],
//!   [`StrippedPartition::unit_masked`],
//!   [`StrippedPartition::append_codes_masked`]).

#![deny(missing_docs)]

mod kernels;
mod scratch;
mod sorted;
mod stripped;

pub use kernels::{
    count_violations, holds, removal_size, report, tau_scan, witnesses, ClassReport, OdCodes,
};
pub use scratch::{ProductScratch, SwapScratch};
pub use sorted::SortedColumn;
pub use stripped::{AppendDelta, Classes, ClassesIter, RemoveDelta, StrippedPartition, TouchedClass};
