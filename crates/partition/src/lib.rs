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
//!   see [`Classes`] for the borrowed view consumers iterate/shard;
//! * linear-time **refinement** `Π*_{X ∪ {A}}` of a partition by one code
//!   column ([`StrippedPartition::refine`]) and the general partition
//!   **product** `Π_X = Π_Y · Π_Z`, both with reusable scratch space, so
//!   level `l` partitions are derived from level `l−1` partitions instead
//!   of being rebuilt from scratch;
//! * [`SortedColumn`] — the sorted partition `τ_A` (all rows ordered by `A`),
//!   built once per attribute with counting sort over dense-rank codes;
//! * validation scans: [`check_constancy`] for `X: [] ↦ A` and
//!   [`check_order_compat`] for `X: A ~ B` (the paper's single-scan swap
//!   test), plus witness-returning variants for data cleaning;
//! * removal-based error measures ([`constancy_removal_error`],
//!   [`swap_removal_error`]) used by the approximate-OD extension, which
//!   stop once the error is known to exceed the caller's budget;
//! * mutation support for the incremental engine:
//!   [`StrippedPartition::remove_rows`] (exact in-place class compaction
//!   reporting a touched-class [`RemoveDelta`]), tombstone-aware builders
//!   ([`StrippedPartition::from_codes_masked`],
//!   [`StrippedPartition::unit_masked`],
//!   [`StrippedPartition::append_codes_masked`]), and exact violation
//!   **counters** ([`count_constancy_violations`],
//!   [`count_swap_violations`]) that make cached verdicts maintainable
//!   under deletions.

#![deny(missing_docs)]

mod checks;
mod counts;
mod errors;
mod scratch;
mod sorted;
mod stripped;

pub use checks::{
    check_constancy, check_constancy_classes, check_order_compat, check_order_compat_sweep,
    check_order_compat_sweep_classes, find_constancy_violation, find_swap, find_swap_sweep,
};
pub use counts::{
    count_constancy_violations, count_constancy_violations_rows, count_swap_violations,
    count_swap_violations_rows, CountScratch,
};
pub use errors::{constancy_removal_error, swap_removal_error};
pub use scratch::{ClassMap, ProductScratch, SwapScratch};
pub use sorted::SortedColumn;
pub use stripped::{AppendDelta, Classes, ClassesIter, RemoveDelta, StrippedPartition, TouchedClass};
