//! Removal-based error measures for approximate ODs (paper §7, future work:
//! "approximate ODs that almost hold over a relation instance within a
//! specified threshold").
//!
//! Both measures count the minimum number of tuples that must be deleted for
//! the OD to hold exactly, which makes them monotone under context
//! refinement — refining the partition never increases the error — so the
//! lattice pruning machinery stays sound for thresholded discovery.
//!
//! **The cap contract.** Approximate discovery only compares an error with
//! its row budget, so both measures take a `cap` and return
//! `min(error, cap + 1)`: the exact error when it is at most `cap`, and
//! `cap + 1` ("over budget") otherwise. `measure(.., cap, ..) <= cap` is
//! therefore the same verdict as `error <= cap`; pass `usize::MAX` for the
//! exact error. Each kernel stops as soon as a lower bound on the error
//! exceeds `cap`:
//!
//! * constancy — every class adds a non-negative error, so the total over
//!   the classes scanned so far is a lower bound; the scan stops after the
//!   class that pushes it past `cap`;
//! * order compatibility — once the patience sort of a class has seen `i`
//!   rows, `i − tails.len()` is the removal error of that prefix. Each
//!   further row adds one to `i` and at most one to `tails.len()`, so the
//!   quantity never decreases and ends at the class's error; the scan stops
//!   inside the class once the finished classes' total plus it exceeds
//!   `cap`.
//!
//! Both keep their per-class buffers in a caller-owned [`SwapScratch`], so
//! a validator running thousands of checks allocates nothing per check.

use crate::{StrippedPartition, SwapScratch};

/// Minimum number of rows to remove so that `X: [] ↦ A` holds — within each
/// class, keep the most frequent `A`-code and drop the rest — or `cap + 1`
/// if that exceeds `cap` (see the module doc).
pub fn constancy_removal_error(
    ctx: &StrippedPartition,
    codes_a: &[u32],
    cap: usize,
    scratch: &mut SwapScratch,
) -> usize {
    let buf = &mut scratch.codes;
    let mut total = 0usize;
    for class in ctx.classes() {
        buf.clear();
        buf.extend(class.iter().map(|&r| codes_a[r as usize]));
        buf.sort_unstable();
        let mut best = 0usize;
        let mut run = 0usize;
        let mut prev = u32::MAX;
        for &c in buf.iter() {
            if c == prev {
                run += 1;
            } else {
                run = 1;
                prev = c;
            }
            best = best.max(run);
        }
        total += class.len() - best;
        if total > cap {
            return cap + 1;
        }
    }
    total
}

/// Minimum number of rows to remove so that `X: A ~ B` holds, or `cap + 1`
/// if that exceeds `cap` (see the module doc).
///
/// Within each class, rows are sorted by `(A, B)`; a maximum swap-free keep
/// set corresponds to a longest non-decreasing subsequence of the `B`-codes
/// in that order (rows with equal `A` never conflict, and sorting ties by `B`
/// makes every valid keep set a non-decreasing subsequence).
pub fn swap_removal_error(
    ctx: &StrippedPartition,
    codes_a: &[u32],
    codes_b: &[u32],
    cap: usize,
    scratch: &mut SwapScratch,
) -> usize {
    let (pairs, tails) = (&mut scratch.pairs, &mut scratch.tails);
    let mut total = 0usize;
    for class in ctx.classes() {
        pairs.clear();
        pairs.extend(
            class
                .iter()
                .map(|&r| (codes_a[r as usize], codes_b[r as usize])),
        );
        pairs.sort_unstable();
        // Longest non-decreasing subsequence over B via patience sorting:
        // tails[k] = smallest possible tail of a subsequence of length k+1.
        tails.clear();
        for (seen, &(_, b)) in pairs.iter().enumerate() {
            // partition_point gives the first index with tails[i] > b —
            // replacing it keeps the subsequence non-decreasing (ties allowed).
            let pos = tails.partition_point(|&t| t <= b);
            if pos == tails.len() {
                tails.push(b);
            } else {
                tails[pos] = b;
                // Only a replacement raises the prefix error.
                if total + (seen + 1 - tails.len()) > cap {
                    return cap + 1;
                }
            }
        }
        total += class.len() - tails.len();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_constancy, check_order_compat, SortedColumn};

    fn unit(n: usize) -> StrippedPartition {
        StrippedPartition::unit(n)
    }

    fn constancy(ctx: &StrippedPartition, a: &[u32]) -> usize {
        constancy_removal_error(ctx, a, usize::MAX, &mut SwapScratch::new())
    }

    fn swap(ctx: &StrippedPartition, a: &[u32], b: &[u32]) -> usize {
        swap_removal_error(ctx, a, b, usize::MAX, &mut SwapScratch::new())
    }

    #[test]
    fn constancy_error_zero_iff_valid() {
        let ctx = StrippedPartition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        let good = vec![5, 5, 6, 6];
        let bad = vec![5, 5, 6, 7];
        assert_eq!(constancy(&ctx, &good), 0);
        assert!(check_constancy(&ctx, &good));
        assert_eq!(constancy(&ctx, &bad), 1);
        assert!(!check_constancy(&ctx, &bad));
    }

    #[test]
    fn constancy_error_counts_minority() {
        let ctx = unit(5);
        // Majority code 1 (3 rows); remove 2.
        assert_eq!(constancy(&ctx, &[1, 1, 1, 0, 2]), 2);
    }

    #[test]
    fn swap_error_zero_iff_valid() {
        let ctx = unit(4);
        let a = vec![0, 1, 2, 3];
        let asc = vec![0, 0, 1, 2];
        let desc = vec![3, 2, 1, 0];
        assert_eq!(swap(&ctx, &a, &asc), 0);
        assert_eq!(swap(&ctx, &a, &desc), 3);
        let tau = SortedColumn::build(&a, 4);
        let mut s = SwapScratch::new();
        assert!(check_order_compat(&ctx, &tau, &asc, &mut s, None));
        assert!(!check_order_compat(&ctx, &tau, &desc, &mut s, None));
    }

    #[test]
    fn swap_error_ignores_equal_a_conflicts() {
        // Equal A codes can have B in any order: no removals needed.
        let ctx = unit(3);
        assert_eq!(swap(&ctx, &[0, 0, 0], &[2, 0, 1]), 0);
    }

    #[test]
    fn swap_error_single_outlier() {
        // B mostly ascends with A; one outlier row must go.
        let ctx = unit(5);
        let a = vec![0, 1, 2, 3, 4];
        let b = vec![0, 1, 9, 3, 4];
        assert_eq!(swap(&ctx, &a, &b), 1);
    }

    #[test]
    fn errors_respect_context() {
        // Split rows across two classes: violations inside classes only.
        let ctx = StrippedPartition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        let a = vec![0, 1, 0, 1];
        let b = vec![1, 0, 0, 1]; // swap in class {0,1} only
        assert_eq!(swap(&ctx, &a, &b), 1);
    }

    #[test]
    fn errors_monotone_under_refinement() {
        // Refining the context cannot increase either error.
        let coarse = unit(6);
        let fine = StrippedPartition::from_classes(6, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        let a = vec![0, 1, 2, 0, 1, 2];
        let b = vec![2, 1, 0, 1, 2, 0];
        assert!(swap(&fine, &a, &b) <= swap(&coarse, &a, &b));
        let c = vec![0, 1, 0, 1, 0, 1];
        assert!(constancy(&fine, &c) <= constancy(&coarse, &c));
    }
}
