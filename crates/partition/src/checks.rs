//! Validation scans for canonical ODs (paper §4.6, "Efficient OD
//! Validation").
//!
//! * `X: [] ↦ A` (constancy) — for each class `E ∈ Π*_X`, check
//!   `|Π_A(E)| = 1`; linear in the covered rows.
//! * `X: A ~ B` (order compatibility) — the paper's τ-scan: walk all rows in
//!   `A`-order once, hashing each into its context class; within a class,
//!   rows arrive grouped into runs of equal `A`-code, and a swap exists iff
//!   some row's `B`-code is smaller than the maximum `B`-code of an earlier
//!   (strictly smaller-`A`) run of the same class. Linear in |r| per check.

use crate::scratch::SwapScratch;
use crate::stripped::Classes;
use crate::{SortedColumn, StrippedPartition};

/// Inner-loop chunk width for the branch-lean scans: within a chunk the
/// verdict is accumulated with bitwise AND (no per-row branch, so the
/// compiler can unroll/vectorize the gather-compare); the early-exit branch
/// runs once per chunk.
const SCAN_CHUNK: usize = 64;

/// Whether every row of one contiguous class slice carries the same
/// `codes` value as the class representative.
#[inline]
fn class_is_constant(class: &[u32], codes: &[u32]) -> bool {
    let first = codes[class[0] as usize];
    for chunk in class.chunks(SCAN_CHUNK) {
        let mut ok = true;
        for &row in chunk {
            ok &= codes[row as usize] == first;
        }
        if !ok {
            return false;
        }
    }
    true
}

/// Checks the constancy OD `X: [] ↦ A` given `Π*_X` and `A`'s codes.
///
/// Superkey contexts (empty stripped partition) are trivially valid — the
/// key-pruning shortcut of Lemma 12.
pub fn check_constancy(ctx: &StrippedPartition, codes_a: &[u32]) -> bool {
    ctx.classes().iter().all(|class| class_is_constant(class, codes_a))
}

/// Like [`check_constancy`] but returns a witness pair `(s, t)` with
/// `s_X = t_X` and `s_A ≠ t_A` — a *split* (Definition 4) — when the OD is
/// violated.
pub fn find_constancy_violation(
    ctx: &StrippedPartition,
    codes_a: &[u32],
) -> Option<(u32, u32)> {
    for class in ctx.classes() {
        let first_row = class[0];
        let first = codes_a[first_row as usize];
        for &row in &class[1..] {
            if codes_a[row as usize] != first {
                return Some((first_row, row));
            }
        }
    }
    None
}

/// Checks the order-compatibility OD `X: A ~ B` (no swap within any class of
/// `Π*_X`), via a single scan of `τ_A`. The `A`-order (including equal-`A`
/// run structure) comes entirely from `tau_a` — `A`'s codes are never read.
///
/// `context_token`, when provided, lets the scratch reuse the row→class map
/// across successive checks with the same context partition (FASTOD checks
/// many attribute pairs per lattice node).
pub fn check_order_compat(
    ctx: &StrippedPartition,
    tau_a: &SortedColumn,
    codes_b: &[u32],
    scratch: &mut SwapScratch,
    context_token: Option<usize>,
) -> bool {
    swap_scan(ctx, tau_a, codes_b, scratch, context_token).is_none()
}

/// Like [`check_order_compat`] but returns a witness *swap* pair `(s, t)`
/// with `s ≺_A t` and `t ≺_B s` inside one context class (Definition 5).
pub fn find_swap(
    ctx: &StrippedPartition,
    tau_a: &SortedColumn,
    codes_b: &[u32],
    scratch: &mut SwapScratch,
) -> Option<(u32, u32)> {
    swap_scan(ctx, tau_a, codes_b, scratch, None)
}

/// Checks `X: A ~ B` by per-class **sort-then-sweep** instead of the full
/// `τ_A` walk: each class's `(A, B)` code pairs are collected, sorted, and
/// swept once for a swap, and the check stops at the first class that
/// holds one. Cost is `O(Σ |E| log |E|)` over the classes of `Π*_X` —
/// independent of the relation size. It also replaces the naive
/// `O(|E|²)` all-pairs scan that capped the brute-force oracle at 6
/// attributes.
///
/// The verdict is identical to [`check_order_compat`]; which one is faster
/// depends on the average class size `||Π*_X|| / |Π*_X|`. Sorting small
/// classes is cheap, and most checks fail early in some class, while the
/// τ-scan walks every class at once in `A`-order; only classes of more
/// than about 1024 rows make its presorted walk pay. `ExactValidator` in
/// `fastod` picks the kernel by that rule, and judges each check whole on
/// one worker.
pub fn check_order_compat_sweep(
    ctx: &StrippedPartition,
    codes_a: &[u32],
    codes_b: &[u32],
    scratch: &mut SwapScratch,
) -> bool {
    let pairs = &mut scratch.pairs;
    ctx.classes().iter().all(|class| {
        pairs.clear();
        pairs.extend(
            class
                .iter()
                .map(|&row| (codes_a[row as usize], codes_b[row as usize])),
        );
        pairs.sort_unstable();
        // Sweep in A-order: a swap exists iff some pair's B-code undercuts
        // the max B-code of an earlier, strictly-smaller-A run.
        let mut last_a = u32::MAX;
        let mut run_max_b = 0u32;
        let mut prev_max_b = -1i64;
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if i == 0 {
                last_a = a;
                run_max_b = b;
            } else if a != last_a {
                prev_max_b = prev_max_b.max(i64::from(run_max_b));
                last_a = a;
                run_max_b = b;
            } else {
                run_max_b = run_max_b.max(b);
            }
            if i64::from(b) < prev_max_b {
                return false;
            }
        }
        true
    })
}

/// Like [`check_order_compat_sweep`] but returns a witness *swap* pair
/// `(s, t)` with `s ≺_A t` and `t ≺_B s` inside one context class when the
/// OD is violated. `O(Σ |E| log |E|)` like the boolean sweep — independent
/// of `|r|`, and needing no `τ_A` — which is what makes it the witness
/// finder of choice for the incremental engine's delete-time re-checks
/// (the witness is then cached: a pair stays violating until one of its
/// rows is deleted, because removals never separate two rows of a class).
pub fn find_swap_sweep(
    classes: Classes<'_>,
    codes_a: &[u32],
    codes_b: &[u32],
) -> Option<(u32, u32)> {
    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    for class in classes.iter() {
        triples.clear();
        triples.extend(
            class
                .iter()
                .map(|&row| (codes_a[row as usize], codes_b[row as usize], row)),
        );
        triples.sort_unstable();
        let mut last_a = u32::MAX;
        let mut run_max: Option<(u32, u32)> = None; // (b, row) of current run
        let mut prev_max: Option<(u32, u32)> = None; // max over strictly smaller-A runs
        for (i, &(a, b, row)) in triples.iter().enumerate() {
            if i == 0 || a != last_a {
                if let Some((rb, rr)) = run_max.take() {
                    if prev_max.is_none_or(|(pb, _)| rb > pb) {
                        prev_max = Some((rb, rr));
                    }
                }
                last_a = a;
            }
            if let Some((pb, pr)) = prev_max {
                if b < pb {
                    return Some((pr, row));
                }
            }
            if run_max.is_none_or(|(rb, _)| b > rb) {
                run_max = Some((b, row));
            }
        }
    }
    None
}

/// The run-structured τ-scan shared by [`check_order_compat`] and
/// [`find_swap`]: `τ_A` is walked **run by run** (equal-`A` groups are
/// pre-materialized by the counting sort, so no `A`-code is ever read),
/// each covered row does one packed class-map probe and one `B`-code
/// gather, and the per-class run maxima are folded into `prev_max` when the
/// run ends — only for the classes the run actually touched.
fn swap_scan(
    ctx: &StrippedPartition,
    tau_a: &SortedColumn,
    codes_b: &[u32],
    scratch: &mut SwapScratch,
    context_token: Option<usize>,
) -> Option<(u32, u32)> {
    debug_assert_eq!(tau_a.len(), codes_b.len(), "τ_A and B-codes disagree on |r|");
    if ctx.is_superkey() {
        // Lemma 13: singleton classes admit no swaps.
        return None;
    }
    if ctx.n_classes() == 1 && ctx.covered_rows() == ctx.n_rows() {
        // The unit context (level-2's `{}: A ~ B` checks): every row is in
        // the single class, so membership probes vanish entirely.
        return swap_scan_full_single_class(tau_a, codes_b);
    }
    scratch.load(ctx, context_token);
    for run in tau_a.runs() {
        for &row in run {
            let Some(class) = scratch.class_map.class_of(row) else {
                continue;
            };
            let ci = class as usize;
            let b = codes_b[row as usize];
            let st = &mut scratch.states[ci];
            if i64::from(b) < st.prev_max_b {
                // prev_max_row ≺_A row (earlier run) but row ≺_B prev_max_row.
                return Some((st.prev_max_row, row));
            }
            if !st.in_run {
                st.in_run = true;
                st.run_max_b = b;
                scratch.run_max_row[ci] = row;
                scratch.run_touched.push(ci as u32);
            } else if b > st.run_max_b {
                st.run_max_b = b;
                scratch.run_max_row[ci] = row;
            }
        }
        // Fold the finished run into prev_max for the touched classes only.
        for &ci in &scratch.run_touched {
            let st = &mut scratch.states[ci as usize];
            if i64::from(st.run_max_b) > st.prev_max_b {
                st.prev_max_b = i64::from(st.run_max_b);
                st.prev_max_row = scratch.run_max_row[ci as usize];
            }
            st.in_run = false;
        }
        scratch.run_touched.clear();
    }
    None
}

/// [`swap_scan`] specialized for a context with one class covering every
/// row: a pure sequential walk of `τ_A`'s runs with one `B`-code gather per
/// row and scalar run state.
fn swap_scan_full_single_class(tau_a: &SortedColumn, codes_b: &[u32]) -> Option<(u32, u32)> {
    let mut prev_max_b: i64 = -1;
    let mut prev_max_row = u32::MAX;
    for run in tau_a.runs() {
        let mut run_max_b = 0u32;
        let mut run_max_row = u32::MAX;
        for &row in run {
            let b = codes_b[row as usize];
            if i64::from(b) < prev_max_b {
                return Some((prev_max_row, row));
            }
            if run_max_row == u32::MAX || b > run_max_b {
                run_max_b = b;
                run_max_row = row;
            }
        }
        if run_max_row != u32::MAX && i64::from(run_max_b) > prev_max_b {
            prev_max_b = i64::from(run_max_b);
            prev_max_row = run_max_row;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²)-per-class reference implementation of the swap check.
    fn swap_naive(ctx: &StrippedPartition, codes_a: &[u32], codes_b: &[u32]) -> bool {
        for class in ctx.classes() {
            for (i, &s) in class.iter().enumerate() {
                for &t in &class[i + 1..] {
                    let (s, t) = (s as usize, t as usize);
                    let a_lt = codes_a[s] < codes_a[t];
                    let a_gt = codes_a[s] > codes_a[t];
                    let b_lt = codes_b[s] < codes_b[t];
                    let b_gt = codes_b[s] > codes_b[t];
                    if (a_lt && b_gt) || (a_gt && b_lt) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn compat(ctx: &StrippedPartition, codes_a: &[u32], codes_b: &[u32]) -> bool {
        let card = codes_a.iter().max().map_or(0, |&m| m + 1);
        let tau = SortedColumn::build(codes_a, card);
        let mut scratch = SwapScratch::new();
        let fast = check_order_compat(ctx, &tau, codes_b, &mut scratch, None);
        assert_eq!(fast, swap_naive(ctx, codes_a, codes_b), "fast vs naive");
        let sweep = check_order_compat_sweep(ctx, codes_a, codes_b, &mut scratch);
        assert_eq!(fast, sweep, "tau-scan vs sort-then-sweep");
        // The sweep-based witness finder agrees on the verdict and, on
        // violation, returns a genuine swap pair within one class.
        match find_swap_sweep(ctx.classes(), codes_a, codes_b) {
            None => assert!(fast, "finder missed a swap"),
            Some((s, t)) => {
                assert!(!fast, "finder invented a swap ({s}, {t})");
                let (s, t) = (s as usize, t as usize);
                assert!(
                    ctx.classes()
                        .iter()
                        .any(|c| c.contains(&(s as u32)) && c.contains(&(t as u32))),
                    "witness rows not in one class"
                );
                let a_cmp = codes_a[s].cmp(&codes_a[t]);
                let b_cmp = codes_b[s].cmp(&codes_b[t]);
                assert!(
                    a_cmp == b_cmp.reverse() && a_cmp != std::cmp::Ordering::Equal,
                    "witness ({s}, {t}) is not a swap"
                );
            }
        }
        fast
    }

    #[test]
    fn constancy_holds_and_fails() {
        // Classes {0,1}, {2,3}; A constant within each.
        let ctx = StrippedPartition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        assert!(check_constancy(&ctx, &[7, 7, 9, 9]));
        assert!(!check_constancy(&ctx, &[7, 7, 9, 8]));
        assert_eq!(
            find_constancy_violation(&ctx, &[7, 7, 9, 8]),
            Some((2, 3))
        );
        assert_eq!(find_constancy_violation(&ctx, &[7, 7, 9, 9]), None);
    }

    #[test]
    fn constancy_on_superkey_is_trivial() {
        let ctx = StrippedPartition::from_classes(3, vec![]);
        assert!(check_constancy(&ctx, &[0, 1, 2]));
    }

    #[test]
    fn swap_within_single_class() {
        // A = [0,1], B = [1,0] in one class: classic swap.
        let ctx = StrippedPartition::unit(2);
        assert!(!compat(&ctx, &[0, 1], &[1, 0]));
        assert!(compat(&ctx, &[0, 1], &[0, 1]));
        assert!(compat(&ctx, &[0, 0], &[1, 0])); // equal A: no constraint
        assert!(compat(&ctx, &[0, 1], &[1, 1])); // equal B: fine
    }

    #[test]
    fn swap_respects_context_classes() {
        // Swap pair (0, 1) exists globally but rows 0 and 1 are in different
        // context classes → compatible within the context.
        let ctx = StrippedPartition::from_classes(4, vec![vec![0, 2], vec![1, 3]]);
        let a = vec![0, 1, 1, 2];
        let b = vec![1, 0, 2, 1];
        assert!(compat(&ctx, &a, &b));
    }

    #[test]
    fn swap_found_across_runs() {
        // One class; A runs: [0,0], [1]; B max of run 0 is 5 > B of run 1.
        let ctx = StrippedPartition::unit(3);
        let a = vec![0, 0, 1];
        let b = vec![2, 5, 3];
        assert!(!compat(&ctx, &a, &b));
        let tau = SortedColumn::build(&a, 2);
        let mut scratch = SwapScratch::new();
        let wit = find_swap(&ctx, &tau, &b, &mut scratch).unwrap();
        // Witness: row 1 (a=0,b=5) ≺_A row 2 (a=1,b=3) and swap on B.
        assert_eq!(wit, (1, 2));
    }

    #[test]
    fn equal_b_across_runs_is_not_a_swap() {
        let ctx = StrippedPartition::unit(4);
        let a = vec![0, 0, 1, 1];
        let b = vec![3, 3, 3, 4];
        assert!(compat(&ctx, &a, &b));
    }

    #[test]
    fn paper_example_salary_subgroup_swap() {
        // Table 1 (§2.3, Example 3): swap w.r.t. salary ~ subg over t1, t2.
        // salary codes: 4.5K,5K,6K,8K,8K,10K → sal=[1,3,4,0,2,3]... build
        // directly from the table order: [5K,8K,10K,4.5K,6K,8K].
        let sal = vec![1, 3, 4, 0, 2, 3];
        // subg: [III, II, I, III, I, II] → codes III=2, II=1, I=0.
        let subg = vec![2, 1, 0, 2, 0, 1];
        let ctx = StrippedPartition::unit(6);
        assert!(!compat(&ctx, &sal, &subg));
    }

    #[test]
    fn paper_example_year_context_no_swap_bin_salary() {
        // Example 4: {year}: bin ~ salary holds.
        // year classes: {t1,t2,t3} and {t4,t5,t6} (0-indexed {0,1,2},{3,4,5})
        let ctx = StrippedPartition::from_classes(6, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        let bin = vec![0, 1, 2, 0, 1, 2];
        let sal = vec![1, 3, 4, 0, 2, 3];
        assert!(compat(&ctx, &bin, &sal));
    }

    #[test]
    fn scratch_token_reuse() {
        let ctx = StrippedPartition::unit(4);
        let a = vec![0, 1, 2, 3];
        let b = vec![0, 1, 2, 3];
        let c = vec![3, 2, 1, 0];
        let tau = SortedColumn::build(&a, 4);
        let mut scratch = SwapScratch::new();
        assert!(check_order_compat(&ctx, &tau, &b, &mut scratch, Some(42)));
        // Same token: class map reused; different pair checked correctly.
        assert!(!check_order_compat(&ctx, &tau, &c, &mut scratch, Some(42)));
    }

    #[test]
    fn randomized_agreement_with_naive() {
        // Deterministic pseudo-random sweep (no rand dep in unit tests).
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..200 {
            let n = 2 + (next() % 12) as usize;
            let card = 1 + (next() % 4) as u32;
            let a: Vec<u32> = (0..n).map(|_| (next() % u64::from(card)) as u32).collect();
            let b: Vec<u32> = (0..n).map(|_| (next() % u64::from(card)) as u32).collect();
            let ctx_codes: Vec<u32> = (0..n).map(|_| (next() % 3) as u32).collect();
            let ctx = StrippedPartition::from_codes(&ctx_codes, 3);
            // `compat` asserts fast == naive internally.
            let _ = compat(&ctx, &a, &b);
            let _ = trial;
        }
    }
}
