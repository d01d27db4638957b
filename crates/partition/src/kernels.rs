//! The class kernels: every question asked of a canonical OD over the
//! classes of its context partition (paper §4.6, "Efficient OD
//! Validation").
//!
//! Both OD shapes pair tuples *within* one context class, so each question
//! is answered class by class: one gather-and-sort step ([`sorted`]), keyed
//! per shape, then one pass per question over the sorted class:
//!
//! * `X: A ~ B` sorts the class's `(A, B)` codes packed into one integer,
//!   with the row as a third key only when the answer names rows. Then:
//!   * the **sweep** gives the verdict, the first witness and witnesses up
//!     to a limit: a swap exists iff some `B` undercuts the largest `B` of
//!     an earlier (strictly smaller-`A`) run;
//!   * the strict **inversions** of the `B` sequence are the violating
//!     pairs (equal-`A` runs are `B`-sorted and add none; equal `B` is no
//!     swap);
//!   * a **patience sort** finds a longest non-decreasing subsequence
//!     (LNDS) of the `B` sequence, the largest swap-free subset (Karegar
//!     et al. 2021). Capped, it gives the removal size; with predecessor
//!     links, the removal rows.
//! * `X: [] ↦ A` needs no sort for the verdict and witnesses: a **split
//!   scan** compares each row with the class's first. One pass over the
//!   equal-code runs of the sorted `A` codes gives the split count, the
//!   capped removal size and the removal rows, which keep the majority
//!   code (the smallest on ties).
//!
//! Every kernel takes the classes as row slices, so it runs over a
//! partition's [`crate::Classes`] view and over detached class copies
//! alike. The buffers live in a caller-owned [`SwapScratch`], so a
//! validator running thousands of checks allocates nothing per check.
//!
//! The one other order kernel is the paper's τ-scan ([`tau_scan`]), which
//! walks all rows in `A`-order once instead of sorting each class. It only
//! pays when classes average more than about 1024 rows, which is the rule
//! `ExactValidator` in `fastod` uses to choose between the two.
//!
//! **The cap contract.** Approximate discovery only compares a removal size
//! with its row budget, so [`removal_size`] returns `min(size, cap + 1)`:
//! `removal_size(.., cap, ..) <= cap` is the same verdict as `size <= cap`.
//! It stops once a lower bound on the size exceeds `cap`. For constancy the
//! total over the classes scanned so far is that bound. For order, after
//! the patience sort of a class has seen `i` rows, `i − tails.len()` is the
//! removal size of that prefix: each further row adds one to `i` and at
//! most one to `tails.len()`, so the bound never falls.

use crate::scratch::SwapScratch;
use crate::{SortedColumn, StrippedPartition};

/// The code columns a canonical OD reads, which is all the class kernels
/// need to know of it.
#[derive(Clone, Copy, Debug)]
pub enum OdCodes<'c> {
    /// `X: [] ↦ A`, by `A`'s codes.
    Constancy(&'c [u32]),
    /// `X: A ~ B`, by `A`'s and `B`'s codes.
    Order(&'c [u32], &'c [u32]),
}

/// Everything the check/repair surface reports of one OD over a set of
/// classes, from one sort per class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Exact number of violating row pairs.
    pub violations: u64,
    /// Violating pairs, capped at the requested limit, in the order
    /// [`witnesses`] returns them.
    pub witnesses: Vec<(u32, u32)>,
    /// A minimum-cardinality set of rows whose removal makes the OD hold,
    /// sorted ascending.
    pub removal_rows: Vec<u32>,
}

/// Inner-loop chunk width of the constancy verdict: within a chunk the
/// verdict is accumulated with bitwise AND (no per-row branch, so the
/// compiler can unroll the gather-compare); the early exit runs once per
/// chunk.
const SCAN_CHUNK: usize = 64;

/// Marks "no predecessor" in the patience sort's links.
const NO_LINK: u32 = u32::MAX;

/// Whether the OD holds on every class. Order classes are sorted by
/// `(A, B)` and swept until the first swap; constancy classes are split
/// scanned. A superkey context (no classes) holds trivially: Lemmas 12–13.
pub fn holds<'r>(
    classes: impl IntoIterator<Item = &'r [u32]>,
    od: OdCodes<'_>,
    scratch: &mut SwapScratch,
) -> bool {
    let mut classes = classes.into_iter();
    match od {
        OdCodes::Constancy(a) => classes.all(|class| class_is_constant(class, a)),
        OdCodes::Order(a, b) => classes.all(|class| {
            let keys = sorted(class, |r| pack(a[r], b[r]), &mut scratch.pairs);
            sweep(keys, |_, _| false)
        }),
    }
}

/// Up to `limit` violating pairs `(s, t)`, class by class, empty iff the
/// OD holds.
///
/// * A constancy class reports every row `t` whose `A` differs from the
///   class's first row `s`, in class order (a *split*, Definition 4).
/// * An order class reports every row `t` whose `B` is below the largest
///   `B` of the strictly smaller-`A` rows, paired with the row `s` holding
///   that largest `B` (a *swap*: `s ≺_A t`, `t ≺_B s`, Definition 5). The
///   rows come in `(A, B, row)` order, and `s` is the smallest row with the
///   largest `B` of the earliest run reaching it.
///
/// So each row appears at most once as `t`, and a capped list is a prefix
/// of the uncapped one. With `limit` 1 this is the exact validator's
/// witness search, which the incremental engine caches, on every constancy
/// context and every order context that [`tau_scan`] does not serve.
pub fn witnesses<'r>(
    classes: impl IntoIterator<Item = &'r [u32]>,
    od: OdCodes<'_>,
    limit: usize,
    scratch: &mut SwapScratch,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for class in classes {
        if out.len() >= limit {
            break;
        }
        match od {
            OdCodes::Constancy(a) => split_witnesses(class, a, limit, &mut out),
            OdCodes::Order(a, b) => {
                let keys = sorted(class, |r| pack_row(a[r], b[r], r), &mut scratch.triples);
                swap_witnesses(keys, limit, &mut out);
            }
        }
    }
    out
}

/// The exact number of violating pairs: splits `C(|E|, 2) − Σ_v C(cnt_v, 2)`
/// per constancy class, swaps as the strict inversions of an order class's
/// `B` sequence (counted by merge sort). Zero iff [`holds`].
pub fn count_violations<'r>(
    classes: impl IntoIterator<Item = &'r [u32]>,
    od: OdCodes<'_>,
    scratch: &mut SwapScratch,
) -> u64 {
    let classes = classes.into_iter();
    match od {
        OdCodes::Constancy(a) => classes
            .map(|class| split_count(sorted(class, |r| a[r], &mut scratch.codes)))
            .sum(),
        OdCodes::Order(a, b) => classes
            .map(|class| {
                let s = &mut *scratch;
                let keys = sorted(class, |r| pack(a[r], b[r]), &mut s.pairs);
                inversions(keys.iter().map(|&k| k.ab().1), &mut s.vals, &mut s.tmp)
            })
            .sum(),
    }
}

/// The minimum number of rows to remove so that the OD holds, or `cap + 1`
/// if that exceeds `cap` (see the module doc). Within a constancy class
/// every row off the majority code goes; within an order class every row
/// off a longest non-decreasing subsequence of the `(A, B)`-sorted `B`
/// sequence. Both are monotone under context refinement.
pub fn removal_size<'r>(
    classes: impl IntoIterator<Item = &'r [u32]>,
    od: OdCodes<'_>,
    cap: usize,
    scratch: &mut SwapScratch,
) -> usize {
    let mut total = 0usize;
    match od {
        OdCodes::Constancy(a) => {
            for class in classes {
                let codes = sorted(class, |r| a[r], &mut scratch.codes);
                total += class.len() - majority(codes).1;
                if total > cap {
                    return cap + 1;
                }
            }
        }
        OdCodes::Order(a, b) => {
            for class in classes {
                let s = &mut *scratch;
                let keys = sorted(class, |r| pack(a[r], b[r]), &mut s.pairs);
                match patience(
                    keys.iter().map(|&k| k.ab().1),
                    cap - total,
                    &mut s.tails,
                    None,
                ) {
                    Some(removed) => total += removed,
                    None => return cap + 1,
                }
            }
        }
    }
    total
}

/// The count, up to `witness_limit` witnesses and the minimal removal rows
/// of the OD, sorting each class once: by `A` for constancy, by
/// `(A, B, row)` for order. Each field equals what the single-question
/// kernels return ([`count_violations`], [`witnesses`], and a removal set of
/// [`removal_size`] rows).
pub fn report<'r>(
    classes: impl IntoIterator<Item = &'r [u32]>,
    od: OdCodes<'_>,
    witness_limit: usize,
    scratch: &mut SwapScratch,
) -> ClassReport {
    let mut out = ClassReport::default();
    for class in classes {
        match od {
            OdCodes::Constancy(a) => {
                let codes = sorted(class, |r| a[r], &mut scratch.codes);
                let count = split_count(codes);
                if count > 0 {
                    out.violations += count;
                    split_witnesses(class, a, witness_limit, &mut out.witnesses);
                    let (keep, _) = majority(codes);
                    out.removal_rows
                        .extend(class.iter().filter(|&&r| a[r as usize] != keep));
                }
            }
            OdCodes::Order(a, b) => {
                let s = &mut *scratch;
                let keys = sorted(class, |r| pack_row(a[r], b[r], r), &mut s.triples);
                let count = inversions(keys.iter().map(|&k| k.ab().1), &mut s.vals, &mut s.tmp);
                if count > 0 {
                    out.violations += count;
                    swap_witnesses(keys, witness_limit, &mut out.witnesses);
                    let links = Some((&mut s.tail_at, &mut s.links));
                    patience(
                        keys.iter().map(|&k| k.ab().1),
                        usize::MAX,
                        &mut s.tails,
                        links,
                    );
                    // Walk the kept chain down from its end: every row off
                    // the chain goes.
                    let mut kept = s.tail_at.last().copied().unwrap_or(NO_LINK);
                    for i in (0..keys.len()).rev() {
                        if i as u32 == kept {
                            kept = s.links[i];
                        } else {
                            out.removal_rows.push(keys[i] as u32);
                        }
                    }
                }
            }
        }
    }
    out.removal_rows.sort_unstable();
    out
}

/// The gather-and-sort step every class kernel shares: the class's rows
/// mapped to keys, sorted ascending into `buf`. The key is `A`'s code for
/// constancy, `(A, B)` packed into a `u64` for an order verdict, count or
/// removal size, and `(A, B, row)` packed into a `u128` when the answer
/// names rows: only those pay for sorting 16-byte keys.
#[inline]
fn sorted<'b, K: Ord>(class: &[u32], key: impl Fn(usize) -> K, buf: &'b mut Vec<K>) -> &'b [K] {
    buf.clear();
    buf.extend(class.iter().map(|&row| key(row as usize)));
    buf.sort_unstable();
    buf
}

/// `(a, b)` as one integer that sorts as the pair does.
#[inline]
fn pack(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// `(a, b, row)` as one integer that sorts as the triple does; the row is
/// its low 32 bits.
#[inline]
fn pack_row(a: u32, b: u32, row: usize) -> u128 {
    u128::from(pack(a, b)) << 32 | row as u128
}

/// The `(A, B)` codes of an order key, with or without its row.
trait OrderKey: Copy {
    fn ab(self) -> (u32, u32);
}

impl OrderKey for u64 {
    #[inline]
    fn ab(self) -> (u32, u32) {
        ((self >> 32) as u32, self as u32)
    }
}

impl OrderKey for u128 {
    #[inline]
    fn ab(self) -> (u32, u32) {
        ((self >> 32) as u64).ab()
    }
}

/// Sweeps one `(A, B)`-sorted order class in `A`-order, calling
/// `on_swap(s, t)` with key indices for every `t` whose `B` is below the
/// largest `B` of the earlier (smaller-`A`) runs, held first by `s`. Stops,
/// returning `false`, when `on_swap` does.
#[inline]
fn sweep<K: OrderKey>(keys: &[K], mut on_swap: impl FnMut(usize, usize) -> bool) -> bool {
    let Some(&first) = keys.first() else {
        return true;
    };
    let (mut run_a, mut run_max_b) = first.ab();
    let mut run_max = 0usize;
    // The largest B of the finished runs and the first key holding it; -1
    // while no run has finished.
    let (mut prev_max_b, mut prev_max) = (-1i64, 0usize);
    for (i, &key) in keys.iter().enumerate().skip(1) {
        let (a, b) = key.ab();
        if a != run_a {
            if i64::from(run_max_b) > prev_max_b {
                (prev_max_b, prev_max) = (i64::from(run_max_b), run_max);
            }
            (run_a, run_max_b, run_max) = (a, b, i);
        } else if b > run_max_b {
            (run_max_b, run_max) = (b, i);
        }
        if i64::from(b) < prev_max_b && !on_swap(prev_max, i) {
            return false;
        }
    }
    true
}

/// Appends the swap witnesses of one `(A, B, row)`-sorted class to `out`
/// while it holds fewer than `limit`.
#[inline]
fn swap_witnesses(keys: &[u128], limit: usize, out: &mut Vec<(u32, u32)>) {
    if out.len() < limit {
        sweep(keys, |s, t| {
            out.push((keys[s] as u32, keys[t] as u32));
            out.len() < limit
        });
    }
}

/// Appends the split witnesses of one constancy class to `out` while it
/// holds fewer than `limit`: each row whose code differs from the first
/// row's, paired with the first row.
#[inline]
fn split_witnesses(class: &[u32], a: &[u32], limit: usize, out: &mut Vec<(u32, u32)>) {
    let Some((&first, rest)) = class.split_first() else {
        return;
    };
    let code = a[first as usize];
    for &row in rest {
        if out.len() >= limit {
            return;
        }
        if a[row as usize] != code {
            out.push((first, row));
        }
    }
}

/// Whether every row of one class carries its first row's code.
#[inline]
fn class_is_constant(class: &[u32], a: &[u32]) -> bool {
    let Some(&first) = class.first() else {
        return true;
    };
    let code = a[first as usize];
    class.chunks(SCAN_CHUNK).all(|chunk| {
        let mut ok = true;
        for &row in chunk {
            ok &= a[row as usize] == code;
        }
        ok
    })
}

/// `C(n, 2)`: the row pairs among `n` rows.
#[inline]
fn pairs_of(n: usize) -> u64 {
    (n as u64) * (n as u64).saturating_sub(1) / 2
}

/// The split pairs of one class from its sorted codes: all pairs less the
/// pairs inside each equal-code run.
#[inline]
fn split_count(codes: &[u32]) -> u64 {
    let equal: u64 = codes
        .chunk_by(|x, y| x == y)
        .map(|run| pairs_of(run.len()))
        .sum();
    pairs_of(codes.len()) - equal
}

/// The majority code of one class from its sorted codes, with its count:
/// the longest equal-code run, the first (smallest code) on ties.
#[inline]
fn majority(codes: &[u32]) -> (u32, usize) {
    let (mut best, mut run, mut prev) = ((0, 0), 0, None);
    for &code in codes {
        run = if prev == Some(code) { run + 1 } else { 1 };
        prev = Some(code);
        if run > best.1 {
            best = (code, run);
        }
    }
    best
}

/// Counts the pairs `i < j` with `b_i > b_j` (strict; ties are not
/// inversions) by bottom-up merge sort of a copy in `vals`.
fn inversions(bs: impl Iterator<Item = u32>, vals: &mut Vec<u32>, tmp: &mut Vec<u32>) -> u64 {
    vals.clear();
    vals.extend(bs);
    let n = vals.len();
    tmp.resize(n, 0);
    let mut inversions = 0u64;
    let mut width = 1usize;
    while width < n {
        let mut lo = 0usize;
        while lo + width < n {
            let mid = lo + width;
            let hi = (lo + 2 * width).min(n);
            let (mut i, mut j, mut k) = (lo, mid, lo);
            while i < mid && j < hi {
                if vals[i] <= vals[j] {
                    tmp[k] = vals[i];
                    i += 1;
                } else {
                    // vals[i..mid] all exceed vals[j]: each is an inversion.
                    tmp[k] = vals[j];
                    inversions += (mid - i) as u64;
                    j += 1;
                }
                k += 1;
            }
            tmp[k..k + (mid - i)].copy_from_slice(&vals[i..mid]);
            let k2 = k + (mid - i);
            tmp[k2..hi].copy_from_slice(&vals[j..hi]);
            vals[lo..hi].copy_from_slice(&tmp[lo..hi]);
            lo += 2 * width;
        }
        width *= 2;
    }
    inversions
}

/// Patience-sorts the `B` sequence `bs` of one sorted order class for a
/// longest non-decreasing subsequence: `tails[k]` is the smallest `B` that
/// ends one of length `k + 1`. Returns the removal size, the elements off
/// that subsequence, or `None` once it exceeds `budget`.
///
/// With `links = (tail_at, prev)`, `tail_at[k]` is the element ending
/// `tails[k]` and `prev[i]` the element before `i` in the subsequence `i`
/// ends ([`NO_LINK`] for none), so the subsequence is the chain from
/// `tail_at.last()`.
#[inline]
fn patience(
    bs: impl Iterator<Item = u32>,
    budget: usize,
    tails: &mut Vec<u32>,
    mut links: Option<(&mut Vec<u32>, &mut Vec<u32>)>,
) -> Option<usize> {
    tails.clear();
    if let Some((tail_at, prev)) = links.as_mut() {
        tail_at.clear();
        prev.clear();
    }
    let mut seen = 0usize;
    for b in bs {
        // The first tail above `b`: replacing it keeps the subsequence
        // non-decreasing (ties allowed).
        let pos = tails.partition_point(|&t| t <= b);
        if let Some((tail_at, prev)) = links.as_mut() {
            prev.push(if pos > 0 { tail_at[pos - 1] } else { NO_LINK });
            if pos == tail_at.len() {
                tail_at.push(seen as u32);
            } else {
                tail_at[pos] = seen as u32;
            }
        }
        seen += 1;
        if pos == tails.len() {
            tails.push(b);
        } else {
            tails[pos] = b;
            // Only a replacement raises the prefix's removal size.
            if seen - tails.len() > budget {
                return None;
            }
        }
    }
    Some(seen - tails.len())
}

/// The paper's τ-scan for `X: A ~ B`: one walk of `τ_A` **run by run**
/// (equal-`A` groups come from the counting sort, so no `A` code is read),
/// with one packed class-map probe and one `B` gather per covered row. Each
/// class's run maximum folds into its `prev_max` when the run ends, only
/// for the classes the run touched. Returns the first swap `(s, t)` it
/// meets, `s ≺_A t` and `t ≺_B s` in one class, or `None` when the OD
/// holds: the verdict is `is_none()`.
///
/// Linear in `|r|` per check, independent of the class sizes; the sort
/// and sweep of [`holds`] and [`witnesses`] wins unless the classes average
/// more than about 1024 rows. `context_token`, when provided, lets the
/// scratch reuse the row→class map across checks with the same context
/// partition (FASTOD checks many attribute pairs per lattice node).
pub fn tau_scan(
    ctx: &StrippedPartition,
    tau_a: &SortedColumn,
    codes_b: &[u32],
    scratch: &mut SwapScratch,
    context_token: Option<usize>,
) -> Option<(u32, u32)> {
    debug_assert_eq!(
        tau_a.len(),
        codes_b.len(),
        "τ_A and B-codes disagree on |r|"
    );
    if ctx.is_superkey() {
        // Lemma 13: singleton classes admit no swaps.
        return None;
    }
    if ctx.n_classes() == 1 && ctx.covered_rows() == ctx.n_rows() {
        // The unit context (level-2's `{}: A ~ B` checks): every row is in
        // the single class, so membership probes vanish entirely.
        return tau_scan_one_class(tau_a, codes_b);
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

/// [`tau_scan`] specialized for a context with one class covering every
/// row: a pure sequential walk of `τ_A`'s runs with one `B`-code gather per
/// row and scalar run state.
fn tau_scan_one_class(tau_a: &SortedColumn, codes_b: &[u32]) -> Option<(u32, u32)> {
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

    fn order<'c>(a: &'c [u32], b: &'c [u32]) -> OdCodes<'c> {
        OdCodes::Order(a, b)
    }

    /// The order verdict of both kernels, asserted equal.
    fn compat(ctx: &StrippedPartition, a: &[u32], b: &[u32]) -> bool {
        let mut scratch = SwapScratch::new();
        let sweep = holds(ctx.classes(), order(a, b), &mut scratch);
        let card = a.iter().max().map_or(0, |&m| m + 1);
        let tau = SortedColumn::build(a, card);
        let tau = tau_scan(ctx, &tau, b, &mut scratch, None).is_none();
        assert_eq!(sweep, tau, "sort-then-sweep vs τ-scan");
        sweep
    }

    #[test]
    fn constancy_holds_and_fails() {
        // Classes {0,1}, {2,3}; A constant within each.
        let ctx = StrippedPartition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        let mut s = SwapScratch::new();
        let (good, bad) = ([7, 7, 9, 9], [7, 7, 9, 8]);
        assert!(holds(ctx.classes(), OdCodes::Constancy(&good), &mut s));
        assert!(!holds(ctx.classes(), OdCodes::Constancy(&bad), &mut s));
        assert_eq!(
            witnesses(ctx.classes(), OdCodes::Constancy(&bad), 1, &mut s),
            [(2, 3)]
        );
        assert!(witnesses(ctx.classes(), OdCodes::Constancy(&good), 9, &mut s).is_empty());
    }

    #[test]
    fn superkey_context_holds_everything() {
        let ctx = StrippedPartition::from_classes(3, vec![]);
        let mut s = SwapScratch::new();
        assert!(holds(ctx.classes(), OdCodes::Constancy(&[0, 1, 2]), &mut s));
        assert!(compat(&ctx, &[0, 1, 2], &[2, 1, 0]));
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
        assert!(compat(&ctx, &[0, 1, 1, 2], &[1, 0, 2, 1]));
    }

    #[test]
    fn swap_found_across_runs() {
        // One class; A runs: [0,0], [1]; B max of run 0 is 5 > B of run 1.
        let ctx = StrippedPartition::unit(3);
        let (a, b) = ([0, 0, 1], [2, 5, 3]);
        assert!(!compat(&ctx, &a, &b));
        // Witness: row 1 (a=0,b=5) ≺_A row 2 (a=1,b=3) and swap on B, from
        // both kernels.
        let tau = SortedColumn::build(&a, 2);
        let mut s = SwapScratch::new();
        assert_eq!(tau_scan(&ctx, &tau, &b, &mut s, None), Some((1, 2)));
        assert_eq!(witnesses(ctx.classes(), order(&a, &b), 9, &mut s), [(1, 2)]);
    }

    #[test]
    fn equal_b_across_runs_is_not_a_swap() {
        let ctx = StrippedPartition::unit(4);
        assert!(compat(&ctx, &[0, 0, 1, 1], &[3, 3, 3, 4]));
    }

    #[test]
    fn paper_example_salary_subgroup_swap() {
        // Table 1 (§2.3, Example 3): swap w.r.t. salary ~ subg over t1, t2.
        // Salary in table order [5K,8K,10K,4.5K,6K,8K]; subg
        // [III, II, I, III, I, II] coded III=2, II=1, I=0.
        let sal = [1, 3, 4, 0, 2, 3];
        let subg = [2, 1, 0, 2, 0, 1];
        assert!(!compat(&StrippedPartition::unit(6), &sal, &subg));
    }

    #[test]
    fn paper_example_year_context_no_swap_bin_salary() {
        // Example 4: {year}: bin ~ salary holds; year classes are
        // {t1,t2,t3} and {t4,t5,t6}.
        let ctx = StrippedPartition::from_classes(6, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert!(compat(&ctx, &[0, 1, 2, 0, 1, 2], &[1, 3, 4, 0, 2, 3]));
    }

    #[test]
    fn tau_scan_reuses_the_class_map_by_token() {
        let ctx = StrippedPartition::from_classes(5, vec![vec![0, 1, 2, 3]]);
        let tau = SortedColumn::build(&[0, 1, 2, 3, 4], 5);
        let mut s = SwapScratch::new();
        assert!(tau_scan(&ctx, &tau, &[0, 1, 2, 3, 0], &mut s, Some(42)).is_none());
        // Same token: class map reused; different pair checked correctly.
        assert!(tau_scan(&ctx, &tau, &[3, 2, 1, 0, 0], &mut s, Some(42)).is_some());
    }

    #[test]
    fn split_and_swap_counts() {
        let ctx = StrippedPartition::from_classes(6, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        let mut s = SwapScratch::new();
        let count = |a: &[u32], s: &mut SwapScratch| {
            count_violations(ctx.classes(), OdCodes::Constancy(a), s)
        };
        assert_eq!(count(&[7, 7, 7, 9, 9, 9], &mut s), 0);
        // One deviant row in the first class: 2 split pairs.
        assert_eq!(count(&[7, 7, 8, 9, 9, 9], &mut s), 2);
        // Reversed order: every pair is a swap = C(4,2); equal A or B
        // never swaps.
        let unit = StrippedPartition::unit(4);
        let (a, rev) = ([0, 1, 2, 3], [3, 2, 1, 0]);
        assert_eq!(count_violations(unit.classes(), order(&a, &rev), &mut s), 6);
        assert_eq!(count_violations(unit.classes(), order(&a, &a), &mut s), 0);
        assert_eq!(
            count_violations(unit.classes(), order(&[0, 0, 1, 1], &[1, 0, 0, 1]), &mut s),
            1
        );
    }

    #[test]
    fn kernels_run_on_detached_classes() {
        // The engine's delta path counts over detached class copies, which
        // may hold fewer than two rows.
        let rows: Vec<u32> = vec![1, 3, 4];
        let (a, b) = ([9, 0, 9, 1, 2], [9, 2, 9, 1, 0]);
        let mut s = SwapScratch::new();
        let classes = || [&rows[..], &rows[..1], &[]];
        assert_eq!(
            count_violations(classes(), OdCodes::Constancy(&a), &mut s),
            3
        );
        // (1,3), (1,4) and (3,4) are all swaps.
        assert_eq!(count_violations(classes(), order(&a, &b), &mut s), 3);
        assert_eq!(
            removal_size(classes(), order(&a, &b), usize::MAX, &mut s),
            2
        );
        assert!(holds([&rows[..1], &[]], OdCodes::Constancy(&a), &mut s));
    }

    #[test]
    fn removal_sizes_and_rows() {
        let mut s = SwapScratch::new();
        // Majority code 1 (3 rows); remove the other 2. Ties keep the
        // smaller code.
        let unit = StrippedPartition::unit(5);
        let c = [1, 1, 1, 0, 2];
        assert_eq!(
            removal_size(unit.classes(), OdCodes::Constancy(&c), usize::MAX, &mut s),
            2
        );
        let r = report(unit.classes(), OdCodes::Constancy(&c), 9, &mut s);
        assert_eq!((r.violations, r.removal_rows), (7, vec![3, 4]));
        let tie = [5, 4, 5, 4, 3];
        assert_eq!(
            report(unit.classes(), OdCodes::Constancy(&tie), 0, &mut s).removal_rows,
            [0, 2, 4]
        );
        // B mostly ascends with A; one outlier row must go.
        let (a, b) = ([0, 1, 2, 3, 4], [0, 1, 9, 3, 4]);
        assert_eq!(
            removal_size(unit.classes(), order(&a, &b), usize::MAX, &mut s),
            1
        );
        assert_eq!(removal_size(unit.classes(), order(&a, &b), 0, &mut s), 1);
        let r = report(unit.classes(), order(&a, &b), 1, &mut s);
        assert_eq!(
            (r.violations, r.witnesses, r.removal_rows),
            (2, vec![(2, 3)], vec![2])
        );
        // Equal A codes can have B in any order: no removals needed.
        assert_eq!(
            removal_size(unit.classes(), order(&[0; 5], &[2, 0, 1, 4, 3]), 0, &mut s),
            0
        );
        // A reversed B keeps one row of four; violations inside classes
        // only.
        let unit = StrippedPartition::unit(4);
        let (a, desc) = ([0, 1, 2, 3], [3, 2, 1, 0]);
        assert_eq!(removal_size(unit.classes(), order(&a, &desc), 9, &mut s), 3);
        let ctx = StrippedPartition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        let (a, b) = ([0, 1, 0, 1], [1, 0, 0, 1]);
        assert_eq!(removal_size(ctx.classes(), order(&a, &b), 9, &mut s), 1);
        assert_eq!(
            removal_size(ctx.classes(), OdCodes::Constancy(&[5, 5, 6, 7]), 9, &mut s),
            1
        );
    }

    #[test]
    fn removal_sizes_are_monotone_under_refinement() {
        let coarse = StrippedPartition::unit(6);
        let fine = StrippedPartition::from_classes(6, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        let mut s = SwapScratch::new();
        let (a, b, c) = ([0, 1, 2, 0, 1, 2], [2, 1, 0, 1, 2, 0], [0, 1, 0, 1, 0, 1]);
        let mut size =
            |p: &StrippedPartition, od| removal_size(p.classes(), od, usize::MAX, &mut s);
        assert!(size(&fine, order(&a, &b)) <= size(&coarse, order(&a, &b)));
        assert!(size(&fine, OdCodes::Constancy(&c)) <= size(&coarse, OdCodes::Constancy(&c)));
    }
}
