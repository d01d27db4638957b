//! Property-based tests for the partition substrate: products against
//! ground-truth grouping, refinements against products, every class kernel
//! and the τ-scan against the naive pairwise oracle, and superkey
//! behaviour — on random codes.

use fastod_partition::{
    count_violations, holds, removal_size, report, tau_scan, witnesses, OdCodes, SortedColumn,
    StrippedPartition, SwapScratch,
};
use proptest::prelude::*;

/// Random dense-rank code column of length `n` with cardinality ≤ `card`.
fn arb_codes(n: usize, card: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..card, n)
}

/// Ground-truth partition by exhaustive grouping.
fn partition_naive(codes: &[u32]) -> Vec<Vec<u32>> {
    let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for (row, &c) in codes.iter().enumerate() {
        groups.entry(c).or_default().push(row as u32);
    }
    let mut classes: Vec<Vec<u32>> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .collect();
    classes.sort();
    classes
}

/// Whether `(s, t)` violates the OD, oriented as the kernels report it: a
/// split differs on `A`, a swap has `s ≺_A t` and `t ≺_B s`.
fn violates(od: OdCodes<'_>, s: u32, t: u32) -> bool {
    let (s, t) = (s as usize, t as usize);
    match od {
        OdCodes::Constancy(a) => a[s] != a[t],
        OdCodes::Order(a, b) => a[s] < a[t] && b[s] > b[t],
    }
}

/// Naive pair scan: every violating pair of rows inside one class, each
/// unordered pair once.
fn violating_pairs(classes: &[Vec<u32>], od: OdCodes<'_>) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for class in classes {
        for (i, &s) in class.iter().enumerate() {
            for &t in &class[i + 1..] {
                if violates(od, s, t) || violates(od, t, s) {
                    out.push((s, t));
                }
            }
        }
    }
    out
}

/// Naive pairwise swap oracle within context classes.
fn has_swap_naive(ctx: &StrippedPartition, a: &[u32], b: &[u32]) -> bool {
    !violating_pairs(&ctx.normalized(), OdCodes::Order(a, b)).is_empty()
}

fn dense(codes: &[u32]) -> u32 {
    codes.iter().max().map_or(0, |&m| m + 1)
}

/// `Π*` of the combined key of `cols` over their first `n` rows, with the
/// rows flagged in `deleted` taken out.
fn key_partition(cols: &[Vec<u32>], n: usize, deleted: &[bool]) -> StrippedPartition {
    let mut p = cols
        .iter()
        .map(|c| StrippedPartition::from_codes(&c[..n], dense(c)))
        .reduce(|acc, p| acc.product_simple(&p))
        .expect("at least one column");
    p.remove_rows_masked(&deleted[..n]);
    p
}

/// `remove_rows_masked` by definition: filter each class in order, drop
/// classes under 2 rows. Returns the CSR buffers and whether some class
/// lost a row.
fn remove_reference(p: &StrippedPartition, deleted: &[bool]) -> (Vec<u32>, Vec<u32>, bool) {
    let (mut rows, mut offsets, mut touched) = (Vec::new(), vec![0u32], false);
    for class in p.classes() {
        let kept: Vec<u32> = class.iter().copied().filter(|&r| !deleted[r as usize]).collect();
        touched |= kept.len() < class.len();
        if kept.len() >= 2 {
            rows.extend_from_slice(&kept);
            offsets.push(rows.len() as u32);
        }
    }
    (rows, offsets, touched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn remove_rows_masked_equals_filter_reference(
        (cols, old_n, build, mask_kind, pick, random) in (1usize..=40, 2u32..8)
            .prop_flat_map(|(n, card)| (
                prop::collection::vec(arb_codes(n, card), 2),
                0..=n,
                0u32..3,
                0u32..5,
                any::<usize>(),
                prop::collection::vec(any::<bool>(), n),
            ))
    ) {
        let (c0, c1) = (&cols[0], &cols[1]);
        let n = c0.len();
        // Three builders, the last two with classes out of code order.
        let p = match build {
            0 => StrippedPartition::from_codes(c0, dense(c0)),
            1 => StrippedPartition::from_codes(c1, dense(c1))
                .product_simple(&StrippedPartition::from_codes(c0, dense(c0))),
            _ => {
                let mut retained = StrippedPartition::from_codes(&c0[..old_n], dense(c0))
                    .product_simple(&StrippedPartition::from_codes(&c1[..old_n], dense(c1)));
                let parent = StrippedPartition::from_codes(c1, dense(c1));
                let mut scratch = fastod_partition::ProductScratch::new();
                retained.absorb_append(&parent, c0, dense(c0), &mut scratch);
                retained
            }
        };
        let mut mask = vec![false; n];
        match mask_kind {
            0 => {}
            1 => mask[pick % n] = true,
            2 if p.n_classes() > 0 => {
                for &row in p.class(pick % p.n_classes()) {
                    mask[row as usize] = true;
                }
            }
            3 => mask.fill(true),
            _ => mask = random,
        }
        let (rows, offsets, touched) = remove_reference(&p, &mask);
        let mut got = p.clone();
        prop_assert_eq!(got.remove_rows_masked(&mask), touched);
        prop_assert_eq!(got.raw_csr(), (&rows[..], &offsets[..]));
        prop_assert_eq!(got.n_rows(), n);
    }

    #[test]
    fn from_codes_matches_naive_grouping(codes in (1usize..=30).prop_flat_map(|n| arb_codes(n, 5))) {
        let p = StrippedPartition::from_codes(&codes, dense(&codes));
        prop_assert_eq!(p.normalized(), partition_naive(&codes));
    }

    #[test]
    fn product_equals_combined_key_partition(
        (a, b) in (1usize..=30).prop_flat_map(|n| (arb_codes(n, 4), arb_codes(n, 4)))
    ) {
        let pa = StrippedPartition::from_codes(&a, dense(&a));
        let pb = StrippedPartition::from_codes(&b, dense(&b));
        let product = pa.product_simple(&pb);
        // Ground truth: partition by the combined (a, b) key.
        let combined: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x * 4 + y).collect();
        let truth = StrippedPartition::from_codes(&combined, dense(&combined));
        prop_assert_eq!(product.normalized(), truth.normalized());
    }

    #[test]
    fn product_is_commutative_and_idempotent(
        (a, b) in (1usize..=25).prop_flat_map(|n| (arb_codes(n, 3), arb_codes(n, 3)))
    ) {
        let pa = StrippedPartition::from_codes(&a, dense(&a));
        let pb = StrippedPartition::from_codes(&b, dense(&b));
        prop_assert_eq!(pa.product_simple(&pb), pb.product_simple(&pa));
        prop_assert_eq!(pa.product_simple(&pa), pa.clone());
    }

    #[test]
    fn swap_scan_matches_naive_oracle(
        (ctx_codes, a, b) in (2usize..=25).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 4), arb_codes(n, 4))
        })
    ) {
        let ctx = StrippedPartition::from_codes(&ctx_codes, dense(&ctx_codes));
        let tau = SortedColumn::build(&a, dense(&a));
        let mut scratch = SwapScratch::new();
        let compatible = tau_scan(&ctx, &tau, &b, &mut scratch, None).is_none();
        prop_assert_eq!(compatible, !has_swap_naive(&ctx, &a, &b));
    }

    /// Every answer of both OD shapes' class kernels against the naive pair
    /// scan, on random contexts (the unit context included) and code
    /// columns, through one scratch that early exits leave dirty.
    #[test]
    fn class_kernels_match_naive_pair_scan(
        (ctx_codes, a, b) in (2usize..=25, 1u32..=4).prop_flat_map(|(n, k)| {
            (arb_codes(n, k), arb_codes(n, 4), arb_codes(n, 4))
        })
    ) {
        let ctx = StrippedPartition::from_codes(&ctx_codes, dense(&ctx_codes));
        let classes = ctx.normalized();
        let tau = SortedColumn::build(&a, dense(&a));
        let mut scratch = SwapScratch::new();
        for od in [OdCodes::Constancy(&a), OdCodes::Order(&a, &b)] {
            let pairs = violating_pairs(&classes, od);
            let verdict = pairs.is_empty();
            prop_assert_eq!(holds(ctx.classes(), od, &mut scratch), verdict);
            prop_assert_eq!(count_violations(ctx.classes(), od, &mut scratch), pairs.len() as u64);

            // Witnesses: genuine, within one class, each violating row once
            // as `t` (splits: rows off the first row's code; swaps: rows
            // with a smaller-A, larger-B partner), capped lists prefixes.
            let all = witnesses(ctx.classes(), od, usize::MAX, &mut scratch);
            prop_assert_eq!(all.is_empty(), verdict);
            let class_of = |row: u32| classes.iter().position(|c| c.contains(&row));
            let mut expected_t: Vec<u32> = Vec::new();
            for class in &classes {
                expected_t.extend(class.iter().copied().filter(|&t| match od {
                    OdCodes::Constancy(_) => violates(od, class[0], t),
                    OdCodes::Order(..) => class.iter().any(|&s| violates(od, s, t)),
                }));
            }
            let mut got_t: Vec<u32> = all.iter().map(|&(_, t)| t).collect();
            got_t.sort_unstable();
            expected_t.sort_unstable();
            prop_assert_eq!(got_t, expected_t);
            for &(s, t) in &all {
                prop_assert!(violates(od, s, t), "bogus witness ({}, {})", s, t);
                prop_assert!(class_of(s).is_some() && class_of(s) == class_of(t));
            }
            for limit in 0..=all.len() + 1 {
                let capped = witnesses(ctx.classes(), od, limit, &mut scratch);
                prop_assert_eq!(&capped[..], &all[..limit.min(all.len())]);
            }

            // Removal size: min(uncapped, cap + 1) at every cap, zero iff
            // the OD holds.
            let size = removal_size(ctx.classes(), od, usize::MAX, &mut scratch);
            prop_assert_eq!(size == 0, verdict);
            for cap in 0..=size + 1 {
                prop_assert_eq!(removal_size(ctx.classes(), od, cap, &mut scratch), size.min(cap + 1));
            }

            // The report: the same count and witnesses, and removal rows of
            // the uncapped size that leave no violating pair.
            for limit in [0, 1, 3, usize::MAX] {
                let r = report(ctx.classes(), od, limit, &mut scratch);
                prop_assert_eq!(r.violations, pairs.len() as u64);
                prop_assert_eq!(&r.witnesses[..], &all[..limit.min(all.len())]);
                prop_assert_eq!(r.removal_rows.len(), size);
                prop_assert!(r.removal_rows.windows(2).all(|w| w[0] < w[1]));
                let kept = |row: &u32| r.removal_rows.binary_search(row).is_err();
                let survivors: Vec<Vec<u32>> =
                    classes.iter().map(|c| c.iter().copied().filter(kept).collect()).collect();
                prop_assert!(violating_pairs(&survivors, od).is_empty());
            }

            // The τ-scan agrees, and its witness is genuine.
            if let OdCodes::Order(_, b) = od {
                let hit = tau_scan(&ctx, &tau, b, &mut scratch, None);
                prop_assert_eq!(hit.is_none(), verdict);
                if let Some((s, t)) = hit {
                    prop_assert!(violates(od, s, t) && class_of(s) == class_of(t));
                }
            }
        }
    }

    #[test]
    fn tane_error_characterizes_fds(
        (a, b) in (2usize..=25).prop_flat_map(|n| (arb_codes(n, 4), arb_codes(n, 4)))
    ) {
        // e(Π_A) == e(Π_A · Π_B) iff A → B (checked by the constancy scan).
        let pa = StrippedPartition::from_codes(&a, dense(&a));
        let pb = StrippedPartition::from_codes(&b, dense(&b));
        let pab = pa.product_simple(&pb);
        let fd = holds(pa.classes(), OdCodes::Constancy(&b), &mut SwapScratch::new());
        prop_assert_eq!(pa.error() == pab.error(), fd);
    }

    #[test]
    fn superkey_iff_all_distinct(codes in (1usize..=25).prop_flat_map(|n| arb_codes(n, 30))) {
        let p = StrippedPartition::from_codes(&codes, dense(&codes));
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(p.is_superkey(), sorted.len() == codes.len());
    }

    #[test]
    fn absorb_append_equals_parent_product(
        (mut cols, old_n, tail, with_deletes, del) in (2usize..=4, 0usize..=16, 0usize..=10)
            .prop_flat_map(|(k, old_n, new_n)| (
                prop::collection::vec(arb_codes(old_n + new_n, 3), k),
                Just(old_n),
                0u32..3,
                any::<bool>(),
                arb_codes(old_n, 4),
            ))
    ) {
        // X is every column; the parent X ∖ {a} drops the last one, `a`.
        match tail {
            // A tail of fresh codes in column 0: its rows are singletons in
            // the parent, so the batch touches no class.
            1 => for (i, code) in cols[0][old_n..].iter_mut().enumerate() {
                *code = 3 + i as u32;
            },
            // A tail repeating every old row: every class gains a row.
            2 => for col in &mut cols {
                col.truncate(old_n);
                col.extend_from_within(..);
            },
            _ => {}
        }
        let n = cols[0].len();
        // Deletes target old rows only: appended rows are live.
        let deleted: Vec<bool> = (0..n).map(|r| with_deletes && r < old_n && del[r] == 0).collect();
        let (a, parent_cols) = cols.split_last().expect("k >= 2");
        let mut absorbed = key_partition(&cols, old_n, &deleted);
        let before = absorbed.clone();
        let parent = key_partition(parent_cols, n, &deleted);
        let other = key_partition(&cols[1..], n, &deleted);
        let fresh = other.product_simple(&parent);
        let mut scratch = fastod_partition::ProductScratch::new();
        let dirty = absorbed.absorb_append(&parent, a, dense(a), &mut scratch);

        prop_assert_eq!(&absorbed, &fresh);
        for class in absorbed.classes() {
            prop_assert!(class.is_sorted(), "{:?}", class);
        }
        // Any parent serves: through `X ∖ {col 0}`, re-splitting by column
        // 0, the partition is the same and keeps rows ascending.
        let mut through_other = before.clone();
        let other_dirty = through_other.absorb_append(&other, &cols[0], dense(&cols[0]), &mut scratch);
        prop_assert_eq!(&through_other, &fresh);
        for class in through_other.classes() {
            prop_assert!(class.is_sorted(), "{:?}", class);
        }
        // Dirty iff some appended row is covered in the rebuilt partition.
        let covered = fresh.classes().iter().flatten().any(|&row| row as usize >= old_n);
        prop_assert_eq!(dirty, covered);
        prop_assert_eq!(other_dirty, covered);
        let gained = |class: &[u32]| class.last().is_some_and(|&row| row as usize >= old_n);
        if tail == 1 {
            prop_assert!(!dirty);
            prop_assert_eq!(absorbed.raw_csr(), before.raw_csr());
        }
        if tail == 2 {
            prop_assert!(parent.classes().iter().all(gained));
        }
        // Every parent class re-split: the product's exact bytes.
        if parent.classes().iter().all(gained) {
            prop_assert_eq!(absorbed.raw_csr(), fresh.raw_csr());
        }
    }

    #[test]
    fn refine_equals_product_that_splits(
        (mut cols, kinds, old_n, del) in (1usize..=40).prop_flat_map(|n| (
            prop::collection::vec(arb_codes(n, 5), 2),
            (0u32..4, 0u32..4),
            0..=n,
            arb_codes(n, 4),
        ))
    ) {
        let n = cols[0].len();
        // Constant and key-like columns besides random ones.
        for (col, kind) in cols.iter_mut().zip([kinds.0, kinds.1]) {
            match kind {
                1 => col.fill(0),
                2 => *col = (0..n as u32).rev().collect(),
                _ => {}
            }
        }
        let (c0, c1) = (&cols[0], &cols[1]);
        let mut scratch = fastod_partition::ProductScratch::new();
        let p0 = StrippedPartition::from_codes(c0, dense(c0));
        let p1 = StrippedPartition::from_codes(c1, dense(c1));
        let refined = p0.refine(c1, dense(c1), &mut scratch);
        prop_assert_eq!(refined.raw_csr(), p1.product_simple(&p0).raw_csr());

        // Π*_{c0} over the first `old_n` rows absorbs the others, which
        // puts its classes out of code order, then loses a quarter of the
        // rows. Refining it still splits exactly as the product does.
        let mut grown = StrippedPartition::from_codes(&c0[..old_n], dense(c0));
        grown.append_codes(c0, dense(c0));
        let deleted: Vec<bool> = del.iter().map(|&d| d == 0).collect();
        grown.remove_rows_masked(&deleted);
        let live: Vec<bool> = deleted.iter().map(|&d| !d).collect();
        let p1_live = StrippedPartition::from_codes_masked(c1, dense(c1), &live);
        let refined = grown.refine(c1, dense(c1), &mut scratch);
        prop_assert_eq!(refined.raw_csr(), p1_live.product_simple(&grown).raw_csr());
    }

    #[test]
    fn scratch_reuse_is_transparent(
        (a, b, c) in (2usize..=20).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 3), arb_codes(n, 3))
        })
    ) {
        // Interleaved products through one scratch equal fresh computations.
        let pa = StrippedPartition::from_codes(&a, dense(&a));
        let pb = StrippedPartition::from_codes(&b, dense(&b));
        let pc = StrippedPartition::from_codes(&c, dense(&c));
        let mut scratch = fastod_partition::ProductScratch::new();
        let r1 = pa.product(&pb, &mut scratch);
        let r2 = pb.product(&pc, &mut scratch);
        let r3 = pa.product(&pc, &mut scratch);
        prop_assert_eq!(r1, pa.product_simple(&pb));
        prop_assert_eq!(r2, pb.product_simple(&pc));
        prop_assert_eq!(r3, pa.product_simple(&pc));
    }
}
