//! Brute-force order-dependency oracle.
//!
//! An *independent* ground-truth implementation of canonical-OD validity and
//! minimality, straight from Definition 6's tuple-pair semantics. Nothing
//! here touches the partition machinery, the validators, or the axiom engine
//! that the production code paths use — so agreement between FASTOD and this
//! oracle genuinely cross-checks two implementations (Theorem 8:
//! completeness and minimality of the discovered set `M`).
//!
//! Complexity is exponential in attributes and quadratic in rows; intended
//! for instances with ≤ [`MAX_ORACLE_ATTRS`] attributes and a few dozen rows.
//!
//! Context classes are **memoized over the subset lattice**: `Π_X` for every
//! context `X` is derived by refining `Π_{X \ {a}}` (with `a` the smallest
//! attribute of `X`) against `a`'s codes, so the `2^n` contexts cost
//! `O(2^n · n_rows)` id assignments instead of `2^n` independent
//! `O(n · n_rows)` tuple-key groupings. The order-compatibility check is a
//! per-class **sort-then-sweep** over the `(a, b)` code pairs —
//! `O(|E| log |E|)` per class instead of the earlier naive `O(|E|²)` pair
//! scan, which is what raised the oracle ceiling from 6 to
//! [`MAX_ORACLE_ATTRS`] attributes. It remains a pile of direct code
//! comparisons, independent of the partition machinery (the sweep itself is
//! pinned against an exhaustive pair scan by this module's tests).

use fastod_relation::{AttrId, AttrSet, EncodedRelation};
use fastod_theory::{CanonicalOd, OdSet};
use std::collections::HashMap;

/// Largest schema the oracle accepts; beyond this the `2^n` context sweep
/// stops being "obviously correct by inspection *and* fast". The per-class
/// scans are sub-quadratic since the sort-then-sweep rewrite (ceiling 6 → 8)
/// and the minimality filter uses a popcount-sorted subset index instead of
/// the old `O(|valid|²)` all-pairs scan, which is what made proptest volume
/// at the full 8 attributes affordable.
pub const MAX_ORACLE_ATTRS: usize = 8;

/// Ground truth for one instance: every valid non-trivial canonical OD, and
/// the unique minimal subset of it from which all the rest follow.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// Every non-trivial canonical OD that holds, over all contexts.
    pub valid: Vec<CanonicalOd>,
    /// The minimal cover: valid ODs not implied by the other valid ODs
    /// (context-subset witnesses, plus Propagate for order compatibility).
    pub minimal: Vec<CanonicalOd>,
}

/// Context equivalence classes for *every* context mask at once, memoized
/// bottom-up over the subset lattice: each context's per-row class ids come
/// from refining its smallest-attribute-removed parent by one code column.
/// Only direct code comparisons are involved — no partition machinery.
fn all_context_classes(enc: &EncodedRelation) -> HashMap<u64, Vec<Vec<usize>>> {
    let n = enc.n_attrs();
    let n_rows = enc.n_rows();
    let mut ids: HashMap<u64, Vec<u32>> = HashMap::with_capacity(1 << n);
    ids.insert(0, vec![0; n_rows]);
    for ctx_mask in 1u64..(1 << n) {
        let a = ctx_mask.trailing_zeros() as AttrId;
        let parent = &ids[&(ctx_mask & (ctx_mask - 1))];
        let mut fresh: HashMap<(u32, u32), u32> = HashMap::new();
        let mut out = Vec::with_capacity(n_rows);
        for (row, &parent_id) in parent.iter().enumerate() {
            let key = (parent_id, enc.code(row, a));
            let next = fresh.len() as u32;
            out.push(*fresh.entry(key).or_insert(next));
        }
        ids.insert(ctx_mask, out);
    }
    ids.into_iter()
        .map(|(ctx_mask, ids)| {
            let k = ids.iter().max().map_or(0, |&m| m as usize + 1);
            let mut classes = vec![Vec::new(); k];
            for (row, &id) in ids.iter().enumerate() {
                classes[id as usize].push(row);
            }
            (ctx_mask, classes)
        })
        .collect()
}

/// `ctx: [] ↦ rhs` by definition: within every context class, all `rhs`
/// codes coincide.
fn constancy_holds(enc: &EncodedRelation, classes: &[Vec<usize>], rhs: AttrId) -> bool {
    classes.iter().all(|class| {
        class
            .windows(2)
            .all(|w| enc.code(w[0], rhs) == enc.code(w[1], rhs))
    })
}

/// Classes at or below this size use the definitional all-pairs scan;
/// larger classes switch to the sort-then-sweep. Oracle-sized proptest
/// instances (≤ ~24 rows) stay entirely on the definitional side, keeping
/// the oracle genuinely independent of the production sweep algorithm.
const PAIR_SCAN_CLASS_CAP: usize = 32;

/// `ctx: a ~ b` by definition: no tuple pair within a context class is
/// ordered oppositely on `a` and `b` (a *swap*, Definition 5).
///
/// Small classes (≤ [`PAIR_SCAN_CLASS_CAP`]) are checked by the exhaustive
/// `O(|E|²)` pair scan straight from the definition — at the row counts the
/// property suites use, *every* class takes this path, so oracle verdicts
/// never depend on the same sweep algorithm the production validator uses.
/// Larger classes fall back to a per-class sort-then-sweep
/// (`O(|E| log |E|)`) so wide-but-tall ad-hoc uses stay tractable; the two
/// are pinned equal by `sweep_agrees_with_quadratic_pair_scan` below.
fn order_compat_holds(enc: &EncodedRelation, classes: &[Vec<usize>], a: AttrId, b: AttrId) -> bool {
    classes.iter().all(|class| {
        if class.len() <= PAIR_SCAN_CLASS_CAP {
            return class.iter().enumerate().all(|(i, &s)| {
                class[i + 1..].iter().all(|&t| {
                    let (ca, cb) = (
                        enc.code(s, a).cmp(&enc.code(t, a)),
                        enc.code(s, b).cmp(&enc.code(t, b)),
                    );
                    !(ca == cb.reverse() && ca != std::cmp::Ordering::Equal)
                })
            });
        }
        let mut pairs: Vec<(u32, u32)> = class
            .iter()
            .map(|&row| (enc.code(row, a), enc.code(row, b)))
            .collect();
        pairs.sort_unstable();
        let mut last_a = u32::MAX;
        let mut run_max_b = 0u32;
        let mut prev_max_b = -1i64;
        for (i, &(ca, cb)) in pairs.iter().enumerate() {
            if i == 0 {
                (last_a, run_max_b) = (ca, cb);
            } else if ca != last_a {
                prev_max_b = prev_max_b.max(i64::from(run_max_b));
                (last_a, run_max_b) = (ca, cb);
            } else {
                run_max_b = run_max_b.max(cb);
            }
            if i64::from(cb) < prev_max_b {
                return false;
            }
        }
        true
    })
}

/// Enumerates every non-trivial valid canonical OD by exhaustive tuple
/// comparison over all `2^n` contexts.
///
/// # Panics
/// If the instance has more than [`MAX_ORACLE_ATTRS`] attributes.
pub fn oracle_valid_ods(enc: &EncodedRelation) -> Vec<CanonicalOd> {
    let n = enc.n_attrs();
    assert!(
        n <= MAX_ORACLE_ATTRS,
        "brute-force oracle is limited to {MAX_ORACLE_ATTRS} attributes, got {n}"
    );
    let mut out = Vec::new();
    let memo = all_context_classes(enc);
    for ctx_mask in 0u64..(1 << n) {
        let classes = &memo[&ctx_mask];
        let ctx = AttrSet::from_bits(ctx_mask);
        for a in 0..n {
            let od = CanonicalOd::constancy(ctx, a);
            if !od.is_trivial() && constancy_holds(enc, classes, a) {
                out.push(od);
            }
            for b in (a + 1)..n {
                let od = CanonicalOd::order_compat(ctx, a, b);
                if !od.is_trivial() && order_compat_holds(enc, classes, a, b) {
                    out.push(od);
                }
            }
        }
    }
    out
}

/// A subset-witness index over the valid ODs, replacing the old
/// `O(|valid|²)` all-pairs minimality filter.
///
/// Contexts are bucketed by what they determine — constancy ODs by their
/// right-hand attribute, order-compatibility ODs by their unordered pair —
/// and each bucket is sorted by context **size** (popcount). A witness
/// `Y ⊆ X` necessarily has `|Y| ≤ |X|`, so a lookup scans only the prefix of
/// one small bucket (cut by `partition_point` on the size) and tests subsets
/// with a single mask-and. This is what unblocked the 8-attribute
/// Theorem-8 band: at `n = 8` the valid set routinely holds thousands of
/// ODs, and the filter used to dominate the oracle's runtime.
struct SubsetIndex {
    /// `rhs → (|Y|, Y bits)` of every valid constancy OD, sorted.
    constancy: Vec<Vec<(u32, u64)>>,
    /// `a * n + b` (a < b) → `(|Y|, Y bits)` of every valid
    /// order-compatibility OD on `{a, b}`, sorted.
    order_compat: Vec<Vec<(u32, u64)>>,
    n: usize,
}

impl SubsetIndex {
    fn build(valid: &[CanonicalOd], n: usize) -> SubsetIndex {
        let mut constancy: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut order_compat: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n * n];
        for od in valid {
            match *od {
                CanonicalOd::Constancy { context, rhs } => {
                    constancy[rhs].push((context.len() as u32, context.bits()));
                }
                CanonicalOd::OrderCompat { context, a, b } => {
                    order_compat[a * n + b].push((context.len() as u32, context.bits()));
                }
            }
        }
        for bucket in constancy.iter_mut().chain(order_compat.iter_mut()) {
            bucket.sort_unstable();
        }
        SubsetIndex {
            constancy,
            order_compat,
            n,
        }
    }

    /// Whether the bucket holds a context `Y ⊆ ctx` (`Y ⊊ ctx` when
    /// `strict`). Only prefix entries with a small enough popcount are
    /// scanned; strictly-smaller popcount implies `Y ≠ ctx` for free.
    fn has_subset_witness(bucket: &[(u32, u64)], ctx: AttrSet, strict: bool) -> bool {
        let ctx_bits = ctx.bits();
        let limit = ctx.len() as u32 + u32::from(!strict);
        let hi = bucket.partition_point(|&(size, _)| size < limit);
        bucket[..hi]
            .iter()
            .any(|&(_, y)| y & ctx_bits == y && (!strict || y != ctx_bits))
    }

    /// Whether `od` follows from the *other* valid ODs.
    ///
    /// Valid canonical ODs are upward closed in the context (augmenting a
    /// context only refines its classes), so implication from a full valid
    /// set reduces to witnesses:
    /// * constancy `X: [] ↦ A` — a valid `Y: [] ↦ A` with `Y ⊊ X`
    ///   (Augmentation-I);
    /// * order compatibility `X: A ~ B` — a valid `Y: A ~ B` with `Y ⊊ X`
    ///   (Augmentation-II), or a valid constancy on `A` or `B` with `Y ⊆ X`
    ///   (Propagate).
    fn implies(&self, od: &CanonicalOd) -> bool {
        match *od {
            CanonicalOd::Constancy { context, rhs } => {
                Self::has_subset_witness(&self.constancy[rhs], context, true)
            }
            CanonicalOd::OrderCompat { context, a, b } => {
                Self::has_subset_witness(&self.order_compat[a * self.n + b], context, true)
                    || Self::has_subset_witness(&self.constancy[a], context, false)
                    || Self::has_subset_witness(&self.constancy[b], context, false)
            }
        }
    }
}

/// Definitional violation count of one canonical OD: the number of tuple
/// pairs violating it, by exhaustive pair scan straight from Definition 6 —
/// split pairs for constancy, swap pairs for order compatibility.
///
/// Quadratic in rows and independent of the partition machinery; it pins
/// the sub-quadratic counter in `fastod-partition` (`count_violations`)
/// behind the violation counts of `CheckReport` and
/// `residual_violations`. Zero iff the OD holds.
pub fn oracle_violation_count(enc: &EncodedRelation, od: &CanonicalOd) -> u64 {
    let n = enc.n_rows();
    let mut count = 0u64;
    for s in 0..n {
        for t in (s + 1)..n {
            if !enc.same_class(od.context(), s, t) {
                continue;
            }
            let violated = match *od {
                CanonicalOd::Constancy { rhs, .. } => enc.code(s, rhs) != enc.code(t, rhs),
                CanonicalOd::OrderCompat { a, b, .. } => {
                    let (sa, ta) = (enc.code(s, a), enc.code(t, a));
                    let (sb, tb) = (enc.code(s, b), enc.code(t, b));
                    (sa < ta && sb > tb) || (sa > ta && sb < tb)
                }
            };
            if violated {
                count += 1;
            }
        }
    }
    count
}

/// The unique minimal cover of the instance's valid ODs: exactly the valid
/// ODs not implied by the remaining valid ones. By Theorem 8 this is what
/// FASTOD must output.
pub fn oracle_minimal_cover(enc: &EncodedRelation) -> OracleReport {
    let valid = oracle_valid_ods(enc);
    let index = SubsetIndex::build(&valid, enc.n_attrs());
    let minimal: Vec<CanonicalOd> = valid
        .iter()
        .filter(|od| !index.implies(od))
        .copied()
        .collect();
    OracleReport { valid, minimal }
}

impl OracleReport {
    /// The minimal cover as an [`OdSet`], for direct comparison against
    /// `DiscoveryResult::ods`.
    pub fn minimal_od_set(&self) -> OdSet {
        self.minimal.iter().copied().collect()
    }

    /// Whether `m` is exactly the oracle's minimal cover (as a set).
    pub fn matches(&self, m: &OdSet) -> bool {
        m.len() == self.minimal.len() && self.minimal.iter().all(|od| m.contains(od))
    }

    /// Human-readable diff against a discovered set, for failure messages.
    pub fn diff(&self, m: &OdSet) -> String {
        let mut out = String::new();
        for od in &self.minimal {
            if !m.contains(od) {
                out.push_str(&format!("missing from M: {od}\n"));
            }
        }
        let oracle_set: OdSet = self.minimal.iter().copied().collect();
        for od in m.iter() {
            if !oracle_set.contains(od) {
                out.push_str(&format!("extra in M: {od}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::RelationBuilder;

    fn enc_of(cols: Vec<(&str, Vec<i64>)>) -> EncodedRelation {
        let mut b = RelationBuilder::new();
        for (name, data) in cols {
            b = b.column_i64(name, data);
        }
        b.build().unwrap().encode()
    }

    #[test]
    fn constant_column_is_found_everywhere() {
        let e = enc_of(vec![("k", vec![1, 2, 3]), ("c", vec![7, 7, 7])]);
        let report = oracle_minimal_cover(&e);
        // {}: [] ↦ c is valid and minimal; its augmented form {k}: [] ↦ c is
        // valid but implied.
        let root = CanonicalOd::constancy(AttrSet::EMPTY, 1);
        assert!(report.valid.contains(&root));
        assert!(report.valid.contains(&CanonicalOd::constancy(AttrSet::singleton(0), 1)));
        assert!(report.minimal.contains(&root));
        assert!(!report.minimal.contains(&CanonicalOd::constancy(AttrSet::singleton(0), 1)));
    }

    #[test]
    fn propagate_prunes_order_compat_of_constant() {
        let e = enc_of(vec![("a", vec![1, 2, 3]), ("c", vec![7, 7, 7])]);
        let report = oracle_minimal_cover(&e);
        // {}: a ~ c is valid (c constant ⟹ no swaps) but implied by
        // {}: [] ↦ c via Propagate.
        let oc = CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1);
        assert!(report.valid.contains(&oc));
        assert!(!report.minimal.contains(&oc));
    }

    #[test]
    fn monotone_pair_is_minimal_order_compat() {
        let e = enc_of(vec![("a", vec![1, 2, 3, 4]), ("b", vec![10, 20, 20, 40])]);
        let report = oracle_minimal_cover(&e);
        let oc = CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1);
        assert!(report.valid.contains(&oc));
        assert!(report.minimal.contains(&oc));
    }

    #[test]
    fn swap_invalidates_order_compat() {
        let e = enc_of(vec![("a", vec![1, 2]), ("b", vec![2, 1])]);
        let report = oracle_minimal_cover(&e);
        assert!(!report
            .valid
            .contains(&CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)));
    }

    /// `oracle_violation_count` is zero exactly on the valid ODs, and its
    /// counts follow the pair-removal arithmetic (deleting a row removes
    /// exactly the violating pairs that row participates in).
    #[test]
    fn violation_counts_are_consistent_with_validity() {
        let e = enc_of(vec![
            ("k", vec![1, 2, 3, 4]),
            ("c", vec![7, 7, 9, 9]),
            ("s", vec![4, 3, 2, 1]),
        ]);
        for ctx_mask in 0u64..8 {
            let ctx = AttrSet::from_bits(ctx_mask);
            let valid = oracle_valid_ods(&e);
            for a in 0..3 {
                let od = CanonicalOd::constancy(ctx, a);
                if !od.is_trivial() {
                    assert_eq!(
                        oracle_violation_count(&e, &od) == 0,
                        valid.contains(&od),
                        "{od}"
                    );
                }
                for b in (a + 1)..3 {
                    let od = CanonicalOd::order_compat(ctx, a, b);
                    if !od.is_trivial() {
                        assert_eq!(
                            oracle_violation_count(&e, &od) == 0,
                            valid.contains(&od),
                            "{od}"
                        );
                    }
                }
            }
        }
        // k strictly ascending, s strictly descending: all C(4,2) pairs swap.
        let od = CanonicalOd::order_compat(AttrSet::EMPTY, 0, 2);
        assert_eq!(oracle_violation_count(&e, &od), 6);
        // c has two 2-value groups: 2*2 split pairs under the empty context.
        let od = CanonicalOd::constancy(AttrSet::EMPTY, 1);
        assert_eq!(oracle_violation_count(&e, &od), 4);
    }

    #[test]
    fn oracle_rejects_wide_schemas() {
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
        let e = enc_of(names.iter().map(|&n| (n, vec![1i64])).collect::<Vec<_>>());
        assert!(std::panic::catch_unwind(move || oracle_valid_ods(&e)).is_err());
    }

    /// The sort-then-sweep order-compatibility check must agree with the
    /// definitional exhaustive pair scan on randomized classes — this pin is
    /// what lets the oracle stay "ground truth" after losing its O(|E|²)
    /// loop.
    #[test]
    fn sweep_agrees_with_quadratic_pair_scan() {
        fn quadratic(enc: &EncodedRelation, classes: &[Vec<usize>], a: AttrId, b: AttrId) -> bool {
            classes.iter().all(|class| {
                class.iter().enumerate().all(|(i, &s)| {
                    class[i + 1..].iter().all(|&t| {
                        let (ca, cb) = (
                            enc.code(s, a).cmp(&enc.code(t, a)),
                            enc.code(s, b).cmp(&enc.code(t, b)),
                        );
                        !(ca == cb.reverse() && ca != std::cmp::Ordering::Equal)
                    })
                })
            })
        }
        let mut seed = 0x51ED_2701_9E37_79B9u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..300 {
            // Half the trials use classes well above PAIR_SCAN_CLASS_CAP so
            // the sweep branch itself is exercised against the definition.
            let n = if trial % 2 == 0 {
                2 + (next() % 14) as usize
            } else {
                PAIR_SCAN_CLASS_CAP + 8 + (next() % 60) as usize
            };
            let card = 1 + (next() % 5) as i64;
            let ctx_card = 1 + (next() % 3) as i64;
            let e = enc_of(vec![
                ("ctx", (0..n).map(|_| (next() as i64).rem_euclid(ctx_card)).collect()),
                ("a", (0..n).map(|_| (next() as i64).rem_euclid(card)).collect()),
                ("b", (0..n).map(|_| (next() as i64).rem_euclid(card)).collect()),
            ]);
            let memo = all_context_classes(&e);
            for ctx_mask in 0u64..8 {
                let classes = &memo[&ctx_mask];
                assert_eq!(
                    order_compat_holds(&e, classes, 1, 2),
                    quadratic(&e, classes, 1, 2),
                    "ctx={ctx_mask:#b}"
                );
            }
        }
    }

    /// The subset-index minimality filter must agree, OD for OD, with the
    /// definitional "implied by any other valid OD" scan it replaced.
    #[test]
    fn indexed_filter_matches_naive_definition() {
        fn implied_naive(valid: &[CanonicalOd], od: &CanonicalOd) -> bool {
            match *od {
                CanonicalOd::Constancy { context, rhs } => valid.iter().any(|c| {
                    matches!(*c, CanonicalOd::Constancy { context: y, rhs: r }
                        if r == rhs && y != context && y.is_subset_of(context))
                }),
                CanonicalOd::OrderCompat { context, a, b } => valid.iter().any(|c| match *c {
                    CanonicalOd::OrderCompat { context: y, a: a2, b: b2 } => {
                        a2 == a && b2 == b && y != context && y.is_subset_of(context)
                    }
                    CanonicalOd::Constancy { context: y, rhs } => {
                        (rhs == a || rhs == b) && y.is_subset_of(context)
                    }
                }),
            }
        }
        let mut seed = 0xD1CE_BEEF_0451_7C21u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let n_attrs = 2 + (next() % 5) as usize;
            let n_rows = 2 + (next() % 12) as usize;
            let card = 1 + (next() % 3) as i64;
            let cols: Vec<(String, Vec<i64>)> = (0..n_attrs)
                .map(|a| {
                    (
                        format!("c{a}"),
                        (0..n_rows).map(|_| (next() as i64).rem_euclid(card)).collect(),
                    )
                })
                .collect();
            let mut b = RelationBuilder::new();
            for (name, data) in &cols {
                b = b.column_i64(name, data.clone());
            }
            let e = b.build().unwrap().encode();
            let valid = oracle_valid_ods(&e);
            let index = SubsetIndex::build(&valid, e.n_attrs());
            for od in &valid {
                assert_eq!(
                    index.implies(od),
                    implied_naive(&valid, od),
                    "filter mismatch on {od} ({n_attrs} attrs)"
                );
            }
        }
    }

    #[test]
    fn memoized_classes_match_direct_grouping() {
        // 6-attribute instance: the lattice-refined classes must equal the
        // classes from independent tuple-key grouping on every context.
        let e = enc_of(vec![
            ("a", vec![0, 0, 1, 1, 2, 0, 1]),
            ("b", vec![1, 1, 0, 0, 1, 0, 1]),
            ("c", vec![0, 1, 0, 1, 0, 1, 0]),
            ("d", vec![2, 2, 2, 0, 0, 0, 1]),
            ("e", vec![0, 0, 0, 0, 0, 0, 0]),
            ("f", vec![3, 1, 4, 1, 5, 9, 2]),
        ]);
        let memo = all_context_classes(&e);
        for ctx_mask in 0u64..(1 << 6) {
            let attrs: Vec<usize> = (0..6).filter(|a| ctx_mask >> a & 1 == 1).collect();
            let mut direct: std::collections::BTreeMap<Vec<u32>, Vec<usize>> = Default::default();
            for row in 0..e.n_rows() {
                let key: Vec<u32> = attrs.iter().map(|&a| e.code(row, a)).collect();
                direct.entry(key).or_default().push(row);
            }
            let mut expected: Vec<Vec<usize>> = direct.into_values().collect();
            expected.sort();
            let mut got = memo[&ctx_mask].clone();
            got.sort();
            assert_eq!(got, expected, "context {ctx_mask:#b}");
        }
    }

    #[test]
    fn six_attribute_cover_is_sound() {
        let e = enc_of(vec![
            ("k", vec![0, 1, 2, 3, 4, 5]),
            ("m", vec![0, 0, 1, 1, 2, 2]),
            ("c", vec![7, 7, 7, 7, 7, 7]),
            ("x", vec![1, 0, 1, 0, 1, 0]),
            ("y", vec![2, 2, 0, 0, 1, 1]),
            ("z", vec![5, 4, 5, 4, 3, 3]),
        ]);
        let report = oracle_minimal_cover(&e);
        // Constant column at the root; monotone pair k ~ m.
        assert!(report.minimal.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 2)));
        assert!(report.minimal.contains(&CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)));
        // Every minimal OD is valid and non-trivial.
        for od in &report.minimal {
            assert!(report.valid.contains(od));
            assert!(!od.is_trivial());
        }
    }
}
