//! ORDER — list-based OD discovery (Langer & Naumann, VLDBJ 2016),
//! re-implemented from its published description for the paper's
//! comparative experiments (§5.3).
//!
//! Candidates are list ODs `X ↦ Y` with disjoint, non-empty sides, organized
//! level-wise by `|X| + |Y|` — the OD view of the list-containment lattice
//! with `⌊|R|!·e⌋` nodes whose node `[A1..Al]` contributes its suffix↦prefix
//! splits. Validation classifies each candidate as valid / split / swap in
//! one pass over the LHS-sorted row order (sorted partitions are cached per
//! LHS list and refined incrementally). Generation rules:
//!
//! * **valid** → emit, and extend the RHS (`X ↦ YB`); LHS extensions are
//!   implied (`X ↦ Y ⟹ XA ↦ Y`) and skipped;
//! * **split only** → extend the LHS (`XA ↦ Y`); RHS extensions stay split;
//! * **swap** (or both) → prune the subtree — the *aggressive swap pruning*
//!   that makes ORDER incomplete: it silently drops FDs embedded in
//!   swap-violated ODs (`X ↦ XY` shapes), order-compatibility facts
//!   (`X': A ~ B`), constants (`[] ↦ Y` is not even representable: sides are
//!   non-empty), and every OD repeating an attribute across sides.
//!
//! Known deviation from the original: ORDER's cross-branch inheritance of
//! swap-deadness is not replicated, so some candidates are re-validated
//! rather than skipped; this affects constant factors only, never the
//! output or the factorial candidate space.

use fastod::{CancelToken, PassError};
use fastod_relation::{AttrId, EncodedRelation};
use fastod_theory::canonical::OdSet;
use fastod_theory::listod::{ListOd, OdStatus};
use fastod_theory::mapping::map_list_od;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Configuration for [`Order`].
#[derive(Clone, Default)]
pub struct OrderConfig {
    /// Stop after candidates of size `|X| + |Y| =` this level.
    pub max_level: Option<usize>,
    /// Cooperative cancellation token.
    pub cancel: CancelToken,
}

/// Per-level statistics of an ORDER run.
#[derive(Clone, Debug, Default)]
pub struct OrderLevelStats {
    /// Candidate size `|X| + |Y|`.
    pub level: usize,
    /// Candidates validated at this level.
    pub candidates: usize,
    /// Valid ODs found.
    pub valid: usize,
    /// Candidates violated by splits only.
    pub split: usize,
    /// Candidates violated by swaps (subtree pruned).
    pub swap: usize,
    /// Wall-clock time spent.
    pub time: Duration,
}

/// Result of an ORDER run.
#[derive(Clone, Debug, Default)]
pub struct OrderResult {
    /// Valid list ODs, in discovery order.
    pub ods: Vec<ListOd>,
    /// Per-level statistics.
    pub levels: Vec<OrderLevelStats>,
    /// End-to-end wall-clock time.
    pub total_time: Duration,
}

impl OrderResult {
    /// Total candidates validated — the cost driver ORDER's factorial
    /// lattice inflates.
    pub fn total_candidates(&self) -> usize {
        self.levels.iter().map(|l| l.candidates).sum()
    }

    /// Minimal list ODs under ORDER's implication rule: `X ↦ Y` is dropped
    /// when some emitted `X' ↦ Y'` has `X'` a prefix of `X` and `Y` a prefix
    /// of `Y'` (and is not the OD itself).
    ///
    /// Indexed: ODs are bucketed by LHS with RHS lists sorted, so each
    /// implication probe is a binary search (`rhs'` extends `rhs` iff the
    /// successor of `rhs` in the sorted bucket starts with it) — the naive
    /// quadratic filter is intractable on ORDER's inflated outputs.
    pub fn minimal_ods(&self) -> Vec<ListOd> {
        let mut by_lhs: HashMap<&[AttrId], Vec<&Vec<AttrId>>> = HashMap::new();
        for od in &self.ods {
            by_lhs.entry(&od.lhs).or_default().push(&od.rhs);
        }
        for bucket in by_lhs.values_mut() {
            bucket.sort_unstable();
        }
        let implied = |od: &ListOd| -> bool {
            // Witness X' ↦ Y' with X' a prefix of X (possibly X itself) and
            // Y a strict-or-equal prefix of Y', (X',Y') != (X,Y).
            for cut in 1..=od.lhs.len() {
                let prefix = &od.lhs[..cut];
                let Some(bucket) = by_lhs.get(prefix) else { continue };
                // First rhs >= od.rhs in sorted order.
                let pos = bucket.partition_point(|r| r.as_slice() < od.rhs.as_slice());
                for r in &bucket[pos..] {
                    if !r.starts_with(&od.rhs) {
                        break;
                    }
                    if cut != od.lhs.len() || r.len() != od.rhs.len() {
                        return true;
                    }
                }
            }
            false
        };
        self.ods.iter().filter(|od| !implied(od)).cloned().collect()
    }

    /// Maps the minimal list ODs into set-based canonical ODs (Theorem 5),
    /// deduplicated and non-trivial — the paper's apples-to-apples count
    /// ("31 list ODs map to 58 set-based ODs (31 FDs + 27 OCDs)").
    pub fn to_canonical_ods(&self) -> OdSet {
        let mut set = OdSet::new();
        for od in self.minimal_ods() {
            for c in map_list_od(&od.lhs, &od.rhs) {
                if !c.is_trivial() {
                    set.insert(c);
                }
            }
        }
        set
    }

    /// Summary in the paper's format: list-OD count plus mapped set-based
    /// counts, e.g. `31 (31 + 27)`.
    pub fn summary(&self) -> String {
        let minimal = self.minimal_ods();
        let mut canon = OdSet::new();
        for od in &minimal {
            for c in map_list_od(&od.lhs, &od.rhs) {
                if !c.is_trivial() {
                    canon.insert(c);
                }
            }
        }
        format!(
            "{} ({} + {})",
            minimal.len(),
            canon.n_constancies(),
            canon.n_order_compats()
        )
    }
}

/// Row order sorted by an LHS list, with group boundaries (the list analogue
/// of a sorted partition).
struct LhsOrder {
    order: Vec<u32>,
    group_of: Vec<u32>,
}

impl LhsOrder {
    /// Base order for a single attribute, via counting sort of codes.
    fn base(codes: &[u32], cardinality: u32) -> LhsOrder {
        let tau = fastod_partition::SortedColumn::build(codes, cardinality);
        let order = tau.order().to_vec();
        let mut group_of = vec![0u32; order.len()];
        let mut g = 0u32;
        for i in 0..order.len() {
            if i > 0 && codes[order[i] as usize] != codes[order[i - 1] as usize] {
                g += 1;
            }
            group_of[i] = g;
        }
        LhsOrder { order, group_of }
    }

    /// Refines by one more attribute: stable sort within groups by `codes`.
    fn refine(&self, codes: &[u32]) -> LhsOrder {
        let n = self.order.len();
        let mut order = Vec::with_capacity(n);
        let mut group_of = Vec::with_capacity(n);
        let mut g_out: i64 = -1;
        let mut i = 0;
        let mut buf: Vec<u32> = Vec::new();
        while i < n {
            let g = self.group_of[i];
            let mut j = i;
            buf.clear();
            while j < n && self.group_of[j] == g {
                buf.push(self.order[j]);
                j += 1;
            }
            buf.sort_unstable_by_key(|&r| (codes[r as usize], r));
            for (k, &r) in buf.iter().enumerate() {
                if k == 0 || codes[r as usize] != codes[buf[k - 1] as usize] {
                    g_out += 1;
                }
                order.push(r);
                group_of.push(g_out as u32);
            }
            i = j;
        }
        LhsOrder { order, group_of }
    }
}

/// The ORDER discovery algorithm.
pub struct Order {
    config: OrderConfig,
}

type Candidate = (Vec<AttrId>, Vec<AttrId>);

impl Order {
    /// Creates an ORDER instance.
    pub fn new(config: OrderConfig) -> Order {
        Order { config }
    }

    /// Runs discovery; panics on cancellation (see [`Order::try_discover`]).
    pub fn discover(&self, enc: &EncodedRelation) -> OrderResult {
        self.try_discover(enc).expect("discovery cancelled")
    }

    /// Runs list-OD discovery with cancellation support.
    pub fn try_discover(&self, enc: &EncodedRelation) -> Result<OrderResult, PassError> {
        let start = Instant::now();
        let n_attrs = enc.n_attrs();
        let mut result = OrderResult::default();
        // Global LHS order cache, built on demand and shared across levels.
        let mut lhs_cache: HashMap<Vec<AttrId>, LhsOrder> = HashMap::new();

        // Level 2: all ordered attribute pairs A ↦ B.
        let mut candidates: BTreeSet<Candidate> = BTreeSet::new();
        for a in 0..n_attrs {
            for b in 0..n_attrs {
                if a != b {
                    candidates.insert((vec![a], vec![b]));
                }
            }
        }
        let mut level = 2usize;

        while !candidates.is_empty() {
            let level_start = Instant::now();
            let mut lstats = OrderLevelStats {
                level,
                candidates: candidates.len(),
                ..Default::default()
            };
            let mut next: BTreeSet<Candidate> = BTreeSet::new();
            for (lhs, rhs) in &candidates {
                self.config.cancel.check()?;
                let order = Self::lhs_order(&mut lhs_cache, enc, lhs);
                let status = Self::validate(enc, order, rhs);
                let reached_cap = self.config.max_level.is_some_and(|cap| level >= cap);
                match status {
                    OdStatus::Valid => {
                        lstats.valid += 1;
                        result.ods.push(ListOd::new(lhs.clone(), rhs.clone()));
                        if !reached_cap {
                            for b in 0..n_attrs {
                                if !lhs.contains(&b) && !rhs.contains(&b) {
                                    let mut rhs2 = rhs.clone();
                                    rhs2.push(b);
                                    next.insert((lhs.clone(), rhs2));
                                }
                            }
                        }
                    }
                    OdStatus::Split => {
                        lstats.split += 1;
                        if !reached_cap {
                            for a in 0..n_attrs {
                                if !lhs.contains(&a) && !rhs.contains(&a) {
                                    let mut lhs2 = lhs.clone();
                                    lhs2.push(a);
                                    next.insert((lhs2, rhs.clone()));
                                }
                            }
                        }
                    }
                    OdStatus::Swap | OdStatus::SplitAndSwap => {
                        lstats.swap += 1;
                        // Aggressive swap pruning: drop the whole subtree.
                    }
                }
            }
            lstats.time = level_start.elapsed();
            result.levels.push(lstats);
            candidates = next;
            level += 1;
        }
        result.total_time = start.elapsed();
        Ok(result)
    }

    /// Fetches (building recursively if needed) the sorted order for an LHS
    /// list. Borrow-checker note: entries are never removed, so a fresh
    /// lookup after insertion is safe.
    fn lhs_order<'c>(
        cache: &'c mut HashMap<Vec<AttrId>, LhsOrder>,
        enc: &EncodedRelation,
        lhs: &[AttrId],
    ) -> &'c LhsOrder {
        if !cache.contains_key(lhs) {
            let built = if lhs.len() == 1 {
                LhsOrder::base(enc.codes(lhs[0]), enc.cardinality(lhs[0]))
            } else {
                let parent = &lhs[..lhs.len() - 1];
                // Ensure the parent exists first (recursive build).
                Self::lhs_order(cache, enc, parent);
                cache[parent].refine(enc.codes(lhs[lhs.len() - 1]))
            };
            cache.insert(lhs.to_vec(), built);
        }
        &cache[lhs]
    }

    /// One-pass validation against the LHS order: detects splits (group not
    /// constant on RHS) and swaps (RHS lexicographic minimum of a group
    /// precedes the maximum of an earlier group).
    fn validate(enc: &EncodedRelation, order: &LhsOrder, rhs: &[AttrId]) -> OdStatus {
        let n = order.order.len();
        let mut split = false;
        let mut swap = false;
        let mut prev_max: Option<u32> = None;
        let mut i = 0;
        while i < n {
            let g = order.group_of[i];
            let mut gmin = order.order[i];
            let mut gmax = gmin;
            let mut j = i + 1;
            while j < n && order.group_of[j] == g {
                let r = order.order[j];
                if enc.cmp_lex(rhs, r as usize, gmin as usize) == Ordering::Less {
                    gmin = r;
                }
                if enc.cmp_lex(rhs, r as usize, gmax as usize) == Ordering::Greater {
                    gmax = r;
                }
                j += 1;
            }
            if enc.cmp_lex(rhs, gmin as usize, gmax as usize) != Ordering::Equal {
                split = true;
            }
            if let Some(pm) = prev_max {
                if enc.cmp_lex(rhs, gmin as usize, pm as usize) == Ordering::Less {
                    swap = true;
                }
                if enc.cmp_lex(rhs, gmax as usize, pm as usize) == Ordering::Greater {
                    prev_max = Some(gmax);
                }
            } else {
                prev_max = Some(gmax);
            }
            if split && swap {
                break;
            }
            i = j;
        }
        match (split, swap) {
            (false, false) => OdStatus::Valid,
            (true, false) => OdStatus::Split,
            (false, true) => OdStatus::Swap,
            (true, true) => OdStatus::SplitAndSwap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::{AttrSet, RelationBuilder};
    use fastod_theory::listod::validate_list_od;
    use fastod_theory::CanonicalOd;

    fn employee() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_i64("bin", vec![1, 2, 3, 1, 2, 3])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .column_f64("tax", vec![1.0, 2.0, 3.0, 0.9, 1.5, 2.0])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn finds_simple_valid_ods() {
        let enc = employee();
        let r = Order::new(OrderConfig::default()).discover(&enc);
        // [sal] ↦ [tax] is valid and must be found.
        assert!(r.ods.contains(&ListOd::new(vec![2], vec![3])));
        // Everything found actually holds (soundness).
        for od in &r.ods {
            assert!(
                validate_list_od(&enc, &od.lhs, &od.rhs).is_valid(),
                "{od:?}"
            );
        }
    }

    #[test]
    fn misses_constant_ods_incompleteness() {
        // year is constant: FASTOD finds {}: [] ↦ year; ORDER cannot even
        // represent it ([] ↦ X has an empty side) — §4.5's critique.
        let enc = RelationBuilder::new()
            .column_i64("year", vec![2012, 2012, 2012])
            .column_i64("q", vec![1, 2, 3])
            .build()
            .unwrap()
            .encode();
        let r = Order::new(OrderConfig::default()).discover(&enc);
        // It instead reports [q] ↦ [year] — the redundant shape the paper
        // points out.
        assert!(r.ods.contains(&ListOd::new(vec![1], vec![0])));
        let canon = r.to_canonical_ods();
        // The empty-context constancy is NOT derivable from ORDER's output.
        assert!(!canon.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 0)));
    }

    #[test]
    fn swap_pruning_misses_order_compat_facts() {
        // Example 2's shape: month ~ week holds, but neither side
        // functionally determines the other (week 2 spans both months), so
        // both list ODs split. ORDER can only report full ODs, none exists
        // over two attributes, so it reports nothing — while FASTOD reports
        // the order-compatibility fact {}: month ~ week.
        let enc = RelationBuilder::new()
            .column_i64("month", vec![1, 1, 2, 2])
            .column_i64("week", vec![1, 2, 2, 3])
            .build()
            .unwrap()
            .encode();
        let r = Order::new(OrderConfig::default()).discover(&enc);
        assert!(r.ods.is_empty());
        let fast = fastod::Fastod::new(fastod::DiscoveryConfig::default()).discover(&enc);
        assert!(fast
            .ods
            .contains(&CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)));
    }

    #[test]
    fn swap_dense_data_dies_at_level_two() {
        // Random-ish independent columns: every pair swaps → zero ODs and
        // no candidates beyond level 2 (the hepatitis/ncvoter behaviour).
        let enc = RelationBuilder::new()
            .column_i64("a", vec![1, 2, 3, 4])
            .column_i64("b", vec![2, 1, 4, 3])
            .column_i64("c", vec![4, 3, 1, 2])
            .build()
            .unwrap()
            .encode();
        let r = Order::new(OrderConfig::default()).discover(&enc);
        assert!(r.ods.is_empty());
        assert_eq!(r.levels.len(), 1);
        assert_eq!(r.levels[0].swap, r.levels[0].candidates);
    }

    #[test]
    fn valid_ods_extend_rhs_only() {
        // a ↦ b valid, and a ↦ b,c valid too (c constant): both reported;
        // the LHS-extension [a,c] ↦ [b] must NOT be reported (implied).
        let enc = RelationBuilder::new()
            .column_i64("a", vec![1, 2, 3])
            .column_i64("b", vec![10, 20, 30])
            .column_i64("c", vec![5, 5, 5])
            .build()
            .unwrap()
            .encode();
        let r = Order::new(OrderConfig::default()).discover(&enc);
        assert!(r.ods.contains(&ListOd::new(vec![0], vec![1])));
        assert!(r.ods.contains(&ListOd::new(vec![0], vec![1, 2])));
        assert!(!r.ods.contains(&ListOd::new(vec![0, 2], vec![1])));
    }

    #[test]
    fn minimal_filter_drops_prefix_implied() {
        let enc = RelationBuilder::new()
            .column_i64("a", vec![1, 2, 3])
            .column_i64("b", vec![10, 20, 30])
            .column_i64("c", vec![5, 5, 5])
            .build()
            .unwrap()
            .encode();
        let r = Order::new(OrderConfig::default()).discover(&enc);
        let minimal = r.minimal_ods();
        // [a] ↦ [b] is implied by [a] ↦ [b,c] (RHS prefix rule).
        assert!(!minimal.contains(&ListOd::new(vec![0], vec![1])));
        assert!(minimal.contains(&ListOd::new(vec![0], vec![1, 2])));
    }

    #[test]
    fn canonical_mapping_counts() {
        let enc = employee();
        let r = Order::new(OrderConfig::default()).discover(&enc);
        let canon = r.to_canonical_ods();
        assert!(canon.len() >= r.minimal_ods().len()); // mapping inflates
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn level_cap_and_cancel() {
        let enc = employee();
        let r = Order::new(OrderConfig {
            max_level: Some(2),
            ..Default::default()
        })
        .discover(&enc);
        assert!(r.levels.iter().all(|l| l.level <= 2));
        let cancelled = Order::new(OrderConfig {
            cancel: CancelToken::with_timeout(std::time::Duration::ZERO),
            ..Default::default()
        })
        .try_discover(&enc);
        assert!(matches!(cancelled, Err(PassError::Cancelled)));
    }

    #[test]
    fn validate_agrees_with_theory_validator() {
        let enc = employee();
        let mut cache: HashMap<Vec<AttrId>, LhsOrder> = HashMap::new();
        for lhs in [vec![0], vec![2], vec![0, 2], vec![2, 0, 1]] {
            for rhs in [vec![1], vec![3], vec![1, 3]] {
                if rhs.iter().any(|r| lhs.contains(r)) {
                    continue;
                }
                let order = Order::lhs_order(&mut cache, &enc, &lhs);
                assert_eq!(
                    Order::validate(&enc, order, &rhs),
                    validate_list_od(&enc, &lhs, &rhs),
                    "{lhs:?} -> {rhs:?}"
                );
            }
        }
    }
}
