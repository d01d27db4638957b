//! Validation of canonical ODs against relation instances.
//!
//! Two independent implementations:
//! * the **partition path** (what discovery uses): build `Π*_X` by
//!   refining one attribute's partition by the others and run the §4.6
//!   scans;
//! * the **naive path** straight from Definition 6's pair semantics, used as
//!   a test oracle and for brute-forcing complete ground truth on tiny
//!   schemas.

use crate::CanonicalOd;
use fastod_partition::{
    holds, tau_scan, ProductScratch, SortedColumn, StrippedPartition, SwapScratch,
};
use fastod_relation::{AttrId, AttrSet, EncodedRelation};

/// Builds `Π*_X` from scratch: the first attribute's partition, refined by
/// each further attribute's codes through one scratch. O(|X| · n).
pub fn build_partition(enc: &EncodedRelation, ctx: AttrSet) -> StrippedPartition {
    let mut iter = ctx.iter();
    let Some(first) = iter.next() else {
        return StrippedPartition::unit(enc.n_rows());
    };
    let mut scratch = ProductScratch::new();
    iter.fold(
        StrippedPartition::from_codes(enc.codes(first), enc.cardinality(first)),
        |part, a| part.refine(enc.codes(a), enc.cardinality(a), &mut scratch),
    )
}

/// Validates a canonical OD on an instance via partitions.
pub fn canonical_od_holds(enc: &EncodedRelation, od: &CanonicalOd) -> bool {
    if od.is_trivial() {
        return true;
    }
    let ctx = build_partition(enc, od.context());
    let mut scratch = SwapScratch::new();
    match *od {
        CanonicalOd::Constancy { .. } => holds(ctx.classes(), od.codes(enc), &mut scratch),
        CanonicalOd::OrderCompat { a, b, .. } => {
            let tau = SortedColumn::build(enc.codes(a), enc.cardinality(a));
            tau_scan(&ctx, &tau, enc.codes(b), &mut scratch, None).is_none()
        }
    }
}

/// Naive validator straight from Definition 6: quantifies over all tuple
/// pairs. O(n² · |X|); test oracle only.
pub fn canonical_od_holds_naive(enc: &EncodedRelation, od: &CanonicalOd) -> bool {
    let n = enc.n_rows();
    let ctx = od.context();
    for s in 0..n {
        for t in (s + 1)..n {
            if !enc.same_class(ctx, s, t) {
                continue;
            }
            match *od {
                CanonicalOd::Constancy { rhs, .. } => {
                    if enc.code(s, rhs) != enc.code(t, rhs) {
                        return false;
                    }
                }
                CanonicalOd::OrderCompat { a, b, .. } => {
                    let (ca, cb) = (enc.cmp_attr(a, s, t), enc.cmp_attr(b, s, t));
                    use std::cmp::Ordering::*;
                    if (ca == Less && cb == Greater) || (ca == Greater && cb == Less) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Enumerates **every** non-trivial canonical OD that holds on the instance
/// over all contexts `X ⊆ R` with `|X| ≤ max_context`. Exponential ground
/// truth for completeness testing — only call on small schemas.
pub fn all_valid_canonical_ods(enc: &EncodedRelation, max_context: usize) -> Vec<CanonicalOd> {
    let r = enc.n_attrs();
    let all = AttrSet::full(r);
    let mut out = Vec::new();
    for ctx in all.subsets() {
        if ctx.len() > max_context {
            continue;
        }
        let part = build_partition(enc, ctx);
        let mut scratch = SwapScratch::new();
        for a in 0..r as AttrId {
            let od = CanonicalOd::constancy(ctx, a);
            if !od.is_trivial() && holds(part.classes(), od.codes(enc), &mut scratch) {
                out.push(od);
            }
        }
        for a in 0..r as AttrId {
            let tau = SortedColumn::build(enc.codes(a), enc.cardinality(a));
            for b in (a + 1)..r as AttrId {
                let od = CanonicalOd::order_compat(ctx, a, b);
                let token = Some(ctx.bits() as usize);
                if !od.is_trivial()
                    && tau_scan(&part, &tau, enc.codes(b), &mut scratch, token).is_none()
                {
                    out.push(od);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::RelationBuilder;

    fn employee() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("id", vec![10, 11, 12, 10, 11, 12])
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_str("posit", vec!["secr", "mngr", "direct", "secr", "mngr", "direct"])
            .column_i64("bin", vec![1, 2, 3, 1, 2, 3])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .build()
            .unwrap()
            .encode()
    }

    const YR: usize = 1;
    const POSIT: usize = 2;
    const BIN: usize = 3;
    const SAL: usize = 4;

    #[test]
    fn build_partition_matches_products() {
        let e = employee();
        let p = build_partition(&e, AttrSet::from_iter([YR, POSIT]));
        // year × posit on Table 1: all classes singleton → superkey.
        assert!(p.is_superkey());
        let p_yr = build_partition(&e, AttrSet::singleton(YR));
        assert_eq!(p_yr.normalized(), vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(
            build_partition(&e, AttrSet::EMPTY).normalized(),
            vec![vec![0, 1, 2, 3, 4, 5]]
        );
    }

    #[test]
    fn paper_example_4_canonical_ods() {
        let e = employee();
        // {position}: [] ↦ bin holds.
        assert!(canonical_od_holds(
            &e,
            &CanonicalOd::constancy(AttrSet::singleton(POSIT), BIN)
        ));
        // {year}: bin ~ salary holds.
        assert!(canonical_od_holds(
            &e,
            &CanonicalOd::order_compat(AttrSet::singleton(YR), BIN, SAL)
        ));
        // {position}: [] ↦ salary does NOT hold.
        assert!(!canonical_od_holds(
            &e,
            &CanonicalOd::constancy(AttrSet::singleton(POSIT), SAL)
        ));
    }

    #[test]
    fn partition_and_naive_paths_agree() {
        let e = employee();
        let all = AttrSet::full(e.n_attrs());
        for ctx in all.subsets() {
            if ctx.len() > 2 {
                continue;
            }
            for a in 0..e.n_attrs() {
                let od = CanonicalOd::constancy(ctx, a);
                assert_eq!(
                    canonical_od_holds(&e, &od),
                    canonical_od_holds_naive(&e, &od),
                    "{od}"
                );
                for b in (a + 1)..e.n_attrs() {
                    let od = CanonicalOd::order_compat(ctx, a, b);
                    assert_eq!(
                        canonical_od_holds(&e, &od),
                        canonical_od_holds_naive(&e, &od),
                        "{od}"
                    );
                }
            }
        }
    }

    #[test]
    fn trivial_ods_always_hold() {
        let e = employee();
        let od = CanonicalOd::constancy(AttrSet::singleton(SAL), SAL);
        assert!(od.is_trivial());
        assert!(canonical_od_holds(&e, &od));
        assert!(canonical_od_holds_naive(&e, &od));
    }

    #[test]
    fn all_valid_enumeration_contains_known_ods() {
        let e = employee();
        let all = all_valid_canonical_ods(&e, e.n_attrs());
        assert!(all.contains(&CanonicalOd::constancy(AttrSet::singleton(POSIT), BIN)));
        assert!(all.contains(&CanonicalOd::order_compat(AttrSet::singleton(YR), BIN, SAL)));
        assert!(!all.contains(&CanonicalOd::constancy(AttrSet::singleton(POSIT), SAL)));
        // Everything enumerated is non-trivial and actually holds.
        for od in &all {
            assert!(!od.is_trivial());
            assert!(canonical_od_holds_naive(&e, od), "{od}");
        }
    }

    #[test]
    fn max_context_caps_enumeration() {
        let e = employee();
        let lvl1 = all_valid_canonical_ods(&e, 1);
        assert!(lvl1.iter().all(|od| od.context().len() <= 1));
    }
}
