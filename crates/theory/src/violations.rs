//! Violation witnesses for data cleaning (paper §1.1: "their violations
//! point out possible data errors").
//!
//! Given a canonical OD that *should* hold, [`find_violations`] returns the
//! offending tuple pairs: **splits** for constancy ODs (Definition 4) and
//! **swaps** for order-compatibility ODs (Definition 5). It builds the
//! context partition and asks the partition crate's class kernel
//! ([`fastod_partition::witnesses`]) for the pairs, class by class.

use crate::canonical::CanonicalOd;
use crate::validate::build_partition;
use fastod_partition::{witnesses, SwapScratch};
use fastod_relation::{AttrId, AttrSet, EncodedRelation, Value};

/// A single witnessed violation of a canonical OD.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Tuples agree on the context but differ on `attr`
    /// (split: `X ↛ A`).
    Split {
        /// Offending tuple pair (row indices).
        rows: (u32, u32),
        /// The context the tuples agree on.
        context: AttrSet,
        /// The attribute they differ on.
        attr: AttrId,
    },
    /// Tuples in the same context class with `s ≺_A t` but `t ≺_B s`
    /// (swap: `A ≁ B` within the class).
    Swap {
        /// Offending tuple pair `(s, t)` with `s ≺_a t` and `t ≺_b s`.
        rows: (u32, u32),
        /// The shared context.
        context: AttrSet,
        /// First ordered attribute.
        a: AttrId,
        /// Second ordered attribute.
        b: AttrId,
    },
}

impl Violation {
    /// The violation of `od` that the row pair `rows` witnesses: a split
    /// for a constancy OD, a swap for an order-compatibility OD.
    pub(crate) fn of(od: &CanonicalOd, rows: (u32, u32)) -> Violation {
        match *od {
            CanonicalOd::Constancy { context, rhs } => Violation::Split {
                rows,
                context,
                attr: rhs,
            },
            CanonicalOd::OrderCompat { context, a, b } => Violation::Swap {
                rows,
                context,
                a,
                b,
            },
        }
    }

    /// The offending row pair.
    pub fn rows(&self) -> (u32, u32) {
        match *self {
            Violation::Split { rows, .. } | Violation::Swap { rows, .. } => rows,
        }
    }

    /// Human-readable description with the raw cell values: `names` are the
    /// attribute names and `cell(row, attr)` looks a value up, e.g.
    /// `|r, a| rel.value(r, a)` on a [`fastod_relation::Relation`].
    pub fn describe(&self, names: &[String], cell: impl Fn(usize, AttrId) -> Value) -> String {
        match *self {
            Violation::Split { rows: (s, t), context, attr } => format!(
                "split: tuples {s} and {t} agree on {} but have {}={} vs {}={}",
                context.display(names),
                names[attr],
                cell(s as usize, attr),
                names[attr],
                cell(t as usize, attr),
            ),
            Violation::Swap { rows: (s, t), context, a, b } => format!(
                "swap: within {} tuple {s} precedes {t} on {} ({} < {}) but follows on {} ({} > {})",
                context.display(names),
                names[a],
                cell(s as usize, a),
                cell(t as usize, a),
                names[b],
                cell(s as usize, b),
                cell(t as usize, b),
            ),
        }
    }
}

/// Finds up to `limit` violations of `od` on the instance.
///
/// Returns an empty vector iff the OD holds. Violations come class by class,
/// in the order of the context partition's classes, and a capped list is a
/// prefix of the uncapped one:
///
/// * a constancy OD's splits pair the class's first row with each later row
///   that differs from it on the attribute, in class order;
/// * an order OD's swaps `(s, t)` take every row `t` whose `b` is below the
///   largest `b` of the class's rows with a smaller `a`, in `(a, b, row)`
///   order, and pair it with `s`, the smallest row holding that largest
///   `b` in the earliest `a` that reaches it.
///
/// So every row appears at most once as the second row of a pair.
pub fn find_violations(
    enc: &EncodedRelation,
    od: &CanonicalOd,
    limit: usize,
) -> Vec<Violation> {
    if od.is_trivial() || limit == 0 {
        return Vec::new();
    }
    let ctx = build_partition(enc, od.context());
    witnesses(ctx.classes(), od.codes(enc), limit, &mut SwapScratch::new())
        .into_iter()
        .map(|rows| Violation::of(od, rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::canonical_od_holds;
    use fastod_relation::{Relation, RelationBuilder};

    fn employee() -> Relation {
        RelationBuilder::new()
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_str("posit", vec!["secr", "mngr", "direct", "secr", "mngr", "direct"])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .column_str("subg", vec!["III", "II", "I", "III", "I", "II"])
            .build()
            .unwrap()
    }

    const YR: usize = 0;
    const POSIT: usize = 1;
    const SAL: usize = 2;
    const SUBG: usize = 3;

    #[test]
    fn split_witnesses_example_3() {
        // [position] does not FD salary: 3 split pairs in Table 1.
        let rel = employee();
        let enc = rel.encode();
        let od = CanonicalOd::constancy(AttrSet::singleton(POSIT), SAL);
        let v = find_violations(&enc, &od, 10);
        assert_eq!(v.len(), 3);
        for violation in &v {
            let (s, t) = violation.rows();
            // Same position, different salary.
            assert_eq!(enc.code(s as usize, POSIT), enc.code(t as usize, POSIT));
            assert_ne!(enc.code(s as usize, SAL), enc.code(t as usize, SAL));
            let text = violation.describe(rel.schema().names(), |r, a| rel.value(r, a));
            let want = format!("sal={} vs sal={}", rel.value(s as usize, SAL), rel.value(t as usize, SAL));
            assert!(text.starts_with("split") && text.ends_with(&want), "{text}");
        }
    }

    #[test]
    fn swap_witness_example_3() {
        // {}: salary ~ subgroup is violated (e.g. tuples t1, t2).
        let rel = employee();
        let enc = rel.encode();
        let od = CanonicalOd::order_compat(AttrSet::EMPTY, SAL, SUBG);
        let v = find_violations(&enc, &od, 100);
        assert!(!v.is_empty());
        for violation in &v {
            let (s, t) = violation.rows();
            let (s, t) = (s as usize, t as usize);
            // Genuine swap: strict opposite order on the two attributes.
            let sa = enc.code(s, SAL).cmp(&enc.code(t, SAL));
            let sb = enc.code(s, SUBG).cmp(&enc.code(t, SUBG));
            assert!(sa != sb && sa != std::cmp::Ordering::Equal && sb != std::cmp::Ordering::Equal);
            let text = violation.describe(rel.schema().names(), |r, a| rel.value(r, a));
            assert!(text.contains("swap"), "{text}");
        }
    }

    #[test]
    fn no_violations_for_valid_od() {
        let enc = employee().encode();
        let od = CanonicalOd::order_compat(AttrSet::singleton(YR), POSIT, SAL);
        // {yr}: posit ~ sal — check consistency with the validator.
        assert_eq!(
            canonical_od_holds(&enc, &od),
            find_violations(&enc, &od, 10).is_empty()
        );
        let valid = CanonicalOd::constancy(AttrSet::singleton(POSIT), POSIT);
        assert!(find_violations(&enc, &valid, 10).is_empty());
    }

    #[test]
    fn limit_caps_output() {
        let enc = employee().encode();
        let od = CanonicalOd::constancy(AttrSet::singleton(POSIT), SAL);
        assert_eq!(find_violations(&enc, &od, 1).len(), 1);
        assert_eq!(find_violations(&enc, &od, 2).len(), 2);
        assert!(find_violations(&enc, &od, 0).is_empty());
    }

    #[test]
    fn violations_agree_with_validator() {
        let enc = employee().encode();
        for a in 0..enc.n_attrs() {
            let od = CanonicalOd::constancy(AttrSet::EMPTY, a);
            assert_eq!(
                canonical_od_holds(&enc, &od),
                find_violations(&enc, &od, 1).is_empty(),
                "{od}"
            );
            for b in (a + 1)..enc.n_attrs() {
                let od = CanonicalOd::order_compat(AttrSet::EMPTY, a, b);
                assert_eq!(
                    canonical_od_holds(&enc, &od),
                    find_violations(&enc, &od, 1).is_empty(),
                    "{od}"
                );
            }
        }
    }
}
