//! Check/repair analysis: per-OD validity, exact violation counts, witness
//! pairs, and minimal violating-row sets (paper §1.1: "their violations
//! point out possible data errors").
//!
//! The removal sets are **exactly minimal**, not merely greedy. Both
//! violation shapes pair tuples *within* one context class, so classes are
//! independent and a per-class minimum composes into a global minimum:
//!
//! * **constancy** `X: [] ↦ A` — a class is repaired by keeping exactly one
//!   `A`-value; the cheapest choice keeps the most frequent value (smallest
//!   code on ties, for determinism) and removes the rest;
//! * **order compatibility** `X: A ~ B` — a subset of a class is swap-free
//!   iff, after sorting it by `(A asc, B asc)`, its `B`-codes are
//!   non-decreasing (equal-`A` runs are `B`-sorted and never swap; a strict
//!   `B`-descent across distinct `A`-values is precisely a swap). The
//!   largest swap-free subset is therefore the longest non-decreasing
//!   subsequence of the `B` sequence, found in `O(k log k)` by patience
//!   sorting; the removal set is its complement.
//!
//! One rule costs one sort per context class: the partition crate's
//! [`fastod_partition::report`] sorts each class once and derives the
//! exact count, the witnesses and the removal rows from it.
//!
//! [`CheckReport`] aggregates the per-rule results and serializes to a
//! versioned JSON document (`fastod.check.v1`) that parses back losslessly —
//! the machine surface behind `fastod check --json`.

use crate::canonical::CanonicalOd;
use crate::validate::build_partition;
use crate::violations::Violation;
use fastod_obs::json::{escape, parse, Json};
use fastod_partition::{count_violations, report, ClassReport, StrippedPartition, SwapScratch};
use fastod_relation::{AttrSet, EncodedRelation};

/// The check result for one canonical OD.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuleCheck {
    /// The rule that was checked.
    pub od: CanonicalOd,
    /// Whether the rule holds on the instance (zero violations).
    pub holds: bool,
    /// Exact number of violating tuple pairs.
    pub violations: u64,
    /// Witness pairs, capped at the requested limit.
    pub witnesses: Vec<Violation>,
    /// A *minimum-cardinality* set of rows whose removal makes the rule
    /// hold, sorted ascending. Empty iff the rule already holds.
    pub removal_rows: Vec<u32>,
}

/// Results of checking a rule set against one relation instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckReport {
    /// Tuple count of the checked instance.
    pub n_rows: usize,
    /// Per-rule results, in input order.
    pub rules: Vec<RuleCheck>,
}

/// Checks one canonical OD: validity, exact violation count, up to
/// `witness_limit` witness pairs, and the minimal removal set.
pub fn check_od(enc: &EncodedRelation, od: &CanonicalOd, witness_limit: usize) -> RuleCheck {
    let ctx = build_partition(enc, od.context());
    check_in(enc, od, &ctx, witness_limit, &mut SwapScratch::new())
}

/// [`check_od`] over `ctx = Π*_{od.context()}`, which the caller has built.
/// The witnesses are [`crate::find_violations`]'s, capped at
/// `witness_limit`.
fn check_in(
    enc: &EncodedRelation,
    od: &CanonicalOd,
    ctx: &StrippedPartition,
    witness_limit: usize,
    scratch: &mut SwapScratch,
) -> RuleCheck {
    let found = if od.is_trivial() {
        ClassReport::default()
    } else {
        report(ctx.classes(), od.codes(enc), witness_limit, scratch)
    };
    RuleCheck {
        od: *od,
        holds: found.violations == 0,
        violations: found.violations,
        witnesses: found
            .witnesses
            .into_iter()
            .map(|rows| Violation::of(od, rows))
            .collect(),
        removal_rows: found.removal_rows,
    }
}

/// Exact violation count of `od` over the instance *minus* the rows in
/// `removed` (sorted or not). Zero means the removal set repairs the rule —
/// the re-validation the check surface and its proptests assert.
pub fn residual_violations(enc: &EncodedRelation, od: &CanonicalOd, removed: &[u32]) -> u64 {
    if od.is_trivial() {
        return 0;
    }
    let mut dead = vec![false; enc.n_rows()];
    for &row in removed {
        if let Some(slot) = dead.get_mut(row as usize) {
            *slot = true;
        }
    }
    let mut ctx = build_partition(enc, od.context());
    ctx.remove_rows_masked(&dead);
    count_violations(ctx.classes(), od.codes(enc), &mut SwapScratch::new())
}

impl CheckReport {
    /// Checks every rule against the instance; `rules[i]` equals
    /// `check_od(enc, &ods[i], witness_limit)`.
    ///
    /// Rules are grouped by context: each `Π*_X` is built once, serves every
    /// rule over `X`, and is dropped before the next context's is built, so
    /// one context partition is resident at a time.
    pub fn run(
        enc: &EncodedRelation,
        ods: &[CanonicalOd],
        witness_limit: usize,
    ) -> CheckReport {
        let mut order: Vec<usize> = (0..ods.len()).collect();
        order.sort_by_key(|&i| ods[i].context());
        let mut scratch = SwapScratch::new();
        let mut checked: Vec<(usize, RuleCheck)> = Vec::with_capacity(ods.len());
        for group in order.chunk_by(|&i, &j| ods[i].context() == ods[j].context()) {
            let ctx = build_partition(enc, ods[group[0]].context());
            for &i in group {
                checked.push((i, check_in(enc, &ods[i], &ctx, witness_limit, &mut scratch)));
            }
        }
        checked.sort_unstable_by_key(|&(i, _)| i);
        CheckReport {
            n_rows: enc.n_rows(),
            rules: checked.into_iter().map(|(_, rule)| rule).collect(),
        }
    }

    /// Sum of the exact violation counts across rules.
    pub fn total_violations(&self) -> u64 {
        self.rules.iter().map(|r| r.violations).sum()
    }

    /// Number of rules that fail on the instance.
    pub fn n_failing(&self) -> usize {
        self.rules.iter().filter(|r| !r.holds).count()
    }

    /// Serializes to the versioned `fastod.check.v1` JSON document.
    /// `names` supplies the human-readable `od` field; pass the schema's
    /// attribute names. [`CheckReport::parse_json`] inverts this losslessly.
    pub fn to_json(&self, names: &[String]) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": \"fastod.check.v1\",\n");
        out.push_str(&format!("  \"n_rows\": {},\n  \"rules\": [", self.n_rows));
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"od\": \"{}\", ",
                escape(&rule.od.display(names))
            ));
            let context: Vec<String> =
                rule.od.context().iter().map(|a| a.to_string()).collect();
            match rule.od {
                CanonicalOd::Constancy { rhs, .. } => out.push_str(&format!(
                    "\"kind\": \"constancy\", \"context\": [{}], \"rhs\": {rhs}, ",
                    context.join(", ")
                )),
                CanonicalOd::OrderCompat { a, b, .. } => out.push_str(&format!(
                    "\"kind\": \"order_compat\", \"context\": [{}], \"a\": {a}, \"b\": {b}, ",
                    context.join(", ")
                )),
            }
            out.push_str(&format!(
                "\"holds\": {}, \"violations\": {}, ",
                rule.holds, rule.violations
            ));
            let witnesses: Vec<String> = rule
                .witnesses
                .iter()
                .map(|w| {
                    let (s, t) = w.rows();
                    format!("[{s}, {t}]")
                })
                .collect();
            out.push_str(&format!("\"witnesses\": [{}], ", witnesses.join(", ")));
            let removal: Vec<String> =
                rule.removal_rows.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!("\"removal_rows\": [{}]}}", removal.join(", ")));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a `fastod.check.v1` document produced by
    /// [`CheckReport::to_json`].
    pub fn parse_json(text: &str) -> Result<CheckReport, String> {
        let doc = parse(text).ok_or("malformed JSON")?;
        let version = doc
            .get("version")
            .and_then(Json::as_str)
            .ok_or("missing version")?;
        if version != "fastod.check.v1" {
            return Err(format!("unsupported version {version}"));
        }
        let n_rows = doc
            .get("n_rows")
            .and_then(Json::as_f64)
            .ok_or("missing n_rows")? as usize;
        let Some(Json::Arr(rules_json)) = doc.get("rules") else {
            return Err("missing rules array".into());
        };
        let num = |v: &Json, what: &str| -> Result<u64, String> {
            v.as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("bad {what}"))
        };
        let mut rules = Vec::with_capacity(rules_json.len());
        for r in rules_json {
            let context = match r.get("context") {
                Some(Json::Arr(ids)) => {
                    let mut set = AttrSet::EMPTY;
                    for id in ids {
                        set = set.with(num(id, "context attr")? as usize);
                    }
                    set
                }
                _ => return Err("missing context".into()),
            };
            let kind = r.get("kind").and_then(Json::as_str).ok_or("missing kind")?;
            let od = match kind {
                "constancy" => {
                    let rhs = num(r.get("rhs").ok_or("missing rhs")?, "rhs")? as usize;
                    CanonicalOd::constancy(context, rhs)
                }
                "order_compat" => {
                    let a = num(r.get("a").ok_or("missing a")?, "a")? as usize;
                    let b = num(r.get("b").ok_or("missing b")?, "b")? as usize;
                    CanonicalOd::order_compat(context, a, b)
                }
                other => return Err(format!("unknown rule kind {other}")),
            };
            let holds = match r.get("holds") {
                Some(Json::Bool(v)) => *v,
                _ => return Err("missing holds".into()),
            };
            let violations = num(r.get("violations").ok_or("missing violations")?, "violations")?;
            let witnesses = match r.get("witnesses") {
                Some(Json::Arr(pairs)) => {
                    let mut out = Vec::with_capacity(pairs.len());
                    for p in pairs {
                        let Json::Arr(st) = p else {
                            return Err("bad witness pair".into());
                        };
                        if st.len() != 2 {
                            return Err("bad witness pair".into());
                        }
                        let s = num(&st[0], "witness row")? as u32;
                        let t = num(&st[1], "witness row")? as u32;
                        // Witness structure is fully determined by the rule.
                        out.push(Violation::of(&od, (s, t)));
                    }
                    out
                }
                _ => return Err("missing witnesses".into()),
            };
            let removal_rows = match r.get("removal_rows") {
                Some(Json::Arr(rows)) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for row in rows {
                        out.push(num(row, "removal row")? as u32);
                    }
                    out
                }
                _ => return Err("missing removal_rows".into()),
            };
            rules.push(RuleCheck {
                od,
                holds,
                violations,
                witnesses,
                removal_rows,
            });
        }
        Ok(CheckReport { n_rows, rules })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::canonical_od_holds;
    use fastod_relation::RelationBuilder;

    fn employee() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_str("posit", vec!["secr", "mngr", "direct", "secr", "mngr", "direct"])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .column_str("subg", vec!["III", "II", "I", "III", "I", "II"])
            .build()
            .unwrap()
            .encode()
    }

    const POSIT: usize = 1;
    const SAL: usize = 2;
    const SUBG: usize = 3;

    #[test]
    fn constancy_removal_is_minimal_and_repairs() {
        let enc = employee();
        // [posit] ↛ sal: every position class has 2 distinct salaries, so
        // exactly one row per class must go.
        let od = CanonicalOd::constancy(AttrSet::singleton(POSIT), SAL);
        let check = check_od(&enc, &od, 10);
        assert!(!check.holds);
        assert_eq!(check.violations, 3);
        assert_eq!(check.removal_rows.len(), 3);
        assert_eq!(residual_violations(&enc, &od, &check.removal_rows), 0);
        // One fewer row cannot repair: 3 classes each need a removal.
        for drop_one in 0..3 {
            let mut partial = check.removal_rows.clone();
            partial.remove(drop_one);
            assert_ne!(residual_violations(&enc, &od, &partial), 0);
        }
    }

    #[test]
    fn swap_removal_is_minimal_and_repairs() {
        let enc = employee();
        let od = CanonicalOd::order_compat(AttrSet::EMPTY, SAL, SUBG);
        let check = check_od(&enc, &od, 100);
        assert!(!check.holds);
        assert!(check.violations > 0);
        assert!(!check.removal_rows.is_empty());
        assert_eq!(residual_violations(&enc, &od, &check.removal_rows), 0);
    }

    #[test]
    fn valid_od_checks_clean() {
        let enc = employee();
        // (yr, posit) is a key here, so any constancy over it holds.
        let od = CanonicalOd::constancy(AttrSet::from_iter([0, POSIT]), SAL);
        assert!(canonical_od_holds(&enc, &od));
        let check = check_od(&enc, &od, 10);
        assert!(check.holds);
        assert_eq!(check.violations, 0);
        assert!(check.witnesses.is_empty());
        assert!(check.removal_rows.is_empty());
    }

    #[test]
    fn counts_agree_with_validator_across_rules() {
        let enc = employee();
        for a in 0..enc.n_attrs() {
            for ctx in [AttrSet::EMPTY, AttrSet::singleton((a + 1) % enc.n_attrs())] {
                let od = CanonicalOd::constancy(ctx, a);
                let check = check_od(&enc, &od, 4);
                assert_eq!(check.holds, canonical_od_holds(&enc, &od), "{od}");
                assert_eq!(check.holds, check.witnesses.is_empty(), "{od}");
                assert_eq!(residual_violations(&enc, &od, &check.removal_rows), 0);
            }
        }
    }

    #[test]
    fn json_round_trips() {
        let enc = employee();
        let ods = vec![
            CanonicalOd::constancy(AttrSet::singleton(POSIT), SAL),
            CanonicalOd::order_compat(AttrSet::EMPTY, SAL, SUBG),
            CanonicalOd::constancy(AttrSet::singleton(POSIT), SUBG),
        ];
        let report = CheckReport::run(&enc, &ods, 5);
        let names = vec!["yr".into(), "posit".into(), "sal".into(), "subg".into()];
        let json = report.to_json(&names);
        let back = CheckReport::parse_json(&json).expect("parses");
        assert_eq!(back, report);
        // And the serialization is stable under a second round.
        assert_eq!(back.to_json(&names), json);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(CheckReport::parse_json("not json").is_err());
        assert!(CheckReport::parse_json("{\"version\": \"other.v9\"}").is_err());
        assert!(
            CheckReport::parse_json("{\"version\": \"fastod.check.v1\", \"n_rows\": 1}")
                .is_err()
        );
    }

    #[test]
    fn trivial_od_is_clean() {
        let enc = employee();
        // X: A ~ A is trivial.
        let od = CanonicalOd::order_compat(AttrSet::EMPTY, SAL, SAL);
        let check = check_od(&enc, &od, 10);
        assert!(check.holds && check.removal_rows.is_empty());
    }
}
