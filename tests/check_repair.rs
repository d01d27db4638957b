//! The check/repair surface, verified from the outside:
//!
//! * `find_violations` is deterministic, respects its cap, prefixes
//!   consistently, and is empty exactly on valid ODs;
//! * `check_od`'s exact violation counts match the definitional
//!   tuple-pair oracle;
//! * every removal set *repairs*: re-validating on the surviving rows —
//!   both through `residual_violations` and through a from-scratch
//!   re-encode cross-checked with `oracle_violation_count` — yields zero;
//! * approximate discovery's uncapped removal-size kernel counts exactly
//!   the rows of those minimal removal sets;
//! * `CheckReport::run` equals `check_od` rule by rule, in input order;
//! * a proptest band does all of the above for every near-valid OD that
//!   approximate discovery surfaces on random relations;
//! * the `fastod.check.v1` JSON document round-trips.

use fastod_suite::discovery::{ApproxConfig, ApproxFastod};
use fastod_suite::partition::{removal_size, SwapScratch};
use fastod_suite::prelude::*;
use fastod_suite::theory::{
    build_partition, check_od, find_violations, residual_violations, CheckReport,
};
use fastod_testkit::oracle_violation_count;
use proptest::prelude::*;

/// All non-trivial canonical ODs with context size ≤ 1 — a small, dense
/// rule universe for exhaustive sweeps.
fn small_rules(n_attrs: usize) -> Vec<CanonicalOd> {
    let mut out = Vec::new();
    let contexts: Vec<AttrSet> = std::iter::once(AttrSet::EMPTY)
        .chain((0..n_attrs).map(AttrSet::singleton))
        .collect();
    for &ctx in &contexts {
        for a in 0..n_attrs {
            let od = CanonicalOd::constancy(ctx, a);
            if !od.is_trivial() {
                out.push(od);
            }
            for b in (a + 1)..n_attrs {
                let od = CanonicalOd::order_compat(ctx, a, b);
                if !od.is_trivial() {
                    out.push(od);
                }
            }
        }
    }
    out
}

/// Checks one OD end to end against the oracle and the repair contract.
fn assert_check_contract(rel: &Relation, enc: &EncodedRelation, od: &CanonicalOd) {
    let check = check_od(enc, od, 4);
    let truth = oracle_violation_count(enc, od);
    assert_eq!(check.violations, truth, "{od}: count disagrees with the oracle");
    assert_eq!(check.holds, truth == 0, "{od}: holds flag disagrees");
    assert_eq!(check.removal_rows.is_empty(), check.holds, "{od}: removal iff violated");
    assert!(check.witnesses.len() <= 4, "{od}: witness cap ignored");
    assert_eq!(check.witnesses.is_empty(), check.holds, "{od}: witnesses iff violated");

    // Approximate discovery's removal-size kernel, uncapped, counts exactly
    // the rows of the minimal removal set.
    let ctx = build_partition(enc, od.context());
    let kernel = removal_size(
        ctx.classes(),
        od.codes(enc),
        usize::MAX,
        &mut SwapScratch::new(),
    );
    assert_eq!(
        kernel,
        check.removal_rows.len(),
        "{od}: removal-size kernel disagrees"
    );

    // The removal set repairs the rule — checked two independent ways.
    assert_eq!(
        residual_violations(enc, od, &check.removal_rows),
        0,
        "{od}: removal set does not repair (residual count)"
    );
    let dead: std::collections::HashSet<usize> =
        check.removal_rows.iter().map(|&r| r as usize).collect();
    let survivors: Vec<usize> = (0..rel.n_rows()).filter(|r| !dead.contains(r)).collect();
    let surv_enc = rel.select_rows(&survivors).encode();
    assert_eq!(
        oracle_violation_count(&surv_enc, od),
        0,
        "{od}: removal set does not repair (oracle re-validation)"
    );
}

/// Exhaustive sweep of the small-rule universe on a fixed dirty relation.
#[test]
fn all_small_rules_satisfy_the_check_contract() {
    let rel = fastod_suite::datagen::random_relation(14, 4, 3, 0xC0FFEE);
    let enc = rel.encode();
    for od in small_rules(4) {
        assert_check_contract(&rel, &enc, &od);
    }
}

/// `find_violations` determinism and cap semantics.
#[test]
fn find_violations_caps_and_determinism() {
    let rel = fastod_suite::datagen::random_relation(16, 3, 2, 0xBEEF);
    let enc = rel.encode();
    for od in small_rules(3) {
        let full = find_violations(&enc, &od, usize::MAX);
        let truth = oracle_violation_count(&enc, &od);
        // Repeated extraction returns the identical witness list.
        assert_eq!(full, find_violations(&enc, &od, usize::MAX), "{od}: nondeterministic");
        // Valid ODs produce no witnesses; violated ones produce some.
        assert_eq!(full.is_empty(), truth == 0, "{od}: witnesses iff violated");
        // A smaller cap yields a prefix of the full list, truncated exactly.
        for cap in [1usize, 2, 5] {
            let capped = find_violations(&enc, &od, cap);
            assert!(capped.len() <= cap, "{od}: cap {cap} exceeded");
            assert_eq!(capped.as_slice(), &full[..capped.len()], "{od}: cap {cap} not a prefix");
            if full.len() >= cap {
                assert_eq!(capped.len(), cap, "{od}: cap {cap} under-filled");
            }
        }
        // Every reported witness pair really is a violation of this OD.
        for w in &full {
            let (s, t) = w.rows();
            let pair = rel.select_rows(&[s as usize, t as usize]).encode();
            assert_eq!(oracle_violation_count(&pair, &od), 1, "{od}: bogus witness ({s},{t})");
        }
    }
}

/// A full report round-trips through the versioned JSON document.
#[test]
fn check_report_round_trips_through_json() {
    let rel = fastod_suite::datagen::random_relation(12, 4, 3, 0xABCD);
    let enc = rel.encode();
    let rules = small_rules(4);
    let report = CheckReport::run(&enc, &rules, 3);
    let names = rel.schema().names().to_vec();
    let json = report.to_json(&names);
    let parsed = CheckReport::parse_json(&json).expect("fastod.check.v1 parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(&names), json, "serialization unstable");
}

/// `CheckReport::run` shares one partition per context across its rules;
/// on a rule list that interleaves contexts it must still return exactly
/// `check_od`'s result for each rule, in input order.
#[test]
fn check_report_matches_check_od_on_interleaved_contexts() {
    let rel = fastod_suite::datagen::random_relation(14, 4, 3, 0x0DDC7);
    let enc = rel.encode();
    let (x, y) = (AttrSet::singleton(0), AttrSet::from_iter([1, 2]));
    let rules = vec![
        CanonicalOd::constancy(x, 1),
        CanonicalOd::order_compat(y, 0, 3),
        CanonicalOd::order_compat(x, 2, 3),
        CanonicalOd::constancy(x, 0), // trivial
        CanonicalOd::constancy(y, 3),
        CanonicalOd::order_compat(AttrSet::EMPTY, 1, 2),
        CanonicalOd::constancy(x, 1), // repeated
        CanonicalOd::order_compat(y, 1, 3), // trivial
    ];
    for witness_limit in [0, 3] {
        let report = CheckReport::run(&enc, &rules, witness_limit);
        let expected: Vec<_> = rules.iter().map(|od| check_od(&enc, od, witness_limit)).collect();
        assert!(report.n_failing() > 0, "fixture should violate some rules");
        assert_eq!(report.n_rows, enc.n_rows());
        assert_eq!(report.rules, expected, "witness_limit {witness_limit}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every near-valid OD approximate discovery surfaces on a random
    /// relation, the check surface counts exactly and its removal set
    /// repairs the rule (oracle-re-validated on the surviving rows).
    #[test]
    fn near_valid_ods_are_counted_and_repaired_exactly(
        n_rows in 4usize..=16,
        n_attrs in 2usize..=4,
        max_card in 1u32..=3,
        eps_pct in 5u32..=40,
        seed in any::<u64>(),
    ) {
        let eps = eps_pct as f64 / 100.0;
        let rel = fastod_suite::datagen::random_relation(n_rows, n_attrs, max_card, seed);
        let enc = rel.encode();
        let near = ApproxFastod::new(ApproxConfig::new(eps)).discover(&enc);
        for od in near.ods.iter().filter(|od| !od.is_trivial()) {
            // Near-valid: violable by at most eps * n rows' removal. The
            // exact-minimal removal set must respect that bound too.
            let check = check_od(&enc, od, 3);
            let budget = (eps * n_rows as f64).floor() as usize;
            prop_assert!(
                check.removal_rows.len() <= budget,
                "{od}: minimal removal {} exceeds the approx budget {}",
                check.removal_rows.len(),
                budget,
            );
            assert_check_contract(&rel, &enc, od);
        }
    }
}
