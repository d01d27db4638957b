//! Theorem 8 against the brute-force oracle: on random small instances,
//! FASTOD's output is **exactly** the minimal cover of the set of all valid
//! canonical ODs, as computed by an independent implementation working
//! straight from tuple comparisons (`fastod_testkit::oracle`).
//!
//! This is stronger than the soundness/completeness/minimality properties in
//! `completeness_properties.rs`, which verify the three claims separately
//! through the suite's own axiom engine: here ground truth comes from a
//! second, partition-free implementation, and equality is set-exact.

use fastod_suite::prelude::*;
use fastod_testkit::{oracle_minimal_cover, oracle_valid_ods};
use proptest::prelude::*;

/// Oracle-sized instances: ≤ 6 attributes (the memoized-refinement oracle's
/// cap), ≤ 18 rows, low cardinality so dependencies actually occur. The
/// 5–6-attribute band is where candidate-set pruning interacts non-trivially
/// across three lattice levels, which 4-attribute schemas never exercise.
fn arb_small_relation() -> impl Strategy<Value = EncodedRelation> {
    (1usize..=6, 0usize..=18, 1u32..=4, any::<u64>()).prop_map(
        |(n_attrs, n_rows, max_card, seed)| {
            fastod_suite::datagen::random_relation(n_rows, n_attrs, max_card, seed).encode()
        },
    )
}

/// Wide-band instances only: every case has 5 or 6 attributes.
fn arb_wide_relation() -> impl Strategy<Value = EncodedRelation> {
    (5usize..=6, 4usize..=16, 1u32..=3, any::<u64>()).prop_map(
        |(n_attrs, n_rows, max_card, seed)| {
            fastod_suite::datagen::random_relation(n_rows, n_attrs, max_card, seed).encode()
        },
    )
}

/// The 7-attribute band opened up by the oracle's sort-then-sweep pair scan
/// (128 contexts per instance).
fn arb_seven_attr_relation() -> impl Strategy<Value = EncodedRelation> {
    (4usize..=12, 1u32..=3, any::<u64>()).prop_map(|(n_rows, max_card, seed)| {
        fastod_suite::datagen::random_relation(n_rows, 7, max_card, seed).encode()
    })
}

/// The full-width 8-attribute band (256 contexts, the oracle's ceiling),
/// unblocked by the subset-index minimality filter — the old `O(|valid|²)`
/// scan made proptest volume at this width too slow to run.
fn arb_eight_attr_relation() -> impl Strategy<Value = EncodedRelation> {
    (4usize..=10, 1u32..=3, any::<u64>()).prop_map(|(n_rows, max_card, seed)| {
        fastod_suite::datagen::random_relation(n_rows, 8, max_card, seed).encode()
    })
}

/// An FD-heavy instance: `n_base` random columns followed by a copy of
/// the first, the second coarsened to `b / 2` and a column derived from
/// the first and the third. Generation proves the one-attribute FDs at
/// level 2 and shares partitions through them from level 3; it proves the
/// two-attribute one at level 3 unless pruning removed a parent.
fn fd_heavy_relation(n_base: usize, n_rows: usize, max_card: u32, seed: u64) -> EncodedRelation {
    let base = fastod_suite::datagen::random_relation(n_rows, n_base, max_card, seed).encode();
    let column = |a: usize| -> Vec<i64> { base.codes(a).iter().map(|&c| i64::from(c)).collect() };
    let mut builder = RelationBuilder::new();
    for a in 0..n_base {
        builder = builder.column_i64(&format!("c{a}"), column(a));
    }
    let mixed = column(0).iter().zip(column(2)).map(|(x, y)| (3 * x + y) % 5).collect();
    builder
        .column_i64("copy", column(0))
        .column_i64("half", column(1).iter().map(|b| b / 2).collect())
        .column_i64("mixed", mixed)
        .build()
        .unwrap()
        .encode()
}

/// The FD-heavy band: 6–8 attributes.
fn arb_fd_heavy_relation() -> impl Strategy<Value = EncodedRelation> {
    (3usize..=5, 4usize..=14, 2u32..=4, any::<u64>()).prop_map(
        |(n_base, n_rows, max_card, seed)| fd_heavy_relation(n_base, n_rows, max_card, seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 8 on the FD-heavy band, where generation shares the
    /// partitions of parents that known FDs make equal to their children,
    /// at one and four threads.
    #[test]
    fn fastod_equals_oracle_on_fd_heavy_schemas(enc in arb_fd_heavy_relation()) {
        let report = oracle_minimal_cover(&enc);
        for threads in [1, 4] {
            let result =
                Fastod::new(DiscoveryConfig::default().with_threads(threads)).discover(&enc);
            prop_assert!(
                report.matches(&result.ods),
                "FASTOD != oracle minimal cover on {} attrs x {} rows at {threads} threads:\n{}",
                enc.n_attrs(),
                enc.n_rows(),
                report.diff(&result.ods)
            );
        }
    }

    /// FASTOD ≡ oracle minimal cover, set-exact (Theorem 8).
    #[test]
    fn fastod_equals_oracle_minimal_cover(enc in arb_small_relation()) {
        let report = oracle_minimal_cover(&enc);
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        prop_assert!(
            report.matches(&result.ods),
            "FASTOD != oracle minimal cover on {} attrs x {} rows:\n{}",
            enc.n_attrs(),
            enc.n_rows(),
            report.diff(&result.ods)
        );
    }

    /// The suite's own exhaustive enumerator agrees with the oracle's
    /// valid-OD sweep (two independent ground-truth paths).
    #[test]
    fn oracle_agrees_with_theory_enumeration(enc in arb_small_relation()) {
        use fastod_suite::theory::validate::all_valid_canonical_ods;
        let mut from_oracle = oracle_valid_ods(&enc);
        let mut from_theory = all_valid_canonical_ods(&enc, enc.n_attrs());
        from_oracle.sort();
        from_theory.sort();
        prop_assert_eq!(from_oracle, from_theory);
    }

    /// Theorem 8 on the 5–6-attribute band specifically (the ROADMAP's
    /// "larger-schema oracle" item): set-exact equality again, but every
    /// case exercises the deeper lattice.
    #[test]
    fn fastod_equals_oracle_on_wide_schemas(enc in arb_wide_relation()) {
        let report = oracle_minimal_cover(&enc);
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        prop_assert!(
            report.matches(&result.ods),
            "FASTOD != oracle minimal cover on {} attrs x {} rows:\n{}",
            enc.n_attrs(),
            enc.n_rows(),
            report.diff(&result.ods)
        );
    }

    /// Theorem 8 on the 7-attribute band — the deepest lattice the oracle
    /// reaches (ROADMAP's "7–8-attribute" goal, unblocked by the
    /// sub-quadratic per-class pair scan). Also cross-checks that a
    /// multi-threaded run agrees with the oracle, closing the loop between
    /// the parallel executor and ground truth.
    #[test]
    fn fastod_equals_oracle_on_seven_attrs(enc in arb_seven_attr_relation()) {
        let report = oracle_minimal_cover(&enc);
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        prop_assert!(
            report.matches(&result.ods),
            "FASTOD != oracle minimal cover on 7 attrs x {} rows:\n{}",
            enc.n_rows(),
            report.diff(&result.ods)
        );
        let parallel = Fastod::new(DiscoveryConfig::default().with_threads(4)).discover(&enc);
        prop_assert!(
            report.matches(&parallel.ods),
            "parallel FASTOD != oracle minimal cover on 7 attrs x {} rows:\n{}",
            enc.n_rows(),
            report.diff(&parallel.ods)
        );
    }

    /// Theorem 8 at the oracle's 8-attribute ceiling: the deepest lattice
    /// ground truth reaches. One single-threaded and one 4-thread FASTOD run
    /// per case, both set-exact against the oracle — and, through it,
    /// against each other.
    #[test]
    fn fastod_equals_oracle_on_eight_attrs(enc in arb_eight_attr_relation()) {
        let report = oracle_minimal_cover(&enc);
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        prop_assert!(
            report.matches(&result.ods),
            "FASTOD != oracle minimal cover on 8 attrs x {} rows:\n{}",
            enc.n_rows(),
            report.diff(&result.ods)
        );
        let parallel = Fastod::new(DiscoveryConfig::default().with_threads(4)).discover(&enc);
        prop_assert!(
            report.matches(&parallel.ods),
            "parallel FASTOD != oracle minimal cover on 8 attrs x {} rows:\n{}",
            enc.n_rows(),
            report.diff(&parallel.ods)
        );
    }

    /// Every OD the oracle calls minimal is non-trivial and valid; nothing
    /// in the minimal cover is implied by the rest of it.
    #[test]
    fn oracle_minimal_cover_is_irredundant(enc in arb_small_relation()) {
        use fastod_suite::theory::axioms::implied_by_minimal_set;
        let report = oracle_minimal_cover(&enc);
        let cover: OdSet = report.minimal.iter().copied().collect();
        for od in &report.minimal {
            prop_assert!(!od.is_trivial(), "trivial OD in oracle cover: {od}");
            let mut rest = cover.clone();
            rest.retain(|o| o != od);
            prop_assert!(
                !implied_by_minimal_set(&rest, od),
                "redundant OD in oracle cover: {od}"
            );
        }
        // And the cover implies everything valid.
        for od in &report.valid {
            prop_assert!(
                implied_by_minimal_set(&cover, od),
                "valid OD not implied by oracle cover: {od}"
            );
        }
    }
}

/// The oracle pipeline on the paper's employee relation (Table 1): the
/// discovered set matches the cover exactly, deterministically — now on a
/// 6-attribute projection carrying the paper's headline dependencies.
#[test]
fn employee_table_matches_oracle() {
    let rel = fastod_suite::datagen::employee_table();
    let enc = rel.encode();
    // yr, posit, bin, sal, perc, tax — the salary/tax core of Table 1.
    let keep = AttrSet::from_iter([1usize, 2, 3, 4, 5, 6]);
    let proj = enc.project(keep);
    let report = oracle_minimal_cover(&proj);
    let result = Fastod::new(DiscoveryConfig::default()).discover(&proj);
    assert!(
        report.matches(&result.ods),
        "employee projection mismatch:\n{}",
        report.diff(&result.ods)
    );
}

/// The FD-heavy band does exercise sharing: on one of its instances some
/// children take a parent's partition, and the cover still matches.
#[test]
fn fd_heavy_instance_shares_partitions() {
    let enc = fd_heavy_relation(5, 14, 3, 7);
    let obs = fastod_suite::obs::Obs::enabled();
    let result = Fastod::new(DiscoveryConfig::default().with_obs(obs.clone())).discover(&enc);
    let shared = obs.snapshot().counter("partition.shared").unwrap_or(0);
    assert!(shared > 0, "no child shared a partition");
    let report = oracle_minimal_cover(&enc);
    assert!(report.matches(&result.ods), "{}", report.diff(&result.ods));
}
