//! Named dataset analogues (paper §5.1) plus generic random tables.
//!
//! Each generator documents the paper-observed property it is engineered to
//! preserve. Absolute OD counts will differ from the originals — the
//! harness reproduces the *shape* of the experiments (who wins, scaling
//! behaviour, crossovers); the README's "Running the experiments" lists
//! what each experiment reproduces.

use crate::generator::{ColumnSpec, TableSpec};
use fastod_relation::{Date, Relation, RelationBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Analogue of the HPI **flight** dataset (500K×40 in the paper).
///
/// Engineered properties:
/// * a constant `year` column — all paper flights are from 2012, the source
///   of ORDER's missed `{}: [] ↦ year` (§5.3);
/// * an ordered surrogate key with a chain of monotone coarsenings
///   (schedule-derived columns) — gives ORDER its valid ODs and FASTOD its
///   OCD fragment;
/// * FD clusters (flight number → carrier/origin/destination facts);
/// * independent categoricals filling the higher attribute positions.
pub fn flight_like(n_rows: usize, n_attrs: usize, seed: u64) -> Relation {
    let mut spec = TableSpec::new("flight", n_rows, seed)
        .column("year", ColumnSpec::Constant(2012))
        .column("flight_sk", ColumnSpec::SequentialKey)
        .column(
            "day",
            ColumnSpec::MonotoneOf { source: 1, plateau: (n_rows / 365).max(1) as u32 },
        )
        .column("month", ColumnSpec::MonotoneOf { source: 2, plateau: 30 })
        .column("quarter", ColumnSpec::MonotoneOf { source: 3, plateau: 3 })
        .column("carrier", ColumnSpec::RandomInt { cardinality: 8 })
        .column(
            "flight_num",
            ColumnSpec::RandomInt { cardinality: ((n_rows / 4).clamp(8, 500)) as u32 },
        )
        .column("origin", ColumnSpec::FdOf { sources: vec![6], cardinality: 40 })
        .column("origin_city", ColumnSpec::FdOf { sources: vec![7], cardinality: 35 })
        .column("dest", ColumnSpec::FdOf { sources: vec![6], cardinality: 40 });
    let mut i = spec.columns.len();
    while i < n_attrs {
        let spec_i = match i % 5 {
            0 => ColumnSpec::MonotoneOf {
                source: 1,
                plateau: 1u32 << ((i / 5) % 6 + 1),
            },
            1 => ColumnSpec::RandomInt { cardinality: 3 + (i % 7) as u32 },
            2 => ColumnSpec::FdOf { sources: vec![5], cardinality: 6 },
            3 => ColumnSpec::FdOf { sources: vec![i - 1, i - 2], cardinality: 12 },
            _ => ColumnSpec::RandomStr { cardinality: 20 },
        };
        spec = spec.column(&format!("x{i}"), spec_i);
        i += 1;
    }
    truncate_attrs(spec, n_attrs).build()
}

/// Analogue of the UCI **ncvoter** dataset (1M×20 in the paper).
///
/// Engineered properties:
/// * shuffled-key identifiers — FDs to everything, swaps with everything,
///   so every level-2 list OD dies of a swap and ORDER reports **zero** ODs
///   while FASTOD still finds a large FD + contextual-OCD set;
/// * geographic FD cluster (county → city/zip) with scrambled value order;
/// * independent low-cardinality categoricals (party, gender, status).
pub fn ncvoter_like(n_rows: usize, n_attrs: usize, seed: u64) -> Relation {
    let mut spec = TableSpec::new("ncvoter", n_rows, seed)
        .column("voter_id", ColumnSpec::ShuffledKey)
        .column("county", ColumnSpec::RandomInt { cardinality: 50 })
        .column("city", ColumnSpec::FdOf { sources: vec![1], cardinality: 40 })
        .column("zip", ColumnSpec::FdOf { sources: vec![1], cardinality: 45 })
        .column("party", ColumnSpec::RandomInt { cardinality: 4 })
        .column("gender", ColumnSpec::RandomInt { cardinality: 3 })
        .column("age", ColumnSpec::RandomInt { cardinality: 80 })
        .column("status", ColumnSpec::RandomInt { cardinality: 3 })
        .column("precinct", ColumnSpec::FdOf { sources: vec![1, 4], cardinality: 60 })
        .column("reg_num", ColumnSpec::ShuffledKey);
    let mut i = spec.columns.len();
    while i < n_attrs {
        let spec_i = match i % 3 {
            0 => ColumnSpec::RandomInt { cardinality: 2 + (i % 9) as u32 },
            1 => ColumnSpec::FdOf { sources: vec![i % 8], cardinality: 10 },
            _ => ColumnSpec::RandomStr { cardinality: 12 },
        };
        spec = spec.column(&format!("x{i}"), spec_i);
        i += 1;
    }
    truncate_attrs(spec, n_attrs).build()
}

/// Analogue of the UCI **hepatitis** dataset (155×20 in the paper).
///
/// Engineered properties: tiny row count with low-cardinality clinical
/// attributes. At 155 rows the combinatorics make FDs and contextual OCDs
/// dense for FASTOD, while at the empty context virtually every pair swaps,
/// so ORDER dies at level 2 — the paper's case where ORDER is *faster* than
/// both FASTOD and TANE precisely because it is incomplete.
pub fn hepatitis_like(n_rows: usize, n_attrs: usize, seed: u64) -> Relation {
    let mut spec = TableSpec::new("hepatitis", n_rows, seed)
        .column("class", ColumnSpec::RandomInt { cardinality: 2 })
        .column("age_group", ColumnSpec::RandomInt { cardinality: 7 })
        .column("sex", ColumnSpec::RandomInt { cardinality: 2 })
        .column("steroid", ColumnSpec::RandomInt { cardinality: 2 })
        .column("antivirals", ColumnSpec::FdOf { sources: vec![0, 3], cardinality: 2 });
    let mut i = spec.columns.len();
    while i < n_attrs {
        let spec_i = match i % 4 {
            0 => ColumnSpec::RandomInt { cardinality: 2 },
            1 => ColumnSpec::RandomInt { cardinality: 3 },
            2 => ColumnSpec::FdOf { sources: vec![i - 1], cardinality: 2 },
            _ => ColumnSpec::RandomInt { cardinality: 4 },
        };
        spec = spec.column(&format!("m{i}"), spec_i);
        i += 1;
    }
    truncate_attrs(spec, n_attrs).build()
}

/// Analogue of the **dbtesma** benchmark-generator dataset (250K×30).
///
/// Engineered properties: heavily FD-structured (generated columns
/// determined by narrow source sets, as the dbtesma data generator does),
/// with only a single monotone pair — FASTOD output is FD-dominated and
/// ORDER finds just a couple of ODs.
pub fn dbtesma_like(n_rows: usize, n_attrs: usize, seed: u64) -> Relation {
    let mut spec = TableSpec::new("dbtesma", n_rows, seed)
        .column("pk", ColumnSpec::ShuffledKey)
        .column("grp", ColumnSpec::RandomInt { cardinality: 12 })
        .column("a1", ColumnSpec::FdOf { sources: vec![1], cardinality: 8 })
        .column("a2", ColumnSpec::FdOf { sources: vec![1], cardinality: 6 })
        .column("a3", ColumnSpec::FdOf { sources: vec![2], cardinality: 4 })
        .column("seq", ColumnSpec::SequentialKey)
        .column("seq_band", ColumnSpec::MonotoneOf { source: 5, plateau: (n_rows / 16).max(1) as u32 });
    let mut i = spec.columns.len();
    while i < n_attrs {
        let spec_i = match i % 3 {
            0 => ColumnSpec::FdOf { sources: vec![1 + (i % 4)], cardinality: 5 },
            1 => ColumnSpec::FdOf { sources: vec![i - 1], cardinality: 4 },
            _ => ColumnSpec::RandomInt { cardinality: 9 },
        };
        spec = spec.column(&format!("g{i}"), spec_i);
        i += 1;
    }
    truncate_attrs(spec, n_attrs).build()
}

fn truncate_attrs(mut spec: TableSpec, n_attrs: usize) -> TableSpec {
    assert!(n_attrs >= 1, "need at least one attribute");
    // Dependent columns only reference earlier ones, so truncation is safe
    // as long as base sources survive; for very narrow projections keep the
    // prefix (sources of the base columns are all in the first positions).
    if spec.columns.len() > n_attrs {
        spec.columns.truncate(n_attrs);
    }
    spec
}

/// The paper's Table 1 — employee salaries and tax information — verbatim.
///
/// Attribute order: `id, yr, posit, bin, sal, perc, tax, grp, subg`.
pub fn employee_table() -> Relation {
    RelationBuilder::new()
        .column_i64("id", vec![10, 11, 12, 10, 11, 12])
        .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
        .column_str("posit", vec!["secr", "mngr", "direct", "secr", "mngr", "direct"])
        .column_i64("bin", vec![1, 2, 3, 1, 2, 3])
        .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
        .column_i64("perc", vec![20, 25, 30, 20, 25, 25])
        .column_f64("tax", vec![1.0, 2.0, 3.0, 0.9, 1.5, 2.0])
        .column_str("grp", vec!["A", "C", "D", "A", "C", "C"])
        .column_str("subg", vec!["III", "II", "I", "III", "I", "II"])
        .build()
        .expect("Table 1 is well-formed")
}

/// A TPC-DS-style `date_dim` slice (§1.1's Query 1 discussion): one row per
/// day starting 1998-01-01.
///
/// Carries the ODs the paper's optimizer examples rely on:
/// `{d_date_sk}: [] ↦ d_year`, `{}: d_date_sk ~ d_date`,
/// `{d_month}: [] ↦ d_quarter`, `{}: d_month ~ d_quarter`, and the
/// Example 2 pair `d_month ~ d_week` *without* either FD.
pub fn tpcds_date_dim(n_days: usize) -> Relation {
    let start = Date::from_ymd(1998, 1, 1);
    let mut sk = Vec::with_capacity(n_days);
    let mut date = Vec::with_capacity(n_days);
    let mut year = Vec::with_capacity(n_days);
    let mut quarter = Vec::with_capacity(n_days);
    let mut month = Vec::with_capacity(n_days);
    let mut week = Vec::with_capacity(n_days);
    let mut dom = Vec::with_capacity(n_days);
    for i in 0..n_days {
        let d = Date(start.days() + i as i32);
        let (y, m, day) = d.ymd();
        sk.push(2_415_022 + i as i64); // TPC-DS's julian-style surrogate
        date.push(d);
        year.push(y as i64);
        quarter.push(d.quarter() as i64);
        month.push(m as i64);
        // Week-of-year as day-of-year / 7 + 1: monotone within a year and
        // order compatible with month, but neither FDs the other.
        let doy = d.days() - Date::from_ymd(y, 1, 1).days();
        week.push((doy / 7 + 1) as i64);
        dom.push(day as i64);
    }
    RelationBuilder::new()
        .column_i64("d_date_sk", sk)
        .column_date("d_date", date)
        .column_i64("d_year", year)
        .column_i64("d_quarter", quarter)
        .column_i64("d_month", month)
        .column_i64("d_week", week)
        .column_i64("d_dom", dom)
        .build()
        .expect("date_dim is well-formed")
}

/// A fully random relation: independent integer columns with cardinalities
/// drawn from `1..=max_card`. The workhorse of the property-based tests.
pub fn random_relation(n_rows: usize, n_attrs: usize, max_card: u32, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut spec = TableSpec::new("random", n_rows, rng.gen());
    for i in 0..n_attrs {
        let card = rng.gen_range(1..=max_card.max(1));
        spec = spec.column(&format!("c{i}"), ColumnSpec::RandomInt { cardinality: card });
    }
    spec.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::{AttrSet, Value};
    use fastod_theory::validate::canonical_od_holds;
    use fastod_theory::CanonicalOd;

    #[test]
    fn flight_shape() {
        let rel = flight_like(500, 12, 1);
        assert_eq!(rel.n_rows(), 500);
        assert_eq!(rel.n_attrs(), 12);
        let enc = rel.encode();
        // year constant.
        assert!(enc.is_constant(0));
        // flight_sk orders day (monotone chain).
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::order_compat(AttrSet::EMPTY, 1, 2)
        ));
        // flight_num → origin FD.
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::constancy(AttrSet::singleton(6), 7)
        ));
    }

    #[test]
    fn flight_narrow_projection() {
        let rel = flight_like(100, 5, 1);
        assert_eq!(rel.n_attrs(), 5);
        assert!(rel.encode().is_constant(0));
    }

    #[test]
    fn ncvoter_shape() {
        let rel = ncvoter_like(400, 10, 2);
        let enc = rel.encode();
        // voter_id is a key → FDs to everything...
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::constancy(AttrSet::singleton(0), 4)
        ));
        // ...but shuffled: swaps with (almost) everything.
        assert!(!canonical_od_holds(
            &enc,
            &CanonicalOd::order_compat(AttrSet::EMPTY, 0, 6)
        ));
        // county → city FD.
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::constancy(AttrSet::singleton(1), 2)
        ));
    }

    #[test]
    fn hepatitis_is_tiny_and_low_card() {
        let rel = hepatitis_like(155, 20, 3);
        assert_eq!(rel.n_rows(), 155);
        assert_eq!(rel.n_attrs(), 20);
        let enc = rel.encode();
        assert!(enc.cardinality(0) <= 2);
        assert!((0..20).all(|a| enc.cardinality(a) <= 8));
    }

    #[test]
    fn dbtesma_fd_cluster() {
        let enc = dbtesma_like(300, 10, 4).encode();
        // grp → a1 and grp → a2 by construction.
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::constancy(AttrSet::singleton(1), 2)
        ));
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::constancy(AttrSet::singleton(1), 3)
        ));
        // seq ~ seq_band monotone pair (ORDER's couple of finds).
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::order_compat(AttrSet::EMPTY, 5, 6)
        ));
    }

    #[test]
    fn employee_matches_table1() {
        let rel = employee_table();
        assert_eq!(rel.n_rows(), 6);
        assert_eq!(rel.n_attrs(), 9);
        assert_eq!(rel.value(0, 4), Value::Float(5.0));
        assert_eq!(rel.value(5, 8), Value::Str("II".into()));
    }

    #[test]
    fn date_dim_paper_ods() {
        let enc = tpcds_date_dim(3 * 365).encode();
        let (sk, date, year, quarter, month, week) = (0, 1, 2, 3, 4, 5);
        // {d_date_sk}: [] ↦ d_year and {}: d_date_sk ~ d_year.
        assert!(canonical_od_holds(&enc, &CanonicalOd::constancy(AttrSet::singleton(sk), year)));
        assert!(canonical_od_holds(&enc, &CanonicalOd::order_compat(AttrSet::EMPTY, sk, year)));
        assert!(canonical_od_holds(&enc, &CanonicalOd::order_compat(AttrSet::EMPTY, sk, date)));
        // {d_month}: [] ↦ d_quarter and {}: d_month ~ d_quarter.
        assert!(canonical_od_holds(&enc, &CanonicalOd::constancy(AttrSet::singleton(month), quarter)));
        assert!(canonical_od_holds(&enc, &CanonicalOd::order_compat(AttrSet::EMPTY, month, quarter)));
        // Example 2: month ~ week holds, neither FD direction does.
        assert!(canonical_od_holds(&enc, &CanonicalOd::order_compat(AttrSet::EMPTY, month, week)));
        assert!(!canonical_od_holds(&enc, &CanonicalOd::constancy(AttrSet::singleton(month), week)));
        assert!(!canonical_od_holds(&enc, &CanonicalOd::constancy(AttrSet::singleton(week), month)));
    }

    #[test]
    fn random_relation_deterministic() {
        let a = random_relation(50, 4, 5, 9);
        let b = random_relation(50, 4, 5, 9);
        assert_eq!(a, b);
        assert_eq!(a.n_rows(), 50);
        assert_eq!(a.n_attrs(), 4);
    }

    #[test]
    fn generators_accept_various_sizes() {
        for n_attrs in [5, 10, 15, 20] {
            assert_eq!(flight_like(50, n_attrs, 0).n_attrs(), n_attrs);
            assert_eq!(ncvoter_like(50, n_attrs, 0).n_attrs(), n_attrs);
            assert_eq!(hepatitis_like(50, n_attrs, 0).n_attrs(), n_attrs);
            assert_eq!(dbtesma_like(50, n_attrs, 0).n_attrs(), n_attrs);
        }
    }
}
