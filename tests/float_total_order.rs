//! Pins the `f64::total_cmp` semantics the float encoding relies on
//! (encode.rs §4.6): the dense ranks must realize the IEEE 754 total order
//! `-NaN < -inf < … < -0.0 < +0.0 < … < +inf < +NaN`, with `-0.0` and
//! `0.0` as *distinct* ranks — and discovery over a column containing every
//! edge value must still agree with the brute-force oracle.

use fastod_suite::prelude::*;
use fastod_testkit::oracle_minimal_cover;

/// Every edge value in `total_cmp` order, no duplicates.
fn edge_values() -> Vec<f64> {
    vec![
        -f64::NAN,
        f64::NEG_INFINITY,
        f64::MIN,
        -1.5,
        -f64::MIN_POSITIVE,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        1.5,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ]
}

/// The dense ranks of the edge values are exactly their `total_cmp` order:
/// code i for the i-th listed value, cardinality = all distinct.
#[test]
fn ranks_realize_the_total_order() {
    let values = edge_values();
    let n = values.len();
    // Feed them scrambled so the encoder cannot luck into the answer.
    let perm: Vec<usize> = (0..n).map(|i| (i * 5) % n).collect();
    let scrambled: Vec<f64> = perm.iter().map(|&i| values[i]).collect();
    let rel = RelationBuilder::new().column_f64("x", scrambled).build().unwrap();
    let enc = rel.encode();
    assert_eq!(enc.cardinality(0) as usize, n, "every edge value is rank-distinct");
    for (row, &orig) in perm.iter().enumerate() {
        assert_eq!(
            enc.codes(0)[row] as usize,
            orig,
            "row {row} (value index {orig}) got the wrong rank"
        );
    }
}

/// `-NaN` sorts below `-inf` and `NaN` above `+inf` — the two places where
/// `total_cmp` diverges most visibly from `partial_cmp`.
#[test]
fn nan_sits_outside_the_infinities() {
    let rel = RelationBuilder::new()
        .column_f64("x", vec![f64::INFINITY, f64::NAN, f64::NEG_INFINITY, -f64::NAN])
        .build()
        .unwrap();
    let enc = rel.encode();
    assert_eq!(enc.codes(0), &[2, 3, 1, 0]);
}

/// `-0.0` and `0.0` compare equal under `==` but get distinct ranks — and
/// both collapse their duplicates to one code.
#[test]
fn signed_zeros_are_distinct_ranks() {
    let rel = RelationBuilder::new()
        .column_f64("x", vec![0.0, -0.0, 0.0, -0.0])
        .build()
        .unwrap();
    let enc = rel.encode();
    assert_eq!(enc.codes(0), &[1, 0, 1, 0]);
    assert_eq!(enc.cardinality(0), 2);
}

/// NaN handling is bit-exact, as IEEE 754 totalOrder specifies: repeated
/// identical NaNs collapse to one rank, while a NaN with a different
/// payload is a *distinct* (and larger, for positive NaNs) rank.
#[test]
fn nan_ranks_follow_bit_patterns() {
    let payload_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    assert!(payload_nan.is_nan());
    let rel = RelationBuilder::new()
        .column_f64("x", vec![f64::NAN, 1.0, f64::NAN, payload_nan])
        .build()
        .unwrap();
    let enc = rel.encode();
    let codes = enc.codes(0);
    assert_eq!(codes[0], codes[2], "identical NaN bits must share a rank");
    assert!(
        codes[3] > codes[0],
        "a larger NaN payload sorts above under totalOrder"
    );
    assert_eq!(enc.cardinality(0), 3);
}

/// Discovery over a relation whose float column holds every edge value
/// matches the tuple-pair oracle — the end-to-end guarantee that the edge
/// semantics survive partitions, validators and minimality reasoning.
#[test]
fn discovery_on_edge_floats_matches_oracle() {
    let values = edge_values();
    let n = values.len() as i64;
    let rel = RelationBuilder::new()
        .column_f64("x", edge_values())
        .column_i64("rank", (0..n).collect())
        .column_i64("grp", (0..n).map(|i| i % 3).collect())
        .build()
        .unwrap();
    let enc = rel.encode();
    let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
    let report = oracle_minimal_cover(&enc);
    assert!(
        report.matches(&result.ods),
        "cover disagrees with the oracle on edge floats:\n{}",
        report.diff(&result.ods)
    );
    // x ~ rank is the strongest shape in there: x is listed in total order.
    assert!(
        fastod_suite::theory::canonical_od_holds(
            &enc,
            &CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)
        ),
        "edge floats in listed order must be order compatible with the key"
    );
}

/// `write_csv` writes every edge value, and integral floats, in a form that
/// reads back to the same bits and so the same ranks: `2.0` stays a float,
/// `-0.0` and `-NaN` keep their signs. A NaN whose payload neither `NaN` nor
/// `-NaN` spells is an error, not a silently different NaN.
#[test]
fn edge_floats_round_trip_through_csv() {
    use fastod_suite::relation::csv::{read_csv, write_csv};
    use fastod_suite::relation::{ColumnData, RelationError};

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut values = edge_values();
    values.extend([2.0, -3.0, 1e300, 0.1]);
    for column in [values, vec![-0.0, 0.0, 1.0, 2.0]] {
        let rel = RelationBuilder::new()
            .column_f64("x", column.clone())
            .column_i64("rank", (0..column.len() as i64).collect())
            .build()
            .unwrap();
        let mut text = Vec::new();
        write_csv(&rel, &mut text).unwrap();
        let back = read_csv(&text[..], true).unwrap();
        assert_eq!(back.schema().data_type(0), DataType::Float);
        let ColumnData::Float(read) = back.column(0).data() else {
            unreachable!("a Float column holds f64s");
        };
        assert_eq!(bits(read), bits(&column));
        assert_eq!(back.encode().codes(0), rel.encode().codes(0));
    }

    let payload_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let rel = RelationBuilder::new()
        .column_f64("x", vec![1.0, payload_nan])
        .build()
        .unwrap();
    let err = write_csv(&rel, &mut Vec::new()).unwrap_err();
    assert!(matches!(err, RelationError::Csv { line: 3, .. }), "{err}");
}
