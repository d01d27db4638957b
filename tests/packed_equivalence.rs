//! The bit-packed code column, pinned against `Vec<u32>`.
//!
//! [`PackedCodes`] stores dense-rank codes at `ceil(log2(card + 1))` bits
//! behind the same `EncodedRelation` API the discovery paths consume, so a
//! packing bug would silently corrupt every partition downstream. These
//! tests pin the representation three ways:
//!
//! * **round-trip** at the cardinality boundaries where the bit width
//!   changes (0, 1, 2 and `2^k − 1`, `2^k`, `2^k + 1` for
//!   `k ∈ {1, 8, 16, 31}`), through both construction paths
//!   (`from_codes` and `with_capacity` + `push`) and through `Clone`;
//! * **growth**: a packed `GrowableRelation` tracks a plain one code-for-code
//!   across `extend` batches (dictionary growth re-packs at the new width),
//!   and `StrippedPartition::from_codes_masked` over the decoded codes is
//!   identical after deletes;
//! * **full-discovery differential**: the cover from a packed encoding is
//!   set-identical to the plain encoding on the whole scenario corpus and on
//!   generated tables.

use fastod_suite::partition::StrippedPartition;
use fastod_suite::prelude::*;
use fastod_suite::relation::{GrowableRelation, PackedCodes};
use proptest::prelude::*;

/// Cardinalities where `bits_for` changes: around every power of two the
/// packing exercises, plus the degenerate 0/1/2.
fn boundary_cards() -> Vec<u32> {
    let mut cards = vec![0u32, 1, 2];
    for k in [1u32, 8, 16, 31] {
        let p = 1u64 << k;
        for c in [p - 1, p, p + 1] {
            if c <= u32::MAX as u64 {
                cards.push(c as u32);
            }
        }
    }
    cards.sort_unstable();
    cards.dedup();
    cards
}

/// Deterministic codes `< card` hitting both ends of the value range.
fn sample_codes(card: u32, n: usize) -> Vec<u32> {
    if card == 0 {
        return Vec::new();
    }
    let mut codes: Vec<u32> = (0..n as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % card as u64) as u32)
        .collect();
    codes[0] = 0;
    if n > 1 {
        codes[1] = card - 1;
    }
    codes
}

#[test]
fn round_trip_at_cardinality_boundaries() {
    for card in boundary_cards() {
        let codes = sample_codes(card, 97);
        let packed = PackedCodes::from_codes(&codes, card);
        assert_eq!(packed.bits(), PackedCodes::bits_for(card), "card {card}");
        assert_eq!(packed.len(), codes.len());
        assert_eq!(packed.to_vec(), codes, "to_vec at card {card}");
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(packed.get(i), c, "get({i}) at card {card}");
        }
        // Sub-range decode, including empty and full ranges.
        let mut buf = Vec::new();
        for (lo, hi) in [(0, codes.len()), (0, 0), (3.min(codes.len()), 67.min(codes.len()))] {
            packed.decode_range(lo..hi, &mut buf);
            assert_eq!(buf, &codes[lo..hi], "decode_range({lo}..{hi}) at card {card}");
        }
        // The push path lands on the identical representation.
        let mut pushed = PackedCodes::with_capacity(card, codes.len());
        for &c in &codes {
            pushed.push(c);
        }
        assert_eq!(pushed.to_vec(), codes, "push path at card {card}");
        assert_eq!(pushed.bits(), packed.bits());
        // Clone round-trips too (the unpacked cache is not shared).
        assert_eq!(packed.as_slice(), codes.as_slice());
        let cloned = packed.clone();
        assert_eq!(cloned.to_vec(), codes, "clone at card {card}");
    }
}

#[test]
fn packed_growable_tracks_plain_through_extend() {
    let base = fastod_suite::datagen::flight_like(120, 6, 0xBEEF01);
    let mut plain = GrowableRelation::new(&base);
    let mut packed = GrowableRelation::new(&base);
    packed.pack();
    for seed in [1u64, 2, 3, 4] {
        let batch = fastod_suite::datagen::flight_like(35, 6, seed);
        plain.extend(&batch).unwrap();
        packed.extend(&batch).unwrap();
        let (pe, qe) = (plain.encoded(), packed.encoded());
        assert_eq!(pe.n_rows(), qe.n_rows());
        let mut buf = Vec::new();
        for a in 0..pe.n_attrs() {
            assert_eq!(pe.cardinality(a), qe.cardinality(a), "attr {a} seed {seed}");
            // `codes_range` reads straight off the packed words, so this
            // compares the stored bits, not a shared cache.
            assert_eq!(
                qe.codes_range(a, 0..qe.n_rows(), &mut buf),
                pe.codes(a),
                "attr {a} seed {seed}"
            );
        }
    }
    // Tombstone some rows and rebuild partitions through the masked path:
    // packed and plain decoded codes must induce identical stripped
    // partitions.
    let dead: Vec<usize> = (0..plain.n_rows()).step_by(7).collect();
    plain.delete_rows(&dead).unwrap();
    packed.delete_rows(&dead).unwrap();
    assert_eq!(plain.live(), packed.live());
    for a in 0..plain.encoded().n_attrs() {
        let from_plain = StrippedPartition::from_codes_masked(
            plain.encoded().codes(a),
            plain.encoded().cardinality(a),
            plain.live(),
        );
        let from_packed = StrippedPartition::from_codes_masked(
            packed.encoded().codes(a),
            packed.encoded().cardinality(a),
            packed.live(),
        );
        assert_eq!(from_plain, from_packed, "attr {a}");
    }
}

/// Packing must be invisible to discovery: the cover over `enc.pack()` is
/// identical (ordering included) to the plain encoding's, corpus-wide.
#[test]
fn discovery_cover_identical_packed_vs_plain_on_corpus() {
    for scenario in fastod_suite::datagen::scenario_corpus() {
        let rel = scenario.final_state();
        let plain = rel.encode();
        let mut packed = rel.encode();
        packed.pack();
        for a in 0..packed.n_attrs() {
            assert!(
                packed.is_packed(a) || packed.cardinality(a) == 0,
                "{}: attr {a} did not pack",
                scenario.name
            );
        }
        let cover = |e: &EncodedRelation| {
            Fastod::new(DiscoveryConfig::default())
                .discover(e)
                .ods
                .iter()
                .copied()
                .collect::<Vec<CanonicalOd>>()
        };
        assert_eq!(cover(&plain), cover(&packed), "scenario {}", scenario.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated tables: cover identity between packed and plain encodings,
    /// including multi-threaded discovery (the level-1 build reads packed
    /// columns through `codes_range`).
    #[test]
    fn discovery_cover_identical_packed_vs_plain(
        n_rows in 0usize..40,
        card in 1u32..6,
        seed in any::<u64>(),
        threads in 1usize..4,
    ) {
        let spec = fastod_suite::datagen::TableSpec::new("packed", n_rows, seed)
            .column("key", fastod_suite::datagen::ColumnSpec::ShuffledKey)
            .column("cat", fastod_suite::datagen::ColumnSpec::RandomInt { cardinality: card })
            .column(
                "mono",
                fastod_suite::datagen::ColumnSpec::MonotoneOf { source: 0, plateau: 3 },
            )
            .column(
                "fd",
                fastod_suite::datagen::ColumnSpec::FdOf { sources: vec![1], cardinality: card },
            );
        let rel = spec.build();
        let plain = rel.encode();
        let mut packed = rel.encode();
        packed.pack();
        let cfg = DiscoveryConfig::default().with_threads(threads);
        let a = Fastod::new(cfg.clone()).discover(&plain).ods.sorted();
        let b = Fastod::new(cfg).discover(&packed).ods.sorted();
        prop_assert_eq!(a, b);
    }
}
