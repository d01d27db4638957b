//! Properties of the append path: extending a relation and encoding
//! incrementally must be indistinguishable — partition-wise, and for the
//! canonical dense-rank encoding even code-wise — from building the
//! concatenated relation in one shot.

use fastod_suite::partition::StrippedPartition;
use fastod_suite::prelude::*;
use proptest::prelude::*;

fn random_rel(n_rows: usize, n_attrs: usize, max_card: u32, seed: u64) -> Relation {
    fastod_suite::datagen::random_relation(n_rows, n_attrs, max_card, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Relation::extend` + `encode` ≡ encoding the concatenation directly:
    /// the partitions (equality classes, per attribute) must be identical.
    /// With dense-rank codes the guarantee is even stronger — the codes
    /// themselves coincide — but the partition form is the contract the
    /// discovery stack depends on.
    #[test]
    fn extend_then_encode_matches_direct_concat(
        n_attrs in 1usize..=5,
        base_rows in 0usize..=15,
        batch_rows in 0usize..=10,
        max_card in 1u32..=5,
        seed in any::<u64>(),
    ) {
        let base = random_rel(base_rows, n_attrs, max_card, seed);
        let batch = random_rel(batch_rows, n_attrs, max_card, seed ^ 0xABCD);

        // Path 1: in-place extend, then encode.
        let mut extended = base.clone();
        extended.extend(&batch).unwrap();
        let enc_extended = extended.encode();

        // Path 2: rebuild the concatenated relation column by column.
        let mut builder = RelationBuilder::new();
        for a in 0..n_attrs {
            let mut vals = Vec::with_capacity(base.n_rows() + batch.n_rows());
            for row in 0..base.n_rows() {
                if let Value::Int(v) = base.value(row, a) { vals.push(v); } else { unreachable!() }
            }
            for row in 0..batch.n_rows() {
                if let Value::Int(v) = batch.value(row, a) { vals.push(v); } else { unreachable!() }
            }
            builder = builder.column_i64(base.schema().name(a), vals);
        }
        let enc_direct = builder.build().unwrap().encode();

        prop_assert_eq!(enc_extended.n_rows(), enc_direct.n_rows());
        for a in 0..n_attrs {
            // Codes agree (dense ranks are canonical)...
            prop_assert_eq!(enc_extended.codes(a), enc_direct.codes(a), "attr {}", a);
            // ...and so, a fortiori, do the partitions.
            let p1 = StrippedPartition::from_codes(enc_extended.codes(a), enc_extended.cardinality(a));
            let p2 = StrippedPartition::from_codes(enc_direct.codes(a), enc_direct.cardinality(a));
            prop_assert_eq!(p1, p2, "partition mismatch on attr {}", a);
        }
    }

    /// The incremental encoder (`GrowableRelation`) over any split of a
    /// relation into base + batches yields exactly the one-shot encoding.
    #[test]
    fn growable_relation_is_canonical(
        n_attrs in 1usize..=4,
        base_rows in 0usize..=12,
        max_card in 1u32..=6,
        seed in any::<u64>(),
        n_batches in 1usize..=4,
    ) {
        let base = random_rel(base_rows, n_attrs, max_card, seed);
        let mut grow = GrowableRelation::new(&base);
        let mut concat = base.clone();
        for b in 0..n_batches {
            let batch = random_rel(3, n_attrs, max_card, seed ^ (0xF00 + b as u64));
            grow.extend(&batch).unwrap();
            concat.extend(&batch).unwrap();
        }
        let fresh = concat.encode();
        prop_assert_eq!(grow.n_rows(), concat.n_rows());
        for a in 0..n_attrs {
            prop_assert_eq!(grow.encoded().codes(a), fresh.codes(a), "attr {}", a);
            prop_assert_eq!(grow.encoded().cardinality(a), fresh.cardinality(a));
        }
    }

    /// `StrippedPartition::append_codes` over a growing code column agrees
    /// with a from-scratch rebuild after every batch — including dictionary
    /// growth remaps, old-singleton resurrection and fresh classes.
    #[test]
    fn partition_append_matches_rebuild(
        base_rows in 0usize..=12,
        max_card in 1u32..=5,
        seed in any::<u64>(),
        n_batches in 1usize..=5,
    ) {
        let base = random_rel(base_rows, 1, max_card, seed);
        let mut grow = GrowableRelation::new(&base);
        let mut part = StrippedPartition::from_codes(
            grow.encoded().codes(0),
            grow.encoded().cardinality(0),
        );
        for b in 0..n_batches {
            let batch = random_rel(1 + b % 3, 1, max_card, seed ^ (0xBEEF + b as u64));
            grow.extend(&batch).unwrap();
            let old_n = part.n_rows();
            let dirty = part.append_codes(grow.encoded().codes(0), grow.encoded().cardinality(0));
            let rebuilt = StrippedPartition::from_codes(
                grow.encoded().codes(0),
                grow.encoded().cardinality(0),
            );
            prop_assert_eq!(&part, &rebuilt, "batch {}", b);
            // Dirty iff some appended row is covered in the rebuild.
            let covered = rebuilt.classes().iter().flatten().any(|&row| row as usize >= old_n);
            prop_assert_eq!(dirty, covered, "batch {}", b);
        }
    }
}
