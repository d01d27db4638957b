//! The incremental engine's central contract: after **every** mutation —
//! appended batch, row deletion, or update —
//! `IncrementalDiscovery::cover` is set-exactly what a fresh
//! `Fastod::discover` returns on the surviving rows — and therefore,
//! through `tests/oracle_theorem8.rs`, exactly the minimal cover of all
//! valid canonical ODs (Theorem 8 keeps holding under arbitrary
//! interleavings of appends, deletes and updates).
//!
//! The oracle cross-check here is deliberately redundant with transitivity:
//! it pins the incremental cover against a partition-free ground truth, so a
//! bug that somehow slipped into *both* traversal paths would still be
//! caught. The violation-count band additionally pins the partition-level
//! counters (the currency of the engine's delete-time delta-validation)
//! against the oracle's definitional pair scan.

use fastod_suite::incremental::BatchCounters;
use fastod_suite::partition::{count_violations, StrippedPartition, SwapScratch};
use fastod_suite::prelude::*;
use fastod_testkit::{oracle_minimal_cover, oracle_violation_count};
use proptest::prelude::*;

fn assert_cover_matches(engine: &IncrementalDiscovery, concat: &Relation, batch_no: usize) {
    let enc = concat.encode();
    let fresh = Fastod::new(DiscoveryConfig::default()).discover(&enc);
    assert_eq!(
        engine.cover().sorted(),
        fresh.ods.sorted(),
        "incremental != from-scratch after batch {batch_no} ({} rows)",
        concat.n_rows()
    );
    // Oracle ground truth wherever the schema fits it.
    if concat.n_attrs() <= fastod_testkit::oracle::MAX_ORACLE_ATTRS {
        let report = oracle_minimal_cover(&enc);
        assert!(
            report.matches(engine.cover()),
            "incremental != oracle after batch {batch_no}:\n{}",
            report.diff(engine.cover())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized schemas (≤ 6 attrs), 10 appended batches each, cover
    /// checked after every batch against both from-scratch discovery and
    /// the brute-force oracle.
    #[test]
    fn cover_tracks_appends(
        n_attrs in 1usize..=6,
        base_rows in 0usize..=10,
        max_card in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let base = fastod_suite::datagen::random_relation(base_rows, n_attrs, max_card, seed);
        let mut engine = IncrementalDiscovery::new(&base);
        let mut concat = base.clone();
        for b in 0..10u64 {
            let batch = fastod_suite::datagen::random_relation(
                1 + (b as usize % 3),
                n_attrs,
                max_card,
                seed ^ (0xB000 + b),
            );
            engine.push_batch(&batch).unwrap();
            concat.extend(&batch).unwrap();
            assert_cover_matches(&engine, &concat, b as usize + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized schemas (≤ 5 attrs), 10 mutations each — a random
    /// interleaving of appends, deletes and updates — with the cover
    /// checked after every mutation against both from-scratch discovery on
    /// the survivors and the brute-force oracle.
    #[test]
    fn cover_tracks_mixed_mutations(
        n_attrs in 1usize..=5,
        base_rows in 2usize..=10,
        max_card in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let base = fastod_suite::datagen::random_relation(base_rows, n_attrs, max_card, seed);
        let mut engine = IncrementalDiscovery::new(&base);
        // `history` accumulates every row ever appended at its physical id;
        // `live` is the surviving id set, in ascending order.
        let mut history = base.clone();
        let mut live: Vec<usize> = (0..base_rows).collect();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for step in 0..10u64 {
            let roll = next() % 3;
            if roll == 1 && !live.is_empty() {
                // Delete 1–2 random live rows.
                let mut victims = vec![live[(next() % live.len() as u64) as usize]];
                if live.len() > 1 && next() % 2 == 0 {
                    let second = live[(next() % live.len() as u64) as usize];
                    if second != victims[0] {
                        victims.push(second);
                    }
                }
                engine.delete_rows(&victims).unwrap();
                live.retain(|row| !victims.contains(row));
            } else if roll == 2 && !live.is_empty() {
                // Update one random live row.
                let victim = live[(next() % live.len() as u64) as usize];
                let replacement = fastod_suite::datagen::random_relation(
                    1, n_attrs, max_card, seed ^ (0xD000 + step),
                );
                engine.update_rows(&[victim], &replacement).unwrap();
                live.retain(|&row| row != victim);
                live.push(history.n_rows());
                history.extend(&replacement).unwrap();
            } else {
                // Append 1–3 rows.
                let batch = fastod_suite::datagen::random_relation(
                    1 + (step as usize % 3), n_attrs, max_card, seed ^ (0xC000 + step),
                );
                live.extend(history.n_rows()..history.n_rows() + batch.n_rows());
                engine.push_batch(&batch).unwrap();
                history.extend(&batch).unwrap();
            }
            prop_assert_eq!(engine.n_live(), live.len());
            let survivors = history.select_rows(&live);
            assert_cover_matches(&engine, &survivors, step as usize + 1);
        }
    }

    /// The partition-level violation counters (which the engine's
    /// delete-time delta-validation trusts for `false → true` flips) agree
    /// with the oracle's definitional quadratic pair scan, on every context
    /// of randomized instances.
    #[test]
    fn violation_counters_match_oracle(
        n_attrs in 1usize..=4,
        n_rows in 0usize..=12,
        max_card in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let rel = fastod_suite::datagen::random_relation(n_rows, n_attrs, max_card, seed);
        let enc = rel.encode();
        let singles: Vec<StrippedPartition> = (0..n_attrs)
            .map(|a| StrippedPartition::from_codes(enc.codes(a), enc.cardinality(a)))
            .collect();
        let mut scratch = SwapScratch::new();
        for ctx_mask in 0u64..(1 << n_attrs) {
            let ctx_set = AttrSet::from_bits(ctx_mask);
            let ctx = ctx_set
                .iter()
                .fold(StrippedPartition::unit(n_rows), |acc, a| {
                    acc.product_simple(&singles[a])
                });
            for a in 0..n_attrs {
                if !ctx_set.contains(a) {
                    let od = CanonicalOd::constancy(ctx_set, a);
                    prop_assert_eq!(
                        count_violations(ctx.classes(), od.codes(&enc), &mut scratch),
                        oracle_violation_count(&enc, &od),
                        "{}", od
                    );
                }
                for b in (a + 1)..n_attrs {
                    if ctx_set.contains(a) || ctx_set.contains(b) {
                        continue;
                    }
                    let od = CanonicalOd::order_compat(ctx_set, a, b);
                    prop_assert_eq!(
                        count_violations(ctx.classes(), od.codes(&enc), &mut scratch),
                        oracle_violation_count(&enc, &od),
                        "{}", od
                    );
                }
            }
        }
    }
}

/// A deterministic wider run (8 attributes — beyond the oracle, still cheap
/// for from-scratch cross-checking) over 12 batches of structured data.
#[test]
fn structured_stream_stays_equivalent() {
    let base = fastod_suite::datagen::flight_like(60, 8, 0xF00D);
    let mut engine = IncrementalDiscovery::new(&base);
    let mut concat = base.clone();
    for b in 0..12u64 {
        // Fresh slices of the same generator family: realistic appends that
        // share dictionaries with history but keep introducing new values.
        let batch = fastod_suite::datagen::flight_like(10, 8, 0x1000 + b);
        engine.push_batch(&batch).unwrap();
        concat.extend(&batch).unwrap();
        assert_cover_matches(&engine, &concat, b as usize + 1);
    }
    // The engine did find real reuse along the way.
    let totals = &engine.stats().totals;
    assert!(totals.skipped_false > 0, "{totals:?}");
    assert!(totals.nodes_reused + totals.skipped_clean > 0, "{totals:?}");
}

/// The same structured stream under a starved partition memory budget (and
/// at several thread counts): eviction forces recomputation but must never
/// change a single verdict — cover identical to from-scratch after every
/// batch, and the snapshot's resident bytes actually honour the cap.
#[test]
fn budgeted_stream_stays_equivalent() {
    for threads in [1usize, 2, 4] {
        let budget = 2_048; // bytes — far below the unbudgeted footprint
        let base = fastod_suite::datagen::flight_like(60, 8, 0xF00D);
        let cfg = DiscoveryConfig::default()
            .with_threads(threads)
            .with_partition_memory_budget(budget);
        let mut engine = IncrementalDiscovery::with_config(&base, cfg).unwrap();
        let initial_shares = engine.stats().totals.nodes_shared;
        let mut concat = base.clone();
        for b in 0..6u64 {
            let batch = fastod_suite::datagen::flight_like(10, 8, 0x1000 + b);
            engine.push_batch(&batch).unwrap();
            concat.extend(&batch).unwrap();
            assert_cover_matches(&engine, &concat, b as usize + 1);
            assert!(
                engine.snapshot().partition_bytes() <= budget,
                "budget exceeded after batch {b}: {} bytes (threads={threads})",
                engine.snapshot().partition_bytes()
            );
        }
        let totals = &engine.stats().totals;
        assert!(totals.nodes_evicted > 0, "budget never evicted: {totals:?}");
        assert!(totals.nodes_shared > initial_shares, "no pass shared a partition: {totals:?}");
    }
}

/// Mixed append/delete/update traffic under a starved partition memory
/// budget, at several thread counts: eviction forces the delete sweep's
/// full-validation fallback (touched contexts whose partitions are gone)
/// and recomputation during the traversal — but must never change a single
/// verdict. Cover identical to from-scratch on the survivors after every
/// mutation, and the snapshot's resident bytes honour the cap.
///
/// Eviction also makes one level mix products (for evicted nodes),
/// absorbs and reuses, the mix generation applies in join order. So every
/// pass's counters and the verdict cache after every round must be
/// identical at 1, 2 and 4 threads.
#[test]
fn budgeted_mutations_stay_equivalent() {
    let base = fastod_suite::datagen::flight_like(60, 8, 0xF00D);
    let footprint = IncrementalDiscovery::new(&base).snapshot().partition_bytes();
    let run = |threads: usize, budget: usize| {
        let cfg = DiscoveryConfig::default()
            .with_threads(threads)
            .with_partition_memory_budget(budget);
        let mut engine = IncrementalDiscovery::with_config(&base, cfg).unwrap();
        let mut history = base.clone();
        let mut live: Vec<usize> = (0..60).collect();
        let mut counters: Vec<BatchCounters> = Vec::new();
        let mut caches = Vec::new();
        for b in 0..4u64 {
            // Append a batch …
            let batch = fastod_suite::datagen::flight_like(10, 8, 0x2000 + b);
            live.extend(history.n_rows()..history.n_rows() + batch.n_rows());
            counters.push(engine.push_batch(&batch).unwrap().counters);
            history.extend(&batch).unwrap();
            // … delete a stride of live rows …
            let victims: Vec<usize> = live.iter().copied().skip(3).step_by(9).take(4).collect();
            counters.push(engine.delete_rows(&victims).unwrap().counters);
            live.retain(|row| !victims.contains(row));
            // … and update one surviving row.
            let victim = live[(7 * b as usize + 1) % live.len()];
            let replacement = fastod_suite::datagen::flight_like(1, 8, 0x3000 + b);
            counters.push(engine.update_rows(&[victim], &replacement).unwrap().counters);
            live.retain(|&row| row != victim);
            live.push(history.n_rows());
            history.extend(&replacement).unwrap();

            let survivors = history.select_rows(&live);
            assert_cover_matches(&engine, &survivors, b as usize + 1);
            assert!(
                engine.snapshot().partition_bytes() <= budget,
                "budget exceeded after round {b}: {} bytes (threads={threads})",
                engine.snapshot().partition_bytes()
            );
            caches.push(engine.cached_verdicts());
        }
        let totals = &engine.stats().totals;
        assert!(totals.nodes_evicted > 0, "budget never evicted: {totals:?}");
        let shares: usize = counters.iter().map(|c| c.nodes_shared).sum();
        assert!(shares > 0, "no pass shared a partition: {totals:?}");
        // Starvation forces the full-validation fallback (evicted contexts
        // re-validate instead of delta-counting) *and* the cheap
        // certificates (witness probes / delta counts) still fire where
        // partitions survived.
        assert!(totals.nodes_recomputed > 0, "{totals:?}");
        assert!(
            totals.witness_skips + totals.delta_revalidated + totals.recounted > 0,
            "no cheap certificate ever engaged: {totals:?}"
        );
        (counters, caches, totals.clone())
    };
    // Starved, 2 KiB: every node above level 1 is evicted after each pass.
    // At the initial footprint the lattice outgrows the budget as rows
    // arrive, so a level mixes products for evicted nodes, absorbs and
    // reuses; level 1 absorbs at most 8 attributes × 8 appending passes.
    for budget in [2_048, footprint] {
        let (counters, caches, totals) = run(1, budget);
        if budget == footprint {
            assert!(
                totals.nodes_recomputed > 0
                    && totals.partitions_appended > 8 * 8
                    && totals.nodes_reused > 0,
                "no product/absorb/reuse mix: {totals:?}"
            );
        }
        for threads in [2usize, 4] {
            let (c, v, _) = run(threads, budget);
            for (pass, (want, got)) in counters.iter().zip(&c).enumerate() {
                assert_eq!(
                    want, got,
                    "budget={budget}: pass {pass} counters differ at threads={threads}"
                );
            }
            assert!(caches == v, "budget={budget}: verdict caches differ at threads={threads}");
        }
    }
}

/// Batches of 20–100% of the base, so nearly every parent class gains a
/// row and retained partitions absorb appends by re-splitting most of
/// their parents' classes. Each round appends a batch, then updates a
/// stride of live rows in one combined pass. At 1, 2 and 4 threads the
/// cover must equal from-scratch discovery on the survivors after every
/// mutation, and the verdict caches must stay identical across thread
/// counts.
#[test]
fn large_batches_absorb_into_retained_partitions() {
    const BASE: usize = 50;
    const ATTRS: usize = 8;
    let sizes = [10usize, 25, 40, 50];
    let total = BASE + sizes.iter().map(|&s| s + s / 5).sum::<usize>();
    let full = fastod_suite::datagen::flight_like(total, ATTRS, 0xAB50);
    let mut engines: Vec<IncrementalDiscovery> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let cfg = DiscoveryConfig::default().with_threads(threads);
            IncrementalDiscovery::with_config(&full.head(BASE), cfg).unwrap()
        })
        .collect();
    // Engines and `full` number rows alike: every mutation appends the
    // next slice of `full`, so a live physical id is a row of `full`.
    let mut live: Vec<usize> = (0..BASE).collect();
    let mut cursor = BASE;
    let mut next_slice = |n: usize| {
        let ids = cursor..cursor + n;
        cursor += n;
        (full.select_rows(&ids.clone().collect::<Vec<_>>()), ids)
    };
    let check = |engines: &[IncrementalDiscovery], live: &[usize], step: usize| {
        assert_cover_matches(&engines[0], &full.select_rows(live), step);
        let (reference, rest) = engines.split_first().unwrap();
        for engine in rest {
            assert_eq!(reference.cover().sorted(), engine.cover().sorted());
            assert_eq!(
                reference.cached_verdicts(),
                engine.cached_verdicts(),
                "verdict cache diverged across thread counts at step {step}"
            );
        }
    };
    for (b, &size) in sizes.iter().enumerate() {
        let (batch, ids) = next_slice(size);
        for engine in &mut engines {
            engine.push_batch(&batch).unwrap();
        }
        live.extend(ids);
        check(&engines, &live, 2 * b + 1);
        // Replace every fifth live row with the next slice of `full`.
        let victims: Vec<usize> = live.iter().copied().step_by(5).take(size / 5).collect();
        let (replacement, ids) = next_slice(victims.len());
        for engine in &mut engines {
            engine.update_rows(&victims, &replacement).unwrap();
        }
        live.retain(|row| !victims.contains(row));
        live.extend(ids);
        check(&engines, &live, 2 * b + 2);
    }
    let totals = &engines[0].stats().totals;
    assert!(
        totals.partitions_appended > 2 * sizes.len() * ATTRS,
        "no deeper node absorbed an append: {totals:?}"
    );
}

/// The sharded delete-pass witness searches are a pure reordering of the
/// sequential path: replaying the same mixed-mutation log (the band of
/// `cover_tracks_mixed_mutations`, tilted towards delete waves so witnesses
/// keep dying) at 1, 2 and 4 executor threads must leave the **identical
/// verdict set and cache state** — `cached_verdicts()` compared entry for
/// entry after every mutation, and identical batch counters at the end.
#[test]
fn sharded_delete_waves_match_sequential_path() {
    let base = fastod_suite::datagen::flight_like(60, 8, 0xF00D);
    let mut engines: Vec<IncrementalDiscovery> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let cfg = DiscoveryConfig::default().with_threads(threads);
            IncrementalDiscovery::with_config(&base, cfg).unwrap()
        })
        .collect();
    let mut live: Vec<usize> = (0..60).collect();
    let mut appended = 60;
    for b in 0..6u64 {
        // Append a batch, then delete a wave four times its size — the
        // delete-heavy shape that forces escalated witness searches.
        let batch = fastod_suite::datagen::flight_like(8, 8, 0x4000 + b);
        for engine in &mut engines {
            engine.push_batch(&batch).unwrap();
        }
        live.extend(appended..appended + batch.n_rows());
        appended += batch.n_rows();
        let victims: Vec<usize> = live.iter().copied().skip(1).step_by(3).take(16).collect();
        for engine in &mut engines {
            engine.delete_rows(&victims).unwrap();
        }
        live.retain(|row| !victims.contains(row));

        let (reference, rest) = engines.split_first().unwrap();
        for engine in rest {
            assert_eq!(
                reference.cover().sorted(),
                engine.cover().sorted(),
                "cover diverged from the sequential path after round {b}"
            );
            assert_eq!(
                reference.cached_verdicts(),
                engine.cached_verdicts(),
                "verdict cache diverged from the sequential path after round {b}"
            );
        }
    }
    let (reference, rest) = engines.split_first().unwrap();
    for engine in rest {
        assert_eq!(
            reference.stats().totals,
            engine.stats().totals,
            "batch counters diverged across thread counts"
        );
    }
    // The rounds actually exercised the sharded path: cheap certificates
    // failed often enough that fresh witness searches were escalated.
    assert!(
        reference.stats().totals.escalated_searches > 0,
        "no delete-pass entry ever escalated to a witness search: {:?}",
        reference.stats().totals
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same contract over the randomized mixed-mutation band: any
    /// interleaving of appends, deletes and updates leaves byte-identical
    /// covers and verdict caches at 1 and 4 executor threads.
    #[test]
    fn sharded_mutations_match_sequential(
        n_attrs in 1usize..=5,
        base_rows in 2usize..=10,
        max_card in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let base = fastod_suite::datagen::random_relation(base_rows, n_attrs, max_card, seed);
        let mut sequential = IncrementalDiscovery::new(&base);
        let mut sharded = IncrementalDiscovery::with_config(
            &base,
            DiscoveryConfig::default().with_threads(4),
        ).unwrap();
        let mut live: Vec<usize> = (0..base_rows).collect();
        let mut appended = base_rows;
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for step in 0..8u64 {
            if next() % 2 == 0 && live.len() >= 2 {
                // Delete a wave of up to half the live rows.
                let stride = 1 + (next() as usize % 3);
                let victims: Vec<usize> =
                    live.iter().copied().step_by(stride + 1).take(live.len() / 2).collect();
                sequential.delete_rows(&victims).unwrap();
                sharded.delete_rows(&victims).unwrap();
                live.retain(|row| !victims.contains(row));
            } else {
                let batch = fastod_suite::datagen::random_relation(
                    1 + (step as usize % 3), n_attrs, max_card, seed ^ (0xE000 + step),
                );
                sequential.push_batch(&batch).unwrap();
                sharded.push_batch(&batch).unwrap();
                live.extend(appended..appended + batch.n_rows());
                appended += batch.n_rows();
            }
            prop_assert_eq!(sequential.cover().sorted(), sharded.cover().sorted());
            prop_assert_eq!(sequential.cached_verdicts(), sharded.cached_verdicts());
        }
        prop_assert_eq!(&sequential.stats().totals, &sharded.stats().totals);
    }
}

/// A row of a table whose derived columns make FDs: `a`, `d`, the copy
/// `b = a`, `c = a / 2`, `e = (3a + d) % 5`, then free low-cardinality
/// columns up to `width`.
fn derived_row(next: &mut impl FnMut() -> u64, width: usize) -> Vec<i64> {
    let a = (next() % 6) as i64;
    let d = (next() % 4) as i64;
    let mut row = vec![a, d, a, a / 2, (3 * a + d) % 5];
    while row.len() < width {
        row.push((next() % 3) as i64);
    }
    row
}

/// A random live row with one derived cell moved to a fresh value, which
/// breaks the FD that derives it, and the free columns drawn anew.
fn perturbed_copy(next: &mut impl FnMut() -> u64, rows: &[Vec<i64>], live: &[usize]) -> Vec<i64> {
    let mut row = rows[live[(next() % live.len() as u64) as usize]].clone();
    row[2 + (next() % 3) as usize] += 10;
    for cell in &mut row[5..] {
        *cell = (next() % 3) as i64;
    }
    row
}

fn relation_of(rows: &[Vec<i64>], width: usize) -> Relation {
    (0..width)
        .fold(RelationBuilder::new(), |builder, col| {
            builder.column_i64(&format!("c{col}"), rows.iter().map(|row| row[col]).collect())
        })
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Appends and updates that break FDs the engine shares partitions
    /// along, and deletes that restore them. Every append pass and every
    /// other update copies a live row with one derived cell perturbed,
    /// which breaks `a → b`, `a → c` or `ad → e`; every third pass deletes
    /// the perturbed rows. After every mutation, at 1, 2 and 4 threads, the
    /// cover equals from-scratch discovery on the survivors and the verdict
    /// caches are identical; the whole run repeats under a budget of half
    /// the initial footprint. Nodes must have shared partitions, a verdict
    /// must have flipped and one must have revived.
    #[test]
    fn fd_breaking_mutations_stay_equivalent(
        width in 6usize..=8,
        base_rows in 12usize..=24,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut rows: Vec<Vec<i64>> = (0..base_rows).map(|_| derived_row(&mut next, width)).collect();
        let base = relation_of(&rows, width);
        let footprint = IncrementalDiscovery::new(&base).snapshot().partition_bytes();
        let engines = |budget: Option<usize>| -> Vec<IncrementalDiscovery> {
            [1usize, 2, 4]
                .into_iter()
                .map(|threads| {
                    let mut cfg = DiscoveryConfig::default().with_threads(threads);
                    cfg.partition_memory_budget = budget;
                    IncrementalDiscovery::with_config(&base, cfg).unwrap()
                })
                .collect()
        };
        let mut runs = [engines(None), engines(Some(footprint / 2))];
        let mut perturbed = vec![false; base_rows];
        let mut live: Vec<usize> = (0..base_rows).collect();
        for step in 0..9usize {
            let before = rows.len();
            match step % 3 {
                0 => {
                    let mut batch = vec![perturbed_copy(&mut next, &rows, &live)];
                    for _ in 0..next() % 3 {
                        batch.push(derived_row(&mut next, width));
                    }
                    let batch_rel = relation_of(&batch, width);
                    for engine in runs.iter_mut().flatten() {
                        engine.push_batch(&batch_rel).unwrap();
                    }
                    perturbed.push(true);
                    perturbed.extend(std::iter::repeat_n(false, batch.len() - 1));
                    rows.extend(batch);
                    live.extend(before..rows.len());
                }
                1 => {
                    let victim = live[(next() % live.len() as u64) as usize];
                    let broken = step % 6 == 1;
                    let row = if broken {
                        perturbed_copy(&mut next, &rows, &live)
                    } else {
                        derived_row(&mut next, width)
                    };
                    let replacement = relation_of(std::slice::from_ref(&row), width);
                    for engine in runs.iter_mut().flatten() {
                        engine.update_rows(&[victim], &replacement).unwrap();
                    }
                    live.retain(|&r| r != victim);
                    live.push(before);
                    rows.push(row);
                    perturbed.push(broken);
                }
                _ => {
                    let victims: Vec<usize> = live.iter().copied().filter(|&r| perturbed[r]).collect();
                    for engine in runs.iter_mut().flatten() {
                        engine.delete_rows(&victims).unwrap();
                    }
                    live.retain(|r| !victims.contains(r));
                }
            }
            let survivors: Vec<Vec<i64>> = live.iter().map(|&r| rows[r].clone()).collect();
            for engines in &runs {
                assert_cover_matches(&engines[0], &relation_of(&survivors, width), step + 1);
                for engine in &engines[1..] {
                    prop_assert_eq!(engines[0].cover().sorted(), engine.cover().sorted());
                    prop_assert!(
                        engines[0].cached_verdicts() == engine.cached_verdicts(),
                        "verdict caches differ across thread counts after step {}", step
                    );
                }
            }
        }
        let totals = &runs[0][0].stats().totals;
        prop_assert!(totals.nodes_shared > 0, "no node shared: {:?}", totals);
        prop_assert!(totals.verdicts_flipped > 0, "no verdict flipped: {:?}", totals);
        prop_assert!(totals.verdicts_revived > 0, "no verdict revived: {:?}", totals);
        let budgeted = &runs[1][0].stats().totals;
        prop_assert!(budgeted.nodes_evicted > 0, "the budget never evicted: {:?}", budgeted);
    }
}

/// Batches that monotonically extend every column (the time-series shape:
/// fresh keys, fresh timestamps) must keep monotone ODs alive and the cover
/// equivalent throughout.
#[test]
fn monotone_append_only_stream() {
    fn chunk(from: i64, n: i64) -> Relation {
        RelationBuilder::new()
            .column_i64("seq", (from..from + n).collect())
            .column_i64("band", (from..from + n).map(|i| i / 4).collect())
            .column_i64("cat", (from..from + n).map(|i| i % 3).collect())
            .build()
            .unwrap()
    }
    let base = chunk(0, 20);
    let mut engine = IncrementalDiscovery::new(&base);
    let mut concat = base.clone();
    let target = CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1);
    assert!(engine.cover().contains(&target));
    for b in 0..10 {
        let batch = chunk(20 + b * 5, 5);
        let report = engine.push_batch(&batch).unwrap();
        concat.extend(&batch).unwrap();
        assert!(report.retired.is_empty(), "batch {b}: {:?}", report.retired);
        assert_cover_matches(&engine, &concat, b as usize + 1);
    }
    assert!(engine.cover().contains(&target));
    assert_eq!(engine.n_rows(), 70);
}
