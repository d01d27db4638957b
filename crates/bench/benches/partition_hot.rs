//! Hot-path micro-benchmarks for the flat CSR partition layout: partition
//! products and refinements, the sort-then-sweep swap check, the chunked
//! constancy sweep, the CSR append paths (level 1 and lattice) and the
//! delete-side compaction. These are the operations the layout change was
//! made for — run them before and after touching `crates/partition` to
//! catch representation regressions without a full `exp1` sweep.
//!
//! The benches also pin the **scratch-reuse** contract of the product, the
//! refinement and the lattice absorb in steady state: after a warm-up
//! call, repeated calls through the same [`ProductScratch`] must not grow
//! its arena ([`ProductScratch::arena_bytes`] stays constant — the
//! assertion below fails the bench run if reuse breaks and buffers start
//! reallocating).
//!
//! The `swap_{sweep,tau}_{small,large}_classes` rows time both order
//! kernels on both sides of the validator's choice between them (sweep iff
//! a context's classes average at most 1024 rows), so the crossover that
//! choice encodes can be re-measured.
//!
//! The `*_noop_obs` rows pin the disabled-recorder contract of `fastod-obs`:
//! the same work plus a per-iteration counter add and span guard must cost
//! the same as the bare row — the no-op sink is how instrumented production
//! code stays free when nobody is tracing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fastod_datagen::{flight_like, ncvoter_like};
use fastod_obs::Obs;
use fastod_partition::{
    holds, tau_scan, OdCodes, ProductScratch, SortedColumn, StrippedPartition, SwapScratch,
};

fn bench_partition_hot(c: &mut Criterion) {
    let enc = flight_like(20_000, 10, 0xC5A0).encode();
    let p_carrier = StrippedPartition::from_codes(enc.codes(5), enc.cardinality(5));
    let p_orig = StrippedPartition::from_codes(enc.codes(7), enc.cardinality(7));

    let mut group = c.benchmark_group("partition_hot");
    group.sample_size(30);

    group.bench_function("csr_product_20k", |b| {
        let mut scratch = ProductScratch::new();
        // Warm the arena, then assert steady state: the scratch buffers must
        // not grow (or be reallocated) across repeated products.
        let _ = p_carrier.product(&p_orig, &mut scratch);
        let arena_after_warmup = scratch.arena_bytes();
        assert!(arena_after_warmup > 0);
        b.iter(|| {
            let p = black_box(&p_carrier).product(black_box(&p_orig), &mut scratch);
            assert_eq!(
                scratch.arena_bytes(),
                arena_after_warmup,
                "scratch arena grew in steady state"
            );
            p
        })
    });

    // The lattice's kernel for the same child: the split operand refined
    // by the probed operand's extra attribute, carrier.
    let carrier = (enc.codes(5), enc.cardinality(5));
    bench_refine(&mut group, "csr_refine_20k", &p_orig, carrier, &p_carrier);

    let day_tax = OdCodes::Order(enc.codes(2), enc.codes(8));
    group.bench_function("swap_sweep_20k", |b| {
        let mut scratch = SwapScratch::new();
        b.iter(|| holds(black_box(&p_carrier).classes(), day_tax, &mut scratch))
    });

    // A product whose split operand is mostly 2- and 3-row classes, as at
    // deep lattice levels: Π*_{carrier,flight_num} (about 5 rows a class)
    // probed, Π*_{day,flight_num} split, with the same steady-state check.
    let (day, flight_num) = (2, 6);
    let p_flight_num =
        StrippedPartition::from_codes(enc.codes(flight_num), enc.cardinality(flight_num));
    let p_day = StrippedPartition::from_codes(enc.codes(day), enc.cardinality(day));
    let p_carrier_flight = p_carrier.product_simple(&p_flight_num);
    let p_day_flight = p_day.product_simple(&p_flight_num);
    let small = p_day_flight
        .classes()
        .iter()
        .filter(|c| c.len() <= 3)
        .count();
    assert!(
        small * 10 >= p_day_flight.n_classes() * 9,
        "split operand has large classes"
    );
    group.bench_function("csr_product_small_classes", |b| {
        let mut scratch = ProductScratch::new();
        let _ = p_carrier_flight.product(&p_day_flight, &mut scratch);
        let arena_after_warmup = scratch.arena_bytes();
        assert!(arena_after_warmup > 0);
        b.iter(|| {
            let p = black_box(&p_carrier_flight).product(black_box(&p_day_flight), &mut scratch);
            assert_eq!(
                scratch.arena_bytes(),
                arena_after_warmup,
                "scratch arena grew in steady state"
            );
            p
        })
    });

    bench_refine(&mut group, "csr_refine_small_classes", &p_day_flight, carrier, &p_carrier_flight);

    // Both order kernels on `flight_num ~ year`, which holds (year is
    // constant), so each scans its whole context: Π*_{carrier,flight_num}
    // (about 5 rows a class) and Π*_{carrier} (about 2500). flight_num is
    // random within a class, so the sweep really sorts; an `A` that rises
    // with the row id, such as flight_sk, hands it presorted classes. The
    // τ-scan loads its class map on every check (no context token).
    let (year, a_codes) = (enc.codes(0), enc.codes(flight_num));
    let tau_flight = SortedColumn::build(a_codes, enc.cardinality(flight_num));
    let flight_year = OdCodes::Order(a_codes, year);
    for (name, ctx) in [("small", &p_carrier_flight), ("large", &p_carrier)] {
        assert!(holds(ctx.classes(), flight_year, &mut SwapScratch::new()));
        group.bench_function(format!("swap_sweep_{name}_classes"), |b| {
            let mut scratch = SwapScratch::new();
            b.iter(|| holds(black_box(ctx).classes(), flight_year, &mut scratch))
        });
        group.bench_function(format!("swap_tau_{name}_classes"), |b| {
            let mut scratch = SwapScratch::new();
            b.iter(|| tau_scan(black_box(ctx), &tau_flight, year, &mut scratch, None))
        });
    }

    // `carrier: [] ↦ year` holds (year is constant), so the split scan
    // reads every row of Π*_{carrier}'s 8 classes of about 2500.
    let constant_year = OdCodes::Constancy(year);
    assert!(holds(p_carrier.classes(), constant_year, &mut SwapScratch::new()));
    group.bench_function("constancy_sweep_20k", |b| {
        let mut scratch = SwapScratch::new();
        b.iter(|| {
            holds(
                black_box(&p_carrier).classes(),
                black_box(constant_year),
                &mut scratch,
            )
        })
    });

    // Observability overhead guards: the same two hottest operations with a
    // *disabled* fastod-obs recorder issuing a counter add and a span per
    // iteration — the way the discovery loop is instrumented. These rows
    // must track their uninstrumented twins above; a visible gap means the
    // no-op path stopped being a single branch and discovery pays for
    // telemetry nobody asked for.
    let obs = Obs::disabled();
    assert!(!obs.is_enabled());
    group.bench_function("csr_product_20k_noop_obs", |b| {
        let mut scratch = ProductScratch::new();
        let _ = p_carrier.product(&p_orig, &mut scratch);
        let counter = obs.counter("partition.products");
        b.iter(|| {
            let _span = obs.span("product");
            counter.incr();
            black_box(&p_carrier).product(black_box(&p_orig), &mut scratch)
        })
    });
    group.bench_function("swap_sweep_20k_noop_obs", |b| {
        let mut scratch = SwapScratch::new();
        let counter = obs.counter("validate.swap_sweeps");
        b.iter(|| {
            let _span = obs.span("swap_sweep");
            counter.incr();
            holds(black_box(&p_carrier).classes(), day_tax, &mut scratch)
        })
    });

    // CSR append: absorb a 5% tail batch into the 95% prefix partition.
    let grown = ncvoter_like(21_000, 6, 0x9C1E).encode();
    let codes = grown.codes(3);
    let card = grown.cardinality(3);
    let old_n = 20_000;
    group.bench_function("csr_append_5pct_tail", |b| {
        let head: Vec<u32> = codes[..old_n].to_vec();
        b.iter(|| {
            let mut p = StrippedPartition::from_codes(black_box(&head), card);
            p.extend_rows(old_n); // no-op, keeps the shape explicit
            black_box(p.append_codes(codes, card))
        })
    });
    // The append alone, isolated from the rebuild cost above: amortized via
    // one prefix partition cloned per iteration (clone is two memcpys in CSR).
    let prefix = StrippedPartition::from_codes(&codes[..old_n], card);
    group.bench_function("csr_append_only", |b| {
        b.iter(|| {
            let mut p = prefix.clone();
            black_box(p.append_codes(codes, card))
        })
    });

    // Lattice append: a retained level-2 partition Π*_{carrier,flight_num}
    // over 20k rows absorbs a 1% tail by re-splitting the classes of the
    // grown parent Π*_{flight_num} (500 classes) that gained a row, next to
    // the product of the same grown parents it replaces. The absorb row
    // clones the retained partition per iteration (two memcpys in CSR).
    let grown = flight_like(20_200, 10, 0xC5A0).encode();
    let old_n = 20_000;
    let (carrier, flight) = (grown.codes(5), grown.codes(6));
    let (card_carrier, card_flight) = (grown.cardinality(5), grown.cardinality(6));
    let head_flight = StrippedPartition::from_codes(&flight[..old_n], card_flight);
    let retained =
        StrippedPartition::from_codes(&carrier[..old_n], card_carrier).product_simple(&head_flight);
    let p_carrier = StrippedPartition::from_codes(carrier, card_carrier);
    let p_flight = StrippedPartition::from_codes(flight, card_flight);
    group.bench_function("csr_absorb_1pct_tail", |b| {
        let mut scratch = ProductScratch::new();
        let mut warm = retained.clone();
        let _ = warm.absorb_append(&p_flight, carrier, card_carrier, &mut scratch);
        let arena_after_warmup = scratch.arena_bytes();
        assert!(arena_after_warmup > 0);
        b.iter(|| {
            let mut p = retained.clone();
            let dirty = p.absorb_append(black_box(&p_flight), carrier, card_carrier, &mut scratch);
            assert_eq!(
                scratch.arena_bytes(),
                arena_after_warmup,
                "scratch arena grew in steady state"
            );
            (p, dirty)
        })
    });
    group.bench_function("csr_product_1pct_tail", |b| {
        let mut scratch = ProductScratch::new();
        b.iter(|| black_box(&p_carrier).product(black_box(&p_flight), &mut scratch))
    });
    // Delete side: the same retained partition loses 50 rows spread over
    // the relation, one node's share of a delete pass. The row clones the
    // partition per iteration, as the absorb row does.
    let mut deleted = vec![false; old_n];
    for row in (0..old_n).step_by(old_n / 50) {
        deleted[row] = true;
    }
    group.bench_function("csr_remove_50_rows", |b| {
        b.iter(|| {
            let mut p = retained.clone();
            let touched = p.remove_rows_masked(black_box(&deleted));
            (p, touched)
        })
    });

    group.finish();
}

/// A `name` row timing `split.refine(codes, cardinality)`, which must
/// equal the product that probes `probed` and splits `split` byte for byte,
/// with the steady-state arena check of the product rows.
fn bench_refine(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    split: &StrippedPartition,
    (codes, cardinality): (&[u32], u32),
    probed: &StrippedPartition,
) {
    let mut scratch = ProductScratch::new();
    let refined = split.refine(codes, cardinality, &mut scratch);
    assert_eq!(refined.raw_csr(), probed.product_simple(split).raw_csr());
    let arena_after_warmup = scratch.arena_bytes();
    assert!(arena_after_warmup > 0);
    group.bench_function(name, |b| {
        b.iter(|| {
            let p = black_box(split).refine(codes, cardinality, &mut scratch);
            assert_eq!(
                scratch.arena_bytes(),
                arena_after_warmup,
                "scratch arena grew in steady state"
            );
            p
        })
    });
}

criterion_group!(benches, bench_partition_hot);
criterion_main!(benches);
