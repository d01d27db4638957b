//! Micro-benchmarks for the partition substrate (§4.6): products, constancy
//! scans, τ-based swap checks, and the error-rate shortcut. These are the
//! per-node costs behind every figure.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fastod_datagen::flight_like;
use fastod_partition::{
    holds, tau_scan, OdCodes, ProductScratch, SortedColumn, StrippedPartition, SwapScratch,
};

fn bench_partitions(c: &mut Criterion) {
    let enc = flight_like(10_000, 10, 0xBE7C4).encode();
    let p_carrier = StrippedPartition::from_codes(enc.codes(5), enc.cardinality(5));
    let p_orig = StrippedPartition::from_codes(enc.codes(7), enc.cardinality(7));
    let tau_day = SortedColumn::build(enc.codes(2), enc.cardinality(2));

    let mut group = c.benchmark_group("partition");
    group.sample_size(30);

    group.bench_function("build_from_codes_10k", |b| {
        b.iter(|| StrippedPartition::from_codes(black_box(enc.codes(5)), enc.cardinality(5)))
    });

    group.bench_function("product_10k", |b| {
        let mut scratch = ProductScratch::new();
        b.iter(|| black_box(&p_carrier).product(black_box(&p_orig), &mut scratch))
    });

    group.bench_function("constancy_scan_10k", |b| {
        let mut scratch = SwapScratch::new();
        let orig = OdCodes::Constancy(enc.codes(7));
        b.iter(|| {
            holds(
                black_box(&p_carrier).classes(),
                black_box(orig),
                &mut scratch,
            )
        })
    });

    group.bench_function("error_rate_check", |b| {
        let node = p_carrier.product_simple(&p_orig);
        b.iter(|| black_box(&p_carrier).error() == black_box(&node).error())
    });

    group.bench_function("swap_scan_10k", |b| {
        let mut scratch = SwapScratch::new();
        b.iter(|| {
            tau_scan(
                black_box(&p_carrier),
                &tau_day,
                enc.codes(8),
                &mut scratch,
                Some(1),
            )
        })
    });

    group.bench_function("sorted_column_build_10k", |b| {
        b.iter(|| SortedColumn::build(black_box(enc.codes(2)), enc.cardinality(2)))
    });

    group.finish();
}

criterion_group!(benches, bench_partitions);
criterion_main!(benches);
