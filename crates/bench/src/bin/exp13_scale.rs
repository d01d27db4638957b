//! **Exp-13: the 100M-row scale path — streaming ingest and the parallel
//! level-1 build.**
//!
//! Generates a synthetic warehouse-shaped CSV (a sequence key, two
//! categoricals of 200 and 50k values, a monotone plateau, a
//! low-cardinality float and a low-cardinality string), then measures:
//!
//! * streaming two-pass ingest (`read_csv_file_stream`) throughput and the
//!   ingest's peak resident bytes (`relation.peak_bytes` gauge);
//! * level-1 partition build: the plain loop `build_level1` vs
//!   `build_level1_parallel`, which maps the attributes over the executor,
//!   at each `FASTOD_THREADS` count, with the CSR buffers asserted
//!   **byte-identical** at every thread count.
//!
//! At smoke/default scale the one-shot reader also runs and the streamed
//! codes, cardinalities, and (level-capped) discovery cover are asserted
//! identical — this is the `scale-smoke` CI job's body. At paper scale
//! (10M rows; `FASTOD_SCALE_ROWS` overrides, e.g. 100M) the one-shot
//! comparison is skipped: materializing the whole file's values is exactly
//! the wall this path removes.
//!
//! Gate rows for the weekly perf job (`results/exp13_scale.json`):
//! `scale_stream_ingest_ms`, `scale_level1_seq_ms`, `scale_level1_t4_ms`.

use fastod::snapshot::{build_level1, build_level1_parallel};
use fastod::{CancelToken, DiscoveryConfig, Executor, Fastod};
use fastod_bench::{obs_from_env, table::Table, thread_sweep_from_env, write_csv, Scale};
use fastod_relation::csv::{read_csv_file_opts, CsvOptions};
use fastod_relation::{read_csv_file_stream, EncodedRelation};
use std::io::{BufWriter, Write as _};
use std::time::Instant;

const N_ATTRS: usize = 6;
/// Smoke-scale ceiling for the ingest's peak resident bytes (1M rows): the
/// distinct sets + dictionaries + code columns of the synthetic table fit
/// well under this, and a regression that starts materializing O(rows)
/// values blows straight through it.
const SMOKE_PEAK_CEILING: usize = 256 << 20;

/// Writes the synthetic table as CSV. Deterministic in `rows`.
fn write_synth_csv(path: &std::path::Path, rows: usize) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "seq,cat8,cat16,plateau,fval,tag")?;
    for i in 0..rows as u64 {
        writeln!(
            w,
            "{},{},{},{},{:.1},tag{:02}",
            i,
            i.wrapping_mul(2_654_435_761) % 200,
            i.wrapping_mul(40_503) % 50_000,
            i / 1000,
            (i % 37) as f64 * 0.3,
            i % 23,
        )?;
    }
    w.flush()
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Asserts streamed and one-shot encodings agree.
fn assert_same_encoding(streamed: &EncodedRelation, oneshot: &EncodedRelation) {
    assert_eq!(streamed.n_rows(), oneshot.n_rows());
    assert_eq!(streamed.n_attrs(), oneshot.n_attrs());
    for a in 0..oneshot.n_attrs() {
        assert_eq!(streamed.cardinality(a), oneshot.cardinality(a), "attr {a}");
        assert!(streamed.codes(a) == oneshot.codes(a), "attr {a} codes differ");
    }
}

fn main() {
    let scale = Scale::from_env();
    let rows: usize = std::env::var("FASTOD_SCALE_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| scale.pick(1_000_000, 2_000_000, 10_000_000));
    let threads_sweep = thread_sweep_from_env();
    let obs = obs_from_env();
    println!("== Exp-13: scale path — {rows} rows x {N_ATTRS} attributes, threads {threads_sweep:?} ==\n");

    let path = std::env::temp_dir().join(format!("fastod_exp13_{rows}.csv"));
    let t = Instant::now();
    write_synth_csv(&path, rows).expect("writing the synthetic CSV");
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("generated {} ({:.1} MB) in {:.0} ms", path.display(), file_bytes as f64 / 1e6, ms(t));

    // --- Streaming two-pass ingest. ---
    let t = Instant::now();
    // The third argument, a chunk size, is unused.
    let streamed =
        read_csv_file_stream(&path, CsvOptions::with_header(), 0).expect("streamed ingest");
    let stream_ms = ms(t);
    let enc = streamed.encoded;
    obs.set_gauge("relation.peak_bytes", streamed.peak_bytes as f64);
    println!(
        "streamed ingest: {:.0} ms ({:.2} M rows/s); codes {:.1} MB, ingest peak {:.1} MB",
        stream_ms,
        rows as f64 / stream_ms / 1e3,
        enc.memory_bytes() as f64 / 1e6,
        streamed.peak_bytes as f64 / 1e6,
    );

    // --- One-shot comparison (skipped at paper scale: materializing every
    // value of a 10M+-row file is the wall this path removes). ---
    let mut oneshot_ms = None;
    if scale != Scale::Paper {
        let t = Instant::now();
        let rel = read_csv_file_opts(&path, CsvOptions::with_header()).expect("one-shot read");
        let one = rel.encode();
        oneshot_ms = Some(ms(t));
        println!("one-shot ingest: {:.0} ms", oneshot_ms.unwrap());
        assert_same_encoding(&enc, &one);
        let cover = |e: &EncodedRelation| {
            let cfg = DiscoveryConfig::default().with_threads(4).with_max_level(2);
            Fastod::new(cfg).try_discover(e).expect("discovery").ods.sorted()
        };
        assert_eq!(cover(&enc), cover(&one), "streamed vs one-shot covers diverged");
        println!("streamed codes, cardinalities and level-2 cover identical to one-shot ✓");
    }
    if scale == Scale::Smoke {
        assert!(
            streamed.peak_bytes < SMOKE_PEAK_CEILING,
            "ingest peak {} exceeds the {} ceiling",
            streamed.peak_bytes,
            SMOKE_PEAK_CEILING,
        );
    }

    // --- Level-1 build: parallel at each thread count, then sequential. ---
    let mut table = Table::new(&["build", "threads", "time", "vs sequential"]);
    let cancel = CancelToken::never();
    let mut parallel_ms: Vec<(usize, f64)> = Vec::new();
    let mut parallel_csr: Option<Vec<(Vec<u32>, Vec<u32>)>> = None;
    for &threads in &threads_sweep {
        let exec = Executor::new(threads);
        let t = Instant::now();
        let level = build_level1_parallel(&enc, &exec, &cancel).expect("parallel level-1");
        parallel_ms.push((threads, ms(t)));
        let mut keys: Vec<u64> = level.keys().copied().collect();
        keys.sort_unstable();
        let csr: Vec<(Vec<u32>, Vec<u32>)> = keys
            .iter()
            .map(|k| {
                let (r, o) = level[k].partition.raw_csr();
                (r.to_vec(), o.to_vec())
            })
            .collect();
        match &parallel_csr {
            Some(reference) => assert_eq!(reference, &csr, "level-1 CSR diverged at t={threads}"),
            None => parallel_csr = Some(csr),
        }
    }
    let t = Instant::now();
    let seq_level = build_level1(&enc);
    let seq_ms = ms(t);
    let reference = parallel_csr.expect("at least one parallel run");
    let mut keys: Vec<u64> = seq_level.keys().copied().collect();
    keys.sort_unstable();
    for (k, expect) in keys.iter().zip(&reference) {
        let (r, o) = seq_level[k].partition.raw_csr();
        let expect = (expect.0.as_slice(), expect.1.as_slice());
        assert_eq!((r, o), expect, "parallel CSR != sequential");
    }
    table.row(vec!["sequential".into(), "1".into(), format!("{seq_ms:.0} ms"), "1.00x".into()]);
    let mut csv_rows = vec![vec![
        rows.to_string(),
        "sequential".into(),
        "1".into(),
        format!("{seq_ms:.3}"),
    ]];
    let mut t4_ms = None;
    for (threads, par_ms) in &parallel_ms {
        table.row(vec![
            "parallel".into(),
            threads.to_string(),
            format!("{par_ms:.0} ms"),
            format!("{:.2}x", seq_ms / par_ms),
        ]);
        csv_rows.push(vec![
            rows.to_string(),
            "parallel".into(),
            threads.to_string(),
            format!("{par_ms:.3}"),
        ]);
        if *threads == *threads_sweep.last().unwrap() {
            t4_ms = Some(*par_ms);
        }
    }
    table.print();
    println!(
        "\nlevel-1 CSR byte-identical across sequential and t={threads_sweep:?} parallel builds ✓"
    );

    let mut gauges = vec![
        ("scale_stream_ingest_ms".to_string(), stream_ms),
        ("scale_level1_seq_ms".to_string(), seq_ms),
        ("scale_level1_t4_ms".to_string(), t4_ms.unwrap_or(seq_ms)),
    ];
    if let Some(one_ms) = oneshot_ms {
        gauges.push(("scale_oneshot_ingest_ms".to_string(), one_ms));
    }
    write_csv("exp13_scale", &["rows", "build", "threads", "ms"], &csv_rows);
    obs.flush();
    fastod_bench::write_results_file(
        "exp13_scale.json",
        &fastod_bench::metrics_json(&gauges, &obs),
    );
    let _ = std::fs::remove_file(&path);
    println!(
        "(CSV written to results/exp13_scale.csv; metrics snapshot JSON to results/exp13_scale.json)"
    );
}
