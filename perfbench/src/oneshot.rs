//! The one-shot workloads: a generated CSV file through the CLI's call
//! sequence (`read_csv_file_opts` → `Relation::encode` → discovery, and for
//! `near_valid` → `CheckReport::run`).

use crate::measure::{
    median, mib, peak_rss_mib, percentile, release_free_memory, reset_peak_rss, rss_mib, secs,
};
use crate::replay::{level_counts, replay, Replay, APPROX, CORE};
use crate::trace::{finish_trace, OpTrace, Recorder};
use crate::{cover_fingerprint, display_hash, pinned, Ctx, Report};
use fastod_suite::datagen::{flight_like, inject_noise};
use fastod_suite::discovery::{
    ApproxConfig, ApproxFastod, ApproxValidator, DiscoveryConfig, ExactValidator, Fastod,
    LevelStats,
};
use fastod_suite::relation::csv::{read_csv_file_opts, write_csv_file};
use fastod_suite::relation::stream::DEFAULT_CHUNK_ROWS;
use fastod_suite::relation::{read_csv_file_stream, AttrId, CsvOptions, Relation};
use fastod_suite::theory::{canonical_od_holds, CanonicalOd, CheckReport};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A one-shot workload's input shape.
pub struct Spec {
    pub name: &'static str,
    rows: usize,
    attrs: usize,
    /// Perturb cells and run approximate discovery plus a check report.
    near_valid: bool,
}

/// Wide enough for an 8-level lattice; validation and products dominate.
pub const LATTICE: Spec = Spec {
    name: "lattice",
    rows: 15_000,
    attrs: 14,
    near_valid: false,
};

/// Tall and narrow: parsing dominates, the lattice is shallow.
pub const INGEST: Spec = Spec {
    name: "ingest",
    rows: 300_000,
    attrs: 6,
    near_valid: false,
};

/// Noisy data for approximate discovery and the check report.
pub const NEAR_VALID: Spec = Spec {
    name: "near_valid",
    rows: 10_000,
    attrs: 10,
    near_valid: true,
};

/// Share of cells perturbed in each noisy attribute.
const NOISE: f64 = 0.005;

/// Row-removal budget of approximate discovery (`--max-error`).
const EPSILON: f64 = 0.01;

/// Witness pairs per violated rule (the CLI's default).
const WITNESSES: usize = 5;

/// Measurement cycles (one operation per thread count plus one set-up),
/// even past `--seconds`.
const MIN_CYCLES: usize = 3;

/// What one operation produced, reduced to what the checks compare.
#[derive(PartialEq)]
struct Output {
    /// The sorted cover (discovery) or the checked rules (near_valid).
    ods: Vec<CanonicalOd>,
    /// Per checked rule: (holds, violating pairs, removal-set size).
    rules: Vec<(bool, u64, usize)>,
}

impl Output {
    /// [`cover_fingerprint`] for discovery; `rules failing violations hash`
    /// for near_valid, the hash covering the checked rules.
    fn fingerprint(&self, names: &[String]) -> String {
        if self.rules.is_empty() {
            return cover_fingerprint(&self.ods, names);
        }
        let failing = self.rules.iter().filter(|r| !r.0).count();
        let violations: u64 = self.rules.iter().map(|r| r.1).sum();
        format!(
            "{} {failing} {violations} {:016x}",
            self.rules.len(),
            display_hash(&self.ods, names)
        )
    }
}

fn generate(spec: &Spec, seed: u64) -> Relation {
    let rel = flight_like(spec.rows, spec.attrs, seed);
    if !spec.near_valid {
        return rel;
    }
    // Every third attribute from `day`: a monotone coarsening of the key, a
    // random categorical and an FD target.
    let noisy: Vec<AttrId> = (2..spec.attrs).step_by(3).collect();
    inject_noise(&rel, &noisy, NOISE, seed ^ 0x6e_6f69_7365).0
}

/// Generates the input and writes it to `path`; returns the attribute names.
fn write_input(spec: &Spec, seed: u64, path: &Path) -> Result<Vec<String>, String> {
    let rel = generate(spec, seed);
    write_csv_file(&rel, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(rel.schema().names().to_vec())
}

fn read(path: &Path) -> Result<Relation, String> {
    read_csv_file_opts(path, CsvOptions::with_header())
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Approximate discovery's row-removal budget over `n_rows` rows.
fn max_remove(n_rows: usize) -> usize {
    (EPSILON * n_rows as f64).floor() as usize
}

/// Approximate discovery's rules as `fastod check --discover-near-valid`
/// takes them: sorted, trivial ones dropped.
fn near_valid_rules(ods: Vec<CanonicalOd>) -> Vec<CanonicalOd> {
    ods.into_iter().filter(|od| !od.is_trivial()).collect()
}

fn report_output(rules: Vec<CanonicalOd>, report: &CheckReport) -> Output {
    let rules_out = report
        .rules
        .iter()
        .map(|r| (r.holds, r.violations, r.removal_rows.len()))
        .collect();
    Output {
        ods: rules,
        rules: rules_out,
    }
}

/// One untraced operation at `threads`, as the CLI runs it. The parsed
/// relation stays alive through discovery, as in `src/bin/fastod.rs`.
fn run_op(spec: &Spec, path: &Path, threads: usize) -> Result<(Output, Vec<LevelStats>), String> {
    let rel = read(path)?;
    let enc = rel.encode();
    if spec.near_valid {
        let cfg = ApproxConfig::new(EPSILON).with_threads(threads);
        let result = ApproxFastod::new(cfg)
            .try_discover(&enc)
            .map_err(|e| e.to_string())?;
        let rules = near_valid_rules(result.ods.sorted());
        let report = CheckReport::run(&enc, &rules, WITNESSES);
        Ok((report_output(rules, &report), result.stats.levels))
    } else {
        let cfg = DiscoveryConfig::default().with_threads(threads);
        let result = Fastod::new(cfg)
            .try_discover(&enc)
            .map_err(|e| e.to_string())?;
        let ods = result.ods.sorted();
        Ok((
            Output {
                ods,
                rules: Vec::new(),
            },
            result.stats.levels,
        ))
    }
}

/// Checks the first output of a run: against the pinned fingerprint when
/// the seed has one, otherwise against independent checks. Every later
/// output must equal the first.
fn check_first(
    spec: &Spec,
    pin: Option<&str>,
    path: &Path,
    out: &Output,
    names: &[String],
) -> Vec<String> {
    let mut problems = Vec::new();
    let got = out.fingerprint(names);
    if let Some(want) = pin {
        if got != want {
            problems.push(format!("fingerprint {got:?}, pinned {want:?}"));
        }
    }
    // Independent of the pins: every near-valid rule must be repairable
    // within the ε budget (the repair's minimum removal set against the
    // approximate validator's error), and a rule holds iff it has no
    // violating pairs.
    if spec.near_valid {
        let budget = max_remove(spec.rows);
        for (od, &(holds, violations, removal)) in out.ods.iter().zip(&out.rules) {
            if removal > budget || holds != (violations == 0) || holds != (removal == 0) {
                problems.push(format!(
                    "rule {}: holds={holds}, {violations} violations, {removal} removals \
                     (budget {budget})",
                    od.display(names)
                ));
            }
        }
    } else if pin.is_none() {
        match read(path) {
            Ok(rel) => {
                let enc = rel.encode();
                for od in out.ods.iter().filter(|od| !canonical_od_holds(&enc, od)) {
                    problems.push(format!("discovered OD {} does not hold", od.display(names)));
                }
            }
            Err(e) => problems.push(e),
        }
    }
    problems
}

fn input_path(spec: &Spec, ctx: &Ctx, suffix: &str) -> PathBuf {
    ctx.out_dir.join(format!(
        "{}-{}-{}{suffix}.csv",
        spec.name,
        ctx.seed,
        std::process::id()
    ))
}

/// Runs a one-shot workload for `ctx.seconds`.
pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Report, String> {
    let path = input_path(spec, ctx, "");
    let start = Instant::now();
    let result = write_input(spec, ctx.seed, &path).and_then(|names| {
        let first_setup = secs(start.elapsed());
        let mut report = Report::default();
        if pinned(spec.name, ctx.seed).is_none() {
            report
                .notes
                .push(format!("seed {} has no pinned fingerprint", ctx.seed));
        }
        // Set-up's own peak (datagen, CSV write) is not the workload's.
        reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
        if ctx.trace {
            traced(spec, ctx, &path, &names, &mut report)?;
        } else {
            untraced(spec, ctx, &path, &names, first_setup, &mut report)?;
            report.set("peak_rss_mb", peak_rss_mib());
        }
        Ok(report)
    });
    let _ = std::fs::remove_file(&path);
    result
}

/// Cycles of one operation at t=1, one at t=N and one set-up until
/// `ctx.seconds` have passed. Set-up repeats through the run, so that its
/// median samples the host over the same window as the operations.
fn untraced(
    spec: &Spec,
    ctx: &Ctx,
    path: &Path,
    names: &[String],
    first_setup: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut setups = vec![first_setup];
    let setup_path = input_path(spec, ctx, "-setup");
    let mut first: Option<Output> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    for cycle in 0.. {
        if Instant::now() >= deadline && cycle >= MIN_CYCLES {
            break;
        }
        for (slot, threads) in [1, ctx.threads_n].into_iter().enumerate() {
            report.attempted += 1;
            let start = Instant::now();
            let out = black_box(run_op(spec, path, threads));
            let wall = secs(start.elapsed());
            match out {
                Err(e) => report.fail(format!("threads={threads}: {e}")),
                Ok((out, _)) => {
                    walls[slot].push(wall);
                    match &first {
                        None => {
                            let problems =
                                check_first(spec, pinned(spec.name, ctx.seed), path, &out, names);
                            if !problems.is_empty() {
                                report.fail(format!("threads={threads}: {}", problems.join("; ")));
                            }
                            first = Some(out);
                        }
                        Some(f) if *f != out => report.fail(format!(
                            "threads={threads}: output differs from the first run"
                        )),
                        Some(_) => {}
                    }
                }
            }
        }
        let start = Instant::now();
        let written = write_input(spec, ctx.seed, &setup_path);
        setups.push(secs(start.elapsed()));
        written?;
    }
    let _ = std::fs::remove_file(&setup_path);
    report.set("setup_s", median(&setups));
    report.set("wall_t1_s", median(&walls[0]));
    report.set("wall_tn_s", median(&walls[1]));
    report.set("pass_p50_ms", median(&walls[0]) * 1e3);
    report.set("pass_p90_ms", percentile(&walls[0], 90.0) * 1e3);
    Ok(())
}

/// What a traced operation measured besides its spans.
struct TracedOp {
    trace: OpTrace,
    replay: Replay,
    out: Output,
    parsed_rss: f64,
    /// Peak RSS of the operation alone.
    peak_rss: f64,
    encoded_bytes: usize,
}

/// One operation replayed with a span around every layer call.
fn traced_op(spec: &Spec, path: &Path, threads: usize) -> Result<TracedOp, String> {
    let rec = Recorder::on();
    let op = rec.span("op");
    let rss_before = {
        let _span = rec.span("bench.rss");
        release_free_memory();
        reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
        rss_mib()
    };
    let rel = {
        let _span = rec.span("relation.parse");
        read(path)?
    };
    let parsed_rss = rss_mib() - rss_before;
    let enc = {
        let _span = rec.span("relation.encode");
        rel.encode()
    };
    let (replay, out) = if spec.near_valid {
        let validator = ApproxValidator::new(&enc, max_remove(enc.n_rows()));
        let replay =
            replay(&enc, validator, false, threads, &APPROX, &rec).map_err(|e| e.to_string())?;
        let rules = near_valid_rules(replay.ods.sorted());
        let report = {
            let _span = rec.span("theory.check");
            CheckReport::run(&enc, &rules, WITNESSES)
        };
        let out = report_output(rules, &report);
        (replay, out)
    } else {
        let validator = ExactValidator::new(&enc, DiscoveryConfig::default().fd_check);
        let replay =
            replay(&enc, validator, true, threads, &CORE, &rec).map_err(|e| e.to_string())?;
        let out = Output {
            ods: replay.ods.sorted(),
            rules: Vec::new(),
        };
        (replay, out)
    };
    drop(op);
    let peak_rss = peak_rss_mib();
    let encoded_bytes = enc.memory_bytes();
    Ok(TracedOp {
        trace: OpTrace::new(threads, rec.take()),
        replay,
        out,
        parsed_rss,
        peak_rss,
        encoded_bytes,
    })
}

/// The per-layer run: untraced reference operations, the streaming
/// reader, then traced replays alternating t=1 and t=N.
fn traced(
    spec: &Spec,
    ctx: &Ctx,
    path: &Path,
    names: &[String],
    report: &mut Report,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // Reference: the library's own lattice loop at t=1, checked like any run.
    report.attempted += 1;
    let start = Instant::now();
    let (reference, ref_levels) = run_op(spec, path, 1)?;
    let first_wall = secs(start.elapsed());
    let problems = check_first(spec, pinned(spec.name, ctx.seed), path, &reference, names);
    if !problems.is_empty() {
        report.fail(format!("reference run: {}", problems.join("; ")));
    }

    // The streaming reader on the same file; its codes must equal the
    // one-shot reader's.
    report.attempted += 1;
    let start = Instant::now();
    let streamed = read_csv_file_stream(path, CsvOptions::with_header(), DEFAULT_CHUNK_ROWS)
        .map_err(|e| format!("streaming {}: {e}", path.display()))?;
    let stream_s = secs(start.elapsed());
    let oneshot = read(path)?.encode();
    if (0..oneshot.n_attrs()).any(|a| streamed.encoded.codes(a) != oneshot.codes(a)) {
        report.fail("streamed codes differ from the one-shot reader's".into());
    }
    report.set("relation.stream_s", stream_s);
    report.set("relation.stream_peak_mb", mib(streamed.peak_bytes));
    drop((streamed, oneshot));

    // Cycles of one untraced t=1 operation (for the tracing overhead) and
    // one traced replay at each thread count.
    let mut untraced_t1 = vec![first_wall];
    let mut ops: Vec<TracedOp> = Vec::new();
    while ops.is_empty() || Instant::now() < deadline {
        if !ops.is_empty() {
            report.attempted += 1;
            let start = Instant::now();
            let (out, _) = black_box(run_op(spec, path, 1)?);
            untraced_t1.push(secs(start.elapsed()));
            if out != reference {
                report.fail("threads=1: output differs from the first run".into());
            }
        }
        for threads in [1, ctx.threads_n] {
            report.attempted += 1;
            let op = traced_op(spec, path, threads)?;
            // Replay equivalence: same output and per-level counts as the
            // library's lattice loop, or the per-layer numbers describe another
            // program.
            if op.out != reference {
                report.fail(format!(
                    "threads={threads}: replayed output differs from the library's"
                ));
            }
            if level_counts(&op.replay.levels) != level_counts(&ref_levels) {
                report.fail(format!(
                    "threads={threads}: replayed level counts differ from the library's"
                ));
            }
            op.trace
                .write_jsonl(spec.name, ops.len(), &mut report.spans);
            ops.push(op);
        }
    }

    let (t1, tn): (Vec<&TracedOp>, Vec<&TracedOp>) =
        ops.iter().partition(|op| op.trace.threads == 1);
    let med = |ops: &[&TracedOp], f: &dyn Fn(&TracedOp) -> f64| {
        median(&ops.iter().map(|op| f(op)).collect::<Vec<_>>())
    };
    let total = |name: &'static str| move |op: &TracedOp| op.trace.total(name);
    let size_mib = std::fs::metadata(path)
        .map(|m| m.len() as f64 / (1024.0 * 1024.0))
        .unwrap_or(0.0);
    let parse_s = med(&t1, &total("relation.parse"));
    report.set("relation.parse_s", parse_s);
    report.set("relation.encode_s", med(&t1, &total("relation.encode")));
    report.set("relation.parse_mb_per_s", size_mib / parse_s);
    report.set("relation.parsed_rss_mb", med(&t1, &|op| op.parsed_rss));
    report.set("trace.peak_rss_t1_mb", med(&t1, &|op| op.peak_rss));
    report.set("trace.peak_rss_tn_mb", med(&tn, &|op| op.peak_rss));
    report.set("relation.encoded_mb", mib(ops[0].encoded_bytes));

    let phases = if spec.near_valid { &APPROX } else { &CORE };
    let generate_s = med(&t1, &total(phases.generate));
    if spec.near_valid {
        report.set("approx.validate_s", med(&t1, &total(APPROX.validate)));
        report.set("approx.generate_s", generate_s);
        report.set("theory.check_s", med(&t1, &total("theory.check")));
        report.set("theory.rules", reference.rules.len() as f64);
        report.set(
            "theory.violations",
            reference.rules.iter().map(|r| r.1 as f64).sum(),
        );
        report.set(
            "theory.removal_rows",
            reference.rules.iter().map(|r| r.2 as f64).sum(),
        );
    } else {
        for (metric, name) in [
            ("core.level1_s", CORE.level1),
            ("core.candidates_s", CORE.candidates),
            ("core.validate_s", CORE.validate),
            ("core.validate.constancy_s", CORE.constancy),
            ("core.validate.order_compat_s", CORE.order_compat),
            ("core.generate_s", CORE.generate),
        ] {
            report.set(metric, med(&t1, &total(name)));
        }
        for (metric, name) in [
            ("core.level1_speedup", CORE.level1),
            ("core.validate_speedup", CORE.validate),
            ("core.generate_speedup", CORE.generate),
        ] {
            report.set(metric, med(&t1, &total(name)) / med(&tn, &total(name)));
        }
        let sum = |f: fn(&LevelStats) -> usize| ref_levels.iter().map(f).sum::<usize>() as f64;
        let checks = sum(|s| s.fd_checks) + sum(|s| s.swap_checks);
        report.set("core.levels", ref_levels.len() as f64);
        report.set("core.nodes", sum(|s| s.nodes));
        report.set("core.pruned_nodes", sum(|s| s.pruned_nodes));
        report.set("core.fd_checks", sum(|s| s.fd_checks));
        report.set("core.fd_checks_key_pruned", sum(|s| s.fd_checks_key_pruned));
        report.set("core.swap_checks", sum(|s| s.swap_checks));
        report.set("core.ods", reference.ods.len() as f64);
        report.set(
            "core.ods_per_check",
            reference.ods.len() as f64 / checks.max(1.0),
        );
    }
    let counts = &ops[0].replay;
    report.set("partition.products", counts.products as f64);
    report.set("partition.product_rows_in", counts.rows_in as f64);
    report.set("partition.product_rows_out", counts.rows_out as f64);
    report.set(
        "partition.ns_per_row_in",
        generate_s * 1e9 / (counts.rows_in as f64).max(1.0),
    );
    report.set("partition.peak_lattice_mb", mib(counts.peak_lattice_bytes));
    finish_trace(
        ctx,
        &ops.iter().map(|op| &op.trace).collect::<Vec<_>>(),
        median(&untraced_t1),
        report,
    );
    Ok(())
}

/// The `pins.txt` fingerprint of a one-shot workload at `ctx.seed`,
/// checked independently of the pins.
pub fn pin(spec: &Spec, ctx: &Ctx) -> Result<String, String> {
    let path = input_path(spec, ctx, "");
    let result = write_input(spec, ctx.seed, &path).and_then(|names| {
        let (out, _) = run_op(spec, &path, ctx.threads_n)?;
        let problems = check_first(spec, None, &path, &out, &names);
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
        Ok(out.fingerprint(&names))
    });
    let _ = std::fs::remove_file(&path);
    result
}
