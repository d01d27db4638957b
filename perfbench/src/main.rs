//! `fastod-perfbench` — the repository's one benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload lattice|ingest|maintain|near_valid|all] [--seed N] \
//!     [--seconds S] [--trace 0|1] [--pin]
//! ```
//!
//! Run it from the repository root. Each workload generates its inputs from
//! `--seed` (default [`DEFAULT_SEED`]; seed 2 is the documented second seed,
//! for re-checking a claim on data it was not tuned on), then
//! repeats its operation for `--seconds`, alternating one thread (the CLI
//! default) with `nproc` threads, and checks every output. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; a readable table of the same numbers goes to standard
//! error.
//!
//! * `--trace 0` reports the end-to-end metrics ([`END_TO_END`]), with no
//!   spans recorded.
//! * `--trace 1` replays each operation with a span around every call into
//!   a layer and reports the per-layer metrics ([`PER_LAYER`]); the spans go
//!   to `perfbench/out/trace-<workload>-<seed>.jsonl`. A layer a workload
//!   never calls reports 0.
//! * `--pin` prints the output fingerprint of a workload at `--seed` in the
//!   format of `pins.txt`, instead of measuring.
//!
//! The workloads (sizes in [`oneshot`] and [`maintain`]):
//!
//! * `lattice` — `flight_like` written to CSV, then read, encoded and
//!   discovered: the paper's exponential-in-|R| lattice, where validation
//!   and partition products dominate;
//! * `ingest` — a tall, narrow `flight_like` CSV through the same pipeline:
//!   parsing dominates and the lattice is shallow;
//! * `maintain` — one closed-loop client keeps a `serve::Session` open and
//!   runs rounds of {append, delete random live rows, update}; no CSV;
//! * `near_valid` — `flight_like` with value-swap noise, approximate
//!   discovery then a check report over the found rules: the removal-error
//!   kernels and the minimum-removal repair.

mod maintain;
mod measure;
mod oneshot;
mod replay;
mod trace;

use fastod_suite::theory::CanonicalOd;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["lattice", "ingest", "maintain", "near_valid"];

/// The seed baselines are measured with.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_t1_s", "s"),
    ("wall_tn_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_p50_ms", "ms"),
    ("pass_p90_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`) with their units.
const PER_LAYER: [(&str, &str); 56] = [
    ("relation.parse_s", "s"),
    ("relation.encode_s", "s"),
    ("relation.parse_mb_per_s", "MiB/s"),
    ("relation.parsed_rss_mb", "MiB"),
    ("relation.encoded_mb", "MiB"),
    ("relation.stream_s", "s"),
    ("relation.stream_peak_mb", "MiB"),
    ("core.level1_s", "s"),
    ("core.candidates_s", "s"),
    ("core.validate_s", "s"),
    ("core.validate.constancy_s", "s"),
    ("core.validate.order_compat_s", "s"),
    ("core.generate_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.level1_speedup", "x"),
    ("core.validate_speedup", "x"),
    ("core.generate_speedup", "x"),
    ("core.levels", "count"),
    ("core.nodes", "count"),
    ("core.pruned_nodes", "count"),
    ("core.fd_checks", "count"),
    ("core.fd_checks_key_pruned", "count"),
    ("core.swap_checks", "count"),
    ("core.ods", "count"),
    ("core.ods_per_check", "ratio"),
    ("partition.products", "count"),
    ("partition.product_rows_in", "count"),
    ("partition.product_rows_out", "count"),
    ("partition.ns_per_row_in", "ns"),
    ("partition.peak_lattice_mb", "MiB"),
    ("incremental.append_p50_ms", "ms"),
    ("incremental.delete_p50_ms", "ms"),
    ("incremental.update_p50_ms", "ms"),
    ("incremental.vs_scratch", "ratio"),
    ("incremental.revalidated", "count"),
    ("incremental.skip_frac", "ratio"),
    ("incremental.nodes_recomputed", "count"),
    ("incremental.nodes_reused", "count"),
    ("incremental.escalated_searches", "count"),
    ("incremental.recounted", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.read_ns", "ns"),
    ("approx.validate_s", "s"),
    ("approx.generate_s", "s"),
    ("theory.check_s", "s"),
    ("theory.rules", "count"),
    ("theory.violations", "count"),
    ("theory.removal_rows", "count"),
    ("trace.wall_s", "s"),
    ("trace.wall_tn_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.ops", "count"),
    ("trace.bench_s", "s"),
    ("trace.peak_rss_t1_mb", "MiB"),
    ("trace.peak_rss_tn_mb", "MiB"),
];

/// Layer self times plus the unattributed rest sum to the traced wall by
/// construction; the layers must leave at most this share unattributed.
const ACCOUNTING_BOUND: f64 = 0.05;

/// One workload run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// `nproc`, the thread count of the t=N runs.
    pub threads_n: usize,
    pub trace: bool,
    /// Where inputs and trace files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// One line per failed operation or check.
    pub problems: Vec<String>,
    /// Remarks that are not failures.
    pub notes: Vec<String>,
    /// JSONL spans of a traced run.
    pub spans: String,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// The pinned output fingerprint of `workload` at `seed`, if any.
pub fn pinned(workload: &str, seed: u64) -> Option<&'static str> {
    include_str!("../pins.txt").lines().find_map(|line| {
        let mut fields = line.splitn(3, ' ');
        let matches = fields.next() == Some(workload)
            && fields.next().and_then(|s| s.parse::<u64>().ok()) == Some(seed);
        matches.then(|| fields.next().map(str::trim)).flatten()
    })
}

/// FNV-1a over the display of `ods`, one per line.
pub fn display_hash(ods: &[CanonicalOd], names: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for od in ods {
        for byte in od.display(names).bytes().chain([b'\n']) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// `|cover| #FDs #OCDs hash` of a sorted cover, as pinned in `pins.txt`.
pub fn cover_fingerprint(ods: &[CanonicalOd], names: &[String]) -> String {
    let fds = ods.iter().filter(|od| od.is_constancy()).count();
    format!(
        "{} {fds} {} {:016x}",
        ods.len(),
        ods.len() - fds,
        display_hash(ods, names)
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "lattice" => oneshot::run(&oneshot::LATTICE, ctx),
        "ingest" => oneshot::run(&oneshot::INGEST, ctx),
        "near_valid" => oneshot::run(&oneshot::NEAR_VALID, ctx),
        "maintain" => maintain::run(ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Prints the readable table to stderr and returns the JSON result line.
fn render(name: &str, ctx: &Ctx, report: &Report) -> String {
    let table: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "== {name} (seed {}, {}s, t=N={}, trace {}) ==",
        ctx.seed, ctx.seconds, ctx.threads_n, ctx.trace as u8
    );
    let mut json = String::new();
    for (metric, unit) in table {
        let value = report.metrics.get(metric).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {metric:<32} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!("  {:<32} {failed_frac:>16.6} ratio", "failed_frac");
    eprintln!(
        "  ({} operations attempted, {} failed)",
        report.attempted, report.failed
    );
    for note in &report.notes {
        eprintln!("  note: {note}");
    }
    for problem in &report.problems {
        eprintln!("  FAILED: {problem}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fastod-perfbench [--workload NAME|all] [--seed N] [--seconds S] \
                 [--trace 0|1] [--pin]"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!(
            "error: cannot create {} (run from the repository root): {e}",
            out_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let threads_n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads_n,
        trace: args.trace,
        out_dir,
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    if args.pin {
        for name in names {
            let fingerprint = match name {
                "lattice" => oneshot::pin(&oneshot::LATTICE, &ctx),
                "ingest" => oneshot::pin(&oneshot::INGEST, &ctx),
                "near_valid" => oneshot::pin(&oneshot::NEAR_VALID, &ctx),
                _ => maintain::pin(&ctx),
            };
            match fingerprint {
                Ok(f) => println!("{name} {} {f}", ctx.seed),
                Err(e) => {
                    eprintln!("error: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    for name in names {
        let report = match run_workload(name, &ctx) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if ctx.trace {
            let path = ctx.out_dir.join(format!("trace-{name}-{}.jsonl", ctx.seed));
            if let Err(e) = std::fs::write(&path, &report.spans) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("  spans written to {}", path.display());
        }
        println!("{}", render(name, &ctx, &report));
    }
    ExitCode::SUCCESS
}
