//! `fastod` — command-line order-dependency discovery over CSV files.
//!
//! ```text
//! USAGE:
//!   fastod <FILE.csv> [OPTIONS]
//!   fastod stats <FILE.csv> [OPTIONS]
//!   fastod check <FILE.csv> [OPTIONS]
//!   fastod serve <FILE.csv> [OPTIONS]
//!
//! OPTIONS:
//!   --no-header            treat the first line as data (columns named c0, c1, ...)
//!   --nulls <first|last>   null ordering policy; also enables parsing
//!                          empty CSV fields as nulls
//!   --max-level <N>        cap the lattice level (context size + 1)
//!   --timeout <SECS>       cancel discovery after this budget
//!   --threads <N>          worker threads for validation/products
//!                          (default 1; 0 = all cores; the discovered
//!                          cover is identical at any thread count)
//!   --epsilon <F>          approximate discovery: tolerate removing an
//!                          F-fraction of rows, F in [0, 1] (0.0 = exact)
//!   --violations <OD>      instead of discovering, check one OD and print
//!                          witnesses; OD syntax: "ctx1,ctx2:[]->A" or
//!                          "ctx1:A~B" (attribute names)
//!   --stats                print per-level statistics (Figure 7 style)
//!   --stream               ingest the CSV via the two-pass streaming
//!                          dictionary build (the 100M-row scale path): the
//!                          file's values are never held, so the ingest
//!                          peaks at O(distinct values) plus 4 bytes per
//!                          code, reported via the `relation.peak_bytes`
//!                          gauge. After ingest both readers leave the same
//!                          codes and dictionaries, so `--stream` lowers
//!                          only the ingest peak: every command's output is
//!                          identical (witnesses and `serve`'s replay decode
//!                          cells through the dictionaries)
//!   --trace <FILE.jsonl>   write a structured span trace of the run (one
//!                          JSON event per closed span; schema documented
//!                          in fastod-obs) and enable metrics collection
//!
//! The `stats` subcommand runs discovery with metrics enabled and prints
//! the per-level table plus the full metrics snapshot (counters, latency
//! histograms, span totals) instead of the OD list.
//!
//! CHECK OPTIONS (data-quality report over a rule set):
//!   --od <SPEC>            a rule to check (repeatable; same syntax as
//!                          --violations)
//!   --discover-near-valid  instead of explicit rules, run approximate
//!                          discovery and check every rule that is valid
//!                          after removing at most a --max-error fraction
//!                          of rows — surfacing the almost-true rules
//!                          whose violations point at data errors
//!   --max-error <F>        row-removal fraction in [0, 1] for
//!                          --discover-near-valid (default 0.01)
//!   --witnesses <N>        witness pairs reported per violated rule
//!                          (default 5)
//!   --json                 print the machine-readable fastod.check.v1
//!                          report instead of text
//!
//! `check` prints per-rule validity, the exact violating-pair count, up to
//! N witness pairs, and a minimum-cardinality set of rows whose removal
//! repairs the rule. It exits nonzero when any rule is violated.
//!
//! SERVE OPTIONS (mutation + query replay over the serving layer):
//!   --readers <N>          concurrent reader threads issuing lock-free
//!                          cover queries while mutations replay (default 2)
//!   --batch <N>            rows per appended mutation batch (default 16)
//!   --base-frac <F>        fraction of the file seeding the initial
//!                          discovery; the rest replays as mutation traffic
//!                          (default 0.5)
//!   --verbose              print each maintenance pass's work counters
//!                          (certificate-ladder outcomes) and a final
//!                          metrics snapshot
//! ```
//!
//! A usage error (unknown flag, missing or malformed value, a fraction
//! outside `[0, 1]`) exits with status 2 before any input is read.

use fastod_suite::discovery::{ApproxConfig, ApproxFastod, CancelToken};
use fastod_suite::obs::{LogHistogram, Obs};
use fastod_suite::prelude::*;
use fastod_suite::relation::csv::{read_csv_file_opts, CsvOptions};
use fastod_suite::relation::{read_csv_file_stream, NullPolicy};
use fastod_suite::serve::ServeConfig;
use fastod_suite::theory::{find_violations, CheckReport};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    file: String,
    header: bool,
    max_level: Option<usize>,
    timeout: Option<u64>,
    threads: usize,
    epsilon: Option<f64>,
    violations: Option<String>,
    stats: bool,
    serve: bool,
    /// The `stats` subcommand: discovery with metrics, snapshot instead of
    /// the OD list.
    stats_cmd: bool,
    /// The `check` subcommand: data-quality report over a rule set.
    check: bool,
    od_specs: Vec<String>,
    near_valid: bool,
    max_error: f64,
    witness_limit: usize,
    json: bool,
    nulls: Option<NullPolicy>,
    trace: Option<String>,
    verbose: bool,
    readers: usize,
    batch: usize,
    base_frac: f64,
    /// `serve`: wall-clock budget per maintenance pass; an overrunning
    /// pass fails like a cancelled one and auto-recovery rebuilds it.
    pass_deadline_ms: Option<u64>,
    /// Ingest via the two-pass streaming dictionary build instead of
    /// materializing the whole file's values.
    stream: bool,
}

/// Parses the command line after the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        header: true,
        max_level: None,
        timeout: None,
        threads: 1,
        epsilon: None,
        violations: None,
        stats: false,
        serve: false,
        stats_cmd: false,
        check: false,
        od_specs: Vec::new(),
        near_valid: false,
        max_error: 0.01,
        witness_limit: 5,
        json: false,
        nulls: None,
        trace: None,
        verbose: false,
        readers: 2,
        batch: 16,
        base_frac: 0.5,
        pass_deadline_ms: None,
        stream: false,
    };
    let mut iter = argv.into_iter().peekable();
    match iter.peek().map(String::as_str) {
        Some("serve") => {
            args.serve = true;
            iter.next();
        }
        Some("stats") => {
            args.stats_cmd = true;
            iter.next();
        }
        Some("check") => {
            args.check = true;
            iter.next();
        }
        _ => {}
    }
    let need = |iter: &mut dyn Iterator<Item = String>, flag: &str| {
        iter.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--no-header" => args.header = false,
            "--stream" => args.stream = true,
            "--stats" => args.stats = true,
            "--verbose" => args.verbose = true,
            "--trace" => args.trace = Some(need(&mut iter, "--trace")?),
            "--max-level" => {
                args.max_level = Some(
                    need(&mut iter, "--max-level")?
                        .parse()
                        .map_err(|e| format!("--max-level: {e}"))?,
                )
            }
            "--timeout" => {
                args.timeout = Some(
                    need(&mut iter, "--timeout")?
                        .parse()
                        .map_err(|e| format!("--timeout: {e}"))?,
                )
            }
            "--epsilon" => {
                args.epsilon = Some(parse_fraction("--epsilon", &need(&mut iter, "--epsilon")?)?)
            }
            "--threads" => {
                args.threads = need(&mut iter, "--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--violations" => args.violations = Some(need(&mut iter, "--violations")?),
            "--od" => args.od_specs.push(need(&mut iter, "--od")?),
            "--discover-near-valid" => args.near_valid = true,
            "--json" => args.json = true,
            "--max-error" => {
                args.max_error = parse_fraction("--max-error", &need(&mut iter, "--max-error")?)?
            }
            "--witnesses" => {
                args.witness_limit = need(&mut iter, "--witnesses")?
                    .parse()
                    .map_err(|e| format!("--witnesses: {e}"))?
            }
            "--nulls" => {
                args.nulls = Some(match need(&mut iter, "--nulls")?.as_str() {
                    "first" => NullPolicy::First,
                    "last" => NullPolicy::Last,
                    other => return Err(format!("--nulls must be first or last, got {other}")),
                })
            }
            "--readers" => {
                args.readers = need(&mut iter, "--readers")?
                    .parse()
                    .map_err(|e| format!("--readers: {e}"))?
            }
            "--batch" => {
                args.batch = need(&mut iter, "--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--base-frac" => {
                args.base_frac = parse_fraction("--base-frac", &need(&mut iter, "--base-frac")?)?
            }
            "--pass-deadline-ms" => {
                args.pass_deadline_ms = Some(
                    need(&mut iter, "--pass-deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--pass-deadline-ms: {e}"))?,
                )
            }
            "--help" | "-h" => return Err("help".into()),
            other if args.file.is_empty() && !other.starts_with('-') => {
                args.file = other.to_string()
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.file.is_empty() {
        return Err("missing input file".into());
    }
    Ok(args)
}

/// Parses the value of a fraction flag (`--epsilon`, `--max-error`,
/// `--base-frac`), which must lie in `[0, 1]`; NaN and infinities are
/// rejected too.
fn parse_fraction(flag: &str, value: &str) -> Result<f64, String> {
    let fraction: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    if (0.0..=1.0).contains(&fraction) {
        Ok(fraction)
    } else {
        Err(format!("{flag} must be in [0, 1], got {value}"))
    }
}

/// Parses `"a,b:[]->c"` or `"a:b~c"` (empty context: `":[]->c"`).
fn parse_od(spec: &str, schema: &Schema) -> Result<CanonicalOd, String> {
    let (ctx_str, rest) = spec
        .split_once(':')
        .ok_or_else(|| "OD must contain ':'".to_string())?;
    let resolve = |name: &str| {
        schema
            .attr_id(name.trim())
            .ok_or_else(|| format!("unknown attribute: {name}"))
    };
    let mut ctx = AttrSet::EMPTY;
    for name in ctx_str.split(',').filter(|s| !s.trim().is_empty()) {
        ctx = ctx.with(resolve(name)?);
    }
    if let Some(rhs) = rest.trim().strip_prefix("[]->") {
        Ok(CanonicalOd::constancy(ctx, resolve(rhs)?))
    } else if let Some((a, b)) = rest.split_once('~') {
        Ok(CanonicalOd::order_compat(ctx, resolve(a)?, resolve(b)?))
    } else {
        Err("OD right side must be `[]->A` or `A~B`".into())
    }
}

/// `fastod check`: a data-quality report over a rule set. Each rule —
/// explicit `--od` specs or the near-valid cover from approximate discovery
/// — is checked for exact validity; violated rules get their violating-pair
/// count, witness pairs, and a minimum-cardinality repair (rows whose
/// removal makes the rule hold). `--json` emits the `fastod.check.v1`
/// document instead.
fn run_check(table: &GrowableRelation, args: &Args, obs: &Obs) -> ExitCode {
    let enc = table.encoded();
    let names = enc.schema().names();
    let ods: Vec<CanonicalOd> = if args.near_valid {
        let cfg = ApproxConfig::new(args.max_error)
            .with_threads(args.threads)
            .with_obs(obs.clone());
        let result = ApproxFastod::new(cfg).discover(enc);
        result
            .ods
            .sorted()
            .into_iter()
            .filter(|od| !od.is_trivial())
            .collect()
    } else {
        let mut out = Vec::new();
        for spec in &args.od_specs {
            match parse_od(spec, enc.schema()) {
                Ok(od) => out.push(od),
                Err(e) => {
                    eprintln!("error parsing OD {spec:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    if ods.is_empty() {
        eprintln!("check: no rules to check; pass --od <SPEC> or --discover-near-valid");
        return ExitCode::FAILURE;
    }
    let report = CheckReport::run(enc, &ods, args.witness_limit);
    obs.add("check.rules", report.rules.len() as u64);
    obs.add("check.violations", report.total_violations());
    if args.json {
        print!("{}", report.to_json(names));
    } else {
        for rule in &report.rules {
            if rule.holds {
                println!("{}  holds", rule.od.display(names));
                continue;
            }
            println!(
                "{}  VIOLATED: {} violating pairs; removing {} of {} rows repairs it: {:?}",
                rule.od.display(names),
                rule.violations,
                rule.removal_rows.len(),
                report.n_rows,
                rule.removal_rows,
            );
            for w in &rule.witnesses {
                println!("    witness: {}", w.describe(names, |r, a| table.value(r, a)));
            }
        }
        eprintln!(
            "\nchecked {} rules over {} rows: {} violated, {} violating pairs total",
            report.rules.len(),
            report.n_rows,
            report.n_failing(),
            report.total_violations(),
        );
    }
    if report.n_failing() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `fastod serve`: replay the file as live traffic against the serving
/// layer. The first `--base-frac` of the rows seed the initial discovery;
/// the rest stream in as append batches and are then deleted again in
/// waves, while `--readers` threads hammer the published snapshot with
/// lock-free cover queries. Every batch is a row range of `table`, decoded
/// through its dictionaries one batch at a time. Prints maintenance-pass and
/// read-latency summaries. Read percentiles come from a shared streaming
/// [`LogHistogram`] (no per-read allocation, no end-of-run sort).
fn run_serve(table: &GrowableRelation, args: &Args, obs: &Obs) -> ExitCode {
    use std::sync::atomic::{AtomicBool, Ordering};

    let n = table.n_rows();
    if n == 0 {
        eprintln!("serve: the relation has no rows to replay");
        return ExitCode::FAILURE;
    }
    let base_rows = ((n as f64 * args.base_frac).round() as usize).clamp(1, n);
    let batch = args.batch.max(1);
    let base = match table.rows(0..base_rows) {
        Ok(base) => base,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut discovery = DiscoveryConfig::default()
        .with_threads(args.threads)
        .with_obs(obs.clone());
    if let Some(ms) = args.pass_deadline_ms {
        discovery = discovery.with_pass_deadline(Duration::from_millis(ms));
    }
    let server = fastod_suite::serve::Server::new(ServeConfig {
        discovery,
        // A deadline makes pass failure a normal event, so pair it with
        // automatic healing; without one, failures stay loud and manual.
        recovery: if args.pass_deadline_ms.is_some() {
            fastod_suite::serve::RecoveryPolicy::auto()
        } else {
            fastod_suite::serve::RecoveryPolicy::disabled()
        },
    });
    let started = Instant::now();
    let session = match server.open("cli", &base) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The session encoded the seed rows into its own relation; nothing
    // reads them again, so free them before the replay.
    drop(base);
    eprintln!(
        "seeded {} of {} rows in {:?}; cover = {} ODs; replaying {} rows as mutations",
        base_rows,
        n,
        started.elapsed(),
        session.read().1.minimal_cover().len(),
        n - base_rows,
    );

    let stop = AtomicBool::new(false);
    let mut append_ms: Vec<f64> = Vec::new();
    let mut delete_ms: Vec<f64> = Vec::new();
    // One streaming histogram shared by every reader: recording is a few
    // relaxed atomic adds, so there is no per-reader buffer to merge and no
    // million-entry sort after the run.
    let read_ns = LogHistogram::new();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..args.readers)
            .map(|_| {
                let (read_ns, stop, session) = (&read_ns, &stop, &session);
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    // Read before the first look at `stop`: a replay can
                    // end before a reader thread first runs.
                    loop {
                        let t = Instant::now();
                        let (epoch, snap) = session.read();
                        let answer = if snap.schema().n_attrs() >= 2 {
                            snap.is_valid(&[0], &[1])
                        } else {
                            snap.constant_attrs().is_empty()
                        };
                        read_ns.record(t.elapsed().as_nanos() as u64);
                        std::hint::black_box(answer);
                        assert!(epoch >= last_epoch, "published epochs must be monotone");
                        last_epoch = epoch;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                })
            })
            .collect();

        // Append the tail in batches, then delete the same rows again in
        // waves — the delete passes are where cached witnesses die and the
        // sharded escalation path earns its keep.
        let mut i = base_rows;
        while i < n {
            let hi = (i + batch).min(n);
            let chunk = match table.rows(i..hi) {
                Ok(chunk) => chunk,
                Err(e) => {
                    eprintln!("serve: {e}");
                    break;
                }
            };
            let t = Instant::now();
            match session.push_batch(&chunk) {
                Ok(report) => {
                    append_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if args.verbose {
                        eprintln!(
                            "append pass {} ({:.2} ms): {}",
                            append_ms.len(),
                            append_ms.last().unwrap(),
                            report.counters
                        );
                    }
                    i = hi;
                }
                Err(e) => {
                    // A deadline overrun poisons the engine; heal and replay
                    // the same batch (the rebuild folded it in only if it
                    // was absorbed before the pass died — recovery keeps the
                    // engine's accumulated rows authoritative either way).
                    eprintln!("append pass failed ({e}); healing");
                    let healed = server.heal();
                    if healed.is_empty() {
                        eprintln!("serve: session unrecoverable, stopping replay");
                        break;
                    }
                    // The failed pass already absorbed the rows: skip ahead.
                    i = hi;
                }
            }
        }
        let mut row = base_rows;
        while row < n {
            let hi = (row + batch).min(n);
            let ids: Vec<usize> = (row..hi).collect();
            let t = Instant::now();
            match session.delete_rows(&ids) {
                Ok(report) => {
                    delete_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if args.verbose {
                        eprintln!(
                            "delete pass {} ({:.2} ms): {}",
                            delete_ms.len(),
                            delete_ms.last().unwrap(),
                            report.counters
                        );
                    }
                    row = hi;
                }
                Err(e) => {
                    eprintln!("delete pass failed ({e}); healing");
                    let healed = server.heal();
                    if healed.is_empty() {
                        eprintln!("serve: session unrecoverable, stopping replay");
                        break;
                    }
                    row = hi;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for handle in readers {
            handle.join().expect("reader panicked");
        }
    });

    let (epoch, snap) = session.read();
    eprintln!(
        "replayed {} append passes (mean {:.2} ms) + {} delete passes (mean {:.2} ms); \
         final epoch {}, cover = {} ODs over {} live rows",
        append_ms.len(),
        mean(&append_ms),
        delete_ms.len(),
        mean(&delete_ms),
        epoch,
        snap.minimal_cover().len(),
        snap.n_live(),
    );
    let lat = read_ns.summary();
    eprintln!(
        "{} reads across {} reader threads: p50 {:.1} us, p99 {:.1} us (never blocked on maintenance)",
        lat.count,
        args.readers,
        lat.p50 as f64 / 1e3,
        lat.p99 as f64 / 1e3,
    );
    if obs.is_enabled() {
        record_peak_rss(obs);
        eprintln!("\n{}", session.metrics().render());
    }
    ExitCode::SUCCESS
}

/// Sets the `process.peak_rss_mb` gauge to the run's peak resident set
/// (`VmHWM` in `/proc/self/status`, in MiB); leaves it unset when that file
/// cannot be read.
fn record_peak_rss(obs: &Obs) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim_end_matches("kB").trim().parse::<u64>().ok());
    if let Some(kb) = kb {
        obs.set_gauge("process.peak_rss_mb", kb as f64 / 1024.0);
    }
}

/// The mean of a replay's pass latencies; `0.0` when no pass ran (an
/// empty `f64` sum is `-0.0`, which would print as `-0.00`).
fn mean(ms: &[f64]) -> f64 {
    if ms.is_empty() {
        0.0
    } else {
        ms.iter().sum::<f64>() / ms.len() as f64
    }
}

/// Discovery: `--violations` single-rule checking, then exact/approximate
/// discovery.
fn run_discover(table: &GrowableRelation, args: &Args, obs: &Obs) -> ExitCode {
    let enc = table.encoded();
    let names = enc.schema().names();
    if let Some(spec) = &args.violations {
        let od = match parse_od(spec, enc.schema()) {
            Ok(od) => od,
            Err(e) => {
                eprintln!("error parsing OD: {e}");
                return ExitCode::FAILURE;
            }
        };
        let violations = find_violations(enc, &od, 20);
        if violations.is_empty() {
            println!("{} HOLDS", od.display(names));
        } else {
            println!("{} VIOLATED ({} witnesses shown):", od.display(names), violations.len());
            for v in violations {
                println!("  {}", v.describe(names, |r, a| table.value(r, a)));
            }
        }
        return ExitCode::SUCCESS;
    }

    let cancel = match args.timeout {
        Some(s) => CancelToken::with_timeout(Duration::from_secs(s)),
        None => CancelToken::never(),
    };
    let result = if let Some(eps) = args.epsilon {
        let mut cfg = ApproxConfig::new(eps)
            .with_cancel(cancel)
            .with_threads(args.threads)
            .with_obs(obs.clone());
        if let Some(l) = args.max_level {
            cfg = cfg.with_max_level(l);
        }
        ApproxFastod::new(cfg).try_discover(enc)
    } else {
        let mut cfg = DiscoveryConfig::default()
            .with_cancel(cancel)
            .with_threads(args.threads)
            .with_obs(obs.clone());
        if let Some(l) = args.max_level {
            cfg = cfg.with_max_level(l);
        }
        Fastod::new(cfg).try_discover(enc)
    };
    let result = match result {
        Ok(r) => r,
        Err(_) => {
            eprintln!("discovery exceeded the {}s budget", args.timeout.unwrap_or(0));
            return ExitCode::FAILURE;
        }
    };
    if !args.stats_cmd {
        for od in result.ods.sorted() {
            println!("{}", od.display(names));
        }
    }
    eprintln!(
        "\n{} ODs ({} constancies + {} order compatibilities) in {:?}",
        result.ods.len(),
        result.n_fds(),
        result.n_ocds(),
        result.stats.total_time
    );
    if args.stats || args.stats_cmd {
        eprintln!("\n{}", result.stats.level_table());
    }
    if args.stats_cmd {
        record_peak_rss(obs);
        println!("{}", obs.snapshot().render());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: fastod <FILE.csv> [--no-header] [--max-level N] [--timeout SECS] \
                 [--threads N] [--epsilon F] [--violations OD] [--stats] [--stream] \
                 [--trace OUT.jsonl]\n       \
                 fastod stats <FILE.csv> [same options]\n       \
                 fastod check <FILE.csv> [--od SPEC]... [--discover-near-valid] \
                 [--max-error F] [--witnesses N] [--nulls first|last] [--json] [--stream]\n       \
                 fastod serve <FILE.csv> [--no-header] [--threads N] [--readers N] \
                 [--batch N] [--base-frac F] [--pass-deadline-ms MS] [--stream] [--verbose] \
                 [--trace OUT.jsonl]"
            );
            return if msg == "help" { ExitCode::SUCCESS } else { ExitCode::from(2) };
        }
    };

    let opts = CsvOptions {
        has_header: args.header,
        null_policy: args.nulls,
    };
    // One recorder for the whole run: a `--trace` file sink, an in-memory
    // recorder for `fastod stats` / verbose serve, or the free no-op.
    let obs = match &args.trace {
        Some(path) => match Obs::to_file(path) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error creating trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None if args.stats_cmd || (args.serve && args.verbose) => Obs::enabled(),
        None => Obs::disabled(),
    };
    let finish = |code: ExitCode, obs: &Obs| {
        obs.flush();
        if let Some(path) = &args.trace {
            eprintln!("trace written to {path}");
        }
        code
    };

    // Whichever reader runs is the `relation.parse` span. Both leave one
    // table: the codes and the dictionaries that decode them.
    let parse = obs.span("relation.parse");
    let table = if args.stream {
        // The third argument, a chunk size, is unused.
        let streamed = match read_csv_file_stream(&args.file, opts, 0) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error reading {}: {e}", args.file);
                return ExitCode::FAILURE;
            }
        };
        obs.set_gauge("relation.peak_bytes", streamed.peak_bytes as f64);
        let enc = &streamed.encoded;
        eprintln!(
            "loaded {} (streamed): {} rows x {} attributes; {} encoded bytes, {} peak during ingest",
            args.file,
            enc.n_rows(),
            enc.n_attrs(),
            enc.memory_bytes(),
            streamed.peak_bytes,
        );
        drop(parse);
        GrowableRelation::from(streamed)
    } else {
        let rel = match read_csv_file_opts(&args.file, opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error reading {}: {e}", args.file);
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "loaded {}: {} rows x {} attributes",
            args.file,
            rel.n_rows(),
            rel.n_attrs()
        );
        drop(parse);
        // Nothing reads the parsed relation once its codes and dictionaries
        // exist, so it is dropped here, before any command runs.
        let _encode = obs.span("relation.encode");
        GrowableRelation::new(&rel)
    };
    let code = if args.serve {
        run_serve(&table, &args, &obs)
    } else if args.check {
        run_check(&table, &args, &obs)
    } else {
        run_discover(&table, &args, &obs)
    };
    finish(code, &obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_suite::relation::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            ("year".into(), DataType::Int),
            ("salary".into(), DataType::Int),
            ("bin".into(), DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn parse_constancy_with_context() {
        let od = parse_od("year,salary:[]->bin", &schema()).unwrap();
        assert_eq!(od, CanonicalOd::constancy(AttrSet::from_iter([0, 1]), 2));
    }

    #[test]
    fn parse_constancy_empty_context() {
        let od = parse_od(":[]->year", &schema()).unwrap();
        assert_eq!(od, CanonicalOd::constancy(AttrSet::EMPTY, 0));
    }

    #[test]
    fn parse_order_compat() {
        let od = parse_od("year:salary~bin", &schema()).unwrap();
        assert_eq!(od, CanonicalOd::order_compat(AttrSet::singleton(0), 1, 2));
    }

    #[test]
    fn parse_trims_whitespace() {
        let od = parse_od(" year : salary ~ bin ", &schema()).unwrap();
        assert_eq!(od, CanonicalOd::order_compat(AttrSet::singleton(0), 1, 2));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_od("no-colon", &schema()).is_err());
        assert!(parse_od(":[]->nosuch", &schema()).is_err());
        assert!(parse_od("year:salary", &schema()).is_err());
        assert!(parse_od("bad:salary~bin", &schema()).is_err());
    }

    #[test]
    fn fractions_outside_unit_interval_are_usage_errors() {
        for bad in ["1.5", "-0.1", "NaN", "inf", "x"] {
            assert!(parse_fraction("--epsilon", bad).is_err(), "{bad}");
        }
        for (good, want) in [("0", 0.0), ("0.01", 0.01), ("1", 1.0)] {
            assert_eq!(parse_fraction("--max-error", good), Ok(want));
        }
    }

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn base_frac_outside_unit_interval_is_a_usage_error() {
        for bad in ["7", "-1", "nan"] {
            let err = parse(&["serve", "f.csv", "--base-frac", bad]).err();
            assert_eq!(err, Some(format!("--base-frac must be in [0, 1], got {bad}")));
        }
        let args = parse(&["serve", "f.csv", "--base-frac", "0.25"]).unwrap();
        assert!(args.serve);
        assert_eq!((args.file.as_str(), args.base_frac), ("f.csv", 0.25));
    }

    #[test]
    fn mean_of_no_passes_prints_zero() {
        assert_eq!(format!("{:.2}", mean(&[])), "0.00");
        assert_eq!(format!("{:.2}", mean(&[1.0, 2.0])), "1.50");
    }
}
