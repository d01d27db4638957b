//! The `maintain` workload: one closed-loop client keeps a
//! `serve::Session` open and sends its next mutation only after the last
//! one returns. No CSV is involved.

use crate::measure::{median, peak_rss_mib, percentile, reset_peak_rss, secs};
use crate::trace::{finish_trace, OpTrace, Recorder};
use crate::{cover_fingerprint, pinned, Ctx, Report};
use fastod_suite::datagen::flight_like;
use fastod_suite::discovery::{DiscoveryConfig, Fastod};
use fastod_suite::incremental::{BatchCounters, BatchReport};
use fastod_suite::relation::Relation;
use fastod_suite::serve::{ServeError, Session};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BASE_ROWS: usize = 10_000;
const ATTRS: usize = 10;
const ROUNDS: usize = 40;
const APPEND_ROWS: usize = 100;
const DELETE_ROWS: usize = 50;
const UPDATE_ROWS: usize = 25;

/// Reads per sample between passes (`serve.read_ns` is their mean).
const READS: u32 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Append,
    Delete,
    Update,
}

struct Pass {
    kind: Kind,
    /// The `Session` call, as the client sees it.
    call: f64,
    /// `BatchReport::elapsed`: the engine's share of the call.
    engine: f64,
}

/// One session: open, [`ROUNDS`] rounds of three passes, final check.
struct SessionRun {
    threads: usize,
    /// Datagen plus `Session::open`.
    setup: f64,
    passes: Vec<Pass>,
    /// The whole client loop, passes, reads and bookkeeping included.
    loop_wall: f64,
    counters: BatchCounters,
    read_ns: Vec<f64>,
    /// `Fastod::try_discover` on the final live rows.
    scratch: f64,
    /// Fingerprint of the final published cover (as in `pins.txt`).
    fingerprint: String,
    trace: Option<OpTrace>,
}

/// Deterministic xorshift for picking victims.
struct Rng(u64);

impl Rng {
    fn pick(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn take_random(rng: &mut Rng, pool: &mut Vec<usize>, k: usize) -> Vec<usize> {
    (0..k)
        .map(|_| pool.swap_remove(rng.pick(pool.len())))
        .collect()
}

/// Runs one session at `threads`; failed passes and checks go to `report`.
fn session(
    ctx: &Ctx,
    threads: usize,
    rec: &Recorder,
    report: &mut Report,
) -> Result<SessionRun, String> {
    let start = Instant::now();
    let full = flight_like(
        BASE_ROWS + ROUNDS * (APPEND_ROWS + UPDATE_ROWS),
        ATTRS,
        ctx.seed,
    );
    let mut history = full.head(BASE_ROWS);
    let cfg = DiscoveryConfig::default().with_threads(threads);
    let session = Session::open("perfbench", &history, cfg).map_err(|e| e.to_string())?;
    let setup = secs(start.elapsed());

    let mut rng = Rng(ctx.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut live: Vec<usize> = (0..BASE_ROWS).collect();
    let mut cursor = BASE_ROWS;
    let mut run = SessionRun {
        threads,
        setup,
        passes: Vec::new(),
        loop_wall: 0.0,
        counters: BatchCounters::default(),
        read_ns: Vec::new(),
        scratch: 0.0,
        fingerprint: String::new(),
        trace: None,
    };
    let probe = session.read().1.minimal_cover().sorted().into_iter().next();
    let mut healthy = true;
    let mut pass =
        |kind: Kind, span: &'static str, call: &dyn Fn() -> Result<BatchReport, ServeError>| {
            if !healthy {
                return;
            }
            report.attempted += 1;
            let epoch = session.epoch();
            let start = Instant::now();
            let result = {
                let _span = rec.span(span);
                black_box(call())
            };
            let elapsed = secs(start.elapsed());
            match result {
                Ok(batch) if session.epoch() == epoch + 1 => {
                    run.passes.push(Pass {
                        kind,
                        call: elapsed,
                        engine: secs(batch.elapsed),
                    });
                    run.counters.absorb(&batch.counters);
                }
                Ok(_) => report.fail(format!(
                    "threads={threads}: a pass did not advance the epoch by one"
                )),
                Err(e) => {
                    report.fail(format!("threads={threads}: pass failed: {e}"));
                    healthy = false;
                }
            }
            // Reads between passes: `Session::read` plus one `holds` query.
            let _span = rec.span("serve.read");
            let start = Instant::now();
            for _ in 0..READS {
                let (_, snap) = session.read();
                black_box(probe.as_ref().map(|od| snap.holds(od)));
            }
            run.read_ns
                .push(start.elapsed().as_nanos() as f64 / READS as f64);
        };

    let loop_start = Instant::now();
    let op = rec.span("op");
    for _ in 0..ROUNDS {
        let (batch, replacement, deleted, updated) = {
            let _span = rec.span("bench.rows");
            let batch = full.select_rows(&(cursor..cursor + APPEND_ROWS).collect::<Vec<_>>());
            let upd = cursor + APPEND_ROWS..cursor + APPEND_ROWS + UPDATE_ROWS;
            let replacement = full.select_rows(&upd.collect::<Vec<_>>());
            cursor += APPEND_ROWS + UPDATE_ROWS;
            // Victims come from the post-append live set, so every round
            // touches fresh and old rows alike.
            let appended = history.n_rows()..history.n_rows() + APPEND_ROWS;
            let mut pool: Vec<usize> = live.iter().copied().chain(appended).collect();
            let deleted = take_random(&mut rng, &mut pool, DELETE_ROWS);
            let updated = take_random(&mut rng, &mut pool, UPDATE_ROWS);
            (batch, replacement, deleted, updated)
        };
        pass(Kind::Append, "serve.append", &|| session.push_batch(&batch));
        pass(Kind::Delete, "serve.delete", &|| {
            session.delete_rows(&deleted)
        });
        pass(Kind::Update, "serve.update", &|| {
            session.update_rows(&updated, &replacement)
        });
        let _span = rec.span("bench.model");
        let gone: HashSet<usize> = deleted.iter().chain(&updated).copied().collect();
        live.extend(history.n_rows()..history.n_rows() + APPEND_ROWS);
        history.extend(&batch).map_err(|e| e.to_string())?;
        live.retain(|row| !gone.contains(row));
        live.extend(history.n_rows()..history.n_rows() + UPDATE_ROWS);
        history.extend(&replacement).map_err(|e| e.to_string())?;
    }
    drop(op);
    run.loop_wall = secs(loop_start.elapsed());
    if rec.is_on() {
        run.trace = Some(OpTrace::new(threads, rec.take()));
    }

    // Untimed: the published cover must be what Fastod finds on the
    // surviving rows.
    let survivors: Relation = history.select_rows(&live);
    let enc = survivors.encode();
    let start = Instant::now();
    let scratch = Fastod::new(DiscoveryConfig::default())
        .try_discover(&enc)
        .map_err(|e| e.to_string())?;
    run.scratch = secs(start.elapsed());
    let (_, snap) = session.read();
    let cover = snap.minimal_cover().sorted();
    run.fingerprint = cover_fingerprint(&cover, history.schema().names());
    if snap.n_live() != live.len() || cover != scratch.ods.sorted() {
        report.fail(format!(
            "threads={threads}: final cover differs from Fastod on the survivors"
        ));
    }
    Ok(run)
}

fn calls(runs: &[&SessionRun], kind: Option<Kind>, f: fn(&Pass) -> f64) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| &r.passes)
        .filter(|p| kind.is_none_or(|k| p.kind == k))
        .map(f)
        .collect()
}

/// Runs `maintain` for `ctx.seconds`, alternating t=1 and t=N sessions.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // Sessions in this cycle until the deadline, at least one full cycle. A
    // traced cycle adds an untraced t=1 session, the baseline of the
    // tracing overhead.
    let cycle: &[(usize, bool)] = if ctx.trace {
        &[(1, false), (1, true), (ctx.threads_n, true)]
    } else {
        &[(1, false), (ctx.threads_n, false)]
    };
    let mut runs: Vec<SessionRun> = Vec::new();
    for &(threads, traced) in cycle.iter().cycle() {
        if runs.len() >= cycle.len() && Instant::now() >= deadline {
            break;
        }
        let rec = if traced {
            Recorder::on()
        } else {
            Recorder::off()
        };
        let run = session(ctx, threads, &rec, &mut report)?;
        if let Some(want) = pinned("maintain", ctx.seed) {
            if run.fingerprint != want {
                report.fail(format!(
                    "threads={threads}: final cover fingerprint {:?}, pinned {want:?}",
                    run.fingerprint
                ));
            }
        }
        runs.push(run);
    }
    if pinned("maintain", ctx.seed).is_none() {
        report
            .notes
            .push(format!("seed {} has no pinned fingerprint", ctx.seed));
    }

    let (traced, untraced): (Vec<&SessionRun>, Vec<&SessionRun>) =
        runs.iter().partition(|r| r.trace.is_some());
    let t1: Vec<&SessionRun> = untraced
        .iter()
        .copied()
        .filter(|r| r.threads == 1)
        .collect();
    let tn: Vec<&SessionRun> = untraced
        .iter()
        .copied()
        .filter(|r| r.threads == ctx.threads_n)
        .collect();
    let total_calls = |r: &&SessionRun| r.passes.iter().map(|p| p.call).sum::<f64>();
    if !ctx.trace {
        report.set(
            "setup_s",
            median(&runs.iter().map(|r| r.setup).collect::<Vec<_>>()),
        );
        report.set(
            "wall_t1_s",
            median(&t1.iter().map(total_calls).collect::<Vec<_>>()),
        );
        report.set(
            "wall_tn_s",
            median(&tn.iter().map(total_calls).collect::<Vec<_>>()),
        );
        report.set("peak_rss_mb", peak_rss_mib());
        let pass_ms: Vec<f64> = calls(&t1, None, |p| p.call * 1e3);
        report.set("pass_p50_ms", median(&pass_ms));
        report.set("pass_p90_ms", percentile(&pass_ms, 90.0));
        return Ok(report);
    }

    let traced_t1: Vec<&SessionRun> = traced.iter().copied().filter(|r| r.threads == 1).collect();
    for (metric, kind) in [
        ("incremental.append_p50_ms", Kind::Append),
        ("incremental.delete_p50_ms", Kind::Delete),
        ("incremental.update_p50_ms", Kind::Update),
    ] {
        report.set(
            metric,
            median(&calls(&traced_t1, Some(kind), |p| p.engine * 1e3)),
        );
    }
    let scratch = median(&traced_t1.iter().map(|r| r.scratch).collect::<Vec<_>>());
    report.set(
        "incremental.vs_scratch",
        median(&calls(&traced_t1, None, |p| p.call)) / scratch,
    );
    report.set(
        "serve.overhead_ms",
        median(&calls(&traced_t1, None, |p| (p.call - p.engine) * 1e3)),
    );
    let reads: Vec<f64> = traced_t1
        .iter()
        .flat_map(|r| r.read_ns.iter().copied())
        .collect();
    report.set("serve.read_ns", median(&reads));
    let c = &traced_t1[0].counters;
    let skipped = (c.skipped_false + c.skipped_clean) as f64;
    report.set("incremental.revalidated", c.revalidated as f64);
    report.set(
        "incremental.skip_frac",
        skipped / (skipped + c.revalidated as f64).max(1.0),
    );
    report.set("incremental.nodes_recomputed", c.nodes_recomputed as f64);
    report.set("incremental.nodes_reused", c.nodes_reused as f64);
    report.set(
        "incremental.escalated_searches",
        c.escalated_searches as f64,
    );
    report.set("incremental.recounted", c.recounted as f64);

    let traces: Vec<&OpTrace> = traced.iter().filter_map(|r| r.trace.as_ref()).collect();
    for (i, t) in traces.iter().enumerate() {
        t.write_jsonl("maintain", i, &mut report.spans);
    }
    let untraced_wall = median(&t1.iter().map(|r| r.loop_wall).collect::<Vec<_>>());
    finish_trace(ctx, &traces, untraced_wall, &mut report);
    Ok(report)
}

/// The `pins.txt` fingerprint of the final cover of one session at
/// `ctx.seed`, checked against Fastod on the survivors.
pub fn pin(ctx: &Ctx) -> Result<String, String> {
    let mut report = Report::default();
    let run = session(ctx, ctx.threads_n, &Recorder::off(), &mut report)?;
    if report.failed > 0 {
        return Err(report.problems.join("; "));
    }
    Ok(run.fingerprint)
}
