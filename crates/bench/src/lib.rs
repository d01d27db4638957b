//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5). The README's "Running the experiments" lists what each
//! of `exp1`–`exp7` reproduces.
//!
//! Each `exp*` binary prints the same rows/series the paper reports and
//! writes a CSV copy under `results/`. Absolute numbers differ from the
//! paper (different hardware, synthetic analogues of the datasets); the
//! *shape* — who wins, scaling behaviour, crossovers — is the reproduction
//! target.
//!
//! Environment knobs:
//! * `FASTOD_SCALE` — `smoke` (seconds), `default`, or `paper` (full sizes);
//! * `FASTOD_BUDGET_SECS` — per-run time budget (default 60; the paper used
//!   5 hours). Runs exceeding it are reported as `*TIMEOUT`, mirroring the
//!   paper's "* 5h" markers.

use fastod::{CancelToken, DiscoveryConfig, Fastod, PassError};
use fastod_relation::EncodedRelation;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub mod table;

/// Outcome of a budgeted run.
pub enum Outcome<T> {
    /// Finished within budget.
    Done {
        /// The run's result.
        value: T,
        /// Wall-clock time.
        elapsed: Duration,
    },
    /// Exceeded the budget (cooperatively cancelled).
    TimedOut {
        /// The budget that was exceeded.
        budget: Duration,
    },
}

impl<T> Outcome<T> {
    /// The value, if the run completed.
    pub fn value(&self) -> Option<&T> {
        match self {
            Outcome::Done { value, .. } => Some(value),
            Outcome::TimedOut { .. } => None,
        }
    }

    /// Elapsed time formatted for tables; timeouts render like the paper's
    /// "* 5h" markers.
    pub fn time_str(&self) -> String {
        match self {
            Outcome::Done { elapsed, .. } => format_duration(*elapsed),
            Outcome::TimedOut { budget } => format!("*>{}", format_duration(*budget)),
        }
    }

    /// Renders a per-run annotation (e.g. OD counts) or a dash on timeout.
    pub fn annotate(&self, f: impl FnOnce(&T) -> String) -> String {
        match self {
            Outcome::Done { value, .. } => f(value),
            Outcome::TimedOut { .. } => "—".to_string(),
        }
    }
}

/// Runs a cancellable computation under a time budget. Cancellation is
/// cooperative (the discovery algorithms poll the token), so no thread is
/// spawned and partial state is dropped cleanly. A contained task panic
/// ([`PassError::Panicked`]) is a harness bug, not a timeout — it is
/// re-raised so the experiment fails loudly instead of printing `—`.
pub fn run_budgeted<T>(
    budget: Duration,
    f: impl FnOnce(CancelToken) -> Result<T, PassError>,
) -> Outcome<T> {
    let token = CancelToken::with_timeout(budget);
    let start = Instant::now();
    match f(token) {
        Ok(value) => Outcome::Done {
            value,
            elapsed: start.elapsed(),
        },
        Err(PassError::Cancelled) => Outcome::TimedOut { budget },
        Err(e @ PassError::Panicked { .. }) => panic!("budgeted run failed: {e}"),
    }
}

/// Human-friendly duration: `412ms`, `3.21s`, `2m05s`.
pub fn format_duration(d: Duration) -> String {
    let ms = d.as_millis();
    if ms < 1_000 {
        format!("{ms}ms")
    } else if ms < 120_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        let s = d.as_secs();
        format!("{}m{:02}s", s / 60, s % 60)
    }
}

/// Experiment scale selected via `FASTOD_SCALE`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Seconds-long sanity runs.
    Smoke,
    /// Minutes-long default (CI-friendly).
    Default,
    /// The paper's full dataset sizes.
    Paper,
}

impl Scale {
    /// Reads `FASTOD_SCALE` (defaults to [`Scale::Default`]).
    pub fn from_env() -> Scale {
        match std::env::var("FASTOD_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            Ok("paper") => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// Picks one of three values by scale.
    pub fn pick<T>(self, smoke: T, default: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Paper => paper,
        }
    }
}

/// Thread counts for the FASTOD threads columns of `exp1`/`exp2`, read from
/// `FASTOD_THREADS` (comma-separated, e.g. `1,2,4,8`; default `1,2,4`).
/// `1` is always included (and listed first) so the speedup baseline exists.
pub fn thread_sweep_from_env() -> Vec<usize> {
    let mut sweep: Vec<usize> = std::env::var("FASTOD_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                // `0` (auto-detect) would sort before the `t=1` baseline and
                // corrupt the speedup column; require explicit counts here.
                .filter(|&t: &usize| t >= 1)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4]);
    if !sweep.contains(&1) {
        sweep.push(1);
    }
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// `t1 / tN` as a table cell (e.g. `2.1x`), or a dash when either run timed
/// out or the denominator is ~zero.
pub fn speedup_str(baseline: Option<Duration>, contender: Option<Duration>) -> String {
    match (baseline, contender) {
        (Some(b), Some(c)) if c.as_secs_f64() > 1e-9 => {
            format!("{:.2}x", b.as_secs_f64() / c.as_secs_f64())
        }
        _ => "—".to_string(),
    }
}

/// One budgeted FASTOD run of a threads sweep (see [`fastod_thread_sweep`]).
pub struct ThreadRun {
    /// The worker-thread count of this run.
    pub threads: usize,
    /// Rendered total running time (timeouts render `*>budget`).
    pub time_str: String,
    /// Validation-phase wall clock, when the run completed.
    pub val_time: Option<Duration>,
    /// This run's own `#ODs (#FDs + #OCDs)` summary, `—` on timeout.
    pub summary: String,
}

/// Runs FASTOD once per thread count in `sweep` under `budget`, returning
/// per-run timings and summaries. Completed runs are cross-checked for a
/// **set-identical cover** (panicking with `label` on divergence — the
/// executor's determinism contract, re-asserted on real workloads); the
/// validation-phase times of the first and last completed entries feed
/// [`speedup_str`].
pub fn fastod_thread_sweep(
    enc: &EncodedRelation,
    sweep: &[usize],
    budget: Duration,
    label: &str,
) -> Vec<ThreadRun> {
    let mut runs = Vec::with_capacity(sweep.len());
    let mut reference_cover: Option<Vec<fastod_theory::CanonicalOd>> = None;
    for &threads in sweep {
        let outcome = run_budgeted(budget, |t| {
            Fastod::new(DiscoveryConfig::default().with_cancel(t).with_threads(threads))
                .try_discover(enc)
        });
        let mut summary = "—".to_string();
        if let Some(r) = outcome.value() {
            summary = r.summary();
            let cover = r.ods.sorted();
            if let Some(reference) = &reference_cover {
                assert_eq!(reference, &cover, "cover diverged across thread counts on {label}");
            } else {
                reference_cover = Some(cover);
            }
        }
        runs.push(ThreadRun {
            threads,
            time_str: outcome.time_str(),
            val_time: outcome.value().map(|r| r.stats.validation_time()),
            summary,
        });
    }
    runs
}

/// The `t=1` → `t=max` validation-phase speedup cell for a sweep's runs.
pub fn sweep_speedup(runs: &[ThreadRun]) -> String {
    speedup_str(
        runs.first().and_then(|r| r.val_time),
        runs.last().and_then(|r| r.val_time),
    )
}

/// Per-run time budget from `FASTOD_BUDGET_SECS` (default 60 s).
pub fn budget_from_env() -> Duration {
    let secs = std::env::var("FASTOD_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(60);
    Duration::from_secs(secs)
}

/// Writes experiment rows as CSV under `results/`, creating the directory.
/// Failures are reported but non-fatal (the stdout table is the artifact).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut body = String::new();
    let _ = writeln!(body, "{}", header.join(","));
    for row in rows {
        let _ = writeln!(body, "{}", row.join(","));
    }
    let dir = std::path::Path::new("results");
    let file_name = format!("{name}.csv");
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(&file_name), body))
    {
        eprintln!("warning: could not write results/{file_name}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgeted_run_completes() {
        let out = run_budgeted(Duration::from_secs(60), |_t| Ok::<_, PassError>(42));
        assert_eq!(out.value(), Some(&42));
        assert!(!out.time_str().starts_with('*'));
        assert_eq!(out.annotate(|v| v.to_string()), "42");
    }

    #[test]
    fn budgeted_run_times_out() {
        let out = run_budgeted(Duration::ZERO, |t| {
            t.check()?;
            Ok::<_, PassError>(1)
        });
        assert!(out.value().is_none());
        assert!(out.time_str().starts_with("*>"));
        assert_eq!(out.annotate(|v| v.to_string()), "—");
    }

    #[test]
    fn duration_formats() {
        assert_eq!(format_duration(Duration::from_millis(5)), "5ms");
        assert_eq!(format_duration(Duration::from_millis(2500)), "2.50s");
        assert_eq!(format_duration(Duration::from_secs(125)), "2m05s");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn thread_sweep_always_has_baseline() {
        let sweep = thread_sweep_from_env();
        assert!(sweep.contains(&1));
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn speedup_formatting() {
        let s = speedup_str(
            Some(Duration::from_millis(400)),
            Some(Duration::from_millis(200)),
        );
        assert_eq!(s, "2.00x");
        assert_eq!(speedup_str(None, Some(Duration::from_millis(1))), "—");
        assert_eq!(speedup_str(Some(Duration::from_millis(1)), None), "—");
    }
}
