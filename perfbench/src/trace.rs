//! Spans the benchmark opens around its calls into each layer.
//!
//! Spans are recorded from the outside: the program under test is not
//! instrumented, so a span covers exactly one call into a layer's public
//! functions. They are kept in memory, nest as operation → layer →
//! per-level phase (the `level` field), and are written to a JSONL trace
//! file when the run ends. A span's *self time* is its duration minus the
//! part its children cover; a layer's self time sums its spans' self times,
//! and the root's self time is what no layer accounts for.

use crate::measure::median;
use crate::{Ctx, Report, ACCOUNTING_BOUND};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub level: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder. A disabled recorder costs one branch per span.
pub struct Recorder {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Closes its span when dropped.
pub struct Guard<'r> {
    rec: &'r Recorder,
    id: Option<usize>,
}

impl Recorder {
    pub fn on() -> Recorder {
        Recorder {
            on: true,
            origin: Instant::now(),
            inner: RefCell::default(),
        }
    }

    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.open(name, None)
    }

    pub fn span_at(&self, name: &'static str, level: usize) -> Guard<'_> {
        self.open(name, Some(level))
    }

    fn open(&self, name: &'static str, level: Option<usize>) -> Guard<'_> {
        if !self.on {
            return Guard {
                rec: self,
                id: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let parent = inner.open.last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        inner.spans.push(Span {
            parent,
            name,
            level,
            start,
            end: start,
        });
        inner.open.push(id);
        Guard {
            rec: self,
            id: Some(id),
        }
    }

    /// Takes every span recorded so far (all must be closed).
    pub fn take(&self) -> Vec<Span> {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.open.is_empty(), "spans still open");
        std::mem::take(&mut inner.spans)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let mut inner = self.rec.inner.borrow_mut();
            inner.spans[id].end = self.rec.origin.elapsed().as_secs_f64();
            inner.open.pop();
        }
    }
}

/// One traced operation: a root span and everything under it.
pub struct OpTrace {
    pub threads: usize,
    pub spans: Vec<Span>,
    /// The root span's duration.
    pub wall: f64,
    /// Inclusive seconds per span name, summed over levels.
    pub totals: BTreeMap<&'static str, f64>,
    /// Self seconds per layer (the root excluded).
    pub layer_self: BTreeMap<&'static str, f64>,
    /// The root's self time: the wall no layer span covers.
    pub unattributed: f64,
}

impl OpTrace {
    /// Builds the per-name and per-layer sums. `spans[0]` must be the root.
    pub fn new(threads: usize, spans: Vec<Span>) -> OpTrace {
        assert!(
            spans.first().is_some_and(|s| s.parent.is_none()),
            "first span must be the root"
        );
        let mut child_time = vec![0.0; spans.len()];
        for span in &spans {
            if let Some(p) = span.parent {
                child_time[p] += span.dur();
            }
        }
        let mut totals = BTreeMap::new();
        let mut layer_self = BTreeMap::new();
        for (span, child) in spans.iter().zip(&child_time).skip(1) {
            *totals.entry(span.name).or_insert(0.0) += span.dur();
            *layer_self.entry(span.layer()).or_insert(0.0) += span.dur() - child;
        }
        OpTrace {
            threads,
            wall: spans[0].dur(),
            unattributed: spans[0].dur() - child_time[0],
            totals,
            layer_self,
            spans,
        }
    }

    /// Inclusive seconds under `name` (0 when the op never opened it).
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// The share of the wall that no layer span accounts for. Layer self
    /// times plus the unattributed time sum to the wall by construction, so
    /// this is how far the layers fall short of explaining it.
    pub fn unattributed_frac(&self) -> f64 {
        self.unattributed / self.wall.max(f64::MIN_POSITIVE)
    }

    /// Appends one JSONL line per span.
    pub fn write_jsonl(&self, workload: &str, op: usize, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"workload\":\"{workload}\",\"op\":{op},\"threads\":{},\"id\":{id},\"name\":\"{}\"",
                self.threads, s.name
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(l) = s.level {
                let _ = write!(out, ",\"level\":{l}");
            }
            let _ = writeln!(out, ",\"start_s\":{},\"dur_s\":{}}}", s.start, s.dur());
        }
    }
}

/// The trace-wide metrics and the layer-accounting check.
pub fn finish_trace(ctx: &Ctx, ops: &[&OpTrace], untraced_t1_wall: f64, report: &mut Report) {
    let pick = |threads: usize, f: &dyn Fn(&OpTrace) -> f64| {
        median(
            &ops.iter()
                .filter(|op| op.threads == threads)
                .map(|op| f(op))
                .collect::<Vec<_>>(),
        )
    };
    let wall = pick(1, &|op| op.wall);
    report.set("trace.wall_s", wall);
    report.set("trace.wall_tn_s", pick(ctx.threads_n, &|op| op.wall));
    report.set("trace.overhead_s", wall - untraced_t1_wall);
    report.set("core.unattributed_s", pick(1, &|op| op.unattributed));
    report.set(
        "trace.bench_s",
        pick(1, &|op| op.layer_self.get("bench").copied().unwrap_or(0.0)),
    );
    report.set("trace.ops", ops.len() as f64);
    let fracs: Vec<f64> = ops.iter().map(|op| op.unattributed_frac()).collect();
    report.set("trace.unattributed_frac", median(&fracs));
    let mut short = 0;
    for (i, op) in ops.iter().enumerate() {
        if op.unattributed_frac() > ACCOUNTING_BOUND {
            short += 1;
            report.notes.push(format!(
                "accounting: traced op {i} (threads={}) leaves {:.1}% of its {:.3}s wall \
                 outside every layer (bound {:.0}%)",
                op.threads,
                op.unattributed_frac() * 100.0,
                op.wall,
                ACCOUNTING_BOUND * 100.0
            ));
        }
    }
    report.notes.push(format!(
        "accounting: layer self times explain the wall within {:.0}% in {} of {} traced ops",
        ACCOUNTING_BOUND * 100.0,
        ops.len() - short,
        ops.len()
    ));
    let layers: Vec<String> = ops
        .first()
        .map(|op| {
            op.layer_self
                .iter()
                .map(|(l, s)| format!("{l}={s:.4}s"))
                .collect()
        })
        .unwrap_or_default();
    report.notes.push(format!(
        "layer self times of traced op 0: {}",
        layers.join(" ")
    ));
}
