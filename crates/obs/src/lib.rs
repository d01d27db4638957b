//! # fastod-obs
//!
//! A dependency-free structured tracing + metrics runtime for the FASTOD
//! suite (the offline workspace has no `tracing`; this crate is the
//! equivalent surface built on `std` alone).
//!
//! ## Design
//!
//! Everything hangs off an [`Obs`] **handle** — a cheap-to-clone
//! `Option<Arc<...>>` threaded through configuration (there is deliberately
//! no global recorder: tests run many discoveries in one process, and a
//! server wants per-registry aggregation). A disabled handle (the
//! [`Obs::disabled`] default) is `None` inside: every instrumentation call
//! is a single branch on the hot path, no atomics, no allocation — cheap
//! enough to compile into the partition product loop (pinned by a
//! `partition_hot` bench row).
//!
//! Three primitives:
//!
//! * **spans** — [`Obs::span`] returns an RAII [`SpanGuard`]; on drop it
//!   records wall-time into a per-name aggregate and, when a trace sink is
//!   attached, writes one JSONL event (see [`trace`] for the schema).
//!   Nesting is tracked by a thread-local stack, so parent/child structure
//!   falls out of lexical scoping with no plumbing.
//! * **counters** — monotonic `u64`s. Resolve a [`Counter`] handle once
//!   ([`Obs::counter`]) and hot loops pay one relaxed `fetch_add`; totals
//!   are exact under any interleaving.
//! * **histograms** — shared [`LogHistogram`]s (fixed log2 buckets,
//!   p50/p95/p99 readout) for latency distributions; recording is
//!   lock-free and allocation-free.
//!
//! [`Obs::snapshot`] aggregates everything into a [`MetricsSnapshot`],
//! the shape `fastod stats` and `Session::metrics()` both print.
//!
//! ## Quickstart
//!
//! ```
//! use fastod_obs::Obs;
//!
//! let obs = Obs::enabled();
//! let items = obs.counter("worked.items");
//! {
//!     let _span = obs.span_with("phase", &[("level", 2)]);
//!     for _ in 0..10 {
//!         items.incr();
//!     }
//! } // span closes here, recording its wall time
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("worked.items"), Some(10));
//! assert_eq!(snap.span("phase").unwrap().count, 1);
//! ```

#![deny(missing_docs)]

mod histogram;
pub mod json;
mod snapshot;
pub mod trace;

pub use histogram::{HistogramSummary, LogHistogram, N_BUCKETS};
pub use snapshot::{MetricsSnapshot, SpanSummary};
pub use trace::{parse_trace, TraceEvent};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Distinguishes recorders sharing one thread's span stack.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);
/// Small human-readable per-thread labels for trace events.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The stack of open span `(recorder instance, span id)` pairs on this
    /// thread — how a new span finds its parent.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD_LABEL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn thread_label() -> u64 {
    THREAD_LABEL.with(|label| {
        let mut id = label.get();
        if id == 0 {
            id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            label.set(id);
        }
        id
    })
}

/// Survives a poisoned lock: metrics must never propagate a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
}

struct Inner {
    /// Stack-identity of this recorder (see [`SPAN_STACK`]).
    instance: u64,
    /// Zero point for trace `start_ns` stamps.
    epoch: Instant,
    next_span_id: AtomicU64,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    trace: Option<Mutex<Box<dyn Write + Send>>>,
}

impl Inner {
    fn new(trace: Option<Box<dyn Write + Send>>) -> Inner {
        Inner {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(0),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            trace: trace.map(Mutex::new),
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(trace) = &self.trace {
            let _ = lock(trace).flush();
        }
    }
}

/// The recorder handle: clone freely, thread through configuration.
///
/// A **disabled** handle (the default) carries no state — every call is one
/// branch. An **enabled** handle shares one recorder: all clones feed the
/// same counters, histograms, span aggregates and (optional) trace sink,
/// and [`Obs::snapshot`] reads them all back. See the [crate docs](self).
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// The no-op recorder: nothing is recorded, nothing is allocated, every
    /// instrumentation call is a single branch.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An in-memory recorder: counters/histograms/span aggregates, no trace
    /// sink. Read back with [`Obs::snapshot`].
    pub fn enabled() -> Obs {
        Obs { inner: Some(Arc::new(Inner::new(None))) }
    }

    /// An in-memory recorder that additionally writes one JSONL event per
    /// span close to `writer` (see [`trace`] for the schema).
    pub fn with_trace_writer(writer: Box<dyn Write + Send>) -> Obs {
        Obs { inner: Some(Arc::new(Inner::new(Some(writer)))) }
    }

    /// Like [`Obs::with_trace_writer`], buffered to a file (the CLI's
    /// `--trace out.jsonl`).
    ///
    /// # Errors
    /// Propagates the file creation failure.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Obs> {
        let file = std::fs::File::create(path)?;
        Ok(Obs::with_trace_writer(Box::new(std::io::BufWriter::new(file))))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves a counter handle. Resolve once outside hot loops: the
    /// handle's [`Counter::add`] is a single relaxed `fetch_add`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(lock(&inner.counters).entry(name.to_string()).or_default())
        }))
    }

    /// Adds to a counter by name (registry lookup per call — fine for
    /// per-level or per-pass call sites; resolve a [`Counter`] for loops).
    pub fn add(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// Resolves a histogram handle (shared [`LogHistogram`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(lock(&inner.histograms).entry(name.to_string()).or_default())
        }))
    }

    /// Sets a free-form gauge (point-in-time value, e.g. a perf-gate
    /// milliseconds figure).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.gauges).insert(name.to_string(), value);
        }
    }

    /// Opens a span; its wall time is recorded when the returned guard
    /// drops. Nesting is tracked per thread: drop the guard on the thread
    /// that opened it (the natural RAII usage).
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// Opens a span with attached integer fields (e.g.
    /// `obs.span_with("validate_level", &[("level", 3)])`).
    pub fn span_with(&self, name: &'static str, fields: &[(&'static str, u64)]) -> SpanGuard {
        self.open(name, fields, Instant::now)
    }

    /// [`Obs::span_with`] for a span that started at `start`, an instant
    /// the caller read for its own clock. Closing it with
    /// [`SpanGuard::end_at`] on the caller's end instant makes the span's
    /// duration equal the caller's measurement, whatever preempts the
    /// thread in between.
    pub fn span_from(
        &self,
        name: &'static str,
        fields: &[(&'static str, u64)],
        start: Instant,
    ) -> SpanGuard {
        self.open(name, fields, || start)
    }

    /// Opens a span starting at `start()`, read after the bookkeeping.
    fn open(
        &self,
        name: &'static str,
        fields: &[(&'static str, u64)],
        start: impl FnOnce() -> Instant,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard(None);
        };
        let id = inner.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .last()
                .and_then(|&(instance, open_id)| (instance == inner.instance).then_some(open_id));
            stack.push((inner.instance, id));
            parent
        });
        SpanGuard(Some(ActiveSpan {
            inner: Arc::clone(inner),
            name,
            id,
            parent,
            fields: fields.to_vec(),
            start: start(),
        }))
    }

    /// Aggregates everything recorded so far into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            gauges: lock(&inner.gauges).iter().map(|(n, &v)| (n.clone(), v)).collect(),
            counters: lock(&inner.counters)
                .iter()
                .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
                .collect(),
            histograms: lock(&inner.histograms)
                .iter()
                .map(|(n, h)| (n.clone(), h.summary()))
                .collect(),
            spans: lock(&inner.spans)
                .iter()
                .map(|(n, agg)| {
                    (n.clone(), SpanSummary { count: agg.count, total_ns: agg.total_ns })
                })
                .collect(),
        }
    }

    /// Flushes the trace sink, if any. Called by the CLI before exit;
    /// dropping the last handle also flushes.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(trace) = &inner.trace {
                let _ = lock(trace).flush();
            }
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.is_enabled()).finish()
    }
}

/// A resolved monotonic counter. Disabled handles (from a disabled [`Obs`])
/// are free: one branch, no atomics.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`. Exact under concurrency (relaxed `fetch_add`).
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total (`0` when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("enabled", &self.is_enabled()).finish()
    }
}

/// A resolved histogram handle over a shared [`LogHistogram`].
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<LogHistogram>>);

impl Histogram {
    /// Records one sample (lock-free; no-op when disabled).
    pub fn record(&self, value: u64) {
        if let Some(hist) = &self.0 {
            hist.record(value);
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The underlying shared histogram, when enabled.
    pub fn shared(&self) -> Option<&LogHistogram> {
        self.0.as_deref()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("enabled", &self.is_enabled()).finish()
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    fields: Vec<(&'static str, u64)>,
    start: Instant,
}

/// RAII span guard from [`Obs::span`]; records wall time (and, with a trace
/// sink, one JSONL event) when dropped.
#[must_use = "a span measures the scope of its guard — bind it with `let _span = ...`"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Whether this guard records anything on drop.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Closes the span at `end`, an instant the caller read for its own
    /// clock, instead of at the drop.
    pub fn end_at(mut self, end: Instant) {
        if let Some(span) = self.0.take() {
            ActiveSpan::close(span, end);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.0.take() {
            ActiveSpan::close(span, Instant::now());
        }
    }
}

impl ActiveSpan {
    /// Records `span` as ending at `end`.
    fn close(span: ActiveSpan, end: Instant) {
        let dur = end.saturating_duration_since(span.start);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards usually drop in LIFO order; tolerate out-of-order
            // drops by removing this span's entry wherever it sits.
            if let Some(at) = stack
                .iter()
                .rposition(|&(instance, id)| instance == span.inner.instance && id == span.id)
            {
                stack.remove(at);
            }
        });
        {
            let mut spans = lock(&span.inner.spans);
            let agg = spans.entry(span.name.to_string()).or_default();
            agg.count += 1;
            agg.total_ns += dur.as_nanos() as u64;
        }
        if let Some(trace) = &span.inner.trace {
            let start_ns =
                span.start.saturating_duration_since(span.inner.epoch).as_nanos() as u64;
            let mut line = String::with_capacity(128);
            let _ = write!(line, "{{\"type\": \"span\", \"name\": \"{}\", \"id\": {}", span.name, span.id);
            if let Some(parent) = span.parent {
                let _ = write!(line, ", \"parent\": {parent}");
            }
            let _ = write!(
                line,
                ", \"thread\": {}, \"start_ns\": {start_ns}, \"dur_ns\": {}",
                thread_label(),
                dur.as_nanos() as u64
            );
            if !span.fields.is_empty() {
                let _ = write!(line, ", \"fields\": {{");
                for (i, (name, value)) in span.fields.iter().enumerate() {
                    let sep = if i + 1 < span.fields.len() { ", " } else { "" };
                    let _ = write!(line, "\"{name}\": {value}{sep}");
                }
                let _ = write!(line, "}}");
            }
            line.push_str("}\n");
            let _ = lock(trace).write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        obs.histogram("h").record(1);
        obs.set_gauge("g", 1.0);
        let _span = obs.span("s");
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn disabled_handles_are_pointer_sized() {
        // The no-op path must stay branch-plus-nothing: handles are a bare
        // nullable pointer, guards carry no payload.
        assert_eq!(std::mem::size_of::<Counter>(), std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<Histogram>(), std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<Obs>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let obs = Obs::enabled();
        let c = obs.counter("hits");
        c.add(2);
        obs.counter("hits").incr(); // same counter via re-resolution
        obs.add("hits", 3);
        obs.set_gauge("temp", 1.5);
        obs.set_gauge("temp", 2.5);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hits"), Some(6));
        assert_eq!(snap.gauge("temp"), Some(2.5));
    }

    #[test]
    fn clones_share_the_recorder() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter("shared").add(7);
        assert_eq!(obs.snapshot().counter("shared"), Some(7));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let obs = Obs::enabled();
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
            }
            {
                let _inner = obs.span("inner");
            }
        }
        let snap = obs.snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("inner").unwrap().count, 2);
    }

    #[test]
    fn trace_writer_emits_nested_jsonl() {
        // A Vec<u8> sink through a leaked Arc is overkill; use a temp file.
        let path = std::env::temp_dir()
            .join(format!("fastod_obs_test_{}_{:?}.jsonl", std::process::id(), std::thread::current().id()));
        let obs = Obs::to_file(&path).unwrap();
        {
            let _root = obs.span_with("discover", &[]);
            let _level = obs.span_with("level", &[("level", 1)]);
            let _leaf = obs.span("validate_level");
        }
        obs.flush();
        let events = parse_trace(&std::fs::read_to_string(&path).unwrap());
        let _ = std::fs::remove_file(&path);
        assert_eq!(events.len(), 3);
        // Close order: leaf, level, root.
        let (leaf, level, root) = (&events[0], &events[1], &events[2]);
        assert_eq!(root.name, "discover");
        assert_eq!(root.parent, None);
        assert_eq!(level.parent, Some(root.id));
        assert_eq!(level.field("level"), Some(1));
        assert_eq!(leaf.parent, Some(level.id));
        assert!(root.dur_ns >= level.dur_ns);
    }

    /// A span opened at and closed on the caller's instants records
    /// exactly their difference, and a disabled recorder records nothing.
    #[test]
    fn span_from_and_end_at_share_the_callers_clock() {
        let obs = Obs::enabled();
        let start = Instant::now();
        let span = obs.span_from("timed", &[("level", 1)], start);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let end = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        span.end_at(end);
        let snap = obs.snapshot();
        let recorded = snap.span("timed").unwrap();
        assert_eq!(recorded.count, 1);
        assert_eq!(recorded.total_ns, (end - start).as_nanos() as u64);
        let disabled = Obs::disabled();
        let span = disabled.span_from("timed", &[], start);
        assert!(!span.is_enabled());
        span.end_at(end);
        assert!(disabled.snapshot().is_empty());
    }

    #[test]
    fn two_recorders_do_not_cross_parent() {
        let a = Obs::enabled();
        let b = Obs::enabled();
        let _outer = a.span("a_outer");
        {
            // b's span opens while a's is on the stack; different recorder,
            // so it must be a root in b's trace.
            let guard = b.span("b_root");
            assert!(guard.is_enabled());
            drop(guard);
        }
        assert_eq!(b.snapshot().span("b_root").unwrap().count, 1);
    }

    #[test]
    fn counter_totals_exact_across_threads() {
        let obs = Obs::enabled();
        let counter = obs.counter("n");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..25_000 {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(obs.snapshot().counter("n"), Some(100_000));
    }

    /// The disabled path must stay near-free. Release-only: debug builds
    /// are unoptimized and the bound would flake.
    #[cfg(not(debug_assertions))]
    #[test]
    fn disabled_counter_overhead_is_nanoscale() {
        let obs = Obs::disabled();
        let counter = obs.counter("x");
        let start = Instant::now();
        for i in 0..10_000_000u64 {
            counter.add(std::hint::black_box(i));
        }
        let per_op = start.elapsed().as_nanos() as f64 / 1e7;
        assert!(per_op < 20.0, "disabled counter add took {per_op:.1} ns/op");
    }
}
