//! Aggregated metrics snapshots.
//!
//! `Session::metrics()`, `fastod stats` and `fastod serve --verbose` all
//! report the same [`MetricsSnapshot`] shape: gauges, counters, histogram
//! summaries and span totals, printed by [`MetricsSnapshot::render`] and
//! read one entry at a time through its getters.

use crate::histogram::HistogramSummary;
use std::fmt::Write as _;

/// Per-name span aggregate carried by a snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed wall-clock time across those spans, in nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time aggregation of everything a recorder saw: free-form
/// gauges, monotonic counters, histogram summaries and span totals.
///
/// Sections are kept sorted by name (the recorder's registries are ordered
/// maps), so two snapshots of the same state render identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Free-form point-in-time values (e.g. `relation.peak_bytes`).
    pub gauges: Vec<(String, f64)>,
    /// Monotonic counter totals.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Span aggregates.
    pub spans: Vec<(String, SpanSummary)>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.gauges.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Looks up a span aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders an aligned, human-readable table (the `fastod stats` view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== metrics snapshot ==");
        if self.is_empty() {
            let _ = writeln!(out, "(nothing recorded)");
            return out;
        }
        let width = self
            .gauges
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.counters.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .chain(self.spans.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0)
            .max(10);
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {v:>12.3}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms:{:<pad$}  {:>12} {:>10} {:>10} {:>10} {:>10} {:>12}",
                "",
                "count",
                "p50",
                "p95",
                "p99",
                "max",
                "mean",
                pad = width.saturating_sub(9)
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  {:>12} {:>10} {:>10} {:>10} {:>10} {:>12.1}",
                    h.count, h.p50, h.p95, h.p99, h.max, h.mean
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "spans:{:<pad$}  {:>12} {:>14}",
                "",
                "count",
                "total",
                pad = width.saturating_sub(4)
            );
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  {:>12} {:>12.2}ms",
                    s.count,
                    s.total_ns as f64 / 1e6
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            gauges: vec![("flight".into(), 77.06)],
            counters: vec![("discovery.fd_checks".into(), 1234)],
            histograms: vec![(
                "serve.read_ns".into(),
                HistogramSummary { count: 9, p50: 120, p95: 240, p99: 240, max: 251, mean: 130.4 },
            )],
            spans: vec![("validate_level".into(), SpanSummary { count: 6, total_ns: 12_345_678 })],
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        for needle in ["flight", "discovery.fd_checks", "serve.read_ns", "validate_level"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(MetricsSnapshot::default().render().contains("nothing recorded"));
    }
}
