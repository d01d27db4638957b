//! The observability layer's end-to-end contract: a traced discovery run
//! must tell the same story as `DiscoveryStats`.
//!
//! One relation goes through `Fastod::discover` with a JSONL trace sink
//! attached. The trace must reconstruct the phase structure of the
//! algorithm — one `discover` root, one `level` span per processed lattice
//! level, and `compute_candidates`/`validate_level`/`generate_level`
//! children under each — and the span durations must agree with the
//! `Instant`-based timings the stats module reports independently. The two
//! clocks bracket the same code regions by construction, so they are
//! allowed to diverge only by the per-span bookkeeping itself (a relative
//! ±5% plus a small absolute slack for sub-millisecond phases).

use fastod_suite::obs::{parse_trace, MetricsSnapshot, Obs, TraceEvent};
use fastod_suite::prelude::*;
use std::time::Duration;

/// |measured - reported| within 5% of the larger, plus `slack` for phases
/// too short for a relative bound to be meaningful.
fn close(a: Duration, b: Duration, slack: Duration) -> bool {
    let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
    (a - b).abs() <= 0.05 * a.max(b) + slack.as_secs_f64()
}

#[test]
fn trace_matches_discovery_stats() {
    let trace_path = std::env::temp_dir().join(format!(
        "fastod-observability-{}.jsonl",
        std::process::id()
    ));
    let obs = Obs::to_file(&trace_path).expect("trace file created");

    let rel = fastod_suite::datagen::flight_like(2_000, 8, 0x0B5E);
    let enc = rel.encode();
    let result =
        Fastod::new(DiscoveryConfig::default().with_obs(obs.clone())).discover(&enc);
    obs.flush();

    let text = std::fs::read_to_string(&trace_path).expect("trace readable");
    let _ = std::fs::remove_file(&trace_path);
    let events = parse_trace(&text);
    let stats = &result.stats;
    assert!(!stats.levels.is_empty(), "discovery processed at least one level");

    // Exactly one root: the whole run, carrying the attribute count.
    let roots: Vec<&TraceEvent> = events.iter().filter(|e| e.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one root span, got {roots:?}");
    let root = roots[0];
    assert_eq!(root.name, "discover");
    assert_eq!(root.field("n_attrs"), Some(enc.n_attrs() as u64));
    assert!(
        close(
            Duration::from_nanos(root.dur_ns),
            stats.total_time,
            Duration::from_millis(5)
        ),
        "discover span {}ns vs stats total {:?}",
        root.dur_ns,
        stats.total_time
    );

    // One `level` span per processed lattice level, all parented to the
    // root, with the level/nodes fields matching the stats table row.
    let mut levels: Vec<&TraceEvent> =
        events.iter().filter(|e| e.name == "level").collect();
    levels.sort_by_key(|e| e.field("level"));
    assert_eq!(levels.len(), stats.levels.len());
    for (span, row) in levels.iter().zip(&stats.levels) {
        assert_eq!(span.parent, Some(root.id), "levels hang off the run span");
        assert_eq!(span.field("level"), Some(row.level as u64));
        assert_eq!(span.field("nodes"), Some(row.nodes as u64));
        assert!(
            close(
                Duration::from_nanos(span.dur_ns),
                row.time,
                Duration::from_millis(2)
            ),
            "level {} span {}ns vs stats {:?}",
            row.level,
            span.dur_ns,
            row.time
        );
    }

    // Each level wraps the three phases; phase spans nest under their level
    // and phase totals agree with the stats' independent clocks.
    for phase in ["compute_candidates", "validate_level", "generate_level"] {
        let spans: Vec<&TraceEvent> =
            events.iter().filter(|e| e.name == phase).collect();
        assert_eq!(spans.len(), stats.levels.len(), "{phase} once per level");
        for span in &spans {
            let parent = span.parent.expect("phase spans are never roots");
            assert!(
                levels.iter().any(|l| l.id == parent),
                "{phase} span parented to a level span"
            );
        }
    }
    let phase_total = |name: &str| -> Duration {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| Duration::from_nanos(e.dur_ns))
            .sum()
    };
    assert!(
        close(
            phase_total("validate_level"),
            stats.validation_time(),
            Duration::from_millis(2)
        ),
        "validate spans {:?} vs stats {:?}",
        phase_total("validate_level"),
        stats.validation_time()
    );
    assert!(
        close(
            phase_total("generate_level"),
            stats.generation_time(),
            Duration::from_millis(2)
        ),
        "generate spans {:?} vs stats {:?}",
        phase_total("generate_level"),
        stats.generation_time()
    );

    // The in-memory aggregates describe the same run as the trace file.
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.counter("discover.runs"), Some(1));
    assert_eq!(
        snapshot.counter("discover.ods_found"),
        Some(result.ods.len() as u64)
    );
    assert_eq!(snapshot.span("discover").map(|s| s.count), Some(1));
    assert_eq!(
        snapshot.span("validate_level").map(|s| s.count),
        Some(stats.levels.len() as u64)
    );
    assert!(snapshot.counter("executor.calls").unwrap_or(0) > 0);
    // Every generated child is either refined from a parent or shares the
    // partition of a parent a known FD makes it equal to.
    let products = snapshot.counter("partition.products").unwrap_or(0);
    let shared = snapshot.counter("partition.shared").unwrap_or(0);
    let children: usize = stats.levels.iter().filter(|l| l.level >= 2).map(|l| l.nodes).sum();
    assert_eq!(products + shared, children as u64, "products {products} + shared {shared}");
    assert!(products > 0 && shared > 0, "products {products}, shared {shared}");
    // Every order check is counted once, under the kernel that ran it.
    // Level 2's unit context (one class of 2000 rows) is τ-scanned; the
    // small-class contexts of deeper levels are swept.
    let sweeps = snapshot.counter("validate.order_sweep").unwrap_or(0);
    let taus = snapshot.counter("validate.order_tau").unwrap_or(0);
    let swap_checks: usize = stats.levels.iter().map(|l| l.swap_checks).sum();
    assert_eq!(
        sweeps + taus,
        swap_checks as u64,
        "sweep {sweeps} + tau {taus}"
    );
    assert!(sweeps > 0 && taus > 0, "sweep {sweeps}, tau {taus}");
}

/// A maintenance pass accounts for its own time: the direct children of
/// `maintenance_pass` (tombstone removal, the level-1 appends, the lattice
/// levels and the snapshot hand-over) cover at least 95% of its duration,
/// for delete passes and for update passes alike (three of each, summed).
#[test]
fn maintenance_pass_children_cover_the_pass() {
    let rel = fastod_suite::datagen::flight_like(4_000, 8, 0x0B5F);
    let obs = Obs::enabled();
    let cfg = DiscoveryConfig::default().with_obs(obs.clone());
    let mut engine = IncrementalDiscovery::with_config(&rel.head(3_000), cfg).unwrap();
    let total_ns = |snap: &MetricsSnapshot, name: &str| snap.span(name).map_or(0, |s| s.total_ns);
    let children = ["remove_rows", "level1", "level", "advance_snapshot"];
    let mut check = |pass: &str, run: &mut dyn FnMut(&mut IncrementalDiscovery, usize)| {
        let before = obs.snapshot();
        for round in 0..3 {
            run(&mut engine, round);
        }
        let after = obs.snapshot();
        let delta = |name: &str| total_ns(&after, name) - total_ns(&before, name);
        let pass_ns = delta("maintenance_pass");
        let covered: u64 = children.iter().map(|&name| delta(name)).sum();
        assert!(pass_ns > 0, "{pass} passes recorded no span");
        assert!(
            covered as f64 >= 0.95 * pass_ns as f64,
            "{pass} passes: children cover {covered}ns of {pass_ns}ns"
        );
    };
    check("delete", &mut |engine, round| {
        let deleted: Vec<usize> = (round..3_000).step_by(60).collect();
        engine.delete_rows(&deleted).unwrap();
    });
    check("update", &mut |engine, round| {
        // Rows 3000.. of `rel` are unused so far: each round takes the next 25.
        let updated: Vec<usize> = (round + 30..3_000).step_by(120).collect();
        let fresh: Vec<usize> = (0..updated.len()).map(|i| 3_000 + 25 * round + i).collect();
        engine.update_rows(&updated, &rel.select_rows(&fresh)).unwrap();
    });
}

/// The direct children of `maintenance_pass` tile it: each opens at the
/// instant the previous one closed, so their durations sum to the pass's
/// to the nanosecond, however the engine thread was scheduled.
#[test]
fn maintenance_pass_children_tile_the_pass() {
    let rel = fastod_suite::datagen::flight_like(500, 6, 0x0B61);
    let obs = Obs::enabled();
    let cfg = DiscoveryConfig::default().with_obs(obs.clone());
    let mut engine = IncrementalDiscovery::with_config(&rel.head(400), cfg).unwrap();
    let total_ns = |snap: &MetricsSnapshot, name: &str| snap.span(name).map_or(0, |s| s.total_ns);
    let children = ["remove_rows", "level1", "level", "advance_snapshot"];
    let mut check = |pass: &str, run: &mut dyn FnMut(&mut IncrementalDiscovery)| {
        let before = obs.snapshot();
        run(&mut engine);
        let after = obs.snapshot();
        let delta = |name: &str| total_ns(&after, name) - total_ns(&before, name);
        let covered: u64 = children.iter().map(|&name| delta(name)).sum();
        assert_eq!(covered, delta("maintenance_pass"), "{pass} pass");
    };
    check("append", &mut |engine| {
        let fresh: Vec<usize> = (400..450).collect();
        engine.push_batch(&rel.select_rows(&fresh)).unwrap();
    });
    check("delete", &mut |engine| {
        let deleted: Vec<usize> = (0..400).step_by(9).collect();
        engine.delete_rows(&deleted).unwrap();
    });
    check("update", &mut |engine| {
        // Rows `1 mod 9`, which the delete pass kept.
        let updated: Vec<usize> = (1..400).step_by(9).collect();
        let fresh: Vec<usize> = (450..450 + updated.len()).collect();
        engine.update_rows(&updated, &rel.select_rows(&fresh)).unwrap();
    });
}

/// A maintenance pass accounts for every child it generates: each is
/// shared, recomputed, absorbed or reused, so for an append, a delete and
/// an update pass the four counters sum to the `nodes` of the pass's
/// `level` spans above level 1. The absorbs are `partitions_appended`
/// minus the level-1 appends. The engine's shares and products also land in
/// `partition.shared` and `partition.products`, as one-shot discovery's do.
#[test]
fn maintenance_pass_children_add_up() {
    let trace_path = std::env::temp_dir().join(format!(
        "fastod-observability-children-{}.jsonl",
        std::process::id()
    ));
    let obs = Obs::to_file(&trace_path).expect("trace file created");
    let rel = fastod_suite::datagen::flight_like(500, 6, 0x0B62);
    let n_attrs = rel.n_attrs();
    let cfg = DiscoveryConfig::default().with_obs(obs.clone());
    let mut engine = IncrementalDiscovery::with_config(&rel.head(400), cfg).unwrap();
    let counter = |snap: &MetricsSnapshot, name: &str| snap.counter(name).unwrap_or(0);
    // Per pass: its name, counters, partition.shared and partition.products
    // deltas, and how many level-1 partitions absorbed appended rows.
    let mut passes = Vec::new();
    let mut check = |pass: &'static str,
                     level1_appends: usize,
                     run: &mut dyn FnMut(&mut IncrementalDiscovery) -> BatchReport| {
        let before = obs.snapshot();
        let report = run(&mut engine);
        let after = obs.snapshot();
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        let c = report.counters;
        assert_eq!(delta("partition.shared"), c.nodes_shared as u64, "{pass} pass");
        assert_eq!(delta("partition.products"), c.nodes_recomputed as u64, "{pass} pass");
        let generated = c.nodes_shared + c.nodes_recomputed + c.nodes_reused
            + c.partitions_appended
            - level1_appends;
        passes.push((pass, generated, c));
    };
    check("append", n_attrs, &mut |engine| {
        let fresh: Vec<usize> = (400..450).collect();
        engine.push_batch(&rel.select_rows(&fresh)).unwrap()
    });
    check("delete", 0, &mut |engine| {
        let deleted: Vec<usize> = (0..400).step_by(9).collect();
        engine.delete_rows(&deleted).unwrap()
    });
    check("update", n_attrs, &mut |engine| {
        let updated: Vec<usize> = (1..400).step_by(9).collect();
        let fresh: Vec<usize> = (450..450 + updated.len()).collect();
        engine.update_rows(&updated, &rel.select_rows(&fresh)).unwrap()
    });
    obs.flush();
    let text = std::fs::read_to_string(&trace_path).expect("trace readable");
    let _ = std::fs::remove_file(&trace_path);
    let events = parse_trace(&text);
    let mut pass_spans: Vec<&TraceEvent> =
        events.iter().filter(|e| e.name == "maintenance_pass").collect();
    pass_spans.sort_by_key(|e| e.id);
    // The first pass is the engine's initial build.
    assert_eq!(pass_spans.len(), 1 + passes.len());
    for (span, (pass, generated, c)) in pass_spans[1..].iter().zip(&passes) {
        let children: u64 = events
            .iter()
            .filter(|e| e.name == "level" && e.parent == Some(span.id))
            .filter(|e| e.field("level").is_some_and(|l| l >= 2))
            .filter_map(|e| e.field("nodes"))
            .sum();
        assert!(children > 0, "{pass} pass generated no child");
        assert_eq!(*generated as u64, children, "{pass} pass: {c:?}");
    }
    let shared: usize = passes.iter().map(|(_, _, c)| c.nodes_shared).sum();
    assert!(shared > 0, "no pass shared a partition");
}

/// One-shot discovery accounts for its own time as well: level 1 and the
/// lattice levels cover at least 95% of `discover`, at one and two
/// threads, on a relation long enough that level 1 is a large share of a
/// run capped at level 2.
#[test]
fn discover_children_cover_the_run() {
    let enc = fastod_suite::datagen::flight_like(200_000, 4, 0x0B60).encode();
    for threads in [1, 2] {
        let obs = Obs::enabled();
        let cfg = DiscoveryConfig::default()
            .with_threads(threads)
            .with_max_level(2)
            .with_obs(obs.clone());
        Fastod::new(cfg).discover(&enc);
        let snap = obs.snapshot();
        let total_ns = |name: &str| snap.span(name).map_or(0, |s| s.total_ns);
        let run_ns = total_ns("discover");
        let covered = total_ns("level1") + total_ns("level");
        assert!(run_ns > 0, "threads={threads}: no discover span");
        assert!(
            covered as f64 >= 0.95 * run_ns as f64,
            "threads={threads}: level1 and level cover {covered}ns of {run_ns}ns"
        );
    }
}
