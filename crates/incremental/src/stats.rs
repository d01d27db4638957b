//! Per-batch reports and cumulative engine statistics.

use fastod_obs::Obs;
use fastod_theory::CanonicalOd;
use std::fmt;
use std::time::Duration;

/// Work counters for one maintenance pass, split by how each piece of work
/// was resolved. `skipped_*` are the incremental wins; `revalidated`,
/// `partitions_appended` and `nodes_recomputed` are where the engine
/// actually touched data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Candidate ODs skipped because a cached `false` verdict is binding
    /// forever under appends.
    pub skipped_false: usize,
    /// Candidate ODs skipped because their cached `true` verdict's context
    /// partition was untouched by the batch.
    pub skipped_clean: usize,
    /// Candidate ODs validated against the full instance (new candidates
    /// plus dirty cached-`true` ones).
    pub revalidated: usize,
    /// Re-validations whose verdict flipped `true → false` (falsifications).
    pub verdicts_flipped: usize,
    /// Cached `false` verdicts re-confirmed in O(1) by a still-live cached
    /// **witness pair** (a violating pair stays violating until one of its
    /// rows is deleted).
    pub witness_skips: usize,
    /// Always 0: the engine counts no violations, so no count is ever
    /// materialized. The field remains only because the `maintain`
    /// workload of the benchmark reads it; it is left out of
    /// [`BatchCounters::fields`], the [`Display`](fmt::Display) render and
    /// [`BatchCounters::export_counters`].
    pub recounted: usize,
    /// Cached verdicts that flipped `false → true` in a delete pass — ODs
    /// *revived* because their last violating pair was deleted.
    pub verdicts_revived: usize,
    /// Delete-pass entries on a touched context whose cached witness pair
    /// was missing or dead, and which escalated to a fresh witness search.
    /// Each batch runs them as one map over the executor's workers; a
    /// subset of [`BatchCounters::revalidated`].
    pub escalated_searches: usize,
    /// Cache entries dropped because the pass could have changed them but
    /// no retained state could prove otherwise (context not retained or not
    /// in the current lattice); they are revalidated when next gathered.
    pub entries_dropped: usize,
    /// Lattice nodes whose retained partition was reused with a row-count
    /// bump (clean nodes).
    pub nodes_reused: usize,
    /// Lattice nodes with no retained partition (new, pruned in an earlier
    /// pass, or a released sharer whose FD broke), computed as a parent
    /// product.
    pub nodes_recomputed: usize,
    /// Lattice nodes given the partition of a parent that this pass's
    /// partitions show to determine the attribute they add: no rows read.
    /// Every generated node is shared, recomputed, reused or absorbing.
    pub nodes_shared: usize,
    /// Retained partitions that absorbed appended rows in place: every
    /// retained level-1 partition of an append pass, plus every deeper
    /// retained node whose two generating parents the batch made dirty.
    pub partitions_appended: usize,
    /// Nodes marked dirty — contexts the batch can actually have broken.
    pub dirty_nodes: usize,
}

impl BatchCounters {
    /// Every counter but [`recounted`](BatchCounters::recounted) as a
    /// `(name, value)` pair, in declaration order — the single source for
    /// [`BatchCounters::export_counters`] and the
    /// [`Display`](fmt::Display) render.
    pub fn fields(&self) -> [(&'static str, usize); 13] {
        [
            ("skipped_false", self.skipped_false),
            ("skipped_clean", self.skipped_clean),
            ("revalidated", self.revalidated),
            ("verdicts_flipped", self.verdicts_flipped),
            ("witness_skips", self.witness_skips),
            ("verdicts_revived", self.verdicts_revived),
            ("escalated_searches", self.escalated_searches),
            ("entries_dropped", self.entries_dropped),
            ("nodes_reused", self.nodes_reused),
            ("nodes_recomputed", self.nodes_recomputed),
            ("nodes_shared", self.nodes_shared),
            ("partitions_appended", self.partitions_appended),
            ("dirty_nodes", self.dirty_nodes),
        ]
    }

    /// Adds every counter to `obs` under `incr.<field>` — how a pass's
    /// certificate-ladder outcomes land in a [`fastod_obs::MetricsSnapshot`].
    pub fn export_counters(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        for (name, value) in self.fields() {
            obs.add(&format!("incr.{name}"), value as u64);
        }
    }

    /// Folds another pass's counters into this one.
    pub fn absorb(&mut self, other: &BatchCounters) {
        self.skipped_false += other.skipped_false;
        self.skipped_clean += other.skipped_clean;
        self.revalidated += other.revalidated;
        self.verdicts_flipped += other.verdicts_flipped;
        self.witness_skips += other.witness_skips;
        self.verdicts_revived += other.verdicts_revived;
        self.escalated_searches += other.escalated_searches;
        self.entries_dropped += other.entries_dropped;
        self.nodes_reused += other.nodes_reused;
        self.nodes_recomputed += other.nodes_recomputed;
        self.nodes_shared += other.nodes_shared;
        self.partitions_appended += other.partitions_appended;
        self.dirty_nodes += other.dirty_nodes;
    }
}

/// Compact one-line render: zero counters are elided, so a typical
/// append pass reads `skipped_false=812 skipped_clean=95 revalidated=3
/// nodes_reused=40 partitions_appended=5`. All-zero renders `(no work)`.
impl fmt::Display for BatchCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (name, value) in self.fields() {
            if value != 0 {
                if any {
                    f.write_str(" ")?;
                }
                write!(f, "{name}={value}")?;
                any = true;
            }
        }
        if !any {
            f.write_str("(no work)")?;
        }
        Ok(())
    }
}

/// What one mutation ([`crate::IncrementalDiscovery::push_batch`],
/// [`delete_rows`](crate::IncrementalDiscovery::delete_rows) or
/// [`update_rows`](crate::IncrementalDiscovery::update_rows)) did to the
/// cover.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Rows the mutation appended.
    pub appended_rows: usize,
    /// Rows the mutation tombstoned.
    pub deleted_rows: usize,
    /// Live rows after the mutation (physical slots minus tombstones).
    pub n_rows: usize,
    /// Cover members that left the cover: falsified by appended rows, or
    /// un-minimalized because a delete revived a more general OD that now
    /// implies them.
    pub retired: Vec<CanonicalOd>,
    /// ODs that entered the cover: promoted into minimality after an append
    /// falsified the member that implied them, or revived outright by a
    /// delete removing their last violating pair.
    pub promoted: Vec<CanonicalOd>,
    /// Work breakdown for the pass.
    pub counters: BatchCounters,
    /// Wall-clock time of the pass (excluding encoding of the batch).
    pub elapsed: Duration,
}

/// Cumulative statistics over the engine's lifetime. The initial discovery
/// counts as a pass: the engine conceptually starts empty, so the seed
/// relation's rows are "appended" by pass 1 and the whole initial cover is
/// "promoted" by it. Subtract pass 1's contribution when measuring batch
/// churn alone.
#[derive(Clone, Debug, Default)]
pub struct IncrementalStats {
    /// Maintenance passes run (including the initial discovery; every
    /// mutation — append, delete or update — is one combined pass).
    pub passes: usize,
    /// Rows absorbed across all passes (the seed relation counts, via the
    /// initial pass).
    pub rows_appended: usize,
    /// Rows tombstoned across all passes (updates count their replaced
    /// rows here *and* in [`IncrementalStats::rows_appended`]).
    pub rows_deleted: usize,
    /// Cover members retired across all passes.
    pub total_retired: usize,
    /// Cover members promoted across all passes (the initial cover counts,
    /// via the initial pass).
    pub total_promoted: usize,
    /// Summed work counters.
    pub totals: BatchCounters,
    /// Summed pass wall-clock time.
    pub total_elapsed: Duration,
}

impl IncrementalStats {
    pub(crate) fn absorb(&mut self, report: &BatchReport) {
        self.passes += 1;
        self.rows_appended += report.appended_rows;
        self.rows_deleted += report.deleted_rows;
        self.total_retired += report.retired.len();
        self.total_promoted += report.promoted.len();
        self.totals.absorb(&report.counters);
        self.total_elapsed += report.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_absorb() {
        let mut a = BatchCounters {
            skipped_false: 1,
            revalidated: 2,
            ..Default::default()
        };
        let b = BatchCounters {
            skipped_false: 3,
            nodes_reused: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.skipped_false, 4);
        assert_eq!(a.revalidated, 2);
        assert_eq!(a.nodes_reused, 5);
    }

    #[test]
    fn display_is_compact_and_elides_zeros() {
        let c = BatchCounters {
            skipped_false: 12,
            revalidated: 3,
            nodes_reused: 7,
            ..Default::default()
        };
        assert_eq!(c.to_string(), "skipped_false=12 revalidated=3 nodes_reused=7");
        assert_eq!(BatchCounters::default().to_string(), "(no work)");
    }

    #[test]
    fn export_lands_in_snapshot() {
        let obs = Obs::enabled();
        let c = BatchCounters { witness_skips: 9, ..Default::default() };
        c.export_counters(&obs);
        c.export_counters(&obs); // accumulates across passes
        let snap = obs.snapshot();
        assert_eq!(snap.counter("incr.witness_skips"), Some(18));
        assert_eq!(snap.counter("incr.skipped_false"), Some(0));
    }

    #[test]
    fn stats_absorb_report() {
        let mut s = IncrementalStats::default();
        s.absorb(&BatchReport {
            appended_rows: 10,
            deleted_rows: 2,
            n_rows: 30,
            retired: vec![],
            promoted: vec![],
            counters: BatchCounters::default(),
            elapsed: Duration::from_millis(5),
        });
        assert_eq!(s.passes, 1);
        assert_eq!(s.rows_appended, 10);
        assert_eq!(s.rows_deleted, 2);
        assert_eq!(s.total_elapsed, Duration::from_millis(5));
    }
}
