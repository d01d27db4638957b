//! The incremental maintenance engine.

use crate::judge::{CachedJudge, CachedVerdict};
use crate::stats::{BatchCounters, BatchReport, IncrementalStats};
use fastod::parallel::Executor;
use fastod::snapshot::{
    build_level0_masked, compute_candidate_sets_parallel, generate_level, prune_level,
    validate_level, DiscoverySnapshot, Generated, JoinAction, Level, Node,
};
use fastod::{CancelToken, DiscoveryConfig, LevelStats, PassError};
use fastod_faultkit as faultkit;
use fastod_partition::{ProductScratch, StrippedPartition};
use fastod_relation::{GrowableRelation, Relation, RelationError, Schema};
use fastod_relation::{AttrSet, EncodedRelation};
use fastod_theory::{CanonicalOd, OdSet};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced by the incremental engine.
#[derive(Debug)]
pub enum IncrementalError {
    /// The mutation could not be applied to the relation (schema mismatch,
    /// row id out of range, double delete, …). The engine is unchanged.
    Relation(RelationError),
    /// An update supplied a replacement relation whose row count differs
    /// from the number of row ids being updated. The engine is unchanged.
    UpdateShapeMismatch {
        /// Row ids passed to the update.
        rows: usize,
        /// Rows in the replacement relation.
        replacement_rows: usize,
    },
    /// The configured cancellation token fired mid-pass (manual request or
    /// the per-pass deadline of [`DiscoveryConfig::pass_deadline`]).
    Cancelled,
    /// A pass panicked — in a sharded task closure (contained by the
    /// executor) or on the engine thread itself (contained here) — and the
    /// panic was folded into this typed error instead of unwinding further.
    Panicked {
        /// The failpoint-style site name of the containment point.
        site: &'static str,
        /// The stringified panic payload.
        message: String,
    },
    /// A previous pass failed mid-flight (cancelled, timed out, or
    /// panicked), leaving the retained state unusable; rebuild the engine
    /// via [`IncrementalDiscovery::rebuild`] (or from the accumulated
    /// relation by hand).
    Poisoned,
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::Relation(e) => write!(f, "mutation rejected: {e}"),
            IncrementalError::UpdateShapeMismatch { rows, replacement_rows } => write!(
                f,
                "update of {rows} rows got a replacement with {replacement_rows} rows"
            ),
            IncrementalError::Cancelled => f.write_str("maintenance pass cancelled"),
            IncrementalError::Panicked { site, message } => {
                write!(f, "maintenance pass panicked at {site}: {message}")
            }
            IncrementalError::Poisoned => {
                f.write_str("engine poisoned by an earlier failed pass; rebuild it")
            }
        }
    }
}

impl std::error::Error for IncrementalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IncrementalError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for IncrementalError {
    fn from(e: RelationError) -> Self {
        IncrementalError::Relation(e)
    }
}

impl From<PassError> for IncrementalError {
    fn from(e: PassError) -> Self {
        match e {
            PassError::Cancelled => IncrementalError::Cancelled,
            PassError::Panicked { site, message } => IncrementalError::Panicked { site, message },
        }
    }
}

/// What one maintenance pass absorbs: rows appended at the tail (physical
/// slots `old_n..`), rows tombstoned (ids sorted ascending), or — for an
/// update — both at once. Each cached verdict is threatened by exactly one
/// direction (appends only falsify, deletes only revive), so a combined
/// pass composes the two monotonicity stories per entry instead of paying
/// two lattice traversals.
struct Pass<'a> {
    /// Physical slot count before the appended rows (= the current count
    /// when nothing was appended).
    old_n: usize,
    /// The tombstoned row ids, ascending (empty when nothing was deleted).
    deleted: &'a [u32],
}

/// Maintains the complete, minimal OD cover of a **mutable** relation.
///
/// See the crate docs for the algorithm and the two monotonicity arguments
/// (appends only falsify verdicts, deletes only revive them). Construction
/// runs one full (retaining) discovery pass; afterwards
/// [`push_batch`](IncrementalDiscovery::push_batch),
/// [`delete_rows`](IncrementalDiscovery::delete_rows) and
/// [`update_rows`](IncrementalDiscovery::update_rows) merge each mutation
/// into the retained lattice and re-check only what the mutation could have
/// changed.
pub struct IncrementalDiscovery {
    grow: GrowableRelation,
    config: DiscoveryConfig,
    snapshot: DiscoverySnapshot,
    cache: HashMap<CanonicalOd, CachedVerdict>,
    cover: OdSet,
    stats: IncrementalStats,
    poisoned: bool,
    /// One product arena per executor worker, for every product and
    /// absorbed append of generation. Kept across passes so the workers'
    /// key and slot arrays are not reallocated per pass.
    pool: Vec<ProductScratch>,
}

impl IncrementalDiscovery {
    /// Runs the initial discovery over `rel` with the default configuration
    /// and retains the traversal for incremental maintenance.
    pub fn new(rel: &Relation) -> IncrementalDiscovery {
        Self::with_config(rel, DiscoveryConfig::default())
            .expect("default configuration cannot cancel")
    }

    /// Like [`IncrementalDiscovery::new`] with an explicit configuration.
    ///
    /// # Errors
    /// [`IncrementalError::Cancelled`] when the configured token fires
    /// during the initial pass.
    pub fn with_config(
        rel: &Relation,
        config: DiscoveryConfig,
    ) -> Result<IncrementalDiscovery, IncrementalError> {
        let mut engine = IncrementalDiscovery {
            grow: GrowableRelation::new(rel),
            config,
            snapshot: DiscoverySnapshot::empty(),
            cache: HashMap::new(),
            cover: OdSet::new(),
            stats: IncrementalStats::default(),
            poisoned: false,
            pool: Vec::new(),
        };
        // The initial build is not a maintenance pass: `pass_deadline` does
        // not apply (bound it with a deadline `cancel` token instead).
        engine
            .refresh(Pass { old_n: 0, deleted: &[] }, None)
            .map_err(IncrementalError::from)?;
        Ok(engine)
    }

    /// The current complete, minimal cover — identical to what
    /// `Fastod::discover` (same configuration) returns on the **surviving**
    /// rows: the concatenation of the seed relation and every pushed batch,
    /// minus every deleted row, with updates applied.
    ///
    /// After a cancelled pass the engine is poisoned and this is the *empty*
    /// set — the pre-mutation cover would silently disagree with
    /// [`n_rows`](IncrementalDiscovery::n_rows)/[`encoded`](IncrementalDiscovery::encoded)
    /// (which do include the half-absorbed mutation), so no stale cover is
    /// served. Check [`is_poisoned`](IncrementalDiscovery::is_poisoned).
    pub fn cover(&self) -> &OdSet {
        &self.cover
    }

    /// Whether a cancelled pass has invalidated the retained state. A
    /// poisoned engine rejects further mutations and serves an empty cover;
    /// rebuild one from the source relation (the accumulated rows are still
    /// available in encoded form via
    /// [`encoded`](IncrementalDiscovery::encoded)).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The schema every batch must match exactly.
    pub fn schema(&self) -> &Schema {
        self.grow.schema()
    }

    /// Physical row slots accumulated so far — every row ever appended,
    /// live or tombstoned. Row ids (as accepted by
    /// [`delete_rows`](IncrementalDiscovery::delete_rows) /
    /// [`update_rows`](IncrementalDiscovery::update_rows)) index this range
    /// and are never reassigned.
    pub fn n_rows(&self) -> usize {
        self.grow.n_rows()
    }

    /// Rows currently live (physical slots minus tombstones) — the instance
    /// the [`cover`](IncrementalDiscovery::cover) describes.
    pub fn n_live(&self) -> usize {
        self.grow.n_live()
    }

    /// Whether physical row `row` is live (in range and not tombstoned).
    pub fn is_live(&self, row: usize) -> bool {
        self.grow.is_live(row)
    }

    /// The liveness mask over the physical slots.
    pub fn live(&self) -> &[bool] {
        self.grow.live()
    }

    /// The encoded relation over every physical slot (including tombstoned
    /// rows — mask with [`live`](IncrementalDiscovery::live) when reading).
    pub fn encoded(&self) -> &EncodedRelation {
        self.grow.encoded()
    }

    /// The retained lattice (sizing/diagnostics).
    pub fn snapshot(&self) -> &DiscoverySnapshot {
        &self.snapshot
    }

    /// Cumulative statistics, including the initial pass.
    pub fn stats(&self) -> &IncrementalStats {
        &self.stats
    }

    /// The verdict cache as a sorted list — the engine's full observable
    /// memo state. Exposed so equivalence tests (and the serving layer's
    /// diagnostics) can pin that maintenance passes leave **byte-identical**
    /// cache state at every thread count, not just identical covers.
    pub fn cached_verdicts(&self) -> Vec<(CanonicalOd, CachedVerdict)> {
        let mut entries: Vec<(CanonicalOd, CachedVerdict)> =
            self.cache.iter().map(|(od, v)| (*od, *v)).collect();
        entries.sort_by_key(|(od, _)| *od);
        entries
    }

    /// Appends a batch and restores the cover invariant.
    ///
    /// ```
    /// use fastod_incremental::IncrementalDiscovery;
    /// use fastod_relation::RelationBuilder;
    ///
    /// let base = RelationBuilder::new()
    ///     .column_i64("id", vec![1, 2, 3])
    ///     .column_i64("grp", vec![7, 7, 7])
    ///     .build()
    ///     .unwrap();
    /// let mut engine = IncrementalDiscovery::new(&base);
    /// let before = engine.cover().len();
    ///
    /// // A batch that breaks grp's constancy retires that OD from the cover.
    /// let batch = RelationBuilder::new()
    ///     .column_i64("id", vec![4])
    ///     .column_i64("grp", vec![9])
    ///     .build()
    ///     .unwrap();
    /// let report = engine.push_batch(&batch).unwrap();
    /// assert_eq!(report.appended_rows, 1);
    /// assert!(!report.retired.is_empty());
    /// assert!(before > 0 && engine.n_rows() == 4);
    /// ```
    ///
    /// # Errors
    /// [`IncrementalError::Relation`] when the batch schema mismatches (the
    /// engine is unchanged); [`IncrementalError::Cancelled`] when the token
    /// fires mid-pass (the engine is then poisoned); `Poisoned` afterwards.
    pub fn push_batch(&mut self, batch: &Relation) -> Result<BatchReport, IncrementalError> {
        if self.poisoned {
            return Err(IncrementalError::Poisoned);
        }
        let old_n = self.grow.n_rows();
        self.grow.extend(batch)?;
        if batch.n_rows() == 0 {
            // Zero rows cannot change any verdict: skip the lattice pass
            // entirely (the schema check above still applied).
            return Ok(self.noop_report());
        }
        let report = self.run_pass(Pass { old_n, deleted: &[] })?;
        Ok(report)
    }

    /// Tombstones the given rows (by physical id, any order) and restores
    /// the cover invariant. Deletions can **revive** order dependencies: an
    /// OD falsified earlier returns — to the cover, or as an implied
    /// consequence of it — the moment its last violating pair is deleted.
    ///
    /// ```
    /// use fastod_incremental::IncrementalDiscovery;
    /// use fastod_relation::{AttrSet, RelationBuilder};
    /// use fastod_theory::CanonicalOd;
    ///
    /// // grp is constant except for row 3.
    /// let base = RelationBuilder::new()
    ///     .column_i64("id", vec![1, 2, 3, 4])
    ///     .column_i64("grp", vec![7, 7, 7, 9])
    ///     .build()
    ///     .unwrap();
    /// let mut engine = IncrementalDiscovery::new(&base);
    /// let constant_grp = CanonicalOd::constancy(AttrSet::EMPTY, 1);
    /// assert!(!engine.cover().contains(&constant_grp));
    ///
    /// // Deleting the outlier revives {}: [] -> grp.
    /// let report = engine.delete_rows(&[3]).unwrap();
    /// assert_eq!(report.deleted_rows, 1);
    /// assert!(engine.cover().contains(&constant_grp));
    /// assert_eq!(engine.n_live(), 3);
    /// ```
    ///
    /// # Errors
    /// [`IncrementalError::Relation`] when some id is out of range or
    /// already deleted — including listed twice — (the engine is unchanged);
    /// [`IncrementalError::Cancelled`] when the token fires mid-pass (the
    /// engine is then poisoned); `Poisoned` afterwards.
    pub fn delete_rows(&mut self, rows: &[usize]) -> Result<BatchReport, IncrementalError> {
        if self.poisoned {
            return Err(IncrementalError::Poisoned);
        }
        let deleted = self.grow.delete_rows(rows)?;
        if deleted.is_empty() {
            return Ok(self.noop_report());
        }
        let old_n = self.grow.n_rows();
        let report = self.run_pass(Pass { old_n, deleted: &deleted })?;
        Ok(report)
    }

    /// Replaces the given rows (by physical id) with the rows of
    /// `replacement`, row by row, and restores the cover invariant. The
    /// update is logical: the old rows are tombstoned and the replacements
    /// appended as fresh physical slots (their new ids are
    /// `n_rows() - replacement.n_rows() ..`), which leaves the cover exactly
    /// as if the values had changed in place — OD validity never depends on
    /// row order. Internally this is **one** combined maintenance pass:
    /// each cached verdict is threatened by only one mutation direction, so
    /// the delete rules (for falsified verdicts) and the append rules (for
    /// valid ones) compose per entry.
    ///
    /// ```
    /// use fastod_incremental::IncrementalDiscovery;
    /// use fastod_relation::RelationBuilder;
    ///
    /// let base = RelationBuilder::new()
    ///     .column_i64("id", vec![1, 2, 3])
    ///     .column_i64("grp", vec![7, 7, 9])
    ///     .build()
    ///     .unwrap();
    /// let mut engine = IncrementalDiscovery::new(&base);
    /// // Fix the outlier: row 2 becomes (3, 7) — grp turns constant.
    /// let fixed = RelationBuilder::new()
    ///     .column_i64("id", vec![3])
    ///     .column_i64("grp", vec![7])
    ///     .build()
    ///     .unwrap();
    /// let report = engine.update_rows(&[2], &fixed).unwrap();
    /// assert_eq!((report.deleted_rows, report.appended_rows), (1, 1));
    /// assert!(engine.cover().iter().any(|od| od.is_constancy()));
    /// assert_eq!(engine.n_live(), 3);
    /// ```
    ///
    /// # Errors
    /// [`IncrementalError::UpdateShapeMismatch`] when `rows` and
    /// `replacement` disagree on the row count;
    /// [`IncrementalError::Relation`] on schema mismatch or bad row ids (the
    /// engine is unchanged in all three cases);
    /// [`IncrementalError::Cancelled`] when the token fires mid-pass (the
    /// engine is then poisoned); `Poisoned` afterwards.
    pub fn update_rows(
        &mut self,
        rows: &[usize],
        replacement: &Relation,
    ) -> Result<BatchReport, IncrementalError> {
        if self.poisoned {
            return Err(IncrementalError::Poisoned);
        }
        if rows.len() != replacement.n_rows() {
            return Err(IncrementalError::UpdateShapeMismatch {
                rows: rows.len(),
                replacement_rows: replacement.n_rows(),
            });
        }
        // Validate everything up front so a bad replacement cannot leave
        // the rows half-deleted.
        self.grow.schema().ensure_matches(replacement.schema())?;
        let deleted = self.grow.delete_rows(rows)?;
        let old_n = self.grow.n_rows();
        self.grow
            .extend(replacement)
            .expect("replacement schema verified above");
        if deleted.is_empty() && replacement.n_rows() == 0 {
            return Ok(self.noop_report());
        }
        self.run_pass(Pass { old_n, deleted: &deleted })
    }

    /// A report for a mutation that provably changed nothing.
    fn noop_report(&self) -> BatchReport {
        BatchReport {
            appended_rows: 0,
            deleted_rows: 0,
            n_rows: self.grow.n_live(),
            retired: Vec::new(),
            promoted: Vec::new(),
            counters: BatchCounters::default(),
            elapsed: std::time::Duration::ZERO,
        }
    }

    /// Runs one maintenance pass, poisoning the engine if it fails.
    ///
    /// The pass runs under `cancel ∪ pass_deadline` and inside a panic
    /// containment boundary: worker panics are already folded into
    /// [`PassError::Panicked`] by the executor, and a panic on the engine
    /// thread itself (e.g. an armed `incr.*` failpoint) is caught here. In
    /// every failure mode the outcome is identical — the engine is poisoned,
    /// the cover cleared, and a typed error returned; the process never
    /// sees the unwind.
    fn run_pass(&mut self, pass: Pass<'_>) -> Result<BatchReport, IncrementalError> {
        let deadline = self.config.pass_deadline.map(|budget| Instant::now() + budget);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.refresh(pass, deadline)));
        let err = match outcome {
            Ok(Ok(report)) => return Ok(report),
            Ok(Err(e)) => IncrementalError::from(e),
            Err(payload) => {
                // An unwind through the pass itself, not a contained
                // worker. The payload names the true origin site.
                let PassError::Panicked { site, message } =
                    PassError::panicked("incr.run_pass", payload.as_ref())
                else {
                    unreachable!("panicked() always builds Panicked")
                };
                IncrementalError::Panicked { site, message }
            }
        };
        // The mutation is half-absorbed (rows mutated, lattice partly
        // rebuilt, snapshot consumed): drop the now-inconsistent cover
        // rather than serve stale answers.
        self.poisoned = true;
        self.cover = OdSet::new();
        if matches!(err, IncrementalError::Panicked { .. }) {
            self.config.obs.add("incr.panics_contained", 1);
        }
        Err(err)
    }

    /// Rebuilds a poisoned engine in place: the verdict cache and retained
    /// snapshot are discarded, and one from-scratch discovery pass over the
    /// surviving rows restores the cover invariant. Works on healthy
    /// engines too (it is then just an expensive no-op for the cover).
    ///
    /// The rebuild pass deliberately ignores
    /// [`DiscoveryConfig::pass_deadline`] — recovery must be able to
    /// complete — but still honours the `cancel` token; swap in a fresh one
    /// first ([`set_cancel`](IncrementalDiscovery::set_cancel)) when the
    /// old token is what killed the pass.
    ///
    /// # Errors
    /// [`IncrementalError::Cancelled`] / [`IncrementalError::Panicked`]
    /// when the rebuild pass itself fails (the engine stays poisoned and
    /// can be rebuilt again).
    pub fn rebuild(&mut self) -> Result<(), IncrementalError> {
        self.cache.clear();
        self.snapshot = DiscoverySnapshot::empty();
        self.cover = OdSet::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.refresh(Pass { old_n: 0, deleted: &[] }, None)
        }));
        match outcome {
            Ok(Ok(_)) => {
                self.poisoned = false;
                Ok(())
            }
            Ok(Err(e)) => {
                self.poisoned = true;
                self.cover = OdSet::new();
                Err(IncrementalError::from(e))
            }
            Err(payload) => {
                self.poisoned = true;
                self.cover = OdSet::new();
                self.config.obs.add("incr.panics_contained", 1);
                let PassError::Panicked { site, message } =
                    PassError::panicked("incr.rebuild", payload.as_ref())
                else {
                    unreachable!("panicked() always builds Panicked")
                };
                Err(IncrementalError::Panicked { site, message })
            }
        }
    }

    /// Replaces the engine's cancellation token. Recovery uses this to
    /// discard a token that fired (or whose deadline elapsed) so the
    /// rebuild pass does not cancel on arrival.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.config.cancel = cancel;
    }

    /// Externally poisons the engine (clears the cover, rejects further
    /// mutations until [`rebuild`](IncrementalDiscovery::rebuild)). The
    /// serving layer uses this when a failure *outside* the engine — e.g.
    /// snapshot publication — leaves the published state behind the
    /// absorbed state, so the usual "a failed pass applies nothing"
    /// reasoning no longer certifies consistency.
    pub fn mark_poisoned(&mut self) {
        self.poisoned = true;
        self.cover = OdSet::new();
    }

    /// One maintenance pass: rebuild the lattice over the current encoding,
    /// reusing retained partitions and cached verdicts wherever the
    /// mutation provably cannot have changed them.
    ///
    /// Every pass first releases the retained nodes that share a partition
    /// ([`DiscoverySnapshot::release_shared`]), so each partition has one
    /// holder and is mutated in place without a copy. When the pass carries
    /// deletions it then makes every retained partition absorb the
    /// tombstones in place ([`DiscoverySnapshot::remove_rows`] — pure class
    /// compaction, no products, mapped over the nodes on the executor, each
    /// distinct partition once), handing the judge one touched bit per
    /// retained node, a released sharer its holder's:
    /// cached-valid verdicts are binding under deletes, cached-invalid ones
    /// on untouched contexts too, and the rest settle by a witness-pair
    /// liveness probe or, when the pair died or the context has no retained
    /// partition, an early-exit witness search. Appended rows are then
    /// absorbed level by level — the two directions threaten disjoint
    /// verdict sets.
    ///
    /// Each level is generated by [`generate_level`], as one-shot
    /// discovery generates it. A child whose parent this pass's partitions
    /// show to determine the attribute it adds shares that parent's
    /// partition. The plan takes one action per other child, in join
    /// order, from its generating parents' dirt: a node without a retained
    /// partition (new, pruned earlier, or a released sharer) is a product;
    /// a retained node with two dirty parents absorbs the appended
    /// rows; any other retained node is reused as is. The products and
    /// absorbs run on the executor with the engine's per-worker scratch
    /// pool, and the apply step sets dirt and counters in join order, so
    /// the cover, the verdict cache and the counters cannot depend on the
    /// thread count.
    fn refresh(&mut self, pass: Pass<'_>, deadline: Option<Instant>) -> Result<BatchReport, PassError> {
        // Failpoint: one branch when unarmed. `Cancel` fails the pass like
        // a fired token; `Panic` unwinds to `run_pass`'s containment.
        if let faultkit::Signal::Cancel = faultkit::hit(faultkit::INCR_REFRESH) {
            return Err(PassError::Cancelled);
        }
        // The pass's direct children tile it: each opens at the instant the
        // previous one closed (`mark`), so a preemption between two of them
        // still lands inside a child.
        let started = Instant::now();
        let mut mark = started;
        let obs = self.config.obs.clone();
        let pass_span = obs.span_from(
            "maintenance_pass",
            &[("deleted", pass.deleted.len() as u64)],
            started,
        );
        // The pass token is `session cancel ∪ per-pass deadline`: the
        // deadline trip state is private to this pass, the manual flag is
        // shared, so a timed-out pass never bleeds into the next one.
        let cancel = match deadline {
            Some(at) => self.config.cancel.and_deadline(at),
            None => self.config.cancel.clone(),
        };
        // Removal, generation, unresolved re-validations and escalated
        // searches shard across the same executor the one-shot driver
        // uses; cache bookkeeping stays sequential.
        let exec = Executor::with_obs(self.config.threads, obs.clone());
        // Facts are not carried across passes: an append can break an FD.
        // The sharers go, and this pass shares again where its own
        // partitions show the FD still holds.
        let released = self.snapshot.release_shared();
        let touched = if pass.deleted.is_empty() {
            None
        } else {
            let span = obs.span_from("remove_rows", &[], mark);
            let mut touched = self.snapshot.remove_rows(pass.deleted, &exec, &cancel)?;
            for (sharer, holder) in released {
                touched.insert(sharer, touched[&holder]);
            }
            mark = Instant::now();
            span.end_at(mark);
            Some(touched)
        };
        let enc = self.grow.encoded();
        let live = self.grow.live();
        let n_attrs = enc.n_attrs();
        // Level 0, and the judge's set-up before it, run under level 1's
        // span (none without attributes).
        let level1_span = (n_attrs > 0).then(|| obs.span_from("level1", &[], mark));
        let n_rows = enc.n_rows();
        let old_n = pass.old_n;
        let appended = n_rows - old_n;
        let mut old = std::mem::take(&mut self.snapshot);
        let mut judge = CachedJudge::new(
            enc,
            self.config.fd_check,
            &mut self.cache,
            live,
            touched,
            appended > 0,
        );
        let mut m = OdSet::new();

        let mut levels: Vec<Level> = vec![build_level0_masked(live, n_attrs)];
        // The unit partition has one all-live-rows class: any append lands
        // in it. (Delete dirt is tracked by the judge's per-node touched
        // bits, never by this append-dirt flag.)
        judge.set_dirty(
            AttrSet::EMPTY.bits(),
            appended > 0 && self.grow.n_live() >= 2,
        );

        if n_attrs > 0 {
            // Level 1: absorb the mutation into the retained
            // single-attribute partitions (already compacted by the
            // snapshot-wide tombstone removal above); the append's dirty
            // bit is the ground truth of append-dirtiness.
            let mut level1 = Level::with_capacity(n_attrs);
            for a in 0..n_attrs {
                let bits = AttrSet::singleton(a).bits();
                let (node, dirty) = match old.take_node(1, bits) {
                    Some(mut node) => {
                        if appended > 0 {
                            let dirty = Arc::make_mut(&mut node.partition).append_codes_masked(
                                enc.codes(a),
                                enc.cardinality(a),
                                live,
                            );
                            judge.counters.partitions_appended += 1;
                            (node, dirty)
                        } else {
                            (node, false)
                        }
                    }
                    None => {
                        let p = StrippedPartition::from_codes_masked(
                            enc.codes(a),
                            enc.cardinality(a),
                            live,
                        );
                        let dirty = appended > 0 && covers_appended_row(&p, old_n);
                        (Node::new(p, n_attrs), dirty)
                    }
                };
                judge.set_dirty(bits, dirty);
                level1.insert(bits, node);
            }
            levels.push(level1);
            mark = Instant::now();
            if let Some(span) = level1_span {
                span.end_at(mark);
            }

            let mut l = 1usize;
            while !levels[l].is_empty() {
                let level_span = obs.span_from(
                    "level",
                    &[("level", l as u64), ("nodes", levels[l].len() as u64)],
                    mark,
                );
                let mut lstats = LevelStats {
                    level: l,
                    nodes: levels[l].len(),
                    ..Default::default()
                };
                {
                    let (before, rest) = levels.split_at_mut(l);
                    let current = &mut rest[0];
                    let prev = &before[l - 1];
                    let empty = Level::new();
                    let prev_prev = if l >= 2 { &before[l - 2] } else { &empty };
                    {
                        let _span = obs.span_with("compute_candidates", &[("level", l as u64)]);
                        compute_candidate_sets_parallel(l, current, prev, n_attrs, &exec, &cancel)?;
                    }
                    let _span = obs.span_with("validate_level", &[("level", l as u64)]);
                    validate_level(
                        l, current, prev, prev_prev, &mut judge, &mut m, &mut lstats, true,
                        &exec, &cancel,
                    )?;
                    drop(_span);
                    prune_level(l, current, &mut lstats);
                }
                let reached_cap = self.config.max_level.is_some_and(|cap| l >= cap);
                let generate_span = obs.span_with("generate_level", &[("level", l as u64)]);
                let next = if reached_cap {
                    Level::new()
                } else {
                    // Plan. Deletes were already absorbed in place above.
                    // For appends: an appended row covered in X must be
                    // covered in every subset of X, so one clean generating
                    // parent certifies X clean and its retained partition
                    // is reused as is. With both parents dirty, the retained
                    // partition absorbs the appended rows by re-splitting
                    // the parent classes that gained one. The results are
                    // retained, so their partitions come back in this
                    // thread's heap.
                    let plan = |x: AttrSet, y: AttrSet, z: AttrSet| {
                        match old.take_node(l + 1, x.bits()) {
                            None => JoinAction::Product,
                            Some(node) if judge.is_dirty(y.bits()) && judge.is_dirty(z.bits()) => {
                                JoinAction::Absorb(Arc::unwrap_or_clone(node.partition))
                            }
                            Some(node) => JoinAction::Reuse(Arc::unwrap_or_clone(node.partition)),
                        }
                    };
                    let pool = &mut self.pool;
                    let (next, children) =
                        generate_level(&levels[l], enc, n_attrs, plan, true, &exec, pool, &cancel)?;
                    // Apply, in join order. A node is dirty when it covers
                    // an appended row: a shared child when its parent is,
                    // an absorb when its dirty bit says so.
                    for (x, generated) in children {
                        let dirty = match generated {
                            Generated::Shared(p) => {
                                judge.counters.nodes_shared += 1;
                                // The child's retained copy, if any, is
                                // freed now rather than at the pass's end.
                                old.take_node(l + 1, x.bits());
                                judge.is_dirty(p.bits())
                            }
                            Generated::Product => {
                                judge.counters.nodes_recomputed += 1;
                                appended > 0 && covers_appended_row(&next[&x.bits()].partition, old_n)
                            }
                            Generated::Absorbed { dirty } => {
                                judge.counters.partitions_appended += 1;
                                dirty
                            }
                            Generated::Reused => {
                                judge.counters.nodes_reused += 1;
                                false
                            }
                        };
                        judge.set_dirty(x.bits(), dirty);
                    }
                    next
                };
                drop(generate_span);
                mark = Instant::now();
                level_span.end_at(mark);
                levels.push(next);
                l += 1;
            }
            while levels.last().is_some_and(Level::is_empty) && levels.len() > 1 {
                levels.pop();
            }
        }

        let advance_span = obs.span_from("advance_snapshot", &[], mark);
        // Post-pass cache hygiene — drop the entries this pass may have
        // changed without re-anchoring; see the judge's finish_pass docs
        // for the exact rules.
        judge.finish_pass();
        let counters = judge.counters.clone();
        drop(judge);
        // Level 0 is not retained: every pass rebuilds it from the liveness
        // mask, and any delete would touch its one all-rows class, which is
        // what the judge assumes of a context with no touched bit.
        // Index 0 stays, empty, so level indices do not shift.
        levels[0] = Level::new();
        self.snapshot = DiscoverySnapshot::from_levels(levels, n_rows);
        let retired: Vec<CanonicalOd> = self
            .cover
            .iter()
            .filter(|od| !m.contains(od))
            .copied()
            .collect();
        let promoted: Vec<CanonicalOd> = m
            .iter()
            .filter(|od| !self.cover.contains(od))
            .copied()
            .collect();
        self.cover = m;
        drop(old);
        let end = Instant::now();
        advance_span.end_at(end);
        pass_span.end_at(end);
        let report = BatchReport {
            appended_rows: appended,
            deleted_rows: pass.deleted.len(),
            n_rows: self.grow.n_live(),
            retired,
            promoted,
            counters,
            elapsed: end - started,
        };
        if obs.is_enabled() {
            obs.add("incr.passes", 1);
            obs.add("incr.rows_appended", report.appended_rows as u64);
            obs.add("incr.rows_deleted", report.deleted_rows as u64);
            obs.add("incr.retired", report.retired.len() as u64);
            obs.add("incr.promoted", report.promoted.len() as u64);
            report.counters.export_counters(&obs);
            obs.histogram("incr.pass_us").record(report.elapsed.as_micros() as u64);
        }
        self.stats.absorb(&report);
        Ok(report)
    }
}

/// Whether any class of `p` contains a row appended at or after `old_n`.
///
/// Every partition the engine builds keeps class rows in ascending row-id
/// order (`from_codes` counting sort, `refine` and `absorb_append`
/// preserving the parent's order, `append_codes` pushing fresh — larger —
/// ids at the tail, `remove_rows_masked` compacting in place), so checking each
/// class's last element suffices: O(#classes), not O(covered rows).
fn covers_appended_row(p: &StrippedPartition, old_n: usize) -> bool {
    p.classes().iter().any(|class| {
        debug_assert!(class.is_sorted(), "engine partitions keep classes in row order");
        class.last().is_some_and(|&row| (row as usize) >= old_n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod::snapshot::sorted_keys;
    use fastod::{CancelToken, DiscoveryConfig, Fastod};
    use fastod_datagen::random_relation;
    use fastod_relation::RelationBuilder;

    fn cover_matches_from_scratch(engine: &IncrementalDiscovery, survivors: &Relation) {
        let fresh = Fastod::new(DiscoveryConfig::default()).discover(&survivors.encode());
        assert_eq!(
            engine.cover().sorted(),
            fresh.ods.sorted(),
            "incremental cover diverged at {} live rows",
            survivors.n_rows()
        );
    }

    #[test]
    fn initial_pass_equals_fastod() {
        let rel = fastod_datagen::employee_table();
        let engine = IncrementalDiscovery::new(&rel);
        cover_matches_from_scratch(&engine, &rel);
        assert_eq!(engine.n_rows(), 6);
        assert_eq!(engine.n_live(), 6);
        assert!(engine.snapshot().n_nodes() > 0);
    }

    #[test]
    fn random_batches_stay_equivalent() {
        for seed in 0..6u64 {
            let base = random_relation(8, 4, 3, seed);
            let mut engine = IncrementalDiscovery::new(&base);
            let mut concat = base.clone();
            for b in 0..6u64 {
                let batch = random_relation(3, 4, 3, 1000 + seed * 10 + b);
                engine.push_batch(&batch).unwrap();
                concat.extend(&batch).unwrap();
                cover_matches_from_scratch(&engine, &concat);
            }
        }
    }

    #[test]
    fn falsification_retires_and_promotes() {
        // c constant on the base: {}: [] -> c is in the cover.
        let base = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3])
            .column_i64("c", vec![7, 7, 7])
            .build()
            .unwrap();
        let mut engine = IncrementalDiscovery::new(&base);
        let root = CanonicalOd::constancy(AttrSet::EMPTY, 1);
        assert!(engine.cover().contains(&root));

        // The batch breaks the constancy; k -> c gets promoted instead.
        let batch = RelationBuilder::new()
            .column_i64("k", vec![4])
            .column_i64("c", vec![9])
            .build()
            .unwrap();
        let report = engine.push_batch(&batch).unwrap();
        assert!(report.retired.contains(&root));
        assert!(!engine.cover().contains(&root));
        assert!(report.counters.verdicts_flipped >= 1);
        assert!(!report.promoted.is_empty());
        let mut concat = base.clone();
        concat.extend(&batch).unwrap();
        cover_matches_from_scratch(&engine, &concat);
    }

    #[test]
    fn deletion_revives_retired_ods() {
        // Constancy of c holds, is falsified by an append, and revives when
        // the offending row is deleted again — the false→true flip the
        // boolean cache of the append-only engine could not express.
        let base = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3])
            .column_i64("c", vec![7, 7, 7])
            .build()
            .unwrap();
        let mut engine = IncrementalDiscovery::new(&base);
        let root = CanonicalOd::constancy(AttrSet::EMPTY, 1);
        let batch = RelationBuilder::new()
            .column_i64("k", vec![4])
            .column_i64("c", vec![9])
            .build()
            .unwrap();
        engine.push_batch(&batch).unwrap();
        assert!(!engine.cover().contains(&root));

        let report = engine.delete_rows(&[3]).unwrap();
        assert!(engine.cover().contains(&root), "constancy not revived");
        assert!(report.promoted.contains(&root));
        assert!(report.counters.verdicts_revived >= 1, "{:?}", report.counters);
        assert_eq!(engine.n_live(), 3);
        assert_eq!(engine.n_rows(), 4, "physical slots are stable");
        cover_matches_from_scratch(&engine, &base);
    }

    #[test]
    fn delete_pass_searches_dead_witnesses() {
        // g groups the rows into 4 classes of 6; c is constant within each
        // group (5s in group 0, 7s elsewhere — so {}: [] -> c stays false
        // throughout) except three outliers in the last group, which
        // falsify {g}: [] -> c with all violations confined to one class.
        let g: Vec<i64> = (0..24).map(|i| i / 6).collect();
        let c: Vec<i64> = (0..24)
            .map(|i| match i {
                0..6 => 5,
                21..24 => 9,
                _ => 7,
            })
            .collect();
        let base = RelationBuilder::new()
            .column_i64("g", g)
            .column_i64("c", c)
            .build()
            .unwrap();
        let mut engine = IncrementalDiscovery::new(&base);
        let gc = CanonicalOd::constancy(AttrSet::singleton(0), 1);
        let cached = |engine: &IncrementalDiscovery| {
            engine.cached_verdicts().into_iter().find(|&(od, _)| od == gc).map(|(_, v)| v)
        };
        // Validation caches the verdict without a witness.
        assert!(!engine.cover().contains(&gc));
        assert_eq!(cached(&engine), Some(CachedVerdict::Invalid(None)));

        // Each delete touches gc's context and leaves it with no live
        // witness, so a search over the compacted class {18, …, 23} finds
        // a fresh pair: each outlier is split from the class's first row.
        for (row, witness) in [(21, (18, 22)), (22, (18, 23))] {
            let report = engine.delete_rows(&[row]).unwrap();
            assert!(report.counters.escalated_searches > 0, "{:?}", report.counters);
            assert!(!engine.cover().contains(&gc));
            assert_eq!(cached(&engine), Some(CachedVerdict::Invalid(Some(witness))));
        }
        // The last outlier's delete kills the witness again, and the search
        // finds none: the OD revives.
        let report = engine.delete_rows(&[23]).unwrap();
        assert!(report.counters.verdicts_revived > 0, "{:?}", report.counters);
        assert!(engine.cover().contains(&gc), "revived OD missing from cover");
        assert_eq!(cached(&engine), Some(CachedVerdict::Valid));
        let survivors = RelationBuilder::new()
            .column_i64("g", (0..21).map(|i| i / 6).collect())
            .column_i64("c", (0..21).map(|i| if i < 6 { 5 } else { 7 }).collect())
            .build()
            .unwrap();
        cover_matches_from_scratch(&engine, &survivors);
    }

    #[test]
    fn updates_round_trip() {
        let base = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3, 4])
            .column_i64("c", vec![7, 7, 7, 9])
            .build()
            .unwrap();
        let mut engine = IncrementalDiscovery::new(&base);
        let root = CanonicalOd::constancy(AttrSet::EMPTY, 1);
        assert!(!engine.cover().contains(&root));
        // Fix the outlier in place: constancy revives.
        let fixed = RelationBuilder::new()
            .column_i64("k", vec![4])
            .column_i64("c", vec![7])
            .build()
            .unwrap();
        let report = engine.update_rows(&[3], &fixed).unwrap();
        assert_eq!((report.deleted_rows, report.appended_rows), (1, 1));
        assert!(report.promoted.contains(&root));
        assert!(engine.cover().contains(&root));
        assert_eq!(engine.n_live(), 4);
        let survivors = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3, 4])
            .column_i64("c", vec![7, 7, 7, 7])
            .build()
            .unwrap();
        cover_matches_from_scratch(&engine, &survivors);

        // Shape and id validation reject without mutating.
        assert!(matches!(
            engine.update_rows(&[0, 1], &fixed),
            Err(IncrementalError::UpdateShapeMismatch { rows: 2, replacement_rows: 1 })
        ));
        assert!(matches!(
            engine.update_rows(&[3], &fixed), // row 3 was tombstoned by the update
            Err(IncrementalError::Relation(RelationError::DeadRow { row: 3 }))
        ));
        assert_eq!(engine.n_live(), 4);
        cover_matches_from_scratch(&engine, &survivors);
    }

    #[test]
    fn delete_validation_is_atomic() {
        let base = random_relation(8, 3, 3, 42);
        let mut engine = IncrementalDiscovery::new(&base);
        let before = engine.cover().sorted();
        assert!(matches!(
            engine.delete_rows(&[2, 99]),
            Err(IncrementalError::Relation(RelationError::RowOutOfRange { .. }))
        ));
        assert_eq!(engine.n_live(), 8, "failed delete must not tombstone");
        assert_eq!(engine.cover().sorted(), before);
        engine.delete_rows(&[2]).unwrap();
        assert!(matches!(
            engine.delete_rows(&[2]),
            Err(IncrementalError::Relation(RelationError::DeadRow { row: 2 }))
        ));
        assert_eq!(engine.n_live(), 7);
    }

    #[test]
    fn clean_batches_skip_work() {
        // Base: sequential key, a monotone coarsening, a low-card category.
        let base = RelationBuilder::new()
            .column_i64("k", (0..30).collect())
            .column_i64("m", (0..30).map(|i| i / 3).collect())
            .column_i64("c", (0..30).map(|i| i % 4).collect())
            .build()
            .unwrap();
        let mut engine = IncrementalDiscovery::new(&base);
        let initial_revalidated = engine.stats().totals.revalidated;
        assert!(initial_revalidated > 0, "initial pass validates everything");

        // Batch rows carry fresh, distinct values in *every* column: they are
        // singletons under every non-empty context, so only `{}` is dirty.
        let batch = RelationBuilder::new()
            .column_i64("k", (100..105).collect())
            .column_i64("m", (100..105).collect())
            .column_i64("c", (100..105).collect())
            .build()
            .unwrap();
        let report = engine.push_batch(&batch).unwrap();
        assert!(report.retired.is_empty(), "{:?}", report.retired);
        // Only the handful of `{}`-context true verdicts get re-checked;
        // false verdicts and clean-context truths are skipped; every product
        // node is reused.
        assert!(
            report.counters.revalidated < initial_revalidated / 2,
            "{:?}",
            report.counters
        );
        assert!(report.counters.skipped_false > 0, "{:?}", report.counters);
        assert!(report.counters.skipped_clean > 0, "{:?}", report.counters);
        assert!(report.counters.nodes_reused > 0, "{:?}", report.counters);
        assert_eq!(report.counters.nodes_recomputed, 0, "{:?}", report.counters);
    }

    /// Every node of `snapshot` in `(level, bits)` order, with the first
    /// node that holds its partition: itself for a holder, an earlier node
    /// for a node that shares.
    fn holders(snapshot: &DiscoverySnapshot) -> Vec<((usize, u64), (usize, u64))> {
        let keys: Vec<(usize, u64)> = snapshot
            .levels()
            .iter()
            .enumerate()
            .flat_map(|(l, level)| sorted_keys(level).into_iter().map(move |bits| (l, bits)))
            .collect();
        let partition = |(l, bits): (usize, u64)| &snapshot.node(l, bits).unwrap().partition;
        keys.iter()
            .map(|&key| {
                let holder = keys.iter().find(|&&k| Arc::ptr_eq(partition(k), partition(key)));
                (key, *holder.unwrap())
            })
            .collect()
    }

    #[test]
    fn append_pass_absorbs_into_retained_nodes() {
        let n_attrs = 6;
        let base = fastod_datagen::flight_like(40, n_attrs, 7);
        let mut engine = IncrementalDiscovery::new(&base);
        let initial = engine.stats().totals.clone();
        let generated = initial.nodes_recomputed + initial.nodes_shared;
        let deep: Vec<_> = holders(engine.snapshot()).into_iter().filter(|&((l, _), _)| l >= 2).collect();
        let holding = deep.iter().filter(|(key, holder)| key == holder).count();
        assert!(holding > 0, "the base must retain partitions above level 1");
        assert!(deep.len() > holding, "some retained node must share");
        // Re-appended rows pair with their originals under every context,
        // so every node turns dirty, yet no FD breaks, no verdict changes
        // and the pass regenerates the same lattice: the released sharers
        // share again and every retained holder absorbs.
        let batch = base.select_rows(&[0, 5, 9]);
        let report = engine.push_batch(&batch).unwrap();
        let c = &report.counters;
        assert_eq!(c.partitions_appended, n_attrs + holding, "{c:?}");
        assert_eq!(c.nodes_reused, 0, "{c:?}");
        assert_eq!(c.nodes_shared, initial.nodes_shared, "{c:?}");
        // Only the nodes the initial pass pruned have no retained partition.
        assert_eq!(c.nodes_recomputed, initial.nodes_recomputed - holding, "{c:?}");
        assert_eq!(holding + c.nodes_recomputed + c.nodes_shared, generated, "{c:?}");
        assert!(report.retired.is_empty() && report.promoted.is_empty());
        let mut concat = base.clone();
        concat.extend(&batch).unwrap();
        cover_matches_from_scratch(&engine, &concat);
    }

    /// A delete pass compacts each retained partition in place and copies
    /// none. The release leaves one holder per partition, so every holder's
    /// row buffer keeps its address through removal and reuse, and every
    /// node that shared a partition before the pass shares its holder's
    /// after it.
    #[test]
    fn delete_pass_copies_no_retained_partition() {
        let base = fastod_datagen::flight_like(300, 8, 0x5EED);
        let mut engine = IncrementalDiscovery::new(&base);
        let rows = |engine: &IncrementalDiscovery, (l, bits): (usize, u64)| {
            engine.snapshot().node(l, bits).unwrap().partition.raw_csr().0.as_ptr()
        };
        let before = holders(engine.snapshot());
        let addresses: HashMap<(usize, u64), *const u32> =
            before.iter().map(|&(key, _)| (key, rows(&engine, key))).collect();
        let deleted: Vec<usize> = (0..300).step_by(11).collect();
        let report = engine.delete_rows(&deleted).unwrap();
        assert!(report.counters.nodes_shared > 0, "{:?}", report.counters);
        let after: HashMap<(usize, u64), (usize, u64)> =
            holders(engine.snapshot()).into_iter().collect();
        let (mut holders_kept, mut sharers_kept) = (0, 0);
        // Level 0 is rebuilt from the liveness mask every pass.
        for (key, holder) in before.into_iter().filter(|&((l, _), _)| l >= 1) {
            let Some(&now) = after.get(&key) else {
                continue;
            };
            assert_eq!(now, holder, "{key:?} changed holders");
            if key == holder {
                assert_eq!(rows(&engine, key), addresses[&key], "{key:?}'s rows moved");
                holders_kept += 1;
            } else {
                sharers_kept += 1;
            }
        }
        assert!(holders_kept > 0 && sharers_kept > 0, "{holders_kept} holders, {sharers_kept} sharers");
    }

    /// Level 0 is rebuilt from the liveness mask every pass, so no snapshot
    /// retains it: a delete pass compacts no unit partition, and its map of
    /// touched bits has no `{}` key, which the judge reads as touched.
    #[test]
    fn snapshot_retains_no_level_0() {
        let base = fastod_datagen::flight_like(60, 5, 0x5EED);
        let mut engine = IncrementalDiscovery::new(&base);
        let unit = AttrSet::EMPTY.bits();
        engine.delete_rows(&[0, 7, 13]).unwrap();
        let snapshot = engine.snapshot();
        assert!(snapshot.levels()[0].is_empty() && snapshot.node(0, unit).is_none());
        assert!(snapshot.node(1, AttrSet::singleton(0).bits()).is_some());
        // The touched bits the next delete pass hands its judge.
        engine.snapshot.release_shared();
        let touched = engine
            .snapshot
            .remove_rows(&[1, 2], &Executor::new(1), &CancelToken::never())
            .unwrap();
        assert!(!touched.is_empty() && !touched.contains_key(&unit));
    }

    #[test]
    fn clean_deletes_skip_work() {
        // Deleting rows that are singletons under every non-empty context
        // leaves every level-1+ verdict untouched; only `{}`-context
        // falsified entries get an (early-exit) re-scan, because the unit
        // partition's single class is touched by any delete.
        let base = RelationBuilder::new()
            .column_i64("k", (0..20).collect())
            .column_i64("m", (0..20).map(|i| i / 2).collect())
            .build()
            .unwrap();
        let mut engine = IncrementalDiscovery::new(&base);
        let with_tail = RelationBuilder::new()
            .column_i64("k", (100..105).collect())
            .column_i64("m", (100..105).collect())
            .build()
            .unwrap();
        engine.push_batch(&with_tail).unwrap();
        let report = engine.delete_rows(&[20, 21, 22, 23, 24]).unwrap();
        // Only the two falsified `{}`-context constancies ({}->k, {}->m)
        // re-scan; everything else is served from cache and every retained
        // partition is reused wholesale.
        assert!(report.counters.revalidated <= 2, "{:?}", report.counters);
        assert!(report.counters.skipped_false > 0, "{:?}", report.counters);
        assert_eq!(report.counters.nodes_recomputed, 0, "{:?}", report.counters);
        assert!(report.counters.nodes_reused > 0, "{:?}", report.counters);
        let survivors = base;
        cover_matches_from_scratch(&engine, &survivors);
    }

    #[test]
    fn empty_batch_changes_nothing() {
        let base = random_relation(10, 3, 3, 1);
        let mut engine = IncrementalDiscovery::new(&base);
        let before = engine.cover().sorted();
        let empty = random_relation(0, 3, 3, 2);
        let report = engine.push_batch(&empty).unwrap();
        assert_eq!(report.appended_rows, 0);
        assert!(report.retired.is_empty() && report.promoted.is_empty());
        assert_eq!(engine.cover().sorted(), before);
        // Empty mutations across the other entry points are no-ops too.
        let report = engine.delete_rows(&[]).unwrap();
        assert_eq!(report.deleted_rows, 0);
        let report = engine.update_rows(&[], &empty).unwrap();
        assert_eq!((report.deleted_rows, report.appended_rows), (0, 0));
        assert_eq!(engine.cover().sorted(), before);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let base = random_relation(5, 3, 3, 3);
        let mut engine = IncrementalDiscovery::new(&base);
        let wrong = random_relation(5, 4, 3, 3);
        assert!(matches!(
            engine.push_batch(&wrong),
            Err(IncrementalError::Relation(_))
        ));
        assert!(matches!(
            engine.update_rows(&[0, 1, 2, 3, 4], &wrong),
            Err(IncrementalError::Relation(_))
        ));
        // The engine stays usable after a rejected mutation.
        engine.push_batch(&random_relation(2, 3, 3, 8)).unwrap();
    }

    #[test]
    fn cancellation_poisons_engine() {
        let base = random_relation(30, 5, 3, 11);
        let mut engine = IncrementalDiscovery::new(&base);
        engine.config.cancel = CancelToken::with_timeout(std::time::Duration::ZERO);
        let batch = random_relation(5, 5, 3, 12);
        assert!(!engine.is_poisoned());
        assert!(matches!(
            engine.push_batch(&batch),
            Err(IncrementalError::Cancelled)
        ));
        assert!(engine.is_poisoned());
        // No stale cover is served for the half-absorbed state.
        assert!(engine.cover().is_empty());
        assert!(matches!(
            engine.push_batch(&batch),
            Err(IncrementalError::Poisoned)
        ));
        // Poisoned engines reject every mutation.
        assert!(matches!(
            engine.delete_rows(&[0]),
            Err(IncrementalError::Poisoned)
        ));
        assert!(matches!(
            engine.update_rows(&[0], &batch),
            Err(IncrementalError::Poisoned)
        ));
    }

    #[test]
    fn grows_from_empty_relation() {
        let base = RelationBuilder::new()
            .column_i64("a", vec![])
            .column_i64("b", vec![])
            .build()
            .unwrap();
        let mut engine = IncrementalDiscovery::new(&base);
        // Vacuously, both attributes are constant.
        assert_eq!(engine.cover().len(), 2);
        let batch = RelationBuilder::new()
            .column_i64("a", vec![1, 2])
            .column_i64("b", vec![5, 5])
            .build()
            .unwrap();
        engine.push_batch(&batch).unwrap();
        let mut concat = base.clone();
        concat.extend(&batch).unwrap();
        cover_matches_from_scratch(&engine, &concat);
        // And shrinks back down to (almost) nothing.
        engine.delete_rows(&[0]).unwrap();
        cover_matches_from_scratch(&engine, &batch.select_rows(&[1]));
        engine.delete_rows(&[1]).unwrap();
        assert_eq!(engine.n_live(), 0);
        cover_matches_from_scratch(&engine, &base);
    }

    #[test]
    fn random_mutations_stay_equivalent() {
        // Engine-level mixed smoke (the heavyweight oracle-backed bands
        // live in tests/incremental_equivalence.rs): random interleaving of
        // appends, deletes and updates, checked against from-scratch
        // discovery on the survivors after every mutation.
        let mut seed = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..4 {
            let base = random_relation(10, 3, 3, trial);
            let mut engine = IncrementalDiscovery::new(&base);
            // Model: physical slot -> live row values (as a Relation index).
            let mut slots: Vec<Option<usize>> = (0..10).map(Some).collect();
            let mut history = base.clone();
            for step in 0..12u64 {
                let live: Vec<usize> = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.map(|_| i))
                    .collect();
                match next() % 3 {
                    0 => {
                        let batch = random_relation(2, 3, 3, 7_000 + trial * 100 + step);
                        engine.push_batch(&batch).unwrap();
                        history.extend(&batch).unwrap();
                        slots.extend([Some(0), Some(0)]);
                    }
                    1 if !live.is_empty() => {
                        let victim = live[(next() % live.len() as u64) as usize];
                        engine.delete_rows(&[victim]).unwrap();
                        slots[victim] = None;
                    }
                    _ if !live.is_empty() => {
                        let victim = live[(next() % live.len() as u64) as usize];
                        let replacement =
                            random_relation(1, 3, 3, 9_000 + trial * 100 + step);
                        engine.update_rows(&[victim], &replacement).unwrap();
                        history.extend(&replacement).unwrap();
                        slots[victim] = None;
                        slots.push(Some(0));
                    }
                    _ => {}
                }
                let survivors: Vec<usize> = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.map(|_| i))
                    .collect();
                assert_eq!(engine.n_live(), survivors.len());
                cover_matches_from_scratch(&engine, &history.select_rows(&survivors));
            }
        }
    }
}
