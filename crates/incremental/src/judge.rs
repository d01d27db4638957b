//! The memoizing verdict judge: where per-direction monotonicity (appends
//! only falsify, deletes only revive) becomes skipped work.

use crate::stats::BatchCounters;
use fastod::parallel::Executor;
use fastod::{
    CancelToken, ExactValidator, FdCheckMode, LevelStats, OdJudge, OdValidator, PassError,
    ValidationTask,
};
use fastod_faultkit as faultkit;
use fastod_partition::SwapScratch;
use fastod_relation::EncodedRelation;
use fastod_theory::CanonicalOd;
use std::collections::{HashMap, HashSet};

/// One cached verdict — the state machine `valid ⇄ invalid` of the mutable
/// cache.
///
/// A verdict is the cached answer to "does this canonical OD hold on the
/// current live instance?", and both canonical shapes fail exactly when some
/// tuple *pair* inside one context class violates them (a split or a swap).
/// Each mutation direction threatens one state only:
///
/// * appends can only *add* violating pairs — a [`CachedVerdict::Valid`]
///   entry must be re-checked when its context gained covered rows, an
///   [`CachedVerdict::Invalid`] entry is binding;
/// * deletes can only *remove* violating pairs — a `Valid` entry is binding,
///   and an `Invalid` entry flips to `Valid` exactly when its last
///   violating pair is deleted.
///
/// An invalid entry can cache one concrete **witness pair**. A witness is
/// self-certifying under every mutation that does not delete one of its
/// two rows: values never change in place, appends never split a class,
/// and deletes only shrink classes — so two live co-class rows that violate
/// the OD today still violate it after any number of other rows come and
/// go. A delete pass therefore re-confirms most falsified entries with two
/// liveness bit-reads; when a witness dies, an early-exit search over the
/// compacted context finds a fresh one or revives the verdict. Ordinary
/// validation stores an entry with no witness (the boolean scans do not
/// report one), so the first delete that touches its context pays one
/// search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The OD holds: no violating pair on the live instance.
    Valid,
    /// The OD fails. The payload is one violating pair (physical row ids),
    /// when known; it is binding as long as both rows are live.
    Invalid(Option<(u32, u32)>),
}

impl CachedVerdict {
    /// Whether the cached verdict says the OD holds.
    pub fn holds(&self) -> bool {
        matches!(self, CachedVerdict::Valid)
    }

    /// The verdict for a boolean validation outcome (no witness known).
    pub(crate) fn from_bool(valid: bool) -> CachedVerdict {
        if valid {
            CachedVerdict::Valid
        } else {
            CachedVerdict::Invalid(None)
        }
    }
}

/// An [`OdJudge`] that consults the persistent verdict cache and the current
/// pass's dirt tracking before falling back to the exact validator. One pass
/// can carry appends, deletes, or both (an update); each cached verdict is
/// threatened by exactly one direction, so the rules compose per entry:
///
/// * cached [`CachedVerdict::Valid`] is threatened only by **appends**: on
///   an append-clean context → `true` without validation (no pair was added
///   inside any class of that context); on an append-dirty one →
///   re-validate against the live instance;
/// * cached [`CachedVerdict::Invalid`] is threatened only by **deletes**:
///   on a delete-untouched context → `false` without validation (its
///   violating pairs are all still live); on a touched one → `false` while
///   its cached witness pair is live (two bit-reads), otherwise an
///   early-exit witness search over the current partition.
pub(crate) struct CachedJudge<'a> {
    inner: ExactValidator<'a>,
    cache: &'a mut HashMap<CanonicalOd, CachedVerdict>,
    /// Liveness mask over physical rows — certifies cached witnesses.
    live: &'a [bool],
    /// Per node, keyed by attribute-set bits, whether the pass's delete
    /// touched a class (`DiscoverySnapshot::remove_rows`), when the pass
    /// deleted rows. Nodes that held one partition share one bit. A context
    /// absent from the map was not retained (level 0, pruned earlier or
    /// never generated) and counts as touched.
    touched: Option<HashMap<u64, bool>>,
    /// Whether the pass appended rows (drives `Valid`-entry hygiene).
    has_appends: bool,
    /// Append-dirtiness per lattice node (attribute-set bits): whether the
    /// pass added a covered row to the node's partition.
    dirty: HashMap<u64, bool>,
    /// ODs whose verdict was freshly resolved against the current instance
    /// this pass — consulted by the post-pass hygiene to decide which
    /// entries are still anchored.
    judged: HashSet<CanonicalOd>,
    /// Per-worker scratch arenas for the witness-search map.
    pools: Vec<SwapScratch>,
    pub(crate) counters: BatchCounters,
}

/// One delete-pass entry whose cached witness is missing or dead, queued
/// for the witness-search map of [`CachedJudge::judge_batch`].
struct Escalation<'p> {
    /// Index into the batch's task (and verdict) vector.
    at: usize,
    task: ValidationTask<'p>,
    od: CanonicalOd,
}

impl<'a> CachedJudge<'a> {
    /// A judge over `enc` whose fresh verdicts come from an
    /// [`ExactValidator`] in `fd_mode`.
    pub fn new(
        enc: &'a EncodedRelation,
        fd_mode: FdCheckMode,
        cache: &'a mut HashMap<CanonicalOd, CachedVerdict>,
        live: &'a [bool],
        touched: Option<HashMap<u64, bool>>,
        has_appends: bool,
    ) -> CachedJudge<'a> {
        CachedJudge {
            inner: ExactValidator::new(enc, fd_mode),
            cache,
            live,
            touched,
            has_appends,
            dirty: HashMap::new(),
            judged: HashSet::new(),
            pools: Vec::new(),
            counters: BatchCounters::default(),
        }
    }

    /// Records whether the pass touched a non-singleton class of `Π*_X`.
    pub fn set_dirty(&mut self, bits: u64, dirty: bool) {
        if dirty {
            self.counters.dirty_nodes += 1;
        }
        self.dirty.insert(bits, dirty);
    }

    /// Whether node `bits` is dirty this pass. Unknown nodes are treated as
    /// dirty — correctness must never hinge on a missing entry.
    pub fn is_dirty(&self, bits: u64) -> bool {
        debug_assert!(
            self.dirty.contains_key(&bits),
            "dirtiness queried for untracked node {bits:#b}"
        );
        self.dirty.get(&bits).copied().unwrap_or(true)
    }

    /// Post-pass cache hygiene. Entries the pass may have changed without
    /// re-anchoring are dropped, to be revalidated whenever next gathered.
    /// Hazards exist because once deletions revive verdicts, candidate sets
    /// can shrink and regions of the lattice can close and later re-open —
    /// so a cached entry is not necessarily re-gathered every pass:
    ///
    /// * a `Valid` entry survives unless the pass appended rows, its
    ///   context is append-dirty (or untracked), and its candidate was not
    ///   gathered — the batch may have silently falsified it;
    /// * an `Invalid` entry survives if its context is provably
    ///   delete-untouched, its cached witness pair is still fully live, or
    ///   it was re-anchored this pass — otherwise the delete may have
    ///   silently revived it and it is dropped.
    pub fn finish_pass(&mut self) {
        let CachedJudge {
            cache,
            touched,
            has_appends,
            dirty,
            judged,
            counters,
            live,
            ..
        } = self;
        cache.retain(|od, verdict| {
            let bits = od.context().bits();
            let keep = judged.contains(od)
                || match *verdict {
                    CachedVerdict::Valid => !*has_appends || dirty.get(&bits) == Some(&false),
                    CachedVerdict::Invalid(witness) => {
                        !delete_touched(touched.as_ref(), bits) || witness_alive(witness, live)
                    }
                };
            if !keep {
                counters.entries_dropped += 1;
            }
            keep
        });
    }
}

/// Whether the pass deleted a covered row from context `bits`, given the
/// per-node touched bits of a delete pass (`None` when nothing was
/// deleted). `false` means provably untouched; `true` covers genuinely
/// touched *and* unknown (unretained) contexts.
fn delete_touched(touched: Option<&HashMap<u64, bool>>, bits: u64) -> bool {
    touched.is_some_and(|map| map.get(&bits).copied().unwrap_or(true))
}

/// Whether a cached witness pair is still fully live.
fn witness_alive(witness: Option<(u32, u32)>, live: &[bool]) -> bool {
    witness.is_some_and(|(s, t)| live[s as usize] && live[t as usize])
}

/// The canonical OD a task is asking about — the verdict cache's key.
fn od_of(task: &ValidationTask<'_>) -> CanonicalOd {
    match *task {
        ValidationTask::Constancy { parent_set, rhs, .. } => {
            CanonicalOd::constancy(parent_set, rhs)
        }
        ValidationTask::OrderCompat { ctx_set, a, b, .. } => {
            CanonicalOd::order_compat(ctx_set, a, b)
        }
    }
}

impl OdJudge for CachedJudge<'_> {
    /// Batch judging with the cache consulted up front: resolved verdicts
    /// never reach the validator, and the two expensive remainders —
    /// delete-pass **escalations** (witness searches for cached-invalid
    /// entries whose witness died) and the unresolved candidates — are each
    /// one map over the executor's workers. Cache updates and counters are
    /// applied sequentially in task order, so the judge's observable state
    /// is independent of the thread count.
    fn judge_batch(
        &mut self,
        tasks: &[ValidationTask<'_>],
        exec: &Executor,
        cancel: &CancelToken,
        stats: &mut LevelStats,
    ) -> Result<Vec<bool>, PassError> {
        // Failpoint: one branch when unarmed. An armed `Cancel` fails this
        // batch like a fired token; an armed `Panic` unwinds to the engine's
        // pass-level containment (`run_pass`), which poisons the engine.
        if let faultkit::Signal::Cancel = faultkit::hit(faultkit::INCR_JUDGE_BATCH) {
            return Err(PassError::Cancelled);
        }
        let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(tasks.len());
        let mut escalations: Vec<Escalation<'_>> = Vec::new();
        let mut unresolved: Vec<ValidationTask<'_>> = Vec::new();
        let mut unresolved_at: Vec<usize> = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            if i % 64 == 0 {
                cancel.check()?;
            }
            let od = od_of(task);
            let bits = od.context().bits();
            match self.cache.get(&od).copied() {
                Some(CachedVerdict::Invalid(_)) if !delete_touched(self.touched.as_ref(), bits) => {
                    self.counters.skipped_false += 1;
                    verdicts.push(Some(false));
                }
                Some(CachedVerdict::Invalid(witness)) => {
                    self.judged.insert(od);
                    if witness_alive(witness, self.live) {
                        // Both rows still share their context class
                        // (deletes only shrink classes): still violated.
                        self.counters.witness_skips += 1;
                        verdicts.push(Some(false));
                    } else {
                        // Deferred, so a delete wave's witness searches
                        // never serialize on this loop.
                        verdicts.push(None);
                        escalations.push(Escalation { at: i, task: *task, od });
                    }
                }
                Some(CachedVerdict::Valid) if !self.is_dirty(bits) => {
                    self.counters.skipped_clean += 1;
                    verdicts.push(Some(true));
                }
                _ => {
                    verdicts.push(None);
                    unresolved.push(*task);
                    unresolved_at.push(i);
                }
            }
        }
        // Each search is an early-exit scan of the already compacted
        // context, a pure function of its task, so folding the witnesses
        // in task order yields the same cache at every thread count. The
        // executor polls `cancel` before every item.
        let inner = &self.inner;
        let witnesses = exec.try_map_with(
            &mut self.pools,
            SwapScratch::new,
            &escalations,
            cancel,
            |scratch, _i, esc| inner.find_violation(&esc.task, scratch),
        )?;
        for (esc, witness) in escalations.iter().zip(witnesses) {
            self.counters.revalidated += 1;
            self.counters.escalated_searches += 1;
            if witness.is_none() {
                self.counters.verdicts_revived += 1;
                self.cache.insert(esc.od, CachedVerdict::Valid);
            } else {
                self.cache.insert(esc.od, CachedVerdict::Invalid(witness));
            }
            verdicts[esc.at] = Some(witness.is_none());
        }
        let fresh = self.inner.validate_batch(&unresolved, exec, cancel, stats)?;
        for (&i, verdict) in unresolved_at.iter().zip(fresh) {
            let od = od_of(&tasks[i]);
            self.counters.revalidated += 1;
            if self.cache.get(&od).copied() == Some(CachedVerdict::Valid) && !verdict {
                self.counters.verdicts_flipped += 1;
            }
            self.cache.insert(od, CachedVerdict::from_bool(verdict));
            self.judged.insert(od);
            verdicts[i] = Some(verdict);
        }
        Ok(verdicts
            .into_iter()
            .map(|v| v.expect("every task resolved or validated"))
            .collect())
    }
}
