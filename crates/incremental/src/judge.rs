//! The memoizing verdict judge: where per-direction monotonicity (appends
//! only falsify, deletes only revive) becomes skipped work.

use crate::stats::BatchCounters;
use fastod::parallel::Executor;
use fastod::{
    CancelToken, ExactValidator, FdCheckMode, LevelStats, OdJudge, OdValidator, PassError,
    ValidationTask,
};
use fastod_faultkit as faultkit;
use fastod_partition::{count_violations, RemoveDelta, StrippedPartition, SwapScratch};
use fastod_relation::EncodedRelation;
use fastod_theory::CanonicalOd;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroU64;
use std::sync::Arc;

/// One cached verdict with violation-count bookkeeping — the state machine
/// `valid ⇄ invalid` of the mutable cache.
///
/// A verdict is the cached answer to "does this canonical OD hold on the
/// current live instance?", and both canonical shapes fail exactly when some
/// tuple *pair* inside one context class violates them (a split or a swap).
/// The cache therefore stores not just the boolean but, when known, the
/// **number of violating pairs**:
///
/// * appends can only *add* violating pairs — a [`CachedVerdict::Valid`]
///   entry must be re-checked when its context gained covered rows, an
///   [`CachedVerdict::Invalid`] entry is binding (though its count may go
///   stale and is then degraded to `Invalid(None)`);
/// * deletes can only *remove* violating pairs — a `Valid` entry is binding,
///   and an `Invalid(Some(c))` entry is maintained by **delta counting**:
///   subtract the violations the touched classes held before the delete, add
///   what they hold after, and flip to `Valid` when the count reaches zero —
///   without rescanning the untouched remainder of the context.
///
/// Counts are materialized lazily and opportunistically: ordinary validation
/// stores an `Invalid` entry with no count (the boolean scans early-exit on
/// the first witness), and a delete pass materializes the count only when
/// the touched classes are small relative to the context — the regime
/// where future deltas beat rechecks; each pass ends with a cache sweep
/// that ages stale counts back out (appends make them inexact) and drops
/// entries the pass may have changed without re-anchoring.
///
/// Alongside the count, an invalid entry can cache one concrete **witness
/// pair**. A witness is self-certifying under every mutation that does not
/// delete one of its two rows: values never change in place, appends never
/// split a class, and deletes only shrink classes — so two live co-class
/// rows that violate the OD today still violate it after any number of
/// other rows come and go. A delete pass therefore re-confirms most
/// falsified entries with two liveness bit-reads instead of a scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The OD holds: zero violating pairs on the live instance.
    Valid,
    /// The OD fails; see [`InvalidEntry`] for what is known about *how*.
    Invalid(InvalidEntry),
}

/// What the cache knows about a falsified OD beyond the bare verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidEntry {
    /// Exact violating-pair count (`≥ 1`) when materialized and currently
    /// maintained; `None` means "at least one" — never counted, or gone
    /// stale when an append dirtied the context.
    pub violations: Option<NonZeroU64>,
    /// One concrete violating pair (physical row ids), when known. Binding
    /// as long as both rows are live.
    pub witness: Option<(u32, u32)>,
    /// How many witness searches this entry has burned through (saturating).
    /// Entries whose witnesses keep dying are near their revival point or
    /// under concentrated deletion — either way, the next cheap opportunity
    /// materializes the exact count so later deletes delta instead of
    /// re-searching.
    pub rescans: u8,
}

impl CachedVerdict {
    /// Whether the cached verdict says the OD holds.
    pub fn holds(&self) -> bool {
        matches!(self, CachedVerdict::Valid)
    }

    /// The verdict for a boolean validation outcome (nothing materialized).
    pub(crate) fn from_bool(valid: bool) -> CachedVerdict {
        if valid {
            CachedVerdict::Valid
        } else {
            CachedVerdict::Invalid(InvalidEntry {
                violations: None,
                witness: None,
                rescans: 0,
            })
        }
    }

    /// The verdict for an exact violation count (no witness attached).
    pub(crate) fn from_count(violations: u64) -> CachedVerdict {
        match NonZeroU64::new(violations) {
            None => CachedVerdict::Valid,
            some => CachedVerdict::Invalid(InvalidEntry {
                violations: some,
                witness: None,
                rescans: 0,
            }),
        }
    }
}

/// Delta counting is only attempted when the touched classes hold at most
/// this fraction (1/`DELTA_DENSITY_CUTOFF`) of the context's covered rows —
/// above it, one early-exit boolean scan of the partition is the better
/// deal. The same gate decides whether a count is worth materializing for
/// future deltas.
const DELTA_DENSITY_CUTOFF: usize = 2;

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
///   violating pairs are all still live); on a touched one → cheapest
///   certificate first — a still-live cached witness pair (`O(1)`), an
///   exact-count **delta** over the touched classes (`O(touched)`, only
///   when the context saw no appends this pass), or an early-exit witness
///   search over the current partition.
pub(crate) struct CachedJudge<'a> {
    inner: ExactValidator<'a>,
    cache: &'a mut HashMap<CanonicalOd, CachedVerdict>,
    enc: &'a EncodedRelation,
    /// Liveness mask over physical rows — certifies cached witnesses.
    live: &'a [bool],
    /// Per-node touched-class deltas from `DiscoverySnapshot::remove_rows`,
    /// keyed by attribute-set bits, when the pass deleted rows. Nodes that
    /// held one partition hold one delta. A context absent from the map was
    /// not retained (level 0, evicted or never generated) and falls back to
    /// full revalidation.
    deltas: Option<HashMap<u64, Arc<RemoveDelta>>>,
    /// Whether the pass appended rows (drives `Valid`-entry hygiene).
    has_appends: bool,
    /// Append-dirtiness per lattice node (attribute-set bits): whether the
    /// pass added a covered row to the node's partition.
    dirty: HashMap<u64, bool>,
    /// ODs whose verdict was freshly resolved against the current instance
    /// this pass — consulted by the post-pass hygiene to decide which
    /// entries are still anchored.
    judged: HashSet<CanonicalOd>,
    /// Per-worker scratch arenas for the escalation map; the first also
    /// serves the delta counts, which run on the calling thread.
    pools: Vec<SwapScratch>,
    pub(crate) counters: BatchCounters,
}

/// Why a delete-touched `Invalid` entry could not be resolved by a cheap
/// certificate (witness-liveness probe, `O(touched)` count delta) and needs
/// real partition work.
#[derive(Clone, Copy)]
enum EscalationKind {
    /// Materialize the exact violation count over the whole context (the
    /// entry has burned a witness search before; anchor a count so future
    /// small deletes delta in `O(touched)`).
    Recount,
    /// Early-exit witness search over the current context partition.
    Search,
}

/// The partition-work result for one escalated entry — pure data, produced
/// by [`run_escalation`] on any worker thread and folded into the cache
/// sequentially by [`CachedJudge::apply_escalation`].
enum EscalationOutcome {
    /// Exact violating-pair count (recount escalation).
    Count(u64),
    /// Fresh witness pair, or `None` when the OD now holds (search
    /// escalation).
    Witness(Option<(u32, u32)>),
}

/// One delete-pass entry queued for the escalation map of
/// [`CachedJudge::judge_batch`].
struct Escalation<'p> {
    /// Index into the batch's task (and verdict) vector.
    at: usize,
    task: ValidationTask<'p>,
    od: CanonicalOd,
    entry: InvalidEntry,
    kind: EscalationKind,
}

/// Executes one escalation against the current instance. A pure function of
/// the task — no judge state, same result on every worker — which is what
/// lets `judge_batch` map these over the executor while keeping the cache
/// byte-identical at every thread count.
fn run_escalation(
    inner: &ExactValidator<'_>,
    enc: &EncodedRelation,
    esc: &Escalation<'_>,
    scratch: &mut SwapScratch,
) -> EscalationOutcome {
    match esc.kind {
        EscalationKind::Recount => EscalationOutcome::Count(count_violations(
            ctx_of(&esc.task).classes(),
            esc.od.codes(enc),
            scratch,
        )),
        EscalationKind::Search => {
            EscalationOutcome::Witness(inner.find_violation(&esc.task, scratch))
        }
    }
}

impl<'a> CachedJudge<'a> {
    /// A judge over `enc` whose fresh verdicts come from an
    /// [`ExactValidator`] in `fd_mode`.
    pub fn new(
        enc: &'a EncodedRelation,
        fd_mode: FdCheckMode,
        cache: &'a mut HashMap<CanonicalOd, CachedVerdict>,
        live: &'a [bool],
        deltas: Option<HashMap<u64, Arc<RemoveDelta>>>,
        has_appends: bool,
    ) -> CachedJudge<'a> {
        CachedJudge {
            inner: ExactValidator::new(enc, fd_mode),
            cache,
            enc,
            live,
            deltas,
            has_appends,
            dirty: HashMap::new(),
            judged: HashSet::new(),
            pools: vec![SwapScratch::new()],
            counters: BatchCounters::default(),
        }
    }

    /// Whether the pass deleted a covered row from context `bits` — `false`
    /// means provably untouched (no deletes this pass, or a clean retained
    /// delta); `true` covers genuinely touched *and* unknown (unretained)
    /// contexts.
    fn delete_touched(&self, bits: u64) -> bool {
        match &self.deltas {
            None => false,
            Some(map) => map.get(&bits).is_none_or(|delta| delta.is_dirty()),
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
    /// re-anchoring are dropped (to be revalidated whenever next gathered)
    /// and counts the pass made inexact are degraded. Hazards exist because
    /// once deletions revive verdicts, candidate sets can shrink and
    /// regions of the lattice can close and later re-open — so a cached
    /// entry is not necessarily re-gathered every pass:
    ///
    /// * a `Valid` entry survives unless the pass appended rows, its
    ///   context is append-dirty (or untracked), and its candidate was not
    ///   gathered — the batch may have silently falsified it;
    /// * an `Invalid` entry survives if its context is provably
    ///   delete-untouched, its cached witness pair is still fully live, or
    ///   it was re-anchored this pass — otherwise the delete may have
    ///   silently revived it and it is dropped;
    /// * a surviving `Invalid(Some(c))` count stays exact only when the
    ///   entry was re-anchored, or its context saw neither appended covered
    ///   rows nor deleted ones; anything else degrades it to `None` (the
    ///   witness, which mutations of *other* rows cannot kill, keeps
    ///   certifying plain falseness).
    pub fn finish_pass(&mut self) {
        let CachedJudge {
            cache,
            deltas,
            has_appends,
            dirty,
            judged,
            counters,
            live,
            ..
        } = self;
        let deltas = &*deltas;
        let delete_touched = |bits: u64| match deltas {
            None => false,
            Some(map) => map.get(&bits).is_none_or(|delta| delta.is_dirty()),
        };
        cache.retain(|od, verdict| {
            let bits = od.context().bits();
            let was_judged = judged.contains(od);
            let append_clean = !*has_appends || dirty.get(&bits) == Some(&false);
            match verdict {
                CachedVerdict::Valid => {
                    if append_clean || was_judged {
                        true
                    } else {
                        counters.entries_dropped += 1;
                        false
                    }
                }
                CachedVerdict::Invalid(entry) => {
                    let untouched = !delete_touched(bits);
                    if !(untouched || witness_alive(entry.witness, live) || was_judged) {
                        counters.entries_dropped += 1;
                        return false;
                    }
                    if !(was_judged || (append_clean && untouched)) {
                        entry.violations = None;
                    }
                    true
                }
            }
        });
    }

    /// Tries the cheap certificates for one cached-`Invalid` candidate in a
    /// delete pass, given the current (already compacted) context partition:
    ///
    /// * exact count cached and touched classes small → **delta count**
    ///   (`O(touched)`, flips to valid at zero);
    /// * cached witness pair fully live → still false, two bit-reads;
    ///
    /// Anything else escalates to real partition work — a recount when the
    /// entry has burned a witness search before and the delta is small, a
    /// fresh witness search otherwise. Escalations are returned (not run) so
    /// `judge_batch` can map them over the executor's workers.
    fn classify_deleted(
        &mut self,
        od: CanonicalOd,
        entry: InvalidEntry,
        ctx: &StrippedPartition,
    ) -> Result<bool, EscalationKind> {
        let bits = od.context().bits();
        // Exact-count arithmetic is only sound when this pass did not also
        // append covered rows into the context (the delta records removals
        // only), and only worthwhile when the delta is complete and small.
        let append_clean = !self.has_appends || !self.is_dirty(bits);
        let delta = self
            .deltas
            .as_ref()
            .expect("classify_deleted requires a delete pass")
            .get(&bits)
            .filter(|d| d.is_exact() && append_clean);
        let touched_rows: usize = delta
            .map(|d| d.touched.iter().map(|t| t.old.len() + t.new.len()).sum())
            .unwrap_or(usize::MAX);
        let cheap = touched_rows
            .checked_mul(DELTA_DENSITY_CUTOFF)
            .is_some_and(|w| w <= ctx.covered_rows().max(1));
        self.judged.insert(od);
        let alive = witness_alive(entry.witness, self.live);
        if let (Some(count), Some(delta), true) = (entry.violations, delta, cheap) {
            let (removed, remaining) = delta_violations(&od, delta, self.enc, &mut self.pools[0]);
            let updated = (count.get() + remaining)
                .checked_sub(removed)
                .expect("touched-class violations cannot exceed the exact total");
            debug_assert!(!alive || updated > 0, "live witness with zero violations");
            self.counters.delta_revalidated += 1;
            if updated == 0 {
                self.counters.verdicts_revived += 1;
                self.cache.insert(od, CachedVerdict::Valid);
                return Ok(true);
            }
            self.cache.insert(
                od,
                CachedVerdict::Invalid(InvalidEntry {
                    violations: NonZeroU64::new(updated),
                    // A surviving witness keeps certifying; a dead one is
                    // forgotten (the exact count carries the verdict now).
                    witness: entry.witness.filter(|_| alive),
                    rescans: 0,
                }),
            );
            return Ok(false);
        }
        if alive {
            // The witness pair is still live: both rows still share their
            // context class (deletes only shrink classes), so the OD is
            // still violated. The exact count (if any) could not be
            // delta-maintained cheaply, so it degrades.
            self.counters.witness_skips += 1;
            self.cache.insert(
                od,
                CachedVerdict::Invalid(InvalidEntry {
                    violations: None,
                    witness: entry.witness,
                    rescans: entry.rescans,
                }),
            );
            return Ok(false);
        }
        if cheap && delta.is_some() && entry.rescans >= 1 {
            // This entry has burned a witness search before: anchor the
            // exact count now, so the next deletes this small resolve in
            // O(touched) instead of another scan.
            Err(EscalationKind::Recount)
        } else {
            // Full fallback: search the (already compacted) partition for a
            // fresh witness — early-exit, through the validator's own scan
            // machinery — caching the pair it finds so the next deletes
            // resolve in O(1).
            Err(EscalationKind::Search)
        }
    }

    /// Folds one escalation's partition-work result into the cache and
    /// counters. Called sequentially in task order whatever worker ran the
    /// work itself, so the judge's observable state stays independent of
    /// the thread count.
    fn apply_escalation(
        &mut self,
        od: CanonicalOd,
        entry: InvalidEntry,
        outcome: EscalationOutcome,
    ) -> bool {
        match outcome {
            EscalationOutcome::Count(count) => {
                self.counters.recounted += 1;
                if count == 0 {
                    self.counters.verdicts_revived += 1;
                }
                self.cache.insert(od, CachedVerdict::from_count(count));
                count == 0
            }
            EscalationOutcome::Witness(witness) => {
                self.counters.revalidated += 1;
                self.counters.escalated_searches += 1;
                match witness {
                    None => {
                        self.counters.verdicts_revived += 1;
                        self.cache.insert(od, CachedVerdict::Valid);
                        true
                    }
                    some => {
                        self.cache.insert(
                            od,
                            CachedVerdict::Invalid(InvalidEntry {
                                violations: None,
                                witness: some,
                                rescans: entry.rescans.saturating_add(1),
                            }),
                        );
                        false
                    }
                }
            }
        }
    }
}

/// Whether a cached witness pair is still fully live.
fn witness_alive(witness: Option<(u32, u32)>, live: &[bool]) -> bool {
    witness.is_some_and(|(s, t)| live[s as usize] && live[t as usize])
}

/// The violating pairs of `od` inside a delete's touched classes, before
/// (`removed`-side) and after (`remaining`-side) the removal.
fn delta_violations(
    od: &CanonicalOd,
    delta: &RemoveDelta,
    enc: &EncodedRelation,
    scratch: &mut SwapScratch,
) -> (u64, u64) {
    let (touched, od) = (&delta.touched, od.codes(enc));
    (
        count_violations(touched.iter().map(|class| &class.old[..]), od, scratch),
        count_violations(touched.iter().map(|class| &class.new[..]), od, scratch),
    )
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

/// The context partition a task's verdict is evaluated against (the parent
/// partition for constancy, the context partition for order compatibility).
fn ctx_of<'p>(task: &ValidationTask<'p>) -> &'p StrippedPartition {
    match *task {
        ValidationTask::Constancy { parent, .. } => parent,
        ValidationTask::OrderCompat { ctx, .. } => ctx,
    }
}

impl OdJudge for CachedJudge<'_> {
    /// Batch judging with the cache consulted up front: resolved verdicts
    /// never reach the validator, delete-pass delta counts are applied
    /// sequentially (they are `O(touched)` each), and the two expensive
    /// remainders — delete-pass **escalations** (witness searches and
    /// recounts that survived the cheap certificates) and the unresolved
    /// candidates — are each one map over the executor's workers. Cache
    /// updates and counters are applied sequentially in task order, so the
    /// judge's observable state is independent of the thread count.
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
            let prior = self.cache.get(&od).copied();
            match prior {
                Some(CachedVerdict::Invalid(entry)) => {
                    if self.delete_touched(od.context().bits()) {
                        // Cheap certificates inline (O(1) probe, O(touched)
                        // delta); real partition work is deferred so a
                        // delete wave's witness searches never serialize on
                        // this loop.
                        match self.classify_deleted(od, entry, ctx_of(task)) {
                            Ok(verdict) => verdicts.push(Some(verdict)),
                            Err(kind) => {
                                verdicts.push(None);
                                escalations.push(Escalation { at: i, task: *task, od, entry, kind });
                            }
                        }
                    } else {
                        self.counters.skipped_false += 1;
                        verdicts.push(Some(false));
                    }
                }
                Some(CachedVerdict::Valid) if !self.is_dirty(od.context().bits()) => {
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
        // The escalations are pure functions of their task, so folding
        // their outcomes in task order yields the same cache at every
        // thread count. Each can be a long scan; the executor polls
        // `cancel` before every item.
        let (inner, enc) = (&self.inner, self.enc);
        let outcomes = exec.try_map_with(
            &mut self.pools,
            SwapScratch::new,
            &escalations,
            cancel,
            |scratch, _i, esc| run_escalation(inner, enc, esc, scratch),
        )?;
        for (esc, outcome) in escalations.iter().zip(outcomes) {
            verdicts[esc.at] = Some(self.apply_escalation(esc.od, esc.entry, outcome));
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

