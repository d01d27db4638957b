//! OD validation strategies plugged into the lattice driver.
//!
//! The exact validator implements §4.6 (error rates, τ-scans, key pruning)
//! plus two additions over the paper: a per-class **sort-then-sweep** swap
//! check used when a context's classes average at most 1024 rows, which at
//! deep lattice levels is nearly every context (see
//! [`fastod_partition::holds`]), and a **batched** entry
//! point ([`OdValidator::validate_batch`]) that judges a whole lattice
//! level's candidates as one map over the worker threads of a
//! [`crate::parallel::Executor`] (on the calling thread at one thread),
//! one task per item at every thread count. The approximate validator
//! implements the §7 extension via the removal size
//! ([`fastod_partition::removal_size`]), which is monotone under context
//! refinement, so the candidate machinery stays sound.

use crate::config::FdCheckMode;
use crate::parallel::Executor;
use crate::stats::LevelStats;
use crate::{CancelToken, PassError};
use fastod_partition::{
    holds, removal_size, tau_scan, witnesses, OdCodes, SortedColumn, StrippedPartition, SwapScratch,
};
use fastod_relation::{AttrId, AttrSet, EncodedRelation};
use std::sync::OnceLock;

/// The largest average class size, in rows, at which a context's order
/// checks sort and sweep each class instead of τ-scanning all of `|r|`.
/// Measured on every order check of flight-like and voter-like lattices
/// (15k–300k rows): the τ-scan wins only above about this size, and 512,
/// 1024 and 2048 stay within 8% of each other.
const SWEEP_MAX_AVG_CLASS: usize = 1024;

/// Whether the order checks of `ctx` sort and sweep: its classes average
/// at most [`SWEEP_MAX_AVG_CLASS`] rows. A superkey context has no classes
/// and sweeps nothing. Most order checks fail, and the sweep stops at the
/// first class that holds a swap, while the τ-scan walks every class in
/// `A`-order at once; only large classes make its presorted walk pay.
fn sweeps(ctx: &StrippedPartition) -> bool {
    ctx.covered_rows() <= SWEEP_MAX_AVG_CLASS.saturating_mul(ctx.n_classes())
}

/// One candidate-OD validation with its partition inputs resolved — the unit
/// of work sharded across the executor's threads.
///
/// Tasks are created by [`crate::snapshot::validate_level`]'s gather phase
/// and judged in bulk; the borrowed partitions come from the retained
/// lattice levels, which are immutable while a batch is in flight.
#[derive(Clone, Copy)]
pub enum ValidationTask<'p> {
    /// The constancy OD `parent_set: [] ↦ rhs` (the FD fragment), judged
    /// from `Π*_{parent_set}` and `Π*_{parent_set ∪ {rhs}}`.
    Constancy {
        /// Context attribute set `X\A`.
        parent_set: AttrSet,
        /// The determined attribute `A`.
        rhs: AttrId,
        /// `Π*_{X\A}`.
        parent: &'p StrippedPartition,
        /// `Π*_X`.
        node: &'p StrippedPartition,
    },
    /// The order-compatibility OD `ctx_set: a ~ b`, judged from `Π*_{ctx_set}`.
    OrderCompat {
        /// Context attribute set `X\{A,B}`.
        ctx_set: AttrSet,
        /// First attribute of the unordered pair.
        a: AttrId,
        /// Second attribute of the unordered pair.
        b: AttrId,
        /// `Π*_{ctx_set}`.
        ctx: &'p StrippedPartition,
    },
}

/// Strategy for validating the two canonical OD shapes at a lattice node.
/// The lattice driver calls [`validate_batch`](OdValidator::validate_batch)
/// through [`OdJudge`]; the per-task methods serve callers that judge one
/// candidate at a time, such as [`crate::NoPruningFastod`].
pub trait OdValidator {
    /// Validates `X\A: [] ↦ A` given `Π*_{X\A}` (parent) and `Π*_X` (node).
    fn constancy(
        &mut self,
        parent: &StrippedPartition,
        node: &StrippedPartition,
        a: AttrId,
        stats: &mut LevelStats,
    ) -> bool;

    /// Validates `ctx: A ~ B` given `Π*_ctx`. `token` identifies the context
    /// for scratch reuse across pairs sharing it.
    fn order_compat(
        &mut self,
        ctx: &StrippedPartition,
        token: usize,
        a: AttrId,
        b: AttrId,
        stats: &mut LevelStats,
    ) -> bool;

    /// Validates a batch of tasks on `exec`'s workers, returning verdicts
    /// in task order (the executor's merge guarantees this), which keeps the
    /// discovered cover independent of the thread count.
    ///
    /// # Errors
    /// [`PassError`] when `cancel` fires mid-batch or a task closure panics
    /// (contained by the executor).
    fn validate_batch(
        &mut self,
        tasks: &[ValidationTask<'_>],
        exec: &Executor,
        cancel: &CancelToken,
        stats: &mut LevelStats,
    ) -> Result<Vec<bool>, PassError>;
}

/// Tallies the per-kind check counters of a batch exactly as the per-task
/// methods do (superkey contexts count as key-pruned, not as performed
/// checks).
fn tally_stats(tasks: &[ValidationTask<'_>], stats: &mut LevelStats) {
    for task in tasks {
        match task {
            ValidationTask::Constancy { parent, .. } => {
                if parent.is_superkey() {
                    stats.fd_checks_key_pruned += 1;
                } else {
                    stats.fd_checks += 1;
                }
            }
            ValidationTask::OrderCompat { .. } => stats.swap_checks += 1,
        }
    }
}

/// Identity-aware validation — what the lattice driver actually consults.
///
/// Unlike [`OdValidator`], the judge receives the *attribute-set identity* of
/// the candidate OD alongside the partitions, which is what memoizing
/// wrappers (the incremental engine's verdict cache) key on. Every
/// `OdValidator` is an `OdJudge` through the blanket impl, which simply
/// drops the identity (and derives the scratch-reuse token from the context
/// bits, as the one-shot algorithm always did). A judge implements only
/// [`judge_batch`](OdJudge::judge_batch); the single-task methods judge a
/// one-task batch.
pub trait OdJudge {
    /// Judges the constancy OD `parent_set: [] ↦ rhs` given `Π*_{parent_set}`
    /// and the node partition `Π*_{parent_set ∪ {rhs}}`.
    fn constancy(
        &mut self,
        parent_set: AttrSet,
        rhs: AttrId,
        parent: &StrippedPartition,
        node: &StrippedPartition,
        stats: &mut LevelStats,
    ) -> bool {
        judge_one(self, ValidationTask::Constancy { parent_set, rhs, parent, node }, stats)
    }

    /// Judges the order-compatibility OD `ctx_set: a ~ b` given `Π*_{ctx_set}`.
    fn order_compat(
        &mut self,
        ctx_set: AttrSet,
        a: AttrId,
        b: AttrId,
        ctx: &StrippedPartition,
        stats: &mut LevelStats,
    ) -> bool {
        judge_one(self, ValidationTask::OrderCompat { ctx_set, a, b, ctx }, stats)
    }

    /// Judges a batch of tasks, returning verdicts in task order; see
    /// [`OdValidator::validate_batch`] for the parallelism and determinism
    /// contract.
    ///
    /// # Errors
    /// [`PassError`] when `cancel` fires mid-batch or a task closure panics
    /// (contained by the executor).
    fn judge_batch(
        &mut self,
        tasks: &[ValidationTask<'_>],
        exec: &Executor,
        cancel: &CancelToken,
        stats: &mut LevelStats,
    ) -> Result<Vec<bool>, PassError>;
}

/// Judges `task` as a one-task batch on the calling thread. Panics if the
/// batch fails: under a never-cancelled token only a contained panic or an
/// armed fault plan can fail it.
fn judge_one<J: OdJudge + ?Sized>(
    judge: &mut J,
    task: ValidationTask<'_>,
    stats: &mut LevelStats,
) -> bool {
    match judge.judge_batch(&[task], &Executor::default(), &CancelToken::never(), stats) {
        Ok(verdicts) => verdicts[0],
        Err(e) => panic!("never-cancelled one-task batch failed: {e}"),
    }
}

impl<V: OdValidator> OdJudge for V {
    fn judge_batch(
        &mut self,
        tasks: &[ValidationTask<'_>],
        exec: &Executor,
        cancel: &CancelToken,
        stats: &mut LevelStats,
    ) -> Result<Vec<bool>, PassError> {
        OdValidator::validate_batch(self, tasks, exec, cancel, stats)
    }
}

/// Exact validation (paper §4.6).
pub struct ExactValidator<'a> {
    enc: &'a EncodedRelation,
    /// Sorted partitions `τ_A`, built lazily on an attribute's first
    /// τ-scanned swap check (worker threads race benignly through the
    /// `OnceLock`). One-shot discovery touches (nearly) every attribute
    /// anyway, but incremental maintenance passes often validate almost
    /// nothing — they must not pay O(n) per attribute up front; and contexts
    /// with small classes take the sort-then-sweep path and never need
    /// `τ_A` at all.
    taus: Vec<OnceLock<SortedColumn>>,
    /// Per-worker scratch arenas, persisted across lattice levels.
    pools: Vec<SwapScratch>,
    fd_mode: FdCheckMode,
}

impl<'a> ExactValidator<'a> {
    /// Creates a validator; sorted partitions `τ_A` are built on demand.
    pub fn new(enc: &'a EncodedRelation, fd_mode: FdCheckMode) -> ExactValidator<'a> {
        ExactValidator {
            enc,
            taus: (0..enc.n_attrs()).map(|_| OnceLock::new()).collect(),
            pools: vec![SwapScratch::new()],
            fd_mode,
        }
    }

    /// Searches for one violating pair of `task`'s OD: a split for a
    /// constancy task, a swap for an order-compatibility task, `None` when
    /// the OD holds. The incremental engine caches the pair against future
    /// deletions, since a violating pair stays violating until one of its
    /// rows is deleted. The kernel choice is the boolean check's
    /// (sort-then-sweep on small-class contexts, the early-exit `τ`-scan
    /// otherwise; constancy takes the split scan), and the result is a pure
    /// function of the task, so a map of searches finds the same pairs at
    /// every thread count (workers build the `τ_A` cache racily but
    /// idempotently).
    pub fn find_violation(
        &self,
        task: &ValidationTask<'_>,
        scratch: &mut SwapScratch,
    ) -> Option<(u32, u32)> {
        let enc = self.enc;
        let (classes, od) = match *task {
            ValidationTask::Constancy { rhs, parent, .. } => {
                (parent.classes(), OdCodes::Constancy(enc.codes(rhs)))
            }
            ValidationTask::OrderCompat { a, b, ctx, .. } if sweeps(ctx) => {
                (ctx.classes(), OdCodes::Order(enc.codes(a), enc.codes(b)))
            }
            ValidationTask::OrderCompat { a, b, ctx, .. } => {
                let tau = self.taus[a]
                    .get_or_init(|| SortedColumn::build(enc.codes(a), enc.cardinality(a)));
                return tau_scan(ctx, tau, enc.codes(b), scratch, None);
            }
        };
        witnesses(classes, od, 1, scratch).first().copied()
    }
}

/// The constancy verdict of a non-superkey context, shared by the per-task
/// method and the batch.
fn exact_constancy(
    enc: &EncodedRelation,
    fd_mode: FdCheckMode,
    scratch: &mut SwapScratch,
    parent: &StrippedPartition,
    node: &StrippedPartition,
    a: AttrId,
) -> bool {
    match fd_mode {
        FdCheckMode::ErrorRate => parent.error() == node.error(),
        FdCheckMode::Scan => holds(parent.classes(), OdCodes::Constancy(enc.codes(a)), scratch),
    }
}

/// The order-compatibility verdict, shared by the per-task method and the
/// batch: sort-then-sweep for small-class contexts ([`sweeps`]), τ-scan
/// otherwise.
fn exact_order_compat(
    enc: &EncodedRelation,
    taus: &[OnceLock<SortedColumn>],
    scratch: &mut SwapScratch,
    ctx: &StrippedPartition,
    token: usize,
    a: AttrId,
    b: AttrId,
) -> bool {
    if sweeps(ctx) {
        let od = OdCodes::Order(enc.codes(a), enc.codes(b));
        return holds(ctx.classes(), od, scratch);
    }
    let tau = taus[a].get_or_init(|| SortedColumn::build(enc.codes(a), enc.cardinality(a)));
    tau_scan(ctx, tau, enc.codes(b), scratch, Some(token)).is_none()
}

impl OdValidator for ExactValidator<'_> {
    fn constancy(
        &mut self,
        parent: &StrippedPartition,
        node: &StrippedPartition,
        a: AttrId,
        stats: &mut LevelStats,
    ) -> bool {
        if parent.is_superkey() {
            // Lemma 12: a superkey context validates any constancy OD.
            stats.fd_checks_key_pruned += 1;
            return true;
        }
        stats.fd_checks += 1;
        exact_constancy(self.enc, self.fd_mode, &mut self.pools[0], parent, node, a)
    }

    fn order_compat(
        &mut self,
        ctx: &StrippedPartition,
        token: usize,
        a: AttrId,
        b: AttrId,
        stats: &mut LevelStats,
    ) -> bool {
        stats.swap_checks += 1;
        exact_order_compat(self.enc, &self.taus, &mut self.pools[0], ctx, token, a, b)
    }

    fn validate_batch(
        &mut self,
        tasks: &[ValidationTask<'_>],
        exec: &Executor,
        cancel: &CancelToken,
        stats: &mut LevelStats,
    ) -> Result<Vec<bool>, PassError> {
        tally_stats(tasks, stats);
        count_order_kernels(tasks, exec);
        let (enc, fd_mode, taus) = (self.enc, self.fd_mode, &self.taus);
        exec.try_map_with(
            &mut self.pools,
            SwapScratch::new,
            tasks,
            cancel,
            |scratch, _i, task| match *task {
                ValidationTask::Constancy { rhs, parent, node, .. } => {
                    parent.is_superkey()
                        || exact_constancy(enc, fd_mode, scratch, parent, node, rhs)
                }
                ValidationTask::OrderCompat { ctx_set, a, b, ctx } => {
                    exact_order_compat(enc, taus, scratch, ctx, ctx_set.bits() as usize, a, b)
                }
            },
        )
    }
}

/// Adds the batch's order checks to the `validate.order_sweep` and
/// `validate.order_tau` counters, by the kernel that judges each
/// ([`sweeps`]).
fn count_order_kernels(tasks: &[ValidationTask<'_>], exec: &Executor) {
    let (mut sweep, mut tau) = (0u64, 0u64);
    for task in tasks {
        if let ValidationTask::OrderCompat { ctx, .. } = task {
            if sweeps(ctx) {
                sweep += 1;
            } else {
                tau += 1;
            }
        }
    }
    exec.obs().add("validate.order_sweep", sweep);
    exec.obs().add("validate.order_tau", tau);
}

/// Approximate validation: an OD is accepted when at most `max_remove` rows
/// must be deleted for it to hold exactly. The removal-size kernel gets
/// `max_remove` as its cap, so a check stops as soon as the OD is known to
/// be over budget.
pub struct ApproxValidator<'a> {
    enc: &'a EncodedRelation,
    max_remove: usize,
    /// Per-worker scratch arenas, persisted across lattice levels.
    pools: Vec<SwapScratch>,
}

impl<'a> ApproxValidator<'a> {
    /// Creates a validator accepting ODs within `max_remove` row removals.
    pub fn new(enc: &'a EncodedRelation, max_remove: usize) -> ApproxValidator<'a> {
        ApproxValidator {
            enc,
            max_remove,
            pools: vec![SwapScratch::new()],
        }
    }
}

impl OdValidator for ApproxValidator<'_> {
    fn constancy(
        &mut self,
        parent: &StrippedPartition,
        _node: &StrippedPartition,
        a: AttrId,
        stats: &mut LevelStats,
    ) -> bool {
        if parent.is_superkey() {
            stats.fd_checks_key_pruned += 1;
            return true;
        }
        stats.fd_checks += 1;
        let od = OdCodes::Constancy(self.enc.codes(a));
        removal_size(parent.classes(), od, self.max_remove, &mut self.pools[0]) <= self.max_remove
    }

    fn order_compat(
        &mut self,
        ctx: &StrippedPartition,
        _token: usize,
        a: AttrId,
        b: AttrId,
        stats: &mut LevelStats,
    ) -> bool {
        stats.swap_checks += 1;
        let od = OdCodes::Order(self.enc.codes(a), self.enc.codes(b));
        removal_size(ctx.classes(), od, self.max_remove, &mut self.pools[0]) <= self.max_remove
    }

    fn validate_batch(
        &mut self,
        tasks: &[ValidationTask<'_>],
        exec: &Executor,
        cancel: &CancelToken,
        stats: &mut LevelStats,
    ) -> Result<Vec<bool>, PassError> {
        tally_stats(tasks, stats);
        let (enc, cap) = (self.enc, self.max_remove);
        exec.try_map_with(
            &mut self.pools,
            SwapScratch::new,
            tasks,
            cancel,
            |scratch, _i, task| match *task {
                ValidationTask::Constancy { rhs, parent, .. } => {
                    let od = OdCodes::Constancy(enc.codes(rhs));
                    parent.is_superkey() || removal_size(parent.classes(), od, cap, scratch) <= cap
                }
                ValidationTask::OrderCompat { a, b, ctx, .. } => {
                    let od = OdCodes::Order(enc.codes(a), enc.codes(b));
                    removal_size(ctx.classes(), od, cap, scratch) <= cap
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::RelationBuilder;

    fn enc() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("x", vec![0, 0, 1, 1])
            .column_i64("y", vec![5, 5, 6, 7])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn exact_error_rate_and_scan_agree() {
        let e = enc();
        let parent = StrippedPartition::from_codes(e.codes(0), e.cardinality(0));
        let node = parent.product_simple(&StrippedPartition::from_codes(
            e.codes(1),
            e.cardinality(1),
        ));
        let mut stats = LevelStats::default();
        let mut v1 = ExactValidator::new(&e, FdCheckMode::ErrorRate);
        let mut v2 = ExactValidator::new(&e, FdCheckMode::Scan);
        // {x}: [] -> y fails (split in class {2,3}).
        assert!(!OdValidator::constancy(&mut v1, &parent, &node, 1, &mut stats));
        assert!(!OdValidator::constancy(&mut v2, &parent, &node, 1, &mut stats));
        assert_eq!(stats.fd_checks, 2);
        // The judge's single-task methods run a one-task batch.
        let x = AttrSet::singleton(0);
        assert!(!OdJudge::constancy(&mut v1, x, 1, &parent, &node, &mut stats));
        assert!(OdJudge::order_compat(&mut v2, x, 0, 1, &parent, &mut stats));
        assert_eq!((stats.fd_checks, stats.swap_checks), (3, 1));
    }

    #[test]
    fn exact_key_pruning_short_circuits() {
        let e = enc();
        let superkey = StrippedPartition::from_classes(4, vec![]);
        let node = superkey.clone();
        let mut stats = LevelStats::default();
        let mut v = ExactValidator::new(&e, FdCheckMode::ErrorRate);
        assert!(OdValidator::constancy(&mut v, &superkey, &node, 1, &mut stats));
        assert_eq!(stats.fd_checks, 0);
        assert_eq!(stats.fd_checks_key_pruned, 1);
    }

    #[test]
    fn approx_accepts_within_budget() {
        let e = enc();
        let parent = StrippedPartition::from_codes(e.codes(0), e.cardinality(0));
        let node = StrippedPartition::from_classes(4, vec![]);
        let mut stats = LevelStats::default();
        // Exactly: {x}: [] -> y fails; with one removal it holds.
        let mut strict = ApproxValidator::new(&e, 0);
        let mut loose = ApproxValidator::new(&e, 1);
        assert!(!OdValidator::constancy(&mut strict, &parent, &node, 1, &mut stats));
        assert!(OdValidator::constancy(&mut loose, &parent, &node, 1, &mut stats));
    }

    #[test]
    fn approx_order_compat_budget() {
        let e = RelationBuilder::new()
            .column_i64("a", vec![0, 1, 2, 3])
            .column_i64("b", vec![0, 1, 9, 3]) // one outlier swap
            .build()
            .unwrap()
            .encode();
        let ctx = StrippedPartition::unit(4);
        let mut stats = LevelStats::default();
        let mut strict = ApproxValidator::new(&e, 0);
        let mut loose = ApproxValidator::new(&e, 1);
        assert!(!OdValidator::order_compat(&mut strict, &ctx, 0, 0, 1, &mut stats));
        assert!(OdValidator::order_compat(&mut loose, &ctx, 0, 0, 1, &mut stats));
    }

    /// Batched verdicts and counters must equal the per-task methods', at
    /// every thread count (more workers than tasks included) and with both
    /// FD-check modes.
    #[test]
    fn batch_matches_sequential_across_thread_counts() {
        let e = RelationBuilder::new()
            .column_i64("w", vec![0, 0, 0, 1, 1, 1, 2, 2])
            .column_i64("x", vec![0, 1, 2, 0, 1, 2, 0, 1])
            .column_i64("y", vec![5, 5, 6, 6, 7, 7, 8, 8])
            .column_i64("z", vec![3, 1, 4, 1, 5, 9, 2, 6])
            .build()
            .unwrap()
            .encode();
        let parts: Vec<StrippedPartition> = (0..4)
            .map(|a| StrippedPartition::from_codes(e.codes(a), e.cardinality(a)))
            .collect();
        let unit = StrippedPartition::unit(8);
        let mut tasks: Vec<ValidationTask> = Vec::new();
        for a in 0..4usize {
            tasks.push(ValidationTask::Constancy {
                parent_set: AttrSet::singleton((a + 1) % 4),
                rhs: a,
                parent: &parts[(a + 1) % 4],
                node: &parts[a],
            });
            for b in (a + 1)..4 {
                tasks.push(ValidationTask::OrderCompat {
                    ctx_set: AttrSet::EMPTY,
                    a,
                    b,
                    ctx: &unit,
                });
                tasks.push(ValidationTask::OrderCompat {
                    ctx_set: AttrSet::singleton(0),
                    a,
                    b,
                    ctx: &parts[0],
                });
            }
        }
        // The reference judges the tasks one by one through the per-task
        // methods.
        fn one_by_one<V: OdValidator>(
            v: &mut V,
            tasks: &[ValidationTask<'_>],
        ) -> (Vec<bool>, LevelStats) {
            let mut stats = LevelStats::default();
            let verdicts = tasks
                .iter()
                .map(|task| match *task {
                    ValidationTask::Constancy { rhs, parent, node, .. } => {
                        v.constancy(parent, node, rhs, &mut stats)
                    }
                    ValidationTask::OrderCompat { ctx_set, a, b, ctx } => {
                        v.order_compat(ctx, ctx_set.bits() as usize, a, b, &mut stats)
                    }
                })
                .collect();
            (verdicts, stats)
        }
        let cancel = CancelToken::never();
        for fd_mode in [FdCheckMode::ErrorRate, FdCheckMode::Scan] {
            let (reference, stats) = one_by_one(&mut ExactValidator::new(&e, fd_mode), &tasks);
            for threads in [1, 2, 4, 16, 64] {
                let mut stats_n = LevelStats::default();
                let mut v = ExactValidator::new(&e, fd_mode);
                let got = v
                    .validate_batch(&tasks, &Executor::new(threads), &cancel, &mut stats_n)
                    .unwrap();
                assert_eq!(got, reference, "threads={threads} mode={fd_mode:?}");
                assert_eq!(stats_n.fd_checks, stats.fd_checks);
                assert_eq!(stats_n.swap_checks, stats.swap_checks);
                assert_eq!(stats_n.fd_checks_key_pruned, stats.fd_checks_key_pruned);
            }
        }
        // Approximate validator: same contract at every budget (0 ≙ the
        // exact scans, usize::MAX accepts everything). Each validator judges
        // the batch twice, so the second round reuses its per-worker pools.
        for budget in [0, 1, 2, usize::MAX] {
            let (reference, stats1) = one_by_one(&mut ApproxValidator::new(&e, budget), &tasks);
            for threads in [1, 2, 4, 16] {
                let exec = Executor::new(threads);
                let mut v = ApproxValidator::new(&e, budget);
                for round in 0..2 {
                    let mut stats_n = LevelStats::default();
                    let got = v.validate_batch(&tasks, &exec, &cancel, &mut stats_n).unwrap();
                    let at = format!("budget={budget} threads={threads} round={round}");
                    assert_eq!(got, reference, "{at}");
                    assert_eq!(stats_n.fd_checks, stats1.fd_checks, "{at}");
                    assert_eq!(stats_n.swap_checks, stats1.swap_checks, "{at}");
                    assert_eq!(
                        stats_n.fd_checks_key_pruned, stats1.fd_checks_key_pruned,
                        "{at}"
                    );
                }
            }
        }
    }

    /// Both order kernels give the naive verdict at the edge of the rule
    /// that picks between them: `g`'s classes average 1024 rows (sweep),
    /// `h`'s 1025 (τ-scan). The batch counts each check under the kernel
    /// it names at every thread count, and a witness is a genuine swap.
    #[test]
    fn kernel_choice_changes_no_verdict() {
        use fastod_theory::validate::canonical_od_holds_naive;
        use fastod_theory::CanonicalOd;
        let n = 2100i64;
        // g: classes 0..1024 and 1024..2048, then singletons. h: even and
        // odd rows below 2050, then singletons.
        let g = (0..n)
            .map(|r| if r < 2048 { r / 1024 } else { r })
            .collect();
        let h = (0..n).map(|r| if r < 2050 { r % 2 } else { r }).collect();
        let a: Vec<i64> = (0..n).map(|r| r / 3).collect();
        let b_ok: Vec<i64> = (0..n).map(|r| r / 5).collect();
        // Rows 1500 and 1800 share a class of g and of h; swapping their B
        // orders them against A.
        let mut b_bad = b_ok.clone();
        b_bad.swap(1500, 1800);
        let e = RelationBuilder::new()
            .column_i64("g", g)
            .column_i64("h", h)
            .column_i64("a", a)
            .column_i64("b_ok", b_ok)
            .column_i64("b_bad", b_bad)
            .build()
            .unwrap()
            .encode();
        let pg = StrippedPartition::from_codes(e.codes(0), e.cardinality(0));
        let ph = StrippedPartition::from_codes(e.codes(1), e.cardinality(1));
        assert!(sweeps(&pg) && !sweeps(&ph));
        let mut tasks = Vec::new();
        for (ctx_attr, ctx) in [(0, &pg), (1, &ph)] {
            for b in [3, 4] {
                tasks.push(ValidationTask::OrderCompat {
                    ctx_set: AttrSet::singleton(ctx_attr),
                    a: 2,
                    b,
                    ctx,
                });
            }
        }
        let naive: Vec<bool> = tasks
            .iter()
            .map(|task| match *task {
                ValidationTask::OrderCompat { ctx_set, a, b, .. } => {
                    canonical_od_holds_naive(&e, &CanonicalOd::order_compat(ctx_set, a, b))
                }
                ValidationTask::Constancy { .. } => unreachable!("order checks only"),
            })
            .collect();
        assert_eq!(naive, [true, false, true, false]);
        let cancel = CancelToken::never();
        // 4 tasks on 8 threads run as one map, as on 1 and 2.
        for threads in [1, 2, 8] {
            let obs = fastod_obs::Obs::enabled();
            let exec = Executor::with_obs(threads, obs.clone());
            let mut v = ExactValidator::new(&e, FdCheckMode::ErrorRate);
            let mut stats = LevelStats::default();
            let got = v
                .validate_batch(&tasks, &exec, &cancel, &mut stats)
                .unwrap();
            assert_eq!(got, naive, "threads={threads}");
            let snap = obs.snapshot();
            assert_eq!(snap.counter("validate.order_sweep"), Some(2), "threads={threads}");
            assert_eq!(snap.counter("validate.order_tau"), Some(2), "threads={threads}");
        }
        let v = ExactValidator::new(&e, FdCheckMode::ErrorRate);
        let mut scratch = SwapScratch::new();
        for (task, holds) in tasks.iter().zip(naive) {
            let ValidationTask::OrderCompat { a, b, ctx, .. } = *task else {
                unreachable!("order checks only")
            };
            match v.find_violation(task, &mut scratch) {
                None => assert!(holds),
                Some((s, t)) => {
                    assert!(!holds);
                    let (s, t) = (s as usize, t as usize);
                    assert!(ctx
                        .classes()
                        .iter()
                        .any(|c| c.contains(&(s as u32)) && c.contains(&(t as u32))));
                    let (ca, cb) = (e.cmp_attr(a, s, t), e.cmp_attr(b, s, t));
                    assert!(
                        ca != std::cmp::Ordering::Equal && ca == cb.reverse(),
                        "({s}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_cancellation_propagates() {
        let e = enc();
        let unit = StrippedPartition::unit(4);
        let tasks: Vec<ValidationTask> = (0..200)
            .map(|_| ValidationTask::OrderCompat {
                ctx_set: AttrSet::EMPTY,
                a: 0,
                b: 1,
                ctx: &unit,
            })
            .collect();
        let cancel = CancelToken::with_timeout(std::time::Duration::ZERO);
        let mut stats = LevelStats::default();
        let mut v = ExactValidator::new(&e, FdCheckMode::ErrorRate);
        for threads in [1, 4] {
            assert_eq!(
                v.validate_batch(&tasks, &Executor::new(threads), &cancel, &mut stats)
                    .unwrap_err(),
                PassError::Cancelled
            );
        }
    }
}
