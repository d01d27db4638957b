//! The lattice loop replayed phase by phase through the public functions
//! of `fastod::snapshot`, with a span around each phase.
//!
//! `replay` makes the same calls in the same order as the library's own
//! loop behind `Fastod::try_discover` and `ApproxFastod::try_discover`:
//! level 1, then per level candidates, validation, pruning and generation
//! of the next level. The traced run checks that it yields the same cover
//! and the same per-level counts as the library's loop, so the per-layer
//! numbers describe the real program.

use crate::trace::Recorder;
use fastod_suite::discovery::snapshot::{
    build_level0, build_level1_parallel, calculate_next_level_parallel, candidate_joins,
    compute_candidate_sets_parallel, prune_level, validate_level, Level,
};
use fastod_suite::discovery::{
    CancelToken, Executor, LevelStats, OdJudge, OdValidator, PassError, ValidationTask,
};
use fastod_suite::partition::StrippedPartition;
use fastod_suite::relation::{AttrId, AttrSet, EncodedRelation};
use fastod_suite::theory::OdSet;

/// Span names of one replayed lattice loop.
pub struct Phases {
    pub level1: &'static str,
    pub candidates: &'static str,
    pub validate: &'static str,
    pub constancy: &'static str,
    pub order_compat: &'static str,
    pub prune: &'static str,
    pub generate: &'static str,
}

/// Exact discovery (`Fastod`).
pub const CORE: Phases = Phases {
    level1: "core.level1",
    candidates: "core.candidates",
    validate: "core.validate",
    constancy: "core.validate.constancy",
    order_compat: "core.validate.order_compat",
    prune: "core.prune",
    generate: "core.generate",
};

/// Approximate discovery (`ApproxFastod`).
pub const APPROX: Phases = Phases {
    level1: "approx.level1",
    candidates: "approx.candidates",
    validate: "approx.validate",
    constancy: "approx.validate.constancy",
    order_compat: "approx.validate.order_compat",
    prune: "approx.prune",
    generate: "approx.generate",
};

/// Counting done by the benchmark itself between phases.
const BOOKKEEPING: &str = "bench.count";

/// What a replay found, plus the partition counts gathered along the way.
pub struct Replay {
    pub ods: OdSet,
    pub levels: Vec<LevelStats>,
    /// Partition products (one per candidate join).
    pub products: u64,
    /// Covered rows of both operands, summed over products.
    pub rows_in: u64,
    /// Covered rows of the results, summed over products.
    pub rows_out: u64,
    /// Most partition bytes resident at once across the four live levels.
    pub peak_lattice_bytes: usize,
}

/// Judges each level's batch through `inner`. At one thread the batch is
/// split by task kind and each kind judged as its own batch under its own
/// span: the executor then runs inline, so the split changes no work.
struct SplitJudge<'r, V> {
    inner: V,
    rec: &'r Recorder,
    phases: &'r Phases,
    level: usize,
}

impl<V: OdValidator> OdJudge for SplitJudge<'_, V> {
    fn constancy(
        &mut self,
        _parent_set: AttrSet,
        rhs: AttrId,
        parent: &StrippedPartition,
        node: &StrippedPartition,
        stats: &mut LevelStats,
    ) -> bool {
        self.inner.constancy(parent, node, rhs, stats)
    }

    fn order_compat(
        &mut self,
        ctx_set: AttrSet,
        a: AttrId,
        b: AttrId,
        ctx: &StrippedPartition,
        stats: &mut LevelStats,
    ) -> bool {
        self.inner
            .order_compat(ctx, ctx_set.bits() as usize, a, b, stats)
    }

    fn judge_batch(
        &mut self,
        tasks: &[ValidationTask<'_>],
        exec: &Executor,
        cancel: &CancelToken,
        stats: &mut LevelStats,
    ) -> Result<Vec<bool>, PassError> {
        if exec.is_parallel() {
            return self.inner.validate_batch(tasks, exec, cancel, stats);
        }
        let (fd, oc): (Vec<usize>, Vec<usize>) =
            (0..tasks.len()).partition(|&i| matches!(tasks[i], ValidationTask::Constancy { .. }));
        let mut verdicts = vec![false; tasks.len()];
        for (span, idx) in [(self.phases.constancy, fd), (self.phases.order_compat, oc)] {
            let batch: Vec<ValidationTask<'_>> = idx.iter().map(|&i| tasks[i]).collect();
            let _span = self.rec.span_at(span, self.level);
            let judged = self.inner.validate_batch(&batch, exec, cancel, stats)?;
            for (i, v) in idx.into_iter().zip(judged) {
                verdicts[i] = v;
            }
        }
        Ok(verdicts)
    }
}

fn level_bytes(level: &Level) -> usize {
    level
        .values()
        .map(|node| node.partition.memory_bytes())
        .sum()
}

/// Runs the lattice loop over `enc` with `validator` at `threads`
/// workers; `lemma5_removals` as in the library (exact: on, approximate:
/// off). No level cap and no cancellation, as in the CLI's default.
pub fn replay<V: OdValidator>(
    enc: &EncodedRelation,
    validator: V,
    lemma5_removals: bool,
    threads: usize,
    phases: &Phases,
    rec: &Recorder,
) -> Result<Replay, PassError> {
    let n_attrs = enc.n_attrs();
    let exec = Executor::new(threads);
    let cancel = CancelToken::never();
    let mut judge = SplitJudge {
        inner: validator,
        rec,
        phases,
        level: 1,
    };
    let mut out = Replay {
        ods: OdSet::new(),
        levels: Vec::new(),
        products: 0,
        rows_in: 0,
        rows_out: 0,
        peak_lattice_bytes: 0,
    };
    let mut product_pool = Vec::new();
    let mut prev_prev = Level::new();
    let (mut prev, mut current) = {
        let _span = rec.span_at(phases.level1, 1);
        (
            build_level0(enc.n_rows(), n_attrs),
            build_level1_parallel(enc, &exec, &cancel)?,
        )
    };
    let mut l = 1usize;
    while !current.is_empty() {
        let mut lstats = LevelStats {
            level: l,
            nodes: current.len(),
            ..Default::default()
        };
        {
            let _span = rec.span_at(phases.candidates, l);
            compute_candidate_sets_parallel(l, &mut current, &prev, n_attrs, &exec, &cancel)?;
        }
        {
            let _span = rec.span_at(phases.validate, l);
            judge.level = l;
            validate_level(
                l,
                &mut current,
                &prev,
                &prev_prev,
                &mut judge,
                &mut out.ods,
                &mut lstats,
                lemma5_removals,
                &exec,
                &cancel,
            )?;
        }
        {
            let _span = rec.span_at(phases.prune, l);
            prune_level(l, &mut current, &mut lstats);
        }
        let next = {
            let _span = rec.span_at(phases.generate, l);
            calculate_next_level_parallel(&current, n_attrs, &exec, &mut product_pool, &cancel)?
        };
        {
            let _span = rec.span_at(BOOKKEEPING, l);
            let joins = candidate_joins(&current);
            out.products += joins.len() as u64;
            let covered = |set: AttrSet| current[&set.bits()].partition.covered_rows() as u64;
            out.rows_in += joins
                .iter()
                .map(|&(_, pi, pj)| covered(pi) + covered(pj))
                .sum::<u64>();
            out.rows_out += next
                .values()
                .map(|n| n.partition.covered_rows() as u64)
                .sum::<u64>();
            let resident = [&prev_prev, &prev, &current, &next]
                .into_iter()
                .map(level_bytes)
                .sum();
            out.peak_lattice_bytes = out.peak_lattice_bytes.max(resident);
        }
        out.levels.push(lstats);
        prev_prev = std::mem::take(&mut prev);
        prev = std::mem::take(&mut current);
        current = next;
        l += 1;
    }
    Ok(out)
}

/// The count fields of a level's statistics (timings excluded), for the
/// replay-equivalence guard.
pub fn level_counts(levels: &[LevelStats]) -> Vec<[usize; 8]> {
    levels
        .iter()
        .map(|s| {
            [
                s.level,
                s.nodes,
                s.pruned_nodes,
                s.fds_found,
                s.ocds_found,
                s.fd_checks,
                s.fd_checks_key_pruned,
                s.swap_checks,
            ]
        })
        .collect()
}
