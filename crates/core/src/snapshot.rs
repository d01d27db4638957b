//! Re-entrant traversal hooks and retained lattice state.
//!
//! The one-shot [`crate::Fastod`] driver streams through the lattice and
//! drops each level once its children are generated. Long-lived consumers —
//! the incremental maintenance engine in `fastod-incremental` foremost —
//! need to *re-enter* the traversal after the relation changes: reuse
//! partitions that provably did not change, skip candidate validations whose
//! verdicts are still binding, and resume from nodes whose dependencies were
//! falsified. This module exposes the pieces of Algorithms 1–4 they need:
//!
//! * [`Node`], [`Level`], [`build_level0`], [`build_level1`] — lattice
//!   construction;
//! * [`candidate_joins`], [`JoinAction`], [`generate_level`] — generation:
//!   a child a known FD makes equal to a parent shares that parent's
//!   partition, and every other child runs the caller's plan (one product,
//!   absorb or reuse each, in join order) on the executor, every product a
//!   refinement of one parent; the all-product plan is
//!   [`calculate_next_level_parallel`];
//! * [`compute_candidate_sets`] — Algorithm 3 lines 1–8 (`C⁺c`/`C⁺s`);
//! * [`validate_level`] — Algorithm 3 lines 9–24, generic over an
//!   [`OdJudge`] so verdicts can be cached/memoized externally;
//! * [`prune_level`] — Algorithm 4;
//! * [`DiscoverySnapshot`] — the retained per-level node store.
//!
//! Running `compute_candidate_sets` → `validate_level` → `prune_level` →
//! `calculate_next_level_parallel` level by level with a plain validator
//! reproduces `Fastod::discover` exactly; the equivalence is pinned by this
//! crate's test suite and by the incremental engine's oracle tests.

pub use crate::lattice::{
    build_level0, build_level0_masked, build_level1, build_level1_parallel,
    calculate_next_level_parallel, candidate_joins, generate_level, sorted_keys, Generated,
    JoinAction, Level, Node,
};
use crate::pairset::PairSet;
use crate::parallel::Executor;
use crate::stats::LevelStats;
use crate::validators::{OdJudge, ValidationTask};
use crate::{CancelToken, PassError};
use fastod_partition::{RemoveDelta, StrippedPartition};
use fastod_relation::{AttrId, AttrSet};
use fastod_theory::{CanonicalOd, OdSet};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The pure per-node half of `computeODs(L_l)` lines 1–8: `C⁺c(X)` and
/// `C⁺s(X)` for one node, read entirely from the (immutable) parent level.
fn candidate_sets_of(l: usize, bits: u64, prev: &Level, n_attrs: usize) -> (AttrSet, PairSet) {
    let x = AttrSet::from_bits(bits);
    // C⁺c(X) = ∩_{A ∈ X} C⁺c(X\A)   (line 2).
    let mut cc = AttrSet::full(n_attrs);
    for (_, parent_set) in x.parents() {
        cc = cc.intersect(prev[&parent_set.bits()].cc);
    }
    let mut cs = PairSet::new(n_attrs);
    if l == 2 {
        // Line 4: C⁺s({A,B}) = {{A,B}}.
        let attrs = x.to_vec();
        cs.insert(attrs[0], attrs[1]);
    } else if l > 2 {
        // Line 6: pairs present in C⁺s(X\D) for every D ∈ X\{A,B}.
        let mut candidates = PairSet::new(n_attrs);
        for (_, parent_set) in x.parents() {
            candidates.union_with(&prev[&parent_set.bits()].cs);
        }
        for (a, b) in candidates.iter() {
            let ok = x
                .without(a)
                .without(b)
                .iter()
                .all(|d| prev[&x.without(d).bits()].cs.contains(a, b));
            if ok {
                cs.insert(a, b);
            }
        }
    }
    (cc, cs)
}

/// `computeODs(L_l)` lines 1–8: derives `C⁺c(X)` and `C⁺s(X)` for every node
/// of level `l` from its parents in level `l−1`.
pub fn compute_candidate_sets(l: usize, current: &mut Level, prev: &Level, n_attrs: usize) {
    let keys = sorted_keys(current);
    for &bits in &keys {
        let (cc, cs) = candidate_sets_of(l, bits, prev, n_attrs);
        let node = current.get_mut(&bits).expect("node exists");
        node.cc = cc;
        node.cs = cs;
    }
}

/// [`compute_candidate_sets`] behind a cancellation check, for the
/// executor-driven passes.
///
/// The derivation runs inline on the caller's thread at every thread
/// count: a level's candidate sets cost tens of microseconds, less than
/// handing them to freshly spawned workers, so `exec` goes unused.
///
/// # Errors
/// [`PassError::Cancelled`] when `cancel` has fired.
pub fn compute_candidate_sets_parallel(
    l: usize,
    current: &mut Level,
    prev: &Level,
    n_attrs: usize,
    _exec: &Executor,
    cancel: &CancelToken,
) -> Result<(), PassError> {
    cancel.check()?;
    compute_candidate_sets(l, current, prev, n_attrs);
    Ok(())
}

/// What a validated candidate does to the level state once its verdict is
/// known; recorded during gather, applied in gather order.
enum Action {
    /// Constancy `X\A: [] ↦ A` at node `X = bits`.
    Fd { bits: u64, a: AttrId },
    /// Order compatibility at node `bits` with pair `{a, b}`.
    Ocd { bits: u64, a: AttrId, b: AttrId },
}

/// `computeODs(L_l)` lines 9–24: validates the candidate ODs of level `l`
/// through `judge`, inserting minimal valid ODs into `m` and shrinking the
/// candidate sets.
///
/// Structured as **gather → judge → apply** so the expensive middle phase
/// can be sharded across `exec`'s worker threads: the gather phase walks the
/// nodes in deterministic (ascending-bits) order collecting one
/// [`ValidationTask`] per candidate, the judge phase produces verdicts in
/// task order (in parallel when `exec` allows it), and the apply phase
/// re-plays the paper's per-candidate mutations sequentially in gather
/// order. Because verdicts are pure functions of the immutable level
/// partitions, this is observationally identical to the historical
/// interleaved loop at any thread count — same cover, same insertion order,
/// same candidate-set shrinkage.
///
/// `lemma5_removals` applies the Lemma-5 candidate removal (line 14); exact
/// discovery enables it, the approximate variant must not.
#[allow(clippy::too_many_arguments)]
pub fn validate_level<J: OdJudge>(
    l: usize,
    current: &mut Level,
    prev: &Level,
    prev_prev: &Level,
    judge: &mut J,
    m: &mut OdSet,
    lstats: &mut LevelStats,
    lemma5_removals: bool,
    exec: &Executor,
    cancel: &CancelToken,
) -> Result<(), PassError> {
    let keys = sorted_keys(current);

    // Gather: one task per candidate OD, in the historical validation order
    // (per node: FD candidates, then surviving C⁺s pairs).
    let mut tasks: Vec<ValidationTask<'_>> = Vec::new();
    let mut actions: Vec<Action> = Vec::new();
    // Pairs failing the Lemma-8 minimality pre-check (line 18) are removed
    // without validation (line 19); deferred here because the gather phase
    // holds shared borrows of the level.
    let mut non_minimal: Vec<(u64, AttrId, AttrId)> = Vec::new();
    for &bits in &keys {
        cancel.check()?;
        let x = AttrSet::from_bits(bits);
        let node = &current[&bits];

        // FD candidates (lines 10–16): A ∈ X ∩ C⁺c(X) ⇒ check X\A: [] ↦ A.
        for a in x.intersect(node.cc).to_vec() {
            let parent_set = x.without(a);
            tasks.push(ValidationTask::Constancy {
                parent_set,
                rhs: a,
                parent: &prev[&parent_set.bits()].partition,
                node: &node.partition,
            });
            actions.push(Action::Fd { bits, a });
        }

        // OCD candidates (lines 17–24): {A,B} ∈ C⁺s(X).
        if l < 2 {
            continue;
        }
        for (a, b) in node.cs.to_vec() {
            // Line 18: minimality via parents' C⁺c (Lemma 8).
            let a_ok = prev[&x.without(b).bits()].cc.contains(a);
            let b_ok = prev[&x.without(a).bits()].cc.contains(b);
            if !a_ok || !b_ok {
                non_minimal.push((bits, a, b)); // line 19
                continue;
            }
            let ctx_set = x.without(a).without(b);
            tasks.push(ValidationTask::OrderCompat {
                ctx_set,
                a,
                b,
                ctx: &prev_prev[&ctx_set.bits()].partition,
            });
            actions.push(Action::Ocd { bits, a, b });
        }
    }

    // Judge: verdicts in task order, parallel when the executor allows.
    let verdicts = judge.judge_batch(&tasks, exec, cancel, lstats)?;
    drop(tasks);

    // Apply: replay the paper's mutations sequentially, in gather order.
    for (bits, a, b) in non_minimal {
        current.get_mut(&bits).expect("node exists").cs.remove(a, b);
    }
    for (action, verdict) in actions.into_iter().zip(verdicts) {
        if !verdict {
            continue;
        }
        match action {
            Action::Fd { bits, a } => {
                let x = AttrSet::from_bits(bits);
                m.insert(CanonicalOd::constancy(x.without(a), a));
                lstats.fds_found += 1;
                let node = current.get_mut(&bits).expect("node exists");
                node.cc = node.cc.without(a); // line 13
                if lemma5_removals {
                    // Line 14: remove all B ∈ R\X from C⁺c(X) (Lemma 5).
                    node.cc = node.cc.intersect(x);
                }
            }
            Action::Ocd { bits, a, b } => {
                let ctx_set = AttrSet::from_bits(bits).without(a).without(b);
                m.insert(CanonicalOd::order_compat(ctx_set, a, b)); // line 21
                lstats.ocds_found += 1;
                current.get_mut(&bits).expect("node exists").cs.remove(a, b); // line 22
            }
        }
    }
    Ok(())
}

/// `pruneLevels(L_l)` — Algorithm 4: delete nodes with both candidate sets
/// empty (sound by Lemma 11).
pub fn prune_level(l: usize, current: &mut Level, lstats: &mut LevelStats) {
    if l < 2 {
        return;
    }
    let before = current.len();
    current.retain(|_, node| !(node.cc.is_empty() && node.cs.is_empty()));
    lstats.pruned_nodes = before - current.len();
}

/// `levels` without the relation each may carry. A retained level must
/// not hold a code column: a second holder of a column's `Arc` makes the
/// next append to the growing relation copy that column.
fn retained(mut levels: Vec<Level>) -> Vec<Level> {
    for level in &mut levels {
        level.relation = None;
    }
    levels
}

/// The retained lattice of a completed traversal: every post-prune level
/// with its partitions and candidate sets, ready for a later pass to reuse.
///
/// A snapshot is a *warehouse*, not a live algorithm state: consumers take
/// nodes out ([`DiscoverySnapshot::take_node`]) as they rebuild each level,
/// and store the rebuilt levels back.
///
/// # Shared partitions
///
/// Nodes of the retained levels may hold one partition together: a child
/// that [`generate_level`] gave the partition of a parent a known FD makes
/// equal to it. A mutation can break that FD, so a pass first
/// [releases](DiscoverySnapshot::release_shared) every such *sharer*: each
/// partition is then held by one node, its *holder*, and is mutated in
/// place without a copy. The pass re-learns the facts from its own
/// partitions and shares again where they still hold.
///
/// # Memory budgeting
///
/// Retained partitions are byte-accounted (the CSR layout makes a
/// partition's cost exactly `4 · (rows.capacity() + offsets.capacity())`,
/// see [`fastod_partition::StrippedPartition::memory_bytes`]), once per
/// distinct partition, however many nodes hold it. When a budget is set
/// ([`DiscoverySnapshot::set_budget`], wired from
/// [`crate::DiscoveryConfig::partition_memory_budget`]),
/// [`enforce_budget`](DiscoverySnapshot::enforce_budget) evicts whole
/// partitions — least-recently-*reused* first, each with every node that
/// holds it — until the resident bytes fit. Eviction is always safe: a
/// later pass that misses a node simply recomputes its partition (one
/// refinement of a parent, or one counting sort at level 1), so the budget
/// trades reuse for memory without ever changing results.
///
/// Recency is tracked per `(level, bits)` key across passes: taking a node
/// via `take_node` (to reuse it, or to absorb appended rows into it) or
/// sharing a parent's partition ([`DiscoverySnapshot::note_shared`]) stamps
/// it with the current pass, while a node that had to be *recomputed* (its
/// retained copy was evicted) inherits its old stamp — regions whose
/// retained partitions keep getting evicted stay cold and go first. A
/// partition is as recent as its most recently stamped holder.
#[derive(Default)]
pub struct DiscoverySnapshot {
    levels: Vec<Level>,
    n_rows: usize,
    /// Monotone pass counter (bumped by [`DiscoverySnapshot::advanced_from`]).
    pass: u64,
    /// `(level, bits)` → pass in which the node's partition was last reused.
    last_reuse: HashMap<(u32, u64), u64>,
    /// Keys handed out by `take_node`, or noted as shared, since this
    /// snapshot was built.
    taken: Vec<(u32, u64)>,
    /// Partition byte cap; `None` retains everything.
    budget: Option<usize>,
    /// Nodes evicted by budget enforcement over this snapshot's lifetime.
    evicted: usize,
}

impl DiscoverySnapshot {
    /// An empty snapshot (no retained traversal).
    pub fn empty() -> DiscoverySnapshot {
        DiscoverySnapshot::default()
    }

    /// Wraps the retained levels of a finished traversal over `n_rows` rows.
    /// The levels drop the relation they carry, so the snapshot holds no
    /// code column.
    pub fn from_levels(levels: Vec<Level>, n_rows: usize) -> DiscoverySnapshot {
        let mut snap = DiscoverySnapshot {
            levels: retained(levels),
            n_rows,
            pass: 1,
            ..DiscoverySnapshot::default()
        };
        for key in snap.keys() {
            snap.last_reuse.insert(key, snap.pass);
        }
        snap
    }

    /// Builds the successor snapshot of `old` from a freshly rebuilt
    /// lattice: the pass counter advances, nodes whose partitions were
    /// reused out of `old` (via [`take_node`](DiscoverySnapshot::take_node))
    /// are stamped with the new pass, recomputed nodes inherit their old
    /// stamp (or the new pass when the key is new), and `old`'s budget is
    /// carried over and enforced. The levels drop the relation they carry,
    /// as in [`from_levels`](DiscoverySnapshot::from_levels).
    pub fn advanced_from(
        old: &DiscoverySnapshot,
        levels: Vec<Level>,
        n_rows: usize,
    ) -> DiscoverySnapshot {
        let pass = old.pass + 1;
        let reused: std::collections::HashSet<(u32, u64)> = old.taken.iter().copied().collect();
        let mut snap = DiscoverySnapshot {
            levels: retained(levels),
            n_rows,
            pass,
            budget: old.budget,
            evicted: old.evicted,
            ..DiscoverySnapshot::default()
        };
        for key in snap.keys() {
            let stamp = if reused.contains(&key) {
                pass
            } else {
                old.last_reuse.get(&key).copied().unwrap_or(pass)
            };
            snap.last_reuse.insert(key, stamp);
        }
        snap.enforce_budget();
        snap
    }

    /// Every `(level, bits)` key currently present, in ascending order.
    fn keys(&self) -> Vec<(u32, u64)> {
        self.levels
            .iter()
            .enumerate()
            .flat_map(|(l, level)| sorted_keys(level).into_iter().map(move |bits| (l as u32, bits)))
            .collect()
    }

    /// The keys in ascending order, grouped by the partition they hold: one
    /// group per distinct partition, its first key the group's *holder*.
    /// Groups are in the order of their holders.
    fn holder_groups(&self) -> Vec<Vec<(u32, u64)>> {
        let mut groups: Vec<Vec<(u32, u64)>> = Vec::new();
        let mut group_of: HashMap<*const StrippedPartition, usize> = HashMap::new();
        for (l, bits) in self.keys() {
            let partition = Arc::as_ptr(&self.levels[l as usize][&bits].partition);
            let g = *group_of.entry(partition).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push((l, bits));
        }
        groups
    }

    /// Row count of the relation the snapshot was computed over.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The retained levels, index = lattice level.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Highest retained level.
    pub fn max_level(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Total nodes retained across all levels.
    pub fn n_nodes(&self) -> usize {
        self.levels.iter().map(Level::len).sum()
    }

    /// Looks up a node by level and attribute-set bits.
    pub fn node(&self, level: usize, bits: u64) -> Option<&Node> {
        self.levels.get(level)?.get(&bits)
    }

    /// Removes and returns a node, transferring ownership of its partition
    /// to the caller (the reuse path of the incremental engine). The key is
    /// recorded as *reused* for LRU accounting in the successor snapshot.
    pub fn take_node(&mut self, level: usize, bits: u64) -> Option<Node> {
        let node = self.levels.get_mut(level)?.remove(&bits)?;
        self.taken.push((level as u32, bits));
        Some(node)
    }

    /// Records that the pass gave the node of `bits` a parent's partition:
    /// the key counts as *reused* for LRU accounting in the successor
    /// snapshot, and the node's retained partition, if any, is dropped.
    pub fn note_shared(&mut self, level: usize, bits: u64) {
        if let Some(nodes) = self.levels.get_mut(level) {
            nodes.remove(&bits);
        }
        self.taken.push((level as u32, bits));
    }

    /// Removes every node whose partition a node earlier in `(level, bits)`
    /// order also holds, and returns each removed *sharer*'s bits with its
    /// *holder*'s (the earliest node holding the partition).
    ///
    /// Afterwards every retained partition has one holder, so the mutation
    /// sites of a pass — [`remove_rows`](DiscoverySnapshot::remove_rows),
    /// the level-1 appends, the absorb and reuse plans — copy nothing, and
    /// each distinct partition is compacted once. A sharer's partition
    /// equaled its holder's, so the holder's [`RemoveDelta`] is the
    /// sharer's too. A released node keeps its recency stamp: if the pass
    /// must recompute it, because its FD broke, it inherits that stamp.
    pub fn release_shared(&mut self) -> Vec<(u64, u64)> {
        let mut released = Vec::new();
        for group in self.holder_groups() {
            let (_, holder) = group[0];
            for &(l, bits) in &group[1..] {
                self.levels[l as usize].remove(&bits);
                released.push((bits, holder));
            }
        }
        released
    }

    /// Applies a batch of row deletions to **every** retained partition, in
    /// place, returning per node the classes the deletion touched. Called
    /// after [`release_shared`](DiscoverySnapshot::release_shared), it
    /// compacts each distinct partition once and copies none.
    ///
    /// Deleting tuples never merges or splits surviving equivalence
    /// classes, so `Π*_X(r ∖ D)` is obtained from the retained `Π*_X(r)` by
    /// pure class compaction
    /// ([`fastod_partition::StrippedPartition::remove_rows_masked`]) — no
    /// products, no counting sorts. The returned map is keyed by
    /// attribute-set bits (globally unique: the bits determine the level
    /// via their popcount); a node with an **empty** [`RemoveDelta`] was
    /// provably untouched (every deleted row was a singleton under it), and
    /// a node *absent* from the map was not retained — evicted under the
    /// memory budget or never generated — so a consumer must fall back to
    /// full revalidation for verdicts on that context.
    ///
    /// The nodes are independent, so the compaction is a map on `exec`
    /// over the retained nodes in ascending bits order, with one deletion
    /// mask shared by every worker. Compaction allocates nothing, so the
    /// retained buffers stay where they were allocated. A partition that
    /// several nodes still hold is copied for all of them but one
    /// (`Arc::make_mut`). `cancel` is the pass's token.
    ///
    /// `deleted` must be sorted ascending.
    ///
    /// # Errors
    /// [`PassError::Cancelled`] when `cancel` fires and
    /// [`PassError::Panicked`] when a worker panics. Some partitions may
    /// then be compacted and others not, so the caller must discard the
    /// snapshot.
    pub fn remove_rows(
        &mut self,
        deleted: &[u32],
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<HashMap<u64, Arc<RemoveDelta>>, PassError> {
        // One mask shared by every node: membership probes become single
        // indexed reads instead of per-row binary searches.
        let mut mask = vec![false; self.n_rows];
        for &row in deleted {
            mask[row as usize] = true;
        }
        // Each worker locks the partition of the node it claimed; no other
        // worker ever waits on that lock.
        let mut nodes: Vec<(u64, Mutex<&mut StrippedPartition>)> = self
            .levels
            .iter_mut()
            .flat_map(|level| level.iter_mut())
            .map(|(&bits, node)| (bits, Mutex::new(Arc::make_mut(&mut node.partition))))
            .collect();
        nodes.sort_unstable_by_key(|&(bits, _)| bits);
        let deltas = exec.try_map_with(&mut Vec::new(), || (), &nodes, cancel, |(), _, (_, p)| {
            p.lock()
                .expect("each node is locked once")
                .remove_rows_masked(&mask)
        })?;
        Ok(nodes.iter().map(|&(bits, _)| bits).zip(deltas.into_iter().map(Arc::new)).collect())
    }

    /// Sets (or clears) the partition byte budget. The cap is enforced on
    /// the next [`enforce_budget`](DiscoverySnapshot::enforce_budget) /
    /// [`advanced_from`](DiscoverySnapshot::advanced_from) call.
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    /// The configured partition byte budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Resident partition bytes across all retained nodes, each distinct
    /// partition counted once however many nodes hold it (CSR buffers only;
    /// the accounting unit of the budget).
    pub fn partition_bytes(&self) -> usize {
        let mut seen = HashSet::new();
        self.levels
            .iter()
            .flat_map(Level::values)
            .filter(|node| seen.insert(Arc::as_ptr(&node.partition)))
            .map(|node| node.partition.memory_bytes())
            .sum()
    }

    /// Nodes evicted by budget enforcement so far (cumulative across
    /// [`advanced_from`](DiscoverySnapshot::advanced_from) generations).
    pub fn evicted_nodes(&self) -> usize {
        self.evicted
    }

    /// Evicts partitions, each with every node that holds it, until
    /// [`partition_bytes`](DiscoverySnapshot::partition_bytes) fits the
    /// budget, returning how many nodes were dropped. Order: stalest
    /// partition first, a partition being as recent as the most recent
    /// `last_reuse` stamp among its holders; ties broken by the first
    /// holder, deepest level first (a deep node is one cheap refinement of
    /// a parent away), then ascending bits — fully deterministic.
    pub fn enforce_budget(&mut self) -> usize {
        let Some(budget) = self.budget else {
            return 0;
        };
        let mut resident = self.partition_bytes();
        if resident <= budget {
            return 0;
        }
        let mut groups = self.holder_groups();
        groups.sort_unstable_by_key(|group| {
            let stamp = |key| self.last_reuse.get(key).copied().unwrap_or(0);
            let recent = group.iter().map(stamp).max().expect("a group has a holder");
            let (l, bits) = group[0];
            (recent, std::cmp::Reverse(l), bits)
        });
        let mut dropped = 0;
        for group in groups {
            if resident <= budget {
                break;
            }
            for &(l, bits) in &group {
                let node = self.levels[l as usize].remove(&bits).expect("eviction key present");
                if (l, bits) == group[0] {
                    resident -= node.partition.memory_bytes();
                }
                self.last_reuse.remove(&(l, bits));
            }
            dropped += group.len();
        }
        self.evicted += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FdCheckMode;
    use crate::validators::ExactValidator;
    use crate::{DiscoveryConfig, Fastod};
    use fastod_relation::{EncodedRelation, RelationBuilder};

    fn enc() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_i64("bin", vec![1, 2, 3, 1, 2, 3])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .build()
            .unwrap()
            .encode()
    }

    /// Driving the exposed hooks by hand reproduces `Fastod::discover`
    /// exactly — the contract the incremental engine builds on.
    #[test]
    fn manual_traversal_equals_fastod() {
        let enc = enc();
        let n_attrs = enc.n_attrs();
        let cancel = CancelToken::never();
        let mut validator = ExactValidator::new(&enc, FdCheckMode::ErrorRate);
        let mut pool = Vec::new();
        let mut m = OdSet::new();
        let mut levels: Vec<Level> = vec![build_level0(enc.n_rows(), n_attrs), build_level1(&enc)];
        let mut l = 1;
        loop {
            let mut lstats = LevelStats::default();
            let (before, rest) = levels.split_at_mut(l);
            let current = &mut rest[0];
            let prev = &before[l - 1];
            let empty = Level::new();
            let prev_prev = if l >= 2 { &before[l - 2] } else { &empty };
            compute_candidate_sets(l, current, prev, n_attrs);
            validate_level(
                l, current, prev, prev_prev, &mut validator, &mut m, &mut lstats, true,
                &Executor::new(1), &cancel,
            )
            .unwrap();
            prune_level(l, current, &mut lstats);
            let next = calculate_next_level_parallel(
                current,
                n_attrs,
                &Executor::new(1),
                &mut pool,
                &cancel,
            )
            .unwrap();
            if next.is_empty() {
                break;
            }
            levels.push(next);
            l += 1;
        }
        let reference = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        assert_eq!(m.sorted(), reference.ods.sorted());

        let snap = DiscoverySnapshot::from_levels(levels, enc.n_rows());
        assert!(snap.n_nodes() > n_attrs);
        assert_eq!(snap.n_rows(), 6);
        assert!(snap.node(0, AttrSet::EMPTY.bits()).is_some());
    }

    #[test]
    fn budget_enforcement_is_byte_accounted_and_deterministic() {
        let enc = enc();
        let make = || vec![build_level0(enc.n_rows(), 3), build_level1(&enc)];
        let mut snap = DiscoverySnapshot::from_levels(make(), enc.n_rows());
        let full = snap.partition_bytes();
        assert!(full > 0);
        assert_eq!(snap.enforce_budget(), 0, "no budget, no eviction");

        // A budget of half the footprint must evict something, land at or
        // under the cap, and count the drops.
        snap.set_budget(Some(full / 2));
        let dropped = snap.enforce_budget();
        assert!(dropped > 0);
        assert!(snap.partition_bytes() <= full / 2);
        assert_eq!(snap.evicted_nodes(), dropped);
        // Idempotent once under budget.
        assert_eq!(snap.enforce_budget(), 0);

        // Same inputs, same budget → same surviving node set (determinism).
        let mut snap2 = DiscoverySnapshot::from_levels(make(), enc.n_rows());
        snap2.set_budget(Some(full / 2));
        snap2.enforce_budget();
        let keys = |s: &DiscoverySnapshot| {
            let mut k: Vec<(usize, u64)> = s
                .levels()
                .iter()
                .enumerate()
                .flat_map(|(l, lv)| lv.keys().map(move |&b| (l, b)))
                .collect();
            k.sort_unstable();
            k
        };
        assert_eq!(keys(&snap), keys(&snap2));
    }

    #[test]
    fn advanced_from_stamps_reused_nodes_hot() {
        let enc = enc();
        let mut old =
            DiscoverySnapshot::from_levels(vec![build_level0(enc.n_rows(), 3), build_level1(&enc)], enc.n_rows());
        // Reuse exactly one level-1 node; rebuild the same lattice shape.
        let hot_bits = AttrSet::singleton(1).bits();
        let node = old.take_node(1, hot_bits).expect("node exists");
        let mut level1 = build_level1(&enc);
        level1.insert(hot_bits, node);
        let mut snap = DiscoverySnapshot::advanced_from(
            &old,
            vec![build_level0(enc.n_rows(), 3), level1],
            enc.n_rows(),
        );
        // Budget that only fits roughly one level-1 partition: the reused
        // (hot) node must be the survivor among level-1 nodes of equal size.
        let hot_bytes = snap.node(1, hot_bits).unwrap().partition.memory_bytes();
        let level0_bytes = snap.node(0, AttrSet::EMPTY.bits()).unwrap().partition.memory_bytes();
        snap.set_budget(Some(hot_bytes + level0_bytes));
        snap.enforce_budget();
        assert!(snap.node(1, hot_bits).is_some(), "hot node evicted");
    }

    /// Levels 0–2 of `enc()` in which `{yr, bin}` and `{bin, sal}` hold
    /// `{bin}`'s partition, as generation shares a parent's partition along
    /// an FD, and `{yr, sal}` holds its own.
    fn shared_levels(enc: &EncodedRelation) -> Vec<Level> {
        let l1 = build_level1(enc);
        let bin = &l1[&AttrSet::singleton(1).bits()].partition;
        let mut l2 = Level::new();
        for x in [AttrSet::from_iter([0, 1]), AttrSet::from_iter([1, 2])] {
            l2.insert(x.bits(), Node::sharing(Arc::clone(bin), AttrSet::EMPTY, 3));
        }
        let (yr, sal) = (AttrSet::singleton(0), AttrSet::singleton(2));
        let yr_sal = l1[&yr.bits()].partition.product_simple(&l1[&sal.bits()].partition);
        l2.insert(yr.union(sal).bits(), Node::new(yr_sal, 3));
        vec![build_level0(enc.n_rows(), 3), l1, l2]
    }

    /// A partition that several nodes hold is charged once, compacted once
    /// after its sharers are released, and evicted with all its holders; it
    /// is as recent as its most recently reused holder.
    #[test]
    fn shared_partitions_count_once() {
        let enc = enc();
        let n = enc.n_rows();
        let (bin, yr_bin, bin_sal) = (0b010u64, 0b011u64, 0b110u64);
        let mut snap = DiscoverySnapshot::from_levels(shared_levels(&enc), n);
        let per_node: usize =
            snap.levels().iter().flat_map(Level::values).map(|n| n.partition.memory_bytes()).sum();
        let bin_bytes = snap.node(1, bin).unwrap().partition.memory_bytes();
        assert_eq!(snap.partition_bytes(), per_node - 2 * bin_bytes);

        // The release leaves `{bin}` as the only holder of its partition.
        assert_eq!(snap.release_shared(), vec![(yr_bin, bin), (bin_sal, bin)]);
        assert_eq!(snap.n_nodes(), 5);
        assert_eq!(snap.partition_bytes(), per_node - 2 * bin_bytes);
        assert!(snap.release_shared().is_empty(), "one holder per partition");
        let rows = |snap: &DiscoverySnapshot| snap.node(1, bin).unwrap().partition.raw_csr().0.as_ptr();
        let before = rows(&snap);
        snap.remove_rows(&[0], &Executor::new(1), &CancelToken::never()).unwrap();
        assert_eq!(rows(&snap), before, "the holder is compacted in place");

        // `{yr, bin}` shared `{bin}`'s partition in the pass that built the
        // next snapshot, so the partition is the most recent: a budget that
        // fits one partition keeps it, with both nodes that share it.
        let mut old = DiscoverySnapshot::from_levels(shared_levels(&enc), n);
        old.note_shared(2, yr_bin);
        assert!(old.node(2, yr_bin).is_none(), "the retained copy is dropped");
        let mut hot = DiscoverySnapshot::advanced_from(&old, shared_levels(&enc), n);
        hot.set_budget(Some(bin_bytes));
        assert_eq!(hot.enforce_budget(), 4);
        assert_eq!(hot.partition_bytes(), bin_bytes);
        for (l, bits) in [(1, bin), (2, yr_bin), (2, bin_sal)] {
            assert!(hot.node(l, bits).is_some(), "{bits:#b} evicted");
        }
        // With every stamp equal the same budget evicts the partition, and
        // every node that holds it goes with it.
        let old = DiscoverySnapshot::from_levels(shared_levels(&enc), n);
        let mut cold = DiscoverySnapshot::advanced_from(&old, shared_levels(&enc), n);
        cold.set_budget(Some(bin_bytes));
        cold.enforce_budget();
        for (l, bits) in [(1, bin), (2, yr_bin), (2, bin_sal)] {
            assert!(cold.node(l, bits).is_none(), "{bits:#b} kept");
        }
        cold.set_budget(Some(0));
        cold.enforce_budget();
        assert_eq!(cold.n_nodes(), 0);
        assert_eq!(cold.evicted_nodes(), 7, "every node counts, sharers too");
    }

    #[test]
    fn snapshot_remove_rows_compacts_every_node() {
        let enc = enc();
        let levels = vec![build_level0(enc.n_rows(), 3), build_level1(&enc)];
        let mut snap = DiscoverySnapshot::from_levels(levels, enc.n_rows());
        let bytes_before = snap.partition_bytes();
        let remove = |snap: &mut DiscoverySnapshot, deleted: &[u32], threads: usize| {
            snap.remove_rows(deleted, &Executor::new(threads), &CancelToken::never())
                .unwrap()
        };
        // Delete row 0 (year class {0,1,2} and the unit class lose it).
        let deltas = remove(&mut snap, &[0], 1);
        assert_eq!(deltas.len(), snap.n_nodes());
        // The unit node's only class covers everything: touched copies
        // would exceed the capture cap, so only the dirty flag survives.
        let unit_delta = &deltas[&AttrSet::EMPTY.bits()];
        assert!(unit_delta.is_dirty() && unit_delta.truncated);
        // The bin node loses row 0 from one of its three 2-row classes —
        // small enough relative to the partition to capture exactly.
        let bin_delta = &deltas[&AttrSet::singleton(1).bits()];
        assert!(bin_delta.is_exact());
        assert_eq!(bin_delta.touched.len(), 1);
        assert_eq!(bin_delta.touched[0].old, vec![0, 3]);
        assert_eq!(bin_delta.touched[0].new, vec![3]);
        // Removal compacts in place without freeing the allocation, and the
        // budget charges the allocation — so resident bytes are unchanged
        // even though the covered rows shrank.
        assert_eq!(snap.partition_bytes(), bytes_before);
        let unit = &snap.node(0, AttrSet::EMPTY.bits()).unwrap().partition;
        assert_eq!(unit.covered_rows(), 5);
        assert_eq!(unit.n_rows(), 6, "physical slots are stable");
        // A second delete touching only singleton-covered nodes reports
        // clean deltas for them.
        let deltas = remove(&mut snap, &[5], 2);
        assert!(deltas.values().any(|d| d.is_dirty()));
    }

    #[test]
    fn masked_level0_matches_unmasked_when_all_live() {
        let enc = enc();
        let live = vec![true; enc.n_rows()];
        let l0 = build_level0_masked(&live, 3);
        let node = &l0[&AttrSet::EMPTY.bits()];
        assert_eq!(node.cc, AttrSet::full(3));
        assert_eq!(
            node.partition,
            build_level0(enc.n_rows(), 3)[&AttrSet::EMPTY.bits()].partition
        );
        // With a mask, dead rows vanish from the unit class.
        let mut live = live;
        live[0] = false;
        let l0 = build_level0_masked(&live, 3);
        let unit = &l0[&AttrSet::EMPTY.bits()].partition;
        assert!(unit.classes().iter().all(|c| !c.contains(&0)));
        assert_eq!(unit.covered_rows(), 5);
    }

    /// One-shot levels carry their relation; a snapshot never retains it.
    #[test]
    fn retained_levels_carry_no_relation() {
        let enc = enc();
        let make = || {
            let l1 = build_level1(&enc);
            let l2 = calculate_next_level_parallel(
                &l1,
                3,
                &Executor::new(1),
                &mut Vec::new(),
                &CancelToken::never(),
            )
            .unwrap();
            vec![build_level0(enc.n_rows(), 3), l1, l2]
        };
        assert!(make().iter().skip(1).all(|level| level.relation.is_some()));
        let old = DiscoverySnapshot::from_levels(make(), enc.n_rows());
        assert!(old.levels().iter().all(|level| level.relation.is_none()));
        let snap = DiscoverySnapshot::advanced_from(&old, make(), enc.n_rows());
        assert_eq!(snap.n_nodes(), old.n_nodes());
        assert!(snap.levels().iter().all(|level| level.relation.is_none()));
    }

    #[test]
    fn snapshot_take_node() {
        let enc = enc();
        let levels = vec![build_level0(enc.n_rows(), 3), build_level1(&enc)];
        let mut snap = DiscoverySnapshot::from_levels(levels, enc.n_rows());
        let bits = AttrSet::singleton(0).bits();
        assert!(snap.take_node(1, bits).is_some());
        assert!(snap.take_node(1, bits).is_none(), "taken nodes are gone");
        assert!(snap.take_node(7, bits).is_none(), "missing level is None");
        assert_eq!(snap.max_level(), 1);
    }
}
