//! Lattice levels and nodes (paper §4.1, Figure 3; Algorithm 2).

use crate::pairset::PairSet;
use crate::parallel::Executor;
use crate::{CancelToken, PassError};
use fastod_partition::{ProductScratch, StrippedPartition};
use fastod_relation::{AttrId, AttrSet, EncodedRelation};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::{Arc, Mutex};

/// A lattice node: the attribute set is the map key; the node carries its
/// stripped partition `Π*_X`, candidate sets `C⁺c(X)` / `C⁺s(X)` and the
/// attributes outside `X` that `X` is known to determine.
pub struct Node {
    /// The stripped partition `Π*_X`. Generation shares it with a parent
    /// whose partition a known FD makes equal to it (see
    /// [`generate_level`]); a caller that mutates it goes through
    /// `Arc::make_mut`, which copies only a shared one.
    pub partition: Arc<StrippedPartition>,
    /// Candidate attributes `C⁺c(X)` (Definition 7).
    pub cc: AttrSet,
    /// Candidate pairs `C⁺s(X)` (Definition 8).
    pub cs: PairSet,
    /// Attributes `A ∉ X` for which `X: [] ↦ A` is known to hold, learned
    /// from partition sizes by the [`generate_level`] call that built the
    /// node, so they hold for the rows its partition covers. A mutation can
    /// break an FD, so the incremental engine re-learns them every pass and
    /// never carries a node's facts into the next one. Empty at levels 0
    /// and 1. Generation trusts it, so only this crate sets it.
    pub(crate) determines: AttrSet,
}

impl Node {
    /// A node with empty candidate sets (they are filled by
    /// [`crate::snapshot::compute_candidate_sets`]) and no known FD.
    pub fn new(partition: StrippedPartition, n_attrs: usize) -> Node {
        Node::sharing(Arc::new(partition), AttrSet::EMPTY, n_attrs)
    }

    /// A node over a possibly shared partition, knowing it determines
    /// `determines`.
    pub(crate) fn sharing(
        partition: Arc<StrippedPartition>,
        determines: AttrSet,
        n_attrs: usize,
    ) -> Node {
        Node {
            partition,
            cc: AttrSet::EMPTY,
            cs: PairSet::new(n_attrs),
            determines,
        }
    }
}

/// One lattice level `L_l`: its nodes keyed by attribute-set bits, and
/// the relation their partitions cover.
///
/// [`calculate_next_level_parallel`] refines each child's partition by a
/// code column of that relation, and the benchmark's replay pins that
/// function's signature, so the level carries the relation instead of the
/// call taking it. [`build_level1`] and [`build_level1_parallel`] set it,
/// and every level generated from one inherits it. Cloning an
/// [`EncodedRelation`] shares its columns through `Arc`, so no codes are
/// copied, and the last level that holds them frees them. [`Level::new`],
/// [`Level::default`] and the level-0 builders carry no relation, nor do
/// the levels the incremental engine builds: it passes its own encoding
/// to [`generate_level`].
#[derive(Default)]
pub struct Level {
    nodes: HashMap<u64, Node>,
    /// The relation the partitions cover, for generating the next level.
    pub(crate) relation: Option<EncodedRelation>,
}

impl Level {
    /// An empty level without a relation.
    pub fn new() -> Level {
        Level::default()
    }

    /// An empty level without a relation, with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Level {
        Level {
            nodes: HashMap::with_capacity(n),
            relation: None,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the level has no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the level holds the node of `bits`.
    pub(crate) fn contains_key(&self, bits: &u64) -> bool {
        self.nodes.contains_key(bits)
    }

    /// The node of `bits`, if present.
    pub(crate) fn get(&self, bits: &u64) -> Option<&Node> {
        self.nodes.get(bits)
    }

    /// The node of `bits` for mutation, if present.
    pub(crate) fn get_mut(&mut self, bits: &u64) -> Option<&mut Node> {
        self.nodes.get_mut(bits)
    }

    /// Inserts the node of `bits`, returning the node it replaced.
    pub fn insert(&mut self, bits: u64, node: Node) -> Option<Node> {
        self.nodes.insert(bits, node)
    }

    /// Removes and returns the node of `bits`, if present.
    pub(crate) fn remove(&mut self, bits: &u64) -> Option<Node> {
        self.nodes.remove(bits)
    }

    /// Keeps only the nodes for which `keep` returns true.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&u64, &mut Node) -> bool) {
        self.nodes.retain(keep);
    }

    /// The node keys, in arbitrary order (see [`sorted_keys`]).
    pub fn keys(&self) -> impl Iterator<Item = &u64> {
        self.nodes.keys()
    }

    /// The nodes, in arbitrary order.
    pub fn values(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// The keys and nodes for mutation, in arbitrary order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (&u64, &mut Node)> {
        self.nodes.iter_mut()
    }
}

impl Index<&u64> for Level {
    type Output = Node;

    /// The node of `bits`; panics when it is absent.
    fn index(&self, bits: &u64) -> &Node {
        &self.nodes[bits]
    }
}

/// The keys of a level in ascending bit order (deterministic iteration).
pub fn sorted_keys(level: &Level) -> Vec<u64> {
    let mut keys: Vec<u64> = level.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// `calculateNextLevel(L_l)` — Algorithm 2 over the relation `level`
/// carries: [`generate_level`] with a plan that refines every child it does
/// not share ([`JoinAction::Product`]). The returned level carries the
/// relation too.
///
/// `pool` holds one [`ProductScratch`] arena per worker and persists across
/// calls — the lattice driver passes the same pool for every level, so the
/// key arrays grown at level 2 are reused all the way to the deepest level
/// instead of being reallocated per node. The produced level is identical
/// at any thread count (refinements are pure; the join list is
/// deterministic).
///
/// # Panics
/// When `level` carries no relation: only a level built by
/// [`build_level1`], [`build_level1_parallel`] or this function can be
/// generated from.
pub fn calculate_next_level_parallel(
    level: &Level,
    n_attrs: usize,
    exec: &Executor,
    pool: &mut Vec<ProductScratch>,
    cancel: &CancelToken,
) -> Result<Level, PassError> {
    let enc = level.relation.as_ref().expect(
        "calculate_next_level_parallel needs a level that carries its relation \
         (built by build_level1, build_level1_parallel or this function)",
    );
    let product = |_, _, _| JoinAction::Product;
    let (mut next, _) = generate_level(level, enc, n_attrs, product, false, exec, pool, cancel)?;
    next.relation = Some(enc.clone());
    Ok(next)
}

/// Generates the children of `level` (Algorithm 2), whose partitions cover
/// `enc`: one child per [`candidate_joins`] entry `(X, Y, Z)`, returned as
/// the next level and, in join order, how each child got its partition.
/// One-shot discovery and the incremental engine both generate through it.
///
/// A child `X = P ∪ {a}` whose parent `P` is known to determine `a` (a
/// fact the node carries, learned as below) has `Π*_X = Π*_P`, so it
/// shares that parent's partition: one `Arc` clone, no row read
/// ([`Generated::Shared`]). For every other child `plan(X, Y, Z)` picks a
/// [`JoinAction`], called in join order. Products and absorbs run on
/// `exec`'s workers, each with one [`ProductScratch`] from `pool`; reuses
/// only bump a row count, inline. The children come back in join order, so
/// whatever the caller applies from them is independent of the thread
/// count. The `partition.shared` counter counts the shared children,
/// `partition.products` the refined ones.
///
/// With `caller_heap`, a partition that a spawned worker built, or grew by
/// absorbing, is copied into the calling thread's heap
/// ([`StrippedPartition::reallocated`]; capacities and so
/// [`StrippedPartition::memory_bytes`] are kept). Callers that retain the
/// level across passes set it: glibc serves each thread from its own
/// arena, and a retained partition would pin memory in a worker's arena.
///
/// Facts come for free from the partitions' sizes. A child refines each
/// of its parents, so it has the partition of parent `P = X ∖ {b}` iff
/// it has as many covered rows and classes, which is the error test
/// `e(P) = e(X)` that validation applies to `P: [] ↦ b`. Such a parent
/// determines `b`, and by Augmentation-I so does every superset of it:
/// each child inherits the facts of its parents, both those they knew
/// and those the level's children proved about them. The facts hold for
/// the rows the partitions cover now: they are learned from this call's
/// children, and a level built some other way carries none.
///
/// # Errors
/// [`PassError::Cancelled`] when `cancel` fires, and
/// [`PassError::Panicked`] when a worker panics; the partitions the plan
/// carried are dropped then.
#[allow(clippy::too_many_arguments)]
pub fn generate_level(
    level: &Level,
    enc: &EncodedRelation,
    n_attrs: usize,
    mut plan: impl FnMut(AttrSet, AttrSet, AttrSet) -> JoinAction,
    caller_heap: bool,
    exec: &Executor,
    pool: &mut Vec<ProductScratch>,
    cancel: &CancelToken,
) -> Result<(Level, Vec<(AttrSet, Generated)>), PassError> {
    cancel.check()?;
    let joins = candidate_joins(level);
    let sharing: Vec<Option<AttrSet>> =
        joins.iter().map(|&(x, _, _)| known_equal_parent(level, x)).collect();
    let (planned, actions): (Vec<AttrSet>, Vec<JoinAction>) = joins
        .iter()
        .zip(&sharing)
        .filter(|(_, share)| share.is_none())
        .map(|(&(x, y, z), _)| (x, plan(x, y, z)))
        .unzip();
    let mut built =
        run_joins(level, enc, &planned, actions, caller_heap, exec, pool, cancel)?.into_iter();
    exec.obs().add("partition.shared", (joins.len() - planned.len()) as u64);
    let children: Vec<(AttrSet, Arc<StrippedPartition>, Generated)> = joins
        .iter()
        .zip(sharing)
        .map(|(&(x, _, _), share)| match share {
            Some(p) => (x, Arc::clone(&level[&p.bits()].partition), Generated::Shared(p)),
            None => {
                let (partition, generated) = built.next().expect("one result per planned join");
                (x, Arc::new(partition), generated)
            }
        })
        .collect();
    // The FDs this level's children prove about their parents.
    let mut proven: HashMap<u64, AttrSet> = HashMap::new();
    for (x, partition, _) in &children {
        for (b, p) in x.parents() {
            let parent = &level[&p.bits()].partition;
            if parent.covered_rows() == partition.covered_rows()
                && parent.n_classes() == partition.n_classes()
            {
                let facts = proven.entry(p.bits()).or_default();
                *facts = facts.with(b);
            }
        }
    }
    let mut next = Level::with_capacity(children.len());
    let mut generated = Vec::with_capacity(children.len());
    for (x, partition, how) in children {
        let determines = x.parents().fold(AttrSet::EMPTY, |facts, (_, p)| {
            let proven = proven.get(&p.bits()).copied().unwrap_or_default();
            facts.union(level[&p.bits()].determines).union(proven)
        });
        next.insert(x.bits(), Node::sharing(partition, determines.difference(x), n_attrs));
        generated.push((x, how));
    }
    Ok((next, generated))
}

/// The first parent `X ∖ {a}` of `X` known to determine `a`, whose
/// partition is `Π*_X`.
fn known_equal_parent(level: &Level, x: AttrSet) -> Option<AttrSet> {
    x.parents()
        .find_map(|(a, p)| level[&p.bits()].determines.contains(a).then_some(p))
}

/// The parent `X ∖ {a}` of `X` that covers the fewest rows (the lowest bits
/// on a tie), with the attribute `a` it lacks. Splitting a parent's classes
/// costs one key read per covered row, so generation splits this one.
fn fewest_rows_parent(level: &Level, x: AttrSet) -> (AttrId, AttrSet) {
    let covered = |p: AttrSet| level[&p.bits()].partition.covered_rows();
    x.parents()
        .min_by_key(|&(_, p)| (covered(p), p.bits()))
        .expect("a child has parents")
}

/// How generation obtains the partition of one child `X` that shares no
/// parent's partition. A generation plan picks one per such child.
pub enum JoinAction {
    /// `Π*_X` from one of its `|X|` parents, all of which the level holds:
    /// the fewest-rows parent `X ∖ {a}` refined by `a`'s code column
    /// ([`StrippedPartition::refine`]).
    Product,
    /// A retained `Π*_X` over fewer rows absorbs the appended ones
    /// ([`StrippedPartition::absorb_append`]): the classes of the
    /// fewest-rows parent `X ∖ {a}` that gained a row are re-split by
    /// `a`'s code column.
    Absorb(StrippedPartition),
    /// A retained `Π*_X` the mutation provably left unchanged; only its
    /// row count grows to the relation's.
    Reuse(StrippedPartition),
}

/// How [`generate_level`] obtained one child's partition.
pub enum Generated {
    /// The partition of the parent `P`, which is known to determine the
    /// attribute the child adds to it.
    Shared(AttrSet),
    /// Refined from a parent ([`JoinAction::Product`]).
    Product,
    /// A retained partition that absorbed the appended rows
    /// ([`JoinAction::Absorb`]).
    Absorbed {
        /// Whether an appended row joined a class.
        dirty: bool,
    },
    /// A retained partition, unchanged ([`JoinAction::Reuse`]).
    Reused,
}

/// Runs the plan [`generate_level`] made: `actions[i]` builds the partition
/// of child `children[i]` from its fewest-rows parent, splitting classes by
/// the code columns of `enc`. The results come back in plan order.
#[allow(clippy::too_many_arguments)]
fn run_joins(
    level: &Level,
    enc: &EncodedRelation,
    children: &[AttrSet],
    actions: Vec<JoinAction>,
    caller_heap: bool,
    exec: &Executor,
    pool: &mut Vec<ProductScratch>,
    cancel: &CancelToken,
) -> Result<Vec<(StrippedPartition, Generated)>, PassError> {
    debug_assert_eq!(children.len(), actions.len());
    let mut results: Vec<Option<(StrippedPartition, Generated)>> =
        Vec::with_capacity(children.len());
    // The executor shares its items by reference, so each worker moves its
    // action out of a slot of its own.
    let mut work: Vec<(usize, Mutex<Option<JoinAction>>)> = Vec::new();
    let mut products = 0u64;
    for (i, action) in actions.into_iter().enumerate() {
        match action {
            JoinAction::Reuse(mut partition) => {
                partition.extend_rows(enc.n_rows());
                results.push(Some((partition, Generated::Reused)));
            }
            action => {
                products += u64::from(matches!(action, JoinAction::Product));
                results.push(None);
                work.push((i, Mutex::new(Some(action))));
            }
        }
    }
    exec.obs().add("partition.products", products);
    let caller = std::thread::current().id();
    let built = exec.try_map_with(
        pool,
        ProductScratch::new,
        &work,
        cancel,
        |scratch, _, (i, slot)| {
            let action = slot
                .lock()
                .expect("a slot is locked only to take its action")
                .take()
                .expect("each action runs once");
            let (a, p) = fewest_rows_parent(level, children[*i]);
            let (codes, card) = (enc.codes(a), enc.cardinality(a));
            let parent = &level[&p.bits()].partition;
            // Whether this worker allocated the result's buffers: a product
            // always, an absorb when it outgrew them.
            let (built, allocated) = match action {
                JoinAction::Product => {
                    ((parent.refine(codes, card, scratch), Generated::Product), true)
                }
                JoinAction::Absorb(mut partition) => {
                    let bytes = partition.memory_bytes();
                    let dirty = partition.absorb_append(parent, codes, card, scratch);
                    let grew = partition.memory_bytes() != bytes;
                    ((partition, Generated::Absorbed { dirty }), grew)
                }
                JoinAction::Reuse(_) => unreachable!("reuses run inline"),
            };
            (built, allocated && std::thread::current().id() != caller)
        },
    )?;
    for ((i, _), ((partition, generated), foreign)) in work.iter().zip(built) {
        let partition = if caller_heap && foreign { partition.reallocated() } else { partition };
        results[*i] = Some((partition, generated));
    }
    Ok(results.into_iter().map(|r| r.expect("every join built")).collect())
}

/// The structural half of Algorithm 2: every `(X, Y, Z)` with `X = Y ∪ Z`
/// where `Y, Z ∈ L_l` share a prefix block and all `l`-subsets of `X` are
/// present (the Apriori condition, Line 4). Deterministically ordered by
/// block, then member pair.
pub fn candidate_joins(level: &Level) -> Vec<(AttrSet, AttrSet, AttrSet)> {
    // Group by "set minus largest attribute" (`singleAttrDiffBlocks`).
    let mut blocks: HashMap<u64, Vec<AttrSet>> = HashMap::new();
    for &bits in level.keys() {
        let set = AttrSet::from_bits(bits);
        let largest = 63 - bits.leading_zeros() as usize;
        blocks.entry(set.without(largest).bits()).or_default().push(set);
    }
    let mut block_keys: Vec<u64> = blocks.keys().copied().collect();
    block_keys.sort_unstable();
    let mut joins = Vec::new();
    for key in block_keys {
        let members = &mut blocks.get_mut(&key).unwrap()[..];
        members.sort_unstable();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let x = members[i].union(members[j]);
                // Apriori: all l-subsets must be present.
                if !x.parents().all(|(_, sub)| level.contains_key(&sub.bits())) {
                    continue;
                }
                joins.push((x, members[i], members[j]));
            }
        }
    }
    joins
}

/// Builds level 1: one node per attribute with `Π*_{{A}}` from its codes.
/// The level carries `enc` for generating the next one.
pub fn build_level1(enc: &EncodedRelation) -> Level {
    level1_of(enc, (0..enc.n_attrs()).map(|a| level1_partition(enc, a)).collect())
}

/// [`build_level1`] as a map over the attributes on `exec`: each worker
/// counting-sorts whole attributes, so the level is the same at every
/// thread count. The level carries `enc`.
///
/// # Errors
/// [`PassError::Cancelled`] when `cancel` fires, and
/// [`PassError::Panicked`] when a worker panics.
pub fn build_level1_parallel(
    enc: &EncodedRelation,
    exec: &Executor,
    cancel: &CancelToken,
) -> Result<Level, PassError> {
    cancel.check()?;
    let attrs: Vec<AttrId> = (0..enc.n_attrs()).collect();
    let partitions =
        exec.try_map_with(&mut Vec::new(), || (), &attrs, cancel, |(), _, &a| level1_partition(enc, a))?;
    Ok(level1_of(enc, partitions))
}

/// `Π*_{{A}}` by one counting sort over `a`'s codes.
fn level1_partition(enc: &EncodedRelation, a: AttrId) -> StrippedPartition {
    StrippedPartition::from_codes(enc.codes(a), enc.cardinality(a))
}

/// Level 1 of `enc` from `partitions[a] = Π*_{{A}}`.
fn level1_of(enc: &EncodedRelation, partitions: Vec<StrippedPartition>) -> Level {
    let n_attrs = partitions.len();
    let mut level = Level::with_capacity(n_attrs);
    level.relation = Some(enc.clone());
    for (a, partition) in partitions.into_iter().enumerate() {
        level.insert(AttrSet::singleton(a).bits(), Node::new(partition, n_attrs));
    }
    level
}

/// Builds level 0: the single `{}` node with the unit partition and
/// `C⁺c({}) = R` (Algorithm 1, lines 1–3).
pub fn build_level0(n_rows: usize, n_attrs: usize) -> Level {
    level0_of(StrippedPartition::unit(n_rows), n_attrs)
}

/// [`build_level0`] for a relation with tombstones: the unit partition
/// holds only the live rows (see
/// [`StrippedPartition::unit_masked`]). With an all-`true` mask this equals
/// `build_level0(live.len(), n_attrs)`.
pub fn build_level0_masked(live: &[bool], n_attrs: usize) -> Level {
    level0_of(StrippedPartition::unit_masked(live), n_attrs)
}

/// The level-0 node over `unit`, with `C⁺c({}) = R`.
fn level0_of(unit: StrippedPartition, n_attrs: usize) -> Level {
    let mut level = Level::with_capacity(1);
    let mut node = Node::new(unit, n_attrs);
    node.cc = AttrSet::full(n_attrs);
    level.insert(AttrSet::EMPTY.bits(), node);
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::RelationBuilder;

    fn enc3() -> fastod_relation::EncodedRelation {
        RelationBuilder::new()
            .column_i64("a", vec![0, 0, 1, 1])
            .column_i64("b", vec![0, 1, 0, 1])
            .column_i64("c", vec![0, 1, 2, 3])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn level1_has_one_node_per_attr() {
        let l1 = build_level1(&enc3());
        assert_eq!(l1.len(), 3);
        assert!(l1.contains_key(&AttrSet::singleton(2).bits()));
        // c is a key: stripped partition empty.
        assert!(l1[&AttrSet::singleton(2).bits()].partition.is_superkey());
    }

    /// The next level of a 3-attribute lattice, inline.
    fn next_level(level: &Level, cancel: &CancelToken) -> Result<Level, PassError> {
        calculate_next_level_parallel(level, 3, &Executor::new(1), &mut Vec::new(), cancel)
    }

    #[test]
    fn next_level_generates_all_pairs() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let l2 = next_level(&l1, &CancelToken::never()).unwrap();
        assert_eq!(l2.len(), 3); // {a,b}, {a,c}, {b,c}
        // Partition of {a,b} refines both.
        let ab = &l2[&AttrSet::from_iter([0, 1]).bits()].partition;
        assert!(ab.is_superkey()); // (a,b) is a key here
    }

    #[test]
    fn apriori_condition_blocks_missing_parents() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let mut l2 = next_level(&l1, &CancelToken::never()).unwrap();
        // Remove {b,c}: {a,b,c} then lacks a parent and must not be created.
        l2.remove(&AttrSet::from_iter([1, 2]).bits());
        let l3 = next_level(&l2, &CancelToken::never()).unwrap();
        assert!(l3.is_empty());
    }

    #[test]
    fn full_lattice_from_complete_levels() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let l2 = next_level(&l1, &CancelToken::never()).unwrap();
        let l3 = next_level(&l2, &CancelToken::never()).unwrap();
        assert_eq!(l3.len(), 1);
        assert!(l3.contains_key(&AttrSet::full(3).bits()));
        let l4 = next_level(&l3, &CancelToken::never()).unwrap();
        assert!(l4.is_empty());
    }

    #[test]
    fn cancellation_propagates() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        let result = next_level(&l1, &token);
        assert!(matches!(result, Err(PassError::Cancelled)));
    }

    /// Generation over the unpruned levels 1–4 of a table with constant,
    /// key-like, low-cardinality and derived columns, at every thread
    /// count: every child's partition is the product of its two generating
    /// parents; a child whose parent is known to determine the attribute
    /// it lacks holds that parent's own partition; every other child has
    /// the bytes of its fewest-rows parent's refinement (the lowest bits on
    /// a tie); and every known FD holds.
    #[test]
    fn refined_levels_equal_products() {
        let enc = fastod_datagen::flight_like(600, 8, 7).encode();
        let mut level = build_level1(&enc);
        let mut scratch = ProductScratch::new();
        let mut shared = 0;
        for l in 1..=4 {
            let joins = candidate_joins(&level);
            assert!(!joins.is_empty(), "level {l} has joins");
            let mut next = Level::new();
            for threads in [1, 2, 4] {
                next = calculate_next_level_parallel(
                    &level,
                    enc.n_attrs(),
                    &Executor::new(threads),
                    &mut Vec::new(),
                    &CancelToken::never(),
                )
                .unwrap();
                assert_eq!(next.len(), joins.len());
                for &(x, y, z) in &joins {
                    let child = &next[&x.bits()].partition;
                    let (py, pz) = (&level[&y.bits()].partition, &level[&z.bits()].partition);
                    let what = format!("{x:?} from level {l}, threads {threads}");
                    assert_eq!(child.normalized(), py.product_simple(pz).normalized(), "{what}");
                    let known = x.parents().find(|&(a, p)| level[&p.bits()].determines.contains(a));
                    if let Some((_, p)) = known {
                        assert!(Arc::ptr_eq(child, &level[&p.bits()].partition), "{what}");
                        shared += usize::from(threads == 1);
                        continue;
                    }
                    let (a, p) = x
                        .parents()
                        .min_by_key(|&(_, p)| (level[&p.bits()].partition.covered_rows(), p.bits()))
                        .unwrap();
                    let parent = &level[&p.bits()].partition;
                    let refined = parent.refine(enc.codes(a), enc.cardinality(a), &mut scratch);
                    assert_eq!(child.raw_csr(), refined.raw_csr(), "{what}");
                }
            }
            for (&bits, node) in next.nodes.iter() {
                for a in node.determines.iter() {
                    assert!(!AttrSet::from_bits(bits).contains(a));
                    let refined =
                        node.partition.refine(enc.codes(a), enc.cardinality(a), &mut scratch);
                    assert_eq!(refined, *node.partition, "{bits:#b} determines {a}");
                }
            }
            assert!(next.relation.is_some(), "the next level carries the relation");
            level = next;
        }
        assert!(shared > 0, "some child shares its parent's partition");
    }

    /// Generation reads its code columns from the level, so a level with
    /// nodes but no relation is a caller's bug.
    #[test]
    #[should_panic(expected = "needs a level that carries its relation")]
    fn next_level_without_relation_panics() {
        let l1 = build_level1(&enc3());
        let mut bare = Level::new();
        for bits in sorted_keys(&l1) {
            bare.insert(bits, Node::new(StrippedPartition::clone(&l1[&bits].partition), 3));
        }
        let _ = next_level(&bare, &CancelToken::never());
    }

    /// A plan mixing absorbs, products and reuses builds the same level as
    /// the all-product plan, at every thread count. The absorb goes through
    /// the fewest-rows parent `{a}`, which is not the generating parent
    /// `Z = {b}` of the join `({a, b}, {a}, {b})`.
    #[test]
    fn mixed_plan_equals_products() {
        // Rows 5..8 are the tail: they join classes of {a, b} and stay
        // singletons under {b, c}.
        let rel = RelationBuilder::new()
            .column_i64("a", vec![0, 0, 1, 1, 0, 1, 0, 1])
            .column_i64("b", vec![0, 0, 0, 1, 1, 0, 0, 1])
            .column_i64("c", vec![2, 2, 1, 1, 2, 5, 6, 7])
            .build()
            .unwrap();
        let enc = rel.encode();
        let l1 = build_level1(&enc);
        let expected = next_level(&l1, &CancelToken::never()).unwrap();
        let retained =
            next_level(&build_level1(&rel.head(5).encode()), &CancelToken::never()).unwrap();
        let joins = candidate_joins(&l1);
        assert_eq!(joins.len(), 3);
        assert_eq!(fewest_rows_parent(&l1, joins[0].0), (1, AttrSet::singleton(0)));
        let mut bytes: Vec<Vec<usize>> = Vec::new();
        for threads in [1, 2] {
            // Joins {a,b}, {a,c}, {b,c}: absorb, product, reuse.
            let taken = |x: AttrSet| StrippedPartition::clone(&retained[&x.bits()].partition);
            let mut actions = vec![
                JoinAction::Absorb(taken(joins[0].0)),
                JoinAction::Product,
                JoinAction::Reuse(taken(joins[2].0)),
            ]
            .into_iter();
            let plan = |_, _, _| actions.next().expect("one action per join");
            let exec = Executor::new(threads);
            let cancel = CancelToken::never();
            let (next, generated) =
                generate_level(&l1, &enc, 3, plan, true, &exec, &mut Vec::new(), &cancel).unwrap();
            assert!(matches!(generated[0].1, Generated::Absorbed { dirty: true }));
            assert!(matches!(generated[1].1, Generated::Product));
            assert!(matches!(generated[2].1, Generated::Reused));
            let mut sizes = Vec::new();
            for (&(x, _, _), (child, _)) in joins.iter().zip(&generated) {
                assert_eq!(*child, x);
                let partition = &next[&x.bits()].partition;
                assert_eq!(**partition, *expected[&x.bits()].partition, "threads={threads}");
                sizes.push(partition.memory_bytes());
            }
            bytes.push(sizes);
        }
        // Moving results into the caller's heap keeps their capacities.
        assert_eq!(bytes[0], bytes[1]);
    }

    #[test]
    fn level0_unit_node() {
        let l0 = build_level0(4, 3);
        let node = &l0[&AttrSet::EMPTY.bits()];
        assert_eq!(node.cc, AttrSet::full(3));
        assert_eq!(node.partition.n_classes(), 1);
    }

    /// The attribute map builds level 1 byte for byte like the plain loop,
    /// at every thread count, with and without rows.
    #[test]
    fn parallel_level1_equals_sequential() {
        let n = 50i64;
        let rel = RelationBuilder::new()
            .column_i64("low", (0..n).map(|i| i * 7 % 3).collect())
            .column_i64("key", (0..n).map(|i| (i * 31) % n).collect())
            .column_i64("konst", vec![9; n as usize])
            .build()
            .unwrap();
        for enc in [rel.encode(), rel.head(0).encode()] {
            let expected = build_level1(&enc);
            assert_eq!(expected.len(), 3);
            for threads in [1, 2, 4] {
                let exec = Executor::new(threads);
                let got = build_level1_parallel(&enc, &exec, &CancelToken::never()).unwrap();
                assert_eq!(got.len(), expected.len());
                for bits in expected.keys() {
                    assert_eq!(
                        got[bits].partition.raw_csr(),
                        expected[bits].partition.raw_csr(),
                        "attrs {bits:#b} rows {} threads {threads}",
                        enc.n_rows()
                    );
                }
            }
        }
    }
}
