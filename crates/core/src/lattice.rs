//! Lattice levels and nodes (paper §4.1, Figure 3; Algorithm 2).

use crate::pairset::PairSet;
use crate::parallel::Executor;
use crate::{CancelToken, PassError};
use fastod_partition::{AppendDelta, ProductScratch, StrippedPartition};
use fastod_relation::{AttrId, AttrSet, EncodedRelation};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::Mutex;

/// A lattice node: the attribute set is the map key; the node carries its
/// stripped partition `Π*_X` and candidate sets `C⁺c(X)` / `C⁺s(X)`.
pub struct Node {
    /// The stripped partition `Π*_X`.
    pub partition: StrippedPartition,
    /// Candidate attributes `C⁺c(X)` (Definition 7).
    pub cc: AttrSet,
    /// Candidate pairs `C⁺s(X)` (Definition 8).
    pub cs: PairSet,
}

impl Node {
    /// A node with empty candidate sets (they are filled by
    /// [`crate::snapshot::compute_candidate_sets`]).
    pub fn new(partition: StrippedPartition, n_attrs: usize) -> Node {
        Node {
            partition,
            cc: AttrSet::EMPTY,
            cs: PairSet::new(n_attrs),
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
/// to [`run_joins`].
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

/// `calculateNextLevel(L_l)` — Algorithm 2, with every child's partition
/// built from its two generating parents: the generation plan in which
/// every action is a [`JoinAction::Product`], run by [`run_joins`] over
/// the relation `level` carries. The returned level carries it too.
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
    cancel.check()?;
    let joins = candidate_joins(level);
    let actions = joins.iter().map(|_| JoinAction::Product).collect();
    let built = run_joins(level, enc, &joins, actions, false, exec, pool, cancel)?;
    let mut next = Level::with_capacity(joins.len());
    next.relation = Some(enc.clone());
    for ((x, _, _), join) in joins.into_iter().zip(built) {
        next.insert(x.bits(), Node::new(join.into_partition(), n_attrs));
    }
    Ok(next)
}

/// How generation obtains the partition of one child `X = Y ∪ Z` of a
/// [`candidate_joins`] entry `(X, Y, Z)`. A generation plan lists one
/// action per join, in join order.
pub enum JoinAction {
    /// `Π*_X` from the two generating parents: the parent that covers
    /// fewer rows, refined by the code column of the other's extra
    /// attribute ([`StrippedPartition::refine`]; `Z` on a tie). The bytes
    /// equal the product `Π*_Y · Π*_Z` that splits that parent.
    Product,
    /// A retained `Π*_X` over fewer rows absorbs the appended ones
    /// ([`StrippedPartition::absorb_append`]): the classes of `Π*_Z` that
    /// gained a row are re-split by the code column of the attribute in
    /// `Y ∖ Z`.
    Absorb(StrippedPartition),
    /// A retained `Π*_X` the mutation provably left unchanged; only its
    /// row count grows to the parents'.
    Reuse(StrippedPartition),
}

/// What one [`JoinAction`] produced, in plan order.
pub enum JoinResult {
    /// The child built from both parents.
    Product(StrippedPartition),
    /// The retained partition after absorbing, with its append delta.
    Absorbed(StrippedPartition, AppendDelta),
    /// The retained partition, unchanged.
    Reused(StrippedPartition),
}

impl JoinResult {
    /// The child's partition.
    pub fn into_partition(self) -> StrippedPartition {
        match self {
            JoinResult::Product(p) | JoinResult::Absorbed(p, _) | JoinResult::Reused(p) => p,
        }
    }
}

/// Runs a generation plan over `level`: `actions[i]` builds the child of
/// `joins[i]`, splitting parent classes by the code columns of `enc`, the
/// relation the level's partitions cover. Products and absorbs run on
/// `exec`'s workers, each worker with its own [`ProductScratch`] from
/// `pool`; reuses only bump a row count, inline. The results come back in
/// plan order, so whatever the caller applies from them is independent of
/// the thread count.
///
/// With `caller_heap`, a partition that a spawned worker built, or grew
/// by absorbing, is copied into the calling thread's heap before it is
/// returned ([`StrippedPartition::reallocated`]; capacities and so
/// [`StrippedPartition::memory_bytes`] are kept). Callers that retain the
/// level across passes set it: glibc serves each thread from its own
/// arena, and a retained partition would pin memory in a worker's arena.
///
/// # Errors
/// [`PassError::Cancelled`] when `cancel` fires, and
/// [`PassError::Panicked`] when a worker panics; no result is returned
/// then, and the retained partitions the plan carried are dropped.
#[allow(clippy::too_many_arguments)]
pub fn run_joins(
    level: &Level,
    enc: &EncodedRelation,
    joins: &[(AttrSet, AttrSet, AttrSet)],
    actions: Vec<JoinAction>,
    caller_heap: bool,
    exec: &Executor,
    pool: &mut Vec<ProductScratch>,
    cancel: &CancelToken,
) -> Result<Vec<JoinResult>, PassError> {
    debug_assert_eq!(joins.len(), actions.len());
    let mut results: Vec<Option<JoinResult>> = Vec::with_capacity(joins.len());
    // The executor shares its items by reference, so each worker moves its
    // action out of a slot of its own.
    let mut work: Vec<(usize, Mutex<Option<JoinAction>>)> = Vec::new();
    let mut products = 0u64;
    for (i, action) in actions.into_iter().enumerate() {
        match action {
            JoinAction::Reuse(mut partition) => {
                partition.extend_rows(level[&joins[i].2.bits()].partition.n_rows());
                results.push(Some(JoinResult::Reused(partition)));
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
            let (_, y, z) = joins[*i];
            let parent = &level[&z.bits()].partition;
            let action = slot
                .lock()
                .expect("a slot is locked only to take its action")
                .take()
                .expect("each action runs once");
            // The code column and cardinality of the one attribute that one
            // parent adds to the other.
            let column = |extra: AttrSet| {
                let a = extra.min_attr().expect("the parents differ");
                (enc.codes(a), enc.cardinality(a))
            };
            // Whether this worker allocated the result's buffers: a product
            // always, an absorb when it outgrew them.
            let (join, allocated) = match action {
                JoinAction::Product => {
                    // A refinement costs one key read per row of the
                    // refined parent, so refine the one that covers fewer.
                    let sibling = &level[&y.bits()].partition;
                    let (split, extra) = if sibling.covered_rows() >= parent.covered_rows() {
                        (parent, y.difference(z))
                    } else {
                        (sibling, z.difference(y))
                    };
                    let (codes, card) = column(extra);
                    (JoinResult::Product(split.refine(codes, card, scratch)), true)
                }
                JoinAction::Absorb(mut partition) => {
                    let (codes, card) = column(y.difference(z));
                    let bytes = partition.memory_bytes();
                    let delta = partition.absorb_append(parent, codes, card, scratch);
                    let grew = partition.memory_bytes() != bytes;
                    (JoinResult::Absorbed(partition, delta), grew)
                }
                JoinAction::Reuse(_) => unreachable!("reuses run inline"),
            };
            (join, allocated && std::thread::current().id() != caller)
        },
    )?;
    for ((i, _), (join, foreign)) in work.iter().zip(built) {
        let copy = caller_heap && foreign;
        results[*i] = Some(match join {
            JoinResult::Product(p) if copy => JoinResult::Product(p.reallocated()),
            JoinResult::Absorbed(p, delta) if copy => JoinResult::Absorbed(p.reallocated(), delta),
            join => join,
        });
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
    let mut buf = Vec::new();
    level1_of(enc, (0..enc.n_attrs()).map(|a| level1_partition(enc, a, &mut buf)).collect())
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
    let partitions = exec.try_map_with(&mut Vec::new(), Vec::new, &attrs, cancel, |buf, _, &a| {
        level1_partition(enc, a, buf)
    })?;
    Ok(level1_of(enc, partitions))
}

/// `Π*_{{A}}` by one counting sort over `a`'s codes. A packed column is
/// decoded into `buf`, so its unpacked cache is never filled.
fn level1_partition(enc: &EncodedRelation, a: AttrId, buf: &mut Vec<u32>) -> StrippedPartition {
    StrippedPartition::from_codes(enc.codes_range(a, 0..enc.n_rows(), buf), enc.cardinality(a))
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
    let mut level = Level::with_capacity(1);
    let mut node = Node::new(StrippedPartition::unit(n_rows), n_attrs);
    node.cc = AttrSet::full(n_attrs);
    level.insert(AttrSet::EMPTY.bits(), node);
    level
}

/// [`build_level0`] for a relation with tombstones: the unit partition
/// holds only the live rows (see
/// [`StrippedPartition::unit_masked`]). With an all-`true` mask this equals
/// `build_level0(live.len(), n_attrs)`.
pub fn build_level0_masked(live: &[bool], n_attrs: usize) -> Level {
    let mut level = Level::with_capacity(1);
    let mut node = Node::new(StrippedPartition::unit_masked(live), n_attrs);
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

    /// Every generated child has the bytes of the product that splits the
    /// parent covering fewer rows (`Z` on a tie), node for node, at every
    /// thread count, from plain and packed columns, over the unpruned
    /// levels 1–4 of a table with constant, key-like and low-cardinality
    /// columns.
    #[test]
    fn refined_levels_equal_products() {
        let rel = fastod_datagen::flight_like(600, 8, 7);
        let plain = rel.encode();
        let mut packed = rel.encode();
        packed.pack();
        for enc in [&plain, &packed] {
            let mut level = build_level1(enc);
            for l in 1..=4 {
                let joins = candidate_joins(&level);
                assert!(!joins.is_empty(), "level {l} has joins");
                let expected: Vec<StrippedPartition> = joins
                    .iter()
                    .map(|&(_, y, z)| {
                        let (py, pz) = (&level[&y.bits()].partition, &level[&z.bits()].partition);
                        if py.covered_rows() >= pz.covered_rows() {
                            py.product_simple(pz)
                        } else {
                            pz.product_simple(py)
                        }
                    })
                    .collect();
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
                    for (&(x, _, _), product) in joins.iter().zip(&expected) {
                        assert_eq!(
                            next[&x.bits()].partition.raw_csr(),
                            product.raw_csr(),
                            "{x:?} from level {l}, threads {threads}, packed {}",
                            enc.is_packed(0)
                        );
                    }
                }
                assert!(next.relation.is_some(), "the next level carries the relation");
                level = next;
            }
        }
    }

    /// Generation reads its code columns from the level, so a level with
    /// nodes but no relation is a caller's bug.
    #[test]
    #[should_panic(expected = "needs a level that carries its relation")]
    fn next_level_without_relation_panics() {
        let l1 = build_level1(&enc3());
        let mut bare = Level::new();
        for bits in sorted_keys(&l1) {
            bare.insert(bits, Node::new(l1[&bits].partition.clone(), 3));
        }
        let _ = next_level(&bare, &CancelToken::never());
    }

    /// A plan mixing absorbs, products and reuses builds the same level as
    /// the all-product plan, at every thread count.
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
        // Joins {a,b}, {a,c}, {b,c}: absorb, product, reuse.
        let joins = candidate_joins(&l1);
        assert_eq!(joins.len(), 3);
        let mut bytes: Vec<Vec<usize>> = Vec::new();
        for threads in [1, 2] {
            let taken = |x: AttrSet| retained[&x.bits()].partition.clone();
            let actions = vec![
                JoinAction::Absorb(taken(joins[0].0)),
                JoinAction::Product,
                JoinAction::Reuse(taken(joins[2].0)),
            ];
            let exec = Executor::new(threads);
            let built = run_joins(
                &l1,
                &enc,
                &joins,
                actions,
                true,
                &exec,
                &mut Vec::new(),
                &CancelToken::never(),
            )
            .unwrap();
            assert!(matches!(&built[0], JoinResult::Absorbed(_, delta) if delta.is_dirty()));
            assert!(matches!(built[1], JoinResult::Product(_)));
            assert!(matches!(built[2], JoinResult::Reused(_)));
            let mut sizes = Vec::new();
            for (&(x, _, _), join) in joins.iter().zip(built) {
                let partition = join.into_partition();
                assert_eq!(partition, expected[&x.bits()].partition, "threads={threads}");
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
    /// at every thread count, from plain and packed columns alike.
    #[test]
    fn parallel_level1_equals_sequential() {
        let n = 50i64;
        let rel = RelationBuilder::new()
            .column_i64("low", (0..n).map(|i| i * 7 % 3).collect())
            .column_i64("key", (0..n).map(|i| (i * 31) % n).collect())
            .column_i64("konst", vec![9; n as usize])
            .build()
            .unwrap();
        let plain = rel.encode();
        let mut packed = rel.encode();
        packed.pack();
        let empty = rel.head(0).encode();
        let packed_bytes = packed.memory_bytes();
        for (enc, expected) in [
            (&plain, build_level1(&plain)),
            (&packed, build_level1(&plain)),
            (&empty, build_level1(&empty)),
        ] {
            assert_eq!(expected.len(), 3);
            for threads in [1, 2, 4] {
                let exec = Executor::new(threads);
                let got = build_level1_parallel(enc, &exec, &CancelToken::never()).unwrap();
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
        // Packed columns are decoded per worker, never cached unpacked.
        assert_eq!(packed.memory_bytes(), packed_bytes);
    }
}
