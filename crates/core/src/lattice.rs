//! Lattice levels and nodes (paper §4.1, Figure 3; Algorithm 2).

use crate::pairset::PairSet;
use crate::parallel::Executor;
use crate::{CancelToken, PassError};
use fastod_partition::{AppendDelta, ProductScratch, StrippedPartition};
use fastod_relation::AttrSet;
use std::collections::HashMap;
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

/// One lattice level `L_l`, keyed by the node's attribute-set bits.
pub type Level = HashMap<u64, Node>;

/// The keys of a level in ascending bit order (deterministic iteration).
pub fn sorted_keys(level: &Level) -> Vec<u64> {
    let mut keys: Vec<u64> = level.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// `calculateNextLevel(L_l)` — Algorithm 2, with every partition the
/// product of its two generating parents: the generation plan in which
/// every action is a [`JoinAction::Product`], run by [`run_joins`].
///
/// `pool` holds one [`ProductScratch`] arena per worker and persists across
/// calls — the lattice driver passes the same pool for every level, so the
/// row-indexed probe/stamp buffers grown at level 2 are reused all the way
/// to the deepest level instead of being reallocated per node. The produced
/// level is identical at any thread count (products are pure; the join
/// list is deterministic).
pub fn calculate_next_level_parallel(
    level: &Level,
    n_attrs: usize,
    exec: &Executor,
    pool: &mut Vec<ProductScratch>,
    cancel: &CancelToken,
) -> Result<Level, PassError> {
    cancel.check()?;
    let joins = candidate_joins(level);
    let actions = joins.iter().map(|_| JoinAction::Product).collect();
    let built = run_joins(level, &joins, actions, false, exec, pool, cancel)?;
    let mut next = Level::with_capacity(joins.len());
    for ((x, _, _), join) in joins.into_iter().zip(built) {
        next.insert(x.bits(), Node::new(join.into_partition(), n_attrs));
    }
    Ok(next)
}

/// How generation obtains the partition of one child `X = Y ∪ Z` of a
/// [`candidate_joins`] entry `(X, Y, Z)`. A generation plan lists one
/// action per join, in join order.
pub enum JoinAction<'a> {
    /// The product `Π*_Y · Π*_Z` of the two generating parents.
    Product,
    /// A retained `Π*_X` over fewer rows absorbs the appended ones
    /// ([`StrippedPartition::absorb_append`]): the classes of `Π*_Z` that
    /// gained a row are re-split by the code column of the attribute in
    /// `Y ∖ Z`.
    Absorb {
        /// The retained partition of `X`.
        partition: StrippedPartition,
        /// The code column of the attribute `Y ∖ Z`.
        codes: &'a [u32],
        /// That column's cardinality.
        cardinality: u32,
    },
    /// A retained `Π*_X` the mutation provably left unchanged; only its
    /// row count grows to the parents'.
    Reuse(StrippedPartition),
}

/// What one [`JoinAction`] produced, in plan order.
pub enum JoinResult {
    /// The parents' product.
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
/// `joins[i]`. Products and absorbs run on `exec`'s workers, each worker
/// with its own [`ProductScratch`] from `pool`; reuses only bump a row
/// count, inline. The results come back in plan order, so whatever the
/// caller applies from them is independent of the thread count.
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
pub fn run_joins(
    level: &Level,
    joins: &[(AttrSet, AttrSet, AttrSet)],
    actions: Vec<JoinAction<'_>>,
    caller_heap: bool,
    exec: &Executor,
    pool: &mut Vec<ProductScratch>,
    cancel: &CancelToken,
) -> Result<Vec<JoinResult>, PassError> {
    debug_assert_eq!(joins.len(), actions.len());
    let mut results: Vec<Option<JoinResult>> = Vec::with_capacity(joins.len());
    // The executor shares its items by reference, so each worker moves its
    // action out of a slot of its own.
    let mut work: Vec<(usize, Mutex<Option<JoinAction<'_>>>)> = Vec::new();
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
            // Whether this worker allocated the result's buffers: a product
            // always, an absorb when it outgrew them.
            let (join, allocated) = match action {
                JoinAction::Product => {
                    let product = level[&y.bits()].partition.product(parent, scratch);
                    (JoinResult::Product(product), true)
                }
                JoinAction::Absorb { mut partition, codes, cardinality } => {
                    let bytes = partition.memory_bytes();
                    let delta = partition.absorb_append(parent, codes, cardinality, scratch);
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
pub fn build_level1(enc: &fastod_relation::EncodedRelation) -> Level {
    let n_attrs = enc.n_attrs();
    let mut level = Level::with_capacity(n_attrs);
    for a in 0..n_attrs {
        level.insert(
            AttrSet::singleton(a).bits(),
            Node::new(
                StrippedPartition::from_codes(enc.codes(a), enc.cardinality(a)),
                n_attrs,
            ),
        );
    }
    level
}

/// Minimum rows per shard for [`build_level1_parallel`]: below this,
/// spawning extra shards costs more in merge bookkeeping than the counting
/// sort saves.
const MIN_SHARD_ROWS: usize = 1 << 16;

/// [`build_level1`] with each attribute's counting sort row-sharded across
/// `exec`'s workers. The shard size is `n_rows / (threads · 4)` floored at
/// `MIN_SHARD_ROWS` (64 Ki); the result is **byte-identical** to the sequential
/// build at every thread count (see [`build_level1_sharded`]).
pub fn build_level1_parallel(
    enc: &fastod_relation::EncodedRelation,
    exec: &Executor,
    cancel: &CancelToken,
) -> Result<Level, PassError> {
    let base = enc
        .n_rows()
        .div_ceil(exec.threads().max(1) * 4)
        .max(MIN_SHARD_ROWS);
    // Per attribute, never shard finer than the cardinality: a shard at
    // least as long as the cardinality always takes the O(shard + card)
    // counting path with ≤ 8 scratch bytes per shard row, while a finer
    // shard of a key-like column would fall into the O(len · log len)
    // pair sort — asymptotically worse than the sequential counting sort
    // it is supposed to beat. (Dense ranks guarantee cardinality ≤ n_rows,
    // so key-like columns simply degrade to one whole-column shard and the
    // parallelism comes from the other attributes.)
    build_level1_with(enc, exec, cancel, |card| base.max(card as usize))
}

/// [`build_level1_parallel`] with an explicit shard size (rows per shard;
/// the determinism tests shrink it to force multi-shard merges on small
/// tables).
///
/// # Determinism
///
/// Each worker partitions one contiguous row range `[lo, hi)` of one
/// attribute, emitting its present codes in ascending order with the rows
/// of each code ascending. The merge then mirrors
/// [`StrippedPartition::from_codes`] exactly: global per-code counts are
/// summed, classes are the codes with count ≥ 2 **in ascending code
/// order**, and each class's rows are copied shard-by-shard in shard-index
/// order. Since shard `s` covers strictly smaller row ids than shard
/// `s + 1`, rows end up ascending within every class — precisely the order
/// the sequential scatter produces — so the CSR bytes cannot depend on the
/// thread count or shard boundaries.
pub fn build_level1_sharded(
    enc: &fastod_relation::EncodedRelation,
    exec: &Executor,
    cancel: &CancelToken,
    shard_rows: usize,
) -> Result<Level, PassError> {
    build_level1_with(enc, exec, cancel, |_| shard_rows)
}

/// Shared body of [`build_level1_parallel`] / [`build_level1_sharded`]:
/// `shard_for(cardinality)` picks the shard size per attribute.
fn build_level1_with(
    enc: &fastod_relation::EncodedRelation,
    exec: &Executor,
    cancel: &CancelToken,
    shard_for: impl Fn(u32) -> usize,
) -> Result<Level, PassError> {
    cancel.check()?;
    let n_attrs = enc.n_attrs();
    let n_rows = enc.n_rows();
    // Attribute-major shard list: shards of one attribute stay contiguous
    // so the merge below can walk the results in a single pass.
    let mut items: Vec<(usize, usize, usize)> = Vec::new();
    for a in 0..n_attrs {
        let shard_rows = shard_for(enc.cardinality(a)).max(1);
        let mut lo = 0;
        while lo < n_rows {
            let hi = (lo + shard_rows).min(n_rows);
            items.push((a, lo, hi));
            lo = hi;
        }
    }
    exec.obs().add("partition.level1_shards", items.len() as u64);
    let mut pool: Vec<Vec<u32>> = Vec::new();
    let shards = exec.try_map_with(
        &mut pool,
        Vec::new,
        &items,
        cancel,
        |buf, _i, &(a, lo, hi)| {
            let codes = enc.codes_range(a, lo..hi, buf);
            if lo == 0 && hi == n_rows {
                // The shard covers the whole column (key-like cardinality or
                // a tiny relation): build the final partition directly — a
                // `Level1Shard` intermediate would triple the memory traffic
                // only for the merge to replay `from_codes` anyway.
                ShardOut::Done(StrippedPartition::from_codes(codes, enc.cardinality(a)))
            } else {
                ShardOut::Partial(shard_level1(codes, enc.cardinality(a), lo as u32))
            }
        },
    )?;
    // Merge phase: one independent merge per attribute, also fanned out
    // across the workers (shards of one attribute are contiguous in
    // `items`/`shards` by construction).
    let mut attr_ranges: Vec<(usize, usize, usize)> = Vec::with_capacity(n_attrs);
    let mut pos = 0;
    for a in 0..n_attrs {
        let start = pos;
        while pos < items.len() && items[pos].0 == a {
            pos += 1;
        }
        attr_ranges.push((a, start, pos));
    }
    let mut merge_pool: Vec<()> = Vec::new();
    let partitions = exec.try_map_with(
        &mut merge_pool,
        || (),
        &attr_ranges,
        cancel,
        |(), _i, &(a, start, end)| match &shards[start..end] {
            [ShardOut::Done(partition)] => partition.clone(),
            range => merge_level1_shards(n_rows, enc.cardinality(a), range),
        },
    )?;
    let mut level = Level::with_capacity(n_attrs);
    for ((a, _, _), partition) in attr_ranges.into_iter().zip(partitions) {
        level.insert(AttrSet::singleton(a).bits(), Node::new(partition, n_attrs));
    }
    Ok(level)
}

/// One worker's output in the shard phase: either the finished partition
/// (the shard covered the whole column) or a partial to merge.
enum ShardOut {
    Done(StrippedPartition),
    Partial(Level1Shard),
}

/// One worker's partial counting sort over a contiguous row range: the
/// codes present in the range (ascending), their occurrence counts, and the
/// range's rows grouped by code (ascending within each group).
struct Level1Shard {
    present: Vec<u32>,
    counts: Vec<u32>,
    rows: Vec<u32>,
}

fn shard_level1(codes: &[u32], cardinality: u32, base_row: u32) -> Level1Shard {
    let card = cardinality as usize;
    let mut present = Vec::new();
    let mut pcounts = Vec::new();
    let mut rows = vec![0u32; codes.len()];
    if card <= codes.len() {
        // Counting sort: the card-sized scratch costs at most
        // 8 bytes/row here, and only when the cardinality is small relative
        // to the shard.
        let mut counts = vec![0u32; card];
        for &c in codes {
            counts[c as usize] += 1;
        }
        let mut cursor = vec![0u32; card];
        let mut total = 0u32;
        for (code, &count) in counts.iter().enumerate() {
            if count > 0 {
                cursor[code] = total;
                total += count;
                present.push(code as u32);
                pcounts.push(count);
            }
        }
        for (i, &c) in codes.iter().enumerate() {
            let cur = &mut cursor[c as usize];
            rows[*cur as usize] = base_row + i as u32;
            *cur += 1;
        }
    } else {
        // High-cardinality (key-like) column: a card-sized array per shard
        // would dwarf the shard itself — sort (code, row) pairs instead.
        let mut pairs: Vec<(u32, u32)> = codes
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, base_row + i as u32))
            .collect();
        pairs.sort_unstable();
        let mut run_start = 0;
        for (i, &(code, row)) in pairs.iter().enumerate() {
            rows[i] = row;
            if i + 1 == pairs.len() || pairs[i + 1].0 != code {
                present.push(code);
                pcounts.push((i + 1 - run_start) as u32);
                run_start = i + 1;
            }
        }
    }
    Level1Shard {
        present,
        counts: pcounts,
        rows,
    }
}

/// Merges one attribute's shards into `Π*_{{A}}`, mirroring the sequential
/// [`StrippedPartition::from_codes`] byte for byte (see
/// [`build_level1_sharded`]).
fn merge_level1_shards(
    n_rows: usize,
    cardinality: u32,
    shards: &[ShardOut],
) -> StrippedPartition {
    // A `Done` shard covers the whole column, so it is always alone in its
    // range and short-circuited by the caller before merging.
    fn partial(s: &ShardOut) -> &Level1Shard {
        match s {
            ShardOut::Partial(p) => p,
            ShardOut::Done(_) => unreachable!("whole-column shard inside a multi-shard merge"),
        }
    }
    let card = cardinality as usize;
    let mut counts = vec![0u32; card];
    for shard in shards {
        let shard = partial(shard);
        for (&code, &cnt) in shard.present.iter().zip(&shard.counts) {
            counts[code as usize] += cnt;
        }
    }
    let mut class_offsets = vec![0u32];
    let mut cursor: Vec<u32> = vec![u32::MAX; card];
    let mut total = 0u32;
    for (code, &count) in counts.iter().enumerate() {
        if count >= 2 {
            cursor[code] = total;
            total += count;
            class_offsets.push(total);
        }
    }
    let mut rows = vec![0u32; total as usize];
    for shard in shards {
        let shard = partial(shard);
        let mut lo = 0usize;
        for (&code, &cnt) in shard.present.iter().zip(&shard.counts) {
            let hi = lo + cnt as usize;
            let cur = cursor[code as usize];
            if cur != u32::MAX {
                rows[cur as usize..cur as usize + cnt as usize]
                    .copy_from_slice(&shard.rows[lo..hi]);
                cursor[code as usize] = cur + cnt;
            }
            lo = hi;
        }
    }
    StrippedPartition::from_raw_csr(n_rows, rows, class_offsets)
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
            let (ab, y, z) = joins[0];
            let a = y.difference(z).min_attr().unwrap();
            let actions = vec![
                JoinAction::Absorb {
                    partition: taken(ab),
                    codes: enc.codes(a),
                    cardinality: enc.cardinality(a),
                },
                JoinAction::Product,
                JoinAction::Reuse(taken(joins[2].0)),
            ];
            let exec = Executor::new(threads);
            let built = run_joins(
                &l1,
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

    #[test]
    fn sharded_level1_is_byte_identical_to_sequential() {
        // Mixed cardinalities: low-card (counting-sort shards), key-like
        // (pair-sort shards), constant.
        let n = 50i64;
        let enc = RelationBuilder::new()
            .column_i64("low", (0..n).map(|i| i * 7 % 3).collect())
            .column_i64("key", (0..n).map(|i| (i * 31) % n).collect())
            .column_i64("konst", vec![9; n as usize])
            .build()
            .unwrap()
            .encode();
        let seq = build_level1(&enc);
        for threads in [1, 2, 4] {
            let exec = Executor::new(threads);
            for shard_rows in [1, 3, 64] {
                let sharded =
                    build_level1_sharded(&enc, &exec, &CancelToken::never(), shard_rows)
                        .unwrap();
                assert_eq!(sharded.len(), seq.len());
                for (bits, node) in &seq {
                    let got = &sharded[bits].partition;
                    assert_eq!(
                        got.raw_csr(),
                        node.partition.raw_csr(),
                        "threads={threads} shard_rows={shard_rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_level1_handles_packed_and_empty() {
        let mut enc = enc3();
        enc.pack();
        let seq = build_level1(&enc3());
        let exec = Executor::new(2);
        let sharded = build_level1_sharded(&enc, &exec, &CancelToken::never(), 2).unwrap();
        for (bits, node) in &seq {
            assert_eq!(sharded[bits].partition.raw_csr(), node.partition.raw_csr());
        }
        // Zero-row relation: every attribute gets the empty partition.
        let empty = RelationBuilder::new()
            .column_i64("a", vec![])
            .build()
            .unwrap()
            .encode();
        let l1 = build_level1_parallel(&empty, &exec, &CancelToken::never()).unwrap();
        assert!(l1[&AttrSet::singleton(0).bits()].partition.is_superkey());
    }
}
