//! Reusable scratch buffers for the hot partition operations.
//!
//! Products and validation scans run once per lattice node/candidate — many
//! millions of times in the larger experiments. All of them need O(n)
//! row-indexed working memory; these types keep that memory allocated across
//! calls and use epoch stamps so it never has to be zeroed.

use crate::StrippedPartition;

/// Scratch space for [`StrippedPartition::refine`],
/// [`StrippedPartition::absorb_append`] and [`StrippedPartition::product`].
///
/// Everything they touch is a flat, row- or key-indexed array that
/// persists across calls: a `ClassSplitter` with its CSR output buffers,
/// which the caller copies out at exact size, and one slot per row. Only
/// the product and the absorb use the slots; a refinement never grows
/// them. A slot packs `epoch << 32 | class`, as the τ-scan's class map
/// does, so a probed row costs one read, and a stale epoch means the row was not
/// stamped in this call. Zero per-class allocations, ever.
#[derive(Default)]
pub struct ProductScratch {
    /// `epoch << 32 | class` per row: the row's class in the probed
    /// operand (the product), or just the stamp (the absorb).
    pub(crate) slots: Vec<u64>,
    pub(crate) epoch: u32,
    pub(crate) split: ClassSplitter,
}

impl ProductScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> ProductScratch {
        ProductScratch::default()
    }

    /// Resident capacity of every arena buffer, in bytes. Steady-state
    /// contract: once warmed on a workload, repeated products through the
    /// same scratch must not grow this (pinned by the `partition_hot`
    /// criterion bench).
    pub fn arena_bytes(&self) -> usize {
        let split = &self.split;
        self.slots.capacity() * std::mem::size_of::<u64>()
            + (split.count.capacity()
                + split.cursor.capacity()
                + split.touched.capacity()
                + split.rows.capacity()
                + split.offsets.capacity())
                * std::mem::size_of::<u32>()
    }

    /// Prepares the scratch for a call over `n_rows` rows that splits
    /// classes by keys below `n_keys`, with empty split output; returns the
    /// epoch for this call.
    pub(crate) fn begin(&mut self, n_rows: usize, n_keys: usize) -> u32 {
        if self.slots.len() < n_rows {
            self.slots.resize(n_rows, 0);
        }
        self.split.reset(n_keys);
        // On wrap-around the stale stamps could collide; reset then.
        if self.epoch == u32::MAX {
            self.slots.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// The class a slot of [`ProductScratch::slots`] holds, if the slot was
/// stamped at `epoch`.
#[inline]
pub(crate) fn slot_class(slot: u64, epoch: u32) -> Option<u32> {
    ((slot >> 32) as u32 == epoch).then_some(slot as u32)
}

/// Splits classes into groups of rows with equal key and collects the
/// groups of ≥ 2 rows in flat CSR form: the one step shared by the
/// refinement and the absorbed append (key: the row's code, so the key
/// arrays are sized by the column's cardinality) and the product (key:
/// the row's class in the other operand).
#[derive(Default)]
pub(crate) struct ClassSplitter {
    /// Rows of the current class per key; all-zero between calls
    /// (restored via `touched` after every class).
    count: Vec<u32>,
    /// Per-key write position into `rows` (`u32::MAX` = the group is a
    /// singleton and its row is skipped).
    cursor: Vec<u32>,
    /// Keys hit by the current class, in first-encounter order.
    touched: Vec<u32>,
    /// Concatenated rows of the collected groups.
    pub(crate) rows: Vec<u32>,
    /// End offset of each collected group, shifted by the caller's `base`.
    pub(crate) offsets: Vec<u32>,
}

impl ClassSplitter {
    /// Sizes the key arrays for keys below `n_keys` and empties the output.
    pub(crate) fn reset(&mut self, n_keys: usize) {
        if self.count.len() < n_keys {
            self.count.resize(n_keys, 0);
            self.cursor.resize(n_keys, 0);
        }
        debug_assert!(self.count.iter().all(|&c| c == 0), "count invariant broken");
        self.rows.clear();
        self.offsets.clear();
    }

    /// Appends the groups of `class` by `key` (rows keyed `None` are
    /// skipped) in first-encounter order, each keeping the class's row
    /// order, and records each group's end as `base + end in rows`.
    ///
    /// Classes of 2 and 3 rows, most of them at deep lattice levels,
    /// compare their keys directly: they hold at most one group of ≥ 2
    /// rows, so there is no order to keep between groups.
    #[inline]
    pub(crate) fn split(&mut self, class: &[u32], key: impl Fn(u32) -> Option<u32>, base: u32) {
        match *class {
            [r0, r1] => {
                let k0 = key(r0);
                if k0.is_some() && k0 == key(r1) {
                    self.push_group(&[r0, r1], base);
                }
            }
            [r0, r1, r2] => {
                let (k0, k1, k2) = (key(r0), key(r1), key(r2));
                if k0.is_some() && k0 == k1 {
                    if k1 == k2 {
                        self.push_group(&[r0, r1, r2], base);
                    } else {
                        self.push_group(&[r0, r1], base);
                    }
                } else if k0.is_some() && k0 == k2 {
                    self.push_group(&[r0, r2], base);
                } else if k1.is_some() && k1 == k2 {
                    self.push_group(&[r1, r2], base);
                }
            }
            _ => self.split_counted(class, key, base),
        }
    }

    /// [`ClassSplitter::split`] of each of `classes` by its rows' `codes`.
    #[inline]
    pub(crate) fn split_by_codes<'c>(
        &mut self,
        classes: impl Iterator<Item = &'c [u32]>,
        codes: &[u32],
        base: u32,
    ) {
        for class in classes {
            self.split(class, |row| Some(codes[row as usize]), base);
        }
    }

    fn push_group(&mut self, group: &[u32], base: u32) {
        self.rows.extend_from_slice(group);
        self.offsets.push(base + self.rows.len() as u32);
    }

    /// [`ClassSplitter::split`] for any class: count the rows per key,
    /// then place each group's rows at its cursor.
    #[inline]
    fn split_counted(&mut self, class: &[u32], key: impl Fn(u32) -> Option<u32>, base: u32) {
        self.touched.clear();
        for &row in class {
            if let Some(k) = key(row) {
                if self.count[k as usize] == 0 {
                    self.touched.push(k);
                }
                self.count[k as usize] += 1;
            }
        }
        let mut end = self.rows.len() as u32;
        for &k in &self.touched {
            let c = self.count[k as usize];
            if c >= 2 {
                self.cursor[k as usize] = end;
                end += c;
                self.offsets.push(base + end);
            } else {
                self.cursor[k as usize] = u32::MAX;
            }
        }
        self.rows.resize(end as usize, 0);
        for &row in class {
            if let Some(k) = key(row) {
                let cur = self.cursor[k as usize];
                if cur != u32::MAX {
                    self.rows[cur as usize] = row;
                    self.cursor[k as usize] = cur + 1;
                }
            }
        }
        for &k in &self.touched {
            self.count[k as usize] = 0;
        }
    }
}

/// An epoch-stamped row → equivalence-class map for a context partition.
///
/// Built in O(covered rows) from a [`StrippedPartition`]; rows in singleton
/// classes map to `None`. Reused across validations without clearing.
///
/// Epoch and class index are packed into **one** `u64` per row
/// (`epoch << 32 | class`), so the τ-scan's membership probe costs a single
/// random memory read instead of separate stamp + class lookups.
#[derive(Default)]
pub(crate) struct ClassMap {
    /// `epoch << 32 | class` per row; stale epochs mean "not covered".
    entries: Vec<u64>,
    epoch: u32,
}

impl ClassMap {
    /// Loads the mapping for `partition`.
    pub(crate) fn assign(&mut self, partition: &StrippedPartition) {
        let n = partition.n_rows();
        if self.entries.len() < n {
            self.entries.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.entries.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let tag = u64::from(self.epoch) << 32;
        for (ci, class) in partition.classes().iter().enumerate() {
            let entry = tag | ci as u64;
            for &row in class {
                self.entries[row as usize] = entry;
            }
        }
    }

    /// The class index of `row`, or `None` if the row is in a singleton
    /// class (stripped away).
    #[inline]
    pub(crate) fn class_of(&self, row: u32) -> Option<u32> {
        let entry = self.entries[row as usize];
        if (entry >> 32) as u32 == self.epoch {
            Some(entry as u32)
        } else {
            None
        }
    }
}

/// Per-class running state for the run-structured swap scan
/// (see [`crate::tau_scan`]).
#[derive(Clone, Copy)]
pub(crate) struct SwapState {
    /// Max `B`-code within the current `A`-run (valid while `in_run`).
    pub run_max_b: u32,
    /// Max `B`-code over all *completed* runs (strictly smaller `A`), with
    /// the row achieving it (for witness reporting). -1 when no completed run.
    pub prev_max_b: i64,
    pub prev_max_row: u32,
    /// Whether this class has been touched by the current `A`-run.
    pub in_run: bool,
}

impl Default for SwapState {
    fn default() -> Self {
        SwapState {
            run_max_b: 0,
            prev_max_b: -1,
            prev_max_row: u32::MAX,
            in_run: false,
        }
    }
}

/// Scratch space for every OD kernel: the τ-scan's class map and per-class
/// run states, reused across checks that share a context partition, and
/// the class kernels' sort, merge and patience buffers (see
/// [`crate::holds`]).
///
/// Validators keep one `SwapScratch` per worker thread for the whole
/// discovery run, so the buffers grown at one lattice level are reused at
/// every later level instead of being reallocated per node.
#[derive(Default)]
pub struct SwapScratch {
    pub(crate) class_map: ClassMap,
    pub(crate) states: Vec<SwapState>,
    /// Row achieving `run_max_b` in the current run, for witnesses.
    pub(crate) run_max_row: Vec<u32>,
    /// Classes touched by the current `A`-run (their run maxima get folded
    /// into `prev_max` when the run ends).
    pub(crate) run_touched: Vec<u32>,
    /// Whether `class_map` currently holds the partition given by this token.
    loaded_for: Option<usize>,
    /// One constancy class's sorted `A` codes.
    pub(crate) codes: Vec<u32>,
    /// One order class's sorted `(A, B)` codes, packed as `A << 32 | B`.
    pub(crate) pairs: Vec<u64>,
    /// One order class's sorted `(A, B, row)` keys, packed as
    /// `A << 64 | B << 32 | row`, when rows are answered.
    pub(crate) triples: Vec<u128>,
    /// The inversion count's merge-sort buffers.
    pub(crate) vals: Vec<u32>,
    pub(crate) tmp: Vec<u32>,
    /// The patience sort's tails, the elements ending them, and each
    /// element's predecessor.
    pub(crate) tails: Vec<u32>,
    pub(crate) tail_at: Vec<u32>,
    pub(crate) links: Vec<u32>,
}

impl SwapScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> SwapScratch {
        SwapScratch::default()
    }

    /// Loads the context partition, skipping the work when `token` matches
    /// the previous call. Callers that check many attribute pairs within one
    /// context pass a stable token (e.g. the node's bitset) to share the map.
    pub(crate) fn load(&mut self, partition: &StrippedPartition, token: Option<usize>) {
        let reuse = token.is_some() && token == self.loaded_for;
        if !reuse {
            self.class_map.assign(partition);
            self.loaded_for = token;
        }
        let k = partition.n_classes();
        self.states.clear();
        self.states.resize(k, SwapState::default());
        self.run_max_row.clear();
        self.run_max_row.resize(k, u32::MAX);
        self.run_touched.clear();
    }

    /// Invalidates the cached context token.
    pub fn reset_token(&mut self) {
        self.loaded_for = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_map_assigns_and_resets() {
        let p = StrippedPartition::from_classes(5, vec![vec![0, 2], vec![3, 4]]);
        let mut cm = ClassMap::default();
        cm.assign(&p);
        assert_eq!(cm.class_of(0), Some(0));
        assert_eq!(cm.class_of(2), Some(0));
        assert_eq!(cm.class_of(3), Some(1));
        assert_eq!(cm.class_of(1), None);

        let q = StrippedPartition::from_classes(5, vec![vec![1, 4]]);
        cm.assign(&q);
        assert_eq!(cm.class_of(0), None);
        assert_eq!(cm.class_of(1), Some(0));
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let p = StrippedPartition::from_classes(2, vec![vec![0, 1]]);
        let mut cm = ClassMap {
            epoch: u32::MAX - 1,
            ..ClassMap::default()
        };
        cm.assign(&p); // epoch -> MAX
        assert_eq!(cm.class_of(0), Some(0));
        cm.assign(&p); // wraps: stamps reset
        assert_eq!(cm.class_of(0), Some(0));
        assert_eq!(cm.class_of(1), Some(0));
    }

    #[test]
    fn product_scratch_epoch_wraparound() {
        let x = StrippedPartition::from_classes(3, vec![vec![0, 1, 2]]);
        let y = StrippedPartition::from_classes(3, vec![vec![0, 1]]);
        let mut s = ProductScratch::new();
        s.epoch = u32::MAX - 1;
        let p1 = x.product(&y, &mut s);
        let p2 = x.product(&y, &mut s); // crosses the wrap
        assert_eq!(p1, p2);
        assert_eq!(p1.normalized(), vec![vec![0, 1]]);
    }
}
