//! Stripped partitions `Π*_X` and their products, in a flat CSR layout.

use crate::scratch::{slot_class, ProductScratch};

/// A borrowed view of a partition's equivalence classes in CSR form: class
/// `i` is the contiguous row-id slice `rows[offsets[i]..offsets[i+1]]`.
///
/// The view is `Copy` and borrows the owning partition's buffers.
#[derive(Clone, Copy, Debug)]
pub struct Classes<'a> {
    rows: &'a [u32],
    /// `len() + 1` monotone offsets into `rows`.
    offsets: &'a [u32],
}

impl<'a> Classes<'a> {
    /// Number of classes in the view.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the view holds no classes.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() <= 1
    }

    /// The `i`-th class as a contiguous row-id slice.
    #[inline]
    pub fn get(&self, i: usize) -> &'a [u32] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total rows covered by the classes in this view.
    pub fn covered_rows(&self) -> usize {
        self.offsets[self.offsets.len() - 1] as usize
    }

    /// Iterates the classes as contiguous slices. Takes the (Copy) view by
    /// value so the iterator borrows only the underlying partition.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = &'a [u32]> + 'a {
        let rows = self.rows;
        self.offsets
            .windows(2)
            .map(move |w| &rows[w[0] as usize..w[1] as usize])
    }
}

impl<'a> IntoIterator for Classes<'a> {
    type Item = &'a [u32];
    type IntoIter = ClassesIter<'a>;

    fn into_iter(self) -> ClassesIter<'a> {
        ClassesIter {
            rows: self.rows,
            offsets: self.offsets,
            next: 0,
        }
    }
}

/// Owning iterator over a [`Classes`] view (`for class in partition.classes()`).
pub struct ClassesIter<'a> {
    rows: &'a [u32],
    offsets: &'a [u32],
    next: usize,
}

impl<'a> Iterator for ClassesIter<'a> {
    type Item = &'a [u32];

    #[inline]
    fn next(&mut self) -> Option<&'a [u32]> {
        if self.next + 1 >= self.offsets.len() {
            return None;
        }
        let lo = self.offsets[self.next] as usize;
        let hi = self.offsets[self.next + 1] as usize;
        self.next += 1;
        Some(&self.rows[lo..hi])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.offsets.len() - 1 - self.next;
        (remaining, Some(remaining))
    }
}

/// The cursors of an in-place compaction of a partition's CSR buffers.
struct Compaction {
    /// Start of the next class to read, as it was before the compaction.
    read: usize,
    /// End of the rows written so far.
    write: usize,
    /// Classes written so far.
    out_classes: usize,
}

/// A stripped partition `Π*_X`: the equivalence classes of the tuples under
/// attribute set `X`, with singleton classes removed (paper §4.6,
/// Example 12, Lemma 14).
///
/// # Memory layout
///
/// Classes live in one flat **CSR** pair: a contiguous `rows` buffer holding
/// every covered row id, class by class, and a `class_offsets` index with
/// `n_classes + 1` entries delimiting the classes. Every hot operation —
/// products, swap/constancy sweeps, the error-rate shortcut — is a linear
/// scan over these two arrays; nothing on the validation path chases a
/// per-class heap pointer. `covered_rows`/`error` are O(1) reads of
/// `rows.len()`.
///
/// Row ids are `u32` (relations are capped well below 4B rows). Classes and
/// the rows inside them are kept in first-encounter order; use
/// [`StrippedPartition::normalized`] when comparing partitions structurally.
#[derive(Clone, Debug)]
pub struct StrippedPartition {
    n_rows: usize,
    /// Concatenated row ids of all non-singleton classes.
    rows: Vec<u32>,
    /// `n_classes + 1` offsets into `rows`; always starts at 0.
    class_offsets: Vec<u32>,
}

impl StrippedPartition {
    fn from_csr(n_rows: usize, rows: Vec<u32>, class_offsets: Vec<u32>) -> StrippedPartition {
        debug_assert!(!class_offsets.is_empty() && class_offsets[0] == 0);
        debug_assert_eq!(*class_offsets.last().unwrap() as usize, rows.len());
        StrippedPartition {
            n_rows,
            rows,
            class_offsets,
        }
    }

    /// The partition `Π*_{{}}` of the empty attribute set: one class holding
    /// every row (or no class at all for relations with < 2 rows).
    pub fn unit(n_rows: usize) -> StrippedPartition {
        StrippedPartition::unit_of(n_rows, (0..n_rows as u32).collect())
    }

    /// The unit partition over the **live** rows of a relation with
    /// tombstones: one class holding every live row (none when fewer than 2
    /// rows are live). `n_rows` stays the physical slot count —
    /// `live.len()` — so row ids keep addressing the same code columns.
    ///
    /// With an all-`true` mask this equals [`StrippedPartition::unit`].
    pub fn unit_masked(live: &[bool]) -> StrippedPartition {
        let rows = (0..live.len() as u32).filter(|&r| live[r as usize]).collect();
        StrippedPartition::unit_of(live.len(), rows)
    }

    /// The one class `rows` over `n_rows` slots, if it has two rows or more.
    fn unit_of(n_rows: usize, rows: Vec<u32>) -> StrippedPartition {
        if rows.len() >= 2 {
            let end = rows.len() as u32;
            StrippedPartition::from_csr(n_rows, rows, vec![0, end])
        } else {
            StrippedPartition::from_csr(n_rows, Vec::new(), vec![0])
        }
    }

    /// Builds `Π*_{{A}}` from a dense-rank code column via counting sort,
    /// O(n + cardinality), writing straight into the flat CSR buffers.
    pub fn from_codes(codes: &[u32], cardinality: u32) -> StrippedPartition {
        StrippedPartition::from_live_codes(codes, cardinality, |_| true)
    }

    /// [`StrippedPartition::from_codes`] over the **live** rows only: dead
    /// (tombstoned) rows are treated as absent — they join no class and a
    /// code left with a single live occurrence is a singleton. Codes of dead
    /// rows are never read. With an all-`true` mask this equals
    /// `from_codes`.
    pub fn from_codes_masked(codes: &[u32], cardinality: u32, live: &[bool]) -> StrippedPartition {
        debug_assert_eq!(codes.len(), live.len());
        StrippedPartition::from_live_codes(codes, cardinality, |row| live[row])
    }

    /// The counting sort behind both builders. `live` is a closure the
    /// compiler inlines, so `from_codes` pays no per-row branch.
    fn from_live_codes(
        codes: &[u32],
        cardinality: u32,
        live: impl Fn(usize) -> bool,
    ) -> StrippedPartition {
        let card = cardinality as usize;
        let mut counts = vec![0u32; card];
        for (row, &c) in codes.iter().enumerate() {
            if live(row) {
                debug_assert!((c as usize) < card.max(1));
                counts[c as usize] += 1;
            }
        }
        // One class per code occurring at least twice, in ascending code
        // order; `cursor[code]` doubles as the class's write position.
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
        for (row, &c) in codes.iter().enumerate() {
            if !live(row) {
                continue;
            }
            let cur = cursor[c as usize];
            if cur != u32::MAX {
                rows[cur as usize] = row as u32;
                cursor[c as usize] = cur + 1;
            }
        }
        StrippedPartition::from_csr(codes.len(), rows, class_offsets)
    }

    /// Builds a partition directly from materialized classes. Singleton
    /// classes are dropped; rows must be distinct and `< n_rows`
    /// (debug-asserted). Convenience for tests and one-off callers — hot
    /// paths construct CSR buffers directly.
    pub fn from_classes(n_rows: usize, classes: Vec<Vec<u32>>) -> StrippedPartition {
        let mut rows = Vec::new();
        let mut class_offsets = vec![0u32];
        for class in classes.iter().filter(|c| c.len() >= 2) {
            debug_assert!(class.iter().all(|&r| (r as usize) < n_rows));
            rows.extend_from_slice(class);
            class_offsets.push(rows.len() as u32);
        }
        StrippedPartition::from_csr(n_rows, rows, class_offsets)
    }

    /// The raw CSR buffers (`rows`, `class_offsets`) — the byte-exact
    /// representation determinism tests compare across thread counts.
    pub fn raw_csr(&self) -> (&[u32], &[u32]) {
        (&self.rows, &self.class_offsets)
    }

    /// Number of rows in the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Grows the underlying relation to `n_rows` rows, treating every
    /// appended row as a singleton. For a *stripped* partition singletons are
    /// not stored, so this only bumps the row count — it is the O(1) append
    /// for partitions the incremental engine has proven untouched by a batch.
    pub fn extend_rows(&mut self, n_rows: usize) {
        debug_assert!(n_rows >= self.n_rows, "relations only grow");
        self.n_rows = n_rows;
    }

    /// Removes the rows `deleted` flags (`deleted[row]` true ⟺ delete
    /// `row`) from every class, compacting the CSR buffers in place and
    /// dropping classes that fall below 2 members. This is the **delete**
    /// counterpart of [`StrippedPartition::append_codes`], and it is exact
    /// for *any* partition, not just level-1 ones:
    /// `Π*_X(r ∖ D) = strip(Π*_X(r) ∖ D)` — deleting tuples never merges or
    /// splits surviving classes — so the incremental engine absorbs a delete
    /// into every retained node without recomputing a single product. The
    /// mask is built once per delete and shared by every partition, so each
    /// membership probe is a single indexed read.
    ///
    /// The physical row count ([`StrippedPartition::n_rows`]) is unchanged —
    /// deleted rows become tombstones in the owning relation, they do not
    /// shift ids. O(1) reads of
    /// [`covered_rows`](StrippedPartition::covered_rows) /
    /// [`error`](StrippedPartition::error) stay exact because compaction
    /// shrinks the flat row buffer itself.
    ///
    /// Returns whether the delete touched a class: `false` means every
    /// deleted row was a singleton under `X`, so the partition is unchanged
    /// and no verdict evaluated against it can have changed.
    ///
    /// One block-wise scan finds the deleted rows' positions in the row
    /// buffer, and a binary search on the class offsets finds their
    /// classes. Only those classes are rewritten: each run of untouched
    /// classes between them moves with one `copy_within` and one shift of
    /// its offsets.
    ///
    /// ```
    /// use fastod_partition::StrippedPartition;
    ///
    /// // Classes {0..=7} and {8, 9} over 10 rows, 10 a singleton.
    /// let mut p = StrippedPartition::from_codes(&[0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2], 3);
    /// let mut deleted = vec![false; 11];
    /// deleted[9] = true;
    /// // Deleting one of {8, 9} shrinks the class below 2: it is dropped.
    /// assert!(p.remove_rows_masked(&deleted));
    /// assert_eq!(p.normalized(), vec![vec![0, 1, 2, 3, 4, 5, 6, 7]]);
    /// // Deleting a singleton touches no class.
    /// let mut deleted = vec![false; 11];
    /// deleted[10] = true;
    /// assert!(!p.remove_rows_masked(&deleted));
    /// assert_eq!(p.normalized(), vec![vec![0, 1, 2, 3, 4, 5, 6, 7]]);
    /// ```
    pub fn remove_rows_masked(&mut self, deleted: &[bool]) -> bool {
        debug_assert_eq!(deleted.len(), self.n_rows);
        let hits = self.deleted_positions(deleted);
        if hits.is_empty() {
            return false;
        }
        // The touched classes, ascending. Positions ascend, so each search
        // starts at the last class.
        let mut hit_classes: Vec<usize> = Vec::new();
        let mut ci = 0usize;
        for &pos in &hits {
            ci += self.class_offsets[ci + 1..].partition_point(|&end| end <= pos);
            if hit_classes.last() != Some(&ci) {
                hit_classes.push(ci);
            }
        }
        // Compact in place. The write cursors trail the read window, so a
        // class's rows and end offset are intact until it is read; its
        // start offset may not be, so `read` carries it.
        let mut cursor = Compaction { read: 0, write: 0, out_classes: 0 };
        // First class of the pending untouched run.
        let mut run_from = 0usize;
        for &ci in &hit_classes {
            self.move_class_run(run_from..ci, &mut cursor);
            run_from = ci + 1;
            let (lo, hi) = (cursor.read, self.class_offsets[ci + 1] as usize);
            cursor.read = hi;
            let start = cursor.write;
            let mut write = start;
            for i in lo..hi {
                let row = self.rows[i];
                if !deleted[row as usize] {
                    self.rows[write] = row;
                    write += 1;
                }
            }
            if write - start >= 2 {
                cursor.out_classes += 1;
                self.class_offsets[cursor.out_classes] = write as u32;
                cursor.write = write;
            }
        }
        self.move_class_run(run_from..self.n_classes(), &mut cursor);
        self.rows.truncate(cursor.write);
        self.class_offsets.truncate(cursor.out_classes + 1);
        true
    }

    /// Positions in the row buffer of the rows `deleted` flags, ascending.
    /// Blocks without a deleted row, almost all of them for small deletes,
    /// cost one branch-free pass.
    fn deleted_positions(&self, deleted: &[bool]) -> Vec<u32> {
        const BLOCK: usize = 64;
        let mut hits = Vec::new();
        for (b, block) in self.rows.chunks(BLOCK).enumerate() {
            if !block.iter().fold(false, |any, &row| any | deleted[row as usize]) {
                continue;
            }
            let base = b * BLOCK;
            for (i, &row) in block.iter().enumerate() {
                if deleted[row as usize] {
                    hits.push((base + i) as u32);
                }
            }
        }
        hits
    }

    /// Moves the classes `classes`, which a compaction keeps unchanged, to
    /// `at.write`: one `copy_within` for their rows, then their end offsets
    /// shifted into the output slots after `at.out_classes`. Offsets of
    /// classes not yet read must be intact, except the first one's start,
    /// which `at.read` carries.
    fn move_class_run(&mut self, classes: std::ops::Range<usize>, at: &mut Compaction) {
        if classes.is_empty() {
            return;
        }
        let (lo, hi) = (at.read, self.class_offsets[classes.end] as usize);
        if at.write != lo {
            self.rows.copy_within(lo..hi, at.write);
        }
        let shift = (lo - at.write) as u32;
        for ci in classes {
            at.out_classes += 1;
            self.class_offsets[at.out_classes] = self.class_offsets[ci + 1] - shift;
        }
        at.read = hi;
        at.write += hi - lo;
    }

    /// Merges appended rows into the partition of a single code column
    /// (the incremental counterpart of [`StrippedPartition::from_codes`]).
    ///
    /// `codes` is the **full** code column after the append — possibly
    /// remapped by dictionary growth, which preserves equality classes and
    /// therefore leaves the stored row-id classes valid — and rows
    /// `self.n_rows()..codes.len()` are the new ones. Each new row joins the
    /// class of its code, resurrecting old singletons into fresh classes when
    /// they gain their first partner. The CSR buffers are rebuilt in one
    /// sequential write (joining rows land at their class's tail, keeping
    /// classes in ascending row-id order).
    ///
    /// Returns whether some appended row joined (or formed) a class: `false`
    /// means every new row is a singleton, so the partition is structurally
    /// unchanged and no dependency with this context can have been broken.
    /// The incremental engine tracks dirty lattice nodes by this bit.
    ///
    /// Cost: O(cardinality + covered rows + Δ), plus one O(old rows) scan
    /// only when some new row's code belongs to an old singleton or unseen
    /// code.
    pub fn append_codes(&mut self, codes: &[u32], cardinality: u32) -> bool {
        self.append_codes_impl(codes, cardinality, None)
    }

    /// [`StrippedPartition::append_codes`] for a relation with tombstones:
    /// `live` masks the **old** region `0..self.n_rows()`, and dead rows are
    /// invisible — in particular a dead old singleton must *not* be
    /// resurrected into a class when an appended row reuses its code. The
    /// appended rows (`self.n_rows()..codes.len()`) are always live, since a
    /// delete can only target rows that existed before the append, and
    /// `live` must already span the full new length.
    pub fn append_codes_masked(&mut self, codes: &[u32], cardinality: u32, live: &[bool]) -> bool {
        debug_assert_eq!(codes.len(), live.len());
        debug_assert!(live[self.n_rows..].iter().all(|&l| l), "appended rows must be live");
        self.append_codes_impl(codes, cardinality, Some(live))
    }

    fn append_codes_impl(
        &mut self,
        codes: &[u32],
        cardinality: u32,
        live: Option<&[bool]>,
    ) -> bool {
        let old_n = self.n_rows;
        let new_n = codes.len();
        debug_assert!(new_n >= old_n, "code column shrank");
        let card = cardinality as usize;
        debug_assert!(codes.iter().all(|&c| (c as usize) < card.max(1)));
        if new_n == old_n {
            return false;
        }
        let k = self.n_classes();

        // Directory: code → class index, from each class's representative.
        // Indices ≥ k are orphan groups (codes with no current class).
        let mut class_idx: Vec<u32> = vec![u32::MAX; card];
        for ci in 0..k {
            let rep = self.rows[self.class_offsets[ci] as usize];
            class_idx[codes[rep as usize] as usize] = ci as u32;
        }

        // First pass over the new rows: joiners counted per class, orphans
        // bucketed by code (flat `(group, row)` pairs — no per-class Vecs).
        let mut extra: Vec<u32> = vec![0; k];
        let mut joiners = 0usize;
        let mut orphans: Vec<(u32, u32)> = Vec::new();
        let mut n_groups = 0u32;
        for (row, &code_u32) in codes.iter().enumerate().skip(old_n) {
            let code = code_u32 as usize;
            let ci = class_idx[code];
            if ci != u32::MAX && (ci as usize) < k {
                extra[ci as usize] += 1;
                joiners += 1;
            } else {
                if ci == u32::MAX {
                    class_idx[code] = k as u32 + n_groups;
                    n_groups += 1;
                }
                orphans.push((class_idx[code] - k as u32, row as u32));
            }
        }

        // Orphan codes may have exactly one old occurrence (an old singleton,
        // stripped away): find those with a single scan of the old region.
        let mut old_partner: Vec<u32> = vec![u32::MAX; n_groups as usize];
        if n_groups > 0 {
            for row in 0..old_n {
                if live.is_some_and(|l| !l[row]) {
                    // Tombstoned rows cannot partner an appended orphan.
                    continue;
                }
                let ci = class_idx[codes[row] as usize];
                if ci != u32::MAX && (ci as usize) >= k {
                    let oi = (ci as usize) - k;
                    // ≥2 old occurrences would already form a class.
                    debug_assert_eq!(old_partner[oi], u32::MAX, "stripped invariant broken");
                    old_partner[oi] = row as u32;
                }
            }
        }
        let mut group_size: Vec<u32> = vec![0; n_groups as usize];
        for &(oi, _) in &orphans {
            group_size[oi as usize] += 1;
        }
        for (oi, size) in group_size.iter_mut().enumerate() {
            if old_partner[oi] != u32::MAX {
                *size += 1;
            }
        }

        // Rebuild the CSR buffers: old classes (plus their joiners at the
        // tail), then surviving orphan groups in first-encounter order.
        let surviving: u32 = group_size.iter().filter(|&&s| s >= 2).sum();
        let grown = self.rows.len() + joiners + surviving as usize;
        let mut rows = vec![0u32; grown];
        let mut class_offsets =
            Vec::with_capacity(k + 1 + group_size.iter().filter(|&&s| s >= 2).count());
        class_offsets.push(0u32);
        // Per-class write cursors for the grown old classes.
        let mut cursor: Vec<u32> = Vec::with_capacity(k);
        let mut end = 0u32;
        for (w, &extra_ci) in self.class_offsets.windows(2).zip(&extra) {
            let old_size = w[1] - w[0];
            let lo = w[0] as usize;
            rows[end as usize..(end + old_size) as usize]
                .copy_from_slice(&self.rows[lo..lo + old_size as usize]);
            cursor.push(end + old_size);
            end += old_size + extra_ci;
            class_offsets.push(end);
        }
        for (row, &code_u32) in codes.iter().enumerate().skip(old_n) {
            let ci = class_idx[code_u32 as usize];
            if (ci as usize) < k {
                rows[cursor[ci as usize] as usize] = row as u32;
                cursor[ci as usize] += 1;
            }
        }
        // Orphan groups: partner (if any) first, then the group's new rows
        // in append order; lone orphans stay singletons and are dropped.
        let mut group_cursor: Vec<u32> = vec![u32::MAX; n_groups as usize];
        for oi in 0..n_groups as usize {
            if group_size[oi] >= 2 {
                group_cursor[oi] = end;
                if old_partner[oi] != u32::MAX {
                    rows[end as usize] = old_partner[oi];
                    group_cursor[oi] = end + 1;
                }
                end += group_size[oi];
                class_offsets.push(end);
            }
        }
        for &(oi, row) in &orphans {
            let cur = group_cursor[oi as usize];
            if cur != u32::MAX {
                rows[cur as usize] = row;
                group_cursor[oi as usize] = cur + 1;
            }
        }
        debug_assert_eq!(end as usize, grown);
        self.rows = rows;
        self.class_offsets = class_offsets;
        self.n_rows = new_n;
        // A surviving orphan group holds at least one appended row.
        joiners > 0 || surviving > 0
    }

    /// Merges appended rows into the retained partition of a lattice node
    /// of level ≥ 2: the counterpart of [`StrippedPartition::append_codes`]
    /// for partitions built as products.
    ///
    /// `self` is `Π*_X` over the old rows `0..self.n_rows()`. `parent` is
    /// `Π*_{X∖{a}}` over the grown relation, already updated for the same
    /// append (and for any tombstones), and `codes` is the full code column
    /// of `a`. Appends never split or merge old classes, and every class of
    /// `X` lies inside one class of the parent, so only parent classes that
    /// gained an appended row can change. The kernel
    ///
    /// 1. stamps the rows of every parent class holding an appended row;
    /// 2. keeps, compacting in place, every retained class whose first row
    ///    is unstamped;
    /// 3. re-splits each stamped parent class by `a`'s codes and appends
    ///    the groups of ≥ 2 rows after the kept classes.
    ///
    /// Rows must be ascending inside every class of `parent`, so that a
    /// class holds an appended row iff its last row does; the result keeps
    /// rows ascending too. Kept classes come first, in retained order, so
    /// the class order differs from a fresh product's. When every parent
    /// class is stamped, the result is byte-identical to
    /// `other.product(parent)` for any other parent `other = Π*_{X∖{b}}`,
    /// `b ≠ a`: inside a parent class both group the rows by `a`, in
    /// first-encounter order.
    ///
    /// Cost: O(classes of both partitions + rows of the stamped parent
    /// classes), plus moving kept classes over dropped ones. Returns
    /// whether some appended row is now covered by a class, as
    /// [`append_codes`](StrippedPartition::append_codes) does.
    ///
    /// ```
    /// use fastod_partition::{ProductScratch, StrippedPartition};
    ///
    /// // X = {g, a} over 4 old rows; the parent Π*_{g} after 2 appends.
    /// let g = [0, 0, 1, 1, 0, 2];
    /// let a = [5, 6, 7, 7, 6, 5];
    /// let pg_old = StrippedPartition::from_codes(&g[..4], 3);
    /// let pa_old = StrippedPartition::from_codes(&a[..4], 8);
    /// let mut pga = pa_old.product_simple(&pg_old);
    /// assert_eq!(pga.normalized(), vec![vec![2, 3]]);
    /// let pg = StrippedPartition::from_codes(&g, 3);
    /// let dirty = pga.absorb_append(&pg, &a, 8, &mut ProductScratch::new());
    /// // Row 4 joins row 1 under (g, a) = (0, 6); row 5 stays a singleton.
    /// assert_eq!(pga.normalized(), vec![vec![1, 4], vec![2, 3]]);
    /// assert!(dirty);
    /// ```
    pub fn absorb_append(
        &mut self,
        parent: &StrippedPartition,
        codes: &[u32],
        cardinality: u32,
        scratch: &mut ProductScratch,
    ) -> bool {
        let old_n = self.n_rows;
        let new_n = parent.n_rows;
        debug_assert!(new_n >= old_n, "relations only grow");
        debug_assert_eq!(codes.len(), new_n);
        self.n_rows = new_n;
        if new_n == old_n {
            return false;
        }
        let gained = |class: &&[u32]| class.last().is_some_and(|&row| row as usize >= old_n);
        let epoch = scratch.begin(new_n, cardinality as usize);
        let slots = &mut scratch.slots;
        let tag = u64::from(epoch) << 32;
        for class in parent.classes().iter().filter(gained) {
            debug_assert!(class.is_sorted(), "parent classes must keep rows ascending");
            for &row in class {
                slots[row as usize] = tag;
            }
        }

        // Keep the unstamped classes. Every row of a retained class shares
        // one parent class, so its first row decides. Each run of kept
        // classes moves at once, as in `remove_rows_masked`.
        let mut cursor = Compaction { read: 0, write: 0, out_classes: 0 };
        let mut run_from = 0usize;
        for ci in 0..self.n_classes() {
            let first = self.rows[self.class_offsets[ci] as usize];
            if slot_class(slots[first as usize], epoch).is_some() {
                self.move_class_run(run_from..ci, &mut cursor);
                cursor.read = self.class_offsets[ci + 1] as usize;
                run_from = ci + 1;
            }
        }
        self.move_class_run(run_from..self.n_classes(), &mut cursor);
        let write = cursor.write;
        self.rows.truncate(write);
        self.class_offsets.truncate(cursor.out_classes + 1);

        // Re-split the stamped parent classes by `a`'s codes, as
        // `refine` splits every class, behind the kept classes.
        let split = &mut scratch.split;
        split.split_by_codes(parent.classes().iter().filter(gained), codes, write as u32);
        // Grow the retained buffers to the exact size, so a retained
        // partition keeps no slack between passes.
        self.rows.reserve_exact(split.rows.len());
        self.rows.extend_from_slice(&split.rows);
        self.class_offsets.reserve_exact(split.offsets.len());
        self.class_offsets.extend_from_slice(&split.offsets);
        split.rows.iter().any(|&row| row as usize >= old_n)
    }

    /// The non-singleton equivalence classes as a CSR view.
    #[inline]
    pub fn classes(&self) -> Classes<'_> {
        Classes {
            rows: &self.rows,
            offsets: &self.class_offsets,
        }
    }

    /// The `i`-th class as a contiguous row-id slice.
    #[inline]
    pub fn class(&self, i: usize) -> &[u32] {
        self.classes().get(i)
    }

    /// Number of non-singleton classes, `|Π*_X|`.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.class_offsets.len() - 1
    }

    /// Total number of rows covered by non-singleton classes, `||Π*_X||`.
    /// O(1) — it is the length of the flat row buffer.
    #[inline]
    pub fn covered_rows(&self) -> usize {
        self.rows.len()
    }

    /// TANE's error measure `e(X) = ||Π*_X|| − |Π*_X|`: the number of rows
    /// that would have to be removed to make `X` a superkey. Two partitions
    /// `Π_X`, `Π_{XA}` have equal error iff the FD `X → A` holds. O(1) in
    /// the CSR layout.
    #[inline]
    pub fn error(&self) -> usize {
        self.rows.len() - self.n_classes()
    }

    /// Whether `X` is a superkey: every equivalence class is a singleton,
    /// i.e. the stripped partition is empty (`Π*_X = {}`, §4.6 Key Pruning).
    #[inline]
    pub fn is_superkey(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resident heap bytes of the CSR buffers (`rows` + `class_offsets`).
    /// Uses the buffers' **capacity**, not their logical length — after
    /// deletions truncate a partition in place, the allocation can exceed
    /// the live row count.
    pub fn memory_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u32>()
            + self.class_offsets.capacity() * std::mem::size_of::<u32>()
    }

    /// A copy in buffers freshly allocated on the calling thread, with the
    /// same capacities, so [`memory_bytes`](StrippedPartition::memory_bytes)
    /// is unchanged (a `clone` would shrink them to the lengths). A caller
    /// that retains partitions built on other threads moves them into its
    /// own thread's heap with this.
    pub fn reallocated(&self) -> StrippedPartition {
        let copy = |buf: &Vec<u32>| {
            let mut fresh = Vec::with_capacity(buf.capacity());
            fresh.extend_from_slice(buf);
            fresh
        };
        StrippedPartition::from_csr(self.n_rows, copy(&self.rows), copy(&self.class_offsets))
    }

    /// `Π*_{X ∪ {A}}` from `self = Π*_X` and `A`'s code column: every class
    /// of `self` split by `codes[row]`, keeping the groups of ≥ 2 rows.
    /// The groups come in `self`'s class order, each class's groups in
    /// first-encounter order, and each group keeps its class's row order.
    ///
    /// This is how the FASTOD lattice builds every child it does not
    /// share with a parent: it refines the parent `X ∖ {A}` that covers
    /// the fewest rows by `A`. For two parents `Y` and `Z` that differ in
    /// one attribute each, inside a class of `Z`, two rows
    /// share a class of `Y` iff they share that attribute's code, and a row
    /// that is a singleton under `Y` shares its code with no other row of
    /// the class. So `Z.refine(Y ∖ Z)` is byte-identical to the
    /// [`product`](StrippedPartition::product) that probes `Y` and splits
    /// `Z`, without the probe pass over `Y`.
    ///
    /// Cost: one key read per covered row of `self`, plus O(cardinality)
    /// the first time the scratch's key arrays grow to it. The scratch's
    /// row slots are not used; an empty `self` touches no scratch at all.
    /// The result is an exact-size copy of the scratch's output buffers.
    ///
    /// ```
    /// use fastod_partition::{ProductScratch, StrippedPartition};
    ///
    /// // Π*_A = {{0,1,2,3}}, refined by B = [0, 0, 1, 1, 1].
    /// let pa = StrippedPartition::from_codes(&[0, 0, 0, 0, 1], 2);
    /// let b = [0, 0, 1, 1, 1];
    /// let pab = pa.refine(&b, 2, &mut ProductScratch::new());
    /// assert_eq!(pab.normalized(), vec![vec![0, 1], vec![2, 3]]);
    /// // The same bytes as the product that splits Π*_A.
    /// let pb = StrippedPartition::from_codes(&b, 2);
    /// assert_eq!(pab.raw_csr(), pb.product_simple(&pa).raw_csr());
    /// ```
    pub fn refine(
        &self,
        codes: &[u32],
        cardinality: u32,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        debug_assert_eq!(codes.len(), self.n_rows);
        if self.is_superkey() {
            return StrippedPartition::from_csr(self.n_rows, Vec::new(), vec![0]);
        }
        let split = &mut scratch.split;
        split.reset(cardinality as usize);
        split.offsets.push(0);
        split.split_by_codes(self.classes().iter(), codes, 0);
        StrippedPartition::from_csr(self.n_rows, split.rows.clone(), split.offsets.clone())
    }

    /// Computes the product `Π*_X = Π*_Y · Π*_Z` of any two partitions in
    /// O(n) using scratch space (paper §4.6: "partitions are computed in
    /// linear time as products of partitions"). The FASTOD lattice builds
    /// its children with [`refine`](StrippedPartition::refine) instead,
    /// since its parents differ in one attribute; the product remains the
    /// general kernel for the TANE baseline, tests and benches.
    ///
    /// A row lands in a product class iff it is in a non-singleton class of
    /// *both* operands and shares both class memberships with another row.
    /// The probe pass writes the surviving rows directly into the scratch
    /// arena's flat CSR output buffers — no per-class allocation ever — and
    /// the result is an exact-size copy of those buffers.
    ///
    /// `self` is probed (one slot write per covered row) and `other` is
    /// split (a slot read and a key comparison per covered row), so the
    /// product is cheapest with the operand that covers fewer rows as
    /// `other`; the result is the same partition either way, with its
    /// classes in `other`'s order.
    ///
    /// ```
    /// use fastod_partition::{ProductScratch, StrippedPartition};
    ///
    /// // Π*_A = {{0,1,2,3}}, Π*_B = {{0,1},{2,3,4}} over 5 rows.
    /// let pa = StrippedPartition::from_codes(&[0, 0, 0, 0, 1], 2);
    /// let pb = StrippedPartition::from_codes(&[0, 0, 1, 1, 1], 2);
    /// let mut scratch = ProductScratch::new();
    /// let pab = pa.product(&pb, &mut scratch);
    /// // Rows agreeing on BOTH A and B: {0,1} and {2,3} (4 is singleton in A).
    /// assert_eq!(pab.normalized(), vec![vec![0, 1], vec![2, 3]]);
    /// ```
    pub fn product(
        &self,
        other: &StrippedPartition,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        debug_assert_eq!(self.n_rows, other.n_rows);
        let epoch = scratch.begin(self.n_rows, self.n_classes());
        let slots = &mut scratch.slots;
        let tag = u64::from(epoch) << 32;
        for (ci, class) in self.classes().iter().enumerate() {
            let slot = tag | ci as u64;
            for &row in class {
                slots[row as usize] = slot;
            }
        }
        // Split every rhs class by LHS class: the groups of ≥ 2 rows are the
        // product classes, in first-encounter order with the rhs class's
        // (ascending) row order. Rows in no LHS class are skipped.
        let split = &mut scratch.split;
        split.offsets.push(0);
        for rhs_class in other.classes().iter() {
            split.split(rhs_class, |row| slot_class(slots[row as usize], epoch), 0);
        }
        StrippedPartition::from_csr(self.n_rows, split.rows.clone(), split.offsets.clone())
    }

    /// Product with a freshly allocated scratch (convenience for tests and
    /// one-off callers; hot paths should reuse a [`ProductScratch`]).
    pub fn product_simple(&self, other: &StrippedPartition) -> StrippedPartition {
        let mut scratch = ProductScratch::new();
        self.product(other, &mut scratch)
    }

    /// A canonical form for structural comparison: classes sorted internally
    /// and between each other.
    pub fn normalized(&self) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = self.classes().iter().map(<[u32]>::to_vec).collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        classes
    }
}

impl PartialEq for StrippedPartition {
    /// Structural equality (independent of class/row ordering).
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows && self.normalized() == other.normalized()
    }
}

impl Eq for StrippedPartition {}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(n: usize, classes: &[&[u32]]) -> StrippedPartition {
        StrippedPartition::from_classes(n, classes.iter().map(|c| c.to_vec()).collect())
    }

    #[test]
    fn unit_partition() {
        let p = StrippedPartition::unit(4);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.covered_rows(), 4);
        assert_eq!(p.error(), 3);
        assert!(!p.is_superkey());
        assert!(StrippedPartition::unit(1).is_superkey());
        assert!(StrippedPartition::unit(0).is_superkey());
    }

    #[test]
    fn classes_view_accessors() {
        let p = part(6, &[&[0, 1, 2], &[4, 5]]);
        let view = p.classes();
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.get(0), &[0, 1, 2]);
        assert_eq!(view.get(1), &[4, 5]);
        assert_eq!(p.class(1), &[4, 5]);
        assert_eq!(view.covered_rows(), 5);
        let collected: Vec<&[u32]> = view.into_iter().collect();
        assert_eq!(collected, vec![&[0u32, 1, 2][..], &[4, 5][..]]);
        assert_eq!(view.iter().count(), 2);
        assert!(p.memory_bytes() >= (5 + 3) * 4);
    }

    #[test]
    fn from_codes_strips_singletons() {
        // Paper Example 12: Π_salary = {{t1},{t2,t6},{t3},{t4},{t5}}
        // → Π*_salary = {{t2,t6}} (0-indexed: {1,5}).
        let codes = vec![2, 4, 5, 0, 1, 4];
        let p = StrippedPartition::from_codes(&codes, 6);
        assert_eq!(p.normalized(), vec![vec![1, 5]]);
        assert_eq!(p.error(), 1);
    }

    #[test]
    fn from_codes_all_equal() {
        let p = StrippedPartition::from_codes(&[0, 0, 0], 1);
        assert_eq!(p.normalized(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn from_codes_all_distinct_is_superkey() {
        let p = StrippedPartition::from_codes(&[2, 0, 1], 3);
        assert!(p.is_superkey());
        assert_eq!(p.error(), 0);
    }

    #[test]
    fn product_matches_manual() {
        // X groups {0,1,2,3} | {4,5};  Y groups {0,1} | {2,3,4,5}
        let x = part(6, &[&[0, 1, 2, 3], &[4, 5]]);
        let y = part(6, &[&[0, 1], &[2, 3, 4, 5]]);
        let xy = x.product_simple(&y);
        assert_eq!(xy.normalized(), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    /// The exact bytes of a product whose split operand has classes of 2,
    /// 3 and 5 rows, some with rows that are singletons in the probed one:
    /// groups come in first-encounter order, and rows absent from the
    /// probed operand never pair with each other.
    #[test]
    fn product_bytes_over_small_classes() {
        let probed = part(
            30,
            &[
                &[0, 1, 5, 8, 9, 13, 27, 28],
                &[2, 3, 6, 10, 11, 24, 25, 26],
                &[4, 7, 12, 14, 29],
            ],
        );
        // Rows 15..=23 are singletons in `probed`.
        let split = part(
            30,
            &[
                &[0, 1],             // one class: [0, 1]
                &[2, 4],             // two classes: none
                &[15, 16],           // both absent: none
                &[3, 5, 6],          // first and last: [3, 6]
                &[9, 10, 11],        // last two: [10, 11]
                &[17, 18, 19],       // all absent: none
                &[7, 8, 13, 14, 20], // [7, 14] first encountered, then [8, 13]
                &[12, 21],           // one absent: none
                &[24, 25, 26],       // all three
                &[27, 28, 29],       // first two: [27, 28]
            ],
        );
        let rows: &[u32] = &[0, 1, 3, 6, 10, 11, 7, 14, 8, 13, 24, 25, 26, 27, 28];
        let offsets: &[u32] = &[0, 2, 4, 6, 8, 10, 13, 15];
        let mut scratch = ProductScratch::new();
        for _ in 0..2 {
            assert_eq!(
                probed.product(&split, &mut scratch).raw_csr(),
                (rows, offsets)
            );
        }
    }

    #[test]
    fn product_drops_new_singletons() {
        let x = part(4, &[&[0, 1, 2]]);
        let y = part(4, &[&[1, 2], &[0, 3]]);
        // Row 0 is alone in its product class; row 3 is singleton in x.
        let xy = x.product_simple(&y);
        assert_eq!(xy.normalized(), vec![vec![1, 2]]);
    }

    #[test]
    fn product_with_unit_is_identity() {
        let x = part(5, &[&[0, 2, 4]]);
        let u = StrippedPartition::unit(5);
        assert_eq!(x.product_simple(&u), x);
        assert_eq!(u.product_simple(&x), x);
    }

    #[test]
    fn product_is_commutative() {
        let x = part(6, &[&[0, 1, 2], &[3, 4]]);
        let y = part(6, &[&[1, 2, 3], &[4, 5]]);
        assert_eq!(x.product_simple(&y), y.product_simple(&x));
    }

    #[test]
    fn product_against_codes_equivalent() {
        // Π_A · Π_B must equal the partition of the combined key (A,B).
        let codes_a = vec![0, 0, 1, 1, 0, 1, 0];
        let codes_b = vec![0, 1, 0, 0, 0, 0, 1];
        let pa = StrippedPartition::from_codes(&codes_a, 2);
        let pb = StrippedPartition::from_codes(&codes_b, 2);
        let combined: Vec<u32> = codes_a
            .iter()
            .zip(&codes_b)
            .map(|(&a, &b)| a * 2 + b)
            .collect();
        let pab = StrippedPartition::from_codes(&combined, 4);
        assert_eq!(pa.product_simple(&pb), pab);
    }

    #[test]
    fn product_classes_stay_row_sorted() {
        // The incremental engine's O(#classes) dirtiness probe requires every
        // class of every product to keep ascending row ids.
        let x = part(8, &[&[0, 2, 4, 6], &[1, 3, 5, 7]]);
        let y = part(8, &[&[0, 1, 2, 3, 4, 5, 6, 7]]);
        let xy = x.product_simple(&y);
        for class in xy.classes() {
            assert!(class.is_sorted(), "{class:?}");
        }
    }

    #[test]
    fn error_detects_fd() {
        // A = [0,0,1,1], B = [5,5,7,8]: A→B fails (split on class {2,3}).
        let pa = StrippedPartition::from_codes(&[0, 0, 1, 1], 2);
        let pab = pa.product_simple(&StrippedPartition::from_codes(&[0, 0, 1, 2], 3));
        assert_ne!(pa.error(), pab.error());
        // A = [0,0,1,1], C = [3,3,9,9]: A→C holds.
        let pac = pa.product_simple(&StrippedPartition::from_codes(&[0, 0, 1, 1], 2));
        assert_eq!(pa.error(), pac.error());
    }

    /// Appending incrementally must agree with rebuilding from scratch.
    fn check_append(old_codes: &[u32], new_codes: &[u32]) {
        let full: Vec<u32> = old_codes.iter().chain(new_codes).copied().collect();
        let card = full.iter().max().map_or(0, |&m| m + 1);
        let mut incr = StrippedPartition::from_codes(old_codes, card);
        let dirty = incr.append_codes(&full, card);
        let fresh = StrippedPartition::from_codes(&full, card);
        assert_eq!(incr, fresh, "old={old_codes:?} new={new_codes:?}");
        // The CSR invariant survives the append: classes in row order.
        for class in incr.classes() {
            assert!(class.is_sorted(), "append broke row order: {class:?}");
        }
        // Dirty iff some appended row is covered now.
        let covered = fresh
            .classes()
            .iter()
            .flatten()
            .any(|&r| (r as usize) >= old_codes.len());
        assert_eq!(dirty, covered, "old={old_codes:?} new={new_codes:?}");
    }

    #[test]
    fn append_codes_matches_rebuild() {
        // New row joins an existing class.
        check_append(&[0, 0, 1], &[0]);
        // New row resurrects an old singleton.
        check_append(&[0, 0, 1], &[1]);
        // Two new rows form a class of their own (code unseen before).
        check_append(&[0, 0, 1], &[2, 2]);
        // Lone new row with an unseen code stays a singleton.
        check_append(&[0, 0, 1], &[3]);
        // Mixed batch hitting every case at once.
        check_append(&[0, 0, 1, 2, 2], &[1, 3, 3, 0, 4]);
        // Append onto an empty relation.
        check_append(&[], &[1, 0, 1]);
        // Empty batch.
        check_append(&[0, 0, 1], &[]);
    }

    #[test]
    fn append_codes_delta_dirtiness() {
        let mut p = StrippedPartition::from_codes(&[0, 0, 1], 4);
        // Singleton-only batch: clean.
        assert!(!p.append_codes(&[0, 0, 1, 2, 3], 4));
        // Batch joining the {0,0} class: dirty.
        assert!(p.append_codes(&[0, 0, 1, 2, 3, 0], 4));
        assert_eq!(p.normalized(), vec![vec![0, 1, 5]]);
    }
    #[test]
    fn append_codes_randomized_against_rebuild() {
        // xorshift sweep over random splits, codes and cardinalities.
        let mut seed = 0xA076_1D64_78BD_642Fu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..300 {
            let n_old = (next() % 12) as usize;
            let n_new = (next() % 8) as usize;
            let card = 1 + (next() % 5) as u32;
            let old: Vec<u32> = (0..n_old).map(|_| (next() % u64::from(card)) as u32).collect();
            let new: Vec<u32> = (0..n_new).map(|_| (next() % u64::from(card)) as u32).collect();
            check_append(&old, &new);
        }
    }

    #[test]
    fn extend_rows_keeps_classes() {
        let mut p = part(4, &[&[0, 1], &[2, 3]]);
        p.extend_rows(7);
        assert_eq!(p.n_rows(), 7);
        assert_eq!(p.n_classes(), 2);
        // Appended singletons do not change the product behaviour.
        let u = StrippedPartition::unit(7);
        assert_eq!(p.product_simple(&u), p);
    }

    /// The deletion mask over `n` rows that flags `deleted`.
    fn mask(n: usize, deleted: &[u32]) -> Vec<bool> {
        let mut mask = vec![false; n];
        for &row in deleted {
            mask[row as usize] = true;
        }
        mask
    }

    /// Removing rows incrementally must agree with rebuilding the partition
    /// from the surviving (masked) codes.
    fn check_remove(codes: &[u32], deleted: &[u32]) {
        let card = codes.iter().max().map_or(0, |&m| m + 1);
        let mut incr = StrippedPartition::from_codes(codes, card);
        let before = incr.clone();
        let deleted = mask(codes.len(), deleted);
        let touched = incr.remove_rows_masked(&deleted);
        let live: Vec<bool> = deleted.iter().map(|&d| !d).collect();
        let fresh = StrippedPartition::from_codes_masked(codes, card, &live);
        assert_eq!(incr, fresh, "codes={codes:?} deleted={deleted:?}");
        assert_eq!(incr.n_rows(), codes.len(), "physical slots must not shrink");
        for class in incr.classes() {
            assert!(class.is_sorted(), "removal broke row order: {class:?}");
        }
        // Touched iff some class lost a member.
        let lost = before.classes().iter().flatten().any(|&row| deleted[row as usize]);
        assert_eq!(touched, lost, "codes={codes:?} deleted={deleted:?}");
    }

    #[test]
    fn remove_rows_matches_masked_rebuild() {
        // Shrink a class, keep it ≥ 2.
        check_remove(&[0, 0, 0, 1, 1], &[1]);
        // Shrink a class below 2: dropped.
        check_remove(&[0, 0, 1, 1], &[0]);
        // Delete an entire class.
        check_remove(&[0, 0, 1, 1], &[2, 3]);
        // Deleted singletons touch nothing.
        check_remove(&[0, 0, 1, 2], &[2, 3]);
        // Everything deleted.
        check_remove(&[0, 0, 0], &[0, 1, 2]);
        // Nothing deleted.
        check_remove(&[0, 0, 1], &[]);
    }

    #[test]
    fn remove_rows_randomized_against_masked_rebuild() {
        let mut seed = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..300 {
            let n = (next() % 16) as usize;
            let card = 1 + (next() % 5) as u32;
            let codes: Vec<u32> = (0..n).map(|_| (next() % u64::from(card)) as u32).collect();
            let mut deleted: Vec<u32> =
                (0..n as u32).filter(|_| next() % 3 == 0).collect();
            deleted.dedup();
            check_remove(&codes, &deleted);
        }
    }

    #[test]
    fn masked_builders_match_unmasked_on_all_live() {
        let codes = vec![2, 0, 2, 1, 0];
        let live = vec![true; 5];
        assert_eq!(
            StrippedPartition::from_codes_masked(&codes, 3, &live),
            StrippedPartition::from_codes(&codes, 3)
        );
        assert_eq!(StrippedPartition::unit_masked(&live), StrippedPartition::unit(5));
    }

    #[test]
    fn unit_masked_keeps_live_rows_only() {
        let live = vec![true, false, true, true, false];
        let u = StrippedPartition::unit_masked(&live);
        assert_eq!(u.n_rows(), 5);
        assert_eq!(u.normalized(), vec![vec![0, 2, 3]]);
        // One live row: no pairs, empty partition.
        let lonely = StrippedPartition::unit_masked(&[false, true, false]);
        assert!(lonely.is_superkey());
        assert_eq!(lonely.n_rows(), 3);
    }

    #[test]
    fn append_codes_masked_ignores_dead_partners() {
        // Code 1 occurs once alive (row 2) and once dead (row 1). An
        // appended row with code 1 must pair with row 2 only.
        let codes_old = vec![0u32, 1, 1];
        let live = vec![true, false, true, true];
        let mut p = StrippedPartition::from_codes_masked(&codes_old, 2, &live[..3]);
        assert!(p.is_superkey(), "rows 1 (dead) and 2 do not form a class");
        let full = vec![0u32, 1, 1, 1];
        assert!(p.append_codes_masked(&full, 2, &live));
        assert_eq!(p.normalized(), vec![vec![2, 3]]);
        // A dead old singleton must not resurrect: append code 0 twice —
        // they pair with the live row 0, never with a tombstone.
        let mut q = StrippedPartition::from_codes_masked(&[0, 0], 1, &[true, false]);
        assert!(q.is_superkey());
        assert!(q.append_codes_masked(&[0, 0, 0], 1, &[true, false, true]));
        assert_eq!(q.normalized(), vec![vec![0, 2]]);
    }

    #[test]
    fn scratch_reuse_across_products() {
        let mut scratch = ProductScratch::new();
        let x = part(6, &[&[0, 1, 2], &[3, 4, 5]]);
        let y = part(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let p1 = x.product(&y, &mut scratch);
        let p2 = x.product(&y, &mut scratch);
        assert_eq!(p1, p2);
        assert_eq!(p1.normalized(), vec![vec![0, 1], vec![4, 5]]);
    }

    #[test]
    fn memory_bytes_tracks_capacity_after_truncation() {
        // One class of 8 + one of 2 over 10 rows.
        let mut p = StrippedPartition::from_codes(&[0, 0, 0, 0, 0, 0, 0, 0, 1, 1], 2);
        let before = p.memory_bytes();
        assert!(before >= (10 + 3) * 4);
        // Removal compacts in place: logical size shrinks, the allocation
        // does not, and `memory_bytes` reports the allocation.
        assert!(p.remove_rows_masked(&mask(10, &[8, 9])));
        assert_eq!(p.covered_rows(), 8);
        assert_eq!(p.memory_bytes(), before);
        // A reallocated copy keeps the allocation's size; a clone shrinks
        // it to the lengths.
        let copy = p.reallocated();
        assert_eq!(copy.raw_csr(), p.raw_csr());
        assert_eq!(copy.n_rows(), p.n_rows());
        assert_eq!(copy.memory_bytes(), before);
        assert!(p.clone().memory_bytes() < before);
    }
}
