//! Order-preserving integer encoding of relations (paper §4.6).
//!
//! "The values of the columns are replaced with integers 1, 2, ..., n, in a
//! way that the equivalence classes do not change and the ordering is
//! preserved." Dense ranks mean single-attribute partitions and sorted
//! partitions τ_A can be built with counting sort, and all dependency checks
//! reduce to `u32` comparisons.

use crate::{AttrId, AttrSet, Relation, Schema};
use std::sync::Arc;

/// A relation with every column replaced by dense-rank `u32` codes.
///
/// Equal raw values share a code; smaller raw values get smaller codes
/// (per the type's order from §2.1). `cardinality(a)` is the number of
/// distinct values, so codes for column `a` lie in `0..cardinality(a)`.
///
/// Code columns are [`Arc`]-shared: cloning an encoded relation or
/// [projecting](EncodedRelation::project) it onto an attribute subset copies
/// pointers, not the `O(n)` column data. Mutation (the incremental grower's
/// append path) goes through `Arc::make_mut`, which only copies a column if
/// some projection still holds it.
#[derive(Clone, Debug)]
pub struct EncodedRelation {
    schema: Schema,
    codes: Vec<Arc<Vec<u32>>>,
    cardinalities: Vec<u32>,
    n_rows: usize,
}

impl EncodedRelation {
    /// Encodes a [`Relation`]. Null-bearing columns resolve null placement
    /// through the relation's [`crate::NullPolicy`] here — downstream of this
    /// point nulls are ordinary `u32` ranks and the partition/validation hot
    /// path is oblivious to them.
    pub fn from_relation(rel: &Relation) -> EncodedRelation {
        let mut codes = Vec::with_capacity(rel.n_attrs());
        let mut cardinalities = Vec::with_capacity(rel.n_attrs());
        for a in 0..rel.n_attrs() {
            let (c, card) = rel.column(a).rank_encode(rel.null_policy());
            codes.push(Arc::new(c));
            cardinalities.push(card);
        }
        EncodedRelation {
            schema: rel.schema().clone(),
            codes,
            cardinalities,
            n_rows: rel.n_rows(),
        }
    }

    /// Builds an encoded relation directly from pre-computed code columns.
    ///
    /// Caller must guarantee the dense-rank invariant (codes in
    /// `0..cardinality`); this is checked with `debug_assert`s. Mostly used
    /// by tests and generators that already produce ranks.
    pub fn from_codes(schema: Schema, codes: Vec<Vec<u32>>) -> EncodedRelation {
        assert_eq!(schema.n_attrs(), codes.len());
        let n_rows = codes.first().map_or(0, Vec::len);
        let cardinalities = codes
            .iter()
            .map(|col| {
                assert_eq!(col.len(), n_rows, "ragged code columns");
                col.iter().max().map_or(0, |&m| m + 1)
            })
            .collect();
        EncodedRelation {
            schema,
            codes: codes.into_iter().map(Arc::new).collect(),
            cardinalities,
            n_rows,
        }
    }

    /// The schema of the encoded relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.codes.len()
    }

    /// The code column for attribute `a`.
    pub fn codes(&self, a: AttrId) -> &[u32] {
        &self.codes[a]
    }

    /// The code for tuple `row`, attribute `a`.
    #[inline]
    pub fn code(&self, row: usize, a: AttrId) -> u32 {
        self.codes[a][row]
    }

    /// Distinct-value count of attribute `a`.
    pub fn cardinality(&self, a: AttrId) -> u32 {
        self.cardinalities[a]
    }

    /// Resident heap bytes of the code columns: each column's capacity in
    /// `u32`s, so `4 · n_rows · n_attrs` for exact-size columns. This is
    /// the quantity behind the `relation.peak_bytes` gauge.
    pub fn memory_bytes(&self) -> usize {
        self.codes
            .iter()
            .map(|col| col.capacity() * std::mem::size_of::<u32>())
            .sum()
    }

    /// Mutable access to one code column, for the incremental grower.
    /// Copy-on-write: the column is only duplicated when a projection or
    /// clone still shares it.
    pub(crate) fn codes_mut(&mut self, a: AttrId) -> &mut Vec<u32> {
        Arc::make_mut(&mut self.codes[a])
    }

    /// Updates one cardinality slot after dictionary growth.
    pub(crate) fn set_cardinality(&mut self, a: AttrId, card: u32) {
        self.cardinalities[a] = card;
    }

    /// Updates the row count after an append.
    pub(crate) fn set_n_rows(&mut self, n: usize) {
        self.n_rows = n;
    }

    /// Whether attribute `a` is constant over the whole relation
    /// (`{}: [] ↦ A` in canonical-OD terms).
    pub fn is_constant(&self, a: AttrId) -> bool {
        self.cardinalities[a] <= 1
    }

    /// Compares two tuples on one attribute.
    #[inline]
    pub fn cmp_attr(&self, a: AttrId, s: usize, t: usize) -> std::cmp::Ordering {
        self.code(s, a).cmp(&self.code(t, a))
    }

    /// Lexicographic comparison of two tuples over an attribute *list*
    /// (Definition 1's weak order `⪯_X` without the tie semantics: returns
    /// `Equal` when the tuples agree on every listed attribute).
    pub fn cmp_lex(&self, spec: &[AttrId], s: usize, t: usize) -> std::cmp::Ordering {
        for &a in spec {
            let ord = self.cmp_attr(a, s, t);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Whether tuples `s` and `t` agree on every attribute in `ctx`
    /// (i.e. belong to the same equivalence class `E(t_X)`).
    pub fn same_class(&self, ctx: AttrSet, s: usize, t: usize) -> bool {
        ctx.iter().all(|a| self.code(s, a) == self.code(t, a))
    }

    /// Projects onto the given attributes (ascending id order), re-indexing
    /// attribute ids to `0..attrs.len()`. O(|attrs|): the code columns are
    /// `Arc`-shared with `self`, not copied — repeated projection (the
    /// experiment sweeps project every prefix width) no longer clones
    /// `O(n · |attrs|)` column data per call.
    pub fn project(&self, attrs: AttrSet) -> EncodedRelation {
        let schema = self.schema.project(attrs);
        let codes = attrs.iter().map(|a| Arc::clone(&self.codes[a])).collect();
        let cardinalities = attrs.iter().map(|a| self.cardinalities[a]).collect();
        EncodedRelation {
            schema,
            codes,
            cardinalities,
            n_rows: self.n_rows,
        }
    }

    /// Keeps the first `k` rows and recomputes dense ranks so the code
    /// invariant (codes form a contiguous `0..card` range) is restored.
    pub fn head(&self, k: usize) -> EncodedRelation {
        let k = k.min(self.n_rows);
        let codes: Vec<Vec<u32>> = (0..self.n_attrs())
            .map(|a| re_rank(&self.codes(a)[..k]))
            .collect();
        EncodedRelation::from_codes(self.schema.clone(), codes)
    }
}

/// Re-densifies a slice of codes after row filtering, preserving order.
fn re_rank(codes: &[u32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..codes.len() as u32).collect();
    order.sort_unstable_by_key(|&i| codes[i as usize]);
    let mut out = vec![0u32; codes.len()];
    let mut rank = 0u32;
    for i in 0..order.len() {
        if i > 0 && codes[order[i] as usize] != codes[order[i - 1] as usize] {
            rank += 1;
        }
        out[order[i] as usize] = rank;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationBuilder;

    fn encoded() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("a", vec![30, 10, 20, 10])
            .column_str("b", vec!["z", "z", "z", "z"])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn encoding_basics() {
        let e = encoded();
        assert_eq!(e.n_rows(), 4);
        assert_eq!(e.codes(0), &[2, 0, 1, 0]);
        assert_eq!(e.cardinality(0), 3);
        assert!(e.is_constant(1));
        assert!(!e.is_constant(0));
        assert_eq!(e.memory_bytes(), 2 * 4 * 4); // two columns of 4 u32s
    }

    #[test]
    fn cmp_lex_and_same_class() {
        let e = encoded();
        use std::cmp::Ordering::*;
        assert_eq!(e.cmp_lex(&[0], 1, 0), Less);
        assert_eq!(e.cmp_lex(&[1], 0, 1), Equal);
        assert_eq!(e.cmp_lex(&[1, 0], 1, 2), Less);
        assert!(e.same_class(AttrSet::singleton(0), 1, 3));
        assert!(!e.same_class(AttrSet::singleton(0), 0, 1));
        assert!(e.same_class(AttrSet::EMPTY, 0, 2));
    }

    #[test]
    fn from_codes_computes_cardinalities() {
        let schema = Schema::new(vec![("x".into(), crate::DataType::Int)]).unwrap();
        let e = EncodedRelation::from_codes(schema, vec![vec![0, 2, 1, 2]]);
        assert_eq!(e.cardinality(0), 3);
    }

    #[test]
    fn head_re_ranks() {
        let e = encoded();
        let h = e.head(2); // raw codes [2, 0] -> re-ranked [1, 0]
        assert_eq!(h.codes(0), &[1, 0]);
        assert_eq!(h.cardinality(0), 2);
        assert_eq!(h.n_rows(), 2);
    }

    #[test]
    fn projection_reindexes() {
        let e = encoded();
        let p = e.project(AttrSet::singleton(1));
        assert_eq!(p.n_attrs(), 1);
        assert_eq!(p.schema().name(0), "b");
        assert!(p.is_constant(0));
    }

    #[test]
    fn codes_mut_copies_on_write_and_leaves_projections_intact() {
        let mut e = encoded();
        let p = e.project(AttrSet::from_iter([0, 1]));
        e.codes_mut(0).push(9);
        e.set_cardinality(0, 10);
        e.set_n_rows(5);
        assert_eq!(e.codes(0), &[2, 0, 1, 0, 9]);
        // The projection still sees the pre-mutation column; the untouched
        // column stays shared.
        assert_eq!(p.codes(0), &[2, 0, 1, 0]);
        assert!(!std::ptr::eq(e.codes(0).as_ptr(), p.codes(0).as_ptr()));
        assert!(std::ptr::eq(e.codes(1).as_ptr(), p.codes(1).as_ptr()));
    }

    #[test]
    fn projection_shares_column_buffers() {
        // O(1) per column: the projection points at the same code buffer.
        let e = encoded();
        let p = e.project(AttrSet::from_iter([0, 1]));
        assert!(std::ptr::eq(e.codes(0).as_ptr(), p.codes(0).as_ptr()));
        assert!(std::ptr::eq(e.codes(1).as_ptr(), p.codes(1).as_ptr()));
    }
}
