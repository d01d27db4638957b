//! Incrementally growable encoded relations — the append path for streaming
//! workloads.
//!
//! [`crate::EncodedRelation`] replaces every value with its dense rank, and
//! dense ranks are *canonical*: the codes are fully determined by the value
//! multiset, independent of how the relation was assembled. A
//! [`GrowableRelation`] maintains that invariant under appends without
//! re-sorting history: per column it keeps the **code dictionary**
//! (`crate::dict`) — the distinct raw values in ascending order, so
//! `dict[code] == value` — and on each batch
//!
//! 1. merges the batch's unseen values into the dictionary (O(Δ log card) to
//!    find them, O(card + Δ) to merge);
//! 2. when the dictionary grew, shifts the existing codes through the
//!    monotone old-code → new-code remap (O(n) per affected column; equality
//!    classes and relative order are untouched);
//! 3. encodes the batch rows by dictionary lookup and appends them.
//!
//! The result after every batch is *identical*, code for code, to freshly
//! encoding the concatenated relation — the property the incremental
//! discovery engine's equivalence tests pin down.

use crate::dict::Dict;
use crate::{EncodedRelation, NullPolicy, Relation, RelationError, Schema};

/// Outcome of one [`GrowableRelation::extend`] call.
#[derive(Clone, Debug)]
pub struct AppendReport {
    /// Row count before the batch.
    pub old_n_rows: usize,
    /// Rows appended by the batch.
    pub appended: usize,
    /// Per attribute: whether existing codes were shifted because the batch
    /// introduced values between (or below) already-seen ones. Class
    /// structure and relative order are preserved either way; sorted
    /// partitions `τ_A` must be rebuilt regardless (new rows joined).
    pub remapped: Vec<bool>,
}

/// An [`EncodedRelation`] that accepts appended tuple batches while keeping
/// the canonical dense-rank encoding — see the module docs for the scheme.
///
/// Raw history is *not* retained (only the dictionaries are), so memory is
/// O(n) codes + O(Σ cardinality) dictionary entries.
///
/// # Deletions are tombstones
///
/// [`GrowableRelation::delete_rows`] marks rows dead in a **liveness mask**
/// instead of compacting the code columns: row ids are stable forever, no
/// code moves, and dictionaries keep values that may no longer occur. The
/// encoding over the survivors is therefore *not* byte-identical to freshly
/// encoding them (codes can have gaps) — but it is **order- and
/// equality-equivalent**, which is the only thing OD semantics consume, so
/// every masked partition build and validation scan over the live rows
/// yields exactly the verdicts of the compacted relation. Consumers that
/// walk code columns directly must skip rows where
/// [`live()`](GrowableRelation::live) is `false`.
///
/// ```
/// use fastod_relation::{GrowableRelation, RelationBuilder};
/// let base = RelationBuilder::new().column_i64("x", vec![10, 30]).build().unwrap();
/// let mut grow = GrowableRelation::new(&base);
/// let batch = RelationBuilder::new().column_i64("x", vec![20]).build().unwrap();
/// grow.extend(&batch).unwrap();
/// // Codes are exactly those of encoding [10, 30, 20] from scratch.
/// assert_eq!(grow.encoded().codes(0), &[0, 2, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct GrowableRelation {
    schema: Schema,
    null_policy: Option<NullPolicy>,
    dicts: Vec<Dict>,
    enc: EncodedRelation,
    /// Liveness mask over the physical slots: `live[row]` is `false` once
    /// `row` has been tombstoned by [`GrowableRelation::delete_rows`].
    live: Vec<bool>,
    /// Count of `true` entries in `live`.
    n_live: usize,
}

impl GrowableRelation {
    /// Encodes `rel` and derives the per-column dictionaries.
    pub fn new(rel: &Relation) -> GrowableRelation {
        let enc = rel.encode();
        let dicts = (0..rel.n_attrs())
            .map(|a| Dict::from_column(rel.column(a), enc.codes(a), enc.cardinality(a)))
            .collect();
        let n = rel.n_rows();
        GrowableRelation {
            schema: rel.schema().clone(),
            null_policy: rel.null_policy(),
            dicts,
            enc,
            live: vec![true; n],
            n_live: n,
        }
    }

    /// The schema shared by every accepted batch.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The null ordering policy inherited from the base relation.
    pub fn null_policy(&self) -> Option<NullPolicy> {
        self.null_policy
    }

    /// Physical slot count: every row ever appended, live or tombstoned.
    /// Row ids index this range; they are never reassigned by a delete.
    pub fn n_rows(&self) -> usize {
        self.enc.n_rows()
    }

    /// Rows currently live (physical slots minus tombstones).
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// The liveness mask over the physical slots (`live()[row]` is `false`
    /// for tombstoned rows). Length equals [`GrowableRelation::n_rows`].
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Whether `row` is a live slot (in range and not tombstoned).
    pub fn is_live(&self, row: usize) -> bool {
        self.live.get(row).copied().unwrap_or(false)
    }

    /// Tombstones the given rows. The physical slots (and their codes) stay
    /// in place — deletes never shift row ids — but the rows become
    /// invisible to every masked consumer of [`GrowableRelation::live`].
    ///
    /// Validation is atomic: every id must be in range and live (each at
    /// most once) or *nothing* is deleted. Returns the deleted ids sorted
    /// ascending — the shape downstream partition maintenance
    /// (`StrippedPartition::remove_rows`) consumes.
    ///
    /// ```
    /// use fastod_relation::{GrowableRelation, RelationBuilder};
    /// let base = RelationBuilder::new().column_i64("x", vec![5, 6, 7]).build().unwrap();
    /// let mut grow = GrowableRelation::new(&base);
    /// assert_eq!(grow.delete_rows(&[2, 0]).unwrap(), vec![0, 2]);
    /// assert_eq!(grow.n_live(), 1);
    /// assert_eq!(grow.n_rows(), 3); // slots remain; row 1 keeps its id
    /// assert!(grow.delete_rows(&[0]).is_err()); // double delete is an error
    /// ```
    ///
    /// # Errors
    /// [`RelationError::RowOutOfRange`] for ids `≥ n_rows()`;
    /// [`RelationError::DeadRow`] for already-tombstoned ids or duplicates
    /// within `rows`. `self` is unchanged on error.
    pub fn delete_rows(&mut self, rows: &[usize]) -> Result<Vec<u32>, RelationError> {
        let mut sorted: Vec<u32> = Vec::with_capacity(rows.len());
        for &row in rows {
            if row >= self.live.len() {
                return Err(RelationError::RowOutOfRange {
                    row,
                    n_rows: self.live.len(),
                });
            }
            if !self.live[row] {
                return Err(RelationError::DeadRow { row });
            }
            sorted.push(row as u32);
        }
        sorted.sort_unstable();
        if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(RelationError::DeadRow { row: dup[0] as usize });
        }
        for &row in &sorted {
            self.live[row as usize] = false;
        }
        self.n_live -= sorted.len();
        Ok(sorted)
    }

    /// The encoded relation over everything appended so far. Canonical: equal
    /// to freshly encoding the concatenation of all batches.
    pub fn encoded(&self) -> &EncodedRelation {
        &self.enc
    }

    /// Appends a batch, growing dictionaries and codes in place.
    ///
    /// # Errors
    /// [`RelationError::SchemaMismatch`] when the batch schema differs or
    /// carries a conflicting [`NullPolicy`];
    /// [`RelationError::NullPolicyRequired`] when the batch brings nulls but
    /// the engine has no policy. `self` is left unchanged in either case.
    pub fn extend(&mut self, batch: &Relation) -> Result<AppendReport, RelationError> {
        // Failpoint at the very top — before any state is touched — so an
        // injected panic provably leaves `self` unchanged (the chaos
        // harness relies on this to re-apply the batch after recovery). An
        // armed `Cancel` degrades to a schema-mismatch-shaped rejection so
        // the fault stays typed without widening this error enum.
        if let fastod_faultkit::Signal::Cancel =
            fastod_faultkit::hit(fastod_faultkit::RELATION_EXTEND)
        {
            return Err(RelationError::SchemaMismatch {
                expected: "relation.extend fault injected".to_string(),
                found: "relation.extend fault injected".to_string(),
            });
        }
        self.schema.ensure_matches(batch.schema())?;
        if let (Some(ours), Some(theirs)) = (self.null_policy, batch.null_policy()) {
            if ours != theirs {
                return Err(RelationError::SchemaMismatch {
                    expected: format!("{} ({ours})", self.schema),
                    found: format!("{} ({theirs})", batch.schema()),
                });
            }
        }
        if self.null_policy.is_none() && batch.has_nulls() {
            let column = (0..batch.n_attrs())
                .find(|&a| batch.column(a).has_nulls())
                .map(|a| batch.schema().name(a).to_string())
                .unwrap_or_default();
            return Err(RelationError::NullPolicyRequired { column });
        }
        let old_n_rows = self.enc.n_rows();
        // With no policy configured no `None` cell can exist (construction
        // and the check above reject them), so the placeholder is inert.
        let policy = self.null_policy.unwrap_or(NullPolicy::First);
        let mut remapped = Vec::with_capacity(self.dicts.len());
        for (a, dict) in self.dicts.iter_mut().enumerate() {
            remapped.push(dict.grow(batch.column(a), self.enc.codes_mut(a), policy));
            self.enc.set_cardinality(a, dict.len() as u32);
        }
        self.enc.set_n_rows(old_n_rows + batch.n_rows());
        self.live.resize(old_n_rows + batch.n_rows(), true);
        self.n_live += batch.n_rows();
        Ok(AppendReport {
            old_n_rows,
            appended: batch.n_rows(),
            remapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Date, RelationBuilder};

    fn rel(xs: Vec<i64>, ys: Vec<&str>) -> Relation {
        RelationBuilder::new()
            .column_i64("x", xs)
            .column_str("y", ys)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_fresh_encoding_batch_by_batch() {
        let base = rel(vec![30, 10, 30], vec!["b", "a", "b"]);
        let mut grow = GrowableRelation::new(&base);
        let mut concat = base.clone();
        let batches = [
            rel(vec![20, 10], vec!["c", "a"]), // 20 lands between 10 and 30
            rel(vec![5], vec!["a"]),           // 5 lands below everything
            rel(vec![30, 30], vec!["b", "d"]), // no new x values
        ];
        for batch in &batches {
            let report = grow.extend(batch).unwrap();
            concat.extend(batch).unwrap();
            assert_eq!(report.appended, batch.n_rows());
            let fresh = concat.encode();
            for a in 0..concat.n_attrs() {
                assert_eq!(grow.encoded().codes(a), fresh.codes(a), "attr {a}");
                assert_eq!(grow.encoded().cardinality(a), fresh.cardinality(a));
            }
            assert_eq!(grow.n_rows(), concat.n_rows());
        }
    }

    #[test]
    fn remap_flags_track_dictionary_growth() {
        let base = rel(vec![10, 20], vec!["a", "b"]);
        let mut grow = GrowableRelation::new(&base);
        // x gains 15 between 10 and 20 (remap); y repeats known values.
        let r = grow.extend(&rel(vec![15], vec!["a"])).unwrap();
        assert_eq!(r.remapped, vec![true, false]);
        // 99 sorts above everything: the dictionary grows at the tail and no
        // existing code moves — the append-only fast path, no remap.
        let r = grow.extend(&rel(vec![99], vec!["b"])).unwrap();
        assert_eq!(r.remapped, vec![false, false]);
        assert_eq!(grow.encoded().cardinality(0), 4);
        let r = grow.extend(&rel(vec![10], vec!["b"])).unwrap();
        assert_eq!(r.remapped, vec![false, false]);
    }

    #[test]
    fn growth_does_not_disturb_shared_projections() {
        // Arc-shared columns are copy-on-write: a projection taken before an
        // append keeps observing the pre-append codes.
        let base = rel(vec![30, 10], vec!["b", "a"]);
        let mut grow = GrowableRelation::new(&base);
        let snapshot = grow.encoded().project(crate::AttrSet::from_iter([0, 1]));
        let before: Vec<u32> = snapshot.codes(0).to_vec();
        // 20 lands between 10 and 30: the live column is remapped AND grows.
        grow.extend(&rel(vec![20], vec!["c"])).unwrap();
        assert_eq!(snapshot.codes(0), before.as_slice());
        assert_eq!(snapshot.n_rows(), 2);
        assert_eq!(grow.encoded().codes(0), &[2, 0, 1]);
    }

    #[test]
    fn schema_mismatch_rejected_without_mutation() {
        let mut grow = GrowableRelation::new(&rel(vec![1], vec!["a"]));
        let wrong = RelationBuilder::new()
            .column_i64("x", vec![2])
            .column_i64("y", vec![3])
            .build()
            .unwrap();
        assert!(matches!(
            grow.extend(&wrong),
            Err(RelationError::SchemaMismatch { .. })
        ));
        assert_eq!(grow.n_rows(), 1);
    }

    #[test]
    fn delete_rows_tombstones_without_moving_codes() {
        let base = rel(vec![10, 20, 30], vec!["a", "b", "c"]);
        let mut grow = GrowableRelation::new(&base);
        let before = grow.encoded().codes(0).to_vec();
        let deleted = grow.delete_rows(&[1]).unwrap();
        assert_eq!(deleted, vec![1]);
        assert_eq!(grow.n_rows(), 3);
        assert_eq!(grow.n_live(), 2);
        assert_eq!(grow.live(), &[true, false, true]);
        assert!(grow.is_live(0) && !grow.is_live(1) && !grow.is_live(9));
        // Codes are untouched: deletes never remap or compact.
        assert_eq!(grow.encoded().codes(0), before.as_slice());
        // Appends after a delete land in fresh slots, live.
        grow.extend(&rel(vec![15], vec!["d"])).unwrap();
        assert_eq!(grow.n_rows(), 4);
        assert_eq!(grow.n_live(), 3);
        assert_eq!(grow.live(), &[true, false, true, true]);
    }

    #[test]
    fn delete_rows_validates_atomically() {
        let mut grow = GrowableRelation::new(&rel(vec![1, 2, 3], vec!["a", "b", "c"]));
        // Out of range: nothing deleted.
        assert!(matches!(
            grow.delete_rows(&[1, 7]),
            Err(RelationError::RowOutOfRange { row: 7, n_rows: 3 })
        ));
        assert_eq!(grow.n_live(), 3);
        // Duplicate id within one call: nothing deleted.
        assert!(matches!(
            grow.delete_rows(&[2, 2]),
            Err(RelationError::DeadRow { row: 2 })
        ));
        assert_eq!(grow.n_live(), 3);
        grow.delete_rows(&[0]).unwrap();
        // Double delete across calls.
        assert!(matches!(
            grow.delete_rows(&[0]),
            Err(RelationError::DeadRow { row: 0 })
        ));
        assert_eq!(grow.n_live(), 2);
    }

    #[test]
    fn grows_from_empty() {
        let empty = rel(vec![], vec![]);
        let mut grow = GrowableRelation::new(&empty);
        assert_eq!(grow.n_rows(), 0);
        grow.extend(&rel(vec![7, 3], vec!["q", "p"])).unwrap();
        assert_eq!(grow.encoded().codes(0), &[1, 0]);
        assert_eq!(grow.encoded().codes(1), &[1, 0]);
        assert_eq!(grow.encoded().cardinality(0), 2);
    }

    #[test]
    fn null_columns_grow_canonically_under_both_policies() {
        for policy in [NullPolicy::First, NullPolicy::Last] {
            let build = |xs: Vec<Option<i64>>, ys: Vec<Option<f64>>| {
                RelationBuilder::new()
                    .column_i64_opt("x", xs)
                    .column_f64_opt("y", ys)
                    .null_policy(policy)
                    .build()
                    .unwrap()
            };
            let base = build(vec![Some(30), None], vec![None, Some(1.5)]);
            let mut grow = GrowableRelation::new(&base);
            assert_eq!(grow.null_policy(), Some(policy));
            let mut concat = base.clone();
            let batches = [
                build(vec![Some(10), None], vec![Some(0.5), None]),
                build(vec![Some(20)], vec![Some(f64::NAN)]),
            ];
            for batch in &batches {
                grow.extend(batch).unwrap();
                concat.extend(batch).unwrap();
                let fresh = concat.encode();
                for a in 0..concat.n_attrs() {
                    assert_eq!(grow.encoded().codes(a), fresh.codes(a), "{policy} attr {a}");
                    assert_eq!(grow.encoded().cardinality(a), fresh.cardinality(a));
                }
            }
        }
    }

    #[test]
    fn null_batch_rejected_without_policy() {
        let mut grow = GrowableRelation::new(&rel(vec![1], vec!["a"]));
        let batch = RelationBuilder::new()
            .column_i64_opt("x", vec![None])
            .column_str("y", vec!["b"])
            .null_policy(NullPolicy::First)
            .build()
            .unwrap();
        assert!(matches!(
            grow.extend(&batch),
            Err(RelationError::NullPolicyRequired { .. })
        ));
        assert_eq!(grow.n_rows(), 1);
    }

    #[test]
    fn float_and_date_columns_grow() {
        let base = RelationBuilder::new()
            .column_f64("f", vec![1.5, 0.5])
            .column_date("d", vec![Date(10), Date(20)])
            .build()
            .unwrap();
        let mut grow = GrowableRelation::new(&base);
        let batch = RelationBuilder::new()
            .column_f64("f", vec![1.0, 1.5])
            .column_date("d", vec![Date(5), Date(20)])
            .build()
            .unwrap();
        grow.extend(&batch).unwrap();
        let mut concat = base.clone();
        concat.extend(&batch).unwrap();
        let fresh = concat.encode();
        assert_eq!(grow.encoded().codes(0), fresh.codes(0));
        assert_eq!(grow.encoded().codes(1), fresh.codes(1));
    }
}
