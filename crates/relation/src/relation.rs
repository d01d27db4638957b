//! Relation instances and the builder API.

use crate::{
    AttrId, AttrSet, Column, ColumnData, DataType, Date, EncodedRelation, NullPolicy,
    RelationError, Schema, Value,
};

/// An immutable relation instance `r` over a [`Schema`] `R`.
///
/// Columnar storage; rows are implicit indices `0..n_rows`. Relations whose
/// columns contain nulls must carry a [`NullPolicy`] — construction rejects
/// null-bearing columns otherwise — so every downstream consumer
/// ([`Relation::encode`], the incremental grower) can resolve null placement
/// without re-deciding it.
#[derive(Clone, PartialEq, Debug)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
    null_policy: Option<NullPolicy>,
}

impl Relation {
    /// Assembles a relation from a schema and matching columns, with no
    /// null policy. Equivalent to [`Relation::with_policy`]`(schema,
    /// columns, None)`; columns containing nulls are rejected.
    ///
    /// # Errors
    /// Rejects column-count or row-count mismatches, type mismatches
    /// between schema and column data, and null-bearing columns
    /// ([`RelationError::NullPolicyRequired`]).
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Relation, RelationError> {
        Relation::with_policy(schema, columns, None)
    }

    /// Assembles a relation, resolving nulls through `null_policy`.
    ///
    /// # Errors
    /// As [`Relation::new`]; additionally requires `null_policy` to be
    /// `Some` whenever any column contains nulls.
    pub fn with_policy(
        schema: Schema,
        columns: Vec<Column>,
        null_policy: Option<NullPolicy>,
    ) -> Result<Relation, RelationError> {
        assert_eq!(
            schema.n_attrs(),
            columns.len(),
            "schema/column count mismatch"
        );
        let n_rows = columns.first().map_or(0, Column::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != n_rows {
                return Err(RelationError::RaggedColumns {
                    expected: n_rows,
                    found: col.len(),
                    column: schema.name(i).to_string(),
                });
            }
            if col.data_type() != schema.data_type(i) {
                return Err(RelationError::TypeMismatch {
                    column: schema.name(i).to_string(),
                    row: 0,
                });
            }
            if col.has_nulls() && null_policy.is_none() {
                return Err(RelationError::NullPolicyRequired {
                    column: schema.name(i).to_string(),
                });
            }
        }
        Ok(Relation {
            schema,
            columns,
            n_rows,
            null_policy,
        })
    }

    /// The null ordering policy, when one is configured.
    pub fn null_policy(&self) -> Option<NullPolicy> {
        self.null_policy
    }

    /// Whether any column contains nulls.
    pub fn has_nulls(&self) -> bool {
        self.columns.iter().any(Column::has_nulls)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `|r|`.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes `|R|`.
    pub fn n_attrs(&self) -> usize {
        self.schema.n_attrs()
    }

    /// The column at attribute position `a`.
    pub fn column(&self, a: AttrId) -> &Column {
        &self.columns[a]
    }

    /// The cell value `t_A` for tuple `row` and attribute `a`.
    pub fn value(&self, row: usize, a: AttrId) -> Value {
        self.columns[a].value(row)
    }

    /// Projects onto the given attributes (ascending id order).
    pub fn project(&self, attrs: AttrSet) -> Relation {
        let schema = self.schema.project(attrs);
        let columns = attrs.iter().map(|a| self.columns[a].clone()).collect();
        Relation {
            schema,
            columns,
            n_rows: self.n_rows,
            null_policy: self.null_policy,
        }
    }

    /// Projects onto the first `k` attributes — how the paper's experiments
    /// take "random projections of the tested datasets" for the |R| sweeps.
    pub fn project_prefix(&self, k: usize) -> Relation {
        assert!(k <= self.n_attrs());
        self.project(AttrSet::full(k))
    }

    /// Keeps only the given rows (in order). Used for |r| sweeps
    /// ("random samples of 20, 40, ... percent").
    pub fn select_rows(&self, rows: &[usize]) -> Relation {
        let columns = self.columns.iter().map(|c| c.take(rows)).collect();
        Relation {
            schema: self.schema.clone(),
            columns,
            n_rows: rows.len(),
            null_policy: self.null_policy,
        }
    }

    /// Takes the first `k` rows.
    pub fn head(&self, k: usize) -> Relation {
        let k = k.min(self.n_rows);
        let rows: Vec<usize> = (0..k).collect();
        self.select_rows(&rows)
    }

    /// Appends every tuple of `batch` to this relation (streaming append).
    ///
    /// The batch must carry *exactly* this relation's schema — same attribute
    /// names, order and types. Returns the new row count.
    ///
    /// # Errors
    /// [`RelationError::SchemaMismatch`] when the schemas differ, or when
    /// both relations carry a [`NullPolicy`] and they disagree;
    /// [`RelationError::NullPolicyRequired`] when the batch brings nulls but
    /// this relation has no policy. `self` is left unchanged in either case.
    pub fn extend(&mut self, batch: &Relation) -> Result<usize, RelationError> {
        self.schema.ensure_matches(batch.schema())?;
        if let (Some(ours), Some(theirs)) = (self.null_policy, batch.null_policy) {
            if ours != theirs {
                return Err(RelationError::SchemaMismatch {
                    expected: format!("{} ({ours})", self.schema),
                    found: format!("{} ({theirs})", batch.schema),
                });
            }
        }
        if self.null_policy.is_none() && batch.has_nulls() {
            let column = (0..batch.n_attrs())
                .find(|&a| batch.columns[a].has_nulls())
                .map(|a| batch.schema.name(a).to_string())
                .unwrap_or_default();
            return Err(RelationError::NullPolicyRequired { column });
        }
        for (col, other) in self.columns.iter_mut().zip(&batch.columns) {
            let ok = col.extend(other);
            debug_assert!(ok, "schema equality implies matching column types");
        }
        self.n_rows += batch.n_rows();
        Ok(self.n_rows)
    }

    /// Rank-encodes every column (paper §4.6), producing the integer-coded
    /// relation all validation runs on.
    pub fn encode(&self) -> EncodedRelation {
        EncodedRelation::from_relation(self)
    }
}

/// Convenience builder for constructing relations column by column.
///
/// ```
/// use fastod_relation::RelationBuilder;
/// let rel = RelationBuilder::new()
///     .column_i64("id", vec![1, 2, 3])
///     .column_str("name", vec!["a", "b", "c"])
///     .build()
///     .unwrap();
/// assert_eq!(rel.n_attrs(), 2);
/// ```
#[derive(Default)]
pub struct RelationBuilder {
    attrs: Vec<(String, DataType)>,
    columns: Vec<Column>,
    null_policy: Option<NullPolicy>,
}

impl RelationBuilder {
    /// Creates an empty builder.
    pub fn new() -> RelationBuilder {
        RelationBuilder::default()
    }

    /// Sets the null ordering policy. Required (by [`RelationBuilder::build`])
    /// whenever any `_opt` column contains a `None`.
    pub fn null_policy(mut self, policy: NullPolicy) -> Self {
        self.null_policy = Some(policy);
        self
    }

    /// Adds a typed column.
    pub fn column(mut self, name: &str, data: ColumnData) -> Self {
        self.attrs.push((name.to_string(), data.data_type()));
        self.columns.push(Column::new(data));
        self
    }

    /// Adds a pre-assembled column (payload plus optional null mask).
    pub fn column_raw(mut self, name: &str, column: Column) -> Self {
        self.attrs.push((name.to_string(), column.data_type()));
        self.columns.push(column);
        self
    }

    /// Splits `Vec<Option<T>>` into a placeholder-filled payload and a mask.
    fn split_opt<T: Default>(values: Vec<Option<T>>) -> (Vec<T>, Vec<bool>) {
        let mut mask = Vec::with_capacity(values.len());
        let payload = values
            .into_iter()
            .map(|v| {
                mask.push(v.is_none());
                v.unwrap_or_default()
            })
            .collect();
        (payload, mask)
    }

    /// Adds an integer column with nulls (`None` cells).
    pub fn column_i64_opt(self, name: &str, values: Vec<Option<i64>>) -> Self {
        let (payload, mask) = Self::split_opt(values);
        self.column_raw(name, Column::with_nulls(ColumnData::Int(payload), mask))
    }

    /// Adds a float column with nulls (`None` cells).
    pub fn column_f64_opt(self, name: &str, values: Vec<Option<f64>>) -> Self {
        let (payload, mask) = Self::split_opt(values);
        self.column_raw(name, Column::with_nulls(ColumnData::Float(payload), mask))
    }

    /// Adds a string column with nulls (`None` cells).
    pub fn column_str_opt<S: Into<String>>(
        self,
        name: &str,
        values: Vec<Option<S>>,
    ) -> Self {
        let (payload, mask) =
            Self::split_opt(values.into_iter().map(|v| v.map(Into::into)).collect());
        self.column_raw(name, Column::with_nulls(ColumnData::Str(payload), mask))
    }

    /// Adds a date column with nulls (`None` cells).
    pub fn column_date_opt(self, name: &str, values: Vec<Option<Date>>) -> Self {
        let (payload, mask) = Self::split_opt(values);
        self.column_raw(name, Column::with_nulls(ColumnData::Date(payload), mask))
    }

    /// Adds an integer column.
    pub fn column_i64(self, name: &str, values: Vec<i64>) -> Self {
        self.column(name, ColumnData::Int(values))
    }

    /// Adds a float column.
    pub fn column_f64(self, name: &str, values: Vec<f64>) -> Self {
        self.column(name, ColumnData::Float(values))
    }

    /// Adds a string column.
    pub fn column_str<S: Into<String>>(self, name: &str, values: Vec<S>) -> Self {
        self.column(
            name,
            ColumnData::Str(values.into_iter().map(Into::into).collect()),
        )
    }

    /// Adds a date column.
    pub fn column_date(self, name: &str, values: Vec<Date>) -> Self {
        self.column(name, ColumnData::Date(values))
    }

    /// Finalizes the relation.
    ///
    /// # Errors
    /// As [`Relation::with_policy`] — notably
    /// [`RelationError::NullPolicyRequired`] when an `_opt` column holds a
    /// `None` but [`RelationBuilder::null_policy`] was never called.
    pub fn build(self) -> Result<Relation, RelationError> {
        let schema = Schema::new(self.attrs)?;
        Relation::with_policy(schema, self.columns, self.null_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        RelationBuilder::new()
            .column_i64("a", vec![3, 1, 2])
            .column_str("b", vec!["x", "y", "x"])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_access() {
        let r = sample();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.n_attrs(), 2);
        assert_eq!(r.value(0, 0), Value::Int(3));
        assert_eq!(r.value(2, 1), Value::Str("x".into()));
        assert_eq!(r.schema().name(1), "b");
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = RelationBuilder::new()
            .column_i64("a", vec![1, 2])
            .column_i64("b", vec![1])
            .build()
            .unwrap_err();
        assert!(matches!(err, RelationError::RaggedColumns { .. }));
    }

    #[test]
    fn projection() {
        let r = sample();
        let p = r.project(AttrSet::singleton(1));
        assert_eq!(p.n_attrs(), 1);
        assert_eq!(p.schema().name(0), "b");
        assert_eq!(p.n_rows(), 3);
    }

    #[test]
    fn project_prefix() {
        let r = sample();
        let p = r.project_prefix(1);
        assert_eq!(p.schema().name(0), "a");
    }

    #[test]
    fn select_rows_and_head() {
        let r = sample();
        let s = r.select_rows(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.value(0, 0), Value::Int(2));
        assert_eq!(s.value(1, 0), Value::Int(3));
        assert_eq!(r.head(2).n_rows(), 2);
        assert_eq!(r.head(10).n_rows(), 3);
    }

    #[test]
    fn extend_appends_rows() {
        let mut r = sample();
        let batch = RelationBuilder::new()
            .column_i64("a", vec![9])
            .column_str("b", vec!["z"])
            .build()
            .unwrap();
        assert_eq!(r.extend(&batch).unwrap(), 4);
        assert_eq!(r.n_rows(), 4);
        assert_eq!(r.value(3, 0), Value::Int(9));
        assert_eq!(r.value(3, 1), Value::Str("z".into()));
        // Extending by an empty batch is a no-op.
        let empty = RelationBuilder::new()
            .column_i64("a", vec![])
            .column_str("b", Vec::<String>::new())
            .build()
            .unwrap();
        assert_eq!(r.extend(&empty).unwrap(), 4);
    }

    #[test]
    fn extend_rejects_schema_mismatch() {
        let mut r = sample();
        let wrong = RelationBuilder::new()
            .column_i64("a", vec![1])
            .column_i64("b", vec![2]) // b is a string column in `sample`
            .build()
            .unwrap();
        let err = r.extend(&wrong).unwrap_err();
        assert!(matches!(err, RelationError::SchemaMismatch { .. }));
        assert_eq!(r.n_rows(), 3, "failed extend must not mutate");
    }

    #[test]
    fn opt_columns_require_policy() {
        let err = RelationBuilder::new()
            .column_i64_opt("a", vec![Some(1), None])
            .build()
            .unwrap_err();
        assert!(matches!(err, RelationError::NullPolicyRequired { column } if column == "a"));
        // All-Some opt columns normalize to plain columns: no policy needed.
        let rel = RelationBuilder::new()
            .column_i64_opt("a", vec![Some(1), Some(2)])
            .build()
            .unwrap();
        assert!(!rel.has_nulls());
        assert_eq!(rel.null_policy(), None);
    }

    #[test]
    fn null_encoding_under_both_policies() {
        use crate::NullPolicy;
        let build = |policy| {
            RelationBuilder::new()
                .column_i64_opt("a", vec![Some(20), None, Some(10), None])
                .null_policy(policy)
                .build()
                .unwrap()
        };
        let first = build(NullPolicy::First).encode();
        assert_eq!(first.codes(0), &[2, 0, 1, 0]);
        assert_eq!(first.cardinality(0), 3);
        let last = build(NullPolicy::Last).encode();
        assert_eq!(last.codes(0), &[1, 2, 0, 2]);
        assert_eq!(last.cardinality(0), 3);
    }

    #[test]
    fn null_cells_survive_select_project_extend() {
        use crate::NullPolicy;
        let mut rel = RelationBuilder::new()
            .column_str_opt("s", vec![Some("x"), None, Some("y")])
            .column_i64("k", vec![1, 2, 3])
            .null_policy(NullPolicy::Last)
            .build()
            .unwrap();
        let sel = rel.select_rows(&[1, 2]);
        assert_eq!(sel.value(0, 0), Value::Null);
        assert_eq!(sel.null_policy(), Some(NullPolicy::Last));
        let proj = rel.project(AttrSet::singleton(0));
        assert_eq!(proj.value(1, 0), Value::Null);

        let batch = RelationBuilder::new()
            .column_str_opt("s", vec![None::<&str>])
            .column_i64("k", vec![4])
            .null_policy(NullPolicy::Last)
            .build()
            .unwrap();
        rel.extend(&batch).unwrap();
        assert_eq!(rel.value(3, 0), Value::Null);

        // Policy conflict between the two sides is rejected.
        let wrong = RelationBuilder::new()
            .column_str_opt("s", vec![None::<&str>])
            .column_i64("k", vec![5])
            .null_policy(NullPolicy::First)
            .build()
            .unwrap();
        assert!(matches!(
            rel.extend(&wrong),
            Err(RelationError::SchemaMismatch { .. })
        ));

        // Null-bearing batch into a policy-less relation is rejected.
        let mut plain = sample();
        let nullish = RelationBuilder::new()
            .column_i64_opt("a", vec![None])
            .column_str("b", vec!["w"])
            .null_policy(NullPolicy::First)
            .build()
            .unwrap();
        assert!(matches!(
            plain.extend(&nullish),
            Err(RelationError::NullPolicyRequired { .. })
        ));
        assert_eq!(plain.n_rows(), 3);
    }

    #[test]
    fn empty_relation() {
        let r = RelationBuilder::new()
            .column_i64("a", vec![])
            .build()
            .unwrap();
        assert_eq!(r.n_rows(), 0);
        let enc = r.encode();
        assert_eq!(enc.n_rows(), 0);
    }
}
