//! Typed columnar storage.
//!
//! Nulls are stored out of band: a [`Column`] optionally carries a boolean
//! null mask next to its dense typed payload ([`ColumnData`]), so the
//! payload vectors never pay per-cell `Option` overhead and null-free
//! columns (the common case) cost nothing. Null placement in the order is
//! resolved at [`Column::rank_encode`] time from the relation's
//! [`NullPolicy`]: nulls share one dedicated rank below (`First`) or above
//! (`Last`) every value rank.

use crate::{DataType, Date, NullPolicy, Value};

/// The typed payload of a column.
///
/// Storage is one dense `Vec` per type — no per-cell boxing — so a
/// million-row column costs 8 bytes/row for numeric types.
#[derive(Clone, PartialEq, Debug)]
pub enum ColumnData {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<String>),
    /// Date column.
    Date(Vec<Date>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's [`DataType`].
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Date(_) => DataType::Date,
        }
    }

    /// The cell at `row` as an owned [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
            ColumnData::Date(v) => Value::Date(v[row]),
        }
    }

    /// Projects the column to the given row indices (in order).
    pub fn take(&self, rows: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Float(v) => ColumnData::Float(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(rows.iter().map(|&r| v[r].clone()).collect())
            }
            ColumnData::Date(v) => ColumnData::Date(rows.iter().map(|&r| v[r]).collect()),
        }
    }

    /// Appends all rows of `other` to this column. Returns `false` (leaving
    /// `self` untouched) when the payload types differ.
    pub fn extend(&mut self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Int(v), ColumnData::Int(o)) => v.extend_from_slice(o),
            (ColumnData::Float(v), ColumnData::Float(o)) => v.extend_from_slice(o),
            (ColumnData::Str(v), ColumnData::Str(o)) => v.extend_from_slice(o),
            (ColumnData::Date(v), ColumnData::Date(o)) => v.extend_from_slice(o),
            _ => return false,
        }
        true
    }

    /// Computes order-preserving dense-rank codes for this column
    /// (paper §4.6): equal values get equal codes, and `v < w` implies
    /// `code(v) < code(w)`. Returns `(codes, cardinality)`.
    ///
    /// Runs in O(n log n): sort a permutation of row ids by value, then walk
    /// it assigning ranks.
    pub fn rank_encode(&self) -> (Vec<u32>, u32) {
        match self {
            ColumnData::Int(v) => rank_encode_by(v, None, |a, b| a.cmp(b)),
            ColumnData::Float(v) => rank_encode_by(v, None, |a, b| a.total_cmp(b)),
            ColumnData::Str(v) => rank_encode_by(v, None, |a, b| a.cmp(b)),
            ColumnData::Date(v) => rank_encode_by(v, None, |a, b| a.cmp(b)),
        }
    }
}

/// Dense-ranks `values` under `cmp`: sorts a permutation of the row ids by
/// value, then walks it assigning ranks. With `nulls`, the rows its mask
/// marks are left out of the sort and share one dedicated rank, placed by
/// the policy: 0 under [`NullPolicy::First`] (the value ranks shift up by
/// one), the largest rank under [`NullPolicy::Last`]. The cardinality
/// counts the null rank.
fn rank_encode_by<T>(
    values: &[T],
    nulls: Option<(&[bool], NullPolicy)>,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
) -> (Vec<u32>, u32) {
    let n = values.len();
    let mut order: Vec<u32> = match nulls {
        None => (0..n as u32).collect(),
        Some((mask, _)) => (0..n as u32).filter(|&i| !mask[i as usize]).collect(),
    };
    order.sort_unstable_by(|&a, &b| cmp(&values[a as usize], &values[b as usize]));
    let offset = u32::from(matches!(nulls, Some((_, NullPolicy::First))));
    let mut codes = vec![0u32; n];
    let mut rank = 0u32;
    for i in 0..order.len() {
        if i > 0 {
            let prev = order[i - 1] as usize;
            let cur = order[i] as usize;
            if cmp(&values[prev], &values[cur]) != std::cmp::Ordering::Equal {
                rank += 1;
            }
        }
        codes[order[i] as usize] = rank + offset;
    }
    let value_card = if order.is_empty() { 0 } else { rank + 1 };
    let Some((mask, policy)) = nulls else {
        return (codes, value_card);
    };
    let null_rank = match policy {
        NullPolicy::First => 0,
        NullPolicy::Last => value_card,
    };
    for (row, &is_null) in mask.iter().enumerate() {
        if is_null {
            codes[row] = null_rank;
        }
    }
    (codes, value_card + 1)
}

/// A named column: schema position is tracked by [`crate::Relation`].
///
/// Optionally carries a null mask; the typed payload keeps a placeholder
/// value in null slots (never observed: [`Column::value`] returns
/// [`Value::Null`] and [`Column::rank_encode`] ranks only non-null cells).
#[derive(Clone, PartialEq, Debug)]
pub struct Column {
    data: ColumnData,
    /// `Some(mask)` iff at least one cell is null (`mask[row]` true ⇒ null).
    /// Normalized on construction so null-free columns compare equal
    /// regardless of how they were built.
    nulls: Option<Vec<bool>>,
}

impl Column {
    /// Wraps column data with no nulls.
    pub fn new(data: ColumnData) -> Column {
        Column { data, nulls: None }
    }

    /// Wraps column data with a null mask (`mask[row]` true ⇒ the cell is
    /// null; the payload value at that slot is an ignored placeholder).
    ///
    /// The mask is normalized away when it contains no `true` entry, so
    /// `with_nulls(data, vec![false; n]) == new(data)`.
    ///
    /// # Panics
    /// When the mask length differs from the payload length.
    pub fn with_nulls(data: ColumnData, mask: Vec<bool>) -> Column {
        assert_eq!(
            data.len(),
            mask.len(),
            "null mask length must equal column length"
        );
        let nulls = if mask.iter().any(|&b| b) { Some(mask) } else { None };
        Column { data, nulls }
    }

    /// The typed payload. Null slots hold placeholder values — consult
    /// [`Column::null_mask`] before reading cells directly.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null mask, if any cell is null (`mask[row]` true ⇒ null).
    pub fn null_mask(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// Whether any cell is null.
    pub fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        self.nulls
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&b| b).count())
    }

    /// Whether the cell at `row` is null.
    pub fn is_null(&self, row: usize) -> bool {
        self.nulls.as_ref().is_some_and(|m| m[row])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The column's [`DataType`].
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// The cell at `row` ([`Value::Null`] for null cells).
    pub fn value(&self, row: usize) -> Value {
        if self.is_null(row) {
            Value::Null
        } else {
            self.data.value(row)
        }
    }

    /// Projects the column (payload and mask) to the given rows, in order.
    pub fn take(&self, rows: &[usize]) -> Column {
        let data = self.data.take(rows);
        match &self.nulls {
            None => Column::new(data),
            Some(mask) => {
                Column::with_nulls(data, rows.iter().map(|&r| mask[r]).collect())
            }
        }
    }

    /// Appends all rows of `other`; returns `false` on a type mismatch.
    pub fn extend(&mut self, other: &Column) -> bool {
        let old_len = self.data.len();
        if !self.data.extend(&other.data) {
            return false;
        }
        // Merge masks only when at least one side has nulls.
        if self.nulls.is_some() || other.nulls.is_some() {
            let mask = self
                .nulls
                .get_or_insert_with(|| vec![false; old_len]);
            match &other.nulls {
                Some(m) => mask.extend_from_slice(m),
                None => mask.resize(old_len + other.data.len(), false),
            }
        }
        true
    }

    /// Order-preserving dense-rank codes for this column, resolving nulls
    /// through `policy`: all nulls share one dedicated rank — 0 under
    /// [`NullPolicy::First`] (value ranks shift up by one), the largest rank
    /// under [`NullPolicy::Last`]. Cardinality counts the null rank.
    ///
    /// Null-free columns ignore `policy` and defer to
    /// [`ColumnData::rank_encode`].
    ///
    /// # Panics
    /// When the column contains nulls but `policy` is `None` — construction
    /// through [`crate::Relation`] validates the policy up front
    /// ([`crate::RelationError::NullPolicyRequired`]), so this is
    /// unreachable from the public relation API.
    pub fn rank_encode(&self, policy: Option<NullPolicy>) -> (Vec<u32>, u32) {
        let Some(mask) = &self.nulls else {
            return self.data.rank_encode();
        };
        let policy = policy.expect(
            "column contains nulls but no NullPolicy is configured; \
             Relation construction should have rejected this",
        );
        let nulls = Some((mask.as_slice(), policy));
        match &self.data {
            ColumnData::Int(v) => rank_encode_by(v, nulls, |a, b| a.cmp(b)),
            ColumnData::Float(v) => rank_encode_by(v, nulls, |a, b| a.total_cmp(b)),
            ColumnData::Str(v) => rank_encode_by(v, nulls, |a, b| a.cmp(b)),
            ColumnData::Date(v) => rank_encode_by(v, nulls, |a, b| a.cmp(b)),
        }
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Column {
        Column::new(ColumnData::Int(v))
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Column {
        Column::new(ColumnData::Float(v))
    }
}

impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Column {
        Column::new(ColumnData::Str(v))
    }
}

impl From<Vec<Date>> for Column {
    fn from(v: Vec<Date>) -> Column {
        Column::new(ColumnData::Date(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_encode_ints() {
        let col = ColumnData::Int(vec![10, 5, 10, 7, 5]);
        let (codes, card) = col.rank_encode();
        assert_eq!(codes, vec![2, 0, 2, 1, 0]);
        assert_eq!(card, 3);
    }

    #[test]
    fn rank_encode_strings() {
        let col = ColumnData::Str(vec!["b".into(), "a".into(), "c".into(), "a".into()]);
        let (codes, card) = col.rank_encode();
        assert_eq!(codes, vec![1, 0, 2, 0]);
        assert_eq!(card, 3);
    }

    #[test]
    fn rank_encode_floats_total_order() {
        let col = ColumnData::Float(vec![1.5, f64::NEG_INFINITY, 1.5, 0.0]);
        let (codes, card) = col.rank_encode();
        assert_eq!(codes, vec![2, 0, 2, 1]);
        assert_eq!(card, 3);
    }

    #[test]
    fn rank_encode_empty() {
        let (codes, card) = ColumnData::Int(vec![]).rank_encode();
        assert!(codes.is_empty());
        assert_eq!(card, 0);
    }

    #[test]
    fn rank_encode_constant_column() {
        let (codes, card) = ColumnData::Int(vec![7; 5]).rank_encode();
        assert_eq!(codes, vec![0; 5]);
        assert_eq!(card, 1);
    }

    #[test]
    fn rank_encode_preserves_order_and_equality() {
        let vals = vec![3i64, -1, 4, 1, 5, 9, 2, 6, 5, 3];
        let col = ColumnData::Int(vals.clone());
        let (codes, _) = col.rank_encode();
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                assert_eq!(vals[i].cmp(&vals[j]), codes[i].cmp(&codes[j]));
            }
        }
    }

    #[test]
    fn take_projects_rows() {
        let col = ColumnData::Str(vec!["x".into(), "y".into(), "z".into()]);
        assert_eq!(
            col.take(&[2, 0]),
            ColumnData::Str(vec!["z".into(), "x".into()])
        );
    }

    #[test]
    fn value_accessor() {
        let col = Column::from(vec![1i64, 2]);
        assert_eq!(col.value(1), Value::Int(2));
        assert_eq!(col.data_type(), DataType::Int);
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn null_mask_normalizes_and_reads_back() {
        let all_false = Column::with_nulls(ColumnData::Int(vec![1, 2]), vec![false, false]);
        assert_eq!(all_false, Column::from(vec![1i64, 2]));
        assert!(!all_false.has_nulls());

        let col = Column::with_nulls(ColumnData::Int(vec![1, 0, 3]), vec![false, true, false]);
        assert!(col.has_nulls());
        assert_eq!(col.null_count(), 1);
        assert!(col.is_null(1) && !col.is_null(0));
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.value(2), Value::Int(3));
    }

    #[test]
    fn null_rank_first_and_last() {
        // Values [20, _, 10, 20] with one null.
        let col = Column::with_nulls(
            ColumnData::Int(vec![20, 0, 10, 20]),
            vec![false, true, false, false],
        );
        let (codes, card) = col.rank_encode(Some(NullPolicy::First));
        // Null takes rank 0; 10 → 1; 20 → 2.
        assert_eq!(codes, vec![2, 0, 1, 2]);
        assert_eq!(card, 3);
        let (codes, card) = col.rank_encode(Some(NullPolicy::Last));
        // 10 → 0; 20 → 1; null takes the top rank 2.
        assert_eq!(codes, vec![1, 2, 0, 1]);
        assert_eq!(card, 3);
    }

    #[test]
    fn all_null_column_has_cardinality_one() {
        let col = Column::with_nulls(ColumnData::Str(vec![String::new(); 3]), vec![true; 3]);
        for policy in [NullPolicy::First, NullPolicy::Last] {
            let (codes, card) = col.rank_encode(Some(policy));
            assert_eq!(codes, vec![0, 0, 0]);
            assert_eq!(card, 1);
        }
    }

    #[test]
    #[should_panic(expected = "NullPolicy")]
    fn null_encode_without_policy_panics() {
        let col = Column::with_nulls(ColumnData::Int(vec![0]), vec![true]);
        col.rank_encode(None);
    }

    #[test]
    fn take_and_extend_carry_masks() {
        let mut col = Column::with_nulls(
            ColumnData::Int(vec![1, 0, 3]),
            vec![false, true, false],
        );
        let taken = col.take(&[1, 2]);
        assert_eq!(taken.value(0), Value::Null);
        assert_eq!(taken.value(1), Value::Int(3));
        // Taking only non-null rows normalizes the mask away.
        assert!(!col.take(&[0, 2]).has_nulls());

        // Masked ++ unmasked, then unmasked ++ masked.
        let plain = Column::from(vec![7i64]);
        assert!(col.extend(&plain));
        assert_eq!(col.value(3), Value::Int(7));
        assert_eq!(col.null_count(), 1);
        let mut plain = Column::from(vec![7i64]);
        let masked = Column::with_nulls(ColumnData::Int(vec![0]), vec![true]);
        assert!(plain.extend(&masked));
        assert_eq!(plain.value(0), Value::Int(7));
        assert_eq!(plain.value(1), Value::Null);
    }
}
