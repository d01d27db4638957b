//! Column dictionaries: the map from a dense-rank code back to its value.
//!
//! [`crate::EncodedRelation`] replaces every value with its dense rank
//! (paper §4.6), so a column's codes index its sorted distinct values. A
//! [`Dict`] holds exactly those values, `dict[code] == value`, ascending
//! under the relation's null-aware order: `None` is the entry of the
//! dedicated null rank, first or last as the [`NullPolicy`] puts it, so the
//! generic merge/remap machinery below needs no null-specific cases, just
//! the [`opt_cmp`] comparator.
//!
//! The streamed reader ([`crate::stream`]) builds one dictionary per column
//! between its passes and keeps it to decode rows; [`crate::GrowableRelation`]
//! grows one per column under appends.

use crate::csv::{infer, Typed};
use crate::{Column, ColumnData, DataType, Date, NullPolicy, Value};
use std::cmp::Ordering;
use std::collections::HashSet;

/// One column's code dictionary: its distinct values in code order, `None`
/// at the null rank.
#[derive(Clone, Debug)]
pub(crate) enum Dict {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Str(Vec<Option<String>>),
    Date(Vec<Option<Date>>),
}

/// Lifts a value comparator to `Option<T>`, placing `None` per `policy`.
fn opt_cmp<T>(
    policy: NullPolicy,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> impl Fn(&Option<T>, &Option<T>) -> Ordering {
    move |a, b| match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => match policy {
            NullPolicy::First => Ordering::Less,
            NullPolicy::Last => Ordering::Greater,
        },
        (Some(_), None) => match policy {
            NullPolicy::First => Ordering::Greater,
            NullPolicy::Last => Ordering::Less,
        },
        (Some(x), Some(y)) => cmp(x, y),
    }
}

/// Materializes a column as `Option<T>` cells (`None` where the mask says
/// null) for dictionary growth.
fn to_opt<T: Clone>(values: &[T], mask: Option<&[bool]>) -> Vec<Option<T>> {
    match mask {
        None => values.iter().cloned().map(Some).collect(),
        Some(m) => values
            .iter()
            .zip(m)
            .map(|(v, &is_null)| if is_null { None } else { Some(v.clone()) })
            .collect(),
    }
}

impl Dict {
    /// Reconstructs the dictionary from a raw column and its codes
    /// (`dict[code] = value`, `None` at the null rank), in O(n).
    pub(crate) fn from_column(column: &Column, codes: &[u32], cardinality: u32) -> Dict {
        let card = cardinality as usize;
        let mask = column.null_mask();
        match column.data() {
            ColumnData::Int(v) => Dict::Int(scatter(v, mask, codes, card)),
            ColumnData::Float(v) => Dict::Float(scatter(v, mask, codes, card)),
            ColumnData::Str(v) => Dict::Str(scatter(v, mask, codes, card)),
            ColumnData::Date(v) => Dict::Date(scatter(v, mask, codes, card)),
        }
    }

    /// The dictionary of a column read as text: its distinct non-null cells,
    /// typed as the one-shot reader would type the whole column (typing
    /// depends only on which cells occur), then sorted and deduplicated as
    /// typed values, so `"01"` and `"1"` are one `Int`. `null` places the
    /// null entry when the column holds a null.
    pub(crate) fn from_distinct(distinct: HashSet<String>, null: Option<NullPolicy>) -> Dict {
        // A numeric column's cells are parsed; free them before sorting.
        match infer(distinct.iter().map(|s| Some(s.as_str()))) {
            Typed::Int(v) => {
                drop(distinct);
                Dict::Int(sorted(v, |a, b| a.cmp(b), null))
            }
            Typed::Float(v) => {
                drop(distinct);
                Dict::Float(sorted(v, |a, b| a.total_cmp(b), null))
            }
            Typed::Str => Dict::Str(sorted(
                distinct.into_iter().collect(),
                |a, b| a.cmp(b),
                null,
            )),
        }
    }

    /// Grows the dictionary with the batch's values, remapping `codes` when
    /// new values land between existing ones, and appends the batch's codes.
    /// Returns whether existing codes were remapped.
    pub(crate) fn grow(
        &mut self,
        batch: &Column,
        codes: &mut Vec<u32>,
        policy: NullPolicy,
    ) -> bool {
        let mask = batch.null_mask();
        match (self, batch.data()) {
            (Dict::Int(d), ColumnData::Int(v)) => grow_column(
                d,
                codes,
                &to_opt(v, mask),
                opt_cmp(policy, |a: &i64, b| a.cmp(b)),
            ),
            (Dict::Float(d), ColumnData::Float(v)) => grow_column(
                d,
                codes,
                &to_opt(v, mask),
                opt_cmp(policy, |a: &f64, b| a.total_cmp(b)),
            ),
            (Dict::Str(d), ColumnData::Str(v)) => grow_column(
                d,
                codes,
                &to_opt(v, mask),
                opt_cmp(policy, |a: &String, b| a.cmp(b)),
            ),
            (Dict::Date(d), ColumnData::Date(v)) => grow_column(
                d,
                codes,
                &to_opt(v, mask),
                opt_cmp(policy, |a: &Date, b| a.cmp(b)),
            ),
            _ => unreachable!("schema equality guarantees matching column types"),
        }
    }

    /// Number of entries: the column's cardinality.
    pub(crate) fn len(&self) -> usize {
        match self {
            Dict::Int(d) => d.len(),
            Dict::Float(d) => d.len(),
            Dict::Str(d) => d.len(),
            Dict::Date(d) => d.len(),
        }
    }

    /// The type of the dictionary's values.
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            Dict::Int(_) => DataType::Int,
            Dict::Float(_) => DataType::Float,
            Dict::Str(_) => DataType::Str,
            Dict::Date(_) => DataType::Date,
        }
    }

    /// The code of the null entry, when the column holds a null.
    pub(crate) fn null_code(&self) -> Option<u32> {
        let position = match self {
            Dict::Int(d) => null_position(d),
            Dict::Float(d) => null_position(d),
            Dict::Str(d) => null_position(d),
            Dict::Date(d) => null_position(d),
        };
        position.map(|p| p as u32)
    }

    /// The code of a non-null text cell parsed at the dictionary's type;
    /// `None` when it does not parse or is not an entry. Searches only the
    /// non-null entries and allocates nothing.
    pub(crate) fn code_of(&self, cell: &str) -> Option<u32> {
        let code = match self {
            Dict::Int(d) => {
                let v: i64 = cell.parse().ok()?;
                find(d, |x| x.cmp(&v))
            }
            Dict::Float(d) => {
                let v: f64 = cell.parse().ok()?;
                find(d, |x| x.total_cmp(&v))
            }
            Dict::Str(d) => find(d, |x| x.as_str().cmp(cell)),
            Dict::Date(_) => unreachable!("the CSV dialect never types a column Date"),
        };
        code.map(|c| c as u32)
    }

    /// The value `code` stands for ([`Value::Null`] at the null rank).
    pub(crate) fn value(&self, code: u32) -> Value {
        let code = code as usize;
        match self {
            Dict::Int(d) => d[code].map_or(Value::Null, Value::Int),
            Dict::Float(d) => d[code].map_or(Value::Null, Value::Float),
            Dict::Str(d) => d[code].clone().map_or(Value::Null, Value::Str),
            Dict::Date(d) => d[code].map_or(Value::Null, Value::Date),
        }
    }

    /// The column these codes encode, with its null mask. Null slots hold
    /// `T::default()`, the placeholder the one-shot reader leaves there.
    pub(crate) fn decode(&self, codes: &[u32]) -> Column {
        fn cells<T: Clone + Default>(d: &[Option<T>], codes: &[u32]) -> Vec<T> {
            codes
                .iter()
                .map(|&c| d[c as usize].clone().unwrap_or_default())
                .collect()
        }
        let data = match self {
            Dict::Int(d) => ColumnData::Int(cells(d, codes)),
            Dict::Float(d) => ColumnData::Float(cells(d, codes)),
            Dict::Str(d) => ColumnData::Str(cells(d, codes)),
            Dict::Date(d) => ColumnData::Date(cells(d, codes)),
        };
        match self.null_code() {
            Some(null) => Column::with_nulls(data, codes.iter().map(|&c| c == null).collect()),
            None => Column::new(data),
        }
    }
}

/// Sorts and deduplicates `values` under `cmp`, then adds the null entry
/// where `null` puts it.
fn sorted<T>(
    mut values: Vec<T>,
    cmp: impl Fn(&T, &T) -> Ordering,
    null: Option<NullPolicy>,
) -> Vec<Option<T>> {
    values.sort_unstable_by(&cmp);
    values.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
    let mut dict: Vec<Option<T>> = values.into_iter().map(Some).collect();
    if let Some(policy) = null {
        dict.reserve_exact(1);
        match policy {
            NullPolicy::First => dict.insert(0, None),
            NullPolicy::Last => dict.push(None),
        }
    }
    dict
}

/// Where the null entry sits: first or last, if anywhere.
fn null_position<T>(dict: &[Option<T>]) -> Option<usize> {
    match (dict.first(), dict.last()) {
        (Some(None), _) => Some(0),
        (_, Some(None)) => Some(dict.len() - 1),
        _ => None,
    }
}

/// The position of the non-null entry that `cmp` (entry against probe)
/// calls equal, binary-searching only the non-null entries.
fn find<T>(dict: &[Option<T>], cmp: impl Fn(&T) -> Ordering) -> Option<usize> {
    let (start, end) = match null_position(dict) {
        Some(0) => (1, dict.len()),
        Some(last) => (0, last),
        None => (0, dict.len()),
    };
    // Every entry of the slice is `Some`, so the `None` arm never runs.
    dict[start..end]
        .binary_search_by(|x| x.as_ref().map_or(Ordering::Less, &cmp))
        .ok()
        .map(|i| start + i)
}

/// `out[codes[row]] = cell(row)` — inverts the encoding into a dictionary
/// (`None` lands at the null rank; every rank is written because codes form
/// a dense `0..card` range).
fn scatter<T: Clone>(
    values: &[T],
    mask: Option<&[bool]>,
    codes: &[u32],
    card: usize,
) -> Vec<Option<T>> {
    let mut out = vec![None; card];
    for (row, value) in values.iter().enumerate() {
        let is_null = mask.is_some_and(|m| m[row]);
        out[codes[row] as usize] = if is_null { None } else { Some(value.clone()) };
    }
    out
}

/// The generic merge-and-remap step shared by all column types.
fn grow_column<T: Clone>(
    dict: &mut Vec<T>,
    codes: &mut Vec<u32>,
    batch: &[T],
    cmp: impl Fn(&T, &T) -> Ordering,
) -> bool {
    // Unseen values, sorted and deduplicated.
    let mut missing: Vec<T> = batch
        .iter()
        .filter(|v| dict.binary_search_by(|d| cmp(d, v)).is_err())
        .cloned()
        .collect();
    missing.sort_by(&cmp);
    missing.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
    let tail_only = match (dict.last(), missing.first()) {
        (Some(top), Some(low)) => cmp(top, low) == Ordering::Less,
        _ => true,
    };
    let remapped = !missing.is_empty() && !tail_only;
    if tail_only {
        // Append-only streams (sequential keys, timestamps): every unseen
        // value sorts above the current maximum, so existing codes stand and
        // the dictionary just grows at the tail — O(Δ), no remap.
        dict.extend(missing);
    } else if remapped {
        // Merge (old and missing are disjoint) and shift the live codes.
        let old = std::mem::take(dict);
        let mut remap = vec![0u32; old.len()];
        let mut merged = Vec::with_capacity(old.len() + missing.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < missing.len() {
            let take_old = j >= missing.len()
                || (i < old.len() && cmp(&old[i], &missing[j]) == Ordering::Less);
            if take_old {
                remap[i] = merged.len() as u32;
                merged.push(old[i].clone());
                i += 1;
            } else {
                merged.push(missing[j].clone());
                j += 1;
            }
        }
        for c in codes.iter_mut() {
            *c = remap[*c as usize];
        }
        *dict = merged;
    }
    for v in batch {
        let code = dict
            .binary_search_by(|d| cmp(d, v))
            .expect("batch value present after dictionary merge");
        codes.push(code as u32);
    }
    remapped
}
