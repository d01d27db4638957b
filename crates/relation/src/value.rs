//! Cell values and data types.
//!
//! The paper orders "numbers numerically, strings lexicographically and dates
//! chronologically (all ascending)" (§2.1). [`Value::cmp`] implements exactly
//! that total order per type; cross-type comparisons order by type tag so
//! that heterogeneous columns (which only arise from malformed CSV input)
//! still have a deterministic total order.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    /// 64-bit signed integers, ordered numerically.
    Int,
    /// 64-bit floats, ordered by `f64::total_cmp` (a total order; NaN sorts
    /// last among positive values).
    Float,
    /// UTF-8 strings, ordered lexicographically by byte.
    Str,
    /// Calendar dates, ordered chronologically.
    Date,
}

/// Where nulls sort relative to every non-null value of a column.
///
/// Dense-rank encoding (§4.6) needs a *total* order per column, and SQL
/// deliberately leaves null placement to the query (`NULLS FIRST` /
/// `NULLS LAST`). A relation that contains nulls must therefore carry an
/// explicit policy; it is resolved once, at rank-encode time, by giving
/// nulls a dedicated rank below (`First`) or above (`Last`) every value
/// rank. The partition/validation hot path never sees the distinction —
/// it only ever compares `u32` codes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NullPolicy {
    /// Nulls sort before every non-null value (rank 0).
    First,
    /// Nulls sort after every non-null value (the largest rank).
    Last,
}

impl fmt::Display for NullPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NullPolicy::First => "nulls-first",
            NullPolicy::Last => "nulls-last",
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
        };
        f.write_str(s)
    }
}

/// A calendar date stored as days since 1970-01-01 (proleptic Gregorian).
///
/// Chronological order is integer order on the day count, so dates encode
/// directly into order-preserving ranks. The default is the epoch day.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Date(pub i32);

impl Date {
    /// Builds a date from year/month/day. Panics on out-of-range month/day.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Date {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        Date(days_from_civil(year, month, day))
    }

    /// Days since 1970-01-01.
    pub fn days(self) -> i32 {
        self.0
    }

    /// Decomposes into (year, month, day).
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0)
    }

    /// The calendar year.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// The month 1..=12.
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// The quarter 1..=4.
    pub fn quarter(self) -> u32 {
        (self.month() - 1) / 3 + 1
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

// Howard Hinnant's civil-days algorithms (public domain).
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32; // [0, 399]
    let mp = (m + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe as i32 - 719468
}

fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = (z - era * 146097) as u32; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// A single cell value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// A missing value. The containing column keeps its [`DataType`]; null
    /// placement in the order is governed by the relation's [`NullPolicy`].
    /// `Value::cmp` places nulls first — rendering and ad-hoc sorting need
    /// *some* deterministic slot — but rank encoding consults the policy,
    /// not this ordering.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value (compared with `total_cmp`, so `Eq`/`Ord` below are safe).
    Float(f64),
    /// String value.
    Str(String),
    /// Date value.
    Date(Date),
}

impl Value {
    /// The value's [`DataType`], or `None` for [`Value::Null`] (the column,
    /// not the cell, knows a null's type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Whether this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: within a type, the paper's per-type order; across types,
    /// order by type tag (only relevant for malformed mixed input).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Value {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2012, 2, 29),
            (1999, 12, 31),
            (2016, 8, 23),
            (1900, 3, 1),
            (2400, 2, 29),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.ymd(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
        assert_eq!(Date::from_ymd(1970, 1, 1).days(), 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).days(), 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).days(), -1);
    }

    #[test]
    fn date_order_is_chronological() {
        let a = Date::from_ymd(2012, 1, 1);
        let b = Date::from_ymd(2012, 6, 15);
        let c = Date::from_ymd(2016, 12, 31);
        assert!(a < b && b < c);
    }

    #[test]
    fn date_quarter() {
        assert_eq!(Date::from_ymd(2020, 1, 15).quarter(), 1);
        assert_eq!(Date::from_ymd(2020, 3, 31).quarter(), 1);
        assert_eq!(Date::from_ymd(2020, 4, 1).quarter(), 2);
        assert_eq!(Date::from_ymd(2020, 12, 31).quarter(), 4);
    }

    #[test]
    fn date_display() {
        assert_eq!(Date::from_ymd(2016, 8, 3).to_string(), "2016-08-03");
    }

    #[test]
    fn value_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("apple".into()) < Value::Str("banana".into()));
        assert!(Value::Float(1.5) < Value::Float(2.0));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Float(0.0));
        // total_cmp puts NaN above +inf.
        assert!(Value::Float(f64::INFINITY) < Value::Float(f64::NAN));
    }

    #[test]
    fn value_order_is_total_across_types() {
        let vals = vec![
            Value::Int(5),
            Value::Float(1.0),
            Value::Str("x".into()),
            Value::Date(Date::from_ymd(2000, 1, 1)),
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        // Sorting is deterministic and groups by type tag.
        assert_eq!(sorted[0], Value::Int(5));
        assert_eq!(sorted[3], Value::Date(Date::from_ymd(2000, 1, 1)));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn null_value_basics() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        // Deterministic slot in the ad-hoc Value order: nulls first.
        assert!(Value::Null < Value::Int(i64::MIN));
        assert_eq!(Value::Null.cmp(&Value::Null), Ordering::Equal);
        assert_eq!(NullPolicy::First.to_string(), "nulls-first");
        assert_eq!(NullPolicy::Last.to_string(), "nulls-last");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("a"), Value::Str("a".into()));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
    }
}
