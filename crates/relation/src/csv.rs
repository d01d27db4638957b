//! CSV reading and writing: one dialect, one tokenizer, one type rule.
//!
//! We control both producer and consumer inside the suite, so the dialect is
//! deliberately simple. The record tokenizer (`Records`) owns its syntax
//! and the per-type parsers (`parse_int`, `parse_float`) own its typing;
//! [`read_csv_opts`] and the streaming reader in [`crate::stream`] both go
//! through them, so they cannot drift apart.
//!
//! * **Records.** One per line. A line ends at `\n`, and a `\r\n` ending
//!   loses both bytes (as with [`std::io::BufRead::lines`]); any other `\r` is
//!   data. Input must be UTF-8; anything else is [`RelationError::Io`] with
//!   kind `InvalidData`. Empty lines are skipped, but a whitespace-only line
//!   is a record.
//! * **Fields.** A record splits at every `,` (there is no quoting or
//!   escaping) and each field is trimmed of whitespace. Every record must
//!   have as many fields as the first, or the read fails naming the line.
//! * **Header.** With `has_header`, the first line (even an empty one) names
//!   the columns; otherwise they are named `c0, c1, ...`.
//! * **Nulls.** A field that is empty after trimming is **null**. Dense-rank
//!   encoding needs a total order, so reading a null-bearing file requires
//!   an explicit [`NullPolicy`] via [`CsvOptions`]; without one the reader
//!   fails with [`RelationError::NullPolicyRequired`] naming the column.
//! * **`""`.** A field that is exactly `""` is the *empty string*, so null
//!   and empty-string cells stay distinguishable.
//! * **Types.** A column is `Int` if every non-null cell parses as `i64`,
//!   else `Float` if every one parses as `f64`, else `Str` (`str::parse`
//!   decides); an all-null column is `Int`. Dates are written as ISO strings
//!   and read back as strings, whose lexicographic order is chronological
//!   order — exactly the property the discovery algorithms need.
//!
//! [`read_csv_opts`] holds the input's bytes and parses each cell into its
//! column's type as the tokenizer yields it, a block of records at a time,
//! column by column: a column starts at `Int` and widens when a cell does
//! not parse there. The cells a column parsed before its last widening are
//! re-read at its final type from the held bytes, in one pass shared by
//! every widened column. No cell is kept as text.
//!
//! [`write_csv`] emits this dialect (nulls as empty fields, empty strings as
//! `""`, floats in a form that parses back to the same bits) and rejects any
//! cell that would not read back unchanged.

use crate::{Column, ColumnData, NullPolicy, Relation, RelationError, Schema, Value};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Options for [`read_csv_opts`] / [`read_csv_file_opts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CsvOptions {
    /// Whether the first line is a header. Without one, columns are named
    /// `c0, c1, ...`.
    pub has_header: bool,
    /// Null ordering policy for empty/whitespace-only fields. Files that
    /// contain such fields fail with [`RelationError::NullPolicyRequired`]
    /// when this is `None`.
    pub null_policy: Option<NullPolicy>,
}

impl CsvOptions {
    /// Options with a header line and no null policy.
    pub fn with_header() -> CsvOptions {
        CsvOptions {
            has_header: true,
            null_policy: None,
        }
    }

    /// Sets the null ordering policy.
    pub fn null_policy(mut self, policy: NullPolicy) -> CsvOptions {
        self.null_policy = Some(policy);
        self
    }
}

/// Bytes the tokenizer reads from its input at a time.
const BLOCK: usize = 1 << 16;

/// The record tokenizer every CSV reader drives. It reads its input in
/// blocks of whole lines, checks each block for UTF-8 at once and hands
/// out the block's records together: a record is one scan for its `\n`
/// and one for its `,`s, and nothing is allocated per line, record or
/// field. Readers walk a block column by column, so the `String`s of a
/// `Str` column are allocated side by side.
pub(crate) struct Records<R> {
    reader: R,
    /// Input read but not yet in `text`: the start of a line.
    raw: Vec<u8>,
    /// Whole lines of valid UTF-8, tokenized up to `pos`.
    text: String,
    pos: usize,
    /// Whether `reader` has reached its end.
    eof: bool,
    /// The block's records, row by row: each one's trimmed fields as
    /// ranges of `text`.
    fields: Vec<(usize, usize)>,
    /// The line each of the block's records is on.
    lines: Vec<usize>,
    /// The error of the record that ended the block, for the next call.
    pending: Option<RelationError>,
    line_no: usize,
    n_fields: Option<usize>,
    header: Option<Vec<String>>,
}

impl<R: Read> Records<R> {
    /// Starts tokenizing `reader`, consuming the header line when
    /// `has_header`. `n_fields` fixes the field count every record must
    /// have; `None` takes it from the first record.
    pub(crate) fn new(
        reader: R,
        has_header: bool,
        n_fields: Option<usize>,
    ) -> Result<Records<R>, RelationError> {
        let mut records = Records {
            reader,
            raw: Vec::new(),
            text: String::new(),
            pos: 0,
            eof: false,
            fields: Vec::new(),
            lines: Vec::new(),
            pending: None,
            line_no: 0,
            n_fields,
            header: None,
        };
        if has_header {
            if !records.refill()? {
                return Err(RelationError::Csv {
                    line: 1,
                    message: "expected a header line".into(),
                });
            }
            let line = records.next_line().expect("a refilled block holds a line");
            records.split(line);
            let names = records
                .fields
                .drain(..)
                .map(|(s, e)| records.text[s..e].to_string());
            records.header = Some(names.collect());
        }
        Ok(records)
    }

    /// Replaces `text` with the next block of whole lines; `false` at end of
    /// input.
    fn refill(&mut self) -> Result<bool, RelationError> {
        self.text.clear();
        self.pos = 0;
        let mut searched = 0;
        let end = loop {
            if let Some(i) = self.raw[searched..].iter().rposition(|&b| b == b'\n') {
                break searched + i + 1;
            }
            searched = self.raw.len();
            if self.eof {
                break searched;
            }
            let want = BLOCK.max(searched);
            self.raw.reserve(want);
            let read = (&mut self.reader)
                .take(want as u64)
                .read_to_end(&mut self.raw)?;
            self.eof = read < want;
        };
        if end == 0 {
            return Ok(false);
        }
        let text = match std::str::from_utf8(&self.raw[..end]) {
            Ok(text) => text,
            // Every line before the invalid byte is read; the line that
            // holds it fails when it is reached.
            Err(e) => {
                let valid = &self.raw[..e.valid_up_to()];
                match valid.iter().rposition(|&b| b == b'\n') {
                    Some(i) => std::str::from_utf8(&valid[..=i]).expect("a prefix of valid UTF-8"),
                    None => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "stream did not contain valid UTF-8",
                        )
                        .into())
                    }
                }
            }
        };
        self.text.push_str(text);
        self.raw.drain(..self.text.len());
        Ok(true)
    }

    /// The next line of `text`, without its `\n`/`\r\n` ending; `None`
    /// once `text` is used up.
    fn next_line(&mut self) -> Option<(usize, usize)> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if start == bytes.len() {
            return None;
        }
        self.line_no += 1;
        Some(match bytes[start..].iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.pos = start + i + 1;
                let end = start + i;
                (
                    start,
                    end - usize::from(end > start && bytes[end - 1] == b'\r'),
                )
            }
            None => {
                self.pos = bytes.len();
                (start, bytes.len())
            }
        })
    }

    /// Appends the line's trimmed fields to `fields`, split at every `,` in
    /// one scan over its bytes; returns how many. `,` is ASCII, so every
    /// split point is a char boundary.
    fn split(&mut self, (first, end): (usize, usize)) -> usize {
        let text = self.text.as_str();
        let before = self.fields.len();
        let mut start = first;
        for (i, &b) in text.as_bytes()[first..end].iter().enumerate() {
            if b == b',' {
                self.fields.push(trimmed(text, start, first + i));
                start = first + i + 1;
            }
        }
        self.fields.push(trimmed(text, start, end));
        self.fields.len() - before
    }

    /// Tokenizes the next block's records, skipping empty lines; returns how
    /// many, 0 at end of input. A record with the wrong field count is an
    /// error at its line: the block ends before it, and the next call
    /// returns the error.
    pub(crate) fn next_block(&mut self) -> Result<usize, RelationError> {
        if let Some(e) = self.pending.take() {
            return Err(e);
        }
        self.fields.clear();
        self.lines.clear();
        while self.lines.is_empty() {
            if self.pos == self.text.len() && !self.refill()? {
                return Ok(0);
            }
            while let Some(line) = self.next_line() {
                if line.0 == line.1 {
                    continue;
                }
                let found = self.split(line);
                let expected = *self.n_fields.get_or_insert(found);
                if found != expected {
                    self.fields.truncate(self.lines.len() * expected);
                    let err = RelationError::Csv {
                        line: self.line_no,
                        message: format!("expected {expected} fields, found {found}"),
                    };
                    if self.lines.is_empty() {
                        return Err(err);
                    }
                    self.pending = Some(err);
                    break;
                }
                self.lines.push(self.line_no);
            }
        }
        Ok(self.lines.len())
    }

    /// Field `a` of each of the block's records.
    pub(crate) fn column(&self, a: usize) -> impl Iterator<Item = &str> {
        let width = self.n_fields.unwrap_or_default();
        let fields = self.fields[a..].iter().step_by(width);
        fields.map(|&(start, end)| &self.text[start..end])
    }

    /// The fields of the block's record `r`.
    pub(crate) fn record(&self, r: usize) -> impl Iterator<Item = &str> {
        let width = self.n_fields.unwrap_or_default();
        let fields = self.fields[r * width..(r + 1) * width].iter();
        fields.map(|&(start, end)| &self.text[start..end])
    }

    /// The line the block's record `r` is on.
    pub(crate) fn line_of(&self, r: usize) -> usize {
        self.lines[r]
    }

    /// The field count of every record, once one is read.
    pub(crate) fn width(&self) -> Option<usize> {
        self.n_fields
    }

    /// The column names once every record is read: the header's, which
    /// must match the records' field count, or `c0, c1, ...`. A header
    /// with no records still names its columns; without either there are
    /// none.
    pub(crate) fn into_names(self) -> Result<Vec<String>, RelationError> {
        match (self.header, self.n_fields) {
            (Some(h), Some(n)) if h.len() != n => Err(RelationError::Csv {
                line: 1,
                message: format!("header has {} fields but rows have {}", h.len(), n),
            }),
            (Some(h), _) => Ok(h),
            (None, n) => Ok((0..n.unwrap_or(0)).map(|i| format!("c{i}")).collect()),
        }
    }
}

/// The range of `line[start..end]` that `str::trim` keeps. `trim` runs only
/// when an edge byte is not printable ASCII: whitespace, a control byte or
/// part of a multi-byte char.
fn trimmed(line: &str, start: usize, end: usize) -> (usize, usize) {
    let bytes = line.as_bytes();
    if start == end || (bytes[start].is_ascii_graphic() && bytes[end - 1].is_ascii_graphic()) {
        return (start, end);
    }
    let rest = line[start..end].trim_start();
    let start = end - rest.len();
    (start, start + rest.trim_end().len())
}

/// The dialect's reading of a trimmed field: `None` for null, the empty
/// string for `""`.
pub(crate) fn cell(field: &str) -> Option<&str> {
    match field {
        "" => None,
        "\"\"" => Some(""),
        s => Some(s),
    }
}

/// The dialect's `Int` rule, `str::parse::<i64>`, with an exact fast path
/// for `-?[0-9]{1,18}`: eighteen digits cannot overflow.
#[inline]
pub(crate) fn parse_int(s: &str) -> Option<i64> {
    let digits = s.strip_prefix('-').unwrap_or(s).as_bytes();
    if digits.is_empty() || digits.len() > 18 {
        return s.parse().ok();
    }
    let mut v = 0i64;
    for &d in digits {
        let d = d.wrapping_sub(b'0');
        if d > 9 {
            return s.parse().ok();
        }
        v = v * 10 + i64::from(d);
    }
    Some(if digits.len() < s.len() { -v } else { v })
}

/// The dialect's `Float` rule: `str::parse::<f64>`.
pub(crate) fn parse_float(s: &str) -> Option<f64> {
    s.parse().ok()
}

/// A column's cells parsed at the type [`infer`] chose.
pub(crate) enum Typed {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str,
}

/// The dialect's type inference over non-null cells: the first of `Int`,
/// `Float`, `Str` that every cell parses as, with the cells parsed at it.
/// Each candidate type walks `cells` once and stops at its first failure.
pub(crate) fn infer<'a, I>(cells: I) -> Typed
where
    I: Iterator<Item = &'a str> + Clone,
{
    if let Some(v) = parse_all(cells.clone(), parse_int) {
        return Typed::Int(v);
    }
    if let Some(v) = parse_all(cells, parse_float) {
        return Typed::Float(v);
    }
    Typed::Str
}

fn parse_all<'a, T>(
    cells: impl Iterator<Item = &'a str>,
    parse: fn(&str) -> Option<T>,
) -> Option<Vec<T>> {
    let mut out = Vec::with_capacity(cells.size_hint().0);
    for c in cells {
        out.push(parse(c)?);
    }
    Some(out)
}

/// One column of the one-shot reader: each cell parsed as it arrives at
/// the narrowest type every cell so far parses at. A cell that does not
/// parse there widens the column to the next type it does parse at; the
/// rows before it then hold placeholders until [`reread_stale`] parses them
/// again.
struct ColumnBuilder {
    /// `Int`, `Float` or `Str`; `T::default()` in null slots.
    cells: ColumnData,
    /// Empty until the first null, then one entry per row.
    nulls: Vec<bool>,
    /// Rows before this one hold placeholders from before the last widening.
    stale: usize,
    /// Rows to reserve for: a bound from the input's line count.
    capacity: usize,
}

impl ColumnBuilder {
    fn new(capacity: usize) -> ColumnBuilder {
        ColumnBuilder {
            cells: ColumnData::Int(Vec::with_capacity(capacity)),
            nulls: Vec::new(),
            stale: 0,
            capacity,
        }
    }

    /// Appends one trimmed field.
    #[inline]
    fn push(&mut self, field: &str) {
        let row = self.cells.len();
        let Some(s) = cell(field) else {
            if self.nulls.is_empty() {
                self.nulls.reserve_exact(self.capacity);
                self.nulls.resize(row, false);
            }
            self.nulls.push(true);
            match &mut self.cells {
                ColumnData::Int(v) => v.push(0),
                ColumnData::Float(v) => v.push(0.0),
                ColumnData::Str(v) => v.push(String::new()),
                ColumnData::Date(_) => unreachable!("the CSV dialect never types a column Date"),
            }
            return;
        };
        if !self.nulls.is_empty() {
            self.nulls.push(false);
        }
        if !self.push_cell(s) {
            self.widen(row, s);
        }
    }

    /// Moves the column to the next type that `s`, which did not parse at
    /// its type, parses at, and appends it there. The rows before it become
    /// stale.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, row: usize, s: &str) {
        self.cells = match self.cells {
            ColumnData::Int(_) if parse_float(s).is_some() => {
                ColumnData::Float(placeholders(row, self.capacity))
            }
            _ => ColumnData::Str(placeholders(row, self.capacity)),
        };
        self.stale = row;
        self.push_cell(s);
    }

    /// Parses `s` at the column's type and appends it; `false`, appending
    /// nothing, when it does not parse there.
    #[inline]
    fn push_cell(&mut self, s: &str) -> bool {
        match &mut self.cells {
            ColumnData::Int(v) => match parse_int(s) {
                Some(x) => v.push(x),
                None => return false,
            },
            ColumnData::Float(v) => match parse_float(s) {
                Some(x) => v.push(x),
                None => return false,
            },
            ColumnData::Str(v) => v.push(s.to_string()),
            ColumnData::Date(_) => unreachable!("the CSV dialect never types a column Date"),
        }
        true
    }

    /// Parses the field of a stale `row` again at the column's final type.
    /// It parsed at a narrower type, so it parses at this one.
    fn reread(&mut self, row: usize, field: &str) {
        let Some(s) = cell(field) else {
            return;
        };
        match &mut self.cells {
            ColumnData::Float(v) => {
                v[row] = parse_float(s).expect("every i64 cell parses as f64");
            }
            ColumnData::Str(v) => v[row] = s.to_string(),
            _ => unreachable!("only a widened column has stale rows"),
        }
    }

    /// The column, its storage shrunk to its length: the relation outlives
    /// the read.
    fn finish(mut self) -> Column {
        match &mut self.cells {
            ColumnData::Int(v) => v.shrink_to_fit(),
            ColumnData::Float(v) => v.shrink_to_fit(),
            ColumnData::Str(v) => v.shrink_to_fit(),
            ColumnData::Date(v) => v.shrink_to_fit(),
        }
        if self.nulls.is_empty() {
            Column::new(self.cells)
        } else {
            self.nulls.shrink_to_fit();
            Column::with_nulls(self.cells, self.nulls)
        }
    }
}

/// `row` placeholders in a vector with room for `capacity`.
fn placeholders<T: Clone + Default>(row: usize, capacity: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity);
    v.resize(row, T::default());
    v
}

/// Re-reads the stale rows of every widened column at its final type, in
/// one pass over the held input, however many columns widened.
fn reread_stale(
    input: &[u8],
    has_header: bool,
    cols: &mut [ColumnBuilder],
) -> Result<(), RelationError> {
    let stale = cols.iter().map(|c| c.stale).max().unwrap_or(0);
    if stale == 0 {
        return Ok(());
    }
    let mut records = Records::new(input, has_header, Some(cols.len()))?;
    let mut row = 0;
    while row < stale {
        let n = records.next_block()?;
        assert!(n > 0, "the held input still has its records");
        for (a, col) in cols.iter_mut().enumerate() {
            let stale = col.stale.saturating_sub(row);
            for (r, field) in records.column(a).take(stale).enumerate() {
                col.reread(row + r, field);
            }
        }
        row += n;
    }
    Ok(())
}

/// The number of `\n` bytes. Counting in runs of 255 keeps each run's count
/// in a `u8`, which the compiler vectorizes.
fn count_newlines(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|run| usize::from(run.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
}

/// Reads a relation from CSV text with no null policy — fails on files with
/// empty fields; see [`read_csv_opts`].
///
/// With `has_header == false`, columns are named `c0, c1, ...`.
pub fn read_csv<R: Read>(reader: R, has_header: bool) -> Result<Relation, RelationError> {
    read_csv_opts(
        reader,
        CsvOptions {
            has_header,
            null_policy: None,
        },
    )
}

/// Reads a relation from CSV text, resolving empty/whitespace-only fields
/// as nulls under the configured [`NullPolicy`].
pub fn read_csv_opts<R: Read>(mut reader: R, opts: CsvOptions) -> Result<Relation, RelationError> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    // Each record but the last ends at a `\n`.
    let capacity = count_newlines(&input) + 1;
    let mut records = Records::new(&input[..], opts.has_header, None)?;
    let mut cols: Vec<ColumnBuilder> = Vec::new();
    loop {
        let n = records.next_block()?;
        if n == 0 {
            break;
        }
        if cols.is_empty() {
            let width = records.width().unwrap_or_default();
            cols = (0..width).map(|_| ColumnBuilder::new(capacity)).collect();
        }
        for (a, col) in cols.iter_mut().enumerate() {
            for field in records.column(a) {
                col.push(field);
            }
        }
    }
    let names = records.into_names()?;
    // A header without rows names columns no record created.
    cols.resize_with(names.len(), || ColumnBuilder::new(0));
    reread_stale(&input, opts.has_header, &mut cols)?;
    drop(input);

    let attrs = names
        .into_iter()
        .zip(&cols)
        .map(|(n, c)| (n, c.cells.data_type()));
    let schema = Schema::new(attrs.collect())?;
    let columns = cols.into_iter().map(ColumnBuilder::finish).collect();
    Relation::with_policy(schema, columns, opts.null_policy)
}

/// Reads a relation from a CSV file on disk (no null policy — see
/// [`read_csv_file_opts`]).
pub fn read_csv_file<P: AsRef<Path>>(path: P, has_header: bool) -> Result<Relation, RelationError> {
    let file = std::fs::File::open(path)?;
    read_csv(file, has_header)
}

/// Reads a relation from a CSV file on disk with explicit [`CsvOptions`].
pub fn read_csv_file_opts<P: AsRef<Path>>(
    path: P,
    opts: CsvOptions,
) -> Result<Relation, RelationError> {
    let file = std::fs::File::open(path)?;
    read_csv_opts(file, opts)
}

/// Writes a relation as CSV (header included). The dialect has no quoting,
/// so a cell that would not read back unchanged is rejected: one containing
/// a comma or newline, a string with surrounding whitespace (which
/// includes a trailing `\r`) or that is literally `""`, and a NaN whose
/// bits neither `NaN` nor `-NaN` parses to.
pub fn write_csv<W: Write>(rel: &Relation, writer: W) -> Result<(), RelationError> {
    let mut w = BufWriter::new(writer);
    let names = rel.schema().names();
    writeln!(w, "{}", names.join(","))?;
    let mut cell = String::new();
    for row in 0..rel.n_rows() {
        for a in 0..rel.n_attrs() {
            if a > 0 {
                w.write_all(b",")?;
            }
            cell.clear();
            let v: Value = rel.value(row, a);
            use std::fmt::Write as _;
            let unreadable = |what: &str| RelationError::Csv {
                line: row + 2,
                message: format!("{what}; it would not read back unchanged"),
            };
            match &v {
                // Nulls round-trip as empty fields; empty strings as `""`
                // so the two stay distinguishable on re-read.
                Value::Null => {}
                Value::Str(s) if s.is_empty() => cell.push_str("\"\""),
                Value::Str(s) if s.trim().len() != s.len() || s == "\"\"" => {
                    return Err(unreadable(
                        "string cell has surrounding whitespace or is a literal \"\"",
                    ));
                }
                // `{:?}` keeps a float a float (`2.0`, `-0.0`, `1e300`);
                // it drops a NaN's sign, so that is spelled out.
                Value::Float(x) if x.is_nan() => {
                    cell.push_str(if x.is_sign_negative() { "-NaN" } else { "NaN" });
                    if parse_float(&cell).map(f64::to_bits) != Some(x.to_bits()) {
                        return Err(unreadable("float cell is a NaN with a payload"));
                    }
                }
                Value::Float(x) => {
                    let _ = write!(cell, "{x:?}");
                }
                _ => {
                    let _ = write!(cell, "{v}");
                }
            }
            if cell.contains(',') || cell.contains('\n') {
                return Err(RelationError::Csv {
                    line: row + 2,
                    message: "cell contains a delimiter; quoting is not supported".into(),
                });
            }
            w.write_all(cell.as_bytes())?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a relation to a CSV file on disk.
pub fn write_csv_file<P: AsRef<Path>>(rel: &Relation, path: P) -> Result<(), RelationError> {
    let file = std::fs::File::create(path)?;
    write_csv(rel, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, RelationBuilder};

    /// The `Int` fast path agrees with `str::parse::<i64>` on the shapes it
    /// takes and on those it hands on: signs, leading zeros, 18 and 19
    /// digits, both ends of `i64` and one past them, and random digit
    /// strings of every length up to 20.
    #[test]
    fn int_fast_path_matches_str_parse() {
        let mut cases: Vec<String> = [
            "",
            "-",
            "+",
            "--1",
            "-+7",
            "+7",
            "7-",
            " 7",
            "0",
            "-0",
            "+0",
            "007",
            "1e3",
            "1.0",
            "\u{967}",
            "999999999999999999",
            "-999999999999999999",
            "1000000000000000000",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "00000000000000000001",
        ]
        .map(String::from)
        .into();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in 1..=20 {
            for _ in 0..50 {
                let digits: String = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        char::from(b'0' + (x % 10) as u8)
                    })
                    .collect();
                cases.push(format!("-{digits}"));
                cases.push(digits);
            }
        }
        for s in cases {
            assert_eq!(parse_int(&s), s.parse::<i64>().ok(), "{s:?}");
        }
    }

    #[test]
    fn roundtrip_with_header() {
        let rel = RelationBuilder::new()
            .column_i64("id", vec![2, 1])
            .column_str("name", vec!["bob", "amy"])
            .column_f64("score", vec![1.5, 2.0])
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("id,name,score\n"));
        let back = read_csv(&buf[..], true).unwrap();
        assert_eq!(back.schema().name(0), "id");
        assert_eq!(back.schema().data_type(0), DataType::Int);
        assert_eq!(back.schema().data_type(2), DataType::Float);
        assert_eq!(back.value(1, 1), Value::Str("amy".into()));
    }

    #[test]
    fn headerless_names() {
        let rel = read_csv("1,x\n2,y\n".as_bytes(), false).unwrap();
        assert_eq!(rel.schema().name(0), "c0");
        assert_eq!(rel.schema().name(1), "c1");
        assert_eq!(rel.n_rows(), 2);
    }

    #[test]
    fn type_inference_fallbacks() {
        let rel = read_csv("a,b,c\n1,1.5,x\n2,2,y\n".as_bytes(), true).unwrap();
        assert_eq!(rel.schema().data_type(0), DataType::Int);
        assert_eq!(rel.schema().data_type(1), DataType::Float);
        assert_eq!(rel.schema().data_type(2), DataType::Str);
    }

    #[test]
    fn mixed_int_str_becomes_str() {
        let rel = read_csv("a\n1\nx\n".as_bytes(), true).unwrap();
        assert_eq!(rel.schema().data_type(0), DataType::Str);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv("a,b\n1,2\n3\n".as_bytes(), true).unwrap_err();
        assert!(matches!(err, RelationError::Csv { line: 3, .. }));
    }

    #[test]
    fn empty_lines_skipped() {
        let rel = read_csv("a\n1\n\n2\n".as_bytes(), true).unwrap();
        assert_eq!(rel.n_rows(), 2);
    }

    #[test]
    fn unquotable_cell_rejected_on_write() {
        let rel = RelationBuilder::new()
            .column_str("s", vec!["a,b"])
            .build()
            .unwrap();
        let mut buf = Vec::new();
        assert!(write_csv(&rel, &mut buf).is_err());
    }

    #[test]
    fn cells_that_would_not_read_back_rejected_on_write() {
        for bad in [" x", "x ", "\"\"", "a\r"] {
            let rel = RelationBuilder::new()
                .column_str("s", vec![bad])
                .build()
                .unwrap();
            let err = write_csv(&rel, &mut Vec::new()).unwrap_err();
            assert!(
                matches!(err, RelationError::Csv { line: 2, .. }),
                "{bad:?}: {err}"
            );
        }
        // An inner `\r` or space reads back unchanged, so it is written.
        let rel = RelationBuilder::new()
            .column_str("s", vec!["a\rb c"])
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        assert_eq!(read_csv(&buf[..], true).unwrap(), rel);
    }

    #[test]
    fn empty_fields_need_a_policy() {
        let err = read_csv("a,b\n1,x\n,y\n".as_bytes(), true).unwrap_err();
        assert!(matches!(err, RelationError::NullPolicyRequired { column } if column == "a"));
        // Whitespace-only fields are nulls too.
        let err = read_csv("a,b\n1,x\n2,   \n".as_bytes(), true).unwrap_err();
        assert!(matches!(err, RelationError::NullPolicyRequired { column } if column == "b"));
    }

    #[test]
    fn empty_fields_parse_as_nulls_with_policy() {
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::First);
        let rel = read_csv_opts("a,b\n1,x\n,y\n3,\n".as_bytes(), opts).unwrap();
        // Nulls don't demote the column type: `a` stays Int.
        assert_eq!(rel.schema().data_type(0), DataType::Int);
        assert_eq!(rel.value(1, 0), Value::Null);
        assert_eq!(rel.value(2, 1), Value::Null);
        assert_eq!(rel.value(2, 0), Value::Int(3));
        let enc = rel.encode();
        // Nulls-first: null < 1 < 3.
        assert_eq!(enc.codes(0), &[1, 0, 2]);
    }

    #[test]
    fn quoted_empty_is_empty_string_not_null() {
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::Last);
        let rel = read_csv_opts("s\n\"\"\n\nx\n".as_bytes(), opts).unwrap();
        // Line 3 is blank → skipped entirely (record separator semantics),
        // so rows are: empty string, then "x"... plus nothing else.
        assert_eq!(rel.n_rows(), 2);
        assert_eq!(rel.value(0, 0), Value::Str(String::new()));
        assert_eq!(rel.value(1, 0), Value::Str("x".into()));
    }

    #[test]
    fn null_and_empty_string_roundtrip() {
        let rel = RelationBuilder::new()
            .column_str_opt("s", vec![Some("x"), None, Some("")])
            .column_i64_opt("n", vec![None, Some(2), Some(3)])
            .null_policy(crate::NullPolicy::Last)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text, "s,n\nx,\n,2\n\"\",3\n");
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::Last);
        let back = read_csv_opts(&buf[..], opts).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn all_null_column_defaults_to_int() {
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::First);
        let rel = read_csv_opts("a,b\n,1\n,2\n".as_bytes(), opts).unwrap();
        assert_eq!(rel.schema().data_type(0), DataType::Int);
        assert_eq!(rel.value(0, 0), Value::Null);
        assert_eq!(rel.encode().cardinality(0), 1);
    }

    #[test]
    fn file_roundtrip() {
        let rel = RelationBuilder::new()
            .column_i64("n", vec![1, 2, 3])
            .build()
            .unwrap();
        /// Deletes the file when dropped, so a failed assertion leaves
        /// nothing behind.
        struct RemoveOnDrop(std::path::PathBuf);
        impl Drop for RemoveOnDrop {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let path =
            std::env::temp_dir().join(format!("fastod_csv_test_{}.csv", std::process::id()));
        let _cleanup = RemoveOnDrop(path.clone());
        write_csv_file(&rel, &path).unwrap();
        let back = read_csv_file(&path, true).unwrap();
        assert_eq!(back, rel);
    }
}
