//! CSV reading and writing: one dialect, one tokenizer, one inference rule.
//!
//! We control both producer and consumer inside the suite, so the dialect is
//! deliberately simple. The record tokenizer (`Records`) owns its syntax
//! and `infer` owns its typing; [`read_csv_opts`] and the streaming
//! reader in [`crate::stream`] both go through them, so they cannot drift
//! apart.
//!
//! * **Records.** One per line. A line ends at `\n`, and a `\r\n` ending
//!   loses both bytes (as with [`BufRead::lines`]); any other `\r` is data.
//!   Input must be UTF-8; anything else is [`RelationError::Io`] with kind
//!   `InvalidData`. Empty lines are skipped, but a whitespace-only line is a
//!   record.
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
//!   else `Float` if every one parses as `f64`, else `Str`; an all-null
//!   column is `Int`. Dates are written as ISO strings and read back as
//!   strings, whose lexicographic order is chronological order — exactly the
//!   property the discovery algorithms need.
//!
//! [`write_csv`] emits this dialect (nulls as empty fields, empty strings as
//! `""`) and rejects any string cell that would not read back unchanged.

use crate::{Column, ColumnData, NullPolicy, Relation, RelationBuilder, RelationError, Value};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::str::FromStr;

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

/// The record tokenizer every CSV reader drives: one reused line buffer, one
/// UTF-8 check per line, no allocation per record or field.
pub(crate) struct Records<R> {
    reader: R,
    /// The current line without its `\n`/`\r\n` ending.
    line: String,
    line_no: usize,
    n_fields: Option<usize>,
    header: Option<Vec<String>>,
}

impl<R: BufRead> Records<R> {
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
            line: String::new(),
            line_no: 0,
            n_fields,
            header: None,
        };
        if has_header {
            if !records.read_line()? {
                return Err(RelationError::Csv {
                    line: 1,
                    message: "expected a header line".into(),
                });
            }
            records.header = Some(records.fields().map(str::to_string).collect());
        }
        Ok(records)
    }

    /// Reads the next line into `self.line`; `false` at end of input.
    fn read_line(&mut self) -> Result<bool, RelationError> {
        let mut buf = std::mem::take(&mut self.line).into_bytes();
        buf.clear();
        if self.reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(false);
        }
        self.line_no += 1;
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        self.line = String::from_utf8(buf).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        Ok(true)
    }

    /// Advances to the next record, skipping empty lines; `false` at end of
    /// input. A record with the wrong field count is an error at its line.
    pub(crate) fn advance(&mut self) -> Result<bool, RelationError> {
        while self.read_line()? {
            if self.line.is_empty() {
                continue;
            }
            let found = self.line.bytes().filter(|&b| b == b',').count() + 1;
            match self.n_fields {
                None => self.n_fields = Some(found),
                Some(expected) if found != expected => {
                    return Err(RelationError::Csv {
                        line: self.line_no,
                        message: format!("expected {expected} fields, found {found}"),
                    });
                }
                Some(_) => {}
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// The current record's trimmed fields.
    pub(crate) fn fields(&self) -> impl Iterator<Item = &str> {
        self.line.split(',').map(str::trim)
    }

    /// Appends the current record's fields to per-column text arenas,
    /// creating the columns on the first record.
    fn push_to(&self, cols: &mut Vec<TextColumn>) {
        for (a, field) in self.fields().enumerate() {
            if a == cols.len() {
                cols.push(TextColumn::default());
            }
            cols[a].push(field);
        }
    }

    /// The 1-based number of the last line read.
    pub(crate) fn line_no(&self) -> usize {
        self.line_no
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

/// The dialect's reading of a trimmed field: `None` for null, the empty
/// string for `""`.
pub(crate) fn cell(field: &str) -> Option<&str> {
    match field {
        "" => None,
        "\"\"" => Some(""),
        s => Some(s),
    }
}

/// A column's cells parsed at the type [`infer`] chose.
pub(crate) enum Typed {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str,
}

/// The dialect's type inference: the first of `Int`, `Float`, `Str` that
/// every non-null cell (`None` is null) parses as with `str::parse`, with
/// the cells parsed at it (nulls as zero). Each candidate type walks `cells`
/// once and stops at its first failure.
pub(crate) fn infer<'a, I>(cells: I) -> Typed
where
    I: Iterator<Item = Option<&'a str>> + Clone,
{
    if let Some(v) = parse_all(cells.clone()) {
        return Typed::Int(v);
    }
    if let Some(v) = parse_all(cells) {
        return Typed::Float(v);
    }
    Typed::Str
}

fn parse_all<'a, T: FromStr + Default>(
    cells: impl Iterator<Item = Option<&'a str>>,
) -> Option<Vec<T>> {
    let mut out = Vec::with_capacity(cells.size_hint().0);
    for c in cells {
        out.push(match c {
            None => T::default(),
            Some(s) => s.parse().ok()?,
        });
    }
    Some(out)
}

/// One column's trimmed fields back to back in one `String`: field `i` is
/// `text[ends[i - 1]..ends[i]]`.
#[derive(Default)]
struct TextColumn {
    text: String,
    ends: Vec<usize>,
}

impl TextColumn {
    fn push(&mut self, field: &str) {
        self.text.push_str(field);
        self.ends.push(self.text.len());
    }

    /// The column's cells in the dialect's reading (see [`cell`]).
    fn cells(&self) -> impl Iterator<Item = Option<&str>> + Clone {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| cell(&self.text[start..end]))
    }

    /// The typed column with its null mask. Only a `Str` column builds a
    /// `String` per cell.
    fn to_column(&self) -> Column {
        let data = match infer(self.cells()) {
            Typed::Int(v) => ColumnData::Int(v),
            Typed::Float(v) => ColumnData::Float(v),
            Typed::Str => ColumnData::Str(
                self.cells()
                    .map(|c| c.unwrap_or_default().to_string())
                    .collect(),
            ),
        };
        Column::with_nulls(data, self.cells().map(|c| c.is_none()).collect())
    }
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
pub fn read_csv_opts<R: Read>(reader: R, opts: CsvOptions) -> Result<Relation, RelationError> {
    let mut records = Records::new(BufReader::new(reader), opts.has_header, None)?;
    let mut text: Vec<TextColumn> = Vec::new();
    while records.advance()? {
        records.push_to(&mut text);
    }
    let names = records.into_names()?;
    // A header without rows names columns no record created.
    text.resize_with(names.len(), TextColumn::default);

    let mut builder = RelationBuilder::new();
    if let Some(policy) = opts.null_policy {
        builder = builder.null_policy(policy);
    }
    for (name, col) in names.iter().zip(text) {
        builder = builder.column_raw(name, col.to_column());
    }
    builder.build()
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
/// a comma or newline, and a string with surrounding whitespace (which
/// includes a trailing `\r`) or that is literally `""`.
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
            match &v {
                // Nulls round-trip as empty fields; empty strings as `""`
                // so the two stay distinguishable on re-read.
                Value::Null => {}
                Value::Str(s) if s.is_empty() => cell.push_str("\"\""),
                Value::Str(s) if s.trim().len() != s.len() || s == "\"\"" => {
                    return Err(RelationError::Csv {
                        line: row + 2,
                        message: "string cell has surrounding whitespace or is a literal \"\"; \
                                  it would not read back unchanged"
                            .into(),
                    });
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
    use crate::DataType;

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
        let dir = std::env::temp_dir().join("fastod_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv_file(&rel, &path).unwrap();
        let back = read_csv_file(&path, true).unwrap();
        assert_eq!(back, rel);
    }
}
