//! Streaming CSV ingest for the 100M-row scale path.
//!
//! [`crate::csv::read_csv_opts`] holds the whole file's text before
//! encoding, so a 100M-row file costs O(file) text *plus* O(file) typed
//! values before the first code is produced. [`read_csv_stream`] replaces
//! that with a **two-pass dictionary build**. Both readers drive the same
//! record tokenizer and type inference, which own the dialect (see
//! [`crate::csv`]):
//!
//! 1. **Pass 1** streams the file, collecting per column the set of
//!    distinct non-null cells (O(distinct) memory, not O(rows)) and null
//!    presence. Between the passes each set becomes the column's
//!    dictionary (`crate::dict`): typed, parsed, deduplicated *as typed
//!    values* (`"01"` and `"1"` are one Int) and sorted, with the null
//!    entry placed per [`NullPolicy`]. A value's position is exactly the
//!    dense rank [`Column::rank_encode`](crate::Column::rank_encode) would
//!    assign it.
//! 2. **Pass 2** rewinds and re-reads the file, encoding every cell by
//!    binary search straight into its `Vec<u32>` code column, allocated at
//!    exactly pass 1's row count.
//!
//! The output is differentially identical — codes, cardinalities and, via
//! [`StreamedCsv::rows`], the decoded rows — to
//! `read_csv_file_opts(..).encode()` (pinned by
//! `tests/streaming_equivalence.rs`); peak memory is O(distinct values +
//! 4 bytes per code) instead of O(rows · columns) values. The result keeps
//! the dictionaries, so any row range decodes back to the typed rows the
//! one-shot reader returns: `fastod serve --stream` replays a file from
//! them, and witnesses print cell values through [`StreamedCsv::value`].

use crate::csv::{cell, Records};
use crate::dict::Dict;
use crate::{
    AttrId, CsvOptions, EncodedRelation, NullPolicy, Relation, RelationError, Schema, Value,
};
use std::collections::HashSet;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

/// The chunk size callers pass as [`read_csv_file_stream`]'s third
/// argument, which the reader ignores.
pub const DEFAULT_CHUNK_ROWS: usize = 1 << 16;

/// Result of [`read_csv_stream`]: the encoded relation plus the per-column
/// dictionaries its codes index, which decode any row range back to the
/// one-shot reader's typed rows.
#[derive(Debug)]
pub struct StreamedCsv {
    /// The encoded relation; each code column holds exactly one `u32` per
    /// row.
    pub encoded: EncodedRelation,
    /// Estimated peak resident bytes of the ingest itself: the larger of
    /// the pass-1 distinct sets (their hash tables and string blocks, plus
    /// the table the last growth rehashes from) and the final dictionaries
    /// plus code columns (`4 · rows · columns` bytes). Feeds the
    /// `relation.peak_bytes` gauge.
    pub peak_bytes: usize,
    /// Per column: `dicts[a][code]` is the value `code` stands for.
    dicts: Vec<Dict>,
    null_policy: Option<NullPolicy>,
}

impl StreamedCsv {
    /// The rows in `range`, decoded through the dictionaries: equal to the
    /// one-shot reader's relation restricted to those rows — same schema,
    /// types, values and null policy, with `T::default()` in null slots. A
    /// reversed range decodes no rows.
    ///
    /// # Errors
    /// [`RelationError::RowOutOfRange`] when `range` ends past the last row.
    pub fn rows(&self, range: Range<usize>) -> Result<Relation, RelationError> {
        let n_rows = self.encoded.n_rows();
        if range.end > n_rows {
            return Err(RelationError::RowOutOfRange {
                row: range.end - 1,
                n_rows,
            });
        }
        let range = range.start.min(range.end)..range.end;
        let columns = self
            .dicts
            .iter()
            .enumerate()
            .map(|(a, dict)| dict.decode(&self.encoded.codes(a)[range.clone()]))
            .collect();
        Relation::with_policy(self.encoded.schema().clone(), columns, self.null_policy)
    }

    /// The cell at `row` of attribute `a` ([`Value::Null`] for a null cell).
    ///
    /// # Panics
    /// When `row` or `a` is out of range.
    pub fn value(&self, row: usize, a: AttrId) -> Value {
        self.dicts[a].value(self.encoded.code(row, a))
    }
}

/// Per-column pass-1 state: the distinct non-null cells and null presence.
#[derive(Default)]
struct Pass1Col {
    distinct: HashSet<String>,
    has_nulls: bool,
}

impl Pass1Col {
    fn see(&mut self, field: &str) {
        match cell(field) {
            None => self.has_nulls = true,
            Some(s) => {
                if !self.distinct.contains(s) {
                    self.distinct.insert(s.to_string());
                }
            }
        }
    }

    /// Resident bytes of the distinct set at its current size: its table
    /// and each string's heap block.
    fn approx_bytes(&self) -> usize {
        table_bytes(self.distinct.capacity())
            + self.distinct.iter().map(|s| heap_block(s.capacity())).sum::<usize>()
    }
}

/// Peak resident bytes of pass 1's distinct sets: each at its final size,
/// plus the half-size table that stays live while the largest set's last
/// growth rehashes. The sets grow one at a time, so one such table at most.
fn pass1_bytes(cols: &[Pass1Col]) -> usize {
    let largest = cols.iter().map(|c| table_bytes(c.distinct.capacity())).max();
    cols.iter().map(Pass1Col::approx_bytes).sum::<usize>() + largest.unwrap_or(0) / 2
}

/// Bytes of a `HashSet<String>` table with room for `capacity` entries:
/// `capacity · 8/7` buckets, each one `String` and one control byte.
fn table_bytes(capacity: usize) -> usize {
    capacity * 8 / 7 * (std::mem::size_of::<String>() + 1)
}

/// The heap block glibc's `malloc` takes for a `len`-byte request: the
/// request plus an 8-byte header, rounded up to 16, and at least 32. An
/// empty string allocates nothing.
fn heap_block(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len + 8).next_multiple_of(16).max(32)
    }
}

/// Resident bytes of a dictionary: its entries, and each string's heap
/// block.
fn dict_bytes(dict: &Dict) -> usize {
    fn entries<T>(d: &Vec<T>) -> usize {
        d.capacity() * std::mem::size_of::<T>()
    }
    match dict {
        Dict::Int(d) => entries(d),
        Dict::Float(d) => entries(d),
        Dict::Date(d) => entries(d),
        Dict::Str(d) => {
            entries(d) + d.iter().flatten().map(|s| heap_block(s.capacity())).sum::<usize>()
        }
    }
}

/// Reads CSV text into an [`EncodedRelation`] via a two-pass streaming
/// dictionary build — same dialect, nulls and type inference as
/// [`crate::csv::read_csv_opts`], without materializing the file's values.
///
/// The input must be [`Seek`]able — the file is read twice. A file that
/// changes between the passes (truncated, appended, edited) fails with
/// [`RelationError::Csv`] rather than producing torn codes.
pub fn read_csv_stream<R: Read + Seek>(
    mut input: R,
    opts: CsvOptions,
) -> Result<StreamedCsv, RelationError> {
    // ---- Pass 1: distinct values and null presence. ----
    let mut records = Records::new(BufReader::new(&mut input), opts.has_header, None)?;
    let mut cols: Vec<Pass1Col> = Vec::new();
    let mut pass1_rows = 0usize;
    while records.advance()? {
        if cols.is_empty() {
            cols = records.fields().map(|_| Pass1Col::default()).collect();
        }
        for (col, field) in cols.iter_mut().zip(records.fields()) {
            col.see(field);
        }
        pass1_rows += 1;
    }
    let names = records.into_names()?;
    let n_cols = names.len();
    cols.resize_with(n_cols, Pass1Col::default);
    // Without a policy, the first null-bearing column is an error.
    if let (None, Some(a)) = (opts.null_policy, cols.iter().position(|c| c.has_nulls)) {
        return Err(RelationError::NullPolicyRequired {
            column: names[a].clone(),
        });
    }

    let pass1_bytes = pass1_bytes(&cols);
    let dicts: Vec<Dict> = cols
        .into_iter()
        .map(|c| Dict::from_distinct(c.distinct, opts.null_policy.filter(|_| c.has_nulls)))
        .collect();
    let schema = Schema::new(
        names
            .into_iter()
            .zip(&dicts)
            .map(|(n, d)| (n, d.data_type()))
            .collect(),
    )?;
    let null_codes: Vec<Option<u32>> = dicts.iter().map(Dict::null_code).collect();

    // ---- Pass 2: rewind and encode every cell into its column. ----
    input.seek(SeekFrom::Start(0))?;
    let mut columns: Vec<Vec<u32>> = (0..n_cols).map(|_| Vec::with_capacity(pass1_rows)).collect();
    let mut pass2_rows = 0usize;
    let mut records = Records::new(BufReader::new(&mut input), opts.has_header, Some(n_cols))?;
    while records.advance()? {
        let line_no = records.line_no();
        for (a, field) in records.fields().enumerate() {
            let code = match cell(field) {
                None => null_codes[a].ok_or_else(|| changed(line_no, "a null appeared"))?,
                Some(s) => dicts[a]
                    .code_of(s)
                    .ok_or_else(|| changed(line_no, "an unseen value appeared"))?,
            };
            columns[a].push(code);
        }
        pass2_rows += 1;
    }
    if pass2_rows != pass1_rows {
        return Err(changed(pass2_rows.max(pass1_rows), "the row count changed"));
    }

    let encoded = EncodedRelation::from_codes(schema, columns);
    let final_bytes = encoded.memory_bytes() + dicts.iter().map(dict_bytes).sum::<usize>();
    Ok(StreamedCsv {
        encoded,
        peak_bytes: pass1_bytes.max(final_bytes),
        dicts,
        null_policy: opts.null_policy,
    })
}

fn changed(line: usize, what: &str) -> RelationError {
    RelationError::Csv {
        line,
        message: format!("file changed between streaming passes: {what}"),
    }
}

/// Streaming variant of [`crate::csv::read_csv_file_opts`]: reads a CSV
/// file into an [`EncodedRelation`] via [`read_csv_stream`].
///
/// `_chunk_rows` is unused: pass 2 encodes straight into whole columns. The
/// parameter stays for callers that still pass [`DEFAULT_CHUNK_ROWS`].
pub fn read_csv_file_stream<P: AsRef<Path>>(
    path: P,
    opts: CsvOptions,
    _chunk_rows: usize,
) -> Result<StreamedCsv, RelationError> {
    let file = std::fs::File::open(path)?;
    read_csv_stream(file, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_csv_opts;
    use std::io::Cursor;

    fn assert_stream_matches(text: &str, opts: CsvOptions) {
        let rel = read_csv_opts(text.as_bytes(), opts).unwrap();
        let enc = rel.encode();
        let streamed = read_csv_stream(Cursor::new(text), opts).unwrap();
        assert_eq!(streamed.encoded.n_rows(), enc.n_rows());
        assert_eq!(streamed.encoded.n_attrs(), enc.n_attrs());
        for a in 0..enc.n_attrs() {
            assert_eq!(streamed.encoded.schema().name(a), rel.schema().name(a));
            assert_eq!(
                streamed.encoded.schema().data_type(a),
                rel.schema().data_type(a)
            );
            assert_eq!(streamed.encoded.codes(a), enc.codes(a), "attr {a}");
            assert_eq!(streamed.encoded.cardinality(a), enc.cardinality(a));
        }
        assert_eq!(streamed.rows(0..rel.n_rows()).unwrap(), rel);
    }

    #[test]
    fn matches_one_shot_reader() {
        let text = "id,grp,score\n3,b,1.5\n1,a,2\n2,b,1.5\n";
        assert_stream_matches(text, CsvOptions::with_header());
    }

    #[test]
    fn nulls_and_quoted_empty() {
        let text = "s,n\nx,\n,2\n\"\",3\n";
        for policy in [NullPolicy::First, NullPolicy::Last] {
            let opts = CsvOptions::with_header().null_policy(policy);
            assert_stream_matches(text, opts);
        }
    }

    #[test]
    fn null_without_policy_is_rejected() {
        let err =
            read_csv_stream(Cursor::new("a,b\n1,x\n,y\n"), CsvOptions::with_header()).unwrap_err();
        assert!(matches!(err, RelationError::NullPolicyRequired { column } if column == "a"));
    }

    /// Pass 1 charges each set's buckets, each string's malloc block and
    /// the largest set's half-size table.
    #[test]
    fn pass1_bytes_charge_tables_blocks_and_one_rehash() {
        let blocks: Vec<usize> = [0, 1, 24, 25, 40, 41].map(heap_block).into();
        assert_eq!(blocks, vec![0, 32, 32, 48, 48, 64]);
        let mut long = Pass1Col::default();
        for i in 0..1000 {
            long.see(&format!("{i:030}"));
        }
        // 1000 entries fill 2048 buckets; a 30-byte string takes 48 bytes.
        assert_eq!(long.distinct.capacity(), 1792);
        let long_bytes = 2048 * 25 + 1000 * 48;
        assert_eq!(long.approx_bytes(), long_bytes);
        let mut short = Pass1Col::default();
        for cell in ["a", "b", "b", "", "\"\""] {
            short.see(cell);
        }
        assert!(short.has_nulls);
        let short_bytes = table_bytes(short.distinct.capacity()) + 2 * 32;
        assert_eq!(short.approx_bytes(), short_bytes);
        assert_eq!(pass1_bytes(&[short, long]), short_bytes + long_bytes + 1024 * 25);
    }

    #[test]
    fn row_ranges_and_cells_decode_the_file() {
        let text = "x,y\n10,a\n20,b\n30,a\n40,c\n50,b\n";
        let streamed = read_csv_stream(Cursor::new(text), CsvOptions::with_header()).unwrap();
        let full = read_csv_opts(text.as_bytes(), CsvOptions::with_header()).unwrap();
        let mut concat = streamed.rows(0..2).unwrap();
        for range in [2..4, 4..5, 5..5] {
            concat.extend(&streamed.rows(range).unwrap()).unwrap();
        }
        assert_eq!(concat, full);
        assert_eq!(streamed.value(3, 1), Value::Str("c".into()));
        assert_eq!(streamed.value(4, 0), Value::Int(50));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = streamed.rows(4..2).unwrap();
        assert_eq!(reversed.n_rows(), 0);
        let err = streamed.rows(3..6).unwrap_err();
        assert!(matches!(err, RelationError::RowOutOfRange { row: 5, n_rows: 5 }), "{err}");
    }
}
