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
//!    presence. Between the passes each set is typed, parsed, deduplicated
//!    *as typed values* (`"01"` and `"1"` are one Int) and sorted — the
//!    sorted position is exactly the dense rank
//!    [`Column::rank_encode`](crate::Column::rank_encode) would assign, with
//!    the dedicated null rank spliced in per [`NullPolicy`].
//! 2. **Pass 2** rewinds and re-reads the file, encoding every cell by
//!    binary search straight into its `Vec<u32>` code column, allocated at
//!    exactly pass 1's row count.
//!
//! The output is differentially identical — codes, cardinalities, null
//! masks — to `read_csv_file_opts(..).encode()` (pinned by
//! `tests/streaming_equivalence.rs`); peak memory is O(distinct values +
//! 4 bytes per code) instead of O(rows · columns) values.
//!
//! [`CsvChunks`] is the sibling reader for consumers that need *raw typed
//! rows* rather than codes (the serving layer's batch replay): pass 1
//! infers global column types one chunk at a time, then the file is re-read
//! as a sequence of [`Relation`] chunks sharing one schema.

use crate::csv::{cell, infer, Records, TextColumn, Typed};
use crate::{
    CsvOptions, DataType, EncodedRelation, NullPolicy, Relation, RelationBuilder, RelationError,
    Schema,
};
use std::collections::HashSet;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

/// The chunk size callers pass as [`read_csv_file_stream`]'s third
/// argument, which the reader ignores.
pub const DEFAULT_CHUNK_ROWS: usize = 1 << 16;

/// Result of [`read_csv_stream`]: an encoded relation plus the per-column
/// null masks (needed by consumers that must distinguish the null rank from
/// value ranks; `None` for null-free columns).
#[derive(Debug)]
pub struct StreamedCsv {
    /// The encoded relation; each code column holds exactly one `u32` per
    /// row.
    pub encoded: EncodedRelation,
    /// Per column: `Some(mask)` iff the column contains nulls
    /// (`mask[row]` true ⇒ null), mirroring
    /// [`Column::null_mask`](crate::Column::null_mask).
    pub null_masks: Vec<Option<Vec<bool>>>,
    /// Estimated peak resident bytes of the ingest itself: the larger of
    /// the pass-1 distinct sets (their hash tables and string blocks, plus
    /// the table the last growth rehashes from) and the final dictionaries
    /// plus code columns (`4 · rows · columns` bytes). Feeds the
    /// `relation.peak_bytes` gauge.
    pub peak_bytes: usize,
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

/// One column's sorted dictionary of distinct **typed** values; the index
/// of a value is its dense rank among non-null cells.
enum TypedDict {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
}

impl TypedDict {
    /// Types a column's distinct cells as the one-shot reader would type
    /// the whole column, then sorts and deduplicates the typed values.
    fn build(distinct: HashSet<String>) -> TypedDict {
        let typed = infer(DataType::Int, distinct.iter().map(|s| Some(s.as_str())));
        match typed {
            Typed::Int(mut d) => {
                d.sort_unstable();
                d.dedup();
                TypedDict::Int(d)
            }
            Typed::Float(mut d) => {
                d.sort_unstable_by(|a, b| a.total_cmp(b));
                d.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
                TypedDict::Float(d)
            }
            Typed::Str => {
                let mut d: Vec<String> = distinct.into_iter().collect();
                d.sort_unstable();
                TypedDict::Str(d)
            }
        }
    }

    fn data_type(&self) -> DataType {
        match self {
            TypedDict::Int(_) => DataType::Int,
            TypedDict::Float(_) => DataType::Float,
            TypedDict::Str(_) => DataType::Str,
        }
    }

    fn len(&self) -> usize {
        match self {
            TypedDict::Int(d) => d.len(),
            TypedDict::Float(d) => d.len(),
            TypedDict::Str(d) => d.len(),
        }
    }

    /// The dense rank of a non-null cell, or `None` when the cell does not
    /// parse / is absent — i.e. the file changed between the passes.
    fn rank_of(&self, cell: &str) -> Option<usize> {
        match self {
            TypedDict::Int(d) => d.binary_search(&cell.parse::<i64>().ok()?).ok(),
            TypedDict::Float(d) => {
                let v = cell.parse::<f64>().ok()?;
                d.binary_search_by(|x| x.total_cmp(&v)).ok()
            }
            TypedDict::Str(d) => d.binary_search_by(|x| x.as_str().cmp(cell)).ok(),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            TypedDict::Int(d) => d.capacity() * 8,
            TypedDict::Float(d) => d.capacity() * 8,
            TypedDict::Str(d) => d.iter().map(|s| s.capacity() + 24).sum(),
        }
    }
}

/// Fails with [`RelationError::NullPolicyRequired`] naming the first
/// null-bearing column when no policy is set.
fn require_policy(
    opts: CsvOptions,
    names: &[String],
    has_nulls: &[bool],
) -> Result<(), RelationError> {
    match has_nulls.iter().position(|&nulls| nulls) {
        Some(a) if opts.null_policy.is_none() => Err(RelationError::NullPolicyRequired {
            column: names[a].clone(),
        }),
        _ => Ok(()),
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
    let has_nulls: Vec<bool> = cols.iter().map(|c| c.has_nulls).collect();
    require_policy(opts, &names, &has_nulls)?;

    let pass1_bytes = pass1_bytes(&cols);
    let dicts: Vec<TypedDict> = cols
        .into_iter()
        .map(|c| TypedDict::build(c.distinct))
        .collect();
    let schema = Schema::new(
        names
            .into_iter()
            .zip(&dicts)
            .map(|(n, d)| (n, d.data_type()))
            .collect(),
    )?;

    // Rank layout per column (matching `rank_encode_nullable`): nulls share
    // one rank at the front (`First`) or back (`Last`) of the value ranks.
    let policy = opts.null_policy.unwrap_or(NullPolicy::First);
    let offsets: Vec<u32> = has_nulls
        .iter()
        .map(|&nulls| u32::from(nulls && policy == NullPolicy::First))
        .collect();
    let null_codes: Vec<u32> = dicts
        .iter()
        .map(|d| match policy {
            NullPolicy::First => 0,
            NullPolicy::Last => d.len() as u32,
        })
        .collect();

    // ---- Pass 2: rewind and encode every cell into its column. ----
    input.seek(SeekFrom::Start(0))?;
    let mut columns: Vec<Vec<u32>> = (0..n_cols).map(|_| Vec::with_capacity(pass1_rows)).collect();
    let mut masks: Vec<Option<Vec<bool>>> = has_nulls
        .iter()
        .map(|&nulls| nulls.then(|| Vec::with_capacity(pass1_rows)))
        .collect();
    let mut pass2_rows = 0usize;
    let mut records = Records::new(BufReader::new(&mut input), opts.has_header, Some(n_cols))?;
    while records.advance()? {
        let line_no = records.line_no();
        for (a, field) in records.fields().enumerate() {
            let code = match cell(field) {
                None => {
                    let Some(mask) = &mut masks[a] else {
                        return Err(changed(line_no, "a null appeared"));
                    };
                    mask.resize(pass2_rows, false);
                    mask.push(true);
                    null_codes[a]
                }
                Some(s) => match dicts[a].rank_of(s) {
                    Some(rank) => rank as u32 + offsets[a],
                    None => return Err(changed(line_no, "an unseen value appeared")),
                },
            };
            columns[a].push(code);
        }
        pass2_rows += 1;
    }
    if pass2_rows != pass1_rows {
        return Err(changed(pass2_rows.max(pass1_rows), "the row count changed"));
    }
    // Null masks are row-complete per column; pad the tail of rows whose
    // column saw no further nulls.
    for mask in masks.iter_mut().flatten() {
        mask.resize(pass1_rows, false);
    }

    let encoded = EncodedRelation::from_codes(schema, columns);
    let final_bytes =
        encoded.memory_bytes() + dicts.iter().map(TypedDict::approx_bytes).sum::<usize>();
    Ok(StreamedCsv {
        encoded,
        null_masks: masks,
        peak_bytes: pass1_bytes.max(final_bytes),
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

/// An iterator of raw typed [`Relation`] chunks over a CSV input, sharing
/// one globally inferred schema.
///
/// Pass 1 scans the whole input once for column types and null presence,
/// holding the text of at most one chunk (a chunk can only widen a column's
/// type, so the global type is the widest of the chunks'); the iterator
/// then re-reads the input yielding up to `chunk_rows` rows per
/// [`Relation`]. Because the types are global, every chunk has the same
/// schema and can be fed to [`crate::GrowableRelation::extend`] — which is
/// exactly how `fastod serve --stream` replays a file as an append
/// workload.
pub struct CsvChunks<R: Read> {
    records: Records<BufReader<R>>,
    /// The current chunk's text, reused from chunk to chunk.
    text: Vec<TextColumn>,
    names: Vec<String>,
    types: Vec<DataType>,
    policy: Option<NullPolicy>,
    n_rows: usize,
    chunk_rows: usize,
    emitted: usize,
    failed: bool,
}

impl<R: Read + Seek> CsvChunks<R> {
    /// Builds the chunk reader: pass 1 infers the global schema, then the
    /// input is rewound for iteration. `chunk_rows == 0` means whole-file.
    pub fn new(
        mut input: R,
        opts: CsvOptions,
        chunk_rows: usize,
    ) -> Result<CsvChunks<R>, RelationError> {
        let chunk_rows = if chunk_rows == 0 {
            usize::MAX
        } else {
            chunk_rows
        };
        let mut records = Records::new(BufReader::new(&mut input), opts.has_header, None)?;
        let mut text: Vec<TextColumn> = Vec::new();
        let mut types: Vec<DataType> = Vec::new();
        let mut has_nulls: Vec<bool> = Vec::new();
        let mut widen = |text: &mut Vec<TextColumn>| {
            types.resize(text.len(), DataType::Int);
            has_nulls.resize(text.len(), false);
            for (a, col) in text.iter_mut().enumerate() {
                types[a] = infer(types[a], col.cells()).data_type();
                has_nulls[a] |= col.cells().any(|c| c.is_none());
                col.clear();
            }
        };
        let mut n_rows = 0usize;
        while records.advance()? {
            records.push_to(&mut text);
            n_rows += 1;
            if n_rows.is_multiple_of(chunk_rows) {
                widen(&mut text);
            }
        }
        let names = records.into_names()?;
        text.resize_with(names.len(), TextColumn::default);
        widen(&mut text);
        require_policy(opts, &names, &has_nulls)?;

        input.seek(SeekFrom::Start(0))?;
        let records = Records::new(BufReader::new(input), opts.has_header, Some(names.len()))?;
        Ok(CsvChunks {
            records,
            text,
            names,
            types,
            policy: opts.null_policy,
            n_rows,
            chunk_rows,
            emitted: 0,
            failed: false,
        })
    }
}

impl<R: Read> CsvChunks<R> {
    /// Total data rows counted by pass 1.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column names (header or `c0, c1, ...`).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Globally inferred column types.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    fn next_chunk(&mut self) -> Result<Option<Relation>, RelationError> {
        let first_line = self.records.line_no() + 1;
        let mut rows = 0usize;
        let mut eof = false;
        while rows < self.chunk_rows {
            if !self.records.advance()? {
                eof = true;
                break;
            }
            self.records.push_to(&mut self.text);
            rows += 1;
        }
        // Truncation is reported the moment the end of input is seen, so a
        // short final chunk never escapes as `Ok` ahead of the error.
        if eof && self.emitted + rows != self.n_rows {
            return Err(changed(self.records.line_no(), "the row count changed"));
        }
        if rows == 0 {
            return Ok(None);
        }
        self.emitted += rows;
        if self.emitted > self.n_rows {
            return Err(changed(self.records.line_no(), "the row count changed"));
        }
        let mut builder = RelationBuilder::new();
        if let Some(policy) = self.policy {
            builder = builder.null_policy(policy);
        }
        for ((name, &ty), col) in self.names.iter().zip(&self.types).zip(&mut self.text) {
            let column = col.to_column(ty);
            col.clear();
            if column.data_type() != ty {
                let what = match ty {
                    DataType::Int => "an Int column stopped parsing",
                    _ => "a Float column stopped parsing",
                };
                return Err(changed(first_line, what));
            }
            builder = builder.column_raw(name, column);
        }
        builder.build().map(Some)
    }
}

impl<R: Read> Iterator for CsvChunks<R> {
    type Item = Result<Relation, RelationError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_chunk() {
            Ok(rel) => rel.map(Ok),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// [`CsvChunks`] over a file on disk.
pub fn read_csv_file_chunks<P: AsRef<Path>>(
    path: P,
    opts: CsvOptions,
    chunk_rows: usize,
) -> Result<CsvChunks<std::fs::File>, RelationError> {
    let file = std::fs::File::open(path)?;
    CsvChunks::new(file, opts, chunk_rows)
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
            assert_eq!(
                streamed.null_masks[a].as_deref(),
                rel.column(a).null_mask(),
                "attr {a} mask"
            );
        }
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
    fn chunk_iterator_replays_the_file() {
        let text = "x,y\n10,a\n20,b\n30,a\n40,c\n50,b\n";
        let mut chunks = CsvChunks::new(Cursor::new(text), CsvOptions::with_header(), 2).unwrap();
        assert_eq!(chunks.n_rows(), 5);
        let full = read_csv_opts(text.as_bytes(), CsvOptions::with_header()).unwrap();
        let mut concat: Option<Relation> = None;
        for chunk in &mut chunks {
            let chunk = chunk.unwrap();
            match &mut concat {
                None => concat = Some(chunk),
                Some(base) => {
                    base.extend(&chunk).unwrap();
                }
            }
        }
        assert_eq!(concat.unwrap(), full);
    }
}
