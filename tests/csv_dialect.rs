//! The CSV dialect, pinned against a reader written straight from its
//! definition in `fastod_relation::csv`.
//!
//! Both production readers drive one tokenizer, so comparing them with each
//! other cannot catch a drift of that tokenizer from the dialect. Here a
//! definitional reader splits lines on `\n` (dropping one `\r` before it),
//! skips empty lines, splits fields with `split(',')` and `str::trim`,
//! applies the `cell` rule and types each column `Int`, `Float` or `Str` by
//! `str::parse`. Random texts built from atoms that hit every rule go
//! through both, under every null policy: tables must match cell for cell,
//! floats by bits, and errors by variant and line.

use fastod_suite::relation::csv::{read_csv_opts, CsvOptions};
use fastod_suite::relation::{DataType, NullPolicy, Relation, RelationError, Value};
use proptest::prelude::*;

/// Field contents: integers at the edges of the fast path and of `i64`,
/// floats, NaN and infinities, text, quoted empty, `\r` inside a field and
/// cells that trim to empty.
const ATOMS: &[&str] = &[
    "0",
    "-0",
    "+7",
    "01",
    "-",
    "123456789012345678",
    "-123456789012345678",
    "1234567890123456789",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "1e3",
    ".5",
    "2.5",
    "-0.0",
    "NaN",
    "-inf",
    "abc",
    "x y",
    "\"\"",
    "",
    " ",
    "a\rb",
    "\u{e9}t\u{e9}",
];

/// Padding around a field: ASCII whitespace (with the vertical tab, which
/// `u8::is_ascii_whitespace` leaves out and `str::trim` trims), U+00A0,
/// U+3000, and a `\r` that ends up before a `,` or before the `\n`.
const PADS: &[&str] = &["", "", "", " ", "\t", "\u{b}", "\u{a0}", "\u{3000}", "\r"];

/// One generated line: a shape selector, up to four fields (padding,
/// atom, padding) and an ending selector.
type Line = (u8, Vec<(usize, usize, usize)>, u8);

/// Builds a CSV text with `n_cols` columns. Most lines are records of
/// `n_cols` fields; a few are blank, whitespace-only, ragged or carry one
/// invalid UTF-8 byte. Atom indices past `ATOMS` are small integers, so
/// columns often stay numeric until a late cell changes their type.
fn build(n_cols: usize, header: bool, lines: &[Line]) -> Vec<u8> {
    let mut text = Vec::new();
    if header {
        let names: Vec<String> = (0..n_cols).map(|a| format!("c{a}")).collect();
        text.extend_from_slice(names.join(",").as_bytes());
        text.push(b'\n');
    }
    for (i, (shape, fields, ending)) in lines.iter().enumerate() {
        let width = match shape {
            0 => 0,
            1 => {
                text.extend_from_slice(" ".as_bytes());
                0
            }
            2 => n_cols + 1,
            3 => n_cols - 1,
            _ => n_cols,
        };
        for (f, &(left, atom, right)) in fields.iter().take(width).enumerate() {
            if f > 0 {
                text.push(b',');
            }
            text.extend_from_slice(PADS[left].as_bytes());
            match ATOMS.get(atom) {
                Some(a) => text.extend_from_slice(a.as_bytes()),
                None => text.extend_from_slice((atom - ATOMS.len()).to_string().as_bytes()),
            }
            text.extend_from_slice(PADS[right].as_bytes());
        }
        if *shape == 4 {
            text.push(0xff);
        }
        match ending {
            0 => text.extend_from_slice(b"\r\n"),
            1 if i + 1 == lines.len() => {}
            _ => text.push(b'\n'),
        }
    }
    text
}

/// A cell as the dialect fixes it; floats by bits.
#[derive(Debug, PartialEq)]
enum Cell {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
}

/// What a read produces, reduced to what the dialect fixes: per column its
/// name, type and cells, or the error's variant and line.
#[derive(Debug, PartialEq)]
enum Outcome {
    Table(Vec<(String, DataType, Vec<Cell>)>),
    Error(String, Option<usize>),
}

fn outcome(read: Result<Relation, RelationError>) -> Outcome {
    let rel = match read {
        Ok(rel) => rel,
        Err(RelationError::Csv { line, .. }) => return Outcome::Error("Csv".into(), Some(line)),
        Err(RelationError::Io(e)) => return Outcome::Error(format!("Io {:?}", e.kind()), None),
        Err(e) => return Outcome::Error(format!("{e:?}"), None),
    };
    let columns = (0..rel.n_attrs())
        .map(|a| {
            let cells = (0..rel.n_rows())
                .map(|row| match rel.value(row, a) {
                    Value::Null => Cell::Null,
                    Value::Int(v) => Cell::Int(v),
                    Value::Float(v) => Cell::Float(v.to_bits()),
                    Value::Str(s) => Cell::Str(s),
                    Value::Date(d) => unreachable!("the dialect reads no dates: {d}"),
                })
                .collect();
            (
                rel.schema().name(a).to_string(),
                rel.schema().data_type(a),
                cells,
            )
        })
        .collect();
    Outcome::Table(columns)
}

/// The dialect, read literally, one line and one rule at a time.
fn definitional(text: &[u8], has_header: bool, policy: Option<NullPolicy>) -> Outcome {
    let csv_error = |line| Outcome::Error("Csv".into(), Some(line));
    let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
    // The piece after the last `\n` is a line only when it is not empty.
    let last_ended = lines.last().is_some_and(|tail| tail.is_empty());
    if last_ended {
        lines.pop();
    }
    let mut header: Option<Vec<String>> = None;
    let mut records: Vec<Vec<String>> = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let ended = i + 1 < lines.len() || last_ended;
        let raw = match raw.strip_suffix(b"\r") {
            Some(stripped) if ended => stripped,
            _ => raw,
        };
        let Ok(line) = std::str::from_utf8(raw) else {
            return Outcome::Error("Io InvalidData".into(), None);
        };
        let fields = || {
            line.split(',')
                .map(|f| f.trim().to_string())
                .collect::<Vec<_>>()
        };
        if has_header && i == 0 {
            header = Some(fields());
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let fields = fields();
        if records
            .first()
            .is_some_and(|first| first.len() != fields.len())
        {
            return csv_error(i + 1);
        }
        records.push(fields);
    }
    if has_header && lines.is_empty() {
        return csv_error(1);
    }
    let width = records.first().map(Vec::len);
    let names = match (header, width) {
        (Some(h), Some(n)) if h.len() != n => return csv_error(1),
        (Some(h), _) => h,
        (None, n) => (0..n.unwrap_or(0)).map(|a| format!("c{a}")).collect(),
    };
    let cell = |field: &str| match field {
        "" => None,
        "\"\"" => Some(String::new()),
        s => Some(s.to_string()),
    };
    let columns: Vec<Vec<Option<String>>> = (0..names.len())
        .map(|a| records.iter().map(|r| cell(&r[a])).collect())
        .collect();
    if policy.is_none() {
        if let Some(a) = columns.iter().position(|c| c.contains(&None)) {
            return Outcome::Error(
                format!("NullPolicyRequired {{ column: {:?} }}", names[a]),
                None,
            );
        }
    }
    let typed = names
        .into_iter()
        .zip(columns)
        .map(|(name, cells)| {
            let values = || cells.iter().flatten();
            let data_type = if values().all(|s| s.parse::<i64>().is_ok()) {
                DataType::Int
            } else if values().all(|s| s.parse::<f64>().is_ok()) {
                DataType::Float
            } else {
                DataType::Str
            };
            let cells = cells
                .iter()
                .map(|c| match (c, data_type) {
                    (None, _) => Cell::Null,
                    (Some(s), DataType::Int) => Cell::Int(s.parse().unwrap()),
                    (Some(s), DataType::Float) => Cell::Float(s.parse::<f64>().unwrap().to_bits()),
                    (Some(s), _) => Cell::Str(s.clone()),
                })
                .collect();
            (name, data_type, cells)
        })
        .collect();
    Outcome::Table(typed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn reader_matches_the_dialect_definition(
        n_cols in 1usize..4,
        has_header in any::<bool>(),
        lines in prop::collection::vec(
            (
                0u8..40,
                prop::collection::vec(
                    (0..PADS.len(), 0..ATOMS.len() + 12, 0..PADS.len()),
                    4,
                ),
                0u8..4,
            ),
            0..10,
        ),
    ) {
        let text = build(n_cols, has_header, &lines);
        for null_policy in [None, Some(NullPolicy::First), Some(NullPolicy::Last)] {
            let opts = CsvOptions { has_header, null_policy };
            prop_assert_eq!(
                outcome(read_csv_opts(&text[..], opts)),
                definitional(&text, has_header, null_policy),
                "{:?} under {:?}",
                String::from_utf8_lossy(&text),
                null_policy
            );
        }
    }
}
