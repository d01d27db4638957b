//! Relational substrate for the FASTOD order-dependency discovery suite.
//!
//! This crate provides the data layer everything else builds on:
//!
//! * [`Schema`] — attribute names and [`DataType`]s;
//! * [`Value`] / [`Column`] — typed cell values and columnar storage;
//! * [`Relation`] — an immutable table instance (what the paper calls `r`
//!   over schema `R`);
//! * [`EncodedRelation`] — the order-preserving dense-rank integer encoding
//!   from §4.6 of the paper ("the values of the columns are replaced with
//!   integers 1, 2, ..., n, in a way that the equivalence classes do not
//!   change and the ordering is preserved"). All dependency validation in the
//!   suite operates on these `u32` codes;
//! * [`AttrSet`] — a 64-bit attribute-set bitset used for lattice nodes and
//!   canonical-OD contexts;
//! * [`csv`] — a minimal CSV reader/writer with type inference.
//!
//! # Example
//!
//! ```
//! use fastod_relation::{RelationBuilder, Value};
//!
//! let rel = RelationBuilder::new()
//!     .column_i64("salary", vec![5, 8, 10, 4, 6, 8])
//!     .column_str("grp", vec!["A", "C", "D", "A", "C", "C"])
//!     .build()
//!     .unwrap();
//! assert_eq!(rel.n_rows(), 6);
//! assert_eq!(rel.value(0, 0), Value::Int(5));
//!
//! let enc = rel.encode();
//! // Encoding preserves order: salary 4 gets the smallest code.
//! assert_eq!(enc.code(3, 0), 0);
//! ```

#![deny(missing_docs)]

mod attr;
mod column;
pub mod csv;
mod dict;
mod encode;
mod error;
mod grow;
mod relation;
pub mod sample;
mod schema;
pub mod stats;
pub mod stream;
mod value;

pub use attr::{AttrId, AttrSet, AttrSetIter};
pub use sample::{sample_fraction, sample_rows};
pub use stats::{profile, ColumnProfile, RelationProfile};
pub use column::{Column, ColumnData};
pub use encode::EncodedRelation;
pub use error::RelationError;
pub use grow::GrowableRelation;
pub use relation::{Relation, RelationBuilder};
pub use schema::Schema;
pub use csv::CsvOptions;
pub use stream::{read_csv_file_stream, read_csv_stream, StreamedCsv};
pub use value::{DataType, Date, NullPolicy, Value};
