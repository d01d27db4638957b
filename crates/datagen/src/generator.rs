//! A small workload-description language for building synthetic relations.
//!
//! Each [`ColumnSpec`] is chosen for the dependency structure it induces:
//!
//! | spec | induces |
//! |------|---------|
//! | `Constant` | `{}: [] ↦ A` — what ORDER cannot represent (§5.3) |
//! | `SequentialKey` | a surrogate key: superkey pruning, OCDs with monotone columns |
//! | `ShuffledKey` | a key with no order correlation: FDs to everything, swaps with everything |
//! | `RandomInt`/`RandomStr` | independent categoricals: swaps in every pair, FDs only via quasi-key combinations |
//! | `MonotoneOf` | `{src}: [] ↦ A` *and* `{}: src ~ A` — the salary/tax shape of Table 1 |
//! | `FdOf` | the FD `srcs → A` with order-scrambled values (no OCD at `{}`) |
//! | `NoisyMonotoneOf` | a monotone correlation with a few dirty rows — approximate-OD territory |

use fastod_relation::{ColumnData, Relation, RelationBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Errors raised by [`TableSpec::try_build`] — misuse of the workload
/// language is reported instead of aborting the process, so a bad spec in a
/// long benchmark sweep fails one run, not the whole harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GeneratorError {
    /// A spec references a source column at or after its own position.
    ForwardReference {
        /// Name of the offending column.
        column: String,
        /// Its position in the spec.
        position: usize,
        /// The out-of-range source index it references.
        source: usize,
    },
    /// The generated columns failed relation assembly.
    Assembly(String),
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorError::ForwardReference { column, position, source } => write!(
                f,
                "column `{column}` (position {position}): source must precede the column, \
                 but it references source index {source}"
            ),
            GeneratorError::Assembly(msg) => {
                write!(f, "generated columns failed relation assembly: {msg}")
            }
        }
    }
}

impl std::error::Error for GeneratorError {}

/// Column generator specification. Sources refer to columns by index and
/// must point at *earlier* columns.
#[derive(Clone, Debug)]
pub enum ColumnSpec {
    /// Every row holds the same integer.
    Constant(i64),
    /// `0, 1, 2, ...` in row order (an ordered surrogate key).
    SequentialKey,
    /// A random permutation of `0..n` (a key without order meaning).
    ShuffledKey,
    /// Uniform integers in `0..cardinality`.
    RandomInt {
        /// Number of distinct values.
        cardinality: u32,
    },
    /// Uniform strings `"v0000".."v{card-1}"` (zero-padded so lexicographic
    /// order equals numeric order).
    RandomStr {
        /// Number of distinct values.
        cardinality: u32,
    },
    /// A monotone non-decreasing function of a source column:
    /// `value = source / plateau + offset`. Induces the FD `src → A` and the
    /// order compatibility `{}: src ~ A`.
    MonotoneOf {
        /// Index of the source column.
        source: usize,
        /// Plateau width: how many source values map to one output value
        /// (1 = injective).
        plateau: u32,
    },
    /// A value functionally determined by source columns via a scrambled
    /// hash (`srcs → A` holds; order is unrelated, so swaps abound).
    FdOf {
        /// Indices of the determining columns.
        sources: Vec<usize>,
        /// Number of distinct output values.
        cardinality: u32,
    },
    /// Monotone in the source except for a fraction of perturbed rows —
    /// exercises approximate ODs.
    NoisyMonotoneOf {
        /// Index of the source column.
        source: usize,
        /// Fraction of rows receiving a random (order-breaking) value.
        dirty_fraction: f64,
    },
}

/// A full table description: named columns plus a deterministic seed.
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Dataset name (used in harness output).
    pub name: String,
    /// Number of rows to generate.
    pub n_rows: usize,
    /// Ordered `(name, spec)` columns.
    pub columns: Vec<(String, ColumnSpec)>,
    /// RNG seed — equal seeds give identical tables.
    pub seed: u64,
}

impl TableSpec {
    /// Creates an empty spec.
    pub fn new(name: &str, n_rows: usize, seed: u64) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            n_rows,
            columns: Vec::new(),
            seed,
        }
    }

    /// Appends a column.
    pub fn column(mut self, name: &str, spec: ColumnSpec) -> Self {
        self.columns.push((name.to_string(), spec));
        self
    }

    /// Generates the relation, panicking on a malformed spec — the
    /// convenience wrapper around [`TableSpec::try_build`] used by code that
    /// constructs specs statically.
    ///
    /// # Panics
    /// If the spec is invalid (e.g. a source reference at or after its own
    /// position); the message carries the offending column.
    pub fn build(&self) -> Relation {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid TableSpec `{}`: {e}", self.name))
    }

    /// Generates the relation, reporting spec misuse as a typed
    /// [`GeneratorError`] instead of aborting the process.
    ///
    /// # Errors
    /// [`GeneratorError::ForwardReference`] when a spec references a source
    /// column at or after its own position; [`GeneratorError::Assembly`]
    /// when the generated columns cannot form a relation (e.g. duplicate
    /// column names).
    pub fn try_build(&self) -> Result<Relation, GeneratorError> {
        // Validate all source references up front so generation can index
        // into `values` unconditionally.
        for (idx, (name, spec)) in self.columns.iter().enumerate() {
            let sources: &[usize] = match spec {
                ColumnSpec::MonotoneOf { source, .. }
                | ColumnSpec::NoisyMonotoneOf { source, .. } => std::slice::from_ref(source),
                ColumnSpec::FdOf { sources, .. } => sources,
                _ => &[],
            };
            if let Some(&source) = sources.iter().find(|&&s| s >= idx) {
                return Err(GeneratorError::ForwardReference {
                    column: name.clone(),
                    position: idx,
                    source,
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.n_rows;
        // Integer value matrix; string columns are materialized at the end.
        let mut values: Vec<Vec<i64>> = Vec::with_capacity(self.columns.len());
        for (_, spec) in self.columns.iter() {
            let col: Vec<i64> = match spec {
                ColumnSpec::Constant(v) => vec![*v; n],
                ColumnSpec::SequentialKey => (0..n as i64).collect(),
                ColumnSpec::ShuffledKey => {
                    let mut v: Vec<i64> = (0..n as i64).collect();
                    // Fisher–Yates.
                    for i in (1..n).rev() {
                        let j = rng.gen_range(0..=i);
                        v.swap(i, j);
                    }
                    v
                }
                ColumnSpec::RandomInt { cardinality } | ColumnSpec::RandomStr { cardinality } => {
                    let card = (*cardinality).max(1) as i64;
                    (0..n).map(|_| rng.gen_range(0..card)).collect()
                }
                ColumnSpec::MonotoneOf { source, plateau } => {
                    let plateau = (*plateau).max(1) as i64;
                    values[*source].iter().map(|&v| v.div_euclid(plateau)).collect()
                }
                ColumnSpec::FdOf { sources, cardinality } => {
                    let card = (*cardinality).max(1) as u64;
                    // A fixed per-column scramble so the FD holds but the
                    // output ordering is unrelated to the inputs.
                    let salt: u64 = rng.gen();
                    (0..n)
                        .map(|row| {
                            let mut h = salt;
                            for &s in sources {
                                h = splitmix64(h ^ values[s][row] as u64);
                            }
                            (h % card) as i64
                        })
                        .collect()
                }
                ColumnSpec::NoisyMonotoneOf { source, dirty_fraction } => {
                    let src = &values[*source];
                    let max = src.iter().copied().max().unwrap_or(0);
                    src.iter()
                        .map(|&v| {
                            if rng.gen_bool(dirty_fraction.clamp(0.0, 1.0)) {
                                rng.gen_range(0..=max.max(1))
                            } else {
                                v
                            }
                        })
                        .collect()
                }
            };
            values.push(col);
        }
        let mut builder = RelationBuilder::new();
        for ((name, spec), col) in self.columns.iter().zip(values) {
            match spec {
                ColumnSpec::RandomStr { .. } => {
                    let strings: Vec<String> =
                        col.iter().map(|v| format!("v{v:06}")).collect();
                    builder = builder.column(name, ColumnData::Str(strings));
                }
                _ => {
                    builder = builder.column(name, ColumnData::Int(col));
                }
            }
        }
        builder.build().map_err(|e| GeneratorError::Assembly(e.to_string()))
    }
}

/// SplitMix64 — a tiny, high-quality mixer for the FD scrambles.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::{AttrSet, Value};
    use fastod_theory::validate::canonical_od_holds;
    use fastod_theory::CanonicalOd;

    fn spec() -> TableSpec {
        TableSpec::new("t", 200, 7)
            .column("const", ColumnSpec::Constant(5))
            .column("key", ColumnSpec::SequentialKey)
            .column("cat", ColumnSpec::RandomInt { cardinality: 4 })
            .column("mono", ColumnSpec::MonotoneOf { source: 1, plateau: 10 })
            .column("fd", ColumnSpec::FdOf { sources: vec![2], cardinality: 3 })
            .column("shuf", ColumnSpec::ShuffledKey)
            .column("str", ColumnSpec::RandomStr { cardinality: 5 })
    }

    #[test]
    fn deterministic_given_seed() {
        let a = spec().build();
        let b = spec().build();
        assert_eq!(a, b);
        let mut other = spec();
        other.seed = 8;
        assert_ne!(other.build(), a);
    }

    #[test]
    fn constant_column_is_constant() {
        let rel = spec().build();
        let enc = rel.encode();
        assert!(enc.is_constant(0));
        assert_eq!(rel.value(13, 0), Value::Int(5));
    }

    #[test]
    fn keys_are_keys() {
        let enc = spec().build().encode();
        assert_eq!(enc.cardinality(1) as usize, 200); // sequential
        assert_eq!(enc.cardinality(5) as usize, 200); // shuffled
    }

    #[test]
    fn monotone_induces_fd_and_ocd() {
        let enc = spec().build().encode();
        // key → mono.
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::constancy(AttrSet::singleton(1), 3)
        ));
        // {}: key ~ mono.
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::order_compat(AttrSet::EMPTY, 1, 3)
        ));
        // Plateau 10 over 200 keys: cardinality 20.
        assert_eq!(enc.cardinality(3), 20);
    }

    #[test]
    fn fd_of_induces_fd_without_ocd() {
        let enc = spec().build().encode();
        // cat → fd holds by construction.
        assert!(canonical_od_holds(
            &enc,
            &CanonicalOd::constancy(AttrSet::singleton(2), 4)
        ));
        // On a wide domain the scramble is (with overwhelming probability)
        // not monotone, so the FD comes without the OCD.
        let wide = TableSpec::new("wide", 400, 11)
            .column("cat", ColumnSpec::RandomInt { cardinality: 40 })
            .column("fd", ColumnSpec::FdOf { sources: vec![0], cardinality: 20 })
            .build()
            .encode();
        assert!(canonical_od_holds(
            &wide,
            &CanonicalOd::constancy(AttrSet::singleton(0), 1)
        ));
        assert!(!canonical_od_holds(
            &wide,
            &CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)
        ));
    }

    #[test]
    fn noisy_monotone_is_dirty_but_close() {
        let spec = TableSpec::new("noisy", 500, 3)
            .column("key", ColumnSpec::SequentialKey)
            .column("val", ColumnSpec::NoisyMonotoneOf { source: 0, dirty_fraction: 0.02 });
        let enc = spec.build().encode();
        // Exactly: the OCD fails...
        assert!(!canonical_od_holds(
            &enc,
            &CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)
        ));
        // ...but the removal error is small (≈ 2%).
        let ctx = fastod_partition::StrippedPartition::unit(500);
        let err = fastod_partition::removal_size(
            ctx.classes(),
            fastod_partition::OdCodes::Order(enc.codes(0), enc.codes(1)),
            usize::MAX,
            &mut fastod_partition::SwapScratch::new(),
        );
        assert!(err > 0 && err < 50, "err = {err}");
    }

    #[test]
    fn string_columns_are_zero_padded() {
        let rel = spec().build();
        let value = rel.value(0, 6);
        assert!(
            matches!(&value, Value::Str(s) if s.starts_with('v') && s.len() == 7),
            "RandomStr must materialize zero-padded strings, got {value:?}"
        );
    }

    #[test]
    #[should_panic(expected = "source must precede")]
    fn forward_reference_panics_in_build() {
        let _ = TableSpec::new("bad", 10, 0)
            .column("m", ColumnSpec::MonotoneOf { source: 0, plateau: 1 })
            .build();
    }

    #[test]
    fn forward_reference_is_a_typed_error() {
        // Self-reference.
        let err = TableSpec::new("bad", 10, 0)
            .column("m", ColumnSpec::MonotoneOf { source: 0, plateau: 1 })
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            GeneratorError::ForwardReference { column: "m".into(), position: 0, source: 0 }
        );
        // Forward FdOf reference, after a valid column.
        let err = TableSpec::new("bad", 10, 0)
            .column("k", ColumnSpec::SequentialKey)
            .column("fd", ColumnSpec::FdOf { sources: vec![0, 2], cardinality: 3 })
            .try_build()
            .unwrap_err();
        assert!(matches!(
            err,
            GeneratorError::ForwardReference { position: 1, source: 2, .. }
        ));
        assert!(err.to_string().contains("source must precede"));
    }

    #[test]
    fn try_build_matches_build_on_valid_specs() {
        let a = spec().build();
        let b = spec().try_build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_column_names_are_assembly_errors() {
        let err = TableSpec::new("dup", 5, 0)
            .column("x", ColumnSpec::SequentialKey)
            .column("x", ColumnSpec::Constant(1))
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GeneratorError::Assembly(_)));
    }
}
