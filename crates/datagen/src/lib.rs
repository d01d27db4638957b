//! Synthetic dataset generators for the FASTOD experiments (paper §5.1).
//!
//! The paper evaluates on `flight` (HPI, 500K×40), `ncvoter` (UCI, 1M×20),
//! `hepatitis` (UCI, 155×20) and `dbtesma` (synthetic, 250K×30). Those files
//! are not redistributable here, so this crate provides *engineered
//! analogues*: generators whose column structure reproduces the
//! discovery-relevant properties the experiments depend on — constants,
//! surrogate keys, FD clusters, monotone-correlated pairs, swap density —
//! rather than the raw bytes. Each generator in [`datasets`] documents the
//! property it preserves.
//!
//! The building blocks live in [`generator`] ([`ColumnSpec`] / [`TableSpec`]):
//! a small workload-description language from which all named datasets are
//! composed. Tests and benchmarks can build their own workloads the same
//! way.

pub mod datasets;
pub mod generator;
pub mod noise;
pub mod scenario;

pub use datasets::{
    dbtesma_like, employee_table, flight_like, hepatitis_like, ncvoter_like, random_relation,
    tpcds_date_dim,
};
pub use generator::{ColumnSpec, GeneratorError, TableSpec};
pub use noise::{inject_noise, InjectedError};
pub use scenario::{scenario_corpus, MutationOp, Scenario};
