//! Brute-force oracles and fixtures for testing the FASTOD suite.
//!
//! Everything here is deliberately *independent* of the production code
//! paths: validity, minimality and violation counts are derived straight
//! from the tuple-pair semantics of the paper's definitions, so agreement
//! between FASTOD and this crate genuinely cross-checks two
//! implementations. See [`oracle`] for the ground-truth enumerator
//! ([`oracle_minimal_cover`]), its per-OD building blocks
//! ([`oracle_valid_ods`]), and the definitional violation counter
//! ([`oracle_violation_count`]) that pins the violation counts the check
//! surface reports. [`differential`] adds the scenario harness:
//! one adversarial workload pushed through one-shot, parallel, incremental
//! and serving execution paths, with every cover checked for set equality
//! and — within the brute-force budget — against the oracle. [`chaos`]
//! replays the same scenarios through the serving layer while a seeded
//! `fastod-faultkit` schedule panics, delays and cancels the maintenance
//! machinery, asserting containment, lock-free log-prefix reads, and
//! oracle-identical covers after self-healing.

#![deny(missing_docs)]

pub mod chaos;
pub mod differential;
pub mod oracle;

pub use chaos::{run_chaos, run_chaos_corpus, ChaosReport};
pub use differential::{run_corpus, run_differential, DifferentialOutcome};
pub use oracle::{
    oracle_minimal_cover, oracle_valid_ods, oracle_violation_count, OracleReport,
};
