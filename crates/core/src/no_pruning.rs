//! FASTOD with every pruning strategy disabled — the ablation behind the
//! paper's Exp-5 and Exp-6 (Figure 6).
//!
//! The full set lattice is materialized level by level and **every**
//! non-trivial candidate OD is validated: `X\A: [] ↦ A` for all `A ∈ X` and
//! `X\{A,B}: A ~ B` for all pairs in `X` — no candidate sets, no minimality
//! filtering, no node deletion. Valid ODs are *counted* (and optionally
//! collected), yielding the paper's "~50 million non-minimal ODs vs ~700
//! minimal" comparison. Exponential in attributes **and** without any
//! relief; only run on small configurations.

use crate::lattice::{
    build_level0, build_level1, calculate_next_level_parallel, sorted_keys, Level,
};
use crate::parallel::Executor;
use crate::stats::{DiscoveryStats, LevelStats};
use crate::validators::{ExactValidator, OdValidator};
use crate::{CancelToken, FdCheckMode, PassError};
use fastod_relation::{AttrSet, EncodedRelation};
use fastod_theory::{CanonicalOd, OdSet};
use std::time::Instant;

/// Result of a no-pruning run: counts of *all* valid (minimal or not)
/// canonical ODs.
#[derive(Clone, Debug, Default)]
pub struct NoPruningResult {
    /// Valid constancy ODs (including non-minimal ones).
    pub n_fds: u64,
    /// Valid order-compatibility ODs (including non-minimal ones).
    pub n_ocds: u64,
    /// The ODs themselves, when collection was requested.
    pub ods: Option<OdSet>,
    /// Per-level statistics.
    pub stats: DiscoveryStats,
}

impl NoPruningResult {
    /// Total valid ODs.
    pub fn total(&self) -> u64 {
        self.n_fds + self.n_ocds
    }

    /// Summary in the paper's format, e.g. `13584 (3584 + 10000)`.
    pub fn summary(&self) -> String {
        format!("{} ({} + {})", self.total(), self.n_fds, self.n_ocds)
    }
}

/// The no-pruning ablation runner.
pub struct NoPruningFastod {
    max_level: Option<usize>,
    cancel: CancelToken,
    collect: bool,
}

impl NoPruningFastod {
    /// Creates a runner; `collect` keeps the valid ODs (memory-heavy) in
    /// addition to counting them.
    pub fn new(max_level: Option<usize>, cancel: CancelToken, collect: bool) -> NoPruningFastod {
        NoPruningFastod {
            max_level,
            cancel,
            collect,
        }
    }

    /// Runs the exhaustive validation sweep.
    pub fn try_discover(&self, enc: &EncodedRelation) -> Result<NoPruningResult, PassError> {
        let start = Instant::now();
        let n_attrs = enc.n_attrs();
        let mut result = NoPruningResult {
            ods: self.collect.then(OdSet::new),
            ..Default::default()
        };
        if n_attrs == 0 {
            result.stats.total_time = start.elapsed();
            return Ok(result);
        }
        let mut validator = ExactValidator::new(enc, FdCheckMode::ErrorRate);
        let exec = Executor::new(1);
        let mut pool = Vec::new();
        let mut prev_prev: Level = Level::new();
        let mut prev: Level = build_level0(enc.n_rows(), n_attrs);
        let mut current: Level = build_level1(enc);
        let mut l = 1usize;

        while !current.is_empty() {
            let level_start = Instant::now();
            let mut lstats = LevelStats {
                level: l,
                nodes: current.len(),
                ..Default::default()
            };
            for &bits in &sorted_keys(&current) {
                self.cancel.check()?;
                let x = AttrSet::from_bits(bits);
                // Every constancy candidate X\A: [] ↦ A.
                for a in x.iter() {
                    let parent_set = x.without(a);
                    let parent = &prev[&parent_set.bits()].partition;
                    let node_part = &current[&bits].partition;
                    if OdValidator::constancy(&mut validator, parent, node_part, a, &mut lstats) {
                        result.n_fds += 1;
                        lstats.fds_found += 1;
                        if let Some(ods) = &mut result.ods {
                            ods.insert(CanonicalOd::constancy(parent_set, a));
                        }
                    }
                }
                // Every order-compatibility candidate X\{A,B}: A ~ B.
                if l >= 2 {
                    let attrs = x.to_vec();
                    for (i, &a) in attrs.iter().enumerate() {
                        for &b in &attrs[i + 1..] {
                            let ctx_set = x.without(a).without(b);
                            let ctx = &prev_prev[&ctx_set.bits()].partition;
                            if OdValidator::order_compat(
                                &mut validator,
                                ctx,
                                ctx_set.bits() as usize,
                                a,
                                b,
                                &mut lstats,
                            ) {
                                result.n_ocds += 1;
                                lstats.ocds_found += 1;
                                if let Some(ods) = &mut result.ods {
                                    ods.insert(CanonicalOd::order_compat(ctx_set, a, b));
                                }
                            }
                        }
                    }
                }
            }
            let reached_cap = self.max_level.is_some_and(|cap| l >= cap);
            let next = if reached_cap {
                Level::new()
            } else {
                calculate_next_level_parallel(&current, n_attrs, &exec, &mut pool, &self.cancel)?
            };
            lstats.time = level_start.elapsed();
            result.stats.levels.push(lstats);
            prev_prev = std::mem::take(&mut prev);
            prev = std::mem::take(&mut current);
            current = next;
            l += 1;
        }
        result.stats.total_time = start.elapsed();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscoveryConfig, Fastod};
    use fastod_relation::RelationBuilder;
    use fastod_theory::axioms::implied_by_minimal_set;
    use fastod_theory::validate::canonical_od_holds_naive;

    fn table() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_i64("bin", vec![1, 2, 3, 1, 2, 3])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .column_i64("perc", vec![20, 25, 30, 20, 25, 25])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn exhaustive_counts_dominate_minimal() {
        let enc = table();
        let pruned = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        let full = NoPruningFastod::new(None, CancelToken::never(), true)
            .try_discover(&enc)
            .unwrap();
        assert!(full.total() as usize >= pruned.ods.len());
        // The paper's Exp-6 point: redundancy is large even on tiny tables.
        assert!(full.total() as usize > pruned.ods.len());
    }

    #[test]
    fn exhaustive_ods_all_hold_and_counts_match() {
        let enc = table();
        let full = NoPruningFastod::new(None, CancelToken::never(), true)
            .try_discover(&enc)
            .unwrap();
        let ods = full.ods.as_ref().unwrap();
        for od in ods.iter() {
            assert!(canonical_od_holds_naive(&enc, od), "{od}");
            assert!(!od.is_trivial());
        }
        assert_eq!(ods.n_constancies() as u64, full.n_fds);
        assert_eq!(ods.n_order_compats() as u64, full.n_ocds);
    }

    #[test]
    fn every_valid_od_implied_by_minimal_set() {
        // No-pruning output (all valid ODs up to triviality) must be
        // derivable from the pruned (minimal) output — completeness.
        let enc = table();
        let pruned = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        let full = NoPruningFastod::new(None, CancelToken::never(), true)
            .try_discover(&enc)
            .unwrap();
        for od in full.ods.as_ref().unwrap().iter() {
            assert!(
                implied_by_minimal_set(&pruned.ods, od),
                "valid OD {od} not implied by minimal set"
            );
        }
    }

    #[test]
    fn level_cap_respected() {
        let enc = table();
        let capped = NoPruningFastod::new(Some(2), CancelToken::never(), false)
            .try_discover(&enc)
            .unwrap();
        assert!(capped.stats.max_level() <= 2);
    }

    #[test]
    fn cancellation() {
        let enc = table();
        let r = NoPruningFastod::new(
            None,
            CancelToken::with_timeout(std::time::Duration::ZERO),
            false,
        )
        .try_discover(&enc);
        assert_eq!(r.unwrap_err(), PassError::Cancelled);
    }

    #[test]
    fn summary_format() {
        let r = NoPruningResult {
            n_fds: 3,
            n_ocds: 4,
            ..Default::default()
        };
        assert_eq!(r.summary(), "7 (3 + 4)");
    }
}
