//! Approximate OD discovery — the paper's §7 "future work" extension:
//! "approximate ODs that almost hold over a relation instance within a
//! specified threshold".
//!
//! An OD is **ε-approximately valid** when deleting at most `⌊ε·|r|⌋` tuples
//! makes it hold exactly (the `g₃`-style removal error, computed per
//! context class by [`fastod_partition::removal_size`] in the partition
//! crate's one kernel module, `kernels.rs`). Both error measures are
//! monotone under context refinement, so the lattice machinery carries over
//! with one change: the Lemma-5 candidate removal (Algorithm 3 line 14) is
//! disabled because the Strengthen axiom composes error budgets additively
//! rather than preserving them. The resulting set is complete and minimal
//! with respect to the Augmentation-I/II + Propagate closure (Propagate is
//! still sound: removing the rows that make `A` constant per class also
//! removes every swap involving `A`).

use crate::algorithm::{run_lattice, DriverOptions};
use crate::result::DiscoveryResult;
use crate::validators::ApproxValidator;
use crate::{CancelToken, PassError};
use fastod_obs::Obs;
use fastod_relation::EncodedRelation;

/// Configuration for approximate discovery.
#[derive(Clone)]
pub struct ApproxConfig {
    /// Maximum removable fraction of tuples, `0.0 ..= 1.0`. `0.0` recovers
    /// (a superset of) exact discovery output.
    pub epsilon: f64,
    /// Lattice level cap.
    pub max_level: Option<usize>,
    /// Cancellation token.
    pub cancel: CancelToken,
    /// Worker threads (see [`crate::DiscoveryConfig::threads`]).
    pub threads: usize,
    /// Observability recorder (see [`crate::DiscoveryConfig::obs`]).
    pub obs: Obs,
}

impl ApproxConfig {
    /// Creates a configuration with the given error threshold.
    ///
    /// # Panics
    /// If `epsilon` is outside `[0, 1]` or NaN. Callers taking the
    /// threshold from user input should reject such values first, as the
    /// `fastod` CLI does while parsing its arguments.
    pub fn new(epsilon: f64) -> ApproxConfig {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        ApproxConfig {
            epsilon,
            max_level: None,
            cancel: CancelToken::never(),
            threads: 1,
            obs: Obs::disabled(),
        }
    }

    /// Caps the lattice level.
    pub fn with_max_level(mut self, max_level: usize) -> Self {
        self.max_level = Some(max_level);
        self
    }

    /// Sets a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sets the worker-thread count (`0` = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches an observability recorder (spans, counters, histograms).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// Approximate FASTOD.
pub struct ApproxFastod {
    config: ApproxConfig,
}

impl ApproxFastod {
    /// Creates an approximate-discovery instance.
    pub fn new(config: ApproxConfig) -> ApproxFastod {
        ApproxFastod { config }
    }

    /// Runs discovery; see [`ApproxFastod::try_discover`] for cancellation.
    pub fn discover(&self, enc: &EncodedRelation) -> DiscoveryResult {
        self.try_discover(enc)
            .expect("discovery cancelled; use try_discover with cancellation tokens")
    }

    /// Runs approximate discovery with the configured threshold.
    pub fn try_discover(&self, enc: &EncodedRelation) -> Result<DiscoveryResult, PassError> {
        let max_remove = (self.config.epsilon * enc.n_rows() as f64).floor() as usize;
        let mut validator = ApproxValidator::new(enc, max_remove);
        let opts = DriverOptions {
            max_level: self.config.max_level,
            cancel: self.config.cancel.clone(),
            lemma5_removals: false,
            threads: self.config.threads,
            obs: self.config.obs.clone(),
        };
        run_lattice(enc, &mut validator, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscoveryConfig, Fastod};
    use fastod_relation::{AttrSet, RelationBuilder};
    use fastod_theory::axioms::implied_by_minimal_set;
    use fastod_theory::CanonicalOd;

    /// salary ↦ tax with a single dirty row.
    fn dirty() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("salary", vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
            .column_i64("tax", vec![1, 2, 3, 4, 5, 6, 7, 99, 9, 10]) // row 7 dirty
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn exact_misses_dirty_od_approx_finds_it() {
        let enc = dirty();
        let exact = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        let target = CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1);
        assert!(!exact.ods.contains(&target));
        // ε = 10% allows one removal: the OD is recovered.
        let approx = ApproxFastod::new(ApproxConfig::new(0.1)).discover(&enc);
        assert!(approx.ods.contains(&target));
    }

    #[test]
    fn epsilon_zero_is_contained_in_exact_closure() {
        // With ε = 0 every reported OD is exactly valid, and conversely every
        // exact minimal OD is implied by the ε=0 output (which is minimal
        // w.r.t. a weaker closure, hence possibly larger).
        let enc = dirty();
        let exact = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        let approx = ApproxFastod::new(ApproxConfig::new(0.0)).discover(&enc);
        for od in approx.ods.iter() {
            assert!(
                fastod_theory::validate::canonical_od_holds_naive(&enc, od),
                "{od}"
            );
        }
        for od in exact.ods.iter() {
            assert!(implied_by_minimal_set(&approx.ods, od), "{od}");
        }
    }

    #[test]
    fn larger_epsilon_never_shrinks_coverage() {
        // Every OD reported at ε=0.0 must still be implied at ε=0.2 (the
        // reported set itself can differ because minimality contexts shrink).
        let enc = dirty();
        let tight = ApproxFastod::new(ApproxConfig::new(0.0)).discover(&enc);
        let loose = ApproxFastod::new(ApproxConfig::new(0.2)).discover(&enc);
        for od in tight.ods.iter() {
            assert!(implied_by_minimal_set(&loose.ods, od), "{od}");
        }
    }

    #[test]
    fn epsilon_one_accepts_everything() {
        let enc = dirty();
        let r = ApproxFastod::new(ApproxConfig::new(1.0)).discover(&enc);
        // Both attributes "constant" after removing everything: the minimal
        // output is exactly the two empty-context constancies.
        assert!(r.ods.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 0)));
        assert!(r.ods.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 1)));
        assert_eq!(r.ods.len(), 2);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_rejected() {
        let _ = ApproxConfig::new(1.5);
    }

    #[test]
    fn cancellation() {
        let enc = dirty();
        let cfg = ApproxConfig::new(0.1)
            .with_cancel(CancelToken::with_timeout(std::time::Duration::ZERO));
        assert_eq!(
            ApproxFastod::new(cfg).try_discover(&enc).unwrap_err(),
            PassError::Cancelled
        );
    }
}
