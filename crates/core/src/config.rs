//! Discovery configuration.

use crate::CancelToken;
use fastod_obs::Obs;
use std::time::Duration;

/// How constancy ODs (`X\A: [] ↦ A`, i.e. FDs) are validated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FdCheckMode {
    /// TANE's error-rate shortcut (§4.6): `X\A: [] ↦ A` holds iff
    /// `e(Π*_{X\A}) = e(Π*_X)`, an O(1) comparison of two precomputed
    /// values. This is the default.
    #[default]
    ErrorRate,
    /// Direct scan of `Π*_{X\A}` checking `|Π_A(E)| = 1` per class. Linear;
    /// kept for cross-checking and the ablation benches.
    Scan,
}

/// Configuration for [`crate::Fastod`].
///
/// ```
/// use fastod::{DiscoveryConfig, FdCheckMode};
///
/// let cfg = DiscoveryConfig::new()
///     .with_threads(4)            // shard validations over 4 workers
///     .with_max_level(5)          // stop after contexts of size 4
///     .with_fd_check(FdCheckMode::Scan);
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Clone)]
pub struct DiscoveryConfig {
    /// Stop after this lattice level (context size + 1); `None` = unbounded.
    pub max_level: Option<usize>,
    /// Cooperative cancellation (deadline) token.
    pub cancel: CancelToken,
    /// FD validation strategy.
    pub fd_check: FdCheckMode,
    /// Worker threads for the validation and partition-product hot paths.
    /// `1` (the default) runs everything inline on the calling thread; `0`
    /// selects [`std::thread::available_parallelism`]. The discovered cover
    /// is **identical at every thread count** — verdicts are merged in
    /// deterministic input order (see [`crate::parallel::Executor`]).
    pub threads: usize,
    /// Observability recorder. The default ([`Obs::disabled`]) records
    /// nothing and costs one branch per instrumentation point; an enabled
    /// recorder collects per-phase spans, counters and latency histograms
    /// (see the `fastod-obs` crate docs and `--trace` in the CLI).
    pub obs: Obs,
    /// Wall-clock budget for **each maintenance pass** of the incremental
    /// engine (and the serving sessions built on it). `None` (the default)
    /// leaves passes unbounded. When set, every pass runs under
    /// `cancel ∪ deadline` ([`CancelToken::and_deadline`]): a pass that
    /// overruns fails exactly like a cancelled one — it applies nothing and
    /// the engine is poisoned for rebuild — while the next pass starts with
    /// a fresh deadline. One-shot `Fastod::discover` ignores this field
    /// (use a deadline `cancel` token there).
    pub pass_deadline: Option<Duration>,
}

impl Default for DiscoveryConfig {
    fn default() -> DiscoveryConfig {
        DiscoveryConfig {
            max_level: None,
            cancel: CancelToken::never(),
            fd_check: FdCheckMode::default(),
            threads: 1,
            obs: Obs::disabled(),
            pass_deadline: None,
        }
    }
}

impl DiscoveryConfig {
    /// Default configuration: unbounded levels, no cancellation, error-rate
    /// FD checks, single-threaded.
    pub fn new() -> DiscoveryConfig {
        DiscoveryConfig::default()
    }

    /// Sets a lattice-level cap.
    pub fn with_max_level(mut self, max_level: usize) -> Self {
        self.max_level = Some(max_level);
        self
    }

    /// Sets the cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sets the FD validation strategy.
    pub fn with_fd_check(mut self, mode: FdCheckMode) -> Self {
        self.fd_check = mode;
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

    /// Bounds each incremental maintenance pass to a wall-clock budget (see
    /// [`DiscoveryConfig::pass_deadline`]).
    pub fn with_pass_deadline(mut self, budget: Duration) -> Self {
        self.pass_deadline = Some(budget);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = DiscoveryConfig::new()
            .with_max_level(3)
            .with_fd_check(FdCheckMode::Scan);
        assert_eq!(cfg.max_level, Some(3));
        assert_eq!(cfg.fd_check, FdCheckMode::Scan);
        assert!(!cfg.cancel.is_cancelled());
    }

    #[test]
    fn default_is_single_threaded() {
        assert_eq!(DiscoveryConfig::default().threads, 1);
        assert_eq!(DiscoveryConfig::new().with_threads(0).threads, 0);
    }

    #[test]
    fn default_is_error_rate() {
        assert_eq!(FdCheckMode::default(), FdCheckMode::ErrorRate);
    }
}
