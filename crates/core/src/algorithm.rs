//! The FASTOD main loop (paper Algorithms 1, 3, 4) and the shared lattice
//! driver also used by the approximate variant.

use crate::config::DiscoveryConfig;
use crate::lattice::{build_level0, build_level1_parallel, calculate_next_level_parallel, Level};
use crate::parallel::Executor;
use crate::result::DiscoveryResult;
use crate::snapshot::{compute_candidate_sets_parallel, prune_level, validate_level};
use crate::stats::{DiscoveryStats, LevelStats};
use crate::validators::{ExactValidator, OdJudge};
use crate::{CancelToken, PassError};
use fastod_obs::Obs;
use fastod_partition::ProductScratch;
use fastod_relation::EncodedRelation;
use fastod_theory::OdSet;
use std::time::Instant;

/// Options for the generic lattice driver.
pub(crate) struct DriverOptions {
    pub max_level: Option<usize>,
    pub cancel: CancelToken,
    /// Whether to apply the Lemma-5-based candidate removal (Algorithm 3,
    /// line 14). Exact discovery enables it; the approximate variant
    /// disables it because Strengthen does not hold under error budgets.
    pub lemma5_removals: bool,
    /// Worker threads for validation and partition products (see
    /// [`crate::DiscoveryConfig::threads`]).
    pub threads: usize,
    /// Observability recorder threaded into the executor and phase spans.
    pub obs: Obs,
}

/// The exact FASTOD discovery algorithm (Algorithm 1).
///
/// Produces a **complete, minimal** set of canonical ODs (Theorem 8):
/// complete — every valid canonical OD over the instance is inferable from
/// the output via the set-based axioms; minimal — no output OD is inferable
/// from the others.
pub struct Fastod {
    config: DiscoveryConfig,
}

impl Fastod {
    /// Creates a discovery instance with the given configuration.
    pub fn new(config: DiscoveryConfig) -> Fastod {
        Fastod { config }
    }

    /// Runs discovery; panics only if the configured token cancels
    /// (use [`Fastod::try_discover`] with deadline tokens).
    ///
    /// ```
    /// use fastod::{DiscoveryConfig, Fastod};
    /// use fastod_relation::RelationBuilder;
    ///
    /// let enc = RelationBuilder::new()
    ///     .column_i64("week", vec![1, 1, 2, 2])
    ///     .column_i64("month", vec![1, 1, 1, 1])
    ///     .build()
    ///     .unwrap()
    ///     .encode();
    /// let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
    /// // `month` is constant: the cover contains {}: [] ↦ month.
    /// assert!(result.ods.iter().any(|od| od.is_constancy()));
    /// // Thread count never changes the cover, only the wall-clock.
    /// let par = Fastod::new(DiscoveryConfig::default().with_threads(4)).discover(&enc);
    /// assert_eq!(par.ods.sorted(), result.ods.sorted());
    /// ```
    pub fn discover(&self, enc: &EncodedRelation) -> DiscoveryResult {
        self.try_discover(enc)
            .expect("discovery cancelled; use try_discover with cancellation tokens")
    }

    /// Runs discovery, returning [`PassError`] if the token fires or a
    /// worker panic is contained.
    pub fn try_discover(&self, enc: &EncodedRelation) -> Result<DiscoveryResult, PassError> {
        let mut validator = ExactValidator::new(enc, self.config.fd_check);
        let opts = DriverOptions {
            max_level: self.config.max_level,
            cancel: self.config.cancel.clone(),
            lemma5_removals: true,
            threads: self.config.threads,
            obs: self.config.obs.clone(),
        };
        run_lattice(enc, &mut validator, &opts)
    }
}

/// The level-wise driver shared by exact and approximate discovery.
pub(crate) fn run_lattice<J: OdJudge>(
    enc: &EncodedRelation,
    validator: &mut J,
    opts: &DriverOptions,
) -> Result<DiscoveryResult, PassError> {
    // The phase spans and the stats share their clock reads: each span
    // opens at the instant its stats clock starts and closes at the one it
    // stops, so a preemption between two reads cannot split them.
    let start = Instant::now();
    let run_span = opts.obs.span_from("discover", &[("n_attrs", enc.n_attrs() as u64)], start);
    let n_attrs = enc.n_attrs();
    let mut m = OdSet::new();
    let mut stats = DiscoveryStats::default();
    let exec = Executor::with_obs(opts.threads, opts.obs.clone());
    // One product arena per worker, reused across every lattice level.
    let mut product_pool: Vec<ProductScratch> = Vec::new();

    if n_attrs == 0 {
        let end = Instant::now();
        stats.total_time = end - start;
        run_span.end_at(end);
        return Ok(DiscoveryResult { ods: m, stats });
    }

    // Levels l-2, l-1 and l (Algorithm 1 lines 1–6), built under one span.
    // Level 1 is one counting sort per attribute, mapped over the executor.
    // It and the levels tile the run: each opens where the previous closed.
    let level1_span = opts.obs.span_from("level1", &[], start);
    let mut prev_prev: Level = Level::new();
    let mut prev: Level = build_level0(enc.n_rows(), n_attrs);
    let mut current: Level = build_level1_parallel(enc, &exec, &opts.cancel)?;
    let mut level_start = Instant::now();
    level1_span.end_at(level_start);
    let mut l = 1usize;

    while !current.is_empty() {
        let level_span = opts.obs.span_from(
            "level",
            &[("level", l as u64), ("nodes", current.len() as u64)],
            level_start,
        );
        let mut lstats = LevelStats {
            level: l,
            nodes: current.len(),
            ..Default::default()
        };
        {
            let _span = opts.obs.span_with("compute_candidates", &[("level", l as u64)]);
            compute_candidate_sets_parallel(l, &mut current, &prev, n_attrs, &exec, &opts.cancel)?;
        }
        let validate_start = Instant::now();
        let validate_span =
            opts.obs.span_from("validate_level", &[("level", l as u64)], validate_start);
        validate_level(
            l,
            &mut current,
            &prev,
            &prev_prev,
            validator,
            &mut m,
            &mut lstats,
            opts.lemma5_removals,
            &exec,
            &opts.cancel,
        )?;
        let validate_end = Instant::now();
        lstats.validate_time = validate_end - validate_start;
        validate_span.end_at(validate_end);
        prune_level(l, &mut current, &mut lstats);
        let reached_cap = opts.max_level.is_some_and(|cap| l >= cap);
        let generate_start = Instant::now();
        let generate_span =
            opts.obs.span_from("generate_level", &[("level", l as u64)], generate_start);
        let next = if reached_cap {
            Level::new()
        } else {
            calculate_next_level_parallel(
                &current,
                n_attrs,
                &exec,
                &mut product_pool,
                &opts.cancel,
            )?
        };
        let generate_end = Instant::now();
        lstats.generate_time = generate_end - generate_start;
        generate_span.end_at(generate_end);
        // Shift inside the level's span: freeing level l-2 can stall a tick.
        prev_prev = std::mem::take(&mut prev);
        prev = std::mem::take(&mut current);
        current = next;
        let level_end = Instant::now();
        lstats.time = level_end - level_start;
        level_span.end_at(level_end);
        level_start = level_end;
        opts.obs.add("discover.ods_found", lstats.ods_found() as u64);
        stats.levels.push(lstats);
        l += 1;
    }
    let end = Instant::now();
    stats.total_time = end - start;
    run_span.end_at(end);
    opts.obs.add("discover.runs", 1);
    Ok(DiscoveryResult { ods: m, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FdCheckMode;
    use fastod_relation::{AttrSet, RelationBuilder};
    use fastod_theory::validate::canonical_od_holds_naive;
    use fastod_theory::CanonicalOd;

    fn employee() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("id", vec![10, 11, 12, 10, 11, 12])
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_str("posit", vec!["secr", "mngr", "direct", "secr", "mngr", "direct"])
            .column_i64("bin", vec![1, 2, 3, 1, 2, 3])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn discovers_paper_example_ods() {
        let enc = employee();
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        // {posit}: [] ↦ bin holds and is minimal (Example 4).
        assert!(result
            .ods
            .contains(&CanonicalOd::constancy(AttrSet::singleton(2), 3)));
        // Everything discovered actually holds.
        for od in result.ods.iter() {
            assert!(canonical_od_holds_naive(&enc, od), "{od}");
            assert!(!od.is_trivial(), "{od}");
        }
    }

    #[test]
    fn constant_column_found_at_level_one() {
        let enc = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3])
            .column_i64("c", vec![7, 7, 7])
            .build()
            .unwrap()
            .encode();
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        assert!(result
            .ods
            .contains(&CanonicalOd::constancy(AttrSet::EMPTY, 1)));
        // k is a key: {}: [] -> k must NOT hold, but {c}... {k}: [] -> c is
        // non-minimal (c constant in {}). k determines c and everything.
        assert!(!result
            .ods
            .contains(&CanonicalOd::constancy(AttrSet::EMPTY, 0)));
        assert!(!result
            .ods
            .contains(&CanonicalOd::constancy(AttrSet::singleton(0), 1)));
    }

    #[test]
    fn constant_suppresses_pair_checks() {
        // With c constant, {}: c ~ k is implied by Propagate and must not
        // be reported.
        let enc = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3])
            .column_i64("c", vec![7, 7, 7])
            .build()
            .unwrap()
            .encode();
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        assert!(!result
            .ods
            .contains(&CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)));
    }

    #[test]
    fn monotone_pair_is_order_compatible() {
        let enc = RelationBuilder::new()
            .column_i64("x", vec![1, 2, 3, 4])
            .column_i64("y", vec![10, 20, 20, 40])
            .build()
            .unwrap()
            .encode();
        let result = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        assert!(result
            .ods
            .contains(&CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)));
        // x is a key, so {}: [] ↦ x fails; y→x fails FD-wise... {y}: []↦x
        // fails since y has duplicates mapping to different x.
        assert!(!result
            .ods
            .contains(&CanonicalOd::constancy(AttrSet::singleton(1), 0)));
    }

    #[test]
    fn error_rate_and_scan_modes_agree() {
        let enc = employee();
        let r1 = Fastod::new(DiscoveryConfig::default().with_fd_check(FdCheckMode::ErrorRate))
            .discover(&enc);
        let r2 =
            Fastod::new(DiscoveryConfig::default().with_fd_check(FdCheckMode::Scan)).discover(&enc);
        let s1 = r1.ods.sorted();
        let s2 = r2.ods.sorted();
        assert_eq!(s1, s2);
    }

    #[test]
    fn max_level_caps_search() {
        let enc = employee();
        let r = Fastod::new(DiscoveryConfig::default().with_max_level(2)).discover(&enc);
        assert!(r.stats.max_level() <= 2);
        assert!(r.ods.iter().all(|od| od.context().len() <= 1));
    }

    #[test]
    fn cancellation_returns_err() {
        let enc = employee();
        let cfg = DiscoveryConfig::default()
            .with_cancel(CancelToken::with_timeout(std::time::Duration::ZERO));
        assert_eq!(Fastod::new(cfg).try_discover(&enc).unwrap_err(), PassError::Cancelled);
    }

    #[test]
    fn empty_and_degenerate_relations() {
        let empty = RelationBuilder::new()
            .column_i64("a", vec![])
            .column_i64("b", vec![])
            .build()
            .unwrap()
            .encode();
        let r = Fastod::new(DiscoveryConfig::default()).discover(&empty);
        // On an empty instance every attribute is (vacuously) constant.
        assert_eq!(r.n_fds(), 2);
        assert_eq!(r.n_ocds(), 0);

        let single = RelationBuilder::new()
            .column_i64("a", vec![5])
            .build()
            .unwrap()
            .encode();
        let r = Fastod::new(DiscoveryConfig::default()).discover(&single);
        assert!(r.ods.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 0)));
    }

    #[test]
    fn example_11_node_pruning() {
        // Paper Example 11: with A: []↦B, B: []↦A and {}: A~B all valid,
        // C⁺c({A,B}) and C⁺s({A,B}) empty out, the node {A,B} is deleted,
        // and {A,B,C} is never considered (Figure 3's dashed region).
        let enc = RelationBuilder::new()
            .column_i64("a", vec![1, 1, 2, 2]) // A and B mutually determine
            .column_i64("b", vec![10, 10, 20, 20]) // each other, same order
            .column_i64("c", vec![4, 3, 2, 1])
            .build()
            .unwrap()
            .encode();
        let r = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        // The three ODs from the example are found...
        assert!(r.ods.contains(&CanonicalOd::constancy(AttrSet::singleton(0), 1)));
        assert!(r.ods.contains(&CanonicalOd::constancy(AttrSet::singleton(1), 0)));
        assert!(r.ods.contains(&CanonicalOd::order_compat(AttrSet::EMPTY, 0, 1)));
        // ...and a node was pruned at level 2, keeping level 3 small.
        let l2 = &r.stats.levels[1];
        assert!(l2.pruned_nodes >= 1, "{:?}", r.stats.levels);
        // No OD with the redundant {A,B}-ish contexts from the example.
        assert!(!r.ods.contains(&CanonicalOd::constancy(AttrSet::from_iter([0, 1]), 2)));
        assert!(!r.ods.contains(&CanonicalOd::order_compat(AttrSet::singleton(2), 0, 1)));
    }

    #[test]
    fn stats_are_populated() {
        let enc = employee();
        let r = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        assert!(!r.stats.levels.is_empty());
        assert_eq!(r.stats.levels[0].level, 1);
        assert_eq!(r.stats.levels[0].nodes, enc.n_attrs());
        let found: usize = r.stats.levels.iter().map(|l| l.ods_found()).sum();
        assert_eq!(found, r.ods.len());
    }
}
