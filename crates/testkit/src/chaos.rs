//! The chaos harness: differential scenarios replayed through the serving
//! layer while a seeded fault schedule panics, delays and cancels the
//! maintenance machinery out from under it.
//!
//! [`run_chaos`] drives one [`Scenario`] trace through a
//! [`Session`](fastod_serve::Session) with a [`fastod_faultkit`] schedule
//! armed, and checks the self-healing contract end to end:
//!
//! * **the process never dies** — every injected panic is contained by a
//!   typed boundary (the executor, the engine's pass containment, or the
//!   session's publication boundary);
//! * **readers never block and never see garbage** — concurrent reader
//!   threads observe monotone epochs, and (when no mid-operation repair was
//!   needed) every observed snapshot is the exact cover of some prefix of
//!   the mutation log;
//! * **recovery restores truth** — after healing, the published cover is
//!   set-identical to a from-scratch discovery over the surviving rows,
//!   and (within the attribute budget) to the brute-force oracle.
//!
//! Failures reproduce from `(scenario, seed, threads)` alone: the fault
//! schedule is a pure function of the seed and every replay decision is
//! derived from published row counts, never from wall-clock state.

use crate::oracle::oracle_minimal_cover;
use fastod::{DiscoveryConfig, Fastod};
use fastod_datagen::scenario::{MutationOp, Scenario};
use fastod_faultkit as faultkit;
use fastod_relation::Relation;
use fastod_serve::{CoverSnapshot, RecoveryPolicy, ServeConfig, Server};
use fastod_theory::CanonicalOd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Attribute budget above which the brute-force oracle is skipped.
const ORACLE_BUDGET: usize = 8;

/// Replay attempts per logical operation before the harness declares the
/// schedule unrecoverable. Seeded rules fire at most once each (≤3 rules
/// per plan), so a handful of retries always drains them.
const MAX_ATTEMPTS_PER_OP: usize = 8;

/// What one chaos run survived and agreed on.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The scenario's name.
    pub scenario: &'static str,
    /// The fault-schedule seed.
    pub seed: u64,
    /// Worker threads the session's engine ran with.
    pub threads: usize,
    /// Faults that actually fired during the replay.
    pub faults_fired: usize,
    /// Successful session recoveries (rebuild + republish).
    pub recoveries: usize,
    /// Updates that landed half-way (rows deleted, replacement append
    /// killed by the `relation.extend` failpoint) and were completed by
    /// replaying the replacement as an append.
    pub repaired_updates: usize,
    /// The final published minimal cover, sorted.
    pub cover: Vec<CanonicalOd>,
    /// Whether the brute-force oracle confirmed the final cover.
    pub oracle_checked: bool,
}

/// The expected published `(n_rows, n_live)` bookkeeping of a replay,
/// advanced op by op — the ground truth the harness uses to decide whether
/// a failed operation was absorbed before its pass died.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Counts {
    rows: usize,
    live: usize,
}

impl Counts {
    fn after(self, op: &MutationOp) -> Counts {
        match op {
            MutationOp::Append(batch) => Counts {
                rows: self.rows + batch.n_rows(),
                live: self.live + batch.n_rows(),
            },
            MutationOp::Delete(rows) => Counts { rows: self.rows, live: self.live - rows.len() },
            MutationOp::Update { rows, replacement } => Counts {
                rows: self.rows + replacement.n_rows(),
                live: self.live - rows.len() + replacement.n_rows(),
            },
        }
    }
}

/// The from-scratch minimal cover of `rel`, sorted (single-threaded: the
/// reference answer is thread-count independent by the executor contract).
fn cover_of(rel: &Relation) -> Vec<CanonicalOd> {
    Fastod::new(DiscoveryConfig::default()).discover(&rel.encode()).ods.sorted()
}

/// Precomputed per-prefix ground truth: after the first `k` operations the
/// published snapshot must carry these counts and exactly this cover.
struct PrefixState {
    counts: Counts,
    cover: Vec<CanonicalOd>,
}

fn prefix_states(scenario: &Scenario) -> Vec<PrefixState> {
    let mut states = Vec::with_capacity(scenario.trace.len() + 1);
    let mut counts =
        Counts { rows: scenario.base.n_rows(), live: scenario.base.n_rows() };
    for k in 0..=scenario.trace.len() {
        let prefix = Scenario {
            name: scenario.name,
            base: scenario.base.clone(),
            trace: scenario.trace[..k].to_vec(),
        };
        states.push(PrefixState { counts, cover: cover_of(&prefix.final_state()) });
        if k < scenario.trace.len() {
            counts = counts.after(&scenario.trace[k]);
        }
    }
    states
}

/// Replays `scenario` through a serving session at `threads` workers with
/// the seeded fault schedule armed, healing after every failure, and
/// asserts the full self-healing contract (see the module docs). Panics —
/// with the scenario name, seed and thread count — on any violation.
pub fn run_chaos(scenario: &Scenario, seed: u64, threads: usize) -> ChaosReport {
    let name = scenario.name;
    let tag = move |what: &str| format!("[{name} seed={seed} threads={threads}] {what}");
    let prefixes = prefix_states(scenario);

    let server = Server::new(ServeConfig {
        discovery: DiscoveryConfig::default().with_threads(threads),
        total_partition_budget: None,
        recovery: RecoveryPolicy::auto(),
    });
    let session = server
        .open("chaos", &scenario.base)
        .unwrap_or_else(|e| panic!("{}", tag(&format!("open failed: {e}"))));

    // Arm *after* the initial discovery: the schedule budget belongs to the
    // replay, which runs every pass on this thread. The guard disarms on
    // drop (even if an assertion below panics).
    let guard = faultkit::arm(faultkit::FaultPlan::seeded(seed));

    let mut recoveries = 0usize;
    let mut repaired_updates = 0usize;
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Readers hammer the published snapshot for the whole replay. They
        // must never block (no failpoint sits on the read path) and never
        // observe a non-monotone epoch; each distinct epoch's snapshot is
        // kept for the log-prefix audit after the run.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (stop, session) = (&stop, &session);
                scope.spawn(move || {
                    let mut seen: Vec<(u64, Arc<CoverSnapshot>)> = Vec::new();
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let (epoch, snap) = session.read();
                        assert!(epoch >= last_epoch, "published epochs must be monotone");
                        if epoch > last_epoch || seen.is_empty() {
                            seen.push((epoch, snap));
                        }
                        last_epoch = epoch;
                    }
                    seen
                })
            })
            .collect();

        let mut counts = prefixes[0].counts;
        for (step, op) in scenario.trace.iter().enumerate() {
            let landed = counts.after(op);
            let mut pending: Option<&Relation> = None; // repair tail of a split update
            let mut attempts = 0usize;
            loop {
                attempts += 1;
                assert!(
                    attempts <= MAX_ATTEMPTS_PER_OP,
                    "{}",
                    tag(&format!("op {step} did not land after {attempts} attempts"))
                );
                let result = match (pending, op) {
                    (Some(replacement), _) => session.push_batch(replacement).map(|_| ()),
                    (None, MutationOp::Append(batch)) => session.push_batch(batch).map(|_| ()),
                    (None, MutationOp::Delete(rows)) => session.delete_rows(rows).map(|_| ()),
                    (None, MutationOp::Update { rows, replacement }) => {
                        session.update_rows(rows, replacement).map(|_| ())
                    }
                };
                if result.is_ok() {
                    break;
                }
                // The pass failed (fault-cancelled, deadline-shaped, or a
                // contained panic). Heal first: the server's policy retries
                // the rebuild with backoff, and a successful recovery
                // republishes the engine's authoritative state.
                if session.is_poisoned() {
                    if server.heal().is_empty() {
                        continue; // rules may still be firing; retry heals
                    }
                    recoveries += 1;
                }
                // Decide from the republished counts what actually landed:
                // a failed pass has already absorbed its mutation (rows
                // mutate before the lattice pass), while a fault at
                // `relation.extend` fired before anything changed.
                let (_, snap) = session.read();
                let now = Counts { rows: snap.n_rows(), live: snap.n_live() };
                if now == landed {
                    break;
                }
                if now == counts {
                    continue; // nothing landed: replay the whole op
                }
                if let MutationOp::Update { rows, replacement } = op {
                    let half = Counts { rows: counts.rows, live: counts.live - rows.len() };
                    if now == half {
                        // The update split: its delete wave landed, the
                        // replacement append was killed at the failpoint.
                        // Finish the op by replaying the replacement.
                        pending = Some(replacement);
                        repaired_updates += 1;
                        continue;
                    }
                }
                panic!(
                    "{}",
                    tag(&format!(
                        "op {step} left counts {now:?}, expected {:?} or {landed:?}",
                        counts
                    ))
                );
            }
            counts = landed;
        }

        stop.store(true, Ordering::Relaxed);
        let mut observed: Vec<(u64, Arc<CoverSnapshot>)> = Vec::new();
        for handle in readers {
            observed.extend(handle.join().expect("readers never panic"));
        }

        // Log-prefix audit: every snapshot any reader observed must be the
        // exact published state of some prefix of the log — unless a split
        // update forced a repair, whose intermediate half-state is a
        // legitimate publication but not a log prefix.
        if repaired_updates == 0 {
            for (epoch, snap) in &observed {
                let counts = Counts { rows: snap.n_rows(), live: snap.n_live() };
                let cover = snap.minimal_cover().sorted();
                let valid = prefixes
                    .iter()
                    .any(|p| p.counts == counts && p.cover == cover);
                assert!(
                    valid,
                    "{}",
                    tag(&format!(
                        "reader saw epoch {epoch} with counts {counts:?} matching no log prefix"
                    ))
                );
            }
        }
    });

    let faults_fired = guard.fired().len();
    drop(guard);

    // Forced recovery on the (healthy) final state must be a cover no-op:
    // the from-scratch rebuild and the incrementally maintained answer are
    // the same answer.
    let before = session.read().1.minimal_cover().sorted();
    session
        .recover()
        .unwrap_or_else(|e| panic!("{}", tag(&format!("final recover failed: {e}"))));
    let (_, snap) = session.read();
    let cover = snap.minimal_cover().sorted();
    assert_eq!(cover, before, "{}", tag("recovery changed a healthy cover"));

    // Ground truth: the final cover equals from-scratch discovery over the
    // survivors, and — within budget — the definitional oracle.
    let final_rel = scenario.final_state();
    assert_eq!(
        cover,
        cover_of(&final_rel),
        "{}",
        tag("final cover diverged from from-scratch discovery")
    );
    assert_eq!(snap.n_live(), final_rel.n_rows(), "{}", tag("live-row count diverged"));
    let oracle_checked = final_rel.n_attrs() <= ORACLE_BUDGET;
    if oracle_checked {
        let report = oracle_minimal_cover(&final_rel.encode());
        let discovered = cover.iter().copied().collect();
        assert!(
            report.matches(&discovered),
            "{}",
            tag(&format!(
                "final cover disagrees with the brute-force oracle:\n{}",
                report.diff(&discovered)
            ))
        );
    }

    ChaosReport {
        scenario: name,
        seed,
        threads,
        faults_fired,
        recoveries,
        repaired_updates,
        cover,
        oracle_checked,
    }
}

/// Runs [`run_chaos`] over the whole scenario corpus at the given thread
/// count, one seeded schedule per scenario (`seed_base + index`), returning
/// the reports for corpus-level assertions.
pub fn run_chaos_corpus(seed_base: u64, threads: usize) -> Vec<ChaosReport> {
    fastod_datagen::scenario_corpus()
        .iter()
        .enumerate()
        .map(|(i, s)| run_chaos(s, seed_base + i as u64, threads))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::RelationBuilder;

    fn small_scenario() -> Scenario {
        let base = RelationBuilder::new()
            .column_i64("id", vec![1, 2, 3, 4])
            .column_i64("grp", vec![7, 7, 7, 9])
            .build()
            .unwrap();
        let batch = RelationBuilder::new()
            .column_i64("id", vec![5, 6])
            .column_i64("grp", vec![9, 7])
            .build()
            .unwrap();
        let fix = RelationBuilder::new()
            .column_i64("id", vec![9])
            .column_i64("grp", vec![7])
            .build()
            .unwrap();
        Scenario {
            name: "chaos-smoke",
            base,
            trace: vec![
                MutationOp::Append(batch),
                MutationOp::Delete(vec![3, 4]),
                MutationOp::Update { rows: vec![5], replacement: fix },
            ],
        }
    }

    /// Every seed must converge to the same oracle-confirmed answer — the
    /// faults change the path, never the destination.
    #[test]
    fn seeds_change_the_path_not_the_answer() {
        let scenario = small_scenario();
        let baseline = run_chaos(&scenario, 0, 1);
        assert!(baseline.oracle_checked);
        for seed in 1..6u64 {
            let report = run_chaos(&scenario, seed, 1);
            assert_eq!(report.cover, baseline.cover, "seed {seed} diverged");
        }
    }

    /// A schedule that definitely injects a panic into the pass machinery:
    /// the session must poison, heal, and end up at the truth.
    #[test]
    fn injected_pass_panic_heals() {
        let scenario = small_scenario();
        // Direct (non-seeded) schedule so the fault is guaranteed to land.
        let server = Server::new(ServeConfig {
            discovery: DiscoveryConfig::default(),
            total_partition_budget: None,
            recovery: RecoveryPolicy::auto(),
        });
        let session = server.open("panic", &scenario.base).unwrap();
        let guard = faultkit::arm(
            faultkit::FaultPlan::new()
                .rule(faultkit::INCR_REFRESH, 0, faultkit::FaultAction::Panic),
        );
        let batch = RelationBuilder::new()
            .column_i64("id", vec![5])
            .column_i64("grp", vec![7])
            .build()
            .unwrap();
        let err = session.push_batch(&batch).expect_err("armed panic fails the pass");
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(session.is_poisoned());
        assert!(guard.fired_at(faultkit::INCR_REFRESH));
        drop(guard);
        assert_eq!(server.heal(), vec!["panic".to_string()]);
        assert!(!session.is_poisoned());
        // The healed cover includes the absorbed batch (it mutated the
        // relation before the pass died).
        let (_, snap) = session.read();
        assert_eq!(snap.n_live(), 5);
        let mut final_rel = scenario.base.clone();
        final_rel.extend(&batch).unwrap();
        assert_eq!(snap.minimal_cover().sorted(), cover_of(&final_rel));
    }
}
