//! Fault-injection chaos suite: the scenario corpus replayed through the
//! serving layer while seeded `fastod-faultkit` schedules panic, delay and
//! cancel the maintenance machinery at every compiled-in failpoint.
//!
//! Three things are on trial (see `fastod_testkit::chaos` for the harness
//! contract):
//!
//! * **containment** — injected panics in executor workers, the judge, the
//!   pass machinery and the publication path never unwind past a typed
//!   boundary; the process survives every schedule;
//! * **the reader contract under faults** — concurrent readers observe
//!   monotone epochs and only ever see the published cover of some log
//!   prefix, while a poisoned session keeps serving its last good snapshot;
//! * **self-healing** — after `Server::heal` / `Session::recover`, the
//!   published cover is set-identical to a from-scratch discovery over the
//!   surviving rows (oracle-confirmed within the brute-force budget).
//!
//! Every run is reproducible from `(scenario, seed, threads)`; failures
//! print all three. The full corpus × thread sweep runs here in debug as
//! the tier-1 gate; CI's `chaos-suite` job re-runs it in release with a
//! wider seed band (`FASTOD_CHAOS_SEEDS`).

use fastod_suite::discovery::{CancelToken, DiscoveryConfig, Fastod};
use fastod_suite::prelude::*;
use fastod_suite::serve::{RecoveryPolicy, ServeConfig, Server};
use fastod_testkit::chaos::run_chaos_corpus;
use fastod_testkit::oracle_minimal_cover;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

use fastod_faultkit as faultkit;

/// Seed bands per thread count: `FASTOD_CHAOS_SEEDS` widens the sweep (the
/// release CI job sets it); the default keeps debug runs tier-1 friendly.
fn seed_band() -> u64 {
    std::env::var("FASTOD_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

#[test]
fn chaos_corpus_single_thread() {
    for band in 0..seed_band() {
        let reports = run_chaos_corpus(0x0DD5_EED0 + band * 1000, 1);
        assert!(!reports.is_empty());
    }
}

#[test]
fn chaos_corpus_two_threads() {
    for band in 0..seed_band() {
        let reports = run_chaos_corpus(0x2DD5_EED0 + band * 1000, 2);
        assert!(!reports.is_empty());
    }
}

#[test]
fn chaos_corpus_four_threads() {
    for band in 0..seed_band() {
        let reports = run_chaos_corpus(0x4DD5_EED0 + band * 1000, 4);
        assert!(!reports.is_empty());
    }
}

/// Across the corpus the seeded schedules must actually exercise the fault
/// machinery — a sweep where nothing ever fires wouldn't be a chaos test.
#[test]
fn chaos_corpus_fires_faults() {
    let reports = run_chaos_corpus(0xF1_6ED, 2);
    let fired: usize = reports.iter().map(|r| r.faults_fired).sum();
    assert!(
        fired > 0,
        "no fault fired across {} scenarios — schedules are miswired",
        reports.len()
    );
    // And most scenarios stay within the oracle's attribute budget, so the
    // corpus-level equivalence claim is oracle-backed, not self-referential.
    let checked = reports.iter().filter(|r| r.oracle_checked).count();
    assert!(checked * 2 >= reports.len(), "{checked}/{} oracle-checked", reports.len());
}

/// A random relation with schema `n_attrs` and controlled cardinality.
fn random_relation(rows: usize, n_attrs: usize, max_card: u32, seed: u64) -> Relation {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut b = RelationBuilder::new();
    for a in 0..n_attrs {
        let name = format!("c{a}");
        let vals: Vec<i64> = (0..rows).map(|_| (next() % max_card as u64) as i64).collect();
        b = b.column_i64(&name, vals);
    }
    b.build().unwrap()
}

fn cover_of(rel: &Relation, threads: usize) -> Vec<CanonicalOd> {
    Fastod::new(DiscoveryConfig::default().with_threads(threads))
        .discover(&rel.encode())
        .ods
        .sorted()
}

/// The property behind the serving layer's fault story, randomized over
/// relation shape, thread count, and the failpoint being armed:
///
/// 1. while a pass dies at the armed failpoint, concurrently running
///    readers keep loading the **old epoch without blocking**;
/// 2. the poisoned session publishes nothing (epoch unchanged);
/// 3. after `recover()`, the published cover equals a from-scratch
///    discovery over the survivors — oracle-confirmed.
fn check_fault_then_recover(rows: usize, max_card: u32, seed: u64, threads: usize, site_ix: usize) {
    let base = random_relation(rows, 3, max_card, seed);
    let server = Server::new(ServeConfig {
        discovery: DiscoveryConfig::default().with_threads(threads),
        total_partition_budget: None,
        recovery: RecoveryPolicy::auto(),
    });
    let session = server.open("prop", &base).unwrap();
    let epoch_before = session.epoch();

    // Arm a pass-killing failpoint (panic — the harshest action). All
    // three sites are hit on every append pass: the two engine-thread
    // sites directly, and the executor-worker site by every worker of
    // every executor map, one-worker maps included. The judge maps its
    // batch through the validator even when no task is left to validate,
    // so the site is reached at every thread count.
    let sites = [faultkit::INCR_REFRESH, faultkit::INCR_JUDGE_BATCH, faultkit::EXECUTOR_WORKER];
    let site = sites[site_ix % sites.len()];
    let guard = faultkit::arm(faultkit::FaultPlan::new().rule(site, 0, faultkit::FaultAction::Panic));

    let batch = random_relation(4, 3, max_card, seed ^ 0xBEEF);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = {
            let (stop, session) = (&stop, &session);
            scope.spawn(move || {
                let mut loads = 0u64;
                // Do-while: at least one read even when the pass dies at its
                // very first instruction, before this thread is scheduled.
                loop {
                    let (epoch, _snap) = session.read();
                    assert_eq!(epoch, epoch_before, "no publication may happen mid-fault");
                    loads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                loads
            })
        };
        let err = session.push_batch(&batch).expect_err("armed panic must fail the pass");
        assert!(matches!(err, fastod_suite::serve::ServeError::Engine(_)), "{err}");
        stop.store(true, Ordering::Relaxed);
        let loads = reader.join().expect("reader must never panic");
        assert!(loads > 0, "reader made no progress — reads blocked on the failed pass");
    });
    assert!(session.is_poisoned());
    assert!(guard.fired_at(site), "the armed {site} rule never fired");
    assert_eq!(session.epoch(), epoch_before, "a failed pass must not publish");
    drop(guard);

    // Recovery republishes the engine's authoritative state: base + batch
    // (the rows were absorbed before the pass died — executor and judge
    // faults fire inside the lattice pass, refresh faults at its entry,
    // all after the relation mutated).
    session.recover().unwrap();
    assert!(!session.is_poisoned());
    assert!(session.epoch() > epoch_before);
    let (_, snap) = session.read();
    let mut survivors = base.clone();
    survivors.extend(&batch).unwrap();
    assert_eq!(snap.minimal_cover().sorted(), cover_of(&survivors, 1));
    let report = oracle_minimal_cover(&survivors.encode());
    let discovered = snap.minimal_cover().sorted().into_iter().collect();
    assert!(
        report.matches(&discovered),
        "recovered cover disagrees with the oracle:\n{}",
        report.diff(&discovered)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fault_then_recover_equals_scratch(
        rows in 6usize..24,
        max_card in 2u32..5,
        seed in any::<u64>(),
        site_ix in 0usize..3,
    ) {
        for threads in [1usize, 2, 4] {
            check_fault_then_recover(rows, max_card, seed, threads, site_ix);
        }
    }
}

/// Deadline plumbing end to end: a pass bounded by an impossible deadline
/// fails like a cancelled one (engine poisoned, nothing published), the
/// mutation stays absorbed, and recovery — which ignores the deadline —
/// restores the full answer.
#[test]
fn zero_deadline_pass_fails_and_recovers() {
    let base = random_relation(40, 4, 3, 7);
    let server = Server::new(ServeConfig {
        discovery: DiscoveryConfig::default()
            .with_pass_deadline(std::time::Duration::ZERO),
        total_partition_budget: None,
        recovery: RecoveryPolicy::auto(),
    });
    // Initial discovery is not a maintenance pass: it must succeed even
    // under a zero per-pass deadline.
    let session = server.open("deadline", &base).unwrap();
    let epoch = session.epoch();
    let batch = random_relation(4, 4, 3, 8);
    let err = session.push_batch(&batch).expect_err("zero deadline must kill the pass");
    assert!(err.to_string().contains("cancelled"), "{err}");
    assert!(session.is_poisoned());
    assert_eq!(session.epoch(), epoch);
    // heal() rebuilds without the deadline and republishes base + batch.
    assert_eq!(server.heal(), vec!["deadline".to_string()]);
    let (_, snap) = session.read();
    assert_eq!(snap.n_live(), 44);
    let mut survivors = base.clone();
    survivors.extend(&batch).unwrap();
    assert_eq!(snap.minimal_cover().sorted(), cover_of(&survivors, 1));
}

/// The one-shot driver ignores `pass_deadline` (documented contract): only
/// a deadline `cancel` token bounds `Fastod::discover`.
#[test]
fn one_shot_ignores_pass_deadline() {
    let rel = random_relation(30, 3, 3, 9);
    let cfg = DiscoveryConfig::default()
        .with_pass_deadline(std::time::Duration::ZERO)
        .with_cancel(CancelToken::never());
    let bounded = Fastod::new(cfg).discover(&rel.encode()).ods.sorted();
    let plain = Fastod::new(DiscoveryConfig::default()).discover(&rel.encode()).ods.sorted();
    assert_eq!(bounded, plain, "pass_deadline must not affect one-shot discovery");
}
