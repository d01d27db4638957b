//! Deterministic fault injection for the FASTOD suite.
//!
//! A **failpoint** is a named site compiled into production code (the
//! executor's worker loop, the incremental engine's pass machinery, the
//! serving layer's publish step) that a test can *arm* to panic, inject a
//! delay, or request cancellation on its Nth hit. The design mirrors the
//! `fastod-obs` recorder: when nothing is armed — the only state in
//! production — a site costs **one thread-local read** and branches away;
//! all bookkeeping lives behind that branch.
//!
//! A plan is **per thread**: [`arm`] installs it on the calling thread
//! only, and the returned [`FaultGuard`] disarms that thread when dropped.
//! The executor's workers [`adopt`] the plan of the thread that started the
//! call, so a pass sees exactly the faults its own thread armed, and tests
//! running concurrently on other threads never see (or use up) them.
//! Arming a second plan on a thread that already has one panics. The guard
//! also records which faults actually [`fired`](FaultGuard::fired), letting
//! a chaos harness decide afterwards whether a failed mutation was absorbed
//! before the fault hit (and so must not be replayed) or never happened.
//!
//! ```
//! use fastod_faultkit as faultkit;
//!
//! // Unarmed: a site is a no-op.
//! assert_eq!(faultkit::hit(faultkit::SERVE_PUBLISH), faultkit::Signal::Proceed);
//!
//! // Armed: the 0th hit of `serve.publish` asks the caller to cancel.
//! let guard = faultkit::arm(
//!     faultkit::FaultPlan::new().rule(faultkit::SERVE_PUBLISH, 0, faultkit::FaultAction::Cancel),
//! );
//! assert_eq!(faultkit::hit(faultkit::SERVE_PUBLISH), faultkit::Signal::Cancel);
//! assert_eq!(faultkit::hit(faultkit::SERVE_PUBLISH), faultkit::Signal::Proceed);
//! assert_eq!(guard.fired().len(), 1);
//! drop(guard);
//! ```

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// The executor's per-worker site, hit once per worker before its first item.
pub const EXECUTOR_WORKER: &str = "executor.worker";
/// The incremental judge's batch entry point.
pub const INCR_JUDGE_BATCH: &str = "incr.judge_batch";
/// The incremental engine's maintenance-pass entry point.
pub const INCR_REFRESH: &str = "incr.refresh";
/// The serving layer's publish step (after the pass, before the epoch swap).
pub const SERVE_PUBLISH: &str = "serve.publish";
/// The growable relation's batch append, hit before any column mutates.
pub const RELATION_EXTEND: &str = "relation.extend";

/// Every named site, in a stable order (seeded schedules index into this).
pub const SITES: &[&str] = &[
    EXECUTOR_WORKER,
    INCR_JUDGE_BATCH,
    INCR_REFRESH,
    SERVE_PUBLISH,
    RELATION_EXTEND,
];

/// What an armed rule does when its hit comes up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site; callers are expected to contain it.
    Panic,
    /// Sleep for this many milliseconds, then proceed normally.
    Delay(u64),
    /// Ask the caller to behave as if its cancellation token fired.
    Cancel,
}

/// One armed rule: fire `action` on the `nth` hit (0-based, counted from
/// arming) of `site`. A rule fires at most once.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// The failpoint name (one of [`SITES`]).
    pub site: &'static str,
    /// Which hit of the site triggers the rule, counting from 0.
    pub nth: u64,
    /// What happens when it triggers.
    pub action: FaultAction,
}

/// A schedule of fault rules to arm together.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The rules, in arming order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan: nothing fires.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a rule: `action` on the `nth` hit of `site`.
    pub fn rule(mut self, site: &'static str, nth: u64, action: FaultAction) -> FaultPlan {
        self.rules.push(FaultRule { site, nth, action });
        self
    }

    /// A deterministic pseudo-random schedule: the same seed always produces
    /// the same rules (1–3 of them, drawn over [`SITES`] × all three actions
    /// × hits 0–2), so a chaos failure reproduces from its seed alone.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // xorshift64: cheap, deterministic, no external RNG.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n_rules = 1 + (next() % 3) as usize;
        let mut plan = FaultPlan::new();
        for _ in 0..n_rules {
            let site = SITES[(next() % SITES.len() as u64) as usize];
            let action = match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Delay(1 + next() % 3),
                _ => FaultAction::Cancel,
            };
            plan = plan.rule(site, next() % 3, action);
        }
        plan
    }
}

/// A fault that actually fired while a guard was armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiredFault {
    /// The site that fired.
    pub site: &'static str,
    /// The action taken.
    pub action: FaultAction,
    /// Which hit of the site it was (0-based).
    pub hit: u64,
}

/// What a site asks its caller to do. Only [`FaultAction::Cancel`] surfaces
/// here — panics and delays happen inside [`hit`] itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signal {
    /// Nothing armed (or nothing due): carry on.
    Proceed,
    /// Behave as if the caller's cancellation token fired.
    Cancel,
}

thread_local! {
    /// The plan armed on (or adopted by) this thread, if any.
    static PLAN: RefCell<Option<ArmedPlan>> = const { RefCell::new(None) };
}

struct PlanState {
    rules: Vec<(FaultRule, bool)>, // (rule, consumed)
    hits: HashMap<&'static str, u64>,
    fired: Vec<FiredFault>,
}

/// A handle on an armed schedule (rules, per-site hit counters, fired
/// log), shared by the arming thread and the threads that [`adopt`] it.
#[derive(Clone)]
pub struct ArmedPlan(Arc<Mutex<PlanState>>);

/// Arms a schedule on the calling thread, returning a guard that keeps it
/// armed until dropped.
///
/// Arming also installs (once, process-wide) a panic hook that suppresses
/// the default backtrace spew for panics whose message starts with
/// `faultkit:` — injected panics are expected and contained; their stderr
/// noise would drown real failures in chaos runs.
///
/// # Panics
/// If the calling thread already has a plan (armed or adopted).
pub fn arm(plan: FaultPlan) -> FaultGuard {
    install_quiet_hook();
    assert!(current().is_none(), "this thread already has a fault plan; drop its guard first");
    let armed = ArmedPlan(Arc::new(Mutex::new(PlanState {
        rules: plan.rules.into_iter().map(|r| (r, false)).collect(),
        hits: HashMap::new(),
        fired: Vec::new(),
    })));
    adopt(Some(armed.clone()));
    FaultGuard { plan: armed, _thread: PhantomData }
}

/// The calling thread's plan: armed here or adopted, `None` when unarmed.
pub fn current() -> Option<ArmedPlan> {
    PLAN.with_borrow(Option::clone)
}

/// Makes `plan` the calling thread's plan, so a thread started on behalf of
/// an armed caller (an executor worker) shares its caller's schedule: hit
/// counts, fired log and all. Pass [`current`] from the starting thread.
pub fn adopt(plan: Option<ArmedPlan>) {
    PLAN.set(plan);
}

/// Keeps a schedule armed on the thread that armed it; dropping it disarms
/// that thread and discards the schedule. Not `Send`: it must be dropped
/// on the thread it disarms.
pub struct FaultGuard {
    plan: ArmedPlan,
    _thread: PhantomData<*const ()>,
}

impl FaultGuard {
    /// The faults that have fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.plan.0.lock().unwrap_or_else(PoisonError::into_inner).fired.clone()
    }

    /// Whether any fault fired at `site`.
    pub fn fired_at(&self, site: &str) -> bool {
        self.fired().iter().any(|f| f.site == site)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        PLAN.take();
    }
}

/// A failpoint. Unarmed this is one thread-local read and a branch; armed
/// it counts the hit, fires any due rule (panicking or sleeping right
/// here), and returns what the caller should do.
#[inline]
pub fn hit(site: &'static str) -> Signal {
    match current() {
        None => Signal::Proceed,
        Some(plan) => hit_armed(&plan, site),
    }
}

#[cold]
fn hit_armed(plan: &ArmedPlan, site: &'static str) -> Signal {
    // An injected panic fires after the unlock below, and every update
    // leaves the state consistent, so a poisoned lock is safe to recover.
    let mut guard = plan.0.lock().unwrap_or_else(PoisonError::into_inner);
    let state = &mut *guard;
    let counter = state.hits.entry(site).or_insert(0);
    let n = *counter;
    *counter += 1;
    let due = state
        .rules
        .iter_mut()
        .find(|(rule, consumed)| !consumed && rule.site == site && rule.nth == n);
    let Some((rule, consumed)) = due else {
        return Signal::Proceed;
    };
    *consumed = true;
    let action = rule.action;
    state.fired.push(FiredFault { site, action, hit: n });
    // Panic/sleep outside the lock: a panicking hit must not poison the
    // plan, and a delay must not block other sites.
    drop(guard);
    match action {
        FaultAction::Panic => panic!("faultkit: injected panic at {site} (hit {n})"),
        FaultAction::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Signal::Proceed
        }
        FaultAction::Cancel => Signal::Cancel,
    }
}

/// Installs the `faultkit:`-silencing panic hook exactly once.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("faultkit:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_proceeds() {
        assert!(current().is_none());
        assert_eq!(hit(EXECUTOR_WORKER), Signal::Proceed);
    }

    #[test]
    fn nth_hit_fires_once() {
        let guard = arm(FaultPlan::new().rule(INCR_REFRESH, 1, FaultAction::Cancel));
        assert_eq!(hit(INCR_REFRESH), Signal::Proceed); // hit 0
        assert_eq!(hit(INCR_REFRESH), Signal::Cancel); // hit 1 fires
        assert_eq!(hit(INCR_REFRESH), Signal::Proceed); // consumed
        assert_eq!(
            guard.fired(),
            vec![FiredFault { site: INCR_REFRESH, action: FaultAction::Cancel, hit: 1 }]
        );
        assert!(guard.fired_at(INCR_REFRESH));
        assert!(!guard.fired_at(SERVE_PUBLISH));
    }

    #[test]
    fn panic_action_panics_and_is_recorded() {
        let guard = arm(FaultPlan::new().rule(SERVE_PUBLISH, 0, FaultAction::Panic));
        let caught = std::panic::catch_unwind(|| hit(SERVE_PUBLISH));
        let message = *caught
            .expect_err("armed panic must fire")
            .downcast::<String>()
            .expect("injected panics carry a String payload");
        assert!(message.starts_with("faultkit:"), "{message}");
        assert!(guard.fired_at(SERVE_PUBLISH));
        // The plan survives the panic (no poisoned lock).
        assert_eq!(hit(SERVE_PUBLISH), Signal::Proceed);
    }

    #[test]
    fn delay_action_proceeds() {
        let guard = arm(FaultPlan::new().rule(RELATION_EXTEND, 0, FaultAction::Delay(1)));
        assert_eq!(hit(RELATION_EXTEND), Signal::Proceed);
        assert_eq!(guard.fired()[0].action, FaultAction::Delay(1));
    }

    #[test]
    fn drop_disarms() {
        let guard = arm(FaultPlan::new().rule(INCR_JUDGE_BATCH, 0, FaultAction::Cancel));
        assert!(current().is_some());
        drop(guard);
        assert!(current().is_none());
        assert_eq!(hit(INCR_JUDGE_BATCH), Signal::Proceed);
    }

    #[test]
    fn plan_stays_on_the_arming_thread() {
        let guard = arm(FaultPlan::new().rule(SERVE_PUBLISH, 0, FaultAction::Cancel));
        // A thread spawned while the plan is armed neither fires the rule
        // nor uses up its hit.
        let other = std::thread::spawn(|| hit(SERVE_PUBLISH)).join().unwrap();
        assert_eq!(other, Signal::Proceed);
        assert_eq!(hit(SERVE_PUBLISH), Signal::Cancel); // hit 0, here
        assert_eq!(hit(SERVE_PUBLISH), Signal::Proceed);
        assert_eq!(guard.fired().len(), 1);
    }

    #[test]
    fn adopted_plan_shares_hits_and_fired_log() {
        let guard = arm(FaultPlan::new().rule(INCR_REFRESH, 1, FaultAction::Cancel));
        assert_eq!(hit(INCR_REFRESH), Signal::Proceed); // hit 0, here
        let plan = current();
        let other = std::thread::spawn(move || {
            adopt(plan);
            hit(INCR_REFRESH) // hit 1, on the adopting thread
        });
        assert_eq!(other.join().unwrap(), Signal::Cancel);
        assert_eq!(
            guard.fired(),
            vec![FiredFault { site: INCR_REFRESH, action: FaultAction::Cancel, hit: 1 }]
        );
    }

    #[test]
    #[should_panic(expected = "this thread already has a fault plan")]
    fn arming_twice_on_one_thread_panics() {
        let _first = arm(FaultPlan::new());
        let _second = arm(FaultPlan::new());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_nonempty() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            assert!(!a.rules.is_empty() && a.rules.len() <= 3);
            assert_eq!(format!("{:?}", a.rules), format!("{:?}", b.rules));
            for rule in &a.rules {
                assert!(SITES.contains(&rule.site));
                assert!(rule.nth < 3);
            }
        }
        // Different seeds explore different schedules.
        let distinct: std::collections::HashSet<String> =
            (0..64).map(|s| format!("{:?}", FaultPlan::seeded(s).rules)).collect();
        assert!(distinct.len() > 16, "seeded plans barely vary: {}", distinct.len());
    }
}
