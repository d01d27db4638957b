//! A small scoped-thread executor for the validation and product hot paths.
//!
//! The build environment is fully offline (no `rayon`), so data parallelism
//! is built directly on [`std::thread::scope`]: each call runs up to
//! `threads` workers — the calling thread plus up to `threads − 1` spawned
//! ones, so work starts before any spawn completes — that pull item indices
//! from a shared atomic counter and write `(index, result)` pairs into
//! per-worker buffers. The caller merges the buffers back into **input
//! order**, which is what makes every parallel stage of the suite
//! deterministic — the *scheduling* is free-running, but the merged result
//! vector (and therefore every downstream mutation applied from it) is
//! independent of thread count and interleaving.
//!
//! Worker-local scratch state (partition-product arenas, swap-scan buffers)
//! lives in a caller-owned pool that persists **across** calls: the lattice
//! driver keeps one pool for the whole discovery run, so level `l + 1`
//! reuses the arenas grown during level `l` instead of reallocating per
//! node. There is one loop for every thread count: with one worker (one
//! thread, or a single item) it runs on the calling thread and nothing is
//! spawned.

use crate::{CancelToken, PassError};
use fastod_faultkit as faultkit;
use fastod_obs::Obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// A deterministic fork/join executor over a fixed worker count.
///
/// Cloning is cheap (the executor is just a thread count); the extra
/// workers are spawned per call and joined before the call returns, so no
/// state outlives a `map`. See the [module docs](self) for the determinism
/// contract.
#[derive(Clone, Debug)]
pub struct Executor {
    threads: usize,
    obs: Obs,
}

impl Executor {
    /// Creates an executor with the given worker count. `0` selects
    /// [`std::thread::available_parallelism`]; `1` (the
    /// [`crate::DiscoveryConfig`] default) runs everything inline on the
    /// caller's thread.
    pub fn new(threads: usize) -> Executor {
        Executor::with_obs(threads, Obs::disabled())
    }

    /// Like [`Executor::new`], with an observability recorder: each call
    /// bumps `executor.calls`/`executor.items` and records per-worker
    /// `executor.worker_items` / `executor.worker_busy_us` /
    /// `executor.worker_idle_us` histograms (idle ≈ time lost to steal
    /// contention and join skew).
    pub fn with_obs(threads: usize, obs: Obs) -> Executor {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Executor { threads, obs }
    }

    /// The recorder this executor reports to (disabled unless constructed
    /// via [`Executor::with_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The resolved worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether calls may actually spawn worker threads.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Applies `f` to every item, returning the results in **input order**.
    ///
    /// `pool` holds one scratch value per worker and is grown on demand with
    /// `make`; it persists across calls so arenas are reused instead of
    /// reallocated (pass the same pool for every lattice level). `f` receives
    /// the worker's scratch, the item index, and the item.
    ///
    /// # Errors
    /// Returns [`PassError::Cancelled`] when `cancel` fires; every worker
    /// polls it before each item, so none starts another item once it has
    /// fired, and partial results are discarded. Returns
    /// [`PassError::Panicked`] when a task closure panics: the unwind is
    /// caught **per item**, sibling workers stop pulling work, and the
    /// panics observed are folded into one error by smallest item index —
    /// a worker panic fails the call, never the process. (Under racing
    /// workers a later item's panic can be the only one observed; the hard
    /// guarantee is that a failed call returns no partial results, not
    /// which of several panics is named.)
    pub fn try_map_with<S, T, R, F, M>(
        &self,
        pool: &mut Vec<S>,
        make: M,
        items: &[T],
        cancel: &CancelToken,
        f: F,
    ) -> Result<Vec<R>, PassError>
    where
        S: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut S, usize, &T) -> R + Sync,
        M: Fn() -> S,
    {
        let n_workers = self.threads.min(items.len()).max(1);
        if pool.len() < n_workers {
            pool.resize_with(n_workers, make);
        }
        let instrument = self.obs.is_enabled();
        if instrument {
            self.obs.add("executor.calls", 1);
            self.obs.add("executor.items", items.len() as u64);
        }
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let wall_start = instrument.then(Instant::now);
        let mut panics: Vec<(u32, PassError)> = Vec::new();
        let plan = faultkit::current();
        // One worker's loop: pull item indices until they run out or the
        // call stops; returns its results, busy time, item count and panic.
        // Every worker runs under the caller's fault plan, if any.
        let work = |scratch: &mut S| {
            faultkit::adopt(plan.clone());
            let mut local: Vec<(u32, R)> = Vec::new();
            let mut processed = 0usize;
            let mut busy_ns = 0u64;
            // A panic is reported with the index of the item that raised
            // it; a worker-startup fault (no item claimed yet) sorts after
            // every real item.
            let mut panic: Option<(u32, PassError)> = None;
            match run_worker_failpoint() {
                Ok(false) => {}
                Ok(true) => stop.store(true, Ordering::Relaxed),
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    panic = Some((u32::MAX, e));
                }
            }
            loop {
                if panic.is_some() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // Poll before every item: one item can be a long scan.
                if stop.load(Ordering::Relaxed) || cancel.is_cancelled() {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                processed += 1;
                let item_start = instrument.then(Instant::now);
                match catch_unwind(AssertUnwindSafe(|| f(scratch, i, &items[i]))) {
                    Ok(r) => local.push((i as u32, r)),
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        let error =
                            PassError::panicked(faultkit::EXECUTOR_WORKER, payload.as_ref());
                        panic = Some((i as u32, error));
                    }
                }
                if let Some(start) = item_start {
                    busy_ns += start.elapsed().as_nanos() as u64;
                }
            }
            (local, busy_ns, processed as u64, panic)
        };
        let mut buffers: Vec<Vec<(u32, R)>> = std::thread::scope(|scope| {
            // The calling thread is worker 0: it starts on the items at
            // once, while the others spawn. With one worker nothing spawns.
            let (own, others) = pool[..n_workers].split_first_mut().expect("n_workers >= 1");
            let work = &work;
            let handles: Vec<_> =
                others.iter_mut().map(|scratch| scope.spawn(move || work(scratch))).collect();
            let mut outs = vec![work(own)];
            outs.extend(handles.into_iter().map(|handle| {
                handle.join().expect("executor workers contain task panics internally")
            }));
            let mut buffers = Vec::with_capacity(n_workers);
            let mut worker_stats = Vec::with_capacity(n_workers);
            for (local, busy_ns, processed, panic) in outs {
                buffers.push(local);
                worker_stats.push((busy_ns, processed));
                if let Some(p) = panic {
                    panics.push(p);
                }
            }
            if let Some(wall_start) = wall_start {
                // Joined wall time is the fairest idle baseline: a worker's
                // idle = time it spent not running `f` while the call was
                // in flight (startup latency, steal contention, join skew).
                let wall_ns = wall_start.elapsed().as_nanos() as u64;
                let busy = self.obs.histogram("executor.worker_busy_us");
                let idle = self.obs.histogram("executor.worker_idle_us");
                let per_worker = self.obs.histogram("executor.worker_items");
                for &(busy_ns, processed) in &worker_stats {
                    busy.record(busy_ns / 1_000);
                    idle.record(wall_ns.saturating_sub(busy_ns) / 1_000);
                    per_worker.record(processed);
                }
            }
            buffers
        });
        // Deterministic fold: the smallest panicking item index names the
        // error (the one a single worker would have hit first).
        if let Some((_, error)) = panics.into_iter().min_by_key(|&(i, _)| i) {
            return Err(error);
        }
        // Only a worker-observed stop counts: when `stop` is unset every
        // index was processed, and a deadline elapsing after the fact must
        // not discard a complete result.
        if stop.load(Ordering::Relaxed) {
            return Err(PassError::Cancelled);
        }
        // Deterministic merge: place each result at its item index.
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        for buffer in &mut buffers {
            for (i, r) in buffer.drain(..) {
                out[i as usize] = Some(r);
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every item index produced a result"))
            .collect())
    }

    /// Infallible convenience wrapper over
    /// [`try_map_with`](Executor::try_map_with) with a throwaway pool.
    /// Re-raises a contained worker panic (there is no error channel here).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut pool: Vec<()> = Vec::new();
        match self.try_map_with(&mut pool, || (), items, &CancelToken::never(), |(), i, t| {
            f(i, t)
        }) {
            Ok(out) => out,
            Err(e) => panic!("never-cancelled map failed: {e}"),
        }
    }
}

/// Runs the `executor.worker` failpoint with any injected panic contained:
/// `Ok(false)` to proceed, `Ok(true)` when the fault requests cancellation,
/// [`PassError::Panicked`] when it fires a panic. Unarmed this is one
/// thread-local read.
fn run_worker_failpoint() -> Result<bool, PassError> {
    match catch_unwind(|| faultkit::hit(faultkit::EXECUTOR_WORKER)) {
        Ok(faultkit::Signal::Proceed) => Ok(false),
        Ok(faultkit::Signal::Cancel) => Ok(true),
        Err(payload) => Err(PassError::panicked(faultkit::EXECUTOR_WORKER, payload.as_ref())),
    }
}

impl Default for Executor {
    /// The single-threaded (inline) executor.
    fn default() -> Executor {
        Executor::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let exec = Executor::new(threads);
            let items: Vec<usize> = (0..1000).collect();
            let out = exec.map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let exec = Executor::new(0);
        assert!(exec.threads() >= 1);
    }

    #[test]
    fn pool_persists_across_calls() {
        let exec = Executor::new(3);
        let mut pool: Vec<Vec<u32>> = Vec::new();
        let items = [1u32; 100];
        // Each worker records into its scratch; pool survives the call.
        let _ = exec
            .try_map_with(&mut pool, Vec::new, &items, &CancelToken::never(), |s, i, _| {
                s.push(i as u32);
            })
            .unwrap();
        assert!(pool.len() <= 3 && !pool.is_empty());
        let total: usize = pool.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        // Second call reuses (and keeps growing) the same scratches.
        let _ = exec
            .try_map_with(&mut pool, Vec::new, &items, &CancelToken::never(), |s, i, _| {
                s.push(i as u32);
            })
            .unwrap();
        let total: usize = pool.iter().map(Vec::len).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn cancellation_aborts_parallel_map() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..10_000).collect();
        let cancel = CancelToken::with_timeout(std::time::Duration::ZERO);
        let mut pool: Vec<()> = Vec::new();
        let result = exec.try_map_with(&mut pool, || (), &items, &cancel, |(), _, &x| x);
        assert_eq!(result.unwrap_err(), PassError::Cancelled);
    }

    #[test]
    fn cancellation_aborts_inline_map() {
        let exec = Executor::new(1);
        let items: Vec<usize> = (0..10_000).collect();
        let cancel = CancelToken::with_timeout(std::time::Duration::ZERO);
        let mut pool: Vec<()> = Vec::new();
        let result = exec.try_map_with(&mut pool, || (), &items, &cancel, |(), _, &x| x);
        assert_eq!(result.unwrap_err(), PassError::Cancelled);
    }

    /// A token fired inside item 5 stops the call before item 6 starts.
    #[test]
    fn cancellation_is_polled_before_every_item() {
        let exec = Executor::new(1);
        let items: Vec<usize> = (0..1000).collect();
        let (cancel, handle) = CancelToken::manual();
        let ran = AtomicUsize::new(0);
        let mut pool: Vec<()> = Vec::new();
        let result = exec.try_map_with(&mut pool, || (), &items, &cancel, |(), _, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            if x == 5 {
                handle.store(true, Ordering::Relaxed);
            }
            x
        });
        assert_eq!(result.unwrap_err(), PassError::Cancelled);
        assert_eq!(ran.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn task_panic_is_contained_not_propagated() {
        for threads in [1usize, 2, 4] {
            let exec = Executor::new(threads);
            let items: Vec<usize> = (0..500).collect();
            let mut pool: Vec<()> = Vec::new();
            let result = exec.try_map_with(
                &mut pool,
                || (),
                &items,
                &CancelToken::never(),
                |(), _, &x| {
                    assert!(x != 137, "boom at 137");
                    x
                },
            );
            match result.unwrap_err() {
                PassError::Panicked { site, message } => {
                    assert_eq!(site, "executor.worker");
                    assert!(message.contains("boom at 137"), "threads={threads}: {message}");
                }
                other => panic!("expected Panicked, got {other:?} at threads={threads}"),
            }
            // The executor survives: the same pool runs a clean call next.
            let ok = exec
                .try_map_with(&mut pool, || (), &items, &CancelToken::never(), |(), _, &x| x)
                .unwrap();
            assert_eq!(ok.len(), 500);
        }
    }

    #[test]
    fn inline_panic_fold_names_first_item() {
        let exec = Executor::new(1);
        let items: Vec<usize> = (0..100).collect();
        let mut pool: Vec<()> = Vec::new();
        let err = exec
            .try_map_with(&mut pool, || (), &items, &CancelToken::never(), |(), _, &x| {
                assert!(x < 40, "first bad item {x}");
                x
            })
            .unwrap_err();
        match err {
            PassError::Panicked { message, .. } => {
                assert!(message.contains("first bad item 40"), "{message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn armed_worker_failpoint_fails_the_call() {
        use fastod_faultkit as faultkit;
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..256).collect();
        // Panic action: contained into PassError::Panicked.
        {
            let _guard = faultkit::arm(faultkit::FaultPlan::new().rule(
                faultkit::EXECUTOR_WORKER,
                0,
                faultkit::FaultAction::Panic,
            ));
            let mut pool: Vec<()> = Vec::new();
            let err = exec
                .try_map_with(&mut pool, || (), &items, &CancelToken::never(), |(), _, &x| x)
                .unwrap_err();
            assert!(matches!(err, PassError::Panicked { site: "executor.worker", .. }), "{err:?}");
        }
        // Hit `threads - 1` comes up only if every worker's startup hit
        // counts against the caller's plan.
        {
            let _guard = faultkit::arm(faultkit::FaultPlan::new().rule(
                faultkit::EXECUTOR_WORKER,
                exec.threads() as u64 - 1,
                faultkit::FaultAction::Panic,
            ));
            let mut pool: Vec<()> = Vec::new();
            let err = exec
                .try_map_with(&mut pool, || (), &items, &CancelToken::never(), |(), _, &x| x)
                .unwrap_err();
            assert!(matches!(err, PassError::Panicked { site: "executor.worker", .. }), "{err:?}");
        }
        // Cancel action: surfaces as a cancelled pass.
        {
            let _guard = faultkit::arm(faultkit::FaultPlan::new().rule(
                faultkit::EXECUTOR_WORKER,
                0,
                faultkit::FaultAction::Cancel,
            ));
            let mut pool: Vec<()> = Vec::new();
            let err = exec
                .try_map_with(&mut pool, || (), &items, &CancelToken::never(), |(), _, &x| x)
                .unwrap_err();
            assert_eq!(err, PassError::Cancelled);
        }
        // Disarmed again: clean run.
        let out = exec.map(&items, |_, &x| x);
        assert_eq!(out.len(), 256);
    }

    #[test]
    fn a_plan_armed_on_another_thread_never_fires_here() {
        use fastod_faultkit as faultkit;
        use std::sync::Barrier;
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..256).collect();
        let run = || {
            let mut pool: Vec<()> = Vec::new();
            exec.try_map_with(&mut pool, || (), &items, &CancelToken::never(), |(), _, &x| x)
        };
        // Armed, unarmed, armed: the other thread holds its plan across
        // this thread's whole call, then runs a call of its own.
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let armed = scope.spawn(|| {
                let _guard = faultkit::arm(faultkit::FaultPlan::new().rule(
                    faultkit::EXECUTOR_WORKER,
                    0,
                    faultkit::FaultAction::Panic,
                ));
                barrier.wait();
                barrier.wait();
                run()
            });
            barrier.wait();
            let unarmed = run();
            barrier.wait();
            assert_eq!(unarmed.expect("no plan on this thread").len(), 256);
            let err = armed.join().unwrap().unwrap_err();
            assert!(matches!(err, PassError::Panicked { site: "executor.worker", .. }), "{err:?}");
        });
    }

    #[test]
    fn empty_items() {
        let exec = Executor::new(4);
        let out: Vec<u32> = exec.map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn obs_counters_exact_across_thread_counts() {
        for threads in [1usize, 2, 4] {
            let obs = Obs::enabled();
            let exec = Executor::with_obs(threads, obs.clone());
            let items: Vec<u64> = (0..1003).collect();
            let seen = obs.counter("test.items_seen");
            let mut pool: Vec<()> = Vec::new();
            let out = exec
                .try_map_with(&mut pool, || (), &items, &CancelToken::never(), |(), _, &x| {
                    seen.incr();
                    x
                })
                .unwrap();
            assert_eq!(out.len(), 1003);
            let snap = obs.snapshot();
            // Exact totals regardless of scheduling/interleaving.
            assert_eq!(snap.counter("test.items_seen"), Some(1003), "threads={threads}");
            assert_eq!(snap.counter("executor.items"), Some(1003));
            assert_eq!(snap.counter("executor.calls"), Some(1));
            let per_worker = snap.histogram("executor.worker_items").unwrap();
            assert_eq!(per_worker.count, threads as u64, "threads={threads}");
            // Per-worker item counts sum back to the item total.
            let total = (per_worker.mean * per_worker.count as f64).round() as u64;
            assert_eq!(total, 1003, "threads={threads}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..517).map(|i| i * 37 % 101).collect();
        let reference = Executor::new(1).map(&items, |i, &x| x.wrapping_mul(i as u64 + 1));
        for threads in [2, 3, 4, 7] {
            let out = Executor::new(threads).map(&items, |i, &x| x.wrapping_mul(i as u64 + 1));
            assert_eq!(out, reference, "threads={threads}");
        }
    }
}
