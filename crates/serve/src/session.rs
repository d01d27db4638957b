//! Sessions (one served relation each) and the server registry.

use crate::publish::EpochCell;
use crate::snapshot::CoverSnapshot;
use fastod::{CancelToken, DiscoveryConfig, PassError};
use fastod_faultkit as faultkit;
use fastod_incremental::{BatchReport, IncrementalDiscovery, IncrementalError};
use fastod_obs::{Counter, Histogram, MetricsSnapshot, Obs};
use fastod_relation::{Relation, Schema};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// No session is registered under this name.
    UnknownSession(String),
    /// A session under this name already exists.
    DuplicateSession(String),
    /// The underlying maintenance engine rejected the mutation (bad schema,
    /// bad row ids, cancelled pass, …). The published cover is unchanged.
    Engine(IncrementalError),
    /// A maintenance thread panicked while holding the engine mutex in a
    /// way the containment boundaries could not fold into a typed error
    /// (the mutex itself is poisoned). The session keeps serving its last
    /// published cover but accepts no further mutations; close and reopen
    /// it. Pass-level panics never surface here — they become
    /// [`IncrementalError::Panicked`] and the session is recoverable via
    /// [`Session::recover`].
    MaintenancePanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(name) => write!(f, "unknown session `{name}`"),
            ServeError::DuplicateSession(name) => write!(f, "session `{name}` already exists"),
            ServeError::Engine(e) => write!(f, "maintenance rejected: {e}"),
            ServeError::MaintenancePanicked => {
                f.write_str("a maintenance pass panicked; close and reopen the session")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IncrementalError> for ServeError {
    fn from(e: IncrementalError) -> Self {
        ServeError::Engine(e)
    }
}

/// One served relation: an [`IncrementalDiscovery`] engine behind a
/// maintenance mutex, publishing [`CoverSnapshot`]s through an
/// [`EpochCell`].
///
/// The reader/maintainer contract:
///
/// * **Reads never block.** [`read`](Session::read) touches only the epoch
///   cell — never the engine mutex — so queries keep answering at full
///   speed while a maintenance pass runs, no matter how long it takes.
/// * **Reads are never torn.** Every snapshot a reader observes is the
///   complete output of some finished pass (cover, row counts and epoch
///   swapped in atomically), and epochs observed by any one reader are
///   monotone.
/// * **Reads are always validated.** A cancelled or failed pass publishes
///   nothing: the previous snapshot keeps serving (its rows-absorbed
///   horizon is simply older). This is what keeps the errata-corrected
///   completeness guarantee intact under concurrency — there is no instant
///   at which a half-maintained cover is visible.
/// * **Maintenance is serialized per session** by the engine mutex;
///   different sessions maintain concurrently.
pub struct Session {
    name: String,
    engine: Mutex<IncrementalDiscovery>,
    published: EpochCell<CoverSnapshot>,
    /// Cancels an in-flight maintenance pass (cooperatively — the engine
    /// polls between work items, including inside sharded delete-wave
    /// escalations). Fired by [`Server::close`] so teardown latency is
    /// bounded; the poisoned engine then serves nothing, but the session is
    /// being dropped anyway. Behind a mutex because
    /// [`recover`](Session::recover) swaps in a fresh token — the fired one
    /// must not kill the rebuild pass or any pass after it.
    cancel: Mutex<CancelToken>,
    /// The recorder from the session's [`DiscoveryConfig`] (shared with the
    /// engine, and — via [`ServeConfig`] — with every sibling session).
    obs: Obs,
    /// Pre-resolved serving metrics: handles are resolved once at open so
    /// the read path pays one branch (disabled) or one relaxed RMW
    /// (enabled), never a registry lookup.
    read_ns: Histogram,
    reads: Counter,
    pass_us: Histogram,
    publish_us: Histogram,
    pass_failures: Counter,
    recoveries: Counter,
    recovery_us: Histogram,
}

impl Session {
    /// Opens a session by running the initial discovery over `rel`.
    ///
    /// The configured cancel token is replaced by a session-owned manual
    /// token (composed with nothing else: serving sessions are long-lived,
    /// deadline tokens belong to one-shot runs).
    ///
    /// # Errors
    /// [`ServeError::Engine`] when the initial pass is cancelled before it
    /// completes (only possible if the session is being torn down already).
    pub fn open(
        name: impl Into<String>,
        rel: &Relation,
        mut config: DiscoveryConfig,
    ) -> Result<Session, ServeError> {
        let (cancel, _flag) = CancelToken::manual();
        config.cancel = cancel.clone();
        let obs = config.obs.clone();
        let engine = IncrementalDiscovery::with_config(rel, config)?;
        let initial = CoverSnapshot::of(&engine);
        Ok(Session {
            name: name.into(),
            engine: Mutex::new(engine),
            published: EpochCell::new(Arc::new(initial)),
            cancel: Mutex::new(cancel),
            read_ns: obs.histogram("serve.read_ns"),
            reads: obs.counter("serve.reads"),
            pass_us: obs.histogram("serve.pass_us"),
            publish_us: obs.histogram("serve.publish_lag_us"),
            pass_failures: obs.counter("serve.pass_failures"),
            recoveries: obs.counter("serve.recoveries"),
            recovery_us: obs.histogram("serve.recovery_us"),
            obs,
        })
    }

    /// The session's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The served schema (immutable for the session's lifetime).
    pub fn schema(&self) -> Schema {
        self.read().1.schema().clone()
    }

    /// The current published snapshot with its epoch — lock-free, never
    /// blocked by maintenance. Hold the `Arc` for as long as a consistent
    /// view is needed; it stays valid (and unchanged) across any number of
    /// later publishes.
    pub fn read(&self) -> (u64, Arc<CoverSnapshot>) {
        // Timing only when observed: the histogram handle is pre-resolved,
        // so the disabled fast path is a single branch.
        if self.read_ns.is_enabled() {
            let start = Instant::now();
            let out = self.published.load();
            self.read_ns.record(start.elapsed().as_nanos() as u64);
            self.reads.incr();
            out
        } else {
            self.published.load()
        }
    }

    /// The current publication epoch (one probe, no snapshot clone).
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// Appends a batch, then publishes the new cover.
    ///
    /// # Errors
    /// [`ServeError::Engine`] when the engine rejects or cancels the pass
    /// (nothing is published); [`ServeError::MaintenancePanicked`] if an
    /// earlier pass panicked.
    pub fn push_batch(&self, batch: &Relation) -> Result<BatchReport, ServeError> {
        self.maintain(|engine| engine.push_batch(batch))
    }

    /// Tombstones rows (physical ids), then publishes the new cover.
    ///
    /// # Errors
    /// As for [`push_batch`](Session::push_batch).
    pub fn delete_rows(&self, rows: &[usize]) -> Result<BatchReport, ServeError> {
        self.maintain(|engine| engine.delete_rows(rows))
    }

    /// Replaces rows (physical ids) with `replacement`, then publishes the
    /// new cover.
    ///
    /// # Errors
    /// As for [`push_batch`](Session::push_batch).
    pub fn update_rows(
        &self,
        rows: &[usize],
        replacement: &Relation,
    ) -> Result<BatchReport, ServeError> {
        self.maintain(|engine| engine.update_rows(rows, replacement))
    }

    /// Runs one maintenance step under the engine mutex and publishes the
    /// resulting snapshot iff the pass succeeded. The pass runs on the
    /// caller's thread — the serving layer imposes no thread of its own —
    /// but concurrent callers serialize here, and readers are never
    /// involved.
    fn maintain(
        &self,
        step: impl FnOnce(&mut IncrementalDiscovery) -> Result<BatchReport, IncrementalError>,
    ) -> Result<BatchReport, ServeError> {
        let mut engine = self.lock_engine()?;
        let span = self.obs.span("serve_pass");
        // Containment boundary: the pass itself folds its own failures into
        // typed errors (the engine poisons itself), but the gap between
        // pass success and snapshot construction — including the
        // `serve.publish` failpoint — can still unwind. Catch it here so
        // the engine mutex is never poisoned and the process never dies.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let report = step(&mut engine)?;
            // An armed `Cancel` at the publish site models "pass absorbed,
            // publication lost": the engine is ahead of the published
            // snapshot, so consistency demands a rebuild.
            if let faultkit::Signal::Cancel = faultkit::hit(faultkit::SERVE_PUBLISH) {
                engine.mark_poisoned();
                return Err(ServeError::Engine(IncrementalError::Cancelled));
            }
            Ok((report, CoverSnapshot::of(&engine)))
        }));
        drop(span);
        match outcome {
            Ok(Ok((report, snapshot))) => {
                let publish_start = Instant::now();
                self.published.publish(Arc::new(snapshot));
                if self.obs.is_enabled() {
                    // Publish lag: time the new cover existed before readers
                    // could see it (epoch swap only; construction is timed
                    // inside the pass span).
                    self.publish_us.record(publish_start.elapsed().as_micros() as u64);
                    self.pass_us.record(report.elapsed.as_micros() as u64);
                }
                Ok(report)
            }
            Ok(Err(e)) => {
                self.pass_failures.incr();
                Err(e)
            }
            Err(payload) => {
                // Panicked after the pass succeeded (publication path): the
                // absorbed state is ahead of the published snapshot.
                engine.mark_poisoned();
                self.pass_failures.incr();
                let PassError::Panicked { site, message } =
                    PassError::panicked(faultkit::SERVE_PUBLISH, payload.as_ref())
                else {
                    unreachable!("panicked() always builds Panicked")
                };
                Err(ServeError::Engine(IncrementalError::Panicked { site, message }))
            }
        }
    }

    /// Rebuilds a poisoned session in place and republishes at a fresh
    /// epoch: swaps a fresh cancel token into the engine (the fired one may
    /// be what killed the pass) and runs one from-scratch discovery pass
    /// over the surviving rows — deliberately without the per-pass
    /// deadline, so recovery can always complete. Readers are never blocked
    /// and never observe a gap: the last published snapshot keeps serving
    /// until the rebuilt cover is swapped in atomically.
    ///
    /// The recovered cover is byte-identical to what a from-scratch
    /// discovery over the surviving rows would publish (same config), so
    /// recovery re-establishes the completeness guarantee exactly.
    ///
    /// # Errors
    /// [`ServeError::Engine`] when the rebuild pass itself fails — the
    /// session stays poisoned and can be recovered again (the
    /// [`Server`]'s [`RecoveryPolicy`] automates bounded retries).
    pub fn recover(&self) -> Result<(), ServeError> {
        let mut engine = self.lock_engine()?;
        let started = Instant::now();
        let (fresh, _flag) = CancelToken::manual();
        engine.set_cancel(fresh.clone());
        *self.lock_cancel() = fresh;
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.rebuild()));
        match outcome {
            Ok(Ok(())) => {
                self.published.publish(Arc::new(CoverSnapshot::of(&engine)));
                self.recoveries.incr();
                if self.obs.is_enabled() {
                    self.recovery_us.record(started.elapsed().as_micros() as u64);
                }
                Ok(())
            }
            Ok(Err(e)) => Err(ServeError::Engine(e)),
            Err(payload) => {
                // A panic outside the rebuild pass's own containment.
                engine.mark_poisoned();
                let PassError::Panicked { site, message } =
                    PassError::panicked("serve.recover", payload.as_ref())
                else {
                    unreachable!("panicked() always builds Panicked")
                };
                Err(ServeError::Engine(IncrementalError::Panicked { site, message }))
            }
        }
    }

    /// A snapshot of everything the session's recorder collected: `serve.*`
    /// read/pass metrics plus the engine's `incr.*` counters and spans.
    /// Sessions opened through one [`Server`] share that server's recorder,
    /// so their metrics aggregate; open a [`Session`] directly with a
    /// dedicated [`DiscoveryConfig::obs`] for per-relation isolation. Empty
    /// when observability is disabled.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Whether the engine was poisoned by a failed (cancelled, timed-out,
    /// or panicked) pass. The session still serves its last published
    /// snapshot; mutations are rejected until [`Session::recover`] runs.
    pub fn is_poisoned(&self) -> bool {
        self.lock_engine().map(|e| e.is_poisoned()).unwrap_or(true)
    }

    /// Requests cancellation of any in-flight maintenance pass. The pass
    /// fails with [`IncrementalError::Cancelled`] and publishes nothing.
    pub fn cancel_maintenance(&self) {
        self.lock_cancel().cancel();
    }

    fn lock_engine(&self) -> Result<MutexGuard<'_, IncrementalDiscovery>, ServeError> {
        self.engine.lock().map_err(|_| ServeError::MaintenancePanicked)
    }

    fn lock_cancel(&self) -> MutexGuard<'_, CancelToken> {
        // The token is only ever swapped or fired under this lock — a
        // poisoned mutex still holds a usable token, so recover from the
        // poison rather than wedging teardown.
        self.cancel.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// How a [`Server`] heals sessions poisoned by a failed maintenance pass:
/// up to `max_attempts` [`Session::recover`] calls with exponential backoff
/// between them. The default is **disabled** (`max_attempts == 0`) —
/// explicit [`Session::recover`] always works, but nothing retries
/// automatically unless opted in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Rebuild attempts per [`Server::heal`] / [`Server::recover`] call
    /// (`0` disables automatic healing).
    pub max_attempts: u32,
    /// Sleep before the *second* attempt (the first runs immediately).
    pub initial_backoff: Duration,
    /// Backoff cap: the sleep doubles per attempt but never exceeds this.
    pub max_backoff: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::disabled()
    }
}

impl RecoveryPolicy {
    /// No automatic recovery (the default).
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            max_attempts: 0,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// A sane opt-in preset: 3 attempts, 10ms initial backoff, 1s cap.
    pub fn auto() -> RecoveryPolicy {
        RecoveryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// Registry of concurrently served relations.
///
/// Sessions are handed out as `Arc`s: queries and mutations go straight to
/// the [`Session`] (the registry lock is only held to look names up, never
/// across a maintenance pass), so maintenance on one relation never delays
/// reads or writes on another.
pub struct Server {
    config: ServeConfig,
    sessions: RwLock<HashMap<String, Arc<Session>>>,
}

/// Server-wide configuration.
#[derive(Clone, Default)]
pub struct ServeConfig {
    /// Per-session discovery/maintenance configuration. The `cancel` token
    /// is ignored (each session owns a manual token).
    pub discovery: DiscoveryConfig,
    /// Automatic healing of poisoned sessions (see [`RecoveryPolicy`]).
    /// Disabled by default.
    pub recovery: RecoveryPolicy,
}

impl Server {
    /// An empty registry.
    pub fn new(config: ServeConfig) -> Server {
        Server {
            config,
            sessions: RwLock::new(HashMap::new()),
        }
    }

    /// Opens a session over `rel` (running its initial discovery on the
    /// calling thread) and registers it under `name`.
    ///
    /// # Errors
    /// [`ServeError::DuplicateSession`] when the name is taken;
    /// [`ServeError::Engine`] when the initial discovery fails.
    pub fn open(&self, name: &str, rel: &Relation) -> Result<Arc<Session>, ServeError> {
        if self.session(name).is_some() {
            return Err(ServeError::DuplicateSession(name.to_string()));
        }
        // Initial discovery runs outside the registry lock so other
        // sessions keep serving and mutating; the name is re-checked at
        // insertion (a racing open of the same name loses politely).
        let session = Arc::new(Session::open(name, rel, self.config.discovery.clone())?);
        {
            let mut sessions = self.sessions.write().unwrap_or_else(|p| p.into_inner());
            if sessions.contains_key(name) {
                return Err(ServeError::DuplicateSession(name.to_string()));
            }
            sessions.insert(name.to_string(), Arc::clone(&session));
        }
        Ok(session)
    }

    /// Looks a session up by name.
    pub fn session(&self, name: &str) -> Option<Arc<Session>> {
        self.sessions
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
    }

    /// Closes a session: cancels any in-flight maintenance pass and removes
    /// it from the registry. Readers still holding the session's `Arc` keep
    /// their snapshots — `Arc`s make teardown safe, not instant.
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when the name is not registered.
    pub fn close(&self, name: &str) -> Result<(), ServeError> {
        let removed = self
            .sessions
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .remove(name)
            .ok_or_else(|| ServeError::UnknownSession(name.to_string()))?;
        removed.cancel_maintenance();
        Ok(())
    }

    /// The registered session names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .sessions
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the server-wide recorder ([`ServeConfig`]'s
    /// `discovery.obs`). Every session opened here shares it, so this is the
    /// aggregate view across all sessions, past and present. Empty when
    /// observability is disabled.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.config.discovery.obs.snapshot()
    }

    /// Recovers one poisoned session under the configured
    /// [`RecoveryPolicy`]: up to `max_attempts` rebuilds (at least one,
    /// even when the policy is disabled — an explicit call is an explicit
    /// ask) with exponential backoff between them. A healthy session
    /// recovers trivially (the rebuild is a no-op for the cover).
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] when the name is not registered;
    /// the last attempt's [`ServeError`] when every attempt fails (the
    /// session stays poisoned and keeps serving its last good snapshot).
    pub fn recover(&self, name: &str) -> Result<(), ServeError> {
        let session = self
            .session(name)
            .ok_or_else(|| ServeError::UnknownSession(name.to_string()))?;
        self.recover_session(&session)
    }

    /// Sweeps the registry and recovers every poisoned session under the
    /// configured [`RecoveryPolicy`]. Returns the names of the sessions
    /// that were poisoned and are now healthy. A no-op (empty result) when
    /// the policy is disabled. Sessions whose recovery fails after all
    /// attempts are left poisoned — still serving their last published
    /// snapshot — and reported by the next sweep.
    pub fn heal(&self) -> Vec<String> {
        if self.config.recovery.max_attempts == 0 {
            return Vec::new();
        }
        let sessions: Vec<Arc<Session>> = self
            .sessions
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        let mut healed = Vec::new();
        for session in sessions {
            if session.is_poisoned() && self.recover_session(&session).is_ok() {
                healed.push(session.name().to_string());
            }
        }
        healed.sort();
        healed
    }

    fn recover_session(&self, session: &Session) -> Result<(), ServeError> {
        let policy = &self.config.recovery;
        let attempts = policy.max_attempts.max(1);
        let mut backoff = policy.initial_backoff;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 && !backoff.is_zero() {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(policy.max_backoff);
            }
            match session.recover() {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one recovery attempt ran"))
    }
}
