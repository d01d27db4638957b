//! # fastod-serve
//!
//! OD-as-a-service: a long-running, concurrent serving layer over the
//! incremental engine. The paper frames FASTOD as batch discovery; this
//! crate is the ROADMAP's production shape — a process that answers
//! "is `X ↦ Y` valid?" while mutation traffic streams in.
//!
//! ## Architecture
//!
//! ```text
//!            readers (any thread, lock-free)
//!        ──────────────┬────────────────────────
//!                      ▼
//!              ┌──────────────────┐   load (epoch, Arc)
//!              │    EpochCell     │◄─────────────────── is_valid / cover /
//!              │ slot A │ slot B  │                     orders_from_prefix
//!              └──────────────────┘
//!                      ▲ publish (epoch + 1)
//!        ┌─────────────┴───────────┐
//!        │ Session (engine mutex)  │  one maintenance pass at a time
//!        │  IncrementalDiscovery   │  (appends / deletes / updates)
//!        └─────────────────────────┘
//!                      ▲
//!              Server registry — many sessions
//! ```
//!
//! Each [`Session`] double-buffers its published [`CoverSnapshot`] behind
//! an [`EpochCell`]: readers load the current snapshot without ever
//! blocking (the writer only touches the shadow slot), and a maintenance
//! pass that fails or cancels publishes nothing — every observable cover is
//! the complete, minimal, fully validated output of some finished pass.
//! See the module docs of [`publish`] for the memory-ordering argument and
//! [`session`] for the reader/maintainer contract.
//!
//! ## Quickstart
//!
//! ```
//! use fastod_serve::{ServeConfig, Server};
//!
//! let server = Server::new(ServeConfig::default());
//! let table = fastod_datagen::employee_table();
//! let session = server.open("employees", &table).unwrap();
//!
//! // Lock-free read — the paper's §1 example: rows ordered by salary are
//! // already ordered by tax percentile.
//! let (epoch, snap) = session.read();
//! let sal = snap.schema().attr_id("sal").unwrap();
//! let perc = snap.schema().attr_id("perc").unwrap();
//! assert!(snap.is_valid(&[sal], &[perc]));
//!
//! // Mutations go through the session; each success publishes a new epoch.
//! session.delete_rows(&[0]).unwrap();
//! assert!(session.epoch() > epoch);
//! ```

#![deny(missing_docs)]

pub mod publish;
pub mod session;
pub mod snapshot;

pub use publish::EpochCell;
pub use session::{RecoveryPolicy, ServeConfig, ServeError, Server, Session};
pub use snapshot::CoverSnapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use fastod_datagen::random_relation;
    use fastod_relation::RelationBuilder;

    #[test]
    fn open_read_mutate_close() {
        let server = Server::new(ServeConfig::default());
        let base = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3])
            .column_i64("c", vec![7, 7, 7])
            .build()
            .unwrap();
        let session = server.open("t", &base).unwrap();
        assert_eq!(server.names(), vec!["t".to_string()]);
        assert!(matches!(
            server.open("t", &base),
            Err(ServeError::DuplicateSession(_))
        ));

        let (e0, snap) = session.read();
        assert_eq!(e0, 0);
        assert_eq!(snap.n_live(), 3);
        assert!(snap.constant_attrs().contains(&1));

        // Breaking c's constancy is visible in the next epoch's snapshot,
        // while the old Arc keeps its old answer.
        let batch = RelationBuilder::new()
            .column_i64("k", vec![4])
            .column_i64("c", vec![9])
            .build()
            .unwrap();
        session.push_batch(&batch).unwrap();
        let (e1, snap1) = session.read();
        assert_eq!(e1, 1);
        assert!(!snap1.constant_attrs().contains(&1));
        assert!(snap.constant_attrs().contains(&1), "old snapshot is immutable");
        assert_eq!(snap1.passes(), snap.passes() + 1);

        // Deleting the outlier revives it one epoch later.
        session.delete_rows(&[3]).unwrap();
        let (e2, snap2) = session.read();
        assert_eq!(e2, 2);
        assert!(snap2.constant_attrs().contains(&1));
        assert!(snap2.is_valid(&[0], &[1]));

        server.close("t").unwrap();
        assert!(server.is_empty());
        assert!(matches!(
            server.close("t"),
            Err(ServeError::UnknownSession(_))
        ));
        // A held Arc outlives the registry entry.
        assert_eq!(snap2.n_live(), 3);
    }

    #[test]
    fn metrics_cover_reads_and_passes() {
        let obs = fastod_obs::Obs::enabled();
        let config = ServeConfig {
            discovery: fastod::DiscoveryConfig::default().with_obs(obs),
            ..ServeConfig::default()
        };
        let server = Server::new(config);
        let session = server.open("r", &random_relation(20, 3, 3, 11)).unwrap();
        for _ in 0..10 {
            let _ = session.read();
        }
        session.push_batch(&random_relation(5, 3, 3, 12)).unwrap();
        let snap = session.metrics();
        assert_eq!(snap.counter("serve.reads"), Some(10));
        assert_eq!(snap.histogram("serve.read_ns").unwrap().count, 10);
        // One mutation pass (open's initial discovery doesn't go through
        // maintain), plus the engine's own pass counters underneath.
        assert_eq!(snap.histogram("serve.pass_us").unwrap().count, 1);
        assert_eq!(snap.span("serve_pass").unwrap().count, 1);
        assert_eq!(snap.counter("incr.passes"), Some(2));
        assert!(snap.histogram("serve.publish_lag_us").unwrap().count >= 1);
        // The server shares the recorder, so its view matches.
        assert_eq!(server.metrics().counter("serve.reads"), Some(10));

        // Disabled observability → empty snapshots, still serving fine.
        let quiet = Server::new(ServeConfig::default());
        let s = quiet.open("q", &random_relation(8, 3, 3, 13)).unwrap();
        let _ = s.read();
        assert!(s.metrics().is_empty());
        assert!(quiet.metrics().is_empty());
    }

    #[test]
    fn fault_metrics_cover_failure_and_recovery() {
        use fastod_faultkit as faultkit;
        let obs = fastod_obs::Obs::enabled();
        let config = ServeConfig {
            discovery: fastod::DiscoveryConfig::default().with_obs(obs),
            recovery: RecoveryPolicy::auto(),
        };
        let server = Server::new(config);
        let session = server.open("r", &random_relation(20, 3, 3, 21)).unwrap();

        let guard = faultkit::arm(faultkit::FaultPlan::new().rule(
            faultkit::INCR_REFRESH,
            0,
            faultkit::FaultAction::Panic,
        ));
        session
            .push_batch(&random_relation(4, 3, 3, 22))
            .expect_err("armed panic must fail the pass");
        drop(guard);
        session.recover().unwrap();

        let snap = session.metrics();
        assert_eq!(snap.counter("serve.pass_failures"), Some(1));
        assert_eq!(snap.counter("incr.panics_contained"), Some(1));
        assert_eq!(snap.counter("serve.recoveries"), Some(1));
        assert_eq!(snap.histogram("serve.recovery_us").unwrap().count, 1);
    }

    #[test]
    fn failed_mutation_publishes_nothing() {
        let server = Server::new(ServeConfig::default());
        let base = random_relation(8, 3, 3, 1);
        let session = server.open("r", &base).unwrap();
        let before = session.epoch();
        let wrong = random_relation(2, 4, 3, 2);
        assert!(matches!(
            session.push_batch(&wrong),
            Err(ServeError::Engine(_))
        ));
        assert!(matches!(
            session.delete_rows(&[99]),
            Err(ServeError::Engine(_))
        ));
        assert_eq!(session.epoch(), before, "failed passes must not publish");
    }

    #[test]
    fn two_sessions_open_mutate_and_close() {
        let server = Server::new(ServeConfig::default());
        let a = server.open("a", &random_relation(20, 4, 3, 3)).unwrap();
        let b = server.open("b", &random_relation(20, 4, 3, 4)).unwrap();
        a.push_batch(&random_relation(5, 4, 3, 5)).unwrap();
        b.push_batch(&random_relation(5, 4, 3, 6)).unwrap();
        assert_eq!(server.len(), 2);
        // Closing one session leaves the other serving and absorbing.
        server.close("a").unwrap();
        b.push_batch(&random_relation(5, 4, 3, 7)).unwrap();
        assert_eq!(b.read().1.n_live(), 30);
    }

    #[test]
    fn cancelled_pass_keeps_serving_last_cover() {
        let server = Server::new(ServeConfig::default());
        let base = random_relation(20, 4, 3, 8);
        let session = server.open("r", &base).unwrap();
        let (epoch, snap) = session.read();
        session.cancel_maintenance();
        assert!(matches!(
            session.push_batch(&random_relation(4, 4, 3, 9)),
            Err(ServeError::Engine(_))
        ));
        assert!(session.is_poisoned());
        // The poisoned engine serves nothing new, but the published
        // snapshot — fully validated — keeps answering at the old epoch.
        assert_eq!(session.epoch(), epoch);
        assert_eq!(session.read().1.n_live(), snap.n_live());
    }
}
