//! The `fnas-serve` daemon: many jobs, one fleet, one listen address.
//!
//! A [`Server`] hosts one [`Coordinator`] per admitted job. Each
//! coordinator is exactly the PR 7/8 round-state machine with its own
//! crash-safe WAL under `jobs/<digest>/wal/` — the server adds only the
//! *multi-tenant* concerns around it:
//!
//! * **Admission.** `SubmitJob` decodes the spec bytes, derives the
//!   job digest, and is idempotent by digest (resubmitting a known job
//!   re-acknowledges it; the first submission's execution shape wins).
//!   When `max_jobs` jobs are already running the answer is
//!   [`Response::Retry`] and the spec is dropped — bounded queue, no
//!   unbounded buffering of strangers' payloads.
//! * **Fair scheduling.** Fleet workers send `PollAny`; the server runs
//!   deficit round-robin over runnable jobs: each visited job gets a
//!   `quantum` of assignments before the cursor moves on, so a
//!   wide job cannot starve a narrow one, and every runnable job is
//!   visited before any `Wait` is answered (work-conserving).
//! * **Status from bytes.** After every fresh settlement the job's
//!   [`JobProgress`] is published to the store (`progress.bin`), and
//!   the final checkpoint is published as `merged.ckpt` — so
//!   `JobStatus`/`WatchProgress` answer from artifacts, never from live
//!   round state, and `sha256sum jobs/<digest>/merged.ckpt` is the
//!   byte-identity surface the CI `serve` job pins against solo runs.
//! * **No polling.** [`Server::run`] blocks in `accept` and answers each
//!   connection on a thread of its own, so no request waits out a poll
//!   interval. With `expect_jobs` set, the state change that completes
//!   the workload arms a `linger_ms` deadline (late pollers still hear
//!   `Finished` until then); at it, a timer thread connects to the
//!   listener to wake the `accept`, and `run` returns.
//!
//! **Determinism.** The server never touches shard bytes: assignments,
//! fencing (`WrongJob`/`Stale`), barriers, and merges are all the
//! per-job coordinator's, so each job's result is byte-identical to a
//! solo run of the same spec ([`fnas_coord::run_rounds_local`])
//! regardless of how the fleet interleaves jobs (`tests/serve_jobs.rs`).
//! A one-job server is the `fnas-coord serve` front end.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fnas::job::JobSpec;
use fnas::Result;
use fnas_coord::proto::answer;
use fnas_coord::{
    Clock, Coordinator, CoordinatorOptions, LeasePolicy, Request, Response, JOB_STATE_CANCELLED,
    JOB_STATE_FINISHED, JOB_STATE_RUNNING,
};
use fnas_store::{DiskStore, Store};

use crate::progress::JobProgress;

/// Multi-tenant knobs of one serve daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Jobs allowed to run concurrently; submissions beyond this are
    /// answered [`Response::Retry`]. Clamped to ≥ 1.
    pub max_jobs: usize,
    /// When > 0, [`Server::run`] exits (after `linger_ms`) once this
    /// many jobs have been admitted and all of them reached a terminal
    /// state, and `PollAny` then answers `Finished` so fleet workers
    /// exit too. 0 means serve forever.
    pub expect_jobs: usize,
    /// Deficit-round-robin quantum: assignments a visited job may take
    /// before the scheduler cursor advances. Clamped to ≥ 1.
    pub quantum: u64,
    /// Backoff suggested when no job has assignable work.
    pub backoff_ms: u64,
    /// How long [`Server::run`] keeps answering after the last expected
    /// job finished, so late pollers hear `Finished`.
    pub linger_ms: u64,
    /// Lease TTL / straggler / replica policy of every hosted job.
    pub lease: LeasePolicy,
    /// Per-job submit-admission cap, in rounds (see
    /// [`CoordinatorOptions::max_buffered_rounds`]).
    pub max_buffered_rounds: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_jobs: 4,
            expect_jobs: 0,
            quantum: 2,
            backoff_ms: 50,
            linger_ms: 500,
            lease: LeasePolicy::with_ttl_ms(5_000),
            max_buffered_rounds: 2,
        }
    }
}

/// Lifecycle state of one admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and schedulable.
    Running,
    /// Every round merged; `merged.ckpt` is published.
    Finished,
    /// Cancelled by a client; no further assignments.
    Cancelled,
}

impl JobState {
    /// The protocol byte of this state (`JOB_STATE_*`).
    pub fn to_wire(self) -> u8 {
        match self {
            JobState::Running => JOB_STATE_RUNNING,
            JobState::Finished => JOB_STATE_FINISHED,
            JobState::Cancelled => JOB_STATE_CANCELLED,
        }
    }

    /// Human label, as printed by the CLI.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Finished => "finished",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One admitted job in the scheduler table.
#[derive(Debug)]
struct JobEntry {
    digest: u64,
    coordinator: Arc<Coordinator>,
    state: JobState,
    /// Remaining deficit-round-robin credit; replenished to the quantum
    /// when the cursor lands here with none left.
    deficit: u64,
}

/// Scheduler table: admission-ordered entries plus the DRR cursor, and
/// the lifecycle of [`Server::run`] that job states decide.
#[derive(Debug, Default)]
struct JobTable {
    entries: Vec<JobEntry>,
    cursor: usize,
    /// When the expected workload last completed; `None` while an
    /// expected job is still running. [`Server::run`] returns
    /// `linger_ms` later.
    done_at: Option<Instant>,
    /// Whether [`Server::run`] is accepting connections.
    serving: bool,
}

impl JobTable {
    fn find(&self, job: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.digest == job)
    }
}

/// The daemon. See the module docs; construct with [`Server::new`],
/// serve with [`Server::run`], or drive [`Server::handle`] directly in
/// tests.
#[derive(Debug)]
pub struct Server {
    opts: ServeOptions,
    clock: Arc<dyn Clock>,
    root: PathBuf,
    store: Arc<DiskStore>,
    jobs: Mutex<JobTable>,
    /// Signalled when the expected workload completes and when
    /// [`Server::run`] stops; the linger timer waits on it.
    workload_done: Condvar,
}

impl Server {
    /// Opens (creating if needed) a serve root. The root doubles as a
    /// [`DiskStore`] directory: per-job artifacts (progress, shard
    /// checkpoints, `merged.ckpt`) land under `jobs/<016x>/`, per-job
    /// WALs under `jobs/<016x>/wal/`, and the oracle cache under
    /// `objects/` — one directory to back up, `fnas-store stat` sees
    /// all of it.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the store root.
    pub fn new(root: &Path, opts: ServeOptions, clock: Arc<dyn Clock>) -> Result<Self> {
        let store = Arc::new(DiskStore::open(root)?);
        Ok(Server {
            opts,
            clock,
            root: root.to_path_buf(),
            store,
            jobs: Mutex::new(JobTable::default()),
            workload_done: Condvar::new(),
        })
    }

    /// The serve root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store every hosted job publishes artifacts through.
    pub fn store(&self) -> &Arc<DiskStore> {
        &self.store
    }

    /// Current `(digest, state)` of every admitted job, in admission
    /// order.
    pub fn jobs(&self) -> Vec<(u64, JobState)> {
        self.lock_jobs()
            .entries
            .iter()
            .map(|e| (e.digest, e.state))
            .collect()
    }

    /// The state of one job, if admitted.
    pub fn job_state(&self, job: u64) -> Option<JobState> {
        let table = self.lock_jobs();
        table.find(job).map(|at| table.entries[at].state)
    }

    /// The coordinator of one admitted job, if any — its epoch,
    /// fingerprint, telemetry and submit-admission slots.
    pub fn coordinator(&self, job: u64) -> Option<Arc<Coordinator>> {
        let table = self.lock_jobs();
        table
            .find(job)
            .map(|at| Arc::clone(&table.entries[at].coordinator))
    }

    fn lock_jobs(&self) -> MutexGuard<'_, JobTable> {
        self.jobs.lock().expect("serve jobs lock")
    }

    /// Answers one request — the entire multi-tenant protocol
    /// semantics; [`Server::run`] only moves frames.
    ///
    /// Lock order is jobs-table → per-job coordinator, everywhere; no
    /// path takes them in the other order, so a slow merge in one job
    /// can stall the scheduler at most for the duration of its own
    /// `handle` call and never deadlocks it.
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::SubmitJob {
                spec,
                batch,
                shards,
                rounds,
            } => self.submit_job(spec, *batch, *shards, *rounds),
            Request::JobStatus { job } | Request::WatchProgress { job } => self.status(*job),
            Request::ListJobs => self.list(),
            Request::CancelJob { job } => self.cancel(*job),
            Request::PollAny { worker } => self.next_assignment(worker),
            Request::Heartbeat { job, .. } | Request::Submit { job, .. } => {
                self.route(*job, request)
            }
        }
    }

    /// Admission: decode, dedupe by digest, enforce the job cap, build
    /// the per-job journaled coordinator.
    fn submit_job(&self, spec_bytes: &[u8], batch: u32, shards: u32, rounds: u64) -> Response {
        let Some(spec) = JobSpec::decode(spec_bytes) else {
            return Response::Error {
                what: "unparseable job spec bytes (not canonical JobSpec encoding)".to_string(),
            };
        };
        let job = spec.job_digest();
        let coordinator = {
            let mut table = self.lock_jobs();
            if table.find(job).is_some() {
                // Idempotent: the client may retry a submission whose
                // ack was lost. The first submission's execution shape
                // (batch/shards/rounds) is authoritative.
                return Response::JobAccepted { job };
            }
            let running = table
                .entries
                .iter()
                .filter(|e| e.state == JobState::Running)
                .count();
            if running >= self.opts.max_jobs.max(1) {
                return Response::Retry {
                    backoff_ms: self.opts.backoff_ms,
                };
            }
            let config = match spec.resolve() {
                Ok(config) => config,
                Err(e) => {
                    return Response::Error {
                        what: format!("job spec does not resolve: {e}"),
                    }
                }
            };
            let coord_opts = CoordinatorOptions {
                shards,
                rounds,
                lease: self.opts.lease,
                backoff_ms: self.opts.backoff_ms,
                max_buffered_rounds: self.opts.max_buffered_rounds,
            };
            let wal = self.store.job_dir(job).join("wal");
            let coordinator = match Coordinator::with_journal(
                config,
                batch as usize,
                coord_opts,
                Arc::clone(&self.clock),
                &wal,
            ) {
                Ok(c) => Arc::new(c),
                Err(e) => {
                    return Response::Error {
                        what: format!("job {job:#018x} not admitted: {e}"),
                    }
                }
            };
            table.entries.push(JobEntry {
                digest: job,
                coordinator: Arc::clone(&coordinator),
                state: JobState::Running,
                deficit: 0,
            });
            table.done_at = None;
            coordinator
        };
        // A resubmitted journal may recover straight into the finished
        // state; finalize exactly as a live last-shard submit would.
        self.after_settlement(job, &coordinator);
        Response::JobAccepted { job }
    }

    /// Routes a heartbeat or submit to the coordinator of the job it
    /// names.
    fn route(&self, job: u64, request: &Request) -> Response {
        let coordinator = {
            let table = self.lock_jobs();
            let Some(at) = table.find(job) else {
                return Response::Error {
                    what: format!("unknown job {job:#018x}; SubmitJob it first"),
                };
            };
            let entry = &table.entries[at];
            if entry.state == JobState::Cancelled {
                // A worker still finishing a shard of a cancelled job is
                // waved off without being treated as faulty: its lease is
                // void (heartbeat), and its result is discarded (submit,
                // via the same Stale verb an epoch fence uses).
                return match request {
                    Request::Heartbeat { .. } => Response::Ack { still_yours: false },
                    _ => Response::Stale {
                        epoch: entry.coordinator.epoch(),
                    },
                };
            }
            Arc::clone(&entry.coordinator)
        };
        let response = coordinator.handle_with_admission(request);
        if matches!(response, Response::Accepted { fresh: true }) {
            self.after_settlement(job, &coordinator);
        }
        response
    }

    /// Publishes the post-settlement view of `job`: `merged.ckpt` once
    /// the run finished (flipping the entry to [`JobState::Finished`]),
    /// and a fresh `progress.bin` either way.
    fn after_settlement(&self, job: u64, coordinator: &Coordinator) {
        if let Some(ckpt) = coordinator.finished_checkpoint() {
            self.store
                .put_artifact(job, "merged.ckpt", &ckpt.to_bytes());
            let mut table = self.lock_jobs();
            if let Some(at) = table.find(job) {
                let entry = &mut table.entries[at];
                if entry.state == JobState::Running {
                    entry.state = JobState::Finished;
                }
            }
            self.arm_linger(&mut table);
        }
        self.publish_progress(job, coordinator);
    }

    /// Folds the coordinator's progress and telemetry into the job's
    /// `progress.bin` artifact — the bytes `JobStatus` answers with.
    fn publish_progress(&self, job: u64, coordinator: &Coordinator) {
        let progress = JobProgress::from_parts(
            job,
            &coordinator.progress(),
            &coordinator.telemetry().snapshot(),
        );
        self.store
            .put_artifact(job, "progress.bin", &progress.encode());
    }

    /// `JobStatus` / `WatchProgress`: state from the table, progress
    /// from published bytes only.
    fn status(&self, job: u64) -> Response {
        let state = {
            let table = self.lock_jobs();
            let Some(at) = table.find(job) else {
                return Response::Error {
                    what: format!("unknown job {job:#018x}"),
                };
            };
            table.entries[at].state
        };
        Response::JobInfo {
            job,
            state: state.to_wire(),
            progress: self
                .store
                .get_artifact(job, "progress.bin")
                .unwrap_or_default(),
        }
    }

    fn list(&self) -> Response {
        Response::Jobs {
            jobs: self
                .lock_jobs()
                .entries
                .iter()
                .map(|e| (e.digest, e.state.to_wire()))
                .collect(),
        }
    }

    /// `CancelJob`: idempotent for running/cancelled jobs; a finished
    /// job's artifact is already published and cannot be un-happened.
    fn cancel(&self, job: u64) -> Response {
        let mut table = self.lock_jobs();
        let Some(at) = table.find(job) else {
            return Response::Error {
                what: format!("unknown job {job:#018x}"),
            };
        };
        let entry = &mut table.entries[at];
        match entry.state {
            JobState::Finished => Response::Error {
                what: format!("job {job:#018x} already finished; nothing to cancel"),
            },
            JobState::Running | JobState::Cancelled => {
                entry.state = JobState::Cancelled;
                entry.deficit = 0;
                self.arm_linger(&mut table);
                Response::Cancelled { job }
            }
        }
    }

    /// `PollAny`: deficit round-robin over runnable jobs. Every
    /// runnable job is offered the worker before `Wait` is answered
    /// (work-conserving), and a visited job hands out at most
    /// `quantum` assignments before the cursor moves on (fair).
    fn next_assignment(&self, worker: &str) -> Response {
        let mut table = self.lock_jobs();
        if self.all_expected_done(&table) {
            return Response::Finished;
        }
        let n = table.entries.len();
        if n == 0 {
            return Response::Wait {
                backoff_ms: self.opts.backoff_ms,
            };
        }
        let quantum = self.opts.quantum.max(1);
        let mut visited = 0;
        while visited < n {
            let at = table.cursor % n;
            let entry = &mut table.entries[at];
            if entry.state != JobState::Running {
                table.cursor = (at + 1) % n;
                visited += 1;
                continue;
            }
            if entry.deficit == 0 {
                entry.deficit = quantum;
            }
            let poll = Request::PollAny {
                worker: worker.to_string(),
            };
            match entry.coordinator.handle(&poll) {
                assign @ Response::Assign { .. } => {
                    let entry = &mut table.entries[at];
                    entry.deficit -= 1;
                    if entry.deficit == 0 {
                        table.cursor = (at + 1) % n;
                    }
                    return assign;
                }
                // Nothing assignable in this job right now (barrier
                // pending, or all rounds merged): spend no credit, move
                // on. Finished entries flip state in `after_settlement`,
                // not here — the scheduler only reads lifecycle state.
                _ => {
                    let entry = &mut table.entries[at];
                    entry.deficit = 0;
                    table.cursor = (at + 1) % n;
                    visited += 1;
                }
            }
        }
        Response::Wait {
            backoff_ms: self.opts.backoff_ms,
        }
    }

    /// Whether the expected workload is over: `expect_jobs` admitted
    /// and none still running.
    fn all_expected_done(&self, table: &JobTable) -> bool {
        self.opts.expect_jobs > 0
            && table.entries.len() >= self.opts.expect_jobs
            && table.entries.iter().all(|e| e.state != JobState::Running)
    }

    /// Called after a job reached a terminal state: if that completed the
    /// expected workload, arms the linger deadline and wakes the timer.
    fn arm_linger(&self, table: &mut JobTable) {
        if table.done_at.is_none() && self.all_expected_done(table) {
            table.done_at = Some(Instant::now());
            self.workload_done.notify_all();
        }
    }

    /// How long the expected workload has yet to stay complete before
    /// [`Server::run`] returns; `None` while it is not complete.
    fn linger_left(&self, table: &JobTable) -> Option<Duration> {
        let linger = Duration::from_millis(self.opts.linger_ms);
        table.done_at.map(|at| linger.saturating_sub(at.elapsed()))
    }

    /// Serves the protocol on `listener`. With `expect_jobs > 0`,
    /// returns once all expected jobs reached a terminal state and the
    /// linger elapsed; otherwise serves until the process dies.
    ///
    /// Blocks in `accept`. The linger timer, a thread that lives as long
    /// as this call, wakes it at the deadline by connecting to the
    /// listener itself.
    ///
    /// # Errors
    ///
    /// Listener I/O errors. Per-connection errors are contained to
    /// their connection.
    pub fn run(self: &Arc<Self>, listener: TcpListener) -> Result<()> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        self.lock_jobs().serving = true;
        std::thread::scope(|s| {
            s.spawn(|| self.wake_after_linger(wake));
            let served = loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => break Err(e.into()),
                };
                let me = Arc::clone(self);
                std::thread::spawn(move || me.handle_connection(stream));
                if self.linger_left(&self.lock_jobs()) == Some(Duration::ZERO) {
                    break Ok(());
                }
            };
            self.lock_jobs().serving = false;
            self.workload_done.notify_all();
            served
        })
    }

    /// The linger timer of [`Server::run`]: once the expected workload
    /// has stayed complete for `linger_ms`, connects to `wake` and, as
    /// the connecting side of every exchange does, closes first. That
    /// returns `run`'s blocking `accept`. A workload that an admission
    /// reopens arms a new deadline when it completes again.
    fn wake_after_linger(&self, wake: SocketAddr) {
        let mut woken_for = None;
        let mut table = self.lock_jobs();
        while table.serving {
            let left = match table.done_at {
                Some(at) if woken_for != Some(at) => self.linger_left(&table),
                _ => None,
            };
            table = match left {
                None => self.workload_done.wait(table).expect("serve jobs lock"),
                Some(left) if !left.is_zero() => {
                    let waited = self.workload_done.wait_timeout(table, left);
                    waited.expect("serve jobs lock").0
                }
                Some(_) => {
                    woken_for = table.done_at;
                    drop(table);
                    drop(TcpStream::connect(wake));
                    self.lock_jobs()
                }
            };
        }
    }

    fn handle_connection(&self, stream: TcpStream) {
        answer(stream, |request| self.handle(request));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnas::experiment::ExperimentPreset;
    use fnas::job::OracleBackend;
    use fnas::search::SearchConfig;
    use fnas_coord::{ManualClock, MAX_BATCH, MAX_SHARDS};

    fn spec(seed: u64) -> JobSpec {
        SearchConfig::fnas(ExperimentPreset::mnist().with_trials(8), 10.0)
            .with_seed(seed)
            .job()
            .clone()
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fnas-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn server(tag: &str, opts: ServeOptions) -> (Server, PathBuf) {
        let dir = tmp(tag);
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let server = Server::new(&dir, opts, clock).unwrap();
        (server, dir)
    }

    fn submit(server: &Server, seed: u64) -> Response {
        server.handle(&Request::SubmitJob {
            spec: spec(seed).encode(),
            batch: 4,
            shards: 2,
            rounds: 1,
        })
    }

    fn assigned_job(response: &Response) -> u64 {
        match response {
            Response::Assign { job, .. } => *job,
            other => panic!("expected an assignment, got {other:?}"),
        }
    }

    #[test]
    fn submission_is_idempotent_by_digest() {
        let (server, dir) = server("idem", ServeOptions::default());
        let first = submit(&server, 7);
        let Response::JobAccepted { job } = first else {
            panic!("{first:?}");
        };
        assert_eq!(job, spec(7).job_digest());
        assert_eq!(submit(&server, 7), Response::JobAccepted { job });
        assert_eq!(server.jobs().len(), 1, "no duplicate entry");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn admission_cap_answers_retry_and_frees_on_terminal_states() {
        let opts = ServeOptions {
            max_jobs: 1,
            ..ServeOptions::default()
        };
        let (server, dir) = server("cap", opts);
        let Response::JobAccepted { job } = submit(&server, 1) else {
            panic!("first job admitted");
        };
        assert!(
            matches!(submit(&server, 2), Response::Retry { .. }),
            "second concurrent job must be deferred at max_jobs=1"
        );
        // Cancelling the running job frees the slot.
        assert_eq!(
            server.handle(&Request::CancelJob { job }),
            Response::Cancelled { job }
        );
        assert!(matches!(submit(&server, 2), Response::JobAccepted { .. }));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn malformed_and_unknown_jobs_are_errors() {
        let (server, dir) = server("errors", ServeOptions::default());
        let bad = server.handle(&Request::SubmitJob {
            spec: vec![0xFF; 4],
            batch: 4,
            shards: 2,
            rounds: 1,
        });
        assert!(matches!(bad, Response::Error { .. }), "{bad:?}");
        // More shards than the 8-trial budget can fill: refused at
        // admission, before the job gets a directory or any per-shard
        // state (u32::MAX shards would not fit in memory).
        for shards in [9, u32::MAX] {
            let r = server.handle(&Request::SubmitJob {
                spec: spec(1).encode(),
                batch: 4,
                shards,
                rounds: 1,
            });
            assert!(
                matches!(r, Response::Error { .. }),
                "{shards} shards → {r:?}"
            );
        }
        // A spec claiming 2^20 trials fills any shard count, so only the
        // absolute caps stand between it and per-shard or per-child
        // allocations.
        let big = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(1 << 20), 10.0)
            .job()
            .clone();
        for (batch, shards) in [(4, MAX_SHARDS + 1), (MAX_BATCH + 1, 2)] {
            let r = server.handle(&Request::SubmitJob {
                spec: big.encode(),
                batch,
                shards,
                rounds: 1,
            });
            assert!(
                matches!(r, Response::Error { .. }),
                "batch {batch}, {shards} shards → {r:?}"
            );
        }
        // A spec naming the simulated oracle decodes (the codec keeps its
        // tag) but does not resolve: the search would price it with the
        // analyzer.
        let simulated = spec(1).with_backend(OracleBackend::Simulated);
        let r = server.handle(&Request::SubmitJob {
            spec: simulated.encode(),
            batch: 4,
            shards: 2,
            rounds: 1,
        });
        assert!(matches!(r, Response::Error { .. }), "simulated → {r:?}");
        assert!(server.jobs().is_empty(), "no job admitted");
        assert!(!server.store().job_dir(spec(1).job_digest()).exists());
        assert!(!server.store().job_dir(big.job_digest()).exists());
        assert!(!server.store().job_dir(simulated.job_digest()).exists());
        for request in [
            Request::JobStatus { job: 42 },
            Request::CancelJob { job: 42 },
            Request::WatchProgress { job: 42 },
        ] {
            let r = server.handle(&request);
            assert!(matches!(r, Response::Error { .. }), "{request:?} → {r:?}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn drr_interleaves_two_jobs_by_quantum() {
        let opts = ServeOptions {
            quantum: 1,
            ..ServeOptions::default()
        };
        let (server, dir) = server("drr", opts);
        let a = spec(10).job_digest();
        let b = spec(11).job_digest();
        submit(&server, 10);
        submit(&server, 11);
        // quantum 1 → strict alternation while both jobs have work
        // (2 shards each), then Wait once every shard is leased.
        let order: Vec<u64> = (0..4)
            .map(|i| {
                assigned_job(&server.handle(&Request::PollAny {
                    worker: format!("w{i}"),
                }))
            })
            .collect();
        assert_eq!(order, vec![a, b, a, b]);
        assert!(matches!(
            server.handle(&Request::PollAny {
                worker: "w4".to_string()
            }),
            Response::Wait { .. }
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn drr_quantum_grants_consecutive_assignments() {
        let opts = ServeOptions {
            quantum: 2,
            ..ServeOptions::default()
        };
        let (server, dir) = server("quantum", opts);
        let a = spec(20).job_digest();
        let b = spec(21).job_digest();
        submit(&server, 20);
        submit(&server, 21);
        let order: Vec<u64> = (0..4)
            .map(|i| {
                assigned_job(&server.handle(&Request::PollAny {
                    worker: format!("w{i}"),
                }))
            })
            .collect();
        assert_eq!(order, vec![a, a, b, b]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn cancelled_jobs_stop_assigning_and_wave_off_stragglers() {
        let (server, dir) = server("cancel", ServeOptions::default());
        let Response::JobAccepted { job } = submit(&server, 30) else {
            panic!("admitted");
        };
        let assign = server.handle(&Request::PollAny {
            worker: "w".to_string(),
        });
        assert_eq!(assigned_job(&assign), job);
        assert_eq!(
            server.handle(&Request::CancelJob { job }),
            Response::Cancelled { job }
        );
        // Idempotent.
        assert_eq!(
            server.handle(&Request::CancelJob { job }),
            Response::Cancelled { job }
        );
        assert_eq!(server.job_state(job), Some(JobState::Cancelled));
        // No more assignments from the cancelled job.
        assert!(matches!(
            server.handle(&Request::PollAny {
                worker: "w2".to_string()
            }),
            Response::Wait { .. }
        ));
        // The straggler holding the pre-cancel lease is waved off, not
        // treated as faulty.
        let c = server.coordinator(job).unwrap();
        let (fp, epoch) = (c.fingerprint(), c.epoch());
        assert_eq!(
            server.handle(&Request::Heartbeat {
                worker: "w".to_string(),
                round: 0,
                shard: 0,
                epoch,
                job,
                fingerprint: fp,
            }),
            Response::Ack { still_yours: false }
        );
        assert_eq!(
            server.handle(&Request::Submit {
                worker: "w".to_string(),
                round: 0,
                shard: 0,
                epoch,
                job,
                fingerprint: fp,
                bytes: vec![1, 2, 3],
            }),
            Response::Stale { epoch }
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn status_answers_from_published_bytes() {
        let (server, dir) = server("status", ServeOptions::default());
        let Response::JobAccepted { job } = submit(&server, 40) else {
            panic!("admitted");
        };
        let Response::JobInfo {
            job: j,
            state,
            progress,
        } = server.handle(&Request::JobStatus { job })
        else {
            panic!("JobInfo expected");
        };
        assert_eq!(j, job);
        assert_eq!(state, JOB_STATE_RUNNING);
        let p = JobProgress::decode(&progress).expect("initial progress published on admission");
        assert_eq!(p.job, job);
        assert_eq!((p.rounds_merged, p.trials_done), (0, 0));
        assert!(!p.finished);
        // WatchProgress is the same answer shape.
        assert!(matches!(
            server.handle(&Request::WatchProgress { job }),
            Response::JobInfo { .. }
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn expected_workload_completion_finishes_the_fleet() {
        let opts = ServeOptions {
            expect_jobs: 1,
            ..ServeOptions::default()
        };
        let (server, dir) = server("expect", opts);
        // Nothing admitted yet: workers wait, they don't exit.
        assert!(matches!(
            server.handle(&Request::PollAny {
                worker: "w".to_string()
            }),
            Response::Wait { .. }
        ));
        let Response::JobAccepted { job } = submit(&server, 50) else {
            panic!("admitted");
        };
        server.handle(&Request::CancelJob { job });
        assert!(matches!(
            server.handle(&Request::PollAny {
                worker: "w".to_string()
            }),
            Response::Finished
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
