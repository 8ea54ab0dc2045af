//! The worker loop: poll, run, heartbeat, submit, repeat.
//!
//! A worker is a thin shell around [`crate::rounds::run_round_shard`] —
//! the same function the in-process reference driver uses, which is what
//! guarantees its submissions are byte-identical to any other replica's.
//! All its networking is the stateless request–response of
//! [`crate::proto`]: one connection per request, so a worker crash
//! leaves nothing behind but a lease that will quietly expire.
//!
//! While a shard runs, a background thread heartbeats the lease at a
//! configurable cadence. A heartbeat answered with `still_yours: false`
//! (lease expired, shard possibly re-dispatched) does **not** stop the
//! worker: its result is exactly as valid as any replica's, and the
//! coordinator settles whichever arrives first.
//!
//! The worker ([`run_fleet_worker`]) is **job-agnostic**: it sends
//! [`Request::PollAny`] and resolves whatever job each `Assign` hands it
//! from the spec bytes on the wire (DESIGN.md §18), deriving the
//! fingerprint itself — so one fleet serves one job or many, and the
//! `WrongJob`/`Stale` fences still police every submission.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fnas::checkpoint::SearchCheckpoint;
use fnas::job::JobSpec;
use fnas::search::{BatchOptions, SearchConfig, ShardSpec};
use fnas::{FnasError, Result};

use crate::proto::{call, config_fingerprint, Request, Response};
use crate::rounds::{run_round_shard_stored, shard_file};

/// How a worker finds and talks to its coordinator.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address, e.g. `127.0.0.1:7463`.
    pub addr: String,
    /// Self-chosen name (diagnostics and lease bookkeeping).
    pub name: String,
    /// Scratch directory for shard checkpoint files.
    pub dir: PathBuf,
    /// Heartbeat cadence while a shard runs.
    pub heartbeat_ms: u64,
    /// Connection attempts per request before giving up.
    pub connect_retries: u32,
    /// Delay between connection attempts.
    pub connect_backoff_ms: u64,
    /// On-disk latency store shared across this worker's shards and
    /// rounds (and, being content-addressed, across whole fleets).
    /// `None` runs without an L2 store. Cache-transparent either way:
    /// the store can change wall time only, never submitted bytes.
    pub store_dir: Option<PathBuf>,
}

impl WorkerOptions {
    /// Conventional defaults: 1-second heartbeats, ~2 seconds of
    /// connection patience.
    pub fn new(addr: impl Into<String>, name: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        WorkerOptions {
            addr: addr.into(),
            name: name.into(),
            dir: dir.into(),
            heartbeat_ms: 1_000,
            connect_retries: 20,
            connect_backoff_ms: 100,
            store_dir: None,
        }
    }

    /// Sets the on-disk latency store directory.
    #[must_use]
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }
}

/// What one worker did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shards run to completion (including ones that settled as
    /// duplicates).
    pub shards_run: u64,
    /// Submissions that settled their shard.
    pub fresh_results: u64,
    /// Submissions absorbed as byte-identical duplicates.
    pub duplicate_results: u64,
    /// Results discarded because their lease predated a coordinator
    /// restart ([`Response::Stale`] — the recovered round re-earns the
    /// shard under the new epoch).
    pub stale_results: u64,
    /// [`Response::Retry`] answers received and honoured (the
    /// coordinator was over its submit-buffer cap; the result was kept
    /// and resubmitted).
    pub retries_served: u64,
    /// Milliseconds slept on backoff: connect-retry waits plus the
    /// sleeps those `Retry` answers advised.
    pub retry_sleep_ms: u64,
    /// `true` when the run ended because the coordinator went away
    /// after this worker had already contributed (treated as a normal
    /// exit: the run is over).
    pub coordinator_lost: bool,
}

/// Cap on the exponential backoff between request attempts.
const MAX_RETRY_BACKOFF_MS: u64 = 2_000;

/// Shared backoff bookkeeping: every sleep the worker (or its heartbeat
/// thread) takes on behalf of a momentarily unavailable coordinator is
/// recorded here and folded into the [`WorkerReport`] at exit.
#[derive(Debug, Default)]
struct RetryMeter {
    retries_served: AtomicU64,
    sleep_ms: AtomicU64,
}

impl RetryMeter {
    fn note_sleep(&self, ms: u64) {
        self.sleep_ms.fetch_add(ms, Ordering::Relaxed);
    }
    fn note_retry_served(&self, ms: u64) {
        self.retries_served.fetch_add(1, Ordering::Relaxed);
        self.sleep_ms.fetch_add(ms, Ordering::Relaxed);
    }
    fn fold_into(&self, report: &mut WorkerReport) {
        report.retries_served = self.retries_served.load(Ordering::Relaxed);
        report.retry_sleep_ms = self.sleep_ms.load(Ordering::Relaxed);
    }
}

/// One request–response exchange, retried under the worker's budget.
///
/// The *whole* exchange retries, not just the connect: a coordinator
/// dying between accept and reply — or down for a restart with its
/// journal — surfaces as a mid-exchange I/O error, and that is exactly
/// as transient as a refused connection. Protocol errors (malformed
/// frames, rejections) never improve and propagate immediately. Backoff
/// is exponential from `connect_backoff_ms`, capped at 2 s per sleep,
/// so the default budget (20 attempts × 100 ms base) rides out roughly
/// half a minute of coordinator downtime. Every sleep is metered.
fn request(opts: &WorkerOptions, meter: &RetryMeter, req: &Request) -> Result<Response> {
    let mut backoff = opts.connect_backoff_ms.max(1);
    let mut last: Option<FnasError> = None;
    for attempt in 0..opts.connect_retries.max(1) {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(backoff));
            meter.note_sleep(backoff);
            backoff = backoff.saturating_mul(2).min(MAX_RETRY_BACKOFF_MS);
        }
        match call(&opts.addr, req) {
            Ok(response) => return Ok(response),
            Err(e @ FnasError::Io(_)) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        FnasError::Io(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "no connection attempts",
        ))
    }))
}

/// One accepted lease, fully identified: everything the execution path
/// needs to run the shard and settle it.
struct Assignment {
    round: u64,
    shard: u32,
    shard_count: u32,
    epoch: u64,
    job: u64,
    fingerprint: u64,
    init: SearchCheckpoint,
}

/// Runs one leased shard end to end: background heartbeats, the shard
/// itself, the durable artifact copy, and the submit loop with its
/// `Retry`/`Stale` handling.
#[allow(clippy::too_many_arguments)] // internal helper threading one lease's context
fn run_assignment(
    base: &SearchConfig,
    opts: &BatchOptions,
    worker: &WorkerOptions,
    store: &Option<Arc<dyn fnas_store::Store>>,
    meter: &Arc<RetryMeter>,
    scratch: &std::path::Path,
    a: Assignment,
    report: &mut WorkerReport,
) -> Result<()> {
    let spec = ShardSpec::new(a.shard, a.shard_count)?;
    let path = scratch.join(shard_file(a.round, a.shard, a.shard_count));

    // Heartbeat in the background for the duration of the run.
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let stop = Arc::clone(&stop);
        let worker = worker.clone();
        let meter = Arc::clone(meter);
        let heartbeat = Request::Heartbeat {
            worker: worker.name.clone(),
            round: a.round,
            shard: a.shard,
            epoch: a.epoch,
            job: a.job,
            fingerprint: a.fingerprint,
        };
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(worker.heartbeat_ms.max(10)));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                // Failures are ignored: a missed heartbeat at
                // worst costs the lease, never the result.
                let _ = request(&worker, &meter, &heartbeat);
            }
        })
    };
    let ran = run_round_shard_stored(base, a.round, spec, &a.init, opts, &path, store.clone());
    stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    let bytes = ran?;
    // Durable copy under the owning job's namespace: a shared
    // store directory keeps each job's shard checkpoints apart
    // (best-effort, like every store write).
    if let Some(store) = &store {
        store.put_artifact(a.job, &shard_file(a.round, a.shard, a.shard_count), &bytes);
    }

    let submit = Request::Submit {
        worker: worker.name.clone(),
        round: a.round,
        shard: a.shard,
        epoch: a.epoch,
        job: a.job,
        fingerprint: a.fingerprint,
        bytes,
    };
    loop {
        match request(worker, meter, &submit)? {
            Response::Accepted { fresh } => {
                report.shards_run += 1;
                if fresh {
                    report.fresh_results += 1;
                } else {
                    report.duplicate_results += 1;
                }
                return Ok(());
            }
            // The coordinator is over its submit-buffer cap;
            // the result stays ours — back off and resubmit.
            Response::Retry { backoff_ms } => {
                let ms = backoff_ms.clamp(10, 1_000);
                std::thread::sleep(Duration::from_millis(ms));
                meter.note_retry_served(ms);
            }
            // The coordinator restarted since this lease was
            // issued; the recovered round settles the shard
            // under the new epoch. Drop the result, re-poll.
            Response::Stale { .. } => {
                report.stale_results += 1;
                return Ok(());
            }
            Response::Error { what } => {
                return Err(FnasError::InvalidConfig {
                    what: format!("coordinator rejected shard {}: {what}", a.shard),
                })
            }
            // Not our search: the coordinator serves a
            // different job. Exit rather than retry — no
            // amount of backoff makes the jobs agree.
            Response::WrongJob { job: theirs } => {
                return Err(FnasError::InvalidConfig {
                    what: format!(
                        "coordinator serves job {theirs:#018x}, not job {:#018x} \
                         this lease was assigned for",
                        a.job
                    ),
                })
            }
            other => {
                return Err(FnasError::InvalidConfig {
                    what: format!("unexpected submit response {other:?}"),
                })
            }
        }
    }
}

/// Runs the job-agnostic worker loop until the endpoint answers
/// `Finished` (a `fnas_serve::Server` says so once every job it expects
/// is done).
///
/// The worker is launched with **no job flags**: each `Assign` carries
/// the job's canonical spec bytes plus the execution knobs (`batch`,
/// `rounds`), from which the worker resolves the config and derives the
/// fingerprint it echoes on every heartbeat and submit. `opts`
/// contributes only machine-local knobs (evaluation worker threads);
/// its batch size is overridden per assignment by the wire value.
///
/// Shard scratch files are kept under a per-job subdirectory of
/// `worker.dir`, so interleaved jobs with colliding round/shard indices
/// never overwrite each other's checkpoints.
///
/// # Errors
///
/// Undecodable or mismatched spec bytes, rejections and protocol
/// errors; connection failures *before* this worker contributed
/// anything. An endpoint that disappears after the worker has submitted
/// results is a normal exit (`coordinator_lost` in the report).
pub fn run_fleet_worker(opts: &BatchOptions, worker: &WorkerOptions) -> Result<WorkerReport> {
    std::fs::create_dir_all(&worker.dir)?;
    let store: Option<Arc<dyn fnas_store::Store>> = match &worker.store_dir {
        Some(dir) => Some(Arc::new(fnas_store::DiskStore::open(dir)?)),
        None => None,
    };
    let meter = Arc::new(RetryMeter::default());
    let mut report = WorkerReport::default();
    loop {
        meter.fold_into(&mut report);
        let poll = Request::PollAny {
            worker: worker.name.clone(),
        };
        let response = match request(worker, &meter, &poll) {
            Ok(r) => r,
            Err(e) if report.shards_run > 0 => {
                // The endpoint finished and left while we were backing
                // off; the run is over.
                let _ = e;
                report.coordinator_lost = true;
                meter.fold_into(&mut report);
                return Ok(report);
            }
            Err(e) => return Err(e),
        };
        match response {
            Response::Finished => {
                meter.fold_into(&mut report);
                return Ok(report);
            }
            Response::Wait { backoff_ms } => {
                std::thread::sleep(Duration::from_millis(backoff_ms.clamp(10, 1_000)));
            }
            Response::Assign {
                round,
                shard,
                shard_count,
                epoch,
                job,
                spec,
                batch,
                rounds,
                init,
                ..
            } => {
                let spec = JobSpec::decode(&spec).ok_or_else(|| FnasError::InvalidConfig {
                    what: format!(
                        "assignment for job {job:#018x} carries undecodable spec bytes \
                         (round {round} shard {shard})"
                    ),
                })?;
                // The digest is derived from the spec bytes, never
                // trusted from the header: a server bug that pairs the
                // wrong spec with a job digest dies here, not at merge.
                let derived = spec.job_digest();
                if derived != job {
                    return Err(FnasError::InvalidConfig {
                        what: format!(
                            "assignment names job {job:#018x} but its spec bytes decode \
                             to job {derived:#018x}"
                        ),
                    });
                }
                let base = spec.resolve()?;
                let fingerprint = config_fingerprint(&base, batch as usize, shard_count, rounds);
                let run_opts = (*opts).with_batch_size(batch as usize);
                let init = SearchCheckpoint::from_bytes(&init)?;
                let scratch = worker.dir.join(format!("{job:016x}"));
                std::fs::create_dir_all(&scratch)?;
                run_assignment(
                    &base,
                    &run_opts,
                    worker,
                    &store,
                    &meter,
                    &scratch,
                    Assignment {
                        round,
                        shard,
                        shard_count,
                        epoch,
                        job,
                        fingerprint,
                        init,
                    },
                    &mut report,
                )?;
            }
            Response::Error { what } => {
                return Err(FnasError::InvalidConfig {
                    what: format!("endpoint rejected poll: {what}"),
                })
            }
            other => {
                return Err(FnasError::InvalidConfig {
                    what: format!("unexpected poll response {other:?}"),
                })
            }
        }
    }
}
