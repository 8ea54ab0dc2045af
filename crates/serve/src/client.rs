//! One-connection-per-request client helpers for the serve verbs.
//!
//! The wire discipline is the coordinator protocol's: dial, write one
//! framed [`Request`], read one framed [`Response`], hang up. The
//! server holds its side open until it sees our close, so the
//! `TIME_WAIT` state lands on this client's ephemeral port and never
//! clogs the daemon's listen address.
//!
//! These helpers return the raw [`Response`] rather than unwrapping it:
//! `Retry`, `Error`, and `JobInfo` are all legitimate protocol answers
//! a caller (the CLI, the tests, a poll loop) wants to branch on.

use fnas::job::JobSpec;
use fnas::Result;
use fnas_coord::proto::call;
use fnas_coord::{Request, Response};

/// Submits `spec` as a new job with the given execution shape.
///
/// Expect [`Response::JobAccepted`] (idempotent — resubmitting a
/// running or finished job re-acknowledges it), [`Response::Retry`]
/// when the server is at its job cap, or [`Response::Error`].
///
/// # Errors
///
/// Transport errors from [`call`].
pub fn submit_job(
    addr: &str,
    spec: &JobSpec,
    batch: u32,
    shards: u32,
    rounds: u64,
) -> Result<Response> {
    call(
        addr,
        &Request::SubmitJob {
            spec: spec.encode(),
            batch,
            shards,
            rounds,
        },
    )
}

/// Asks for `job`'s state and latest published progress bytes.
///
/// # Errors
///
/// Transport errors from [`call`].
pub fn job_status(addr: &str, job: u64) -> Result<Response> {
    call(addr, &Request::JobStatus { job })
}

/// Lists every admitted job `(digest, state)` in admission order.
///
/// # Errors
///
/// Transport errors from [`call`].
pub fn list_jobs(addr: &str) -> Result<Response> {
    call(addr, &Request::ListJobs)
}

/// Cancels `job` (idempotent; its scheduler entry stops assigning).
///
/// # Errors
///
/// Transport errors from [`call`].
pub fn cancel_job(addr: &str, job: u64) -> Result<Response> {
    call(addr, &Request::CancelJob { job })
}

/// One observation of `job`'s progress, same answer shape as
/// [`job_status`]; polled in a loop by `fnas-serve watch`.
///
/// # Errors
///
/// Transport errors from [`call`].
pub fn watch_progress(addr: &str, job: u64) -> Result<Response> {
    call(addr, &Request::WatchProgress { job })
}
