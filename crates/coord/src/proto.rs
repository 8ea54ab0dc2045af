//! Wire messages of the coordinator protocol.
//!
//! The protocol is request–response: a worker opens a connection, sends
//! exactly one [`Request`] frame, reads exactly one [`Response`] frame
//! and closes. Stateless connections keep the coordinator's concurrency
//! story trivial (one short-lived handler thread per request, all state
//! behind one mutex) and make worker crash recovery a non-event — there
//! is no session to tear down, only a lease to let expire.
//!
//! The protocol has two surfaces (DESIGN.md §18):
//!
//! * **worker verbs** — [`Request::PollAny`] asks for work on *any* job;
//!   the answering [`Response::Assign`] carries the job's canonical
//!   [`fnas::job::JobSpec`] bytes plus the execution knobs (`batch`,
//!   `rounds`) the worker needs to resolve the job and derive the
//!   [`config_fingerprint`] itself. [`Request::Heartbeat`] and
//!   [`Request::Submit`] then echo both identities of that assignment;
//! * **client verbs** — [`Request::SubmitJob`], [`Request::JobStatus`],
//!   [`Request::ListJobs`], [`Request::CancelJob`] and
//!   [`Request::WatchProgress`], spoken by `fnas-serve` clients to
//!   submit and observe jobs multiplexed over one shared fleet.
//!
//! The two identities every heartbeat and submit carries are checked in
//! this order:
//!
//! * the **job digest** ([`fnas::job::JobSpec::job_digest`]): *which job*
//!   the lease belongs to (preset, device, `rL`, budgets, parent seed —
//!   DESIGN.md §17). A request naming a different job than the
//!   coordinator's gets [`Response::WrongJob`], deterministically;
//! * the run's **config fingerprint** ([`config_fingerprint`]): a digest
//!   of exactly the knobs that determine results (seed, budget, preset,
//!   batch size, shard/round counts). A worker that derived different
//!   *execution* knobs for the same job is rejected here instead of
//!   contributing a divergent checkpoint that would only be caught — as
//!   a hard byte-compare error — at submit time. Worker thread count is
//!   deliberately *excluded*: results are bit-identical for any worker
//!   count, so heterogeneous machines may cooperate on one run.
//!
//! Payloads are encoded with the `fnas_store::bytes` cursors, like the
//! checkpoint codec: `u32`/`u64` LE, strings as `u32` length + UTF-8,
//! byte blobs as `u32` length + bytes, bools as one 0/1 byte, one leading
//! tag byte per message variant.

use std::io::Read as _;
use std::net::TcpStream;
use std::time::Duration;

use fnas::search::{SearchConfig, SearchMode};
use fnas::FnasError;
use fnas_store::bytes::{decode, mix64, DecodeError, Reader, Writer};

use crate::framing::{read_frame, write_frame};

/// Maps a payload decode failure into the protocol's error texts.
fn corrupt(e: DecodeError) -> FnasError {
    let what = match e {
        DecodeError::Truncated => "message truncated".to_string(),
        DecodeError::Trailing => "trailing bytes after message".to_string(),
        e => e.to_string(),
    };
    FnasError::InvalidConfig {
        what: format!("coord proto: {what}"),
    }
}

/// What a worker asks the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// "I am still working on shard `shard` of round `round`." Extends
    /// the lease; answered with [`Response::Ack`].
    Heartbeat {
        /// The heartbeating worker.
        worker: String,
        /// Round of the leased shard.
        round: u64,
        /// Index of the leased shard.
        shard: u32,
        /// Coordinator epoch echoed from the [`Response::Assign`] that
        /// issued the lease (epoch fencing, DESIGN.md §15).
        epoch: u64,
        /// `job_digest` echoed from the lease's [`Response::Assign`].
        job: u64,
        /// [`config_fingerprint`] the worker derived for the lease.
        fingerprint: u64,
    },
    /// "Here is shard `shard` of round `round`, finished." Answered with
    /// [`Response::Accepted`].
    Submit {
        /// The submitting worker.
        worker: String,
        /// Round the checkpoint belongs to.
        round: u64,
        /// Shard index the checkpoint belongs to.
        shard: u32,
        /// Coordinator epoch echoed from the [`Response::Assign`] that
        /// issued the lease; a restarted coordinator rejects stale
        /// epochs with [`Response::Stale`].
        epoch: u64,
        /// `job_digest` echoed from the lease's [`Response::Assign`].
        job: u64,
        /// [`config_fingerprint`] the worker derived for the lease.
        fingerprint: u64,
        /// The shard's final checkpoint, as saved by `ShardRunner`.
        bytes: Vec<u8>,
    },
    /// "Give me work on *any* job." Answered with [`Response::Assign`],
    /// [`Response::Wait`] or [`Response::Finished`]. The worker names no
    /// job and no fingerprint — it learns both from the
    /// [`Response::Assign`] it is handed (spec bytes + execution knobs)
    /// and derives the fingerprint itself, so the
    /// [`Response::WrongJob`]/[`Response::Stale`] fencing applies to
    /// every later [`Request::Heartbeat`] and [`Request::Submit`].
    PollAny {
        /// Self-chosen worker name (diagnostics and lease bookkeeping).
        worker: String,
    },
    /// Client verb: "run this search". Answered with
    /// [`Response::JobAccepted`] (idempotently, if the job is already
    /// admitted), [`Response::Retry`] when the server's job queue is
    /// saturated, or [`Response::Error`] on an undecodable spec.
    SubmitJob {
        /// Canonical [`fnas::job::JobSpec::encode`] bytes.
        spec: Vec<u8>,
        /// Training batch size (result-determining; part of the
        /// fingerprint).
        batch: u32,
        /// Shards per round.
        shards: u32,
        /// Round count.
        rounds: u64,
    },
    /// Client verb: "how far along is this job?". Answered with
    /// [`Response::JobInfo`] whose progress bytes come from the job's
    /// published store artifact, or [`Response::Error`] for an unknown
    /// job.
    JobStatus {
        /// `job_digest` of the job being asked about.
        job: u64,
    },
    /// Client verb: enumerate admitted jobs. Answered with
    /// [`Response::Jobs`].
    ListJobs,
    /// Client verb: stop scheduling a job. Answered with
    /// [`Response::Cancelled`] (idempotently) or [`Response::Error`]
    /// for an unknown job.
    CancelJob {
        /// `job_digest` of the job to cancel.
        job: u64,
    },
    /// Client verb: like [`Request::JobStatus`] but intended for
    /// polling loops — the same [`Response::JobInfo`] answer, kept as a
    /// distinct verb so servers may later push incremental snapshots
    /// without changing the status path.
    WatchProgress {
        /// `job_digest` of the job being watched.
        job: u64,
    },
}

/// What the coordinator answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A lease on one shard of the current round.
    Assign {
        /// The round being dispatched.
        round: u64,
        /// The leased shard's index.
        shard: u32,
        /// Total shards per round.
        shard_count: u32,
        /// Lease TTL; heartbeat faster than this or lose the lease.
        lease_ms: u64,
        /// Coordinator epoch issuing this lease. Workers echo it in
        /// every [`Request::Heartbeat`] and [`Request::Submit`] for the
        /// lease, so a restarted coordinator (higher epoch) can fence
        /// off in-flight work dispatched before its crash.
        epoch: u64,
        /// `job_digest` of the job this lease belongs to. The worker
        /// verifies it against the digest of `spec` before running.
        job: u64,
        /// Canonical [`fnas::job::JobSpec::encode`] bytes of the job,
        /// which the worker decodes and resolves on the fly.
        spec: Vec<u8>,
        /// Training batch size the job runs with (the worker folds this
        /// into the [`config_fingerprint`] it echoes back).
        batch: u32,
        /// Total rounds of the job (fingerprint input, like `batch`).
        rounds: u64,
        /// The round's init snapshot (FNASCKPT bytes).
        init: Vec<u8>,
    },
    /// No shard free right now (all leased, round barrier pending);
    /// poll again after `backoff_ms`.
    Wait {
        /// Suggested delay before the next poll.
        backoff_ms: u64,
    },
    /// Every round is merged; the worker should exit.
    Finished,
    /// Heartbeat answer: `still_yours` is false once the lease expired
    /// (the shard may already be re-dispatched — keep running anyway;
    /// first result wins).
    Ack {
        /// Whether the heartbeating worker still holds a live lease.
        still_yours: bool,
    },
    /// Submit answer: `fresh` is false when another replica got there
    /// first (the duplicate was byte-compared and discarded).
    Accepted {
        /// Whether this submission settled the shard.
        fresh: bool,
    },
    /// The request was rejected (bad fingerprint, unknown shard, or a
    /// duplicate that did *not* byte-compare equal).
    Error {
        /// Human-readable rejection reason.
        what: String,
    },
    /// The coordinator is momentarily over its submit-buffer cap and
    /// refused to read the payload into memory; resubmit after
    /// `backoff_ms`. Unlike [`Response::Error`] this is retryable — the
    /// worker keeps its result and tries again.
    Retry {
        /// Suggested delay before resubmitting.
        backoff_ms: u64,
    },
    /// The request's epoch predates this coordinator incarnation: the
    /// lease it refers to was issued before a crash and restart, and the
    /// recovered round may have re-dispatched the shard. The submission
    /// is discarded without settling anything; the worker should drop
    /// its result and poll for a fresh (current-epoch) assignment.
    Stale {
        /// The coordinator's current epoch.
        epoch: u64,
    },
    /// The request's job digest names a different job than the one this
    /// coordinator is running (DESIGN.md §17). Unlike a fingerprint
    /// [`Response::Error`] this is a *job identity* mismatch — the
    /// request belongs to another search entirely (different preset,
    /// device, `rL`, budget or parent seed) and the worker should exit
    /// rather than retry: no amount of re-polling makes the jobs agree.
    WrongJob {
        /// The coordinator's `job_digest`.
        job: u64,
    },
    /// A [`Request::SubmitJob`] was admitted (or the job was already
    /// admitted — submission is idempotent by digest).
    JobAccepted {
        /// `job_digest` of the admitted job.
        job: u64,
    },
    /// Answer to [`Request::JobStatus`]/[`Request::WatchProgress`].
    JobInfo {
        /// `job_digest` of the job.
        job: u64,
        /// One of [`JOB_STATE_RUNNING`], [`JOB_STATE_FINISHED`],
        /// [`JOB_STATE_CANCELLED`].
        state: u8,
        /// The job's latest published progress artifact (FNPR1 bytes;
        /// empty until the first snapshot lands). Served from the
        /// store's bytes, not live coordinator state.
        progress: Vec<u8>,
    },
    /// Answer to [`Request::ListJobs`]: every admitted job with its
    /// state, in admission order.
    Jobs {
        /// `(job_digest, state)` pairs; states as in
        /// [`Response::JobInfo`].
        jobs: Vec<(u64, u8)>,
    },
    /// A [`Request::CancelJob`] took effect (or the job was already
    /// cancelled — cancellation is idempotent).
    Cancelled {
        /// `job_digest` of the cancelled job.
        job: u64,
    },
}

/// [`Response::JobInfo`] state: the job is admitted and schedulable.
pub const JOB_STATE_RUNNING: u8 = 0;
/// [`Response::JobInfo`] state: every round merged; the final checkpoint
/// is on disk.
pub const JOB_STATE_FINISHED: u8 = 1;
/// [`Response::JobInfo`] state: cancelled by a client; never scheduled
/// again.
pub const JOB_STATE_CANCELLED: u8 = 2;

/// Digest of the config knobs that determine results, folded with the
/// SplitMix64 step ([`mix64`]) the seed tree uses. Two processes
/// agree on the fingerprint iff they would produce byte-identical
/// checkpoints for the same shard — which is why evaluation worker count
/// is excluded and batch size is included.
pub fn config_fingerprint(config: &SearchConfig, batch: usize, shards: u32, rounds: u64) -> u64 {
    let mut h = mix64(u64::from_le_bytes(*b"FNASCORD"));
    let mut fold = |v: u64| h = mix64(h ^ v);
    fold(config.seed());
    fold(config.preset().trials() as u64);
    fold(batch as u64);
    fold(u64::from(shards));
    fold(rounds);
    match config.mode() {
        SearchMode::Nas => fold(0),
        SearchMode::Fnas { required } => {
            fold(1);
            fold(required.get().to_bits());
        }
    }
    fold(u64::from(config.pruning()));
    for b in config.preset().name().bytes() {
        fold(u64::from(b));
    }
    h
}

// Tag 1 is retired: it was a poll pinned to one job by its flags, and
// now decodes as an unknown tag. Every other tag keeps its number.
const TAG_HEARTBEAT: u8 = 2;
const TAG_SUBMIT: u8 = 3;
const TAG_POLL_ANY: u8 = 4;
const TAG_SUBMIT_JOB: u8 = 5;
const TAG_JOB_STATUS: u8 = 6;
const TAG_LIST_JOBS: u8 = 7;
const TAG_CANCEL_JOB: u8 = 8;
const TAG_WATCH_PROGRESS: u8 = 9;
const TAG_ASSIGN: u8 = 10;
const TAG_WAIT: u8 = 11;
const TAG_FINISHED: u8 = 12;
const TAG_ACK: u8 = 13;
const TAG_ACCEPTED: u8 = 14;
const TAG_ERROR: u8 = 15;
const TAG_RETRY: u8 = 16;
const TAG_STALE: u8 = 17;
const TAG_WRONG_JOB: u8 = 18;
const TAG_JOB_ACCEPTED: u8 = 19;
const TAG_JOB_INFO: u8 = 20;
const TAG_JOBS: u8 = 21;
const TAG_CANCELLED: u8 = 22;

impl Request {
    /// Serialises the request to one frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Request::Heartbeat {
                worker,
                round,
                shard,
                epoch,
                job,
                fingerprint,
            } => {
                w.u8(TAG_HEARTBEAT);
                w.str(worker);
                w.u64(*round);
                w.u32(*shard);
                w.u64(*epoch);
                w.u64(*job);
                w.u64(*fingerprint);
            }
            Request::Submit {
                worker,
                round,
                shard,
                epoch,
                job,
                fingerprint,
                bytes,
            } => {
                w.u8(TAG_SUBMIT);
                w.str(worker);
                w.u64(*round);
                w.u32(*shard);
                w.u64(*epoch);
                w.u64(*job);
                w.u64(*fingerprint);
                w.bytes(bytes);
            }
            Request::PollAny { worker } => {
                w.u8(TAG_POLL_ANY);
                w.str(worker);
            }
            Request::SubmitJob {
                spec,
                batch,
                shards,
                rounds,
            } => {
                w.u8(TAG_SUBMIT_JOB);
                w.bytes(spec);
                w.u32(*batch);
                w.u32(*shards);
                w.u64(*rounds);
            }
            Request::JobStatus { job } => {
                w.u8(TAG_JOB_STATUS);
                w.u64(*job);
            }
            Request::ListJobs => w.u8(TAG_LIST_JOBS),
            Request::CancelJob { job } => {
                w.u8(TAG_CANCEL_JOB);
                w.u64(*job);
            }
            Request::WatchProgress { job } => {
                w.u8(TAG_WATCH_PROGRESS);
                w.u64(*job);
            }
        }
        w.into_bytes()
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// [`FnasError::InvalidConfig`] on unknown tags, truncation or
    /// trailing bytes.
    pub fn from_bytes(buf: &[u8]) -> fnas::Result<Self> {
        decode(buf, |r| {
            Ok(match r.u8()? {
                TAG_HEARTBEAT => Request::Heartbeat {
                    worker: string(r)?,
                    round: r.u64()?,
                    shard: r.u32()?,
                    epoch: r.u64()?,
                    job: r.u64()?,
                    fingerprint: r.u64()?,
                },
                TAG_SUBMIT => Request::Submit {
                    worker: string(r)?,
                    round: r.u64()?,
                    shard: r.u32()?,
                    epoch: r.u64()?,
                    job: r.u64()?,
                    fingerprint: r.u64()?,
                    bytes: r.bytes()?.to_vec(),
                },
                TAG_POLL_ANY => Request::PollAny { worker: string(r)? },
                TAG_SUBMIT_JOB => Request::SubmitJob {
                    spec: r.bytes()?.to_vec(),
                    batch: r.u32()?,
                    shards: r.u32()?,
                    rounds: r.u64()?,
                },
                TAG_JOB_STATUS => Request::JobStatus { job: r.u64()? },
                TAG_LIST_JOBS => Request::ListJobs,
                TAG_CANCEL_JOB => Request::CancelJob { job: r.u64()? },
                TAG_WATCH_PROGRESS => Request::WatchProgress { job: r.u64()? },
                tag => return Err(DecodeError::Invalid(format!("unknown request tag {tag}"))),
            })
        })
        .map_err(corrupt)
    }
}

impl Response {
    /// Serialises the response to one frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Response::Assign {
                round,
                shard,
                shard_count,
                lease_ms,
                epoch,
                job,
                spec,
                batch,
                rounds,
                init,
            } => {
                w.u8(TAG_ASSIGN);
                w.u64(*round);
                w.u32(*shard);
                w.u32(*shard_count);
                w.u64(*lease_ms);
                w.u64(*epoch);
                w.u64(*job);
                w.bytes(spec);
                w.u32(*batch);
                w.u64(*rounds);
                w.bytes(init);
            }
            Response::Wait { backoff_ms } => {
                w.u8(TAG_WAIT);
                w.u64(*backoff_ms);
            }
            Response::Finished => w.u8(TAG_FINISHED),
            Response::Ack { still_yours } => {
                w.u8(TAG_ACK);
                w.bool(*still_yours);
            }
            Response::Accepted { fresh } => {
                w.u8(TAG_ACCEPTED);
                w.bool(*fresh);
            }
            Response::Error { what } => {
                w.u8(TAG_ERROR);
                w.str(what);
            }
            Response::Retry { backoff_ms } => {
                w.u8(TAG_RETRY);
                w.u64(*backoff_ms);
            }
            Response::Stale { epoch } => {
                w.u8(TAG_STALE);
                w.u64(*epoch);
            }
            Response::WrongJob { job } => {
                w.u8(TAG_WRONG_JOB);
                w.u64(*job);
            }
            Response::JobAccepted { job } => {
                w.u8(TAG_JOB_ACCEPTED);
                w.u64(*job);
            }
            Response::JobInfo {
                job,
                state,
                progress,
            } => {
                w.u8(TAG_JOB_INFO);
                w.u64(*job);
                w.u8(*state);
                w.bytes(progress);
            }
            Response::Jobs { jobs } => {
                w.u8(TAG_JOBS);
                w.u32(jobs.len() as u32);
                for (job, state) in jobs {
                    w.u64(*job);
                    w.u8(*state);
                }
            }
            Response::Cancelled { job } => {
                w.u8(TAG_CANCELLED);
                w.u64(*job);
            }
        }
        w.into_bytes()
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// [`FnasError::InvalidConfig`] on unknown tags, truncation or
    /// trailing bytes.
    pub fn from_bytes(buf: &[u8]) -> fnas::Result<Self> {
        decode(buf, |r| {
            Ok(match r.u8()? {
                TAG_ASSIGN => Response::Assign {
                    round: r.u64()?,
                    shard: r.u32()?,
                    shard_count: r.u32()?,
                    lease_ms: r.u64()?,
                    epoch: r.u64()?,
                    job: r.u64()?,
                    spec: r.bytes()?.to_vec(),
                    batch: r.u32()?,
                    rounds: r.u64()?,
                    init: r.bytes()?.to_vec(),
                },
                TAG_WAIT => Response::Wait {
                    backoff_ms: r.u64()?,
                },
                TAG_FINISHED => Response::Finished,
                TAG_ACK => Response::Ack {
                    still_yours: r.bool()?,
                },
                TAG_ACCEPTED => Response::Accepted { fresh: r.bool()? },
                TAG_ERROR => Response::Error { what: string(r)? },
                TAG_RETRY => Response::Retry {
                    backoff_ms: r.u64()?,
                },
                TAG_STALE => Response::Stale { epoch: r.u64()? },
                TAG_WRONG_JOB => Response::WrongJob { job: r.u64()? },
                TAG_JOB_ACCEPTED => Response::JobAccepted { job: r.u64()? },
                TAG_JOB_INFO => Response::JobInfo {
                    job: r.u64()?,
                    state: r.u8()?,
                    progress: r.bytes()?.to_vec(),
                },
                TAG_JOBS => {
                    let n = r.count32(8 + 1)?;
                    Response::Jobs {
                        jobs: r.vec(n, |r| Ok((r.u64()?, r.u8()?)))?,
                    }
                }
                TAG_CANCELLED => Response::Cancelled { job: r.u64()? },
                tag => return Err(DecodeError::Invalid(format!("unknown response tag {tag}"))),
            })
        })
        .map_err(corrupt)
    }
}

/// Timeout on every read and write of one exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The client half of one exchange: connects to `addr`, sends `request`
/// as one frame and reads the one response frame.
///
/// # Errors
///
/// I/O errors from the connection, or an undecodable response.
pub fn call(addr: &str, request: &Request) -> fnas::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write_frame(&mut stream, &request.to_bytes())?;
    Response::from_bytes(&read_frame(&mut stream)?)
}

/// The server half of one exchange: reads one request frame from
/// `stream`, answers it with `handle` (an unreadable request with
/// [`Response::Error`]), then waits for the peer to close first, so
/// TIME_WAIT lands on the client's port and a restarted coordinator can
/// rebind its address at once (DESIGN.md §15).
pub fn answer(mut stream: TcpStream, handle: impl FnOnce(&Request) -> Response) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_frame(&mut stream).and_then(|b| Request::from_bytes(&b)) {
        Ok(request) => handle(&request),
        Err(e) => Response::Error {
            what: e.to_string(),
        },
    };
    let _ = write_frame(&mut stream, &response.to_bytes());
    let _ = stream.read(&mut [0u8; 1]);
}

/// A length-prefixed UTF-8 string, owned.
fn string(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    r.str().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnas::experiment::ExperimentPreset;

    #[test]
    fn requests_round_trip() {
        let msgs = [
            Request::Heartbeat {
                worker: "w".to_string(),
                round: 3,
                shard: 2,
                epoch: 1,
                job: 11,
                fingerprint: 7,
            },
            Request::Submit {
                worker: "w".to_string(),
                round: 1,
                shard: 0,
                epoch: 2,
                job: 11,
                fingerprint: 7,
                bytes: vec![1, 2, 3],
            },
            Request::PollAny {
                worker: "w-α".to_string(),
            },
            Request::SubmitJob {
                spec: vec![4, 5, 6],
                batch: 3,
                shards: 4,
                rounds: 2,
            },
            Request::JobStatus { job: 0xC0FF_EE00 },
            Request::ListJobs,
            Request::CancelJob { job: 0xBAD_30B },
            Request::WatchProgress { job: 12 },
        ];
        for m in msgs {
            assert_eq!(Request::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn responses_round_trip() {
        let msgs = [
            Response::Assign {
                round: 2,
                shard: 1,
                shard_count: 4,
                lease_ms: 5000,
                epoch: 3,
                job: 0xC0FF_EE00,
                spec: vec![7, 8],
                batch: 3,
                rounds: 2,
                init: vec![9; 64],
            },
            Response::Wait { backoff_ms: 100 },
            Response::Finished,
            Response::Ack { still_yours: false },
            Response::Accepted { fresh: true },
            Response::Error {
                what: "nope".to_string(),
            },
            Response::Retry { backoff_ms: 250 },
            Response::Stale { epoch: 4 },
            Response::WrongJob { job: 0xBAD_30B },
            Response::JobAccepted { job: 5 },
            Response::JobInfo {
                job: 5,
                state: JOB_STATE_RUNNING,
                progress: vec![1, 2],
            },
            Response::Jobs {
                jobs: vec![(5, JOB_STATE_RUNNING), (6, JOB_STATE_FINISHED)],
            },
            Response::Cancelled { job: 6 },
        ];
        for m in msgs {
            assert_eq!(Response::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(Request::from_bytes(&[]).is_err());
        assert!(Request::from_bytes(&[99]).is_err());
        let mut ok = Request::PollAny {
            worker: "w".to_string(),
        }
        .to_bytes();
        ok.push(0); // trailing byte
        assert!(Request::from_bytes(&ok).is_err());
        assert!(Response::from_bytes(&[99]).is_err());
        // The retired tag 1 is unknown, however well-formed its body.
        let mut retired = Writer::default();
        retired.u8(1);
        retired.str("w");
        retired.u64(2);
        retired.u64(1);
        let err = Request::from_bytes(&retired.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown request tag 1"), "{err}");
    }

    #[test]
    fn fingerprint_tracks_result_determining_knobs_only() {
        let base = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(24), 10.0).with_seed(7);
        let fp =
            |c: &SearchConfig, batch, shards, rounds| config_fingerprint(c, batch, shards, rounds);
        let reference = fp(&base, 8, 4, 2);
        // Stable for an identical config.
        assert_eq!(reference, fp(&base.clone(), 8, 4, 2));
        // Every result-determining knob moves it.
        assert_ne!(reference, fp(&base.clone().with_seed(8), 8, 4, 2));
        assert_ne!(reference, fp(&base, 6, 4, 2), "batch size");
        assert_ne!(reference, fp(&base, 8, 3, 2), "shard count");
        assert_ne!(reference, fp(&base, 8, 4, 3), "round count");
        let other_budget =
            SearchConfig::fnas(ExperimentPreset::mnist().with_trials(24), 11.0).with_seed(7);
        assert_ne!(reference, fp(&other_budget, 8, 4, 2), "latency budget");
        let nas = SearchConfig::nas(ExperimentPreset::mnist().with_trials(24)).with_seed(7);
        assert_ne!(reference, fp(&nas, 8, 4, 2), "mode");
    }
}

/// Property tests over the full protocol surface — every request and
/// response tag, worker verbs and serve verbs alike: any message
/// survives encode → [`crate::framing::write_frame`] →
/// [`crate::framing::read_frame`] → decode bit-exactly. This is the exact
/// path a `TcpStream` sees; a `Vec<u8>` cursor stands in. The generic
/// codec property in `tests/codec_properties.rs` adds canonical
/// re-encoding (which implies injectivity) and mutation totality.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::framing::{read_frame, write_frame};
    use proptest::prelude::*;
    use proptest::{prop_assert_eq, proptest};
    use std::io::Cursor;

    fn arb_text() -> impl Strategy<Value = String> {
        (0u64..=u64::MAX).prop_map(|n| format!("w-{n:x}"))
    }

    fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=u8::MAX, 0usize..24)
    }

    /// One strategy covering all eight request tags: the `kind` arm picks
    /// the variant, the shared draws fill whichever fields it has.
    fn arb_request() -> impl Strategy<Value = Request> {
        (
            (0u8..8, arb_text()),
            (0u64..=u64::MAX, 0u32..=u32::MAX, 0u64..=u64::MAX),
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX),
            arb_bytes(),
        )
            .prop_map(
                |((kind, worker), (round, shard, epoch), (job, fingerprint, shards), bytes)| {
                    match kind {
                        0 => Request::Heartbeat {
                            worker,
                            round,
                            shard,
                            epoch,
                            job,
                            fingerprint,
                        },
                        1 => Request::Submit {
                            worker,
                            round,
                            shard,
                            epoch,
                            job,
                            fingerprint,
                            bytes,
                        },
                        2 => Request::PollAny { worker },
                        3 => Request::SubmitJob {
                            spec: bytes,
                            batch: shard,
                            shards,
                            rounds: round,
                        },
                        4 => Request::JobStatus { job },
                        5 => Request::ListJobs,
                        6 => Request::CancelJob { job },
                        _ => Request::WatchProgress { job },
                    }
                },
            )
    }

    /// One strategy covering all thirteen response tags.
    fn arb_response() -> impl Strategy<Value = Response> {
        (
            (0u8..13, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
            (
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                0u64..=u64::MAX,
            ),
            (arb_bytes(), arb_bytes(), 0u32..=u32::MAX),
            (0u8..2, 0u8..=u8::MAX, arb_text()),
            proptest::collection::vec((0u64..=u64::MAX, 0u8..=u8::MAX), 0usize..5),
        )
            .prop_map(
                |(
                    (kind, round, shard, shard_count),
                    (lease_ms, epoch, job, rounds),
                    (spec, init, batch),
                    (flag, state, what),
                    jobs,
                )| match kind {
                    0 => Response::Assign {
                        round,
                        shard,
                        shard_count,
                        lease_ms,
                        epoch,
                        job,
                        spec,
                        batch,
                        rounds,
                        init,
                    },
                    1 => Response::Wait {
                        backoff_ms: lease_ms,
                    },
                    2 => Response::Finished,
                    3 => Response::Ack {
                        still_yours: flag == 1,
                    },
                    4 => Response::Accepted { fresh: flag == 1 },
                    5 => Response::Error { what },
                    6 => Response::Retry {
                        backoff_ms: lease_ms,
                    },
                    7 => Response::Stale { epoch },
                    8 => Response::WrongJob { job },
                    9 => Response::JobAccepted { job },
                    10 => Response::JobInfo {
                        job,
                        state,
                        progress: spec,
                    },
                    11 => Response::Jobs { jobs },
                    _ => Response::Cancelled { job },
                },
            )
    }

    fn frame_trip(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).expect("frame writes to a Vec cannot fail");
        read_frame(&mut Cursor::new(wire)).expect("just-written frame must read back")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_requests_frame_round_trip(m in arb_request()) {
            let payload = frame_trip(&m.to_bytes());
            prop_assert_eq!(Request::from_bytes(&payload).unwrap(), m);
        }

        #[test]
        fn prop_responses_frame_round_trip(m in arb_response()) {
            let payload = frame_trip(&m.to_bytes());
            prop_assert_eq!(Response::from_bytes(&payload).unwrap(), m);
        }

    }
}
