//! The coordinator: lease shards out, enforce the round barrier, merge.
//!
//! One [`Coordinator`] owns the authoritative run state — current round,
//! that round's init snapshot, the [`LeaseTable`] — behind a single
//! mutex, and answers the stateless requests of [`crate::proto`]. The
//! request handler ([`Coordinator::handle`]) is plain synchronous code
//! with no networking in it, so the whole state machine (barrier,
//! re-dispatch, duplicate settlement, round advance) is unit-testable by
//! calling it directly. The network shell is `fnas_serve::Server`, which
//! hosts one coordinator per admitted job behind its one accept loop.
//!
//! **Determinism boundary.** The coordinator takes wall-clock decisions
//! (who runs what, when to speculate) but produces results purely by
//! [`SearchCheckpoint::merge`] over byte-settled shards in shard order —
//! so the final checkpoint is independent of worker count, timing, kill
//! order, and which replica of a re-dispatched shard reported first.
//! Coordination incidents are visible only in the coordinator's own
//! [`SearchTelemetry`] (`leases expired`, `shards re-dispatched`,
//! `duplicate results`), which is process-local and never persisted into
//! checkpoints.
//!
//! **Crash safety.** Every coordinator is journaled
//! ([`Coordinator::with_journal`]): every committed transition is
//! WAL-logged and settled shard bytes are spilled to disk before they
//! are acknowledged, so a killed coordinator restarts into the same
//! round with the same settlements (DESIGN.md §15). Each incarnation
//! takes a fresh **epoch**; leases stamp it into every assignment, and
//! submissions carrying a dead incarnation's epoch are fenced off with
//! [`Response::Stale`] instead of racing the recovered round.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fnas::checkpoint::SearchCheckpoint;
use fnas::search::{SearchConfig, ShardRunner, ShardSpec};
use fnas::{FnasError, Result};
use fnas_exec::SearchTelemetry;
use fnas_store::bytes::checksum;

use crate::clock::Clock;
use crate::journal::{self, Journal, WalRecord};
use crate::lease::{LeasePolicy, LeaseTable};
use crate::proto::{config_fingerprint, Request, Response};
use crate::rounds::{accumulate, init_for_round, merge_settled};

/// The most shards a run may ask for. The lease table and journal replay
/// hold one slot per shard, and a spec may claim any trial budget, so the
/// shard count needs a bound of its own.
pub const MAX_SHARDS: u32 = 1_024;

/// The largest per-episode batch a run may ask for: every worker reserves
/// one entry per child of an episode.
pub const MAX_BATCH: u32 = 1_024;

/// Scheduling knobs of a coordinated run.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Shards per round.
    pub shards: u32,
    /// Synchronous rounds to iterate.
    pub rounds: u64,
    /// Lease TTL / straggler / replica policy.
    pub lease: LeasePolicy,
    /// Backoff suggested to workers when nothing is assignable.
    pub backoff_ms: u64,
    /// Memory cap on concurrently held `Submit` payloads, expressed in
    /// rounds: at most `max_buffered_rounds × shards` submissions are
    /// processed at once; excess submitters get [`Response::Retry`] and
    /// their payload is dropped instead of queueing on the state mutex.
    /// Clamped to ≥ 1 round.
    pub max_buffered_rounds: usize,
}

impl CoordinatorOptions {
    /// `shards` × `rounds` with a 5-second lease TTL and gentle backoff.
    pub fn new(shards: u32, rounds: u64) -> Self {
        CoordinatorOptions {
            shards,
            rounds,
            lease: LeasePolicy::with_ttl_ms(5_000),
            backoff_ms: 50,
            max_buffered_rounds: 2,
        }
    }
}

/// Mutable run state, all behind one mutex.
#[derive(Debug)]
struct RoundState {
    /// Current round (< `opts.rounds` until finished).
    round: u64,
    /// The current round's init snapshot, pre-encoded for `Assign`.
    init_bytes: Vec<u8>,
    /// Lease state of the current round's shards.
    table: LeaseTable,
    /// Merged checkpoint of each completed round.
    merges: Vec<SearchCheckpoint>,
    /// The accumulated final checkpoint, once every round is merged.
    finished: Option<SearchCheckpoint>,
    /// The write-ahead round journal. Its spill files also hold the
    /// settled bytes of completed rounds, for byte-comparing replicas
    /// that report after their round's barrier already fell.
    journal: Journal,
}

/// The coordinator of one run. See the module docs.
#[derive(Debug)]
pub struct Coordinator {
    base: SearchConfig,
    /// `job_digest` of `base`'s [`fnas::job::JobSpec`] — the job identity
    /// every request must name before the fingerprint is even looked at
    /// (DESIGN.md §17).
    job: u64,
    /// Canonical `JobSpec::encode` bytes of `base`'s job, pre-encoded so
    /// every `Assign` can carry them (fleet workers resolve the job from
    /// these bytes alone).
    spec_bytes: Vec<u8>,
    /// Batch size every worker must train with (fingerprint input, and
    /// stamped into `Assign` for fleet workers).
    batch: usize,
    fingerprint: u64,
    /// This incarnation's epoch: how many coordinator incarnations the
    /// journal saw before this one.
    epoch: u64,
    opts: CoordinatorOptions,
    clock: Arc<dyn Clock>,
    telemetry: Arc<SearchTelemetry>,
    state: Mutex<RoundState>,
    /// `Submit` payloads currently admitted (parsed and waiting on, or
    /// holding, the state mutex). Bounded by the admission cap.
    in_flight_submits: AtomicUsize,
}

impl Coordinator {
    /// Builds the coordinator of one run, journaled under `dir`.
    ///
    /// `batch` is the per-episode batch size every worker must use (it
    /// determines results, so it is folded into the fingerprint).
    ///
    /// On a fresh directory this is a cold start (epoch 0) that freezes
    /// round 0's init snapshot.
    /// On a directory left by a previous incarnation it **recovers**:
    /// the WAL's clean prefix is replayed, every completed round whose
    /// spill files all pass their checksums is re-merged (bit-exactly —
    /// [`merge_settled`] is the same code the live barrier runs), the
    /// first incomplete round becomes the current round with its valid
    /// spills pre-settled and the rest back in the lease pool, and this
    /// incarnation takes the next epoch so pre-crash leases are fenced.
    /// A corrupt spill or torn WAL tail silently degrades to "that shard
    /// re-runs"; only I/O failures and a config mismatch are errors.
    ///
    /// # Errors
    ///
    /// [`FnasError::InvalidConfig`] for zero shards or rounds, for more
    /// shards than [`MAX_SHARDS`] or than the trial budget can fill, for
    /// a batch outside `1..=`[`MAX_BATCH`] (all checked before `dir` is
    /// touched), and when the journal was written by a different job
    /// or by a run with a different config fingerprint; I/O errors
    /// opening or appending the journal; searcher construction errors
    /// from the init freeze.
    pub fn with_journal(
        base: SearchConfig,
        batch: usize,
        opts: CoordinatorOptions,
        clock: Arc<dyn Clock>,
        dir: &Path,
    ) -> Result<Self> {
        Self::validate(&base, batch, &opts)?;
        let job = base.job().job_digest();
        let fingerprint = config_fingerprint(&base, batch, opts.shards, opts.rounds);
        let (mut journal, records) = Journal::open(dir)?;
        let plan = journal::replay(&records);
        // Job identity is checked before the fingerprint: a journal dir
        // holding a *different job's* run is a different search entirely,
        // not a flag disagreement within one job.
        if let Some(j) = plan.job {
            if j != job {
                return Err(FnasError::InvalidConfig {
                    what: format!(
                        "journal at {} belongs to job {j:#018x}, not this job {job:#018x}; \
                         use a fresh directory or the original job flags",
                        dir.display()
                    ),
                });
            }
        }
        if let Some(fp) = plan.fingerprint {
            if fp != fingerprint {
                return Err(FnasError::InvalidConfig {
                    what: format!(
                        "journal at {} belongs to run {fp:#018x}, not this run \
                         {fingerprint:#018x}; use a fresh directory or the original flags",
                        dir.display()
                    ),
                });
            }
        }
        let epoch = plan.next_epoch;
        let telemetry = Arc::new(SearchTelemetry::new());
        // Startup appends are strict: a journal that cannot even record
        // the new epoch gives no crash safety at all.
        journal.append(&WalRecord::EpochStarted {
            epoch,
            fingerprint,
            job,
        })?;
        telemetry.journal_records.add(1);

        // Re-validate the WAL's claims against the spill files: a round
        // counts as complete iff every shard's spill decodes and matches
        // its recorded length and checksum.
        let mut merges = Vec::new();
        let mut current = 0u64;
        let mut restored: Vec<(u32, Vec<u8>)> = Vec::new();
        for r in 0..opts.rounds {
            let mut by_shard: Vec<Option<Vec<u8>>> = vec![None; opts.shards as usize];
            for &(round, shard, len, sum) in &plan.settled {
                if round != r || shard >= opts.shards {
                    continue;
                }
                if let Some(bytes) = journal.load_spill(round, shard) {
                    if bytes.len() as u64 == len && checksum(&bytes) == sum {
                        by_shard[shard as usize] = Some(bytes);
                    }
                }
            }
            if by_shard.iter().all(Option::is_some) {
                let done: Vec<Vec<u8>> = by_shard.into_iter().flatten().collect();
                merges.push(merge_settled(&done)?);
                continue;
            }
            current = r;
            restored = by_shard
                .into_iter()
                .enumerate()
                .filter_map(|(s, b)| b.map(|b| (s as u32, b)))
                .collect();
            break;
        }
        let recovered = merges.len() as u64;
        telemetry.rounds_recovered.add(recovered);

        let (finished, init_bytes) = if recovered == opts.rounds {
            current = opts.rounds - 1;
            // Nothing left to dispatch: pollers hear Finished before the
            // init snapshot could ever be served.
            (Some(accumulate(&base, &merges)?), Vec::new())
        } else {
            let init = init_for_round(&base, current, merges.last())?;
            (None, init.to_bytes())
        };
        let mut table = LeaseTable::new(opts.shards, opts.lease);
        for (shard, bytes) in restored {
            table.restore_done(shard, bytes);
        }
        if finished.is_none()
            && journal
                .append(&WalRecord::RoundStarted {
                    epoch,
                    round: current,
                })
                .is_ok()
        {
            telemetry.journal_records.add(1);
        }
        let spec_bytes = base.job().encode();
        Ok(Coordinator {
            base,
            job,
            spec_bytes,
            batch,
            fingerprint,
            epoch,
            clock,
            telemetry,
            state: Mutex::new(RoundState {
                round: current,
                init_bytes,
                table,
                merges,
                finished,
                journal,
            }),
            opts,
            in_flight_submits: AtomicUsize::new(0),
        })
    }

    fn validate(base: &SearchConfig, batch: usize, opts: &CoordinatorOptions) -> Result<()> {
        if opts.shards == 0 || opts.rounds == 0 {
            return Err(FnasError::InvalidConfig {
                what: format!(
                    "a coordinated run needs ≥ 1 shard and ≥ 1 round (got {} × {})",
                    opts.shards, opts.rounds
                ),
            });
        }
        // The last shard has the smallest trial share: if it has trials,
        // every shard does. Refused here, before anything is allocated
        // per shard, rather than by the first worker to draw an empty one.
        let last = ShardSpec::new(opts.shards - 1, opts.shards)?;
        ShardRunner::new(base.clone(), last).config()?;
        if opts.shards > MAX_SHARDS {
            return Err(FnasError::InvalidConfig {
                what: format!(
                    "a coordinated run may use at most {MAX_SHARDS} shards (got {})",
                    opts.shards
                ),
            });
        }
        if batch == 0 || batch > MAX_BATCH as usize {
            return Err(FnasError::InvalidConfig {
                what: format!("a job needs a batch size in 1..={MAX_BATCH} (got {batch})"),
            });
        }
        Ok(())
    }

    /// The run fingerprint workers must present.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The `job_digest` workers must present (checked before the
    /// fingerprint; a mismatch answers [`Response::WrongJob`]).
    pub fn job(&self) -> u64 {
        self.job
    }

    /// This incarnation's epoch (0 for a fresh journal).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Completed rounds restored from the journal at construction.
    pub fn rounds_recovered(&self) -> u64 {
        self.telemetry.snapshot().rounds_recovered
    }

    /// The coordinator's scheduling telemetry (process-local; the
    /// `coord:` counters live here and are never persisted).
    pub fn telemetry(&self) -> &SearchTelemetry {
        &self.telemetry
    }

    /// The final accumulated checkpoint, once every round has merged.
    pub fn finished_checkpoint(&self) -> Option<SearchCheckpoint> {
        self.state
            .lock()
            .expect("coordinator lock")
            .finished
            .clone()
    }

    /// A point-in-time view of how far the run has come, computed from
    /// merged rounds only (settled-but-unmerged shards are invisible —
    /// progress moves at round granularity, like the results themselves).
    /// `fnas-serve` publishes this as the job's progress artifact.
    pub fn progress(&self) -> CoordinatorProgress {
        let state = self.state.lock().expect("coordinator lock");
        let trials: Vec<_> = match &state.finished {
            // The accumulated artifact already folds every round.
            Some(f) => f.trials.iter().collect(),
            None => state.merges.iter().flat_map(|m| m.trials.iter()).collect(),
        };
        let best = trials
            .iter()
            .max_by(|a, b| a.reward.total_cmp(&b.reward))
            .copied();
        CoordinatorProgress {
            round: state.round,
            rounds: self.opts.rounds,
            shards: self.opts.shards,
            rounds_merged: state.merges.len() as u64,
            finished: state.finished.is_some(),
            trials_done: trials.len() as u64,
            best_reward_bits: best.map_or(0, |t| t.reward.to_bits()),
            best_arch: best.map_or_else(String::new, |t| t.arch.describe()),
        }
    }

    /// Answers one request. This is the entire protocol semantics; the
    /// TCP layer only moves frames.
    pub fn handle(&self, request: &Request) -> Response {
        // Job identity first: a heartbeat or submit naming another job
        // learns *which* mismatch it has — the job — deterministically,
        // before the fingerprint or any state is consulted.
        let (job, fp) = match request {
            Request::Heartbeat {
                job, fingerprint, ..
            }
            | Request::Submit {
                job, fingerprint, ..
            } => (*job, *fingerprint),
            // The poll verb names no identities up front: the worker
            // learns the job from the `Assign` it is handed (spec bytes +
            // batch + rounds) and proves agreement on every later
            // Heartbeat/Submit, where the usual fences apply.
            Request::PollAny { worker } => {
                let mut state = self.state.lock().expect("coordinator lock");
                return self.poll(&mut state, worker);
            }
            // Client verbs are answered by the server hosting the
            // coordinator (`fnas-serve`, DESIGN.md §18); one job's
            // coordinator rejects them deterministically rather than
            // half-answering.
            Request::SubmitJob { .. }
            | Request::JobStatus { .. }
            | Request::ListJobs
            | Request::CancelJob { .. }
            | Request::WatchProgress { .. } => {
                return Response::Error {
                    what: "a job's coordinator answers worker verbs only; client verbs \
                           (SubmitJob/JobStatus/ListJobs/CancelJob/WatchProgress) \
                           need a fnas-serve endpoint"
                        .to_string(),
                };
            }
        };
        if job != self.job {
            return Response::WrongJob { job: self.job };
        }
        if fp != self.fingerprint {
            return Response::Error {
                what: format!(
                    "config fingerprint {fp:#018x} does not match this run's \
                     {:#018x}; check seed/trials/budget/preset/batch/shards/rounds",
                    self.fingerprint
                ),
            };
        }
        // Epoch fence: a lease stamped by another incarnation is void.
        // Its submission is discarded (the recovered round may have
        // re-dispatched the shard under this epoch) and its heartbeat
        // learns the lease is gone — both deterministically, before any
        // state is touched.
        match request {
            Request::Submit { epoch, .. } if *epoch != self.epoch => {
                self.telemetry.stale_submissions_rejected.add(1);
                return Response::Stale { epoch: self.epoch };
            }
            Request::Heartbeat { epoch, .. } if *epoch != self.epoch => {
                return Response::Ack { still_yours: false };
            }
            _ => {}
        }
        let mut state = self.state.lock().expect("coordinator lock");
        match request {
            Request::Heartbeat {
                worker,
                round,
                shard,
                ..
            } => self.heartbeat(&mut state, worker, *round, *shard),
            Request::Submit {
                round,
                shard,
                bytes,
                ..
            } => self.submit(&mut state, *round, *shard, bytes),
            // PollAny and the client verbs returned above.
            _ => unreachable!("identity-less verbs are dispatched early"),
        }
    }

    fn poll(&self, state: &mut RoundState, worker: &str) -> Response {
        if state.finished.is_some() {
            return Response::Finished;
        }
        let now = self.clock.now_ms();
        match state.table.assign(worker, now, &self.telemetry) {
            Some(shard) => Response::Assign {
                round: state.round,
                shard,
                shard_count: self.opts.shards,
                lease_ms: self.opts.lease.ttl_ms,
                epoch: self.epoch,
                job: self.job,
                spec: self.spec_bytes.clone(),
                batch: self.batch as u32,
                rounds: self.opts.rounds,
                init: state.init_bytes.clone(),
            },
            None => Response::Wait {
                backoff_ms: self.opts.backoff_ms,
            },
        }
    }

    fn heartbeat(&self, state: &mut RoundState, worker: &str, round: u64, shard: u32) -> Response {
        if round != state.round || state.finished.is_some() {
            // The barrier already fell; whatever lease this was is gone.
            return Response::Ack { still_yours: false };
        }
        let now = self.clock.now_ms();
        let still_yours = state.table.heartbeat(shard, worker, now, &self.telemetry);
        Response::Ack { still_yours }
    }

    fn submit(&self, state: &mut RoundState, round: u64, shard: u32, bytes: &[u8]) -> Response {
        // A replica reporting after its round's barrier fell: settle it
        // against the recorded bytes — the byte-compare assertion holds
        // across the barrier, not just within a round.
        if round < state.round || state.finished.is_some() {
            // The recorded bytes live in the journal's spill files;
            // completed rounds are not kept in memory.
            return match state.journal.load_spill(round, shard) {
                Some(first) if first == bytes => {
                    self.telemetry.duplicate_results.add(1);
                    Response::Accepted { fresh: false }
                }
                Some(_) => Response::Error {
                    what: format!(
                        "late duplicate for round {round} shard {shard} differs from the \
                         settled result — replicas must be byte-identical"
                    ),
                },
                None => Response::Error {
                    what: format!("submit for unknown round {round} shard {shard}"),
                },
            };
        }
        if round > state.round {
            return Response::Error {
                what: format!(
                    "submit for future round {round} (coordinator is at round {})",
                    state.round
                ),
            };
        }
        match state.table.submit(shard, bytes.to_vec(), &self.telemetry) {
            Err(e) => Response::Error {
                what: e.to_string(),
            },
            Ok(fresh) => {
                if fresh {
                    self.journal_settle(state, round, shard, bytes);
                    if state.table.all_done() {
                        if let Err(e) = self.advance(state) {
                            return Response::Error {
                                what: format!("round {} merge failed: {e}", state.round),
                            };
                        }
                    }
                }
                Response::Accepted { fresh }
            }
        }
    }

    /// Journals one fresh settlement: spill first, then the WAL record,
    /// so a record in the clean prefix always has its spill. Soft-fails:
    /// a failed write only means the settlement is re-earned after a
    /// crash (bit-exactly, by determinism) — the live round proceeds.
    fn journal_settle(&self, state: &mut RoundState, round: u64, shard: u32, bytes: &[u8]) {
        let Ok(checksum) = state.journal.spill_shard(round, shard, bytes) else {
            return;
        };
        let record = WalRecord::ShardSettled {
            epoch: self.epoch,
            round,
            shard,
            len: bytes.len() as u64,
            checksum,
        };
        self.journal_append(state, record);
    }

    /// Appends one record to the journal, soft-failing like
    /// [`Coordinator::journal_settle`].
    fn journal_append(&self, state: &mut RoundState, record: WalRecord) {
        if state.journal.append(&record).is_ok() {
            self.telemetry.journal_records.add(1);
        }
    }

    /// Barrier: every shard of the current round has settled. Merge, and
    /// either re-init the next round or accumulate the final artifact.
    fn advance(&self, state: &mut RoundState) -> Result<()> {
        let done: Vec<Vec<u8>> = state
            .table
            .done_bytes()?
            .into_iter()
            .map(<[u8]>::to_vec)
            .collect();
        let merged = merge_settled(&done)?;
        self.journal_append(
            state,
            WalRecord::RoundMerged {
                epoch: self.epoch,
                round: state.round,
                checksum: checksum(&merged.to_bytes()),
            },
        );
        state.merges.push(merged);
        if state.round + 1 < self.opts.rounds {
            state.round += 1;
            let init = init_for_round(&self.base, state.round, state.merges.last())?;
            state.init_bytes = init.to_bytes();
            state.table = LeaseTable::new(self.opts.shards, self.opts.lease);
            let round = state.round;
            self.journal_append(
                state,
                WalRecord::RoundStarted {
                    epoch: self.epoch,
                    round,
                },
            );
        } else {
            state.finished = Some(accumulate(&self.base, &state.merges)?);
            self.journal_append(state, WalRecord::Finished { epoch: self.epoch });
        }
        Ok(())
    }

    /// The admission cap on concurrently held submit payloads.
    fn submit_cap(&self) -> usize {
        self.opts.max_buffered_rounds.max(1) * self.opts.shards as usize
    }

    /// Claims one slot of the submit-payload budget, or `None` when the
    /// cap is reached — the caller should answer [`Response::Retry`] and
    /// drop the payload. The slot is released when the guard drops.
    /// Public so the admission-saturation tests can drive the cap
    /// directly.
    pub fn try_admit_submit(&self) -> Option<SubmitSlot<'_>> {
        let prev = self.in_flight_submits.fetch_add(1, Ordering::SeqCst);
        if prev >= self.submit_cap() {
            self.in_flight_submits.fetch_sub(1, Ordering::SeqCst);
            None
        } else {
            Some(SubmitSlot(&self.in_flight_submits))
        }
    }

    /// [`Coordinator::handle`] with the submit-admission cap applied —
    /// the entry point the network shell (`fnas_serve::Server`) routes
    /// worker verbs through. A deferred submission is answered with
    /// [`Response::Retry`] and counted in telemetry (`retries served`).
    pub fn handle_with_admission(&self, request: &Request) -> Response {
        if matches!(request, Request::Submit { .. }) {
            match self.try_admit_submit() {
                Some(_slot) => self.handle(request),
                None => {
                    let backoff_ms = self.opts.backoff_ms;
                    self.telemetry.retries_served.add(1);
                    self.telemetry.retry_sleep_ms.add(backoff_ms);
                    Response::Retry { backoff_ms }
                }
            }
        } else {
            self.handle(request)
        }
    }
}

/// RAII slot on the submit-payload budget; releases on drop, so an
/// admitted submission frees its slot however its handler exits.
pub struct SubmitSlot<'a>(&'a AtomicUsize);

impl Drop for SubmitSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What [`Coordinator::progress`] reports. All counts reflect *merged*
/// state, so two observers always agree regardless of in-flight work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorProgress {
    /// Current round index (the last round once finished).
    pub round: u64,
    /// Total rounds of the run.
    pub rounds: u64,
    /// Shards per round.
    pub shards: u32,
    /// Rounds whose barrier has fallen and whose merge exists.
    pub rounds_merged: u64,
    /// Whether the final accumulated checkpoint exists.
    pub finished: bool,
    /// Trials folded into merged rounds so far.
    pub trials_done: u64,
    /// `f32::to_bits` of the best merged reward (0 until any trial
    /// merges — bit-exact over the wire, unlike a float).
    pub best_reward_bits: u32,
    /// `ChildArch::describe()` of the best merged trial, empty until any
    /// trial merges.
    pub best_arch: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::rounds::{run_round_shard, shard_file};
    use fnas::experiment::ExperimentPreset;
    use fnas::search::{BatchOptions, ShardSpec};

    fn base() -> SearchConfig {
        SearchConfig::fnas(ExperimentPreset::mnist().with_trials(8), 10.0).with_seed(5)
    }

    /// Runs the assigned shard for real and returns its bytes.
    fn run_assignment(dir: &std::path::Path, response: &Response) -> (u64, u32, Vec<u8>) {
        let Response::Assign {
            round,
            shard,
            shard_count,
            init,
            ..
        } = response
        else {
            panic!("expected an assignment, got {response:?}");
        };
        let init = SearchCheckpoint::from_bytes(init).unwrap();
        let spec = ShardSpec::new(*shard, *shard_count).unwrap();
        let path = dir.join(shard_file(*round, *shard, *shard_count));
        let opts = BatchOptions::default().with_batch_size(4).with_workers(0);
        let bytes = run_round_shard(&base(), *round, spec, &init, &opts, &path).unwrap();
        (*round, *shard, bytes)
    }

    fn poll(coord: &Coordinator, worker: &str) -> Response {
        coord.handle(&Request::PollAny {
            worker: worker.to_string(),
        })
    }

    fn submit(coord: &Coordinator, round: u64, shard: u32, bytes: Vec<u8>) -> Response {
        coord.handle(&Request::Submit {
            worker: "w".to_string(),
            round,
            shard,
            epoch: coord.epoch(),
            job: coord.job(),
            fingerprint: coord.fingerprint(),
            bytes,
        })
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fnas-coord-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wrong_fingerprints_are_rejected_up_front() {
        let dir = tmp("fingerprint");
        let (coord, _) = journaled(2, 1, &dir);
        let r = coord.handle(&Request::Heartbeat {
            worker: "w".to_string(),
            round: 0,
            shard: 0,
            epoch: coord.epoch(),
            job: coord.job(),
            fingerprint: coord.fingerprint() ^ 1,
        });
        assert!(matches!(r, Response::Error { .. }), "{r:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn wrong_jobs_are_rejected_before_the_fingerprint() {
        let dir = tmp("wrong-job");
        let (coord, _) = journaled(2, 1, &dir);
        // Both identities wrong (the realistic shape: a different
        // budget moves the job digest AND the fingerprint): the answer
        // names the job mismatch, not the fingerprint.
        let r = coord.handle(&Request::Heartbeat {
            worker: "w".to_string(),
            round: 0,
            shard: 0,
            epoch: coord.epoch(),
            job: coord.job() ^ 1,
            fingerprint: coord.fingerprint() ^ 1,
        });
        assert_eq!(r, Response::WrongJob { job: coord.job() });
        // Submit is fenced the same way, with no state touched — the
        // round is still fully assignable afterwards.
        let r = coord.handle(&Request::Submit {
            worker: "w".to_string(),
            round: 0,
            shard: 0,
            epoch: coord.epoch(),
            job: coord.job() ^ 1,
            fingerprint: coord.fingerprint(),
            bytes: vec![1, 2, 3],
        });
        assert_eq!(r, Response::WrongJob { job: coord.job() });
        assert!(matches!(poll(&coord, "ok"), Response::Assign { .. }));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rounds_advance_through_the_barrier_and_finish() {
        let dir = tmp("barrier");
        let (coord, _) = journaled(2, 2, &dir.join("wal"));

        // Round 0: two assignments, then the barrier.
        let a = run_assignment(&dir, &poll(&coord, "a"));
        let b = run_assignment(&dir, &poll(&coord, "b"));
        assert_eq!((a.0, a.1), (0, 0));
        assert_eq!((b.0, b.1), (0, 1));
        assert!(matches!(poll(&coord, "c"), Response::Wait { .. }));
        assert!(matches!(
            submit(&coord, a.0, a.1, a.2.clone()),
            Response::Accepted { fresh: true }
        ));
        assert!(coord.finished_checkpoint().is_none());
        assert!(matches!(
            submit(&coord, b.0, b.1, b.2),
            Response::Accepted { fresh: true }
        ));

        // Barrier fell: round 1 is being dispatched.
        let c = run_assignment(&dir, &poll(&coord, "c"));
        assert_eq!((c.0, c.1), (1, 0));
        let d = run_assignment(&dir, &poll(&coord, "d"));
        submit(&coord, c.0, c.1, c.2);
        assert!(matches!(
            submit(&coord, d.0, d.1, d.2),
            Response::Accepted { fresh: true }
        ));

        // All rounds merged: pollers hear Finished, the artifact exists.
        assert!(matches!(poll(&coord, "a"), Response::Finished));
        let out = coord.finished_checkpoint().unwrap();
        assert_eq!(out.round, 1);
        assert_eq!(out.trials.len(), 16);

        // A replica of round 0 reporting after the barrier is settled by
        // byte-compare against the recorded result.
        assert!(matches!(
            submit(&coord, 0, 0, a.2.clone()),
            Response::Accepted { fresh: false }
        ));
        assert_eq!(coord.telemetry().snapshot().duplicate_results, 1);
        let mut diverged = a.2;
        diverged[0] ^= 0xFF;
        assert!(matches!(
            submit(&coord, 0, 0, diverged),
            Response::Error { .. }
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn expired_leases_are_redispatched_and_first_result_wins() {
        let dir = tmp("expiry");
        let (coord, clock) = journaled(1, 1, &dir.join("wal"));

        let a = run_assignment(&dir, &poll(&coord, "a"));
        // a goes silent past the TTL; the shard goes back to the pool and
        // b picks it up.
        clock.advance(6_000);
        let b = run_assignment(&dir, &poll(&coord, "b"));
        assert_eq!((b.0, b.1), (0, 0));
        assert_eq!(coord.telemetry().snapshot().leases_expired, 1);

        // The dead worker's result arrives first anyway — first wins,
        // and b's identical replica is absorbed.
        assert!(matches!(
            submit(&coord, a.0, a.1, a.2),
            Response::Accepted { fresh: true }
        ));
        assert!(matches!(
            submit(&coord, b.0, b.1, b.2),
            Response::Accepted { fresh: false }
        ));
        assert_eq!(coord.telemetry().snapshot().duplicate_results, 1);
        assert!(coord.finished_checkpoint().is_some());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn heartbeats_keep_a_lease_alive_across_the_ttl() {
        let dir = tmp("heartbeat");
        // Speculation off: this test isolates heartbeat-driven expiry;
        // with the default policy b would earn a replica of the aged (but
        // live) lease instead of being told to wait.
        let clock = Arc::new(ManualClock::new());
        let mut opts = CoordinatorOptions::new(1, 1);
        opts.lease.straggle_after_ms = u64::MAX;
        let coord = Arc::new(
            Coordinator::with_journal(
                base(),
                4,
                opts,
                Arc::<ManualClock>::clone(&clock) as Arc<dyn Clock>,
                &dir.join("wal"),
            )
            .unwrap(),
        );
        let _a = run_assignment(&dir, &poll(&coord, "a"));
        let heartbeat = |worker: &str| {
            coord.handle(&Request::Heartbeat {
                worker: worker.to_string(),
                round: 0,
                shard: 0,
                epoch: coord.epoch(),
                job: coord.job(),
                fingerprint: coord.fingerprint(),
            })
        };
        clock.advance(4_000);
        assert!(matches!(
            heartbeat("a"),
            Response::Ack { still_yours: true }
        ));
        clock.advance(4_000); // 8s total — dead without the heartbeat
        assert!(matches!(poll(&coord, "b"), Response::Wait { .. }));
        assert_eq!(coord.telemetry().snapshot().leases_expired, 0);
        // A worker that never held the lease is told so.
        assert!(matches!(
            heartbeat("z"),
            Response::Ack { still_yours: false }
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn submit_admission_caps_concurrently_buffered_payloads() {
        let dir = tmp("admission");
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let mut opts = CoordinatorOptions::new(1, 1);
        opts.max_buffered_rounds = 1; // cap = 1 round × 1 shard = 1 payload
        let coord = Coordinator::with_journal(base(), 4, opts, clock, &dir).unwrap();
        let first = coord.try_admit_submit().expect("first submit is admitted");
        assert!(
            coord.try_admit_submit().is_none(),
            "a second concurrent submit must be deferred at the cap"
        );
        drop(first);
        let reclaimed = coord.try_admit_submit();
        assert!(reclaimed.is_some(), "the slot frees when its guard drops");
        drop(reclaimed);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn buffered_rounds_cap_clamps_to_one_round() {
        let dir = tmp("clamp");
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let mut opts = CoordinatorOptions::new(3, 1);
        opts.max_buffered_rounds = 0; // misconfigured: still one round's worth
        let coord = Coordinator::with_journal(base(), 4, opts, clock, &dir).unwrap();
        assert_eq!(coord.submit_cap(), 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    fn journaled(
        shards: u32,
        rounds: u64,
        dir: &std::path::Path,
    ) -> (Arc<Coordinator>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let coord = Coordinator::with_journal(
            base(),
            4,
            CoordinatorOptions::new(shards, rounds),
            Arc::<ManualClock>::clone(&clock) as Arc<dyn Clock>,
            dir,
        )
        .unwrap();
        (Arc::new(coord), clock)
    }

    #[test]
    fn journaled_coordinator_recovers_mid_round_and_fences_stale_epochs() {
        let dir = tmp("journal-recovery");
        let journal_dir = dir.join("journal");

        // The uninterrupted reference: a coordinator on a journal of
        // its own that is never restarted.
        let reference = {
            let (coord, _) = journaled(2, 2, &dir.join("reference"));
            loop {
                match poll(&coord, "ref") {
                    r @ Response::Assign { .. } => {
                        let (round, shard, bytes) = run_assignment(&dir, &r);
                        submit(&coord, round, shard, bytes);
                    }
                    Response::Finished => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            coord.finished_checkpoint().unwrap().to_bytes()
        };

        // Incarnation 0: settle all of round 0 and shard 0 of round 1,
        // then "crash" (drop without finishing). Keep one round-1 result
        // aside to replay later under the dead epoch.
        let stale_payload;
        {
            let (coord, _) = journaled(2, 2, &journal_dir);
            assert_eq!(coord.epoch(), 0);
            let a = run_assignment(&dir, &poll(&coord, "a"));
            let b = run_assignment(&dir, &poll(&coord, "b"));
            submit(&coord, a.0, a.1, a.2);
            submit(&coord, b.0, b.1, b.2);
            let c = run_assignment(&dir, &poll(&coord, "c"));
            assert_eq!(c.0, 1, "round 0 merged, round 1 dispatched");
            let d = run_assignment(&dir, &poll(&coord, "d"));
            submit(&coord, c.0, c.1, c.2);
            stale_payload = d;
        }

        // Incarnation 1 recovers: round 0 stays merged, round 1 resumes
        // with shard 0 settled and shard 1 back in the pool.
        let (coord, _) = journaled(2, 2, &journal_dir);
        assert_eq!(coord.epoch(), 1);
        assert_eq!(coord.rounds_recovered(), 1);

        // The pre-crash in-flight submission carries epoch 0: fenced,
        // counted, and the shard stays unsettled.
        let (round, shard, bytes) = stale_payload;
        let stale = coord.handle(&Request::Submit {
            worker: "d".to_string(),
            round,
            shard,
            epoch: 0,
            job: coord.job(),
            fingerprint: coord.fingerprint(),
            bytes: bytes.clone(),
        });
        assert_eq!(stale, Response::Stale { epoch: 1 });
        let t = coord.telemetry().snapshot();
        assert_eq!(t.stale_submissions_rejected, 1);
        assert!(coord.finished_checkpoint().is_none(), "nothing settled");
        // A stale heartbeat likewise learns its lease is void.
        assert!(matches!(
            coord.handle(&Request::Heartbeat {
                worker: "d".to_string(),
                round,
                shard,
                epoch: 0,
                job: coord.job(),
                fingerprint: coord.fingerprint(),
            }),
            Response::Ack { still_yours: false }
        ));

        // A current-epoch worker picks up exactly the unsettled shard
        // and the run completes byte-identical to the reference.
        let e = run_assignment(&dir, &poll(&coord, "e"));
        assert_eq!((e.0, e.1), (1, 1), "only shard 1 of round 1 is open");
        submit(&coord, e.0, e.1, e.2);
        assert_eq!(coord.finished_checkpoint().unwrap().to_bytes(), reference);

        // A third incarnation over the finished journal recovers the
        // artifact outright, again byte-identical.
        let (coord, _) = journaled(2, 2, &journal_dir);
        assert_eq!(coord.epoch(), 2);
        assert_eq!(coord.rounds_recovered(), 2);
        assert_eq!(coord.finished_checkpoint().unwrap().to_bytes(), reference);
        assert!(matches!(poll(&coord, "late"), Response::Finished));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn journal_from_a_different_run_is_rejected() {
        let dir = tmp("journal-mismatch");
        let journal_dir = dir.join("journal");
        let _ = journaled(2, 2, &journal_dir);
        // Same job, different execution flags (batch size): the journal
        // refuses with the fingerprint message.
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let err = Coordinator::with_journal(
            base(),
            5,
            CoordinatorOptions::new(2, 2),
            Arc::clone(&clock),
            &journal_dir,
        )
        .unwrap_err();
        assert!(err.to_string().contains("belongs to run"), "{err}");
        // A different *job* (the seed is identity-bearing) is refused
        // with the job message — before the fingerprint is consulted.
        let err = Coordinator::with_journal(
            base().with_seed(6),
            4,
            CoordinatorOptions::new(2, 2),
            clock,
            &journal_dir,
        )
        .unwrap_err();
        assert!(err.to_string().contains("belongs to job"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn zero_shards_or_rounds_are_rejected() {
        let dir = tmp("invalid");
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        // base() has 8 trials, so a 9th shard (let alone u32::MAX of
        // them) would have none.
        for (s, r) in [(0u32, 1u64), (1, 0), (9, 1), (u32::MAX, 1)] {
            let wal = dir.join(format!("wal-{s}-{r}"));
            let opts = CoordinatorOptions::new(s, r);
            let err = Coordinator::with_journal(base(), 4, opts, Arc::clone(&clock), &wal)
                .unwrap_err()
                .to_string();
            if s > 8 {
                assert!(err.contains("has no trials; use at most 8 shards"), "{err}");
            }
            assert!(!wal.exists(), "{s} × {r}: refused before the journal opens");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
