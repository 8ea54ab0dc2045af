//! `fnas-coord` — a distributed shard coordinator for the FNAS search.
//!
//! The `fnas-shard` protocol (init → run × N → merge) already lets one
//! run span machines, but leaves the *scheduling* to whoever invokes the
//! shards: a lost machine stalls the merge forever, and the controller
//! never re-synchronises mid-run. This crate adds the missing runtime:
//!
//! * [`coordinator`] — the authoritative state machine of one job:
//!   leases shards to polling workers with wall-clock TTLs, re-dispatches
//!   stragglers and lost shards speculatively, settles duplicate results
//!   first-wins (byte-compared — a mismatch is a hard determinism
//!   error), merges each round at a synchronous barrier and re-inits the
//!   next from the merged controller. It has no network code of its
//!   own: `fnas_serve::Server` hosts it (one coordinator per job) behind
//!   the one accept loop, and the `fnas-coord serve` bin is a one-job
//!   server.
//! * [`worker`] — the job-agnostic loop a machine runs: poll, resolve
//!   the job from the assignment, run the leased shard via the shared
//!   [`rounds`] code path, heartbeat meanwhile, submit.
//! * [`rounds`] — the round math itself, shared by the coordinator, the
//!   workers *and* the in-process reference driver
//!   ([`rounds::run_rounds_local`]), making "coordinated equals
//!   sequential" a byte identity.
//! * [`proto`] / [`framing`] — a stateless request–response protocol in
//!   length-prefixed frames over `TcpStream`; std only, no async.
//! * [`lease`] — the TTL / straggler / first-wins bookkeeping.
//! * [`journal`] — the crash-safe write-ahead round journal every
//!   coordinator keeps: every committed transition WAL-logged, settled
//!   shard bytes spilled to checksummed files, so re-running the same
//!   `fnas-coord serve` command after a kill restarts into the same
//!   round with the same settlements (DESIGN.md §15).
//! * [`clock`] — the trait fencing wall-clock time into the lease layer
//!   (shard results never read time; see `fnas_exec::watchdog` for the
//!   logical-tick side of that boundary).
//!
//! The determinism contract, pinned by `tests/coord_rounds.rs` and the
//! CI `coord` job: an R-round × N-shard coordinated run produces a final
//! checkpoint **byte-identical** to the same rounds driven sequentially
//! in one process, independent of how many workers serve it, which of
//! them die, and which replica of a re-dispatched shard reports first.

pub mod clock;
pub mod coordinator;
pub mod framing;
pub mod journal;
pub mod lease;
pub mod proto;
pub mod rounds;
pub mod worker;

pub use clock::{Clock, ManualClock, WallClock};
pub use coordinator::{
    Coordinator, CoordinatorOptions, CoordinatorProgress, SubmitSlot, MAX_BATCH, MAX_SHARDS,
};
pub use journal::{Journal, JournalStat, JournalVerifyReport, WalRecord};
pub use lease::{LeasePolicy, LeaseTable};
pub use proto::{
    config_fingerprint, Request, Response, JOB_STATE_CANCELLED, JOB_STATE_FINISHED,
    JOB_STATE_RUNNING,
};
pub use rounds::{
    accumulate, init_for_round, merge_settled, run_round_shard, run_round_shard_stored,
    run_rounds_local,
};
pub use worker::{run_fleet_worker, WorkerOptions, WorkerReport};
