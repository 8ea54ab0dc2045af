//! `fnas-serve` — a multi-tenant NAS-as-a-service scheduler.
//!
//! The ROADMAP north-star is a *service*: many users submitting
//! `(device, rL, budget, seed)` searches concurrently, multiplexed over
//! one elastic worker fleet. This crate is that service shape
//! (DESIGN.md §18), and the only network front end in the workspace:
//! its two bins are `fnas-serve` (many jobs) and `fnas-coord` (whose
//! `serve` subcommand is a [`Server`] with exactly one job).
//!
//! * [`server`] — the long-lived daemon. One
//!   [`fnas_coord::Coordinator`] round-state machine per admitted job
//!   (each with its own crash-safe WAL under `jobs/<digest>/`), behind
//!   a deficit-round-robin scheduler over runnable jobs' pending shard
//!   slices, with a bounded job queue that answers `Retry` on
//!   saturation.
//! * [`progress`] — the per-job progress snapshot (`FNPR1` bytes)
//!   published to the store as an artifact after every settlement, so
//!   `JobStatus` answers from bytes, not live state.
//! * [`client`] — one-connection-per-request helpers for the client
//!   verbs (`SubmitJob`, `JobStatus`, `ListJobs`, `CancelJob`,
//!   `WatchProgress`).
//!
//! Workers are **job-agnostic**: they send `PollAny` and resolve each
//! job from the spec bytes its `Assign` carries
//! ([`fnas_coord::worker::run_fleet_worker`]). The determinism contract
//! extends PR 7's: each job's final merged checkpoint is
//! **byte-identical** to a solo run of the same spec
//! ([`fnas_coord::run_rounds_local`]), no matter how many jobs share the
//! fleet, how their shards interleave, or which workers die mid-round —
//! pinned by `tests/serve_jobs.rs`, `tests/coord_rounds.rs` and the CI
//! `serve` and `coord` jobs.

pub mod client;
pub mod progress;
pub mod server;

pub use client::{cancel_job, job_status, list_jobs, submit_job, watch_progress};
pub use progress::JobProgress;
pub use server::{JobState, ServeOptions, Server};
