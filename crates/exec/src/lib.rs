//! **fnas-exec** — the parallel child-evaluation engine behind the FNAS
//! search loop.
//!
//! The paper's framework prunes latency-violating children before training
//! them, which makes child evaluation an embarrassingly parallel batch
//! workload: each sampled architecture is analysed (and possibly trained)
//! independently, and only the REINFORCE update needs the controller's
//! serial state. This crate supplies the three pieces the batch loop in
//! `fnas::search` is built from:
//!
//! * [`executor`] — a `std::thread::scope`-based worker pool
//!   ([`Executor`]) that maps a batch through a closure on N workers and
//!   returns results **in input order**, so downstream consumers are
//!   independent of thread interleaving; its fault-isolating
//!   [`Executor::map_settle`] variant settles per-item panics into
//!   [`TaskFault`]s instead of killing the batch, and
//!   [`Executor::map_memo`] answers memo hits in the calling thread and
//!   sends only the misses to the pool;
//! * [`cache`] — a lock-striped memo cache ([`ShardedCache`]) shared
//!   across workers and across search episodes, with overflow-safe atomic
//!   hit/miss counters and **single-flight** fallible inserts: concurrent
//!   misses on one key elect a leader to run the builder exactly once
//!   while followers wait and share the value;
//! * [`telemetry`] — one table of counters, declared once, generating
//!   the live [`SearchTelemetry`] meters and the plain
//!   [`TelemetrySnapshot`] with its merges, checkpoint projection and
//!   report rows;
//! * [`hash`] — FNV-1a and the SplitMix64 step shared with `fnas-fpga`;
//! * [`seed`] — the deterministic per-child seed derivation
//!   ([`derive_child_seed`]) that makes results bit-identical regardless
//!   of worker count;
//! * [`watchdog`] — logical-tick deadlines ([`Watchdog`]) that settle a
//!   stuck evaluation as a transient timeout [`TaskFault`] without
//!   tying the search's behaviour to the wall clock.
//!
//! The crate is deliberately **std-only**: the build environment has no
//! registry access, so `thread::scope` + `Arc`/`Mutex`/atomics stand in
//! for rayon/crossbeam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod executor;
pub mod hash;
pub mod seed;
pub mod telemetry;
pub mod watchdog;

pub use cache::ShardedCache;
pub use executor::{Executor, TaskFault};
pub use seed::{derive_child_seed, derive_round_seed, derive_shard_seed};
pub use telemetry::{Meter, SearchTelemetry, TelemetrySnapshot};
pub use watchdog::{Deadline, DeadlineExceeded, Watchdog};
