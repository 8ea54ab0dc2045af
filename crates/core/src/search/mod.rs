//! The search loops: the NAS baseline of \[16\] and FNAS with early pruning.
//!
//! Both loops share the controller, the dataset and the accuracy oracle;
//! they differ exactly where the paper says they do:
//!
//! * **NAS** trains *every* sampled child and rewards `A − b`;
//! * **FNAS** first runs the FNAS tool to get the child's latency `L`; if
//!   `L > rL` the child is **not trained** and receives the negative reward
//!   of Eq. (1), otherwise it is trained and rewarded `(A − b) + L/rL`.
//!
//! The search cost (Table 1's "search time") accumulates per the
//! [`crate::cost::CostModel`]: full training cost for trained children, one
//! analyzer call for pruned ones.
//!
//! # Module layout
//!
//! * [`config`] — run configuration: [`SearchConfig`], [`SearchMode`],
//!   [`BatchOptions`], [`CheckpointOptions`], [`CheckpointPolicy`];
//! * [`oracle`] — [`ChildOracle`], the unified per-child evaluation
//!   interface (staged latency + memoised accuracy + fault stats) the
//!   engine consumes;
//! * [`episode`] — [`EpisodeRunner`]: one episode as a pure function of a
//!   frozen [`ParamsSnapshot`], returning the sampled trials, the
//!   per-episode policy gradient and a telemetry delta as data;
//! * [`engine`] — [`Searcher`]: the search loop, which applies episode
//!   results and handles checkpoint/resume;
//! * [`shard`] — [`ShardRunner`]/[`ShardSpec`]: episode-sharded search
//!   over a shared init snapshot, reduced via
//!   [`crate::checkpoint::SearchCheckpoint::merge`];
//! * [`trial`] — [`TrialRecord`] and the failed/unbuildable reward
//!   taxonomy;
//! * [`outcome`] — [`SearchOutcome`]: best child, Pareto front, summary
//!   tables, telemetry.
//!
//! Everything is re-exported here, so `fnas::search::Searcher` et al. keep
//! working as before the decomposition.

pub mod config;
pub mod engine;
pub mod episode;
pub mod oracle;
pub mod outcome;
pub mod shard;
pub mod trial;

pub use config::{BatchOptions, CheckpointOptions, CheckpointPolicy, SearchConfig, SearchMode};
pub use engine::Searcher;
pub use episode::{EpisodeResult, EpisodeRunner, ParamsSnapshot};
pub use fnas_exec::TelemetrySnapshot;
pub use oracle::ChildOracle;
pub use outcome::SearchOutcome;
pub use shard::{ShardRunner, ShardSpec};
pub use trial::TrialRecord;

#[cfg(test)]
mod tests;
