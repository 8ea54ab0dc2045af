//! **FNAS** — FPGA-implementation aware neural architecture search.
//!
//! A from-scratch Rust reproduction of *"Accuracy vs. Efficiency: Achieving
//! Both through FPGA-Implementation Aware Neural Architecture Search"*
//! (Weiwen Jiang et al., DAC 2019). The framework searches for a child CNN
//! that maximises accuracy **subject to a required inference latency** on a
//! target FPGA, by scoring every candidate with a fast analytic latency
//! model *before* deciding whether to train it:
//!
//! * [`reward`] — the reward function of Eq. (1);
//! * [`mapping`] — child architecture → FPGA convolution pipeline;
//! * [`latency`] — the staged hardware oracle: per-architecture
//!   `HwArtifacts` (FNAS-Design → FNAS-GG → FNAS-Sched) memoised at stage
//!   granularity with single-flight dedup, serving the analytic
//!   (FNAS-Analyzer) and cycle-accurate latency backends and the
//!   deployment path from one shared record (see DESIGN.md §11);
//! * [`evaluator`] — child accuracy, either by really training the network
//!   (`TrainedEvaluator`) or through a calibrated surrogate
//!   (`SurrogateEvaluator`) for large parameter sweeps (see DESIGN.md §2);
//! * [`search`] — the NAS baseline loop of \[16\] and the FNAS loop with
//!   early latency pruning, decomposed into [`search::config`] (run
//!   specification), [`search::oracle`] (the unified child oracle),
//!   [`search::engine`] (the search loop), [`search::episode`]
//!   (one episode as a pure function of a frozen parameter snapshot),
//!   [`search::shard`] (episode-sharded runs over mergeable checkpoints,
//!   see DESIGN.md §12), [`search::trial`]/[`search::outcome`] (results);
//! * [`resilience`] — fault-tolerant oracle decorators: budgeted retry of
//!   transient faults, NaN quarantine, and a deterministic fault injector
//!   for chaos testing;
//! * [`persist`] — canonical keys and payload codecs layering the
//!   `fnas_store` persistent cache under the oracle as an L2 (DESIGN.md
//!   §14), so warm fleets answer latency/sim queries from disk;
//! * [`checkpoint`] — the versioned on-disk search-state snapshot behind
//!   [`search::Searcher::resume_batched`], since v2 also the hand-off and
//!   merge medium for sharded runs;
//! * [`cost`] — the modelled search-cost accounting that reproduces the
//!   paper's "search time" axis;
//! * [`deploy`] — the final "implement NN → get performance" step of
//!   Fig. 1(b): a full implementation record for a chosen architecture;
//! * [`experiment`] — the per-dataset presets of Table 2;
//! * [`job`] — first-class job identity: the canonical [`job::JobSpec`]
//!   a user submits (preset, device, `rL`, budgets, seed), its pinned
//!   `job_digest`, and the shared CLI layer every operator bin parses
//!   jobs through (DESIGN.md §17);
//! * [`report`] — markdown/CSV emitters for the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use fnas::experiment::ExperimentPreset;
//! use fnas::search::{BatchOptions, SearchConfig, Searcher};
//!
//! # fn main() -> Result<(), fnas::FnasError> {
//! let preset = ExperimentPreset::mnist().with_trials(4).scaled_data(0.001);
//! // A tiny FNAS run with a 5 ms budget on the PYNQ board, using the
//! // accuracy surrogate and updating the controller after every child.
//! let config = SearchConfig::fnas(preset, 5.0);
//! let opts = BatchOptions::sequential().with_batch_size(1);
//! let outcome = Searcher::surrogate(&config)?.run_batched(&config, &opts)?;
//! assert_eq!(outcome.trials().len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cost;
pub mod deploy;
mod error;
pub mod evaluator;
pub mod experiment;
pub mod job;
pub mod latency;
pub mod mapping;
pub mod persist;
pub mod report;
pub mod resilience;
pub mod reward;
pub mod search;

pub use error::FnasError;

/// Convenience result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, FnasError>;
