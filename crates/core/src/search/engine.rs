//! The search engine: the one search loop over the [`ChildOracle`], plus
//! checkpoint/resume plumbing.
//!
//! The loop is a thin driver around [`EpisodeRunner`]: per episode it
//! freezes the controller into a [`ParamsSnapshot`], runs the episode as a
//! pure function, then applies the returned gradient with one optimiser
//! step and folds the returned telemetry/cost/trial deltas into the run.
//! At batch size 1 it updates the controller after every child, the
//! per-child REINFORCE loop of the paper. [`ShardRunner`](super::ShardRunner)
//! drives the same loop from another process.

use fnas_controller::reinforce::{EmaBaseline, ReinforceTrainer};
use fnas_controller::rnn::PolicyRnn;
use fnas_exec::{Executor, SearchTelemetry, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::SearchCheckpoint;
use crate::cost::{CostModel, SearchCost};
use crate::evaluator::{AccuracyEvaluator, SurrogateEvaluator};
use crate::latency::LatencyEvaluator;
use crate::{FnasError, Result};

use super::config::{BatchOptions, CheckpointOptions, CheckpointPolicy, SearchConfig};
use super::episode::{EpisodeRunner, ParamsSnapshot};
use super::oracle::ChildOracle;
use super::outcome::SearchOutcome;

/// The reusable search engine: controller + child oracle + cost
/// accounting.
#[derive(Debug)]
pub struct Searcher {
    trainer: ReinforceTrainer,
    oracle: ChildOracle,
    baseline: EmaBaseline,
    cost_model: CostModel,
    rng: StdRng,
}

impl Searcher {
    /// Builds a searcher that scores accuracy with the calibrated
    /// surrogate — the configuration used by the paper-scale sweeps.
    ///
    /// # Errors
    ///
    /// Propagates controller construction and preset validation errors.
    pub fn surrogate(config: &SearchConfig) -> Result<Self> {
        let evaluator = Box::new(SurrogateEvaluator::new(config.preset().calibration()));
        Searcher::with_evaluator(config, evaluator)
    }

    /// Builds a searcher around any accuracy oracle.
    ///
    /// # Errors
    ///
    /// Propagates controller construction and preset validation errors.
    pub fn with_evaluator(
        config: &SearchConfig,
        evaluator: Box<dyn AccuracyEvaluator>,
    ) -> Result<Self> {
        config.preset().validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed());
        // A mild entropy bonus (default) keeps the 60-trial controller from
        // collapsing into a latency-violating mode before it has seen a
        // single valid child (the paper's cluster-scale runs amortise this
        // over far more reward evaluations).
        let policy = PolicyRnn::new(config.preset().space(), &mut rng)?
            .with_entropy_weight(config.entropy_weight());
        let trainer = ReinforceTrainer::with_policy(policy, config.controller_lr());
        let latency_eval =
            LatencyEvaluator::on_cluster(config.platform(), config.preset().dataset().shape());
        Ok(Searcher {
            trainer,
            oracle: ChildOracle::new(latency_eval, evaluator),
            baseline: EmaBaseline::new(0.8),
            cost_model: CostModel::new(
                config.preset().epochs(),
                config.preset().dataset().train_size(),
            ),
            rng,
        })
    }

    /// The unified child oracle (latency, accuracy, fault stats) —
    /// exposed so callers can deploy the winner through the same
    /// staged artifacts the search already paid for.
    pub fn oracle(&self) -> &ChildOracle {
        &self.oracle
    }

    /// Attaches a persistent oracle store (DESIGN.md §14) as the L2 under
    /// the latency evaluator's in-memory caches. Purely an efficiency
    /// lever: results are bit-identical with or without a store, only the
    /// design/analyzer/simulator call counts change. Typically one
    /// [`fnas_store::DiskStore`] handle is shared by every searcher in a
    /// worker process.
    pub fn attach_store(&mut self, store: std::sync::Arc<dyn fnas_store::Store>) {
        self.oracle.attach_store(store);
    }

    /// Runs the configured search episode-by-episode, evaluating each
    /// episode's children on an [`Executor`] pool.
    ///
    /// Each episode is delegated to an [`EpisodeRunner`]: the controller
    /// is frozen into a [`ParamsSnapshot`], the episode runs as a pure
    /// function of that snapshot (sample `batch_size` children, analyze
    /// their FPGA latency in parallel, evaluate the survivors' accuracy in
    /// parallel, compute rewards serially in sample order), and the
    /// returned per-episode gradient is applied with **one** optimiser
    /// step — a standard REINFORCE minibatch. Each child's evaluation RNG
    /// is seeded from `derive_child_seed(config.seed(), episode, child)`,
    /// so the outcome is **bit-identical for any worker count** (see
    /// [`BatchOptions`]).
    ///
    /// The accuracy phase is fault-isolated: a child evaluation that
    /// panics, exhausts its retry budget (see
    /// [`crate::resilience::ResilientEvaluator`]) or fails with any
    /// non-fatal oracle error settles into a *failed*
    /// [`TrialRecord`](super::TrialRecord) with a strongly negative reward;
    /// its siblings — whose RNG streams are independent by construction —
    /// are unaffected and the run continues.
    ///
    /// # Errors
    ///
    /// Propagates controller errors and oracle *misconfigurations*
    /// ([`FnasError::InvalidConfig`]); unbuildable architectures and
    /// faulted evaluations are rewarded negatively, not errors.
    pub fn run_batched(
        &mut self,
        config: &SearchConfig,
        opts: &BatchOptions,
    ) -> Result<SearchOutcome> {
        self.run_batched_inner(config, opts, None, None)
    }

    /// [`Searcher::run_batched`], plus a checkpoint written to
    /// `ckpt.path()` every `ckpt.every_episodes()` episodes (atomically —
    /// a crash mid-write keeps the previous snapshot). Checkpointing does
    /// not change results: the snapshot captures only logical state. With
    /// a retention [`CheckpointPolicy`] beyond the default, each cadence
    /// point additionally writes an episode-stamped history file next to
    /// the live one and prunes history past the retention window.
    ///
    /// # Errors
    ///
    /// [`Searcher::run_batched`]'s, plus [`FnasError::Io`] when a
    /// checkpoint cannot be written.
    pub fn run_batched_checkpointed(
        &mut self,
        config: &SearchConfig,
        opts: &BatchOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<SearchOutcome> {
        self.run_batched_inner(config, opts, None, Some(ckpt))
    }

    /// Resumes a search from the checkpoint at `ckpt.path()` and runs it
    /// to completion, continuing to checkpoint on the same cadence.
    ///
    /// The outcome is **bit-identical** to the uninterrupted run: the
    /// checkpoint restores the controller (weights + optimiser moments),
    /// the EMA baseline, the run RNG state, the trial history, the
    /// accumulated cost and the logical telemetry counters, and per-child
    /// RNG streams were never process state to begin with. Memo caches are
    /// deliberately *not* restored — by the engine's cache-transparency
    /// invariant they only affect wall-clock time (cache counters and
    /// phase times are the one legitimate difference).
    ///
    /// # Errors
    ///
    /// [`FnasError::Io`] when the checkpoint cannot be read,
    /// [`FnasError::InvalidConfig`] when it is corrupt or was written by a
    /// run with a different seed, plus [`Searcher::run_batched`]'s errors.
    pub fn resume_batched(
        &mut self,
        config: &SearchConfig,
        opts: &BatchOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<SearchOutcome> {
        let state = SearchCheckpoint::load(ckpt.path())?;
        self.run_batched_inner(config, opts, Some(state), Some(ckpt))
    }

    pub(super) fn run_batched_inner(
        &mut self,
        config: &SearchConfig,
        opts: &BatchOptions,
        resume: Option<SearchCheckpoint>,
        ckpt: Option<&CheckpointOptions>,
    ) -> Result<SearchOutcome> {
        let preset = config.preset();
        let mode = config.mode();
        let telemetry = SearchTelemetry::new();
        let executor = Executor::with_workers(opts.workers());
        let batch_size = opts.batch_size().max(1);

        // Disjoint field borrows: the episode runner holds the oracle and
        // cost model for the whole loop while the driver keeps mutating
        // the trainer, baseline and RNG it left behind.
        let Searcher {
            trainer,
            oracle,
            baseline,
            cost_model,
            rng,
        } = self;
        // The oracle's counters outlive this run, so the run is charged
        // the difference from this reading.
        let base = oracle.meters();

        let total = preset.trials();
        let mut trials;
        let mut cost;
        let mut episode: u64;
        match resume {
            Some(state) => {
                if state.run_seed != config.seed() {
                    return Err(FnasError::InvalidConfig {
                        what: format!(
                            "checkpoint belongs to a run with seed {:#x}, config says {:#x}",
                            state.run_seed,
                            config.seed()
                        ),
                    });
                }
                trainer.import_state(&state.trainer)?;
                *baseline = EmaBaseline::restore(config.baseline_decay, state.baseline);
                *rng = StdRng::from_state(state.rng_state);
                telemetry.restore_counters(&state.telemetry);
                trials = state.trials;
                cost = state.cost;
                episode = state.next_episode;
            }
            None => {
                *baseline = EmaBaseline::new(config.baseline_decay);
                trials = Vec::new();
                cost = SearchCost::default();
                episode = 0;
            }
        }
        let mut runner = EpisodeRunner::new(config, oracle, cost_model, &executor)?;
        while trials.len() < total {
            let n = batch_size.min(total - trials.len());
            let snapshot = ParamsSnapshot {
                trainer: trainer.export_state(),
                baseline: baseline.raw_value(),
                episode,
            };
            let result = runner.run_episode(&snapshot, rng, n, trials.len())?;
            telemetry.merge_snapshot(&result.telemetry);
            cost.add(result.cost);
            trials.extend(result.trials);
            *baseline = EmaBaseline::restore(config.baseline_decay, result.baseline);
            trainer.accumulate_episode(&result.grads)?;
            trainer.apply_step()?;
            if result.satisfied {
                break;
            }
            episode += 1;
            if let Some(c) = ckpt {
                if episode.is_multiple_of(c.every_episodes()) {
                    telemetry.checkpoints_written.add(1);
                    let (shard_index, shard_count) = c.shard();
                    let snap = SearchCheckpoint {
                        shard_index,
                        shard_count,
                        parent_seed: c.parent_seed().unwrap_or_else(|| config.seed()),
                        round: c.round(),
                        job: config.job().clone(),
                        run_seed: config.seed(),
                        next_episode: episode,
                        rng_state: rng.state(),
                        baseline: baseline.raw_value(),
                        cost,
                        trainer: trainer.export_state(),
                        telemetry: telemetry
                            .snapshot()
                            .merge(&oracle.meters().since(&base))
                            .logical(),
                        trials: trials.clone(),
                    };
                    snap.save(c.path())?;
                    if c.policy() != CheckpointPolicy::LiveOnly {
                        snap.save(&c.rotated_path(episode))?;
                        c.prune_rotated();
                    }
                }
            }
        }

        telemetry.merge_snapshot(&oracle.meters().since(&base));
        Ok(SearchOutcome {
            mode,
            trials,
            cost,
            telemetry: telemetry.snapshot(),
        })
    }

    /// Freezes this searcher's *initial* state — the controller as seeded
    /// by `config`, no observations, RNG positioned after policy init —
    /// into an episode-0 checkpoint. [`super::ShardRunner`] distributes
    /// this snapshot so every shard warm-starts from identical parameters,
    /// and a 1-shard run resumed from it is bit-identical to
    /// [`Searcher::run_batched_checkpointed`].
    pub(super) fn init_checkpoint(&mut self, config: &SearchConfig) -> SearchCheckpoint {
        SearchCheckpoint {
            shard_index: 0,
            shard_count: 1,
            parent_seed: config.seed(),
            round: 0,
            job: config.job().clone(),
            run_seed: config.seed(),
            next_episode: 0,
            rng_state: self.rng.state(),
            baseline: self.baseline.raw_value(),
            cost: SearchCost::default(),
            trainer: self.trainer.export_state(),
            telemetry: TelemetrySnapshot::default(),
            trials: Vec::new(),
        }
    }

    /// Freezes this searcher's state *after* a completed
    /// [`Searcher::run_batched_inner`] into a checkpoint carrying the
    /// outcome's trials/cost and `ckpt`'s shard stamp — the hand-off
    /// artifact a finished shard leaves behind for
    /// [`crate::checkpoint::SearchCheckpoint::merge`].
    pub(super) fn freeze_state(
        &mut self,
        ckpt: &CheckpointOptions,
        config: &SearchConfig,
        outcome: &SearchOutcome,
    ) -> SearchCheckpoint {
        let run_seed = config.seed();
        let (shard_index, shard_count) = ckpt.shard();
        SearchCheckpoint {
            shard_index,
            shard_count,
            parent_seed: ckpt.parent_seed().unwrap_or(run_seed),
            round: ckpt.round(),
            job: config.job().clone(),
            run_seed,
            next_episode: outcome.telemetry.episodes,
            rng_state: self.rng.state(),
            baseline: self.baseline.raw_value(),
            cost: outcome.cost,
            trainer: self.trainer.export_state(),
            telemetry: outcome.telemetry.logical(),
            trials: outcome.trials.clone(),
        }
    }
}
