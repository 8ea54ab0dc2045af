//! The episode lifecycle as a pure unit of work.
//!
//! One **episode** — sample a batch of children, analyze their FPGA
//! latency, evaluate the survivors' accuracy, compute rewards — is the
//! granularity at which a REINFORCE search parallelises: episodes touch
//! the controller only through a frozen parameter snapshot and hand back
//! a gradient, so they can run in any process that holds the snapshot and
//! a [`ChildOracle`].
//!
//! [`EpisodeRunner::run_episode`] is a pure function of
//!
//! * a [`ParamsSnapshot`] (controller parameters + EMA baseline + episode
//!   index, frozen at the episode boundary),
//! * the run RNG stream (advanced only by controller sampling), and
//! * the oracle (deterministic by the engine's cache-transparency
//!   invariant).
//!
//! It never mutates a trainer: the controller update is returned as data —
//! the per-episode policy gradient in factored `(sample, advantage)` form,
//! exact because the parameters do not move mid-episode — and applied by
//! whoever owns the authoritative trainer
//! ([`crate::search::Searcher::run_batched`] in-process,
//! [`crate::search::ShardRunner`] per shard). Telemetry is likewise
//! returned as a delta snapshot and folded into the run's counters with
//! [`fnas_exec::SearchTelemetry::merge_snapshot`].

use fnas_controller::arch::ChildArch;
use fnas_controller::reinforce::{ArchSample, EmaBaseline, ReinforceTrainer, TrainerState};
use fnas_controller::rnn::PolicyRnn;
use fnas_exec::{derive_child_seed, Deadline, Executor, SearchTelemetry, TelemetrySnapshot};
use fnas_fpga::Millis;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cost::{CostModel, SearchCost};
use crate::experiment::ExperimentPreset;
use crate::reward::{valid_reward, violation_reward};
use crate::{FnasError, Result};

use super::config::{SearchConfig, SearchMode};
use super::oracle::ChildOracle;
use super::trial::{failed_or_unbuildable, TrialRecord, UNBUILDABLE_REWARD};

/// The frozen controller state an episode runs against.
///
/// Capturing the trainer as a [`TrainerState`] (not a live borrow) is what
/// makes the episode shippable: the same snapshot drives the in-process
/// loop, a resumed run, and every shard of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamsSnapshot {
    /// Controller parameters, optimiser moments and update count at the
    /// episode boundary.
    pub trainer: TrainerState,
    /// The EMA baseline's raw state entering the episode.
    pub baseline: Option<f32>,
    /// The episode index (pins the per-child RNG streams).
    pub episode: u64,
}

/// Everything one episode produced, as plain data.
///
/// Applying the result to a trainer —
/// [`ReinforceTrainer::accumulate_episode`] over `grads` followed by one
/// [`ReinforceTrainer::apply_step`] — advances the search exactly as if
/// the episode had run inline.
#[derive(Debug)]
pub struct EpisodeResult {
    /// The episode index this result belongs to.
    pub episode: u64,
    /// Trial records in sample order, indices continuing `start_index`.
    pub trials: Vec<TrialRecord>,
    /// The per-episode policy gradient in factored form: `(sample,
    /// advantage)` terms in sample order. Exact — the snapshot's
    /// parameters were frozen for the whole episode, so the dense gradient
    /// is recovered bit-identically by accumulating these terms against
    /// those parameters.
    pub grads: Vec<(ArchSample, f32)>,
    /// The EMA baseline's raw state leaving the episode.
    pub baseline: Option<f32>,
    /// Modelled cost charged by this episode.
    pub cost: SearchCost,
    /// Telemetry delta (counters and phase wall times) for this episode.
    pub telemetry: TelemetrySnapshot,
    /// Whether a child satisfied the `rA` early-stop criterion (trials
    /// after it were discarded).
    pub satisfied: bool,
}

/// Runs episodes against frozen parameter snapshots.
///
/// The runner owns a *replica* trainer used exclusively for sampling (the
/// only controller operation an episode needs); every
/// [`EpisodeRunner::run_episode`] call overwrites the replica's parameters
/// from the snapshot, so the replica never carries state of its own —
/// mutability is an implementation detail of parameter import, not a
/// hidden update channel.
#[derive(Debug)]
pub struct EpisodeRunner<'a> {
    config: &'a SearchConfig,
    oracle: &'a ChildOracle,
    cost_model: &'a CostModel,
    executor: &'a Executor,
    sampler: ReinforceTrainer,
}

impl<'a> EpisodeRunner<'a> {
    /// Builds a runner for `config`'s search over the given oracle.
    ///
    /// # Errors
    ///
    /// Propagates controller construction errors (the sampling replica has
    /// the same shape as the run's controller).
    pub fn new(
        config: &'a SearchConfig,
        oracle: &'a ChildOracle,
        cost_model: &'a CostModel,
        executor: &'a Executor,
    ) -> Result<Self> {
        // The replica's initialisation draws are irrelevant: every
        // run_episode imports the snapshot's parameters over them.
        let mut init_rng = StdRng::seed_from_u64(0);
        let policy = PolicyRnn::new(config.preset().space(), &mut init_rng)?
            .with_entropy_weight(config.entropy_weight());
        Ok(EpisodeRunner {
            config,
            oracle,
            cost_model,
            executor,
            sampler: ReinforceTrainer::with_policy(policy, config.controller_lr()),
        })
    }

    /// Runs one episode of `n` children as a pure function of the
    /// snapshot, the RNG stream and the oracle.
    ///
    /// `rng` is the run RNG at the episode boundary; controller sampling
    /// is its only consumer. Per-child evaluation streams are derived from
    /// [`derive_child_seed`]`(config.seed(), snapshot.episode, child)` and
    /// were never caller state, so results are bit-identical for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates controller errors and oracle misconfigurations;
    /// unbuildable architectures and faulted evaluations become negative-
    /// reward trials, not errors.
    pub fn run_episode(
        &mut self,
        snapshot: &ParamsSnapshot,
        rng: &mut StdRng,
        n: usize,
        start_index: usize,
    ) -> Result<EpisodeResult> {
        self.sampler.import_state(&snapshot.trainer)?;
        let mut baseline = EmaBaseline::restore(self.config.baseline_decay, snapshot.baseline);
        let telemetry = SearchTelemetry::new();
        let preset = self.config.preset();
        let mode = self.config.mode();

        let samples = {
            let _t = telemetry.sample_time.timer();
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(self.sampler.sample(rng)?);
            }
            batch
        };
        telemetry.children_sampled.add(n as u64);
        let archs: Vec<ChildArch> = samples.iter().map(|s| s.arch().clone()).collect();

        // Memo-first dispatch: children the oracle has already answered
        // are read in this thread, and only the misses go to the pool, so a
        // warm episode spawns no worker threads. Cache counters are the
        // same either way: a memo hit counts one hit, a dispatched child
        // whatever its lookup counts.
        let oracle = self.oracle;
        let latencies: Vec<Result<Millis>> = {
            let _t = telemetry.latency_time.timer();
            self.executor.map_memo(
                &archs,
                |_, arch| oracle.latency_eval().memo_latency(arch).map(Ok),
                |_, arch| oracle.child_latency(arch),
            )
        };

        // Which children go to the accuracy oracle. FNAS: buildable and
        // within spec (or the no-pruning ablation). NAS: everything.
        let needs_accuracy: Vec<bool> = match mode {
            SearchMode::Fnas { required } => latencies
                .iter()
                .map(|r| match r {
                    Err(_) => false,
                    Ok(l) => l.get() <= required.get() || !self.config.pruning(),
                })
                .collect(),
            SearchMode::Nas => vec![true; archs.len()],
        };
        telemetry
            .train_calls
            .add(needs_accuracy.iter().filter(|&&b| b).count() as u64);

        let run_seed = self.config.seed();
        let episode = snapshot.episode;
        // `map_settle_memo`: a panicking child evaluation settles into a
        // per-slot fault instead of unwinding through the pool and
        // killing the whole search.
        // Optional watchdog: each child gets its *own* fresh deadline of
        // purely logical ticks, created inside the closure — per-child
        // budgets are independent of scheduling order, preserving the
        // bit-identical-across-worker-counts invariant.
        let deadline_ticks = self.config.child_deadline_ticks();
        let accuracies = {
            let _t = telemetry.accuracy_time.timer();
            self.executor.map_settle_memo(
                &archs,
                |child, arch| {
                    if needs_accuracy[child] {
                        oracle.memo_accuracy(arch).map(|a| Some(Ok(a)))
                    } else {
                        Some(None)
                    }
                },
                |child, arch| {
                    let seed = derive_child_seed(run_seed, episode, child as u64);
                    let deadline = deadline_ticks.map(Deadline::new);
                    Some(oracle.accuracy_seeded_deadline(arch, seed, deadline.as_ref()))
                },
            )
        };

        // Serial epilogue, in sample order: rewards see the baseline as
        // of the previous child. The trainer is untouched — the would-be
        // updates are returned as the factored gradient.
        let _t = telemetry.update_time.timer();
        let mut trials = Vec::with_capacity(n);
        let mut grads = Vec::with_capacity(n);
        let mut cost = SearchCost::default();
        let mut satisfied = false;
        for ((sample, latency), settled) in samples.into_iter().zip(latencies).zip(accuracies) {
            let index = start_index + trials.len();
            let arch = sample.arch().clone();
            let accuracy: Option<Result<f32>> = match settled {
                Ok(acc) => acc,
                Err(fault) => {
                    telemetry.panics_caught.add(1);
                    Some(Err(FnasError::Oracle {
                        what: fault.to_string(),
                        transient: fault.is_timeout(),
                    }))
                }
            };
            let record = match mode {
                SearchMode::Fnas { required } => {
                    cost.add(self.cost_model.analyzer_cost());
                    match latency {
                        Err(_) => {
                            telemetry.children_unbuildable.add(1);
                            TrialRecord {
                                index,
                                arch,
                                latency: None,
                                accuracy: None,
                                reward: UNBUILDABLE_REWARD,
                                trained: false,
                            }
                        }
                        Ok(l) if l.get() > required.get() => {
                            let reward = violation_reward(l, required);
                            if self.config.pruning() {
                                telemetry.children_pruned.add(1);
                                TrialRecord {
                                    index,
                                    arch,
                                    latency: Some(l),
                                    accuracy: None,
                                    reward,
                                    trained: false,
                                }
                            } else {
                                match accuracy.expect("ablation evaluates violators") {
                                    Ok(accuracy) => {
                                        cost.add(self.training_cost(&arch, preset)?);
                                        telemetry.children_trained.add(1);
                                        TrialRecord {
                                            index,
                                            arch,
                                            latency: Some(l),
                                            accuracy: Some(accuracy),
                                            reward,
                                            trained: true,
                                        }
                                    }
                                    Err(e) => {
                                        failed_or_unbuildable(e, index, arch, Some(l), &telemetry)?
                                    }
                                }
                            }
                        }
                        Ok(l) => match accuracy.expect("valid child was evaluated") {
                            Ok(accuracy) => {
                                let reward = valid_reward(accuracy, baseline.value(), l, required);
                                baseline.observe(accuracy);
                                cost.add(self.training_cost(&arch, preset)?);
                                telemetry.children_trained.add(1);
                                TrialRecord {
                                    index,
                                    arch,
                                    latency: Some(l),
                                    accuracy: Some(accuracy),
                                    reward,
                                    trained: true,
                                }
                            }
                            Err(e) => failed_or_unbuildable(e, index, arch, Some(l), &telemetry)?,
                        },
                    }
                }
                SearchMode::Nas => match accuracy.expect("every NAS child is evaluated") {
                    Err(e) => failed_or_unbuildable(e, index, arch, None, &telemetry)?,
                    Ok(accuracy) => {
                        let reward = accuracy - baseline.value();
                        baseline.observe(accuracy);
                        cost.add(self.training_cost(&arch, preset)?);
                        telemetry.children_trained.add(1);
                        TrialRecord {
                            index,
                            arch,
                            // Post-hoc latency for reporting only: plain
                            // NAS never consults the FPGA model, so no
                            // analyzer cost is charged.
                            latency: latency.ok(),
                            accuracy: Some(accuracy),
                            reward,
                            trained: true,
                        }
                    }
                },
            };
            grads.push((sample, record.reward));
            let done = self
                .config
                .required_accuracy()
                .is_some_and(|ra| record.accuracy.is_some_and(|a| a >= ra));
            trials.push(record);
            if done {
                satisfied = true;
                break;
            }
        }
        drop(_t);
        telemetry.episodes.add(1);

        Ok(EpisodeResult {
            episode,
            trials,
            grads,
            baseline: baseline.raw_value(),
            cost,
            telemetry: telemetry.snapshot(),
            satisfied,
        })
    }

    fn training_cost(&self, arch: &ChildArch, preset: &ExperimentPreset) -> Result<SearchCost> {
        let network = crate::mapping::arch_to_network(arch, preset.dataset().shape())?;
        Ok(self.cost_model.training_cost(&network))
    }
}
