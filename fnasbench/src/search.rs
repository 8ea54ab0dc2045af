//! The three in-process search workloads.
//!
//! * `search-cold` — the paper's headline setting: FNAS on the ImageNet
//!   preset at TS3, a fresh on-disk store every repetition, ending with
//!   the deployment of the best child (Fig. 1(b)). FPGA design dominates
//!   and no cache ever hits.
//! * `search-warm` — one MNIST job re-run against a store that set-up
//!   filled: design never runs and the store only serves reads, so the
//!   controller and store reads are what is left.
//!
//!   Both surrogate workloads fix the controller seed and let `--seed`
//!   salt the surrogate's accuracy noise (re-training the same children
//!   with other random seeds). A different controller seed steers the
//!   search elsewhere, and with it how many designs and store reads a
//!   repetition costs; a different salt only nudges the rewards, so every
//!   seed measures about the same work.
//! * `search-trained` — real child training on a CPU-sized MNIST set with
//!   a budget that prunes some children but not all: `fnas-nn` and
//!   `fnas-tensor` dominate, the paper's true per-child cost. Its job is
//!   fixed and the seed generates the training data, so every seed trains
//!   the same children.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fnas::evaluator::{AccuracyEvaluator, SurrogateEvaluator, TrainedEvaluator};
use fnas::experiment::ExperimentPreset;
use fnas::mapping::arch_to_network;
use fnas::search::{BatchOptions, SearchConfig, SearchOutcome, Searcher};
use fnas_controller::arch::ChildArch;
use fnas_controller::reinforce::ReinforceTrainer;
use fnas_controller::rnn::PolicyRnn;
use fnas_controller::space::SearchSpace;
use fnas_data::SynthConfig;
use fnas_fpga::design::PipelineDesign;
use fnas_store::{digest128, DiskStore, Store};
use fnas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probes::{SharedEvaluator, StoreTimings, TimedStore, Timings};
use crate::util::{cpu_s, median, ratio};
use crate::{trace, Rep, Workload};

/// Search workers per run: one per vCPU of the 2-vCPU reference machine.
const WORKERS: usize = 2;
/// Children per controller episode.
const BATCH: usize = 8;
/// Trials of the `search-cold` job: about a second of work, so a run's
/// median rests on a dozen or more repetitions.
const COLD_TRIALS: usize = 256;
/// Trials of the `search-warm` job.
const WARM_TRIALS: usize = 4000;
/// Controller seed of `search-cold` and `search-warm`; `--seed` salts the
/// surrogate's noise instead.
const SURROGATE_JOB_SEED: u64 = 11;
/// Trials of the `search-trained` job (one episode).
const TRAINED_TRIALS: usize = 8;
/// Training epochs per `search-trained` child.
const TRAINED_EPOCHS: usize = 2;
/// Controller seed of `search-trained`. The job is fixed and `--seed`
/// generates its training data: which children the analyzer prunes, and so
/// how much training a repetition does, must not change from seed to seed.
const TRAINED_JOB_SEED: u64 = 7;
/// `rL` of `search-trained`: this job's first episode has four children
/// under it (trained) and four over it (pruned).
const TRAINED_BUDGET_MS: f64 = 0.145;
/// Distinct networks the single-thread design replay rebuilds at most.
const SOLO_DESIGNS: usize = 128;

/// Which of the three search workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
    Trained,
}

/// One search workload.
#[derive(Debug)]
pub struct SearchWorkload(pub Kind);

/// Everything the timed repetitions share.
pub struct Setup {
    config: SearchConfig,
    opts: BatchOptions,
    evaluator: Arc<dyn AccuracyEvaluator>,
    /// The store set-up filled (`search-warm` only).
    warm_store: Option<PathBuf>,
    /// Where fresh per-repetition stores go (`search-cold` only).
    fresh_stores: Option<PathBuf>,
    /// Digest of the reference run's reward trace.
    reference: u128,
}

/// What the replays need from the last traced repetition.
pub struct Detail {
    archs: Vec<ChildArch>,
    trained: Vec<ChildArch>,
    design_ms: f64,
}

/// The CPU-sized MNIST problem of `examples/search_mnist.rs`: 14×14
/// images, 5 classes, 200 training examples, a 3-layer space; the data
/// are generated from `seed`.
fn trained_preset(seed: u64) -> crate::Result<(ExperimentPreset, SynthConfig)> {
    let dataset = SynthConfig::mnist_like()
        .with_shape((1, 14, 14))
        .with_classes(5)
        .with_noise(0.2)
        .with_sizes(200, 80)
        .with_seed(seed);
    let space = SearchSpace::new(3, vec![3, 5], vec![8, 16])?;
    let preset = ExperimentPreset::mnist()
        .with_trials(TRAINED_TRIALS)
        .with_epochs(TRAINED_EPOCHS)
        .with_dataset(dataset.clone())
        .with_space(space);
    Ok((preset, dataset))
}

/// An FNAS job over `preset` at its TS3.
fn ts3_job(preset: ExperimentPreset, seed: u64) -> SearchConfig {
    let budget = preset.ts(3).get();
    SearchConfig::fnas(preset, budget).with_seed(seed)
}

/// Digest of a run's reward trace (every trial's reward bits, in order).
fn reward_digest(out: &SearchOutcome) -> u128 {
    let bytes: Vec<u8> = out
        .trials()
        .iter()
        .flat_map(|t| t.reward.to_bits().to_le_bytes())
        .collect();
    digest128(&bytes)
}

/// Runs the job once, untimed, and returns its reward-trace digest: the
/// reference every timed repetition must reproduce.
fn reference_run(
    config: &SearchConfig,
    opts: &BatchOptions,
    evaluator: &Arc<dyn AccuracyEvaluator>,
    store: Option<Arc<dyn Store>>,
) -> crate::Result<u128> {
    let shared = SharedEvaluator::new(Arc::clone(evaluator), None);
    let mut searcher = Searcher::with_evaluator(config, Box::new(shared))?;
    if let Some(store) = store {
        searcher.attach_store(store);
    }
    Ok(reward_digest(&searcher.run_batched(config, opts)?))
}

impl Workload for SearchWorkload {
    type Setup = Setup;
    type Detail = Detail;

    fn setup(&self, seed: u64, dir: &Path) -> crate::Result<Setup> {
        let opts = BatchOptions::sequential()
            .with_workers(WORKERS)
            .with_batch_size(BATCH);
        // Every timed run must reproduce its reference whatever its store;
        // the cheap trained reference also runs in-thread, so it checks the
        // worker count too.
        let sequential = opts.with_workers(0);
        let surrogate = |config: &SearchConfig| -> Arc<dyn AccuracyEvaluator> {
            Arc::new(SurrogateEvaluator::new(config.preset().calibration()).with_seed_salt(seed))
        };
        let (config, evaluator, warm_store, fresh_stores, reference) = match self.0 {
            Kind::Cold => {
                let config = ts3_job(
                    ExperimentPreset::imagenet().with_trials(COLD_TRIALS),
                    SURROGATE_JOB_SEED,
                );
                let evaluator = surrogate(&config);
                let reference = reference_run(&config, &opts, &evaluator, None)?;
                (config, evaluator, None, Some(dir.join("stores")), reference)
            }
            Kind::Warm => {
                let config = ts3_job(
                    ExperimentPreset::mnist().with_trials(WARM_TRIALS),
                    SURROGATE_JOB_SEED,
                );
                let evaluator = surrogate(&config);
                let store_dir = dir.join("warm-store");
                let store: Arc<dyn Store> = Arc::new(DiskStore::open(&store_dir)?);
                let reference = reference_run(&config, &opts, &evaluator, Some(store))?;
                (config, evaluator, Some(store_dir), None, reference)
            }
            Kind::Trained => {
                let (preset, dataset) = trained_preset(seed)?;
                let config =
                    SearchConfig::fnas(preset, TRAINED_BUDGET_MS).with_seed(TRAINED_JOB_SEED);
                let evaluator: Arc<dyn AccuracyEvaluator> =
                    Arc::new(TrainedEvaluator::new(&dataset, TRAINED_EPOCHS, 20)?.with_lr(0.2));
                let reference = reference_run(&config, &sequential, &evaluator, None)?;
                (config, evaluator, None, None, reference)
            }
        };
        Ok(Setup {
            config,
            opts,
            evaluator,
            warm_store,
            fresh_stores,
            reference,
        })
    }

    fn reference(&self, setup: &Setup) -> u128 {
        setup.reference
    }

    fn rep(&self, setup: &Setup, traced: bool, index: usize) -> crate::Result<(Rep, Detail)> {
        let config = &setup.config;
        let fresh_dir = setup
            .fresh_stores
            .as_ref()
            .map(|d| d.join(format!("rep-{index}")));
        let store_dir = fresh_dir.as_ref().or(setup.warm_store.as_ref());
        let eval_timings = traced.then(|| Arc::new(Timings::default()));
        let store_timings = traced.then(|| Arc::new(StoreTimings::default()));

        let cpu0 = cpu_s();
        let t0 = Instant::now();
        let root = trace::root_span("rep");
        let shared = SharedEvaluator::new(Arc::clone(&setup.evaluator), eval_timings.clone());
        let mut searcher = Searcher::with_evaluator(config, Box::new(shared))?;
        if let Some(dir) = store_dir {
            let _s = trace::span("store.open");
            let disk: Arc<dyn Store> = Arc::new(DiskStore::open(dir)?);
            searcher.attach_store(match &store_timings {
                Some(t) => Arc::new(TimedStore::new(disk, Arc::clone(t))),
                None => disk,
            });
        }
        let t_run = Instant::now();
        let out = {
            let _s = trace::span("engine.run_batched");
            searcher.run_batched(config, &setup.opts)?
        };
        let run_s = t_run.elapsed().as_secs_f64();
        let latency = searcher.oracle().latency_eval();
        let mut errors = Vec::new();
        let mut sim_ms = 0.0;
        if self.0 == Kind::Cold {
            // Fig. 1(b): the search ends by deploying its best child.
            match out.best() {
                None => errors.push("no child met the latency budget".to_string()),
                Some(best) => {
                    let _s = trace::span("fpga.deploy");
                    let t = Instant::now();
                    let report = latency.deploy(&best.arch)?;
                    sim_ms = t.elapsed().as_secs_f64() * 1e3;
                    let want = best.latency.map(|l| l.get().to_bits());
                    if Some(report.analytic_latency().get().to_bits()) != want {
                        errors.push("deployed latency differs from the searched one".to_string());
                    }
                    let simulated = report.simulated_latency().get();
                    if !simulated.is_finite() || simulated <= 0.0 {
                        errors.push("deployed design simulated to no latency".to_string());
                    }
                }
            }
        }
        drop(root);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_s() - cpu0;

        let t = *out.telemetry();
        let builds = latency.design_builds();
        if self.0 == Kind::Warm && builds != 0 {
            errors.push(format!(
                "warm run built {builds} designs; the store should serve all"
            ));
        }
        let trials = out.trials().len() as u64;
        if trials != config.preset().trials() as u64 {
            errors.push(format!(
                "ran {trials} of {} trials",
                config.preset().trials()
            ));
        }
        let phases = t.sample_time + t.latency_time + t.accuracy_time + t.update_time;
        let design_ms = ratio(t.pass_design_ns as f64 / 1e6, builds as f64);
        let mut layers = vec![
            (
                "controller.sample_us",
                ratio(t.sample_time.as_secs_f64() * 1e6, t.children_sampled as f64),
            ),
            ("controller.unphased_s", run_s - phases.as_secs_f64()),
            ("fpga.design_builds", builds as f64),
            ("fpga.analyzer_calls", latency.analyzer_calls() as f64),
            ("fpga.design_ms", design_ms),
            ("fpga.sim_ms", sim_ms),
            ("exec.latency_phase_s", t.latency_time.as_secs_f64()),
            ("exec.accuracy_phase_s", t.accuracy_time.as_secs_f64()),
            (
                "exec.latency_hit_ratio",
                ratio(
                    t.latency_cache_hits as f64,
                    (t.latency_cache_hits + t.latency_cache_misses) as f64,
                ),
            ),
            (
                "exec.accuracy_hit_ratio",
                ratio(
                    t.accuracy_cache_hits as f64,
                    (t.accuracy_cache_hits + t.accuracy_cache_misses) as f64,
                ),
            ),
            ("exec.children_pruned", t.children_pruned as f64),
            ("exec.children_trained", t.children_trained as f64),
            ("store.hits", t.store_hits as f64),
            ("store.misses", t.store_misses as f64),
            ("store.writes", t.store_writes as f64),
            ("nn.train_calls", t.train_calls as f64),
        ];
        if let Some(s) = &store_timings {
            layers.push(("store.put_ms", median(&s.puts.millis())));
            layers.push(("store.get_us", median(&s.gets.millis()) * 1e3));
            layers.push(("store.bytes", s.bytes_put() as f64));
        }
        if let Some(e) = &eval_timings {
            let ms = e.millis();
            layers.push((
                "nn.train_ms_per_child",
                ratio(ms.iter().sum(), ms.len() as f64),
            ));
        }

        let failed = t.children_failed + t.panics_caught;
        let rep = Rep {
            wall_s,
            cpu_s,
            trials,
            attempted: trials,
            failed,
            digest: reward_digest(&out),
            counters: vec![
                ("trials", trials),
                ("design_builds", builds),
                ("analyzer_calls", latency.analyzer_calls()),
                ("store_hits", t.store_hits),
                ("store_misses", t.store_misses),
                ("store_writes", t.store_writes),
                ("train_calls", t.train_calls),
                ("children_pruned", t.children_pruned),
                ("children_trained", t.children_trained),
                ("children_failed", failed),
            ],
            layers,
            errors,
        };
        let (mut archs, mut trained) = (Vec::new(), Vec::new());
        let mut seen = HashSet::new();
        for trial in out.trials() {
            if seen.insert(&trial.arch) {
                archs.push(trial.arch.clone());
                if trial.trained {
                    trained.push(trial.arch.clone());
                }
            }
        }
        drop(searcher);
        if let Some(dir) = fresh_dir {
            std::fs::remove_dir_all(dir)?;
        }
        Ok((
            rep,
            Detail {
                archs,
                trained,
                design_ms,
            },
        ))
    }

    fn replay(&self, setup: &Setup, detail: &Detail) -> crate::Result<Vec<(&'static str, f64)>> {
        let config = &setup.config;
        let mut out = vec![("controller.step_us", controller_step_us(config)?)];
        if detail.design_ms > 0.0 {
            let solo = design_solo_ms(config, &detail.archs);
            out.push(("fpga.design_solo_ms", solo));
            out.push(("fpga.design_contention", ratio(detail.design_ms, solo)));
        }
        if self.0 == Kind::Trained {
            out.push(("nn.matmul_gflops", matmul_gflops(config, &detail.trained)?));
        }
        Ok(out)
    }
}

/// Single-thread FNAS-Design over the run's distinct networks: mean
/// milliseconds per design.
fn design_solo_ms(config: &SearchConfig, archs: &[ChildArch]) -> f64 {
    let _s = trace::span("replay.fpga.design");
    let cluster = config.platform();
    let input = config.preset().dataset().shape();
    let mut times = Vec::new();
    for arch in archs.iter().take(SOLO_DESIGNS) {
        let Ok(network) = arch_to_network(arch, input) else {
            continue;
        };
        let t = Instant::now();
        let design = PipelineDesign::generate_on_cluster(&network, &cluster);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if std::hint::black_box(design).is_ok() {
            times.push(ms);
        }
    }
    ratio(times.iter().sum(), times.len() as f64)
}

/// One batch-8 controller update as the engine performs it per episode —
/// export the trainer, import it into the sampling replica, accumulate the
/// episode's gradient, take the optimiser step — in microseconds (median).
fn controller_step_us(config: &SearchConfig) -> crate::Result<f64> {
    const EPISODES: usize = 64;
    let _s = trace::span("replay.controller.step");
    let space = config.preset().space();
    let mut rng = StdRng::seed_from_u64(config.seed());
    let policy = |rng: &mut StdRng| -> crate::Result<PolicyRnn> {
        Ok(PolicyRnn::new(space, rng)?.with_entropy_weight(config.entropy_weight()))
    };
    let mut trainer = ReinforceTrainer::with_policy(policy(&mut rng)?, config.controller_lr());
    let mut replica = ReinforceTrainer::with_policy(policy(&mut rng)?, config.controller_lr());
    let mut times = Vec::with_capacity(EPISODES);
    for episode in 0..EPISODES {
        let mut grads = Vec::with_capacity(BATCH);
        for child in 0..BATCH {
            let advantage = ((episode * BATCH + child) % 7) as f32 * 0.05 - 0.15;
            grads.push((trainer.sample(&mut rng)?, advantage));
        }
        let t = Instant::now();
        let state = trainer.export_state();
        replica.import_state(&state)?;
        trainer.accumulate_episode(&grads)?;
        trainer.apply_step()?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times))
}

/// `Tensor::matmul` at the im2col shapes of the trained children's
/// convolutions (`[M, C·K²] × [C·K², H·W]`), in GFLOP/s.
fn matmul_gflops(config: &SearchConfig, trained: &[ChildArch]) -> crate::Result<f64> {
    const MIN_NANOS_PER_SHAPE: u128 = 20_000_000;
    let _s = trace::span("replay.nn.matmul");
    let input = config.preset().dataset().shape();
    let (mut flops, mut secs) = (0.0f64, 0.0f64);
    for arch in trained.iter().take(8) {
        for layer in arch_to_network(arch, input)?.layers() {
            let m = layer.out_channels();
            let k = layer.in_channels() * layer.kernel_h() * layer.kernel_w();
            let n = layer.out_rows() * layer.out_cols();
            let fill = |len: usize, salt: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| ((i * 31 + salt) % 17) as f32 / 17.0 - 0.5)
                    .collect()
            };
            let a = Tensor::from_vec(fill(m * k, 1), &[m, k][..])?;
            let b = Tensor::from_vec(fill(k * n, 2), &[k, n][..])?;
            let t = Instant::now();
            let mut reps = 0u64;
            while t.elapsed().as_nanos() < MIN_NANOS_PER_SHAPE {
                std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b))?);
                reps += 1;
            }
            secs += t.elapsed().as_secs_f64();
            flops += 2.0 * (m * k * n) as f64 * reps as f64;
        }
    }
    Ok(ratio(flops / 1e9, secs))
}
