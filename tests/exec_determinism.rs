//! Determinism of the batched execution engine.
//!
//! The contract pinned here: for a fixed `SearchConfig` (seed, batch
//! size), [`fnas::search::Searcher::run_batched`] produces **bit-identical
//! results regardless of worker count** — sequentially (0 workers) and on
//! 1, 2 or 8 pool threads. That holds even for the hard case of an
//! RNG-consuming oracle (real child training), because every child's
//! evaluation stream is derived from its logical position
//! `(run_seed, episode, child)` rather than from whichever worker happened
//! to pick it up.

use fnas::evaluator::TrainedEvaluator;
use fnas::experiment::ExperimentPreset;
use fnas::search::{BatchOptions, SearchConfig, SearchOutcome, Searcher};
use fnas_controller::space::SearchSpace;
use fnas_data::SynthConfig;

/// A CPU-sized preset: 10×10 images, 4 classes, 2-layer children.
fn tiny_preset() -> ExperimentPreset {
    let dataset = SynthConfig::mnist_like()
        .with_shape((1, 10, 10))
        .with_classes(4)
        .with_noise(0.15)
        .with_sizes(60, 30);
    let space = SearchSpace::new(2, vec![3, 5], vec![6, 12]).expect("valid space");
    ExperimentPreset::mnist()
        .with_trials(8)
        .with_epochs(3)
        .with_dataset(dataset)
        .with_space(space)
}

/// Everything a run's observable outcome consists of: the deployed
/// architecture, the full per-trial trace (arch, reward, latency bits,
/// trained flag) and the exact search-cost totals.
type Fingerprint = (
    Option<String>,
    Vec<(String, u32, Option<u64>, bool)>,
    u64,
    u64,
);

fn fingerprint(out: &SearchOutcome) -> Fingerprint {
    (
        out.best().map(|b| b.arch.describe()),
        out.trials()
            .iter()
            .map(|t| {
                (
                    t.arch.describe(),
                    t.reward.to_bits(),
                    t.latency.map(|l| l.get().to_bits()),
                    t.trained,
                )
            })
            .collect(),
        out.cost().training_seconds.to_bits(),
        out.cost().analyzer_seconds.to_bits(),
    )
}

/// Reward bits of the sequential trained run. The tests below pin that
/// the worker count changes nothing; these pin the arithmetic itself.
const TRAINED_REWARD_BITS: [u32; 8] = [
    0x3ecb_bbbc,
    0x3ec1_7e4b,
    0x3e73_a06f,
    0x3d2b_b0d2,
    0x3e56_ae80,
    0x3b58_7d20,
    0x3dd8_c413,
    0xbd9d_ae3d,
];

/// Reward bits of the sequential surrogate run.
const SURROGATE_REWARD_BITS: [u32; 24] = [
    0xc0b5_ab9f,
    0x3fe4_f08c,
    0xc034_a234,
    0xc000_f50a,
    0x3f29_1da3,
    0xbfd4_4cbe,
    0xc059_fa12,
    0x3f7a_c981,
    0xbfec_0725,
    0xbfae_ae19,
    0xbfdc_89f4,
    0xc027_f562,
    0xbff3_c148,
    0xc06c_e5b4,
    0x3f66_0bef,
    0xc070_d9d7,
    0xbfb2_f3e4,
    0xbf9f_8099,
    0xc017_6189,
    0xc03d_aa50,
    0xc002_4e9c,
    0xc052_3af3,
    0xc056_f694,
    0xbfa0_ef9a,
];

fn reward_bits(f: &Fingerprint) -> Vec<u32> {
    f.1.iter().map(|t| t.1).collect()
}

fn run_trained(workers: usize) -> SearchOutcome {
    let preset = tiny_preset();
    let config = SearchConfig::fnas(preset.clone(), 2.0).with_seed(33);
    let evaluator = TrainedEvaluator::new(preset.dataset(), preset.epochs(), 8).expect("generates");
    let mut searcher =
        Searcher::with_evaluator(&config, Box::new(evaluator)).expect("constructible");
    let opts = BatchOptions::sequential()
        .with_workers(workers)
        .with_batch_size(4);
    searcher.run_batched(&config, &opts).expect("runs")
}

#[test]
fn trained_search_is_bit_identical_across_worker_counts() {
    let sequential = fingerprint(&run_trained(0));
    assert_eq!(reward_bits(&sequential), TRAINED_REWARD_BITS);
    assert!(
        !sequential.1.is_empty(),
        "the run must explore at least one child"
    );
    for workers in [1usize, 2, 8] {
        assert_eq!(
            fingerprint(&run_trained(workers)),
            sequential,
            "workers = {workers}"
        );
    }
}

#[test]
fn surrogate_search_is_bit_identical_across_worker_counts() {
    let run = |workers: usize| {
        let config =
            SearchConfig::fnas(ExperimentPreset::mnist().with_trials(24), 5.0).with_seed(101);
        let opts = BatchOptions::sequential()
            .with_workers(workers)
            .with_batch_size(8);
        Searcher::surrogate(&config)
            .expect("constructible")
            .run_batched(&config, &opts)
            .expect("runs")
    };
    let sequential = fingerprint(&run(0));
    assert_eq!(reward_bits(&sequential), SURROGATE_REWARD_BITS);
    for workers in [1usize, 2, 8] {
        assert_eq!(
            fingerprint(&run(workers)),
            sequential,
            "workers = {workers}"
        );
    }
}

#[test]
fn telemetry_counters_are_worker_independent() {
    // Wall times legitimately differ; every counter must not.
    let counters = |workers: usize| {
        let t = *run_trained(workers).telemetry();
        (
            t.children_sampled,
            t.children_pruned,
            t.children_trained,
            t.children_unbuildable,
            t.episodes,
            t.train_calls,
        )
    };
    let sequential = counters(0);
    for workers in [2usize, 8] {
        assert_eq!(counters(workers), sequential, "workers = {workers}");
    }
}

#[test]
fn repeated_identical_runs_agree() {
    // Same worker count twice: the engine holds no hidden global state.
    assert_eq!(fingerprint(&run_trained(2)), fingerprint(&run_trained(2)));
}
