//! Criterion bench behind **Table 1**: the cost of the FNAS tool itself.
//!
//! Table 1's headline is that estimating a child's latency analytically is
//! orders of magnitude cheaper than training it. This bench measures the
//! real cost of each piece on this implementation: one FNAS-tool invocation
//! (design → analyze), one controller sampling step, and one full
//! FNAS trial loop (sample + latency + surrogate accuracy + REINFORCE
//! update).

use criterion::{criterion_group, criterion_main, Criterion};
use fnas::experiment::ExperimentPreset;
use fnas::latency::LatencyEvaluator;
use fnas::search::{BatchOptions, SearchConfig, Searcher};
use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_controller::reinforce::ReinforceTrainer;
use fnas_fpga::device::FpgaDevice;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mnist_arch() -> ChildArch {
    ChildArch::new(vec![
        LayerChoice {
            filter_size: 5,
            num_filters: 18,
        },
        LayerChoice {
            filter_size: 7,
            num_filters: 36,
        },
        LayerChoice {
            filter_size: 5,
            num_filters: 18,
        },
        LayerChoice {
            filter_size: 7,
            num_filters: 9,
        },
    ])
    .expect("constants are valid")
}

fn bench_fnas_tool(c: &mut Criterion) {
    let arch = mnist_arch();
    c.bench_function("table1/fnas_tool_latency_estimate", |b| {
        b.iter(|| {
            // Fresh evaluator each iteration so the cache cannot hide the
            // analyzer cost.
            let eval = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28));
            eval.latency(std::hint::black_box(&arch))
                .expect("analyzable")
        })
    });
}

fn bench_controller_sample(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let trainer =
        ReinforceTrainer::new(ExperimentPreset::mnist().space(), &mut rng).expect("valid space");
    c.bench_function("table1/controller_sample", |b| {
        b.iter(|| trainer.sample(&mut rng).expect("samplable"))
    });
}

fn bench_full_fnas_search(c: &mut Criterion) {
    c.bench_function("table1/fnas_search_12_trials", |b| {
        b.iter(|| {
            let config = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(12), 5.0);
            Searcher::surrogate(&config)
                .expect("constructible")
                .run_batched(&config, &BatchOptions::sequential().with_batch_size(1))
                .expect("runs")
        })
    });
}

criterion_group!(
    benches,
    bench_fnas_tool,
    bench_controller_sample,
    bench_full_fnas_search
);
criterion_main!(benches);
