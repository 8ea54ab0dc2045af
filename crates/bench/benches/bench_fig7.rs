//! Criterion bench behind **Figure 7**: search-loop throughput per dataset.
//!
//! Figure 7 sweeps all three Table 2 presets; the per-trial cost of the
//! search loop grows with the search-space depth (MNIST: 8 decisions,
//! CIFAR-10: 20, ImageNet: 30) and with the pipeline length the FNAS tool
//! must design. This bench measures a fixed-size FNAS run on each preset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fnas::experiment::ExperimentPreset;
use fnas::search::{BatchOptions, SearchConfig, Searcher};

fn bench_per_dataset(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7/fnas_search_8_trials");
    group.sample_size(10);
    for preset in [
        ExperimentPreset::mnist(),
        ExperimentPreset::cifar10(),
        ExperimentPreset::imagenet(),
    ] {
        // The loosest spec, so most children take the full (latency +
        // accuracy + update) path rather than the cheap pruned path.
        let ts1 = preset.ts(1).get();
        group.bench_with_input(
            BenchmarkId::from_parameter(preset.name().to_string()),
            &preset,
            |b, preset| {
                b.iter(|| {
                    let config =
                        SearchConfig::fnas(preset.clone().with_trials(8), ts1).with_seed(3);
                    Searcher::surrogate(&config)
                        .expect("constructible")
                        .run_batched(&config, &BatchOptions::sequential().with_batch_size(1))
                        .expect("runs")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_per_dataset);
criterion_main!(benches);
