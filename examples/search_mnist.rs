//! FPGA-aware search with *real* child training.
//!
//! The paper-scale sweeps in `fnas-bench` use the calibrated accuracy
//! surrogate; this example proves the full code path instead: every
//! latency-valid child sampled by the RNN controller is genuinely trained
//! with the from-scratch engine on a synthetic MNIST-style problem, and the
//! measured validation accuracy drives the REINFORCE update through Eq. (1).
//!
//! Sized for a single CPU core: a 14×14 input, a compact search space and a
//! few hundred training examples. Expect a couple of minutes.
//!
//! Run with: `cargo run --release --example search_mnist`

use fnas::evaluator::TrainedEvaluator;
use fnas::experiment::ExperimentPreset;
use fnas::report::{pct, Table};
use fnas::search::{BatchOptions, SearchConfig, Searcher};
use fnas_data::SynthConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A CPU-sized MNIST-like problem: 5 classes on 14×14 images.
    let dataset = SynthConfig::mnist_like()
        .with_shape((1, 14, 14))
        .with_classes(5)
        .with_noise(0.2)
        .with_sizes(200, 80);

    // Keep the Table-2 MNIST *structure* (filter-size / filter-count menus)
    // but at CPU scale, and train each child for 6 epochs.
    let preset = ExperimentPreset::mnist().with_trials(8).with_epochs(6);
    // Rebind dataset + a smaller space via the trained evaluator directly.
    let space = fnas_controller::space::SearchSpace::new(3, vec![3, 5], vec![8, 16])?;
    let preset = override_preset(preset, dataset.clone(), space);

    let config = SearchConfig::fnas(preset.clone(), 4.0).with_seed(7);
    let evaluator = TrainedEvaluator::new(&dataset, preset.epochs(), 20)?.with_lr(0.2);
    let mut searcher = Searcher::with_evaluator(&config, Box::new(evaluator))?;
    let opts = BatchOptions::sequential().with_batch_size(1);
    let outcome = searcher.run_batched(&config, &opts)?;

    let mut table = Table::new(vec!["trial", "architecture", "latency", "trained accuracy"]);
    for t in outcome.trials() {
        table.push_row(vec![
            t.index.to_string(),
            t.arch.describe(),
            t.latency.map_or("—".to_string(), |l| l.to_string()),
            t.accuracy.map_or("pruned".to_string(), pct),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "trained {} children, pruned {}, modelled cost {}",
        outcome.trained_count(),
        outcome.pruned_count(),
        outcome.cost()
    );
    if let Some(best) = outcome.best() {
        println!(
            "best spec-satisfying child: {} → {}",
            best.arch.describe(),
            pct(best.accuracy.expect("trained"))
        );
    } else {
        println!("no child satisfied the 4 ms budget — try a looser spec");
    }
    Ok(())
}

/// Swaps the dataset and space of a preset (test-scale overrides).
fn override_preset(
    preset: ExperimentPreset,
    dataset: SynthConfig,
    space: fnas_controller::space::SearchSpace,
) -> ExperimentPreset {
    // ExperimentPreset is deliberately immutable; rebuild through its
    // builders. The dataset/shape/space replacement lives here so the
    // example stays honest about what it overrides.
    preset.with_dataset(dataset).with_space(space)
}
