//! End-to-end integration: the complete FNAS loop with *real* training.
//!
//! Exercises every crate together: synthetic data generation → RNN
//! controller sampling → FPGA design/analysis → pruning decision → child
//! training with the from-scratch engine → Eq. (1) reward → REINFORCE
//! update → deployment selection.

use fnas::evaluator::TrainedEvaluator;
use fnas::experiment::ExperimentPreset;
use fnas::search::{BatchOptions, SearchConfig, SearchMode, Searcher};
use fnas_controller::space::SearchSpace;
use fnas_data::SynthConfig;
use fnas_fpga::Millis;

/// A CPU-sized preset: 10×10 images, 4 classes, 3-layer children.
fn tiny_preset() -> ExperimentPreset {
    let dataset = SynthConfig::mnist_like()
        .with_shape((1, 10, 10))
        .with_classes(4)
        .with_noise(0.15)
        .with_sizes(80, 40);
    let space = SearchSpace::new(2, vec![3, 5], vec![6, 12]).expect("valid space");
    ExperimentPreset::mnist()
        .with_trials(5)
        .with_epochs(4)
        .with_dataset(dataset)
        .with_space(space)
}

/// One child per episode: the controller steps after every child.
fn one_child_per_episode() -> BatchOptions {
    BatchOptions::sequential().with_batch_size(1)
}

#[test]
fn fnas_with_real_training_deploys_a_spec_satisfying_child() {
    let preset = tiny_preset();
    let config = SearchConfig::fnas(preset.clone(), 2.0).with_seed(5);
    let evaluator =
        TrainedEvaluator::new(preset.dataset(), preset.epochs(), 16).expect("generates");
    let mut searcher =
        Searcher::with_evaluator(&config, Box::new(evaluator)).expect("constructible");
    let outcome = searcher
        .run_batched(&config, &one_child_per_episode())
        .expect("runs");

    assert_eq!(outcome.trials().len(), 5);
    // Everything trained must carry an accuracy from the real trainer.
    for t in outcome.trials() {
        if t.trained {
            let acc = t.accuracy.expect("trained children have accuracies");
            assert!((0.0..=1.0).contains(&acc));
        }
    }
    if let Some(best) = outcome.best() {
        assert!(best.meets(Millis::new(2.0)));
        // Better than random guessing over 4 classes.
        assert!(
            best.accuracy.expect("trained") > 0.3,
            "accuracy {:?}",
            best.accuracy
        );
    }
}

#[test]
fn nas_and_fnas_explore_the_same_space_but_account_costs_differently() {
    let preset = tiny_preset();
    let nas_cfg = SearchConfig::nas(preset.clone()).with_seed(9);
    let nas = Searcher::surrogate(&nas_cfg)
        .expect("constructible")
        .run_batched(&nas_cfg, &one_child_per_episode())
        .expect("runs");
    assert_eq!(nas.mode(), SearchMode::Nas);
    assert_eq!(nas.pruned_count(), 0, "plain NAS never prunes");
    assert!(
        nas.cost().analyzer_seconds == 0.0,
        "NAS never pays the FNAS tool"
    );

    let fnas_cfg = SearchConfig::fnas(preset, 0.001).with_seed(9); // brutally tight: 1 µs
    let fnas = Searcher::surrogate(&fnas_cfg)
        .expect("constructible")
        .run_batched(&fnas_cfg, &one_child_per_episode())
        .expect("runs");
    assert!(fnas.cost().analyzer_seconds > 0.0);
    // A 1 µs budget prunes everything in this space…
    assert_eq!(fnas.pruned_count(), fnas.trials().len());
    // …and therefore costs almost nothing compared to NAS.
    assert!(fnas.cost().total_seconds() < nas.cost().total_seconds() / 10.0);
}

#[test]
fn violated_children_carry_the_eq1_negative_reward() {
    let preset = tiny_preset();
    let config = SearchConfig::fnas(preset, 0.001).with_seed(13);
    let outcome = Searcher::surrogate(&config)
        .expect("constructible")
        .run_batched(&config, &one_child_per_episode())
        .expect("runs");
    for t in outcome.trials() {
        let latency = t.latency.expect("tiny space is always designable");
        // Eq. (1): R = (rL − L)/rL − 1 = −L/rL.
        let expected = -(latency.get() / 0.001) as f32;
        let tolerance = expected.abs() * 1e-4 + 1e-3;
        assert!(
            (t.reward - expected).abs() < tolerance,
            "reward {} vs expected {expected}",
            t.reward
        );
    }
}

#[test]
fn search_is_deterministic_end_to_end() {
    let run = || {
        let preset = tiny_preset();
        let config = SearchConfig::fnas(preset, 1.0).with_seed(21);
        Searcher::surrogate(&config)
            .expect("constructible")
            .run_batched(&config, &one_child_per_episode())
            .expect("runs")
            .trials()
            .iter()
            .map(|t| {
                (
                    t.arch.describe(),
                    t.latency.map(|l| l.get().to_bits()),
                    t.reward.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
