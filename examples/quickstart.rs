//! Quickstart: the whole FNAS pipeline in one file.
//!
//! 1. Describe a child CNN.
//! 2. Push it through the FNAS tool (design → task graph → schedule →
//!    analyzer) to get its latency on a PYNQ board without training it.
//! 3. Run a small FPGA-aware search with the accuracy surrogate and print
//!    the winner.
//!
//! Run with: `cargo run --release --example quickstart`

use fnas::experiment::ExperimentPreset;
use fnas::latency::LatencyEvaluator;
use fnas::report::{pct, Table};
use fnas::search::{BatchOptions, SearchConfig, Searcher};
use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_fpga::device::FpgaDevice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A hand-written child architecture -------------------------
    let arch = ChildArch::new(vec![
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
            filter_size: 3,
            num_filters: 9,
        },
    ])?;
    println!("child architecture: {}", arch.describe());

    // --- 2. Latency on the PYNQ board, analytically --------------------
    let latency = LatencyEvaluator::new(FpgaDevice::pynq(), (1, 28, 28));
    let analytic = latency.latency(&arch)?;
    let simulated = latency.simulated_latency(&arch)?;
    println!("analytic latency (Eq. 5):   {analytic}");
    println!("cycle-level simulation:     {simulated}");

    // --- 3. A small FNAS search under a 5 ms budget ---------------------
    let preset = ExperimentPreset::mnist().with_trials(20);
    let config = SearchConfig::fnas(preset, 5.0);
    // One child per episode: the controller steps after every child.
    let opts = BatchOptions::sequential().with_batch_size(1);
    let outcome = Searcher::surrogate(&config)?.run_batched(&config, &opts)?;

    let mut table = Table::new(vec![
        "trial",
        "architecture",
        "latency",
        "accuracy",
        "reward",
    ]);
    for t in outcome.trials() {
        table.push_row(vec![
            t.index.to_string(),
            t.arch.describe(),
            t.latency.map_or("—".to_string(), |l| l.to_string()),
            t.accuracy.map_or("pruned".to_string(), pct),
            format!("{:+.3}", t.reward),
        ]);
    }
    println!("\n{}", table.to_markdown());
    println!(
        "trained {} / pruned {} children; modelled search cost {}",
        outcome.trained_count(),
        outcome.pruned_count(),
        outcome.cost()
    );
    if let Some(best) = outcome.best() {
        println!(
            "deployed architecture: {} @ {} with accuracy {}",
            best.arch.describe(),
            best.latency.expect("best is latency-valid"),
            pct(best.accuracy.expect("best was trained")),
        );
    }
    Ok(())
}
