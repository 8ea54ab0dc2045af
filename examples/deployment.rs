//! The final step of Fig. 1(b): implement the chosen network and inspect
//! the implementation.
//!
//! Runs a small FPGA-aware search, then produces the deployment record for
//! the winner: per-layer tiling, resource utilization, analytic vs
//! simulated latency, and a Gantt-ready execution trace.
//!
//! Run with: `cargo run --release --example deployment`

use fnas::deploy::DeploymentReport;
use fnas::experiment::ExperimentPreset;
use fnas::search::{BatchOptions, SearchConfig, Searcher};
use fnas_fpga::device::FpgaCluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = ExperimentPreset::mnist().with_trials(20);
    let config = SearchConfig::fnas(preset.clone(), 5.0).with_seed(3);
    let opts = BatchOptions::sequential().with_batch_size(1);
    let outcome = Searcher::surrogate(&config)?.run_batched(&config, &opts)?;
    let best = outcome
        .best()
        .ok_or("no spec-satisfying child found — loosen the budget")?;

    let platform = FpgaCluster::single(preset.device().clone());
    let report = DeploymentReport::generate(&best.arch, &platform, preset.dataset().shape())?;

    println!("{}\n", report.summary());
    println!("{}", report.layer_table().to_markdown());

    // The Pareto view the paper motivates: "the flexibility of FNAS
    // provides more choices for designers".
    println!("accuracy/latency Pareto front over this run:");
    for t in outcome.pareto_front() {
        println!(
            "  {} @ {} → {:.2}%",
            t.arch.describe(),
            t.latency.expect("front members have latencies"),
            t.accuracy.expect("front members are trained") * 100.0
        );
    }

    // Dump the schedule trace for external plotting, plus a ready-made
    // Gantt chart (Fig. 4(b)-style).
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let csv_path = dir.join("deployment_trace.csv");
    std::fs::write(&csv_path, report.trace().to_csv())?;
    let svg_path = dir.join("deployment_gantt.svg");
    std::fs::write(
        &svg_path,
        fnas_fpga::viz::render_gantt(report.trace(), &fnas_fpga::viz::GanttOptions::default()),
    )?;
    println!(
        "\nschedule trace written to {} and {}",
        csv_path.display(),
        svg_path.display()
    );
    Ok(())
}
