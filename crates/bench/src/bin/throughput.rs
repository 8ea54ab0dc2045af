//! Throughput harness: latency vs streaming throughput (extension beyond
//! the paper).
//!
//! FNAS optimises single-image latency — the right metric for the paper's
//! "low-batch real-time" setting. When images *stream*, the pipeline
//! overlaps them and the steady-state initiation interval (set by the
//! bottleneck PE) governs throughput instead. This harness quantifies both
//! for a selection of Fig. 8 architectures on 1, 2 and 4 PYNQ boards,
//! validating the analytic interval `max_i PT_i` against the streaming
//! simulator. It writes `results/throughput.csv`, which holds simulated
//! cycles and latencies only, so it is deterministic.
//!
//! Run with: `cargo run --release -p fnas-bench --bin throughput`

use fnas::report::Table;
use fnas_bench::{emit, fig8_architectures};
use fnas_fpga::analyzer::pipeline_interval;
use fnas_fpga::design::PipelineDesign;
use fnas_fpga::device::{FpgaCluster, FpgaDevice};
use fnas_fpga::sched::FnasScheduler;
use fnas_fpga::sim::{simulate_design, simulate_design_stream};
use fnas_fpga::taskgraph::TileTaskGraph;
use fnas_fpga::Cycles;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Some(arg) = std::env::args().nth(1) {
        return Err(format!("unexpected argument `{arg}` (throughput takes none)").into());
    }
    let mut table = Table::new(vec![
        "arch",
        "boards",
        "latency (ms)",
        "interval sim (cycles)",
        "interval analytic",
        "throughput (fps)",
    ]);
    for (name, network) in fig8_architectures().into_iter().step_by(5) {
        for boards in [1usize, 2, 4] {
            let cluster = FpgaCluster::homogeneous(FpgaDevice::pynq(), boards, 16.0)?;
            let design = PipelineDesign::generate_on_cluster(&network, &cluster)?;
            let graph = TileTaskGraph::from_design(&design)?;
            let schedule = FnasScheduler::new().schedule(&graph);
            let single = simulate_design(&design, &graph, &schedule)?;
            let stream = simulate_design_stream(&design, &graph, &schedule, 8, Cycles::new(0))?;
            table.push_row(vec![
                name.clone(),
                boards.to_string(),
                format!("{:.3}", single.latency.get()),
                stream.steady_interval().get().to_string(),
                pipeline_interval(&design).get().to_string(),
                format!("{:.0}", stream.throughput_fps(design.clock_mhz())),
            ]);
        }
    }
    emit("throughput", &table)?;
    println!(
        "extension shape: more boards cut latency AND raise throughput; the\n\
         analytic interval max_i PT_i tracks the simulated steady state.\n"
    );
    Ok(())
}
