//! Throughput harness: streaming inference and the partitioned simulator.
//!
//! `streaming` (extension beyond the paper): latency vs streaming
//! throughput. FNAS optimises single-image latency — the right metric for
//! the paper's "low-batch real-time" setting. When images *stream*, the
//! pipeline overlaps them and the steady-state initiation interval (set by
//! the bottleneck PE) governs throughput instead. This section quantifies
//! both for a selection of Fig. 8 architectures on 1, 2 and 4 PYNQ boards,
//! validating the analytic interval `max_i PT_i` against the streaming
//! simulator. It writes `results/throughput.csv`, which holds simulated
//! cycles and latencies only, so it is deterministic.
//!
//! `partition`: the partitioned parallel simulator (DESIGN.md §16) on large
//! architectures. It asserts that every partition count settles to the
//! single-threaded report and writes wall times to
//! `results/throughput_partition.csv`.
//!
//! Run with: `cargo run --release -p fnas-bench --bin throughput [-- streaming|partition]`

use std::time::Instant;

use fnas::report::{factor, Table};
use fnas_bench::{emit, fig8_architectures};
use fnas_exec::Executor;
use fnas_fpga::analyzer::pipeline_interval;
use fnas_fpga::design::PipelineDesign;
use fnas_fpga::device::{FpgaCluster, FpgaDevice};
use fnas_fpga::layer::{ConvShape, Network};
use fnas_fpga::passes::partition::PartitionedGraph;
use fnas_fpga::sched::FnasScheduler;
use fnas_fpga::sim::parallel::simulate_design_partitioned;
use fnas_fpga::sim::{simulate_design, simulate_design_stream};
use fnas_fpga::taskgraph::TileTaskGraph;
use fnas_fpga::Cycles;

fn streaming_throughput() -> Result<(), Box<dyn std::error::Error>> {
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

/// The partitioned parallel simulator (DESIGN.md §16). Large
/// (deep, wide) architectures are simulated with the single-threaded
/// event-heap backend and with the partitioned backend at 2, 4 and 8
/// regions. Every arm must settle to a **byte-identical** report — the
/// partition count is a pure performance knob — so the table can honestly
/// attribute any wall-time difference to parallel execution alone.
fn partition_sweep() -> Result<(), Box<dyn std::error::Error>> {
    const REPS: u32 = 6;

    let deep =
        |name: &str, filters: &[usize]| -> Result<(String, Network), Box<dyn std::error::Error>> {
            let mut layers = Vec::new();
            let mut prev = 3usize;
            for &f in filters {
                layers.push(ConvShape::square(prev, f, 32, 3)?);
                prev = f;
            }
            Ok((name.to_string(), Network::new(layers)?))
        };
    let networks = vec![
        deep("deep-64x8", &[64; 8])?,
        deep("deep-mix-8", &[64, 128, 64, 128, 64, 128, 64, 128])?,
        deep("deep-128x6", &[128; 6])?,
    ];

    let mut table = Table::new(vec![
        "arch",
        "backend",
        "wall (ms)",
        "speedup",
        "partitions built",
        "cross-partition events",
    ]);
    for (name, network) in &networks {
        // Two boards give the deep pipelines a realistic DSP budget, as in
        // the streaming section.
        let cluster = FpgaCluster::homogeneous(FpgaDevice::pynq(), 2, 16.0)?;
        let design = PipelineDesign::generate_on_cluster(network, &cluster)?;
        let graph = TileTaskGraph::from_design(&design)?;
        let schedule = FnasScheduler::new().schedule(&graph);

        let start = Instant::now();
        let mut reference = None;
        for _ in 0..REPS {
            reference = Some(simulate_design(&design, &graph, &schedule)?);
        }
        let baseline_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);
        let reference = reference.expect("at least one rep ran");
        table.push_row(vec![
            name.clone(),
            "single-threaded".to_string(),
            format!("{baseline_ms:.2}"),
            factor(1.0),
            "—".to_string(),
            "—".to_string(),
        ]);

        for parts in [2usize, 4, 8] {
            let partitions = PartitionedGraph::build(&graph, parts);
            let executor = Executor::with_workers(parts);
            let start = Instant::now();
            let mut last = None;
            for _ in 0..REPS {
                last = Some(simulate_design_partitioned(
                    &design,
                    &graph,
                    &schedule,
                    &partitions,
                    &executor,
                )?);
            }
            let wall_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);
            let (report, stats) = last.expect("at least one rep ran");
            // CI runs this bin and relies on these asserts: byte-identity
            // and a partition pass that actually split the graph.
            assert_eq!(
                report, reference,
                "partitioned sim diverged from the single-threaded backend \
                 at {parts} partitions on {name}"
            );
            assert!(
                stats.partitions_built > 0,
                "partition pass built no regions on {name}"
            );
            table.push_row(vec![
                name.clone(),
                format!("partitioned x{parts}"),
                format!("{wall_ms:.2}"),
                factor(baseline_ms / wall_ms),
                stats.partitions_built.to_string(),
                stats.cross_partition_events.to_string(),
            ]);
        }
    }
    emit("throughput_partition", &table)?;
    println!(
        "every partitioned arm settled to the byte-identical report — the\n\
         region count only changes wall time, never results."
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // With section names as arguments, run only those sections (CI runs
    // each in its own job); with none, run both.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| !["streaming", "partition"].contains(&a.as_str()))
    {
        return Err(format!("unknown section `{unknown}` (expected streaming, partition)").into());
    }
    let wants = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    if wants("streaming") {
        streaming_throughput()?;
    }
    if wants("partition") {
        partition_sweep()?;
    }
    Ok(())
}
