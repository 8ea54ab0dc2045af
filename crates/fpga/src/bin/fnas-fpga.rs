//! `fnas-fpga` — debug CLI for the hardware-oracle lowering.
//!
//! The `pipeline` verb lowers one architecture through the FNAS tool's
//! stages (`design → taskgraph → schedule → sim`) and dumps, per stage:
//! its position, name, wall time, and what it built. It also prints the
//! canonical pipeline fingerprint folded into `fnas-store` cache keys.
//! `--gantt` additionally renders the executed schedule as an SVG chart
//! via `fnas_fpga::viz`.
//!
//! ```text
//! fnas-fpga pipeline 16,32,64 --image 32 --gantt out.svg
//! ```

use std::process::ExitCode;
use std::time::Instant;

use fnas_fpga::artifacts::canonical_pipeline_fingerprint;
use fnas_fpga::design::PipelineDesign;
use fnas_fpga::device::{FpgaCluster, FpgaDevice};
use fnas_fpga::layer::{ConvShape, Network};
use fnas_fpga::sched::FnasScheduler;
use fnas_fpga::sim::simulate_traced;
use fnas_fpga::taskgraph::TileTaskGraph;
use fnas_fpga::viz::{render_gantt, GanttOptions};
use fnas_fpga::Cycles;

const USAGE: &str = "\
fnas-fpga — debug tools for the FPGA lowering pipeline

USAGE:
    fnas-fpga pipeline <filters> [OPTIONS]

ARGS:
    <filters>         comma-separated output channels per layer, e.g. 16,32,64

OPTIONS:
    --input <N>       input channels of the first layer [default: 3]
    --image <N>       square feature-map size [default: 32]
    --kernel <N>      square kernel size [default: 3]
    --device <NAME>   pynq | 7a50t | 7z020 | zu9eg [default: pynq]
    --gantt <PATH>    write an SVG Gantt chart of the executed schedule
    -h, --help        print this help
";

struct Options {
    filters: Vec<usize>,
    input: usize,
    image: usize,
    kernel: usize,
    device: FpgaDevice,
    gantt: Option<String>,
}

fn parse_device(name: &str) -> Result<FpgaDevice, String> {
    match name {
        "pynq" => Ok(FpgaDevice::pynq()),
        "7a50t" => Ok(FpgaDevice::xc7a50t()),
        "7z020" => Ok(FpgaDevice::xc7z020()),
        "zu9eg" => Ok(FpgaDevice::zu9eg()),
        other => Err(format!(
            "unknown device `{other}` (expected pynq, 7a50t, 7z020 or zu9eg)"
        )),
    }
}

fn parse_usize(flag: &str, value: Option<String>) -> Result<usize, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse::<usize>()
        .map_err(|_| format!("{flag} expects an integer, got `{raw}`"))
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut iter = args.into_iter();
    let filters_raw = iter.next().ok_or("missing <filters> argument")?;
    let filters: Vec<usize> = filters_raw
        .split(',')
        .map(|f| {
            f.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad filter count `{f}` in `{filters_raw}`"))
        })
        .collect::<Result<_, _>>()?;
    if filters.is_empty() {
        return Err("at least one layer is required".to_string());
    }
    let mut opts = Options {
        filters,
        input: 3,
        image: 32,
        kernel: 3,
        device: FpgaDevice::pynq(),
        gantt: None,
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--input" => opts.input = parse_usize("--input", iter.next())?,
            "--image" => opts.image = parse_usize("--image", iter.next())?,
            "--kernel" => opts.kernel = parse_usize("--kernel", iter.next())?,
            "--device" => {
                let name = iter.next().ok_or("--device needs a value")?;
                opts.device = parse_device(&name)?;
            }
            "--gantt" => opts.gantt = Some(iter.next().ok_or("--gantt needs a path")?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn build_network(opts: &Options) -> Result<Network, String> {
    let mut layers = Vec::new();
    let mut prev = opts.input;
    for &f in &opts.filters {
        layers
            .push(ConvShape::square(prev, f, opts.image, opts.kernel).map_err(|e| e.to_string())?);
        prev = f;
    }
    Network::new(layers).map_err(|e| e.to_string())
}

/// Runs one stage, printing its position, name, wall time and `what` it
/// built.
fn stage<T>(
    step: usize,
    name: &str,
    run: impl FnOnce() -> fnas_fpga::Result<T>,
    what: impl FnOnce(&T) -> String,
) -> Result<T, String> {
    let t0 = Instant::now();
    let out = run().map_err(|e| format!("{name}: {e}"))?;
    let nanos = t0.elapsed().as_nanos();
    println!("{step:>2}. {name:<10} {nanos:>10} ns  {}", what(&out));
    Ok(out)
}

fn dump_pipeline(opts: &Options) -> Result<(), String> {
    let network = build_network(opts)?;
    let cluster = FpgaCluster::single(opts.device.clone());
    println!(
        "pipeline for {} layers on {}",
        opts.filters.len(),
        opts.device.name(),
    );
    println!(
        "pipeline fingerprint {:016x} (folded into store keys)",
        canonical_pipeline_fingerprint(),
    );
    println!();

    let design = stage(
        1,
        "design",
        || PipelineDesign::generate_on_cluster(&network, &cluster),
        |d| {
            format!(
                "{} layers, {} DSP",
                d.layers().len(),
                d.utilization().dsp_used
            )
        },
    )?;
    let graph = stage(
        2,
        "taskgraph",
        || TileTaskGraph::from_design(&design),
        |g| format!("{} tasks over {} layers", g.total_tasks(), g.num_layers()),
    )?;
    let schedule = stage(
        3,
        "schedule",
        || Ok(FnasScheduler::new().schedule(&graph)),
        |s| format!("{} PEs, {}", s.num_pes(), s.name()),
    )?;
    let transfers: Vec<Cycles> = (0..graph.num_layers().saturating_sub(1))
        .map(|i| design.boundary_transfer_cycles(i))
        .collect();
    let (_, trace) = stage(
        4,
        "sim",
        || simulate_traced(&graph, &schedule, &transfers),
        |(report, _)| format!("makespan {}", report.makespan),
    )?;

    if let Some(path) = &opts.gantt {
        let svg = render_gantt(&trace, &GanttOptions::default());
        std::fs::write(path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!();
        println!("gantt chart written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") || args.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let verb = args.remove(0);
    if verb != "pipeline" {
        eprintln!("unknown verb `{verb}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match dump_pipeline(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
