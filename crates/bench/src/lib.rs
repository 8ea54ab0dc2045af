//! Shared plumbing for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the FNAS
//! paper (see DESIGN.md §4 for the index), printing a markdown table and
//! writing a CSV under `results/`. Performance is measured by `fnasbench`
//! (`BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use fnas::report::Table;
use fnas::search::{BatchOptions, SearchConfig, SearchOutcome, Searcher};
use fnas_fpga::design::PipelineDesign;
use fnas_fpga::device::FpgaDevice;
use fnas_fpga::layer::{ConvShape, Network};
use fnas_fpga::taskgraph::TileTaskGraph;

/// Where the harness writes CSV outputs.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("FNAS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

/// Prints a table and writes its CSV twin.
///
/// # Errors
///
/// Propagates filesystem errors from the CSV write.
pub fn emit(name: &str, table: &Table) -> fnas::Result<()> {
    println!("## {name}\n");
    println!("{}", table.to_markdown());
    let path = results_dir().join(format!("{name}.csv"));
    table.write_csv(&path)?;
    println!("(csv written to {})\n", path.display());
    Ok(())
}

/// Runs one surrogate-backed search on the batched engine, seeding the
/// controller and every per-child evaluation stream from `seed`.
///
/// Uses one worker per available core; the batched engine guarantees the
/// outcome is identical for any worker count, so sweep results do not
/// depend on the machine running them.
///
/// # Errors
///
/// Propagates search construction and execution errors.
pub fn run_search(config: &SearchConfig, seed: u64) -> fnas::Result<SearchOutcome> {
    let config = config.clone().with_seed(seed);
    Searcher::surrogate(&config)?.run_batched(&config, &BatchOptions::default())
}

/// The sixteen 4-layer architectures of the paper's Fig. 8 study:
/// 3×3 kernels, each layer 64 or 128 filters, on 16×16 feature maps.
pub fn fig8_architectures() -> Vec<(String, Network)> {
    (0..16u32)
        .map(|id| {
            let filters: Vec<usize> = (0..4)
                .map(|b| if id >> b & 1 == 1 { 128 } else { 64 })
                .collect();
            let mut layers = Vec::new();
            let mut prev = 3usize;
            for &f in &filters {
                layers.push(ConvShape::square(prev, f, 16, 3).expect("constants are valid"));
                prev = f;
            }
            (
                filters
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
                Network::new(layers).expect("chain is channel-compatible"),
            )
        })
        .collect()
}

/// Designs a Fig. 8 network on the PYNQ board (four per-layer accelerators,
/// as in §4.3) and returns the design plus its task graph.
///
/// # Errors
///
/// Propagates design and graph construction errors.
pub fn fig8_design(network: &Network) -> fnas::Result<(PipelineDesign, TileTaskGraph)> {
    let design = PipelineDesign::generate(network, &FpgaDevice::pynq())?;
    let graph = TileTaskGraph::from_design(&design)?;
    Ok((design, graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_architectures_cover_all_filter_patterns() {
        let archs = fig8_architectures();
        assert_eq!(archs.len(), 16);
        let names: std::collections::HashSet<&String> = archs.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 16);
        for (_, net) in &archs {
            assert_eq!(net.len(), 4);
        }
    }

    #[test]
    fn fig8_designs_build() {
        let (_, net) = &fig8_architectures()[0];
        let (design, graph) = fig8_design(net).unwrap();
        assert_eq!(design.layers().len(), 4);
        assert_eq!(graph.num_layers(), 4);
    }
}
