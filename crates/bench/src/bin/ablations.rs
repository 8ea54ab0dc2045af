//! Quality-side ablations of the design choices DESIGN.md §5 calls out.
//!
//! 1. **Reuse strategy** (§3.5 step 3): alternating OFM/IFM (the paper) vs
//!    uniform OFM vs uniform IFM, cycle counts on the Fig. 8 architectures.
//! 2. **Ready-to-run queue** (P3): alternating reuse with and without
//!    stall-time reordering.
//! 3. **IFM tile order** (§3.5 step 1): channel-first vs row/col-first.
//! 4. **Early pruning**: FNAS with pruning vs "analyze but train anyway" —
//!    isolating where the Table 1 speedup comes from.
//! 5. **Analyzer forms**: the paper's Eq. (5) vs the strengthened max-form
//!    bound vs the simulator, on the same architectures.
//!
//! Run with: `cargo run --release -p fnas-bench --bin ablations`

use fnas::experiment::ExperimentPreset;
use fnas::report::{factor, Table};
use fnas::search::{BatchOptions, SearchConfig, Searcher};
use fnas_bench::{emit, fig8_architectures, fig8_design};
use fnas_fpga::analyzer::analyze;
use fnas_fpga::sched::{FnasScheduler, ReuseStrategy};
use fnas_fpga::sim::simulate_design;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    scheduler_ablations()?;
    pruning_ablation()?;
    analyzer_ablation()?;
    Ok(())
}

fn scheduler_ablations() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(vec![
        "arch",
        "alternating (paper)",
        "uniform OFM",
        "uniform IFM",
        "no ready queue",
        "rowcol-first",
    ]);
    for (name, network) in fig8_architectures().into_iter().step_by(3) {
        let (design, graph) = fig8_design(&network)?;
        let cycles = |sched: &fnas_fpga::sched::Schedule| -> Result<u64, fnas_fpga::FpgaError> {
            Ok(simulate_design(&design, &graph, sched)?.makespan.get())
        };
        let alternating = cycles(&FnasScheduler::new().schedule(&graph))?;
        let uni_ofm = cycles(
            &FnasScheduler::new()
                .with_uniform_reuse(ReuseStrategy::OfmReuse)
                .schedule(&graph),
        )?;
        let uni_ifm = cycles(
            &FnasScheduler::new()
                .with_uniform_reuse(ReuseStrategy::IfmReuse)
                .schedule(&graph),
        )?;
        let no_queue = cycles(&FnasScheduler::new().without_reordering().schedule(&graph))?;
        let rowcol = cycles(&FnasScheduler::new().with_rowcol_first().schedule(&graph))?;
        table.push_row(vec![
            name,
            alternating.to_string(),
            uni_ofm.to_string(),
            uni_ifm.to_string(),
            no_queue.to_string(),
            rowcol.to_string(),
        ]);
    }
    emit("ablate_scheduler", &table)?;
    println!(
        "paper claims: uniform reuse stalls the pipeline (§3.5), channel-first\n\
         ordering starts the next layer earlier (step 1), and the ready queue\n\
         absorbs residual stalls (P3).\n"
    );
    Ok(())
}

fn pruning_ablation() -> Result<(), Box<dyn std::error::Error>> {
    let preset = ExperimentPreset::mnist().with_trials(30);
    let opts = BatchOptions::sequential().with_batch_size(1);
    let mut table = Table::new(vec![
        "configuration",
        "TC (ms)",
        "search time",
        "vs no-pruning",
        "children trained",
    ]);
    for tc in [5.0f64, 2.0] {
        let mut results = Vec::new();
        for prune in [true, false] {
            let config = SearchConfig::fnas(preset.clone(), tc)
                .with_seed(11)
                .with_pruning(prune);
            let out = Searcher::surrogate(&config)?.run_batched(&config, &opts)?;
            results.push((prune, out));
        }
        let no_prune_minutes = results[1].1.cost().total_minutes();
        for (prune, out) in &results {
            table.push_row(vec![
                if *prune {
                    "FNAS (early pruning)"
                } else {
                    "FNAS without pruning"
                }
                .to_string(),
                format!("{tc}"),
                out.cost().to_string(),
                factor(no_prune_minutes / out.cost().total_minutes()),
                format!("{}/{}", out.trained_count(), out.trials().len()),
            ]);
        }
    }
    emit("ablate_pruning", &table)?;
    println!(
        "the entire Table 1 speedup should reappear here: identical reward and\n\
         controller, pruning toggled.\n"
    );
    Ok(())
}

fn analyzer_ablation() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(vec![
        "arch",
        "Eq. (5) cycles",
        "max-form cycles",
        "simulated cycles",
    ]);
    for (name, network) in fig8_architectures().into_iter().step_by(5) {
        let (design, graph) = fig8_design(&network)?;
        let report = analyze(&design)?;
        let sim = simulate_design(&design, &graph, &FnasScheduler::new().schedule(&graph))?;
        table.push_row(vec![
            name,
            report.eq5_cycles.get().to_string(),
            report.latency_cycles.get().to_string(),
            sim.makespan.get().to_string(),
        ]);
    }
    emit("ablate_analyzer", &table)?;
    Ok(())
}
