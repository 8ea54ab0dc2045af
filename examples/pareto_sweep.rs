//! The accuracy-vs-latency frontier under tightening timing specs.
//!
//! Repeats the FNAS search on the MNIST preset for each timing
//! specification TS1 (loosest) … TS4 (tightest) and prints how the deployed
//! architecture's latency tracks the budget while accuracy degrades only
//! mildly — the paper's central claim (Figs. 6–7).
//!
//! Run with: `cargo run --release --example pareto_sweep`

use fnas::experiment::ExperimentPreset;
use fnas::report::{pct, Table};
use fnas::search::{BatchOptions, SearchConfig, Searcher};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = ExperimentPreset::mnist().with_trials(30);
    let opts = BatchOptions::sequential().with_batch_size(1);

    // The NAS baseline: accuracy-only, one architecture for all specs.
    let nas_cfg = SearchConfig::nas(preset.clone());
    let nas = Searcher::surrogate(&nas_cfg)?.run_batched(&nas_cfg, &opts)?;
    let nas_best = nas.best().expect("NAS always trains children");
    println!(
        "NAS baseline: {} @ {} accuracy {}\n",
        nas_best.arch.describe(),
        nas_best.latency.map_or("?".to_string(), |l| l.to_string()),
        pct(nas_best.accuracy.expect("trained")),
    );

    let mut table = Table::new(vec![
        "spec",
        "budget",
        "deployed latency",
        "accuracy",
        "accuracy loss vs NAS",
        "children pruned",
    ]);
    for n in (1..=4).rev() {
        let ts = preset.ts(n);
        let cfg = SearchConfig::fnas(preset.clone(), ts.get());
        let out = Searcher::surrogate(&cfg)?.run_batched(&cfg, &opts)?;
        match out.best() {
            Some(best) => {
                let acc = best.accuracy.expect("trained");
                let loss = nas_best.accuracy.expect("trained") - acc;
                table.push_row(vec![
                    format!("TS{n}"),
                    ts.to_string(),
                    best.latency.expect("valid").to_string(),
                    pct(acc),
                    format!("{:.2}%", loss * 100.0),
                    format!("{}/{}", out.pruned_count(), out.trials().len()),
                ]);
            }
            None => table.push_row(vec![
                format!("TS{n}"),
                ts.to_string(),
                "no valid child".to_string(),
                "—".to_string(),
                "—".to_string(),
                format!("{}/{}", out.pruned_count(), out.trials().len()),
            ]),
        }
    }
    println!("{}", table.to_markdown());
    Ok(())
}
