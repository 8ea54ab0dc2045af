//! `fnas-ckpt` — inspect and compare `FNASCKPT` search snapshots.
//!
//! A checkpoint is an opaque binary blob (see [`fnas::checkpoint`] for the
//! layout); this tool renders one for humans: the header identity (shard
//! stamp included), where the run was (episode, RNG stream, baseline,
//! modelled cost), the controller/trainer shape, the persisted telemetry
//! counters, and a summary of every trial explored so far.
//!
//! Usage:
//!
//! * `fnas-ckpt <snapshot.ckpt>` — render one snapshot;
//! * `fnas-ckpt diff <a.ckpt> <b.ckpt>` — print the field-level deltas
//!   between two snapshots (e.g. consecutive rotated files of one run, or
//!   two shards of a sharded run).
//!
//! Exits non-zero (with the decode error on stderr) when a file is
//! missing, truncated, or not an FNAS checkpoint.

use std::path::Path;
use std::process::ExitCode;

use fnas::checkpoint::{SearchCheckpoint, MAGIC, VERSION};
use fnas::report::{pct, Table};
use fnas_exec::telemetry::{CounterRow, Scope};
use fnas_exec::TelemetrySnapshot;

/// Renders the full inspection report for a decoded checkpoint.
fn render(ckpt: &SearchCheckpoint) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };

    line(format!(
        "header: magic={:?} version={}",
        String::from_utf8_lossy(MAGIC),
        VERSION
    ));
    line(format!(
        "job: {:#018x} ({})",
        ckpt.job.job_digest(),
        ckpt.job
    ));
    line(format!(
        "shard: {}/{} (parent seed {})",
        ckpt.shard_index, ckpt.shard_count, ckpt.parent_seed
    ));
    line(format!("round: {}", ckpt.round));
    line(format!("run seed: {}", ckpt.run_seed));
    line(format!("next episode: {}", ckpt.next_episode));
    line(format!(
        "rng stream (xoshiro256++): [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
        ckpt.rng_state[0], ckpt.rng_state[1], ckpt.rng_state[2], ckpt.rng_state[3]
    ));
    line(format!(
        "reward baseline: {}",
        ckpt.baseline
            .map_or("(no observation yet)".to_string(), |b| format!("{b:+.4}"))
    ));
    line(format!(
        "modelled cost: {:.1}s training + {:.1}s analyzer = {:.1}s",
        ckpt.cost.training_seconds,
        ckpt.cost.analyzer_seconds,
        ckpt.cost.total_seconds()
    ));
    line(format!(
        "trainer: {} params, {} updates, adam t={}",
        ckpt.trainer.params.len(),
        ckpt.trainer.updates,
        ckpt.trainer.optimizer.t
    ));

    line(String::new());
    line("persisted telemetry counters:".to_string());
    let mut counters = Table::new(vec!["counter", "value"]);
    for row in persisted(&ckpt.telemetry) {
        counters.push_row(vec![row.label.to_string(), row.value.to_string()]);
    }
    line(counters.to_markdown());

    line(format!(
        "trials: {} total, {} trained, {} pruned",
        ckpt.trials.len(),
        ckpt.trials.iter().filter(|t| t.trained).count(),
        ckpt.trials.iter().filter(|t| !t.trained).count()
    ));
    let mut trials = Table::new(vec![
        "trial",
        "architecture",
        "latency",
        "accuracy",
        "reward",
    ]);
    for t in &ckpt.trials {
        trials.push_row(vec![
            t.index.to_string(),
            t.arch.describe(),
            t.latency.map_or("—".to_string(), |l| l.to_string()),
            t.accuracy.map_or("pruned".to_string(), pct),
            format!("{:+.3}", t.reward),
        ]);
    }
    line(trials.to_markdown());
    out
}

/// The counters FNASCKPT persists — the logical rows of the counter table
/// (shared by the render table and the diff).
fn persisted(t: &TelemetrySnapshot) -> impl Iterator<Item = CounterRow> {
    t.rows().into_iter().filter(|r| r.scope == Scope::Logical)
}

/// Renders the field-level deltas between two checkpoints; every line
/// after the first names one field that differs, so two identical
/// snapshots produce exactly `"identical"`.
fn diff(a: &SearchCheckpoint, b: &SearchCheckpoint) -> String {
    let mut lines: Vec<String> = Vec::new();
    // Cross-job comparisons lead loudly: every delta below a job
    // mismatch is expected, so the first line reframes the whole diff.
    if a.job != b.job {
        lines.push(format!(
            "JOB MISMATCH: {:#018x} ({}) → {:#018x} ({}) — \
             these snapshots belong to different search jobs",
            a.job.job_digest(),
            a.job,
            b.job.job_digest(),
            b.job
        ));
    }
    if (a.shard_index, a.shard_count) != (b.shard_index, b.shard_count) {
        lines.push(format!(
            "shard: {}/{} → {}/{}",
            a.shard_index, a.shard_count, b.shard_index, b.shard_count
        ));
    }
    if a.parent_seed != b.parent_seed {
        lines.push(format!(
            "parent seed: {:#x} → {:#x}",
            a.parent_seed, b.parent_seed
        ));
    }
    if a.round != b.round {
        lines.push(format!(
            "round: {} → {} (snapshots belong to different synchronous rounds)",
            a.round, b.round
        ));
    }
    if a.run_seed != b.run_seed {
        lines.push(format!("run seed: {:#x} → {:#x}", a.run_seed, b.run_seed));
    }
    if a.next_episode != b.next_episode {
        lines.push(format!(
            "next episode: {} → {} ({:+})",
            a.next_episode,
            b.next_episode,
            b.next_episode as i128 - a.next_episode as i128
        ));
    }
    if a.rng_state != b.rng_state {
        lines.push("rng stream: diverged".to_string());
    }
    if a.baseline.map(f32::to_bits) != b.baseline.map(f32::to_bits) {
        let show = |x: Option<f32>| x.map_or("(none)".to_string(), |v| format!("{v:+.4}"));
        lines.push(format!(
            "reward baseline: {} → {}",
            show(a.baseline),
            show(b.baseline)
        ));
    }
    if a.cost != b.cost {
        lines.push(format!(
            "modelled cost: training {:+.1}s, analyzer {:+.1}s",
            b.cost.training_seconds - a.cost.training_seconds,
            b.cost.analyzer_seconds - a.cost.analyzer_seconds
        ));
    }
    if a.trainer.params.len() != b.trainer.params.len() {
        lines.push(format!(
            "trainer shape: {} → {} params",
            a.trainer.params.len(),
            b.trainer.params.len()
        ));
    } else if a.trainer.params != b.trainer.params {
        let differing = a
            .trainer
            .params
            .iter()
            .zip(&b.trainer.params)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        let max_abs = a
            .trainer
            .params
            .iter()
            .zip(&b.trainer.params)
            .map(|(x, y)| (y - x).abs())
            .fold(0.0f32, f32::max);
        lines.push(format!(
            "trainer params: {differing} of {} differ (max |Δ| {max_abs:.3e})",
            a.trainer.params.len()
        ));
    }
    if a.trainer.updates != b.trainer.updates {
        lines.push(format!(
            "trainer updates: {} → {}",
            a.trainer.updates, b.trainer.updates
        ));
    }
    if a.trainer.optimizer.t != b.trainer.optimizer.t {
        lines.push(format!(
            "adam t: {} → {}",
            a.trainer.optimizer.t, b.trainer.optimizer.t
        ));
    }
    for (ra, rb) in persisted(&a.telemetry).zip(persisted(&b.telemetry)) {
        let (name, va, vb) = (ra.label, ra.value, rb.value);
        if va != vb {
            lines.push(format!(
                "telemetry {name}: {va} → {vb} ({:+})",
                vb as i128 - va as i128
            ));
        }
    }
    if a.trials != b.trials {
        lines.push(format!(
            "trials: {} → {} ({:+})",
            a.trials.len(),
            b.trials.len(),
            b.trials.len() as i128 - a.trials.len() as i128
        ));
    }

    if lines.is_empty() {
        return "identical\n".to_string();
    }
    let mut out = format!("{} fields differ:\n", lines.len());
    for l in lines {
        out.push_str("  ");
        out.push_str(&l);
        out.push('\n');
    }
    out
}

fn usage() -> ExitCode {
    eprintln!("usage: fnas-ckpt <snapshot.ckpt>");
    eprintln!("       fnas-ckpt diff <a.ckpt> <b.ckpt>");
    ExitCode::from(2)
}

fn load(path: &str) -> Option<SearchCheckpoint> {
    match SearchCheckpoint::load(Path::new(path)) {
        Ok(ckpt) => Some(ckpt),
        Err(e) => {
            eprintln!("fnas-ckpt: {path}: {e}");
            None
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [path] if path != "diff" => match load(path) {
            Some(ckpt) => {
                print!("{}", render(&ckpt));
                ExitCode::SUCCESS
            }
            None => ExitCode::FAILURE,
        },
        [mode, a, b] if mode == "diff" => match (load(a), load(b)) {
            (Some(a), Some(b)) => {
                print!("{}", diff(&a, &b));
                ExitCode::SUCCESS
            }
            _ => ExitCode::FAILURE,
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use fnas::experiment::ExperimentPreset;
    use fnas::search::{BatchOptions, CheckpointOptions, SearchConfig, Searcher};

    use super::*;

    #[test]
    fn renders_every_section_of_a_real_checkpoint() {
        let dir = std::env::temp_dir().join(format!("fnas-ckpt-bin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inspect.ckpt");

        let preset = ExperimentPreset::mnist().with_trials(8);
        let config = SearchConfig::fnas(preset, 10.0).with_seed(9);
        let mut searcher = Searcher::surrogate(&config).unwrap();
        let opts = BatchOptions::sequential().with_batch_size(4);
        searcher
            .run_batched_checkpointed(&config, &opts, &CheckpointOptions::new(&path))
            .unwrap();

        let ckpt = SearchCheckpoint::load(&path).unwrap();
        let report = render(&ckpt);
        assert!(report.contains("magic=\"FNASCKPT\" version=4"));
        assert!(
            report.contains(&format!(
                "job: {:#018x} (mnist, rL 10 ms, 8 trials, seed 9)",
                config.job().job_digest()
            )),
            "{report}"
        );
        assert!(report.contains("shard: 0/1 (parent seed 9)"));
        assert!(report.contains("round: 0"));
        assert!(report.contains("run seed: 9"));
        assert!(report.contains("next episode: 2"));
        assert!(report.contains("rng stream (xoshiro256++): [0x"));
        assert!(report.contains("| children sampled | 8 |"));
        assert!(report.contains("trials: 8 total,"));
        // One table row per trial, in exploration order.
        for i in 0..8 {
            assert!(report.contains(&format!("| {i} | ")), "missing trial {i}");
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_survives_an_empty_fresh_checkpoint() {
        let ckpt = SearchCheckpoint {
            shard_index: 0,
            shard_count: 1,
            parent_seed: 0,
            round: 0,
            job: Default::default(),
            run_seed: 0,
            next_episode: 0,
            rng_state: [0; 4],
            baseline: None,
            cost: Default::default(),
            trainer: fnas_controller::reinforce::TrainerState {
                params: vec![],
                optimizer: Default::default(),
                updates: 0,
            },
            telemetry: Default::default(),
            trials: vec![],
        };
        let report = render(&ckpt);
        assert!(report.contains("(no observation yet)"));
        assert!(report.contains("trials: 0 total, 0 trained, 0 pruned"));
    }

    #[test]
    fn diff_of_identical_snapshots_is_empty_and_deltas_are_reported() {
        let dir = std::env::temp_dir().join(format!("fnas-ckpt-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let early = dir.join("early.ckpt");
        let late = dir.join("late.ckpt");

        let preset = ExperimentPreset::mnist().with_trials(8);
        let config = SearchConfig::fnas(preset, 10.0).with_seed(9);
        let opts = BatchOptions::sequential().with_batch_size(4);
        let mut searcher = Searcher::surrogate(&config).unwrap();
        searcher
            .run_batched_checkpointed(
                &config,
                &opts,
                &CheckpointOptions::new(&early).with_every_episodes(2),
            )
            .unwrap();
        let mut searcher = Searcher::surrogate(&config).unwrap();
        searcher
            .run_batched_checkpointed(&config, &opts, &CheckpointOptions::new(&late))
            .unwrap();

        let a = SearchCheckpoint::load(&early).unwrap();
        let b = SearchCheckpoint::load(&late).unwrap();
        assert_eq!(diff(&a, &a), "identical\n");
        // `early` checkpointed only at episode 2; `late` every episode, so
        // its live file is also the episode-2 state but has seen one more
        // write. Counters, not trajectory, are the only delta.
        let d = diff(&a, &b);
        assert!(
            d.contains("telemetry checkpoints written: 1 → 2 (+1)"),
            "{d}"
        );
        assert!(!d.contains("trainer params"), "{d}");
        assert!(!d.contains("rng stream"), "{d}");

        // A genuinely different trajectory reports parameter deltas.
        let other_config =
            SearchConfig::fnas(ExperimentPreset::mnist().with_trials(8), 10.0).with_seed(10);
        let mut searcher = Searcher::surrogate(&other_config).unwrap();
        searcher
            .run_batched_checkpointed(&other_config, &opts, &CheckpointOptions::new(&late))
            .unwrap();
        let c = SearchCheckpoint::load(&late).unwrap();
        let d = diff(&a, &c);
        // The seed is identity-bearing, so this is a cross-job diff —
        // flagged loudly on the very first delta line.
        assert!(d.lines().nth(1).unwrap().contains("JOB MISMATCH"), "{d}");
        assert!(d.contains("seed 9) → "), "{d}");
        assert!(d.contains("run seed: 0x9 → 0xa"), "{d}");
        assert!(d.contains("trainer params"), "{d}");
        assert!(d.contains("rng stream: diverged"), "{d}");

        // Round mismatches get an explicit, round-aware line.
        let mut rounded = a.clone();
        rounded.round = 3;
        let d = diff(&a, &rounded);
        assert!(
            d.contains("round: 0 → 3 (snapshots belong to different synchronous rounds)"),
            "{d}"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
