//! The FNAS benchmark: end-to-end and per-layer metrics of the search
//! stack on four fixed, seeded workloads with no simulated delays.
//!
//! ```text
//! cargo run --release --manifest-path fnasbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (each one process, closed loop, at most two search or fleet
//! workers plus one client thread):
//!
//! * `search-cold` — FPGA design dominates, no cache hits.
//! * `search-warm` — the controller and store reads dominate.
//! * `search-trained` — real child training dominates.
//! * `serve-two-jobs` — serve coordination dominates.
//!
//! A run sets the workload up (three times with `--trace 0`, reporting the
//! median as `setup_s`), then repeats it for `--seconds`. With `--trace 0`
//! it reports the end-to-end metrics as medians over the repetitions; with
//! `--trace 1` it alternates untraced and traced repetitions, reports the
//! per-layer metrics of the traced ones plus the tracing overhead, runs the
//! single-layer replays, and writes the spans to
//! `.bench_out/trace-<workload>-<seed>.json`. Every run checks its outputs
//! (reward-trace digests, merged checkpoints, exact work counters) and
//! prints one JSON result as its last line.

mod probes;
mod search;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use util::{median, result_json, Metric};

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Repetitions a run makes at least, whatever `--seconds` says (a traced
/// run makes this many untraced and this many traced ones).
const MIN_REPS: usize = 3;

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports its counts and times as 0. The end-to-end
/// metrics are the ones every workload has and none reads 0, so the
/// failure ratio (also the result's `attempted`/`failed`) and the serve
/// status latency are reported here.
const PER_LAYER: &[(&str, &str)] = &[
    ("controller.sample_us", "us"),
    ("controller.step_us", "us"),
    ("controller.unphased_s", "s"),
    ("fpga.design_builds", "count"),
    ("fpga.analyzer_calls", "count"),
    ("fpga.design_ms", "ms"),
    ("fpga.design_solo_ms", "ms"),
    ("fpga.design_contention", "ratio"),
    ("fpga.sim_ms", "ms"),
    ("exec.latency_phase_s", "s"),
    ("exec.accuracy_phase_s", "s"),
    ("exec.latency_hit_ratio", "ratio"),
    ("exec.accuracy_hit_ratio", "ratio"),
    ("exec.children_pruned", "count"),
    ("exec.children_trained", "count"),
    ("store.put_ms", "ms"),
    ("store.get_us", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("nn.train_calls", "count"),
    ("nn.train_ms_per_child", "ms"),
    ("nn.matmul_gflops", "GFLOP/s"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.encode_us", "us"),
    ("ckpt.decode_us", "us"),
    ("ckpt.merge_us", "us"),
    ("coord.shards_run", "count"),
    ("coord.journal_records", "count"),
    ("coord.leases_expired", "count"),
    ("coord.shards_redispatched", "count"),
    ("coord.duplicate_results", "count"),
    ("coord.retries_served", "count"),
    ("coord.useful_ratio", "ratio"),
    ("coord.shard_compute_ms", "ms"),
    ("coord.fleet_idle_ratio", "ratio"),
    ("serve.status_p50_ms", "ms"),
    ("serve.status_p90_ms", "ms"),
    ("serve.status_samples", "count"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// What one timed repetition of a workload produced.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) during the timed phase.
    pub cpu_s: f64,
    /// Child trials completed.
    pub trials: u64,
    /// Operations attempted (trials, plus client RPCs for serve).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Digest of the output the gate compares against the reference.
    pub digest: u128,
    /// Exact work counters: identical in every repetition, traced or not.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-layer values read from this repetition.
    pub layers: Vec<(&'static str, f64)>,
    /// Output gates this repetition failed.
    pub errors: Vec<String>,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs and references shared by every repetition.
    type Setup;
    /// What the single-layer replays need from a traced repetition.
    type Detail;

    /// Builds the inputs and output references under `dir`.
    fn setup(&self, seed: u64, dir: &Path) -> Result<Self::Setup>;
    /// The digest every repetition's output must match.
    fn reference(&self, setup: &Self::Setup) -> u128;
    /// Runs the workload once.
    fn rep(&self, setup: &Self::Setup, traced: bool, index: usize) -> Result<(Rep, Self::Detail)>;
    /// Replays single layers in isolation; returns per-layer values.
    fn replay(
        &self,
        setup: &Self::Setup,
        detail: &Self::Detail,
    ) -> Result<Vec<(&'static str, f64)>>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                })
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let usage = "usage: fnasbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let seconds = seconds.ok_or(usage)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}").into());
    }
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds,
        trace: trace.ok_or(usage)?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fnasbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_out").join(format!("work-{}", std::process::id()));
    let outcome = match args.workload.as_str() {
        "search-cold" => run(&search::SearchWorkload(search::Kind::Cold), &args, &work),
        "search-warm" => run(&search::SearchWorkload(search::Kind::Warm), &args, &work),
        "search-trained" => run(&search::SearchWorkload(search::Kind::Trained), &args, &work),
        "serve-two-jobs" => run(&serve::ServeWorkload, &args, &work),
        other => Err(format!(
            "unknown workload {other} (search-cold, search-warm, search-trained, serve-two-jobs)"
        )
        .into()),
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("fnasbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Sets up, repeats and checks one workload; returns the result line.
fn run<W: Workload>(w: &W, args: &Args, work: &Path) -> Result<String> {
    let provenance = format!(
        "workload={} seed={} nproc={} git_rev={} trace={}",
        args.workload,
        args.seed,
        util::nproc(),
        util::git_rev(),
        u8::from(args.trace)
    );
    println!("provenance: {provenance}");
    let mut setup_s = Vec::new();
    let mut setup = None;
    for i in 0..if args.trace { 1 } else { SETUPS } {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(w.setup(args.seed, &work.join(format!("setup-{i}")))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");
    let want = w.reference(&setup);

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut last_traced = None;
    // Peak resident set of each untraced repetition. Which threads happen
    // to overlap moves a process-lifetime peak by a megabyte from run to
    // run; the median over repetitions does not move with it. Where the
    // peak cannot be reset, the lifetime peak is reported instead.
    let mut rss_mb = Vec::new();
    let mut rss_per_rep = true;
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let count = |want: bool| reps.iter().filter(|(t, _)| *t == want).count();
        let enough = if args.trace {
            count(false) >= MIN_REPS && count(true) >= MIN_REPS
        } else {
            reps.len() >= MIN_REPS
        };
        if enough && start.elapsed() >= budget {
            break;
        }
        rss_per_rep &= util::reset_peak_rss().is_ok();
        trace::set_enabled(traced);
        let (rep, detail) = w.rep(&setup, traced, reps.len())?;
        trace::set_enabled(false);
        if traced {
            last_traced = Some(detail);
        } else {
            rss_mb.push(util::peak_rss_mb()?);
        }
        reps.push((traced, rep));
    }

    // Output gates: the reference digest, identical work counters in every
    // repetition (traced or not), and each repetition's own checks.
    let mut errors: Vec<String> = Vec::new();
    let first = &reps[0].1.counters;
    for (i, (traced, rep)) in reps.iter().enumerate() {
        if rep.digest != want {
            errors.push(format!(
                "rep {i}: output digest {:032x} != {want:032x}",
                rep.digest
            ));
        }
        if &rep.counters != first {
            errors.push(format!(
                "rep {i} (traced={traced}): work counters {:?} != {first:?}",
                rep.counters
            ));
        }
        errors.extend(rep.errors.iter().map(|e| format!("rep {i}: {e}")));
    }
    let counters: Vec<String> = first.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "reps: {} ({} traced); digest={want:032x}; counters: {}",
        reps.len(),
        reps.iter().filter(|(t, _)| *t).count(),
        counters.join(" ")
    );
    let per_rep: Vec<String> = reps
        .iter()
        .map(|(t, r)| {
            format!(
                "{:.1}{}",
                r.trials as f64 / r.wall_s,
                if *t { "*" } else { "" }
            )
        })
        .collect();
    println!("trials/s per rep (* traced): {}", per_rep.join(" "));
    if !rss_per_rep {
        println!("peak RSS could not be reset: peak_rss_mb is the process-lifetime peak");
    }
    for e in &errors {
        println!("GATE FAILED: {e}");
    }

    let attempted: u64 = reps.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();
    let tps = |traced: bool| {
        let v: Vec<f64> = reps
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r.trials as f64 / r.wall_s)
            .collect();
        median(&v)
    };
    let metrics = if args.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let mut values: Vec<(&str, f64)> = Vec::new();
        for (name, _) in PER_LAYER {
            let v: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            if !v.is_empty() {
                values.push((name, median(&v)));
            }
        }
        trace::set_enabled(true);
        let detail = last_traced.expect("a trace run makes traced repetitions");
        values.extend(w.replay(&setup, &detail)?);
        trace::set_enabled(false);
        let untraced = tps(false);
        values.push(("fail_ratio", util::ratio(failed as f64, attempted as f64)));
        values.push((
            "trace.overhead_pct",
            util::ratio(untraced - tps(true), untraced) * 100.0,
        ));
        let path =
            PathBuf::from(".bench_out").join(format!("trace-{}-{}.json", args.workload, args.seed));
        let (written, dropped) = trace::write_chrome(&path, &provenance)?;
        println!(
            "trace: {written} spans ({dropped} dropped) -> {}",
            path.display()
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: values
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
                unit,
            })
            .collect::<Vec<_>>()
    } else {
        let cpu: Vec<f64> = reps.iter().map(|(_, r)| r.cpu_s).collect();
        vec![
            Metric {
                name: "trials_per_s",
                value: tps(false),
                unit: "1/s",
            },
            Metric {
                name: "cpu_s",
                value: median(&cpu),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: if rss_per_rep {
                    median(&rss_mb)
                } else {
                    util::peak_rss_mb()?
                },
                unit: "MB",
            },
            Metric {
                name: "setup_s",
                value: median(&setup_s),
                unit: "s",
            },
        ]
    };
    for m in &metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(errors.is_empty(), attempted, failed, &metrics))
}
