//! `fnas-worker` — run shards for an `fnas-coord` or `fnas-serve`
//! endpoint.
//!
//! ```text
//! fnas-worker --connect 127.0.0.1:7463 --dir scratch --name w1
//! ```
//!
//! The worker is **job-agnostic** and takes no job flags: it polls with
//! `PollAny` and resolves each job from the spec bytes its assignment
//! carries, so one fleet serves every job an endpoint schedules.
//! `--workers` (evaluation threads) may differ per machine: shard results
//! are bit-identical for any worker count.

use std::path::PathBuf;
use std::process::ExitCode;

use fnas::job::cli::Args;
use fnas::search::BatchOptions;
use fnas_coord::{run_fleet_worker, WorkerOptions};

struct Cli {
    worker: WorkerOptions,
    opts: BatchOptions,
}

const USAGE: &str = "usage: fnas-worker --connect <addr:port> --dir <scratch-dir> [options]
  --name <s>              worker name (default: pid-derived)
  --workers <W>           evaluation threads (free to differ per machine)
  --heartbeat-ms <X>      lease heartbeat cadence (default 1000)
  --connect-retries <N>   request attempts before giving up (default 20)
  --connect-backoff-ms <X> base retry backoff, doubled per attempt up to
                          2 s (default 100) — the budget that rides out a
                          coordinator restart
  --store-dir <dir>       on-disk latency store shared across rounds
                          (free to differ per machine; never changes results)";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut connect = None;
    let mut dir = None;
    let mut name = None;
    let mut workers = None;
    let mut heartbeat_ms = 1_000u64;
    let mut connect_retries = None;
    let mut connect_backoff_ms = None;
    let mut store_dir = None;

    let mut a = Args::new(args);
    while let Some(flag) = a.next_flag() {
        match flag {
            "--connect" => connect = Some(a.value()?.to_string()),
            "--dir" => dir = Some(PathBuf::from(a.value()?)),
            "--name" => name = Some(a.value()?.to_string()),
            "--workers" => workers = Some(a.num::<usize>()?),
            "--heartbeat-ms" => heartbeat_ms = a.num::<u64>()?,
            "--connect-retries" => connect_retries = Some(a.num::<u32>()?),
            "--connect-backoff-ms" => connect_backoff_ms = Some(a.num::<u64>()?),
            "--store-dir" => store_dir = Some(PathBuf::from(a.value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let mut opts = BatchOptions::default();
    if let Some(w) = workers {
        opts = opts.with_workers(w);
    }
    let connect = connect.ok_or("--connect is required")?;
    let dir = dir.ok_or("--dir is required")?;
    let name = name.unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let mut worker = WorkerOptions::new(connect, name, dir);
    worker.heartbeat_ms = heartbeat_ms;
    if let Some(r) = connect_retries {
        worker.connect_retries = r;
    }
    if let Some(b) = connect_backoff_ms {
        worker.connect_backoff_ms = b;
    }
    worker.store_dir = store_dir;
    Ok(Cli { worker, opts })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fnas-worker: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_fleet_worker(&cli.opts, &cli.worker) {
        Ok(report) => {
            println!(
                "{}: ran {} shards ({} fresh, {} duplicate, {} stale), \
                 {} retries served over {} ms backoff{}",
                cli.worker.name,
                report.shards_run,
                report.fresh_results,
                report.duplicate_results,
                report.stale_results,
                report.retries_served,
                report.retry_sleep_ms,
                if report.coordinator_lost {
                    ", coordinator gone (run over)"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fnas-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_the_documented_flags() {
        let c = cli(
            "--connect 127.0.0.1:7463 --dir /tmp/w --name w1 --workers 2 --heartbeat-ms 200 \
             --connect-retries 40 --connect-backoff-ms 50 --store-dir /tmp/store",
        )
        .unwrap();
        assert_eq!(c.worker.addr, "127.0.0.1:7463");
        assert_eq!(c.worker.name, "w1");
        assert_eq!(c.worker.heartbeat_ms, 200);
        assert_eq!(c.worker.connect_retries, 40);
        assert_eq!(c.worker.connect_backoff_ms, 50);
        assert_eq!(
            c.worker.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/store"))
        );
        assert_eq!(c.opts.workers(), 2);
    }

    #[test]
    fn rejects_missing_connect_or_dir() {
        for bad in ["--dir /tmp/w", "--connect 1.2.3.4:5"] {
            assert!(cli(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// The job and run-shape flags of the removed pinned mode are unknown
    /// flags, so an old command line fails at start instead of quietly
    /// serving whatever job the endpoint hands out.
    #[test]
    fn pinned_mode_flags_are_unknown() {
        for flag in [
            "--preset",
            "--device",
            "--trials",
            "--seed",
            "--budget-ms",
            "--shards",
            "--rounds",
            "--batch",
            "--fleet",
        ] {
            let err = cli(&format!("--connect 127.0.0.1:7463 --dir /tmp/w {flag} 1"))
                .err()
                .unwrap_or_else(|| panic!("{flag} should be rejected"));
            assert_eq!(err, format!("unknown flag {flag}"));
        }
    }
}
