//! Maintenance CLI for an `fnas-store` directory.
//!
//! ```text
//! fnas-store stat   --dir DIR
//! fnas-store verify --dir DIR
//! fnas-store gc     --dir DIR --max-bytes BYTES
//! ```
//!
//! The cache lives in append-only packs, `objects/<pid>-<n>.pack`, one
//! per store handle that wrote. `stat` counts distinct records and pack
//! bytes. `verify` exits non-zero if a pack holds a damaged frame that a
//! valid one follows; a torn tail (a crash mid-append) and files of the
//! old one-file-per-record layout are reported but are not a failure
//! (readers never see them). `gc` compacts: it keeps the newest records
//! that fit the byte budget in one fresh pack, then deletes the other
//! packs and the old layout's files and emptied directories.
//!
//! Maintenance (`verify`, `gc`) covers `objects/` only: the job-scoped
//! `jobs/<digest>/` artifact namespace is
//! owned by the search jobs that wrote it, never by cache maintenance.
//! The namespace is still accounted for — `stat` reports per-job
//! artifact counts and bytes alongside the object tree, and `gc` states
//! how much artifact data it deliberately skipped.

#![forbid(unsafe_code)]

use std::env;
use std::io;
use std::process::ExitCode;

use fnas_cliutil::{emit, Args};
use fnas_store::DiskStore;

const USAGE: &str = "usage:
  fnas-store stat   --dir DIR
  fnas-store verify --dir DIR
  fnas-store gc     --dir DIR --max-bytes BYTES";

struct Cli {
    command: String,
    dir: String,
    max_bytes: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut command = None;
    let mut dir = None;
    let mut max_bytes = None;
    let mut a = Args::new(args);
    while let Some(arg) = a.next_flag() {
        match arg {
            "--dir" => dir = Some(a.value()?.to_string()),
            "--max-bytes" => max_bytes = Some(a.num::<u64>()?),
            "stat" | "verify" | "gc" if command.is_none() => {
                command = Some(arg.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let command = command.ok_or("missing command")?;
    let dir = dir.ok_or("missing --dir")?;
    if command == "gc" && max_bytes.is_none() {
        return Err("gc needs --max-bytes".to_string());
    }
    Ok(Cli {
        command,
        dir,
        max_bytes,
    })
}

/// Runs the command: its report for stdout, and whether it passed.
fn run(cli: &Cli) -> Result<(String, bool), String> {
    let store = DiskStore::open(&cli.dir).map_err(|err| format!("open {}: {err}", cli.dir))?;
    match cli.command.as_str() {
        "stat" => {
            let stat = store.stat().map_err(|err| format!("stat: {err}"))?;
            let mut lines = vec![
                format!(
                    "{}: {} records in {} packs, {} bytes, {} old-layout files",
                    cli.dir, stat.records, stat.packs, stat.bytes, stat.litter
                ),
                format!(
                    "jobs: {} job dirs, {} artifacts, {} bytes",
                    stat.jobs, stat.artifacts, stat.artifact_bytes
                ),
            ];
            for job in store.job_stats().map_err(|err| format!("stat: {err}"))? {
                lines.push(format!(
                    "  job {:#018x}: {} artifacts, {} bytes",
                    job.job, job.files, job.bytes
                ));
            }
            Ok((lines.join("\n"), true))
        }
        "verify" => {
            let report = store.verify().map_err(|err| format!("verify: {err}"))?;
            let mut lines: Vec<String> = report
                .corrupt
                .iter()
                .map(|path| format!("corrupt: {}", path.display()))
                .collect();
            lines.push(format!(
                "{}: {} valid frames, {} corrupt packs, {} torn-tail bytes, \
                 {} old-layout files — {}",
                cli.dir,
                report.valid,
                report.corrupt.len(),
                report.torn_bytes,
                report.litter,
                if report.is_ok() { "OK" } else { "FAILED" }
            ));
            Ok((lines.join("\n"), report.is_ok()))
        }
        "gc" => {
            let budget = cli.max_bytes.expect("validated in parse_args");
            let report = store.gc(budget).map_err(|err| format!("gc: {err}"))?;
            let summary = format!(
                "{}: evicted {} records, reclaimed {} bytes, removed {} old-layout files, \
                 {} bytes remain\n\
                 skipped {} job artifacts ({} bytes) — artifacts are owned by \
                 their jobs, never gc'd",
                cli.dir,
                report.evicted,
                report.reclaimed_bytes,
                report.litter_removed,
                report.remaining_bytes,
                report.artifacts_skipped,
                report.artifact_bytes_skipped
            );
            Ok((summary, true))
        }
        other => Err(format!("unknown command: {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(cli) => match run(&cli) {
            Ok((report, passed)) => {
                let written = emit(&mut io::stdout(), "fnas-store", &report);
                if passed {
                    written
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(err) => {
                eprintln!("fnas-store: {err}");
                ExitCode::FAILURE
            }
        },
        Err(err) => {
            eprintln!("fnas-store: {err}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_each_command() {
        let cli = parse_args(&strings(&["stat", "--dir", "/tmp/s"])).unwrap();
        assert_eq!((cli.command.as_str(), cli.dir.as_str()), ("stat", "/tmp/s"));
        let cli = parse_args(&strings(&["verify", "--dir", "d"])).unwrap();
        assert_eq!(cli.command, "verify");
        let cli = parse_args(&strings(&["gc", "--dir", "d", "--max-bytes", "4096"])).unwrap();
        assert_eq!(cli.max_bytes, Some(4096));
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&strings(&[])).is_err());
        assert!(parse_args(&strings(&["stat"])).is_err());
        assert!(parse_args(&strings(&["gc", "--dir", "d"])).is_err());
        assert!(parse_args(&strings(&["prune", "--dir", "d"])).is_err());
        assert!(parse_args(&strings(&["gc", "--dir", "d", "--max-bytes", "x"])).is_err());
    }
}
