//! `fnas-coord` — coordinate an iterated, sharded FNAS search.
//!
//! ```text
//! fnas-coord serve --listen 127.0.0.1:7463 --dir out \
//!     --shards 4 --rounds 2 [config flags]
//! fnas-coord local --dir out --shards 4 --rounds 2 [config flags]
//! fnas-coord journal <stat|verify> --journal-dir out/jobs/<digest>/wal
//! ```
//!
//! `serve` is a one-job [`Server`] rooted at `--dir`: it admits its own
//! job, leases shards to `fnas-worker` processes with a wall-clock TTL,
//! re-dispatches stragglers, merges each round at the barrier and writes
//! the final checkpoint to `<dir>/merged.ckpt`. It is always crash-safe:
//! every transition is journaled under `<dir>/jobs/<digest>/wal`, and
//! re-running the same command after a kill resumes mid-round (settled
//! shards stay settled, pre-crash leases are epoch-fenced). `local` runs
//! the identical rounds sequentially in-process — the reference a
//! coordinated run must match byte for byte (compare the two files, or
//! their SHA-256s, to audit a deployment). `journal` inspects a journal
//! directory offline, mirroring `fnas-store stat|verify`.
//!
//! The job flags (`--preset`, `--device`, `--trials`, `--seed`,
//! `--budget-ms`) identify the search (the job digest); they plus
//! `--batch`/`--shards`/`--rounds` form the run fingerprint. Workers
//! take none of them: each assignment carries the job's spec bytes.

use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use fnas::job::cli::{emit, Args, JOB_USAGE};
use fnas::job::JobSpec;
use fnas::search::{BatchOptions, SearchConfig};
use fnas_coord::{run_rounds_local, Clock, Journal, LeasePolicy, Request, Response, WallClock};
use fnas_serve::{ServeOptions, Server};

struct Cli {
    listen: Option<String>,
    dir: PathBuf,
    config: SearchConfig,
    opts: BatchOptions,
    shards: u32,
    rounds: u64,
    lease_ttl_ms: u64,
    straggle_after_ms: Option<u64>,
    linger_ms: u64,
    max_buffered_rounds: usize,
}

const USAGE: &str = "usage: fnas-coord <serve|local> --dir <out-dir> [options]
  common     --shards <N>            shards per round (default 4)
             --rounds <R>            synchronous rounds (default 1)
             --batch <B>             children per episode (default 8)
  serve      --listen <addr:port>    listen address (required); the journal
                                     lives in <dir>/jobs/<digest>/wal, so
                                     re-running the command after a kill resumes
             --lease-ttl-ms <X>      lease TTL (default 5000)
             --straggle-after-ms <X> speculate after (default ttl/2)
             --linger-ms <X>         keep answering after finish (default 500)
             --max-buffered-rounds <N>  cap on concurrently buffered submit
                                     payloads, in rounds (default 2)
  local      --workers <W>           evaluation workers (default: cores)
  journal    <stat|verify> --journal-dir <d>  inspect a journal offline";

/// The full usage block: bin-specific flags plus the shared job flags.
fn usage() -> String {
    format!("{USAGE}\n{JOB_USAGE}")
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let (job, rest) = JobSpec::from_args(args)?;
    let config = job.resolve().map_err(|e| e.to_string())?;

    let mut listen = None;
    let mut dir = None;
    let mut batch = None;
    let mut workers = None;
    let mut shards = 4u32;
    let mut rounds = 1u64;
    let mut lease_ttl_ms = 5_000u64;
    let mut straggle_after_ms = None;
    let mut linger_ms = 500u64;
    let mut max_buffered_rounds = 2usize;

    let mut a = Args::new(&rest);
    while let Some(flag) = a.next_flag() {
        match flag {
            "--listen" => listen = Some(a.value()?.to_string()),
            "--dir" => dir = Some(PathBuf::from(a.value()?)),
            "--batch" => batch = Some(a.num::<usize>()?),
            "--workers" => workers = Some(a.num::<usize>()?),
            "--shards" => shards = a.num::<u32>()?,
            "--rounds" => rounds = a.num::<u64>()?,
            "--lease-ttl-ms" => lease_ttl_ms = a.num::<u64>()?,
            "--straggle-after-ms" => straggle_after_ms = Some(a.num::<u64>()?),
            "--linger-ms" => linger_ms = a.num::<u64>()?,
            "--max-buffered-rounds" => max_buffered_rounds = a.num::<usize>()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let mut opts = BatchOptions::default();
    if let Some(w) = workers {
        opts = opts.with_workers(w);
    }
    if let Some(b) = batch {
        opts = opts.with_batch_size(b);
    }
    Ok(Cli {
        listen,
        dir: dir.ok_or("--dir is required")?,
        config,
        opts,
        shards,
        rounds,
        lease_ttl_ms,
        straggle_after_ms,
        linger_ms,
        max_buffered_rounds,
    })
}

fn cmd_serve(cli: &Cli) -> Result<String, String> {
    let listen = cli.listen.as_deref().ok_or("serve needs --listen")?;
    let mut lease = LeasePolicy::with_ttl_ms(cli.lease_ttl_ms);
    if let Some(s) = cli.straggle_after_ms {
        lease.straggle_after_ms = s;
    }
    let opts = ServeOptions {
        max_jobs: 1,
        expect_jobs: 1,
        quantum: 1,
        backoff_ms: 50,
        linger_ms: cli.linger_ms,
        lease,
        max_buffered_rounds: cli.max_buffered_rounds,
    };
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let server = Arc::new(Server::new(&cli.dir, opts, clock).map_err(|e| e.to_string())?);
    // Bind before admitting, so a restart that finds the port still
    // draining fails without starting a journal epoch.
    let listener = TcpListener::bind(listen).map_err(|e| e.to_string())?;
    let admitted = server.handle(&Request::SubmitJob {
        spec: cli.config.job().encode(),
        batch: u32::try_from(cli.opts.batch_size()).map_err(|_| "--batch is too large")?,
        shards: cli.shards,
        rounds: cli.rounds,
    });
    let job = match admitted {
        Response::JobAccepted { job } => job,
        Response::Error { what } => return Err(what),
        other => return Err(format!("job not admitted: {other:?}")),
    };
    let coordinator = server
        .coordinator(job)
        .expect("an admitted job has a coordinator");
    eprintln!(
        "fnas-coord: serving {} shards x {} rounds on {listen} \
         (job {job:#018x} \"{}\", fingerprint {:#018x}, epoch {}, {} completed rounds recovered)",
        cli.shards,
        cli.rounds,
        cli.config.job(),
        coordinator.fingerprint(),
        coordinator.epoch(),
        coordinator.rounds_recovered()
    );
    server.run(listener).map_err(|e| e.to_string())?;
    let merged = coordinator
        .finished_checkpoint()
        .ok_or_else(|| format!("job {job:#018x} was cancelled before it finished"))?;
    let out = cli.dir.join("merged.ckpt");
    merged.save(&out).map_err(|e| e.to_string())?;
    let counters: Vec<String> = coordinator
        .telemetry()
        .snapshot()
        .rows()
        .into_iter()
        .filter(|r| r.value != 0)
        .map(|r| format!("{} {}", r.label, r.value))
        .collect();
    Ok(format!(
        "coordinated {} shards x {} rounds: {} trials, wrote {}\ncoord: {}",
        cli.shards,
        cli.rounds,
        merged.trials.len(),
        out.display(),
        counters.join(" | ")
    ))
}

fn cmd_journal(rest: &[String]) -> Result<String, String> {
    let Some((sub, flags)) = rest.split_first() else {
        return Err("journal needs a subcommand: stat or verify".to_string());
    };
    let mut dir = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--journal-dir" => {
                dir = Some(PathBuf::from(
                    it.next().ok_or("--journal-dir needs a value")?,
                ));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let dir = dir.ok_or("--journal-dir is required")?;
    match sub.as_str() {
        "stat" => {
            let s = Journal::stat(&dir).map_err(|e| e.to_string())?;
            Ok(format!(
                "journal {}: {} records ({} epochs, {} round starts, {} settlements, \
                 {} merges, {} finishes)\n\
                 wal: {} bytes ({} clean)\n\
                 spills: {} files, {} bytes | {} tmp",
                dir.display(),
                s.records,
                s.epochs,
                s.round_starts,
                s.shard_settlements,
                s.round_merges,
                s.finishes,
                s.wal_bytes,
                s.clean_wal_bytes,
                s.spill_files,
                s.spill_bytes,
                s.tmp_files,
            ))
        }
        "verify" => {
            let v = Journal::verify(&dir).map_err(|e| e.to_string())?;
            let tail = match v.truncated_at {
                // A dirty tail is an expected crash artifact, not a
                // verification failure: the next open drops it.
                Some(at) => format!(
                    "tail: cut at byte {at} ({} dirty bytes will be dropped on restart)",
                    v.truncated_tail_bytes
                ),
                None => "tail: clean".to_string(),
            };
            let spills = format!(
                "spills: {}/{} referenced valid | {} orphan | {} tmp",
                v.spills_valid,
                v.spills_valid + v.spills_bad.len() as u64,
                v.orphan_spills,
                v.tmp_files,
            );
            let msg = format!(
                "journal {}: {} records decoded\n{tail}\n{spills}",
                dir.display(),
                v.records
            );
            if v.is_ok() {
                Ok(msg)
            } else {
                let bad: Vec<String> = v
                    .spills_bad
                    .iter()
                    .map(|p| p.display().to_string())
                    .collect();
                Err(format!(
                    "{msg}\nbad spills (those shards re-run on recovery):\n  {}",
                    bad.join("\n  ")
                ))
            }
        }
        other => Err(format!("unknown journal subcommand {other:?}")),
    }
}

fn cmd_local(cli: &Cli) -> Result<String, String> {
    let merged = run_rounds_local(&cli.config, &cli.opts, cli.shards, cli.rounds, &cli.dir)
        .map_err(|e| e.to_string())?;
    let out = cli.dir.join("merged.ckpt");
    merged.save(&out).map_err(|e| e.to_string())?;
    Ok(format!(
        "ran {} shards x {} rounds in-process: {} trials, wrote {}",
        cli.shards,
        cli.rounds,
        merged.trials.len(),
        out.display()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // `journal` takes only --journal-dir, not the run flags.
    let result = if cmd == "journal" {
        cmd_journal(rest)
    } else {
        let cli = match parse(rest) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("fnas-coord: {e}\n{}", usage());
                return ExitCode::from(2);
            }
        };
        match cmd.as_str() {
            "serve" => cmd_serve(&cli),
            "local" => cmd_local(&cli),
            other => {
                eprintln!("fnas-coord: unknown command {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    };
    match result {
        Ok(msg) => emit(&mut io::stdout(), "fnas-coord", &msg),
        Err(e) => {
            eprintln!("fnas-coord: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(extra: &str) -> Result<Cli, String> {
        let args: Vec<String> = extra.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_the_documented_flags() {
        let c = cli(
            "--dir /tmp/x --listen 127.0.0.1:7463 --shards 4 --rounds 2 --trials 24 \
             --seed 77 --batch 3 --lease-ttl-ms 2000 --straggle-after-ms 600 --linger-ms 100 \
             --max-buffered-rounds 3",
        )
        .unwrap();
        assert_eq!(c.listen.as_deref(), Some("127.0.0.1:7463"));
        assert_eq!((c.shards, c.rounds), (4, 2));
        assert_eq!(c.config.seed(), 77);
        assert_eq!(c.config.preset().trials(), 24);
        assert_eq!(c.opts.batch_size(), 3);
        assert_eq!(c.lease_ttl_ms, 2000);
        assert_eq!(c.straggle_after_ms, Some(600));
        assert_eq!(c.linger_ms, 100);
        assert_eq!(c.max_buffered_rounds, 3);
    }

    #[test]
    fn journal_subcommand_stats_and_verifies_a_directory() {
        let dir = std::env::temp_dir().join(format!("fnas-coord-bin-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut journal, _) = Journal::open(&dir).unwrap();
            journal
                .append(&fnas_coord::WalRecord::EpochStarted {
                    epoch: 0,
                    fingerprint: 42,
                    job: 7,
                })
                .unwrap();
            let sum = journal.spill_shard(0, 0, b"shard").unwrap();
            journal
                .append(&fnas_coord::WalRecord::ShardSettled {
                    epoch: 0,
                    round: 0,
                    shard: 0,
                    len: 5,
                    checksum: sum,
                })
                .unwrap();
        }
        let args = |s: String| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let stat = cmd_journal(&args(format!("stat --journal-dir {}", dir.display()))).unwrap();
        assert!(stat.contains("2 records"), "{stat}");
        assert!(stat.contains("1 settlements"), "{stat}");
        let verify = cmd_journal(&args(format!("verify --journal-dir {}", dir.display()))).unwrap();
        assert!(verify.contains("tail: clean"), "{verify}");
        assert!(verify.contains("1/1 referenced valid"), "{verify}");
        // A torn tail is reported but does not fail verification…
        let wal = fnas_coord::journal::wal_path(&dir);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(b"torn");
        std::fs::write(&wal, &bytes).unwrap();
        let verify = cmd_journal(&args(format!("verify --journal-dir {}", dir.display()))).unwrap();
        assert!(verify.contains("4 dirty bytes"), "{verify}");
        // …but a corrupt referenced spill does.
        let spill = dir
            .join("shards")
            .join(fnas_coord::journal::spill_file(0, 0));
        std::fs::write(&spill, b"garbage").unwrap();
        let err =
            cmd_journal(&args(format!("verify --journal-dir {}", dir.display()))).unwrap_err();
        assert!(err.contains("bad spills"), "{err}");
        assert!(cmd_journal(&args("stat".to_string())).is_err());
        assert!(cmd_journal(&[]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_invocations() {
        for bad in [
            "--shards 2",                          // no --dir
            "--dir /tmp/x --nope",                 // unknown flag
            "--dir /tmp/x --rounds",               // missing value
            "--dir /tmp/x --journal-dir /tmp/wal", // the journal is always on
            "--dir /tmp/x --preset tpu",
        ] {
            assert!(cli(bad).is_err(), "{bad:?} should be rejected");
        }
        // serve without --listen fails at dispatch, not parse.
        let c = cli("--dir /tmp/x").unwrap();
        assert!(cmd_serve(&c).unwrap_err().contains("--listen"));
    }

    #[test]
    fn local_runs_a_tiny_coordinated_sweep() {
        let dir = std::env::temp_dir().join(format!("fnas-coord-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = cli(&format!(
            "--dir {} --shards 2 --rounds 2 --trials 8 --seed 5 --batch 4 --workers 0",
            dir.display()
        ))
        .unwrap();
        let msg = cmd_local(&c).unwrap();
        assert!(msg.contains("2 shards x 2 rounds"), "{msg}");
        assert!(msg.contains("16 trials"), "{msg}");
        assert!(dir.join("merged.ckpt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
