//! `fnas-serve` — run (and talk to) the multi-tenant NAS service.
//!
//! ```text
//! fnas-serve serve --listen 127.0.0.1:7464 --dir serve-root
//!     [--max-jobs N] [--expect-jobs N] [--quantum Q]
//!     [--lease-ttl-ms X] [--linger-ms X] [--max-buffered-rounds N]
//! fnas-serve submit --connect 127.0.0.1:7464 --shards 4 --rounds 2 \
//!     --batch 3 [job flags]
//! fnas-serve status|watch|cancel --connect 127.0.0.1:7464 [job flags]
//! fnas-serve jobs --connect 127.0.0.1:7464
//! ```
//!
//! `serve` hosts one journaled coordinator per submitted job under
//! `<dir>/jobs/<digest>/` and schedules a job-agnostic worker fleet
//! (`fnas-worker --fleet`) across them. The client subcommands identify
//! a job by its flags (`--preset`, `--trials`, `--seed`, `--budget-ms`,
//! `--device`) — the same flags in the same parser as every other bin,
//! so the digest printed by `submit` is the digest `status` derives.
//! `watch` polls `WatchProgress` until the job leaves the running
//! state, or until its reader closes stdout (`watch … | head -n 1`
//! exits 0).

use std::io::{self, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use fnas::job::cli::{emit, write_line, Args, JOB_USAGE};
use fnas::job::JobSpec;
use fnas_coord::{
    Clock, LeasePolicy, Response, WallClock, JOB_STATE_CANCELLED, JOB_STATE_FINISHED,
    JOB_STATE_RUNNING,
};
use fnas_serve::{
    cancel_job, job_status, submit_job, watch_progress, JobProgress, ServeOptions, Server,
};

const USAGE: &str = "usage: fnas-serve <serve|submit|status|watch|cancel|jobs> [options]
  serve      --listen <addr:port>    listen address (required)
             --dir <root>            serve root: per-job WALs, artifacts,
                                     oracle cache (required)
             --max-jobs <N>          concurrently running jobs before
                                     submissions get Retry (default 4)
             --expect-jobs <N>       exit after N jobs all finish or are
                                     cancelled (default 0 = serve forever)
             --quantum <Q>           DRR assignments per job visit (default 2)
             --lease-ttl-ms <X>      per-job lease TTL (default 5000)
             --linger-ms <X>         keep answering after the expected
                                     workload completes (default 500)
             --max-buffered-rounds <N>  per-job submit admission cap, in
                                     rounds (default 2)
  submit     --connect <addr:port>   plus --batch/--shards/--rounds and the
                                     job flags; prints the job digest
  status     --connect <addr:port>   one JobStatus, identified by job flags
                                     (or --job <digest>)
  watch      --connect <addr:port>   poll progress until the job is terminal
  cancel     --connect <addr:port>   stop scheduling the job
  jobs       --connect <addr:port>   list every admitted job";

fn usage() -> String {
    format!("{USAGE}\n{JOB_USAGE}")
}

struct Cli {
    listen: Option<String>,
    connect: Option<String>,
    dir: Option<PathBuf>,
    spec: JobSpec,
    job_override: Option<u64>,
    batch: u32,
    shards: u32,
    rounds: u64,
    opts: ServeOptions,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let (spec, rest) = JobSpec::from_args(args)?;
    let mut cli = Cli {
        listen: None,
        connect: None,
        dir: None,
        spec,
        job_override: None,
        batch: 8,
        shards: 4,
        rounds: 1,
        opts: ServeOptions::default(),
    };
    let mut a = Args::new(&rest);
    while let Some(flag) = a.next_flag() {
        match flag {
            "--listen" => cli.listen = Some(a.value()?.to_string()),
            "--connect" => cli.connect = Some(a.value()?.to_string()),
            "--dir" => cli.dir = Some(PathBuf::from(a.value()?)),
            "--job" => {
                let raw = a.value()?;
                let raw = raw.strip_prefix("0x").unwrap_or(raw);
                cli.job_override = Some(
                    u64::from_str_radix(raw, 16)
                        .map_err(|_| format!("--job: bad digest {raw:?}"))?,
                );
            }
            "--batch" => cli.batch = a.num::<u32>()?,
            "--shards" => cli.shards = a.num::<u32>()?,
            "--rounds" => cli.rounds = a.num::<u64>()?,
            "--max-jobs" => cli.opts.max_jobs = a.num::<usize>()?,
            "--expect-jobs" => cli.opts.expect_jobs = a.num::<usize>()?,
            "--quantum" => cli.opts.quantum = a.num::<u64>()?,
            "--lease-ttl-ms" => cli.opts.lease = LeasePolicy::with_ttl_ms(a.num::<u64>()?),
            "--linger-ms" => cli.opts.linger_ms = a.num::<u64>()?,
            "--max-buffered-rounds" => cli.opts.max_buffered_rounds = a.num::<usize>()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

impl Cli {
    fn connect(&self) -> Result<&str, String> {
        self.connect
            .as_deref()
            .ok_or_else(|| "--connect is required".to_string())
    }

    /// The job digest a client subcommand targets: `--job` wins, else
    /// it is derived from the job flags — the same derivation `submit`
    /// prints, so flags round-trip.
    fn job(&self) -> u64 {
        self.job_override.unwrap_or_else(|| self.spec.job_digest())
    }
}

fn state_label(state: u8) -> &'static str {
    match state {
        s if s == JOB_STATE_RUNNING => "running",
        s if s == JOB_STATE_FINISHED => "finished",
        s if s == JOB_STATE_CANCELLED => "cancelled",
        _ => "unknown",
    }
}

/// Renders a `JobInfo` answer: state line plus the decoded progress.
fn render_info(job: u64, state: u8, progress: &[u8]) -> String {
    match JobProgress::decode(progress) {
        Some(p) => format!("{} [{}]", p, state_label(state)),
        None => format!(
            "job {job:#018x}: {} (no progress published yet)",
            state_label(state)
        ),
    }
}

fn cmd_serve(cli: &Cli) -> Result<String, String> {
    let listen = cli.listen.as_deref().ok_or("serve needs --listen")?;
    let dir = cli.dir.as_deref().ok_or("serve needs --dir")?;
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let server = Arc::new(Server::new(dir, cli.opts.clone(), clock).map_err(|e| e.to_string())?);
    let listener = TcpListener::bind(listen).map_err(|e| e.to_string())?;
    eprintln!(
        "fnas-serve: serving on {listen}, root {} (max {} jobs{})",
        dir.display(),
        cli.opts.max_jobs,
        if cli.opts.expect_jobs > 0 {
            format!(", exiting after {} jobs", cli.opts.expect_jobs)
        } else {
            String::new()
        }
    );
    server.run(listener).map_err(|e| e.to_string())?;
    let jobs = server.jobs();
    let mut lines = vec![format!("served {} jobs:", jobs.len())];
    for (job, state) in jobs {
        lines.push(format!("  {job:#018x}: {}", state.label()));
    }
    Ok(lines.join("\n"))
}

fn cmd_submit(cli: &Cli) -> Result<String, String> {
    let addr = cli.connect()?;
    let response = submit_job(addr, &cli.spec, cli.batch, cli.shards, cli.rounds)
        .map_err(|e| e.to_string())?;
    match response {
        Response::JobAccepted { job } => Ok(format!("accepted job {job:#018x}")),
        Response::Retry { backoff_ms } => Err(format!(
            "server at capacity; retry in {backoff_ms} ms (job not admitted)"
        )),
        Response::Error { what } => Err(what),
        other => Err(format!("unexpected answer {other:?}")),
    }
}

fn cmd_status(cli: &Cli) -> Result<String, String> {
    let addr = cli.connect()?;
    match job_status(addr, cli.job()).map_err(|e| e.to_string())? {
        Response::JobInfo {
            job,
            state,
            progress,
        } => Ok(render_info(job, state, &progress)),
        Response::Error { what } => Err(what),
        other => Err(format!("unexpected answer {other:?}")),
    }
}

fn cmd_watch(cli: &Cli, out: &mut impl Write) -> Result<Option<String>, String> {
    let addr = cli.connect()?;
    let job = cli.job();
    watch(out, Duration::from_millis(500), || {
        watch_progress(addr, job).map_err(|e| e.to_string())
    })
}

/// Writes each new progress line `poll` answers to `out`, polling every
/// `period`, and returns the closing line once the job leaves the running
/// state. `Ok(None)` when `out`'s reader has gone (`watch … | head -n 1`):
/// no one is left to tell.
fn watch(
    out: &mut impl Write,
    period: Duration,
    mut poll: impl FnMut() -> Result<Response, String>,
) -> Result<Option<String>, String> {
    let mut last = String::new();
    loop {
        match poll()? {
            Response::JobInfo {
                job,
                state,
                progress,
            } => {
                let line = render_info(job, state, &progress);
                if line != last {
                    if !write_line(out, &line).map_err(|e| format!("writing stdout: {e}"))? {
                        return Ok(None);
                    }
                    last = line;
                }
                if state != JOB_STATE_RUNNING {
                    return Ok(Some(format!("job {job:#018x} is {}", state_label(state))));
                }
            }
            Response::Error { what } => return Err(what),
            other => return Err(format!("unexpected answer {other:?}")),
        }
        std::thread::sleep(period);
    }
}

fn cmd_cancel(cli: &Cli) -> Result<String, String> {
    let addr = cli.connect()?;
    match cancel_job(addr, cli.job()).map_err(|e| e.to_string())? {
        Response::Cancelled { job } => Ok(format!("cancelled job {job:#018x}")),
        Response::Error { what } => Err(what),
        other => Err(format!("unexpected answer {other:?}")),
    }
}

fn cmd_jobs(cli: &Cli) -> Result<String, String> {
    let addr = cli.connect()?;
    match fnas_serve::list_jobs(addr).map_err(|e| e.to_string())? {
        Response::Jobs { jobs } => {
            if jobs.is_empty() {
                return Ok("no jobs admitted".to_string());
            }
            let lines: Vec<String> = jobs
                .iter()
                .map(|(job, state)| format!("{job:#018x}: {}", state_label(*state)))
                .collect();
            Ok(lines.join("\n"))
        }
        Response::Error { what } => Err(what),
        other => Err(format!("unexpected answer {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let cli = match parse(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fnas-serve: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout();
    let result = match cmd.as_str() {
        "serve" => cmd_serve(&cli).map(Some),
        "submit" => cmd_submit(&cli).map(Some),
        "status" => cmd_status(&cli).map(Some),
        "watch" => cmd_watch(&cli, &mut out),
        "cancel" => cmd_cancel(&cli).map(Some),
        "jobs" => cmd_jobs(&cli).map(Some),
        other => {
            eprintln!("fnas-serve: unknown command {other:?}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(Some(msg)) => emit(&mut out, "fnas-serve", &msg),
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fnas-serve: {e}");
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
    fn parses_serve_flags() {
        let c = cli(
            "--listen 127.0.0.1:7464 --dir /tmp/serve --max-jobs 3 --expect-jobs 2 \
             --quantum 1 --lease-ttl-ms 800 --linger-ms 100 --max-buffered-rounds 1",
        )
        .unwrap();
        assert_eq!(c.listen.as_deref(), Some("127.0.0.1:7464"));
        assert_eq!(c.opts.max_jobs, 3);
        assert_eq!(c.opts.expect_jobs, 2);
        assert_eq!(c.opts.quantum, 1);
        assert_eq!(c.opts.lease.ttl_ms, 800);
        assert_eq!(c.opts.linger_ms, 100);
        assert_eq!(c.opts.max_buffered_rounds, 1);
    }

    #[test]
    fn client_flags_derive_the_job_digest() {
        let c =
            cli("--connect 127.0.0.1:7464 --trials 12 --seed 77 --batch 3 --shards 2 --rounds 2")
                .unwrap();
        assert_eq!((c.batch, c.shards, c.rounds), (3, 2, 2));
        assert_eq!(c.job(), c.spec.job_digest());
        // An explicit --job digest wins over the flags.
        let c = cli("--connect 127.0.0.1:7464 --job 0xdeadbeef").unwrap();
        assert_eq!(c.job(), 0xDEAD_BEEF);
        assert!(cli("--job zzz").is_err());
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(cli("--nope").is_err());
        let c = cli("").unwrap();
        assert!(cmd_serve(&c).unwrap_err().contains("--listen"));
        assert!(cmd_submit(&c).unwrap_err().contains("--connect"));
    }

    /// A stdout whose reader has gone.
    struct Closed;

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn watch_prints_new_lines_until_the_job_ends_or_the_reader_leaves() {
        let info = |state| Response::JobInfo {
            job: 7,
            state,
            progress: Vec::new(),
        };
        let mut answers = vec![
            info(JOB_STATE_FINISHED),
            info(JOB_STATE_RUNNING),
            info(JOB_STATE_RUNNING),
        ];
        let mut out = Vec::new();
        let end = watch(&mut out, Duration::ZERO, || Ok(answers.pop().unwrap()));
        assert_eq!(
            end,
            Ok(Some("job 0x0000000000000007 is finished".to_string()))
        );
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per change: {text:?}");

        // A job that runs forever: a closed reader still ends the loop.
        let running = || Ok(info(JOB_STATE_RUNNING));
        assert_eq!(watch(&mut Closed, Duration::ZERO, running), Ok(None));
    }
}
