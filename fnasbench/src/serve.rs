//! `serve-two-jobs`: one in-process `fnas-serve` daemon runs two
//! differently-specced MNIST jobs on a 2-worker fleet over loopback TCP,
//! while a closed-loop watcher client polls `JobStatus`.
//!
//! Coordination dominates: framing, the per-job journal and its fsyncs,
//! the checkpoint codec and merge, the deficit-round-robin scheduler and
//! the round barriers. Each job's published `merged.ckpt` must be
//! byte-identical to the in-process reference set-up builds with
//! `run_rounds_local`.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fnas::checkpoint::SearchCheckpoint;
use fnas::job::JobSpec;
use fnas::search::{BatchOptions, SearchConfig, ShardSpec};
use fnas_coord::{
    init_for_round, run_fleet_worker, run_round_shard, run_rounds_local, Clock, Journal,
    LeasePolicy, Response, WallClock, WorkerOptions, WorkerReport, JOB_STATE_FINISHED,
};
use fnas_serve::{client, JobProgress, ServeOptions, Server};
use fnas_store::{digest128, Store};

use crate::util::{cpu_s, median, percentile, ratio};
use crate::{trace, Rep, Workload};

/// Fleet workers: one per vCPU of the 2-vCPU reference machine.
const WORKERS: usize = 2;
const SHARDS: u32 = 4;
const ROUNDS: u64 = 8;
/// Trials per job and round (split over the shards).
const JOB_TRIALS: usize = 128;
const BATCH: u32 = 8;
/// The daemon's `Wait` backoff, which is also the fleet's poll interval.
const BACKOFF_MS: u64 = 10;
/// At least the fleet's poll interval, so every worker hears `Finished`
/// before the daemon leaves (a worker that misses it falls into
/// connect-retry backoff instead of exiting).
const LINGER_MS: u64 = 20 * BACKOFF_MS;
/// Lease heartbeat cadence of the fleet workers.
const HEARTBEAT_MS: u64 = 50;
/// The watcher's think time between two `JobStatus` polls.
const THINK: Duration = Duration::from_millis(5);
/// A repetition that has not finished by then cancels and counts its
/// unfinished jobs, so the daemon and its fleet still shut down.
const GIVE_UP: Duration = Duration::from_secs(60);

#[derive(Debug)]
pub struct ServeWorkload;

pub struct Setup {
    jobs: Vec<(SearchConfig, Vec<u8>)>,
    dir: PathBuf,
}

/// What the replays need from the last traced repetition.
pub struct Detail {
    shards_run: u64,
    wall_s: f64,
}

fn fleet_opts() -> BatchOptions {
    // The fleet's two workers already use both vCPUs: evaluate in-thread.
    BatchOptions::sequential()
        .with_workers(0)
        .with_batch_size(BATCH as usize)
}

fn serve_opts() -> ServeOptions {
    ServeOptions {
        max_jobs: 2,
        expect_jobs: 2,
        quantum: 1,
        backoff_ms: BACKOFF_MS,
        linger_ms: LINGER_MS,
        lease: LeasePolicy::with_ttl_ms(10_000),
        max_buffered_rounds: 2,
    }
}

impl Workload for ServeWorkload {
    type Setup = Setup;
    type Detail = Detail;

    fn setup(&self, seed: u64, dir: &Path) -> crate::Result<Setup> {
        let specs = [
            JobSpec::new("mnist")
                .with_required_ms(Some(10.0))
                .with_trials(Some(JOB_TRIALS))
                .with_seed(Some(seed)),
            JobSpec::new("mnist")
                .with_required_ms(Some(5.0))
                .with_trials(Some(JOB_TRIALS))
                .with_seed(Some(seed.wrapping_add(1))),
        ];
        let mut jobs = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let config = spec.resolve()?;
            let merged = run_rounds_local(
                &config,
                &fleet_opts(),
                SHARDS,
                ROUNDS,
                &dir.join(format!("reference-{i}")),
            )?;
            jobs.push((config, merged.to_bytes()));
        }
        Ok(Setup {
            jobs,
            dir: dir.to_path_buf(),
        })
    }

    fn reference(&self, setup: &Setup) -> u128 {
        let all: Vec<u8> = setup.jobs.iter().flat_map(|(_, b)| b.clone()).collect();
        digest128(&all)
    }

    fn rep(&self, setup: &Setup, _traced: bool, index: usize) -> crate::Result<(Rep, Detail)> {
        let root = setup.dir.join(format!("serve-{index}"));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let server = Arc::new(Server::new(&root, serve_opts(), clock)?);
        let rep_span = trace::root_span("rep");
        let serve = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let _s = trace::span("serve.daemon");
                server.run(listener)
            })
        };
        let fleet: Vec<_> = (0..WORKERS)
            .map(|i| {
                let mut w = WorkerOptions::new(
                    addr.clone(),
                    format!("fleet-{i}"),
                    setup.dir.join(format!("fleet-{index}-{i}")),
                )
                .with_store_dir(&root);
                w.heartbeat_ms = HEARTBEAT_MS;
                std::thread::spawn(move || {
                    let _s = trace::span("coord.fleet_worker");
                    run_fleet_worker(&fleet_opts(), &w)
                })
            })
            .collect();

        // The watcher: submit both jobs, then poll their status in a
        // closed loop until both are finished.
        let (mut rpcs, mut rpc_errors, mut retries) = (0u64, 0u64, 0u64);
        let mut status_ms = Vec::new();
        let cpu0 = cpu_s();
        let t0 = Instant::now();
        let mut jobs = Vec::new();
        for (config, _) in &setup.jobs {
            loop {
                let _s = trace::span("client.submit_job");
                rpcs += 1;
                match client::submit_job(&addr, config.job(), BATCH, SHARDS, ROUNDS) {
                    Ok(Response::JobAccepted { job }) => {
                        jobs.push(job);
                        break;
                    }
                    Ok(Response::Retry { backoff_ms }) => {
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                    }
                    Ok(_) | Err(_) => {
                        rpc_errors += 1;
                        if t0.elapsed() > GIVE_UP {
                            break;
                        }
                    }
                }
            }
        }
        if jobs.len() != setup.jobs.len() {
            // The daemon waits for every expected job, so it would never
            // exit; end the run instead (the process takes its threads).
            return Err(format!("{} of {} jobs admitted", jobs.len(), setup.jobs.len()).into());
        }
        let mut finished = vec![false; jobs.len()];
        while finished.iter().any(|f| !f) && t0.elapsed() < GIVE_UP {
            for (job, done) in jobs.iter().zip(finished.iter_mut()) {
                if *done {
                    continue;
                }
                let _s = trace::span("client.job_status");
                let t = Instant::now();
                let answer = client::job_status(&addr, *job);
                status_ms.push(t.elapsed().as_secs_f64() * 1e3);
                rpcs += 1;
                match answer {
                    Ok(Response::JobInfo { state, .. }) => *done = state == JOB_STATE_FINISHED,
                    Ok(Response::Retry { .. }) => retries += 1,
                    Ok(_) | Err(_) => rpc_errors += 1,
                }
            }
            if finished.iter().any(|f| !f) {
                std::thread::sleep(THINK);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_s() - cpu0;
        let mut unfinished = 0;
        for (job, done) in jobs.iter().zip(&finished) {
            if !done {
                unfinished += 1;
                let _ = client::cancel_job(&addr, *job);
            }
        }

        let mut errors = Vec::new();
        match serve.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => errors.push(format!("daemon failed: {e}")),
            Err(_) => errors.push("daemon thread panicked".to_string()),
        }
        let mut reports = Vec::new();
        for (i, handle) in fleet.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(r)) => reports.push(r),
                Ok(Err(e)) => errors.push(format!("fleet-{i} failed: {e}")),
                Err(_) => errors.push(format!("fleet-{i} panicked")),
            }
        }
        drop(rep_span);
        for (i, r) in reports.iter().enumerate() {
            if r.coordinator_lost || r.retry_sleep_ms != 0 {
                errors.push(format!(
                    "fleet-{i} did not exit cleanly: coordinator_lost={} retry_sleep_ms={}",
                    r.coordinator_lost, r.retry_sleep_ms
                ));
            }
        }

        let store = server.store();
        let mut merged_all = Vec::new();
        let (mut trials, mut journal_records, mut merged_failed) = (0u64, 0u64, 0u64);
        let mut progress = Vec::new();
        for (job, (_, reference)) in jobs.iter().zip(&setup.jobs) {
            let merged = store.get_artifact(*job, "merged.ckpt").unwrap_or_default();
            if &merged != reference {
                errors.push(format!(
                    "job {job:#018x}: merged.ckpt differs from the reference"
                ));
            }
            if let Ok(c) = SearchCheckpoint::from_bytes(&merged) {
                merged_failed += c.telemetry.children_failed + c.telemetry.panics_caught;
            }
            merged_all.extend_from_slice(&merged);
            match store
                .get_artifact(*job, "progress.bin")
                .and_then(|b| JobProgress::decode(&b))
            {
                Some(p) => {
                    trials += p.trials_done;
                    progress.push(p);
                }
                None => errors.push(format!("job {job:#018x}: no progress published")),
            }
            journal_records += Journal::stat(&store.job_dir(*job).join("wal"))?.records;
        }
        let expected = JOB_TRIALS as u64 * ROUNDS * setup.jobs.len() as u64;
        if trials != expected {
            errors.push(format!("{trials} of {expected} trials merged"));
        }
        let sum = |f: fn(&WorkerReport) -> u64| reports.iter().map(f).sum::<u64>();
        let shards_run = sum(|r| r.shards_run);
        let fresh = sum(|r| r.fresh_results);
        let psum = |f: fn(&JobProgress) -> u64| progress.iter().map(f).sum::<u64>();
        let failed = merged_failed + rpc_errors + retries + unfinished;
        let layers = vec![
            ("coord.shards_run", shards_run as f64),
            ("coord.journal_records", journal_records as f64),
            ("coord.leases_expired", psum(|p| p.leases_expired) as f64),
            (
                "coord.shards_redispatched",
                psum(|p| p.shards_redispatched) as f64,
            ),
            (
                "coord.duplicate_results",
                psum(|p| p.duplicate_results) as f64,
            ),
            ("coord.retries_served", psum(|p| p.retries_served) as f64),
            ("coord.useful_ratio", ratio(fresh as f64, shards_run as f64)),
            ("serve.status_p50_ms", median(&status_ms)),
            ("serve.status_p90_ms", percentile(&status_ms, 90.0)),
            ("serve.status_samples", status_ms.len() as f64),
        ];
        let rep = Rep {
            wall_s,
            cpu_s,
            trials,
            attempted: trials + rpcs,
            failed,
            digest: digest128(&merged_all),
            counters: vec![
                ("trials", trials),
                ("shards_run", shards_run),
                ("fresh_results", fresh),
                ("journal_records", journal_records),
                ("children_failed", merged_failed),
            ],
            layers,
            errors,
        };
        drop(server);
        std::fs::remove_dir_all(&root)?;
        for i in 0..WORKERS {
            std::fs::remove_dir_all(setup.dir.join(format!("fleet-{index}-{i}")))?;
        }
        Ok((rep, Detail { shards_run, wall_s }))
    }

    fn replay(&self, setup: &Setup, detail: &Detail) -> crate::Result<Vec<(&'static str, f64)>> {
        const CODEC_REPS: usize = 20;
        // Regenerate round 0 of each job shard by shard, timing the shard
        // computation, then replay the codec and merge on those bytes.
        let mut shard_ms = Vec::new();
        let mut rounds = Vec::new();
        {
            let _s = trace::span("replay.coord.run_round_shard");
            for (i, (config, _)) in setup.jobs.iter().enumerate() {
                let init = init_for_round(config, 0, None)?;
                let mut parts = Vec::new();
                for shard in 0..SHARDS {
                    let path = setup.dir.join(format!("replay-{i}-{shard}.ckpt"));
                    let t = Instant::now();
                    let bytes = run_round_shard(
                        config,
                        0,
                        ShardSpec::new(shard, SHARDS)?,
                        &init,
                        &fleet_opts(),
                        &path,
                    )?;
                    shard_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    std::fs::remove_file(&path)?;
                    parts.push(bytes);
                }
                rounds.push(parts);
            }
        }
        let _s = trace::span("replay.ckpt");
        let (mut encode_us, mut decode_us, mut merge_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes = 0usize;
        for parts in &rounds {
            bytes += parts.iter().map(Vec::len).sum::<usize>();
            let mut decoded = Vec::new();
            for part in parts {
                for _ in 0..CODEC_REPS {
                    let t = Instant::now();
                    let ckpt = std::hint::black_box(SearchCheckpoint::from_bytes(part)?);
                    decode_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let t = Instant::now();
                    std::hint::black_box(ckpt.to_bytes());
                    encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                decoded.push(SearchCheckpoint::from_bytes(part)?);
            }
            for _ in 0..CODEC_REPS {
                let t = Instant::now();
                std::hint::black_box(SearchCheckpoint::merge(&decoded)?);
                merge_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let compute_ms = median(&shard_ms);
        let busy_s = detail.shards_run as f64 * compute_ms / 1e3;
        Ok(vec![
            ("coord.shard_compute_ms", compute_ms),
            (
                "coord.fleet_idle_ratio",
                1.0 - ratio(busy_s, WORKERS as f64 * detail.wall_s),
            ),
            ("ckpt.bytes", bytes as f64 / rounds.len() as f64),
            ("ckpt.encode_us", median(&encode_us)),
            ("ckpt.decode_us", median(&decode_us)),
            ("ckpt.merge_us", median(&merge_us)),
        ])
    }
}
