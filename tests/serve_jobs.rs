//! The serve contract, end to end over real TCP: one `fnas-serve`
//! daemon multiplexing many concurrent search jobs over one
//! job-agnostic worker fleet.
//!
//! The claims under test:
//!
//! 1. **Per-job byte identity.** Two differently-specced jobs submitted
//!    to one server and run by one shared fleet — with a worker killed
//!    mid-round — each finish with a merged checkpoint byte-identical
//!    to a solo [`fnas_coord::run_rounds_local`] run of the same job.
//!    Multi-tenancy decides who computes what when; it can never change
//!    what either job's answer is.
//! 2. **Status from bytes.** `JobStatus` is answered from the progress
//!    snapshot the server last published to the store, so it decodes
//!    and names the right job even while rounds are in flight, and the
//!    artifacts survive the server's exit.
//! 3. **Backpressure is honest.** A submit-saturated endpoint
//!    (`--max-buffered-rounds` worth of payloads already admitted)
//!    answers `Retry`, both sides count it (coordinator telemetry and
//!    worker report), and the deferred resubmission settles
//!    byte-identically once a slot frees.
//! 4. **Nothing waits on a timer it does not need.** A finished shard
//!    submits without waiting out its worker's heartbeat period, and a
//!    server whose expected workload is over returns from `run` once
//!    the linger elapses, though nothing connects to wake it. Both tests
//!    wait on their threads through channels with a timeout, so a lost
//!    wake fails them instead of hanging the suite.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fnas::experiment::ExperimentPreset;
use fnas::search::{BatchOptions, SearchConfig, ShardSpec};
use fnas_coord::framing::{read_frame, write_frame};
use fnas_coord::{
    init_for_round, run_fleet_worker, run_round_shard, run_rounds_local, Clock, LeasePolicy,
    Request, Response, WallClock, WorkerOptions, JOB_STATE_CANCELLED, JOB_STATE_RUNNING,
};
use fnas_serve::{client, JobProgress, JobState, ServeOptions, Server};
use fnas_store::Store;

const SHARDS: u32 = 2;
const ROUNDS: u64 = 2;
const BATCH: u32 = 3;

/// Job A: the usual worked-example search.
fn cfg_a() -> SearchConfig {
    SearchConfig::fnas(ExperimentPreset::mnist().with_trials(12), 10.0).with_seed(77)
}

/// Job B: a genuinely different search (tighter latency budget,
/// different seed), so cross-job leakage could not possibly merge
/// cleanly.
fn cfg_b() -> SearchConfig {
    SearchConfig::fnas(ExperimentPreset::mnist().with_trials(12), 9.0).with_seed(41)
}

fn opts() -> BatchOptions {
    BatchOptions::default()
        .with_batch_size(BATCH as usize)
        .with_workers(0)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fnas-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One raw request–response exchange (panicking flavour of
/// [`client::rpc`] for protocol steps a test script controls fully).
fn rpc(addr: &str, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &request.to_bytes()).unwrap();
    Response::from_bytes(&read_frame(&mut stream).unwrap()).unwrap()
}

/// Polls with the fleet verb, takes whatever assignment the scheduler
/// offers, and vanishes without heartbeating or submitting — the
/// wire-level shape of a fleet worker killed mid-round. Returns which
/// job's shard died with it.
fn desert_one_fleet_assignment(addr: &str) -> (u64, u64, u32) {
    let response = rpc(
        addr,
        &Request::PollAny {
            worker: "deserter".to_string(),
        },
    );
    match response {
        Response::Assign {
            round, shard, job, ..
        } => (job, round, shard),
        other => panic!("deserter expected an assignment, got {other:?}"),
    }
}

fn accepted_job(response: Response) -> u64 {
    match response {
        Response::JobAccepted { job } => job,
        other => panic!("expected JobAccepted, got {other:?}"),
    }
}

/// Two interleaved jobs on one fleet — with a worker killed mid-round
/// and a third job cancelled at admission — each finish byte-identical
/// to their solo runs, and the published artifacts carry the whole
/// story after the server is gone.
#[test]
fn two_jobs_one_fleet_match_solo_runs_byte_identical_with_worker_kill() {
    let dir = tmp("two-jobs");
    let ref_a = run_rounds_local(&cfg_a(), &opts(), SHARDS, ROUNDS, &dir.join("ref-a"))
        .unwrap()
        .to_bytes();
    let ref_b = run_rounds_local(&cfg_b(), &opts(), SHARDS, ROUNDS, &dir.join("ref-b"))
        .unwrap()
        .to_bytes();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut lease = LeasePolicy::with_ttl_ms(300);
    lease.straggle_after_ms = 150;
    let serve_opts = ServeOptions {
        max_jobs: 4,
        expect_jobs: 3,
        quantum: 1,
        backoff_ms: 20,
        linger_ms: 1_500,
        lease,
        max_buffered_rounds: 2,
    };
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let root = dir.join("serve");
    let server = Arc::new(Server::new(&root, serve_opts, clock).unwrap());
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run(listener))
    };

    // Admit jobs A and B, plus a job C that is cancelled before any
    // worker exists — its scheduler entry must stop assigning without
    // disturbing the jobs that stay.
    let cfg_c = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(12), 8.0).with_seed(5);
    let job_a =
        accepted_job(client::submit_job(&addr, cfg_a().job(), BATCH, SHARDS, ROUNDS).unwrap());
    let job_b =
        accepted_job(client::submit_job(&addr, cfg_b().job(), BATCH, SHARDS, ROUNDS).unwrap());
    let job_c =
        accepted_job(client::submit_job(&addr, cfg_c.job(), BATCH, SHARDS, ROUNDS).unwrap());
    assert_eq!(job_a, cfg_a().job().job_digest());
    assert_ne!(job_a, job_b);

    // Status answers from published bytes while everything is in flight.
    match client::job_status(&addr, job_a).unwrap() {
        Response::JobInfo {
            job,
            state,
            progress,
        } => {
            assert_eq!((job, state), (job_a, JOB_STATE_RUNNING));
            let p = JobProgress::decode(&progress).unwrap();
            assert_eq!((p.job, p.rounds, p.shards), (job_a, ROUNDS, SHARDS));
        }
        other => panic!("expected JobInfo, got {other:?}"),
    }
    match client::list_jobs(&addr).unwrap() {
        Response::Jobs { jobs } => assert_eq!(
            jobs,
            vec![
                (job_a, JOB_STATE_RUNNING),
                (job_b, JOB_STATE_RUNNING),
                (job_c, JOB_STATE_RUNNING)
            ]
        ),
        other => panic!("expected Jobs, got {other:?}"),
    }
    assert_eq!(
        client::cancel_job(&addr, job_c).unwrap(),
        Response::Cancelled { job: job_c }
    );
    match client::job_status(&addr, job_c).unwrap() {
        Response::JobInfo { state, .. } => assert_eq!(state, JOB_STATE_CANCELLED),
        other => panic!("expected JobInfo, got {other:?}"),
    }

    // The first fleet assignment is taken and abandoned mid-round.
    let (deserted_job, deserted_round, _) = desert_one_fleet_assignment(&addr);
    assert!(deserted_job == job_a || deserted_job == job_b);
    assert_eq!(deserted_round, 0);

    // One shared, job-agnostic fleet serves whatever is scheduled.
    let workers: Vec<_> = ["f1", "f2", "f3"]
        .into_iter()
        .map(|name| {
            let mut w = WorkerOptions::new(addr.clone(), name, dir.join(name));
            w.heartbeat_ms = 50;
            std::thread::spawn(move || run_fleet_worker(&opts(), &w))
        })
        .collect();

    serve.join().unwrap().unwrap();
    let mut fresh = 0;
    for handle in workers {
        let report = handle.join().unwrap().unwrap();
        assert!(
            report.shards_run > 0,
            "every fleet worker should contribute"
        );
        fresh += report.fresh_results;
    }
    // Every settled shard of both jobs was earned fresh by a live
    // worker: the deserter never submitted, job C never dispatched.
    assert_eq!(fresh, 2 * u64::from(SHARDS) * ROUNDS);

    // Byte identity per job, straight from the artifacts the server
    // published — the same files `jobs/<digest>/merged.ckpt` a solo
    // `fnas-coord` checkpoint would be compared against.
    let store = server.store();
    assert_eq!(store.get_artifact(job_a, "merged.ckpt").unwrap(), ref_a);
    assert_eq!(store.get_artifact(job_b, "merged.ckpt").unwrap(), ref_b);
    assert_eq!(store.get_artifact(job_c, "merged.ckpt"), None);
    assert_eq!(server.job_state(job_a), Some(JobState::Finished));
    assert_eq!(server.job_state(job_b), Some(JobState::Finished));
    assert_eq!(server.job_state(job_c), Some(JobState::Cancelled));

    // The final progress snapshots tell the whole story, including the
    // lease machinery recovering the deserted shard.
    let progress =
        |job| JobProgress::decode(&store.get_artifact(job, "progress.bin").unwrap()).unwrap();
    let (pa, pb) = (progress(job_a), progress(job_b));
    for p in [&pa, &pb] {
        assert!(p.finished, "{p}");
        assert_eq!((p.rounds_merged, p.rounds), (ROUNDS, ROUNDS), "{p}");
        assert_eq!(p.trials_done, 12 * ROUNDS, "{p}");
    }
    assert!(
        pa.leases_expired + pa.shards_redispatched + pb.leases_expired + pb.shards_redispatched
            >= 1,
        "the deserted shard was never recovered: {pa} / {pb}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// A small single-shard job for the saturation tests.
fn small_cfg(seed: u64) -> SearchConfig {
    SearchConfig::fnas(ExperimentPreset::mnist().with_trials(6), 10.0).with_seed(seed)
}

/// A one-job server (the `fnas-coord serve` shape) under `opts`, with
/// `cfg` admitted as `shards` shards × one round. Returns the server
/// and the job's digest.
fn one_job_server(
    root: &std::path::Path,
    cfg: &SearchConfig,
    shards: u32,
    opts: ServeOptions,
) -> (Arc<Server>, u64) {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let server = Arc::new(Server::new(root, opts, clock).unwrap());
    let job = accepted_job(server.handle(&Request::SubmitJob {
        spec: cfg.job().encode(),
        batch: BATCH,
        shards,
        rounds: 1,
    }));
    (server, job)
}

/// `cfg` as one shard on a one-job server whose submit budget is capped
/// at one payload, with a 35 ms backoff.
fn saturable_server(root: &std::path::Path, cfg: &SearchConfig) -> (Arc<Server>, u64) {
    let opts = ServeOptions {
        max_jobs: 1,
        expect_jobs: 1,
        quantum: 1,
        backoff_ms: 35,
        linger_ms: 1_000,
        lease: LeasePolicy::with_ttl_ms(5_000),
        max_buffered_rounds: 1,
    };
    one_job_server(root, cfg, 1, opts)
}

/// A submit-saturated coordinator answers `Retry` over real TCP, counts
/// it, and accepts the byte-identical resubmission once the buffered
/// payload drains — the deferred result is delayed, never changed.
#[test]
fn saturated_submit_is_answered_retry_and_resubmission_settles() {
    let dir = tmp("retry");
    let cfg = small_cfg(9);
    let reference = run_rounds_local(&cfg, &opts(), 1, 1, &dir.join("local"))
        .unwrap()
        .to_bytes();
    let init = init_for_round(&cfg, 0, None).unwrap();
    let bytes = run_round_shard(
        &cfg,
        0,
        ShardSpec::new(0, 1).unwrap(),
        &init,
        &opts(),
        &dir.join("pre.ckpt"),
    )
    .unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (server, job) = saturable_server(&dir.join("serve"), &cfg);
    let coord = server.coordinator(job).unwrap();
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run(listener))
    };

    // Saturate the submit budget: `--max-buffered-rounds 1` × 1 shard
    // means exactly one in-flight payload, and it is held here.
    let slot = coord.try_admit_submit().unwrap();
    assert!(coord.try_admit_submit().is_none(), "cap should be 1");

    let submit = Request::Submit {
        worker: "pilot".to_string(),
        round: 0,
        shard: 0,
        epoch: coord.epoch(),
        job: coord.job(),
        fingerprint: coord.fingerprint(),
        bytes,
    };
    assert_eq!(rpc(&addr, &submit), Response::Retry { backoff_ms: 35 });
    let t = coord.telemetry().snapshot();
    assert_eq!((t.retries_served, t.retry_sleep_ms), (1, 35));

    drop(slot);
    assert_eq!(rpc(&addr, &submit), Response::Accepted { fresh: true });
    serve.join().unwrap().unwrap();
    let merged = server.store().get_artifact(job, "merged.ckpt").unwrap();
    assert_eq!(merged, reference);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A live worker rides out submit saturation on its own: it keeps the
/// computed result, honours the advised backoff (metered in its
/// report), resubmits when the coordinator frees a slot, and the run
/// still matches the sequential reference byte for byte.
#[test]
fn worker_rides_out_submit_saturation_and_meters_the_backoff() {
    let dir = tmp("retry-worker");
    let cfg = small_cfg(13);
    let reference = run_rounds_local(&cfg, &opts(), 1, 1, &dir.join("local"))
        .unwrap()
        .to_bytes();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (server, job) = saturable_server(&dir.join("serve"), &cfg);
    let coord = server.coordinator(job).unwrap();
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run(listener))
    };
    let slot = coord.try_admit_submit().unwrap();

    let worker = {
        let mut w = WorkerOptions::new(addr.clone(), "patient", dir.join("patient"));
        w.heartbeat_ms = 50;
        std::thread::spawn(move || run_fleet_worker(&opts(), &w))
    };

    // Hold the slot until the worker has demonstrably been deferred at
    // least once, then let it through — event-driven, not timed.
    let deadline = Instant::now() + Duration::from_secs(30);
    while coord.telemetry().snapshot().retries_served == 0 {
        assert!(Instant::now() < deadline, "worker never hit the cap");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(slot);

    serve.join().unwrap().unwrap();
    let report = worker.join().unwrap().unwrap();
    let merged = server.store().get_artifact(job, "merged.ckpt").unwrap();
    assert_eq!(merged, reference);
    assert_eq!(report.fresh_results, 1);
    assert!(report.retries_served >= 1, "{report:?}");
    assert!(
        report.retry_sleep_ms >= 10,
        "advised backoff must be metered: {report:?}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// Runs `f` on its own thread and hands its result back through a
/// channel, so the test bounds its wait with `recv_timeout`.
fn spawn_reporting<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx
}

/// One-job options with the given linger and a lease no test here
/// outlives.
fn lingering(linger_ms: u64) -> ServeOptions {
    ServeOptions {
        max_jobs: 1,
        expect_jobs: 1,
        quantum: 1,
        linger_ms,
        lease: LeasePolicy::with_ttl_ms(120_000),
        ..ServeOptions::default()
    }
}

/// A worker whose heartbeat period (30 s) dwarfs its shards submits
/// each shard as soon as it is computed: the heartbeat thread's wait
/// ends with the shard, so two shards finish in seconds, not in two
/// periods.
#[test]
fn a_finished_shard_submits_without_waiting_out_its_heartbeat() {
    let dir = tmp("prompt-submit");
    let cfg = small_cfg(21);
    let reference = run_rounds_local(&cfg, &opts(), 2, 1, &dir.join("local"))
        .unwrap()
        .to_bytes();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (server, job) = one_job_server(&dir.join("serve"), &cfg, 2, lingering(200));

    let deadline = Instant::now() + Duration::from_secs(10);
    let serve = {
        let server = Arc::clone(&server);
        spawn_reporting(move || server.run(listener))
    };
    let worker = {
        let mut w = WorkerOptions::new(addr, "slow-beat", dir.join("slow-beat"));
        w.heartbeat_ms = 30_000;
        spawn_reporting(move || run_fleet_worker(&opts(), &w))
    };
    let left = || deadline.saturating_duration_since(Instant::now());
    let report = worker
        .recv_timeout(left())
        .expect("the worker held its shards for the heartbeat period")
        .unwrap();
    serve
        .recv_timeout(left())
        .expect("the server did not return after its linger")
        .unwrap();
    assert_eq!(report.fresh_results, 2, "{report:?}");
    assert_eq!(
        server.store().get_artifact(job, "merged.ckpt").unwrap(),
        reference
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// Once the expected workload is over, `run` lingers `linger_ms` for
/// late pollers, who hear `Finished`, and then returns although no
/// connection arrives to wake its blocking `accept`, whether the job
/// ended while `run` served or before it started.
#[test]
fn run_returns_after_the_linger_when_nothing_connects() {
    let linger = Duration::from_millis(500);
    for cancel_before_run in [true, false] {
        let dir = tmp(&format!("linger-{cancel_before_run}"));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = lingering(linger.as_millis() as u64);
        let (server, job) = one_job_server(&dir.join("serve"), &small_cfg(3), 1, opts);
        let cancel = Request::CancelJob { job };

        let t0 = Instant::now();
        if cancel_before_run {
            assert_eq!(server.handle(&cancel), Response::Cancelled { job });
        }
        let serve = {
            let server = Arc::clone(&server);
            spawn_reporting(move || server.run(listener))
        };
        if !cancel_before_run {
            assert_eq!(rpc(&addr, &cancel), Response::Cancelled { job });
        }
        let poll = Request::PollAny {
            worker: "late".to_string(),
        };
        assert_eq!(rpc(&addr, &poll), Response::Finished);
        let limit = t0 + linger + Duration::from_secs(2);
        serve
            .recv_timeout(limit.saturating_duration_since(Instant::now()))
            .expect("run did not return after the linger")
            .unwrap();
        assert!(
            t0.elapsed() >= linger,
            "run returned before the linger elapsed: {:?}",
            t0.elapsed()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
