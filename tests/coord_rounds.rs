//! The coordinator's determinism contract, end to end over real TCP.
//!
//! The claim under test: an R-round × N-shard run driven over the wire
//! by a one-job server (what `fnas-coord serve` runs) — with workers
//! dying, leases expiring and shards being speculatively re-dispatched —
//! produces a final checkpoint **byte-identical** to the same rounds
//! driven sequentially in one process by
//! [`fnas_coord::run_rounds_local`]. Scheduling decides who computes; it
//! can never change what the result is.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fnas::experiment::ExperimentPreset;
use fnas::search::{BatchOptions, SearchConfig, ShardSpec};
use fnas_coord::framing::{read_frame, write_frame};
use fnas_coord::proto::answer;
use fnas_coord::{
    init_for_round, journal, merge_settled, run_fleet_worker, run_round_shard, run_rounds_local,
    Clock, Coordinator, CoordinatorOptions, Journal, LeasePolicy, Request, Response, WallClock,
    WorkerOptions,
};
use fnas_serve::{ServeOptions, Server};
use fnas_store::Store;
use proptest::prelude::*;
use tests_integration::{spawn_bounded, Bounded};

const SHARDS: u32 = 3;
const ROUNDS: u64 = 2;

/// How long a test waits for its server and workers: many times what a
/// whole test takes on a loaded two-vCPU machine. A lost wake fails the
/// test, naming the thread, instead of hanging the suite.
const BOUND: Duration = Duration::from_secs(60);

fn base() -> SearchConfig {
    SearchConfig::fnas(ExperimentPreset::mnist().with_trials(12), 10.0).with_seed(77)
}

fn opts() -> BatchOptions {
    BatchOptions::default().with_batch_size(3).with_workers(0)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fnas-coord-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A one-job server rooted at `root` — the `fnas-coord serve` shape —
/// with [`base`] admitted at `rounds` × [`SHARDS`] and batch 3. Returns
/// the server and the job's digest.
fn one_job_server(root: &Path, lease: LeasePolicy, rounds: u64) -> (Arc<Server>, u64) {
    let opts = ServeOptions {
        max_jobs: 1,
        expect_jobs: 1,
        quantum: 1,
        backoff_ms: 20,
        linger_ms: 1_500,
        lease,
        max_buffered_rounds: 2,
    };
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let server = Arc::new(Server::new(root, opts, clock).unwrap());
    let admitted = server.handle(&Request::SubmitJob {
        spec: base().job().encode(),
        batch: 3,
        shards: SHARDS,
        rounds,
    });
    match admitted {
        Response::JobAccepted { job } => (server, job),
        other => panic!("expected JobAccepted, got {other:?}"),
    }
}

/// Spawns `names` fleet workers against `addr`, scratch under `dir`.
fn fleet(
    addr: &str,
    dir: &Path,
    names: &[&str],
    heartbeat_ms: u64,
) -> Vec<Bounded<fnas::Result<fnas_coord::WorkerReport>>> {
    names
        .iter()
        .map(|name| {
            let mut w = WorkerOptions::new(addr, *name, dir.join(name));
            w.heartbeat_ms = heartbeat_ms;
            spawn_bounded(*name, move || run_fleet_worker(&opts(), &w))
        })
        .collect()
}

/// Polls once, takes the assignment, and vanishes without ever
/// heartbeating or submitting — the wire-level shape of a worker killed
/// mid-round. Returns what it was assigned.
fn desert_one_assignment(addr: &str) -> Option<(u64, u32)> {
    let poll = Request::PollAny {
        worker: "deserter".to_string(),
    };
    match rpc(addr, &poll) {
        Response::Assign { round, shard, .. } => Some((round, shard)),
        other => panic!("deserter expected an assignment, got {other:?}"),
    }
}

/// A coordinated localhost run with one worker killed mid-round is
/// byte-identical to the sequential in-process reference, and the lease
/// machinery visibly did its job (the deserted lease expired and the
/// shard was re-run by someone else).
#[test]
fn killed_worker_coordinated_run_matches_sequential_bytes() {
    let dir = tmp("killed");
    let reference = run_rounds_local(&base(), &opts(), SHARDS, ROUNDS, &dir.join("local"))
        .unwrap()
        .to_bytes();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut lease = LeasePolicy::with_ttl_ms(300);
    lease.straggle_after_ms = 150;
    let (server, job) = one_job_server(&dir.join("serve"), lease, ROUNDS);
    let deadline = Instant::now() + BOUND;
    let serve = {
        let server = Arc::clone(&server);
        spawn_bounded("server", move || server.run(listener))
    };

    // The first assignment (round 0, shard 0) is taken and abandoned.
    let deserted = desert_one_assignment(&addr).unwrap();
    assert_eq!(deserted, (0, 0));

    // Two real workers serve the rest of the run between them.
    let workers = fleet(&addr, &dir, &["w1", "w2"], 50);

    serve.join_by(deadline).unwrap();
    let mut fresh = 0;
    for handle in workers {
        let report = handle.join_by(deadline).unwrap();
        assert!(report.shards_run > 0, "both workers should contribute");
        fresh += report.fresh_results;
    }

    // Byte identity with the sequential reference, despite the kill.
    let merged = server.store().get_artifact(job, "merged.ckpt").unwrap();
    assert_eq!(merged, reference);
    let merged = fnas::checkpoint::SearchCheckpoint::from_bytes(&merged).unwrap();
    assert_eq!(merged.trials.len(), 12 * ROUNDS as usize);

    // The deserted shard was recovered — speculatively replicated while
    // its lease aged, or returned to the pool when it expired (whichever
    // the timing produced) — and every shard settled exactly once from a
    // live worker (the deserter never submitted).
    let t = server.coordinator(job).unwrap().telemetry().snapshot();
    assert!(
        t.shards_redispatched >= 1 || t.leases_expired >= 1,
        "deserted shard was never recovered: {t:?}"
    );
    assert_eq!(fresh, u64::from(SHARDS) * ROUNDS);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Straggler speculation duplicates work without changing the answer: a
/// slow-heartbeating worker keeps its lease alive past the straggle
/// threshold, an idle worker earns a byte-identical replica, and
/// first-wins settlement absorbs the loser.
#[test]
fn straggler_replicas_settle_first_wins_and_match_sequential_bytes() {
    let dir = tmp("straggler");
    let reference = run_rounds_local(&base(), &opts(), SHARDS, 1, &dir.join("local"))
        .unwrap()
        .to_bytes();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Aggressive speculation: any shard older than 20ms is a straggler,
    // so the three workers end up racing replicas of each other's shards.
    let mut lease = LeasePolicy::with_ttl_ms(5_000);
    lease.straggle_after_ms = 20;
    let (server, job) = one_job_server(&dir.join("serve"), lease, 1);
    let deadline = Instant::now() + BOUND;
    let serve = {
        let server = Arc::clone(&server);
        spawn_bounded("server", move || server.run(listener))
    };
    let workers = fleet(&addr, &dir, &["w1", "w2", "w3"], 25);

    serve.join_by(deadline).unwrap();
    let mut duplicates = 0;
    for handle in workers {
        let report = handle.join_by(deadline).unwrap();
        duplicates += report.duplicate_results;
    }

    let merged = server.store().get_artifact(job, "merged.ckpt").unwrap();
    assert_eq!(merged, reference);
    let t = server.coordinator(job).unwrap().telemetry().snapshot();
    assert_eq!(
        t.duplicate_results, duplicates,
        "worker/coordinator books agree"
    );
    assert_eq!(t.leases_expired, 0, "nothing expired under a 5s TTL: {t:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// One request–response exchange over a fresh connection, the way a
/// real worker (or a pre-crash straggler) talks to the coordinator.
fn rpc(addr: &str, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &request.to_bytes()).unwrap();
    Response::from_bytes(&read_frame(&mut stream).unwrap()).unwrap()
}

/// Precomputes every shard result of a `shards × 2` run plus the
/// round-1 init, so tests can play submissions in any incarnation
/// without re-deriving them (determinism makes these *the* bytes any
/// worker would produce).
fn precompute_shards(dir: &Path, shards: u32) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let shard = |round: u64, s: u32, init: &fnas::checkpoint::SearchCheckpoint| {
        run_round_shard(
            &base(),
            round,
            ShardSpec::new(s, shards).unwrap(),
            init,
            &opts(),
            &dir.join(format!("pre-{round}-{s}.ckpt")),
        )
        .unwrap()
    };
    let init0 = init_for_round(&base(), 0, None).unwrap();
    let r0: Vec<Vec<u8>> = (0..shards).map(|s| shard(0, s, &init0)).collect();
    let init1 = init_for_round(&base(), 1, Some(&merge_settled(&r0).unwrap())).unwrap();
    let r1: Vec<Vec<u8>> = (0..shards).map(|s| shard(1, s, &init1)).collect();
    (r0, r1)
}

/// The HA contract end to end: incarnation A journals round 0 and one
/// shard of round 1 over real TCP, "crashes" (abandoned mid-round),
/// and incarnation B on the same root — but a fresh port — resumes
/// exactly where A stopped, fences A's in-flight results by epoch, and
/// finishes **byte-identical** to the sequential reference with
/// `workers` live workers.
fn kill_restart_recovery(worker_names: &[&str], tag: &str) {
    let dir = tmp(tag);
    let root = dir.join("serve");
    let reference = run_rounds_local(&base(), &opts(), SHARDS, ROUNDS, &dir.join("local"))
        .unwrap()
        .to_bytes();
    let (r0, r1) = precompute_shards(&dir, SHARDS);
    let lease = LeasePolicy::with_ttl_ms(5_000);

    // Incarnation A: epoch 0, cold start. Settles all of round 0 and
    // shard 0 of round 1 over the wire, then is abandoned mid-round —
    // its serve thread is never joined, the wire-level shape of a
    // SIGKILL. Only the root directory survives it.
    let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_a = listener_a.local_addr().unwrap().to_string();
    let (server_a, job) = one_job_server(&root, lease, ROUNDS);
    let coord_a = server_a.coordinator(job).unwrap();
    assert_eq!((coord_a.epoch(), coord_a.rounds_recovered()), (0, 0));
    let fingerprint = coord_a.fingerprint();
    std::thread::spawn(move || server_a.run(listener_a));
    for (s, bytes) in r0.iter().enumerate() {
        let response = rpc(
            &addr_a,
            &Request::Submit {
                worker: "pilot".to_string(),
                round: 0,
                shard: s as u32,
                epoch: 0,
                job,
                fingerprint,
                bytes: bytes.clone(),
            },
        );
        assert_eq!(
            response,
            Response::Accepted { fresh: true },
            "round 0 shard {s}"
        );
    }
    let response = rpc(
        &addr_a,
        &Request::Submit {
            worker: "pilot".to_string(),
            round: 1,
            shard: 0,
            epoch: 0,
            job,
            fingerprint,
            bytes: r1[0].clone(),
        },
    );
    assert_eq!(response, Response::Accepted { fresh: true });

    // Incarnation B: same root, fresh port. It must come up in round 1
    // with shard 0 already settled, at the next epoch.
    let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_b = listener_b.local_addr().unwrap().to_string();
    let (server_b, _) = one_job_server(&root, lease, ROUNDS);
    let coord_b = server_b.coordinator(job).unwrap();
    assert_eq!(coord_b.epoch(), 1, "restart takes the next epoch");
    assert_eq!(coord_b.rounds_recovered(), 1, "round 0 replays from spills");
    let deadline = Instant::now() + BOUND;
    let serve_b = {
        let server = Arc::clone(&server_b);
        spawn_bounded("server B", move || server.run(listener_b))
    };

    // A result dispatched by incarnation A arrives late, carrying A's
    // epoch. Even though its bytes are exactly right, it is fenced —
    // rejected deterministically, counted, and the shard stays open for
    // a live worker to re-earn.
    let stale = rpc(
        &addr_b,
        &Request::Submit {
            worker: "ghost-of-epoch-0".to_string(),
            round: 1,
            shard: 1,
            epoch: 0,
            job,
            fingerprint,
            bytes: r1[1].clone(),
        },
    );
    assert_eq!(stale, Response::Stale { epoch: 1 });

    let workers = fleet(&addr_b, &dir, worker_names, 50);
    serve_b.join_by(deadline).unwrap();
    let mut fresh = 0;
    for handle in workers {
        fresh += handle.join_by(deadline).unwrap().fresh_results;
    }

    assert_eq!(
        server_b.store().get_artifact(job, "merged.ckpt").unwrap(),
        reference,
        "recovered run must be byte-identical to the uninterrupted one"
    );
    // Exactly round 1's shards 1 and 2 were re-earned live: the fenced
    // submission never settled anything, and the recovered settlements
    // were not recomputed.
    assert_eq!(fresh, u64::from(SHARDS) - 1);
    let t = coord_b.telemetry().snapshot();
    assert_eq!(t.stale_submissions_rejected, 1);
    assert_eq!(t.rounds_recovered, 1);
    let report = Journal::verify(&server_b.store().job_dir(job).join("wal")).unwrap();
    assert!(report.is_ok(), "journal ends clean: {report:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn coordinator_killed_mid_round_recovers_byte_identical_one_worker() {
    kill_restart_recovery(&["w1"], "ha-1w");
}

#[test]
fn coordinator_killed_mid_round_recovers_byte_identical_three_workers() {
    kill_restart_recovery(&["w1", "w2", "w3"], "ha-3w");
}

/// Crash-anywhere coverage: a full journaled run is recorded, then the
/// WAL is cut at **every byte offset** and recovered. Every prefix must
/// come up cleanly (a torn tail is data loss, never an error), answer
/// each settlement the prefix already holds as a duplicate (never a
/// fresh double settle), and — at each record boundary — drive to a
/// final checkpoint byte-identical to the reference.
#[test]
fn every_journal_prefix_recovers_cleanly_without_double_settles() {
    const P_SHARDS: u32 = 2;
    let dir = tmp("prefix");
    let wal_dir = dir.join("wal");
    let reference = run_rounds_local(&base(), &opts(), P_SHARDS, ROUNDS, &dir.join("local"))
        .unwrap()
        .to_bytes();
    let (r0, r1) = precompute_shards(&dir, P_SHARDS);
    let bytes_for =
        |round: u64, shard: u32| (if round == 0 { &r0 } else { &r1 })[shard as usize].clone();

    let coord_opts = CoordinatorOptions {
        shards: P_SHARDS,
        rounds: ROUNDS,
        lease: LeasePolicy::with_ttl_ms(5_000),
        backoff_ms: 20,
        max_buffered_rounds: 2,
    };
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

    // Record one complete journaled run (spills for every shard, WAL
    // through `Finished`), driven through the protocol handler.
    let coord =
        Coordinator::with_journal(base(), 3, coord_opts.clone(), Arc::clone(&clock), &wal_dir)
            .unwrap();
    let fingerprint = coord.fingerprint();
    let submit = |coord: &Coordinator, round: u64, shard: u32| {
        coord.handle(&Request::Submit {
            worker: "driver".to_string(),
            round,
            shard,
            epoch: coord.epoch(),
            job: coord.job(),
            fingerprint,
            bytes: bytes_for(round, shard),
        })
    };
    for round in 0..ROUNDS {
        for shard in 0..P_SHARDS {
            assert_eq!(
                submit(&coord, round, shard),
                Response::Accepted { fresh: true }
            );
        }
    }
    assert_eq!(coord.finished_checkpoint().unwrap().to_bytes(), reference);
    drop(coord);

    let full_wal = std::fs::read(journal::wal_path(&wal_dir)).unwrap();
    for cut in 0..=full_wal.len() {
        // Simulate a crash that left only `cut` bytes of WAL (spill
        // files all survive — they are published atomically).
        std::fs::write(journal::wal_path(&wal_dir), &full_wal[..cut]).unwrap();
        let (records, clean) = journal::decode_journal(&full_wal[..cut]);
        let plan = journal::replay(&records);
        let coord =
            Coordinator::with_journal(base(), 3, coord_opts.clone(), Arc::clone(&clock), &wal_dir)
                .unwrap_or_else(|e| panic!("prefix of {cut} bytes must recover, got: {e}"));
        assert_eq!(coord.epoch(), plan.next_epoch, "prefix of {cut} bytes");

        // Nothing the prefix already settled may settle again.
        for &(round, shard, _, _) in &plan.settled {
            assert_eq!(
                submit(&coord, round, shard),
                Response::Accepted { fresh: false },
                "prefix of {cut} bytes: round {round} shard {shard} double-settled"
            );
        }

        // At record boundaries (the only prefixes a real crash of our
        // own fsync'd appends can leave beyond torn tails), finish the
        // run and pin byte identity.
        if clean == cut {
            for round in 0..ROUNDS {
                for shard in 0..P_SHARDS {
                    let response = submit(&coord, round, shard);
                    assert!(
                        matches!(response, Response::Accepted { .. }),
                        "prefix of {cut} bytes: round {round} shard {shard}: {response:?}"
                    );
                }
            }
            assert_eq!(
                coord.finished_checkpoint().unwrap().to_bytes(),
                reference,
                "prefix of {cut} bytes: drive-to-completion diverged"
            );
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Without job flags, a worker's only identity check is re-deriving the
/// digest from an `Assign`'s spec bytes. A scripted endpoint hands it an
/// assignment whose spec bytes (a) decode to another job or (b) do not
/// decode: the worker exits with an error naming the header digest (and
/// for (a) the decoded one) after exactly one request — its `PollAny` —
/// with no heartbeat and no submit.
#[test]
fn worker_rejects_an_assignment_whose_spec_names_another_job() {
    let dir = tmp("spec-check");
    let job = base().job().job_digest();
    // Identical flags except `rL`: 9 ms instead of 10 ms.
    let other = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(12), 9.0).with_seed(77);
    let other_job = other.job().job_digest();
    assert_ne!(other_job, job);
    let init = init_for_round(&base(), 0, None).unwrap().to_bytes();
    for (case, spec) in [
        ("other job", other.job().encode()),
        ("undecodable", vec![0xFF; 4]),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = {
            let mut w = WorkerOptions::new(addr, "w", dir.join(case));
            // A worker that wrongly runs the shard gives up after one
            // unanswered request instead of the whole retry budget.
            w.connect_retries = 1;
            spawn_bounded(format!("worker ({case})"), move || {
                run_fleet_worker(&opts(), &w)
            })
        };
        let mut seen = Vec::new();
        let (stream, _) = listener.accept().unwrap();
        answer(stream, |request| {
            seen.push(request.clone());
            Response::Assign {
                round: 0,
                shard: 0,
                shard_count: SHARDS,
                lease_ms: 5_000,
                epoch: 0,
                job,
                spec: spec.clone(),
                batch: 3,
                rounds: ROUNDS,
                init: init.clone(),
            }
        });
        let msg = worker
            .join_by(Instant::now() + BOUND)
            .unwrap_err()
            .to_string();
        assert!(msg.contains(&format!("{job:#018x}")), "{case}: {msg}");
        if case == "other job" {
            assert!(msg.contains(&format!("{other_job:#018x}")), "{case}: {msg}");
        }
        // The worker has exited, so any further request it made would
        // already be waiting in the accept queue.
        listener.set_nonblocking(true).unwrap();
        let next = listener.accept().map(|_| ()).unwrap_err();
        assert_eq!(
            next.kind(),
            ErrorKind::WouldBlock,
            "{case}: a second request"
        );
        assert_eq!(
            seen,
            vec![Request::PollAny {
                worker: "w".to_string()
            }],
            "{case}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Replicas of one shard are byte-identical however they are run:
    /// different scratch paths, different evaluation worker counts. This
    /// is the invariant the coordinator's first-wins byte-compare
    /// settlement *assumes*; here it is checked directly.
    #[test]
    fn duplicate_shard_runs_byte_compare_equal(
        seed in 0u64..500,
        shard in 0u32..2,
        workers in 0usize..3,
    ) {
        let config = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(6), 10.0)
            .with_seed(seed);
        let init = init_for_round(&config, 0, None).unwrap();
        let spec = ShardSpec::new(shard, 2).unwrap();
        let dir = tmp(&format!("dup-{seed}-{shard}-{workers}"));
        let first = fnas_coord::run_round_shard(
            &config, 0, spec,&init,
            &BatchOptions::default().with_batch_size(3).with_workers(0),
            &dir.join("first.ckpt"),
        ).unwrap();
        let second = fnas_coord::run_round_shard(
            &config, 0, spec, &init,
            &BatchOptions::default().with_batch_size(3).with_workers(workers),
            &dir.join("second.ckpt"),
        ).unwrap();
        prop_assert_eq!(first, second);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
