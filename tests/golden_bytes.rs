//! Golden bytes of every framed or hashed format that no other test pins.
//!
//! `tests/job_identity.rs` pins the job digests, `tests/store_equivalence.rs`
//! the cache-key digest, and `results/*.sha256` the checkpoint bytes of
//! real runs. The formats below are pinned here, byte for byte, so that
//! any change to their layout, checksum or hash fails loudly instead of
//! silently orphaning journals, store records, progress artifacts and
//! checkpoints in the field.

use std::time::Duration;

use fnas::checkpoint::SearchCheckpoint;
use fnas::cost::SearchCost;
use fnas::experiment::ExperimentPreset;
use fnas::job::JobSpec;
use fnas::persist::encode_report;
use fnas::search::{SearchConfig, TrialRecord};
use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_controller::reinforce::TrainerState;
use fnas_coord::framing::write_frame;
use fnas_coord::journal::{encode_record, encode_spill};
use fnas_coord::{config_fingerprint, Request, Response, WalRecord};
use fnas_exec::TelemetrySnapshot;
use fnas_fpga::analyzer::AnalyzerReport;
use fnas_fpga::sched::ReuseStrategy;
use fnas_fpga::{Cycles, Millis};
use fnas_nn::optim::AdamState;
use fnas_serve::JobProgress;
use fnas_store::{Backend, CacheKey};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).unwrap();
    wire
}

#[test]
fn wal_records_of_every_kind_are_pinned() {
    let cases = [
        (
            WalRecord::EpochStarted {
                epoch: 1,
                fingerprint: 0xDEAD_BEEF_0BAD_CAFE,
                job: 0x149B_8DF2_5625_52C6,
            },
            "464e415357414c31010100000000000000000000000000000000000000100000\
            00fecaad0befbeaddec6522556f28d9b14c77b9c5631b0e05c",
        ),
        (
            WalRecord::RoundStarted { epoch: 1, round: 3 },
            "464e415357414c31020100000000000000030000000000000000000000000000\
            002e3cb8ccd0d4684d",
        ),
        (
            WalRecord::ShardSettled {
                epoch: 1,
                round: 3,
                shard: 2,
                len: 171_760,
                checksum: 0x0123_4567_89AB_CDEF,
            },
            "464e415357414c31030100000000000000030000000000000002000000100000\
            00f09e020000000000efcdab896745230113991d15777c1aba",
        ),
        (
            WalRecord::RoundMerged {
                epoch: 2,
                round: 3,
                checksum: 0xFEDC_BA98_7654_3210,
            },
            "464e415357414c31040200000000000000030000000000000000000000080000\
            001032547698badcfe9f7674a0e763188d",
        ),
        (
            WalRecord::Finished { epoch: 2 },
            "464e415357414c31050200000000000000000000000000000000000000000000\
            007bcb139cc176430c",
        ),
    ];
    for (record, golden) in cases {
        assert_eq!(hex(&encode_record(&record)), golden, "{record:?}");
    }
}

#[test]
fn spill_file_is_pinned() {
    assert_eq!(
        hex(&encode_spill(3, 1, b"checkpoint bytes")),
        "464e415357414c310603000000000000000100000010000000636865636b706f\
        696e742062797465732f3a04e941aac443"
    );
}

#[test]
fn store_record_is_pinned() {
    let key = CacheKey::new(
        0x0123_4567_89AB_CDEF_0011_2233_4455_6677,
        0x8899_AABB_CCDD_EEFF_7766_5544_3322_1100,
        0x3F7A_511D,
        Backend::Analytic,
    );
    assert_eq!(
        hex(&fnas_store::encode_record(&key, b"report")),
        "464e4153544f52317766554433221100efcdab89674523010011223344556677\
        ffeeddccbbaa99881d517a3f00000000010200060000007265706f727439b71d\
        f36bffbba3"
    );
}

#[test]
fn progress_snapshot_is_pinned() {
    let progress = JobProgress {
        job: 0x149B_8DF2_5625_52C6,
        round: 1,
        rounds: 2,
        shards: 4,
        rounds_merged: 1,
        finished: true,
        trials_done: 24,
        best_reward_bits: 1.25f32.to_bits(),
        best_arch: "5x5:18, 7x7:36".to_string(),
        leases_expired: 1,
        shards_redispatched: 2,
        duplicate_results: 3,
        retries_served: 4,
        retry_sleep_ms: 150,
    };
    assert_eq!(
        hex(&progress.encode()),
        "464e505231c6522556f28d9b1401000000000000000200000000000000010000\
        0000000000180000000000000001000000000000000200000000000000030000\
        000000000004000000000000009600000000000000040000000000a03f010e00\
        00003578353a31382c203778373a3336"
    );
}

#[test]
fn wire_messages_are_pinned_with_their_frames() {
    let submit = Request::Submit {
        worker: "w-1".to_string(),
        round: 1,
        shard: 2,
        epoch: 3,
        job: 0x149B_8DF2_5625_52C6,
        fingerprint: 0xDEAD_BEEF,
        bytes: b"FNASCKPT".to_vec(),
    };
    assert_eq!(
        hex(&framed(&submit.to_bytes())),
        "464e4331380000000303000000772d3101000000000000000200000003000000\
        00000000c6522556f28d9b14efbeadde0000000008000000464e4153434b5054"
    );
    let assign = Response::Assign {
        round: 1,
        shard: 2,
        shard_count: 4,
        lease_ms: 5000,
        epoch: 3,
        job: 0x149B_8DF2_5625_52C6,
        spec: vec![1, 0, 0, 0],
        batch: 3,
        rounds: 2,
        init: b"init".to_vec(),
    };
    assert_eq!(
        hex(&framed(&assign.to_bytes())),
        "464e4331450000000a0100000000000000020000000400000088130000000000\
        000300000000000000c6522556f28d9b14040000000100000003000000020000\
        000000000004000000696e6974"
    );
}

#[test]
fn analyzer_report_payload_is_pinned() {
    let report = AnalyzerReport {
        latency_cycles: Cycles::new(123_456),
        latency: Millis::new(1.234_56),
        eq5_cycles: Cycles::new(120_000),
        et: vec![Cycles::new(10), Cycles::new(20)],
        processing: vec![Cycles::new(300), Cycles::new(400)],
        start_deltas: vec![Cycles::new(5)],
        reuse: vec![ReuseStrategy::OfmReuse, ReuseStrategy::IfmReuse],
    };
    assert_eq!(
        hex(&encode_report(&report)),
        "40e201000000000038328ffcc1c0f33fc0d40100000000000200000000000000\
        0a00000000000000140000000000000002000000000000002c01000000000000\
        9001000000000000010000000000000005000000000000000200000000000000\
        0102"
    );
}

#[test]
fn config_fingerprint_is_pinned() {
    let config = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(24), 10.0).with_seed(77);
    assert_eq!(config_fingerprint(&config, 3, 4, 2), 0x74b4_777a_1b52_9578);
}

#[test]
fn checkpoint_counter_layout_is_pinned() {
    // The 11 logical counters hold distinct values, so a reordered or
    // added counter word changes the bytes; the process-local counters
    // are non-zero, so one that leaks into the format shows too.
    let logical = TelemetrySnapshot {
        children_sampled: 1,
        children_pruned: 2,
        children_trained: 3,
        children_unbuildable: 4,
        children_failed: 5,
        episodes: 6,
        panics_caught: 7,
        retries: 8,
        quarantined: 9,
        checkpoints_written: 10,
        train_calls: 11,
        ..TelemetrySnapshot::default()
    };
    let ns = Duration::from_nanos;
    let ckpt = SearchCheckpoint {
        shard_index: 1,
        shard_count: 2,
        parent_seed: 77,
        round: 1,
        job: JobSpec::new("mnist")
            .with_trials(Some(24))
            .with_seed(Some(77)),
        run_seed: 78,
        next_episode: 6,
        rng_state: [1, 2, 3, 4],
        baseline: Some(0.5),
        cost: SearchCost {
            training_seconds: 1.5,
            analyzer_seconds: 0.25,
        },
        trainer: TrainerState {
            params: vec![0.5, -1.0],
            optimizer: AdamState {
                t: 6,
                moments: vec![Some((vec![0.25], vec![0.125])), None],
            },
            updates: 6,
        },
        telemetry: TelemetrySnapshot {
            leases_expired: 12,
            shards_redispatched: 13,
            duplicate_results: 14,
            journal_records: 15,
            rounds_recovered: 16,
            stale_submissions_rejected: 17,
            retries_served: 18,
            retry_sleep_ms: 19,
            analyzer_calls: 20,
            latency_cache_hits: 21,
            latency_cache_misses: 22,
            accuracy_cache_hits: 23,
            accuracy_cache_misses: 24,
            store_hits: 25,
            store_misses: 26,
            store_writes: 27,
            store_evictions: 28,
            store_bytes: 29,
            pass_design_ns: 30,
            pass_graph_ns: 31,
            pass_schedule_ns: 33,
            pass_sim_ns: 34,
            sample_time: ns(37),
            latency_time: ns(38),
            accuracy_time: ns(39),
            update_time: ns(40),
            ..logical
        },
        trials: vec![TrialRecord {
            index: 0,
            arch: ChildArch::new(vec![LayerChoice {
                filter_size: 5,
                num_filters: 9,
            }])
            .unwrap(),
            latency: Some(Millis::new(1.5)),
            accuracy: Some(0.75),
            reward: 0.5,
            trained: true,
        }],
    };
    let bytes = ckpt.to_bytes();
    assert_eq!(
        hex(&bytes),
        "464e4153434b50540400000001000000020000004d0000000000000001000000\
        00000000220000000000000001000000050000006d6e69737400000118000000\
        00000000014d00000000000000004e0000000000000006000000000000000100\
        0000000000000200000000000000030000000000000004000000000000000100\
        00003f000000000000f83f000000000000d03f02000000000000000000003f00\
        0080bf060000000000000002000000000000000101000000000000000000803e\
        0000003e00060000000000000001000000000000000200000000000000030000\
        0000000000040000000000000005000000000000000600000000000000070000\
        0000000000080000000000000009000000000000000a000000000000000b0000\
        0000000000010000000000000000000000000000000100000000000000050000\
        000900000001000000000000f83f010000403f0000003f01"
    );
    // Decoding reads every process-local counter as zero.
    let decoded = SearchCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(
        decoded,
        SearchCheckpoint {
            telemetry: logical,
            ..ckpt
        }
    );
}
