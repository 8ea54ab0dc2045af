//! One codec property, applied to all nine byte formats.
//!
//! [`check_codec`] takes a value and a format's encode/decode pair and
//! asserts that:
//!
//! 1. `decode(encode(x)) == x`;
//! 2. any input that decodes re-encodes to exactly itself, so every
//!    format is canonical (and encoding is therefore injective);
//! 3. decoding mutated encodings — bit flips, truncations, an appended
//!    byte, overwritten length words — never panics.
//!
//! Values come from a seeded generator; the proptest runner draws the
//! seeds. The same file pins the two copies of FNV-1a and SplitMix64
//! (`fnas_exec::hash` below the store, `fnas_store::bytes` above it)
//! equal.

use std::fmt::Debug;

use fnas::checkpoint::SearchCheckpoint;
use fnas::cost::SearchCost;
use fnas::job::{JobSpec, OracleBackend};
use fnas::persist::{decode_report, encode_report};
use fnas::search::TrialRecord;
use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_controller::reinforce::TrainerState;
use fnas_coord::journal::{decode_record, decode_spill, encode_record, encode_spill};
use fnas_coord::{Request, Response, WalRecord};
use fnas_exec::TelemetrySnapshot;
use fnas_fpga::analyzer::AnalyzerReport;
use fnas_fpga::sched::ReuseStrategy;
use fnas_fpga::{Cycles, Millis};
use fnas_nn::optim::AdamState;
use fnas_serve::JobProgress;
use fnas_store::bytes::{frame, unframe};
use fnas_store::{decode_any_record, Backend, CacheKey};
use proptest::prelude::*;

/// Asserts the three codec properties for `value` under one format.
fn check_codec<T: PartialEq + Debug>(
    value: &T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    let bytes = encode(value);
    assert_eq!(
        decode(&bytes).as_ref(),
        Some(value),
        "decode(encode(x)) != x"
    );
    let canonical = |input: &[u8]| {
        if let Some(back) = decode(input) {
            assert_eq!(
                encode(&back),
                input,
                "an accepted input re-encoded differently"
            );
        }
    };
    for cut in 0..bytes.len() {
        canonical(&bytes[..cut]);
    }
    let mut extended = bytes.clone();
    extended.push(0);
    canonical(&extended);
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << (at % 8);
        canonical(&flipped);
        // Length words: absurd, and one past what the input could hold.
        for width in [4, 8] {
            let Some(rest) = bytes.len().checked_sub(at + width) else {
                continue;
            };
            for word in [u64::MAX, rest as u64 + 1] {
                let mut overwritten = bytes.clone();
                overwritten[at..at + width].copy_from_slice(&word.to_le_bytes()[..width]);
                canonical(&overwritten);
            }
        }
    }
}

/// A deterministic value generator over one proptest seed.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = fnas_store::bytes::mix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn flag(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A finite float (codecs store bits; NaN would defeat `==`).
    fn f64(&mut self) -> f64 {
        self.below(1 << 30) as f64 / 1024.0 - 4096.0
    }

    fn f32(&mut self) -> f32 {
        self.f64() as f32
    }

    fn bytes(&mut self) -> Vec<u8> {
        let n = self.below(12);
        (0..n).map(|_| self.u64() as u8).collect()
    }

    fn text(&mut self) -> String {
        ["", "w-α", "mnist", "5x5:18, 7x7:36"][self.below(4) as usize].to_string()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.flag() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| f(self)).collect()
    }
}

fn job(g: &mut Gen) -> JobSpec {
    JobSpec::new(g.text())
        .with_device(g.opt(Gen::text))
        .with_required_ms(g.opt(Gen::f64))
        .with_trials(g.opt(|g| g.below(1000) as usize))
        .with_seed(g.opt(Gen::u64))
        .with_backend(if g.flag() {
            OracleBackend::Simulated
        } else {
            OracleBackend::Analytic
        })
}

fn checkpoint(g: &mut Gen) -> SearchCheckpoint {
    let shard_count = 1 + g.below(4) as u32;
    SearchCheckpoint {
        shard_index: g.below(u64::from(shard_count)) as u32,
        shard_count,
        parent_seed: g.u64(),
        round: g.below(4),
        job: job(g),
        run_seed: g.u64(),
        next_episode: g.below(100),
        rng_state: [g.u64(), g.u64(), g.u64(), g.u64()],
        baseline: g.opt(Gen::f32),
        cost: SearchCost {
            training_seconds: g.f64(),
            analyzer_seconds: g.f64(),
        },
        trainer: TrainerState {
            params: g.vec(6, Gen::f32),
            optimizer: AdamState {
                t: g.below(100),
                moments: g.vec(3, |g| {
                    let n = g.below(3) as usize;
                    g.opt(|g| {
                        let m = (0..n).map(|_| g.f32()).collect();
                        (m, (0..n).map(|_| g.f32()).collect())
                    })
                }),
            },
            updates: g.below(100),
        },
        // Every logical counter; the local ones never reach the bytes.
        telemetry: TelemetrySnapshot::from_logical_words(|| Ok::<_, ()>(g.below(100))).unwrap(),
        trials: (0..g.below(3))
            .map(|index| TrialRecord {
                index: index as usize,
                arch: ChildArch::new(
                    (0..1 + g.below(3))
                        .map(|_| LayerChoice {
                            filter_size: 1 + g.below(7) as usize,
                            num_filters: 1 + g.below(64) as usize,
                        })
                        .collect(),
                )
                .unwrap(),
                latency: g.opt(|g| Millis::new(g.f64())),
                accuracy: g.opt(Gen::f32),
                reward: g.f32(),
                trained: g.flag(),
            })
            .collect(),
    }
}

fn cache_key(g: &mut Gen) -> CacheKey {
    CacheKey {
        arch_digest: (u128::from(g.u64()) << 64) | u128::from(g.u64()),
        device_digest: (u128::from(g.u64()) << 64) | u128::from(g.u64()),
        pipeline_digest: g.u64(),
        backend: if g.flag() {
            Backend::Simulated
        } else {
            Backend::Analytic
        },
        schema_version: g.u64() as u16,
    }
}

fn report(g: &mut Gen) -> AnalyzerReport {
    let cycles = |g: &mut Gen| g.vec(4, |g| Cycles::new(g.u64()));
    AnalyzerReport {
        latency_cycles: Cycles::new(g.u64()),
        latency: Millis::new(g.f64()),
        eq5_cycles: Cycles::new(g.u64()),
        et: cycles(g),
        processing: cycles(g),
        start_deltas: cycles(g),
        reuse: g.vec(4, |g| {
            if g.flag() {
                ReuseStrategy::IfmReuse
            } else {
                ReuseStrategy::OfmReuse
            }
        }),
    }
}

fn request(g: &mut Gen) -> Request {
    match g.below(8) {
        0 => Request::Heartbeat {
            worker: g.text(),
            round: g.u64(),
            shard: g.u32(),
            epoch: g.u64(),
            job: g.u64(),
            fingerprint: g.u64(),
        },
        1 => Request::Submit {
            worker: g.text(),
            round: g.u64(),
            shard: g.u32(),
            epoch: g.u64(),
            job: g.u64(),
            fingerprint: g.u64(),
            bytes: g.bytes(),
        },
        2 => Request::PollAny { worker: g.text() },
        3 => Request::SubmitJob {
            spec: g.bytes(),
            batch: g.u32(),
            shards: g.u32(),
            rounds: g.u64(),
        },
        4 => Request::JobStatus { job: g.u64() },
        5 => Request::ListJobs,
        6 => Request::CancelJob { job: g.u64() },
        _ => Request::WatchProgress { job: g.u64() },
    }
}

fn response(g: &mut Gen) -> Response {
    match g.below(13) {
        0 => Response::Assign {
            round: g.u64(),
            shard: g.u32(),
            shard_count: g.u32(),
            lease_ms: g.u64(),
            epoch: g.u64(),
            job: g.u64(),
            spec: g.bytes(),
            batch: g.u32(),
            rounds: g.u64(),
            init: g.bytes(),
        },
        1 => Response::Wait {
            backoff_ms: g.u64(),
        },
        2 => Response::Finished,
        3 => Response::Ack {
            still_yours: g.flag(),
        },
        4 => Response::Accepted { fresh: g.flag() },
        5 => Response::Error { what: g.text() },
        6 => Response::Retry {
            backoff_ms: g.u64(),
        },
        7 => Response::Stale { epoch: g.u64() },
        8 => Response::WrongJob { job: g.u64() },
        9 => Response::JobAccepted { job: g.u64() },
        10 => Response::JobInfo {
            job: g.u64(),
            state: g.u64() as u8,
            progress: g.bytes(),
        },
        11 => Response::Jobs {
            jobs: g.vec(3, |g| (g.u64(), g.u64() as u8)),
        },
        _ => Response::Cancelled { job: g.u64() },
    }
}

fn wal_record(g: &mut Gen) -> WalRecord {
    let epoch = g.below(4);
    match g.below(5) {
        0 => WalRecord::EpochStarted {
            epoch,
            fingerprint: g.u64(),
            job: g.u64(),
        },
        1 => WalRecord::RoundStarted {
            epoch,
            round: g.u64(),
        },
        2 => WalRecord::ShardSettled {
            epoch,
            round: g.u64(),
            shard: g.u32(),
            len: g.u64(),
            checksum: g.u64(),
        },
        3 => WalRecord::RoundMerged {
            epoch,
            round: g.u64(),
            checksum: g.u64(),
        },
        _ => WalRecord::Finished { epoch },
    }
}

fn progress(g: &mut Gen) -> JobProgress {
    JobProgress {
        job: g.u64(),
        round: g.u64(),
        rounds: g.u64(),
        shards: g.u32(),
        rounds_merged: g.u64(),
        finished: g.flag(),
        trials_done: g.u64(),
        best_reward_bits: g.u32(),
        best_arch: g.text(),
        leases_expired: g.u64(),
        shards_redispatched: g.u64(),
        duplicate_results: g.u64(),
        retries_served: g.u64(),
        retry_sleep_ms: g.u64(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fnasckpt_checkpoints(seed in 0u64..=u64::MAX) {
        check_codec(&checkpoint(&mut Gen(seed)), SearchCheckpoint::to_bytes, |b| {
            SearchCheckpoint::from_bytes(b).ok()
        });
    }

    #[test]
    fn fnasjob1_job_specs(seed in 0u64..=u64::MAX) {
        check_codec(&job(&mut Gen(seed)), JobSpec::encode, JobSpec::decode);
    }

    #[test]
    fn store_cache_keys(seed in 0u64..=u64::MAX) {
        check_codec(&cache_key(&mut Gen(seed)), |k| k.encode().to_vec(), CacheKey::decode);
    }

    #[test]
    fn store_analyzer_report_payloads(seed in 0u64..=u64::MAX) {
        check_codec(&report(&mut Gen(seed)), encode_report, decode_report);
    }

    #[test]
    fn fnastor1_records(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let record = (cache_key(&mut g), g.bytes());
        check_codec(
            &record,
            |(key, payload)| fnas_store::encode_record(key, payload),
            decode_any_record,
        );
    }

    #[test]
    fn fnc1_messages(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        check_codec(&request(&mut g), Request::to_bytes, |b| Request::from_bytes(b).ok());
        check_codec(&response(&mut g), Response::to_bytes, |b| Response::from_bytes(b).ok());
    }

    #[test]
    fn fnaswal1_records(seed in 0u64..=u64::MAX) {
        let decode = |b: &[u8]| {
            decode_record(b).filter(|&(_, used)| used == b.len()).map(|(r, _)| r)
        };
        let record = wal_record(&mut Gen(seed));
        check_codec(&record, encode_record, decode);
        // Header flips re-framed under a valid checksum reach the decoder's
        // canonical check, which the checksum otherwise shields: a field
        // the record's kind leaves unused must stay zero.
        let bytes = encode_record(&record);
        let (header, payload) = unframe(&bytes, b"FNASWAL1", 21).unwrap();
        for at in 0..header.len() {
            let mut flipped = header.to_vec();
            flipped[at] ^= 1 << (at % 8);
            let reframed = frame(b"FNASWAL1", &flipped, payload);
            if let Some(back) = decode(&reframed) {
                assert_eq!(encode_record(&back), reframed);
            }
        }
    }

    #[test]
    fn fnasspl1_spills(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let (round, shard) = (g.below(8), g.below(8) as u32);
        check_codec(
            &g.bytes(),
            |payload| encode_spill(round, shard, payload),
            |b| decode_spill(b, round, shard),
        );
    }

    #[test]
    fn fnpr1_progress_snapshots(seed in 0u64..=u64::MAX) {
        check_codec(&progress(&mut Gen(seed)), JobProgress::encode, JobProgress::decode);
    }

    #[test]
    fn exec_and_store_hashes_agree(seed in 0u64..=u64::MAX) {
        let bytes: Vec<u8> = (0..seed % 64).map(|i| (seed >> (i % 57)) as u8).collect();
        prop_assert_eq!(
            fnas_exec::hash::fnv1a(seed, &bytes),
            fnas_store::bytes::fnv1a(seed, &bytes)
        );
        prop_assert_eq!(fnas_exec::hash::mix64(seed), fnas_store::bytes::mix64(seed));
        prop_assert_eq!(fnas_exec::hash::FNV_OFFSET, fnas_store::bytes::FNV_OFFSET);
    }
}
