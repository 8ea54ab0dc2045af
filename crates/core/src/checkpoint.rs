//! Versioned on-disk snapshots of a running search.
//!
//! The paper's searches spend hours of cluster time; losing a run to a
//! crashed node means re-training every child explored so far. This module
//! captures everything [`crate::search::Searcher::resume_batched`] needs to
//! continue a batched run **bit-identically**: controller weights and
//! optimiser moments, the EMA baseline, the run RNG state, the trial
//! history, the accumulated modelled cost, and the logical telemetry
//! counters.
//!
//! Deliberately *not* captured:
//!
//! * **memo caches** (latency and accuracy) — by the engine's
//!   cache-transparency invariant they affect only wall-clock time, never
//!   results, so a resumed run merely re-misses and stays bit-identical;
//! * **process-local counters** — wall times, cache traffic and every other
//!   `local` row of the counter table ([`fnas_exec::telemetry`]) describe
//!   work performed by a particular process, not logical search progress.
//!   The `logical` rows are stored as one word each, in table order.
//!
//! The format is a little-endian binary codec on the workspace's byte
//! layer ([`fnas_store::bytes`]): a fixed self-describing layout (magic,
//! version, length-prefixed arrays) that is easy to keep stable. Only the
//! current [`VERSION`] loads. All floating-point state is stored as raw
//! IEEE bits, so `NaN` payloads and signed zeros survive the round trip
//! exactly. Writes go through [`fnas_store::bytes::publish_atomic`], so a
//! crash mid-write leaves the previous checkpoint intact.

use std::fs;
use std::path::Path;

use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_controller::reinforce::TrainerState;
use fnas_exec::TelemetrySnapshot;
use fnas_fpga::Millis;
use fnas_nn::optim::AdamState;
use fnas_store::bytes::{publish_atomic, DecodeError, Reader, Writer};

use crate::cost::SearchCost;
use crate::job::JobSpec;
use crate::search::TrialRecord;
use crate::{FnasError, Result};

/// File magic: identifies FNAS checkpoints regardless of extension.
pub const MAGIC: &[u8; 8] = b"FNASCKPT";

/// Format version, bumped on any layout change; only this version loads.
///
/// * **v1** — the original snapshot layout.
/// * **v2** — inserts a shard header (`shard_index`, `shard_count`,
///   `parent_seed`) between the version word and the run seed.
/// * **v3** — extends the shard header with a `round` counter for
///   iterated synchronous (merge → re-init → continue) searches.
/// * **v4** — appends a length-prefixed canonical [`JobSpec`] after the
///   round counter, so every snapshot names the job it belongs to
///   (DESIGN.md §17).
pub const VERSION: u32 = 4;

/// Everything needed to continue a batched search bit-identically.
///
/// Produced by the engine at episode boundaries (see
/// [`crate::search::CheckpointOptions`]) and consumed by
/// [`crate::search::Searcher::resume_batched`]. Since v2 a snapshot also
/// identifies *which shard of which run* it belongs to, so episode-sharded
/// searches (see [`crate::search::ShardRunner`]) can hand their results
/// around as plain checkpoint files and reduce them with
/// [`SearchCheckpoint::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// This shard's index within the sharded run (`0` for unsharded).
    pub shard_index: u32,
    /// Total shards in the run this snapshot belongs to (`1` = unsharded).
    pub shard_count: u32,
    /// The *parent* run's seed — shared by every shard of one sharded run
    /// (each shard's own `run_seed` is derived from it via
    /// [`fnas_exec::derive_shard_seed`]). Equal to `run_seed` for
    /// unsharded runs.
    pub parent_seed: u64,
    /// Which synchronous round of an iterated (merge → re-init → continue)
    /// search this snapshot belongs to. `0` for one-shot runs; within a
    /// round, each shard's seed tree hangs off
    /// [`fnas_exec::derive_round_seed`]`(parent, round)`.
    pub round: u64,
    /// The job this snapshot belongs to (DESIGN.md §17). Merging
    /// validates job agreement, and `fnas-ckpt diff` flags cross-job
    /// comparisons loudly.
    pub job: JobSpec,
    /// The run's config seed; resume refuses a mismatched config.
    pub run_seed: u64,
    /// The next episode index to execute.
    pub next_episode: u64,
    /// The run RNG's xoshiro256++ state at the episode boundary.
    pub rng_state: [u64; 4],
    /// The EMA baseline's raw state (`None` = no observation yet).
    pub baseline: Option<f32>,
    /// Modelled search cost accumulated so far.
    pub cost: SearchCost,
    /// Controller parameters, optimiser moments and update count.
    pub trainer: TrainerState,
    /// Logical telemetry counters (the process-local ones — cache
    /// traffic, wall times and the rest — are not persisted and read zero
    /// here).
    pub telemetry: TelemetrySnapshot,
    /// Every trial explored so far, in exploration order.
    pub trials: Vec<TrialRecord>,
}

impl SearchCheckpoint {
    /// Serialises the checkpoint to its binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.raw(MAGIC);
        w.u32(VERSION);
        // Shard header, extended with the round counter.
        w.u32(self.shard_index);
        w.u32(self.shard_count);
        w.u64(self.parent_seed);
        w.u64(self.round);
        // Job header: length-prefixed canonical JobSpec encoding.
        let job = self.job.encode();
        w.u64(job.len() as u64);
        w.raw(&job);
        w.u64(self.run_seed);
        w.u64(self.next_episode);
        for s in self.rng_state {
            w.u64(s);
        }
        w.opt(self.baseline, Writer::f32);
        w.f64(self.cost.training_seconds);
        w.f64(self.cost.analyzer_seconds);
        // Trainer.
        w.u64(self.trainer.params.len() as u64);
        for &p in &self.trainer.params {
            w.f32(p);
        }
        w.u64(self.trainer.optimizer.t);
        w.u64(self.trainer.optimizer.moments.len() as u64);
        for slot in &self.trainer.optimizer.moments {
            w.opt(slot.as_ref(), |w, (m, v)| {
                w.u64(m.len() as u64);
                for &x in m.iter().chain(v) {
                    w.f32(x);
                }
            });
        }
        w.u64(self.trainer.updates);
        // Logical telemetry counters, in counter-table order.
        for c in self.telemetry.logical_words() {
            w.u64(c);
        }
        // Trials.
        w.u64(self.trials.len() as u64);
        for trial in &self.trials {
            w.u64(trial.index as u64);
            w.u64(trial.arch.layers().len() as u64);
            for l in trial.arch.layers() {
                w.u32(l.filter_size as u32);
                w.u32(l.num_filters as u32);
            }
            w.opt(trial.latency.map(|l| l.get()), Writer::f64);
            w.opt(trial.accuracy, Writer::f32);
            w.f32(trial.reward);
            w.bool(trial.trained);
        }
        w.into_bytes()
    }

    /// Deserialises a checkpoint from its binary format.
    ///
    /// # Errors
    ///
    /// Returns [`FnasError::InvalidConfig`] on a wrong magic, a version
    /// other than [`VERSION`], or a truncated/corrupt payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::decode(&mut Reader::new(bytes)).map_err(|e| corrupt(&e.to_string()))
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        if r.raw(MAGIC.len())? != MAGIC {
            return Err(DecodeError::Invalid(
                "not an FNAS checkpoint (bad magic)".into(),
            ));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(DecodeError::Invalid(format!(
                "unsupported checkpoint version {version} (this build reads {VERSION})"
            )));
        }
        let (shard_index, shard_count) = (r.u32()?, r.u32()?);
        let parent_seed = r.u64()?;
        let round = r.u64()?;
        let job_len = r.count64(1)?;
        let job = JobSpec::decode(r.raw(job_len)?).ok_or_else(|| {
            DecodeError::Invalid("job header does not decode as a canonical JobSpec".into())
        })?;
        if shard_count == 0 || shard_index >= shard_count {
            return Err(DecodeError::Invalid(format!(
                "implausible shard header {shard_index}/{shard_count}"
            )));
        }
        let run_seed = r.u64()?;
        let next_episode = r.u64()?;
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.u64()?;
        }
        let baseline = r.opt(Reader::f32)?;
        let cost = SearchCost {
            training_seconds: r.f64()?,
            analyzer_seconds: r.f64()?,
        };
        let n = r.count64(4)?;
        let params = r.vec(n, Reader::f32)?;
        let t = r.u64()?;
        let n = r.count64(1)?;
        let moments = r.vec(n, |r| {
            if !r.tag("moment")? {
                return Ok(None);
            }
            let n = r.count64(8)?;
            Ok(Some((r.vec(n, Reader::f32)?, r.vec(n, Reader::f32)?)))
        })?;
        let trainer = TrainerState {
            params,
            optimizer: AdamState { t, moments },
            updates: r.u64()?,
        };
        let telemetry = TelemetrySnapshot::from_logical_words(|| r.u64())?;
        // A trial encodes to at least its index, layer count, two option
        // tags, reward and trained flag.
        let n = r.count64(8 + 8 + 1 + 1 + 4 + 1)?;
        let trials = r.vec(n, |r| {
            let index = r.u64()? as usize;
            let n = r.count64(8)?;
            let layers = r.vec(n, |r| {
                Ok(LayerChoice {
                    filter_size: r.u32()? as usize,
                    num_filters: r.u32()? as usize,
                })
            })?;
            let arch = ChildArch::new(layers).map_err(|e| {
                DecodeError::Invalid(format!("checkpointed architecture is invalid: {e}"))
            })?;
            Ok(TrialRecord {
                index,
                arch,
                latency: r.opt(Reader::f64)?.map(Millis::new),
                accuracy: r.opt(Reader::f32)?,
                reward: r.f32()?,
                trained: r.bool()?,
            })
        })?;
        if r.remaining() > 0 {
            return Err(DecodeError::Invalid(
                "trailing bytes after checkpoint payload".into(),
            ));
        }
        Ok(SearchCheckpoint {
            shard_index,
            shard_count,
            parent_seed,
            round,
            job,
            run_seed,
            next_episode,
            rng_state,
            baseline,
            cost,
            trainer,
            telemetry,
            trials,
        })
    }

    /// Reduces the shards of one sharded run into a single 0-of-1
    /// checkpoint, **in deterministic shard order** regardless of the
    /// order `parts` arrives in:
    ///
    /// * **trials** — concatenated shard 0 first, re-indexed into one
    ///   contiguous exploration order;
    /// * **controller / optimiser** — element-wise mean of parameters and
    ///   Adam moments (a shard-ordered fold, so the float reduction is
    ///   bit-reproducible); update counts and Adam timesteps sum;
    /// * **baseline** — mean of the shards that observed anything;
    /// * **cost** — summed in shard order;
    /// * **round** — every shard must belong to the same round; the
    ///   merged snapshot stays in that round (the coordinator's re-init
    ///   advances it);
    /// * **telemetry** — saturating [`TelemetrySnapshot::merge`] fold;
    /// * **episodes / RNG** — `next_episode` sums; the merged `rng_state`
    ///   is shard 0's (the lead stream — a merged checkpoint represents a
    ///   completed reduction, not a resumable mid-run position of any one
    ///   stream).
    ///
    /// A single 0-of-1 checkpoint merges to itself unchanged (identity).
    ///
    /// # Errors
    ///
    /// Returns [`FnasError::InvalidConfig`] when `parts` is empty, the
    /// shards disagree on `parent_seed`, `shard_count`, `round` or job,
    /// the indices do not tile `0..shard_count` exactly, or the
    /// controllers have different shapes.
    pub fn merge(parts: &[SearchCheckpoint]) -> Result<SearchCheckpoint> {
        let first = parts
            .first()
            .ok_or_else(|| corrupt("merge of zero shards"))?;
        let count = first.shard_count;
        if parts.len() != count as usize {
            return Err(corrupt(&format!(
                "merge received {} shards but they declare a {count}-shard run",
                parts.len()
            )));
        }
        let mut shards: Vec<&SearchCheckpoint> = parts.iter().collect();
        shards.sort_by_key(|c| c.shard_index);
        for (i, c) in shards.iter().enumerate() {
            if c.shard_index != i as u32 {
                return Err(corrupt(&format!(
                    "shard indices do not tile 0..{count} (found {} where {i} was expected)",
                    c.shard_index
                )));
            }
            if c.shard_count != count {
                return Err(corrupt(&format!(
                    "shard {} declares {} total shards, shard 0 declares {count}",
                    c.shard_index, c.shard_count
                )));
            }
            if c.parent_seed != first.parent_seed {
                return Err(corrupt(&format!(
                    "shard {} belongs to run {:#x}, shard 0 to {:#x}",
                    c.shard_index, c.parent_seed, first.parent_seed
                )));
            }
            if c.round != first.round {
                return Err(corrupt(&format!(
                    "shard {} belongs to round {}, shard 0 to round {}",
                    c.shard_index, c.round, first.round
                )));
            }
            if c.job != first.job {
                return Err(corrupt(&format!(
                    "shard {} belongs to job {:#018x} ({}), shard 0 to job {:#018x} ({})",
                    c.shard_index,
                    c.job.job_digest(),
                    c.job,
                    first.job.job_digest(),
                    first.job
                )));
            }
            if c.trainer.params.len() != first.trainer.params.len()
                || c.trainer.optimizer.moments.len() != first.trainer.optimizer.moments.len()
            {
                return Err(corrupt(&format!(
                    "shard {} holds a differently-shaped controller",
                    c.shard_index
                )));
            }
        }

        let n = shards.len();
        let inv = 1.0 / n as f64;
        // Parameters: shard-ordered f64 fold, scaled once at the end.
        let mut params = vec![0.0f64; first.trainer.params.len()];
        for c in &shards {
            for (acc, &p) in params.iter_mut().zip(&c.trainer.params) {
                *acc += f64::from(p);
            }
        }
        let params: Vec<f32> = params.into_iter().map(|p| (p * inv) as f32).collect();
        // Adam moments: slots where any shard has state average with
        // absent slots counting as zeros; all-absent slots stay absent.
        let mut moments = Vec::with_capacity(first.trainer.optimizer.moments.len());
        for slot in 0..first.trainer.optimizer.moments.len() {
            let width = shards.iter().find_map(|c| {
                c.trainer.optimizer.moments[slot]
                    .as_ref()
                    .map(|(m, _)| m.len())
            });
            let Some(width) = width else {
                moments.push(None);
                continue;
            };
            let mut m_acc = vec![0.0f64; width];
            let mut v_acc = vec![0.0f64; width];
            for c in &shards {
                if let Some((m, v)) = &c.trainer.optimizer.moments[slot] {
                    if m.len() != width {
                        return Err(corrupt(&format!(
                            "shard {} holds a differently-shaped moment slot {slot}",
                            c.shard_index
                        )));
                    }
                    for (acc, &x) in m_acc.iter_mut().zip(m) {
                        *acc += f64::from(x);
                    }
                    for (acc, &x) in v_acc.iter_mut().zip(v) {
                        *acc += f64::from(x);
                    }
                }
            }
            moments.push(Some((
                m_acc.into_iter().map(|x| (x * inv) as f32).collect(),
                v_acc.into_iter().map(|x| (x * inv) as f32).collect(),
            )));
        }
        let trainer = TrainerState {
            params,
            optimizer: AdamState {
                t: shards
                    .iter()
                    .fold(0u64, |acc, c| acc.saturating_add(c.trainer.optimizer.t)),
                moments,
            },
            updates: shards
                .iter()
                .fold(0u64, |acc, c| acc.saturating_add(c.trainer.updates)),
        };

        let observed: Vec<f64> = shards
            .iter()
            .filter_map(|c| c.baseline.map(f64::from))
            .collect();
        let baseline = if observed.is_empty() {
            None
        } else {
            Some((observed.iter().sum::<f64>() / observed.len() as f64) as f32)
        };

        let mut cost = SearchCost::default();
        let mut telemetry = TelemetrySnapshot::default();
        let mut trials = Vec::with_capacity(shards.iter().map(|c| c.trials.len()).sum());
        let mut next_episode = 0u64;
        for c in &shards {
            cost.add(c.cost);
            telemetry = telemetry.merge(&c.telemetry);
            next_episode = next_episode.saturating_add(c.next_episode);
            for trial in &c.trials {
                let mut t = trial.clone();
                t.index = trials.len();
                trials.push(t);
            }
        }

        Ok(SearchCheckpoint {
            shard_index: 0,
            shard_count: 1,
            parent_seed: first.parent_seed,
            round: first.round,
            job: first.job.clone(),
            run_seed: first.parent_seed,
            next_episode,
            rng_state: shards[0].rng_state,
            baseline,
            cost,
            trainer,
            telemetry,
            trials,
        })
    }

    /// Writes the checkpoint to `path` atomically through
    /// [`publish_atomic`], so a crash mid-write cannot destroy the
    /// previous checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`FnasError::Io`].
    pub fn save(&self, path: &Path) -> Result<()> {
        Ok(publish_atomic(path, &self.to_bytes())?)
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`FnasError::Io`] for filesystem failures,
    /// [`FnasError::InvalidConfig`] for corrupt or incompatible payloads.
    pub fn load(path: &Path) -> Result<Self> {
        SearchCheckpoint::from_bytes(&fs::read(path)?)
    }
}

fn corrupt(what: &str) -> FnasError {
    FnasError::InvalidConfig {
        what: format!("checkpoint: {what}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchCheckpoint {
        let arch = ChildArch::new(vec![
            LayerChoice {
                filter_size: 5,
                num_filters: 18,
            },
            LayerChoice {
                filter_size: 7,
                num_filters: 36,
            },
        ])
        .unwrap();
        SearchCheckpoint {
            shard_index: 0,
            shard_count: 1,
            parent_seed: 0xF0A5,
            round: 2,
            job: JobSpec::new("mnist")
                .with_required_ms(Some(10.0))
                .with_trials(Some(8))
                .with_seed(Some(0xF0A5)),
            run_seed: 0xF0A5,
            next_episode: 3,
            rng_state: [1, 2, 3, u64::MAX],
            baseline: Some(0.987),
            cost: SearchCost {
                training_seconds: 123.456,
                analyzer_seconds: 0.789,
            },
            trainer: TrainerState {
                params: vec![0.1, -0.2, f32::MIN_POSITIVE],
                optimizer: AdamState {
                    t: 17,
                    moments: vec![None, Some((vec![0.5, -0.5], vec![0.25, 0.125]))],
                },
                updates: 17,
            },
            telemetry: TelemetrySnapshot {
                children_sampled: 24,
                children_pruned: 6,
                children_trained: 15,
                children_unbuildable: 2,
                children_failed: 1,
                episodes: 3,
                panics_caught: 1,
                retries: 4,
                quarantined: 1,
                checkpoints_written: 2,
                train_calls: 16,
                ..TelemetrySnapshot::default()
            },
            trials: vec![
                TrialRecord {
                    index: 0,
                    arch: arch.clone(),
                    latency: Some(Millis::new(4.25)),
                    accuracy: Some(0.9911),
                    reward: 1.0625,
                    trained: true,
                },
                TrialRecord {
                    index: 1,
                    arch,
                    latency: None,
                    accuracy: None,
                    reward: -2.0,
                    trained: false,
                },
            ],
        }
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let ck = sample();
        let restored = SearchCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(restored, ck);
        // Float state survives as bits, not as values: a NaN baseline (a
        // state no healthy run produces, but the codec must not corrupt)
        // round-trips its payload.
        let mut odd = ck;
        odd.trainer.params[0] = f32::from_bits(0x7FC0_1234);
        let restored = SearchCheckpoint::from_bytes(&odd.to_bytes()).unwrap();
        assert_eq!(
            restored.trainer.params[0].to_bits(),
            odd.trainer.params[0].to_bits()
        );
    }

    #[test]
    fn file_round_trip_via_save_and_load() {
        let dir = std::env::temp_dir().join("fnas-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), ck);
        // Saving again overwrites atomically.
        ck.save(&path).unwrap();
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), ck);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let ck = sample();
        let mut bytes = ck.to_bytes();
        bytes[0] = b'X';
        let err = SearchCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let mut bytes = ck.to_bytes();
        bytes[8] = 0xFF; // version LSB
        let err = SearchCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Only the current version loads: v1–v3 layouts are refused.
        for version in 1..VERSION {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let err = SearchCheckpoint::from_bytes(&bytes).unwrap_err();
            assert!(
                err.to_string().contains("unsupported checkpoint version"),
                "{err}"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let bytes = sample().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, MAGIC.len() + 2, 3] {
            assert!(
                SearchCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(SearchCheckpoint::from_bytes(&padded).is_err());
    }

    #[test]
    fn implausible_lengths_fail_without_allocating() {
        let ck = sample();
        let mut bytes = ck.to_bytes();
        // The trainer param-count length prefix sits after magic(8) +
        // version(4) + shard header(24) + job block(8 + N) + seed(8) +
        // episode(8) + rng(32) + baseline(5) + cost(16); overwrite it with
        // an absurd count.
        let at = 8 + 4 + 24 + 8 + ck.job.encode().len() + 8 + 8 + 32 + 5 + 16;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = SearchCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("implausible length"), "{err}");
    }

    #[test]
    fn corrupt_job_headers_are_rejected() {
        let ck = sample();
        let mut bytes = ck.to_bytes();
        // The job codec's version word is the first field of the job
        // block's payload; an unknown version must fail the whole load.
        let payload = MAGIC.len() + 4 + 24 + 8;
        bytes[payload..payload + 4].copy_from_slice(&0xFFu32.to_le_bytes());
        let err = SearchCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("job header"), "{err}");
    }

    #[test]
    fn implausible_shard_headers_are_rejected() {
        let mut ck = sample();
        ck.shard_index = 3;
        ck.shard_count = 2; // index >= count
        let err = SearchCheckpoint::from_bytes(&ck.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("shard header"), "{err}");
    }

    fn shard(i: u32, n: u32) -> SearchCheckpoint {
        let mut ck = sample();
        ck.shard_index = i;
        ck.shard_count = n;
        ck.parent_seed = 0xF0A5;
        ck.run_seed = 0x1000 + u64::from(i);
        ck.next_episode = u64::from(i) + 1;
        ck.baseline = Some(0.5 + 0.1 * i as f32);
        ck.trainer.params = vec![i as f32, -(i as f32), 1.0];
        ck.rng_state = [u64::from(i); 4];
        ck
    }

    #[test]
    fn merge_reduces_in_shard_order_regardless_of_input_order() {
        let (a, b, c) = (shard(0, 3), shard(1, 3), shard(2, 3));
        let forward = SearchCheckpoint::merge(&[a.clone(), b.clone(), c.clone()]).unwrap();
        let shuffled = SearchCheckpoint::merge(&[c, a, b]).unwrap();
        assert_eq!(forward, shuffled);
        assert_eq!(forward.shard_index, 0);
        assert_eq!(forward.shard_count, 1);
        assert_eq!(forward.run_seed, 0xF0A5);
        assert_eq!(forward.round, 2); // the round the shards belong to
        assert_eq!(forward.next_episode, 1 + 2 + 3);
        // Lead shard's RNG stream; mean params; re-indexed trials.
        assert_eq!(forward.rng_state, [0; 4]);
        assert_eq!(forward.trainer.params, vec![1.0, -1.0, 1.0]);
        assert!((forward.baseline.unwrap() - 0.6).abs() < 1e-6);
        assert_eq!(forward.trials.len(), 6);
        for (i, t) in forward.trials.iter().enumerate() {
            assert_eq!(t.index, i);
        }
        // Telemetry counters summed across shards.
        assert_eq!(forward.telemetry.children_sampled, 3 * 24);
        assert_eq!(forward.trainer.updates, 3 * 17);
    }

    #[test]
    fn merge_of_a_single_unsharded_checkpoint_is_identity_modulo_floats() {
        let ck = sample();
        let merged = SearchCheckpoint::merge(std::slice::from_ref(&ck)).unwrap();
        // The mean over one shard is the value itself; f64 round-trips
        // every f32 exactly, so even the float state is bit-identical.
        assert_eq!(merged, ck);
    }

    #[test]
    fn merge_rejects_malformed_shard_sets() {
        assert!(SearchCheckpoint::merge(&[]).is_err());
        // Wrong cardinality.
        let err = SearchCheckpoint::merge(&[shard(0, 3), shard(1, 3)]).unwrap_err();
        assert!(err.to_string().contains("3-shard run"), "{err}");
        // Duplicate index.
        let err = SearchCheckpoint::merge(&[shard(0, 2), shard(0, 2)]).unwrap_err();
        assert!(err.to_string().contains("tile"), "{err}");
        // Mismatched parent seed.
        let mut stray = shard(1, 2);
        stray.parent_seed = 0xDEAD;
        let err = SearchCheckpoint::merge(&[shard(0, 2), stray]).unwrap_err();
        assert!(err.to_string().contains("belongs to run"), "{err}");
        // Mismatched round: an explicit, round-aware message.
        let mut late = shard(1, 2);
        late.round += 1;
        let err = SearchCheckpoint::merge(&[shard(0, 2), late]).unwrap_err();
        assert!(err.to_string().contains("round"), "{err}");
        // Mismatched job: names both digests and both specs.
        let mut wrong_job = shard(1, 2);
        wrong_job.job = wrong_job.job.with_required_ms(Some(2.5));
        let err = SearchCheckpoint::merge(&[shard(0, 2), wrong_job]).unwrap_err();
        assert!(err.to_string().contains("belongs to job"), "{err}");
        // Mismatched controller shape.
        let mut odd = shard(1, 2);
        odd.trainer.params.push(0.0);
        let err = SearchCheckpoint::merge(&[shard(0, 2), odd]).unwrap_err();
        assert!(err.to_string().contains("shaped controller"), "{err}");
    }

    #[test]
    fn load_of_missing_file_is_io() {
        let err = SearchCheckpoint::load(Path::new("/nonexistent/fnas/nope.ckpt")).unwrap_err();
        assert!(matches!(err, FnasError::Io(_)));
    }
}
