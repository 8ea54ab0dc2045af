//! The per-job progress snapshot and its canonical codec.
//!
//! After every fresh settlement the server folds the job coordinator's
//! [`fnas_coord::CoordinatorProgress`] and scheduling telemetry into a
//! [`JobProgress`] and publishes its bytes as the job's `progress.bin`
//! store artifact. `JobStatus`/`WatchProgress` answer with those bytes
//! verbatim — status reads never touch live coordinator state, so a
//! status storm cannot contend with the round barrier.
//!
//! Encoding uses the `fnas_store::bytes` cursors: magic `FNPR1`,
//! fixed-width counters, the best-arch description as a `u32` length +
//! UTF-8. Rewards travel as `f32::to_bits` so the bytes are deterministic
//! and comparable, like every other artifact.

use fnas_coord::CoordinatorProgress;
use fnas_store::bytes::{decode, DecodeError, Writer};

/// Magic prefix of an encoded [`JobProgress`] ("FNas PRogress v1").
pub const MAGIC: &[u8; 5] = b"FNPR1";

/// A point-in-time view of one job, as published to the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobProgress {
    /// `job_digest` of the job.
    pub job: u64,
    /// Current round index at snapshot time.
    pub round: u64,
    /// Total rounds of the job.
    pub rounds: u64,
    /// Shards per round.
    pub shards: u32,
    /// Rounds whose barrier has fallen and whose merge exists.
    pub rounds_merged: u64,
    /// Whether the final accumulated checkpoint exists.
    pub finished: bool,
    /// Trials folded into merged rounds so far.
    pub trials_done: u64,
    /// `f32::to_bits` of the best merged reward (0 until any trial
    /// merges).
    pub best_reward_bits: u32,
    /// Compact description of the best merged architecture (empty until
    /// any trial merges).
    pub best_arch: String,
    /// Shard leases that expired without a heartbeat (this job's
    /// coordinator).
    pub leases_expired: u64,
    /// Shards handed out more than once (speculation + expiry).
    pub shards_redispatched: u64,
    /// Duplicate submissions absorbed first-wins.
    pub duplicate_results: u64,
    /// `Retry` answers served at this job's submit-admission cap.
    pub retries_served: u64,
    /// Milliseconds of backoff those retries advised.
    pub retry_sleep_ms: u64,
}

impl JobProgress {
    /// Folds a coordinator's progress view and telemetry snapshot into
    /// one publishable record.
    pub fn from_parts(
        job: u64,
        p: &CoordinatorProgress,
        t: &fnas_exec::TelemetrySnapshot,
    ) -> JobProgress {
        JobProgress {
            job,
            round: p.round,
            rounds: p.rounds,
            shards: p.shards,
            rounds_merged: p.rounds_merged,
            finished: p.finished,
            trials_done: p.trials_done,
            best_reward_bits: p.best_reward_bits,
            best_arch: p.best_arch.clone(),
            leases_expired: t.leases_expired,
            shards_redispatched: t.shards_redispatched,
            duplicate_results: t.duplicate_results,
            retries_served: t.retries_served,
            retry_sleep_ms: t.retry_sleep_ms,
        }
    }

    /// The best merged reward, decoded from its bit pattern.
    pub fn best_reward(&self) -> f32 {
        f32::from_bits(self.best_reward_bits)
    }

    /// Serialises to the canonical `FNPR1` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(96 + self.best_arch.len());
        w.raw(MAGIC);
        for v in [
            self.job,
            self.round,
            self.rounds,
            self.rounds_merged,
            self.trials_done,
            self.leases_expired,
            self.shards_redispatched,
            self.duplicate_results,
            self.retries_served,
            self.retry_sleep_ms,
        ] {
            w.u64(v);
        }
        w.u32(self.shards);
        w.u32(self.best_reward_bits);
        w.bool(self.finished);
        w.str(&self.best_arch);
        w.into_bytes()
    }

    /// Parses canonical bytes; `None` on any corruption (bad magic,
    /// truncation, trailing bytes, non-UTF-8 description).
    pub fn decode(bytes: &[u8]) -> Option<JobProgress> {
        decode(bytes, |r| {
            if r.raw(MAGIC.len())? != MAGIC {
                return Err(DecodeError::Invalid("not a progress snapshot".into()));
            }
            let mut u64s = [0u64; 10];
            for v in &mut u64s {
                *v = r.u64()?;
            }
            let [job, round, rounds, rounds_merged, trials_done, leases_expired, shards_redispatched, duplicate_results, retries_served, retry_sleep_ms] =
                u64s;
            Ok(JobProgress {
                job,
                round,
                rounds,
                shards: r.u32()?,
                rounds_merged,
                trials_done,
                best_reward_bits: r.u32()?,
                finished: r.bool()?,
                best_arch: r.str()?.to_string(),
                leases_expired,
                shards_redispatched,
                duplicate_results,
                retries_served,
                retry_sleep_ms,
            })
        })
        .ok()
    }
}

impl std::fmt::Display for JobProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {:#018x}: {} ({}/{} rounds merged, {} trials)",
            self.job,
            if self.finished { "finished" } else { "running" },
            self.rounds_merged,
            self.rounds,
            self.trials_done,
        )?;
        if !self.best_arch.is_empty() {
            write!(
                f,
                " | best reward {:.4} ({})",
                self.best_reward(),
                self.best_arch
            )?;
        }
        write!(
            f,
            " | {} dup, {} expired, {} redispatched, {} retries",
            self.duplicate_results,
            self.leases_expired,
            self.shards_redispatched,
            self.retries_served
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobProgress {
        JobProgress {
            job: 0xDEAD_BEEF_C0FF_EE00,
            round: 1,
            rounds: 2,
            shards: 3,
            rounds_merged: 1,
            finished: false,
            trials_done: 24,
            best_reward_bits: 1.25f32.to_bits(),
            best_arch: "5x5:18, 7x7:36".to_string(),
            leases_expired: 1,
            shards_redispatched: 2,
            duplicate_results: 1,
            retries_served: 3,
            retry_sleep_ms: 150,
        }
    }

    #[test]
    fn codec_round_trips() {
        for p in [JobProgress::default(), sample()] {
            assert_eq!(JobProgress::decode(&p.encode()), Some(p));
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let bytes = sample().encode();
        assert_eq!(JobProgress::decode(&bytes[..bytes.len() - 1]), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(JobProgress::decode(&trailing), None);
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(JobProgress::decode(&bad_magic), None);
        let mut bad_bool = bytes;
        // The `finished` byte sits right before the arch length+bytes.
        let arch = sample().best_arch.len();
        let at = 5 + 80 + 4 + 4;
        assert_eq!(at + 1 + 4 + arch, bad_bool.len());
        bad_bool[at] = 7;
        assert_eq!(JobProgress::decode(&bad_bool), None);
    }

    #[test]
    fn display_names_the_job_and_best() {
        let text = sample().to_string();
        assert!(text.contains("0xdeadbeefc0ffee00"), "{text}");
        assert!(text.contains("1/2 rounds"), "{text}");
        assert!(text.contains("5x5:18"), "{text}");
        assert!(
            text.ends_with("1 dup, 1 expired, 2 redispatched, 3 retries"),
            "{text}"
        );
    }
}
