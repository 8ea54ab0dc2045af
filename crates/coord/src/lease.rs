//! Lease bookkeeping for one round's shards.
//!
//! The coordinator never *pushes* work: workers poll, and the
//! [`LeaseTable`] answers with one shard to run, bounded by a wall-clock
//! TTL. Three policies live here, all deliberately on the scheduling
//! side of the determinism boundary (they decide *who computes*, never
//! *what the result is* — shard results are pure functions of the config,
//! so any replica's answer is the answer):
//!
//! * **Expiry** — a lease not heartbeated within its TTL is dropped and
//!   the shard returns to the pending pool ([`leases expired`] counter).
//! * **Straggler speculation** — once a shard's oldest live lease has
//!   aged past the straggle threshold, an idle worker is handed a
//!   *speculative replica* of it instead of sitting out the round
//!   barrier ([`shards re-dispatched`] counter).
//! * **First-wins settlement** — the first submitted checkpoint settles
//!   a shard; later replicas are byte-compared against it and discarded
//!   when equal ([`duplicate results`] counter) or rejected as a hard
//!   determinism violation when not.
//!
//! [`leases expired`]: fnas_exec::SearchTelemetry::leases_expired
//! [`shards re-dispatched`]: fnas_exec::SearchTelemetry::shards_redispatched
//! [`duplicate results`]: fnas_exec::SearchTelemetry::duplicate_results

use fnas::FnasError;
use fnas_exec::SearchTelemetry;

/// Wall-clock policy knobs of the lease layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeasePolicy {
    /// How long a lease lives without a heartbeat.
    pub ttl_ms: u64,
    /// Age of a shard's oldest live lease after which an idle worker is
    /// given a speculative replica.
    pub straggle_after_ms: u64,
    /// Most live leases (original + replicas) one shard may have.
    pub max_replicas: usize,
}

impl LeasePolicy {
    /// `ttl_ms` with the conventional defaults: speculate at half the
    /// TTL, at most two live replicas.
    pub fn with_ttl_ms(ttl_ms: u64) -> Self {
        LeasePolicy {
            ttl_ms,
            straggle_after_ms: ttl_ms / 2,
            max_replicas: 2,
        }
    }
}

/// One worker's claim on one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The worker holding the claim.
    pub worker: String,
    /// When the claim was issued (for straggler aging).
    pub issued_ms: u64,
    /// When the claim dies without a heartbeat.
    pub expires_ms: u64,
}

/// Where one shard of the round stands.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    /// Not yet dispatched (or every lease expired).
    Pending,
    /// Live leases, newest last.
    Leased(Vec<Lease>),
    /// Settled: the winning checkpoint's bytes.
    Done(Vec<u8>),
}

/// Lease state for all shards of one round.
#[derive(Debug)]
pub struct LeaseTable {
    policy: LeasePolicy,
    slots: Vec<Slot>,
}

impl LeaseTable {
    /// A fresh table with every one of `count` shards pending.
    pub fn new(count: u32, policy: LeasePolicy) -> Self {
        LeaseTable {
            policy,
            slots: vec![Slot::Pending; count as usize],
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> LeasePolicy {
        self.policy
    }

    /// Drops every lease whose TTL has passed; shards left with no live
    /// lease return to pending. Charged to `telemetry` as
    /// `leases_expired`.
    pub fn sweep(&mut self, now_ms: u64, telemetry: &SearchTelemetry) {
        for slot in &mut self.slots {
            if let Slot::Leased(leases) = slot {
                let before = leases.len();
                leases.retain(|l| l.expires_ms > now_ms);
                for _ in leases.len()..before {
                    telemetry.leases_expired.add(1);
                }
                if leases.is_empty() {
                    *slot = Slot::Pending;
                }
            }
        }
    }

    /// Hands `worker` a shard to run, or `None` when nothing is
    /// assignable: pending shards first (lowest index — deterministic
    /// given the same sequence of calls), then a speculative replica of
    /// the longest-aged straggler. Sweeps expired leases first.
    pub fn assign(
        &mut self,
        worker: &str,
        now_ms: u64,
        telemetry: &SearchTelemetry,
    ) -> Option<u32> {
        self.sweep(now_ms, telemetry);
        // Pending shards first.
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if matches!(slot, Slot::Pending) {
                *slot = Slot::Leased(vec![self.policy.lease(worker, now_ms)]);
                return Some(i as u32);
            }
        }
        // Then the most-aged straggler that can still take a replica and
        // that this worker is not already running.
        let mut best: Option<(u64, usize)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            let Slot::Leased(leases) = slot else { continue };
            if leases.len() >= self.policy.max_replicas || leases.iter().any(|l| l.worker == worker)
            {
                continue;
            }
            let Some(oldest) = leases.iter().map(|l| l.issued_ms).min() else {
                continue;
            };
            if now_ms.saturating_sub(oldest) < self.policy.straggle_after_ms {
                continue;
            }
            if best.is_none_or(|(age, _)| oldest < age) {
                best = Some((oldest, i));
            }
        }
        let (_, i) = best?;
        if let Slot::Leased(leases) = &mut self.slots[i] {
            leases.push(self.policy.lease(worker, now_ms));
        }
        telemetry.shards_redispatched.add(1);
        Some(i as u32)
    }

    /// Extends `worker`'s lease on `shard`. Returns `false` when the
    /// lease is gone (expired, settled, or never issued) — the worker
    /// may keep running (first result still wins) but should expect a
    /// duplicate verdict.
    pub fn heartbeat(
        &mut self,
        shard: u32,
        worker: &str,
        now_ms: u64,
        telemetry: &SearchTelemetry,
    ) -> bool {
        self.sweep(now_ms, telemetry);
        let Some(Slot::Leased(leases)) = self.slots.get_mut(shard as usize) else {
            return false;
        };
        match leases.iter_mut().find(|l| l.worker == worker) {
            Some(lease) => {
                lease.expires_ms = now_ms.saturating_add(self.policy.ttl_ms);
                true
            }
            None => false,
        }
    }

    /// Settles `shard` with `bytes`. First submission wins and returns
    /// `Ok(true)`; a byte-identical duplicate returns `Ok(false)` and is
    /// charged as `duplicate_results`.
    ///
    /// A worker whose lease already expired may still settle the shard —
    /// its result is exactly as valid as any replica's.
    ///
    /// # Errors
    ///
    /// [`FnasError::InvalidConfig`] when `shard` is out of range, or when
    /// a duplicate does **not** byte-compare equal — that is a broken
    /// determinism contract (mismatched worker build or flags), and
    /// merging either candidate silently would poison the run.
    pub fn submit(
        &mut self,
        shard: u32,
        bytes: Vec<u8>,
        telemetry: &SearchTelemetry,
    ) -> fnas::Result<bool> {
        let shard_count = self.slots.len();
        let slot = self
            .slots
            .get_mut(shard as usize)
            .ok_or_else(|| FnasError::InvalidConfig {
                what: format!("submit for shard {shard} of a {shard_count}-shard round"),
            })?;
        match slot {
            Slot::Done(first) => {
                if *first == bytes {
                    telemetry.duplicate_results.add(1);
                    Ok(false)
                } else {
                    Err(FnasError::InvalidConfig {
                        what: format!(
                            "duplicate result for shard {shard} differs from the settled one \
                             ({} vs {} bytes) — replicas must be byte-identical; check worker \
                             build and flags",
                            bytes.len(),
                            first.len()
                        ),
                    })
                }
            }
            _ => {
                *slot = Slot::Done(bytes);
                Ok(true)
            }
        }
    }

    /// Pre-settles `shard` with bytes recovered from the journal during
    /// replay. Unlike [`LeaseTable::submit`] this charges nothing to
    /// telemetry (the settlement was already counted by the incarnation
    /// that earned it) and silently overwrites — replay is the sole
    /// writer at recovery time and journal order is authoritative.
    pub fn restore_done(&mut self, shard: u32, bytes: Vec<u8>) {
        if let Some(slot) = self.slots.get_mut(shard as usize) {
            *slot = Slot::Done(bytes);
        }
    }

    /// Whether every shard has settled.
    pub fn all_done(&self) -> bool {
        self.slots.iter().all(|s| matches!(s, Slot::Done(_)))
    }

    /// The settled checkpoints in shard order.
    ///
    /// # Errors
    ///
    /// [`FnasError::InvalidConfig`] when any shard is still outstanding.
    pub fn done_bytes(&self) -> fnas::Result<Vec<&[u8]>> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                Slot::Done(b) => Ok(b.as_slice()),
                _ => Err(FnasError::InvalidConfig {
                    what: format!("shard {i} has not settled"),
                }),
            })
            .collect()
    }
}

impl LeasePolicy {
    fn lease(&self, worker: &str, now_ms: u64) -> Lease {
        Lease {
            worker: worker.to_string(),
            issued_ms: now_ms,
            expires_ms: now_ms.saturating_add(self.ttl_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(count: u32) -> (LeaseTable, SearchTelemetry) {
        (
            LeaseTable::new(count, LeasePolicy::with_ttl_ms(1000)),
            SearchTelemetry::new(),
        )
    }

    #[test]
    fn pending_shards_are_assigned_lowest_first() {
        let (mut t, tel) = table(3);
        assert_eq!(t.assign("a", 0, &tel), Some(0));
        assert_eq!(t.assign("b", 0, &tel), Some(1));
        assert_eq!(t.assign("c", 0, &tel), Some(2));
        // Everything leased and young: nothing to hand out.
        assert_eq!(t.assign("d", 0, &tel), None);
    }

    #[test]
    fn expired_leases_return_the_shard_to_the_pool() {
        // Speculation off: this test isolates expiry from stragglers.
        let mut policy = LeasePolicy::with_ttl_ms(1000);
        policy.straggle_after_ms = u64::MAX;
        let mut t = LeaseTable::new(1, policy);
        let tel = SearchTelemetry::new();
        assert_eq!(t.assign("a", 0, &tel), Some(0));
        // Heartbeats extend: at t=900 the lease would die at 1000, the
        // heartbeat pushes it to 1900.
        assert!(t.heartbeat(0, "a", 900, &tel));
        assert_eq!(t.assign("b", 1100, &tel), None, "lease still live");
        // No further heartbeat: expired at 1900, reassigned to b.
        assert_eq!(t.assign("b", 2000, &tel), Some(0));
        assert_eq!(tel.snapshot().leases_expired, 1);
        // a's heartbeat now reports the loss.
        assert!(!t.heartbeat(0, "a", 2001, &tel));
    }

    #[test]
    fn stragglers_earn_speculative_replicas() {
        let (mut t, tel) = table(2);
        assert_eq!(t.assign("a", 0, &tel), Some(0));
        assert_eq!(t.assign("b", 0, &tel), Some(1));
        // Keep both leases alive past the straggle threshold.
        assert!(t.heartbeat(0, "a", 400, &tel));
        assert!(t.heartbeat(1, "b", 400, &tel));
        // At 500ms (the straggle threshold) an idle worker replicates the
        // most-aged straggler — shard 0 and 1 tie on age, lowest wins.
        assert_eq!(t.assign("c", 500, &tel), Some(0));
        assert_eq!(tel.snapshot().shards_redispatched, 1);
        // A worker never replicates its own shard; the cap (2) stops a
        // third replica of shard 0, so d gets shard 1.
        assert_eq!(t.assign("a", 500, &tel), Some(1));
        assert_eq!(t.assign("e", 500, &tel), None, "both at the replica cap");
        assert_eq!(tel.snapshot().shards_redispatched, 2);
    }

    #[test]
    fn first_submission_wins_and_byte_equal_duplicates_are_absorbed() {
        let (mut t, tel) = table(1);
        assert_eq!(t.assign("a", 0, &tel), Some(0));
        assert!(t.submit(0, vec![1, 2, 3], &tel).unwrap());
        assert!(t.all_done());
        // The replica arrives later with identical bytes: absorbed.
        assert!(!t.submit(0, vec![1, 2, 3], &tel).unwrap());
        assert_eq!(tel.snapshot().duplicate_results, 1);
        assert_eq!(t.done_bytes().unwrap(), vec![&[1u8, 2, 3][..]]);
    }

    #[test]
    fn diverging_duplicates_are_a_hard_error() {
        let (mut t, tel) = table(1);
        assert_eq!(t.assign("a", 0, &tel), Some(0));
        assert!(t.submit(0, vec![1, 2, 3], &tel).unwrap());
        let err = t.submit(0, vec![9, 9], &tel).unwrap_err();
        assert!(err.to_string().contains("byte-identical"), "{err}");
    }

    #[test]
    fn expired_workers_may_still_settle_a_shard() {
        let (mut t, tel) = table(1);
        assert_eq!(t.assign("a", 0, &tel), Some(0));
        t.sweep(5000, &tel); // a's lease is long dead
        assert_eq!(tel.snapshot().leases_expired, 1);
        // …but its result arrives before any replica's and wins.
        assert!(t.submit(0, vec![7], &tel).unwrap());
        assert!(t.all_done());
    }

    #[test]
    fn done_bytes_requires_every_shard() {
        let (mut t, tel) = table(2);
        assert_eq!(t.assign("a", 0, &tel), Some(0));
        assert!(t.submit(0, vec![1], &tel).unwrap());
        assert!(t.done_bytes().is_err());
        assert!(!t.all_done());
        assert!(t.submit(1, vec![2], &tel).unwrap());
        assert_eq!(t.done_bytes().unwrap().len(), 2);
    }

    #[test]
    fn restored_shards_are_settled_and_absorb_late_replicas() {
        let (mut t, tel) = table(2);
        t.restore_done(0, vec![4, 5]);
        assert!(!t.all_done());
        // The restored shard never re-assigns; the other one still does.
        assert_eq!(t.assign("a", 0, &tel), Some(1));
        // A late replica of the restored shard is absorbed as usual.
        assert!(!t.submit(0, vec![4, 5], &tel).unwrap());
        assert_eq!(tel.snapshot().duplicate_results, 1);
        // Restore itself ignores out-of-range shards.
        t.restore_done(9, vec![1]);
    }

    #[test]
    fn out_of_range_submissions_are_rejected() {
        let (mut t, tel) = table(1);
        assert!(t.submit(5, vec![], &tel).is_err());
    }
}
