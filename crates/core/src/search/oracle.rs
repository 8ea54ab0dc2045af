//! The unified child oracle: one interface bundling everything the engine
//! asks about a sampled architecture.
//!
//! Before the decomposition, [`crate::search::Searcher`] hand-wired a
//! [`LatencyEvaluator`], a boxed [`AccuracyEvaluator`] and a separate
//! accuracy memo cache, and each loop re-implemented the cache/counter
//! bookkeeping. [`ChildOracle`] owns all three and exposes the three
//! answers the engine needs — latency (staged/memoised), accuracy
//! (memoised when the oracle is deterministic) and fault statistics —
//! behind `&self`, so the engine can hand one reference to every worker.

use fnas_controller::arch::ChildArch;
use fnas_exec::{Deadline, ShardedCache, TelemetrySnapshot};
use fnas_fpga::Millis;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::evaluator::AccuracyEvaluator;
use crate::latency::LatencyEvaluator;
use crate::resilience::FaultStatsSnapshot;
use crate::Result;

/// Latency + accuracy + fault stats for one child architecture.
#[derive(Debug)]
pub struct ChildOracle {
    latency: LatencyEvaluator,
    evaluator: Box<dyn AccuracyEvaluator>,
    // Consulted only when the oracle is deterministic (a pure function of
    // the architecture): memoising a seed-dependent oracle would make a
    // child's recorded accuracy depend on which earlier trial happened to
    // fill the cache.
    accuracy_cache: ShardedCache<ChildArch, f32>,
}

impl ChildOracle {
    /// Bundles a latency evaluator and an accuracy oracle.
    pub fn new(latency: LatencyEvaluator, evaluator: Box<dyn AccuracyEvaluator>) -> Self {
        ChildOracle {
            latency,
            evaluator,
            accuracy_cache: ShardedCache::new(),
        }
    }

    /// The staged latency evaluator (exposed for deployment and benches).
    pub fn latency_eval(&self) -> &LatencyEvaluator {
        &self.latency
    }

    /// Attaches a persistent store as the L2 under the latency evaluator's
    /// in-memory caches (see [`LatencyEvaluator::set_store`]). The store
    /// never changes oracle answers, only how often the design, analyzer
    /// and simulator stages actually run.
    pub fn attach_store(&mut self, store: std::sync::Arc<dyn fnas_store::Store>) {
        self.latency.set_store(store);
    }

    /// Analytic FPGA latency of `arch` (Eq. 5), memoised at stage
    /// granularity with single-flight dedup.
    ///
    /// # Errors
    ///
    /// Propagates mapping and design errors (the architecture is not
    /// buildable on the platform).
    pub fn child_latency(&self, arch: &ChildArch) -> Result<Millis> {
        self.latency.latency(arch)
    }

    /// The memoised accuracy of `arch`, counted as one cache hit, when the
    /// oracle is deterministic and has answered `arch` before. `None`
    /// counts nothing, so a caller that falls back to
    /// [`ChildOracle::accuracy_seeded_deadline`] records one lookup in
    /// all.
    pub fn memo_accuracy(&self, arch: &ChildArch) -> Option<f32> {
        if self.evaluator.deterministic() {
            self.accuracy_cache.peek(arch)
        } else {
            None
        }
    }

    /// Accuracy of `arch` for a child with its derived seed, under an
    /// optional work deadline (see
    /// [`AccuracyEvaluator::evaluate_with_deadline`]): memoised when the
    /// oracle declares itself deterministic, evaluated fresh on a per-child
    /// RNG stream otherwise. A timed-out evaluation surfaces as a transient
    /// fault; because errors are never cached, a later retry under a
    /// roomier budget starts clean.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors, including deadline-exceeded transient
    /// faults (errors are never cached).
    pub fn accuracy_seeded_deadline(
        &self,
        arch: &ChildArch,
        seed: u64,
        deadline: Option<&Deadline>,
    ) -> Result<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        if self.evaluator.deterministic() {
            self.accuracy_cache.get_or_try_insert_with(arch, || {
                self.evaluator
                    .evaluate_with_deadline(arch, &mut rng, deadline)
            })
        } else {
            self.evaluator
                .evaluate_with_deadline(arch, &mut rng, deadline)
        }
    }

    /// Fault statistics accrued by the accuracy oracle, when it tracks
    /// them (see [`crate::resilience::ResilientEvaluator`]).
    pub fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.evaluator.fault_stats()
    }

    /// The oracle's cumulative counters: the latency evaluator's (see
    /// [`LatencyEvaluator::meters`]) plus accuracy-cache traffic and the
    /// accuracy oracle's retries and quarantines. They outlive single
    /// runs, so a run charges `meters().since(&base)` against a reading
    /// taken at its start.
    pub(super) fn meters(&self) -> TelemetrySnapshot {
        let faults = self.fault_stats().unwrap_or_default();
        TelemetrySnapshot {
            accuracy_cache_hits: self.accuracy_cache.hits(),
            accuracy_cache_misses: self.accuracy_cache.misses(),
            retries: faults.retries,
            quarantined: faults.quarantined,
            ..self.latency.meters()
        }
    }
}
