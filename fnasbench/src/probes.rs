//! Decorators that time one layer from outside, at its public trait.
//!
//! Both forward **every** trait method to the wrapped value. That matters:
//! the engine memoises accuracies only when the oracle reports
//! `deterministic()`, and the latency evaluator skips store writes unless
//! the store reports `enabled()`, so a decorator that fell back to a
//! default would make the traced run execute a different program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fnas::evaluator::AccuracyEvaluator;
use fnas::resilience::FaultStatsSnapshot;
use fnas_controller::arch::ChildArch;
use fnas_exec::Deadline;
use fnas_store::{CacheKey, Store, StoreCounters};

use crate::trace;

/// Durations of the calls one decorator saw, in nanoseconds.
#[derive(Debug, Default)]
pub struct Timings(Mutex<Vec<u64>>);

impl Timings {
    fn record(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.0.lock().expect("timings lock poisoned").push(ns);
    }

    /// Every recorded duration, in milliseconds.
    pub fn millis(&self) -> Vec<f64> {
        let v = self.0.lock().expect("timings lock poisoned");
        v.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// What every [`TimedStore`] of one repetition saw.
#[derive(Debug, Default)]
pub struct StoreTimings {
    pub gets: Timings,
    pub puts: Timings,
    bytes_put: AtomicU64,
}

impl StoreTimings {
    /// Payload bytes published through `put`.
    pub fn bytes_put(&self) -> u64 {
        self.bytes_put.load(Ordering::Relaxed)
    }
}

/// A [`Store`] that times `get` and `put` and records a span around each.
#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<dyn Store>,
    timings: Arc<StoreTimings>,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn Store>, timings: Arc<StoreTimings>) -> Self {
        TimedStore { inner, timings }
    }
}

impl Store for TimedStore {
    fn get(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let _s = trace::span("store.get");
        let t = Instant::now();
        let out = self.inner.get(key);
        self.timings.gets.record(t);
        out
    }

    fn put(&self, key: &CacheKey, payload: &[u8]) {
        let _s = trace::span("store.put");
        let t = Instant::now();
        self.inner.put(key, payload);
        self.timings.puts.record(t);
        self.timings
            .bytes_put
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
    }

    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn put_artifact(&self, job: u64, name: &str, bytes: &[u8]) {
        let _s = trace::span("store.put_artifact");
        self.inner.put_artifact(job, name, bytes);
    }

    fn get_artifact(&self, job: u64, name: &str) -> Option<Vec<u8>> {
        let _s = trace::span("store.get_artifact");
        self.inner.get_artifact(job, name)
    }
}

/// An [`AccuracyEvaluator`] shared across repetitions (so set-up work such
/// as dataset generation is paid once), optionally timing every call.
#[derive(Debug)]
pub struct SharedEvaluator {
    inner: Arc<dyn AccuracyEvaluator>,
    timings: Option<Arc<Timings>>,
}

impl SharedEvaluator {
    pub fn new(inner: Arc<dyn AccuracyEvaluator>, timings: Option<Arc<Timings>>) -> Self {
        SharedEvaluator { inner, timings }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.timings {
            None => f(),
            Some(timings) => {
                let _s = trace::span("nn.evaluate");
                let t = Instant::now();
                let out = f();
                timings.record(t);
                out
            }
        }
    }
}

impl AccuracyEvaluator for SharedEvaluator {
    fn evaluate(&self, arch: &ChildArch, rng: &mut dyn rand::RngCore) -> fnas::Result<f32> {
        self.timed(|| self.inner.evaluate(arch, rng))
    }

    fn evaluate_with_deadline(
        &self,
        arch: &ChildArch,
        rng: &mut dyn rand::RngCore,
        deadline: Option<&Deadline>,
    ) -> fnas::Result<f32> {
        self.timed(|| self.inner.evaluate_with_deadline(arch, rng, deadline))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.inner.fault_stats()
    }
}
