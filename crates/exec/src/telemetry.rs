//! Search telemetry: one table of counters, each declared once.
//!
//! The engine records what the search actually did — children sampled,
//! pruned, trained, cache traffic, analyzer/train calls — and how long
//! each phase of the batch loop took on the wall clock. Every counter is
//! one row of the `counters!` table below, which gives:
//!
//! * the field name;
//! * the type: `u64`, or `Duration` for the phase wall times;
//! * the merge rule: `sum` (saturating, never wrapping), or `max` for a
//!   gauge such as the store's bytes on disk;
//! * the scope: `logical` counters describe search progress and persist in
//!   FNASCKPT checkpoints, as one `u64` word each in table order; `local`
//!   ones describe work done by this process and never enter checkpoint
//!   bytes;
//! * the label reports print.
//!
//! From the table the macro generates the live [`SearchTelemetry`] (one
//! relaxed atomic [`Meter`] per row, so workers bump counters without
//! locks), the frozen [`TelemetrySnapshot`], both merges, resume
//! ([`SearchTelemetry::restore_counters`]), the delta a run charges
//! ([`TelemetrySnapshot::since`]), the checkpoint projection and codec
//! words, and the rendered [`TelemetrySnapshot::rows`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One live counter: a relaxed `AtomicU64` (a `Duration` counter holds
/// nanoseconds).
#[derive(Debug, Default)]
pub struct Meter(AtomicU64);

impl Meter {
    /// Adds `n`, saturating at `u64::MAX` instead of wrapping: a counter
    /// folded from many shards must never wrap back to a small number and
    /// mis-report a run as short.
    pub fn add(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(n))
            });
    }

    /// Raises the meter to `n` if it is lower (a gauge, kept as a running
    /// maximum so merges stay commutative).
    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Starts a monotonic timer that adds its lifetime, in nanoseconds, to
    /// this meter when dropped.
    #[must_use = "the timer records on drop"]
    pub fn timer(&self) -> Timer<'_> {
        Timer {
            meter: self,
            start: Instant::now(),
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// RAII guard adding its lifetime to one [`Meter`] (see [`Meter::timer`]).
#[derive(Debug)]
pub struct Timer<'a> {
    meter: &'a Meter,
    start: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.meter.add(self.start.elapsed().raw());
    }
}

/// Whether a counter persists in checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Search progress: persisted in FNASCKPT, restored on resume.
    Logical,
    /// Work done by this process: never persisted or replayed.
    Local,
}

/// One counter of a snapshot, as [`TelemetrySnapshot::rows`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRow {
    /// The counter's label, e.g. `"children sampled"`.
    pub label: &'static str,
    /// The raw value (nanoseconds for a `Duration` counter).
    pub value: u64,
    /// Whether checkpoints persist the counter.
    pub scope: Scope,
}

/// The two counter types, each stored as one `u64` word.
trait Value: Copy + Ord + Default {
    fn from_raw(raw: u64) -> Self;
    fn raw(self) -> u64;
    fn sat_add(self, other: Self) -> Self;
    fn sat_sub(self, other: Self) -> Self;
}

impl Value for u64 {
    fn from_raw(raw: u64) -> Self {
        raw
    }
    fn raw(self) -> u64 {
        self
    }
    fn sat_add(self, other: Self) -> Self {
        self.saturating_add(other)
    }
    fn sat_sub(self, other: Self) -> Self {
        self.saturating_sub(other)
    }
}

impl Value for Duration {
    fn from_raw(raw: u64) -> Self {
        Duration::from_nanos(raw)
    }
    fn raw(self) -> u64 {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX)
    }
    fn sat_add(self, other: Self) -> Self {
        self.checked_add(other).unwrap_or(Duration::MAX)
    }
    fn sat_sub(self, other: Self) -> Self {
        self.saturating_sub(other)
    }
}

macro_rules! counters {
    (@merge sum, $a:expr, $b:expr) => { $a.sat_add($b) };
    (@merge max, $a:expr, $b:expr) => { Ord::max($a, $b) };
    (@since sum, $now:expr, $base:expr) => { $now.sat_sub($base) };
    (@since max, $now:expr, $base:expr) => { $now };
    (@live sum, $meter:expr, $raw:expr) => { $meter.add($raw) };
    (@live max, $meter:expr, $raw:expr) => { $meter.max($raw) };
    (@restore logical, $meter:expr, $v:expr) => { $meter.set($v.raw()) };
    (@restore local, $meter:expr, $v:expr) => {};
    (@logical logical, $v:expr) => { $v };
    (@logical local, $v:expr) => { Value::from_raw(0) };
    (@read logical, $next:ident) => { Value::from_raw($next()?) };
    (@read local, $next:ident) => { Value::from_raw(0) };
    (@scope logical) => { Scope::Logical };
    (@scope local) => { Scope::Local };
    ($(
        $(#[$doc:meta])*
        $name:ident: $ty:ident, $merge:ident, $scope:ident, $label:literal;
    )*) => {
        /// Live counters shared by the engine and its workers: one
        /// [`Meter`] per row of the counter table.
        #[derive(Debug, Default)]
        pub struct SearchTelemetry {
            $($(#[$doc])* pub $name: Meter,)*
        }

        /// A frozen view of [`SearchTelemetry`], safe to store in search
        /// outcomes and checkpoints and to render into reports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct TelemetrySnapshot {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl SearchTelemetry {
            /// Freezes the current values into a plain snapshot.
            pub fn snapshot(&self) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $($name: Value::from_raw(self.$name.get()),)*
                }
            }

            /// Folds a frozen snapshot into the live counters by each
            /// row's merge rule — the engine's path for absorbing an
            /// episode's or a run's telemetry delta. Equal to
            /// [`TelemetrySnapshot::merge`].
            pub fn merge_snapshot(&self, s: &TelemetrySnapshot) {
                $(counters!(@live $merge, self.$name, s.$name.raw());)*
            }

            /// Pre-loads the logical counters from a snapshot (checkpoint
            /// resume). Local counters describe work actually performed by
            /// *this* process and are not replayed.
            pub fn restore_counters(&self, s: &TelemetrySnapshot) {
                $(counters!(@restore $scope, self.$name, s.$name);)*
            }
        }

        impl TelemetrySnapshot {
            /// The pure reduction behind every telemetry merge: saturating
            /// addition of every `sum` counter, maximum of every gauge.
            /// Both are commutative and associative, so folding any number
            /// of shard snapshots gives the same result in any association
            /// order.
            #[must_use]
            pub fn merge(&self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $($name: counters!(@merge $merge, self.$name, other.$name),)*
                }
            }

            /// What happened since `base`, an earlier reading of the same
            /// cumulative counters: each `sum` counter subtracts,
            /// saturating at zero, and each gauge keeps its current value.
            #[must_use]
            pub fn since(&self, base: &TelemetrySnapshot) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $($name: counters!(@since $merge, self.$name, base.$name),)*
                }
            }

            /// The checkpoint projection: the logical counters, with every
            /// local counter reading zero.
            #[must_use]
            pub fn logical(&self) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $($name: counters!(@logical $scope, self.$name),)*
                }
            }

            /// Reads [`TelemetrySnapshot::logical_words`] back, one word
            /// per `next()` call in table order; every local counter reads
            /// zero.
            ///
            /// # Errors
            ///
            /// The first error `next` returns.
            pub fn from_logical_words<E>(
                mut next: impl FnMut() -> Result<u64, E>,
            ) -> Result<TelemetrySnapshot, E> {
                Ok(TelemetrySnapshot {
                    $($name: counters!(@read $scope, next),)*
                })
            }

            /// Every counter's label, raw value and scope, in table order.
            pub fn rows(&self) -> Vec<CounterRow> {
                vec![$(CounterRow {
                    label: $label,
                    value: self.$name.raw(),
                    scope: counters!(@scope $scope),
                },)*]
            }
        }
    };
}

counters! {
    /// Children sampled from the controller.
    children_sampled: u64, sum, logical, "children sampled";
    /// Children pruned by the latency spec without training.
    children_pruned: u64, sum, logical, "children pruned";
    /// Children whose accuracy was evaluated (trained).
    children_trained: u64, sum, logical, "children trained";
    /// Children that could not be built at all.
    children_unbuildable: u64, sum, logical, "children unbuildable";
    /// Children whose evaluation faulted (panic, exhausted retries,
    /// quarantine) and were settled into failed trials.
    children_failed: u64, sum, logical, "children failed";
    /// Completed episodes (batches).
    episodes: u64, sum, logical, "episodes";
    /// Child-evaluation panics caught and isolated.
    panics_caught: u64, sum, logical, "panics caught";
    /// Transient-fault retries issued by the resilient oracle.
    retries: u64, sum, logical, "oracle retries";
    /// Children quarantined for non-finite accuracies.
    quarantined: u64, sum, logical, "quarantined accuracies";
    /// Checkpoints written to disk during the run.
    checkpoints_written: u64, sum, logical, "checkpoints written";
    /// Accuracy-oracle invocations.
    train_calls: u64, sum, logical, "train calls";
    /// Uncached FNAS-tool (analyzer) invocations.
    analyzer_calls: u64, sum, local, "analyzer calls";
    /// Latency-cache hits.
    latency_cache_hits: u64, sum, local, "latency cache hits";
    /// Latency-cache misses.
    latency_cache_misses: u64, sum, local, "latency cache misses";
    /// Accuracy-cache hits.
    accuracy_cache_hits: u64, sum, local, "accuracy cache hits";
    /// Accuracy-cache misses.
    accuracy_cache_misses: u64, sum, local, "accuracy cache misses";
    /// Persistent-store (L2) hits: oracle answers served from disk.
    store_hits: u64, sum, local, "store hits";
    /// Persistent-store lookups that found no usable record.
    store_misses: u64, sum, local, "store misses";
    /// Records written through to the persistent store.
    store_writes: u64, sum, local, "store writes";
    /// Records evicted from the persistent store by garbage collection.
    store_evictions: u64, sum, local, "store evictions";
    /// Latest known persistent-store size in record bytes (a gauge).
    store_bytes: u64, max, local, "store bytes on disk";
    /// Wall time (ns) in the `design` lowering pass.
    pass_design_ns: u64, sum, local, "pass design";
    /// Wall time (ns) in the `taskgraph` lowering pass.
    pass_graph_ns: u64, sum, local, "pass taskgraph";
    /// Wall time (ns) in the `schedule` lowering pass.
    pass_schedule_ns: u64, sum, local, "pass schedule";
    /// Wall time (ns) in the `sim` pass — cycle simulation.
    pass_sim_ns: u64, sum, local, "pass sim";
    /// Shard leases that expired without a heartbeat (coordinator-side).
    leases_expired: u64, sum, local, "leases expired";
    /// Shards handed out more than once — speculative straggler copies
    /// plus expired-lease re-dispatches (coordinator-side).
    shards_redispatched: u64, sum, local, "shards re-dispatched";
    /// Duplicate shard completions discarded first-wins after the
    /// byte-compare assertion (coordinator-side).
    duplicate_results: u64, sum, local, "duplicate results";
    /// Records appended to the coordinator's crash-safe round journal.
    journal_records: u64, sum, local, "journal records";
    /// Completed rounds resumed from the round journal on coordinator
    /// restart instead of being re-run.
    rounds_recovered: u64, sum, local, "rounds recovered";
    /// Submissions rejected by epoch fencing because they were produced
    /// under a previous coordinator incarnation.
    stale_submissions_rejected: u64, sum, local, "stale submissions rejected";
    /// `Retry` answers served at the submit-admission cap
    /// (coordinator-side).
    retries_served: u64, sum, local, "retries served";
    /// Milliseconds of backoff those retries advised.
    retry_sleep_ms: u64, sum, local, "retry sleep (ms)";
    /// Wall time in the (serial) sampling phase.
    sample_time: Duration, sum, local, "sample wall";
    /// Wall time in the (parallel) latency phase.
    latency_time: Duration, sum, local, "latency wall";
    /// Wall time in the (parallel) accuracy phase.
    accuracy_time: Duration, sum, local, "accuracy wall";
    /// Wall time in the (serial) reward/update phase.
    update_time: Duration, sum, local, "update wall";
}

impl SearchTelemetry {
    /// Fresh, all-zero telemetry.
    pub fn new() -> Self {
        SearchTelemetry::default()
    }
}

impl TelemetrySnapshot {
    /// The logical counters' raw values in table order — the counter
    /// words of a checkpoint.
    pub fn logical_words(&self) -> Vec<u64> {
        self.rows()
            .into_iter()
            .filter(|r| r.scope == Scope::Logical)
            .map(|r| r.value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = SearchTelemetry::new();
        t.children_sampled.add(10);
        t.children_pruned.add(1);
        t.children_pruned.add(1);
        t.children_trained.add(1);
        t.children_unbuildable.add(1);
        t.episodes.add(1);
        t.analyzer_calls.add(5);
        t.train_calls.add(3);
        t.latency_cache_hits.add(7);
        t.latency_cache_misses.add(3);
        t.accuracy_cache_hits.add(1);
        t.accuracy_cache_misses.add(1);
        t.store_hits.add(9);
        t.store_misses.add(1);
        t.store_writes.add(4);
        t.store_evictions.add(2);
        t.store_bytes.max(4096);
        t.store_bytes.max(1024); // gauge: a smaller view never shrinks it
        t.children_failed.add(1);
        t.panics_caught.add(1);
        t.retries.add(4);
        t.quarantined.add(2);
        t.checkpoints_written.add(1);
        t.leases_expired.add(1);
        t.shards_redispatched.add(1);
        t.shards_redispatched.add(1);
        t.duplicate_results.add(1);
        t.journal_records.add(3);
        t.rounds_recovered.add(2);
        t.stale_submissions_rejected.add(1);
        t.retries_served.add(2);
        t.retry_sleep_ms.add(200);
        for scale in [10, 1] {
            t.pass_design_ns.add(scale);
            t.pass_graph_ns.add(2 * scale);
            t.pass_schedule_ns.add(4 * scale);
            t.pass_sim_ns.add(5 * scale);
        }
        let s = t.snapshot();
        assert_eq!(s.children_sampled, 10);
        assert_eq!(s.children_pruned, 2);
        assert_eq!(s.children_trained, 1);
        assert_eq!(s.children_unbuildable, 1);
        assert_eq!(s.children_failed, 1);
        assert_eq!(s.episodes, 1);
        assert_eq!(s.panics_caught, 1);
        assert_eq!(s.retries, 4);
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.checkpoints_written, 1);
        assert_eq!(s.leases_expired, 1);
        assert_eq!(s.shards_redispatched, 2);
        assert_eq!(s.duplicate_results, 1);
        assert_eq!(s.journal_records, 3);
        assert_eq!(s.rounds_recovered, 2);
        assert_eq!(s.stale_submissions_rejected, 1);
        assert_eq!(s.retries_served, 2);
        assert_eq!(s.retry_sleep_ms, 200);
        assert_eq!(s.analyzer_calls, 5);
        assert_eq!(s.train_calls, 3);
        assert_eq!(s.latency_cache_hits, 7);
        assert_eq!(s.latency_cache_misses, 3);
        assert_eq!(s.accuracy_cache_hits, 1);
        assert_eq!(s.accuracy_cache_misses, 1);
        assert_eq!(s.store_hits, 9);
        assert_eq!(s.store_misses, 1);
        assert_eq!(s.store_writes, 4);
        assert_eq!(s.store_evictions, 2);
        assert_eq!(s.store_bytes, 4096);
        assert_eq!(
            [
                s.pass_design_ns,
                s.pass_graph_ns,
                s.pass_schedule_ns,
                s.pass_sim_ns,
            ],
            [11, 22, 44, 55]
        );
    }

    #[test]
    fn phase_timers_attribute_time() {
        let t = SearchTelemetry::new();
        {
            let _g = t.latency_time.timer();
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let _g = t.update_time.timer();
        }
        let s = t.snapshot();
        assert!(s.latency_time >= Duration::from_millis(5));
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let t = SearchTelemetry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.children_sampled.add(1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().children_sampled, 8000);
    }

    #[test]
    fn snapshot_merge_saturates_instead_of_wrapping() {
        // Counters right at the u64 edge: a wrapping add would fold these
        // back to tiny values and mis-report a huge run as short.
        let a = TelemetrySnapshot {
            children_sampled: u64::MAX - 1,
            retries: u64::MAX,
            episodes: 3,
            leases_expired: u64::MAX,
            sample_time: Duration::MAX,
            ..TelemetrySnapshot::default()
        };
        let b = TelemetrySnapshot {
            children_sampled: 7,
            retries: 1,
            episodes: 2,
            leases_expired: 9,
            sample_time: Duration::from_secs(1),
            ..TelemetrySnapshot::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.children_sampled, u64::MAX);
        assert_eq!(m.retries, u64::MAX);
        assert_eq!(m.episodes, 5);
        assert_eq!(m.leases_expired, u64::MAX);
        assert_eq!(m.sample_time, Duration::MAX);
    }

    #[test]
    fn snapshot_merge_is_commutative_and_associative() {
        let mk = |base: u64| TelemetrySnapshot {
            children_sampled: base.saturating_mul(u64::MAX / 2),
            children_pruned: base,
            children_trained: base * 2,
            episodes: base,
            train_calls: u64::MAX - base,
            latency_cache_hits: base * 31,
            leases_expired: base * 5,
            shards_redispatched: u64::MAX - base * 7,
            duplicate_results: base,
            journal_records: base * 13,
            rounds_recovered: base,
            stale_submissions_rejected: u64::MAX - base * 2,
            store_hits: base * 11,
            store_writes: u64::MAX - base * 3,
            store_bytes: base * 1000, // merged as max, still commutative
            pass_sim_ns: base * 19,
            accuracy_time: Duration::from_nanos(base),
            ..TelemetrySnapshot::default()
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        // Zero is the identity.
        assert_eq!(a.merge(&TelemetrySnapshot::default()), a);
    }

    #[test]
    fn live_merge_snapshot_matches_the_pure_reduction() {
        let t = SearchTelemetry::new();
        t.children_sampled.add(u64::MAX - 2);
        let delta = TelemetrySnapshot {
            children_sampled: 5,
            children_failed: 1,
            episodes: 1,
            latency_time: Duration::from_millis(7),
            ..TelemetrySnapshot::default()
        };
        let expected = t.snapshot().merge(&delta);
        t.merge_snapshot(&delta);
        assert_eq!(t.snapshot(), expected);
        assert_eq!(t.snapshot().children_sampled, u64::MAX);

        // Every field distinct and non-zero: each sum adds up, and the
        // `store_bytes` gauge keeps the larger view.
        let t = SearchTelemetry::new();
        t.merge_snapshot(&distinct(2));
        t.merge_snapshot(&distinct(1));
        let want = TelemetrySnapshot {
            store_bytes: distinct(2).store_bytes,
            ..distinct(3)
        };
        assert_eq!(t.snapshot(), want);
        assert_eq!(distinct(2).merge(&distinct(1)), want);
    }

    #[test]
    fn restore_counters_preloads_logical_state_only() {
        let t = SearchTelemetry::new();
        t.latency_cache_hits.add(5);
        t.latency_cache_misses.add(5);
        t.store_hits.add(3);
        t.store_misses.add(1);
        t.store_writes.add(2);
        let snap = TelemetrySnapshot {
            children_sampled: 40,
            children_pruned: 10,
            children_trained: 25,
            children_unbuildable: 3,
            children_failed: 2,
            episodes: 5,
            train_calls: 27,
            panics_caught: 1,
            retries: 6,
            quarantined: 1,
            checkpoints_written: 2,
            latency_cache_hits: 99,
            store_hits: 77,
            pass_sim_ns: 55,
            ..TelemetrySnapshot::default()
        };
        t.restore_counters(&snap);
        t.children_sampled.add(8);
        t.episodes.add(1);
        let s = t.snapshot();
        assert_eq!(s.children_sampled, 48);
        assert_eq!(s.episodes, 6);
        assert_eq!(s.children_failed, 2);
        assert_eq!(s.panics_caught, 1);
        assert_eq!(s.retries, 6);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.checkpoints_written, 2);
        // Cache traffic is not replayed: it reflects this process only.
        assert_eq!(s.latency_cache_hits, 5);
        assert_eq!(s.latency_cache_misses, 5);
        // Store traffic is process-local too.
        assert_eq!((s.store_hits, s.store_misses, s.store_writes), (3, 1, 2));
        // Pass timings are process-local too: they describe lowering
        // work actually performed here, not replayed.
        assert_eq!(s.pass_sim_ns, 0);

        // Every field distinct and non-zero: exactly the 11 logical
        // counters are restored; every other field keeps this process's
        // value.
        let t = SearchTelemetry::new();
        t.merge_snapshot(&distinct(1));
        let saved = distinct(2);
        t.restore_counters(&saved);
        assert_eq!(
            t.snapshot(),
            TelemetrySnapshot {
                children_sampled: saved.children_sampled,
                children_pruned: saved.children_pruned,
                children_trained: saved.children_trained,
                children_unbuildable: saved.children_unbuildable,
                children_failed: saved.children_failed,
                episodes: saved.episodes,
                panics_caught: saved.panics_caught,
                retries: saved.retries,
                quarantined: saved.quarantined,
                checkpoints_written: saved.checkpoints_written,
                train_calls: saved.train_calls,
                ..distinct(1)
            }
        );
    }

    #[test]
    fn since_logical_words_and_rows_follow_the_table() {
        // A run's delta: sums subtract (saturating), the gauge keeps its
        // current reading.
        let want = TelemetrySnapshot {
            store_bytes: distinct(3).store_bytes,
            ..distinct(2)
        };
        assert_eq!(distinct(3).since(&distinct(1)), want);
        let back = distinct(1).since(&distinct(2));
        assert_eq!(back.store_bytes, distinct(1).store_bytes);
        assert_eq!(back.children_sampled, 0);
        assert_eq!(back.update_time, Duration::ZERO);

        // The checkpoint words round-trip the logical projection.
        let s = distinct(5);
        let words = s.logical_words();
        assert_eq!(words.len(), 11);
        let mut it = words.iter().copied();
        let read = TelemetrySnapshot::from_logical_words(|| it.next().ok_or(()));
        assert_eq!(read, Ok(s.logical()));
        let mut short = words[..10].iter().copied();
        assert_eq!(
            TelemetrySnapshot::from_logical_words(|| short.next().ok_or("eof")),
            Err("eof")
        );

        // One row per field, labels unique, logical rows in word order.
        let rows = s.rows();
        assert_eq!(rows.len(), 37);
        let labels: std::collections::HashSet<_> = rows.iter().map(|r| r.label).collect();
        assert_eq!(labels.len(), 37);
        let logical: Vec<u64> = rows
            .iter()
            .filter(|r| r.scope == Scope::Logical)
            .map(|r| r.value)
            .collect();
        assert_eq!(logical, words);
        let wall = rows.iter().find(|r| r.label == "sample wall").unwrap();
        assert_eq!(wall.value, 37 * 5);
    }

    /// A snapshot whose 37 fields all differ: each holds its own multiple
    /// of `k`.
    fn distinct(k: u64) -> TelemetrySnapshot {
        let ns = |i: u64| Duration::from_nanos(i * k);
        TelemetrySnapshot {
            children_sampled: k,
            children_pruned: 2 * k,
            children_trained: 3 * k,
            children_unbuildable: 4 * k,
            children_failed: 5 * k,
            episodes: 6 * k,
            panics_caught: 7 * k,
            retries: 8 * k,
            quarantined: 9 * k,
            checkpoints_written: 10 * k,
            leases_expired: 11 * k,
            shards_redispatched: 12 * k,
            duplicate_results: 13 * k,
            journal_records: 14 * k,
            rounds_recovered: 15 * k,
            stale_submissions_rejected: 16 * k,
            retries_served: 17 * k,
            retry_sleep_ms: 18 * k,
            analyzer_calls: 19 * k,
            train_calls: 20 * k,
            latency_cache_hits: 21 * k,
            latency_cache_misses: 22 * k,
            accuracy_cache_hits: 23 * k,
            accuracy_cache_misses: 24 * k,
            store_hits: 25 * k,
            store_misses: 26 * k,
            store_writes: 27 * k,
            store_evictions: 28 * k,
            store_bytes: 29 * k,
            pass_design_ns: 30 * k,
            pass_graph_ns: 31 * k,
            pass_schedule_ns: 33 * k,
            pass_sim_ns: 34 * k,
            sample_time: ns(37),
            latency_time: ns(38),
            accuracy_time: ns(39),
            update_time: ns(40),
        }
    }
}
