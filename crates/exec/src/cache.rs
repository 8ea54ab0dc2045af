//! The lock-striped memo cache.
//!
//! Child-evaluation memoisation (architecture → latency, architecture →
//! accuracy, architecture → hardware artifacts) is read- and write-heavy
//! from every worker at once, so a single `Mutex<HashMap>` would serialise
//! the pool. [`ShardedCache`] stripes the map over N independently locked
//! shards (16 by default, selected by key hash), which bounds contention
//! to simultaneous lookups of keys in the *same* shard.
//!
//! Lookups through [`ShardedCache::get_or_try_insert_with`] are
//! **single-flight**: the first caller of an uncached key becomes the
//! *leader* and runs the builder (outside the shard lock), while
//! concurrent callers of the same key park on a condition variable and
//! receive the leader's value instead of duplicating the work. This
//! matters for the FNAS engine because the builder is the four-stage FNAS
//! tool — racing first lookups used to run the analyzer up to once per
//! worker.
//!
//! Hit/miss counters are monotonic `AtomicU64`s — wide enough that they
//! cannot realistically overflow (2⁶⁴ lookups), unlike the `usize`
//! counters they replaced, which wrap after 2³² on 32-bit targets.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One cache slot: either a computed value or a computation in flight.
#[derive(Debug)]
enum Slot<V> {
    /// The value is ready; lookups clone it out.
    Ready(V),
    /// A leader is computing the value; followers park on the flight.
    InFlight(Arc<Flight<V>>),
}

/// Rendezvous point between the single-flight leader and its followers.
///
/// `result` stays `None` while the leader computes; the leader publishes
/// `Some(Ok(value))` on success or `Some(Err(()))` on failure (errors are
/// not cached, so followers retry — and one of them becomes the next
/// leader).
#[derive(Debug)]
struct Flight<V> {
    result: Mutex<Option<Result<V, ()>>>,
    done: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Publishes the leader's outcome and wakes every parked follower.
    fn publish(&self, outcome: Result<V, ()>) {
        let mut slot = self.result.lock().expect("flight poisoned");
        *slot = Some(outcome);
        self.done.notify_all();
    }

    /// Parks until the leader publishes, then returns its outcome.
    fn wait(&self) -> Result<V, ()> {
        let mut slot = self.result.lock().expect("flight poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.done.wait(slot).expect("flight poisoned");
        }
    }
}

/// A concurrent memo cache striped over independently locked shards, with
/// single-flight deduplication of concurrent misses.
///
/// Values are cloned out of the cache; keep them cheap to clone (the FNAS
/// engine stores `Millis` / `f32` / `Arc`-wrapped artifacts).
///
/// # Examples
///
/// ```
/// use fnas_exec::ShardedCache;
///
/// let cache: ShardedCache<String, u32> = ShardedCache::new();
/// assert_eq!(cache.get(&"a".to_string()), None);
/// cache.insert("a".to_string(), 1);
/// assert_eq!(cache.get(&"a".to_string()), Some(1));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<HashMap<K, Slot<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// The default stripe count.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A cache with [`ShardedCache::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        ShardedCache::with_shards(Self::DEFAULT_SHARDS)
    }

    /// A cache with a custom shard count.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a sharded cache needs at least one shard");
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &K) -> &Mutex<HashMap<K, Slot<V>>> {
        // DefaultHasher with the default keys is deterministic within a
        // build, which is all shard selection needs.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key`, recording a hit or miss. Non-blocking: a key whose
    /// value is still being computed by a single-flight leader counts as a
    /// miss (callers that want to share the in-flight result should use
    /// [`ShardedCache::get_or_try_insert_with`]).
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.peek(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Looks up a ready value for `key`, counting a hit when there is one
    /// and nothing otherwise (an absent key, or one still being computed
    /// by a single-flight leader). A caller that falls back to
    /// [`ShardedCache::get_or_try_insert_with`] on `None` therefore
    /// records exactly the one lookup that call records.
    pub fn peek(&self, key: &K) -> Option<V> {
        let found = match self
            .shard_for(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
        {
            Some(Slot::Ready(v)) => Some(v.clone()),
            Some(Slot::InFlight(_)) | None => None,
        };
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts (or overwrites) an entry. Does not touch the counters.
    ///
    /// Overwriting an in-flight slot does not cancel the leader: it will
    /// finish its computation, publish to its followers, and (on success)
    /// re-insert its — by determinism, identical — value.
    pub fn insert(&self, key: K, value: V) {
        self.shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, Slot::Ready(value));
    }

    /// Returns the cached value for `key`, or computes it with `f` and
    /// caches the result. The computation runs **outside** the shard lock,
    /// so a slow analyzer call never blocks other keys in the same shard,
    /// and is **single-flight**: concurrent callers of the same uncached
    /// key park until the first caller (the leader) publishes its result,
    /// so `f` runs exactly once per key however many workers race on it.
    ///
    /// Counter contract: every call records exactly one lookup — a miss
    /// for the leader, a hit for followers that received the leader's
    /// value (they did not compute) and for callers finding a ready entry.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error; errors are not cached. Followers parked on
    /// a failing leader do not share its error — one of them becomes the
    /// next leader and recomputes (`f` is typically deterministic, so they
    /// fail the same way, each with its own error value).
    pub fn get_or_try_insert_with<E>(
        &self,
        key: &K,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        K: Clone,
    {
        loop {
            let flight = {
                let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
                match shard.get(key) {
                    Some(Slot::Ready(v)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(v.clone());
                    }
                    Some(Slot::InFlight(flight)) => Some(Arc::clone(flight)),
                    None => {
                        // Become the leader for this key.
                        let flight = Arc::new(Flight::new());
                        shard.insert(key.clone(), Slot::InFlight(Arc::clone(&flight)));
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        drop(shard);
                        return self.lead(key, flight, f);
                    }
                }
            };
            if let Some(flight) = flight {
                if let Ok(v) = flight.wait() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(v);
                }
                // The leader failed; loop and contend to become the next
                // leader (the failed leader removed the in-flight slot).
            }
        }
    }

    /// Runs the leader's computation for `key` and publishes the outcome
    /// to any parked followers.
    fn lead<E>(
        &self,
        key: &K,
        flight: Arc<Flight<V>>,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        K: Clone,
    {
        match f() {
            Ok(v) => {
                let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
                shard.insert(key.clone(), Slot::Ready(v.clone()));
                drop(shard);
                flight.publish(Ok(v.clone()));
                Ok(v)
            }
            Err(e) => {
                let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
                // Remove only our own in-flight slot: a concurrent
                // `insert` may have published a ready value meanwhile.
                if let Some(Slot::InFlight(current)) = shard.get(key) {
                    if Arc::ptr_eq(current, &flight) {
                        shard.remove(key);
                    }
                }
                drop(shard);
                flight.publish(Err(()));
                Err(e)
            }
        }
    }

    /// Total *ready* entries across all shards (in-flight computations are
    /// not counted until they complete).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// `true` when no shard holds a ready entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic hit count (lookups that found or were handed an entry).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Monotonic miss count (lookups that found nothing and either
    /// returned `None` or computed the value as the leader).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit rate over all lookups so far (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Drops every ready entry (counters are preserved). In-flight
    /// computations are left to complete and re-insert their value.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .expect("cache shard poisoned")
                .retain(|_, slot| matches!(slot, Slot::InFlight(_)));
        }
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        ShardedCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn get_insert_roundtrip() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..100 {
            cache.insert(k, k * 2);
        }
        assert_eq!(cache.len(), 100);
        for k in 0..100 {
            assert_eq!(cache.get(&k), Some(k * 2));
        }
        assert_eq!(cache.hits(), 100);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn misses_are_counted() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        assert_eq!(cache.get(&7), None);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hit_rate(), 0.0);
        cache.insert(7, 1);
        assert_eq!(cache.get(&7), Some(1));
        assert_eq!(cache.hit_rate(), 0.5);
    }

    #[test]
    fn peek_counts_only_hits() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        assert_eq!(cache.peek(&7), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Peek, then fall back: one miss, exactly as the fallback alone.
        let v: Result<u64, ()> = cache.get_or_try_insert_with(&7, || Ok(70));
        assert_eq!(v, Ok(70));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(cache.peek(&7), Some(70));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A key still being computed is not ready: no value, no count.
        let r: Result<u64, ()> = cache.get_or_try_insert_with(&8, || {
            assert_eq!(cache.peek(&8), None);
            Ok(80)
        });
        assert_eq!(r, Ok(80));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn get_or_try_insert_computes_once_per_key_when_serial() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let calls = AtomicU64::new(0);
        for _ in 0..5 {
            let v: Result<u64, ()> = cache.get_or_try_insert_with(&3, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(30)
            });
            assert_eq!(v, Ok(30));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let r: Result<u64, &str> = cache.get_or_try_insert_with(&1, || Err("nope"));
        assert_eq!(r, Err("nope"));
        assert!(cache.is_empty());
        let r: Result<u64, &str> = cache.get_or_try_insert_with(&1, || Ok(10));
        assert_eq!(r, Ok(10));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache: ShardedCache<u64, u64> = ShardedCache::with_shards(4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let key = (i + t) % 64;
                        let v: Result<u64, ()> =
                            cache.get_or_try_insert_with(&key, || Ok(key * key));
                        assert_eq!(v, Ok(key * key));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
        for key in 0..64 {
            assert_eq!(cache.get(&key), Some(key * key));
        }
        // Every op performs exactly one counted lookup: 8 threads × 500
        // ops + the 64 verification gets.
        assert_eq!(cache.hits() + cache.misses(), 8 * 500 + 64);
    }

    #[test]
    fn single_flight_runs_the_builder_once_per_key() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let builds = AtomicU64::new(0);
        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let cache = &cache;
                let builds = &builds;
                let barrier = &barrier;
                s.spawn(move || {
                    // All workers reach the lookup together so the race on
                    // the uncached key actually happens.
                    barrier.wait();
                    let v: Result<u64, ()> = cache.get_or_try_insert_with(&42, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Hold the flight open long enough for followers
                        // to park rather than slip past the race window.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(4242)
                    });
                    assert_eq!(v, Ok(4242));
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "racing first lookups must share one build"
        );
        // Exactly one leader missed; every follower was handed the value.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), threads as u64 - 1);
    }

    #[test]
    fn failed_leader_hands_over_to_a_follower() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let attempts = AtomicU64::new(0);
        let threads = 4;
        let barrier = Barrier::new(threads);
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let cache = &cache;
                let attempts = &attempts;
                let barrier = &barrier;
                let successes = &successes;
                s.spawn(move || {
                    barrier.wait();
                    let r: Result<u64, &str> = cache.get_or_try_insert_with(&7, || {
                        let n = attempts.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        // The first leader fails; whoever takes over next
                        // succeeds.
                        if n == 0 {
                            Err("first leader fails")
                        } else {
                            Ok(70)
                        }
                    });
                    if r.is_ok() {
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // At most one caller saw the error (the first leader); everyone
        // else eventually received the recomputed value.
        assert!(successes.load(Ordering::Relaxed) >= threads as u64 - 1);
        assert_eq!(cache.get(&7), Some(70));
    }

    #[test]
    fn get_does_not_block_on_an_in_flight_key() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let entered = Barrier::new(2);
        std::thread::scope(|s| {
            let cache = &cache;
            let entered = &entered;
            s.spawn(move || {
                let _: Result<u64, ()> = cache.get_or_try_insert_with(&5, || {
                    entered.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok(50)
                });
            });
            entered.wait();
            // The leader is mid-build: a plain get must return immediately
            // (miss), not park.
            assert_eq!(cache.get(&5), None);
        });
        assert_eq!(cache.get(&5), Some(50));
    }

    #[test]
    fn clear_preserves_counters() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        cache.insert(1, 1);
        let _ = cache.get(&1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _: ShardedCache<u64, u64> = ShardedCache::with_shards(0);
    }

    #[test]
    fn spreads_across_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::with_shards(16);
        for k in 0..256 {
            cache.insert(k, k);
        }
        // With 256 keys over 16 shards, at least half the shards must be
        // non-empty for any reasonable hash.
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(occupied >= 8, "only {occupied} shards occupied");
    }
}
