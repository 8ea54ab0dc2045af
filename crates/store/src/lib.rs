//! Persistent content-addressed store for FNAS hardware-oracle results.
//!
//! Every in-memory cache in the search stack dies with its process, so a
//! fleet of `fnas-worker` processes recomputes the same accelerator designs
//! and cycle simulations over and over. This crate is the durable L2 under
//! those caches: a std-only, crash-safe, content-addressed on-disk cache
//! keyed by `(architecture digest, device digest, backend, schema version)`.
//!
//! Design rules (see DESIGN.md §14):
//!
//! - **Canonical keys.** [`CacheKey`] has a fixed-width byte encoding and a
//!   derived 128-bit path digest, which an in-memory index maps to the
//!   record's pack, offset and length.
//! - **One pack per handle.** A [`DiskStore`] handle appends its records,
//!   one frame per `write`, to its own `objects/<pid>-<n>.pack`, created
//!   on its first `put`: a record costs an append, not a new file. The
//!   pack is fsynced once, when the handle drops. A frame cut short at a
//!   pack's end (a crash mid-append) is invisible.
//! - **Total reads.** A bad record (truncated, bit-flipped, wrong key,
//!   wrong schema version) is a miss, never a panic, and never a wrong
//!   answer: records embed their full key and a checksum.
//! - **Cache, not truth.** Every store failure is soft; the oracle can
//!   always recompute. Durable data keeps its fsync: job artifacts go
//!   through [`bytes::publish_atomic`], as checkpoint saves and WAL
//!   spills do.
//!
//! The crate is dependency-free and does not know what the payloads mean;
//! backends (the analytic model, the simulator) define their own payload
//! codecs against [`SCHEMA_VERSION`]. Being the lowest crate every
//! persistence layer depends on, it also hosts [`bytes`], the byte layer
//! (cursors, checksummed frames, atomic publish, hashes) all nine on-disk
//! and on-wire formats of the workspace are built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod disk;
pub mod key;
pub mod record;

pub use bytes::digest128;
pub use disk::{DiskStore, GcReport, JobArtifacts, StoreStat, VerifyReport};
pub use key::{Backend, CacheKey, ENCODED_KEY_LEN, SCHEMA_VERSION};
pub use record::{decode_any_record, decode_record, encode_record, RECORD_MAGIC};

/// Monotonic counters describing one store handle's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Records served from disk.
    pub hits: u64,
    /// Lookups that found no usable record.
    pub misses: u64,
    /// Records published to disk by this handle.
    pub writes: u64,
    /// Records evicted by garbage collection through this handle.
    pub evictions: u64,
    /// Best-effort record bytes on disk (exact after `open`/`gc`, then
    /// advanced by this handle's own writes).
    pub bytes_on_disk: u64,
}

/// A shared, thread-safe blob cache addressed by [`CacheKey`].
///
/// Implementations must be safe to call concurrently; `get`/`put` are
/// best-effort and must never panic on bad on-disk state.
pub trait Store: std::fmt::Debug + Send + Sync {
    /// Fetches the payload stored under `key`, if a valid record exists.
    fn get(&self, key: &CacheKey) -> Option<Vec<u8>>;

    /// Publishes `payload` under `key` (best-effort; errors are swallowed).
    fn put(&self, key: &CacheKey, payload: &[u8]);

    /// Current traffic counters for this handle.
    fn counters(&self) -> StoreCounters;

    /// `false` for no-op implementations, letting callers skip encode work.
    fn enabled(&self) -> bool {
        true
    }

    /// Publishes a job-scoped artifact (best-effort, like [`Store::put`]).
    ///
    /// Artifacts are *not* content-addressed records: they are named blobs
    /// (shard checkpoints, trial logs) filed under the owning job's digest
    /// so two differently-specced searches can share one store directory
    /// without their checkpoints colliding (DESIGN.md §17). The default is
    /// a no-op so plain caches stay plain caches.
    fn put_artifact(&self, _job: u64, _name: &str, _bytes: &[u8]) {}

    /// Fetches a job-scoped artifact published by [`Store::put_artifact`].
    fn get_artifact(&self, _job: u64, _name: &str) -> Option<Vec<u8>> {
        None
    }
}

/// A disabled store: every lookup misses silently, writes are dropped, and
/// counters stay at zero. This is the default so persistence is strictly
/// opt-in.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullStore;

impl Store for NullStore {
    fn get(&self, _key: &CacheKey) -> Option<Vec<u8>> {
        None
    }

    fn put(&self, _key: &CacheKey, _payload: &[u8]) {}

    fn counters(&self) -> StoreCounters {
        StoreCounters::default()
    }

    fn enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_store_is_inert() {
        let store = NullStore;
        let key = CacheKey::new(1, 2, 3, Backend::Analytic);
        store.put(&key, b"ignored");
        assert_eq!(store.get(&key), None);
        assert_eq!(store.counters(), StoreCounters::default());
        assert!(!store.enabled());
    }
}
