//! Crash-safe on-disk store implementation and maintenance operations.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use crate::bytes::publish_atomic;
pub use crate::bytes::TMP_PREFIX;
use crate::key::CacheKey;
use crate::record::{decode_any_record, decode_record, encode_record};
use crate::{Store, StoreCounters};

/// Content-addressed store rooted at a directory.
///
/// Records live under `<root>/objects/<2 hex>/<32 hex>.rec`. Writes go
/// through [`publish_atomic`], the routine checkpoint saves use: readers
/// only ever observe absent or complete records, and a crash mid-write
/// leaves only a `.tmp-*` file that every reader ignores.
///
/// Beside the object tree lives a job-scoped artifact namespace,
/// `<root>/jobs/<016x job digest>/<name>`: named blobs (shard checkpoints,
/// trial logs) owned by one search job. Artifacts use the same atomic
/// tmp-and-rename publication, but they are *not* cache records —
/// [`DiskStore::verify`] and [`DiskStore::gc`] deliberately operate on
/// `objects/` only, so cache maintenance can never evict or flag a
/// job's checkpoints. They are still *visible*: [`DiskStore::stat`]
/// counts artifacts separately ([`DiskStore::job_stats`] breaks them
/// down per job), and a gc pass reports how much artifact data it
/// deliberately skipped.
///
/// All failures are soft: an unreadable or corrupt record is a miss, and a
/// failed write is dropped (the store is a cache, never the source of
/// truth). Counters are process-local and monotonic.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

/// Snapshot of on-disk contents, as reported by `fnas-store stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStat {
    /// Number of complete record files.
    pub records: u64,
    /// Total size of record files in bytes.
    pub bytes: u64,
    /// Abandoned `.tmp-*` files from interrupted writes.
    pub tmp_files: u64,
    /// Job directories under `jobs/` holding at least one artifact.
    pub jobs: u64,
    /// Published artifacts across every job directory.
    pub artifacts: u64,
    /// Total size of those artifacts in bytes (not counted in `bytes`,
    /// and never weighed against the gc budget).
    pub artifact_bytes: u64,
}

/// Artifact accounting of one `jobs/<digest>/` directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobArtifacts {
    /// The owning job's digest (the directory name, parsed).
    pub job: u64,
    /// Published artifacts directly in the job directory.
    pub files: u64,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// Outcome of a full-store integrity scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Records that decoded cleanly.
    pub valid: u64,
    /// Paths whose contents failed framing, checksum, or key/path checks.
    pub corrupt: Vec<PathBuf>,
    /// Abandoned `.tmp-*` files (ignored by readers; not a failure).
    pub tmp_files: u64,
}

impl VerifyReport {
    /// `true` when every record decoded cleanly. Leftover tmp files do not
    /// fail verification — they are invisible to readers by construction.
    pub fn is_ok(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Outcome of a garbage-collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Record files evicted (oldest first).
    pub evicted: u64,
    /// Bytes reclaimed from evicted records.
    pub reclaimed_bytes: u64,
    /// Abandoned tmp files removed.
    pub tmp_removed: u64,
    /// Record bytes remaining after the pass.
    pub remaining_bytes: u64,
    /// Job artifacts present and deliberately left untouched — reported
    /// so "gc didn't shrink the directory" has a visible explanation.
    pub artifacts_skipped: u64,
    /// Total bytes of those skipped artifacts.
    pub artifact_bytes_skipped: u64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root` and scans the
    /// object tree so byte accounting starts from the on-disk truth.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory tree or the
    /// initial scan.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        let store = DiskStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        };
        store.bytes.store(store.stat()?.bytes, Ordering::Relaxed);
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path a record for `key` would live at.
    fn object_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join(key.relative_path())
    }

    /// Directory holding `job`'s artifacts: `<root>/jobs/<016x>/`.
    pub fn job_dir(&self, job: u64) -> PathBuf {
        self.root.join("jobs").join(format!("{job:016x}"))
    }

    /// `true` when `name` is a plain file name an artifact may use: no
    /// path separators, no leading dot (which would collide with the
    /// `.tmp-*` write discipline), not empty.
    fn artifact_name_ok(name: &str) -> bool {
        !name.is_empty() && !name.starts_with('.') && !name.contains(['/', '\\']) && name != ".."
    }

    /// Names of `job`'s published artifacts, sorted. Missing job
    /// directories read as empty; in-flight `.tmp-*` files are invisible.
    ///
    /// # Errors
    ///
    /// Returns any I/O error other than the directory not existing.
    pub fn list_artifacts(&self, job: u64) -> io::Result<Vec<String>> {
        // Entries come sorted by path, so the names are sorted too.
        Ok(sorted_entries(&self.job_dir(job))?
            .into_iter()
            // Subdirectories (a job's `wal/`, say) are not artifacts.
            .filter(|p| p.is_file())
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .filter(|n| Self::artifact_name_ok(n))
            .collect())
    }

    /// Per-job artifact accounting across the whole `jobs/` namespace,
    /// sorted by job digest. Only plain artifact files directly in each
    /// job directory count — subdirectories (per-job WALs) and in-flight
    /// `.tmp-*` files do not. Directories whose name is not a job digest
    /// are ignored.
    ///
    /// # Errors
    ///
    /// Returns any I/O error other than the `jobs/` tree not existing.
    pub fn job_stats(&self) -> io::Result<Vec<JobArtifacts>> {
        let mut stats = Vec::new();
        for dir in sorted_entries(&self.root.join("jobs"))? {
            if !dir.is_dir() {
                continue;
            }
            let Some(job) = dir
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| u64::from_str_radix(n, 16).ok())
            else {
                continue;
            };
            let mut entry = JobArtifacts {
                job,
                ..JobArtifacts::default()
            };
            for path in sorted_entries(&dir)? {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !path.is_file() || !Self::artifact_name_ok(name) {
                    continue;
                }
                if let Ok(meta) = fs::metadata(&path) {
                    entry.files += 1;
                    entry.bytes += meta.len();
                }
            }
            if entry.files > 0 {
                stats.push(entry);
            }
        }
        Ok(stats)
    }

    /// Walks the object tree. Calls `on_record(path, len, mtime)` for every
    /// record file and returns the tmp files' paths.
    fn walk(
        &self,
        mut on_record: impl FnMut(PathBuf, u64, SystemTime),
    ) -> io::Result<Vec<PathBuf>> {
        let mut tmp_files = Vec::new();
        let objects = self.root.join("objects");
        for shard in sorted_entries(&objects)? {
            if !shard.is_dir() {
                continue;
            }
            for path in sorted_entries(&shard)? {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.starts_with(TMP_PREFIX) {
                    tmp_files.push(path);
                    continue;
                }
                if !name.ends_with(".rec") {
                    continue;
                }
                let meta = match fs::metadata(&path) {
                    Ok(meta) => meta,
                    Err(_) => continue,
                };
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                on_record(path, meta.len(), mtime);
            }
        }
        Ok(tmp_files)
    }

    /// Counts records, bytes, and abandoned tmp files in `objects/`,
    /// plus (separately accounted) job artifacts under `jobs/`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from walking the object or jobs trees.
    pub fn stat(&self) -> io::Result<StoreStat> {
        let mut stat = StoreStat::default();
        stat.tmp_files = self
            .walk(|_, len, _| {
                stat.records += 1;
                stat.bytes += len;
            })?
            .len() as u64;
        for job in self.job_stats()? {
            stat.jobs += 1;
            stat.artifacts += job.files;
            stat.artifact_bytes += job.bytes;
        }
        Ok(stat)
    }

    /// Decodes every record, reporting any that fail framing, checksum, or
    /// key/path consistency checks.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from walking the object tree.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        report.tmp_files = self
            .walk(|path, _, _| {
                let ok = fs::read(&path)
                    .ok()
                    .and_then(|bytes| decode_any_record(&bytes))
                    .is_some_and(|(key, _)| {
                        path.file_name().and_then(|n| n.to_str())
                            == Some(format!("{}.rec", key.hex()).as_str())
                    });
                if ok {
                    report.valid += 1;
                } else {
                    report.corrupt.push(path);
                }
            })?
            .len() as u64;
        Ok(report)
    }

    /// Deletes abandoned tmp files, then evicts the oldest records (by
    /// modification time, path as the deterministic tiebreak) until record
    /// bytes fit within `max_bytes`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from walking the object tree.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut records: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        let tmp_paths = self.walk(|path, len, mtime| records.push((mtime, path, len)))?;
        let mut report = GcReport::default();
        for path in tmp_paths {
            if fs::remove_file(&path).is_ok() {
                report.tmp_removed += 1;
            }
        }
        records.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut total: u64 = records.iter().map(|(_, _, len)| len).sum();
        for (_, path, len) in &records {
            if total <= max_bytes {
                break;
            }
            if fs::remove_file(path).is_ok() {
                total -= len;
                report.evicted += 1;
                report.reclaimed_bytes += len;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        report.remaining_bytes = total;
        // Artifacts are owned by their jobs, not by cache maintenance:
        // count what was present and deliberately left alone, so the
        // report says out loud that gc skipped them.
        for job in self.job_stats()? {
            report.artifacts_skipped += job.files;
            report.artifact_bytes_skipped += job.bytes;
        }
        self.bytes.store(total, Ordering::Relaxed);
        Ok(report)
    }
}

impl Store for DiskStore {
    fn get(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let payload = fs::read(self.object_path(key))
            .ok()
            .and_then(|bytes| decode_record(&bytes, key));
        match payload {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: &CacheKey, payload: &[u8]) {
        let path = self.object_path(key);
        if path.exists() {
            return;
        }
        let bytes = encode_record(key, payload);
        if publish(&path, &bytes).is_ok() {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
    }

    fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_on_disk: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn put_artifact(&self, job: u64, name: &str, bytes: &[u8]) {
        if !Self::artifact_name_ok(name) {
            return;
        }
        // Last-writer-wins by design: a re-run round republishes its
        // (byte-identical) shard checkpoint. Artifact traffic is not
        // counted in `bytes` — gc never weighs it against the cap.
        let _ = publish(&self.job_dir(job).join(name), bytes);
    }

    fn get_artifact(&self, job: u64, name: &str) -> Option<Vec<u8>> {
        if !Self::artifact_name_ok(name) {
            return None;
        }
        fs::read(self.job_dir(job).join(name)).ok()
    }
}

/// Publishes `bytes` at `path`, creating its directory on first use.
fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    publish_atomic(path, bytes)
}

/// Entries of `dir` sorted by path, for deterministic traversal order; a
/// missing directory reads as empty.
///
/// # Errors
///
/// Any I/O error other than `dir` not existing.
pub fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(iter) => iter.filter_map(|e| e.ok()).map(|e| e.path()).collect(),
        Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(err) => return Err(err),
    };
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Backend;
    use std::env;

    fn scratch(tag: &str) -> PathBuf {
        let dir = env::temp_dir().join(format!(
            "fnas-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u128) -> CacheKey {
        CacheKey::new(n, 7, 11, Backend::Analytic)
    }

    #[test]
    fn put_then_get_roundtrips_bytes() {
        let dir = scratch("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(1)), None);
        store.put(&key(1), b"payload");
        assert_eq!(store.get(&key(1)), Some(b"payload".to_vec()));
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.writes), (1, 1, 1));
        assert!(c.bytes_on_disk > 0);

        // A second handle on the same directory sees the record (the
        // cross-process path) and re-derives byte accounting from disk.
        let warm = DiskStore::open(&dir).unwrap();
        assert_eq!(warm.get(&key(1)), Some(b"payload".to_vec()));
        assert_eq!(warm.counters().bytes_on_disk, c.bytes_on_disk);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_a_miss_not_a_panic() {
        let dir = scratch("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        store.put(&key(2), b"good bytes");
        let path = store.object_path(&key(2));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(&key(2)), None);
        let verify = store.verify().unwrap();
        assert!(!verify.is_ok());
        assert_eq!(verify.corrupt, vec![path]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_files_are_invisible_and_pass_verify() {
        let dir = scratch("tmp");
        let store = DiskStore::open(&dir).unwrap();
        store.put(&key(3), b"real");
        let shard = store.object_path(&key(3)).parent().unwrap().to_path_buf();
        fs::write(shard.join(format!("{TMP_PREFIX}dead-0")), b"partial wr").unwrap();
        assert_eq!(store.get(&key(3)), Some(b"real".to_vec()));
        let verify = store.verify().unwrap();
        assert!(verify.is_ok());
        assert_eq!(verify.tmp_files, 1);
        let stat = store.stat().unwrap();
        assert_eq!((stat.records, stat.tmp_files), (1, 1));
        let gc = store.gc(u64::MAX).unwrap();
        assert_eq!((gc.evicted, gc.tmp_removed), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_first_until_under_budget() {
        let dir = scratch("gc");
        let store = DiskStore::open(&dir).unwrap();
        for n in 0..4u128 {
            store.put(&key(10 + n), b"xxxxxxxxxxxxxxxx");
            // Distinct mtimes so eviction order is age, not path order.
            let path = store.object_path(&key(10 + n));
            let when = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + n as u64);
            let file = fs::File::open(&path).unwrap();
            file.set_modified(when).unwrap();
        }
        let record_len = fs::metadata(store.object_path(&key(10))).unwrap().len();
        let gc = store.gc(2 * record_len).unwrap();
        assert_eq!(gc.evicted, 2);
        assert_eq!(gc.remaining_bytes, 2 * record_len);
        // The two oldest are gone; the two newest survive.
        assert_eq!(store.get(&key(10)), None);
        assert_eq!(store.get(&key(11)), None);
        assert!(store.get(&key(12)).is_some());
        assert!(store.get(&key(13)).is_some());
        assert_eq!(store.counters().evictions, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_artifacts_roundtrip_and_stay_per_job() {
        let dir = scratch("jobs");
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.get_artifact(0xA, "round-0.ckpt"), None);
        store.put_artifact(0xA, "round-0.ckpt", b"job A bytes");
        store.put_artifact(0xB, "round-0.ckpt", b"job B bytes");
        assert_eq!(
            store.get_artifact(0xA, "round-0.ckpt"),
            Some(b"job A bytes".to_vec())
        );
        assert_eq!(
            store.get_artifact(0xB, "round-0.ckpt"),
            Some(b"job B bytes".to_vec())
        );
        assert_eq!(store.list_artifacts(0xA).unwrap(), vec!["round-0.ckpt"]);
        assert_eq!(store.list_artifacts(0xC).unwrap(), Vec::<String>::new());
        // Republishing overwrites (last writer wins, atomically).
        store.put_artifact(0xA, "round-0.ckpt", b"job A again");
        assert_eq!(
            store.get_artifact(0xA, "round-0.ckpt"),
            Some(b"job A again".to_vec())
        );
        // Names that would escape the job directory are dropped.
        store.put_artifact(0xA, "../escape", b"nope");
        store.put_artifact(0xA, ".tmp-sneaky", b"nope");
        store.put_artifact(0xA, "", b"nope");
        assert_eq!(store.list_artifacts(0xA).unwrap(), vec!["round-0.ckpt"]);
        assert!(!dir.join("escape").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_maintenance_never_touches_job_artifacts() {
        let dir = scratch("jobs-gc");
        let store = DiskStore::open(&dir).unwrap();
        store.put(&key(9), b"cache record");
        store.put_artifact(0xD, "shard.ckpt", b"precious checkpoint");
        // verify sees the object tree only; stat accounts both, on
        // separate axes (record bytes never mix with artifact bytes).
        let stat = store.stat().unwrap();
        assert_eq!(stat.records, 1);
        assert_eq!((stat.jobs, stat.artifacts), (1, 1));
        assert_eq!(stat.artifact_bytes, b"precious checkpoint".len() as u64);
        assert!(store.verify().unwrap().is_ok());
        assert_eq!(store.verify().unwrap().valid, 1);
        // gc to zero evicts every cache record but leaves artifacts —
        // and says so in its report.
        let gc = store.gc(0).unwrap();
        assert_eq!(gc.evicted, 1);
        assert_eq!(gc.artifacts_skipped, 1);
        assert_eq!(
            gc.artifact_bytes_skipped,
            b"precious checkpoint".len() as u64
        );
        assert_eq!(store.get(&key(9)), None);
        assert_eq!(
            store.get_artifact(0xD, "shard.ckpt"),
            Some(b"precious checkpoint".to_vec())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_stats_break_artifacts_down_per_job() {
        let dir = scratch("jobs-stat");
        let store = DiskStore::open(&dir).unwrap();
        store.put_artifact(0xB, "merged.ckpt", b"bbbb");
        store.put_artifact(0xA, "progress.bin", b"aa");
        store.put_artifact(0xA, "merged.ckpt", b"aaaa");
        // A per-job subdirectory (the WAL) and tmp litter are neither
        // artifacts nor errors.
        fs::create_dir_all(store.job_dir(0xA).join("wal")).unwrap();
        fs::write(store.job_dir(0xA).join("wal").join("wal.log"), b"wal").unwrap();
        fs::write(store.job_dir(0xA).join(".tmp-dead-1"), b"partial").unwrap();
        let stats = store.job_stats().unwrap();
        assert_eq!(
            stats,
            vec![
                JobArtifacts {
                    job: 0xA,
                    files: 2,
                    bytes: 6
                },
                JobArtifacts {
                    job: 0xB,
                    files: 1,
                    bytes: 4
                },
            ]
        );
        assert_eq!(
            store.list_artifacts(0xA).unwrap(),
            vec!["merged.ckpt", "progress.bin"],
            "the wal/ subdirectory is not listed as an artifact"
        );
        let stat = store.stat().unwrap();
        assert_eq!((stat.jobs, stat.artifacts, stat.artifact_bytes), (2, 3, 10));
        // Missing jobs tree reads as empty.
        let empty = DiskStore::open(scratch("jobs-none")).unwrap();
        assert_eq!(empty.job_stats().unwrap(), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_is_idempotent_per_key() {
        let dir = scratch("idem");
        let store = DiskStore::open(&dir).unwrap();
        store.put(&key(5), b"first");
        store.put(&key(5), b"second");
        assert_eq!(store.get(&key(5)), Some(b"first".to_vec()));
        assert_eq!(store.counters().writes, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
