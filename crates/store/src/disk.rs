//! Crash-safe on-disk store: one append-only pack of records per store
//! handle, an in-memory index over every pack, and the maintenance
//! operations (`stat`, `verify`, `gc`).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime};

pub use crate::bytes::TMP_PREFIX;
use crate::bytes::{frame_len_hint, frame_prefix, publish_atomic};
use crate::key::{CacheKey, ENCODED_KEY_LEN};
use crate::record::{decode_record, encode_record, RECORD_MAGIC};
use crate::{Store, StoreCounters};

/// File-name suffix of a pack in `objects/`.
const PACK_SUFFIX: &str = ".pack";

/// Bytes a pack scan reads at a time; a longer frame is read whole.
const SCAN_CHUNK: u64 = 64 * 1024;

/// A listing of `objects/` made this soon after the directory's mtime is
/// redone on the next miss: a pack created within the same timestamp
/// tick would leave that mtime unchanged.
const RACY_LISTING: Duration = Duration::from_millis(100);

/// Content-addressed store rooted at a directory.
///
/// Records live in append-only packs, `<root>/objects/<pid>-<n>.pack`,
/// each a run of [`encode_record`] frames. A handle's first `put` creates
/// its own pack (`create_new`), and every later record is one `write` at
/// its end, without an fsync: the pack is synced once, when the handle
/// drops. No handle writes another handle's pack.
///
/// An in-memory index maps each key's path digest to the first valid
/// frame seen for it. `open` builds it from every pack, the handle's own
/// appends extend it, and a `get` miss first indexes what other handles
/// and processes appended since: one stat of `objects/` and one fstat per
/// known pack when nothing changed. A `get` checks the frame it reads
/// again with [`decode_record`], and a `put` of an indexed key writes
/// nothing (first writer wins).
///
/// A frame cut short at a pack's end (a crash mid-append, or an append
/// still in flight) is invisible and ends the pack's clean prefix.
/// Damaged bytes that a valid frame follows are skipped, and their key
/// misses. Files of the old one-file-per-record layout
/// (`objects/<2 hex>/*.rec`, `.tmp-*`) are never read, and
/// [`DiskStore::gc`] removes them.
///
/// Beside the packs lives a job-scoped artifact namespace,
/// `<root>/jobs/<016x job digest>/<name>`: named blobs (shard checkpoints,
/// trial logs) owned by one search job. Artifacts are durable: each is
/// published with [`publish_atomic`] (fsynced tmp file, then rename). They
/// are *not* cache records — [`DiskStore::verify`] and [`DiskStore::gc`]
/// deliberately operate on `objects/` only, so cache maintenance can never
/// evict or flag a job's checkpoints. They are still *visible*:
/// [`DiskStore::stat`] counts artifacts separately
/// ([`DiskStore::job_stats`] breaks them down per job), and a gc pass
/// reports how much artifact data it deliberately skipped.
///
/// All failures are soft: an unreadable or corrupt record is a miss, and a
/// failed write is dropped (the store is a cache, never the source of
/// truth). Counters are process-local and monotonic.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    objects: PathBuf,
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

/// Where one record's frame lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    offset: u64,
    len: u32,
    /// Position in [`Index::packs`].
    pack: u32,
}

/// A pack the handle reads.
#[derive(Debug)]
struct Pack {
    path: PathBuf,
    file: File,
    /// End of the frames indexed so far: the pack's clean prefix, or, for
    /// the handle's own pack, the end of its last append.
    scanned: u64,
    /// The pack's length at its last scan; it is scanned again only once
    /// it grows past this, so a torn tail is read once.
    seen: u64,
}

/// One handle's view of `objects/`.
#[derive(Default)]
struct Index {
    /// Path digest → the first valid frame seen for it.
    records: HashMap<u128, Loc>,
    packs: Vec<Pack>,
    /// Position in `packs` of the pack this handle appends to.
    own: Option<usize>,
    /// `objects/`'s mtime when it was last listed.
    listed: Option<SystemTime>,
    /// Whether that listing came too soon after the mtime to trust.
    racy: bool,
}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Index")
            .field("records", &self.records.len())
            .field("packs", &self.packs.len())
            .field("own", &self.own)
            .finish_non_exhaustive()
    }
}

/// Snapshot of on-disk contents, as reported by `fnas-store stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStat {
    /// Distinct records across every pack's valid frames.
    pub records: u64,
    /// Total size of the packs in bytes.
    pub bytes: u64,
    /// Packs in `objects/`.
    pub packs: u64,
    /// Old-layout files: `<2 hex>/*.rec` records, which are never read,
    /// and abandoned `.tmp-*` files.
    pub litter: u64,
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
    /// Frames that decoded cleanly.
    pub valid: u64,
    /// Packs holding damaged bytes that a valid frame follows, or that
    /// could not be read.
    pub corrupt: Vec<PathBuf>,
    /// Bytes past the packs' clean prefixes: torn or in-flight appends,
    /// invisible to readers (not a failure).
    pub torn_bytes: u64,
    /// Old-layout files (ignored by readers; not a failure).
    pub litter: u64,
}

impl VerifyReport {
    /// `true` when no pack holds damaged frames. Torn tails and
    /// old-layout files do not fail verification — readers never see
    /// them.
    pub fn is_ok(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Outcome of a garbage-collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Distinct records evicted (oldest first).
    pub evicted: u64,
    /// Pack bytes reclaimed: evicted records, older copies, damaged
    /// frames and torn tails.
    pub reclaimed_bytes: u64,
    /// Old-layout files removed.
    pub litter_removed: u64,
    /// Record bytes remaining after the pass, all in one pack.
    pub remaining_bytes: u64,
    /// Job artifacts present and deliberately left untouched — reported
    /// so "gc didn't shrink the directory" has a visible explanation.
    pub artifacts_skipped: u64,
    /// Total bytes of those skipped artifacts.
    pub artifact_bytes_skipped: u64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root` and indexes
    /// every pack, so lookups and byte accounting start from the on-disk
    /// truth.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory tree or listing
    /// `objects/`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        let objects = root.join("objects");
        fs::create_dir_all(&objects)?;
        let mut store = DiskStore {
            root,
            objects,
            index: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        };
        let index = store
            .index
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        refresh(&store.objects, index)?;
        let bytes = index.packs.iter().map(|p| p.seen).sum();
        *store.bytes.get_mut() = bytes;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The index, also after a panic elsewhere: every update leaves it
    /// valid at each step (an entry points at a whole frame of a pack the
    /// handle holds open).
    fn lock(&self) -> MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Lists `objects/` for maintenance.
    fn survey(&self) -> io::Result<Survey> {
        let mut survey = Survey::default();
        for path in sorted_entries(&self.objects)? {
            let Ok(meta) = fs::metadata(&path) else {
                continue;
            };
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if meta.is_dir() {
                if name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()) {
                    for entry in sorted_entries(&path)? {
                        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
                        if name.ends_with(".rec") || name.starts_with(TMP_PREFIX) {
                            survey.litter.push(entry);
                        }
                    }
                    survey.old_dirs.push(path);
                }
            } else if name.starts_with(TMP_PREFIX) {
                survey.litter.push(path);
            } else if name.ends_with(PACK_SUFFIX) {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                survey.packs.push((mtime, path, meta.len()));
            }
        }
        survey.packs.sort();
        Ok(survey)
    }

    /// Counts distinct records, packs, pack bytes and old-layout files in
    /// `objects/`, plus (separately accounted) job artifacts under
    /// `jobs/`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing the object or jobs trees.
    pub fn stat(&self) -> io::Result<StoreStat> {
        let survey = self.survey()?;
        let mut stat = StoreStat {
            litter: survey.litter.len() as u64,
            ..StoreStat::default()
        };
        let mut keys = HashSet::new();
        for (_, path, len) in &survey.packs {
            stat.packs += 1;
            stat.bytes += len;
            if let Ok(scan) = File::open(path).and_then(|file| scan(&file, 0, *len)) {
                keys.extend(scan.frames.iter().map(|&(digest, ..)| digest));
            }
        }
        stat.records = keys.len() as u64;
        for job in self.job_stats()? {
            stat.jobs += 1;
            stat.artifacts += job.files;
            stat.artifact_bytes += job.bytes;
        }
        Ok(stat)
    }

    /// Scans every pack, reporting the ones that hold damaged frames (or
    /// cannot be read), plus torn-tail bytes and old-layout files.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing `objects/`.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let survey = self.survey()?;
        let mut report = VerifyReport {
            litter: survey.litter.len() as u64,
            ..VerifyReport::default()
        };
        for (_, path, len) in survey.packs {
            match File::open(&path).and_then(|file| scan(&file, 0, len)) {
                Ok(scan) => {
                    report.valid += scan.frames.len() as u64;
                    report.torn_bytes += len - scan.clean;
                    if scan.damaged > 0 {
                        report.corrupt.push(path);
                    }
                }
                Err(_) => report.corrupt.push(path),
            }
        }
        Ok(report)
    }

    /// Compacts `objects/` into one fresh pack holding the newest records
    /// that fit within `max_bytes`. Records are ordered by their packs'
    /// `(mtime, path)`, then by offset; the newest copy of each key counts,
    /// and eviction stops keeping at the first record that does not fit.
    /// The fresh pack is synced before the old packs, the old layout's
    /// files and its emptied `<2 hex>` directories are deleted. `jobs/`
    /// is never touched.
    ///
    /// Records that another handle appends to a pack while it is being
    /// compacted are lost with that pack (the store is a cache).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing `objects/` or writing the fresh
    /// pack; no pack is deleted unless the fresh one and its directory
    /// entry were synced.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        // Held throughout, so this handle's own appends wait.
        let mut index = self.lock();
        let survey = self.survey()?;
        let mut report = GcReport::default();
        let mut sources = Vec::new();
        // Every valid frame, oldest first: (digest, source, offset, len).
        let mut frames = Vec::new();
        for (_, path, len) in &survey.packs {
            let Ok(file) = File::open(path) else {
                continue;
            };
            let Ok(scan) = scan(&file, 0, *len) else {
                continue;
            };
            let source = sources.len();
            frames.extend(scan.frames.into_iter().map(|(d, at, n)| (d, source, at, n)));
            sources.push((path, file, *len));
        }
        let mut seen = HashSet::new();
        let mut keep = Vec::new();
        let mut kept_bytes = 0;
        for &(digest, source, offset, len) in frames.iter().rev() {
            if !seen.insert(digest) {
                continue;
            }
            if report.evicted == 0 && kept_bytes + u64::from(len) <= max_bytes {
                kept_bytes += u64::from(len);
                keep.push((source, offset, len));
            } else {
                report.evicted += 1;
            }
        }
        if !keep.is_empty() {
            let (_, pack) = create_pack(&self.objects)?;
            let mut out = BufWriter::new(&pack);
            let mut frame = Vec::new();
            for &(source, offset, len) in keep.iter().rev() {
                frame.resize(len as usize, 0);
                sources[source].1.read_exact_at(&mut frame, offset)?;
                out.write_all(&frame)?;
            }
            out.flush()?;
            drop(out);
            pack.sync_all()?;
            File::open(&self.objects)?.sync_all()?;
        }
        for (path, _, len) in &sources {
            if fs::remove_file(path).is_ok() {
                report.reclaimed_bytes += len;
            }
        }
        report.reclaimed_bytes = report.reclaimed_bytes.saturating_sub(kept_bytes);
        for path in &survey.litter {
            if fs::remove_file(path).is_ok() {
                report.litter_removed += 1;
            }
        }
        for dir in &survey.old_dirs {
            // Fails, as it should, on a directory that is not empty.
            let _ = fs::remove_dir(dir);
        }
        report.remaining_bytes = kept_bytes;
        self.evictions.fetch_add(report.evicted, Ordering::Relaxed);
        self.bytes.store(kept_bytes, Ordering::Relaxed);
        // The handle's packs are gone, its own included: index afresh.
        *index = Index::default();
        refresh(&self.objects, &mut index)?;
        // Artifacts are owned by their jobs, not by cache maintenance:
        // count what was present and deliberately left alone, so the
        // report says out loud that gc skipped them.
        for job in self.job_stats()? {
            report.artifacts_skipped += job.files;
            report.artifact_bytes_skipped += job.bytes;
        }
        Ok(report)
    }
}

/// `objects/` as maintenance sees it.
#[derive(Debug, Default)]
struct Survey {
    /// Packs as `(mtime, path, length)`, oldest first.
    packs: Vec<(SystemTime, PathBuf, u64)>,
    /// Old-layout files: `<2 hex>/*.rec` and `.tmp-*`.
    litter: Vec<PathBuf>,
    /// The old layout's `<2 hex>` directories.
    old_dirs: Vec<PathBuf>,
}

/// Catches `index` up with `objects/`: lists the directory again if a
/// pack may have appeared since the last listing, then indexes what every
/// other handle's pack gained.
fn refresh(objects: &Path, index: &mut Index) -> io::Result<()> {
    let mtime = fs::metadata(objects)?.modified().ok();
    if index.racy || mtime.is_none() || mtime != index.listed {
        let now = SystemTime::now();
        index.racy = mtime
            .and_then(|m| m.checked_add(RACY_LISTING))
            .is_none_or(|trusted| now < trusted);
        index.listed = mtime;
        for path in sorted_entries(objects)? {
            let is_pack = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(PACK_SUFFIX));
            if is_pack && !index.packs.iter().any(|p| p.path == path) {
                if let Ok(file) = File::open(&path) {
                    index.packs.push(Pack {
                        path,
                        file,
                        scanned: 0,
                        seen: 0,
                    });
                }
            }
        }
    }
    for (i, pack) in index.packs.iter_mut().enumerate() {
        if index.own == Some(i) {
            continue;
        }
        let Ok(len) = pack.file.metadata().map(|m| m.len()) else {
            continue;
        };
        if len <= pack.seen {
            continue;
        }
        let Ok(scan) = scan(&pack.file, pack.scanned, len) else {
            continue;
        };
        (pack.scanned, pack.seen) = (scan.clean, len);
        for (digest, offset, len) in scan.frames {
            let pack = i as u32;
            index
                .records
                .entry(digest)
                .or_insert(Loc { offset, len, pack });
        }
    }
    Ok(())
}

/// Creates a pack under a name no other pack has, `<pid>-<n>.pack` with
/// `n` from a process-wide counter, open for reading and appending.
fn create_pack(objects: &Path) -> io::Result<(PathBuf, File)> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = objects.join(format!("{}-{n}{PACK_SUFFIX}", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(&path);
        match file {
            // Left by an earlier process with the same pid.
            Err(err) if err.kind() == io::ErrorKind::AlreadyExists => continue,
            file => return file.map(|file| (path, file)),
        }
    }
}

/// What one pass over part of a pack found.
#[derive(Debug, Default)]
struct Scan {
    /// Valid frames in file order: `(path digest, offset, length)`.
    frames: Vec<(u128, u64, u32)>,
    /// End of the last valid frame, where the next pass resumes. Bytes
    /// past it are a torn or in-flight tail.
    clean: u64,
    /// Damaged bytes skipped because a valid frame follows them.
    damaged: u64,
}

/// Scans `file`'s frames from `from` up to `to`, reading a bounded window
/// at a time.
fn scan(file: &File, from: u64, to: u64) -> io::Result<Scan> {
    let mut scan = Scan {
        clean: from,
        ..Scan::default()
    };
    let mut window = SCAN_CHUNK;
    let mut buf = Vec::new();
    while scan.clean < to {
        let len = (to - scan.clean).min(window);
        buf.resize(len as usize, 0);
        file.read_exact_at(&mut buf, scan.clean)?;
        let more = to - scan.clean - len;
        match parse(&buf, scan.clean, more, &mut scan) {
            // A torn or in-flight tail.
            0 if more == 0 => break,
            // A frame, or a damaged run, longer than the window.
            0 => window = window.saturating_mul(2),
            used => {
                scan.clean += used as u64;
                window = SCAN_CHUNK;
            }
        }
    }
    Ok(scan)
}

/// Indexes into `scan` the frames of `buf`, a pack's bytes from offset
/// `base` with `more` bytes after them, and returns how many bytes were
/// consumed for good: valid frames and the damaged bytes before them.
fn parse(buf: &[u8], base: u64, more: u64, scan: &mut Scan) -> usize {
    let (mut at, mut used) = (0, 0);
    while at < buf.len() {
        let rest = &buf[at..];
        if let Some((digest, len)) = frame_at(rest) {
            scan.damaged += (at - used) as u64;
            scan.frames.push((digest, base + at as u64, len));
            at += len as usize;
            used = at;
            continue;
        }
        let have = rest.len() as u64;
        let hint = frame_len_hint(rest, &RECORD_MAGIC, ENCODED_KEY_LEN);
        if hint.is_some_and(|need| need > have && need <= have + more) {
            // The frame may still complete past the window.
            break;
        }
        // Damage, or the tail: resume at the next frame start, if any.
        match rest[1..]
            .windows(RECORD_MAGIC.len())
            .position(|w| w == RECORD_MAGIC)
        {
            Some(skip) => at += 1 + skip,
            None => break,
        }
    }
    used
}

/// The path digest and length of the valid record frame at the start of
/// `bytes`.
fn frame_at(bytes: &[u8]) -> Option<(u128, u32)> {
    let ((key, _), len) = frame_prefix(bytes, &RECORD_MAGIC, ENCODED_KEY_LEN)?;
    Some((
        CacheKey::decode(key)?.path_digest(),
        u32::try_from(len).ok()?,
    ))
}

impl Store for DiskStore {
    fn get(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let digest = key.path_digest();
        let mut index = self.lock();
        if !index.records.contains_key(&digest) {
            let _ = refresh(&self.objects, &mut index);
        }
        let payload = index.records.get(&digest).and_then(|loc| {
            let mut frame = vec![0; loc.len as usize];
            let pack = &index.packs[loc.pack as usize];
            pack.file.read_exact_at(&mut frame, loc.offset).ok()?;
            decode_record(&frame, key)
        });
        if payload.is_none() {
            // Forget a frame that no longer checks out, so a recompute
            // appends a good copy.
            index.records.remove(&digest);
        }
        drop(index);
        let counter = if payload.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        payload
    }

    fn put(&self, key: &CacheKey, payload: &[u8]) {
        let digest = key.path_digest();
        let mut index = self.lock();
        if index.records.contains_key(&digest) {
            return;
        }
        let frame = encode_record(key, payload);
        let Ok(len) = u32::try_from(frame.len()) else {
            return;
        };
        if index.own.is_none() {
            let Ok((path, file)) = create_pack(&self.objects) else {
                return;
            };
            index.packs.push(Pack {
                path,
                file,
                scanned: 0,
                seen: 0,
            });
            index.own = Some(index.packs.len() - 1);
        }
        let own = index.own.expect("created above");
        let pack = &mut index.packs[own];
        let offset = pack.scanned;
        if (&pack.file).write_all(&frame).is_err() {
            // Cut the torn append off so the next one starts on a frame
            // boundary, or give the pack up if even that fails.
            if pack.file.set_len(offset).is_err() {
                index.own = None;
            }
            return;
        }
        pack.scanned += u64::from(len);
        let pack = own as u32;
        index.records.insert(digest, Loc { offset, len, pack });
        drop(index);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(u64::from(len), Ordering::Relaxed);
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
        let dir = self.job_dir(job);
        let _ = fs::create_dir_all(&dir).and_then(|()| publish_atomic(&dir.join(name), bytes));
    }

    fn get_artifact(&self, job: u64, name: &str) -> Option<Vec<u8>> {
        if !Self::artifact_name_ok(name) {
            return None;
        }
        fs::read(self.job_dir(job).join(name)).ok()
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Appends skip the fsync: the handle's pack is synced once, here.
        let index = self.index.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(own) = index.own {
            let _ = index.packs[own].file.sync_all();
        }
    }
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

    /// The packs under `dir`, sorted by path.
    fn packs(dir: &Path) -> Vec<PathBuf> {
        sorted_entries(&dir.join("objects"))
            .unwrap()
            .into_iter()
            .filter(|p| p.to_string_lossy().ends_with(PACK_SUFFIX))
            .collect()
    }

    /// Length of one record frame with a `payload_len`-byte payload; the
    /// payload starts `frame_len(0) - 8` bytes in, before the checksum.
    fn frame_len(payload_len: usize) -> u64 {
        encode_record(&key(0), &vec![0; payload_len]).len() as u64
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
    fn a_record_appended_by_one_handle_hits_on_a_handle_opened_earlier() {
        let dir = scratch("cross");
        let early = DiskStore::open(&dir).unwrap();
        let writer = DiskStore::open(&dir).unwrap();
        assert_eq!(early.get(&key(1)), None);
        // The first put creates the writer's pack: a new directory entry.
        writer.put(&key(1), b"one");
        assert_eq!(early.get(&key(1)), Some(b"one".to_vec()));
        // A later append to a pack the early handle already knows.
        writer.put(&key(2), b"two");
        assert_eq!(early.get(&key(2)), Some(b"two".to_vec()));
        // And the other way round, once the early handle has its own pack.
        early.put(&key(3), b"three");
        assert_eq!(writer.get(&key(3)), Some(b"three".to_vec()));
        assert_eq!(packs(&dir).len(), 2);
        assert_eq!(early.counters().writes, 1);
        assert_eq!(writer.counters().writes, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_frame_at_a_packs_end_is_invisible() {
        let dir = scratch("torn");
        let store = DiskStore::open(&dir).unwrap();
        store.put(&key(1), b"kept");
        store.put(&key(2), b"torn away");
        drop(store);
        let pack = &packs(&dir)[0];
        let bytes = fs::read(pack).unwrap();
        // Cut the second frame in half, as a crash mid-append would.
        let cut = frame_len(4) + frame_len(9) / 2;
        fs::write(pack, &bytes[..cut as usize]).unwrap();
        let reader = DiskStore::open(&dir).unwrap();
        assert_eq!(reader.get(&key(1)), Some(b"kept".to_vec()));
        assert_eq!(reader.get(&key(2)), None);
        let verify = reader.verify().unwrap();
        assert!(verify.is_ok());
        assert_eq!((verify.valid, verify.torn_bytes), (1, cut - frame_len(4)));
        // The recompute lands in the reader's own pack; the next handle
        // reads both packs as if nothing happened.
        reader.put(&key(2), b"torn away");
        reader.put(&key(3), b"after");
        let next = DiskStore::open(&dir).unwrap();
        assert_eq!(next.get(&key(1)), Some(b"kept".to_vec()));
        assert_eq!(next.get(&key(2)), Some(b"torn away".to_vec()));
        assert_eq!(next.get(&key(3)), Some(b"after".to_vec()));
        assert_eq!(next.stat().unwrap().records, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_a_miss_not_a_panic() {
        let dir = scratch("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        for n in 1..=3 {
            store.put(&key(n), b"good bytes");
        }
        let pack = packs(&dir)[0].clone();
        let mut bytes = fs::read(&pack).unwrap();
        // One payload byte of the middle record.
        let at = frame_len(10) + frame_len(0) - 8 + 5;
        bytes[at as usize] ^= 0xFF;
        fs::write(&pack, &bytes).unwrap();
        // A fresh handle skips the damaged frame; the writer finds its
        // indexed copy no longer checks out.
        let fresh = DiskStore::open(&dir).unwrap();
        for handle in [&fresh, &store] {
            assert_eq!(handle.get(&key(1)), Some(b"good bytes".to_vec()));
            assert_eq!(handle.get(&key(2)), None);
            assert_eq!(handle.get(&key(3)), Some(b"good bytes".to_vec()));
        }
        let verify = store.verify().unwrap();
        assert!(!verify.is_ok());
        assert_eq!(verify.corrupt, vec![pack]);
        assert_eq!(verify.valid, 2);
        // The recompute appends a good copy.
        fresh.put(&key(2), b"good bytes");
        assert_eq!(fresh.counters().writes, 1);
        assert_eq!(fresh.get(&key(2)), Some(b"good bytes".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_files_are_invisible_and_pass_verify() {
        let dir = scratch("tmp");
        let store = DiskStore::open(&dir).unwrap();
        store.put(&key(3), b"real");
        // The old layout's crash litter.
        let shard = dir.join("objects").join("ab");
        fs::create_dir_all(&shard).unwrap();
        fs::write(shard.join(format!("{TMP_PREFIX}dead-0")), b"partial wr").unwrap();
        assert_eq!(store.get(&key(3)), Some(b"real".to_vec()));
        let verify = store.verify().unwrap();
        assert!(verify.is_ok());
        assert_eq!((verify.litter, verify.torn_bytes), (1, 0));
        let stat = store.stat().unwrap();
        assert_eq!((stat.records, stat.packs, stat.litter), (1, 1, 1));
        let gc = store.gc(u64::MAX).unwrap();
        assert_eq!((gc.evicted, gc.litter_removed), (0, 1));
        assert!(!shard.exists(), "the emptied shard directory goes too");
        assert_eq!(store.get(&key(3)), Some(b"real".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_first_until_under_budget() {
        let dir = scratch("gc");
        let store = DiskStore::open(&dir).unwrap();
        let older = DiskStore::open(&dir).unwrap();
        store.put(&key(12), b"xxxxxxxxxxxxxxxx");
        store.put(&key(13), b"xxxxxxxxxxxxxxxx");
        let newer_pack = packs(&dir).remove(0);
        older.put(&key(10), b"xxxxxxxxxxxxxxxx");
        older.put(&key(11), b"xxxxxxxxxxxxxxxx");
        drop(older);
        // The pack written first is made the newer: age orders packs.
        for path in packs(&dir) {
            let secs = if path == newer_pack { 2000 } else { 1000 };
            let when = SystemTime::UNIX_EPOCH + Duration::from_secs(secs);
            fs::File::open(&path).unwrap().set_modified(when).unwrap();
        }
        // Old-layout records are litter, whatever they hold.
        let shard = dir.join("objects").join("0f");
        fs::create_dir_all(&shard).unwrap();
        fs::write(shard.join(format!("{}.rec", key(14).hex())), b"old").unwrap();
        let record_len = frame_len(16);
        let gc = store.gc(2 * record_len + 1).unwrap();
        assert_eq!((gc.evicted, gc.litter_removed), (2, 1));
        assert_eq!(gc.remaining_bytes, 2 * record_len);
        assert_eq!(gc.reclaimed_bytes, 2 * record_len);
        // Within the newest pack, the later offset is the newer record:
        // the two newest survive, in one pack.
        let fresh = DiskStore::open(&dir).unwrap();
        for handle in [&store, &fresh] {
            assert_eq!(handle.get(&key(10)), None);
            assert_eq!(handle.get(&key(11)), None);
            assert!(handle.get(&key(12)).is_some());
            assert!(handle.get(&key(13)).is_some());
        }
        assert_eq!(packs(&dir).len(), 1);
        assert!(!shard.exists());
        assert_eq!(store.counters().evictions, 2);
        // A budget below one record keeps nothing; the next put starts a
        // new pack.
        assert_eq!(store.gc(record_len - 1).unwrap().evicted, 2);
        assert!(packs(&dir).is_empty());
        assert_eq!(store.get(&key(13)), None);
        store.put(&key(13), b"again");
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.get(&key(13)), Some(b"again".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_handles_on_one_key_return_identical_payloads() {
        let dir = scratch("race");
        let barrier = std::sync::Barrier::new(2);
        let payloads: Vec<_> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let store = DiskStore::open(&dir).unwrap();
                        barrier.wait();
                        if store.get(&key(7)).is_none() {
                            store.put(&key(7), b"same answer");
                        }
                        store.get(&key(7))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(payloads, vec![Some(b"same answer".to_vec()); 2]);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(7)), Some(b"same answer".to_vec()));
        assert_eq!(store.stat().unwrap().records, 1);
        assert!(store.verify().unwrap().is_ok());
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
        // A job's WAL and spill litter live under jobs/ too.
        let wal = store.job_dir(0xD).join("wal");
        fs::create_dir_all(&wal).unwrap();
        fs::write(wal.join(format!("{TMP_PREFIX}spill")), b"wal litter").unwrap();
        // verify sees the packs only; stat accounts both, on separate
        // axes (record bytes never mix with artifact bytes).
        let stat = store.stat().unwrap();
        assert_eq!((stat.records, stat.litter), (1, 0));
        assert_eq!((stat.jobs, stat.artifacts), (1, 1));
        assert_eq!(stat.artifact_bytes, b"precious checkpoint".len() as u64);
        assert!(store.verify().unwrap().is_ok());
        assert_eq!(store.verify().unwrap().valid, 1);
        // gc to zero evicts every cache record but leaves artifacts —
        // and says so in its report.
        let gc = store.gc(0).unwrap();
        assert_eq!((gc.evicted, gc.litter_removed), (1, 0));
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
        assert!(wal.join(format!("{TMP_PREFIX}spill")).exists());
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
