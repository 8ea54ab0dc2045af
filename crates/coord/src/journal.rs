//! Crash-safe write-ahead round journal for the coordinator.
//!
//! The coordinator of PR 6 made *workers* expendable; this module makes
//! the coordinator itself restartable. Every state transition it commits
//! — a new epoch, a round start, a shard settlement, a merge, the final
//! accumulate — is appended to `<dir>/journal.wal` as a checksummed
//! [`WalRecord`] *before* the transition is acted on, and the settled
//! shard's checkpoint bytes are spilled to a content-checksummed file
//! under `<dir>/shards/` so completed work never lives only in
//! coordinator memory. A restarted coordinator on the same `<dir>` (for
//! `fnas-coord serve --dir <root>`, `<root>/jobs/<digest>/wal`) replays
//! the journal and resumes mid-round.
//!
//! **Total decode, clean-prefix tail.** Like `fnas_store::record`,
//! decoding never errors: a truncated or corrupt WAL tail decodes as a
//! clean prefix of records ([`decode_journal`]), and a spill file that
//! fails its checksum is simply an unsettled shard that will be re-run —
//! determinism guarantees the re-run reproduces the exact bytes, so a
//! lost record costs wall time, never correctness. [`Journal::open`]
//! truncates the dirty tail so post-restart appends extend the clean
//! prefix instead of hiding behind garbage.
//!
//! **Write discipline.** WAL records and spill files are both
//! `fnas_store::bytes` frames. Spill files are published with
//! `fnas_store::bytes::publish_atomic`, like store records (readers see
//! absent or complete, never partial); WAL records are appended and
//! fsync'd, and a shard's spill is published *before* its `ShardSettled`
//! record, so a record in the clean prefix implies its spill exists
//! (absent disk corruption, which degrades to a re-run).
//!
//! **Epoch fencing.** Each coordinator incarnation appends an
//! [`WalRecord::EpochStarted`] whose epoch is the count of prior
//! incarnations. Assignments carry the epoch; submissions echo it; a
//! restarted coordinator deterministically rejects submissions from
//! leases issued before the crash ([`crate::proto::Response::Stale`])
//! instead of letting a pre-crash replica race the recovered round.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

pub use fnas_store::bytes::TMP_PREFIX;
use fnas_store::bytes::{
    checksum, decode, frame, frame_prefix, publish_atomic, unframe, DecodeError, Writer,
};
use fnas_store::disk::sorted_entries;

/// Magic prefix of every WAL record and spill file; the trailing digit
/// is the framing version.
pub const WAL_MAGIC: [u8; 8] = *b"FNASWAL1";

const KIND_EPOCH_STARTED: u8 = 1;
const KIND_ROUND_STARTED: u8 = 2;
const KIND_SHARD_SETTLED: u8 = 3;
const KIND_ROUND_MERGED: u8 = 4;
const KIND_FINISHED: u8 = 5;
const KIND_SPILL: u8 = 6;

/// Frame header of a WAL record: kind, epoch, round, shard.
const RECORD_HEADER: usize = 1 + 8 + 8 + 4;

/// Frame header of a spill file: kind, round, shard.
const SPILL_HEADER: usize = 1 + 8 + 4;

/// One committed coordinator state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// A coordinator incarnation started. `epoch` counts prior
    /// incarnations of this journal; `fingerprint` pins the run config
    /// and `job` pins the job identity (DESIGN.md §17), so a journal is
    /// never replayed against different flags or a different job.
    EpochStarted {
        /// This incarnation's epoch (0 for the first).
        epoch: u64,
        /// [`crate::proto::config_fingerprint`] of the run.
        fingerprint: u64,
        /// `job_digest` of the run's [`fnas::job::JobSpec`].
        job: u64,
    },
    /// A round's init snapshot was frozen and dispatch began.
    RoundStarted {
        /// The appending incarnation.
        epoch: u64,
        /// The round being dispatched.
        round: u64,
    },
    /// A shard settled; its bytes live in the spill file for
    /// `(round, shard)`.
    ShardSettled {
        /// The appending incarnation.
        epoch: u64,
        /// Round of the settled shard.
        round: u64,
        /// Index of the settled shard.
        shard: u32,
        /// Length of the settled checkpoint bytes.
        len: u64,
        /// FNV-1a checksum of the settled checkpoint bytes.
        checksum: u64,
    },
    /// Every shard of `round` settled and the merge was computed.
    RoundMerged {
        /// The appending incarnation.
        epoch: u64,
        /// The merged round.
        round: u64,
        /// FNV-1a checksum of the merged checkpoint bytes.
        checksum: u64,
    },
    /// Every round merged; the final artifact was accumulated.
    Finished {
        /// The appending incarnation.
        epoch: u64,
    },
}

impl WalRecord {
    /// The frame fields besides the epoch: kind, round, shard and the
    /// payload words. Kinds leave the header fields they do not use zero.
    fn parts(&self) -> (u8, u64, u32, Vec<u64>) {
        match *self {
            WalRecord::EpochStarted {
                fingerprint, job, ..
            } => (KIND_EPOCH_STARTED, 0, 0, vec![fingerprint, job]),
            WalRecord::RoundStarted { round, .. } => (KIND_ROUND_STARTED, round, 0, vec![]),
            WalRecord::ShardSettled {
                round,
                shard,
                len,
                checksum,
                ..
            } => (KIND_SHARD_SETTLED, round, shard, vec![len, checksum]),
            WalRecord::RoundMerged {
                round, checksum, ..
            } => (KIND_ROUND_MERGED, round, 0, vec![checksum]),
            WalRecord::Finished { .. } => (KIND_FINISHED, 0, 0, vec![]),
        }
    }

    /// The epoch that appended this record.
    pub fn epoch(&self) -> u64 {
        match *self {
            WalRecord::EpochStarted { epoch, .. }
            | WalRecord::RoundStarted { epoch, .. }
            | WalRecord::ShardSettled { epoch, .. }
            | WalRecord::RoundMerged { epoch, .. }
            | WalRecord::Finished { epoch } => epoch,
        }
    }
}

/// Frames one record into its on-disk bytes.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let (kind, round, shard, words) = record.parts();
    let mut header = Writer::with_capacity(RECORD_HEADER);
    header.u8(kind);
    header.u64(record.epoch());
    header.u64(round);
    header.u32(shard);
    let mut payload = Writer::with_capacity(8 * words.len());
    for word in words {
        payload.u64(word);
    }
    frame(&WAL_MAGIC, &header.into_bytes(), &payload.into_bytes())
}

/// Decodes one record at the start of `bytes`, returning it and the
/// number of bytes consumed. Total: any defect — short buffer, bad
/// magic, unknown kind, payload length mismatched to the kind, a header
/// field the kind does not use left nonzero, checksum failure — yields
/// `None`, never an error.
pub fn decode_record(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    let ((header, payload), used) = frame_prefix(bytes, &WAL_MAGIC, RECORD_HEADER)?;
    let (kind, epoch, round, shard) =
        decode(header, |h| Ok((h.u8()?, h.u64()?, h.u64()?, h.u32()?))).ok()?;
    let record = decode(payload, |p| {
        Ok(match kind {
            KIND_EPOCH_STARTED => WalRecord::EpochStarted {
                epoch,
                fingerprint: p.u64()?,
                job: p.u64()?,
            },
            KIND_ROUND_STARTED => WalRecord::RoundStarted { epoch, round },
            KIND_SHARD_SETTLED => WalRecord::ShardSettled {
                epoch,
                round,
                shard,
                len: p.u64()?,
                checksum: p.u64()?,
            },
            KIND_ROUND_MERGED => WalRecord::RoundMerged {
                epoch,
                round,
                checksum: p.u64()?,
            },
            KIND_FINISHED => WalRecord::Finished { epoch },
            tag => return Err(DecodeError::Tag { what: "kind", tag }),
        })
    })
    .ok()?;
    // Canonical bytes only: header fields the kind leaves unused are zero.
    let (_, canonical_round, canonical_shard, _) = record.parts();
    ((canonical_round, canonical_shard) == (round, shard)).then_some((record, used))
}

/// Decodes a WAL byte stream as the longest clean prefix of records,
/// returning them and the prefix length in bytes. A truncated or
/// corrupt tail simply ends the prefix — never an error.
pub fn decode_journal(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0;
    while let Some((record, used)) = decode_record(&bytes[at..]) {
        records.push(record);
        at += used;
    }
    (records, at)
}

/// The frame header of the spill file for `(round, shard)`.
fn spill_header(round: u64, shard: u32) -> Vec<u8> {
    let mut header = Writer::with_capacity(SPILL_HEADER);
    header.u8(KIND_SPILL);
    header.u64(round);
    header.u32(shard);
    header.into_bytes()
}

/// Frames settled shard bytes into a self-validating spill file.
pub fn encode_spill(round: u64, shard: u32, payload: &[u8]) -> Vec<u8> {
    frame(&WAL_MAGIC, &spill_header(round, shard), payload)
}

/// Unframes a spill file written for `(round, shard)`, returning the
/// settled checkpoint bytes. Total: any defect or an embedded
/// round/shard mismatch yields `None` (the shard is simply unsettled).
pub fn decode_spill(bytes: &[u8], round: u64, shard: u32) -> Option<Vec<u8>> {
    let (header, payload) = unframe(bytes, &WAL_MAGIC, SPILL_HEADER)?;
    (header == spill_header(round, shard)).then(|| payload.to_vec())
}

/// The WAL-visible run state, folded from a clean record prefix.
///
/// This is the journal's *claim*; the coordinator re-validates it
/// against the spill files on disk (a claimed settlement whose spill is
/// missing or corrupt degrades to an unsettled shard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayPlan {
    /// Prior incarnations; the restarting coordinator takes this epoch.
    pub next_epoch: u64,
    /// Run fingerprint pinned by the first `EpochStarted`, if any.
    pub fingerprint: Option<u64>,
    /// Job digest pinned by the first `EpochStarted`, if any.
    pub job: Option<u64>,
    /// Rounds recorded as merged, counting up from 0 (out-of-order
    /// merge records — impossible in a well-formed journal — are
    /// ignored rather than trusted).
    pub rounds_merged: u64,
    /// Settlements in record order, first record per `(round, shard)`
    /// wins: `(round, shard, len, checksum)` of the settled bytes.
    pub settled: Vec<(u64, u32, u64, u64)>,
    /// Whether the final accumulate was recorded.
    pub finished: bool,
}

/// Folds a clean record prefix into the state it describes.
pub fn replay(records: &[WalRecord]) -> ReplayPlan {
    let mut plan = ReplayPlan::default();
    for record in records {
        match *record {
            WalRecord::EpochStarted {
                fingerprint, job, ..
            } => {
                plan.next_epoch += 1;
                plan.fingerprint.get_or_insert(fingerprint);
                plan.job.get_or_insert(job);
            }
            WalRecord::RoundStarted { .. } => {}
            WalRecord::ShardSettled {
                round,
                shard,
                len,
                checksum,
                ..
            } => {
                if !plan
                    .settled
                    .iter()
                    .any(|&(r, s, _, _)| (r, s) == (round, shard))
                {
                    plan.settled.push((round, shard, len, checksum));
                }
            }
            WalRecord::RoundMerged { round, .. } => {
                if round == plan.rounds_merged {
                    plan.rounds_merged += 1;
                }
            }
            WalRecord::Finished { .. } => plan.finished = true,
        }
    }
    plan
}

/// On-disk contents of a journal directory, as reported by
/// `fnas-coord journal stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStat {
    /// Records in the clean WAL prefix.
    pub records: u64,
    /// `EpochStarted` records (coordinator incarnations).
    pub epochs: u64,
    /// `RoundStarted` records.
    pub round_starts: u64,
    /// `ShardSettled` records.
    pub shard_settlements: u64,
    /// `RoundMerged` records.
    pub round_merges: u64,
    /// `Finished` records.
    pub finishes: u64,
    /// Total WAL file size in bytes.
    pub wal_bytes: u64,
    /// Length of the clean record prefix in bytes.
    pub clean_wal_bytes: u64,
    /// Complete spill files on disk.
    pub spill_files: u64,
    /// Total spill bytes on disk.
    pub spill_bytes: u64,
    /// Abandoned `.tmp-*` spill files from interrupted writes.
    pub tmp_files: u64,
}

/// Outcome of a journal integrity scan (`fnas-coord journal verify`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalVerifyReport {
    /// Records in the clean WAL prefix.
    pub records: u64,
    /// Byte offset where a dirty tail begins (`None` when the whole
    /// WAL decodes cleanly).
    pub truncated_at: Option<u64>,
    /// Dirty tail bytes that will be dropped on the next open.
    pub truncated_tail_bytes: u64,
    /// Spill files referenced by the clean prefix that decoded and
    /// matched their recorded length and checksum.
    pub spills_valid: u64,
    /// Spill paths referenced by the clean prefix that are missing,
    /// corrupt, or mismatched — those shards will re-run on recovery.
    pub spills_bad: Vec<PathBuf>,
    /// Spill files no clean-prefix record references (harmless; they
    /// are overwritten if their shard re-settles).
    pub orphan_spills: u64,
    /// Abandoned `.tmp-*` spill files (invisible to readers).
    pub tmp_files: u64,
}

impl JournalVerifyReport {
    /// `true` when every referenced spill decoded cleanly. A truncated
    /// WAL tail, orphan spills and tmp litter do not fail verification
    /// — recovery shrugs all three off by construction.
    pub fn is_ok(&self) -> bool {
        self.spills_bad.is_empty()
    }
}

/// An open journal: the append handle on the WAL plus the spill tree.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    wal: File,
}

impl Journal {
    /// Opens (creating if needed) the journal under `dir`, decodes the
    /// clean WAL prefix, truncates any dirty tail so future appends
    /// extend the clean prefix, and returns the replayable records.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory tree, reading the WAL, or
    /// truncating the dirty tail. Corrupt *content* is never an error —
    /// it just shortens the clean prefix.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Self, Vec<WalRecord>)> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("shards"))?;
        let path = wal_path(&dir);
        let bytes = read_wal(&dir)?;
        let (records, clean_len) = decode_journal(&bytes);
        if clean_len < bytes.len() {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(clean_len as u64)?;
            f.sync_all()?;
        }
        let wal = OpenOptions::new().append(true).create(true).open(&path)?;
        Ok((Journal { dir, wal }, records))
    }

    /// The journal's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record and fsyncs the WAL.
    ///
    /// # Errors
    ///
    /// I/O errors from the append or the fsync. Callers on the hot path
    /// may treat a failure as soft: a lost record only costs re-run
    /// work after a crash, never correctness (re-runs are bit-exact).
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.wal.write_all(&encode_record(record))?;
        self.wal.sync_all()
    }

    /// Path of the spill file for `(round, shard)`.
    pub fn spill_path(&self, round: u64, shard: u32) -> PathBuf {
        self.dir.join("shards").join(spill_file(round, shard))
    }

    /// Publishes settled shard bytes to the spill file for
    /// `(round, shard)` via [`publish_atomic`], returning the payload
    /// checksum to record in the matching [`WalRecord::ShardSettled`].
    /// Overwrites unconditionally — re-settlements are byte-identical
    /// by the determinism contract, and overwriting self-heals a spill
    /// that was corrupted on disk.
    ///
    /// # Errors
    ///
    /// I/O errors from the write, fsync, or rename.
    pub fn spill_shard(&mut self, round: u64, shard: u32, bytes: &[u8]) -> io::Result<u64> {
        publish_atomic(
            &self.spill_path(round, shard),
            &encode_spill(round, shard, bytes),
        )?;
        Ok(checksum(bytes))
    }

    /// Loads the settled bytes for `(round, shard)`, or `None` when the
    /// spill file is absent or fails any integrity check.
    pub fn load_spill(&self, round: u64, shard: u32) -> Option<Vec<u8>> {
        let bytes = fs::read(self.spill_path(round, shard)).ok()?;
        decode_spill(&bytes, round, shard)
    }

    /// Counts records per type and spill bytes under `dir` (read-only:
    /// unlike [`Journal::open`] this never truncates the WAL).
    ///
    /// # Errors
    ///
    /// I/O errors walking the directory.
    pub fn stat(dir: &Path) -> io::Result<JournalStat> {
        let bytes = read_wal(dir)?;
        let (records, clean_len) = decode_journal(&bytes);
        let mut stat = JournalStat {
            records: records.len() as u64,
            wal_bytes: bytes.len() as u64,
            clean_wal_bytes: clean_len as u64,
            ..JournalStat::default()
        };
        for record in &records {
            match record {
                WalRecord::EpochStarted { .. } => stat.epochs += 1,
                WalRecord::RoundStarted { .. } => stat.round_starts += 1,
                WalRecord::ShardSettled { .. } => stat.shard_settlements += 1,
                WalRecord::RoundMerged { .. } => stat.round_merges += 1,
                WalRecord::Finished { .. } => stat.finishes += 1,
            }
        }
        for (path, len) in spill_entries(dir)? {
            if is_tmp(&path) {
                stat.tmp_files += 1;
            } else {
                stat.spill_files += 1;
                stat.spill_bytes += len;
            }
        }
        Ok(stat)
    }

    /// Decodes the WAL and cross-checks every referenced spill file
    /// against its recorded length and checksum, reporting exactly
    /// where a dirty tail was cut.
    ///
    /// # Errors
    ///
    /// I/O errors walking the directory.
    pub fn verify(dir: &Path) -> io::Result<JournalVerifyReport> {
        let bytes = read_wal(dir)?;
        let (records, clean_len) = decode_journal(&bytes);
        let plan = replay(&records);
        let mut report = JournalVerifyReport {
            records: records.len() as u64,
            truncated_at: (clean_len < bytes.len()).then_some(clean_len as u64),
            truncated_tail_bytes: (bytes.len() - clean_len) as u64,
            ..JournalVerifyReport::default()
        };
        let mut referenced = Vec::new();
        for &(round, shard, len, sum) in &plan.settled {
            let path = dir.join("shards").join(spill_file(round, shard));
            let ok = fs::read(&path)
                .ok()
                .and_then(|b| decode_spill(&b, round, shard))
                .is_some_and(|payload| payload.len() as u64 == len && checksum(&payload) == sum);
            if ok {
                report.spills_valid += 1;
            } else {
                report.spills_bad.push(path.clone());
            }
            referenced.push(path);
        }
        for (path, _) in spill_entries(dir)? {
            if is_tmp(&path) {
                report.tmp_files += 1;
            } else if !referenced.contains(&path) {
                report.orphan_spills += 1;
            }
        }
        Ok(report)
    }
}

/// The WAL file path under a journal directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("journal.wal")
}

/// Canonical spill-file name for one settled shard.
pub fn spill_file(round: u64, shard: u32) -> String {
    format!("round-{round}-shard-{shard}.bin")
}

fn read_wal(dir: &Path) -> io::Result<Vec<u8>> {
    match fs::read(wal_path(dir)) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

fn is_tmp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with(TMP_PREFIX))
}

/// `(path, len)` of every entry under `<dir>/shards`, sorted by path.
fn spill_entries(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    Ok(sorted_entries(&dir.join("shards"))?
        .into_iter()
        .filter_map(|path| {
            let len = fs::symlink_metadata(&path).ok()?.len();
            Some((path, len))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fnas-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::EpochStarted {
                epoch: 0,
                fingerprint: 0xDEAD_BEEF,
                job: 0xC0FF_EE00,
            },
            WalRecord::RoundStarted { epoch: 0, round: 0 },
            WalRecord::ShardSettled {
                epoch: 0,
                round: 0,
                shard: 1,
                len: 42,
                checksum: 7,
            },
            WalRecord::RoundMerged {
                epoch: 0,
                round: 0,
                checksum: 9,
            },
            WalRecord::RoundStarted { epoch: 1, round: 1 },
            WalRecord::Finished { epoch: 1 },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in sample_records() {
            let bytes = encode_record(&record);
            assert_eq!(decode_record(&bytes), Some((record, bytes.len())));
        }
    }

    #[test]
    fn every_single_byte_flip_ends_the_prefix() {
        let bytes = encode_record(&WalRecord::ShardSettled {
            epoch: 3,
            round: 2,
            shard: 1,
            len: 100,
            checksum: 0xABCD,
        });
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_record(&bad).is_none(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn journal_decodes_as_a_clean_prefix_under_truncation() {
        let records = sample_records();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            stream.extend_from_slice(&encode_record(r));
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let (got, clean) = decode_journal(&stream[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.len(), whole, "cut at {cut}");
            assert_eq!(clean, boundaries[whole]);
            assert_eq!(got.as_slice(), &records[..whole]);
        }
        // Corrupting a middle record cuts the prefix there, cleanly.
        let mut bad = stream.clone();
        bad[boundaries[2] + 3] ^= 0xFF;
        let (got, clean) = decode_journal(&bad);
        assert_eq!(got.as_slice(), &records[..2]);
        assert_eq!(clean, boundaries[2]);
    }

    #[test]
    fn spills_round_trip_and_reject_mismatched_coordinates() {
        let framed = encode_spill(3, 1, b"checkpoint bytes");
        assert_eq!(
            decode_spill(&framed, 3, 1),
            Some(b"checkpoint bytes".to_vec())
        );
        assert_eq!(decode_spill(&framed, 3, 2), None, "wrong shard");
        assert_eq!(decode_spill(&framed, 4, 1), None, "wrong round");
        for cut in 0..framed.len() {
            assert_eq!(decode_spill(&framed[..cut], 3, 1), None);
        }
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x10;
            assert_eq!(decode_spill(&bad, 3, 1), None, "flip at byte {i}");
        }
    }

    #[test]
    fn open_append_reopen_replays_and_truncates_dirty_tails() {
        let dir = scratch("reopen");
        let records = sample_records();
        {
            let (mut journal, replayed) = Journal::open(&dir).unwrap();
            assert!(replayed.is_empty());
            for r in &records {
                journal.append(r).unwrap();
            }
        }
        // Dirty tail: garbage after the last record.
        let path = wal_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(b"torn write");
        fs::write(&path, &bytes).unwrap();

        let (mut journal, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len as u64);
        // Appends after recovery extend the clean prefix.
        journal.append(&WalRecord::Finished { epoch: 2 }).unwrap();
        drop(journal);
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.len(), records.len() + 1);
        assert_eq!(*replayed.last().unwrap(), WalRecord::Finished { epoch: 2 });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_publish_and_load_survive_tmp_litter() {
        let dir = scratch("spill");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        let sum = journal.spill_shard(0, 1, b"payload").unwrap();
        assert_eq!(sum, checksum(b"payload"));
        fs::write(
            dir.join("shards").join(format!("{TMP_PREFIX}dead-0")),
            b"partial",
        )
        .unwrap();
        assert_eq!(journal.load_spill(0, 1), Some(b"payload".to_vec()));
        assert_eq!(journal.load_spill(0, 2), None);
        // Corrupt the spill: clean miss, and overwrite self-heals it.
        let path = journal.spill_path(0, 1);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(journal.load_spill(0, 1), None);
        journal.spill_shard(0, 1, b"payload").unwrap();
        assert_eq!(journal.load_spill(0, 1), Some(b"payload".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_folds_records_in_order_with_first_settlement_winning() {
        let plan = replay(&[
            WalRecord::EpochStarted {
                epoch: 0,
                fingerprint: 11,
                job: 21,
            },
            WalRecord::RoundStarted { epoch: 0, round: 0 },
            WalRecord::ShardSettled {
                epoch: 0,
                round: 0,
                shard: 0,
                len: 10,
                checksum: 1,
            },
            WalRecord::EpochStarted {
                epoch: 1,
                fingerprint: 11,
                job: 21,
            },
            // A re-settlement after restart: first record wins.
            WalRecord::ShardSettled {
                epoch: 1,
                round: 0,
                shard: 0,
                len: 10,
                checksum: 1,
            },
            WalRecord::ShardSettled {
                epoch: 1,
                round: 0,
                shard: 1,
                len: 12,
                checksum: 2,
            },
            WalRecord::RoundMerged {
                epoch: 1,
                round: 0,
                checksum: 3,
            },
            // Out-of-order merge claim: ignored, not trusted.
            WalRecord::RoundMerged {
                epoch: 1,
                round: 5,
                checksum: 4,
            },
        ]);
        assert_eq!(plan.next_epoch, 2);
        assert_eq!(plan.fingerprint, Some(11));
        assert_eq!(plan.job, Some(21));
        assert_eq!(plan.rounds_merged, 1);
        assert_eq!(plan.settled, vec![(0, 0, 10, 1), (0, 1, 12, 2)]);
        assert!(!plan.finished);
    }

    #[test]
    fn stat_and_verify_report_tail_cuts_and_bad_spills() {
        let dir = scratch("statverify");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal
            .append(&WalRecord::EpochStarted {
                epoch: 0,
                fingerprint: 1,
                job: 2,
            })
            .unwrap();
        journal
            .append(&WalRecord::RoundStarted { epoch: 0, round: 0 })
            .unwrap();
        let sum = journal.spill_shard(0, 0, b"shard zero").unwrap();
        journal
            .append(&WalRecord::ShardSettled {
                epoch: 0,
                round: 0,
                shard: 0,
                len: 10,
                checksum: sum,
            })
            .unwrap();
        // A settlement whose spill never made it (crash between rename
        // and append cannot produce this, but disk corruption can).
        journal
            .append(&WalRecord::ShardSettled {
                epoch: 0,
                round: 0,
                shard: 1,
                len: 5,
                checksum: 99,
            })
            .unwrap();
        drop(journal);
        // Torn tail + tmp litter.
        let path = wal_path(&dir);
        let clean = fs::metadata(&path).unwrap().len();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_record(&WalRecord::Finished { epoch: 0 })[..10]);
        fs::write(&path, &bytes).unwrap();
        fs::write(
            dir.join("shards").join(format!("{TMP_PREFIX}dead-1")),
            b"junk",
        )
        .unwrap();
        fs::write(dir.join("shards").join(spill_file(9, 9)), b"orphan").unwrap();

        let stat = Journal::stat(&dir).unwrap();
        assert_eq!(stat.records, 4);
        assert_eq!(stat.epochs, 1);
        assert_eq!(stat.round_starts, 1);
        assert_eq!(stat.shard_settlements, 2);
        assert_eq!(stat.clean_wal_bytes, clean);
        assert_eq!(stat.wal_bytes, clean + 10);
        assert_eq!(stat.spill_files, 2); // the real spill + the orphan
        assert_eq!(stat.tmp_files, 1);

        let verify = Journal::verify(&dir).unwrap();
        assert_eq!(verify.records, 4);
        assert_eq!(verify.truncated_at, Some(clean));
        assert_eq!(verify.truncated_tail_bytes, 10);
        assert_eq!(verify.spills_valid, 1);
        assert_eq!(verify.spills_bad.len(), 1);
        assert!(!verify.is_ok());
        assert_eq!(verify.orphan_spills, 1);
        assert_eq!(verify.tmp_files, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn arb_record() -> impl Strategy<Value = WalRecord> {
        (
            0u8..5,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u32..=u32::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
        )
            .prop_map(|(kind, epoch, round, shard, a, b)| match kind {
                0 => WalRecord::EpochStarted {
                    epoch,
                    fingerprint: a,
                    job: b,
                },
                1 => WalRecord::RoundStarted { epoch, round },
                2 => WalRecord::ShardSettled {
                    epoch,
                    round,
                    shard,
                    len: a,
                    checksum: b,
                },
                3 => WalRecord::RoundMerged {
                    epoch,
                    round,
                    checksum: a,
                },
                _ => WalRecord::Finished { epoch },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Encode/decode is the identity, so encoding is injective.
        #[test]
        fn prop_record_codec_round_trips(record in arb_record()) {
            let bytes = encode_record(&record);
            prop_assert_eq!(decode_record(&bytes), Some((record, bytes.len())));
        }

        /// A concatenated stream decodes back to the exact sequence.
        #[test]
        fn prop_streams_decode_to_their_records(
            records in proptest::collection::vec(arb_record(), 0..6),
        ) {
            let stream: Vec<u8> = records.iter().flat_map(encode_record).collect();
            let (got, clean) = decode_journal(&stream);
            prop_assert_eq!(&got, &records);
            prop_assert_eq!(clean, stream.len());
        }

        /// Every byte-prefix of a valid stream decodes to a record
        /// prefix — never an error, never a phantom record.
        #[test]
        fn prop_every_prefix_decodes_to_a_record_prefix(
            records in proptest::collection::vec(arb_record(), 1..6),
            frac in 0.0f64..1.0,
        ) {
            let stream: Vec<u8> =
                records.iter().flat_map(encode_record).collect();
            let cut = ((stream.len() as f64) * frac) as usize;
            let (got, clean) = decode_journal(&stream[..cut]);
            prop_assert!(clean <= cut);
            prop_assert!(got.len() <= records.len());
            prop_assert_eq!(got.as_slice(), &records[..got.len()]);
        }
    }
}
