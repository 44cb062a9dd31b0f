//! The write-ahead log: durability for rows that have not reached a heap page yet.
//!
//! Every durable table logs through one layout: a tag inside a [`WalSet`], the
//! container-wide log `wal-shard-0000.wal`.  An insert appends its encoded row under the
//! table's tag *before* the tail page in the buffer pool is touched.  A checkpoint
//! (buffer-pool flush + heap fsync) makes the heap authoritative and clears the tag.
//! Recovery replays the tag and keeps only rows whose sequence number is above the
//! highest sequence found in the heap — rows that reached disk via an evicted dirty page
//! before the crash are thereby not duplicated.
//!
//! Record framing: `[u32 length][u32 crc32][payload]`, little-endian.  Replay stops at
//! the first truncated or corrupt record (a torn tail write), which is exactly the
//! prefix-durability a log needs.
//!
//! ## One log and group commit
//!
//! One log file is shared by every durable table of a container.  With group commit
//! ([`Wal::set_group_commit`]) appends accumulate in a batch buffer, and one
//! [`WalSet::commit`] at the step boundary drains it with **one** `write` plus (under
//! [`SyncMode::Always`]) **one** fsync, amortised across every row and table ingested in
//! that step.  Durability moves from per-insert to per-step; a crash mid-step can lose at
//! most that step's un-committed batch (the CRC framing keeps replay safe).  Records
//! carry a table tag; recovery filters by tag and the replay-above-heap sequence check
//! makes the deferred (per-tag) truncation safe.
//!
//! The file keeps the name of the first shard of the former sharded layout.  A non-empty
//! `wal-shard-NNNN.wal` with `NNNN ≥ 1` was written by that layout and holds rows this
//! log never sees, so opening the log refuses it with an error naming the file.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use gsn_types::{GsnError, GsnResult};
use parking_lot::Mutex;

/// How eagerly the log is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// `fsync` after every appended record: no acknowledged element is ever lost, at the
    /// cost of one disk sync per insert.
    Always,
    /// Let the OS page cache decide; `fsync` only at checkpoints. A crash can lose the
    /// tail of un-checkpointed elements (a clean shutdown loses nothing).
    #[default]
    OnCheckpoint,
}

/// An append-only record log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    sync: SyncMode,
    bytes: u64,
    /// Group commit: batch appends (and defer `SyncMode::Always` fsyncs) to the next
    /// [`commit`](Self::commit).
    group_commit: bool,
    /// Appends since the last fsync while group commit is enabled.
    sync_pending: bool,
    /// Encoded frames accumulated since the last commit while group commit is enabled
    /// (drained by one `write_all` at commit time).
    pending: Vec<u8>,
    /// Records inside `pending`.
    pending_records: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path`.
    pub fn open(path: &Path, sync: SyncMode) -> GsnResult<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| GsnError::storage(format!("cannot open WAL {path:?}: {e}")))?;
        let bytes = file
            .metadata()
            .map_err(|e| GsnError::storage(format!("cannot stat WAL: {e}")))?
            .len();
        let mut wal = Wal {
            file,
            sync,
            bytes,
            group_commit: false,
            sync_pending: false,
            pending: Vec::new(),
            pending_records: 0,
        };
        wal.seek_end()?;
        Ok(wal)
    }

    /// Enables or disables group commit (see the module docs). Disabling with a sync
    /// still pending forces it immediately so no acknowledged record is left unsynced.
    pub fn set_group_commit(&mut self, enabled: bool) -> GsnResult<()> {
        self.group_commit = enabled;
        if !enabled {
            self.commit()?;
        }
        Ok(())
    }

    /// Drains the group-commit batch with one write and, if a sync is pending, one
    /// fsync (the per-step batched commit).  A no-op when nothing is pending.
    /// Returns the number of records the batch contained.
    pub fn commit(&mut self) -> GsnResult<u64> {
        let records = self.pending_records;
        self.flush_pending()?;
        if self.sync_pending {
            self.file
                .sync_data()
                .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))?;
            self.sync_pending = false;
        }
        Ok(records)
    }

    /// Writes the accumulated batch to the file (no fsync).
    fn flush_pending(&mut self) -> GsnResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.pending)
            .map_err(|e| GsnError::storage(format!("cannot append to WAL: {e}")))?;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    fn seek_end(&mut self) -> GsnResult<()> {
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| GsnError::storage(format!("cannot seek WAL: {e}")))?;
        Ok(())
    }

    /// Current log size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one record, honouring the sync mode.
    pub fn append(&mut self, payload: &[u8]) -> GsnResult<()> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if self.group_commit {
            // Batch: one write_all (and at most one fsync) at the next commit.
            self.pending.extend_from_slice(&frame);
            self.pending_records += 1;
            self.bytes += frame.len() as u64;
            if self.sync == SyncMode::Always {
                self.sync_pending = true;
            }
            return Ok(());
        }
        self.file
            .write_all(&frame)
            .map_err(|e| GsnError::storage(format!("cannot append to WAL: {e}")))?;
        self.bytes += frame.len() as u64;
        if self.sync == SyncMode::Always {
            self.file
                .sync_data()
                .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))?;
        }
        Ok(())
    }

    /// Reads every intact record from the start of the log (stopping at the first torn
    /// or corrupt frame).
    pub fn replay(&mut self) -> GsnResult<Vec<Vec<u8>>> {
        self.flush_pending()?; // batched records are part of the log's contents
        let mut raw = Vec::with_capacity(self.bytes as usize);
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut raw))
            .map_err(|e| GsnError::storage(format!("cannot read WAL: {e}")))?;
        self.seek_end()?;
        let mut records = Vec::new();
        let mut cursor: &[u8] = &raw;
        while cursor.len() >= 8 {
            let len = u32::from_le_bytes(cursor[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(cursor[4..8].try_into().unwrap());
            if cursor.len() < 8 + len {
                break; // torn tail
            }
            let payload = &cursor[8..8 + len];
            if crc32(payload) != crc {
                break; // corrupt tail
            }
            records.push(payload.to_vec());
            cursor = &cursor[8 + len..];
        }
        Ok(records)
    }

    /// Truncates the log after a checkpoint made the heap authoritative.
    pub fn reset(&mut self) -> GsnResult<()> {
        self.file
            .set_len(0)
            .and_then(|_| self.file.seek(SeekFrom::Start(0)))
            .map_err(|e| GsnError::storage(format!("cannot reset WAL: {e}")))?;
        self.bytes = 0;
        self.sync_pending = false;
        self.pending.clear();
        self.pending_records = 0;
        self.file
            .sync_data()
            .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))
    }

    /// Forces buffered records (including the group-commit batch) to stable storage.
    pub fn sync(&mut self) -> GsnResult<()> {
        self.sync_pending = false;
        self.flush_pending()?;
        self.file
            .sync_data()
            .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))
    }
}

// ---------------------------------------------------------------------------------------
// The shared log
// ---------------------------------------------------------------------------------------

/// File name of the container-wide log.  It keeps the name of the first shard of the
/// former sharded layout, so a data directory written by either opens unchanged.
const LOG_FILE: &str = "wal-shard-0000.wal";

/// Marker byte that begins a *tombstone* record (`[0xFF][u8 tag_len][tag]`): all earlier
/// records of `tag` in the log are dead (table dropped or superseded), regardless of
/// their sequence numbers.  Ordinary records are `[u8 tag_len][tag][row]`; tags are
/// therefore limited to 254 bytes.
const TOMBSTONE_MARKER: u8 = 0xFF;

#[derive(Debug)]
struct TaggedLog {
    wal: Wal,
    /// Un-checkpointed logical bytes per table tag (frame overhead included).  A tag at
    /// zero needs nothing from the log; when *every* tag is at zero the file resets.
    tag_bytes: HashMap<String, u64>,
}

/// The shared write-ahead log multiplexing every durable table of a container (see the
/// module docs).
///
/// Tables append under their name tag; [`WalSet::commit`] drains the log with one
/// write + one fsync.  Checkpoints are *logical* per table (the tag's byte count drops
/// to zero); the file truncates once every tag is clean, and compacts — rewriting only
/// live tags' records — when it outgrows `compact_bytes` before that happens.
pub struct WalSet {
    dir: PathBuf,
    sync: SyncMode,
    group_commit: bool,
    compact_bytes: u64,
    /// The lazily opened log (a container with no durable tables never touches disk).
    log: Mutex<Option<TaggedLog>>,
}

impl std::fmt::Debug for WalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WalSet({:?}, {:?})", self.dir, self.sync)
    }
}

impl WalSet {
    /// Creates the log under `dir`, opened lazily.  `dir` is created on first use;
    /// `compact_bytes` bounds the file's size before it is rewritten to drop
    /// checkpointed tags' records.
    pub fn new(
        dir: impl Into<PathBuf>,
        sync: SyncMode,
        group_commit: bool,
        compact_bytes: u64,
    ) -> WalSet {
        WalSet {
            dir: dir.into(),
            sync,
            group_commit,
            compact_bytes,
            log: Mutex::new(None),
        }
    }

    fn path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    /// Runs `f` on the (lazily opened) log.
    ///
    /// Opening refuses a directory that holds a non-empty `wal-shard-NNNN.wal` other
    /// than the log itself: a sharded layout left it, and its acknowledged rows are in
    /// no log this set reads.
    fn with_log<T>(&self, f: impl FnOnce(&mut TaggedLog) -> GsnResult<T>) -> GsnResult<T> {
        let mut slot = self.log.lock();
        if slot.is_none() {
            std::fs::create_dir_all(&self.dir).map_err(|e| {
                GsnError::storage(format!("cannot create WAL directory {:?}: {e}", self.dir))
            })?;
            self.refuse_other_shards()?;
            let mut wal = Wal::open(&self.path(), self.sync)?;
            wal.set_group_commit(self.group_commit)?;
            // Rebuild the per-tag accounting from the surviving records.
            let mut tag_bytes: HashMap<String, u64> = HashMap::new();
            for record in wal.replay()? {
                match decode_tagged(&record) {
                    Some(TaggedRecord::Row { tag, .. }) => {
                        *tag_bytes.entry(tag.to_owned()).or_default() += 8 + record.len() as u64;
                    }
                    Some(TaggedRecord::Tombstone { tag }) => {
                        tag_bytes.insert(tag.to_owned(), 0);
                    }
                    None => {} // foreign/corrupt record: ignored, dropped at next compact
                }
            }
            *slot = Some(TaggedLog { wal, tag_bytes });
        }
        f(slot.as_mut().expect("log opened above"))
    }

    fn refuse_other_shards(&self) -> GsnResult<()> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| {
            GsnError::storage(format!("cannot list WAL directory {:?}: {e}", self.dir))
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let sharded = name.starts_with("wal-shard-") && name.ends_with(".wal");
            if sharded && name != LOG_FILE && entry.metadata().is_ok_and(|m| m.len() > 0) {
                return Err(GsnError::storage(format!(
                    "the data directory holds a non-empty WAL shard {:?} from a sharded \
                     layout; its rows are in no log this container reads, so durable \
                     tables are not opened",
                    entry.path()
                )));
            }
        }
        Ok(())
    }

    /// Appends one row record for `tag`, honouring the set's sync/group-commit modes.
    pub fn append(&self, tag: &str, payload: &[u8]) -> GsnResult<()> {
        if tag.len() > 254 {
            return Err(GsnError::storage(format!(
                "WAL table tag `{tag}` exceeds 254 bytes"
            )));
        }
        self.with_log(|log| {
            let mut tagged = Vec::with_capacity(1 + tag.len() + payload.len());
            tagged.push(tag.len() as u8);
            tagged.extend_from_slice(tag.as_bytes());
            tagged.extend_from_slice(payload);
            let frame_bytes = 8 + tagged.len() as u64;
            log.wal.append(&tagged)?;
            *log.tag_bytes.entry(tag.to_owned()).or_default() += frame_bytes;
            Ok(())
        })
    }

    /// Reads every surviving row payload of `tag`, in append order.  A tombstone
    /// discards everything appended before it.
    pub fn replay_for(&self, tag: &str) -> GsnResult<Vec<Vec<u8>>> {
        self.with_log(|log| {
            let mut rows = Vec::new();
            for record in log.wal.replay()? {
                match decode_tagged(&record) {
                    Some(TaggedRecord::Row { tag: t, row }) if t == tag => rows.push(row.to_vec()),
                    Some(TaggedRecord::Tombstone { tag: t }) if t == tag => rows.clear(),
                    _ => {}
                }
            }
            Ok(rows)
        })
    }

    /// Un-checkpointed logical bytes `tag` holds in the log.
    pub fn tag_bytes(&self, tag: &str) -> u64 {
        self.with_log(|log| Ok(log.tag_bytes.get(tag).copied().unwrap_or(0)))
            .unwrap_or(0)
    }

    /// The per-step group commit: drains the batch with one write and at most one
    /// fsync.  Returns the number of records the batch held (0 when the log was never
    /// opened or nothing was pending).
    pub fn commit(&self) -> GsnResult<u64> {
        match self.log.lock().as_mut() {
            Some(log) => log.wal.commit(),
            None => Ok(0),
        }
    }

    /// Marks `tag` checkpointed: its records are no longer needed (the heap is
    /// authoritative).  Truncates the file once every tag is clean; compacts it
    /// (dropping clean tags' records) when it outgrew the compaction threshold.
    pub fn checkpoint_tag(&self, tag: &str) -> GsnResult<()> {
        self.with_log(|log| {
            log.tag_bytes.insert(tag.to_owned(), 0);
            self.truncate_or_compact(log)
        })
    }

    /// Drops `tag` entirely (table destroyed, or stale records found next to a fresh
    /// heap): appends a durable tombstone so earlier records never replay, then
    /// truncates/compacts like a checkpoint.
    pub fn drop_tag(&self, tag: &str) -> GsnResult<()> {
        if tag.len() > 254 {
            return Err(GsnError::storage(format!(
                "WAL table tag `{tag}` exceeds 254 bytes"
            )));
        }
        self.with_log(|log| {
            let had_records =
                log.tag_bytes.get(tag).copied().unwrap_or(0) > 0 || log.wal.len_bytes() > 0;
            log.tag_bytes.insert(tag.to_owned(), 0);
            if had_records {
                let mut tombstone = Vec::with_capacity(2 + tag.len());
                tombstone.push(TOMBSTONE_MARKER);
                tombstone.push(tag.len() as u8);
                tombstone.extend_from_slice(tag.as_bytes());
                log.wal.append(&tombstone)?;
                log.wal.sync()?;
            }
            self.truncate_or_compact(log)
        })
    }

    /// Truncates the log when every tag is clean, or rewrites it keeping only live
    /// tags' records when the file outgrew `compact_bytes`.
    fn truncate_or_compact(&self, log: &mut TaggedLog) -> GsnResult<()> {
        if log.tag_bytes.values().all(|&bytes| bytes == 0) {
            log.tag_bytes.clear();
            return log.wal.reset();
        }
        if log.wal.len_bytes() <= self.compact_bytes {
            return Ok(());
        }
        // Compact: rewrite only the records of tags that still hold un-checkpointed
        // bytes, via a temp file + atomic rename (a crash mid-compact keeps the old
        // file intact).
        let live = |tag: &str| log.tag_bytes.get(tag).copied().unwrap_or(0) > 0;
        let survivors: Vec<Vec<u8>> = log
            .wal
            .replay()?
            .into_iter()
            .filter(|record| match decode_tagged(record) {
                Some(TaggedRecord::Row { tag, .. }) => live(tag),
                Some(TaggedRecord::Tombstone { tag }) => live(tag),
                None => false,
            })
            .collect();
        let path = self.path();
        let tmp = path.with_extension("wal.tmp");
        match std::fs::remove_file(&tmp) {
            Ok(()) | Err(_) => {} // best effort: Wal::open truncates logically via reset below
        }
        {
            let mut fresh = Wal::open(&tmp, SyncMode::OnCheckpoint)?;
            fresh.reset()?; // drop any stale temp contents
            for record in &survivors {
                fresh.append(record)?;
            }
            fresh.sync()?;
        }
        std::fs::rename(&tmp, &path)
            .map_err(|e| GsnError::storage(format!("cannot swap compacted WAL {path:?}: {e}")))?;
        log.wal = {
            let mut wal = Wal::open(&path, self.sync)?;
            wal.set_group_commit(log.wal.group_commit)?;
            wal
        };
        Ok(())
    }
}

enum TaggedRecord<'a> {
    Row { tag: &'a str, row: &'a [u8] },
    Tombstone { tag: &'a str },
}

/// Decodes a log record into its tag + row (or tombstone), `None` when malformed.
fn decode_tagged(record: &[u8]) -> Option<TaggedRecord<'_>> {
    let (&first, rest) = record.split_first()?;
    if first == TOMBSTONE_MARKER {
        let (&len, rest) = rest.split_first()?;
        let tag = rest.get(..len as usize)?;
        return Some(TaggedRecord::Tombstone {
            tag: std::str::from_utf8(tag).ok()?,
        });
    }
    let tag = rest.get(..first as usize)?;
    Some(TaggedRecord::Row {
        tag: std::str::from_utf8(tag).ok()?,
        row: &rest[first as usize..],
    })
}

/// CRC-32 (IEEE 802.3), bitwise implementation — fast enough for sensor-row sizes and
/// dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        crate::testutil::temp_dir(tag).join("table.wal")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_wal("wal-roundtrip");
        {
            let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"").unwrap();
            wal.append(&[9u8; 1000]).unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::Always).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"first");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], vec![9u8; 1000]);
        // Appending after replay continues the log.
        wal.append(b"fourth").unwrap();
        assert_eq!(wal.replay().unwrap().len(), 4);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_wal("wal-torn");
        {
            let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
            wal.append(b"intact").unwrap();
        }
        // A frame header promising more bytes than exist.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"short").unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records, vec![b"intact".to_vec()]);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = temp_wal("wal-crc");
        {
            let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"evil").unwrap();
        }
        // Flip a payload byte of the second record.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
        assert_eq!(wal.replay().unwrap(), vec![b"good".to_vec()]);
    }

    #[test]
    fn group_commit_defers_syncs_but_loses_nothing() {
        let path = temp_wal("wal-group-commit");
        {
            let mut wal = Wal::open(&path, SyncMode::Always).unwrap();
            wal.set_group_commit(true).unwrap();
            for i in 0..10u8 {
                wal.append(&[i]).unwrap();
            }
            wal.commit().unwrap();
            // Disabling group commit with appends pending syncs immediately.
            wal.append(b"tail").unwrap();
            wal.set_group_commit(false).unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::Always).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 11);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("wal-reset");
        let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
        wal.append(b"data").unwrap();
        assert!(wal.len_bytes() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.replay().unwrap().is_empty());
        // Usable after reset.
        wal.append(b"again").unwrap();
        assert_eq!(wal.replay().unwrap().len(), 1);
    }

    #[test]
    fn wal_set_multiplexes_tags_and_replays_per_tag() {
        let dir = crate::testutil::temp_dir("walset-tags");
        let set = WalSet::new(&dir, SyncMode::OnCheckpoint, false, 1 << 20);
        for i in 0..5u8 {
            set.append("alpha", &[b'a', i]).unwrap();
            set.append("beta", &[b'b', i]).unwrap();
        }
        let alpha = set.replay_for("alpha").unwrap();
        let beta = set.replay_for("beta").unwrap();
        assert_eq!(alpha.len(), 5);
        assert_eq!(beta.len(), 5);
        assert!(alpha.iter().all(|r| r[0] == b'a'));
        assert!(beta.iter().all(|r| r[0] == b'b'));
        assert!(set.tag_bytes("alpha") > 0);
        // A fresh set over the same directory rebuilds the accounting from disk.
        let reopened = WalSet::new(&dir, SyncMode::OnCheckpoint, false, 1 << 20);
        assert_eq!(reopened.replay_for("alpha").unwrap(), alpha);
        assert_eq!(reopened.tag_bytes("beta"), set.tag_bytes("beta"));
    }

    #[test]
    fn wal_set_commit_drains_the_batch_once() {
        let dir = crate::testutil::temp_dir("walset-commit");
        let set = WalSet::new(&dir, SyncMode::Always, true, 1 << 20);
        // Nothing opened yet → nothing committed.
        assert_eq!(set.commit().unwrap(), 0);
        for i in 0..8u8 {
            set.append(&format!("table-{i}"), &[i]).unwrap();
        }
        assert_eq!(set.commit().unwrap(), 8);
        // Nothing pending → nothing committed.
        assert_eq!(set.commit().unwrap(), 0);
        assert_eq!(set.replay_for("table-3").unwrap(), vec![vec![3u8]]);
    }

    #[test]
    fn wal_set_refuses_a_second_shard_file() {
        let dir = crate::testutil::temp_dir("walset-second-shard");
        std::fs::write(dir.join("wal-shard-0001.wal"), b"rows").unwrap();
        let set = WalSet::new(&dir, SyncMode::OnCheckpoint, false, 1 << 20);
        let err = set.append("t", b"row").unwrap_err().to_string();
        assert!(err.contains("wal-shard-0001.wal"), "{err}");
        // An empty one is harmless.
        std::fs::write(dir.join("wal-shard-0001.wal"), b"").unwrap();
        set.append("t", b"row").unwrap();
        assert_eq!(set.replay_for("t").unwrap(), vec![b"row".to_vec()]);
    }

    #[test]
    fn wal_set_checkpoint_clears_tag_and_resets_when_all_clean() {
        let dir = crate::testutil::temp_dir("walset-checkpoint");
        let set = WalSet::new(&dir, SyncMode::OnCheckpoint, false, 1 << 20);
        set.append("left", b"l1").unwrap();
        set.append("right", b"r1").unwrap();
        set.checkpoint_tag("left").unwrap();
        assert_eq!(set.tag_bytes("left"), 0);
        // Right's records survive the left checkpoint…
        assert_eq!(set.replay_for("right").unwrap(), vec![b"r1".to_vec()]);
        // …and once right is clean too, the file truncates.
        set.checkpoint_tag("right").unwrap();
        assert!(set.replay_for("left").unwrap().is_empty());
        assert!(set.replay_for("right").unwrap().is_empty());
    }

    #[test]
    fn wal_set_tombstone_survives_reopen() {
        let dir = crate::testutil::temp_dir("walset-tombstone");
        {
            let set = WalSet::new(&dir, SyncMode::OnCheckpoint, false, u64::MAX);
            set.append("doomed", b"old row").unwrap();
            set.append("keeper", b"live row").unwrap();
            set.drop_tag("doomed").unwrap();
        }
        // The drop is durable: a re-opened set must not resurrect the dead tag's rows
        // even though its records still sit in the log before the tombstone.
        let set = WalSet::new(&dir, SyncMode::OnCheckpoint, false, u64::MAX);
        assert!(set.replay_for("doomed").unwrap().is_empty());
        assert_eq!(set.tag_bytes("doomed"), 0);
        assert_eq!(
            set.replay_for("keeper").unwrap(),
            vec![b"live row".to_vec()]
        );
    }

    #[test]
    fn wal_set_compacts_an_oversized_log_keeping_live_tags() {
        let dir = crate::testutil::temp_dir("walset-compact");
        // Tiny compaction threshold forces a rewrite on the first checkpoint.
        let set = WalSet::new(&dir, SyncMode::OnCheckpoint, false, 64);
        for i in 0..20u8 {
            set.append("bulk", &[i; 32]).unwrap();
        }
        set.append("live", b"must survive").unwrap();
        set.checkpoint_tag("bulk").unwrap();
        // The log was rewritten: far smaller than the bulk records it held…
        let log = std::fs::metadata(dir.join(LOG_FILE)).expect("log file exists");
        assert!(log.len() < 512);
        // …but the live tag's record survived, including across a reopen.
        assert_eq!(
            set.replay_for("live").unwrap(),
            vec![b"must survive".to_vec()]
        );
        let reopened = WalSet::new(&dir, SyncMode::OnCheckpoint, false, 64);
        assert_eq!(
            reopened.replay_for("live").unwrap(),
            vec![b"must survive".to_vec()]
        );
        assert!(reopened.replay_for("bulk").unwrap().is_empty());
    }
}
