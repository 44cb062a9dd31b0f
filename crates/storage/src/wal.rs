//! The write-ahead log: durability for rows that have not reached a heap page yet.
//!
//! Every durable table logs through one layout: a tag inside a [`WalSet`], the
//! container-wide set of shard logs `wal-shard-NNNN.wal`.  An insert appends its encoded
//! row under the table's tag *before* the tail page in the buffer pool is touched.  A
//! checkpoint (buffer-pool flush + heap fsync) makes the heap authoritative and clears
//! the tag.  Recovery replays the tag and keeps only rows whose sequence number is above
//! the highest sequence found in the heap — rows that reached disk via an evicted dirty
//! page before the crash are thereby not duplicated.
//!
//! Record framing: `[u32 length][u32 crc32][payload]`, little-endian.  Replay stops at
//! the first truncated or corrupt record (a torn tail write), which is exactly the
//! prefix-durability a log needs.
//!
//! ## Shards and group commit
//!
//! One log file per step-loop shard is shared by every table whose name hashes to that
//! shard (the same [`shard_index`] hash the container uses to assign sensors to
//! workers), so a worker appends only to its own shard's log.  With group commit
//! ([`Wal::set_group_commit`]) appends accumulate in a per-shard batch buffer, and one
//! [`WalSet::commit`] at the step boundary drains each shard with **one** `write` plus
//! (under [`SyncMode::Always`]) **one** fsync, amortised across every row and table
//! ingested in that step.  Durability moves from per-insert to per-step; a crash
//! mid-step can lose at most that step's un-committed batch (the CRC framing keeps
//! replay safe).  Records carry a table tag; recovery filters by tag and the
//! replay-above-heap sequence check makes the deferred (per-tag) truncation safe.

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
// Sharded, shared logs
// ---------------------------------------------------------------------------------------

/// Stable shard assignment: FNV-1a over the *normalised* name, modulo the shard count.
///
/// Normalisation lower-cases and maps `-` to `_`, so a sensor (`room-temp`) and its
/// output table (`room_temp`) land on the same shard.  The container assigns sensors to
/// step-loop workers and partitions registered queries with this same function, so
/// with `wal_shards == workers` the worker that runs a sensor's pipeline is the only
/// one appending to that table's WAL shard and owns the queries that read it.
pub fn shard_index(name: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        let byte = if byte == b'-' {
            b'_'
        } else {
            byte.to_ascii_lowercase()
        };
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// Marker byte that begins a *tombstone* record (`[0xFF][u8 tag_len][tag]`): all earlier
/// records of `tag` in the shard are dead (table dropped or superseded), regardless of
/// their sequence numbers.  Ordinary records are `[u8 tag_len][tag][row]`; tags are
/// therefore limited to 254 bytes.
const TOMBSTONE_MARKER: u8 = 0xFF;

/// One record commit summary per shard, returned by [`WalSet::commit`].
#[derive(Debug, Clone, Copy)]
pub struct ShardCommit {
    /// The shard index.
    pub shard: usize,
    /// Records the drained batch contained.
    pub records: u64,
    /// Whether the commit fsynced the shard file.
    pub synced: bool,
}

#[derive(Debug)]
struct WalShard {
    wal: Wal,
    /// Un-checkpointed logical bytes per table tag (frame overhead included).  A tag at
    /// zero needs nothing from this shard; when *every* tag is at zero the file resets.
    tag_bytes: HashMap<String, u64>,
}

/// A set of shared write-ahead logs, one per step-loop shard, multiplexing every
/// durable table of a container (see the module docs).
///
/// Tables append under their name tag; [`WalSet::commit`] drains each shard with one
/// write + one fsync.  Checkpoints are *logical* per table (the tag's byte count drops
/// to zero); the shard file truncates once every tag is clean, and compacts — rewriting
/// only live tags' records — when it outgrows `compact_bytes` before that happens.
pub struct WalSet {
    dir: PathBuf,
    sync: SyncMode,
    group_commit: bool,
    compact_bytes: u64,
    /// Lazily opened shard logs (a shard with no durable tables never touches disk).
    shards: Vec<Mutex<Option<WalShard>>>,
}

impl std::fmt::Debug for WalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WalSet({} shards in {:?}, {:?})",
            self.shards.len(),
            self.dir,
            self.sync
        )
    }
}

impl WalSet {
    /// Creates a set of `shards` logs (minimum 1) under `dir`, opened lazily.  `dir` is
    /// created on first use; `compact_bytes` bounds a shard file's size before it is
    /// rewritten to drop checkpointed tags' records.
    pub fn new(
        dir: impl Into<PathBuf>,
        shards: usize,
        sync: SyncMode,
        group_commit: bool,
        compact_bytes: u64,
    ) -> WalSet {
        WalSet {
            dir: dir.into(),
            sync,
            group_commit,
            compact_bytes,
            shards: (0..shards.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a table tag appends to.
    pub fn shard_of(&self, tag: &str) -> usize {
        shard_index(tag, self.shards.len())
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("wal-shard-{index:04}.wal"))
    }

    /// Runs `f` on the (lazily opened) shard `index`.
    fn with_shard<T>(
        &self,
        index: usize,
        f: impl FnOnce(&mut WalShard) -> GsnResult<T>,
    ) -> GsnResult<T> {
        let mut slot = self.shards[index].lock();
        if slot.is_none() {
            std::fs::create_dir_all(&self.dir).map_err(|e| {
                GsnError::storage(format!("cannot create WAL directory {:?}: {e}", self.dir))
            })?;
            let mut wal = Wal::open(&self.shard_path(index), self.sync)?;
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
            *slot = Some(WalShard { wal, tag_bytes });
        }
        f(slot.as_mut().expect("shard opened above"))
    }

    /// Appends one row record for `tag`, honouring the set's sync/group-commit modes.
    pub fn append(&self, tag: &str, payload: &[u8]) -> GsnResult<()> {
        if tag.len() > 254 {
            return Err(GsnError::storage(format!(
                "WAL table tag `{tag}` exceeds 254 bytes"
            )));
        }
        self.with_shard(self.shard_of(tag), |shard| {
            let mut tagged = Vec::with_capacity(1 + tag.len() + payload.len());
            tagged.push(tag.len() as u8);
            tagged.extend_from_slice(tag.as_bytes());
            tagged.extend_from_slice(payload);
            let frame_bytes = 8 + tagged.len() as u64;
            shard.wal.append(&tagged)?;
            *shard.tag_bytes.entry(tag.to_owned()).or_default() += frame_bytes;
            Ok(())
        })
    }

    /// Reads every surviving row payload of `tag` from its shard, in append order.  A
    /// tombstone discards everything appended before it.
    pub fn replay_for(&self, tag: &str) -> GsnResult<Vec<Vec<u8>>> {
        self.with_shard(self.shard_of(tag), |shard| {
            let mut rows = Vec::new();
            for record in shard.wal.replay()? {
                match decode_tagged(&record) {
                    Some(TaggedRecord::Row { tag: t, row }) if t == tag => rows.push(row.to_vec()),
                    Some(TaggedRecord::Tombstone { tag: t }) if t == tag => rows.clear(),
                    _ => {}
                }
            }
            Ok(rows)
        })
    }

    /// Un-checkpointed logical bytes `tag` holds in its shard.
    pub fn tag_bytes(&self, tag: &str) -> u64 {
        self.with_shard(self.shard_of(tag), |shard| {
            Ok(shard.tag_bytes.get(tag).copied().unwrap_or(0))
        })
        .unwrap_or(0)
    }

    /// The per-step group commit: drains every open shard's batch with one write (and
    /// at most one fsync) per shard.  Every shard is attempted even when one fails; the
    /// first error wins.  Returns one summary per shard that had records pending.
    pub fn commit(&self) -> GsnResult<Vec<ShardCommit>> {
        let mut commits = Vec::new();
        let mut first_error = None;
        for (index, slot) in self.shards.iter().enumerate() {
            let mut slot = slot.lock();
            let Some(shard) = slot.as_mut() else {
                continue;
            };
            match shard.wal.commit() {
                Ok(records) => {
                    if records > 0 {
                        commits.push(ShardCommit {
                            shard: index,
                            records,
                            synced: self.sync == SyncMode::Always,
                        });
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(commits),
        }
    }

    /// Marks `tag` checkpointed: its records are no longer needed (the heap is
    /// authoritative).  Truncates the shard file once every tag is clean; compacts it
    /// (dropping clean tags' records) when it outgrew the compaction threshold.
    pub fn checkpoint_tag(&self, tag: &str) -> GsnResult<()> {
        let index = self.shard_of(tag);
        self.with_shard(index, |shard| {
            shard.tag_bytes.insert(tag.to_owned(), 0);
            Self::truncate_or_compact(
                shard,
                &self.shard_path(index),
                self.sync,
                self.compact_bytes,
            )
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
        let index = self.shard_of(tag);
        self.with_shard(index, |shard| {
            let had_records =
                shard.tag_bytes.get(tag).copied().unwrap_or(0) > 0 || shard.wal.len_bytes() > 0;
            shard.tag_bytes.insert(tag.to_owned(), 0);
            if had_records {
                let mut tombstone = Vec::with_capacity(2 + tag.len());
                tombstone.push(TOMBSTONE_MARKER);
                tombstone.push(tag.len() as u8);
                tombstone.extend_from_slice(tag.as_bytes());
                shard.wal.append(&tombstone)?;
                shard.wal.sync()?;
            }
            Self::truncate_or_compact(
                shard,
                &self.shard_path(index),
                self.sync,
                self.compact_bytes,
            )
        })
    }

    /// Truncates the shard when every tag is clean, or rewrites it keeping only live
    /// tags' records when the file outgrew `compact_bytes`.
    fn truncate_or_compact(
        shard: &mut WalShard,
        path: &Path,
        sync: SyncMode,
        compact_bytes: u64,
    ) -> GsnResult<()> {
        if shard.tag_bytes.values().all(|&bytes| bytes == 0) {
            shard.tag_bytes.clear();
            return shard.wal.reset();
        }
        if shard.wal.len_bytes() <= compact_bytes {
            return Ok(());
        }
        // Compact: rewrite only the records of tags that still hold un-checkpointed
        // bytes, via a temp file + atomic rename (a crash mid-compact keeps the old
        // file intact).
        let live = |tag: &str| shard.tag_bytes.get(tag).copied().unwrap_or(0) > 0;
        let survivors: Vec<Vec<u8>> = shard
            .wal
            .replay()?
            .into_iter()
            .filter(|record| match decode_tagged(record) {
                Some(TaggedRecord::Row { tag, .. }) => live(tag),
                Some(TaggedRecord::Tombstone { tag }) => live(tag),
                None => false,
            })
            .collect();
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
        std::fs::rename(&tmp, path)
            .map_err(|e| GsnError::storage(format!("cannot swap compacted WAL {path:?}: {e}")))?;
        shard.wal = {
            let mut wal = Wal::open(path, sync)?;
            wal.set_group_commit(shard.wal.group_commit)?;
            wal
        };
        Ok(())
    }
}

enum TaggedRecord<'a> {
    Row { tag: &'a str, row: &'a [u8] },
    Tombstone { tag: &'a str },
}

/// Decodes a shard record into its tag + row (or tombstone), `None` when malformed.
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
        let set = WalSet::new(&dir, 4, SyncMode::OnCheckpoint, false, 1 << 20);
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
        let reopened = WalSet::new(&dir, 4, SyncMode::OnCheckpoint, false, 1 << 20);
        assert_eq!(reopened.replay_for("alpha").unwrap(), alpha);
        assert_eq!(reopened.tag_bytes("beta"), set.tag_bytes("beta"));
    }

    #[test]
    fn wal_set_commit_drains_each_shard_once() {
        let dir = crate::testutil::temp_dir("walset-commit");
        let set = WalSet::new(&dir, 2, SyncMode::Always, true, 1 << 20);
        for i in 0..8u8 {
            set.append(&format!("table-{i}"), &[i]).unwrap();
        }
        let commits = set.commit().unwrap();
        let total: u64 = commits.iter().map(|c| c.records).sum();
        assert_eq!(total, 8);
        assert!(commits.len() <= 2, "at most one commit per shard");
        assert!(commits.iter().all(|c| c.synced));
        // Nothing pending → nothing committed.
        assert!(set.commit().unwrap().is_empty());
    }

    #[test]
    fn wal_set_checkpoint_clears_tag_and_resets_when_all_clean() {
        let dir = crate::testutil::temp_dir("walset-checkpoint");
        let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, 1 << 20);
        set.append("left", b"l1").unwrap();
        set.append("right", b"r1").unwrap();
        set.checkpoint_tag("left").unwrap();
        assert_eq!(set.tag_bytes("left"), 0);
        // Right's records survive the left checkpoint…
        assert_eq!(set.replay_for("right").unwrap(), vec![b"r1".to_vec()]);
        // …and once right is clean too, the single shard file truncates.
        set.checkpoint_tag("right").unwrap();
        assert!(set.replay_for("left").unwrap().is_empty());
        assert!(set.replay_for("right").unwrap().is_empty());
    }

    #[test]
    fn wal_set_tombstone_survives_reopen() {
        let dir = crate::testutil::temp_dir("walset-tombstone");
        {
            let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, u64::MAX);
            set.append("doomed", b"old row").unwrap();
            set.append("keeper", b"live row").unwrap();
            set.drop_tag("doomed").unwrap();
        }
        // The drop is durable: a re-opened set must not resurrect the dead tag's rows
        // even though its records still sit in the shard file before the tombstone.
        let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, u64::MAX);
        assert!(set.replay_for("doomed").unwrap().is_empty());
        assert_eq!(set.tag_bytes("doomed"), 0);
        assert_eq!(
            set.replay_for("keeper").unwrap(),
            vec![b"live row".to_vec()]
        );
    }

    #[test]
    fn wal_set_compacts_oversized_shard_keeping_live_tags() {
        let dir = crate::testutil::temp_dir("walset-compact");
        // Tiny compaction threshold forces a rewrite on the first checkpoint.
        let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, 64);
        for i in 0..20u8 {
            set.append("bulk", &[i; 32]).unwrap();
        }
        set.append("live", b"must survive").unwrap();
        set.checkpoint_tag("bulk").unwrap();
        // The shard was rewritten: far smaller than the bulk records it held…
        let shard_file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".wal"))
            .expect("shard file exists");
        assert!(shard_file.metadata().unwrap().len() < 512);
        // …but the live tag's record survived, including across a reopen.
        assert_eq!(
            set.replay_for("live").unwrap(),
            vec![b"must survive".to_vec()]
        );
        let reopened = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, 64);
        assert_eq!(
            reopened.replay_for("live").unwrap(),
            vec![b"must survive".to_vec()]
        );
        assert!(reopened.replay_for("bulk").unwrap().is_empty());
    }
}
