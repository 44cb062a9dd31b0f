//! The [`StorageBackend`] trait behind [`crate::StreamTable`], and the persistent page
//! engine that implements it.
//!
//! The paper's storage layer "provid\[es\] and manag\[es\] persistent storage for data
//! streams" (Section 4) — the original GSN delegated this to MySQL tables.  GSN-RS has
//! exactly two backends:
//!
//! * [`crate::ResidentBackend`] (in [`crate::spill`]) — elements in a `Vec`, exact
//!   retention, cursors that copy only the rows they pull; optionally spilling its cold
//!   prefix into a log-less [`PersistentBackend`] cache store.  Every memory table uses
//!   it.
//! * [`PersistentBackend`] — a segmented heap of slotted pages behind a bounded
//!   [`SharedBufferPool`], with its rows logged under a tag of the container's
//!   [`WalSet`] until they reach a page on disk.  Tables can grow far beyond RAM;
//!   windowed scans stream through the pool.  Under a [`crate::StorageManager`] every
//!   durable table shares one container-wide pool (global page budget, cross-table
//!   eviction).
//!
//! ### One read path
//!
//! Every read — a pipeline window, a client query, an incremental delta, recovery's
//! last-row lookup, compaction's rewrite — is a cursor: [`StorageBackend::open_scan`]
//! takes the window, the evaluation time and pushed-down [`ScanBounds`], and
//! [`StorageBackend::scan_next`] pulls one batch at a time (one buffer-pool page for
//! the persistent engine).  Every row the persistent engine hands out is decoded by its
//! row scan; only recovery's index rebuild parses pages on its own.
//!
//! ### Persistent write path
//!
//! `append` encodes the row once, logs it to the WAL (durability; cache stores skip
//! this), then places it in the tail page inside the buffer pool (dirty pages reach disk
//! on eviction or checkpoint).
//! A checkpoint — triggered by WAL growth or [`StorageBackend::flush`] — flushes dirty
//! pages, fsyncs the heap, persists the prune watermark and clears the table's WAL tag.
//! [`crate::StreamTable`] flushes on drop, so a cleanly dropped container checkpoints.
//!
//! ### Recovery
//!
//! Opening an existing table scans every segment's pages front to back (rebuilding the
//! per-page index: row counts, timestamp ranges, byte totals), truncates at the first
//! torn tail page, then replays WAL rows whose sequence exceeds the highest heap
//! sequence.  Rows that reached disk through an evicted dirty page are therefore never
//! duplicated, and rows that only made it to the log are never lost.  Segment headers
//! record each segment's `first_row`, so the global row numbering — and with it the
//! exact sequence→row mapping (`sequence s` ⇔ `global row s − 1` in a durable table;
//! see `Inner::rows_of` for cache stores) — survives head deletion and compaction.
//!
//! ### Pruning and reclamation
//!
//! Persistent tables prune at *page granularity*: a logical watermark advances over
//! whole dead pages, which scans then skip.  A persistent table may briefly retain
//! slightly more history than an exact in-memory table would — windows re-filter at
//! read time, so query results are identical.  The maintenance pass
//! ([`StorageBackend::reclaim`], see [`crate::retention`]) then turns the watermark
//! into reclaimed file space: fully dead head segments are deleted and the boundary
//! segment is compacted.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gsn_types::{codec, GsnError, GsnResult, StreamElement, StreamSchema, Timestamp};
use parking_lot::Mutex;

use crate::buffer::{BufferPoolStats, PageIo, SharedBufferPool, TableId};
use crate::index::{self, PageSummary, SegmentIndex};
use crate::page::{Page, PageId, MAX_INLINE_RECORD};
use crate::retention::{DiskUsage, ReclaimStats, COMPACT_MIN_DEAD_RATIO};
use crate::segment::{
    global_page_id, segment_of, SegmentedHeap, DEFAULT_SEGMENT_PAGES, MAX_SEGMENT_PAGES,
};
use crate::telemetry::StorageTelemetry;
use crate::wal::{SyncMode, WalSet};
use crate::window::WindowSpec;

/// Which engine backs a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Elements held in an in-memory vector.
    Memory,
    /// Elements in a segmented page file behind a buffer pool.
    Persistent,
    /// A memory-resident tail with the cold prefix spilled to a persistent segment
    /// store (see [`crate::spill::ResidentBackend`]).
    Spilled,
}

/// Tuning knobs for [`PersistentBackend`].
#[derive(Debug, Clone)]
pub struct PersistentOptions {
    /// Buffer-pool page budget (resident memory ≈ `pool_pages` × 8 KiB).  When
    /// `shared_pool` is `None` this sizes the table's private pool; the
    /// [`crate::StorageManager`] instead interprets it as the *container-wide* budget of
    /// the one [`SharedBufferPool`] every durable table shares.
    pub pool_pages: usize,
    /// WAL durability mode of the [`WalSet`] the [`crate::StorageManager`] builds.
    pub sync: SyncMode,
    /// Auto-checkpoint once the table's WAL tag exceeds this many bytes (also the
    /// manager's log-compaction threshold).
    pub wal_checkpoint_bytes: u64,
    /// Group commit: defer [`SyncMode::Always`] fsyncs to an explicit
    /// [`WalSet::commit`] (the container calls it once per step, amortising one fsync
    /// across every row ingested in that step).
    pub group_commit: bool,
    /// The shared buffer pool to register this table's pages with.  `None` gives the
    /// table a private pool of `pool_pages` frames (standalone use, tests).
    pub shared_pool: Option<Arc<SharedBufferPool>>,
    /// Clock regions a *private* pool is split into (`0` = the pool's default).  A
    /// shared pool arrives already sharded; this knob only shapes the fallback.
    pub pool_regions: usize,
    /// Pages per heap segment (clamped to `1..=`[`MAX_SEGMENT_PAGES`]).  Smaller
    /// segments reclaim space at a finer grain at the cost of more files; the default
    /// is ≈1 MiB per segment.
    pub segment_pages: u32,
    /// Storage telemetry handles the backend records index seeks and page skips
    /// into.  Default handles are detached (recording works, nothing is exported);
    /// the [`crate::StorageManager`] passes its container-wide handles so the
    /// counters surface through the metrics registry.
    pub telemetry: StorageTelemetry,
}

impl Default for PersistentOptions {
    fn default() -> Self {
        PersistentOptions {
            pool_pages: 64,
            sync: SyncMode::default(),
            wal_checkpoint_bytes: 4 << 20,
            group_commit: false,
            shared_pool: None,
            pool_regions: 0,
            segment_pages: DEFAULT_SEGMENT_PAGES,
            telemetry: StorageTelemetry::default(),
        }
    }
}

/// Pushed-down scan bounds, derived by the SQL optimizer from sargable
/// predicates (and a safe limit hint) on the implicit `PK` / `TIMED` columns.
///
/// All bounds are *hints* that let a backend skip storage it would otherwise
/// read: a backend may return a **superset** of the qualifying rows (the
/// executor re-applies the originating predicate row-wise above the scan), but
/// must never drop a row the bounds admit.  `min_seq`/`max_seq` are inclusive
/// sequence bounds; `min_ts`/`max_ts` are inclusive timestamp bounds in
/// milliseconds; `limit` caps the rows the consumer will pull and is only
/// forwarded by callers when nothing between storage and the limit operator can
/// drop rows (no residual predicate, no time bounds, no sampling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanBounds {
    /// Inclusive lower sequence bound (`pk >= n`).
    pub min_seq: Option<u64>,
    /// Inclusive upper sequence bound (`pk <= n`).
    pub max_seq: Option<u64>,
    /// Inclusive lower timestamp bound in millis (`timed >= t`).
    pub min_ts: Option<i64>,
    /// Inclusive upper timestamp bound in millis (`timed <= t`).
    pub max_ts: Option<i64>,
    /// Upper bound on rows the consumer will pull.
    pub limit: Option<u64>,
}

impl ScanBounds {
    /// True when no bound is set (the scan reads everything the window selects).
    pub fn is_unbounded(&self) -> bool {
        *self == ScanBounds::default()
    }
}

/// The resumable position of a pull-based scan started with
/// [`StorageBackend::open_scan`].
///
/// The state is opaque to callers and holds no lock or borrow: each
/// [`StorageBackend::scan_next`] call re-enters the backend, so a cursor can be held
/// across lock scopes (and across container steps) while the table keeps ingesting.
/// Persistent scans pin **one buffer-pool page per batch** — a cursor over a
/// multi-gigabyte heap needs one page frame plus one page worth of decoded rows,
/// and a consumer that stops pulling (`LIMIT`) leaves the remaining pages unread.
#[derive(Debug)]
pub struct ScanState(pub(crate) ScanStateInner);

#[derive(Debug)]
pub(crate) enum ScanStateInner {
    /// A scan that selected nothing at open.
    Empty,
    /// Resident-store scan tracked by *sequence bounds*: each batch re-resolves its
    /// position with a binary search over the (monotonically sequenced) element vector,
    /// so nothing is cloned up front — a `LIMIT` consumer copies only the rows it pulls
    /// — and pruning or spilling between pulls shifts no indices.
    Sequence { next_seq: u64, end_seq: u64 },
    /// Persistent scans walk the heap one page per batch through the buffer pool,
    /// tracked by *global row index*: each batch re-resolves the page currently holding
    /// `next_row` through the page index.  Head-segment deletion and compaction move
    /// rows to new pages but never renumber them, so a cursor held across a concurrent
    /// reclamation keeps reading exactly the rows it would have.
    Rows {
        /// Global index of the next row to consider (pre-prune numbering).
        next_row: u64,
        /// Snapshot bound (exclusive): rows appended after the scan opened are not
        /// visited, even though the tail page keeps filling.
        end_row: u64,
        /// Time-window cutoff: emit from the first element at/after it onwards.
        cutoff: Option<Timestamp>,
        /// Whether the cutoff has been passed (partition-point semantics).
        passed: bool,
        /// Inclusive pushed-down timestamp bounds (millis): pages whose stamp
        /// range falls entirely outside are skipped without a read.  Bounds are
        /// page-granular hints — the executor re-filters row-wise.
        min_ts: Option<i64>,
        /// See `min_ts`.
        max_ts: Option<i64>,
    },
}

impl ScanState {
    /// A scan that yields nothing.
    pub(crate) fn empty() -> ScanState {
        ScanState(ScanStateInner::Empty)
    }

    /// A scan over the inclusive sequence range `[next_seq, end_seq]`, resolved lazily
    /// per batch (the resident store's cross-boundary cursor representation).
    pub(crate) fn sequence_range(next_seq: u64, end_seq: u64) -> ScanState {
        ScanState(ScanStateInner::Sequence { next_seq, end_seq })
    }

    /// A page scan over the global rows `[next_row, end_row)`, clamped to the live
    /// range per batch.
    fn rows(next_row: u64, end_row: u64) -> ScanState {
        ScanState(ScanStateInner::Rows {
            next_row,
            end_row,
            cutoff: None,
            passed: false,
            min_ts: None,
            max_ts: None,
        })
    }
}

/// The storage engine behind one stream table.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Which engine this is.
    fn kind(&self) -> BackendKind;

    /// Appends an element (already carrying its sequence number).
    fn append(&mut self, element: &StreamElement) -> GsnResult<()>;

    /// Number of live (unpruned) elements.
    fn len(&self) -> usize;

    /// True when no live element is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recently appended element.
    fn last(&self) -> Option<StreamElement>;

    /// Timestamp of the oldest live element.
    fn first_timestamp(&self) -> GsnResult<Option<Timestamp>>;

    /// Payload bytes currently retained (page-granular for persistent tables).
    fn retained_bytes(&self) -> usize;

    /// Highest sequence number ever appended (0 when empty) — recovery hands this to the
    /// table so numbering continues across restarts.
    fn max_sequence(&self) -> u64;

    /// Begins a pull-based scan of the elements selected by `window` at `now`, oldest
    /// first, narrowed by pushed-down [`ScanBounds`] (superset-safe hints: the backend
    /// seeks past rows they rule out, the consumer re-filters row-wise).  This is the
    /// only way to read a table.  A window read passes `ScanBounds::default()`; a
    /// *delta* read — every live element after sequence `s`, the resume point of
    /// incremental continuous-query evaluation — is `Count(usize::MAX)` with
    /// `min_seq = s + 1`.  The returned state is advanced with
    /// [`scan_next`](Self::scan_next); a consumer that stops pulling reads no further
    /// storage.
    fn open_scan(
        &self,
        window: WindowSpec,
        now: Timestamp,
        bounds: &ScanBounds,
    ) -> GsnResult<ScanState>;

    /// Sequence number of the oldest live (unpruned) element, `None` when empty.
    /// Incremental evaluation retracts resident rows older than this, so a query's
    /// delta state tracks retention pruning exactly.
    fn first_sequence(&self) -> GsnResult<Option<u64>>;

    /// Pulls the next batch of a scan started with [`open_scan`](Self::open_scan):
    /// at most one buffer-pool page worth of rows for persistent backends, a bounded
    /// chunk of resident elements otherwise.  Returns `None` once the scan is exhausted.
    fn scan_next(&self, state: &mut ScanState) -> GsnResult<Option<Vec<StreamElement>>>;

    /// Drops the oldest elements so that at most `keep` remain (persistent backends may
    /// keep more — page granularity). Returns how many were pruned.
    fn prune_to_elements(&mut self, keep: usize) -> GsnResult<u64>;

    /// Drops elements older than `cutoff`, always keeping at least `min_keep` of the
    /// newest. Returns how many were pruned.
    fn prune_horizon(&mut self, cutoff: Timestamp, min_keep: usize) -> GsnResult<u64>;

    /// Forces all state to stable storage (checkpoint). No-op for memory tables.
    fn flush(&mut self) -> GsnResult<()>;

    /// Reclaims file space held by rows below the prune watermark: deletes fully dead
    /// head segments and compacts the partially dead boundary segment (see
    /// [`crate::retention`]).  No-op for memory tables.
    fn reclaim(&mut self) -> GsnResult<ReclaimStats> {
        Ok(ReclaimStats::default())
    }

    /// On-disk footprint and lifetime reclamation counters, when the backend owns disk
    /// state (`None` for memory tables).
    fn disk_usage(&self) -> Option<DiskUsage> {
        None
    }

    /// Buffer-pool counters, when the backend has one.
    fn pool_stats(&self) -> Option<BufferPoolStats>;

    /// Spill counters for disk-spilled window tables, as
    /// `(migration passes, rows moved to disk)`; `None` for other backends.
    fn spill_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Removes any on-disk state (table dropped).
    fn destroy(self: Box<Self>) -> GsnResult<()>;
}

// ---------------------------------------------------------------------------------------
// Persistent backend
// ---------------------------------------------------------------------------------------

/// Record chunk tags: rows larger than a page are chained across pages.
const CHUNK_FULL: u8 = 0;
const CHUNK_START: u8 = 1;
const CHUNK_MID: u8 = 2;
const CHUNK_END: u8 = 3;

/// Largest chunk payload per page record (one tag byte of framing).
const MAX_CHUNK_PAYLOAD: usize = MAX_INLINE_RECORD - 1;

/// How one encoded row lays out on pages.  This is the *single* source of the framing
/// invariants — the live append path and the compaction rewrite ([`pack_rows`]) both
/// plan through here, so the scan/rebuild parser can never see two dialects.
enum RecordLayout<'a> {
    /// Fits one page record (tag byte included): a `CHUNK_FULL` in whichever page has
    /// room.
    Inline,
    /// Chained across dedicated pages, one `MAX_CHUNK_PAYLOAD`-sized chunk each.
    Chained(Vec<&'a [u8]>),
}

fn plan_record(record: &[u8]) -> RecordLayout<'_> {
    if record.len() <= MAX_CHUNK_PAYLOAD {
        RecordLayout::Inline
    } else {
        RecordLayout::Chained(record.chunks(MAX_CHUNK_PAYLOAD).collect())
    }
}

/// The tag of chunk `i` of an `n`-chunk chain.
fn chain_tag(i: usize, n: usize) -> u8 {
    if i == 0 {
        CHUNK_START
    } else if i + 1 == n {
        CHUNK_END
    } else {
        CHUNK_MID
    }
}

/// Prepends the tag byte to a chunk payload.
fn frame_chunk(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + 1);
    framed.push(tag);
    framed.extend_from_slice(payload);
    framed
}

/// In-memory index entry for one heap page (small and fixed-size: the index for a
/// gigabyte heap is a few hundred kilobytes).
#[derive(Debug, Clone)]
struct PageInfo {
    /// Global index of the first row starting at or after this page (pre-prune
    /// numbering).
    first_row: u64,
    /// Number of complete rows starting in this page.
    rows: u32,
    /// Minimum / maximum row timestamp touching this page (i64 millis).
    min_ts: i64,
    max_ts: i64,
    /// Payload bytes of rows starting in this page.
    bytes: u64,
}

impl PageInfo {
    fn empty(first_row: u64) -> PageInfo {
        PageInfo {
            first_row,
            rows: 0,
            min_ts: i64::MAX,
            max_ts: i64::MIN,
            bytes: 0,
        }
    }

    fn touch(&mut self, ts: Timestamp) {
        self.min_ts = self.min_ts.min(ts.as_millis());
        self.max_ts = self.max_ts.max(ts.as_millis());
    }

    /// Global index one past the last row starting in this page.
    fn end_row(&self) -> u64 {
        self.first_row + u64::from(self.rows)
    }
}

/// One entry of the in-memory page index: a stable global page id plus its row/byte
/// summary.  Entries are ordered by `info.first_row` (== physical row order); head
/// deletion removes a prefix and compaction replaces a run in place, so positions may
/// shift but a *row index* always re-resolves through `partition_point`.
#[derive(Debug, Clone)]
struct PageEntry {
    pid: PageId,
    info: PageInfo,
}

/// Adapts the `Arc<Mutex<SegmentedHeap>>` a backend shares with its buffer pool to the
/// pool's [`PageIo`] surface (the heap mutex is a leaf lock; see the `buffer` module
/// docs for the lock order).
struct HeapIo(Arc<Mutex<SegmentedHeap>>);

impl PageIo for HeapIo {
    fn read_page(&mut self, id: PageId) -> GsnResult<Page> {
        PageIo::read_page(&mut *self.0.lock(), id)
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> GsnResult<()> {
        PageIo::write_page(&mut *self.0.lock(), id, page)
    }
}

/// RAII guard for a table's registration in its (possibly shared) buffer pool: dropping
/// the backend always releases its frames and I/O handle from the pool.
#[derive(Debug)]
struct PoolRegistration {
    pool: Arc<SharedBufferPool>,
    table: TableId,
}

impl Drop for PoolRegistration {
    fn drop(&mut self) {
        self.pool.release_table(self.table);
    }
}

#[derive(Debug)]
struct Inner {
    heap: Arc<Mutex<SegmentedHeap>>,
    /// The log this table's rows go to under the tag `base`; `None` for a cache store.
    wal: Option<Arc<WalSet>>,
    /// Data directory and sanitized file-name base — where segment files and
    /// their index sidecars live.
    dir: PathBuf,
    base: String,
    /// Segments whose on-disk index sidecar is known current in this
    /// incarnation (validated at recovery or written since).
    sidecars: HashSet<u32>,
    pool: Arc<SharedBufferPool>,
    table_id: TableId,
    /// Keep last so the registration is released after any other cleanup.
    registration: PoolRegistration,
    /// Page index ordered by `first_row` (see [`PageEntry`]).
    index: Vec<PageEntry>,
    schema: Arc<StreamSchema>,
    /// Rows ever appended (== global index of the next row).
    total_rows: u64,
    /// Rows logically pruned from the front.
    logical_start: u64,
    /// First index position whose page still holds (the start of) a live row.
    first_live_pos: usize,
    last: Option<StreamElement>,
    max_sequence: u64,
    /// Sequence minus `row + 1` for every live row (see `Inner::rows_of`).
    sequence_offset: u64,
    /// Lifetime reclamation counters of this incarnation (surfaced via
    /// [`StorageBackend::disk_usage`]).
    reclaim_totals: ReclaimStats,
    options: PersistentOptions,
}

/// A stream table stored in a page file behind a (shared) bounded buffer pool.
///
/// All state sits behind one `Mutex` so reads can go through `&self`; tables are
/// additionally serialised by the manager's per-table `RwLock`, so the mutex is
/// uncontended in practice.  Page frames live in the [`SharedBufferPool`] — one
/// container-wide budget when opened through the storage manager, a private pool
/// otherwise.
pub struct PersistentBackend {
    inner: Mutex<Inner>,
}

impl fmt::Debug for PersistentBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        let segments = inner.heap.lock().segment_count();
        write!(
            f,
            "PersistentBackend({} rows, {} pages in {} segments, pool {}/{})",
            inner.total_rows - inner.logical_start,
            inner.index.len(),
            segments,
            inner.pool.resident_pages(),
            inner.pool.capacity(),
        )
    }
}

impl PersistentBackend {
    /// Opens (creating or recovering) the durable table stored as
    /// `<dir>/<name>.NNNNNNNN.seg` segments, logging its rows under its tag in `wal`.
    ///
    /// A non-empty `<dir>/<name>.wal` — the private log of the pre-sharding layout — is
    /// refused with an error naming it: it may hold acknowledged rows the shared log
    /// does not have.
    pub fn open(
        dir: &Path,
        name: &str,
        schema: Arc<StreamSchema>,
        wal: Arc<WalSet>,
        options: PersistentOptions,
    ) -> GsnResult<PersistentBackend> {
        let legacy = dir.join(format!("{}.wal", sanitize_file_name(name)));
        if std::fs::metadata(&legacy).is_ok_and(|m| m.len() > 0) {
            return Err(GsnError::storage(format!(
                "durable table `{name}` has a non-empty per-table WAL {legacy:?} from the \
                 pre-sharding layout; its rows are in no shared log, so the table is not opened"
            )));
        }
        Self::open_with_log(dir, name, schema, Some(wal), options)
    }

    /// Opens a log-less *cache* store, wiping any segment files a previous incarnation
    /// left behind — the disk-spilled window path, whose contents are rebuilt from live
    /// stream data after a restart.
    pub fn open_cache(
        dir: &Path,
        name: &str,
        schema: Arc<StreamSchema>,
        options: PersistentOptions,
    ) -> GsnResult<PersistentBackend> {
        SegmentedHeap::wipe(dir, &sanitize_file_name(name))?;
        Self::open_with_log(dir, name, schema, None, options)
    }

    fn open_with_log(
        dir: &Path,
        name: &str,
        schema: Arc<StreamSchema>,
        wal: Option<Arc<WalSet>>,
        options: PersistentOptions,
    ) -> GsnResult<PersistentBackend> {
        std::fs::create_dir_all(dir)
            .map_err(|e| GsnError::storage(format!("cannot create data directory {dir:?}: {e}")))?;
        let base = sanitize_file_name(name);
        let (heap, existed) =
            SegmentedHeap::create_or_open(dir, &base, Arc::clone(&schema), options.segment_pages)?;

        // Rows below the persisted watermark — or below the first surviving segment
        // (head segments deleted by a previous incarnation's reclamation) — are dead.
        let logical_start = heap.watermark().max(heap.min_first_row().unwrap_or(0));
        let heap = Arc::new(Mutex::new(heap));
        let pool = options.shared_pool.clone().unwrap_or_else(|| {
            Arc::new(match options.pool_regions {
                0 => SharedBufferPool::new(options.pool_pages),
                n => SharedBufferPool::with_regions(options.pool_pages, n),
            })
        });
        let table_id = pool.register_table(Box::new(HeapIo(Arc::clone(&heap))));

        let mut inner = Inner {
            registration: PoolRegistration {
                pool: Arc::clone(&pool),
                table: table_id,
            },
            pool,
            table_id,
            dir: dir.to_path_buf(),
            base,
            sidecars: HashSet::new(),
            index: Vec::new(),
            schema,
            total_rows: 0,
            logical_start,
            first_live_pos: 0,
            last: None,
            max_sequence: 0,
            sequence_offset: 0,
            reclaim_totals: ReclaimStats::default(),
            options,
            heap,
            wal,
        };

        let wal = inner.wal.clone();
        if existed {
            inner.rebuild_index()?;
            let heap_max_sequence = inner.max_sequence;
            // Replay WAL rows the heap does not have yet.
            let records = match &wal {
                Some(wal) => wal.replay_for(&inner.base)?,
                None => Vec::new(),
            };
            for record in records {
                let mut cursor: &[u8] = &record;
                let element = codec::decode_row(&mut cursor, &inner.schema)?;
                if element.sequence() > heap_max_sequence {
                    inner.append_to_pages(&record, &element)?;
                }
            }
        } else if let Some(wal) = wal.filter(|wal| wal.tag_bytes(&inner.base) > 0) {
            // Fresh table next to stale records from a dropped predecessor: a durable
            // tombstone makes sure they never resurrect.
            wal.drop_tag(&inner.base)?;
        }
        inner.refresh_first_live_pos();

        Ok(PersistentBackend {
            inner: Mutex::new(inner),
        })
    }

    /// A scan of the live rows in the inclusive sequence range `[first_seq, last_seq]`:
    /// the resident store's continuation into its cold prefix.  It is not a bounded
    /// open, so it counts no index seek.
    pub(crate) fn open_sequence_range(&self, first_seq: u64, last_seq: u64) -> ScanState {
        let (next_row, end_row) = self.inner.lock().rows_of(first_seq, last_seq);
        ScanState::rows(next_row, end_row)
    }

    /// Resident page count, capacity, and hit/eviction counters of the pool.
    pub fn buffer_stats(&self) -> (usize, usize, BufferPoolStats) {
        let inner = self.inner.lock();
        (
            inner.pool.resident_pages(),
            inner.pool.capacity(),
            inner.pool.stats(),
        )
    }
}

/// Keeps table names filesystem-safe (they come from validated sensor names + aliases,
/// but storage does not rely on that).
pub(crate) fn sanitize_file_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

impl Inner {
    /// Scans every segment's pages in row order, rebuilding the in-memory page index
    /// and finding the last element and highest sequence.  Global row numbering is
    /// anchored at each segment header's `first_row`, so it survives head deletion and
    /// compaction by previous incarnations.
    fn rebuild_index(&mut self) -> GsnResult<()> {
        self.index.clear();
        self.sidecars.clear();
        self.last = None;
        self.max_sequence = 0;
        let (spans, tail_segment): (Vec<(u32, u64, PageId)>, Option<u32>) = {
            let heap = self.heap.lock();
            (
                heap.segments()
                    .map(|s| (s.segment_id(), s.first_row(), s.page_count()))
                    .collect(),
                heap.tail_segment_id(),
            )
        };
        let mut chain: Vec<u8> = Vec::new();
        let mut chain_open = false;
        let mut chain_start_pos = 0usize;
        let mut counted = 0u64;
        let mut used_sidecar = false;
        for &(segment_id, seg_first_row, page_count) in &spans {
            // Sealed segments with a valid sidecar rebuild without reading a
            // single page.  The tail segment is always page-scanned (its sidecar
            // is never current), as is any segment a not-yet-closed chain runs
            // into — the chain's row count lives in its START page, which the
            // scan must finish.
            if Some(segment_id) != tail_segment && !chain_open {
                if let Some(sidecar) = index::load_sidecar(&self.dir, &self.base, segment_id) {
                    if sidecar.first_row == seg_first_row
                        && sidecar.pages.len() as PageId == page_count
                    {
                        for (local, page) in sidecar.pages.iter().enumerate() {
                            counted += u64::from(page.rows);
                            self.index.push(PageEntry {
                                pid: global_page_id(segment_id, local as PageId),
                                info: PageInfo {
                                    first_row: 0, // prefix-summed below
                                    rows: page.rows,
                                    min_ts: page.min_ts,
                                    max_ts: page.max_ts,
                                    bytes: page.bytes,
                                },
                            });
                        }
                        self.sidecars.insert(segment_id);
                        used_sidecar = true;
                        continue;
                    }
                }
            }
            for local in 0..page_count {
                let pid = global_page_id(segment_id, local);
                let page = self.heap.lock().read_page(pid)?;
                self.index.push(PageEntry {
                    pid,
                    info: PageInfo::empty(0),
                });
                let current = self.index.len() - 1;
                for record in page.records() {
                    let (tag, payload) = split_chunk(record)?;
                    match tag {
                        CHUNK_FULL => {
                            let element = decode_payload(payload, &self.schema)?;
                            let info = &mut self.index[current].info;
                            info.rows += 1;
                            info.bytes += payload.len() as u64;
                            info.touch(element.timestamp());
                            counted += 1;
                            self.note_element(&element);
                            chain_open = false;
                        }
                        CHUNK_START => {
                            chain.clear();
                            chain.extend_from_slice(payload);
                            chain_open = true;
                            chain_start_pos = current;
                        }
                        CHUNK_MID if chain_open => chain.extend_from_slice(payload),
                        CHUNK_END if chain_open => {
                            chain.extend_from_slice(payload);
                            let element = decode_payload(&chain, &self.schema)?;
                            // The row belongs to the page its START chunk lives in.
                            let owner = &mut self.index[chain_start_pos].info;
                            owner.rows += 1;
                            owner.bytes += chain.len() as u64;
                            owner.touch(element.timestamp());
                            self.index[current].info.touch(element.timestamp());
                            counted += 1;
                            self.note_element(&element);
                            chain_open = false;
                        }
                        // An orphan continuation chunk: either the torn tail of a chain
                        // whose start was truncated (the WAL has the row) or the
                        // leftover of a chain whose owning row was compacted away.
                        CHUNK_MID | CHUNK_END => {}
                        other => {
                            return Err(GsnError::storage(format!(
                                "corrupt chunk tag {other} in page {pid}"
                            )))
                        }
                    }
                }
            }
        }
        // Assign absolute first_row per page: a prefix sum re-anchored at each segment
        // header (the headers carry the numbering across reclaimed predecessors).
        let mut next = 0u64;
        let mut pos = 0usize;
        for &(segment_id, seg_first_row, page_count) in &spans {
            debug_assert!(
                pos == 0 || next == seg_first_row,
                "segment {segment_id} header first_row {seg_first_row} disagrees with scan ({next})"
            );
            next = seg_first_row;
            for _ in 0..page_count {
                self.index[pos].info.first_row = next;
                next += u64::from(self.index[pos].info.rows);
                pos += 1;
            }
        }
        // Cross-check: the header-anchored prefix sums must account for exactly the
        // rows the scan recovered (their difference is the reclaimed-away prefix).
        debug_assert_eq!(
            spans.first().map(|s| s.1).unwrap_or(0) + counted,
            next,
            "recovered row count disagrees with the segment headers"
        );
        self.total_rows = next;
        // Sidecar-covered segments were never read, so `last`/`max_sequence`
        // may still reflect only the page-scanned tail.  Re-derive them from
        // the page(s) holding the final row (at most one page plus chain
        // spill-over) — the only page I/O a fully sidecar-indexed recovery
        // performs.
        if used_sidecar && self.total_rows > 0 {
            // Bypass the prune watermark: `last` tracks the newest row ever
            // appended, and the final row may sit below `logical_start`.
            let saved_start = self.logical_start;
            self.logical_start = 0;
            let scanned = self.read_rows(self.total_rows - 1, self.total_rows);
            self.logical_start = saved_start;
            if let Some(element) = scanned?.pop() {
                self.note_element(&element);
            }
        }
        Ok(())
    }

    fn note_element(&mut self, element: &StreamElement) {
        self.max_sequence = self.max_sequence.max(element.sequence());
        self.last = Some(element.clone());
    }

    fn note_row(&mut self, element: &StreamElement) {
        if self.live_rows() == 0 {
            // The first live row re-anchors the numbering: a cache store skips the
            // sequences its resident side pruned without spilling them.
            self.sequence_offset = element.sequence().saturating_sub(self.total_rows + 1);
        }
        debug_assert_eq!(
            element.sequence(),
            self.total_rows + 1 + self.sequence_offset,
            "live sequences must stay contiguous with the heap row index"
        );
        self.total_rows += 1;
        self.note_element(element);
    }

    fn refresh_first_live_pos(&mut self) {
        let mut first = self.first_live_pos.min(self.index.len());
        while first < self.index.len() && self.index[first].info.end_row() <= self.logical_start {
            // The tail page stays cached: its newest rows may not be written through
            // yet, and recovery numbers rows by what each page holds on disk.
            if first + 1 < self.index.len() {
                self.pool.discard(self.table_id, self.index[first].pid);
            }
            first += 1;
        }
        self.first_live_pos = first;
    }

    fn live_rows(&self) -> u64 {
        self.total_rows.saturating_sub(self.logical_start)
    }

    /// The global rows `[next_row, end_row)` holding the inclusive sequence range
    /// `[first_seq, last_seq]` — the one place a sequence becomes a row number.
    ///
    /// Live rows carry dense sequences, `row + 1 + sequence_offset`.  A durable table
    /// numbers from sequence 1, so its offset is 0 (`sequence s` ⇔ `row s − 1`).  A
    /// spilled window's cache store only ever receives rows its resident side did not
    /// prune first, so whenever it holds nothing live the next row re-anchors the
    /// offset (see `note_row`); rows below the live range keep their old numbering but
    /// are never read again.
    fn rows_of(&self, first_seq: u64, last_seq: u64) -> (u64, u64) {
        debug_assert_eq!(
            self.max_sequence,
            self.total_rows + self.sequence_offset,
            "sequence numbering must stay contiguous with the heap row index"
        );
        (
            first_seq.saturating_sub(1 + self.sequence_offset),
            last_seq.saturating_sub(self.sequence_offset),
        )
    }

    /// Un-checkpointed bytes this table holds in its WAL tag (0 for a cache store).
    fn log_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |wal| wal.tag_bytes(&self.base))
    }

    /// Appends an encoded row to the tail page(s) through the pool (WAL already written
    /// by the caller when required).
    fn append_to_pages(&mut self, record: &[u8], element: &StreamElement) -> GsnResult<()> {
        let ts = element.timestamp();
        match plan_record(record) {
            RecordLayout::Inline => {
                // Single chunk: tail page if it fits, else a fresh page.  A tail page
                // wholly below the live range (everything was pruned) takes no more
                // rows, so a page behind `first_live_pos` is never written again.
                let needed = record.len() + 1;
                let target = match self.index.len().checked_sub(1) {
                    Some(pos)
                        if pos >= self.first_live_pos
                            && self.tail_page_fits(self.index[pos].pid, needed)? =>
                    {
                        pos
                    }
                    _ => self.start_new_page(self.total_rows)?,
                };
                self.append_chunk(target, CHUNK_FULL, record)?;
                let info = &mut self.index[target].info;
                info.rows += 1;
                info.bytes += record.len() as u64;
                info.touch(ts);
            }
            RecordLayout::Chained(chunks) => {
                // Chain across fresh pages.  Roll to a new segment up front when the
                // chain would not fit the tail segment's remaining pages (chains larger
                // than a whole segment still span segments).
                let n = chunks.len();
                self.heap.lock().reserve_chain(n as u32, self.total_rows)?;
                let mut start_pos = 0usize;
                for (i, chunk) in chunks.iter().enumerate() {
                    // Continuation pages: the next row to start is this one plus one.
                    let target = self.start_new_page(self.total_rows + u64::from(i > 0))?;
                    if i == 0 {
                        start_pos = target;
                    }
                    self.append_chunk(target, chain_tag(i, n), chunk)?;
                    self.index[target].info.touch(ts);
                }
                let info = &mut self.index[start_pos].info;
                info.rows += 1;
                info.bytes += record.len() as u64;
            }
        }
        self.note_row(element);
        Ok(())
    }

    fn append_chunk(&mut self, target: usize, tag: u8, payload: &[u8]) -> GsnResult<()> {
        let framed = frame_chunk(tag, payload);
        let pid = self.index[target].pid;
        self.pool.with_page_mut(self.table_id, pid, |page| {
            page.append(&framed)
                .map(|_| ())
                .ok_or_else(|| GsnError::storage("page unexpectedly full during append"))
        })?
    }

    fn tail_page_fits(&mut self, pid: PageId, needed: usize) -> GsnResult<bool> {
        self.pool
            .with_page(self.table_id, pid, |page| page.free_space() >= needed)
    }

    /// Allocates a fresh page at the tail: written empty to the heap immediately (so the
    /// segment stays contiguous for recovery) and kept dirty in the pool for filling.
    /// Rolls to a new segment — recording `first_row` in its header — when the tail
    /// segment is full.
    ///
    /// The previous tail page is *completed* at this moment and will never be modified
    /// again, so it is written through right away. This keeps the on-disk heap a
    /// gap-free prefix of the table — the invariant WAL recovery relies on (replay fills
    /// exactly the rows past the heap's highest sequence).  Returns the page's index
    /// position.
    fn start_new_page(&mut self, first_row: u64) -> GsnResult<usize> {
        if let Some(entry) = self.index.last() {
            self.pool.flush_page(self.table_id, entry.pid)?;
        }
        let pid = {
            let mut heap = self.heap.lock();
            let pid = heap.next_page_id(first_row)?;
            heap.write_page(pid, &Page::new())?;
            pid
        };
        self.pool.install(self.table_id, pid, Page::new())?;
        self.index.push(PageEntry {
            pid,
            info: PageInfo::empty(first_row),
        });
        Ok(self.index.len() - 1)
    }

    /// Reads the live rows among global rows `[next_row, end_row)` by draining a row
    /// scan — one page (plus chain spill-over) per pull through the buffer pool.
    fn read_rows(&mut self, next_row: u64, end_row: u64) -> GsnResult<Vec<StreamElement>> {
        let mut state = ScanState::rows(next_row, end_row);
        let mut rows = Vec::new();
        while let Some(batch) = self.scan_next(&mut state)? {
            rows.extend(batch);
        }
        Ok(rows)
    }

    /// Opens a pull-based window scan, seeded with pushed-down bounds.
    ///
    /// Count windows resolve to an *exact* start row through the page index (per-page
    /// `first_row` prefix sums), so a `Count(n)` cursor touches only the pages that
    /// actually hold the trailing `n` rows.  The sequence bounds then clamp the row
    /// range exactly (through [`rows_of`](Self::rows_of)), the timestamp bounds arm
    /// page-granular skipping, and a limit hint trims the snapshot bound when nothing
    /// downstream can drop rows.  Each bounded open counts one index seek.
    ///
    /// Time windows (partition-point semantics) take no bounds: a mid-scan skip could
    /// swallow the partition point and change which out-of-order rows the window
    /// admits.  Such scans simply run unbounded.
    fn open_scan_state(
        &self,
        window: WindowSpec,
        now: Timestamp,
        bounds: &ScanBounds,
    ) -> ScanState {
        let live = self.live_rows();
        if live == 0 {
            return ScanState::empty();
        }
        let n = match window {
            WindowSpec::Count(n) => n as u64,
            WindowSpec::LatestOnly => 1,
            WindowSpec::Time(d) => {
                let cutoff = now.saturating_sub(d);
                // Page-level skip: pages whose newest timestamp predates the cutoff
                // cannot contribute.
                let mut pos = self.first_live_pos;
                while pos < self.index.len()
                    && self.index[pos].info.rows > 0
                    && self.index[pos].info.max_ts < cutoff.as_millis()
                {
                    pos += 1;
                }
                if pos >= self.index.len() {
                    return ScanState::empty();
                }
                return ScanState(ScanStateInner::Rows {
                    next_row: self.index[pos].info.first_row.max(self.logical_start),
                    end_row: self.total_rows,
                    cutoff: Some(cutoff),
                    passed: false,
                    min_ts: None,
                    max_ts: None,
                });
            }
        };
        // Count(0) is rejected by descriptor parsing but reachable through the public
        // API; it selects nothing.
        if n == 0 {
            return ScanState::empty();
        }
        let mut next_row = self.total_rows - n.min(live);
        let mut end_row = self.total_rows;
        if !bounds.is_unbounded() {
            let (first, end) = self.rows_of(
                bounds.min_seq.unwrap_or(0),
                bounds.max_seq.unwrap_or(u64::MAX),
            );
            next_row = next_row.max(first);
            end_row = end_row.min(end);
            if let (Some(limit), None, None) = (bounds.limit, bounds.min_ts, bounds.max_ts) {
                end_row = end_row.min(next_row.saturating_add(limit));
            }
            self.options.telemetry.index_seeks.inc();
        }
        ScanState(ScanStateInner::Rows {
            next_row,
            end_row,
            cutoff: None,
            passed: false,
            min_ts: bounds.min_ts,
            max_ts: bounds.max_ts,
        })
    }

    /// Pulls the next batch of a scan opened on this store.
    fn scan_next(&mut self, state: &mut ScanState) -> GsnResult<Option<Vec<StreamElement>>> {
        match &mut state.0 {
            ScanStateInner::Empty => Ok(None),
            ScanStateInner::Sequence { .. } => Err(GsnError::storage(
                "resident scan state handed to a persistent backend",
            )),
            ScanStateInner::Rows {
                next_row,
                end_row,
                cutoff,
                passed,
                min_ts,
                max_ts,
            } => self.scan_rows_next(next_row, *end_row, *cutoff, passed, *min_ts, *max_ts),
        }
    }

    /// Advances a row scan by (at least) one page, returning its live rows.
    ///
    /// The page holding `next_row` is re-resolved through the index on every call, so
    /// concurrent pruning, head-segment deletion and compaction between batches never
    /// invalidate the cursor: live rows keep their global index wherever they move.
    /// Pages holding only skipped/orphan records are passed over until something emits
    /// or the scan ends; a row chained across pages is completed eagerly within the
    /// call (its continuation pages are read in the same batch).
    fn scan_rows_next(
        &mut self,
        next_row: &mut u64,
        end_row: u64,
        cutoff: Option<Timestamp>,
        passed: &mut bool,
        min_ts: Option<i64>,
        max_ts: Option<i64>,
    ) -> GsnResult<Option<Vec<StreamElement>>> {
        let end = end_row.min(self.total_rows);
        let next = (*next_row).max(self.logical_start);
        if next >= end {
            return Ok(None);
        }
        let start_pos = self.index.partition_point(|e| e.info.end_row() <= next);
        if start_pos >= self.index.len() {
            return Ok(None);
        }
        let schema = Arc::clone(&self.schema);
        let mut row_cursor = self.index[start_pos].info.first_row;
        let mut emit: Vec<StreamElement> = Vec::new();
        let mut chain: Vec<u8> = Vec::new();
        let mut chain_open = false;
        let mut stop = false;
        let mut pos = start_pos;
        while pos < self.index.len() {
            // Pushed-down timestamp bounds: a page whose whole stamp range falls
            // outside cannot contribute a qualifying row (every row *touching*
            // the page is covered by its range, chained rows included), so it is
            // skipped without a read.  A page mid-chain is never skipped — its
            // continuation chunks belong to a row that started in an admissible
            // page.
            if !chain_open && (min_ts.is_some() || max_ts.is_some()) {
                let info = &self.index[pos].info;
                let outside = info.rows > 0
                    && (min_ts.is_some_and(|bound| info.max_ts < bound)
                        || max_ts.is_some_and(|bound| info.min_ts > bound));
                if outside {
                    row_cursor = row_cursor.max(info.end_row());
                    self.options.telemetry.index_pages_skipped.inc();
                    pos += 1;
                    if row_cursor >= end {
                        break;
                    }
                    continue;
                }
            }
            let pid = self.index[pos].pid;
            let page_stop = self.pool.with_page(self.table_id, pid, |page| {
                let mut stop_here = false;
                // Returns `true` once the snapshot bound is reached.
                let mut complete = |payload: &[u8]| -> GsnResult<bool> {
                    if row_cursor < next {
                        row_cursor += 1; // window-start / prune skip
                        return Ok(false);
                    }
                    // Rows past the snapshot bound arrived after the scan opened
                    // (the tail page keeps filling) — not part of this cursor.
                    if row_cursor >= end {
                        return Ok(true);
                    }
                    let element = decode_payload(payload, &schema)?;
                    row_cursor += 1;
                    if let Some(cutoff) = cutoff {
                        if !*passed && element.timestamp() >= cutoff {
                            *passed = true;
                        }
                        if !*passed {
                            return Ok(false);
                        }
                    }
                    emit.push(element);
                    Ok(false)
                };
                for record in page.records() {
                    if stop_here {
                        break;
                    }
                    let (tag, payload) = split_chunk(record)?;
                    match tag {
                        CHUNK_FULL => stop_here = complete(payload)?,
                        CHUNK_START => {
                            chain.clear();
                            chain.extend_from_slice(payload);
                            chain_open = true;
                        }
                        CHUNK_MID if chain_open => chain.extend_from_slice(payload),
                        CHUNK_END if chain_open => {
                            chain.extend_from_slice(payload);
                            stop_here = complete(&chain[..])?;
                            chain_open = false;
                        }
                        // An orphan continuation chunk: the tail of a chain whose start
                        // lives before the scan's first page (or was compacted away) —
                        // not ours to emit.
                        CHUNK_MID | CHUNK_END => {}
                        other => {
                            return Err(GsnError::storage(format!(
                                "corrupt chunk tag {other} in page {pid}"
                            )))
                        }
                    }
                }
                Ok(stop_here)
            })??;
            if page_stop {
                stop = true;
            }
            pos += 1;
            if stop {
                break;
            }
            if chain_open {
                continue; // finish the chained row in the next page, same batch
            }
            if !emit.is_empty() {
                break; // one page (plus chain spill-over) per batch
            }
            // Page yielded nothing (skipped/orphan records only): keep walking.
        }
        *next_row = row_cursor.max(next);
        if emit.is_empty() {
            Ok(None)
        } else {
            Ok(Some(emit))
        }
    }

    /// Checkpoint: pages to disk, prune watermark to the tail segment header, the WAL
    /// tag logically cleared.
    fn checkpoint(&mut self) -> GsnResult<()> {
        self.pool.flush_table(self.table_id)?;
        {
            let mut heap = self.heap.lock();
            heap.set_watermark(self.logical_start)?;
            heap.sync()?;
        }
        self.write_missing_sidecars()?;
        match &self.wal {
            Some(wal) => wal.checkpoint_tag(&self.base),
            None => Ok(()),
        }
    }

    /// Persists an index sidecar for every sealed (non-tail) segment that does
    /// not have a current one — the incremental maintenance hook of checkpoint.
    /// Sealed segments never change except through compaction (which writes its
    /// own fresh sidecar) and deletion (which removes it), so one write per
    /// segment lifetime suffices.
    fn write_missing_sidecars(&mut self) -> GsnResult<()> {
        let tail = self.heap.lock().tail_segment_id();
        let mut pos = 0usize;
        while pos < self.index.len() {
            let segment = segment_of(self.index[pos].pid);
            let len = self.index[pos..]
                .iter()
                .take_while(|e| segment_of(e.pid) == segment)
                .count();
            if Some(segment) != tail && !self.sidecars.contains(&segment) {
                let entries = &self.index[pos..pos + len];
                index::write_sidecar(
                    &self.dir,
                    &self.base,
                    &SegmentIndex {
                        segment_id: segment,
                        first_row: entries[0].info.first_row,
                        pages: entries.iter().map(|e| page_summary(&e.info)).collect(),
                    },
                )?;
                self.sidecars.insert(segment);
            }
            pos += len;
        }
        Ok(())
    }

    // -----------------------------------------------------------------------------------
    // Reclamation (the retention maintenance pass)
    // -----------------------------------------------------------------------------------

    /// Index positions of the head (oldest) segment, with its id — `None` when the index
    /// is empty or the head segment is the tail (actively written).
    fn head_segment_span(&self) -> Option<(u32, usize)> {
        let first = self.index.first()?;
        let segment = segment_of(first.pid);
        if self.heap.lock().tail_segment_id() == Some(segment) {
            return None;
        }
        let len = self
            .index
            .iter()
            .take_while(|e| segment_of(e.pid) == segment)
            .count();
        Some((segment, len))
    }

    /// Deletes fully dead head segments and compacts the partially dead boundary
    /// segment once its dead fraction reaches [`COMPACT_MIN_DEAD_RATIO`].
    fn reclaim(&mut self) -> GsnResult<ReclaimStats> {
        let mut stats = ReclaimStats::default();
        // 1. Head segments entirely below the watermark: delete the file outright.
        while let Some((segment, len)) = self.head_segment_span() {
            if self.index[len - 1].info.end_row() > self.logical_start {
                break;
            }
            let (bytes, pids) = self.heap.lock().delete_segment(segment)?;
            index::remove_sidecar(&self.dir, &self.base, segment);
            self.sidecars.remove(&segment);
            for pid in pids {
                self.pool.discard(self.table_id, pid);
            }
            self.index.drain(0..len);
            self.first_live_pos = self.first_live_pos.saturating_sub(len);
            stats.segments_deleted += 1;
            stats.bytes_reclaimed += bytes;
        }
        // 2. Boundary segment: partially dead, compact when mostly dead.
        if let Some((segment, len)) = self.head_segment_span() {
            let first_row = self.index[0].info.first_row;
            let end_row = self.index[len - 1].info.end_row();
            let rows = end_row.saturating_sub(first_row);
            let dead = self.logical_start.saturating_sub(first_row);
            if rows > 0 && dead > 0 && (dead as f64) / (rows as f64) >= COMPACT_MIN_DEAD_RATIO {
                self.compact_head_segment(segment, len, &mut stats)?;
            }
        }
        self.reclaim_totals.merge(&stats);
        Ok(stats)
    }

    /// Rewrites the head segment's live rows into a replacement segment, dropping its
    /// dead prefix.  Live rows keep their global indexes (the replacement header's
    /// `first_row` pins them), so concurrent cursors and the sequence mapping are
    /// unaffected.
    fn compact_head_segment(
        &mut self,
        segment: u32,
        len: usize,
        stats: &mut ReclaimStats,
    ) -> GsnResult<()> {
        let live_start = self.logical_start;
        // Collect the surviving rows (chains are followed into later pages/segments,
        // so a boundary row is rewritten whole).
        let rows = self.read_rows(live_start, self.index[len - 1].info.end_row())?;
        let (pages, mut infos) = pack_rows(&rows);
        if pages.len() as u32 > MAX_SEGMENT_PAGES {
            // A pathological all-oversized-rows segment: skip rather than overflow the
            // local page addressing.
            return Ok(());
        }
        let mut next = live_start;
        for info in &mut infos {
            info.first_row = next;
            next += u64::from(info.rows);
        }
        let outcome = self
            .heap
            .lock()
            .write_replacement(segment, live_start, &pages)?;
        index::remove_sidecar(&self.dir, &self.base, segment);
        self.sidecars.remove(&segment);
        for pid in &outcome.old_page_ids {
            self.pool.discard(self.table_id, *pid);
        }
        // The replacement segment is sealed at birth (only the tail is ever
        // written), so its sidecar can be persisted immediately.
        index::write_sidecar(
            &self.dir,
            &self.base,
            &SegmentIndex {
                segment_id: outcome.new_segment_id,
                first_row: live_start,
                pages: infos.iter().map(page_summary).collect(),
            },
        )?;
        self.sidecars.insert(outcome.new_segment_id);
        let new_entries: Vec<PageEntry> = infos
            .into_iter()
            .enumerate()
            .map(|(local, info)| PageEntry {
                pid: global_page_id(outcome.new_segment_id, local as PageId),
                info,
            })
            .collect();
        self.index.splice(0..len, new_entries);
        self.first_live_pos = 0;
        stats.segments_compacted += 1;
        stats.rows_rewritten += rows.len() as u64;
        stats.bytes_reclaimed += outcome.old_bytes.saturating_sub(outcome.new_bytes);
        self.refresh_first_live_pos();
        Ok(())
    }

    /// Point-in-time disk footprint plus this incarnation's reclamation totals.
    fn disk_usage(&self) -> DiskUsage {
        let heap = self.heap.lock();
        let mut live_segments: u64 = 0;
        let mut previous: Option<u32> = None;
        for entry in &self.index[self.first_live_pos.min(self.index.len())..] {
            let segment = segment_of(entry.pid);
            if previous != Some(segment) {
                live_segments += 1;
                previous = Some(segment);
            }
        }
        DiskUsage {
            on_disk_bytes: heap.file_bytes() + self.log_bytes(),
            live_segments,
            total_segments: heap.segment_count() as u64,
            reclaimed_bytes: self.reclaim_totals.bytes_reclaimed,
            reclaimed_segments: self.reclaim_totals.segments_deleted
                + self.reclaim_totals.segments_compacted,
        }
    }
}

/// Packs encoded rows into fresh pages with the same chunking rules as the append
/// path, returning the pages and their (first_row-less) summaries — the compaction
/// rewrite helper.
fn pack_rows(rows: &[StreamElement]) -> (Vec<Page>, Vec<PageInfo>) {
    let mut pages: Vec<Page> = Vec::new();
    let mut infos: Vec<PageInfo> = Vec::new();
    let fresh = |pages: &mut Vec<Page>, infos: &mut Vec<PageInfo>| {
        pages.push(Page::new());
        infos.push(PageInfo::empty(0));
        pages.len() - 1
    };
    for element in rows {
        let record = codec::encode_row(element);
        let ts = element.timestamp();
        match plan_record(&record) {
            RecordLayout::Inline => {
                let needed = record.len() + 1;
                let target = match pages.last() {
                    Some(page) if page.free_space() >= needed => pages.len() - 1,
                    _ => fresh(&mut pages, &mut infos),
                };
                pages[target]
                    .append(&frame_chunk(CHUNK_FULL, &record))
                    .expect("page has space");
                infos[target].rows += 1;
                infos[target].bytes += record.len() as u64;
                infos[target].touch(ts);
            }
            RecordLayout::Chained(chunks) => {
                let n = chunks.len();
                let mut start = 0usize;
                for (i, chunk) in chunks.iter().enumerate() {
                    let target = fresh(&mut pages, &mut infos);
                    if i == 0 {
                        start = target;
                    }
                    pages[target]
                        .append(&frame_chunk(chain_tag(i, n), chunk))
                        .expect("chunk fits a page");
                    infos[target].touch(ts);
                }
                infos[start].rows += 1;
                infos[start].bytes += record.len() as u64;
            }
        }
    }
    (pages, infos)
}

/// The sidecar form of one in-memory page summary.
fn page_summary(info: &PageInfo) -> PageSummary {
    PageSummary {
        rows: info.rows,
        min_ts: info.min_ts,
        max_ts: info.max_ts,
        bytes: info.bytes,
    }
}

fn split_chunk(record: &[u8]) -> GsnResult<(u8, &[u8])> {
    match record.split_first() {
        Some((&tag, payload)) => Ok((tag, payload)),
        None => Err(GsnError::storage("empty chunk record")),
    }
}

fn decode_payload(payload: &[u8], schema: &Arc<StreamSchema>) -> GsnResult<StreamElement> {
    let mut cursor = payload;
    let element = codec::decode_row(&mut cursor, schema)?;
    if !cursor.is_empty() {
        return Err(GsnError::storage("trailing bytes after row record"));
    }
    Ok(element)
}

impl StorageBackend for PersistentBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Persistent
    }

    fn append(&mut self, element: &StreamElement) -> GsnResult<()> {
        let inner = self.inner.get_mut();
        let record = codec::encode_row(element);
        if let Some(wal) = &inner.wal {
            wal.append(&inner.base, &record)?;
        }
        inner.append_to_pages(&record, element)?;
        if inner.log_bytes() > inner.options.wal_checkpoint_bytes {
            inner.checkpoint()?;
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.inner.lock().live_rows() as usize
    }

    fn last(&self) -> Option<StreamElement> {
        self.inner.lock().last.clone()
    }

    fn first_timestamp(&self) -> GsnResult<Option<Timestamp>> {
        let mut inner = self.inner.lock();
        let start = inner.logical_start;
        let first = inner.read_rows(start, start + 1)?;
        Ok(first.first().map(StreamElement::timestamp))
    }

    fn retained_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner.index[inner.first_live_pos.min(inner.index.len())..]
            .iter()
            .map(|e| e.info.bytes as usize)
            .sum()
    }

    fn max_sequence(&self) -> u64 {
        self.inner.lock().max_sequence
    }

    fn open_scan(
        &self,
        window: WindowSpec,
        now: Timestamp,
        bounds: &ScanBounds,
    ) -> GsnResult<ScanState> {
        Ok(self.inner.lock().open_scan_state(window, now, bounds))
    }

    fn first_sequence(&self) -> GsnResult<Option<u64>> {
        let inner = self.inner.lock();
        if inner.live_rows() == 0 {
            return Ok(None);
        }
        // The oldest live row is global row `logical_start` (see `Inner::rows_of`).
        Ok(Some(inner.logical_start + 1 + inner.sequence_offset))
    }

    fn scan_next(&self, state: &mut ScanState) -> GsnResult<Option<Vec<StreamElement>>> {
        self.inner.lock().scan_next(state)
    }

    fn prune_to_elements(&mut self, keep: usize) -> GsnResult<u64> {
        let inner = self.inner.get_mut();
        if inner.live_rows() <= keep as u64 {
            return Ok(0);
        }
        let target_start = inner.total_rows - keep as u64;
        // Advance over whole dead pages only (page-granular pruning).
        let mut new_start = inner.logical_start;
        let mut pos = inner.first_live_pos;
        while pos < inner.index.len() && inner.index[pos].info.end_row() <= target_start {
            new_start = new_start.max(inner.index[pos].info.end_row());
            pos += 1;
        }
        let pruned = new_start - inner.logical_start;
        inner.logical_start = new_start;
        inner.refresh_first_live_pos();
        Ok(pruned)
    }

    fn prune_horizon(&mut self, cutoff: Timestamp, min_keep: usize) -> GsnResult<u64> {
        let inner = self.inner.get_mut();
        let mut new_start = inner.logical_start;
        let mut pos = inner.first_live_pos;
        while pos < inner.index.len() {
            let info = &inner.index[pos].info;
            let fully_expired = info.rows > 0 && info.max_ts < cutoff.as_millis();
            let keeps_minimum = inner.total_rows.saturating_sub(info.end_row()) >= min_keep as u64;
            if fully_expired && keeps_minimum {
                new_start = new_start.max(info.end_row());
                pos += 1;
            } else {
                break;
            }
        }
        let pruned = new_start - inner.logical_start;
        inner.logical_start = new_start;
        inner.refresh_first_live_pos();
        Ok(pruned)
    }

    fn flush(&mut self) -> GsnResult<()> {
        self.inner.get_mut().checkpoint()
    }

    fn reclaim(&mut self) -> GsnResult<ReclaimStats> {
        self.inner.get_mut().reclaim()
    }

    fn disk_usage(&self) -> Option<DiskUsage> {
        Some(self.inner.lock().disk_usage())
    }

    fn pool_stats(&self) -> Option<BufferPoolStats> {
        Some(self.inner.lock().pool.stats())
    }

    fn destroy(self: Box<Self>) -> GsnResult<()> {
        let Inner {
            heap,
            wal,
            registration,
            dir,
            base,
            ..
        } = self.inner.into_inner();
        // Release frames and the pool's I/O handle (its clone of the heap Arc) first so
        // the segment files can be unwrapped and deleted.
        drop(registration);
        let heap = Arc::try_unwrap(heap)
            .map_err(|_| GsnError::internal("segmented heap still shared at destroy"))?
            .into_inner();
        heap.destroy()?;
        index::remove_all_sidecars(&dir, &format!("{base}."));
        match wal {
            Some(wal) => wal.drop_tag(&base),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::ResidentBackend;
    use crate::testutil::{table_files, temp_dir, wal_set};
    use gsn_types::{DataType, Value};

    fn schema() -> Arc<StreamSchema> {
        Arc::new(
            StreamSchema::from_pairs(&[("v", DataType::Integer), ("payload", DataType::Binary)])
                .unwrap(),
        )
    }

    fn element(schema: &Arc<StreamSchema>, v: i64, ts: i64, payload: usize) -> StreamElement {
        StreamElement::new(
            Arc::clone(schema),
            vec![Value::Integer(v), Value::binary(vec![v as u8; payload])],
            Timestamp(ts),
        )
        .unwrap()
        .with_sequence(v as u64)
    }

    fn open(dir: &std::path::Path, pool_pages: usize) -> PersistentBackend {
        PersistentBackend::open(
            dir,
            "t",
            schema(),
            wal_set(dir),
            PersistentOptions {
                pool_pages,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn collect(backend: &dyn StorageBackend, window: WindowSpec, now: Timestamp) -> Vec<i64> {
        let mut state = backend
            .open_scan(window, now, &ScanBounds::default())
            .unwrap();
        drain_scan(backend, &mut state)
    }

    /// A delta scan: every live row after sequence `after`.
    fn delta(backend: &dyn StorageBackend, after: u64) -> ScanState {
        let bounds = ScanBounds {
            min_seq: Some(after + 1),
            ..Default::default()
        };
        backend
            .open_scan(WindowSpec::Count(usize::MAX), Timestamp::MAX, &bounds)
            .unwrap()
    }

    /// A pause longer than the horizon prunes every row, the half-filled tail page
    /// included.  Rows appended afterwards must read back in order, and survive a
    /// restart with their sequences (the dead tail page reaches disk whole, so recovery
    /// numbers the rows after it correctly).
    #[test]
    fn appends_after_pruning_everything_read_back_and_recover() {
        let dir = temp_dir("backend-prune-all");
        let s = schema();
        {
            let mut b = open(&dir, 4);
            for i in 1..=30 {
                b.append(&element(&s, i, i, 200)).unwrap();
            }
            b.flush().unwrap();
            for i in 31..=35 {
                b.append(&element(&s, i, i, 200)).unwrap();
            }
            b.prune_horizon(Timestamp(9_900), 0).unwrap();
            assert_eq!(b.len(), 0, "every page expired");
            for i in 36..=40 {
                b.append(&element(&s, i, 10_000 + i, 200)).unwrap();
            }
            assert_eq!(b.first_sequence().unwrap(), Some(36));
            assert_eq!(
                collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_040)),
                (36..=40).collect::<Vec<i64>>()
            );
            assert_eq!(drain_scan(&b, &mut delta(&b, 37)), vec![38, 39, 40]);
            b.flush().unwrap();
        }
        let b = open(&dir, 4);
        assert_eq!(b.max_sequence(), 40);
        assert_eq!(b.first_sequence().unwrap(), Some(36));
        assert_eq!(
            collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_040)),
            (36..=40).collect::<Vec<i64>>()
        );
        assert_eq!(drain_scan(&b, &mut delta(&b, 37)), vec![38, 39, 40]);
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = temp_dir("backend-roundtrip");
        let mut b = open(&dir, 8);
        let s = schema();
        for i in 1..=100 {
            b.append(&element(&s, i, i * 10, 16)).unwrap();
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.max_sequence(), 100);
        assert_eq!(
            collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000)),
            (1..=100).collect::<Vec<i64>>()
        );
        assert_eq!(
            collect(&b, WindowSpec::Count(3), Timestamp(10_000)),
            vec![98, 99, 100]
        );
        assert_eq!(
            collect(&b, WindowSpec::LatestOnly, Timestamp(10_000)),
            vec![100]
        );
        // Time window: cutoff 700 keeps 70..=100.
        assert_eq!(
            collect(
                &b,
                WindowSpec::Time(gsn_types::Duration::from_millis(310)),
                Timestamp(1_010)
            ),
            (70..=100).collect::<Vec<i64>>()
        );
        assert_eq!(b.first_timestamp().unwrap(), Some(Timestamp(10)));
        assert_eq!(b.last().unwrap().sequence(), 100);
        assert!(b.retained_bytes() > 0);
    }

    fn drain_scan(backend: &dyn StorageBackend, state: &mut ScanState) -> Vec<i64> {
        let mut out = Vec::new();
        while let Some(batch) = backend.scan_next(state).unwrap() {
            out.extend(
                batch
                    .iter()
                    .map(|e| e.value("V").unwrap().as_integer().unwrap()),
            );
        }
        out
    }

    #[test]
    fn delta_scans_resume_from_a_sequence() {
        for persistent in [false, true] {
            let dir = temp_dir("backend-delta");
            let mut b: Box<dyn StorageBackend> = if persistent {
                Box::new(open(&dir, 4))
            } else {
                Box::new(ResidentBackend::default())
            };
            let s = schema();
            for i in 1..=200 {
                b.append(&element(&s, i, i * 10, 16)).unwrap();
            }
            // Everything after sequence 150 (exact, no page over-read at the row level).
            let mut scan = delta(b.as_ref(), 150);
            assert_eq!(
                drain_scan(b.as_ref(), &mut scan),
                (151..=200).collect::<Vec<i64>>(),
                "persistent={persistent}"
            );
            // Nothing new yet.
            let mut scan = delta(b.as_ref(), 200);
            assert!(drain_scan(b.as_ref(), &mut scan).is_empty());
            // Rows appended after the cursor opened are invisible to it (snapshot),
            // but a fresh delta scan picks them up.
            let mut scan = delta(b.as_ref(), 200);
            b.append(&element(&s, 201, 2_010, 16)).unwrap();
            assert!(drain_scan(b.as_ref(), &mut scan).is_empty());
            let mut scan = delta(b.as_ref(), 200);
            assert_eq!(drain_scan(b.as_ref(), &mut scan), vec![201]);
            assert_eq!(b.first_sequence().unwrap(), Some(1));
            b.destroy().unwrap();
        }
    }

    #[test]
    fn delta_scans_respect_pruning() {
        for persistent in [false, true] {
            let dir = temp_dir("backend-delta-prune");
            let mut b: Box<dyn StorageBackend> = if persistent {
                Box::new(open(&dir, 4))
            } else {
                Box::new(ResidentBackend::default())
            };
            let s = schema();
            for i in 1..=300 {
                b.append(&element(&s, i, i * 10, 16)).unwrap();
            }
            b.prune_to_elements(50).unwrap();
            let oldest = b.first_sequence().unwrap().unwrap();
            // Memory prunes exactly to 251; persistent prunes at page granularity, so
            // the oldest live sequence is at most that.
            assert!(oldest <= 251, "oldest {oldest}");
            assert!(b.len() >= 50);
            // A delta resume point below the prune watermark starts at the oldest
            // live row instead of failing.
            let mut scan = delta(b.as_ref(), 10);
            assert_eq!(
                drain_scan(b.as_ref(), &mut scan),
                (oldest as i64..=300).collect::<Vec<i64>>(),
                "persistent={persistent}"
            );
            b.destroy().unwrap();
        }
    }

    #[test]
    fn delta_scans_survive_restart() {
        let dir = temp_dir("backend-delta-restart");
        let s = schema();
        {
            let mut b = open(&dir, 4);
            for i in 1..=120 {
                b.append(&element(&s, i, i, 8)).unwrap();
            }
        }
        let b = open(&dir, 4);
        let mut scan = delta(&b, 100);
        assert_eq!(drain_scan(&b, &mut scan), (101..=120).collect::<Vec<i64>>());
        assert_eq!(b.first_sequence().unwrap(), Some(1));
    }

    #[test]
    fn restart_recovers_without_explicit_flush() {
        let dir = temp_dir("backend-recover");
        let s = schema();
        {
            let mut b = open(&dir, 4);
            for i in 1..=500 {
                b.append(&element(&s, i, i, 8)).unwrap();
            }
            // No explicit flush: rows live in the WAL plus whatever dirty pages were
            // evicted. Recovery must reassemble the exact history from that state.
        }
        let b = open(&dir, 4);
        assert_eq!(b.len(), 500);
        assert_eq!(b.max_sequence(), 500);
        assert_eq!(
            collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000)),
            (1..=500).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn recovery_replays_wal_tail_without_duplicates() {
        let dir = temp_dir("backend-wal-replay");
        let s = schema();
        let mut b = open(&dir, 4);
        for i in 1..=50 {
            b.append(&element(&s, i, i, 8)).unwrap();
        }
        b.flush().unwrap(); // heap authoritative, WAL reset
        for i in 51..=75 {
            b.append(&element(&s, i, i, 8)).unwrap();
        }
        drop(b);
        let b = open(&dir, 4);
        assert_eq!(
            collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000)),
            (1..=75).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn oversized_rows_chain_across_pages() {
        let dir = temp_dir("backend-overflow");
        let s = schema();
        let mut b = open(&dir, 4);
        // 32 KiB payloads: each row spans ~4 pages.
        for i in 1..=10 {
            b.append(&element(&s, i, i, 32 * 1024)).unwrap();
        }
        let mut state = b
            .open_scan(
                WindowSpec::Count(usize::MAX),
                Timestamp(100),
                &ScanBounds::default(),
            )
            .unwrap();
        let mut sizes = Vec::new();
        while let Some(batch) = b.scan_next(&mut state).unwrap() {
            sizes.extend(
                batch
                    .iter()
                    .map(|e| e.value("PAYLOAD").unwrap().as_bytes().unwrap().len()),
            );
        }
        assert_eq!(sizes, vec![32 * 1024; 10]);
        // And they survive restart.
        drop(b);
        let b = open(&dir, 4);
        assert_eq!(b.len(), 10);
        assert_eq!(
            collect(&b, WindowSpec::Count(2), Timestamp(100)),
            vec![9, 10]
        );
    }

    #[test]
    fn pool_stays_within_budget_for_scans_larger_than_pool() {
        let dir = temp_dir("backend-bounded");
        let s = schema();
        let mut b = open(&dir, 4);
        for i in 1..=2_000 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        assert_eq!(
            collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000)).len(),
            2_000
        );
        let (resident, capacity, stats) = b.buffer_stats();
        assert!(resident <= capacity, "{resident} > {capacity}");
        assert_eq!(capacity, 4);
        assert!(stats.evictions > 0);
    }

    #[test]
    fn count_pruning_is_page_granular() {
        let dir = temp_dir("backend-prune-count");
        let s = schema();
        let mut b = open(&dir, 4);
        for i in 1..=1_000 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        let pruned = b.prune_to_elements(10).unwrap();
        assert!(pruned > 0);
        // Page granularity: at least 10 remain, and the newest are intact.
        assert!(b.len() >= 10, "{}", b.len());
        assert!(b.len() < 1_000);
        let tail = collect(&b, WindowSpec::Count(10), Timestamp(10_000));
        assert_eq!(tail, (991..=1_000).collect::<Vec<i64>>());
        // Pruning persists across restart (watermark written at checkpoint).
        b.flush().unwrap();
        let len_before = b.len();
        drop(b);
        let b = open(&dir, 4);
        assert_eq!(b.len(), len_before);
    }

    #[test]
    fn horizon_pruning_respects_cutoff_and_minimum() {
        let dir = temp_dir("backend-prune-horizon");
        let s = schema();
        let mut b = open(&dir, 4);
        for i in 1..=500 {
            b.append(&element(&s, i, i * 100, 64)).unwrap();
        }
        b.prune_horizon(Timestamp(40_000), 1).unwrap();
        // Everything still needed by a [40_000, now] horizon is retained.
        let kept = collect(&b, WindowSpec::Count(usize::MAX), Timestamp(50_000));
        assert!(kept.first().copied().unwrap() <= 400);
        assert_eq!(kept.last().copied().unwrap(), 500);
        // min_keep: a cutoff beyond every element keeps at least one.
        b.prune_horizon(Timestamp(i64::MAX / 2), 1).unwrap();
        assert!(b.len() >= 1);
    }

    #[test]
    fn destroy_removes_files() {
        let dir = temp_dir("backend-destroy");
        let s = schema();
        let mut b = open(&dir, 4);
        b.append(&element(&s, 1, 1, 8)).unwrap();
        Box::new(b).destroy().unwrap();
        assert!(table_files(&dir).is_empty());
    }

    #[test]
    fn zero_count_window_scans_nothing() {
        let dir = temp_dir("backend-cursor-zero");
        let s = schema();
        let mut mem = ResidentBackend::default();
        let mut per = open(&dir, 4);
        for i in 1..=5 {
            mem.append(&element(&s, i, i, 8)).unwrap();
            per.append(&element(&s, i, i, 8)).unwrap();
        }
        assert!(collect(&mem, WindowSpec::Count(0), Timestamp(100)).is_empty());
        assert!(collect(&per, WindowSpec::Count(0), Timestamp(100)).is_empty());
    }

    #[test]
    fn cursor_reassembles_rows_chained_across_pages() {
        let dir = temp_dir("backend-cursor-chain");
        let s = schema();
        let mut b = open(&dir, 4);
        for i in 1..=6 {
            b.append(&element(&s, i, i, 32 * 1024)).unwrap();
        }
        let mut state = b
            .open_scan(
                WindowSpec::Count(usize::MAX),
                Timestamp(100),
                &ScanBounds::default(),
            )
            .unwrap();
        let mut values = Vec::new();
        while let Some(batch) = b.scan_next(&mut state).unwrap() {
            for e in &batch {
                assert_eq!(
                    e.value("PAYLOAD").unwrap().as_bytes().unwrap().len(),
                    32 * 1024
                );
                values.push(e.value("V").unwrap().as_integer().unwrap());
            }
        }
        assert_eq!(values, (1..=6).collect::<Vec<i64>>());
    }

    #[test]
    fn cursor_pulls_one_page_per_batch() {
        let dir = temp_dir("backend-cursor-bounded");
        let s = schema();
        let mut b = open(&dir, 4);
        for i in 1..=2_000 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        let before = b.pool_stats().unwrap();
        let mut state = b
            .open_scan(
                WindowSpec::Count(usize::MAX),
                Timestamp(10_000),
                &ScanBounds::default(),
            )
            .unwrap();
        let first = b.scan_next(&mut state).unwrap().unwrap();
        assert!(!first.is_empty());
        let after = b.pool_stats().unwrap();
        // Early exit: one batch touches one page, the rest of the heap is never read.
        let touched = (after.hits + after.misses) - (before.hits + before.misses);
        assert!(touched <= 2, "one batch touched {touched} pages");
    }

    fn open_segmented(
        dir: &std::path::Path,
        pool_pages: usize,
        segment_pages: u32,
    ) -> PersistentBackend {
        PersistentBackend::open(
            dir,
            "t",
            schema(),
            wal_set(dir),
            PersistentOptions {
                pool_pages,
                segment_pages,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn reclaim_deletes_dead_head_segments() {
        let dir = temp_dir("backend-reclaim-delete");
        let s = schema();
        let mut b = open_segmented(&dir, 4, 2);
        for i in 1..=400 {
            b.append(&element(&s, i, i, 512)).unwrap();
        }
        let before = b.disk_usage().unwrap();
        assert!(before.total_segments > 4);
        b.prune_to_elements(20).unwrap();
        let stats = b.reclaim().unwrap();
        assert!(stats.segments_deleted > 0, "{stats:?}");
        assert!(stats.bytes_reclaimed > 0);
        let after = b.disk_usage().unwrap();
        assert!(
            after.total_segments < before.total_segments,
            "{} !< {}",
            after.total_segments,
            before.total_segments
        );
        // Footprint bound: everything on disk is live data plus at most the boundary
        // segment and the tail.
        assert!(after.total_segments <= after.live_segments + 2);
        // The surviving tail still reads exactly right, through both scan paths.
        let tail = collect(&b, WindowSpec::Count(10), Timestamp(10_000));
        assert_eq!(tail, (391..=400).collect::<Vec<i64>>());
        let mut scan = delta(&b, 395);
        assert_eq!(drain_scan(&b, &mut scan), (396..=400).collect::<Vec<i64>>());
    }

    #[test]
    fn reclaim_compacts_the_boundary_segment() {
        let dir = temp_dir("backend-reclaim-compact");
        let s = schema();
        // ~3.9 KiB payloads: exactly 2 rows per page, 10 rows per 5-page segment —
        // deterministic geometry so the prune watermark lands *inside* segment 1.
        let mut b = open_segmented(&dir, 4, 5);
        for i in 1..=25 {
            b.append(&element(&s, i, i, 3_900)).unwrap();
        }
        // Keep 18: watermark advances to row 6 (page granularity 2), so segment 1 is
        // 6/10 dead — over the compaction threshold but not fully dead.
        b.prune_to_elements(18).unwrap();
        let before = b.disk_usage().unwrap();
        let stats = b.reclaim().unwrap();
        assert_eq!(stats.segments_deleted, 0, "{stats:?}");
        assert_eq!(stats.segments_compacted, 1, "{stats:?}");
        assert_eq!(stats.rows_rewritten, 4);
        assert!(stats.bytes_reclaimed > 0);
        let after = b.disk_usage().unwrap();
        assert!(after.on_disk_bytes < before.on_disk_bytes);
        // Live rows kept their sequences and values across the rewrite.
        let all = collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000));
        assert_eq!(all, (7..=25).collect::<Vec<i64>>());
        let mut scan = delta(&b, 20);
        assert_eq!(drain_scan(&b, &mut scan), (21..=25).collect::<Vec<i64>>());
        // A fresh check of the sequence→row mapping from the oldest live row.
        let oldest = b.first_sequence().unwrap().unwrap();
        assert_eq!(oldest, 7);
        let mut scan = delta(&b, oldest - 1);
        assert_eq!(
            drain_scan(&b, &mut scan),
            (oldest as i64..=25).collect::<Vec<i64>>()
        );
        // And a restart agrees with the compacted layout.
        b.flush().unwrap();
        drop(b);
        let b = open_segmented(&dir, 4, 5);
        assert_eq!(
            collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000)),
            (7..=25).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn delta_cursor_survives_concurrent_reclaim() {
        let dir = temp_dir("backend-reclaim-cursor");
        let s = schema();
        let mut b = open_segmented(&dir, 4, 2);
        for i in 1..=300 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        // Open a cursor over everything after 100, pull one batch, then reclaim the
        // rows the cursor already consumed.
        let mut scan = delta(&b, 100);
        let first = b.scan_next(&mut scan).unwrap().unwrap();
        let consumed_to = first.last().unwrap().sequence();
        let mut got: Vec<i64> = first
            .iter()
            .map(|e| e.value("V").unwrap().as_integer().unwrap())
            .collect();
        b.prune_to_elements((300 - consumed_to) as usize).unwrap();
        let stats = b.reclaim().unwrap();
        assert!(!stats.is_empty(), "reclaim must fire: {stats:?}");
        got.extend(drain_scan(&b, &mut scan));
        assert_eq!(got, (101..=300).collect::<Vec<i64>>());
    }

    #[test]
    fn restart_recovers_across_a_reclaimed_boundary() {
        let dir = temp_dir("backend-reclaim-restart");
        let s = schema();
        {
            let mut b = open_segmented(&dir, 4, 2);
            for i in 1..=250 {
                b.append(&element(&s, i, i, 64)).unwrap();
            }
            b.prune_to_elements(30).unwrap();
            b.reclaim().unwrap();
            // More rows after the reclamation, then drop (checkpoint on flush).
            for i in 251..=280 {
                b.append(&element(&s, i, i, 64)).unwrap();
            }
            b.flush().unwrap();
        }
        let b = open_segmented(&dir, 4, 2);
        assert_eq!(b.max_sequence(), 280);
        let oldest = b.first_sequence().unwrap().unwrap();
        assert!(oldest > 1, "head segments must stay deleted across restart");
        let all = collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000));
        assert_eq!(all, (oldest as i64..=280).collect::<Vec<i64>>());
        // Sequence numbering continues where the previous incarnation stopped.
        let mut scan = delta(&b, 270);
        assert_eq!(drain_scan(&b, &mut scan), (271..=280).collect::<Vec<i64>>());
    }

    #[test]
    fn resident_backend_matches_seed_semantics() {
        let s = schema();
        let mut b = ResidentBackend::default();
        for i in 1..=10 {
            b.append(&element(&s, i, i * 100, 4)).unwrap();
        }
        assert_eq!(b.len(), 10);
        assert_eq!(
            collect(&b, WindowSpec::Count(3), Timestamp(1_000)),
            vec![8, 9, 10]
        );
        assert_eq!(b.prune_to_elements(4).unwrap(), 6);
        assert_eq!(b.len(), 4);
        assert_eq!(
            b.prune_horizon(Timestamp(950), 1).unwrap(),
            3 // 700, 800, 900 expired; 1000 kept
        );
        assert_eq!(b.len(), 1);
        assert_eq!(b.first_timestamp().unwrap(), Some(Timestamp(1_000)));
    }

    #[test]
    fn bounded_scan_clamps_to_the_sequence_range() {
        let dir = temp_dir("backend-bounds-seq");
        let s = schema();
        let mut mem = ResidentBackend::default();
        let mut per = open(&dir, 4);
        for i in 1..=2_000 {
            mem.append(&element(&s, i, i, 64)).unwrap();
            per.append(&element(&s, i, i, 64)).unwrap();
        }
        let bounds = ScanBounds {
            min_seq: Some(1_500),
            max_seq: Some(1_510),
            ..Default::default()
        };
        for b in [&mem as &dyn StorageBackend, &per] {
            let mut state = b
                .open_scan(WindowSpec::Count(usize::MAX), Timestamp(10_000), &bounds)
                .unwrap();
            assert_eq!(
                drain_scan(b, &mut state),
                (1_500..=1_510).collect::<Vec<i64>>()
            );
        }
        // The persistent point lookup touches only the page(s) holding the range.
        let before = per.pool_stats().unwrap();
        let mut state = per
            .open_scan(
                WindowSpec::Count(usize::MAX),
                Timestamp(10_000),
                &ScanBounds {
                    min_seq: Some(1_500),
                    max_seq: Some(1_500),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(drain_scan(&per, &mut state), vec![1_500]);
        let after = per.pool_stats().unwrap();
        let touched = (after.hits + after.misses) - (before.hits + before.misses);
        assert!(touched <= 2, "point lookup touched {touched} pages");
    }

    #[test]
    fn timestamp_bounds_skip_non_qualifying_pages() {
        let dir = temp_dir("backend-bounds-ts");
        let s = schema();
        let telemetry = StorageTelemetry::new();
        let mut b = PersistentBackend::open(
            &dir,
            "t",
            s.clone(),
            wal_set(&dir),
            PersistentOptions {
                pool_pages: 4,
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 1..=2_000 {
            b.append(&element(&s, i, i * 10, 64)).unwrap();
        }
        let bounds = ScanBounds {
            min_ts: Some(10_000),
            max_ts: Some(10_100),
            ..Default::default()
        };
        let mut state = b
            .open_scan(WindowSpec::Count(usize::MAX), Timestamp(100_000), &bounds)
            .unwrap();
        // Time bounds are page-granular hints: the scan returns a superset of the
        // qualifying rows (whole overlapping pages); the SQL residual filter makes
        // the result exact.  It must contain the true range and skip most pages.
        let got = drain_scan(&b, &mut state);
        let want: Vec<i64> = (1_000..=1_010).collect();
        assert!(
            got.windows(want.len()).any(|w| w == want.as_slice()),
            "bounded scan lost qualifying rows"
        );
        assert!(
            got.len() < 400,
            "bounded scan returned {} of 2000 rows",
            got.len()
        );
        assert_eq!(telemetry.index_seeks.get(), 1, "one bounded open, one seek");
        let skipped = telemetry.index_pages_skipped.get();
        assert!(skipped > 0, "time-range scan skipped no pages");
        // An unbounded scan reads every page and is no seek.
        assert_eq!(
            collect(&b, WindowSpec::Count(usize::MAX), Timestamp(100_000)).len(),
            2_000
        );
        assert_eq!(telemetry.index_seeks.get(), 1);
        assert_eq!(telemetry.index_pages_skipped.get(), skipped);
        // A spilled window re-enters its cold store once per batch; those
        // continuations are not bounded opens and count nothing.
        let spill_dir = temp_dir("backend-bounds-spill");
        let mut options = crate::spill::SpillOptions::with_budget(2 * 1024);
        options.persistent.telemetry = telemetry.clone();
        let mut spilled = ResidentBackend::spilling(&spill_dir, "w", s.clone(), options).unwrap();
        for i in 1..=500 {
            spilled.append(&element(&s, i, i * 10, 64)).unwrap();
        }
        assert!(spilled.spilled_rows() > 0);
        assert_eq!(
            collect(&spilled, WindowSpec::Count(usize::MAX), Timestamp(100_000)),
            (1..=500).collect::<Vec<i64>>()
        );
        assert_eq!(telemetry.index_seeks.get(), 1);
        assert_eq!(telemetry.index_pages_skipped.get(), skipped);
    }

    #[test]
    fn sidecars_are_written_at_checkpoint_and_survive_recovery() {
        let dir = temp_dir("backend-sidecar");
        let s = schema();
        {
            let mut b = open_segmented(&dir, 4, 2);
            for i in 1..=400 {
                b.append(&element(&s, i, i, 512)).unwrap();
            }
            b.flush().unwrap();
        }
        let sidecars = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".idx"))
                .count()
        };
        assert!(sidecars() > 0, "checkpoint wrote no sidecars");
        // Recovery through the sidecars reproduces the exact table state.
        {
            let b = open_segmented(&dir, 4, 2);
            assert_eq!(b.max_sequence(), 400);
            assert_eq!(b.last().unwrap().sequence(), 400);
            assert_eq!(
                collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000)),
                (1..=400).collect::<Vec<i64>>()
            );
        }
        // A corrupt or missing sidecar degrades to a page scan of that segment —
        // and the next checkpoint writes it back.
        let mut idx_paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".idx"))
            .collect();
        idx_paths.sort();
        let mut corrupt = std::fs::read(&idx_paths[0]).unwrap();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        std::fs::write(&idx_paths[0], &corrupt).unwrap();
        std::fs::remove_file(&idx_paths[1]).unwrap();
        let before = sidecars();
        {
            let mut b = open_segmented(&dir, 4, 2);
            assert_eq!(
                collect(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000)),
                (1..=400).collect::<Vec<i64>>()
            );
            b.append(&element(&s, 401, 401, 512)).unwrap();
            b.flush().unwrap();
            assert_eq!(b.max_sequence(), 401);
        }
        assert!(sidecars() > before, "checkpoint did not restore sidecars");
        // Destroy leaves no sidecar behind.
        let b = open_segmented(&dir, 4, 2);
        Box::new(b).destroy().unwrap();
        assert!(table_files(&dir).is_empty());
    }
}
