//! The shared buffer pool: one bounded, container-wide cache of heap-file pages with
//! clock (second-chance) eviction, pin/unpin discipline and cross-table eviction.
//!
//! The pool is what makes `permanent-storage="true"` tables *larger than memory*: reads
//! and writes go through a fixed number of page frames, so a windowed SQL scan over a
//! multi-gigabyte history touches at most `capacity` pages of RAM at a time.  Earlier
//! revisions gave every table its own private pool; a container hosting hundreds of
//! sensors then had no global memory bound.  [`SharedBufferPool`] holds **one page
//! budget for the whole container**: every persistent table registers its page I/O and
//! competes for frames, and the clock hands sweep across tables so a cold table's pages
//! yield to a hot one's.
//!
//! ## Threading model
//!
//! The pool is internally sharded into N independent **clock regions** (page address →
//! region by hash), each guarding its own frame table, resident index and clock hand
//! behind its own mutex.  Page *contents* live in per-frame cells ([`Arc`]'d, with
//! atomic pin counts and an `RwLock<Page>` latch), so the actual page access — the
//! callback of [`with_page`](SharedBufferPool::with_page) /
//! [`with_page_mut`](SharedBufferPool::with_page_mut), and all disk I/O on a miss —
//! runs *outside* every region lock.  Concurrent scans over pages in different regions
//! never touch a common mutex; scans in the same region contend only for the short
//! lookup/pin critical section.  The frame budget is a single global atomic, so the
//! capacity bound stays container-wide: a region that runs out of evictable frames
//! steals one from its siblings (locking regions in ascending order) before giving up.
//!
//! The pool is shared via `Arc` by every [`crate::PersistentBackend`] of a
//! [`crate::StorageManager`]; any thread holding the manager may read through it.
//!
//! Lock order (must never be reversed):
//!
//! 1. a table's `RwLock<StreamTable>` (taken by the storage manager),
//! 2. the backend's internal state mutex,
//! 3. **a pool region mutex** (several may be held, ascending by region index only),
//! 4. the I/O registry lock, then a registered table's `PageIo` mutex (the heap-file
//!    lock) — *leaf* locks, taken by the pool for read-through, write-back and
//!    eviction,
//! 5. a frame's page latch.  The pool only blocks on a page latch for frames it has
//!    pinned itself or proven unpinned under the region lock (pins are only raised
//!    under the region lock), so this never deadlocks against callers.
//!
//! Backends therefore must never call into the pool while holding their heap-file lock.
//! `with_page` / `with_page_mut` callbacks run outside the region locks but hold the
//! frame's page latch: they must not re-enter the pool for the *same* page (other pages
//! are safe, but the historical rule of not re-entering the pool at all remains the
//! simplest discipline).
//!
//! Invariants (exercised by the property tests in `tests/storage_persistence.rs`,
//! including under multi-threaded contention):
//!
//! * resident pages never exceed the configured capacity (globally, not per region),
//! * a pinned page is never evicted,
//! * a dirty page is flushed through its table's [`PageIo`] before its frame is reused.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use gsn_types::{GsnError, GsnResult};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::page::{Page, PageId};

/// The I/O surface the pool needs from a heap file: read a page and write one back.
pub trait PageIo {
    /// Reads page `id` from stable storage.
    fn read_page(&mut self, id: PageId) -> GsnResult<Page>;
    /// Writes page `id` back to stable storage.
    fn write_page(&mut self, id: PageId, page: &Page) -> GsnResult<()>;
}

/// Identifies one registered table within a [`SharedBufferPool`].
pub type TableId = u64;

/// A registered table's shared I/O handle (see [`SharedBufferPool`]'s `io` field).
type TableIo = Arc<Mutex<Box<dyn PageIo + Send>>>;

/// Default number of clock regions; capped by the page budget so a tiny pool
/// degenerates to a single region.
const DEFAULT_REGIONS: usize = 8;

/// One resident page.  The cell is `Arc`-shared between the owning region and in-flight
/// accessors, so evicting a frame never invalidates a borrow: readers hold a pin
/// (raised only under the region lock) and the page latch for the duration of the
/// access, and the clock skips any frame with `pins > 0`.
struct FrameCell {
    table: TableId,
    id: PageId,
    /// Outstanding pins.  Raised only while holding the owning region's lock;
    /// released atomically (without the lock) when an access completes — so a frame
    /// observed unpinned *under the region lock* cannot gain a page-latch holder.
    pins: AtomicU32,
    /// Clock reference bit (second chance).
    referenced: AtomicBool,
    /// Set when the in-memory page diverges from disk; cleared by write-back.
    dirty: AtomicBool,
    /// Set when the frame's backing read failed after the cell was published;
    /// concurrent accessors that raced the load must surface the failure.
    poisoned: AtomicBool,
    /// The page contents; the exclusive latch doubles as the load/mutate latch.
    page: RwLock<Page>,
}

impl FrameCell {
    fn new(table: TableId, id: PageId) -> FrameCell {
        FrameCell {
            table,
            id,
            pins: AtomicU32::new(1),
            referenced: AtomicBool::new(true),
            dirty: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            page: RwLock::new(Page::new()),
        }
    }

    fn release_pin(&self) {
        let prev = self.pins.fetch_sub(1, Ordering::Release);
        debug_assert!(
            prev > 0,
            "pin underflow on page {} of table {}",
            self.id,
            self.table
        );
    }
}

/// Counters describing pool occupancy and effectiveness (a point-in-time snapshot,
/// aggregated over every region).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to read from disk.
    pub misses: u64,
    /// Frames reclaimed by the clock hands.
    pub evictions: u64,
    /// Dirty pages written back during eviction or flush.
    pub writebacks: u64,
    /// Region-lock acquisitions that found the lock already held.
    pub contended: u64,
    /// Pages resident when the snapshot was taken.
    pub resident_pages: usize,
    /// The configured page budget.
    pub capacity: usize,
}

/// Per-region occupancy and effectiveness counters (a point-in-time snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// The region's index within the pool.
    pub region: usize,
    /// Pages resident in this region when the snapshot was taken.
    pub resident_pages: usize,
    /// Page requests served from a resident frame of this region.
    pub hits: u64,
    /// Page requests that read through this region from disk.
    pub misses: u64,
    /// Frames this region's clock hand reclaimed.
    pub evictions: u64,
    /// Dirty pages this region wrote back during eviction or flush.
    pub writebacks: u64,
    /// Lock acquisitions on this region that found the lock already held.
    pub contended: u64,
}

#[derive(Default)]
struct RegionCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

struct RegionInner {
    frames: Vec<Arc<FrameCell>>,
    resident: HashMap<(TableId, PageId), usize>,
    hand: usize,
    counters: RegionCounters,
}

struct Region {
    inner: Mutex<RegionInner>,
    /// Hot-path lock acquisitions that found the lock held (observer methods such as
    /// [`SharedBufferPool::stats`] do not count).
    contended: AtomicU64,
}

impl Region {
    fn new() -> Region {
        Region {
            inner: Mutex::new(RegionInner {
                frames: Vec::new(),
                resident: HashMap::new(),
                hand: 0,
                counters: RegionCounters::default(),
            }),
            contended: AtomicU64::new(0),
        }
    }

    /// Data-path lock: records contention when the lock is already held.
    fn lock_counted(&self) -> MutexGuard<'_, RegionInner> {
        match self.inner.try_lock() {
            Some(guard) => guard,
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock()
            }
        }
    }
}

impl RegionInner {
    /// Drops frame `idx` without write-back, fixing the resident index of the frame
    /// swapped into its place and re-clamping the clock hand.
    fn remove_frame(&mut self, idx: usize) {
        debug_assert_eq!(
            self.frames[idx].pins.load(Ordering::Acquire),
            0,
            "removing pinned page {} of table {}",
            self.frames[idx].id,
            self.frames[idx].table
        );
        self.remove_frame_unchecked(idx);
    }

    /// As [`remove_frame`](Self::remove_frame) but without the unpinned assertion —
    /// only for unwinding a failed load, where racing accessors may still hold pins on
    /// the (poisoned, `Arc`-shared) cell.
    fn remove_frame_unchecked(&mut self, idx: usize) {
        let key = (self.frames[idx].table, self.frames[idx].id);
        self.resident.remove(&key);
        self.frames.swap_remove(idx);
        if idx < self.frames.len() {
            // The swapped-in frame changed position; fix its index.
            let moved = (self.frames[idx].table, self.frames[idx].id);
            self.resident.insert(moved, idx);
        }
        if self.hand >= self.frames.len() {
            self.hand = 0;
        }
    }

    /// Publishes `cell` into this region, reusing slot `slot` when one was freed by
    /// eviction.
    fn publish(&mut self, cell: &Arc<FrameCell>, slot: Option<usize>) {
        let idx = match slot {
            Some(idx) => {
                self.frames[idx] = Arc::clone(cell);
                idx
            }
            None => {
                self.frames.push(Arc::clone(cell));
                self.frames.len() - 1
            }
        };
        self.resident.insert((cell.table, cell.id), idx);
    }
}

/// How [`SharedBufferPool::acquire`] obtained a frame.
enum Placed {
    /// The page was already resident: the hit cell, pinned.
    Hit(Arc<FrameCell>),
    /// The caller's freshly created cell was published (pinned) and must be filled.
    Ours,
}

/// A bounded, thread-safe page cache shared by every persistent table of a container,
/// sharded into independent clock regions with cross-table (and cross-region) eviction.
pub struct SharedBufferPool {
    regions: Vec<Region>,
    /// Per-table I/O handles.  `Arc<Mutex<..>>` so write-back can drop the registry
    /// lock before touching the (leaf) heap-file lock.
    io: RwLock<HashMap<TableId, TableIo>>,
    /// Unused frame slots remaining out of `capacity` — the *global* page budget.
    free_budget: AtomicUsize,
    capacity: usize,
    next_table: AtomicU64,
}

impl std::fmt::Debug for SharedBufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedBufferPool({}/{} pages, {} tables, {} regions)",
            self.resident_pages(),
            self.capacity,
            self.table_count(),
            self.regions.len()
        )
    }
}

impl SharedBufferPool {
    /// Creates a pool holding at most `capacity` pages (minimum 1) across all tables,
    /// with the default region count (`min(8, capacity)`).
    pub fn new(capacity: usize) -> SharedBufferPool {
        SharedBufferPool::with_regions(capacity, DEFAULT_REGIONS)
    }

    /// Creates a pool with an explicit clock-region count (clamped to `1..=capacity`).
    pub fn with_regions(capacity: usize, regions: usize) -> SharedBufferPool {
        let capacity = capacity.max(1);
        let regions = regions.clamp(1, capacity);
        SharedBufferPool {
            regions: (0..regions).map(|_| Region::new()).collect(),
            io: RwLock::new(HashMap::new()),
            free_budget: AtomicUsize::new(capacity),
            capacity,
            next_table: AtomicU64::new(1),
        }
    }

    /// The configured page budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of independent clock regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of pages currently resident (across all tables and regions).
    pub fn resident_pages(&self) -> usize {
        self.capacity - self.free_budget.load(Ordering::Acquire).min(self.capacity)
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.io.read().len()
    }

    /// Occupancy and effectiveness counters, aggregated over every region.
    pub fn stats(&self) -> BufferPoolStats {
        let mut stats = BufferPoolStats {
            capacity: self.capacity,
            ..BufferPoolStats::default()
        };
        for region in &self.regions {
            let inner = region.inner.lock();
            stats.hits += inner.counters.hits;
            stats.misses += inner.counters.misses;
            stats.evictions += inner.counters.evictions;
            stats.writebacks += inner.counters.writebacks;
            stats.resident_pages += inner.frames.len();
            stats.contended += region.contended.load(Ordering::Relaxed);
        }
        stats
    }

    /// Per-region occupancy and effectiveness counters.
    pub fn region_stats(&self) -> Vec<RegionStats> {
        self.regions
            .iter()
            .enumerate()
            .map(|(index, region)| {
                let inner = region.inner.lock();
                RegionStats {
                    region: index,
                    resident_pages: inner.frames.len(),
                    hits: inner.counters.hits,
                    misses: inner.counters.misses,
                    evictions: inner.counters.evictions,
                    writebacks: inner.counters.writebacks,
                    contended: region.contended.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Registers a table's page I/O, returning the id to address its pages with.
    pub fn register_table(&self, io: Box<dyn PageIo + Send>) -> TableId {
        let table = self.next_table.fetch_add(1, Ordering::Relaxed);
        self.io.write().insert(table, Arc::new(Mutex::new(io)));
        table
    }

    /// Deregisters a table: its resident frames are discarded *without* write-back
    /// (flush first via [`flush_table`](Self::flush_table) if the pages matter) and its
    /// I/O handle is dropped.
    pub fn release_table(&self, table: TableId) {
        self.io.write().remove(&table);
        for region in &self.regions {
            let mut inner = region.inner.lock();
            let mut idx = 0;
            while idx < inner.frames.len() {
                if inner.frames[idx].table == table {
                    inner.remove_frame(idx);
                    self.free_budget.fetch_add(1, Ordering::Release);
                } else {
                    idx += 1;
                }
            }
        }
    }

    /// Number of pins currently held on `(table, id)` (0 when not resident).
    pub fn pin_count(&self, table: TableId, id: PageId) -> u32 {
        let inner = self.regions[self.region_of(table, id)].inner.lock();
        inner
            .resident
            .get(&(table, id))
            .map(|&idx| inner.frames[idx].pins.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// Makes page `(table, id)` resident (reading through the table's I/O on a miss) and
    /// pins it.
    ///
    /// Every successful `pin` must be paired with an [`unpin`](Self::unpin); while pinned
    /// the page cannot be evicted. Fails when every frame is pinned and none can be
    /// reclaimed (pool capacity exhausted by concurrent pins).
    pub fn pin(&self, table: TableId, id: PageId) -> GsnResult<()> {
        // `acquire` leaves one pin held — that pin *is* the caller's pin.
        self.acquire(table, id, None).map(|_| ())
    }

    /// Releases one pin on `(table, id)`; `dirty` marks the page as modified.
    pub fn unpin(&self, table: TableId, id: PageId, dirty: bool) {
        let inner = self.regions[self.region_of(table, id)].inner.lock();
        if let Some(&idx) = inner.resident.get(&(table, id)) {
            let cell = &inner.frames[idx];
            if dirty {
                cell.dirty.store(true, Ordering::Release);
            }
            debug_assert!(
                cell.pins.load(Ordering::Acquire) > 0,
                "unpin without pin on page {id}"
            );
            let _ = cell
                .pins
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |pins| {
                    Some(pins.saturating_sub(1))
                });
        }
    }

    /// Reads page `(table, id)` through the pool and hands a borrow to `read`.
    ///
    /// The callback runs outside every region lock, holding only the frame's shared
    /// page latch: concurrent accesses to other pages proceed in parallel.
    pub fn with_page<T>(
        &self,
        table: TableId,
        id: PageId,
        read: impl FnOnce(&Page) -> T,
    ) -> GsnResult<T> {
        let cell = self.acquire(table, id, None)?;
        let out = {
            let page = cell.page.read();
            if cell.poisoned.load(Ordering::Acquire) {
                drop(page);
                cell.release_pin();
                return Err(GsnError::storage(format!(
                    "page {id} of table {table} failed to load"
                )));
            }
            read(&page)
        };
        cell.release_pin();
        Ok(out)
    }

    /// Pins page `(table, id)` for writing and applies `mutate` to it, marking it dirty.
    ///
    /// This is the pool's write path: the mutation happens inside the frame, write-back
    /// to disk is deferred to eviction or [`flush_table`](Self::flush_table).  The
    /// callback runs outside every region lock, holding the frame's exclusive page
    /// latch.
    pub fn with_page_mut<T>(
        &self,
        table: TableId,
        id: PageId,
        mutate: impl FnOnce(&mut Page) -> T,
    ) -> GsnResult<T> {
        let cell = self.acquire(table, id, None)?;
        let out = {
            let mut page = cell.page.write();
            if cell.poisoned.load(Ordering::Acquire) {
                drop(page);
                cell.release_pin();
                return Err(GsnError::storage(format!(
                    "page {id} of table {table} failed to load"
                )));
            }
            let out = mutate(&mut page);
            cell.dirty.store(true, Ordering::Release);
            out
        };
        cell.release_pin();
        Ok(out)
    }

    /// Installs a brand-new page (not yet on disk) as resident and dirty, without a read.
    pub fn install(&self, table: TableId, id: PageId, page: Page) -> GsnResult<()> {
        let cell = self.acquire(table, id, Some(page))?;
        cell.dirty.store(true, Ordering::Release);
        cell.release_pin();
        Ok(())
    }

    /// Writes one page back through the table's I/O if it is resident and dirty.
    pub fn flush_page(&self, table: TableId, id: PageId) -> GsnResult<()> {
        let region = &self.regions[self.region_of(table, id)];
        let cell = {
            let inner = region.inner.lock();
            inner
                .resident
                .get(&(table, id))
                .map(|&idx| Arc::clone(&inner.frames[idx]))
        };
        if let Some(cell) = cell {
            if self.write_back(&cell)? {
                region.inner.lock().counters.writebacks += 1;
            }
        }
        Ok(())
    }

    /// Writes every dirty frame of `table` back through its I/O.
    pub fn flush_table(&self, table: TableId) -> GsnResult<()> {
        for region in &self.regions {
            let mut inner = region.inner.lock();
            for idx in 0..inner.frames.len() {
                if inner.frames[idx].table == table {
                    let cell = Arc::clone(&inner.frames[idx]);
                    if self.write_back(&cell)? {
                        inner.counters.writebacks += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Drops a page from the pool (when its table region is pruned) without write-back.
    pub fn discard(&self, table: TableId, id: PageId) {
        let mut inner = self.regions[self.region_of(table, id)].inner.lock();
        if let Some(&idx) = inner.resident.get(&(table, id)) {
            inner.remove_frame(idx);
            self.free_budget.fetch_add(1, Ordering::Release);
        }
    }

    // -----------------------------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------------------------

    /// Maps a page address to its clock region.  `table` is folded in with a
    /// multiplicative hash so two tables' page 0 spread across regions, while one
    /// table's sequential page ids stripe round-robin.
    fn region_of(&self, table: TableId, id: PageId) -> usize {
        let mixed = u64::from(id).wrapping_add(table.wrapping_mul(0x9E37_79B9));
        (mixed % self.regions.len() as u64) as usize
    }

    /// Claims one slot of the global frame budget, if any remain.
    fn take_budget(&self) -> bool {
        let mut free = self.free_budget.load(Ordering::Relaxed);
        while free > 0 {
            match self.free_budget.compare_exchange_weak(
                free,
                free - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => free = actual,
            }
        }
        false
    }

    /// Writes `cell` back through its table's I/O if dirty, returning whether a write
    /// happened.  The dirty bit is claimed *before* the write so a concurrent mutation
    /// re-dirties the frame rather than being lost; on failure the claim is returned.
    fn write_back(&self, cell: &FrameCell) -> GsnResult<bool> {
        if !cell.dirty.swap(false, Ordering::AcqRel) {
            return Ok(false);
        }
        let io = self.io.read().get(&cell.table).cloned().ok_or_else(|| {
            GsnError::internal(format!("buffer pool has no I/O for table {}", cell.table))
        })?;
        let page = cell.page.read();
        if let Err(err) = io.lock().write_page(cell.id, &page) {
            cell.dirty.store(true, Ordering::Release);
            return Err(err);
        }
        Ok(true)
    }

    /// Clock (second-chance) eviction within one region: sweep its frames, clearing
    /// reference bits; reclaim the first unpinned, unreferenced frame.  Dirty victims
    /// are written back through their owning table's I/O first.  Returns the freed slot
    /// index, or `None` when every frame of the region is pinned.
    fn evict_in(&self, inner: &mut RegionInner) -> GsnResult<Option<usize>> {
        // Two full sweeps guarantee progress: the first clears reference bits, the
        // second must find an unpinned frame unless every frame is pinned.
        for _ in 0..inner.frames.len() * 2 {
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % inner.frames.len();
            let cell = Arc::clone(&inner.frames[idx]);
            if cell.pins.load(Ordering::Acquire) > 0 {
                continue;
            }
            if cell.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            if self.write_back(&cell)? {
                inner.counters.writebacks += 1;
            }
            inner.resident.remove(&(cell.table, cell.id));
            inner.counters.evictions += 1;
            return Ok(Some(idx));
        }
        Ok(None)
    }

    /// Finds or creates the frame for `(table, id)`, returning it with one pin held.
    /// `fresh` installs the given page content instead of reading from the table's I/O.
    fn acquire(
        &self,
        table: TableId,
        id: PageId,
        fresh: Option<Page>,
    ) -> GsnResult<Arc<FrameCell>> {
        let target = self.region_of(table, id);
        // Create the candidate cell and take its page latch *before* publishing, so a
        // concurrent hit on the half-loaded frame blocks on the latch instead of
        // observing an empty page.
        let cell = Arc::new(FrameCell::new(table, id));
        let mut latch = cell.page.write();

        // Fast path: one region lock — resident hit, free budget, or local eviction.
        let placed = {
            let mut inner = self.regions[target].lock_counted();
            if let Some(&idx) = inner.resident.get(&(table, id)) {
                let hit = Arc::clone(&inner.frames[idx]);
                hit.pins.fetch_add(1, Ordering::AcqRel);
                hit.referenced.store(true, Ordering::Relaxed);
                inner.counters.hits += 1;
                Some(Placed::Hit(hit))
            } else if self.take_budget() {
                inner.counters.misses += 1;
                inner.publish(&cell, None);
                Some(Placed::Ours)
            } else if let Some(slot) = self.evict_in(&mut inner)? {
                inner.counters.misses += 1;
                inner.publish(&cell, Some(slot));
                Some(Placed::Ours)
            } else {
                None // region exhausted: fall through to the cross-region slow path
            }
        };
        let placed = match placed {
            Some(placed) => placed,
            None => self.acquire_slow(target, &cell)?,
        };

        match placed {
            Placed::Hit(hit) => {
                drop(latch); // our candidate cell is discarded untouched
                if let Some(page) = fresh {
                    // Install over a resident frame: replace the contents in place.
                    *hit.page.write() = page;
                }
                Ok(hit)
            }
            Placed::Ours => {
                let filled = match fresh {
                    Some(page) => {
                        *latch = page;
                        Ok(())
                    }
                    None => self
                        .io
                        .read()
                        .get(&table)
                        .cloned()
                        .ok_or_else(|| {
                            GsnError::internal(format!("buffer pool has no I/O for table {table}"))
                        })
                        .and_then(|io| io.lock().read_page(id))
                        .map(|page| *latch = page),
                };
                if let Err(err) = filled {
                    // Unwind the published frame: poison it for accessors that raced
                    // the load, drop it from the region and return the budget slot.
                    cell.poisoned.store(true, Ordering::Release);
                    drop(latch);
                    let mut inner = self.regions[target].inner.lock();
                    if let Some(&idx) = inner.resident.get(&(table, id)) {
                        if Arc::ptr_eq(&inner.frames[idx], &cell) {
                            inner.remove_frame_unchecked(idx);
                            self.free_budget.fetch_add(1, Ordering::Release);
                        }
                    }
                    return Err(err);
                }
                drop(latch);
                Ok(cell)
            }
        }
    }

    /// Cross-region slow path: taken when the target region has no budget and every
    /// local frame is pinned.  Locks all regions (ascending — the only multi-region
    /// lock order) and either finds the page resident, claims late budget, or steals a
    /// frame from any region; fails only when every frame in the pool is pinned.
    fn acquire_slow(&self, target: usize, cell: &Arc<FrameCell>) -> GsnResult<Placed> {
        let mut guards: Vec<MutexGuard<'_, RegionInner>> = self
            .regions
            .iter()
            .map(|region| region.inner.lock())
            .collect();
        let key = (cell.table, cell.id);
        if let Some(&idx) = guards[target].resident.get(&key) {
            let hit = Arc::clone(&guards[target].frames[idx]);
            hit.pins.fetch_add(1, Ordering::AcqRel);
            hit.referenced.store(true, Ordering::Relaxed);
            guards[target].counters.hits += 1;
            return Ok(Placed::Hit(hit));
        }
        guards[target].counters.misses += 1;
        if self.take_budget() {
            guards[target].publish(cell, None);
            return Ok(Placed::Ours);
        }
        // Victim search over every region: first pass honours reference bits (clearing
        // them), the second takes any unpinned frame.
        let mut victim = None;
        'search: for pass in 0..2 {
            for (index, inner) in guards.iter().enumerate() {
                for offset in 0..inner.frames.len() {
                    let idx = (inner.hand + offset) % inner.frames.len();
                    let frame = &inner.frames[idx];
                    if frame.pins.load(Ordering::Acquire) > 0 {
                        continue;
                    }
                    if pass == 0 && frame.referenced.swap(false, Ordering::Relaxed) {
                        continue;
                    }
                    victim = Some((index, idx));
                    break 'search;
                }
            }
        }
        let Some((region, idx)) = victim else {
            return Err(GsnError::resource_exhausted(
                "buffer pool exhausted: every frame is pinned",
            ));
        };
        let evicted = Arc::clone(&guards[region].frames[idx]);
        if self.write_back(&evicted)? {
            guards[region].counters.writebacks += 1;
        }
        guards[region].counters.evictions += 1;
        guards[region].remove_frame(idx);
        guards[target].publish(cell, None);
        Ok(Placed::Ours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use std::sync::Arc;

    /// An in-memory "disk" for exercising the pool; cloneable so tests can inspect the
    /// half that was boxed into the pool.
    #[derive(Default, Clone)]
    struct FakeDisk {
        inner: Arc<Mutex<FakeDiskInner>>,
    }

    #[derive(Default)]
    struct FakeDiskInner {
        pages: HashMap<PageId, Page>,
        reads: u64,
        writes: u64,
    }

    impl FakeDisk {
        fn reads(&self) -> u64 {
            self.inner.lock().reads
        }

        fn writes(&self) -> u64 {
            self.inner.lock().writes
        }

        fn page(&self, id: PageId) -> Option<Page> {
            self.inner.lock().pages.get(&id).cloned()
        }
    }

    impl PageIo for FakeDisk {
        fn read_page(&mut self, id: PageId) -> GsnResult<Page> {
            let mut inner = self.inner.lock();
            inner.reads += 1;
            inner
                .pages
                .get(&id)
                .cloned()
                .ok_or_else(|| GsnError::storage(format!("no such page {id}")))
        }

        fn write_page(&mut self, id: PageId, page: &Page) -> GsnResult<()> {
            let mut inner = self.inner.lock();
            inner.writes += 1;
            inner.pages.insert(id, page.clone());
            Ok(())
        }
    }

    fn disk_with_pages(n: u32) -> FakeDisk {
        let disk = FakeDisk::default();
        for id in 0..n {
            let mut page = Page::new();
            page.append(&id.to_le_bytes()).unwrap();
            disk.inner.lock().pages.insert(id, page);
        }
        disk
    }

    fn pool_with_disk(capacity: usize, pages: u32) -> (SharedBufferPool, FakeDisk, TableId) {
        let disk = disk_with_pages(pages);
        let pool = SharedBufferPool::new(capacity);
        let table = pool.register_table(Box::new(disk.clone()));
        (pool, disk, table)
    }

    #[test]
    fn hits_avoid_disk_reads() {
        let (pool, disk, t) = pool_with_disk(4, 4);
        for _ in 0..3 {
            pool.with_page(t, 2, |p| assert_eq!(p.record_count(), 1))
                .unwrap();
        }
        assert_eq!(disk.reads(), 1);
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let (pool, _disk, t) = pool_with_disk(8, 64);
        for id in 0..64 {
            pool.with_page(t, id, |_| ()).unwrap();
            assert!(pool.resident_pages() <= 8);
        }
        assert_eq!(pool.resident_pages(), 8);
        assert_eq!(pool.stats().evictions, 56);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let (pool, disk, t) = pool_with_disk(4, 32);
        pool.pin(t, 0).unwrap();
        for id in 1..32 {
            pool.with_page(t, id, |_| ()).unwrap();
        }
        // Page 0 is still resident and readable without a disk read.
        let reads_before = disk.reads();
        pool.with_page(t, 0, |p| {
            assert_eq!(p.record(0), Some(&0u32.to_le_bytes()[..]))
        })
        .unwrap();
        assert_eq!(disk.reads(), reads_before);
        pool.unpin(t, 0, false);
    }

    #[test]
    fn all_pinned_fails_cleanly() {
        let (pool, _disk, t) = pool_with_disk(2, 4);
        pool.pin(t, 0).unwrap();
        pool.pin(t, 1).unwrap();
        assert!(pool.pin(t, 2).is_err());
        pool.unpin(t, 1, false);
        assert!(pool.pin(t, 2).is_ok());
    }

    #[test]
    fn dirty_pages_are_written_back_on_eviction_and_flush() {
        let (pool, disk, t) = pool_with_disk(2, 8);
        pool.with_page_mut(t, 0, |p| {
            p.append(b"mutated").unwrap();
        })
        .unwrap();
        // Force page 0 out.
        for id in 1..8 {
            pool.with_page(t, id, |_| ()).unwrap();
        }
        assert!(disk.page(0).unwrap().record(1).is_some());
        // Flushing the table writes remaining dirty frames.
        pool.with_page_mut(t, 7, |p| {
            p.append(b"also").unwrap();
        })
        .unwrap();
        pool.flush_table(t).unwrap();
        assert!(disk.page(7).unwrap().record(1).is_some());
        assert!(pool.stats().writebacks >= 2);
    }

    #[test]
    fn install_skips_the_initial_read() {
        let (pool, disk, t) = pool_with_disk(2, 0);
        let mut page = Page::new();
        page.append(b"new").unwrap();
        pool.install(t, 9, page).unwrap();
        assert_eq!(disk.reads(), 0);
        pool.with_page(t, 9, |p| assert_eq!(p.record(0), Some(&b"new"[..])))
            .unwrap();
        pool.flush_table(t).unwrap();
        assert!(disk.page(9).is_some());
    }

    #[test]
    fn discard_forgets_a_page() {
        let (pool, disk, t) = pool_with_disk(3, 3);
        for id in 0..3 {
            pool.with_page(t, id, |_| ()).unwrap();
        }
        pool.discard(t, 1);
        assert_eq!(pool.resident_pages(), 2);
        assert_eq!(pool.pin_count(t, 1), 0);
        // Re-reading goes to disk again.
        let reads_before = disk.reads();
        pool.with_page(t, 1, |_| ()).unwrap();
        assert_eq!(disk.reads(), reads_before + 1);
    }

    #[test]
    fn eviction_crosses_table_boundaries() {
        let disk_a = disk_with_pages(16);
        let disk_b = disk_with_pages(16);
        let pool = SharedBufferPool::new(4);
        let a = pool.register_table(Box::new(disk_a.clone()));
        let b = pool.register_table(Box::new(disk_b.clone()));
        assert_eq!(pool.table_count(), 2);
        // Table A fills the pool, including a dirty page.
        pool.with_page_mut(a, 0, |p| {
            p.append(b"dirty-a").unwrap();
        })
        .unwrap();
        for id in 1..4 {
            pool.with_page(a, id, |_| ()).unwrap();
        }
        assert_eq!(pool.resident_pages(), 4);
        // Table B steals every frame; A's dirty page reaches A's disk on the way out.
        for id in 0..4 {
            pool.with_page(b, id, |_| ()).unwrap();
        }
        assert_eq!(pool.resident_pages(), 4);
        assert!(disk_a.page(0).unwrap().record(1).is_some());
        assert!(disk_b.writes() == 0);
        // The budget is global: both tables together never exceeded 4 frames.
        assert!(pool.stats().evictions >= 4);
    }

    #[test]
    fn release_table_discards_frames_and_io() {
        let (pool, disk, t) = pool_with_disk(4, 8);
        pool.with_page_mut(t, 0, |p| {
            p.append(b"gone").unwrap();
        })
        .unwrap();
        pool.with_page(t, 1, |_| ()).unwrap();
        pool.release_table(t);
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.table_count(), 0);
        // No write-back happened: release drops frames cold.
        assert!(disk.page(0).unwrap().record(1).is_none());
        // The table id is no longer addressable.
        assert!(pool.with_page(t, 1, |_| ()).is_err());
    }

    #[test]
    fn frames_hold_full_pages() {
        // Sanity: a frame's memory footprint is the page itself, so capacity bounds RAM.
        assert_eq!(std::mem::size_of::<Page>(), std::mem::size_of::<usize>());
        let page = Page::new();
        assert_eq!(page.as_bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn regions_are_clamped_to_capacity() {
        let pool = SharedBufferPool::new(1);
        assert_eq!(pool.region_count(), 1);
        let pool = SharedBufferPool::with_regions(64, 4);
        assert_eq!(pool.region_count(), 4);
        let pool = SharedBufferPool::with_regions(64, 0);
        assert_eq!(pool.region_count(), 1);
    }

    #[test]
    fn sequential_pages_stripe_across_regions() {
        let (pool, _disk, t) = pool_with_disk(16, 16);
        for id in 0..16 {
            pool.with_page(t, id, |_| ()).unwrap();
        }
        let per_region = pool.region_stats();
        assert_eq!(per_region.len(), 8);
        // 16 sequential pages over 8 regions: exactly 2 resident in each.
        for stats in &per_region {
            assert_eq!(stats.resident_pages, 2, "region {}", stats.region);
        }
        // Region counters aggregate to the pool-wide snapshot.
        let total = pool.stats();
        assert_eq!(
            per_region.iter().map(|r| r.misses).sum::<u64>(),
            total.misses
        );
        assert_eq!(
            per_region.iter().map(|r| r.resident_pages).sum::<usize>(),
            total.resident_pages
        );
    }

    #[test]
    fn exhausted_region_steals_from_siblings() {
        // 4 regions, budget 4.  Pin the only frame of one region, then demand a second
        // frame in that region: the pool must steal capacity from a sibling region
        // rather than fail.
        let (pool, _disk, t) = pool_with_disk(4, 16);
        for id in 0..4 {
            pool.with_page(t, id, |_| ()).unwrap();
        }
        pool.pin(t, 0).unwrap();
        let stolen = pool.region_of(t, 0);
        // Page 4k maps to the same region as page k (stripe width = region count).
        let same_region_id = pool.region_count() as u32;
        assert_eq!(pool.region_of(t, same_region_id), stolen);
        pool.with_page(t, same_region_id, |_| ()).unwrap();
        assert!(pool.pin_count(t, 0) == 1, "pinned page survived the steal");
        assert_eq!(pool.resident_pages(), 4);
        pool.unpin(t, 0, false);
    }

    #[test]
    fn contended_counter_stays_zero_single_threaded() {
        let (pool, _disk, t) = pool_with_disk(8, 8);
        for id in 0..8 {
            pool.with_page(t, id, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().contended, 0);
    }

    #[test]
    fn failed_read_unwinds_the_frame() {
        // Page 5 does not exist on disk: the miss must fail, free its budget slot and
        // leave the pool fully usable.
        let (pool, _disk, t) = pool_with_disk(2, 2);
        assert!(pool.with_page(t, 5, |_| ()).is_err());
        assert_eq!(pool.resident_pages(), 0);
        pool.with_page(t, 0, |_| ()).unwrap();
        pool.with_page(t, 1, |_| ()).unwrap();
        assert_eq!(pool.resident_pages(), 2);
    }
}
