//! The resident store: every memory table's elements in a vector, with an optional cold
//! prefix spilled to a persistent segment store.
//!
//! [`ResidentBackend`] is the only in-memory [`StorageBackend`].  Built with
//! [`ResidentBackend::default`] it is a plain memory table: exact retention, window
//! starts resolved by arithmetic on sequences, nothing on disk.  Built with
//! [`ResidentBackend::spilling`] it also bounds its resident footprint, for windows like
//! `storage-size="30d"` that hold weeks of history far beyond RAM: the newest elements
//! stay in the vector (the hot path — window tails, `LatestOnly`, small count windows —
//! never touches disk), and once the resident bytes exceed the configured budget the
//! oldest half is moved into a [`PersistentBackend`] cache store shared with the
//! container's buffer pool.
//!
//! Scans are seamless across the spilled/resident boundary.  Sequences are assigned
//! contiguously by the owning [`crate::StreamTable`], and elements spill strictly in
//! order, so a cursor is just an inclusive sequence range: each batch is served from
//! the segment store while `next_seq` lies below its high-water mark and from the
//! resident vector above it — re-resolved per pull, so concurrent spilling, pruning
//! and segment reclamation between batches never invalidate a cursor.
//!
//! The cold store is a *cache of live stream data*: it is opened with
//! [`PersistentBackend::open_cache`], which has no write-ahead log, and any files left
//! by a previous incarnation are wiped at creation — a restarted container rebuilds the
//! window from scratch, exactly like a plain memory table.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gsn_types::{GsnError, GsnResult, StreamElement, StreamSchema, Timestamp};

use crate::backend::{
    sanitize_file_name, BackendKind, PersistentBackend, PersistentOptions, ScanBounds, ScanState,
    ScanStateInner, StorageBackend,
};
use crate::buffer::BufferPoolStats;
use crate::retention::{DiskUsage, ReclaimStats};
use crate::segment::SegmentedHeap;
use crate::window::WindowSpec;

/// Upper bound on elements per batch handed out by a resident scan cursor (persistent
/// cursors batch by page instead: one buffer-pool page per call).
const RESIDENT_SCAN_BATCH: usize = 1024;

/// Tuning for a disk-spilled window table.
#[derive(Debug, Clone)]
pub struct SpillOptions {
    /// Resident-memory budget in payload bytes: exceeding it moves the oldest half of
    /// the resident elements into the segment store.
    pub budget_bytes: usize,
    /// Segment-store tuning (pool sharing, segment size).  The log settings are
    /// unused — the cache store has no log.
    pub persistent: PersistentOptions,
}

impl SpillOptions {
    /// Spill options with the given resident budget and default store tuning.
    pub fn with_budget(budget_bytes: usize) -> SpillOptions {
        SpillOptions {
            budget_bytes,
            persistent: PersistentOptions::default(),
        }
    }
}

/// Where and when a spilling table moves its cold prefix.
struct Spill {
    dir: PathBuf,
    /// The cold store's name (`<table>__spill`).
    store: String,
    schema: Arc<StreamSchema>,
    options: SpillOptions,
}

/// A stream table whose hot tail stays resident and whose cold prefix, when spilling is
/// configured, lives in a persistent cache store (see the module docs).
#[derive(Default)]
pub struct ResidentBackend {
    /// The hot tail, oldest first; all elements newer than everything in `cold`.
    resident: Vec<StreamElement>,
    resident_bytes: usize,
    /// `None` keeps every element resident (a plain memory table).
    spill: Option<Spill>,
    /// The cold prefix; created lazily at the first spill.
    cold: Option<PersistentBackend>,
    /// Lifetime count of elements moved to disk.
    spilled_rows: u64,
    /// Lifetime count of migration passes (batched spills of the cold prefix).
    spill_migrations: u64,
}

impl fmt::Debug for ResidentBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ResidentBackend({} resident, {} B",
            self.resident.len(),
            self.resident_bytes
        )?;
        if let Some(spill) = &self.spill {
            write!(
                f,
                "; {}: {} B budget, {} cold, {} spilled",
                spill.store,
                spill.options.budget_bytes,
                self.cold_live(),
                self.spilled_rows
            )?;
        }
        write!(f, ")")
    }
}

impl ResidentBackend {
    /// Creates a spill-capable table rooted at `dir`.  Stale spill files from a
    /// previous incarnation are wiped immediately (the window starts empty).
    pub fn spilling(
        dir: &Path,
        name: &str,
        schema: Arc<StreamSchema>,
        options: SpillOptions,
    ) -> GsnResult<ResidentBackend> {
        std::fs::create_dir_all(dir)
            .map_err(|e| GsnError::storage(format!("cannot create data directory {dir:?}: {e}")))?;
        let store = format!("{name}__spill");
        SegmentedHeap::wipe(dir, &sanitize_file_name(&store))?;
        Ok(ResidentBackend {
            spill: Some(Spill {
                dir: dir.to_owned(),
                store,
                schema,
                options,
            }),
            ..ResidentBackend::default()
        })
    }

    /// Lifetime count of elements moved to the segment store.
    pub fn spilled_rows(&self) -> u64 {
        self.spilled_rows
    }

    /// Lifetime count of migration passes.
    pub fn migrations(&self) -> u64 {
        self.spill_migrations
    }

    /// Elements currently resident in memory.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    fn cold_live(&self) -> usize {
        self.cold.as_ref().map(|c| c.len()).unwrap_or(0)
    }

    fn drop_resident_front(&mut self, count: usize) {
        for e in &self.resident[..count] {
            self.resident_bytes = self.resident_bytes.saturating_sub(e.size_bytes());
        }
        self.resident.drain(..count);
    }

    /// Moves the oldest resident elements into the segment store until the resident
    /// bytes drop to half the budget (hysteresis: spilling happens in batches, not per
    /// insert).
    fn spill_cold_prefix(&mut self) -> GsnResult<()> {
        let Some(spill) = &self.spill else {
            return Ok(());
        };
        let target = spill.options.budget_bytes / 2;
        if self.cold.is_none() {
            self.cold = Some(PersistentBackend::open_cache(
                &spill.dir,
                &spill.store,
                Arc::clone(&spill.schema),
                spill.options.persistent.clone(),
            )?);
        }
        let cold = self.cold.as_mut().expect("cold store created");
        let mut moved = 0usize;
        let mut moved_bytes = 0usize;
        let mut failure = None;
        for element in &self.resident {
            if self.resident_bytes - moved_bytes <= target || moved + 1 >= self.resident.len() {
                break;
            }
            match cold.append(element) {
                Ok(()) => {
                    moved += 1;
                    moved_bytes += element.size_bytes();
                }
                // Stop at the first failure but still account for everything appended
                // so far — the rows that did reach the cold store MUST leave the
                // resident vector, or they would exist on both sides forever.
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.spilled_rows += moved as u64;
        if moved > 0 {
            self.spill_migrations += 1;
        }
        self.drop_resident_front(moved);
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The sequence of the first element selected by a time window at `now`, looking
    /// across the spilled/resident boundary (`None` = nothing selected).
    fn first_selected_by_time(
        &self,
        window: WindowSpec,
        now: Timestamp,
        cutoff: Timestamp,
    ) -> GsnResult<Option<u64>> {
        if let Some(cold) = &self.cold {
            if cold.len() > 0 {
                let mut state = cold.open_scan(window, now, &ScanBounds::default())?;
                if let Some(batch) = cold.scan_next(&mut state)? {
                    if let Some(first) = batch.first() {
                        return Ok(Some(first.sequence()));
                    }
                }
            }
        }
        let start = self.resident.partition_point(|e| e.timestamp() < cutoff);
        Ok(self.resident.get(start).map(StreamElement::sequence))
    }
}

impl StorageBackend for ResidentBackend {
    fn kind(&self) -> BackendKind {
        match self.spill {
            Some(_) => BackendKind::Spilled,
            None => BackendKind::Memory,
        }
    }

    fn spill_stats(&self) -> Option<(u64, u64)> {
        self.spill
            .as_ref()
            .map(|_| (self.spill_migrations, self.spilled_rows))
    }

    fn append(&mut self, element: &StreamElement) -> GsnResult<()> {
        self.resident_bytes += element.size_bytes();
        self.resident.push(element.clone());
        if let Some(spill) = &self.spill {
            if self.resident_bytes > spill.options.budget_bytes {
                self.spill_cold_prefix()?;
            }
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.cold_live() + self.resident.len()
    }

    fn last(&self) -> Option<StreamElement> {
        self.resident
            .last()
            .cloned()
            .or_else(|| self.cold.as_ref().and_then(|c| c.last()))
    }

    fn first_timestamp(&self) -> GsnResult<Option<Timestamp>> {
        if let Some(cold) = &self.cold {
            if cold.len() > 0 {
                return cold.first_timestamp();
            }
        }
        Ok(self.resident.first().map(StreamElement::timestamp))
    }

    fn retained_bytes(&self) -> usize {
        self.resident_bytes + self.cold.as_ref().map(|c| c.retained_bytes()).unwrap_or(0)
    }

    fn max_sequence(&self) -> u64 {
        self.resident
            .last()
            .map(StreamElement::sequence)
            .or_else(|| self.cold.as_ref().map(|c| c.max_sequence()))
            .unwrap_or(0)
    }

    fn open_scan(
        &self,
        window: WindowSpec,
        now: Timestamp,
        bounds: &ScanBounds,
    ) -> GsnResult<ScanState> {
        let total = self.len() as u64;
        if total == 0 {
            return Ok(ScanState::empty());
        }
        let mut end_seq = self.max_sequence();
        let first_live = self
            .first_sequence()?
            .expect("non-empty table has a first sequence");
        let mut next_seq = match window {
            WindowSpec::Count(0) => return Ok(ScanState::empty()),
            WindowSpec::Count(n) if (n as u64) >= total => first_live,
            // Sequences are contiguous across the boundary (the table assigns them
            // densely and elements spill in order), so the trailing-n start is pure
            // arithmetic — no page is touched to open the cursor.
            WindowSpec::Count(n) => first_live.max(end_seq + 1 - n as u64),
            WindowSpec::LatestOnly => end_seq,
            WindowSpec::Time(d) => {
                let cutoff = now.saturating_sub(d);
                match self.first_selected_by_time(window, now, cutoff)? {
                    Some(seq) => seq,
                    None => return Ok(ScanState::empty()),
                }
            }
        };
        // The hybrid cursor is tracked purely by sequence, so primary-key bounds
        // clamp the range before a single resident element is cloned or a cold
        // page is pinned.  Timestamp bounds stay with the executor's re-filter.
        if let Some(min_seq) = bounds.min_seq {
            next_seq = next_seq.max(min_seq);
        }
        if let Some(max_seq) = bounds.max_seq {
            end_seq = end_seq.min(max_seq);
        }
        // Sequences are dense inside the live range, so a limit hint turns into an
        // exact upper sequence bound — but only when no timestamp bound rides along
        // (those drop rows after the cursor, so capping here could starve the
        // consumer).
        if let (Some(limit), None, None) = (bounds.limit, bounds.min_ts, bounds.max_ts) {
            if limit == 0 {
                return Ok(ScanState::empty());
            }
            end_seq = end_seq.min(next_seq.saturating_add(limit - 1));
        }
        Ok(ScanState::sequence_range(next_seq, end_seq))
    }

    fn first_sequence(&self) -> GsnResult<Option<u64>> {
        if let Some(cold) = &self.cold {
            if cold.len() > 0 {
                return cold.first_sequence();
            }
        }
        Ok(self.resident.first().map(StreamElement::sequence))
    }

    fn scan_next(&self, state: &mut ScanState) -> GsnResult<Option<Vec<StreamElement>>> {
        match &mut state.0 {
            ScanStateInner::Empty => Ok(None),
            ScanStateInner::Rows { .. } => Err(GsnError::storage(
                "page scan state handed to a resident backend",
            )),
            ScanStateInner::Sequence { next_seq, end_seq } => {
                if *next_seq > *end_seq {
                    return Ok(None);
                }
                // Cold first: the store's high-water mark moves up as elements spill
                // between pulls, so this re-check per batch is what makes the cursor
                // seamless across the boundary.
                if let Some(cold) = &self.cold {
                    if cold.len() > 0 && cold.max_sequence() >= *next_seq {
                        let mut sub = cold.open_sequence_range(*next_seq, *end_seq);
                        if let Some(batch) = cold.scan_next(&mut sub)? {
                            if let Some(last) = batch.last() {
                                *next_seq = last.sequence() + 1;
                            }
                            return Ok(Some(batch));
                        }
                    }
                }
                let start = self.resident.partition_point(|e| e.sequence() < *next_seq);
                let rest = &self.resident[start..];
                let len = rest
                    .partition_point(|e| e.sequence() <= *end_seq)
                    .min(RESIDENT_SCAN_BATCH);
                // An exact-size copy: the vector's capacity is the batch, never more.
                let batch: Vec<StreamElement> = rest[..len].to_vec();
                match batch.last() {
                    Some(last) => {
                        *next_seq = last.sequence() + 1;
                        Ok(Some(batch))
                    }
                    None => Ok(None),
                }
            }
        }
    }

    fn prune_to_elements(&mut self, keep: usize) -> GsnResult<u64> {
        if self.len() <= keep {
            return Ok(0);
        }
        let mut pruned = 0u64;
        if self.resident.len() >= keep {
            // Every kept row is resident: logically empty the cold store, then prune
            // the resident vector exactly — but only once the cold store really is
            // empty, so no middle rows ever vanish while older ones survive.
            if let Some(cold) = &mut self.cold {
                pruned += cold.prune_to_elements(0)?;
            }
            if self.cold_live() == 0 {
                let drop = self.resident.len() - keep;
                self.drop_resident_front(drop);
                pruned += drop as u64;
            }
        } else if let Some(cold) = &mut self.cold {
            pruned += cold.prune_to_elements(keep - self.resident.len())?;
        }
        Ok(pruned)
    }

    fn prune_horizon(&mut self, cutoff: Timestamp, min_keep: usize) -> GsnResult<u64> {
        let mut pruned = 0u64;
        let resident_len = self.resident.len();
        if let Some(cold) = &mut self.cold {
            pruned += cold.prune_horizon(cutoff, min_keep.saturating_sub(resident_len))?;
        }
        if self.cold_live() == 0 {
            let by_time = self.resident.partition_point(|e| e.timestamp() < cutoff);
            let drop = by_time.min(self.resident.len().saturating_sub(min_keep));
            if drop > 0 {
                self.drop_resident_front(drop);
                pruned += drop as u64;
            }
        }
        Ok(pruned)
    }

    fn flush(&mut self) -> GsnResult<()> {
        match &mut self.cold {
            Some(cold) => cold.flush(),
            None => Ok(()),
        }
    }

    fn reclaim(&mut self) -> GsnResult<ReclaimStats> {
        match &mut self.cold {
            Some(cold) => cold.reclaim(),
            None => Ok(ReclaimStats::default()),
        }
    }

    fn disk_usage(&self) -> Option<DiskUsage> {
        self.cold.as_ref().and_then(|c| c.disk_usage())
    }

    fn pool_stats(&self) -> Option<BufferPoolStats> {
        self.cold.as_ref().and_then(|c| c.pool_stats())
    }

    fn destroy(self: Box<Self>) -> GsnResult<()> {
        match self.cold {
            Some(cold) => Box::new(cold).destroy(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;
    use gsn_types::{DataType, Duration, Value};

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

    fn spilling(dir: &Path, budget: usize) -> ResidentBackend {
        ResidentBackend::spilling(dir, "w", schema(), SpillOptions::with_budget(budget)).unwrap()
    }

    fn values(backend: &dyn StorageBackend, window: WindowSpec, now: Timestamp) -> Vec<i64> {
        let mut state = backend
            .open_scan(window, now, &ScanBounds::default())
            .unwrap();
        drain(backend, &mut state)
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

    fn drain(backend: &dyn StorageBackend, state: &mut ScanState) -> Vec<i64> {
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
    fn spills_cold_prefix_and_scans_across_the_boundary() {
        let dir = temp_dir("spill-boundary");
        let s = schema();
        let mut b = spilling(&dir, 4 * 1024);
        let mut mem = ResidentBackend::default();
        for i in 1..=500 {
            let e = element(&s, i, i * 10, 64);
            b.append(&e).unwrap();
            mem.append(&e).unwrap();
        }
        assert!(b.spilled_rows() > 0, "budget must have forced spilling");
        assert!(b.resident_len() < 500);
        assert_eq!(b.len(), 500);
        assert_eq!(b.max_sequence(), 500);
        assert_eq!(b.first_sequence().unwrap(), Some(1));
        assert_eq!(b.last().unwrap().sequence(), 500);
        assert_eq!(b.first_timestamp().unwrap(), Some(Timestamp(10)));

        let now = Timestamp(10_000);
        for window in [
            WindowSpec::Count(usize::MAX),
            WindowSpec::Count(500),
            WindowSpec::Count(100),
            WindowSpec::Count(3),
            WindowSpec::LatestOnly,
            WindowSpec::Time(Duration::from_millis(1_234)),
            WindowSpec::Time(Duration::from_millis(4_999)),
            WindowSpec::Time(Duration::from_millis(50_000)),
        ] {
            assert_eq!(
                values(&b, window, now),
                values(&mem, window, now),
                "{window:?}"
            );
        }
    }

    #[test]
    fn delta_cursor_crosses_the_boundary_and_survives_spilling() {
        let dir = temp_dir("spill-delta");
        let s = schema();
        let mut b = spilling(&dir, 2 * 1024);
        for i in 1..=200 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        let mut st = delta(&b, 0);
        // Pull one batch (from the cold store), then keep appending — which spills
        // formerly-resident rows the cursor has not read yet.
        let first = b.scan_next(&mut st).unwrap().unwrap();
        assert!(first[0].sequence() == 1);
        for i in 201..=400 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        let mut got: Vec<i64> = first
            .iter()
            .map(|e| e.value("V").unwrap().as_integer().unwrap())
            .collect();
        got.extend(drain(&b, &mut st));
        // The snapshot bound is 200; every one of those rows arrives exactly once.
        assert_eq!(got, (1..=200).collect::<Vec<i64>>());
        // A fresh delta scan sees the newer rows.
        let mut st = delta(&b, 200);
        assert_eq!(drain(&b, &mut st), (201..=400).collect::<Vec<i64>>());
    }

    #[test]
    fn pruning_never_leaves_gaps() {
        let dir = temp_dir("spill-prune");
        let s = schema();
        let mut b = spilling(&dir, 2 * 1024);
        for i in 1..=300 {
            b.append(&element(&s, i, i * 10, 64)).unwrap();
        }
        b.prune_to_elements(50).unwrap();
        let kept = values(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000));
        // Page-granular on the cold side: at least 50 live, contiguous, ending at 300.
        assert!(kept.len() >= 50);
        assert_eq!(kept.last().copied(), Some(300));
        let expect: Vec<i64> = ((300 - kept.len() as i64 + 1)..=300).collect();
        assert_eq!(kept, expect, "no gaps across the boundary");

        b.prune_horizon(Timestamp(2_900), 1).unwrap();
        let kept = values(&b, WindowSpec::Count(usize::MAX), Timestamp(10_000));
        assert!(!kept.is_empty());
        assert_eq!(kept.last().copied(), Some(300));
        let expect: Vec<i64> = ((300 - kept.len() as i64 + 1)..=300).collect();
        assert_eq!(kept, expect);
    }

    /// Rows pruned while the cold store holds nothing live never reach it, so the next
    /// spill starts past a gap in the sequence numbering: before the first spill, and
    /// after a pause longer than the window expires the whole cold store.  Every read
    /// must still equal a memory table's.
    #[test]
    fn pruning_past_an_empty_cold_store_keeps_reads_exact() {
        let dir = temp_dir("spill-gap");
        let s = schema();
        let mut b = spilling(&dir, 2 * 1024);
        let mut mem = ResidentBackend::default();
        let horizon = Duration::from_millis(500);
        // The cold side prunes whole pages, so it may keep older rows than the memory
        // table: compare everything the retention promises.
        let check = |b: &ResidentBackend, mem: &ResidentBackend, now: Timestamp| {
            assert!(b.len() >= mem.len());
            assert!(b.first_sequence().unwrap() <= mem.first_sequence().unwrap());
            for window in [
                WindowSpec::Count(mem.len()),
                WindowSpec::Count(40.min(mem.len())),
                WindowSpec::Count(3),
                WindowSpec::LatestOnly,
                WindowSpec::Time(Duration::from_millis(250)),
                WindowSpec::Time(horizon),
            ] {
                assert_eq!(
                    values(b, window, now),
                    values(mem, window, now),
                    "{window:?}"
                );
            }
            let first = mem.first_sequence().unwrap().unwrap();
            for after in [first - 1, first + 7, first + 30, mem.max_sequence()] {
                let (mut x, mut y) = (delta(b, after), delta(mem, after));
                assert_eq!(drain(b, &mut x), drain(mem, &mut y), "after {after}");
            }
        };
        let mut ts = 0;
        for i in 1..=400 {
            // Two pauses longer than the window: one before anything spilled, one that
            // expires every spilled row.
            ts += match i {
                11 | 201 => 10_000,
                _ => 10,
            };
            let e = element(&s, i, ts, 64);
            for backend in [&mut b, &mut mem] {
                backend.append(&e).unwrap();
                backend
                    .prune_horizon(Timestamp(ts).saturating_sub(horizon), 1)
                    .unwrap();
            }
            if i % 25 == 0 || i == 11 || i == 201 {
                check(&b, &mem, Timestamp(ts));
            }
        }
        assert!(
            b.migrations() > 2,
            "the window must have spilled repeatedly"
        );
    }

    #[test]
    fn reclaim_and_disk_usage_reach_the_cold_store() {
        let dir = temp_dir("spill-reclaim");
        let s = schema();
        let mut b = ResidentBackend::spilling(
            &dir,
            "w",
            schema(),
            SpillOptions {
                budget_bytes: 1024,
                persistent: PersistentOptions {
                    segment_pages: 2,
                    pool_pages: 4,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        for i in 1..=400 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        let usage = b.disk_usage().expect("cold store exists");
        assert!(usage.on_disk_bytes > 0);
        assert!(usage.total_segments > 2);
        b.prune_to_elements(30).unwrap();
        let stats = b.reclaim().unwrap();
        assert!(stats.segments_deleted > 0, "{stats:?}");
        let after = b.disk_usage().unwrap();
        assert!(after.on_disk_bytes < usage.on_disk_bytes);
        // Query correctness is unaffected.
        let tail = values(&b, WindowSpec::Count(10), Timestamp(10_000));
        assert_eq!(tail, (391..=400).collect::<Vec<i64>>());
    }

    #[test]
    fn stale_spill_files_are_wiped_on_create() {
        let dir = temp_dir("spill-wipe");
        let s = schema();
        {
            let mut b = spilling(&dir, 512);
            for i in 1..=100 {
                b.append(&element(&s, i, i, 64)).unwrap();
            }
            assert!(b.spilled_rows() > 0);
            b.flush().unwrap();
            // Dropped without destroy: files stay behind, as after a crash.
        }
        assert!(std::fs::read_dir(&dir).unwrap().next().is_some());
        let b = spilling(&dir, 512);
        assert_eq!(
            b.len(),
            0,
            "previous incarnation's spill must not resurrect"
        );
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "stale files wiped eagerly"
        );
    }

    #[test]
    fn destroy_removes_cold_files() {
        let dir = temp_dir("spill-destroy");
        let s = schema();
        let mut b = spilling(&dir, 512);
        for i in 1..=100 {
            b.append(&element(&s, i, i, 64)).unwrap();
        }
        Box::new(b).destroy().unwrap();
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
    }
}
