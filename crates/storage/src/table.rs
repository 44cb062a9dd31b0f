//! Per-stream storage: the append-only table behind one stream source or virtual sensor.
//!
//! GSN's storage layer "is in charge of providing and managing persistent storage for data
//! streams" (paper, Section 4).  Every stream source of a virtual sensor has a backing
//! table that keeps exactly as much history as its windows require (or everything, when
//! `permanent-storage="true"`), hands out windowed views for query evaluation, and prunes
//! expired elements.
//!
//! A table delegates element storage to a [`StorageBackend`]: the resident vector
//! ([`StreamTable::new`], or [`StreamTable::spilling`] with a cold store on disk) or the
//! persistent page engine ([`StreamTable::persistent`]) whose history survives container
//! restarts and can grow far beyond RAM behind a bounded buffer pool.

use std::path::Path;
use std::sync::Arc;

use gsn_types::{Duration, GsnError, GsnResult, StreamElement, StreamSchema, Timestamp, Value};

use crate::backend::{
    BackendKind, PersistentBackend, PersistentOptions, ScanBounds, ScanState, StorageBackend,
};
use crate::buffer::BufferPoolStats;
use crate::retention::{DiskUsage, ReclaimStats};
use crate::spill::{ResidentBackend, SpillOptions};
use crate::stats::TableStats;
use crate::wal::WalSet;
use crate::window::{Retention, WindowSpec};

/// An append-only, retention-bounded table of stream elements.
#[derive(Debug)]
pub struct StreamTable {
    name: String,
    schema: Arc<StreamSchema>,
    retention: Retention,
    /// Minimum number of most-recent elements always kept, regardless of time horizon.
    min_elements: usize,
    backend: Box<dyn StorageBackend>,
    next_sequence: u64,
    /// Timestamp of the most recent insert (out-of-order accounting).
    last_timestamp: Option<Timestamp>,
    stats: TableStats,
}

impl StreamTable {
    /// Creates an in-memory table with the given retention policy.
    pub fn new(name: &str, schema: Arc<StreamSchema>, retention: Retention) -> StreamTable {
        StreamTable::with_backend(name, schema, retention, Box::<ResidentBackend>::default())
    }

    /// Opens (creating or recovering) a durable table stored under `dir`, logging its
    /// rows under its tag in `wal`.
    ///
    /// When heap/WAL files for this table already exist, the stored history is recovered:
    /// `len()` reflects the recovered elements and sequence numbering continues where the
    /// previous incarnation stopped.
    pub fn persistent(
        name: &str,
        schema: Arc<StreamSchema>,
        retention: Retention,
        dir: &Path,
        wal: Arc<WalSet>,
        options: PersistentOptions,
    ) -> GsnResult<StreamTable> {
        let backend = PersistentBackend::open(dir, name, Arc::clone(&schema), wal, options)?;
        Ok(StreamTable::with_backend(
            name,
            schema,
            retention,
            Box::new(backend),
        ))
    }

    /// Creates a *spill-capable* table: memory-resident until the configured budget is
    /// exceeded, then transparently spilling its cold prefix to a persistent segment
    /// store under `dir`.  Semantically a memory table — nothing survives a restart
    /// (stale spill files are wiped) — but very large windows (`storage-size="30d"`)
    /// query in bounded memory through the shared buffer pool.
    pub fn spilling(
        name: &str,
        schema: Arc<StreamSchema>,
        retention: Retention,
        dir: &Path,
        options: SpillOptions,
    ) -> GsnResult<StreamTable> {
        let backend = ResidentBackend::spilling(dir, name, Arc::clone(&schema), options)?;
        Ok(StreamTable::with_backend(
            name,
            schema,
            retention,
            Box::new(backend),
        ))
    }

    /// Wraps a backend, continuing the sequence numbering after whatever it recovered.
    fn with_backend(
        name: &str,
        schema: Arc<StreamSchema>,
        retention: Retention,
        backend: Box<dyn StorageBackend>,
    ) -> StreamTable {
        StreamTable {
            name: name.to_owned(),
            schema,
            retention,
            min_elements: 1,
            next_sequence: backend.max_sequence() + 1,
            last_timestamp: backend.last().map(|e| e.timestamp()),
            backend,
            // Lifetime counters cover this incarnation only; recovered history shows up
            // in len()/retained_bytes(), not in `inserted` (re-opening must not inflate
            // ingest totals across restarts).
            stats: TableStats::default(),
        }
    }

    /// Creates an in-memory table sized for a single window specification.
    pub fn for_window(name: &str, schema: Arc<StreamSchema>, window: WindowSpec) -> StreamTable {
        StreamTable::new(name, schema, window.retention())
    }

    /// Creates an unbounded (permanent-storage) in-memory table.
    pub fn permanent(name: &str, schema: Arc<StreamSchema>) -> StreamTable {
        StreamTable::new(name, schema, Retention::Unbounded)
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream schema.
    pub fn schema(&self) -> &Arc<StreamSchema> {
        &self.schema
    }

    /// The retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Which storage engine backs this table.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// True when the table is backed by the persistent page engine.
    pub fn is_persistent(&self) -> bool {
        self.backend.kind() == BackendKind::Persistent
    }

    /// Buffer-pool counters, when this table has a pool.
    pub fn pool_stats(&self) -> Option<BufferPoolStats> {
        self.backend.pool_stats()
    }

    /// Spill counters `(migration passes, rows moved to disk)` for disk-spilled
    /// window tables; `None` otherwise.
    pub fn spill_stats(&self) -> Option<(u64, u64)> {
        self.backend.spill_stats()
    }

    /// Widens the retention policy to also satisfy `additional` (e.g. when a second client
    /// registers a query with a larger history over the same source).
    pub fn widen_retention(&mut self, additional: Retention) {
        self.retention = self.retention.merge(additional);
        if let Retention::Elements(n) = additional {
            self.min_elements = self.min_elements.max(n);
        }
    }

    /// Number of currently retained elements.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when no element is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics accumulated by this table.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Appends an element, assigning it the next sequence number (`PK`), validating its
    /// schema and pruning expired history.
    ///
    /// Elements are expected in non-decreasing timestamp order (the ISM timestamps
    /// arrivals with the local clock); an out-of-order element is still stored but the
    /// table records the anomaly in its statistics so stream-quality monitoring can see it.
    pub fn insert(&mut self, element: StreamElement, now: Timestamp) -> GsnResult<StreamElement> {
        if !self.schema.is_compatible_with(element.schema()) {
            return Err(GsnError::storage(format!(
                "element schema {} does not match table `{}` schema {}",
                element.schema(),
                self.name,
                self.schema
            )));
        }
        if let Some(last) = self.last_timestamp {
            if element.timestamp() < last {
                self.stats.out_of_order += 1;
            }
        }
        let element = element.with_sequence(self.next_sequence);
        self.next_sequence += 1;
        self.stats.inserted += 1;
        self.stats.bytes_inserted += element.size_bytes() as u64;
        self.last_timestamp = Some(element.timestamp());
        self.backend.append(&element)?;
        self.prune(now);
        Ok(element)
    }

    /// Removes elements that no retention requirement can ever select again.
    ///
    /// In-memory tables prune exactly; persistent tables prune at page granularity (they
    /// may retain slightly more — windows re-filter at read time, so query results are
    /// unaffected).
    pub fn prune(&mut self, now: Timestamp) {
        let pruned = match self.retention {
            Retention::Unbounded => Ok(0),
            Retention::Elements(n) => self.backend.prune_to_elements(n.max(self.min_elements)),
            Retention::Horizon(d) => self
                .backend
                .prune_horizon(now.saturating_sub(d), self.min_elements),
        };
        if let Ok(pruned) = pruned {
            self.stats.pruned += pruned;
        }
    }

    /// The most recently inserted element, if any.
    pub fn latest(&self) -> Option<StreamElement> {
        self.backend.last()
    }

    /// Total payload bytes currently retained (page-granular for persistent tables).
    pub fn retained_bytes(&self) -> usize {
        self.backend.retained_bytes()
    }

    /// Begins a pull-based scan of the window selected at `now`, oldest first, narrowed
    /// by pushed-down [`ScanBounds`] — the one way to read a table (see
    /// [`StorageBackend::open_scan`]; a delta read after sequence `s` is
    /// `Count(usize::MAX)` with `min_seq = s + 1`).  Bounds are a superset contract:
    /// the backend may return rows outside them (page granularity), so callers must
    /// still re-apply any residual predicate row-wise.
    ///
    /// The returned state holds no lock: advance it with [`scan_next`](Self::scan_next),
    /// which re-enters the table per batch.  Persistent tables pin one buffer-pool page
    /// per batch, so a consumer that stops pulling (a `LIMIT` query) leaves the rest of
    /// the heap unread.
    pub fn open_scan(
        &self,
        window: WindowSpec,
        now: Timestamp,
        bounds: &ScanBounds,
    ) -> GsnResult<ScanState> {
        self.backend.open_scan(window, now, bounds)
    }

    /// Pulls the next batch of a scan started with [`open_scan`](Self::open_scan);
    /// `None` once exhausted.
    pub fn scan_next(&self, state: &mut ScanState) -> GsnResult<Option<Vec<StreamElement>>> {
        self.backend.scan_next(state)
    }

    /// Drains a scan into a vector: the elements `window` selects at `now` (and
    /// `bounds` admit, as a superset), oldest first.  Persistent tables read through
    /// the buffer pool, so an I/O error or a corrupt page surfaces as an error.
    pub fn scan(
        &self,
        window: WindowSpec,
        now: Timestamp,
        bounds: &ScanBounds,
    ) -> GsnResult<Vec<StreamElement>> {
        let mut state = self.open_scan(window, now, bounds)?;
        let mut out = Vec::new();
        while let Some(batch) = self.scan_next(&mut state)? {
            if out.is_empty() {
                out = batch; // the common one-batch window moves, not copies
            } else {
                out.extend(batch);
            }
        }
        Ok(out)
    }

    /// The highest sequence number assigned so far (0 when nothing was ever inserted).
    pub fn last_sequence(&self) -> u64 {
        self.next_sequence - 1
    }

    /// Sequence number of the oldest retained element, `None` when empty.
    pub fn first_live_sequence(&self) -> GsnResult<Option<u64>> {
        self.backend.first_sequence()
    }

    /// Convenience helper used heavily by tests and benchmarks: builds and inserts an
    /// element from raw values.
    pub fn insert_values(
        &mut self,
        values: Vec<Value>,
        timestamp: Timestamp,
    ) -> GsnResult<StreamElement> {
        let element = StreamElement::new(Arc::clone(&self.schema), values, timestamp)?;
        self.insert(element, timestamp)
    }

    /// Oldest retained timestamp, if any.
    pub fn oldest_timestamp(&self) -> Option<Timestamp> {
        self.backend.first_timestamp().ok().flatten()
    }

    /// The time span currently covered by the retained elements.
    pub fn covered_span(&self) -> Duration {
        match (self.oldest_timestamp(), self.latest()) {
            (Some(first), Some(last)) => last.timestamp() - first,
            _ => Duration::ZERO,
        }
    }

    /// Reclaims file space held by pruned rows: deletes fully dead head segments and
    /// compacts the boundary segment (no-op for in-memory tables).  Called by the
    /// storage manager's maintenance pass.
    pub fn reclaim(&mut self) -> GsnResult<ReclaimStats> {
        self.backend.reclaim()
    }

    /// On-disk footprint and lifetime reclamation counters, when this table owns disk
    /// state.
    pub fn disk_usage(&self) -> Option<DiskUsage> {
        self.backend.disk_usage()
    }

    /// Checkpoints a persistent table to stable storage (no-op for in-memory tables).
    pub fn flush(&mut self) -> GsnResult<()> {
        self.backend.flush()
    }

    /// Deletes any on-disk state, leaving the table empty and in-memory (used by
    /// `drop_table`).
    pub fn destroy_storage(&mut self) -> GsnResult<()> {
        let backend = std::mem::replace(&mut self.backend, Box::new(ResidentBackend::default()));
        backend.destroy()
    }
}

/// Maps a uniform sampling rate to the keep-every-nth sequence stride shared by the
/// cursor ([`crate::StreamCursor`]) and incremental continuous-query scan paths, so
/// both thin a window identically: `None` keeps everything, `Some(usize::MAX)` keeps
/// nothing.
pub fn sampling_stride(rate: f64) -> Option<usize> {
    if rate >= 1.0 {
        None
    } else if rate <= 0.0 {
        Some(usize::MAX)
    } else {
        Some((1.0 / rate).round().max(1.0) as usize)
    }
}

impl Drop for StreamTable {
    fn drop(&mut self) {
        // Clean shutdown checkpoints persistent tables; errors are unreportable here and
        // recovery would replay the WAL anyway.
        let _ = self.backend.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::DataType;

    fn schema() -> Arc<StreamSchema> {
        Arc::new(
            StreamSchema::from_pairs(&[
                ("temperature", DataType::Integer),
                ("room", DataType::Varchar),
            ])
            .unwrap(),
        )
    }

    /// The window as SQL-shaped rows (`PK`, `TIMED`, fields), through the cursor the
    /// executor reads, with optional sampling.
    fn rows(
        table: &Arc<parking_lot::RwLock<StreamTable>>,
        window: WindowSpec,
        now: Timestamp,
        sampling: Option<f64>,
    ) -> Vec<Vec<Value>> {
        use gsn_sql::RowSource;
        crate::StreamCursor::open(Arc::clone(table), "w", window, now, sampling)
            .unwrap()
            .collect()
            .unwrap()
            .into_rows()
    }

    fn fill(table: &mut StreamTable, n: usize, step_ms: i64) {
        for i in 0..n {
            let ts = Timestamp((i as i64 + 1) * step_ms);
            table
                .insert_values(
                    vec![Value::Integer(20 + i as i64), Value::varchar("bc143")],
                    ts,
                )
                .unwrap();
        }
    }

    #[test]
    fn insert_assigns_sequence_numbers() {
        let mut t = StreamTable::permanent("motes", schema());
        let e1 = t
            .insert_values(vec![Value::Integer(20), Value::varchar("a")], Timestamp(10))
            .unwrap();
        let e2 = t
            .insert_values(vec![Value::Integer(21), Value::varchar("a")], Timestamp(20))
            .unwrap();
        assert_eq!(e1.sequence(), 1);
        assert_eq!(e2.sequence(), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.latest().unwrap().sequence(), 2);
        assert_eq!(t.oldest_timestamp(), Some(Timestamp(10)));
        assert_eq!(t.covered_span(), Duration::from_millis(10));
        assert_eq!(t.backend_kind(), crate::BackendKind::Memory);
        assert!(!t.is_persistent());
        assert!(t.pool_stats().is_none());
    }

    #[test]
    fn insert_rejects_wrong_schema() {
        let mut t = StreamTable::permanent("motes", schema());
        let wrong = Arc::new(StreamSchema::from_pairs(&[("x", DataType::Integer)]).unwrap());
        let e = StreamElement::new(wrong, vec![Value::Integer(1)], Timestamp(0)).unwrap();
        assert!(t.insert(e, Timestamp(0)).is_err());
    }

    #[test]
    fn element_retention_prunes_oldest() {
        let mut t = StreamTable::new("motes", schema(), Retention::Elements(3));
        fill(&mut t, 10, 100);
        assert_eq!(t.len(), 3);
        let all = t
            .scan(
                WindowSpec::Count(usize::MAX),
                Timestamp::MAX,
                &ScanBounds::default(),
            )
            .unwrap();
        assert_eq!(all[0].value("TEMPERATURE"), Some(Value::Integer(27)));
        assert_eq!(t.stats().inserted, 10);
        assert_eq!(t.stats().pruned, 7);
    }

    #[test]
    fn horizon_retention_prunes_by_time() {
        let mut t = StreamTable::new(
            "motes",
            schema(),
            Retention::Horizon(Duration::from_millis(250)),
        );
        fill(&mut t, 10, 100); // timestamps 100..1000
                               // now = 1000; cutoff = 750; keeps 800, 900, 1000
        assert_eq!(t.len(), 3);
        assert_eq!(t.oldest_timestamp(), Some(Timestamp(800)));
    }

    #[test]
    fn horizon_retention_keeps_min_elements() {
        let mut t = StreamTable::new(
            "motes",
            schema(),
            Retention::Horizon(Duration::from_millis(10)),
        );
        fill(&mut t, 5, 1_000);
        // All but the newest are outside the 10 ms horizon, but at least one stays.
        assert_eq!(t.len(), 1);
        assert_eq!(t.latest().unwrap().timestamp(), Timestamp(5_000));
    }

    #[test]
    fn unbounded_retention_keeps_everything() {
        let mut t = StreamTable::permanent("motes", schema());
        fill(&mut t, 100, 10);
        assert_eq!(t.len(), 100);
        assert_eq!(t.stats().pruned, 0);
    }

    #[test]
    fn widen_retention_enlarges_history() {
        let mut t = StreamTable::new("motes", schema(), Retention::Elements(2));
        t.widen_retention(Retention::Elements(5));
        fill(&mut t, 10, 100);
        assert_eq!(t.len(), 5);
        t.widen_retention(Retention::Unbounded);
        fill(&mut t, 10, 100);
        assert_eq!(t.len(), 15);
        assert_eq!(t.retention(), Retention::Unbounded);
    }

    #[test]
    fn out_of_order_arrivals_are_counted() {
        let mut t = StreamTable::permanent("motes", schema());
        t.insert_values(vec![Value::Integer(1), Value::varchar("a")], Timestamp(100))
            .unwrap();
        t.insert_values(vec![Value::Integer(2), Value::varchar("a")], Timestamp(50))
            .unwrap();
        assert_eq!(t.stats().out_of_order, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn window_views() {
        let mut t = StreamTable::permanent("motes", schema());
        fill(&mut t, 10, 100);
        let now = Timestamp(1_000);
        let len = |window| t.scan(window, now, &ScanBounds::default()).unwrap().len();
        assert_eq!(len(WindowSpec::Count(4)), 4);
        assert_eq!(len(WindowSpec::Time(Duration::from_millis(299))), 3);
        assert_eq!(len(WindowSpec::LatestOnly), 1);
    }

    #[test]
    fn retained_bytes_tracks_payloads() {
        let mut t = StreamTable::permanent("motes", schema());
        fill(&mut t, 3, 100);
        assert_eq!(t.retained_bytes(), 3 * (8 + 8 + 5));
        assert!(t.stats().bytes_inserted >= t.retained_bytes() as u64);
    }

    #[test]
    fn for_window_constructor_matches_retention() {
        let t = StreamTable::for_window("x", schema(), WindowSpec::Count(7));
        assert_eq!(t.retention(), Retention::Elements(7));
        let t = StreamTable::for_window("x", schema(), WindowSpec::Time(Duration::from_secs(1)));
        assert_eq!(t.retention(), Retention::Horizon(Duration::from_secs(1)));
    }

    // -----------------------------------------------------------------------------------
    // Persistent tables
    // -----------------------------------------------------------------------------------

    #[test]
    fn persistent_table_round_trips_through_restart() {
        let dir = crate::testutil::temp_dir("table-restart");
        {
            let mut t = StreamTable::persistent(
                "motes",
                schema(),
                Retention::Unbounded,
                &dir,
                crate::testutil::wal_set(&dir),
                PersistentOptions::default(),
            )
            .unwrap();
            assert!(t.is_persistent());
            assert_eq!(t.backend_kind(), crate::BackendKind::Persistent);
            fill(&mut t, 50, 100);
            assert_eq!(t.len(), 50);
        }
        let mut t = StreamTable::persistent(
            "motes",
            schema(),
            Retention::Unbounded,
            &dir,
            crate::testutil::wal_set(&dir),
            PersistentOptions::default(),
        )
        .unwrap();
        assert_eq!(t.len(), 50);
        assert_eq!(t.latest().unwrap().sequence(), 50);
        // Sequence numbering continues where the previous incarnation stopped.
        let e = t
            .insert_values(
                vec![Value::Integer(99), Value::varchar("x")],
                Timestamp(10_000),
            )
            .unwrap();
        assert_eq!(e.sequence(), 51);
        assert!(t.pool_stats().is_some());
    }

    #[test]
    fn persistent_windows_match_memory_semantics() {
        let dir = crate::testutil::temp_dir("table-windows");
        let mut mem = StreamTable::permanent("m", schema());
        let mut per = StreamTable::persistent(
            "m",
            schema(),
            Retention::Unbounded,
            &dir,
            crate::testutil::wal_set(&dir),
            PersistentOptions {
                pool_pages: 2,
                ..Default::default()
            },
        )
        .unwrap();
        fill(&mut mem, 200, 10);
        fill(&mut per, 200, 10);
        let mem = Arc::new(parking_lot::RwLock::new(mem));
        let per = Arc::new(parking_lot::RwLock::new(per));
        let now = Timestamp(2_000);
        for (window, sampling) in [
            (WindowSpec::Count(7), None),
            (WindowSpec::Count(500), None),
            (WindowSpec::LatestOnly, None),
            (WindowSpec::Time(Duration::from_millis(555)), None),
            (WindowSpec::Count(100), Some(0.25)),
        ] {
            let a = rows(&mem, window, now, sampling);
            assert!(!a.is_empty());
            assert_eq!(
                a,
                rows(&per, window, now, sampling),
                "window {window:?}, sampling {sampling:?}"
            );
        }
    }

    #[test]
    fn destroy_storage_removes_files() {
        let dir = crate::testutil::temp_dir("table-destroy");
        let mut t = StreamTable::persistent(
            "gone",
            schema(),
            Retention::Unbounded,
            &dir,
            crate::testutil::wal_set(&dir),
            PersistentOptions::default(),
        )
        .unwrap();
        fill(&mut t, 5, 100);
        t.destroy_storage().unwrap();
        assert!(crate::testutil::table_files(&dir).is_empty());
        // The table stays usable as an (empty) in-memory table.
        assert_eq!(t.len(), 0);
        assert!(!t.is_persistent());
    }
}
