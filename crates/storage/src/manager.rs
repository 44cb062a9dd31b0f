//! The storage manager: all stream tables of one GSN container.
//!
//! "The data from/to the VSM passes through the storage layer which is in charge of
//! providing and managing persistent storage for data streams" (paper, Section 4).  The
//! manager owns one [`StreamTable`] per stream source / virtual sensor output, provides
//! windowed catalogs for the SQL engine, and aggregates statistics.
//!
//! The manager is internally synchronised, so a container's `&self` APIs (queries,
//! cursors, maintenance) can reach it while it holds tables open: the table map sits
//! behind an `RwLock` taken briefly per lookup, each table behind its own `RwLock`, and
//! every durable table shares one [`SharedBufferPool`] (container-wide page budget,
//! cross-table eviction) that is itself thread-safe.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gsn_sql::{Catalog, ColumnInfo, Relation, RowSource, ScanSpec};
use gsn_types::{GsnError, GsnResult, StreamElement, StreamSchema, Timestamp, Value};
use parking_lot::{Mutex, RwLock};

use crate::backend::{BackendKind, PersistentOptions, ScanBounds, ScanState};
use crate::buffer::SharedBufferPool;
use crate::retention::{MaintenanceReport, MaintenanceTotals};
use crate::spill::SpillOptions;
use crate::stats::{StorageStats, TableDiskStats};
use crate::table::StreamTable;
use crate::telemetry::StorageTelemetry;
use crate::wal::{SyncMode, WalSet};
use crate::window::{Retention, WindowSpec};
use gsn_telemetry::Stopwatch;

/// Container-level storage configuration: where (and whether) durable tables live.
#[derive(Debug, Clone, Default)]
pub struct StorageOptions {
    /// Directory for persistent table files. `None` keeps every table in memory (the
    /// seed behaviour) — durable table requests then fall back to memory.
    pub data_dir: Option<PathBuf>,
    /// Buffer-pool / WAL tuning for persistent tables.
    pub persistent: PersistentOptions,
    /// Resident-memory budget for *memory* tables (source windows): when set — and a
    /// data directory is configured — a window whose payload bytes exceed the budget
    /// transparently spills its cold prefix to a persistent segment store, so very
    /// large time windows (`storage-size="30d"`) query in bounded memory.  `None`
    /// keeps the seed behaviour (windows stay fully resident).
    pub window_spill_bytes: Option<usize>,
}

impl StorageOptions {
    /// Options with persistence rooted at `data_dir`.
    pub fn at(data_dir: impl Into<PathBuf>) -> StorageOptions {
        StorageOptions {
            data_dir: Some(data_dir.into()),
            persistent: PersistentOptions::default(),
            window_spill_bytes: None,
        }
    }

    /// Enables window spilling with the given resident budget.
    pub fn with_window_spill(mut self, budget_bytes: usize) -> StorageOptions {
        self.window_spill_bytes = Some(budget_bytes);
        self
    }
}

/// The storage layer of one GSN container.
#[derive(Debug)]
pub struct StorageManager {
    tables: RwLock<HashMap<String, Arc<RwLock<StreamTable>>>>,
    options: StorageOptions,
    /// The container-wide page budget every durable table shares
    /// (`options.persistent.pool_pages` frames in total, cross-table eviction).
    pool: Arc<SharedBufferPool>,
    /// The container-wide WAL every durable table appends to (present whenever a data
    /// directory is configured).
    wal_set: Option<Arc<WalSet>>,
    /// Lifetime counters of the retention maintenance pass.
    maintenance: Mutex<MaintenanceTotals>,
    /// Guards against overlapping maintenance passes (a `&self` caller may start one
    /// while another is running; the second must not stack).
    maintenance_busy: AtomicBool,
    /// Live instrument handles; the container adopts them into its registry.
    telemetry: StorageTelemetry,
}

impl Default for StorageManager {
    fn default() -> Self {
        StorageManager::with_options(StorageOptions::default())
    }
}

impl StorageManager {
    /// Creates an in-memory-only storage manager (the seed behaviour).
    pub fn new() -> StorageManager {
        StorageManager::default()
    }

    /// Creates a storage manager that can host persistent tables under
    /// `options.data_dir`.
    pub fn with_options(options: StorageOptions) -> StorageManager {
        let pool = Arc::new(match options.persistent.pool_regions {
            0 => SharedBufferPool::new(options.persistent.pool_pages),
            n => SharedBufferPool::with_regions(options.persistent.pool_pages, n),
        });
        let wal_set = options.data_dir.as_ref().map(|dir| {
            Arc::new(WalSet::new(
                dir.clone(),
                options.persistent.sync,
                options.persistent.group_commit,
                options.persistent.wal_checkpoint_bytes.max(1),
            ))
        });
        StorageManager {
            tables: RwLock::new(HashMap::new()),
            options,
            pool,
            wal_set,
            maintenance: Mutex::new(MaintenanceTotals::default()),
            maintenance_busy: AtomicBool::new(false),
            telemetry: StorageTelemetry::new(),
        }
    }

    /// The storage layer's live telemetry handles.
    pub fn telemetry(&self) -> &StorageTelemetry {
        &self.telemetry
    }

    /// Shorthand for a manager persisting durable tables under `data_dir`.
    pub fn persistent(data_dir: impl Into<PathBuf>) -> StorageManager {
        StorageManager::with_options(StorageOptions::at(data_dir))
    }

    /// The directory persistent tables live in, when configured.
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.options.data_dir.as_deref()
    }

    /// Creates an in-memory table for a stream source / virtual sensor.
    ///
    /// When window spilling is configured (a data directory plus
    /// [`StorageOptions::window_spill_bytes`]), the table is created spill-capable:
    /// still semantically a memory table, but its cold prefix moves to a persistent
    /// segment store once the resident budget is exceeded.
    ///
    /// Fails when a table with the same (case-insensitive) name already exists; GSN
    /// treats table names as container-unique because they double as SQL table names.
    pub fn create_table(
        &self,
        name: &str,
        schema: Arc<StreamSchema>,
        retention: Retention,
    ) -> GsnResult<Arc<RwLock<StreamTable>>> {
        let table = match (&self.options.data_dir, self.options.window_spill_bytes) {
            (Some(dir), Some(budget)) => {
                let spill = SpillOptions {
                    budget_bytes: budget,
                    persistent: PersistentOptions {
                        shared_pool: Some(Arc::clone(&self.pool)),
                        telemetry: self.telemetry.clone(),
                        ..self.options.persistent.clone()
                    },
                };
                StreamTable::spilling(name, schema, retention, dir, spill)?
            }
            _ => StreamTable::new(name, schema, retention),
        };
        self.register_table(name, table)
    }

    /// Creates a *durable* table: stored in the persistent page engine when this manager
    /// has a data directory, falling back to memory otherwise.
    ///
    /// When table files already exist in the data directory (a container re-opened on
    /// the same path), the stored history is recovered instead of starting empty.
    pub fn create_table_durable(
        &self,
        name: &str,
        schema: Arc<StreamSchema>,
        retention: Retention,
    ) -> GsnResult<Arc<RwLock<StreamTable>>> {
        let table = match (&self.options.data_dir, &self.wal_set) {
            (Some(dir), Some(wal)) => {
                let options = PersistentOptions {
                    shared_pool: Some(Arc::clone(&self.pool)),
                    telemetry: self.telemetry.clone(),
                    ..self.options.persistent.clone()
                };
                StreamTable::persistent(name, schema, retention, dir, Arc::clone(wal), options)?
            }
            _ => StreamTable::new(name, schema, retention),
        };
        self.register_table(name, table)
    }

    /// The container-wide WAL, when a data directory is configured.
    pub fn wal_set(&self) -> Option<&Arc<WalSet>> {
        self.wal_set.as_ref()
    }

    /// The shared buffer pool every durable table of this manager uses.
    pub fn buffer_pool(&self) -> &Arc<SharedBufferPool> {
        &self.pool
    }

    fn register_table(
        &self,
        name: &str,
        table: StreamTable,
    ) -> GsnResult<Arc<RwLock<StreamTable>>> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(GsnError::already_exists(format!(
                "storage table `{name}` already exists"
            )));
        }
        let table = Arc::new(RwLock::new(table));
        tables.insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// Drops a table (when a virtual sensor is undeployed at runtime), deleting any
    /// on-disk state it owns.
    pub fn drop_table(&self, name: &str) -> GsnResult<()> {
        let removed = self.tables.write().remove(&name.to_ascii_lowercase());
        match removed {
            Some(table) => table.write().destroy_storage(),
            None => Err(GsnError::not_found(format!(
                "storage table `{name}` does not exist"
            ))),
        }
    }

    /// Detaches a table from the manager *without* deleting its on-disk state (the table
    /// checkpoints as it drops). Used by deployment rollback: a failed re-deploy of a
    /// permanent-storage sensor must not destroy the history it just recovered.
    pub fn release_table(&self, name: &str) -> GsnResult<()> {
        match self.tables.write().remove(&name.to_ascii_lowercase()) {
            Some(_) => Ok(()),
            None => Err(GsnError::not_found(format!(
                "storage table `{name}` does not exist"
            ))),
        }
    }

    /// Checkpoints every persistent table to stable storage.
    pub fn flush_all(&self) -> GsnResult<()> {
        for table in self.tables.read().values() {
            table.write().flush()?;
        }
        Ok(())
    }

    /// Group commit: drains the WAL's group-committed appends with one write and at
    /// most one fsync, however many tables ingested this step.  The container calls
    /// this once per step.
    pub fn group_commit(&self) -> GsnResult<()> {
        let Some(set) = &self.wal_set else {
            return Ok(());
        };
        let sw = Stopwatch::start();
        let records = set.commit()?;
        if records > 0 {
            self.telemetry.wal_sync_micros.record(sw.elapsed_micros());
            self.telemetry.wal_batch_records.record(records);
            if self.options.persistent.sync == SyncMode::Always {
                self.telemetry.wal_fsyncs.add(1);
            }
        }
        Ok(())
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> GsnResult<Arc<RwLock<StreamTable>>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| GsnError::not_found(format!("storage table `{name}` does not exist")))
    }

    /// True when a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// The names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Inserts an element into a named table.
    pub fn insert(
        &self,
        table: &str,
        element: StreamElement,
        now: Timestamp,
    ) -> GsnResult<StreamElement> {
        let table = self.table(table)?;
        let sw = Stopwatch::start();
        let mut guard = table.write();
        let logged = guard.is_persistent();
        let inserted = guard.insert(element, now);
        drop(guard);
        let micros = sw.elapsed_micros();
        self.telemetry.insert_micros.record(micros);
        if logged {
            // Only durable tables log: their insert path is WAL append + page write.
            self.telemetry.wal_append_micros.record(micros);
        }
        inserted
    }

    /// Prunes every table against the current time (called periodically by the container's
    /// life-cycle manager).
    pub fn prune_all(&self, now: Timestamp) {
        for table in self.tables.read().values() {
            table.write().prune(now);
        }
    }

    /// The retention maintenance pass: prunes every table, then reclaims file space —
    /// fully dead head segments are deleted, the boundary segment is compacted (see
    /// [`crate::retention`]).  The container's step loop runs it inline every few steps;
    /// overlapping invocations are coalesced (the second returns immediately with
    /// `ran = false`).
    pub fn maintain(&self, now: Timestamp) -> MaintenanceReport {
        if self.maintenance_busy.swap(true, Ordering::AcqRel) {
            return MaintenanceReport::default();
        }
        let mut report = MaintenanceReport {
            ran: true,
            ..Default::default()
        };
        let pass_sw = Stopwatch::start();
        let tables: Vec<Arc<RwLock<StreamTable>>> = self.tables.read().values().cloned().collect();
        for table in tables {
            let mut guard = table.write();
            guard.prune(now);
            // A reclamation failure on one table (transient I/O error) must not starve
            // the others; the pass simply skips it until the next round.
            let sw = Stopwatch::start();
            if let Ok(stats) = guard.reclaim() {
                if !stats.is_empty() {
                    self.telemetry.reclaim_micros.record(sw.elapsed_micros());
                }
                report.reclaim.merge(&stats);
            }
            report.tables += 1;
        }
        {
            let mut totals = self.maintenance.lock();
            totals.passes += 1;
            totals.reclaim.merge(&report.reclaim);
        }
        self.telemetry
            .maintenance_micros
            .record(pass_sw.elapsed_micros());
        self.telemetry
            .segments_deleted
            .add(report.reclaim.segments_deleted);
        self.telemetry
            .segments_compacted
            .add(report.reclaim.segments_compacted);
        self.telemetry
            .bytes_reclaimed
            .add(report.reclaim.bytes_reclaimed);
        self.maintenance_busy.store(false, Ordering::Release);
        report
    }

    /// Lifetime maintenance counters.
    pub fn maintenance_totals(&self) -> MaintenanceTotals {
        *self.maintenance.lock()
    }

    /// Aggregated statistics across every table.
    pub fn stats(&self) -> StorageStats {
        let tables = self.tables.read();
        let mut stats = StorageStats {
            tables: tables.len(),
            ..Default::default()
        };
        for (name, table) in tables.iter() {
            let guard = table.read();
            stats.retained_elements += guard.len();
            stats.retained_bytes += guard.retained_bytes();
            stats.totals.merge(guard.stats());
            match guard.backend_kind() {
                BackendKind::Persistent => stats.persistent_tables += 1,
                BackendKind::Spilled => stats.spilled_tables += 1,
                BackendKind::Memory => {}
            }
            if let Some((migrations, rows)) = guard.spill_stats() {
                stats.spill_migrations += migrations;
                stats.spilled_rows += rows;
            }
            if let Some(usage) = guard.disk_usage() {
                stats.disk.merge(&usage);
                stats.tables_on_disk.push(TableDiskStats {
                    name: name.clone(),
                    kind: guard.backend_kind(),
                    usage,
                });
            }
        }
        stats.tables_on_disk.sort_by(|a, b| a.name.cmp(&b.name));
        stats.maintenance = self.maintenance_totals();
        // Every durable table shares the manager's one pool: report it once instead of
        // summing the same counters per table.
        stats.pool = self.pool.stats();
        stats.pool_regions = self.pool.region_stats();
        stats
    }
}

/// Describes one windowed view to expose in a SQL catalog.
#[derive(Debug, Clone)]
pub struct CatalogView {
    /// The SQL-visible alias (the stream-source alias from the descriptor, e.g. `src1`,
    /// or the reserved name `wrapper`).
    pub alias: String,
    /// The backing table name.
    pub table: String,
    /// The window to evaluate.
    pub window: WindowSpec,
    /// Optional sampling rate in `[0, 1]`.
    pub sampling_rate: Option<f64>,
}

impl CatalogView {
    /// Creates a view with no sampling.
    pub fn new(alias: &str, table: &str, window: WindowSpec) -> CatalogView {
        CatalogView {
            alias: alias.to_owned(),
            table: table.to_owned(),
            window,
            sampling_rate: None,
        }
    }

    /// Sets a sampling rate.
    pub fn with_sampling(mut self, rate: f64) -> CatalogView {
        self.sampling_rate = Some(rate);
        self
    }
}

/// A [`Catalog`] adapter that evaluates windows lazily at lookup time: every scan opens
/// a [`StreamCursor`] over the current window contents.
///
/// It is how every window reaches SQL.  A deployed sensor's pipeline reads each source
/// window through its `wrapper` view per arrival (step 2 of the paper's pipeline), and
/// the query repository re-evaluates long-lived client queries per new stream element
/// (what the paper's Figure 4 experiment measures).
pub struct LiveCatalog<'a> {
    manager: &'a StorageManager,
    views: &'a [CatalogView],
    now: Timestamp,
}

impl<'a> LiveCatalog<'a> {
    /// Creates a live catalog over `views`, evaluated at `now`.
    ///
    /// The views are borrowed: the query repository builds them once at registration
    /// time and re-lends them per evaluation instead of rebuilding a catalog per query
    /// per stream element.
    pub fn new(manager: &'a StorageManager, views: &'a [CatalogView], now: Timestamp) -> Self {
        LiveCatalog {
            manager,
            views,
            now,
        }
    }
}

impl Catalog for LiveCatalog<'_> {
    fn scan(&self, name: &str, spec: &ScanSpec) -> GsnResult<Box<dyn RowSource>> {
        // First try a declared view alias; fall back to a raw table with its full content,
        // so ad-hoc client queries can also address tables directly.  The optimizer's
        // pushed-down spec reaches the cursor, so storage can seek via the segment index
        // instead of walking the whole window.
        let view = self
            .views
            .iter()
            .find(|v| v.alias.eq_ignore_ascii_case(name));
        let (table, alias, window, sampling_rate) = match view {
            Some(view) => (
                view.table.as_str(),
                view.alias.as_str(),
                view.window,
                view.sampling_rate,
            ),
            None => (name, name, WindowSpec::Count(usize::MAX), None),
        };
        let cursor = StreamCursor::open_with_spec(
            self.manager.table(table)?,
            alias,
            window,
            self.now,
            sampling_rate,
            spec,
        )?;
        Ok(Box::new(cursor))
    }
}

/// A pull-based cursor over one stream table's windowed view, exposed to the SQL
/// executor as a [`RowSource`] (`PK`, `TIMED`, then the schema fields — exactly what
/// GSN's window unnesting produces).
///
/// The cursor owns its table handle and re-locks it per batch, so it holds no lock
/// between pulls and can outlive the catalog that opened it; persistent tables stream
/// one buffer-pool page per batch.  A consumer that stops pulling — a `LIMIT` query,
/// an abandoned federation cursor — leaves the remaining storage pages unread.
pub struct StreamCursor {
    table: Arc<RwLock<StreamTable>>,
    state: ScanState,
    columns: Vec<ColumnInfo>,
    /// What is left of the batch last pulled from storage.
    batch: std::vec::IntoIter<StreamElement>,
    /// Deterministic sampling: keep elements whose sequence is a multiple of this
    /// (`None` = keep everything; see [`crate::table::sampling_stride`]).
    keep_every: Option<usize>,
    /// Projection pushdown: schema-field positions (after `PK`/`TIMED`) the query never
    /// reads are emitted as `Value::Null` (`None` = emit everything).
    masked_fields: Option<Vec<bool>>,
    done: bool,
}

impl StreamCursor {
    /// Opens a cursor over `table` through `window` at `now`, with optional uniform
    /// sampling.
    pub fn open(
        table: Arc<RwLock<StreamTable>>,
        alias: &str,
        window: WindowSpec,
        now: Timestamp,
        sampling_rate: Option<f64>,
    ) -> GsnResult<StreamCursor> {
        Self::open_with_spec(
            table,
            alias,
            window,
            now,
            sampling_rate,
            &ScanSpec::default(),
        )
    }

    /// Opens a cursor like [`open`](Self::open), additionally pushing an optimizer
    /// [`ScanSpec`] down into the storage scan: sequence/timestamp bounds seek via the
    /// per-segment sparse index, a limit hint caps how far the heap is read, and
    /// projected-away columns are masked out instead of cloned.
    ///
    /// Bounds are advisory supersets — storage may return rows outside them (page
    /// granularity), so the executor re-applies the spec's residual predicate row-wise.
    pub fn open_with_spec(
        table: Arc<RwLock<StreamTable>>,
        alias: &str,
        window: WindowSpec,
        now: Timestamp,
        sampling_rate: Option<f64>,
        spec: &ScanSpec,
    ) -> GsnResult<StreamCursor> {
        let keep_every = sampling_rate.and_then(crate::table::sampling_stride);
        let (state, columns) = {
            let guard = table.read();
            let columns = Relation::stream_columns(alias, guard.schema());
            // Sampling keeps rows by absolute sequence; bounds would interact with the
            // stride in surprising ways under a limit hint, so sampled cursors scan the
            // plain window and leave all filtering to the executor.
            let bounds = if keep_every.is_some() {
                ScanBounds::default()
            } else {
                ScanBounds {
                    min_seq: spec.min_seq,
                    max_seq: spec.max_seq,
                    min_ts: spec.min_ts,
                    max_ts: spec.max_ts,
                    // The limit is only sound when every returned row reaches the
                    // consumer: no residual predicate dropping rows above the scan.
                    limit: spec.limit.filter(|_| spec.residual.is_empty()),
                }
            };
            let state = guard.open_scan(window, now, &bounds)?;
            (state, columns)
        };
        // `columns` is `[PK, TIMED, fields...]`; the mask covers only the field tail.
        let masked_fields = spec.projection.as_ref().map(|needed| {
            columns
                .iter()
                .skip(2)
                .map(|column| !needed.iter().any(|n| n.eq_ignore_ascii_case(&column.name)))
                .collect::<Vec<bool>>()
        });
        Ok(StreamCursor {
            // A zero sampling rate keeps nothing: mark exhausted up front.
            done: keep_every == Some(usize::MAX),
            table,
            state,
            columns,
            batch: Vec::new().into_iter(),
            keep_every,
            masked_fields,
        })
    }
}

impl RowSource for StreamCursor {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_row(&mut self) -> GsnResult<Option<Vec<Value>>> {
        let element = loop {
            match self.batch.next() {
                Some(element) => {
                    let sampled_out = self
                        .keep_every
                        .is_some_and(|k| !(element.sequence() as usize).is_multiple_of(k));
                    if !sampled_out {
                        break element;
                    }
                }
                None if self.done => return Ok(None),
                None => match self.table.read().scan_next(&mut self.state)? {
                    Some(batch) => self.batch = batch.into_iter(),
                    None => {
                        self.done = true;
                        return Ok(None);
                    }
                },
            }
        };
        let mut row = Relation::stream_row(element);
        if let Some(mask) = &self.masked_fields {
            for (value, masked) in row[2..].iter_mut().zip(mask) {
                if *masked {
                    *value = Value::Null;
                }
            }
        }
        Ok(Some(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::{DataType, Duration, Value};

    fn schema() -> Arc<StreamSchema> {
        Arc::new(StreamSchema::from_pairs(&[("temperature", DataType::Integer)]).unwrap())
    }

    fn manager_with_data() -> StorageManager {
        let m = StorageManager::new();
        m.create_table("motes", schema(), Retention::Unbounded)
            .unwrap();
        for i in 0..10 {
            let e = StreamElement::new(
                schema(),
                vec![Value::Integer(20 + i)],
                Timestamp(100 * (i + 1)),
            )
            .unwrap();
            m.insert("motes", e, Timestamp(100 * (i + 1))).unwrap();
        }
        m
    }

    #[test]
    fn create_and_drop_tables() {
        let m = StorageManager::new();
        m.create_table("a", schema(), Retention::Unbounded).unwrap();
        assert!(m.has_table("A"));
        assert!(m.create_table("A", schema(), Retention::Unbounded).is_err());
        m.create_table("b", schema(), Retention::Elements(5))
            .unwrap();
        assert_eq!(m.table_names(), vec!["a", "b"]);
        m.drop_table("a").unwrap();
        assert!(!m.has_table("a"));
        assert!(m.drop_table("a").is_err());
        assert!(m.table("a").is_err());
    }

    #[test]
    fn insert_routes_to_the_right_table() {
        let m = manager_with_data();
        let table = m.table("motes").unwrap();
        assert_eq!(table.read().len(), 10);
        assert!(m
            .insert(
                "nosuch",
                StreamElement::new(schema(), vec![Value::Integer(1)], Timestamp(0)).unwrap(),
                Timestamp(0)
            )
            .is_err());
    }

    #[test]
    fn live_catalog_evaluates_views() {
        let m = manager_with_data();
        let views = [
            CatalogView::new("src1", "motes", WindowSpec::Count(3)),
            CatalogView::new(
                "src2",
                "motes",
                WindowSpec::Time(Duration::from_millis(450)),
            ),
            CatalogView::new("x", "nosuch", WindowSpec::LatestOnly),
        ];
        let live = LiveCatalog::new(&m, &views, Timestamp(1_000));
        let mut engine = gsn_sql::SqlEngine::new();
        let n = engine
            .execute_scalar("select count(*) from src1", &live)
            .unwrap();
        assert_eq!(n, Value::Integer(3));
        let n = engine
            .execute_scalar("select count(*) from src2", &live)
            .unwrap();
        assert_eq!(n, Value::Integer(5)); // timestamps 600..1000
        assert!(engine.execute("select * from x", &live).is_err());
    }

    #[test]
    fn live_catalog_applies_sampling() {
        let m = manager_with_data();
        let mut engine = gsn_sql::SqlEngine::new();
        // Sampling keeps sequences that are multiples of the stride (1..=10 here).
        for (rate, kept) in [(1.0, 10), (0.5, 5), (0.1, 1), (0.0, 0)] {
            let views = [CatalogView::new("s", "motes", WindowSpec::Count(10)).with_sampling(rate)];
            let live = LiveCatalog::new(&m, &views, Timestamp(1_000));
            let n = engine
                .execute_scalar("select count(*) from s", &live)
                .unwrap();
            assert_eq!(n, Value::Integer(kept), "rate {rate}");
        }
    }

    #[test]
    fn live_catalog_sees_current_contents() {
        let m = manager_with_data();
        let views = vec![CatalogView::new("src1", "motes", WindowSpec::Count(3))];
        let mut engine = gsn_sql::SqlEngine::new();

        {
            let live = LiveCatalog::new(&m, &views, Timestamp(1_000));
            let avg = engine
                .execute_scalar("select avg(temperature) from src1", &live)
                .unwrap();
            assert_eq!(avg, Value::Double(28.0)); // 27, 28, 29
        }

        // New data arrives; a fresh LiveCatalog evaluation sees it without re-registering.
        let e = StreamElement::new(schema(), vec![Value::Integer(100)], Timestamp(1_100)).unwrap();
        m.insert("motes", e, Timestamp(1_100)).unwrap();
        let live = LiveCatalog::new(&m, &views, Timestamp(1_100));
        let avg = engine
            .execute_scalar("select avg(temperature) from src1", &live)
            .unwrap();
        assert_eq!(avg, Value::Double((28.0 + 29.0 + 100.0) / 3.0));
    }

    #[test]
    fn live_catalog_scans_views_and_raw_tables() {
        let m = manager_with_data();
        let views = vec![CatalogView::new("src1", "motes", WindowSpec::Count(3))];
        let live = LiveCatalog::new(&m, &views, Timestamp(1_000));
        let spec = ScanSpec::default();
        for (name, rows) in [("src1", 3), ("motes", 10)] {
            let scanned = live.scan(name, &spec).unwrap().collect().unwrap();
            assert_eq!(scanned.row_count(), rows, "table {name}");
            let columns: Vec<String> = scanned.columns().iter().map(|c| c.to_string()).collect();
            let qualified = |column: &str| format!("{name}.{column}");
            assert_eq!(
                columns,
                vec![
                    qualified("PK"),
                    qualified("TIMED"),
                    qualified("TEMPERATURE")
                ]
            );
        }
        assert!(live.scan("nosuch", &spec).is_err());
    }

    #[test]
    fn scan_spec_bounds_and_masks_the_cursor() {
        let m = manager_with_data();
        let live = LiveCatalog::new(&m, &[], Timestamp(1_000));

        // Sequence bounds clamp which rows the cursor produces at all.
        let spec = ScanSpec {
            min_seq: Some(3),
            max_seq: Some(7),
            ..ScanSpec::default()
        };
        let rows = live.scan("motes", &spec).unwrap().collect().unwrap();
        let seqs: Vec<i64> = rows
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Integer(n) => n,
                ref other => panic!("unexpected PK value {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![3, 4, 5, 6, 7]);

        // Projection masking nulls out fields the query never reads.
        let spec = ScanSpec {
            projection: Some(Vec::new()),
            limit: Some(2),
            ..ScanSpec::default()
        };
        let rows = live.scan("motes", &spec).unwrap().collect().unwrap();
        assert_eq!(rows.rows().len(), 2);
        for row in rows.rows() {
            assert!(matches!(row[0], Value::Integer(_)));
            assert!(matches!(row[1], Value::Timestamp(_)));
            assert_eq!(row[2], Value::Null);
        }
    }

    #[test]
    fn live_catalog_falls_back_to_raw_tables() {
        let m = manager_with_data();
        let live = LiveCatalog::new(&m, &[], Timestamp(1_000));
        let mut engine = gsn_sql::SqlEngine::new();
        let n = engine
            .execute_scalar("select count(*) from motes", &live)
            .unwrap();
        assert_eq!(n, Value::Integer(10));
        assert!(engine.execute("select * from nosuch", &live).is_err());
    }

    #[test]
    fn prune_all_applies_retention() {
        let m = StorageManager::new();
        m.create_table(
            "bounded",
            schema(),
            Retention::Horizon(Duration::from_millis(100)),
        )
        .unwrap();
        for i in 0..5 {
            let e =
                StreamElement::new(schema(), vec![Value::Integer(i)], Timestamp(i * 100)).unwrap();
            m.insert("bounded", e, Timestamp(i * 100)).unwrap();
        }
        m.prune_all(Timestamp(10_000));
        assert_eq!(m.table("bounded").unwrap().read().len(), 1);
    }

    #[test]
    fn stats_aggregate_across_tables() {
        let m = manager_with_data();
        m.create_table("empty", schema(), Retention::Unbounded)
            .unwrap();
        let stats = m.stats();
        assert_eq!(stats.tables, 2);
        assert_eq!(stats.retained_elements, 10);
        assert_eq!(stats.totals.inserted, 10);
        assert!(stats.retained_bytes > 0);
    }

    #[test]
    fn only_logged_inserts_time_the_wal_append() {
        let dir = crate::testutil::temp_dir("manager-wal-append");
        let m = StorageManager::with_options(StorageOptions::at(&dir).with_window_spill(64));
        m.create_table("window", schema(), Retention::Unbounded)
            .unwrap();
        m.create_table_durable("history", schema(), Retention::Unbounded)
            .unwrap();
        let appends = &m.telemetry().wal_append_micros;
        for i in 0..20 {
            let e = StreamElement::new(schema(), vec![Value::Integer(i)], Timestamp(i)).unwrap();
            m.insert("window", e, Timestamp(i)).unwrap();
        }
        assert_eq!(m.stats().spilled_tables, 1);
        assert!(m.stats().spilled_rows > 0, "the window must have spilled");
        assert_eq!(appends.count(), 0, "a spilled window writes no log");
        let e = StreamElement::new(schema(), vec![Value::Integer(1)], Timestamp(1)).unwrap();
        m.insert("history", e, Timestamp(1)).unwrap();
        assert_eq!(appends.count(), 1);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the property under test needs other threads
    fn concurrent_inserts_are_safe() {
        let m = Arc::new(StorageManager::new());
        m.create_table("t", schema(), Retention::Unbounded).unwrap();
        let mut handles = Vec::new();
        for worker in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    let ts = Timestamp(worker * 1_000 + i);
                    let e = StreamElement::new(schema(), vec![Value::Integer(i)], ts).unwrap();
                    m.insert("t", e, ts).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.table("t").unwrap().read().len(), 1_000);
        assert_eq!(m.stats().totals.inserted, 1_000);
    }
}
