//! Storage-layer telemetry: the instruments the storage manager records into.
//!
//! The handles live on the [`crate::StorageManager`] from construction, so
//! recording needs no registry and no branching; the container adopts the same
//! handles into its [`MetricsRegistry`] via
//! [`StorageTelemetry::register_into`], after which snapshots see the full
//! history.  Counters that other storage structs already maintain (buffer-pool
//! hits, retained bytes, spill totals…) are *not* duplicated here — the
//! container sources them from [`crate::StorageStats`] at snapshot time, so
//! there is exactly one authoritative cell per number.

use gsn_telemetry::{Counter, Histogram, MetricDesc, MetricsRegistry};

/// Time to insert one element into a stream table (lock, append, retention).
pub static STORAGE_INSERT_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_storage_insert_micros",
    "Latency of one stream-table insert",
    "microseconds",
);

/// Insert latency of the tables that log (durable tables only; spilled windows
/// write no log) — dominated by the WAL append plus the buffer-pool page write.
pub static STORAGE_WAL_APPEND_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_storage_wal_append_micros",
    "Latency of a durable insert (WAL append + page write)",
    "microseconds",
);

/// Latency of the container's per-step WAL group commit (one write and at most one
/// fsync), recorded when it drained records.
pub static STORAGE_WAL_SYNC_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_storage_wal_sync_micros",
    "Latency of one per-step WAL group commit",
    "microseconds",
);

/// Size of one drained WAL group-commit batch (records per commit).
pub static STORAGE_WAL_BATCH_RECORDS: MetricDesc = MetricDesc::histogram(
    "gsn_storage_wal_batch_records",
    "Records drained by one WAL group-commit batch",
    "records",
);

/// WAL fsyncs issued by per-step group commits (≤ 1 per step).
pub static STORAGE_WAL_FSYNCS: MetricDesc = MetricDesc::counter(
    "gsn_storage_wal_fsyncs_total",
    "WAL fsyncs issued by group commits",
    "syncs",
);

/// Duration of one full retention maintenance pass across all tables.
pub static STORAGE_MAINTENANCE_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_storage_maintenance_micros",
    "Duration of one retention maintenance pass",
    "microseconds",
);

/// Duration of one table's segment reclaim (head deletion + boundary compaction).
pub static STORAGE_RECLAIM_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_storage_reclaim_micros",
    "Duration of one table's segment reclaim/compact step",
    "microseconds",
);

/// Fully dead segment files deleted by maintenance.
pub static STORAGE_SEGMENTS_DELETED: MetricDesc = MetricDesc::counter(
    "gsn_storage_segments_deleted_total",
    "Dead segment files deleted by retention maintenance",
    "segments",
);

/// Boundary segments compacted by maintenance.
pub static STORAGE_SEGMENTS_COMPACTED: MetricDesc = MetricDesc::counter(
    "gsn_storage_segments_compacted_total",
    "Boundary segments compacted by retention maintenance",
    "segments",
);

/// File bytes returned to the filesystem by maintenance.
pub static STORAGE_BYTES_RECLAIMED: MetricDesc = MetricDesc::counter(
    "gsn_storage_bytes_reclaimed_total",
    "File bytes reclaimed by retention maintenance",
    "bytes",
);

/// Bounded scans opened through a segment index seek (pushed-down bounds).
pub static STORAGE_INDEX_SEEKS: MetricDesc = MetricDesc::counter(
    "gsn_storage_index_seeks_total",
    "Scans positioned via segment-index bounds instead of row 0",
    "seeks",
);

/// Pages skipped by index bounds (rows outside pushed-down key/time ranges).
pub static STORAGE_INDEX_PAGES_SKIPPED: MetricDesc = MetricDesc::counter(
    "gsn_storage_index_pages_skipped_total",
    "Heap pages skipped by segment-index key/time bounds",
    "pages",
);

/// The live instrument handles of the storage layer.
#[derive(Debug, Clone, Default)]
pub struct StorageTelemetry {
    /// All-table insert latency.
    pub insert_micros: Histogram,
    /// Logged (durable) insert latency (WAL append + page write).
    pub wal_append_micros: Histogram,
    /// Per-step group-commit latency.
    pub wal_sync_micros: Histogram,
    /// Records per drained batch.
    pub wal_batch_records: Histogram,
    /// Fsyncs issued by group commits.
    pub wal_fsyncs: Counter,
    /// Full maintenance pass duration.
    pub maintenance_micros: Histogram,
    /// Per-table reclaim/compact duration.
    pub reclaim_micros: Histogram,
    /// Dead segments deleted.
    pub segments_deleted: Counter,
    /// Boundary segments compacted.
    pub segments_compacted: Counter,
    /// Bytes reclaimed.
    pub bytes_reclaimed: Counter,
    /// Scans positioned via segment-index bounds.
    pub index_seeks: Counter,
    /// Pages skipped by segment-index bounds.
    pub index_pages_skipped: Counter,
}

impl StorageTelemetry {
    /// Fresh, detached handles (recording works immediately).
    pub fn new() -> StorageTelemetry {
        StorageTelemetry::default()
    }

    /// Adopts every handle into `registry` so snapshots include them.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_histogram(&STORAGE_INSERT_MICROS, &self.insert_micros);
        registry.register_histogram(&STORAGE_WAL_APPEND_MICROS, &self.wal_append_micros);
        registry.register_histogram(&STORAGE_WAL_SYNC_MICROS, &self.wal_sync_micros);
        registry.register_histogram(&STORAGE_WAL_BATCH_RECORDS, &self.wal_batch_records);
        registry.register_counter(&STORAGE_WAL_FSYNCS, &self.wal_fsyncs);
        registry.register_histogram(&STORAGE_MAINTENANCE_MICROS, &self.maintenance_micros);
        registry.register_histogram(&STORAGE_RECLAIM_MICROS, &self.reclaim_micros);
        registry.register_counter(&STORAGE_SEGMENTS_DELETED, &self.segments_deleted);
        registry.register_counter(&STORAGE_SEGMENTS_COMPACTED, &self.segments_compacted);
        registry.register_counter(&STORAGE_BYTES_RECLAIMED, &self.bytes_reclaimed);
        registry.register_counter(&STORAGE_INDEX_SEEKS, &self.index_seeks);
        registry.register_counter(&STORAGE_INDEX_PAGES_SKIPPED, &self.index_pages_skipped);
    }
}
