//! Container configuration.
//!
//! GSN aims at a "light-weight implementation (small memory foot-print, low hardware and
//! bandwidth requirements)" (paper, Section 1): a container is configured with a handful
//! of knobs rather than a heavyweight deployment descriptor of its own.

use std::path::PathBuf;
use std::sync::Arc;

use gsn_storage::{PersistentOptions, StorageOptions, SyncMode};
use gsn_types::{Clock, NodeId, SystemClock};

/// Configuration of one GSN container.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// The node identity used in the peer-to-peer overlay.
    pub node_id: NodeId,
    /// Human-readable container name (used in status reports and directory metadata).
    pub name: String,
    /// Maximum number of virtual sensors this container will host (resource guard).
    pub max_virtual_sensors: usize,
    /// Capacity of the per-remote-subscriber disconnect buffer: how many output elements
    /// are retained for a subscriber that is temporarily unreachable.
    pub disconnect_buffer_capacity: usize,
    /// Incremental (delta-window) evaluation of registered continuous queries.  On by
    /// default: queries whose plan the incremental executor can maintain are evaluated
    /// against only the rows that arrived since their previous evaluation, instead of
    /// re-executing the full history window per stream element.  Turn off to force
    /// full re-evaluation everywhere (ablation / parity-testing knob).
    pub incremental_queries: bool,
    /// Directory for persistent storage. When set, virtual sensors with
    /// `permanent-storage="true"` (or `backend="disk"`) keep their output history in
    /// page files here and recover it when a container re-opens the same directory.
    /// `None` keeps every table in memory (the seed behaviour).
    pub data_dir: Option<PathBuf>,
    /// Container-wide buffer-pool page budget shared by every persistent table
    /// (resident memory ≈ pages × 8 KiB, cross-table eviction).
    pub storage_pool_pages: usize,
    /// Write-ahead-log durability mode for persistent tables.
    pub wal_sync: SyncMode,
    /// Pages per heap segment for persistent tables (fixed-capacity segment files are
    /// what lets the retention pass reclaim disk space).  The default is ≈1 MiB per
    /// segment.
    pub storage_segment_pages: u32,
    /// Run the storage maintenance pass (retention reclamation: head-segment deletion
    /// and boundary compaction) every this many steps, inline at the end of the step
    /// that reaches the interval.  `0` disables maintenance.
    pub maintenance_interval_steps: u64,
    /// Resident-memory budget for source windows: when set (and `data_dir` is
    /// configured), a memory-backed window whose payload bytes exceed this budget
    /// transparently spills its cold prefix to a persistent segment store — very large
    /// time windows (`storage-size="30d"`) then query in bounded memory through the
    /// shared buffer pool.  `None` keeps windows fully resident (the seed behaviour).
    pub window_spill_bytes: Option<usize>,
    /// Structured tracing of pipeline spans.  Off by default: span begin/finish then
    /// costs one relaxed atomic load and allocates nothing.
    pub trace_enabled: bool,
    /// Ring-buffer capacity of the trace log (oldest spans overwritten first).
    pub trace_capacity: usize,
    /// Queries slower than this land in the slow-query log with their plan explain.
    /// `0` (the default) disables the log entirely — the observe path allocates
    /// nothing.
    pub slow_query_threshold_micros: u64,
    /// Thresholds of the mesh health model (evaluated on gossip rounds and
    /// gossiped to peers; standalone containers never evaluate them).
    pub health_thresholds: gsn_telemetry::HealthThresholds,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        ContainerConfig {
            node_id: NodeId::LOCAL,
            name: "gsn-node".to_owned(),
            max_virtual_sensors: 1_024,
            disconnect_buffer_capacity: 64,
            incremental_queries: true,
            data_dir: None,
            storage_pool_pages: 4 * PersistentOptions::default().pool_pages,
            wal_sync: SyncMode::default(),
            storage_segment_pages: PersistentOptions::default().segment_pages,
            maintenance_interval_steps: 8,
            window_spill_bytes: None,
            trace_enabled: false,
            trace_capacity: gsn_telemetry::DEFAULT_TRACE_CAPACITY,
            slow_query_threshold_micros: 0,
            health_thresholds: gsn_telemetry::HealthThresholds::default(),
        }
    }
}

impl ContainerConfig {
    /// A configuration for a named node.
    pub fn named(node_id: NodeId, name: &str) -> ContainerConfig {
        ContainerConfig {
            node_id,
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Enables persistent storage under `data_dir`.
    pub fn with_data_dir(mut self, data_dir: impl Into<PathBuf>) -> ContainerConfig {
        self.data_dir = Some(data_dir.into());
        self
    }

    /// Ignores its argument: every step runs on the caller's thread.  Kept only for
    /// callers written against the removed worker-pool option.
    #[doc(hidden)]
    pub fn with_workers(self, _workers: usize) -> ContainerConfig {
        self
    }

    /// Enables disk spilling for source windows with the given resident budget
    /// (requires a data directory to take effect).
    pub fn with_window_spill(mut self, budget_bytes: usize) -> ContainerConfig {
        self.window_spill_bytes = Some(budget_bytes);
        self
    }

    /// Enables (or disables) structured tracing of pipeline spans.
    pub fn with_tracing(mut self, enabled: bool) -> ContainerConfig {
        self.trace_enabled = enabled;
        self
    }

    /// Logs queries slower than `micros` with their plan explain (`0` disables).
    pub fn with_slow_query_threshold(mut self, micros: u64) -> ContainerConfig {
        self.slow_query_threshold_micros = micros;
        self
    }

    /// Overrides the mesh health-model thresholds.
    pub fn with_health_thresholds(
        mut self,
        thresholds: gsn_telemetry::HealthThresholds,
    ) -> ContainerConfig {
        self.health_thresholds = thresholds;
        self
    }

    /// The storage-layer options derived from this configuration.
    pub fn storage_options(&self) -> StorageOptions {
        StorageOptions {
            data_dir: self.data_dir.clone(),
            persistent: PersistentOptions {
                pool_pages: self.storage_pool_pages,
                sync: self.wal_sync,
                // Group commit: one batched WAL fsync per container step (the step
                // loop commits at every step boundary) instead of one per insert.
                group_commit: true,
                segment_pages: self.storage_segment_pages,
                ..PersistentOptions::default()
            },
            window_spill_bytes: self.window_spill_bytes,
        }
    }
}

/// The clock a container runs on: wall-clock for live deployments, simulated for tests
/// and benchmark harnesses.
pub type SharedClock = Arc<dyn Clock>;

/// The default wall clock.
pub fn system_clock() -> SharedClock {
    Arc::new(SystemClock::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::SimulatedClock;

    #[test]
    fn defaults_are_sensible() {
        let c = ContainerConfig::default();
        assert_eq!(c.node_id, NodeId::LOCAL);
        assert!(c.max_virtual_sensors >= 1);
        assert!(c.disconnect_buffer_capacity > 0);
    }

    #[test]
    fn named_sets_identity() {
        let c = ContainerConfig::named(NodeId::new(7), "camera-node");
        assert_eq!(c.node_id, NodeId::new(7));
        assert_eq!(c.name, "camera-node");
    }

    #[test]
    fn clocks_are_pluggable() {
        let wall = system_clock();
        assert!(wall.now().as_millis() > 0);
        let sim: SharedClock = Arc::new(SimulatedClock::new());
        assert_eq!(sim.now(), gsn_types::Timestamp::EPOCH);
    }
}
