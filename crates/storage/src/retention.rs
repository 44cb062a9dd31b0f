//! Retention reclamation: the maintenance pass that turns logical pruning into
//! reclaimed file space.
//!
//! Pruning (see [`crate::StreamTable::prune`]) is cheap and logical — it advances a
//! watermark; dead rows keep occupying their segment files.  The *maintenance pass*
//! ([`crate::StorageManager::maintain`], run inline by the container step loop every
//! few steps) walks every table and asks its backend to
//! [`reclaim`](crate::StorageBackend::reclaim):
//!
//! * **head-segment deletion** — a sealed segment whose rows are all below the prune
//!   watermark is deleted outright (one `unlink`, no data copied);
//! * **boundary compaction** — the first segment still holding live rows is rewritten
//!   without its dead prefix once the dead fraction reaches
//!   [`COMPACT_MIN_DEAD_RATIO`], so a long-lived bounded table converges to at most
//!   one partially-dead segment plus the live ones.
//!
//! Both operations preserve the global row numbering (and therefore the exact
//! sequence→row mapping delta cursors rely on); scans re-resolve their position by row
//! index per batch, so cursors opened before a reclamation keep reading correctly
//! after it.

use std::fmt;

/// Dead fraction of the boundary segment's rows at which compaction kicks in.  Below
/// this, rewriting would copy mostly-live data for little reclaimed space; at 0.5 a
/// bounded table's on-disk footprint stays within roughly one segment of its live data.
pub const COMPACT_MIN_DEAD_RATIO: f64 = 0.5;

/// What one reclamation pass (or a lifetime of them, when accumulated) freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Fully dead segments deleted.
    pub segments_deleted: u64,
    /// Partially dead segments compacted (rewritten without their dead prefix).
    pub segments_compacted: u64,
    /// File bytes returned to the filesystem.
    pub bytes_reclaimed: u64,
    /// Live rows copied into replacement segments by compaction.
    pub rows_rewritten: u64,
}

impl ReclaimStats {
    /// Accumulates another pass into this one.
    pub fn merge(&mut self, other: &ReclaimStats) {
        self.segments_deleted += other.segments_deleted;
        self.segments_compacted += other.segments_compacted;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.rows_rewritten += other.rows_rewritten;
    }

    /// True when the pass freed nothing.
    pub fn is_empty(&self) -> bool {
        self.segments_deleted == 0 && self.segments_compacted == 0
    }
}

impl fmt::Display for ReclaimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} segments deleted, {} compacted ({} rows rewritten), {} bytes reclaimed",
            self.segments_deleted,
            self.segments_compacted,
            self.rows_rewritten,
            self.bytes_reclaimed
        )
    }
}

/// Point-in-time on-disk footprint of one table's backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskUsage {
    /// File bytes currently on disk (segments + WAL).
    pub on_disk_bytes: u64,
    /// Segments still holding at least one live row.
    pub live_segments: u64,
    /// Segment files on disk.
    pub total_segments: u64,
    /// Cumulative bytes reclaimed by maintenance over this incarnation's lifetime.
    pub reclaimed_bytes: u64,
    /// Cumulative segments deleted or compacted away.
    pub reclaimed_segments: u64,
}

impl DiskUsage {
    /// Accumulates another table's usage (node-level aggregation).
    pub fn merge(&mut self, other: &DiskUsage) {
        self.on_disk_bytes += other.on_disk_bytes;
        self.live_segments += other.live_segments;
        self.total_segments += other.total_segments;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.reclaimed_segments += other.reclaimed_segments;
    }
}

/// What one [`crate::StorageManager::maintain`] pass did across every table.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceReport {
    /// False when the pass was skipped because another one was already running.
    pub ran: bool,
    /// Tables visited.
    pub tables: usize,
    /// Combined reclamation of this pass.
    pub reclaim: ReclaimStats,
}

/// Lifetime maintenance counters kept by the storage manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceTotals {
    /// Maintenance passes completed.
    pub passes: u64,
    /// Accumulated reclamation across all passes.
    pub reclaim: ReclaimStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaim_stats_merge_and_display() {
        let mut a = ReclaimStats {
            segments_deleted: 1,
            segments_compacted: 2,
            bytes_reclaimed: 100,
            rows_rewritten: 7,
        };
        assert!(!a.is_empty());
        a.merge(&ReclaimStats {
            segments_deleted: 3,
            segments_compacted: 0,
            bytes_reclaimed: 50,
            rows_rewritten: 0,
        });
        assert_eq!(a.segments_deleted, 4);
        assert_eq!(a.bytes_reclaimed, 150);
        assert!(a.to_string().contains("4 segments deleted"));
        assert!(ReclaimStats::default().is_empty());
    }

    #[test]
    fn disk_usage_merges() {
        let mut a = DiskUsage {
            on_disk_bytes: 10,
            live_segments: 1,
            total_segments: 2,
            reclaimed_bytes: 5,
            reclaimed_segments: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.on_disk_bytes, 20);
        assert_eq!(a.total_segments, 4);
    }
}
