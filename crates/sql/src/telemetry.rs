//! SQL-engine telemetry: compile/open/execute latency instruments.
//!
//! One [`SqlTelemetry`] is shared (via cheap handle clones) by every
//! [`crate::SqlEngine`] of a container, so all of them record into the same
//! cells.  Row counters (`rows_scanned` / `rows_returned`, cache hits,
//! executions) stay in [`crate::EngineStats`] — the container sources them
//! into the registry at snapshot time rather than double-counting here.

use gsn_telemetry::{Histogram, MetricDesc, MetricsRegistry};

/// Query compilation latency (parse + plan + optimize; cache hits excluded).
pub static SQL_COMPILE_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_sql_compile_micros",
    "Latency of one query compilation (parse + plan + optimize)",
    "microseconds",
);

/// Plan-open latency: building the physical cursor tree over the catalog.
pub static SQL_OPEN_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_sql_open_micros",
    "Latency of opening a prepared plan as a cursor tree",
    "microseconds",
);

/// Full execution latency of one prepared plan (open + pull every row).
pub static SQL_EXEC_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_sql_exec_micros",
    "Latency of one plan execution (open + next loop)",
    "microseconds",
);

/// The live instrument handles of the SQL layer.
#[derive(Debug, Clone, Default)]
pub struct SqlTelemetry {
    /// Compilation latency.
    pub compile_micros: Histogram,
    /// Plan-open latency.
    pub open_micros: Histogram,
    /// Full execution latency.
    pub exec_micros: Histogram,
}

impl SqlTelemetry {
    /// Fresh, detached handles.
    pub fn new() -> SqlTelemetry {
        SqlTelemetry::default()
    }

    /// Adopts every handle into `registry` so snapshots include them.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_histogram(&SQL_COMPILE_MICROS, &self.compile_micros);
        registry.register_histogram(&SQL_OPEN_MICROS, &self.open_micros);
        registry.register_histogram(&SQL_EXEC_MICROS, &self.exec_micros);
    }
}
