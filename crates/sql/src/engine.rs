//! The SQL engine facade: parse → plan → optimize → execute, with a prepared-query cache.
//!
//! The paper observes that with many registered clients "the cost of query compiling
//! increases" (Section 5, Figure 4 discussion).  [`SqlEngine`] therefore supports
//! *prepared* queries: the query repository compiles each registered client query once and
//! re-executes the cached plan per stream element.  The benchmark harness exercises both
//! the cached and the parse-per-execution paths.

use std::collections::HashMap;
use std::sync::Arc;

use gsn_types::{GsnResult, Value};

use crate::cursor::RowSource;
use crate::exec::{open_plan, Catalog, PlanSource};
use crate::optimizer::{optimize, OptimizerConfig};
use crate::parser::parse_query;
use crate::plan::{plan_query, LogicalPlan};
use crate::relation::Relation;
use crate::telemetry::SqlTelemetry;
use gsn_telemetry::Stopwatch;

/// A compiled (parsed, planned, optimised) query ready for repeated execution.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    sql: String,
    plan: Arc<LogicalPlan>,
    tables: Vec<String>,
}

impl PreparedQuery {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The optimised logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Every base table (stream source / virtual sensor) the query reads, subquery
    /// tables included: [`Query::tables`](crate::Query::tables) of the parsed query.
    pub fn referenced_tables(&self) -> &[String] {
        &self.tables
    }

    /// Opens the prepared plan as a pull-based cursor; rows stream from the catalog one
    /// at a time and a `LIMIT` stops pulling early.
    pub fn open(&self, catalog: &dyn Catalog) -> GsnResult<PlanSource> {
        open_plan(&self.plan, catalog)
    }

    /// Executes the prepared plan against a catalog, materialising the result (a
    /// `collect()` shim over [`open`](Self::open)).
    pub fn execute(&self, catalog: &dyn Catalog) -> GsnResult<Relation> {
        self.open(catalog)?.collect()
    }

    /// Renders the logical plan and the physical operator tree (streaming vs buffering
    /// per node) as an indented EXPLAIN string.
    pub fn explain(&self) -> String {
        format!(
            "logical plan:\n{}physical operators:\n{}",
            self.plan.explain(),
            self.plan.explain_physical()
        )
    }
}

/// Execution statistics maintained by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries compiled (parse + plan + optimize).
    pub compiled: u64,
    /// Compilations avoided thanks to the prepared-query cache.
    pub cache_hits: u64,
    /// Plan executions.
    pub executions: u64,
    /// Rows pulled out of base-table scans across all executions.
    pub rows_scanned: u64,
    /// Rows returned to consumers across all executions.  The gap to `rows_scanned`
    /// is the pull-based executor's early-exit saving (LIMIT queries stop scanning).
    pub rows_returned: u64,
    /// Storage pages skipped by pushed-down scan bounds, folded in from
    /// externally driven cursors via [`SqlEngine::record_cursor`].
    pub pages_skipped: u64,
    /// Compilations that pushed at least one bound/residual/projection/limit
    /// below a scan (the plan carries a non-default `ScanSpec`).
    pub pushdown_applied: u64,
    /// Rows dropped by residual predicates re-applied above pushed-down scans.
    pub rows_residual_filtered: u64,
}

/// The embedded SQL engine used by every GSN container.
#[derive(Debug)]
pub struct SqlEngine {
    optimizer: OptimizerConfig,
    cache: HashMap<String, PreparedQuery>,
    stats: EngineStats,
    telemetry: SqlTelemetry,
}

impl Default for SqlEngine {
    fn default() -> Self {
        SqlEngine::new()
    }
}

impl SqlEngine {
    /// Creates an engine with default optimizer settings and an empty prepared-query cache.
    pub fn new() -> SqlEngine {
        SqlEngine {
            optimizer: OptimizerConfig::default(),
            cache: HashMap::new(),
            stats: EngineStats::default(),
            telemetry: SqlTelemetry::new(),
        }
    }

    /// Replaces the engine's telemetry handles.  The query repository hands its
    /// engine a clone of the container-wide [`SqlTelemetry`], so its latency
    /// recordings land in the container's histograms.
    pub fn set_telemetry(&mut self, telemetry: SqlTelemetry) {
        self.telemetry = telemetry;
    }

    /// The engine's live telemetry handles.
    pub fn telemetry(&self) -> &SqlTelemetry {
        &self.telemetry
    }

    /// Creates an engine with explicit optimizer settings.
    pub fn with_optimizer(optimizer: OptimizerConfig) -> SqlEngine {
        SqlEngine {
            optimizer,
            ..SqlEngine::new()
        }
    }

    /// Compiles a query without executing it.
    pub fn prepare(&mut self, sql: &str) -> GsnResult<PreparedQuery> {
        if let Some(prepared) = self.cache.get(sql) {
            self.stats.cache_hits += 1;
            return Ok(prepared.clone());
        }
        let sw = Stopwatch::start();
        let prepared = Self::compile(sql, &self.optimizer)?;
        self.telemetry.compile_micros.record_elapsed(sw);
        self.stats.compiled += 1;
        if plan_has_pushdown(prepared.plan()) {
            self.stats.pushdown_applied += 1;
        }
        self.cache.insert(sql.to_owned(), prepared.clone());
        Ok(prepared)
    }

    /// Compiles a query without touching the cache or statistics (usable from `&self`
    /// contexts such as read-only validation).
    pub fn compile(sql: &str, optimizer: &OptimizerConfig) -> GsnResult<PreparedQuery> {
        let ast = parse_query(sql)?;
        let tables = ast.tables();
        let plan = plan_query(&ast)?;
        let plan = optimize(plan, optimizer)?;
        Ok(PreparedQuery {
            sql: sql.to_owned(),
            plan: Arc::new(plan),
            tables,
        })
    }

    /// Parses, plans, optimises and executes `sql` against `catalog`.
    pub fn execute(&mut self, sql: &str, catalog: &dyn Catalog) -> GsnResult<Relation> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared, catalog)
    }

    /// Executes a previously prepared query (counts towards execution statistics,
    /// including the scanned/returned row counters).
    pub fn execute_prepared(
        &mut self,
        prepared: &PreparedQuery,
        catalog: &dyn Catalog,
    ) -> GsnResult<Relation> {
        self.stats.executions += 1;
        let exec_sw = Stopwatch::start();
        let open_sw = Stopwatch::start();
        let mut source = prepared.open(catalog)?;
        self.telemetry.open_micros.record_elapsed(open_sw);
        let relation = source.collect();
        self.telemetry.exec_micros.record_elapsed(exec_sw);
        self.stats.rows_scanned += source.rows_scanned();
        self.stats.rows_returned += source.rows_returned();
        self.stats.rows_residual_filtered += source.rows_residual_filtered();
        relation
    }

    /// Folds the telemetry of an externally driven cursor (opened via
    /// [`PreparedQuery::open`] and consumed outside the engine) into the statistics,
    /// so streaming executions show up next to materialised ones.
    pub fn record_cursor(
        &mut self,
        rows_scanned: u64,
        rows_returned: u64,
        pages_skipped: u64,
        rows_residual_filtered: u64,
    ) {
        self.stats.executions += 1;
        self.stats.rows_scanned += rows_scanned;
        self.stats.rows_returned += rows_returned;
        self.stats.pages_skipped += pages_skipped;
        self.stats.rows_residual_filtered += rows_residual_filtered;
    }

    /// Convenience helper: executes a query expected to produce a single scalar value.
    pub fn execute_scalar(&mut self, sql: &str, catalog: &dyn Catalog) -> GsnResult<Value> {
        let rel = self.execute(sql, catalog)?;
        Ok(rel
            .rows()
            .first()
            .and_then(|r| r.first())
            .cloned()
            .unwrap_or(Value::Null))
    }

    /// Current statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of cached prepared queries.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }

    /// Drops all cached prepared queries.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

/// True when any scan in the plan carries a non-default pushed-down spec.
fn plan_has_pushdown(plan: &LogicalPlan) -> bool {
    if let LogicalPlan::Scan { spec, .. } = plan {
        if !spec.is_default() {
            return true;
        }
    }
    plan.children().into_iter().any(plan_has_pushdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::MemoryCatalog;
    use crate::relation::ColumnInfo;
    use gsn_types::DataType;

    fn catalog() -> MemoryCatalog {
        let mut c = MemoryCatalog::new();
        c.register(
            "readings",
            Relation::with_rows(
                vec![
                    ColumnInfo::new(None, "temperature", Some(DataType::Integer)),
                    ColumnInfo::new(None, "room", Some(DataType::Varchar)),
                ],
                vec![
                    vec![Value::Integer(20), Value::varchar("a")],
                    vec![Value::Integer(30), Value::varchar("b")],
                ],
            )
            .unwrap(),
        );
        c
    }

    #[test]
    fn execute_and_scalar() {
        let mut engine = SqlEngine::new();
        let cat = catalog();
        let rel = engine.execute("select * from readings", &cat).unwrap();
        assert_eq!(rel.row_count(), 2);
        let avg = engine
            .execute_scalar("select avg(temperature) from readings", &cat)
            .unwrap();
        assert_eq!(avg, Value::Double(25.0));
        let empty = engine
            .execute_scalar("select temperature from readings where room = 'zzz'", &cat)
            .unwrap();
        assert_eq!(empty, Value::Null);
    }

    #[test]
    fn prepared_queries_hit_the_cache() {
        let mut engine = SqlEngine::new();
        let cat = catalog();
        let sql = "select avg(temperature) from readings where room like 'a%'";
        engine.execute(sql, &cat).unwrap();
        engine.execute(sql, &cat).unwrap();
        engine.execute(sql, &cat).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.compiled, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.executions, 3);
        assert_eq!(engine.cache_size(), 1);
        engine.clear_cache();
        assert_eq!(engine.cache_size(), 0);
    }

    #[test]
    fn stats_track_scanned_vs_returned_rows() {
        let mut engine = SqlEngine::new();
        let cat = catalog();
        engine
            .execute("select * from readings limit 1", &cat)
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.rows_returned, 1);
        assert_eq!(stats.rows_scanned, 1, "LIMIT 1 must early-exit the scan");
        engine
            .execute("select count(*) from readings", &cat)
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.rows_scanned, 3);
        assert_eq!(stats.rows_returned, 2);
    }

    #[test]
    fn pushdown_counters_track_absorbed_predicates() {
        let mut engine = SqlEngine::new();
        let cat = catalog();
        engine
            .execute("select room from readings where temperature > 25", &cat)
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.pushdown_applied, 1);
        assert_eq!(
            stats.rows_residual_filtered, 1,
            "one of two rows fails temperature > 25"
        );
        // A bare full scan pushes nothing down and leaves the counter alone.
        engine.execute("select * from readings", &cat).unwrap();
        assert_eq!(engine.stats().pushdown_applied, 1);
    }

    #[test]
    fn prepared_query_exposes_metadata() {
        let mut engine = SqlEngine::new();
        let p = engine
            .prepare("select r.temperature from readings r where r.temperature > 10")
            .unwrap();
        assert_eq!(p.referenced_tables(), &["readings".to_owned()]);
        assert!(p.sql().contains("select"));
        assert!(p.explain().contains("Scan readings"));
        let cat = catalog();
        let rel = engine.execute_prepared(&p, &cat).unwrap();
        assert_eq!(rel.row_count(), 2);
    }

    #[test]
    fn parse_errors_are_reported_not_cached() {
        let mut engine = SqlEngine::new();
        let cat = catalog();
        assert!(engine.execute("selekt * from readings", &cat).is_err());
        assert_eq!(engine.cache_size(), 0);
        assert_eq!(engine.stats().compiled, 0);
    }

    #[test]
    fn with_optimizer_disables_passes() {
        let mut engine = SqlEngine::with_optimizer(OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: false,
        });
        let p = engine
            .prepare("select * from readings where 1 = 1")
            .unwrap();
        assert!(p.explain().contains("Filter"));
    }
}
