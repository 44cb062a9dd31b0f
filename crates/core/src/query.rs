//! The query repository: ad-hoc queries, registered client queries, and their
//! evaluation against the live storage.
//!
//! "Query processing is done by the query manager (QM) which includes the query processor
//! being in charge of SQL parsing, query planning, and execution of queries [...].  The
//! query repository manages all registered queries (subscriptions) and defines and
//! maintains the set of currently active queries for the query processor" (paper,
//! Section 4).
//!
//! Registered client queries are the workload of the paper's Figure 4 experiment: N
//! clients each register a filtering query over a virtual sensor's output; every new
//! output element causes all affected queries to be (re-)executed and their results
//! delivered.  **Incremental evaluation** keeps that inner loop cheap: each registered
//! query caches its catalog views at registration time and, when the plan shape allows
//! it, holds a resident [`ContinuousPlan`].  Per element, only the *delta* rows since the
//! query's last-seen storage sequence are read (through the storage layer's delta
//! cursor) and folded into running operator state, with window-slide retraction on the
//! other end.  Plans the incremental executor cannot maintain (joins, sorts, `DISTINCT`,
//! subqueries, …) fall back transparently to full re-evaluation over the live catalog.
//! Per-element cost drops from `O(window × queries)` to `O(delta × affected-queries)`.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use gsn_sql::{ContinuousPlan, EngineStats, PreparedQuery, Relation, SqlEngine, WindowBound};
use gsn_storage::{
    sampling_stride, CatalogView, LiveCatalog, ScanBounds, StorageManager, StreamTable, WindowSpec,
};
use gsn_telemetry::{SlowQuery, SlowQueryLog, Stopwatch};
use gsn_types::{GsnError, GsnResult, StreamElement, Timestamp};
use parking_lot::Mutex;

use crate::telemetry::QueryTelemetry;

/// Identifies a registered client query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientQueryId(pub u64);

/// A query registered by a client (subscription-style continuous query).
#[derive(Debug, Clone)]
pub struct ClientQuery {
    /// The query id.
    pub id: ClientQueryId,
    /// The registering client's name (used for notification routing and status).
    pub client: String,
    /// The SQL text.
    pub sql: String,
    /// The compiled plan.
    prepared: PreparedQuery,
    /// The history window applied to every table the query reads, subquery tables
    /// included.
    pub history: WindowSpec,
    /// Optional uniform sampling applied to the history before evaluation.
    pub sampling_rate: Option<f64>,
    /// Catalog views built once at registration time; full evaluations lend them to a
    /// [`LiveCatalog`] instead of rebuilding them per stream element.
    views: Vec<CatalogView>,
    /// Resident incremental state (compiled lazily on first evaluation, when the
    /// referenced table's schema is known).
    incremental: IncrementalSlot,
}

impl ClientQuery {
    /// Every table the query reads, subquery tables included.
    pub fn referenced_tables(&self) -> &[String] {
        self.prepared.referenced_tables()
    }

    /// True while the query evaluates through the incremental (delta-window) path.
    ///
    /// Listing snapshots from [`QueryRepository::registered`] drop the resident state,
    /// so this reads false on them even for incrementally evaluated queries; the
    /// repository's `incremental_evaluated` statistics are the authoritative signal.
    pub fn is_incremental(&self) -> bool {
        matches!(self.incremental, IncrementalSlot::Active(_))
    }

    /// A listing clone without the resident incremental window state (which can hold
    /// `O(window)` rows and is meaningless outside the owning repository).
    fn snapshot(&self) -> ClientQuery {
        ClientQuery {
            id: self.id,
            client: self.client.clone(),
            sql: self.sql.clone(),
            prepared: self.prepared.clone(),
            history: self.history,
            sampling_rate: self.sampling_rate,
            views: self.views.clone(),
            incremental: match self.incremental {
                IncrementalSlot::Unsupported => IncrementalSlot::Unsupported,
                _ => IncrementalSlot::Untried,
            },
        }
    }
}

#[derive(Debug, Clone)]
enum IncrementalSlot {
    /// Compilation not yet attempted (the table's schema is known only at run time).
    Untried,
    /// The plan shape cannot be maintained incrementally (or an evaluation failed);
    /// every evaluation uses the full path.
    Unsupported,
    /// Live resident state.
    Active(Box<ContinuousState>),
}

#[derive(Debug, Clone)]
struct ContinuousState {
    plan: ContinuousPlan,
    /// Identity of the table the state was seeded from.  A dropped-and-recreated
    /// table is a *different* allocation, so a pointer mismatch re-seeds even when the
    /// replacement accrued as many rows as the original (the weak reference keeps the
    /// old allocation's address from being reused while the state holds it).
    table: Weak<parking_lot::RwLock<StreamTable>>,
    /// Highest storage sequence folded into the resident state.
    last_seq: u64,
    /// Last evaluation instant: time-window retraction is monotone, so a regressing
    /// clock re-seeds the state instead of diverging.
    last_now: Timestamp,
}

/// One result of evaluating a registered query.
#[derive(Debug, Clone)]
pub struct ClientQueryResult {
    /// The query that produced the result.
    pub query_id: ClientQueryId,
    /// The registering client.
    pub client: String,
    /// The result relation.
    pub relation: Relation,
    /// When the evaluation happened.
    pub evaluated_at: Timestamp,
}

/// Statistics of the query repository.
///
/// The incremental-vs-fallback split is *not* duplicated here: those counts live only
/// in the repository's shared [`QueryTelemetry`] cells (see
/// [`QueryRepository::telemetry`]), which every metrics snapshot and status report
/// reads from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryManagerStats {
    /// Ad-hoc queries executed.
    pub adhoc_executed: u64,
    /// Registered-query evaluations performed (incremental + full).
    pub registered_evaluated: u64,
    /// Registered-query evaluations that failed.
    pub registered_failed: u64,
}

/// Attempts the incremental path for one query: compiles the resident plan on first
/// use, then folds in the delta rows since the query's last-seen sequence.  Returns
/// `None` when the query must take the full path (unsupported shape, missing table, or
/// an incremental failure — which permanently downgrades the query).
fn try_incremental(
    query: &mut ClientQuery,
    storage: &StorageManager,
    now: Timestamp,
) -> Option<Relation> {
    if matches!(query.incremental, IncrementalSlot::Unsupported) {
        return None;
    }
    if query.referenced_tables().len() != 1 {
        query.incremental = IncrementalSlot::Unsupported;
        return None;
    }
    let table_name = query.referenced_tables()[0].clone();
    // An unknown table fails identically on the full path, keeping behaviour uniform.
    let table = storage.table(&table_name).ok()?;
    let result = advance_incremental(query, &table_name, &table, now);
    match result {
        Ok(relation) => relation,
        Err(_) => {
            // The resident state may no longer mirror full evaluation: downgrade.
            query.incremental = IncrementalSlot::Unsupported;
            None
        }
    }
}

fn advance_incremental(
    query: &mut ClientQuery,
    table_name: &str,
    table: &Arc<parking_lot::RwLock<StreamTable>>,
    now: Timestamp,
) -> GsnResult<Option<Relation>> {
    loop {
        match &mut query.incremental {
            IncrementalSlot::Unsupported => return Ok(None),
            IncrementalSlot::Untried => {
                let guard = table.read();
                let columns = Relation::stream_columns(table_name, guard.schema());
                let stride = query.sampling_rate.and_then(sampling_stride);
                let Some(plan) = ContinuousPlan::compile(query.prepared.plan(), &columns, stride)
                else {
                    drop(guard);
                    query.incremental = IncrementalSlot::Unsupported;
                    return Ok(None);
                };
                // Seed: the current window contents become the initial resident state
                // (one window-sized scan; every later evaluation reads only the delta).
                let last_seq = guard.last_sequence();
                // Time windows seed through an index-bounded range scan: the segment
                // index skips every page wholly older than the cutoff, so seeding a
                // short window over a long durable history reads O(window) pages, not
                // O(history).  The bound is a page-granular superset — `evaluate`'s
                // `WindowBound::Since` pruning pops any too-old leading rows.
                let seed = match query.history {
                    WindowSpec::Time(d) => {
                        let bounds = ScanBounds {
                            min_ts: Some(now.saturating_sub(d).as_millis()),
                            ..ScanBounds::default()
                        };
                        guard.scan(WindowSpec::Count(usize::MAX), now, &bounds)?
                    }
                    window => guard.scan(window, now, &ScanBounds::default())?,
                };
                let delta: Vec<_> = seed.into_iter().map(element_row).collect();
                let oldest = guard.first_live_sequence()?;
                drop(guard);
                let mut state = ContinuousState {
                    plan,
                    table: Arc::downgrade(table),
                    last_seq,
                    last_now: now,
                };
                let relation =
                    state
                        .plan
                        .evaluate(delta, window_bound(query.history, now), oldest)?;
                query.incremental = IncrementalSlot::Active(Box::new(state));
                return Ok(Some(relation));
            }
            IncrementalSlot::Active(state) => {
                if state.table.as_ptr() != Arc::as_ptr(table) {
                    // The table was dropped and recreated (undeploy/redeploy): the
                    // resident state describes the old incarnation, whatever the new
                    // one's sequence numbers look like.  Re-seed from scratch.
                    query.incremental = IncrementalSlot::Untried;
                    continue;
                }
                let guard = table.read();
                let new_last = guard.last_sequence();
                if now < state.last_now || new_last < state.last_seq {
                    // Clock regression (time retraction is monotone) or a sequence
                    // regression: re-seed from scratch.
                    drop(guard);
                    query.incremental = IncrementalSlot::Untried;
                    continue;
                }
                let after = ScanBounds {
                    min_seq: Some(state.last_seq + 1),
                    ..ScanBounds::default()
                };
                let delta: Vec<_> = guard
                    .scan(WindowSpec::Count(usize::MAX), now, &after)?
                    .into_iter()
                    .map(element_row)
                    .collect();
                let oldest = guard.first_live_sequence()?;
                drop(guard);
                let relation =
                    state
                        .plan
                        .evaluate(delta, window_bound(query.history, now), oldest)?;
                state.last_seq = new_last;
                state.last_now = now;
                return Ok(Some(relation));
            }
        }
    }
}

/// Flattens a stream element into the delta-row form the incremental executor consumes
/// (`[PK, TIMED, fields...]`, the scan layout).
fn element_row(element: StreamElement) -> (u64, Timestamp, Vec<gsn_types::Value>) {
    let (sequence, timestamp) = (element.sequence(), element.timestamp());
    (sequence, timestamp, Relation::stream_row(element))
}

/// Maps a query's history window to the incremental executor's bound at `now`.
fn window_bound(history: WindowSpec, now: Timestamp) -> WindowBound {
    match history {
        WindowSpec::Count(n) => WindowBound::Count(n),
        WindowSpec::LatestOnly => WindowBound::Count(1),
        WindowSpec::Time(d) => WindowBound::Since(now.saturating_sub(d)),
    }
}

/// The query repository of one container.
///
/// All methods take `&self`: the container's `&self` APIs (registration, ad-hoc
/// queries, cursors, status) reach it, so its state sits behind one mutex.
#[derive(Debug)]
pub struct QueryRepository {
    state: Mutex<RepositoryState>,
    incremental: bool,
    /// Shared instrument cells for the incremental/fallback split and per-evaluation
    /// latency — the single ledger of those counts (see [`QueryManagerStats`]).
    telemetry: QueryTelemetry,
    /// Registered-query evaluations slower than the configured threshold land here
    /// with their plan explain (disabled until a threshold is set).
    slow_queries: Arc<SlowQueryLog>,
}

/// The registered queries, their table index, and the SQL engine (prepared-plan cache
/// + fallback executor).
#[derive(Debug)]
struct RepositoryState {
    engine: SqlEngine,
    repository: HashMap<ClientQueryId, ClientQuery>,
    /// Index from output-table name to the queries that read it, registration order.
    by_table: HashMap<String, Vec<ClientQueryId>>,
    stats: QueryManagerStats,
    next_id: u64,
}

impl QueryRepository {
    /// Creates a repository; `incremental: false` forces full re-evaluation of every
    /// registered query.
    pub fn new(incremental: bool) -> QueryRepository {
        QueryRepository {
            state: Mutex::new(RepositoryState {
                engine: SqlEngine::new(),
                repository: HashMap::new(),
                by_table: HashMap::new(),
                stats: QueryManagerStats::default(),
                next_id: 1,
            }),
            incremental,
            telemetry: QueryTelemetry::new(),
            slow_queries: Arc::new(SlowQueryLog::default()),
        }
    }

    /// The repository's shared instrument handles (clones share the same cells).
    pub fn telemetry(&self) -> &QueryTelemetry {
        &self.telemetry
    }

    /// The slow-query log registered evaluations report into.  Disabled (zero
    /// threshold) until [`SlowQueryLog::set_threshold_micros`] is called on it.
    pub fn slow_query_log(&self) -> &Arc<SlowQueryLog> {
        &self.slow_queries
    }

    /// Hands the engine the shared SQL instrument handles (compile/open/execute
    /// latency histograms).
    pub fn set_sql_telemetry(&self, telemetry: &gsn_sql::SqlTelemetry) {
        self.state.lock().engine.set_telemetry(telemetry.clone());
    }

    /// Whether incremental (delta-window) evaluation is enabled.
    pub fn incremental_enabled(&self) -> bool {
        self.incremental
    }

    /// Executes a prepared ad-hoc (one-shot) query against the live storage, seeing the
    /// full retained history of every table.
    pub fn execute_adhoc(
        &self,
        prepared: &PreparedQuery,
        storage: &StorageManager,
        now: Timestamp,
    ) -> GsnResult<Relation> {
        let mut state = self.state.lock();
        state.stats.adhoc_executed += 1;
        let catalog = LiveCatalog::new(storage, &[], now);
        state.engine.execute_prepared(prepared, &catalog)
    }

    /// Registers a continuous client query.
    ///
    /// The query is indexed under, and re-evaluated on, every table in its table set
    /// ([`PreparedQuery::referenced_tables`], subquery tables included).  `history`
    /// bounds how much of each of those tables the query sees on every evaluation;
    /// `sampling_rate` optionally thins that history (both map directly to the
    /// random-query workload of the paper's Figure 4 experiment).  The query's catalog
    /// views are built here, once, and its incremental state is compiled lazily on
    /// first evaluation.
    pub fn register(
        &self,
        client: &str,
        sql: &str,
        history: WindowSpec,
        sampling_rate: Option<f64>,
    ) -> GsnResult<ClientQueryId> {
        if let Some(rate) = sampling_rate {
            if !(rate > 0.0 && rate <= 1.0) {
                return Err(GsnError::config(format!(
                    "sampling rate must be in (0, 1], got {rate}"
                )));
            }
        }
        let mut state = self.state.lock();
        let prepared = state.engine.prepare(sql)?;
        if prepared.referenced_tables().is_empty() {
            return Err(GsnError::sql_parse(
                "a registered query must read from at least one virtual sensor",
            ));
        }
        let id = ClientQueryId(state.next_id);
        state.next_id += 1;
        let views: Vec<CatalogView> = prepared
            .referenced_tables()
            .iter()
            .map(|t| {
                let mut view = CatalogView::new(t, t, history);
                if let Some(rate) = sampling_rate {
                    view = view.with_sampling(rate);
                }
                view
            })
            .collect();
        for table in prepared.referenced_tables() {
            state.by_table.entry(table.clone()).or_default().push(id);
        }
        state.repository.insert(
            id,
            ClientQuery {
                id,
                client: client.to_owned(),
                sql: sql.to_owned(),
                prepared,
                history,
                sampling_rate,
                views,
                incremental: IncrementalSlot::Untried,
            },
        );
        Ok(id)
    }

    /// Removes a registered query.
    pub fn deregister(&self, id: ClientQueryId) -> GsnResult<()> {
        let mut state = self.state.lock();
        let removed = state
            .repository
            .remove(&id)
            .ok_or_else(|| GsnError::not_found(format!("no registered query {id:?}")))?;
        for table in removed.referenced_tables() {
            if let Some(ids) = state.by_table.get_mut(table) {
                ids.retain(|q| *q != id);
                if ids.is_empty() {
                    state.by_table.remove(table);
                }
            }
        }
        Ok(())
    }

    /// The registered queries, ordered by id (listing snapshots — the resident
    /// incremental window state, which can hold `O(window)` rows per query, is *not*
    /// copied: active state snapshots as untried, so [`ClientQuery::is_incremental`]
    /// reads false on listings of incrementally evaluated queries).
    pub fn registered(&self) -> Vec<ClientQuery> {
        let mut all: Vec<ClientQuery> = self
            .state
            .lock()
            .repository
            .values()
            .map(ClientQuery::snapshot)
            .collect();
        all.sort_by_key(|q| q.id);
        all
    }

    /// Number of registered queries.
    pub fn registered_count(&self) -> usize {
        self.state.lock().repository.len()
    }

    /// The registered queries that read `table`, in registration order.
    pub fn queries_for_table(&self, table: &str) -> Vec<ClientQueryId> {
        let key = table.to_ascii_lowercase();
        self.state
            .lock()
            .by_table
            .get(&key)
            .cloned()
            .unwrap_or_default()
    }

    /// Evaluates every registered query affected by a new element in `table`, returning
    /// the per-query results (failed evaluations are skipped and counted).
    ///
    /// This is the inner loop of the Figure 4 experiment: its cost for N registered
    /// clients is what the paper reports as "total processing time for the set of
    /// clients".
    pub fn evaluate_for_table(
        &self,
        table: &str,
        storage: &StorageManager,
        now: Timestamp,
    ) -> Vec<ClientQueryResult> {
        let key = table.to_ascii_lowercase();
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let Some(ids) = state.by_table.get(&key) else {
            return Vec::new();
        };
        let mut results = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(query) = state.repository.get_mut(id) else {
                continue;
            };
            let watch = Stopwatch::start();
            let incremental = if self.incremental {
                try_incremental(query, storage, now)
            } else {
                None
            };
            let outcome = match incremental {
                Some(relation) => {
                    self.telemetry.incremental_evaluated.inc();
                    Ok(relation)
                }
                None => {
                    // Full re-evaluation over the live catalog, with the views cached
                    // at registration time (no per-element catalog rebuild).
                    self.telemetry.fallback_evaluated.inc();
                    let catalog = LiveCatalog::new(storage, &query.views, now);
                    state.engine.execute_prepared(&query.prepared, &catalog)
                }
            };
            let micros = watch.elapsed_micros();
            self.telemetry.eval_micros.record(micros);
            match outcome {
                Ok(relation) => {
                    state.stats.registered_evaluated += 1;
                    self.slow_queries.observe(micros, || SlowQuery {
                        sql: query.sql.clone(),
                        micros,
                        explain: query.prepared.explain(),
                        rows_scanned: 0,
                        rows_returned: relation.row_count() as u64,
                        hops: Vec::new(),
                    });
                    results.push(ClientQueryResult {
                        query_id: *id,
                        client: query.client.clone(),
                        relation,
                        evaluated_at: now,
                    });
                }
                Err(_) => {
                    state.stats.registered_failed += 1;
                }
            }
        }
        results
    }

    /// Compiles a query (hitting the prepared cache) without executing it — the entry
    /// point for the container's cursor API, which opens the plan itself.
    pub fn prepare(&self, sql: &str) -> GsnResult<PreparedQuery> {
        self.state.lock().engine.prepare(sql)
    }

    /// Folds a finished container cursor's counters into the engine statistics
    /// (streaming executions count like materialised ones).
    pub fn record_cursor(
        &self,
        rows_scanned: u64,
        rows_returned: u64,
        pages_skipped: u64,
        rows_residual_filtered: u64,
    ) {
        self.state.lock().engine.record_cursor(
            rows_scanned,
            rows_returned,
            pages_skipped,
            rows_residual_filtered,
        );
    }

    /// Compiles a query without registering or executing it (used for EXPLAIN-style
    /// inspection through the container API).
    pub fn explain(&self, sql: &str) -> GsnResult<String> {
        Ok(self.prepare(sql)?.explain())
    }

    /// Repository statistics, with the SQL engine's compile/cache/row counters.
    pub fn stats(&self) -> (QueryManagerStats, EngineStats) {
        let state = self.state.lock();
        (state.stats, state.engine.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_storage::Retention;
    use gsn_types::{DataType, StreamElement, StreamSchema, Value};
    use std::sync::Arc;

    fn storage_with_output() -> StorageManager {
        let storage = StorageManager::new();
        let schema = Arc::new(
            StreamSchema::from_pairs(&[
                ("temperature", DataType::Integer),
                ("room", DataType::Varchar),
            ])
            .unwrap(),
        );
        storage
            .create_table("room_temp", schema.clone(), Retention::Unbounded)
            .unwrap();
        for i in 0..20 {
            let e = StreamElement::new(
                schema.clone(),
                vec![
                    Value::Integer(15 + i),
                    Value::varchar(if i % 2 == 0 { "bc143" } else { "bc144" }),
                ],
                Timestamp(i * 100),
            )
            .unwrap();
            storage.insert("room_temp", e, Timestamp(i * 100)).unwrap();
        }
        storage
    }

    #[test]
    fn adhoc_queries_see_full_history() {
        let storage = storage_with_output();
        let qm = QueryRepository::new(true);
        let prepared = qm.prepare("select count(*) from room_temp").unwrap();
        let rel = qm
            .execute_adhoc(&prepared, &storage, Timestamp(2_000))
            .unwrap();
        assert_eq!(rel.rows()[0][0], Value::Integer(20));
        assert_eq!(qm.stats().0.adhoc_executed, 1);
    }

    #[test]
    fn register_evaluate_and_deregister() {
        let storage = storage_with_output();
        let qm = QueryRepository::new(true);
        let hot = qm
            .register(
                "client-1",
                "select temperature from room_temp where temperature > 30",
                WindowSpec::Count(100),
                None,
            )
            .unwrap();
        let avg = qm
            .register(
                "client-2",
                "select avg(temperature) from room_temp",
                WindowSpec::Time(gsn_types::Duration::from_secs(1)),
                None,
            )
            .unwrap();
        assert_eq!(qm.registered_count(), 2);
        assert_eq!(qm.queries_for_table("room_temp").len(), 2);
        assert_eq!(qm.queries_for_table("other").len(), 0);

        let results = qm.evaluate_for_table("room_temp", &storage, Timestamp(1_900));
        assert_eq!(results.len(), 2);
        let hot_result = results.iter().find(|r| r.query_id == hot).unwrap();
        assert_eq!(hot_result.client, "client-1");
        assert_eq!(hot_result.relation.row_count(), 4); // 31..34
        let avg_result = results.iter().find(|r| r.query_id == avg).unwrap();
        // Time window of 1s at t=1900 covers timestamps 900..1900 => temperatures 24..34.
        assert_eq!(avg_result.relation.rows()[0][0], Value::Double(29.0));
        // Both query shapes are maintained incrementally.
        assert_eq!(qm.telemetry().incremental_evaluated.get(), 2);
        assert_eq!(qm.telemetry().fallback_evaluated.get(), 0);
        assert_eq!(qm.telemetry().eval_micros.summary().count, 2);

        qm.deregister(hot).unwrap();
        assert!(qm.deregister(hot).is_err());
        assert_eq!(qm.registered_count(), 1);
        assert_eq!(qm.queries_for_table("room_temp").len(), 1);
        assert_eq!(qm.registered()[0].id, avg);
    }

    #[test]
    fn incremental_matches_full_across_arrivals() {
        let schema = Arc::new(
            StreamSchema::from_pairs(&[
                ("temperature", DataType::Integer),
                ("room", DataType::Varchar),
            ])
            .unwrap(),
        );
        let queries = [
            "select temperature from room_temp where temperature > 20",
            "select count(*) as n, avg(temperature) as a from room_temp",
            "select room, max(temperature) as hi from room_temp group by room",
            "select min(temperature) from room_temp where room = 'bc143'",
        ];
        let windows = [
            WindowSpec::Count(7),
            WindowSpec::Time(gsn_types::Duration::from_millis(450)),
        ];
        for window in windows {
            let incremental_storage = StorageManager::new();
            let full_storage = StorageManager::new();
            for s in [&incremental_storage, &full_storage] {
                s.create_table("room_temp", schema.clone(), Retention::Unbounded)
                    .unwrap();
            }
            let incremental = QueryRepository::new(true);
            let full = QueryRepository::new(false);
            for (i, sql) in queries.iter().enumerate() {
                incremental
                    .register(&format!("c{i}"), sql, window, None)
                    .unwrap();
                full.register(&format!("c{i}"), sql, window, None).unwrap();
            }
            for i in 0..30i64 {
                let ts = Timestamp(100 * (i + 1));
                for s in [&incremental_storage, &full_storage] {
                    let e = StreamElement::new(
                        schema.clone(),
                        vec![
                            Value::Integer((i * 13) % 37),
                            Value::varchar(if i % 3 == 0 { "bc143" } else { "bc144" }),
                        ],
                        ts,
                    )
                    .unwrap();
                    s.insert("room_temp", e, ts).unwrap();
                }
                let a = incremental.evaluate_for_table("room_temp", &incremental_storage, ts);
                let b = full.evaluate_for_table("room_temp", &full_storage, ts);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.relation.rows(), y.relation.rows(), "window {window:?}");
                    assert_eq!(x.relation.columns(), y.relation.columns());
                }
            }
            assert_eq!(
                incremental.telemetry().fallback_evaluated.get(),
                0,
                "window {window:?}"
            );
            assert_eq!(
                incremental.telemetry().incremental_evaluated.get(),
                30 * queries.len() as u64
            );
            assert_eq!(full.telemetry().incremental_evaluated.get(), 0);
        }
    }

    #[test]
    fn unsupported_shapes_fall_back_to_full_evaluation() {
        let storage = storage_with_output();
        let qm = QueryRepository::new(true);
        qm.register(
            "sorter",
            "select temperature from room_temp order by temperature desc limit 3",
            WindowSpec::Count(10),
            None,
        )
        .unwrap();
        let results = qm.evaluate_for_table("room_temp", &storage, Timestamp(2_000));
        assert_eq!(results[0].relation.row_count(), 3);
        assert_eq!(results[0].relation.rows()[0][0], Value::Integer(34));
        assert_eq!(qm.telemetry().fallback_evaluated.get(), 1);
        assert_eq!(qm.telemetry().incremental_evaluated.get(), 0);
        assert!(!qm.registered()[0].is_incremental());
    }

    #[test]
    fn sampling_thins_the_history() {
        let storage = storage_with_output();
        let qm = QueryRepository::new(true);
        qm.register(
            "sampler",
            "select count(*) as n from room_temp",
            WindowSpec::Count(20),
            Some(0.5),
        )
        .unwrap();
        let results = qm.evaluate_for_table("room_temp", &storage, Timestamp(2_000));
        assert_eq!(results[0].relation.rows()[0][0], Value::Integer(10));
    }

    #[test]
    fn invalid_registrations_are_rejected() {
        let qm = QueryRepository::new(true);
        assert!(qm
            .register("c", "select 1", WindowSpec::Count(1), None)
            .is_err());
        assert!(qm
            .register("c", "not sql at all", WindowSpec::Count(1), None)
            .is_err());
        assert!(qm
            .register("c", "select * from t", WindowSpec::Count(1), Some(0.0))
            .is_err());
        assert!(qm
            .register("c", "select * from t", WindowSpec::Count(1), Some(1.5))
            .is_err());
        assert_eq!(qm.registered_count(), 0);
    }

    #[test]
    fn failing_registered_queries_are_counted_not_fatal() {
        let storage = storage_with_output();
        let qm = QueryRepository::new(true);
        // References a column that does not exist: registration succeeds (the table is
        // known only at run time) but evaluation fails.
        qm.register(
            "broken-client",
            "select nonexistent_column from room_temp",
            WindowSpec::Count(10),
            None,
        )
        .unwrap();
        qm.register(
            "ok-client",
            "select count(*) from room_temp",
            WindowSpec::Count(10),
            None,
        )
        .unwrap();
        let results = qm.evaluate_for_table("room_temp", &storage, Timestamp(2_000));
        assert_eq!(results.len(), 1);
        let (stats, _) = qm.stats();
        assert_eq!(stats.registered_evaluated, 1);
        assert_eq!(stats.registered_failed, 1);
    }

    #[test]
    fn prepared_query_cache_is_shared_across_clients() {
        let qm = QueryRepository::new(true);
        let sql = "select avg(temperature) from room_temp";
        for i in 0..50 {
            qm.register(&format!("client-{i}"), sql, WindowSpec::Count(10), None)
                .unwrap();
        }
        let (_, engine_stats) = qm.stats();
        assert_eq!(engine_stats.compiled, 1);
        assert_eq!(engine_stats.cache_hits, 49);
    }

    #[test]
    fn cross_table_queries_are_indexed_under_every_table() {
        let qm = QueryRepository::new(true);
        qm.register(
            "joiner",
            "select a.temperature from room_temp a join hall_temp b on a.room = b.room",
            WindowSpec::Count(5),
            None,
        )
        .unwrap();
        let ids_a = qm.queries_for_table("room_temp");
        let ids_b = qm.queries_for_table("hall_temp");
        assert_eq!(ids_a.len(), 1);
        assert_eq!(ids_a, ids_b);
        assert_eq!(qm.registered_count(), 1);
    }

    #[test]
    fn incremental_state_reseeds_when_the_table_is_replaced() {
        let schema =
            Arc::new(StreamSchema::from_pairs(&[("temperature", DataType::Integer)]).unwrap());
        let storage = StorageManager::new();
        storage
            .create_table("t", schema.clone(), Retention::Unbounded)
            .unwrap();
        let qm = QueryRepository::new(true);
        qm.register(
            "c",
            "select count(*) as n from t",
            WindowSpec::Count(100),
            None,
        )
        .unwrap();
        qm.register(
            "s",
            "select sum(temperature) as s from t",
            WindowSpec::Count(100),
            None,
        )
        .unwrap();
        for i in 0..5i64 {
            let e =
                StreamElement::new(schema.clone(), vec![Value::Integer(i)], Timestamp(i)).unwrap();
            storage.insert("t", e, Timestamp(i)).unwrap();
        }
        let r = qm.evaluate_for_table("t", &storage, Timestamp(10));
        assert_eq!(r[0].relation.rows()[0][0], Value::Integer(5));
        assert_eq!(r[1].relation.rows()[0][0], Value::Integer(10)); // 0+1+2+3+4
                                                                    // Undeploy/redeploy: the table restarts with fresh sequence numbers.
        storage.drop_table("t").unwrap();
        storage
            .create_table("t", schema.clone(), Retention::Unbounded)
            .unwrap();
        let e = StreamElement::new(schema.clone(), vec![Value::Integer(9)], Timestamp(20)).unwrap();
        storage.insert("t", e, Timestamp(20)).unwrap();
        let r = qm.evaluate_for_table("t", &storage, Timestamp(20));
        assert_eq!(r[0].relation.rows()[0][0], Value::Integer(1));
        assert_eq!(r[1].relation.rows()[0][0], Value::Integer(9));

        // Replace again, this time refilling the new table to the *same* row count
        // before the next evaluation: sequence numbers alone cannot tell the
        // difference, so the table-identity check must force the re-seed.
        storage.drop_table("t").unwrap();
        storage
            .create_table("t", schema.clone(), Retention::Unbounded)
            .unwrap();
        for i in 0..2i64 {
            let ts = Timestamp(30 + i);
            let e = StreamElement::new(schema.clone(), vec![Value::Integer(100 + i)], ts).unwrap();
            storage.insert("t", e, ts).unwrap();
        }
        let r = qm.evaluate_for_table("t", &storage, Timestamp(40));
        assert_eq!(r[0].relation.rows()[0][0], Value::Integer(2));
        // Without the identity check the stale resident row (9) would merge with the
        // new table's delta (101) into 110 instead of 100 + 101.
        assert_eq!(r[1].relation.rows()[0][0], Value::Integer(201));
    }

    #[test]
    fn explain_renders_plans() {
        let qm = QueryRepository::new(true);
        let plan = qm
            .explain("select avg(temperature) from room_temp where room = 'bc143'")
            .unwrap();
        assert!(plan.contains("Aggregate"));
        assert!(plan.contains("Scan room_temp"));
        assert!(qm.explain("garbage").is_err());
    }
}
