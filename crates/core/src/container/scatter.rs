//! Federated scatter-gather queries: the coordinator that fans a query out across the
//! mesh and merges the answers, and the stateless server side of the partial-aggregate
//! scatter.

use std::collections::HashMap;

use gsn_network::{Message, Principal, RequestId};
use gsn_sql::{PartialAggregatePlan, Relation};
use gsn_telemetry::{HopBreakdown, SlowQuery, SpanId, SpanToken, Stopwatch, TraceContext};
use gsn_types::{GsnError, GsnResult, NodeId, Timestamp, Value};

use super::exchange::{Flight, Kind};
use super::remote_query::{relation_of, serialize_micros};
use super::GsnContainer;

/// Rows per batch of the per-host sub-queries a row-shipping federated query issues.
const ROW_SHIP_BATCH_ROWS: usize = 256;

/// Coordinator-side state of one federated scatter-gather query.
pub(super) struct Scatter {
    /// The original SQL (re-run locally over shipped rows on the fallback path).
    sql: String,
    /// When the scatter was issued (for the latency histogram).
    started: Timestamp,
    mode: ScatterMode,
    /// Distributed-trace context of this scatter (`None` when tracing is disabled).
    trace: Option<TraceContext>,
    /// The coordinator's root span, finished when the gather completes.
    root_span: SpanToken,
    /// Per-peer wire-timing breakdown, accumulated as the gather progresses.
    hops: Vec<HopBreakdown>,
    /// The merged result, once complete; waits for its taker.
    result: Option<GsnResult<Relation>>,
}

/// How a federated query's scatter travels the wire.
enum ScatterMode {
    /// Decomposable aggregate: every host computes a container-side partial and only
    /// partial-aggregate frames travel — never raw rows.  The hosts whose partial has
    /// not arrived yet are the scatter's awaited peers.
    Partial {
        plan: PartialAggregatePlan,
        /// Partial result sets gathered so far (the local one included).
        partials: Vec<Vec<Vec<Value>>>,
    },
    /// Non-decomposable shape: ship every host's rows over the streaming-query wire,
    /// union them per table, and run the original SQL locally.  Each leg is a remote
    /// query of its own, re-sent by the exchange engine; the scatter awaits each leg's
    /// host once.
    RowShip {
        /// In-flight legs: `(remote query request, host, table)`.
        legs: Vec<(RequestId, NodeId, String)>,
        /// Per-table union of the shipped rows.
        tables: HashMap<String, Relation>,
        /// Tables the SQL references, in reference order.
        referenced: Vec<String>,
    },
}

/// Folds one host's shipped rows into the accumulating per-table union.
fn merge_shipped_rows(tables: &mut HashMap<String, Relation>, table: &str, incoming: Relation) {
    match tables.get_mut(table) {
        Some(existing) => {
            for row in incoming.rows() {
                let _ = existing.push_row(row.clone());
            }
        }
        None => {
            tables.insert(table.to_owned(), incoming);
        }
    }
}

impl GsnContainer {
    /// The mesh members hosting `table`'s rows per the replicated directory, restricted
    /// to this node plus current ring members (a departed node's not-yet-tombstoned
    /// entries must not be scattered to).
    fn federated_hosts(&self, table: &str) -> GsnResult<Vec<NodeId>> {
        let node = self.config.node_id;
        let hosts = self.on_mesh(|mesh| {
            let mut hosts = mesh.replica.lock().hosts_of_table(table);
            hosts.retain(|h| *h == node || mesh.ring.contains(*h));
            hosts
        });
        if hosts.is_empty() {
            return Err(GsnError::not_found(format!(
                "no federation member hosts table `{table}`"
            )));
        }
        Ok(hosts)
    }

    /// Issues a federated query across the mesh with this node as coordinator.
    ///
    /// Decomposable aggregates (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, optionally grouped and
    /// filtered) are rewritten container-side: every host executes a partial over its
    /// own rows and only partial-aggregate frames travel — no raw rows.  Everything
    /// else falls back to shipping each host's rows over the streaming-query wire and
    /// running the original SQL locally over the union.  Poll
    /// [`take_federated_result`](Self::take_federated_result) with the returned id.
    pub fn federated_query(&mut self, sql: &str) -> GsnResult<RequestId> {
        self.network_for("federated queries")?;
        let now = self.clock.now();
        let node = self.config.node_id;
        let request = self.exchanges.next_request();
        self.telemetry.scatter_queries_total.inc();
        // Distributed-trace root: the trace id derives from (node, request), so it
        // is mesh-unique without a random source.  With tracing disabled the token
        // is inert and `context()` is `None` — every scatter frame then carries no
        // trace context.
        let trace_id = ((node.as_u64() as u128) << 64) | request as u128;
        let root_span = self
            .runtime
            .trace
            .begin_traced("federated.query", SpanId::NONE, trace_id);
        let trace = root_span.context();
        let mut hops: Vec<HopBreakdown> = Vec::new();
        let mut awaiting = Vec::new();
        let mut resend = None;
        let mode = match gsn_sql::decompose(sql)? {
            Some(plan) => {
                let mut partials = Vec::new();
                let message = Message::PartialAggregateRequest {
                    request,
                    sql: plan.partial_sql.clone(),
                    trace,
                };
                for host in self.federated_hosts(&plan.table)? {
                    if host == node {
                        partials.push(self.query(&plan.partial_sql)?.rows().to_vec());
                        continue;
                    }
                    hops.push(HopBreakdown {
                        peer: host.as_u64(),
                        serialize_micros: serialize_micros(&message, trace.is_some()),
                        ..HopBreakdown::default()
                    });
                    self.send(host, message.clone(), now);
                    awaiting.push(host);
                }
                resend = Some(message);
                ScatterMode::Partial { plan, partials }
            }
            None => {
                self.telemetry.scatter_fallback_total.inc();
                let prepared =
                    gsn_sql::SqlEngine::compile(sql, &gsn_sql::OptimizerConfig::default())?;
                let referenced: Vec<String> = prepared.referenced_tables().to_vec();
                let mut legs = Vec::new();
                let mut tables: HashMap<String, Relation> = HashMap::new();
                for table in &referenced {
                    let select = format!("select * from {table}");
                    for host in self.federated_hosts(table)? {
                        if host == node {
                            let local = self.query(&select)?;
                            merge_shipped_rows(&mut tables, table, local);
                        } else {
                            let leg =
                                self.issue_remote_query(host, &select, ROW_SHIP_BATCH_ROWS, trace)?;
                            legs.push((leg, host, table.clone()));
                            awaiting.push(host);
                        }
                    }
                }
                ScatterMode::RowShip {
                    legs,
                    tables,
                    referenced,
                }
            }
        };
        let scatter = Scatter {
            sql: sql.to_owned(),
            started: now,
            mode,
            trace,
            root_span,
            hops,
            result: None,
        };
        let flight = Flight::new(awaiting, resend, now, Kind::Scatter(scatter));
        self.exchanges.insert(request, flight);
        // A scatter with no remote legs (every host local) completes immediately.
        self.complete_scatter(request, now);
        Ok(request)
    }

    /// Takes the finished result of a [`federated_query`](Self::federated_query):
    /// `None` while the scatter is still gathering.
    pub fn take_federated_result(&mut self, request: RequestId) -> Option<GsnResult<Relation>> {
        let flight = self.exchanges.take(
            request,
            |f| matches!(&f.kind, Kind::Scatter(scatter) if scatter.result.is_some()),
        )?;
        match flight.kind {
            Kind::Scatter(scatter) => scatter.result,
            _ => None,
        }
    }

    /// Number of federated queries this coordinator still tracks.
    pub fn pending_federated_queries(&self) -> usize {
        self.exchanges
            .ids(|f| matches!(f.kind, Kind::Scatter(_)))
            .len()
    }

    /// Stateless server side of the scatter: executes the partial locally and replies
    /// in one frame.  Re-execution on a duplicate (re-sent) request is idempotent — the
    /// coordinator keeps the first reply.  A traced request records a serve span under
    /// the coordinator's root, so the assembled trace tree shows every hop's execution.
    pub(super) fn serve_partial_aggregate(
        &mut self,
        from: NodeId,
        request: RequestId,
        sql: &str,
        trace: Option<TraceContext>,
        now: Timestamp,
    ) {
        let watch = Stopwatch::start();
        let span = trace.map(|ctx| self.runtime.trace.begin_in_trace("federated.serve", ctx));
        let outcome = self.query_as(&Principal::named(&from.to_string()), sql);
        if let Some(span) = span {
            self.runtime.trace.finish(span);
        }
        let (columns, rows, error) = match outcome {
            Ok(relation) => (
                relation.columns().iter().map(|c| c.name.clone()).collect(),
                relation.rows().to_vec(),
                String::new(),
            ),
            Err(e) => (Vec::new(), Vec::new(), e.to_string()),
        };
        let reply = Message::PartialAggregateReply {
            request,
            columns,
            rows,
            error,
            server_micros: watch.elapsed_micros(),
        };
        self.send(from, reply, now);
    }

    /// Folds one host's partial-aggregate reply into its scatter.  Replies for
    /// untracked requests and duplicates (answers to idempotent re-sends) are dropped —
    /// the first reply per host wins.
    pub(super) fn accept_partial_reply(&mut self, from: NodeId, reply: Message, now: Timestamp) {
        let Message::PartialAggregateReply {
            request,
            rows,
            error,
            server_micros,
            ..
        } = reply
        else {
            return;
        };
        let Some(flight) = self.exchanges.get_mut(request) else {
            return;
        };
        // Per-hop breakdown: reply round trip against the last (re-)scatter.
        let rtt_millis = now.abs_diff(flight.last_sent).as_millis() as u64;
        let retransmits = flight.retransmits;
        if !matches!(flight.kind, Kind::Scatter(_)) || !flight.answered(from, now) {
            return;
        }
        let Kind::Scatter(scatter) = &mut flight.kind else {
            return;
        };
        let ScatterMode::Partial { partials, .. } = &mut scatter.mode else {
            return;
        };
        if let Some(hop) = scatter.hops.iter_mut().find(|h| h.peer == from.as_u64()) {
            hop.rtt_millis = rtt_millis;
            hop.remote_micros = server_micros;
            hop.retransmits = retransmits;
        }
        if error.is_empty() {
            partials.push(rows);
        } else if scatter.result.is_none() {
            flight.awaiting.clear();
            scatter.result = Some(Err(GsnError::sql_exec(format!(
                "partial aggregate on {from} failed: {error}"
            ))));
        }
    }

    /// Folds finished row-ship legs into their scatters and completes every scatter
    /// whose gather is in.  Runs once per step, before the exchange engine's tick.
    pub(super) fn advance_scatters(&mut self, now: Timestamp) {
        for request in self.exchanges.ids(|f| matches!(f.kind, Kind::Scatter(_))) {
            let legs: Vec<RequestId> = match self.exchanges.get_mut(request).map(|f| &f.kind) {
                Some(Kind::Scatter(Scatter {
                    mode: ScatterMode::RowShip { legs, .. },
                    ..
                })) => legs.iter().map(|l| l.0).collect(),
                _ => Vec::new(),
            };
            for leg in legs {
                if let Some(outcome) = self.take_remote_query_result(leg) {
                    self.accept_leg(request, leg, outcome, now);
                }
            }
            self.complete_scatter(request, now);
        }
    }

    /// Folds one finished row-ship leg into its scatter; a failed leg fails the scatter
    /// and cancels the legs still in flight.
    fn accept_leg(
        &mut self,
        request: RequestId,
        leg: RequestId,
        outcome: GsnResult<super::RemoteQueryResult>,
        now: Timestamp,
    ) {
        let Some(flight) = self.exchanges.get_mut(request) else {
            return;
        };
        let Kind::Scatter(scatter) = &mut flight.kind else {
            return;
        };
        let ScatterMode::RowShip { legs, tables, .. } = &mut scatter.mode else {
            return;
        };
        let Some(pos) = legs.iter().position(|l| l.0 == leg) else {
            return;
        };
        let (_, host, table) = legs.remove(pos);
        match outcome {
            Ok(result) => {
                scatter.hops.push(result.hop);
                merge_shipped_rows(tables, &table, result.relation);
                flight.answered(host, now);
            }
            Err(e) => {
                scatter.result.get_or_insert(Err(e));
                flight.awaiting.clear();
                let cancelled: Vec<RequestId> = legs.drain(..).map(|l| l.0).collect();
                for leg in cancelled {
                    self.exchanges.remove(leg);
                }
            }
        }
    }

    /// Completes `request` once its gather is fully in: merges the answers, records the
    /// latency and slow-query entry, finishes the root span and, for a traced scatter,
    /// starts collecting every participant's spans.
    fn complete_scatter(&mut self, request: RequestId, now: Timestamp) {
        let Some(flight) = self.exchanges.get_mut(request) else {
            return;
        };
        if !flight.finished() {
            return;
        }
        let Kind::Scatter(scatter) = &mut flight.kind else {
            return;
        };
        if scatter.result.is_some() {
            return;
        }
        let result = match &mut scatter.mode {
            ScatterMode::Partial { plan, partials } => gsn_sql::merge_partials(plan, partials)
                .and_then(|(columns, rows)| relation_of(&columns, rows)),
            ScatterMode::RowShip {
                tables, referenced, ..
            } => {
                let mut catalog = gsn_sql::MemoryCatalog::new();
                for table in referenced.iter() {
                    if let Some(relation) = tables.remove(table) {
                        catalog.register(table, relation);
                    }
                }
                gsn_sql::parse_query(&scatter.sql)
                    .and_then(|query| gsn_sql::execute_query(&query, &catalog))
            }
        };
        let elapsed_millis = now.abs_diff(scatter.started).as_millis() as u64;
        self.telemetry.scatter_latency_millis.record(elapsed_millis);
        // Federated queries route through the same slow-query log as local ones, with
        // the per-hop wire breakdown attached.  The latency is simulated-clock time: on
        // a simnet that is the meaningful end-to-end figure, wall time is not.
        let micros = elapsed_millis.saturating_mul(1_000);
        let rows_returned = result.as_ref().map(|r| r.row_count() as u64).unwrap_or(0);
        self.slow_queries.observe(micros, || SlowQuery {
            sql: scatter.sql.clone(),
            micros,
            explain: "federated scatter-gather".to_owned(),
            rows_scanned: 0,
            rows_returned,
            hops: scatter.hops.clone(),
        });
        self.runtime.trace.finish(scatter.root_span);
        scatter.result = Some(result);
        // Traced scatters collect every participant's spans, assembling the full
        // distributed tree client-side.
        if let Some(ctx) = scatter.trace {
            let peers = scatter.hops.iter().map(|h| NodeId::new(h.peer)).collect();
            let _ = self.start_trace_collect(ctx.trace_id, ctx.parent_span.0, peers);
        }
    }

    /// Drops the row-ship legs of a scatter the exchange engine reaped.
    pub(super) fn cancel_legs(&mut self, scatter: Scatter) {
        if let ScatterMode::RowShip { legs, .. } = scatter.mode {
            for (leg, ..) in legs {
                self.exchanges.remove(leg);
            }
        }
    }
}
