//! Container-level telemetry: the step-loop instruments, the query-repository
//! counters, and the sourced metrics the container refreshes at snapshot time.
//!
//! Three kinds of metric live here:
//!
//! * **Live instruments** ([`ContainerTelemetry`], [`QueryTelemetry`]) — recorded at
//!   the instrumentation point, on the hot path, through lock-free handles.  The
//!   per-phase step histograms and the query repository's incremental/fallback
//!   counters are the authoritative cells; nothing else counts these events.
//! * **Sourced metrics** ([`SourcedMetrics`]) — cumulative counters and levels whose
//!   authoritative home is an existing stats struct ([`gsn_storage::StorageStats`],
//!   [`gsn_sql::EngineStats`], [`crate::NotificationStats`], the simnet's
//!   [`gsn_network::NetworkStats`]).  The container *stores* the current totals into
//!   the registry when a snapshot is taken, so each number has exactly one
//!   authoritative cell and the registry is a view, not a second ledger.
//! * **Per-link labeled counters** — refreshed from the simnet's per-link stats with
//!   a `link="from->to"` label, one time series per directed link.
//!
//! Every metric name exported by the container is documented in `OBSERVABILITY.md`
//! at the repository root.

use gsn_telemetry::{Counter, Gauge, Histogram, MetricDesc, MetricsRegistry};

// -------------------------------------------------------------------------------------
// Step-loop phases
// -------------------------------------------------------------------------------------

/// Wall-clock duration of one full [`crate::GsnContainer::step`].
pub static STEP_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_step_micros",
    "Wall-clock duration of one container step",
    "microseconds",
);

/// Network-intake phase: draining the simnet inbox and answering peers.
pub static STEP_NETWORK_DRAIN_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_step_network_drain_micros",
    "Step phase: draining the network inbox (remote deliveries, peer requests)",
    "microseconds",
);

/// Pipeline phase: wrapper polling plus per-sensor pipeline execution (sharded across
/// the worker pool when `workers > 1`), including the in-shard query evaluations and
/// notification deliveries they trigger.
pub static STEP_PIPELINE_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_step_pipeline_micros",
    "Step phase: wrapper polling + sensor pipeline execution (incl. barrier wait)",
    "microseconds",
);

/// Post-barrier phase: sequential delivery of cross-shard loop-back outputs.
pub static STEP_POST_BARRIER_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_step_post_barrier_micros",
    "Step phase: sequential post-barrier delivery of cross-shard loop-back outputs",
    "microseconds",
);

/// Commit phase: retention pruning plus the per-step batched WAL fsync.
pub static STEP_COMMIT_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_step_commit_micros",
    "Step phase: retention pruning + WAL group commit",
    "microseconds",
);

// -------------------------------------------------------------------------------------
// Step-loop counters (absorbed from each StepReport)
// -------------------------------------------------------------------------------------

/// Steps executed.
pub static STEPS_TOTAL: MetricDesc =
    MetricDesc::counter("gsn_steps_total", "Container steps executed", "steps");

/// Stream elements that arrived from local wrappers.
pub static LOCAL_ARRIVALS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_step_local_arrivals_total",
    "Stream elements that arrived from local wrappers",
    "elements",
);

/// Stream elements that arrived from remote deliveries (including loop-back routes).
pub static REMOTE_ARRIVALS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_step_remote_arrivals_total",
    "Stream elements that arrived from remote deliveries",
    "elements",
);

/// Output stream elements produced by virtual sensors.
pub static OUTPUTS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_step_outputs_total",
    "Output stream elements produced by virtual sensors",
    "elements",
);

/// Registered client-query evaluations performed by the step loop.
pub static QUERY_EVALUATIONS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_step_query_evaluations_total",
    "Registered client-query evaluations performed by the step loop",
    "evaluations",
);

/// Pipeline errors.
pub static PIPELINE_ERRORS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_step_errors_total",
    "Pipeline errors observed by the step loop",
    "errors",
);

/// Sources newly detected silent.
pub static SILENCE_EVENTS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_step_silence_events_total",
    "Sources newly detected silent by the stream-quality monitor",
    "episodes",
);

// -------------------------------------------------------------------------------------
// Federation
// -------------------------------------------------------------------------------------

/// Round-trip time of one remote-cursor batch: from sending the `QueryRequest` /
/// `QueryNext` to the matching `QueryBatch` arriving (simulated-clock milliseconds).
pub static FEDERATION_BATCH_RTT_MILLIS: MetricDesc = MetricDesc::histogram(
    "gsn_federation_batch_rtt_millis",
    "Round-trip time of one remote-cursor batch (request sent to batch received)",
    "milliseconds",
);

/// Lossy-link recovery retransmissions: request frames the exchange engine re-sent
/// (remote queries, metrics scrapes, trace collects and partial-aggregate scatters).
pub static FEDERATION_RETRANSMITS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_retransmits_total",
    "Request frames re-sent by the exchange engine after apparent loss",
    "messages",
);

/// Metrics scrapes served to peers (`MetricsRequest` messages answered).
pub static FEDERATION_SCRAPES_SERVED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_scrapes_served_total",
    "Peer metrics scrapes answered with a MetricsSnapshot message",
    "scrapes",
);

/// Peer metrics snapshots received (`MetricsSnapshot` messages accepted).
pub static FEDERATION_PEER_SNAPSHOTS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_peer_snapshots_total",
    "Peer metrics snapshots received and stored",
    "snapshots",
);

/// Anti-entropy gossip rounds initiated by this node.
pub static FEDERATION_GOSSIP_ROUNDS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_gossip_rounds_total",
    "Anti-entropy gossip rounds initiated (one digest sent per round)",
    "rounds",
);

/// Encoded bytes of gossip digests and deltas sent by this node.
pub static FEDERATION_GOSSIP_BYTES_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_gossip_bytes_total",
    "Encoded bytes of gossip digest and delta messages sent",
    "bytes",
);

/// Federated scatter-gather queries coordinated by this node.
pub static FEDERATION_SCATTER_QUERIES_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_scatter_queries_total",
    "Federated scatter-gather queries issued with this node as coordinator",
    "queries",
);

/// Federated queries that could not be decomposed into partial aggregates.
pub static FEDERATION_SCATTER_FALLBACK_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_scatter_fallback_total",
    "Federated queries that fell back to full row shipping",
    "queries",
);

/// Latency of one federated query: scatter fan-out to merged result.
pub static FEDERATION_SCATTER_LATENCY_MILLIS: MetricDesc = MetricDesc::histogram(
    "gsn_federation_scatter_latency_millis",
    "Latency of one federated query from scatter fan-out to merged result",
    "milliseconds",
);

/// Remote spans received by trace-collect assembly (answers to
/// `TraceCollectRequest` messages issued when a federated query completes).
pub static TRACE_REMOTE_SPANS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_trace_remote_spans_total",
    "Remote spans received while assembling distributed trace trees",
    "spans",
);

/// Per-subsystem health state evaluated on gossip rounds
/// (labeled `subsystem="..."`; 0 = healthy, 1 = degraded, 2 = unhealthy).
pub static HEALTH_STATE: MetricDesc = MetricDesc::gauge(
    "gsn_health_state",
    "Health state of one subsystem (0 healthy, 1 degraded, 2 unhealthy)",
    "state",
)
.with_label("subsystem");

/// The live instrument handles of the container itself.
///
/// Created detached at container construction and adopted into the container's
/// [`MetricsRegistry`]; handles are cheap clones of shared cells, so per-shard
/// recordings merge for free.
#[derive(Debug, Clone, Default)]
pub struct ContainerTelemetry {
    /// Full-step duration.
    pub step_micros: Histogram,
    /// Network-drain phase duration.
    pub network_drain_micros: Histogram,
    /// Pipeline phase duration (poll + pipelines + barrier).
    pub pipeline_micros: Histogram,
    /// Post-barrier delivery phase duration.
    pub post_barrier_micros: Histogram,
    /// Prune + group-commit phase duration.
    pub commit_micros: Histogram,
    /// Steps executed.
    pub steps_total: Counter,
    /// Local wrapper arrivals.
    pub local_arrivals_total: Counter,
    /// Remote arrivals.
    pub remote_arrivals_total: Counter,
    /// Sensor outputs.
    pub outputs_total: Counter,
    /// Registered-query evaluations.
    pub query_evaluations_total: Counter,
    /// Pipeline errors.
    pub errors_total: Counter,
    /// Silence episodes.
    pub silence_events_total: Counter,
    /// Remote-cursor batch RTT.
    pub batch_rtt_millis: Histogram,
    /// Lossy-link retransmissions.
    pub retransmits_total: Counter,
    /// Peer scrapes served.
    pub scrapes_served_total: Counter,
    /// Peer snapshots received.
    pub peer_snapshots_total: Counter,
    /// Gossip rounds initiated.
    pub gossip_rounds_total: Counter,
    /// Gossip digest/delta bytes sent.
    pub gossip_bytes_total: Counter,
    /// Federated queries coordinated.
    pub scatter_queries_total: Counter,
    /// Federated queries that fell back to row shipping.
    pub scatter_fallback_total: Counter,
    /// Federated query latency (scatter to merge).
    pub scatter_latency_millis: Histogram,
    /// Remote spans received by trace-collect assembly.
    pub remote_spans_total: Counter,
}

impl ContainerTelemetry {
    /// Fresh, detached handles.
    pub fn new() -> ContainerTelemetry {
        ContainerTelemetry::default()
    }

    /// Adopts every handle into `registry` so snapshots include them.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_histogram(&STEP_MICROS, &self.step_micros);
        registry.register_histogram(&STEP_NETWORK_DRAIN_MICROS, &self.network_drain_micros);
        registry.register_histogram(&STEP_PIPELINE_MICROS, &self.pipeline_micros);
        registry.register_histogram(&STEP_POST_BARRIER_MICROS, &self.post_barrier_micros);
        registry.register_histogram(&STEP_COMMIT_MICROS, &self.commit_micros);
        registry.register_counter(&STEPS_TOTAL, &self.steps_total);
        registry.register_counter(&LOCAL_ARRIVALS_TOTAL, &self.local_arrivals_total);
        registry.register_counter(&REMOTE_ARRIVALS_TOTAL, &self.remote_arrivals_total);
        registry.register_counter(&OUTPUTS_TOTAL, &self.outputs_total);
        registry.register_counter(&QUERY_EVALUATIONS_TOTAL, &self.query_evaluations_total);
        registry.register_counter(&PIPELINE_ERRORS_TOTAL, &self.errors_total);
        registry.register_counter(&SILENCE_EVENTS_TOTAL, &self.silence_events_total);
        registry.register_histogram(&FEDERATION_BATCH_RTT_MILLIS, &self.batch_rtt_millis);
        registry.register_counter(&FEDERATION_RETRANSMITS_TOTAL, &self.retransmits_total);
        registry.register_counter(&FEDERATION_SCRAPES_SERVED_TOTAL, &self.scrapes_served_total);
        registry.register_counter(&FEDERATION_PEER_SNAPSHOTS_TOTAL, &self.peer_snapshots_total);
        registry.register_counter(&FEDERATION_GOSSIP_ROUNDS_TOTAL, &self.gossip_rounds_total);
        registry.register_counter(&FEDERATION_GOSSIP_BYTES_TOTAL, &self.gossip_bytes_total);
        registry.register_counter(
            &FEDERATION_SCATTER_QUERIES_TOTAL,
            &self.scatter_queries_total,
        );
        registry.register_counter(
            &FEDERATION_SCATTER_FALLBACK_TOTAL,
            &self.scatter_fallback_total,
        );
        registry.register_histogram(
            &FEDERATION_SCATTER_LATENCY_MILLIS,
            &self.scatter_latency_millis,
        );
        registry.register_counter(&TRACE_REMOTE_SPANS_TOTAL, &self.remote_spans_total);
    }

    /// Folds one step report's counters into the cumulative totals.
    pub fn absorb_report(&self, report: &crate::StepReport) {
        self.local_arrivals_total.add(report.local_arrivals);
        self.remote_arrivals_total.add(report.remote_arrivals);
        self.outputs_total.add(report.outputs);
        self.query_evaluations_total
            .add(report.client_query_evaluations);
        self.errors_total.add(report.errors);
        self.silence_events_total.add(report.silence_events);
    }
}

// -------------------------------------------------------------------------------------
// Query repository
// -------------------------------------------------------------------------------------

/// Registered-query evaluations served by the incremental (delta-window) executor.
pub static QUERY_INCREMENTAL_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_query_incremental_total",
    "Registered-query evaluations served by the incremental (delta-window) executor",
    "evaluations",
);

/// Registered-query evaluations that fell back to full re-evaluation.
pub static QUERY_FALLBACK_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_query_fallback_total",
    "Registered-query evaluations that fell back to full re-evaluation",
    "evaluations",
);

/// Latency of one registered-query evaluation (incremental or full).
pub static QUERY_DELTA_EVAL_MICROS: MetricDesc = MetricDesc::histogram(
    "gsn_query_delta_eval_micros",
    "Latency of one registered-query evaluation (incremental delta fold or full re-run)",
    "microseconds",
);

/// The query repository's live instruments, shared by every partition (the cells are
/// container-wide: the per-shard recordings of a sharded step loop merge for free).
///
/// These counters are the *only* ledger of incremental-vs-fallback evaluation counts —
/// `QueryManagerStats` deliberately does not duplicate them.
#[derive(Debug, Clone, Default)]
pub struct QueryTelemetry {
    /// Incremental-path evaluations.
    pub incremental_evaluated: Counter,
    /// Full-path (fallback) evaluations.
    pub fallback_evaluated: Counter,
    /// Per-evaluation latency.
    pub eval_micros: Histogram,
}

impl QueryTelemetry {
    /// Fresh, detached handles.
    pub fn new() -> QueryTelemetry {
        QueryTelemetry::default()
    }

    /// Adopts every handle into `registry` so snapshots include them.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_counter(&QUERY_INCREMENTAL_TOTAL, &self.incremental_evaluated);
        registry.register_counter(&QUERY_FALLBACK_TOTAL, &self.fallback_evaluated);
        registry.register_histogram(&QUERY_DELTA_EVAL_MICROS, &self.eval_micros);
    }
}

// -------------------------------------------------------------------------------------
// Sourced metrics (refreshed from the subsystem stats structs at snapshot time)
// -------------------------------------------------------------------------------------

/// Tables currently managed by the storage layer.
pub static STORAGE_TABLES: MetricDesc =
    MetricDesc::gauge("gsn_storage_tables", "Tables currently managed", "tables");

/// Elements currently retained across all tables.
pub static STORAGE_RETAINED_ROWS: MetricDesc = MetricDesc::gauge(
    "gsn_storage_retained_rows",
    "Elements currently retained across all tables",
    "elements",
);

/// Bytes currently retained across all tables.
pub static STORAGE_RETAINED_BYTES: MetricDesc = MetricDesc::gauge(
    "gsn_storage_retained_bytes",
    "Payload bytes currently retained across all tables",
    "bytes",
);

/// Lifetime elements inserted.
pub static STORAGE_ROWS_INSERTED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_rows_inserted_total",
    "Elements inserted across all tables (lifetime)",
    "elements",
);

/// Lifetime elements pruned by retention.
pub static STORAGE_ROWS_PRUNED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_rows_pruned_total",
    "Elements removed by retention pruning (lifetime)",
    "elements",
);

/// Lifetime out-of-order arrivals.
pub static STORAGE_OUT_OF_ORDER_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_out_of_order_total",
    "Elements that arrived with a timestamp older than their predecessor",
    "elements",
);

/// Lifetime payload bytes inserted.
pub static STORAGE_BYTES_INSERTED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_bytes_inserted_total",
    "Payload bytes inserted across all tables (lifetime)",
    "bytes",
);

/// Buffer-pool page requests served from a resident frame.
pub static STORAGE_POOL_HITS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_hits_total",
    "Buffer-pool page requests served from a resident frame",
    "pages",
);

/// Buffer-pool page requests that read from disk.
pub static STORAGE_POOL_MISSES_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_misses_total",
    "Buffer-pool page requests that had to read from disk",
    "pages",
);

/// Buffer-pool frames reclaimed by the clock hand.
pub static STORAGE_POOL_EVICTIONS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_evictions_total",
    "Buffer-pool frames reclaimed by the clock hand",
    "pages",
);

/// Dirty pages written back during eviction or flush.
pub static STORAGE_POOL_WRITEBACKS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_writebacks_total",
    "Dirty pages written back during eviction or flush",
    "pages",
);

/// Pages resident in the shared buffer pool.
pub static STORAGE_POOL_RESIDENT_PAGES: MetricDesc = MetricDesc::gauge(
    "gsn_storage_pool_resident_pages",
    "Pages resident in the shared buffer pool",
    "pages",
);

/// Region-lock acquisitions that found the lock held (cross-thread contention on one
/// clock region of the sharded pool; ~0 when scans stripe cleanly across regions).
pub static STORAGE_POOL_CONTENDED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_contended_total",
    "Buffer-pool region-lock acquisitions that found the lock held",
    "acquisitions",
);

/// Per-region page hits (labeled `region="N"`).
pub static STORAGE_POOL_REGION_HITS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_region_hits_total",
    "Page requests served from a resident frame of one clock region",
    "pages",
)
.with_label("region");

/// Per-region page misses (labeled `region="N"`).
pub static STORAGE_POOL_REGION_MISSES_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_region_misses_total",
    "Page requests of one clock region that had to read from disk",
    "pages",
)
.with_label("region");

/// Per-region frame evictions (labeled `region="N"`).
pub static STORAGE_POOL_REGION_EVICTIONS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_region_evictions_total",
    "Frames reclaimed by the clock hand of one region",
    "pages",
)
.with_label("region");

/// Per-region lock contention (labeled `region="N"`).
pub static STORAGE_POOL_REGION_CONTENDED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_pool_region_contended_total",
    "Lock acquisitions of one region that found the lock held",
    "acquisitions",
)
.with_label("region");

/// Spill migration passes across all spilled-window tables.
pub static STORAGE_SPILL_MIGRATIONS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_storage_spill_migrations_total",
    "Cold-prefix spill migration passes across all spilled-window tables",
    "passes",
);

/// Elements currently moved to disk by spill migrations.
pub static STORAGE_SPILLED_ROWS: MetricDesc = MetricDesc::gauge(
    "gsn_storage_spilled_rows",
    "Elements moved to the disk-resident cold prefix of spilled windows",
    "elements",
);

/// Plans compiled by the SQL engines.
pub static SQL_PLANS_COMPILED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_sql_plans_compiled_total",
    "Queries compiled (parse + plan + optimize) across all engines",
    "plans",
);

/// Compilations avoided by the prepared-plan cache.
pub static SQL_PLAN_CACHE_HITS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_sql_plan_cache_hits_total",
    "Compilations avoided by the prepared-plan cache",
    "plans",
);

/// Plan executions.
pub static SQL_EXECUTIONS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_sql_executions_total",
    "Plan executions across all engines",
    "executions",
);

/// Rows pulled out of base-table scans.
pub static SQL_ROWS_SCANNED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_sql_rows_scanned_total",
    "Rows pulled out of base-table scans across all executions",
    "rows",
);

/// Rows returned to consumers.
pub static SQL_ROWS_RETURNED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_sql_rows_returned_total",
    "Rows returned to consumers across all executions",
    "rows",
);

/// Compiled plans with at least one pushed-down scan spec.
pub static SQL_PUSHDOWN_APPLIED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_sql_pushdown_applied_total",
    "Fresh compilations whose plan pushed predicates/projections/limits into a scan",
    "plans",
);

/// Rows dropped by residual predicate re-application above bounded scans.
pub static SQL_RESIDUAL_ROWS_FILTERED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_sql_residual_rows_filtered_total",
    "Rows dropped re-applying pushed-down residual predicates above bounded scans",
    "rows",
);

/// Ad-hoc queries executed.
pub static QUERY_ADHOC_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_query_adhoc_total",
    "Ad-hoc (one-shot) queries executed",
    "queries",
);

/// Registered-query evaluations performed (incremental + full).
pub static QUERY_REGISTERED_EVALUATED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_query_registered_evaluated_total",
    "Registered-query evaluations performed (incremental + full)",
    "evaluations",
);

/// Registered-query evaluations that failed.
pub static QUERY_REGISTERED_FAILED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_query_registered_failed_total",
    "Registered-query evaluations that failed",
    "evaluations",
);

/// Client queries currently registered.
pub static QUERY_REGISTERED: MetricDesc = MetricDesc::gauge(
    "gsn_query_registered",
    "Client queries currently registered",
    "queries",
);

/// Notifications delivered to local channels.
pub static NOTIFY_LOCAL_DELIVERED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_notify_local_delivered_total",
    "Notifications delivered to local channels",
    "notifications",
);

/// Local deliveries that failed (closed channel).
pub static NOTIFY_LOCAL_FAILED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_notify_local_failed_total",
    "Local deliveries that failed (closed channel, subscription removed)",
    "notifications",
);

/// Stream elements delivered to remote subscribers.
pub static NOTIFY_REMOTE_DELIVERED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_notify_remote_delivered_total",
    "Stream elements delivered to remote subscribers",
    "elements",
);

/// Stream elements buffered for disconnected remote subscribers.
pub static NOTIFY_REMOTE_BUFFERED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_notify_remote_buffered_total",
    "Stream elements buffered for disconnected remote subscribers",
    "elements",
);

/// Stream elements dropped by overflowing disconnect buffers.
pub static NOTIFY_REMOTE_DROPPED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_notify_remote_dropped_total",
    "Stream elements dropped because a disconnect buffer overflowed",
    "elements",
);

/// Messages accepted by the simulated network.
pub static NET_SENT_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_sent_total",
    "Messages accepted for delivery by the simulated network",
    "messages",
);

/// Messages dropped by lossy links.
pub static NET_DROPPED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_dropped_total",
    "Messages dropped by lossy links",
    "messages",
);

/// Messages handed to receivers.
pub static NET_DELIVERED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_delivered_total",
    "Messages handed to receivers",
    "messages",
);

/// Wire bytes accepted for delivery.
pub static NET_BYTES_SENT_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_bytes_sent_total",
    "Wire bytes accepted for delivery",
    "bytes",
);

/// Per-link messages sent (labeled `link="from->to"`).
pub static NET_LINK_SENT_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_link_sent_total",
    "Messages accepted for delivery on one directed link",
    "messages",
)
.with_label("link");

/// Per-link messages dropped (labeled `link="from->to"`).
pub static NET_LINK_DROPPED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_link_dropped_total",
    "Messages dropped by one directed link",
    "messages",
)
.with_label("link");

/// Per-link messages delivered (labeled `link="from->to"`).
pub static NET_LINK_DELIVERED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_link_delivered_total",
    "Messages handed to the receiver of one directed link",
    "messages",
)
.with_label("link");

/// Per-link wire bytes sent (labeled `link="from->to"`).
pub static NET_LINK_BYTES_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_net_link_bytes_total",
    "Wire bytes accepted for delivery on one directed link",
    "bytes",
)
.with_label("link");

/// Virtual sensors currently deployed.
pub static SENSORS_DEPLOYED: MetricDesc = MetricDesc::gauge(
    "gsn_sensors_deployed",
    "Virtual sensors currently deployed",
    "sensors",
);

/// Streaming cursors currently held open for remote peers.
pub static REMOTE_CURSORS_OPEN: MetricDesc = MetricDesc::gauge(
    "gsn_remote_cursors_open",
    "Streaming cursors currently held open on behalf of remote peers",
    "cursors",
);

/// Remote queries issued by this container and still tracked.
pub static REMOTE_QUERIES_PENDING: MetricDesc = MetricDesc::gauge(
    "gsn_remote_queries_pending",
    "Remote queries issued by this container and still tracked",
    "queries",
);

/// Directory registrations observed by this node's local replica.
pub static DIRECTORY_REGISTRATIONS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_directory_registrations_total",
    "Sensor registrations processed by the directory this node sees",
    "registrations",
);

/// Directory deregistrations observed by this node.
pub static DIRECTORY_DEREGISTRATIONS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_directory_deregistrations_total",
    "Sensor deregistrations processed by the directory this node sees",
    "deregistrations",
);

/// Directory lookups served to this node.
pub static DIRECTORY_LOOKUPS_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_directory_lookups_total",
    "Directory lookups served to this node",
    "lookups",
);

/// Members of the placement ring, as this node sees it.
pub static FEDERATION_RING_MEMBERS: MetricDesc = MetricDesc::gauge(
    "gsn_federation_ring_members",
    "Members of the placement ring in this node's current view",
    "nodes",
);

/// Share of the token space primarily owned by this node.
pub static FEDERATION_RING_OWNERSHIP_PERMILLE: MetricDesc = MetricDesc::gauge(
    "gsn_federation_ring_ownership_permille",
    "Fraction of the hash-token space whose primary owner is this node",
    "permille",
);

/// Records (including tombstones) held by the local directory replica.
pub static FEDERATION_REPLICA_RECORDS: MetricDesc = MetricDesc::gauge(
    "gsn_federation_replica_records",
    "Records held by the local directory replica, tombstones included",
    "records",
);

/// Remote directory records applied by gossip.
pub static FEDERATION_GOSSIP_APPLIED_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_gossip_records_applied_total",
    "Remote directory records applied to the local replica by gossip",
    "records",
);

/// Remote directory records ignored as stale.
pub static FEDERATION_GOSSIP_STALE_TOTAL: MetricDesc = MetricDesc::counter(
    "gsn_federation_gossip_records_stale_total",
    "Remote directory records ignored because the local version was newer",
    "records",
);

/// Handles for every sourced metric, plus the refresh that stores the current totals.
#[derive(Debug, Clone, Default)]
pub struct SourcedMetrics {
    storage_tables: Gauge,
    storage_retained_rows: Gauge,
    storage_retained_bytes: Gauge,
    storage_rows_inserted: Counter,
    storage_rows_pruned: Counter,
    storage_out_of_order: Counter,
    storage_bytes_inserted: Counter,
    pool_hits: Counter,
    pool_misses: Counter,
    pool_evictions: Counter,
    pool_writebacks: Counter,
    pool_contended: Counter,
    pool_resident_pages: Gauge,
    spill_migrations: Counter,
    spilled_rows: Gauge,
    sql_compiled: Counter,
    sql_cache_hits: Counter,
    sql_executions: Counter,
    sql_rows_scanned: Counter,
    sql_rows_returned: Counter,
    sql_pushdown_applied: Counter,
    sql_residual_rows_filtered: Counter,
    query_adhoc: Counter,
    query_registered_evaluated: Counter,
    query_registered_failed: Counter,
    query_registered: Gauge,
    notify_local_delivered: Counter,
    notify_local_failed: Counter,
    notify_remote_delivered: Counter,
    notify_remote_buffered: Counter,
    notify_remote_dropped: Counter,
    net_sent: Counter,
    net_dropped: Counter,
    net_delivered: Counter,
    net_bytes_sent: Counter,
    sensors_deployed: Gauge,
    remote_cursors_open: Gauge,
    remote_queries_pending: Gauge,
    directory_registrations: Counter,
    directory_deregistrations: Counter,
    directory_lookups: Counter,
    ring_members: Gauge,
    ring_ownership_permille: Gauge,
    replica_records: Gauge,
    gossip_applied: Counter,
    gossip_stale: Counter,
}

/// The subsystem totals [`SourcedMetrics::refresh`] stores into the registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourcedTotals<'a> {
    /// Node-level storage statistics.
    pub storage: Option<&'a gsn_storage::StorageStats>,
    /// Merged SQL-engine statistics.
    pub engine: Option<&'a gsn_sql::EngineStats>,
    /// Merged query-repository statistics.
    pub queries: Option<&'a crate::QueryManagerStats>,
    /// Client queries currently registered.
    pub registered_queries: usize,
    /// Notification-manager statistics.
    pub notifications: Option<&'a crate::NotificationStats>,
    /// Whole-network delivery statistics.
    pub network: Option<gsn_network::NetworkStats>,
    /// Virtual sensors currently deployed.
    pub sensors: usize,
    /// Open remote cursors.
    pub remote_cursors: usize,
    /// Pending remote queries.
    pub remote_queries: usize,
    /// Replicated-directory statistics (mesh federation).
    pub replica: Option<gsn_federation::ReplicaStats>,
    /// Placement-ring members in this node's view.
    pub ring_members: usize,
    /// Token-space share primarily owned by this node (permille).
    pub ring_ownership_permille: u64,
    /// Records (tombstones included) held by the local replica.
    pub replica_records: usize,
}

impl SourcedMetrics {
    /// Fresh, detached handles.
    pub fn new() -> SourcedMetrics {
        SourcedMetrics::default()
    }

    /// Adopts every handle into `registry` so snapshots include them (at zero until the
    /// first [`refresh`](Self::refresh)).
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_gauge(&STORAGE_TABLES, &self.storage_tables);
        registry.register_gauge(&STORAGE_RETAINED_ROWS, &self.storage_retained_rows);
        registry.register_gauge(&STORAGE_RETAINED_BYTES, &self.storage_retained_bytes);
        registry.register_counter(&STORAGE_ROWS_INSERTED_TOTAL, &self.storage_rows_inserted);
        registry.register_counter(&STORAGE_ROWS_PRUNED_TOTAL, &self.storage_rows_pruned);
        registry.register_counter(&STORAGE_OUT_OF_ORDER_TOTAL, &self.storage_out_of_order);
        registry.register_counter(&STORAGE_BYTES_INSERTED_TOTAL, &self.storage_bytes_inserted);
        registry.register_counter(&STORAGE_POOL_HITS_TOTAL, &self.pool_hits);
        registry.register_counter(&STORAGE_POOL_MISSES_TOTAL, &self.pool_misses);
        registry.register_counter(&STORAGE_POOL_EVICTIONS_TOTAL, &self.pool_evictions);
        registry.register_counter(&STORAGE_POOL_WRITEBACKS_TOTAL, &self.pool_writebacks);
        registry.register_counter(&STORAGE_POOL_CONTENDED_TOTAL, &self.pool_contended);
        registry.register_gauge(&STORAGE_POOL_RESIDENT_PAGES, &self.pool_resident_pages);
        registry.register_counter(&STORAGE_SPILL_MIGRATIONS_TOTAL, &self.spill_migrations);
        registry.register_gauge(&STORAGE_SPILLED_ROWS, &self.spilled_rows);
        registry.register_counter(&SQL_PLANS_COMPILED_TOTAL, &self.sql_compiled);
        registry.register_counter(&SQL_PLAN_CACHE_HITS_TOTAL, &self.sql_cache_hits);
        registry.register_counter(&SQL_EXECUTIONS_TOTAL, &self.sql_executions);
        registry.register_counter(&SQL_ROWS_SCANNED_TOTAL, &self.sql_rows_scanned);
        registry.register_counter(&SQL_ROWS_RETURNED_TOTAL, &self.sql_rows_returned);
        registry.register_counter(&SQL_PUSHDOWN_APPLIED_TOTAL, &self.sql_pushdown_applied);
        registry.register_counter(
            &SQL_RESIDUAL_ROWS_FILTERED_TOTAL,
            &self.sql_residual_rows_filtered,
        );
        registry.register_counter(&QUERY_ADHOC_TOTAL, &self.query_adhoc);
        registry.register_counter(
            &QUERY_REGISTERED_EVALUATED_TOTAL,
            &self.query_registered_evaluated,
        );
        registry.register_counter(
            &QUERY_REGISTERED_FAILED_TOTAL,
            &self.query_registered_failed,
        );
        registry.register_gauge(&QUERY_REGISTERED, &self.query_registered);
        registry.register_counter(&NOTIFY_LOCAL_DELIVERED_TOTAL, &self.notify_local_delivered);
        registry.register_counter(&NOTIFY_LOCAL_FAILED_TOTAL, &self.notify_local_failed);
        registry.register_counter(
            &NOTIFY_REMOTE_DELIVERED_TOTAL,
            &self.notify_remote_delivered,
        );
        registry.register_counter(&NOTIFY_REMOTE_BUFFERED_TOTAL, &self.notify_remote_buffered);
        registry.register_counter(&NOTIFY_REMOTE_DROPPED_TOTAL, &self.notify_remote_dropped);
        registry.register_counter(&NET_SENT_TOTAL, &self.net_sent);
        registry.register_counter(&NET_DROPPED_TOTAL, &self.net_dropped);
        registry.register_counter(&NET_DELIVERED_TOTAL, &self.net_delivered);
        registry.register_counter(&NET_BYTES_SENT_TOTAL, &self.net_bytes_sent);
        registry.register_gauge(&SENSORS_DEPLOYED, &self.sensors_deployed);
        registry.register_gauge(&REMOTE_CURSORS_OPEN, &self.remote_cursors_open);
        registry.register_gauge(&REMOTE_QUERIES_PENDING, &self.remote_queries_pending);
        registry.register_counter(
            &DIRECTORY_REGISTRATIONS_TOTAL,
            &self.directory_registrations,
        );
        registry.register_counter(
            &DIRECTORY_DEREGISTRATIONS_TOTAL,
            &self.directory_deregistrations,
        );
        registry.register_counter(&DIRECTORY_LOOKUPS_TOTAL, &self.directory_lookups);
        registry.register_gauge(&FEDERATION_RING_MEMBERS, &self.ring_members);
        registry.register_gauge(
            &FEDERATION_RING_OWNERSHIP_PERMILLE,
            &self.ring_ownership_permille,
        );
        registry.register_gauge(&FEDERATION_REPLICA_RECORDS, &self.replica_records);
        registry.register_counter(&FEDERATION_GOSSIP_APPLIED_TOTAL, &self.gossip_applied);
        registry.register_counter(&FEDERATION_GOSSIP_STALE_TOTAL, &self.gossip_stale);
    }

    /// Stores the current subsystem totals into the registry cells.
    pub fn refresh(&self, totals: &SourcedTotals<'_>) {
        if let Some(storage) = totals.storage {
            self.storage_tables.set(storage.tables as i64);
            self.storage_retained_rows
                .set(storage.retained_elements as i64);
            self.storage_retained_bytes
                .set(storage.retained_bytes as i64);
            self.storage_rows_inserted.store(storage.totals.inserted);
            self.storage_rows_pruned.store(storage.totals.pruned);
            self.storage_out_of_order.store(storage.totals.out_of_order);
            self.storage_bytes_inserted
                .store(storage.totals.bytes_inserted);
            self.pool_hits.store(storage.pool.hits);
            self.pool_misses.store(storage.pool.misses);
            self.pool_evictions.store(storage.pool.evictions);
            self.pool_writebacks.store(storage.pool.writebacks);
            self.pool_contended.store(storage.pool.contended);
            self.pool_resident_pages
                .set(storage.pool.resident_pages as i64);
            self.spill_migrations.store(storage.spill_migrations);
            self.spilled_rows.set(storage.spilled_rows as i64);
        }
        if let Some(engine) = totals.engine {
            self.sql_compiled.store(engine.compiled);
            self.sql_cache_hits.store(engine.cache_hits);
            self.sql_executions.store(engine.executions);
            self.sql_rows_scanned.store(engine.rows_scanned);
            self.sql_rows_returned.store(engine.rows_returned);
            self.sql_pushdown_applied.store(engine.pushdown_applied);
            self.sql_residual_rows_filtered
                .store(engine.rows_residual_filtered);
        }
        if let Some(queries) = totals.queries {
            self.query_adhoc.store(queries.adhoc_executed);
            self.query_registered_evaluated
                .store(queries.registered_evaluated);
            self.query_registered_failed
                .store(queries.registered_failed);
        }
        self.query_registered.set(totals.registered_queries as i64);
        if let Some(notifications) = totals.notifications {
            self.notify_local_delivered
                .store(notifications.local_delivered);
            self.notify_local_failed.store(notifications.local_failed);
            self.notify_remote_delivered
                .store(notifications.remote_delivered);
            self.notify_remote_buffered
                .store(notifications.remote_buffered);
            self.notify_remote_dropped
                .store(notifications.remote_dropped);
        }
        if let Some(network) = totals.network {
            self.net_sent.store(network.sent);
            self.net_dropped.store(network.dropped);
            self.net_delivered.store(network.delivered);
            self.net_bytes_sent.store(network.bytes_sent);
        }
        self.sensors_deployed.set(totals.sensors as i64);
        self.remote_cursors_open.set(totals.remote_cursors as i64);
        self.remote_queries_pending
            .set(totals.remote_queries as i64);
        if let Some(replica) = totals.replica {
            self.directory_registrations.store(replica.registrations);
            self.directory_deregistrations
                .store(replica.deregistrations);
            self.directory_lookups.store(replica.lookups);
            self.gossip_applied.store(replica.records_applied);
            self.gossip_stale.store(replica.records_stale);
        }
        self.ring_members.set(totals.ring_members as i64);
        self.ring_ownership_permille
            .set(totals.ring_ownership_permille as i64);
        self.replica_records.set(totals.replica_records as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_telemetry::MetricsRegistry;

    #[test]
    fn container_telemetry_registers_and_absorbs() {
        let registry = MetricsRegistry::new();
        let telemetry = ContainerTelemetry::new();
        telemetry.register_into(&registry);
        let report = crate::StepReport {
            local_arrivals: 3,
            remote_arrivals: 1,
            outputs: 2,
            client_query_evaluations: 5,
            errors: 1,
            silence_events: 1,
            processing_micros: 42,
        };
        telemetry.absorb_report(&report);
        telemetry.absorb_report(&report);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot
                .get("gsn_step_local_arrivals_total")
                .and_then(|s| s.as_counter()),
            Some(6)
        );
        assert_eq!(
            snapshot
                .get("gsn_step_query_evaluations_total")
                .and_then(|s| s.as_counter()),
            Some(10)
        );
    }

    #[test]
    fn sourced_metrics_store_the_current_totals() {
        let registry = MetricsRegistry::new();
        let sourced = SourcedMetrics::new();
        sourced.register_into(&registry);
        let mut storage = gsn_storage::StorageStats {
            tables: 2,
            retained_elements: 100,
            ..Default::default()
        };
        storage.totals.inserted = 150;
        storage.pool.hits = 40;
        let engine = gsn_sql::EngineStats {
            compiled: 3,
            cache_hits: 7,
            executions: 10,
            rows_scanned: 500,
            rows_returned: 50,
            pages_skipped: 12,
            pushdown_applied: 2,
            rows_residual_filtered: 9,
        };
        let totals = SourcedTotals {
            storage: Some(&storage),
            engine: Some(&engine),
            sensors: 4,
            ..Default::default()
        };
        sourced.refresh(&totals);
        // Refreshing twice must not double-count: store, not add.
        sourced.refresh(&totals);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot
                .get("gsn_storage_rows_inserted_total")
                .and_then(|s| s.as_counter()),
            Some(150)
        );
        assert_eq!(
            snapshot
                .get("gsn_sql_rows_scanned_total")
                .and_then(|s| s.as_counter()),
            Some(500)
        );
        assert_eq!(
            snapshot
                .get("gsn_sql_pushdown_applied_total")
                .and_then(|s| s.as_counter()),
            Some(2)
        );
        assert_eq!(
            snapshot
                .get("gsn_sql_residual_rows_filtered_total")
                .and_then(|s| s.as_counter()),
            Some(9)
        );
        assert_eq!(
            snapshot
                .get("gsn_sensors_deployed")
                .and_then(|s| s.as_gauge()),
            Some(4)
        );
    }
}
