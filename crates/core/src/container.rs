//! The GSN container: the runtime hosting a pool of virtual sensors on one node.
//!
//! "GSN follows a container-based architecture and each container can host and manage one
//! or more virtual sensors concurrently.  The container manages every aspect of the
//! virtual sensors at runtime including remote access, interaction with the sensor
//! network, security, persistence, data filtering, concurrency, and access to and pooling
//! of resources" (paper, Section 4).
//!
//! The container is clock-driven: [`GsnContainer::step`] advances every hosted virtual
//! sensor by polling its wrappers, draining network deliveries, running the processing
//! pipeline for each arrival, evaluating registered client queries and delivering
//! notifications.  Live deployments call `step` from a timer loop on the wall clock;
//! tests and benchmark harnesses drive it from a [`gsn_types::SimulatedClock`].
//!
//! ## Threading model: the sharded step loop
//!
//! With `ContainerConfig::workers > 1` the per-sensor pipelines run concurrently on a
//! [`WorkerPool`].  The moving parts:
//!
//! * **Shard assignment** — sensors are partitioned across the workers by a stable FNV
//!   hash of their name ([`shard_index`]); each shard's job processes its sensors in
//!   name order on one worker thread, so one sensor's pipeline is never concurrent with
//!   itself and its outputs stay in arrival order.
//! * **Shared state** — the managers a pipeline touches live in a [`PipelineRuntime`]
//!   shared by `Arc`: the [`StorageManager`] is internally synchronised (per-table
//!   `RwLock`s plus the container-wide shared buffer pool), the [`QueryRepository`] and
//!   [`NotificationManager`] sit behind `Mutex`es with short lock scopes (one
//!   evaluation / one delivery), and the remote-route table behind an `RwLock` that
//!   `step` only reads.
//! * **Lock order** — two descending chains share the storage table locks as their
//!   common leaf: `sensor mutex → storage table lock` (the pipeline inserts while the
//!   sensor is locked) and `query-manager mutex → storage table lock` (evaluation reads
//!   tables under the manager lock).  The notification mutex is taken with none of the
//!   above held.  Never acquire a sensor or manager mutex while holding a table lock.
//!   A sensor's mutex is *released* before its output fans out, so recursion into a
//!   consumer sensor (local loop-back routes) never holds two sensor locks at once.
//! * **What runs where** — network intake, subscription retries, deferred cross-shard
//!   deliveries, pruning and the per-step WAL group commit run sequentially on the
//!   caller; only wrapper polling + pipeline execution (and the per-output query
//!   evaluation / notification they trigger) run on the pool.
//! * **Determinism** — per-shard [`StepReport`]s merge in shard-index order, and
//!   loop-back deliveries that cross a shard boundary are deferred to a sequential
//!   post-barrier phase (ordered by producing shard, then production order).  With
//!   `workers = 1` no pool exists and the loop is byte-identical to the pre-sharding
//!   sequential semantics.  With `workers = N`, for sensors whose inputs are their own
//!   local wrappers (and registered queries over a single sensor's output), every
//!   per-sensor output sequence, notification stream and table content is identical to
//!   the sequential run — only cross-sensor interleaving (and wall-clock time) differs.
//!   Two workloads are inherently order-dependent and excluded from that parity: a
//!   loop-back consumer in a different shard than its producer observes the producer's
//!   step-N outputs after its own poll (post-barrier) instead of interleaved with it —
//!   still deterministic for a fixed worker count, but not identical to `workers = 1`;
//!   and a registered query joining tables of concurrently executing sensors reads
//!   whatever those tables hold mid-step, which may vary run to run.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use gsn_federation::{PlacementRing, ReplicatedDirectory};
use gsn_network::{
    AccessController, DirectoryEntry, Message, Operation, Principal, ReplicaRecord, RequestId,
    SimulatedNetwork,
};
use gsn_sql::{PartialAggregatePlan, Relation};
use gsn_storage::{StorageManager, StorageStats, WindowSpec};
use gsn_telemetry::{
    evaluate as evaluate_health, AssembledTrace, HealthSummary, HopBreakdown, MetricsRegistry,
    MetricsSnapshot, RemoteSpan, SlowQuery, SlowQueryLog, SpanId, SpanToken, Stopwatch,
    TraceContext, TraceLog,
};
use gsn_types::{
    Clock, EpochCell, GsnError, GsnResult, NodeId, StreamElement, Timestamp, Value,
    VirtualSensorName,
};
use gsn_wrappers::WrapperRegistry;
use gsn_xml::VirtualSensorDescriptor;
use parking_lot::Mutex;

use crate::config::ContainerConfig;
use crate::cursor::QueryCursor;
use crate::notification::{Notification, NotificationManager, NotificationStats, SubscriptionId};
use crate::pool::WorkerPool;
use crate::query::{
    shard_index, ClientQueryId, ClientQueryResult, QueryManagerStats, QueryPartitionStatus,
    QueryRepository,
};
use crate::sensor::{SensorStats, SourceRef, VirtualSensor};
use crate::telemetry::{ContainerTelemetry, SourcedMetrics, SourcedTotals};

/// What one call to [`GsnContainer::step`] did — the per-tick telemetry the benchmark
/// harnesses aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Stream elements that arrived from local wrappers.
    pub local_arrivals: u64,
    /// Stream elements that arrived from remote deliveries.
    pub remote_arrivals: u64,
    /// Output stream elements produced by virtual sensors.
    pub outputs: u64,
    /// Registered client-query evaluations performed.
    pub client_query_evaluations: u64,
    /// Pipeline errors.
    pub errors: u64,
    /// Sources newly detected silent (no data within the quality policy's threshold).
    pub silence_events: u64,
    /// Total wall-clock time spent inside sensor pipelines during this step, microseconds.
    pub processing_micros: u64,
}

impl StepReport {
    /// Adds another report's counters into this one.
    pub fn absorb(&mut self, other: StepReport) {
        self.local_arrivals += other.local_arrivals;
        self.remote_arrivals += other.remote_arrivals;
        self.outputs += other.outputs;
        self.client_query_evaluations += other.client_query_evaluations;
        self.errors += other.errors;
        self.silence_events += other.silence_events;
        self.processing_micros += other.processing_micros;
    }
}

/// Per-sensor entry of a [`ContainerStatus`].
#[derive(Debug, Clone)]
pub struct SensorStatus {
    /// The sensor name.
    pub name: String,
    /// Processing statistics.
    pub stats: SensorStats,
    /// Times any of the sensor's sources was detected silent.
    pub silence_episodes: u64,
}

/// A point-in-time status snapshot of the container (the programmatic equivalent of the
/// paper's monitoring web interface).
#[derive(Debug, Clone)]
pub struct ContainerStatus {
    /// The container name.
    pub name: String,
    /// The node identity.
    pub node: NodeId,
    /// Per-sensor statistics.
    pub sensors: Vec<SensorStatus>,
    /// Storage statistics.
    pub storage: StorageStats,
    /// Notification statistics.
    pub notifications: NotificationStats,
    /// Query repository statistics, merged across partitions.
    pub queries: QueryManagerStats,
    /// Per-partition query repository statistics (one partition per step-loop shard).
    pub query_partitions: Vec<QueryPartitionStatus>,
    /// SQL engine statistics (compilation cache plus the scanned/returned row counters
    /// of the pull-based executor).
    pub engine: gsn_sql::EngineStats,
    /// Number of registered client queries.
    pub registered_queries: usize,
    /// Wrapper kinds available on this container.
    pub wrapper_kinds: Vec<String>,
    /// Step-loop worker threads (1 = sequential).
    pub workers: usize,
    /// `(submitted, completed)` job counts of the step-loop worker pool, when sharded.
    pub pool_jobs: Option<(u64, u64)>,
    /// The health model's verdict per subsystem, evaluated over `metrics`.
    pub health: HealthSummary,
    /// The full metrics snapshot the status numbers derive from (incremental-vs-full
    /// evaluation counts and step-phase latencies live only here).
    pub metrics: MetricsSnapshot,
}

impl ContainerStatus {
    /// Renders the status as a human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("GSN container `{}` on {}\n", self.name, self.node));
        out.push_str(&format!(
            "  wrappers: {}\n  storage: {}\n",
            self.wrapper_kinds.join(", "),
            self.storage
        ));
        for table in &self.storage.tables_on_disk {
            out.push_str(&format!(
                "    table {}: {} B on disk, {}/{} segments live, {} B reclaimed in {} segments{}\n",
                table.name,
                table.usage.on_disk_bytes,
                table.usage.live_segments,
                table.usage.total_segments,
                table.usage.reclaimed_bytes,
                table.usage.reclaimed_segments,
                if table.kind == gsn_storage::BackendKind::Spilled {
                    " (spilled window)"
                } else {
                    ""
                }
            ));
        }
        if self.storage.maintenance.passes > 0 {
            out.push_str(&format!(
                "    maintenance: {} passes, {}\n",
                self.storage.maintenance.passes, self.storage.maintenance.reclaim
            ));
        }
        match self.pool_jobs {
            Some((submitted, completed)) => out.push_str(&format!(
                "  step loop: {} workers ({submitted} shard jobs submitted, {completed} completed)\n",
                self.workers
            )),
            None => out.push_str("  step loop: sequential (1 worker)\n"),
        }
        let counter = |name: &str| {
            self.metrics
                .get(name)
                .and_then(|sample| sample.as_counter())
                .unwrap_or(0)
        };
        out.push_str(&format!(
            "  registered client queries: {} (evaluated {}, failed {}; {} incremental / {} full)\n",
            self.registered_queries,
            self.queries.registered_evaluated,
            self.queries.registered_failed,
            counter("gsn_query_incremental_total"),
            counter("gsn_query_fallback_total"),
        ));
        if let Some(summary) = self
            .metrics
            .get("gsn_step_micros")
            .and_then(|sample| sample.as_histogram())
        {
            if summary.count > 0 {
                out.push_str(&format!(
                    "  step latency: p50 {} us, p99 {} us, max {} us over {} steps\n",
                    summary.p50, summary.p99, summary.max, summary.count
                ));
            }
        }
        for sub in &self.health.subsystems {
            out.push_str(&format!(
                "  health {}: {}{}\n",
                sub.subsystem,
                sub.state.label(),
                if sub.reasons.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", sub.reasons.join("; "))
                }
            ));
        }
        if self.query_partitions.len() > 1 {
            for p in &self.query_partitions {
                if p.registered == 0 && p.stats.registered_evaluated == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    query partition {}: {} registered, {} evaluated ({} failed)\n",
                    p.partition,
                    p.registered,
                    p.stats.registered_evaluated,
                    p.stats.registered_failed
                ));
            }
        }
        out.push_str(&format!(
            "  query executor: {} rows scanned / {} rows returned ({} plans compiled, {} cache hits)\n",
            self.engine.rows_scanned,
            self.engine.rows_returned,
            self.engine.compiled,
            self.engine.cache_hits
        ));
        out.push_str(&format!(
            "  notifications: local {} delivered, remote {} delivered / {} buffered / {} dropped\n",
            self.notifications.local_delivered,
            self.notifications.remote_delivered,
            self.notifications.remote_buffered,
            self.notifications.remote_dropped
        ));
        out.push_str(&format!("  virtual sensors ({}):\n", self.sensors.len()));
        for sensor in &self.sensors {
            out.push_str(&format!(
                "    {}: {} arrivals, {} outputs, {} errors, mean pipeline {:.3} ms{}\n",
                sensor.name,
                sensor.stats.arrivals,
                sensor.stats.outputs,
                sensor.stats.errors,
                sensor.stats.mean_processing_ms(),
                if sensor.silence_episodes > 0 {
                    format!(", {} silence episodes", sensor.silence_episodes)
                } else {
                    String::new()
                }
            ));
        }
        out
    }
}

/// A deployed sensor shared between the container and the step-loop workers.
type SharedSensor = Arc<Mutex<VirtualSensor>>;

/// The sensors visible to one pipeline execution context: the full container map on the
/// sequential paths, one shard on a worker.
type SensorView = BTreeMap<VirtualSensorName, SharedSensor>;

/// The container state the per-sensor pipelines share across worker threads.
///
/// Everything here is internally synchronised; see the module docs for the lock order.
struct PipelineRuntime {
    storage: Arc<StorageManager>,
    /// Internally partitioned by the step-loop shard hash — no outer mutex: each worker
    /// shard evaluates its own sensors' registered queries under its own partition lock.
    query_manager: QueryRepository,
    notifications: Mutex<NotificationManager>,
    network: Option<Arc<SimulatedNetwork>>,
    /// Routes incoming remote deliveries: remote sensor name -> local consumers.
    /// Epoch-published: the per-element hot path takes an `Arc` snapshot (one pointer
    /// clone, no lock held across the delivery) and (un)deployments install a new
    /// generation, so routing lookups never contend with each other or with writers.
    remote_routes: EpochCell<HashMap<String, Vec<(VirtualSensorName, SourceRef)>>>,
    /// Structured span log shared with the step-loop workers; disabled (one relaxed
    /// load per would-be span, no allocation) unless `ContainerConfig::trace_enabled`.
    trace: Arc<TraceLog>,
}

/// What one shard's pipeline pass produced: its slice of the step report plus loop-back
/// deliveries whose consumer lives in another shard (processed sequentially after the
/// barrier, in shard order, so the result is deterministic).
#[derive(Default)]
struct ShardOutcome {
    report: StepReport,
    deferred: Vec<(VirtualSensorName, SourceRef, StreamElement)>,
}

/// Stable shard assignment for sensors: the same normalised FNV-1a hash
/// ([`shard_index`]) the query repository partitions by, so a sensor's worker shard and
/// the partition holding the queries over its output table coincide.
fn sensor_shard(name: &VirtualSensorName, shards: usize) -> usize {
    shard_index(name.as_str(), shards)
}

/// Runs one sensor's full pipeline pass: poll local wrappers, process each arrival,
/// check for silent sources.
fn pipeline_sensor(
    runtime: &PipelineRuntime,
    view: &SensorView,
    name: &VirtualSensorName,
    now: Timestamp,
    out: &mut ShardOutcome,
) {
    let Some(sensor) = view.get(name) else {
        return;
    };
    let poll_span = runtime.trace.begin("wrapper.poll", SpanId::NONE);
    let arrivals = sensor.lock().poll_local_sources(now);
    runtime
        .trace
        .finish_with(poll_span, || format!("{name}: {} arrivals", arrivals.len()));
    for (source_ref, element) in arrivals {
        out.report.local_arrivals += 1;
        process_one(runtime, view, name, source_ref, element, now, out);
    }
    // Stream-quality: silence detection.
    if let Some(sensor) = view.get(name) {
        let newly_silent = sensor.lock().check_silence(now);
        out.report.silence_events += newly_silent.len() as u64;
    }
}

/// Processes a single element arrival for one sensor/source and fans out the result.
///
/// The sensor's mutex is released before the fan-out, so loop-back recursion into a
/// consumer sensor never holds two sensor locks at once.
fn process_one(
    runtime: &PipelineRuntime,
    view: &SensorView,
    name: &VirtualSensorName,
    source_ref: SourceRef,
    element: StreamElement,
    now: Timestamp,
    out: &mut ShardOutcome,
) {
    let Some(sensor) = view.get(name) else {
        return;
    };
    // One root span per element arrival; the pipeline/query/notification children hang
    // off it, reconstructing the paper's wrapper → pipeline → storage → notification
    // flow for a single element.
    let element_span = runtime.trace.begin("element", SpanId::NONE);
    let pipeline_span = runtime.trace.begin("pipeline", element_span.id());
    let (outcome, elapsed_micros, output_table) = {
        let mut guard = sensor.lock();
        let before = guard.stats().total_processing_micros;
        let outcome = guard.process_arrival(source_ref, element, now, &runtime.storage);
        let elapsed = guard.stats().total_processing_micros - before;
        (outcome, elapsed, guard.output_table().to_owned())
    };
    runtime
        .trace
        .finish_with(pipeline_span, || format!("{name} -> {output_table}"));
    out.report.processing_micros += elapsed_micros;
    match outcome {
        Ok(Some(output)) => {
            out.report.outputs += 1;
            // Registered client queries over this sensor's output.
            let query_span = runtime.trace.begin("query.evaluate", element_span.id());
            let results =
                runtime
                    .query_manager
                    .evaluate_for_table(&output_table, &runtime.storage, now);
            out.report.client_query_evaluations += results.len() as u64;
            runtime.trace.finish_with(query_span, || {
                format!("{}: {} evaluations", output_table, results.len())
            });
            deliver_client_results(runtime, results, now);
            // Local + remote notifications.
            let notify_span = runtime.trace.begin("notification", element_span.id());
            runtime.notifications.lock().notify(
                name.as_str(),
                &output,
                now,
                runtime.network.as_deref(),
            );
            runtime
                .trace
                .finish_with(notify_span, || name.as_str().to_owned());
            // Local loop-back remote routes (a sensor on this node consuming another
            // local sensor through the `remote` wrapper).  Snapshot semantics: the
            // routes as of this element's delivery; a concurrent (un)deploy publishes
            // a new generation that later elements see.
            let local_routes = runtime.remote_routes.load();
            for (consumer, consumer_ref) in local_routes.get(name.as_str()).into_iter().flatten() {
                if consumer == name {
                    continue;
                }
                if view.contains_key(consumer) {
                    out.report.remote_arrivals += 1;
                    deliver_remote(
                        runtime,
                        view,
                        consumer,
                        *consumer_ref,
                        output.clone(),
                        now,
                        out,
                    );
                } else {
                    // The consumer lives in another shard (or was undeployed): hand the
                    // delivery back for the sequential post-barrier phase.
                    out.deferred
                        .push((consumer.clone(), *consumer_ref, output.clone()));
                }
            }
        }
        Ok(None) => {}
        Err(_) => out.report.errors += 1,
    }
    runtime
        .trace
        .finish_with(element_span, || name.as_str().to_owned());
}

/// Handles one element delivered for a remote route (a local consumer of a remote or
/// loop-back producer).
fn deliver_remote(
    runtime: &PipelineRuntime,
    view: &SensorView,
    consumer: &VirtualSensorName,
    source_ref: SourceRef,
    element: StreamElement,
    now: Timestamp,
    out: &mut ShardOutcome,
) {
    let Some(sensor) = view.get(consumer) else {
        return;
    };
    if sensor
        .lock()
        .ensure_remote_schema(source_ref, &element, &runtime.storage)
        .is_err()
    {
        out.report.errors += 1;
        return;
    }
    process_one(runtime, view, consumer, source_ref, element, now, out);
}

/// Routes client-query results to their subscribers (modelled as notifications on the
/// client's name; the extensible channel architecture of the notification manager lets
/// applications attach whatever transport they need).
fn deliver_client_results(
    runtime: &PipelineRuntime,
    results: Vec<ClientQueryResult>,
    now: Timestamp,
) {
    for result in results {
        if result.relation.is_empty() {
            continue;
        }
        if let Ok(Some(element)) = result
            .relation
            .to_stream_element(&Arc::new(relation_schema(&result.relation)), now)
        {
            runtime.notifications.lock().notify(
                &format!("client:{}", result.client),
                &element,
                now,
                None,
            );
        }
    }
}

/// The GSN container.
pub struct GsnContainer {
    config: ContainerConfig,
    clock: Arc<dyn Clock>,
    registry: Arc<WrapperRegistry>,
    runtime: Arc<PipelineRuntime>,
    sensors: BTreeMap<VirtualSensorName, SharedSensor>,
    /// The step-loop worker pool; `None` when `workers <= 1` (sequential semantics).
    pool: Option<WorkerPool>,
    access: AccessController,
    /// Remote subscriptions this container has requested but not yet seen acknowledged.
    /// Un-acked subscriptions are re-sent on every step so that a lost Subscribe message
    /// (lossy link, partition during deployment) does not silence the source forever.
    pending_subscriptions: Vec<PendingSubscription>,
    next_request_id: u64,
    /// Streaming-query cursors opened on behalf of remote peers, by cursor id.  Each
    /// `QueryNext` advances its cursor one batch; the cursor closes when exhausted,
    /// on error, when idle past [`REMOTE_CURSOR_IDLE_TIMEOUT`], or when the peer's
    /// request would exceed [`MAX_REMOTE_CURSORS`].
    remote_cursors: HashMap<u64, RemoteCursor>,
    next_cursor_id: u64,
    /// In-flight streaming queries this container has issued to remote peers,
    /// accumulated batch by batch until `done`.
    remote_queries: HashMap<RequestId, RemoteQueryState>,
    /// Steps executed so far; paces the periodic storage maintenance pass.
    steps: u64,
    /// The metrics registry every subsystem's instruments are adopted into.
    metrics: Arc<MetricsRegistry>,
    /// The container's own live instruments (step phases, federation counters).
    telemetry: ContainerTelemetry,
    /// Handles for the totals refreshed from the subsystem stats at snapshot time.
    sourced: SourcedMetrics,
    /// Ad-hoc queries slower than the configured threshold land here (shared with the
    /// query repository, which reports registered evaluations into the same log).
    slow_queries: Arc<SlowQueryLog>,
    /// In-flight metrics scrapes this container has issued to peers.
    pending_metric_scrapes: HashMap<RequestId, MetricScrapeState>,
    /// In-flight distributed-trace collections this node coordinates.
    pending_trace_collects: HashMap<RequestId, TraceCollectState>,
    /// Completed distributed traces, oldest evicted past [`MAX_ASSEMBLED_TRACES`].
    assembled_traces: VecDeque<AssembledTrace>,
    /// The most recent local health evaluation (refreshed each gossip round; `None`
    /// until the first round, and always `None` on standalone containers).
    local_health: Option<HealthSummary>,
    /// Most recent snapshot received from each peer (kept after the take, so a
    /// monitoring loop can read every peer's last known state at once).
    peer_metrics: HashMap<NodeId, MetricsSnapshot>,
    /// Mesh-federation state (placement ring + gossip-replicated directory); `None`
    /// exactly for standalone containers.
    mesh: Option<MeshState>,
    /// Federated scatter-gather queries this node coordinates, by request id.
    federated: HashMap<RequestId, FederatedQueryState>,
}

/// Client-side state of one in-flight peer metrics scrape.
#[derive(Debug)]
struct MetricScrapeState {
    /// The scraped node (re-requests go back to it).
    target: NodeId,
    /// The arrived snapshot, once any.
    snapshot: Option<MetricsSnapshot>,
    /// Last time the request (or a re-request) was sent — paces the lossy-link retry.
    last_request: Timestamp,
    /// When the scrape was issued (stalled scrapes are reaped like remote queries).
    issued: Timestamp,
}

/// Coordinator-side state of one distributed-trace collection: spans of one trace id
/// being gathered off every participating peer (see
/// [`GsnContainer::collect_remote_spans`]).
#[derive(Debug)]
struct TraceCollectState {
    /// The trace being assembled.
    trace_id: u128,
    /// The root span id (on this coordinator).
    root: u64,
    /// Peers whose spans have not arrived yet.
    pending: Vec<NodeId>,
    /// Spans gathered so far (this node's own spans are seeded at issue time).
    spans: Vec<RemoteSpan>,
    /// Last time the collect (or a re-request) was sent — paces the lossy-link retry.
    last_request: Timestamp,
    /// When the collect was issued (stalled collects assemble what arrived and stop).
    issued: Timestamp,
}

/// How many assembled distributed traces the container retains for `/traces` readers.
const MAX_ASSEMBLED_TRACES: usize = 16;

/// Upper bound on concurrently open server-side remote query cursors; requests past
/// the cap are refused (the idle reaper below keeps abandoned cursors from pinning
/// slots until then).
const MAX_REMOTE_CURSORS: usize = 64;

/// How long a remote cursor may sit idle (no `QueryNext` from its owner) before the
/// step loop reaps it.  An abandoned cursor — client crashed, or the final
/// `QueryNext`/`QueryBatch` lost on a lossy link — would otherwise hold its slot
/// forever and eventually wedge remote queries at [`MAX_REMOTE_CURSORS`].
const REMOTE_CURSOR_IDLE_TIMEOUT: gsn_types::Duration = gsn_types::Duration::from_secs(60);

/// How long this container waits for a `QueryBatch` before re-requesting it.  A dropped
/// `QueryNext` or `QueryBatch` on a lossy link is thereby *recovered* (batch sequence
/// numbers make the retry idempotent) instead of stalling the query until the
/// [`REMOTE_CURSOR_IDLE_TIMEOUT`] reap.
const REMOTE_QUERY_RETRY_AFTER: gsn_types::Duration = gsn_types::Duration::from_secs(2);

/// How many batches a prefetching remote cursor keeps speculatively in flight ahead of
/// the client's cumulative acknowledgements.
const PREFETCH_WINDOW: usize = 4;

/// How often a prefetching client acknowledges (every Nth batch): half the window, so
/// the server's speculation never drains while an ack is in flight.
const PREFETCH_ACK_EVERY: u64 = (PREFETCH_WINDOW / 2) as u64;

/// Rows per batch of the per-host sub-queries a row-shipping federated query issues
/// (plain pull cursors, no prefetch).
const ROW_SHIP_BATCH_ROWS: usize = 256;

/// One streaming-query cursor held open on behalf of a remote peer.
struct RemoteCursor {
    /// The peer that opened the cursor; only it may pull (the rows were
    /// access-checked against *its* principal, and cursor ids are guessable).
    owner: NodeId,
    /// The originating request id (retransmitted `QueryRequest`s are matched by
    /// `(owner, request)` so a lost first batch does not open a duplicate cursor).
    request: RequestId,
    /// `None` once exhausted: the entry lingers as a tombstone so a lost *final*
    /// batch can be retransmitted, until the idle reaper collects it.
    cursor: Option<QueryCursor>,
    /// Sequence number the next fresh batch will carry.
    next_seq: u64,
    /// The last batch shipped, cached for retransmission on re-request
    /// (strictly pull-based cursors only; prefetching cursors cache in `window`).
    last_batch: Option<Message>,
    /// Last time the owner pulled a batch (for the idle reaper).
    last_active: Timestamp,
    /// True when this cursor pipelines: batches are pushed speculatively and
    /// `QueryNext.expect_seq` acts as a cumulative ack.
    prefetch: bool,
    /// Sent-but-unacknowledged batches of a prefetching cursor, by sequence number,
    /// for retransmission; acknowledged entries are dropped as acks arrive.
    window: BTreeMap<u64, Message>,
    /// Highest cumulative ack seen from the owner (prefetching cursors only).
    last_ack: u64,
    /// Time spent authorising and opening the cursor, charged to the first batch's
    /// `server_micros` so the client's per-hop breakdown sees the open cost.
    open_micros: u64,
}

/// Client-side accumulation of one in-flight remote streaming query.
#[derive(Debug)]
struct RemoteQueryState {
    /// The queried node (re-requests go back to it).
    target: NodeId,
    /// The SQL text, kept so a lost *first* batch can retransmit the `QueryRequest`
    /// itself (the server matches it to the already-open cursor by request id).
    sql: String,
    batch_rows: u32,
    /// True when the server pipelines batches ahead of our acknowledgements.
    prefetch: bool,
    /// The server-side cursor id, learned from the first batch.
    cursor: Option<u64>,
    /// The batch sequence number expected next (duplicates below it are ignored).
    expect_seq: u64,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    batches: u64,
    done: bool,
    error: Option<String>,
    /// Last time a batch arrived (stalled, not-yet-done requests are reaped after
    /// [`REMOTE_CURSOR_IDLE_TIMEOUT`]; completed results wait for their taker).
    last_activity: Timestamp,
    /// Last time the request or a re-request was sent (paces the retry loop).
    last_request: Timestamp,
    /// Distributed-trace context carried on the request frames (retries included);
    /// `None` for untraced queries.
    trace: Option<TraceContext>,
    /// Time spent encoding the request frame (measured only when traced).
    serialize_micros: u64,
    /// Round trip of the opening request, from send to first batch, milliseconds.
    open_rtt_millis: u64,
    /// Total server-side open/execute time reported by the batches' `server_micros`.
    server_micros: u64,
    /// Request frames re-sent to this peer after apparent loss.
    retransmits: u64,
}

/// The assembled result of a remote streaming query (see
/// [`GsnContainer::remote_query`]).
#[derive(Debug, Clone)]
pub struct RemoteQueryResult {
    /// The result rows, assembled from the incremental `QueryBatch` messages.
    pub relation: Relation,
    /// How many batches carried the result over the wire.
    pub batches: u64,
    /// Wire-timing breakdown of this hop (serialize, RTT, remote execute, retries).
    pub hop: HopBreakdown,
}

#[derive(Debug, Clone)]
struct PendingSubscription {
    producer: NodeId,
    sensor: String,
    request: u64,
    acked: bool,
    refused: bool,
}

/// Mesh-federation state: a networked container's own directory replica and ring view.
///
/// A mesh container discovers sensors from its own [`ReplicatedDirectory`] (kept
/// convergent by anti-entropy gossip) and places data by the [`PlacementRing`], so no
/// lookup ever crosses the network on the hot path.
struct MeshState {
    /// This node's view of the consistent-hash placement ring.
    ring: PlacementRing,
    /// The local directory replica.  Behind a mutex so the deploy-time resolver
    /// closure (holding `&self`) can consult it while the lookup counter advances.
    replica: Mutex<ReplicatedDirectory>,
    /// Steps between anti-entropy gossip rounds (0 disables gossip).
    gossip_interval_steps: u64,
    /// LCG state for the random gossip-peer pick, seeded from the node id so runs on
    /// a simulated clock stay deterministic.
    rng: u64,
}

/// Coordinator-side state of one federated scatter-gather query.
struct FederatedQueryState {
    /// The original SQL (re-run locally over shipped rows on the fallback path).
    sql: String,
    /// When the scatter was issued (for the latency histogram).
    started: Timestamp,
    /// Last time the scatter (or a re-scatter) was sent — paces the lossy-link retry.
    last_request: Timestamp,
    /// Last time any gather progress arrived (abandoned scatters are reaped).
    last_activity: Timestamp,
    mode: FederatedMode,
    /// Distributed-trace context of this scatter (`None` when tracing is disabled).
    trace: Option<TraceContext>,
    /// The coordinator's root span, finished when the gather completes.
    root_span: Option<SpanToken>,
    /// Per-peer wire-timing breakdown, accumulated as the gather progresses.
    hops: Vec<HopBreakdown>,
    /// The merged result, once complete; waits for its taker.
    result: Option<GsnResult<Relation>>,
}

/// How a federated query's scatter travels the wire.
enum FederatedMode {
    /// Decomposable aggregate: every host computes a container-side partial and only
    /// partial-aggregate frames travel — never raw rows.
    Partial {
        plan: PartialAggregatePlan,
        /// Hosts whose partial has not arrived yet.
        pending: Vec<NodeId>,
        /// Partial result sets gathered so far (the local one included).
        partials: Vec<Vec<Vec<Value>>>,
    },
    /// Non-decomposable shape: ship every host's rows over the streaming-query wire,
    /// union them per table, and run the original SQL locally.
    RowShip {
        /// In-flight sub-queries: `(remote_query request, table)`.
        pending: Vec<(RequestId, String)>,
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

impl std::fmt::Debug for GsnContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GsnContainer({}, {} sensors, {} workers)",
            self.config.name,
            self.sensors.len(),
            self.pool.as_ref().map(WorkerPool::size).unwrap_or(1),
        )
    }
}

impl GsnContainer {
    /// Creates a standalone container (no peer-to-peer networking) on the given clock.
    pub fn new(config: ContainerConfig, clock: Arc<dyn Clock>) -> GsnContainer {
        Self::build(config, clock, None)
    }

    /// Creates a container attached to a simulated network with *mesh* federation:
    /// sensor discovery runs against a local gossip-replicated directory and data
    /// placement against a consistent-hash ring.  Call
    /// [`mesh_bootstrap`](Self::mesh_bootstrap) with a seed view to join an existing
    /// mesh (or with an empty view to found one).
    pub fn with_mesh(
        config: ContainerConfig,
        clock: Arc<dyn Clock>,
        network: Arc<SimulatedNetwork>,
    ) -> GsnResult<GsnContainer> {
        network.add_node(config.node_id)?;
        let node = config.node_id;
        let mut container = Self::build(config, clock, Some(network));
        container.mesh = Some(MeshState {
            ring: PlacementRing::default(),
            replica: Mutex::new(ReplicatedDirectory::new(node)),
            gossip_interval_steps: 2,
            rng: node
                .as_u64()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1),
        });
        Ok(container)
    }

    fn build(
        config: ContainerConfig,
        clock: Arc<dyn Clock>,
        network: Option<Arc<SimulatedNetwork>>,
    ) -> GsnContainer {
        let pool = (config.workers > 1)
            .then(|| WorkerPool::new(&format!("{}-step", config.name), config.workers));
        let trace = Arc::new(TraceLog::with_capacity(config.trace_capacity));
        trace.set_enabled(config.trace_enabled);
        // Namespace span ids by node so spans collected off different containers
        // never collide when assembled into one distributed trace tree.
        trace.set_id_namespace(config.node_id.as_u64());
        let runtime = Arc::new(PipelineRuntime {
            storage: Arc::new(StorageManager::with_options(config.storage_options())),
            query_manager: QueryRepository::with_partitions(
                config.workers.max(1),
                config.incremental_queries,
            ),
            notifications: Mutex::new(NotificationManager::new(
                config.node_id,
                config.disconnect_buffer_capacity,
            )),
            network,
            remote_routes: EpochCell::new(HashMap::new()),
            trace,
        });

        // Adopt every subsystem's instrument handles into one registry: the handles
        // were live from construction, so nothing recorded before this point is lost.
        let metrics = Arc::new(MetricsRegistry::new());
        let telemetry = ContainerTelemetry::new();
        telemetry.register_into(&metrics);
        let sourced = SourcedMetrics::new();
        sourced.register_into(&metrics);
        runtime.storage.telemetry().register_into(&metrics);
        runtime.query_manager.telemetry().register_into(&metrics);
        let sql_telemetry = gsn_sql::SqlTelemetry::new();
        sql_telemetry.register_into(&metrics);
        runtime.query_manager.set_sql_telemetry(&sql_telemetry);
        let slow_queries = Arc::clone(runtime.query_manager.slow_query_log());
        slow_queries.set_threshold_micros(config.slow_query_threshold_micros);

        GsnContainer {
            registry: Arc::new(WrapperRegistry::with_builtins()),
            runtime,
            sensors: BTreeMap::new(),
            pool,
            access: AccessController::permissive(),
            pending_subscriptions: Vec::new(),
            next_request_id: 1,
            remote_cursors: HashMap::new(),
            next_cursor_id: 1,
            remote_queries: HashMap::new(),
            steps: 0,
            metrics,
            telemetry,
            sourced,
            slow_queries,
            pending_metric_scrapes: HashMap::new(),
            pending_trace_collects: HashMap::new(),
            assembled_traces: VecDeque::new(),
            local_health: None,
            peer_metrics: HashMap::new(),
            mesh: None,
            federated: HashMap::new(),
            clock,
            config,
        }
    }

    /// The container configuration.
    pub fn config(&self) -> &ContainerConfig {
        &self.config
    }

    /// The node identity.
    pub fn node_id(&self) -> NodeId {
        self.config.node_id
    }

    /// The container clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The wrapper registry (register additional platforms here before deploying).
    pub fn wrapper_registry(&self) -> &Arc<WrapperRegistry> {
        &self.registry
    }

    /// The storage manager (read-only access for inspection; the container owns writes).
    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.runtime.storage
    }

    /// Checkpoints every persistent storage table to stable storage.
    ///
    /// Persistent tables also checkpoint automatically on WAL growth and when the
    /// container is dropped; call this for an explicit durability point (e.g. before
    /// process hand-over).
    pub fn flush_storage(&self) -> GsnResult<()> {
        self.runtime.storage.flush_all()
    }

    /// The access-control layer.
    pub fn access_control(&self) -> &AccessController {
        &self.access
    }

    /// The names of all deployed virtual sensors, sorted.
    pub fn sensor_names(&self) -> Vec<String> {
        self.sensors.keys().map(|n| n.as_str().to_owned()).collect()
    }

    /// Per-sensor processing statistics.
    pub fn sensor_stats(&self, name: &str) -> GsnResult<SensorStats> {
        let key = VirtualSensorName::new(name)?;
        self.sensors
            .get(&key)
            .map(|s| s.lock().stats())
            .ok_or_else(|| GsnError::not_found(format!("virtual sensor `{name}` is not deployed")))
    }

    // -----------------------------------------------------------------------------------
    // Deployment
    // -----------------------------------------------------------------------------------

    /// Deploys a virtual sensor from its XML descriptor text.
    pub fn deploy_xml(&mut self, xml: &str) -> GsnResult<VirtualSensorName> {
        let descriptor = VirtualSensorDescriptor::parse(xml)?;
        self.deploy(descriptor)
    }

    /// Deploys a virtual sensor from a parsed descriptor.
    ///
    /// Deployment publishes the sensor's metadata to the local directory replica (when
    /// networked; gossip spreads it) and, for every `wrapper="remote"` stream source,
    /// resolves the predicates against that replica and subscribes to the producing node.
    pub fn deploy(&mut self, descriptor: VirtualSensorDescriptor) -> GsnResult<VirtualSensorName> {
        if self.sensors.len() >= self.config.max_virtual_sensors {
            return Err(GsnError::resource_exhausted(format!(
                "container `{}` already hosts {} virtual sensors",
                self.config.name,
                self.sensors.len()
            )));
        }
        let name = descriptor.name.clone();
        if self.sensors.contains_key(&name) {
            return Err(GsnError::already_exists(format!(
                "virtual sensor `{name}` is already deployed"
            )));
        }

        let mesh = &self.mesh;
        let deployed_at = self.clock.now();
        let sensor = VirtualSensor::deploy(
            descriptor,
            &self.registry,
            &self.runtime.storage,
            |address| {
                // Local loop-back entries resolve like remote ones: the producer is a
                // sensor on this very node and deliveries short-circuit through notify().
                let Some(mesh) = mesh else {
                    return Err(GsnError::config(
                        "this container has no directory; `wrapper=\"remote\"` sources are unavailable",
                    ));
                };
                let entry = mesh.replica.lock().resolve_one(&address.predicates)?;
                Ok((entry.node, entry.sensor))
            },
            deployed_at,
        )?;

        // Publish to the local replica; gossip spreads it.
        if let Some(mesh) = &self.mesh {
            let mut metadata = sensor.descriptor().metadata.clone();
            metadata.push(("name".to_owned(), name.as_str().to_owned()));
            metadata.push(("container".to_owned(), self.config.name.clone()));
            mesh.replica.lock().register(name.as_str(), metadata)?;
        }

        // Wire up remote sources: remember the routing and send Subscribe messages.
        for (producer, remote_sensor, source_ref) in sensor.remote_sources() {
            self.runtime.remote_routes.update(|routes| {
                let mut next = routes.clone();
                next.entry(remote_sensor.to_ascii_lowercase())
                    .or_default()
                    .push((name.clone(), source_ref));
                (next, ())
            });
            if producer != self.config.node_id {
                if let Some(network) = &self.runtime.network {
                    let request = self.next_request_id;
                    self.next_request_id += 1;
                    let _ = network.send(
                        self.config.node_id,
                        producer,
                        Message::Subscribe {
                            request,
                            subscriber: self.config.node_id,
                            sensor: remote_sensor.clone(),
                        },
                        self.clock.now(),
                    );
                    self.pending_subscriptions.push(PendingSubscription {
                        producer,
                        sensor: remote_sensor.clone(),
                        request,
                        acked: false,
                        refused: false,
                    });
                }
            } else {
                // Producer is this very container: subscribe locally.
                self.runtime
                    .notifications
                    .lock()
                    .add_remote_subscriber(self.config.node_id, &remote_sensor);
            }
        }

        self.sensors
            .insert(name.clone(), Arc::new(Mutex::new(sensor)));
        Ok(name)
    }

    /// Undeploys a virtual sensor, dropping its storage and directory entry.
    pub fn undeploy(&mut self, name: &str) -> GsnResult<()> {
        let key = VirtualSensorName::new(name)?;
        let sensor = self.sensors.remove(&key).ok_or_else(|| {
            GsnError::not_found(format!("virtual sensor `{name}` is not deployed"))
        })?;
        sensor.lock().teardown(&self.runtime.storage);
        if let Some(mesh) = &self.mesh {
            let _ = mesh.replica.lock().deregister(key.as_str());
        }
        let (_, orphaned): (u64, Vec<String>) = self.runtime.remote_routes.update(|routes| {
            let mut next = routes.clone();
            next.values_mut().for_each(|consumers| {
                consumers.retain(|(owner, _)| owner != &key);
            });
            // Remote sensors no local consumer references any more.
            let orphaned = next
                .iter()
                .filter(|(_, consumers)| consumers.is_empty())
                .map(|(sensor, _)| sensor.clone())
                .collect();
            (next, orphaned)
        });
        // Drop pending subscriptions (and send Unsubscribe) for orphaned remote sensors.
        for sensor in &orphaned {
            if let Some(network) = &self.runtime.network {
                if let Some(pending) = self
                    .pending_subscriptions
                    .iter()
                    .find(|p| p.sensor.eq_ignore_ascii_case(sensor))
                {
                    let _ = network.send(
                        self.config.node_id,
                        pending.producer,
                        Message::Unsubscribe {
                            subscriber: self.config.node_id,
                            sensor: sensor.clone(),
                        },
                        self.clock.now(),
                    );
                }
            }
            self.pending_subscriptions
                .retain(|p| !p.sensor.eq_ignore_ascii_case(sensor));
        }
        self.runtime.remote_routes.update(|routes| {
            let mut next = routes.clone();
            next.retain(|_, consumers| !consumers.is_empty());
            (next, ())
        });
        Ok(())
    }

    // -----------------------------------------------------------------------------------
    // Querying and subscriptions
    // -----------------------------------------------------------------------------------

    /// Executes an ad-hoc SQL query over the container's virtual sensor output tables.
    pub fn query(&self, sql: &str) -> GsnResult<Relation> {
        self.query_as(&Principal::Anonymous, sql)
    }

    /// Executes an ad-hoc SQL query on behalf of a principal, enforcing access control on
    /// every referenced virtual sensor.
    pub fn query_as(&self, principal: &Principal, sql: &str) -> GsnResult<Relation> {
        let prepared = gsn_sql::SqlEngine::compile(sql, &gsn_sql::OptimizerConfig::default())?;
        for table in prepared.referenced_tables() {
            self.access.authorize(principal, Operation::Read, table)?;
        }
        let watch = Stopwatch::start();
        let result =
            self.runtime
                .query_manager
                .execute_adhoc(sql, &self.runtime.storage, self.clock.now());
        if let Ok(relation) = &result {
            let micros = watch.elapsed_micros();
            self.slow_queries.observe(micros, || SlowQuery {
                sql: sql.to_owned(),
                micros,
                explain: prepared.explain(),
                rows_scanned: 0,
                rows_returned: relation.row_count() as u64,
                hops: Vec::new(),
            });
        }
        result
    }

    /// Opens a *streaming* ad-hoc query: rows are pulled in batches instead of
    /// materialising the whole result, so a `LIMIT` query over a large
    /// `permanent-storage` table reads only the storage pages it needs.
    ///
    /// The returned cursor owns its plan and table handles — it holds no container
    /// lock between pulls.  [`query`](Self::query) remains the collecting convenience.
    pub fn query_cursor(&self, sql: &str) -> GsnResult<QueryCursor> {
        self.query_cursor_as(&Principal::Anonymous, sql)
    }

    /// Opens a streaming ad-hoc query on behalf of a principal, enforcing access
    /// control on every referenced virtual sensor.
    pub fn query_cursor_as(&self, principal: &Principal, sql: &str) -> GsnResult<QueryCursor> {
        let prepared = self.runtime.query_manager.prepare(sql)?;
        for table in prepared.referenced_tables() {
            self.access.authorize(principal, Operation::Read, table)?;
        }
        // When the cursor is dropped its counters fold into the engine statistics, so
        // streaming executions show up in `ContainerStatus` like materialised ones.
        let runtime = Arc::clone(&self.runtime);
        let telemetry = Box::new(
            move |scanned: u64, returned: u64, pages_skipped: u64, residual_filtered: u64| {
                runtime.query_manager.record_cursor(
                    scanned,
                    returned,
                    pages_skipped,
                    residual_filtered,
                );
            },
        );
        QueryCursor::open(
            &prepared,
            Arc::clone(&self.runtime.storage),
            self.clock.now(),
            Some(telemetry),
        )
    }

    /// Issues a streaming SQL query against a *remote* container.  The remote node
    /// opens a pull-based cursor and ships the result as incremental `QueryBatch`
    /// messages of `batch_rows` rows each (instead of one monolithic relation), which
    /// this container assembles over subsequent [`step`](Self::step)s.  Poll
    /// [`take_remote_query_result`](Self::take_remote_query_result) with the returned
    /// request id.
    pub fn remote_query(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
    ) -> GsnResult<RequestId> {
        self.remote_query_with(target, sql, batch_rows, false, None)
    }

    /// Like [`remote_query`](Self::remote_query), but with cursor prefetch pipelining:
    /// the server speculatively pushes a window of batches ahead of this container's
    /// acknowledgements, hiding one link round trip per batch.  `QueryNext` becomes a
    /// cumulative ack sent every half-window instead of a per-batch pull.
    pub fn remote_query_prefetch(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
    ) -> GsnResult<RequestId> {
        self.remote_query_with(target, sql, batch_rows, true, None)
    }

    fn remote_query_with(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
        prefetch: bool,
        trace: Option<TraceContext>,
    ) -> GsnResult<RequestId> {
        let Some(network) = self.runtime.network.clone() else {
            return Err(GsnError::config(
                "this container has no network; remote queries are unavailable",
            ));
        };
        let batch_rows = batch_rows.clamp(1, 65_536) as u32;
        let request = self.next_request_id;
        self.next_request_id += 1;
        let message = Message::QueryRequest {
            request,
            sql: sql.to_owned(),
            batch_rows,
            prefetch,
            trace,
        };
        // The serialize leg of the hop breakdown: measured by a throwaway encode,
        // and only for traced queries — untraced hot paths pay nothing.
        let serialize_micros = if trace.is_some() {
            let watch = Stopwatch::start();
            let _ = gsn_network::encode(&message);
            watch.elapsed_micros()
        } else {
            0
        };
        network.send(self.config.node_id, target, message, self.clock.now())?;
        self.remote_queries.insert(
            request,
            RemoteQueryState {
                target,
                sql: sql.to_owned(),
                batch_rows,
                prefetch,
                cursor: None,
                expect_seq: 0,
                columns: Vec::new(),
                rows: Vec::new(),
                batches: 0,
                done: false,
                error: None,
                last_activity: self.clock.now(),
                last_request: self.clock.now(),
                trace,
                serialize_micros,
                open_rtt_millis: 0,
                server_micros: 0,
                retransmits: 0,
            },
        );
        Ok(request)
    }

    /// Cancels an in-flight remote query, dropping any batches accumulated so far;
    /// returns whether the request was still tracked.  A server-side cursor left open
    /// by the cancellation is reclaimed by the remote node's idle reaper.
    pub fn cancel_remote_query(&mut self, request: RequestId) -> bool {
        self.remote_queries.remove(&request).is_some()
    }

    /// Number of remote queries issued by this container whose results are still
    /// tracked (in flight or awaiting [`take_remote_query_result`](Self::take_remote_query_result)).
    pub fn pending_remote_queries(&self) -> usize {
        self.remote_queries.len()
    }

    /// Takes the finished result of a query issued with [`remote_query`](Self::remote_query):
    /// `None` while batches are still in flight, `Some(Err)` when the remote node
    /// reported a failure, `Some(Ok)` with the assembled relation once complete.
    pub fn take_remote_query_result(
        &mut self,
        request: RequestId,
    ) -> Option<GsnResult<RemoteQueryResult>> {
        if !self.remote_queries.get(&request)?.done {
            return None;
        }
        let state = self.remote_queries.remove(&request).expect("state present");
        if let Some(error) = state.error {
            return Some(Err(GsnError::sql_exec(format!(
                "remote query failed: {error}"
            ))));
        }
        let columns = state
            .columns
            .iter()
            .map(|name| gsn_sql::ColumnInfo::new(None, name, None))
            .collect();
        Some(
            Relation::with_rows(columns, state.rows).map(|relation| RemoteQueryResult {
                relation,
                batches: state.batches,
                hop: HopBreakdown {
                    peer: state.target.as_u64(),
                    serialize_micros: state.serialize_micros,
                    rtt_millis: state.open_rtt_millis,
                    remote_micros: state.server_micros,
                    retransmits: state.retransmits,
                },
            }),
        )
    }

    /// Number of streaming cursors currently held open on behalf of remote peers
    /// (exhausted cursors lingering only for final-batch retransmission not counted).
    pub fn open_remote_cursors(&self) -> usize {
        self.remote_cursors
            .values()
            .filter(|open| open.cursor.is_some())
            .count()
    }

    /// Renders the execution plan of a query (EXPLAIN).
    pub fn explain(&self, sql: &str) -> GsnResult<String> {
        self.runtime.query_manager.explain(sql)
    }

    /// Registers a continuous client query (see [`QueryRepository::register`]).
    pub fn register_query(
        &self,
        client: &str,
        sql: &str,
        history: WindowSpec,
        sampling_rate: Option<f64>,
    ) -> GsnResult<ClientQueryId> {
        self.runtime
            .query_manager
            .register(client, sql, history, sampling_rate)
    }

    /// Removes a registered client query.
    pub fn deregister_query(&self, id: ClientQueryId) -> GsnResult<()> {
        self.runtime.query_manager.deregister(id)
    }

    /// Number of registered client queries.
    pub fn registered_query_count(&self) -> usize {
        self.runtime.query_manager.registered_count()
    }

    /// Subscribes to a virtual sensor's output stream; notifications arrive on the
    /// returned channel.
    pub fn subscribe(
        &self,
        sensor: &str,
    ) -> GsnResult<(SubscriptionId, crossbeam::channel::Receiver<Notification>)> {
        self.require_sensor(sensor)?;
        Ok(self.runtime.notifications.lock().subscribe_channel(sensor))
    }

    /// Subscribes a callback to a virtual sensor's output stream.
    pub fn subscribe_callback(
        &self,
        sensor: &str,
        callback: impl Fn(&Notification) + Send + Sync + 'static,
    ) -> GsnResult<SubscriptionId> {
        self.require_sensor(sensor)?;
        Ok(self
            .runtime
            .notifications
            .lock()
            .subscribe_callback(sensor, callback))
    }

    /// Cancels a local subscription.
    pub fn unsubscribe(&self, id: SubscriptionId) -> GsnResult<()> {
        self.runtime.notifications.lock().unsubscribe(id)
    }

    fn require_sensor(&self, sensor: &str) -> GsnResult<()> {
        let key = VirtualSensorName::new(sensor)?;
        let table = VirtualSensor::output_table_name(&key);
        if self.sensors.contains_key(&key) || self.runtime.storage.has_table(&table) {
            Ok(())
        } else {
            Err(GsnError::not_found(format!(
                "virtual sensor `{sensor}` is not deployed on this container"
            )))
        }
    }

    // -----------------------------------------------------------------------------------
    // The processing loop
    // -----------------------------------------------------------------------------------

    /// Advances the container to the clock's current time: drains the network, polls local
    /// wrappers, runs pipelines (sharded across the worker pool when `workers > 1`),
    /// evaluates registered queries, delivers notifications and group-commits the WALs.
    pub fn step(&mut self) -> StepReport {
        let now = self.clock.now();
        let mut report = StepReport::default();
        let step_watch = Stopwatch::start();
        let step_span = self.runtime.trace.begin("step", SpanId::NONE);

        // 1. Network intake (remote deliveries, subscription management) — sequential.
        let drain_watch = Stopwatch::start();
        let drain_span = self.runtime.trace.begin("step.network", step_span.id());
        report.absorb(self.drain_network(now));

        // 1b. Retry remote subscriptions that were never acknowledged (the Subscribe
        // message may have been lost on a lossy link or during a partition), and reap
        // remote cursors whose owner stopped pulling (crashed client, lost QueryNext)
        // so abandoned cursors cannot pin slots under MAX_REMOTE_CURSORS forever.
        self.retry_pending_subscriptions(now);
        self.remote_cursors
            .retain(|_, open| open.last_active >= now.saturating_sub(REMOTE_CURSOR_IDLE_TIMEOUT));
        // Likewise for this container's own stalled remote queries (a lost QueryBatch
        // would otherwise track them forever); finished results wait for their taker.
        self.remote_queries.retain(|_, state| {
            state.done || state.last_activity >= now.saturating_sub(REMOTE_CURSOR_IDLE_TIMEOUT)
        });
        // Lossy-link recovery: re-request the expected batch of any remote query that
        // has waited past the retry threshold (batch sequence numbers make this
        // idempotent — the server retransmits or the client drops the duplicate).
        self.retry_stalled_remote_queries(now);
        // Same recovery for in-flight peer metrics scrapes and trace collections.
        self.retry_stalled_metric_scrapes(now);
        self.retry_stalled_trace_collects(now);
        // Mesh federation: one anti-entropy gossip round every few steps, and
        // advancement of any scatter-gather queries this node coordinates.
        self.run_mesh_gossip(now);
        self.advance_federated_queries(now);
        self.runtime.trace.finish(drain_span);
        self.telemetry
            .network_drain_micros
            .record(drain_watch.elapsed_micros());

        // 2. Local wrapper polling + pipeline execution, sharded across the pool.
        let pipeline_watch = Stopwatch::start();
        let pipeline_span = self.runtime.trace.begin("step.pipelines", step_span.id());
        report.absorb(self.run_sensor_pipelines(now));
        self.runtime.trace.finish(pipeline_span);
        self.telemetry
            .pipeline_micros
            .record(pipeline_watch.elapsed_micros());

        // 3. Storage housekeeping: retention pruning, then one batched WAL fsync for
        // everything ingested this step (group commit).
        let commit_watch = Stopwatch::start();
        let commit_span = self.runtime.trace.begin("step.storage", step_span.id());
        self.runtime.storage.prune_all(now);
        if self.runtime.storage.group_commit().is_err() {
            report.errors += 1;
        }
        self.runtime.trace.finish(commit_span);
        self.telemetry
            .commit_micros
            .record(commit_watch.elapsed_micros());

        // 4. Periodic storage maintenance: reclaim file space held by pruned rows
        // (head-segment deletion, boundary compaction).  Sharded containers run it on
        // the worker pool so a large compaction never stalls the step; overlapping
        // passes coalesce inside the manager.  Reclamation only changes the physical
        // layout — queries re-filter at read time — so workers=1 and workers=N stay
        // output-identical.
        self.steps += 1;
        let interval = self.config.maintenance_interval_steps;
        if interval > 0 && self.steps.is_multiple_of(interval) {
            match &self.pool {
                Some(pool) => {
                    let storage = Arc::clone(&self.runtime.storage);
                    if pool
                        .submit(move || {
                            storage.maintain(now);
                        })
                        .is_err()
                    {
                        report.errors += 1;
                    }
                }
                None => {
                    self.runtime.storage.maintain(now);
                }
            }
        }
        self.runtime.trace.finish(step_span);
        self.telemetry.steps_total.inc();
        self.telemetry
            .step_micros
            .record(step_watch.elapsed_micros());
        self.telemetry.absorb_report(&report);
        report
    }

    /// Runs the storage maintenance pass immediately on the caller (pruning plus
    /// segment reclamation), returning what it freed.  The step loop schedules this
    /// automatically every [`ContainerConfig::maintenance_interval_steps`] steps; an
    /// explicit call is useful before reading footprint statistics.
    pub fn maintain_storage(&self) -> gsn_storage::MaintenanceReport {
        self.runtime.storage.maintain(self.clock.now())
    }

    /// Runs every sensor's pipeline pass for this step: inline in name order when
    /// sequential, sharded across the worker pool otherwise (see the module docs).
    fn run_sensor_pipelines(&mut self, now: Timestamp) -> StepReport {
        let shard_count = self.pool.as_ref().map(WorkerPool::size).unwrap_or(1);
        if shard_count <= 1 || self.sensors.len() <= 1 {
            // Sequential semantics: identical to the pre-sharding loop. The full view
            // means loop-back deliveries recurse inline and nothing is deferred.
            let mut out = ShardOutcome::default();
            let names: Vec<VirtualSensorName> = self.sensors.keys().cloned().collect();
            for name in &names {
                pipeline_sensor(&self.runtime, &self.sensors, name, now, &mut out);
            }
            debug_assert!(out.deferred.is_empty());
            return out.report;
        }

        let mut shards: Vec<SensorView> = (0..shard_count).map(|_| BTreeMap::new()).collect();
        for (name, sensor) in &self.sensors {
            shards[sensor_shard(name, shard_count)].insert(name.clone(), Arc::clone(sensor));
        }
        let pool = self.pool.as_ref().expect("worker pool present");
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, ShardOutcome)>();
        let mut submitted = 0usize;
        let mut report = StepReport::default();
        for (idx, shard) in shards.into_iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let runtime = Arc::clone(&self.runtime);
            let tx = tx.clone();
            let job = move || {
                let mut out = ShardOutcome::default();
                let names: Vec<VirtualSensorName> = shard.keys().cloned().collect();
                for name in &names {
                    pipeline_sensor(&runtime, &shard, name, now, &mut out);
                }
                let _ = tx.send((idx, out));
            };
            match pool.submit(job) {
                Ok(()) => submitted += 1,
                // Unreachable while the container is alive (the pool only shuts down on
                // drop); surface it rather than losing the shard silently.
                Err(_) => report.errors += 1,
            }
        }
        drop(tx);

        // Barrier: collect every shard's outcome, then merge in shard-index order so the
        // aggregate report and the deferred-delivery order are deterministic.  A shard
        // whose job panicked sends nothing (its sender drops with the unwound job); the
        // channel disconnects once every job finished, and the deficit is an error.
        let mut outcomes: Vec<(usize, ShardOutcome)> = Vec::with_capacity(submitted);
        for _ in 0..submitted {
            match rx.recv() {
                Ok(pair) => outcomes.push(pair),
                Err(_) => break,
            }
        }
        report.errors += (submitted - outcomes.len()) as u64;
        outcomes.sort_by_key(|(idx, _)| *idx);
        let mut deferred = Vec::new();
        for (_, out) in outcomes {
            report.absorb(out.report);
            deferred.extend(out.deferred);
        }

        // Sequential post-barrier phase: cross-shard loop-back deliveries run against
        // the full sensor map, so nested fan-out recurses inline.
        let post_barrier_watch = Stopwatch::start();
        for (consumer, source_ref, element) in deferred {
            report.remote_arrivals += 1;
            let mut out = ShardOutcome::default();
            deliver_remote(
                &self.runtime,
                &self.sensors,
                &consumer,
                source_ref,
                element,
                now,
                &mut out,
            );
            debug_assert!(out.deferred.is_empty());
            report.absorb(out.report);
        }
        self.telemetry
            .post_barrier_micros
            .record(post_barrier_watch.elapsed_micros());
        report
    }

    /// Drains the simulated network inbox.
    fn drain_network(&mut self, now: Timestamp) -> StepReport {
        let mut out = ShardOutcome::default();
        let Some(network) = self.runtime.network.clone() else {
            return out.report;
        };
        let envelopes = network.receive(self.config.node_id, now);
        for envelope in envelopes {
            match envelope.message {
                Message::Subscribe {
                    request,
                    subscriber,
                    sensor,
                } => {
                    let principal = Principal::named(&subscriber.to_string());
                    let accepted = self.access.check(&principal, Operation::Subscribe, &sensor)
                        && self.require_sensor(&sensor).is_ok();
                    if accepted {
                        self.runtime
                            .notifications
                            .lock()
                            .add_remote_subscriber(subscriber, &sensor);
                    }
                    let _ = network.send(
                        self.config.node_id,
                        envelope.from,
                        Message::SubscribeAck {
                            request,
                            accepted,
                            reason: if accepted {
                                String::new()
                            } else {
                                format!("subscription to `{sensor}` refused")
                            },
                        },
                        now,
                    );
                }
                Message::Unsubscribe { subscriber, sensor } => {
                    self.runtime
                        .notifications
                        .lock()
                        .remove_remote_subscriber(subscriber, &sensor);
                }
                Message::StreamDelivery { sensor, element } => match element.into_element() {
                    Ok(element) => {
                        let routes = self.runtime.remote_routes.load();
                        for (consumer, source_ref) in routes
                            .get(&sensor.to_ascii_lowercase())
                            .into_iter()
                            .flatten()
                        {
                            out.report.remote_arrivals += 1;
                            deliver_remote(
                                &self.runtime,
                                &self.sensors,
                                consumer,
                                *source_ref,
                                element.clone(),
                                now,
                                &mut out,
                            );
                        }
                    }
                    Err(_) => out.report.errors += 1,
                },
                Message::Ping { request } => {
                    let _ = network.send(
                        self.config.node_id,
                        envelope.from,
                        Message::Pong { request },
                        now,
                    );
                }
                Message::SubscribeAck {
                    request, accepted, ..
                } => {
                    for pending in &mut self.pending_subscriptions {
                        if pending.request == request {
                            if accepted {
                                pending.acked = true;
                            } else {
                                pending.refused = true;
                            }
                        }
                    }
                }
                Message::QueryRequest {
                    request,
                    sql,
                    batch_rows,
                    prefetch,
                    trace,
                } => {
                    let replies = self.serve_query_request(
                        envelope.from,
                        request,
                        &sql,
                        batch_rows as usize,
                        prefetch,
                        trace,
                    );
                    for reply in replies {
                        let _ = network.send(self.config.node_id, envelope.from, reply, now);
                    }
                }
                Message::QueryNext {
                    request,
                    cursor,
                    batch_rows,
                    expect_seq,
                    trace: _,
                } => {
                    let replies = self.serve_query_next(
                        envelope.from,
                        request,
                        cursor,
                        batch_rows as usize,
                        expect_seq,
                    );
                    for reply in replies {
                        let _ = network.send(self.config.node_id, envelope.from, reply, now);
                    }
                }
                Message::QueryBatch {
                    request,
                    cursor,
                    columns,
                    rows,
                    seq,
                    done,
                    error,
                    server_micros,
                } => {
                    // A batch for a request we no longer track (taken or never issued)
                    // is dropped; the server already closed done/errored cursors.
                    if let Some(state) = self.remote_queries.get_mut(&request) {
                        if state.done {
                            continue;
                        }
                        self.telemetry
                            .batch_rtt_millis
                            .record(now.abs_diff(state.last_request).as_millis() as u64);
                        if state.cursor.is_none() {
                            // First batch: its round trip covers the cursor open.
                            state.open_rtt_millis =
                                now.abs_diff(state.last_request).as_millis() as u64;
                        }
                        state.server_micros += server_micros;
                        state.last_activity = now;
                        state.cursor = Some(cursor);
                        if seq != state.expect_seq {
                            // A duplicate (retransmission already consumed) or a stale
                            // refusal answering an out-of-date re-request: drop it.
                            // Re-requesting here would double-ship every later batch
                            // on links whose RTT exceeds the retry threshold, and an
                            // off-seq error must not kill a healthy query; genuine
                            // gaps and dead cursors are recovered by the retry timer,
                            // whose refusals arrive carrying the expected seq.
                            continue;
                        }
                        if !error.is_empty() {
                            state.error = Some(error);
                            state.done = true;
                            continue;
                        }
                        state.expect_seq += 1;
                        state.batches += 1;
                        if state.columns.is_empty() {
                            state.columns = columns;
                        }
                        state.rows.extend(rows);
                        if done {
                            state.done = true;
                        } else if state.prefetch {
                            // Pipelined wire: the server pushes ahead of us.  A
                            // cumulative ack every half-window keeps its speculation
                            // window open; every other batch arrived without any
                            // request in flight — a prefetch hit.
                            if state.expect_seq % PREFETCH_ACK_EVERY == 0 {
                                let message = Message::QueryNext {
                                    request,
                                    cursor,
                                    batch_rows: state.batch_rows,
                                    expect_seq: state.expect_seq,
                                    trace: state.trace,
                                };
                                state.last_request = now;
                                let _ =
                                    network.send(self.config.node_id, envelope.from, message, now);
                            } else {
                                self.telemetry.prefetch_hits_total.inc();
                            }
                        } else {
                            // Pull-based wire: ask for the next batch only now that
                            // this one has been consumed.
                            let message = Message::QueryNext {
                                request,
                                cursor,
                                batch_rows: state.batch_rows,
                                expect_seq: state.expect_seq,
                                trace: state.trace,
                            };
                            state.last_request = now;
                            let _ = network.send(self.config.node_id, envelope.from, message, now);
                        }
                    }
                }
                Message::MetricsRequest { request, from } => {
                    // The federation scrape: answer with a full registry snapshot so
                    // cooperating peers can monitor each other without a side channel.
                    self.telemetry.scrapes_served_total.inc();
                    let snapshot = self.metrics_snapshot();
                    let _ = network.send(
                        self.config.node_id,
                        from,
                        Message::MetricsSnapshot {
                            request,
                            node: self.config.node_id,
                            snapshot,
                        },
                        now,
                    );
                }
                Message::MetricsSnapshot {
                    request,
                    node,
                    snapshot,
                } => {
                    if let Some(state) = self.pending_metric_scrapes.get_mut(&request) {
                        if state.snapshot.is_none() {
                            self.telemetry.peer_snapshots_total.inc();
                            state.snapshot = Some(snapshot.clone());
                        }
                    }
                    self.peer_metrics.insert(node, snapshot);
                }
                Message::GossipDigest {
                    from: _,
                    digest,
                    health,
                    trace: _,
                } => {
                    // Push-pull: answer with what the digest proves the peer is
                    // missing, plus our own digest so it sends a return delta.  The
                    // piggybacked health summaries merge into the replica's health
                    // store, and the reply carries our view back — one round moves
                    // health both ways.
                    if let Some(mesh) = self.mesh.as_ref() {
                        let (records, my_digest, my_health) = {
                            let mut replica = mesh.replica.lock();
                            replica.apply_health(&health);
                            (
                                replica.delta_for(&digest),
                                replica.digest(),
                                replica.health_snapshot(),
                            )
                        };
                        let reply = Message::GossipDelta {
                            from: self.config.node_id,
                            records,
                            digest: my_digest,
                            health: my_health,
                            trace: None,
                        };
                        if let Ok(bytes) =
                            network.send(self.config.node_id, envelope.from, reply, now)
                        {
                            self.telemetry.gossip_bytes_total.add(bytes as u64);
                        }
                    }
                }
                Message::GossipDelta {
                    from: _,
                    records,
                    digest,
                    health,
                    trace: _,
                } => {
                    if let Some(mesh) = self.mesh.as_ref() {
                        {
                            let mut replica = mesh.replica.lock();
                            replica.apply(&records);
                            replica.apply_health(&health);
                        }
                        // A non-empty digest asks for the records *we* have that the
                        // peer lacks; the terminating reply carries an empty digest
                        // (health already travelled in both directions this round).
                        if !digest.is_empty() {
                            let reply_records = mesh.replica.lock().delta_for(&digest);
                            if !reply_records.is_empty() {
                                let reply = Message::GossipDelta {
                                    from: self.config.node_id,
                                    records: reply_records,
                                    digest: Vec::new(),
                                    health: Vec::new(),
                                    trace: None,
                                };
                                if let Ok(bytes) =
                                    network.send(self.config.node_id, envelope.from, reply, now)
                                {
                                    self.telemetry.gossip_bytes_total.add(bytes as u64);
                                }
                            }
                        }
                    }
                }
                Message::RingAnnounce { epoch, members, .. } => {
                    if let Some(mesh) = self.mesh.as_mut() {
                        mesh.ring.install(&members, epoch);
                    }
                }
                Message::PartialAggregateRequest {
                    request,
                    sql,
                    trace,
                } => {
                    // Stateless server side of the scatter: execute the partial locally
                    // and reply in one frame.  Re-execution on a duplicate (retried)
                    // request is idempotent — the coordinator keeps the first reply.
                    // A traced request records a serve span under the coordinator's
                    // root, so the assembled trace tree shows every hop's execution.
                    let watch = Stopwatch::start();
                    let span =
                        trace.map(|ctx| self.runtime.trace.begin_in_trace("federated.serve", ctx));
                    let outcome =
                        self.query_as(&Principal::named(&envelope.from.to_string()), &sql);
                    if let Some(span) = span {
                        self.runtime.trace.finish(span);
                    }
                    let server_micros = watch.elapsed_micros();
                    let reply = match outcome {
                        Ok(relation) => Message::PartialAggregateReply {
                            request,
                            columns: relation.columns().iter().map(|c| c.name.clone()).collect(),
                            rows: relation.rows().to_vec(),
                            error: String::new(),
                            server_micros,
                        },
                        Err(e) => Message::PartialAggregateReply {
                            request,
                            columns: Vec::new(),
                            rows: Vec::new(),
                            error: e.to_string(),
                            server_micros,
                        },
                    };
                    let _ = network.send(self.config.node_id, envelope.from, reply, now);
                }
                Message::PartialAggregateReply {
                    request,
                    columns: _,
                    rows,
                    error,
                    server_micros,
                } => {
                    self.absorb_partial_reply(
                        envelope.from,
                        request,
                        rows,
                        error,
                        server_micros,
                        now,
                    );
                }
                Message::TraceCollectRequest {
                    request,
                    from,
                    trace_id,
                } => {
                    // Serve our slice of a distributed trace: every retained span
                    // stamped with the requested trace id, in wire form.  Idempotent,
                    // so retried requests just ship the slice again.
                    let spans: Vec<RemoteSpan> = self
                        .runtime
                        .trace
                        .spans_of_trace(trace_id)
                        .iter()
                        .map(|s| RemoteSpan::from_span(self.config.node_id.as_u64(), s))
                        .collect();
                    let _ = network.send(
                        self.config.node_id,
                        from,
                        Message::TraceCollectReply {
                            request,
                            node: self.config.node_id,
                            trace_id,
                            spans,
                        },
                        now,
                    );
                }
                Message::TraceCollectReply {
                    request,
                    node,
                    trace_id: _,
                    spans,
                } => {
                    // Duplicate replies (answers to retried collects) are dropped by
                    // the pending-peer check; the assembler also dedupes span ids.
                    if let Some(state) = self.pending_trace_collects.get_mut(&request) {
                        if let Some(pos) = state.pending.iter().position(|p| *p == node) {
                            state.pending.remove(pos);
                            self.telemetry.remote_spans_total.add(spans.len() as u64);
                            state.spans.extend(spans);
                            if state.pending.is_empty() {
                                let state = self
                                    .pending_trace_collects
                                    .remove(&request)
                                    .expect("state present");
                                self.finish_trace_collect(state);
                            }
                        }
                    }
                }
                // Pongs are informational for the container.
                Message::Pong { .. } => {}
            }
        }
        debug_assert!(out.deferred.is_empty());
        out.report
    }

    /// Serves a remote `QueryRequest`: authorises and opens a cursor, then ships the
    /// first batch (or, with prefetch, the first window of batches).  A *retransmitted*
    /// request (the client never saw our first batch on a lossy link) matches its
    /// existing cursor by `(owner, request)` and gets the unacknowledged batches again
    /// instead of opening a duplicate cursor.
    fn serve_query_request(
        &mut self,
        from: NodeId,
        request: RequestId,
        sql: &str,
        batch_rows: usize,
        prefetch: bool,
        trace: Option<TraceContext>,
    ) -> Vec<Message> {
        let refuse = |error: String| {
            vec![Message::QueryBatch {
                request,
                cursor: 0,
                columns: Vec::new(),
                rows: Vec::new(),
                seq: 0,
                done: true,
                error,
                server_micros: 0,
            }]
        };
        if let Some((&id, _)) = self
            .remote_cursors
            .iter()
            .find(|(_, open)| open.owner == from && open.request == request)
        {
            // Retransmitted request: the serve span (if any) was recorded when the
            // cursor first opened, so only the batches are replayed.
            return self.serve_query_next(from, request, id, batch_rows, 0);
        }
        let live = self
            .remote_cursors
            .values()
            .filter(|open| open.cursor.is_some())
            .count();
        if live >= MAX_REMOTE_CURSORS {
            return refuse(format!(
                "too many open remote cursors (limit {MAX_REMOTE_CURSORS})"
            ));
        }
        // A traced request records a serve span under the remote parent: the hop
        // shows up in the coordinator's assembled trace tree with the open cost.
        let watch = Stopwatch::start();
        let span = trace.map(|ctx| self.runtime.trace.begin_in_trace("query.serve", ctx));
        let principal = Principal::named(&from.to_string());
        let cursor = match self.query_cursor_as(&principal, sql) {
            Ok(cursor) => cursor,
            Err(e) => {
                if let Some(span) = span {
                    self.runtime.trace.finish(span);
                }
                return refuse(e.to_string());
            }
        };
        if let Some(span) = span {
            self.runtime.trace.finish(span);
        }
        let id = self.next_cursor_id;
        self.next_cursor_id += 1;
        self.remote_cursors.insert(
            id,
            RemoteCursor {
                owner: from,
                request,
                cursor: Some(cursor),
                next_seq: 0,
                last_batch: None,
                last_active: self.clock.now(),
                prefetch,
                window: BTreeMap::new(),
                last_ack: 0,
                open_micros: watch.elapsed_micros(),
            },
        );
        self.serve_query_next(from, request, id, batch_rows, 0)
    }

    /// Advances an open remote cursor by one batch, or retransmits the cached previous
    /// batch when the client re-requests it (`expect_seq` one behind).  Exhausted
    /// cursors linger as tombstones until the idle reaper collects them, so even a lost
    /// *final* batch is recoverable.  Only the peer that opened the cursor may pull
    /// from it — the rows were access-checked against *its* principal, and cursor ids
    /// are guessable.
    fn serve_query_next(
        &mut self,
        from: NodeId,
        request: RequestId,
        cursor_id: u64,
        batch_rows: usize,
        expect_seq: u64,
    ) -> Vec<Message> {
        let refused = |error: String| {
            vec![Message::QueryBatch {
                request,
                cursor: cursor_id,
                columns: Vec::new(),
                rows: Vec::new(),
                seq: expect_seq,
                done: true,
                error,
                server_micros: 0,
            }]
        };
        let now = self.clock.now();
        let Some(open) = self.remote_cursors.get_mut(&cursor_id) else {
            return refused(format!("no open cursor {cursor_id}"));
        };
        if open.owner != from {
            // Leave the cursor open for its owner; only refuse the impostor.
            return refused(format!("cursor {cursor_id} is not owned by {from}"));
        }
        open.last_active = now;
        if open.prefetch {
            return self.pump_prefetch_cursor(cursor_id, request, batch_rows, expect_seq);
        }
        if open.next_seq.checked_sub(1) == Some(expect_seq) {
            // The client never saw (or lost) our last batch: retransmit the cache.
            if let Some(batch) = &open.last_batch {
                return vec![batch.clone()];
            }
        }
        if expect_seq != open.next_seq {
            return refused(format!(
                "cursor {cursor_id} is at batch {}, not {expect_seq}",
                open.next_seq
            ));
        }
        let Some(cursor) = open.cursor.as_mut() else {
            // Exhausted tombstone pulled past its cached batch: nothing left to serve.
            return refused(format!("cursor {cursor_id} is exhausted"));
        };
        let batch_watch = Stopwatch::start();
        match cursor.next_batch(batch_rows.clamp(1, 65_536)) {
            Ok(batch) => {
                let done = cursor.is_done();
                if done {
                    // Keep the entry as a tombstone for final-batch retransmission.
                    open.cursor = None;
                }
                let seq = open.next_seq;
                open.next_seq += 1;
                // The first batch also carries the cursor-open cost, so the client's
                // hop breakdown sees the full server-side time.
                let server_micros =
                    batch_watch.elapsed_micros() + if seq == 0 { open.open_micros } else { 0 };
                let message = Message::QueryBatch {
                    request,
                    cursor: cursor_id,
                    columns: batch.columns().iter().map(|c| c.name.clone()).collect(),
                    rows: batch.into_rows(),
                    seq,
                    done,
                    error: String::new(),
                    server_micros,
                };
                open.last_batch = Some(message.clone());
                if done {
                    self.prune_cursor_tombstones();
                }
                vec![message]
            }
            Err(e) => {
                self.remote_cursors.remove(&cursor_id);
                refused(e.to_string())
            }
        }
    }

    /// Advances a *prefetching* remote cursor.  `expect_seq` is a cumulative ack: every
    /// cached batch below it is confirmed received and dropped; an ack at or below the
    /// previous one is a retry, so the whole unacknowledged window is retransmitted.
    /// Either way the speculation window is then topped up with fresh batches, keeping
    /// [`PREFETCH_WINDOW`] batches in flight ahead of the client.
    fn pump_prefetch_cursor(
        &mut self,
        cursor_id: u64,
        request: RequestId,
        batch_rows: usize,
        expect_seq: u64,
    ) -> Vec<Message> {
        let refused = |error: String| {
            vec![Message::QueryBatch {
                request,
                cursor: cursor_id,
                columns: Vec::new(),
                rows: Vec::new(),
                seq: expect_seq,
                done: true,
                error,
                server_micros: 0,
            }]
        };
        let Some(open) = self.remote_cursors.get_mut(&cursor_id) else {
            return refused(format!("no open cursor {cursor_id}"));
        };
        if expect_seq > open.next_seq {
            return refused(format!(
                "cursor {cursor_id} is at batch {}, not {expect_seq}",
                open.next_seq
            ));
        }
        // A repeated (or initial-retransmit) ack means the client is missing batches we
        // already sent: resend everything unacknowledged, in sequence order.
        let retry = expect_seq <= open.last_ack && open.next_seq > 0;
        open.last_ack = open.last_ack.max(expect_seq);
        open.window.retain(|seq, _| *seq >= expect_seq);
        let mut replies: Vec<Message> = Vec::new();
        if retry {
            replies.extend(open.window.values().cloned());
        }
        let mut finished = false;
        while open.window.len() < PREFETCH_WINDOW {
            let Some(cursor) = open.cursor.as_mut() else {
                break;
            };
            let batch_watch = Stopwatch::start();
            match cursor.next_batch(batch_rows.clamp(1, 65_536)) {
                Ok(batch) => {
                    let done = cursor.is_done();
                    if done {
                        // Keep the entry as a tombstone; the window caches the final
                        // batches for retransmission until the client acks them.
                        open.cursor = None;
                        finished = true;
                    }
                    let seq = open.next_seq;
                    open.next_seq += 1;
                    let server_micros =
                        batch_watch.elapsed_micros() + if seq == 0 { open.open_micros } else { 0 };
                    let message = Message::QueryBatch {
                        request,
                        cursor: cursor_id,
                        columns: batch.columns().iter().map(|c| c.name.clone()).collect(),
                        rows: batch.into_rows(),
                        seq,
                        done,
                        error: String::new(),
                        server_micros,
                    };
                    open.window.insert(seq, message.clone());
                    replies.push(message);
                    if done {
                        break;
                    }
                }
                Err(e) => {
                    self.remote_cursors.remove(&cursor_id);
                    return refused(e.to_string());
                }
            }
        }
        if finished {
            self.prune_cursor_tombstones();
        }
        replies
    }

    /// Bounds the exhausted-cursor tombstones (each caches one batch for final-batch
    /// retransmission): beyond [`MAX_REMOTE_CURSORS`] of them, the least recently
    /// active ones are dropped immediately instead of waiting for the idle reaper —
    /// a peer looping short queries must not accumulate 60 s of cached batches.
    fn prune_cursor_tombstones(&mut self) {
        let excess = self
            .remote_cursors
            .values()
            .filter(|open| open.cursor.is_none())
            .count()
            .saturating_sub(MAX_REMOTE_CURSORS);
        if excess == 0 {
            return;
        }
        let mut tombstones: Vec<(u64, Timestamp)> = self
            .remote_cursors
            .iter()
            .filter(|(_, open)| open.cursor.is_none())
            .map(|(id, open)| (*id, open.last_active))
            .collect();
        tombstones.sort_by_key(|(_, last_active)| *last_active);
        for (id, _) in tombstones.into_iter().take(excess) {
            self.remote_cursors.remove(&id);
        }
    }

    /// Re-requests the expected batch of every remote query that has waited past
    /// [`REMOTE_QUERY_RETRY_AFTER`]: a lost `QueryNext` or `QueryBatch` is recovered by
    /// asking again (for the very first batch, by retransmitting the `QueryRequest`,
    /// which the server matches to its existing cursor).
    fn retry_stalled_remote_queries(&mut self, now: Timestamp) {
        let Some(network) = self.runtime.network.clone() else {
            return;
        };
        let node = self.config.node_id;
        for (request, state) in self.remote_queries.iter_mut() {
            if state.done || now.saturating_sub(REMOTE_QUERY_RETRY_AFTER) < state.last_request {
                continue;
            }
            let message = match state.cursor {
                Some(cursor) => Message::QueryNext {
                    request: *request,
                    cursor,
                    batch_rows: state.batch_rows,
                    expect_seq: state.expect_seq,
                    trace: state.trace,
                },
                // No batch ever arrived: the QueryRequest (or its first reply) was
                // lost — retransmit the request itself.
                None => Message::QueryRequest {
                    request: *request,
                    sql: state.sql.clone(),
                    batch_rows: state.batch_rows,
                    prefetch: state.prefetch,
                    trace: state.trace,
                },
            };
            state.last_request = now;
            state.retransmits += 1;
            self.telemetry.retransmits_total.inc();
            let _ = network.send(node, state.target, message, now);
        }
    }

    /// Re-sends the `MetricsRequest` of every in-flight peer scrape that has waited
    /// past [`REMOTE_QUERY_RETRY_AFTER`] (the answer is idempotent — a duplicate
    /// snapshot just overwrites the pending slot), and reaps scrapes whose peer never
    /// answered within [`REMOTE_CURSOR_IDLE_TIMEOUT`].
    fn retry_stalled_metric_scrapes(&mut self, now: Timestamp) {
        self.pending_metric_scrapes.retain(|_, state| {
            state.snapshot.is_some()
                || state.issued >= now.saturating_sub(REMOTE_CURSOR_IDLE_TIMEOUT)
        });
        let Some(network) = self.runtime.network.clone() else {
            return;
        };
        let node = self.config.node_id;
        for (request, state) in self.pending_metric_scrapes.iter_mut() {
            if state.snapshot.is_some()
                || now.saturating_sub(REMOTE_QUERY_RETRY_AFTER) < state.last_request
            {
                continue;
            }
            state.last_request = now;
            self.telemetry.retransmits_total.inc();
            let _ = network.send(
                node,
                state.target,
                Message::MetricsRequest {
                    request: *request,
                    from: node,
                },
                now,
            );
        }
    }

    /// Re-sends the `TraceCollectRequest` of every stalled in-flight trace collection
    /// (serving a collect is idempotent — the peer's slice just ships again), and
    /// finalises collections whose peers never answered within
    /// [`REMOTE_CURSOR_IDLE_TIMEOUT`]: what *did* arrive still assembles, with broken
    /// parent links marking the trace incomplete.
    fn retry_stalled_trace_collects(&mut self, now: Timestamp) {
        let expired: Vec<RequestId> = self
            .pending_trace_collects
            .iter()
            .filter(|(_, state)| state.issued < now.saturating_sub(REMOTE_CURSOR_IDLE_TIMEOUT))
            .map(|(request, _)| *request)
            .collect();
        for request in expired {
            if let Some(state) = self.pending_trace_collects.remove(&request) {
                self.finish_trace_collect(state);
            }
        }
        let Some(network) = self.runtime.network.clone() else {
            return;
        };
        let node = self.config.node_id;
        for (request, state) in self.pending_trace_collects.iter_mut() {
            if now.saturating_sub(REMOTE_QUERY_RETRY_AFTER) < state.last_request {
                continue;
            }
            state.last_request = now;
            for peer in &state.pending {
                self.telemetry.retransmits_total.inc();
                let _ = network.send(
                    node,
                    *peer,
                    Message::TraceCollectRequest {
                        request: *request,
                        from: node,
                        trace_id: state.trace_id,
                    },
                    now,
                );
            }
        }
    }

    /// Re-sends Subscribe messages for remote sources whose subscription has not been
    /// acknowledged yet (and was not explicitly refused).
    fn retry_pending_subscriptions(&mut self, now: Timestamp) {
        let Some(network) = self.runtime.network.clone() else {
            return;
        };
        let node = self.config.node_id;
        for pending in &mut self.pending_subscriptions {
            if pending.acked || pending.refused {
                continue;
            }
            let _ = network.send(
                node,
                pending.producer,
                Message::Subscribe {
                    request: pending.request,
                    subscriber: node,
                    sensor: pending.sensor.clone(),
                },
                now,
            );
        }
    }

    // -----------------------------------------------------------------------------------
    // Mesh federation: ring membership, gossip, scatter-gather queries
    // -----------------------------------------------------------------------------------

    /// True when this container runs mesh federation (placement ring + replicated
    /// directory), i.e. when it is attached to a network.
    pub fn mesh_enabled(&self) -> bool {
        self.mesh.is_some()
    }

    /// This node's view of the ring membership, ordered.  Empty without a mesh.
    pub fn ring_members(&self) -> Vec<NodeId> {
        self.mesh
            .as_ref()
            .map(|m| m.ring.members())
            .unwrap_or_default()
    }

    /// This node's ring membership epoch (0 without a mesh).
    pub fn ring_epoch(&self) -> u64 {
        self.mesh.as_ref().map(|m| m.ring.epoch()).unwrap_or(0)
    }

    /// The fraction of the hash-token space primarily owned by this node, in permille.
    pub fn ring_ownership_permille(&self) -> u64 {
        self.mesh
            .as_ref()
            .map(|m| m.ring.ownership_permille(self.config.node_id))
            .unwrap_or(0)
    }

    /// The mesh members owning `key` under the placement ring, primary first.
    pub fn ring_owners(&self, key: &str) -> Vec<NodeId> {
        self.mesh
            .as_ref()
            .map(|m| m.ring.owners(key))
            .unwrap_or_default()
    }

    /// The local directory replica's full record set, tombstones included and sorted —
    /// two converged replicas return identical snapshots.
    pub fn replica_snapshot(&self) -> Vec<ReplicaRecord> {
        self.mesh
            .as_ref()
            .map(|m| m.replica.lock().snapshot())
            .unwrap_or_default()
    }

    /// Live directory entries matching every predicate, answered from the local
    /// replica (no network round trip).
    pub fn replica_lookup(&self, predicates: &[(String, String)]) -> Vec<DirectoryEntry> {
        self.mesh
            .as_ref()
            .map(|m| m.replica.lock().lookup(predicates))
            .unwrap_or_default()
    }

    /// Overrides the gossip cadence (steps between rounds; 0 disables gossip).
    pub fn set_gossip_interval_steps(&mut self, steps: u64) {
        if let Some(mesh) = self.mesh.as_mut() {
            mesh.gossip_interval_steps = steps;
        }
    }

    /// Joins the mesh: adopts the seed membership view (from any existing member; pass
    /// an empty view with epoch 0 to found a new mesh), adds this node to the ring, and
    /// announces the grown view to every other member.
    pub fn mesh_bootstrap(&mut self, members: &[NodeId], epoch: u64) {
        let now = self.clock.now();
        let node = self.config.node_id;
        let network = self.runtime.network.clone();
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        mesh.ring.install(members, epoch);
        mesh.ring.join(node);
        let view = mesh.ring.members();
        let epoch = mesh.ring.epoch();
        if let Some(network) = network {
            for peer in view.iter().filter(|p| **p != node) {
                let _ = network.send(
                    node,
                    *peer,
                    Message::RingAnnounce {
                        from: node,
                        epoch,
                        members: view.clone(),
                    },
                    now,
                );
            }
        }
    }

    /// Leaves the mesh gracefully: tombstones every sensor this node registered,
    /// pushes those tombstones to the surviving members (gossip re-delivers them if
    /// the push is lost), and announces the shrunk ring.
    pub fn mesh_leave(&mut self) {
        let now = self.clock.now();
        let node = self.config.node_id;
        let network = self.runtime.network.clone();
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        let records: Vec<ReplicaRecord> = {
            let mut replica = mesh.replica.lock();
            replica.deregister_node(node);
            replica
                .snapshot()
                .into_iter()
                .filter(|r| r.node == node)
                .collect()
        };
        mesh.ring.leave(node);
        let members = mesh.ring.members();
        let epoch = mesh.ring.epoch();
        if let Some(network) = network {
            for peer in &members {
                let _ = network.send(
                    node,
                    *peer,
                    Message::GossipDelta {
                        from: node,
                        records: records.clone(),
                        digest: Vec::new(),
                        health: Vec::new(),
                        trace: None,
                    },
                    now,
                );
                let _ = network.send(
                    node,
                    *peer,
                    Message::RingAnnounce {
                        from: node,
                        epoch,
                        members: members.clone(),
                    },
                    now,
                );
            }
        }
    }

    /// One anti-entropy gossip round every `gossip_interval_steps` steps: push-pull
    /// the directory digest with one pseudo-random ring peer, piggybacking a ring
    /// announce so membership views lost on a lossy link also heal, plus every
    /// member's latest health summary so the mesh health model converges the same
    /// way the directory does.
    fn run_mesh_gossip(&mut self, now: Timestamp) {
        let node = self.config.node_id;
        let Some(network) = self.runtime.network.clone() else {
            return;
        };
        let steps = self.steps;
        let interval = match self.mesh.as_ref() {
            Some(mesh) => mesh.gossip_interval_steps,
            None => return,
        };
        if interval == 0 || !steps.is_multiple_of(interval) {
            return;
        }
        // Health plane: evaluate the local rules over the live metrics snapshot,
        // versioned by the step counter so gossiped copies order correctly, and
        // mirror the verdicts into the labelled `gsn_health_state` gauges.
        let summary = evaluate_health(
            &self.metrics_snapshot(),
            &self.config.health_thresholds,
            node.as_u64(),
            steps,
        );
        for sub in &summary.subsystems {
            self.metrics
                .gauge_labeled(&crate::telemetry::HEALTH_STATE, &sub.subsystem)
                .set(sub.state.as_u8() as i64);
        }
        self.local_health = Some(summary.clone());
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        mesh.replica.lock().record_local_health(summary);
        let peers: Vec<NodeId> = mesh
            .ring
            .members()
            .into_iter()
            .filter(|p| *p != node)
            .collect();
        if peers.is_empty() {
            return;
        }
        mesh.rng = mesh
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let peer = peers[(mesh.rng >> 33) as usize % peers.len()];
        let (digest, health) = {
            let replica = mesh.replica.lock();
            (replica.digest(), replica.health_snapshot())
        };
        let message = Message::GossipDigest {
            from: node,
            digest,
            health,
            trace: None,
        };
        let announce = Message::RingAnnounce {
            from: node,
            epoch: mesh.ring.epoch(),
            members: mesh.ring.members(),
        };
        self.telemetry.gossip_rounds_total.inc();
        for message in [message, announce] {
            if let Ok(bytes) = network.send(node, peer, message, now) {
                self.telemetry.gossip_bytes_total.add(bytes as u64);
            }
        }
    }

    /// The mesh members hosting `table`'s rows per the replicated directory, restricted
    /// to this node plus current ring members (a departed node's not-yet-tombstoned
    /// entries must not be scattered to).
    fn federated_hosts(&self, table: &str) -> Vec<NodeId> {
        let node = self.config.node_id;
        let Some(mesh) = self.mesh.as_ref() else {
            return Vec::new();
        };
        let mut hosts = mesh.replica.lock().hosts_of_table(table);
        hosts.retain(|h| *h == node || mesh.ring.contains(*h));
        hosts
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
        let Some(network) = self.runtime.network.clone() else {
            return Err(GsnError::config(
                "this container has no network; federated queries are unavailable",
            ));
        };
        if self.mesh.is_none() {
            return Err(GsnError::config(
                "this container is not part of a mesh federation",
            ));
        }
        let now = self.clock.now();
        let node = self.config.node_id;
        let request = self.next_request_id;
        self.next_request_id += 1;
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
        let mode = match gsn_sql::decompose(sql)? {
            Some(plan) => {
                let hosts = self.federated_hosts(&plan.table);
                if hosts.is_empty() {
                    return Err(GsnError::not_found(format!(
                        "no federation member hosts table `{}`",
                        plan.table
                    )));
                }
                let mut pending = Vec::new();
                let mut partials = Vec::new();
                for host in hosts {
                    if host == node {
                        partials.push(self.query(&plan.partial_sql)?.rows().to_vec());
                    } else {
                        let message = Message::PartialAggregateRequest {
                            request,
                            sql: plan.partial_sql.clone(),
                            trace,
                        };
                        // The serialize leg of the per-hop breakdown, measured by a
                        // throwaway encode — traced scatters only.
                        let serialize_micros = if trace.is_some() {
                            let watch = Stopwatch::start();
                            let _ = gsn_network::encode(&message);
                            watch.elapsed_micros()
                        } else {
                            0
                        };
                        hops.push(HopBreakdown {
                            peer: host.as_u64(),
                            serialize_micros,
                            ..HopBreakdown::default()
                        });
                        let _ = network.send(node, host, message, now);
                        pending.push(host);
                    }
                }
                FederatedMode::Partial {
                    plan,
                    pending,
                    partials,
                }
            }
            None => {
                self.telemetry.scatter_fallback_total.inc();
                let prepared =
                    gsn_sql::SqlEngine::compile(sql, &gsn_sql::OptimizerConfig::default())?;
                let referenced: Vec<String> = prepared.referenced_tables().to_vec();
                let mut pending = Vec::new();
                let mut tables: HashMap<String, Relation> = HashMap::new();
                for table in &referenced {
                    let hosts = self.federated_hosts(table);
                    if hosts.is_empty() {
                        return Err(GsnError::not_found(format!(
                            "no federation member hosts table `{table}`"
                        )));
                    }
                    for host in hosts {
                        if host == node {
                            let local = self.query(&format!("select * from {table}"))?;
                            merge_shipped_rows(&mut tables, table, local);
                        } else {
                            let sub = self.remote_query_with(
                                host,
                                &format!("select * from {table}"),
                                ROW_SHIP_BATCH_ROWS,
                                false,
                                trace,
                            )?;
                            pending.push((sub, table.clone()));
                        }
                    }
                }
                FederatedMode::RowShip {
                    pending,
                    tables,
                    referenced,
                }
            }
        };
        self.federated.insert(
            request,
            FederatedQueryState {
                sql: sql.to_owned(),
                started: now,
                last_request: now,
                last_activity: now,
                mode,
                trace,
                root_span: Some(root_span),
                hops,
                result: None,
            },
        );
        // A scatter with no remote legs (every host local) completes immediately.
        self.advance_federated_queries(now);
        Ok(request)
    }

    /// Takes the finished result of a [`federated_query`](Self::federated_query):
    /// `None` while the scatter is still gathering.
    pub fn take_federated_result(&mut self, request: RequestId) -> Option<GsnResult<Relation>> {
        self.federated.get(&request)?.result.as_ref()?;
        self.federated
            .remove(&request)
            .and_then(|state| state.result)
    }

    /// Number of federated queries this coordinator still tracks.
    pub fn pending_federated_queries(&self) -> usize {
        self.federated.len()
    }

    /// Folds one host's partial-aggregate reply into its scatter state.  Replies for
    /// untracked requests and duplicates (answers to idempotent retries) are dropped —
    /// the first reply per host wins.
    fn absorb_partial_reply(
        &mut self,
        from: NodeId,
        request: RequestId,
        rows: Vec<Vec<Value>>,
        error: String,
        server_micros: u64,
        now: Timestamp,
    ) {
        let Some(state) = self.federated.get_mut(&request) else {
            return;
        };
        let rtt_millis = now.abs_diff(state.last_request).as_millis() as u64;
        let FederatedMode::Partial {
            pending, partials, ..
        } = &mut state.mode
        else {
            return;
        };
        let Some(pos) = pending.iter().position(|h| *h == from) else {
            return;
        };
        state.last_activity = now;
        // Per-hop breakdown: reply round trip against the last (re-)scatter, server
        // execute time as reported by the peer.
        if let Some(hop) = state.hops.iter_mut().find(|h| h.peer == from.as_u64()) {
            hop.rtt_millis = rtt_millis;
            hop.remote_micros = server_micros;
        }
        if error.is_empty() {
            pending.remove(pos);
            partials.push(rows);
        } else if state.result.is_none() {
            pending.clear();
            state.result = Some(Err(GsnError::sql_exec(format!(
                "partial aggregate on {from} failed: {error}"
            ))));
        }
    }

    /// Advances every in-flight federated query: folds finished row-ship sub-queries
    /// in, re-scatters partial requests lost on lossy links, completes queries whose
    /// gather is done, and reaps the abandoned.
    fn advance_federated_queries(&mut self, now: Timestamp) {
        if self.federated.is_empty() {
            return;
        }
        let network = self.runtime.network.clone();
        let node = self.config.node_id;
        let requests: Vec<RequestId> = self.federated.keys().copied().collect();
        // Trace collections to issue once the per-request borrows are released.
        let mut collects: Vec<(TraceContext, Vec<NodeId>)> = Vec::new();
        for request in requests {
            // Poll the row-ship sub-queries (snapshot first: taking a sub-result needs
            // `&mut self` as a whole).
            let subs: Vec<(RequestId, String)> = match &self.federated[&request].mode {
                FederatedMode::RowShip { pending, .. } => pending.clone(),
                FederatedMode::Partial { .. } => Vec::new(),
            };
            for (sub, table) in subs {
                let Some(outcome) = self.take_remote_query_result(sub) else {
                    continue;
                };
                let state = self.federated.get_mut(&request).expect("state present");
                state.last_activity = now;
                match outcome {
                    Ok(result) => {
                        if let FederatedMode::RowShip {
                            pending, tables, ..
                        } = &mut state.mode
                        {
                            pending.retain(|(s, _)| *s != sub);
                            state.hops.push(result.hop);
                            merge_shipped_rows(tables, &table, result.relation);
                        }
                    }
                    Err(e) => {
                        if state.result.is_none() {
                            state.result = Some(Err(e));
                        }
                    }
                }
            }
            // Lossy-link recovery: re-scatter to hosts whose partial never arrived
            // (the server side is stateless, so duplicates are idempotent).
            let state = self.federated.get_mut(&request).expect("state present");
            if state.result.is_none() {
                if let FederatedMode::Partial { plan, pending, .. } = &state.mode {
                    if !pending.is_empty()
                        && now.saturating_sub(REMOTE_QUERY_RETRY_AFTER) >= state.last_request
                    {
                        if let Some(network) = &network {
                            for host in pending {
                                self.telemetry.retransmits_total.inc();
                                if let Some(hop) =
                                    state.hops.iter_mut().find(|h| h.peer == host.as_u64())
                                {
                                    hop.retransmits += 1;
                                }
                                let _ = network.send(
                                    node,
                                    *host,
                                    Message::PartialAggregateRequest {
                                        request,
                                        sql: plan.partial_sql.clone(),
                                        trace: state.trace,
                                    },
                                    now,
                                );
                            }
                        }
                        state.last_request = now;
                    }
                }
            }
            // Complete once the gather is fully in.
            let state = self.federated.get_mut(&request).expect("state present");
            if state.result.is_none() {
                let completed: Option<GsnResult<Relation>> = match &mut state.mode {
                    FederatedMode::Partial {
                        plan,
                        pending,
                        partials,
                    } if pending.is_empty() => Some(
                        gsn_sql::merge_partials(plan, partials).and_then(|(columns, rows)| {
                            let columns = columns
                                .iter()
                                .map(|n| gsn_sql::ColumnInfo::new(None, n, None))
                                .collect();
                            Relation::with_rows(columns, rows)
                        }),
                    ),
                    FederatedMode::RowShip {
                        pending,
                        tables,
                        referenced,
                    } if pending.is_empty() => {
                        let mut catalog = gsn_sql::MemoryCatalog::new();
                        for table in referenced.iter() {
                            if let Some(relation) = tables.remove(table) {
                                catalog.register(table, relation);
                            }
                        }
                        Some(
                            gsn_sql::parse_query(&state.sql)
                                .and_then(|query| gsn_sql::execute_query(&query, &catalog)),
                        )
                    }
                    _ => None,
                };
                if let Some(result) = completed {
                    let elapsed_millis = now.abs_diff(state.started).as_millis() as u64;
                    self.telemetry.scatter_latency_millis.record(elapsed_millis);
                    // Federated queries route through the same slow-query log as
                    // local ones, with the per-hop wire breakdown attached.  The
                    // latency is simulated-clock time: on a simnet that is the
                    // meaningful end-to-end figure, wall time is not.
                    let micros = elapsed_millis.saturating_mul(1_000);
                    let sql = state.sql.clone();
                    let hops = state.hops.clone();
                    let rows_returned = result.as_ref().map(|r| r.row_count() as u64).unwrap_or(0);
                    self.slow_queries.observe(micros, || SlowQuery {
                        sql,
                        micros,
                        explain: "federated scatter-gather".to_owned(),
                        rows_scanned: 0,
                        rows_returned,
                        hops,
                    });
                    if let Some(token) = state.root_span.take() {
                        self.runtime.trace.finish(token);
                    }
                    // Traced scatters trigger a collect of every participant's spans,
                    // assembling the full distributed tree client-side.
                    if let Some(ctx) = state.trace {
                        let peers: Vec<NodeId> =
                            state.hops.iter().map(|h| NodeId::new(h.peer)).collect();
                        collects.push((ctx, peers));
                    }
                    state.result = Some(result);
                }
            }
        }
        for (ctx, peers) in collects {
            let _ = self.start_trace_collect(ctx.trace_id, ctx.parent_span.0, peers);
        }
        // Reap abandoned scatters (no progress past the idle timeout); completed
        // results wait for their taker.
        self.federated.retain(|_, state| {
            state.result.is_some()
                || state.last_activity >= now.saturating_sub(REMOTE_CURSOR_IDLE_TIMEOUT)
        });
    }

    // -----------------------------------------------------------------------------------
    // Telemetry
    // -----------------------------------------------------------------------------------

    /// The container's metrics registry (attach additional application instruments
    /// here; they appear in every snapshot and Prometheus rendering).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The structured trace log (disabled unless `ContainerConfig::trace_enabled`;
    /// can be toggled at runtime with [`TraceLog::set_enabled`]).
    pub fn trace_log(&self) -> &Arc<TraceLog> {
        &self.runtime.trace
    }

    /// The slow-query log: ad-hoc queries and registered evaluations slower than
    /// `ContainerConfig::slow_query_threshold_micros`, with their plan explains
    /// (federated queries appear with a per-hop wire breakdown).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_queries.snapshot()
    }

    /// Starts collecting every participant's spans of one distributed trace.
    /// This node's own spans are seeded immediately; each peer answers with its
    /// slice over subsequent [`step`](Self::step)s (lost requests are re-sent by
    /// the lossy-link recovery timer), and the completed tree lands in
    /// [`assembled_traces`](Self::assembled_traces).  Traced
    /// [`federated_query`](Self::federated_query) gathers trigger this
    /// automatically for the hosts they scattered to; the explicit call asks
    /// every current ring member instead.
    pub fn collect_remote_spans(&mut self, trace_id: u128) -> GsnResult<RequestId> {
        let peers = self.ring_members();
        let root = self
            .runtime
            .trace
            .spans_of_trace(trace_id)
            .iter()
            .find(|s| s.parent.is_none())
            .map(|s| s.id.0)
            .unwrap_or(0);
        self.start_trace_collect(trace_id, root, peers)
    }

    fn start_trace_collect(
        &mut self,
        trace_id: u128,
        root: u64,
        peers: Vec<NodeId>,
    ) -> GsnResult<RequestId> {
        let Some(network) = self.runtime.network.clone() else {
            return Err(GsnError::config(
                "this container has no network; trace collection is unavailable",
            ));
        };
        let now = self.clock.now();
        let node = self.config.node_id;
        let request = self.next_request_id;
        self.next_request_id += 1;
        let local: Vec<RemoteSpan> = self
            .runtime
            .trace
            .spans_of_trace(trace_id)
            .iter()
            .map(|s| RemoteSpan::from_span(node.as_u64(), s))
            .collect();
        let mut peers = peers;
        peers.sort_by_key(|p| p.as_u64());
        peers.dedup_by_key(|p| p.as_u64());
        let mut pending = Vec::new();
        for peer in peers {
            if peer == node {
                continue;
            }
            let _ = network.send(
                node,
                peer,
                Message::TraceCollectRequest {
                    request,
                    from: node,
                    trace_id,
                },
                now,
            );
            pending.push(peer);
        }
        let state = TraceCollectState {
            trace_id,
            root,
            pending,
            spans: local,
            last_request: now,
            issued: now,
        };
        if state.pending.is_empty() {
            self.finish_trace_collect(state);
        } else {
            self.pending_trace_collects.insert(request, state);
        }
        Ok(request)
    }

    /// Stitches a finished (or timed-out) collection into an assembled trace and
    /// retains it, bounded by [`MAX_ASSEMBLED_TRACES`].
    fn finish_trace_collect(&mut self, state: TraceCollectState) {
        let assembled = AssembledTrace::assemble(state.trace_id, state.root, state.spans);
        if self.assembled_traces.len() >= MAX_ASSEMBLED_TRACES {
            self.assembled_traces.pop_front();
        }
        self.assembled_traces.push_back(assembled);
    }

    /// The distributed traces assembled so far, oldest first (bounded; older ones
    /// are evicted as new collections complete).
    pub fn assembled_traces(&self) -> Vec<AssembledTrace> {
        self.assembled_traces.iter().cloned().collect()
    }

    /// Number of trace collections still waiting for peer replies.
    pub fn pending_trace_collects(&self) -> usize {
        self.pending_trace_collects.len()
    }

    /// This node's latest local health evaluation (`None` before the first mesh
    /// gossip round; standalone containers evaluate only in [`status`](Self::status)).
    pub fn local_health(&self) -> Option<HealthSummary> {
        self.local_health.clone()
    }

    /// The mesh-wide health view from this node's replica: one summary per member,
    /// sorted by node id, each carried here by gossip.  On a standalone container
    /// this is just the local summary (if one was ever evaluated).
    pub fn mesh_health(&self) -> Vec<HealthSummary> {
        match self.mesh.as_ref() {
            Some(mesh) => mesh.replica.lock().health_snapshot(),
            None => self.local_health.clone().into_iter().collect(),
        }
    }

    /// Fault-injection hook for tests and drills: records `samples` synthetic WAL
    /// fsync latency observations of `micros` each into the storage telemetry,
    /// driving the `storage` health rule without real disk stalls.
    pub fn inject_wal_sync_latency(&self, micros: u64, samples: u64) {
        for _ in 0..samples {
            self.runtime
                .storage
                .telemetry()
                .wal_sync_micros
                .record(micros);
        }
    }

    /// A typed snapshot of every metric the container exports, with the sourced
    /// totals (storage, SQL, notification, network levels) refreshed first.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (queries, engine) = self.runtime.query_manager.stats();
        let storage = self.runtime.storage.stats();
        let notifications = self.runtime.notifications.lock().stats();
        let network = self.runtime.network.as_deref().map(SimulatedNetwork::stats);
        let (replica, replica_records) = match self.mesh.as_ref() {
            Some(mesh) => {
                let replica = mesh.replica.lock();
                (Some(replica.stats()), replica.snapshot().len())
            }
            None => (None, 0),
        };
        self.sourced.refresh(&SourcedTotals {
            storage: Some(&storage),
            engine: Some(&engine),
            queries: Some(&queries),
            registered_queries: self.runtime.query_manager.registered_count(),
            notifications: Some(&notifications),
            network,
            sensors: self.sensors.len(),
            remote_cursors: self.open_remote_cursors(),
            remote_queries: self.remote_queries.len(),
            replica,
            ring_members: self.mesh.as_ref().map(|m| m.ring.len()).unwrap_or(0),
            ring_ownership_permille: self.ring_ownership_permille(),
            replica_records,
        });
        // Per-region pool counters: where hits/misses/evictions/contention land across
        // the sharded buffer pool's clock regions.
        for region in &storage.pool_regions {
            let label = region.region.to_string();
            self.metrics
                .counter_labeled(&crate::telemetry::STORAGE_POOL_REGION_HITS_TOTAL, &label)
                .store(region.hits);
            self.metrics
                .counter_labeled(&crate::telemetry::STORAGE_POOL_REGION_MISSES_TOTAL, &label)
                .store(region.misses);
            self.metrics
                .counter_labeled(
                    &crate::telemetry::STORAGE_POOL_REGION_EVICTIONS_TOTAL,
                    &label,
                )
                .store(region.evictions);
            self.metrics
                .counter_labeled(
                    &crate::telemetry::STORAGE_POOL_REGION_CONTENDED_TOTAL,
                    &label,
                )
                .store(region.contended);
        }
        // Per-link counters, for the links this node participates in.
        if let Some(network) = self.runtime.network.as_deref() {
            let node = self.config.node_id;
            for ((from, to), stats) in network.link_stats() {
                if from != node && to != node {
                    continue;
                }
                let link = format!("{from}->{to}");
                self.metrics
                    .counter_labeled(&crate::telemetry::NET_LINK_SENT_TOTAL, &link)
                    .store(stats.sent);
                self.metrics
                    .counter_labeled(&crate::telemetry::NET_LINK_DROPPED_TOTAL, &link)
                    .store(stats.dropped);
                self.metrics
                    .counter_labeled(&crate::telemetry::NET_LINK_DELIVERED_TOTAL, &link)
                    .store(stats.delivered);
                self.metrics
                    .counter_labeled(&crate::telemetry::NET_LINK_BYTES_TOTAL, &link)
                    .store(stats.bytes_sent);
            }
        }
        self.metrics.snapshot()
    }

    /// The current metrics in the Prometheus text exposition format — the scrape-able
    /// endpoint body (see `examples/telemetry.rs` for serving it over HTTP).
    pub fn render_prometheus(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }

    /// Asks a peer container for its metrics snapshot over the federation wire.
    /// The answer arrives over subsequent [`step`](Self::step)s; poll
    /// [`take_peer_metrics`](Self::take_peer_metrics) with the returned request id.
    /// Lost requests are re-sent by the step loop's lossy-link recovery timer.
    pub fn request_peer_metrics(&mut self, target: NodeId) -> GsnResult<RequestId> {
        let Some(network) = self.runtime.network.clone() else {
            return Err(GsnError::config(
                "this container has no network; peer metrics scrapes are unavailable",
            ));
        };
        let request = self.next_request_id;
        self.next_request_id += 1;
        let now = self.clock.now();
        network.send(
            self.config.node_id,
            target,
            Message::MetricsRequest {
                request,
                from: self.config.node_id,
            },
            now,
        )?;
        self.pending_metric_scrapes.insert(
            request,
            MetricScrapeState {
                target,
                snapshot: None,
                last_request: now,
                issued: now,
            },
        );
        Ok(request)
    }

    /// Takes the snapshot answering a [`request_peer_metrics`](Self::request_peer_metrics)
    /// scrape: `None` while still in flight.
    pub fn take_peer_metrics(&mut self, request: RequestId) -> Option<MetricsSnapshot> {
        self.pending_metric_scrapes
            .get(&request)?
            .snapshot
            .as_ref()?;
        self.pending_metric_scrapes
            .remove(&request)
            .and_then(|state| state.snapshot)
    }

    /// The most recent snapshot received from `node`, whichever scrape delivered it.
    pub fn peer_metrics(&self, node: NodeId) -> Option<&MetricsSnapshot> {
        self.peer_metrics.get(&node)
    }

    /// A point-in-time status snapshot.
    pub fn status(&self) -> ContainerStatus {
        let (queries, engine) = self.runtime.query_manager.stats();
        let query_partitions = self.runtime.query_manager.partition_status();
        let registered_queries = self.runtime.query_manager.registered_count();
        let notifications = self.runtime.notifications.lock().stats();
        let metrics = self.metrics_snapshot();
        let health = evaluate_health(
            &metrics,
            &self.config.health_thresholds,
            self.config.node_id.as_u64(),
            self.steps,
        );
        ContainerStatus {
            name: self.config.name.clone(),
            node: self.config.node_id,
            sensors: self
                .sensors
                .iter()
                .map(|(n, s)| {
                    let guard = s.lock();
                    SensorStatus {
                        name: n.as_str().to_owned(),
                        stats: guard.stats(),
                        silence_episodes: guard
                            .source_quality()
                            .iter()
                            .map(|(_, _, q)| q.silence_episodes)
                            .sum(),
                    }
                })
                .collect(),
            storage: self.runtime.storage.stats(),
            notifications,
            queries,
            query_partitions,
            engine,
            registered_queries,
            wrapper_kinds: self.registry.kinds(),
            workers: self.pool.as_ref().map(WorkerPool::size).unwrap_or(1),
            pool_jobs: self.pool.as_ref().map(WorkerPool::stats),
            health,
            metrics,
        }
    }
}

/// Derives a schema from a relation's column names (for client-result notifications).
fn relation_schema(relation: &Relation) -> gsn_types::StreamSchema {
    let mut schema = gsn_types::StreamSchema::empty();
    for (i, column) in relation.columns().iter().enumerate() {
        let name = if column.name.eq_ignore_ascii_case("pk")
            || column.name.eq_ignore_ascii_case("timed")
        {
            format!("{}_{}", column.name, i)
        } else {
            column.name.clone()
        };
        let field = gsn_types::FieldSpec::new(
            &name,
            column.data_type.unwrap_or(gsn_types::DataType::Varchar),
        );
        if let Ok(field) = field {
            let _ = schema.push(field);
        }
    }
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::{DataType, SimulatedClock, Value};
    use gsn_xml::{AddressSpec, InputStreamSpec, StreamSourceSpec};

    fn mote_descriptor(name: &str, interval_ms: u32) -> VirtualSensorDescriptor {
        VirtualSensorDescriptor::builder(name)
            .unwrap()
            .metadata("type", "temperature")
            .output_field("avg_temp", DataType::Double)
            .unwrap()
            .permanent_storage(true)
            .input_stream(
                InputStreamSpec::new("main", "select * from src1").with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("mote")
                            .with_predicate("interval", &interval_ms.to_string()),
                        "select avg(temperature) as avg_temp from WRAPPER",
                    )
                    .with_window(gsn_storage::WindowSpec::Count(10)),
                ),
            )
            .build()
            .unwrap()
    }

    fn standalone() -> (GsnContainer, SimulatedClock) {
        let clock = SimulatedClock::new();
        let container = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
        (container, clock)
    }

    #[test]
    fn deploy_step_and_query() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        assert_eq!(container.sensor_names(), vec!["room-temp"]);

        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.local_arrivals, 10);
        assert_eq!(report.outputs, 10);
        assert_eq!(report.errors, 0);

        let rel = container
            .query("select count(*) as n from room_temp")
            .unwrap();
        assert_eq!(rel.rows()[0][0], Value::Integer(10));
        let stats = container.sensor_stats("room-temp").unwrap();
        assert_eq!(stats.outputs, 10);
        assert!(container.sensor_stats("nosuch").is_err());

        let status = container.status();
        assert_eq!(status.sensors.len(), 1);
        assert_eq!(status.workers, 1);
        assert!(status.pool_jobs.is_none());
        assert!(status.render().contains("room-temp"));
        assert!(status.render().contains("sequential"));
    }

    #[test]
    fn sharded_step_uses_the_worker_pool() {
        let clock = SimulatedClock::new();
        let config = ContainerConfig::default().with_workers(4);
        let mut container = GsnContainer::new(config, Arc::new(clock.clone()));
        for i in 0..8 {
            container
                .deploy(mote_descriptor(&format!("mote-{i}"), 100))
                .unwrap();
        }
        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.local_arrivals, 80);
        assert_eq!(report.outputs, 80);
        assert_eq!(report.errors, 0);

        let status = container.status();
        assert_eq!(status.workers, 4);
        // The step barrier waits for every shard's result; the pool's completion counter
        // ticks just after the result is sent, so it may trail by a hair.
        let (submitted, completed) = status.pool_jobs.unwrap();
        assert!(submitted > 0);
        assert!(completed <= submitted);
        assert!(status.render().contains("step loop: 4 workers"));
    }

    #[test]
    fn silence_is_counted_in_the_report_and_status() {
        let (mut container, clock) = standalone();
        // A push channel the application feeds once and then abandons (mote-style
        // generators never fall silent: they synthesise data on every poll).
        let schema = Arc::new(
            gsn_types::StreamSchema::from_pairs(&[("reading", DataType::Double)]).unwrap(),
        );
        let push_factory = Arc::new(gsn_wrappers::PushWrapperFactory::new());
        container.wrapper_registry().deregister("push").unwrap();
        container
            .wrapper_registry()
            .register(Arc::clone(&push_factory) as Arc<dyn gsn_wrappers::WrapperFactory>)
            .unwrap();
        let handle = push_factory.handle("quiet-feed", schema);
        container
            .deploy_xml(
                r#"<virtual-sensor name="quiet">
                     <output-structure><field name="reading" type="double"/></output-structure>
                     <input-stream name="main">
                       <stream-source alias="s" storage-size="1">
                         <address wrapper="push"><predicate key="channel" val="quiet-feed"/></address>
                         <query>select reading from WRAPPER</query>
                       </stream-source>
                       <query>select * from s</query>
                     </input-stream>
                   </virtual-sensor>"#,
            )
            .unwrap();
        handle
            .push_values(vec![Value::Double(1.0)], Timestamp(100))
            .unwrap();
        clock.advance(gsn_types::Duration::from_millis(500));
        let report = container.step();
        assert_eq!(report.outputs, 1);
        assert_eq!(report.silence_events, 0);
        // No data for longer than the 30 s silence threshold: one silence event,
        // reported once per episode.
        clock.advance(gsn_types::Duration::from_secs(31));
        let report = container.step();
        assert_eq!(report.silence_events, 1);
        assert_eq!(container.step().silence_events, 0);
        let status = container.status();
        assert_eq!(status.sensors[0].silence_episodes, 1);
        assert!(status.render().contains("silence episode"));
    }

    #[test]
    fn duplicate_and_unknown_deployments() {
        let (mut container, _clock) = standalone();
        container.deploy(mote_descriptor("dup", 100)).unwrap();
        assert!(container.deploy(mote_descriptor("dup", 100)).is_err());
        assert!(container.undeploy("nosuch").is_err());
        container.undeploy("dup").unwrap();
        assert!(container.sensor_names().is_empty());
        assert!(container.storage().table_names().is_empty());
        // Redeployment after undeploy works.
        container.deploy(mote_descriptor("dup", 100)).unwrap();
    }

    #[test]
    fn deploy_from_xml_text() {
        let (mut container, clock) = standalone();
        let xml = r#"<virtual-sensor name="xml-sensor">
          <output-structure><field name="light" type="double"/></output-structure>
          <input-stream name="main">
            <stream-source alias="s" storage-size="5">
              <address wrapper="mote"><predicate key="interval" val="200"/></address>
              <query>select avg(light) as light from WRAPPER</query>
            </stream-source>
            <query>select * from s</query>
          </input-stream>
        </virtual-sensor>"#;
        container.deploy_xml(xml).unwrap();
        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.outputs, 5);
        assert!(container.deploy_xml("<broken").is_err());
    }

    #[test]
    fn subscriptions_receive_outputs() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 250)).unwrap();
        let (_id, rx) = container.subscribe("room-temp").unwrap();
        assert!(container.subscribe("nosuch").is_err());
        clock.advance(gsn_types::Duration::from_secs(1));
        container.step();
        let notifications: Vec<Notification> = rx.try_iter().collect();
        assert_eq!(notifications.len(), 4);
        assert!(notifications[0].element.value("AVG_TEMP").is_some());
    }

    #[test]
    fn registered_queries_run_per_output() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 500)).unwrap();
        for i in 0..10 {
            container
                .register_query(
                    &format!("client-{i}"),
                    "select avg(avg_temp) from room_temp where avg_temp > 0",
                    WindowSpec::Count(50),
                    None,
                )
                .unwrap();
        }
        assert_eq!(container.registered_query_count(), 10);
        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.outputs, 2);
        assert_eq!(report.client_query_evaluations, 20);
        let id = container
            .register_query(
                "late",
                "select * from room_temp",
                WindowSpec::Count(1),
                None,
            )
            .unwrap();
        container.deregister_query(id).unwrap();
        assert_eq!(container.registered_query_count(), 10);
    }

    #[test]
    fn query_cursor_streams_in_batches_and_tracks_counters() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        clock.advance(gsn_types::Duration::from_secs(1));
        container.step();

        // Batched pulls drain the same rows query() materialises.
        let reference = container.query("select avg_temp from room_temp").unwrap();
        assert_eq!(reference.row_count(), 10);
        let mut cursor = container
            .query_cursor("select avg_temp from room_temp")
            .unwrap();
        assert_eq!(cursor.columns().len(), 1);
        let first = cursor.next_batch(4).unwrap();
        assert_eq!(first.row_count(), 4);
        assert!(!cursor.is_done());
        let rest = cursor.collect().unwrap();
        assert_eq!(rest.row_count(), 6);
        assert!(cursor.is_done());
        assert_eq!(cursor.rows_returned(), 10);
        let mut all: Vec<Vec<Value>> = first.rows().to_vec();
        all.extend(rest.rows().to_vec());
        assert_eq!(all, reference.rows());

        // LIMIT early-exits: only the limited prefix of the table is scanned.
        let mut limited = container
            .query_cursor("select avg_temp from room_temp limit 2")
            .unwrap();
        assert_eq!(limited.next_batch(10).unwrap().row_count(), 2);
        assert!(limited.is_done());
        assert_eq!(limited.rows_scanned(), 2, "{limited:?}");

        // The engine's scanned/returned counters surface in the status report, and
        // dropping a cursor folds its telemetry in so streaming executions count too.
        let scanned_before_drop = container.status().engine.rows_scanned;
        drop(limited);
        let status = container.status();
        assert_eq!(status.engine.rows_scanned, scanned_before_drop + 2);
        assert!(status.render().contains("query executor:"));

        // Access control applies to cursors like it does to query().
        container
            .access_control()
            .restrict_sensor("room_temp", vec![Principal::named("alice")]);
        assert!(container.query_cursor("select * from room_temp").is_err());
        assert!(container
            .query_cursor_as(&Principal::named("alice"), "select * from room_temp")
            .is_ok());
    }

    #[test]
    fn access_control_gates_adhoc_queries() {
        let (mut container, clock) = standalone();
        container
            .deploy(mote_descriptor("private-temp", 100))
            .unwrap();
        clock.advance(gsn_types::Duration::from_millis(500));
        container.step();
        container
            .access_control()
            .restrict_sensor("private_temp", vec![Principal::named("alice")]);
        assert!(container.query("select * from private_temp").is_err());
        assert!(container
            .query_as(&Principal::named("alice"), "select * from private_temp")
            .is_ok());
        assert!(container
            .query_as(&Principal::named("eve"), "select * from private_temp")
            .is_err());
    }

    #[test]
    fn explain_and_bad_queries() {
        let (mut container, _clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        let plan = container
            .explain("select avg(avg_temp) from room_temp")
            .unwrap();
        assert!(plan.contains("Aggregate"));
        assert!(container.query("select * from missing_table").is_err());
        assert!(container.query("not sql").is_err());
    }

    #[test]
    fn max_virtual_sensors_is_enforced() {
        let clock = SimulatedClock::new();
        let config = ContainerConfig {
            max_virtual_sensors: 1,
            ..Default::default()
        };
        let mut container = GsnContainer::new(config, Arc::new(clock));
        container.deploy(mote_descriptor("one", 100)).unwrap();
        let err = container.deploy(mote_descriptor("two", 100)).unwrap_err();
        assert_eq!(err.category(), "resource-exhausted");
    }

    #[test]
    fn remote_sources_require_a_directory() {
        let (mut container, _clock) = standalone();
        let descriptor = VirtualSensorDescriptor::builder("follower")
            .unwrap()
            .output_field("v", DataType::Double)
            .unwrap()
            .input_stream(InputStreamSpec::new("main", "select * from r").with_source(
                StreamSourceSpec::new(
                    "r",
                    AddressSpec::new("remote").with_predicate("type", "temperature"),
                    "select avg(v) as v from WRAPPER",
                ),
            ))
            .build()
            .unwrap();
        let err = container.deploy(descriptor).unwrap_err();
        assert_eq!(err.category(), "config");
        // Failed deployment leaves nothing behind.
        assert!(container.sensor_names().is_empty());
        assert!(container.storage().table_names().is_empty());
    }

    #[test]
    fn exhausted_remote_cursor_tombstones_are_bounded() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        clock.advance(gsn_types::Duration::from_secs(1));
        container.step();
        // A peer loops short single-batch queries: every one completes immediately and
        // leaves a retransmission tombstone.  The tombstone count must stay bounded
        // instead of accumulating until the 60 s idle reaper.
        let peer = gsn_types::NodeId::new(9);
        for request in 0..(3 * MAX_REMOTE_CURSORS as u64) {
            let mut replies = container.serve_query_request(
                peer,
                request,
                "select avg_temp from room_temp limit 1",
                16,
                false,
                None,
            );
            assert_eq!(replies.len(), 1);
            match replies.pop().expect("one reply") {
                Message::QueryBatch { done, error, .. } => {
                    assert!(done);
                    assert!(error.is_empty(), "{error}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(container.open_remote_cursors(), 0);
        assert!(
            container.remote_cursors.len() <= MAX_REMOTE_CURSORS + 1,
            "tombstones leaked: {}",
            container.remote_cursors.len()
        );
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        let names: Vec<VirtualSensorName> = (0..64)
            .map(|i| VirtualSensorName::new(&format!("sensor-{i}")).unwrap())
            .collect();
        for shards in [1usize, 2, 4, 8] {
            for name in &names {
                let a = sensor_shard(name, shards);
                let b = sensor_shard(name, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // All shards get some work on a reasonably sized population.
        let hit: std::collections::HashSet<usize> =
            names.iter().map(|n| sensor_shard(n, 4)).collect();
        assert_eq!(hit.len(), 4);
        // Sensors and their output tables co-locate: the query partition of a sensor's
        // output table is the sensor's own worker shard.
        for name in &names {
            let table = VirtualSensor::output_table_name(name);
            assert_eq!(sensor_shard(name, 4), shard_index(&table, 4));
        }
    }

    #[test]
    fn gossip_bytes_count_only_frames_the_network_accepted() {
        let clock = SimulatedClock::new();
        let network = Arc::new(SimulatedNetwork::new());
        let (me, peer) = (NodeId::new(1), NodeId::new(2));
        network.add_node(peer).unwrap();
        let config = ContainerConfig::named(me, "gossiper");
        let mut container =
            GsnContainer::with_mesh(config, Arc::new(clock.clone()), Arc::clone(&network)).unwrap();
        container.set_gossip_interval_steps(1);
        container.mesh_bootstrap(&[peer], 1);
        let gossip_bytes = |c: &GsnContainer| c.telemetry.gossip_bytes_total.get();

        // Each round sends a digest and a ring announce: exactly the bytes the network
        // took from this node.
        let before = network.stats().bytes_sent;
        container.step();
        let sent = network.stats().bytes_sent - before;
        assert!(sent > 0);
        assert_eq!(gossip_bytes(&container), sent);

        // A partition refuses both frames: nothing was sent, so nothing is counted.
        network.partition(me, peer);
        container.step();
        assert_eq!(gossip_bytes(&container), sent);
        assert_eq!(network.stats().bytes_sent - before, sent);
    }
}
