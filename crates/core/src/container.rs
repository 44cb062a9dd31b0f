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
//! * **Shared state** — the managers a pipeline touches live in a `PipelineRuntime`
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
//! * **What runs where** — the whole federation wire runs sequentially on the caller:
//!   network intake (one handler per message kind), subscription re-sends, the remote
//!   cursor reaper, scatter completion, the exchange engine's re-send/reap tick and
//!   gossip.  So do deferred cross-shard deliveries, pruning and the per-step WAL group
//!   commit.  Only wrapper polling + pipeline execution (and the per-output query
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
//!
//! ## The federation wire
//!
//! This file keeps deployment, the step loop, the local query API and status and
//! telemetry.  The peer-to-peer protocol lives in child modules: `wire` (the intake
//! dispatch and remote subscriptions), `exchange` (the one engine that issues, re-sends
//! and reaps every request this node sends), `remote_query` (streaming queries and the
//! cursors served for peers), `peer_telemetry` (metrics scrapes and trace collects),
//! `scatter` (federated scatter-gather) and `mesh` (ring, gossip and the health plane).

mod exchange;
mod mesh;
mod peer_telemetry;
mod remote_query;
mod scatter;
mod wire;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use gsn_network::{AccessController, Operation, Principal, SimulatedNetwork};
use gsn_sql::Relation;
use gsn_storage::{StorageManager, StorageStats, WindowSpec};
use gsn_telemetry::{
    evaluate as evaluate_health, AssembledTrace, HealthSummary, MetricsRegistry, MetricsSnapshot,
    SlowQuery, SlowQueryLog, SpanId, Stopwatch, TraceLog,
};
use gsn_types::{
    Clock, EpochCell, GsnError, GsnResult, NodeId, StreamElement, Timestamp, VirtualSensorName,
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
use exchange::Exchanges;
use mesh::MeshState;
use remote_query::RemoteCursor;
pub use remote_query::RemoteQueryResult;
use wire::PendingSubscription;

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
    /// Remote subscriptions this container requested, re-sent until acknowledged.
    pending_subscriptions: Vec<PendingSubscription>,
    /// Every request this container issued to its peers, until taken or reaped.
    exchanges: Exchanges,
    /// Streaming-query cursors opened on behalf of remote peers, by cursor id.
    remote_cursors: HashMap<u64, RemoteCursor>,
    next_cursor_id: u64,
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
    /// Completed distributed traces, oldest evicted first.
    assembled_traces: VecDeque<AssembledTrace>,
    /// The most recent local health evaluation (refreshed each gossip round; `None`
    /// until the first round, and always `None` on standalone containers).
    local_health: Option<HealthSummary>,
    /// The snapshot each scraped peer last answered with (kept after the take, so a
    /// monitoring loop can read every peer's last known state at once).
    peer_metrics: HashMap<NodeId, MetricsSnapshot>,
    /// Mesh-federation state (placement ring + gossip-replicated directory); `None`
    /// exactly for standalone containers.
    mesh: Option<MeshState>,
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
        let mut container = Self::build(config, clock, Some(network));
        container.mesh = Some(MeshState::new(container.config.node_id));
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
            exchanges: Exchanges::new(telemetry.retransmits_total.clone()),
            remote_cursors: HashMap::new(),
            next_cursor_id: 1,
            steps: 0,
            metrics,
            telemetry,
            sourced,
            slow_queries,
            assembled_traces: VecDeque::new(),
            local_health: None,
            peer_metrics: HashMap::new(),
            mesh: None,
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
                // sensor on this very node and deliveries take the loop-back route.
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

        // Wire up remote sources: remember the routing and subscribe to remote
        // producers.  A producer on this very container needs no subscription: the
        // loop-back route alone delivers its outputs.
        for (producer, remote_sensor, source_ref) in sensor.remote_sources() {
            self.runtime.remote_routes.update(|routes| {
                let mut next = routes.clone();
                next.entry(remote_sensor.to_ascii_lowercase())
                    .or_default()
                    .push((name.clone(), source_ref));
                (next, ())
            });
            if producer != self.config.node_id {
                self.subscribe_remote(producer, &remote_sensor);
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
        // Cancel the subscriptions of remote sensors no local consumer references.
        for sensor in &orphaned {
            self.unsubscribe_remote(sensor);
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

        // 1b. Standing state and in-flight requests: re-send subscriptions never
        // acknowledged (the Subscribe may have been lost on a lossy link or during a
        // partition), close remote cursors whose owner stopped pulling, complete the
        // scatters whose gather is in, then let the exchange engine re-send stalled
        // requests and reap abandoned ones.  Last, one anti-entropy gossip round every
        // few steps.
        self.retry_pending_subscriptions(now);
        self.reap_idle_cursors(now);
        self.advance_scatters(now);
        self.tick_exchanges(now);
        self.run_mesh_gossip(now);
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
            remote_queries: self.pending_remote_queries(),
            replica,
            ring_members: self.mesh.as_ref().map(|m| m.ring.len()).unwrap_or(0),
            ring_ownership_permille: self.ring_ownership_permille(),
            replica_records,
        });
        // Labelled counters: where pool hits/misses/evictions/contention land across the
        // sharded buffer pool's clock regions, and the links this node participates in.
        use crate::telemetry as t;
        let store =
            |desc, label: &str, total| self.metrics.counter_labeled(desc, label).store(total);
        for r in &storage.pool_regions {
            let label = r.region.to_string();
            store(&t::STORAGE_POOL_REGION_HITS_TOTAL, &label, r.hits);
            store(&t::STORAGE_POOL_REGION_MISSES_TOTAL, &label, r.misses);
            store(&t::STORAGE_POOL_REGION_EVICTIONS_TOTAL, &label, r.evictions);
            store(&t::STORAGE_POOL_REGION_CONTENDED_TOTAL, &label, r.contended);
        }
        let node = self.config.node_id;
        let links = self
            .runtime
            .network
            .as_deref()
            .map(SimulatedNetwork::link_stats);
        for ((from, to), l) in links.into_iter().flatten() {
            if from == node || to == node {
                let link = format!("{from}->{to}");
                store(&t::NET_LINK_SENT_TOTAL, &link, l.sent);
                store(&t::NET_LINK_DROPPED_TOTAL, &link, l.dropped);
                store(&t::NET_LINK_DELIVERED_TOTAL, &link, l.delivered);
                store(&t::NET_LINK_BYTES_TOTAL, &link, l.bytes_sent);
            }
        }
        self.metrics.snapshot()
    }

    /// The current metrics in the Prometheus text exposition format — the scrape-able
    /// endpoint body (see `examples/telemetry.rs` for serving it over HTTP).
    pub fn render_prometheus(&self) -> String {
        self.metrics_snapshot().render_prometheus()
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

    pub(super) fn mote_descriptor(name: &str, interval_ms: u32) -> VirtualSensorDescriptor {
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

    pub(super) fn standalone() -> (GsnContainer, SimulatedClock) {
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
}
