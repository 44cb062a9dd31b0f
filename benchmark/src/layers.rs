//! Per-layer attribution, measured from outside the program.
//!
//! The traced pass does three things, none of which edits the program:
//!
//! * (a) the driver's own spans around every public call it makes ([`crate::span`]);
//! * (b) deltas of the counters and histogram sums the program already exports
//!   ([`Counters`]) across the timed phase;
//! * (c) replays of a fixed sample of generated inputs straight into each layer's
//!   public functions ([`replay_all`]).
//!
//! Layer names are the crate names.  Nothing here is gated; the numbers say where a
//! change to an end-to-end metric should show up.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gsn_core::{ContainerConfig, GsnContainer, NotificationManager, QueryRepository};
use gsn_federation::{PlacementRing, ReplicatedDirectory};
use gsn_network::{Message, WireElement};
use gsn_sql::{MemoryCatalog, Relation, RowSource, ScanSpec, SqlEngine};
use gsn_storage::{Retention, StorageManager, StorageOptions, StreamCursor, SyncMode, WindowSpec};
use gsn_telemetry::{MetricsSnapshot, SampleValue};
use gsn_types::{
    codec, DataType, NodeId, SimulatedClock, StreamElement, StreamSchema, Timestamp, Value,
};
use gsn_wrappers::{PushWrapper, Wrapper};
use gsn_xml::VirtualSensorDescriptor;

use crate::common::{install_push_factory, reading_schema, Outcome, Params, Run, Scratch, ROOMS};
use crate::rng::SplitMix64;
use crate::span::Tracer;
use crate::stats;
use crate::workloads::{clients, motes};

/// The program's exported counters and histogram sums, flattened by name.  Histograms
/// contribute `<name>.sum` and `<name>.count`; labelled series are summed.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn read(node: &GsnContainer) -> Counters {
        let mut counters = Counters::default();
        counters.absorb(&node.metrics_snapshot());
        counters
    }

    /// Adds another container's exports (a mesh reports the sum over its nodes).
    pub fn absorb(&mut self, snapshot: &MetricsSnapshot) {
        for sample in &snapshot.metrics {
            match sample.value {
                SampleValue::Counter(c) => {
                    *self.0.entry(sample.name.clone()).or_default() += c as f64
                }
                SampleValue::Gauge(g) => {
                    *self.0.entry(sample.name.clone()).or_default() += g as f64
                }
                SampleValue::Histogram(h) => {
                    *self.0.entry(format!("{}.sum", sample.name)).or_default() += h.sum as f64;
                    *self.0.entry(format!("{}.count", sample.name)).or_default() += h.count as f64;
                }
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self − before`, name by name.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Fills the metrics that come from the driver's spans (a) and the exported counter
/// deltas (b) and are defined the same way for every workload.
pub fn attribute(
    outcome: &mut Outcome,
    tracer: &Tracer,
    delta: &Counters,
    run: &Run,
    reference: Option<&Run>,
) {
    let l = &mut outcome.per_layer;
    // One container step as the driver sees it; a mesh step is eight container steps.
    let mut step_us = tracer.micros_of("core.step");
    if step_us.is_empty() {
        step_us = tracer
            .micros_of("mesh.step")
            .iter()
            .map(|us| us / 8.0)
            .collect();
    }
    stats::sort(&mut step_us);
    l.insert("core.step_us_p50", stats::percentile(&step_us, 0.50));
    l.insert("core.step_us_p99", stats::percentile(&step_us, 0.99));
    let step_seconds = tracer.seconds_of("core.step") + tracer.seconds_of("mesh.step");
    // Layer busy time the program itself reports, inside the steps.
    let sql_seconds =
        (delta.get("gsn_sql_exec_micros.sum") + delta.get("gsn_query_delta_eval_micros.sum")) / 1e6;
    let storage_seconds = (delta.get("gsn_storage_insert_micros.sum")
        + delta.get("gsn_storage_wal_sync_micros.sum")
        + delta.get("gsn_storage_maintenance_micros.sum"))
        / 1e6;
    l.insert(
        "core.step_self_share",
        ratio(
            (step_seconds - sql_seconds - storage_seconds).max(0.0),
            step_seconds,
        ),
    );
    let steps = delta.get("gsn_steps_total");
    l.insert(
        "core.step_phase_network_us",
        ratio(delta.get("gsn_step_network_drain_micros.sum"), steps),
    );
    l.insert(
        "core.step_phase_pipelines_us",
        ratio(delta.get("gsn_step_pipeline_micros.sum"), steps),
    );
    l.insert(
        "core.step_phase_commit_us",
        ratio(delta.get("gsn_step_commit_micros.sum"), steps),
    );

    let opens = tracer.micros_of("core.query_open");
    l.insert(
        "core.query_open_us",
        ratio(opens.iter().sum(), opens.len() as f64),
    );
    l.insert(
        "core.cursor_ns_per_row",
        ratio(
            tracer.seconds_of("core.cursor_next") * 1e9,
            tracer.rows_pulled() as f64,
        ),
    );

    let incremental = delta.get("gsn_query_incremental_total");
    l.insert(
        "sql.incremental_share",
        ratio(
            incremental,
            incremental + delta.get("gsn_query_fallback_total"),
        ),
    );
    l.insert(
        "sql.rows_scanned_per_row_returned",
        ratio(
            delta.get("gsn_sql_rows_scanned_total"),
            delta.get("gsn_sql_rows_returned_total"),
        ),
    );
    l.insert(
        "sql.pushdown_applied",
        delta.get("gsn_sql_pushdown_applied_total"),
    );

    l.insert(
        "storage.fsyncs_per_step",
        ratio(delta.get("gsn_storage_wal_fsyncs_total"), steps),
    );
    let hits = delta.get("gsn_storage_pool_hits_total");
    l.insert(
        "storage.pool_hit_ratio",
        ratio(hits, hits + delta.get("gsn_storage_pool_misses_total")),
    );
    l.insert(
        "storage.pool_evictions",
        delta.get("gsn_storage_pool_evictions_total"),
    );
    let step_ms_max = step_us.last().copied().unwrap_or(0.0) / 1e3;
    l.insert("storage.step_stall_max_ms", step_ms_max);

    l.insert("network.frames_sent", delta.get("gsn_net_sent_total"));
    l.insert("network.frames_dropped", delta.get("gsn_net_dropped_total"));
    l.insert(
        "network.retransmits",
        delta.get("gsn_federation_retransmits_total"),
    );
    l.insert(
        "network.bytes_per_element",
        ratio(delta.get("gsn_net_bytes_sent_total"), run.elements as f64),
    );
    l.insert(
        "federation.gossip_bytes_per_round",
        ratio(
            delta.get("gsn_federation_gossip_bytes_total"),
            delta.get("gsn_federation_gossip_rounds_total"),
        ),
    );

    let ops = (run.elements + run.queries) as f64;
    let mut lateness = run.lateness_ms.clone();
    stats::sort(&mut lateness);
    l.insert("bench.utilisation", run.utilisation());
    l.insert(
        "bench.generator_lateness_p99_ms",
        stats::percentile(&lateness, 0.99),
    );
    l.insert(
        "bench.cpu_per_busy",
        ratio(run.cpu_seconds, run.busy_seconds()),
    );
    l.insert("bench.cpu_us_per_op", ratio(run.cpu_seconds * 1e6, ops));
    // Busy time per operation against the untraced slice that ran just before on the
    // same container.
    l.insert(
        "bench.trace_overhead_share",
        reference
            .map(Run::busy_seconds_per_op)
            .filter(|reference| *reference > 0.0)
            .map_or(0.0, |reference| run.busy_seconds_per_op() / reference - 1.0),
    );
    // Wall-clock the parts explain: the driver's own leaf spans, the step phases the
    // program exports (plus its maintenance pass, which runs after them), and the idle
    // waits.  The remainder is step time no exported histogram covers, and the
    // driver's loop.
    let idle = (run.run_seconds - run.busy_seconds()).max(0.0);
    let phases = (delta.get("gsn_step_network_drain_micros.sum")
        + delta.get("gsn_step_pipeline_micros.sum")
        + delta.get("gsn_step_post_barrier_micros.sum")
        + delta.get("gsn_step_commit_micros.sum")
        + delta.get("gsn_storage_maintenance_micros.sum"))
        / 1e6;
    let leaves = tracer.seconds_of("wrappers.push")
        + tracer.seconds_of("bench.drain")
        + tracer.seconds_of("core.query_open")
        + tracer.seconds_of("core.cursor_next")
        + tracer.seconds_of("core.federated_query");
    l.insert(
        "bench.attributed_share",
        ratio(idle + phases + leaves, run.run_seconds),
    );
}

/// Median over five timings of `f`, which runs `ops` operations; nanoseconds per
/// operation.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let started = Instant::now();
        f();
        samples.push(started.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64);
    }
    stats::median(&samples)
}

fn readings(rng: &mut SplitMix64, n: usize) -> Vec<StreamElement> {
    let schema = reading_schema();
    (0..n)
        .map(|i| {
            StreamElement::new(
                Arc::clone(&schema),
                vec![
                    Value::Double(rng.between(5.0, 45.0)),
                    Value::Double(rng.between(0.0, 1_000.0)),
                    Value::Integer(rng.below(0, 25) as i64),
                    Value::varchar(ROOMS[rng.below(0, ROOMS.len() as u64) as usize]),
                ],
                Timestamp(i as i64 * 10),
            )
            .expect("values match the schema")
        })
        .collect()
}

fn blob_rows(rng: &mut SplitMix64, n: usize, bytes: usize) -> Vec<StreamElement> {
    let schema = Arc::new(
        StreamSchema::from_pairs(&[("cam", DataType::Integer), ("image", DataType::Binary)])
            .expect("static schema"),
    );
    (0..n)
        .map(|i| {
            let mut image = vec![0u8; bytes];
            rng.fill(&mut image);
            StreamElement::new(
                Arc::clone(&schema),
                vec![Value::Integer(i as i64), Value::binary(image)],
                Timestamp(i as i64 * 10),
            )
            .expect("values match the schema")
        })
        .collect()
}

/// (c): replays a fixed sample of generated inputs straight into each layer's public
/// functions and times them.  The same sample sizes whatever the workload, so a number
/// here can be compared across traced runs of different workloads.
pub fn replay_all(params: &Params, outcome: &mut Outcome, scratch: &Scratch) {
    let mut rng = SplitMix64::fork(params.seed, "layers");
    let scale = if params.quick { 20 } else { 1 };
    replay_sql(&mut rng, outcome, scale);
    replay_storage(&mut rng, outcome, scratch, scale);
    replay_codecs(&mut rng, outcome, scale);
    replay_federation(outcome, scale);
    replay_core(&mut rng, outcome, scale);
    replay_container(params, outcome, scale);
}

fn replay_sql(rng: &mut SplitMix64, outcome: &mut Outcome, scale: usize) {
    let l = &mut outcome.per_layer;
    // Prepare: fresh text (parse + plan + optimise) against repeated text (cache hit).
    let mut engine = SqlEngine::new();
    let n = 2_000 / scale;
    let mut k = 0usize;
    l.insert(
        "sql.prepare_us_miss",
        ns_per_op(n, || {
            for _ in 0..n {
                k += 1;
                let sql = format!("select pk, temperature, light from archive_disk where pk = {k}");
                std::hint::black_box(engine.prepare(&sql).expect("valid sql"));
            }
        }) / 1e3,
    );
    let repeated =
        "select count(*) as n, avg(temperature) as a from archive_disk where light > 500";
    engine.prepare(repeated).expect("valid sql");
    l.insert(
        "sql.prepare_us_hit",
        ns_per_op(n, || {
            for _ in 0..n {
                std::hint::black_box(engine.prepare(repeated).expect("valid sql"));
            }
        }) / 1e3,
    );

    // Executor over a materialised relation: no storage underneath.
    let rows = 20_000 / scale;
    let mut catalog = MemoryCatalog::new();
    catalog.register(
        "t",
        Relation::from_stream_elements("t", &reading_schema(), &readings(rng, rows)),
    );
    let filter = engine
        .prepare("select temperature, light from t where light > 500 and mote_id < 20")
        .expect("valid sql");
    l.insert(
        "sql.exec_ns_per_row_filter",
        ns_per_op(rows, || {
            std::hint::black_box(
                engine
                    .execute_prepared(&filter, &catalog)
                    .expect("executes"),
            );
        }),
    );
    let aggregate = engine
        .prepare("select room, count(*) as n, avg(light) as a from t group by room")
        .expect("valid sql");
    l.insert(
        "sql.exec_ns_per_row_aggregate",
        ns_per_op(rows, || {
            std::hint::black_box(
                engine
                    .execute_prepared(&aggregate, &catalog)
                    .expect("executes"),
            );
        }),
    );

    // The motes pipeline's source query over its 20-row window.
    let mut window = MemoryCatalog::new();
    window.register(
        "wrapper",
        Relation::from_stream_elements("wrapper", &reading_schema(), &readings(rng, motes::WINDOW)),
    );
    let window_query = engine
        .prepare("select avg(temperature) as avg_temp from WRAPPER")
        .expect("valid sql");
    let n = 20_000 / scale;
    l.insert(
        "sql.window_query_us",
        ns_per_op(n, || {
            for _ in 0..n {
                std::hint::black_box(
                    engine
                        .execute_prepared(&window_query, &window)
                        .expect("executes"),
                );
            }
        }) / 1e3,
    );

    // The continuous engine: cost per registered client per arriving element, at the
    // two client counts either side of the knee.
    for (clients_n, name) in [
        (100usize, "sql.continuous_us_per_client_element_100"),
        (200, "sql.continuous_us_per_client_element_200"),
    ] {
        let storage = StorageManager::new();
        let schema = reading_schema();
        storage
            .create_table(
                "sensor_stream",
                Arc::clone(&schema),
                Retention::Elements(clients::HISTORY),
            )
            .expect("fresh table");
        let history = readings(rng, clients::HISTORY / scale);
        for (i, e) in history.iter().enumerate() {
            storage
                .insert("sensor_stream", e.clone(), Timestamp(i as i64 * 30))
                .expect("insert");
        }
        let repository = QueryRepository::new(true);
        let mut population = SplitMix64::fork(0, "layers.clients");
        for i in 0..clients_n {
            let c = clients::client(i, clients_n, &mut population);
            repository
                .register(&format!("client-{i}"), &c.sql, c.history, Some(c.sampling))
                .expect("generated queries are valid");
        }
        let arrivals = readings(rng, 24);
        let mut now = history.len() as i64 * 30;
        let mut per_arrival = Vec::new();
        for (i, e) in arrivals.iter().enumerate() {
            now += 30;
            storage
                .insert("sensor_stream", e.clone(), Timestamp(now))
                .expect("insert");
            let started = Instant::now();
            let results = repository.evaluate_for_table("sensor_stream", &storage, Timestamp(now));
            let us = started.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(results);
            // The first arrivals build each query's resident window state.
            if i >= 8 {
                per_arrival.push(us / clients_n as f64);
            }
        }
        l.insert(name, stats::median(&per_arrival));
    }
}

fn replay_storage(rng: &mut SplitMix64, outcome: &mut Outcome, scratch: &Scratch, scale: usize) {
    let l = &mut outcome.per_layer;
    let now = Timestamp(1);

    // Durable inserts by payload size under the flush policy of `cameras_durable`:
    // ten rows, then one group commit that fsyncs them, as one step there does.
    for (bytes, n, name) in [
        (64usize, 4_000usize, "storage.insert_us_64b"),
        (1_024, 2_000, "storage.insert_us_1k"),
        (32 * 1_024, 200, "storage.insert_us_32k"),
    ] {
        let n = (n / scale).max(20);
        let dir = scratch.dir(&format!("layer-insert-{bytes}"));
        let mut options = StorageOptions::at(&dir);
        options.persistent.sync = SyncMode::Always;
        options.persistent.group_commit = true;
        let storage = StorageManager::with_options(options);
        let rows = blob_rows(rng, n, bytes);
        storage
            .create_table_durable("t", Arc::clone(rows[0].schema()), Retention::Unbounded)
            .expect("fresh durable table");
        let wal_bytes = || -> u64 {
            std::fs::read_dir(&dir)
                .into_iter()
                .flatten()
                .flatten()
                .filter(|f| f.path().extension().is_some_and(|x| x == "wal"))
                .filter_map(|f| f.metadata().ok())
                .map(|m| m.len())
                .sum()
        };
        let wal_before = wal_bytes();
        let mut insert_seconds = 0.0;
        let mut commits_us = Vec::new();
        let mut wal_ratio = 0.0;
        for (i, batch) in rows.chunks(10).enumerate() {
            let started = Instant::now();
            for e in batch {
                storage.insert("t", e.clone(), now).expect("insert");
            }
            insert_seconds += started.elapsed().as_secs_f64();
            let commit = Instant::now();
            storage.group_commit().expect("commit");
            commits_us.push(commit.elapsed().as_secs_f64() * 1e6);
            if i == 0 {
                // The log after the first commit, before any checkpoint truncates it.
                let payload: usize = batch.iter().map(StreamElement::size_bytes).sum();
                wal_ratio = ratio((wal_bytes() - wal_before) as f64, payload as f64);
            }
        }
        l.insert(name, insert_seconds * 1e6 / n as f64);
        if bytes == 32 * 1_024 {
            l.insert("storage.group_commit_us", stats::median(&commits_us));
            l.insert("storage.wal_bytes_per_user_byte", wal_ratio);
        }
    }

    // Memory insert, and the scans the ad-hoc read path sits on: a full scan and a
    // timestamp-bounded range of about 500 rows, on each backend.
    let rows = 40_000 / scale;
    let data = readings(rng, rows);
    let dir = scratch.dir("layer-scan");
    let storage = StorageManager::with_options(StorageOptions::at(&dir));
    let schema = reading_schema();
    storage
        .create_table("mem", Arc::clone(&schema), Retention::Unbounded)
        .expect("fresh table");
    storage
        .create_table_durable("disk", Arc::clone(&schema), Retention::Unbounded)
        .expect("fresh durable table");
    let started = Instant::now();
    for (i, e) in data.iter().enumerate() {
        storage
            .insert("mem", e.clone(), Timestamp(i as i64))
            .expect("insert");
    }
    l.insert(
        "storage.memory_insert_ns",
        started.elapsed().as_secs_f64() * 1e9 / rows as f64,
    );
    for (i, e) in data.iter().enumerate() {
        storage
            .insert("disk", e.clone(), Timestamp(i as i64))
            .expect("insert");
    }
    storage.flush_all().expect("flush");
    for (table, scan_name, range_name) in [
        (
            "mem",
            "storage.scan_ns_per_row_memory",
            "storage.range_ms_memory",
        ),
        (
            "disk",
            "storage.scan_ns_per_row_durable",
            "storage.range_ms_durable",
        ),
    ] {
        let handle = storage.table(table).expect("table exists");
        let everything = WindowSpec::Count(usize::MAX);
        let scan = |spec: &ScanSpec| {
            let mut cursor = StreamCursor::open_with_spec(
                Arc::clone(&handle),
                table,
                everything,
                Timestamp(rows as i64),
                None,
                spec,
            )
            .expect("cursor opens");
            let mut seen = 0usize;
            loop {
                let batch = cursor.next_batch(1_024).expect("scan");
                if batch.is_empty() {
                    break;
                }
                seen += batch.len();
            }
            seen
        };
        l.insert(
            scan_name,
            ns_per_op(rows, || {
                std::hint::black_box(scan(&ScanSpec::default()));
            }),
        );
        let mid = rows as i64 / 2;
        let range = ScanSpec {
            min_ts: Some(mid),
            max_ts: Some(mid + 499.min(rows as i64 / 4)),
            ..ScanSpec::default()
        };
        l.insert(
            range_name,
            ns_per_op(1, || {
                std::hint::black_box(scan(&range));
            }) / 1e6,
        );
    }
}

fn replay_codecs(rng: &mut SplitMix64, outcome: &mut Outcome, scale: usize) {
    let l = &mut outcome.per_layer;
    let small = readings(rng, 2_000 / scale);
    let large = blob_rows(rng, (64 / scale).max(4), 32 * 1_024);
    for (rows, encode_name, decode_name) in [
        (
            &small,
            "types.codec_encode_ns_per_row",
            "types.codec_decode_ns_per_row",
        ),
        (
            &large,
            "types.codec_encode_ns_per_row_32k",
            "types.codec_decode_ns_per_row_32k",
        ),
    ] {
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        l.insert(
            encode_name,
            ns_per_op(rows.len(), || {
                encoded = rows.iter().map(codec::encode_row).collect();
            }),
        );
        let schema = Arc::clone(rows[0].schema());
        l.insert(
            decode_name,
            ns_per_op(rows.len(), || {
                for bytes in &encoded {
                    let mut buf = bytes.as_slice();
                    std::hint::black_box(codec::decode_row(&mut buf, &schema).expect("round trip"));
                }
            }),
        );
    }
    // One stream-delivery frame, the message remote streams travel in.
    let frames: Vec<Message> = small
        .iter()
        .map(|e| Message::StreamDelivery {
            sensor: "n0-mote-0".to_owned(),
            element: WireElement::from_element(e),
        })
        .collect();
    let mut wire = Vec::new();
    l.insert(
        "network.encode_ns_per_frame",
        ns_per_op(frames.len(), || {
            wire = frames.iter().map(gsn_network::encode).collect();
        }),
    );
    l.insert(
        "network.decode_ns_per_frame",
        ns_per_op(frames.len(), || {
            for bytes in &wire {
                std::hint::black_box(gsn_network::decode(bytes).expect("round trip"));
            }
        }),
    );
}

fn replay_federation(outcome: &mut Outcome, scale: usize) {
    let l = &mut outcome.per_layer;
    // One anti-entropy exchange between two replicas that differ in 8 of 48 records:
    // digest, delta, apply.
    let mut a = ReplicatedDirectory::new(NodeId::new(1));
    let mut b = ReplicatedDirectory::new(NodeId::new(2));
    for i in 0..40 {
        let meta = vec![
            ("type".to_owned(), "temperature".to_owned()),
            ("location".to_owned(), format!("m{i}")),
        ];
        a.register(&format!("mote-{i}"), meta).expect("register");
    }
    b.apply(&a.snapshot());
    let rounds = 400 / scale;
    let mut next = 1_000usize;
    l.insert(
        "federation.gossip_round_us",
        ns_per_op(rounds, || {
            for _ in 0..rounds {
                for _ in 0..8 {
                    next += 1;
                    a.register(
                        &format!("mote-{next}"),
                        vec![("type".to_owned(), "x".to_owned())],
                    )
                    .expect("register");
                }
                let digest = b.digest();
                let delta = a.delta_for(&digest);
                std::hint::black_box(b.apply(&delta));
                for k in 0..8 {
                    a.deregister(&format!("mote-{}", next - k))
                        .expect("deregister");
                }
            }
        }) / 1e3,
    );
    let mut ring = PlacementRing::new(64, 2);
    for n in 1..=4 {
        ring.join(NodeId::new(n));
    }
    let keys: Vec<String> = (0..1_000).map(|i| format!("sensor-{i}")).collect();
    l.insert(
        "federation.ring_owners_ns",
        ns_per_op(keys.len(), || {
            for key in &keys {
                std::hint::black_box(ring.owners(key));
            }
        }),
    );
}

fn replay_core(rng: &mut SplitMix64, outcome: &mut Outcome, scale: usize) {
    let l = &mut outcome.per_layer;
    let n = 20_000 / scale;
    let elements = readings(rng, n);
    // One channel subscriber, as in `motes_pipeline`.
    let mut notifications = NotificationManager::new(NodeId::LOCAL, 64);
    let (_, rx) = notifications.subscribe_channel("mote-0");
    l.insert(
        "core.notify_ns_per_element",
        ns_per_op(n, || {
            for e in &elements {
                notifications.notify("mote-0", e, Timestamp(1), None);
            }
            std::hint::black_box(rx.try_iter().count());
        }),
    );
    // Push into the wrapper's channel, then poll it out, as one step does.
    let (mut wrapper, handle) =
        PushWrapper::new(reading_schema(), gsn_types::Duration::from_millis(100));
    l.insert(
        "wrappers.push_poll_ns_per_element",
        ns_per_op(n, || {
            for e in &elements {
                handle.push(e.clone()).expect("wrapper alive");
            }
            std::hint::black_box(wrapper.poll(Timestamp(1)).expect("poll").len());
        }),
    );
    let xml = motes::descriptor(0);
    let n = 2_000 / scale;
    l.insert(
        "xml.parse_descriptor_us",
        ns_per_op(n, || {
            for _ in 0..n {
                std::hint::black_box(
                    VirtualSensorDescriptor::parse(&xml).expect("valid descriptor"),
                );
            }
        }) / 1e3,
    );
}

/// A small `motes_pipeline` container driven closed loop: `slices` fixed-work slices,
/// returning the seconds each took.
struct MotesSlice {
    clock: SimulatedClock,
    node: GsnContainer,
    handles: Vec<gsn_wrappers::PushHandle>,
    sim_ms: i64,
}

impl MotesSlice {
    fn build(workers: usize, tracing: bool) -> MotesSlice {
        let clock = SimulatedClock::new();
        let config = ContainerConfig::default()
            .with_workers(workers)
            .with_tracing(tracing);
        let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
        let factory = install_push_factory(&node);
        let schema = motes::schema();
        let handles = (0..motes::SENSORS)
            .map(|i| {
                let handle = factory.handle(&format!("mote-{i}"), Arc::clone(&schema));
                node.deploy_xml(&motes::descriptor(i))
                    .expect("mote deploys");
                handle
            })
            .collect();
        MotesSlice {
            clock,
            node,
            handles,
            sim_ms: 0,
        }
    }

    /// Pushes `per_sensor` readings to every sensor, 400 elements per step.
    fn slice(&mut self, rng: &mut SplitMix64, per_sensor: usize) -> f64 {
        let started = Instant::now();
        let mut pending = 0;
        for _ in 0..per_sensor {
            for (s, handle) in self.handles.iter().enumerate() {
                let values = vec![
                    Value::Double(rng.between(-10.0, 45.0)),
                    Value::Double(rng.between(0.0, 1_000.0)),
                    Value::Integer(s as i64),
                ];
                handle
                    .push_values(values, Timestamp(self.sim_ms))
                    .expect("wrapper alive");
                pending += 1;
                if pending == 400 {
                    self.sim_ms += 10;
                    self.clock.set(Timestamp(self.sim_ms));
                    std::hint::black_box(self.node.step());
                    pending = 0;
                }
            }
        }
        self.sim_ms += 10;
        self.clock.set(Timestamp(self.sim_ms));
        std::hint::black_box(self.node.step());
        started.elapsed().as_secs_f64()
    }
}

fn replay_container(params: &Params, outcome: &mut Outcome, scale: usize) {
    let mut rng = SplitMix64::fork(params.seed, "layers.container");
    let per_sensor = 200 / scale.min(10);
    // In-process, interleaved A/B: the same slices alternate between a container with
    // span tracing on and one with it off, so drift hits both alike.
    let mut off = MotesSlice::build(1, false);
    let mut on = MotesSlice::build(1, true);
    off.slice(&mut rng, per_sensor);
    on.slice(&mut rng, per_sensor);
    let (mut t_off, mut t_on) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        t_off.push(off.slice(&mut rng, per_sensor));
        t_on.push(on.slice(&mut rng, per_sensor));
    }
    let l = &mut outcome.per_layer;
    l.insert(
        "telemetry.tracing_overhead_share",
        ratio(stats::median(&t_on), stats::median(&t_off)) - 1.0,
    );
    // The same slices on two workers against the single-thread baseline above.
    let mut two = MotesSlice::build(2, false);
    two.slice(&mut rng, per_sensor);
    let t_two: Vec<f64> = (0..5).map(|_| two.slice(&mut rng, per_sensor)).collect();
    l.insert(
        "core.speedup_vs_1worker",
        ratio(stats::median(&t_off), stats::median(&t_two)),
    );
    let n = 200 / scale.min(10);
    l.insert(
        "telemetry.snapshot_us",
        ns_per_op(n, || {
            for _ in 0..n {
                std::hint::black_box(off.node.metrics_snapshot());
            }
        }) / 1e3,
    );
    l.insert(
        "telemetry.render_prometheus_us",
        ns_per_op(n, || {
            for _ in 0..n {
                std::hint::black_box(off.node.render_prometheus());
            }
        }) / 1e3,
    );
}

/// Writes the spans of a traced run next to its report.
pub fn write_spans(tracer: &Tracer, out: &Path, workload: &str) {
    if !tracer.enabled() {
        return;
    }
    let path = out.join(format!("spans-{workload}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| tracer.write_jsonl(&path)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
