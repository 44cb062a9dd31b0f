//! `mesh_federated`: four containers on lossy links.
//!
//! A [`Mesh`] of 4 containers, every link 5 ms / 1 % loss.  Each node hosts 8
//! `motes_pipeline`-style sensors, 2 sensors that consume a ring-neighbour's stream
//! through `wrapper="remote"`, and one shard of the mesh-wide `wing_climate` table.
//! Node 1 keeps one federated query in flight: three decomposable
//! `count/avg/min/max` queries (partial-aggregate frames) for every non-decomposable
//! projection (row shipping), so p50 is an aggregate and p99 lies inside the slower
//! population — row shipping and queries that lost a frame — and not between the two.
//! The loop is closed: a fixed input per 50 ms simulated step, steps as fast as they
//! go.  Simulated link time costs no wall time, so every number is CPU cost per element
//! or query; round trips are counted, not timed.
//!
//! The `network` codec and simnet, `federation` gossip and ring, and the protocol state
//! machines in `core/container.rs` do the work.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Receiver;
use gsn_core::{ContainerConfig, Mesh, Notification, StepReport};
use gsn_network::LinkSpec;
use gsn_types::{DataType, Duration, NodeId, StreamSchema, Timestamp, Value};
use gsn_wrappers::PushHandle;

use crate::common::{
    cell_checksum, close, install_push_factory, repeat_setup, Outcome, Params, Run,
};
use crate::layers::{self, Counters};
use crate::report;
use crate::rng::{Digest, SplitMix64};
use crate::span::{SpanId, Tracer};
use crate::stats;
use crate::sys;
use crate::workloads::motes::{self, WindowReference, WINDOW};

pub const NODES: usize = 4;
pub const MOTES_PER_NODE: usize = 8;
pub const CONSUMERS_PER_NODE: usize = 2;
/// Elements each mote sensor receives per step.
pub const ELEMENTS_PER_SENSOR_STEP: usize = 1;
/// Rows each node's `wing_climate` shard receives per step.
pub const SHARD_ROWS_PER_STEP: usize = 2;
pub const STEP_MS: i64 = 50;
/// Simulated span a federated query reads, and what each shard retains.
const QUERY_WINDOW_MS: i64 = 5_000;
const SHARD_HISTORY: &str = "20s";
const WARMUP_STEPS: u64 = 600;
const SETUP_REPEATS: usize = 3;
/// A federated query that has not answered after this many steps has failed.
const QUERY_DEADLINE_STEPS: u64 = 2_000;

fn shard_schema() -> Arc<StreamSchema> {
    Arc::new(
        StreamSchema::from_pairs(&[
            ("temperature", DataType::Double),
            ("light", DataType::Double),
        ])
        .expect("static schema"),
    )
}

fn mote_descriptor(node: usize, index: usize) -> String {
    format!(
        r#"<virtual-sensor name="n{node}-mote-{index}">
  <metadata key="type" val="temperature"/>
  <metadata key="location" val="n{node}-m{index}"/>
  <output-structure><field name="avg_temp" type="double"/></output-structure>
  <storage history-size="1000"/>
  <input-stream name="main">
    <stream-source alias="src1" storage-size="{WINDOW}">
      <address wrapper="push"><predicate key="channel" val="n{node}-mote-{index}"/></address>
      <query>select avg(temperature) as avg_temp from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#
    )
}

fn consumer_descriptor(node: usize, from: usize, index: usize) -> String {
    format!(
        r#"<virtual-sensor name="n{node}-follows-n{from}-m{index}">
  <output-structure><field name="avg_temp" type="double"/></output-structure>
  <storage history-size="1000"/>
  <input-stream name="main">
    <stream-source alias="src1" storage-size="5">
      <address wrapper="remote">
        <predicate key="type" val="temperature"/>
        <predicate key="location" val="n{from}-m{index}"/>
      </address>
      <query>select avg(avg_temp) as avg_temp from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#
    )
}

fn shard_descriptor() -> String {
    format!(
        r#"<virtual-sensor name="wing-climate">
  <metadata key="type" val="climate"/>
  <output-structure>
    <field name="temperature" type="double"/>
    <field name="light" type="double"/>
  </output-structure>
  <storage history-size="{SHARD_HISTORY}"/>
  <input-stream name="main">
    <stream-source alias="src1" storage-size="1">
      <address wrapper="push"><predicate key="channel" val="wing-climate"/></address>
      <query>select temperature, light from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#
    )
}

/// A shard row as the generator remembers it: when it was stored and what it held.
#[derive(Debug, Clone, Copy)]
struct ShardRow {
    timed: i64,
    temperature: f64,
    light: f64,
}

struct NodeSide {
    id: NodeId,
    mote_handles: Vec<PushHandle>,
    mote_subscriptions: Vec<Receiver<Notification>>,
    consumer_subscriptions: Vec<Receiver<Notification>>,
    shard_handle: PushHandle,
    windows: Vec<WindowReference>,
    /// `(due instant, expected output)` of every mote element not yet delivered.
    expected: Vec<VecDeque<(Instant, f64)>>,
}

/// The federated query in flight.
struct InFlight {
    request: u64,
    issued_at: Instant,
    issued_step: u64,
    row_ship: bool,
    want_rows: usize,
    want_checksum: f64,
    sql: String,
}

pub struct State {
    mesh: Mesh,
    nodes: Vec<NodeSide>,
    rng: SplitMix64,
    digest: Digest,
    /// Every shard row of every node inside the retained span, oldest first.
    shard_rows: VecDeque<ShardRow>,
    in_flight: Option<InFlight>,
    issued: u64,
    step: u64,
    pub report: StepReport,
    pub consumer_deliveries: u64,
    pub steps_per_aggregate: Vec<f64>,
    pub steps_per_row_ship: Vec<f64>,
}

impl State {
    pub fn build(seed: u64, warmup_steps: u64) -> State {
        let mut mesh = Mesh::new();
        let ids: Vec<NodeId> = (0..NODES)
            .map(|i| {
                let id = NodeId::new(i as u64 + 1);
                mesh.add_node_with_config(ContainerConfig::named(id, &format!("node-{}", i + 1)))
                    .expect("fresh node id")
            })
            .collect();
        mesh.set_all_links(LinkSpec::wireless(5, 0.01));
        let mut nodes = Vec::with_capacity(NODES);
        for (n, id) in ids.iter().enumerate() {
            let node = mesh.node_mut(*id).expect("node just added");
            let factory = install_push_factory(node);
            let mut mote_handles = Vec::new();
            let mut mote_subscriptions = Vec::new();
            for m in 0..MOTES_PER_NODE {
                mote_handles.push(factory.handle(&format!("n{n}-mote-{m}"), motes::schema()));
                node.deploy_xml(&mote_descriptor(n, m))
                    .expect("mote deploys");
                let (_, rx) = node.subscribe(&format!("n{n}-mote-{m}")).expect("deployed");
                mote_subscriptions.push(rx);
            }
            let shard_handle = factory.handle("wing-climate", shard_schema());
            node.deploy_xml(&shard_descriptor()).expect("shard deploys");
            nodes.push(NodeSide {
                id: *id,
                mote_handles,
                mote_subscriptions,
                consumer_subscriptions: Vec::new(),
                shard_handle,
                windows: vec![WindowReference::default(); MOTES_PER_NODE],
                expected: vec![VecDeque::new(); MOTES_PER_NODE],
            });
        }
        // Remote sources resolve against the local directory replica at deployment, so
        // gossip has to have carried every registration everywhere first.
        for _ in 0..400 {
            if mesh.replicas_converged() {
                break;
            }
            mesh.step(Duration::from_millis(STEP_MS));
        }
        assert!(
            mesh.replicas_converged(),
            "gossip did not converge in 400 steps"
        );
        for (n, side) in nodes.iter_mut().enumerate() {
            let from = (n + 1) % NODES;
            let node = mesh.node_mut(side.id).expect("node exists");
            for c in 0..CONSUMERS_PER_NODE {
                node.deploy_xml(&consumer_descriptor(n, from, c))
                    .expect("consumer resolves its remote source");
                let (_, rx) = node
                    .subscribe(&format!("n{n}-follows-n{from}-m{c}"))
                    .expect("deployed");
                side.consumer_subscriptions.push(rx);
            }
        }
        let mut state = State {
            mesh,
            nodes,
            rng: SplitMix64::fork(seed, "mesh_federated"),
            digest: Digest::new(),
            shard_rows: VecDeque::new(),
            in_flight: None,
            issued: 0,
            step: 0,
            report: StepReport::default(),
            consumer_deliveries: 0,
            steps_per_aggregate: Vec::new(),
            steps_per_row_ship: Vec::new(),
        };
        let mut sink = Run::default();
        let mut scratch = Outcome::default();
        let mut tracer = Tracer::new(false);
        for _ in 0..warmup_steps {
            state.one_step(&mut sink, &mut scratch, &mut tracer);
        }
        assert_eq!(scratch.failed, 0, "warm-up failed: {:?}", scratch.failures);
        state.consumer_deliveries = 0;
        state.steps_per_aggregate.clear();
        state.steps_per_row_ship.clear();
        state
    }

    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    pub fn input_digest(&self) -> u64 {
        self.digest.value()
    }

    /// One closed-loop step: push the fixed per-step input, step the mesh, drain every
    /// subscription, and keep exactly one federated query in flight.
    pub fn one_step(&mut self, run: &mut Run, outcome: &mut Outcome, tracer: &mut Tracer) {
        self.step += 1;
        let op = self.step;
        let sim_ms = gsn_types::Clock::now(self.mesh.clock()).0 + STEP_MS;
        let root = tracer.begin("bench.tick", SpanId::NONE, op);
        let push = tracer.begin("wrappers.push", root, op);
        for (n, side) in self.nodes.iter_mut().enumerate() {
            for m in 0..MOTES_PER_NODE {
                for _ in 0..ELEMENTS_PER_SENSOR_STEP {
                    let temperature = self.rng.between(-10.0, 45.0);
                    let light = self.rng.between(0.0, 1_000.0);
                    self.digest.f64(temperature);
                    self.digest.f64(light);
                    let values = vec![
                        Value::Double(temperature),
                        Value::Double(light),
                        Value::Integer((n * MOTES_PER_NODE + m) as i64),
                    ];
                    side.mote_handles[m]
                        .push_values(values, Timestamp(sim_ms))
                        .expect("wrapper lives as long as its container");
                    side.expected[m].push_back((Instant::now(), side.windows[m].next(temperature)));
                    run.elements += 1;
                }
            }
            for _ in 0..SHARD_ROWS_PER_STEP {
                let row = ShardRow {
                    timed: sim_ms,
                    temperature: self.rng.between(-10.0, 45.0),
                    light: self.rng.between(0.0, 1_000.0),
                };
                self.digest.f64(row.temperature);
                self.digest.f64(row.light);
                side.shard_handle
                    .push_values(
                        vec![Value::Double(row.temperature), Value::Double(row.light)],
                        Timestamp(sim_ms),
                    )
                    .expect("wrapper lives as long as its container");
                self.shard_rows.push_back(row);
            }
        }
        while self
            .shard_rows
            .front()
            .is_some_and(|r| r.timed < sim_ms - 2 * QUERY_WINDOW_MS)
        {
            self.shard_rows.pop_front();
        }
        tracer.end(push);

        let report = tracer.scope("mesh.step", root, op, || {
            self.mesh.step(Duration::from_millis(STEP_MS))
        });
        self.report.absorb(report);

        let drain = tracer.begin("bench.drain", root, op);
        for (n, side) in self.nodes.iter_mut().enumerate() {
            for (m, rx) in side.mote_subscriptions.iter().enumerate() {
                for notification in rx.try_iter() {
                    let got = notification
                        .element
                        .values()
                        .first()
                        .and_then(Value::as_double);
                    let now = Instant::now();
                    match side.expected[m].pop_front() {
                        Some((due, want)) => {
                            run.element_latency.record(due, now);
                            outcome.check(got.is_some_and(|g| close(g, want)), || {
                                format!("n{n}-mote-{m}: want {want}, got {got:?}")
                            });
                        }
                        None => outcome.check(false, || format!("n{n}-mote-{m}: spurious output")),
                    }
                }
            }
            for rx in &side.consumer_subscriptions {
                self.consumer_deliveries += rx.try_iter().count() as u64;
            }
        }
        tracer.end(drain);

        self.poll_federated(sim_ms, run, outcome, tracer);
        tracer.end(root);
    }

    fn poll_federated(
        &mut self,
        sim_ms: i64,
        run: &mut Run,
        outcome: &mut Outcome,
        tracer: &mut Tracer,
    ) {
        let coordinator = self.nodes[0].id;
        if let Some(flight) = &self.in_flight {
            let node = self.mesh.node_mut(coordinator).expect("coordinator exists");
            match node.take_federated_result(flight.request) {
                Some(result) => {
                    run.query_latency.record(flight.issued_at, Instant::now());
                    run.queries += 1;
                    let steps = (self.step - flight.issued_step) as f64;
                    if flight.row_ship {
                        self.steps_per_row_ship.push(steps);
                    } else {
                        self.steps_per_aggregate.push(steps);
                    }
                    let (rows, checksum, error) = match result {
                        Ok(relation) => (
                            relation.row_count(),
                            relation
                                .rows()
                                .iter()
                                .flatten()
                                .map(cell_checksum)
                                .sum::<f64>(),
                            None,
                        ),
                        Err(e) => (0, 0.0, Some(e.to_string())),
                    };
                    let ok = error.is_none()
                        && rows == flight.want_rows
                        && close(checksum, flight.want_checksum);
                    outcome.check(ok, || {
                        format!(
                            "{}: {rows} rows checksum {checksum} error {error:?}, want {} rows checksum {}",
                            flight.sql, flight.want_rows, flight.want_checksum
                        )
                    });
                    self.in_flight = None;
                }
                None if self.step - flight.issued_step > QUERY_DEADLINE_STEPS => {
                    outcome.check(false, || {
                        format!("{}: no answer in {QUERY_DEADLINE_STEPS} steps", flight.sql)
                    });
                    self.in_flight = None;
                }
                None => return,
            }
        }
        // Issue the next one over the last five simulated seconds, which every node
        // has fully stored: rows are stamped with the step that ingested them.
        let from = sim_ms - QUERY_WINDOW_MS;
        let window: Vec<&ShardRow> = self
            .shard_rows
            .iter()
            .filter(|r| r.timed >= from && r.timed <= sim_ms)
            .collect();
        let row_ship = self.issued % 4 == 3;
        let (sql, want_rows, want_checksum) = if row_ship {
            let floor = self.rng.between(30.0, 40.0);
            let hit: Vec<&&ShardRow> = window.iter().filter(|r| r.temperature > floor).collect();
            (
                format!(
                    "select temperature, light from wing_climate where timed >= {from} and timed <= {sim_ms} and temperature > {floor}"
                ),
                hit.len(),
                hit.iter().map(|r| r.temperature + r.light).sum::<f64>(),
            )
        } else {
            let n = window.len() as f64;
            let sum: f64 = window.iter().map(|r| r.temperature).sum();
            let lo = window
                .iter()
                .map(|r| r.temperature)
                .fold(f64::INFINITY, f64::min);
            let hi = window
                .iter()
                .map(|r| r.temperature)
                .fold(f64::NEG_INFINITY, f64::max);
            (
                format!(
                    "select count(*) as n, avg(temperature) as a, min(temperature) as lo, max(temperature) as hi from wing_climate where timed >= {from} and timed <= {sim_ms}"
                ),
                1,
                n + sum / n.max(1.0) + lo + hi,
            )
        };
        self.digest.bytes(sql.as_bytes());
        let issued_at = Instant::now();
        let node = self.mesh.node_mut(coordinator).expect("coordinator exists");
        let request = tracer.scope("core.federated_query", SpanId::NONE, self.issued, || {
            node.federated_query(&sql)
        });
        self.issued += 1;
        match request {
            Ok(request) => {
                self.in_flight = Some(InFlight {
                    request,
                    issued_at,
                    issued_step: self.step,
                    row_ship,
                    want_rows,
                    want_checksum,
                    sql,
                })
            }
            Err(e) => outcome.check(false, || format!("{sql}: {e}")),
        }
    }
}

/// Steps the mesh for `budget` seconds.  A federated query is in flight during every
/// step, so element work and query work both span the whole phase.
fn steps(state: &mut State, budget: f64, outcome: &mut Outcome, tracer: &mut Tracer) -> Run {
    let mut run = Run::default();
    let cpu_before = sys::process_cpu_seconds();
    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < budget {
        state.one_step(&mut run, outcome, tracer);
        run.steps += 1;
    }
    let ended = Instant::now();
    run.element_busy.add(timed, ended);
    run.query_busy.add(timed, ended);
    run.run_seconds = (ended - timed).as_secs_f64();
    run.cpu_seconds = sys::process_cpu_seconds() - cpu_before;
    run
}

/// The exported counters of every node, summed.
fn mesh_counters(mesh: &Mesh) -> Counters {
    let mut counters = Counters::default();
    for id in mesh.node_ids() {
        counters.absorb(&mesh.node(id).expect("listed node").metrics_snapshot());
    }
    counters
}

pub fn run(params: &Params, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(params.trace);
    let warmup = params.scaled(WARMUP_STEPS, 120);

    let before_setup = started.elapsed().as_secs_f64();
    let (mut state, setup_median) =
        repeat_setup(SETUP_REPEATS, |_| State::build(params.seed, warmup));

    // The timed phase runs for a time, not a count, so only the warm-up is the same
    // input on every run of a seed; the steps continue the same generator.
    outcome.input_digest = state.input_digest();

    let budget = params.timed_seconds();
    // A traced run first drives an untraced slice half as long on the same mesh.
    let reference = params.trace.then(|| {
        steps(
            &mut state,
            budget / 2.0,
            &mut outcome,
            &mut Tracer::new(false),
        )
    });
    let before = params.trace.then(|| {
        let net = state.mesh().network();
        (
            mesh_counters(state.mesh()),
            net.stats(),
            net.sent_of_kind("partial-aggregate-request")
                + net.sent_of_kind("partial-aggregate-reply"),
        )
    });
    state.steps_per_aggregate.clear();
    state.steps_per_row_ship.clear();
    state.consumer_deliveries = 0;
    let s = steps(&mut state, budget, &mut outcome, &mut tracer);
    if state.report.errors > 0 {
        outcome.fail(|| format!("{} step errors", state.report.errors));
    }
    // One step's elements may still be in flight when the loop stops; anything older
    // was lost.
    let per_step = NODES * MOTES_PER_NODE * ELEMENTS_PER_SENSOR_STEP;
    let undelivered: usize = state
        .nodes
        .iter()
        .flat_map(|side| side.expected.iter().map(VecDeque::len))
        .sum();
    if undelivered > per_step {
        outcome.attempted += undelivered as u64;
        outcome.failed += undelivered as u64;
        outcome
            .failures
            .push(format!("{undelivered} elements never delivered"));
    }

    let net = state.mesh().network().stats();
    outcome.fact("nodes", NODES);
    outcome.fact(
        "links",
        "5 ms, 1 % loss, 2 MB/s (LinkSpec::wireless(5, 0.01))",
    );
    outcome.fact(
        "sensors_per_node",
        format!(
            "{MOTES_PER_NODE} motes + {CONSUMERS_PER_NODE} remote consumers + 1 wing_climate shard"
        ),
    );
    outcome.fact("simulated_step_ms", STEP_MS);
    outcome.fact(
        "federated_mix",
        "3 decomposable aggregates : 1 row-shipped projection",
    );
    outcome.fact(
        "median_steps_per_aggregate",
        stats::median(&state.steps_per_aggregate),
    );
    outcome.fact(
        "median_steps_per_row_ship",
        stats::median(&state.steps_per_row_ship),
    );
    outcome.fact("remote_stream_deliveries", state.consumer_deliveries);
    outcome.fact("frames_sent_lifetime", net.sent);
    outcome.fact("frames_dropped_lifetime", net.dropped);

    if let Some((counters, net_before, partial_before)) = before {
        let delta = mesh_counters(state.mesh()).since(&counters);
        layers::attribute(&mut outcome, &tracer, &delta, &s, reference.as_ref());
        // Every node exports the shared network's totals, so the sums above count each
        // frame four times; the simnet's own counters are exact.
        let network = state.mesh().network();
        let partial = network.sent_of_kind("partial-aggregate-request")
            + network.sent_of_kind("partial-aggregate-reply")
            - partial_before;
        let all_steps: Vec<f64> = state
            .steps_per_aggregate
            .iter()
            .chain(&state.steps_per_row_ship)
            .copied()
            .collect();
        let mean_steps = all_steps.iter().sum::<f64>() / all_steps.len().max(1) as f64;
        let l = &mut outcome.per_layer;
        l.insert("network.frames_sent", (net.sent - net_before.sent) as f64);
        l.insert(
            "network.frames_dropped",
            (net.dropped - net_before.dropped) as f64,
        );
        l.insert(
            "network.bytes_per_element",
            (net.bytes_sent - net_before.bytes_sent) as f64 / s.elements.max(1) as f64,
        );
        // Simulated time a federated query took, in round trips of the 5 ms links.
        l.insert(
            "federation.sim_rtts_per_query",
            mean_steps * STEP_MS as f64 / 10.0,
        );
        l.insert(
            "federation.partial_frames_per_query",
            partial as f64 / state.steps_per_aggregate.len().max(1) as f64,
        );
    }

    report::fill_end_to_end(&mut outcome, &s, before_setup + setup_median);
    layers::write_spans(&tracer, &params.out, "mesh_federated");
    outcome
}
