//! `clients_continuous`: the paper's Figure 4 — every arriving element is evaluated
//! against a population of registered client queries.
//!
//! One push-fed sensor (four fields, memory storage, a preloaded 10,000-row history)
//! and 200 registered queries from the seeded generator: 2–4 predicates from the
//! Figure 4 pool, four in five an aggregate and one in five a filter-project, half
//! over count windows and half over time windows, each with a sampling rate.  Arrival
//! events come 20 a second and every twentieth is a burst of five.  The `sql` continuous
//! engine and the `core` query repository do the work; the sensor's own pipeline is a
//! passthrough and nothing is durable.
//!
//! An element is complete when the step that evaluated it returns.  Client result
//! relations are not reachable through the public API (`subscribe` rejects
//! `client:<name>`), so the oracle is the count: `StepReport.client_query_evaluations`
//! must equal arrivals × registered queries on every step.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gsn_core::{ContainerConfig, GsnContainer, StepReport};
use gsn_storage::WindowSpec;
use gsn_types::{SimulatedClock, Timestamp, Value};
use gsn_wrappers::PushHandle;

use crate::common::{
    close, install_push_factory, query, reading_schema, repeat_setup, run_open_loop, Answer,
    Latencies, Outcome, Params, StreamTarget, ROOMS,
};
use crate::layers::{self, Counters};
use crate::report;
use crate::rng::{Digest, SplitMix64};
use crate::span::Tracer;

pub const CLIENTS: usize = 200;
pub const HISTORY: usize = 10_000;
/// 20 arrival events a second, ≈ 24 elements: a quarter to two fifths of what the
/// container sustains (its per-element cost grows by four fifths over the first
/// 1,200 elements after registration).  At 30 ms the loop ran at up to three quarters
/// utilisation: on a host a third slower it saturated, and ten runs of ten seeds gave
/// p50 between 15 and 95 ms where this tick gave 13 to 20 ms.
pub const TICK: Duration = Duration::from_millis(50);
/// One arrival event in this many is a burst (5 %).
pub const BURST_EVERY: u64 = 20;
pub const BURST_SIZE: usize = 5;
/// Arrival events with every client registered before timing starts: each query
/// builds its incremental window state on its first evaluation.
const WARMUP_EVENTS: u64 = 40;
/// Four, so that the first probe after a step — which pays for the memory the step
/// just released — is a quarter of the samples and not the median.
const PROBES_PER_TICK: u64 = 4;
const SETUP_REPEATS: usize = 3;

/// The client population is part of the workload's definition, like a schema: its
/// cost depends on which predicates meet which window (a filter-project over a large
/// window with a loose predicate costs a hundred times an aggregate), and drawing it
/// from `--seed` moved `elements_per_s` by ±15 % between seeds.  `--seed` drives the
/// data, the bursts and the probes.
const POPULATION_SEED: u64 = 0x47534E;

/// The filtering predicates of the Figure 4 random-query workload.
const PREDICATES: [&str; 10] = [
    "temperature > 15",
    "temperature < 35",
    "light > 100",
    "light < 900",
    "mote_id > 2",
    "mote_id < 20",
    "room like 'bc%'",
    "temperature between 10 and 40",
    "mote_id in (1, 2, 3, 4, 5, 6, 7, 8)",
    "light is not null",
];

const DESCRIPTOR: &str = r#"<virtual-sensor name="sensor-stream">
  <output-structure>
    <field name="temperature" type="double"/>
    <field name="light" type="double"/>
    <field name="mote_id" type="integer"/>
    <field name="room" type="varchar"/>
  </output-structure>
  <storage history-size="10000"/>
  <input-stream name="main">
    <stream-source alias="src1" storage-size="1">
      <address wrapper="push"><predicate key="channel" val="sensor-stream"/></address>
      <query>select temperature, light, mote_id, room from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#;

#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub temperature: f64,
    pub light: f64,
    pub mote_id: i64,
    pub room: u8,
}

#[derive(Debug, Clone)]
pub struct ClientSpec {
    pub sql: String,
    pub history: WindowSpec,
    pub sampling: f64,
}

pub struct Inputs {
    pub preload: Vec<Reading>,
    pub clients: Vec<ClientSpec>,
    /// Warm-up events, then one event per tick; an event is one element or a burst.
    pub warmup: Vec<Vec<Reading>>,
    pub ticks: Vec<Vec<Reading>>,
    pub digest: u64,
}

/// The `index`-th of `total` client queries.
///
/// The population is stratified: the five query shapes, the two window kinds and the
/// predicate counts each take their exact share, and window sizes climb an evenly
/// spaced, jittered ladder across their range.  `rng` picks the predicates, the jitter
/// and the sampling rates.
pub fn client(index: usize, total: usize, rng: &mut SplitMix64) -> ClientSpec {
    let count = 2 + index % 3;
    let mut chosen: Vec<&str> = Vec::with_capacity(count);
    while chosen.len() < count {
        let p = PREDICATES[rng.below(0, PREDICATES.len() as u64) as usize];
        if !chosen.contains(&p) {
            chosen.push(p);
        }
    }
    let select = match index % 5 {
        0 => "avg(temperature) as v",
        1 => "count(*) as v",
        2 => "max(light) as v",
        3 => "min(temperature) as v",
        _ => "temperature, light, mote_id",
    };
    // Position of this client on the size ladder of its (shape, window kind) stratum.
    let strata = 10;
    let rung = (index / strata) as f64 + rng.unit();
    let share = rung / (total as f64 / strata as f64).max(1.0);
    let history = if (index / 5).is_multiple_of(2) {
        WindowSpec::Count((100.0 + share * 9_900.0) as usize)
    } else {
        WindowSpec::Time(gsn_types::Duration::from_secs(
            (1.0 + share * 1_799.0) as i64,
        ))
    };
    ClientSpec {
        sql: format!(
            "select {select} from sensor_stream where {}",
            chosen.join(" and ")
        ),
        history,
        // Uniform in (0.1, 1].
        sampling: 1.0 - rng.unit() * 0.9,
    }
}

pub fn generate(seed: u64, ticks: u64, preload: u64, clients: usize) -> Inputs {
    let mut rng = SplitMix64::fork(seed, "clients_continuous");
    let mut digest = Digest::new();
    let mut reading = |rng: &mut SplitMix64| {
        let r = Reading {
            temperature: rng.between(5.0, 45.0),
            light: rng.between(0.0, 1_000.0),
            mote_id: rng.below(0, 25) as i64,
            room: rng.below(0, ROOMS.len() as u64) as u8,
        };
        digest.f64(r.temperature);
        digest.f64(r.light);
        digest.u64(r.mote_id as u64 * 8 + u64::from(r.room));
        r
    };
    let preload = (0..preload).map(|_| reading(&mut rng)).collect();
    // One event in twenty is a burst, evenly spaced from a seeded phase: bursts drawn
    // independently sometimes land back to back, and then the two or three worst
    // bursts of a run, not the container, decide its p99.
    let phase = rng.below(0, BURST_EVERY);
    let mut event = |k: u64, rng: &mut SplitMix64| {
        let n = if k % BURST_EVERY == phase {
            BURST_SIZE
        } else {
            1
        };
        (0..n).map(|_| reading(rng)).collect::<Vec<_>>()
    };
    let warmup = (0..WARMUP_EVENTS).map(|k| event(k, &mut rng)).collect();
    let ticks = (0..ticks).map(|k| event(k, &mut rng)).collect();
    let mut client_rng = SplitMix64::fork(POPULATION_SEED, "clients_continuous.clients");
    let clients: Vec<ClientSpec> = (0..clients)
        .map(|i| client(i, clients, &mut client_rng))
        .collect();
    let mut digest_clients = Digest::new();
    for c in &clients {
        digest_clients.bytes(c.sql.as_bytes());
        digest_clients.bytes(format!("{:?}", c.history).as_bytes());
        digest_clients.f64(c.sampling);
    }
    let mut all = digest;
    all.u64(digest_clients.value());
    Inputs {
        preload,
        clients,
        warmup,
        ticks,
        digest: all.value(),
    }
}

pub struct State {
    clock: SimulatedClock,
    node: GsnContainer,
    handle: PushHandle,
    inputs: Arc<Inputs>,
    /// Due instants of the elements pushed since the last step.
    pending: Vec<Instant>,
    /// Every reading pushed so far, in order: row `pk` is `pushed[pk - 1]`.
    pushed: Vec<Reading>,
    arrivals_this_step: u64,
    /// `(arrivals, evaluations reported)` per step with all clients registered.
    evaluations: Vec<(u64, u64)>,
    probe_rng: SplitMix64,
    probes: Vec<(usize, Answer)>,
    pub report: StepReport,
    sim_ms: i64,
}

impl State {
    pub fn build(inputs: Arc<Inputs>, seed: u64) -> State {
        let clock = SimulatedClock::new();
        let mut node = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
        let factory = install_push_factory(&node);
        let handle = factory.handle("sensor-stream", reading_schema());
        node.deploy_xml(DESCRIPTOR)
            .expect("stream descriptor deploys");
        let mut state = State {
            clock,
            node,
            handle,
            inputs: Arc::clone(&inputs),
            pending: Vec::new(),
            pushed: Vec::new(),
            arrivals_this_step: 0,
            evaluations: Vec::new(),
            probe_rng: SplitMix64::fork(seed, "clients_continuous.probes"),
            probes: Vec::new(),
            report: StepReport::default(),
            sim_ms: 0,
        };
        // History first, with nobody registered: one arrival event per tick of
        // simulated time, 100 events per step.
        let mut sink = Latencies::default();
        for batch in inputs.preload.chunks(100) {
            let now = Instant::now();
            for r in batch {
                state.sim_ms += TICK.as_millis() as i64;
                state.push_reading(r, now);
            }
            state.step_once();
            state.drain(Instant::now(), &mut sink);
        }
        state.evaluations.clear();
        for (i, c) in inputs.clients.iter().enumerate() {
            state
                .node
                .register_query(&format!("client-{i}"), &c.sql, c.history, Some(c.sampling))
                .expect("generated client queries are valid");
        }
        for event in &inputs.warmup {
            state.sim_ms += TICK.as_millis() as i64;
            let now = Instant::now();
            for r in event {
                state.push_reading(r, now);
            }
            state.step_once();
            state.drain(Instant::now(), &mut sink);
        }
        state
    }

    fn push_reading(&mut self, r: &Reading, due: Instant) {
        let values = vec![
            Value::Double(r.temperature),
            Value::Double(r.light),
            Value::Integer(r.mote_id),
            Value::varchar(ROOMS[r.room as usize]),
        ];
        self.handle
            .push_values(values, Timestamp(self.sim_ms))
            .expect("the wrapper lives as long as the container");
        self.pending.push(due);
        self.pushed.push(*r);
        self.arrivals_this_step += 1;
    }

    fn step_once(&mut self) {
        self.clock.set(Timestamp(self.sim_ms));
        let report = self.node.step();
        self.evaluations
            .push((self.arrivals_this_step, report.client_query_evaluations));
        self.arrivals_this_step = 0;
        self.report.absorb(report);
    }

    pub fn node(&self) -> &GsnContainer {
        &self.node
    }

    pub fn verify(&self, outcome: &mut Outcome) {
        let clients = self.inputs.clients.len() as u64;
        for (step, (arrivals, evaluations)) in self.evaluations.iter().enumerate() {
            // One operation per element: each must have been evaluated by every client.
            for _ in 0..*arrivals {
                outcome.attempted += 1;
            }
            if *evaluations != arrivals * clients {
                outcome.failed += *arrivals;
                outcome.failures.push(format!(
                    "step {step}: {arrivals} arrivals × {clients} clients, {evaluations} evaluations"
                ));
                outcome.failures.truncate(8);
            }
        }
        for (pk, answer) in &self.probes {
            let want = self.pushed.get(pk - 1).map(|r| r.temperature + r.light);
            let ok = answer.error.is_none()
                && answer.rows == 1
                && want.is_some_and(|w| close(w, answer.checksum));
            outcome.check(ok, || format!("probe pk {pk}: {answer:?}, want {want:?}"));
        }
        if self.report.errors > 0 {
            outcome.fail(|| format!("{} step errors", self.report.errors));
        }
    }
}

impl StreamTarget for State {
    fn push(&mut self, tick: u64, due: Instant) -> u64 {
        let inputs = Arc::clone(&self.inputs);
        let event = &inputs.ticks[tick as usize];
        self.sim_ms += TICK.as_millis() as i64;
        for r in event {
            self.push_reading(r, due);
        }
        event.len() as u64
    }

    fn step(&mut self, _tick: u64) {
        self.step_once();
    }

    fn drain(&mut self, step_returned: Instant, latencies: &mut Latencies) {
        for due in self.pending.drain(..) {
            latencies.record(due, step_returned);
        }
    }

    fn probe(&mut self, ticks: u64, latencies: &mut Latencies, tracer: &mut Tracer) -> u64 {
        for _ in 0..ticks * PROBES_PER_TICK {
            let newest = self.pushed.len();
            let oldest = newest.saturating_sub(HISTORY) + 1;
            let pk = self.probe_rng.below(oldest as u64, newest as u64 + 1) as usize;
            let sql = format!("select temperature, light from sensor_stream where pk = {pk}");
            let started = Instant::now();
            let answer = query(&self.node, &sql, tracer, 0);
            latencies.record(started, Instant::now());
            self.probes.push((pk, answer));
        }
        ticks * PROBES_PER_TICK
    }
}

pub fn run(params: &Params, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(params.trace);
    let timed_ticks = params.timed_ticks(TICK);
    let reference_ticks = if params.trace { timed_ticks / 2 } else { 0 };
    let ticks = reference_ticks + timed_ticks;
    let preload = params.scaled(HISTORY as u64, 500);

    let before_setup = started.elapsed().as_secs_f64();
    let (mut state, setup_median) = repeat_setup(SETUP_REPEATS, |_| {
        let inputs = Arc::new(generate(params.seed, ticks, preload, CLIENTS));
        State::build(inputs, params.seed)
    });
    outcome.input_digest = state.inputs.digest;

    let reference = (reference_ticks > 0).then(|| {
        run_open_loop(
            &mut state,
            0..reference_ticks,
            TICK,
            &mut Tracer::new(false),
        )
    });
    let before = params.trace.then(|| Counters::read(state.node()));
    let run = run_open_loop(&mut state, reference_ticks..ticks, TICK, &mut tracer);
    state.verify(&mut outcome);

    outcome.fact("registered_clients", CLIENTS);
    outcome.fact("history_rows", preload);
    outcome.fact(
        "arrival_events_per_s",
        format!("{:.1}", 1e3 / TICK.as_millis() as f64),
    );
    outcome.fact(
        "burst",
        format!("every {BURST_EVERY}th event × {BURST_SIZE}"),
    );
    outcome.fact("tick_ms", TICK.as_millis());
    outcome.fact(
        "client_query_evaluations",
        state.report.client_query_evaluations,
    );
    if let Some(before) = before {
        let delta = Counters::read(state.node()).since(&before);
        layers::attribute(&mut outcome, &tracer, &delta, &run, reference.as_ref());
    }
    report::fill_end_to_end(&mut outcome, &run, before_setup + setup_median);
    layers::write_spans(&tracer, &params.out, "clients_continuous");
    outcome
}
