//! `motes_pipeline`: the mote side of the paper's Figure 3.
//!
//! 64 push-fed sensors of three small fields; every arrival runs the source query
//! `select avg(temperature) … from WRAPPER` over a 20-row count window and a `select *`
//! output query into memory storage, and notifies one channel subscriber per sensor.
//! The `core` step loop, the per-arrival `sql` window query and the `wrappers` poll do
//! the work; `storage` holds only small memory tables and `network` is absent — a
//! change to the durable write path or the wire must not move this workload.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use gsn_core::{ContainerConfig, GsnContainer, Notification, StepReport};
use gsn_types::{DataType, SimulatedClock, StreamSchema, Timestamp, Value};
use gsn_wrappers::PushHandle;

use crate::common::{
    close, install_push_factory, query, repeat_setup, run_open_loop, Answer, DueQueues, Latencies,
    Outcome, Params, StreamTarget,
};
use crate::layers::{self, Counters};
use crate::report;
use crate::rng::{Digest, SplitMix64};
use crate::span::{SpanId, Tracer};

pub const SENSORS: usize = 64;
pub const WINDOW: usize = 20;
/// Offered load, elements per second over all sensors: about two fifths of what one
/// worker sustains, so a stall is drained within a few ticks.
pub const RATE: u64 = 25_000;
pub const TICK: Duration = Duration::from_millis(10);
/// Output rows each sensor keeps; probes read the newest one.
const HISTORY: usize = 1_000;
/// Elements per sensor pushed before timing: fills every window and the allocator.
const WARMUP_PER_SENSOR: u64 = 1_500;
const PROBES_PER_TICK: u64 = 4;
pub const WORKERS: usize = 1;
const SETUP_REPEATS: usize = 3;

pub fn schema() -> Arc<StreamSchema> {
    Arc::new(
        StreamSchema::from_pairs(&[
            ("temperature", DataType::Double),
            ("light", DataType::Double),
            ("mote_id", DataType::Integer),
        ])
        .expect("static schema"),
    )
}

pub fn descriptor(index: usize) -> String {
    format!(
        r#"<virtual-sensor name="mote-{index}">
  <output-structure><field name="avg_temp" type="double"/></output-structure>
  <storage history-size="{HISTORY}"/>
  <input-stream name="main">
    <stream-source alias="src1" storage-size="{WINDOW}">
      <address wrapper="push"><predicate key="channel" val="mote-{index}"/></address>
      <query>select avg(temperature) as avg_temp from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#
    )
}

/// One generated reading.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub sensor: u16,
    pub temperature: f64,
    pub light: f64,
}

/// The whole input of a run: the warm-up batch, then one batch per tick.
pub struct Inputs {
    pub warmup: Vec<Reading>,
    pub ticks: Vec<Vec<Reading>>,
    pub digest: u64,
}

pub fn generate(seed: u64, ticks: u64, per_tick: u64, warmup_per_sensor: u64) -> Inputs {
    let mut rng = SplitMix64::fork(seed, "motes_pipeline");
    let mut digest = Digest::new();
    let mut next_sensor = 0usize;
    let mut reading = |rng: &mut SplitMix64| {
        let r = Reading {
            sensor: next_sensor as u16,
            temperature: rng.between(-10.0, 45.0),
            light: rng.between(0.0, 1_000.0),
        };
        next_sensor = (next_sensor + 1) % SENSORS;
        digest.u64(u64::from(r.sensor));
        digest.f64(r.temperature);
        digest.f64(r.light);
        r
    };
    let warmup = (0..warmup_per_sensor * SENSORS as u64)
        .map(|_| reading(&mut rng))
        .collect();
    let ticks = (0..ticks)
        .map(|_| (0..per_tick).map(|_| reading(&mut rng)).collect())
        .collect();
    Inputs {
        warmup,
        ticks,
        digest: digest.value(),
    }
}

/// The generator's own 20-row window average: what the k-th output of a sensor must be.
#[derive(Debug, Default, Clone)]
pub struct WindowReference {
    window: VecDeque<f64>,
}

impl WindowReference {
    pub fn next(&mut self, temperature: f64) -> f64 {
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(temperature);
        self.window.iter().sum::<f64>() / self.window.len() as f64
    }
}

pub struct State {
    clock: SimulatedClock,
    node: GsnContainer,
    handles: Vec<PushHandle>,
    subscriptions: Vec<Receiver<Notification>>,
    inputs: Arc<Inputs>,
    dues: DueQueues,
    /// Every delivered `avg_temp`, per sensor, in delivery order (warm-up included).
    delivered: Vec<Vec<f64>>,
    probe_rng: SplitMix64,
    /// `(sensor, pk asked for, answer)` per probe.
    probes: Vec<(usize, usize, Answer)>,
    pub report: StepReport,
    warmup_ms: i64,
}

impl State {
    pub fn build(inputs: Arc<Inputs>, seed: u64) -> State {
        let clock = SimulatedClock::new();
        let config = ContainerConfig::default().with_workers(WORKERS);
        let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
        let factory = install_push_factory(&node);
        let schema = schema();
        let mut handles = Vec::with_capacity(SENSORS);
        let mut subscriptions = Vec::with_capacity(SENSORS);
        for i in 0..SENSORS {
            handles.push(factory.handle(&format!("mote-{i}"), Arc::clone(&schema)));
            node.deploy_xml(&descriptor(i))
                .expect("mote descriptor deploys");
            let (_, rx) = node
                .subscribe(&format!("mote-{i}"))
                .expect("a deployed sensor can be subscribed to");
            subscriptions.push(rx);
        }
        let mut state = State {
            clock,
            node,
            handles,
            subscriptions,
            inputs,
            dues: DueQueues::new(SENSORS),
            delivered: vec![Vec::new(); SENSORS],
            probe_rng: SplitMix64::fork(seed, "motes_pipeline.probes"),
            probes: Vec::new(),
            report: StepReport::default(),
            warmup_ms: 0,
        };
        state.warm_up();
        state
    }

    fn push_reading(&mut self, r: &Reading, sim_ms: i64, due: Instant) {
        let values = vec![
            Value::Double(r.temperature),
            Value::Double(r.light),
            Value::Integer(i64::from(r.sensor)),
        ];
        self.handles[r.sensor as usize]
            .push_values(values, Timestamp(sim_ms))
            .expect("the wrapper lives as long as the container");
        self.dues.pushed(r.sensor as usize, due);
    }

    /// Fixed work before timing: the warm-up batch, closed loop, one step per
    /// tick-sized slice.
    fn warm_up(&mut self) {
        let inputs = Arc::clone(&self.inputs);
        let mut sink = Latencies::default();
        for slice in inputs.warmup.chunks((RATE as usize / 100).max(1)) {
            self.warmup_ms += TICK.as_millis() as i64;
            let now = Instant::now();
            for r in slice {
                self.push_reading(r, self.warmup_ms, now);
            }
            self.clock.set(Timestamp(self.warmup_ms));
            let report = self.node.step();
            self.report.absorb(report);
            self.drain(Instant::now(), &mut sink);
        }
    }

    pub fn node(&self) -> &GsnContainer {
        &self.node
    }

    /// Compares everything delivered and every probe answer with the generator's own
    /// record.
    pub fn verify(&self, outcome: &mut Outcome, ticks_run: usize) {
        let mut expected: Vec<Vec<f64>> = vec![Vec::new(); SENSORS];
        let mut windows = vec![WindowReference::default(); SENSORS];
        let pushed = self
            .inputs
            .warmup
            .iter()
            .chain(self.inputs.ticks[..ticks_run].iter().flatten());
        for r in pushed {
            let s = r.sensor as usize;
            expected[s].push(windows[s].next(r.temperature));
        }
        for (s, (want, got)) in expected.iter().zip(&self.delivered).enumerate() {
            // One operation per element: pushed, delivered, and equal to the reference.
            for (k, w) in want.iter().enumerate() {
                let ok = got.get(k).is_some_and(|g| close(*g, *w));
                outcome.check(ok, || {
                    format!("mote-{s} output {k}: want {w}, got {:?}", got.get(k))
                });
            }
            if got.len() > want.len() {
                outcome.fail(|| format!("mote-{s}: {} spurious outputs", got.len() - want.len()));
            }
        }
        for (s, pk, answer) in &self.probes {
            let want = self.delivered[*s].get(pk - 1).copied();
            let ok = answer.error.is_none()
                && answer.rows == 1
                && want.is_some_and(|w| close(w, answer.checksum));
            outcome.check(ok, || {
                format!("probe mote-{s} pk {pk}: {answer:?}, want {want:?}")
            });
        }
        if self.report.errors > 0 {
            outcome.fail(|| format!("{} step errors", self.report.errors));
        }
    }
}

impl StreamTarget for State {
    fn push(&mut self, tick: u64, due: Instant) -> u64 {
        let inputs = Arc::clone(&self.inputs);
        let batch = &inputs.ticks[tick as usize];
        let sim_ms = self.warmup_ms + (tick as i64 + 1) * TICK.as_millis() as i64;
        for r in batch {
            self.push_reading(r, sim_ms, due);
        }
        batch.len() as u64
    }

    fn step(&mut self, tick: u64) {
        let sim_ms = self.warmup_ms + (tick as i64 + 1) * TICK.as_millis() as i64;
        self.clock.set(Timestamp(sim_ms));
        let report = self.node.step();
        self.report.absorb(report);
    }

    fn drain(&mut self, _step_returned: Instant, latencies: &mut Latencies) {
        for (s, rx) in self.subscriptions.iter().enumerate() {
            let mut received = 0;
            for n in rx.try_iter() {
                let value = n.element.values().first().and_then(Value::as_double);
                self.delivered[s].push(value.unwrap_or(f64::NAN));
                received += 1;
            }
            let now = Instant::now();
            for _ in 0..received {
                if let Some(due) = self.dues.delivered(s) {
                    latencies.record(due, now);
                }
            }
        }
    }

    fn probe(&mut self, ticks: u64, latencies: &mut Latencies, tracer: &mut Tracer) -> u64 {
        for _ in 0..ticks * PROBES_PER_TICK {
            let s = self.probe_rng.below(0, SENSORS as u64) as usize;
            let pk = self.delivered[s].len();
            let sql = format!("select avg_temp from mote_{s} where pk = {pk}");
            let started = Instant::now();
            let answer = query(&self.node, &sql, tracer, 0);
            latencies.record(started, Instant::now());
            self.probes.push((s, pk, answer));
        }
        ticks * PROBES_PER_TICK
    }
}

pub fn run(params: &Params, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(params.trace);
    let timed_ticks = params.timed_ticks(TICK);
    // A traced run first drives an untraced slice half as long on the same container,
    // the reference `bench.trace_overhead_share` compares against.
    let reference_ticks = if params.trace { timed_ticks / 2 } else { 0 };
    let ticks = reference_ticks + timed_ticks;
    let per_tick = RATE * TICK.as_millis() as u64 / 1_000;
    let warmup = params.scaled(WARMUP_PER_SENSOR, WINDOW as u64 + 5);

    let before_setup = started.elapsed().as_secs_f64();
    let (mut state, setup_median) = repeat_setup(SETUP_REPEATS, |_| {
        let inputs = Arc::new(tracer.scope("bench.generate", SpanId::NONE, 0, || {
            generate(params.seed, ticks, per_tick, warmup)
        }));
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
    state.verify(&mut outcome, ticks as usize);

    outcome.fact("sensors", SENSORS);
    outcome.fact("offered_rate_el_per_s", RATE);
    outcome.fact("tick_ms", TICK.as_millis());
    outcome.fact("workers", WORKERS);
    outcome.fact("window_rows", WINDOW);
    if let Some(before) = before {
        let delta = Counters::read(state.node()).since(&before);
        layers::attribute(&mut outcome, &tracer, &delta, &run, reference.as_ref());
    }
    report::fill_end_to_end(&mut outcome, &run, before_setup + setup_median);
    layers::write_spans(&tracer, &params.out, "motes_pipeline");
    outcome
}
