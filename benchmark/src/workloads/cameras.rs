//! `cameras_durable`: the camera side of the paper's Figure 3 / the 32 KB stream
//! elements of Figure 4, on durable storage.
//!
//! 15 push-fed sensors of `(cam integer, image binary 32 KiB)` with passthrough
//! queries into bounded durable tables.  The flush policy is part of the workload:
//! `wal_sync = SyncMode::Always` with the default group commit, so an element is
//! acknowledged when the step that ingested it has fsynced its WAL shard.  `storage`
//! (WAL, pages, oversized-row chains, retention, reclaim) does nearly all the work and
//! `sql` almost none; this is the *write* use of the storage layer.  After the timed
//! phase the container is dropped, the data directory reopened, and the recovered rows
//! compared with the retained window.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use gsn_core::{ContainerConfig, GsnContainer, Notification, StepReport};
use gsn_storage::SyncMode;
use gsn_types::{DataType, SimulatedClock, StreamSchema, Timestamp, Value};
use gsn_wrappers::PushHandle;

use crate::common::{
    install_push_factory, query, repeat_setup, run_open_loop, Answer, DueQueues, Latencies,
    Outcome, Params, Scratch, StreamTarget,
};
use crate::layers::{self, Counters};
use crate::report;
use crate::rng::{Digest, SplitMix64};
use crate::span::Tracer;
use crate::{stats, sys};

pub const SENSORS: usize = 15;
pub const IMAGE_BYTES: usize = 32 * 1024;
/// Output rows each durable table retains.
pub const HISTORY: usize = 200;
/// Offered load, elements per second over all cameras (≈ 2.5 MiB/s of frames): three
/// tenths of what the container sustains.  About a quarter of the elements then fall
/// due while some table is stalled, so p50 is the unstalled path and p99 lies well
/// inside the stalls.  At 200 el/s the loop runs at three quarters utilisation, most
/// elements wait behind a stall, and a host a quarter slower saturates it; at 160 el/s
/// about half wait and p50 ranged 23–80 ms between seeds.
pub const RATE: u64 = 80;
/// Frames per closed-loop preload step.
const PRELOAD_PER_STEP: usize = 10;
pub const TICK: Duration = Duration::from_millis(50);
/// Distinct frame bodies; each frame is one of them with a unique 16-byte header.
const FRAME_POOL: usize = 32;
const PROBES_PER_TICK: u64 = 5;
const SETUP_REPEATS: usize = 1;

fn schema() -> Arc<StreamSchema> {
    Arc::new(
        StreamSchema::from_pairs(&[("cam", DataType::Integer), ("image", DataType::Binary)])
            .expect("static schema"),
    )
}

pub fn descriptor(index: usize) -> String {
    format!(
        r#"<virtual-sensor name="cam-{index}">
  <output-structure>
    <field name="cam" type="integer"/>
    <field name="image" type="binary"/>
  </output-structure>
  <storage backend="disk" history-size="{HISTORY}"/>
  <input-stream name="main">
    <stream-source alias="src1" storage-size="1">
      <address wrapper="push"><predicate key="channel" val="cam-{index}"/></address>
      <query>select cam, image from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#
    )
}

/// One generated frame: which camera, its per-camera sequence number, which pooled
/// body it carries.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub cam: u16,
    pub seq: u32,
    pub body: u16,
}

pub struct Inputs {
    pub bodies: Vec<Vec<u8>>,
    /// Frames pushed before timing: fills every table to its bound, staggered so the
    /// cameras do not cross segment boundaries in lockstep.
    pub preload: Vec<Frame>,
    pub ticks: Vec<Vec<Frame>>,
    pub digest: u64,
}

impl Inputs {
    /// The 32 KiB payload of a frame: the pooled body with `(cam, seq)` stamped over
    /// its first 16 bytes, so every stored row is distinguishable.
    pub fn image(&self, frame: &Frame) -> Vec<u8> {
        let mut image = self.bodies[frame.body as usize].clone();
        image[..8].copy_from_slice(&u64::from(frame.cam).to_le_bytes());
        image[8..16].copy_from_slice(&u64::from(frame.seq).to_le_bytes());
        image
    }
}

pub fn generate(seed: u64, ticks: u64, per_tick: u64, preload_per_cam: u64) -> Inputs {
    let mut rng = SplitMix64::fork(seed, "cameras_durable");
    let mut digest = Digest::new();
    let bodies: Vec<Vec<u8>> = (0..FRAME_POOL)
        .map(|_| {
            let mut body = vec![0u8; IMAGE_BYTES];
            rng.fill(&mut body);
            digest.bytes(&body);
            body
        })
        .collect();
    let mut seqs = [0u32; SENSORS];
    let mut frame = |cam: usize, rng: &mut SplitMix64| {
        let f = Frame {
            cam: cam as u16,
            seq: seqs[cam],
            body: rng.below(0, FRAME_POOL as u64) as u16,
        };
        seqs[cam] += 1;
        digest.u64(u64::from(f.cam) << 48 | u64::from(f.seq) << 16 | u64::from(f.body));
        f
    };
    // Camera c starts c/15 of a segment-roll period (128 rows) ahead of camera 0.
    let mut preload = Vec::new();
    for cam in 0..SENSORS {
        let extra = (cam as u64 * 128) / SENSORS as u64;
        for _ in 0..preload_per_cam + extra.min(preload_per_cam) {
            preload.push(frame(cam, &mut rng));
        }
    }
    let mut next_cam = 0usize;
    let ticks = (0..ticks)
        .map(|_| {
            (0..per_tick)
                .map(|_| {
                    let f = frame(next_cam, &mut rng);
                    next_cam = (next_cam + 1) % SENSORS;
                    f
                })
                .collect()
        })
        .collect();
    Inputs {
        bodies,
        preload,
        ticks,
        digest: digest.value(),
    }
}

fn config(data_dir: &Path) -> ContainerConfig {
    let mut config = ContainerConfig::default().with_data_dir(data_dir);
    config.wal_sync = SyncMode::Always;
    config
}

pub struct State {
    clock: SimulatedClock,
    node: GsnContainer,
    data_dir: PathBuf,
    handles: Vec<PushHandle>,
    subscriptions: Vec<Receiver<Notification>>,
    inputs: Arc<Inputs>,
    dues: DueQueues,
    /// `seq` of every delivered frame, per camera, in delivery order.
    delivered: Vec<Vec<u32>>,
    probe_rng: SplitMix64,
    probes: Vec<(usize, usize, Answer)>,
    pub report: StepReport,
    sim_ms: i64,
    pub payload_bytes: u64,
}

impl State {
    pub fn build(inputs: Arc<Inputs>, data_dir: PathBuf, seed: u64) -> State {
        let clock = SimulatedClock::new();
        let mut node = GsnContainer::new(config(&data_dir), Arc::new(clock.clone()));
        let factory = install_push_factory(&node);
        let schema = schema();
        let mut handles = Vec::with_capacity(SENSORS);
        let mut subscriptions = Vec::with_capacity(SENSORS);
        for i in 0..SENSORS {
            handles.push(factory.handle(&format!("cam-{i}"), Arc::clone(&schema)));
            node.deploy_xml(&descriptor(i))
                .expect("camera descriptor deploys");
            let (_, rx) = node.subscribe(&format!("cam-{i}")).expect("deployed");
            subscriptions.push(rx);
        }
        let mut state = State {
            clock,
            node,
            data_dir,
            handles,
            subscriptions,
            inputs,
            dues: DueQueues::new(SENSORS),
            delivered: vec![Vec::new(); SENSORS],
            probe_rng: SplitMix64::fork(seed, "cameras_durable.probes"),
            probes: Vec::new(),
            report: StepReport::default(),
            sim_ms: 0,
            payload_bytes: 0,
        };
        state.preload();
        state
    }

    fn push_frame(&mut self, frame: &Frame, due: Instant) {
        let image = self.inputs.image(frame);
        self.payload_bytes += image.len() as u64 + 8;
        let values = vec![Value::Integer(i64::from(frame.cam)), Value::binary(image)];
        self.handles[frame.cam as usize]
            .push_values(values, Timestamp(self.sim_ms))
            .expect("the wrapper lives as long as the container");
        self.dues.pushed(frame.cam as usize, due);
    }

    fn step_once(&mut self) {
        self.clock.set(Timestamp(self.sim_ms));
        let report = self.node.step();
        self.report.absorb(report);
    }

    /// Fills every table past its bound, closed loop, one step per tick-sized slice.
    fn preload(&mut self) {
        let inputs = Arc::clone(&self.inputs);
        let mut sink = Latencies::default();
        for slice in inputs.preload.chunks(PRELOAD_PER_STEP) {
            self.sim_ms += TICK.as_millis() as i64;
            let now = Instant::now();
            for f in slice {
                self.push_frame(f, now);
            }
            self.step_once();
            self.drain(Instant::now(), &mut sink);
        }
        self.payload_bytes = 0;
    }

    pub fn node(&self) -> &GsnContainer {
        &self.node
    }

    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Every pushed frame must have been delivered, in order; every probe must have
    /// returned the one row it asked for.
    pub fn verify_delivery(&self, outcome: &mut Outcome, ticks_run: usize) {
        let mut pushed = [0u32; SENSORS];
        let frames = self
            .inputs
            .preload
            .iter()
            .chain(self.inputs.ticks[..ticks_run].iter().flatten());
        for f in frames {
            let cam = f.cam as usize;
            let got = self.delivered[cam].get(pushed[cam] as usize);
            outcome.check(got == Some(&f.seq), || {
                format!(
                    "cam-{cam} delivery {}: want seq {}, got {got:?}",
                    pushed[cam], f.seq
                )
            });
            pushed[cam] += 1;
        }
        for (cam, pk, answer) in &self.probes {
            let ok = answer.error.is_none() && answer.rows == 1;
            outcome.check(ok, || format!("probe cam-{cam} pk {pk}: {answer:?}"));
        }
        if self.report.errors > 0 {
            outcome.fail(|| format!("{} step errors", self.report.errors));
        }
    }

    /// Drops the container, reopens the data directory with a fresh one, and checks
    /// that each table holds exactly the retained window: the last `HISTORY` frames of
    /// its camera, byte for byte in the header and in length.  Returns
    /// `(recovery seconds, recovered rows)`.
    pub fn reopen_and_verify(self, outcome: &mut Outcome) -> (f64, u64) {
        let State {
            node,
            data_dir,
            delivered,
            clock,
            ..
        } = self;
        drop(node);
        let started = Instant::now();
        let mut node = GsnContainer::new(config(&data_dir), Arc::new(clock.clone()));
        let _factory = install_push_factory(&node);
        for i in 0..SENSORS {
            node.deploy_xml(&descriptor(i))
                .expect("camera descriptor redeploys");
        }
        let recovery = started.elapsed().as_secs_f64();
        let mut recovered = 0u64;
        for (cam, seqs) in delivered.iter().enumerate() {
            let retained = &seqs[seqs.len().saturating_sub(HISTORY)..];
            let mut cursor = match node.query_cursor(&format!("select cam, image from cam_{cam}")) {
                Ok(c) => c,
                Err(e) => {
                    outcome.check(false, || format!("cam-{cam} reopen: {e}"));
                    continue;
                }
            };
            let mut got = Vec::new();
            while !cursor.is_done() {
                let Ok(batch) = cursor.next_batch(64) else {
                    break;
                };
                for row in batch.rows() {
                    let image = row.get(1).and_then(Value::as_bytes).unwrap_or(&[]);
                    let header_ok = image.len() == IMAGE_BYTES
                        && image[..8] == (cam as u64).to_le_bytes()
                        && row.first().and_then(Value::as_integer) == Some(cam as i64);
                    let seq = if header_ok {
                        u64::from_le_bytes(image[8..16].try_into().expect("8 bytes")) as u32
                    } else {
                        u32::MAX
                    };
                    got.push(seq);
                }
            }
            recovered += got.len() as u64;
            outcome.check(got == retained, || {
                format!(
                    "cam-{cam} recovered {} rows ({:?}..{:?}), retained window is {} rows ({:?}..{:?})",
                    got.len(),
                    got.first(),
                    got.last(),
                    retained.len(),
                    retained.first(),
                    retained.last()
                )
            });
        }
        (recovery, recovered)
    }
}

impl StreamTarget for State {
    fn push(&mut self, tick: u64, due: Instant) -> u64 {
        let inputs = Arc::clone(&self.inputs);
        let batch = &inputs.ticks[tick as usize];
        for f in batch {
            self.push_frame(f, due);
        }
        batch.len() as u64
    }

    fn step(&mut self, _tick: u64) {
        self.sim_ms += TICK.as_millis() as i64;
        self.step_once();
    }

    fn drain(&mut self, _step_returned: Instant, latencies: &mut Latencies) {
        for (cam, rx) in self.subscriptions.iter().enumerate() {
            let mut received = 0;
            for n in rx.try_iter() {
                let image = n.element.values().get(1).and_then(Value::as_bytes);
                let seq = image
                    .filter(|b| b.len() == IMAGE_BYTES)
                    .map(|b| u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")) as u32);
                self.delivered[cam].push(seq.unwrap_or(u32::MAX));
                received += 1;
            }
            let now = Instant::now();
            for _ in 0..received {
                if let Some(due) = self.dues.delivered(cam) {
                    latencies.record(due, now);
                }
            }
        }
    }

    fn probe(&mut self, ticks: u64, latencies: &mut Latencies, tracer: &mut Tracer) -> u64 {
        for _ in 0..ticks * PROBES_PER_TICK {
            let cam = self.probe_rng.below(0, SENSORS as u64) as usize;
            let pk = self.delivered[cam].len();
            let sql = format!("select cam, image from cam_{cam} where pk = {pk}");
            let started = Instant::now();
            let answer = query(&self.node, &sql, tracer, 0);
            latencies.record(started, Instant::now());
            self.probes.push((cam, pk, answer));
        }
        ticks * PROBES_PER_TICK
    }
}

/// Rows ingested between consecutive stalled steps, a stall being a step that took
/// more than ten times the median step.  `(longest step ms, median rows between stalls)`.
fn stalls(tracer: &Tracer, elements_per_second: f64) -> (f64, f64) {
    let steps: Vec<_> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.step")
        .collect();
    let mut durations: Vec<f64> = steps.iter().map(|s| s.micros()).collect();
    let threshold = 10.0 * stats::median(&durations);
    let stalled: Vec<f64> = steps
        .iter()
        .filter(|s| s.micros() > threshold)
        .map(|s| s.start_ns as f64 / 1e9)
        .collect();
    let gaps: Vec<f64> = stalled
        .windows(2)
        .map(|w| (w[1] - w[0]) * elements_per_second)
        .collect();
    stats::sort(&mut durations);
    (
        durations.last().copied().unwrap_or(0.0) / 1e3,
        stats::median(&gaps),
    )
}

pub fn run(params: &Params, scratch: &Scratch, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(params.trace);
    let timed_ticks = params.timed_ticks(TICK);
    let reference_ticks = if params.trace { timed_ticks / 2 } else { 0 };
    let ticks = reference_ticks + timed_ticks;
    let per_tick = RATE * TICK.as_millis() as u64 / 1_000;
    let preload = params.scaled(HISTORY as u64 + 8, 12);

    let before_setup = started.elapsed().as_secs_f64();
    let (mut state, setup_median) = repeat_setup(SETUP_REPEATS, |attempt| {
        let inputs = Arc::new(generate(params.seed, ticks, per_tick, preload));
        State::build(
            inputs,
            scratch.dir(&format!("cameras-{attempt}")),
            params.seed,
        )
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
    state.payload_bytes = 0;
    let written_before = sys::bytes_written();
    let run = run_open_loop(&mut state, reference_ticks..ticks, TICK, &mut tracer);
    let written = sys::bytes_written() - written_before;
    state.verify_delivery(&mut outcome, ticks as usize);

    outcome.fact("sensors", SENSORS);
    outcome.fact("image_bytes", IMAGE_BYTES);
    outcome.fact("offered_rate_el_per_s", RATE);
    outcome.fact("tick_ms", TICK.as_millis());
    outcome.fact("history_rows_per_table", HISTORY);
    outcome.fact(
        "flush_policy",
        "wal_sync=Always, group commit per step (ack at step commit)",
    );
    // Bytes handed to write syscalls per byte of frames ingested, and bytes on disk
    // per byte of rows inside the retention window.
    let write_amplification = written as f64 / state.payload_bytes.max(1) as f64;
    let retained_bytes = (SENSORS * HISTORY.min(preload as usize) * (IMAGE_BYTES + 8)) as f64;
    let space_amplification = sys::dir_bytes(state.data_dir()) as f64 / retained_bytes;
    outcome.fact("write_amplification", format!("{write_amplification:.4}"));
    outcome.fact("space_amplification", format!("{space_amplification:.4}"));
    if let Some(before) = before {
        let delta = Counters::read(state.node()).since(&before);
        layers::attribute(&mut outcome, &tracer, &delta, &run, reference.as_ref());
        let (stall_ms, period_rows) = stalls(&tracer, RATE as f64);
        let maintain = Instant::now();
        let freed = state.node().maintain_storage();
        let maintain_ms = maintain.elapsed().as_secs_f64() * 1e3;
        let disk = state.node().storage().stats().disk;
        let l = &mut outcome.per_layer;
        l.insert("storage.write_amplification", write_amplification);
        l.insert("storage.space_amplification", space_amplification);
        l.insert("storage.step_stall_max_ms", stall_ms);
        l.insert("storage.step_stall_period_rows", period_rows);
        l.insert("storage.maintain_ms", maintain_ms);
        l.insert(
            "storage.reclaimed_bytes",
            delta.get("gsn_storage_bytes_reclaimed_total") + freed.reclaim.bytes_reclaimed as f64,
        );
        l.insert("storage.segments_live", disk.live_segments as f64);
    }
    report::fill_end_to_end(&mut outcome, &run, before_setup + setup_median);
    layers::write_spans(&tracer, &params.out, "cameras_durable");

    let (recovery_s, recovered_rows) = state.reopen_and_verify(&mut outcome);
    outcome.fact("recovery_ms", format!("{:.3}", recovery_s * 1e3));
    outcome.fact("recovered_rows", recovered_rows);
    if params.trace {
        outcome
            .per_layer
            .insert("storage.recovery_ms", recovery_s * 1e3);
        outcome
            .per_layer
            .insert("storage.recovered_rows", recovered_rows as f64);
    }
    outcome
}
