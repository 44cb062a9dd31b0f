//! What every workload shares: run parameters, the outcome record, repeated set-up,
//! scratch directories, latency bookkeeping and the open-loop tick driver.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsn_core::GsnContainer;
use gsn_types::{DataType, StreamSchema, Value};
use gsn_wrappers::{PushWrapperFactory, WrapperFactory};

use crate::span::{SpanId, Tracer};
use crate::stats::{self, BusyClock};
use crate::sys;

/// Parameters of one run of one workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics (the timed phase runs at half length
    /// and the remaining time goes to the layer replays).
    pub trace: bool,
    /// Sizes ÷ 20, same code paths.  Never a result.
    pub quick: bool,
    /// Where span files and the scratch data directory go.
    pub out: PathBuf,
}

impl Params {
    /// Divides a full-size count for `--quick`, never below `floor`.
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        if self.quick {
            (full / 20).max(floor)
        } else {
            full
        }
    }

    /// The timed phase: `--seconds`, halved when tracing, a twentieth with `--quick`.
    pub fn timed_seconds(&self) -> f64 {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        if self.quick {
            seconds / 20.0
        } else {
            seconds
        }
    }

    /// How many ticks of `tick` the timed phase of an open-loop workload drives.
    pub fn timed_ticks(&self, tick: Duration) -> u64 {
        ((self.timed_seconds() / tick.as_secs_f64()).round() as u64).max(20)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Facts printed with the report: sizes, flush policy, sample counts, digests.
    pub facts: Vec<(String, String)>,
    /// FNV-1a of every input handed to the program.
    pub input_digest: u64,
    /// Set when the driver could not get the CPU it needed; the numbers are suspect.
    pub noisy: bool,
}

impl Outcome {
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_owned(), value.to_string()));
    }

    /// Counts one checked operation; `ok == false` is a failure with a description.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, describe: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(describe());
        }
    }
}

/// The rooms of the four-field reading schema.
pub const ROOMS: [&str; 4] = ["bc143", "bc144", "in201", "lab7"];

/// `(temperature, light, mote_id, room)`: the stream of the paper's Figure 4, which
/// `clients_continuous`, `adhoc_reads` and the layer replays share.
pub fn reading_schema() -> Arc<StreamSchema> {
    Arc::new(
        StreamSchema::from_pairs(&[
            ("temperature", DataType::Double),
            ("light", DataType::Double),
            ("mote_id", DataType::Integer),
            ("room", DataType::Varchar),
        ])
        .expect("static schema"),
    )
}

/// Relative agreement of two floats to `1e-9` (absolute near zero).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// A scratch directory under `--out`, removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create(out: &Path) -> std::io::Result<Scratch> {
        let root = out.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty sub-directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory under --out must be creatable");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Builds the workload state `repeats` times from nothing, dropping each predecessor
/// first, and returns the last state with the median build time in seconds.  `setup_s`
/// is this median plus whatever the process did before the first build.
pub fn repeat_setup<S>(repeats: usize, mut build: impl FnMut(usize) -> S) -> (S, f64) {
    let mut seconds = Vec::with_capacity(repeats);
    let mut state = None;
    for attempt in 0..repeats {
        drop(state.take());
        let started = Instant::now();
        state = Some(build(attempt));
        seconds.push(started.elapsed().as_secs_f64());
    }
    (
        state.expect("a workload is set up at least once"),
        stats::median(&seconds),
    )
}

/// Replaces the container's built-in push factory with one the driver holds, so the
/// driver's handles and the deployed wrappers share their channels.
pub fn install_push_factory(node: &GsnContainer) -> Arc<PushWrapperFactory> {
    let factory = Arc::new(PushWrapperFactory::new());
    let registry = node.wrapper_registry();
    registry
        .deregister("push")
        .expect("the push wrapper is a built-in");
    registry
        .register(Arc::clone(&factory) as Arc<dyn WrapperFactory>)
        .expect("the push kind was just freed");
    factory
}

/// What an ad-hoc query returned, reduced to what the oracles compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub rows: usize,
    /// Order-independent sum over every cell, see [`cell_checksum`].
    pub checksum: f64,
    pub error: Option<String>,
    /// Buffer-pool pages the cursor read and index pages it skipped; filled by traced
    /// runs only.
    pub pages_read: u64,
    pub pages_skipped: u64,
}

/// A number for one cell: the value itself for numbers and timestamps, a byte sum for
/// strings and blobs, so a result can be compared with a reference without keeping it.
pub fn cell_checksum(value: &Value) -> f64 {
    match value {
        Value::Null => 0.0,
        Value::Integer(i) => *i as f64,
        Value::Double(d) => *d,
        Value::Boolean(b) => f64::from(u8::from(*b)),
        Value::Timestamp(t) => t.0 as f64,
        Value::Varchar(s) => s.bytes().map(f64::from).sum(),
        Value::Binary(b) => b.len() as f64 + b.iter().take(64).map(|x| f64::from(*x)).sum::<f64>(),
    }
}

/// Runs one ad-hoc query the way a client does: open a cursor, pull batches of 1,024
/// rows until it is exhausted.  An error is an answer too; the caller counts it.
pub fn query(node: &GsnContainer, sql: &str, tracer: &mut Tracer, op: u64) -> Answer {
    let root = tracer.begin("bench.query", SpanId::NONE, op);
    let mut answer = Answer {
        rows: 0,
        checksum: 0.0,
        error: None,
        pages_read: 0,
        pages_skipped: 0,
    };
    let open = tracer.begin("core.query_open", root, op);
    let cursor = node.query_cursor(sql);
    tracer.end(open);
    match cursor {
        Err(e) => answer.error = Some(e.to_string()),
        Ok(mut cursor) => {
            while !cursor.is_done() {
                let pull = tracer.begin("core.cursor_next", root, op);
                let batch = cursor.next_batch(1_024);
                tracer.end(pull);
                match batch {
                    Ok(batch) => {
                        tracer.pulled(batch.row_count());
                        answer.rows += batch.row_count();
                        for row in batch.rows() {
                            answer.checksum += row.iter().map(cell_checksum).sum::<f64>();
                        }
                    }
                    Err(e) => {
                        answer.error = Some(e.to_string());
                        break;
                    }
                }
            }
            if tracer.enabled() {
                answer.pages_read = cursor.pages_read();
                answer.pages_skipped = cursor.pages_skipped();
            }
        }
    }
    tracer.end(root);
    answer
}

/// Into how many equal parts a run's samples are cut for [`Latencies::p50_p99`]: one per
/// [`P99_PART_SAMPLES`] samples, at least five and at most forty.
pub const P99_PARTS: std::ops::RangeInclusive<usize> = 5..=40;
pub const P99_PART_SAMPLES: usize = 100;

/// Wall-clock samples of one kind of operation, milliseconds, in the order they
/// completed.
#[derive(Debug, Default)]
pub struct Latencies {
    samples_ms: Vec<f64>,
}

impl Latencies {
    pub fn record(&mut self, from: Instant, to: Instant) {
        self.samples_ms
            .push(to.saturating_duration_since(from).as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.samples_ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// `(p50, p99)` in milliseconds.  p50 is over the whole run.  p99 is the median
    /// over five to forty consecutive equal-count parts of the run of each part's own
    /// p99: on a shared two-core sandbox one preemption of the process otherwise
    /// decides the run's p99 (the same seed gave 10 ms and 140 ms), and a median of
    /// parts ignores nearly half of them being bad.  Many short parts are steadier than
    /// few long ones: the host slows down for a few hundred milliseconds at a time, a
    /// long part nearly always holds such an episode, and its p99 then is the episode.
    /// With fewer than a hundred samples a part, a part's p99 is its slowest sample.
    pub fn p50_p99(&self) -> (f64, f64) {
        let mut all = self.samples_ms.clone();
        stats::sort(&mut all);
        let parts =
            (self.samples_ms.len() / P99_PART_SAMPLES).clamp(*P99_PARTS.start(), *P99_PARTS.end());
        let part = self.samples_ms.len().div_ceil(parts).max(1);
        let p99s: Vec<f64> = self
            .samples_ms
            .chunks(part)
            .map(|chunk| {
                let mut chunk = chunk.to_vec();
                stats::sort(&mut chunk);
                stats::percentile(&chunk, 0.99)
            })
            .collect();
        (stats::percentile(&all, 0.50), stats::median(&p99s))
    }
}

/// Per-sensor FIFO of due instants: elements of one sensor are delivered in push
/// order, so the k-th notification answers the k-th push.
#[derive(Debug, Default)]
pub struct DueQueues {
    queues: Vec<VecDeque<Instant>>,
}

impl DueQueues {
    pub fn new(sensors: usize) -> DueQueues {
        DueQueues {
            queues: (0..sensors).map(|_| VecDeque::new()).collect(),
        }
    }

    pub fn pushed(&mut self, sensor: usize, due: Instant) {
        self.queues[sensor].push_back(due);
    }

    /// The due instant of the oldest undelivered element of `sensor`.
    pub fn delivered(&mut self, sensor: usize) -> Option<Instant> {
        self.queues[sensor].pop_front()
    }
}

/// The container side of an open-loop stream workload.
pub trait StreamTarget {
    /// Hands the program the elements due at tick `tick` (due at wall instant `due`);
    /// returns how many.
    fn push(&mut self, tick: u64, due: Instant) -> u64;
    /// Sets the simulated clock to the time of `tick` and steps the container.
    fn step(&mut self, tick: u64);
    /// Collects what the step delivered, recording `received − due` per element.
    fn drain(&mut self, step_returned: Instant, latencies: &mut Latencies);
    /// Runs the ad-hoc probe queries of the `ticks` ticks the last step covered (closed
    /// loop), recording each one's latency; returns how many ran.
    fn probe(&mut self, ticks: u64, latencies: &mut Latencies, tracer: &mut Tracer) -> u64;
}

/// What the timed phase of a workload measured, whichever loop drove it.
#[derive(Debug, Default)]
pub struct Run {
    pub elements: u64,
    pub queries: u64,
    pub steps: u64,
    pub element_latency: Latencies,
    pub query_latency: Latencies,
    /// Time inside the program on behalf of elements (push + step + drain) ...
    pub element_busy: BusyClock,
    /// ... and on behalf of queries.
    pub query_busy: BusyClock,
    /// How late each open-loop step started against its tick, milliseconds.
    pub lateness_ms: Vec<f64>,
    pub run_seconds: f64,
    pub cpu_seconds: f64,
}

impl Run {
    /// Wall time the driver spent inside the program.  One thread cannot be busy for
    /// longer than the run: where element and query work overlap (a federated query is
    /// in flight during every mesh step) the overlap counts once.
    pub fn busy_seconds(&self) -> f64 {
        (self.element_busy.seconds() + self.query_busy.seconds()).min(self.run_seconds)
    }

    pub fn utilisation(&self) -> f64 {
        self.busy_seconds() / self.run_seconds.max(1e-9)
    }

    pub fn busy_seconds_per_op(&self) -> f64 {
        self.busy_seconds() / (self.elements + self.queries).max(1) as f64
    }
}

/// Spins until `deadline` and returns how long it waited.  The driver never sleeps
/// during the timed phase: on the shared host a virtual CPU that halts between ticks
/// comes back slow (the same `motes_pipeline` seed gave 43k el/s after sleeping waits
/// and 60k el/s after spinning ones, alternating run by run), and a run measures how
/// often that happened, not the program.
fn wait_until(deadline: Instant) -> Duration {
    let began = Instant::now();
    let mut now = began;
    while now < deadline {
        std::hint::spin_loop();
        now = Instant::now();
    }
    now - began
}

/// Drives the ticks in `ticks`, `tick` apart, open loop: sensors are independent
/// producers, so a tick is due on schedule whether or not the container kept up.  When a
/// step overruns, every tick that fell due meanwhile is pushed before the next step —
/// the elements queue in their wrappers exactly as they would behind a stalled
/// container — and each keeps its own due time, so its latency includes the wait.
pub fn run_open_loop(
    target: &mut impl StreamTarget,
    ticks: std::ops::Range<u64>,
    tick: Duration,
    tracer: &mut Tracer,
) -> Run {
    let mut run = Run::default();
    let cpu_before = sys::process_cpu_seconds();
    let start = Instant::now();
    let first = ticks.start;
    let due_at = |k: u64| start + tick.mul_f64((k - first) as f64);
    let mut next = ticks.start;
    let ticks = ticks.end;
    let mut waited = Duration::ZERO;
    while next < ticks {
        waited += wait_until(due_at(next));
        let began = Instant::now();
        run.lateness_ms
            .push(began.saturating_duration_since(due_at(next)).as_secs_f64() * 1e3);
        let op = run.steps;
        let root = tracer.begin("bench.tick", SpanId::NONE, op);

        let push_span = tracer.begin("wrappers.push", root, op);
        let mut last = next;
        let first_pushed = next;
        while next < ticks && due_at(next) <= began {
            run.elements += target.push(next, due_at(next));
            last = next;
            next += 1;
        }
        tracer.end(push_span);

        tracer.scope("core.step", root, op, || target.step(last));
        let step_returned = Instant::now();
        tracer.scope("bench.drain", root, op, || {
            target.drain(step_returned, &mut run.element_latency)
        });
        let drained = Instant::now();
        run.element_busy.add(began, drained);

        run.queries += target.probe(next - first_pushed, &mut run.query_latency, tracer);
        run.query_busy.add(drained, Instant::now());
        tracer.end(root);
        run.steps += 1;
    }
    run.run_seconds = start.elapsed().as_secs_f64();
    // The spinning waits are the driver's, not the program's.
    run.cpu_seconds = (sys::process_cpu_seconds() - cpu_before - waited.as_secs_f64()).max(0.0);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_setup_reports_the_median_and_keeps_the_last_state() {
        let mut built = Vec::new();
        let (state, median) = repeat_setup(3, |attempt| {
            built.push(attempt);
            std::thread::sleep(Duration::from_millis(2 + 4 * attempt as u64));
            attempt
        });
        assert_eq!(state, 2);
        assert_eq!(built, vec![0, 1, 2]);
        assert!((0.006..0.2).contains(&median), "median {median}");
    }

    #[test]
    fn p99_is_the_median_of_the_parts_p99s() {
        let t0 = Instant::now();
        let mut l = Latencies::default();
        // Five parts of 100 samples of 1..=100 ms; one part also holds a 5 s outlier
        // run, which a whole-run p99 would report and the median of parts does not.
        for part in 0..*P99_PARTS.start() {
            for ms in 1..=100u64 {
                let ms = if part == 3 && ms > 90 { 5_000 } else { ms };
                l.record(t0, t0 + Duration::from_millis(ms));
            }
        }
        let (p50, p99) = l.p50_p99();
        assert_eq!(p50, 50.0);
        assert_eq!(p99, 99.0);
        assert_eq!(l.len(), 500);
        assert!(!l.is_empty());
        assert_eq!(Latencies::default().p50_p99(), (0.0, 0.0));
    }

    #[test]
    fn outcome_counts_attempts_and_failures() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "second".to_owned());
        o.fail(|| "third".to_owned());
        assert_eq!((o.attempted, o.failed), (2, 2));
        assert_eq!(o.failures, vec!["second", "third"]);
        assert!(close(1.0, 1.0 + 1e-12));
        assert!(!close(1.0, 1.0 + 1e-6));
        assert!(close(0.0, 1e-10));
    }

    struct Slow {
        stall_on: u64,
        pushed: Vec<u64>,
        stepped: Vec<u64>,
        dues: DueQueues,
    }

    impl StreamTarget for Slow {
        fn push(&mut self, tick: u64, due: Instant) -> u64 {
            self.pushed.push(tick);
            self.dues.pushed(0, due);
            1
        }
        fn step(&mut self, tick: u64) {
            if tick == self.stall_on {
                std::thread::sleep(Duration::from_millis(25));
            }
            self.stepped.push(tick);
        }
        fn drain(&mut self, step_returned: Instant, latencies: &mut Latencies) {
            while let Some(due) = self.dues.delivered(0) {
                latencies.record(due, step_returned);
            }
        }
        fn probe(&mut self, _tick: u64, _latencies: &mut Latencies, _t: &mut Tracer) -> u64 {
            0
        }
    }

    #[test]
    fn an_overrun_batches_the_overdue_ticks_and_charges_them_the_wait() {
        let mut target = Slow {
            stall_on: 2,
            pushed: Vec::new(),
            stepped: Vec::new(),
            dues: DueQueues::new(1),
        };
        let mut tracer = Tracer::new(true);
        let run = run_open_loop(&mut target, 0..12, Duration::from_millis(5), &mut tracer);
        // Every tick's elements are pushed exactly once, in order ...
        assert_eq!(target.pushed, (0..12).collect::<Vec<_>>());
        // ... but the ticks that fell due during the 25 ms stall share one step.
        assert!(target.stepped.len() < 12 - 2, "{:?}", target.stepped);
        assert_eq!(run.elements, 12);
        assert_eq!(run.element_latency.len(), 12);
        assert!(target.dues.delivered(0).is_none());
        let (p50, _) = run.element_latency.p50_p99();
        let slowest = run
            .element_latency
            .samples_ms
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert!(
            slowest >= 25.0,
            "the stalled tick waited for its step: {slowest}"
        );
        assert!(p50 < slowest);
        // Idle waits are not busy time.
        assert!(run.element_busy.seconds() < run.run_seconds);
        assert!(run.utilisation() > 0.0 && run.utilisation() < 1.0);
        assert_eq!(tracer.micros_of("core.step").len(), target.stepped.len());
    }
}
