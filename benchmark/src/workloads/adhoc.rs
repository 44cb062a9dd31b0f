//! `adhoc_reads`: the query path SQL text → plan → scan → rows.
//!
//! Two sensors with the same four-field schema, one on memory storage and one
//! durable, are loaded through the step loop; the durable table is several times the
//! container's buffer pool and the memory table "fits".  Then one client works closed
//! loop through rounds of 100 queries — 60 point lookups, 14 `limit 10`, 16 `timed`
//! ranges of about 500 rows, 10 full-scan aggregates, split evenly over the
//! two tables — each through `query_cursor` and `next_batch(1024)` to exhaustion.
//! Three in five are point lookups so that p50 sits inside the light path, and the
//! heavy queries (memory ranges and aggregates) are 18 %, so p99 sits inside the heavy
//! path: neither percentile rests on the boundary between two query shapes.
//! Point, limit and range literals are fresh per query (prepared-query cache misses);
//! the aggregates repeat verbatim (cache hits).  Between rounds new elements are
//! ingested so scans meet a moving tail and a churning pool; that ingest is what this
//! workload reports as its element metrics.
//!
//! The `sql` parser, optimizer and executor and the *read* side of `storage` (pool
//! hits and evictions, index seeks, the memory scan) do the work; the step loop is
//! idle while a query runs.  This is the same storage layer `cameras_durable` writes
//! to, used the opposite way, so a write-path gain that costs reads shows here.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gsn_core::{ContainerConfig, GsnContainer, StepReport};
use gsn_types::{SimulatedClock, Timestamp, Value};
use gsn_wrappers::PushHandle;

use crate::common::{
    close, install_push_factory, query, reading_schema, repeat_setup, Outcome, Params, Run,
    Scratch, ROOMS,
};
use crate::layers::{self, Counters};
use crate::report;
use crate::rng::{Digest, SplitMix64};
use crate::span::{SpanId, Tracer};
use crate::stats;
use crate::sys;

/// Rows loaded into each table before timing.
pub const ROWS: u64 = 80_000;
/// Rows per step during load and ingest; all rows of a step share one `TIMED`.
pub const ROWS_PER_STEP: usize = 10;
/// Rows between the ends of two burst steps.
pub const BURST_PERIOD: usize = 500;
/// Simulated milliseconds between steps.
const STEP_MS: i64 = 10;
/// Elements ingested into each table between rounds.
pub const INGEST_PER_ROUND: u64 = 2_000;
pub const QUERIES_PER_ROUND: usize = 100;
const MIN_ROUNDS: usize = 3;
const SETUP_REPEATS: usize = 2;
const TABLES: [&str; 2] = ["archive_mem", "archive_disk"];

fn descriptor(name: &str, storage: &str) -> String {
    format!(
        r#"<virtual-sensor name="{name}">
  <output-structure>
    <field name="temperature" type="double"/>
    <field name="light" type="double"/>
    <field name="mote_id" type="integer"/>
    <field name="room" type="varchar"/>
  </output-structure>
  {storage}
  <input-stream name="main">
    <stream-source alias="src1" storage-size="1">
      <address wrapper="push"><predicate key="channel" val="{name}"/></address>
      <query>select temperature, light, mote_id, room from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#
    )
}

/// One stored row as the generator remembers it.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub timed: i64,
    pub temperature: f64,
    pub light: f64,
    pub mote_id: i64,
    pub room: u8,
}

impl Row {
    fn room_sum(&self) -> f64 {
        ROOMS[self.room as usize].bytes().map(f64::from).sum()
    }
}

/// The five query shapes of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Point,
    Limit,
    Range,
    FilterAggregate,
    GroupAggregate,
}

#[derive(Debug, Clone)]
pub struct Planned {
    pub shape: Shape,
    pub table: usize,
    pub sql: String,
    pub want_rows: usize,
    pub want_checksum: f64,
}

/// Generates rows and queries and keeps the reference copy of both tables.
pub struct Generator {
    rng: SplitMix64,
    digest: Digest,
    /// Row `pk` of table `t` is `rows[t][pk - 1]`.
    pub rows: [Vec<Row>; 2],
}

impl Generator {
    pub fn new(seed: u64) -> Generator {
        Generator {
            rng: SplitMix64::fork(seed, "adhoc_reads"),
            digest: Digest::new(),
            rows: [Vec::new(), Vec::new()],
        }
    }

    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// Generates the next row of `table`, stored at simulated time `timed`.
    pub fn row(&mut self, table: usize, timed: i64) -> Row {
        let r = Row {
            timed,
            temperature: self.rng.between(5.0, 45.0),
            light: self.rng.between(0.0, 1_000.0),
            mote_id: self.rng.below(0, 25) as i64,
            room: self.rng.below(0, ROOMS.len() as u64) as u8,
        };
        self.digest.f64(r.temperature);
        self.digest.f64(r.light);
        self.digest.u64((r.mote_id as u64) << 8 | u64::from(r.room));
        self.rows[table].push(r);
        r
    }

    /// The 100 queries of one round over the tables as they are now, in seeded order,
    /// each with the answer the generator's own copy gives.
    pub fn round(&mut self) -> Vec<Planned> {
        let mut plan = Vec::with_capacity(QUERIES_PER_ROUND);
        for i in 0..QUERIES_PER_ROUND {
            let table = i % 2;
            let shape = match i / 2 {
                0..=29 => Shape::Point,
                30..=36 => Shape::Limit,
                37..=44 => Shape::Range,
                k if k % 2 == 1 => Shape::FilterAggregate,
                _ => Shape::GroupAggregate,
            };
            plan.push(self.plan(shape, table));
        }
        // 60 points, 14 limits, 16 ranges, 10 aggregates; shuffle (Fisher–Yates).
        for i in (1..plan.len()).rev() {
            let j = self.rng.below(0, i as u64 + 1) as usize;
            plan.swap(i, j);
        }
        for q in &plan {
            self.digest.bytes(q.sql.as_bytes());
        }
        plan
    }

    fn plan(&mut self, shape: Shape, table: usize) -> Planned {
        let name = TABLES[table];
        let rows = &self.rows[table];
        let n = rows.len() as u64;
        let (sql, want_rows, want_checksum) = match shape {
            Shape::Point => {
                let pk = self.rng.below(1, n + 1);
                let r = &rows[pk as usize - 1];
                (
                    format!(
                        "select pk, temperature, light, mote_id, room from {name} where pk = {pk}"
                    ),
                    1,
                    pk as f64 + r.temperature + r.light + r.mote_id as f64 + r.room_sum(),
                )
            }
            Shape::Limit => {
                let after = self.rng.below(0, n - 10);
                let hit = &rows[after as usize..after as usize + 10];
                (
                    format!(
                        "select pk, temperature, light from {name} where pk > {after} limit 10"
                    ),
                    10,
                    hit.iter()
                        .enumerate()
                        .map(|(i, r)| (after + 1 + i as u64) as f64 + r.temperature + r.light)
                        .sum(),
                )
            }
            Shape::Range => {
                // Fifty consecutive steps' worth of rows: about 500.
                let first_step = rows[0].timed / STEP_MS;
                let last_step = rows[rows.len() - 1].timed / STEP_MS;
                let from =
                    self.rng.below(first_step as u64, last_step as u64 - 49) as i64 * STEP_MS;
                let to = from + 49 * STEP_MS;
                let lo = rows.partition_point(|r| r.timed < from);
                let hi = rows.partition_point(|r| r.timed <= to);
                (
                    format!(
                        "select temperature, light, mote_id from {name} where timed >= {from} and timed <= {to}"
                    ),
                    hi - lo,
                    rows[lo..hi]
                        .iter()
                        .map(|r| r.temperature + r.light + r.mote_id as f64)
                        .sum(),
                )
            }
            Shape::FilterAggregate => {
                let hit: Vec<&Row> = rows.iter().filter(|r| r.light > 500.0).collect();
                let avg = hit.iter().map(|r| r.temperature).sum::<f64>() / hit.len().max(1) as f64;
                (
                    format!(
                        "select count(*) as n, avg(temperature) as a from {name} where light > 500"
                    ),
                    1,
                    hit.len() as f64 + avg,
                )
            }
            Shape::GroupAggregate => {
                let mut count = [0u64; ROOMS.len()];
                let mut sum = [0.0f64; ROOMS.len()];
                for r in rows {
                    count[r.room as usize] += 1;
                    sum[r.room as usize] += r.light;
                }
                let checksum = (0..ROOMS.len())
                    .map(|g| {
                        ROOMS[g].bytes().map(f64::from).sum::<f64>()
                            + count[g] as f64
                            + sum[g] / count[g].max(1) as f64
                    })
                    .sum();
                (
                    format!(
                        "select room, count(*) as n, avg(light) as a from {name} group by room"
                    ),
                    ROOMS.len(),
                    checksum,
                )
            }
        };
        Planned {
            shape,
            table,
            sql,
            want_rows,
            want_checksum,
        }
    }
}

pub struct State {
    clock: SimulatedClock,
    node: GsnContainer,
    handles: [PushHandle; 2],
    pub generator: Generator,
    pub report: StepReport,
    sim_ms: i64,
    pub data_dir: PathBuf,
}

impl State {
    pub fn build(seed: u64, rows: u64, data_dir: PathBuf) -> State {
        let clock = SimulatedClock::new();
        let config = ContainerConfig::default().with_data_dir(&data_dir);
        let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
        let factory = install_push_factory(&node);
        let handles = [
            factory.handle("archive-mem", reading_schema()),
            factory.handle("archive-disk", reading_schema()),
        ];
        // The memory table keeps everything this run will ever give it.
        node.deploy_xml(&descriptor(
            "archive-mem",
            r#"<storage history-size="10000000"/>"#,
        ))
        .expect("memory archive deploys");
        node.deploy_xml(&descriptor(
            "archive-disk",
            r#"<storage permanent-storage="true"/>"#,
        ))
        .expect("durable archive deploys");
        let mut state = State {
            clock,
            node,
            handles,
            generator: Generator::new(seed),
            report: StepReport::default(),
            sim_ms: 0,
            data_dir,
        };
        state.ingest(rows, &mut Run::default(), &mut Tracer::new(false));
        state
    }

    pub fn node(&self) -> &GsnContainer {
        &self.node
    }

    /// Pushes `rows` new elements into each table through the step loop: of every
    /// [`BURST_PERIOD`] rows, nine tenths in steps of [`ROWS_PER_STEP`] and the last
    /// tenth as one burst step.  An element's latency runs from its push to the return
    /// of the step that stored it, so p50 is a small step and p99 lies well inside the
    /// bursts, of which a run has dozens — not on the handful of steps in which a
    /// segment rolls or the pool writes back.
    pub fn ingest(&mut self, rows: u64, run: &mut Run, tracer: &mut Tracer) {
        let mut left = rows as usize;
        let mut pushed_at = Vec::with_capacity(2 * BURST_PERIOD / 10);
        let mut since_burst = 0;
        while left > 0 {
            let batch = if since_burst >= BURST_PERIOD * 9 / 10 {
                BURST_PERIOD / 10
            } else {
                ROWS_PER_STEP
            }
            .min(left);
            since_burst = (since_burst + batch) % BURST_PERIOD;
            left -= batch;
            self.sim_ms += STEP_MS;
            let began = Instant::now();
            let root = tracer.begin("bench.tick", SpanId::NONE, self.sim_ms as u64);
            let push = tracer.begin("wrappers.push", root, self.sim_ms as u64);
            pushed_at.clear();
            for _ in 0..batch {
                for table in 0..2 {
                    let r = self.generator.row(table, self.sim_ms);
                    let values = vec![
                        Value::Double(r.temperature),
                        Value::Double(r.light),
                        Value::Integer(r.mote_id),
                        Value::varchar(ROOMS[r.room as usize]),
                    ];
                    pushed_at.push(Instant::now());
                    self.handles[table]
                        .push_values(values, Timestamp(self.sim_ms))
                        .expect("the wrapper lives as long as the container");
                }
            }
            tracer.end(push);
            self.clock.set(Timestamp(self.sim_ms));
            let report = tracer.scope("core.step", root, self.sim_ms as u64, || self.node.step());
            let returned = Instant::now();
            tracer.end(root);
            self.report.absorb(report);
            for at in &pushed_at {
                run.element_latency.record(*at, returned);
            }
            run.element_busy.add(began, returned);
            run.elements += pushed_at.len() as u64;
            run.steps += 1;
        }
    }
}

/// What one closed-loop phase of rounds measured.
#[derive(Default)]
struct Rounds {
    run: Run,
    rounds: usize,
    /// `(shape, table, milliseconds)` of every query.
    per_shape: Vec<(Shape, usize, f64)>,
    /// Pages read by durable point lookups, pages skipped by durable ranges, and how
    /// many of each ran (traced runs).
    point_pages: (u64, u64),
    range_skips: (u64, u64),
}

/// Rounds of 100 checked queries, each followed by the ingest, until `budget` seconds
/// have passed and at least `min_rounds` rounds have run.
fn rounds(
    state: &mut State,
    budget: f64,
    min_rounds: usize,
    ingest_per_round: u64,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> Rounds {
    let mut r = Rounds::default();
    let cpu_before = sys::process_cpu_seconds();
    let timed = Instant::now();
    while r.rounds < min_rounds || timed.elapsed().as_secs_f64() < budget {
        for (i, q) in state.generator.round().iter().enumerate() {
            let began = Instant::now();
            let answer = query(state.node(), &q.sql, tracer, (r.rounds * 1_000 + i) as u64);
            let ended = Instant::now();
            r.run.query_latency.record(began, ended);
            r.run.query_busy.add(began, ended);
            r.per_shape
                .push((q.shape, q.table, (ended - began).as_secs_f64() * 1e3));
            if q.table == 1 && q.shape == Shape::Point {
                r.point_pages = (r.point_pages.0 + answer.pages_read, r.point_pages.1 + 1);
            }
            if q.table == 1 && q.shape == Shape::Range {
                r.range_skips = (r.range_skips.0 + answer.pages_skipped, r.range_skips.1 + 1);
            }
            let ok = answer.error.is_none()
                && answer.rows == q.want_rows
                && close(answer.checksum, q.want_checksum);
            outcome.check(ok, || {
                format!(
                    "{}: got {answer:?}, want {} rows checksum {}",
                    q.sql, q.want_rows, q.want_checksum
                )
            });
            r.run.queries += 1;
        }
        let before = r.run.elements;
        state.ingest(ingest_per_round, &mut r.run, tracer);
        outcome.attempted += r.run.elements - before;
        r.rounds += 1;
    }
    r.run.run_seconds = timed.elapsed().as_secs_f64();
    r.run.cpu_seconds = sys::process_cpu_seconds() - cpu_before;
    r
}

pub fn run(params: &Params, scratch: &Scratch, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(params.trace);
    let rows = params.scaled(ROWS, 2_000);
    let ingest_per_round = params.scaled(INGEST_PER_ROUND, 100);

    let before_setup = started.elapsed().as_secs_f64();
    let (mut state, setup_median) = repeat_setup(SETUP_REPEATS, |attempt| {
        State::build(params.seed, rows, scratch.dir(&format!("adhoc-{attempt}")))
    });

    // The timed phase runs for a time, not a count, so only the load is the same
    // input on every run of a seed; the rounds continue the same generator.
    outcome.input_digest = state.generator.digest();

    let budget = params.timed_seconds();
    // A traced run first works an untraced slice half as long on the same container.
    let reference = params.trace.then(|| {
        rounds(
            &mut state,
            budget / 2.0,
            1,
            ingest_per_round,
            &mut outcome,
            &mut Tracer::new(false),
        )
    });
    let before = params.trace.then(|| Counters::read(state.node()));
    let r = rounds(
        &mut state,
        budget,
        MIN_ROUNDS,
        ingest_per_round,
        &mut outcome,
        &mut tracer,
    );
    if state.report.errors > 0 {
        outcome.fail(|| format!("{} step errors", state.report.errors));
    }
    // Every ingested element must be in its table: the next round's references assume so.
    for (t, name) in TABLES.iter().enumerate() {
        let answer = query(
            state.node(),
            &format!("select count(*) as n from {name}"),
            &mut Tracer::new(false),
            0,
        );
        let want = state.generator.rows[t].len() as f64;
        if !(answer.error.is_none() && close(answer.checksum, want)) {
            outcome.failed += want as u64;
            outcome
                .failures
                .push(format!("{name}: {answer:?}, want {want} rows"));
        }
    }

    let storage = state.node().storage().stats();
    let pool_bytes = storage.pool.capacity as f64 * gsn_storage::PAGE_SIZE as f64;
    let durable_bytes = sys::dir_bytes(&state.data_dir) as f64;
    outcome.fact("rows_per_table_loaded", rows);
    outcome.fact("rows_per_table_at_end", state.generator.rows[0].len());
    outcome.fact("rounds", r.rounds);
    outcome.fact(
        "queries_per_round",
        "60 point, 14 limit 10, 16 range (~500 rows), 10 aggregate",
    );
    outcome.fact("ingest_per_round_per_table", ingest_per_round);
    outcome.fact("pool_pages", storage.pool.capacity);
    outcome.fact(
        "durable_table_over_pool",
        format!("{:.2}", durable_bytes / pool_bytes.max(1.0)),
    );
    outcome.fact("flush_policy", "wal_sync=OnCheckpoint (the default)");
    for shape in [
        Shape::Point,
        Shape::Limit,
        Shape::Range,
        Shape::FilterAggregate,
        Shape::GroupAggregate,
    ] {
        for (t, table) in TABLES.iter().enumerate() {
            let ms: Vec<f64> = r
                .per_shape
                .iter()
                .filter(|(s, on, _)| *s == shape && *on == t)
                .map(|(_, _, m)| *m)
                .collect();
            outcome.fact(
                &format!("median_ms_{shape:?}_{table}"),
                format!("{:.4}", stats::median(&ms)),
            );
        }
    }

    if let Some(before) = before {
        let delta = Counters::read(state.node()).since(&before);
        let reference = reference.as_ref().map(|r| &r.run);
        layers::attribute(&mut outcome, &tracer, &delta, &r.run, reference);
        let l = &mut outcome.per_layer;
        l.insert(
            "storage.pages_read_per_point_lookup",
            r.point_pages.0 as f64 / r.point_pages.1.max(1) as f64,
        );
        l.insert(
            "storage.pages_skipped_per_range",
            r.range_skips.0 as f64 / r.range_skips.1.max(1) as f64,
        );
    }
    report::fill_end_to_end(&mut outcome, &r.run, before_setup + setup_median);
    layers::write_spans(&tracer, &params.out, "adhoc_reads");
    outcome
}
