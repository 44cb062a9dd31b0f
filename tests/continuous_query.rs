//! Incremental continuous-query engine: correctness properties.
//!
//! 1. **Incremental-vs-full parity.**  For randomly generated registered queries
//!    (filter × aggregate × window × sampling) over random ingest schedules, a
//!    repository evaluating incrementally (delta cursor + resident operator state)
//!    must produce *identical* results to one re-executing the full window per
//!    element.
//! 2. **Container-level parity.**  A container evaluating its registered queries
//!    incrementally must report the same per-sensor outputs and the same
//!    registered-query activity as one re-evaluating every query in full, and a
//!    second run must repeat the first exactly.

use std::sync::Arc;

use gsn::container::ContainerConfig;
use gsn::container::QueryRepository;
use gsn::storage::{Retention, StorageManager, WindowSpec};
use gsn::types::{
    DataType, Duration, SimulatedClock, StreamElement, StreamSchema, Timestamp, Value,
};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::{GsnContainer, StepReport};
use proptest::prelude::*;

fn schema() -> Arc<StreamSchema> {
    Arc::new(
        StreamSchema::from_pairs(&[
            ("temperature", DataType::Integer),
            ("room", DataType::Varchar),
        ])
        .unwrap(),
    )
}

/// The query fragments the generator combines (all integer-valued, so incremental
/// SUM/AVG state is exact).
const FILTERS: &[&str] = &[
    "",
    " where temperature > 10",
    " where temperature between 5 and 24",
    " where room = 'bc143'",
    " where temperature > 3 and room <> 'bc145'",
    " where temperature is not null and temperature % 2 = 0",
];

const SHAPES: &[&str] = &[
    "select pk, temperature, room from sensor_out",
    "select temperature * 2 as double_t from sensor_out",
    "select count(*) as n from sensor_out",
    "select count(*) as n, sum(temperature) as s, avg(temperature) as a from sensor_out",
    "select min(temperature) as lo, max(temperature) as hi from sensor_out",
    "select first(temperature) as f, last(temperature) as l from sensor_out",
    "select count(distinct room) as n from sensor_out",
    "select room, count(*) as n, avg(temperature) as a from sensor_out group by room",
    "select room, max(temperature) as hi from sensor_out group by room having count(*) > 1",
    // Not incrementally maintainable: exercises the transparent fallback path too.
    "select temperature from sensor_out order by temperature desc limit 3",
];

#[derive(Debug, Clone)]
struct QuerySpec {
    shape: usize,
    filter: usize,
    window: WindowSpec,
    sampling: Option<f64>,
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (
        0..SHAPES.len(),
        0..FILTERS.len(),
        prop_oneof![
            (1usize..25).prop_map(WindowSpec::Count),
            (100i64..2_000).prop_map(|ms| WindowSpec::Time(Duration::from_millis(ms))),
            Just(WindowSpec::LatestOnly),
        ],
        prop_oneof![
            Just(None),
            Just(Some(0.5)),
            Just(Some(0.34)),
            Just(Some(1.0)),
        ],
    )
        .prop_map(|(shape, filter, window, sampling)| QuerySpec {
            shape,
            filter,
            window,
            sampling,
        })
}

fn query_sql(spec: &QuerySpec) -> String {
    let shape = SHAPES[spec.shape];
    let filter = FILTERS[spec.filter];
    // Splice the WHERE clause before any ORDER BY / GROUP BY tail.
    for keyword in ["group by", "order by"] {
        if let Some(pos) = shape.find(keyword) {
            let (head, tail) = shape.split_at(pos);
            return format!("{}{} {}", head.trim_end(), filter, tail);
        }
    }
    format!("{shape}{filter}")
}

/// One ingest step: a small batch of elements, then an evaluation.
#[derive(Debug, Clone)]
struct IngestStep {
    batch: Vec<(i64, usize)>,
    advance_ms: i64,
}

fn arb_schedule() -> impl Strategy<Value = Vec<IngestStep>> {
    prop::collection::vec(
        (
            prop::collection::vec((0i64..30, 0usize..3), 1..4),
            1i64..400,
        )
            .prop_map(|(batch, advance_ms)| IngestStep { batch, advance_ms }),
        1..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: incremental and full evaluation agree on every result
    /// relation at every evaluation point, for every query/window/sampling mix.
    #[test]
    fn incremental_matches_full_reevaluation(
        queries in prop::collection::vec(arb_query(), 1..5),
        schedule in arb_schedule(),
    ) {
        let rooms = ["bc143", "bc144", "bc145"];
        let storage = StorageManager::new();
        storage
            .create_table("sensor_out", schema(), Retention::Unbounded)
            .unwrap();
        let incremental = QueryRepository::new(true);
        let full = QueryRepository::new(false);
        for (i, spec) in queries.iter().enumerate() {
            let sql = query_sql(spec);
            incremental
                .register(&format!("c{i}"), &sql, spec.window, spec.sampling)
                .unwrap();
            full.register(&format!("c{i}"), &sql, spec.window, spec.sampling)
                .unwrap();
        }

        let mut now = Timestamp(0);
        for step in &schedule {
            now = Timestamp(now.as_millis() + step.advance_ms);
            for (temperature, room) in &step.batch {
                let element = StreamElement::new(
                    schema(),
                    vec![Value::Integer(*temperature), Value::varchar(rooms[*room])],
                    now,
                )
                .unwrap();
                storage.insert("sensor_out", element, now).unwrap();
            }
            let a = incremental.evaluate_for_table("sensor_out", &storage, now);
            let b = full.evaluate_for_table("sensor_out", &storage, now);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.query_id, y.query_id);
                prop_assert_eq!(
                    x.relation.rows(),
                    y.relation.rows(),
                    "query `{}` diverged at t={}",
                    incremental
                        .registered()
                        .iter()
                        .find(|q| q.id == x.query_id)
                        .map(|q| q.sql.clone())
                        .unwrap_or_default(),
                    now.as_millis()
                );
                prop_assert_eq!(x.relation.columns(), y.relation.columns());
            }
        }
        // Both modes evaluated everything; the full repository never went incremental.
        prop_assert_eq!(full.telemetry().incremental_evaluated.get(), 0);
        let (full_stats, _) = full.stats();
        let (inc_stats, _) = incremental.stats();
        prop_assert_eq!(
            inc_stats.registered_evaluated + inc_stats.registered_failed,
            full_stats.registered_evaluated + full_stats.registered_failed
        );
    }

    /// Bounded-retention tables: the storage prunes under the query's feet; the
    /// incremental state must retract exactly what the full path no longer sees.
    #[test]
    fn incremental_tracks_retention_pruning(
        retention in 3usize..12,
        window in 1usize..30,
        schedule in arb_schedule(),
    ) {
        let storage = StorageManager::new();
        storage
            .create_table("sensor_out", schema(), Retention::Elements(retention))
            .unwrap();
        let incremental = QueryRepository::new(true);
        let full = QueryRepository::new(false);
        for repo in [&incremental, &full] {
            repo.register(
                "c",
                "select pk, temperature from sensor_out where temperature > 7",
                WindowSpec::Count(window),
                None,
            )
            .unwrap();
            repo.register(
                "agg",
                "select count(*) as n, min(temperature) as lo from sensor_out",
                WindowSpec::Count(window),
                None,
            )
            .unwrap();
        }
        let mut now = Timestamp(0);
        for step in &schedule {
            now = Timestamp(now.as_millis() + step.advance_ms);
            for (temperature, _) in &step.batch {
                let element = StreamElement::new(
                    schema(),
                    vec![Value::Integer(*temperature), Value::varchar("bc143")],
                    now,
                )
                .unwrap();
                storage.insert("sensor_out", element, now).unwrap();
            }
            let a = incremental.evaluate_for_table("sensor_out", &storage, now);
            let b = full.evaluate_for_table("sensor_out", &storage, now);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.relation.rows(), y.relation.rows());
            }
        }
        prop_assert_eq!(
            incremental.telemetry().fallback_evaluated.get(),
            0,
            "both shapes must stay incremental"
        );
    }
}

/// Lazy seeding over a durable history: a freshly registered time-window query must
/// seed its resident state through an index-bounded range scan — reading only the
/// pages overlapping the window, not the whole multi-megabyte heap.
#[test]
fn time_window_seeding_reads_a_bounded_page_range() {
    let dir = std::env::temp_dir().join(format!(
        "gsn-cq-seed-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let storage = StorageManager::with_options(gsn::storage::StorageOptions::at(&dir));
    storage
        .create_table_durable("sensor_out", schema(), Retention::Unbounded)
        .unwrap();
    const ROWS: i64 = 40_000;
    for i in 0..ROWS {
        let element = StreamElement::new(
            schema(),
            vec![Value::Integer(i % 30), Value::varchar("bc143")],
            Timestamp(i),
        )
        .unwrap();
        storage.insert("sensor_out", element, Timestamp(i)).unwrap();
    }

    let incremental = QueryRepository::new(true);
    incremental
        .register(
            "c",
            "select count(*) as n, sum(temperature) as s from sensor_out",
            WindowSpec::Time(Duration::from_millis(1_000)),
            None,
        )
        .unwrap();

    let now = Timestamp(ROWS - 1);
    let pool_before = storage.buffer_pool().stats();
    let skipped_before = storage.telemetry().index_pages_skipped.get();
    let results = incremental.evaluate_for_table("sensor_out", &storage, now);
    let pool_after = storage.buffer_pool().stats();

    // Window covers ts >= 38_999: exactly 1_001 of the 40_000 rows.
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].relation.rows()[0][0], Value::Integer(1_001));

    let seed_reads =
        (pool_after.hits + pool_after.misses) - (pool_before.hits + pool_before.misses);
    assert!(
        seed_reads <= 32,
        "seeding a 1k-row window read {seed_reads} pages of a 40k-row heap"
    );
    assert!(
        storage.telemetry().index_pages_skipped.get() > skipped_before,
        "the segment index should have skipped the cold pages"
    );

    // Parity: the bounded seed computes the same answer as full re-evaluation.
    let full = QueryRepository::new(false);
    full.register(
        "c",
        "select count(*) as n, sum(temperature) as s from sensor_out",
        WindowSpec::Time(Duration::from_millis(1_000)),
        None,
    )
    .unwrap();
    let reference = full.evaluate_for_table("sensor_out", &storage, now);
    assert_eq!(results[0].relation.rows(), reference[0].relation.rows());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A registered query's table set includes the tables its subqueries read: it is
/// re-evaluated when only such a table changes, and its history window bounds that
/// table too.
#[test]
fn registered_query_re_evaluates_when_its_subquery_table_changes() {
    let storage = StorageManager::new();
    for table in ["readings", "thresholds"] {
        storage
            .create_table(table, schema(), Retention::Unbounded)
            .unwrap();
    }
    let insert = |table: &str, temperature: i64, ts: i64| {
        let element = StreamElement::new(
            schema(),
            vec![Value::Integer(temperature), Value::varchar("bc143")],
            Timestamp(ts),
        )
        .unwrap();
        storage.insert(table, element, Timestamp(ts)).unwrap();
    };
    for temperature in [10, 20, 30] {
        insert("readings", temperature, 1);
    }
    let repo = QueryRepository::new(true);
    let id = repo
        .register(
            "c",
            "select count(*) as n from readings \
             where temperature not in (select temperature from thresholds)",
            WindowSpec::Count(2),
            None,
        )
        .unwrap();

    // Only `thresholds` changes.  The window keeps readings [20, 30]; 20 is excluded.
    insert("thresholds", 20, 2);
    let results = repo.evaluate_for_table("thresholds", &storage, Timestamp(2));
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].query_id, id);
    assert_eq!(results[0].relation.rows()[0][0], Value::Integer(1));

    // The two-element history applies to `thresholds` as well: it now holds [30, 40],
    // so 20 counts again and 30 does not.
    insert("thresholds", 30, 3);
    insert("thresholds", 40, 3);
    let results = repo.evaluate_for_table("THRESHOLDS", &storage, Timestamp(3));
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].relation.rows()[0][0], Value::Integer(1));
    let (stats, _) = repo.stats();
    assert_eq!(stats.registered_failed, 0);
}

// ---------------------------------------------------------------------------------------
// Container-level parity: incremental vs full evaluation
// ---------------------------------------------------------------------------------------

fn mote_descriptor(name: &str, interval_ms: u32, seed: u32) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .output_field("avg_temp", DataType::Double)
        .unwrap()
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src1").with_source(
                StreamSourceSpec::new(
                    "src1",
                    AddressSpec::new("mote")
                        .with_predicate("interval", &interval_ms.to_string())
                        .with_predicate("seed", &seed.to_string()),
                    "select avg(temperature) as avg_temp from WRAPPER",
                )
                .with_window(WindowSpec::Count(10)),
            ),
        )
        .build()
        .unwrap()
}

/// Reads a named counter out of the status' embedded metrics snapshot.
fn counter(status: &gsn::container::ContainerStatus, name: &str) -> u64 {
    status
        .metrics
        .get(name)
        .and_then(|sample| sample.as_counter())
        .unwrap_or(0)
}

struct QueryRun {
    reports: Vec<StepReport>,
    tables: Vec<Vec<Vec<Value>>>,
    evaluated: u64,
    incremental: u64,
    fallback: u64,
    failed: u64,
}

fn run_query_workload(incremental: bool) -> QueryRun {
    const SENSORS: usize = 8;
    let clock = SimulatedClock::new();
    let config = ContainerConfig {
        incremental_queries: incremental,
        ..ContainerConfig::default()
    };
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    let names: Vec<String> = (0..SENSORS).map(|i| format!("mote-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        node.deploy(mote_descriptor(name, 100 + 50 * (i as u32 % 4), i as u32))
            .unwrap();
        let table = name.replace('-', "_");
        // Two registered queries per sensor: one incremental-friendly aggregate, one
        // shape that falls back.
        node.register_query(
            &format!("agg-client-{i}"),
            &format!("select count(*) as n, avg(avg_temp) as a from {table}"),
            WindowSpec::Count(20),
            None,
        )
        .unwrap();
        node.register_query(
            &format!("top-client-{i}"),
            &format!("select avg_temp from {table} order by avg_temp desc limit 2"),
            WindowSpec::Count(20),
            None,
        )
        .unwrap();
    }
    let mut reports = Vec::new();
    for _ in 0..5 {
        clock.advance(Duration::from_secs(1));
        let mut report = node.step();
        report.processing_micros = 0;
        reports.push(report);
    }
    let tables = names
        .iter()
        .map(|name| {
            node.query(&format!(
                "select pk, avg_temp from {}",
                name.replace('-', "_")
            ))
            .unwrap()
            .rows()
            .to_vec()
        })
        .collect();
    let status = node.status();
    QueryRun {
        reports,
        tables,
        evaluated: status.queries.registered_evaluated,
        incremental: counter(&status, "gsn_query_incremental_total"),
        fallback: counter(&status, "gsn_query_fallback_total"),
        failed: status.queries.registered_failed,
    }
}

#[test]
fn incremental_and_full_containers_agree_on_counters() {
    let incremental = run_query_workload(true);
    let full = run_query_workload(false);
    // Evaluation *activity* is identical; only the execution strategy differs.
    assert_eq!(incremental.reports, full.reports);
    assert_eq!(incremental.tables, full.tables);
    assert_eq!(incremental.evaluated, full.evaluated);
    assert_eq!(full.incremental, 0);
    assert_eq!(full.fallback, full.evaluated);
    // The workload exercised both paths, and no evaluation failed.
    assert!(incremental.evaluated > 0);
    assert!(incremental.incremental > 0);
    assert!(incremental.fallback > 0);
    assert_eq!(incremental.failed + full.failed, 0);
    // Deterministic: a second run repeats every report and table exactly.
    let again = run_query_workload(true);
    assert_eq!(incremental.reports, again.reports);
    assert_eq!(incremental.tables, again.tables);
}
