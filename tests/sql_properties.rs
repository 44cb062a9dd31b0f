//! Property-based tests for the SQL engine: invariants that must hold for every randomly
//! generated relation and predicate parameterisation.

use gsn::sql::{ColumnInfo, MemoryCatalog, Relation, SqlEngine};
use gsn::types::{DataType, Value};
use proptest::prelude::*;

/// A randomly generated readings table with integers, doubles, strings and NULLs.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, String, bool)>> {
    prop::collection::vec(
        (
            -1000i64..1000,
            -100.0f64..100.0,
            "[a-z]{1,6}",
            prop::bool::ANY,
        ),
        0..60,
    )
}

fn build_catalog(rows: &[(i64, f64, String, bool)]) -> MemoryCatalog {
    let columns = vec![
        ColumnInfo::new(None, "id", Some(DataType::Integer)),
        ColumnInfo::new(None, "reading", Some(DataType::Double)),
        ColumnInfo::new(None, "room", Some(DataType::Varchar)),
        ColumnInfo::new(None, "flagged", Some(DataType::Boolean)),
    ];
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(id, reading, room, flagged)| {
            vec![
                Value::Integer(*id),
                // One in eight readings is NULL to exercise three-valued logic.
                if id % 8 == 0 {
                    Value::Null
                } else {
                    Value::Double(*reading)
                },
                Value::varchar(room.clone()),
                Value::Boolean(*flagged),
            ]
        })
        .collect();
    let mut catalog = MemoryCatalog::new();
    catalog.register("readings", Relation::with_rows(columns, data).unwrap());
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_star_equals_row_count(rows in arb_rows()) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let n = engine.execute_scalar("select count(*) from readings", &catalog).unwrap();
        prop_assert_eq!(n, Value::Integer(rows.len() as i64));
    }

    #[test]
    fn filters_return_subsets_and_complement_partitions(rows in arb_rows(), threshold in -1000i64..1000) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let total = rows.len() as i64;
        let matching = engine
            .execute_scalar(&format!("select count(*) from readings where id > {threshold}"), &catalog)
            .unwrap()
            .as_integer()
            .unwrap();
        let complement = engine
            .execute_scalar(&format!("select count(*) from readings where not (id > {threshold})"), &catalog)
            .unwrap()
            .as_integer()
            .unwrap();
        prop_assert!(matching >= 0 && matching <= total);
        // `id` is never NULL, so the predicate and its negation partition the table.
        prop_assert_eq!(matching + complement, total);
    }

    #[test]
    fn limit_caps_the_result_size(rows in arb_rows(), limit in 0u64..100) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let rel = engine
            .execute(&format!("select id from readings limit {limit}"), &catalog)
            .unwrap();
        prop_assert_eq!(rel.row_count() as u64, limit.min(rows.len() as u64));
    }

    #[test]
    fn order_by_produces_sorted_output(rows in arb_rows()) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let rel = engine.execute("select id from readings order by id", &catalog).unwrap();
        let ids: Vec<i64> = rel.rows().iter().map(|r| r[0].as_integer().unwrap()).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] <= w[1]));
        let rel = engine.execute("select id from readings order by id desc", &catalog).unwrap();
        let ids: Vec<i64> = rel.rows().iter().map(|r| r[0].as_integer().unwrap()).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn aggregates_are_consistent_with_each_other(rows in arb_rows()) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let rel = engine
            .execute(
                "select count(reading), sum(reading), avg(reading), min(reading), max(reading) from readings",
                &catalog,
            )
            .unwrap();
        let row = &rel.rows()[0];
        let count = row[0].as_integer().unwrap();
        if count == 0 {
            prop_assert!(row[1].is_null() && row[2].is_null() && row[3].is_null() && row[4].is_null());
        } else {
            let sum = row[1].as_double().unwrap();
            let avg = row[2].as_double().unwrap();
            let min = row[3].as_double().unwrap();
            let max = row[4].as_double().unwrap();
            prop_assert!((sum / count as f64 - avg).abs() < 1e-6);
            prop_assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
        }
    }

    #[test]
    fn union_all_counts_add_up(rows in arb_rows()) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let doubled = engine
            .execute("select id from readings union all select id from readings", &catalog)
            .unwrap();
        prop_assert_eq!(doubled.row_count(), rows.len() * 2);
        let distinct_union = engine
            .execute("select id from readings union select id from readings", &catalog)
            .unwrap();
        let distinct = engine
            .execute("select distinct id from readings", &catalog)
            .unwrap();
        prop_assert_eq!(distinct_union.row_count(), distinct.row_count());
    }

    #[test]
    fn group_by_partitions_the_rows(rows in arb_rows()) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let grouped = engine
            .execute("select room, count(*) as n from readings group by room", &catalog)
            .unwrap();
        let total: i64 = grouped.rows().iter().map(|r| r[1].as_integer().unwrap()).sum();
        prop_assert_eq!(total, rows.len() as i64);
        // No group is empty.
        prop_assert!(grouped.rows().iter().all(|r| r[1].as_integer().unwrap() >= 1));
    }

    #[test]
    fn predicate_pushdown_does_not_change_join_results(rows in arb_rows(), threshold in -1000i64..1000) {
        let catalog = build_catalog(&rows);
        let sql = format!(
            "select a.id from readings a join readings b on a.id = b.id \
             where a.id > {threshold} and b.flagged = true order by a.id"
        );
        let mut optimised = SqlEngine::new();
        let mut unoptimised = SqlEngine::with_optimizer(gsn::sql::OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: false,
        });
        let a = optimised.execute(&sql, &catalog).unwrap();
        let b = unoptimised.execute(&sql, &catalog).unwrap();
        prop_assert_eq!(a.rows(), b.rows());
    }

    /// Cursor-executor vs materialised-executor parity on randomly generated plans:
    /// pulling a plan in arbitrary-size batches must yield exactly the rows (and, where
    /// the plan is ordered, exactly the order) of a one-shot materialised execution.
    #[test]
    fn cursor_batches_match_materialised_execution(
        rows in arb_rows(),
        shape in 0usize..6,
        filter in 0usize..4,
        order in 0usize..2,
        limit in prop::option::of(0u64..80),
        offset in 0u64..10,
        batch in 1usize..9,
    ) {
        // Plan shapes pair a projection with compatible ORDER BY choices so every
        // generated query is valid.
        let (projection, orders): (&str, [&str; 2]) = match shape {
            0 => ("*", ["", " order by id"]),
            1 => ("id, room", ["", " order by room desc, id"]),
            2 => ("id, reading * 2 as r2", ["", " order by r2, id"]),
            3 => ("distinct room", ["", " order by room"]),
            4 => ("room, count(*) as n", ["", " order by room"]),
            _ => ("id", ["", " order by id desc"]),
        };
        let filters = ["", " where id > 0", " where flagged = true", " where reading is not null"];
        let mut sql = format!("select {projection} from readings{}", filters[filter]);
        if shape == 4 {
            sql.push_str(" group by room");
        }
        if shape == 5 {
            // A self-join: the probe side streams while the build side is buffered.
            sql = format!(
                "select a.id from readings a join readings b on a.id = b.id{}",
                filters[filter].replace("id", "a.id").replace("flagged", "a.flagged").replace("reading ", "a.reading ")
            );
            sql.push_str(["", " order by a.id desc"][order]);
        } else {
            sql.push_str(orders[order]);
        }
        if let Some(limit) = limit {
            sql.push_str(&format!(" limit {limit}"));
            if offset > 0 {
                sql.push_str(&format!(" offset {offset}"));
            }
        }

        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let reference = engine.execute(&sql, &catalog).unwrap();
        let prepared = engine.prepare(&sql).unwrap();
        let mut source = prepared.open(&catalog).unwrap();
        let mut pulled: Vec<Vec<gsn::types::Value>> = Vec::new();
        loop {
            let chunk = gsn::sql::RowSource::next_batch(&mut source, batch).unwrap();
            if chunk.is_empty() {
                break;
            }
            pulled.extend(chunk);
        }
        prop_assert_eq!(pulled.as_slice(), reference.rows());
        // The scan counter never exceeds the base rows available to the plan.
        let base_rows = rows.len() as u64 * if shape == 5 { 2 } else { 1 };
        prop_assert!(source.rows_scanned() <= base_rows);
        // And with a LIMIT and no ordering/aggregation, the scan early-exits.
        if limit == Some(0) {
            prop_assert_eq!(source.rows_scanned(), 0);
        }
    }

    #[test]
    fn prepared_and_adhoc_execution_agree(rows in arb_rows()) {
        let catalog = build_catalog(&rows);
        let mut engine = SqlEngine::new();
        let sql = "select room, avg(reading) from readings group by room order by room";
        let prepared = engine.prepare(sql).unwrap();
        let via_prepared = engine.execute_prepared(&prepared, &catalog).unwrap();
        let via_adhoc = engine.execute(sql, &catalog).unwrap();
        prop_assert_eq!(via_prepared.rows(), via_adhoc.rows());
    }
}

// ---------------------------------------------------------------------------------------
// Index-path vs full-scan parity over real storage backends
// ---------------------------------------------------------------------------------------

use gsn::storage::{
    CatalogView, LiveCatalog, Retention, StorageManager, StorageOptions, WindowSpec,
};
use gsn::types::{Duration, StreamElement, StreamSchema, Timestamp};
use std::sync::Arc;

/// Which storage backend hosts the generated table: the index pushdown path must be
/// invisible on all of them, including across segment boundaries (tiny segments),
/// retention compaction, and window spill.
#[derive(Debug, Clone, Copy)]
enum BackendCase {
    Memory,
    Durable,
    Spilled,
}

fn arb_backend() -> impl Strategy<Value = BackendCase> {
    prop_oneof![
        Just(BackendCase::Memory),
        Just(BackendCase::Durable),
        Just(BackendCase::Spilled),
    ]
}

fn parity_temp_dir(case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gsn-sqlprop-{}-{:?}-{case}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for random (predicate × projection × limit × window)
    /// queries over random ingest histories on every backend, the optimizer's
    /// index-bounded scan path returns exactly what the unoptimised full-scan path
    /// returns — same rows, same order.
    #[test]
    fn index_path_matches_full_scan_on_real_storage(
        backend in arb_backend(),
        rows in prop::collection::vec((0i64..100, 1i64..40), 30..180),
        prune_to in prop::option::of(20usize..120),
        predicate in 0usize..8,
        projection in 0usize..4,
        limit in prop::option::of(0u64..60),
        window in prop_oneof![
            Just(None),
            (5usize..80).prop_map(|n| Some(WindowSpec::Count(n))),
            (50i64..2_000).prop_map(|ms| Some(WindowSpec::Time(Duration::from_millis(ms)))),
        ],
        bound_a in 0i64..200,
        bound_b in 0i64..200,
        case_tag in 0u64..u64::MAX,
    ) {
        let schema = Arc::new(
            StreamSchema::from_pairs(&[("v", DataType::Integer), ("tag", DataType::Varchar)]).unwrap(),
        );
        let dir = parity_temp_dir(case_tag);
        let storage = match backend {
            BackendCase::Memory => StorageManager::new(),
            BackendCase::Durable => {
                let mut options = StorageOptions::at(&dir);
                // Tiny segments and a tiny pool force many segment boundaries and
                // real page eviction even at proptest row counts.
                options.persistent.segment_pages = 2;
                options.persistent.pool_pages = 4;
                StorageManager::with_options(options)
            }
            BackendCase::Spilled => {
                StorageManager::with_options(StorageOptions::at(&dir).with_window_spill(1_500))
            }
        };
        let retention = match prune_to {
            Some(n) => Retention::Elements(n),
            None => Retention::Unbounded,
        };
        match backend {
            BackendCase::Durable => storage.create_table_durable("t", Arc::clone(&schema), retention).unwrap(),
            _ => storage.create_table("t", Arc::clone(&schema), retention).unwrap(),
        };

        let mut now = Timestamp(0);
        for (v, dt) in &rows {
            now = Timestamp(now.as_millis() + dt);
            let element = StreamElement::new(
                Arc::clone(&schema),
                vec![Value::Integer(*v), Value::varchar(format!("g{}", v % 5))],
                now,
            )
            .unwrap();
            storage.insert("t", element, now).unwrap();
        }
        // Retention pruning (head-segment deletion / compaction on the durable
        // backend, cold-prefix truncation on the spilled one) between ingest and
        // query: the index must track what storage reclaimed.
        storage.prune_all(now);

        let max_ts = now.as_millis();
        let predicates = [
            String::new(),
            format!(" where pk >= {bound_a}"),
            format!(" where pk = {bound_a}"),
            format!(" where pk >= {} and pk <= {}", bound_a.min(bound_b), bound_a.max(bound_b)),
            format!(" where timed >= {}", max_ts - bound_a),
            format!(" where timed >= {} and timed <= {}", max_ts - bound_a.max(bound_b), max_ts - bound_a.min(bound_b)),
            " where v > 40".to_owned(),
            format!(" where pk >= {bound_a} and v % 2 = 0"),
        ];
        let projections = ["*", "v", "pk, v", "timed, v, tag"];
        let mut sql = format!("select {} from w{}", projections[projection], predicates[predicate]);
        if let Some(limit) = limit {
            sql.push_str(&format!(" limit {limit}"));
        }

        let views = [CatalogView::new("w", "t", window.unwrap_or(WindowSpec::Count(usize::MAX)))];
        let catalog = LiveCatalog::new(&storage, &views, now);
        let mut indexed = SqlEngine::new();
        let mut full_scan = SqlEngine::with_optimizer(gsn::sql::OptimizerConfig {
            constant_folding: true,
            predicate_pushdown: false,
        });
        let via_index = indexed.execute(&sql, &catalog).unwrap();
        let reference = full_scan.execute(&sql, &catalog).unwrap();
        prop_assert_eq!(
            via_index.rows(),
            reference.rows(),
            "index path diverged from full scan for `{}` on {:?}",
            sql,
            backend
        );
        prop_assert_eq!(via_index.columns(), reference.columns());

        drop(storage);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------------------
// The table set: every table the executor scans is in `referenced_tables()`
// ---------------------------------------------------------------------------------------

/// A catalog that records the name of every table the executor opens.
struct RecordingCatalog {
    inner: MemoryCatalog,
    scanned: std::cell::RefCell<Vec<String>>,
}

impl gsn::sql::Catalog for RecordingCatalog {
    fn scan(
        &self,
        name: &str,
        spec: &gsn::sql::ScanSpec,
    ) -> gsn::GsnResult<Box<dyn gsn::sql::RowSource>> {
        self.scanned.borrow_mut().push(name.to_ascii_lowercase());
        self.inner.scan(name, spec)
    }
}

/// Draws query text over tables `t0..t3` (columns `id`, `v`) from a list of random
/// choices; an exhausted list picks the simplest form everywhere.
struct ShapeDraw<'a>(std::slice::Iter<'a, u64>);

impl ShapeDraw<'_> {
    fn pick(&mut self, options: u64) -> u64 {
        self.0.next().map_or(0, |c| c % options)
    }

    /// A FROM item: a base table, a join wrapped in a derived table, or a derived table.
    fn from(&mut self, depth: u32) -> String {
        match self.pick(if depth > 0 { 3 } else { 1 }) {
            0 => format!("t{}", self.pick(4)),
            1 => format!(
                "(select x.id, x.v from t{} x join t{} y on x.id = y.id) j",
                self.pick(4),
                self.pick(4)
            ),
            _ => format!(
                "(select id, v from {} where {}) d",
                self.from(depth - 1),
                self.predicate(depth - 1)
            ),
        }
    }

    /// A one-row, one-column subquery.
    fn scalar(&mut self, depth: u32) -> String {
        format!(
            "(select max(v) from {} where {})",
            self.from(depth),
            self.predicate(depth)
        )
    }

    /// A WHERE predicate over `v`, possibly with an IN, EXISTS or scalar subquery.
    fn predicate(&mut self, depth: u32) -> String {
        match self.pick(if depth > 0 { 4 } else { 1 }) {
            0 => "v > 2".to_owned(),
            1 => format!(
                "v in (select v from {} where {})",
                self.from(depth - 1),
                self.predicate(depth - 1)
            ),
            2 => format!(
                "exists (select 1 from {} where {})",
                self.from(depth - 1),
                self.predicate(depth - 1)
            ),
            _ => format!("v <= {}", self.scalar(depth - 1)),
        }
    }

    /// A two-column SELECT body with subqueries in WHERE, the projection or HAVING.
    fn body(&mut self, depth: u32) -> String {
        let from = self.from(depth);
        match self.pick(3) {
            0 => format!("select id, v from {from} where {}", self.predicate(depth)),
            1 => format!(
                "select id, {} from {from} where {}",
                self.scalar(depth - 1),
                self.predicate(depth)
            ),
            _ => {
                let having = match self.pick(3) {
                    0 => "count(*) > 0".to_owned(),
                    1 => format!("count(*) in (select v from {})", self.from(depth - 1)),
                    _ => format!("max(v) >= {}", self.scalar(depth - 1)),
                };
                format!("select id, count(*) from {from} group by id having {having}")
            }
        }
    }

    fn query(&mut self) -> String {
        let first = self.body(2);
        match self.pick(5) {
            0 => format!("{first} union {}", self.body(2)),
            1 => format!("{first} union all {}", self.body(2)),
            2 => format!("{first} except {}", self.body(2)),
            3 => format!("{first} intersect {}", self.body(2)),
            _ => first,
        }
    }
}

fn table_set_catalog(rows: &[(i64, i64)]) -> RecordingCatalog {
    let columns = vec![
        ColumnInfo::new(None, "id", Some(DataType::Integer)),
        ColumnInfo::new(None, "v", Some(DataType::Integer)),
    ];
    let mut inner = MemoryCatalog::new();
    for t in 0..4i64 {
        let data = rows
            .iter()
            .filter(|(id, _)| id % 4 != t)
            .map(|(id, v)| vec![Value::Integer(*id), Value::Integer(*v)])
            .collect();
        inner.register(
            &format!("t{t}"),
            Relation::with_rows(columns.clone(), data).unwrap(),
        );
    }
    RecordingCatalog {
        inner,
        scanned: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The executor never reads a table outside the query's table set, whatever the
    /// query's shape: access checks, registered-query indexing and federated
    /// row-shipping all trust that set.
    #[test]
    fn executor_scans_only_the_referenced_tables(
        rows in prop::collection::vec((0i64..12, 0i64..6), 0..16),
        choices in prop::collection::vec(0u64..1_000, 0..48),
    ) {
        let sql = ShapeDraw(choices.iter()).query();
        let catalog = table_set_catalog(&rows);
        let prepared = SqlEngine::new().prepare(&sql).unwrap();
        prepared.execute(&catalog).unwrap();
        let referenced = prepared.referenced_tables();
        for name in catalog.scanned.borrow().iter() {
            prop_assert!(
                referenced.contains(name),
                "`{}` scanned `{}` outside its table set {:?}",
                sql,
                name,
                referenced
            );
        }
    }
}
