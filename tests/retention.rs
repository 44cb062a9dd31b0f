//! The storage lifecycle subsystem, end to end: bounded on-disk footprint under
//! continuous ingest, delta-cursor stability under concurrent segment reclamation,
//! and disk-spilled windows answering exactly like all-memory ones.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gsn::container::ContainerConfig;
use gsn::storage::testutil::wal_set;
use gsn::storage::{
    CatalogView, LiveCatalog, PersistentOptions, Retention, ScanBounds, SpillOptions,
    StorageManager, StreamTable, WindowSpec,
};
use gsn::types::{
    DataType, Duration, SimulatedClock, StreamElement, StreamSchema, Timestamp, Value,
};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::GsnContainer;
use proptest::prelude::*;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Reads `window` at `now` with `bounds`, as `(PK, TIMED, values)` rows.
fn read(
    table: &StreamTable,
    window: WindowSpec,
    now: Timestamp,
    bounds: &ScanBounds,
) -> Vec<(u64, Timestamp, Vec<Value>)> {
    table
        .scan(window, now, bounds)
        .unwrap()
        .iter()
        .map(|e: &StreamElement| (e.sequence(), e.timestamp(), e.values().to_vec()))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "gsn-retention-test-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn schema() -> Arc<StreamSchema> {
    Arc::new(
        StreamSchema::from_pairs(&[("v", DataType::Integer), ("payload", DataType::Binary)])
            .unwrap(),
    )
}

fn insert(table: &mut StreamTable, v: i64, ts: i64, payload: usize) {
    table
        .insert_values(
            vec![Value::Integer(v), Value::binary(vec![v as u8; payload])],
            Timestamp(ts),
        )
        .unwrap();
}

// ---------------------------------------------------------------------------------------
// Acceptance: bounded durable tables keep a bounded disk footprint
// ---------------------------------------------------------------------------------------

/// A bounded durable table under continuous ingest, with the maintenance pass running
/// periodically, keeps its on-disk footprint within 2 segments of its live data — the
/// file no longer grows forever.
#[test]
fn bounded_durable_table_footprint_stays_within_two_segments_of_live() {
    let dir = temp_dir("bounded-footprint");
    let mut table = StreamTable::persistent(
        "bounded",
        schema(),
        Retention::Elements(500),
        &dir,
        wal_set(&dir),
        PersistentOptions {
            segment_pages: 4,
            pool_pages: 8,
            ..Default::default()
        },
    )
    .unwrap();

    let mut reclaimed = 0u64;
    for i in 1..=20_000i64 {
        insert(&mut table, i, i, 64);
        if i % 500 == 0 {
            reclaimed += table.reclaim().unwrap().bytes_reclaimed;
            let usage = table.disk_usage().unwrap();
            assert!(
                usage.total_segments <= usage.live_segments + 2,
                "footprint drifted at row {i}: {} segments on disk, {} live",
                usage.total_segments,
                usage.live_segments
            );
        }
    }
    assert!(reclaimed > 0, "maintenance must actually free file bytes");
    let usage = table.disk_usage().unwrap();
    assert!(usage.reclaimed_segments > 10, "{usage:?}");

    // Retention and reclamation never touched the live tail.
    let tail = table
        .scan(
            WindowSpec::Count(500),
            Timestamp::MAX,
            &ScanBounds::default(),
        )
        .unwrap();
    assert_eq!(tail.len(), 500);
    assert_eq!(
        tail.last().unwrap().value("V"),
        Some(Value::Integer(20_000))
    );
    assert_eq!(
        tail.first().unwrap().value("V"),
        Some(Value::Integer(19_501))
    );
}

// ---------------------------------------------------------------------------------------
// Delta cursors vs concurrent reclamation
// ---------------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A delta cursor opened over a bounded durable table keeps yielding exactly the
    /// expected suffix while head segments are deleted and the boundary segment is
    /// compacted *between its pulls*.
    #[test]
    fn delta_cursor_parity_under_concurrent_compaction(
        rows in 80i64..300,
        keep in 20usize..60,
        payload in 8usize..96,
        segment_pages in 1u32..5,
        after_offset in 0u64..40,
        reclaim_every in 1usize..4,
    ) {
        let dir = temp_dir("delta-compaction");
        let mut table = StreamTable::persistent(
            "t",
            schema(),
            Retention::Elements(keep),
            &dir,
            wal_set(&dir),
            PersistentOptions {
                segment_pages,
                pool_pages: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 1..=rows {
            insert(&mut table, i, i, payload);
        }
        // Retention already pruned on insert (page-granular); the oldest live row may
        // sit below `keep` rows from the end.
        let first_live = table.first_live_sequence().unwrap().unwrap();
        let after = first_live.saturating_add(after_offset).min(rows as u64);
        let expected: Vec<i64> = ((after + 1) as i64..=rows).collect();

        let delta = ScanBounds {
            min_seq: Some(after + 1),
            ..ScanBounds::default()
        };
        let mut scan = table
            .open_scan(WindowSpec::Count(usize::MAX), Timestamp::MAX, &delta)
            .unwrap();
        let mut got: Vec<i64> = Vec::new();
        let mut pulls = 0usize;
        while let Some(batch) = table.scan_next(&mut scan).unwrap() {
            got.extend(batch.iter().map(|e| e.value("V").unwrap().as_integer().unwrap()));
            pulls += 1;
            if pulls.is_multiple_of(reclaim_every) {
                // Reclaim dead segments mid-scan: deletion and compaction move live
                // rows to fresh pages, but never renumber them.
                table.reclaim().unwrap();
            }
        }
        prop_assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A disk-spilled window answers every declared window exactly like an all-memory
    /// table fed the same elements.
    #[test]
    fn spilled_window_matches_all_memory_queries(
        rows in 50i64..400,
        payload in 8usize..128,
        budget in 512usize..4_096,
        horizon_ms in 50i64..4_000,
    ) {
        let dir = temp_dir("spill-parity");
        let retention = Retention::Horizon(Duration::from_millis(horizon_ms));
        let mut mem = StreamTable::new("w", schema(), retention);
        let mut spilled = StreamTable::spilling(
            "w",
            schema(),
            retention,
            &dir,
            SpillOptions {
                budget_bytes: budget,
                persistent: PersistentOptions {
                    segment_pages: 2,
                    pool_pages: 4,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        for i in 1..=rows {
            insert(&mut mem, i, i * 10, payload);
            insert(&mut spilled, i, i * 10, payload);
        }
        let now = Timestamp(rows * 10);
        for window in [
            WindowSpec::Time(Duration::from_millis(horizon_ms)),
            WindowSpec::Time(Duration::from_millis(horizon_ms / 2 + 1)),
            WindowSpec::Count(1),
            WindowSpec::LatestOnly,
        ] {
            let bounds = ScanBounds::default();
            let a = read(&mem, window, now, &bounds);
            prop_assert!(!a.is_empty());
            prop_assert_eq!(a, read(&spilled, window, now, &bounds), "window {:?}", window);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------------------
// Spilled windows at the manager level: bounded memory, correct SQL
// ---------------------------------------------------------------------------------------

/// A large time window spilled to disk queries correctly through SQL while the shared
/// buffer pool stays within its page budget (the scaled-down version of the 1M-row
/// acceptance scenario; the `retention` bench runs the full-size one).
#[test]
fn spilled_time_window_queries_in_bounded_memory() {
    let dir = temp_dir("spill-bounded");
    let pool_pages = 8;
    let storage = StorageManager::with_options(gsn::storage::StorageOptions {
        data_dir: Some(dir.clone()),
        persistent: PersistentOptions {
            pool_pages,
            ..Default::default()
        },
        window_spill_bytes: Some(16 * 1024),
    });
    let schema = schema();
    storage
        .create_table(
            "window30d",
            Arc::clone(&schema),
            Retention::Horizon(Duration::from_hours(1)),
        )
        .unwrap();
    let total: i64 = 30_000;
    for i in 1..=total {
        let e = gsn::types::StreamElement::new(
            Arc::clone(&schema),
            vec![Value::Integer(i), Value::binary(vec![1u8; 64])],
            Timestamp(i),
        )
        .unwrap();
        storage.insert("window30d", e, Timestamp(i)).unwrap();
    }
    let stats = storage.stats();
    assert_eq!(stats.spilled_tables, 1);
    assert!(
        stats.disk.on_disk_bytes > 0,
        "the window must actually have spilled"
    );
    assert!(stats.pool.resident_pages <= pool_pages);

    let views = [CatalogView::new(
        "w",
        "window30d",
        WindowSpec::Time(Duration::from_hours(1)),
    )];
    let catalog = LiveCatalog::new(&storage, &views, Timestamp(total));
    let mut engine = gsn::sql::SqlEngine::new();
    let n = engine
        .execute_scalar("select count(*) from w", &catalog)
        .unwrap();
    assert_eq!(n, Value::Integer(total));
    let edges = engine
        .execute("select min(v) as lo, max(v) as hi from w", &catalog)
        .unwrap();
    assert_eq!(edges.rows()[0][0], Value::Integer(1));
    assert_eq!(edges.rows()[0][1], Value::Integer(total));

    let stats = storage.stats();
    assert!(
        stats.pool.resident_pages <= pool_pages,
        "scan blew the pool budget: {} > {pool_pages}",
        stats.pool.resident_pages
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------------------
// Container level: spilling stays transparent and deterministic
// ---------------------------------------------------------------------------------------

fn mote_descriptor(name: &str, seed: u32) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .output_field("avg_temp", DataType::Double)
        .unwrap()
        .input_stream(
            InputStreamSpec::new("main", "select * from src1").with_source(
                StreamSourceSpec::new(
                    "src1",
                    AddressSpec::new("mote")
                        .with_predicate("interval", "100")
                        .with_predicate("seed", &seed.to_string()),
                    "select avg(temperature) as avg_temp from WRAPPER",
                )
                .with_window(WindowSpec::Time(Duration::from_secs(30))),
            ),
        )
        .build()
        .unwrap()
}

fn run_spill_workload(spill: bool) -> Vec<Vec<Vec<Value>>> {
    let clock = SimulatedClock::new();
    let mut config = ContainerConfig::default();
    if spill {
        let dir = temp_dir("spill-container");
        config = config.with_data_dir(dir).with_window_spill(2 * 1024);
        config.maintenance_interval_steps = 2;
    }
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    let names: Vec<String> = (0..6).map(|i| format!("mote-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        node.deploy(mote_descriptor(name, i as u32)).unwrap();
    }
    for _ in 0..5 {
        clock.advance(Duration::from_secs(1));
        node.step();
    }
    if spill {
        assert!(
            node.storage().stats().spilled_tables > 0,
            "spill workload must actually create spill-capable tables"
        );
    }
    names
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
        .collect()
}

/// Turning window spilling on changes nothing observable: every sensor's output table
/// is byte-identical to the all-memory run, and a second spilled run repeats the first.
#[test]
fn spilled_windows_are_transparent_and_worker_deterministic() {
    let baseline = run_spill_workload(false);
    let spilled = run_spill_workload(true);
    assert_eq!(baseline, spilled, "spilling changed query results");
    assert_eq!(
        spilled,
        run_spill_workload(true),
        "two spilled runs diverged"
    );
}

/// The maintenance pass scheduled by the container step loop reclaims space for
/// bounded durable tables without disturbing their queryable history.
#[test]
fn container_maintenance_reclaims_bounded_durable_tables() {
    let dir = temp_dir("container-maintenance");
    let clock = SimulatedClock::new();
    let mut config = ContainerConfig::default().with_data_dir(&dir);
    config.storage_segment_pages = 2;
    config.maintenance_interval_steps = 1;
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    let descriptor = VirtualSensorDescriptor::builder("rolling")
        .unwrap()
        .output_field("avg_temp", DataType::Double)
        .unwrap()
        .storage_backend(gsn::xml::StorageBackendChoice::Disk)
        .output_history(WindowSpec::Count(40))
        .input_stream(
            InputStreamSpec::new("main", "select * from src1").with_source(
                StreamSourceSpec::new(
                    "src1",
                    AddressSpec::new("mote").with_predicate("interval", "50"),
                    "select avg(temperature) as avg_temp from WRAPPER",
                )
                .with_window(WindowSpec::Count(10)),
            ),
        )
        .build()
        .unwrap();
    node.deploy(descriptor).unwrap();
    for _ in 0..40 {
        clock.advance(Duration::from_secs(1));
        node.step();
    }
    let report = node.maintain_storage();
    assert!(report.ran);
    let stats = node.storage().stats();
    assert!(
        stats.maintenance.passes > 1,
        "step loop must schedule maintenance: {:?}",
        stats.maintenance
    );
    assert!(
        stats.disk.reclaimed_bytes > 0,
        "bounded durable table never reclaimed: {:?}",
        stats.disk
    );
    let usage = &stats
        .tables_on_disk
        .iter()
        .find(|t| t.name == "rolling")
        .expect("rolling table reports disk usage")
        .usage;
    assert!(usage.total_segments <= usage.live_segments + 2, "{usage:?}");

    // The status render surfaces the per-table footprint and reclamation counters.
    let rendered = node.status().render();
    assert!(rendered.contains("table rolling:"), "{rendered}");
    assert!(rendered.contains("segments live"), "{rendered}");
    assert!(rendered.contains("maintenance:"), "{rendered}");

    // History is intact: the newest 40 outputs are queryable, sequences contiguous.
    let rows = node
        .query("select count(*) as n, max(pk) as maxpk from rolling")
        .unwrap();
    let n = rows.rows()[0][0].as_integer().unwrap();
    let maxpk = rows.rows()[0][1].as_integer().unwrap();
    assert!(n >= 40, "history lost: {n}");
    assert_eq!(maxpk as u64, node.status().sensors[0].stats.outputs);
    drop(node);
    std::fs::remove_dir_all(&dir).ok();
}
