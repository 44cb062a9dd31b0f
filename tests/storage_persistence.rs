//! Property and integration tests for the persistent storage engine: codec round-trips,
//! buffer-pool invariants, and container-level restart recovery.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gsn::container::ContainerConfig;
use gsn::storage::testutil::wal_set;
use gsn::storage::{
    CatalogView, LiveCatalog, Page, PageIo, PersistentOptions, Retention, ScanBounds,
    SharedBufferPool, StorageManager, StorageOptions, StreamTable, SyncMode, WindowSpec,
};
use gsn::types::{
    codec, DataType, Duration, SimulatedClock, StreamElement, StreamSchema, Timestamp, Value,
};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::{GsnContainer, GsnError, GsnResult};
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
        .map(|e| (e.sequence(), e.timestamp(), e.values().to_vec()))
        .collect()
}

/// Every retained element's `V`, oldest first.
fn all_v(table: &StreamTable) -> Vec<i64> {
    table
        .scan(
            WindowSpec::Count(usize::MAX),
            Timestamp::MAX,
            &ScanBounds::default(),
        )
        .unwrap()
        .iter()
        .map(|e| e.value("V").unwrap().as_integer().unwrap())
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gsn-persist-test-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

// ---------------------------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------------------------

/// An arbitrary value of every GSN type (index selects the variant).
fn arb_value() -> impl Strategy<Value = (u32, i64, f64, String, bool)> {
    (
        0u32..7,
        -1_000_000i64..1_000_000,
        -1e9f64..1e9,
        "[a-z0-9]{0,12}",
        prop::bool::ANY,
    )
}

fn materialize_value((variant, i, d, s, b): &(u32, i64, f64, String, bool)) -> Value {
    match variant {
        0 => Value::Null,
        1 => Value::Integer(*i),
        2 => Value::Double(*d),
        3 => Value::varchar(s.clone()),
        4 => Value::Boolean(*b),
        5 => Value::binary(s.clone().into_bytes()),
        _ => Value::Timestamp(Timestamp(*i)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn values_round_trip_through_the_codec(raw in prop::collection::vec(arb_value(), 0..20)) {
        let values: Vec<Value> = raw.iter().map(materialize_value).collect();
        let mut bytes = Vec::new();
        for value in &values {
            codec::encode_value(&mut bytes, value);
        }
        let mut cursor: &[u8] = &bytes;
        for value in &values {
            let decoded = codec::decode_value(&mut cursor).unwrap();
            prop_assert_eq!(&decoded, value);
        }
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn rows_round_trip_through_the_codec(
        ints in prop::collection::vec(-1_000i64..1_000, 1..8),
        ts in 0i64..1_000_000,
        seq in 1u64..1_000_000,
    ) {
        let pairs: Vec<(String, DataType)> = (0..ints.len())
            .map(|i| (format!("f{i}"), DataType::Integer))
            .collect();
        let borrowed: Vec<(&str, DataType)> =
            pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let schema = Arc::new(StreamSchema::from_pairs(&borrowed).unwrap());
        let element = StreamElement::new(
            Arc::clone(&schema),
            ints.iter().copied().map(Value::Integer).collect(),
            Timestamp(ts),
        )
        .unwrap()
        .with_sequence(seq);
        let bytes = codec::encode_row(&element);
        let mut cursor: &[u8] = &bytes;
        let decoded = codec::decode_row(&mut cursor, &schema).unwrap();
        prop_assert!(cursor.is_empty());
        prop_assert_eq!(&decoded, &element);
        prop_assert_eq!(decoded.sequence(), seq);
    }

    #[test]
    fn pages_round_trip_records(payload_lens in prop::collection::vec(0usize..300, 1..40)) {
        let mut page = Page::new();
        let mut stored: Vec<Vec<u8>> = Vec::new();
        for (i, len) in payload_lens.iter().enumerate() {
            let record = vec![(i % 251) as u8; *len];
            if page.fits(&record) {
                page.append(&record).unwrap();
                stored.push(record);
            }
        }
        let restored = Page::from_bytes(*page.as_bytes()).unwrap();
        prop_assert_eq!(restored.record_count(), stored.len());
        for (slot, record) in stored.iter().enumerate() {
            prop_assert_eq!(restored.record(slot).unwrap(), &record[..]);
        }
    }
}

// ---------------------------------------------------------------------------------------
// Buffer-pool invariants
// ---------------------------------------------------------------------------------------

/// An in-memory "disk" for exercising the pool; cloneable so a test keeps a handle to
/// the half that was boxed into the pool.
#[derive(Default, Clone)]
struct FakeDisk {
    pages: Arc<std::sync::Mutex<std::collections::HashMap<u32, Page>>>,
}

impl FakeDisk {
    fn page(&self, id: u32) -> Option<Page> {
        self.pages.lock().unwrap().get(&id).cloned()
    }
}

impl PageIo for FakeDisk {
    fn read_page(&mut self, id: u32) -> GsnResult<Page> {
        Ok(self.pages.lock().unwrap().entry(id).or_default().clone())
    }

    fn write_page(&mut self, id: u32, page: &Page) -> GsnResult<()> {
        self.pages.lock().unwrap().insert(id, page.clone());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random access pattern with random pins: resident pages never exceed capacity and
    /// pinned pages are never evicted.
    #[test]
    fn buffer_pool_invariants_hold(
        capacity in 1usize..8,
        ops in prop::collection::vec((0u32..32, prop::bool::ANY), 1..200),
    ) {
        let pool = SharedBufferPool::new(capacity);
        let table = pool.register_table(Box::new(FakeDisk::default()));
        let mut pinned: Vec<u32> = Vec::new();
        for (page_id, pin) in ops {
            if pin && pinned.len() < capacity - 1 + usize::from(capacity == 1) {
                if pool.pin(table, page_id).is_ok() && !pinned.contains(&page_id) {
                    pinned.push(page_id);
                } else if pinned.contains(&page_id) {
                    // Double pin: release one immediately to keep bookkeeping simple.
                    pool.unpin(table, page_id, false);
                }
            } else {
                // Plain access; may evict an unpinned page.
                let _ = pool.with_page(table, page_id, |_| ());
            }
            prop_assert!(pool.resident_pages() <= capacity);
            for p in &pinned {
                prop_assert!(pool.pin_count(table, *p) > 0, "pinned page {p} lost its pin");
            }
        }
        // Every pinned page is still resident: accessing it costs no disk read.
        let misses_before = pool.stats().misses;
        for p in &pinned {
            pool.with_page(table, *p, |_| ()).unwrap();
        }
        prop_assert_eq!(pool.stats().misses, misses_before);
        for p in pinned {
            pool.unpin(table, p, false);
        }
    }

    /// Concurrent ingest into one shared pool: four threads, each with its own table,
    /// hammer reads/writes/pins at once.  The global budget is never exceeded, a thread's
    /// pinned page keeps its pin under cross-table eviction pressure, and every append
    /// survives to the (fake) disk.
    #[test]
    fn shared_pool_invariants_hold_under_contention(
        capacity in 6usize..16,
        seeds in prop::collection::vec(0u64..u64::MAX, 4..5),
        ops_per_thread in 50usize..200,
    ) {
        let pool = Arc::new(SharedBufferPool::new(capacity));
        let mut handles = Vec::new();
        for seed in seeds {
            let disk = FakeDisk::default();
            let table = pool.register_table(Box::new(disk.clone()));
            let pool = Arc::clone(&pool);
            // The property under test needs other threads.
            #[allow(clippy::disallowed_methods)]
            handles.push(std::thread::spawn(move || -> Result<(), String> {
                let mut rng = seed | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut appended = [0usize; 8];
                for _ in 0..ops_per_thread {
                    let page_id = (next() % 8) as u32;
                    match next() % 3 {
                        0 => {
                            let ok = pool
                                .with_page_mut(table, page_id, |p| p.append(b"x").is_some())
                                .map_err(|e| e.to_string())?;
                            if ok {
                                appended[page_id as usize] += 1;
                            }
                        }
                        1 => {
                            pool.with_page(table, page_id, |_| ()).map_err(|e| e.to_string())?;
                        }
                        _ => {
                            // Pin, verify the pin sticks while others evict, unpin.
                            if pool.pin(table, page_id).is_ok() {
                                pool.with_page(table, (next() % 8) as u32, |_| ()).ok();
                                if pool.pin_count(table, page_id) == 0 {
                                    return Err(format!("pinned page {page_id} lost its pin"));
                                }
                                pool.unpin(table, page_id, false);
                            }
                        }
                    }
                    let resident = pool.resident_pages();
                    if resident > capacity {
                        return Err(format!("resident {resident} exceeds capacity {capacity}"));
                    }
                }
                // Integrity: everything this thread appended reaches its own disk.
                pool.flush_table(table).map_err(|e| e.to_string())?;
                for (page_id, count) in appended.iter().enumerate() {
                    if *count == 0 {
                        continue;
                    }
                    let on_disk = disk
                        .page(page_id as u32)
                        .map(|p| p.record_count())
                        .unwrap_or(0);
                    if on_disk != *count {
                        return Err(format!(
                            "page {page_id}: {on_disk} records on disk, {count} appended"
                        ));
                    }
                }
                Ok(())
            }));
        }
        for handle in handles {
            let outcome = handle.join().expect("worker panicked");
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
        prop_assert!(pool.resident_pages() <= capacity);
    }

    /// A persistent table scanned under a tiny pool returns exactly the same windows as
    /// an in-memory table fed the same data.
    #[test]
    fn persistent_windows_equal_memory_windows(
        values in prop::collection::vec(-500i64..500, 1..120),
        window_count in 1usize..60,
        span in 1i64..2_000,
        pool_pages in 1usize..4,
    ) {
        let dir = temp_dir("prop-windows");
        let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
        let mut mem = StreamTable::new("t", Arc::clone(&schema), Retention::Unbounded);
        let mut per = StreamTable::persistent(
            "t",
            Arc::clone(&schema),
            Retention::Unbounded,
            &dir,
            wal_set(&dir),
            PersistentOptions { pool_pages, ..Default::default() },
        )
        .unwrap();
        for (i, v) in values.iter().enumerate() {
            let ts = Timestamp((i as i64 + 1) * 10);
            mem.insert_values(vec![Value::Integer(*v)], ts).unwrap();
            per.insert_values(vec![Value::Integer(*v)], ts).unwrap();
        }
        let now = Timestamp(values.len() as i64 * 10);
        for window in [
            WindowSpec::Count(window_count),
            WindowSpec::LatestOnly,
            WindowSpec::Time(Duration::from_millis(span)),
        ] {
            let bounds = ScanBounds::default();
            let a = read(&mem, window, now, &bounds);
            prop_assert!(!a.is_empty());
            prop_assert_eq!(a, read(&per, window, now, &bounds), "window {:?}", window);
        }
        if let Some(pool) = per.pool_stats() {
            prop_assert!(pool.resident_pages <= pool_pages);
        }
        drop(per);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------------------
// Restart recovery, end to end
// ---------------------------------------------------------------------------------------

fn permanent_descriptor(name: &str) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .output_field("avg_temp", DataType::Double)
        .unwrap()
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src1").with_source(
                StreamSourceSpec::new(
                    "src1",
                    AddressSpec::new("mote").with_predicate("interval", "100"),
                    "select avg(temperature) as avg_temp from WRAPPER",
                )
                .with_window(WindowSpec::Count(10)),
            ),
        )
        .build()
        .unwrap()
}

/// The acceptance scenario: a container with a `permanent-storage="true"` virtual sensor
/// is dropped and re-opened on the same data directory; SQL over the recovered table
/// returns the pre-restart history.
#[test]
fn container_restart_recovers_permanent_history() {
    let dir = temp_dir("container-restart");
    let config = ContainerConfig::default().with_data_dir(&dir);

    // First incarnation: produce 10 outputs, then drop the container.
    {
        let clock = SimulatedClock::new();
        let mut node = GsnContainer::new(config.clone(), Arc::new(clock.clone()));
        node.deploy(permanent_descriptor("room-temp")).unwrap();
        clock.advance(Duration::from_secs(1));
        let report = node.step();
        assert_eq!(report.outputs, 10);
        let n = node.query("select count(*) as n from room_temp").unwrap();
        assert_eq!(n.rows()[0][0], Value::Integer(10));
    }

    // Second incarnation on the same directory: history is back before any new data.
    let clock = SimulatedClock::new();
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    node.deploy(permanent_descriptor("room-temp")).unwrap();
    let n = node.query("select count(*) as n from room_temp").unwrap();
    assert_eq!(
        n.rows()[0][0],
        Value::Integer(10),
        "pre-restart history lost"
    );

    // New production continues the stream: sequences keep growing past the old ones.
    clock.advance(Duration::from_secs(1));
    node.step();
    let n = node
        .query("select count(*) as n, max(pk) as maxpk from room_temp")
        .unwrap();
    assert_eq!(n.rows()[0][0], Value::Integer(20));
    assert_eq!(n.rows()[0][1], Value::Integer(20));

    drop(node);
    std::fs::remove_dir_all(&dir).ok();
}

/// Restart recovery with *stale and missing* index sidecars: a clean shutdown writes
/// one `.idx` sidecar per sealed segment; if a sidecar is then corrupted or deleted,
/// the next recovery must fall back to the page-walk rebuild for that segment (same
/// contents, same sequence numbering), and the following checkpoint must restore the
/// full sidecar set.
#[test]
fn restart_survives_stale_and_missing_index_sidecars() {
    let dir = temp_dir("index-sidecars");
    let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
    let options = PersistentOptions {
        segment_pages: 2,
        pool_pages: 4,
        ..Default::default()
    };
    {
        let mut table = StreamTable::persistent(
            "idx",
            Arc::clone(&schema),
            Retention::Unbounded,
            &dir,
            wal_set(&dir),
            options.clone(),
        )
        .unwrap();
        for i in 1..=2_000i64 {
            table
                .insert_values(vec![Value::Integer(i)], Timestamp(i))
                .unwrap();
        }
    } // clean shutdown: checkpoint writes the sidecars

    let sidecars = |dir: &std::path::Path| -> Vec<PathBuf> {
        let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "idx"))
            .collect();
        found.sort();
        found
    };
    let written = sidecars(&dir);
    assert!(
        written.len() >= 2,
        "expected sidecars for several sealed segments, found {written:?}"
    );

    // Make one sidecar stale (bit flip breaks its CRC) and delete another.
    let mut bytes = std::fs::read(&written[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&written[0], &bytes).unwrap();
    std::fs::remove_file(&written[1]).unwrap();
    let damaged_count = sidecars(&dir).len();

    {
        let table = StreamTable::persistent(
            "idx",
            Arc::clone(&schema),
            Retention::Unbounded,
            &dir,
            wal_set(&dir),
            options.clone(),
        )
        .unwrap();
        assert_eq!(table.last_sequence(), 2_000);
        assert_eq!(
            all_v(&table),
            (1..=2_000).collect::<Vec<i64>>(),
            "stale/missing sidecars must not change the recovered history"
        );
        // Index-bounded scans still work against the rebuilt in-memory index.
        let bounds = ScanBounds {
            min_seq: Some(1_500),
            max_seq: Some(1_510),
            ..Default::default()
        };
        let bounded: Vec<u64> = read(
            &table,
            WindowSpec::Count(usize::MAX),
            Timestamp::MAX,
            &bounds,
        )
        .iter()
        .map(|row| row.0)
        .collect();
        assert_eq!(bounded, (1_500..=1_510).collect::<Vec<u64>>());
    } // checkpoint again: the stale and missing sidecars are rewritten

    assert!(
        sidecars(&dir).len() > damaged_count,
        "checkpoint must restore the deleted sidecar"
    );
    // Third open: everything valid again, contents still exact.
    let table = StreamTable::persistent(
        "idx",
        Arc::clone(&schema),
        Retention::Unbounded,
        &dir,
        wal_set(&dir),
        options,
    )
    .unwrap();
    assert_eq!(table.last_sequence(), 2_000);
    assert_eq!(table.len(), 2_000);

    drop(table);
    std::fs::remove_dir_all(&dir).ok();
}

/// Restart recovery across a *segment-truncation* boundary: a bounded durable table
/// whose head segments were deleted (and boundary segment compacted) by the
/// maintenance pass recovers exactly its surviving rows, with sequence numbering
/// continuing where it stopped — the segment headers' `first_row` anchors survive the
/// reclamation.
#[test]
fn restart_recovers_across_a_segment_truncation_boundary() {
    let dir = temp_dir("segment-truncation-restart");
    let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
    let options = PersistentOptions {
        segment_pages: 2,
        pool_pages: 4,
        ..Default::default()
    };
    let (oldest_live, reclaimed) = {
        let mut table = StreamTable::persistent(
            "truncated",
            Arc::clone(&schema),
            Retention::Elements(60),
            &dir,
            wal_set(&dir),
            options.clone(),
        )
        .unwrap();
        for i in 1..=2_000i64 {
            table
                .insert_values(vec![Value::Integer(i)], Timestamp(i))
                .unwrap();
        }
        let stats = table.reclaim().unwrap();
        assert!(stats.segments_deleted > 0, "{stats:?}");
        (
            table.first_live_sequence().unwrap().unwrap(),
            stats.bytes_reclaimed,
        )
    }; // drop checkpoints
    assert!(reclaimed > 0);

    let mut table = StreamTable::persistent(
        "truncated",
        Arc::clone(&schema),
        Retention::Elements(60),
        &dir,
        wal_set(&dir),
        options,
    )
    .unwrap();
    assert_eq!(table.last_sequence(), 2_000);
    assert_eq!(table.first_live_sequence().unwrap(), Some(oldest_live));
    assert_eq!(
        all_v(&table),
        (oldest_live as i64..=2_000).collect::<Vec<i64>>(),
        "recovered history must be the exact surviving suffix"
    );
    // Delta cursors resume with the exact sequence→row mapping after the restart.
    let after = ScanBounds {
        min_seq: Some(1_991),
        ..Default::default()
    };
    let resumed: Vec<u64> = read(
        &table,
        WindowSpec::Count(usize::MAX),
        Timestamp::MAX,
        &after,
    )
    .iter()
    .map(|row| row.0)
    .collect();
    assert_eq!(resumed, (1_991..=2_000).collect::<Vec<u64>>());
    // And ingest continues the numbering.
    let e = table
        .insert_values(vec![Value::Integer(2_001)], Timestamp(2_001))
        .unwrap();
    assert_eq!(e.sequence(), 2_001);
    drop(table);
    std::fs::remove_dir_all(&dir).ok();
}

/// Without a data directory, `permanent-storage="true"` behaves like the seed: memory
/// only, nothing recovered after a restart.
#[test]
fn without_data_dir_history_stays_in_memory() {
    {
        let clock = SimulatedClock::new();
        let mut node = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
        node.deploy(permanent_descriptor("volatile")).unwrap();
        clock.advance(Duration::from_secs(1));
        node.step();
        assert_eq!(node.storage().stats().persistent_tables, 0);
    }
    let clock = SimulatedClock::new();
    let mut node = GsnContainer::new(ContainerConfig::default(), Arc::new(clock));
    node.deploy(permanent_descriptor("volatile")).unwrap();
    let n = node.query("select count(*) as n from volatile").unwrap();
    assert_eq!(n.rows()[0][0], Value::Integer(0));
}

/// What one container run shows from the outside.
#[derive(Debug, PartialEq)]
struct ObservedRun {
    /// One report per step, `processing_micros` zeroed (it is wall-clock).
    reports: Vec<gsn::StepReport>,
    /// Per sensor: the output table as (pk, avg_temp) rows.
    tables: Vec<Vec<(Value, Value)>>,
    /// Per sensor: the notified AVG_TEMP values, in delivery order.
    notifications: Vec<Vec<Value>>,
}

/// Twelve `permanent-storage` motes at varied rates, each with a subscription and a
/// registered query over its own output, stepped six times — with durable storage
/// under `data_dir`, or in memory without one.
fn run_observed_workload(data_dir: Option<PathBuf>) -> ObservedRun {
    const SENSORS: usize = 12;
    let clock = SimulatedClock::new();
    let mut config = ContainerConfig::default();
    if let Some(dir) = data_dir {
        config = config.with_data_dir(dir);
    }
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    let names: Vec<String> = (0..SENSORS).map(|i| format!("mote-{i}")).collect();
    let mut receivers = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let interval = 100 + 50 * (i % 4);
        let descriptor = VirtualSensorDescriptor::builder(name)
            .unwrap()
            .output_field("avg_temp", DataType::Double)
            .unwrap()
            .permanent_storage(true)
            .input_stream(
                InputStreamSpec::new("main", "select * from src1").with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("mote")
                            .with_predicate("interval", &interval.to_string())
                            .with_predicate("seed", &i.to_string()),
                        "select avg(temperature) as avg_temp from WRAPPER",
                    )
                    .with_window(WindowSpec::Count(10)),
                ),
            )
            .build()
            .unwrap();
        node.deploy(descriptor).unwrap();
        receivers.push(node.subscribe(name).unwrap().1);
        node.register_query(
            &format!("client-{i}"),
            &format!("select avg(avg_temp) as a from {}", name.replace('-', "_")),
            WindowSpec::Count(20),
            None,
        )
        .unwrap();
    }
    let reports = (0..6)
        .map(|_| {
            clock.advance(Duration::from_secs(1));
            let mut report = node.step();
            report.processing_micros = 0;
            report
        })
        .collect();
    let tables = names
        .iter()
        .map(|name| {
            let sql = format!("select pk, avg_temp from {}", name.replace('-', "_"));
            node.query(&sql)
                .unwrap()
                .rows()
                .iter()
                .map(|row| (row[0].clone(), row[1].clone()))
                .collect()
        })
        .collect();
    let notifications = receivers
        .iter()
        .map(|rx| {
            rx.try_iter()
                .map(|n| n.element.value("AVG_TEMP").unwrap())
                .collect()
        })
        .collect();
    ObservedRun {
        reports,
        tables,
        notifications,
    }
}

/// Durable storage changes nothing a container shows: the same workload in memory and
/// on disk gives the same step reports, output tables and notification streams, and a
/// second run repeats the first.
#[test]
fn memory_and_durable_containers_agree() {
    let memory = run_observed_workload(None);
    let dir = temp_dir("memory-vs-durable");
    let durable = run_observed_workload(Some(dir.clone()));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(memory, durable);
    assert_eq!(memory, run_observed_workload(None));
    // The workload produced data and evaluated registered queries.
    assert!(memory.reports.iter().map(|r| r.outputs).sum::<u64>() > 100);
    assert!(memory.reports.iter().all(|r| r.errors == 0));
    assert!(
        memory
            .reports
            .iter()
            .map(|r| r.client_query_evaluations)
            .sum::<u64>()
            > 0
    );
    assert!(memory.tables.iter().all(|t| !t.is_empty()));
    assert!(memory.notifications.iter().all(|n| !n.is_empty()));
}

/// A table far larger than its buffer pool still answers windowed SQL correctly while
/// the pool stays within its page budget.
#[test]
fn bounded_pool_serves_table_larger_than_memory_budget() {
    let dir = temp_dir("bounded-pool");
    let pool_pages = 8;
    let storage = StorageManager::with_options(StorageOptions {
        persistent: PersistentOptions {
            pool_pages,
            ..Default::default()
        },
        ..StorageOptions::at(&dir)
    });
    let schema = Arc::new(
        StreamSchema::from_pairs(&[("v", DataType::Integer), ("tag", DataType::Varchar)]).unwrap(),
    );
    storage
        .create_table_durable("big", Arc::clone(&schema), Retention::Unbounded)
        .unwrap();
    // ~50k elements × ~60 B ≈ 3 MB of rows; pool budget is 8 pages = 64 KiB.
    let total: i64 = 50_000;
    for i in 0..total {
        let e = StreamElement::new(
            Arc::clone(&schema),
            vec![Value::Integer(i), Value::varchar("sensor-payload-tag")],
            Timestamp(i),
        )
        .unwrap();
        storage.insert("big", e, Timestamp(i)).unwrap();
    }

    let stats = storage.stats();
    assert_eq!(stats.persistent_tables, 1);
    assert!(
        stats.pool.resident_pages <= pool_pages,
        "pool exceeded budget: {} > {pool_pages}",
        stats.pool.resident_pages
    );

    // Windowed SQL over the whole table and over a tail slice, through the catalog path.
    let views = [
        CatalogView::new("all_rows", "big", WindowSpec::Count(usize::MAX)),
        CatalogView::new("tail", "big", WindowSpec::Count(1_000)),
    ];
    let catalog = LiveCatalog::new(&storage, &views, Timestamp(total));
    let mut engine = gsn::sql::SqlEngine::new();
    let n = engine
        .execute_scalar("select count(*) from all_rows", &catalog)
        .unwrap();
    assert_eq!(n, Value::Integer(total));
    let sum = engine
        .execute_scalar("select min(v) from tail", &catalog)
        .unwrap();
    assert_eq!(sum, Value::Integer(total - 1_000));

    let stats = storage.stats();
    assert!(
        stats.pool.resident_pages <= pool_pages,
        "scan blew the pool budget: {} > {pool_pages}",
        stats.pool.resident_pages
    );
    assert!(
        stats.pool.evictions > 0,
        "a 3 MB table must evict with a 64 KiB pool"
    );

    storage.drop_table("big").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A *failed* re-deploy must not delete the durable history it just recovered: the
/// rollback releases the output table instead of destroying its files.
#[test]
fn failed_redeploy_preserves_durable_history() {
    let dir = temp_dir("failed-redeploy");
    let config = ContainerConfig::default().with_data_dir(&dir);
    {
        let clock = SimulatedClock::new();
        let mut node = GsnContainer::new(config.clone(), Arc::new(clock.clone()));
        node.deploy(permanent_descriptor("precious")).unwrap();
        clock.advance(Duration::from_secs(1));
        node.step();
    }

    // Same sensor name and schema, but a second source naming an unknown wrapper: the
    // deploy recovers the output table, then fails and must roll back without deleting.
    let broken = VirtualSensorDescriptor::builder("precious")
        .unwrap()
        .output_field("avg_temp", DataType::Double)
        .unwrap()
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src1")
                .with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("mote").with_predicate("interval", "100"),
                        "select avg(temperature) as avg_temp from WRAPPER",
                    )
                    .with_window(WindowSpec::Count(10)),
                )
                .with_source(StreamSourceSpec::new(
                    "src2",
                    AddressSpec::new("hyperspectral-imager"),
                    "select * from WRAPPER",
                )),
        )
        .build()
        .unwrap();

    let clock = SimulatedClock::new();
    let mut node = GsnContainer::new(config, Arc::new(clock));
    assert!(node.deploy(broken).is_err());

    // The good descriptor still recovers the full pre-restart history.
    node.deploy(permanent_descriptor("precious")).unwrap();
    let n = node.query("select count(*) as n from precious").unwrap();
    assert_eq!(
        n.rows()[0][0],
        Value::Integer(10),
        "failed re-deploy destroyed recovered history"
    );
    drop(node);
    std::fs::remove_dir_all(&dir).ok();
}

/// Undeploying a sensor deletes its durable files; redeploying starts fresh.
#[test]
fn undeploy_deletes_durable_state() {
    let dir = temp_dir("undeploy");
    let config = ContainerConfig::default().with_data_dir(&dir);
    let clock = SimulatedClock::new();
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    node.deploy(permanent_descriptor("ephemeral")).unwrap();
    clock.advance(Duration::from_secs(1));
    node.step();
    assert_eq!(node.storage().stats().persistent_tables, 1);
    node.undeploy("ephemeral").unwrap();

    node.deploy(permanent_descriptor("ephemeral")).unwrap();
    let n = node.query("select count(*) as n from ephemeral").unwrap();
    assert_eq!(n.rows()[0][0], Value::Integer(0));
    drop(node);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------------------
// Lock-free hot path: buffer-pool regions and WAL batching
// ---------------------------------------------------------------------------------------

/// Concurrent scans of pages living in distinct clock regions never block each other:
/// with four tables whose hot pages land in four different regions, the hit path takes
/// only the owning region's latch, so the pool's `contended` counter must stay zero
/// however the threads interleave.
#[test]
#[allow(clippy::disallowed_methods)] // the property under test needs other threads
fn concurrent_scans_of_distinct_regions_never_contend() {
    let pool = Arc::new(SharedBufferPool::with_regions(8, 8));
    assert!(pool.region_count() >= 4);
    let mut tables = Vec::new();
    for _ in 0..4 {
        let table = pool.register_table(Box::new(FakeDisk::default()));
        pool.with_page(table, 0, |_| ()).unwrap(); // warm each table's hot page
        tables.push(table);
    }
    // The warmed pages really occupy four distinct regions — otherwise the test would
    // be vacuous (and the region hash has regressed).
    let occupied: Vec<usize> = pool
        .region_stats()
        .iter()
        .filter(|r| r.resident_pages > 0)
        .map(|r| r.region)
        .collect();
    assert_eq!(
        occupied.len(),
        4,
        "4 warmed pages must land in 4 distinct regions, got {occupied:?}"
    );

    let barrier = Arc::new(std::sync::Barrier::new(tables.len()));
    let mut handles = Vec::new();
    for table in tables {
        let pool = Arc::clone(&pool);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..5_000 {
                pool.with_page(table, 0, |_| ()).unwrap();
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    let stats = pool.stats();
    assert_eq!(
        stats.contended, 0,
        "distinct-region scans took a contended latch: {stats:?}"
    );
    assert!(stats.hits >= 4 * 5_000);
    assert_eq!(
        stats.misses, 4,
        "only the four warm-up reads may touch disk"
    );
}

/// Rows acknowledged at the step commit survive a crash: the manager is "crashed"
/// right after the commit with dirty pages unflushed (`mem::forget` skips the
/// checkpoint-on-drop), and recovery must replay exactly the inserted rows from the one
/// log.  Every durable table logs through it, and a spilled window logs nothing, so no
/// other `.wal` file may appear.
#[test]
fn wal_crash_replay_recovers_every_row_from_the_one_log() {
    let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
    let tables = ["alpha", "bravo", "charlie", "delta", "echo"];
    let rows_per_table = 200i64;
    let value = |t: usize, i: i64| t as i64 * 10_000 + i;

    let dir = temp_dir("wal-crash");
    let mut options = StorageOptions::at(&dir).with_window_spill(1024);
    options.persistent.sync = SyncMode::Always;
    options.persistent.group_commit = true;

    let storage = StorageManager::with_options(options.clone());
    storage
        .create_table("window", Arc::clone(&schema), Retention::Unbounded)
        .unwrap();
    for (t, name) in tables.iter().enumerate() {
        storage
            .create_table_durable(name, Arc::clone(&schema), Retention::Unbounded)
            .unwrap();
        for i in 0..rows_per_table {
            for table in [*name, "window"] {
                let e = StreamElement::new(
                    Arc::clone(&schema),
                    vec![Value::Integer(value(t, i))],
                    Timestamp(i),
                )
                .unwrap();
                storage.insert(table, e, Timestamp(i)).unwrap();
            }
        }
    }
    assert!(storage.stats().spilled_rows > 0, "the window must spill");
    // The step-loop commit: one write and one fsync.
    storage.group_commit().unwrap();
    // Crash: skip `Drop`, so no page flush and no checkpoint ever happens — the
    // recovered state below comes entirely from replaying the log.
    std::mem::forget(storage);

    let logs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".wal"))
        .collect();
    assert_eq!(logs, vec!["wal-shard-0000.wal".to_owned()]);

    let storage = StorageManager::with_options(options);
    for (t, name) in tables.iter().enumerate() {
        let table = storage
            .create_table_durable(name, Arc::clone(&schema), Retention::Unbounded)
            .unwrap();
        let recovered: Vec<(u64, i64)> = read(
            &table.read(),
            WindowSpec::Count(usize::MAX),
            Timestamp::MAX,
            &ScanBounds::default(),
        )
        .iter()
        .map(|(seq, _, values)| (*seq, values[0].as_integer().unwrap()))
        .collect();
        let inserted: Vec<(u64, i64)> = (0..rows_per_table)
            .map(|i| (i as u64 + 1, value(t, i)))
            .collect();
        assert_eq!(recovered, inserted, "table {name}");
    }
    drop(storage);
    std::fs::remove_dir_all(&dir).ok();
}

/// A data directory written with several WAL shards keeps rows in
/// `wal-shard-NNNN.wal` files other than the one log: a non-empty one may hold
/// acknowledged rows, so opening a durable table is refused with a storage error naming
/// the file, instead of silently dropping those rows.  The first shard's file is the
/// log itself and opens as before.
#[test]
fn durable_open_refuses_a_second_wal_shard() {
    let dir = temp_dir("second-wal-shard");
    let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
    let element = |v: i64| {
        StreamElement::new(Arc::clone(&schema), vec![Value::Integer(v)], Timestamp(v)).unwrap()
    };
    // A log at the old default layout: its rows replay.
    {
        let storage = StorageManager::persistent(&dir);
        storage
            .create_table_durable("history", Arc::clone(&schema), Retention::Unbounded)
            .unwrap();
        storage.insert("history", element(1), Timestamp(1)).unwrap();
        storage.group_commit().unwrap();
        std::mem::forget(storage);
    }
    let second = dir.join("wal-shard-0001.wal");
    std::fs::write(&second, b"acknowledged rows").unwrap();

    let storage = StorageManager::persistent(&dir);
    let err = storage
        .create_table_durable("history", Arc::clone(&schema), Retention::Unbounded)
        .unwrap_err();
    assert!(matches!(err, GsnError::Storage(_)), "{err:?}");
    assert!(err.to_string().contains("wal-shard-0001.wal"), "{err}");
    assert!(!storage.has_table("history"));
    assert!(second.exists(), "the refused log is left for recovery");

    // An empty leftover holds nothing acknowledged and does not block the open.
    std::fs::write(&second, b"").unwrap();
    let table = storage
        .create_table_durable("history", schema, Retention::Unbounded)
        .unwrap();
    assert_eq!(all_v(&table.read()), vec![1]);
    drop(storage);
    std::fs::remove_dir_all(&dir).ok();
}

/// A non-empty per-table `<table>.wal` left by the pre-sharding layout may hold
/// acknowledged rows that the shared log does not have: opening the durable table is
/// refused with a storage error naming the file, instead of silently dropping them.
#[test]
fn durable_open_refuses_a_non_empty_legacy_table_wal() {
    let dir = temp_dir("legacy-wal");
    let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
    let legacy = dir.join("history.wal");
    std::fs::write(&legacy, b"acknowledged rows").unwrap();

    let storage = StorageManager::persistent(&dir);
    let err = storage
        .create_table_durable("history", Arc::clone(&schema), Retention::Unbounded)
        .unwrap_err();
    assert!(matches!(err, GsnError::Storage(_)), "{err:?}");
    assert!(err.to_string().contains("history.wal"), "{err}");
    assert!(!storage.has_table("history"));
    assert!(legacy.exists(), "the refused log is left for recovery");

    // An empty leftover holds nothing acknowledged and does not block the open.
    std::fs::write(&legacy, b"").unwrap();
    storage
        .create_table_durable("history", schema, Retention::Unbounded)
        .unwrap();
    drop(storage);
    std::fs::remove_dir_all(&dir).ok();
}

/// The schema's field count sits in the segment header (bytes 44..48) and no checksum
/// covers it.  A corrupt count must make the open fail with a storage error, not make
/// the decoder reserve room for billions of fields and abort the process.
#[test]
fn corrupt_segment_schema_count_is_a_storage_error() {
    let dir = temp_dir("schema-count");
    let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
    let storage = StorageManager::persistent(&dir);
    storage
        .create_table_durable("history", Arc::clone(&schema), Retention::Unbounded)
        .unwrap();
    let e = StreamElement::new(Arc::clone(&schema), vec![Value::Integer(1)], Timestamp(1)).unwrap();
    storage.insert("history", e, Timestamp(1)).unwrap();
    drop(storage);

    let segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    assert!(!segments.is_empty(), "no segment file written");
    for path in &segments {
        let mut bytes = std::fs::read(path).unwrap();
        assert_eq!(
            &bytes[44..48],
            &1u32.to_le_bytes(),
            "field count offset moved"
        );
        bytes[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    let storage = StorageManager::persistent(&dir);
    let err = storage
        .create_table_durable("history", schema, Retention::Unbounded)
        .unwrap_err();
    assert!(matches!(err, GsnError::Storage(_)), "{err:?}");
    drop(storage);
    std::fs::remove_dir_all(&dir).ok();
}

/// A page that goes bad on disk while its table is open surfaces as a storage error on
/// the next read — the table's read helper must not panic its caller.
#[test]
fn corrupt_chunk_tag_on_a_flushed_page_is_a_storage_error() {
    let dir = temp_dir("corrupt-chunk");
    let schema = Arc::new(
        StreamSchema::from_pairs(&[("v", DataType::Integer), ("payload", DataType::Binary)])
            .unwrap(),
    );
    let mut table = StreamTable::persistent(
        "chunks",
        Arc::clone(&schema),
        Retention::Unbounded,
        &dir,
        wal_set(&dir),
        PersistentOptions {
            pool_pages: 2,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 1..=200 {
        table
            .insert_values(
                vec![Value::Integer(i), Value::binary(vec![7u8; 512])],
                Timestamp(i),
            )
            .unwrap();
    }
    table.flush().unwrap();
    // ~15 pages through a 2-frame pool: the head page is on disk and out of the pool.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    // Page 0 of the head segment follows the one-page header; its first record starts
    // after the 4-byte page header, and that record's first byte is its chunk tag.
    let tag_offset = gsn::storage::PAGE_SIZE + 4;
    let mut bytes = std::fs::read(&segments[0]).unwrap();
    assert_eq!(bytes[tag_offset], 0, "expected a whole-row chunk tag");
    bytes[tag_offset] = 0x7f;
    std::fs::write(&segments[0], bytes).unwrap();

    let err = table
        .scan(
            WindowSpec::Count(usize::MAX),
            Timestamp::MAX,
            &ScanBounds::default(),
        )
        .unwrap_err();
    assert!(matches!(err, GsnError::Storage(_)), "{err:?}");
    assert!(err.to_string().contains("corrupt chunk tag"), "{err}");
    drop(table);
    std::fs::remove_dir_all(&dir).ok();
}
