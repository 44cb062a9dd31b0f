//! Property-based tests for the stream-processing substrate: window selection, storage
//! retention, rate bounding and descriptor round-tripping.

use std::sync::Arc;

use gsn::sql::{RowSource, ScanSpec};
use gsn::storage::{
    sampling_stride, BackendKind, PersistentOptions, Retention, ScanBounds, StorageManager,
    StorageOptions, StreamCursor, StreamTable, WindowSpec,
};
use gsn::types::{DataType, Duration, StreamElement, StreamSchema, Timestamp, Value};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use proptest::prelude::*;

fn schema() -> Arc<StreamSchema> {
    Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap())
}

fn elements(timestamps: &[i64]) -> Vec<StreamElement> {
    let schema = schema();
    timestamps
        .iter()
        .enumerate()
        .map(|(i, ts)| {
            StreamElement::new(
                schema.clone(),
                vec![Value::Integer(i as i64)],
                Timestamp(*ts),
            )
            .unwrap()
            .with_sequence(i as u64 + 1)
        })
        .collect()
}

/// Reads `window` at `now` from a permanent table holding one element per timestamp.
fn select(timestamps: &[i64], window: WindowSpec, now: i64) -> Vec<StreamElement> {
    let mut table = StreamTable::permanent("t", schema());
    for (i, ts) in timestamps.iter().enumerate() {
        table
            .insert_values(vec![Value::Integer(i as i64)], Timestamp(*ts))
            .unwrap();
    }
    table
        .scan(window, Timestamp(now), &ScanBounds::default())
        .unwrap()
}

/// Every element a table retains, oldest first.
fn all(table: &StreamTable) -> Vec<StreamElement> {
    table
        .scan(
            WindowSpec::Count(usize::MAX),
            Timestamp::MAX,
            &ScanBounds::default(),
        )
        .unwrap()
}

/// Sorted, strictly increasing arrival timestamps.
fn arb_timestamps() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(1i64..5_000, 0..120).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_windows_select_a_bounded_suffix(ts in arb_timestamps(), n in 1usize..50) {
        let els = elements(&ts);
        let window = WindowSpec::Count(n);
        let selected = select(&ts, window, 10_000);
        prop_assert!(selected.len() <= n);
        prop_assert_eq!(selected.len(), n.min(els.len()));
        // The selection is exactly the suffix: ordering and identity preserved.
        let expected: Vec<u64> = els.iter().rev().take(n).rev().map(StreamElement::sequence).collect();
        let got: Vec<u64> = selected.iter().map(StreamElement::sequence).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn time_windows_select_exactly_the_in_horizon_elements(ts in arb_timestamps(), span in 1i64..2_000, now in 0i64..6_000) {
        let els = elements(&ts);
        let window = WindowSpec::Time(Duration::from_millis(span));
        let selected = select(&ts, window, now);
        let cutoff = now - span;
        for e in &selected {
            prop_assert!(e.timestamp().as_millis() >= cutoff);
        }
        let expected = els.iter().filter(|e| e.timestamp().as_millis() >= cutoff).count();
        prop_assert_eq!(selected.len(), expected);
    }

    #[test]
    fn element_retention_never_exceeds_the_bound(ts in arb_timestamps(), keep in 1usize..40) {
        let mut table = StreamTable::new("t", schema(), Retention::Elements(keep));
        for (i, t) in ts.iter().enumerate() {
            table
                .insert_values(vec![Value::Integer(i as i64)], Timestamp(*t))
                .unwrap();
            prop_assert!(table.len() <= keep);
        }
        prop_assert_eq!(table.len(), keep.min(ts.len()));
        // The retained elements are the most recent ones, still in order.
        let retained: Vec<i64> = all(&table).iter().map(|e| e.value("V").unwrap().as_integer().unwrap()).collect();
        let start = ts.len().saturating_sub(keep) as i64;
        let expected: Vec<i64> = (start..ts.len() as i64).collect();
        prop_assert_eq!(retained, expected);
    }

    #[test]
    fn horizon_retention_keeps_everything_a_time_window_needs(ts in arb_timestamps(), span in 1i64..2_000) {
        let mut table = StreamTable::new(
            "t",
            schema(),
            Retention::Horizon(Duration::from_millis(span)),
        );
        let mut reference: Vec<i64> = Vec::new();
        for (i, t) in ts.iter().enumerate() {
            table
                .insert_values(vec![Value::Integer(i as i64)], Timestamp(*t))
                .unwrap();
            reference.push(*t);
            let now = Timestamp(*t);
            // Every element a time window of `span` would select is still in the table.
            let needed = reference
                .iter()
                .filter(|x| **x >= t - span)
                .count();
            let view = table
                .scan(WindowSpec::Time(Duration::from_millis(span)), now, &ScanBounds::default())
                .unwrap();
            prop_assert_eq!(view.len(), needed);
        }
    }

    #[test]
    fn storage_manager_statistics_match_inserts(ts in arb_timestamps()) {
        let storage = StorageManager::new();
        storage.create_table("t", schema(), Retention::Unbounded).unwrap();
        for (i, t) in ts.iter().enumerate() {
            let e = StreamElement::new(schema(), vec![Value::Integer(i as i64)], Timestamp(*t)).unwrap();
            storage.insert("t", e, Timestamp(*t)).unwrap();
        }
        let stats = storage.stats();
        prop_assert_eq!(stats.retained_elements, ts.len());
        prop_assert_eq!(stats.totals.inserted, ts.len() as u64);
        prop_assert_eq!(stats.totals.out_of_order, 0);
    }

    #[test]
    fn rate_limiter_never_admits_faster_than_the_bound(ts in arb_timestamps(), rate in 1u32..100) {
        let mut limiter = gsn::container::RateLimiter::from_rate(Some(rate));
        let spacing = limiter.min_spacing().as_millis();
        let mut admitted: Vec<i64> = Vec::new();
        for t in &ts {
            if limiter.admit(Timestamp(*t)) {
                admitted.push(*t);
            }
        }
        prop_assert!(admitted.windows(2).all(|w| w[1] - w[0] >= spacing));
    }

    #[test]
    fn window_spec_round_trips_through_its_descriptor_spelling(n in 1usize..10_000, secs in 1i64..7_200) {
        for window in [WindowSpec::Count(n), WindowSpec::Time(Duration::from_secs(secs))] {
            let spec = window.to_spec_string();
            prop_assert_eq!(WindowSpec::parse(&spec).unwrap(), window);
        }
    }

    #[test]
    fn descriptors_round_trip_through_xml(
        sensor_index in 0u32..1_000,
        window_count in 1usize..500,
        sampling in 1u32..=10,
        rate in prop::option::of(1u32..200),
        permanent in prop::bool::ANY,
        fields in prop::collection::vec(("[a-z][a-z0-9_]{0,8}", 0usize..6), 1..5),
    ) {
        // Field names must be unique for the schema to build.
        let mut seen = std::collections::HashSet::new();
        let fields: Vec<(String, usize)> = fields
            .into_iter()
            .filter(|(name, _)| seen.insert(name.clone()))
            .collect();
        prop_assume!(!fields.is_empty());

        let types = [
            DataType::Integer,
            DataType::Double,
            DataType::Varchar,
            DataType::Boolean,
            DataType::Binary,
            DataType::Timestamp,
        ];
        let mut builder = VirtualSensorDescriptor::builder(&format!("sensor-{sensor_index}"))
            .unwrap()
            .permanent_storage(permanent)
            .metadata("type", "generated");
        for (name, type_index) in &fields {
            builder = builder.output_field(name, types[*type_index % types.len()]).unwrap();
        }
        let mut stream = InputStreamSpec::new("main", "select * from src").with_source(
            StreamSourceSpec::new(
                "src",
                AddressSpec::new("mote").with_predicate("interval", "100"),
                "select * from WRAPPER",
            )
            .with_window(WindowSpec::Count(window_count))
            .with_sampling_rate(sampling as f64 / 10.0),
        );
        if let Some(r) = rate {
            stream = stream.with_rate_limit(r);
        }
        let descriptor = builder.input_stream(stream).build().unwrap();

        let xml = descriptor.to_xml();
        let reparsed = VirtualSensorDescriptor::parse(&xml).unwrap();
        prop_assert_eq!(reparsed, descriptor);
    }
}

// ---------------------------------------------------------------------------------------
// One read path: every backend's cursor against a naive reference
// ---------------------------------------------------------------------------------------

/// A row as the reference model and the cursor both see it: `(PK, TIMED millis)`.
type Row = (u64, i64);

/// The reference window over every inserted row (non-decreasing timestamps, so a time
/// window's partition point is a plain filter).
fn reference_window(rows: &[Row], window: WindowSpec, now: i64) -> Vec<Row> {
    match window {
        WindowSpec::Count(n) => rows[rows.len().saturating_sub(n)..].to_vec(),
        WindowSpec::LatestOnly => rows[rows.len().saturating_sub(1)..].to_vec(),
        WindowSpec::Time(d) => {
            let cutoff = Timestamp(now).saturating_sub(d).as_millis();
            rows.iter().copied().filter(|row| row.1 >= cutoff).collect()
        }
    }
}

/// The executor's row-wise re-filter above a bounded scan, then its `LIMIT`.
fn refilter(rows: &[Row], bounds: &ScanBounds) -> Vec<Row> {
    rows.iter()
        .copied()
        .filter(|(seq, ts)| {
            bounds.min_seq.is_none_or(|b| *seq >= b)
                && bounds.max_seq.is_none_or(|b| *seq <= b)
                && bounds.min_ts.is_none_or(|b| *ts >= b)
                && bounds.max_ts.is_none_or(|b| *ts <= b)
        })
        .take(bounds.limit.map_or(usize::MAX, |l| l as usize))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Memory, durable and spilled tables answer every window exactly like a naive
    /// `Vec`, through the table's drain helper and through the SQL cursor with random
    /// pushed-down bounds and sampling: bounds may over-read within the window, and the
    /// executor's re-filter then makes the rows exact.  Rare pauses longer than any
    /// window let retention prune everything stored, spilled rows included.
    #[test]
    fn every_backend_reads_like_a_naive_vec(
        deltas in prop::collection::vec(
            (0i64..25, 0u32..25).prop_map(|(d, pick)| if pick == 0 { 3_000 + d * 100 } else { d }),
            0..300,
        ),
        window_pick in (0u32..6, 1usize..400, 1i64..3_000),
        prune in prop::bool::ANY,
        seq_bounds in (prop::option::of(0u64..1_100), prop::option::of(0u64..1_100)),
        ts_bounds in (prop::option::of(0i64..1_100), prop::option::of(0i64..1_100)),
        limit in prop::option::of(0u64..40),
        sampling_pick in 0usize..8,
        later in 0i64..500,
    ) {
        let mut window = match window_pick.0 {
            0 => WindowSpec::Count(0),
            1 => WindowSpec::Count(window_pick.1),
            2 => WindowSpec::Count(usize::MAX),
            3 => WindowSpec::LatestOnly,
            _ => WindowSpec::Time(Duration::from_millis(window_pick.2)),
        };
        // Kind 5 anchors a time window's cutoff on an inserted row after the fact, so
        // it keeps everything (its span is unknown while inserting).
        let retention = if prune && window_pick.0 != 5 {
            window.retention()
        } else {
            Retention::Unbounded
        };
        let sampling = [None, None, None, Some(1.0), Some(0.5), Some(0.25), Some(0.1), Some(0.0)]
            [sampling_pick];

        let dir = gsn::storage::testutil::temp_dir("read-property");
        let memory = StorageManager::new();
        let disk = StorageManager::with_options(StorageOptions {
            data_dir: Some(dir.clone()),
            persistent: PersistentOptions {
                pool_pages: 4,
                segment_pages: 2,
                ..Default::default()
            },
            window_spill_bytes: Some(8 * 1024),
        });
        let schema = Arc::new(
            StreamSchema::from_pairs(&[("v", DataType::Integer), ("payload", DataType::Binary)])
                .unwrap(),
        );
        memory.create_table("t", Arc::clone(&schema), retention).unwrap();
        disk.create_table("t", Arc::clone(&schema), retention).unwrap();
        disk.create_table_durable("d", Arc::clone(&schema), retention).unwrap();
        let tables = [(&memory, "t", BackendKind::Memory), (&disk, "t", BackendKind::Spilled), (&disk, "d", BackendKind::Persistent)];

        let mut inserted: Vec<Row> = Vec::new();
        let mut ts = 1i64;
        for (i, delta) in deltas.iter().enumerate() {
            ts += delta;
            let e = StreamElement::new(
                Arc::clone(&schema),
                vec![Value::Integer(i as i64), Value::binary(vec![i as u8; 1_000])],
                Timestamp(ts),
            )
            .unwrap();
            for (storage, name, _) in tables {
                storage.insert(name, e.clone(), Timestamp(ts)).unwrap();
            }
            inserted.push((i as u64 + 1, ts));
        }
        let now = ts + later;
        if window_pick.0 == 5 && !inserted.is_empty() {
            let anchor = inserted[window_pick.1 % inserted.len()].1;
            window = WindowSpec::Time(Duration::from_millis((now - anchor).max(1)));
        }
        // Bounds are drawn in permille of the inserted range (a little past either end).
        let rows = inserted.len() as u64;
        let bounds = ScanBounds {
            min_seq: seq_bounds.0.map(|p| p * rows / 1_000),
            max_seq: seq_bounds.1.map(|p| p * rows / 1_000),
            min_ts: ts_bounds.0.map(|p| p * now / 1_000),
            max_ts: ts_bounds.1.map(|p| p * now / 1_000),
            limit,
        };
        let expected = reference_window(&inserted, window, now);
        let stride = sampling.and_then(sampling_stride);
        let sampled: Vec<Row> = expected
            .iter()
            .copied()
            .filter(|(seq, _)| stride.is_none_or(|k| (*seq as usize).is_multiple_of(k)))
            .collect();
        // Sampled cursors scan the plain window (bounds are not pushed below a stride).
        let pushed = if stride.is_some() { ScanBounds::default() } else { bounds };
        let spec = ScanSpec {
            min_seq: pushed.min_seq,
            max_seq: pushed.max_seq,
            min_ts: pushed.min_ts,
            max_ts: pushed.max_ts,
            limit: pushed.limit,
            ..ScanSpec::default()
        };

        for (storage, name, kind) in tables {
            let table = storage.table(name).unwrap();
            prop_assert_eq!(table.read().backend_kind(), kind);
            // The window, exactly.
            let got: Vec<Row> = table
                .read()
                .scan(window, Timestamp(now), &ScanBounds::default())
                .unwrap()
                .iter()
                .map(|e| (e.sequence(), e.timestamp().as_millis()))
                .collect();
            prop_assert_eq!(&got, &expected, "{:?} window {:?}", kind, window);

            // The SQL cursor: a superset of the qualifying rows within the (sampled)
            // window, exact after the executor's re-filter.
            let mut cursor = StreamCursor::open_with_spec(
                Arc::clone(&table),
                name,
                window,
                Timestamp(now),
                sampling,
                &spec,
            )
            .unwrap();
            let mut scanned: Vec<Row> = Vec::new();
            while let Some(row) = cursor.next_row().unwrap() {
                match (&row[0], &row[1]) {
                    (Value::Integer(seq), Value::Timestamp(ts)) => {
                        scanned.push((*seq as u64, ts.as_millis()))
                    }
                    other => panic!("unexpected implicit columns {other:?}"),
                }
            }
            prop_assert!(
                scanned.iter().all(|row| sampled.contains(row)),
                "{:?}: cursor left the window", kind
            );
            prop_assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "{:?}: out of order", kind);
            prop_assert_eq!(
                refilter(&scanned, &bounds),
                refilter(&sampled, &bounds),
                "{:?} window {:?} bounds {:?} sampling {:?}", kind, window, bounds, sampling
            );
        }
        drop(disk);
        std::fs::remove_dir_all(&dir).ok();
    }
}
