//! The virtual sensor runtime: the paper's processing pipeline, instantiated per
//! deployment descriptor.
//!
//! A deployed virtual sensor owns, per input stream, a prepared output query and, per
//! stream source, a wrapper (or remote subscription), a windowed storage table, a
//! stream-quality monitor and a prepared per-source query.  The arrival of a stream
//! element triggers the five processing steps of Section 3:
//!
//! 1. timestamp the element (ISM),
//! 2. evaluate the windows of every source of the triggering input stream (each source
//!    query reads its window live, through the `wrapper` view built at deploy),
//! 3. run the per-source queries into temporary relations,
//! 4. run the output query over the temporary relations,
//! 5. persist and hand the new output element to the container for notification.

use std::sync::Arc;
use std::time::Instant;

use gsn_sql::{MemoryCatalog, PreparedQuery, SqlEngine};
use gsn_storage::{CatalogView, LiveCatalog, Retention, StorageManager};
use gsn_types::{
    GsnError, GsnResult, NodeId, StreamElement, StreamSchema, Timestamp, VirtualSensorName,
};
use gsn_wrappers::{Wrapper, WrapperRegistry};
use gsn_xml::{StreamSourceSpec, VirtualSensorDescriptor};

use crate::ism::{QualityPolicy, RateLimiter, SourceMonitor, SourceQuality};

/// Output history kept when a descriptor neither sets `permanent-storage="true"` nor an
/// explicit `<storage size>`: generous enough for ad-hoc queries over recent output,
/// bounded so a default-configured sensor cannot grow memory without limit.
const DEFAULT_OUTPUT_HISTORY: usize = 10_000;

/// Where a stream source's data comes from at runtime.
pub enum SourceKind {
    /// A local wrapper instance polled by the container.
    Local(Box<dyn Wrapper>),
    /// A subscription to a virtual sensor hosted on another node.
    Remote {
        /// The producing node.
        producer: NodeId,
        /// The remote virtual sensor name.
        sensor: String,
    },
}

impl std::fmt::Debug for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceKind::Local(w) => write!(f, "Local({})", w.describe()),
            SourceKind::Remote { producer, sensor } => write!(f, "Remote({producer}/{sensor})"),
        }
    }
}

/// Identifies a source within a virtual sensor: (input stream index, source index).
pub type SourceRef = (usize, usize);

/// Runtime state of one stream source.
#[derive(Debug)]
pub struct SourceRuntime {
    /// The descriptor fragment.
    pub spec: StreamSourceSpec,
    /// Where the data comes from.
    pub kind: SourceKind,
    /// The storage table backing this source.
    pub table_name: String,
    /// Stream-quality monitor.
    pub monitor: SourceMonitor,
    /// The prepared per-source query (over `WRAPPER`).
    source_query: PreparedQuery,
    /// The `wrapper` view the source query reads: this source's table through its
    /// window and sampling rate.
    wrapper: CatalogView,
}

/// Runtime state of one input stream.
#[derive(Debug)]
pub struct InputStreamRuntime {
    /// The input stream name.
    pub name: String,
    /// Rate bound for this input stream.
    pub rate_limiter: RateLimiter,
    /// The stream sources.
    pub sources: Vec<SourceRuntime>,
    /// The prepared output query (over the source aliases).
    output_query: PreparedQuery,
}

/// Processing statistics of one virtual sensor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SensorStats {
    /// Elements that arrived from sources.
    pub arrivals: u64,
    /// Pipeline executions triggered.
    pub triggers: u64,
    /// Output elements produced.
    pub outputs: u64,
    /// Pipeline executions that failed.
    pub errors: u64,
    /// Total pipeline processing time, in microseconds of wall-clock time.
    pub total_processing_micros: u64,
    /// The most recent pipeline processing time, in microseconds.
    pub last_processing_micros: u64,
}

impl SensorStats {
    /// Mean per-trigger processing time in milliseconds.
    pub fn mean_processing_ms(&self) -> f64 {
        if self.triggers == 0 {
            0.0
        } else {
            self.total_processing_micros as f64 / self.triggers as f64 / 1_000.0
        }
    }
}

/// A deployed virtual sensor.
pub struct VirtualSensor {
    descriptor: VirtualSensorDescriptor,
    output_schema: Arc<StreamSchema>,
    output_table: String,
    streams: Vec<InputStreamRuntime>,
    engine: SqlEngine,
    stats: SensorStats,
}

impl std::fmt::Debug for VirtualSensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VirtualSensor({}, {} input streams)",
            self.descriptor.name,
            self.streams.len()
        )
    }
}

impl VirtualSensor {
    /// The storage table name used for a virtual sensor's output stream.
    pub fn output_table_name(name: &VirtualSensorName) -> String {
        name.as_str().replace('-', "_")
    }

    /// The storage table name used for one source of a virtual sensor.
    pub fn source_table_name(name: &VirtualSensorName, alias: &str) -> String {
        format!(
            "{}__{}",
            Self::output_table_name(name),
            alias.to_ascii_lowercase()
        )
    }

    /// Instantiates a virtual sensor from its descriptor.
    ///
    /// * local wrapper sources are created through `registry` and their production
    ///   schedules anchored at `deployed_at`;
    /// * remote sources are resolved through `resolve_remote`, which the container backs
    ///   with a directory lookup;
    /// * the source and output tables are created in `storage`.
    pub fn deploy(
        descriptor: VirtualSensorDescriptor,
        registry: &WrapperRegistry,
        storage: &StorageManager,
        mut resolve_remote: impl FnMut(&gsn_xml::AddressSpec) -> GsnResult<(NodeId, String)>,
        deployed_at: Timestamp,
    ) -> GsnResult<VirtualSensor> {
        descriptor.validate()?;
        let output_schema = Arc::new(descriptor.output_structure.clone());
        let output_table = Self::output_table_name(&descriptor.name);

        // Output storage: permanent => unbounded, otherwise the declared history window.
        // An omitted history keeps a generous default rather than everything: the
        // original GSN accumulates the output stream in its database table, but an
        // unbounded default on the *in-memory* backend would grow until OOM on a
        // long-running container. Descriptors that really want full history say
        // `permanent-storage="true"` (durable when the container has a data directory).
        let output_retention = if descriptor.storage.permanent {
            Retention::Unbounded
        } else {
            descriptor
                .storage
                .history
                .map(|w| w.retention())
                .unwrap_or(Retention::Elements(DEFAULT_OUTPUT_HISTORY))
        };
        // Backend choice: `permanent-storage="true"` (or backend="disk") goes to the
        // persistent page engine when the container has a data directory — re-deploying
        // on the same directory recovers the stored history. Source windows below stay
        // in memory: they are bounded by their window and rebuilt from live data.
        if descriptor.storage.wants_durable() {
            storage.create_table_durable(
                &output_table,
                Arc::clone(&output_schema),
                output_retention,
            )?;
        } else {
            storage.create_table(&output_table, Arc::clone(&output_schema), output_retention)?;
        }

        let mut engine = SqlEngine::new();
        let mut streams = Vec::new();
        let deploy_result: GsnResult<()> = (|| {
            for stream_spec in &descriptor.input_streams {
                let output_query = engine.prepare(&stream_spec.query)?;
                let mut sources = Vec::new();
                for source_spec in &stream_spec.sources {
                    let source_query = engine.prepare(&source_spec.query)?;
                    let kind = if source_spec.address.is_remote() {
                        let (producer, sensor) = resolve_remote(&source_spec.address)?;
                        SourceKind::Remote { producer, sensor }
                    } else {
                        let mut wrapper = registry.create(&source_spec.address)?;
                        // Anchor the wrapper's production schedule at deployment time so a
                        // sensor added while the container has been running for a while does
                        // not emit a catch-up burst of historical elements.
                        wrapper.start(deployed_at);
                        SourceKind::Local(wrapper)
                    };
                    let schema = match &kind {
                        SourceKind::Local(w) => w.output_schema(),
                        // The schema of a remote source is learned from the first
                        // delivered element; until then use the declared output structure
                        // of this sensor (remote sources deliver the producer's outputs).
                        SourceKind::Remote { .. } => Arc::clone(&output_schema),
                    };
                    let table_name = Self::source_table_name(&descriptor.name, &source_spec.alias);
                    storage.create_table(&table_name, schema, source_spec.window.retention())?;
                    let wrapper = CatalogView::new("wrapper", &table_name, source_spec.window)
                        .with_sampling(source_spec.sampling_rate);
                    sources.push(SourceRuntime {
                        spec: source_spec.clone(),
                        kind,
                        table_name,
                        monitor: SourceMonitor::new(QualityPolicy::default()),
                        source_query,
                        wrapper,
                    });
                }
                streams.push(InputStreamRuntime {
                    name: stream_spec.name.clone(),
                    rate_limiter: RateLimiter::from_rate(stream_spec.rate_limit),
                    sources,
                    output_query,
                });
            }
            Ok(())
        })();

        if let Err(e) = deploy_result {
            // Roll back the tables created so far so a failed deployment leaves no
            // *in-memory* trace. The output table is released, not dropped: a failed
            // re-deploy of a permanent-storage sensor must not delete the on-disk
            // history it just recovered.
            let _ = storage.release_table(&output_table);
            for stream_spec in &descriptor.input_streams {
                for source_spec in &stream_spec.sources {
                    let _ = storage.drop_table(&Self::source_table_name(
                        &descriptor.name,
                        &source_spec.alias,
                    ));
                }
            }
            return Err(e);
        }

        Ok(VirtualSensor {
            descriptor,
            output_schema,
            output_table,
            streams,
            engine,
            stats: SensorStats::default(),
        })
    }

    /// Removes the sensor's storage tables (called by the container on undeploy).
    pub fn teardown(&mut self, storage: &StorageManager) {
        let _ = storage.drop_table(&self.output_table);
        for stream in &self.streams {
            for source in &stream.sources {
                let _ = storage.drop_table(&source.table_name);
            }
        }
        for stream in &mut self.streams {
            for source in &mut stream.sources {
                if let SourceKind::Local(wrapper) = &mut source.kind {
                    wrapper.shutdown();
                }
            }
        }
    }

    /// The deployment descriptor.
    pub fn descriptor(&self) -> &VirtualSensorDescriptor {
        &self.descriptor
    }

    /// The sensor name.
    pub fn name(&self) -> &VirtualSensorName {
        &self.descriptor.name
    }

    /// The declared output schema.
    pub fn output_schema(&self) -> &Arc<StreamSchema> {
        &self.output_schema
    }

    /// The storage table holding the output stream.
    pub fn output_table(&self) -> &str {
        &self.output_table
    }

    /// Processing statistics.
    pub fn stats(&self) -> SensorStats {
        self.stats
    }

    /// Per-source stream-quality counters, keyed by `(input stream, alias)`.
    pub fn source_quality(&self) -> Vec<(String, String, SourceQuality)> {
        self.streams
            .iter()
            .flat_map(|s| {
                s.sources.iter().map(move |src| {
                    (
                        s.name.clone(),
                        src.spec.alias.clone(),
                        src.monitor.quality(),
                    )
                })
            })
            .collect()
    }

    /// The remote sources this sensor depends on: `(producer node, remote sensor, source ref)`.
    pub fn remote_sources(&self) -> Vec<(NodeId, String, SourceRef)> {
        let mut out = Vec::new();
        for (si, stream) in self.streams.iter().enumerate() {
            for (ci, source) in stream.sources.iter().enumerate() {
                if let SourceKind::Remote { producer, sensor } = &source.kind {
                    out.push((*producer, sensor.clone(), (si, ci)));
                }
            }
        }
        out
    }

    /// Adapts a remote source's storage table to the schema actually delivered by the
    /// producer.
    ///
    /// Remote schemas are not known at deployment time (the directory stores only
    /// discovery metadata), so the source table is created with a placeholder schema and
    /// re-created from the first delivered element.  Once data has been stored, a schema
    /// change is an error — the producer changed shape mid-stream.
    pub fn ensure_remote_schema(
        &mut self,
        source_ref: SourceRef,
        element: &StreamElement,
        storage: &StorageManager,
    ) -> GsnResult<()> {
        let (stream_idx, source_idx) = source_ref;
        let source = self
            .streams
            .get(stream_idx)
            .and_then(|s| s.sources.get(source_idx))
            .ok_or_else(|| GsnError::internal("invalid source reference"))?;
        if !matches!(source.kind, SourceKind::Remote { .. }) {
            return Ok(());
        }
        let table = storage.table(&source.table_name)?;
        let (compatible, empty) = {
            let guard = table.read();
            (
                guard.schema().is_compatible_with(element.schema()),
                guard.is_empty(),
            )
        };
        if compatible {
            return Ok(());
        }
        if !empty {
            return Err(GsnError::storage(format!(
                "remote source `{}` changed its schema mid-stream",
                source.spec.alias
            )));
        }
        storage.drop_table(&source.table_name)?;
        storage.create_table(
            &source.table_name,
            Arc::clone(element.schema()),
            source.spec.window.retention(),
        )?;
        Ok(())
    }

    /// Polls every local wrapper for elements due by `now`.
    pub fn poll_local_sources(&mut self, now: Timestamp) -> Vec<(SourceRef, StreamElement)> {
        let mut arrivals = Vec::new();
        for (si, stream) in self.streams.iter_mut().enumerate() {
            for (ci, source) in stream.sources.iter_mut().enumerate() {
                if let SourceKind::Local(wrapper) = &mut source.kind {
                    match wrapper.poll(now) {
                        Ok(elements) => {
                            for e in elements {
                                arrivals.push(((si, ci), e));
                            }
                        }
                        Err(err) if err.is_transient() => {
                            // Transient wrapper failures are a stream-quality event, not a
                            // sensor failure.
                            source.monitor.check_silence(now);
                        }
                        Err(_) => {
                            // Permanent wrapper errors are surfaced through statistics.
                        }
                    }
                }
            }
        }
        arrivals
    }

    /// Checks every source for silence (no data within the quality policy's threshold).
    pub fn check_silence(&mut self, now: Timestamp) -> Vec<(String, String)> {
        let mut newly_silent = Vec::new();
        for stream in &mut self.streams {
            for source in &mut stream.sources {
                if source.monitor.check_silence(now) {
                    newly_silent.push((stream.name.clone(), source.spec.alias.clone()));
                }
            }
        }
        newly_silent
    }

    /// Handles the arrival of one element for one source: runs the full pipeline and
    /// returns the new output element, if one was produced.
    pub fn process_arrival(
        &mut self,
        source_ref: SourceRef,
        element: StreamElement,
        now: Timestamp,
        storage: &StorageManager,
    ) -> GsnResult<Option<StreamElement>> {
        let started = Instant::now();
        self.stats.arrivals += 1;
        let (stream_idx, source_idx) = source_ref;
        let result = self.run_pipeline(stream_idx, source_idx, element, now, storage);
        let elapsed = started.elapsed().as_micros() as u64;
        self.stats.total_processing_micros += elapsed;
        self.stats.last_processing_micros = elapsed;
        match &result {
            Ok(Some(_)) => self.stats.outputs += 1,
            Ok(None) => {}
            Err(_) => self.stats.errors += 1,
        }
        result
    }

    fn run_pipeline(
        &mut self,
        stream_idx: usize,
        source_idx: usize,
        element: StreamElement,
        now: Timestamp,
        storage: &StorageManager,
    ) -> GsnResult<Option<StreamElement>> {
        let stream = self
            .streams
            .get_mut(stream_idx)
            .ok_or_else(|| GsnError::internal("invalid input stream index"))?;
        let source = stream
            .sources
            .get_mut(source_idx)
            .ok_or_else(|| GsnError::internal("invalid source index"))?;

        // Step 1: ISM intake (timestamping, quality accounting).
        let element = source.monitor.intake(element, now);

        // Store the raw element in the source's windowed table.
        storage.insert(&source.table_name, element, now)?;

        // Rate bound: the element is retained in the window but does not trigger a
        // pipeline execution when the input stream exceeds its configured rate.
        if !stream.rate_limiter.admit(now) {
            source.monitor.record_rate_limited();
            return Ok(None);
        }
        self.stats.triggers += 1;

        // Steps 2–3: each source query reads its window live through its `wrapper` view
        // and leaves a temporary relation.
        let mut temp_catalog = MemoryCatalog::new();
        for src in &stream.sources {
            let window = LiveCatalog::new(storage, std::slice::from_ref(&src.wrapper), now);
            let temp = self.engine.execute_prepared(&src.source_query, &window)?;
            temp_catalog.register(&src.spec.alias, temp);
        }

        // Step 4: the output query over the temporary relations.
        let output_relation = self
            .engine
            .execute_prepared(&stream.output_query, &temp_catalog)?;

        // Step 5: bind the result to the output structure, persist, and hand it back for
        // notification by the container.
        let Some(output_element) = output_relation.to_stream_element(&self.output_schema, now)?
        else {
            return Ok(None);
        };
        let stored = storage.insert(&self.output_table, output_element, now)?;
        Ok(Some(stored))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::{DataType, Value};
    use gsn_xml::{AddressSpec, InputStreamSpec};

    fn mote_descriptor(name: &str, interval_ms: u32) -> VirtualSensorDescriptor {
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
                            .with_predicate("seed", "11"),
                        "select avg(temperature) as avg_temp from WRAPPER",
                    )
                    .with_window(gsn_storage::WindowSpec::Count(10)),
                ),
            )
            .build()
            .unwrap()
    }

    fn deploy(descriptor: VirtualSensorDescriptor, storage: &StorageManager) -> VirtualSensor {
        let registry = WrapperRegistry::with_builtins();
        VirtualSensor::deploy(
            descriptor,
            &registry,
            storage,
            |_| Err(GsnError::not_found("no remote resolution in this test")),
            Timestamp::EPOCH,
        )
        .unwrap()
    }

    #[test]
    fn deploy_creates_tables_and_prepared_queries() {
        let storage = StorageManager::new();
        let vs = deploy(mote_descriptor("room-temp", 100), &storage);
        assert_eq!(vs.output_table(), "room_temp");
        assert!(storage.has_table("room_temp"));
        assert!(storage.has_table("room_temp__src1"));
        assert_eq!(vs.output_schema().names(), vec!["AVG_TEMP"]);
        assert!(vs.remote_sources().is_empty());
    }

    #[test]
    fn poll_and_process_produces_outputs() {
        let storage = StorageManager::new();
        let mut vs = deploy(mote_descriptor("room-temp", 100), &storage);
        let arrivals = vs.poll_local_sources(Timestamp(1_000));
        assert_eq!(arrivals.len(), 10);
        let mut outputs = 0;
        for (source_ref, element) in arrivals {
            let ts = element.timestamp();
            if vs
                .process_arrival(source_ref, element, ts, &storage)
                .unwrap()
                .is_some()
            {
                outputs += 1;
            }
        }
        assert_eq!(outputs, 10);
        let stats = vs.stats();
        assert_eq!(stats.arrivals, 10);
        assert_eq!(stats.triggers, 10);
        assert_eq!(stats.outputs, 10);
        assert_eq!(stats.errors, 0);
        assert!(stats.mean_processing_ms() >= 0.0);

        // The output table now holds 10 averaged readings, queryable through SQL.
        let table = storage.table("room_temp").unwrap();
        assert_eq!(table.read().len(), 10);
        let quality = vs.source_quality();
        assert_eq!(quality.len(), 1);
        assert_eq!(quality[0].2.accepted, 10);
    }

    #[test]
    fn output_values_are_window_averages() {
        let storage = StorageManager::new();
        // Use a push wrapper so the test controls the exact readings.
        let registry = WrapperRegistry::with_builtins();
        let descriptor = VirtualSensorDescriptor::builder("avg-two")
            .unwrap()
            .output_field("avg_temp", DataType::Double)
            .unwrap()
            .permanent_storage(true)
            .input_stream(
                InputStreamSpec::new("main", "select * from s").with_source(
                    StreamSourceSpec::new(
                        "s",
                        AddressSpec::new("push")
                            .with_predicate("channel", "test-feed")
                            .with_predicate("field-1", "temperature")
                            .with_predicate("type-1", "integer"),
                        "select avg(temperature) as avg_temp from WRAPPER",
                    )
                    .with_window(gsn_storage::WindowSpec::Count(2)),
                ),
            )
            .build()
            .unwrap();
        let mut vs = VirtualSensor::deploy(
            descriptor,
            &registry,
            &storage,
            |_| Err(GsnError::not_found("unused")),
            Timestamp::EPOCH,
        )
        .unwrap();

        let schema =
            Arc::new(StreamSchema::from_pairs(&[("temperature", DataType::Integer)]).unwrap());
        for (i, temp) in [10i64, 20, 40].iter().enumerate() {
            let e = StreamElement::new(schema.clone(), vec![Value::Integer(*temp)], Timestamp(0))
                .unwrap();
            let out = vs
                .process_arrival((0, 0), e, Timestamp((i as i64 + 1) * 100), &storage)
                .unwrap()
                .unwrap();
            let avg = out.value("AVG_TEMP").unwrap().as_double().unwrap();
            match i {
                0 => assert_eq!(avg, 10.0),
                1 => assert_eq!(avg, 15.0),
                _ => assert_eq!(avg, 30.0), // count window of 2: (20+40)/2
            }
        }
        // Elements arriving without a timestamp were stamped by the ISM.
        assert_eq!(vs.source_quality()[0].2.locally_timestamped, 3);
    }

    /// A source query reads its own window only: one naming another table, directly or
    /// in a subquery, does not deploy even when that table exists.
    #[test]
    fn source_queries_reading_other_tables_do_not_deploy() {
        let storage = StorageManager::new();
        deploy(mote_descriptor("room-temp", 100), &storage);
        for query in [
            "select avg(temp) as avg_temp from room_temp",
            "select avg(temperature) as avg_temp from wrapper \
             where temperature > (select min(avg_temp) from room_temp)",
        ] {
            let mut descriptor = mote_descriptor("reader", 100);
            descriptor.input_streams[0].sources[0].query = query.to_owned();
            let err = VirtualSensor::deploy(
                descriptor,
                &WrapperRegistry::with_builtins(),
                &storage,
                |_| Err(GsnError::not_found("no remote resolution in this test")),
                Timestamp::EPOCH,
            )
            .unwrap_err();
            assert!(err.to_string().contains("room_temp"), "{query}: {err}");
        }
        assert!(!storage.has_table("reader"));
    }

    /// Pins what a multi-row output query emits today: `to_stream_element` keeps row 0
    /// only, so `select *` over a `Count(5)` window emits the window's *oldest* row on
    /// every arrival (scan order is oldest first).
    #[test]
    fn multi_row_output_emits_the_oldest_window_row() {
        let storage = StorageManager::new();
        let descriptor = VirtualSensorDescriptor::builder("multi-row")
            .unwrap()
            .output_field("temperature", DataType::Integer)
            .unwrap()
            .input_stream(
                InputStreamSpec::new("main", "select * from src1").with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("push")
                            .with_predicate("channel", "multi-row-feed")
                            .with_predicate("field-1", "temperature")
                            .with_predicate("type-1", "integer"),
                        "select * from wrapper",
                    )
                    .with_window(gsn_storage::WindowSpec::Count(5)),
                ),
            )
            .build()
            .unwrap();
        let mut vs = deploy(descriptor, &storage);
        let schema =
            Arc::new(StreamSchema::from_pairs(&[("temperature", DataType::Integer)]).unwrap());
        let mut emitted = Vec::new();
        for temp in 1..=8i64 {
            let e = StreamElement::new(schema.clone(), vec![Value::Integer(temp)], Timestamp(0))
                .unwrap();
            let out = vs
                .process_arrival((0, 0), e, Timestamp(temp * 100), &storage)
                .unwrap()
                .expect("every arrival emits one element");
            emitted.push(out.value("TEMPERATURE").unwrap().as_integer().unwrap());
        }
        assert_eq!(emitted, vec![1, 1, 1, 1, 1, 2, 3, 4]);
    }

    /// A spilled time window across pauses longer than the window (one before anything
    /// spilled, one that expires every spilled row): the deployed sensor's outputs, its
    /// source table's scans and a `LiveCatalog` query all equal a memory-only twin's.
    #[test]
    fn spilled_source_window_across_pauses_matches_memory() {
        use gsn_storage::{PersistentOptions, ScanBounds, StorageOptions, WindowSpec};
        let window = WindowSpec::Time(gsn_types::Duration::from_millis(500));
        let descriptor = VirtualSensorDescriptor::builder("paused")
            .unwrap()
            .output_field("n", DataType::Integer)
            .unwrap()
            .output_field("lo", DataType::Integer)
            .unwrap()
            .input_stream(
                InputStreamSpec::new("main", "select * from src1").with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("push")
                            .with_predicate("channel", "paused-feed")
                            .with_predicate("field-1", "v")
                            .with_predicate("type-1", "integer")
                            .with_predicate("field-2", "payload")
                            .with_predicate("type-2", "binary"),
                        "select count(*) as n, min(v) as lo from wrapper",
                    )
                    .with_window(window),
                ),
            )
            .build()
            .unwrap();
        let memory = StorageManager::new();
        let spilled = StorageManager::with_options(StorageOptions {
            data_dir: Some(gsn_storage::testutil::temp_dir("sensor-spill-pause")),
            persistent: PersistentOptions {
                pool_pages: 4,
                segment_pages: 2,
                ..Default::default()
            },
            window_spill_bytes: Some(2 * 1024),
        });
        let mut sensors = [
            deploy(descriptor.clone(), &memory),
            deploy(descriptor, &spilled),
        ];
        let source = VirtualSensor::source_table_name(&sensors[0].descriptor().name, "src1");
        let schema = Arc::new(
            StreamSchema::from_pairs(&[("v", DataType::Integer), ("payload", DataType::Binary)])
                .unwrap(),
        );
        let views = [CatalogView::new("w", &source, WindowSpec::Count(40))];
        let mut sql = SqlEngine::new();
        let mut ts = 0;
        for v in 1..=300i64 {
            ts += if v == 11 || v == 201 { 10_000 } else { 10 };
            let now = Timestamp(ts);
            let e = StreamElement::new(
                schema.clone(),
                vec![Value::Integer(v), Value::binary(vec![0u8; 100])],
                now,
            )
            .unwrap();
            let reads: Vec<_> = sensors
                .iter_mut()
                .zip([&memory, &spilled])
                .map(|(vs, storage)| {
                    let out = vs.process_arrival((0, 0), e.clone(), now, storage).unwrap();
                    let scanned: Vec<(u64, Value)> = storage
                        .table(&source)
                        .unwrap()
                        .read()
                        .scan(window, now, &ScanBounds::default())
                        .unwrap()
                        .iter()
                        .map(|e| (e.sequence(), e.value("V").unwrap()))
                        .collect();
                    let live = sql
                        .execute(
                            "select count(*), min(v), max(pk) from w",
                            &LiveCatalog::new(storage, &views, now),
                        )
                        .unwrap();
                    (
                        out.unwrap().values().to_vec(),
                        scanned,
                        live.rows().to_vec(),
                    )
                })
                .collect();
            assert_eq!(reads[0], reads[1], "arrival {v}");
        }
        let stats = spilled.stats();
        assert!(
            stats.spill_migrations > 2,
            "the window must spill repeatedly: {stats:?}"
        );
    }

    #[test]
    fn rate_limit_suppresses_excess_triggers() {
        let storage = StorageManager::new();
        let descriptor = VirtualSensorDescriptor::builder("bounded")
            .unwrap()
            .output_field("avg_temp", DataType::Double)
            .unwrap()
            .input_stream(
                InputStreamSpec::new("main", "select * from src1")
                    .with_rate_limit(10) // at most one trigger per 100 ms
                    .with_source(
                        StreamSourceSpec::new(
                            "src1",
                            AddressSpec::new("mote").with_predicate("interval", "10"),
                            "select avg(temperature) as avg_temp from WRAPPER",
                        )
                        .with_window(gsn_storage::WindowSpec::Count(100)),
                    ),
            )
            .build()
            .unwrap();
        let mut vs = deploy(descriptor, &storage);
        let arrivals = vs.poll_local_sources(Timestamp(1_000));
        assert_eq!(arrivals.len(), 100);
        let mut outputs = 0;
        for (source_ref, element) in arrivals {
            let ts = element.timestamp();
            if vs
                .process_arrival(source_ref, element, ts, &storage)
                .unwrap()
                .is_some()
            {
                outputs += 1;
            }
        }
        assert_eq!(outputs, 10);
        let quality = &vs.source_quality()[0].2;
        assert_eq!(quality.accepted, 100);
        assert_eq!(quality.rate_limited, 90);
        // Every element is still retained in the window even when it did not trigger.
        assert_eq!(storage.table("bounded__src1").unwrap().read().len(), 100);
    }

    #[test]
    fn failed_deployment_rolls_back_tables() {
        let storage = StorageManager::new();
        let registry = WrapperRegistry::with_builtins();
        // The second source names an unknown wrapper, so deployment fails after the first
        // source's table was created.
        let descriptor = VirtualSensorDescriptor::builder("broken")
            .unwrap()
            .output_field("v", DataType::Double)
            .unwrap()
            .input_stream(
                InputStreamSpec::new("main", "select * from a")
                    .with_source(StreamSourceSpec::new(
                        "a",
                        AddressSpec::new("mote"),
                        "select temperature as v from WRAPPER",
                    ))
                    .with_source(StreamSourceSpec::new(
                        "b",
                        AddressSpec::new("hyperspectral-imager"),
                        "select * from WRAPPER",
                    )),
            )
            .build()
            .unwrap();
        let result = VirtualSensor::deploy(
            descriptor,
            &registry,
            &storage,
            |_| Err(GsnError::not_found("unused")),
            Timestamp::EPOCH,
        );
        assert!(result.is_err());
        assert!(
            storage.table_names().is_empty(),
            "{:?}",
            storage.table_names()
        );
    }

    #[test]
    fn remote_sources_are_resolved_through_the_callback() {
        let storage = StorageManager::new();
        let registry = WrapperRegistry::with_builtins();
        let descriptor = VirtualSensorDescriptor::builder("follower")
            .unwrap()
            .output_field("avg_temp", DataType::Double)
            .unwrap()
            .input_stream(
                InputStreamSpec::new("main", "select * from r").with_source(
                    StreamSourceSpec::new(
                        "r",
                        AddressSpec::new("remote")
                            .with_predicate("type", "temperature")
                            .with_predicate("location", "bc143"),
                        "select avg(avg_temp) as avg_temp from WRAPPER",
                    )
                    .with_window(gsn_storage::WindowSpec::Count(5)),
                ),
            )
            .build()
            .unwrap();
        let vs = VirtualSensor::deploy(
            descriptor,
            &registry,
            &storage,
            |address| {
                assert_eq!(address.predicate("location"), Some("bc143"));
                Ok((NodeId::new(9), "room-bc143-temperature".to_owned()))
            },
            Timestamp::EPOCH,
        )
        .unwrap();
        let remotes = vs.remote_sources();
        assert_eq!(remotes.len(), 1);
        assert_eq!(remotes[0].0, NodeId::new(9));
        assert_eq!(remotes[0].1, "room-bc143-temperature");
        assert_eq!(remotes[0].2, (0, 0));
    }

    #[test]
    fn teardown_drops_tables_and_duplicate_deploy_fails() {
        let storage = StorageManager::new();
        let mut vs = deploy(mote_descriptor("once", 100), &storage);
        // A second deployment of the same name collides on the output table.
        let registry = WrapperRegistry::with_builtins();
        let dup = VirtualSensor::deploy(
            mote_descriptor("once", 100),
            &registry,
            &storage,
            |_| Err(GsnError::not_found("unused")),
            Timestamp::EPOCH,
        );
        assert!(dup.is_err());
        vs.teardown(&storage);
        assert!(storage.table_names().is_empty());
    }

    #[test]
    fn silence_detection_reports_quiet_sources() {
        let storage = StorageManager::new();
        let mut vs = deploy(mote_descriptor("quiet", 100), &storage);
        // Feed one arrival, then let a long time pass with no data.
        let arrivals = vs.poll_local_sources(Timestamp(100));
        let (source_ref, element) = arrivals.into_iter().next().unwrap();
        vs.process_arrival(source_ref, element, Timestamp(100), &storage)
            .unwrap();
        let silent = vs.check_silence(Timestamp(100 + 31_000));
        assert_eq!(silent.len(), 1);
        assert_eq!(silent[0].1, "src1");
        assert_eq!(vs.check_silence(Timestamp(100 + 62_000)).len(), 0);
    }
}
