//! Telemetry-layer integration tests.
//!
//! 1. **Histogram correctness.**  The log-bucketed latency histogram must report
//!    exact counts/sums/maxima, monotone quantiles, and merge-equals-combined
//!    recording, for arbitrary inputs.
//! 2. **Container export surface.**  A stepped container exposes ≥30 distinct
//!    metrics spanning the step loop, storage, SQL and network subsystems, and
//!    its Prometheus rendering parses as well-formed exposition text.
//! 3. **Structured tracing.**  Spans are off (and free) by default; when enabled
//!    the pipeline hierarchy (step → phases, element → pipeline/query/notify)
//!    is recorded with intact parent links.
//! 4. **Slow-query log.**  Queries over the threshold land in the log with
//!    their plan explain; the log stays empty at the default threshold 0.
//! 5. **Federation scraping.**  A peer's `MetricsSnapshot` arrives over a lossy
//!    simnet link via request/retry, exactly like remote-cursor traffic.
//! 6. **Distributed trace propagation.**  Traced federated queries over a
//!    25%-loss simnet assemble exactly one connected tree per trace id, and
//!    untraced ("old wire format") containers interoperate with traced ones.

use std::sync::Arc;

use gsn::container::ContainerConfig;
use gsn::network::LinkSpec;
use gsn::telemetry::{Histogram, SpanId};
use gsn::types::{DataType, Duration, NodeId, SimulatedClock};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::{GsnContainer, Mesh, WindowSpec};
use proptest::prelude::*;

fn mote_descriptor(name: &str, interval_ms: u32, seed: u32) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .output_field("avg_temp", DataType::Double)
        .unwrap()
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

/// A small stepped workload: `sensors` motes, one registered query, `steps`
/// one-second steps, one ad-hoc query at the end.
fn stepped_node(config: ContainerConfig, sensors: usize, steps: usize) -> GsnContainer {
    let clock = SimulatedClock::new();
    let mut node = GsnContainer::new(config, Arc::new(clock.clone()));
    for i in 0..sensors {
        node.deploy(mote_descriptor(&format!("mote-{i}"), 100, i as u32))
            .unwrap();
    }
    node.register_query(
        "client-0",
        "select count(*) as n, avg(avg_temp) as a from mote_0",
        WindowSpec::Count(20),
        None,
    )
    .unwrap();
    for _ in 0..steps {
        clock.advance(Duration::from_secs(1));
        let report = node.step();
        assert_eq!(report.errors, 0);
    }
    node.query("select pk, avg_temp from mote_0").unwrap();
    node
}

// ---------------------------------------------------------------------------------------
// Histogram correctness
// ---------------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_summary_is_exact_and_monotone(
        values in prop::collection::vec(0u64..2_000_000, 1..200)
    ) {
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let s = hist.summary();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
        prop_assert_eq!(s.max, *values.iter().max().unwrap());
        // Quantiles are bucket upper bounds: monotone, bounded by the exact max's
        // bucket, and never below the smallest observation.
        prop_assert!(s.p50 <= s.p90);
        prop_assert!(s.p90 <= s.p99);
        let min = *values.iter().min().unwrap();
        prop_assert!(s.p50 >= min, "p50 {} below min {}", s.p50, min);
        // Power-of-two buckets: the p99 upper bound is less than 2x the true max.
        prop_assert!(s.p99 < s.max.max(1).saturating_mul(2));
    }

    #[test]
    fn histogram_merge_equals_combined_recording(
        xs in prop::collection::vec(0u64..1_000_000, 0..100),
        ys in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for &v in &xs {
            a.record(v);
            combined.record(v);
        }
        for &v in &ys {
            b.record(v);
            combined.record(v);
        }
        a.merge_from(&b);
        prop_assert_eq!(a.summary(), combined.summary());
    }
}

// ---------------------------------------------------------------------------------------
// Container export surface
// ---------------------------------------------------------------------------------------

#[test]
fn container_exports_metrics_across_every_subsystem() {
    let node = stepped_node(ContainerConfig::default(), 2, 3);
    let snapshot = node.metrics_snapshot();
    assert!(
        snapshot.distinct_names() >= 30,
        "only {} distinct metrics exported",
        snapshot.distinct_names()
    );
    for prefix in ["gsn_step", "gsn_storage", "gsn_sql", "gsn_query", "gsn_net"] {
        assert!(
            snapshot.metrics.iter().any(|m| m.name.starts_with(prefix)),
            "no metric with prefix {prefix}"
        );
    }
    // The step loop actually recorded: counters moved and latencies were observed.
    assert_eq!(
        snapshot.get("gsn_steps_total").unwrap().as_counter(),
        Some(3)
    );
    let lat = snapshot
        .get("gsn_step_micros")
        .unwrap()
        .as_histogram()
        .unwrap();
    assert_eq!(lat.count, 3);
    assert!(
        snapshot
            .get("gsn_step_local_arrivals_total")
            .unwrap()
            .as_counter()
            .unwrap()
            > 0
    );
    assert!(
        snapshot
            .get("gsn_storage_rows_inserted_total")
            .unwrap()
            .as_counter()
            .unwrap()
            > 0
    );
    assert!(
        snapshot
            .get("gsn_sql_executions_total")
            .unwrap()
            .as_counter()
            .unwrap()
            > 0
    );
}

/// A minimal Prometheus text-exposition parser: every non-comment line must be
/// `name[{labels}] value`, every series name must have HELP/TYPE headers, and
/// every TYPE must be a legal Prometheus type.
#[test]
fn prometheus_rendering_is_well_formed_exposition_text() {
    let node = stepped_node(ContainerConfig::default(), 2, 3);
    let text = node.render_prometheus();
    assert!(!text.is_empty());
    let mut typed: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE line has a name");
            let kind = parts.next().expect("TYPE line has a type");
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind),
                "illegal TYPE {kind} for {name}"
            );
            typed.push(name.to_owned());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // Series line: `name value` or `name{label="v",...} value`.
        let (series, value) = line.rsplit_once(' ').expect("series line has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable sample value in {line:?}"));
        let base = series.split('{').next().unwrap();
        assert!(
            base.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name {base:?}"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated label set in {line:?}");
        }
        // Histograms render `_sum` / `_count` series under the family's headers.
        let family = base
            .strip_suffix("_sum")
            .filter(|f| typed.contains(&f.to_string()))
            .or_else(|| {
                base.strip_suffix("_count")
                    .filter(|f| typed.contains(&f.to_string()))
            })
            .unwrap_or(base);
        assert!(
            typed.iter().any(|t| t == family),
            "series {base} has no preceding TYPE header"
        );
    }
    assert!(
        typed.len() >= 30,
        "only {} metric families rendered",
        typed.len()
    );
}

// ---------------------------------------------------------------------------------------
// Structured tracing
// ---------------------------------------------------------------------------------------

#[test]
fn tracing_is_off_by_default_and_captures_hierarchy_when_enabled() {
    // Default: disabled, nothing recorded.
    let quiet = stepped_node(ContainerConfig::default(), 1, 2);
    assert!(!quiet.trace_log().is_enabled());
    assert!(quiet.trace_log().snapshot().is_empty());

    // Enabled: the step and element hierarchies are captured with parent links.
    let node = stepped_node(ContainerConfig::default().with_tracing(true), 1, 2);
    let spans = node.trace_log().snapshot();
    assert!(!spans.is_empty());

    let step_root = spans
        .iter()
        .find(|s| s.name == "step")
        .expect("step root span");
    assert_eq!(step_root.parent, SpanId::NONE);
    let phases: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent == step_root.id)
        .map(|s| s.name)
        .collect();
    assert!(phases.contains(&"step.pipelines"), "phases: {phases:?}");
    assert!(phases.contains(&"step.storage"), "phases: {phases:?}");

    let element_root = spans
        .iter()
        .find(|s| s.name == "element")
        .expect("element root span");
    assert_eq!(element_root.parent, SpanId::NONE);
    let children = node.trace_log().descendants_of(element_root.id);
    assert!(
        children.iter().any(|s| s.name == "pipeline"),
        "element children: {:?}",
        children.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    // The wrapper poll runs outside any element (it *produces* the elements).
    assert!(spans.iter().any(|s| s.name == "wrapper.poll"));
    assert_eq!(node.trace_log().dropped(), 0);
}

// ---------------------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------------------

#[test]
fn slow_query_log_captures_queries_over_the_threshold() {
    // Threshold 0 (the default) keeps the log disabled entirely.
    let quiet = stepped_node(ContainerConfig::default(), 1, 2);
    assert!(quiet.slow_queries().is_empty());

    // Threshold 1µs: effectively every query lands in the log, with its explain.
    let node = stepped_node(
        ContainerConfig::default().with_slow_query_threshold(1),
        1,
        2,
    );
    let slow = node.slow_queries();
    assert!(
        !slow.is_empty(),
        "no slow queries captured at 1µs threshold"
    );
    let adhoc = slow
        .iter()
        .find(|q| q.sql.contains("select pk, avg_temp from mote_0"))
        .expect("the ad-hoc query is in the log");
    assert!(adhoc.micros >= 1);
    assert!(
        !adhoc.explain.is_empty(),
        "slow query carries its plan explain"
    );
    assert!(adhoc.rows_returned > 0);
}

// ---------------------------------------------------------------------------------------
// Federation scraping
// ---------------------------------------------------------------------------------------

#[test]
fn peers_scrape_metrics_snapshots_over_a_lossy_link() {
    let mut fed = Mesh::new();
    let alpha = fed.add_node("alpha").unwrap();
    let beta = fed.add_node("beta").unwrap();
    // A lossy wireless link in both directions: the scrape must survive retries.
    fed.set_link(alpha, beta, LinkSpec::wireless(5, 0.25));

    fed.node_mut(beta)
        .unwrap()
        .deploy(mote_descriptor("beta-mote", 100, 7))
        .unwrap();
    fed.run_for(Duration::from_secs(2), Duration::from_millis(100));

    let request = fed
        .node_mut(alpha)
        .unwrap()
        .request_peer_metrics(beta)
        .unwrap();
    let mut scraped = None;
    for _ in 0..300 {
        fed.step(Duration::from_millis(100));
        if let Some(snapshot) = fed.node_mut(alpha).unwrap().take_peer_metrics(request) {
            scraped = Some(snapshot);
            break;
        }
    }
    let snapshot = scraped.expect("peer snapshot never arrived over the lossy link");
    // The scraped snapshot is the peer's full export surface, not a digest.
    assert!(snapshot.distinct_names() >= 30);
    let steps = snapshot
        .get("gsn_steps_total")
        .and_then(|s| s.as_counter())
        .unwrap_or(0);
    assert!(steps > 0, "peer reported no steps");
    assert!(
        snapshot
            .get("gsn_storage_rows_inserted_total")
            .and_then(|s| s.as_counter())
            .unwrap_or(0)
            > 0
    );
    // The cached copy remains queryable by node id after the take.
    assert!(fed.node(alpha).unwrap().peer_metrics(beta).is_some());
}

// ---------------------------------------------------------------------------------------
// Distributed trace propagation
// ---------------------------------------------------------------------------------------

/// An N-node mesh where node `i` traces iff `tracing[i]`, every node hosting a
/// shard of the same logical `mesh_temp` table.
fn tracing_mesh(tracing: &[bool]) -> (Mesh, Vec<NodeId>) {
    let mut mesh = Mesh::new();
    let ids: Vec<_> = tracing
        .iter()
        .enumerate()
        .map(|(i, &traced)| {
            let config = ContainerConfig::named(NodeId::new(i as u64 + 1), &format!("trace-{i}"))
                .with_tracing(traced);
            mesh.add_node_with_config(config).unwrap()
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        mesh.node_mut(*id)
            .unwrap()
            .deploy(mote_descriptor("mesh-temp", 100, i as u32))
            .unwrap();
    }
    (mesh, ids)
}

/// Steps the mesh until no node has a trace collection in flight.
fn drain_trace_collects(mesh: &mut Mesh, ids: &[NodeId]) {
    for _ in 0..600 {
        if ids
            .iter()
            .all(|id| mesh.node(*id).unwrap().pending_trace_collects() == 0)
        {
            return;
        }
        mesh.step(Duration::from_millis(50));
    }
    panic!("trace collections never drained");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Federated queries from random coordinators over links dropping 25% of
    /// frames: every coordinator must end up with exactly one assembled tree per
    /// trace id, each connected (one root, every parent link resolvable) with
    /// mesh-unique span ids — losses are absorbed by re-sends, never by forked
    /// or duplicated trees.
    #[test]
    fn lossy_trace_propagation_yields_one_connected_tree_per_trace(
        coordinators in prop::collection::vec(0usize..4, 1..4)
    ) {
        let (mut mesh, ids) = tracing_mesh(&[true; 4]);
        mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
        prop_assert!(mesh.replicas_converged(), "gossip did not converge");
        // Loss starts only after the (lossless) join handshakes and warm-up.
        mesh.set_all_links(LinkSpec::wireless(5, 0.25));

        let mut expected = [0usize; 4];
        for &c in &coordinators {
            mesh.federated_query(
                ids[c],
                "select count(*) as n from mesh_temp",
                Duration::from_millis(50),
                600,
            )
            .unwrap();
            expected[c] += 1;
        }
        drain_trace_collects(&mut mesh, &ids);

        for (i, id) in ids.iter().enumerate() {
            let traces = mesh.node(*id).unwrap().assembled_traces();
            prop_assert_eq!(
                traces.len(), expected[i],
                "node {} assembled {} traces, expected {}", i, traces.len(), expected[i]
            );
            let mut trace_ids = std::collections::HashSet::new();
            for trace in &traces {
                prop_assert!(
                    trace_ids.insert(trace.trace_id),
                    "two trees assembled for trace {:032x}", trace.trace_id
                );
                prop_assert!(!trace.incomplete, "broken parent links in {:032x}", trace.trace_id);
                let mut span_ids = std::collections::HashSet::new();
                for span in &trace.spans {
                    prop_assert_eq!(span.trace_id, trace.trace_id);
                    prop_assert!(
                        span_ids.insert(span.id),
                        "span id {} appears twice (namespacing broken)", span.id
                    );
                }
                prop_assert_eq!(
                    trace.spans.iter().filter(|s| s.id == trace.root).count(),
                    1,
                    "trace {:032x} does not have exactly one root", trace.trace_id
                );
                for span in &trace.spans {
                    prop_assert!(
                        span.id == trace.root || span_ids.contains(&span.parent),
                        "span {} is disconnected from the tree", span.id
                    );
                }
            }
        }
    }
}

/// Mixed meshes keep working: an untraced container sends no trace context in
/// its frames, serves traced coordinators without contributing spans, and — as
/// a coordinator — runs federated queries that never start a trace.
#[test]
fn untraced_containers_interoperate_with_traced_ones() {
    let (mut mesh, ids) = tracing_mesh(&[true, true, true, false]);
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
    assert!(mesh.replicas_converged(), "gossip did not converge");

    // Traced coordinator, one untraced participant: the gather completes and the
    // tree is complete — it simply carries spans only from the traced members.
    mesh.federated_query(
        ids[0],
        "select count(*) as n from mesh_temp",
        Duration::from_millis(100),
        100,
    )
    .unwrap();
    drain_trace_collects(&mut mesh, &ids);
    let traces = mesh.node(ids[0]).unwrap().assembled_traces();
    assert_eq!(traces.len(), 1);
    let traced_members: Vec<u64> = ids[..3].iter().map(|n| n.as_u64()).collect();
    assert_eq!(traces[0].nodes, traced_members);
    assert!(!traces[0].incomplete);

    // Untraced coordinator: the query itself works (its frames carry no trace
    // context), and no trace is started or collected anywhere.
    let rel = mesh
        .federated_query(
            ids[3],
            "select count(*) as n from mesh_temp",
            Duration::from_millis(100),
            100,
        )
        .unwrap();
    assert!(rel.rows()[0][0].as_integer().unwrap() >= 0);
    assert_eq!(mesh.node(ids[3]).unwrap().pending_trace_collects(), 0);
    assert!(mesh.node(ids[3]).unwrap().assembled_traces().is_empty());
}
