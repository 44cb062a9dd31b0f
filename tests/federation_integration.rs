//! Integration tests for the peer-to-peer mesh: discovery through each node's
//! gossip-replicated directory (over the same lossy links as the data), remote virtual
//! sensors across nodes, link quality and access control, and scatter-gather federated
//! queries.

use gsn::network::{LinkSpec, Operation, Principal};
use gsn::types::{DataType, Duration};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::{Mesh, WindowSpec};
use proptest::prelude::*;

fn temperature_producer(name: &str, location: &str, interval_ms: u64) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .metadata("type", "temperature")
        .metadata("location", location)
        .output_field("temperature", DataType::Double)
        .unwrap()
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src").with_source(
                StreamSourceSpec::new(
                    "src",
                    AddressSpec::new("mote").with_predicate("interval", &interval_ms.to_string()),
                    "select avg(temperature) as temperature from WRAPPER",
                )
                .with_window(WindowSpec::Count(5)),
            ),
        )
        .build()
        .unwrap()
}

fn remote_consumer(name: &str, location: &str) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .output_field("temperature", DataType::Double)
        .unwrap()
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from r").with_source(
                StreamSourceSpec::new(
                    "r",
                    AddressSpec::new("remote")
                        .with_predicate("type", "temperature")
                        .with_predicate("location", location),
                    "select avg(temperature) as temperature from WRAPPER",
                )
                .with_window(WindowSpec::Time(Duration::from_secs(10))),
            ),
        )
        .build()
        .unwrap()
}

#[test]
fn discovery_and_remote_streaming_between_nodes() {
    let mut fed = Mesh::new();
    let producer = fed.add_node("producer").unwrap();
    let consumer = fed.add_node("consumer").unwrap();
    fed.set_link(producer, consumer, LinkSpec::lan());

    fed.node_mut(producer)
        .unwrap()
        .deploy(temperature_producer("bc143-temp", "bc143", 200))
        .unwrap();
    // Gossip carries the producer's entry to the consumer's replica.
    fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
    fed.node_mut(consumer)
        .unwrap()
        .deploy(remote_consumer("bc143-follower", "bc143"))
        .unwrap();

    // Directory-level discovery by arbitrary property combinations.
    let directory = fed.node(consumer).unwrap();
    let by_type = directory.replica_lookup(&[("type".into(), "temperature".into())]);
    assert_eq!(by_type.len(), 1);
    let by_both = directory.replica_lookup(&[
        ("type".into(), "temperature".into()),
        ("location".into(), "bc143".into()),
    ]);
    assert_eq!(by_both.len(), 1);
    assert!(directory
        .replica_lookup(&[("location".into(), "elsewhere".into())])
        .is_empty());

    let report = fed.run_for(Duration::from_secs(5), Duration::from_millis(200));
    assert!(report.remote_arrivals > 0);
    assert_eq!(report.errors, 0);

    let produced = fed
        .node_mut(producer)
        .unwrap()
        .query("select count(*) from bc143_temp")
        .unwrap()
        .rows()[0][0]
        .as_integer()
        .unwrap();
    let consumed = fed
        .node_mut(consumer)
        .unwrap()
        .query("select count(*) from bc143_follower")
        .unwrap()
        .rows()[0][0]
        .as_integer()
        .unwrap();
    assert!(produced >= 20);
    assert!(consumed > 0);
    // The consumer can lose a little to subscription latency but must track the producer.
    assert!(
        consumed as f64 >= produced as f64 * 0.5,
        "consumer saw only {consumed} of {produced} elements"
    );

    // Undeploying the producer removes it from the directory, once its tombstone
    // gossips to the consumer's replica.
    fed.node_mut(producer)
        .unwrap()
        .undeploy("bc143-temp")
        .unwrap();
    fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
    assert!(fed
        .node(consumer)
        .unwrap()
        .replica_lookup(&[("type".into(), "temperature".into())])
        .is_empty());
}

#[test]
fn three_node_chain_of_remote_sensors() {
    // node A produces; node B averages A remotely; node C averages B remotely.
    let mut fed = Mesh::new();
    let a = fed.add_node("a").unwrap();
    let b = fed.add_node("b").unwrap();
    let c = fed.add_node("c").unwrap();

    fed.node_mut(a)
        .unwrap()
        .deploy(temperature_producer("origin", "floor-a", 200))
        .unwrap();
    fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
    // B's sensor both consumes remotely and is itself published with new metadata.
    let mut b_sensor = remote_consumer("floor-a-average", "floor-a");
    b_sensor.metadata = vec![
        ("type".to_owned(), "temperature-aggregate".to_owned()),
        ("location".to_owned(), "floor-a".to_owned()),
    ];
    fed.node_mut(b).unwrap().deploy(b_sensor).unwrap();
    fed.run_for(Duration::from_secs(1), Duration::from_millis(100));

    let c_sensor = VirtualSensorDescriptor::builder("campus-view")
        .unwrap()
        .output_field("temperature", DataType::Double)
        .unwrap()
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from agg").with_source(
                StreamSourceSpec::new(
                    "agg",
                    AddressSpec::new("remote").with_predicate("type", "temperature-aggregate"),
                    "select avg(temperature) as temperature from WRAPPER",
                )
                .with_window(WindowSpec::Count(10)),
            ),
        )
        .build()
        .unwrap();
    fed.node_mut(c).unwrap().deploy(c_sensor).unwrap();

    fed.run_for(Duration::from_secs(10), Duration::from_millis(200));
    let end_of_chain = fed
        .node_mut(c)
        .unwrap()
        .query("select count(*), avg(temperature) from campus_view")
        .unwrap();
    let n = end_of_chain.rows()[0][0].as_integer().unwrap();
    assert!(n > 0, "data did not flow across the two-hop chain");
    let t = end_of_chain.rows()[0][1].as_double().unwrap();
    assert!((10.0..=40.0).contains(&t));
}

/// A `wrapper="remote"` consumer of the sensor `reads`, published under
/// `type=<publishes>`.
fn relay(name: &str, reads: &str, publishes: &str) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .metadata("type", publishes)
        .output_field("temperature", DataType::Double)
        .unwrap()
        .input_stream(
            InputStreamSpec::new("main", "select * from r").with_source(
                StreamSourceSpec::new(
                    "r",
                    AddressSpec::new("remote").with_predicate("type", reads),
                    "select temperature from WRAPPER",
                )
                .with_window(WindowSpec::Count(1)),
            ),
        )
        .build()
        .unwrap()
}

/// Runs a loop-back chain `stage-c → stage-b → stage-a` on one node for one step and
/// returns the step report and every stage's table.  The chain runs against name
/// order, so each stage runs before the one feeding it: only inline delivery gets an
/// arrival at `stage-c` through to `stage-a` within the step.
fn loop_back_chain() -> (gsn::StepReport, Vec<Vec<Vec<gsn::types::Value>>>) {
    let mut mesh = Mesh::new();
    let node = mesh.add_node("solo").unwrap();
    let container = mesh.node_mut(node).unwrap();
    container
        .deploy(temperature_producer("stage-c", "lab", 100))
        .unwrap();
    container
        .deploy(relay("stage-b", "temperature", "relayed"))
        .unwrap();
    container
        .deploy(relay("stage-a", "relayed", "end-of-chain"))
        .unwrap();
    let mut report = mesh.step(Duration::from_secs(1));
    report.processing_micros = 0;
    let container = mesh.node(node).unwrap();
    let tables = ["stage_c", "stage_b", "stage_a"]
        .iter()
        .map(|table| {
            let sql = format!("select pk, timed, temperature from {table}");
            container.query(&sql).unwrap().rows().to_vec()
        })
        .collect();
    assert_eq!(mesh.network().stats().sent, 0, "loop-back sends no frame");
    (report, tables)
}

#[test]
fn loop_back_chain_delivers_inline_within_one_step() {
    let (report, tables) = loop_back_chain();
    assert_eq!(report.local_arrivals, 10);
    assert_eq!(report.remote_arrivals, 20);
    assert_eq!(report.outputs, 30);
    assert_eq!(report.errors, 0);
    // Every stage saw all ten readings, with the same values end to end.
    let values = |rows: &Vec<Vec<gsn::types::Value>>| -> Vec<gsn::types::Value> {
        rows.iter().map(|row| row[2].clone()).collect()
    };
    assert_eq!(tables[0].len(), 10);
    assert_eq!(values(&tables[0]), values(&tables[1]));
    assert_eq!(values(&tables[1]), values(&tables[2]));
    // Two runs agree exactly.
    assert_eq!(loop_back_chain(), (report, tables));
}

#[test]
fn lossy_links_still_deliver_a_usable_stream() {
    let mut fed = Mesh::new();
    let producer = fed.add_node("producer").unwrap();
    let consumer = fed.add_node("consumer").unwrap();
    fed.set_link(producer, consumer, LinkSpec::wireless(20, 0.3));

    fed.node_mut(producer)
        .unwrap()
        .deploy(temperature_producer("lossy-origin", "roof", 100))
        .unwrap();
    // Discovery crosses the lossy link too: gossip rounds repeat until the entry lands.
    fed.run_for(Duration::from_secs(2), Duration::from_millis(100));
    fed.node_mut(consumer)
        .unwrap()
        .deploy(remote_consumer("roof-follower", "roof"))
        .unwrap();
    fed.run_for(Duration::from_secs(10), Duration::from_millis(100));

    let stats = fed.network().stats();
    assert!(stats.dropped > 0, "the lossy link should drop something");
    let consumed = fed
        .node_mut(consumer)
        .unwrap()
        .query("select count(*) from roof_follower")
        .unwrap()
        .rows()[0][0]
        .as_integer()
        .unwrap();
    assert!(
        consumed > 10,
        "only {consumed} elements made it through the lossy link"
    );
}

#[test]
fn subscription_refused_by_access_control() {
    let mut fed = Mesh::new();
    let producer = fed.add_node("producer").unwrap();
    let consumer = fed.add_node("consumer").unwrap();

    fed.node_mut(producer)
        .unwrap()
        .deploy(temperature_producer("vault-temp", "vault", 100))
        .unwrap();
    // Only a specific operator may subscribe; the consumer node is not it.
    fed.node(producer)
        .unwrap()
        .access_control()
        .restrict_sensor("vault-temp", vec![Principal::named("operator")]);
    assert!(!fed.node(producer).unwrap().access_control().check(
        &Principal::named(&consumer.to_string()),
        Operation::Subscribe,
        "vault-temp"
    ));

    fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
    fed.node_mut(consumer)
        .unwrap()
        .deploy(remote_consumer("vault-follower", "vault"))
        .unwrap();
    fed.run_for(Duration::from_secs(3), Duration::from_millis(100));

    // The producer keeps producing, but nothing reaches the refused subscriber.
    let consumed = fed
        .node_mut(consumer)
        .unwrap()
        .query("select count(*) from vault_follower")
        .unwrap()
        .rows()[0][0]
        .as_integer()
        .unwrap();
    assert_eq!(consumed, 0);
    let producer_status = fed.node(producer).unwrap().status();
    assert_eq!(producer_status.notifications.remote_delivered, 0);
}

// ---------------------------------------------------------------------------------------
// Mesh tier: replicated directory, scatter-gather
// ---------------------------------------------------------------------------------------

/// Builds an N-node mesh where every node hosts a shard of the same logical table.
fn sharded_mesh(nodes: usize) -> (Mesh, Vec<gsn::types::NodeId>) {
    let mut mesh = Mesh::new();
    let ids: Vec<_> = (0..nodes)
        .map(|i| mesh.add_node(&format!("shard-{i}")).unwrap())
        .collect();
    for id in &ids {
        mesh.node_mut(*id)
            .unwrap()
            .deploy(temperature_producer("mesh-temp", "mesh", 100))
            .unwrap();
    }
    (mesh, ids)
}

fn shard_count(mesh: &mut Mesh, node: gsn::types::NodeId) -> i64 {
    mesh.node_mut(node)
        .unwrap()
        .query("select count(*) as n from mesh_temp")
        .unwrap()
        .rows()[0][0]
        .as_integer()
        .unwrap()
}

#[test]
fn eight_container_aggregate_ships_only_partial_frames() {
    let (mut mesh, ids) = sharded_mesh(8);
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
    assert!(mesh.replicas_converged(), "gossip did not converge");
    for id in &ids {
        assert_eq!(mesh.node(*id).unwrap().ring_members().len(), 8);
    }

    let before: i64 = ids.iter().map(|n| shard_count(&mut mesh, *n)).sum();
    let rel = mesh
        .federated_query(
            ids[0],
            "select count(*) as n, min(temperature) as lo, max(temperature) as hi \
             from mesh_temp",
            Duration::from_millis(100),
            100,
        )
        .unwrap();
    let after: i64 = ids.iter().map(|n| shard_count(&mut mesh, *n)).sum();
    let n = rel.rows()[0][0].as_integer().unwrap();
    assert!(
        (before..=after).contains(&n),
        "federated count {n} outside [{before}, {after}]"
    );
    let lo = rel.rows()[0][1].as_double().unwrap();
    let hi = rel.rows()[0][2].as_double().unwrap();
    assert!(lo <= hi && (5.0..=45.0).contains(&lo) && (5.0..=45.0).contains(&hi));

    // The acceptance bar for container-side decomposition: an aggregate over eight
    // containers moves ONLY partial-aggregate frames — not a single row batch.
    assert_eq!(mesh.network().sent_of_kind("query-batch"), 0);
    assert_eq!(mesh.network().sent_of_kind("query-request"), 0);
    assert!(mesh.network().sent_of_kind("partial-aggregate-request") >= 7);
    assert!(mesh.network().sent_of_kind("partial-aggregate-reply") >= 7);
}

#[test]
fn federated_aggregate_survives_a_node_leaving_mid_run() {
    let (mut mesh, ids) = sharded_mesh(3);
    mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
    assert!(mesh.replicas_converged());

    // One container leaves mid-run; its entries tombstone and the ring shrinks, so a
    // coordinator must neither wait on it nor fail the scatter.
    mesh.remove_node(ids[1]).unwrap();
    mesh.run_for(Duration::from_millis(500), Duration::from_millis(100));
    let rel = mesh
        .federated_query(
            ids[2],
            "select count(*) as n from mesh_temp",
            Duration::from_millis(100),
            100,
        )
        .unwrap();
    let survivors: i64 = [ids[0], ids[2]]
        .iter()
        .map(|n| shard_count(&mut mesh, *n))
        .sum();
    let n = rel.rows()[0][0].as_integer().unwrap();
    assert!(
        n > 0 && n <= survivors,
        "count {n} vs survivors {survivors}"
    );
    for id in [ids[0], ids[2]] {
        assert_eq!(mesh.node(id).unwrap().ring_members(), vec![ids[0], ids[2]]);
    }
}

/// Rows of `mesh_temp` above `threshold`, summed over the nodes' local shards.
fn shard_count_above(mesh: &mut Mesh, ids: &[gsn::types::NodeId], threshold: f64) -> i64 {
    ids.iter()
        .map(|id| {
            mesh.node_mut(*id)
                .unwrap()
                .query(&format!(
                    "select count(*) from mesh_temp where temperature > {threshold}"
                ))
                .unwrap()
                .rows()[0][0]
                .as_integer()
                .unwrap()
        })
        .sum()
}

#[test]
fn row_shipped_query_ships_its_subquery_tables() {
    let (mut mesh, ids) = sharded_mesh(2);
    mesh.node_mut(ids[1])
        .unwrap()
        .deploy(temperature_producer("other-temp", "other", 100))
        .unwrap();
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
    assert!(mesh.replicas_converged(), "gossip did not converge");

    // `other_temp` lives on the second node only and keeps every row, so its minimum
    // never rises while the query runs.
    let other_min = |mesh: &mut Mesh| {
        mesh.node_mut(ids[1])
            .unwrap()
            .query("select min(temperature) from other_temp")
            .unwrap()
            .rows()[0][0]
            .as_double()
            .unwrap()
    };
    let min_before = other_min(&mut mesh);
    let lower = shard_count_above(&mut mesh, &ids, min_before);
    let rel = mesh
        .federated_query(
            ids[0],
            "select temperature from mesh_temp \
             where temperature > (select min(temperature) from other_temp)",
            Duration::from_millis(100),
            100,
        )
        .unwrap();
    let min_after = other_min(&mut mesh);
    let upper = shard_count_above(&mut mesh, &ids, min_after);

    let n = rel.row_count() as i64;
    assert!(
        (lower..=upper).contains(&n),
        "federated rows {n} outside [{lower}, {upper}]"
    );
    for row in rel.rows() {
        assert!(row[0].as_double().unwrap() > min_after);
    }
    // Not decomposable into partials: the rows of both tables travelled.
    assert!(mesh.network().sent_of_kind("query-batch") > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random register/deregister interleavings on four containers whose pairwise links
    /// drop 30% of messages: every replica must converge to the identical record set
    /// within a bounded number of gossip rounds once mutations stop.
    #[test]
    fn random_directory_interleavings_converge_under_loss(
        ops in prop::collection::vec((0usize..4, 0usize..5), 4..16)
    ) {
        let mut mesh = Mesh::new();
        let ids: Vec<_> = (0..4)
            .map(|i| mesh.add_node(&format!("prop-{i}")).unwrap())
            .collect();
        // Loss starts only after the (lossless) join handshakes.
        mesh.set_all_links(LinkSpec::wireless(5, 0.3));

        let mut deployed = [[false; 5]; 4];
        for (node_idx, sensor_idx) in ops {
            let node = ids[node_idx];
            let name = format!("prop-sensor-{sensor_idx}");
            if deployed[node_idx][sensor_idx] {
                mesh.node_mut(node).unwrap().undeploy(&name).unwrap();
            } else {
                mesh.node_mut(node)
                    .unwrap()
                    .deploy(temperature_producer(&name, "prop", 500))
                    .unwrap();
            }
            deployed[node_idx][sensor_idx] = !deployed[node_idx][sensor_idx];
            // A little concurrent traffic between mutations.
            mesh.step(Duration::from_millis(50));
        }

        // Bounded convergence: each 100 ms tick runs one gossip round per node (the
        // interval is two container steps and Mesh steps containers twice per tick).
        let mut converged_after = None;
        for round in 0..150 {
            if mesh.replicas_converged() {
                converged_after = Some(round);
                break;
            }
            mesh.step(Duration::from_millis(100));
        }
        prop_assert!(
            converged_after.is_some(),
            "replicas did not converge within 150 gossip rounds under 30% loss"
        );
        // And convergence is to the *correct* live set, not just any agreement: every
        // sensor the interleaving left deployed is visible everywhere, tombstoned ones
        // are not.
        for (node_idx, flags) in deployed.iter().enumerate() {
            for (sensor_idx, live) in flags.iter().enumerate() {
                let name = format!("prop-sensor-{sensor_idx}");
                let hosted = mesh
                    .node(ids[0])
                    .unwrap()
                    .replica_snapshot()
                    .iter()
                    .any(|r| !r.deleted && r.node == ids[node_idx] && r.sensor == name);
                prop_assert_eq!(
                    hosted, *live,
                    "sensor {} on node {} expected live={}", name, node_idx, live
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------------------
// Distributed tracing + mesh health plane
// ---------------------------------------------------------------------------------------

/// Like [`sharded_mesh`] but every container runs with structured tracing on and a
/// 1 µs slow-query threshold, so federated queries produce spans and hop breakdowns.
fn traced_sharded_mesh(nodes: usize) -> (Mesh, Vec<gsn::types::NodeId>) {
    let mut mesh = Mesh::new();
    let ids: Vec<_> = (0..nodes)
        .map(|i| {
            let config = gsn::ContainerConfig::named(
                gsn::types::NodeId::new(i as u64 + 1),
                &format!("traced-{i}"),
            )
            .with_tracing(true)
            .with_slow_query_threshold(1);
            mesh.add_node_with_config(config).unwrap()
        })
        .collect();
    for id in &ids {
        mesh.node_mut(*id)
            .unwrap()
            .deploy(temperature_producer("mesh-temp", "mesh", 100))
            .unwrap();
    }
    (mesh, ids)
}

#[test]
fn traced_federated_query_assembles_one_tree_spanning_all_containers() {
    let (mut mesh, ids) = traced_sharded_mesh(4);
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
    assert!(mesh.replicas_converged(), "gossip did not converge");

    mesh.federated_query(
        ids[0],
        "select count(*) as n, avg(temperature) as t from mesh_temp",
        Duration::from_millis(100),
        100,
    )
    .unwrap();

    // The coordinator fires a trace collection at every scattered-to host as soon as
    // the gather completes; step until the last peer's span slice arrives.
    for _ in 0..200 {
        if mesh.node(ids[0]).unwrap().pending_trace_collects() == 0 {
            break;
        }
        mesh.step(Duration::from_millis(50));
    }
    assert_eq!(mesh.node(ids[0]).unwrap().pending_trace_collects(), 0);

    let traces = mesh.node(ids[0]).unwrap().assembled_traces();
    assert_eq!(traces.len(), 1, "expected exactly one assembled trace");
    let trace = &traces[0];
    assert!(!trace.incomplete, "assembled trace has broken parent links");
    let expected: Vec<u64> = ids.iter().map(|n| n.as_u64()).collect();
    assert_eq!(
        trace.nodes, expected,
        "the trace tree must carry spans from every participating container"
    );
    // One root (the coordinator's federated.query span), every other span reachable.
    let roots = trace.spans.iter().filter(|s| s.id == trace.root).count();
    assert_eq!(roots, 1);
    assert!(trace
        .spans
        .iter()
        .any(|s| s.name == "federated.serve" && s.node != ids[0].as_u64()));

    // Satellite: the same query landed in the coordinator's slow-query log with a
    // per-hop breakdown for each of the three remote participants.
    let slow = mesh.node(ids[0]).unwrap().slow_queries();
    let entry = slow
        .iter()
        .find(|q| q.explain.contains("scatter-gather"))
        .expect("federated query missing from the slow-query log");
    assert_eq!(entry.hops.len(), 3);
    for hop in &entry.hops {
        assert!(expected.contains(&hop.peer));
        assert!(hop.rtt_millis > 0, "hop to {} recorded no RTT", hop.peer);
    }
}

#[test]
fn wal_fault_on_one_node_is_observed_degraded_from_another() {
    use gsn::telemetry::HealthState;

    let (mut mesh, ids) = sharded_mesh(4);
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
    assert!(mesh.replicas_converged(), "gossip did not converge");

    // Every member's summary reaches every node via gossip piggybacking.
    for id in &ids {
        let view = mesh.node(*id).unwrap().mesh_health();
        assert_eq!(
            view.len(),
            ids.len(),
            "node {id} sees only {} of {} health summaries",
            view.len(),
            ids.len()
        );
    }

    // Drive node 0's storage subsystem over its WAL-sync budget (50 ms p99 budget,
    // 10× unhealthy factor) with synthetic 500 ms fsync observations, then let the
    // fault gossip out.
    mesh.node(ids[0])
        .unwrap()
        .inject_wal_sync_latency(500_000, 16);
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));

    // Observed from a *different* node: the replicated health view grades node 0's
    // storage Degraded or worse, while an unfaulted member stays Healthy.
    let view = mesh.node(ids[2]).unwrap().mesh_health();
    let faulted = view
        .iter()
        .find(|s| s.node == ids[0].as_u64())
        .expect("node 0's health summary missing from node 2's view");
    let storage = faulted
        .state_of("storage")
        .expect("no storage subsystem grade");
    assert!(
        storage >= HealthState::Degraded,
        "injected WAL fault not reflected: storage graded {storage:?}"
    );
    let clean = view
        .iter()
        .find(|s| s.node == ids[1].as_u64())
        .expect("node 1's health summary missing from node 2's view");
    assert_eq!(clean.state_of("storage"), Some(HealthState::Healthy));

    // The faulted node's own status line agrees with what the mesh sees.
    let status = mesh.node(ids[0]).unwrap().status();
    assert!(status.health.worst() >= HealthState::Degraded);
    assert!(status.render().contains("health storage:"));
}
