//! A federation of GSN containers: the multi-node harness.
//!
//! The paper's demo deploys four sensor networks across three GSN nodes connected in a
//! peer-to-peer fashion (Section 6, Figure 5).  [`Mesh`] reproduces that topology in one
//! process: a shared simulated network and clock, and any number of containers, each
//! discovering sensors through its own gossip-replicated directory.  Stepping the mesh
//! advances the clock and steps every container twice per tick — once to produce and
//! send, once to drain deliveries — so that messages sent in a tick are observed within
//! the same tick when link latency allows.

use std::collections::BTreeMap;
use std::sync::Arc;

use gsn_network::{LinkSpec, SimulatedNetwork};
use gsn_types::{Duration, GsnError, GsnResult, NodeId, SimulatedClock, Timestamp};

use crate::config::ContainerConfig;
use crate::container::{GsnContainer, StepReport};

/// A federation of *mesh* containers: no shared directory, no shared anything except
/// the simulated network and clock.
///
/// Each container holds its own gossip-replicated directory plus a consistent-hash
/// placement ring, so lookup and placement survive any single node leaving, and
/// discovery travels the same (possibly lossy) links as the data.  Nodes join
/// sequentially through [`add_node`](Mesh::add_node) (each new node seeds its ring view
/// from an existing member and announces the grown view) and leave through
/// [`remove_node`](Mesh::remove_node).
pub struct Mesh {
    network: Arc<SimulatedNetwork>,
    clock: SimulatedClock,
    nodes: BTreeMap<NodeId, GsnContainer>,
    next_node: u64,
}

impl Default for Mesh {
    fn default() -> Self {
        Mesh::new()
    }
}

impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mesh({} nodes)", self.nodes.len())
    }
}

impl Mesh {
    /// Creates an empty mesh starting at simulated time zero.
    pub fn new() -> Mesh {
        Mesh {
            network: Arc::new(SimulatedNetwork::new()),
            clock: SimulatedClock::new(),
            nodes: BTreeMap::new(),
            next_node: 1,
        }
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimulatedClock {
        &self.clock
    }

    /// The current simulated time.
    pub fn now(&self) -> Timestamp {
        use gsn_types::Clock as _;
        self.clock.now()
    }

    /// The shared network (for configuring links, partitions, inspecting statistics).
    pub fn network(&self) -> &Arc<SimulatedNetwork> {
        &self.network
    }

    /// Adds a mesh container with an auto-assigned node id.  The new node seeds its
    /// ring view from an arbitrary existing member (the mesh's introducer), then
    /// announces the grown membership to everyone.
    pub fn add_node(&mut self, name: &str) -> GsnResult<NodeId> {
        let node_id = NodeId::new(self.next_node);
        self.next_node += 1;
        let config = ContainerConfig::named(node_id, name);
        self.add_node_with_config(config)
    }

    /// Adds a mesh container with an explicit configuration.
    pub fn add_node_with_config(&mut self, config: ContainerConfig) -> GsnResult<NodeId> {
        let node_id = config.node_id;
        if self.nodes.contains_key(&node_id) {
            return Err(GsnError::already_exists(format!(
                "{node_id} already exists"
            )));
        }
        let seed = self
            .nodes
            .values()
            .next()
            .map(|c| (c.ring_members(), c.ring_epoch()))
            .unwrap_or_default();
        let mut container = GsnContainer::with_mesh(
            config,
            Arc::new(self.clock.clone()),
            Arc::clone(&self.network),
        )?;
        container.mesh_bootstrap(&seed.0, seed.1);
        self.nodes.insert(node_id, container);
        // Drain the join announce (default links have 1 ms latency) so every member
        // adopts the grown view before the next join seeds from it.  Two joins seeding
        // from the same stale view would otherwise fork the ring at equal epochs.
        self.step(Duration::from_millis(2));
        Ok(node_id)
    }

    /// Removes a container from the mesh gracefully: its directory entries are
    /// tombstoned and pushed to the survivors along with the shrunk ring view, then the
    /// container is dropped.  Returns an error if the node is unknown.
    pub fn remove_node(&mut self, node: NodeId) -> GsnResult<()> {
        let mut container = self
            .nodes
            .remove(&node)
            .ok_or_else(|| GsnError::not_found(format!("{node} is not part of this mesh")))?;
        container.mesh_leave();
        Ok(())
    }

    /// The node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Mutable access to a container.
    pub fn node_mut(&mut self, node: NodeId) -> GsnResult<&mut GsnContainer> {
        self.nodes
            .get_mut(&node)
            .ok_or_else(|| GsnError::not_found(format!("{node} is not part of this mesh")))
    }

    /// Shared access to a container.
    pub fn node(&self, node: NodeId) -> GsnResult<&GsnContainer> {
        self.nodes
            .get(&node)
            .ok_or_else(|| GsnError::not_found(format!("{node} is not part of this mesh")))
    }

    /// Configures the link between two nodes.
    pub fn set_link(&self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.network.set_link(a, b, spec);
    }

    /// Configures every pairwise link in the mesh at once.
    pub fn set_all_links(&self, spec: LinkSpec) {
        let ids = self.node_ids();
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                self.network.set_link(*a, *b, spec);
            }
        }
    }

    /// Advances the simulated clock by `delta` and steps every container twice: the
    /// first pass polls wrappers and sends remote deliveries; the second pass drains
    /// whatever arrived within the same tick.
    pub fn step(&mut self, delta: Duration) -> StepReport {
        self.clock.advance(delta);
        let mut report = StepReport::default();
        for _pass in 0..2 {
            for container in self.nodes.values_mut() {
                report.absorb(container.step());
            }
        }
        report
    }

    /// Runs the mesh for `total` simulated time in `tick`-sized steps.
    pub fn run_for(&mut self, total: Duration, tick: Duration) -> StepReport {
        let mut report = StepReport::default();
        let ticks = (total.as_millis() / tick.as_millis().max(1)).max(1);
        for _ in 0..ticks {
            let r = self.step(tick);
            report.absorb(r);
        }
        report
    }

    /// Issues a federated query from `via` and steps the mesh until the scatter-gather
    /// completes, up to `max_ticks` ticks of `tick` each.
    pub fn federated_query(
        &mut self,
        via: NodeId,
        sql: &str,
        tick: Duration,
        max_ticks: usize,
    ) -> GsnResult<gsn_sql::Relation> {
        let request = self.node_mut(via)?.federated_query(sql)?;
        for _ in 0..max_ticks {
            if let Some(result) = self.node_mut(via)?.take_federated_result(request) {
                return result;
            }
            self.step(tick);
        }
        if let Some(result) = self.node_mut(via)?.take_federated_result(request) {
            return result;
        }
        Err(GsnError::internal(format!(
            "federated query did not complete within {max_ticks} ticks"
        )))
    }

    /// True when every pair of live replicas holds an identical record snapshot.
    pub fn replicas_converged(&self) -> bool {
        let mut snapshots = self.nodes.values().map(|c| c.replica_snapshot());
        let Some(first) = snapshots.next() else {
            return true;
        };
        snapshots.all(|s| s == first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::DataType;
    use gsn_xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};

    fn deploy(mesh: &mut Mesh, node: NodeId, descriptor: VirtualSensorDescriptor) {
        mesh.node_mut(node).unwrap().deploy(descriptor).unwrap();
    }

    fn producer_descriptor() -> VirtualSensorDescriptor {
        VirtualSensorDescriptor::builder("room-bc143-temperature")
            .unwrap()
            .metadata("type", "temperature")
            .metadata("location", "bc143")
            .output_field("temperature", DataType::Double)
            .unwrap()
            .permanent_storage(true)
            .input_stream(
                InputStreamSpec::new("main", "select * from src1").with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("mote").with_predicate("interval", "100"),
                        "select avg(temperature) as temperature from WRAPPER",
                    )
                    .with_window(gsn_storage::WindowSpec::Count(5)),
                ),
            )
            .build()
            .unwrap()
    }

    fn consumer_descriptor() -> VirtualSensorDescriptor {
        // The paper's Figure 1: a virtual sensor averaging a *remote* temperature stream
        // addressed purely by predicates.
        VirtualSensorDescriptor::builder("averaged-bc143")
            .unwrap()
            .output_field("temperature", DataType::Double)
            .unwrap()
            .permanent_storage(true)
            .input_stream(
                InputStreamSpec::new("dummy", "select * from src1").with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("remote")
                            .with_predicate("type", "temperature")
                            .with_predicate("location", "bc143"),
                        "select avg(temperature) as temperature from WRAPPER",
                    )
                    .with_window(gsn_storage::WindowSpec::Time(Duration::from_secs(10))),
                ),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn federation_setup_and_node_access() {
        let mut fed = Mesh::new();
        let a = fed.add_node("node-a").unwrap();
        let b = fed.add_node("node-b").unwrap();
        assert_eq!(fed.node_ids(), vec![a, b]);
        assert!(fed.node(a).is_ok());
        assert!(fed.node_mut(b).is_ok());
        assert!(fed.node(NodeId::new(99)).is_err());
        assert!(fed
            .add_node_with_config(ContainerConfig::named(a, "dup"))
            .is_err());
        // Each join drains its ring announce, which advances the shared clock.
        assert!(fed.now() > Timestamp::EPOCH);
    }

    #[test]
    fn remote_virtual_sensor_flows_across_nodes() {
        let mut fed = Mesh::new();
        let producer_node = fed.add_node("producer").unwrap();
        let consumer_node = fed.add_node("consumer").unwrap();
        fed.set_link(producer_node, consumer_node, LinkSpec::lan());

        deploy(&mut fed, producer_node, producer_descriptor());
        // Once gossip carries the producer's entry to the consumer's replica, the
        // consumer's remote source resolves.
        fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
        deploy(&mut fed, consumer_node, consumer_descriptor());
        assert_eq!(
            fed.node(consumer_node).unwrap().replica_lookup(&[]).len(),
            2
        );

        let report = fed.run_for(Duration::from_secs(2), Duration::from_millis(100));
        assert!(report.outputs > 0);
        assert!(report.remote_arrivals > 0, "remote deliveries expected");

        // The consumer's output table contains averaged remote temperatures.
        let rel = fed
            .node_mut(consumer_node)
            .unwrap()
            .query("select count(*) as n, avg(temperature) as t from averaged_bc143")
            .unwrap();
        let n = rel.rows()[0][0].as_integer().unwrap();
        assert!(n > 0, "consumer produced no outputs");
        let t = rel.rows()[0][1].as_double().unwrap();
        assert!((10.0..=40.0).contains(&t), "implausible temperature {t}");

        let status: String = fed
            .node_ids()
            .into_iter()
            .map(|node| fed.node(node).unwrap().status().render())
            .collect();
        assert!(status.contains("producer"));
        assert!(status.contains("consumer"));
        assert!(fed.network().stats().delivered > 0);
    }

    /// Steps the mesh in 10 ms ticks until `request`'s result can be taken.
    fn await_remote(
        fed: &mut Mesh,
        client: NodeId,
        request: gsn_network::RequestId,
    ) -> GsnResult<crate::RemoteQueryResult> {
        for _ in 0..50 {
            fed.step(Duration::from_millis(10));
            let node = fed.node_mut(client).unwrap();
            if let Some(result) = node.take_remote_query_result(request) {
                return result;
            }
        }
        panic!("remote query never completed");
    }

    #[test]
    fn remote_streaming_query_ships_incremental_batches() {
        let mut fed = Mesh::new();
        let producer_node = fed.add_node("producer").unwrap();
        let client_node = fed.add_node("client").unwrap();
        fed.set_link(producer_node, client_node, LinkSpec::lan());
        deploy(&mut fed, producer_node, producer_descriptor());
        // Accumulate ~20 output rows in the producer's permanent-storage table.
        fed.run_for(Duration::from_secs(2), Duration::from_millis(100));

        let request = fed
            .node_mut(client_node)
            .unwrap()
            .remote_query(
                producer_node,
                "select temperature from room_bc143_temperature",
                4,
            )
            .unwrap();
        let result = await_remote(&mut fed, client_node, request).unwrap();
        assert!(result.relation.row_count() >= 20, "{result:?}");
        assert!(
            result.batches > 1,
            "result should ship in multiple batches, got {}",
            result.batches
        );
        assert_eq!(result.relation.columns()[0].name, "TEMPERATURE");
        // All server-side cursors are closed once the stream completes.
        assert_eq!(fed.node(producer_node).unwrap().open_remote_cursors(), 0);

        // A failing remote query surfaces the server's error.
        let request = fed
            .node_mut(client_node)
            .unwrap()
            .remote_query(producer_node, "select * from nosuch_table", 4)
            .unwrap();
        let error = await_remote(&mut fed, client_node, request).unwrap_err();
        assert!(error.to_string().contains("nosuch_table"), "{error}");
    }

    #[test]
    fn remote_streaming_query_survives_a_lossy_link() {
        let mut fed = Mesh::new();
        let producer_node = fed.add_node("producer").unwrap();
        let client_node = fed.add_node("client").unwrap();
        // A wireless link dropping ~30% of all messages: QueryRequest, QueryNext and
        // QueryBatch messages are all lost regularly.  Batch sequence numbers plus the
        // client's re-request timer must recover every loss.
        fed.set_link(producer_node, client_node, LinkSpec::wireless(5, 0.3));
        deploy(&mut fed, producer_node, producer_descriptor());
        fed.run_for(Duration::from_secs(2), Duration::from_millis(100));
        let reference = fed
            .node_mut(producer_node)
            .unwrap()
            .query("select count(*) as n from room_bc143_temperature")
            .unwrap()
            .rows()[0][0]
            .as_integer()
            .unwrap();
        assert!(reference >= 20);

        let request = fed
            .node_mut(client_node)
            .unwrap()
            .remote_query(
                producer_node,
                "select pk, temperature from room_bc143_temperature",
                2,
            )
            .unwrap();
        let mut result = None;
        // Retries pace at 2 s; give the exchange plenty of simulated time.
        for _ in 0..400 {
            fed.step(Duration::from_millis(500));
            if let Some(r) = fed
                .node_mut(client_node)
                .unwrap()
                .take_remote_query_result(request)
            {
                result = Some(r.unwrap());
                break;
            }
        }
        let result = result.expect("remote query never completed over the lossy link");
        // At least the pre-query snapshot arrived (the producer keeps producing while
        // retries run, so the cursor's own snapshot may be larger)...
        assert!(
            result.relation.row_count() as i64 >= reference,
            "{result:?}"
        );
        assert!(result.batches > 1);
        // ...and the PK column is gap-free and duplicate-free from row 1: retransmitted
        // batches were deduplicated and no dropped batch left a hole.
        let pks: Vec<i64> = result
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_integer().unwrap())
            .collect();
        let expected: Vec<i64> = (1..=pks.len() as i64).collect();
        assert_eq!(pks, expected);
        assert!(
            fed.network().stats().dropped > 0,
            "the link was supposed to be lossy"
        );
    }

    #[test]
    fn abandoned_remote_cursors_are_reaped() {
        let mut fed = Mesh::new();
        let producer_node = fed.add_node("producer").unwrap();
        let client_node = fed.add_node("client").unwrap();
        deploy(&mut fed, producer_node, producer_descriptor());
        fed.run_for(Duration::from_secs(1), Duration::from_millis(100));

        // A raw QueryRequest whose follow-up pulls never come: the request id is
        // unknown on the client container, so it drops the first QueryBatch and sends
        // no QueryNext — the server-side cursor is abandoned mid-stream.
        fed.network()
            .send(
                client_node,
                producer_node,
                gsn_network::Message::QueryRequest {
                    request: 999,
                    sql: "select temperature from room_bc143_temperature".into(),
                    batch_rows: 1,
                    trace: None,
                },
                fed.now(),
            )
            .unwrap();
        fed.step(Duration::from_millis(100));
        assert_eq!(fed.node(producer_node).unwrap().open_remote_cursors(), 1);

        // A client request whose responses can never come back (the link partitions
        // right after the request is sent) is a stalled client-side entry.
        let stalled = fed
            .node_mut(client_node)
            .unwrap()
            .remote_query(producer_node, "select 1 from room_bc143_temperature", 4)
            .unwrap();
        fed.network().partition(client_node, producer_node);
        fed.step(Duration::from_millis(100));
        assert_eq!(fed.node(client_node).unwrap().pending_remote_queries(), 1);

        // Once the idle timeout elapses, the step loops reap both the abandoned
        // server cursor and the stalled client request, so neither side leaks.
        fed.run_for(Duration::from_secs(61), Duration::from_secs(1));
        assert_eq!(fed.node(producer_node).unwrap().open_remote_cursors(), 0);
        assert_eq!(fed.node(client_node).unwrap().pending_remote_queries(), 0);
        assert!(fed
            .node_mut(client_node)
            .unwrap()
            .take_remote_query_result(stalled)
            .is_none());

        // Cancellation removes a tracked request immediately.
        fed.network().heal_partition(client_node, producer_node);
        let cancelled = fed
            .node_mut(client_node)
            .unwrap()
            .remote_query(producer_node, "select 1 from room_bc143_temperature", 4)
            .unwrap();
        assert!(fed
            .node_mut(client_node)
            .unwrap()
            .cancel_remote_query(cancelled));
        assert!(!fed
            .node_mut(client_node)
            .unwrap()
            .cancel_remote_query(cancelled));
        assert_eq!(fed.node(client_node).unwrap().pending_remote_queries(), 0);
    }

    #[test]
    fn consumer_without_matching_producer_fails_to_deploy() {
        let mut fed = Mesh::new();
        let node = fed.add_node("lonely").unwrap();
        let err = fed
            .node_mut(node)
            .unwrap()
            .deploy(consumer_descriptor())
            .unwrap_err();
        assert_eq!(err.category(), "not-found");
    }

    #[test]
    fn partition_buffers_then_recovers() {
        let mut fed = Mesh::new();
        let producer_node = fed.add_node("producer").unwrap();
        let consumer_node = fed.add_node("consumer").unwrap();
        deploy(&mut fed, producer_node, producer_descriptor());
        fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
        deploy(&mut fed, consumer_node, consumer_descriptor());
        // Let the subscription get established.
        fed.run_for(Duration::from_millis(300), Duration::from_millis(100));

        fed.network().partition(producer_node, consumer_node);
        fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
        let consumer_count_during = fed
            .node_mut(consumer_node)
            .unwrap()
            .query("select count(*) from averaged_bc143")
            .unwrap()
            .rows()[0][0]
            .as_integer()
            .unwrap();

        fed.network().heal_partition(producer_node, consumer_node);
        fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
        let consumer_count_after = fed
            .node_mut(consumer_node)
            .unwrap()
            .query("select count(*) from averaged_bc143")
            .unwrap()
            .rows()[0][0]
            .as_integer()
            .unwrap();
        assert!(
            consumer_count_after > consumer_count_during,
            "delivery should resume after the partition heals ({consumer_count_during} -> {consumer_count_after})"
        );
        // The producer buffered (and possibly dropped) elements while partitioned.
        let producer_status = fed.node(producer_node).unwrap().status();
        assert!(
            producer_status.notifications.remote_buffered > 0,
            "disconnect buffer should have been used"
        );
    }

    fn count(mesh: &Mesh, node: NodeId, table: &str) -> i64 {
        let sql = format!("select count(*) from {table}");
        let relation = mesh.node(node).unwrap().query(&sql).unwrap();
        relation.rows()[0][0].as_integer().unwrap()
    }

    fn local_count(mesh: &Mesh, node: &NodeId) -> i64 {
        count(mesh, *node, "room_bc143_temperature")
    }

    #[test]
    fn mesh_gossip_replicates_directory_for_remote_deploys() {
        let mut mesh = Mesh::new();
        let a = mesh.add_node("node-a").unwrap();
        let b = mesh.add_node("node-b").unwrap();
        let c = mesh.add_node("node-c").unwrap();
        assert_eq!(mesh.node_ids(), vec![a, b, c]);
        for node in [a, b, c] {
            assert_eq!(mesh.node(node).unwrap().ring_members(), vec![a, b, c]);
            assert!(mesh.node(node).unwrap().mesh_enabled());
        }

        deploy(&mut mesh, a, producer_descriptor());
        // The consumer cannot deploy before gossip has replicated the producer's entry.
        let err = mesh
            .node_mut(c)
            .unwrap()
            .deploy(consumer_descriptor())
            .unwrap_err();
        assert_eq!(err.category(), "not-found");

        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        assert!(mesh.replicas_converged(), "gossip did not converge");
        assert_eq!(
            mesh.node(c)
                .unwrap()
                .replica_lookup(&[("location".into(), "bc143".into())])
                .len(),
            1
        );
        // Now the remote stream source resolves from c's local replica — no central
        // directory exists anywhere in this test.
        deploy(&mut mesh, c, consumer_descriptor());
        mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
        assert!(count(&mesh, c, "averaged_bc143") > 0);
        assert!(mesh.network().sent_of_kind("gossip-digest") > 0);
        assert!(mesh.network().sent_of_kind("gossip-delta") > 0);
    }

    #[test]
    fn mesh_partial_aggregate_ships_no_row_batches() {
        let mut mesh = Mesh::new();
        let a = mesh.add_node("node-a").unwrap();
        let b = mesh.add_node("node-b").unwrap();
        let c = mesh.add_node("node-c").unwrap();
        // Every node hosts a shard of the same logical table.
        for node in [a, b, c] {
            deploy(&mut mesh, node, producer_descriptor());
        }
        mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
        assert!(mesh.replicas_converged());

        let before: i64 = [a, b, c].iter().map(|n| local_count(&mesh, n)).sum();
        let rel = mesh
            .federated_query(
                a,
                "select count(*) as n, avg(temperature) as t from room_bc143_temperature",
                Duration::from_millis(100),
                50,
            )
            .unwrap();
        let after: i64 = [a, b, c].iter().map(|n| local_count(&mesh, n)).sum();
        let n = rel.rows()[0][0].as_integer().unwrap();
        // Producers keep producing while the scatter runs, so the federated count sits
        // between the pre-issue and post-completion totals.
        assert!(
            (before..=after).contains(&n),
            "federated count {n} outside [{before}, {after}]"
        );
        let t = rel.rows()[0][1].as_double().unwrap();
        assert!((10.0..=40.0).contains(&t), "implausible avg {t}");
        // The whole aggregate travelled as partial-aggregate frames: not one row batch.
        assert_eq!(mesh.network().sent_of_kind("query-batch"), 0);
        assert!(mesh.network().sent_of_kind("partial-aggregate-request") >= 2);
        assert!(mesh.network().sent_of_kind("partial-aggregate-reply") >= 2);
    }

    #[test]
    fn mesh_row_ship_fallback_unions_rows() {
        let mut mesh = Mesh::new();
        let a = mesh.add_node("node-a").unwrap();
        let b = mesh.add_node("node-b").unwrap();
        for node in [a, b] {
            deploy(&mut mesh, node, producer_descriptor());
        }
        mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));

        let before: i64 = [a, b].iter().map(|n| local_count(&mesh, n)).sum();
        // A plain projection is not decomposable: the coordinator falls back to
        // shipping each host's rows and evaluating the SQL over the union.
        let rel = mesh
            .federated_query(
                b,
                "select temperature from room_bc143_temperature where temperature >= 0",
                Duration::from_millis(100),
                50,
            )
            .unwrap();
        let after: i64 = [a, b].iter().map(|n| local_count(&mesh, n)).sum();
        let rows = rel.row_count() as i64;
        assert!(
            (before..=after).contains(&rows),
            "union row count {rows} outside [{before}, {after}]"
        );
        assert!(mesh.network().sent_of_kind("query-batch") > 0);
    }

    #[test]
    fn mesh_node_leave_keeps_federation_queryable() {
        let mut mesh = Mesh::new();
        let a = mesh.add_node("node-a").unwrap();
        let b = mesh.add_node("node-b").unwrap();
        let c = mesh.add_node("node-c").unwrap();
        for node in [a, b, c] {
            deploy(&mut mesh, node, producer_descriptor());
        }
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        assert!(mesh.replicas_converged());

        // Node b leaves gracefully: its entries are tombstoned, the ring shrinks.
        mesh.remove_node(b).unwrap();
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        assert_eq!(mesh.node_ids(), vec![a, c]);
        assert!(mesh.replicas_converged());
        for node in [a, c] {
            assert_eq!(mesh.node(node).unwrap().ring_members(), vec![a, c]);
            assert_eq!(
                mesh.node(node)
                    .unwrap()
                    .replica_lookup(&[("location".into(), "bc143".into())])
                    .iter()
                    .filter(|e| e.node == b)
                    .count(),
                0,
                "departed node's entries must be tombstoned"
            );
        }
        // A federated aggregate still completes from the two survivors.
        let rel = mesh
            .federated_query(
                c,
                "select count(*) as n from room_bc143_temperature",
                Duration::from_millis(100),
                50,
            )
            .unwrap();
        assert!(rel.rows()[0][0].as_integer().unwrap() > 0);
    }

    #[test]
    fn multiple_producers_same_metadata_resolve_deterministically() {
        let mut fed = Mesh::new();
        let a = fed.add_node("a").unwrap();
        let b = fed.add_node("b").unwrap();
        let c = fed.add_node("c").unwrap();
        deploy(&mut fed, a, producer_descriptor());
        // Node b publishes a different sensor with the same metadata.
        let mut alt = producer_descriptor();
        alt.name = gsn_types::VirtualSensorName::new("room-bc143-temperature-backup").unwrap();
        fed.node_mut(b).unwrap().deploy(alt).unwrap();
        fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
        // The consumer resolves to the deterministic first match (lowest node id).
        deploy(&mut fed, c, consumer_descriptor());
        let report = fed.run_for(Duration::from_secs(1), Duration::from_millis(100));
        assert!(report.outputs > 0);
        assert!(count(&fed, c, "averaged_bc143") > 0);
    }

    fn remote_delivered(mesh: &Mesh, node: NodeId) -> u64 {
        mesh.node(node)
            .unwrap()
            .status()
            .notifications
            .remote_delivered
    }

    /// A producer and a remote consumer on their own nodes, streaming.
    fn streaming_pair(mesh: &mut Mesh) -> (NodeId, NodeId) {
        let producer = mesh.add_node("producer").unwrap();
        let consumer = mesh.add_node("consumer").unwrap();
        deploy(mesh, producer, producer_descriptor());
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        deploy(mesh, consumer, consumer_descriptor());
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        assert!(count(mesh, consumer, "averaged_bc143") > 0);
        (producer, consumer)
    }

    #[test]
    fn a_consumer_next_to_its_producer_gets_every_element_once() {
        let mut mesh = Mesh::new();
        let node = mesh.add_node("solo").unwrap();
        deploy(&mut mesh, node, producer_descriptor());
        deploy(&mut mesh, node, consumer_descriptor());
        mesh.run_for(Duration::from_secs(3), Duration::from_millis(100));
        assert_eq!(local_count(&mesh, &node), 30);
        assert_eq!(count(&mesh, node, "averaged_bc143"), 30);
        // The loop-back route delivers directly: no frame ever crosses the network,
        // before or after the consumer leaves.
        mesh.node_mut(node)
            .unwrap()
            .undeploy("averaged-bc143")
            .unwrap();
        mesh.run_for(Duration::from_secs(3), Duration::from_millis(100));
        assert_eq!(mesh.network().stats().sent, 0);
    }

    #[test]
    fn a_lost_unsubscribe_is_repaired_by_the_next_delivery() {
        let mut mesh = Mesh::new();
        let (producer, consumer) = streaming_pair(&mut mesh);
        // The Unsubscribe sent at undeploy is refused by the partition.
        mesh.network().partition(producer, consumer);
        let node = mesh.node_mut(consumer).unwrap();
        node.undeploy("averaged-bc143").unwrap();
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        mesh.network().heal_partition(producer, consumer);
        // The first delivery after the heal finds no route and is answered with an
        // Unsubscribe: the producer stops delivering.
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        let delivered = remote_delivered(&mesh, producer);
        mesh.run_for(Duration::from_secs(10), Duration::from_millis(100));
        assert_eq!(remote_delivered(&mesh, producer), delivered);
    }

    #[test]
    fn a_third_node_cannot_cancel_another_nodes_subscription() {
        let mut mesh = Mesh::new();
        let (producer, consumer) = streaming_pair(&mut mesh);
        let intruder = mesh.add_node("intruder").unwrap();
        let sensor = "room-bc143-temperature".to_owned();
        let unsubscribe = gsn_network::Message::Unsubscribe { sensor };
        let network = Arc::clone(mesh.network());
        network
            .send(intruder, producer, unsubscribe, mesh.now())
            .unwrap();
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        let before = count(&mesh, consumer, "averaged_bc143");
        mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
        assert!(count(&mesh, consumer, "averaged_bc143") > before);
    }

    #[test]
    fn only_the_scraped_peer_can_answer_a_scrape() {
        let mut mesh = Mesh::new();
        let (a, b) = (mesh.add_node("a").unwrap(), mesh.add_node("b").unwrap());
        let forger = mesh.add_node("forger").unwrap();
        let request = mesh.node_mut(a).unwrap().request_peer_metrics(b).unwrap();
        // A forged answer to the pending scrape, and an unsolicited snapshot.
        let network = Arc::clone(mesh.network());
        for request in [request, request + 100] {
            let snapshot = gsn_telemetry::MetricsSnapshot::default();
            let forged = gsn_network::Message::MetricsSnapshot { request, snapshot };
            network.send(forger, a, forged, mesh.now()).unwrap();
        }
        mesh.step(Duration::from_millis(10));
        let container = mesh.node_mut(a).unwrap();
        assert!(container.take_peer_metrics(request).is_none());
        assert!(container.peer_metrics(forger).is_none());
        mesh.step(Duration::from_millis(10));
        let container = mesh.node_mut(a).unwrap();
        assert!(
            container
                .take_peer_metrics(request)
                .unwrap()
                .distinct_names()
                > 0
        );
        assert!(container.peer_metrics(b).is_some());
        assert!(container.peer_metrics(forger).is_none());
    }
}
