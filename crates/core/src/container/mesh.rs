//! Mesh federation: ring membership, the gossip-replicated directory and the health
//! plane that rides on gossip.

use gsn_federation::{PlacementRing, ReplicatedDirectory};
use gsn_network::{DirectoryEntry, Message, ReplicaRecord};
use gsn_telemetry::{evaluate as evaluate_health, HealthSummary};
use gsn_types::{NodeId, Timestamp};
use parking_lot::Mutex;

use super::GsnContainer;

/// Mesh-federation state: a networked container's own directory replica and ring view.
///
/// A mesh container discovers sensors from its own [`ReplicatedDirectory`] (kept
/// convergent by anti-entropy gossip) and places data by the [`PlacementRing`], so no
/// lookup ever crosses the network on the hot path.
pub(super) struct MeshState {
    /// This node's view of the consistent-hash placement ring.
    pub(super) ring: PlacementRing,
    /// The local directory replica.  Behind a mutex so the deploy-time resolver
    /// closure (holding `&self`) can consult it while the lookup counter advances.
    pub(super) replica: Mutex<ReplicatedDirectory>,
    /// Steps between anti-entropy gossip rounds (0 disables gossip).
    gossip_interval_steps: u64,
    /// LCG state for the random gossip-peer pick, seeded from the node id so runs on
    /// a simulated clock stay deterministic.
    rng: u64,
}

impl MeshState {
    /// A fresh replica and an empty ring view for `node`.
    pub(super) fn new(node: NodeId) -> MeshState {
        MeshState {
            ring: PlacementRing::default(),
            replica: Mutex::new(ReplicatedDirectory::new(node)),
            gossip_interval_steps: 2,
            rng: node
                .as_u64()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1),
        }
    }

    /// This node's ring view as a broadcast frame.
    fn announce(&self) -> Message {
        Message::RingAnnounce {
            epoch: self.ring.epoch(),
            members: self.ring.members(),
        }
    }
}

impl GsnContainer {
    /// `f` of the mesh state; the default value on a standalone container.
    pub(super) fn on_mesh<T: Default>(&self, f: impl FnOnce(&MeshState) -> T) -> T {
        self.mesh.as_ref().map(f).unwrap_or_default()
    }

    /// True when this container runs mesh federation (placement ring + replicated
    /// directory), i.e. when it is attached to a network.
    pub fn mesh_enabled(&self) -> bool {
        self.mesh.is_some()
    }

    /// This node's view of the ring membership, ordered.  Empty without a mesh.
    pub fn ring_members(&self) -> Vec<NodeId> {
        self.on_mesh(|m| m.ring.members())
    }

    /// This node's ring membership epoch (0 without a mesh).
    pub fn ring_epoch(&self) -> u64 {
        self.on_mesh(|m| m.ring.epoch())
    }

    /// The fraction of the hash-token space primarily owned by this node, in permille.
    pub fn ring_ownership_permille(&self) -> u64 {
        self.on_mesh(|m| m.ring.ownership_permille(self.config.node_id))
    }

    /// The mesh members owning `key` under the placement ring, primary first.
    pub fn ring_owners(&self, key: &str) -> Vec<NodeId> {
        self.on_mesh(|m| m.ring.owners(key))
    }

    /// The local directory replica's full record set, tombstones included and sorted —
    /// two converged replicas return identical snapshots.
    pub fn replica_snapshot(&self) -> Vec<ReplicaRecord> {
        self.on_mesh(|m| m.replica.lock().snapshot())
    }

    /// Live directory entries matching every predicate, answered from the local
    /// replica (no network round trip).
    pub fn replica_lookup(&self, predicates: &[(String, String)]) -> Vec<DirectoryEntry> {
        self.on_mesh(|m| m.replica.lock().lookup(predicates))
    }

    /// Overrides the gossip cadence (steps between rounds; 0 disables gossip).
    pub fn set_gossip_interval_steps(&mut self, steps: u64) {
        if let Some(mesh) = self.mesh.as_mut() {
            mesh.gossip_interval_steps = steps;
        }
    }

    /// Joins the mesh: adopts the seed membership view (from any existing member; pass
    /// an empty view with epoch 0 to found a new mesh), adds this node to the ring, and
    /// announces the grown view to every other member.
    pub fn mesh_bootstrap(&mut self, members: &[NodeId], epoch: u64) {
        let now = self.clock.now();
        let node = self.config.node_id;
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        mesh.ring.install(members, epoch);
        mesh.ring.join(node);
        let (members, announce) = (mesh.ring.members(), mesh.announce());
        for peer in members.into_iter().filter(|p| *p != node) {
            self.send(peer, announce.clone(), now);
        }
    }

    /// Leaves the mesh gracefully: tombstones every sensor this node registered,
    /// pushes those tombstones to the surviving members (gossip re-delivers them if
    /// the push is lost), and announces the shrunk ring.
    pub fn mesh_leave(&mut self) {
        let now = self.clock.now();
        let node = self.config.node_id;
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        let records: Vec<ReplicaRecord> = {
            let mut replica = mesh.replica.lock();
            replica.deregister_node(node);
            replica
                .snapshot()
                .into_iter()
                .filter(|r| r.node == node)
                .collect()
        };
        mesh.ring.leave(node);
        let (members, announce) = (mesh.ring.members(), mesh.announce());
        let delta = Message::GossipDelta {
            records,
            digest: Vec::new(),
            health: Vec::new(),
            trace: None,
        };
        for peer in members {
            self.send(peer, delta.clone(), now);
            self.send(peer, announce.clone(), now);
        }
    }

    /// One anti-entropy gossip round every `gossip_interval_steps` steps: push-pull
    /// the directory digest with one pseudo-random ring peer, piggybacking a ring
    /// announce so membership views lost on a lossy link also heal, plus every
    /// member's latest health summary so the mesh health model converges the same
    /// way the directory does.
    pub(super) fn run_mesh_gossip(&mut self, now: Timestamp) {
        let node = self.config.node_id;
        let steps = self.steps;
        let interval = match self.mesh.as_ref() {
            Some(mesh) if self.runtime.network.is_some() => mesh.gossip_interval_steps,
            _ => return,
        };
        if interval == 0 || !steps.is_multiple_of(interval) {
            return;
        }
        // Health plane: evaluate the local rules over the live metrics snapshot,
        // versioned by the step counter so gossiped copies order correctly, and
        // mirror the verdicts into the labelled `gsn_health_state` gauges.
        let summary = evaluate_health(
            &self.metrics_snapshot(),
            &self.config.health_thresholds,
            node.as_u64(),
            steps,
        );
        for sub in &summary.subsystems {
            self.metrics
                .gauge_labeled(&crate::telemetry::HEALTH_STATE, &sub.subsystem)
                .set(sub.state.as_u8() as i64);
        }
        self.local_health = Some(summary.clone());
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        mesh.replica.lock().record_local_health(summary);
        let peers: Vec<NodeId> = mesh
            .ring
            .members()
            .into_iter()
            .filter(|p| *p != node)
            .collect();
        if peers.is_empty() {
            return;
        }
        mesh.rng = mesh
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let peer = peers[(mesh.rng >> 33) as usize % peers.len()];
        let (digest, health) = {
            let replica = mesh.replica.lock();
            (replica.digest(), replica.health_snapshot())
        };
        let message = Message::GossipDigest {
            digest,
            health,
            trace: None,
        };
        let announce = mesh.announce();
        self.telemetry.gossip_rounds_total.inc();
        for message in [message, announce] {
            self.send_gossip(peer, message, now);
        }
    }

    /// Sends one gossip frame, counting its bytes only when the network accepted it.
    fn send_gossip(&self, peer: NodeId, message: Message, now: Timestamp) {
        if let Some(bytes) = self.send(peer, message, now) {
            self.telemetry.gossip_bytes_total.add(bytes as u64);
        }
    }

    /// Push-pull: answers a digest with what it proves the peer is missing, plus our
    /// own digest so the peer sends a return delta.  The piggybacked health summaries
    /// merge into the replica's health store, and the reply carries our view back — one
    /// round moves health both ways.
    pub(super) fn serve_gossip_digest(
        &self,
        from: NodeId,
        digest: Vec<(NodeId, u64)>,
        health: Vec<HealthSummary>,
        now: Timestamp,
    ) {
        let Some(mesh) = self.mesh.as_ref() else {
            return;
        };
        let reply = {
            let mut replica = mesh.replica.lock();
            replica.apply_health(&health);
            Message::GossipDelta {
                records: replica.delta_for(&digest),
                digest: replica.digest(),
                health: replica.health_snapshot(),
                trace: None,
            }
        };
        self.send_gossip(from, reply, now);
    }

    /// Applies a gossip delta.  A non-empty digest asks for the records *we* have that
    /// the peer lacks; the terminating reply carries an empty digest (health already
    /// travelled in both directions this round).
    pub(super) fn accept_gossip_delta(
        &self,
        from: NodeId,
        records: Vec<ReplicaRecord>,
        digest: Vec<(NodeId, u64)>,
        health: Vec<HealthSummary>,
        now: Timestamp,
    ) {
        let Some(mesh) = self.mesh.as_ref() else {
            return;
        };
        let reply_records = {
            let mut replica = mesh.replica.lock();
            replica.apply(&records);
            replica.apply_health(&health);
            if digest.is_empty() {
                return;
            }
            replica.delta_for(&digest)
        };
        if !reply_records.is_empty() {
            let reply = Message::GossipDelta {
                records: reply_records,
                digest: Vec::new(),
                health: Vec::new(),
                trace: None,
            };
            self.send_gossip(from, reply, now);
        }
    }

    /// Installs an announced ring view (a strictly higher epoch replaces ours).
    pub(super) fn accept_ring_announce(&mut self, epoch: u64, members: Vec<NodeId>) {
        if let Some(mesh) = self.mesh.as_mut() {
            mesh.ring.install(&members, epoch);
        }
    }

    /// This node's latest local health evaluation (`None` before the first mesh
    /// gossip round; standalone containers evaluate only in [`status`](Self::status)).
    pub fn local_health(&self) -> Option<HealthSummary> {
        self.local_health.clone()
    }

    /// The mesh-wide health view from this node's replica: one summary per member,
    /// sorted by node id, each carried here by gossip.  On a standalone container
    /// this is just the local summary (if one was ever evaluated).
    pub fn mesh_health(&self) -> Vec<HealthSummary> {
        match self.mesh.as_ref() {
            Some(mesh) => mesh.replica.lock().health_snapshot(),
            None => self.local_health.clone().into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ContainerConfig, GsnContainer};
    use gsn_network::SimulatedNetwork;
    use gsn_types::{NodeId, SimulatedClock};
    use std::sync::Arc;

    #[test]
    fn gossip_bytes_count_only_frames_the_network_accepted() {
        let clock = SimulatedClock::new();
        let network = Arc::new(SimulatedNetwork::new());
        let (me, peer) = (NodeId::new(1), NodeId::new(2));
        network.add_node(peer).unwrap();
        let config = ContainerConfig::named(me, "gossiper");
        let mut container =
            GsnContainer::with_mesh(config, Arc::new(clock.clone()), Arc::clone(&network)).unwrap();
        container.set_gossip_interval_steps(1);
        container.mesh_bootstrap(&[peer], 1);
        let gossip_bytes = |c: &GsnContainer| c.telemetry.gossip_bytes_total.get();

        // Each round sends a digest and a ring announce: exactly the bytes the network
        // took from this node.
        let before = network.stats().bytes_sent;
        container.step();
        let sent = network.stats().bytes_sent - before;
        assert!(sent > 0);
        assert_eq!(gossip_bytes(&container), sent);

        // A partition refuses both frames: nothing was sent, so nothing is counted.
        network.partition(me, peer);
        container.step();
        assert_eq!(gossip_bytes(&container), sent);
        assert_eq!(network.stats().bytes_sent - before, sent);
    }
}
