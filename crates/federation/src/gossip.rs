//! The gossip-replicated sensor directory.
//!
//! Each container holds a full replica of the federation's directory.  Local mutations
//! (register/deregister) stamp a record with a Lamport version from the local clock;
//! anti-entropy rounds exchange compact digests (per-origin max version) and ship only
//! the records the peer provably lacks.  Deletions are tombstones so they propagate like
//! any other update, and the `(version, origin)` order is total, so replicas that have
//! seen the same updates hold byte-identical state — convergence is an equality check
//! on [`ReplicatedDirectory::snapshot`].

use std::collections::HashMap;

use gsn_network::{DirectoryEntry, ReplicaRecord};
use gsn_telemetry::HealthSummary;
use gsn_types::{GsnError, GsnResult, NodeId};

/// Counters kept by a directory replica: local registrations, deregistrations and
/// lookups, plus gossip-specific counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Local registrations processed.
    pub registrations: u64,
    /// Local deregistrations processed (tombstones written).
    pub deregistrations: u64,
    /// Lookups served from this replica.
    pub lookups: u64,
    /// Remote records applied (they were newer than the local copy).
    pub records_applied: u64,
    /// Remote records ignored (the local copy was as new or newer).
    pub records_stale: u64,
}

/// One container's versioned replica of the sensor directory.
#[derive(Debug, Clone)]
pub struct ReplicatedDirectory {
    node: NodeId,
    /// Lamport clock: bumped on every local mutation, advanced past every version seen.
    clock: u64,
    records: HashMap<(NodeId, String), ReplicaRecord>,
    /// The latest health summary seen per node, piggybacked on gossip rounds.
    /// Kept apart from `records` so [`ReplicatedDirectory::snapshot`] (the
    /// convergence equality check) is unaffected by health churn.
    health: HashMap<u64, HealthSummary>,
    stats: ReplicaStats,
}

impl ReplicatedDirectory {
    /// An empty replica owned by `node`.
    pub fn new(node: NodeId) -> ReplicatedDirectory {
        ReplicatedDirectory {
            node,
            clock: 0,
            records: HashMap::new(),
            health: HashMap::new(),
            stats: ReplicaStats::default(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Publishes (or refreshes) a virtual sensor hosted by this node.
    pub fn register(&mut self, sensor: &str, metadata: Vec<(String, String)>) -> GsnResult<()> {
        if sensor.trim().is_empty() {
            return Err(GsnError::descriptor(
                "cannot register an unnamed virtual sensor",
            ));
        }
        let sensor = sensor.to_ascii_lowercase();
        self.clock += 1;
        self.stats.registrations += 1;
        self.records.insert(
            (self.node, sensor.clone()),
            ReplicaRecord {
                node: self.node,
                sensor,
                metadata,
                version: self.clock,
                origin: self.node,
                deleted: false,
            },
        );
        Ok(())
    }

    /// Tombstones a virtual sensor hosted by this node.
    pub fn deregister(&mut self, sensor: &str) -> GsnResult<()> {
        let key = (self.node, sensor.to_ascii_lowercase());
        match self.records.get_mut(&key) {
            Some(record) if !record.deleted => {
                self.clock += 1;
                self.stats.deregistrations += 1;
                record.deleted = true;
                record.metadata.clear();
                record.version = self.clock;
                record.origin = self.node;
                Ok(())
            }
            _ => Err(GsnError::not_found(format!(
                "virtual sensor `{sensor}` is not registered by {}",
                self.node
            ))),
        }
    }

    /// Tombstones every live record hosted by `node` (graceful leave, or a survivor
    /// evicting a departed peer).  Returns the number of tombstones written.
    pub fn deregister_node(&mut self, node: NodeId) -> usize {
        let mut written = 0;
        for record in self.records.values_mut() {
            if record.node == node && !record.deleted {
                self.clock += 1;
                record.deleted = true;
                record.metadata.clear();
                record.version = self.clock;
                record.origin = self.node;
                written += 1;
            }
        }
        self.stats.deregistrations += written as u64;
        written
    }

    /// Finds every live entry matching all predicates, ordered by (node, sensor).
    pub fn lookup(&mut self, predicates: &[(String, String)]) -> Vec<DirectoryEntry> {
        self.stats.lookups += 1;
        let mut matches: Vec<DirectoryEntry> = self
            .records
            .values()
            .filter(|r| !r.deleted)
            .map(|r| DirectoryEntry {
                node: r.node,
                sensor: r.sensor.clone(),
                metadata: r.metadata.clone(),
            })
            .filter(|e| e.matches(predicates))
            .collect();
        matches.sort_by(|a, b| (a.node, &a.sensor).cmp(&(b.node, &b.sensor)));
        matches
    }

    /// The single best match for a remote stream source (lowest `(node, sensor)`).
    pub fn resolve_one(&mut self, predicates: &[(String, String)]) -> GsnResult<DirectoryEntry> {
        self.lookup(predicates).into_iter().next().ok_or_else(|| {
            GsnError::not_found(format!(
                "no virtual sensor matches predicates [{}]",
                predicates
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// The nodes hosting a live sensor whose SQL table name equals `table`
    /// (sensor names normalise `-` to `_` when they become tables).
    pub fn hosts_of_table(&self, table: &str) -> Vec<NodeId> {
        let wanted = table.to_ascii_lowercase();
        let mut hosts: Vec<NodeId> = self
            .records
            .values()
            .filter(|r| !r.deleted && r.sensor.replace('-', "_") == wanted)
            .map(|r| r.node)
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// Live entries, ordered.
    pub fn entries(&self) -> Vec<DirectoryEntry> {
        let mut entries: Vec<DirectoryEntry> = self
            .records
            .values()
            .filter(|r| !r.deleted)
            .map(|r| DirectoryEntry {
                node: r.node,
                sensor: r.sensor.clone(),
                metadata: r.metadata.clone(),
            })
            .collect();
        entries.sort_by(|a, b| (a.node, &a.sensor).cmp(&(b.node, &b.sensor)));
        entries
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.records.values().filter(|r| !r.deleted).count()
    }

    /// True when no live entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full record set including tombstones, ordered — two replicas are convergent
    /// exactly when their snapshots are equal.
    pub fn snapshot(&self) -> Vec<ReplicaRecord> {
        let mut records: Vec<ReplicaRecord> = self.records.values().cloned().collect();
        records.sort_by(|a, b| (a.node, &a.sensor).cmp(&(b.node, &b.sensor)));
        records
    }

    /// The anti-entropy digest: for every origin, the highest version this replica has
    /// seen from it, ordered by origin.
    pub fn digest(&self) -> Vec<(NodeId, u64)> {
        let mut max: HashMap<NodeId, u64> = HashMap::new();
        for record in self.records.values() {
            let entry = max.entry(record.origin).or_default();
            *entry = (*entry).max(record.version);
        }
        let mut digest: Vec<(NodeId, u64)> = max.into_iter().collect();
        digest.sort_by_key(|(origin, _)| *origin);
        digest
    }

    /// Every record the holder of `digest` provably lacks: records whose origin is
    /// absent from the digest or whose version exceeds the digest's watermark.
    pub fn delta_for(&self, digest: &[(NodeId, u64)]) -> Vec<ReplicaRecord> {
        let watermark: HashMap<NodeId, u64> = digest.iter().copied().collect();
        let mut delta: Vec<ReplicaRecord> = self
            .records
            .values()
            .filter(|r| watermark.get(&r.origin).copied().unwrap_or(0) < r.version)
            .cloned()
            .collect();
        delta.sort_by(|a, b| (a.node, &a.sensor).cmp(&(b.node, &b.sensor)));
        delta
    }

    /// Merges remote records, keeping whichever copy has the higher `(version, origin)`.
    /// Returns how many records were applied.
    pub fn apply(&mut self, records: &[ReplicaRecord]) -> usize {
        let mut applied = 0;
        for incoming in records {
            self.clock = self.clock.max(incoming.version);
            let key = (incoming.node, incoming.sensor.clone());
            let newer = match self.records.get(&key) {
                Some(existing) => {
                    (incoming.version, incoming.origin.as_u64())
                        > (existing.version, existing.origin.as_u64())
                }
                None => true,
            };
            if newer {
                self.records.insert(key, incoming.clone());
                applied += 1;
            } else {
                self.stats.records_stale += 1;
            }
        }
        self.stats.records_applied += applied as u64;
        applied
    }

    /// Records this node's own freshly evaluated health summary.
    pub fn record_local_health(&mut self, summary: HealthSummary) {
        self.health.insert(summary.node, summary);
    }

    /// Merges health summaries received on a gossip round, keeping the copy
    /// with the higher version per node.  Returns how many were applied.
    pub fn apply_health(&mut self, summaries: &[HealthSummary]) -> usize {
        let mut applied = 0;
        for incoming in summaries {
            let newer = match self.health.get(&incoming.node) {
                Some(existing) => incoming.version > existing.version,
                None => true,
            };
            if newer {
                self.health.insert(incoming.node, incoming.clone());
                applied += 1;
            }
        }
        applied
    }

    /// The latest known health summary of every node, ordered by node id —
    /// the whole-mesh answer behind `mesh_health()`.
    pub fn health_snapshot(&self) -> Vec<HealthSummary> {
        let mut summaries: Vec<HealthSummary> = self.health.values().cloned().collect();
        summaries.sort_by_key(|s| s.node);
        summaries
    }

    /// Replica statistics.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn local_register_lookup_deregister() {
        let mut replica = ReplicatedDirectory::new(NodeId::new(1));
        replica
            .register("BC143-Temp", meta(&[("type", "temperature")]))
            .unwrap();
        assert_eq!(replica.len(), 1);
        let found = replica.lookup(&meta(&[("type", "Temperature")]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].sensor, "bc143-temp");
        replica.deregister("bc143-temp").unwrap();
        assert!(replica.is_empty());
        assert!(replica.deregister("bc143-temp").is_err());
        // The tombstone stays in the snapshot so it can propagate.
        assert_eq!(replica.snapshot().len(), 1);
        assert!(replica.snapshot()[0].deleted);
        let stats = replica.stats();
        assert_eq!(stats.registrations, 1);
        assert_eq!(stats.deregistrations, 1);
    }

    #[test]
    fn lookup_keeps_the_papers_predicate_semantics() {
        // Node 2's replica, holding node 1's entries by gossip.
        let mut remote = ReplicatedDirectory::new(NodeId::new(1));
        remote
            .register(
                "bc143-temp",
                meta(&[("type", "temperature"), ("location", "bc143")]),
            )
            .unwrap();
        remote
            .register(
                "bc143-cam",
                meta(&[("type", "camera"), ("location", "bc143")]),
            )
            .unwrap();
        let mut d = ReplicatedDirectory::new(NodeId::new(2));
        d.register(
            "bc144-temp",
            meta(&[("type", "temperature"), ("location", "bc144")]),
        )
        .unwrap();
        d.apply(&remote.delta_for(&d.digest()));

        // Keys and values match case-insensitively; empty predicates match everything.
        assert_eq!(d.lookup(&meta(&[("TYPE", "Temperature")])).len(), 2);
        assert_eq!(d.lookup(&[]).len(), 3);
        // The reserved `name` and `node` keys match the entry identity.
        assert_eq!(d.lookup(&meta(&[("name", "BC143-TEMP")])).len(), 1);
        assert_eq!(d.lookup(&meta(&[("node", "2")])).len(), 1);
        assert_eq!(d.lookup(&meta(&[("node", "node-1")])).len(), 2);
        // `resolve_one` picks the lowest node, here a remote one; no match is not-found.
        let entry = d.resolve_one(&meta(&[("type", "temperature")])).unwrap();
        assert_eq!(entry.node, NodeId::new(1));
        let err = d.resolve_one(&meta(&[("type", "sonar")])).unwrap_err();
        assert_eq!(err.category(), "not-found");
        // Re-registration replaces metadata.
        d.register("bc144-temp", meta(&[("type", "humidity")]))
            .unwrap();
        assert_eq!(d.len(), 3);
        assert!(d
            .lookup(&meta(&[("type", "temperature"), ("location", "bc144")]))
            .is_empty());
        assert_eq!(d.lookup(&meta(&[("type", "humidity")])).len(), 1);
        // A blank name is rejected.
        assert!(d.register("  ", vec![]).is_err());
    }

    #[test]
    fn digest_and_delta_ship_only_whats_missing() {
        let mut a = ReplicatedDirectory::new(NodeId::new(1));
        let mut b = ReplicatedDirectory::new(NodeId::new(2));
        a.register("s1", meta(&[("type", "t")])).unwrap();
        a.register("s2", meta(&[("type", "t")])).unwrap();
        b.register("s3", meta(&[("type", "t")])).unwrap();

        // b has nothing of a's: the delta carries both records.
        let to_b = a.delta_for(&b.digest());
        assert_eq!(to_b.len(), 2);
        b.apply(&to_b);
        // A second exchange finds nothing new.
        assert!(a.delta_for(&b.digest()).is_empty());
        let to_a = b.delta_for(&a.digest());
        assert_eq!(to_a.len(), 1);
        a.apply(&to_a);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn tombstones_win_over_older_registrations() {
        let mut a = ReplicatedDirectory::new(NodeId::new(1));
        let mut b = ReplicatedDirectory::new(NodeId::new(2));
        a.register("s1", meta(&[("type", "t")])).unwrap();
        b.apply(&a.delta_for(&b.digest()));
        assert_eq!(b.len(), 1);
        // a deletes; the tombstone reaches b and removes the live entry.
        a.deregister("s1").unwrap();
        b.apply(&a.delta_for(&b.digest()));
        assert!(b.is_empty());
        // Replaying the stale registration cannot resurrect the sensor.
        let stale = ReplicaRecord {
            node: NodeId::new(1),
            sensor: "s1".into(),
            metadata: meta(&[("type", "t")]),
            version: 1,
            origin: NodeId::new(1),
            deleted: false,
        };
        assert_eq!(b.apply(&[stale]), 0);
        assert!(b.is_empty());
        assert_eq!(b.stats().records_stale, 1);
    }

    #[test]
    fn apply_is_idempotent_and_order_independent() {
        let mut a = ReplicatedDirectory::new(NodeId::new(1));
        a.register("s1", meta(&[("x", "1")])).unwrap();
        a.register("s2", meta(&[("x", "2")])).unwrap();
        a.deregister("s1").unwrap();
        let records = a.snapshot();

        let mut forward = ReplicatedDirectory::new(NodeId::new(9));
        forward.apply(&records);
        forward.apply(&records); // duplicate delivery
        let mut reverse = ReplicatedDirectory::new(NodeId::new(8));
        let mut rev = records.clone();
        rev.reverse();
        reverse.apply(&rev);
        assert_eq!(forward.snapshot(), reverse.snapshot());
        assert_eq!(forward.snapshot(), a.snapshot());
    }

    #[test]
    fn deregister_node_tombstones_a_departed_peer() {
        let mut a = ReplicatedDirectory::new(NodeId::new(1));
        let mut b = ReplicatedDirectory::new(NodeId::new(2));
        b.register("cam-0", meta(&[("type", "camera")])).unwrap();
        b.register("cam-1", meta(&[("type", "camera")])).unwrap();
        a.apply(&b.delta_for(&a.digest()));
        assert_eq!(a.len(), 2);
        // Node 2 vanishes; node 1 evicts its sensors with its own (newer) versions.
        assert_eq!(a.deregister_node(NodeId::new(2)), 2);
        assert!(a.is_empty());
        assert_eq!(a.hosts_of_table("cam_0"), Vec::<NodeId>::new());
    }

    #[test]
    fn health_merge_keeps_the_higher_version_per_node() {
        use gsn_telemetry::{HealthState, SubsystemHealth};
        let sub = |state| SubsystemHealth {
            subsystem: "storage".into(),
            state,
            reasons: Vec::new(),
        };
        let mut a = ReplicatedDirectory::new(NodeId::new(1));
        a.record_local_health(HealthSummary {
            node: 1,
            version: 5,
            subsystems: vec![sub(HealthState::Healthy)],
        });
        // A peer's summary and a stale copy of our own arrive on one round.
        let applied = a.apply_health(&[
            HealthSummary {
                node: 2,
                version: 3,
                subsystems: vec![sub(HealthState::Degraded)],
            },
            HealthSummary {
                node: 1,
                version: 4,
                subsystems: vec![sub(HealthState::Unhealthy)],
            },
        ]);
        assert_eq!(applied, 1);
        let snapshot = a.health_snapshot();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot[0].node, 1);
        assert_eq!(snapshot[0].version, 5);
        assert_eq!(
            snapshot[0].state_of("storage"),
            Some(HealthState::Healthy),
            "stale self-copy must not regress local health"
        );
        assert_eq!(snapshot[1].node, 2);
        // A newer copy of the peer's summary replaces the older one.
        assert_eq!(
            a.apply_health(&[HealthSummary {
                node: 2,
                version: 9,
                subsystems: vec![sub(HealthState::Healthy)],
            }]),
            1
        );
        assert_eq!(
            a.health_snapshot()[1].state_of("storage"),
            Some(HealthState::Healthy)
        );
        // Health never leaks into the convergence snapshot.
        assert!(a.snapshot().is_empty());
    }

    #[test]
    fn hosts_of_table_normalises_names() {
        let mut a = ReplicatedDirectory::new(NodeId::new(1));
        a.register("bc143-temp", meta(&[])).unwrap();
        let mut b = ReplicatedDirectory::new(NodeId::new(2));
        b.register("bc143-temp", meta(&[])).unwrap();
        a.apply(&b.delta_for(&a.digest()));
        assert_eq!(
            a.hosts_of_table("BC143_TEMP"),
            vec![NodeId::new(1), NodeId::new(2)]
        );
    }
}
