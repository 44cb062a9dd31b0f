//! Directory entries and the paper's predicate lookup semantics.
//!
//! "Virtual sensor descriptions are identified by user-definable key-value pairs which are
//! published in a peer-to-peer directory so that virtual sensors can be discovered and
//! accessed based on any combination of their properties, for example, geographical
//! location and sensor type" (paper, Section 4).
//!
//! The directory itself is gossip-replicated (`gsn_federation::ReplicatedDirectory`); this
//! module holds what every replica answers with.  Lookup semantics match the paper's
//! descriptor addressing: a remote stream source lists predicates (`type=temperature`,
//! `location=bc143`) and a lookup returns every virtual sensor whose metadata satisfies
//! *all* of them.

use gsn_types::NodeId;

/// One directory entry: a published virtual sensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryEntry {
    /// The node hosting the virtual sensor.
    pub node: NodeId,
    /// The virtual sensor name (unique per node).
    pub sensor: String,
    /// Discovery metadata.
    pub metadata: Vec<(String, String)>,
}

impl DirectoryEntry {
    /// True when every predicate matches this entry's metadata (case-insensitive keys and
    /// values).  The reserved keys `name` and `node` match against the entry identity.
    pub fn matches(&self, predicates: &[(String, String)]) -> bool {
        predicates.iter().all(|(key, value)| {
            if key.eq_ignore_ascii_case("name") {
                return self.sensor.eq_ignore_ascii_case(value);
            }
            if key.eq_ignore_ascii_case("node") {
                return self.node.to_string().eq_ignore_ascii_case(value)
                    || self.node.as_u64().to_string() == *value;
            }
            self.metadata
                .iter()
                .any(|(k, v)| k.eq_ignore_ascii_case(key) && v.eq_ignore_ascii_case(value))
        })
    }
}
