//! # gsn-network
//!
//! The peer-to-peer substrate of GSN-RS: inter-container messages and their wire codec,
//! a simulated network with configurable link quality, the directory entry with its
//! predicate lookup semantics, and access control.
//!
//! The paper's GSN nodes communicate over campus TCP/HTTP links and publish sensors to a
//! peer-to-peer directory (Section 4).  The reproduction keeps the protocol and all of its
//! costs (serialisation, latency, loss, disconnections) but runs it in-process and
//! clock-driven so that multi-node experiments are deterministic — see DESIGN.md for the
//! substitution table.  The directory is replicated by gossip between containers
//! (`gsn-federation`), so discovery travels the same lossy links as the data.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod directory;
pub mod message;
pub mod simnet;

pub use access::{AccessController, DefaultPolicy, Operation, Principal};
pub use directory::DirectoryEntry;
pub use message::{decode, encode, Message, ReplicaRecord, RequestId, WireElement};
pub use simnet::{Envelope, LinkSpec, NetworkStats, SimulatedNetwork};
