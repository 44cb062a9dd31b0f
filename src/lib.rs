//! # GSN-RS
//!
//! A Rust reproduction of **"A Middleware for Fast and Flexible Sensor Network
//! Deployment"** (Aberer, Hauswirth, Salehi — VLDB 2006): the Global Sensor Networks
//! middleware.
//!
//! This facade crate re-exports the public API of every workspace crate so applications
//! can depend on a single `gsn` crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `gsn-types` | values, schemas, stream elements, clocks, errors |
//! | [`sql`] | `gsn-sql` | the embedded SQL engine (parser, planner, optimizer, executor) |
//! | [`storage`] | `gsn-storage` | windowed stream tables, the persistent page engine (buffer pool + WAL) and the storage manager |
//! | [`xml`] | `gsn-xml` | XML parsing and virtual sensor deployment descriptors |
//! | [`wrappers`] | `gsn-wrappers` | the wrapper trait, registry and simulated devices |
//! | [`network`] | `gsn-network` | the simulated P2P network, wire messages, directory entries, access control |
//! | [`container`] | `gsn-core` | the GSN container, virtual sensors, query manager, notifications, federation |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use gsn::{ContainerConfig, GsnContainer};
//! use gsn::types::{Duration, SimulatedClock};
//!
//! // A container on a simulated clock, hosting one declaratively deployed virtual sensor.
//! let clock = SimulatedClock::new();
//! let mut node = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
//! node.deploy_xml(r#"
//!   <virtual-sensor name="bc143-temperature">
//!     <output-structure><field name="avg_temp" type="double"/></output-structure>
//!     <input-stream name="main">
//!       <stream-source alias="src1" storage-size="30s">
//!         <address wrapper="mote"><predicate key="interval" val="500"/></address>
//!         <query>select avg(temperature) as avg_temp from WRAPPER</query>
//!       </stream-source>
//!       <query>select * from src1</query>
//!     </input-stream>
//!   </virtual-sensor>"#).unwrap();
//!
//! // Drive the simulated clock: ten seconds of sensing in microseconds of test time.
//! for _ in 0..20 {
//!     clock.advance(Duration::from_millis(500));
//!     node.step();
//! }
//!
//! // Plain SQL over the virtual sensor's output stream.
//! let answer = node.query("select count(*) as n, avg(avg_temp) from bc143_temperature").unwrap();
//! assert_eq!(answer.rows()[0][0], gsn::types::Value::Integer(20));
//!
//! // Or stream the result through a pull-based cursor: rows arrive in batches, and a
//! // LIMIT stops reading storage as soon as it is satisfied (O(limit), not O(table)).
//! let mut cursor = node.query_cursor("select avg_temp from bc143_temperature limit 5").unwrap();
//! assert_eq!(cursor.next_batch(5).unwrap().row_count(), 5);
//! assert_eq!(cursor.rows_scanned(), 5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Core data types (`gsn-types`).
pub use gsn_types as types;

/// The embedded SQL engine (`gsn-sql`).
pub use gsn_sql as sql;

/// Windowed stream storage (`gsn-storage`).
pub use gsn_storage as storage;

/// XML parsing and deployment descriptors (`gsn-xml`).
pub use gsn_xml as xml;

/// Sensor platform wrappers (`gsn-wrappers`).
pub use gsn_wrappers as wrappers;

/// The simulated peer-to-peer substrate (`gsn-network`).
pub use gsn_network as network;

/// The distributed federation tier: placement ring + replicated directory (`gsn-federation`).
pub use gsn_federation as federation;

/// The GSN container and federation (`gsn-core`).
pub use gsn_core as container;

/// Metrics, tracing and the slow-query log (`gsn-telemetry`).
pub use gsn_telemetry as telemetry;

// Convenience re-exports of the most common entry points.
pub use gsn_core::{
    ContainerConfig, GsnContainer, Mesh, Notification, QueryCursor, RemoteQueryResult, StepReport,
};
pub use gsn_storage::WindowSpec;
pub use gsn_types::{GsnError, GsnResult, StreamElement, Timestamp, Value};
pub use gsn_xml::VirtualSensorDescriptor;
