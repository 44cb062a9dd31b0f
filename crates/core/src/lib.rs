//! # gsn-core
//!
//! The GSN container — the heart of the middleware reproduced from "A Middleware for Fast
//! and Flexible Sensor Network Deployment" (VLDB 2006).
//!
//! A [`GsnContainer`] hosts a pool of virtual sensors deployed from XML descriptors,
//! manages their wrappers, storage, stream quality, query processing and notifications,
//! and participates in a peer-to-peer federation of containers for remote sensor access.
//!
//! ```
//! use std::sync::Arc;
//! use gsn_core::{ContainerConfig, GsnContainer};
//! use gsn_types::{Duration, SimulatedClock};
//!
//! let clock = SimulatedClock::new();
//! let mut container = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
//! container.deploy_xml(r#"
//!   <virtual-sensor name="quick-temp">
//!     <output-structure><field name="avg_temp" type="double"/></output-structure>
//!     <input-stream name="main">
//!       <stream-source alias="src1" storage-size="10">
//!         <address wrapper="mote"><predicate key="interval" val="100"/></address>
//!         <query>select avg(temperature) as avg_temp from WRAPPER</query>
//!       </stream-source>
//!       <query>select * from src1</query>
//!     </input-stream>
//!   </virtual-sensor>"#).unwrap();
//! clock.advance(Duration::from_secs(1));
//! let report = container.step();
//! assert_eq!(report.outputs, 10);
//! let avg = container.query("select avg(avg_temp) from quick_temp").unwrap();
//! assert_eq!(avg.row_count(), 1);
//! ```
//!
//! Module map (mirroring Figure 2 of the paper):
//!
//! * [`container`] — the container itself (interface layer + coordination).
//! * [`sensor`] — the virtual sensor manager / life-cycle manager per deployed sensor.
//! * [`ism`] — the input stream manager (stream quality, rate bounding).
//! * [`query`] — the query manager (query processor + query repository).
//! * [`notification`] — the notification manager.
//! * [`federation`] — the multi-node harness (peer-to-peer overlay of containers).
//! * [`telemetry`] — the container's metric descriptors and instrument handles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod container;
pub mod cursor;
pub mod federation;
pub mod ism;
pub mod notification;
pub mod query;
pub mod sensor;
pub mod telemetry;

pub use config::{system_clock, ContainerConfig};
pub use container::{ContainerStatus, GsnContainer, RemoteQueryResult, SensorStatus, StepReport};
pub use cursor::QueryCursor;
pub use federation::Mesh;
pub use ism::{QualityPolicy, RateLimiter, SourceMonitor, SourceQuality};
pub use notification::{Notification, NotificationManager, NotificationStats, SubscriptionId};
pub use query::{
    ClientQuery, ClientQueryId, ClientQueryResult, QueryManagerStats, QueryRepository,
};
pub use sensor::{SensorStats, SourceKind, VirtualSensor};
pub use telemetry::{ContainerTelemetry, QueryTelemetry, SourcedMetrics, SourcedTotals};
