//! # gsn-types
//!
//! Core data types shared by every crate in the GSN-RS workspace.
//!
//! The Global Sensor Networks middleware (Aberer, Hauswirth, Salehi; VLDB 2006) models a
//! data stream as a *sequence of timestamped tuples*.  This crate provides the vocabulary
//! for that model:
//!
//! * [`DataType`] and [`Value`] — the dynamic type system used by stream fields, SQL
//!   expressions and wrapper payloads.
//! * [`FieldSpec`] and [`StreamSchema`] — the *output structure* of a virtual sensor
//!   (`<output-structure>` in a deployment descriptor).
//! * [`StreamElement`] — one timestamped tuple travelling through the middleware.
//! * [`Timestamp`], [`Duration`] and [`Clock`] — the explicit time model.  GSN containers
//!   keep a local clock and implicitly timestamp tuples on arrival; benchmarks use a
//!   [`SimulatedClock`] so that experiments are deterministic and fast.
//! * [`GsnError`] — the error type used across the workspace.
//! * [`ident`] — validated identifiers for virtual sensors, fields and nodes.
//! * [`codec`] — the one binary layout of values, rows and schemas, shared by the
//!   storage engine's pages and write-ahead log and by the inter-container wire.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod codec;
pub mod element;
pub mod error;
pub mod ident;
pub mod schema;
pub mod time;
pub mod value;

pub use clock::{Clock, SimulatedClock, SystemClock};
pub use element::StreamElement;
pub use error::{GsnError, GsnResult};
pub use ident::{FieldName, NodeId, VirtualSensorName};
pub use schema::{FieldSpec, StreamSchema};
pub use time::{Duration, Timestamp};
pub use value::{DataType, Value};
