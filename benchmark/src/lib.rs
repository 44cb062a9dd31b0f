//! The GSN-RS benchmark: five workloads, end-to-end metrics and per-layer attribution,
//! all measured from outside the program.  See `README.md`.

pub mod common;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod runner;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workloads;
