//! The five workloads.  Each builds its inputs from the seed, drives the program
//! through its public API only, and checks every output against its own reference.

use std::time::Instant;

use crate::common::{Outcome, Params, Scratch};

pub mod adhoc;
pub mod cameras;
pub mod clients;
pub mod mesh;
pub mod motes;

/// Runs the named workload in this process; `None` for an unknown name.  `started` is
/// when the process began: `setup_s` counts from there.
pub fn run(name: &str, params: &Params, scratch: &Scratch, started: Instant) -> Option<Outcome> {
    Some(match name {
        "motes_pipeline" => motes::run(params, started),
        "cameras_durable" => cameras::run(params, scratch, started),
        "clients_continuous" => clients::run(params, started),
        "adhoc_reads" => adhoc::run(params, scratch, started),
        "mesh_federated" => mesh::run(params, started),
        _ => return None,
    })
}
