//! # gsn-wrappers
//!
//! Sensor-platform wrappers for GSN-RS.
//!
//! In GSN a *wrapper* adapts one physical platform (TinyOS motes, network cameras, RFID
//! readers, ...) to the container's stream-element interface; the paper reports that a new
//! wrapper is typically 100–200 lines and takes under a day to write (Section 5).  This
//! crate provides:
//!
//! * the [`Wrapper`] trait and [`WrapperRegistry`] / [`WrapperFactory`] extension point,
//! * simulated device wrappers replacing the paper's physical testbed
//!   ([`mote::MoteWrapper`], [`camera::CameraWrapper`], [`rfid::RfidWrapper`]) — see
//!   DESIGN.md for the substitution rationale,
//! * utility wrappers ([`generic::PushWrapper`], [`generic::ReplayWrapper`],
//!   [`generic::ScriptedWrapper`], [`generic::SystemTimeWrapper`]) used by examples,
//!   tests and the benchmark harnesses,
//! * deterministic device-simulation primitives ([`sim`]).
//!
//! The `remote` wrapper (reading another GSN node's virtual sensor over the network) lives
//! in `gsn-core`, because it needs the container's network client.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod camera;
pub mod generic;
pub mod mote;
pub mod rfid;
pub mod sim;
pub mod wrapper;

pub use camera::{CameraConfig, CameraWrapper, CameraWrapperFactory};
pub use generic::{
    PushHandle, PushWrapper, PushWrapperFactory, ReplayWrapper, ReplayWrapperFactory,
    ScriptedWrapper, ScriptedWrapperFactory, SystemTimeWrapper, SystemTimeWrapperFactory, TraceRow,
};
pub use mote::{MoteConfig, MoteWrapper, MoteWrapperFactory};
pub use rfid::{RfidConfig, RfidWrapper, RfidWrapperFactory};
pub use wrapper::{Wrapper, WrapperFactory, WrapperRegistry};

#[cfg(test)]
mod tests {
    /// Implementation lines of a wrapper module: skips blank lines and `//` comments and
    /// stops at the `#[cfg(test)]` module.
    fn impl_lines(source: &str) -> usize {
        source
            .lines()
            .map(str::trim)
            .take_while(|line| !line.starts_with("#[cfg(test)]"))
            .filter(|line| !line.is_empty() && !line.starts_with("//"))
            .count()
    }

    /// The paper's wrapper-effort claim (Section 5): "typically around 100-200 lines
    /// ... the TinyOS wrapper required 150 lines of code".  `generic.rs` is left out: it
    /// bundles four wrappers (push, replay, scripted, system-time) in one module.
    #[test]
    fn each_device_wrapper_stays_within_the_papers_200_line_effort() {
        for (module, source) in [
            ("mote.rs", include_str!("mote.rs")),
            ("camera.rs", include_str!("camera.rs")),
            ("rfid.rs", include_str!("rfid.rs")),
        ] {
            let lines = impl_lines(source);
            assert!(lines <= 200, "{module}: {lines} implementation lines");
        }
    }
}
