//! Serving benchmark for the Lightening-Transformer workspace.
//!
//! Three seeded workloads run open loop through
//! `lt_nn::serve::lifecycle::SloFrontend::run_open`; a traced pass then
//! drives the same scheduler loop from this crate with spans around each
//! layer. See `README.md` in this directory for the two clocks, the
//! workloads and the layer-to-metric map.

#![warn(missing_docs)]

pub mod run;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workload;
