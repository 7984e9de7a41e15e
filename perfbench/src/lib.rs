//! End-to-end and per-layer benchmark of the Ripple workspace.
//!
//! The `ripple-perfbench` binary runs one named workload from a seed,
//! checks its outputs, and prints its metrics; see `README.md` in this
//! directory for the workloads, the metrics and how to run it.

pub mod inputs;
pub mod layers;
pub mod pagerank;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
