//! End-to-end and per-layer benchmark of the SpZip simulator.
//!
//! The `perfbench` binary runs a workload's cells from outside the
//! program, through public calls only, on a small in-process worker pool.
//! An untraced pass gives the end-to-end metrics; a separate
//! single-worker pass composes each cell from its layer calls with a timer
//! around each and gives the per-layer metrics. See `README.md` in this
//! directory for the workloads and the metric map.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod exec;
pub mod workload;
