//! End-to-end workflow-run benchmark: the workloads, the timing decorator
//! around the policy transport, span attribution, host figures and output
//! checks, shared by the `perfbench` binary and its tests.

pub mod check;
pub mod host;
pub mod report;
pub mod timed;
pub mod trace;
pub mod workload;
