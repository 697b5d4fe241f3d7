//! Whole-run benchmark of the beeping-model MIS simulator.
//!
//! Four workloads run through the public entry points a user calls
//! (`mis::runner::run`, `mis::recovery::run_noisy`, `harness::supervise`);
//! every output is checked. An untraced run reports the end-to-end
//! metrics; a traced run replays each trial layer by layer
//! ([`replay`]) and reports where the time went.

pub mod bench;
pub mod heap;
pub mod replay;
pub mod report;
pub mod spans;
pub mod workload;
