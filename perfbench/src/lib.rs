//! Library half of the `perfbench` binary: seeded workloads and their
//! references, the `compile_heavy` unit generator, span recording,
//! runtime probes and the statistics the binary reports.

pub mod calib;
pub mod gen;
pub mod probes;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
