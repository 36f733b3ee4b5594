//! The SIDCo workspace's benchmark: three closed-loop workloads driven through
//! the public API (`compress-sweep`, `train-mlp`, `fleet-32job`), the output
//! checks made apart from the program, and the per-layer probes. The
//! `perfbench` binary runs one workload; `reference` prints the README's
//! reference figures. See README.md.

pub mod checks;
pub mod compress;
pub mod fleet;
pub mod harness;
pub mod layers;
pub mod train;
