//! # SIDCo — statistical gradient compression for distributed training
//!
//! This is the facade crate of the SIDCo reproduction (MLSys 2021,
//! "An Efficient Statistical-based Gradient Compression Technique for Distributed
//! Training Systems"). It re-exports the workspace crates so applications can depend
//! on a single crate:
//!
//! * [`stats`] — sparsity-inducing distributions, estimators, special functions;
//! * [`runtime`] — the execution substrate: a persistent NUMA-aware
//!   work-stealing pool (inline for a single worker) under the compression
//!   engine;
//! * [`tensor`] — dense/sparse gradients, Top-k selection, threshold scans;
//! * [`core`] — the SIDCo compressor and every baseline (Top-k, DGC, RedSync,
//!   GaussianKSGD, Random-k) plus error feedback;
//! * [`models`] — Table-1 benchmark specs, synthetic gradient generators and real
//!   trainable models;
//! * [`dist`] — the distributed synchronous-SGD simulator (optimizers, network and
//!   device cost models, trainer, benchmark simulations);
//! * [`trace`] — the unified tracing/metrics subsystem: virtual/real dual
//!   clocks, span recording, counters/gauges/histograms, and Chrome
//!   trace-event export for Perfetto.
//!
//! # Quickstart
//!
//! Compress a gradient to 1% of its elements with SIDCo-E and reconstruct it:
//!
//! ```
//! use sidco::prelude::*;
//!
//! let grad: Vec<f32> = (1..=50_000)
//!     .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.7))
//!     .collect();
//!
//! let mut compressor = SidcoCompressor::new(SidcoConfig::exponential());
//! let result = compressor.compress(&grad, 0.01);
//!
//! // The achieved ratio tracks the 1% target.
//! let achieved = result.sparse.achieved_ratio();
//! assert!(achieved > 0.002 && achieved < 0.05);
//!
//! // The sparse gradient scatters back into a dense vector for aggregation.
//! let dense = result.sparse.to_dense();
//! assert_eq!(dense.len(), grad.len());
//! ```
//!
//! See the `examples/` directory for end-to-end distributed-training scenarios and
//! the `sidco-bench` crate for the harness that regenerates every table and figure
//! of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sidco_core as core;
pub use sidco_dist as dist;
pub use sidco_models as models;
pub use sidco_runtime as runtime;
pub use sidco_stats as stats;
pub use sidco_tensor as tensor;
pub use sidco_trace as trace;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use sidco_core::prelude::*;
    pub use sidco_dist::cluster::ClusterConfig;
    pub use sidco_dist::simulate::{simulate_benchmark, SimulationConfig};
    pub use sidco_dist::trainer::{ModelTrainer, TrainerConfig};
    pub use sidco_dist::{
        BucketPolicy, ClusterEvent, CollectiveScheduler, ComputeSkew, DispatchReport, FleetReport,
        FleetScheduler, HierarchicalTopology, JobSpec, LrSchedule, NetworkModel, NodeProfile,
        Optimizer, PriorityPolicy, RescaleRecord, SharePolicy, TenancyConfig,
    };
    pub use sidco_models::benchmarks::BenchmarkId;
    pub use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};
    pub use sidco_models::DifferentiableModel;
    pub use sidco_runtime::{Runtime, RuntimeKind};
    pub use sidco_trace::{
        parse_chrome_trace, ChromeTrace, TraceReport, TraceSession, VirtualClock,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Compile-time check that the re-exported paths resolve.
        let _ = crate::core::compressor::CompressorKind::TopK;
        let _ = crate::models::benchmarks::BenchmarkId::LstmPtb;
        let _ = crate::stats::fit::SidKind::Exponential;
    }
}
