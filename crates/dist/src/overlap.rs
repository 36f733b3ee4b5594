//! DDP-style bucketed compression↔communication pipelining.
//!
//! Real data-parallel frameworks do not compress the whole gradient and then
//! communicate it: the flat gradient is split into per-layer *buckets*, and
//! while bucket `i` is on the wire, bucket `i + 1` is being compressed. This
//! module models that two-stage pipeline analytically, given the per-bucket
//! compression and communication costs from the device and network models:
//!
//! * one *compression stream* processes buckets in order (bucket `i + 1`
//!   starts as soon as bucket `i` is handed to the network);
//! * one *communication stream* also processes buckets in order, starting each
//!   bucket as soon as it is compressed **and** the wire is free.
//!
//! The pipelined iteration overhead is therefore bounded below by
//! `max(Σ compression, Σ communication)` plus the unavoidable fill/drain
//! bubbles, and bounded above by the fully serial `Σ compression +
//! Σ communication`.
//!
//! This module is the single-stream FIFO special case; the general model —
//! multiple communication streams, hierarchical collectives and
//! ByteScheduler-style priority preemption — lives in
//! [`collective`](crate::collective), whose single-stream FIFO schedule
//! reproduces [`pipelined_overhead`] exactly (a property-tested invariant).
//! [`multi_stream_overhead`] is the bridge: the same per-bucket cost slices,
//! scheduled on a configurable [`CollectiveScheduler`].

use crate::collective::{BucketCost, CollectiveScheduler};
use sidco_runtime::PoolStats;

/// Total compression + communication overhead when the two phases are fully
/// serialised (compress every bucket, then communicate every bucket).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn serial_overhead(compression: &[f64], communication: &[f64]) -> f64 {
    assert_eq!(
        compression.len(),
        communication.len(),
        "per-bucket cost slices must align"
    );
    compression.iter().sum::<f64>() + communication.iter().sum::<f64>()
}

/// Total overhead when compression of bucket `i + 1` overlaps communication of
/// bucket `i` (single compression stream, single communication stream).
///
/// Classic two-stage pipeline recurrence: with `C_i` the compression finish
/// time (`C_i = C_{i-1} + comp_i`) the wire finishes bucket `i` at
/// `W_i = max(W_{i-1}, C_i) + comm_i`; the overhead is `W_last`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pipelined_overhead(compression: &[f64], communication: &[f64]) -> f64 {
    assert_eq!(
        compression.len(),
        communication.len(),
        "per-bucket cost slices must align"
    );
    let mut compress_done = 0.0f64;
    let mut wire_done = 0.0f64;
    for (&comp, &comm) in compression.iter().zip(communication) {
        compress_done += comp;
        wire_done = wire_done.max(compress_done) + comm;
    }
    wire_done
}

/// Total overhead when the per-bucket costs are scheduled by `scheduler`
/// instead of the single FIFO stream: `communication[i]` is split into its
/// overlappable latency part (`latency[i]`) and the link-serialised
/// remainder. With one stream, FIFO priority and zero latencies this equals
/// [`pipelined_overhead`].
///
/// # Panics
///
/// Panics if the slices have different lengths or `latency[i] >
/// communication[i]` for some bucket.
pub fn multi_stream_overhead(
    compression: &[f64],
    communication: &[f64],
    latency: &[f64],
    scheduler: &CollectiveScheduler,
) -> f64 {
    assert_eq!(
        compression.len(),
        communication.len(),
        "per-bucket cost slices must align"
    );
    assert_eq!(
        compression.len(),
        latency.len(),
        "per-bucket cost slices must align"
    );
    let buckets: Vec<BucketCost> = compression
        .iter()
        .zip(communication)
        .zip(latency)
        .map(|((&compression, &communication), &latency)| {
            assert!(
                latency <= communication,
                "latency {latency} exceeds total communication {communication}"
            );
            BucketCost {
                ready_at: 0.0,
                compression,
                latency,
                transfer: communication - latency,
            }
        })
        .collect();
    scheduler.schedule(&buckets).makespan()
}

/// Accumulated overlap accounting over a training run: what the
/// compression + communication overhead would have cost fully serialised vs
/// what the (possibly pipelined) schedule actually charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapAccounting {
    buckets: usize,
    serial: f64,
    charged: f64,
}

impl OverlapAccounting {
    /// Empty accounting for a run using `buckets` gradient buckets.
    pub fn new(buckets: usize) -> Self {
        Self {
            buckets,
            serial: 0.0,
            charged: 0.0,
        }
    }

    /// Adds one iteration's overheads (serialised cost and actually charged
    /// cost).
    pub fn record(&mut self, serial: f64, charged: f64) {
        self.serial += serial;
        self.charged += charged;
    }

    /// Number of gradient buckets per iteration.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Total compression + communication overhead had every iteration been
    /// fully serialised.
    pub fn serial_overhead(&self) -> f64 {
        self.serial
    }

    /// Total overhead actually charged to the clock.
    pub fn charged_overhead(&self) -> f64 {
        self.charged
    }

    /// Seconds saved by pipelining over the serial schedule.
    pub fn saved(&self) -> f64 {
        (self.serial - self.charged).max(0.0)
    }

    /// Overhead speed-up of the charged schedule over the serial one
    /// (1.0 when nothing overlapped or nothing was charged).
    pub fn speedup(&self) -> f64 {
        if self.charged > 0.0 {
            self.serial / self.charged
        } else {
            1.0
        }
    }
}

/// How the trainer *executed* its per-bucket compressions, as opposed to how
/// the cost model charged them: which runtime ran the jobs, how wide it was,
/// and what the work-stealing pool observed while doing it. Attached to
/// [`TrainingReport`](crate::metrics::TrainingReport) by pool-backed
/// compressed runs so the modeled pipeline (this module) can be checked
/// against real concurrent execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchReport {
    /// Executor the per-bucket jobs ran on (`"inline"` or `"pool"`).
    pub runtime: &'static str,
    /// Worker threads the executor exposes (1 for the inline runtime).
    pub parallelism: usize,
    /// Number of fan-out rounds dispatched (one per training iteration).
    pub jobs: u64,
    /// Independent compression tasks per round (`workers × buckets`).
    pub tasks_per_job: usize,
    /// Bucket order the jobs were released in — the gradient-arrival order
    /// from [`release_order`](crate::collective::release_order), matching the
    /// modeled compression stream.
    pub dispatch_order: Vec<usize>,
    /// Bucket order in which the last iteration's buckets actually finished
    /// all their per-worker compressions (steal-order dependent; every bucket
    /// appears exactly once).
    pub completion_order: Vec<usize>,
    /// Pool counters accumulated over the run (dispatches, steals, parks),
    /// diffed against the pre-run snapshot when the executor is the shared
    /// process-wide pool. `None` on the inline runtime.
    pub pool: Option<PoolStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bucket_cannot_overlap() {
        let comp = [3.0];
        let comm = [2.0];
        assert_eq!(serial_overhead(&comp, &comm), 5.0);
        assert_eq!(pipelined_overhead(&comp, &comm), 5.0);
    }

    #[test]
    fn pipelining_is_bounded_by_the_dominant_stream() {
        let comp = [1.0, 1.0, 1.0, 1.0];
        let comm = [2.0, 2.0, 2.0, 2.0];
        let serial = serial_overhead(&comp, &comm);
        let pipelined = pipelined_overhead(&comp, &comm);
        assert_eq!(serial, 12.0);
        // Fill bubble of one compression, then the wire is saturated.
        assert_eq!(pipelined, 9.0);
        assert!(pipelined >= comm.iter().sum::<f64>());
        assert!(pipelined >= comp.iter().sum::<f64>());
        assert!(pipelined <= serial);
    }

    #[test]
    fn compression_bound_pipeline_drains_into_last_communication() {
        let comp = [4.0, 4.0];
        let comm = [1.0, 1.0];
        // C: 4, 8; W: max(0,4)+1=5, max(5,8)+1=9.
        assert_eq!(pipelined_overhead(&comp, &comm), 9.0);
    }

    #[test]
    fn empty_and_zero_costs() {
        assert_eq!(pipelined_overhead(&[], &[]), 0.0);
        assert_eq!(serial_overhead(&[], &[]), 0.0);
        assert_eq!(pipelined_overhead(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_buckets_panic() {
        pipelined_overhead(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn multi_stream_overhead_generalises_the_pipeline() {
        use crate::collective::PriorityPolicy;
        let comp = [1.0, 0.5, 2.0];
        let comm = [2.0, 3.0, 0.5];
        let zero_latency = [0.0, 0.0, 0.0];
        let fifo = CollectiveScheduler::single_stream_fifo();
        assert!(
            (multi_stream_overhead(&comp, &comm, &zero_latency, &fifo)
                - pipelined_overhead(&comp, &comm))
            .abs()
                < 1e-12
        );
        // Splitting part of the communication into overlappable latency can
        // only help once a second stream exists.
        let latency = [0.5, 0.5, 0.25];
        let two = CollectiveScheduler::new(2, PriorityPolicy::SmallestFirst);
        let overhead = multi_stream_overhead(&comp, &comm, &latency, &two);
        assert!(overhead <= pipelined_overhead(&comp, &comm) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds total communication")]
    fn multi_stream_rejects_inconsistent_latency() {
        multi_stream_overhead(
            &[1.0],
            &[1.0],
            &[2.0],
            &CollectiveScheduler::single_stream_fifo(),
        );
    }

    #[test]
    fn accounting_accumulates_and_summarises() {
        let mut acc = OverlapAccounting::new(4);
        acc.record(10.0, 7.0);
        acc.record(10.0, 8.0);
        assert_eq!(acc.buckets(), 4);
        assert_eq!(acc.serial_overhead(), 20.0);
        assert_eq!(acc.charged_overhead(), 15.0);
        assert_eq!(acc.saved(), 5.0);
        assert!((acc.speedup() - 20.0 / 15.0).abs() < 1e-12);
        let empty = OverlapAccounting::new(1);
        assert_eq!(empty.speedup(), 1.0);
        assert_eq!(empty.saved(), 0.0);
    }
}
