//! Property-test harness for the async collective scheduler
//! (`sidco_dist::collective`) and the hierarchical network model.
//!
//! The four scheduler invariants of the design, proven over randomised
//! cluster/bucket configurations (case count set by `PROPTEST_CASES`,
//! default 256):
//!
//! 1. **Stream exclusivity** — no stream hosts two buckets at once, and the
//!    shared link never serves two transfers at once;
//! 2. **Priority safety** — priority scheduling never increases the
//!    completion time of the critical-path (highest-priority) bucket relative
//!    to FIFO;
//! 3. **Hierarchy collapse** — hierarchical collectives equal flat
//!    collectives when `node_count == 1` (and when `workers_per_node == 1`);
//! 4. **Bandwidth bound** — every valid schedule's makespan is at least the
//!    bandwidth lower bound `Σ transferᵢ` (and at most fully serial);
//!
//! plus monotonicity (more streams never increase the makespan), the exact
//! equivalence of the single-stream FIFO schedule with
//! `overlap::pipelined_overhead`, and bit-identical convergence of
//! overlapped/multi-stream trainer runs against serial runs for every
//! evaluated compressor.
//!
//! The arrival-aware/NIC extensions add four more pinned properties:
//!
//! 5. **Release safety** — no bucket enters compression (or the wire) before
//!    its `ready_at` gradient-arrival time, for every policy and stream
//!    count;
//! 6. **Zero-arrival collapse** — with every release at zero the schedule is
//!    bit-identical to the arrival-oblivious model (index-order prefix-sum
//!    compression, the recurrence equivalence of invariant 6 above);
//! 7. **NIC monotonicity** — the hierarchical all-gather is monotonically
//!    non-increasing in the per-node NIC count and collapses bit-identically
//!    to the single-bottleneck model at one rail;
//! 8. **Anomaly repair** — `repaired_schedule` never exceeds the
//!    single-stream FIFO pipeline makespan at any stream count, arrivals
//!    included (the slot-limited Graham anomaly is repaired, not merely
//!    documented).
//!
//! The heterogeneous/elastic cluster extensions add four more:
//!
//! 9. **Homogeneous-profile collapse** — per-node NIC profiles that all equal
//!    the scalar rail configuration charge bit-for-bit what the scalar path
//!    charges, for every collective and the budget inversion;
//! 10. **Per-node slowdown monotonicity** — slowing any single node (compute
//!     skew or NIC bandwidth) never makes any modelled charge cheaper;
//! 11. **EF-mass conservation** — the signed error-feedback mass survives
//!     every Join/Leave sequence (departing residuals fold into survivors);
//! 12. **Join/Leave no-op collapse** — a Join immediately undone by a Leave
//!     is bit-identical to a run with no events at all.

use proptest::prelude::*;
use sidco::prelude::*;
use sidco_dist::collective::{
    bandwidth_lower_bound, makespan_lower_bound, modeled_bucket_costs, BucketCost,
    CollectiveScheduler, PriorityPolicy, ScheduleTimeline,
};
use sidco_dist::network::HierarchicalTopology;
use sidco_dist::overlap::pipelined_overhead;
use sidco_dist::schedule::auto_bucket_layout;
use sidco_dist::simulate::build_compressor;
use sidco_dist::{BucketPolicy, NetworkModel};
use sidco_models::dataset::ClassificationDataset;
use sidco_models::mlp::Mlp;
use std::sync::Arc;

const POLICIES: [PriorityPolicy; 3] = [
    PriorityPolicy::Fifo,
    PriorityPolicy::SmallestFirst,
    PriorityPolicy::NearestOutputFirst,
];

/// Strategy: per-bucket `(compression, latency, transfer)` cost triples with
/// a healthy share of zeros (empty buckets, latency-free links, payload-free
/// collectives are all reachable in the real models).
fn bucket_costs_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec(
        (
            prop_oneof![4 => 0.0f64..3.0, 1 => Just(0.0f64)],
            prop_oneof![3 => 0.0f64..0.5, 1 => Just(0.0f64)],
            prop_oneof![4 => 0.0f64..5.0, 1 => Just(0.0f64)],
        ),
        1..16,
    )
}

fn to_costs(raw: &[(f64, f64, f64)]) -> Vec<BucketCost> {
    raw.iter()
        .map(|&(compression, latency, transfer)| BucketCost {
            ready_at: 0.0,
            compression,
            latency,
            transfer,
        })
        .collect()
}

/// Strategy: bucket costs plus a backward-pass shape — per-bucket release
/// times are derived the way `schedule::bucket_ready_times` produces them
/// (non-increasing in the bucket index: output-side buckets arrive first),
/// scaled by a random backward duration including zero (the arrival-oblivious
/// collapse).
fn bucket_costs_with_arrivals_strategy() -> impl Strategy<Value = Vec<BucketCost>> {
    (
        bucket_costs_strategy(),
        prop_oneof![3 => 0.0f64..4.0, 1 => Just(0.0f64)],
        prop::collection::vec(0.01f64..1.0, 16),
    )
        .prop_map(|(raw, backward, weights)| {
            let mut costs = to_costs(&raw);
            let n = costs.len();
            // Suffix-sum releases over the first n weights: non-increasing,
            // bucket 0 released exactly at the full backward duration.
            let total: f64 = weights[..n].iter().sum();
            let mut suffix = 0.0f64;
            for i in (0..n).rev() {
                suffix += weights[i];
                costs[i].ready_at = suffix / total * backward;
            }
            costs
        })
}

/// Relative tolerance for event-time comparisons (the simulator accumulates
/// sums of ≤ ~50 doubles; 1e-9 relative is far above its rounding error).
fn tol(scale: f64) -> f64 {
    1e-9 * scale.max(1.0)
}

/// Checks structural validity of a timeline: every bucket scheduled exactly
/// once, stream ids in range, per-stream comm windows disjoint, link
/// segments disjoint and within comm windows, compression serial.
fn assert_well_formed(
    timeline: &ScheduleTimeline,
    buckets: &[BucketCost],
    streams: usize,
) -> Result<(), TestCaseError> {
    let entries = timeline.entries();
    prop_assert_eq!(entries.len(), buckets.len());
    prop_assert_eq!(timeline.streams(), streams);
    let eps = tol(timeline.makespan());
    // Compression is serial, first-come-first-served in arrival order (ties
    // by index) and never before a bucket's release time. With all releases
    // at zero this is exactly the index-order prefix sum.
    let mut order: Vec<usize> = (0..buckets.len()).collect();
    order.sort_by(|&a, &b| {
        buckets[a]
            .ready_at
            .partial_cmp(&buckets[b].ready_at)
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut compress_frontier = 0.0f64;
    for &i in &order {
        let expected_start = compress_frontier.max(buckets[i].ready_at);
        prop_assert!(
            (entries[i].compress_start - expected_start).abs() <= eps,
            "bucket {i} compressed at {} instead of {expected_start}",
            entries[i].compress_start
        );
        compress_frontier = entries[i].compress_end;
    }
    for (i, entry) in entries.iter().enumerate() {
        prop_assert_eq!(entry.bucket, i);
        prop_assert!(
            entry.stream < streams,
            "stream {} of {streams}",
            entry.stream
        );
        // Release safety: nothing happens before the gradient arrives.
        prop_assert_eq!(entry.ready_at, buckets[i].ready_at);
        prop_assert!(
            entry.compress_start >= buckets[i].ready_at - eps,
            "bucket {i} compressed at {} before its release {}",
            entry.compress_start,
            buckets[i].ready_at
        );
        prop_assert!(
            (entry.compress_end - entry.compress_start - buckets[i].compression).abs() <= eps
        );
        // Communication starts after compression and lasts at least α + β.
        prop_assert!(entry.comm_start >= entry.compress_end - eps);
        prop_assert!(
            entry.comm_end - entry.comm_start >= buckets[i].latency + buckets[i].transfer - eps,
            "bucket {i} comm window shorter than its work"
        );
        // Link segments lie inside the comm window, after the latency phase,
        // and sum to the transfer time.
        let mut served = 0.0f64;
        for segment in &entry.segments {
            prop_assert!(segment.start >= entry.comm_start + buckets[i].latency - eps);
            prop_assert!(segment.end <= entry.comm_end + eps);
            prop_assert!(segment.end >= segment.start - eps);
            served += segment.end - segment.start;
        }
        prop_assert!(
            (served - buckets[i].transfer).abs() <= eps,
            "bucket {i} served {served} of {} transfer",
            buckets[i].transfer
        );
    }
    // Invariant 1a: no stream hosts two buckets at once. Sorting by
    // (start, end) lets a zero-cost collective acquire and release a slot at
    // the very instant its successor starts.
    for stream in 0..streams {
        let mut windows: Vec<(f64, f64)> = entries
            .iter()
            .filter(|e| e.stream == stream)
            .map(|e| (e.comm_start, e.comm_end))
            .collect();
        windows.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(a.1.partial_cmp(&b.1).unwrap())
        });
        for pair in windows.windows(2) {
            prop_assert!(
                pair[1].0 >= pair[0].1 - eps,
                "stream {stream} hosts two buckets at once: {pair:?}"
            );
        }
    }
    // Invariant 1b: the link serves one transfer at a time.
    let segments = timeline.link_segments();
    for pair in segments.windows(2) {
        prop_assert!(pair[1].start >= pair[0].end - eps, "link overlap: {pair:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Invariant 1 (+ structural sanity) for every policy and stream count.
    #[test]
    fn schedules_are_well_formed(raw in bucket_costs_strategy(), streams in 1usize..6) {
        let buckets = to_costs(&raw);
        for policy in POLICIES {
            let timeline = CollectiveScheduler::new(streams, policy).schedule(&buckets);
            assert_well_formed(&timeline, &buckets, streams)?;
        }
    }

    /// Invariant 4: bandwidth lower bound (and the tighter compression/path
    /// bound), plus the fully-serial upper bound.
    #[test]
    fn makespan_respects_bandwidth_bounds(raw in bucket_costs_strategy(), streams in 1usize..6) {
        let buckets = to_costs(&raw);
        let serial: f64 = buckets.iter().map(|b| b.compression + b.communication()).sum();
        for policy in POLICIES {
            let makespan = CollectiveScheduler::new(streams, policy).schedule(&buckets).makespan();
            let eps = tol(serial);
            prop_assert!(
                makespan >= bandwidth_lower_bound(&buckets) - eps,
                "makespan {makespan} under bandwidth bound {}",
                bandwidth_lower_bound(&buckets)
            );
            prop_assert!(
                makespan >= makespan_lower_bound(&buckets) - eps,
                "makespan {makespan} under path bound {}",
                makespan_lower_bound(&buckets)
            );
            prop_assert!(
                makespan <= serial + eps,
                "makespan {makespan} above serial {serial}"
            );
        }
    }

    /// Invariant 2: with a stream per bucket (no slot contention — the
    /// configuration priority scheduling is designed for), the critical-path
    /// (highest-priority) bucket completes at exactly its unobstructed path
    /// time `ready + α + β`. That is the per-bucket lower bound of *any*
    /// schedule, so priority never finishes the critical path later than
    /// FIFO. (With fewer streams than buckets a preempted transfer still
    /// holds its slot, so slot-level priority inversion is possible — a
    /// documented property of the model, not an accident.)
    #[test]
    fn priority_never_delays_the_critical_bucket(raw in bucket_costs_strategy()) {
        let buckets = to_costs(&raw);
        let streams = buckets.len();
        let fifo = CollectiveScheduler::new(streams, PriorityPolicy::Fifo).schedule(&buckets);
        for policy in [PriorityPolicy::SmallestFirst, PriorityPolicy::NearestOutputFirst] {
            let ranks = policy.ranks(&buckets);
            let critical = ranks
                .iter()
                .position(|&r| r == 0)
                .expect("ranks form a permutation");
            let scheduled = CollectiveScheduler::new(streams, policy).schedule(&buckets);
            let path = scheduled.entries()[critical].compress_end
                + buckets[critical].latency
                + buckets[critical].transfer;
            let eps = tol(fifo.makespan());
            prop_assert!(
                (scheduled.completion(critical) - path).abs() <= eps,
                "{policy}: critical bucket {critical} missed its path bound: \
                 {} vs {path}",
                scheduled.completion(critical)
            );
            prop_assert!(
                scheduled.completion(critical) <= fifo.completion(critical) + eps,
                "{policy}: critical bucket {critical} slipped from {} to {}",
                fifo.completion(critical),
                scheduled.completion(critical)
            );
        }
    }

    /// With dedicated streams the link's busy periods are policy-independent
    /// (it is work-conserving and arrivals don't depend on slot grants), so
    /// priority redistributes completion times without changing the makespan.
    #[test]
    fn priority_does_not_change_makespan_with_dedicated_streams(raw in bucket_costs_strategy()) {
        let buckets = to_costs(&raw);
        let streams = buckets.len();
        let reference = CollectiveScheduler::new(streams, PriorityPolicy::Fifo)
            .schedule(&buckets)
            .makespan();
        for policy in [PriorityPolicy::SmallestFirst, PriorityPolicy::NearestOutputFirst] {
            let makespan = CollectiveScheduler::new(streams, policy).schedule(&buckets).makespan();
            prop_assert!(
                (makespan - reference).abs() <= tol(reference),
                "{policy}: makespan moved from {reference} to {makespan}"
            );
        }
    }

    /// Monotonicity: a larger stream budget never increases the charged
    /// makespan — for any policy — and the charged schedule never loses to
    /// the single-stream FIFO pipeline. (`best_schedule` is what the trainer
    /// charges; a *fixed* priority schedule is monotone only for FIFO, see
    /// the next property.)
    #[test]
    fn more_streams_never_increase_makespan(raw in bucket_costs_strategy()) {
        let buckets = to_costs(&raw);
        let pipeline = CollectiveScheduler::single_stream_fifo().schedule(&buckets).makespan();
        for policy in POLICIES {
            let mut previous = f64::INFINITY;
            for streams in 1usize..=6 {
                let makespan = CollectiveScheduler::new(streams, policy)
                    .best_schedule(&buckets)
                    .makespan();
                prop_assert!(
                    makespan <= previous + tol(previous),
                    "{policy}: budget {streams} made it worse: {previous} -> {makespan}"
                );
                prop_assert!(
                    makespan <= pipeline + tol(pipeline),
                    "{policy}: charged {makespan} above the pipeline {pipeline}"
                );
                previous = makespan;
            }
        }
    }

    /// Fixed-configuration FIFO schedules are monotone in the stream count
    /// (priority policies are not — slot-limited preemption has genuine
    /// scheduling anomalies, which is exactly why charging goes through
    /// `best_schedule`).
    #[test]
    fn fixed_fifo_schedules_are_monotone_in_streams(raw in bucket_costs_strategy()) {
        let buckets = to_costs(&raw);
        let mut previous = f64::INFINITY;
        for streams in 1usize..=6 {
            let makespan = CollectiveScheduler::new(streams, PriorityPolicy::Fifo)
                .schedule(&buckets)
                .makespan();
            prop_assert!(
                makespan <= previous + tol(previous),
                "fifo: {streams} streams made it worse: {previous} -> {makespan}"
            );
            previous = makespan;
        }
    }

    /// Single-stream FIFO scheduling is the pipelined overlap model.
    #[test]
    fn single_stream_fifo_reproduces_the_pipeline_recurrence(raw in bucket_costs_strategy()) {
        let buckets = to_costs(&raw);
        let comp: Vec<f64> = buckets.iter().map(|b| b.compression).collect();
        let comm: Vec<f64> = buckets.iter().map(|b| b.communication()).collect();
        let reference = pipelined_overhead(&comp, &comm);
        let makespan = CollectiveScheduler::single_stream_fifo().schedule(&buckets).makespan();
        prop_assert!(
            (makespan - reference).abs() <= tol(reference),
            "DES {makespan} vs recurrence {reference}"
        );
    }

    /// Invariant 3: hierarchical collectives equal flat collectives whenever
    /// one tier is trivial, for random fabrics and payloads.
    #[test]
    fn hierarchical_equals_flat_when_one_tier_is_trivial(
        workers in 1usize..9,
        bytes in 1usize..(1 << 22),
        fabrics in ((1.0f64..100.0, 1e-6f64..1e-4), (1.0f64..100.0, 1e-6f64..1e-4)),
    ) {
        let intra = NetworkModel { bandwidth_gbps: fabrics.0 .0, latency: fabrics.0 .1 };
        let inter = NetworkModel { bandwidth_gbps: fabrics.1 .0, latency: fabrics.1 .1 };

        // nodes == 1: everything runs on the intra fabric.
        let single = HierarchicalTopology::new(1, workers, intra, inter);
        let flat_gather = intra.allgather_sparse(bytes, workers);
        prop_assert!((single.allgather_sparse(bytes) - flat_gather).abs() <= tol(flat_gather));
        let flat_reduce = intra.allreduce_dense(bytes, workers);
        prop_assert!((single.allreduce_dense(bytes) - flat_reduce).abs() <= tol(flat_reduce));
        let (latency, transfer) = single.allgather_sparse_parts(bytes);
        let (flat_latency, flat_transfer) = intra.allgather_sparse_parts(bytes, workers);
        prop_assert!((latency - flat_latency).abs() <= tol(flat_gather));
        prop_assert!((transfer - flat_transfer).abs() <= tol(flat_gather));

        // workers_per_node == 1: everything runs on the inter fabric.
        let spread = HierarchicalTopology::new(workers, 1, intra, inter);
        let flat_gather = inter.allgather_sparse(bytes, workers);
        prop_assert!((spread.allgather_sparse(bytes) - flat_gather).abs() <= tol(flat_gather));
        let flat_reduce = inter.allreduce_dense(bytes, workers);
        prop_assert!((spread.allreduce_dense(bytes) - flat_reduce).abs() <= tol(flat_reduce));

        // The parts decomposition always sums to the lumped cost.
        let two_tier = HierarchicalTopology::new(workers.max(2), 4, intra, inter);
        let (latency, transfer) = two_tier.allgather_sparse_parts(bytes);
        let lumped = two_tier.allgather_sparse(bytes);
        prop_assert!((latency + transfer - lumped).abs() <= tol(lumped));
    }

    /// Property 5 (+ structural sanity under arrivals): schedules stay
    /// well-formed and no bucket enters compression or the wire before its
    /// release time, for every policy and stream count.
    #[test]
    fn arrival_aware_schedules_are_well_formed(
        buckets in bucket_costs_with_arrivals_strategy(),
        streams in 1usize..6,
    ) {
        for policy in POLICIES {
            let timeline = CollectiveScheduler::new(streams, policy).schedule(&buckets);
            assert_well_formed(&timeline, &buckets, streams)?;
            let eps = tol(timeline.makespan());
            for (entry, bucket) in timeline.entries().iter().zip(&buckets) {
                for segment in &entry.segments {
                    prop_assert!(
                        segment.start >= bucket.ready_at - eps,
                        "bucket {} on the wire at {} before its release {}",
                        entry.bucket,
                        segment.start,
                        bucket.ready_at
                    );
                }
            }
            // Bounds still hold: the arrival-gated path bound from below,
            // the wait-for-everything-then-serialise schedule from above.
            let makespan = timeline.makespan();
            prop_assert!(makespan >= makespan_lower_bound(&buckets) - eps);
            let last_arrival = buckets.iter().fold(0.0f64, |a, b| a.max(b.ready_at));
            let serial: f64 = buckets.iter().map(|b| b.compression + b.communication()).sum();
            prop_assert!(makespan <= last_arrival + serial + eps);
        }
    }

    /// Property 6: a uniform release time only shifts the schedule rigidly —
    /// every event of the all-arrivals-at-`T` schedule is the zero-arrival
    /// event plus `T` — so the zero-arrival model (whose bit-identity with
    /// the pre-arrival scheduler the goldens and the prefix-sum check in
    /// `assert_well_formed` pin) is the exact `T → 0` limit.
    #[test]
    fn uniform_arrivals_shift_the_zero_arrival_schedule_rigidly(
        raw in bucket_costs_strategy(),
        streams in 1usize..6,
        shift in 0.0f64..10.0,
    ) {
        let zero = to_costs(&raw);
        let shifted: Vec<BucketCost> = zero
            .iter()
            .map(|b| BucketCost { ready_at: shift, ..*b })
            .collect();
        for policy in POLICIES {
            let scheduler = CollectiveScheduler::new(streams, policy);
            let base = scheduler.schedule(&zero);
            let delayed = scheduler.schedule(&shifted);
            let eps = tol(base.makespan() + shift);
            prop_assert!((delayed.makespan() - base.makespan() - shift).abs() <= eps);
            for (d, b) in delayed.entries().iter().zip(base.entries()) {
                prop_assert!((d.compress_start - b.compress_start - shift).abs() <= eps);
                prop_assert!((d.compress_end - b.compress_end - shift).abs() <= eps);
                prop_assert!((d.comm_start - b.comm_start - shift).abs() <= eps);
                prop_assert!((d.comm_end - b.comm_end - shift).abs() <= eps);
                prop_assert_eq!(d.stream, b.stream);
                prop_assert_eq!(d.segments.len(), b.segments.len());
            }
            // The single-stream FIFO recurrence equivalence survives as the
            // shifted limit.
            if streams == 1 && policy == PriorityPolicy::Fifo {
                let comp: Vec<f64> = zero.iter().map(|b| b.compression).collect();
                let comm: Vec<f64> = zero.iter().map(|b| b.communication()).collect();
                let reference = pipelined_overhead(&comp, &comm);
                prop_assert!((delayed.makespan() - shift - reference).abs() <= tol(reference + shift));
            }
        }
    }

    /// Property 8: the repaired scheduler never loses to the single-stream
    /// FIFO pipeline at any stream count — with or without arrivals — even
    /// though the *fixed* schedule provably can regress (the slot-limited
    /// Graham anomaly, demonstrated on a concrete instance in
    /// `sidco_dist::collective`'s unit tests).
    #[test]
    fn repaired_schedules_never_lose_to_the_pipeline(
        buckets in bucket_costs_with_arrivals_strategy(),
        streams in 1usize..6,
    ) {
        let pipeline = CollectiveScheduler::single_stream_fifo().schedule(&buckets).makespan();
        for policy in POLICIES {
            let repaired = CollectiveScheduler::new(streams, policy)
                .repaired_schedule(&buckets)
                .makespan();
            prop_assert!(
                repaired <= pipeline + tol(pipeline),
                "{policy} at {streams} streams: repaired {repaired} lost to \
                 the pipeline {pipeline}"
            );
            prop_assert!(repaired >= bandwidth_lower_bound(&buckets) - tol(pipeline));
        }
    }

    /// Budget monotonicity survives arrivals: `best_schedule` (what the
    /// trainer charges) never worsens with a larger stream budget and never
    /// loses to the pipeline, release times included.
    #[test]
    fn best_schedule_stays_monotone_under_arrivals(
        buckets in bucket_costs_with_arrivals_strategy(),
    ) {
        let pipeline = CollectiveScheduler::single_stream_fifo().schedule(&buckets).makespan();
        for policy in POLICIES {
            let mut previous = f64::INFINITY;
            for streams in 1usize..=6 {
                let makespan = CollectiveScheduler::new(streams, policy)
                    .best_schedule(&buckets)
                    .makespan();
                prop_assert!(makespan <= previous + tol(previous));
                prop_assert!(makespan <= pipeline + tol(pipeline));
                previous = makespan;
            }
        }
    }

    /// Property 7: the hierarchical all-gather (and its budget inverse) is
    /// monotonically non-increasing in the per-node NIC count, the parts
    /// keep summing, and one rail is bit-identical to the single-bottleneck
    /// model.
    #[test]
    fn nic_rails_are_monotone_and_collapse_at_one(
        nodes in 2usize..6,
        workers_per_node in 1usize..5,
        bytes in 1usize..(1 << 22),
        fabrics in ((1.0f64..100.0, 1e-6f64..1e-4), (1.0f64..100.0, 1e-6f64..1e-4)),
    ) {
        let intra = NetworkModel { bandwidth_gbps: fabrics.0 .0, latency: fabrics.0 .1 };
        let inter = NetworkModel { bandwidth_gbps: fabrics.1 .0, latency: fabrics.1 .1 };
        let base = HierarchicalTopology::new(nodes, workers_per_node, intra, inter);
        // Bit-identical collapse at one rail.
        let one = base.clone().with_nics_per_node(1);
        prop_assert_eq!(base.allgather_sparse(bytes), one.allgather_sparse(bytes));
        prop_assert_eq!(base.allgather_sparse_parts(bytes), one.allgather_sparse_parts(bytes));
        prop_assert_eq!(base.allreduce_dense(bytes), one.allreduce_dense(bytes));
        let mut previous = f64::INFINITY;
        for nics in 1usize..=8 {
            let railed = base.clone().with_nics_per_node(nics);
            let gather = railed.allgather_sparse(bytes);
            prop_assert!(
                gather <= previous,
                "{nics} rails regressed the all-gather: {previous} -> {gather}"
            );
            let (latency, transfer) = railed.allgather_sparse_parts(bytes);
            prop_assert!((latency + transfer - gather).abs() <= tol(gather));
            prop_assert!(railed.allreduce_dense(bytes) <= base.allreduce_dense(bytes) + tol(1.0));
            // More rails afford at least as much payload per time budget.
            prop_assert!(
                railed.allgather_budget_bytes(1e-3) >= base.allgather_budget_bytes(1e-3) - 1e-6
            );
            previous = gather;
        }
    }

    /// Property 8: heterogeneous per-node NIC complements charge the slowest
    /// node — any rail vector is bit-identical to the homogeneous model at
    /// its minimum entry (so a homogeneous vector collapses bit-for-bit to
    /// `with_nics_per_node`), and degrading one node below the complement is
    /// never free while upgrading a non-bottleneck node is.
    #[test]
    fn heterogeneous_node_nics_charge_the_slowest_node(
        nodes in 2usize..6,
        workers_per_node in 1usize..5,
        bytes in 1usize..(1 << 22),
        rail_seed in 0u32..1000,
        fabrics in ((1.0f64..100.0, 1e-6f64..1e-4), (1.0f64..100.0, 1e-6f64..1e-4)),
    ) {
        let intra = NetworkModel { bandwidth_gbps: fabrics.0 .0, latency: fabrics.0 .1 };
        let inter = NetworkModel { bandwidth_gbps: fabrics.1 .0, latency: fabrics.1 .1 };
        let base = HierarchicalTopology::new(nodes, workers_per_node, intra, inter);
        // A deterministic pseudo-random rail vector in 1..=8 per node.
        let rails: Vec<u32> = (0..nodes)
            .map(|i| 1 + (rail_seed.wrapping_mul(2654435761).wrapping_add(i as u32 * 40503) >> 7) % 8)
            .collect();
        let min_rails = *rails.iter().min().unwrap() as usize;
        let vectored = base.clone().with_node_nics(rails.clone());
        let uniform = base.clone().with_nics_per_node(min_rails);
        prop_assert_eq!(vectored.bottleneck_nics(), min_rails);
        prop_assert_eq!(vectored.allgather_sparse(bytes), uniform.allgather_sparse(bytes));
        prop_assert_eq!(
            vectored.allgather_sparse_parts(bytes),
            uniform.allgather_sparse_parts(bytes)
        );
        prop_assert_eq!(vectored.allreduce_dense(bytes), uniform.allreduce_dense(bytes));
        prop_assert_eq!(
            vectored.allgather_budget_bytes(1e-3),
            uniform.allgather_budget_bytes(1e-3)
        );
        // Degrading node 0 to a single rail gates the exchange at one rail.
        let mut degraded_rails = rails.clone();
        degraded_rails[0] = 1;
        let degraded = base.clone().with_node_nics(degraded_rails);
        prop_assert!(
            degraded.allgather_sparse(bytes) >= vectored.allgather_sparse(bytes) - tol(1.0)
        );
        prop_assert_eq!(
            degraded.allgather_sparse(bytes),
            base.clone().with_nics_per_node(1).allgather_sparse(bytes)
        );
        // Upgrading any single node beyond the minimum never changes the
        // charge: the slowest complement still gates the phase.
        let bottleneck = rails.iter().position(|&r| r as usize == min_rails).unwrap();
        let mut upgraded_rails = rails.clone();
        for (i, rail) in upgraded_rails.iter_mut().enumerate() {
            if i != bottleneck {
                *rail += 8;
            }
        }
        let upgraded = base.with_node_nics(upgraded_rails);
        prop_assert_eq!(
            upgraded.allgather_sparse(bytes),
            vectored.allgather_sparse(bytes)
        );
    }
}

/// Acceptance: on the Table-1 multi-node configurations a multi-stream +
/// priority schedule strictly beats the single-stream FIFO pipeline over the
/// auto-tuned bucket layout of every benchmark.
#[test]
fn multi_stream_priority_beats_the_pipeline_on_table1_multi_node_configs() {
    let kind =
        sidco::core::compressor::CompressorKind::Sidco(sidco::stats::fit::SidKind::Exponential);
    for cluster in [
        ClusterConfig::paper_dedicated(),
        ClusterConfig::paper_two_tier(),
    ] {
        for benchmark in BenchmarkId::ALL {
            let layers = benchmark.spec().representative_layer_sizes();
            let scheduler = CollectiveScheduler::new(4, PriorityPolicy::SmallestFirst);
            // Per-tensor buckets — what a DDP integration hands the scheduler.
            let per_tensor = sidco::core::layerwise::LayerLayout::new(layers.clone());
            let costs = modeled_bucket_costs(&cluster, kind, 0.01, 2, &per_tensor);
            let pipeline = CollectiveScheduler::single_stream_fifo()
                .schedule(&costs)
                .makespan();
            let scheduled = scheduler.schedule(&costs).makespan();
            assert!(
                scheduled < pipeline,
                "{benchmark} on {} workers: multi-stream {scheduled} \
                 should strictly beat the pipeline {pipeline}",
                cluster.workers
            );
            // Auto-tuning the layout for the same scheduler helps further (or
            // at worst matches the per-tensor layout).
            let layout = auto_bucket_layout(&layers, &cluster, kind, 0.01, &scheduler);
            let tuned_costs = modeled_bucket_costs(&cluster, kind, 0.01, 2, &layout);
            let tuned = scheduler.schedule(&tuned_costs).makespan();
            assert!(
                tuned <= scheduled + 1e-15,
                "{benchmark}: auto-tuned {tuned} should not lose to per-tensor {scheduled}"
            );
        }
    }
}

/// Acceptance: per-node NIC rails strictly beat the single-bottleneck
/// two-tier model on the Table-1 benchmarks — schedules never get slower,
/// and the communication-bound configs get strictly faster.
#[test]
fn nic_rails_beat_the_single_bottleneck_on_table1_configs() {
    let kind =
        sidco::core::compressor::CompressorKind::Sidco(sidco::stats::fit::SidKind::Exponential);
    let two_tier = ClusterConfig::paper_two_tier();
    let railed = ClusterConfig::paper_rail_optimized();
    let scheduler = CollectiveScheduler::new(4, PriorityPolicy::SmallestFirst);
    let mut strict_wins = 0usize;
    for benchmark in BenchmarkId::ALL {
        let layers = benchmark.spec().representative_layer_sizes();
        let per_tensor = sidco::core::layerwise::LayerLayout::new(layers);
        let bottleneck = scheduler
            .best_schedule(&modeled_bucket_costs(&two_tier, kind, 0.01, 2, &per_tensor))
            .makespan();
        let striped = scheduler
            .best_schedule(&modeled_bucket_costs(&railed, kind, 0.01, 2, &per_tensor))
            .makespan();
        assert!(
            striped <= bottleneck + 1e-15,
            "{benchmark}: NIC rails regressed {bottleneck} -> {striped}"
        );
        if striped < bottleneck * (1.0 - 1e-9) {
            strict_wins += 1;
        }
    }
    assert!(
        strict_wins >= 1,
        "NIC rails should strictly beat the bottleneck on at least one config"
    );
}

/// Acceptance: arrival-aware scheduling interleaves compression and
/// communication with the backward pass on the Table-1 benchmarks — the
/// makespan measured from backward start never exceeds (and on the
/// communication-bound configs strictly beats) running the same zero-arrival
/// schedule after the backward pass completes.
#[test]
fn arrival_aware_schedules_interleave_with_the_backward_pass_on_table1() {
    use sidco_dist::collective::with_ready_times;
    use sidco_dist::schedule::bucket_ready_times;
    use sidco_dist::trainer::BACKWARD_COMPUTE_FRACTION;

    let kind =
        sidco::core::compressor::CompressorKind::Sidco(sidco::stats::fit::SidKind::Exponential);
    let mut strict_wins = 0usize;
    for cluster in [
        ClusterConfig::paper_dedicated(),
        ClusterConfig::paper_two_tier(),
    ] {
        for benchmark in BenchmarkId::ALL {
            let spec = benchmark.spec();
            let layers = spec.representative_layer_sizes();
            let per_tensor = sidco::core::layerwise::LayerLayout::new(layers.clone());
            // The same compute split the trainer and the Table-1 simulator
            // charge: dense-communication overhead ratio → compute time,
            // two thirds of which is the backward pass.
            let dense_comm = cluster.allreduce_dense(spec.gradient_bytes());
            let overhead = spec.communication_overhead.clamp(0.01, 0.99);
            let backward = BACKWARD_COMPUTE_FRACTION * dense_comm * (1.0 - overhead) / overhead;
            let ready = bucket_ready_times(
                &layers,
                &spec.representative_backward_costs(),
                backward,
                &per_tensor,
            );
            let costs = modeled_bucket_costs(&cluster, kind, 0.01, 2, &per_tensor);
            let scheduler = CollectiveScheduler::new(4, PriorityPolicy::NearestOutputFirst);
            let after_backward = backward + scheduler.best_schedule(&costs).makespan();
            let interleaved = scheduler
                .best_schedule(&with_ready_times(costs, &ready))
                .makespan();
            assert!(
                interleaved <= after_backward + 1e-12,
                "{benchmark}: arrival-aware {interleaved} lost to \
                 wait-for-backward {after_backward}"
            );
            assert!(
                interleaved >= backward,
                "{benchmark}: the makespan must cover the backward pass"
            );
            if interleaved < after_backward * (1.0 - 1e-9) {
                strict_wins += 1;
            }
        }
    }
    assert!(
        strict_wins >= 6,
        "arrival-aware scheduling should strictly beat wait-for-backward on \
         most Table-1 configs, won {strict_wins}"
    );
}

/// Overlapped and multi-stream schedules only move costs on the simulated
/// clock: for every evaluated compressor the loss trajectory, final metrics
/// and quality series are bit-identical to the serial run.
#[test]
fn overlap_and_streams_converge_bit_identically_for_every_compressor() {
    let model: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(
        ClassificationDataset::gaussian_blobs(96, 10, 3, 3.0, 11),
        12,
    ));
    for kind in sidco::core::compressor::CompressorKind::EVALUATED {
        let run = |overlap: bool, streams: usize, priority: PriorityPolicy| {
            let config = TrainerConfig {
                iterations: 6,
                batch_per_worker: 8,
                compressor_kind: Some(kind),
                bucket_policy: BucketPolicy::PerLayer,
                overlap,
                streams,
                priority,
                ..TrainerConfig::default()
            };
            let mut trainer = ModelTrainer::new(
                Arc::clone(&model),
                ClusterConfig::small_test(),
                config,
                || build_compressor(kind, 23).expect("evaluated kinds build"),
            );
            trainer.run(0.05)
        };
        let serial = run(false, 1, PriorityPolicy::Fifo);
        let pipelined = run(true, 1, PriorityPolicy::Fifo);
        let scheduled = run(true, 4, PriorityPolicy::SmallestFirst);
        let losses =
            |r: &sidco_dist::TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<_>>();
        for other in [&pipelined, &scheduled] {
            assert_eq!(losses(&serial), losses(other), "{kind:?} diverged");
            assert_eq!(
                serial.final_evaluation(),
                other.final_evaluation(),
                "{kind:?} final evaluation diverged"
            );
            assert_eq!(
                serial.estimation_quality().mean_normalized_ratio,
                other.estimation_quality().mean_normalized_ratio,
                "{kind:?} quality series diverged"
            );
        }
        // Scheduling is monotone: streams+priority ≤ pipeline ≤ serial time.
        assert!(scheduled.total_time() <= pipelined.total_time() + 1e-12);
        assert!(pipelined.total_time() <= serial.total_time() + 1e-12);
        // The schedule accounting agrees with the charged clock.
        let acc = scheduled.schedule().expect("compressed run has accounting");
        assert_eq!(acc.streams(), 4);
        assert!(acc.charged_overhead() <= acc.pipelined_overhead() + 1e-12);
        assert!(acc.pipelined_overhead() <= acc.serial_overhead() + 1e-12);
        assert!(acc.last_timeline().is_some());
    }
}

/// The pool-backed trainer's core contract: dispatching the per-(worker,
/// bucket) compression jobs on the pool at *any* width converges
/// bit-identically to the inline trainer, for every evaluated compressor
/// — the executor changes only where the jobs run, never what they compute,
/// because each compressor cell sees the same call sequence and the merge is
/// serial in a fixed order.
#[test]
fn pool_dispatched_training_is_bit_identical_to_serial_for_every_compressor() {
    let model: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(
        ClassificationDataset::gaussian_blobs(96, 10, 3, 3.0, 11),
        12,
    ));
    for kind in sidco::core::compressor::CompressorKind::EVALUATED {
        let run = |threads: usize| {
            let config = TrainerConfig {
                iterations: 4,
                batch_per_worker: 8,
                compressor_kind: Some(kind),
                bucket_policy: BucketPolicy::PerLayer,
                overlap: true,
                ..TrainerConfig::default()
            };
            ModelTrainer::new(
                Arc::clone(&model),
                ClusterConfig::small_test(),
                config,
                || build_compressor(kind, 23).expect("evaluated kinds build"),
            )
            .with_runtime(RuntimeKind::Pool, threads)
            .run(0.05)
        };
        let baseline = run(1);
        assert_eq!(
            baseline.dispatch().expect("dispatch report").runtime,
            "inline"
        );
        let losses =
            |r: &sidco_dist::TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<_>>();
        for threads in [2usize, 7] {
            let parallel = run(threads);
            assert_eq!(
                losses(&baseline),
                losses(&parallel),
                "{kind:?} on pool×{threads} diverged"
            );
            assert_eq!(
                baseline.final_evaluation(),
                parallel.final_evaluation(),
                "{kind:?} on pool×{threads} final evaluation diverged"
            );
            assert_eq!(
                baseline.estimation_quality().mean_normalized_ratio,
                parallel.estimation_quality().mean_normalized_ratio,
                "{kind:?} on pool×{threads} quality series diverged"
            );
            // Simulated time is charged by the cost model, not measured,
            // so it is identical too.
            assert_eq!(baseline.total_time(), parallel.total_time());
            let dispatch = parallel
                .dispatch()
                .expect("compressed run reports dispatch");
            assert_eq!(dispatch.runtime, "pool");
            assert_eq!(dispatch.parallelism, threads);
            assert_eq!(dispatch.jobs, 4);
        }
    }
}

/// Strategy: an elastic event timeline over the 4-machine test fleet —
/// random Join/Leave choices at random steps, sanitised in firing order
/// (ascending step) so the machine count never drops below one. The output
/// is already sorted, so the trainer's stable step sort preserves it.
fn cluster_events_strategy(iterations: u64) -> impl Strategy<Value = Vec<ClusterEvent>> {
    prop::collection::vec((prop_oneof![Just(true), Just(false)], 0..iterations), 0..6).prop_map(
        |raw| {
            let mut sorted = raw;
            sorted.sort_by_key(|&(_, step)| step);
            let mut machines = 4u32;
            let mut events = Vec::new();
            for (join, step) in sorted {
                if join {
                    machines += 1;
                    events.push(ClusterEvent::Join(step));
                } else if machines > 1 {
                    machines -= 1;
                    events.push(ClusterEvent::Leave(step));
                }
            }
            events
        },
    )
}

/// A small compressed run on the 4-worker test fleet under the given elastic
/// event timeline (6 iterations, Top-k at δ = 0.1).
fn elastic_trainer_report(events: Vec<ClusterEvent>) -> sidco_dist::TrainingReport {
    let model: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(
        ClassificationDataset::gaussian_blobs(96, 10, 3, 3.0, 11),
        12,
    ));
    let kind = sidco::core::compressor::CompressorKind::TopK;
    let config = TrainerConfig {
        iterations: 6,
        batch_per_worker: 8,
        compressor_kind: Some(kind),
        cluster_events: events,
        ..TrainerConfig::default()
    };
    ModelTrainer::new(model, ClusterConfig::small_test(), config, || {
        build_compressor(kind, 23).expect("TopK builds")
    })
    .run(0.1)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Property 9: a homogeneous per-node profile vector collapses
    /// bit-for-bit onto the scalar rail configuration — every collective,
    /// the split drain parts, and the budget inversion.
    #[test]
    fn homogeneous_node_profiles_collapse_bit_for_bit(
        nodes in 1usize..6,
        per_node in 1usize..5,
        nics in 1u32..4,
        kilobytes in 1usize..4096,
        budget_ms in 1u32..200,
    ) {
        let base = HierarchicalTopology::new(
            nodes,
            per_node,
            NetworkModel::infiniband_100g(),
            NetworkModel::ethernet_25g(),
        );
        let scalar = base.clone().with_nics_per_node(nics as usize);
        let profiled = base.with_node_profiles(vec![
            NodeProfile::new(NetworkModel::ethernet_25g(), nics);
            nodes
        ]);
        let bytes = kilobytes * 1024;
        prop_assert_eq!(scalar.allgather_sparse(bytes), profiled.allgather_sparse(bytes));
        prop_assert_eq!(scalar.allreduce_dense(bytes), profiled.allreduce_dense(bytes));
        prop_assert_eq!(
            scalar.allgather_sparse_parts(bytes),
            profiled.allgather_sparse_parts(bytes)
        );
        let budget = f64::from(budget_ms) * 1e-3;
        prop_assert_eq!(
            scalar.allgather_budget_bytes(budget),
            profiled.allgather_budget_bytes(budget)
        );
    }

    /// Property 10 (compute half): bumping any single node's slowdown factor
    /// never makes any bucket's compression charge cheaper, never touches
    /// the wire parts, and never shrinks the single-stream pipeline.
    #[test]
    fn single_node_compute_slowdown_never_cheapens_a_charge(
        factors in prop::collection::vec(1.0f64..3.0, 2),
        node in 0usize..2,
        bump in 0.1f64..2.0,
    ) {
        let kind = sidco::core::compressor::CompressorKind::Sidco(
            sidco::stats::fit::SidKind::Exponential,
        );
        let layout = sidco::core::layerwise::LayerLayout::uniform(1_000_000, 4);
        let skewed = |factors: Vec<f64>| {
            ClusterConfig::paper_two_tier().with_compute_skew(ComputeSkew::from_factors(factors))
        };
        let before = modeled_bucket_costs(&skewed(factors.clone()), kind, 0.01, 2, &layout);
        let mut bumped = factors;
        bumped[node] += bump;
        let after = modeled_bucket_costs(&skewed(bumped), kind, 0.01, 2, &layout);
        let overhead = |costs: &[BucketCost]| {
            let comp: Vec<f64> = costs.iter().map(|c| c.compression).collect();
            let comm: Vec<f64> = costs.iter().map(BucketCost::communication).collect();
            pipelined_overhead(&comp, &comm)
        };
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(a.compression >= b.compression, "compression got cheaper");
            prop_assert_eq!(a.latency, b.latency);
            prop_assert_eq!(a.transfer, b.transfer);
        }
        prop_assert!(overhead(&after) >= overhead(&before) - 1e-12);
    }

    /// Property 10 (network half): cutting any single node's NIC bandwidth
    /// never shrinks that node's drain, the fleet drain, or the collective —
    /// and never lets the budget inversion afford *more* bytes.
    #[test]
    fn single_node_nic_slowdown_never_shrinks_the_drain(
        bandwidths in prop::collection::vec(5.0f64..100.0, 3),
        node in 0usize..3,
        cut in 0.1f64..0.9,
        kilobytes in 1usize..2048,
    ) {
        let topology = |bw: &[f64]| {
            HierarchicalTopology::new(
                3,
                2,
                NetworkModel::infiniband_100g(),
                NetworkModel::ethernet_25g(),
            )
            .with_node_profiles(
                bw.iter()
                    .map(|&bandwidth_gbps| {
                        NodeProfile::new(
                            NetworkModel { bandwidth_gbps, latency: 5e-6 },
                            1,
                        )
                    })
                    .collect(),
            )
        };
        let bytes = kilobytes * 1024;
        let before = topology(&bandwidths);
        let mut slower = bandwidths.clone();
        slower[node] *= cut;
        let after = topology(&slower);
        let eps = tol(before.allgather_sparse(bytes));
        prop_assert!(after.allgather_sparse(bytes) >= before.allgather_sparse(bytes) - eps);
        let drains_before = before.node_drain_times(bytes);
        let drains_after = after.node_drain_times(bytes);
        prop_assert!(drains_after[node] >= drains_before[node] - eps);
        prop_assert!(
            after.allgather_budget_bytes(0.05) <= before.allgather_budget_bytes(0.05) + 1e-6
        );
    }

    /// Property 11: the signed error-feedback mass survives every sanitised
    /// Join/Leave sequence — departing residuals fold into survivors instead
    /// of vanishing.
    #[test]
    fn ef_mass_is_conserved_across_any_event_sequence(events in cluster_events_strategy(6)) {
        let expected = events.len();
        let report = elastic_trainer_report(events);
        prop_assert_eq!(report.rescales().len(), expected);
        for record in report.rescales() {
            let scale = record.ef_mass_before.abs().max(1.0);
            prop_assert!(
                (record.ef_mass_after - record.ef_mass_before).abs() <= 1e-5 * scale,
                "mass leaked at step {}: {} -> {}",
                record.step,
                record.ef_mass_before,
                record.ef_mass_after
            );
        }
        prop_assert_eq!(report.samples().len(), 6);
    }

    /// Property 12: a Join immediately undone by a Leave at any step is
    /// bit-identical to a run with no events at all.
    #[test]
    fn join_immediately_undone_by_leave_collapses_bit_for_bit(step in 0u64..6) {
        let baseline = elastic_trainer_report(Vec::new());
        let elastic =
            elastic_trainer_report(vec![ClusterEvent::Join(step), ClusterEvent::Leave(step)]);
        for (a, b) in baseline.samples().iter().zip(elastic.samples()) {
            prop_assert!(a.loss == b.loss, "loss diverged at iteration {}", a.iteration);
            prop_assert!(a.time == b.time, "clock diverged at iteration {}", a.iteration);
        }
        prop_assert_eq!(baseline.final_evaluation(), elastic.final_evaluation());
    }
}
