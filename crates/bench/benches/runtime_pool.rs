//! Criterion micro-benchmarks of the persistent work-stealing runtime
//! against the inline single-worker engine — the numbers recorded in
//! `BENCH_engine.json`.
//!
//! Two regimes bracket the design space:
//!
//! * **many-small-layers** — 256 layers of 64Ki elements, the layer-wise /
//!   per-layer-bucket regime where every `compress` call is short and the
//!   per-call dispatch cost is a visible share of it. This is the workload
//!   the pool's spawn-once design exists for.
//! * **single-large** — one 16Mi-element gradient, the ImageNet regime where
//!   a call is long enough to amortise any dispatch cost.
//!
//! The pool's lifecycle counters (spawns, steals, parks, per-socket
//! placement) are printed after the sweep; on a multi-socket host the
//! per-socket chunk counts show the NUMA placement at work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sidco_core::engine::{CompressionEngine, RuntimeKind};
use sidco_core::prelude::*;
use sidco_dist::cluster::ClusterConfig;
use sidco_dist::schedule::BucketPolicy;
use sidco_dist::trainer::{ModelTrainer, TrainerConfig};
use sidco_models::dataset::ClassificationDataset;
use sidco_models::mlp::Mlp;
use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use sidco_models::DifferentiableModel;
use std::sync::Arc;

/// Many-small-layer regime: layer count × per-layer elements = 16Mi total.
const LAYERS: usize = 256;
const LAYER_DIM: usize = 1 << 16;
/// Single-large regime: one tensor of the same total element count.
const LARGE_DIM: usize = 1 << 24;
const DELTA: f64 = 0.01;

fn layer_gradients() -> Vec<Vec<f32>> {
    (0..LAYERS)
        .map(|layer| {
            let mut generator = SyntheticGradientGenerator::new(
                LAYER_DIM,
                GradientProfile::LaplaceLike,
                11 + layer as u64,
            );
            generator.gradient(0).into_vec()
        })
        .collect()
}

fn large_gradient() -> Vec<f32> {
    let mut generator = SyntheticGradientGenerator::new(LARGE_DIM, GradientProfile::LaplaceLike, 7);
    generator.gradient(0).into_vec()
}

/// Worker budgets swept on the pool; 1 resolves to the inline runtime.
fn configurations() -> Vec<(RuntimeKind, usize)> {
    vec![
        (RuntimeKind::Pool, 1),
        (RuntimeKind::Pool, 2),
        (RuntimeKind::Pool, 4),
    ]
}

/// The row label of a configuration: the name of the runtime it resolves
/// to (`inline` or `pool`) and its width.
fn label(threads: usize) -> String {
    let runtime = CompressionEngine::new(threads).shared_runtime().name();
    format!("runtime={runtime},threads={threads}")
}

fn bench_many_small_layers(c: &mut Criterion) {
    println!(
        "host parallelism: {} hardware threads",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let layers = layer_gradients();
    let mut group = c.benchmark_group("runtime_many_small_layers_256x64Ki");
    group.throughput(Throughput::Elements((LAYERS * LAYER_DIM) as u64));
    group.sample_size(3);

    for (_, threads) in configurations() {
        // A 64Ki layer is exactly one default chunk, which would dispatch
        // inline; 16Ki chunks make every layer span 4 chunks so each of the
        // ~5 chunked passes per compress call really exercises the runtime
        // (the chunk size is identical across configurations, so outputs —
        // and the work done — stay bit-identical).
        let engine = CompressionEngine::new(threads).with_chunk_size(1 << 14);
        group.bench_with_input(
            BenchmarkId::new("sidco-e", label(threads)),
            &engine,
            |b, &engine| {
                let mut compressor =
                    SidcoCompressor::new(SidcoConfig::exponential()).with_engine(engine);
                // Warm up: allocations, stage controller, lazy pool spawn.
                for grad in &layers {
                    compressor.compress(grad, DELTA);
                }
                b.iter(|| {
                    for grad in &layers {
                        compressor.compress(std::hint::black_box(grad.as_slice()), DELTA);
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_single_large(c: &mut Criterion) {
    let grad = large_gradient();
    let mut group = c.benchmark_group("runtime_single_large_16Mi");
    group.throughput(Throughput::Elements(LARGE_DIM as u64));
    group.sample_size(3);

    for (_, threads) in configurations() {
        let engine = CompressionEngine::new(threads);
        group.bench_with_input(
            BenchmarkId::new("sidco-e", label(threads)),
            &engine,
            |b, &engine| {
                let mut compressor =
                    SidcoCompressor::new(SidcoConfig::exponential()).with_engine(engine);
                compressor.compress(&grad, DELTA);
                b.iter(|| compressor.compress(std::hint::black_box(&grad), DELTA));
            },
        );
    }
    group.finish();

    // Parallel delta-varint stitching on the selected survivors: serial vs
    // the engine's entry point, which shards only past its crossover.
    let engine = CompressionEngine::new(4);
    let threshold = engine.abs_moments(&grad).mean * 2.0;
    let sparse = engine.select_above(&grad, threshold);
    let mut group = c.benchmark_group("delta_varint_encode");
    group.throughput(Throughput::Elements(sparse.nnz() as u64));
    group.sample_size(5);
    group.bench_function(BenchmarkId::from_parameter("serial"), |b| {
        b.iter(|| sidco_tensor::encoding::delta_varint_encode(std::hint::black_box(&sparse)))
    });
    for threads in [2usize, 4] {
        let engine = CompressionEngine::new(threads);
        group.bench_with_input(
            BenchmarkId::new("sharded", format!("threads={threads}")),
            &engine,
            |b, engine| b.iter(|| engine.encode_varint(std::hint::black_box(&sparse))),
        );
    }
    group.finish();
}

fn bench_trainer_overlap(c: &mut Criterion) {
    // The trainer-level win: per-(worker, bucket) compression jobs dispatched
    // on the shared executor instead of running serially inside `step`. A
    // wide-ish MLP with per-layer buckets gives each iteration
    // `workers × buckets` independent jobs of real compression work; the
    // numerics are bit-identical across rows (property-tested), so the rows
    // differ only in wall-clock.
    let model: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(
        ClassificationDataset::gaussian_blobs(512, 64, 4, 3.0, 11),
        96,
    ));
    let mut group = c.benchmark_group("trainer_overlap_mlp_perlayer");
    group.throughput(Throughput::Elements(model.num_parameters() as u64));
    group.sample_size(3);

    // Untraced rows for every configuration, then traced rows for the two
    // flagship configurations: the delta between `…` and `…,traced` is the
    // recording overhead of an active sidco-trace session, and the untraced
    // rows double as the disabled-mode parity check against the pre-trace
    // baseline (tracing off must cost one relaxed atomic load per probe).
    let traced_rows = [(RuntimeKind::Pool, 1usize), (RuntimeKind::Pool, 4)];
    let rows = configurations()
        .into_iter()
        .map(|(runtime, threads)| (runtime, threads, false))
        .chain(traced_rows.iter().map(|&(r, t)| (r, t, true)));
    for (runtime, threads, trace) in rows {
        let suffix = if trace { ",traced" } else { "" };
        group.bench_with_input(
            BenchmarkId::new("topk", format!("{}{suffix}", label(threads))),
            &(runtime, threads),
            |b, &(runtime, threads)| {
                let config = TrainerConfig {
                    iterations: 4,
                    batch_per_worker: 16,
                    bucket_policy: BucketPolicy::PerLayer,
                    overlap: true,
                    trace,
                    ..TrainerConfig::default()
                };
                let mut trainer = ModelTrainer::new(
                    Arc::clone(&model),
                    ClusterConfig::small_test(),
                    config,
                    || Box::new(TopKCompressor::new()),
                )
                .with_runtime(runtime, threads);
                // Warm up: parameter init caches, lazy pool spawn.
                trainer.run(DELTA);
                b.iter(|| std::hint::black_box(trainer.run(DELTA)));
            },
        );
    }
    group.finish();
}

fn report_pool_stats(_c: &mut Criterion) {
    for threads in [2usize, 4] {
        let engine = CompressionEngine::new(threads);
        if let Some(stats) = engine.pool_stats() {
            assert_eq!(
                stats.parks - stats.unparks,
                stats.currently_parked,
                "park ledger must balance in lock-consistent snapshots"
            );
            println!(
                "pool[threads={threads}]: spawned={} jobs={} chunks={} local_pops={} \
                 injector_pops={} sibling_steals={} remote_steals={} parks={} unparks={} \
                 currently_parked={} socket_chunks={:?}",
                stats.threads_spawned,
                stats.jobs,
                stats.chunks_executed,
                stats.local_pops,
                stats.injector_pops,
                stats.sibling_steals,
                stats.remote_steals,
                stats.parks,
                stats.unparks,
                stats.currently_parked,
                stats.socket_chunks
            );
        }
    }
}

criterion_group!(
    benches,
    bench_many_small_layers,
    bench_single_large,
    bench_trainer_overlap,
    report_pool_stats
);
criterion_main!(benches);
