//! `train-mlp`: one `ModelTrainer::run` per operation — SIDCo-E at δ = 0.01
//! with error feedback, per-layer buckets and a 2-stream overlapped schedule,
//! 8 simulated workers on `paper_dedicated()`, dispatched on a 2-worker pool.

use crate::checks;
use crate::harness::{SlotTimes, Tally};
use sidco::core::compressor::{CompressionResult, Compressor, CompressorKind};
use sidco::core::engine::CompressionEngine;
use sidco::core::sidco::{SidcoCompressor, SidcoConfig};
use sidco::dist::cluster::ClusterConfig;
use sidco::dist::trainer::{ModelTrainer, TrainerConfig};
use sidco::dist::{BucketPolicy, LrSchedule, TrainingReport};
use sidco::models::dataset::ClassificationDataset;
use sidco::models::mlp::Mlp;
use sidco::models::DifferentiableModel;
use sidco::runtime::RuntimeKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const DELTA: f64 = 0.01;
pub const EXAMPLES: usize = 1024;
pub const FEATURES: usize = 64;
pub const CLASSES: usize = 8;
pub const HIDDEN: usize = 64;
pub const BATCH: usize = 16;
pub const ITERATIONS: u64 = 60;
pub const POOL_WORKERS: usize = 2;
/// Each run's final mini-batch loss must fall below this share of its first.
pub const LOSS_FRACTION: f64 = 0.5;
/// Warm-up training runs each set-up makes.
const WARMUP_RUNS: usize = 5;
/// Iterations of the short runs compared across pool budgets 1 and 2.
const IDENTITY_ITERATIONS: u64 = 10;

/// Per-call counters of the compressors the trainer runs, gathered by
/// [`Observed`]. Statistics only: they publish no other data, and are read
/// after `run` has joined every job.
#[derive(Debug, Default)]
pub struct CallStats {
    pub calls: AtomicU64,
    pub stages: AtomicU64,
    pub wire_bytes: AtomicU64,
}

impl CallStats {
    pub fn read(&self) -> (u64, u64, u64) {
        // Relaxed: plain statistics, read after the trainer's joins.
        (
            self.calls.load(Ordering::Relaxed),
            self.stages.load(Ordering::Relaxed),
            self.wire_bytes.load(Ordering::Relaxed),
        )
    }
}

/// Passes every call through to SIDCo and counts stages and payload bytes.
struct Observed {
    inner: SidcoCompressor,
    stats: Arc<CallStats>,
}

impl Compressor for Observed {
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult {
        let result = self.inner.compress(grad, delta);
        // Relaxed: plain statistics, read after the trainer's joins.
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        let stages = result.stages_used.unwrap_or(0) as u64;
        self.stats.stages.fetch_add(stages, Ordering::Relaxed);
        let bytes = result.sparse.wire_bytes() as u64;
        self.stats.wire_bytes.fetch_add(bytes, Ordering::Relaxed);
        result
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn kind(&self) -> Option<CompressorKind> {
        self.inner.kind()
    }
}

/// The model, cluster and configuration of the training task.
pub struct Task {
    pub model: Arc<Mlp>,
    pub cluster: ClusterConfig,
    pub config: TrainerConfig,
}

impl Task {
    pub fn new(seed: u64) -> Self {
        let data = ClassificationDataset::gaussian_blobs(EXAMPLES, FEATURES, CLASSES, 3.0, seed);
        let config = TrainerConfig {
            iterations: ITERATIONS,
            batch_per_worker: BATCH,
            schedule: LrSchedule::constant(0.1),
            momentum: 0.9,
            error_feedback: true,
            bucket_policy: BucketPolicy::PerLayer,
            overlap: true,
            streams: 2,
            seed,
            ..TrainerConfig::default()
        };
        Self {
            model: Arc::new(Mlp::new(data, HIDDEN)),
            cluster: ClusterConfig::paper_dedicated(),
            config,
        }
    }

    /// A trainer over this task whose compressors report into `stats`.
    pub fn trainer(
        &self,
        config: TrainerConfig,
        pool: usize,
        stats: &Arc<CallStats>,
    ) -> ModelTrainer {
        let model: Arc<dyn DifferentiableModel> = self.model.clone();
        let stats = Arc::clone(stats);
        ModelTrainer::new(model, self.cluster.clone(), config, move || {
            Box::new(Observed {
                inner: SidcoCompressor::new(SidcoConfig::exponential())
                    .with_engine(CompressionEngine::sequential()),
                stats: Arc::clone(&stats),
            })
        })
        .with_runtime(RuntimeKind::Pool, pool)
    }

    /// Training examples one run processes.
    pub fn examples_per_run(&self) -> f64 {
        (self.cluster.workers * self.config.batch_per_worker) as f64 * self.config.iterations as f64
    }
}

/// Everything one train-mlp run holds.
pub struct Training {
    pub task: Task,
    pub trainer: ModelTrainer,
    pub stats: Arc<CallStats>,
    pub last: Option<TrainingReport>,
    /// Wall seconds of every timed training run, all in slot 0.
    pub times: SlotTimes,
    pub error: Option<String>,
}

impl Training {
    /// Builds the task and the trainer (spawning the pool) and makes the
    /// warm-up training runs.
    pub fn setup(seed: u64) -> Self {
        let task = Task::new(seed);
        let stats = Arc::new(CallStats::default());
        let mut trainer = task.trainer(task.config.clone(), POOL_WORKERS, &stats);
        for _ in 0..WARMUP_RUNS {
            std::hint::black_box(trainer.run(DELTA));
        }
        Self {
            task,
            trainer,
            stats,
            last: None,
            times: SlotTimes::default(),
            error: None,
        }
    }

    /// Swaps in a trainer with `TrainerConfig::trace` set: each run then
    /// records its own trace session.
    pub fn enable_tracing(&mut self) {
        let config = TrainerConfig {
            trace: true,
            ..self.task.config.clone()
        };
        self.trainer = self.task.trainer(config, POOL_WORKERS, &self.stats);
    }

    /// One operation: a whole training run, whose loss must fall.
    pub fn round(&mut self, tally: &mut Tally) {
        let start = Instant::now();
        let report = self.trainer.run(DELTA);
        self.times.record(0, start.elapsed().as_secs_f64());
        let losses: Vec<f64> = report.samples().iter().map(|s| s.loss).collect();
        if let Err(e) = checks::loss_falls(&losses, LOSS_FRACTION) {
            self.error.get_or_insert(e);
        }
        tally.attempted += 1;
        tally.work += self.task.examples_per_run();
        self.last = Some(report);
    }

    /// The checks made once per run: every timed run's loss fell, and short
    /// runs at pool budgets 1 and 2 give bit-identical loss trajectories.
    pub fn verify(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(format!("train-mlp: {e}"));
        }
        let config = TrainerConfig {
            iterations: IDENTITY_ITERATIONS,
            ..self.task.config.clone()
        };
        let stats = Arc::new(CallStats::default());
        let trajectory = |pool: usize| -> Vec<f64> {
            let report = self.task.trainer(config.clone(), pool, &stats).run(DELTA);
            report.samples().iter().map(|s| s.loss).collect()
        };
        checks::bit_identical(&trajectory(1), &trajectory(POOL_WORKERS))
            .map_err(|e| format!("train-mlp pool budgets 1 vs {POOL_WORKERS}: {e}"))
    }
}

/// Mean `|k̂/k − 1|` over the iterations of a run, from the report's
/// per-iteration achieved ratios.
pub fn ratio_err(report: &TrainingReport) -> f64 {
    let history = report.smoothed_ratio_history(1);
    history.iter().map(|r| (r / DELTA - 1.0).abs()).sum::<f64>() / history.len() as f64
}
