//! Prints the reference figures recorded in README.md: the cost of generating
//! the inputs; per-compressor call latency measured on a 1 Mi-element
//! SparseGamma gradient next to the latency the device cost model charges
//! (`DeviceProfile::cpu()`); and the train-mlp task trained dense
//! (`ModelTrainer::uncompressed`) next to the compressed run the benchmark
//! times.
//!
//! Usage: `cargo run --release --manifest-path perfbench/Cargo.toml --bin reference`

use sidco::core::compressor::CompressorKind;
use sidco::dist::device::DeviceProfile;
use sidco::dist::trainer::ModelTrainer;
use sidco::models::synthetic::SyntheticGradientGenerator;
use sidco::models::DifferentiableModel;
use sidco::runtime::RuntimeKind;
use sidco_perfbench::compress::{self, Inputs, DELTAS, LARGE, PROFILES};
use sidco_perfbench::harness::{median, median_secs};
use sidco_perfbench::train::{self, CallStats, Task};
use std::sync::Arc;
use std::time::Instant;

/// Calls per (compressor, δ) measurement; the median is reported.
const CALLS: usize = 9;

fn main() {
    let seed = 1;
    println!("Input generation, one {LARGE}-element gradient (median of 3)");
    println!();
    println!("| profile | ms |");
    println!("|---|---|");
    for (profile, _) in PROFILES {
        let mut generator = SyntheticGradientGenerator::new(LARGE, profile, seed);
        let (t, _) = median_secs(3, || generator.gradient(1_000));
        println!("| {profile} | {:.1} |", t * 1e3);
    }
    println!();

    let inputs = Inputs::generate(seed);
    let grad = &inputs.grads[0][0];
    let cpu = DeviceProfile::cpu();

    println!("Compression latency, {LARGE}-element SparseGamma gradient, sequential engine");
    println!("(median of {CALLS} calls on a fresh compressor; modeled = DeviceProfile::cpu())");
    println!();
    println!("| compressor | δ | measured ms | modeled ms | measured / modeled | stages |");
    println!("|---|---|---|---|---|---|");
    for kind in CompressorKind::EVALUATED {
        for delta in DELTAS {
            let mut c = compress::build(kind, seed);
            let mut times = Vec::with_capacity(CALLS);
            let mut stages = 0;
            for _ in 0..CALLS {
                let start = Instant::now();
                let result = std::hint::black_box(c.compress(grad, delta));
                times.push(start.elapsed().as_secs_f64());
                stages = result.stages_used.unwrap_or(1);
            }
            let measured = median(&mut times) * 1e3;
            let modeled = cpu.compression_time(kind, grad.len(), delta, stages) * 1e3;
            println!(
                "| {kind} | {delta} | {measured:.2} | {modeled:.2} | {:.1} | {stages} |",
                measured / modeled
            );
        }
    }

    println!();
    println!("train-mlp task, dense vs SIDCo-E at δ = {}", train::DELTA);
    println!();
    println!("| run | wall s | examples/s | final loss | final accuracy | modeled iteration ms |");
    println!("|---|---|---|---|---|---|");
    let task = Task::new(seed);
    let model: Arc<dyn DifferentiableModel> = task.model.clone();
    let mut dense = ModelTrainer::uncompressed(model, task.cluster.clone(), task.config.clone())
        .with_runtime(RuntimeKind::Pool, train::POOL_WORKERS);
    let stats = Arc::new(CallStats::default());
    let mut compressed = task.trainer(task.config.clone(), train::POOL_WORKERS, &stats);
    for (label, trainer, delta) in [
        ("dense", &mut dense, 1.0),
        ("SIDCo-E", &mut compressed, train::DELTA),
    ] {
        std::hint::black_box(trainer.run(delta));
        let (wall, report) = median_secs(5, || trainer.run(delta));
        let iterations = report.samples().len() as f64;
        println!(
            "| {label} | {wall:.3} | {:.0} | {:.4} | {:.3} | {:.4} |",
            task.examples_per_run() / wall,
            report.final_loss(),
            report.final_accuracy().unwrap_or(f64::NAN),
            report.total_time() / iterations * 1e3,
        );
    }
}
