//! `compress-sweep`: one `Compressor::compress` followed by
//! `CompressionEngine::encode_varint` per operation, round-robin over every
//! evaluated compressor × δ × gradient profile × gradient size.

use crate::checks;
use crate::harness::{SlotTimes, Tally};
use sidco::core::compressor::{CompressionResult, Compressor, CompressorKind};
use sidco::core::engine::CompressionEngine;
use sidco::core::prelude::{
    DgcCompressor, GaussianKSgdCompressor, RandomKCompressor, RedSyncCompressor, TopKCompressor,
};
use sidco::core::sidco::{SidcoCompressor, SidcoConfig};
use sidco::core::topk::target_k;
use sidco::models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use sidco::tensor::encoding::EncodedGradient;
use sidco::trace::global_sink;
use std::time::Instant;

/// Dense length of the large gradients: 4 MiB of `f32`, twice the 2 MiB L2.
pub const LARGE: usize = 1 << 20;
/// Dense length of the small gradients (a prefix of each large one): 1.5 MiB,
/// inside the L2. At δ = 0.001 that is k = 393, enough that a SIDCo call's
/// binomial count noise stays well inside its ±20% band.
pub const SMALL: usize = 384 << 10;
/// Distinct gradients per profile; each stream cycles through them.
pub const GRADIENTS_PER_PROFILE: usize = 2;
pub const DELTAS: [f64; 2] = [0.01, 0.001];
/// LaplaceLike gradients come from `--seed`; SparseGamma and HeavyTail
/// gradients from fixed seeds. On HeavyTail, SIDCo-GP (both δ) and SIDCo-E
/// (δ = 0.001) fail their band, and on SparseGamma SIDCo-E reaches 1.16–1.20
/// at δ = 0.001, against the 1.2 edge (see the README). A failure kept in the
/// benchmark must fall on inputs that do not change with the seed, so that it
/// is the same share of every run; an edge call on seeded inputs would pass
/// or fail with the seed.
pub const PROFILES: [(GradientProfile, Option<u64>); 3] = [
    (GradientProfile::SparseGamma, Some(0x5A_6A33A)),
    (GradientProfile::LaplaceLike, None),
    (GradientProfile::HeavyTail, Some(0x4EA7_7A11)),
];
/// Training iteration the synthetic generator models: early training, where
/// the SparseGamma shape is 0.88.
const GENERATOR_ITERATION: u64 = 1_000;
/// Cap on the warm-up windows of a SIDCo stream: stages only ever grow, by at
/// most one per window, up to `max_stages` = 8, so nine windows always reach
/// a stationary count.
const MAX_WARMUP_WINDOWS: usize = 12;

/// The gradient inputs of one run.
pub struct Inputs {
    /// `grads[profile][g]`, each [`LARGE`] long.
    pub grads: Vec<Vec<Vec<f32>>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let grads = PROFILES
            .iter()
            .enumerate()
            .map(|(p, &(profile, fixed))| {
                let stream_seed = fixed.unwrap_or(seed ^ (0xC0FF_EE00 + p as u64));
                let mut gen = SyntheticGradientGenerator::new(LARGE, profile, stream_seed);
                (0..GRADIENTS_PER_PROFILE as u64)
                    .map(|g| gen.gradient(GENERATOR_ITERATION + g).into_vec())
                    .collect()
            })
            .collect();
        Self { grads }
    }

    /// The gradient the per-layer probes run on in workloads that do not
    /// compress gradients of their own: one LaplaceLike draw from `seed`.
    pub fn probe_gradient(seed: u64) -> Vec<f32> {
        SyntheticGradientGenerator::new(LARGE, GradientProfile::LaplaceLike, seed)
            .gradient(GENERATOR_ITERATION)
            .into_vec()
    }
}

/// The compressors of the sweep, built the way the simulator's factory builds
/// them but pinned to the sequential engine (the shipped default).
pub fn build(kind: CompressorKind, seed: u64) -> Box<dyn Compressor> {
    let engine = CompressionEngine::sequential();
    match kind {
        CompressorKind::TopK => Box::new(TopKCompressor::new().with_engine(engine)),
        CompressorKind::RandomK => Box::new(RandomKCompressor::with_seed(seed)),
        CompressorKind::Dgc => Box::new(DgcCompressor::new().with_engine(engine)),
        CompressorKind::RedSync => Box::new(RedSyncCompressor::new().with_engine(engine)),
        CompressorKind::GaussianKSgd => Box::new(GaussianKSgdCompressor::new().with_engine(engine)),
        CompressorKind::Sidco(sid) => {
            Box::new(SidcoCompressor::new(SidcoConfig::for_sid(sid)).with_engine(engine))
        }
        CompressorKind::None => unreachable!("the sweep only builds evaluated compressors"),
    }
}

/// The compressor's own short name (`"topk"`, `"sidco-e"`, …).
pub fn name(kind: CompressorKind) -> &'static str {
    build(kind, 0).name()
}

/// Whether `k̂` equals the target by construction.
pub fn exact_by_construction(kind: CompressorKind) -> bool {
    matches!(kind, CompressorKind::TopK | CompressorKind::RandomK)
}

/// A stream's compressor; SIDCo is kept concrete so the warm-up can watch its
/// stage count.
enum Scheme {
    Sidco(SidcoCompressor),
    Other(Box<dyn Compressor>),
}

/// The last result a stream produced, kept for the checks after timing.
pub struct LastOp {
    pub grad: usize,
    pub result: CompressionResult,
    pub wire: EncodedGradient,
}

/// One compressor instance fed one (δ, profile, size) combination.
pub struct Stream {
    pub kind: CompressorKind,
    pub delta: f64,
    pub profile: usize,
    pub size: usize,
    compressor: Scheme,
    calls: u64,
    pub last: Option<LastOp>,
    /// Sums over the timed calls.
    pub abs_err_sum: f64,
    pub stages_sum: f64,
    pub timed_calls: u64,
}

impl Stream {
    /// Runs whole adaptation windows until the stage count is stationary:
    /// at `max_stages`, or held at the end of two consecutive windows. The
    /// gradients are recycled with period 2, so two held windows cover both
    /// window compositions and every later window repeats one of them.
    fn warm_up(&mut self, inputs: &Inputs, engine: &CompressionEngine) {
        let Scheme::Sidco(c) = &self.compressor else {
            return;
        };
        let (window, max_stages) = (c.config().adaptation_period, c.config().max_stages);
        let mut held = 0;
        for _ in 0..MAX_WARMUP_WINDOWS {
            let before = self.stages();
            for _ in 0..window {
                std::hint::black_box(self.step(inputs, engine));
            }
            held = if self.stages() == before { held + 1 } else { 0 };
            if held >= 2 || self.stages() >= max_stages {
                return;
            }
        }
    }

    /// SIDCo's current stage count (0 for the other schemes).
    fn stages(&self) -> usize {
        match &self.compressor {
            Scheme::Sidco(c) => c.current_stages(),
            Scheme::Other(_) => 0,
        }
    }

    fn gradient_index(&self) -> usize {
        (self.calls % GRADIENTS_PER_PROFILE as u64) as usize
    }

    /// One operation: compress, then encode for the wire. Returns `k̂/k` and
    /// whether it lies outside the stream's band.
    fn step(&mut self, inputs: &Inputs, engine: &CompressionEngine) -> (f64, bool, LastOp) {
        let g = self.gradient_index();
        let grad = &inputs.grads[self.profile][g][..self.size];
        self.calls += 1;
        let result = {
            let _span = global_sink().real_span("core/compress");
            match &mut self.compressor {
                Scheme::Sidco(c) => c.compress(grad, self.delta),
                Scheme::Other(c) => c.compress(grad, self.delta),
            }
        };
        let wire = {
            let _span = global_sink().real_span("tensor/encode_varint");
            engine.encode_varint(&result.sparse)
        };
        let ratio = result.sparse.nnz() as f64 / (self.delta * self.size as f64);
        // SIDCo's own band `[1 − ε_L, 1 + ε_H]`.
        let out_of_band = match &self.compressor {
            Scheme::Sidco(c) => {
                let config = c.config();
                ratio < 1.0 - config.epsilon_low || ratio > 1.0 + config.epsilon_high
            }
            Scheme::Other(_) => false,
        };
        (
            ratio,
            out_of_band,
            LastOp {
                grad: g,
                result,
                wire,
            },
        )
    }
}

/// Everything one compress-sweep run holds.
pub struct Sweep {
    pub inputs: Inputs,
    pub streams: Vec<Stream>,
    /// Wall seconds of every timed call; stream `s` on its `j`-th gradient
    /// of a round is slot `s × GRADIENTS_PER_PROFILE + j`.
    pub times: SlotTimes,
    engine: CompressionEngine,
}

impl Sweep {
    /// Generates the inputs, builds one compressor per stream and runs every
    /// SIDCo stream through its warm-up windows.
    pub fn setup(seed: u64) -> Self {
        let inputs = Inputs::generate(seed);
        let mut streams = Vec::new();
        for profile in 0..PROFILES.len() {
            for size in [LARGE, SMALL] {
                for delta in DELTAS {
                    for kind in CompressorKind::EVALUATED {
                        let compressor = match kind {
                            CompressorKind::Sidco(sid) => Scheme::Sidco(
                                SidcoCompressor::new(SidcoConfig::for_sid(sid))
                                    .with_engine(CompressionEngine::sequential()),
                            ),
                            _ => Scheme::Other(build(kind, seed ^ streams.len() as u64)),
                        };
                        streams.push(Stream {
                            kind,
                            delta,
                            profile,
                            size,
                            compressor,
                            calls: 0,
                            last: None,
                            abs_err_sum: 0.0,
                            stages_sum: 0.0,
                            timed_calls: 0,
                        });
                    }
                }
            }
        }
        let engine = CompressionEngine::sequential();
        for stream in &mut streams {
            stream.warm_up(&inputs, &engine);
        }
        Self {
            inputs,
            streams,
            times: SlotTimes::default(),
            engine,
        }
    }

    /// One round: every stream once on each of its gradients, so a round is
    /// one whole period of every stream's input cycle. A SIDCo call outside
    /// its band counts as failed.
    pub fn round(&mut self, tally: &mut Tally) {
        for (s, stream) in self.streams.iter_mut().enumerate() {
            for j in 0..GRADIENTS_PER_PROFILE {
                let start = Instant::now();
                let (ratio, out_of_band, last) = stream.step(&self.inputs, &self.engine);
                let slot = s * GRADIENTS_PER_PROFILE + j;
                self.times.record(slot, start.elapsed().as_secs_f64());
                tally.attempted += 1;
                tally.failed += u64::from(out_of_band);
                tally.work += stream.size as f64;
                stream.abs_err_sum += (ratio - 1.0).abs();
                stream.stages_sum += last.result.stages_used.unwrap_or(0) as f64;
                stream.timed_calls += 1;
                stream.last = Some(last);
            }
        }
    }

    /// Checks every stream's last output against an independent recount.
    pub fn verify(&self) -> Result<(), String> {
        for s in &self.streams {
            let Some(last) = &s.last else { continue };
            let grad = &self.inputs.grads[s.profile][last.grad][..s.size];
            let sent = &last.result.sparse;
            let k = target_k(s.size, s.delta);
            let threshold = last.result.threshold;
            let outcome = match s.kind {
                CompressorKind::TopK => checks::top_k(grad, k, sent),
                CompressorKind::RandomK => checks::random_k(grad, k, sent),
                CompressorKind::Dgc => threshold
                    .ok_or_else(|| "no threshold reported".to_string())
                    .and_then(|t| checks::dgc(grad, t, k, sent)),
                _ => threshold
                    .ok_or_else(|| "no threshold reported".to_string())
                    .and_then(|t| checks::threshold_set(grad, t, sent)),
            }
            .and_then(|()| checks::wire_round_trip(&last.wire, sent));
            outcome.map_err(|e| {
                format!(
                    "{} δ={} {} n={}: {e}",
                    s.kind, s.delta, PROFILES[s.profile].0, s.size
                )
            })?;
        }
        Ok(())
    }
}
