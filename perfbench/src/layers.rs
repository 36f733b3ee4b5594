//! Per-layer measurements. After the timed phases, each layer's public
//! functions are called on the workload's own inputs (or read from the
//! program's reports), every call wrapped in a real-lane span named
//! `<layer>/<call>`; the program's `engine/*`, pool and trainer spans nest
//! beneath. The same metrics are produced on every workload, so a change that
//! should leave a layer alone can be seen to leave it alone.

use crate::compress::{self, Sweep};
use crate::fleet::Fleet;
use crate::harness::{median, median_secs, quantile, Metric};
use crate::train::{self, CallStats, Task, Training};
use sidco::core::compressor::CompressorKind;
use sidco::core::engine::CompressionEngine;
use sidco::core::layerwise::LayerLayout;
use sidco::core::sidco::{SidcoCompressor, SidcoConfig};
use sidco::core::topk::target_k;
use sidco::core::ErrorFeedback;
use sidco::dist::collective::modeled_bucket_costs;
use sidco::dist::{CollectiveScheduler, PriorityPolicy, SharePolicy, TrainingReport};
use sidco::models::DifferentiableModel;
use sidco::runtime::RuntimeKind;
use sidco::stats::fit::SidKind;
use sidco::tensor::topk::kth_largest_magnitude;
use sidco::tensor::GradientVector;
use sidco::trace::{global_sink, CompleteSpan, Lane, TraceReport};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Layers, named after the workspace crates.
pub const LAYERS: [&str; 6] = ["stats", "tensor", "core", "runtime", "models", "dist"];
const SIDCO: [SidKind; 3] = [
    SidKind::Exponential,
    SidKind::Gamma,
    SidKind::GeneralizedPareto,
];
/// Repetitions of each millisecond-scale probe (the median is reported).
const REPS: usize = 5;
/// Repetitions of each microsecond-scale probe.
const FAST_REPS: usize = 200;

/// What a workload hands the probes; whatever it lacks, the probes build.
pub struct Sources<'a> {
    /// A [`compress::LARGE`]-element gradient of the workload's inputs.
    pub grad: &'a [f32],
    pub sweep: Option<&'a Sweep>,
    pub training: Option<&'a Training>,
    pub fleet: Option<&'a Fleet>,
    pub seed: u64,
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn sidco_name(sid: SidKind) -> &'static str {
    compress::name(CompressorKind::Sidco(sid))
}

/// `|k̂/k − 1|` and stages summed over a set of calls of one compressor.
#[derive(Default, Clone, Copy)]
struct CallSummary {
    abs_err: f64,
    stages: f64,
    calls: f64,
}

impl CallSummary {
    fn add(&mut self, ratio: f64, stages: usize) {
        self.abs_err += (ratio - 1.0).abs();
        self.stages += stages as f64;
        self.calls += 1.0;
    }
}

/// Runs every probe and returns the per-layer metrics except the tracing
/// overhead and the self times, which need the finished trace.
pub fn probe(src: &Sources) -> Vec<Metric> {
    let mut out = Vec::new();
    let engine = CompressionEngine::sequential();
    let grad = src.grad;

    // stats: the moment pass and each SID's threshold estimate.
    let (t, _) = median_secs(REPS, || {
        let _span = global_sink().real_span("stats/abs_moments");
        engine.abs_moments(grad)
    });
    out.push(Metric::new("stats.abs_moments_ms", ms(t), "ms"));
    for sid in SIDCO {
        let sidco = SidcoCompressor::new(SidcoConfig::for_sid(sid)).with_engine(engine);
        let (t, _) = median_secs(REPS, || {
            let _span = global_sink().real_span("stats/estimate_threshold");
            sidco.estimate_threshold(grad, 0.01)
        });
        out.push(Metric::new(
            format!("stats.threshold_ms.{}", sidco_name(sid)),
            ms(t),
            "ms",
        ));
    }

    // tensor: the scans, selections and the wire encoding.
    let k = target_k(grad.len(), 0.01);
    let threshold = f64::from(kth_largest_magnitude(grad, k));
    let (t, _) = median_secs(REPS, || {
        let _span = global_sink().real_span("tensor/count_above");
        engine.count_above(grad, threshold)
    });
    out.push(Metric::new("tensor.count_above_ms", ms(t), "ms"));
    let (t, _) = median_secs(REPS, || {
        let _span = global_sink().real_span("tensor/select_above");
        engine.select_above(grad, threshold)
    });
    out.push(Metric::new("tensor.select_above_ms", ms(t), "ms"));
    let mut top = None;
    for delta in compress::DELTAS {
        let (t, sparse) = median_secs(REPS, || {
            let _span = global_sink().real_span("tensor/top_k");
            engine.top_k(grad, target_k(grad.len(), delta))
        });
        out.push(Metric::new(format!("tensor.top_k_ms.{delta}"), ms(t), "ms"));
        top.get_or_insert(sparse);
    }
    // INVARIANT: DELTAS is non-empty, so the loop stored a selection.
    let top = top.expect("at least one δ");
    let (t, wire) = median_secs(REPS, || {
        let _span = global_sink().real_span("tensor/encode_varint");
        engine.encode_varint(&top)
    });
    out.push(Metric::new("tensor.encode_varint_ms", ms(t), "ms"));
    out.push(Metric::new(
        "tensor.wire_bytes_per_nnz",
        wire.wire_bytes() as f64 / wire.nnz().max(1) as f64,
        "B",
    ));

    // core: every compressor at every δ on a fresh instance.
    let mut probed: BTreeMap<&'static str, CallSummary> = BTreeMap::new();
    for kind in CompressorKind::EVALUATED {
        for delta in compress::DELTAS {
            let mut c = compress::build(kind, src.seed);
            let name = c.name();
            let summary = probed.entry(name).or_default();
            let mut times = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let start = std::time::Instant::now();
                let result = {
                    let _span = global_sink().real_span("core/compress");
                    c.compress(grad, delta)
                };
                times.push(start.elapsed().as_secs_f64());
                let ratio = result.sparse.nnz() as f64 / (delta * grad.len() as f64);
                summary.add(ratio, result.stages_used.unwrap_or(0));
            }
            out.push(Metric::new(
                format!("core.compress_ms.{name}.{delta}"),
                ms(median(&mut times)),
                "ms",
            ));
        }
    }
    // Ratios and stage counts come from the timed calls where the workload
    // compresses, else from the probe calls above.
    let observed: BTreeMap<&'static str, CallSummary> = match src.sweep {
        Some(sweep) => {
            let mut m: BTreeMap<&'static str, CallSummary> = BTreeMap::new();
            for s in &sweep.streams {
                let name = compress::name(s.kind);
                let e = m.entry(name).or_default();
                e.abs_err += s.abs_err_sum;
                e.stages += s.stages_sum;
                e.calls += s.timed_calls as f64;
            }
            m
        }
        None => probed,
    };
    for kind in CompressorKind::EVALUATED {
        let name = compress::name(kind);
        let s = observed.get(name).copied().unwrap_or_default();
        out.push(Metric::new(
            format!("core.ratio_err.{name}"),
            s.abs_err / s.calls,
            "ratio",
        ));
    }
    let (mut err, mut calls) = (0.0, 0.0);
    for kind in CompressorKind::EVALUATED
        .into_iter()
        .filter(|&k| !compress::exact_by_construction(k))
    {
        let s = observed
            .get(compress::name(kind))
            .copied()
            .unwrap_or_default();
        err += s.abs_err;
        calls += s.calls;
    }
    out.push(Metric::new("core.ratio_err", err / calls, "ratio"));

    // The training task: the workload's own, or a fresh one for the probes.
    let fresh;
    let task: &Task = match src.training {
        Some(training) => &training.task,
        None => {
            fresh = Task::new(src.seed);
            &fresh
        }
    };
    let model = task.model.as_ref();
    let dim = model.num_parameters();

    // core: one error-feedback round trip at the trainer's dimension.
    let g = GradientVector::from_vec(grad[..dim].to_vec());
    let mut feedback = ErrorFeedback::new(dim);
    let (t, _) = median_secs(REPS * 10, || {
        let _span = global_sink().real_span("core/error_feedback");
        let corrected = feedback.corrected(&g);
        let sent = engine.top_k(corrected.as_slice(), target_k(dim, train::DELTA));
        feedback.update_sparse(&corrected, &sent);
    });
    out.push(Metric::new("core.ef_ms", ms(t), "ms"));

    // runtime: an empty dispatch of one job per (worker, bucket).
    let pool = sidco::runtime::handle(RuntimeKind::Pool, train::POOL_WORKERS);
    let layout = LayerLayout::new(model.layer_sizes());
    let tasks = task.cluster.workers * layout.len();
    let (t, _) = median_secs(FAST_REPS, || {
        let _span = global_sink().real_span("runtime/run_indexed");
        pool.run_indexed(tasks, &|i| {
            std::hint::black_box(i);
        });
    });
    out.push(Metric::new("runtime.dispatch_us", t * 1e6, "us"));

    // models: one worker batch forward/backward, and the full evaluation.
    let params = model.initial_parameters(src.seed);
    let batch: Vec<usize> = (0..train::BATCH).collect();
    let (t, _) = median_secs(REPS * 10, || {
        let _span = global_sink().real_span("models/loss_and_gradient");
        model.loss_and_gradient(params.as_slice(), &batch)
    });
    out.push(Metric::new("models.fwd_bwd_ms", ms(t), "ms"));
    let (t, _) = median_secs(REPS, || {
        let _span = global_sink().real_span("models/evaluate");
        model.evaluate(params.as_slice())
    });
    out.push(Metric::new("models.evaluate_ms", ms(t), "ms"));

    // dist: the trainer's per-iteration schedule search.
    let costs = modeled_bucket_costs(
        &task.cluster,
        CompressorKind::Sidco(SidKind::Exponential),
        train::DELTA,
        2,
        &layout,
    );
    let scheduler = CollectiveScheduler::new(task.config.streams, PriorityPolicy::Fifo);
    let (t, _) = median_secs(FAST_REPS, || {
        let _span = global_sink().real_span("dist/best_schedule");
        scheduler.best_schedule(&costs)
    });
    out.push(Metric::new("dist.best_schedule_us", t * 1e6, "us"));

    // dist: fleet simulation latency per policy.
    let fresh_fleet;
    let fleet = match src.fleet {
        Some(fleet) => fleet,
        None => {
            // One round is 16 simulates per policy.
            let mut f = Fleet::setup(src.seed);
            {
                let _span = global_sink().real_span("dist/simulate");
                f.round(&mut Default::default());
            }
            fresh_fleet = f;
            &fresh_fleet
        }
    };
    for (p, policy) in SharePolicy::ALL.iter().enumerate() {
        let mut lat = fleet.latencies(p);
        out.push(Metric::new(
            format!("dist.simulate_ms_p50.{policy}"),
            ms(quantile(&mut lat, 0.5)),
            "ms",
        ));
        out.push(Metric::new(
            format!("dist.simulate_ms_p90.{policy}"),
            ms(quantile(&mut lat, 0.9)),
            "ms",
        ));
    }

    // The trainer's reports: the workload's last timed run, or one probe run.
    let probe_stats = Arc::new(CallStats::default());
    let probe_report;
    let (report, stats): (&TrainingReport, &CallStats) =
        match src.training.and_then(|t| t.last.as_ref().map(|r| (r, t))) {
            Some((report, training)) => (report, training.stats.as_ref()),
            None => {
                let mut trainer =
                    task.trainer(task.config.clone(), train::POOL_WORKERS, &probe_stats);
                probe_report = {
                    let _span = global_sink().real_span("dist/trainer_run");
                    trainer.run(train::DELTA)
                };
                (&probe_report, probe_stats.as_ref())
            }
        };
    let iterations = report.samples().len().max(1) as f64;
    // One call per (worker, bucket) and iteration.
    let (calls, stages, wire_bytes) = stats.read();
    out.push(Metric::new(
        "dist.payload_bytes_per_iter",
        wire_bytes as f64 / calls as f64 * layout.len() as f64,
        "B",
    ));
    let charged = report.schedule().map_or(f64::NAN, |s| s.charged_overhead());
    out.push(Metric::new(
        "dist.charged_overhead_ms",
        ms(charged / iterations),
        "ms",
    ));
    out.push(Metric::new(
        "dist.modeled_iter_ms",
        ms(report.total_time() / iterations),
        "ms",
    ));
    out.push(Metric::new(
        "dist.trainer_ratio_err",
        train::ratio_err(report),
        "ratio",
    ));
    let pool = report.dispatch().and_then(|d| d.pool.as_ref());
    let steals = pool.map_or(f64::NAN, |p| (p.sibling_steals + p.remote_steals) as f64);
    out.push(Metric::new(
        "runtime.steals_per_iter",
        steals / iterations,
        "count",
    ));
    let parks = pool.map_or(f64::NAN, |p| p.parks as f64);
    out.push(Metric::new(
        "runtime.parks_per_iter",
        parks / iterations,
        "count",
    ));

    // Stage counts: SIDCo-E from the trainer where the workload trains.
    for sid in SIDCO {
        let name = sidco_name(sid);
        let value = match (src.training, sid) {
            (Some(_), SidKind::Exponential) => stages as f64 / calls as f64,
            _ => {
                let s = observed.get(name).copied().unwrap_or_default();
                s.stages / s.calls
            }
        };
        out.push(Metric::new(format!("stats.stages.{name}"), value, "count"));
    }
    out
}

/// Self time of every span name on the real lane of `report`: its duration
/// minus the part of it that spans nested inside it cover (on any track, so
/// pool-worker spans count as children of the call that dispatched them).
/// Returns `(count, total seconds, self seconds)` per name.
pub fn self_times(report: &TraceReport) -> BTreeMap<String, (usize, f64, f64)> {
    let real = |s: &CompleteSpan| {
        report
            .tracks()
            .get(s.track.index())
            .is_some_and(|t| t.lane == Lane::Real)
    };
    let mut spans: Vec<CompleteSpan> = report.spans_lenient().into_iter().filter(real).collect();
    // Parents before children: by start, the longer span first.
    spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
    let mut table: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered = 0.0;
        let mut reach = s.start;
        for c in spans[i + 1..].iter().take_while(|c| c.start <= s.end) {
            if c.end > s.end {
                continue;
            }
            let from = c.start.max(reach);
            if c.end > from {
                covered += c.end - from;
                reach = c.end;
            }
        }
        let entry = table.entry(s.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += s.end - s.start;
        entry.2 += (s.end - s.start - covered).max(0.0);
    }
    table
}
