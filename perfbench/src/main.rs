//! Runs one benchmark workload and prints its end-to-end metrics (or, with
//! `--trace 1`, its per-layer metrics) as the last line of standard output,
//! one JSON object. See README.md.

use sidco::trace::{ChromeTrace, TraceReport, TraceSession};
use sidco_perfbench::harness::{self, closed_loop, median, Metric, Phase, SlotTimes, Tally};
use sidco_perfbench::{compress, fleet, layers, train};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <compress-sweep|train-mlp|fleet-32job> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CompressSweep,
    TrainMlp,
    Fleet32Job,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "compress-sweep" => Some(Self::CompressSweep),
            "train-mlp" => Some(Self::TrainMlp),
            "fleet-32job" => Some(Self::Fleet32Job),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::CompressSweep => "compress-sweep",
            Self::TrainMlp => "train-mlp",
            Self::Fleet32Job => "fleet-32job",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let seconds = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One workload's live state.
enum State {
    Compress(compress::Sweep),
    Train(Box<train::Training>),
    Fleet(fleet::Fleet),
}

impl State {
    fn setup(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::CompressSweep => Self::Compress(compress::Sweep::setup(seed)),
            Workload::TrainMlp => Self::Train(Box::new(train::Training::setup(seed))),
            Workload::Fleet32Job => Self::Fleet(fleet::Fleet::setup(seed)),
        }
    }

    fn round(&mut self, tally: &mut Tally) {
        match self {
            Self::Compress(s) => s.round(tally),
            Self::Train(s) => s.round(tally),
            Self::Fleet(s) => s.round(tally),
        }
    }

    fn verify(&self) -> Result<(), String> {
        match self {
            Self::Compress(s) => s.verify(),
            Self::Train(s) => s.verify(),
            Self::Fleet(s) => s.verify(),
        }
    }

    fn times(&self) -> &SlotTimes {
        match self {
            Self::Compress(s) => &s.times,
            Self::Train(s) => &s.times,
            Self::Fleet(s) => &s.times,
        }
    }

    /// Sets `TrainerConfig::trace` / `TenancyConfig::trace`, so each program
    /// operation records its own trace session. The compress sweep has no
    /// such flag; its rounds are traced by the benchmark's own session.
    fn enable_program_tracing(&mut self) {
        match self {
            Self::Compress(_) => {}
            Self::Train(s) => s.enable_tracing(),
            Self::Fleet(s) => s.enable_tracing(),
        }
    }

    /// The traces the program recorded of its last operation, when the
    /// workload sets the program's own trace flag.
    fn program_traces(&self) -> Vec<(String, &TraceReport)> {
        match self {
            Self::Compress(_) => Vec::new(),
            Self::Train(s) => s
                .last
                .iter()
                .filter_map(|r| r.trace())
                .map(|t| ("train-mlp run".to_string(), t))
                .collect(),
            Self::Fleet(s) => s
                .last
                .iter()
                .flatten()
                .filter_map(|r| r.trace().map(|t| (format!("fleet {}", r.policy), t)))
                .collect(),
        }
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, start: Instant) -> Result<String, String> {
    // Set up several times and keep the last; the first set-up is timed from
    // process start, so it includes spawning the pool.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let from = if rep == 0 { start } else { Instant::now() };
        state = Some(State::setup(args.workload, args.seed));
        setups.push(from.elapsed().as_secs_f64());
    }
    // INVARIANT: SETUP_REPS >= 1, so the loop built a state.
    let mut state = state.expect("at least one set-up");
    let setup_s = median(&mut setups);
    let budget = Duration::from_secs(args.seconds);

    if !args.trace {
        let phase = closed_loop(budget, |t| {
            state.round(t);
            Ok(())
        })?;
        let correct = report_check(state.verify());
        // A round priced at each call's fastest time: the host only ever adds
        // time to identical work (README.md, "Host noise").
        let work_per_round = phase.tally.work / phase.rounds as f64;
        let work_per_s = work_per_round / state.times().fastest_round_secs();
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "peak_rss_mb",
                harness::peak_rss_mib().unwrap_or(f64::NAN),
                "MiB",
            ),
            Metric::new("work_per_s", work_per_s, "1/s"),
        ];
        return Ok(harness::result_json(correct, phase.tally, &metrics));
    }

    // Traced run: half the budget untraced, half traced, then the probes.
    let half = budget / 2;
    let untraced = closed_loop(half, |t| {
        state.round(t);
        Ok(())
    })?;
    let mut bench_trace: Option<TraceReport> = None;
    state.enable_program_tracing();
    let per_round_session = matches!(state, State::Compress(_));
    let traced = closed_loop(half, |t| {
        if per_round_session {
            // One session per round keeps each session's events well inside
            // the per-thread trace rings.
            let session = TraceSession::begin();
            state.round(t);
            bench_trace = Some(session.finish());
        } else {
            state.round(t);
        }
        Ok(())
    })?;
    let correct = report_check(state.verify());

    // The probes run on the workload's own inputs; a workload that has no
    // gradients of its own lends them a LaplaceLike draw from the seed.
    let probe_grad;
    let grad: &[f32] = match &state {
        State::Compress(s) => &s.inputs.grads[0][0],
        _ => {
            probe_grad = compress::Inputs::probe_gradient(args.seed);
            &probe_grad
        }
    };
    let sources = layers::Sources {
        grad,
        sweep: if let State::Compress(s) = &state {
            Some(s)
        } else {
            None
        },
        training: if let State::Train(s) = &state {
            Some(s)
        } else {
            None
        },
        fleet: if let State::Fleet(s) = &state {
            Some(s)
        } else {
            None
        },
        seed: args.seed,
    };
    let session = TraceSession::begin();
    let mut metrics = layers::probe(&sources);
    let probe_trace = session.finish();

    metrics.push(Metric::new(
        "trace.overhead_pct",
        overhead_pct(&untraced, &traced),
        "%",
    ));
    let mut table = layers::self_times(&probe_trace);
    if let Some(trace) = &bench_trace {
        for (name, (n, total, own)) in layers::self_times(trace) {
            let e = table.entry(name).or_default();
            e.0 += n;
            e.1 += total;
            e.2 += own;
        }
    }
    eprintln!(
        "{:<32} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in &table {
        eprintln!(
            "{name:<32} {n:>8} {:>12.3} {:>12.3}",
            total * 1e3,
            own * 1e3
        );
    }
    for layer in layers::LAYERS {
        let own: f64 = table
            .iter()
            .filter(|(name, _)| name.split('/').next() == Some(layer))
            .map(|(_, (_, _, own))| own)
            .sum();
        metrics.push(Metric::new(format!("self_ms.{layer}"), own * 1e3, "ms"));
    }

    let mut chrome = ChromeTrace::new();
    chrome.add("perfbench probes", &probe_trace);
    if let Some(trace) = &bench_trace {
        chrome.add("compress-sweep round", trace);
    }
    for (label, trace) in state.program_traces() {
        chrome.add(&label, trace);
    }
    let json = chrome.finish();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", args.workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: Chrome trace written to {}", path.display());

    let mut tally = untraced.tally;
    tally.add(traced.tally);
    Ok(harness::result_json(correct, tally, &metrics))
}

/// Tracing overhead: how much longer the traced phase took per unit of work.
fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    (untraced.rate() / traced.rate() - 1.0) * 100.0
}

fn report_check(outcome: Result<(), String>) -> bool {
    match outcome {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: output check failed: {e}");
            false
        }
    }
}
