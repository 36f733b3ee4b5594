//! Run bookkeeping shared by every workload: the closed-loop timed phase,
//! operation tallies, summary statistics, the process's peak resident set and
//! the one-line JSON result.

use std::time::{Duration, Instant};

/// Counts of one timed phase. `work` is in the workload's own unit (dense
/// elements, training examples or modeled job-iterations).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub work: f64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.work += other.work;
    }
}

/// Outcome of a closed-loop phase: what it did and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub tally: Tally,
    pub rounds: u64,
    pub wall: Duration,
}

impl Phase {
    /// Work completed per wall second over the whole phase.
    pub fn rate(&self) -> f64 {
        self.tally.work / self.wall.as_secs_f64()
    }
}

/// Runs whole rounds back to back until `budget` has elapsed. Every round
/// attempts the same operations, so the share of failed operations does not
/// depend on how many rounds fit in the budget.
pub fn closed_loop<F>(budget: Duration, mut round: F) -> Result<Phase, String>
where
    F: FnMut(&mut Tally) -> Result<(), String>,
{
    let mut tally = Tally::default();
    let mut rounds = 0;
    let start = Instant::now();
    loop {
        round(&mut tally)?;
        rounds += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    Ok(Phase {
        tally,
        rounds,
        wall: start.elapsed(),
    })
}

/// Wall seconds of every timed call, by slot: a slot is one call of a round
/// (the same inputs and the same work in every round), so its samples differ
/// only by what the host adds.
#[derive(Debug, Default, Clone)]
pub struct SlotTimes {
    slots: Vec<Vec<f64>>,
}

impl SlotTimes {
    pub fn record(&mut self, slot: usize, secs: f64) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, Vec::new);
        }
        self.slots[slot].push(secs);
    }

    /// Every sample of the slots `keep` selects.
    pub fn samples(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(slot, _)| keep(slot))
            .flat_map(|(_, times)| times.iter().copied())
            .collect()
    }

    /// One round's wall time as the sum over slots of each slot's fastest
    /// call; NaN when nothing was recorded.
    pub fn fastest_round_secs(&self) -> f64 {
        if self.slots.is_empty() {
            return f64::NAN;
        }
        self.slots
            .iter()
            .map(|times| times.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// Runs `f` `reps` times and returns the median wall time in seconds plus the
/// last result.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1, "at least one repetition");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        times.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    // INVARIANT: reps >= 1, so the loop stored at least one result.
    (
        median(&mut times),
        last.expect("at least one repetition ran"),
    )
}

/// Median of `values` (sorted in place); NaN for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the result line. A non-finite value cannot be written as JSON; it
/// marks the run incorrect and is written as 0.
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let mut correct = correct;
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            0.0
        };
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn fastest_calls_add_up_to_a_round() {
        let mut times = SlotTimes::default();
        assert!(times.fastest_round_secs().is_nan());
        for (slot, secs) in [(0, 2.0), (1, 30.0), (0, 1.0), (1, 10.0), (0, 3.0)] {
            times.record(slot, secs);
        }
        assert_eq!(times.fastest_round_secs(), 1.0 + 10.0);
        assert_eq!(times.samples(|slot| slot == 1), vec![30.0, 10.0]);
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let tally = Tally {
            attempted: 96,
            failed: 4,
            work: 1.0,
        };
        let line = result_json(true, tally, &[Metric::new("setup_s", 0.123456789, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 96, \"failed\": 4, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}}}"
        );
        let bad = result_json(true, tally, &[Metric::new("x", f64::NAN, "s")]);
        assert!(bad.starts_with("{\"correct\": false"));
    }
}
