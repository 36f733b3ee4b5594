//! `fleet-32job`: one `FleetScheduler::simulate` of a 32-job fleet on
//! `paper_mixed_fleet()` under each `SharePolicy`, for each of [`FLEETS`]
//! fleets drawn from the seed, per operation.

use crate::checks;
use crate::harness::{SlotTimes, Tally};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco::dist::cluster::ClusterConfig;
use sidco::dist::{
    FleetReport, FleetScheduler, JobSpec, PriorityPolicy, SharePolicy, TenancyConfig,
};
use sidco::models::benchmarks::BenchmarkId;
use std::time::Instant;

pub const JOBS: usize = 32;
/// Fleets one run draws from its seed. A single draw's simulation cost moves
/// by up to a third with the seed (arrival order and priority classes change
/// how many events the link simulation handles); every operation prices all
/// of them, so a run's cost is the mean over many draws.
pub const FLEETS: usize = 16;
const DELTAS: [f64; 3] = [0.1, 0.01, 0.001];
const POLICIES: [PriorityPolicy; 3] = [
    PriorityPolicy::Fifo,
    PriorityPolicy::SmallestFirst,
    PriorityPolicy::NearestOutputFirst,
];

/// Warm-up operations each set-up runs.
const WARMUP_OPS: usize = 6;

/// A fleet of [`JOBS`] jobs. The job shapes are a fixed mix — every Table-1
/// benchmark, δ ∈ {0.1, 0.01, 0.001}, 1–4 streams, 2–16 buckets, 4–8
/// iterations and every bucket-ordering policy — so each operation prices the
/// same work whatever the seed. The seed draws the order the jobs arrive in,
/// their staggered arrival times and their priority classes (0–3).
pub fn jobs(seed: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF1EE_7000);
    let mut order: Vec<usize> = (0..JOBS).collect();
    for i in (1..JOBS).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
        .into_iter()
        .enumerate()
        .map(|(slot, j)| {
            let bench = BenchmarkId::ALL[j % BenchmarkId::ALL.len()];
            JobSpec::new(format!("job-{j}"), bench, DELTAS[j % DELTAS.len()])
                .with_arrival(slot as f64 * 0.05 + rng.gen_range(0.0..0.05))
                .with_streams(1 + j % 4)
                .with_buckets(2 + (j * 5) % 15)
                .with_priority_class(rng.gen_range(0..4usize))
                .with_iterations(4 + j % 5)
                .with_policy(POLICIES[(j / 2) % POLICIES.len()])
        })
        .collect()
}

/// The [`FLEETS`] fleets of one run: fleet `i` is [`jobs`] of the `i`-th draw
/// of a generator seeded with `seed`.
pub fn fleets(seed: u64) -> Vec<Vec<JobSpec>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..FLEETS).map(|_| jobs(rng.gen())).collect()
}

/// Everything one fleet-32job run holds.
pub struct Fleet {
    pub fleets: Vec<Vec<JobSpec>>,
    pub schedulers: Vec<FleetScheduler>,
    /// Wall seconds of every untraced timed `simulate`; fleet `f` under
    /// policy `p` is slot `f × SharePolicy::ALL.len() + p`.
    pub times: SlotTimes,
    traced: bool,
    pub last: Vec<Option<FleetReport>>,
    pub error: Option<String>,
    /// Modeled job-iterations one operation prices.
    job_iterations: f64,
}

impl Fleet {
    /// Draws the jobs, builds one scheduler per policy and runs the warm-up
    /// operations.
    pub fn setup(seed: u64) -> Self {
        let fleets = fleets(seed);
        let cluster = ClusterConfig::paper_mixed_fleet();
        let schedulers = SharePolicy::ALL
            .iter()
            .map(|&policy| FleetScheduler::new(cluster.clone(), policy))
            .collect::<Vec<_>>();
        for _ in 0..WARMUP_OPS {
            for jobs in &fleets {
                for scheduler in &schedulers {
                    std::hint::black_box(scheduler.simulate(jobs));
                }
            }
        }
        let job_iterations = fleets
            .iter()
            .flatten()
            .map(|j| j.iterations as f64)
            .sum::<f64>()
            * SharePolicy::ALL.len() as f64;
        Self {
            fleets,
            schedulers,
            times: SlotTimes::default(),
            traced: false,
            last: vec![None; SharePolicy::ALL.len()],
            error: None,
            job_iterations,
        }
    }

    /// Sets `TenancyConfig::trace` on every scheduler: each simulate then
    /// records its own trace session.
    pub fn enable_tracing(&mut self) {
        self.traced = true;
        for (scheduler, policy) in self.schedulers.iter_mut().zip(SharePolicy::ALL) {
            let cluster = scheduler.cluster().clone();
            let config = TenancyConfig {
                trace: true,
                ..TenancyConfig::for_cluster(&cluster)
            };
            *scheduler = FleetScheduler::new(cluster, policy).with_tenancy(config);
        }
    }

    /// Every untraced `simulate` under the policy `SharePolicy::ALL[p]`.
    pub fn latencies(&self, p: usize) -> Vec<f64> {
        self.times
            .samples(|slot| slot % SharePolicy::ALL.len() == p)
    }

    /// One operation: every fleet under every policy, each report checked
    /// for work conservation and (under fair share) starvation. `last` keeps
    /// the reports of the last fleet.
    pub fn round(&mut self, tally: &mut Tally) {
        for (f, jobs) in self.fleets.iter().enumerate() {
            for (p, scheduler) in self.schedulers.iter().enumerate() {
                let start = Instant::now();
                let report = scheduler.simulate(jobs);
                if !self.traced {
                    let slot = f * SharePolicy::ALL.len() + p;
                    self.times.record(slot, start.elapsed().as_secs_f64());
                }
                let mut outcome = checks::link_conserves_work(
                    report.link_busy_seconds,
                    report.total_wire_seconds,
                );
                if report.policy == SharePolicy::FairShare {
                    outcome = outcome.and_then(|()| checks::no_starvation(&report));
                }
                if let Err(e) = outcome {
                    self.error
                        .get_or_insert(format!("fleet {f}, {}: {e}", report.policy));
                }
                self.last[p] = Some(report);
            }
        }
        tally.attempted += 1;
        tally.work += self.job_iterations;
    }

    /// The check made once per run: fair share finishes the last fleet no
    /// later than serializing its jobs.
    pub fn verify(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(format!("fleet-32job: {e}"));
        }
        let Some(jobs) = self.fleets.last() else {
            return Ok(());
        };
        for (scheduler, report) in self.schedulers.iter().zip(&self.last) {
            let Some(report) = report else { continue };
            if report.policy == SharePolicy::FairShare {
                checks::beats_serialization(report.fleet_end(), scheduler.serialized_end(jobs))?;
            }
        }
        Ok(())
    }
}
