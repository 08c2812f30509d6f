//! Open-loop load in virtual time: `SimServer` driven like
//! `xai_serve::run_load` (seeded Poisson arrivals, healthy-capacity
//! calibration, optional fault plan), but over the workload's own
//! distinct requests and with every completed map checked.

use crate::clock;
use crate::problem::{bits_equal, Fleet};
use crate::stats;
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use xai_accel::Accelerator;
use xai_core::DistilledModel;
use xai_serve::{
    ExplainJob, JobOutput, Outcome, ResponseHandle, ServeError, ShedPolicy, SimServer,
};
use xai_tensor::{Matrix, Result, TensorError};
use xai_tpu::{FaultPlan, FaultStats};

/// Offered rates, as multiples of the healthy single-flight capacity.
pub const LADDER: [f64; 7] = [0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// The rung the `sim_goodput_frac` and `sim_latency_p99_us` metrics
/// and the per-layer serving counters are read at.
pub const REFERENCE_RATE: f64 = 1.0;

/// Share of offered requests that must complete in time for a rate
/// to count as sustained.
pub const SUSTAINED_FRAC: f64 = 0.99;

/// Admission-queue bound, shed policy, deadline and serving retry
/// budget, as `LoadConfig::default()`.
const QUEUE_CAPACITY: usize = 8;
const DEADLINE_FACTOR: f64 = 16.0;
const RETRY_BUDGET: usize = 2;

/// Per-shard-attempt transient fault probability of faulted loads.
pub const TRANSIENT_PROB: f64 = 0.05;

/// The chip that fail-stops, at this fraction of the arrival span.
const FAIL_STOP_CHIP: usize = 0;
const FAIL_STOP_AT_FRAC: f64 = 0.5;

/// Everything a load needs besides its arrival process.
pub struct LoadSetup<'a> {
    /// The fleet serving the load.
    pub fleet: Fleet,
    /// The served model.
    pub model: &'a DistilledModel,
    /// Distinct requests; arrival `i` asks for `jobs[i % len]`.
    pub jobs: &'a [ExplainJob],
    /// Expected map of each job (unbatched single-chip path); empty for
    /// an unchecked warm-up load.
    pub refs: &'a [Matrix<f64>],
    /// Requests offered per load.
    pub requests: usize,
    /// Seed of the arrival process and of the fault plan.
    pub seed: u64,
    /// Inject the fault plan (transients plus a mid-load fail-stop).
    pub faults: bool,
    /// Simulated device time of one request on the healthy fleet.
    pub service_s: f64,
}

/// Seed of load `load` of a measured loop at `seed`. Load 0 runs at the
/// seed itself, as the ladder does; later loads draw other arrivals
/// and faults, so a run's host metrics average over many draws rather
/// than repeat one.
pub fn load_seed(seed: u64, load: u64) -> u64 {
    seed.wrapping_add(load.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one load did.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRun {
    /// Offered rate multiple.
    pub rate: f64,
    /// Per-request dispositions in arrival order.
    pub outcomes: Vec<Outcome>,
    /// Simulated latency of each completed request, seconds.
    pub sim_latency_s: Vec<f64>,
    /// Host time from each request's `submit_at` to its resolution, µs.
    pub host_latency_us: Vec<f64>,
    /// Host instant each request resolved.
    pub host_done: Vec<Instant>,
    /// Completed maps that differ from the reference, plus kernel
    /// errors that fault injection cannot explain.
    pub mismatched: u64,
    /// Completions per simulated second over the run.
    pub goodput_rps: f64,
    /// Deepest admission-queue occupancy.
    pub high_water: usize,
    /// Serving-level whole-job retries.
    pub retries: u64,
    /// Device-pool fault counters.
    pub fault: FaultStats,
}

impl LoadRun {
    /// Requests with outcome `o`.
    pub fn count(&self, o: Outcome) -> usize {
        self.outcomes.iter().filter(|&&x| x == o).count()
    }

    /// Share of offered requests completed within their deadline.
    pub fn completed_frac(&self) -> f64 {
        self.count(Outcome::Completed) as f64 / self.outcomes.len().max(1) as f64
    }
}

/// Simulated device time of one request on a fresh, healthy fleet —
/// the capacity calibration `run_load` performs.
///
/// # Errors
///
/// Kernel errors of the probe request.
pub fn calibrate(fleet: &Fleet, model: &DistilledModel, job: &ExplainJob) -> Result<f64> {
    let acc: Arc<dyn Accelerator> = fleet.serving();
    let mut probe = SimServer::new(acc, model.clone(), 1, ShedPolicy::RejectNewest);
    let h = probe.submit_at(0.0, job.clone(), f64::INFINITY);
    probe.drain();
    match h.wait() {
        Ok(_) => Ok(probe.now_s()),
        Err(ServeError::Kernel(e)) => Err(e),
        Err(e) => unreachable!("an idle server with no deadline cannot answer {e}"),
    }
}

/// Runs one load of seeded Poisson arrivals at `rate` times the
/// healthy capacity. With a recorder, the harness's calls into
/// `SimServer` are spans.
///
/// # Errors
///
/// Never for load outcomes (shed, deadline, fault budget): those are
/// data. Only construction errors propagate.
pub fn run(setup: &LoadSetup<'_>, rate: f64, mut rec: Option<&mut Recorder>) -> Result<LoadRun> {
    let capacity_rps = 1.0 / setup.service_s;
    let offered_rps = rate * capacity_rps;
    let deadline_s = DEADLINE_FACTOR * setup.service_s;
    let acc = setup.fleet.serving();
    if setup.faults {
        let span_s = setup.requests as f64 / offered_rps;
        let plan = FaultPlan::seeded(setup.seed)
            .transient(TRANSIENT_PROB)
            .fail_stop(FAIL_STOP_CHIP, FAIL_STOP_AT_FRAC * span_s);
        acc.pool()
            .expect("faulted workloads run on a pool")
            .install_fault_plan(plan);
    }
    let dyn_acc: Arc<dyn Accelerator> = Arc::<xai_accel::TpuAccel>::clone(&acc);
    let mut sim = SimServer::new(
        dyn_acc,
        setup.model.clone(),
        QUEUE_CAPACITY,
        ShedPolicy::RejectNewest,
    )
    .with_retry_budget(RETRY_BUDGET);

    let n = setup.requests;
    let mut rng = StdRng::seed_from_u64(setup.seed);
    let mut handles = Vec::with_capacity(n);
    let mut submitted = Vec::with_capacity(n);
    let mut host_latency_us = vec![0.0; n];
    let mut host_done: Vec<Option<Instant>> = vec![None; n];
    let mut pending: Vec<usize> = Vec::new();
    let load_span = rec.as_deref_mut().map(|r| r.open("sim.load", None, 0));
    let settle = |handles: &[ResponseHandle],
                  submitted: &[Instant],
                  pending: &mut Vec<usize>,
                  lat: &mut [f64],
                  done: &mut [Option<Instant>]| {
        let now = clock::now();
        pending.retain(|&r| {
            let resolved = handles[r].is_resolved();
            if resolved {
                lat[r] = now.duration_since(submitted[r]).as_nanos() as f64 / 1e3;
                done[r] = Some(now);
            }
            !resolved
        });
    };
    // Serves the oldest queued request (`req`), as a span when traced.
    // The loops below call it only while `SimServer::step_until` would
    // serve, so every span is a real service.
    let step = |sim: &mut SimServer, rec: &mut Option<&mut Recorder>, req: Option<&usize>| {
        let req = req.map_or(0, |&r| r as u64);
        match rec.as_deref_mut() {
            Some(r) => r.time("serve.step", load_span, req, || sim.step()),
            None => sim.step(),
        }
    };
    let mut t = 0.0f64;
    for i in 0..n {
        t -= (1.0 - rng.random::<f64>()).ln() / offered_rps;
        while sim.queue_len() > 0 && sim.now_s() < t {
            step(&mut sim, &mut rec, pending.first());
            settle(
                &handles,
                &submitted,
                &mut pending,
                &mut host_latency_us,
                &mut host_done,
            );
        }
        let job = setup.jobs[i % setup.jobs.len()].clone();
        submitted.push(clock::now());
        let h = match rec.as_deref_mut() {
            Some(r) => r.time("serve.submit", load_span, i as u64, || {
                sim.submit_at(t, job, deadline_s)
            }),
            None => sim.submit_at(t, job, deadline_s),
        };
        handles.push(h);
        pending.push(i);
        settle(
            &handles,
            &submitted,
            &mut pending,
            &mut host_latency_us,
            &mut host_done,
        );
    }
    while sim.queue_len() > 0 {
        step(&mut sim, &mut rec, pending.first());
        settle(
            &handles,
            &submitted,
            &mut pending,
            &mut host_latency_us,
            &mut host_done,
        );
    }
    if let (Some(r), Some(id)) = (rec, load_span) {
        r.close(id);
    }

    let mut outcomes = Vec::with_capacity(n);
    let mut sim_latency_s = Vec::new();
    let mut mismatched = 0;
    for (i, h) in handles.iter().enumerate() {
        let result = h.poll().expect("a drained simulator resolves every handle");
        let outcome = h.outcome().expect("resolved");
        match result {
            Ok(JobOutput::Map(m)) => {
                // A warm-up load passes no references.
                let want = setup.refs.get(i % setup.refs.len().max(1));
                if want.is_some_and(|w| !bits_equal(&m, w)) {
                    mismatched += 1;
                }
                sim_latency_s.push(h.latency_s().expect("resolved"));
            }
            Ok(JobOutput::Spectrum(_)) => mismatched += 1,
            // Fault injection may legitimately exhaust the budget.
            Err(ServeError::Kernel(TensorError::FaultBudgetExhausted { .. })) if setup.faults => {}
            Err(ServeError::Kernel(_)) => mismatched += 1,
            Err(_) => {}
        }
        outcomes.push(outcome);
    }
    let completed = outcomes
        .iter()
        .filter(|&&o| o == Outcome::Completed)
        .count();
    Ok(LoadRun {
        rate,
        outcomes,
        sim_latency_s,
        host_latency_us,
        host_done: host_done
            .into_iter()
            .map(|d| d.expect("a drained simulator resolves every handle"))
            .collect(),
        mismatched,
        goodput_rps: completed as f64 / sim.now_s(),
        high_water: sim.high_water(),
        retries: sim.retries(),
        fault: acc.pool().map(|p| p.fault_stats()).unwrap_or_default(),
    })
}

/// The whole ladder of offered rates, in [`LADDER`] order.
///
/// # Errors
///
/// As [`run`].
pub fn ladder(setup: &LoadSetup<'_>) -> Result<Vec<LoadRun>> {
    LADDER.iter().map(|&rate| run(setup, rate, None)).collect()
}

/// Highest sustained rate (as a capacity multiple): the completed
/// share is read off the ladder and linearly interpolated to the
/// [`SUSTAINED_FRAC`] crossing between the last sustained rung and the
/// first one that is not. A ladder that sustains every rung reports
/// its top; one that sustains none extrapolates toward zero along the
/// first rung's shortfall.
pub fn max_sustained_rate(rungs: &[(f64, f64)]) -> f64 {
    let Some(miss) = rungs.iter().position(|&(_, f)| f < SUSTAINED_FRAC) else {
        return rungs.last().map_or(0.0, |&(r, _)| r);
    };
    let (r1, f1) = rungs[miss];
    let (r0, f0) = if miss == 0 {
        (0.0, 1.0)
    } else {
        rungs[miss - 1]
    };
    r0 + (r1 - r0) * (f0 - SUSTAINED_FRAC) / (f0 - f1)
}

/// The rung read for the reference-rate metrics.
pub fn reference_rung(runs: &[LoadRun]) -> &LoadRun {
    runs.iter()
        .find(|r| r.rate == REFERENCE_RATE)
        .expect("the ladder contains the reference rate")
}

/// Median simulated queueing delay (latency minus service), µs,
/// rounded to the picosecond: a request that never queued reads 0, not
/// the rounding left by subtracting two clock readings.
pub fn queue_wait_us(run: &LoadRun, service_s: f64) -> f64 {
    let waits: Vec<f64> = run
        .sim_latency_s
        .iter()
        .map(|l| ((l - service_s) * 1e12).round().max(0.0) / 1e6)
        .collect();
    stats::median(&waits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_zero_runs_at_the_seed_and_later_loads_differ() {
        assert_eq!(load_seed(42, 0), 42);
        let seeds: std::collections::HashSet<u64> = (0..64).map(|l| load_seed(42, l)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn max_rate_interpolates_the_crossing() {
        let rungs = [(0.25, 1.0), (0.5, 1.0), (0.75, 0.97), (1.0, 0.9)];
        // 0.99 lies a third of the way from 1.0 down to 0.97.
        let r = max_sustained_rate(&rungs);
        assert!((r - (0.5 + 0.25 / 3.0)).abs() < 1e-12, "{r}");
        assert_eq!(max_sustained_rate(&[(0.5, 1.0), (1.0, 0.995)]), 1.0);
        let low = max_sustained_rate(&[(0.25, 0.5), (0.5, 0.2)]);
        assert!(low > 0.0 && low < 0.25);
    }
}
