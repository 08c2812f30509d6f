//! Layer-peel probes: the same request sent through successively
//! deeper public entry points, host → unbatched `TpuAccel` →
//! `over_pool(1)` → `over_pool(N)` → server, plus the direct `Fft2d`
//! batch calls. Each layer's self time is the difference between the
//! medians of adjacent stacks.

use crate::clock;
use crate::problem::{bits_equal, block_map, regions, Fleet};
use crate::trace::{self_times_us, Recorder, Span};
use crate::workload::{start_server, Kind, Prepared, Spec};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xai_accel::{Accelerator, TpuAccel};
use xai_core::{block_contributions, interpret_on, occlude, DistilledModel, SolveStrategy};
use xai_fourier::Fft2d;
use xai_serve::{ExplainJob, JobOutput, ShedPolicy, SimServer};
use xai_tensor::{Complex64, Matrix, Result};

/// Rounds run even when the time budget is already spent.
const MIN_ROUNDS: u64 = 3;

/// Stack span names, shallowest first.
pub const FOURIER: &str = "stack.fourier";
/// Host numerics floor (`block_contributions`, or host fit + maps).
pub const CORE: &str = "stack.core";
/// Unbatched single-chip `TpuAccel` (for `interpret-table2`: the op).
pub const ACCEL: &str = "stack.accel";
/// `over_pool(1)`: adds the coalescing queue.
pub const POOL1: &str = "stack.pool1";
/// `over_pool(N)`: adds fan-out planning, shards and gather.
pub const POOLN: &str = "stack.poolN";
/// The workload's server over `over_pool(N)`.
pub const SERVER: &str = "stack.server";
/// `DistilledModel::fit_on` over the unbatched chip.
pub const FIT: &str = "core.fit_on";

/// Counters the probes read from the layers' public accessors.
#[derive(Debug, Default)]
pub struct Peel {
    /// Probe rounds run.
    pub rounds: u64,
    /// `Accelerator::stats()` of one op on a fresh unbatched chip.
    pub kernels_per_op: f64,
    /// Simulated ops charged per op.
    pub sim_ops_per_op: f64,
    /// Simulated bytes charged per op.
    pub sim_bytes_per_op: f64,
    /// Lanes the `Fft2d` probe transforms per op.
    pub fft_lanes: usize,
    /// `DevicePool::sharded_flights` per op on `over_pool(N)`.
    pub sharded_flights_per_op: f64,
    /// `DevicePool::gather_seconds` per op, simulated µs.
    pub gather_sim_us_per_op: f64,
    /// Busiest chip's simulated wall time over the fleet mean.
    pub chip_busy_max_over_mean: f64,
    /// Probe outputs that differed from the reference.
    pub mismatched: u64,
    /// The probe spans.
    pub spans: Vec<Span>,
}

impl Peel {
    /// Median duration of a stack's spans, µs (0 when not on the path).
    pub fn median_us(&self, name: &str) -> f64 {
        crate::stats::median(&self_times_us(&self.spans, name))
    }
}

fn occluded_lanes(x: &Matrix<f64>, grid: usize) -> Result<Vec<Matrix<Complex64>>> {
    regions(x.rows(), grid)
        .into_iter()
        .map(|r| Ok(occlude(x, r)?.to_complex()))
        .collect()
}

/// Accelerator and pool counters of exactly one op on fresh
/// accelerators, so every count and simulated value repeats exactly.
fn count_one_op(spec: &Spec, prep: &Prepared, peel: &mut Peel) -> Result<()> {
    let (x, y) = &prep.problem.pairs[0];
    let unbatched = spec.fleet.unbatched();
    if spec.kind == Kind::Interpret {
        interpret_on(
            &unbatched,
            &prep.problem.pairs,
            spec.grid,
            SolveStrategy::default(),
        )?;
        peel.chip_busy_max_over_mean = 1.0;
    } else {
        block_map(&unbatched, &prep.model, x, y, spec.grid)?;
        let pooled = spec.fleet.pooled(spec.fleet.devices);
        block_map(&*pooled, &prep.model, x, y, spec.grid)?;
        let pool = pooled.pool().expect("over_pool carries a pool");
        peel.sharded_flights_per_op = pool.sharded_flights() as f64;
        peel.gather_sim_us_per_op = pool.gather_seconds() * 1e6;
        let busy: Vec<f64> = pool.devices().iter().map(|d| d.wall_seconds()).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        peel.chip_busy_max_over_mean = busy.iter().copied().fold(0.0, f64::max) / mean;
    }
    let stats = unbatched.stats();
    peel.kernels_per_op = stats.kernels as f64;
    peel.sim_ops_per_op = stats.ops;
    peel.sim_bytes_per_op = stats.bytes;
    Ok(())
}

/// Runs the probes for about `seconds` (at least [`MIN_ROUNDS`]).
///
/// # Errors
///
/// Kernel errors.
pub fn run(
    spec: &Spec,
    prep: &Prepared,
    refs: &[Matrix<f64>],
    interp_kernel: Option<&Matrix<f64>>,
    seconds: f64,
    origin: Instant,
) -> Result<Peel> {
    let fleet: Fleet = spec.fleet;
    let model: &DistilledModel = &prep.model;
    let pairs = &prep.problem.pairs;
    let plan = Fft2d::new(spec.size, spec.size);
    let fit_acc = fleet.unbatched();
    let unbatched = fleet.unbatched();
    let end = clock::now() + Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new(origin, 0);
    let mut peel = Peel::default();
    count_one_op(spec, prep, &mut peel)?;

    if spec.kind == Kind::Interpret {
        let want = interp_kernel.expect("interpret-table2 has a reference kernel");
        let lanes: Vec<Matrix<Complex64>> = pairs
            .iter()
            .map(|(x, _)| occluded_lanes(x, spec.grid))
            .collect::<Result<Vec<_>>>()?
            .concat();
        peel.fft_lanes = lanes.len();
        while peel.rounds < MIN_ROUNDS || clock::now() < end {
            let i = peel.rounds;
            let round = rec.open("peel.round", None, i);
            rec.time(FOURIER, Some(round), i, || {
                plan.inverse_batch(&plan.forward_batch(&lanes)?)
            })?;
            rec.time(CORE, Some(round), i, || -> Result<()> {
                let host = DistilledModel::fit(pairs, SolveStrategy::default())?;
                for (x, y) in pairs {
                    block_contributions(&host, x, y, spec.grid)?;
                }
                Ok(())
            })?;
            let (fitted, _) = rec.time(ACCEL, Some(round), i, || {
                interpret_on(&unbatched, pairs, spec.grid, SolveStrategy::default())
            })?;
            peel.mismatched += u64::from(!bits_equal(fitted.kernel(), want));
            rec.time(FIT, Some(round), i, || {
                DistilledModel::fit_on(&fit_acc, pairs, SolveStrategy::default())
            })?;
            rec.close(round);
            peel.rounds += 1;
        }
    } else {
        let lanes: Vec<Vec<Matrix<Complex64>>> = pairs
            .iter()
            .map(|(x, _)| occluded_lanes(x, spec.grid))
            .collect::<Result<_>>()?;
        peel.fft_lanes = spec.grid * spec.grid;
        let pool1 = fleet.pooled(1);
        let pool_n = fleet.pooled(fleet.devices);
        let server = (spec.kind == Kind::Serve).then(|| start_server(&fleet.serving(), model));
        let sim_acc: Arc<dyn Accelerator> = fleet.pooled(fleet.devices);
        let mut sim = SimServer::new(sim_acc, model.clone(), 1, ShedPolicy::RejectNewest);
        let mismatch = |out: Result<Matrix<f64>>, j: usize| -> Result<u64> {
            Ok(u64::from(!bits_equal(&out?, &refs[j])))
        };
        while peel.rounds < MIN_ROUNDS || clock::now() < end {
            let i = peel.rounds;
            let j = i as usize % pairs.len();
            let (x, y) = &pairs[j];
            let round = rec.open("peel.round", None, i);
            rec.time(FOURIER, Some(round), i, || {
                plan.inverse_batch(&plan.forward_batch(&lanes[j])?)
            })?;
            rec.time(CORE, Some(round), i, || {
                block_contributions(model, x, y, spec.grid)
            })?;
            let stacks: [(&'static str, &TpuAccel); 3] =
                [(ACCEL, &unbatched), (POOL1, &pool1), (POOLN, &pool_n)];
            for (name, acc) in stacks {
                let out = rec.time(name, Some(round), i, || {
                    block_map(acc, model, x, y, spec.grid)
                });
                peel.mismatched += mismatch(out, j)?;
            }
            let job = ExplainJob::Contributions {
                x: x.clone(),
                y: y.clone(),
                grid: spec.grid,
            };
            let served = rec.time(SERVER, Some(round), i, || match &server {
                Some(s) => s.submit(job, 3600.0).wait(),
                None => {
                    let h = sim.submit_at(sim.now_s(), job, f64::INFINITY);
                    sim.step();
                    h.wait()
                }
            });
            peel.mismatched += match served {
                Ok(JobOutput::Map(m)) => u64::from(!bits_equal(&m, &refs[j])),
                _ => 1,
            };
            rec.time(FIT, Some(round), i, || {
                DistilledModel::fit_on(&fit_acc, prep.problem.fit_pairs(), SolveStrategy::default())
            })?;
            rec.close(round);
            peel.rounds += 1;
        }
        if let Some(s) = server {
            s.shutdown(xai_serve::DrainMode::Drain);
        }
    }
    peel.spans = rec.into_spans();
    Ok(peel)
}
