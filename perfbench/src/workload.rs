//! The four workloads: their fleets and request shapes, their timed
//! set-up, and their measured loops.

use crate::clock;
use crate::problem::{bits_equal, Chip, Fleet, Problem};
use crate::report;
use crate::sim::{self, LoadSetup};
use crate::trace::{Recorder, Span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xai_accel::{Accelerator, TpuAccel};
use xai_core::{interpret_on, DistilledModel, SolveStrategy};
use xai_serve::{
    DrainMode, ExplainJob, ExplainServer, JobOutput, Outcome, ServeConfig, ShedPolicy,
};
use xai_tensor::{Matrix, Result};

/// How a workload offers its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop of clients over the threaded `ExplainServer`.
    Serve,
    /// Open loop in virtual time over `SimServer`.
    Overload,
    /// Closed loop of one caller running `interpret_on` directly.
    Interpret,
}

/// One workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Loop shape.
    pub kind: Kind,
    /// The fleet serving it.
    pub fleet: Fleet,
    /// Side of the square inputs.
    pub size: usize,
    /// Occlusion grid (`grid²` fused lanes per request).
    pub grid: usize,
    /// Closed-loop clients (one request outstanding each).
    pub clients: usize,
    /// Distinct seeded requests (pairs).
    pub distinct: usize,
    /// Whether loads carry the fault plan.
    pub faults: bool,
    /// Requests per simulated open-loop load: the overload workload's
    /// unit of work and every rung of the simulated ladder. `None` for
    /// the closed-loop workloads with one caller, whose simulated
    /// serving metrics follow from the service time alone.
    pub load_requests: Option<usize>,
    /// The percentile `latency_tail_us` reports: fixed per workload,
    /// the highest with at least ten samples beyond it per segment at
    /// the workload's op count, so it never depends on host speed.
    pub tail_percentile: f64,
    /// Ops after which `peak_rss_mib` is read: the simulated chips keep
    /// a per-kernel trace, so memory grows with ops served and is
    /// compared at a fixed amount of work, not a fixed time.
    pub rss_probe_ops: u64,
    /// Warm-up ops at the end of each set-up (requests of one warm-up
    /// load for the overload workload; `interpret-table2` always runs one).
    pub warmup: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "serve-small-fleet16",
        kind: Kind::Serve,
        fleet: Fleet {
            chip: Chip::SmallTest,
            devices: 16,
            torus: Some(4),
        },
        size: 8,
        grid: 2,
        clients: 2,
        distinct: 64,
        faults: false,
        load_requests: Some(4096),
        tail_percentile: 99.0,
        rss_probe_ops: 20000,
        warmup: 64,
    },
    Spec {
        name: "serve-large-pool2",
        kind: Kind::Serve,
        fleet: Fleet {
            chip: Chip::SmallTest,
            devices: 2,
            torus: None,
        },
        size: 64,
        grid: 4,
        clients: 1,
        distinct: 32,
        faults: false,
        load_requests: None,
        tail_percentile: 99.0,
        rss_probe_ops: 600,
        warmup: 8,
    },
    Spec {
        name: "overload-faults-sim",
        kind: Kind::Overload,
        fleet: Fleet {
            chip: Chip::SmallTest,
            devices: 16,
            torus: Some(4),
        },
        size: 16,
        grid: 4,
        clients: 0,
        distinct: 64,
        faults: true,
        load_requests: Some(2048),
        tail_percentile: 99.0,
        rss_probe_ops: 4096,
        warmup: 64,
    },
    Spec {
        name: "interpret-table2",
        kind: Kind::Interpret,
        fleet: Fleet {
            chip: Chip::TpuV2,
            devices: 1,
            torus: None,
        },
        size: 128,
        grid: 4,
        clients: 1,
        distinct: 4,
        faults: false,
        load_requests: None,
        tail_percentile: 90.0,
        rss_probe_ops: 20,
        warmup: 1,
    },
];

/// Relative deadline of closed-loop requests: never binding.
const CLOSED_DEADLINE_S: f64 = 3600.0;

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// The threaded server of the serving workloads, over `acc`.
pub fn start_server(acc: &Arc<TpuAccel>, model: &DistilledModel) -> ExplainServer {
    ExplainServer::new(
        Arc::<TpuAccel>::clone(acc) as Arc<dyn Accelerator>,
        model.clone(),
        ServeConfig {
            capacity: 64,
            policy: ShedPolicy::RejectNewest,
            workers: 2,
            retry_budget: 0,
        },
    )
}

/// What a workload keeps from its set-up.
pub struct Prepared {
    /// The seeded problem.
    pub problem: Problem,
    /// The served model (for `interpret-table2`, the reference fit).
    pub model: DistilledModel,
    /// One job per pair.
    pub jobs: Vec<ExplainJob>,
    /// The serving stack (serving workloads only).
    pub server: Option<ExplainServer>,
    /// The accelerator the server serves on, or `interpret-table2`
    /// ops run on.
    pub acc: Option<Arc<TpuAccel>>,
    /// Simulated device time of one op on the healthy fleet.
    pub service_s: f64,
}

impl Prepared {
    /// Stops the server, if any, serving what is queued.
    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(DrainMode::Drain);
        }
    }
}

/// Builds the jobs of a problem.
pub fn jobs(problem: &Problem, grid: usize) -> Vec<ExplainJob> {
    problem
        .pairs
        .iter()
        .map(|(x, y)| ExplainJob::Contributions {
            x: x.clone(),
            y: y.clone(),
            grid,
        })
        .collect()
}

/// One timed set-up: synthetic problem, distillation, pool and server
/// construction, calibration and warm-up ops.
///
/// # Errors
///
/// Construction and kernel errors.
pub fn prepare(spec: &Spec, seed: u64) -> Result<Prepared> {
    let problem = Problem::generate(seed, spec.size, spec.distinct)?;
    let jobs = jobs(&problem, spec.grid);
    match spec.kind {
        Kind::Serve => {
            let model = problem.fit()?;
            let acc = spec.fleet.serving();
            let server = start_server(&acc, &model);
            for job in jobs.iter().cycle().take(spec.warmup) {
                let _ = server.submit(job.clone(), CLOSED_DEADLINE_S).wait();
            }
            let service_s = sim::calibrate(&spec.fleet, &model, &jobs[0])?;
            Ok(Prepared {
                problem,
                model,
                jobs,
                server: Some(server),
                acc: Some(acc),
                service_s,
            })
        }
        Kind::Overload => {
            let model = problem.fit()?;
            let service_s = sim::calibrate(&spec.fleet, &model, &jobs[0])?;
            // A healthy warm-up: with the fault plan, the few faults of
            // a short load would make set-up time depend on the seed.
            let warm = LoadSetup {
                fleet: spec.fleet,
                model: &model,
                jobs: &jobs,
                refs: &[],
                requests: spec.warmup,
                seed,
                faults: false,
                service_s,
            };
            sim::run(&warm, sim::REFERENCE_RATE, None)?;
            Ok(Prepared {
                problem,
                model,
                jobs,
                server: None,
                acc: None,
                service_s,
            })
        }
        Kind::Interpret => {
            let acc = Arc::new(spec.fleet.unbatched());
            // The warm-up op, on a fresh chip: its fit is the model the
            // layer peel serves and its report the simulated op time.
            let (model, report) =
                interpret_on(&*acc, &problem.pairs, spec.grid, SolveStrategy::default())?;
            Ok(Prepared {
                problem,
                model,
                jobs,
                server: None,
                acc: Some(acc),
                service_s: report.total_s(),
            })
        }
    }
}

/// Host-side results of a measured loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per-op host latency, µs.
    pub latency_us: Vec<f64>,
    /// Per-op completion time, seconds since the loop started.
    pub done_s: Vec<f64>,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that completed OK with the expected output.
    pub ok: u64,
    /// Ops whose output differed from the reference or errored
    /// unexpectedly.
    pub mismatched: u64,
    /// Seconds from loop start to the last resolution (reference
    /// seconds once scaled).
    pub elapsed_s: f64,
    /// Host seconds from loop start to the last resolution, never
    /// scaled.
    pub wall_s: f64,
    /// `VmHWM` once [`Spec::rss_probe_ops`] ops completed (or at the
    /// end of a loop that completed fewer), MiB.
    pub rss_mib: f64,
    /// Ops completed when `rss_mib` was read.
    pub rss_ops: u64,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// Checks that failed outside per-op outputs.
    pub broken: Vec<String>,
    /// Outcomes of the overload loop's load 0, which runs at the seed
    /// itself: the ladder's 1.0× rung must repeat them exactly.
    pub first_outcomes: Vec<Outcome>,
}

impl LoopStats {
    /// Ops resolved per host second over the whole loop, unscaled.
    pub fn wall_throughput(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn finish(&mut self, start: Instant, last: Instant) {
        self.elapsed_s = last.duration_since(start).as_secs_f64();
        self.wall_s = self.elapsed_s;
    }

    /// Turns this stretch's host seconds into reference seconds
    /// (see [`crate::speed`]): latencies, completion times and elapsed
    /// time are multiplied by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in self.latency_us.iter_mut().chain(&mut self.done_s) {
            *v *= factor;
        }
        self.elapsed_s *= factor;
    }

    /// Reads `VmHWM` now, `ops_before` ops having completed before
    /// this stretch of the loop.
    pub fn read_rss(&mut self, ops_before: u64) {
        self.rss_mib = report::status_mib("VmHWM:");
        self.rss_ops = ops_before + self.ops;
    }

    /// Appends the stats of a later stretch of the same loop: its
    /// completion times continue where this one's elapsed time ends,
    /// so pauses between stretches are not counted.
    pub fn append(&mut self, mut next: LoopStats) {
        let offset = self.elapsed_s;
        self.done_s.extend(next.done_s.iter().map(|d| d + offset));
        self.latency_us.append(&mut next.latency_us);
        self.ops += next.ops;
        self.ok += next.ok;
        self.mismatched += next.mismatched;
        self.elapsed_s += next.elapsed_s;
        self.wall_s += next.wall_s;
        if self.rss_mib == 0.0 {
            (self.rss_mib, self.rss_ops) = (next.rss_mib, next.rss_ops);
        }
        self.spans.append(&mut next.spans);
        self.broken.append(&mut next.broken);
        if self.first_outcomes.is_empty() {
            self.first_outcomes = next.first_outcomes;
        }
    }
}

/// The expected result of one `interpret-table2` op.
pub struct InterpretRef {
    /// Fitted kernel of the reference op.
    pub kernel: Matrix<f64>,
    /// Simulated seconds of the reference op.
    pub sim_s: f64,
}

fn since(start: Instant, t: Instant) -> f64 {
    t.duration_since(start).as_secs_f64()
}

fn micros(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_nanos() as f64 / 1e3
}

/// Runs one stretch of the workload's measured loop. `rss_mib` stays
/// 0 unless the loop passed [`Spec::rss_probe_ops`].
///
/// # Errors
///
/// Kernel errors that end the loop (not per-op mismatches).
pub fn measure(
    spec: &Spec,
    prep: &Prepared,
    refs: &[Matrix<f64>],
    interp: Option<&InterpretRef>,
    seed: u64,
    span: &Stretch,
) -> Result<LoopStats> {
    match spec.kind {
        Kind::Serve => Ok(serve_loop(spec, prep, refs, span)),
        Kind::Overload => overload_loop(spec, prep, refs, seed, span),
        Kind::Interpret => interpret_loop(
            spec,
            prep,
            interp.expect("interpret-table2 has a reference"),
            span,
        ),
    }
}

/// When a stretch of a measured loop runs, and what came before it.
pub struct Stretch {
    start: Instant,
    end: Instant,
    ops_before: u64,
    origin: Option<Instant>,
}

impl Stretch {
    /// A stretch of `seconds` from now, after `ops_before` ops of
    /// earlier stretches of the same loop; traced when `origin` (the
    /// span clock's zero) is given.
    pub fn starting_now(seconds: f64, ops_before: u64, origin: Option<Instant>) -> Self {
        let start = clock::now();
        Stretch {
            start,
            end: start + Duration::from_secs_f64(seconds),
            ops_before,
            origin,
        }
    }
}

fn serve_loop(spec: &Spec, prep: &Prepared, refs: &[Matrix<f64>], span: &Stretch) -> LoopStats {
    let (start, end, origin) = (span.start, span.end, span.origin);
    let server = prep
        .server
        .as_ref()
        .expect("serving workloads run a server");
    // Request numbers continue across stretches.
    let next = AtomicU64::new(span.ops_before);
    let rss_bits = AtomicU64::new(0);
    let per_client = clock::on_threads(spec.clients, |client| {
        let mut rec = origin.map(|o| Recorder::new(o, client as u64 + 1));
        let mut stats = LoopStats::default();
        let mut last = start;
        while clock::now() < end {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let idx = i as usize % prep.jobs.len();
            let job = prep.jobs[idx].clone();
            let t0 = clock::now();
            let out = match rec.as_mut() {
                Some(r) => {
                    let op = r.open("serve.op", None, i);
                    let h = r.time("serve.submit", Some(op), i, || {
                        server.submit(job, CLOSED_DEADLINE_S)
                    });
                    let out = r.time("serve.wait", Some(op), i, || h.wait());
                    r.close(op);
                    out
                }
                None => server.submit(job, CLOSED_DEADLINE_S).wait(),
            };
            last = clock::now();
            stats.latency_us.push(micros(t0, last));
            stats.done_s.push(since(start, last));
            match out {
                Ok(JobOutput::Map(m)) if bits_equal(&m, &refs[idx]) => stats.ok += 1,
                _ => stats.mismatched += 1,
            }
            if i + 1 == spec.rss_probe_ops {
                rss_bits.store(report::status_mib("VmHWM:").to_bits(), Ordering::Relaxed);
            }
        }
        stats.spans = rec.map(Recorder::into_spans).unwrap_or_default();
        (stats, last)
    });
    let mut stats = LoopStats::default();
    let mut last = start;
    for (c, l) in per_client {
        stats.ops += c.latency_us.len() as u64;
        stats.latency_us.extend(c.latency_us);
        stats.done_s.extend(c.done_s);
        stats.ok += c.ok;
        stats.mismatched += c.mismatched;
        stats.spans.extend(c.spans);
        last = last.max(l);
    }
    stats.rss_mib = f64::from_bits(rss_bits.load(Ordering::Relaxed));
    stats.rss_ops = spec.rss_probe_ops;
    stats.finish(start, last);
    stats
}

fn overload_loop(
    spec: &Spec,
    prep: &Prepared,
    refs: &[Matrix<f64>],
    seed: u64,
    span: &Stretch,
) -> Result<LoopStats> {
    let (start, end, origin) = (span.start, span.end, span.origin);
    let requests = spec
        .load_requests
        .expect("the overload workload is an open-loop load");
    let mut rec = origin.map(|o| Recorder::new(o, 1));
    let mut stats = LoopStats::default();
    let mut last = start;
    // Load numbers continue across stretches.
    let mut load = span.ops_before / requests as u64;
    while last < end {
        let setup = LoadSetup {
            fleet: spec.fleet,
            model: &prep.model,
            jobs: &prep.jobs,
            refs,
            requests,
            seed: sim::load_seed(seed, load),
            faults: spec.faults,
            service_s: prep.service_s,
        };
        let run = sim::run(&setup, sim::REFERENCE_RATE, rec.as_mut())?;
        last = clock::now();
        stats.ops += run.outcomes.len() as u64;
        stats.ok += (run.count(Outcome::Completed) as u64).saturating_sub(run.mismatched);
        stats.mismatched += run.mismatched;
        stats.latency_us.extend(&run.host_latency_us);
        stats
            .done_s
            .extend(run.host_done.iter().map(|&t| since(start, t)));
        if stats.rss_mib == 0.0 && span.ops_before + stats.ops >= spec.rss_probe_ops {
            stats.read_rss(span.ops_before);
        }
        if load == 0 {
            stats.first_outcomes = run.outcomes;
        }
        load += 1;
    }
    stats.spans = rec.map(Recorder::into_spans).unwrap_or_default();
    stats.finish(start, last);
    Ok(stats)
}

fn interpret_loop(
    spec: &Spec,
    prep: &Prepared,
    want: &InterpretRef,
    span: &Stretch,
) -> Result<LoopStats> {
    let (start, end, origin) = (span.start, span.end, span.origin);
    let mut rec = origin.map(|o| Recorder::new(o, 1));
    let mut stats = LoopStats::default();
    let mut last = start;
    let acc = prep.acc.as_ref().expect("interpret-table2 keeps its chip");
    let pairs = &prep.problem.pairs;
    // A reset chip per op: the simulated time then starts from zero,
    // so the report repeats exactly.
    let one = || {
        acc.reset();
        let (model, report) = interpret_on(&**acc, pairs, spec.grid, SolveStrategy::default())?;
        Ok::<_, xai_tensor::TensorError>((model, report.total_s()))
    };
    while last < end {
        let i = stats.ops;
        let t0 = clock::now();
        let out = match rec.as_mut() {
            Some(r) => r.time("core.interpret_on", None, i, one),
            None => one(),
        };
        last = clock::now();
        stats.ops += 1;
        stats.latency_us.push(micros(t0, last));
        stats.done_s.push(since(start, last));
        match out {
            Ok((model, sim_s))
                if bits_equal(model.kernel(), &want.kernel)
                    && sim_s.to_bits() == want.sim_s.to_bits() =>
            {
                stats.ok += 1;
            }
            _ => stats.mismatched += 1,
        }
        if span.ops_before + stats.ops == spec.rss_probe_ops {
            stats.read_rss(span.ops_before);
        }
    }
    stats.spans = rec.map(Recorder::into_spans).unwrap_or_default();
    stats.finish(start, last);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appended_stretches_continue_the_clock() {
        let stretch = |done: &[f64], elapsed_s: f64| LoopStats {
            latency_us: vec![1.0; done.len()],
            done_s: done.to_vec(),
            ops: done.len() as u64,
            ok: done.len() as u64,
            elapsed_s,
            ..LoopStats::default()
        };
        let mut a = stretch(&[0.5, 1.0], 1.0);
        let mut b = stretch(&[0.25, 2.0], 2.0);
        b.rss_mib = 7.0;
        b.rss_ops = 3;
        a.append(b);
        assert_eq!(a.done_s, [0.5, 1.0, 1.25, 3.0]);
        // Scaling a stretch scales its times but not its wall seconds.
        let mut d = stretch(&[1.0, 2.0], 2.0);
        d.wall_s = 2.0;
        d.scale(0.5);
        assert_eq!(
            (d.done_s.as_slice(), d.latency_us.as_slice()),
            (&[0.5, 1.0][..], &[0.5, 0.5][..])
        );
        assert_eq!((d.elapsed_s, d.wall_s), (1.0, 2.0));
        assert_eq!((a.ops, a.ok, a.elapsed_s), (4, 4, 3.0));
        assert_eq!((a.rss_mib, a.rss_ops), (7.0, 3));
        // Load 0's outcomes are kept from whichever stretch ran it.
        let mut c = LoopStats::default();
        c.append(LoopStats {
            first_outcomes: vec![Outcome::Shed],
            ..LoopStats::default()
        });
        c.append(LoopStats::default());
        assert_eq!(c.first_outcomes, [Outcome::Shed]);
    }
}
