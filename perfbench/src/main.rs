//! `perfbench`: one command that runs a named workload of the
//! explanation-serving stack at a given seed, checks every output
//! bit for bit, and prints its metrics by name and unit. See
//! `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--no-faults] [--corrupt-reference]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced loop and the layer-peel probes and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! exit code is nonzero when any output or check failed. End-to-end
//! host times are scaled to a reference host speed (see `speed`).

mod clock;
mod peel;
mod problem;
mod report;
mod sim;
mod speed;
mod stats;
mod trace;
mod workload;

use problem::{corrupt, references};
use report::{Metric, Verdict};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{InterpretRef, Kind, LoopStats, Prepared, Spec};
use xai_core::{interpret_on, SolveStrategy};
use xai_serve::Outcome;
use xai_tpu::FaultStats;

/// Timed set-ups per burst: at least `SETUP_MIN_REPS`, more while they
/// add up to under `SETUP_BURST_S` (up to `SETUP_MAX_REPS`).
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BURST_S: f64 = 0.25;

/// Equal chunks the untraced measured loop runs in. A set-up burst
/// precedes the first chunk (it builds the stack the run measures),
/// one runs between each two chunks and one after the run; `setup_s`
/// is the median of all their set-ups. The host's speed drifts over
/// seconds, so set-ups timed at one moment would read that moment's
/// speed; spread over the run they average it, as throughput does.
const LOOP_CHUNKS: usize = 4;

/// Host seconds of one stretch of the untraced loop. Each stretch and
/// each set-up burst runs between two passes of the reference loop,
/// which scale its times to reference seconds (see `speed`); short
/// stretches follow the host's changes of speed closely.
const STRETCH_S: f64 = 0.1;

/// Shares of `--seconds` a traced run gives its untraced loop, its
/// traced loop and the layer-peel probes.
const TRACE_SPLIT: [f64; 3] = [0.35, 0.35, 0.30];

/// Largest kernel-recovery error `interpret-table2` accepts.
const RECOVERY_TOLERANCE: f64 = 1e-6;

const USAGE: &str = "usage: perfbench --workload <serve-small-fleet16|serve-large-pool2|\
overload-faults-sim|interpret-table2> --seed <n> --seconds <s> --trace <0|1> \
[--no-faults] [--corrupt-reference]";

#[derive(Debug)]
struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut no_faults, mut corrupt_reference) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                spec = Some(workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--no-faults" => no_faults = true,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mut spec = spec.ok_or("--workload is required")?;
    spec.faults &= !no_faults;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_reference,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let title = format!(
                "{} seed {} ({} metrics)",
                args.spec.name,
                args.seed,
                if args.trace {
                    "per-layer"
                } else {
                    "end-to-end"
                }
            );
            print!("{}", report::table(&title, &out.metrics));
            for b in &out.broken {
                println!("CHECK FAILED: {b}");
            }
            println!("{}", report::json_line(&out));
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything measured before the metrics are assembled.
struct Measured {
    setups: Vec<Vec<f64>>,
    prep: Prepared,
    main: LoopStats,
    /// The open-loop ladder, on workloads with one.
    ladder: Vec<sim::LoadRun>,
    serving: Counters,
}

/// The serving and fault counters of the per-layer table: read at the
/// ladder's reference rung on open-loop workloads, and from the
/// measured loop and its pool on the closed-loop ones.
#[derive(Debug, Default)]
struct Counters {
    completed: u64,
    failed: u64,
    shed: u64,
    retries: u64,
    high_water: usize,
    queue_wait_us: f64,
    fault: FaultStats,
}

/// Times one burst of set-ups into `setups`, in reference seconds,
/// and keeps the last.
fn setup_burst(spec: &Spec, seed: u64, setups: &mut Vec<Vec<f64>>) -> xai_tensor::Result<Prepared> {
    let before = speed::pass_s();
    let mut burst: Vec<f64> = Vec::new();
    let mut prep: Option<Prepared> = None;
    while burst.len() < SETUP_MIN_REPS
        || (burst.len() < SETUP_MAX_REPS && burst.iter().sum::<f64>() < SETUP_BURST_S)
    {
        if let Some(mut old) = prep.take() {
            old.shutdown();
        }
        let t0 = clock::now();
        prep = Some(workload::prepare(spec, seed)?);
        burst.push(t0.elapsed().as_secs_f64());
    }
    let factor = speed::factor(before, speed::pass_s());
    setups.push(burst.iter().map(|s| s * factor).collect());
    Ok(prep.expect("at least one set-up"))
}

fn run(args: &Args) -> Result<Verdict, Box<dyn std::error::Error>> {
    let spec = &args.spec;
    let mut out = Verdict::default();

    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut prep = setup_burst(spec, args.seed, &mut setups)?;

    // The reference, outside the timed set-up.
    let mut refs = references(&spec.fleet, &prep.model, &prep.problem, spec.grid)?;
    let mut interp = None;
    if spec.kind == Kind::Interpret {
        let acc = spec.fleet.unbatched();
        let (model, report) = interpret_on(
            &acc,
            &prep.problem.pairs,
            spec.grid,
            SolveStrategy::default(),
        )?;
        let err = model.kernel().max_abs_diff(&prep.problem.kernel)?;
        out.check(
            err < RECOVERY_TOLERANCE,
            format!("fitted kernel misses the generating kernel by {err:e}"),
        );
        out.check(
            report.total_s().to_bits() == prep.service_s.to_bits(),
            "the set-up op and the reference op charge different simulated times",
        );
        interp = Some(InterpretRef {
            kernel: model.kernel().clone(),
            sim_s: report.total_s(),
        });
    }
    if args.corrupt_reference {
        corrupt(&mut refs[0]);
        if let Some(i) = interp.as_mut() {
            corrupt(&mut i.kernel);
        }
    }

    let measure = |secs: f64, ops_before: u64, origin: Option<Instant>| {
        workload::measure(
            spec,
            &prep,
            &refs,
            interp.as_ref(),
            args.seed,
            &workload::Stretch::starting_now(secs, ops_before, origin),
        )
    };
    // `secs` host seconds of stretches, each scaled by the reference
    // passes around it, with a set-up burst after each chunk but the last.
    let untraced = |secs: f64, setups: &mut Vec<Vec<f64>>| {
        let mut stats = LoopStats::default();
        let mut chunks = 1;
        let mut before = speed::pass_s();
        while stats.wall_s < secs {
            let mut next = measure(STRETCH_S.min(secs - stats.wall_s), stats.ops, None)?;
            let after = speed::pass_s();
            next.scale(speed::factor(before, after));
            stats.append(next);
            before = after;
            if chunks < LOOP_CHUNKS && stats.wall_s >= secs * chunks as f64 / LOOP_CHUNKS as f64 {
                setup_burst(spec, args.seed, setups)?.shutdown();
                chunks += 1;
                before = speed::pass_s();
            }
        }
        if stats.rss_mib == 0.0 {
            stats.read_rss(0);
        }
        Ok::<_, xai_tensor::TensorError>(stats)
    };
    let (main, traced, peel, spans_path) = if args.trace {
        let untraced = untraced(args.seconds * TRACE_SPLIT[0], &mut setups)?;
        let origin = clock::now();
        let traced = measure(args.seconds * TRACE_SPLIT[1], 0, Some(origin))?;
        let peel = peel::run(
            spec,
            &prep,
            &refs,
            interp.as_ref().map(|i| &i.kernel),
            args.seconds * TRACE_SPLIT[2],
            origin,
        )?;
        let path = PathBuf::from(".bench_out").join(format!("spans-{}.jsonl", spec.name));
        let mut spans = traced.spans.clone();
        spans.extend_from_slice(&peel.spans);
        trace::write_jsonl(&path, &spans)?;
        (untraced, Some(traced), Some(peel), Some(path))
    } else {
        (untraced(args.seconds, &mut setups)?, None, None, None)
    };

    let ladder = match spec.load_requests {
        Some(requests) => sim::ladder(&sim::LoadSetup {
            fleet: spec.fleet,
            model: &prep.model,
            jobs: &prep.jobs,
            refs: &refs,
            requests,
            seed: args.seed,
            faults: spec.faults,
            service_s: prep.service_s,
        })?,
        None => Vec::new(),
    };
    let ladder_bad: u64 = ladder.iter().map(|r| r.mismatched).sum();
    out.check(
        ladder_bad == 0,
        format!("{ladder_bad} simulated-ladder maps differ from the reference"),
    );
    if spec.kind == Kind::Overload {
        out.check(
            sim::reference_rung(&ladder).outcomes == main.first_outcomes,
            "the ladder's reference rung differs from the measured loads",
        );
    }
    let serving = match ladder.is_empty() {
        false => {
            let r = sim::reference_rung(&ladder);
            Counters {
                completed: r.count(Outcome::Completed) as u64,
                failed: r.count(Outcome::Failed) as u64,
                shed: r.count(Outcome::Shed) as u64,
                retries: r.retries,
                high_water: r.high_water,
                queue_wait_us: sim::queue_wait_us(r, prep.service_s),
                fault: r.fault,
            }
        }
        true => Counters {
            completed: main.ok,
            failed: main.mismatched,
            high_water: prep.server.as_ref().map_or(0, |s| s.high_water()),
            fault: prep
                .acc
                .as_ref()
                .and_then(|a| a.pool())
                .map(|p| p.fault_stats())
                .unwrap_or_default(),
            ..Counters::default()
        },
    };
    prep.shutdown();
    setup_burst(spec, args.seed, &mut setups)?.shutdown();

    for l in std::iter::once(&main).chain(traced.as_ref()) {
        out.attempted += l.ops;
        out.failed += l.mismatched;
        out.broken.extend(l.broken.iter().cloned());
    }
    if let Some(p) = &peel {
        out.failed += p.mismatched;
    }
    let m = Measured {
        setups,
        prep,
        main,
        ladder,
        serving,
    };
    out.metrics = match (traced, peel) {
        (Some(traced), Some(peel)) => {
            let path = spans_path.expect("traced runs write spans");
            println!(
                "spans: {} ({} spans)",
                path.display(),
                traced.spans.len() + peel.spans.len()
            );
            per_layer(spec, &m, &traced, &peel)
        }
        _ => end_to_end(spec, &m),
    };
    let non_finite: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    out.check(
        non_finite.is_empty(),
        format!("non-finite metrics: {non_finite:?}"),
    );
    Ok(out)
}

fn end_to_end(spec: &Spec, m: &Measured) -> Vec<Metric> {
    let lat = stats::sorted(&m.main.latency_us);
    let throughput = m.main.ops as f64 / m.main.elapsed_s;
    let tail = stats::segment_tail(&m.main.done_s, &m.main.latency_us, spec.tail_percentile);
    let setups = m.setups.concat();
    let service_s = m.prep.service_s;
    let capacity_rps = 1.0 / service_s;
    // Open-loop workloads read the simulated serving metrics off their
    // ladder. One closed-loop caller never queues: it completes every
    // request in one service time, at the full capacity.
    let (goodput, p99_s, max_rate, source) = match m.ladder.is_empty() {
        false => {
            let reference = sim::reference_rung(&m.ladder);
            let rungs: Vec<(f64, f64)> = m
                .ladder
                .iter()
                .map(|r| (r.rate, r.completed_frac()))
                .collect();
            let shares: Vec<String> = rungs
                .iter()
                .map(|(r, f)| format!("{f:.3} at {r}x"))
                .collect();
            (
                reference.goodput_rps / capacity_rps,
                stats::percentile(&stats::sorted(&reference.sim_latency_s), 99.0),
                sim::max_sustained_rate(&rungs) * capacity_rps,
                format!(
                    "{} Poisson arrivals at 1x capacity; completed {}",
                    reference.outcomes.len(),
                    shares.join(", ")
                ),
            )
        }
        true => (
            1.0,
            service_s,
            capacity_rps,
            "one closed-loop caller, from the service time".to_string(),
        ),
    };
    vec![
        Metric::new("throughput_ops_s", throughput, "ops/s").with_note(format!(
            "{} ops in {:.3} reference s ({:.1} ops/s unscaled)",
            m.main.ops,
            m.main.elapsed_s,
            m.main.wall_throughput()
        )),
        Metric::new("latency_p50_us", stats::percentile(&lat, 50.0), "us")
            .with_note(format!("{} samples", lat.len())),
        Metric::new("latency_tail_us", tail.value, "us").with_note(format!(
            "p{} per segment of {} ops ({} beyond), median of {}",
            spec.tail_percentile, tail.per_segment, tail.beyond, tail.segments
        )),
        Metric::new("setup_s", stats::median(&setups), "s").with_note(format!(
            "median of {} set-ups in {} bursts, reference s",
            setups.len(),
            m.setups.len()
        )),
        Metric::new("peak_rss_mib", m.main.rss_mib, "MiB")
            .with_note(format!("VmHWM after {} ops", m.main.rss_ops)),
        Metric::new(
            "ok_frac",
            m.main.ok as f64 / m.main.ops.max(1) as f64,
            "ratio",
        )
        .with_note(format!("{} of {} ops completed OK", m.main.ok, m.main.ops)),
        Metric::new("sim_service_us", service_s * 1e6, "sim_us")
            .with_note("simulated device time per op".into()),
        Metric::new("sim_goodput_frac", goodput, "ratio").with_note(format!("simulated, {source}")),
        Metric::new("sim_latency_p99_us", p99_s * 1e6, "sim_us")
            .with_note("simulated, at 1x capacity".into()),
        Metric::new("sim_max_rate_rps", max_rate, "req/sim_s")
            .with_note(format!("simulated, of {capacity_rps:.1} req/sim_s")),
    ]
}

fn per_layer(spec: &Spec, m: &Measured, traced: &LoopStats, peel: &peel::Peel) -> Vec<Metric> {
    let on_pool = spec.kind != Kind::Interpret;
    let gap = |deep: &str, shallow: &str| {
        if on_pool {
            peel.median_us(deep) - peel.median_us(shallow)
        } else {
            0.0
        }
    };
    let fft_us = peel.median_us(peel::FOURIER);
    let n = (spec.size * spec.size) as f64;
    let flops = peel.fft_lanes as f64 * 2.0 * 5.0 * n * n.log2();
    let bytes = peel.fft_lanes as f64 * 2.0 * 2.0 * n * 16.0;
    let c = &m.serving;
    let (submit, wait) = match spec.kind {
        Kind::Serve => ("serve.submit", "serve.wait"),
        Kind::Overload => ("serve.submit", "serve.step"),
        Kind::Interpret => ("", ""),
    };
    let span_median = |name: &str| stats::median(&trace::self_times_us(&traced.spans, name));
    let fault = c.fault;
    vec![
        Metric::new("fourier.fft_batch_us", fft_us, "us")
            .with_note(format!("{} lanes forward + inverse", peel.fft_lanes)),
        Metric::new("fourier.gflops", flops / (fft_us * 1e3), "GFLOP/s")
            .with_note("5 N log2 N flop model".into()),
        Metric::new("fourier.bytes_per_op", bytes, "B")
            .with_note("computed from tensor sizes".into()),
        Metric::new("core.host_op_us", peel.median_us(peel::CORE), "us"),
        Metric::new("core.fit_us", peel.median_us(peel::FIT), "us"),
        Metric::new(
            "accel.charge_us",
            peel.median_us(peel::ACCEL) - peel.median_us(peel::CORE),
            "us",
        ),
        Metric::new("accel.kernels_per_op", peel.kernels_per_op, "count"),
        Metric::new("accel.sim_ops_per_op", peel.sim_ops_per_op, "count"),
        Metric::new("accel.sim_bytes_per_op", peel.sim_bytes_per_op, "B"),
        Metric::new("tpu.batch_us", gap(peel::POOL1, peel::ACCEL), "us"),
        Metric::new("tpu.pool_us", gap(peel::POOLN, peel::POOL1), "us"),
        Metric::new(
            "tpu.pool.sharded_flights_per_op",
            peel.sharded_flights_per_op,
            "count",
        ),
        Metric::new(
            "tpu.pool.gather_sim_us_per_op",
            peel.gather_sim_us_per_op,
            "sim_us",
        ),
        Metric::new(
            "tpu.pool.chip_busy_max_over_mean",
            peel.chip_busy_max_over_mean,
            "ratio",
        ),
        Metric::new("tpu.fault.shard_retries", fault.retries as f64, "count"),
        Metric::new("tpu.fault.replans", fault.replans as f64, "count"),
        Metric::new("tpu.fault.quarantines", fault.quarantines as f64, "count"),
        Metric::new(
            "tpu.fault.budget_exhausted",
            fault.budget_exhausted as f64,
            "count",
        ),
        Metric::new(
            "tpu.fault.useful_frac",
            c.completed as f64 / (c.completed + c.retries + c.failed).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "serve.submit_us",
            if submit.is_empty() {
                0.0
            } else {
                span_median(submit)
            },
            "us",
        ),
        Metric::new(
            "serve.wait_us",
            if wait.is_empty() {
                0.0
            } else {
                span_median(wait)
            },
            "us",
        ),
        Metric::new("serve.overhead_us", gap(peel::SERVER, peel::POOLN), "us"),
        Metric::new("serve.queue_high_water", c.high_water as f64, "count"),
        Metric::new("serve.shed", c.shed as f64, "count"),
        Metric::new("serve.retries", c.retries as f64, "count"),
        Metric::new("serve.sim_queue_wait_us", c.queue_wait_us, "sim_us"),
        Metric::new("parallel.threads", report::thread_count() as f64, "count"),
        Metric::new(
            "trace.overhead_frac",
            1.0 - traced.wall_throughput() / m.main.wall_throughput(),
            "ratio",
        )
        .with_note(format!(
            "traced {:.1} vs untraced {:.1} ops/s",
            traced.wall_throughput(),
            m.main.wall_throughput()
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload overload-faults-sim --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.spec.name, "overload-faults-sim");
        assert!(a.spec.faults && a.trace && !a.corrupt_reference);
        assert_eq!((a.seed, a.seconds), (9, 2.5));
        let a = args("--workload overload-faults-sim --seed 9 --seconds 1 --trace 0 --no-faults")
            .unwrap();
        assert!(!a.spec.faults);
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload interpret-table2 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload interpret-table2 --seconds 1 --trace 0").is_err());
    }
}
