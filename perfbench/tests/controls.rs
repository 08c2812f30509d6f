//! Tests of the harness through its command line: the metric set
//! matches `BENCHMARK.json`, simulated metrics and counts repeat
//! exactly, and two negative controls show the checks can fail.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

/// The final JSON line of a run.
fn json(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

/// A metric's value from the JSON line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {line}"))
        + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let start = spec.find(&format!("\"{section}\"")).expect("section");
    let body = &spec[start..start + spec[start..].find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.4",
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    perfbench(&args)
}

#[test]
fn every_declared_metric_is_reported_and_sim_metrics_repeat() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert_eq!(e2e.len(), 10);
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for w in [
        "serve-small-fleet16",
        "serve-large-pool2",
        "overload-faults-sim",
        "interpret-table2",
    ] {
        let a = run(w, "5", "0", &[]);
        assert!(
            a.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&a.stdout)
        );
        let line = json(&a);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for name in &e2e {
            assert!(metric(&line, name) != 0.0, "{w}: {name} is zero");
        }
        let again = json(&run(w, "5", "0", &[]));
        for name in e2e.iter().filter(|n| n.starts_with("sim_")) {
            assert_eq!(metric(&line, name), metric(&again, name), "{w}: {name}");
        }
        let traced = run(w, "5", "1", &[]);
        assert!(traced.status.success());
        let line = json(&traced);
        for name in &layers {
            metric(&line, name);
        }
        for counter in [
            "tpu.fault.shard_retries",
            "tpu.fault.replans",
            "tpu.fault.quarantines",
        ] {
            let n = metric(&line, counter);
            assert_eq!(n > 0.0, w == "overload-faults-sim", "{w}: {counter} = {n}");
        }
    }
}

#[test]
fn interpret_table2_charges_the_table_ii_time() {
    let out = run("interpret-table2", "1", "0", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // BENCH_baseline.json: table2_tpu_interpret_seconds_4x128sq.
    let sim_us = metric(&json(&out), "sim_service_us");
    assert!(
        (sim_us - 1.5970668571428572e-4 * 1e6).abs() < 1e-9,
        "{sim_us}"
    );
}

#[test]
fn removing_the_fault_plan_zeroes_fault_counters_and_raises_goodput() {
    let args = [
        "--workload",
        "overload-faults-sim",
        "--seed",
        "11",
        "--seconds",
        "0.4",
    ];
    let with_plan = perfbench(&[&args[..], &["--trace", "1"]].concat());
    let without = perfbench(&[&args[..], &["--trace", "1", "--no-faults"]].concat());
    let (faulted, healthy) = (json(&with_plan), json(&without));
    for counter in [
        "tpu.fault.shard_retries",
        "tpu.fault.replans",
        "tpu.fault.quarantines",
    ] {
        assert!(metric(&faulted, counter) > 0.0, "{counter} with the plan");
        assert_eq!(metric(&healthy, counter), 0.0, "{counter} without the plan");
    }
    let g_faulted = metric(
        &json(&perfbench(&[&args[..], &["--trace", "0"]].concat())),
        "sim_goodput_frac",
    );
    let g_healthy = metric(
        &json(&perfbench(
            &[&args[..], &["--trace", "0", "--no-faults"]].concat(),
        )),
        "sim_goodput_frac",
    );
    assert!(
        g_healthy > g_faulted,
        "healthy {g_healthy} vs faulted {g_faulted}"
    );
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for w in ["serve-small-fleet16", "interpret-table2"] {
        let out = run(w, "2", "0", &["--corrupt-reference"]);
        assert!(!out.status.success(), "{w} must exit nonzero");
        let line = json(&out);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(metric(&line, "ok_frac") < 1.0);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = perfbench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
