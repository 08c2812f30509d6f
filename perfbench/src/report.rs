//! Metrics, the human-readable table, the final JSON line, and the
//! process readings (`/proc/self`).

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Printed beside the value in the table (not in the JSON).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attaches a note printed in the table.
    #[must_use]
    pub fn with_note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// The run's verdict and metrics.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Ops the measured loops attempted.
    pub attempted: u64,
    /// Ops whose output was wrong or that failed unexpectedly.
    pub failed: u64,
    /// Checks other than per-op outputs that failed, by description.
    pub broken: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Verdict {
    /// Every output matched and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.broken.push(what.into());
        }
    }
}

/// Formats a number for JSON: shortest round-trip form of a finite
/// value (non-finite values are reported as errors by the caller).
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The table printed above the JSON line.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("{title}\n");
    for m in metrics {
        s.push_str(&format!(
            "  {:<36} {:>16.6} {:<10} {}\n",
            m.name, m.value, m.unit, m.note
        ));
    }
    s
}

/// The single JSON object that ends standard output.
pub fn json_line(out: &Verdict) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A `kB` field of `/proc/self/status`, in MiB (0 when unavailable).
pub fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process right now (0 when unavailable).
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_every_metric() {
        let out = Verdict {
            attempted: 3,
            failed: 0,
            broken: Vec::new(),
            metrics: vec![Metric::new("a", 1.25, "ms"), Metric::new("b", 2.0, "s")],
        };
        assert_eq!(
            json_line(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        let mut bad = out.clone();
        bad.check(false, "reference");
        assert!(json_line(&bad).starts_with("{\"correct\": false"));
    }
}
