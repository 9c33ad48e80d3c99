//! A run's result: its metrics, its output checks, and the last-line
//! JSON object.

use std::fmt::Write;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind a quantile or median, when there are any.
    pub samples: Option<usize>,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

/// Operations attempted and failed, and the output checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed, detail)`; each check is one operation.
    pub checks: Vec<(String, bool, String)>,
}

impl Tally {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.ops(1, u64::from(!passed));
        self.checks.push((name.into(), passed, detail.into()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// `1 − failed / attempted`.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Human-readable lines: every metric by name with its unit and sample
/// count, then every check.
pub fn render_text(workload: &str, metrics: &[Metric], tally: &Tally) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload {workload}");
    for m in metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(out, "  {:<34} {:>16.9} {}{n}", m.name, m.value, m.unit);
    }
    for (name, passed, detail) in &tally.checks {
        let verdict = if *passed { "PASS" } else { "FAIL" };
        let _ = writeln!(out, "  [{verdict}] {name}: {detail}");
    }
    let _ = writeln!(
        out,
        "  operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    out
}

/// The result object the last line of standard output carries.
pub fn render_json(metrics: &[Metric], tally: &Tally) -> String {
    let body: Vec<String> = metrics
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
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// A finite number with every digit Rust's shortest round-trip form
/// gives it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
