//! The MPROS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path mprosbench/Cargo.toml -- \
//!     --workload survey|console --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the traced rebuild of the same workload, prints the
//! per-layer metrics, writes the spans to
//! `mprosbench/spans/<workload>-<seed>.jsonl`, and checks that an
//! untraced replay of the same steps produces the same outputs.
//!
//! Every metric is printed by name with its unit (and, for quantiles,
//! the sample count); the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The
//! command exits non-zero when an output check fails.

mod console;
mod layers;
mod load;
mod probe;
mod rebuild;
mod report;
mod ship;
mod spans;
mod stats;

use report::{metric, render_json, render_text, sampled, Metric, Tally};
use stats::Samples;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds < 3600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < seconds < 3600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Until(Instant),
    Steps(u64),
}

impl Budget {
    pub fn for_seconds(seconds: f64) -> Self {
        Budget::Until(Instant::now() + Duration::from_secs_f64(seconds))
    }

    /// Whether another step is due after `done` steps.
    pub fn more(&self, done: u64) -> bool {
        match *self {
            Budget::Until(end) => Instant::now() < end,
            Budget::Steps(n) => done < n,
        }
    }
}

/// Per-step wall times of the timed phase.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Each step's window: inputs entering to the snapshot published.
    pub round: Samples,
    /// Each step's start to the client's first response of its version.
    pub fresh: Samples,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl RoundLog {
    pub fn push(&mut self, secs: f64) {
        self.round.push(secs);
    }

    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    pub fn steps(&self) -> u64 {
        self.round.len() as u64
    }

    /// Wall seconds spent inside step windows.
    pub fn total(&self) -> f64 {
        self.round.sum()
    }

    /// The first timed step's ordinal, given the last one's.
    pub fn first_step(&self, last: u64) -> u64 {
        (last + 1).saturating_sub(self.steps())
    }

    /// Count the steps as operations, and check none failed.
    pub fn tally(&self, tally: &mut Tally) {
        tally.ops(self.steps(), self.failed);
        let detail = match &self.first_error {
            Some(e) => format!("{} of {} failed; first: {e}", self.failed, self.steps()),
            None => format!("{} steps", self.steps()),
        };
        tally.check("every step succeeds", self.failed == 0, detail);
    }
}

/// Set up `times` times, keeping only the last result, whose set-up
/// times' median is `setup_s`. Earlier set-ups are dropped before the
/// next starts, so peak memory holds one.
pub fn set_up_repeatedly<T>(
    times: usize,
    mut set_up: impl FnMut() -> mpros_core::Result<(T, f64)>,
) -> mpros_core::Result<(T, Samples)> {
    let mut secs = Samples::new();
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        let (t, s) = set_up()?;
        secs.push(s);
        kept = Some(t);
    }
    Ok((kept.expect("set up at least once"), secs))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    setups: &Samples,
    rounds: &RoundLog,
    query: &Samples,
    tally: &Tally,
) -> Vec<Metric> {
    let n = rounds.round.len();
    vec![
        sampled("setup_s", setups.median(), "s", setups.len()),
        sampled(
            "steps_per_s",
            rounds.steps() as f64 / rounds.total().max(f64::MIN_POSITIVE),
            "1/s",
            n,
        ),
        sampled("step_p50_s", rounds.round.quantile(0.50), "s", n),
        sampled("step_p90_s", rounds.round.quantile(0.90), "s", n),
        sampled(
            "fresh_p50_s",
            rounds.fresh.quantile(0.50),
            "s",
            rounds.fresh.len(),
        ),
        sampled(
            "fresh_p90_s",
            rounds.fresh.quantile(0.90),
            "s",
            rounds.fresh.len(),
        ),
        sampled("query_p50_s", query.quantile(0.50), "s", query.len()),
        sampled("query_p99_s", query.quantile(0.99), "s", query.len()),
        metric("ok_ratio", tally.ok_ratio(), "1"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn run(args: &Args) -> Result<(Vec<Metric>, Tally), String> {
    let seed = args.seed;
    let untraced = |run: mpros_core::Result<(Vec<Metric>, Tally)>| run.map(|(m, t)| (m, t, None));
    let traced = |run: mpros_core::Result<_>| run.map(|(m, t, log)| (m, t, Some(log)));
    let result = match (args.workload.as_str(), args.trace) {
        ("survey", false) => untraced(ship::run_untraced(&ship::Scenario::new(seed), args)),
        ("survey", true) => traced(ship::run_traced(&ship::Scenario::new(seed), args)),
        ("console", false) => untraced(console::run_untraced(&console::Scenario::new(seed), args)),
        ("console", true) => traced(console::run_traced(&console::Scenario::new(seed), args)),
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    let (metrics, tally, log) = result.map_err(|e| e.to_string())?;
    let Some(log) = log else {
        return Ok((metrics, tally));
    };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}-{}.jsonl", args.workload, args.seed));
    log.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", log.spans().len(), path.display());
    Ok((metrics, tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mprosbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            print!("{}", render_text(&args.workload, &metrics, &tally));
            println!("{}", render_json(&metrics, &tally));
            if tally.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mprosbench: {e}");
            ExitCode::from(2)
        }
    }
}
