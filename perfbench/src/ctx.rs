//! State shared by the workloads: the clock, the correctness tally,
//! the measured metrics and the human-readable report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::Summary;

/// Fewest set-ups per run; `setup_s` is their median. Only the first
/// is timed from process start, so the median leaves out one-time
/// process initialisation; the report prints the first on its own.
pub const SETUPS: usize = 3;
/// Set-up time a run spends at least, so that a set-up of a few
/// milliseconds still yields a steady median.
const SETUP_MIN_S: f64 = 0.3;

/// One run of one workload.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Host parallelism.
    pub nproc: usize,
    /// When the process started (as near as `main` can tell).
    pub started: Instant,
    /// Operations attempted (timed operations and oracle checks).
    pub attempted: u64,
    /// Operations that failed, were refused or gave wrong output.
    pub failed: u64,
    failures: Vec<String>,
    /// Duration of each set-up, in seconds.
    pub setups: Vec<f64>,
    /// End-to-end metrics measured by the workload (`run_ms`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (stderr).
    pub report: Vec<String>,
    /// Host ns and scheduler counters of every traced sim run.
    pub sim_runs: Vec<(f64, lolcode::SimStats)>,
    /// Whether the workload itself already measured the serve layers.
    pub serve_done: bool,
}

impl Ctx {
    /// A fresh context.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool, started: Instant) -> Ctx {
        Ctx {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            started,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setups: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            report: Vec::new(),
            sim_runs: Vec::new(),
            serve_done: false,
        }
    }

    /// Count one operation; `what` explains a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Count an operation that returned a result; an error is a failure.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Time one set-up. The first is timed from process start.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let t0 = if self.setups.is_empty() { self.started } else { Instant::now() };
        let out = f(self);
        self.setups.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Set up at least [`SETUPS`] times and for at least [`SETUP_MIN_S`]
    /// seconds in all; return the last set-up's result.
    pub fn set_up<T>(&mut self, mut f: impl FnMut(&mut Ctx) -> T) -> T {
        loop {
            let out = self.setup(&mut f);
            if self.setups.len() >= SETUPS && self.setups.iter().sum::<f64>() >= SETUP_MIN_S {
                return out;
            }
        }
    }

    /// Add a named metric to the report, with its unit and samples.
    pub fn row(&mut self, name: &str, unit: &str, samples: &[f64]) -> Summary {
        let s = Summary::of(samples);
        let tail = match s.tail {
            Some((p, v)) => format!("p{p} {v:.4}"),
            None => "no percentile with 10 samples beyond".to_string(),
        };
        self.report
            .push(format!("  {name:<34} {:>12.4} {unit:<5} (median, n={}; {tail})", s.median, s.n));
        s
    }

    /// Add a free-form line to the report.
    pub fn note(&mut self, line: String) {
        self.report.push(format!("  {line}"));
    }

    /// Failure notes, for the report.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Seconds left of a measuring window that began at `t0` and lasts `secs`.
    pub fn left(t0: Instant, secs: f64) -> bool {
        t0.elapsed() < Duration::from_secs_f64(secs)
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
