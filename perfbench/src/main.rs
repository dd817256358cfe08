//! `perfbench` — run one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   # W: see README.md
//! perfbench --workload W --seed N --seconds S --steady K   # K runs, spread vs bound
//! perfbench --manifest                                     # print BENCHMARK.json
//! ```
//!
//! The human-readable report goes to stderr; the last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics traced).

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use perfbench::ctx::{peak_rss_mb, Ctx};
use perfbench::manifest::{manifest_json, END_TO_END, PER_LAYER};
use perfbench::stats::{median, quartiles, spread};

const USAGE: &str =
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1
         W: kernels_interp|kernels_vm|kernels_c|kernels_c_build|spmd_barrier|spmd_lock|spmd_sim|playground
       perfbench --workload W --seed N --seconds S --steady K
       perfbench --manifest";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, steady: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| bad(flag))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad(flag));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--steady" => a.steady = Some(value()?.parse().map_err(|_| bad(flag))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// The result line: every end-to-end metric untraced, every per-layer
/// metric traced.
fn result_json(ctx: &Ctx) -> String {
    let mut metrics = Vec::new();
    if ctx.trace {
        for m in &PER_LAYER {
            let v = ctx.layers.get(m.name).copied().unwrap_or(0.0);
            metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
    } else {
        for m in &END_TO_END {
            let v = match m.name {
                "setup_s" => median(&ctx.setups),
                "peak_rss_mb" => peak_rss_mb(),
                name => ctx.e2e.get(name).copied().unwrap_or(0.0),
            };
            metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed == 0 && ctx.attempted > 0,
        ctx.attempted,
        ctx.failed,
        metrics.join(", ")
    )
}

fn print_report(a: &Args, ctx: &Ctx) {
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}) on {} cores",
        a.workload, a.seed, a.seconds, a.trace as u8, ctx.nproc
    );
    for line in &ctx.report {
        eprintln!("{line}");
    }
    let first = ctx.setups.first().copied().unwrap_or(0.0);
    eprintln!(
        "  setup_s                            {:>12.4} s     (median of {} set-ups; the first, from process start, {first:.4})",
        median(&ctx.setups),
        ctx.setups.len(),
    );
    eprintln!("  peak_rss_mb                        {:>12.4} MB", peak_rss_mb());
    let ratio = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    eprintln!(
        "  fail_ratio                         {ratio:>12.4}       ({} failed of {} attempted)",
        ctx.failed, ctx.attempted
    );
    for f in ctx.failures() {
        eprintln!("  FAILED: {f}");
    }
    if !ctx.trace {
        for m in &END_TO_END {
            eprintln!("  {:<12} = {}", m.name, m.meaning);
        }
    }
    if ctx.trace {
        for m in &PER_LAYER {
            let v = ctx.layers.get(m.name).copied().unwrap_or(0.0);
            eprintln!("  {:<34} {v:>14.4} {:<6} moves: {}", m.name, m.unit, m.moves);
        }
        // Layers measured only where the workload drives them (the
        // playground's overload figures), outside BENCHMARK.json.
        for (name, v) in &ctx.layers {
            if !PER_LAYER.iter().any(|m| m.name == *name) {
                eprintln!("  {name:<34} {v:>14.4}        (not in BENCHMARK.json)");
            }
        }
    }
}

/// Run the workload `k` times in child processes on consecutive seeds
/// and print each end-to-end metric's spread against its bound.
fn steady(a: &Args, k: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for i in 0..k as u64 {
        let seed = a.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::null())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or("");
        let json = lol_serve::json::parse(line).map_err(|e| format!("seed {seed}: {e}: {line}"))?;
        let metrics = json.get("metrics").ok_or(format!("seed {seed}: no metrics"))?;
        let mut row = format!("seed {seed:>6}:");
        for (j, m) in END_TO_END.iter().enumerate() {
            let v = metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(|v| match v {
                    lol_serve::json::Json::Num(n) => n.parse::<f64>().ok(),
                    _ => None,
                })
                .ok_or(format!("seed {seed}: no {}", m.name))?;
            values[j].push(v);
            row.push_str(&format!("  {} {v:.4}", m.name));
        }
        eprintln!(
            "{row}  correct {}",
            json.get("correct").and_then(|c| c.as_bool()).unwrap_or(false)
        );
    }
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (m, v) in END_TO_END.iter().zip(&values) {
        let q = quartiles(v).unwrap_or([0.0; 3]);
        let s = spread(v).unwrap_or(f64::NAN);
        let verdict = if s <= m.bound / 3.0 {
            "steady"
        } else if s <= m.bound {
            "within bound"
        } else {
            "TOO WIDE"
        };
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>8.2}  {verdict}",
            m.name,
            median(v),
            q[0],
            q[2],
            s,
            m.bound
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--manifest") {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = a.steady {
        return match steady(&a, k) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // Keep the C compiler's and the C backend's scratch files inside
    // the working directory.
    let tmp = std::path::Path::new(".bench_out").join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);
    match perfbench::run_workload(&a.workload, a.seed, a.seconds, a.trace, started) {
        Ok(ctx) => {
            print_report(&a, &ctx);
            println!("{}", result_json(&ctx));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
