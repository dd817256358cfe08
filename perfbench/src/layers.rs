//! The traced run: spans around the calls into every layer, and the
//! per-layer metrics derived from them.
//!
//! A traced run measures the workload twice — untraced, then with
//! spans on — and reports the difference in `run_ms` as the tracing
//! overhead. It then runs the *layer pass*: every layer's public entry
//! points are called on the workload's own programs, so each layer has
//! a figure on every workload, measured on that workload's inputs.
//! Layers the timed loop already covered (the `kernels_*` engine runs,
//! the `spmd_sim` runs, the playground's replayed requests) are only
//! topped up to a few samples.

use std::hint::black_box;
use std::time::Instant;

use lol_c_codegen::driver::{self, RunRequest};
use lol_shmem::{run_spmd, BarrierKind, LockKind, ShmemConfig};
use lolcode::{engine_for, Backend, ClockMode, Compiled, RunConfig};

use crate::ctx::Ctx;
use crate::oracle;
use crate::serve;
use crate::span::{self, span, Span};
use crate::stats::{geomean, median};

/// One program of a workload, with the configuration the workload
/// runs it under.
#[derive(Clone, Debug)]
pub struct Prog {
    /// Short name for report rows.
    pub name: String,
    /// LOLCODE source.
    pub src: String,
    /// Run configuration (its backend is the workload's; the layer pass
    /// swaps in the others).
    pub cfg: RunConfig,
}

impl Prog {
    /// A program under `cfg`.
    pub fn new(name: &str, src: &str, cfg: RunConfig) -> Prog {
        Prog { name: name.to_string(), src: src.to_string(), cfg }
    }
}

/// The span name of an engine run.
pub fn run_span(b: Backend) -> &'static str {
    match b {
        Backend::Interp => "interp.run",
        Backend::Vm => "vm.run",
        Backend::C => "c.run",
        Backend::Sim => "sim.run",
    }
}

/// Front-end repetitions per program in the layer pass.
const FRONT_REPS: usize = 30;
/// Engine-run samples per program the layer pass tops up to.
const RUN_SAMPLES: usize = 3;
/// Programs per workload whose C build the layer pass measures (each
/// `cc` costs about half a second).
const C_PROGRAMS: usize = 2;

/// What the layer pass learned about one program besides its spans.
#[derive(Default)]
struct Facts {
    bytes: usize,
    tokens: usize,
    code_ops: usize,
    c_bytes: usize,
    n_pes: usize,
    ops: u64,
    super_bp: u64,
    comm_ops: u64,
    perfetto_bytes: usize,
}

/// Run a workload's measurement: `measure(ctx, secs, stream)` runs the
/// timed loop for `secs` with its own seeded order `stream` and
/// returns its `run_ms`. An untraced run measures once; a traced run
/// measures untraced and traced halves, then runs the layer pass.
pub fn run_passes(
    ctx: &mut Ctx,
    progs: &[Prog],
    mut measure: impl FnMut(&mut Ctx, f64, u64) -> f64,
) {
    if !ctx.trace {
        measure(ctx, ctx.seconds, 1);
        return;
    }
    let half = ctx.seconds / 2.0;
    ctx.note("untraced half:".to_string());
    let untraced = measure(ctx, half, 1);
    ctx.note("traced half:".to_string());
    span::arm();
    let traced = measure(ctx, half, 2);
    ctx.note("layer pass:".to_string());
    let overhead = 100.0 * (traced - untraced) / untraced;
    ctx.note(format!(
        "tracing overhead: run_ms {untraced:.4} untraced, {traced:.4} traced ({overhead:+.2}%)"
    ));
    ctx.layers.insert("bench.trace_overhead_pct", overhead);
    let facts = layer_pass(ctx, progs);
    shmem_probes(ctx);
    if !ctx.serve_done {
        serve::segment(ctx, progs);
    }
    let spans = span::disarm();
    derive(ctx, progs, &facts, &spans);
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    match std::fs::create_dir_all(dir).and_then(|()| span::write_jsonl(&path, &spans)) {
        Ok(()) => ctx.note(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => ctx.note(format!("spans not written: {e}")),
    }
}

/// Record spans until operation `req` has `n` spans called `name`.
fn top_up(name: &'static str, req: u64, n: usize, mut f: impl FnMut()) {
    while span::count(name, req) < n {
        f();
    }
}

/// Call every layer on every program of the workload.
fn layer_pass(ctx: &mut Ctx, progs: &[Prog]) -> Vec<Facts> {
    let mut all = Vec::new();
    for (i, p) in progs.iter().enumerate() {
        let req = i as u64;
        let mut f = Facts { bytes: p.src.len(), n_pes: p.cfg.n_pes, ..Facts::default() };
        let mut c_src = String::new();
        for _ in 0..FRONT_REPS {
            let lexed = span("lexer", req, || lol_lexer::lex(&p.src));
            f.tokens = lexed.tokens.len();
            let parsed = span("parser", req, || lol_parser::parse_tokens(lexed));
            let program = parsed.program.expect("workload programs parse");
            let analysis = span("sema", req, || lol_sema::analyze(&program));
            let module = span("vm.compile", req, || lol_vm::compile(&program, &analysis));
            f.code_ops = module.map_or(0, |m| m.code_len());
            black_box(span("core.compile", req, || Compiled::new(&p.src)).ok());
            c_src = span("codegen.emit", req, || lol_c_codegen::emit_c(&program, &analysis))
                .unwrap_or_default();
        }
        f.c_bytes = c_src.len();
        let art = Compiled::new(&p.src).expect("workload programs compile");
        let vm = p.cfg.clone().backend(Backend::Vm);
        let Some(want) = ctx.ok("vm run", engine_for(Backend::Vm).run(&art, &vm)) else {
            all.push(f);
            continue;
        };
        let want = want.outputs;
        let run = |ctx: &mut Ctx, cfg: &RunConfig| {
            let r = span(run_span(cfg.backend), req, || engine_for(cfg.backend).run(&art, cfg));
            if let Some(r) = ctx.ok(&p.name, r) {
                ctx.check(r.outputs == want, || {
                    format!("{} on {}: output differs", p.name, cfg.backend)
                });
                if let Some(s) = r.sim {
                    ctx.sim_runs.push((r.host_wall.as_nanos() as f64, s));
                }
            }
        };
        top_up("vm.run", req, RUN_SAMPLES, || run(ctx, &vm));
        top_up("interp.run", req, RUN_SAMPLES, || run(ctx, &vm.clone().backend(Backend::Interp)));
        top_up("sim.run", req, 1, || run(ctx, &vm.clone().backend(Backend::Sim)));
        if let Some(r) =
            ctx.ok("profiled vm run", engine_for(Backend::Vm).run(&art, &vm.clone().profile(true)))
        {
            ctx.check(r.outputs == want, || format!("{}: profiled output differs", p.name));
            let prof = r.profile.as_ref().map_or((0, 0), |p| (p.total_ops, p.super_bp));
            (f.ops, f.super_bp) = prof;
            let s = r.total_stats();
            f.comm_ops = s.scalar_ops()
                + s.amos
                + s.barriers
                + s.lock_acquires
                + s.lock_tries
                + s.lock_releases
                + s.block_get_words
                + s.block_put_words;
        }
        let traced = vm.clone().trace(true).clock(ClockMode::Virtual);
        if let Some(r) = ctx.ok("traced vm run", engine_for(Backend::Vm).run(&art, &traced)) {
            let trace = r.trace.expect("tracing was on");
            f.perfetto_bytes = span("trace.perfetto", req, || trace.to_perfetto()).len();
        }
        if i < C_PROGRAMS {
            if let Some(bin) = ctx.ok("C build", span("codegen.cc", req, || driver::build(&c_src)))
            {
                let input: Vec<String> = Vec::new();
                let rr = RunRequest {
                    n_pes: p.cfg.n_pes,
                    seed: p.cfg.seed,
                    input: &input,
                    ..RunRequest::default()
                };
                top_up("c.run", req, RUN_SAMPLES, || {
                    if let Some(out) = ctx.ok("C run", span("c.run", req, || bin.run(&rr))) {
                        let ok = oracle::c_agrees(&p.src, &want, &out.outputs);
                        ctx.check(ok, || format!("{} on c: output differs", p.name));
                    }
                });
            }
        }
        all.push(f);
    }
    all
}

/// Operations per probe loop.
const PROBE_OPS: usize = 20_000;
/// Repeats of each probe loop (the median is reported).
const PROBE_REPS: usize = 5;

/// Substrate probes: `run_spmd` loops calling `Pe::{get_u64, put_u64,
/// barrier_all, lock, unlock}`, locally at 1 PE and remotely at 2 PEs.
/// Timed inside the PE threads, so they are plain timings, not spans.
fn shmem_probes(ctx: &mut Ctx) {
    #[derive(Clone, Copy)]
    enum Probe {
        Get,
        Put,
        Barrier,
        Lock,
    }
    let probes: [(&'static str, usize, Probe, BarrierKind, LockKind); 8] = [
        ("shmem.get_ns.local", 1, Probe::Get, BarrierKind::Centralized, LockKind::SpinCas),
        ("shmem.put_ns.local", 1, Probe::Put, BarrierKind::Centralized, LockKind::SpinCas),
        ("shmem.get_ns.remote", 2, Probe::Get, BarrierKind::Centralized, LockKind::SpinCas),
        ("shmem.put_ns.remote", 2, Probe::Put, BarrierKind::Centralized, LockKind::SpinCas),
        (
            "shmem.barrier_ns.central",
            2,
            Probe::Barrier,
            BarrierKind::Centralized,
            LockKind::SpinCas,
        ),
        (
            "shmem.barrier_ns.dissem",
            2,
            Probe::Barrier,
            BarrierKind::Dissemination,
            LockKind::SpinCas,
        ),
        ("shmem.lock_ns.cas", 2, Probe::Lock, BarrierKind::Centralized, LockKind::SpinCas),
        ("shmem.lock_ns.ticket", 2, Probe::Lock, BarrierKind::Centralized, LockKind::Ticket),
    ];
    for (name, n, probe, barrier, lock) in probes {
        let mut per_op = Vec::new();
        for _ in 0..PROBE_REPS {
            let cfg = ShmemConfig::new(n).barrier(barrier).lock(lock).seed(ctx.seed);
            let r = run_spmd(cfg, |pe| {
                let word = pe.shmalloc(1);
                let lock_addr = pe.shmalloc_lock();
                // PE 0 works on the last PE's memory; at 2 PEs that is
                // remote, at 1 PE it is its own. Barriers and locks
                // involve every PE.
                let target = pe.n_pes() - 1;
                let solo = matches!(probe, Probe::Get | Probe::Put);
                pe.barrier_all();
                let t = Instant::now();
                if !solo || pe.id() == 0 {
                    for i in 0..PROBE_OPS {
                        match probe {
                            Probe::Get => drop(black_box(pe.get_u64(word, target))),
                            Probe::Put => pe.put_u64(word, target, i as u64),
                            Probe::Barrier => pe.barrier_all(),
                            Probe::Lock => {
                                pe.lock(lock_addr, 0);
                                pe.unlock(lock_addr, 0);
                            }
                        }
                    }
                }
                let ns = t.elapsed().as_nanos() as f64;
                pe.barrier_all();
                ns
            });
            if let Some(times) = ctx.ok(name, r) {
                per_op.push(times[0] / PROBE_OPS as f64);
            }
        }
        ctx.layers.insert(name, median(&per_op));
    }
}

/// Median self time (ns) of each program's spans called `name`,
/// for the programs that have any.
fn per_prog(spans: &[Span], selfs: &[u64], name: &str, n: usize) -> Vec<Option<f64>> {
    (0..n as u64)
        .map(|req| {
            let v: Vec<f64> = spans
                .iter()
                .zip(selfs)
                .filter(|(s, _)| s.name == name && s.req == req)
                .map(|(_, &ns)| ns as f64)
                .collect();
            (!v.is_empty()).then(|| median(&v))
        })
        .collect()
}

/// Turn the spans and facts into the per-layer metrics.
fn derive(ctx: &mut Ctx, progs: &[Prog], facts: &[Facts], spans: &[Span]) {
    let selfs = span::self_times(spans);
    let n = progs.len();
    let gm = |name: &str, scale: f64| {
        let v: Vec<f64> =
            per_prog(spans, &selfs, name, n).into_iter().flatten().map(|ns| ns / scale).collect();
        geomean(&v)
    };
    // Throughput over every front-end span: bytes handled / time spent.
    let rate = |name: &str| {
        let (mut bytes, mut ns) = (0.0, 0.0);
        for (s, &t) in spans.iter().zip(&selfs).filter(|(s, _)| s.name == name) {
            bytes += facts.get(s.req as usize).map_or(0, |f| f.bytes) as f64;
            ns += t as f64;
        }
        if ns > 0.0 {
            bytes / ns * 1e3
        } else {
            0.0
        }
    };
    let put = |ctx: &mut Ctx, k: &'static str, v: f64| {
        ctx.layers.insert(k, v);
    };
    put(ctx, "lexer.mb_per_s", rate("lexer"));
    put(ctx, "parser.mb_per_s", rate("parser"));
    put(ctx, "lexer.tokens", facts.iter().map(|f| f.tokens).sum::<usize>() as f64);
    put(ctx, "sema.us", gm("sema", 1e3));
    put(ctx, "vm.compile_us", gm("vm.compile", 1e3));
    put(ctx, "vm.code_ops", facts.iter().map(|f| f.code_ops).sum::<usize>() as f64);
    put(ctx, "core.compile_us", gm("core.compile", 1e3));
    let vm_ns = per_prog(spans, &selfs, "vm.run", n);
    let mut per_op = Vec::new();
    for ((p, f), ns) in progs.iter().zip(facts).zip(vm_ns) {
        if let (Some(ns), true) = (ns, f.ops > 0) {
            let v = ns * f.n_pes as f64 / f.ops as f64;
            per_op.push(v);
            ctx.note(format!(
                "vm.ns_per_op.{:<22} {v:>12.4} ns    (vm.ops.{} = {})",
                p.name, p.name, f.ops
            ));
        }
    }
    put(ctx, "vm.ns_per_op", geomean(&per_op));
    let ops: u64 = facts.iter().map(|f| f.ops).sum();
    put(ctx, "vm.ops", ops as f64);
    let bp =
        facts.iter().map(|f| f.super_bp as f64 * f.ops as f64).sum::<f64>() / (ops.max(1) as f64);
    put(ctx, "vm.super_bp", bp);
    for (name, span_name) in [("interp", "interp.run"), ("c", "c.run")] {
        for (p, ns) in progs.iter().zip(per_prog(spans, &selfs, span_name, n)) {
            if let Some(ns) = ns {
                ctx.note(format!("{name}.run_ms.{:<24} {:>12.4} ms", p.name, ns / 1e6));
            }
        }
    }
    put(ctx, "interp.run_ms", gm("interp.run", 1e6));
    put(ctx, "c.run_ms", gm("c.run", 1e6));
    put(ctx, "codegen.emit_us", gm("codegen.emit", 1e3));
    put(ctx, "codegen.cc_ms", gm("codegen.cc", 1e6));
    put(ctx, "codegen.c_bytes", facts.iter().map(|f| f.c_bytes).sum::<usize>() as f64);
    put(ctx, "shmem.comm_ops", facts.iter().map(|f| f.comm_ops).sum::<u64>() as f64);
    put(
        ctx,
        "trace.perfetto_bytes",
        facts.iter().map(|f| f.perfetto_bytes).max().unwrap_or(0) as f64,
    );
    let perfetto: Vec<f64> = span::self_ns_of(spans, &selfs, "trace.perfetto");
    put(ctx, "trace.perfetto_ms", median(&perfetto) / 1e6);
    // The scheduler counters come from the largest sim run (they are
    // exact for a given program and PE count); ns per event pools every
    // sim run.
    let (ns, events) =
        ctx.sim_runs.iter().fold((0.0, 0u64), |(a, b), (ns, s)| (a + ns, b + s.events));
    put(ctx, "sim.ns_per_event", if events > 0 { ns / events as f64 } else { 0.0 });
    let big = ctx.sim_runs.iter().map(|(_, s)| *s).max_by_key(|s| s.events).unwrap_or_default();
    put(ctx, "sim.events", big.events as f64);
    put(ctx, "sim.barrier_episodes", big.barrier_episodes as f64);
    put(ctx, "sim.merge_windows", big.merge_windows as f64);
    put(ctx, "sim.heap_peak", big.heap_peak as f64);
    serve::derive(ctx, spans, &selfs);
}
