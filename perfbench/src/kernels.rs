//! `kernels_*`: the two compute-bound bench programs at 1 PE, one
//! workload per backend so that each backend's run time is gated on
//! its own — `kernels_interp`, `kernels_vm` and `kernels_c` time warm
//! runs, `kernels_c_build` the cold C build a student pays on a first
//! run.
//!
//! More than 99% of each run is execution and there is no remote
//! communication, so dispatch, typed-lowering and codegen changes
//! show here while substrate, sim and serve changes must read flat.

use std::time::Instant;

use lolcode::{engine_for, Backend, Compiled, RunConfig};

use crate::ctx::{ms, Ctx};
use crate::gen::Rng;
use crate::layers::{self, Prog};
use crate::oracle;
use crate::span::span;
use crate::stats::geomean;

/// The kernel programs, as committed in the corpus.
const PROGRAMS: [(&str, &str); 2] = [
    ("nbody_bench", include_str!("../../corpus/nbody_bench.lol")),
    ("heat2d_bench", include_str!("../../corpus/heat2d_bench.lol")),
];

/// What a kernels workload times.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A warm run on one backend.
    Run(Backend),
    /// `c_binary` on a fresh `Compiled`: `emit_c` + `cc`.
    ColdBuild,
}

impl Kind {
    /// The end-to-end figure the workload reports as `run_ms`.
    fn metric(self) -> &'static str {
        match self {
            Kind::Run(Backend::Interp) => "interp_run_ms",
            Kind::Run(Backend::Vm) => "vm_run_ms",
            Kind::Run(_) => "c_run_ms",
            Kind::ColdBuild => "c_build_ms",
        }
    }

    /// The backend every timed output is checked against: an engine
    /// other than the one timed.
    fn reference(self) -> Backend {
        match self {
            Kind::Run(Backend::Vm) => Backend::Interp,
            _ => Backend::Vm,
        }
    }

    /// The backend the layer pass's `lold` session runs the programs on.
    fn backend(self) -> Backend {
        match self {
            Kind::Run(b) => b,
            Kind::ColdBuild => Backend::C,
        }
    }
}

fn config(ctx: &Ctx, backend: Backend) -> RunConfig {
    RunConfig::new(1).backend(backend).seed(ctx.seed)
}

struct Ready {
    arts: Vec<Compiled>,
    /// The reference engine's output of each program.
    want: Vec<Vec<String>>,
}

/// Compile both programs, lower or build them for the timed backend,
/// and compute the reference outputs.
fn setup(ctx: &mut Ctx, kind: Kind) -> Ready {
    let (mut arts, mut want) = (Vec::new(), Vec::new());
    for (name, src) in PROGRAMS {
        let art = Compiled::new(src).unwrap_or_else(|e| panic!("{name} must compile: {e}"));
        match kind {
            Kind::Run(Backend::Vm) => drop(ctx.ok("vm lowering", art.vm_module().map(|_| ()))),
            Kind::Run(Backend::C) => drop(ctx.ok("C build", art.c_binary().map(|_| ()))),
            _ => {}
        }
        let r = engine_for(kind.reference()).run(&art, &config(ctx, kind.reference()));
        want.push(ctx.ok(name, r).map(|r| r.outputs).unwrap_or_default());
        arts.push(art);
    }
    Ready { arts, want }
}

/// Run the timed loop for `secs`. Every round times each program once,
/// in a seeded order, so both get the same number of samples.
fn measure(ctx: &mut Ctx, r: &Ready, kind: Kind, secs: f64, round_seed: u64) -> f64 {
    let mut samples = vec![Vec::new(); PROGRAMS.len()];
    // The first C output of each program: later ones must repeat it.
    let mut c_first: Vec<Option<Vec<String>>> = vec![None; PROGRAMS.len()];
    let mut rng = Rng::new(ctx.seed, round_seed);
    let t0 = Instant::now();
    while Ctx::left(t0, secs) {
        let mut order: Vec<usize> = (0..PROGRAMS.len()).collect();
        rng.shuffle(&mut order);
        for p in order {
            let (name, src) = PROGRAMS[p];
            let report = match kind {
                Kind::Run(b) => {
                    let cfg = config(ctx, b);
                    let t = Instant::now();
                    let rep =
                        span(layers::run_span(b), p as u64, || engine_for(b).run(&r.arts[p], &cfg));
                    samples[p].push(ms(t.elapsed()));
                    rep
                }
                Kind::ColdBuild => {
                    let fresh = Compiled::new(src).expect("compiled in setup");
                    let t = Instant::now();
                    let built =
                        span("codegen.build_cold", p as u64, || fresh.c_binary().map(|_| ()));
                    samples[p].push(ms(t.elapsed()));
                    if ctx.ok("cold C build", built).is_none() {
                        continue;
                    }
                    // The new binary must run the program correctly.
                    engine_for(Backend::C).run(&fresh, &config(ctx, Backend::C))
                }
            };
            let Some(report) = ctx.ok(name, report) else { continue };
            let (want, outs) = (&r.want[p], &report.outputs);
            let ok = if kind == Kind::Run(Backend::Interp) || kind == Kind::Run(Backend::Vm) {
                outs == want
            } else {
                let first = c_first[p].get_or_insert_with(|| outs.clone());
                first == outs && oracle::c_agrees(src, want, outs)
            };
            ctx.check(ok, || {
                format!("{name}: {} output differs from {}", kind.metric(), kind.reference())
            });
        }
    }
    let mut meds = Vec::new();
    for ((name, _), s) in PROGRAMS.iter().zip(&samples) {
        meds.push(ctx.row(&format!("{name}.{}", kind.metric()), "ms", s).median);
    }
    let run_ms = geomean(&meds);
    ctx.note(format!("{:<34} {run_ms:>12.4} ms    (geomean over programs)", kind.metric()));
    ctx.e2e.insert("run_ms", run_ms);
    run_ms
}

/// The programs as the layer pass sees them.
fn progs(ctx: &Ctx, kind: Kind) -> Vec<Prog> {
    PROGRAMS.iter().map(|(name, src)| Prog::new(name, src, config(ctx, kind.backend()))).collect()
}

/// Run the workload.
pub fn run(ctx: &mut Ctx, kind: Kind) {
    let ready = ctx.set_up(|ctx| setup(ctx, kind));
    layers::run_passes(ctx, &progs(ctx, kind), |ctx, secs, stream| {
        measure(ctx, &ready, kind, secs, stream)
    });
}
