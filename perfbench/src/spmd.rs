//! `spmd_*`: communication and synchronisation, split so that barrier,
//! lock and scheduler costs are each gated on their own.
//!
//! - `spmd_barrier`: threaded VM runs at 2 PEs of `heat2d_4x8` and
//!   `nbody_32x10` (no lock taken) over barrier {central, dissem}.
//! - `spmd_lock`: threaded VM runs at 2 PEs of a seeded
//!   lock-contention program over lock {cas, ticket}.
//! - `spmd_sim`: `heat2d_4x8` on the simulator at thousands of PEs.
//!
//! Per-PE compute is small, so substrate, barrier, lock and scheduler
//! costs dominate.

use std::time::Instant;

use lolcode::{engine_for, Backend, BarrierKind, ClockMode, Compiled, LockKind, RunConfig};

use crate::ctx::{ms, Ctx};
use crate::gen::{lock_program, Rng};
use crate::layers::{self, Prog};
use crate::span::span;
use crate::stats::{geomean, median};

/// PE count of the threaded runs.
const PES: usize = 2;
/// PE count of the simulated `heat2d_4x8` run.
const SIM_PES: usize = 4096;
/// Passes over the threaded configurations per round.
const PASSES: usize = 10;

const BARRIERS: [BarrierKind; 2] = [BarrierKind::Centralized, BarrierKind::Dissemination];
const LOCKS: [LockKind; 2] = [LockKind::SpinCas, LockKind::Ticket];

/// Which part of the communication stack a workload times.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Barrier-bound corpus programs over barrier kinds.
    Barrier,
    /// The seeded lock program over lock kinds.
    Lock,
    /// `heat2d_4x8` on the simulator at [`SIM_PES`].
    Sim,
}

/// The programs of a part.
fn programs(part: Part, seed: u64) -> Vec<(&'static str, String)> {
    let heat = ("heat2d_4x8", include_str!("../../corpus/heat2d_4x8.lol").to_string());
    let nbody = ("nbody_32x10", include_str!("../../corpus/nbody_32x10.lol").to_string());
    let lock = ("lockgen", lock_program(seed));
    match part {
        Part::Barrier => vec![heat, nbody],
        Part::Lock => vec![lock],
        // heat2d_4x8 is timed; every program is checked against the
        // threaded engine at 2 PEs.
        Part::Sim => vec![heat, nbody, lock],
    }
}

fn base(ctx: &Ctx) -> RunConfig {
    RunConfig::new(PES).backend(Backend::Vm).seed(ctx.seed)
}

/// The threaded configurations of a part: (program, config).
fn configs(ctx: &Ctx, part: Part) -> Vec<(usize, RunConfig)> {
    match part {
        Part::Barrier => (0..2)
            .flat_map(|p| BARRIERS.iter().map(move |&b| (p, b)))
            .map(|(p, b)| (p, base(ctx).barrier(b)))
            .collect(),
        Part::Lock => LOCKS.iter().map(|&l| (0, base(ctx).lock(l))).collect(),
        Part::Sim => Vec::new(),
    }
}

struct Ready {
    arts: Vec<Compiled>,
    /// Reference output at 2 PEs of each program: the interpreter's
    /// for the threaded parts, the threaded VM's for the sim.
    want: Vec<Vec<String>>,
    /// The big sim run's config.
    sim: RunConfig,
}

fn setup(ctx: &mut Ctx, part: Part) -> Ready {
    let (mut arts, mut want) = (Vec::new(), Vec::new());
    let reference = if part == Part::Sim { Backend::Vm } else { Backend::Interp };
    for (name, src) in programs(part, ctx.seed) {
        let art = Compiled::new(&src).unwrap_or_else(|e| panic!("{name} must compile: {e}"));
        ctx.ok("vm lowering", art.vm_module().map(|_| ()));
        let r = engine_for(reference).run(&art, &base(ctx).backend(reference));
        want.push(ctx.ok(name, r).map(|r| r.outputs).unwrap_or_default());
        arts.push(art);
    }
    // Warm every threaded config once, or the simulator at a smaller
    // PE count.
    for (p, cfg) in configs(ctx, part) {
        ctx.ok("warm-up run", engine_for(Backend::Vm).run(&arts[p], &cfg));
    }
    let sim = RunConfig::new(SIM_PES)
        .backend(Backend::Sim)
        .clock(ClockMode::Virtual)
        .sim_jobs(ctx.nproc)
        .seed(ctx.seed);
    if part == Part::Sim {
        ctx.ok("sim warm-up", engine_for(Backend::Sim).run(&arts[0], &sim.clone().pes(256)));
    }
    Ready { arts, want, sim }
}

/// Time the threaded configurations for `secs`.
fn threaded(ctx: &mut Ctx, part: Part, r: &Ready, secs: f64, stream: u64) -> f64 {
    let configs = configs(ctx, part);
    let mut samples = vec![Vec::new(); configs.len()];
    let mut rng = Rng::new(ctx.seed, stream);
    let t0 = Instant::now();
    while Ctx::left(t0, secs) {
        for _ in 0..PASSES {
            let mut order: Vec<usize> = (0..configs.len()).collect();
            rng.shuffle(&mut order);
            for i in order {
                let (p, cfg) = &configs[i];
                let t = Instant::now();
                let rep =
                    span("vm.run", *p as u64, || engine_for(Backend::Vm).run(&r.arts[*p], cfg));
                samples[i].push(ms(t.elapsed()));
                if let Some(rep) = ctx.ok("threaded run", rep) {
                    let what =
                        || format!("program {p}: {}/{} output differs", cfg.barrier, cfg.lock);
                    ctx.check(rep.outputs == r.want[*p], what);
                }
            }
        }
    }
    let names = programs(part, ctx.seed);
    let mut meds = Vec::new();
    for ((p, cfg), s) in configs.iter().zip(&samples) {
        let label = match part {
            Part::Lock => format!("{}.{}", names[*p].0, cfg.lock),
            _ => format!("{}.{}", names[*p].0, cfg.barrier),
        };
        meds.push(ctx.row(&label, "ms", s).median);
    }
    let spmd = geomean(&meds);
    let over = if part == Part::Lock { "lock kinds" } else { "programs x barrier kinds" };
    ctx.note(format!("{:<34} {spmd:>12.4} ms    (geomean over {over})", "spmd_run_ms"));
    ctx.e2e.insert("run_ms", spmd);
    spmd
}

/// Time `heat2d_4x8` on the simulator for `secs`; returns its median
/// host wall in ms.
fn simulated(ctx: &mut Ctx, r: &Ready, secs: f64) -> f64 {
    let mut sim_s = Vec::new();
    let mut sim_ref: Option<(Vec<String>, Option<std::time::Duration>)> = None;
    let t0 = Instant::now();
    while Ctx::left(t0, secs) {
        // The simulator must agree with the threaded engine where both
        // run, and repeat itself exactly at scale.
        for (p, art) in r.arts.iter().enumerate() {
            let rep = engine_for(Backend::Sim).run(art, &base(ctx).backend(Backend::Sim));
            if let Some(rep) = ctx.ok("sim run at 2 PEs", rep) {
                ctx.check(rep.outputs == r.want[p], || {
                    format!("sim at 2 PEs disagrees with threaded vm on program {p}")
                });
            }
        }
        let t = Instant::now();
        let rep = span("sim.run", 0, || engine_for(Backend::Sim).run(&r.arts[0], &r.sim));
        sim_s.push(t.elapsed().as_secs_f64());
        if let Some(rep) = ctx.ok("sim run", rep) {
            ctx.sim_runs.push((rep.host_wall.as_nanos() as f64, rep.sim.unwrap_or_default()));
            let got = (rep.outputs, rep.virtual_wall);
            let first = sim_ref.get_or_insert_with(|| got.clone());
            ctx.check(got.0.len() == SIM_PES && *first == got, || {
                "sim run did not repeat".to_string()
            });
        }
    }
    ctx.row(&format!("sim_run_s (heat2d_4x8 @ {SIM_PES} PEs)"), "s", &sim_s);
    let run_ms = median(&sim_s) * 1e3;
    ctx.e2e.insert("run_ms", run_ms);
    run_ms
}

/// The programs as the layer pass sees them.
fn progs(ctx: &Ctx, part: Part) -> Vec<Prog> {
    programs(part, ctx.seed).iter().map(|(name, src)| Prog::new(name, src, base(ctx))).collect()
}

/// Run the workload.
pub fn run(ctx: &mut Ctx, part: Part) {
    let ready = ctx.set_up(|ctx| setup(ctx, part));
    layers::run_passes(ctx, &progs(ctx, part), |ctx, secs, stream| match part {
        Part::Sim => simulated(ctx, &ready, secs),
        _ => threaded(ctx, part, &ready, secs, stream),
    });
}
