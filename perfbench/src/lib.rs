//! The repository benchmark: seeded `kernels_*`, `spmd_*` and
//! `playground` workloads that time calls into each crate's public
//! functions from the outside. See `README.md` in this directory.

pub mod ctx;
pub mod gen;
pub mod kernels;
pub mod layers;
pub mod loadgen;
pub mod manifest;
pub mod oracle;
pub mod playground;
pub mod serve;
pub mod span;
pub mod spmd;
pub mod stats;

use std::time::Instant;

use ctx::Ctx;
use lolcode::Backend;

/// Run workload `name` and return its context, or an error for an
/// unknown name.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    started: Instant,
) -> Result<Ctx, String> {
    let mut ctx = Ctx::new(name, seed, seconds, trace, started);
    match name {
        "kernels_interp" => kernels::run(&mut ctx, kernels::Kind::Run(Backend::Interp)),
        "kernels_vm" => kernels::run(&mut ctx, kernels::Kind::Run(Backend::Vm)),
        "kernels_c" => kernels::run(&mut ctx, kernels::Kind::Run(Backend::C)),
        "kernels_c_build" => kernels::run(&mut ctx, kernels::Kind::ColdBuild),
        "spmd_barrier" => spmd::run(&mut ctx, spmd::Part::Barrier),
        "spmd_lock" => spmd::run(&mut ctx, spmd::Part::Lock),
        "spmd_sim" => spmd::run(&mut ctx, spmd::Part::Sim),
        "playground" => playground::run(&mut ctx),
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(ctx)
}
