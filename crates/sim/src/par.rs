//! The sharded scheduler: barrier-to-barrier windows in parallel.
//!
//! ## Why whole windows are safe to parallelize
//!
//! Corpus programs are compute → remote-ops → barrier structured, and
//! the simulator's virtual clocks never gate heap visibility (a put
//! lands when the event executes, not when its latency elapses — the
//! same contract as the threaded world). So the conservative
//! time-window of classic parallel discrete-event simulation
//! degenerates here to the *barrier episode*: between two episode
//! boundaries no PE can be woken by another (locks are excluded, see
//! below), which makes every PE's segment independent of the others'
//! scheduling inside the window.
//!
//! Each phase runs one segment per live PE, sharded across workers by
//! a [`ShardPlan`]; a single-threaded merge then settles the window
//! boundary: it claims collective allocations in canonical PE order,
//! advances the release clock, and re-opens every shard. The merge
//! sees per-shard "inboxes" — arrival records, allocation requests,
//! and errors — and processes them in canonical `(t_ns, tie, pe)`
//! order, which within a window (all arrivals share the window's
//! release time, and the tie-break is the PE id) is just ascending PE.
//! That makes every merge decision — error attribution, allocation
//! offsets, the episode's synchronized clock — identical to the
//! sequential scheduler's, which is how `jobs = N` stays
//! byte-identical to `jobs = 1`.
//!
//! ## One substrate, two schedulers
//!
//! There is no sharded substrate of its own: the workers drive the
//! same `SimPe` handle, per-PE SoA state (`ShardLocal`) and heap store
//! (`World`) that the sequential scheduler uses — it simply holds one
//! shard spanning every PE. The accounting, allocation and fault
//! rules behind them come from `lol_shmem::rules`, shared with the
//! threaded world.
//!
//! ## Determinism argument
//!
//! On a data-race-free program no PE reads a word written by another
//! PE in the same episode, so each segment's observables (output,
//! stats, trace events, clock advance) are a pure function of the
//! heap state at the window boundary plus the PE's own state — both
//! independent of worker interleaving. Racy programs get the threaded
//! world's contract instead: unspecified *values*, never tearing,
//! never undefined behaviour (the heap is `AtomicU64`, this crate
//! stays `forbid(unsafe_code)`).
//!
//! ## Locks
//!
//! Lock hand-off order is defined by the *global* event order, which
//! workers cannot observe mid-window, so modules containing lock
//! opcodes never take this path — [`crate::run_module`] detects them
//! statically and uses the sequential scheduler, whatever `sim_jobs`
//! says.

use crate::substrate::{deadlock, report, Shard, World};
use crate::{SchedStats, SimReport};
use lol_shmem::shard::ShardPlan;
use lol_shmem::{ShmemConfig, SpmdError};
use lol_vm::machine::Machine;
use lol_vm::Module;

/// One shard's phase: run one segment per live member, in ascending
/// member order, stopping at the first error.
fn run_phase<'m>(
    shard: &mut Shard<'m>,
    world: &World,
    cfg: &ShmemConfig,
    module: &'m Module,
    input: &'m [String],
) {
    if shard.machines.is_empty() {
        shard.machines = shard.members.iter().map(|_| Machine::new(module, input)).collect();
    }
    for li in 0..shard.members.len() {
        if shard.local.get_mut().done[li] {
            continue;
        }
        if let Err(message) = shard.resume(li, world, cfg, None) {
            shard.local.get_mut().error = Some((shard.members[li], message));
            break;
        }
    }
}

/// Run `module` under `plan`, one worker thread per shard per phase.
/// Callers guarantee `plan.jobs() > 1` and a lock-free module.
pub(crate) fn run_sharded(
    module: &Module,
    cfg: &ShmemConfig,
    input: &[String],
    plan: &ShardPlan,
) -> Result<SimReport, SpmdError> {
    let mut world = World::new(cfg)?;
    let n = cfg.n_pes;
    debug_assert_eq!(plan.n_pes(), n);
    debug_assert!(plan.jobs() > 1);
    let mut shards: Vec<Shard<'_>> =
        (0..plan.jobs()).map(|s| Shard::new(plan.members(s), cfg)).collect();
    let mut sched = SchedStats::default();
    loop {
        // ---- phase: one segment per live PE, sharded ----
        std::thread::scope(|scope| {
            let world = &world;
            for shard in shards.iter_mut().filter(|s| !s.members.is_empty()) {
                scope.spawn(move || run_phase(shard, world, cfg, module, input));
            }
        });
        // ---- merge: settle the window boundary, single-threaded ----
        sched.merge_windows += 1;
        let mut arrivals = 0usize;
        let mut arrive_max = 0u64;
        let mut first_arrival: Option<(usize, bool)> = None;
        let mut done_total = 0usize;
        let mut fault: Option<(usize, String)> = None;
        let mut reqs: Vec<(u32, usize, usize)> = Vec::new();
        for shard in &mut shards {
            let l = shard.local.get_mut();
            arrivals += l.arrivals;
            arrive_max = arrive_max.max(l.arrive_max);
            done_total += l.done_count;
            if let Some(a) = l.first_arrival {
                if first_arrival.is_none_or(|b| a.0 < b.0) {
                    first_arrival = Some(a);
                }
            }
            if let Some(e) = l.error.take() {
                if fault.as_ref().is_none_or(|f| e.0 < f.0) {
                    fault = Some(e);
                }
            }
            reqs.append(&mut l.alloc_reqs);
        }
        // Allocation requests are claimed in canonical PE order — the
        // exact call order the sequential scheduler sees — so
        // mismatch/exhaustion faults attribute identically. A phase
        // fault and an allocation fault race for the smaller PE, like
        // the sequential scheduler stopping at the first faulting
        // segment.
        reqs.sort_unstable_by_key(|&(_, pe, _)| pe);
        for (seq, pe, words) in reqs {
            if fault.as_ref().is_some_and(|f| f.0 < pe) {
                break;
            }
            if let Err(message) = world.alloc.claim(seq as usize, pe, words, cfg.heap_words) {
                fault = Some((pe, message));
                break;
            }
        }
        if let Some((pe, message)) = fault {
            return Err(SpmdError { pe, message });
        }
        if done_total == n {
            break;
        }
        if arrivals < n {
            // Partial arrival with unfinished PEs: the job can never
            // make progress again — the sequential scheduler's
            // drained-queue deadlock, at the same first unfinished PE.
            return Err(deadlock(&mut shards));
        }
        // Episode complete: release every PE through the window clock.
        debug_assert_eq!(done_total, 0, "a done PE cannot also arrive");
        sched.barrier_episodes += 1;
        world.release(arrive_max, first_arrival.is_some_and(|(_, e)| e));
        for shard in &mut shards {
            shard.release();
        }
    }
    Ok(report(shards, n, sched))
}
