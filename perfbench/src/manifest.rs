//! What the benchmark measures: its workloads, its end-to-end metrics
//! with their bounds, and its per-layer metrics with the end-to-end
//! metric and workload each should move. `BENCHMARK.json` at the root
//! of the repository is [`manifest_json`] verbatim.

/// A workload and why it was chosen.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
}

/// The workloads `BENCHMARK.json` gates: one per backend or
/// communication mechanism, so a change to one is not averaged with
/// the others. The binary also runs `playground` (see README.md): its
/// latencies moved by up to 2x between runs on a shared 2-core host,
/// wider than any bound allows.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "kernels_interp",
        why: "nbody_bench and heat2d_bench at 1 PE on the interpreter: compute-bound, >99% exec, no remote comm; tree-walker gains show, comm/sim/serve changes read flat",
    },
    Workload {
        name: "kernels_vm",
        why: "the same two bench programs at 1 PE on the bytecode VM: dispatch and typed-lowering gains show here",
    },
    Workload {
        name: "kernels_c",
        why: "warm runs of the two bench programs' C binaries at 1 PE: the quality of the generated C shows here",
    },
    Workload {
        name: "kernels_c_build",
        why: "cold emit_c + cc of the two bench programs on a fresh artifact: what a student waits for on a first C run",
    },
    Workload {
        name: "spmd_barrier",
        why: "heat2d_4x8 (halo + barriers) and nbody_32x10 (remote reads) on threaded vm at 2 PEs over central and dissemination barriers: tiny per-PE work, so substrate costs dominate",
    },
    Workload {
        name: "spmd_lock",
        why: "a seeded lock-contention program (no corpus program takes a lock) on threaded vm at 2 PEs over cas and ticket locks: lock acquire and release dominate",
    },
    Workload {
        name: "spmd_sim",
        why: "heat2d_4x8 on the simulator at 4096 PEs, virtual clock, sim_jobs = cores: host cost of simulating thousands of PEs, bound by the scheduler and VM dispatch",
    },
];

/// An end-to-end metric, reported by every workload.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it is on each workload.
    pub meaning: &'static str,
}

/// The end-to-end metrics (all "lower is better").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "run_ms",
        unit: "ms",
        bound: 0.25,
        meaning: "the workload's one timed figure — kernels_interp: interp_run_ms; kernels_vm: \
                  vm_run_ms; kernels_c: c_run_ms; kernels_c_build: c_build_ms (each a geomean \
                  over nbody_bench and heat2d_bench); spmd_barrier, spmd_lock: spmd_run_ms over \
                  their configurations; spmd_sim: sim_run_s in ms; playground: serve_p50_ms",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
        meaning: "VmHWM of the process running the workload",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        meaning: "start to the first timed operation: median of the set-ups in a run; only the \
                  first includes process start",
    },
];

/// A per-layer metric, reported by every workload's traced run.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const FRONT: &str = "setup_s on every workload, and serve_p99_ms on playground where cache \
                     misses pay for it; not run_ms on kernels_* (front end ~0.35 ms of runs of \
                     hundreds of ms)";
const VM: &str = "run_ms on kernels_vm and spmd_sim (the sim is bound by VM dispatch); \
                  serve_p50_ms on playground";
const C: &str = "run_ms on kernels_c and kernels_c_build; no other workload runs C";
const LOCAL: &str =
    "run_ms on kernels_vm and kernels_interp: 1-PE shared arrays go through the substrate";
const REMOTE: &str = "run_ms on spmd_barrier; nothing on playground";
const LOCK: &str = "run_ms on spmd_lock; nothing on playground";
const SIM: &str = "run_ms on spmd_sim; serve_p50_ms on playground";
const PLAY: &str = "serve_p99_ms on playground only (not in BENCHMARK.json); flat on the gated \
                    workloads";
const SERVE: &str = "serve_p50_ms and serve_p99_ms on playground only (not in BENCHMARK.json); \
                     flat on the gated workloads, whose traced runs replay a small lold session";

/// The per-layer metrics. Program-specific rows (`vm.ns_per_op.<program>`
/// and friends) are printed in the human-readable report; here each is
/// the geometric mean over the workload's programs.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("lexer.mb_per_s", "MB/s", "higher", FRONT),
    layer("lexer.tokens", "count", "lower", FRONT),
    layer("parser.mb_per_s", "MB/s", "higher", FRONT),
    layer("sema.us", "us", "lower", FRONT),
    layer("vm.compile_us", "us", "lower", FRONT),
    layer("vm.code_ops", "count", "lower", FRONT),
    layer("core.compile_us", "us", "lower", FRONT),
    layer("vm.ns_per_op", "ns", "lower", VM),
    layer("vm.ops", "count", "lower", VM),
    layer("vm.super_bp", "bp", "higher", VM),
    layer("interp.run_ms", "ms", "lower", "run_ms on kernels_interp only"),
    layer("codegen.emit_us", "us", "lower", C),
    layer("codegen.cc_ms", "ms", "lower", C),
    layer("codegen.c_bytes", "bytes", "lower", C),
    layer("c.run_ms", "ms", "lower", C),
    layer("shmem.get_ns.local", "ns", "lower", LOCAL),
    layer("shmem.put_ns.local", "ns", "lower", LOCAL),
    layer("shmem.get_ns.remote", "ns", "lower", REMOTE),
    layer("shmem.put_ns.remote", "ns", "lower", REMOTE),
    layer("shmem.barrier_ns.central", "ns", "lower", REMOTE),
    layer("shmem.barrier_ns.dissem", "ns", "lower", REMOTE),
    layer("shmem.lock_ns.cas", "ns", "lower", LOCK),
    layer("shmem.lock_ns.ticket", "ns", "lower", LOCK),
    layer("shmem.comm_ops", "count", "lower", "run_ms on spmd_barrier and spmd_lock"),
    layer("sim.ns_per_event", "ns", "lower", SIM),
    layer("sim.events", "count", "lower", SIM),
    layer("sim.barrier_episodes", "count", "lower", SIM),
    layer("sim.merge_windows", "count", "lower", SIM),
    layer("sim.heap_peak", "count", "lower", SIM),
    layer("core.admit_us", "us", "lower", PLAY),
    layer("core.render_us", "us", "lower", PLAY),
    layer("trace.perfetto_ms", "ms", "lower", PLAY),
    layer("trace.perfetto_bytes", "bytes", "lower", PLAY),
    layer("serve.http_parse_us", "us", "lower", SERVE),
    layer("serve.json_parse_us", "us", "lower", SERVE),
    layer("serve.api_parse_us", "us", "lower", SERVE),
    layer("serve.cache_get_us.hit", "us", "lower", SERVE),
    layer("serve.cache_get_us.miss", "us", "lower", SERVE),
    layer("serve.cache_hit_ratio", "ratio", "higher", SERVE),
    layer("serve.cache_hits", "count", "higher", SERVE),
    layer("serve.cache_lookups", "count", "lower", SERVE),
    layer("serve.cache_evictions", "count", "lower", SERVE),
    layer("serve.exec_ms", "ms", "lower", SERVE),
    layer("serve.write_us", "us", "lower", SERVE),
    layer("serve.transport_ms", "ms", "lower", SERVE),
    layer("serve.gen_late_ms", "ms", "lower", SERVE),
    layer("serve.server_errors", "count", "lower", SERVE),
    layer("obs.scrape_ms", "ms", "lower", SERVE),
    layer("bench.trace_overhead_pct", "%", "lower", "none: traced minus untraced run_ms"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// The benchmark's `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
