//! `playground`: an in-process `lold` with one worker per core, driven
//! as an open loop by one generator thread over one keep-alive
//! connection per core. Students are independent users, so requests
//! arrive on a seeded Poisson schedule whatever the server is doing.
//!
//! The seeded mix: mostly hot `/run` sources (cache hits); fresh
//! seeded variants, more distinct ones than the cache holds (compile,
//! insert, evict); perfetto `/trace` (large responses stress the write
//! path); a few small `/sweep`s; and a `/metrics` scrape every second.
//! A traced run also climbs a ladder of rates to find the highest one
//! whose p99 meets the latency limit without a growing backlog.

use std::net::SocketAddr;
use std::time::Duration;

use lolcode::corpus;
use lolcode::{Backend, ClockMode, RunConfig};

use crate::ctx::{Ctx, SETUPS};
use crate::gen::{variant_program, Rng};
use crate::layers::{self, Prog};
use crate::serve::{self, Kind, Req};
use crate::span;
use crate::stats::{median, Summary};

/// Offered rate of the fixed-rate session, requests per second. Like
/// the mix's shares, an assumption rather than a measured class load.
const RATE: f64 = 50.0;
/// Share of a traced run's measuring time spent at [`RATE`]; the rest
/// is the ladder, which only the traced run climbs (`serve.max_rps` is
/// a per-layer metric).
const TRACED_FIXED_SHARE: f64 = 0.7;
/// The rate ladder, requests per second.
const RUNGS: [f64; 5] = [100.0, 200.0, 350.0, 550.0, 800.0];
/// p99 latency limit a rung must meet.
const LIMIT_MS: f64 = 100.0;
/// Seconds between two `/metrics` scrapes.
const SCRAPE_EVERY: f64 = 1.0;

/// How many of the [`hot`] programs are light; the last one is heavy.
const LIGHT: usize = 4;

/// The hot programs students keep re-running, each under the
/// configuration they run it with.
fn hot(ctx: &Ctx) -> Vec<Prog> {
    let cfg = |b: Backend, n: usize| RunConfig::new(n).backend(b).seed(ctx.seed);
    vec![
        Prog::new("hello", corpus::HELLO_PARALLEL, cfg(Backend::Vm, 4)),
        Prog::new("ring", corpus::RING_EXAMPLE, cfg(Backend::Vm, 4)),
        Prog::new("barrier", corpus::BARRIER_EXAMPLE, cfg(Backend::Interp, 4)),
        Prog::new("locks", corpus::LOCKS_EXAMPLE, cfg(Backend::Vm, 2)),
        Prog::new(
            "heat2d_4x8",
            include_str!("../../corpus/heat2d_4x8.lol"),
            cfg(Backend::Sim, 8).clock(ClockMode::Virtual),
        ),
    ]
}

/// The perfetto trace request: `heat2d_4x8` at 8 PEs on the simulator
/// (one thread, so its latency does not hang on how 8 spinning PE
/// threads share two cores).
fn trace_prog(ctx: &Ctx) -> Prog {
    let cfg = RunConfig::new(8).backend(Backend::Sim).clock(ClockMode::Virtual).seed(ctx.seed);
    Prog::new("heat2d_4x8", include_str!("../../corpus/heat2d_4x8.lol"), cfg)
}

/// The sweep request: hello world over `pes=1,2,4` on the VM.
fn sweep_prog(ctx: &Ctx) -> Prog {
    let cfg = RunConfig::new(1).backend(Backend::Vm).clock(ClockMode::Virtual).seed(ctx.seed);
    Prog::new("hello", corpus::HELLO_PARALLEL, cfg)
}

/// A fresh student variant.
fn variant(ctx: &Ctx, idx: u64) -> Prog {
    let b = if idx.is_multiple_of(3) { Backend::Interp } else { Backend::Vm };
    let cfg = RunConfig::new(1 + (idx % 4) as usize).backend(b).seed(ctx.seed);
    Prog::new(&format!("variant{idx}"), &variant_program(ctx.seed, idx), cfg)
}

/// A seeded Poisson schedule of the request mix at `rate` for `secs`.
/// Variant indices start at `first_variant`, so no two sessions of a
/// run share a variant.
fn mix(
    ctx: &Ctx,
    stream: u64,
    rate: f64,
    secs: f64,
    first_variant: u64,
) -> (Vec<Req>, Vec<Duration>) {
    let mut rng = Rng::new(ctx.seed, stream);
    let hot: Vec<Req> = hot(ctx).iter().map(|p| Req::of(Kind::Run, p)).collect();
    let trace = Req::of(Kind::Trace, &trace_prog(ctx));
    let sweep = Req::of(Kind::Sweep, &sweep_prog(ctx));
    let (mut reqs, mut dues) = (Vec::new(), Vec::new());
    let (mut t, mut scrape_at, mut variants) = (0.0, SCRAPE_EVERY / 2.0, first_variant);
    while t < secs {
        if t >= scrape_at {
            reqs.push(Req::metrics());
            dues.push(Duration::from_secs_f64(scrape_at));
            scrape_at += SCRAPE_EVERY;
        }
        // The shares are unverified assumptions, not measured traffic:
        // no access log of student use exists to take them from. They
        // only fill in the qualitative mix — mostly hot reads, some
        // fresh variants, a few traces and sweeps — so the median is a
        // cheap request's latency and the heavy ones make up the
        // slowest tenth. Replace them with shares from a `lold
        // --access-log` once such a log is available.
        let u = rng.unit();
        let req = if u < 0.66 {
            hot[rng.range(0, LIGHT as u64) as usize].clone()
        } else if u < 0.72 {
            hot[LIGHT].clone()
        } else if u < 0.90 {
            variants += 1;
            Req::of(Kind::Run, &variant(ctx, variants))
        } else if u < 0.95 {
            trace.clone()
        } else {
            sweep.clone()
        };
        reqs.push(req);
        dues.push(Duration::from_secs_f64(t));
        t += -(1.0 - rng.unit()).ln() / rate;
    }
    (reqs, dues)
}

/// Boot `lold` and warm its cache with every hot request.
fn setup(ctx: &mut Ctx) -> lol_serve::Server {
    let server = serve::boot(ctx);
    let mut warm: Vec<Req> = hot(ctx).iter().map(|p| Req::of(Kind::Run, p)).collect();
    warm.push(Req::of(Kind::Trace, &trace_prog(ctx)));
    warm.push(Req::of(Kind::Sweep, &sweep_prog(ctx)));
    if let Some(outs) = ctx.ok("warm-up", serve::send_each(server.addr(), &warm)) {
        for o in outs {
            ctx.check(o.status == 200, || format!("warm-up answered {}", o.status));
        }
    }
    server
}

/// Nearest-rank percentile `pct` of `v`.
fn nearest_rank(v: &[f64], pct: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let idx = (pct / 100.0 * s.len() as f64).ceil() as usize;
    s.get(idx.clamp(1, s.len().max(1)) - 1).copied().unwrap_or(0.0)
}

/// Climb the rate ladder; return the achieved throughput at the highest
/// rung that meets the limit without a growing backlog.
fn ladder(ctx: &mut Ctx, addr: SocketAddr, secs: f64, stream: u64) -> f64 {
    let mut best = 0.0;
    for (k, &rate) in RUNGS.iter().enumerate() {
        let per = secs / RUNGS.len() as f64;
        let (reqs, dues) =
            mix(ctx, stream * 100 + k as u64, rate, per, (stream * 100 + k as u64) << 32);
        let Some(live) = serve::session(ctx, addr, reqs, &dues, false) else { break };
        serve::verify(ctx, &live, false);
        // A backlog that keeps growing shows as latency climbing from
        // the first third of the rung to the last.
        let lat = live.latencies();
        let third = (lat.len() / 3).max(1);
        let (first, last) = (median(&lat[..third]), median(&lat[lat.len() - third..]));
        let growing = last - first > LIMIT_MS / 4.0;
        let achieved = lat.len() as f64 / live.wall.as_secs_f64();
        let p = nearest_rank(&lat, 99.0);
        ctx.note(format!(
            "ladder {rate:>6.0}/s: achieved {achieved:>8.2}/s, p99 {p:>9.3} ms, third medians {first:.3}->{last:.3} ms{}",
            if growing { " (backlog growing)" } else { "" }
        ));
        if p > LIMIT_MS || growing {
            break;
        }
        best = achieved;
    }
    best
}

fn measure(ctx: &mut Ctx, server: &lol_serve::Server, secs: f64, stream: u64) -> f64 {
    let addr = server.addr();
    let traced = span::armed();
    let fixed = if ctx.trace { TRACED_FIXED_SHARE } else { 1.0 };
    let (reqs, dues) = mix(ctx, stream, RATE, secs * fixed, stream << 40);
    let Some(live) = serve::session(ctx, addr, reqs, &dues, traced || !ctx.trace) else {
        return 0.0;
    };
    serve::verify(ctx, &live, traced);
    ctx.serve_done = true;
    let lat = live.latencies();
    for kind in [Kind::Run, Kind::Trace, Kind::Sweep, Kind::Metrics] {
        let v: Vec<f64> = live
            .reqs
            .iter()
            .zip(&live.outcomes)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, o)| crate::ctx::ms(o.latency))
            .collect();
        ctx.row(&format!("latency {kind:?}"), "ms", &v);
    }
    let s: Summary = ctx.row("serve_p50_ms (all student requests)", "ms", &lat);
    let (p90, p99) = (nearest_rank(&lat, 90.0), nearest_rank(&lat, 99.0));
    ctx.note(format!("{:<34} {p99:>12.4} ms    (nearest rank, n={})", "serve_p99_ms", lat.len()));
    ctx.note(format!("{:<34} {p90:>12.4} ms    (nearest rank, n={})", "serve_p90_ms", lat.len()));
    if ctx.trace {
        let max_rps = ladder(ctx, addr, secs * (1.0 - fixed), stream);
        ctx.note(format!(
            "{:<34} {max_rps:>12.4} 1/s   (achieved at the highest passing rung)",
            "serve_max_rps"
        ));
        ctx.layers.insert("serve.max_rps", max_rps);
    }
    ctx.e2e.insert("run_ms", s.median);
    s.median
}

/// The programs as the layer pass sees them: the hot set and two variants.
fn progs(ctx: &Ctx) -> Vec<Prog> {
    let mut v = hot(ctx);
    v.push(variant(ctx, 1));
    v.push(variant(ctx, 2));
    v
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            lol_serve::Server::shutdown(s);
        }
        server = Some(ctx.setup(setup));
    }
    let server = server.expect("set up at least once");
    layers::run_passes(ctx, &progs(ctx), |ctx, secs, stream| measure(ctx, &server, secs, stream));
    server.shutdown();
}
