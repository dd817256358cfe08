//! Driving `lold`: live open-loop sessions against an in-process
//! server, and the in-process replay of the same requests through the
//! public `lol_serve`/`lolcode` functions that the server calls.
//!
//! The replay is both the correctness oracle (every served `/run` body
//! must equal `run_report_json` of the same request computed in
//! process) and, in a traced run, the source of the serve per-layer
//! numbers: its spans give each layer's self time, and client latency
//! minus the replay's time for the same request is the transport time.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use lol_obs::{parse_exposition, sample_value};
use lol_serve::cache::ArtifactCache;
use lol_serve::{api, http, json, ServeConfig, Server};
use lolcode::service::{run_report_json, Quotas};
use lolcode::{engine_for, Backend, ClockMode, RunConfig, SweepSpec};

use crate::ctx::{ms, Ctx};
use crate::gen::variant_program;
use crate::layers::Prog;
use crate::loadgen::{self, request_bytes, Outcome, Planned};
use crate::span::{self, span, span_as, Span};
use crate::stats::{median, tail};

/// Artifact-cache capacity of the benchmark's `lold`.
pub const CACHE: usize = 16;
/// Span ids of replayed requests start here, clear of program ids.
const REQ_BASE: u64 = 1 << 20;
/// How long a session may take to drain after its last due time.
const DRAIN: Duration = Duration::from_secs(60);

/// A request kind (route).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /run`.
    Run,
    /// `POST /trace` with `format: perfetto`.
    Trace,
    /// `POST /sweep`.
    Sweep,
    /// `GET /metrics`.
    Metrics,
}

/// One request of a session.
#[derive(Clone, Debug)]
pub struct Req {
    /// Route.
    pub kind: Kind,
    /// JSON body (empty for `/metrics`).
    pub body: String,
}

impl Req {
    fn path(&self) -> &'static str {
        match self.kind {
            Kind::Run => "/run",
            Kind::Trace => "/trace",
            Kind::Sweep => "/sweep",
            Kind::Metrics => "/metrics",
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let method = if self.kind == Kind::Metrics { "GET" } else { "POST" };
        request_bytes(method, self.path(), self.body.as_bytes())
    }

    fn planned(&self, due: Duration) -> Planned {
        let keep = if self.kind == Kind::Trace { keep_render } else { keep_body };
        Planned { due, bytes: self.bytes(), keep }
    }

    /// `GET /metrics`.
    pub fn metrics() -> Req {
        Req { kind: Kind::Metrics, body: String::new() }
    }

    /// A request running `p` under its configuration.
    pub fn of(kind: Kind, p: &Prog) -> Req {
        let c = &p.cfg;
        let mut body = format!(
            "{{\"source\": \"{}\", \"backend\": \"{}\", \"pes\": {}, \"seed\": {}, \"barrier\": \"{}\", \"lock\": \"{}\", \"clock\": \"{}\", \"sim_jobs\": {}",
            json::escape(&p.src),
            c.backend,
            c.n_pes,
            c.seed,
            c.barrier,
            c.lock,
            c.clock,
            c.sim_jobs
        );
        match kind {
            Kind::Trace => body.push_str(", \"format\": \"perfetto\""),
            Kind::Sweep => body.push_str(", \"spec\": \"pes=1,2,4\""),
            Kind::Run | Kind::Metrics => {}
        }
        body.push('}');
        Req { kind, body }
    }
}

/// FNV-1a digest of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Keep a whole body (small bodies: `/run`, `/sweep`, `/metrics`).
fn keep_body(body: &[u8]) -> Vec<u8> {
    body.to_vec()
}

/// Keep the digest of a `/trace` body's escaped `render` string: the
/// bodies run to hundreds of KB, and only the rendering is compared.
fn keep_render(body: &[u8]) -> Vec<u8> {
    fnv(render_field(body).unwrap_or(b"")).to_le_bytes().to_vec()
}

/// The escaped contents of the `"render"` string of a JSON body,
/// found by scanning, not parsing: the JSON parser's string scan is
/// quadratic in the string's length.
fn render_field(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"render\": \"";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let mut i = start;
    while i < body.len() {
        match body[i] {
            b'\\' => i += 2,
            b'"' => return Some(&body[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// Start the benchmark's `lold`: one worker per core.
pub fn boot(ctx: &Ctx) -> Server {
    let cfg = ServeConfig { workers: ctx.nproc, cache_capacity: CACHE, ..ServeConfig::default() };
    Server::start(cfg).expect("lold binds a localhost port")
}

/// Counters read from one `/metrics` scrape.
#[derive(Clone, Copy, Debug, Default)]
struct Scrape {
    routes: [f64; 3],
    errors: f64,
    rejected: f64,
    queue_depth: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
}

fn scrape_of(body: &[u8]) -> Option<Scrape> {
    let samples = parse_exposition(std::str::from_utf8(body).ok()?).ok()?;
    let v =
        |name: &str, labels: &[(&str, &str)]| sample_value(&samples, name, labels).unwrap_or(0.0);
    Some(Scrape {
        routes: ["run", "trace", "sweep"].map(|r| v("lold_requests_total", &[("route", r)])),
        errors: v("lold_errors_total", &[]),
        rejected: v("lold_rejected_total", &[("status", "429")])
            + v("lold_rejected_total", &[("status", "503")]),
        queue_depth: v("lold_queue_depth", &[]),
        hits: v("lold_cache_hits_total", &[]),
        misses: v("lold_cache_misses_total", &[]),
        evictions: v("lold_cache_evictions_total", &[]),
    })
}

/// Send `reqs` one after another (each once the previous has answered)
/// and return the outcomes; used to warm and to scrape.
pub fn send_each(addr: SocketAddr, reqs: &[Req]) -> std::io::Result<Vec<Outcome>> {
    let mut out = Vec::new();
    for r in reqs {
        let plan = [r.planned(Duration::ZERO)];
        out.extend(loadgen::run(addr, 1, &plan, DRAIN)?);
    }
    Ok(out)
}

fn scrape(ctx: &mut Ctx, addr: SocketAddr) -> Scrape {
    let got = send_each(addr, &[Req::metrics()]);
    let s = ctx.ok("scrape /metrics", got).and_then(|o| scrape_of(&o[0].kept));
    ctx.check(s.is_some(), || "/metrics did not parse".to_string());
    s.unwrap_or_default()
}

/// What a live session measured.
pub struct Live {
    /// The requests, in plan order.
    pub reqs: Vec<Req>,
    /// Their outcomes.
    pub outcomes: Vec<Outcome>,
    /// Wall from the first due time to the last response.
    pub wall: Duration,
}

impl Live {
    /// Latencies (ms, from the due time) of the student requests
    /// (everything but `/metrics`).
    pub fn latencies(&self) -> Vec<f64> {
        self.reqs
            .iter()
            .zip(&self.outcomes)
            .filter(|(r, _)| r.kind != Kind::Metrics)
            .map(|(_, o)| ms(o.latency))
            .collect()
    }
}

/// Run one open-loop session of `reqs` due at `dues` over `nproc`
/// connections, bracketed by two scrapes whose deltas must match what
/// the client sent and saw. Records the live serve counters.
pub fn session(
    ctx: &mut Ctx,
    addr: SocketAddr,
    reqs: Vec<Req>,
    dues: &[Duration],
    record: bool,
) -> Option<Live> {
    let before = scrape(ctx, addr);
    let plan: Vec<Planned> = reqs.iter().zip(dues).map(|(r, &due)| r.planned(due)).collect();
    let t = Instant::now();
    let outcomes = ctx.ok("open-loop session", loadgen::run(addr, ctx.nproc, &plan, DRAIN))?;
    let wall = t.elapsed();
    let after = scrape(ctx, addr);
    let errors = outcomes.iter().filter(|o| o.status != 200).count() as f64;
    for (r, o) in reqs.iter().zip(&outcomes) {
        ctx.check(o.status == 200, || format!("{} answered {}", r.path(), o.status));
    }
    let sent = [Kind::Run, Kind::Trace, Kind::Sweep]
        .map(|k| reqs.iter().filter(|r| r.kind == k).count() as f64);
    for (i, route) in ["run", "trace", "sweep"].iter().enumerate() {
        let delta = after.routes[i] - before.routes[i];
        ctx.check(delta == sent[i], || {
            format!("/metrics counts {delta} {route} requests, client sent {}", sent[i])
        });
    }
    let err_delta = after.errors - before.errors;
    ctx.check(err_delta == errors, || {
        format!("/metrics counts {err_delta} errors, client saw {errors}")
    });
    let split = outcomes.iter().filter(|o| !o.one_write).count();
    if split > 0 {
        ctx.note(format!("{split} of {} requests did not go out in one write", outcomes.len()));
    }
    if !record {
        return Some(Live { reqs, outcomes, wall });
    }
    let mut depth = before.queue_depth.max(after.queue_depth);
    for (r, o) in reqs.iter().zip(&outcomes) {
        if r.kind == Kind::Metrics {
            depth = depth.max(scrape_of(&o.kept).map_or(0.0, |s| s.queue_depth));
        }
    }
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    let l = &mut ctx.layers;
    l.insert("serve.cache_hits", hits);
    l.insert("serve.cache_lookups", lookups);
    l.insert("serve.cache_hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
    l.insert("serve.cache_evictions", after.evictions - before.evictions);
    l.insert("serve.rejected", after.rejected - before.rejected);
    l.insert("serve.server_errors", err_delta);
    l.insert("serve.queue_depth_max", depth);
    let late: Vec<f64> = outcomes.iter().map(|o| ms(o.late)).collect();
    let late_tail =
        tail(&late).map_or_else(|| late.iter().copied().fold(0.0, f64::max), |(_, v)| v);
    l.insert("serve.gen_late_ms", late_tail);
    let scrapes: Vec<f64> = reqs
        .iter()
        .zip(&outcomes)
        .filter(|(r, _)| r.kind == Kind::Metrics)
        .map(|(_, o)| ms(o.latency))
        .collect();
    l.insert("obs.scrape_ms", median(&scrapes));
    Some(Live { reqs, outcomes, wall })
}

/// The in-process twin of the server's request path.
struct Replayer {
    cache: ArtifactCache,
    quotas: Quotas,
    budget: usize,
}

/// What the replay of one request computed.
enum Expect {
    /// The exact response body (`/run`, `/sweep`).
    Body(String),
    /// The `render` field of a `/trace` response.
    Render(String),
    /// Nothing to compare (`/metrics`).
    None,
}

impl Replayer {
    /// A replayer with a cache shaped like the server's.
    fn new(ctx: &Ctx) -> Replayer {
        Replayer { cache: ArtifactCache::new(CACHE), quotas: Quotas::default(), budget: ctx.nproc }
    }

    fn cache_get(
        &self,
        i: u64,
        source: &str,
        dialect: &str,
    ) -> Option<std::sync::Arc<lolcode::Compiled>> {
        span_as(i, || {
            let hits = self.cache.stats().hits;
            let r = self.cache.get(source, dialect).ok();
            let name = if self.cache.stats().hits > hits {
                "serve.cache_get.hit"
            } else {
                "serve.cache_get.miss"
            };
            (r, name)
        })
    }

    /// Replay one request through the public functions `lold` calls.
    fn replay(&self, i: u64, req: &Req) -> Option<Expect> {
        let bytes = req.bytes();
        let parsed = span("serve.http_parse", i, || {
            http::read_request(&mut &bytes[..], self.quotas.max_body_bytes)
        });
        let request = parsed.ok()??;
        if req.kind == Kind::Metrics {
            return Some(Expect::None);
        }
        let text = std::str::from_utf8(&request.body).ok()?;
        let body = span("serve.json_parse", i, || json::parse(text)).ok()?;
        let expect = match req.kind {
            Kind::Run => {
                let rr = span("serve.api_parse", i, || api::parse_run(&body)).ok()?;
                let cfg = span("core.admit", i, || self.quotas.admit(&rr.cfg)).ok()?;
                let art = self.cache_get(i, &rr.source, &rr.dialect)?;
                let report =
                    span("serve.exec", i, || engine_for(cfg.backend).run(&art, &cfg)).ok()?;
                self.quotas.check_report(&report).ok()?;
                let out = span("core.render", i, || run_report_json(&report, rr.timing));
                Expect::Body(out)
            }
            Kind::Trace => {
                let tr = span("serve.api_parse", i, || api::parse_trace(&body)).ok()?;
                let cfg = span("core.admit", i, || self.quotas.admit(&tr.run.cfg)).ok()?;
                let art = self.cache_get(i, &tr.run.source, &tr.run.dialect)?;
                let report =
                    span("serve.exec", i, || engine_for(cfg.backend).run(&art, &cfg)).ok()?;
                let render =
                    span("trace.perfetto", i, || report.trace.as_ref().map(|t| t.to_perfetto()))?;
                Expect::Render(render)
            }
            Kind::Sweep => {
                let sw = span("serve.api_parse", i, || api::parse_sweep(&body)).ok()?;
                let spec = span("core.admit", i, || {
                    let base = self.quotas.admit(&sw.run.cfg).ok()?;
                    let spec = SweepSpec::parse(&sw.spec, base).ok()?;
                    self.quotas.admit_many(&spec.configs()).ok()?;
                    Some(spec.threads(self.budget))
                })?;
                let art = self.cache_get(i, &sw.run.source, &sw.run.dialect)?;
                let report = span("serve.exec", i, || spec.run(&art));
                let out = span("core.render", i, || report.to_json_stable());
                Expect::Body(out)
            }
            Kind::Metrics => unreachable!("handled above"),
        };
        let payload = match &expect {
            Expect::Body(b) | Expect::Render(b) => b.as_str(),
            Expect::None => "",
        };
        span("serve.write", i, || {
            let mut sink = Vec::with_capacity(payload.len() + 128);
            http::write_response(&mut sink, 200, "application/json", payload, &[], false)
                .map(|()| sink.len())
        })
        .ok()?;
        Some(expect)
    }
}

/// Whether a live response matches what the replay computed.
fn matches(expect: &Expect, o: &Outcome) -> bool {
    match expect {
        Expect::Body(b) => o.kept == b.as_bytes(),
        Expect::Render(r) => o.kept == fnv(json::escape(r).as_bytes()).to_le_bytes(),
        Expect::None => o.status == 200,
    }
}

/// Check every response of `live` against the in-process replay. In a
/// traced run every request is replayed in order with spans, and the
/// replay's time per request gives the transport time; otherwise each
/// distinct request is computed once.
pub fn verify(ctx: &mut Ctx, live: &Live, traced: bool) {
    let rep = Replayer::new(ctx);
    if !traced {
        let mut memo: HashMap<&str, Option<Expect>> = HashMap::new();
        for (i, (r, o)) in live.reqs.iter().zip(&live.outcomes).enumerate() {
            let e = memo.entry(r.body.as_str()).or_insert_with(|| span::quiet(|| rep.replay(0, r)));
            let ok = e.as_ref().is_some_and(|e| matches(e, o));
            ctx.check(ok, || {
                format!("{} #{i}: served body differs from the in-process result", r.path())
            });
        }
        return;
    }
    let (mut transport, mut replay_ms) = (Vec::new(), Vec::new());
    for (i, (r, o)) in live.reqs.iter().zip(&live.outcomes).enumerate() {
        let id = REQ_BASE + i as u64;
        let t = Instant::now();
        let e = span("serve.request", id, || rep.replay(id, r));
        let took = ms(t.elapsed());
        let ok = e.as_ref().is_some_and(|e| matches(e, o));
        ctx.check(ok, || {
            format!("{} #{i}: served body differs from the in-process result", r.path())
        });
        if r.kind != Kind::Metrics {
            transport.push(ms(o.latency) - took);
            replay_ms.push(took);
        }
    }
    let lat = live.latencies();
    ctx.layers.insert("serve.transport_ms", median(&transport));
    ctx.note(format!(
        "serve accounting: replay {:.4} ms + transport {:.4} ms vs client latency {:.4} ms (medians, n={})",
        median(&replay_ms),
        median(&transport),
        median(&lat),
        lat.len()
    ));
}

/// The serve per-layer metrics from the replay's spans.
pub fn derive(ctx: &mut Ctx, spans: &[Span], selfs: &[u64]) {
    let med = |name: &str, scale: f64| median(&span::self_ns_of(spans, selfs, name)) / scale;
    let rows: [(&'static str, &str, f64); 9] = [
        ("serve.http_parse_us", "serve.http_parse", 1e3),
        ("serve.json_parse_us", "serve.json_parse", 1e3),
        ("serve.api_parse_us", "serve.api_parse", 1e3),
        ("serve.cache_get_us.hit", "serve.cache_get.hit", 1e3),
        ("serve.cache_get_us.miss", "serve.cache_get.miss", 1e3),
        ("serve.exec_ms", "serve.exec", 1e6),
        ("serve.write_us", "serve.write", 1e3),
        ("core.admit_us", "core.admit", 1e3),
        ("core.render_us", "core.render", 1e3),
    ];
    let mut sum_ms = 0.0;
    for (metric, name, scale) in rows {
        let v = med(name, scale);
        sum_ms += v * scale / 1e6;
        ctx.layers.insert(metric, v);
    }
    ctx.note(format!(
        "serve layer self-time medians sum to {sum_ms:.4} ms (request root self {:.4} ms)",
        med("serve.request", 1e6)
    ));
}

/// Fresh seeded variants the segment sends: more than the cache
/// holds, so the insert and evict path runs.
const SEGMENT_VARIANTS: u64 = CACHE as u64 + 4;

/// The serve segment of the layer pass for workloads whose timed loop
/// does not use `lold`: each program as a `/run` (twice, so the second
/// hits the cache), [`SEGMENT_VARIANTS`] fresh variants, one perfetto
/// `/trace` and `/metrics` scrapes, sent one at a time against a fresh
/// server, then replayed with spans.
pub fn segment(ctx: &mut Ctx, progs: &[Prog]) {
    let server = boot(ctx);
    let addr = server.addr();
    let mut reqs = vec![Req::metrics()];
    for p in progs.iter().chain(progs) {
        reqs.push(Req::of(Kind::Run, p));
    }
    for idx in 0..SEGMENT_VARIANTS {
        let cfg = RunConfig::new(1).backend(Backend::Vm).seed(ctx.seed);
        let src = variant_program(ctx.seed, idx);
        reqs.push(Req::of(Kind::Run, &Prog::new(&format!("variant{idx}"), &src, cfg)));
    }
    if let Some(p) = progs.first() {
        let mut p = p.clone();
        p.cfg = p.cfg.clone().backend(Backend::Vm).clock(ClockMode::Virtual);
        reqs.push(Req::of(Kind::Trace, &p));
    }
    reqs.push(Req::metrics());
    // Space the requests by how long each takes in process, so the
    // segment measures the path, not a queue.
    let mut dues = Vec::new();
    let mut at = Duration::ZERO;
    for r in &reqs {
        dues.push(at);
        let t = Instant::now();
        span::quiet(|| Replayer::new(ctx).replay(0, r));
        at += t.elapsed() * 2 + Duration::from_millis(5);
    }
    if let Some(live) = session(ctx, addr, reqs, &dues, true) {
        verify(ctx, &live, true);
    }
    server.shutdown();
}
