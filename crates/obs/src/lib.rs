//! # lol-obs — observability primitives for the LOLCODE toolchain
//!
//! The paper's whole point is making parallel-execution behaviour
//! *visible* (IPPS 2017 §I): students should be able to see where time
//! goes, from the lexer to the scheduler to the socket. This crate is
//! the shared measurement layer behind that — a process-wide metric
//! [`Registry`] of atomic [`Counter`]s, [`Gauge`]s and fixed-bucket
//! log₂ [`Histogram`]s, rendered in the Prometheus text exposition
//! format (`GET /metrics` on `lold`), plus a structured JSONL
//! [`EventLog`] writer for per-request access logs.
//!
//! It is also the workspace's one JSON home: [`json`], the strict
//! parser and compact renderer every JSON surface goes through.
//!
//! Like every other crate in the workspace it is std-only and
//! dependency-free, and the hot paths are lock-free: a counter bump is
//! one relaxed atomic add, a histogram observation is two. The only
//! lock in the crate guards registry *shape* (creating a family or a
//! labelled series) and the event-log writer — neither is on a
//! request's fast path once the handles are cached.
//!
//! The exposition renderer has a strict inverse, [`parse_exposition`],
//! used by the tests (line-by-line validity) and by `lold-bench`
//! (scrape `/metrics` before/after a run and report the deltas).

#![forbid(unsafe_code)]

mod hist;
pub mod json;
mod log;

pub use hist::{Histogram, BUCKETS};
pub use log::EventLog;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing count. Bumping is one relaxed atomic
/// add; reading is one relaxed load.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A free-standing counter (use [`Registry::counter`] for one that
    /// shows up in the exposition).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Overwrite the total. For mirroring an *externally maintained*
    /// monotonic count (e.g. the artifact cache's own hit counter)
    /// into the exposition at scrape time — never for decrementing.
    pub fn store(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }
}

/// A value that can go up and down (queue depth, busy workers).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A free-standing gauge (use [`Registry::gauge`] for one that
    /// shows up in the exposition).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Add (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// What kind of metric a family holds (one kind per name, enforced).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Up/down value.
    Gauge,
    /// log₂-bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label set (`""` for the bare series), so
    /// iteration — and therefore the exposition — is deterministic.
    series: BTreeMap<String, Series>,
}

/// A named collection of metric families, rendered with [`Registry::render`].
///
/// Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) are
/// `Arc`s: call once at startup, cache the handle, bump it lock-free
/// forever after. Calling again with the same name and labels returns
/// the same underlying metric (get-or-create), which is what makes
/// per-SRV-code error counters safe to create lazily.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create the counter `name{labels}`.
    ///
    /// # Panics
    /// If `name` already exists with a different metric kind — that is
    /// a programming error, not a runtime condition.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.series(name, help, MetricKind::Counter, labels, || {
            Series::Counter(Arc::new(Counter::new()))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Get-or-create the gauge `name{labels}`.
    ///
    /// # Panics
    /// If `name` already exists with a different metric kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self
            .series(name, help, MetricKind::Gauge, labels, || Series::Gauge(Arc::new(Gauge::new())))
        {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Get-or-create the histogram `name{labels}`.
    ///
    /// # Panics
    /// If `name` already exists with a different metric kind.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            Series::Histogram(Arc::new(Histogram::new()))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked by series()"),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        let key = label_key(labels);
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(family.kind, kind, "metric {name} registered twice with different kinds");
        let series = family.series.entry(key).or_insert_with(make);
        match series {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` per family, one
    /// line per sample, families and series in deterministic
    /// (lexicographic) order.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.exposition_name()));
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&sample_line(name, labels, &[], &c.get().to_string()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&sample_line(name, labels, &[], &g.get().to_string()));
                    }
                    Series::Histogram(h) => h.render_into(&mut out, name, labels),
                }
            }
        }
        out
    }
}

/// `true` for a legal Prometheus metric name.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Canonical rendered label set: sorted by label name, values escaped.
/// `""` when there are no labels.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let body: Vec<String> =
        sorted.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", body.join(","))
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One exposition sample line. `labels` is the pre-rendered label set
/// (`{a="b"}` or `""`); `extra` label pairs (e.g. histogram `le`) are
/// merged inside the braces.
pub(crate) fn sample_line(name: &str, labels: &str, extra: &[(&str, &str)], value: &str) -> String {
    if extra.is_empty() {
        return format!("{name}{labels} {value}\n");
    }
    let extras: Vec<String> =
        extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    let merged = if labels.is_empty() {
        format!("{{{}}}", extras.join(","))
    } else {
        // `{a="b"}` -> `{a="b",le="…"}`
        format!("{},{}}}", &labels[..labels.len() - 1], extras.join(","))
    };
    format!("{name}{merged} {value}\n")
}

/// One sample parsed back out of an exposition body.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (`lold_requests_total`).
    pub name: String,
    /// Label pairs in textual order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// `true` when this sample carries every label in `want` with the
    /// given values (extra labels are allowed).
    pub fn has_labels(&self, want: &[(&str, &str)]) -> bool {
        want.iter().all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }
}

/// Strict line-by-line parse of a Prometheus text exposition body —
/// the inverse of [`Registry::render`], used by the tests and by
/// `lold-bench`'s before/after scrape. Returns every sample, or the
/// first offending line.
pub fn parse_exposition(body: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let fail = |why: &str| format!("line {}: {why}: {line:?}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (keyword, rest) = rest.split_once(' ').ok_or_else(|| fail("bare comment"))?;
            match keyword {
                "HELP" => {
                    let (name, _) = rest.split_once(' ').unwrap_or((rest, ""));
                    if !valid_name(name) {
                        return Err(fail("HELP names an invalid metric"));
                    }
                }
                "TYPE" => {
                    let (name, ty) =
                        rest.split_once(' ').ok_or_else(|| fail("TYPE needs a kind"))?;
                    if !valid_name(name) {
                        return Err(fail("TYPE names an invalid metric"));
                    }
                    if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(fail("unknown metric type"));
                    }
                }
                _ => return Err(fail("unknown comment keyword")),
            }
            continue;
        }
        samples.push(parse_sample(line).map_err(|why| fail(&why))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_' || bytes[pos] == b':')
    {
        pos += 1;
    }
    let name = &line[..pos];
    if !valid_name(name) {
        return Err("invalid metric name".to_string());
    }
    let mut labels = Vec::new();
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        loop {
            if bytes.get(pos) == Some(&b'}') {
                pos += 1;
                break;
            }
            let key_start = pos;
            while pos < bytes.len() && bytes[pos] != b'=' {
                pos += 1;
            }
            let key = line[key_start..pos].to_string();
            if key.is_empty() {
                return Err("empty label name".to_string());
            }
            pos += 1; // '='
            if bytes.get(pos) != Some(&b'"') {
                return Err("label value must be quoted".to_string());
            }
            pos += 1;
            let mut value = String::new();
            loop {
                match bytes.get(pos) {
                    None => return Err("unterminated label value".to_string()),
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        pos += 1;
                        match bytes.get(pos) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return Err("bad escape in label value".to_string()),
                        }
                        pos += 1;
                    }
                    Some(_) => {
                        let ch = line[pos..].chars().next().expect("in-bounds char");
                        value.push(ch);
                        pos += ch.len_utf8();
                    }
                }
            }
            labels.push((key, value));
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {}
                _ => return Err("expected , or } after a label".to_string()),
            }
        }
    }
    let rest = line[pos..].trim();
    if rest.is_empty() {
        return Err("sample has no value".to_string());
    }
    let value: f64 = match rest {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        n => n.parse().map_err(|_| format!("bad sample value {n:?}"))?,
    };
    Ok(Sample { name: name.to_string(), labels, value })
}

/// Convenience over [`parse_exposition`] output: the value of
/// `name{labels…}` (first match), if present.
pub fn sample_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples.iter().find(|s| s.name == name && s.has_labels(labels)).map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("lol_requests_total", "Requests served.", &[("route", "run")]);
        c.inc();
        c.add(2);
        let again = reg.counter("lol_requests_total", "Requests served.", &[("route", "run")]);
        again.inc();
        assert_eq!(c.get(), 4, "same (name, labels) must be the same counter");
        let g = reg.gauge("lol_queue_depth", "Queue depth.", &[]);
        g.set(3);
        g.dec();
        assert_eq!(g.get(), 2);

        let body = reg.render();
        let samples = parse_exposition(&body).expect("rendered exposition must parse");
        assert_eq!(sample_value(&samples, "lol_requests_total", &[("route", "run")]), Some(4.0));
        assert_eq!(sample_value(&samples, "lol_queue_depth", &[]), Some(2.0));
        assert!(body.contains("# TYPE lol_requests_total counter"));
        assert!(body.contains("# TYPE lol_queue_depth gauge"));
    }

    #[test]
    fn label_sets_are_canonicalised() {
        // Order-insensitive: (a, b) and (b, a) are the same series.
        let reg = Registry::new();
        let c1 = reg.counter("m", "h", &[("a", "1"), ("b", "2")]);
        let c2 = reg.counter("m", "h", &[("b", "2"), ("a", "1")]);
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        // Nasty label values survive the render/parse round trip.
        let c3 = reg.counter("m", "h", &[("msg", "a\"b\\c\nd")]);
        c3.inc();
        let samples = parse_exposition(&reg.render()).unwrap();
        assert_eq!(sample_value(&samples, "m", &[("msg", "a\"b\\c\nd")]), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_mismatch_is_a_programming_error() {
        let reg = Registry::new();
        reg.counter("m", "h", &[]);
        reg.gauge("m", "h", &[]);
    }

    #[test]
    fn exposition_parser_rejects_garbage() {
        assert!(parse_exposition("lol_ok 1\n").is_ok());
        assert!(parse_exposition("9bad_name 1\n").is_err());
        assert!(parse_exposition("m{x=\"unterminated} 1\n").is_err());
        assert!(parse_exposition("m{x=\"v\"} not_a_number\n").is_err());
        assert!(parse_exposition("m{x=\"v\"}\n").is_err(), "sample without a value");
        assert!(parse_exposition("# WAT m counter\n").is_err());
        assert!(parse_exposition("# TYPE m flurble\n").is_err());
        assert!(parse_exposition("m{le=\"+Inf\"} +Inf\n").is_ok());
    }
}
