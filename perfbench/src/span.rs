//! In-memory spans recorded around the benchmark's calls into each
//! layer.
//!
//! A span has a name, a start and an end (ns since the tracer was
//! armed), the span that was open when it started, and the id of the
//! operation (run or request) it belongs to. Spans are recorded only
//! on the thread that armed the tracer; with tracing off, [`span`] is
//! one branch around the call. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `serve.http_parse`.
    pub name: &'static str,
    /// Start, in ns since the tracer was armed.
    pub start_ns: u64,
    /// End, in ns since the tracer was armed.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (run or request) id shared by the spans of one operation.
    pub req: u64,
}

struct Tracer {
    quiet: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread (drops any earlier spans).
pub fn arm() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            quiet: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back every span recorded since [`arm`].
pub fn disarm() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

fn open(req: u64) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().filter(|t| !t.quiet)?;
        let idx = t.spans.len();
        let parent = t.open.last().copied();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span { name: "", start_ns, end_ns: start_ns, parent, req });
        t.open.push(idx);
        Some(idx)
    })
}

fn close(idx: usize, name: &'static str) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            let s = &mut t.spans[idx];
            s.end_ns = end_ns;
            s.name = name;
            t.open.pop();
        }
    });
}

/// Run `f` without recording spans (for calls that only calibrate).
pub fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let set = |on: bool| {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.quiet = on;
            }
        })
    };
    set(true);
    let out = f();
    set(false);
    out
}

/// Run `f` inside a span called `name` belonging to operation `req`.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    span_as(req, || (f(), name))
}

/// Like [`span`], for a boundary whose name depends on the outcome
/// (e.g. a cache lookup that turned out to be a hit or a miss): `f`
/// returns the name along with its result.
pub fn span_as<T>(req: u64, f: impl FnOnce() -> (T, &'static str)) -> T {
    match open(req) {
        None => f().0,
        Some(idx) => {
            let (out, name) = f();
            close(idx, name);
            out
        }
    }
}

/// Whether spans are being recorded on this thread.
pub fn armed() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// How many spans called `name` operation `req` has so far.
pub fn count(name: &str, req: u64) -> usize {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .map_or(0, |t| t.spans.iter().filter(|s| s.name == name && s.req == req).count())
    })
}

/// Self time of every span, in ns: duration minus the time covered by
/// its direct children (children of one span never overlap, since
/// spans are recorded on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c)).collect()
}

/// Self times (in ns) of the spans called `name`.
pub fn self_ns_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, &ns)| ns as f64).collect()
}

/// Write spans as JSON lines, one span per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        assert_eq!(span("x", 0, || 7), 7);
        assert!(disarm().is_empty());
        arm();
        span("outer", 3, || {
            span("inner", 3, || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = disarm();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[1].name, spans[1].parent), ("outer", "inner", Some(0)));
        let selfs = self_times(&spans);
        assert!(selfs[1] >= 2_000_000);
        assert_eq!(selfs[0], (spans[0].end_ns - spans[0].start_ns) - selfs[1]);
        assert!(spans.iter().all(|s| s.req == 3));
    }
}
