//! Chrome `trace_event` JSON export — the format Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` load directly.
//!
//! The mapping is deliberately simple: each PE becomes a *thread*
//! (`tid` = PE id) of one *process* (`pid` 0, the job), named via
//! `"M"` metadata events. Every traced operation becomes exactly one
//! complete (`"ph": "X"`) event:
//!
//! * barrier waits span their real duration — the matching
//!   [`EventKind::BarrierEnter`]/[`EventKind::BarrierExit`] pair turns
//!   into one `barrier` slice from enter to exit, so synchronization
//!   cost is *visible* as a block on the timeline;
//! * remote data and lock operations complete instantaneously on the
//!   issuing PE's clock (their latency is charged to the clock, not
//!   recorded as a span), so they export as zero-duration slices
//!   carrying `peer`/`addr`/`bytes`/`seq` in `args`.
//!
//! Timestamps are microseconds (the `trace_event` contract) with
//! nanosecond precision kept in the fraction, taken verbatim from the
//! trace's own clock — a [`ClockMode::Virtual`] trace therefore loads
//! as a deterministic, machine-independent timeline.
//!
//! [`ClockMode::Virtual`]: crate::ClockMode::Virtual

use crate::{EventKind, Trace};
use lol_obs::json::Json;

/// Nanoseconds → fractional microseconds, exactly (no float rounding).
fn us(ns: u64) -> Json {
    Json::num(format_args!("{}.{:03}", ns / 1000, ns % 1000))
}

fn slice_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Put => "put",
        EventKind::Get => "get",
        EventKind::Amo => "amo",
        EventKind::BlockPut => "block_put",
        EventKind::BlockGet => "block_get",
        EventKind::BarrierEnter | EventKind::BarrierExit => "barrier",
        EventKind::LockAcquire => "lock_acquire",
        EventKind::LockTry => "lock_try",
        EventKind::LockRelease => "lock_release",
        EventKind::Wait => "wait",
    }
}

fn category(kind: EventKind) -> &'static str {
    match kind {
        k if k.is_data() => "comm",
        EventKind::LockAcquire | EventKind::LockTry | EventKind::LockRelease => "lock",
        _ => "sync",
    }
}

impl Trace {
    /// Render the trace as Chrome `trace_event` JSON (object form,
    /// `{"traceEvents": […]}`) — load the output straight into
    /// Perfetto. The module docs in `perfetto.rs` describe the event
    /// mapping.
    pub fn to_perfetto(&self) -> String {
        let mut events: Vec<String> = Vec::with_capacity(self.total_events() + self.n_pes());
        for (pe, p) in self.pes.iter().enumerate() {
            let slice = |name: &str, cat: &str, ts: u64, dur: Json, args: Json| {
                Json::object()
                    .with("name", name)
                    .with("cat", cat)
                    .with("ph", "X")
                    .with("ts", us(ts))
                    .with("dur", dur)
                    .with("pid", 0u32)
                    .with("tid", pe)
                    .with("args", args)
                    .to_string()
            };
            let thread = Json::object().with("name", format!("PE {pe}"));
            events.push(
                Json::object()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 0u32)
                    .with("tid", pe)
                    .with("args", thread)
                    .to_string(),
            );
            let mut enter: Option<u64> = None;
            for e in &p.events {
                match e.kind {
                    EventKind::BarrierEnter => enter = Some(e.t_ns),
                    EventKind::BarrierExit => {
                        let from = enter.take().unwrap_or(e.t_ns);
                        let wait = e.t_ns.saturating_sub(from);
                        let args = Json::object().with("seq", e.seq).with("wait_ns", wait);
                        events.push(slice("barrier", "sync", from, us(wait), args));
                    }
                    kind => {
                        let args = Json::object()
                            .with("peer", e.peer)
                            .with("addr", e.addr)
                            .with("bytes", e.bytes)
                            .with("seq", e.seq);
                        let (name, cat) = (slice_name(kind), category(kind));
                        events.push(slice(name, cat, e.t_ns, Json::from(0u32), args));
                    }
                }
            }
            // An enter with no exit (stream truncated by the buffer
            // bound): keep the op visible as a zero-duration slice.
            if let Some(from) = enter {
                let args = Json::object().with("truncated", true);
                events.push(slice("barrier", "sync", from, Json::from(0u32), args));
            }
        }
        let other = Json::object()
            .with("clock", self.clock.to_string())
            .with("pes", self.n_pes())
            .with("dropped_events", self.total_dropped());
        format!(
            "{{\"displayTimeUnit\": \"ns\", \"otherData\": {other}, \"traceEvents\": [\n{}\n]}}",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{ClockMode, EventKind, Trace, TraceBuffer};

    fn sample() -> Trace {
        let mut a = TraceBuffer::new(0, 64);
        a.record(EventKind::Put, 1, 3, 8, 1500);
        a.record(EventKind::BarrierEnter, 0, 0, 0, 2000);
        a.record(EventKind::BarrierExit, 0, 0, 0, 5250);
        let mut b = TraceBuffer::new(1, 64);
        b.record(EventKind::Get, 0, 3, 8, 900);
        b.record(EventKind::LockAcquire, 0, 7, 0, 1000);
        Trace::new(ClockMode::Virtual, vec![a.finish(5250), b.finish(1000)])
    }

    #[test]
    fn every_remote_op_is_one_complete_event() {
        let t = sample();
        let json = t.to_perfetto();
        // 2 data ops + 1 lock + 1 barrier pair = 4 "X" slices.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        assert_eq!(json.matches("\"cat\": \"comm\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"M\"").count(), 2, "one thread_name per PE");
        assert!(json.contains("\"name\": \"put\""));
        assert!(json.contains("\"name\": \"lock_acquire\""));
    }

    #[test]
    fn barrier_pairs_become_real_duration_slices() {
        let json = sample().to_perfetto();
        // Enter at 2000ns, exit at 5250ns → ts 2.000µs, dur 3.250µs.
        assert!(json.contains("\"ts\": 2.000, \"dur\": 3.250"), "{json}");
        assert!(json.contains("\"wait_ns\": 3250"));
    }

    #[test]
    fn unmatched_barrier_enter_stays_visible() {
        let mut a = TraceBuffer::new(0, 64);
        a.record(EventKind::BarrierEnter, 0, 0, 0, 100);
        let t = Trace::new(ClockMode::Wall, vec![a.finish(100)]);
        let json = t.to_perfetto();
        assert!(json.contains("\"truncated\": true"), "{json}");
    }

    #[test]
    fn header_carries_clock_and_drop_accounting() {
        let json = sample().to_perfetto();
        assert!(json.starts_with("{\"displayTimeUnit\": \"ns\""));
        assert!(json.contains("\"clock\": \"virtual\""));
        assert!(json.contains("\"pes\": 2"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
