//! Structured JSONL event logging (`lold --access-log`).
//!
//! One JSON object per line, append-only, flushed per event so a
//! `tail -f` (or a crashed daemon) never sees a torn record. Every
//! event automatically carries a `ts_ms` wall-clock timestamp
//! (milliseconds since the Unix epoch); callers supply the rest as
//! typed [`Field`]s, so the writer — not fifteen call sites — owns the
//! JSON escaping.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One typed value in an event record.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// A JSON string (escaped by the writer).
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A boolean.
    Bool(bool),
}

/// A shared, append-only JSONL sink.
pub struct EventLog {
    w: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl EventLog {
    /// Open (create or append to) the log file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog::from_writer(Box::new(file)))
    }

    /// Wrap an arbitrary writer (tests use an in-memory buffer).
    pub fn from_writer(w: Box<dyn Write + Send>) -> Self {
        EventLog { w: Mutex::new(BufWriter::new(w)) }
    }

    /// Append one event. Write errors are reported, not panicked —
    /// the caller decides whether a full disk should take the service
    /// down (for an opt-in access log it should not).
    pub fn log(&self, fields: &[(&str, Field<'_>)]) -> io::Result<()> {
        let ts_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        let mut line = String::with_capacity(64);
        line.push_str(&format!("{{\"ts_ms\": {ts_ms}"));
        for (key, value) in fields {
            line.push_str(&format!(", \"{}\": ", json_escape(key)));
            match value {
                Field::Str(s) => line.push_str(&format!("\"{}\"", json_escape(s))),
                Field::U64(n) => line.push_str(&n.to_string()),
                Field::I64(n) => line.push_str(&n.to_string()),
                Field::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
            }
        }
        line.push_str("}\n");
        let mut w = self.w.lock().unwrap();
        w.write_all(line.as_bytes())?;
        w.flush()
    }
}

/// Escape `s` for embedding in a JSON string literal: quotes,
/// backslashes and control characters. The workspace's one JSON
/// string escaper.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write that appends into a shared Vec so the test can read
    /// back what the log wrote.
    #[derive(Clone)]
    struct Sink(Arc<StdMutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let sink = Sink(Arc::new(StdMutex::new(Vec::new())));
        let log = EventLog::from_writer(Box::new(sink.clone()));
        log.log(&[
            ("method", Field::Str("POST")),
            ("path", Field::Str("/run")),
            ("status", Field::U64(200)),
            ("dur_ns", Field::U64(123_456)),
            ("ok", Field::Bool(true)),
        ])
        .unwrap();
        log.log(&[("path", Field::Str("/weird\"quote\nline"))]).unwrap();

        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"ts_ms\": "), "every record opens with the timestamp");
            assert!(line.ends_with('}'));
        }
        assert!(lines[0].contains("\"status\": 200"));
        assert!(lines[0].contains("\"ok\": true"));
        assert!(lines[1].contains("/weird\\\"quote\\nline"));
    }
}
