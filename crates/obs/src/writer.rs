//! Shared exporter plumbing: the text assembly the chrome-trace and
//! downstream (Prometheus / folded-stack) exporters would otherwise each
//! copy.
//!
//! Everything here is deliberately dumb: deterministic text assembly
//! with no buffering policy of its own (callers bring a `BufWriter` if
//! they care). The exporters in [`crate::export`] and in `pagoda-prof`
//! are thin loops over these helpers.

use std::io::{self, Write};

/// Formats picoseconds as chrome-trace microseconds (fractional), using
/// the same float encoding as the vendored serde so trace output stays
/// byte-identical with JSON-embedded timestamps.
pub fn us(ps: u64) -> String {
    let mut s = String::new();
    serde::ser::write_f64(&mut s, ps as f64 / 1e6);
    s
}

/// Escapes a value for use inside a Prometheus label or a folded-stack
/// frame: backslash, double-quote, newline, and (for folded stacks)
/// semicolon and space become safe characters. Deterministic and
/// allocation-light — exporters call this per group, not per sample.
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            ';' | ' ' => out.push('_'),
            c => out.push(c),
        }
    }
    out
}

/// Accumulates chrome-trace event lines keyed by timestamp, then writes
/// the whole trace sorted by `ts` with per-process metadata names. The
/// stable sort keeps arrival order among equal timestamps, so output is
/// deterministic for a deterministic event stream.
#[derive(Debug, Default)]
pub struct TraceEvents {
    events: Vec<(u64, String)>,
}

impl TraceEvents {
    /// An empty trace.
    pub fn new() -> Self {
        TraceEvents::default()
    }

    /// Adds one pre-rendered JSON event object at `ts_ps`.
    pub fn push(&mut self, ts_ps: u64, line: String) {
        self.events.push((ts_ps, line));
    }

    /// Writes the `{"traceEvents":[...]}` envelope: one `process_name`
    /// metadata record per `(pid, name)`, then every event sorted by
    /// timestamp, one per line.
    pub fn write<W: Write>(mut self, w: &mut W, processes: &[(u32, &str)]) -> io::Result<()> {
        self.events.sort_by_key(|(ts, _)| *ts);
        write!(w, "{{\"traceEvents\":[")?;
        for (i, (pid, name)) in processes.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for (_, line) in &self.events {
            writeln!(w, ",")?;
            write!(w, "{line}")?;
        }
        writeln!(w, "\n]}}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_events_sort_stably_by_ts() {
        let mut t = TraceEvents::new();
        t.push(20, "{\"n\":2}".into());
        t.push(10, "{\"n\":1}".into());
        t.push(20, "{\"n\":3}".into());
        let mut out = Vec::new();
        t.write(&mut out, &[(1, "p")]).unwrap();
        let s = String::from_utf8(out).unwrap();
        crate::export::check_json(&s).unwrap();
        let pos = |needle: &str| s.find(needle).unwrap();
        assert!(pos("{\"n\":1}") < pos("{\"n\":2}"));
        assert!(pos("{\"n\":2}") < pos("{\"n\":3}"));
    }

    #[test]
    fn labels_escape_cleanly() {
        assert_eq!(escape_label("a b;c\"d\\e"), "a_b_c\\\"d\\\\e");
        assert_eq!(escape_label("tenant0"), "tenant0");
    }

    #[test]
    fn us_matches_serde_float_encoding() {
        assert_eq!(us(1_000_000), "1.0");
        assert_eq!(us(2_500_000), "2.5");
    }
}
