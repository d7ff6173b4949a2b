//! The benchmark's own in-memory span recorder.
//!
//! Spans are taken from outside the program, around the calls the
//! driver makes into a layer. Each has a name, start, end, id and
//! parent. Calls made hundreds of thousands of times per run (`submit`)
//! are folded into one span per (parent, name) that carries the call
//! count and the summed busy time — recording each would cost more than
//! the call. Everything stays in memory until the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span (or one fold of many same-named calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Index in the recorder.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// Start (first call's start for a fold), ns since the recorder began.
    pub start_ns: u64,
    /// End (last call's end for a fold).
    pub end_ns: u64,
    /// Time actually spent inside: `end - start` for a plain span, the
    /// sum over calls for a fold.
    pub busy_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
}

struct Frame {
    id: u32,
    /// Folds opened under this frame, by name.
    folds: Vec<(&'static str, u32)>,
}

/// The recorder. Single-threaded, like the drivers.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    /// Folds opened at the root (no span open).
    root_folds: Vec<(&'static str, u32)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            root_folds: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> Option<u32> {
        self.stack.last().map(|f| f.id)
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            parent: self.parent(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        self.stack.push(Frame {
            id,
            folds: Vec::new(),
        });
        id
    }

    /// Closes span `id`.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("exit without a matching enter");
        assert_eq!(frame.id, id, "spans must close innermost-first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.busy_ns = end_ns - s.start_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Runs `f` as one of many short calls: folded into a single span
    /// per (open parent, name).
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.fold(name, start, end);
        r
    }

    fn fold(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.parent();
        let folds = match self.stack.last_mut() {
            Some(f) => &mut f.folds,
            None => &mut self.root_folds,
        };
        let found = folds
            .iter()
            .find(|(n, _)| std::ptr::eq(*n, name) || *n == name)
            .map(|&(_, id)| id);
        match found {
            Some(id) => {
                let s = &mut self.spans[id as usize];
                s.end_ns = end_ns;
                s.busy_ns += end_ns - start_ns;
                s.calls += 1;
            }
            None => {
                let id = self.spans.len() as u32;
                folds.push((name, id));
                self.spans.push(Span {
                    name,
                    id,
                    parent,
                    start_ns,
                    end_ns,
                    busy_ns: end_ns - start_ns,
                    calls: 1,
                });
            }
        }
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed busy time of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Summed call count of every span called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// A span's self time: its busy time minus the busy time of its
    /// direct children (saturating — timer granularity can make a
    /// child's clock reads straddle its parent's by a few ns).
    pub fn self_ns(&self, id: u32) -> u64 {
        self_ns(&self.spans, id)
    }

    /// Summed self time of every span called `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_ns(s.id))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes the spans as one JSON document.
    pub fn write_json<W: Write>(&self, workload: &str, seed: u64, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}{}",
                s.name, s.id, parent, s.start_ns, s.end_ns, s.busy_ns, s.calls, comma
            )?;
        }
        writeln!(w, "]}}")
    }
}

/// Self time of `spans[id]` (see [`Tracer::self_ns`]); free-standing so
/// the arithmetic can be tested on hand-built spans.
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.busy_ns)
        .sum();
    spans[id as usize].busy_ns.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) -> Span {
        Span {
            name: "x",
            id,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            calls,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 1000, 1000, 1),
            span(1, Some(0), 100, 400, 300, 1),
            span(2, Some(1), 150, 250, 100, 1), // grandchild: not root's
            span(3, Some(0), 500, 900, 250, 7), // a fold: busy < extent
        ];
        assert_eq!(self_ns(&spans, 0), 1000 - 300 - 250);
        assert_eq!(self_ns(&spans, 1), 200);
        assert_eq!(self_ns(&spans, 2), 100);
    }

    #[test]
    fn self_time_saturates() {
        let spans = vec![
            span(0, None, 0, 100, 100, 1),
            span(1, Some(0), 0, 101, 101, 1),
        ];
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn nesting_and_folds_record_parents() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        t.span("a", || ());
        for _ in 0..5 {
            t.call("b", || ());
        }
        let inner = t.enter("c");
        t.call("b", || ());
        t.exit(inner);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[1].name, s[1].parent), ("a", Some(root)));
        assert_eq!((s[2].name, s[2].calls, s[2].parent), ("b", 5, Some(root)));
        assert_eq!((s[4].name, s[4].calls, s[4].parent), ("b", 1, Some(inner)));
        assert_eq!(t.calls("b"), 6);
        assert!(s[0].busy_ns >= s[1].busy_ns + s[2].busy_ns + s[3].busy_ns);
        assert_eq!(
            t.self_ns(root),
            s[0].busy_ns - s[1].busy_ns - s[2].busy_ns - s[3].busy_ns
        );
    }

    #[test]
    fn json_lists_every_span() {
        let mut t = Tracer::new();
        t.span("a", || ());
        t.call("b", || ());
        let mut out = Vec::new();
        t.write_json("w", 42, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"workload\":\"w\",\"seed\":42,\"spans\":["));
        assert_eq!(s.matches("\"name\":").count(), 2);
        assert!(s.contains("\"parent\":null"));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_exit_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
