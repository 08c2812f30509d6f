//! In-memory spans recorded around the harness's calls into each
//! layer's public API, written out as JSON lines when the run ends.
//!
//! Each recording thread owns its own [`Recorder`] (no shared lock on
//! the measured path); recorders are merged once the threads joined.

use crate::clock;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the run's monotonic origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span whose call caused this one.
    pub parent: Option<u64>,
    /// The request (op) this span belongs to.
    pub req: u64,
    /// `layer.entry_point` style name.
    pub name: &'static str,
    /// Start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    base: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread `thread`, timing against `origin`.
    pub fn new(origin: Instant, thread: u64) -> Self {
        Recorder {
            origin,
            base: thread << 40,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        clock::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> u64 {
        let id = self.base + self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` (opened by this recorder).
    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        self.spans[(id - self.base) as usize].end_ns = end;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
fn self_time_of(me: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cursor = me.start_ns;
    for (a, b) in iv {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    me.duration_ns() - covered
}

/// Self times (µs) of every span called `name`.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let k = kids.get(&s.id).map_or(&[][..], Vec::as_slice);
            self_time_of(s, k) as f64 / 1e3
        })
        .collect()
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
///
/// # Errors
///
/// Any I/O error.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64, name: &'static str) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100, "parent"),
            // Overlapping children count once: [10, 50).
            span(2, Some(1), 10, 30, "a"),
            span(3, Some(1), 20, 50, "b"),
            // A child running past its parent is clipped: [90, 100).
            span(4, Some(1), 90, 120, "c"),
            // A grandchild is covered by its own parent, not by span 1.
            span(5, Some(2), 12, 18, "d"),
        ];
        let ns = |name| self_times_us(&spans, name)[0] * 1e3;
        assert_eq!(ns("parent"), (100 - 40 - 10) as f64);
        assert_eq!(ns("a"), (20 - 6) as f64);
        assert_eq!(ns("b"), 30.0);
        assert_eq!(ns("d"), 6.0);
        assert!(self_times_us(&spans, "missing").is_empty());
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::new(clock::now(), 3);
        let outer = rec.open("outer", None, 7);
        let v = rec.time("inner", Some(outer), 7, || 41 + 1);
        rec.close(outer);
        assert_eq!(v, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 3 << 40);
        assert_eq!(spans[1].parent, Some(3 << 40));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let outer_self = self_times_us(&spans, "outer")[0] * 1e3;
        assert!(outer_self <= spans[0].duration_ns() as f64);
    }
}
