//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls into
//! each layer's public functions: name, start, end, the span that
//! caused it, and the request it belongs to. They stay in memory until
//! the run ends and are then written as one JSON object per line.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
}

/// Records spans on one thread. A disabled recorder reads no clock and
/// stores nothing, so the same loop runs traced and untraced.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Recorder {
    /// A recorder; `enabled = false` turns every call into a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Set the request id that subsequent spans carry.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals folded from a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children), ns.
    pub self_ns: u64,
}

/// Fold spans into per-name counts, total time and self time.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Write spans as JSON lines: `{"id":0,"name":"request","start_ns":…,
/// "end_ns":…,"parent":null,"request":0}`.
///
/// # Errors
/// File creation and write errors propagate.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // request [0,100] ⊃ stmt [10,90] ⊃ {parse [10,30], exec [30,80]}
        let spans = vec![
            span("request", 0, 100, None),
            span("stmt", 10, 90, Some(0)),
            span("parse", 10, 30, Some(1)),
            span("exec", 30, 80, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["request"].self_ns, 20,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(t["stmt"].self_ns, 10);
        assert_eq!(t["parse"].self_ns, 20);
        assert_eq!((t["exec"].total_ns, t["exec"].self_ns), (50, 50));
        let sum_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum_self, 100, "self times partition the root");
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let mut rec = Recorder::new(true);
        rec.set_request(3);
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.span("inner", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans
            .iter()
            .all(|s| s.request == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(totals(spans)["inner"].count, 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |rec| rec.span("y", |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }
}
