//! Spans recorded from outside the measured crates: one per chunk of
//! calls into a layer's public API, kept in memory and written out when
//! the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Calls per chunk span. Two clock reads per 1024 calls keep the
/// tracing cost far below a percent of even the cheapest layer.
pub const CHUNK_CALLS: usize = 1024;

/// Identifies a span within one [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one; `None` for the round's root span.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the layer this span covers.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store for one traced round.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, span: Span) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(span);
        id
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            calls: 0,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Times `f` as one chunk span of `calls` calls under `parent`;
    /// returns its result and the span's duration.
    pub fn chunk<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        calls: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            calls: calls as u64,
        });
        (r, end_ns - start_ns)
    }

    /// Adopts spans recorded elsewhere against the same epoch (the
    /// replay loop's own buffer).
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        for s in spans {
            self.push(s);
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A span's self time: its duration minus the part of that interval
    /// its direct children cover. Children are clipped to the parent and
    /// overlapping children (spans from two threads) are counted once.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let me = &self.spans[id.0 as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut edge = me.start_ns;
        for (a, b) in kids {
            let a = a.max(edge);
            if b > a {
                covered += b - a;
                edge = b;
            }
        }
        me.duration_ns() - covered
    }

    /// The first span recorded: the round's root, by convention.
    pub fn root(&self) -> Option<SpanId> {
        (!self.spans.is_empty()).then_some(SpanId(0))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"workload\": \"{workload}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        let root = r.push(span("round", None, 0, 1_000));
        let a = r.push(span("a", Some(root), 100, 400));
        r.push(span("b", Some(root), 500, 700));
        // A grandchild is its parent's business, not the root's.
        r.push(span("a.inner", Some(a), 150, 250));
        assert_eq!(r.self_ns(root), 1_000 - 300 - 200);
        assert_eq!(r.self_ns(a), 300 - 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let mut r = Recorder::new();
        let root = r.push(span("round", None, 100, 1_100));
        // Two client threads overlapping on 300..500.
        r.push(span("t0", Some(root), 200, 500));
        r.push(span("t1", Some(root), 300, 600));
        // Starts inside, ends after the parent.
        r.push(span("late", Some(root), 1_000, 1_500));
        assert_eq!(r.self_ns(root), 1_000 - 400 - 100);
    }
}
