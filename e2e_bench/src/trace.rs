//! In-memory spans for the traced run, written as JSON lines when the run
//! ends. Spans are recorded from the benchmark's side of each call into a
//! layer; nothing inside the program is instrumented.

use std::io::{BufWriter, Write};
use std::path::Path;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Extra fields, already rendered as `"key":value` pairs.
    pub fields: String,
}

/// Spans of one run, in the process clock (microseconds since start).
/// A disabled tracer records nothing, so the untraced run pays one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn span(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        start_us: u64,
        end_us: u64,
        fields: String,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            parent,
            name: name.into(),
            start_us,
            end_us: end_us.max(start_us),
            fields,
        });
        Some(self.spans.len() - 1)
    }

    /// Moves the end of a recorded span out to `end_us`: a parent is
    /// recorded before the children it will cover.
    pub fn extend_to(&mut self, id: Option<SpanId>, end_us: u64) {
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id)) {
            span.end_us = span.end_us.max(end_us);
        }
    }

    /// A span's duration minus the part of its interval its direct
    /// children cover (overlapping children are counted once).
    pub fn self_time_us(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_us.clamp(parent.start_us, parent.end_us),
                    s.end_us.clamp(parent.start_us, parent.end_us),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = parent.start_us;
        for (start, end) in kids {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        (parent.end_us - parent.start_us) - covered
    }

    /// `(name, spans, total duration, total self time)` of the spans that
    /// have no parent but have children (a span past the request-span cap
    /// has none and would read as all self time), grouped by name in order
    /// of first appearance.
    pub fn top_level_summary(&self) -> Vec<(&str, usize, u64, u64)> {
        let mut rows: Vec<(&str, usize, u64, u64)> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() || !self.spans.iter().any(|c| c.parent == Some(id)) {
                continue;
            }
            let (duration, own) = (s.end_us - s.start_us, self.self_time_us(id));
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => *r = (r.0, r.1 + 1, r.2 + duration, r.3 + own),
                None => rows.push((&s.name, 1, duration, own)),
            }
        }
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(w, "{{\"id\":{id},\"parent\":")?;
            match s.parent {
                Some(p) => write!(w, "{p}")?,
                None => write!(w, "null")?,
            }
            write!(
                w,
                ",\"name\":\"{}\",\"start_us\":{},\"end_us\":{}",
                s.name, s.start_us, s.end_us
            )?;
            if !s.fields.is_empty() {
                write!(w, ",{}", s.fields)?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.span(None, "phase", 100, 1100, String::new()).unwrap();
        t.span(Some(root), "a", 200, 400, String::new());
        // Overlaps `a` by 100 us: the union covers 200..600.
        t.span(Some(root), "b", 300, 600, String::new());
        // Sticks out past the parent: clipped to 1000..1100.
        t.span(Some(root), "c", 1000, 1500, String::new());
        let leaf = t.span(Some(root), "d", 700, 700, String::new()).unwrap();
        // A grandchild never counts against the root.
        t.span(Some(leaf), "e", 0, 5000, String::new());
        assert_eq!(t.self_time_us(root), 1000 - 400 - 100);
        assert_eq!(t.self_time_us(leaf), 0);
        // A parent recorded first and closed after its children.
        let probe = t.span(None, "probe", 3000, 3000, String::new());
        t.span(probe, "call", 3000, 3400, String::new());
        t.extend_to(probe, 3500);
        assert_eq!(t.self_time_us(probe.unwrap()), 100);
        t.extend_to(None, 9999);
        // A childless top-level span stays out of the summary.
        t.span(None, "phase", 2000, 2500, String::new());
        assert_eq!(
            t.top_level_summary(),
            vec![("phase", 1, 1000, 500), ("probe", 1, 500, 100)]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(None, "x", 0, 1, String::new()), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new(true);
        let root = t.span(None, "run", 0, 10, "\"workload\":\"w\"".into());
        t.span(root, "req", 1, 2, "\"bits\":4".into());
        let path =
            std::env::temp_dir().join(format!("e2e_bench_trace_{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text,
            "{\"id\":0,\"parent\":null,\"name\":\"run\",\"start_us\":0,\"end_us\":10,\"workload\":\"w\"}\n\
             {\"id\":1,\"parent\":0,\"name\":\"req\",\"start_us\":1,\"end_us\":2,\"bits\":4}\n"
        );
    }
}
