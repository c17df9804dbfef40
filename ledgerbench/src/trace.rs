//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a layer name, a start and end (nanoseconds since the trace
//! origin), the span that caused it and the request it belongs to. Some
//! children are known only by duration (evaluation time from a
//! `QueryProfile`, server time from the registry's request histogram);
//! [`Trace::child_of`] lays such children out back to back from the
//! parent's start. Spans stay in memory and are written out as JSON lines
//! when the run ends. In the closed-loop workloads a request id is
//! `pass * 1000 + query index` (the query's position in its list).

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Per parent: end of the last duration-only child laid out in it.
    cursor: Vec<u64>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            cursor: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a measured interval.
    pub fn span(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, request, parent, start_ns, end_ns)
    }

    /// Records a child known only by its duration, placed after the
    /// parent's previously placed children and clipped to the parent.
    pub fn child_of(&mut self, parent: SpanId, name: &'static str, dur: Duration) -> SpanId {
        let p = &self.spans[parent];
        let start = self.cursor[parent].max(p.start_ns).min(p.end_ns);
        let end = (start + dur.as_nanos() as u64).min(p.end_ns);
        let request = p.request;
        self.cursor[parent] = end;
        self.push(name, request, Some(parent), start, end)
    }

    fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.cursor.push(start_ns);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval that its child
    /// spans cover (overlapping children are counted once).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.duration_ns() - covered
    }

    /// Total self time per layer name, in first-seen order.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for id in 0..self.spans.len() {
            let name = self.spans[id].name;
            let t = self.self_time_ns(id);
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => *acc += t,
                None => out.push((name, t)),
            }
        }
        out
    }

    /// Share (0–100) of root-span time that no named phase covers: the
    /// self time of the root spans and of the container spans named in
    /// `containers` (layers the benchmark can only time as a whole).
    pub fn unattributed_pct(&self, containers: &[&str]) -> f64 {
        let mut total = 0u64;
        let mut open = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                total += s.duration_ns();
            }
            if s.parent.is_none() || containers.contains(&s.name) {
                open += self.self_time_ns(id);
            }
        }
        crate::stats::ratio(open as f64, total as f64) * 100.0
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: &Trace, ns: u64) -> Instant {
        t.origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Trace::new();
        let root = t.span("root", 1, None, at(&t, 0), at(&t, 100));
        t.span("a", 1, Some(root), at(&t, 10), at(&t, 40));
        // Overlaps `a` by 10 ns: covered once.
        t.span("b", 1, Some(root), at(&t, 30), at(&t, 50));
        // Sticks out past the parent: clipped.
        t.span("c", 1, Some(root), at(&t, 90), at(&t, 130));
        assert_eq!(t.self_time_ns(root), 100 - 40 - 10);
        assert_eq!(t.self_time_ns(1), 30);
    }

    #[test]
    fn duration_children_are_laid_out_in_order_and_clipped() {
        let mut t = Trace::new();
        let root = t.span("req", 7, None, at(&t, 1_000), at(&t, 2_000));
        let a = t.child_of(root, "eval", Duration::from_nanos(600));
        let b = t.child_of(root, "extra", Duration::from_nanos(600));
        assert_eq!((t.spans()[a].start_ns, t.spans()[a].end_ns), (1_000, 1_600));
        assert_eq!((t.spans()[b].start_ns, t.spans()[b].end_ns), (1_600, 2_000));
        assert_eq!(t.spans()[b].request, 7);
        assert_eq!(t.self_time_ns(root), 0);
    }

    #[test]
    fn unattributed_counts_root_and_container_self_time() {
        let mut t = Trace::new();
        let root = t.span("req", 1, None, at(&t, 0), at(&t, 1_000));
        let server = t.span("server", 1, Some(root), at(&t, 200), at(&t, 1_000));
        t.child_of(server, "eval", Duration::from_nanos(500));
        // root self 200 (say, the wire), server self 300.
        let layers = t.self_time_by_layer();
        assert_eq!(layers, vec![("req", 200), ("server", 300), ("eval", 500)]);
        assert!((t.unattributed_pct(&["server"]) - 50.0).abs() < 1e-9);
        assert!((t.unattributed_pct(&[]) - 20.0).abs() < 1e-9);
    }
}
