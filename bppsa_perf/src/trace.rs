//! Span recording for the traced run.
//!
//! Spans sit in a buffer allocated once up front and are written out when
//! the benchmark ends, so recording costs two clock reads and a store. They
//! are recorded only by the benchmark's own code, around its calls into the
//! library layers; the library itself is not instrumented.

use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.scan`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Training iteration or request id the span belongs to.
    pub id: u64,
    /// The span re-times work its parent did out of sight (see
    /// [`Tracer::replayed`]); its interval is placed inside the parent.
    pub replayed: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// A preallocated span buffer with an open-span stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans lost because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(64),
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.ns(Instant::now());
        let idx = self.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
            replayed: false,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open` (which must be the innermost open span) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = self.ns(Instant::now());
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans closed out of order");
        match self.spans.get_mut(open.0 as usize) {
            Some(span) => {
                span.end_ns = end_ns;
                span.dur_ns()
            }
            None => 0,
        }
    }

    /// Records a completed span from explicit instants, under `parent` or
    /// at the top level.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<Open>,
        from: Instant,
        to: Instant,
    ) -> Open {
        let (start_ns, end_ns) = (self.ns(from), self.ns(to));
        Open(self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            id,
            replayed: false,
        }))
    }

    /// Records child spans for work `parent` did behind one opaque call,
    /// re-timed afterwards by replaying it through finer public calls. The
    /// replayed durations are laid end to end from the parent's start, so
    /// ordinary self-time arithmetic charges the parent only for what the
    /// replay did not cover.
    pub fn replayed(&mut self, parent: Open, id: u64, parts: &[(&'static str, u64)]) {
        let Some(p) = self.spans.get(parent.0 as usize).copied() else {
            return;
        };
        let mut at = p.start_ns;
        for &(name, dur) in parts {
            let end = (at + dur).min(p.end_ns.max(at));
            self.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: parent.0,
                id,
                replayed: true,
            });
            at = end;
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"replayed\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.replayed
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child poking out of its parent is clipped to it).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sums self time and duration per span name, in milliseconds.
pub fn totals_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (f64, f64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out = std::collections::BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_insert((0.0, 0.0, 0u64));
        e.0 += self_ns as f64 / 1e6;
        e.1 += s.dur_ns() as f64 / 1e6;
        e.2 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            replayed: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            span("step", 0, 100, NO_PARENT),
            span("forward", 10, 40, 0),
            span("backward", 40, 90, 0),
            span("scan", 50, 80, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 20, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 130, 170, 0), // overlaps a by 20
            span("c", 190, 260, 0), // pokes 60 past the parent
        ];
        // Covered: [110,170] = 60, [190,200] = 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn replayed_children_are_laid_inside_the_parent() {
        let mut t = Tracer::new(16);
        let route = t.begin("route", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dur = t.end(route);
        t.replayed(route, 7, &[("refresh", dur / 4), ("scan", dur / 2)]);
        let self_ns = self_times_ns(t.spans());
        let expect = dur - dur / 4 - dur / 2;
        assert!(
            self_ns[0].abs_diff(expect) <= 1,
            "{} vs {expect}",
            self_ns[0]
        );
        assert!(t.spans()[1].replayed && t.spans()[2].replayed);
        assert_eq!(t.spans()[1].parent, 0);
        // Replays longer than the parent are clipped to it, never negative.
        t.replayed(route, 7, &[("scan", dur * 3)]);
        assert_eq!(self_times_ns(t.spans())[0], 0);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(1);
        let a = t.begin("a", 0);
        let b = t.begin("b", 0);
        t.end(b);
        t.end(a);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
