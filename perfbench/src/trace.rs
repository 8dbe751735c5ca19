//! In-memory spans around the harness's calls into each layer.
//!
//! A span records its layer name, the item it served, its start and end
//! (nanoseconds since the tracer's epoch) and the span that was open when it
//! started. Spans stay in memory until the run ends; with tracing off,
//! `open` and `close` record nothing and read no clock.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::open`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Takes over a forked tracer's spans; its root spans become children
    /// of the span open here, if any.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn open(&mut self, name: &'static str, item: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            item,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Ends a span, and any span opened inside it that a panic left open.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                }
                reach = reach.max(hi);
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl Layer {
    /// Mean self time per span, in milliseconds.
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.self_ns += self_ns;
        l.total_ns += s.end_ns - s.start_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            item: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("unit", 0, 100, None),
            span("learn", 10, 60, Some(0)),
            span("compile", 20, 30, Some(1)),
            span("eval", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("job", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 50) and [90, 100).
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn layers_sum_self_time_by_name() {
        let spans = [
            span("unit", 0, 100, None),
            span("learn", 10, 60, Some(0)),
            span("unit", 100, 150, None),
            span("learn", 110, 120, Some(2)),
        ];
        let l = layers(&spans);
        assert_eq!(
            l["unit"],
            Layer {
                count: 2,
                self_ns: 90,
                total_ns: 150
            }
        );
        assert_eq!(l["learn"].self_ns, 60);
        assert_eq!(l["learn"].mean_self_ms(), 30.0 / 1e6);
    }

    #[test]
    fn tracer_nests_spans_and_closes_abandoned_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.open("outer", 1);
        let inner = tr.open("inner", 1);
        let _abandoned = tr.open("abandoned", 1);
        tr.close(inner);
        tr.close(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[2].end_ns <= s[1].end_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn forked_spans_hang_under_the_open_span() {
        let mut tr = Tracer::new(true);
        let outer = tr.open("pass", 0);
        let mut child = tr.fork();
        let s = child.open("session", 7);
        child.close(s);
        tr.absorb(child);
        tr.close(outer);
        assert_eq!(tr.spans()[1].name, "session");
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("x", 0);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }
}
