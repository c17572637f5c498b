//! In-memory span recorder timed from outside the library.
//!
//! Every span is an `Instant` interval around one call into a layer's
//! public function, with the span that was open when it started as its
//! parent. Spans stay in memory until the run ends; [`Tracer::self_times`]
//! then charges each span its duration minus the part of that interval its
//! child spans cover, so a layer reached only inside another layer's call
//! counts toward its caller.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span: a layer boundary crossed once.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `graph.reorder.renumber`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin.
    pub end_s: f64,
}

impl Span {
    /// Wall-clock duration of the span, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans; shared by reference so a wrapper executor called from
/// inside a library function can open child spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                parent,
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// A copy of the closed spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_s() - covered(s.start_s, s.end_s, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time summed per layer name, in first-seen order.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(1), 2.0, 3.0),
            span("c", Some(0), 5.0, 9.0),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 2.0, 6.0),
            span("a", Some(0), 4.0, 8.0),
            span("late", Some(0), 9.0, 12.0),
        ];
        // Children cover [2, 8] and [9, 10] of the root.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn layers_sum_self_time_across_spans() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 0.0, 2.0),
            span("a", Some(0), 3.0, 4.0),
        ];
        assert_eq!(self_time_by_layer(&spans), vec![("root", 7.0), ("a", 3.0)]);
    }

    #[test]
    fn recorded_spans_nest() {
        let t = Tracer::new();
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        let self_t = self_times(&spans);
        assert!(self_t.iter().all(|&s| s >= 0.0));
    }
}
