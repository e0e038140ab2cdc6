//! In-memory span tracer for the traced run.
//!
//! A span has a name, start, end, parent and the id of the refinement it
//! belongs to; its self time is its duration minus the time its direct
//! children cover. Spans are kept in memory and written out once, when the
//! run ends. With tracing off every call is a no-op, so the untraced runs
//! that give the end-to-end metrics pay nothing for it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer name, e.g. `flow.msb` or `sim.record`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The refinement (or served job) the span belongs to.
    pub refine: u64,
    /// A count attributed to the span (simulated cycles for `sim.*`).
    pub count: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span store. Single-threaded: every span of this benchmark is
/// opened on the thread that drives the load.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
    refine: Cell<u64>,
    /// Per-refinement counts measured at the same boundaries as the spans.
    counts: RefCell<BTreeMap<(u64, &'static str), f64>>,
}

impl Tracer {
    /// A tracer; `on = false` makes every method a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            refine: Cell::new(0),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the refinement id that new spans and counts belong to.
    pub fn set_refine(&self, id: u64) {
        self.refine.set(id);
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        self.begin_at(name, self.now_ns(), true)
    }

    /// Records an already finished interval `[start, end)` (used for
    /// client-side serve timings measured between polls).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.begin_at(name, at(start), false);
        if let SpanId(Some(i)) = id {
            self.spans.borrow_mut()[i].end_ns = at(end);
        }
    }

    fn begin_at(&self, name: &'static str, start_ns: u64, push: bool) -> SpanId {
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            refine: self.refine.get(),
            count: 0,
        });
        if push {
            self.stack.borrow_mut().push(idx);
        }
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`], attributing `count`.
    pub fn end(&self, id: SpanId, count: u64) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        let mut stack = self.stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
            stack.truncate(pos);
        }
        let mut spans = self.spans.borrow_mut();
        spans[idx].end_ns = now;
        spans[idx].count = count;
    }

    /// Adds `value` to the current refinement's count `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if !self.on {
            return;
        }
        *self
            .counts
            .borrow_mut()
            .entry((self.refine.get(), name))
            .or_insert(0.0) += value;
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// Per-refinement values: span durations summed by name (in ms, under
    /// `<name>_ms`), span self times (under `<name>_self_ms`), span counts
    /// (under `<name>_count`) and every [`Tracer::count`].
    pub fn per_refine(&self) -> BTreeMap<u64, BTreeMap<String, f64>> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let row = out.entry(s.refine).or_default();
            let ms = s.dur_ns() as f64 / 1e6;
            let self_ms = s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            *row.entry(format!("{}_ms", s.name)).or_insert(0.0) += ms;
            *row.entry(format!("{}_self_ms", s.name)).or_insert(0.0) += self_ms;
            *row.entry(format!("{}_count", s.name)).or_insert(0.0) += s.count as f64;
            *row.entry(format!("{}_n", s.name)).or_insert(0.0) += 1.0;
        }
        for (&(refine, name), &v) in self.counts.borrow().iter() {
            *out.entry(refine)
                .or_default()
                .entry(name.to_string())
                .or_insert(0.0) += v;
        }
        out
    }

    /// Renders every span as one JSON object per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"refine":{},"count":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.refine, s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let t = Tracer::new(true);
        t.set_refine(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, 7);
        t.end(outer, 0);
        t.count("things", 2.0);
        let rows = t.per_refine();
        let row = &rows[&3];
        assert!(row["outer_ms"] >= row["inner_ms"]);
        assert!(row["outer_self_ms"] < row["inner_ms"]);
        assert_eq!(row["inner_count"], 7.0);
        assert_eq!(row["things"], 2.0);
        assert_eq!(t.spans()[1].parent, Some(0));

        let off = Tracer::new(false);
        let s = off.begin("x");
        off.end(s, 1);
        off.count("y", 1.0);
        assert!(off.spans().is_empty() && off.per_refine().is_empty());
    }
}
