//! The [`Recorder`] trait and its thread-safe default implementation.
//!
//! A recorder is the sink every instrumented layer writes into: monotonic
//! counters (ticks, assignments, overflows), min/max/mean histograms
//! (observed values, error magnitudes), phase-scoped spans with wall-clock
//! and cycle-accurate timing, and the structured [`Event`] journal.
//!
//! [`DefaultRecorder`] keeps everything behind one mutex, so a single
//! `Arc<DefaultRecorder>` can be attached to a `Design`, a refinement
//! flow and a code generator at once, and snapshotted from any thread.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::Event;

/// Opaque token pairing a [`Recorder::span_begin`] with its
/// [`Recorder::span_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// Summary of one min/max/mean histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramSummary {
    /// The mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One completed span: a named scope with wall-clock duration and an
/// optional cycle count supplied by the instrumented layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span's name (e.g. `"flow.msb.iter"`).
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Simulation cycles spent inside the span (0 when not applicable).
    pub cycles: u64,
    /// Completion order (0-based) — spans are reported in this order.
    pub seq: u64,
}

/// The instrumentation sink interface.
///
/// Object-safe and thread-safe so `Arc<dyn Recorder>` can be shared
/// across layers. All methods take `&self`; implementations synchronize
/// internally.
pub trait Recorder: Send + Sync {
    /// Adds `by` to the monotonic counter `name` (created at 0).
    fn inc(&self, name: &str, by: u64);

    /// Records one observation into the histogram `name`.
    fn observe(&self, name: &str, value: f64);

    /// Records a batch of observations into the histogram `name`, folding
    /// them in slice order. Equivalent to calling [`Recorder::observe`]
    /// once per value — implementations may override it to amortize
    /// locking and lookup, but must keep the fold bit-identical to the
    /// one-at-a-time form. Every simulation, interpreted or compiled,
    /// buffers its per-signal quantization errors in the design and
    /// flushes them through this.
    fn observe_seq(&self, name: &str, values: &[f64]) {
        for &v in values {
            self.observe(name, v);
        }
    }

    /// Appends an event to the journal.
    fn record_event(&self, event: Event);

    /// Opens a timed span; the returned id must be passed to
    /// [`Recorder::span_end`].
    fn span_begin(&self, name: &str) -> SpanId;

    /// Closes a span, attributing `cycles` simulation cycles to it (pass
    /// 0 when cycles are meaningless for the scope).
    fn span_end(&self, id: SpanId, cycles: u64);
}

/// RAII guard that closes its span on drop.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use fixref_obs::{DefaultRecorder, Span};
///
/// let rec = Arc::new(DefaultRecorder::new());
/// {
///     let mut span = Span::enter(rec.clone(), "work");
///     span.set_cycles(128);
/// } // span recorded here
/// assert_eq!(rec.spans().len(), 1);
/// assert_eq!(rec.spans()[0].cycles, 128);
/// ```
pub struct Span {
    recorder: Arc<dyn Recorder>,
    id: SpanId,
    cycles: u64,
}

impl Span {
    /// Opens a span on `recorder` that closes when the guard drops.
    pub fn enter(recorder: Arc<dyn Recorder>, name: &str) -> Span {
        let id = recorder.span_begin(name);
        Span {
            recorder,
            id,
            cycles: 0,
        }
    }

    /// Attributes simulation cycles to the span (latest call wins).
    pub fn set_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.recorder.span_end(self.id, self.cycles);
    }
}

#[derive(Debug, Default)]
struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Hist {
    /// Folds one observation in.
    fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

#[derive(Default)]
struct Inner {
    counters: HashMap<String, u64>,
    hists: HashMap<String, Hist>,
    events: VecDeque<Event>,
    /// The most events `events` keeps, and the counter that counts the
    /// older ones it drops; `None` keeps every event.
    event_limit: Option<(usize, String)>,
    spans: Vec<SpanRecord>,
    pending: HashMap<u64, (String, Instant)>,
    next_span: u64,
}

impl Inner {
    fn push_event(&mut self, event: Event) {
        self.events.push_back(event);
        let Some((limit, dropped)) = &self.event_limit else {
            return;
        };
        while self.events.len() > *limit {
            self.events.pop_front();
            match self.counters.get_mut(dropped) {
                Some(v) => *v = v.saturating_add(1),
                None => {
                    self.counters.insert(dropped.clone(), 1);
                }
            }
        }
    }
}

/// The standard mutex-protected recorder.
///
/// # Example
///
/// ```
/// use fixref_obs::{DefaultRecorder, Recorder};
///
/// let rec = DefaultRecorder::new();
/// rec.inc("sim.ticks", 3);
/// rec.observe("err", 0.25);
/// rec.observe("err", -0.75);
/// assert_eq!(rec.counter("sim.ticks"), 3);
/// let h = rec.histogram("err").unwrap();
/// assert_eq!(h.count, 2);
/// assert_eq!(h.min, -0.75);
/// assert_eq!(h.mean(), -0.25);
/// ```
#[derive(Default)]
pub struct DefaultRecorder {
    inner: Mutex<Inner>,
}

impl DefaultRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        DefaultRecorder::default()
    }

    /// Creates an empty recorder whose event journal keeps only the most
    /// recent `limit` events, so a long-lived process's journal stays
    /// bounded. Each older event it drops adds 1 to the counter
    /// `dropped_counter`.
    pub fn with_event_limit(limit: usize, dropped_counter: &str) -> Self {
        DefaultRecorder {
            inner: Mutex::new(Inner {
                event_limit: Some((limit, dropped_counter.to_string())),
                ..Inner::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Instrumentation must not take the process down with it: on a
        // poisoned mutex, keep recording into the (still consistent
        // enough) state.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// A name-sorted snapshot of every counter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.lock();
        let mut out: Vec<_> = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort();
        out
    }

    /// The summary of one histogram, if it has observations.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.lock().hists.get(name).map(|h| HistogramSummary {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
        })
    }

    /// A name-sorted snapshot of every histogram.
    pub fn histograms(&self) -> Vec<(String, HistogramSummary)> {
        let inner = self.lock();
        let mut out: Vec<_> = inner
            .hists
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// A snapshot of the event journal, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    /// The journal entries matching a predicate — the query interface the
    /// flow uses instead of ad-hoc bookkeeping vectors.
    pub fn query<F: FnMut(&Event) -> bool>(&self, mut pred: F) -> Vec<Event> {
        self.lock()
            .events
            .iter()
            .filter(|e| pred(e))
            .cloned()
            .collect()
    }

    /// Completed spans in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Merges everything another recorder collected into this one:
    /// counters add, histograms combine (count/sum add, min/max extend),
    /// events append in the other's journal order, and completed spans
    /// append with their completion sequence renumbered to continue this
    /// recorder's. The other recorder is left untouched; its pending
    /// (unclosed) spans are not transferred.
    ///
    /// This is the merge layer of the scenario-sweep engine: each shard
    /// simulates into a private recorder, and the master absorbs them in
    /// shard order so the merged journal is deterministic regardless of
    /// worker scheduling.
    pub fn absorb(&self, other: &DefaultRecorder) {
        if std::ptr::eq(self, other) {
            return;
        }
        // Snapshot the source first so the two mutexes are never held at
        // once (no lock-order deadlock risk however callers pair them).
        let (counters, hists, events, spans) = {
            let o = other.lock();
            let hists: Vec<(String, Hist)> = o
                .hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Hist {
                            count: h.count,
                            sum: h.sum,
                            min: h.min,
                            max: h.max,
                        },
                    )
                })
                .collect();
            let events: Vec<Event> = o.events.iter().cloned().collect();
            (o.counters.clone(), hists, events, o.spans.clone())
        };
        let mut inner = self.lock();
        for (name, by) in counters {
            match inner.counters.get_mut(&name) {
                Some(v) => *v = v.saturating_add(by),
                None => {
                    inner.counters.insert(name, by);
                }
            }
        }
        for (name, h) in hists {
            match inner.hists.get_mut(&name) {
                Some(mine) => {
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                }
                None => {
                    inner.hists.insert(name, h);
                }
            }
        }
        for event in events {
            inner.push_event(event);
        }
        for mut span in spans {
            span.seq = inner.spans.len() as u64;
            inner.spans.push(span);
        }
    }

    /// Discards all recorded data (counters, histograms, events, spans).
    /// Pending (unclosed) spans survive so a reset during a phase does
    /// not orphan its guard.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.hists.clear();
        inner.events.clear();
        inner.spans.clear();
    }
}

impl Recorder for DefaultRecorder {
    fn inc(&self, name: &str, by: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(by),
            None => {
                inner.counters.insert(name.to_string(), by);
            }
        }
    }

    fn observe(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        match inner.hists.get_mut(name) {
            Some(h) => h.add(value),
            None => {
                inner.hists.insert(
                    name.to_string(),
                    Hist {
                        count: 1,
                        sum: value,
                        min: value,
                        max: value,
                    },
                );
            }
        }
    }

    fn observe_seq(&self, name: &str, values: &[f64]) {
        let Some((&first, rest)) = values.split_first() else {
            return;
        };
        let mut inner = self.lock();
        // Same sequential fold as `observe`, one value at a time
        // (including the first-observation insert), so a buffered flush is
        // bitwise identical to per-assignment recording. Only a new
        // histogram allocates its key.
        if let Some(h) = inner.hists.get_mut(name) {
            values.iter().for_each(|&v| h.add(v));
            return;
        }
        let mut h = Hist {
            count: 1,
            sum: first,
            min: first,
            max: first,
        };
        rest.iter().for_each(|&v| h.add(v));
        inner.hists.insert(name.to_string(), h);
    }

    fn record_event(&self, event: Event) {
        self.lock().push_event(event);
    }

    fn span_begin(&self, name: &str) -> SpanId {
        let mut inner = self.lock();
        let id = inner.next_span;
        inner.next_span += 1;
        inner.pending.insert(id, (name.to_string(), Instant::now()));
        SpanId(id)
    }

    fn span_end(&self, id: SpanId, cycles: u64) {
        let mut inner = self.lock();
        if let Some((name, start)) = inner.pending.remove(&id.0) {
            let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let seq = inner.spans.len() as u64;
            inner.spans.push(SpanRecord {
                name,
                wall_ns,
                cycles,
                seq,
            });
        }
    }
}

impl std::fmt::Debug for DefaultRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("DefaultRecorder")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.hists.len())
            .field("events", &inner.events.len())
            .field("spans", &inner.spans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = DefaultRecorder::new();
        r.inc("a", 1);
        r.inc("a", 2);
        r.inc("b", u64::MAX);
        r.inc("b", 5);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("b"), u64::MAX);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(
            r.counters(),
            vec![("a".to_string(), 3), ("b".to_string(), u64::MAX)]
        );
    }

    #[test]
    fn histograms_track_min_max_mean() {
        let r = DefaultRecorder::new();
        for v in [1.0, -3.0, 2.0] {
            r.observe("h", v);
        }
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -3.0);
        assert_eq!(h.max, 2.0);
        assert_eq!(h.mean(), 0.0);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn observe_seq_matches_one_at_a_time() {
        let a = DefaultRecorder::new();
        let b = DefaultRecorder::new();
        let values = [0.25, -0.75, 0.0, -0.0, 3.5];
        for v in values {
            a.observe("h", v);
        }
        // Flush in two chunks: one that creates the histogram, one that
        // extends it.
        b.observe_seq("h", &values[..2]);
        b.observe_seq("h", &values[2..]);
        let (ha, hb) = (a.histogram("h").unwrap(), b.histogram("h").unwrap());
        assert_eq!(ha.count, hb.count);
        assert_eq!(ha.sum.to_bits(), hb.sum.to_bits());
        assert_eq!(ha.min.to_bits(), hb.min.to_bits());
        assert_eq!(ha.max.to_bits(), hb.max.to_bits());
        // Seeding with `observe` first, then batching, also matches.
        let c = DefaultRecorder::new();
        c.observe("h", values[0]);
        c.observe_seq("h", &values[1..]);
        assert_eq!(c.histogram("h"), a.histogram("h"));
        // Empty flush is a no-op and never creates the histogram.
        c.observe_seq("empty", &[]);
        assert!(c.histogram("empty").is_none());
    }

    #[test]
    fn spans_capture_order_and_cycles() {
        let r = Arc::new(DefaultRecorder::new());
        {
            let mut outer = Span::enter(r.clone(), "outer");
            outer.set_cycles(10);
            let _inner = Span::enter(r.clone(), "inner");
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        // Inner guard drops first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].cycles, 10);
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
    }

    #[test]
    fn journal_queries_filter_by_kind() {
        let r = DefaultRecorder::new();
        r.record_event(Event::PhaseConverged {
            phase: Phase::Msb,
            iterations: 2,
        });
        r.record_event(Event::AutoRange {
            signal: "b".into(),
            lo: -0.2,
            hi: 0.2,
            iteration: 1,
        });
        let ranges = r.query(|e| matches!(e, Event::AutoRange { .. }));
        assert_eq!(ranges.len(), 1);
        assert_eq!(r.events().len(), 2);
    }

    #[test]
    fn clear_resets_everything_recorded() {
        let r = DefaultRecorder::new();
        r.inc("a", 1);
        r.observe("h", 1.0);
        r.record_event(Event::VerifyCompleted {
            overflows: 0,
            saturation_events: 0,
        });
        let id = r.span_begin("open");
        r.clear();
        assert_eq!(r.counter("a"), 0);
        assert!(r.histogram("h").is_none());
        assert!(r.events().is_empty());
        // The pending span survives the clear and still closes cleanly.
        r.span_end(id, 7);
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.spans()[0].cycles, 7);
    }

    #[test]
    fn a_limited_journal_keeps_the_most_recent_events_and_counts_the_rest() {
        let r = DefaultRecorder::with_event_limit(3, "test.events_dropped");
        for iteration in 0..5 {
            r.record_event(Event::IterationStarted {
                phase: Phase::Msb,
                iteration,
            });
        }
        let kept: Vec<usize> = r
            .events()
            .iter()
            .map(|e| match e {
                Event::IterationStarted { iteration, .. } => *iteration,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, [2, 3, 4]);
        assert_eq!(r.counter("test.events_dropped"), 2);
        // Absorbed events obey the limit too.
        let other = DefaultRecorder::new();
        other.record_event(Event::IterationStarted {
            phase: Phase::Lsb,
            iteration: 9,
        });
        r.absorb(&other);
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.counter("test.events_dropped"), 3);
    }

    #[test]
    fn absorb_merges_counters_histograms_events_and_spans() {
        let master = DefaultRecorder::new();
        master.inc("sim.samples", 10);
        master.observe("h", 1.0);
        master.record_event(Event::PhaseConverged {
            phase: Phase::Msb,
            iterations: 1,
        });
        let id = master.span_begin("master.iter");
        master.span_end(id, 3);

        let shard = DefaultRecorder::new();
        shard.inc("sim.samples", 32);
        shard.inc("sim.overflows", 2);
        shard.observe("h", -4.0);
        shard.observe("h", 9.0);
        shard.observe("g", 0.5);
        shard.record_event(Event::AutoRange {
            signal: "x".into(),
            lo: -1.0,
            hi: 1.0,
            iteration: 2,
        });
        let sid = shard.span_begin("shard.sim");
        shard.span_end(sid, 100);

        master.absorb(&shard);

        assert_eq!(master.counter("sim.samples"), 42);
        assert_eq!(master.counter("sim.overflows"), 2);
        let h = master.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -4.0);
        assert_eq!(h.max, 9.0);
        assert_eq!(master.histogram("g").unwrap().count, 1);
        let events = master.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::PhaseConverged { .. }));
        assert!(matches!(events[1], Event::AutoRange { .. }));
        let spans = master.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "master.iter");
        assert_eq!(spans[1].name, "shard.sim");
        // Absorbed span sequence continues the master's numbering.
        assert_eq!(spans[1].seq, 1);
        assert_eq!(spans[1].cycles, 100);
        // The shard is untouched.
        assert_eq!(shard.counter("sim.samples"), 32);
        assert_eq!(shard.spans()[0].seq, 0);
    }

    #[test]
    fn absorb_is_deterministic_over_fold_order_and_self_safe() {
        let mk = |n: u64| {
            let r = DefaultRecorder::new();
            r.inc("c", n);
            r.observe("h", n as f64);
            r
        };
        let a = DefaultRecorder::new();
        for r in [mk(1), mk(2), mk(3)] {
            a.absorb(&r);
        }
        let b = DefaultRecorder::new();
        for r in [mk(1), mk(2), mk(3)] {
            b.absorb(&r);
        }
        assert_eq!(a.counter("c"), b.counter("c"));
        assert_eq!(a.histogram("h"), b.histogram("h"));

        // Self-absorb is a no-op, not a deadlock or a double-count.
        a.absorb(&a);
        assert_eq!(a.counter("c"), 6);
        assert_eq!(a.histogram("h").unwrap().count, 3);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = Arc::new(DefaultRecorder::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.inc("n", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("n"), 4000);
    }
}
