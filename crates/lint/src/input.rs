//! The linter's immutable view of a design.
//!
//! Passes never touch a [`Design`] directly: they consume a [`LintInput`]
//! snapshot — the recorded signal-flow graph (shared with the design, not
//! copied) plus per-signal annotations and monitor counters. Snapshotting
//! keeps passes pure (trivially testable on synthetic inputs) and pins
//! down exactly which design state the diagnostics depend on: graph
//! structure, declared types/ranges, read/write counts and propagated
//! intervals — all of which are bit-identical across `FIXREF_TEST_SHARDS`
//! worker-pool shapes, so lint output is too.

use std::rc::Rc;

use fixref_fixed::{DType, Interval};
use fixref_sim::{Design, Graph, SignalId, SignalKind};

/// Per-signal facts the passes consume.
#[derive(Debug, Clone)]
pub struct SignalInfo {
    /// The signal's id (indexes [`LintInput::signals`]).
    pub id: SignalId,
    /// The signal's name.
    pub name: String,
    /// Wire or register.
    pub kind: SignalKind,
    /// The active type (`None` = floating point).
    pub dtype: Option<DType>,
    /// Explicit `range()` annotation, if any.
    pub range_override: Option<Interval>,
    /// Quasi-analytically propagated range.
    pub prop: Interval,
    /// Statistic (observed) range, when any value was seen.
    pub stat: Option<Interval>,
    /// Number of reads the monitors counted.
    pub reads: u64,
    /// Number of assignments the monitors counted.
    pub writes: u64,
}

/// Everything a lint pass may look at.
#[derive(Debug, Clone)]
pub struct LintInput {
    /// The recorded signal-flow graph: the design's snapshot
    /// ([`Design::graph`]), which later recording never changes.
    pub graph: Rc<Graph>,
    /// Per-signal facts, indexed by raw signal id.
    pub signals: Vec<SignalInfo>,
    /// Whether the author asserted a static schedule
    /// ([`Design::declare_static_schedule`]).
    pub static_schedule: bool,
}

impl LintInput {
    /// Snapshots a design: its recorded graph (empty if recording never
    /// ran), every signal's annotations and monitor counters, and the
    /// static-schedule declaration.
    pub fn from_design(design: &Design) -> Self {
        let signals = design
            .reports()
            .into_iter()
            .map(|r| SignalInfo {
                id: r.id,
                name: r.name,
                kind: r.kind,
                dtype: r.dtype,
                range_override: r.range_override,
                prop: r.prop,
                stat: r.stat.interval(),
                reads: r.reads,
                writes: r.writes,
            })
            .collect();
        LintInput {
            graph: design.graph(),
            signals,
            static_schedule: design.has_static_schedule(),
        }
    }

    /// The facts for one signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the snapshotted design.
    pub fn signal(&self, id: SignalId) -> &SignalInfo {
        &self.signals[id.raw() as usize]
    }

    /// The name of a signal (empty for an id outside the snapshot, which
    /// can only happen on a hand-built input).
    pub fn name(&self, id: SignalId) -> &str {
        self.signals
            .get(id.raw() as usize)
            .map(|s| s.name.as_str())
            .unwrap_or("")
    }

    /// The signals with at least one recorded definition, sorted by id —
    /// the deterministic iteration order every pass uses (the graph's own
    /// definition map is a hash map).
    pub fn defined_signals(&self) -> Vec<SignalId> {
        let mut ids: Vec<SignalId> = self.graph.defined_signals().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_sim::SignalRef;

    #[test]
    fn snapshot_captures_graph_annotations_and_counters() {
        let d = Design::new();
        let x = d.sig("x");
        let y = d.sig("y");
        x.range(-1.5, 1.5);
        d.declare_static_schedule();
        d.record_graph(true);
        for i in 0..10 {
            x.set(i as f64 * 0.1);
            y.set(x.get() * 2.0);
            d.tick();
        }
        d.record_graph(false);

        let input = LintInput::from_design(&d);
        assert!(input.static_schedule);
        assert_eq!(input.signals.len(), 2);
        let xi = input.signal(x.id());
        assert_eq!(xi.name, "x");
        assert_eq!(xi.writes, 10);
        assert_eq!(xi.range_override, Some(Interval::new(-1.5, 1.5)));
        assert!(xi.stat.is_some());
        assert_eq!(input.name(y.id()), "y");
        // Both x (constant stimulus defs) and y are defined, in id order.
        assert_eq!(input.defined_signals(), vec![x.id(), y.id()]);
        assert!(!input.graph.is_empty());
    }

    #[test]
    fn name_of_unknown_id_is_empty_not_a_panic() {
        let d = Design::new();
        d.sig("only");
        let input = LintInput::from_design(&d);
        assert_eq!(input.name(SignalId::from_raw(99)), "");
    }
}
