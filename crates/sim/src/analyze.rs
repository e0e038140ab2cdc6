//! Analytical range estimation over the signal-flow graph.
//!
//! This is the third MSB-side method of paper §4.1: "a perfect evaluation
//! of the signal range is enabled by constructing a signal flowgraph out of
//! the source code and analyzing the data flow using the same range
//! propagation mechanism". [`analyze_ranges`] runs the interval arithmetic
//! of [`fixref_fixed::Interval`] to a fixpoint over a recorded [`Graph`],
//! independent of how long the stimulus simulation ran.
//!
//! Feedback cycles that grow without bound are *widened* to
//! [`Interval::UNBOUNDED`] after a configurable number of growing passes —
//! the explicit form of the paper's "explosion of the MSB" on feedback
//! signals. A widened result is reported distinctly
//! ([`RangeAnalysis::widened_signals`]) and does **not** count as
//! converged. The cure is the same as in the paper: seed the offending
//! signal with an explicit `range()` annotation and re-analyze.
//!
//! Each definition is evaluated with [`Graph::walk`], the post-order walk
//! the analytical error bound shares.

use std::collections::{HashMap, HashSet};

use fixref_fixed::{AffineForm, Interval, OverflowMode};
use fixref_obs::{Event, Recorder};

use crate::design::SignalId;
use crate::graph::{Graph, NodeId, Op};

/// Options for [`analyze_ranges`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Maximum fixpoint passes before giving up.
    pub max_passes: usize,
    /// Widen a signal to `UNBOUNDED` after it has grown in this many
    /// consecutive passes (feedback explosion detection).
    pub widen_after: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            max_passes: 256,
            widen_after: 64,
        }
    }
}

/// The result of an analytical range pass.
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    ranges: HashMap<SignalId, Interval>,
    exploded: HashSet<SignalId>,
    widened: HashSet<SignalId>,
    clamped: HashSet<SignalId>,
    passes: usize,
    fixpoint: bool,
}

impl RangeAnalysis {
    /// The derived range of a signal (`None` if it never appeared in the
    /// graph and was not seeded).
    pub fn range_of(&self, id: SignalId) -> Option<Interval> {
        self.ranges.get(&id).copied()
    }

    /// Whether the signal's range exploded (feedback without a bounding
    /// annotation).
    pub fn is_exploded(&self, id: SignalId) -> bool {
        self.exploded.contains(&id)
            || self
                .ranges
                .get(&id)
                .map(|i| i.is_exploded())
                .unwrap_or(false)
    }

    /// Signals whose range exploded.
    pub fn exploded_signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.exploded.iter().copied()
    }

    /// Signals that had to be forcibly widened to `UNBOUNDED` (by the
    /// growth detector or the pass limit) — these are *not* clean
    /// fixpoints and disqualify [`RangeAnalysis::converged`].
    pub fn widened_signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.widened.iter().copied()
    }

    /// Whether a signal was forcibly widened.
    pub fn is_widened(&self, id: SignalId) -> bool {
        self.widened.contains(&id)
    }

    /// Signals whose division-by-zero-spanning ranges were clamped to a
    /// declared type bound instead of silently exploding downstream.
    pub fn clamped_signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.clamped.iter().copied()
    }

    /// Whether a signal's range was clamped through a zero-spanning
    /// division.
    pub fn is_clamped(&self, id: SignalId) -> bool {
        self.clamped.contains(&id)
    }

    /// Number of fixpoint passes performed.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Whether a *clean* fixpoint was reached: the pass loop stabilized
    /// within budget **and** no signal had to be forcibly widened. A run
    /// that stabilized only because widening snapped ranges to
    /// `UNBOUNDED` is reported via [`RangeAnalysis::widened_signals`],
    /// not as convergence.
    pub fn converged(&self) -> bool {
        self.fixpoint && self.widened.is_empty()
    }

    /// All derived ranges.
    pub fn ranges(&self) -> &HashMap<SignalId, Interval> {
        &self.ranges
    }
}

/// The range `Op::Read` sees: missing or empty ranges read as the reset
/// value `[0, 0]`.
fn effective_range(ranges: &HashMap<SignalId, Interval>, s: SignalId) -> Interval {
    ranges
        .get(&s)
        .copied()
        .filter(|i| !i.is_empty())
        .unwrap_or_else(|| Interval::point(0.0))
}

/// Propagates ranges through `graph` to a fixpoint.
///
/// `seeds` pins the range of input or annotated signals; seeded signals
/// never widen beyond their seed (they model `range()` annotations or
/// saturating input converters). Signals read before any definition
/// contribute their reset value `[0, 0]`. An attached `recorder`
/// receives an `analyze.range_clamped` counter and an
/// [`Event::RangeClamped`] journal entry for every signal whose
/// zero-spanning division was clamped to a declared type bound.
pub fn analyze_ranges(
    graph: &Graph,
    seeds: &HashMap<SignalId, Interval>,
    options: &AnalyzeOptions,
    recorder: Option<&dyn Recorder>,
) -> RangeAnalysis {
    analyze_inner(graph, seeds, options, recorder, false)
}

/// [`analyze_ranges`] with the **affine-arithmetic refinement**: every
/// definition is evaluated both as a plain interval and as an
/// [`AffineForm`] over per-signal noise symbols, and the two envelopes are
/// intersected. Shared symbols let correlated re-reads cancel (`acc +
/// x - acc*mu` contracts by `1 - mu` instead of growing by `1 + mu`), so
/// feedback loops that the interval fixpoint widens to
/// [`Interval::UNBOUNDED`] can converge here. Since every operator is
/// monotone and the intersection is taken per definition, the affine
/// result is contained in the plain interval result by induction —
/// asserted per evaluation in debug builds. Tightened evaluations bump the
/// `analyze.affine_tightened` counter on an attached recorder.
pub fn analyze_ranges_affine(
    graph: &Graph,
    seeds: &HashMap<SignalId, Interval>,
    options: &AnalyzeOptions,
    recorder: Option<&dyn Recorder>,
) -> RangeAnalysis {
    analyze_inner(graph, seeds, options, recorder, true)
}

fn analyze_inner(
    graph: &Graph,
    seeds: &HashMap<SignalId, Interval>,
    options: &AnalyzeOptions,
    recorder: Option<&dyn Recorder>,
    affine: bool,
) -> RangeAnalysis {
    let mut ranges: HashMap<SignalId, Interval> = seeds.clone();
    let mut growth: HashMap<SignalId, usize> = HashMap::new();
    let mut exploded: HashSet<SignalId> = HashSet::new();
    let mut widened: HashSet<SignalId> = HashSet::new();
    let mut clamped: HashSet<SignalId> = HashSet::new();

    let defined: Vec<SignalId> = {
        let mut v: Vec<SignalId> = graph.defined_signals().collect();
        v.sort();
        v
    };

    let note_clamp = |sig: SignalId, itv: Interval, clamped: &mut HashSet<SignalId>| {
        if clamped.insert(sig) {
            if let Some(rec) = recorder {
                rec.inc("analyze.range_clamped", 1);
                rec.record_event(Event::RangeClamped {
                    signal: sig.to_string(),
                    lo: itv.lo,
                    hi: itv.hi,
                });
            }
        }
    };
    let note_explode = |sig: SignalId, passes: usize, exploded: &mut HashSet<SignalId>| {
        if exploded.insert(sig) {
            if let Some(rec) = recorder {
                rec.inc("analyze.range_exploded", 1);
                rec.record_event(Event::RangeExploded {
                    signal: sig.to_string(),
                    passes,
                });
            }
        }
    };
    // In affine mode every definition gets the tighter of the interval
    // and affine envelopes; both are sound, so their intersection is too.
    let eval_combined = |def: NodeId, ranges: &HashMap<SignalId, Interval>| -> (Interval, bool) {
        let (itv, was_clamped) = eval_interval(graph, def, ranges);
        if !affine {
            return (itv, was_clamped);
        }
        let aff = eval_affine(graph, def, ranges).to_interval();
        let tight = itv.intersect(&aff);
        if tight.is_empty() {
            // Both envelopes contain the true image, so a truly empty
            // intersection cannot happen; guard against f64 edge cases
            // by falling back to the interval answer.
            debug_assert!(false, "disjoint envelopes: {itv} vs {aff}");
            return (itv, was_clamped);
        }
        debug_assert!(
            itv.contains_interval(&tight),
            "affine-combined {tight} not inside interval {itv}"
        );
        if tight != itv {
            if let Some(rec) = recorder {
                rec.inc("analyze.affine_tightened", 1);
            }
        }
        (tight, was_clamped)
    };

    let mut passes = 0;
    let mut fixpoint = false;
    while passes < options.max_passes {
        passes += 1;
        let mut changed = false;
        for &sig in &defined {
            if seeds.contains_key(&sig) {
                continue; // pinned
            }
            let mut incoming = Interval::EMPTY;
            let mut any_clamped = false;
            for &def in graph.defs(sig) {
                let (itv, was_clamped) = eval_combined(def, &ranges);
                incoming = incoming.union(&itv);
                any_clamped |= was_clamped;
            }
            let old = ranges.get(&sig).copied().unwrap_or(Interval::EMPTY);
            let mut new = old.union(&incoming);
            if any_clamped {
                note_clamp(sig, new, &mut clamped);
            }
            if new != old {
                let g = growth.entry(sig).or_insert(0);
                *g += 1;
                if *g >= options.widen_after {
                    new = Interval::UNBOUNDED;
                    note_explode(sig, *g, &mut exploded);
                    widened.insert(sig);
                }
                ranges.insert(sig, new);
                changed = true;
            }
        }
        if !changed {
            fixpoint = true;
            break;
        }
    }

    if !fixpoint {
        // Anything still moving at the pass limit is effectively unbounded.
        for &sig in &defined {
            if seeds.contains_key(&sig) {
                continue;
            }
            let mut incoming = Interval::EMPTY;
            for &def in graph.defs(sig) {
                let (itv, _) = eval_combined(def, &ranges);
                incoming = incoming.union(&itv);
            }
            let old = ranges.get(&sig).copied().unwrap_or(Interval::EMPTY);
            if old.union(&incoming) != old {
                ranges.insert(sig, Interval::UNBOUNDED);
                note_explode(
                    sig,
                    growth.get(&sig).copied().unwrap_or(passes),
                    &mut exploded,
                );
                widened.insert(sig);
            }
        }
    }

    RangeAnalysis {
        ranges,
        exploded,
        widened,
        clamped,
        passes,
        fixpoint,
    }
}

/// Evaluates one definition subtree. Returns the interval and whether a
/// zero-spanning division inside the subtree was clamped to a declared
/// type bound.
///
/// Division by a range spanning zero is unbounded in interval arithmetic;
/// when the *dividend* carries a declared type (an explicit `cast`), the
/// quotient is clamped to that type's representable range instead of
/// poisoning every downstream multiplication. The clamp is a pragmatic,
/// designer-facing bound (journaled like an overflow, reported via
/// [`RangeAnalysis::clamped_signals`]), mirroring how the hardware cannot
/// hold more than the declared wordlength either way; with no declared
/// type in sight the quotient stays honestly unbounded.
fn eval_interval(
    graph: &Graph,
    root: NodeId,
    ranges: &HashMap<SignalId, Interval>,
) -> (Interval, bool) {
    let mut clamped = false;
    let itv = graph.walk::<Interval>(root, |_, node, args| match &node.op {
        Op::Const(c) => Interval::point(*c),
        Op::Read(s) => effective_range(ranges, *s),
        Op::Add => args[0] + args[1],
        Op::Sub => args[0] - args[1],
        Op::Mul => args[0] * args[1],
        Op::Div => {
            let q = args[0] / args[1];
            match &graph.node(node.args[0]).op {
                Op::Cast(dt) if q.is_exploded() => {
                    clamped = true;
                    q.clamp_to(&Interval::from_dtype(dt))
                }
                _ => q,
            }
        }
        Op::Neg => -args[0],
        Op::Abs => args[0].abs(),
        Op::Min => args[0].min(&args[1]),
        Op::Max => args[0].max(&args[1]),
        Op::Cast(dt) => {
            if dt.overflow() == OverflowMode::Saturate {
                args[0].clamp_to(&Interval::from_dtype(dt))
            } else {
                args[0]
            }
        }
        Op::Select => args[1].union(&args[2]),
    });
    (itv, clamped)
}

/// High bit marks noise symbols that belong to graph nodes (nonlinear
/// fallbacks) rather than signals, so the two namespaces cannot collide.
const NODE_SYMBOL: u32 = 0x8000_0000;

/// Evaluates one definition subtree in affine arithmetic.
///
/// Every `Op::Read` of a signal is anchored on that signal's noise symbol
/// (its raw id), so multiple reads of the same signal inside one
/// definition are fully correlated — the source of the tightening over
/// plain intervals. Nonlinear operators without a useful affine form
/// (division, abs, min/max, select) fall back to interval evaluation of
/// their operands' concretizations, anchored on a per-node symbol; the
/// result is sound but uncorrelated, exactly like the interval path.
fn eval_affine(graph: &Graph, root: NodeId, ranges: &HashMap<SignalId, Interval>) -> AffineForm {
    graph.walk::<AffineForm>(root, |id, node, args| {
        let fresh = NODE_SYMBOL | id.0;
        match &node.op {
            Op::Const(c) => AffineForm::constant(*c),
            Op::Read(s) => AffineForm::from_interval(&effective_range(ranges, *s), s.raw()),
            Op::Add => args[0].add(&args[1]),
            Op::Sub => args[0].sub(&args[1]),
            Op::Mul => args[0].mul(&args[1]),
            Op::Div => {
                // Same clamp rule as the interval path: a zero-spanning
                // quotient with a cast dividend bounds to the cast type.
                let q = args[0].to_interval() / args[1].to_interval();
                let q = match &graph.node(node.args[0]).op {
                    Op::Cast(dt) if q.is_exploded() => q.clamp_to(&Interval::from_dtype(dt)),
                    _ => q,
                };
                AffineForm::from_interval(&q, fresh)
            }
            Op::Neg => args[0].neg(),
            Op::Abs => AffineForm::from_interval(&args[0].to_interval().abs(), fresh),
            Op::Min => {
                AffineForm::from_interval(&args[0].to_interval().min(&args[1].to_interval()), fresh)
            }
            Op::Max => {
                AffineForm::from_interval(&args[0].to_interval().max(&args[1].to_interval()), fresh)
            }
            Op::Cast(dt) => {
                if dt.overflow() == OverflowMode::Saturate {
                    args[0].clamp_to(&Interval::from_dtype(dt), fresh)
                } else {
                    args[0].clone()
                }
            }
            Op::Select => AffineForm::from_interval(
                &args[1].to_interval().union(&args[2].to_interval()),
                fresh,
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Op;

    fn sid(i: u32) -> SignalId {
        SignalId(i)
    }

    /// Builds `y = a*c0 + b*c1` and checks the straight-line fixpoint.
    #[test]
    fn straight_line_dataflow() {
        let mut g = Graph::new();
        let a = g.add(Op::Read(sid(0)), vec![]);
        let b = g.add(Op::Read(sid(1)), vec![]);
        let c0 = g.add(Op::Const(0.5), vec![]);
        let c1 = g.add(Op::Const(-2.0), vec![]);
        let p0 = g.add(Op::Mul, vec![a, c0]);
        let p1 = g.add(Op::Mul, vec![b, c1]);
        let s = g.add(Op::Add, vec![p0, p1]);
        g.record_def(sid(2), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        seeds.insert(sid(1), Interval::new(0.0, 2.0));
        let r = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), None);
        assert!(r.converged());
        // a*0.5 in [-0.5,0.5]; b*-2 in [-4,0]; sum in [-4.5, 0.5]
        assert_eq!(r.range_of(sid(2)).unwrap(), Interval::new(-4.5, 0.5));
        assert!(!r.is_exploded(sid(2)));
    }

    /// An unseeded read contributes the reset value [0,0].
    #[test]
    fn unseeded_read_is_zero_point() {
        let mut g = Graph::new();
        let a = g.add(Op::Read(sid(0)), vec![]);
        let one = g.add(Op::Const(1.0), vec![]);
        let s = g.add(Op::Add, vec![a, one]);
        g.record_def(sid(1), s);
        let r = analyze_ranges(&g, &HashMap::new(), &AnalyzeOptions::default(), None);
        assert_eq!(r.range_of(sid(1)).unwrap(), Interval::point(1.0));
    }

    /// A bounded feedback loop (decaying accumulator) converges.
    #[test]
    fn contracting_feedback_converges() {
        // acc = acc * 0.5 + x, x in [-1, 1]: fixpoint [-2, 2].
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let half = g.add(Op::Const(0.5), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let m = g.add(Op::Mul, vec![acc, half]);
        let s = g.add(Op::Add, vec![m, x]);
        g.record_def(sid(0), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        let r = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), None);
        assert!(r.converged());
        let acc_range = r.range_of(sid(0)).unwrap();
        assert!(!r.is_exploded(sid(0)));
        // Interval iteration converges to within f64 resolution of [-2, 2].
        assert!(acc_range.lo >= -2.0 - 1e-9 && acc_range.lo <= -1.9);
        assert!(acc_range.hi <= 2.0 + 1e-9 && acc_range.hi >= 1.9);
    }

    /// An expanding feedback loop explodes and is widened.
    #[test]
    fn expanding_feedback_explodes() {
        // acc = acc + x, x in [-1, 1]: diverges.
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let s = g.add(Op::Add, vec![acc, x]);
        g.record_def(sid(0), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        let opts = AnalyzeOptions {
            max_passes: 100,
            widen_after: 16,
        };
        let r = analyze_ranges(&g, &seeds, &opts, None);
        assert!(r.is_exploded(sid(0)));
        assert!(r.range_of(sid(0)).unwrap().is_exploded());
        assert!(r.exploded_signals().any(|s| s == sid(0)));
        // Widening makes the analysis terminate within the pass budget.
        assert!(r.passes() <= 100);
    }

    /// Regression (bugfix): a run that only stabilized because a signal
    /// was widened to UNBOUNDED must not report convergence — widened
    /// signals are reported distinctly from clean fixpoints.
    #[test]
    fn widened_feedback_does_not_count_as_converged() {
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let s = g.add(Op::Add, vec![acc, x]);
        g.record_def(sid(0), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        let opts = AnalyzeOptions {
            max_passes: 100,
            widen_after: 16,
        };
        let r = analyze_ranges(&g, &seeds, &opts, None);
        // The loop stabilized (widening snapped the range) well within
        // the pass budget ...
        assert!(r.passes() < 100);
        // ... but that is an explosion, not convergence.
        assert!(!r.converged());
        assert!(r.is_widened(sid(0)));
        assert_eq!(r.widened_signals().collect::<Vec<_>>(), vec![sid(0)]);
        // The seeded input is a clean fixpoint, not widened.
        assert!(!r.is_widened(sid(1)));
    }

    /// Seeding the feedback signal (the paper's range() fix) stops the
    /// explosion.
    #[test]
    fn seeding_feedback_prevents_explosion() {
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let s = g.add(Op::Add, vec![acc, x]);
        g.record_def(sid(0), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        seeds.insert(sid(0), Interval::new(-0.2, 0.2)); // the b.range() fix
        let r = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), None);
        assert!(r.converged());
        assert!(!r.is_exploded(sid(0)));
        assert_eq!(r.range_of(sid(0)).unwrap(), Interval::new(-0.2, 0.2));
    }

    /// Saturating casts bound an otherwise exploding loop.
    #[test]
    fn saturating_cast_bounds_feedback() {
        let dt = fixref_fixed::DType::tc("sat", 8, 5).unwrap(); // saturating
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let s = g.add(Op::Add, vec![acc, x]);
        let c = g.add(Op::Cast(dt.clone()), vec![s]);
        g.record_def(sid(0), c);

        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        let r = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), None);
        assert!(r.converged());
        assert!(!r.is_exploded(sid(0)));
        let range = r.range_of(sid(0)).unwrap();
        assert!(range.lo >= dt.min_value());
        assert!(range.hi <= dt.max_value());
    }

    /// Select covers both branches.
    #[test]
    fn select_unions_branches() {
        let mut g = Graph::new();
        let w = g.add(Op::Read(sid(0)), vec![]);
        let one = g.add(Op::Const(1.0), vec![]);
        let mone = g.add(Op::Const(-1.0), vec![]);
        let sel = g.add(Op::Select, vec![w, one, mone]);
        g.record_def(sid(1), sel);
        let r = analyze_ranges(&g, &HashMap::new(), &AnalyzeOptions::default(), None);
        assert_eq!(r.range_of(sid(1)).unwrap(), Interval::new(-1.0, 1.0));
    }

    /// Multiple defs union.
    #[test]
    fn multiple_defs_union() {
        let mut g = Graph::new();
        let a = g.add(Op::Const(3.0), vec![]);
        let b = g.add(Op::Const(-5.0), vec![]);
        g.record_def(sid(0), a);
        g.record_def(sid(0), b);
        let r = analyze_ranges(&g, &HashMap::new(), &AnalyzeOptions::default(), None);
        assert_eq!(r.range_of(sid(0)).unwrap(), Interval::new(-5.0, 3.0));
    }

    /// Division by a zero-containing range with no declared type in sight
    /// stays honestly unbounded (documented interval semantics).
    #[test]
    fn division_by_zero_range_is_unbounded() {
        let mut g = Graph::new();
        let a = g.add(Op::Const(1.0), vec![]);
        let d = g.add(Op::Read(sid(0)), vec![]);
        let q = g.add(Op::Div, vec![a, d]);
        g.record_def(sid(1), q);
        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        let r = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), None);
        assert!(r.is_exploded(sid(1)));
        assert!(!r.is_clamped(sid(1)));
    }

    /// Bugfix: when the dividend carries a declared type (a cast), a
    /// zero-spanning division clamps to the type bound and is reported,
    /// instead of poisoning downstream multiplications.
    #[test]
    fn division_by_zero_range_clamps_to_declared_type_bound() {
        let dt = fixref_fixed::DType::tc("T_num", 8, 4).unwrap();
        let mut g = Graph::new();
        let num = g.add(Op::Read(sid(0)), vec![]);
        let cast = g.add(Op::Cast(dt.clone()), vec![num]);
        let den = g.add(Op::Read(sid(1)), vec![]);
        let q = g.add(Op::Div, vec![cast, den]);
        g.record_def(sid(2), q);
        // Downstream: w = q * q would be inf*inf without the clamp.
        let q2 = g.add(Op::Read(sid(2)), vec![]);
        let m = g.add(Op::Mul, vec![q2, q2]);
        g.record_def(sid(3), m);

        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        seeds.insert(sid(1), Interval::new(-1.0, 1.0)); // spans zero
        let r = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), None);
        assert!(r.converged());
        assert!(r.is_clamped(sid(2)));
        assert!(!r.is_exploded(sid(2)));
        let qr = r.range_of(sid(2)).unwrap();
        assert_eq!(qr, Interval::from_dtype(&dt));
        // Downstream multiplication stays bounded too.
        let mr = r.range_of(sid(3)).unwrap();
        assert!(mr.is_bounded(), "downstream poisoned: {mr}");
        assert_eq!(r.clamped_signals().collect::<Vec<_>>(), vec![sid(2)]);
    }

    /// The clamp journals an overflow_detected-style event and counter on
    /// an attached recorder.
    #[test]
    fn division_clamp_emits_journal_event() {
        use fixref_obs::DefaultRecorder;
        let dt = fixref_fixed::DType::tc("T_num", 6, 3).unwrap();
        let mut g = Graph::new();
        let num = g.add(Op::Read(sid(0)), vec![]);
        let cast = g.add(Op::Cast(dt), vec![num]);
        let den = g.add(Op::Read(sid(1)), vec![]);
        let q = g.add(Op::Div, vec![cast, den]);
        g.record_def(sid(2), q);

        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        seeds.insert(sid(1), Interval::new(-0.5, 0.5));
        let rec = DefaultRecorder::new();
        let r = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), Some(&rec));
        assert!(r.is_clamped(sid(2)));
        assert_eq!(rec.counter("analyze.range_clamped"), 1);
        let clamp_events: Vec<_> = rec
            .events()
            .into_iter()
            .filter(|e| matches!(e, Event::RangeClamped { .. }))
            .collect();
        assert_eq!(clamp_events.len(), 1, "one event per clamped signal");
        match &clamp_events[0] {
            Event::RangeClamped { signal, lo, hi } => {
                assert_eq!(signal, "s2");
                assert!(lo.is_finite() && hi.is_finite());
            }
            _ => unreachable!(),
        }
    }

    /// Satellite: explosion is journaled (event + counter), not silent.
    #[test]
    fn widening_emits_range_exploded_event_and_counter() {
        use fixref_obs::DefaultRecorder;
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let s = g.add(Op::Add, vec![acc, x]);
        g.record_def(sid(0), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        let opts = AnalyzeOptions {
            max_passes: 100,
            widen_after: 16,
        };
        let rec = DefaultRecorder::new();
        let r = analyze_ranges(&g, &seeds, &opts, Some(&rec));
        assert!(r.is_exploded(sid(0)));
        assert_eq!(rec.counter("analyze.range_exploded"), 1);
        let ev: Vec<_> = rec
            .events()
            .into_iter()
            .filter(|e| matches!(e, Event::RangeExploded { .. }))
            .collect();
        assert_eq!(ev.len(), 1, "one event per exploded signal");
        match &ev[0] {
            Event::RangeExploded { signal, passes } => {
                assert_eq!(signal, "s0");
                assert_eq!(*passes, 16);
            }
            _ => unreachable!(),
        }
    }

    /// Tentpole: the additively-written leaky accumulator
    /// `acc = acc + x - acc*mu` explodes under interval arithmetic (the
    /// two `acc` reads decorrelate, net growth factor `1 + mu`) but
    /// converges under the affine propagator (shared noise symbol, net
    /// contraction `1 - mu`).
    #[test]
    fn affine_converges_where_intervals_explode() {
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let mu = g.add(Op::Const(0.25), vec![]);
        let leak = g.add(Op::Mul, vec![acc, mu]);
        let grown = g.add(Op::Add, vec![acc, x]);
        let s = g.add(Op::Sub, vec![grown, leak]);
        g.record_def(sid(0), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        // Geometric convergence at factor 0.75 takes ~125 passes to
        // settle in f64; give both analyses the same generous budget —
        // the interval iteration truly diverges (growth factor 1.25), so
        // no budget saves it.
        let opts = AnalyzeOptions {
            max_passes: 512,
            widen_after: 256,
        };

        let interval = analyze_ranges(&g, &seeds, &opts, None);
        assert!(
            interval.is_exploded(sid(0)),
            "interval analysis should rail: {:?}",
            interval.range_of(sid(0))
        );

        let affine = analyze_ranges_affine(&g, &seeds, &opts, None);
        assert!(affine.converged(), "affine analysis should converge");
        let r = affine.range_of(sid(0)).expect("range derived");
        assert!(r.is_bounded(), "affine range still unbounded: {r}");
        // True fixpoint of |acc| <= 0.75*|acc| + 1 is [-4, 4].
        assert!(r.hi <= 4.0 + 1e-6 && r.hi >= 3.0, "loose/overtight: {r}");
    }

    /// The affine result is contained in the interval result (soundness
    /// direction asserted per-definition in debug builds, checked here on
    /// whole analyses), and on straight-line code the two agree.
    #[test]
    fn affine_result_is_inside_interval_result() {
        use fixref_obs::DefaultRecorder;
        let mut g = Graph::new();
        let a = g.add(Op::Read(sid(0)), vec![]);
        let b = g.add(Op::Read(sid(1)), vec![]);
        let d = g.add(Op::Sub, vec![a, a]); // correlated: exactly 0
        let m = g.add(Op::Mul, vec![a, b]);
        let s = g.add(Op::Add, vec![d, m]);
        g.record_def(sid(2), s);

        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        seeds.insert(sid(1), Interval::new(0.0, 2.0));
        let interval = analyze_ranges(&g, &seeds, &AnalyzeOptions::default(), None);
        let rec = DefaultRecorder::new();
        let affine = analyze_ranges_affine(&g, &seeds, &AnalyzeOptions::default(), Some(&rec));
        let ir = interval.range_of(sid(2)).expect("interval range");
        let ar = affine.range_of(sid(2)).expect("affine range");
        assert!(
            ir.contains_interval(&ar),
            "affine {ar} escapes interval {ir}"
        );
        // a - a decorrelates to [-2,2] in interval arithmetic, so the
        // affine envelope is strictly tighter and the counter says so.
        assert!(ar.width() < ir.width());
        assert!(rec.counter("analyze.affine_tightened") > 0);
    }
}
