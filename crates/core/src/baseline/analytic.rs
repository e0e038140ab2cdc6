//! Pure analytical wordlength derivation (Willems et al. \[3\]).
//!
//! The second reference approach: derive everything from the signal-flow
//! graph by worst-case propagation, with no reliance on stimuli. MSBs come
//! from interval fixpoint ranges; LSBs from a worst-case error-bound
//! propagation that charges every quantizer half an LSB and accumulates
//! absolutely through every operator. "This method yields results very
//! fast, but it is a conservative approach which leads to overestimation
//! of signal wordlengths" — observable here as larger decided wordlengths
//! than the hybrid flow on the same designs.

use std::collections::HashMap;

use fixref_fixed::{msb_for_range, DType, Interval, OverflowMode, RoundingMode, Signedness};
use fixref_sim::analyze::{analyze_ranges, AnalyzeOptions};
use fixref_sim::{Graph, NodeId, Op, SignalId};

/// Options for [`analytic_refine`].
#[derive(Debug, Clone)]
pub struct AnalyticOptions {
    /// Finest uniform fraction the LSB search will consider.
    pub max_fraction: i32,
    /// Error-propagation fixpoint passes before declaring divergence.
    pub error_passes: usize,
    /// Overflow mode of the decided types (the analytical method proves
    /// no overflow, so wrap is safe; error keeps verification observable).
    pub overflow: OverflowMode,
}

impl Default for AnalyticOptions {
    fn default() -> Self {
        AnalyticOptions {
            max_fraction: 31,
            error_passes: 128,
            overflow: OverflowMode::Error,
        }
    }
}

/// The result of an analytical derivation.
#[derive(Debug, Clone)]
pub struct AnalyticOutcome {
    /// Decided MSB per signal (worst case).
    pub msb: HashMap<SignalId, i32>,
    /// Signals whose range exploded — they need a declared `range()`
    /// before the analytical method can type them at all.
    pub needs_annotation: Vec<SignalId>,
    /// The uniform fractional wordlength satisfying the error budget, if
    /// one at most [`AnalyticOptions::max_fraction`] exists.
    pub uniform_fraction: Option<i32>,
    /// The decided types (signals with both an MSB and the uniform LSB).
    pub types: Vec<(SignalId, DType)>,
    /// Worst-case output error bound at the decided fraction.
    pub output_error_bound: Option<f64>,
}

/// Derives worst-case types from the signal-flow graph alone.
///
/// `seeds` declares input/annotated ranges (the analytical method cannot
/// run without input ranges); `outputs` are the signals whose worst-case
/// error must stay within `error_budget`.
pub fn analytic_refine(
    graph: &Graph,
    seeds: &HashMap<SignalId, Interval>,
    outputs: &[SignalId],
    error_budget: f64,
    options: &AnalyticOptions,
) -> AnalyticOutcome {
    // MSB side: interval fixpoint over the graph.
    let analysis = analyze_ranges(graph, seeds, &AnalyzeOptions::default(), None);
    let mut msb = HashMap::new();
    let mut needs_annotation = Vec::new();
    let mut signals: Vec<SignalId> = graph.defined_signals().collect();
    signals.sort();
    let defined = signals.clone();
    for &sig in &defined {
        match analysis.range_of(sig) {
            Some(r) if r.is_bounded() => {
                if let Some(m) = msb_for_range(r.lo, r.hi, Signedness::TwosComplement) {
                    msb.insert(sig, m);
                }
            }
            _ => needs_annotation.push(sig),
        }
    }
    // Seeded inputs also get (worst-case) MSBs.
    for (&sig, r) in seeds {
        if let Some(m) = msb_for_range(r.lo, r.hi, Signedness::TwosComplement) {
            msb.entry(sig).or_insert(m);
        }
    }

    // LSB side: smallest uniform fraction whose worst-case accumulated
    // error stays inside the budget at every output. Seeded inputs are
    // quantized too, so they are charged their own quantizer.
    for &sig in seeds.keys() {
        if !signals.contains(&sig) {
            signals.push(sig);
        }
    }
    signals.sort();
    let ranges = analysis.ranges().clone();
    let mut uniform_fraction = None;
    let mut output_error_bound = None;
    let pinned: Vec<SignalId> = seeds.keys().copied().collect();
    for f in 0..=options.max_fraction {
        if let Some(bound) =
            worst_case_error(graph, &ranges, &signals, &pinned, f, options.error_passes)
        {
            let worst = outputs
                .iter()
                .map(|s| bound.get(s).copied().unwrap_or(f64::INFINITY))
                .fold(0.0f64, f64::max);
            if worst <= error_budget {
                uniform_fraction = Some(f);
                output_error_bound = Some(worst);
                break;
            }
        }
    }

    let types = match uniform_fraction {
        Some(f) => msb
            .iter()
            .filter_map(|(&sig, &m)| {
                DType::from_positions(
                    format!("s{}_an", sig.raw()),
                    m,
                    (-f).min(m),
                    Signedness::TwosComplement,
                    options.overflow,
                    RoundingMode::Round,
                )
                .ok()
                .map(|t| (sig, t))
            })
            .collect(),
        None => Vec::new(),
    };

    AnalyticOutcome {
        msb,
        needs_annotation,
        uniform_fraction,
        types,
        output_error_bound,
    }
}

/// Worst-case error-bound fixpoint: every signal quantized at fraction `f`
/// contributes `2^-f / 2`, operators accumulate absolutely using the value
/// ranges for multiplicative gains. Signals in `pinned` (seeded /
/// designer-annotated, e.g. adaptive feedback coefficients) contribute
/// only their own quantizer — the analytical analogue of the hybrid
/// flow's `error()` annotation. Returns `None` when the bound diverges
/// (non-contracting feedback without an annotation) — the honest answer
/// of a worst-case method.
fn worst_case_error(
    graph: &Graph,
    ranges: &HashMap<SignalId, Interval>,
    signals: &[SignalId],
    pinned: &[SignalId],
    fraction: i32,
    passes: usize,
) -> Option<HashMap<SignalId, f64>> {
    let q_half = (-(fraction as f64)).exp2() / 2.0;
    let mut err: HashMap<SignalId, f64> = HashMap::new();
    for &sig in pinned {
        err.insert(sig, q_half);
    }
    for _ in 0..passes {
        let mut changed = false;
        for &sig in signals {
            if pinned.contains(&sig) {
                continue;
            }
            let mut bound = 0.0f64;
            for &def in graph.defs(sig) {
                bound = bound.max(node_error(graph, def, ranges, &err, q_half));
            }
            bound += q_half; // this signal's own quantizer
            let old = err.get(&sig).copied().unwrap_or(0.0);
            if bound > old * (1.0 + 1e-12) + 1e-30 {
                err.insert(sig, bound);
                changed = true;
            }
        }
        if !changed {
            return Some(err);
        }
        if err.values().any(|e| !e.is_finite() || *e > 1e12) {
            return None;
        }
    }
    None
}

fn node_error(
    graph: &Graph,
    root: NodeId,
    ranges: &HashMap<SignalId, Interval>,
    err: &HashMap<SignalId, f64>,
    q_half: f64,
) -> f64 {
    // Per node: (max |value|, error bound).
    let (_, error) = graph.walk(root, |_, node, args| match &node.op {
        Op::Const(c) => (c.abs(), 0.0),
        Op::Read(s) => (
            ranges.get(s).map(|r| r.max_abs()).unwrap_or(0.0),
            err.get(s).copied().unwrap_or(0.0),
        ),
        Op::Add | Op::Sub => {
            let (a, ea) = args[0];
            let (b, eb) = args[1];
            (a + b, ea + eb)
        }
        Op::Mul => {
            let (a, ea) = args[0];
            let (b, eb) = args[1];
            // `inf * 0` is NaN in IEEE; here an exact (zero-error)
            // factor contributes zero error regardless of the other
            // factor's range, so NaN resolves to 0.
            let t = |x: f64, y: f64| {
                let p = x * y;
                if p.is_nan() {
                    0.0
                } else {
                    p
                }
            };
            (t(a, b), t(a, eb) + t(b, ea) + t(ea, eb))
        }
        Op::Div => {
            // Worst case unless the divisor range excludes zero widely;
            // stay conservative.
            let (a, ea) = args[0];
            let (_, eb) = args[1];
            if eb > 0.0 {
                (f64::INFINITY, f64::INFINITY)
            } else {
                (a, ea)
            }
        }
        Op::Neg | Op::Abs => args[0],
        Op::Min | Op::Max => {
            let (a, ea) = args[0];
            let (b, eb) = args[1];
            (a.max(b), ea.max(eb))
        }
        Op::Cast(_) => {
            let (a, ea) = args[0];
            (a, ea + q_half)
        }
        Op::Select => {
            let (a, ea) = args[1];
            let (b, eb) = args[2];
            (a.max(b), ea.max(eb))
        }
    });
    error
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> SignalId {
        SignalId::from_raw(i)
    }

    /// y = 0.5*x + 0.25: straight line, everything derivable.
    fn straight_line() -> Graph {
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let c = g.add(Op::Const(0.5), vec![]);
        let k = g.add(Op::Const(0.25), vec![]);
        let m = g.add(Op::Mul, vec![x, c]);
        let s = g.add(Op::Add, vec![m, k]);
        g.record_def(sid(1), s);
        g
    }

    #[test]
    fn straight_line_types_fully() {
        let g = straight_line();
        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        let out = analytic_refine(&g, &seeds, &[sid(1)], 1e-3, &AnalyticOptions::default());
        assert!(out.needs_annotation.is_empty());
        // y in [-0.25, 0.75] -> msb 0; x in [-1, 1] -> msb 1 (1 is not
        // strictly below 2^0).
        assert_eq!(out.msb[&sid(1)], 0);
        assert_eq!(out.msb[&sid(0)], 1);
        let f = out.uniform_fraction.expect("budget reachable");
        // Error bound: x err = q/2 (input quantizer), y = 0.5*q/2 + q/2
        // = 0.75*2^-f <= 1e-3 -> f >= 10.
        assert!(f >= 10, "fraction {f}");
        assert!(out.output_error_bound.unwrap() <= 1e-3);
        assert_eq!(out.types.len(), 2);
    }

    #[test]
    fn tighter_budget_needs_more_bits() {
        let g = straight_line();
        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        let loose = analytic_refine(&g, &seeds, &[sid(1)], 1e-2, &AnalyticOptions::default());
        let tight = analytic_refine(&g, &seeds, &[sid(1)], 1e-5, &AnalyticOptions::default());
        assert!(tight.uniform_fraction.unwrap() > loose.uniform_fraction.unwrap());
    }

    #[test]
    fn unbounded_feedback_needs_annotation() {
        // acc = acc + x.
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let s = g.add(Op::Add, vec![acc, x]);
        g.record_def(sid(0), s);
        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        let out = analytic_refine(&g, &seeds, &[sid(0)], 1e-3, &AnalyticOptions::default());
        assert_eq!(out.needs_annotation, vec![sid(0)]);
        assert!(!out.msb.contains_key(&sid(0)));
    }

    #[test]
    fn contracting_feedback_error_converges() {
        // acc = 0.5*acc + x: error fixpoint e = 0.5 e + q/2 + q/2.
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let h = g.add(Op::Const(0.5), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let m = g.add(Op::Mul, vec![acc, h]);
        let s = g.add(Op::Add, vec![m, x]);
        g.record_def(sid(0), s);
        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-1.0, 1.0));
        let out = analytic_refine(&g, &seeds, &[sid(0)], 1e-3, &AnalyticOptions::default());
        assert!(out.uniform_fraction.is_some());
        assert!(out.output_error_bound.unwrap() <= 1e-3);
    }

    #[test]
    fn non_contracting_error_feedback_diverges_honestly() {
        // y = 1.5*y_prev + x through an unseeded intermediary: worst-case
        // LSB error diverges -> no uniform fraction, and the feedback MSB
        // needs an annotation.
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let k = g.add(Op::Const(1.5), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let m = g.add(Op::Mul, vec![acc, k]);
        let s = g.add(Op::Add, vec![m, x]);
        g.record_def(sid(0), s);
        let mut seeds = HashMap::new();
        seeds.insert(sid(1), Interval::new(-0.1, 0.1));
        let out = analytic_refine(&g, &seeds, &[sid(0)], 1e-3, &AnalyticOptions::default());
        assert_eq!(out.needs_annotation, vec![sid(0)]);
        assert_eq!(out.uniform_fraction, None);
        assert!(out.types.is_empty());
    }

    #[test]
    fn seeding_feedback_pins_its_error_like_an_annotation() {
        // The same non-contracting loop, but with the feedback signal
        // seeded (the designer's annotation): its error contribution is
        // its own quantizer only, so the derivation completes.
        let mut g = Graph::new();
        let acc = g.add(Op::Read(sid(0)), vec![]);
        let k = g.add(Op::Const(1.5), vec![]);
        let x = g.add(Op::Read(sid(1)), vec![]);
        let m = g.add(Op::Mul, vec![acc, k]);
        let s = g.add(Op::Add, vec![m, x]);
        g.record_def(sid(0), s);
        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        seeds.insert(sid(1), Interval::new(-0.1, 0.1));
        let out = analytic_refine(&g, &seeds, &[sid(0)], 1e-3, &AnalyticOptions::default());
        assert!(out.uniform_fraction.is_some());
        assert!(!out.types.is_empty());
    }

    #[test]
    fn conservatism_versus_true_error() {
        // The worst-case bound must be >= any achievable error, by a
        // visible margin on a 3-stage chain.
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let mut cur = x;
        for i in 1..=3u32 {
            let c = g.add(Op::Const(0.9), vec![]);
            let m = g.add(Op::Mul, vec![cur, c]);
            g.record_def(sid(i), m);
            cur = g.add(Op::Read(sid(i)), vec![]);
        }
        let mut seeds = HashMap::new();
        seeds.insert(sid(0), Interval::new(-1.0, 1.0));
        let out = analytic_refine(&g, &seeds, &[sid(3)], 1e-3, &AnalyticOptions::default());
        let f = out.uniform_fraction.unwrap();
        // A single quantizer at that fraction gives error 2^-f/2; the chain
        // bound must exceed that (accumulation).
        let single = (-(f as f64)).exp2() / 2.0;
        assert!(out.output_error_bound.unwrap() > single * 2.0);
    }
}
