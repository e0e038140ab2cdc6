//! Shared graph analyses the passes build on: signal-level adjacency,
//! strongly connected components (feedback cycles), clamping detection
//! and the write-schedule comparison.

use std::collections::HashMap;

use fixref_fixed::OverflowMode;
use fixref_sim::{NodeId, Op, SignalId};

use crate::input::LintInput;

/// Signal-level successor adjacency: an edge `s → t` for every signal
/// `s` read (transitively through wires' defining expressions) by a
/// definition of `t`. Keys and value lists are sorted, so iteration is
/// deterministic.
pub(crate) fn successors(input: &LintInput) -> HashMap<SignalId, Vec<SignalId>> {
    let mut succ: HashMap<SignalId, Vec<SignalId>> = HashMap::new();
    for t in input.defined_signals() {
        for s in input.graph.fan_in(t) {
            succ.entry(s).or_default().push(t);
        }
    }
    for list in succ.values_mut() {
        list.sort();
        list.dedup();
    }
    succ
}

/// Strongly connected components of the signal graph restricted to
/// `nodes`, via iterative Tarjan. Returns only the *cyclic* components —
/// size > 1, or a single signal whose definitions read itself — each
/// sorted by id, the component list sorted by its smallest member.
pub(crate) fn cyclic_components(
    input: &LintInput,
    nodes: &[SignalId],
    succ: &HashMap<SignalId, Vec<SignalId>>,
) -> Vec<Vec<SignalId>> {
    let in_scope: HashMap<SignalId, usize> = nodes
        .iter()
        .copied()
        .enumerate()
        .map(|(i, s)| (s, i))
        .collect();
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<SignalId>> = Vec::new();

    // Explicit DFS frames: (node, next-successor position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let succs = succ.get(&nodes[v]).map(Vec::as_slice).unwrap_or(&[]);
            let mut advanced = false;
            while *pos < succs.len() {
                let w_sig = succs[*pos];
                *pos += 1;
                let Some(&w) = in_scope.get(&w_sig) else {
                    continue;
                };
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                    advanced = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if advanced {
                continue;
            }
            // v is finished: pop its frame, close its component if root.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp.push(nodes[w]);
                    if w == v {
                        break;
                    }
                }
                comp.sort();
                components.push(comp);
            }
        }
    }

    components.retain(|comp| {
        comp.len() > 1
            || comp
                .first()
                .map(|&s| input.graph.fan_in(s).contains(&s))
                .unwrap_or(false)
    });
    components.sort_by_key(|comp| comp.first().copied());
    components
}

/// Whether a definition root is a clamping expression: a `Min`/`Max`
/// chain (explicit clamp) or a `Select` whose value branches are both
/// constants (a slicer — output confined to the two constants).
fn root_clamps(input: &LintInput, root: NodeId) -> bool {
    let node = input.graph.node(root);
    match node.op {
        Op::Min | Op::Max => true,
        Op::Select => node.args[1..]
            .iter()
            .all(|&a| matches!(input.graph.node(a).op, Op::Const(_))),
        _ => false,
    }
}

/// Whether a signal bounds the values flowing through it: an explicit
/// `range()` annotation, a saturating type, or every (non-constant)
/// definition being a clamp/slicer expression.
pub(crate) fn is_clamping(input: &LintInput, sig: SignalId) -> bool {
    let info = input.signal(sig);
    if info.range_override.is_some() {
        return true;
    }
    if let Some(dt) = &info.dtype {
        if dt.overflow() == OverflowMode::Saturate {
            return true;
        }
    }
    let non_const: Vec<NodeId> = input
        .graph
        .defs(sig)
        .iter()
        .copied()
        .filter(|&d| !matches!(input.graph.node(d).op, Op::Const(_)))
        .collect();
    !non_const.is_empty() && non_const.iter().all(|&d| root_clamps(input, d))
}

/// The cyclic components over all defined signals (feedback cycles as
/// built, clamped or not — the FXL005 scope).
pub(crate) fn feedback_cycles(input: &LintInput) -> Vec<Vec<SignalId>> {
    let nodes = input.defined_signals();
    let succ = successors(input);
    cyclic_components(input, &nodes, &succ)
}

/// The cyclic components that survive after every clamping signal is
/// removed from the graph — cycles along which nothing bounds the range,
/// so analytical interval propagation must explode (the FXL002 scope).
pub(crate) fn unclamped_cycles(input: &LintInput) -> Vec<Vec<SignalId>> {
    let nodes: Vec<SignalId> = input
        .defined_signals()
        .into_iter()
        .filter(|&s| !is_clamping(input, s))
        .collect();
    let succ = successors(input);
    cyclic_components(input, &nodes, &succ)
}

/// Number of non-constant definition roots of a signal. Constant
/// definitions are exempt everywhere: a stimulus input or coefficient
/// load records one `Const` definition per distinct value without any
/// control flow being involved.
pub(crate) fn non_const_defs(input: &LintInput, sig: SignalId) -> usize {
    input
        .graph
        .defs(sig)
        .iter()
        .filter(|&&d| !matches!(input.graph.node(d).op, Op::Const(_)))
        .count()
}

/// Whether a producer/consumer write-count pair indicates the two run on
/// different schedules. Tolerates small absolute skews (a register seeded
/// once in `init` is written `N + 1` times against full-rate producers'
/// `N`, and per-scenario seeding adds one write per scenario) but flags a
/// sustained divergence like a strobe gating half the cycles. The
/// threshold — ≥ 12.5 % relative divergence with at least 16 writes on
/// the faster side — is deliberately coarse: FXL001 is a structural
/// verdict, not a profiler.
pub(crate) fn schedule_mismatch(a: u64, b: u64) -> bool {
    let (lo, hi) = (a.min(b), a.max(b));
    hi >= 16 && (hi - lo) * 8 >= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::Interval;
    use fixref_sim::{Design, Graph, SignalKind};

    fn sid(i: u32) -> SignalId {
        SignalId::from_raw(i)
    }

    /// Builds a LintInput over a hand-made graph with default signal
    /// facts for `n` signals named s0..s{n-1}.
    fn input_for(graph: Graph, n: u32) -> LintInput {
        LintInput {
            graph: graph.into(),
            signals: (0..n)
                .map(|i| crate::input::SignalInfo {
                    id: sid(i),
                    name: format!("s{i}"),
                    kind: SignalKind::Wire,
                    dtype: None,
                    range_override: None,
                    prop: Interval::EMPTY,
                    stat: None,
                    reads: 0,
                    writes: 0,
                })
                .collect(),
            static_schedule: false,
        }
    }

    #[test]
    fn sccs_find_self_loops_and_mutual_cycles_only() {
        // s0 -> s1 -> s2 (chain), s3 = s3 + s4 (self loop), s5 <-> s6.
        let mut g = Graph::new();
        let r0 = g.add(Op::Read(sid(0)), vec![]);
        let n1 = g.add(Op::Neg, vec![r0]);
        g.record_def(sid(1), n1);
        let r1 = g.add(Op::Read(sid(1)), vec![]);
        let n2 = g.add(Op::Abs, vec![r1]);
        g.record_def(sid(2), n2);
        let r3 = g.add(Op::Read(sid(3)), vec![]);
        let r4 = g.add(Op::Read(sid(4)), vec![]);
        let acc = g.add(Op::Add, vec![r3, r4]);
        g.record_def(sid(3), acc);
        let r6 = g.add(Op::Read(sid(6)), vec![]);
        let n5 = g.add(Op::Neg, vec![r6]);
        g.record_def(sid(5), n5);
        let r5 = g.add(Op::Read(sid(5)), vec![]);
        let n6 = g.add(Op::Abs, vec![r5]);
        g.record_def(sid(6), n6);

        let input = input_for(g, 7);
        let cycles = feedback_cycles(&input);
        assert_eq!(cycles, vec![vec![sid(3)], vec![sid(5), sid(6)]]);
    }

    #[test]
    fn clamp_removal_breaks_cycles() {
        // s0 = s1 + 1; s1 = min(s0, c): the cycle passes through a
        // clamping min, so no unclamped cycle remains.
        let mut g = Graph::new();
        let r1 = g.add(Op::Read(sid(1)), vec![]);
        let one = g.add(Op::Const(1.0), vec![]);
        let s0def = g.add(Op::Add, vec![r1, one]);
        g.record_def(sid(0), s0def);
        let r0 = g.add(Op::Read(sid(0)), vec![]);
        let cap = g.add(Op::Const(0.5), vec![]);
        let s1def = g.add(Op::Min, vec![r0, cap]);
        g.record_def(sid(1), s1def);

        let input = input_for(g, 2);
        assert_eq!(feedback_cycles(&input).len(), 1);
        assert!(is_clamping(&input, sid(1)));
        assert!(!is_clamping(&input, sid(0)));
        assert!(unclamped_cycles(&input).is_empty());
    }

    #[test]
    fn range_override_and_saturating_dtype_count_as_clamps() {
        let mut g = Graph::new();
        let r0 = g.add(Op::Read(sid(0)), vec![]);
        let acc = g.add(Op::Neg, vec![r0]);
        g.record_def(sid(0), acc);
        let mut input = input_for(g, 1);
        assert!(!is_clamping(&input, sid(0)));
        input.signals[0].range_override = Some(Interval::new(-1.0, 1.0));
        assert!(is_clamping(&input, sid(0)));
        input.signals[0].range_override = None;
        input.signals[0].dtype = Some("<8,6,tc,st,rd>".parse().expect("valid"));
        assert!(is_clamping(&input, sid(0)));
        input.signals[0].dtype = Some("<8,6,tc,wp,rd>".parse().expect("valid"));
        assert!(!is_clamping(&input, sid(0)));
    }

    #[test]
    fn const_branch_select_is_a_slicer_clamp() {
        let mut g = Graph::new();
        let r0 = g.add(Op::Read(sid(0)), vec![]);
        let hi = g.add(Op::Const(1.0), vec![]);
        let lo = g.add(Op::Const(-1.0), vec![]);
        let sel = g.add(Op::Select, vec![r0, hi, lo]);
        g.record_def(sid(1), sel);
        // A select with a non-constant branch does not clamp.
        let sel2 = g.add(Op::Select, vec![r0, r0, lo]);
        g.record_def(sid(2), sel2);
        let input = input_for(g, 3);
        assert!(is_clamping(&input, sid(1)));
        assert!(!is_clamping(&input, sid(2)));
    }

    #[test]
    fn non_const_defs_ignores_stimulus_constants() {
        let mut g = Graph::new();
        let c1 = g.add(Op::Const(0.25), vec![]);
        let c2 = g.add(Op::Const(0.5), vec![]);
        g.record_def(sid(0), c1);
        g.record_def(sid(0), c2);
        let r0 = g.add(Op::Read(sid(0)), vec![]);
        let n = g.add(Op::Neg, vec![r0]);
        g.record_def(sid(1), n);
        g.record_def(sid(1), r0);
        let input = input_for(g, 2);
        assert_eq!(non_const_defs(&input, sid(0)), 0);
        assert_eq!(non_const_defs(&input, sid(1)), 2);
    }

    #[test]
    fn schedule_mismatch_tolerates_skew_but_flags_strobes() {
        // Equal and off-by-one (init seeding) pass.
        assert!(!schedule_mismatch(4000, 4000));
        assert!(!schedule_mismatch(4001, 4000));
        // Per-scenario seeding skew (8 scenarios) passes.
        assert!(!schedule_mismatch(32008, 32000));
        // A strobe at half rate is flagged.
        assert!(schedule_mismatch(2000, 4000));
        assert!(schedule_mismatch(4000, 2000));
        // Tiny runs never flag (not enough evidence).
        assert!(!schedule_mismatch(3, 15));
    }

    #[test]
    fn lms_shaped_design_yields_the_paper_cycles() {
        // End-to-end sanity on a real recorded design: the LMS-style
        // slicer loop w -> y -> b -> w leaves {b, w} once the slicer
        // clamps y.
        let d = Design::new();
        let w = d.sig("w");
        let y = d.sig("y");
        let b = d.reg("b");
        let s = d.reg("s");
        let x = d.sig("x");
        d.record_graph(true);
        for i in 0..40 {
            x.set((i as f64 * 0.3).sin());
            w.set(x.get() - b.get() * s.get());
            y.set(
                w.get()
                    .select_positive(fixref_sim::Value::from(1.0), fixref_sim::Value::from(-1.0)),
            );
            b.set(b.get() + 0.0625 * s.get() * (w.get() - y.get()));
            s.set(y.get());
            d.tick();
        }
        d.record_graph(false);
        let input = LintInput::from_design(&d);
        let all = feedback_cycles(&input);
        assert_eq!(all.len(), 1, "one slicer loop: {all:?}");
        assert_eq!(all[0].len(), 4, "w, y, b, s: {all:?}");
        let unclamped = unclamped_cycles(&input);
        assert_eq!(unclamped.len(), 1);
        let names: Vec<&str> = unclamped[0].iter().map(|&s| input.name(s)).collect();
        assert_eq!(names, vec!["w", "b"], "slicer y and s drop out");
    }
}
