//! Seeded containment property for the shared post-order walk.
//!
//! The interval and affine range analyses walk each definition with
//! [`Graph::walk`], and the netlist evaluates it bit-true along the same
//! post-order; each keeps its own `match` on `Op`. An operand wired to the
//! wrong value (swapped `Sub` or `Div` operands, the wrong `Select`
//! branch) makes a concrete evaluation escape the abstract envelope. On
//! random cast-free graphs, the bit-true value of every definition at
//! random points inside the seeded read ranges must lie inside its
//! interval range and inside its affine range, up to `EVAL_TOL` roundoff.
//! Neither analysis rounds outward (interval division multiplies by the
//! rounded reciprocal, so `x / c` can sit one ulp past the bound), so
//! both envelopes get the same relative slack.
//!
//! Casts are left out on purpose. Both analyses track ideal values, and a
//! rounding cast can land outside them: a read range of `[0, 0.3]` through
//! `Cast(<4,1,tc,st,rd>)` analyses to `[0, 0.3]`, while `quantize(0.3)` is
//! 0.5.

use std::collections::HashMap;

use fixref_fixed::{Interval, Rng64};
use fixref_sim::{
    analyze_ranges, analyze_ranges_affine, AnalyzeOptions, Graph, Netlist, NodeId, Op, Role,
    SignalId, SignalKind,
};

/// Slack for f64 roundoff (as in the affine algebra properties),
/// relative to the value's magnitude.
const EVAL_TOL: f64 = 1e-9;
/// Seeded signals read by the graph.
const READS: u32 = 3;
/// Signals defined by the graph, after the reads.
const DEFINED: u32 = 4;
/// Operator depth cap, which keeps products finite.
const MAX_DEPTH: u32 = 4;

fn sid(i: u32) -> SignalId {
    SignalId::from_raw(i)
}

/// A random cast-free graph over the reads `0..READS`, defining signals
/// `READS..READS + DEFINED` with one definition each.
fn random_graph(rng: &mut Rng64) -> Graph {
    let mut g = Graph::new();
    let mut pool: Vec<(NodeId, u32)> = (0..READS)
        .map(|s| (g.add(Op::Read(sid(s)), vec![]), 0))
        .collect();
    for _ in 0..2 {
        pool.push((g.add(Op::Const(rng.symmetric(3.0)), vec![]), 0));
    }
    for _ in 0..16 {
        let shallow: Vec<(NodeId, u32)> = pool
            .iter()
            .copied()
            .filter(|&(_, depth)| depth < MAX_DEPTH)
            .collect();
        let pick = |rng: &mut Rng64| shallow[rng.below(shallow.len() as u64) as usize];
        let (op, args) = match rng.below(9) {
            0 => (Op::Add, vec![pick(rng), pick(rng)]),
            1 => (Op::Sub, vec![pick(rng), pick(rng)]),
            2 => (Op::Mul, vec![pick(rng), pick(rng)]),
            3 => (Op::Neg, vec![pick(rng)]),
            4 => (Op::Abs, vec![pick(rng)]),
            5 => (Op::Min, vec![pick(rng), pick(rng)]),
            6 => (Op::Max, vec![pick(rng), pick(rng)]),
            7 => {
                let c = rng.uniform(0.5, 3.0);
                let c = if rng.below(2) == 0 { c } else { -c };
                (Op::Div, vec![pick(rng), (g.add(Op::Const(c), vec![]), 0)])
            }
            _ => (Op::Select, vec![pick(rng), pick(rng), pick(rng)]),
        };
        let depth = 1 + args.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let ids = args.iter().map(|&(id, _)| id).collect();
        pool.push((g.add(op, ids), depth));
    }
    for s in READS..READS + DEFINED {
        let (def, _) = pool[rng.below(pool.len() as u64) as usize];
        g.record_def(sid(s), def);
    }
    g
}

fn assert_inside(itv: Interval, v: f64, tol: f64, ctx: &str) {
    assert!(
        itv.contains(v) || (v - itv.lo).abs() <= tol || (v - itv.hi).abs() <= tol,
        "{ctx}: bit-true value {v} escapes {itv}"
    );
}

#[test]
fn bit_true_values_lie_inside_interval_and_affine_ranges() {
    for seed in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) + 7);
        let g = random_graph(&mut rng);
        let seeds: HashMap<SignalId, Interval> = (0..READS)
            .map(|s| {
                let lo = rng.symmetric(2.0);
                (sid(s), Interval::new(lo, lo + rng.uniform(0.01, 2.0)))
            })
            .collect();
        let options = AnalyzeOptions::default();
        let interval = analyze_ranges(&g, &seeds, &options, None);
        let affine = analyze_ranges_affine(&g, &seeds, &options, None);

        let signals: Vec<(SignalId, Role)> = (0..READS + DEFINED)
            .map(|s| (sid(s), Role::of(&g, sid(s), SignalKind::Wire, true)))
            .collect();
        let netlist = Netlist::new(&g, &signals).expect("no wire reads another");
        assert_eq!(netlist.wires().len(), DEFINED as usize, "seed {seed}");

        let mut values = vec![0.0; signals.len()];
        let mut temps = Vec::new();
        for point in 0..16 {
            for s in 0..READS {
                let seed_range = seeds[&sid(s)];
                values[s as usize] = match point {
                    0 => seed_range.lo,
                    1 => seed_range.hi,
                    _ => rng.uniform(seed_range.lo, seed_range.hi),
                };
            }
            for wire in netlist.wires() {
                let v = wire.eval(&values, &mut temps);
                assert!(v.is_finite(), "seed {seed}: {} is {v}", wire.signal);
                let ctx = format!("seed {seed} point {point} {}", wire.signal);
                let tol = EVAL_TOL * (1.0 + v.abs());
                let itv = interval.range_of(wire.signal).expect("defined signal");
                assert_inside(itv, v, tol, &format!("{ctx} interval"));
                let aff = affine.range_of(wire.signal).expect("defined signal");
                assert_inside(aff, v, tol, &format!("{ctx} affine"));
            }
        }
    }
}
