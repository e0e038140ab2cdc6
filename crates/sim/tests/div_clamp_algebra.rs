//! Seeded-sweep property tests for the division range clamp.
//!
//! Interval division by a zero-straddling divisor is unbounded, which
//! used to drown every signal downstream of a divider in `UNBOUNDED`
//! ranges. The range analysis now clamps such quotients to the *declared
//! type* of the dividend when one exists (an `Op::Cast` feeding the
//! division) — the designer-facing bound the refinement rules already
//! trust. These properties pin the clamp's algebra across random seeded
//! dividend/divisor intervals and declared types:
//!
//! * a zero-straddling divisor behind a `Cast` dividend always clamps,
//!   and the clamped range never leaves the declared type's interval;
//! * a divisor bounded away from zero never clamps, and the analyzed
//!   quotient contains every sampled concrete quotient (soundness);
//! * clamped ranges keep downstream propagation bounded.

use std::collections::HashMap;

use fixref_fixed::{DType, Interval, Rng64};
use fixref_sim::{analyze_ranges, AnalyzeOptions, Graph, Op, SignalId};

fn sid(i: u32) -> SignalId {
    SignalId::from_raw(i)
}

/// A random declared type `<w, iw, tc>` with at least one fractional bit.
fn random_dtype(rng: &mut Rng64, tag: u64) -> DType {
    let w = 4 + rng.below(9) as i32; // 4..=12
    let iw = 1 + rng.below((w - 2) as u64) as i32; // 1..w-1
    DType::tc(format!("T{tag}"), w, iw).expect("generated dtype is valid")
}

/// `a` (signal 0) cast to `dt`, divided by `d` (signal 1), defining `q`
/// (signal 2): the clamp's target shape.
fn div_graph(dt: &DType) -> Graph {
    let mut g = Graph::new();
    let a = g.add(Op::Read(sid(0)), vec![]);
    let cast = g.add(Op::Cast(dt.clone()), vec![a]);
    let d = g.add(Op::Read(sid(1)), vec![]);
    let q = g.add(Op::Div, vec![cast, d]);
    g.record_def(sid(2), q);
    g
}

fn seeds(a: Interval, d: Interval) -> HashMap<SignalId, Interval> {
    HashMap::from([(sid(0), a), (sid(1), d)])
}

/// A random interval with both endpoints in `[-mag, mag]`.
fn random_interval(rng: &mut Rng64, mag: f64) -> Interval {
    let x = rng.uniform(-mag, mag);
    let y = rng.uniform(-mag, mag);
    Interval::new(x.min(y), x.max(y))
}

/// A random interval straddling zero: `[-lo_mag, hi_mag]` with both
/// magnitudes positive.
fn straddling_interval(rng: &mut Rng64, mag: f64) -> Interval {
    Interval::new(-rng.uniform(0.001, mag), rng.uniform(0.001, mag))
}

#[test]
fn zero_straddling_divisor_always_clamps_to_the_declared_type() {
    for seed in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) + 1);
        let dt = random_dtype(&mut rng, seed);
        let bounds = Interval::from_dtype(&dt);
        let g = div_graph(&dt);
        let analysis = analyze_ranges(
            &g,
            &seeds(
                random_interval(&mut rng, 8.0),
                straddling_interval(&mut rng, 4.0),
            ),
            &AnalyzeOptions::default(),
            None,
        );
        let q = analysis.range_of(sid(2)).expect("q is defined");
        assert!(
            analysis.is_clamped(sid(2)),
            "seed {seed}: zero-straddling divisor must clamp"
        );
        assert!(!q.is_exploded(), "seed {seed}: clamped range is bounded");
        assert!(
            q.lo >= bounds.lo && q.hi <= bounds.hi,
            "seed {seed}: clamp left the declared type: {q:?} vs {bounds:?}"
        );
    }
}

#[test]
fn divisor_bounded_away_from_zero_never_clamps_and_is_sound() {
    for seed in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(seed * 3 + 17);
        let dt = random_dtype(&mut rng, seed);
        let g = div_graph(&dt);
        let a = random_interval(&mut rng, 8.0);
        // Strictly positive or strictly negative divisor.
        let lo = rng.uniform(0.25, 2.0);
        let hi = lo + rng.uniform(0.0, 4.0);
        let d = if seed % 2 == 0 {
            Interval::new(lo, hi)
        } else {
            Interval::new(-hi, -lo)
        };
        let analysis = analyze_ranges(&g, &seeds(a, d), &AnalyzeOptions::default(), None);
        let q = analysis.range_of(sid(2)).expect("q is defined");
        assert!(
            !analysis.is_clamped(sid(2)),
            "seed {seed}: nonzero divisor must not clamp"
        );
        assert_eq!(analysis.clamped_signals().count(), 0, "seed {seed}");

        // Soundness by sampling: every concrete quotient of the *cast*
        // dividend lies inside the analyzed interval (the cast narrows
        // `a` to the declared type before the division).
        let cast = a.clamp_to(&Interval::from_dtype(&dt));
        let tol = 1e-9;
        for i in 0..=8 {
            let av = cast.lo + (cast.hi - cast.lo) * f64::from(i) / 8.0;
            for j in 0..=8 {
                let dv = d.lo + (d.hi - d.lo) * f64::from(j) / 8.0;
                let qv = av / dv;
                assert!(
                    qv >= q.lo - tol && qv <= q.hi + tol,
                    "seed {seed}: {av}/{dv} = {qv} escapes {q:?}"
                );
            }
        }
    }
}

#[test]
fn clamped_ranges_keep_downstream_propagation_bounded() {
    for seed in 0..32u64 {
        let mut rng = Rng64::seed_from_u64(seed + 411);
        let dt = random_dtype(&mut rng, seed);
        let bounds = Interval::from_dtype(&dt);
        let mut g = Graph::new();
        let a = g.add(Op::Read(sid(0)), vec![]);
        let cast = g.add(Op::Cast(dt.clone()), vec![a]);
        let d = g.add(Op::Read(sid(1)), vec![]);
        let q = g.add(Op::Div, vec![cast, d]);
        g.record_def(sid(2), q);
        // y = q * q rides on the clamped range.
        let qr = g.add(Op::Read(sid(2)), vec![]);
        let qr2 = g.add(Op::Read(sid(2)), vec![]);
        let y = g.add(Op::Mul, vec![qr, qr2]);
        g.record_def(sid(3), y);

        let analysis = analyze_ranges(
            &g,
            &seeds(
                random_interval(&mut rng, 8.0),
                straddling_interval(&mut rng, 2.0),
            ),
            &AnalyzeOptions::default(),
            None,
        );
        let yr = analysis.range_of(sid(3)).expect("y is defined");
        assert!(!yr.is_exploded(), "seed {seed}: downstream stayed bounded");
        let m = bounds.lo.abs().max(bounds.hi.abs());
        assert!(
            yr.hi <= m * m + 1e-9,
            "seed {seed}: q*q bound {yr:?} exceeds {}",
            m * m
        );
    }
}

#[test]
fn const_dividend_without_a_declared_type_stays_unbounded() {
    // The clamp's scope is deliberate: only a dividend with a declared
    // type (an `Op::Cast`) offers a designer-trusted bound. A bare
    // constant dividend over a zero-straddling divisor still explodes.
    let mut g = Graph::new();
    let one = g.add(Op::Const(1.0), vec![]);
    let d = g.add(Op::Read(sid(0)), vec![]);
    let q = g.add(Op::Div, vec![one, d]);
    g.record_def(sid(1), q);
    let analysis = analyze_ranges(
        &g,
        &HashMap::from([(sid(0), Interval::new(-1.0, 1.0))]),
        &AnalyzeOptions::default(),
        None,
    );
    assert!(analysis.is_exploded(sid(1)));
    assert!(!analysis.is_clamped(sid(1)));
}
