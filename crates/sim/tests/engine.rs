//! End-to-end tests of the dual-path simulation engine.

use fixref_fixed::{DType, Interval, OverflowMode, RoundingMode, Signedness};
use fixref_sim::{analyze_ranges, Design, SignalRef};
use std::collections::HashMap;

fn tc(n: i32, f: i32, o: OverflowMode) -> DType {
    DType::new(
        "t",
        n,
        f,
        Signedness::TwosComplement,
        o,
        RoundingMode::Round,
    )
    .unwrap()
}

#[test]
fn wire_assignment_is_immediate() {
    let d = Design::new();
    let a = d.sig("a");
    a.set(1.25);
    assert_eq!(a.get().flt(), 1.25);
    assert_eq!(a.get().fix(), 1.25);
}

#[test]
fn register_assignment_waits_for_tick() {
    let d = Design::new();
    let r = d.reg("r");
    r.set(2.0);
    assert_eq!(r.get().flt(), 0.0);
    d.tick();
    assert_eq!(r.get().flt(), 2.0);
    assert_eq!(d.cycle(), 1);
    // Overwriting before the tick keeps only the last value.
    r.set(3.0);
    r.set(4.0);
    d.tick();
    assert_eq!(r.get().flt(), 4.0);
}

#[test]
fn delay_line_shift_with_registers() {
    // d[0] <- x; d[i] <- d[i-1]; all reads see pre-tick values, so the
    // paper's delay line works in any statement order.
    let d = Design::new();
    let line = d.reg_array("d", 3);
    for step in 0..5 {
        line.at(0).set(step as f64);
        for i in 1..3 {
            line.at(i).set(line.at(i - 1).get());
        }
        d.tick();
    }
    // After 5 steps feeding 0,1,2,3,4: d = [4, 3, 2]
    assert_eq!(line.at(0).get().flt(), 4.0);
    assert_eq!(line.at(1).get().flt(), 3.0);
    assert_eq!(line.at(2).get().flt(), 2.0);
}

#[test]
fn typed_signal_quantizes_fixed_path_only() {
    let d = Design::new();
    let t = tc(7, 5, OverflowMode::Saturate);
    let x = d.sig_typed("x", t);
    x.set(0.71); // q = 23/32 = 0.71875
    let v = x.get();
    assert_eq!(v.flt(), 0.71);
    assert!((v.fix() - 0.71875).abs() < 1e-12);
    assert!((v.error() - (0.71 - 0.71875)).abs() < 1e-12);
}

#[test]
fn quantization_error_propagates_through_dataflow() {
    let d = Design::new();
    let t = tc(7, 5, OverflowMode::Saturate);
    let x = d.sig_typed("x", t);
    let y = d.sig("y"); // floating: carries the input's error forward
    x.set(0.7);
    y.set(x.get() * 2.0);
    let v = y.get();
    assert!((v.flt() - 1.4).abs() < 1e-12);
    assert!((v.fix() - 2.0 * 0.6875).abs() < 1e-12);
    // y's consumed and produced errors are equal (no own quantization).
    let r = d.report_for(&y);
    assert!((r.consumed.max_abs() - r.produced.max_abs()).abs() < 1e-15);
}

#[test]
fn stat_range_records_pre_quantization_values() {
    let d = Design::new();
    let t = tc(7, 5, OverflowMode::Saturate); // range [-2, 1.96875]
    let x = d.sig_typed("x", t);
    x.set(3.5); // saturates to 1.96875, but the monitor must see 3.5
    let r = d.report_for(&x);
    assert_eq!(r.stat.max(), 3.5);
    assert_eq!(r.overflows, 1);
    assert!((x.get().fix() - 1.96875).abs() < 1e-12);
}

#[test]
fn overflow_events_only_for_error_mode() {
    let d = Design::new();
    let sat = d.sig_typed("sat", tc(7, 5, OverflowMode::Saturate));
    let err = d.sig_typed("err", tc(7, 5, OverflowMode::Error));
    sat.set(5.0);
    err.set(5.0);
    let events = d.take_overflow_events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, "err");
    assert_eq!(events[0].value, 5.0);
    // Drained.
    assert!(d.take_overflow_events().is_empty());
    // Both counted overflows in their reports.
    assert_eq!(d.report_for(&sat).overflows, 1);
    assert_eq!(d.report_for(&err).overflows, 1);
}

#[test]
fn range_propagation_through_expressions() {
    let d = Design::new();
    let a = d.sig("a");
    let b = d.sig("b");
    let y = d.sig("y");
    a.range(-1.0, 1.0);
    b.range(0.0, 2.0);
    a.set(0.1);
    b.set(0.2);
    y.set(a.get() * b.get() + 1.0);
    let r = d.report_for(&y);
    // a*b in [-2, 2], +1 -> [-1, 3]
    assert_eq!(r.prop, Interval::new(-1.0, 3.0));
}

#[test]
fn prop_grows_by_union_across_assignments() {
    let d = Design::new();
    let y = d.sig("y");
    y.set(1.0);
    y.set(-3.0);
    y.set(2.0);
    assert_eq!(d.report_for(&y).prop, Interval::new(-3.0, 2.0));
    assert_eq!(
        d.report_for(&y).stat.interval().unwrap(),
        Interval::new(-3.0, 2.0)
    );
}

#[test]
fn typed_signal_prop_starts_at_type_range() {
    let d = Design::new();
    let t = tc(7, 5, OverflowMode::Saturate);
    let x = d.sig_typed("x", t.clone());
    let r = d.report_for(&x);
    assert_eq!(r.prop, Interval::from_dtype(&t));
}

#[test]
fn range_override_pins_propagation_and_reads() {
    let d = Design::new();
    let x = d.sig("x");
    x.range(-1.5, 1.5);
    x.set(7.0); // outside the override: prop must stay pinned
    assert_eq!(d.report_for(&x).effective_prop(), Interval::new(-1.5, 1.5));
    assert_eq!(x.get().interval(), Interval::new(-1.5, 1.5));
    // The statistic still sees the truth.
    assert_eq!(d.report_for(&x).stat.max(), 7.0);
}

#[test]
fn saturating_type_clamps_incoming_interval() {
    let d = Design::new();
    let t = tc(7, 5, OverflowMode::Saturate);
    let x = d.sig("x");
    let y = d.sig_typed("y", t.clone());
    x.range(-100.0, 100.0);
    x.set(0.0);
    y.set(x.get());
    let r = d.report_for(&y);
    assert!(r.prop.hi <= t.max_value() + 1e-12);
    assert!(r.prop.lo >= t.min_value() - 1e-12);
}

#[test]
fn feedback_explodes_without_annotation() {
    // acc = acc + x with x in [-1, 1]: the propagated range grows every
    // iteration — the paper's MSB explosion.
    let d = Design::new();
    let x = d.sig("x");
    let acc = d.sig("acc");
    x.range(-1.0, 1.0);
    let mut widths = Vec::new();
    for i in 0..20 {
        x.set(((i * 37) % 11) as f64 / 11.0 - 0.5);
        acc.set(acc.get() + x.get());
        widths.push(d.report_for(&acc).prop.width());
    }
    assert!(widths.windows(2).all(|w| w[1] >= w[0]));
    assert!(widths.last().unwrap() > &20.0);
}

#[test]
fn error_injection_breaks_divergence_with_requested_sigma() {
    let d = Design::with_seed(42);
    let a = d.sig("a");
    let sigma = 0.0156 / 12f64.sqrt() * 12f64.sqrt(); // = 0.0156
    a.error_sigma(sigma);
    for i in 0..20000 {
        a.set(i as f64 * 1e-4);
    }
    let r = d.report_for(&a);
    assert!(r.error_override.is_some());
    // Produced error is the injected uniform noise: mean ~ 0, std ~ sigma.
    assert!(r.produced.mean().abs() < sigma * 0.05);
    assert!((r.produced.std() - sigma).abs() / sigma < 0.05);
    // Consumed error is still the true incoming difference (zero here).
    assert_eq!(r.consumed.max_abs(), 0.0);
}

#[test]
fn error_lsb_maps_to_uniform_sigma() {
    let d = Design::with_seed(7);
    let a = d.sig("a");
    a.error_lsb(-6);
    for _ in 0..20000 {
        a.set(0.0);
    }
    let expected = (-6f64).exp2() / 12f64.sqrt();
    let got = d.report_for(&a).produced.std();
    assert!(
        (got - expected).abs() / expected < 0.05,
        "std {got} vs {expected}"
    );
}

#[test]
fn error_injection_is_deterministic_per_seed() {
    let run = |seed| {
        let d = Design::with_seed(seed);
        let a = d.sig("a");
        a.error_sigma(0.01);
        let mut out = Vec::new();
        for _ in 0..50 {
            a.set(0.0);
            out.push(a.get().flt());
        }
        out
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn control_decisions_steered_by_fixed_path() {
    let d = Design::new();
    let t = tc(7, 5, OverflowMode::Saturate);
    let w = d.sig_typed("w", t);
    let y = d.sig("y");
    // Value 0.01 quantizes to 0.0313? No: q(0.01*32=0.32) -> 0 -> fix 0.
    // flt = 0.01 (positive), fix = 0.0 (not positive): the slicer must
    // follow the FIXED decision on both paths.
    w.set(0.01);
    let v = w.get();
    assert!(v.flt() > 0.0);
    assert_eq!(v.fix(), 0.0);
    y.set(v.select_positive(1.0.into(), (-1.0).into()));
    assert_eq!(y.get().flt(), -1.0);
    assert_eq!(y.get().fix(), -1.0);
}

#[test]
fn counters_track_reads_and_writes() {
    let d = Design::new();
    let a = d.sig("a");
    a.set(1.0);
    a.set(2.0);
    let _ = a.get();
    let _ = a.get();
    let _ = a.get();
    let r = d.report_for(&a);
    assert_eq!(r.writes, 2);
    assert_eq!(r.reads, 3);
}

#[test]
fn reset_stats_keeps_values_and_annotations() {
    let d = Design::new();
    let t = tc(7, 5, OverflowMode::Saturate);
    let a = d.sig_typed("a", t.clone());
    a.range(-1.0, 1.0);
    a.error_sigma(0.01);
    a.set(0.5);
    d.reset_stats();
    let r = d.report_for(&a);
    assert_eq!(r.writes, 0);
    assert!(r.stat.is_empty());
    assert_eq!(r.prop, Interval::from_dtype(&t)); // re-seeded from type
    assert_eq!(r.range_override, Some(Interval::new(-1.0, 1.0)));
    assert_eq!(r.error_override, Some(0.01));
    assert_eq!(a.get().fix(), 0.5); // value survived
}

#[test]
fn reset_state_zeroes_values_and_cycle() {
    let d = Design::new();
    let r = d.reg("r");
    r.set(5.0);
    d.tick();
    assert_eq!(d.cycle(), 1);
    d.reset_state();
    assert_eq!(d.cycle(), 0);
    assert_eq!(r.get().flt(), 0.0);
    // Stats survived reset_state.
    assert_eq!(d.report_for(&r).writes, 1);
}

#[test]
fn graph_recording_and_analytical_ranges_match_quasi_analytical() {
    let d = Design::new();
    d.record_graph(true);
    let x = d.sig("x");
    let y = d.sig("y");
    x.range(-1.0, 1.0);
    for i in 0..10 {
        x.set((i as f64 - 5.0) / 10.0);
        y.set(x.get() * 0.5 + 0.25);
    }
    let g = d.graph();
    assert!(!g.is_empty());
    let mut seeds = HashMap::new();
    let xid = d.find("x").unwrap();
    seeds.insert(xid, Interval::new(-1.0, 1.0));
    let analysis = analyze_ranges(&g, &seeds, &Default::default(), None);
    let yid = d.find("y").unwrap();
    assert_eq!(analysis.range_of(yid).unwrap(), Interval::new(-0.25, 0.75));
    // Quasi-analytical agreed.
    assert_eq!(d.report_by_id(yid).prop, Interval::new(-0.25, 0.75));
}

#[test]
fn graph_interning_keeps_loops_compact() {
    let d = Design::new();
    d.record_graph(true);
    let x = d.sig("x");
    let y = d.sig("y");
    for _ in 0..1000 {
        x.set(0.5);
        y.set(x.get() * 2.0 + 1.0);
    }
    // 1000 iterations of the same statement intern to a handful of nodes.
    assert!(d.graph().len() < 10, "graph grew to {}", d.graph().len());
}

#[test]
fn recording_toggle_controls_graph_growth() {
    let d = Design::new();
    let x = d.sig("x");
    x.set(1.0);
    assert!(d.graph().is_empty());
    d.record_graph(true);
    assert!(d.is_recording());
    x.set(2.0);
    assert!(!d.graph().is_empty());
    d.clear_graph();
    assert!(d.graph().is_empty());
}

#[test]
fn find_and_names() {
    let d = Design::new();
    let a = d.sig("alpha");
    let arr = d.sig_array("v", 2);
    assert_eq!(d.find("alpha"), Some(a.id()));
    assert_eq!(d.find("v[1]"), Some(arr.at(1).id()));
    assert_eq!(d.find("missing"), None);
    assert_eq!(a.name(), "alpha");
    assert_eq!(d.num_signals(), 3);
}

#[test]
#[should_panic(expected = "duplicate signal name")]
fn duplicate_names_rejected() {
    let d = Design::new();
    let _a = d.sig("a");
    let _b = d.sig("a");
}

#[test]
#[should_panic(expected = "different design")]
fn cross_design_report_rejected() {
    let d1 = Design::new();
    let d2 = Design::new();
    let a = d1.sig("a");
    let _ = d2.report_for(&a);
}

#[test]
fn set_dtype_reinitializes_prop() {
    let d = Design::new();
    let a = d.sig("a");
    a.set(5.0);
    assert_eq!(d.report_for(&a).prop, Interval::point(5.0));
    let t = tc(7, 5, OverflowMode::Saturate);
    a.set_dtype(Some(t.clone()));
    assert_eq!(d.report_for(&a).prop, Interval::from_dtype(&t));
    assert_eq!(a.dtype().unwrap().n(), 7);
    a.set_dtype(None);
    assert!(a.dtype().is_none());
}

#[test]
fn arrays_share_types_and_iterate() {
    let d = Design::new();
    let t = tc(8, 6, OverflowMode::Saturate);
    let arr = d.sig_array("c", 3);
    arr.set_dtype_all(Some(t.clone()));
    assert!(arr.iter().all(|s| s.dtype().is_some()));
    assert_eq!(arr.len(), 3);
    assert!(!arr.is_empty());
    for s in &arr {
        s.set(0.25);
    }
    assert!(arr.iter().all(|s| s.get().fix() == 0.25));

    let regs = d.reg_array_typed("r", 2, t);
    regs.set_dtype_all(None);
    assert!(regs.iter().all(|r| r.dtype().is_none()));
    assert_eq!(regs.len(), 2);
    for r in &regs {
        r.set(1.0);
    }
    d.tick();
    assert!(regs.iter().all(|r| r.get().flt() == 1.0));
}

#[test]
fn cast_records_in_graph_and_clamps() {
    let d = Design::new();
    d.record_graph(true);
    let t = tc(7, 5, OverflowMode::Saturate);
    let x = d.sig("x");
    let y = d.sig("y");
    x.range(-100.0, 100.0);
    x.set(0.7);
    y.set(x.get().cast(&t));
    assert!((y.get().fix() - 0.6875).abs() < 1e-12);
    assert_eq!(y.get().flt(), 0.7);
    // Graph contains the cast node.
    let g = d.graph();
    let has_cast = g
        .iter()
        .any(|(_, n)| matches!(n.op, fixref_sim::Op::Cast(_)));
    assert!(has_cast);
}

#[test]
fn untyped_signals_have_equal_paths_forever() {
    // A design with no types anywhere: the dual paths must never diverge.
    let d = Design::new();
    let x = d.sig("x");
    let acc = d.reg("acc");
    for i in 0..100 {
        x.set((i as f64 * 0.37).sin());
        acc.set(acc.get() * 0.9 + x.get());
        d.tick();
        let v = acc.get();
        assert_eq!(v.flt(), v.fix());
    }
    let r = d.report_for(&acc);
    assert_eq!(r.consumed.max_abs(), 0.0);
    assert_eq!(r.produced.max_abs(), 0.0);
}

#[test]
fn granularity_tracks_finest_lsb() {
    let d = Design::new();
    let y = d.sig("y");
    y.set(1.0);
    y.set(-1.0);
    assert_eq!(d.report_for(&y).finest_lsb, Some(0));
    y.set(0.25); // odd * 2^-2
    assert_eq!(d.report_for(&y).finest_lsb, Some(-2));
    y.set(6.0); // 3 * 2^1, coarser: min stays -2
    assert_eq!(d.report_for(&y).finest_lsb, Some(-2));
    y.set(0.0); // zero carries no granularity information
    assert_eq!(d.report_for(&y).finest_lsb, Some(-2));
    // Every finite f64 is a dyadic rational: 0.1 is m * 2^-55, so the
    // granularity drops to the float's true LSB — correctly signalling
    // that this signal is not naturally coarse.
    y.set(0.1);
    assert_eq!(d.report_for(&y).finest_lsb, Some(-55));
}

#[test]
fn vcd_sanitizes_hostile_signal_names() {
    // Signal names with spaces, `$` (VCD keyword lead), backslashes,
    // control characters and non-ASCII must still yield a parseable VCD
    // header: every `$var` name non-empty, printable-ASCII, no whitespace.
    let d = Design::new();
    let hostile = [
        "a b",
        "clk$end",
        "path\\sig",
        "tab\there",
        "caf\u{e9}",
        "v[3]",
    ];
    for name in hostile {
        d.sig(name).set(0.5);
    }
    let mut tr = fixref_sim::Trace::all(&d);
    tr.sample(&d);
    d.tick();
    tr.sample(&d);

    let mut out = Vec::new();
    tr.write_vcd(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();

    let mut vars = 0;
    for line in text.lines().take_while(|l| !l.contains("$enddefinitions")) {
        let Some(rest) = line.strip_prefix("$var real 64 ") else {
            continue;
        };
        vars += 1;
        // "$var real 64 <code> <name> $end": exactly three fields left.
        let fields: Vec<&str> = rest.split(' ').collect();
        assert_eq!(fields.len(), 3, "malformed var line: {line:?}");
        let name = fields[1];
        assert!(!name.is_empty());
        assert!(
            name.chars().all(|c| c.is_ascii_graphic()),
            "unprintable identifier in {line:?}"
        );
        assert!(!name.contains('$'), "keyword lead survived in {line:?}");
        assert!(fields[2] == "$end", "header line not terminated: {line:?}");
    }
    // Two vars (flt + fix) per hostile signal.
    assert_eq!(vars, 2 * hostile.len());
}
