//! Cost of the range machinery: raw interval arithmetic and the
//! analytical fixpoint over the equalizer's signal-flow graph.

use std::collections::HashMap;
use std::rc::Rc;

use fixref_bench::microbench::{black_box, Harness};
use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::{LmsConfig, LmsEqualizer};
use fixref_fixed::Interval;
use fixref_sim::analyze::{analyze_ranges, AnalyzeOptions};
use fixref_sim::{Design, Graph, SignalId, SignalRef};

fn main() {
    let mut h = Harness::new("range_prop");

    let a = Interval::new(-1.5, 2.25);
    let b = Interval::new(-0.11, 1.2);
    h.bench("interval/mul_add_union", || {
        let p = black_box(a) * black_box(b);
        let s = p + black_box(a);
        s.union(&black_box(b))
    });

    // The 64-sample graph, and the 4034-node graph every 4000-sample LMS
    // flow records (one `Const` definition per stimulus sample).
    for (label, samples) in [("lms_graph", 64), ("lms_graph_4000", 4000)] {
        let (graph, seeds) = lms_graph(samples);
        h.bench(&format!("analyze_ranges/{label}"), || {
            analyze_ranges(&graph, &seeds, &AnalyzeOptions::default(), None)
        });
    }

    h.finish();
}

/// Records the equalizer's graph over `samples` stimulus samples, with the
/// input and the adaptive coefficient seeded.
fn lms_graph(samples: usize) -> (Rc<Graph>, HashMap<SignalId, Interval>) {
    let d = Design::new();
    let eq = LmsEqualizer::new(&d, &LmsConfig::default());
    d.record_graph(true);
    eq.init();
    for &x in &equalizer_stimulus(7, 28.0, samples) {
        eq.step(x);
    }
    let mut seeds = HashMap::new();
    seeds.insert(eq.x().id(), Interval::new(-1.5, 1.5));
    seeds.insert(eq.b().id(), Interval::new(-0.2, 0.2));
    (d.graph(), seeds)
}
