//! Dual-simulation overhead: the instrumented LMS equalizer (fixed +
//! float + monitoring in one run) versus the plain `f64` golden model —
//! the paper's claim that monitoring lives inside a single simulation
//! whose cost stays practical, versus running separate fixed and float
//! simulations plus a signal database.

use std::sync::Arc;

use fixref_bench::microbench::Harness;
use fixref_bench::paper_input_type;
use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::{LmsConfig, LmsEqualizer, LmsGolden};
use fixref_fixed::DType;
use fixref_obs::DefaultRecorder;
use fixref_sim::Design;

const SAMPLES: usize = 512;

fn main() {
    let stimulus = equalizer_stimulus(7, 28.0, SAMPLES);
    let mut h = Harness::new("dual_sim");

    {
        let mut g = LmsGolden::new(&LmsConfig::default());
        h.bench("dual_sim/golden_f64", || {
            g.reset();
            let mut acc = 0.0;
            for &x in &stimulus {
                acc += g.step(x).0;
            }
            acc
        });
    }

    {
        let d = Design::new();
        let eq = LmsEqualizer::new(&d, &LmsConfig::default());
        h.bench("dual_sim/instrumented_floating", || {
            d.reset_state();
            eq.init();
            let mut acc = 0.0;
            for &x in &stimulus {
                acc += eq.step(x).0;
            }
            acc
        });
    }

    {
        let d = Design::new();
        let config = LmsConfig {
            input_dtype: Some(paper_input_type()),
            ..LmsConfig::default()
        };
        let eq = LmsEqualizer::new(&d, &config);
        h.bench("dual_sim/instrumented_typed_input", || {
            d.reset_state();
            eq.init();
            let mut acc = 0.0;
            for &x in &stimulus {
                acc += eq.step(x).0;
            }
            acc
        });
    }

    {
        // Every refinement flow attaches a recorder, and in the LSB and
        // verification runs every signal is typed, so each assignment
        // also quantizes and buffers its error. One flush per pass, as a
        // flow makes after every simulation.
        let d = Design::new();
        let config = LmsConfig {
            input_dtype: Some(paper_input_type()),
            ..LmsConfig::default()
        };
        let eq = LmsEqualizer::new(&d, &config);
        let wide: DType = "<16,12,tc,st,rd>".parse().expect("valid dtype");
        for id in eq.signal_ids() {
            if d.dtype_of(id).is_none() {
                d.set_dtype(id, Some(wide.clone()));
            }
        }
        d.attach_recorder(Arc::new(DefaultRecorder::new()));
        h.bench("dual_sim/instrumented_recorder_all_typed", || {
            d.reset_state();
            eq.init();
            let mut acc = 0.0;
            for &x in &stimulus {
                acc += eq.step(x).0;
            }
            d.flush_monitors();
            acc
        });
    }

    {
        // One design for every pass: after the first, each intern is a hit,
        // so this times tracing without node insertion.
        let d = Design::new();
        let eq = LmsEqualizer::new(&d, &LmsConfig::default());
        d.record_graph(true);
        h.bench("dual_sim/instrumented_graph_recording", || {
            d.reset_state();
            eq.init();
            let mut acc = 0.0;
            for &x in &stimulus {
                acc += eq.step(x).0;
            }
            acc
        });
    }

    {
        // A newly built design per pass records into an empty graph, as
        // the first iteration of a flow (and of every sweep shard) does.
        let config = LmsConfig::default();
        h.bench("dual_sim/fresh_graph_recording", || {
            let d = Design::new();
            let eq = LmsEqualizer::new(&d, &config);
            d.record_graph(true);
            eq.init();
            let mut acc = 0.0;
            for &x in &stimulus {
                acc += eq.step(x).0;
            }
            acc
        });
        // The same, fed one repeated input value: `x` records one `Const`
        // definition instead of one per sample, so the difference to the
        // case above is what the per-sample constant definitions cost.
        let repeated = vec![stimulus[0]; SAMPLES];
        h.bench("dual_sim/fresh_graph_recording_one_value", || {
            let d = Design::new();
            let eq = LmsEqualizer::new(&d, &config);
            d.record_graph(true);
            eq.init();
            let mut acc = 0.0;
            for &x in &repeated {
                acc += eq.step(x).0;
            }
            acc
        });
    }

    h.finish();
}
