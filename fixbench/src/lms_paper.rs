//! `lms_paper`: the paper's own example. The Fig. 1 LMS equalizer with
//! input `<7,5,tc,st,rd>` and a 4000-sample stimulus runs the full Fig. 4
//! flow with verification on, then VHDL generation — back to back on
//! fresh designs, sequential interpreted driver, one thread.

use std::path::Path;
use std::time::Instant;

use fixref_bench::{paper_input_type, table1_text, table2_text, LMS_SAMPLES, LMS_SNR_DB};
use fixref_core::{RefinePolicy, RefinementFlow, SequentialDriver};
use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::{LmsConfig, LmsEqualizer};
use fixref_sim::{Design, SignalRef};
use fixref_verify::VerifyOptions;

use crate::flowrun::{
    codegen, converged_without_overflow, count_flow, digest, probe, refine, TimedDriver,
};
use crate::trace::Tracer;
use crate::{stimulus_seed, timed_setup, Config, Deadline, Measured};

/// Distinct stimuli per run; refinement `i` uses stimulus `i % INPUTS`.
const INPUTS: u64 = 4;
/// Design seed of the equalizer (the paper harness's).
const DESIGN_SEED: u64 = 0xDA7E_1999;
/// Stimulus seed of the paper's Tables 1 and 2.
pub const PAPER_SEED: u64 = 7;

/// The equalizer configuration: the paper's `<7,5,tc,st,rd>` input.
pub fn config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

/// A fresh equalizer design.
pub fn build(config: &LmsConfig) -> (Design, LmsEqualizer) {
    let d = Design::with_seed(DESIGN_SEED);
    let eq = LmsEqualizer::new(&d, config);
    (d, eq)
}

/// The stimulus closure: one pass of `stimulus` through the equalizer.
pub fn drive<'a>(eq: &'a LmsEqualizer, stimulus: &'a [f64]) -> impl FnMut(&Design, usize) + 'a {
    move |_d: &Design, _iter: usize| {
        eq.init();
        for &x in stimulus {
            eq.step(x);
        }
    }
}

/// A fresh flow over `design`, configured as every refinement of this
/// workload is.
pub fn flow_for(design: &Design) -> RefinementFlow {
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    flow.enable_verification(VerifyOptions::default());
    flow
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let off = Tracer::new(false);
    let config = config();
    let stimuli: Vec<Vec<f64>> = timed_setup(&mut m, || {
        (0..INPUTS)
            .map(|k| equalizer_stimulus(stimulus_seed(cfg.seed, k), LMS_SNR_DB, LMS_SAMPLES))
            .collect()
    });

    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); INPUTS as usize];
    let mut clock = Deadline::start(cfg.seconds);
    while let Some(i) = clock.next_refinement() {
        let k = (i % INPUTS) as usize;
        let traced = cfg.trace && i % 2 == 1;
        let t = if traced { tracer } else { &off };
        t.set_refine(i);
        let (design, eq) = build(&config);

        m.calibrate();
        let started = Instant::now();
        let root = t.begin("refine");
        let mut flow = flow_for(&design);
        let mut driver = TimedDriver::new(SequentialDriver::new(drive(&eq, &stimuli[k])), t);
        let outcome = refine(&mut flow, &mut driver, t);
        let lines = outcome.as_ref().map_err(|e| e.to_string()).and_then(|_| {
            codegen(
                &design,
                &[eq.y().id(), eq.w().id()],
                eq.x().id(),
                "lms_equalizer",
                t,
            )
        });
        t.end(root, driver.cycles);
        let ended = Instant::now();

        if traced {
            m.traced_ms.push((ended - started).as_secs_f64() * 1e3);
        } else {
            m.record_latency(started, ended);
        }
        m.completed += 1;
        m.cycles += driver.cycles;
        count_flow(&flow, &design, driver.sims, t);
        let result = outcome.map_err(|e| e.to_string()).and_then(|o| {
            converged_without_overflow(&o)?;
            lines?;
            digests[k].push(digest(&o, &flow.journal()));
            Ok(())
        });
        m.check(|| format!("refinement {i} (input {k})"), result);
        if traced {
            let (d, eq) = build(&config);
            probe(&d, drive(&eq, &stimuli[k]), t);
        }
    }
    m.calibrate();
    m.loop_s = clock.elapsed_s();
    m.loop_start = Some(clock.started());
    m.peak_rss_mb = crate::peak_rss_mb("self").unwrap_or(0.0);

    // Output checks, outside the measured loop: every refinement equals
    // the library's own `RefinementFlow::run` on its input, and the
    // benchmark's driver path reproduces the paper's tables at the paper
    // seed.
    for (k, seen) in digests.iter().enumerate() {
        if seen.is_empty() {
            continue;
        }
        let (design, eq) = build(&config);
        let mut flow = flow_for(&design);
        let reference = flow
            .run(drive(&eq, &stimuli[k]))
            .map(|o| digest(&o, &flow.journal()));
        match reference {
            Ok(r) => {
                for bad in seen.iter().filter(|&&d| d != r) {
                    m.fail_late(format!(
                        "input {k}: outcome {bad:x} differs from RefinementFlow::run {r:x}"
                    ));
                }
            }
            Err(e) => m.fail_late(format!("input {k}: reference run failed: {e}")),
        }
    }
    if let Err(e) = check_paper_tables(Path::new(".")) {
        m.fail_late(format!("paper tables: {e}"));
    }
    m
}

/// Runs the Table 1 (MSB, floating input) and Table 2 (LSB, `<7,5,tc>`
/// input) phases at the paper seed through [`TimedDriver`] and compares
/// their rendering with `tests/golden/table1.txt` and `table2.txt` under
/// the repository root `root`.
///
/// # Errors
///
/// The first mismatch or unreadable golden file.
pub fn check_paper_tables(root: &Path) -> Result<(), String> {
    let off = Tracer::new(false);
    let stimulus = equalizer_stimulus(PAPER_SEED, LMS_SNR_DB, LMS_SAMPLES);

    let (design, eq) = build(&LmsConfig::default());
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    let mut driver = TimedDriver::new(SequentialDriver::new(drive(&eq, &stimulus)), &off);
    let (history, interventions) = flow.run_msb_with(&mut driver).map_err(|e| e.to_string())?;
    let interventions: Vec<String> = interventions.iter().map(ToString::to_string).collect();
    compare_golden(root, &table1_text(&history, &interventions), "table1.txt")?;

    let (design, eq) = build(&config());
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    let mut driver = TimedDriver::new(SequentialDriver::new(drive(&eq, &stimulus)), &off);
    let (history, _) = flow.run_lsb_with(&mut driver).map_err(|e| e.to_string())?;
    compare_golden(root, &table2_text(&history), "table2.txt")
}

fn compare_golden(root: &Path, actual: &str, name: &str) -> Result<(), String> {
    let path = root.join("tests/golden").join(name);
    let path = path.display();
    let expected = std::fs::read_to_string(path.to_string()).map_err(|e| format!("{path}: {e}"))?;
    if actual == expected {
        return Ok(());
    }
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .map_or_else(|| "line count".to_string(), |n| format!("line {}", n + 1));
    Err(format!("{path} differs at {line}"))
}
