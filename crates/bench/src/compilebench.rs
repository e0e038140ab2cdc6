//! Compiled-backend benchmark behind
//! `cargo run -p fixref-bench --bin compile` (`BENCH_compile.json`).
//!
//! Measures the table-1 first-MSB-iteration hot loop — one full monitored
//! simulation of the Fig. 1 LMS equalizer, exactly as the flow runs it
//! (recorder attached, stimulus regenerated per run) — three ways:
//!
//! * **first iteration** — interpreted with signal-flow-graph recording
//!   on, which is what `record = iteration == 1` costs in the flow: every
//!   `Value` operator interns its node into the design's recording;
//! * **interpreted** — the steady-state iteration (recording off): the
//!   host-code stimulus walk, one design borrow per signal access;
//! * **compiled** — the captured execution trace compiled against the
//!   recorded graph and replayed through [`Design::replay`]: one borrow
//!   for the whole run, no stimulus regeneration.
//!
//! All three buffer their recorder-bound monitors in the design's sink and
//! flush it once at the end, as the flow does after every simulation, so
//! the monitor pipeline costs the same in each.
//!
//! `first_iteration_speedup` compares the compiled replay against the
//! graph-recording run, so it mostly reports what recording costs;
//! `steady_speedup` is the recording-off comparison, the one a replay
//! actually displaces. Both are reported so neither hides the other.
//!
//! The timing follows the repo's interleaved-repeat methodology (see
//! `faultbench`): the variants alternate within each repeat so a
//! background-load spike hits all three instead of biasing one block, and
//! the report gives each variant's median, best and worst over the
//! repeats (each speedup is taken within a repeat). The replayed
//! statistics are checked bit-identical against the interpreted run
//! (`outcomes_match`) so the speedup is never bought with divergence.

use std::sync::Arc;
use std::time::Instant;

use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::{LmsConfig, LmsEqualizer};
use fixref_obs::DefaultRecorder;
use fixref_sim::{Design, Replay, SignalStats};

use crate::report::{ms, BenchReport, Metric};
use crate::{lms_setup, LMS_SNR_DB};

/// One benchable lane: the table-1 design with a flow-style recorder
/// attached, plus its captured-and-verified replay.
struct Lane {
    design: Design,
    eq: LmsEqualizer,
    replay: Replay,
}

impl Lane {
    /// The flow's table-1 stimulus: `eq.init()` plus the regenerated
    /// equalizer stimulus — regeneration is part of the interpreted cost,
    /// exactly as in `run_table1`.
    fn drive(&self, samples: usize) {
        drive(&self.eq, samples);
    }
}

fn drive(eq: &LmsEqualizer, samples: usize) {
    eq.init();
    for &x in &equalizer_stimulus(7, LMS_SNR_DB, samples) {
        eq.step(x);
    }
}

/// Builds the table-1 design and compiles its record iteration, enforcing
/// the same gates as the sweep's compiled backend (FXL001 static
/// schedule, verification replay).
fn build_lane(samples: usize) -> Lane {
    let (design, eq) = lms_setup(&LmsConfig::default());
    design.attach_recorder(Arc::new(DefaultRecorder::new()));

    design.reset_stats();
    design.reset_state();
    design.clear_graph();
    design.record_graph(true);
    design.begin_capture();
    drive(&eq, samples);
    design.record_graph(false);
    assert!(
        fixref_lint::check_static_schedule(&design).is_empty(),
        "the LMS equalizer satisfies the FXL001 static-schedule gate"
    );
    let trace = design.end_capture().expect("capture is active");
    let replay = Replay::compile(&design.graph(), &trace);
    assert!(
        design.verify_replay(&replay, &trace),
        "the compiled capture must pass its verification replay"
    );
    Lane { design, eq, replay }
}

/// Exported statistics after a fresh reset + one run of `f`.
fn run_and_export(design: &Design, f: impl FnOnce()) -> (Vec<SignalStats>, u64) {
    design.reset_stats();
    design.reset_state();
    f();
    (design.export_stats(), design.cycle())
}

/// The compiled-backend benchmark on the table-1 first-MSB-iteration hot
/// loop, `repeats` interleaved rounds of the three variants. Checks that
/// the replay reproduces the interpreted statistics bit-identically.
///
/// # Panics
///
/// Panics if the LMS capture fails its verification replay — that is a
/// regression in the compiled backend, not a measurement.
pub fn run_compile_bench(samples: usize, repeats: usize) -> BenchReport {
    let repeats = repeats.max(1);
    let lane = build_lane(samples);
    let design = &lane.design;

    // Bitwise conformance first: the interpreted statistics are the
    // reference every replay must reproduce exactly.
    let (interp_stats, interp_cycles) = run_and_export(design, || lane.drive(samples));
    let (replay_stats, replay_cycles) = run_and_export(design, || {
        design.replay(&lane.replay);
    });
    let outcomes_match = interp_stats == replay_stats && interp_cycles == replay_cycles;

    // Interleaved timing: first-iteration, interpreted and compiled
    // within each repeat.
    let mut first_iteration = Vec::with_capacity(repeats);
    let mut interpreted = Vec::with_capacity(repeats);
    let mut compiled = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        design.reset_stats();
        design.reset_state();
        let start = Instant::now();
        design.clear_graph();
        design.record_graph(true);
        lane.drive(samples);
        design.record_graph(false);
        design.flush_monitors();
        first_iteration.push(ms(start.elapsed().as_nanos()));

        design.reset_stats();
        design.reset_state();
        let start = Instant::now();
        lane.drive(samples);
        design.flush_monitors();
        interpreted.push(ms(start.elapsed().as_nanos()));

        design.reset_stats();
        design.reset_state();
        let start = Instant::now();
        design.replay(&lane.replay);
        compiled.push(ms(start.elapsed().as_nanos()));
    }
    let ratio = |num: &[f64]| -> Vec<f64> {
        num.iter()
            .zip(&compiled)
            .map(|(n, c)| n / c.max(1e-6))
            .collect()
    };
    let count = |n: usize| Metric::once("count", n as f64);

    BenchReport::new("compile", repeats)
        .metric("samples", count(samples))
        .metric("first_iteration_ms", Metric::over("ms", &first_iteration))
        .metric("interpreted_ms", Metric::over("ms", &interpreted))
        .metric("compiled_ms", Metric::over("ms", &compiled))
        .metric(
            "first_iteration_speedup",
            Metric::over("x", &ratio(&first_iteration)),
        )
        .metric("steady_speedup", Metric::over("x", &ratio(&interpreted)))
        .metric("cycles", count(interp_cycles as usize))
        .metric("definitions", count(lane.replay.definitions()))
        .metric("steps", count(lane.replay.steps()))
        .check("outcomes_match", outcomes_match)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_bench_replays_bit_identically() {
        let report = run_compile_bench(600, 2);
        assert!(
            report.passed(),
            "the compiled replay diverged from the interpreter"
        );
        assert_eq!(report.repeats, 2);
        let median = |name: &str| report.get(name).map(|m| m.median);
        assert!(median("definitions") >= Some(1.0));
        assert!(median("steps") > Some(600.0));
        assert_eq!(median("cycles"), Some(600.0));
    }
}
