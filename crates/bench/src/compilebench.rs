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
//! background-load spike degrades all minima instead of biasing one
//! block, and the best-of-N wall time wins. The replayed statistics are
//! checked bit-identical against the interpreted run (`outcomes_match`)
//! so the speedup is never bought with divergence.

use std::sync::Arc;
use std::time::Instant;

use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::{LmsConfig, LmsEqualizer};
use fixref_obs::json::fmt_f64;
use fixref_obs::DefaultRecorder;
use fixref_sim::{Design, Replay, SignalStats};

use crate::{lms_setup, LMS_SNR_DB};

/// Outcome of the compiled-backend benchmark.
#[derive(Debug, Clone)]
pub struct CompileBenchResult {
    /// Stimulus length.
    pub samples: usize,
    /// Interleaved repeats per variant (minimum wall time wins).
    pub repeats: usize,
    /// Best wall time of the interpreted simulation with graph recording
    /// on — the flow's `iteration == 1` cost — in nanoseconds.
    pub first_iteration_ns: u128,
    /// Best wall time of the interpreted simulation with recording off
    /// (steady-state iteration), nanoseconds.
    pub interpreted_ns: u128,
    /// Best wall time of the compiled replay, nanoseconds.
    pub compiled_ns: u128,
    /// `first_iteration_ns / compiled_ns`: mostly the cost of recording.
    pub first_iteration_speedup: f64,
    /// `interpreted_ns / compiled_ns` — the conservative comparison.
    pub steady_speedup: f64,
    /// Cycles every variant simulated (they must agree).
    pub cycles: u64,
    /// Distinct definitions the replay evaluates.
    pub definitions: usize,
    /// Steps per replay: assignments plus ticks.
    pub steps: usize,
    /// Whether the compiled replay reproduced the interpreted run's
    /// exported statistics bit-identically.
    pub outcomes_match: bool,
}

impl CompileBenchResult {
    /// Renders the result as the `BENCH_compile.json` document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"compile\",\n");
        out.push_str("  \"design\": \"lms\",\n");
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"first_iteration_ns\": {},\n",
            self.first_iteration_ns
        ));
        out.push_str(&format!("  \"interpreted_ns\": {},\n", self.interpreted_ns));
        out.push_str(&format!("  \"compiled_ns\": {},\n", self.compiled_ns));
        out.push_str(&format!(
            "  \"first_iteration_speedup\": {},\n",
            fmt_f64(self.first_iteration_speedup)
        ));
        out.push_str(&format!(
            "  \"steady_speedup\": {},\n",
            fmt_f64(self.steady_speedup)
        ));
        out.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        out.push_str(&format!("  \"definitions\": {},\n", self.definitions));
        out.push_str(&format!("  \"steps\": {},\n", self.steps));
        out.push_str(&format!("  \"outcomes_match\": {}\n", self.outcomes_match));
        out.push_str("}\n");
        out
    }
}

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
/// loop.
///
/// # Panics
///
/// Panics if the LMS capture fails its verification replay — that is a
/// regression in the compiled backend, not a measurement.
pub fn run_compile_bench(samples: usize, repeats: usize) -> CompileBenchResult {
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
    // within each repeat; best of N.
    let mut first_iteration_ns = u128::MAX;
    let mut interpreted_ns = u128::MAX;
    let mut compiled_ns = u128::MAX;
    for _ in 0..repeats {
        design.reset_stats();
        design.reset_state();
        let start = Instant::now();
        design.clear_graph();
        design.record_graph(true);
        lane.drive(samples);
        design.record_graph(false);
        design.flush_monitors();
        first_iteration_ns = first_iteration_ns.min(start.elapsed().as_nanos());

        design.reset_stats();
        design.reset_state();
        let start = Instant::now();
        lane.drive(samples);
        design.flush_monitors();
        interpreted_ns = interpreted_ns.min(start.elapsed().as_nanos());

        design.reset_stats();
        design.reset_state();
        let start = Instant::now();
        design.replay(&lane.replay);
        compiled_ns = compiled_ns.min(start.elapsed().as_nanos());
    }

    CompileBenchResult {
        samples,
        repeats,
        first_iteration_ns,
        interpreted_ns,
        compiled_ns,
        first_iteration_speedup: first_iteration_ns as f64 / compiled_ns.max(1) as f64,
        steady_speedup: interpreted_ns as f64 / compiled_ns.max(1) as f64,
        cycles: interp_cycles,
        definitions: lane.replay.definitions(),
        steps: lane.replay.steps(),
        outcomes_match,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_bench_replays_bit_identically() {
        let result = run_compile_bench(600, 1);
        assert!(
            result.outcomes_match,
            "the compiled replay diverged from the interpreter"
        );
        assert!(result.definitions >= 1);
        assert!(result.steps > 600);
        assert_eq!(result.cycles, 600);
        let json = result.render_json();
        let parsed = fixref_obs::Json::parse(&json).expect("well-formed JSON");
        assert_eq!(
            parsed.get("bench").and_then(fixref_obs::Json::as_str),
            Some("compile")
        );
        assert!(matches!(
            parsed.get("outcomes_match"),
            Some(fixref_obs::Json::Bool(true))
        ));
    }
}
