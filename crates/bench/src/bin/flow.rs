//! Runs the full refinement flow (MSB + LSB + verification) on the paper
//! equalizer.
//!
//! With `--json`, prints the flow's span times, counters and event
//! tallies as the `flow` bench report and writes it to
//! `BENCH_flow.json`; otherwise prints a plain summary of the converged
//! flow.

use std::process::ExitCode;

use fixref_bench::{run_flow_report, BenchArgs, BenchReport, LMS_SAMPLES};

fn main() -> ExitCode {
    let (outcome, report) =
        run_flow_report(LMS_SAMPLES).expect("the refinement flow converges on the equalizer");
    if BenchArgs::from_env().has("--json") {
        return BenchReport::from_metrics(&report).publish(true);
    }

    println!("Refinement flow — Fig. 1 LMS equalizer, input <7,5,tc>");
    println!("======================================================");
    println!("MSB iterations: {}", outcome.msb_iterations);
    println!("LSB iterations: {}", outcome.lsb_iterations);
    println!("decided types:  {}", outcome.types.len());
    println!("interventions:  {}", outcome.interventions.len());
    for iv in &outcome.interventions {
        println!("  {iv}");
    }
    ExitCode::SUCCESS
}
