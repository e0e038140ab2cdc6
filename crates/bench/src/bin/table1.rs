//! Regenerates the paper's **Table 1**: MSB analysis of the Fig. 1 LMS
//! equalizer across refinement iterations.
//!
//! Expected shape (paper §6): iteration 1 resolves every signal except
//! `w` and `b`, which suffer range-propagation explosion from the
//! adaptive feedback; pinning `b`'s range (the flow's automatic
//! equivalent of the paper's `b.range(-0.2, 0.2)`) resolves both in
//! iteration 2.
//!
//! With `--json`, prints the flow's span times, counters and event
//! tallies as the `table1` bench report instead and writes it to
//! `BENCH_table1.json`.

use std::process::ExitCode;

use fixref_bench::{run_table1_report, table1_text, BenchArgs, BenchReport, LMS_SAMPLES};

fn main() -> ExitCode {
    let (history, interventions, report) =
        run_table1_report(LMS_SAMPLES).expect("MSB phase converges on the equalizer");
    if BenchArgs::from_env().has("--json") {
        return BenchReport::from_metrics(&report).publish(true);
    }
    print!("{}", table1_text(&history, &interventions));
    ExitCode::SUCCESS
}
