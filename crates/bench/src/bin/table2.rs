//! Regenerates the paper's **Table 2**: LSB analysis of the LMS equalizer
//! with the input quantized `<7,5,tc>` and the rule constant `k = 1` (see EXPERIMENTS.md on the OCR-ambiguous constant).
//!
//! Expected shape (paper §6): one iteration resolves the LSB position of
//! every signal; the slicer output `y` is exact (all-zero error
//! statistics) with LSB 0.
//!
//! With `--json`, prints the flow's span times, counters and event
//! tallies as the `table2` bench report instead and writes it to
//! `BENCH_table2.json`.

use std::process::ExitCode;

use fixref_bench::{run_table2_report, table2_text, BenchArgs, BenchReport, LMS_SAMPLES};

fn main() -> ExitCode {
    let (history, report) =
        run_table2_report(LMS_SAMPLES).expect("LSB phase converges on the equalizer");
    if BenchArgs::from_env().has("--json") {
        return BenchReport::from_metrics(&report).publish(true);
    }
    print!("{}", table2_text(&history));
    ExitCode::SUCCESS
}
