//! Renders the static-diagnostics reports for every example design.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin lint          # text
//! cargo run --release -p fixref-bench --bin lint -- --jsonl
//! ```
//!
//! The text form is what `tests/golden/lint_*.txt` pins in CI; the JSONL
//! form is machine-readable (one diagnostic object per line, its first
//! member the example name).

use fixref_obs::{Json, ToJson};

fn main() {
    let jsonl = fixref_bench::BenchArgs::from_env().has("--jsonl");
    for example in fixref_bench::lint_example_designs() {
        if jsonl {
            for d in &example.report.diagnostics {
                let mut line = vec![("example".to_string(), example.name.encode())];
                if let Json::Obj(members) = d.encode() {
                    line.extend(members);
                }
                println!("{}", Json::Obj(line));
            }
        } else {
            println!("=== {} ===", example.name);
            print!("{}", example.report.render_text());
            println!();
        }
    }
}
