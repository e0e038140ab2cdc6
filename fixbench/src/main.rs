//! The benchmark binary. Usually started through `run.py`, which builds
//! it and the `fixref-serve` server first:
//!
//! ```text
//! fixbench --workload NAME --seed N --seconds S --trace 0|1
//!          --server-bin PATH --out DIR [--commit SHA] [--source-digest HEX] [--nproc N]
//! ```
//!
//! Prints a human summary, then, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Spans
//! and a full result record land in `--out`.

use std::path::PathBuf;
use std::process::ExitCode;

use fixbench::report::{coverage_failures, end_to_end, metrics_json, num, per_layer, BOUNDED};
use fixbench::trace::Tracer;
use fixbench::{lms_paper, lms_sweep, serve_mixed, timing_loop, Config};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    out: PathBuf,
    context: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        out: PathBuf::from("fixbench/out"),
        context: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--server-bin" => args.server_bin = Some(PathBuf::from(value)),
            "--out" => args.out = PathBuf::from(value),
            "--commit" | "--source-digest" | "--nproc" => args
                .context
                .push((flag.trim_start_matches("--").replace('-', "_"), value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fixbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("fixbench: {}: {e}", args.out.display());
        return ExitCode::from(1);
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        server_bin: args.server_bin.clone(),
        scratch: args.out.clone(),
    };
    let tracer = Tracer::new(args.trace);
    let measured = match args.workload.as_str() {
        "lms_paper" => Ok(lms_paper::run(&cfg, &tracer)),
        "timing_loop" => Ok(timing_loop::run(&cfg, &tracer)),
        "lms_sweep" => Ok(lms_sweep::run(&cfg, &tracer)),
        "serve_mixed" => serve_mixed::run(&cfg, &tracer),
        other => Err(format!(
            "unknown workload {other:?} (lms_paper, timing_loop, lms_sweep, serve_mixed)"
        )),
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fixbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let mut context = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        (
            "available_parallelism".to_string(),
            lms_sweep::nproc().to_string(),
        ),
    ];
    context.extend(args.context.iter().cloned());
    context.extend(m.context.iter().cloned());

    let (metrics, mut problems) = if args.trace {
        let layers = per_layer(&m, &tracer);
        let problems = coverage_failures(&layers, &tracer);
        (layers, problems)
    } else {
        (end_to_end(&m), Vec::new())
    };
    for f in &m.failures {
        eprintln!("fixbench: check failed: {f}");
    }

    let ctx: Vec<String> = context
        .iter()
        .map(|(k, v)| format!(r#""{k}": "{}""#, fixref_obs::json::escape(v)))
        .collect();
    let ctx = format!("{{{}}}", ctx.join(", "));
    println!("context {ctx}");
    println!(
        "{} seed {}: {} refinements attempted, {} failed, {} completed in {:.3} s",
        args.workload, args.seed, m.attempted, m.failed, m.completed, m.loop_s
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {:>16} {unit}", num(*value));
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let failures: Vec<String> = m
        .failures
        .iter()
        .map(|f| format!(r#""{}""#, fixref_obs::json::escape(f)))
        .collect();
    let latencies: Vec<String> = m.latencies_ms.iter().map(|&v| num(v)).collect();
    let calibrations: Vec<String> = m.calibrations.iter().map(|&(_, v)| num(v)).collect();
    let setups: Vec<String> = m.setup_s.iter().map(|&v| num(v * 1e3)).collect();
    let record = format!(
        "{{\"context\": {ctx}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}, \"latencies_ms\": [{}], \"calibrations_ms\": [{}], \"setup_ms\": [{}]}}\n",
        m.attempted,
        m.failed,
        failures.join(", "),
        metrics_json(&metrics),
        latencies.join(", "),
        calibrations.join(", "),
        setups.join(", ")
    );
    for (name, text) in [
        (format!("result-{stem}.json"), record),
        (format!("spans-{stem}.jsonl"), tracer.render_jsonl()),
    ] {
        if let Err(e) = std::fs::write(args.out.join(&name), text) {
            problems.push(format!("write {name}: {e}"));
        }
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("fixbench: {p}");
        }
        return ExitCode::from(1);
    }

    let reported: Vec<_> = if args.trace {
        metrics
    } else {
        metrics
            .into_iter()
            .filter(|(n, ..)| BOUNDED.contains(n))
            .collect()
    };
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        m.failed == 0,
        m.attempted,
        m.failed,
        metrics_json(&reported)
    );
    ExitCode::SUCCESS
}
