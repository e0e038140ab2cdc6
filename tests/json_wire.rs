//! Golden test pinning fixref's JSON wire format byte for byte.
//!
//! Every persisted or wire type — journal events, write-ahead log
//! records, job specs and results, design and scenario specs, metrics
//! reports, lint diagnostics, protocol responses and checkpoints — is
//! rendered from a fixed sample value and compared with
//! `tests/golden/json_wire.jsonl`, one line per sample. Each golden line
//! is then decoded again and compared with its sample, so files written
//! by an earlier build are shown to still read, and every proper prefix
//! of each line must decode to an error rather than panic.
//!
//! To regenerate after an intentional wire change:
//!
//! ```text
//! cargo test -q --test json_wire -- --ignored regenerate_golden
//! ```

use std::fmt::{Debug, Display};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fixref::fixed::{
    DType, ErrorStats, Interval, OverflowMode, RangeStats, RoundingMode, Signedness,
};
use fixref::lint::{Code, Diagnostic, Severity, Verdict};
use fixref::obs::{Event, HistogramSummary, Json, MetricsReport, Phase, SpanRecord};
use fixref::refine::{
    CacheState, Checkpoint, Cursor, FlowSpec, JobSpec, LsbAnalysis, LsbStatus, MsbAnalysis,
    MsbDecision,
};
use fixref::serve::protocol::handle_line;
use fixref::serve::{JobLog, JobResult, JobState, JobStatus, Server, ServerConfig, WalRecord};
use fixref::sim::spec::{scenario_set_from_json, scenario_set_to_json};
use fixref::sim::{
    DesignSpec, OverflowEvent, Scenario, ScenarioSet, SignalAnnotation, SignalId, SignalStats,
};

const GOLDEN: &str = "tests/golden/json_wire.jsonl";

/// Quotes, backslashes, every escaped control character, a raw control
/// character above the escapes, and non-ASCII text up to the astral
/// plane.
const NASTY: &str = "q\"uote b\\ack /sl \u{1}\u{8}\u{c}\n\r\t\u{1f}\u{7f} µ§ 😀";

/// Decodes a line to the `Debug` form of its value.
type Decoder = Box<dyn Fn(&str) -> Result<String, String>>;

/// One golden line: its label, its rendering, and a decoder that maps a
/// line back to the `Debug` form of its value (`None` for types that are
/// only ever written, whose lines are checked as JSON).
struct Case {
    label: String,
    line: String,
    expected: Option<String>,
    decode: Decoder,
}

fn round_trip<T: Debug + 'static, E: Display>(
    label: impl Into<String>,
    value: &T,
    line: String,
    decode: impl Fn(&str) -> Result<T, E> + 'static,
) -> Case {
    Case {
        label: label.into(),
        line,
        expected: Some(format!("{value:?}")),
        decode: Box::new(move |s| {
            decode(s)
                .map(|v| format!("{v:?}"))
                .map_err(|e| e.to_string())
        }),
    }
}

fn write_only(label: impl Into<String>, line: String) -> Case {
    Case {
        label: label.into(),
        line,
        expected: None,
        decode: Box::new(|s| {
            Json::parse(s)
                .map(|v| format!("{v:?}"))
                .map_err(|e| e.to_string())
        }),
    }
}

/// A fresh directory, unique per call: the tests run concurrently.
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "fixref_json_wire_{}_{name}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates scratch dir");
    dir
}

fn events() -> Vec<Event> {
    let s = || NASTY.to_string();
    vec![
        Event::OverflowDetected {
            signal: s(),
            value: f64::NAN,
            cycle: 9_007_199_254_740_992,
        },
        Event::IterationStarted {
            phase: Phase::Msb,
            iteration: 1,
        },
        Event::IntervalExploded {
            signal: "w".into(),
            iteration: 2,
        },
        Event::AutoRange {
            signal: "b".into(),
            lo: -0.355,
            hi: 0.189,
            iteration: 1,
        },
        Event::AutoError {
            signal: "acc".into(),
            sigma: 1.5e-7,
            iteration: 3,
        },
        Event::SignalResolved {
            signal: "b".into(),
            phase: Phase::Lsb,
            iteration: 2,
        },
        Event::PhaseConverged {
            phase: Phase::Msb,
            iterations: 2,
        },
        Event::PhaseFailed {
            phase: Phase::Lsb,
            iterations: 8,
            unresolved: "lp,terr".into(),
        },
        Event::TypeApplied {
            signal: "x".into(),
            dtype: "<7,5,tc,st,rd>".into(),
        },
        Event::VerifyCompleted {
            overflows: 0,
            saturation_events: 4_294_967_296,
        },
        Event::ShardStarted {
            shard: 3,
            seed: 18_446_744_073_709_551_615,
            snr_db: f64::INFINITY,
            samples: 4000,
        },
        Event::ShardMerged {
            shard: 3,
            cycles: 4000,
            signals: 17,
        },
        Event::CacheInvalidated {
            reason: "annotations".into(),
            dirty: 5,
        },
        Event::RangeClamped {
            signal: "q".into(),
            lo: f64::NEG_INFINITY,
            hi: 1e300,
        },
        Event::RangeExploded {
            signal: "w".into(),
            passes: 64,
        },
        Event::LintDiagnostic {
            code: "FXL002".into(),
            severity: "warning".into(),
            signal: s(),
            message: s(),
        },
        Event::LintCompleted {
            errors: 0,
            warnings: 2,
            infos: 1,
        },
        Event::LintGateFailed {
            context: "flow.preflight".into(),
            code: "FXL001".into(),
            findings: 1,
        },
        Event::VerifyStarted {
            code: "FXL002".into(),
            signal: "b".into(),
            registers: 3,
        },
        Event::VerifyProved {
            code: "FXL002".into(),
            signal: "b".into(),
            states: 1024,
            depth: 12,
        },
        Event::VerifyCounterexample {
            code: "FXL004".into(),
            signal: "y".into(),
            steps: 7,
        },
        Event::VerifyBoundExhausted {
            code: "FXL002".into(),
            signal: "lp".into(),
            reason: "state_too_large".into(),
            states: 100_000,
        },
        Event::ShardFailed {
            shard: 1,
            scenario: "seed=2 snr=28dB".into(),
            attempts: 3,
            cause: s(),
        },
        Event::ShardRetried {
            shard: 1,
            attempt: 1,
        },
        Event::ShardQuarantined {
            shard: 1,
            scenario: "seed=2 snr=28dB".into(),
        },
        Event::CheckpointWritten {
            sequence: 0,
            phase: Phase::Msb,
            iteration: 1,
        },
        Event::CheckpointFailed {
            sequence: 4,
            cause: "disk full".into(),
        },
        Event::ResumedFromCheckpoint {
            sequence: 2,
            phase: Phase::Lsb,
            iteration: 1,
            events: 19,
        },
        Event::BudgetExhausted {
            phase: Phase::Msb,
            simulations: 6,
            reason: "simulation budget of 6 exhausted".into(),
        },
        Event::BackendCompiled {
            backend: "compiled".into(),
            kinds: 2,
            instructions: 311,
            cycles: 4000,
        },
        Event::BackendFallback {
            backend: "compiled".into(),
            reason: "FXL001".into(),
        },
        Event::JobAccepted {
            job: "j-1".into(),
            tenant: s(),
            queue_depth: 1,
        },
        Event::JobRejected {
            tenant: "acme".into(),
            reason: "queue full (capacity 64)".into(),
        },
        Event::JobStarted {
            job: "j-1".into(),
            tenant: "acme".into(),
            attempt: 1,
        },
        Event::JobRetried {
            job: "j-1".into(),
            attempt: 2,
            backoff_ms: 37,
        },
        Event::JobRecovered {
            job: "j-1".into(),
            tenant: "acme".into(),
            from_checkpoint: true,
        },
        Event::JobCompleted {
            job: "j-1".into(),
            status: "partial".into(),
            attempts: 2,
        },
    ]
}

fn flow_spec() -> FlowSpec {
    FlowSpec {
        backend: "compiled".into(),
        cache: true,
        shards: 4,
        max_simulations: Some(12),
        wall_ms: None,
        max_attempts: 3,
        force_saturate: vec!["terr".into(), NASTY.into()],
    }
}

fn design_spec() -> DesignSpec {
    DesignSpec::new("lms")
        .with_input_dtype("<7,5,tc,st,rd>")
        .with_param("taps", 3.0)
        .with_param("mu", 0.05)
        .with_param(NASTY, -0.0)
}

fn witness_scenarios() -> ScenarioSet {
    ScenarioSet::from_scenarios(vec![
        Scenario {
            index: 0,
            seed: 7,
            snr_db: 28.0,
            channel_taps: vec![0.9, -0.1, 1e-300],
            samples: 400,
            stimulus: Vec::new(),
        },
        Scenario {
            index: 1,
            seed: 4_294_967_296,
            snr_db: f64::INFINITY,
            channel_taps: Vec::new(),
            samples: 3,
            stimulus: vec![
                ("x".into(), vec![1.0, -1.0, 0.5]),
                (NASTY.into(), vec![-0.0, 1e300, 5e-324]),
            ],
        },
    ])
}

fn job_spec() -> JobSpec {
    JobSpec::new(NASTY, design_spec(), witness_scenarios()).with_flow(flow_spec())
}

fn job_result(reason: Option<String>, coverage: Option<String>) -> JobResult {
    JobResult {
        job: "j-7".into(),
        tenant: NASTY.into(),
        status: if reason.is_some() {
            "partial"
        } else {
            "complete"
        }
        .into(),
        reason,
        attempts: 2,
        msb_iterations: 2,
        lsb_iterations: 1,
        coverage,
        types: vec![
            ("b".into(), "<8,6,tc,st,rd>".into()),
            (NASTY.into(), "<16,14,tc,wp,fl>".into()),
        ],
        annotations: vec![
            "b dtype=<8,6,tc,st,rd> range=[-0.355,0.189] sigma=-".into(),
            NASTY.into(),
        ],
        journal: events()[1..8].to_vec(),
    }
}

fn metrics_report() -> MetricsReport {
    MetricsReport {
        name: NASTY.into(),
        counters: vec![("serve.accepted".into(), 3), ("sim.ticks".into(), 1 << 40)],
        histograms: vec![
            (
                "flow.iter_wall_ms".into(),
                HistogramSummary {
                    count: 2,
                    sum: 21.75,
                    min: 9.25,
                    max: 12.5,
                },
            ),
            (
                "empty".into(),
                HistogramSummary {
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                },
            ),
        ],
        spans: vec![
            SpanRecord {
                name: "flow.msb.iter".into(),
                wall_ns: 145_000_000,
                cycles: 4000,
                seq: 0,
            },
            SpanRecord {
                name: NASTY.into(),
                wall_ns: 1,
                cycles: 0,
                seq: 1,
            },
        ],
        event_counts: vec![("phase_converged".into(), 2)],
    }
}

fn diagnostics() -> Vec<Diagnostic> {
    let base = Diagnostic {
        code: Code::UnclampedFeedback,
        severity: Severity::Warning,
        signal: "b".into(),
        message: NASTY.into(),
        related: vec!["w".into(), "e".into()],
        verdict: None,
    };
    vec![
        base.clone(),
        Diagnostic {
            verdict: Some(Verdict::Proved),
            ..base.clone()
        },
        Diagnostic {
            code: Code::DeadOrMultiplyDefined,
            severity: Severity::Info,
            related: Vec::new(),
            verdict: Some(Verdict::Unknown {
                reason: "state_too_large".into(),
            }),
            ..base
        },
    ]
}

fn dtype(name: &str, n: i32, f: i32, s: Signedness, o: OverflowMode, r: RoundingMode) -> DType {
    DType::new(name, n, f, s, o, r).expect("valid dtype")
}

fn msb(name: &str, decision: MsbDecision) -> MsbAnalysis {
    MsbAnalysis {
        id: SignalId::from_raw(u32::MAX),
        name: name.into(),
        accesses: 1200,
        stat: Some(Interval {
            lo: -0.19,
            hi: 0.18,
        }),
        stat_msb: Some(-2),
        prop: Some(Interval::EMPTY),
        prop_msb: None,
        exploded: true,
        decision,
        mode: OverflowMode::Wrap,
        signedness: Signedness::Unsigned,
    }
}

fn lsb(name: &str, status: LsbStatus) -> LsbAnalysis {
    LsbAnalysis {
        id: SignalId::from_raw(u32::MAX),
        name: name.into(),
        assigns: 4000,
        max_abs: 1.25,
        mean: -0.0,
        std: 3.5e-4,
        lsb: Some(-9),
        status,
        precision_loss: true,
        floor_mean_shift: Some(f64::NEG_INFINITY),
        rounding: RoundingMode::Floor,
    }
}

fn checkpoint(cursor: Cursor) -> Checkpoint {
    let apply = cursor == Cursor::Apply;
    Checkpoint {
        cursor,
        msb_done: 2,
        lsb_done: usize::from(apply),
        next_sequence: 3,
        msb_journal_start: 0,
        lsb_journal_start: apply.then_some(11),
        annotations: vec![
            SignalAnnotation {
                name: NASTY.into(),
                dtype: Some(dtype(
                    "T_b",
                    8,
                    6,
                    Signedness::TwosComplement,
                    OverflowMode::Saturate,
                    RoundingMode::Round,
                )),
                range: Some(Interval::UNBOUNDED),
                error_sigma: Some(1.5e-3),
            },
            SignalAnnotation {
                name: "w".into(),
                dtype: Some(dtype(
                    "T_w",
                    12,
                    -2,
                    Signedness::Unsigned,
                    OverflowMode::Error,
                    RoundingMode::Floor,
                )),
                range: Some(Interval::EMPTY),
                error_sigma: None,
            },
            SignalAnnotation {
                name: "x".into(),
                dtype: None,
                range: None,
                error_sigma: None,
            },
        ],
        pinned_explosion: vec!["b".into()],
        force_saturate: vec![NASTY.into()],
        excluded: Vec::new(),
        feedback: vec!["b".into(), "w".into()],
        troubled: vec!["w".into()],
        msb_final: apply.then(|| {
            vec![
                msb("a", MsbDecision::Agree { msb: 1 }),
                msb(
                    "s",
                    MsbDecision::Saturate {
                        msb: -1,
                        guard: Interval { lo: -0.4, hi: 0.4 },
                        forced: true,
                    },
                ),
                msb(
                    "t",
                    MsbDecision::Tradeoff {
                        stat_msb: -3,
                        prop_msb: 4,
                        chosen: 0,
                        saturate: false,
                    },
                ),
                msb(
                    NASTY,
                    MsbDecision::Unresolved {
                        reason: NASTY.into(),
                    },
                ),
            ]
        }),
        lsb_final: apply.then(|| {
            vec![
                lsb("r", LsbStatus::Resolved),
                lsb("e", LsbStatus::Exact),
                lsb("d", LsbStatus::Diverged),
                lsb("n", LsbStatus::NoData),
            ]
        }),
        cache: CacheState {
            warm: !apply,
            dirty: vec!["b".into()],
            data: (!apply).then(|| {
                (
                    vec![SignalStats {
                        name: NASTY.into(),
                        stat: RangeStats::from_raw(-0.19, 0.18, 1200),
                        prop: Interval::UNBOUNDED,
                        consumed: ErrorStats::from_raw(1200, 1e-4, 2e-6, 8e-4),
                        produced: ErrorStats::from_raw(0, 0.0, 0.0, f64::INFINITY),
                        overflows: 2,
                        reads: 2400,
                        writes: 1200,
                        granularity: Some(-9),
                        non_dyadic: true,
                    }],
                    vec![OverflowEvent {
                        signal: SignalId::from_raw(u32::MAX),
                        name: "b".into(),
                        value: f64::NEG_INFINITY,
                        cycle: 77,
                    }],
                    1200,
                )
            }),
        },
        journal: events()[20..26].to_vec(),
    }
}

fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Accepted {
            seq: 4_294_967_296,
            job: "j-4294967296".into(),
            spec: Box::new(job_spec()),
        },
        WalRecord::Started {
            job: NASTY.into(),
            attempt: 0,
        },
        WalRecord::Completed {
            job: "j-1".into(),
            status: "complete".into(),
        },
        WalRecord::Cancelled { job: "j-2".into() },
    ]
}

/// Renders one WAL record through the log itself.
fn wal_line(record: &WalRecord) -> String {
    let path = scratch("wal_render").join("jobs.wal");
    let mut log = JobLog::open(&path).expect("opens log");
    log.append(record).expect("appends");
    drop(log);
    let text = std::fs::read_to_string(&path).expect("reads log");
    let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
    text.strip_suffix('\n')
        .expect("newline-terminated")
        .to_string()
}

/// Decodes one WAL line through the log's replay.
fn wal_decode(line: &str) -> Result<WalRecord, String> {
    let path = scratch("wal_decode").join("jobs.wal");
    std::fs::write(&path, format!("{line}\n")).expect("writes log");
    let replayed = JobLog::replay(&path).map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
    let (mut records, _) = replayed?;
    match (records.pop(), records.is_empty()) {
        (Some(r), true) => Ok(r),
        _ => Err("expected exactly one record".into()),
    }
}

/// Every protocol response, from a server that never runs a flow: one
/// job is queued and cancelled, one rejected, and a result file is put
/// in place for the `result` and `journal` commands.
fn protocol_cases() -> Vec<Case> {
    let dir = scratch("protocol");
    let server = Server::open(ServerConfig::new(&dir)).expect("server opens");
    let result = job_result(None, Some("7 of 8 scenarios".into()));
    std::fs::write(dir.join("results").join("j-7.json"), result.to_json()).expect("writes result");
    let submit = JobSpec::new(
        "acme",
        DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
        ScenarioSet::single(7, 28.0, 120),
    );
    let requests = [
        (
            "submit",
            format!(r#"{{"cmd":"submit","spec":{}}}"#, submit.to_json()),
        ),
        ("status", r#"{"cmd":"status","job":"j-1"}"#.to_string()),
        ("result", r#"{"cmd":"result","job":"j-7"}"#.to_string()),
        ("journal", r#"{"cmd":"journal","job":"j-7"}"#.to_string()),
        ("cancel", r#"{"cmd":"cancel","job":"j-1"}"#.to_string()),
        (
            "cancel.again",
            r#"{"cmd":"cancel","job":"j-1"}"#.to_string(),
        ),
        (
            "submit.rejected",
            format!(
                r#"{{"cmd":"submit","spec":{}}}"#,
                JobSpec::new(
                    NASTY,
                    DesignSpec::new("nope"),
                    ScenarioSet::single(1, 20.0, 8)
                )
                .to_json()
            ),
        ),
        ("events", r#"{"cmd":"events"}"#.to_string()),
        ("metrics", r#"{"cmd":"metrics"}"#.to_string()),
        ("error.malformed", "{\"cmd\":".to_string()),
        ("error.no_cmd", r#"{"nocmd":1}"#.to_string()),
        ("error.unknown_cmd", r#"{"cmd":"explode"}"#.to_string()),
        ("error.no_job", r#"{"cmd":"status"}"#.to_string()),
        (
            "error.unknown_job",
            r#"{"cmd":"status","job":"j-99"}"#.to_string(),
        ),
        (
            "error.no_result",
            r#"{"cmd":"result","job":"j-1"}"#.to_string(),
        ),
        ("error.no_spec", r#"{"cmd":"submit"}"#.to_string()),
        ("shutdown", r#"{"cmd":"shutdown"}"#.to_string()),
    ];
    let cases = requests
        .iter()
        .map(|(label, request)| {
            write_only(format!("protocol.{label}"), handle_line(&server, request))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    cases
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for e in events() {
        cases.push(round_trip(
            format!("event.{}", e.kind()),
            &e,
            e.to_json(),
            Event::from_json,
        ));
    }
    for r in wal_records() {
        let kind = format!("{r:?}");
        let kind = kind.split([' ', '{']).next().unwrap_or("").to_lowercase();
        cases.push(round_trip(
            format!("wal.{kind}"),
            &r,
            wal_line(&r),
            wal_decode,
        ));
    }
    let spec = job_spec();
    cases.push(round_trip(
        "job_spec",
        &spec,
        spec.to_json(),
        JobSpec::from_json,
    ));
    let bare = JobSpec::new(
        "t",
        DesignSpec::new("timing"),
        ScenarioSet::single(7, 20.0, 100),
    );
    cases.push(round_trip(
        "job_spec.default_flow",
        &bare,
        bare.to_json(),
        JobSpec::from_json,
    ));
    let design = design_spec();
    cases.push(round_trip(
        "design_spec",
        &design,
        design.to_json(),
        DesignSpec::from_json,
    ));
    let bare = DesignSpec::new("timing");
    cases.push(round_trip(
        "design_spec.bare",
        &bare,
        bare.to_json(),
        DesignSpec::from_json,
    ));
    let set = witness_scenarios();
    cases.push(round_trip(
        "scenario_set",
        &set,
        scenario_set_to_json(&set),
        scenario_set_from_json,
    ));
    for (label, result) in [
        ("job_result.nulls", job_result(None, None)),
        (
            "job_result.values",
            job_result(Some(NASTY.into()), Some("7 of 8 scenarios".into())),
        ),
    ] {
        cases.push(round_trip(
            label,
            &result,
            result.to_json(),
            JobResult::from_json,
        ));
    }
    let status = JobStatus {
        job: "j-1".into(),
        tenant: NASTY.into(),
        state: JobState::Queued,
        attempts: 0,
        status: None,
        reason: None,
    };
    cases.push(write_only("job_status.nulls", status.to_json()));
    let status = JobStatus {
        state: JobState::Finished,
        attempts: 2,
        status: Some("partial".into()),
        reason: Some(NASTY.into()),
        ..status
    };
    cases.push(write_only("job_status.values", status.to_json()));
    let report = metrics_report();
    cases.push(round_trip(
        "metrics",
        &report,
        report.render_json(),
        MetricsReport::parse_json,
    ));
    let empty = MetricsReport {
        name: "empty".into(),
        ..MetricsReport::default()
    };
    cases.push(round_trip(
        "metrics.empty",
        &empty,
        empty.render_json(),
        MetricsReport::parse_json,
    ));
    for (i, d) in diagnostics().iter().enumerate() {
        cases.push(write_only(format!("diagnostic.{i}"), d.to_json()));
    }
    cases.extend(protocol_cases());
    for (label, cursor) in [
        ("checkpoint.msb", Cursor::Msb { next: 3 }),
        ("checkpoint.lsb", Cursor::Lsb { next: 1 }),
        ("checkpoint.apply", Cursor::Apply),
    ] {
        let cp = checkpoint(cursor);
        cases.push(round_trip(label, &cp, cp.to_json(), Checkpoint::from_json));
    }
    cases
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

fn render(cases: &[Case]) -> String {
    cases.iter().map(|c| format!("{}\n", c.line)).collect()
}

#[test]
fn every_type_renders_its_golden_bytes() {
    let cases = cases();
    let golden = std::fs::read_to_string(golden_path()).expect("golden file readable");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), cases.len(), "golden line count");
    for (case, line) in cases.iter().zip(&lines) {
        assert_eq!(&case.line, line, "{} renders differently", case.label);
    }
    assert_eq!(render(&cases), golden, "golden file ends with one newline");
}

#[test]
fn every_golden_line_decodes_to_its_sample() {
    let cases = cases();
    let golden = std::fs::read_to_string(golden_path()).expect("golden file readable");
    for (case, line) in cases.iter().zip(golden.lines()) {
        let decoded = (case.decode)(line)
            .unwrap_or_else(|e| panic!("{}: golden line does not decode: {e}", case.label));
        if let Some(expected) = &case.expected {
            assert_eq!(
                &decoded, expected,
                "{} decodes to another value",
                case.label
            );
        }
    }
}

#[test]
fn every_proper_prefix_of_a_golden_line_is_an_error() {
    let cases = cases();
    let golden = std::fs::read_to_string(golden_path()).expect("golden file readable");
    for (case, line) in cases.iter().zip(golden.lines()) {
        for (cut, _) in line.char_indices().skip(1) {
            assert!(
                (case.decode)(&line[..cut]).is_err(),
                "{}: prefix of {cut} bytes decodes",
                case.label
            );
        }
    }
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    std::fs::write(golden_path(), render(&cases())).expect("writes golden file");
}
