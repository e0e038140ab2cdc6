//! Seeded round-trip properties for the wire types: job specs, job
//! results, write-ahead log records, journal events and metrics
//! reports render and decode back to the same value, bit for bit, with
//! integers drawn from their full ranges, floats from every class
//! (non-finite, negative zero, subnormal) and strings full of
//! characters JSON must escape.

use std::fmt::Debug;

use fixref::fixed::Rng64;
use fixref::obs::{
    Event, FromJson, HistogramSummary, Json, MetricsReport, Phase, SpanRecord, ToJson,
};
use fixref::refine::{FlowSpec, JobSpec};
use fixref::serve::{JobResult, WalRecord};
use fixref::sim::{DesignSpec, Scenario, ScenarioSet};

const CASES: usize = 200;

fn name(rng: &mut Rng64) -> String {
    const ALPHABET: [&str; 12] = [
        "a", "Z", "9", "_", "\"", "\\", "/", "\n", "\u{1}", "\u{1f}", "µ", "😀",
    ];
    (0..rng.below(6))
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn nonempty_name(rng: &mut Rng64) -> String {
    format!("t{}", name(rng))
}

fn float(rng: &mut Rng64) -> f64 {
    match rng.below(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 5e-324,
        5 => rng.uniform(-1e6, 1e6).round(),
        6 => f64::from_bits(rng.next_u64()),
        _ => rng.uniform(-1.0, 1.0),
    }
}

fn size(rng: &mut Rng64) -> usize {
    rng.next_u64() as usize
}

fn few<T>(rng: &mut Rng64, mut item: impl FnMut(&mut Rng64) -> T) -> Vec<T> {
    (0..rng.below(4)).map(|_| item(rng)).collect()
}

fn maybe<T>(rng: &mut Rng64, item: impl FnOnce(&mut Rng64) -> T) -> Option<T> {
    (rng.below(2) == 0).then(|| item(rng))
}

fn phase(rng: &mut Rng64) -> Phase {
    if rng.below(2) == 0 {
        Phase::Msb
    } else {
        Phase::Lsb
    }
}

fn event(rng: &mut Rng64) -> Event {
    let r = rng;
    match r.below(37) {
        0 => Event::OverflowDetected {
            signal: name(r),
            value: float(r),
            cycle: r.next_u64(),
        },
        1 => Event::IterationStarted {
            phase: phase(r),
            iteration: size(r),
        },
        2 => Event::IntervalExploded {
            signal: name(r),
            iteration: size(r),
        },
        3 => Event::AutoRange {
            signal: name(r),
            lo: float(r),
            hi: float(r),
            iteration: size(r),
        },
        4 => Event::AutoError {
            signal: name(r),
            sigma: float(r),
            iteration: size(r),
        },
        5 => Event::SignalResolved {
            signal: name(r),
            phase: phase(r),
            iteration: size(r),
        },
        6 => Event::PhaseConverged {
            phase: phase(r),
            iterations: size(r),
        },
        7 => Event::PhaseFailed {
            phase: phase(r),
            iterations: size(r),
            unresolved: name(r),
        },
        8 => Event::TypeApplied {
            signal: name(r),
            dtype: name(r),
        },
        9 => Event::VerifyCompleted {
            overflows: r.next_u64(),
            saturation_events: r.next_u64(),
        },
        10 => Event::ShardStarted {
            shard: size(r),
            seed: r.next_u64(),
            snr_db: float(r),
            samples: size(r),
        },
        11 => Event::ShardMerged {
            shard: size(r),
            cycles: r.next_u64(),
            signals: size(r),
        },
        12 => Event::CacheInvalidated {
            reason: name(r),
            dirty: size(r),
        },
        13 => Event::RangeClamped {
            signal: name(r),
            lo: float(r),
            hi: float(r),
        },
        14 => Event::RangeExploded {
            signal: name(r),
            passes: size(r),
        },
        15 => Event::LintDiagnostic {
            code: name(r),
            severity: name(r),
            signal: name(r),
            message: name(r),
        },
        16 => Event::LintCompleted {
            errors: size(r),
            warnings: size(r),
            infos: size(r),
        },
        17 => Event::LintGateFailed {
            context: name(r),
            code: name(r),
            findings: size(r),
        },
        18 => Event::VerifyStarted {
            code: name(r),
            signal: name(r),
            registers: size(r),
        },
        19 => Event::VerifyProved {
            code: name(r),
            signal: name(r),
            states: size(r),
            depth: size(r),
        },
        20 => Event::VerifyCounterexample {
            code: name(r),
            signal: name(r),
            steps: size(r),
        },
        21 => Event::VerifyBoundExhausted {
            code: name(r),
            signal: name(r),
            reason: name(r),
            states: size(r),
        },
        22 => Event::ShardFailed {
            shard: size(r),
            scenario: name(r),
            attempts: size(r),
            cause: name(r),
        },
        23 => Event::ShardRetried {
            shard: size(r),
            attempt: size(r),
        },
        24 => Event::ShardQuarantined {
            shard: size(r),
            scenario: name(r),
        },
        25 => Event::CheckpointWritten {
            sequence: size(r),
            phase: phase(r),
            iteration: size(r),
        },
        26 => Event::CheckpointFailed {
            sequence: size(r),
            cause: name(r),
        },
        27 => Event::ResumedFromCheckpoint {
            sequence: size(r),
            phase: phase(r),
            iteration: size(r),
            events: size(r),
        },
        28 => Event::BudgetExhausted {
            phase: phase(r),
            simulations: r.next_u64(),
            reason: name(r),
        },
        29 => Event::BackendCompiled {
            backend: name(r),
            kinds: size(r),
            instructions: size(r),
            cycles: r.next_u64(),
        },
        30 => Event::BackendFallback {
            backend: name(r),
            reason: name(r),
        },
        31 => Event::JobAccepted {
            job: name(r),
            tenant: name(r),
            queue_depth: size(r),
        },
        32 => Event::JobRejected {
            tenant: name(r),
            reason: name(r),
        },
        33 => Event::JobStarted {
            job: name(r),
            tenant: name(r),
            attempt: size(r),
        },
        34 => Event::JobRetried {
            job: name(r),
            attempt: size(r),
            backoff_ms: r.next_u64(),
        },
        35 => Event::JobRecovered {
            job: name(r),
            tenant: name(r),
            from_checkpoint: r.below(2) == 0,
        },
        _ => Event::JobCompleted {
            job: name(r),
            status: name(r),
            attempts: size(r),
        },
    }
}

fn scenario(rng: &mut Rng64) -> Scenario {
    Scenario {
        index: 0,
        seed: rng.next_u64(),
        snr_db: float(rng),
        channel_taps: few(rng, float),
        samples: size(rng),
        stimulus: few(rng, |r| (name(r), few(r, float))),
    }
}

fn job_spec(rng: &mut Rng64) -> JobSpec {
    let mut design = DesignSpec::new(name(rng));
    design.input_dtype = maybe(rng, name);
    design.params = few(rng, |r| (name(r), float(r)));
    let scenarios =
        ScenarioSet::from_scenarios((0..=rng.below(3)).map(|_| scenario(rng)).collect());
    JobSpec::new(nonempty_name(rng), design, scenarios).with_flow(FlowSpec {
        backend: if rng.below(2) == 0 {
            "interpreted"
        } else {
            "compiled"
        }
        .into(),
        cache: rng.below(2) == 0,
        shards: size(rng),
        max_simulations: maybe(rng, Rng64::next_u64),
        wall_ms: maybe(rng, Rng64::next_u64),
        max_attempts: size(rng).max(1),
        force_saturate: few(rng, name),
    })
}

fn job_result(rng: &mut Rng64) -> JobResult {
    JobResult {
        job: name(rng),
        tenant: name(rng),
        status: name(rng),
        reason: maybe(rng, name),
        attempts: size(rng),
        msb_iterations: size(rng),
        lsb_iterations: size(rng),
        coverage: maybe(rng, name),
        types: few(rng, |r| (name(r), name(r))),
        annotations: few(rng, name),
        journal: few(rng, event),
    }
}

fn wal_record(rng: &mut Rng64) -> WalRecord {
    match rng.below(4) {
        0 => WalRecord::Accepted {
            seq: rng.next_u64(),
            job: name(rng),
            spec: Box::new(job_spec(rng)),
        },
        1 => WalRecord::Started {
            job: name(rng),
            attempt: size(rng),
        },
        2 => WalRecord::Completed {
            job: name(rng),
            status: name(rng),
        },
        _ => WalRecord::Cancelled { job: name(rng) },
    }
}

fn metrics_report(rng: &mut Rng64) -> MetricsReport {
    MetricsReport {
        name: name(rng),
        counters: few(rng, |r| (name(r), r.next_u64())),
        histograms: few(rng, |r| {
            let h = HistogramSummary {
                count: r.next_u64(),
                sum: float(r),
                min: float(r),
                max: float(r),
            };
            (name(r), h)
        }),
        spans: few(rng, |r| SpanRecord {
            name: name(r),
            wall_ns: r.next_u64(),
            cycles: r.next_u64(),
            seq: r.next_u64(),
        }),
        event_counts: few(rng, |r| (name(r), r.next_u64())),
    }
}

/// Renders `CASES` generated values, decodes each rendering, and
/// requires the same value back (compared through `Debug`, which tells
/// `-0.0` from `0.0` and prints every NaN alike) and the same text when
/// rendered again.
fn assert_round_trips<T: ToJson + FromJson + Debug>(seed: u64, generate: fn(&mut Rng64) -> T) {
    let mut rng = Rng64::seed_from_u64(seed);
    for case in 0..CASES {
        let value = generate(&mut rng);
        let text = value.encode().to_string();
        let back = Json::parse(&text)
            .and_then(|v| T::decode(&v))
            .unwrap_or_else(|e| panic!("case {case} does not decode: {e}\n{text}"));
        assert_eq!(
            format!("{back:?}"),
            format!("{value:?}"),
            "case {case}: {text}"
        );
        assert_eq!(
            back.encode().to_string(),
            text,
            "case {case} re-renders differently"
        );
    }
}

#[test]
fn job_specs_round_trip() {
    assert_round_trips(0x5EED_0001, job_spec);
}

#[test]
fn job_specs_round_trip_through_their_public_text_form() {
    let mut rng = Rng64::seed_from_u64(0x5EED_0006);
    for case in 0..CASES {
        let spec = job_spec(&mut rng);
        let back = JobSpec::from_json(&spec.to_json())
            .unwrap_or_else(|e| panic!("case {case} does not decode: {e}"));
        assert_eq!(format!("{back:?}"), format!("{spec:?}"), "case {case}");
    }
}

#[test]
fn job_results_round_trip() {
    assert_round_trips(0x5EED_0002, job_result);
}

#[test]
fn wal_records_round_trip() {
    assert_round_trips(0x5EED_0003, wal_record);
}

#[test]
fn events_round_trip() {
    assert_round_trips(0x5EED_0004, event);
}

#[test]
fn metrics_reports_round_trip() {
    assert_round_trips(0x5EED_0005, metrics_report);
}
