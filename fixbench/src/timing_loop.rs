//! `timing_loop`: the §6.1 Fig. 5 timing-recovery loop at
//! `TIMING_SAMPLES`, with the five knowledge-based saturations of
//! `run_complex`. Sequential interpreted driver, one thread. Simulation
//! and the monitor pipeline dominate; the design fails FXL001, so the
//! compiled backend, the cache and BMC have nothing to do here.

use std::time::Instant;

use fixref_bench::{TIMING_SAMPLES, TIMING_SNR_DB};
use fixref_core::{RefinePolicy, RefinementFlow, SequentialDriver};
use fixref_dsp::source::ShapedPamSource;
use fixref_dsp::{Awgn, TimingConfig, TimingRecovery};
use fixref_fixed::DType;
use fixref_sim::Design;
use fixref_verify::VerifyOptions;

use crate::flowrun::{converged_without_overflow, count_flow, digest, probe, refine, TimedDriver};
use crate::trace::Tracer;
use crate::{stimulus_seed, timed_setup, Config, Deadline, Measured};

/// Design seed of the loop (the paper harness's).
const DESIGN_SEED: u64 = 0x0DEC_7BA5;
/// The knowledge-based saturation choices of §6.1.
pub const KNOWLEDGE_SATURATIONS: [&str; 5] = ["terr", "lp", "lferr", "step", "mu"];
/// Monitored signals of the §6.1 design.
const SIGNALS: usize = 61;
/// Stimulus seeds whose flows all take 2 MSB + 1 LSB iterations: the
/// iteration count varies with the stimulus (1 to 4 LSB iterations), so
/// `--seed` picks from these to keep the work of a run seed-independent.
const STIMULUS_POOL: [u64; 9] = [2, 5, 6, 7, 8, 13, 14, 15, 16];

fn config() -> TimingConfig {
    TimingConfig {
        input_dtype: Some(DType::tc("T_in", 7, 5).expect("valid literal type")),
        input_range: None,
        ..TimingConfig::default()
    }
}

/// The §6.1 stimulus: shaped PAM through AWGN, clamped to the input range.
pub fn stimulus(source_seed: u64, noise_seed: u64, samples: usize) -> Vec<f64> {
    let mut src = ShapedPamSource::new(source_seed as u32 | 1, 0.35, 2, 0.3, 100.0);
    let mut noise = Awgn::from_snr_db(noise_seed, TIMING_SNR_DB, 1.0);
    (0..samples)
        .map(|_| noise.add(src.next_sample()).clamp(-1.9, 1.9))
        .collect()
}

fn build() -> (Design, TimingRecovery) {
    let d = Design::with_seed(DESIGN_SEED);
    let lp = TimingRecovery::new(&d, &config());
    (d, lp)
}

fn drive<'a>(lp: &'a TimingRecovery, stimulus: &'a [f64]) -> impl FnMut(&Design, usize) + 'a {
    move |_d: &Design, _iter: usize| {
        lp.init();
        for &x in stimulus {
            lp.step(x);
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let off = Tracer::new(false);
    let base = STIMULUS_POOL[(cfg.seed % STIMULUS_POOL.len() as u64) as usize];
    let input = timed_setup(&mut m, || {
        stimulus(
            stimulus_seed(base, 0),
            stimulus_seed(base, 1),
            TIMING_SAMPLES,
        )
    });

    let mut first_digest = None;
    let mut clock = Deadline::start(cfg.seconds);
    while let Some(i) = clock.next_refinement() {
        let traced = cfg.trace && i % 2 == 1;
        let t = if traced { tracer } else { &off };
        t.set_refine(i);
        let (design, lp) = build();
        let signals = lp.signal_ids().len();

        m.calibrate();
        let started = Instant::now();
        let root = t.begin("refine");
        let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
        flow.enable_verification(VerifyOptions::default());
        for name in KNOWLEDGE_SATURATIONS {
            flow.force_saturate(design.find(name).expect("declared by the loop"));
        }
        let mut driver = TimedDriver::new(SequentialDriver::new(drive(&lp, &input)), t);
        let outcome = refine(&mut flow, &mut driver, t);
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
            let saturations = o.saturation_counts();
            if signals != SIGNALS || saturations != (2, 5) || o.lsb_iterations != 1 {
                return Err(format!(
                    "§6.1 shape lost: {signals} signals, {} + {} saturations, {} LSB iterations",
                    saturations.0, saturations.1, o.lsb_iterations
                ));
            }
            let d = digest(&o, &flow.journal());
            if *first_digest.get_or_insert(d) != d {
                return Err("outcome differs from the first refinement of the same input".into());
            }
            Ok(())
        });
        m.check(|| format!("refinement {i}"), result);
        if traced {
            let (d, lp) = build();
            probe(&d, drive(&lp, &input), t);
        }
    }
    m.calibrate();
    m.loop_s = clock.elapsed_s();
    m.loop_start = Some(clock.started());
    m.peak_rss_mb = crate::peak_rss_mb("self").unwrap_or(0.0);
    m
}
