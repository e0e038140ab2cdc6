//! `lms_sweep`: an LMS seed grid of 16 scenarios × 4000 samples through
//! `SweepDriver` with `nproc` workers, the compiled backend and the
//! evaluation cache — the only workload that runs the worker pool, the
//! scenario-order merge, capture → `lower_trace` → compiled replay and the
//! sweep cache.

use std::time::Instant;

use fixref_bench::{lms_shard_builder, LMS_SAMPLES, LMS_SNR_DB};
use fixref_core::{SimBackend, SweepDriver};
use fixref_sim::ScenarioSet;

use crate::flowrun::{converged_without_overflow, count_flow, digest, probe, refine, TimedDriver};
use crate::lms_paper::{build, config, drive, flow_for};
use crate::trace::Tracer;
use crate::{derive_seed, timed_setup, Config, Deadline, Measured};

/// Distinct grids per run; refinement `i` sweeps grid `i % GRIDS`.
const GRIDS: u64 = 2;
/// Scenarios per grid.
const SCENARIOS: u64 = 16;

/// The k-th seed grid of a run: 16 consecutive stimulus seeds from a
/// seed-derived base, at the paper's SNR and length (the shape of
/// `lms_seed_grid`).
fn grid(seed: u64, k: u64) -> ScenarioSet {
    let base = 1 + derive_seed(seed, k) % 1_000_000;
    let seeds: Vec<u64> = (0..SCENARIOS).map(|i| base + i).collect();
    ScenarioSet::grid(&seeds, &[LMS_SNR_DB], &[], &[LMS_SAMPLES])
}

/// Worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn sweep(grid: &ScenarioSet, fast: bool) -> SweepDriver {
    let mut driver = SweepDriver::new(grid.clone(), nproc(), lms_shard_builder(config()));
    if fast {
        driver.set_backend(SimBackend::Compiled);
        driver.enable_cache();
    }
    driver
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let off = Tracer::new(false);
    // The probe of a traced refinement drives its grid's first scenario.
    let (grids, firsts): (Vec<ScenarioSet>, Vec<Vec<f64>>) = timed_setup(&mut m, || {
        let grids: Vec<ScenarioSet> = (0..GRIDS).map(|k| grid(cfg.seed, k)).collect();
        let firsts = grids.iter().map(first_stimulus).collect();
        (grids, firsts)
    });

    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); GRIDS as usize];
    let mut clock = Deadline::start(cfg.seconds);
    while let Some(i) = clock.next_refinement() {
        let k = (i % GRIDS) as usize;
        let traced = cfg.trace && i % 2 == 1;
        let t = if traced { tracer } else { &off };
        t.set_refine(i);
        let (design, _eq) = build(&config());

        m.calibrate();
        let started = Instant::now();
        let root = t.begin("refine");
        let mut flow = flow_for(&design);
        let mut driver = TimedDriver::new(sweep(&grids[k], true), t);
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
            // The journal differs by the backend and cache events; the
            // outcome must not.
            digests[k].push(digest(&o, &[]));
            Ok(())
        });
        m.check(|| format!("sweep {i} (grid {k})"), result);
        if traced {
            let (d, eq) = build(&config());
            probe(&d, drive(&eq, &firsts[k]), t);
        }
    }
    m.calibrate();
    m.loop_s = clock.elapsed_s();
    m.loop_start = Some(clock.started());
    m.peak_rss_mb = crate::peak_rss_mb("self").unwrap_or(0.0);

    // Output check, outside the measured loop: each grid's refinements
    // equal the same grid refined interpreted with no cache.
    for (k, seen) in digests.iter().enumerate() {
        if seen.is_empty() {
            continue;
        }
        let (design, _eq) = build(&config());
        let mut flow = flow_for(&design);
        match flow.run_swept(&mut sweep(&grids[k], false)) {
            Ok(reference) => {
                let r = digest(&reference, &[]);
                for _ in seen.iter().filter(|&&d| d != r) {
                    m.fail_late(format!(
                        "grid {k}: compiled+cached sweep differs from the interpreted uncached sweep"
                    ));
                }
            }
            Err(e) => m.fail_late(format!("grid {k}: reference sweep failed: {e}")),
        }
    }
    m
}

/// The stimulus of a grid's first scenario (the probe's input).
pub fn first_stimulus(grid: &ScenarioSet) -> Vec<f64> {
    fixref_bench::lms_scenario_stimulus(&grid.as_slice()[0])
}
