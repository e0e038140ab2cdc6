//! The paper's motivational example (Fig. 1): a simplified symbol-spaced
//! adaptive LMS equalizer.
//!
//! The behavioral description, transliterated from the paper's C listing:
//!
//! ```text
//! d[0] = get(x);                       // input into the delay line
//! for i in (1..N).rev()  d[i] = d[i-1];
//! v[0] = 0;
//! for i in 1..=N         v[i] = v[i-1] + d[i-1] * c[i-1];   // FIR
//! w = v[N] - b * s;                    // feedback correction
//! y = w > 0 ? 1 : -1;                  // slicer (binary PAM)
//! b = b + mu * s * (w - y);            // LMS adaptation (single coeff)
//! s = y;
//! ```
//!
//! OCR reconstruction notes: the FIR coefficients are
//! `[-0.11, 1.2, -0.11]` (the third value is cut off in the OCR; chosen
//! symmetric) and the adaptation line's `+` is eaten by the OCR (as in
//! `d = c d;` for `c + d`); `mu` is folded into the step size.
//!
//! [`LmsGolden`] is the plain `f64` reference; [`LmsEqualizer`] is the
//! instrumented model over a [`Design`], used by the Table 1 / Table 2
//! reproductions.

use fixref_core::{ShardBuilder, ShardSim};
use fixref_fixed::DType;
use fixref_sim::{Design, Reg, RegArray, Scenario, Sig, SigArray, SignalId, SignalRef, Value};

use crate::channel::{Awgn, FirChannel};
use crate::source::PamSource;

/// Error-injection seed of the reference equalizer design. Every sweep
/// shard and every served job builds its design with it, so their
/// `error()` streams line up with the master design's.
pub const DESIGN_SEED: u64 = 0xDA7E_1999;

/// Configuration of the equalizer models.
#[derive(Debug, Clone)]
pub struct LmsConfig {
    /// FIR coefficient values (the paper's `coef[]`).
    pub coefficients: Vec<f64>,
    /// LMS step size for the feedback coefficient.
    pub mu: f64,
    /// Optional fixed-point type for the input signal `x` (the paper's
    /// `T_input`, later `<7,5,tc>`).
    pub input_dtype: Option<DType>,
    /// Explicit input range annotation (the paper's
    /// `x.range(-1.5, 1.5)`).
    pub input_range: Option<(f64, f64)>,
}

impl Default for LmsConfig {
    /// The paper's setup: `coef = [-0.11, 1.2, -0.11]`, hardware-friendly
    /// `mu = 1/16`, floating-point input with `x.range(-1.5, 1.5)`.
    fn default() -> Self {
        LmsConfig {
            coefficients: vec![-0.11, 1.2, -0.11],
            mu: 1.0 / 16.0,
            input_dtype: None,
            input_range: Some((-1.5, 1.5)),
        }
    }
}

/// Golden floating-point implementation of the Fig. 1 equalizer.
#[derive(Debug, Clone)]
pub struct LmsGolden {
    coefficients: Vec<f64>,
    mu: f64,
    d: Vec<f64>,
    b: f64,
    s: f64,
}

impl LmsGolden {
    /// Creates the golden model.
    pub fn new(config: &LmsConfig) -> Self {
        LmsGolden {
            coefficients: config.coefficients.clone(),
            mu: config.mu,
            d: vec![0.0; config.coefficients.len()],
            b: 0.0,
            s: 0.0,
        }
    }

    /// One symbol step: returns `(w, y)` — the slicer input and decision.
    ///
    /// The FIR consumes the delay line *before* this sample is shifted in
    /// (one symbol of pipeline latency), mirroring the register semantics
    /// of the instrumented model.
    pub fn step(&mut self, x: f64) -> (f64, f64) {
        let v: f64 = self
            .d
            .iter()
            .zip(&self.coefficients)
            .map(|(d, c)| d * c)
            .sum();
        self.d.rotate_right(1);
        self.d[0] = x;
        let w = v - self.b * self.s;
        let y = if w > 0.0 { 1.0 } else { -1.0 };
        self.b += self.mu * self.s * (w - y);
        self.s = y;
        (w, y)
    }

    /// The adaptive feedback coefficient.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Resets all state.
    pub fn reset(&mut self) {
        self.d.iter_mut().for_each(|d| *d = 0.0);
        self.b = 0.0;
        self.s = 0.0;
    }
}

/// The instrumented Fig. 1 equalizer over a [`Design`].
///
/// Signal names match the paper's Table 1: `c[i]`, `x`, `d[i]`, `v[i]`,
/// `w`, `b`, `y` (plus the decision register `s`).
///
/// # Example
///
/// ```
/// use fixref_dsp::{LmsConfig, LmsEqualizer};
/// use fixref_sim::Design;
///
/// let d = Design::new();
/// let eq = LmsEqualizer::new(&d, &LmsConfig::default());
/// eq.init();
/// let (w, y) = eq.step(0.8);
/// assert!(y == 1.0 || y == -1.0);
/// assert!(w.abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct LmsEqualizer {
    design: Design,
    coefficients: Vec<f64>,
    mu: f64,
    n: usize,
    x: Sig,
    c: SigArray,
    d: RegArray,
    v: SigArray,
    w: Sig,
    y: Sig,
    b: Reg,
    s: Reg,
}

impl LmsEqualizer {
    /// Declares the equalizer's signals in `design`.
    ///
    /// # Panics
    ///
    /// Panics if the signal names are already taken in the design or the
    /// coefficient list is empty.
    pub fn new(design: &Design, config: &LmsConfig) -> Self {
        let n = config.coefficients.len();
        assert!(n > 0, "equalizer needs at least one coefficient");
        let x = match &config.input_dtype {
            Some(t) => design.sig_typed("x", t.clone()),
            None => design.sig("x"),
        };
        if let Some((lo, hi)) = config.input_range {
            x.range(lo, hi);
        }
        // Every assignment in `step` executes unconditionally each cycle
        // and the slicer decision goes through `select_positive`, so the
        // incremental engine may re-simulate dirty cones partially.
        design.declare_static_schedule();
        LmsEqualizer {
            design: design.clone(),
            coefficients: config.coefficients.clone(),
            mu: config.mu,
            n,
            x,
            c: design.sig_array("c", n),
            d: design.reg_array("d", n),
            v: design.sig_array("v", n + 1),
            w: design.sig("w"),
            y: design.sig("y"),
            b: design.reg("b"),
            s: design.reg("s"),
        }
    }

    /// Loads the constant coefficients (the paper's initialization loop).
    /// Must be called after every `reset_state` of the design.
    pub fn init(&self) {
        for (i, &coef) in self.coefficients.iter().enumerate() {
            self.c.at(i).set(coef);
        }
    }

    /// One symbol step (one clock tick): feeds `input`, returns the
    /// floating-path `(w, y)` pair.
    pub fn step(&self, input: f64) -> (f64, f64) {
        let design = &self.design;
        self.x.set(input);

        // Delay line shift: registers all read pre-tick values.
        self.d.at(0).set(self.x.get());
        for i in 1..self.n {
            self.d.at(i).set(self.d.at(i - 1).get());
        }

        // FIR partial sums (uses the pre-tick delay line, i.e. d before
        // this symbol was shifted in — one symbol latency, as in RTL).
        self.v.at(0).set(0.0);
        for i in 1..=self.n {
            self.v
                .at(i)
                .set(self.v.at(i - 1).get() + self.d.at(i - 1).get() * self.c.at(i - 1).get());
        }

        // Feedback correction and slicer.
        let w_val = self.v.at(self.n).get() - self.b.get() * self.s.get();
        self.w.set(w_val);
        let y_val = self
            .w
            .get()
            .select_positive(Value::from(1.0), Value::from(-1.0));
        self.y.set(y_val);

        // LMS adaptation of the single feedback coefficient.
        self.b
            .set(self.b.get() + self.mu * self.s.get() * (self.w.get() - self.y.get()));
        self.s.set(self.y.get());

        design.tick();
        (self.w.get().flt(), self.y.get().flt())
    }

    /// The owning design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Handle to the input signal `x`.
    pub fn x(&self) -> &Sig {
        &self.x
    }

    /// Handle to the slicer input `w` (the SQNR observation point).
    pub fn w(&self) -> &Sig {
        &self.w
    }

    /// Handle to the decision output `y`.
    pub fn y(&self) -> &Sig {
        &self.y
    }

    /// Handle to the adaptive coefficient `b`.
    pub fn b(&self) -> &Reg {
        &self.b
    }

    /// Ids of every equalizer signal, in Table 1 order.
    pub fn signal_ids(&self) -> Vec<SignalId> {
        let mut ids: Vec<SignalId> = self.c.iter().map(|s| s.id()).collect();
        ids.push(self.x.id());
        ids.extend(self.d.iter().map(|r| r.id()));
        ids.extend(self.v.iter().skip(1).map(|s| s.id()));
        ids.push(self.w.id());
        ids.push(self.b.id());
        ids.push(self.y.id());
        ids.push(self.s.id());
        ids
    }
}

/// The standard stimulus for the equalizer experiments: PRBS 2-PAM through
/// the mild ISI channel plus AWGN at the given SNR. Returns the input
/// sample sequence (peak magnitude ≤ 1.5, matching `x.range`).
pub fn equalizer_stimulus(seed: u64, snr_db: f64, len: usize) -> Vec<f64> {
    stimulus(seed, snr_db, &[], len)
}

/// The stimulus of one equalizer scenario: [`equalizer_stimulus`] over
/// the scenario's channel (the paper's mild-ISI channel when it has no
/// taps), seed, SNR and length.
pub fn scenario_stimulus(scenario: &Scenario) -> Vec<f64> {
    stimulus(
        scenario.seed,
        scenario.snr_db,
        &scenario.channel_taps,
        scenario.samples,
    )
}

fn stimulus(seed: u64, snr_db: f64, channel_taps: &[f64], len: usize) -> Vec<f64> {
    let mut pam = PamSource::bpsk(seed as u32 | 1);
    let mut channel = if channel_taps.is_empty() {
        FirChannel::mild_isi()
    } else {
        FirChannel::new(channel_taps)
    };
    let mut noise = Awgn::from_snr_db(seed, snr_db, 1.0);
    (0..len)
        .map(|_| {
            let s = pam.next_symbol();
            let x = noise.add(channel.push(s));
            x.clamp(-1.5, 1.5)
        })
        .collect()
}

/// Sweep shard builder for the equalizer: every shard gets a fresh
/// design seeded with [`DESIGN_SEED`], driven by its scenario's
/// [`scenario_stimulus`]. The stimulus is generated on the closure's
/// first call and kept for the later ones, so a shard whose simulations
/// all replay a capture never generates it.
pub fn shard_builder(config: LmsConfig) -> Box<ShardBuilder> {
    Box::new(move |scenario: &Scenario| {
        let design = Design::with_seed(DESIGN_SEED);
        let eq = LmsEqualizer::new(&design, &config);
        let (seed, snr_db, samples) = (scenario.seed, scenario.snr_db, scenario.samples);
        let taps = scenario.channel_taps.clone();
        let mut generated = None;
        ShardSim {
            design,
            stimulus: Box::new(move |_d: &Design, _iter: usize| {
                let xs = generated.get_or_insert_with(|| stimulus(seed, snr_db, &taps, samples));
                eq.init();
                for &x in xs.iter() {
                    eq.step(x);
                }
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_slicer_decisions_are_binary_and_b_stays_small() {
        let mut g = LmsGolden::new(&LmsConfig::default());
        let xs = equalizer_stimulus(1, 25.0, 2000);
        for &x in &xs {
            let (w, y) = g.step(x);
            assert!(y == 1.0 || y == -1.0);
            assert!(w.abs() < 3.0);
        }
        assert!(g.b().abs() < 0.35, "b diverged: {}", g.b());
        g.reset();
        assert_eq!(g.b(), 0.0);
    }

    #[test]
    fn golden_equalizer_opens_the_eye() {
        // After adaptation, w should cluster near ±1: the mean distance of
        // w from the decision must be clearly below the no-equalizer ISI.
        let mut g = LmsGolden::new(&LmsConfig::default());
        let xs = equalizer_stimulus(2, 30.0, 4000);
        let mut err = 0.0;
        let mut count = 0;
        for (i, &x) in xs.iter().enumerate() {
            let (w, y) = g.step(x);
            if i > 2000 {
                err += (w - y).abs();
                count += 1;
            }
        }
        let mean_err = err / count as f64;
        assert!(mean_err < 0.35, "slicer error {mean_err}");
    }

    #[test]
    fn instrumented_matches_golden_when_floating() {
        // With no types anywhere, the instrumented model must match the
        // golden model bit for bit (both are f64 paths).
        let d = Design::new();
        let eq = LmsEqualizer::new(&d, &LmsConfig::default());
        eq.init();
        let mut g = LmsGolden::new(&LmsConfig::default());
        let xs = equalizer_stimulus(3, 25.0, 500);
        for &x in &xs {
            let (wg, yg) = g.step(x);
            let (wi, yi) = eq.step(x);
            assert_eq!(wg, wi);
            assert_eq!(yg, yi);
        }
    }

    #[test]
    fn instrumented_counts_match_run_length() {
        let d = Design::new();
        let eq = LmsEqualizer::new(&d, &LmsConfig::default());
        eq.init();
        for &x in &equalizer_stimulus(4, 25.0, 100) {
            eq.step(x);
        }
        let rep = d.report_for(eq.w());
        assert_eq!(rep.writes, 100);
        let rep_y = d.report_for(eq.y());
        assert_eq!(rep_y.writes, 100);
        assert_eq!(rep_y.finest_lsb, Some(0)); // ±1 decisions
    }

    #[test]
    fn signal_inventory_matches_paper_table() {
        let d = Design::new();
        let eq = LmsEqualizer::new(&d, &LmsConfig::default());
        let ids = eq.signal_ids();
        // c0..c2, x, d0..d2, v1..v3, w, b, y, s = 14 signals.
        assert_eq!(ids.len(), 14);
        let names: Vec<String> = ids.iter().map(|&i| d.name_of(i)).collect();
        for expected in [
            "c[0]", "c[1]", "c[2]", "x", "d[0]", "d[1]", "d[2]", "v[1]", "v[2]", "v[3]", "w", "b",
            "y", "s",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn feedback_explodes_range_propagation() {
        // The paper's Table 1 iteration 1: w and b suffer range explosion.
        let d = Design::new();
        let eq = LmsEqualizer::new(&d, &LmsConfig::default());
        eq.init();
        for &x in &equalizer_stimulus(5, 25.0, 2000) {
            eq.step(x);
        }
        let b_rep = d.report_for(eq.b());
        let w_rep = d.report_for(eq.w());
        let explosion = |p: fixref_fixed::Interval| p.is_exploded() || p.max_abs() > 1e7;
        assert!(explosion(b_rep.prop), "b prop: {}", b_rep.prop);
        assert!(explosion(w_rep.prop), "w prop: {}", w_rep.prop);
        // While the simulated (statistic) ranges stay small.
        assert!(b_rep.stat.max().abs() < 1.0);
        assert!(w_rep.stat.interval().expect("seen values").max_abs() < 4.0);
    }

    #[test]
    fn stimulus_respects_input_range() {
        let xs = equalizer_stimulus(6, 15.0, 5000);
        assert!(xs.iter().all(|x| x.abs() <= 1.5));
        // And actually exercises a good part of it.
        let max = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(max > 1.0, "stimulus too tame: {max}");
    }
}
