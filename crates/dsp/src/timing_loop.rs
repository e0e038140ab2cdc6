//! The complex example (paper Fig. 5): a timing-recovery loop for PAM
//! signals — "in → Interpolator → out", steered by "Timing error detector
//! → Loop filter → NCO".
//!
//! The receiver runs at 2 samples per symbol. A root-raised-cosine-ish
//! receive filter (lowpass matched filter) conditions the input, a cubic
//! Farrow interpolator resamples at the NCO-controlled instants, a Gardner
//! TED measures the timing error on symbol strobes, and a PI loop filter
//! drives the NCO's phase decrement. The NCO phase register wraps mod 1 —
//! the divergent-error feedback signal of the paper's complex example
//! (its `D` signal "of which the error calculation was unstable").
//!
//! The instrumented model declares 61 monitored signals, matching the
//! count the paper reports for this design.

use fixref_core::{ShardBuilder, ShardSim};
use fixref_fixed::DType;
use fixref_sim::{Design, Reg, RegArray, Scenario, Sig, SigArray, SignalId, SignalRef, Value};

use crate::channel::Awgn;
use crate::fir::lowpass;
use crate::interp::FarrowCubic;
use crate::loopfilter::PiFilter;
use crate::nco::Nco;
use crate::slicer::pam_slice;
use crate::source::ShapedPamSource;
use crate::ted::GardnerTed;

/// Error-injection seed of the reference timing-recovery design. Every
/// sweep shard and every served job builds its design with it, so their
/// `error()` streams line up with the master design's.
pub const DESIGN_SEED: u64 = 0x0DEC_7BA5;

/// Configuration shared by the golden and instrumented loop models.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Proportional gain of the loop filter.
    pub kp: f64,
    /// Integral gain of the loop filter.
    pub ki: f64,
    /// Receive-filter tap count (lowpass matched filter).
    pub rx_taps: usize,
    /// Optional fixed-point type for the input signal.
    pub input_dtype: Option<DType>,
    /// Explicit input range annotation.
    pub input_range: Option<(f64, f64)>,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            kp: 0.05,
            ki: 0.002,
            rx_taps: 10,
            input_dtype: None,
            input_range: Some((-1.6, 1.6)),
        }
    }
}

/// One processed sample's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingStep {
    /// Symbol strobe fired this sample.
    pub strobe: bool,
    /// Interpolated symbol-instant sample (valid on strobe).
    pub symbol_sample: f64,
    /// Slicer decision (valid on strobe).
    pub decision: f64,
    /// Fractional interval handed to the interpolator (valid on strobe).
    pub mu: f64,
}

/// Golden floating-point timing-recovery loop.
#[derive(Debug, Clone)]
pub struct TimingGolden {
    rx: crate::fir::Fir,
    interp: FarrowCubic,
    prev_interp: FarrowCubic,
    ted: GardnerTed,
    lf: PiFilter,
    nco: Nco,
    ctl: f64,
    half_pending: f64,
}

impl TimingGolden {
    /// Creates the golden model.
    pub fn new(config: &TimingConfig) -> Self {
        TimingGolden {
            rx: crate::fir::Fir::new(&lowpass(0.42, config.rx_taps)),
            interp: FarrowCubic::new(),
            prev_interp: FarrowCubic::new(),
            ted: GardnerTed::new(),
            lf: PiFilter::new(config.kp, config.ki).with_clamp(-0.2, 0.2),
            nco: Nco::new(0.5),
            ctl: 0.0,
            half_pending: 0.0,
        }
    }

    /// Processes one input sample.
    pub fn step(&mut self, x: f64) -> TimingStep {
        let filtered = self.rx.push(x);
        self.prev_interp = self.interp.clone();
        self.interp.push(filtered);
        match self.nco.step(self.ctl) {
            Some(mu) => {
                let y_sym = self.interp.interpolate(mu);
                // Midway sample: same mu, delay line one sample older.
                let y_half = self.prev_interp.interpolate(mu);
                self.ted.push_half(y_half);
                let e = self.ted.push_symbol(y_sym);
                self.ctl = self.lf.push(e);
                self.half_pending = y_half;
                TimingStep {
                    strobe: true,
                    symbol_sample: y_sym,
                    decision: pam_slice(y_sym, 2),
                    mu,
                }
            }
            None => TimingStep::default(),
        }
    }

    /// The loop filter's current control output.
    pub fn control(&self) -> f64 {
        self.ctl
    }
}

/// The instrumented Fig. 5 loop over a [`Design`] — 61 monitored signals.
#[derive(Debug, Clone)]
pub struct TimingRecovery {
    design: Design,
    config: TimingConfig,
    rx_coeff: Vec<f64>,
    // Front-end receive filter.
    x: Sig,
    mfc: SigArray,
    mfd: RegArray,
    mfv: SigArray,
    mf: Sig,
    // Interpolator.
    xd: RegArray,
    fc: SigArray,
    h: SigArray,
    g: SigArray,
    mu: Sig,
    mum1: Sig,
    out: Sig,
    yhalf: Sig,
    // TED.
    ysym: Reg,
    yprev: Reg,
    yh: Reg,
    terr: Sig,
    // Loop filter.
    lp: Sig,
    li: Reg,
    lferr: Sig,
    // NCO.
    phase: Reg,
    step_s: Sig,
    ctr: Sig,
    // Output.
    y: Sig,
    serr: Sig,
}

impl TimingRecovery {
    /// Declares the loop's signals in `design`.
    ///
    /// # Panics
    ///
    /// Panics if the signal names are already taken.
    pub fn new(design: &Design, config: &TimingConfig) -> Self {
        let x = match &config.input_dtype {
            Some(t) => design.sig_typed("in", t.clone()),
            None => design.sig("in"),
        };
        if let Some((lo, hi)) = config.input_range {
            x.range(lo, hi);
        }
        let n = config.rx_taps;
        TimingRecovery {
            design: design.clone(),
            config: config.clone(),
            rx_coeff: lowpass(0.42, n),
            x,
            mfc: design.sig_array("mfc", n),
            mfd: design.reg_array("mfd", n),
            mfv: design.sig_array("mfv", n + 1),
            mf: design.sig("mf"),
            xd: design.reg_array("xd", 4),
            fc: design.sig_array("fc", 4),
            h: design.sig_array("h", 2),
            g: design.sig_array("g", 2),
            mu: design.sig("mu"),
            mum1: design.sig("mum1"),
            out: design.sig("out"),
            yhalf: design.sig("yhalf"),
            ysym: design.reg("ysym"),
            yprev: design.reg("yprev"),
            yh: design.reg("yh"),
            terr: design.sig("terr"),
            lp: design.sig("lp"),
            li: design.reg("li"),
            lferr: design.sig("lferr"),
            phase: design.reg("phase"),
            step_s: design.sig("step"),
            ctr: design.sig("ctr"),
            y: design.sig("y"),
            serr: design.sig("serr"),
        }
    }

    /// Loads constants (filter coefficients) and presets the NCO phase.
    /// Must be called after every `reset_state` of the design.
    pub fn init(&self) {
        for (i, &c) in self.rx_coeff.iter().enumerate() {
            self.mfc.at(i).set(c);
        }
        self.phase.set(1.0 - 1e-12);
        self.design.tick();
    }

    /// Processes one input sample (one clock tick).
    pub fn step(&self, input: f64) -> TimingStep {
        let d = &self.design;
        self.x.set(input);

        // Receive filter: delay line + partial sums.
        let n = self.mfd.len();
        self.mfd.at(0).set(self.x.get());
        for i in 1..n {
            self.mfd.at(i).set(self.mfd.at(i - 1).get());
        }
        self.mfv.at(0).set(0.0);
        for i in 1..=n {
            self.mfv.at(i).set(
                self.mfv.at(i - 1).get() + self.mfd.at(i - 1).get() * self.mfc.at(i - 1).get(),
            );
        }

        self.mf.set(self.mfv.at(n).get());

        // Interpolator delay line.
        self.xd.at(0).set(self.mf.get());
        for i in 1..4 {
            self.xd.at(i).set(self.xd.at(i - 1).get());
        }

        // NCO phase decrement; strobe on underflow (fixed-path decision).
        self.step_s
            .set(0.5 + self.lferr.get().max((-0.2).into()).min(0.2.into()));
        let ph_new = self.phase.get() - self.step_s.get();
        let strobe = ph_new.is_negative();
        self.ctr.set(if strobe { 1.0 } else { 0.0 });
        if strobe {
            self.phase.set(ph_new.clone() + 1.0);
            // mu = residual / step ≈ 2 * residual at a nominal step of 0.5
            // (hardware divider avoided, as in the real designs); clamped
            // because the approximation can slightly exceed [0, 1) when
            // the step deviates from 0.5.
            self.mu.set(
                ((ph_new + self.step_s.get()) * 2.0)
                    .min((1.0 - 1e-9).into())
                    .max(0.0.into()),
            );
            self.mum1.set(self.mu.get() - 1.0);
        } else {
            self.phase.set(ph_new);
        }

        let mut result = TimingStep::default();
        if strobe {
            // Farrow coefficients from the (pre-tick) interpolator line.
            let x0 = self.xd.at(0).get();
            let x1 = self.xd.at(1).get();
            let x2 = self.xd.at(2).get();
            let x3 = self.xd.at(3).get();
            self.fc.at(0).set(x2.clone());
            self.fc
                .at(1)
                .set(-(x3.clone() / 3.0) - x2.clone() / 2.0 + x1.clone() - x0.clone() / 6.0);
            self.fc
                .at(2)
                .set(x3.clone() / 2.0 - x2.clone() + x1.clone() / 2.0);
            self.fc
                .at(3)
                .set(-(x3 / 6.0) + x2 / 2.0 - x1 / 2.0 + x0 / 6.0);

            // Horner chains: symbol instant at mu, half instant at mu - 1.
            self.h
                .at(0)
                .set(self.fc.at(3).get() * self.mu.get() + self.fc.at(2).get());
            self.h
                .at(1)
                .set(self.h.at(0).get() * self.mu.get() + self.fc.at(1).get());
            self.out
                .set(self.h.at(1).get() * self.mu.get() + self.fc.at(0).get());

            self.g
                .at(0)
                .set(self.fc.at(3).get() * self.mum1.get() + self.fc.at(2).get());
            self.g
                .at(1)
                .set(self.g.at(0).get() * self.mum1.get() + self.fc.at(1).get());
            self.yhalf
                .set(self.g.at(1).get() * self.mum1.get() + self.fc.at(0).get());

            // Gardner TED on the strobes.
            self.yh.set(self.yhalf.get());
            self.yprev.set(self.ysym.get());
            self.ysym.set(self.out.get());
            // Gardner convention e = y_half * (y_now - y_prev): ysym is a
            // register, so its pre-tick read is the previous symbol.
            self.terr
                .set(self.yhalf.get() * (self.out.get() - self.ysym.get()));

            // PI loop filter. The integrator is deliberately unclamped
            // here: it is the classic accumulator whose range propagation
            // explodes, so the refinement flow must decide saturation for
            // it (the control path's `step` clamp keeps the loop dynamics
            // identical as long as |lferr| < 0.2, which holds in lock).
            self.lp.set(self.terr.get() * self.config.kp);
            self.li
                .set(self.li.get() + self.terr.get() * self.config.ki);
            self.lferr.set(self.lp.get() + self.li.get());

            // Slicer and slicer error.
            let y_val = self
                .out
                .get()
                .select_positive(Value::from(1.0), Value::from(-1.0));
            self.y.set(y_val);
            self.serr.set(self.out.get() - self.y.get());

            result = TimingStep {
                strobe: true,
                symbol_sample: self.out.get().flt(),
                decision: self.y.get().flt(),
                mu: self.mu.get().flt(),
            };
        }

        d.tick();
        result
    }

    /// The owning design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Handle to the NCO phase register — the divergent feedback signal.
    pub fn phase(&self) -> &Reg {
        &self.phase
    }

    /// Handle to the interpolator output (the `out` of Fig. 5).
    pub fn out(&self) -> &Sig {
        &self.out
    }

    /// Handle to the decision output.
    pub fn y(&self) -> &Sig {
        &self.y
    }

    /// Handle to the loop filter output (`lferr` in Fig. 5).
    pub fn lferr(&self) -> &Sig {
        &self.lferr
    }

    /// Handle to the loop-filter integrator (a knowledge-based saturation
    /// candidate).
    pub fn integrator(&self) -> &Reg {
        &self.li
    }

    /// Ids of every monitored signal of the loop.
    pub fn signal_ids(&self) -> Vec<SignalId> {
        let mut ids = vec![self.x.id()];
        ids.extend(self.mfc.iter().map(|s| s.id()));
        ids.extend(self.mfd.iter().map(|r| r.id()));
        ids.extend(self.mfv.iter().map(|s| s.id()));
        ids.push(self.mf.id());
        ids.extend(self.xd.iter().map(|r| r.id()));
        ids.extend(self.fc.iter().map(|s| s.id()));
        ids.extend(self.h.iter().map(|s| s.id()));
        ids.extend(self.g.iter().map(|s| s.id()));
        ids.extend([
            self.mu.id(),
            self.mum1.id(),
            self.out.id(),
            self.yhalf.id(),
            self.ysym.id(),
            self.yprev.id(),
            self.yh.id(),
            self.terr.id(),
            self.lp.id(),
            self.li.id(),
            self.lferr.id(),
            self.phase.id(),
            self.step_s.id(),
            self.ctr.id(),
            self.y.id(),
            self.serr.id(),
        ]);
        ids
    }
}

/// Sweep shard builder for the timing-recovery loop: every shard gets a
/// fresh design seeded with [`DESIGN_SEED`]; the scenario seed drives the
/// shaped-PAM source and the channel noise.
pub fn shard_builder(config: TimingConfig) -> Box<ShardBuilder> {
    Box::new(move |scenario: &Scenario| {
        let design = Design::with_seed(DESIGN_SEED);
        let rx = TimingRecovery::new(&design, &config);
        let (seed, snr_db, samples) = (scenario.seed, scenario.snr_db, scenario.samples);
        ShardSim {
            design,
            stimulus: Box::new(move |_d: &Design, _iter: usize| {
                rx.init();
                let mut src = ShapedPamSource::new(seed as u32 | 1, 0.35, 2, 0.3, 100.0);
                let mut noise = Awgn::from_snr_db(seed.wrapping_add(2), snr_db, 1.0);
                for _ in 0..samples {
                    rx.step(noise.add(src.next_sample()).clamp(-1.9, 1.9));
                }
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ShapedPamSource;

    #[test]
    fn golden_loop_acquires_timing() {
        let mut src = ShapedPamSource::new(21, 0.35, 2, 0.3, 0.0);
        let mut rx = TimingGolden::new(&TimingConfig::default());
        let mut decisions = Vec::new();
        let mut mus = Vec::new();
        for _ in 0..6000 {
            let s = rx.step(src.next_sample());
            if s.strobe {
                decisions.push((s.symbol_sample, s.decision));
                mus.push(s.mu);
            }
        }
        assert!(decisions.len() > 2500, "strobes: {}", decisions.len());
        // After acquisition the eye is open: |symbol_sample| near 1.
        let tail = &decisions[decisions.len() - 500..];
        let mean_eye: f64 = tail.iter().map(|(s, _)| s.abs()).sum::<f64>() / tail.len() as f64;
        assert!(mean_eye > 0.8, "eye {mean_eye}");
        // mu settles: circular standard deviation (mu wraps at 1) small.
        let mu_tail = &mus[mus.len() - 500..];
        let (s_sum, c_sum) = mu_tail.iter().fold((0.0f64, 0.0f64), |(s, c), m| {
            let a = 2.0 * std::f64::consts::PI * m;
            (s + a.sin(), c + a.cos())
        });
        let r = (s_sum * s_sum + c_sum * c_sum).sqrt() / mu_tail.len() as f64;
        let circ_std = (-2.0 * r.ln()).sqrt() / (2.0 * std::f64::consts::PI);
        assert!(circ_std < 0.1, "mu circular jitter {circ_std}");
    }

    #[test]
    fn golden_loop_tracks_clock_offset() {
        // 200 ppm clock offset: the integrator must pick it up.
        let mut src = ShapedPamSource::new(23, 0.35, 2, 0.1, 200.0);
        let mut rx = TimingGolden::new(&TimingConfig::default());
        let mut eye_tail = Vec::new();
        for i in 0..12000 {
            let s = rx.step(src.next_sample());
            if s.strobe && i > 9000 {
                eye_tail.push(s.symbol_sample.abs());
            }
        }
        let mean_eye: f64 = eye_tail.iter().sum::<f64>() / eye_tail.len() as f64;
        assert!(mean_eye > 0.75, "eye under clock offset {mean_eye}");
    }

    #[test]
    fn instrumented_declares_61_signals() {
        let d = Design::new();
        let rx = TimingRecovery::new(&d, &TimingConfig::default());
        assert_eq!(rx.signal_ids().len(), 61, "paper reports 61 signals");
        assert_eq!(d.num_signals(), 61);
    }

    #[test]
    fn instrumented_loop_acquires_like_golden() {
        let d = Design::new();
        let rx = TimingRecovery::new(&d, &TimingConfig::default());
        rx.init();
        let mut src = ShapedPamSource::new(21, 0.35, 2, 0.3, 0.0);
        let mut eye_tail = Vec::new();
        for i in 0..6000 {
            let s = rx.step(src.next_sample());
            if s.strobe && i > 4500 {
                eye_tail.push(s.symbol_sample.abs());
            }
        }
        assert!(!eye_tail.is_empty());
        let mean_eye: f64 = eye_tail.iter().sum::<f64>() / eye_tail.len() as f64;
        assert!(mean_eye > 0.8, "instrumented eye {mean_eye}");
        // Strobe rate is half the sample rate.
        let strobes = d.report_for(rx.y()).writes;
        assert!((2600..=3400).contains(&strobes), "strobes {strobes}");
    }

    #[test]
    fn phase_stays_in_unit_interval_and_decisions_are_binary() {
        let d = Design::new();
        let rx = TimingRecovery::new(&d, &TimingConfig::default());
        rx.init();
        let mut src = ShapedPamSource::new(29, 0.35, 2, 0.2, 0.0);
        for _ in 0..2000 {
            let s = rx.step(src.next_sample());
            let (ph, _) = d.peek(rx.phase().id());
            assert!((0.0..=1.0 + 1e-9).contains(&ph), "phase {ph}");
            if s.strobe {
                assert!(s.decision == 1.0 || s.decision == -1.0);
                assert!((0.0..1.0).contains(&s.mu), "mu {}", s.mu);
            }
        }
    }
}
