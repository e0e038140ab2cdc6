//! The hybrid fixed-point refinement engine — the primary contribution of
//! *"A Methodology and Design Environment for DSP ASIC Fixed Point
//! Refinement"* (Cmar, Rijnders, Schaumont, Vernalde, Bolsens — IMEC,
//! DATE 1999).
//!
//! Floating-point DSP algorithms must be refined to fixed-point types
//! before ASIC implementation. This crate decides, per signal and from the
//! monitoring data gathered by [`fixref_sim`], the two independent halves
//! of every fixed-point type:
//!
//! * **MSB side** ([`msb`]): the integer wordlength and overflow mode,
//!   by comparing the *statistic* (simulated min/max) and *propagated*
//!   (interval-arithmetic) ranges under the refinement rules of paper
//!   §5.1 — agree ⇒ non-saturated; propagation pessimistic/exploded ⇒
//!   saturate (with hardware guard range); otherwise a trade-off;
//! * **LSB side** ([`lsb`]): the fractional wordlength and rounding mode,
//!   from the dual-simulation error statistics under the rule
//!   `2^LSB ≤ k·σ` of paper §5.2, with divergence detection and the
//!   `error()` escape hatch for sensitive feedback signals.
//!
//! [`flow`] drives the whole refinement loop of paper Fig. 4 — simulate,
//! analyze, intervene (automatic `range()` / `error()` annotations),
//! re-simulate — typically converging in two MSB iterations plus one LSB
//! iteration, and finally applies the decided [`DType`](fixref_fixed::DType)s
//! back onto the design for verification.
//!
//! [`baseline`] implements the two families the paper positions itself
//! against: the pure *simulation-based* wordlength search (Sung & Kum) and
//! the pure *analytical* worst-case derivation (Willems et al.);
//! [`compare`] races all three on the same workload.
//!
//! # Example
//!
//! ```
//! use fixref_core::{RefinementFlow, RefinePolicy};
//! use fixref_sim::{Design, SignalRef};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Design::new();
//! let x = d.sig("x");
//! let y = d.sig("y");
//! x.range(-1.0, 1.0);
//!
//! let mut flow = RefinementFlow::new(d.clone(), RefinePolicy::default());
//! let outcome = flow.run(move |_, _| {
//!     for i in 0..256 {
//!         x.set((i as f64 * 0.1).sin());
//!         y.set(x.get() * 0.25);
//!     }
//! })?;
//! assert!(outcome.msb_iterations >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod checkpoint;
pub mod compare;
pub mod flow;
pub mod jobspec;
pub mod lsb;
pub mod msb;
pub mod policy;
pub mod precision;
pub mod report;
pub mod sweep;

pub use cache::{CachePlan, EvalCache};
pub use checkpoint::{CacheState, Checkpoint, CheckpointError, CheckpointStore, Cursor};
pub use flow::{
    CancelToken, FlowError, FlowOutcome, FlowStatus, Intervention, RefinementFlow, RunBudget,
    SequentialDriver, SimDriver, SimFault, SweepCoverage, VerifyOutcome,
};
pub use jobspec::{FlowSpec, JobSpec};
pub use lsb::{analyze_lsb, LsbAnalysis, LsbStatus};
pub use msb::{analyze_msb, MsbAnalysis, MsbDecision};
pub use policy::RefinePolicy;
pub use precision::{analyze_precision, render_precision_table, PrecisionCheck, PrecisionStatus};
pub use report::{lsb_table_csv, msb_table_csv, render_lsb_table, render_msb_table};
pub use sweep::{
    FaultMode, FaultPolicy, ShardBuilder, ShardSim, ShardStimulus, ShardSummary, SimBackend,
    SweepDriver,
};
