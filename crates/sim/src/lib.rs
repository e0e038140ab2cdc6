//! The design environment: a dual fixed-point/floating-point simulation
//! engine with range and error monitoring.
//!
//! This crate reproduces Sections 2–4 of *"A Methodology and Design
//! Environment for DSP ASIC Fixed Point Refinement"* (Cmar et al., DATE
//! 1999): a C++-style object-oriented hardware description layer in which
//! the *same* algorithm description simultaneously
//!
//! 1. executes a **fixed-point** simulation (quantization happens only at
//!    signal assignment, all arithmetic is floating point — paper §2.2),
//! 2. executes a **floating-point** reference simulation through the same
//!    control decisions (steered by the fixed-point path — paper §4.2),
//! 3. performs **range monitoring** (statistic min/max per signal) and
//!    **quasi-analytical range propagation** (interval arithmetic through
//!    every operator — paper §4.1),
//! 4. collects **error statistics** (`m̄`, `σ`, `|e|max` of the
//!    float-vs-fixed difference, both *consumed* and *produced* — paper
//!    §4.2, Fig. 3), and
//! 5. records a **signal-flow graph** for the fully *analytical* range
//!    estimation and for VHDL generation.
//!
//! # Vocabulary mapping
//!
//! | paper (C++)            | here (Rust)                                 |
//! |------------------------|---------------------------------------------|
//! | `sig a("a", T1);`      | `let a = d.sig_typed("a", t1);`             |
//! | `sig a("a");`          | `let a = d.sig("a");` (floating point)      |
//! | `reg b("b", T1);`      | `let b = d.reg_typed("b", t1);`             |
//! | `sigarray v("v", N);`  | `let v = d.sig_array("v", N);`              |
//! | `c = a * b;`           | `c.set(a.get() * b.get());`                 |
//! | `cast<T>(a*b)`         | `(a.get() * b.get()).cast(&t)`              |
//! | `a.range(-1.5, 1.5)`   | `a.range(-1.5, 1.5)`                        |
//! | `a.error(0.0156)`      | `a.error_sigma(...)` / `a.error_lsb(-6)`    |
//! | clock edge             | `d.tick()` (commits all `Reg` assignments)  |
//!
//! # Example: a quantized multiply-accumulate
//!
//! ```
//! use fixref_fixed::DType;
//! use fixref_sim::Design;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Design::new();
//! let t: DType = "<8,6,tc,st,rd>".parse()?;
//! let x = d.sig_typed("x", t.clone());
//! let acc = d.sig("acc"); // still floating point
//!
//! for i in 0..100 {
//!     x.set((i as f64 * 0.11).sin());
//!     acc.set(acc.get() + x.get() * 0.5);
//! }
//!
//! let report = d.report_for(&x);
//! assert_eq!(report.writes, 100);
//! assert!(report.stat.max() <= 1.0);
//! // The dual simulation tracked the input-quantization error:
//! assert!(d.report_for(&acc).produced.std() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! The engine is deliberately single-threaded per [`Design`] (handles are
//! `Rc`-based and not `Send`), matching the sequential semantics of the
//! paper's simulation engine; run independent designs on independent
//! threads for parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod design;
pub mod fault;
pub mod graph;
pub mod netlist;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod tape;
pub mod trace;
pub mod value;

pub use analyze::{analyze_ranges, analyze_ranges_affine, AnalyzeOptions, RangeAnalysis};
pub use design::{
    Design, OverflowEvent, Reg, RegArray, Sig, SigArray, SignalAnnotation, SignalId, SignalKind,
    SignalRef, SignalStats, UnknownSignalError,
};
pub use fault::FaultPlan;
pub use graph::{Graph, NodeId, Op};
pub use netlist::{Assignment, Netlist, Role};
pub use pool::{
    run_shards, run_shards_isolated, shard_count_from_env, RetryPolicy, ShardError, ShardFailure,
    ShardOutcome,
};
pub use report::SignalReport;
pub use scenario::{Scenario, ScenarioSet};
pub use spec::{
    scenario_set_from_json, scenario_set_from_value, scenario_set_to_json, DesignSpec, SpecError,
};
pub use tape::{
    BoundTrace, CompiledProgram, CycleKind, ExecTrace, InputSample, Instr, Segment, TraceStep,
};
pub use trace::Trace;
pub use value::Value;
