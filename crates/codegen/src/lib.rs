//! VHDL back-end for refined fixed-point designs.
//!
//! The paper's design environment closes the loop to hardware: "a code
//! generator enables translation of the cycle true C description to
//! synthesizable VHDL" (§2). This crate implements that code generator for
//! the Rust environment: given a [`Design`](fixref_sim::Design) whose
//! signals carry decided [`DType`](fixref_fixed::DType)s and the
//! signal-flow graph recorded during simulation, it emits a synthesizable
//! VHDL-93 entity:
//!
//! * every signal becomes a `signed` vector of its decided wordlength;
//! * wires become concurrent expressions built from the graph, with
//!   bit-exact alignment (`lsb` shifts), rounding and overflow handling
//!   (saturate / wrap) folded into each assignment;
//! * registers become one clocked process with synchronous reset;
//! * externally-driven signals (no definition in the graph) become input
//!   ports; caller-designated signals become output ports.
//!
//! The generator is deliberately structural — one VHDL statement per
//! recorded definition — so the emitted text audits 1:1 against the
//! simulated dataflow.
//!
//! # Example
//!
//! ```
//! use fixref_codegen::{generate_vhdl, VhdlOptions};
//! use fixref_fixed::DType;
//! use fixref_sim::{Design, SignalRef};
//!
//! # fn main() -> Result<(), fixref_codegen::CodegenError> {
//! let d = Design::new();
//! let t: DType = "<8,6,tc,st,rd>".parse().expect("valid dtype");
//! let x = d.sig_typed("x", t.clone());
//! let y = d.sig_typed("y", t);
//! d.record_graph(true);
//! for i in 0..4 {
//!     x.set(0.1 * i as f64); // externally driven -> inferred input port
//!     y.set(x.get() * 0.5 + 0.125);
//! }
//!
//! let vhdl = generate_vhdl(&d, &[y.id()], &VhdlOptions::named("scaler"))?;
//! assert!(vhdl.contains("entity scaler is"));
//! assert!(vhdl.contains("x : in  signed(7 downto 0)"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Runs `f` inside a named span on the design's attached recorder (if
/// any), so cost estimation and VHDL emission show up in the same
/// metrics report as the refinement flow that produced the design.
pub(crate) fn observed<T>(design: &fixref_sim::Design, name: &str, f: impl FnOnce() -> T) -> T {
    match design.recorder() {
        Some(rec) => {
            let span = rec.span_begin(name);
            let out = f();
            rec.span_end(span, 0);
            out
        }
        None => f(),
    }
}

pub mod cost;
pub mod expr;
pub mod format;
pub mod interp;
pub mod testbench;
pub mod vhdl;

pub use cost::{estimate_cost, CostEstimate};
pub use expr::CodegenError;
pub use interp::RtlInterpreter;
pub use testbench::generate_testbench;
pub use vhdl::{generate_vhdl, VhdlOptions};
