//! Top-level VHDL entity generation.

use std::fmt::Write as _;

use fixref_sim::{Design, Role, SignalId};

use crate::expr::{vhdl_name, CodegenError, ExprGen};
use crate::format::Fmt;

/// Options for [`generate_vhdl`].
#[derive(Debug, Clone)]
pub struct VhdlOptions {
    /// Entity name.
    pub entity: String,
    /// Clock port name (emitted only when the design has registers).
    pub clock: String,
    /// Synchronous-reset port name.
    pub reset: String,
    /// Resolution (LSB position) used to encode literal constants.
    pub const_lsb: i32,
    /// Signals to force-classify as input ports, in addition to the
    /// signals whose [`Role`] is `Input`.
    pub inputs: Vec<SignalId>,
}

impl VhdlOptions {
    /// Defaults with the given entity name: `clk`/`rst` ports, constants
    /// at 2^-14 resolution.
    pub fn named(entity: impl Into<String>) -> Self {
        VhdlOptions {
            entity: entity.into(),
            clock: "clk".to_string(),
            reset: "rst".to_string(),
            const_lsb: -14,
            inputs: Vec::new(),
        }
    }

    /// Adds an explicit input port.
    pub fn with_input(mut self, id: SignalId) -> Self {
        self.inputs.push(id);
        self
    }
}

/// Generates a synthesizable VHDL entity from the design's recorded
/// signal-flow graph and decided types.
///
/// `outputs` lists the signals exposed as output ports. Every signal is
/// declared by its netlist [`Role`]: input ports are the `Input` signals
/// plus [`VhdlOptions::inputs`], wires become concurrent assignments,
/// registers one clocked process; `Unused` signals are left out.
///
/// # Errors
///
/// * [`CodegenError::UntypedSignal`] — a signal in the emitted dataflow
///   has no decided type;
/// * [`CodegenError::MissingDefinition`] — a requested output was never
///   assigned while recording;
/// * [`CodegenError::MultipleDefinitions`] — a signal's role is
///   [`Role::Conditional`] (restructure with `select_positive`);
/// * [`CodegenError::UnsupportedOp`] — e.g. division by a non-constant.
pub fn generate_vhdl(
    design: &Design,
    outputs: &[SignalId],
    options: &VhdlOptions,
) -> Result<String, CodegenError> {
    crate::observed(design, "codegen.generate_vhdl", || {
        generate_vhdl_impl(design, outputs, options)
    })
}

fn generate_vhdl_impl(
    design: &Design,
    outputs: &[SignalId],
    options: &VhdlOptions,
) -> Result<String, CodegenError> {
    let graph = design.graph();
    let mut roles = Role::all(design, &graph);
    for (i, role) in roles.iter_mut().enumerate() {
        let id = SignalId::from_raw(i as u32);
        if options.inputs.contains(&id) {
            *role = Role::Input;
        } else if *role == Role::Conditional {
            return Err(CodegenError::MultipleDefinitions {
                name: design.name_of(id),
            });
        }
    }
    for &out in outputs {
        if matches!(roles.get(out.raw() as usize), Some(Role::Unused) | None) {
            return Err(CodegenError::MissingDefinition {
                name: design.name_of(out),
            });
        }
    }

    let gen = ExprGen {
        design,
        graph: &graph,
        const_lsb: options.const_lsb,
    };

    // Collect port and internal declarations.
    let mut inputs: Vec<(SignalId, String, Fmt)> = Vec::new();
    let mut wires: Vec<(SignalId, String, Fmt)> = Vec::new();
    let mut registers: Vec<(SignalId, String, Fmt)> = Vec::new();
    for (i, role) in roles.iter().enumerate() {
        let id = SignalId::from_raw(i as u32);
        let bucket = match role {
            Role::Input => &mut inputs,
            Role::Wire(_) => &mut wires,
            Role::Register(_) => &mut registers,
            Role::Conditional | Role::Unused => continue,
        };
        let (name, fmt, _) = gen.signal_fmt(id)?;
        bucket.push((id, name, fmt));
    }

    let has_registers = !registers.is_empty();
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(
        w,
        "-- Generated by fixref-codegen from the recorded signal-flow graph."
    );
    let _ = writeln!(
        w,
        "-- Formats are the refinement flow's decided fixed-point types."
    );
    let _ = writeln!(w, "library ieee;");
    let _ = writeln!(w, "use ieee.std_logic_1164.all;");
    let _ = writeln!(w, "use ieee.numeric_std.all;");
    let _ = writeln!(w);
    let _ = writeln!(w, "entity {} is", options.entity);
    let _ = writeln!(w, "  port (");
    let mut ports: Vec<String> = Vec::new();
    if has_registers {
        ports.push(format!("    {} : in  std_logic", options.clock));
        ports.push(format!("    {} : in  std_logic", options.reset));
    }
    for (_, name, fmt) in &inputs {
        ports.push(format!(
            "    {name} : in  signed({} downto 0)  -- lsb 2^{}",
            fmt.width() - 1,
            fmt.lsb
        ));
    }
    for &oid in outputs {
        let (name, fmt, _) = gen.signal_fmt(oid)?;
        ports.push(format!(
            "    {name}_o : out signed({} downto 0)  -- lsb 2^{}",
            fmt.width() - 1,
            fmt.lsb
        ));
    }
    // Join ports with ';' while keeping trailing comments intact.
    for (i, p) in ports.iter().enumerate() {
        let (code, comment) = match p.find("--") {
            Some(pos) => (p[..pos].trim_end(), &p[pos..]),
            None => (p.trim_end(), ""),
        };
        let sep = if i + 1 == ports.len() { "" } else { ";" };
        if comment.is_empty() {
            let _ = writeln!(w, "{code}{sep}");
        } else {
            let _ = writeln!(w, "{code}{sep}  {comment}");
        }
    }
    let _ = writeln!(w, "  );");
    let _ = writeln!(w, "end entity {};", options.entity);
    let _ = writeln!(w);
    let _ = writeln!(w, "architecture rtl of {} is", options.entity);
    let _ = writeln!(w, "{}", HELPERS);

    for (_, name, fmt) in wires.iter().chain(&registers) {
        let _ = writeln!(
            w,
            "  signal {name} : signed({} downto 0) := (others => '0');  -- lsb 2^{}",
            fmt.width() - 1,
            fmt.lsb
        );
    }
    let _ = writeln!(w, "begin");

    // Concurrent wire assignments.
    for (id, name, _) in &wires {
        let (code, fmt) = gen.emit(graph.defs(*id)[0])?;
        let (_, target, dtype) = gen.signal_fmt(*id)?;
        let rhs = gen.quantize(&code, fmt, target, &dtype);
        let _ = writeln!(w, "  {name} <= {rhs};");
    }

    // One clocked process for all registers.
    if has_registers {
        let _ = writeln!(w);
        let _ = writeln!(w, "  regs : process ({})", options.clock);
        let _ = writeln!(w, "  begin");
        let _ = writeln!(w, "    if rising_edge({}) then", options.clock);
        let _ = writeln!(w, "      if {} = '1' then", options.reset);
        for (_, name, _) in &registers {
            let _ = writeln!(w, "        {name} <= (others => '0');");
        }
        let _ = writeln!(w, "      else");
        for (id, name, _) in &registers {
            let (code, fmt) = gen.emit(graph.defs(*id)[0])?;
            let (_, target, dtype) = gen.signal_fmt(*id)?;
            let rhs = gen.quantize(&code, fmt, target, &dtype);
            let _ = writeln!(w, "        {name} <= {rhs};");
        }
        let _ = writeln!(w, "      end if;");
        let _ = writeln!(w, "    end if;");
        let _ = writeln!(w, "  end process regs;");
    }

    // Output port drives.
    let _ = writeln!(w);
    for &oid in outputs {
        let name = vhdl_name(&design.name_of(oid));
        let _ = writeln!(w, "  {name}_o <= {name};");
    }
    let _ = writeln!(w, "end architecture rtl;");
    Ok(out)
}

/// Helper functions emitted into every architecture.
const HELPERS: &str = r#"  -- Requantize: round (half up) while shifting right by sh, then fit
  -- into w bits with saturation (sat) or two's-complement wrap.
  function f_quant(a : signed; sh : natural; w : positive;
                   sat : boolean; rnd : boolean) return signed is
    constant ew : integer := a'length + w + 2;
    variable ext : signed(ew - 1 downto 0);
    variable vmax : signed(w - 1 downto 0);
    variable vmin : signed(w - 1 downto 0);
  begin
    ext := resize(a, ew);
    if rnd and sh > 0 then
      ext := ext + shift_left(to_signed(1, ew), sh - 1);
    end if;
    ext := shift_right(ext, sh);
    vmax := (others => '1');
    vmax(w - 1) := '0';
    vmin := (others => '0');
    vmin(w - 1) := '1';
    if sat then
      if ext > resize(vmax, ew) then
        return vmax;
      end if;
      if ext < resize(vmin, ew) then
        return vmin;
      end if;
    end if;
    return ext(w - 1 downto 0);
  end function;

  function f_min(a, b : signed) return signed is
  begin
    if a < b then return a; else return b; end if;
  end function;

  function f_max(a, b : signed) return signed is
  begin
    if a > b then return a; else return b; end if;
  end function;

  function f_sel(c : boolean; a, b : signed) return signed is
  begin
    if c then return a; else return b; end if;
  end function;
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::DType;
    use fixref_sim::SignalRef;

    fn tc(n: i32, f: i32) -> DType {
        format!("<{n},{f},tc,st,rd>").parse().unwrap()
    }

    /// A small design: input -> scaled wire -> register -> slicer select.
    fn build() -> (Design, Vec<SignalId>) {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let g = d.sig_typed("gain", tc(10, 8));
        let r = d.reg_typed("acc", tc(12, 8));
        let y = d.sig_typed("y", tc(2, 0));
        d.record_graph(true);
        for i in 0..4 {
            x.set(0.1 * i as f64); // several const defs -> input port
            g.set(x.get() * 0.75);
            r.set(r.get() + g.get());
            y.set(
                r.get()
                    .select_positive(fixref_sim::Value::from(1.0), fixref_sim::Value::from(-1.0)),
            );
            d.tick();
        }
        let outs = vec![y.id(), r.id()];
        (d, outs)
    }

    #[test]
    fn generates_full_entity() {
        let (d, outs) = build();
        let vhdl = generate_vhdl(&d, &outs, &VhdlOptions::named("demo")).unwrap();
        // Structure.
        assert!(vhdl.contains("entity demo is"));
        assert!(vhdl.contains("architecture rtl of demo"));
        assert!(vhdl.contains("end architecture rtl;"));
        // Ports: clock/reset (register present), input x, outputs.
        assert!(vhdl.contains("clk : in  std_logic"));
        assert!(vhdl.contains("rst : in  std_logic"));
        assert!(vhdl.contains("x : in  signed(7 downto 0)"), "{vhdl}");
        assert!(vhdl.contains("y_o : out signed(1 downto 0)"));
        assert!(vhdl.contains("acc_o : out signed(11 downto 0)"));
        // Register process with reset.
        assert!(vhdl.contains("rising_edge(clk)"));
        assert!(vhdl.contains("acc <= "));
        assert!(vhdl.contains("(others => '0')"));
        // Select lowers to f_sel, quantization to f_quant.
        assert!(vhdl.contains("f_sel("));
        assert!(vhdl.contains("f_quant("));
        // Output drives.
        assert!(vhdl.contains("y_o <= y;"));
    }

    #[test]
    fn generation_is_deterministic() {
        let (d1, o1) = build();
        let (d2, o2) = build();
        let a = generate_vhdl(&d1, &o1, &VhdlOptions::named("demo")).unwrap();
        let b = generate_vhdl(&d2, &o2, &VhdlOptions::named("demo")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn untyped_signal_reported() {
        let d = Design::new();
        let x = d.sig("x"); // floating
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        x.set(0.1);
        x.set(0.2);
        y.set(x.get() + 1.0);
        let err = generate_vhdl(&d, &[y.id()], &VhdlOptions::named("t")).unwrap_err();
        assert!(matches!(err, CodegenError::UntypedSignal { .. }));
    }

    #[test]
    fn missing_output_definition_reported() {
        let d = Design::new();
        let _x = d.sig_typed("x", tc(8, 6));
        let dead = d.sig_typed("dead", tc(8, 6));
        d.record_graph(true);
        let err = generate_vhdl(&d, &[dead.id()], &VhdlOptions::named("t")).unwrap_err();
        assert!(matches!(err, CodegenError::MissingDefinition { .. }));
    }

    #[test]
    fn multiple_definitions_reported() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        x.set(0.1);
        x.set(0.2);
        // Two structurally different defs of y.
        y.set(x.get() + 1.0);
        y.set(x.get() * 2.0);
        let err = generate_vhdl(&d, &[y.id()], &VhdlOptions::named("t")).unwrap_err();
        assert!(matches!(err, CodegenError::MultipleDefinitions { .. }));
    }

    #[test]
    fn combinational_design_has_no_clock() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        x.set(0.1);
        x.set(0.2);
        y.set(x.get() * 0.5);
        let vhdl = generate_vhdl(&d, &[y.id()], &VhdlOptions::named("comb")).unwrap();
        assert!(!vhdl.contains("clk"));
        assert!(!vhdl.contains("process"));
        assert!(vhdl.contains("y <= "));
    }

    #[test]
    fn single_const_def_becomes_internal_constant_wire() {
        let d = Design::new();
        let c = d.sig_typed("c0", tc(8, 6));
        let x = d.sig_typed("x", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        c.set(-0.11); // one const def: a coefficient, not a port
        x.set(0.1);
        x.set(0.2);
        y.set(x.get() * c.get());
        let vhdl = generate_vhdl(&d, &[y.id()], &VhdlOptions::named("t")).unwrap();
        assert!(!vhdl.contains("c0 : in"), "{vhdl}");
        assert!(vhdl.contains("c0 <= "), "{vhdl}");
    }

    #[test]
    fn explicit_inputs_override_inference() {
        let d = Design::new();
        let c = d.sig_typed("cfg", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        c.set(0.25); // would be a constant wire by inference
        y.set(c.get() * 2.0);
        let opts = VhdlOptions::named("t").with_input(c.id());
        let vhdl = generate_vhdl(&d, &[y.id()], &opts).unwrap();
        assert!(vhdl.contains("cfg : in  signed"), "{vhdl}");
    }

    #[test]
    fn balanced_structure_tokens() {
        let (d, outs) = build();
        let vhdl = generate_vhdl(&d, &outs, &VhdlOptions::named("demo")).unwrap();
        let count = |needle: &str| vhdl.matches(needle).count();
        assert_eq!(count("entity "), 2); // decl + end
        assert_eq!(count("architecture "), 2);
        assert_eq!(count("process"), 2); // open + end
                                         // Every opened paren closes.
        let opens = vhdl.chars().filter(|&c| c == '(').count();
        let closes = vhdl.chars().filter(|&c| c == ')').count();
        assert_eq!(opens, closes);
    }
}
