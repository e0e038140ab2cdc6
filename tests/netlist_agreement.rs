//! Agreement of the three bit-true executions of a recorded design: the
//! simulator that recorded the graph, the RTL interpreter and the model
//! checker's transition function.
//!
//! The interpreter and `Model::step` share one netlist (signal roles, wire
//! order and definition evaluation), so they agree with each other by
//! construction. These seeded properties check that the netlist also
//! agrees with the simulator, cycle by cycle, on random typed designs:
//! bit-equal signal values and register mantissas on every cycle, and the
//! model's overflow reports adding up to the simulator's per-signal
//! overflow counts.

use std::collections::HashMap;

use fixref::codegen::RtlInterpreter;
use fixref::fixed::{DType, OverflowMode, Rng64, RoundingMode, Signedness};
use fixref::lint::LintInput;
use fixref::sim::{Design, Reg, Sig, SignalId, SignalRef, Value};
use fixref::verify::{Model, ModelLimits};

/// Cycles recorded into the graph before the comparison starts.
const RECORD_CYCLES: usize = 8;
/// Cycles compared across the three executions.
const CYCLES: usize = 48;

/// An expression over the design's signals; its shape is fixed per seed,
/// so every signal records exactly one definition.
enum Expr {
    Const(f64),
    /// A read of the signal at this index of the design's handle list.
    Read(usize),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Abs(Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
    /// Division by a nonzero constant.
    Div(Box<Expr>, f64),
    Cast(DType, Box<Expr>),
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

enum Handle {
    Sig(Sig),
    Reg(Reg),
}

impl Handle {
    fn id(&self) -> SignalId {
        match self {
            Handle::Sig(s) => s.id(),
            Handle::Reg(r) => r.id(),
        }
    }

    fn get(&self) -> Value {
        match self {
            Handle::Sig(s) => s.get(),
            Handle::Reg(r) => r.get(),
        }
    }

    fn set(&self, v: Value) {
        match self {
            Handle::Sig(s) => s.set(v),
            Handle::Reg(r) => r.set(v),
        }
    }
}

impl Expr {
    fn eval(&self, handles: &[Handle]) -> Value {
        let b = |e: &Expr| e.eval(handles);
        match self {
            Expr::Const(c) => Value::from(*c),
            Expr::Read(i) => handles[*i].get(),
            Expr::Add(x, y) => b(x) + b(y),
            Expr::Sub(x, y) => b(x) - b(y),
            Expr::Mul(x, y) => b(x) * b(y),
            Expr::Neg(x) => -b(x),
            Expr::Abs(x) => b(x).abs(),
            Expr::Min(x, y) => b(x).min(b(y)),
            Expr::Max(x, y) => b(x).max(b(y)),
            Expr::Div(x, c) => b(x) / *c,
            Expr::Cast(dt, x) => b(x).cast(dt),
            Expr::Select(c, x, y) => b(c).select_positive(b(x), b(y)),
        }
    }

    /// A random expression of at most `depth` operator levels whose reads
    /// come from `readable`.
    fn random(rng: &mut Rng64, readable: &[usize], depth: u32) -> Expr {
        let leaf = depth == 0 || rng.below(4) == 0;
        if leaf {
            return if readable.is_empty() || rng.below(4) == 0 {
                Expr::Const(rng.symmetric(2.0))
            } else {
                Expr::Read(readable[rng.below(readable.len() as u64) as usize])
            };
        }
        let op = rng.below(11);
        let mut sub = || Box::new(Expr::random(rng, readable, depth - 1));
        match op {
            0 => Expr::Add(sub(), sub()),
            1 => Expr::Sub(sub(), sub()),
            2 => Expr::Mul(sub(), sub()),
            3 => Expr::Neg(sub()),
            4 => Expr::Abs(sub()),
            5 => Expr::Min(sub(), sub()),
            6 => Expr::Max(sub(), sub()),
            7 => {
                let x = sub();
                let c = rng.uniform(0.5, 3.0);
                Expr::Div(x, if rng.below(2) == 0 { c } else { -c })
            }
            8 => {
                let x = sub();
                Expr::Cast(random_dtype(rng, "cast", 12), x)
            }
            _ => Expr::Select(sub(), sub(), sub()),
        }
    }
}

/// A random `<n,f,tc|ns,wp|st|er,rd|fl>` type with at most `max_n` bits.
fn random_dtype(rng: &mut Rng64, name: &str, max_n: u64) -> DType {
    let n = 2 + rng.below(max_n - 1) as i32;
    let f = rng.below(n as u64) as i32;
    let signedness = [Signedness::TwosComplement, Signedness::Unsigned][rng.below(2) as usize];
    let overflow = [
        OverflowMode::Wrap,
        OverflowMode::Saturate,
        OverflowMode::Error,
    ][rng.below(3) as usize];
    let rounding = [RoundingMode::Round, RoundingMode::Floor][rng.below(2) as usize];
    DType::new(name, n, f, signedness, overflow, rounding).expect("generated type is valid")
}

/// A representable value of `dt`, so driving an input never overflows.
fn representable(rng: &mut Rng64, dt: &DType) -> f64 {
    let span = (dt.max_mantissa() - dt.min_mantissa() + 1) as u64;
    (dt.min_mantissa() + rng.below(span) as i64) as f64 * dt.resolution()
}

/// A seeded random design: typed inputs plus typed wires and registers,
/// each assigned once per cycle in `program` order. A wire or register
/// reads inputs, registers and the wires assigned before it, so the
/// simulator's program order is one valid evaluation order of the
/// netlist. Signals are declared in shuffled order, so signal ids do not
/// follow the program order.
struct RandomDesign {
    design: Design,
    handles: Vec<Handle>,
    /// Indices of the inputs in `handles`, and their types.
    inputs: Vec<(usize, DType)>,
    /// Assignments in program order: handle index and expression.
    program: Vec<(usize, Expr)>,
}

impl RandomDesign {
    fn generate(seed: u64) -> RandomDesign {
        let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0A11);
        let n_inputs = 1 + rng.below(2) as usize;
        let n_assigned = 2 + rng.below(5) as usize;
        let total = n_inputs + n_assigned;
        // Handle k is the signal with the k-th smallest id; `pick[k]`
        // decides what it is: an input below `n_inputs`, else its
        // position in the program.
        let mut pick: Vec<usize> = (0..total).collect();
        for i in (1..total).rev() {
            pick.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let design = Design::with_seed(seed);
        let mut handles = Vec::with_capacity(total);
        let mut inputs = Vec::new();
        let mut assigned = Vec::new();
        for (k, &role) in pick.iter().enumerate() {
            let name = format!("s{k}");
            if role < n_inputs {
                let dt = random_dtype(&mut rng, &name, 6);
                inputs.push((k, dt.clone()));
                handles.push(Handle::Sig(design.sig_typed(&name, dt)));
            } else {
                let dt = random_dtype(&mut rng, &name, 12);
                let handle = if rng.below(2) == 0 {
                    Handle::Sig(design.sig_typed(&name, dt))
                } else {
                    Handle::Reg(design.reg_typed(&name, dt))
                };
                assigned.push((role, k));
                handles.push(handle);
            }
        }
        assigned.sort();
        let mut program = Vec::with_capacity(n_assigned);
        let mut readable: Vec<usize> = inputs.iter().map(|&(k, _)| k).collect();
        readable.extend(
            assigned
                .iter()
                .filter(|&&(_, k)| matches!(handles[k], Handle::Reg(_)))
                .map(|&(_, k)| k),
        );
        for &(_, k) in &assigned {
            let expr = Expr::random(&mut rng, &readable, 3);
            if matches!(handles[k], Handle::Sig(_)) {
                readable.push(k);
            }
            program.push((k, expr));
        }
        RandomDesign {
            design,
            handles,
            inputs,
            program,
        }
    }

    /// One simulator cycle: drive the inputs, run the program, tick.
    fn cycle(&self, drive: &[f64]) {
        for (&(k, _), &v) in self.inputs.iter().zip(drive) {
            self.handles[k].set(Value::from(v));
        }
        for (k, expr) in &self.program {
            self.handles[*k].set(expr.eval(&self.handles));
        }
        self.design.tick();
    }

    fn random_drive(&self, rng: &mut Rng64) -> Vec<f64> {
        self.inputs
            .iter()
            .map(|(_, dt)| representable(rng, dt))
            .collect()
    }
}

#[test]
fn simulator_interpreter_and_model_agree_bit_for_bit() {
    let mut registers_seen = 0;
    let mut wires_seen = 0;
    let mut overflows_seen = 0;
    for seed in 0..64u64 {
        let rd = RandomDesign::generate(seed);
        let d = &rd.design;
        let mut rng = Rng64::seed_from_u64(seed + 0x5EED);

        // Record, with every input driven by at least two values so it
        // records as an input port.
        d.record_graph(true);
        for i in 0..RECORD_CYCLES {
            let drive: Vec<f64> = rd
                .inputs
                .iter()
                .map(|(_, dt)| match i {
                    0 => dt.min_value(),
                    1 => dt.max_value(),
                    _ => representable(&mut rng, dt),
                })
                .collect();
            rd.cycle(&drive);
        }
        d.record_graph(false);
        d.reset_state();
        d.reset_stats();

        let graph = d.graph();
        let mut rtl = RtlInterpreter::new(d, &graph)
            .unwrap_or_else(|e| panic!("seed {seed}: interpreter rejects the design: {e}"));
        let mut input_ids: Vec<SignalId> =
            rd.inputs.iter().map(|&(k, _)| rd.handles[k].id()).collect();
        input_ids.sort();
        assert_eq!(rtl.inputs(), input_ids, "seed {seed}: inferred inputs");

        let all: Vec<SignalId> = rd.handles.iter().map(Handle::id).collect();
        let limits = ModelLimits {
            max_alphabet: 1 << 12,
            max_branching: 1 << 24,
        };
        let model = Model::extract(&LintInput::from_design(d), &all, &limits)
            .unwrap_or_else(|e| panic!("seed {seed}: model extraction fails: {e:?}"));
        assert_eq!(model.inputs.len(), rd.inputs.len(), "seed {seed}");
        registers_seen += model.registers.len();
        wires_seen += model.wires.len();

        let mut state = model.initial_state();
        let mut model_overflows: HashMap<String, u64> = HashMap::new();
        for cycle in 0..CYCLES {
            let drive = rd.random_drive(&mut rng);
            rd.cycle(&drive);

            for (&(k, _), &v) in rd.inputs.iter().zip(&drive) {
                rtl.set_input(rd.handles[k].id(), v);
            }
            rtl.step();
            rtl.tick();

            let model_inputs: Vec<f64> = model
                .inputs
                .iter()
                .map(|input| {
                    let k = rd
                        .inputs
                        .iter()
                        .position(|&(k, _)| rd.handles[k].id() == input.id)
                        .expect("model input is a design input");
                    drive[k]
                })
                .collect();
            let out = model.step(&state, &model_inputs);
            for name in out.overflows {
                *model_overflows.entry(name).or_insert(0) += 1;
            }
            state = out.next;

            for h in &rd.handles {
                let (_, sim) = d.peek(h.id());
                assert_eq!(
                    rtl.value(h.id()).to_bits(),
                    sim.to_bits(),
                    "seed {seed} cycle {cycle}: {} interpreter {} vs simulator {sim}",
                    d.name_of(h.id()),
                    rtl.value(h.id())
                );
            }
            for ((name, model_value), reg) in
                model.state_values(&state).into_iter().zip(&model.registers)
            {
                let (_, sim) = d.peek(reg.id);
                assert_eq!(
                    model_value.to_bits(),
                    sim.to_bits(),
                    "seed {seed} cycle {cycle}: register {name} model {model_value} vs simulator {sim}"
                );
            }
        }

        for h in &rd.handles {
            let report = d.report_by_id(h.id());
            let model_count = model_overflows.get(&report.name).copied().unwrap_or(0);
            assert_eq!(
                model_count, report.overflows,
                "seed {seed}: overflow count of {}",
                report.name
            );
            overflows_seen += report.overflows;
        }
    }
    // The generator must exercise what the property claims.
    assert!(
        registers_seen > 0 && wires_seen > 0,
        "no registers or no wires"
    );
    assert!(overflows_seen > 0, "no overflow was ever compared");
}

/// Wires `a`, `b`, `c`, declared in that order, where `a` reads `b`: the
/// model checker evaluates them in Kahn's order, smallest id first. The
/// verify goldens name the first overflow in this order.
#[test]
fn model_wires_keep_kahn_order_smallest_id_first() {
    let t: DType = "<8,6,tc,st,rd>".parse().expect("valid");
    let d = Design::new();
    let a = d.sig_typed("a", t.clone());
    let b = d.sig_typed("b", t.clone());
    let c = d.sig_typed("c", t.clone());
    let x = d.sig_typed("x", t);
    d.record_graph(true);
    for v in [0.25, -0.5] {
        x.set(v);
        b.set(x.get() * 0.5);
        c.set(x.get() + 0.125);
        a.set(b.get() - 0.25);
    }
    d.record_graph(false);
    let limits = ModelLimits {
        max_alphabet: 1 << 12,
        max_branching: 1 << 12,
    };
    let model = Model::extract(
        &LintInput::from_design(&d),
        &[a.id(), b.id(), c.id()],
        &limits,
    )
    .expect("extracts");
    let order: Vec<&str> = model.wires.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(order, ["b", "a", "c"]);
}
