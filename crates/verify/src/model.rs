//! Finite-state model extraction from a lint snapshot.
//!
//! The checker works on the *cone of influence* of a diagnostic: the
//! flagged signals plus everything they transitively read. Each cone
//! signal takes its [`Role`] from the netlist the RTL back-end shares:
//!
//! * an **input** — its fixed-point type gives a finite alphabet to
//!   enumerate;
//! * a **register** — one i64 mantissa in the state vector, reset to 0
//!   like the simulator;
//! * a **wire** — re-evaluated every tick in the netlist's wire order.
//!
//! Anything that breaks the classification (an untyped register, an input
//! too wide to enumerate, a conditionally written signal, a combinational
//! cycle) aborts extraction with a [`ModelError`] that the verifier
//! reports honestly as `Verdict::Unknown`.

use std::cell::RefCell;

use fixref_fixed::{quantize, DType};
use fixref_lint::LintInput;
use fixref_sim::{Netlist, NodeId, Role, SignalId};

/// Why a design (cone) could not be turned into a finite-state model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A register in the cone has no fixed-point type: its state is a
    /// full f64 and the explicit-state space is unbounded.
    StateTooLarge {
        /// The untyped register.
        signal: String,
    },
    /// An input in the cone has no fixed-point type, so its alphabet is
    /// the continuum.
    UntypedInput {
        /// The untyped input.
        signal: String,
    },
    /// A typed input has more representable values than the checker is
    /// allowed to enumerate.
    AlphabetTooLarge {
        /// The wide input.
        signal: String,
        /// Its number of representable values.
        size: u64,
    },
    /// The product of all input alphabets exceeds the per-state
    /// branching budget.
    BranchingTooLarge {
        /// Product of the input alphabet sizes.
        product: u64,
    },
    /// A signal has several structurally distinct non-constant
    /// definitions — Rust-level control flow the graph cannot see.
    MultipleDefinitions {
        /// The multiply-defined signal.
        signal: String,
    },
    /// Wires feed each other with no register in the loop.
    CombinationalCycle,
    /// The diagnostic's anchor signals do not appear in the snapshot.
    EmptyScope,
}

impl ModelError {
    /// The stable reason tag rendered inside `Verdict::Unknown`.
    pub fn reason(&self) -> String {
        match self {
            ModelError::StateTooLarge { .. } => "state_too_large".to_string(),
            ModelError::UntypedInput { .. } => "untyped_input".to_string(),
            ModelError::AlphabetTooLarge { .. } => "input_alphabet_too_large".to_string(),
            ModelError::BranchingTooLarge { .. } => "branching_too_large".to_string(),
            ModelError::MultipleDefinitions { .. } => "multiple_definitions".to_string(),
            ModelError::CombinationalCycle => "combinational_cycle".to_string(),
            ModelError::EmptyScope => "empty_scope".to_string(),
        }
    }
}

/// A state-holding register of the model.
#[derive(Debug, Clone)]
pub struct RegVar {
    /// The signal.
    pub id: SignalId,
    /// Its name.
    pub name: String,
    /// Its fixed-point type (mandatory: the mantissa is the state).
    pub dtype: DType,
    /// The definition evaluated each tick for the next value.
    pub def: NodeId,
}

/// A combinational signal of the model.
#[derive(Debug, Clone)]
pub struct WireVar {
    /// The signal.
    pub id: SignalId,
    /// Its name.
    pub name: String,
    /// Its fixed-point type, if refined (untyped wires stay float).
    pub dtype: Option<DType>,
    /// The definition evaluated each tick.
    pub def: NodeId,
}

/// A free input of the model with its enumerable alphabet.
#[derive(Debug, Clone)]
pub struct InputVar {
    /// The signal.
    pub id: SignalId,
    /// Its name.
    pub name: String,
    /// Its fixed-point type.
    pub dtype: DType,
    /// Every representable value, ascending — the branching alphabet.
    pub alphabet: Vec<f64>,
}

/// Extraction limits (mirrors the caller-facing `VerifyOptions`).
#[derive(Debug, Clone, Copy)]
pub struct ModelLimits {
    /// Maximum representable values per input.
    pub max_alphabet: u64,
    /// Maximum product of input alphabet sizes.
    pub max_branching: u64,
}

/// A finite-state transition system extracted from one diagnostic's cone.
#[derive(Debug, Clone)]
pub struct Model {
    /// State variables, sorted by signal id. The state vector holds their
    /// mantissas in this order; the initial state is all zeros.
    pub registers: Vec<RegVar>,
    /// Combinational signals in evaluation (topological) order.
    pub wires: Vec<WireVar>,
    /// Free inputs, sorted by signal id.
    pub inputs: Vec<InputVar>,
    /// The cone as a netlist: its wires and registers line up with
    /// `wires` and `registers`.
    netlist: Netlist,
    /// The value slot of each input, in `inputs` order.
    input_slots: Vec<usize>,
    /// Per-step buffers, reused across steps: the value slots and the
    /// intermediate results of the definition being evaluated.
    buffers: RefCell<(Vec<f64>, Vec<f64>)>,
}

/// One step's outcome: the successor state plus which monitored signals
/// overflowed while computing it.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// Next state vector (register mantissas in `Model::registers` order).
    pub next: Vec<i64>,
    /// Names of typed signals whose assignment overflowed this tick, in
    /// evaluation order.
    pub overflows: Vec<String>,
}

impl Model {
    /// Extracts the cone of `scope` signals from a lint snapshot. Every
    /// cone signal takes its netlist [`Role`]; a cone signal without
    /// definitions is a free input.
    ///
    /// # Errors
    ///
    /// The first cone signal, in id order, that cannot be modelled (an
    /// untyped input or register, an input alphabet over the limit, a
    /// [`Role::Conditional`] signal); then a branching product over the
    /// limit; then a combinational cycle. The verifier maps the error to
    /// `Verdict::Unknown { reason }`.
    pub fn extract(
        input: &LintInput,
        scope: &[SignalId],
        limits: &ModelLimits,
    ) -> Result<Model, ModelError> {
        if scope.is_empty() {
            return Err(ModelError::EmptyScope);
        }
        let graph = &input.graph;

        // Cone of influence: scope plus transitive fan-in.
        let mut cone: Vec<SignalId> = scope.to_vec();
        cone.sort();
        cone.dedup();
        let mut frontier = cone.clone();
        while let Some(sig) = frontier.pop() {
            for dep in graph.fan_in(sig) {
                if let Err(pos) = cone.binary_search(&dep) {
                    cone.insert(pos, dep);
                    frontier.push(dep);
                }
            }
        }

        let mut members = Vec::with_capacity(cone.len());
        let mut registers = Vec::new();
        let mut wires = Vec::new();
        let mut inputs = Vec::new();
        for &sig in &cone {
            let Some(info) = input.signals.get(sig.raw() as usize) else {
                return Err(ModelError::EmptyScope);
            };
            // Every cone signal is read by the cone or named by the
            // scope, so one without definitions is an input.
            let role = Role::of(graph, sig, info.kind, true);
            members.push((sig, role));
            match role {
                Role::Input | Role::Unused => {
                    let Some(dt) = info.dtype.clone() else {
                        return Err(ModelError::UntypedInput {
                            signal: info.name.clone(),
                        });
                    };
                    let size = (dt.max_mantissa() - dt.min_mantissa() + 1) as u64;
                    if size > limits.max_alphabet {
                        return Err(ModelError::AlphabetTooLarge {
                            signal: info.name.clone(),
                            size,
                        });
                    }
                    let step = dt.resolution();
                    let alphabet = (dt.min_mantissa()..=dt.max_mantissa())
                        .map(|m| m as f64 * step)
                        .collect();
                    inputs.push(InputVar {
                        id: sig,
                        name: info.name.clone(),
                        dtype: dt,
                        alphabet,
                    });
                }
                Role::Conditional => {
                    return Err(ModelError::MultipleDefinitions {
                        signal: info.name.clone(),
                    });
                }
                Role::Register(def) => {
                    let Some(dt) = info.dtype.clone() else {
                        return Err(ModelError::StateTooLarge {
                            signal: info.name.clone(),
                        });
                    };
                    registers.push(RegVar {
                        id: sig,
                        name: info.name.clone(),
                        dtype: dt,
                        def,
                    });
                }
                Role::Wire(def) => {
                    wires.push(WireVar {
                        id: sig,
                        name: info.name.clone(),
                        dtype: info.dtype.clone(),
                        def,
                    });
                }
            }
        }

        let branching: u64 = inputs
            .iter()
            .map(|i| i.alphabet.len() as u64)
            .try_fold(1u64, |p, n| p.checked_mul(n))
            .unwrap_or(u64::MAX);
        if branching > limits.max_branching {
            return Err(ModelError::BranchingTooLarge { product: branching });
        }

        let netlist = Netlist::new(graph, &members).map_err(|_| ModelError::CombinationalCycle)?;
        // The netlist holds the wires in evaluation order.
        wires.sort_by_key(|w| netlist.wires().iter().position(|a| a.signal == w.id));
        let input_slots = inputs.iter().filter_map(|i| netlist.slot(i.id)).collect();
        let buffers = RefCell::new((vec![0.0; cone.len()], Vec::new()));

        Ok(Model {
            registers,
            wires,
            inputs,
            netlist,
            input_slots,
            buffers,
        })
    }

    /// Total per-state branching (product of input alphabet sizes; 1 with
    /// no inputs).
    pub fn branching(&self) -> u64 {
        self.inputs
            .iter()
            .map(|i| i.alphabet.len() as u64)
            .product::<u64>()
            .max(1)
    }

    /// The all-zeros initial state (the simulator's reset values).
    pub fn initial_state(&self) -> Vec<i64> {
        vec![0; self.registers.len()]
    }

    /// The `k`-th input combination (row-major over the sorted inputs,
    /// each alphabet ascending), as `(name, value)` pairs in input order.
    /// `k` ranges over `0..branching()`.
    pub fn input_combo(&self, k: u64) -> Vec<f64> {
        let mut values = Vec::with_capacity(self.inputs.len());
        let mut rest = k;
        // Last input varies fastest, so combos enumerate in lexicographic
        // order of the input vector.
        let mut radix: Vec<u64> = Vec::with_capacity(self.inputs.len());
        for i in self.inputs.iter().rev() {
            radix.push(i.alphabet.len() as u64);
        }
        let mut digits = vec![0u64; self.inputs.len()];
        for (d, r) in digits.iter_mut().rev().zip(&radix) {
            *d = rest % r;
            rest /= r;
        }
        for (input, &d) in self.inputs.iter().zip(&digits) {
            values.push(input.alphabet[d as usize]);
        }
        values
    }

    /// The all-zero input vector (every input driven with 0.0, which every
    /// fixed-point type represents exactly).
    pub fn zero_inputs(&self) -> Vec<f64> {
        vec![0.0; self.inputs.len()]
    }

    /// Executes one clock cycle bit-exactly: drive `input_values` (one per
    /// [`Model::inputs`] entry), evaluate wires in the netlist's order,
    /// evaluate register definitions against the *current* state, latch.
    /// Quantization at every typed assignment matches the simulator's
    /// assignment pipeline ([`fixref_fixed::quantize()`]); any typed wire
    /// or register whose assignment overflows is reported in
    /// [`StepOutput::overflows`], in evaluation order.
    pub fn step(&self, state: &[i64], input_values: &[f64]) -> StepOutput {
        let mut buffers = self.buffers.borrow_mut();
        let (values, temps) = &mut *buffers;
        for ((reg, a), &m) in self
            .registers
            .iter()
            .zip(self.netlist.registers())
            .zip(state)
        {
            values[a.slot] = m as f64 * reg.dtype.resolution();
        }
        for ((input, &slot), &v) in self.inputs.iter().zip(&self.input_slots).zip(input_values) {
            // Inputs pass through their own quantizer, like set() on a
            // typed stimulus signal; alphabet values are exact already.
            values[slot] = quantize(v, &input.dtype).value;
        }
        let mut overflows = Vec::new();
        for (wire, a) in self.wires.iter().zip(self.netlist.wires()) {
            let raw = a.eval(values, temps);
            values[a.slot] = match &wire.dtype {
                Some(dt) => {
                    let q = quantize(raw, dt);
                    if q.overflowed {
                        overflows.push(wire.name.clone());
                    }
                    q.value
                }
                None => raw,
            };
        }
        let next = self
            .registers
            .iter()
            .zip(self.netlist.registers())
            .map(|(reg, a)| {
                let q = quantize(a.eval(values, temps), &reg.dtype);
                if q.overflowed {
                    overflows.push(reg.name.clone());
                }
                q.mantissa
            })
            .collect();
        StepOutput { next, overflows }
    }

    /// The on-grid register values of a state, as `(name, value)` pairs in
    /// register order — the trace entries a witness records.
    pub fn state_values(&self, state: &[i64]) -> Vec<(String, f64)> {
        self.registers
            .iter()
            .zip(state)
            .map(|(r, &m)| (r.name.clone(), m as f64 * r.dtype.resolution()))
            .collect()
    }
}
