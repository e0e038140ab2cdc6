//! The operator-time graph recorder against a tree-based reference
//! recorder.
//!
//! The reference keeps, beside every value, the expression tree its
//! operators built, and interns a value's tree into its own [`Graph`] when
//! the value is assigned: operands first, left to right, each assignment
//! on its own. That numbering and definition order are what the
//! analyses and the golden files depend on. Seeded random
//! straight-line programs — reads, literals, every [`Op`] including casts
//! and selects, loop bodies run several times, and temporaries that are
//! computed but never assigned — must record the same graph both ways,
//! with no node that no definition reaches.

use std::rc::Rc;

use fixref_fixed::{DType, Rng64};
use fixref_sim::{Design, Graph, NodeId, Op, Reg, Sig, SignalId, SignalRef, Value};

/// The reference's expression trace: a tree per value.
#[derive(Debug, Clone)]
enum Tree {
    /// Untraced: a literal, or arithmetic on literals only.
    Off,
    Const(f64),
    Read(SignalId),
    Node(Rc<(Op, Vec<Tree>)>),
}

impl Tree {
    /// A node over `(tree, fixed value)` operands: untraced while every
    /// operand is, and an untraced operand of a traced node is a `Const`
    /// of its fixed value.
    fn node(op: Op, operands: Vec<(Tree, f64)>) -> Tree {
        if operands.iter().all(|(t, _)| matches!(t, Tree::Off)) {
            return Tree::Off;
        }
        let args = operands
            .into_iter()
            .map(|(t, fix)| match t {
                Tree::Off => Tree::Const(fix),
                t => t,
            })
            .collect();
        Tree::Node(Rc::new((op, args)))
    }

    /// Interns the tree into `g`, operands first; `None` if untraced.
    fn intern(&self, g: &mut Graph) -> Option<NodeId> {
        match self {
            Tree::Off => None,
            Tree::Const(c) => Some(g.add(Op::Const(*c), vec![])),
            Tree::Read(s) => Some(g.add(Op::Read(*s), vec![])),
            Tree::Node(n) => {
                let args = n.1.iter().map(|a| a.intern(g)).collect::<Option<_>>()?;
                Some(g.add(n.0.clone(), args))
            }
        }
    }
}

/// The tree-based recorder: a graph interned one assignment at a time.
#[derive(Default)]
struct ReferenceRecorder {
    graph: Graph,
}

impl ReferenceRecorder {
    fn assign(&mut self, signal: SignalId, tree: &Tree, fix: f64) {
        let root = tree
            .intern(&mut self.graph)
            .unwrap_or_else(|| self.graph.add(Op::Const(fix), vec![]));
        self.graph.record_def(signal, root);
    }
}

enum Handle {
    Wire(Sig),
    Register(Reg),
}

impl Handle {
    fn get(&self) -> Value {
        match self {
            Handle::Wire(s) => s.get(),
            Handle::Register(r) => r.get(),
        }
    }

    fn set(&self, v: Value) {
        match self {
            Handle::Wire(s) => s.set(v),
            Handle::Register(r) => r.set(v),
        }
    }

    fn id(&self) -> SignalId {
        match self {
            Handle::Wire(s) => s.id(),
            Handle::Register(r) => r.id(),
        }
    }
}

#[derive(Debug, Clone)]
enum Stmt {
    Read(usize),
    Literal(f64),
    /// `Neg`, `Abs` or a `Cast`.
    Unary(Op, usize),
    /// `Add`, `Sub`, `Mul`, `Div`, `Min` or `Max`.
    Binary(Op, usize, usize),
    Select(usize, usize, usize),
    /// Assigns a computed value to a signal.
    Assign(usize, usize),
    /// Assigns the pass's stimulus sample (a new literal each pass).
    Stimulus(usize),
}

const SIGNALS: usize = 6;
const LITERALS: [f64; 6] = [0.0, -0.0, 0.5, -1.25, 2.0, 0.375];

fn dtypes() -> Vec<DType> {
    [
        "<8,4,tc,st,rd>",
        "<8,5,tc,wp,rd>",
        "<10,6,tc,st,fl>",
        "<6,2,tc,st,rd>",
    ]
    .iter()
    .map(|t| t.parse().expect("valid dtype"))
    .collect()
}

/// A random loop body. Operands only name earlier values of the pass.
fn program(rng: &mut Rng64, casts: &[DType]) -> Vec<Stmt> {
    let len = 6 + rng.below(30) as usize;
    let mut body = Vec::with_capacity(len);
    let mut values = 0;
    for _ in 0..len {
        let pick = |rng: &mut Rng64| rng.below(values as u64) as usize;
        let stmt = match if values == 0 {
            rng.below(2)
        } else {
            rng.below(8)
        } {
            0 => Stmt::Read(rng.below(SIGNALS as u64) as usize),
            1 => Stmt::Literal(LITERALS[rng.below(LITERALS.len() as u64) as usize]),
            2 => {
                let op = match rng.below(3) {
                    0 => Op::Neg,
                    1 => Op::Abs,
                    _ => Op::Cast(casts[rng.below(casts.len() as u64) as usize].clone()),
                };
                Stmt::Unary(op, pick(rng))
            }
            3 | 4 => {
                let op = [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Min, Op::Max]
                    [rng.below(6) as usize]
                    .clone();
                Stmt::Binary(op, pick(rng), pick(rng))
            }
            5 => Stmt::Select(pick(rng), pick(rng), pick(rng)),
            6 => Stmt::Assign(rng.below(SIGNALS as u64) as usize, pick(rng)),
            _ => Stmt::Stimulus(rng.below(SIGNALS as u64) as usize),
        };
        if !matches!(stmt, Stmt::Assign(..) | Stmt::Stimulus(_)) {
            values += 1;
        }
        body.push(stmt);
    }
    body
}

/// What one program recorded both ways.
struct Recorded {
    graph: Graph,
    reference: Graph,
    /// Traced values left unassigned whose trees hold a node no
    /// definition reached.
    dropped_temporaries: usize,
}

fn run(rng: &mut Rng64, casts: &[DType]) -> Recorded {
    let design = Design::with_seed(rng.next_u64());
    let signals: Vec<Handle> = (0..SIGNALS)
        .map(|i| {
            let name = format!("s{i}");
            let dtype = match rng.below(casts.len() as u64 + 1) as usize {
                0 => None,
                k => Some(casts[k - 1].clone()),
            };
            let handle = if rng.below(2) == 0 {
                Handle::Wire(design.sig(&name))
            } else {
                Handle::Register(design.reg(&name))
            };
            design.set_dtype(handle.id(), dtype);
            handle
        })
        .collect();
    let body = program(rng, casts);
    let passes = 1 + rng.below(4);

    let mut reference = ReferenceRecorder::default();
    let mut temporaries = Vec::new();
    design.record_graph(true);
    for pass in 0..passes {
        let mut values: Vec<(Value, Tree)> = Vec::new();
        let mut assigned = Vec::new();
        for stmt in &body {
            let operand = |i: usize| values[i].clone();
            let computed = match stmt {
                Stmt::Read(s) => {
                    let h = &signals[*s];
                    (h.get(), Tree::Read(h.id()))
                }
                Stmt::Literal(c) => (Value::from(*c), Tree::Off),
                Stmt::Unary(op, a) => {
                    let (v, t) = operand(*a);
                    let fix = v.fix();
                    let out = match op {
                        Op::Neg => -v,
                        Op::Abs => v.abs(),
                        Op::Cast(dt) => v.cast(dt),
                        _ => unreachable!("not unary"),
                    };
                    (out, Tree::node(op.clone(), vec![(t, fix)]))
                }
                Stmt::Binary(op, a, b) => {
                    let ((l, lt), (r, rt)) = (operand(*a), operand(*b));
                    let operands = vec![(lt, l.fix()), (rt, r.fix())];
                    let out = match op {
                        Op::Add => l + r,
                        Op::Sub => l - r,
                        Op::Mul => l * r,
                        Op::Div => l / r,
                        Op::Min => l.min(r),
                        Op::Max => l.max(r),
                        _ => unreachable!("not binary"),
                    };
                    (out, Tree::node(op.clone(), operands))
                }
                Stmt::Select(c, a, b) => {
                    let ((c, ct), (a, at), (b, bt)) = (operand(*c), operand(*a), operand(*b));
                    let operands = vec![(ct, c.fix()), (at, a.fix()), (bt, b.fix())];
                    (c.select_positive(a, b), Tree::node(Op::Select, operands))
                }
                Stmt::Assign(s, i) => {
                    let (v, t) = operand(*i);
                    // A division by zero is no assignment the engine
                    // accepts; its value stays a temporary.
                    if v.fix().is_finite() && v.flt().is_finite() {
                        let h = &signals[*s];
                        reference.assign(h.id(), &t, v.fix());
                        h.set(v);
                        assigned.push(*i);
                    }
                    continue;
                }
                Stmt::Stimulus(s) => {
                    let sample = 0.125 * pass as f64 - 0.25 + 0.0625 * *s as f64;
                    let h = &signals[*s];
                    reference.assign(h.id(), &Tree::Off, sample);
                    h.set(Value::from(sample));
                    continue;
                }
            };
            values.push(computed);
        }
        for (i, (_, tree)) in values.iter().enumerate() {
            if !assigned.contains(&i) {
                temporaries.push(tree.clone());
            }
        }
        design.tick();
    }
    design.record_graph(false);

    // How many unassigned temporaries would have left a node behind.
    let mut with_temporaries = reference.graph.clone();
    let mut dropped_temporaries = 0;
    for tree in &temporaries {
        let before = with_temporaries.len();
        tree.intern(&mut with_temporaries);
        if with_temporaries.len() > before {
            dropped_temporaries += 1;
        }
    }
    Recorded {
        graph: design.graph(),
        reference: reference.graph,
        dropped_temporaries,
    }
}

/// Every node of `g` that some definition reaches.
fn reached(g: &Graph) -> Vec<bool> {
    let mut seen = vec![false; g.len()];
    let mut stack: Vec<NodeId> = g
        .defined_signals()
        .flat_map(|s| g.defs(s).to_vec())
        .collect();
    while let Some(id) = stack.pop() {
        let i = g.iter().position(|(n, _)| n == id).expect("node of g");
        if !std::mem::replace(&mut seen[i], true) {
            stack.extend(g.node(id).args.iter().copied());
        }
    }
    seen
}

/// `Node`'s `PartialEq` says NaN != NaN; the renderings compare as the
/// interner does.
fn rendered(g: &Graph) -> Vec<String> {
    g.iter().map(|(id, n)| format!("{id}: {n:?}")).collect()
}

#[test]
fn operator_time_recording_builds_the_tree_recorders_graph() {
    let casts = dtypes();
    let mut rng = Rng64::seed_from_u64(0x5F6_2EC0);
    let mut dropped = 0;
    let mut defs = 0;
    let mut nodes = 0;
    for case in 0..400 {
        let r = run(&mut rng, &casts);
        assert_eq!(rendered(&r.graph), rendered(&r.reference), "case {case}");
        for s in 0..SIGNALS as u32 {
            let s = SignalId::from_raw(s);
            assert_eq!(r.graph.defs(s), r.reference.defs(s), "case {case}, {s}");
            defs += r.graph.defs(s).len();
        }
        let reached = reached(&r.graph);
        assert!(reached.iter().all(|&r| r), "case {case}: unreached node");
        dropped += r.dropped_temporaries;
        nodes += r.graph.len();
    }
    // The programs exercise what the property is about.
    assert!(
        dropped > 400 && defs > 2000 && nodes > 2000,
        "{dropped} dropped temporaries, {defs} defs, {nodes} nodes"
    );
}
