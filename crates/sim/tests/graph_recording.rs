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
//!
//! The recorder memoizes each cycle's operators by their position since
//! the last tick, so the programs tick after every pass and vary the
//! sequence from pass to pass: data-dependent host branches, an operator
//! that runs in one pass only, bodies longer than the memo, a
//! `clear_graph` in the middle of a pass (a snapshot taken just before it
//! must not change afterwards), and two designs recording interleaved on
//! one thread.

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
    /// Computes `then` only where `when` holds; elsewhere the value is
    /// value `otherwise` again, and no operator runs.
    When {
        when: When,
        otherwise: usize,
        then: Box<Stmt>,
    },
    /// Assigns a computed value to a signal.
    Assign(usize, usize),
    /// Assigns the pass's stimulus sample (a new literal each pass).
    Stimulus(usize),
}

/// The condition of a [`Stmt::When`], which makes passes differ in their
/// operator sequence.
#[derive(Debug, Clone, Copy)]
enum When {
    /// A data-dependent host branch on a value's fixed path.
    Positive(usize),
    /// One pass only: a cycle with an extra operator.
    Pass(u64),
}

const SIGNALS: usize = 6;
const LITERALS: [f64; 6] = [0.0, -0.0, 0.5, -1.25, 2.0, 0.375];
/// The recorder memoizes this many interned keys (operators and their
/// constant operands) per cycle; a long body runs past it.
const MEMO_BOUND: usize = 4096;

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

/// A random operator over the values `base..values`.
fn operator(rng: &mut Rng64, casts: &[DType], base: usize, values: usize) -> Stmt {
    let pick = |rng: &mut Rng64| base + rng.below((values - base) as u64) as usize;
    match rng.below(4) {
        0 => {
            let op = match rng.below(3) {
                0 => Op::Neg,
                1 => Op::Abs,
                _ => Op::Cast(casts[rng.below(casts.len() as u64) as usize].clone()),
            };
            Stmt::Unary(op, pick(rng))
        }
        1 | 2 => {
            let op = [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Min, Op::Max][rng.below(6) as usize]
                .clone();
            Stmt::Binary(op, pick(rng), pick(rng))
        }
        _ => Stmt::Select(pick(rng), pick(rng), pick(rng)),
    }
}

/// A random loop body of `blocks` blocks. Operands only name earlier
/// values of the same block, so expression trees stay small however long
/// the body is.
fn program(rng: &mut Rng64, casts: &[DType], blocks: usize, passes: u64) -> Vec<Stmt> {
    let mut body = Vec::new();
    let mut values = 0;
    for _ in 0..blocks {
        let base = values;
        for _ in 0..6 + rng.below(30) {
            let pick = |rng: &mut Rng64| base + rng.below((values - base) as u64) as usize;
            let stmt = match if values == base {
                rng.below(2)
            } else {
                rng.below(10)
            } {
                0 => Stmt::Read(rng.below(SIGNALS as u64) as usize),
                1 => Stmt::Literal(LITERALS[rng.below(LITERALS.len() as u64) as usize]),
                2..=5 => operator(rng, casts, base, values),
                6 => Stmt::Assign(rng.below(SIGNALS as u64) as usize, pick(rng)),
                7 => Stmt::Stimulus(rng.below(SIGNALS as u64) as usize),
                k => Stmt::When {
                    when: if k == 8 {
                        When::Positive(pick(rng))
                    } else {
                        When::Pass(rng.below(passes))
                    },
                    otherwise: pick(rng),
                    then: Box::new(operator(rng, casts, base, values)),
                },
            };
            if !matches!(stmt, Stmt::Assign(..) | Stmt::Stimulus(_)) {
                values += 1;
            }
            body.push(stmt);
        }
    }
    body
}

/// What one design recorded both ways.
struct Recorded {
    graph: Rc<Graph>,
    reference: Graph,
    /// Traced values left unassigned whose trees hold a node no
    /// definition reached.
    dropped_temporaries: usize,
}

/// Counts of what the programs exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// `When` statements that ran their operator, and that did not.
    taken: usize,
    skipped: usize,
    /// Passes whose memoized keys outnumbered the memo.
    long_passes: usize,
    clears: usize,
}

/// One design running one random program, beside its reference.
struct Machine {
    design: Design,
    signals: Vec<Handle>,
    body: Vec<Stmt>,
    passes: u64,
    /// Where the run calls `clear_graph`: before this statement of this
    /// pass.
    clear_at: Option<(u64, usize)>,
    reference: ReferenceRecorder,
    values: Vec<(Value, Tree)>,
    assigned: Vec<usize>,
    temporaries: Vec<Tree>,
    /// Keys the recorder memoizes in the current pass: traced operators
    /// and their untraced operands.
    keys: usize,
    /// The snapshot taken before the clear, and its nodes then.
    snapshot: Option<(Rc<Graph>, Vec<String>)>,
}

impl Machine {
    fn new(rng: &mut Rng64, casts: &[DType], blocks: usize) -> Self {
        let design = Design::with_seed(rng.next_u64());
        let signals = (0..SIGNALS)
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
        let passes = if blocks > 1 { 3 } else { 1 + rng.below(4) };
        let body = program(rng, casts, blocks, passes);
        let clear_at =
            (rng.below(6) == 0).then(|| (rng.below(passes), rng.below(body.len() as u64) as usize));
        Machine {
            design,
            signals,
            body,
            passes,
            clear_at,
            reference: ReferenceRecorder::default(),
            values: Vec::new(),
            assigned: Vec::new(),
            temporaries: Vec::new(),
            keys: 0,
            snapshot: None,
        }
    }

    /// The value of a value statement, and its reference tree.
    fn compute(&mut self, stmt: &Stmt, pass: u64, cov: &mut Coverage) -> (Value, Tree) {
        let operand = |i: usize| self.values[i].clone();
        let (value, tree) = match stmt {
            Stmt::Read(s) => {
                let h = &self.signals[*s];
                return (h.get(), Tree::Read(h.id()));
            }
            Stmt::Literal(c) => return (Value::from(*c), Tree::Off),
            Stmt::When {
                when,
                otherwise,
                then,
            } => {
                let holds = match *when {
                    When::Positive(c) => self.values[c].0.fix() > 0.0,
                    When::Pass(p) => p == pass,
                };
                if !holds {
                    cov.skipped += 1;
                    return operand(*otherwise);
                }
                cov.taken += 1;
                return self.compute(then, pass, cov);
            }
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
            Stmt::Assign(..) | Stmt::Stimulus(_) => unreachable!("not a value"),
        };
        if let Tree::Node(node) = &tree {
            let untraced = node.1.iter().filter(|t| matches!(t, Tree::Const(_)));
            self.keys += 1 + untraced.count();
        }
        (value, tree)
    }

    /// Runs statement `i` of pass `pass`.
    fn exec(&mut self, pass: u64, i: usize, cov: &mut Coverage) {
        if self.clear_at == Some((pass, i)) {
            let snapshot = self.design.graph();
            assert_eq!(rendered(&snapshot), rendered(&self.reference.graph));
            self.snapshot = Some((snapshot.clone(), rendered(&snapshot)));
            self.design.clear_graph();
            self.reference.graph = Graph::new();
            // Values traced before the clear record as constants.
            for (_, tree) in &mut self.values {
                *tree = Tree::Off;
            }
            self.temporaries.clear();
            cov.clears += 1;
        }
        let stmt = self.body[i].clone();
        match stmt {
            Stmt::Assign(s, i) => {
                let (v, t) = self.values[i].clone();
                // A division by zero is no assignment the engine accepts;
                // its value stays a temporary.
                if v.fix().is_finite() && v.flt().is_finite() {
                    let h = &self.signals[s];
                    self.reference.assign(h.id(), &t, v.fix());
                    h.set(v);
                    self.assigned.push(i);
                }
            }
            Stmt::Stimulus(s) => {
                let sample = 0.125 * pass as f64 - 0.25 + 0.0625 * s as f64;
                let h = &self.signals[s];
                self.reference.assign(h.id(), &Tree::Off, sample);
                h.set(Value::from(sample));
            }
            stmt => {
                let computed = self.compute(&stmt, pass, cov);
                self.values.push(computed);
            }
        }
    }

    /// Ends pass `pass` with a clock tick.
    fn end_pass(&mut self, cov: &mut Coverage) {
        for (i, (_, tree)) in self.values.drain(..).enumerate() {
            if !self.assigned.contains(&i) {
                self.temporaries.push(tree);
            }
        }
        self.assigned.clear();
        if self.keys > MEMO_BOUND {
            cov.long_passes += 1;
        }
        self.keys = 0;
        self.design.tick();
    }

    fn finish(self) -> Recorded {
        self.design.record_graph(false);
        // How many unassigned temporaries would have left a node behind.
        let mut with_temporaries = self.reference.graph.clone();
        let mut dropped_temporaries = 0;
        for tree in &self.temporaries {
            let before = with_temporaries.len();
            tree.intern(&mut with_temporaries);
            if with_temporaries.len() > before {
                dropped_temporaries += 1;
            }
        }
        // The snapshot taken before the clear never changed.
        if let Some((snapshot, nodes)) = &self.snapshot {
            assert_eq!(&rendered(snapshot), nodes);
        }
        Recorded {
            graph: self.design.graph(),
            reference: self.reference.graph,
            dropped_temporaries,
        }
    }
}

/// Runs `machines` statement by statement in turn on one thread, each
/// ticking its own design at the end of each of its passes.
fn run(mut machines: Vec<Machine>, cov: &mut Coverage) -> Vec<Recorded> {
    for m in &machines {
        m.design.record_graph(true);
    }
    let passes = machines.iter().map(|m| m.passes).max().unwrap_or(0);
    for pass in 0..passes {
        let len = machines.iter().map(|m| m.body.len()).max().unwrap_or(0);
        for i in 0..len {
            for m in &mut machines {
                if pass < m.passes && i < m.body.len() {
                    m.exec(pass, i, cov);
                }
            }
        }
        for m in &mut machines {
            if pass < m.passes {
                m.end_pass(cov);
            }
        }
    }
    machines.into_iter().map(Machine::finish).collect()
}

/// Every node of `g` that some definition reaches.
fn reached(g: &Graph) -> Vec<bool> {
    let ids: Vec<NodeId> = g.iter().map(|(id, _)| id).collect();
    let mut seen = vec![false; g.len()];
    let mut stack: Vec<NodeId> = g
        .defined_signals()
        .flat_map(|s| g.defs(s).to_vec())
        .collect();
    while let Some(id) = stack.pop() {
        let i = ids.binary_search(&id).expect("node of g");
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
    let mut cov = Coverage::default();
    let (mut dropped, mut defs, mut nodes, mut designs) = (0, 0, 0, 0);
    for case in 0..400 {
        // Every 4th case records two designs interleaved on this thread;
        // every 100th runs a body longer than the memo.
        let blocks = if case % 100 == 99 { 700 } else { 1 };
        let count = if case % 4 == 1 { 2 } else { 1 };
        let machines = (0..count)
            .map(|_| Machine::new(&mut rng, &casts, blocks))
            .collect();
        for r in run(machines, &mut cov) {
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
            designs += 1;
        }
    }
    // The programs exercise what the property is about.
    assert!(
        dropped > 400 && defs > 2000 && nodes > 2000,
        "{dropped} dropped temporaries, {defs} defs, {nodes} nodes"
    );
    assert_eq!(designs, 500);
    assert!(
        cov.taken > 500 && cov.skipped > 500 && cov.long_passes >= 8 && cov.clears > 40,
        "{cov:?}"
    );
}
