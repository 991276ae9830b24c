//! Derivation walking and template rendering.

use std::error::Error;
use std::fmt::{self, Write as _};

use odburg_core::RuleChooser;
use odburg_grammar::template::Piece;
use odburg_grammar::{Cost, NormalGrammar, NormalRhs, NormalRuleId, NtId, Pattern, RuleId};
use odburg_ir::{Forest, NodeId, Payload};

/// A virtual register number allocated by the reducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Errors produced while reducing a labeled tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceError {
    /// The labeler recorded no rule for this node/nonterminal pair — the
    /// tree was not derivable from the requested goal.
    MissingRule {
        /// The node being reduced.
        node: NodeId,
        /// The requested nonterminal.
        nt: NtId,
    },
    /// A chosen dynamic-cost rule turned out inapplicable at emission
    /// time. Labeler and reducer disagree — this is a bug in the labeler.
    InapplicableRule {
        /// The node being reduced.
        node: NodeId,
        /// The offending rule.
        rule: NormalRuleId,
    },
    /// The chooser's rules for this node/nonterminal pair derive it from
    /// itself (e.g. `a: b` and `b: a`), so the derivation never ends.
    /// No optimal labeler produces this.
    CyclicDerivation {
        /// The node being reduced.
        node: NodeId,
        /// The nonterminal whose derivation loops.
        nt: NtId,
    },
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::MissingRule { node, nt } => {
                write!(
                    f,
                    "no rule recorded for node {node} / nonterminal #{}",
                    nt.0
                )
            }
            ReduceError::InapplicableRule { node, rule } => write!(
                f,
                "rule #{} chosen at node {node} is inapplicable at emission time",
                rule.0
            ),
            ReduceError::CyclicDerivation { node, nt } => write!(
                f,
                "the derivation of nonterminal #{} at node {node} loops through itself",
                nt.0
            ),
        }
    }
}

impl Error for ReduceError {}

/// The output of reduction: instructions, the applied rules, and the total
/// derivation cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reduction {
    /// Emitted machine instructions, in order.
    pub instructions: Vec<String>,
    /// `(node, rule)` pairs in action (post-order) sequence.
    pub applied: Vec<(NodeId, NormalRuleId)>,
    /// Sum of the applied rules' costs (dynamic costs evaluated at their
    /// nodes). This is the derivation cost the labeler minimized.
    pub total_cost: Cost,
    next_vreg: u32,
}

impl Reduction {
    /// Number of emitted instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    fn fresh_vreg(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Instructions containing unresolved `?…` placeholders — template or
    /// grammar wiring problems a back-end author wants to see.
    pub fn lint_rendering(&self) -> Vec<&str> {
        self.instructions
            .iter()
            .filter(|i| i.contains('?'))
            .map(String::as_str)
            .collect()
    }
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in &self.instructions {
            writeln!(f, "{i}")?;
        }
        Ok(())
    }
}

/// Derivations and instructions per node that a reduction's buffers are
/// sized for up front. On mixed traffic the built-in targets apply about
/// 1.1 rules and emit about 1.1 instructions per node, and at most 1.5
/// and 1.8 in any one job; a forest that needs more grows the buffers
/// as usual.
const PER_NODE: usize = 2;
/// Room for the pattern walk, which holds at most as many entries as a
/// source pattern has nodes.
const WALK: usize = 16;
/// Room for one instruction's text.
const LINE: usize = 64;

/// The state of a derivation on the stack, and the end of a slot list.
const ON_STACK: u32 = u32::MAX;
const END: u32 = u32::MAX;
/// The state of a derivation reduced without a result register; any
/// smaller state is the number of the register it was reduced into.
const NO_VALUE: u32 = u32::MAX - 1;

/// One `(node, nonterminal)` derivation: its state and the node's next
/// slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    nt: NtId,
    state: u32,
    next: u32,
}

/// A derivation being reduced; its operands before `next` are done.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: NodeId,
    slot: u32,
    rule: NormalRuleId,
    next: u32,
}

/// A source pattern matched at a node: its first four nonterminal leaves
/// and the first payload its operators match.
#[derive(Debug, Clone, Copy)]
struct Operands {
    leaves: [(NodeId, NtId); 4],
    len: usize,
    payload: Option<Payload>,
}

impl Operands {
    fn leaf(&self, i: u8) -> Option<(NodeId, NtId)> {
        let i = i as usize;
        (i < self.len).then(|| self.leaves[i])
    }
}

/// Per-reduction bookkeeping.
///
/// Each node heads a list of slots, one per derivation reduced (or being
/// reduced) there, so memory is O(nodes + derivations). A slot is looked
/// up when its frame is pushed and filled when the frame is popped:
/// sharing one reducer across roots is what makes DAG reduction work,
/// because a derivation already reduced through another parent is reused
/// instead of re-emitted.
struct Reducer<'a> {
    forest: &'a Forest,
    grammar: &'a NormalGrammar,
    chooser: &'a dyn RuleChooser,
    head: Vec<u32>,
    slots: Vec<Slot>,
    stack: Vec<Frame>,
    /// Scratch stack of the pattern walk in [`Reducer::operands`].
    walk: Vec<(&'a Pattern, NodeId)>,
    /// The instruction being rendered.
    line: String,
}

/// Reduces the (sub)graph rooted at `root` from `goal`, appending into
/// `out`.
///
/// Each call uses fresh bookkeeping; shared nodes *within* the subgraph
/// are reduced once, but sharing across separate `reduce_tree` calls is
/// not detected — use [`reduce_forest`] for whole-forest DAGs.
///
/// # Errors
///
/// See [`ReduceError`].
pub fn reduce_tree(
    forest: &Forest,
    grammar: &NormalGrammar,
    chooser: &dyn RuleChooser,
    root: NodeId,
    goal: NtId,
    out: &mut Reduction,
) -> Result<(), ReduceError> {
    // Children have smaller ids than their parents, so the subgraph
    // lies within `0..=root`.
    let nodes = root.index() + 1;
    out.instructions.reserve(PER_NODE * nodes);
    out.applied.reserve(PER_NODE * nodes);
    Reducer::new(forest, grammar, chooser, nodes).reduce(root, goal, out)
}

/// Reduces every registered root of `forest` from the grammar's start
/// nonterminal and returns the combined result.
///
/// Works on trees and on DAGs (e.g. built with
/// [`odburg_ir::cse_forest`]): derivations shared between trees are
/// emitted once.
///
/// # Errors
///
/// See [`ReduceError`].
pub fn reduce_forest(
    forest: &Forest,
    grammar: &NormalGrammar,
    chooser: &dyn RuleChooser,
) -> Result<Reduction, ReduceError> {
    let mut out = Reduction {
        instructions: Vec::with_capacity(PER_NODE * forest.len()),
        applied: Vec::with_capacity(PER_NODE * forest.len()),
        ..Reduction::default()
    };
    let mut reducer = Reducer::new(forest, grammar, chooser, forest.len());
    for &root in forest.roots() {
        reducer.reduce(root, grammar.start(), &mut out)?;
    }
    Ok(out)
}

impl<'a> Reducer<'a> {
    fn new(
        forest: &'a Forest,
        grammar: &'a NormalGrammar,
        chooser: &'a dyn RuleChooser,
        nodes: usize,
    ) -> Self {
        Reducer {
            forest,
            grammar,
            chooser,
            head: vec![END; nodes],
            slots: Vec::with_capacity(PER_NODE * nodes),
            // Every frame on the stack holds a slot.
            stack: Vec::with_capacity(PER_NODE * nodes),
            walk: Vec::with_capacity(WALK),
            line: String::with_capacity(LINE),
        }
    }

    /// Reduces `goal` at `root`: operands first, so actions fire in
    /// post-order.
    fn reduce(&mut self, root: NodeId, goal: NtId, out: &mut Reduction) -> Result<(), ReduceError> {
        self.push(root, goal)?;
        while let Some(top) = self.stack.last_mut() {
            let (node, i) = (top.node, top.next as usize);
            let operand = match &self.grammar.rule(top.rule).rhs {
                NormalRhs::Chain { from } => (i == 0).then_some((node, *from)),
                NormalRhs::Base { operands, .. } => operands
                    .get(i)
                    .map(|&nt| (self.forest.node(node).child(i), nt)),
            };
            match operand {
                Some((child, nt)) => {
                    top.next += 1;
                    self.push(child, nt)?;
                }
                None => {
                    let frame = *top;
                    self.stack.pop();
                    self.finish(frame, out)?;
                }
            }
        }
        Ok(())
    }

    /// Pushes the derivation of `goal` at `node`, unless it is already
    /// reduced.
    fn push(&mut self, node: NodeId, goal: NtId) -> Result<(), ReduceError> {
        if let Some(slot) = self.slot(node, goal) {
            return match self.slots[slot].state {
                ON_STACK => Err(ReduceError::CyclicDerivation { node, nt: goal }),
                _ => Ok(()),
            };
        }
        let rule = self
            .chooser
            .rule_for(node, goal)
            .ok_or(ReduceError::MissingRule { node, nt: goal })?;
        debug_assert_eq!(
            self.grammar.rule(rule).lhs,
            goal,
            "labeler recorded rule for wrong goal"
        );
        let head = &mut self.head[node.index()];
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            nt: goal,
            state: ON_STACK,
            next: *head,
        });
        *head = slot;
        self.stack.push(Frame {
            node,
            slot,
            rule,
            next: 0,
        });
        Ok(())
    }

    fn slot(&self, node: NodeId, nt: NtId) -> Option<usize> {
        let mut s = self.head[node.index()];
        while s != END {
            let slot = &self.slots[s as usize];
            if slot.nt == nt {
                return Some(s as usize);
            }
            s = slot.next;
        }
        None
    }

    /// The register a reduced derivation's result is in, if it has one.
    fn value(&self, (node, nt): (NodeId, NtId)) -> Option<u32> {
        let state = self.slots[self.slot(node, nt)?].state;
        (state < NO_VALUE).then_some(state)
    }

    /// Accounts a derivation whose operands are reduced and fires its
    /// action.
    fn finish(&mut self, frame: Frame, out: &mut Reduction) -> Result<(), ReduceError> {
        let Frame {
            node, slot, rule, ..
        } = frame;
        // Validates dynamic rules a second time: this is the check that
        // catches a labeler and reducer that disagree.
        match self.grammar.rule_cost_at(rule, self.forest, node).value() {
            Some(v) => out.total_cost = out.total_cost + Cost::from(v),
            None => return Err(ReduceError::InapplicableRule { node, rule }),
        }
        out.applied.push((node, rule));
        let normal = self.grammar.rule(rule);
        self.slots[slot as usize].state = if normal.is_final {
            self.fire(normal.source, node, out)
        } else {
            NO_VALUE
        };
        Ok(())
    }

    /// Renders the source rule's compiled template at `node` and returns
    /// the derivation's state.
    fn fire(&mut self, source: RuleId, node: NodeId, out: &mut Reduction) -> u32 {
        let (forest, templates) = (self.forest, self.grammar.templates());
        let ops = self.operands(source, node);
        if !templates.emits(source) {
            // No action: chain rules pass their operand's value through.
            return ops.leaf(0).and_then(|l| self.value(l)).unwrap_or(NO_VALUE);
        }
        let dst = templates.dst(source).then(|| out.fresh_vreg());
        let mut line = std::mem::take(&mut self.line);
        for &piece in templates.pieces(source) {
            match piece {
                Piece::Lit(a, b) => line.push_str(&templates.text()[a as usize..b as usize]),
                Piece::Dst => match dst {
                    Some(v) => push_vreg(&mut line, v.0),
                    None => line.push_str("?dst"),
                },
                Piece::Leaf(i) => {
                    let leaf = ops.leaf(i);
                    if let Some(v) = leaf.and_then(|l| self.value(l)) {
                        push_vreg(&mut line, v);
                    } else if let Some(p) = leaf.and_then(|(n, _)| payload_below(forest, n)) {
                        // Folded operands (addressing modes, memory
                        // operands) have no vreg; render a best-effort
                        // payload from the leaf's subtree.
                        push_payload(&mut line, forest, p);
                    } else {
                        line.push('?');
                        line.push((b'a' + i) as char);
                    }
                }
                Piece::LeafPayload(i) => match ops.leaf(i).map(|(n, _)| forest.node(n).payload()) {
                    Some(p) if p != Payload::None => push_payload(&mut line, forest, p),
                    _ => {
                        line.push_str("?p");
                        line.push((b'a' + i) as char);
                    }
                },
                Piece::Imm => match ops.payload.unwrap_or_else(|| forest.node(node).payload()) {
                    Payload::None => line.push_str("?imm"),
                    p => push_payload(&mut line, forest, p),
                },
                Piece::Sym => match ops.payload {
                    Some(Payload::Sym(sym)) => line.push_str(forest.symbol(sym)),
                    Some(Payload::Int(v)) => push_int(&mut line, v),
                    _ => line.push_str("?sym"),
                },
                Piece::Lbl => match forest.node(node).payload() {
                    Payload::Sym(sym) => line.push_str(forest.symbol(sym)),
                    Payload::Int(v) => push_int(&mut line, v),
                    _ => line.push_str("?lbl"),
                },
                Piece::End => {
                    // One allocation per instruction, at its exact length.
                    out.instructions.push(line.as_str().to_owned());
                    line.clear();
                }
            }
        }
        self.line = line;
        dst.map_or(NO_VALUE, |v| v.0)
    }

    /// Matches the source rule's pattern at `node`, walking it in
    /// pre-order on the scratch stack.
    fn operands(&mut self, source: RuleId, node: NodeId) -> Operands {
        let mut ops = Operands {
            leaves: [(node, NtId(0)); 4],
            len: 0,
            payload: None,
        };
        let grammar = self.grammar;
        self.walk
            .push((&grammar.source_rules()[source.0 as usize].pattern, node));
        while let Some((pattern, at)) = self.walk.pop() {
            match pattern {
                Pattern::Nt(nt) => {
                    if ops.len < ops.leaves.len() {
                        ops.leaves[ops.len] = (at, *nt);
                        ops.len += 1;
                    }
                }
                Pattern::Op { children, .. } => {
                    let n = self.forest.node(at);
                    if ops.payload.is_none() && n.payload() != Payload::None {
                        ops.payload = Some(n.payload());
                    }
                    for (c, &child) in children.iter().zip(n.children()).rev() {
                        self.walk.push((c, child));
                    }
                }
            }
        }
        ops
    }
}

/// Best-effort payload for rendering a folded operand: the node's own
/// payload, or the first payload found walking down first children.
fn payload_below(forest: &Forest, mut node: NodeId) -> Option<Payload> {
    loop {
        let p = forest.node(node).payload();
        if p != Payload::None {
            return Some(p);
        }
        match forest.node(node).children().first() {
            Some(&c) => node = c,
            None => return None,
        }
    }
}

fn push_payload(s: &mut String, forest: &Forest, p: Payload) {
    match p {
        Payload::Int(v) => push_int(s, v),
        Payload::FloatBits(b) => {
            let _ = write!(s, "{}", f64::from_bits(b));
        }
        Payload::Sym(sym) => s.push_str(forest.symbol(sym)),
        Payload::None => s.push_str("?payload"),
    }
}

fn push_vreg(s: &mut String, v: u32) {
    s.push('v');
    push_digits(s, v.into());
}

fn push_int(s: &mut String, v: i64) {
    if v < 0 {
        s.push('-');
    }
    push_digits(s, v.unsigned_abs());
}

/// Appends `v` in decimal, as `Display` prints it, without going through
/// the formatting machinery.
fn push_digits(s: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        s.push(b as char);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_core::Labeler;
    use odburg_dp::DpLabeler;
    use odburg_grammar::parse_grammar;
    use odburg_ir::parse_sexpr;
    use std::sync::Arc;

    const DEMO: &str = r#"
        %grammar demo
        %start stmt
        addr: reg (0)
        reg: ConstI8 (1) "mov ${imm}, {dst}"
        reg: LoadI8(addr) (1) "mov ({a}), {dst}"
        reg: AddI8(reg, reg) (1) "add {a}, {b}; mov {b}, {dst}"
        stmt: StoreI8(addr, reg) (1) "mov {b}, ({a})"
        stmt: StoreI8(addr, AddI8(LoadI8(addr), reg)) (1) "add {c}, ({a})"
    "#;

    fn reduce_src(src: &str) -> (Arc<NormalGrammar>, Reduction) {
        let g = Arc::new(parse_grammar(DEMO).unwrap().normalize());
        let mut dp = DpLabeler::new(g.clone());
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        f.add_root(root);
        let labeling = dp.label_forest(&f).unwrap();
        let red = reduce_forest(&f, &g, &labeling).unwrap();
        (g, red)
    }

    #[test]
    fn rmw_emits_single_add() {
        let (_, red) = reduce_src("(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))");
        // Expected: one `mov $k, vN` per const leaf (both address copies
        // and the operand), plus one RMW add. The Load inside the pattern
        // emits nothing (covered by the RMW rule).
        assert_eq!(red.instructions.len(), 4, "{:?}", red.instructions);
        assert!(red.instructions[3].starts_with("add"));
        assert_eq!(red.total_cost, Cost::finite(4));
    }

    #[test]
    fn plain_store_emits_full_sequence() {
        let (_, red) = reduce_src("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        // mov $0; mov $1; mov $2; add+mov; mov-store = 6 instructions.
        assert_eq!(red.instructions.len(), 6, "{:?}", red.instructions);
        assert_eq!(red.total_cost, Cost::finite(5));
    }

    #[test]
    fn vregs_are_fresh_and_wired() {
        let (_, red) = reduce_src("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let text = red.instructions.join("\n");
        // Three consts allocate v0..v2; Add allocates v3.
        assert!(text.contains("mov $0, v0"), "{text}");
        assert!(text.contains("mov $1, v1"), "{text}");
        assert!(text.contains("mov $2, v2"), "{text}");
        assert!(text.contains("add v1, v2"), "{text}");
        assert!(text.contains("mov v3, (v0)"), "{text}");
    }

    #[test]
    fn applied_rules_follow_postorder() {
        let (g, red) = reduce_src("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        // Every applied pair must have the action of a child before its
        // parent; the last applied rule is the root's stmt rule.
        let (last_node, last_rule) = *red.applied.last().unwrap();
        assert_eq!(g.rule(last_rule).lhs, g.start());
        assert!(red.applied.iter().all(|&(n, _)| n <= last_node));
    }

    #[test]
    fn missing_rule_is_reported() {
        let g = Arc::new(parse_grammar(DEMO).unwrap().normalize());
        struct NoChooser;
        impl RuleChooser for NoChooser {
            fn rule_for(&self, _: NodeId, _: NtId) -> Option<NormalRuleId> {
                None
            }
        }
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, "(ConstI8 1)").unwrap();
        f.add_root(root);
        let mut out = Reduction::default();
        let err = reduce_tree(&f, &g, &NoChooser, root, g.start(), &mut out).unwrap_err();
        assert!(matches!(err, ReduceError::MissingRule { .. }));
    }

    #[test]
    fn cyclic_chooser_is_a_typed_error() {
        let g = Arc::new(
            parse_grammar("%start a\na: b (0)\nb: a (0)\na: ConstI8 (1)\n")
                .unwrap()
                .normalize(),
        );
        // Answers `a: b` for `a` and `b: a` for `b`, at every node.
        struct Loop(Vec<(NtId, NormalRuleId)>);
        impl RuleChooser for Loop {
            fn rule_for(&self, _: NodeId, nt: NtId) -> Option<NormalRuleId> {
                self.0.iter().find(|&&(lhs, _)| lhs == nt).map(|&(_, r)| r)
            }
        }
        let chains = g.chain_rules().iter().map(|&r| (g.rule(r).lhs, r));
        let chooser = Loop(chains.collect());
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, "(ConstI8 1)").unwrap();
        f.add_root(root);
        let err = reduce_forest(&f, &g, &chooser).unwrap_err();
        assert_eq!(
            err,
            ReduceError::CyclicDerivation {
                node: root,
                nt: g.start()
            }
        );
        assert!(err.to_string().contains("loops through itself"), "{err}");
    }

    #[test]
    fn decimals_render_as_display_does() {
        for v in [0, 7, -7, 10, -10, 1_234_567_890_123, i64::MIN, i64::MAX] {
            let mut s = String::new();
            push_int(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        for v in [0, 9, 10, u32::MAX] {
            let mut s = String::new();
            push_vreg(&mut s, v);
            assert_eq!(s, VReg(v).to_string());
        }
    }

    #[test]
    fn display_renders_lines() {
        let (_, red) = reduce_src("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let shown = red.to_string();
        assert_eq!(shown.lines().count(), red.instructions.len());
    }
}
