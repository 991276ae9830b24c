//! The one-pass reducer against the recursive reducer it replaced.
//!
//! The benchmark's oracle goes through `reduce_forest` itself, so it
//! cannot catch a reducer regression; this suite can. The old reducer
//! lives on below as `reference`, and every input must reduce to the same
//! instructions, applied rules, total cost and error under both, with the
//! choices of `DpLabeler` and of `OnDemandAutomaton`.

mod common;

use std::sync::Arc;

use odburg::codegen::ReduceError;
use odburg::frontend::programs;
use odburg::grammar::GrammarBuilder;
use odburg::ir::cse_forest;
use odburg::prelude::*;
use odburg::workloads::{builtin_traffic, random_workload};

/// The recursive, hash-map reducer as it was before the one-pass walk.
mod reference {
    use std::collections::{HashMap, HashSet};

    use odburg::codegen::{ReduceError, Reduction, VReg};
    use odburg::grammar::{Cost, NormalGrammar, NormalRhs, NormalRuleId, NtId, Pattern};
    use odburg::ir::{Forest, NodeId, Payload};
    use odburg::prelude::RuleChooser;

    /// Result registers and visited derivations, shared across roots.
    #[derive(Default)]
    struct Ctx {
        results: HashMap<(NodeId, NtId), VReg>,
        done: HashSet<(NodeId, NtId)>,
        next_vreg: u32,
    }

    pub fn reduce_forest(
        forest: &Forest,
        grammar: &NormalGrammar,
        chooser: &dyn RuleChooser,
    ) -> Result<Reduction, ReduceError> {
        let mut out = Reduction::default();
        let mut ctx = Ctx::default();
        for &root in forest.roots() {
            reduce_at(
                forest,
                grammar,
                chooser,
                root,
                grammar.start(),
                &mut out,
                &mut ctx,
            )?;
        }
        Ok(out)
    }

    /// `reduce_tree` with fresh bookkeeping per call; `next_vreg`
    /// carries the register numbering across calls into one `out`.
    pub fn reduce_tree(
        forest: &Forest,
        grammar: &NormalGrammar,
        chooser: &dyn RuleChooser,
        root: NodeId,
        goal: NtId,
        out: &mut Reduction,
        next_vreg: &mut u32,
    ) -> Result<(), ReduceError> {
        let mut ctx = Ctx {
            next_vreg: *next_vreg,
            ..Ctx::default()
        };
        let result = reduce_at(forest, grammar, chooser, root, goal, out, &mut ctx);
        *next_vreg = ctx.next_vreg;
        result
    }

    fn reduce_at(
        forest: &Forest,
        grammar: &NormalGrammar,
        chooser: &dyn RuleChooser,
        node: NodeId,
        goal: NtId,
        out: &mut Reduction,
        ctx: &mut Ctx,
    ) -> Result<(), ReduceError> {
        if ctx.done.contains(&(node, goal)) {
            return Ok(());
        }
        let rule_id = chooser
            .rule_for(node, goal)
            .ok_or(ReduceError::MissingRule { node, nt: goal })?;
        let rule = grammar.rule(rule_id);
        match &rule.rhs {
            NormalRhs::Chain { from } => {
                reduce_at(forest, grammar, chooser, node, *from, out, ctx)?;
            }
            NormalRhs::Base { operands, .. } => {
                for (i, &operand) in operands.iter().enumerate() {
                    let child = forest.node(node).child(i);
                    reduce_at(forest, grammar, chooser, child, operand, out, ctx)?;
                }
            }
        }
        match grammar.rule_cost_at(rule_id, forest, node).value() {
            Some(v) => out.total_cost = out.total_cost + Cost::from(v),
            None => {
                return Err(ReduceError::InapplicableRule {
                    node,
                    rule: rule_id,
                })
            }
        }
        out.applied.push((node, rule_id));
        if rule.is_final {
            fire_action(forest, grammar, rule_id, node, goal, out, ctx);
        }
        ctx.done.insert((node, goal));
        Ok(())
    }

    fn fire_action(
        forest: &Forest,
        grammar: &NormalGrammar,
        rule_id: NormalRuleId,
        node: NodeId,
        goal: NtId,
        out: &mut Reduction,
        ctx: &mut Ctx,
    ) {
        let source = grammar.source_rule(rule_id);
        let mut leaves: Vec<(NodeId, NtId)> = Vec::new();
        let mut first_payload: Option<Payload> = None;
        collect_pattern_leaves(
            forest,
            &source.pattern,
            node,
            &mut leaves,
            &mut first_payload,
        );

        let Some(template) = &source.template else {
            if let Some(&(leaf_node, leaf_nt)) = leaves.first() {
                if let Some(&v) = ctx.results.get(&(leaf_node, leaf_nt)) {
                    ctx.results.insert((node, goal), v);
                }
            }
            return;
        };

        let dst = if template.contains("{dst}") {
            let v = VReg(ctx.next_vreg);
            ctx.next_vreg += 1;
            ctx.results.insert((node, goal), v);
            Some(v)
        } else {
            None
        };

        for part in template.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.instructions.push(render(
                part,
                forest,
                node,
                dst,
                &leaves,
                first_payload,
                &ctx.results,
            ));
        }
    }

    fn collect_pattern_leaves(
        forest: &Forest,
        pattern: &Pattern,
        node: NodeId,
        leaves: &mut Vec<(NodeId, NtId)>,
        first_payload: &mut Option<Payload>,
    ) {
        match pattern {
            Pattern::Nt(nt) => leaves.push((node, *nt)),
            Pattern::Op { children, .. } => {
                if first_payload.is_none() {
                    match forest.node(node).payload() {
                        Payload::None => {}
                        p => *first_payload = Some(p),
                    }
                }
                for (i, c) in children.iter().enumerate() {
                    let child = forest.node(node).child(i);
                    collect_pattern_leaves(forest, c, child, leaves, first_payload);
                }
            }
        }
    }

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
            Payload::Int(v) => s.push_str(&v.to_string()),
            Payload::FloatBits(b) => s.push_str(&f64::from_bits(b).to_string()),
            Payload::Sym(sym) => s.push_str(forest.symbol(sym)),
            Payload::None => s.push_str("?payload"),
        }
    }

    fn render(
        template: &str,
        forest: &Forest,
        node: NodeId,
        dst: Option<VReg>,
        leaves: &[(NodeId, NtId)],
        first_payload: Option<Payload>,
        results: &HashMap<(NodeId, NtId), VReg>,
    ) -> String {
        let mut s = String::with_capacity(template.len() + 8);
        let mut rest = template;
        while let Some(open) = rest.find('{') {
            s.push_str(&rest[..open]);
            let Some(close) = rest[open..].find('}') else {
                rest = &rest[open..];
                break;
            };
            let key = &rest[open + 1..open + close];
            match key {
                "dst" => match dst {
                    Some(v) => s.push_str(&v.to_string()),
                    None => s.push_str("?dst"),
                },
                "a" | "b" | "c" | "d" => {
                    let idx = (key.as_bytes()[0] - b'a') as usize;
                    match leaves.get(idx).and_then(|k| results.get(k)) {
                        Some(v) => s.push_str(&v.to_string()),
                        None => {
                            match leaves.get(idx).and_then(|&(n, _)| payload_below(forest, n)) {
                                Some(p) => push_payload(&mut s, forest, p),
                                None => {
                                    s.push('?');
                                    s.push_str(key);
                                }
                            }
                        }
                    }
                }
                "pa" | "pb" | "pc" | "pd" => {
                    let idx = (key.as_bytes()[1] - b'a') as usize;
                    match leaves.get(idx).map(|&(n, _)| forest.node(n).payload()) {
                        Some(p) if p != Payload::None => push_payload(&mut s, forest, p),
                        _ => {
                            s.push('?');
                            s.push_str(key);
                        }
                    }
                }
                "imm" => {
                    let p = first_payload.unwrap_or_else(|| forest.node(node).payload());
                    if p == Payload::None {
                        s.push_str("?imm");
                    } else {
                        push_payload(&mut s, forest, p);
                    }
                }
                "sym" => match first_payload {
                    Some(Payload::Sym(sym)) => s.push_str(forest.symbol(sym)),
                    Some(Payload::Int(v)) => s.push_str(&v.to_string()),
                    _ => s.push_str("?sym"),
                },
                "lbl" => match forest.node(node).payload() {
                    Payload::Sym(sym) => s.push_str(forest.symbol(sym)),
                    Payload::Int(v) => s.push_str(&v.to_string()),
                    _ => s.push_str("?lbl"),
                },
                other => {
                    s.push('{');
                    s.push_str(other);
                    s.push('}');
                }
            }
            rest = &rest[open + close + 1..];
        }
        s.push_str(rest);
        s
    }
}

/// Forests and instructions compared, for a suite's floor assertions.
#[derive(Debug, Default)]
struct Tally {
    forests: usize,
    instructions: usize,
    errors: usize,
}

impl Tally {
    /// Reduces `forest` with both reducers and asserts they agree.
    fn check(
        &mut self,
        forest: &Forest,
        normal: &NormalGrammar,
        chooser: &dyn RuleChooser,
        what: &str,
    ) {
        let new = reduce_forest(forest, normal, chooser);
        let old = reference::reduce_forest(forest, normal, chooser);
        match (new, old) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.instructions, old.instructions, "{what}: instructions");
                assert_eq!(new.applied, old.applied, "{what}: applied rules");
                assert_eq!(new.total_cost, old.total_cost, "{what}: total cost");
                self.instructions += new.instructions.len();
            }
            (Err(new), Err(old)) => {
                assert_eq!(new, old, "{what}: error");
                self.errors += 1;
            }
            (new, old) => panic!("{what}: one-pass {new:?}, reference {old:?}"),
        }
        self.forests += 1;
    }

    /// Checks `forest` under the choices of a fresh `DpLabeler` and of
    /// `od`, when they can label it.
    fn check_both(
        &mut self,
        forest: &Forest,
        normal: &Arc<NormalGrammar>,
        od: &mut OnDemandAutomaton,
        what: &str,
    ) {
        if let Ok(labeling) = DpLabeler::new(Arc::clone(normal)).label_forest(forest) {
            self.check(forest, normal, &labeling, &format!("{what} (dp)"));
        }
        if let Ok(labeling) = od.label_forest(forest) {
            self.check(
                forest,
                normal,
                &labeling.chooser(od),
                &format!("{what} (ondemand)"),
            );
        }
    }
}

#[test]
fn minic_programs_and_their_dags_reduce_identically() {
    let mut tally = Tally::default();
    for grammar in odburg::targets::all() {
        let normal = Arc::new(grammar.normalize());
        let mut od = OnDemandAutomaton::new(Arc::clone(&normal));
        for program in programs::all() {
            let tree = program.compile().unwrap();
            let what = format!("{} on {}", program.name, grammar.name());
            tally.check_both(&tree, &normal, &mut od, &what);
            tally.check_both(
                &cse_forest(&tree),
                &normal,
                &mut od,
                &format!("{what} (dag)"),
            );
        }
    }
    // 17 programs x 5 real targets x {tree, dag} x {dp, ondemand}; the
    // demo target covers none of them.
    assert!(tally.forests >= 340, "{tally:?}");
    assert_eq!(tally.errors, 0, "{tally:?}");
}

#[test]
fn builtin_traffic_reduces_identically() {
    let grammars: Vec<(String, Arc<NormalGrammar>)> = odburg::targets::all()
        .iter()
        .map(|g| (g.name().to_owned(), Arc::new(g.normalize())))
        .collect();
    let mut automata: Vec<OnDemandAutomaton> = grammars
        .iter()
        .map(|(_, g)| OnDemandAutomaton::new(Arc::clone(g)))
        .collect();
    let mut tally = Tally::default();
    for seed in [1, 2, 3] {
        for (i, job) in builtin_traffic(seed, 300).iter().enumerate() {
            let t = grammars
                .iter()
                .position(|(name, _)| *name == job.target)
                .unwrap();
            let what = format!("seed {seed} job {i} on {}", job.target);
            tally.check_both(&job.forest, &grammars[t].1, &mut automata[t], &what);
        }
    }
    assert!(tally.forests >= 1800, "{tally:?}");
}

/// `grammar` with a template on every rule, cycling through every
/// placeholder, the `?…` fallbacks and the malformed cases.
fn with_templates(grammar: &Grammar) -> Grammar {
    const TEMPLATES: [Option<&str>; 6] = [
        Some("op {a}, {b}, {dst}"),
        None,
        Some(" x {c} {d} {pa} {pb} ; ; y {imm} {sym} {lbl} -> {dst} "),
        Some("{pc} {pd} {e} {} {{dst}} {a"),
        Some(""),
        Some("z {a}; w {dst}"),
    ];
    let mut b = GrammarBuilder::new(grammar.name());
    for name in grammar.nonterminals() {
        b.nt(name);
    }
    for dc in grammar.dyncosts() {
        b.bind_dyncost(&dc.name, Arc::clone(&dc.func));
    }
    for rule in grammar.rules() {
        let template = TEMPLATES[rule.id.0 as usize % TEMPLATES.len()];
        b.rule(
            rule.lhs,
            rule.pattern.clone(),
            rule.cost,
            template.map(str::to_owned),
        );
    }
    b.start(grammar.start()).build().unwrap()
}

#[test]
fn random_grammars_reduce_identically() {
    let mut tally = Tally::default();
    for seed in 0..150 {
        let normal = Arc::new(with_templates(&common::random_grammar(seed)).normalize());
        let mut od = OnDemandAutomaton::new(Arc::clone(&normal));
        let workload = random_workload(&normal, seed, 12);
        tally.check_both(
            &workload.forest,
            &normal,
            &mut od,
            &format!("random grammar {seed}"),
        );
    }
    assert!(tally.forests >= 150 && tally.instructions > 0, "{tally:?}");
}

#[test]
fn per_root_reduce_tree_matches_and_numbers_registers_across_calls() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let mut dp = DpLabeler::new(Arc::clone(&normal));
    for program in programs::all() {
        let forest = program.compile().unwrap();
        let labeling = dp.label_forest(&forest).unwrap();
        let (mut new, mut old, mut next_vreg) = (Reduction::default(), Reduction::default(), 0);
        for &root in forest.roots() {
            let a = reduce_tree(&forest, &normal, &labeling, root, normal.start(), &mut new);
            let b = reference::reduce_tree(
                &forest,
                &normal,
                &labeling,
                root,
                normal.start(),
                &mut old,
                &mut next_vreg,
            );
            assert_eq!(a, b, "{}", program.name);
        }
        assert_eq!(new.instructions, old.instructions, "{}", program.name);
        assert_eq!(new.applied, old.applied, "{}", program.name);
        assert_eq!(new.total_cost, old.total_cost, "{}", program.name);
    }
}

#[test]
fn missing_rule_is_the_same_error() {
    let grammar = parse_grammar(
        "%start stmt\nstmt: StoreI8(addr, reg) (1)\naddr: reg (0)\nreg: ConstI8 (1)\n",
    )
    .unwrap();
    let normal = Arc::new(grammar.normalize());
    let mut forest = Forest::new();
    let root = parse_sexpr(&mut forest, "(ConstI8 1)").unwrap();
    forest.add_root(root);
    let mut od = OnDemandAutomaton::new(Arc::clone(&normal));
    let mut tally = Tally::default();
    tally.check_both(&forest, &normal, &mut od, "bare constant");
    assert_eq!((tally.forests, tally.errors), (2, 2));
    assert!(matches!(
        reduce_forest(
            &forest,
            &normal,
            &DpLabeler::new(Arc::clone(&normal))
                .label_forest(&forest)
                .unwrap()
        ),
        Err(ReduceError::MissingRule { .. })
    ));
}

#[test]
fn a_million_deep_chain_reduces_without_recursion() {
    const DEPTH: usize = 1_000_000;
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let mut forest = Forest::new();
    let mut node = forest.leaf(Op::new(OpKind::Const, TypeTag::I8), Payload::Int(7));
    for _ in 0..DEPTH {
        node = forest.unary(Op::new(OpKind::Neg, TypeTag::I8), node);
    }
    let root = forest.unary(Op::new(OpKind::Ret, TypeTag::I8), node);
    forest.add_root(root);
    let mut od = OnDemandAutomaton::new(Arc::clone(&normal));
    let labeling = od.label_forest(&forest).unwrap();
    let red = reduce_forest(&forest, &normal, &labeling.chooser(&od)).unwrap();
    // One `movl` for the constant, two instructions per negation, and
    // the two of the return.
    assert_eq!(red.instructions.len(), 2 * DEPTH + 3);
    assert_eq!(red.instructions[0], "movl $7, v0");
    assert_eq!(
        red.instructions[2 * DEPTH + 1],
        format!("movq v{DEPTH}, %rax")
    );
}
