//! Shared helpers for the integration-test crates. Lives in a
//! subdirectory so cargo does not compile it as a test target of its
//! own; each test crate pulls it in with `mod common;`.

#![allow(dead_code)] // each test crate uses a different subset

use std::sync::Arc;

use odburg::grammar::{CostExpr, GrammarBuilder, Pattern};
use odburg::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random but always well-formed grammar:
/// * every nonterminal has a leaf rule (so everything is derivable),
/// * random base rules over a small operator pool,
/// * random chain rules,
/// * optionally a dynamic "even constant" rule to exercise signatures.
pub fn random_grammar(seed: u64) -> Grammar {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GrammarBuilder::new(&format!("random-{seed}"));

    let num_nts = rng.gen_range(2..5usize);
    let nts: Vec<_> = (0..num_nts).map(|i| b.nt(&format!("n{i}"))).collect();

    let leaf_ops = [
        Op::new(OpKind::Const, TypeTag::I8),
        Op::new(OpKind::AddrLocal, TypeTag::P),
    ];
    let unary_ops = [
        Op::new(OpKind::Load, TypeTag::I8),
        Op::new(OpKind::Neg, TypeTag::I8),
        Op::new(OpKind::Com, TypeTag::I8),
    ];
    let binary_ops = [
        Op::new(OpKind::Add, TypeTag::I8),
        Op::new(OpKind::Sub, TypeTag::I8),
        Op::new(OpKind::Mul, TypeTag::I8),
        Op::new(OpKind::Store, TypeTag::I8),
    ];

    // Guaranteed leaf rule per nonterminal.
    for &nt in &nts {
        let op = leaf_ops[rng.gen_range(0..leaf_ops.len())];
        b.rule(
            nt,
            Pattern::op(op, vec![]),
            CostExpr::Fixed(rng.gen_range(0..4)),
            None,
        );
    }
    // Random base rules, sometimes with nested (multi-node) patterns.
    for _ in 0..rng.gen_range(3..10usize) {
        let lhs = nts[rng.gen_range(0..nts.len())];
        let leaf = |rng: &mut StdRng| Pattern::nt(nts[rng.gen_range(0..nts.len())]);
        let pattern = if rng.gen_bool(0.5) {
            let op = unary_ops[rng.gen_range(0..unary_ops.len())];
            if rng.gen_bool(0.25) {
                // Nested: unary over binary — splits into helper rules.
                let inner = binary_ops[rng.gen_range(0..binary_ops.len() - 1)];
                Pattern::op(
                    op,
                    vec![Pattern::op(inner, vec![leaf(&mut rng), leaf(&mut rng)])],
                )
            } else {
                Pattern::op(op, vec![leaf(&mut rng)])
            }
        } else {
            let op = binary_ops[rng.gen_range(0..binary_ops.len())];
            Pattern::op(op, vec![leaf(&mut rng), leaf(&mut rng)])
        };
        b.rule(lhs, pattern, CostExpr::Fixed(rng.gen_range(0..6)), None);
    }
    // Random chain rules (cycles allowed; the closure handles them).
    for _ in 0..rng.gen_range(0..3usize) {
        let lhs = nts[rng.gen_range(0..nts.len())];
        let from = nts[rng.gen_range(0..nts.len())];
        if lhs != from {
            b.rule(
                lhs,
                Pattern::nt(from),
                CostExpr::Fixed(rng.gen_range(0..3)),
                None,
            );
        }
    }
    // Sometimes a dynamic rule: "constant is even" applicability test.
    if rng.gen_bool(0.5) {
        let dc = b.bind_dyncost(
            "even",
            Arc::new(|forest: &Forest, node| match forest.node(node).payload() {
                Payload::Int(v) if v % 2 == 0 => RuleCost::Finite(0),
                _ => RuleCost::Infinite,
            }),
        );
        let lhs = nts[rng.gen_range(0..nts.len())];
        b.rule(
            lhs,
            Pattern::op(Op::new(OpKind::Const, TypeTag::I8), vec![]),
            CostExpr::Dynamic(dc),
            None,
        );
    }
    b.start(nts[0])
        .build()
        .expect("random grammars are well-formed")
}

/// Total optimal cost of a forest according to a chooser + reducer.
pub fn total_cost(forest: &Forest, normal: &Arc<NormalGrammar>, chooser: &dyn RuleChooser) -> Cost {
    odburg::codegen::reduce_forest(forest, normal, chooser)
        .expect("reduce")
        .total_cost
}

/// The differential oracle: a fresh iburg-style dynamic-programming
/// labeler, built from scratch for one forest, reduced to instructions.
/// Every automaton, server and cluster path must match it bit for bit —
/// instruction sequence and total cost.
pub fn dp_reduction(forest: &Forest, normal: &Arc<NormalGrammar>) -> Reduction {
    let mut dp = DpLabeler::new(Arc::clone(normal));
    let labeling = dp.label_forest(forest).expect("dp labels the forest");
    odburg::codegen::reduce_forest(forest, normal, &labeling).expect("dp reduces")
}

/// A grammar where every distinct constant (modulo 257) mints a
/// distinct signature *and* a distinct normalized state — the imm/reg
/// cost spread is the value itself — so churny traffic grows every
/// table component without bound unless a budget reins it in. The
/// churn workload of the budget, compaction and shutdown tests.
pub fn churn_grammar() -> Arc<NormalGrammar> {
    let mut g = parse_grammar(
        r#"
        %grammar churn
        %start stmt
        %dyncost val
        imm: ConstI8 (0)
        reg: ConstI8 [val]
        reg: AddI8(reg, imm) (1)
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .expect("churn grammar parses");
    g.bind_dyncost(
        "val",
        Arc::new(|forest: &Forest, node: NodeId| {
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            RuleCost::Finite((v.unsigned_abs() % 257) as u16)
        }),
    )
    .expect("dyncost binds");
    Arc::new(g.normalize())
}
