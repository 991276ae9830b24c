//! The state-computation core: one dynamic-programming step over the
//! grammar, shared by every automaton construction.
//!
//! Given an operator and the states of the children, [`compute_state`]
//! produces the (normalized) state of the parent node: per nonterminal,
//! the cheapest applicable base rule, closed over chain rules. This is
//! exactly the per-node work an iburg-style labeler performs — the
//! automata differ only in *memoizing* its result. The on-demand grow path
//! calls it once per missed transition; the representer closure behind
//! both the offline automaton and the grammar verifier
//! ([`verify`](crate::verify)) calls it once per combination of operand
//! representers, with [`fixed_only`].

use odburg_grammar::{Cost, CostExpr, NormalGrammar, NormalRhs, NormalRuleId, RuleCost};
use odburg_ir::Op;

use crate::counters::WorkCounters;
use crate::state::StateData;

/// Computes the state for a node with operator `op` whose children are in
/// states `kids` (full or projected — only the operand nonterminals of
/// `op`'s base rules are read).
///
/// `dyn_cost` supplies the selection-time cost of every dynamic-cost rule;
/// pass [`fixed_only`] when dynamic rules should be treated as
/// inapplicable (the offline automaton's view). Whoever evaluates the
/// cost functions behind it counts them in
/// [`dyncost_evals`](WorkCounters::dyncost_evals): the on-demand grow
/// path answers it from the costs it evaluated, and counted, for the
/// node's signature.
///
/// The returned state is normalized but not yet interned. A *dead* state
/// (nothing derivable) is returned as-is; callers decide whether that is
/// an error.
pub fn compute_state(
    grammar: &NormalGrammar,
    op: Op,
    kids: &[&StateData],
    mut dyn_cost: impl FnMut(NormalRuleId) -> RuleCost,
    counters: &mut WorkCounters,
) -> StateData {
    debug_assert_eq!(kids.len(), op.arity());
    let mut state = StateData::empty(grammar.num_nts());

    // Base rules: cost = rule cost + sum of child costs for the operand
    // nonterminals. Child states may be projections: operand nonterminal
    // `nts[j]` sits at slot `j`, so resolve through the projection map if
    // the child state is narrower than the grammar. Full states use the
    // identity mapping.
    for &rule_id in grammar.base_rules(op) {
        counters.rule_checks += 1;
        let rule = grammar.rule(rule_id);
        let rule_cost = rule_cost_of(grammar, rule_id, &mut dyn_cost);
        let mut total = Cost::from(rule_cost);
        if total.is_infinite() {
            continue;
        }
        let NormalRhs::Base { operands, .. } = &rule.rhs else {
            unreachable!("base_rules index returned a chain rule");
        };
        for (i, &operand) in operands.iter().enumerate() {
            let kid = kids[i];
            let slot = if kid.len() == grammar.num_nts() {
                operand
            } else {
                // Projected child state: operand nts are re-indexed in the
                // order given by `operand_nts(op, i)`.
                let nts = grammar.operand_nts(op, i);
                let idx = nts
                    .binary_search(&operand)
                    .expect("operand nt missing from projection");
                odburg_grammar::NtId(idx as u16)
            };
            total = total + kid.cost(slot);
            if total.is_infinite() {
                break;
            }
        }
        if total.is_finite() {
            state.improve(rule.lhs, total, rule_id);
        }
    }

    close_chains(grammar, &mut state, &mut dyn_cost, counters);
    state.normalize();
    state
}

/// Closes `state` over the grammar's chain rules (repeated passes until a
/// fixpoint; strict improvement guarantees termination even for zero-cost
/// chain cycles).
pub fn close_chains(
    grammar: &NormalGrammar,
    state: &mut StateData,
    dyn_cost: &mut impl FnMut(NormalRuleId) -> RuleCost,
    counters: &mut WorkCounters,
) {
    loop {
        let mut changed = false;
        for &rule_id in grammar.chain_rules() {
            counters.chain_checks += 1;
            let rule = grammar.rule(rule_id);
            let NormalRhs::Chain { from } = rule.rhs else {
                unreachable!("chain_rules index returned a base rule");
            };
            let from_cost = state.cost(from);
            if from_cost.is_infinite() {
                continue;
            }
            let rule_cost = rule_cost_of(grammar, rule_id, dyn_cost);
            let total = Cost::from(rule_cost) + from_cost;
            if total.is_finite() && state.improve(rule.lhs, total, rule_id) {
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

fn rule_cost_of(
    grammar: &NormalGrammar,
    rule_id: NormalRuleId,
    dyn_cost: &mut impl FnMut(NormalRuleId) -> RuleCost,
) -> RuleCost {
    match grammar.rule(rule_id).cost {
        CostExpr::Fixed(c) => RuleCost::Finite(c),
        CostExpr::Dynamic(_) => dyn_cost(rule_id),
    }
}

/// A `dyn_cost` callback that makes every dynamic rule inapplicable.
pub fn fixed_only(_: NormalRuleId) -> RuleCost {
    RuleCost::Infinite
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_grammar::parse_grammar;

    const DEMO: &str = r#"
        %grammar demo
        %start stmt
        addr: reg (0)
        reg: ConstI8 (1)
        reg: LoadI8(addr) (1)
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(addr, reg) (1)
        stmt: StoreI8(addr, AddI8(LoadI8(addr), reg)) (1)
    "#;

    fn op(name: &str) -> Op {
        name.parse().unwrap()
    }

    #[test]
    fn leaf_state_has_chain_closure() {
        let g = parse_grammar(DEMO).unwrap().normalize();
        let mut c = WorkCounters::new();
        let s = compute_state(&g, op("ConstI8"), &[], fixed_only, &mut c);
        let reg = g.find_nt("reg").unwrap();
        let addr = g.find_nt("addr").unwrap();
        assert_eq!(s.cost(reg), Cost::ZERO); // normalized: reg is cheapest
        assert_eq!(s.cost(addr), Cost::ZERO); // addr: reg chain costs 0
        assert!(s.cost(g.start()).is_infinite());
        assert!(c.rule_checks > 0);
    }

    #[test]
    fn rmw_pattern_wins_where_applicable() {
        let g = parse_grammar(DEMO).unwrap().normalize();
        let mut c = WorkCounters::new();
        let const_s = compute_state(&g, op("ConstI8"), &[], fixed_only, &mut c);
        let load_s = compute_state(&g, op("LoadI8"), &[&const_s], fixed_only, &mut c);
        let add_s = compute_state(&g, op("AddI8"), &[&load_s, &const_s], fixed_only, &mut c);
        let store_s = compute_state(&g, op("StoreI8"), &[&const_s, &add_s], fixed_only, &mut c);
        // Rule 6 (split) derives stmt at relative cost 0 while the plain
        // store (rule 5) needs the full Add derivation: the optimal rule
        // for stmt must be the final split rule of source rule 5 (0-based).
        let stmt = g.rule(store_s.rule(g.start()).unwrap());
        assert!(stmt.is_final);
        assert_eq!(stmt.source, odburg_grammar::RuleId(5));
    }

    #[test]
    fn dead_state_for_uncovered_op() {
        let g = parse_grammar(DEMO).unwrap().normalize();
        let mut c = WorkCounters::new();
        let s = compute_state(&g, op("ConstF8"), &[], fixed_only, &mut c);
        assert!(s.is_dead());
    }

    #[test]
    fn dynamic_costs_respected() {
        let g = parse_grammar(
            r#"
            %start reg
            %dyncost imm8
            reg: ConstI8 [imm8]
            reg: ConstI8 (4)
            "#,
        )
        .unwrap()
        .normalize();
        let mut c = WorkCounters::new();
        let mut consulted = 0;
        let mut applicable = |_: NormalRuleId| {
            consulted += 1;
            RuleCost::Finite(0)
        };
        // Dynamic rule applicable with cost 0: it wins.
        let s = compute_state(&g, op("ConstI8"), &[], &mut applicable, &mut c);
        assert_eq!(s.rule(g.start()), Some(NormalRuleId(0)));
        // Dynamic rule inapplicable: fixed rule wins.
        let s = compute_state(&g, op("ConstI8"), &[], fixed_only, &mut c);
        assert_eq!(s.rule(g.start()), Some(NormalRuleId(1)));
        // The callback is consulted for the dynamic rule; counting the
        // evaluation behind it is its owner's business.
        assert_eq!((consulted, c.dyncost_evals), (1, 0));
    }

    #[test]
    fn projected_children_give_same_state() {
        let g = parse_grammar(DEMO).unwrap().normalize();
        let mut c = WorkCounters::new();
        let const_s = compute_state(&g, op("ConstI8"), &[], fixed_only, &mut c);
        let full = compute_state(&g, op("LoadI8"), &[&const_s], fixed_only, &mut c);
        let proj = const_s.project(g.operand_nts(op("LoadI8"), 0));
        let via_proj = compute_state(&g, op("LoadI8"), &[&proj], fixed_only, &mut c);
        assert_eq!(full, via_proj);
    }
}
