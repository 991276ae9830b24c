//! The grammar verifier: typed diagnostics with stable codes.
//!
//! [`analyze_full`] runs the grammar-only passes of
//! [`odburg_grammar::analysis`] (`G0001`, `G0002`, `G0004`–`G0006`) and the
//! representer closure that builds the offline automaton, over the
//! registered grammar with every dynamic-cost rule inapplicable (helper
//! rules split from dynamic rules stay applicable, as in every labeler).
//! An uncovered combination is a completeness hole (`G0003`), reported per
//! operator with its smallest known witness tree; a result whose
//! normalized spread exceeds `64 + 8 ·` the largest fixed rule cost is a
//! divergence (`G0007`); a closure stopped at 1,024 automaton states
//! without one is `G0008`. Otherwise the [`StateBound`] is the automaton's
//! state count, split by the root operator of each state's smallest known
//! tree; without dynamic rules it equals
//! [`OfflineAutomaton::num_states`](crate::OfflineAutomaton::num_states).

use std::collections::{BTreeMap, BTreeSet};

use odburg_grammar::analysis::{self, Analysis, Code, Diagnostic, Severity, StateBound, Witness};
use odburg_grammar::{Cost, CostExpr, NormalGrammar, NtId};
use odburg_ir::{Forest, NodeId, Op, OpKind, Payload, TypeTag};

use crate::closure::{close, Closure, Origin};

/// Automaton states the verifier's closure may build. Reaching it without
/// a divergence yields `G0008` (info) instead of a state bound.
const MAX_STATES: usize = 1024;

/// Runs every grammar analysis and returns the findings, deterministically
/// ordered (most severe first, then by code, then by subject).
///
/// # Examples
///
/// ```
/// use odburg_core::verify;
/// use odburg_grammar::analysis::{Code, Severity};
/// use odburg_grammar::parse_grammar;
///
/// let g = parse_grammar("%start a\na: ConstI8 (1)\na: ConstI8 (3)\n")?;
/// let diags = verify::analyze(&g.normalize());
/// assert_eq!(diags.len(), 1);
/// assert_eq!(diags[0].code, Code::DominatedRule);
/// assert_eq!(diags[0].severity, Severity::Warning);
/// # Ok::<(), odburg_grammar::GrammarError>(())
/// ```
pub fn analyze(grammar: &NormalGrammar) -> Vec<Diagnostic> {
    analyze_full(grammar).diagnostics
}

/// Like [`analyze`], but also returns the [`StateBound`] when the closure
/// converges.
pub fn analyze_full(grammar: &NormalGrammar) -> Analysis {
    let max_rule_cost = grammar
        .rules()
        .iter()
        .filter_map(|r| match r.cost {
            CostExpr::Fixed(c) => Some(c as u32),
            CostExpr::Dynamic(_) => None,
        })
        .max()
        .unwrap_or(0);
    // A converging grammar keeps normalized deltas within a small multiple
    // of its own cost scale; beyond this the pair is diverging.
    let delta_cap = Cost::finite(64 + 8 * max_rule_cost.min(1024));
    let closure = close(grammar, MAX_STATES, delta_cap);
    let mut diagnostics = analysis::grammar_diagnostics(grammar);
    let state_bound = closure_diags(grammar, &closure, &mut diagnostics);
    Analysis::new(diagnostics, state_bound)
}

/// A payload that makes a synthesized witness node well-formed; payloads
/// never affect fixed-rule labeling.
fn witness_payload(forest: &mut Forest, op: Op) -> Payload {
    match op.kind {
        OpKind::Const => match op.ty {
            TypeTag::F4 | TypeTag::F8 => Payload::FloatBits(0),
            _ => Payload::Int(0),
        },
        OpKind::AddrGlobal | OpKind::AddrFrame | OpKind::AddrLocal => {
            Payload::Sym(forest.intern("w"))
        }
        OpKind::Label
        | OpKind::Jump
        | OpKind::BrEq
        | OpKind::BrNe
        | OpKind::BrLt
        | OpKind::BrLe
        | OpKind::BrGt
        | OpKind::BrGe => Payload::Sym(forest.intern("L")),
        _ => Payload::None,
    }
}

/// Materializes `tree` into `forest`, each kid through the smallest tree
/// known to reach its state, returning its root.
fn materialize(closure: &Closure, tree: &Origin, forest: &mut Forest) -> NodeId {
    let kids: Vec<NodeId> = tree.kids[..tree.op.arity()]
        .iter()
        .map(|kid| materialize(closure, &closure.origins[kid.0 as usize], forest))
        .collect();
    let payload = witness_payload(forest, tree.op);
    forest.push(tree.op, &kids, payload)
}

/// Turns the closure's output into G0003/G0007/G0008 diagnostics and,
/// when the closure converged, the state bound.
fn closure_diags(
    grammar: &NormalGrammar,
    closure: &Closure,
    diags: &mut Vec<Diagnostic>,
) -> Option<StateBound> {
    let mut holes: BTreeMap<u16, Origin> = BTreeMap::new();
    for &combo in &closure.uncovered {
        let tree = closure.tree(grammar, combo);
        let hole = holes.entry(combo.op.id().0).or_insert(tree);
        if tree.size < hole.size {
            *hole = tree;
        }
    }
    let (severity, tail) = if grammar.has_dynamic_rules() {
        (
            Severity::Warning,
            " when every dynamic-cost rule is inapplicable",
        )
    } else {
        (Severity::Error, "")
    };
    for hole in holes.values() {
        let mut forest = Forest::default();
        let root = materialize(closure, hole, &mut forest);
        forest.add_root(root);
        let mut d = Diagnostic::new(
            Code::IncompleteOperator,
            severity,
            format!(
                "selection can fail at operator {}: no rule covers it for some achievable \
                 operands (minimal witness: {}-node tree){tail}",
                hole.op,
                forest.len()
            ),
        );
        d.operators.push(hole.op);
        d.witness = Some(Witness::NoCover { forest, root });
        diags.push(d);
    }

    // One divergence per pair of the cheapest and the dearest derivable
    // nonterminal, at the first result that escaped the cap.
    let mut pairs: BTreeSet<(NtId, NtId)> = BTreeSet::new();
    for (combo, state) in &closure.over_cap {
        let first = |cost: Cost| {
            (0..state.len() as u16)
                .map(NtId)
                .find(|&nt| state.cost(nt) == cost)
                .unwrap_or(NtId(0))
        };
        let (lo, hi) = (first(Cost::ZERO), first(state.max_delta()));
        let (a, b) = (lo.min(hi), lo.max(hi));
        if !pairs.insert((a, b)) {
            continue;
        }
        let delta = state.max_delta().value().unwrap_or(0);
        let mut d = Diagnostic::new(
            Code::CostDivergence,
            Severity::Warning,
            format!(
                "the relative cost of `{}` and `{}` grows without bound with tree depth \
                 (observed delta {delta}); the grammar is not BURS-finite and offline automaton \
                 construction will diverge (the on-demand automaton still works per workload)",
                grammar.nt_name(a),
                grammar.nt_name(b),
            ),
        );
        d.nonterminals = vec![a, b];
        d.operators.push(combo.op);
        // An interned state where the pair coexists at a small delta, for
        // the "grows from d1 to d2" half of the witness.
        let prior = closure
            .states
            .iter()
            .filter_map(|(id, st)| Some((st.cost(a).value()?.abs_diff(st.cost(b).value()?), id)))
            .min();
        if let Some((d1, id)) = prior {
            let mut forest = Forest::default();
            let small = materialize(closure, &closure.origins[id.0 as usize], &mut forest);
            let big = materialize(closure, &closure.tree(grammar, *combo), &mut forest);
            forest.add_root(small);
            forest.add_root(big);
            d.witness = Some(Witness::Divergence {
                forest,
                roots: (small, big),
                nonterminals: (a, b),
                deltas: (d1, delta),
            });
        }
        diags.push(d);
    }

    if !pairs.is_empty() {
        return None;
    }
    if closure.truncated {
        diags.push(Diagnostic::new(
            Code::AnalysisTruncated,
            Severity::Info,
            format!(
                "achievable-state exploration stopped at {MAX_STATES} states without \
                 converging; no divergence proved, but no table-size bound exists either"
            ),
        ));
        return None;
    }
    let mut per_op: BTreeMap<u16, (Op, usize)> = BTreeMap::new();
    for origin in &closure.origins {
        per_op.entry(origin.op.id().0).or_insert((origin.op, 0)).1 += 1;
    }
    Some(StateBound {
        states: closure.states.len(),
        per_op: per_op.into_values().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_grammar::parse_grammar;

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn analyze_detects_divergence_with_witness() {
        // The canonical non-BURS-finite grammar: a and b compete at Store
        // operands, their Load costs differ, no chain connects them.
        let g = parse_grammar(
            "%start s\na: ConstI8 (0)\na: LoadI8(a) (1)\nb: ConstI8 (0)\nb: LoadI8(b) (2)\ns: StoreI8(a, b) (1)\ns: StoreI8(b, a) (1)\n",
        )
        .unwrap();
        let n = g.normalize();
        let full = analyze_full(&n);
        let div: Vec<_> = full
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::CostDivergence)
            .collect();
        assert_eq!(div.len(), 1, "{:?}", full.diagnostics);
        assert!(full.state_bound.is_none());
        let Some(Witness::Divergence { deltas, .. }) = &div[0].witness else {
            panic!("divergence without witness: {:?}", div[0]);
        };
        assert!(deltas.1 > deltas.0, "{deltas:?}");

        // Connecting the classes with a chain rule restores convergence.
        let g2 = parse_grammar(
            "%start s\na: ConstI8 (0)\na: LoadI8(a) (1)\nb: ConstI8 (0)\nb: LoadI8(b) (2)\nb: a (0)\ns: StoreI8(a, b) (1)\ns: StoreI8(b, a) (1)\n",
        )
        .unwrap();
        let full2 = analyze_full(&g2.normalize());
        assert!(
            !codes(&full2.diagnostics).contains(&Code::CostDivergence),
            "{:?}",
            full2.diagnostics
        );
        let bound = full2.state_bound.expect("converged exploration");
        assert!(bound.states > 0);
    }

    #[test]
    fn analyze_finds_cross_product_incompleteness() {
        // Store covers (a, b) and (b, a) but not (a, a): a two-leaf Store
        // where both children only derive `a` has no covering rule.
        let g = parse_grammar(
            "%start s\na: ConstI8 (0)\nb: ConstI4 (0)\ns: StoreI8(a, b) (1)\ns: StoreI8(b, a) (1)\n",
        )
        .unwrap();
        let n = g.normalize();
        let diags = analyze(&n);
        let inc: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::IncompleteOperator)
            .collect();
        assert_eq!(inc.len(), 1, "{diags:?}");
        assert_eq!(inc[0].severity, Severity::Error);
        let Some(Witness::NoCover { forest, root }) = &inc[0].witness else {
            panic!("incompleteness without witness: {:?}", inc[0]);
        };
        assert_eq!(forest.roots(), &[*root]);
        assert_eq!(forest.len(), 3, "minimal witness is Store(leaf, leaf)");
    }

    #[test]
    fn incompleteness_is_a_warning_with_dynamic_rules() {
        // Dynamic-only coverage of ConstI8: conservatively incomplete, but
        // only a warning because a dynamic rule may cover it at runtime.
        let g = parse_grammar("%start reg\n%dyncost dc\nreg: ConstI8 [dc]\n").unwrap();
        let diags = analyze(&g.normalize());
        let inc: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::IncompleteOperator)
            .collect();
        assert_eq!(inc.len(), 1, "{diags:?}");
        assert_eq!(inc[0].severity, Severity::Warning);
    }

    #[test]
    fn statement_trees_as_operands_are_not_flagged() {
        // Nothing derives `stmt` at an AddI8 operand, so AddI8-over-Store
        // is outside the tree language and must not count as a hole.
        let g = parse_grammar(
            "%start stmt\naddr: reg (0)\nreg: ConstI8 (1)\nreg: AddI8(reg, reg) (1)\nstmt: StoreI8(addr, reg) (1)\n",
        )
        .unwrap();
        let full = analyze_full(&g.normalize());
        assert!(full.diagnostics.is_empty(), "{:?}", full.diagnostics);
        let bound = full.state_bound.expect("demo-like grammar converges");
        assert!(bound.per_op.iter().all(|&(_, n)| n >= 1));
    }

    #[test]
    fn diagnostics_are_deterministically_ordered() {
        let g = parse_grammar(
            "%start s\na: ConstI8 (0)\nb: ConstI4 (0)\ns: StoreI8(a, b) (1)\ns: StoreI8(b, a) (1)\ndead: ConstI2 (1)\n",
        )
        .unwrap();
        let n = g.normalize();
        let d1 = analyze(&n);
        let d2 = analyze(&n);
        let as_strings = |ds: &[Diagnostic]| ds.iter().map(|d| d.to_string()).collect::<Vec<_>>();
        assert_eq!(as_strings(&d1), as_strings(&d2));
        // Errors strictly precede warnings.
        let first_warning = d1.iter().position(|d| d.severity < Severity::Error);
        let last_error = d1.iter().rposition(|d| d.severity == Severity::Error);
        if let (Some(w), Some(e)) = (first_warning, last_error) {
            assert!(e < w, "{:?}", as_strings(&d1));
        }
    }
}
