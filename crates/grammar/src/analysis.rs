//! Static analyses over normal-form grammars.
//!
//! Two layers live here:
//!
//! * **Fixpoints** ([`min_costs`], [`min_depths`], [`reachable`],
//!   [`chain_reachability`]) used by validation, workload generation and
//!   automaton construction.
//! * The **grammar verifier's** types and its grammar-only passes: typed
//!   [`Diagnostic`]s with stable codes (`G0001`…), severities, structured
//!   payloads, and — where a defect is demonstrable on a concrete input —
//!   an executable [`Witness`] tree that the DP labeler reproduces the
//!   defect on. [`grammar_diagnostics`] runs the passes that read the
//!   rules alone (`G0001`, `G0002`, `G0004`–`G0006`).
//!
//! The findings that need the automaton itself (`G0003`, `G0007`, `G0008`
//! and the [`StateBound`]) come from `odburg_core::verify`, which runs the
//! offline automaton's own closure over the grammar and merges both sets
//! into one [`Analysis`].

use std::collections::HashSet;
use std::fmt;

use odburg_ir::{Forest, NodeId, Op};

use crate::cost::{Cost, CostExpr};
use crate::normal::{NormalGrammar, NormalRhs, NormalRule, NormalRuleId};
use crate::NtId;

/// How dynamic-cost rules are treated by an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynTreatment {
    /// Skip dynamic rules entirely (the conservative choice: a dynamic
    /// rule may be inapplicable everywhere).
    Skip,
    /// Assume dynamic rules apply with cost 0 (the optimistic choice).
    AssumeZero,
}

/// Per-nonterminal minimum cost of a complete derivation (one that ends in
/// operators only), or [`Cost::INFINITE`] if none exists.
///
/// # Examples
///
/// ```
/// use odburg_grammar::{analysis, parse_grammar, Cost};
///
/// let g = parse_grammar("%start a\na: b (2)\nb: ConstI4 (3)\n")?;
/// let n = g.normalize();
/// let costs = analysis::min_costs(&n, analysis::DynTreatment::Skip);
/// assert_eq!(costs[g.start().0 as usize], Cost::finite(5));
/// # Ok::<(), odburg_grammar::GrammarError>(())
/// ```
pub fn min_costs(grammar: &NormalGrammar, dynamic: DynTreatment) -> Vec<Cost> {
    let mut costs = vec![Cost::INFINITE; grammar.num_nts()];
    loop {
        let mut changed = false;
        for rule in grammar.rules() {
            let rule_cost = match rule.cost {
                CostExpr::Fixed(c) => Cost::from(c),
                CostExpr::Dynamic(_) => match dynamic {
                    DynTreatment::Skip => continue,
                    DynTreatment::AssumeZero => Cost::ZERO,
                },
            };
            let total = match &rule.rhs {
                NormalRhs::Base { operands, .. } => operands
                    .iter()
                    .fold(rule_cost, |acc, nt| acc + costs[nt.0 as usize]),
                NormalRhs::Chain { from } => rule_cost + costs[from.0 as usize],
            };
            if total < costs[rule.lhs.0 as usize] {
                costs[rule.lhs.0 as usize] = total;
                changed = true;
            }
        }
        if !changed {
            return costs;
        }
    }
}

/// Per-nonterminal minimum *tree depth* of a complete derivation using only
/// fixed-cost rules, or `None` if no such derivation exists.
///
/// Workload generators use this to steer sampling toward termination.
pub fn min_depths(grammar: &NormalGrammar) -> Vec<Option<usize>> {
    let mut depths: Vec<Option<usize>> = vec![None; grammar.num_nts()];
    loop {
        let mut changed = false;
        for rule in grammar.rules() {
            if rule.cost.is_dynamic() {
                continue;
            }
            let candidate = match &rule.rhs {
                NormalRhs::Base { operands, .. } => {
                    let mut worst = 0usize;
                    let mut ok = true;
                    for nt in operands {
                        match depths[nt.0 as usize] {
                            Some(d) => worst = worst.max(d),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        Some(worst + 1)
                    } else {
                        None
                    }
                }
                NormalRhs::Chain { from } => depths[from.0 as usize],
            };
            if let Some(c) = candidate {
                let slot = &mut depths[rule.lhs.0 as usize];
                if slot.map(|d| c < d).unwrap_or(true) {
                    *slot = Some(c);
                    changed = true;
                }
            }
        }
        if !changed {
            return depths;
        }
    }
}

/// Nonterminals reachable from the start nonterminal by walking rule
/// right-hand sides.
pub fn reachable(grammar: &NormalGrammar) -> Vec<bool> {
    let mut seen = vec![false; grammar.num_nts()];
    let mut stack = vec![grammar.start()];
    seen[grammar.start().0 as usize] = true;
    while let Some(nt) = stack.pop() {
        for rule in grammar.rules() {
            if rule.lhs != nt {
                continue;
            }
            let mut visit = |n: NtId| {
                if !seen[n.0 as usize] {
                    seen[n.0 as usize] = true;
                    stack.push(n);
                }
            };
            match &rule.rhs {
                NormalRhs::Base { operands, .. } => {
                    for &n in operands {
                        visit(n);
                    }
                }
                NormalRhs::Chain { from } => visit(*from),
            }
        }
    }
    seen
}

/// Transitive chain-rule reachability: `reach[a][b]` is `true` if `a` can
/// be derived from `b` through chain rules alone (including `a == b`).
pub fn chain_reachability(grammar: &NormalGrammar) -> Vec<Vec<bool>> {
    let n = grammar.num_nts();
    let mut reach = vec![vec![false; n]; n];
    for (i, row) in reach.iter_mut().enumerate() {
        row[i] = true;
    }
    loop {
        let mut changed = false;
        for &rule_id in grammar.chain_rules() {
            let rule = grammar.rule(rule_id);
            let NormalRhs::Chain { from } = rule.rhs else {
                continue;
            };
            // lhs reaches everything `from` reaches.
            let (from, lhs) = (from.0 as usize, rule.lhs.0 as usize);
            if from == lhs {
                continue;
            }
            let (src, dst) = if from < lhs {
                let (head, tail) = reach.split_at_mut(lhs);
                (&head[from], &mut tail[0])
            } else {
                let (head, tail) = reach.split_at_mut(from);
                (&tail[0], &mut head[lhs])
            };
            for (s, d) in src.iter().zip(dst.iter_mut()) {
                if *s && !*d {
                    *d = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return reach;
        }
    }
}

// ---------------------------------------------------------------------------
// Typed diagnostics
// ---------------------------------------------------------------------------

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never wrong.
    Info,
    /// Suspicious: the grammar works but something is dead, redundant, or
    /// degrades automaton construction.
    Warning,
    /// Selection can fail or a declared invariant is broken.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. The numeric form (`G0001`…) is part of the
/// tool's public surface: scripts and CI match on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `G0001`: a nonterminal cannot derive any complete tree.
    UnderivableNonterminal,
    /// `G0002`: a nonterminal is unreachable from the start symbol.
    UnreachableNonterminal,
    /// `G0003`: `NoCover` is reachable for an operator — some achievable,
    /// operand-plausible input has no covering rule.
    IncompleteOperator,
    /// `G0004`: a rule is dead — another rule covers every context at a
    /// cost that is never worse.
    DominatedRule,
    /// `G0005`: chain rules form a zero-cost cycle (the nonterminals are
    /// mutually derivable for free — they are selection-equivalent).
    ZeroCostChainCycle,
    /// `G0006`: chain rules form a cost-increasing cycle (harmless: such a
    /// loop is never part of an optimal derivation).
    CostIncreasingChainCycle,
    /// `G0007`: the relative cost of two nonterminals grows without bound
    /// with tree depth — the grammar is not BURS-finite and offline
    /// automaton construction diverges.
    CostDivergence,
    /// `G0008`: the achievable-state exploration hit its state cap without
    /// converging; no divergence was proved but no bound exists either.
    AnalysisTruncated,
}

impl Code {
    /// The stable `G0001`-style code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnderivableNonterminal => "G0001",
            Code::UnreachableNonterminal => "G0002",
            Code::IncompleteOperator => "G0003",
            Code::DominatedRule => "G0004",
            Code::ZeroCostChainCycle => "G0005",
            Code::CostIncreasingChainCycle => "G0006",
            Code::CostDivergence => "G0007",
            Code::AnalysisTruncated => "G0008",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An executable witness: a concrete input that demonstrates the defect.
#[derive(Debug, Clone)]
pub enum Witness {
    /// A minimal tree the DP labeler fails on with `NoCover`.
    NoCover {
        /// The forest holding the witness tree.
        forest: Forest,
        /// The witness tree's root.
        root: NodeId,
    },
    /// Two trees over which the normalized relative cost of a pair of
    /// nonterminals grows: `deltas.0` on the first tree, `deltas.1 >
    /// deltas.0` on the second, with no bound in sight.
    Divergence {
        /// The forest holding both trees.
        forest: Forest,
        /// Roots of the small-delta and large-delta trees.
        roots: (NodeId, NodeId),
        /// The diverging nonterminal pair.
        nonterminals: (NtId, NtId),
        /// Normalized cost delta of the pair on each tree.
        deltas: (u32, u32),
    },
}

/// One verifier finding: a stable code, a severity, a human-readable
/// message, and a structured payload naming the grammar objects involved.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Human-readable one-line message (no code/severity prefix).
    pub message: String,
    /// Nonterminals the finding is about.
    pub nonterminals: Vec<NtId>,
    /// Normal rules the finding is about (dead rule first for `G0004`).
    pub rules: Vec<NormalRuleId>,
    /// Operators the finding is about.
    pub operators: Vec<Op>,
    /// For chain-cycle findings: the cycle path, starting and ending at
    /// the same nonterminal.
    pub cycle: Vec<NtId>,
    /// A concrete input demonstrating the defect, when one exists.
    pub witness: Option<Witness>,
}

impl Diagnostic {
    /// A finding with an empty payload and no witness.
    pub fn new(code: Code, severity: Severity, message: String) -> Self {
        Diagnostic {
            code,
            severity,
            message,
            nonterminals: Vec::new(),
            rules: Vec::new(),
            operators: Vec::new(),
            cycle: Vec::new(),
            witness: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.code, self.severity, self.message)
    }
}

/// A static table-size bound: the number of states of the automaton the
/// fixed-cost part of the grammar builds, total and per operator.
///
/// Only produced when the exploration converges (no divergence, no
/// truncation). On a grammar without dynamic rules `states` is the state
/// count of the complete offline automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBound {
    /// Total automaton states.
    pub states: usize,
    /// States per operator at the root of each state's smallest known
    /// tree, sorted by operator id; the counts sum to `states`.
    pub per_op: Vec<(Op, usize)>,
}

/// The full verifier result: diagnostics plus the state bound when the
/// exploration converged.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings, deterministically ordered: errors first, then by
    /// code, then by subject.
    pub diagnostics: Vec<Diagnostic>,
    /// `Some` iff the achievable-state exploration converged.
    pub state_bound: Option<StateBound>,
}

impl Analysis {
    /// Bundles findings with the state bound, ordering the findings
    /// deterministically (most severe first, then by code, then by
    /// subject).
    pub fn new(mut diagnostics: Vec<Diagnostic>, state_bound: Option<StateBound>) -> Self {
        diagnostics.sort_by(|x, y| {
            (std::cmp::Reverse(x.severity), x.code)
                .cmp(&(std::cmp::Reverse(y.severity), y.code))
                .then_with(|| x.nonterminals.cmp(&y.nonterminals))
                .then_with(|| x.rules.cmp(&y.rules))
                .then_with(|| {
                    let a = x.operators.iter().map(|o| o.id().0);
                    let b = y.operators.iter().map(|o| o.id().0);
                    a.cmp(b)
                })
                .then_with(|| x.message.cmp(&y.message))
        });
        Analysis {
            diagnostics,
            state_bound,
        }
    }
}

/// The verifier passes that read the rules alone, in pass order:
/// underivable (`G0001`) and unreachable (`G0002`) nonterminals, dominated
/// rules (`G0004`) and chain-rule cycles (`G0005`, `G0006`).
///
/// # Examples
///
/// ```
/// use odburg_grammar::{analysis, parse_grammar};
/// use odburg_grammar::analysis::{Code, Severity};
///
/// let g = parse_grammar("%start a\na: ConstI8 (1)\na: ConstI8 (3)\n")?;
/// let diags = analysis::grammar_diagnostics(&g.normalize());
/// assert_eq!(diags.len(), 1);
/// assert_eq!(diags[0].code, Code::DominatedRule);
/// assert_eq!(diags[0].severity, Severity::Warning);
/// # Ok::<(), odburg_grammar::GrammarError>(())
/// ```
pub fn grammar_diagnostics(grammar: &NormalGrammar) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    derivability_diags(grammar, &mut diags);
    reachability_diags(grammar, &mut diags);
    dominance_diags(grammar, &mut diags);
    cycle_diags(grammar, &mut diags);
    diags
}

/// G0001: nonterminals that cannot derive any complete tree even when
/// dynamic rules are assumed free. Error when it is the start symbol
/// (selection can never succeed), warning otherwise.
fn derivability_diags(grammar: &NormalGrammar, diags: &mut Vec<Diagnostic>) {
    let costs = min_costs(grammar, DynTreatment::AssumeZero);
    for (i, cost) in costs.iter().enumerate() {
        if cost.is_infinite() {
            let nt = NtId(i as u16);
            let severity = if nt == grammar.start() {
                Severity::Error
            } else {
                Severity::Warning
            };
            let mut d = Diagnostic::new(
                Code::UnderivableNonterminal,
                severity,
                format!(
                    "nonterminal `{}` cannot derive any complete tree",
                    grammar.nt_name(nt)
                ),
            );
            d.nonterminals.push(nt);
            diags.push(d);
        }
    }
}

/// G0002: nonterminals unreachable from the start symbol.
fn reachability_diags(grammar: &NormalGrammar, diags: &mut Vec<Diagnostic>) {
    let reach = reachable(grammar);
    for (i, r) in reach.iter().enumerate() {
        if !r {
            let nt = NtId(i as u16);
            let mut d = Diagnostic::new(
                Code::UnreachableNonterminal,
                Severity::Warning,
                format!(
                    "nonterminal `{}` is unreachable from the start symbol",
                    grammar.nt_name(nt)
                ),
            );
            d.nonterminals.push(nt);
            diags.push(d);
        }
    }
}

/// `true` if the rule participates in fixed-cost selection: neither the
/// rule itself nor the source rule it was split from is dynamic. This is
/// exactly the rule set [`NormalGrammar::strip_dynamic`] keeps.
fn is_fixed(grammar: &NormalGrammar, rule: &NormalRule) -> bool {
    !rule.cost.is_dynamic()
        && !grammar.source_rules()[rule.source.0 as usize]
            .cost
            .is_dynamic()
}

fn fixed_cost(rule: &NormalRule) -> u32 {
    match rule.cost {
        CostExpr::Fixed(c) => c as u32,
        CostExpr::Dynamic(_) => 0,
    }
}

// ---------------------------------------------------------------------------
// Rule dominance (G0004)
// ---------------------------------------------------------------------------

/// `cc[to][from]`: minimum fixed-chain-rule cost of deriving `to` from
/// `from` through at least one chain rule, or through none as well when
/// `reflexive` (`Some(0)` on the diagonal); `None` when unconnected.
fn chain_cost_matrix(grammar: &NormalGrammar, reflexive: bool) -> Vec<Vec<Option<u32>>> {
    let n = grammar.num_nts();
    let mut cc: Vec<Vec<Option<u32>>> = vec![vec![None; n]; n];
    if reflexive {
        for (i, row) in cc.iter_mut().enumerate() {
            row[i] = Some(0);
        }
    }
    for &rid in grammar.chain_rules() {
        let rule = grammar.rule(rid);
        if !is_fixed(grammar, rule) {
            continue;
        }
        let NormalRhs::Chain { from } = rule.rhs else {
            continue;
        };
        let (to, from) = (rule.lhs.0 as usize, from.0 as usize);
        let c = fixed_cost(rule);
        if cc[to][from].map(|old| c < old).unwrap_or(true) {
            cc[to][from] = Some(c);
        }
    }
    for mid in 0..n {
        // Row `mid` cannot improve during its own phase (costs are
        // non-negative), so a snapshot keeps the borrows disjoint.
        let via_mid = cc[mid].clone();
        for row in cc.iter_mut() {
            let Some(a) = row[mid] else { continue };
            for (from, b) in via_mid.iter().enumerate() {
                let Some(b) = *b else { continue };
                let via = a.saturating_add(b);
                if row[from].map(|old| via < old).unwrap_or(true) {
                    row[from] = Some(via);
                }
            }
        }
    }
    cc
}

/// Cheapest fixed-chain derivations starting at `from`, without the
/// `excluded` rule: the cost of reaching each nonterminal and the chain
/// rule used last on the way.
fn chain_paths(
    grammar: &NormalGrammar,
    from: usize,
    excluded: Option<NormalRuleId>,
) -> (Vec<Option<u32>>, Vec<Option<NormalRuleId>>) {
    let n = grammar.num_nts();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut pred: Vec<Option<NormalRuleId>> = vec![None; n];
    dist[from] = Some(0);
    for _ in 0..n {
        let mut changed = false;
        for &rid in grammar.chain_rules() {
            let rule = grammar.rule(rid);
            if Some(rid) == excluded || !is_fixed(grammar, rule) {
                continue;
            }
            let NormalRhs::Chain { from } = rule.rhs else {
                continue;
            };
            let Some(base) = dist[from.0 as usize] else {
                continue;
            };
            let cand = base.saturating_add(fixed_cost(rule));
            let lhs = rule.lhs.0 as usize;
            if dist[lhs].map(|old| cand < old).unwrap_or(true) {
                dist[lhs] = Some(cand);
                pred[lhs] = Some(rid);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (dist, pred)
}

/// G0004: dead rules. Two passes:
///
/// * **Shadowing** — identical left- and right-hand sides; the more
///   expensive copy (or, on a cost tie, the later one) can never win.
/// * **Generalized dominance** — rule `B` plus chain rules reproduces
///   everything rule `A` matches at strictly lower cost in *every*
///   context: `cost(B) + Σ chain(B.operandᵢ ← A.operandᵢ) +
///   chain(A.lhs ← B.lhs) < cost(A)`.
fn dominance_diags(grammar: &NormalGrammar, diags: &mut Vec<Diagnostic>) {
    let mut reported: HashSet<u32> = HashSet::new();

    // Shadowing (identical RHS).
    for (i, a) in grammar.rules().iter().enumerate() {
        if a.cost.is_dynamic() {
            continue;
        }
        for b in grammar.rules().iter().skip(i + 1) {
            if b.cost.is_dynamic() || a.lhs != b.lhs || a.rhs != b.rhs {
                continue;
            }
            let (CostExpr::Fixed(ca), CostExpr::Fixed(cb)) = (a.cost, b.cost) else {
                continue;
            };
            let (dead, live) = if ca <= cb { (b, a) } else { (a, b) };
            if !reported.insert(dead.id.0) {
                continue;
            }
            let mut d = Diagnostic::new(
                Code::DominatedRule,
                Severity::Warning,
                format!(
                    "rule #{} for `{}` is shadowed by cheaper identical rule #{}",
                    dead.id.0,
                    grammar.nt_name(dead.lhs),
                    live.id.0
                ),
            );
            d.rules = vec![dead.id, live.id];
            d.nonterminals.push(dead.lhs);
            diags.push(d);
        }
    }

    // Generalized dominance over base rules.
    let cc = chain_cost_matrix(grammar, true);
    for &op in grammar.ops_used() {
        let rules = grammar.base_rules(op);
        for &ra in rules {
            let a = grammar.rule(ra);
            if !a.is_final || !is_fixed(grammar, a) || reported.contains(&ra.0) {
                continue;
            }
            let NormalRhs::Base { operands: aops, .. } = &a.rhs else {
                continue;
            };
            let ca = fixed_cost(a);
            for &rb in rules {
                if rb == ra {
                    continue;
                }
                let b = grammar.rule(rb);
                if !is_fixed(grammar, b) {
                    continue;
                }
                let NormalRhs::Base { operands: bops, .. } = &b.rhs else {
                    continue;
                };
                let Some(lhs_chain) = cc[a.lhs.0 as usize][b.lhs.0 as usize] else {
                    continue;
                };
                let mut dom = fixed_cost(b).saturating_add(lhs_chain);
                let mut connected = true;
                for (bo, ao) in bops.iter().zip(aops.iter()) {
                    match cc[bo.0 as usize][ao.0 as usize] {
                        Some(c) => dom = dom.saturating_add(c),
                        None => {
                            connected = false;
                            break;
                        }
                    }
                }
                if connected && dom < ca {
                    reported.insert(ra.0);
                    let mut d = Diagnostic::new(
                        Code::DominatedRule,
                        Severity::Warning,
                        format!(
                            "rule #{} for `{}` is dominated by rule #{}: via chain rules it \
                             covers every context at cost {dom} < {ca}",
                            ra.0,
                            grammar.nt_name(a.lhs),
                            rb.0
                        ),
                    );
                    d.rules = vec![ra, rb];
                    d.nonterminals.push(a.lhs);
                    d.operators.push(op);
                    diags.push(d);
                    break;
                }
            }
        }
    }

    // Generalized dominance over chain rules: a chain rule beaten by an
    // alternative chain path between the same nonterminals.
    for &rid in grammar.chain_rules() {
        let a = grammar.rule(rid);
        if !a.is_final || !is_fixed(grammar, a) || reported.contains(&rid.0) {
            continue;
        }
        let NormalRhs::Chain { from } = a.rhs else {
            continue;
        };
        let ca = fixed_cost(a);
        if let Some(alt) = chain_paths(grammar, from.0 as usize, Some(rid)).0[a.lhs.0 as usize] {
            if alt < ca {
                reported.insert(rid.0);
                let mut d = Diagnostic::new(
                    Code::DominatedRule,
                    Severity::Warning,
                    format!(
                        "chain rule #{} (`{}`: `{}`) is dominated by a chain path of cost \
                         {alt} < {ca}",
                        rid.0,
                        grammar.nt_name(a.lhs),
                        grammar.nt_name(from)
                    ),
                );
                d.rules = vec![rid];
                d.nonterminals = vec![a.lhs, from];
                diags.push(d);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chain-rule cycles (G0005 / G0006)
// ---------------------------------------------------------------------------

/// G0005/G0006: classify chain-rule cycles. One diagnostic per strongly
/// connected chain component, with the minimal cycle's path and rules in
/// the payload. Zero-cost cycles mean the member nonterminals are
/// selection-equivalent (warning); cost-increasing cycles are harmless
/// (info).
fn cycle_diags(grammar: &NormalGrammar, diags: &mut Vec<Diagnostic>) {
    let n = grammar.num_nts();
    // pos[u][v] = min cost of a fixed-chain path v -> u with >= 1 edge.
    let pos = chain_cost_matrix(grammar, false);

    // Group cyclic nonterminals into components by mutual reachability.
    let mut seen = vec![false; n];
    for m in 0..n {
        if seen[m] || pos[m][m].is_none() {
            continue;
        }
        let members: Vec<usize> = (m..n)
            .filter(|&v| {
                pos[v][v].is_some() && (v == m || (pos[m][v].is_some() && pos[v][m].is_some()))
            })
            .collect();
        for &v in &members {
            seen[v] = true;
        }
        // Classify and reconstruct through the member with the cheapest
        // cycle (a component can contain a zero-cost sub-cycle that does
        // not pass through every member).
        let (cost, rep) = members
            .iter()
            .filter_map(|&v| pos[v][v].map(|c| (c, v)))
            .min()
            .unwrap_or((0, m));
        let (cycle, rules) = reconstruct_cycle(grammar, rep);
        let path = cycle
            .iter()
            .map(|&nt| format!("`{}`", grammar.nt_name(nt)))
            .collect::<Vec<_>>()
            .join(" -> ");
        let (code, severity, verdict) = if cost == 0 {
            (
                Code::ZeroCostChainCycle,
                Severity::Warning,
                "the nonterminals are mutually derivable for free (selection-equivalent)",
            )
        } else {
            (
                Code::CostIncreasingChainCycle,
                Severity::Info,
                "a cost-increasing loop is never part of an optimal derivation",
            )
        };
        let mut d = Diagnostic::new(
            code,
            severity,
            format!("chain rules form a cycle {path} (cost {cost} per loop); {verdict}"),
        );
        d.nonterminals = members.iter().map(|&v| NtId(v as u16)).collect();
        d.cycle = cycle;
        d.rules = rules;
        diags.push(d);
    }
}

/// Reconstructs a minimal-cost chain cycle through `m` as a nonterminal
/// path (starting and ending at `m`) plus the chain rules along it.
fn reconstruct_cycle(grammar: &NormalGrammar, m: usize) -> (Vec<NtId>, Vec<NormalRuleId>) {
    let n = grammar.num_nts();
    // Shortest fixed-chain derivation of each nt *from* m, with the rule
    // used last on the way.
    let (dist, pred) = chain_paths(grammar, m, None);
    // Close the loop with the cheapest edge back into m.
    let mut best: Option<(u32, NormalRuleId, usize)> = None;
    for &rid in grammar.chain_rules() {
        let rule = grammar.rule(rid);
        if !is_fixed(grammar, rule) || rule.lhs.0 as usize != m {
            continue;
        }
        let NormalRhs::Chain { from } = rule.rhs else {
            continue;
        };
        if let Some(base) = dist[from.0 as usize] {
            let total = base.saturating_add(fixed_cost(rule));
            if best.map(|(c, _, _)| total < c).unwrap_or(true) {
                best = Some((total, rid, from.0 as usize));
            }
        }
    }
    let Some((_, close, mut at)) = best else {
        return (vec![NtId(m as u16), NtId(m as u16)], Vec::new());
    };
    let mut nts = vec![NtId(m as u16)];
    let mut rules = vec![close];
    let mut guard = 0;
    while at != m && guard <= n {
        nts.push(NtId(at as u16));
        if let Some(rid) = pred[at] {
            rules.push(rid);
            let NormalRhs::Chain { from } = grammar.rule(rid).rhs else {
                break;
            };
            at = from.0 as usize;
        } else {
            break;
        }
        guard += 1;
    }
    nts.push(NtId(m as u16));
    nts.reverse();
    rules.reverse();
    (nts, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_grammar;

    #[test]
    fn min_costs_chain_and_base() {
        let g = parse_grammar(
            "%start stmt\nstmt: StoreI8(addr, reg) (1)\naddr: reg (0)\nreg: ConstI8 (1)\n",
        )
        .unwrap();
        let n = g.normalize();
        let costs = min_costs(&n, DynTreatment::Skip);
        let stmt = g.find_nt("stmt").unwrap();
        let addr = g.find_nt("addr").unwrap();
        assert_eq!(costs[stmt.0 as usize], Cost::finite(3));
        assert_eq!(costs[addr.0 as usize], Cost::finite(1));
    }

    #[test]
    fn dynamic_only_nt_is_infinite_when_skipped() {
        let g = parse_grammar("%start a\na: ConstI8 [dc]\n").unwrap();
        let n = g.normalize();
        assert!(min_costs(&n, DynTreatment::Skip)[0].is_infinite());
        assert_eq!(min_costs(&n, DynTreatment::AssumeZero)[0], Cost::ZERO);
    }

    #[test]
    fn min_depths_reflect_nesting() {
        let g =
            parse_grammar("%start a\na: LoadI8(b) (1)\nb: LoadP(c) (1)\nc: ConstP (1)\n").unwrap();
        let n = g.normalize();
        let d = min_depths(&n);
        assert_eq!(d[g.find_nt("a").unwrap().0 as usize], Some(3));
        assert_eq!(d[g.find_nt("c").unwrap().0 as usize], Some(1));
    }

    #[test]
    fn zero_cost_chain_cycle_terminates() {
        let g = parse_grammar("%start a\na: b (0)\nb: a (0)\nb: ConstI8 (1)\n").unwrap();
        let n = g.normalize();
        let costs = min_costs(&n, DynTreatment::Skip);
        assert_eq!(costs[g.find_nt("a").unwrap().0 as usize], Cost::finite(1));
    }

    #[test]
    fn chain_reachability_is_transitive() {
        let g = parse_grammar("%start a\na: b (0)\nb: c (0)\nc: ConstI8 (1)\n").unwrap();
        let n = g.normalize();
        let reach = chain_reachability(&n);
        let a = n.find_nt("a").unwrap().0 as usize;
        let c = n.find_nt("c").unwrap().0 as usize;
        assert!(reach[a][c], "a derivable from c through chains");
        assert!(!reach[c][a]);
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn analyze_finds_shadowed_rules() {
        let g =
            parse_grammar("%start a\na: ConstI8 (1)\na: ConstI8 (3)\na: ConstI8 [dc]\n").unwrap();
        let diags = grammar_diagnostics(&g.normalize());
        let shadowed: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::DominatedRule)
            .collect();
        assert_eq!(shadowed.len(), 1, "{diags:?}");
        assert_eq!(shadowed[0].severity, Severity::Warning);
        assert_eq!(shadowed[0].rules.first(), Some(&NormalRuleId(1)));
        assert!(shadowed[0].message.contains("rule #1"), "{shadowed:?}");
    }

    #[test]
    fn analyze_finds_generalized_dominance() {
        // Rule #2 (`a: LoadI8(b)` at cost 5) is beaten in every context by
        // rule #1 plus the chains b -> c (operand) and a <- a (lhs):
        // 1 + 1 + 0 = 2 < 5. No identical RHS anywhere.
        let g = parse_grammar(
            "%start a\nc: ConstI8 (0)\na: LoadI8(c) (1)\na: LoadI8(b) (5)\nb: c (1)\nc: b (0)\n",
        )
        .unwrap();
        let n = g.normalize();
        let diags = grammar_diagnostics(&n);
        let dom: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::DominatedRule)
            .collect();
        assert_eq!(dom.len(), 1, "{diags:?}");
        assert!(dom[0].message.contains("dominated"), "{dom:?}");
        let dead = n.rule(dom[0].rules[0]);
        assert_eq!(n.nt_name(dead.lhs), "a");
        assert_eq!(fixed_cost(dead), 5);
    }

    #[test]
    fn analyze_classifies_chain_cycles() {
        let zero = parse_grammar("%start a\na: b (0)\nb: a (0)\nb: ConstI8 (1)\n").unwrap();
        let diags = grammar_diagnostics(&zero.normalize());
        let cyc: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::ZeroCostChainCycle)
            .collect();
        assert_eq!(cyc.len(), 1, "{diags:?}");
        assert_eq!(cyc[0].severity, Severity::Warning);
        assert!(cyc[0].cycle.len() >= 3, "{:?}", cyc[0].cycle);
        assert_eq!(cyc[0].cycle.first(), cyc[0].cycle.last());

        let costly = parse_grammar("%start a\na: b (1)\nb: a (1)\nb: ConstI8 (1)\n").unwrap();
        let diags = grammar_diagnostics(&costly.normalize());
        let cyc: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::CostIncreasingChainCycle)
            .collect();
        assert_eq!(cyc.len(), 1, "{diags:?}");
        assert_eq!(cyc[0].severity, Severity::Info);
        assert!(!codes(&diags).contains(&Code::ZeroCostChainCycle));
    }

    #[test]
    fn analyze_reports_unreachable_and_underivable() {
        let g = parse_grammar(
            "%start a\na: ConstI8 (1)\nb: LoadI8(b) (1)\n", // b underivable & unreachable
        )
        .unwrap();
        let n = g.normalize();
        let diags = grammar_diagnostics(&n);
        assert_eq!(
            codes(&diags),
            vec![Code::UnderivableNonterminal, Code::UnreachableNonterminal],
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn underivable_start_is_an_error() {
        let g = parse_grammar("%start a\na: LoadI8(a) (1)\n").unwrap();
        let diags = grammar_diagnostics(&g.normalize());
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::UnderivableNonterminal && d.severity == Severity::Error),
            "{diags:?}"
        );
    }
}
