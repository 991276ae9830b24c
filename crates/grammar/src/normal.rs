//! Normal-form conversion.
//!
//! A tree grammar is in *normal form* if every rule is either a **base
//! rule** `n: Op(n1, …, nk)` or a **chain rule** `n: m`, where the `n`s are
//! nonterminals. Multi-operator patterns are split by introducing helper
//! nonterminals; the original rule's cost and emission action stay on the
//! *top* split rule (the one matching the pattern's root operator), helper
//! rules cost 0 and emit nothing.
//!
//! All labelers and automata in this library operate on [`NormalGrammar`].

use std::collections::HashMap;

use odburg_ir::{Forest, NodeId, Op, NUM_OPS};

use crate::cost::{CostExpr, DynCost, RuleCost};
use crate::grammar::{Grammar, NtId, Rule, RuleId};
use crate::pattern::Pattern;

/// Id of a rule within a [`NormalGrammar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NormalRuleId(pub u32);

/// The right-hand side of a normal-form rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NormalRhs {
    /// `lhs: Op(operands…)`.
    Base {
        /// The matched operator.
        op: Op,
        /// One operand nonterminal per child.
        operands: Vec<NtId>,
    },
    /// `lhs: from`.
    Chain {
        /// The nonterminal being renamed.
        from: NtId,
    },
}

/// A rule of a normal-form grammar.
#[derive(Debug, Clone)]
pub struct NormalRule {
    /// The rule's id (index in [`NormalGrammar::rules`]).
    pub id: NormalRuleId,
    /// The derived nonterminal.
    pub lhs: NtId,
    /// Base or chain right-hand side.
    pub rhs: NormalRhs,
    /// The rule cost (helpers are always `Fixed(0)`).
    pub cost: CostExpr,
    /// The source rule this normal rule was split from.
    pub source: RuleId,
    /// `true` for the top rule of a split (it carries cost and action).
    pub is_final: bool,
}

impl NormalRule {
    /// `true` if this is a chain rule.
    pub fn is_chain(&self) -> bool {
        matches!(self.rhs, NormalRhs::Chain { .. })
    }
}

/// A tree grammar in normal form, with the per-operator indexes every
/// labeler needs.
///
/// A `NormalGrammar` is self-contained: it owns copies of the source rules
/// (for emission templates) and of the dynamic-cost functions.
#[derive(Debug, Clone)]
pub struct NormalGrammar {
    name: String,
    nonterminals: Vec<String>,
    num_source_nts: usize,
    rules: Vec<NormalRule>,
    start: NtId,
    source_rules: Vec<Rule>,
    dyncosts: Vec<DynCost>,
    // Indexes, all keyed by dense OpId.
    base_by_op: Vec<Vec<NormalRuleId>>,
    chain_rules: Vec<NormalRuleId>,
    chain_by_from: Vec<Vec<NormalRuleId>>,
    dynamic_chain_rules: Vec<NormalRuleId>,
    dynamic_base_by_op: Vec<Vec<NormalRuleId>>,
    /// `operand_class[op]` — the operand class of each operand position.
    operand_class: Vec<[u32; 2]>,
    /// The sorted operand-nonterminal set of each operand class.
    operand_classes: Vec<Vec<NtId>>,
    ops_used: Vec<Op>,
}

impl NormalGrammar {
    /// The grammar's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nonterminal names (source nonterminals first, then helpers).
    pub fn nonterminals(&self) -> &[String] {
        &self.nonterminals
    }

    /// Number of nonterminals including helpers.
    pub fn num_nts(&self) -> usize {
        self.nonterminals.len()
    }

    /// Number of source (non-helper) nonterminals.
    pub fn num_source_nts(&self) -> usize {
        self.num_source_nts
    }

    /// The name of a nonterminal.
    pub fn nt_name(&self, nt: NtId) -> &str {
        &self.nonterminals[nt.0 as usize]
    }

    /// Looks up a nonterminal by name.
    pub fn find_nt(&self, name: &str) -> Option<NtId> {
        self.nonterminals
            .iter()
            .position(|n| n == name)
            .map(|i| NtId(i as u16))
    }

    /// All normal-form rules.
    pub fn rules(&self) -> &[NormalRule] {
        &self.rules
    }

    /// The rule with the given id.
    pub fn rule(&self, id: NormalRuleId) -> &NormalRule {
        &self.rules[id.0 as usize]
    }

    /// The start nonterminal.
    pub fn start(&self) -> NtId {
        self.start
    }

    /// The source rules of the original grammar (for templates etc.).
    pub fn source_rules(&self) -> &[Rule] {
        &self.source_rules
    }

    /// The source rule a normal rule was split from.
    pub fn source_rule(&self, id: NormalRuleId) -> &Rule {
        &self.source_rules[self.rule(id).source.0 as usize]
    }

    /// Base rules matching the given operator.
    pub fn base_rules(&self, op: Op) -> &[NormalRuleId] {
        &self.base_by_op[op.id().0 as usize]
    }

    /// All chain rules.
    pub fn chain_rules(&self) -> &[NormalRuleId] {
        &self.chain_rules
    }

    /// Chain rules whose right-hand side is `from`.
    pub fn chain_rules_from(&self, from: NtId) -> &[NormalRuleId] {
        &self.chain_by_from[from.0 as usize]
    }

    /// Dynamic-cost base rules for `op` (evaluated per node for the
    /// transition-key signature).
    pub fn dynamic_base_rules(&self, op: Op) -> &[NormalRuleId] {
        &self.dynamic_base_by_op[op.id().0 as usize]
    }

    /// Dynamic-cost chain rules (evaluated at every node).
    pub fn dynamic_chain_rules(&self) -> &[NormalRuleId] {
        &self.dynamic_chain_rules
    }

    /// `true` if the grammar has any dynamic-cost rules.
    pub fn has_dynamic_rules(&self) -> bool {
        !self.dynamic_chain_rules.is_empty()
            || self.dynamic_base_by_op.iter().any(|v| !v.is_empty())
    }

    /// The nonterminals that occur as operand `pos` of some base rule for
    /// `op` — the "relevant" nonterminals for representer projection:
    /// the set of [`operand_class`](Self::operand_class)`(op, pos)`.
    pub fn operand_nts(&self, op: Op, pos: usize) -> &[NtId] {
        &self.operand_classes[self.operand_class(op, pos) as usize]
    }

    /// The *operand class* of operand `pos` of `op`: positions with equal
    /// [`operand_nts`](Self::operand_nts) share one class, so a child
    /// state projects identically under all of them. Classes are numbered
    /// by first appearance over both positions of every operator in
    /// [`ops_used`](Self::ops_used), then of the others (whose empty sets
    /// share one class).
    pub fn operand_class(&self, op: Op, pos: usize) -> u32 {
        self.operand_class[op.id().0 as usize][pos]
    }

    /// The sorted operand-nonterminal set of each operand class, indexed
    /// by class id.
    pub fn operand_classes(&self) -> &[Vec<NtId>] {
        &self.operand_classes
    }

    /// Distinct operators used by any base rule, sorted by id.
    pub fn ops_used(&self) -> &[Op] {
        &self.ops_used
    }

    /// Evaluates the cost of a rule at a node.
    ///
    /// Fixed costs ignore the node; dynamic costs run the registered
    /// function.
    pub fn rule_cost_at(&self, rule: NormalRuleId, forest: &Forest, node: NodeId) -> RuleCost {
        match self.rule(rule).cost {
            CostExpr::Fixed(c) => RuleCost::Finite(c),
            CostExpr::Dynamic(id) => (self.dyncosts[id.0 as usize].func)(forest, node),
        }
    }

    /// The dynamic-cost functions, indexed by [`DynCostId`](crate::DynCostId).
    pub fn dyncosts(&self) -> &[DynCost] {
        &self.dyncosts
    }

    /// A stable 64-bit fingerprint of the grammar's selection-relevant
    /// structure: nonterminals, start symbol, every normal rule (left-hand
    /// side, operator/operands or chain source, fixed cost or dynamic-cost
    /// *name*), and the declared dynamic-cost functions.
    ///
    /// Two normalized grammars with the same fingerprint assign identical
    /// meaning to rule and nonterminal ids, which is the property
    /// persisted automaton tables depend on (see `odburg_core::persist`).
    /// The hash is FNV-1a with explicit field framing — independent of
    /// process, platform and `HashMap` iteration order, so it is safe to
    /// embed in on-disk artifacts. Dynamic-cost *bindings* (the closures)
    /// are not hashed: only their names and rule positions are, so a
    /// rebinding that changes a function's behavior but not its name is
    /// not detected.
    pub fn fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn put(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            fn put_u32(&mut self, v: u32) {
                self.put(&v.to_le_bytes());
            }
            fn put_str(&mut self, s: &str) {
                self.put_u32(s.len() as u32);
                self.put(s.as_bytes());
            }
        }
        let mut h = Fnv(0xCBF2_9CE4_8422_2325);
        h.put_str(&self.name);
        h.put_u32(self.num_source_nts as u32);
        h.put_u32(self.nonterminals.len() as u32);
        for nt in &self.nonterminals {
            h.put_str(nt);
        }
        h.put_u32(self.start.0 as u32);
        h.put_u32(self.dyncosts.len() as u32);
        for dc in &self.dyncosts {
            h.put_str(&dc.name);
        }
        h.put_u32(self.rules.len() as u32);
        for rule in &self.rules {
            h.put_u32(rule.lhs.0 as u32);
            match &rule.rhs {
                NormalRhs::Base { op, operands } => {
                    h.put_u32(0);
                    h.put_u32(op.id().0 as u32);
                    h.put_u32(operands.len() as u32);
                    for nt in operands {
                        h.put_u32(nt.0 as u32);
                    }
                }
                NormalRhs::Chain { from } => {
                    h.put_u32(1);
                    h.put_u32(from.0 as u32);
                }
            }
            match rule.cost {
                CostExpr::Fixed(c) => {
                    h.put_u32(2);
                    h.put_u32(c as u32);
                }
                CostExpr::Dynamic(id) => {
                    h.put_u32(3);
                    h.put_u32(id.0 as u32);
                }
            }
            h.put_u32(rule.is_final as u32);
        }
        h.0
    }

    /// Rebuilds the grammar without any dynamic-cost source rules (and
    /// without their helper rules).
    ///
    /// This is what an offline automaton builder has to work with; see
    /// [`Grammar::without_dynamic_rules`].
    ///
    /// # Errors
    ///
    /// Fails like [`crate::GrammarBuilder::build`] if removing the rules
    /// leaves a referenced nonterminal underivable.
    pub fn strip_dynamic(&self) -> Result<NormalGrammar, crate::GrammarError> {
        let mut b = crate::GrammarBuilder::new(&self.name);
        for name in &self.nonterminals[..self.num_source_nts] {
            b.nt(name);
        }
        for rule in &self.source_rules {
            if rule.cost.is_dynamic() {
                continue;
            }
            b.rule(
                rule.lhs,
                rule.pattern.clone(),
                rule.cost,
                rule.template.clone(),
            );
        }
        Ok(b.start(self.start).build()?.normalize())
    }
}

/// Converts `grammar` to normal form. Exposed as [`Grammar::normalize`].
pub(crate) fn normalize(grammar: &Grammar) -> NormalGrammar {
    let mut nonterminals: Vec<String> = grammar.nonterminals().to_vec();
    let num_source_nts = nonterminals.len();
    let mut rules: Vec<NormalRule> = Vec::new();

    for rule in grammar.rules() {
        match &rule.pattern {
            Pattern::Nt(from) => {
                let id = NormalRuleId(rules.len() as u32);
                rules.push(NormalRule {
                    id,
                    lhs: rule.lhs,
                    rhs: NormalRhs::Chain { from: *from },
                    cost: rule.cost,
                    source: rule.id,
                    is_final: true,
                });
            }
            Pattern::Op { op, children } => {
                let operands: Vec<NtId> = children
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        flatten_operand(c, rule, i, &mut nonterminals, &mut rules, grammar)
                    })
                    .collect();
                let id = NormalRuleId(rules.len() as u32);
                rules.push(NormalRule {
                    id,
                    lhs: rule.lhs,
                    rhs: NormalRhs::Base { op: *op, operands },
                    cost: rule.cost,
                    source: rule.id,
                    is_final: true,
                });
            }
        }
    }

    // Build indexes.
    let mut base_by_op: Vec<Vec<NormalRuleId>> = vec![Vec::new(); NUM_OPS];
    let mut dynamic_base_by_op: Vec<Vec<NormalRuleId>> = vec![Vec::new(); NUM_OPS];
    let mut chain_rules = Vec::new();
    let mut dynamic_chain_rules = Vec::new();
    let mut chain_by_from: Vec<Vec<NormalRuleId>> = vec![Vec::new(); nonterminals.len()];
    let mut operand_nts: Vec<[Vec<NtId>; 2]> = std::iter::repeat_with(|| [Vec::new(), Vec::new()])
        .take(NUM_OPS)
        .collect();
    let mut ops_seen: HashMap<Op, ()> = HashMap::new();
    let mut ops_used = Vec::new();

    for rule in &rules {
        match &rule.rhs {
            NormalRhs::Base { op, operands } => {
                base_by_op[op.id().0 as usize].push(rule.id);
                if rule.cost.is_dynamic() {
                    dynamic_base_by_op[op.id().0 as usize].push(rule.id);
                }
                for (pos, &nt) in operands.iter().enumerate() {
                    let set = &mut operand_nts[op.id().0 as usize][pos];
                    if !set.contains(&nt) {
                        set.push(nt);
                    }
                }
                if ops_seen.insert(*op, ()).is_none() {
                    ops_used.push(*op);
                }
            }
            NormalRhs::Chain { from } => {
                chain_rules.push(rule.id);
                chain_by_from[from.0 as usize].push(rule.id);
                if rule.cost.is_dynamic() {
                    dynamic_chain_rules.push(rule.id);
                }
            }
        }
    }
    ops_used.sort();
    // One class per sorted operand set, numbered by first appearance.
    let mut operand_classes: Vec<Vec<NtId>> = Vec::new();
    let mut operand_class = vec![[0u32; 2]; NUM_OPS];
    let used = ops_used.iter().map(|op| op.id().0 as usize);
    for id in used.chain(0..NUM_OPS) {
        for (pos, set) in operand_nts[id].iter_mut().enumerate() {
            set.sort();
            let class = operand_classes.iter().position(|c| c == set);
            operand_class[id][pos] = class.unwrap_or_else(|| {
                operand_classes.push(set.clone());
                operand_classes.len() - 1
            }) as u32;
        }
    }

    NormalGrammar {
        name: grammar.name().to_owned(),
        nonterminals,
        num_source_nts,
        rules,
        start: grammar.start(),
        source_rules: grammar.rules().to_vec(),
        dyncosts: grammar.dyncosts().to_vec(),
        base_by_op,
        chain_rules,
        chain_by_from,
        dynamic_chain_rules,
        dynamic_base_by_op,
        operand_class,
        operand_classes,
        ops_used,
    }
}

/// Flattens one operand sub-pattern, introducing a helper nonterminal and a
/// zero-cost helper base rule for every inner operator node.
fn flatten_operand(
    pattern: &Pattern,
    source: &Rule,
    position: usize,
    nonterminals: &mut Vec<String>,
    rules: &mut Vec<NormalRule>,
    grammar: &Grammar,
) -> NtId {
    match pattern {
        Pattern::Nt(nt) => *nt,
        Pattern::Op { op, children } => {
            let operands: Vec<NtId> = children
                .iter()
                .enumerate()
                .map(|(i, c)| flatten_operand(c, source, i, nonterminals, rules, grammar))
                .collect();
            let helper = NtId(nonterminals.len() as u16);
            nonterminals.push(format!(
                "{}#{}.{}",
                grammar.nt_name(source.lhs),
                source.id.0,
                position
            ));
            let id = NormalRuleId(rules.len() as u32);
            rules.push(NormalRule {
                id,
                lhs: helper,
                rhs: NormalRhs::Base { op: *op, operands },
                cost: CostExpr::Fixed(0),
                source: source.id,
                is_final: false,
            });
            helper
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_grammar;

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

    #[test]
    fn demo_splits_rule_six() {
        let g = parse_grammar(DEMO).unwrap();
        let n = g.normalize();
        // 6 source rules; rule 6 splits into 3 normal rules (two helpers).
        assert_eq!(n.rules().len(), 8);
        assert_eq!(n.num_nts(), n.num_source_nts() + 2);
        // Helper rules are not final and cost 0.
        let helpers: Vec<_> = n.rules().iter().filter(|r| !r.is_final).collect();
        assert_eq!(helpers.len(), 2);
        for h in &helpers {
            assert_eq!(h.cost, CostExpr::Fixed(0));
        }
        // The final split rule keeps the original cost.
        let finals: Vec<_> = n
            .rules()
            .iter()
            .filter(|r| r.is_final && r.source == crate::RuleId(5))
            .collect();
        assert_eq!(finals.len(), 1);
        assert_eq!(finals[0].cost, CostExpr::Fixed(1));
    }

    #[test]
    fn indexes_are_consistent() {
        let g = parse_grammar(DEMO).unwrap();
        let n = g.normalize();
        let store: odburg_ir::Op = "StoreI8".parse().unwrap();
        let add: odburg_ir::Op = "AddI8".parse().unwrap();
        let load: odburg_ir::Op = "LoadI8".parse().unwrap();
        assert_eq!(n.base_rules(store).len(), 2);
        assert_eq!(n.base_rules(add).len(), 2); // source rule + helper split
        assert_eq!(n.base_rules(load).len(), 2);
        assert_eq!(n.chain_rules().len(), 1);
        let reg = g.find_nt("reg").unwrap();
        assert_eq!(n.chain_rules_from(reg).len(), 1);
        assert_eq!(n.ops_used().len(), 4);
        // Operand-nt projection: position 0 of Store is always addr.
        let addr = g.find_nt("addr").unwrap();
        assert_eq!(n.operand_nts(store, 0), &[addr]);
        // Position 1 of Store: reg and the hlp2 helper.
        assert_eq!(n.operand_nts(store, 1).len(), 2);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = parse_grammar(DEMO).unwrap().normalize();
        let b = parse_grammar(DEMO).unwrap().normalize();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same source, same hash");
        // Any structural change — here one cost — must change the hash.
        let tweaked = parse_grammar(&DEMO.replace("reg: ConstI8 (1)", "reg: ConstI8 (2)"))
            .unwrap()
            .normalize();
        assert_ne!(a.fingerprint(), tweaked.fingerprint());
        // Pinned value: guards against accidental changes to the hash
        // function itself, which would invalidate every persisted table
        // file. If this fails because the grammar *structure* hashing
        // legitimately changed, bump `persist::FORMAT_VERSION` and
        // re-pin.
        assert_eq!(a.fingerprint(), 0xA96A_5953_BE5B_01ED);
    }

    #[test]
    fn chain_only_rule_stays_chain() {
        let g = parse_grammar(
            r#"
            %grammar t
            %start a
            a: b (2)
            b: ConstI4 (1)
            "#,
        )
        .unwrap();
        let n = g.normalize();
        assert_eq!(n.rules().len(), 2);
        assert!(n.rule(NormalRuleId(0)).is_chain());
        assert!(n.rule(NormalRuleId(0)).is_final);
    }

    #[test]
    fn dynamic_rules_indexed() {
        let g = parse_grammar(
            r#"
            %grammar t
            %start stmt
            %dyncost memop
            %dyncost imm
            reg: ConstI8 [imm]
            reg: ConstI8 (2)
            addr: reg (0)
            stmt: StoreI8(addr, AddI8(LoadI8(addr), reg)) [memop]
            stmt: StoreI8(addr, reg) (1)
            "#,
        )
        .unwrap();
        let n = g.normalize();
        assert!(n.has_dynamic_rules());
        let konst: odburg_ir::Op = "ConstI8".parse().unwrap();
        let store: odburg_ir::Op = "StoreI8".parse().unwrap();
        assert_eq!(n.dynamic_base_rules(konst).len(), 1);
        assert_eq!(n.dynamic_base_rules(store).len(), 1);
        assert!(n.dynamic_chain_rules().is_empty());
    }
}
