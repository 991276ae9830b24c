//! The grammar model: nonterminals, rules, and the builder.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use odburg_ir::Op;

use crate::cost::{CostExpr, DynCost, DynCostFn, DynCostId};
use crate::pattern::Pattern;

/// Id of a nonterminal within a [`Grammar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NtId(pub u16);

/// Id of a rule within a [`Grammar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u32);

/// A grammar rule: `lhs: pattern (cost) "template"`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The rule's id (its index in [`Grammar::rules`]).
    pub id: RuleId,
    /// The derived nonterminal.
    pub lhs: NtId,
    /// The right-hand side.
    pub pattern: Pattern,
    /// The rule cost.
    pub cost: CostExpr,
    /// Emission template; `None` for rules that emit nothing.
    pub template: Option<String>,
}

/// Errors produced while building or parsing a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// A nonterminal is used in a pattern but never derived by any rule.
    UnderivableNonterminal {
        /// The nonterminal's name.
        name: String,
    },
    /// The declared start nonterminal does not exist.
    NoStart,
    /// A dynamic cost name was referenced but never registered.
    UnknownDynCost {
        /// The referenced name.
        name: String,
    },
    /// A parse error in the grammar DSL.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Human-readable message.
        message: String,
    },
    /// The grammar contains no rules.
    Empty,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::UnderivableNonterminal { name } => {
                write!(f, "nonterminal `{name}` is used but has no rules")
            }
            GrammarError::NoStart => write!(f, "grammar has no valid start nonterminal"),
            GrammarError::UnknownDynCost { name } => {
                write!(f, "dynamic cost `{name}` is not registered")
            }
            GrammarError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GrammarError::Empty => write!(f, "grammar has no rules"),
        }
    }
}

impl Error for GrammarError {}

/// An instruction-selection tree grammar.
///
/// Construct with [`GrammarBuilder`] or from text with
/// [`parse_grammar`](crate::parse_grammar).
#[derive(Debug, Clone)]
pub struct Grammar {
    name: String,
    nonterminals: Vec<String>,
    /// Shared with every [`NormalGrammar`](crate::NormalGrammar)
    /// normalized from this grammar.
    rules: Arc<[Rule]>,
    start: NtId,
    dyncosts: Vec<DynCost>,
}

impl Grammar {
    /// The grammar's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nonterminal names, indexed by [`NtId`].
    pub fn nonterminals(&self) -> &[String] {
        &self.nonterminals
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

    /// All rules, indexed by [`RuleId`].
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rules behind a shared pointer, for a normal form to share.
    pub(crate) fn shared_rules(&self) -> Arc<[Rule]> {
        Arc::clone(&self.rules)
    }

    /// The rule with the given id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    /// The start nonterminal.
    pub fn start(&self) -> NtId {
        self.start
    }

    /// All registered dynamic-cost functions, indexed by [`DynCostId`].
    pub fn dyncosts(&self) -> &[DynCost] {
        &self.dyncosts
    }

    /// The dynamic-cost function with the given id.
    pub fn dyncost(&self, id: DynCostId) -> &DynCost {
        &self.dyncosts[id.0 as usize]
    }

    /// Replaces the implementation of the named dynamic-cost function.
    ///
    /// The DSL can only *declare* dynamic costs (`%dyncost name`); hosts
    /// bind the implementations afterwards with this method. Declared but
    /// unbound functions default to always-`Infinite`.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::UnknownDynCost`] if no such declaration
    /// exists.
    pub fn bind_dyncost(&mut self, name: &str, func: DynCostFn) -> Result<(), GrammarError> {
        match self.dyncosts.iter_mut().find(|d| d.name == name) {
            Some(d) => {
                d.func = func;
                Ok(())
            }
            None => Err(GrammarError::UnknownDynCost {
                name: name.to_owned(),
            }),
        }
    }

    /// Distinct operators used by any rule pattern.
    pub fn ops_used(&self) -> Vec<Op> {
        let mut seen = HashMap::new();
        let mut out = Vec::new();
        for rule in self.rules.iter() {
            for op in rule.pattern.ops() {
                if seen.insert(op, ()).is_none() {
                    out.push(op);
                }
            }
        }
        out.sort();
        out
    }

    /// Converts the grammar to normal form.
    pub fn normalize(&self) -> crate::NormalGrammar {
        crate::normal::normalize(self)
    }

    /// A copy of the grammar with every dynamic-cost rule removed.
    ///
    /// This is the grammar a burg user is forced to write: the
    /// code-quality experiments compare selections with and without the
    /// dynamic rules, and the offline automaton baseline is built from
    /// this variant.
    ///
    /// # Errors
    ///
    /// Returns the usual build errors if removing dynamic rules leaves a
    /// referenced nonterminal underivable (the shipped targets always
    /// keep fixed-cost fallbacks).
    pub fn without_dynamic_rules(&self) -> Result<Grammar, GrammarError> {
        let mut b = GrammarBuilder::new(&format!("{}-fixed", self.name));
        // Preserve nonterminal ids by interning in order.
        for name in &self.nonterminals {
            b.nt(name);
        }
        for rule in self.rules.iter() {
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
        b.start(self.start).build()
    }

    /// Summary statistics (the raw material of the paper's grammar table).
    pub fn stats(&self) -> GrammarStats {
        let normal = self.normalize();
        GrammarStats {
            name: self.name.clone(),
            rules: self.rules.len(),
            chain_rules: self.rules.iter().filter(|r| r.pattern.is_chain()).count(),
            dynamic_rules: self.rules.iter().filter(|r| r.cost.is_dynamic()).count(),
            nonterminals: self.nonterminals.len(),
            operators: self.ops_used().len(),
            normal_rules: normal.rules().len(),
            normal_nonterminals: normal.nonterminals().len(),
        }
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "%grammar {}", self.name)?;
        writeln!(f, "%start {}", self.nt_name(self.start))?;
        for d in &self.dyncosts {
            writeln!(f, "%dyncost {}", d.name)?;
        }
        for rule in self.rules.iter() {
            write!(
                f,
                "{}: {}",
                self.nt_name(rule.lhs),
                rule.pattern.display(&self.nonterminals)
            )?;
            match rule.cost {
                CostExpr::Fixed(c) => write!(f, " ({c})")?,
                CostExpr::Dynamic(id) => write!(f, " [{}]", self.dyncosts[id.0 as usize].name)?,
            }
            if let Some(t) = &rule.template {
                write!(f, " \"{t}\"")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Summary statistics of a grammar, as printed in the grammar table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarStats {
    /// Grammar name.
    pub name: String,
    /// Number of source rules.
    pub rules: usize,
    /// Number of chain rules (`nt: nt`).
    pub chain_rules: usize,
    /// Number of rules with dynamic costs.
    pub dynamic_rules: usize,
    /// Number of source nonterminals.
    pub nonterminals: usize,
    /// Number of distinct operators used.
    pub operators: usize,
    /// Rules after normal-form conversion.
    pub normal_rules: usize,
    /// Nonterminals after normal-form conversion (incl. helpers).
    pub normal_nonterminals: usize,
}

/// Incremental builder for [`Grammar`].
///
/// # Examples
///
/// ```
/// use odburg_grammar::{CostExpr, GrammarBuilder, Pattern};
/// use odburg_ir::{Op, OpKind, TypeTag};
///
/// let mut b = GrammarBuilder::new("tiny");
/// let reg = b.nt("reg");
/// b.rule(
///     reg,
///     Pattern::op(Op::new(OpKind::Const, TypeTag::I8), vec![]),
///     CostExpr::Fixed(1),
///     Some("mov ${imm}, {dst}".to_owned()),
/// );
/// let g = b.start(reg).build()?;
/// assert_eq!(g.rules().len(), 1);
/// # Ok::<(), odburg_grammar::GrammarError>(())
/// ```
#[derive(Debug, Default)]
pub struct GrammarBuilder {
    name: String,
    nonterminals: Vec<String>,
    nt_ids: HashMap<String, NtId>,
    rules: Vec<Rule>,
    start: Option<NtId>,
    dyncosts: Vec<DynCost>,
    dyncost_ids: HashMap<String, DynCostId>,
}

impl GrammarBuilder {
    /// Creates a builder for a grammar with the given name.
    pub fn new(name: &str) -> Self {
        GrammarBuilder {
            name: name.to_owned(),
            ..GrammarBuilder::default()
        }
    }

    /// Returns the builder with a new grammar name.
    pub fn rename(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Interns a nonterminal name, creating it on first use.
    pub fn nt(&mut self, name: &str) -> NtId {
        if let Some(&id) = self.nt_ids.get(name) {
            return id;
        }
        let id = NtId(self.nonterminals.len() as u16);
        self.nonterminals.push(name.to_owned());
        self.nt_ids.insert(name.to_owned(), id);
        id
    }

    /// Declares (or looks up) a dynamic-cost function by name.
    ///
    /// The default implementation returns `Infinite` until replaced via
    /// [`Grammar::bind_dyncost`] or [`GrammarBuilder::bind_dyncost`].
    pub fn dyncost(&mut self, name: &str) -> DynCostId {
        if let Some(&id) = self.dyncost_ids.get(name) {
            return id;
        }
        let id = DynCostId(self.dyncosts.len() as u16);
        self.dyncosts.push(DynCost {
            name: name.to_owned(),
            func: std::sync::Arc::new(|_, _| crate::RuleCost::Infinite),
        });
        self.dyncost_ids.insert(name.to_owned(), id);
        id
    }

    /// Declares a dynamic-cost function together with its implementation.
    pub fn bind_dyncost(&mut self, name: &str, func: DynCostFn) -> DynCostId {
        let id = self.dyncost(name);
        self.dyncosts[id.0 as usize].func = func;
        id
    }

    /// Adds a rule and returns its id.
    pub fn rule(
        &mut self,
        lhs: NtId,
        pattern: Pattern,
        cost: CostExpr,
        template: Option<String>,
    ) -> RuleId {
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(Rule {
            id,
            lhs,
            pattern,
            cost,
            template,
        });
        id
    }

    /// Sets the start nonterminal.
    pub fn start(mut self, nt: NtId) -> Self {
        self.start = Some(nt);
        self
    }

    /// Sets the start nonterminal without consuming the builder.
    pub fn set_start(&mut self, nt: NtId) {
        self.start = Some(nt);
    }

    /// Validates and finishes the grammar.
    ///
    /// # Errors
    ///
    /// * [`GrammarError::Empty`] if there are no rules.
    /// * [`GrammarError::NoStart`] if no start nonterminal was set.
    /// * [`GrammarError::UnderivableNonterminal`] if a pattern references a
    ///   nonterminal that no rule derives.
    pub fn build(self) -> Result<Grammar, GrammarError> {
        if self.rules.is_empty() {
            return Err(GrammarError::Empty);
        }
        let start = self.start.ok_or(GrammarError::NoStart)?;
        let mut derived = vec![false; self.nonterminals.len()];
        for rule in &self.rules {
            derived[rule.lhs.0 as usize] = true;
        }
        for rule in &self.rules {
            for nt in rule.pattern.nt_leaves() {
                if !derived[nt.0 as usize] {
                    return Err(GrammarError::UnderivableNonterminal {
                        name: self.nonterminals[nt.0 as usize].clone(),
                    });
                }
            }
        }
        if !derived[start.0 as usize] {
            return Err(GrammarError::UnderivableNonterminal {
                name: self.nonterminals[start.0 as usize].clone(),
            });
        }
        Ok(Grammar {
            name: self.name,
            nonterminals: self.nonterminals,
            rules: self.rules.into(),
            start,
            dyncosts: self.dyncosts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_ir::{OpKind, TypeTag};

    fn leaf_pattern() -> Pattern {
        Pattern::op(Op::new(OpKind::Const, TypeTag::I8), vec![])
    }

    #[test]
    fn builder_produces_grammar() {
        let mut b = GrammarBuilder::new("t");
        let reg = b.nt("reg");
        b.rule(reg, leaf_pattern(), CostExpr::Fixed(1), None);
        let g = b.start(reg).build().unwrap();
        assert_eq!(g.name(), "t");
        assert_eq!(g.start(), reg);
        assert_eq!(g.nt_name(reg), "reg");
        assert_eq!(g.find_nt("reg"), Some(reg));
        assert_eq!(g.find_nt("nope"), None);
    }

    #[test]
    fn empty_grammar_rejected() {
        let mut b = GrammarBuilder::new("t");
        let reg = b.nt("reg");
        assert_eq!(b.start(reg).build().unwrap_err(), GrammarError::Empty);
    }

    #[test]
    fn missing_start_rejected() {
        let mut b = GrammarBuilder::new("t");
        let reg = b.nt("reg");
        b.rule(reg, leaf_pattern(), CostExpr::Fixed(1), None);
        assert_eq!(b.build().unwrap_err(), GrammarError::NoStart);
    }

    #[test]
    fn underivable_nt_rejected() {
        let mut b = GrammarBuilder::new("t");
        let reg = b.nt("reg");
        let ghost = b.nt("ghost");
        b.rule(
            reg,
            Pattern::op(Op::new(OpKind::Load, TypeTag::I8), vec![Pattern::nt(ghost)]),
            CostExpr::Fixed(1),
            None,
        );
        match b.start(reg).build().unwrap_err() {
            GrammarError::UnderivableNonterminal { name } => assert_eq!(name, "ghost"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn dyncost_binding() {
        let mut b = GrammarBuilder::new("t");
        let reg = b.nt("reg");
        let dc = b.dyncost("imm8");
        b.rule(reg, leaf_pattern(), CostExpr::Dynamic(dc), None);
        let mut g = b.start(reg).build().unwrap();
        // Unbound dyncosts are Infinite.
        let f = odburg_ir::Forest::new();
        let mut f2 = f.clone();
        let n = f2.leaf(
            Op::new(OpKind::Const, TypeTag::I8),
            odburg_ir::Payload::Int(5),
        );
        assert_eq!(
            (g.dyncost(DynCostId(0)).func)(&f2, n),
            crate::RuleCost::Infinite
        );
        g.bind_dyncost(
            "imm8",
            std::sync::Arc::new(|_, _| crate::RuleCost::Finite(0)),
        )
        .unwrap();
        assert_eq!(
            (g.dyncost(DynCostId(0)).func)(&f2, n),
            crate::RuleCost::Finite(0)
        );
        assert!(g
            .bind_dyncost(
                "nope",
                std::sync::Arc::new(|_, _| crate::RuleCost::Infinite)
            )
            .is_err());
    }

    #[test]
    fn stats_count_rule_classes() {
        let mut b = GrammarBuilder::new("t");
        let reg = b.nt("reg");
        let addr = b.nt("addr");
        b.rule(reg, leaf_pattern(), CostExpr::Fixed(1), None);
        b.rule(addr, Pattern::nt(reg), CostExpr::Fixed(0), None);
        let dc = b.dyncost("d");
        b.rule(reg, leaf_pattern(), CostExpr::Dynamic(dc), None);
        let g = b.start(reg).build().unwrap();
        let s = g.stats();
        assert_eq!(s.rules, 3);
        assert_eq!(s.chain_rules, 1);
        assert_eq!(s.dynamic_rules, 1);
        assert_eq!(s.nonterminals, 2);
        assert_eq!(s.operators, 1);
    }
}
