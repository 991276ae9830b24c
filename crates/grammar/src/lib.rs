//! Tree grammars for instruction selection.
//!
//! A machine description for tree-parsing instruction selection is a *tree
//! grammar*: a set of rules `nonterminal: pattern (cost)`, where the
//! pattern is an IR-operator tree whose leaves may be nonterminals. Finding
//! the cheapest derivation of an IR tree from the start nonterminal *is*
//! instruction selection; each applied rule emits the instructions named in
//! its template.
//!
//! This crate provides:
//!
//! * the grammar model ([`Grammar`], [`Rule`], [`Pattern`]) with **fixed**
//!   and **dynamic** rule costs ([`CostExpr`], [`DynCostFn`]) — dynamic
//!   costs are selection-time functions of the matched node, used for
//!   applicability tests such as "fits in an 8-bit immediate" or "load and
//!   store address the same location" (read-modify-write instructions);
//! * a burg-style text description language ([`parse_grammar`]);
//! * **normal-form conversion** ([`NormalGrammar`]): every rule becomes a
//!   base rule `n: Op(n1, …, nk)` or a chain rule `n: m`, which is the form
//!   all labelers and automata operate on;
//! * static analyses ([`analysis`]) used for validation, workload
//!   generation and automaton construction;
//! * emission templates compiled once per grammar ([`template`]), which
//!   the reducer interprets without parsing text.
//!
//! # Examples
//!
//! The running example of the paper family:
//!
//! ```
//! use odburg_grammar::parse_grammar;
//!
//! let g = parse_grammar(
//!     r#"
//!     %grammar demo
//!     %start stmt
//!     addr: reg (0)
//!     reg: ConstI8 (1) "mov ${imm}, {dst}"
//!     reg: LoadI8(addr) (1) "mov ({a}), {dst}"
//!     reg: AddI8(reg, reg) (1) "add {a}, {b}; mov {b}, {dst}"
//!     stmt: StoreI8(addr, reg) (1) "mov {b}, ({a})"
//!     stmt: StoreI8(addr, AddI8(LoadI8(addr), reg)) (1) "add {c}, ({a})"
//!     "#,
//! )?;
//! assert_eq!(g.rules().len(), 6);
//! let n = g.normalize();
//! assert_eq!(n.rules().len(), 8); // rule 6 splits into three
//! # Ok::<(), odburg_grammar::GrammarError>(())
//! ```

pub mod analysis;
pub use analysis::{Analysis, Code, Diagnostic, Severity, StateBound, Witness};
mod cost;
mod dsl;
mod grammar;
mod normal;
mod pattern;
pub mod template;

pub use cost::{Cost, CostExpr, DynCost, DynCostFn, DynCostId, RuleCost};
pub use dsl::parse_grammar;
pub use grammar::{Grammar, GrammarBuilder, GrammarError, GrammarStats, NtId, Rule, RuleId};
pub use normal::{NormalGrammar, NormalRhs, NormalRule, NormalRuleId};
pub use pattern::Pattern;
