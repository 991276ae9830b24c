//! The offline (ahead-of-time) tree-parsing automaton — the burg-style
//! baseline the paper compares against.
//!
//! All states and transition tables are computed up front by the one
//! representer closure ([`closure`](crate::closure)), run to its end under
//! the state budget. Child states are *projected* onto the operand
//! nonterminals of each operand class (the classic representer-state table
//! compression): operand positions with equal operand sets share one
//! representer array, indexed by state, and each operator's transitions
//! are keyed by the representer ids of its operands rather than by full
//! states. A projection that derives none of its class's nonterminals
//! still gets a representer id but is never enumerated, since every
//! combination with it is uncovered.
//!
//! Labeling is then a pure table lookup per node — the fastest labeler in
//! this workspace — but dynamic costs cannot be represented: the automaton
//! is fixed before the first tree is seen. [`DynCostMode`] chooses between
//! rejecting such grammars and silently dropping their dynamic rules
//! (which reproduces the code-quality gap that motivates on-demand
//! automata).

use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg_grammar::{Cost, NormalGrammar, NormalRuleId, NtId};
use odburg_ir::{Forest, Op};

use crate::closure::{close, Closure};
use crate::counters::WorkCounters;
use crate::label::{LabelError, Labeler, Labeling, StateLookup};
use crate::state::{StateData, StateId};

/// How the offline generator treats dynamic-cost rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DynCostMode {
    /// Fail with [`LabelError::DynamicCostsUnsupported`] if the grammar
    /// has any dynamic-cost rule.
    #[default]
    Error,
    /// Drop dynamic rules (treat them as never applicable). The automaton
    /// then selects the fixed-cost fallback rules, exactly like a burg
    /// user who had to delete the lburg dynamic-cost rules.
    Strip,
}

/// Configuration of the offline generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineConfig {
    /// Maximum number of states before construction fails (non-BURS-finite
    /// grammar guard).
    pub state_budget: usize,
    /// Dynamic-cost handling.
    pub dyncost_mode: DynCostMode,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig {
            state_budget: 1 << 16,
            dyncost_mode: DynCostMode::Error,
        }
    }
}

/// Size and build statistics of an offline automaton (the raw material of
/// the automaton-size table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineStats {
    /// Number of states.
    pub states: usize,
    /// Number of distinct representer (projected) states, summed over the
    /// operand positions of every operator.
    pub representers: usize,
    /// Total transition-table entries.
    pub transition_entries: usize,
    /// Approximate total table bytes (transition tables + representer
    /// arrays + state data).
    pub bytes: usize,
    /// Wall-clock construction time.
    pub build_time: Duration,
    /// Work units spent during construction.
    pub build_work: u64,
}

/// The fully built offline automaton.
///
/// Build with [`OfflineAutomaton::build`], label with
/// [`OfflineLabeler`].
#[derive(Debug)]
pub struct OfflineAutomaton {
    grammar: Arc<NormalGrammar>,
    /// The closure run to its end: the states, one representer array
    /// per operand class and each operator's transitions (leaf operators
    /// under `(0, 0)`, unary ones under `(rep0, 0)`).
    tables: Closure,
    stats: OfflineStats,
}

impl OfflineAutomaton {
    /// Builds the complete automaton for `grammar`.
    ///
    /// # Errors
    ///
    /// * [`LabelError::DynamicCostsUnsupported`] in
    ///   [`DynCostMode::Error`] if the grammar has dynamic rules.
    /// * [`LabelError::StateBudgetExceeded`] if the state closure exceeds
    ///   the budget.
    pub fn build(grammar: Arc<NormalGrammar>, config: OfflineConfig) -> Result<Self, LabelError> {
        let grammar = if grammar.has_dynamic_rules() {
            match config.dyncost_mode {
                DynCostMode::Error => return Err(LabelError::DynamicCostsUnsupported),
                // Strip mode: rebuild without the dynamic rules so that
                // their helper rules disappear too. Failure means a
                // nonterminal had no fixed-cost fallback, which an
                // offline automaton cannot represent either way.
                DynCostMode::Strip => Arc::new(
                    grammar
                        .strip_dynamic()
                        .map_err(|_| LabelError::DynamicCostsUnsupported)?,
                ),
            }
        } else {
            grammar
        };
        let start = Instant::now();
        let tables = close(&grammar, config.state_budget, Cost::INFINITE);
        if tables.truncated {
            return Err(LabelError::StateBudgetExceeded {
                budget: config.state_budget,
            });
        }
        let mut automaton = OfflineAutomaton {
            stats: OfflineStats {
                states: tables.states.len(),
                representers: 0,
                transition_entries: 0,
                bytes: tables.states.byte_size()
                    + tables.reps.iter().map(|r| r.len() * 4).sum::<usize>(),
                build_time: start.elapsed(),
                build_work: tables.counters.work_units(),
            },
            grammar,
            tables,
        };
        for &op in automaton.grammar.ops_used() {
            if op.arity() > 0 {
                let (n0, n1, entries) = automaton.transition_table(op);
                automaton.stats.representers += (n0 + n1) as usize;
                automaton.stats.transition_entries += entries.len();
                automaton.stats.bytes += entries.len() * 12;
            }
        }
        Ok(automaton)
    }

    /// The grammar this automaton selects for.
    pub fn grammar(&self) -> &Arc<NormalGrammar> {
        &self.grammar
    }

    /// Size and build statistics.
    pub fn stats(&self) -> OfflineStats {
        self.stats
    }

    /// The data of a state.
    pub fn state(&self, id: StateId) -> &StateData {
        self.tables.states.get(id)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.tables.states.len()
    }

    /// The state of a leaf operator, if covered.
    pub fn leaf_state(&self, op: Op) -> Option<StateId> {
        self.tables.transitions[op.id().0 as usize]
            .get(&(0, 0))
            .copied()
    }

    /// The representer id of every state for `(op, pos)`, padded to
    /// `num_states` entries (`u32::MAX` = no representer). Used by the
    /// Rust code generator.
    pub fn rep_map(&self, op: Op, pos: usize, num_states: usize) -> Vec<u32> {
        let mut v = self.tables.reps[self.grammar.operand_class(op, pos) as usize].clone();
        v.resize(num_states, u32::MAX);
        v
    }

    /// The transition table of `op` as `(n_rep0, n_rep1, entries)` with
    /// entries `(rep0, rep1, state)` (rep1 = 0 for unary operators). Used
    /// by the Rust code generator.
    pub fn transition_table(&self, op: Op) -> (u32, u32, Vec<(u32, u32, u32)>) {
        let n = |pos: usize| {
            if pos < op.arity() {
                self.tables.exemplars[self.grammar.operand_class(op, pos) as usize].len() as u32
            } else {
                0
            }
        };
        let entries = self.tables.transitions[op.id().0 as usize]
            .iter()
            .map(|(&(r0, r1), &s)| (r0, r1, s.0))
            .collect();
        (n(0), n(1), entries)
    }

    fn lookup(&self, op: Op, kids: &[StateId], counters: &mut WorkCounters) -> Option<StateId> {
        let mut key = [0u32; 2];
        for (pos, kid) in kids.iter().enumerate() {
            counters.table_lookups += 1;
            let reps = &self.tables.reps[self.grammar.operand_class(op, pos) as usize];
            key[pos] = *reps.get(kid.0 as usize)?;
        }
        // A leaf's state is a constant, not a probe.
        if !kids.is_empty() {
            counters.table_lookups += 1;
        }
        self.tables.transitions[op.id().0 as usize]
            .get(&(key[0], key[1]))
            .copied()
    }
}

impl StateLookup for OfflineAutomaton {
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.tables.states.get(state).rule(nt)
    }
}

/// A labeler that walks a forest through a prebuilt [`OfflineAutomaton`].
#[derive(Debug)]
pub struct OfflineLabeler {
    automaton: Arc<OfflineAutomaton>,
    counters: WorkCounters,
}

impl OfflineLabeler {
    /// Creates a labeler over a prebuilt automaton.
    pub fn new(automaton: Arc<OfflineAutomaton>) -> Self {
        OfflineLabeler {
            automaton,
            counters: WorkCounters::new(),
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &Arc<OfflineAutomaton> {
        &self.automaton
    }
}

impl Labeler for OfflineLabeler {
    type Output = Labeling;

    fn label_forest(&mut self, forest: &Forest) -> Result<Labeling, LabelError> {
        let mut states: Vec<StateId> = Vec::with_capacity(forest.len());
        let mut kid_buf: Vec<StateId> = Vec::with_capacity(2);
        for (id, node) in forest.iter() {
            self.counters.nodes += 1;
            kid_buf.clear();
            for &c in node.children() {
                kid_buf.push(states[c.index()]);
            }
            match self
                .automaton
                .lookup(node.op(), &kid_buf, &mut self.counters)
            {
                Some(s) => states.push(s),
                None => {
                    return Err(LabelError::NoCover {
                        node: id,
                        op: node.op(),
                    })
                }
            }
        }
        Ok(Labeling::from_states(states))
    }

    fn counters(&self) -> WorkCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn name(&self) -> &'static str {
        "offline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_state, fixed_only};
    use odburg_grammar::parse_grammar;
    use odburg_ir::parse_sexpr;

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

    fn build_demo() -> OfflineAutomaton {
        let g = Arc::new(parse_grammar(DEMO).unwrap().normalize());
        OfflineAutomaton::build(g, OfflineConfig::default()).unwrap()
    }

    #[test]
    fn demo_automaton_is_finite_and_small() {
        let auto = build_demo();
        // The complete automaton for the running example has 6 states
        // (cf. Fig. 5 of the CC'18 background paper: states 10-15).
        assert_eq!(auto.num_states(), 6);
        assert!(auto.stats().transition_entries > 0);
        assert!(auto.stats().bytes > 0);
    }

    #[test]
    fn labeling_matches_construction() {
        let auto = Arc::new(build_demo());
        let mut labeler = OfflineLabeler::new(auto.clone());
        let mut f = Forest::new();
        let root = parse_sexpr(
            &mut f,
            "(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))",
        )
        .unwrap();
        f.add_root(root);
        let labeling = labeler.label_forest(&f).unwrap();
        // The root must derive stmt.
        let g = auto.grammar();
        let rule = auto
            .rule_in_state(labeling.state_of(root), g.start())
            .unwrap();
        assert!(g.rule(rule).is_final);
        assert_eq!(labeler.counters().nodes, 6);
        assert!(labeler.counters().table_lookups > 0);
    }

    #[test]
    fn uncovered_op_is_no_cover() {
        let auto = Arc::new(build_demo());
        let mut labeler = OfflineLabeler::new(auto);
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, "(MulF8 (ConstF8 #1.0) (ConstF8 #1.0))").unwrap();
        f.add_root(root);
        assert!(matches!(
            labeler.label_forest(&f),
            Err(LabelError::NoCover { .. })
        ));
    }

    #[test]
    fn dynamic_costs_rejected_or_stripped() {
        let g = Arc::new(
            parse_grammar("%start reg\n%dyncost d\nreg: ConstI8 [d]\nreg: ConstI8 (4)\n")
                .unwrap()
                .normalize(),
        );
        assert!(matches!(
            OfflineAutomaton::build(g.clone(), OfflineConfig::default()),
            Err(LabelError::DynamicCostsUnsupported)
        ));
        let auto = OfflineAutomaton::build(
            g,
            OfflineConfig {
                dyncost_mode: DynCostMode::Strip,
                ..OfflineConfig::default()
            },
        )
        .unwrap();
        // With the dynamic rule stripped, the fixed rule is the optimal
        // (and only) choice.
        assert_eq!(auto.num_states(), 1);
    }

    #[test]
    fn representer_projection_compresses_transitions() {
        // Two constant kinds produce different states (different costs
        // for reg), but project identically for Store's address operand
        // (both derive addr at relative cost 0) — so the Store tables
        // stay small and the Load tables distinguish them only as far as
        // the grammar cares.
        let g = Arc::new(
            parse_grammar(
                r#"
                %start stmt
                addr: reg (0)
                reg: ConstI8 (1)
                reg: ConstI4 (3)
                reg: LoadI8(addr) (1)
                stmt: StoreI8(addr, reg) (1)
                "#,
            )
            .unwrap()
            .normalize(),
        );
        let auto = OfflineAutomaton::build(g, OfflineConfig::default()).unwrap();
        let stats = auto.stats();
        // States: const8, const4, load-result (same as consts after
        // normalization? load: reg=1,addr=1 → normalized equal to
        // const8's) and the store state.
        assert!(stats.states <= 4, "states: {}", stats.states);
        // Representers per (op, pos) never exceed the distinct projected
        // classes, which is 1 for every operand here (all relative costs
        // agree once restricted).
        let store: Op = "StoreI8".parse().unwrap();
        let mut c = WorkCounters::new();
        // Both constants must drive Store through the same transition.
        let s8 = compute_state(
            auto.grammar(),
            "ConstI8".parse().unwrap(),
            &[],
            fixed_only,
            &mut c,
        );
        let s4 = compute_state(
            auto.grammar(),
            "ConstI4".parse().unwrap(),
            &[],
            fixed_only,
            &mut c,
        );
        assert_ne!(s8, s4, "full states differ");
        assert_eq!(
            s8.project(auto.grammar().operand_nts(store, 0)),
            s4.project(auto.grammar().operand_nts(store, 0)),
            "projections agree"
        );
    }

    #[test]
    fn build_stats_account_structures() {
        let auto = build_demo();
        let s = auto.stats();
        assert!(s.representers > 0);
        assert!(s.build_work > 0);
        assert!(s.bytes >= auto.num_states() * 2);
    }

    #[test]
    fn state_budget_guards_construction() {
        let g = Arc::new(parse_grammar(DEMO).unwrap().normalize());
        let result = OfflineAutomaton::build(
            g,
            OfflineConfig {
                state_budget: 2,
                ..OfflineConfig::default()
            },
        );
        assert!(matches!(
            result,
            Err(LabelError::StateBudgetExceeded { budget: 2 })
        ));
    }
}
