//! The offline (ahead-of-time) tree-parsing automaton — the burg-style
//! baseline the paper compares against.
//!
//! All states and transitions are computed up front by the one
//! representer closure ([`closure`](crate::closure)), run to its end under
//! the state budget, and loaded into the on-demand automaton's table
//! layout (`dense.rs`): burg's representer arrays are its operand-class
//! arrays, and each operator's transitions are keyed by the operands'
//! representer ids under the empty signature.
//!
//! Labeling is then the walk an on-demand snapshot runs — the fastest
//! labeler in this workspace — and any node it stops at is `NoCover`,
//! since the tables are complete. Dynamic costs cannot be represented, so
//! [`OfflineAutomaton::build`] refuses grammars with dynamic rules;
//! stripping them first
//! ([`NormalGrammar::strip_dynamic`](odburg_grammar::NormalGrammar::strip_dynamic))
//! selects the fixed-cost fallback rules, which reproduces the
//! code-quality gap that motivates on-demand automata.

use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg_grammar::{Cost, NormalGrammar, NormalRuleId, NtId};
use odburg_ir::{Forest, NodeId, Op};

use crate::closure::close;
use crate::counters::WorkCounters;
use crate::dense::{Tables, UNSEEN};
use crate::govern;
use crate::label::{LabelError, Labeler, Labeling, StateLookup};
use crate::signature::SigId;
use crate::snapshot::{DynEvalTable, Stop, Walk, MAX_ARITY, NO_CHILD};
use crate::state::{StateData, StateId, StateSet};

/// Configuration of the offline generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineConfig {
    /// Maximum number of states before construction fails (non-BURS-finite
    /// grammar guard).
    pub state_budget: usize,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig {
            state_budget: 1 << 16,
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
    /// Accounted bytes of the tables the labeler reads: state data,
    /// transition groups, representer arrays and the signature table,
    /// priced as the on-demand automaton's tables are
    /// ([`ComponentBytes::total`](crate::govern::ComponentBytes::total)).
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
    states: StateSet,
    /// The closure's representer arrays and transitions, keyed as the
    /// walk keys them: leaf operators under `[NO_CHILD; 2]`, unary ones
    /// under `[rep, NO_CHILD]`, every signature empty.
    tables: Tables,
    /// The grammar has no dynamic rules, so this evaluates none.
    dyn_eval: DynEvalTable,
    stats: OfflineStats,
}

impl OfflineAutomaton {
    /// Builds the complete automaton for `grammar`.
    ///
    /// # Errors
    ///
    /// * [`LabelError::DynamicCostsUnsupported`] if the grammar has
    ///   dynamic rules.
    /// * [`LabelError::StateBudgetExceeded`] if the state closure exceeds
    ///   the budget.
    pub fn build(grammar: Arc<NormalGrammar>, config: OfflineConfig) -> Result<Self, LabelError> {
        if grammar.has_dynamic_rules() {
            return Err(LabelError::DynamicCostsUnsupported);
        }
        let start = Instant::now();
        let closure = close(&grammar, config.state_budget, Cost::INFINITE);
        if closure.truncated {
            return Err(LabelError::StateBudgetExceeded {
                budget: config.state_budget,
            });
        }
        let (mut tables, mut entries) = (Tables::default(), 0);
        for (class, reps) in closure.reps.iter().enumerate() {
            // Highest state first: each class array is allocated once.
            for (state, &rep) in reps.iter().enumerate().rev() {
                tables.insert_projection(StateId(state as u32), class as u32, StateId(rep));
            }
        }
        for &(combo, state) in &closure.log {
            let arity = combo.op.arity();
            let mut kids = [NO_CHILD; MAX_ARITY];
            kids[..arity].copy_from_slice(&combo.reps[..arity]);
            tables.insert_transition(combo.op.id().0, kids, SigId::EMPTY, state, false);
            // A leaf's state is a constant, not a transition-table entry.
            entries += usize::from(arity > 0);
        }
        let g = &*grammar;
        let classes = g
            .ops_used()
            .iter()
            .flat_map(|&op| (0..op.arity()).map(move |pos| g.operand_class(op, pos) as usize));
        let representers = classes.map(|class| closure.exemplars[class].len()).sum();
        let dyn_eval = DynEvalTable::build(&grammar);
        Ok(OfflineAutomaton {
            stats: OfflineStats {
                states: closure.states.len(),
                representers,
                transition_entries: entries,
                bytes: govern::account_tables(closure.states.arena(), &[], &tables).total(),
                build_time: start.elapsed(),
                build_work: closure.counters.work_units(),
            },
            dyn_eval,
            grammar,
            states: closure.states,
            tables,
        })
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
        self.states.get(id)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The state of a leaf operator, if covered.
    pub fn leaf_state(&self, op: Op) -> Option<StateId> {
        self.tables
            .lookup(op.id().0, [NO_CHILD; MAX_ARITY], SigId::EMPTY)
    }

    /// The representer id of every state for `(op, pos)`, padded to
    /// `num_states` entries (`u32::MAX` = no representer). Used by the
    /// Rust code generator.
    pub fn rep_map(&self, op: Op, pos: usize, num_states: usize) -> Vec<u32> {
        let class = self.grammar.operand_class(op, pos);
        let mut v = self.tables.class(class).to_vec();
        v.resize(num_states, UNSEEN);
        v
    }

    /// The transition table of `op` as `(n_rep0, n_rep1, entries)` with
    /// entries `(rep0, rep1, state)` (rep1 = 0 for unary operators). Used
    /// by the Rust code generator.
    pub fn transition_table(&self, op: Op) -> (u32, u32, Vec<(u32, u32, u32)>) {
        // Representer ids are dense from 0, each held by some state; the
        // operand class past the arity is empty.
        let class = |pos| self.tables.class(self.grammar.operand_class(op, pos));
        let n = |pos| class(pos).iter().map(|&r| r + 1).max().unwrap_or(0);
        let rep = |kid| if kid == NO_CHILD { 0 } else { kid };
        let entries = self.tables.transitions().filter(|t| t.op == op.id().0);
        let entries = entries.map(|t| (rep(t.kids[0]), rep(t.kids[1]), t.state.0));
        (n(0), n(1), entries.collect())
    }
}

impl StateLookup for OfflineAutomaton {
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.states.get(state).rule(nt)
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

    /// The table walk with the empty signature; the tables are complete,
    /// so a node it stops at is `NoCover`.
    fn label_forest(&mut self, forest: &Forest) -> Result<Labeling, LabelError> {
        let a = &*self.automaton;
        let walk = Walk(&a.tables, &a.grammar, &a.dyn_eval);
        let mut states = Vec::with_capacity(forest.len());
        if walk.run(forest, &mut states, &mut Vec::new(), &mut self.counters) == Stop::Done {
            return Ok(Labeling::from_states(states));
        }
        let node = NodeId(states.len() as u32);
        let op = forest.node(node).op();
        Err(LabelError::NoCover { node, op })
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
        let stripped = Arc::new(g.strip_dynamic().unwrap());
        let auto = OfflineAutomaton::build(stripped, OfflineConfig::default()).unwrap();
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
        let result = OfflineAutomaton::build(g, OfflineConfig { state_budget: 2 });
        assert!(matches!(
            result,
            Err(LabelError::StateBudgetExceeded { budget: 2 })
        ));
    }
}
