//! Failure injection across the crates: malformed inputs, uncovered
//! trees, and automaton limits must produce the documented errors, never
//! panics or wrong derivations.

use std::sync::Arc;

use odburg::grammar::GrammarError;
use odburg::prelude::*;

#[test]
fn dsl_rejects_malformed_grammars_with_line_numbers() {
    let cases = [
        ("reg: (1)\n", 1),
        ("reg: ConstI8 (1)\nreg: AddI8(reg) (1)\n", 2),
        ("reg: ConstI8\n", 1),
        ("%start\nreg: ConstI8 (1)\n", 1),
        ("reg: UnknownOp (1)\n", 1),
    ];
    for (src, line) in cases {
        match parse_grammar(src) {
            Err(GrammarError::Parse { line: l, .. }) => {
                assert_eq!(l, line, "wrong line for {src:?}")
            }
            other => panic!("{src:?}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn uncovered_operator_fails_identically_everywhere() {
    // jvmish has no float rules at all.
    let grammar = odburg::targets::jvmish();
    let normal = Arc::new(grammar.normalize());
    let mut forest = Forest::new();
    let root = parse_sexpr(&mut forest, "(StoreF8 (AddrLocalP @x) (ConstF8 #1.0))").unwrap();
    forest.add_root(root);

    let mut dp = DpLabeler::new(normal.clone());
    assert!(matches!(
        dp.label_forest(&forest),
        Err(LabelError::NoCover { .. })
    ));
    let mut od = OnDemandAutomaton::new(normal.clone());
    assert!(matches!(
        od.label_forest(&forest),
        Err(LabelError::NoCover { .. })
    ));
    let offline = Arc::new(
        OfflineAutomaton::build(
            Arc::new(grammar.without_dynamic_rules().unwrap().normalize()),
            OfflineConfig::default(),
        )
        .unwrap(),
    );
    let mut off = OfflineLabeler::new(offline);
    assert!(matches!(
        off.label_forest(&forest),
        Err(LabelError::NoCover { .. })
    ));
}

#[test]
fn partial_cover_fails_at_the_root_not_before() {
    // A node covered only for a non-start nonterminal labels fine but
    // fails at reduction when the goal is unreachable.
    let grammar = parse_grammar(
        "%start stmt\nstmt: StoreI8(addr, reg) (1)\naddr: reg (0)\nreg: ConstI8 (1)\n",
    )
    .unwrap();
    let normal = Arc::new(grammar.normalize());
    let mut forest = Forest::new();
    // A bare constant is labelable (derives reg) but is not a stmt…
    let root = parse_sexpr(&mut forest, "(ConstI8 1)").unwrap();
    forest.add_root(root);
    let mut od = OnDemandAutomaton::new(normal.clone());
    let labeling = od.label_forest(&forest).unwrap();
    let chooser = labeling.chooser(&od);
    let err = odburg::codegen::reduce_forest(&forest, &normal, &chooser).unwrap_err();
    assert!(matches!(
        err,
        odburg::codegen::ReduceError::MissingRule { .. }
    ));
}

#[test]
fn state_budgets_fire_on_both_automata() {
    let grammar = odburg::targets::riscish();
    let normal = Arc::new(grammar.normalize());
    let mut od = OnDemandAutomaton::with_config(
        normal.clone(),
        OnDemandConfig {
            state_budget: 3,
            ..OnDemandConfig::default()
        },
    );
    let forest = odburg::frontend::programs::by_name("fact")
        .unwrap()
        .compile()
        .unwrap();
    assert!(matches!(
        od.label_forest(&forest),
        Err(LabelError::StateBudgetExceeded { budget: 3 })
    ));

    let fixed = Arc::new(grammar.without_dynamic_rules().unwrap().normalize());
    assert!(matches!(
        OfflineAutomaton::build(fixed, OfflineConfig { state_budget: 3 }),
        Err(LabelError::StateBudgetExceeded { budget: 3 })
    ));
}

#[test]
fn flush_policy_bounds_memory_and_stays_correct() {
    // With a tiny budget and the Flush policy, labeling still succeeds
    // (per forest), memory stays bounded, and the derivations remain
    // optimal — each forest just re-warms the automaton.
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let budget = 34; // > largest single-program automaton (32), < suite total (~58)
    let mut od = OnDemandAutomaton::with_config(
        normal.clone(),
        OnDemandConfig {
            state_budget: budget,
            memory_budget: Some(MemoryBudget::flush(usize::MAX)),
        },
    );
    let mut dp = DpLabeler::new(normal.clone());
    for program in odburg::frontend::programs::all() {
        let forest = program.compile().unwrap();
        let labeling = od.label_forest(&forest).unwrap();
        let chooser = labeling.chooser(&od);
        let od_cost = odburg::codegen::reduce_forest(&forest, &normal, &chooser)
            .unwrap()
            .total_cost;
        let dp_labeling = dp.label_forest(&forest).unwrap();
        let dp_cost = odburg::codegen::reduce_forest(&forest, &normal, &dp_labeling)
            .unwrap()
            .total_cost;
        assert_eq!(od_cost, dp_cost, "{}: flush broke optimality", program.name);
        assert!(od.stats().states <= budget + 1, "budget not respected");
    }
    assert!(
        od.counters().flushes > 0,
        "the tiny budget must force flushes"
    );
}

#[test]
fn clear_resets_to_cold() {
    let grammar = odburg::targets::jvmish();
    let normal = Arc::new(grammar.normalize());
    let mut od = OnDemandAutomaton::new(normal);
    let forest = odburg::frontend::programs::by_name("fact")
        .unwrap()
        .compile()
        .unwrap();
    od.label_forest(&forest).unwrap();
    assert!(od.stats().states > 0);
    od.clear();
    assert_eq!(od.stats().states, 0);
    assert_eq!(od.stats().transitions, 0);
    assert_eq!(od.counters().flushes, 1);
    // And it still works afterwards.
    od.label_forest(&forest).unwrap();
    assert!(od.stats().states > 0);
}

#[test]
fn offline_refuses_dynamic_costs_by_default() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    assert!(matches!(
        OfflineAutomaton::build(normal, OfflineConfig::default()),
        Err(LabelError::DynamicCostsUnsupported)
    ));
}

#[test]
fn strip_mode_loses_exactly_the_dynamic_rules() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let auto = OfflineAutomaton::build(
        Arc::new(normal.strip_dynamic().unwrap()),
        OfflineConfig::default(),
    )
    .unwrap();
    // Stripping the normal grammar and the source grammar produce
    // automata of the same size.
    let stripped = Arc::new(
        odburg::targets::x86ish()
            .without_dynamic_rules()
            .unwrap()
            .normalize(),
    );
    let auto2 = OfflineAutomaton::build(stripped, OfflineConfig::default()).unwrap();
    assert_eq!(auto.stats().states, auto2.stats().states);
}

#[test]
fn frontend_errors_surface_cleanly() {
    assert!(odburg::frontend::compile("fn f( { }").is_err());
    assert!(odburg::frontend::compile("fn f() { return zz; }").is_err());
    assert!(odburg::frontend::compile("fn f() { let x = 1 ? 2; }").is_err());
}

#[test]
fn error_types_are_displayable_and_std_errors() {
    fn assert_error<E: std::error::Error>(_: &E) {}
    let e = LabelError::NoCover {
        node: NodeId(3),
        op: Op::new(OpKind::Add, TypeTag::I4),
    };
    assert_error(&e);
    assert!(e.to_string().contains("AddI4"));
    let g = GrammarError::Parse {
        line: 7,
        message: "boom".into(),
    };
    assert_error(&g);
    assert!(g.to_string().contains('7'));
}
