//! Property-based equivalence: on grammar-sampled random workloads, all
//! optimal labelers must agree — the central correctness claim behind the
//! paper's "same code, faster selection".

use std::sync::Arc;

use proptest::prelude::*;

use odburg::prelude::*;
use odburg::workloads::random_workload;

/// Total optimal cost of a forest according to a labeler + reducer.
fn reduced_cost(forest: &Forest, normal: &Arc<NormalGrammar>, chooser: &dyn RuleChooser) -> Cost {
    odburg::codegen::reduce_forest(forest, normal, chooser)
        .expect("reduce")
        .total_cost
}

fn check_equivalence(target: &str, seed: u64, trees: usize) -> Result<(), TestCaseError> {
    let grammar = odburg::targets::by_name(target).unwrap();
    let normal = Arc::new(grammar.normalize());
    let workload = random_workload(&normal, seed, trees);
    let forest = &workload.forest;

    let mut dp = DpLabeler::new(normal.clone());
    let dp_labeling = dp.label_forest(forest).expect("dp labels sampled trees");
    let dp_cost = reduced_cost(forest, &normal, &dp_labeling);

    let mut od = OnDemandAutomaton::new(normal.clone());
    let od_labeling = od.label_forest(forest).expect("od labels sampled trees");
    let od_chooser = od_labeling.chooser(&od);
    let od_cost = reduced_cost(forest, &normal, &od_chooser);

    prop_assert_eq!(
        dp_cost,
        od_cost,
        "dp vs ondemand on {} seed {}",
        target,
        seed
    );

    // Per-nonterminal optimality: for every node, the automaton's state
    // must record a rule exactly when DP found a finite cost.
    let start = normal.start();
    for (id, _) in forest.iter() {
        let dp_has = dp_labeling.rule_for(id, start).is_some();
        let od_has = od_chooser.rule_for(id, start).is_some();
        prop_assert_eq!(dp_has, od_has, "start derivability at {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn x86ish_equivalence(seed in 0u64..10_000) {
        check_equivalence("x86ish", seed, 40)?;
    }

    #[test]
    fn riscish_equivalence(seed in 0u64..10_000) {
        check_equivalence("riscish", seed, 40)?;
    }

    #[test]
    fn sparcish_equivalence(seed in 0u64..10_000) {
        check_equivalence("sparcish", seed, 40)?;
    }

    #[test]
    fn alphaish_equivalence(seed in 0u64..10_000) {
        check_equivalence("alphaish", seed, 40)?;
    }

    #[test]
    fn jvmish_equivalence(seed in 0u64..10_000) {
        check_equivalence("jvmish", seed, 40)?;
    }

    #[test]
    fn offline_matches_dp_on_fixed_grammar(seed in 0u64..10_000) {
        // With no dynamic rules at all, the offline automaton must agree
        // with DP exactly.
        let grammar = odburg::targets::x86ish().without_dynamic_rules().unwrap();
        let normal = Arc::new(grammar.normalize());
        let workload = random_workload(&normal, seed, 30);
        let forest = &workload.forest;

        let mut dp = DpLabeler::new(normal.clone());
        let dp_labeling = dp.label_forest(forest).unwrap();
        let dp_cost = reduced_cost(forest, &normal, &dp_labeling);

        let offline = Arc::new(
            OfflineAutomaton::build(normal.clone(), OfflineConfig::default()).unwrap(),
        );
        let mut off = OfflineLabeler::new(offline.clone());
        let off_labeling = off.label_forest(forest).unwrap();
        let off_chooser = off_labeling.chooser(&*offline);
        let off_cost = reduced_cost(forest, &normal, &off_chooser);

        prop_assert_eq!(dp_cost, off_cost);
    }

    #[test]
    fn sexpr_roundtrip_on_sampled_trees(seed in 0u64..10_000) {
        // Structural property of the IR substrate: printing and reparsing
        // a sampled tree reproduces it.
        let grammar = odburg::targets::riscish();
        let normal = grammar.normalize();
        let workload = random_workload(&normal, seed, 5);
        for &root in workload.forest.roots() {
            let text = to_sexpr(&workload.forest, root);
            let mut fresh = Forest::new();
            let new_root = parse_sexpr(&mut fresh, &text).unwrap();
            prop_assert_eq!(to_sexpr(&fresh, new_root), text);
        }
    }

    #[test]
    fn work_ratio_favors_automaton(seed in 0u64..1_000) {
        // The headline claim, as a property: once warm, the on-demand
        // automaton does less work per node than DP.
        let grammar = odburg::targets::x86ish();
        let normal = Arc::new(grammar.normalize());
        let warmup = random_workload(&normal, seed, 60);
        let measured = random_workload(&normal, seed.wrapping_add(1), 60);

        let mut od = OnDemandAutomaton::new(normal.clone());
        od.label_forest(&warmup.forest).unwrap();
        od.reset_counters();
        od.label_forest(&measured.forest).unwrap();
        let od_work = od.counters().work_units() as f64 / od.counters().nodes as f64;

        let mut dp = DpLabeler::new(normal.clone());
        dp.label_forest(&measured.forest).unwrap();
        let dp_work = dp.counters().work_units() as f64 / dp.counters().nodes as f64;

        prop_assert!(
            od_work < dp_work,
            "warm automaton ({od_work:.1}/node) must beat dp ({dp_work:.1}/node)"
        );
    }
}
