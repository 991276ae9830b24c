//! Property-based testing over *randomly generated grammars*: the
//! equivalence of all optimal selectors must hold for any well-formed
//! tree grammar, not just the shipped machine descriptions.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use odburg::prelude::*;
use odburg::workloads::TreeSampler;

use common::{random_grammar, total_cost};

#[test]
fn non_burs_finite_grammar_defeats_offline_but_not_ondemand() {
    // A grammar whose two register classes drift apart in cost with tree
    // depth (no chain rule connects them): the set of cost-normalized
    // states is infinite, so offline generation cannot terminate — while
    // the on-demand automaton only ever builds the states its actual
    // workload needs. This is the situation the paper family's footnote
    // on termination describes.
    let grammar = parse_grammar(
        r#"
        %start s
        a: ConstI8 (0)
        a: LoadI8(a) (1)
        b: ConstI8 (0)
        b: LoadI8(b) (2)
        s: StoreI8(a, b) (1)
        "#,
    )
    .unwrap();
    let normal = Arc::new(grammar.normalize());
    let result = OfflineAutomaton::build(normal.clone(), OfflineConfig { state_budget: 1000 });
    assert!(
        matches!(result, Err(LabelError::StateBudgetExceeded { .. })),
        "offline construction must diverge: {result:?}"
    );

    // The on-demand automaton handles any concrete workload fine, with
    // states proportional to the deepest chain actually seen.
    let mut od = OnDemandAutomaton::new(normal.clone());
    let mut forest = Forest::new();
    let src = "(StoreI8 (LoadI8 (LoadI8 (ConstI8 0))) (LoadI8 (ConstI8 1)))";
    let root = parse_sexpr(&mut forest, src).unwrap();
    forest.add_root(root);
    let labeling = od.label_forest(&forest).unwrap();
    let chooser = labeling.chooser(&od);
    let red = odburg::codegen::reduce_forest(&forest, &normal, &chooser).unwrap();
    assert_eq!(red.total_cost, Cost::finite(5)); // 2×load(a) + load(b)×1@2 + store
    assert!(od.stats().states <= 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn selectors_agree_on_random_grammars(seed in 0u64..100_000) {
        let grammar = random_grammar(seed);
        let normal = Arc::new(grammar.normalize());
        let mut sampler = TreeSampler::new(&normal, seed ^ 0xDEAD);
        let forest = sampler.sample_forest(25);

        let mut dp = DpLabeler::new(normal.clone());
        let dp_labeling = dp.label_forest(&forest).expect("dp labels");
        let dp_cost = total_cost(&forest, &normal, &dp_labeling);

        let mut od = OnDemandAutomaton::new(normal.clone());
        let od_labeling = od.label_forest(&forest).expect("od labels");
        let od_chooser = od_labeling.chooser(&od);
        let od_cost = total_cost(&forest, &normal, &od_chooser);
        prop_assert_eq!(dp_cost, od_cost, "grammar seed {}", seed);

        // Offline agrees with DP on the stripped grammar — whenever its
        // construction terminates. Random grammars may lack the chain
        // rules that bound relative costs (the classic non-BURS-finite
        // situation the paper's footnote describes); the offline builder
        // then hits its state budget while the on-demand automaton — the
        // whole point — kept working above.
        let stripped = Arc::new(normal.strip_dynamic().expect("leaf fallbacks exist"));
        let config = OfflineConfig {
            state_budget: 4_000,
        };
        match OfflineAutomaton::build(stripped.clone(), config) {
            Ok(offline) => {
                let offline = Arc::new(offline);
                let mut off = OfflineLabeler::new(offline.clone());
                let off_labeling = off.label_forest(&forest).expect("offline labels");
                let off_chooser = off_labeling.chooser(&*offline);
                let off_cost = total_cost(&forest, &stripped, &off_chooser);
                let mut dps = DpLabeler::new(stripped.clone());
                let dps_labeling = dps.label_forest(&forest).expect("stripped dp labels");
                prop_assert_eq!(off_cost, total_cost(&forest, &stripped, &dps_labeling));
                prop_assert!(off_cost >= dp_cost);
            }
            Err(LabelError::StateBudgetExceeded { .. }) => {
                // Non-BURS-finite grammar: offline generation diverges,
                // on-demand selection already succeeded above. That *is*
                // one of the paper's selling points.
            }
            Err(other) => prop_assert!(false, "unexpected offline error: {other}"),
        }
    }

    #[test]
    fn state_invariants_hold_on_random_grammars(seed in 0u64..100_000) {
        // Every state the automaton builds is normalized (minimum finite
        // delta is zero) and never dead for nodes that labeled fine.
        let grammar = random_grammar(seed);
        let normal = Arc::new(grammar.normalize());
        let mut sampler = TreeSampler::new(&normal, seed ^ 0xBEEF);
        let forest = sampler.sample_forest(15);
        let mut od = OnDemandAutomaton::new(normal.clone());
        let labeling = od.label_forest(&forest).expect("labels");
        for (id, _) in forest.iter() {
            let data = od.state(labeling.state_of(id));
            prop_assert!(!data.is_dead());
            let min = (0..normal.num_nts())
                .map(|i| data.cost(odburg::grammar::NtId(i as u16)))
                .filter(|c| c.is_finite())
                .min()
                .expect("live state has a finite cost");
            prop_assert_eq!(min, Cost::ZERO, "state not normalized");
        }
    }

    #[test]
    fn grammar_display_reparses_equivalently(seed in 0u64..100_000) {
        // Printing a grammar in DSL syntax and reparsing it yields a
        // grammar with identical structure (costs, rule classes, sizes).
        let grammar = random_grammar(seed);
        let text = grammar.to_string();
        let reparsed = parse_grammar(&text)
            .unwrap_or_else(|e| panic!("reparse failed for:\n{text}\n{e}"));
        let a = grammar.stats();
        let b = reparsed.stats();
        prop_assert_eq!(a.rules, b.rules);
        prop_assert_eq!(a.chain_rules, b.chain_rules);
        prop_assert_eq!(a.dynamic_rules, b.dynamic_rules);
        prop_assert_eq!(a.normal_rules, b.normal_rules);
        prop_assert_eq!(a.operators, b.operators);
    }
}
