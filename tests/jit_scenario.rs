//! The JIT deployment scenario: a persistent, shared on-demand automaton
//! serving concurrent compilation threads.

use std::sync::Arc;

use odburg::frontend::programs;
use odburg::prelude::*;

fn dp_costs_per_program(normal: &Arc<NormalGrammar>) -> Vec<(String, Cost)> {
    let mut dp = DpLabeler::new(normal.clone());
    programs::all()
        .iter()
        .map(|p| {
            let forest = p.compile().unwrap();
            let labeling = dp.label_forest(&forest).unwrap();
            let cost = odburg::codegen::reduce_forest(&forest, normal, &labeling)
                .unwrap()
                .total_cost;
            (p.name.to_owned(), cost)
        })
        .collect()
}

#[test]
fn shared_automaton_serves_concurrent_threads_correctly() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let expected = dp_costs_per_program(&normal);
    let shared = Arc::new(SharedOnDemand::new(OnDemandAutomaton::new(normal.clone())));

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            let normal = Arc::clone(&normal);
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..2 {
                    for (i, program) in programs::all().iter().enumerate() {
                        let forest = program.compile().unwrap();
                        let labeling = shared.label_forest(&forest).unwrap();
                        let chooser = labeling.chooser(shared.as_ref());
                        let cost = odburg::codegen::reduce_forest(&forest, &normal, &chooser)
                            .unwrap()
                            .total_cost;
                        assert_eq!(
                            cost, expected[i].1,
                            "round {round}: {} cost mismatch under sharing",
                            expected[i].0
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn shared_automaton_converges_once() {
    let grammar = odburg::targets::jvmish();
    let normal = Arc::new(grammar.normalize());
    let shared = SharedOnDemand::new(OnDemandAutomaton::new(normal));
    let suite = programs::combined_forest().unwrap();
    shared.label_forest(&suite).unwrap();
    let states_after_first = shared.stats().states;
    for _ in 0..3 {
        shared.label_forest(&suite).unwrap();
    }
    assert_eq!(
        shared.stats().states,
        states_after_first,
        "relabeling must not grow the automaton"
    );
}

#[test]
fn incremental_label_node_matches_forest_labeling() {
    // A JIT that labels nodes as it builds them gets the same states as
    // one that labels whole forests.
    let grammar = odburg::targets::jvmish();
    let normal = Arc::new(grammar.normalize());
    let forest = programs::by_name("fact").unwrap().compile().unwrap();

    let mut whole = OnDemandAutomaton::new(normal.clone());
    let labeling = whole.label_forest(&forest).unwrap();

    // The JIT relabels its forest after every node it adds: the prefix
    // answers from the memo, and only the new node can miss.
    let mut incremental = OnDemandAutomaton::new(normal);
    let mut building = Forest::new();
    let mut states = Vec::new();
    for (id, node) in forest.iter() {
        building.push(node.op(), node.children(), node.payload());
        let prefix = incremental.label_forest(&building).unwrap();
        assert_eq!(prefix.states()[..states.len()], states[..], "node {id}");
        states.push(prefix.state_of(id));
    }
    assert_eq!(labeling.states(), &states[..]);
}
