//! The unified `Labeler` trait as the single entry point: every
//! selection strategy is constructed from a runtime value, driven
//! through the trait, and reduced through the strategy-agnostic chooser
//! — on every built-in target.

use std::sync::Arc;

use odburg::prelude::*;
use odburg::strategy::{AnyLabeler, Strategy};
use odburg::workloads::random_workload;

/// Labels and reduces through nothing but the trait surface.
fn run_via_trait<L: Labeler>(labeler: &mut L, forest: &Forest) -> Result<L::Output, LabelError> {
    labeler.reset_counters();
    let out = labeler.label_forest(forest)?;
    assert!(labeler.counters().nodes >= forest.len() as u64);
    out_ok(labeler.name());
    Ok(out)
}

fn out_ok(name: &str) {
    assert!(!name.is_empty());
}

#[test]
fn all_strategies_run_through_the_trait_on_all_targets() {
    for grammar in odburg::targets::all() {
        let normal = Arc::new(grammar.normalize());
        let workload = random_workload(&normal, 7, 12);
        let forest = &workload.forest;

        // dp is the optimality reference.
        let mut dp = AnyLabeler::build_normal(Strategy::Dp, normal.clone()).unwrap();
        let dp_labeling = run_via_trait(&mut dp, forest).unwrap();
        let dp_cost = odburg::codegen::reduce_forest(forest, &normal, &dp.chooser(&dp_labeling))
            .unwrap()
            .total_cost;

        for strategy in Strategy::ALL {
            let mut labeler = match AnyLabeler::build_normal(strategy, normal.clone()) {
                Ok(l) => l,
                Err(e) => panic!("{}/{strategy}: cannot build: {e}", grammar.name()),
            };
            let labeling = run_via_trait(&mut labeler, forest)
                .unwrap_or_else(|e| panic!("{}/{strategy}: {e}", grammar.name()));
            let chooser = labeler.chooser(&labeling);
            let cost = odburg::codegen::reduce_forest(forest, &labeler.grammar(), &chooser)
                .unwrap_or_else(|e| panic!("{}/{strategy}: reduce: {e}", grammar.name()))
                .total_cost;

            match strategy {
                // The optimal selectors must agree with dp exactly.
                Strategy::OnDemand | Strategy::Shared | Strategy::Dp => {
                    assert_eq!(cost, dp_cost, "{}/{strategy}", grammar.name());
                }
                // Offline (stripped) and macro are optimal-or-worse.
                Strategy::Offline | Strategy::Macro => {
                    assert!(cost >= dp_cost, "{}/{strategy}", grammar.name());
                }
            }
        }
    }
}

#[test]
fn strategy_is_a_runtime_value() {
    // The whole pipeline parameterized by a parsed string — what the CLI
    // flag does, without the CLI.
    let grammar = odburg::targets::x86ish();
    let forest = odburg::frontend::compile("fn inc(x) { return x + 1; }").unwrap();
    let mut costs = Vec::new();
    for name in ["dp", "ondemand", "shared"] {
        let strategy: Strategy = name.parse().unwrap();
        let red = odburg::select_with(strategy, &grammar, &forest).unwrap();
        costs.push(red.total_cost);
    }
    assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
}

#[test]
fn shared_strategy_is_trait_driven_and_concurrent_safe() {
    // The shared labeler built through the strategy layer is the same
    // snapshot core the concurrency tests exercise; a quick end-to-end
    // spot check that trait-driven use composes with warm reuse.
    let grammar = odburg::targets::riscish();
    let normal = Arc::new(grammar.normalize());
    let mut shared = AnyLabeler::build_normal(Strategy::Shared, normal.clone()).unwrap();
    let workload = random_workload(&normal, 21, 10);

    let first = shared.label_forest(&workload.forest).unwrap();
    shared.reset_counters();
    let second = shared.label_forest(&workload.forest).unwrap();
    let counters = shared.counters();
    assert_eq!(counters.memo_misses, 0, "warm pass must be all hits");
    let (c1, c2) = (shared.chooser(&first), shared.chooser(&second));
    for (id, _) in workload.forest.iter() {
        assert_eq!(
            c1.rule_for(id, normal.start()),
            c2.rule_for(id, normal.start())
        );
    }
}
