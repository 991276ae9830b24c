//! End-to-end warm start: a "restarted process" imports persisted tables
//! and labels a previously-seen workload without entering the grow path
//! at all — the acceptance criterion of the persistence subsystem,
//! asserted through `WorkCounters`.

use std::sync::Arc;

use odburg::prelude::*;
use odburg::select::persist;

/// Exports tables from a suite-warmed automaton and re-imports them, as
/// a restart would (through the real binary format).
fn restart_snapshot() -> (Arc<NormalGrammar>, AutomatonSnapshot, Forest) {
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let suite = odburg::workloads::combined_workload().forest;
    let mut trainer = OnDemandAutomaton::new(Arc::clone(&normal));
    trainer.label_forest(&suite).expect("suite labels");
    let mut bytes = Vec::new();
    persist::write_tables_to(&trainer.snapshot(), &mut bytes).expect("export succeeds");
    let snapshot = persist::read_tables_from(&bytes[..], Arc::clone(&normal), trainer.config())
        .expect("import succeeds");
    (normal, snapshot, suite)
}

#[test]
fn single_threaded_warm_start_enters_grow_path_zero_times() {
    let (normal, snapshot, suite) = restart_snapshot();
    let mut warm = OnDemandAutomaton::from_snapshot(&snapshot);
    let warm_labeling = warm.label_forest(&suite).expect("warm labels");

    let c = warm.counters();
    assert_eq!(c.nodes, suite.len() as u64);
    assert_eq!(c.memo_misses, 0, "no transition may be recomputed");
    assert_eq!(c.states_built, 0, "no state may be rebuilt");
    assert_eq!(c.memo_hits, c.nodes, "every node answers from the tables");

    // And the labeling agrees with a cold automaton's, so the warm path
    // is a pure speedup, not a different answer.
    let mut cold = OnDemandAutomaton::new(normal);
    assert_eq!(
        cold.label_forest(&suite).expect("cold labels"),
        warm_labeling
    );
}

#[test]
fn shared_warm_start_enters_grow_path_zero_times() {
    let (_, snapshot, suite) = restart_snapshot();
    let shared = SharedOnDemand::with_seed_snapshot(Arc::new(snapshot));

    // Label the suite from multiple threads.
    let shared_ref = &shared;
    let suite_ref = &suite;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                shared_ref.label_forest(suite_ref).expect("labels");
            });
        }
    });

    let c = shared.counters();
    assert_eq!(c.memo_misses, 0, "warm readers must never reach the writer");
    assert_eq!(c.states_built, 0);
    assert_eq!(
        shared.snapshots_published(),
        0,
        "the seed snapshot must keep serving; nothing new may be published"
    );
}

#[test]
fn warm_started_automaton_keeps_growing_past_the_tables() {
    let (normal, snapshot, _) = restart_snapshot();
    let states_before = snapshot.stats().states;
    let mut warm = OnDemandAutomaton::from_snapshot(&snapshot);

    // Trees sampled from the grammar itself: guaranteed labelable, with
    // far more shape diversity than the MiniC suite the tables saw.
    let f = odburg::workloads::random_workload(&warm.grammar().clone(), 0xBEEF, 60).forest;
    warm.label_forest(&f).expect("unseen forest labels");
    assert!(warm.counters().memo_misses > 0, "the new shape must miss");
    assert!(warm.stats().states > states_before, "and grow the tables");

    // Growth is seamless: the warm tables plus the new states still
    // pick the same rules as a cold automaton on the new forest. (State
    // *ids* differ — the automata discovered states in different orders
    // — so the comparison is over the selected rules, which is what
    // reduction consumes.)
    let mut cold = OnDemandAutomaton::new(Arc::clone(&normal));
    let cold_labeling = cold.label_forest(&f).expect("cold labels");
    let warm_labeling = warm.label_forest(&f).expect("warm relabels");
    let cold_chooser = cold_labeling.chooser(&cold);
    let warm_chooser = warm_labeling.chooser(&warm);
    for (id, _) in f.iter() {
        for nt in 0..normal.num_nts() {
            let nt = odburg::grammar::NtId(nt as u16);
            assert_eq!(
                cold_chooser.rule_for(id, nt),
                warm_chooser.rule_for(id, nt),
                "node {id} nt {nt:?}"
            );
        }
    }
}

#[test]
fn imported_epoch_survives_the_round_trip() {
    // Flush-mode automata restart epoch numbering on every flush; a
    // restarted process must resume from the exported epoch so pinned
    // labelings taken after import can never collide with it.
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let mut auto = OnDemandAutomaton::with_config(
        Arc::clone(&normal),
        OnDemandConfig {
            memory_budget: Some(MemoryBudget::flush(usize::MAX)),
            ..OnDemandConfig::default()
        },
    );
    auto.clear(); // epoch 1
    auto.clear(); // epoch 2
    let suite = odburg::workloads::combined_workload().forest;
    auto.label_forest(&suite).expect("labels");

    let mut bytes = Vec::new();
    persist::write_tables_to(&auto.snapshot(), &mut bytes).expect("export succeeds");
    let snapshot =
        persist::read_tables_from(&bytes[..], normal, auto.config()).expect("import succeeds");
    assert_eq!(snapshot.epoch(), 2);

    let shared = SharedOnDemand::with_seed_snapshot(Arc::new(snapshot));
    assert_eq!(shared.snapshot().epoch(), 2);
    let pinned = shared.label_forest_pinned(&suite).expect("labels");
    assert_eq!(pinned.snapshot().epoch(), 2, "no spurious epoch change");
}
