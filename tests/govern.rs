//! Memory-governor integration tests: compaction must be invisible to
//! selection quality. Labelings taken before, across and after
//! compaction epochs — including pinned labelings that straddle a
//! compaction — must reduce to instruction sequences bit-identical to a
//! fresh `DpLabeler` oracle, while the accounted table bytes stay under
//! the budget.

mod common;

use std::sync::Arc;

use odburg::prelude::*;

use common::{churn_grammar, dp_reduction};

fn churn_forest(k: u64) -> Forest {
    let mut f = Forest::new();
    let root = parse_sexpr(
        &mut f,
        &format!(
            "(StoreI8 (AddI8 (ConstI8 {k}) (ConstI8 {})) (AddI8 (ConstI8 {}) (ConstI8 {k})))",
            k + 1,
            k % 4, // a hot leaf in every forest
        ),
    )
    .unwrap();
    f.add_root(root);
    f
}

#[test]
fn compaction_epoch_labelings_are_bit_identical_to_dp() {
    let normal = churn_grammar();
    let byte_budget = 10 * 1024;
    let auto = OnDemandAutomaton::with_config(
        Arc::clone(&normal),
        OnDemandConfig {
            memory_budget: Some(MemoryBudget::compact(byte_budget, 0.5)),
            ..OnDemandConfig::default()
        },
    );
    let shared = SharedOnDemand::new(auto);

    // Pins taken along the way, each with the oracle's answer at the
    // time; they must still resolve identically after later compactions.
    let mut straddlers: Vec<(Forest, PinnedLabeling, Reduction)> = Vec::new();
    for k in 0..120 {
        let forest = churn_forest(k * 10);
        let pinned = shared.label_forest_pinned(&forest).unwrap();
        let expected = dp_reduction(&forest, &normal);

        // Bit-identical now: full instruction sequence and total cost.
        let got = reduce_forest(&forest, pinned.snapshot().grammar(), &pinned.chooser()).unwrap();
        assert_eq!(got.instructions, expected.instructions, "forest {k}");
        assert_eq!(got.total_cost, expected.total_cost, "forest {k}");

        // The writer-side compaction keeps the accounted bytes bounded
        // at every observation point.
        assert!(
            shared.accounted_bytes().total() <= byte_budget,
            "bytes exceeded the budget after forest {k}"
        );
        // Pin only in the first half, so every pin has compactions
        // happening after it (the second half's churn guarantees that).
        if k % 17 == 0 && k < 60 {
            straddlers.push((forest, pinned, expected));
        }
    }
    let counters = shared.counters();
    assert!(
        counters.compactions > 0,
        "the churn must actually compact: {counters}"
    );
    assert!(counters.states_evicted > 0);

    // Every straddling pin still reduces bit-identically against its
    // own (retired) epoch's tables, however many compactions happened
    // since it was taken.
    for (i, (forest, pinned, expected)) in straddlers.iter().enumerate() {
        let got = reduce_forest(forest, pinned.snapshot().grammar(), &pinned.chooser()).unwrap();
        assert_eq!(got.instructions, expected.instructions, "straddler {i}");
        assert_eq!(got.total_cost, expected.total_cost, "straddler {i}");
        assert!(
            pinned.snapshot().epoch() < shared.snapshot().epoch(),
            "straddler {i} must actually span a compaction epoch"
        );
    }
}

#[test]
fn single_threaded_compact_policy_is_bit_identical_to_dp() {
    let normal = churn_grammar();
    let byte_budget = 8 * 1024;
    let mut auto = OnDemandAutomaton::with_config(
        Arc::clone(&normal),
        OnDemandConfig {
            memory_budget: Some(MemoryBudget::compact(byte_budget, 0.5)),
            ..OnDemandConfig::default()
        },
    );
    for k in 0..150 {
        let forest = churn_forest(k * 7);
        let labeling = auto.label_forest(&forest).unwrap();
        let got = reduce_forest(&forest, &normal, &labeling.chooser(&auto)).unwrap();
        let expected = dp_reduction(&forest, &normal);
        assert_eq!(got.instructions, expected.instructions, "forest {k}");
        assert_eq!(got.total_cost, expected.total_cost, "forest {k}");
        assert!(
            auto.accounted_bytes().total() <= byte_budget,
            "bytes exceeded the budget after forest {k}"
        );
    }
    assert!(auto.counters().compactions > 0, "the churn must compact");
}

#[test]
fn service_budget_enforcement_is_bit_identical_to_dp() {
    // Both pressure actions, through the whole service stack: every job
    // of every batch — batches before, at and after enforcement — must
    // reduce exactly like the oracle.
    let normal = churn_grammar();
    for budget in [
        MemoryBudget::compact(10 * 1024, 0.5),
        MemoryBudget::flush(10 * 1024),
    ] {
        let server = SelectorServer::new(ServerConfig {
            workers: 2,
            queue_cap: usize::MAX,
            memory_budget: Some(budget),
            ..ServerConfig::default()
        });
        server
            .register_normal("churn", Arc::clone(&normal))
            .unwrap();
        let master = server.shared("churn").unwrap();
        let mut held: Vec<(CompletedJob, Reduction)> = Vec::new();
        let mut pressured = false;
        for round in 0..30 {
            let before = master.counters();
            let handles: Vec<JobHandle> = (0..8u64)
                .map(|i| {
                    server
                        .try_submit("churn", churn_forest(round * 80 + i * 9))
                        .unwrap()
                })
                .collect();
            for job in handles.into_iter().map(JobHandle::wait) {
                let expected = dp_reduction(&job.forest, &normal);
                let got = job.reduce().unwrap();
                assert_eq!(got.instructions, expected.instructions, "round {round}");
                assert_eq!(got.total_cost, expected.total_cost, "round {round}");
                if held.len() < 6 {
                    held.push((job, expected));
                }
            }
            // The round's maintenance quanta ran: the budget holds.
            server.wait_idle();
            let delta = master.counters().since(&before);
            pressured |= delta.compactions + delta.flushes > 0;
            assert!(
                master.accounted_bytes().total() <= 10 * 1024,
                "round {round}"
            );
        }
        assert!(pressured, "{budget:?} never tripped");
        // Early jobs, pinned to long-retired epochs, still agree.
        for (job, expected) in &held {
            let got = job.reduce().unwrap();
            assert_eq!(got.instructions, expected.instructions);
            assert_eq!(got.total_cost, expected.total_cost);
        }
        assert_eq!(server.shutdown().failed, 0);
    }
}

/// `(StoreI8 (ConstI8 base) chain)` where `chain` left-nests `adds`
/// `AddI8`s over the fresh constants `base + 1 ..= base + adds + 1`.
fn add_chain_forest(adds: usize, base: u64) -> Forest {
    let mut chain = format!("(ConstI8 {})", base + 1);
    for i in 0..adds as u64 {
        chain = format!("(AddI8 {chain} (ConstI8 {}))", base + i + 2);
    }
    let mut f = Forest::new();
    let root = parse_sexpr(&mut f, &format!("(StoreI8 (ConstI8 {base}) {chain})")).unwrap();
    f.add_root(root);
    f
}

#[test]
fn single_threaded_and_shared_ladders_agree() {
    // One grow path means one budget-policy ladder: fed the same config
    // and the same forests, the single-threaded automaton and the shared
    // one must take the same flushes and compactions, answer with the
    // same result, and stay oracle-identical, under every policy.
    let normal = churn_grammar();
    let mut budgets = vec![None, Some(MemoryBudget::flush(usize::MAX))];
    for kib in [1, 2, 4, 8, 16] {
        for retain_fraction in [0.05, 0.25, 0.5] {
            budgets.push(Some(MemoryBudget::compact(kib * 1024, retain_fraction)));
        }
    }
    for adds in [3, 6, 10] {
        // Fresh constants per forest; every fifth forest revisits an
        // earlier one, so warm hits mix with the churn.
        let mut forests: Vec<Forest> = Vec::new();
        for i in 0..30u64 {
            let forest = if i % 5 == 4 {
                forests[(i / 2) as usize].clone()
            } else {
                add_chain_forest(adds, i * (adds as u64 + 2))
            };
            forests.push(forest);
        }
        let expected: Vec<Reduction> = forests.iter().map(|f| dp_reduction(f, &normal)).collect();
        for state_budget in [6, 8, 12, 16, 24, 32, 48, usize::MAX] {
            for &memory_budget in &budgets {
                let config = OnDemandConfig {
                    state_budget,
                    memory_budget,
                };
                let case = format!("{adds} adds, state budget {state_budget}, {memory_budget:?}");
                let mut single = OnDemandAutomaton::with_config(Arc::clone(&normal), config);
                let shared = SharedOnDemand::new(OnDemandAutomaton::with_config(
                    Arc::clone(&normal),
                    config,
                ));
                for (k, (forest, expected)) in forests.iter().zip(&expected).enumerate() {
                    let result = single.label_forest(forest);
                    assert_eq!(result, shared.label_forest(forest), "{case}: forest {k}");
                    assert_eq!(single.stats(), shared.stats(), "{case}: forest {k}");
                    let reliefs = |c: WorkCounters| (c.flushes, c.compactions);
                    assert_eq!(
                        reliefs(single.counters()),
                        reliefs(shared.counters()),
                        "{case}: forest {k}"
                    );
                    assert_eq!(
                        single.epoch(),
                        shared.with_read(OnDemandAutomaton::epoch),
                        "{case}: forest {k}"
                    );
                    if let Ok(labeling) = result {
                        // The same ids, resolved against each automaton's
                        // own tables.
                        for got in [
                            reduce_forest(forest, &normal, &labeling.chooser(&single)).unwrap(),
                            reduce_forest(forest, &normal, &labeling.chooser(&shared)).unwrap(),
                        ] {
                            assert_eq!(
                                got.instructions, expected.instructions,
                                "{case}: forest {k}"
                            );
                            assert_eq!(got.total_cost, expected.total_cost, "{case}: forest {k}");
                        }
                    }
                }
            }
        }
    }
}

/// `(StoreI8 (ConstI8 a) (ConstI8 b))`: two fresh constants per job.
fn store_forest(a: u64, b: u64) -> Forest {
    let mut f = Forest::new();
    let root = parse_sexpr(&mut f, &format!("(StoreI8 (ConstI8 {a}) (ConstI8 {b}))")).unwrap();
    f.add_root(root);
    f
}

#[test]
fn server_budget_is_enforced_per_target_between_jobs() {
    let byte_budget = 24 * 1024;
    let server = SelectorServer::new(ServerConfig {
        workers: 2,
        queue_cap: usize::MAX,
        memory_budget: Some(MemoryBudget::compact(byte_budget, 0.5)),
        ..ServerConfig::default()
    });
    server.register_normal("churn", churn_grammar()).unwrap();
    let master = server.shared("churn").unwrap();

    let mut pressured = 0;
    for round in 0..24u64 {
        let before = master.counters();
        let handles: Vec<JobHandle> = (0..12u64)
            .map(|i| {
                let k = round * 100 + i;
                server.try_submit("churn", store_forest(k, k + 7)).unwrap()
            })
            .collect();
        for handle in handles {
            assert!(handle.wait().outcome.is_ok(), "round {round}");
        }
        // The round's maintenance quanta have run: the tables fit.
        server.wait_idle();
        let bytes = master.accounted_bytes().total();
        assert!(
            bytes <= byte_budget,
            "round {round}: {bytes} bytes exceed the budget"
        );
        if master.counters().since(&before).compactions > 0 {
            pressured += 1;
        }
    }
    assert!(pressured > 0, "churn must trip the budget");
    // The governance activity is visible in the ordinary counters — and
    // the maintenance quanta that performed it are accounted.
    let counters = master.counters();
    assert!(counters.compactions > 0);
    assert!(counters.states_evicted > 0);
    assert!(counters.maintenance_runs > 0);
    // The report carries the last pressure event, which kept the budget.
    let report = server.shutdown();
    let event = report.per_target[0].pressure.expect("the budget tripped");
    assert!(event.bytes_before > byte_budget);
    assert!(event.bytes_after <= byte_budget);
}

#[test]
fn server_flush_budget_reports_its_pressure_event() {
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: usize::MAX,
        // A budget so tight the target flushes after its job.
        memory_budget: Some(MemoryBudget::flush(1)),
        ..ServerConfig::default()
    });
    server.register_normal("governed", churn_grammar()).unwrap();

    let handle = server.try_submit("governed", store_forest(1, 2)).unwrap();
    assert!(handle.wait().outcome.is_ok());
    let report = server.shutdown();
    assert_eq!(report.failed, 0);
    let governed = report
        .per_target
        .iter()
        .find(|t| t.target == "governed")
        .unwrap();
    assert!(governed.pressure.is_some(), "the server budget must apply");
    assert_eq!(governed.counters.flushes, 1);
}

/// Compaction predicts the footprint of tables it has not built yet, and
/// must report exactly what the rebuilt automaton then accounts — on
/// every built-in target, over 20 random workloads, at byte targets from
/// 0.9 down to 0.1 of the current footprint. A class array is as long
/// as the highest remapped state id it covers, so the prediction rests
/// on ranking the retained states exactly as the rebuild numbers them;
/// the snapshot and a persisted file of the rebuilt tables must agree
/// with the master too.
#[test]
fn compaction_reports_exactly_the_bytes_it_builds() {
    for grammar in odburg::targets::all() {
        let normal = Arc::new(grammar.normalize());
        for seed in 0..20 {
            let workload = odburg::workloads::random_workload(&normal, seed, 24);
            let mut grown = OnDemandAutomaton::new(Arc::clone(&normal));
            grown
                .label_forest(&workload.forest)
                .expect("workload labels");
            let warm = grown.snapshot();
            let full = grown.accounted_bytes().total();
            for fraction in [0.9, 0.6, 0.3, 0.1] {
                let case = format!("{} seed {seed} at {fraction}", normal.name());
                // A warm relabel gives the copy its heat back.
                let mut auto = OnDemandAutomaton::from_snapshot(&warm);
                auto.label_forest(&workload.forest).expect("warm relabel");
                let target = (full as f64 * fraction) as usize;
                let stats = auto.compact(target, &[]);
                let bytes = auto.accounted_bytes();
                assert_eq!(stats.bytes_after, bytes.total(), "{case}");
                assert!(stats.bytes_after <= target, "{case}");
                let snapshot = auto.snapshot();
                assert_eq!(snapshot.stats().bytes, bytes, "{case}");
                let mut file = Vec::new();
                odburg::select::persist::write_tables_to(&snapshot, &mut file).unwrap();
                let info = odburg::select::persist::inspect_snapshot(&file[..]).unwrap();
                assert_eq!(info.bytes, bytes, "{case}");
            }
        }
    }
}
