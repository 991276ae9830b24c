//! The new failure surface of the long-running [`SelectorServer`]:
//! queue-full backpressure, deadline expiry racing completion, and
//! graceful shutdown with pinned labelings straddling a compaction —
//! every successful labeling cross-checked **bit-identically** (full
//! instruction sequence + total cost) against a fresh [`DpLabeler`]
//! oracle, exactly as `tests/service_fuzz.rs` does for uncapped batches.
//!
//! The conservation law under test everywhere: every submitted job is
//! either completed, typed-rejected (`QueueFull`), or deadline-expired
//! — never silently lost, including across `shutdown()`.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use odburg::prelude::*;
use odburg::service::{JobError, JobHandle, JobOptions, SelectorServer, ServerConfig, SubmitError};
use odburg::workloads::TreeSampler;

use common::{churn_grammar, dp_reduction, random_grammar};

fn churn_forest(k: i64) -> Forest {
    let mut f = Forest::new();
    let root = odburg::ir::parse_sexpr(
        &mut f,
        &format!(
            "(StoreI8 (ConstI8 {k}) (AddI8 (ConstI8 {}) (ConstI8 1)))",
            k + 13
        ),
    )
    .unwrap();
    f.add_root(root);
    f
}

/// Multi-threaded backpressure stress: four submitters flood a tiny
/// queue served by one worker. Every `try_submit` outcome is either an
/// accepted handle (which must resolve with a correct labeling) or a
/// typed `QueueFull` — and the final report's conservation must account
/// for every single attempt.
#[test]
fn queue_full_backpressure_never_loses_a_job() {
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 200;

    let normal = churn_grammar();
    let server = Arc::new(SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 4,
        ..ServerConfig::default()
    }));
    server
        .register_normal("churn", Arc::clone(&normal))
        .unwrap();

    let accepted = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..SUBMITTERS {
            let server = Arc::clone(&server);
            let normal = Arc::clone(&normal);
            let accepted = &accepted;
            let rejected = &rejected;
            let completed = &completed;
            scope.spawn(move || {
                let mut handles: Vec<(JobHandle, Forest)> = Vec::new();
                for i in 0..PER_THREAD {
                    let k = (t * PER_THREAD + i) as i64;
                    let forest = churn_forest(k);
                    match server.try_submit("churn", forest.clone()) {
                        Ok(handle) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                            handles.push((handle, forest));
                        }
                        Err(SubmitError::QueueFull { capacity }) => {
                            assert_eq!(capacity, 4);
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
                // Every accepted job resolves, and resolves *correctly*.
                for (handle, forest) in handles {
                    let done = handle.wait();
                    let got = done.reduce().expect("accepted jobs label");
                    let want = dp_reduction(&forest, &normal);
                    assert_eq!(got.instructions, want.instructions);
                    assert_eq!(got.total_cost, want.total_cost);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let accepted = accepted.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    let completed = completed.load(Ordering::Relaxed);
    assert_eq!(
        accepted + rejected,
        (SUBMITTERS * PER_THREAD) as u64,
        "every try_submit outcome is typed"
    );
    assert_eq!(completed, accepted, "no accepted job may be lost");
    assert!(
        rejected > 0,
        "a 4-slot queue under 4 flooding submitters must exert backpressure"
    );

    let report = server.shutdown();
    assert_eq!(report.accepted, accepted);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.completed + report.deadline_missed, report.accepted);
    assert_eq!(report.deadline_missed, 0, "no deadlines were set");
    let churn = &report.per_target[0];
    assert_eq!(churn.jobs.rejected, rejected);
    assert!(
        churn.counters.maintenance_runs > 0,
        "quanta ran between jobs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deadline expiry racing completion: jobs with tiny random
    /// deadlines race the worker. Whatever the interleaving, each
    /// outcome is either a bit-identical-to-DP labeling or a typed
    /// `DeadlineExceeded` — and the tallies conserve all of them.
    #[test]
    fn deadline_expiry_races_completion_without_losing_jobs(seed in 0u64..1_000_000) {
        // Derive the racing deadline from the seed: 0..400us spans
        // "always expired" through "usually labeled".
        let deadline_us = seed % 400;
        let normal = Arc::new(random_grammar(seed).normalize());
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 64,
            ..ServerConfig::default()
        });
        server.register_normal("race", Arc::clone(&normal)).unwrap();

        let mut handles: Vec<(JobHandle, Forest)> = Vec::new();
        for salt in 0..6u64 {
            let mut sampler = TreeSampler::new(&normal, seed ^ (salt << 8));
            let forest = sampler.sample_forest(4);
            let handle = server
                .try_submit_with(
                    "race",
                    forest.clone(),
                    JobOptions {
                        deadline: Some(Duration::from_micros(deadline_us)),
                    },
                )
                .expect("a 64-slot queue accepts 6 jobs");
            handles.push((handle, forest));
        }

        let mut labeled = 0u64;
        let mut expired = 0u64;
        for (handle, forest) in handles {
            let done = handle.wait();
            match &done.outcome {
                Ok(_) => {
                    labeled += 1;
                    let got = done.reduce().expect("labeled jobs reduce");
                    let want = dp_reduction(&forest, &normal);
                    prop_assert_eq!(
                        &got.instructions, &want.instructions,
                        "seed {}: racing deadline corrupted a labeling", seed
                    );
                    prop_assert_eq!(got.total_cost, want.total_cost);
                }
                Err(JobError::DeadlineExceeded { .. }) => {
                    expired += 1;
                    prop_assert!(done.latency.is_zero(), "expired jobs are never labeled");
                }
                Err(e @ (JobError::Label(_) | JobError::Panicked { .. })) => {
                    return Err(TestCaseError::fail(format!("sampled trees must label: {e}")));
                }
            }
        }
        let report = server.shutdown();
        prop_assert_eq!(report.accepted, 6);
        prop_assert_eq!(report.completed, labeled);
        prop_assert_eq!(report.deadline_missed, expired);
        prop_assert_eq!(labeled + expired, 6, "conservation across the race");
        let race = &report.per_target[0];
        prop_assert_eq!(race.jobs.deadline_missed, expired);
    }
}

/// Graceful shutdown with pinned labelings straddling compactions: a
/// compacting budget churns the target's tables while completed jobs
/// are *held* across epochs and across `shutdown()` itself. Every held
/// pin must keep reducing bit-identically to the oracle no matter how
/// many compactions replaced the tables underneath it.
#[test]
fn shutdown_with_pins_straddling_compaction_is_bit_identical() {
    let normal = churn_grammar();
    let server = SelectorServer::new(ServerConfig {
        workers: 2,
        queue_cap: 512,
        memory_budget: Some(MemoryBudget::compact(10 * 1024, 0.5)),
        ..ServerConfig::default()
    });
    server
        .register_normal("churn", Arc::clone(&normal))
        .unwrap();

    // Enough distinct constants to trip the 10 KiB budget repeatedly.
    let mut held: Vec<(odburg::service::CompletedJob, Reduction)> = Vec::new();
    let mut handles: Vec<(JobHandle, Forest)> = Vec::new();
    for k in 0..160 {
        let forest = churn_forest(k * 7);
        let handle = server
            .try_submit("churn", forest.clone())
            .expect("roomy queue");
        handles.push((handle, forest));
    }
    for (handle, forest) in handles {
        let done = handle.wait();
        let want = dp_reduction(&forest, &normal);
        let got = done.reduce().expect("churn jobs label");
        assert_eq!(got.instructions, want.instructions);
        assert_eq!(got.total_cost, want.total_cost);
        if held.len() < 12 {
            // Keep early pins alive across all later compactions.
            held.push((done, want));
        }
    }

    // The budget must actually have tripped (otherwise this test pins
    // nothing across anything).
    let master = server.shared("churn").unwrap();
    let counters = master.counters();
    assert!(counters.compactions > 0, "churn must compact: {counters}");
    assert!(counters.maintenance_runs > 0);
    assert!(
        master.accounted_bytes().total() <= 10 * 1024,
        "maintenance quanta keep the budget"
    );

    // Shutdown while the pins are still alive…
    let report = server.shutdown();
    assert_eq!(report.completed, 160);
    assert_eq!(report.completed + report.deadline_missed, report.accepted);
    assert!(report.per_target[0].pressure.is_some(), "pressure recorded");

    // …and the pinned labelings still reduce identically afterwards:
    // their snapshots outlive the server, the compactions, everything.
    for (done, want) in &held {
        let again = done.reduce().expect("pins survive shutdown");
        assert_eq!(&again.instructions, &want.instructions);
        assert_eq!(again.total_cost, want.total_cost);
    }
}

/// Governed persistence at the API level: `shutdown()` re-exports each
/// built master's tables into the tables directory, and a fresh server
/// warm-starts from them, answering the seen traffic with zero misses.
#[test]
fn shutdown_reexports_tables_and_heat_survives_restart() {
    let dir = std::env::temp_dir().join("odburg-server-reexport");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let traffic: Vec<Forest> = (0..8).map(|k| churn_forest(k * 3)).collect();

    // First life: cold, learns the traffic, exports at shutdown.
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        tables_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    server.register_normal("churn", churn_grammar()).unwrap();
    let handles: Vec<JobHandle> = traffic
        .iter()
        .map(|f| server.try_submit("churn", f.clone()).unwrap())
        .collect();
    for h in handles {
        assert!(h.wait().outcome.is_ok());
    }
    let report = server.shutdown();
    assert_eq!(report.exported_tables, vec!["churn".to_owned()]);
    assert!(
        report.export_errors.is_empty(),
        "{:?}",
        report.export_errors
    );
    assert!(dir.join("churn.odbt").exists());

    // Second life: warm-starts from the export; the same traffic never
    // enters the grow path.
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        tables_dir: Some(dir),
        ..ServerConfig::default()
    });
    server.register_normal("churn", churn_grammar()).unwrap();
    let handles: Vec<JobHandle> = traffic
        .iter()
        .map(|f| server.try_submit("churn", f.clone()).unwrap())
        .collect();
    for h in handles {
        assert!(h.wait().outcome.is_ok());
    }
    let report = server.shutdown();
    let churn = &report.per_target[0];
    assert!(churn.warm_started, "second life must be warm");
    assert_eq!(churn.counters.memo_misses, 0, "{}", churn.counters);
    assert_eq!(churn.counters.states_built, 0);
}

/// The built-in registry over fixed-seed mixed traffic (120 jobs across
/// the six built-ins) at 1, 2, 4 and 8 workers, cold and warm-started
/// from tables trained on exactly that traffic: every job labels, the
/// registry conserves and counts all 120 as accepted and completed,
/// every target reports the run's mode, and the warm registry never
/// enters the grow path.
#[test]
fn registry_serves_mixed_traffic_cold_and_warm_at_1_2_4_8_workers() {
    const JOBS: u64 = 120;
    let traffic = odburg::workloads::builtin_traffic(0xC0FFEE, JOBS as usize);
    let dir = std::env::temp_dir().join("odburg-server-warm-registry");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Yesterday's service: one automaton per target, trained on the
    // traffic it will see, its tables persisted.
    for grammar in odburg::targets::all() {
        let name = grammar.name();
        let mut seen = Forest::new();
        for job in traffic.iter().filter(|j| j.target == name) {
            seen.append(&job.forest);
        }
        let mut trainer = OnDemandAutomaton::new(Arc::new(grammar.normalize()));
        trainer.label_forest(&seen).unwrap();
        let path = dir.join(format!("{name}.odbt"));
        odburg::select::persist::save_tables(&trainer.snapshot(), &path).unwrap();
    }

    for workers in [1, 2, 4, 8] {
        for warm in [false, true] {
            let run = format!("{workers} workers, warm {warm}");
            let server = SelectorServer::with_builtin_targets(ServerConfig {
                workers,
                queue_cap: usize::MAX,
                tables_dir: warm.then(|| dir.clone()),
                ..ServerConfig::default()
            });
            let handles: Vec<JobHandle> = traffic
                .iter()
                .map(|job| server.try_submit(&job.target, job.forest.clone()).unwrap())
                .collect();
            for handle in handles {
                let done = handle.wait();
                assert!(done.outcome.is_ok(), "{run}: {:?}", done.outcome);
            }
            server.wait_idle();
            let totals = server.telemetry().totals();
            assert!(totals.conserved(), "{run}: {totals:?}");
            assert_eq!((totals.accepted, totals.completed), (JOBS, JOBS), "{run}");

            let report = server.shutdown();
            for t in &report.per_target {
                assert_eq!(t.warm_started, warm, "{run}: {}", t.target);
                if warm {
                    let c = &t.counters;
                    assert_eq!(
                        (c.memo_misses, c.states_built),
                        (0, 0),
                        "{run}: {}",
                        t.target
                    );
                }
            }
        }
    }
}

/// The handoff between a submitter and the workers. Jobs arrive back to
/// back, with gaps inside a worker's spin window (tens of µs) and with
/// gaps far beyond it, so workers take some jobs while they spin and
/// others after they have parked; some handles are waited on at once,
/// the rest only once the server has gone idle. At 1, 2 and 4 workers
/// every job must reduce exactly as the DP oracle does, the registry
/// must conserve, and a shutdown issued right after the last result —
/// while a worker spins, on a server whose workers leave a core free —
/// must return promptly with every job accounted.
#[test]
fn handoff_serves_spinning_and_parked_workers_at_1_2_4_workers() {
    const JOBS: usize = 60;
    let traffic = odburg::workloads::builtin_traffic(0x5EED, JOBS);
    let gaps = [
        Duration::ZERO,
        Duration::from_micros(20),
        Duration::from_millis(2),
    ];
    for workers in [1, 2, 4] {
        let server = SelectorServer::with_builtin_targets(ServerConfig {
            workers,
            queue_cap: usize::MAX,
            ..ServerConfig::default()
        });
        let check = |job: &odburg::workloads::TrafficJob, handle: JobHandle| {
            let done = handle.wait();
            let got = done.reduce().expect("builtin traffic labels and reduces");
            let want = dp_reduction(&job.forest, &server.grammar(&job.target).unwrap());
            assert_eq!(got.instructions, want.instructions, "{workers} workers");
            assert_eq!(got.total_cost, want.total_cost, "{workers} workers");
        };
        let mut later = Vec::new();
        for (i, job) in traffic.iter().enumerate() {
            let gap = gaps[i % gaps.len()];
            if gap > Duration::from_millis(1) {
                std::thread::sleep(gap);
            } else {
                let until = Instant::now() + gap;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            let handle = server.try_submit(&job.target, job.forest.clone()).unwrap();
            if i % 4 == 3 {
                later.push((job, handle));
            } else {
                check(job, handle);
            }
        }
        // Far past any spin window the idle workers have parked.
        server.wait_idle();
        std::thread::sleep(Duration::from_millis(2));
        for (job, handle) in later {
            check(job, handle);
        }
        let totals = server.telemetry().totals();
        assert!(totals.conserved(), "{workers} workers: {totals:?}");

        let last = &traffic[0];
        check(
            last,
            server
                .try_submit(&last.target, last.forest.clone())
                .unwrap(),
        );
        let started = Instant::now();
        let report = server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{workers} workers: shutdown took {:?}",
            started.elapsed()
        );
        let accepted = JOBS as u64 + 1;
        assert_eq!(
            (report.submitted, report.accepted, report.completed),
            (accepted, accepted, accepted),
            "{workers} workers"
        );
        assert_eq!(report.failed + report.deadline_missed, 0);
    }
}

// ---------------------------------------------------------------------
// Scheduler coverage: EDF ordering, admission purging, fair queueing.
// The deterministic wedge: a grammar whose dynamic cost blocks on a
// gate, so one plug job pins the single worker while the test arranges
// the queue — pop order is then exactly the scheduler's order.
// ---------------------------------------------------------------------

/// A reusable two-phase gate: the worker announces it has *entered* the
/// dyncost closure (the wedge is in place), the test *opens* it.
#[derive(Default)]
struct Gate {
    /// (open, entered)
    state: Mutex<(bool, bool)>,
    cond: Condvar,
}

impl Gate {
    fn enter_and_wait(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 = true;
        self.cond.notify_all();
        while !st.0 {
            st = self.cond.wait(st).unwrap();
        }
    }

    fn open(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 = true;
        self.cond.notify_all();
    }

    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.1 {
            st = self.cond.wait(st).unwrap();
        }
    }
}

/// A grammar whose dyncost wedges on `gate` — labeling its plug forest
/// parks the worker until the test opens the gate.
fn gated_grammar(gate: Arc<Gate>) -> Arc<NormalGrammar> {
    let mut g = odburg::grammar::parse_grammar(
        r#"
        %grammar wedge
        %start stmt
        %dyncost gate
        reg: ConstI8 [gate]
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .unwrap();
    g.bind_dyncost(
        "gate",
        Arc::new(move |_: &Forest, _: odburg::ir::NodeId| {
            gate.enter_and_wait();
            RuleCost::Finite(1)
        }),
    )
    .unwrap();
    Arc::new(g.normalize())
}

/// A grammar whose dyncost appends `(tag, value)` to a shared log.
/// Distinct constants mint distinct signatures, so every job's labeling
/// evaluates the closure for its own constant — with a single worker,
/// the deduplicated log is the scheduler's pop order.
fn recording_grammar(
    name: &str,
    tag: &'static str,
    log: Arc<Mutex<Vec<(&'static str, i64)>>>,
) -> Arc<NormalGrammar> {
    let mut g = odburg::grammar::parse_grammar(&format!(
        "%grammar {name}\n%start stmt\n%dyncost rec\n\
         reg: ConstI8 [rec]\nstmt: StoreI8(reg, reg) (1)\n"
    ))
    .unwrap();
    g.bind_dyncost(
        "rec",
        Arc::new(move |forest: &Forest, node: odburg::ir::NodeId| {
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            log.lock().unwrap().push((tag, v));
            RuleCost::Finite(1)
        }),
    )
    .unwrap();
    Arc::new(g.normalize())
}

/// A grammar whose dyncost panics on the constant 13 and labels every
/// other constant.
fn trap_grammar() -> Arc<NormalGrammar> {
    let mut g = odburg::grammar::parse_grammar(
        "%grammar trap\n%start stmt\n%dyncost trap\n\
         reg: ConstI8 [trap]\nstmt: StoreI8(reg, reg) (1)\n",
    )
    .unwrap();
    g.bind_dyncost(
        "trap",
        Arc::new(|forest: &Forest, node: odburg::ir::NodeId| {
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            assert_ne!(v, 13, "poison constant");
            RuleCost::Finite(1)
        }),
    )
    .unwrap();
    Arc::new(g.normalize())
}

fn plug_forest() -> Forest {
    let mut f = Forest::new();
    let root = odburg::ir::parse_sexpr(&mut f, "(StoreI8 (ConstI8 0) (ConstI8 1))").unwrap();
    f.add_root(root);
    f
}

/// `(StoreI8 (ConstI8 k) (ConstI8 k))` — one distinct constant per job.
fn tagged_forest(k: i64) -> Forest {
    let mut f = Forest::new();
    let root =
        odburg::ir::parse_sexpr(&mut f, &format!("(StoreI8 (ConstI8 {k}) (ConstI8 {k}))")).unwrap();
    f.add_root(root);
    f
}

/// First occurrence of each logged value, in log order.
fn dedup_log(log: &[(&'static str, i64)]) -> Vec<(&'static str, i64)> {
    let mut seen = std::collections::HashSet::new();
    log.iter().filter(|e| seen.insert(**e)).copied().collect()
}

/// Regression (the queue-slots bug): a bounded queue full of
/// already-expired jobs must not reject fresh feasible submits. The
/// capacity check first purges dead work — completing it as
/// `DeadlineExceeded` — so the new job is accepted; before the fix this
/// was a spurious `QueueFull`.
#[test]
fn expired_queued_jobs_do_not_hold_queue_slots() {
    let gate = Arc::new(Gate::default());
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 4,
        ..ServerConfig::default()
    });
    server
        .register_normal("wedge", gated_grammar(Arc::clone(&gate)))
        .unwrap();
    server.register_normal("churn", churn_grammar()).unwrap();

    // Wedge the single worker, then fill every bounded slot with jobs
    // that are already dead on arrival.
    let plug = server.try_submit("wedge", plug_forest()).unwrap();
    gate.wait_entered();
    let dead: Vec<JobHandle> = (0..4)
        .map(|k| {
            server
                .try_submit_with(
                    "churn",
                    churn_forest(k),
                    JobOptions {
                        deadline: Some(Duration::ZERO),
                    },
                )
                .expect("zero-deadline jobs are accepted, then expire")
        })
        .collect();
    assert_eq!(server.queue_depth(), 4, "queue is nominally full");

    // The fresh submit purges the dead work instead of bouncing off it.
    let live = server
        .try_submit("churn", churn_forest(99))
        .expect("a queue full of expired jobs must not reject live work");

    // The purged jobs were completed as deadline-missed at admission —
    // their handles resolve *before* the worker is even unwedged.
    for handle in dead {
        let done = handle.wait();
        assert!(
            matches!(done.outcome, Err(JobError::DeadlineExceeded { .. })),
            "purged jobs expire, not label"
        );
        assert!(done.latency.is_zero(), "expired jobs are never labeled");
    }

    gate.open();
    assert!(plug.wait().outcome.is_ok());
    assert!(live.wait().outcome.is_ok());

    let report = server.shutdown();
    assert_eq!(report.accepted, 6);
    assert_eq!(report.completed, 2);
    assert_eq!(report.deadline_missed, 4);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.completed + report.deadline_missed, report.accepted);
    assert_eq!(
        report.submitted,
        report.accepted + report.rejected + report.shed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// EDF ordering under the wedge: with the worker pinned, jobs with
    /// random distinct deadlines (plus a no-deadline tail) are queued,
    /// and the recorded labeling order must be exactly
    /// deadline-sorted with the no-deadline jobs last in arrival order.
    /// The aggregate EDF-optimality check rides along: serving the same
    /// deadline multiset in EDF order can never miss more unit-time
    /// jobs than arrival order does.
    #[test]
    fn edf_orders_by_deadline_and_never_misses_more_than_fifo(seed in 0u64..1_000_000) {
        const JOBS: u64 = 8;

        // A seed-derived permutation of 1..=JOBS as relative ranks.
        let mut ranks: Vec<u64> = (1..=JOBS).collect();
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..ranks.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ranks.swap(i, (s >> 33) as usize % (i + 1));
        }

        // Aggregate optimality on the abstract schedule (unit service
        // time, deadline = rank time units): EDF misses <= FIFO misses.
        let fifo_misses = ranks.iter().enumerate()
            .filter(|(i, r)| (*i as u64 + 1) > **r).count();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        let edf_misses = sorted.iter().enumerate()
            .filter(|(i, r)| (*i as u64 + 1) > **r).count();
        prop_assert!(edf_misses <= fifo_misses,
            "EDF missed {edf_misses} > FIFO {fifo_misses} for ranks {ranks:?}");

        // The real scheduler: deadlines far enough out that nothing
        // expires, spaced by rank so the sort order is unambiguous.
        let gate = Arc::new(Gate::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 64,
            ..ServerConfig::default()
        });
        server.register_normal("wedge", gated_grammar(Arc::clone(&gate))).unwrap();
        server
            .register_normal("rec", recording_grammar("rec", "rec", Arc::clone(&log)))
            .unwrap();

        let plug = server.try_submit("wedge", plug_forest()).unwrap();
        gate.wait_entered();

        let mut handles = Vec::new();
        for (i, rank) in ranks.iter().enumerate() {
            let handle = server.try_submit_with(
                "rec",
                tagged_forest(i as i64),
                JobOptions {
                    deadline: Some(Duration::from_secs(600 + rank * 60)),
                },
            ).unwrap();
            handles.push(handle);
        }
        // Two no-deadline stragglers: they must pop last, arrival order.
        for k in [100i64, 101] {
            handles.push(server.try_submit("rec", tagged_forest(k)).unwrap());
        }

        gate.open();
        for handle in handles {
            prop_assert!(handle.wait().outcome.is_ok());
        }
        let _ = plug.wait();

        let order: Vec<i64> = dedup_log(&log.lock().unwrap())
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let mut want: Vec<i64> = (0..JOBS as usize)
            .map(|i| i as i64)
            .collect();
        want.sort_by_key(|&i| ranks[i as usize]);
        want.extend([100, 101]);
        prop_assert_eq!(order, want, "seed {}: ranks {:?}", seed, ranks);
        server.shutdown();
    }
}

/// Per-target fair queueing bounds a cold target's wait under a
/// hot-target flood: with the targets served round-robin, one job per
/// visit, the cold jobs interleave one-per-round instead of waiting out
/// all twenty hot jobs.
#[test]
fn fair_queueing_bounds_cold_target_wait_under_hot_flood() {
    let gate = Arc::new(Gate::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 64,
        fair: true,
        ..ServerConfig::default()
    });
    server
        .register_normal("wedge", gated_grammar(Arc::clone(&gate)))
        .unwrap();
    server
        .register_normal("hot", recording_grammar("hot", "hot", Arc::clone(&log)))
        .unwrap();
    server
        .register_normal("cold", recording_grammar("cold", "cold", Arc::clone(&log)))
        .unwrap();

    let plug = server.try_submit("wedge", plug_forest()).unwrap();
    gate.wait_entered();

    let mut handles = Vec::new();
    for k in 0..20 {
        handles.push(server.try_submit("hot", tagged_forest(k)).unwrap());
    }
    for k in 0..3 {
        handles.push(server.try_submit("cold", tagged_forest(100 + k)).unwrap());
    }

    gate.open();
    for handle in handles {
        assert!(handle.wait().outcome.is_ok());
    }
    let _ = plug.wait();

    let order = dedup_log(&log.lock().unwrap());
    assert_eq!(order.len(), 23);
    // Round-robin alternates hot/cold while both have work:
    // the i-th cold job (i from 1) pops within the first 2*i jobs —
    // without fair queueing it would sit behind all twenty hot jobs.
    for (i, pos) in order
        .iter()
        .enumerate()
        .filter(|(_, (tag, _))| *tag == "cold")
        .map(|(pos, _)| pos)
        .enumerate()
    {
        let nth = i + 1;
        assert!(
            pos < 2 * nth,
            "cold job #{nth} popped at position {} (order: {order:?})",
            pos + 1
        );
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 24);
}

/// The exact pop order over three targets, with and without fair
/// queueing: behind the wedged single worker, hot 0–3, warm 10–11 and
/// cold 20 are queued in that order. Without `fair` every job is in one
/// flow, so deadline-less jobs pop in arrival order; with `fair` the
/// targets take turns, one job per visit, in the order they enlisted.
#[test]
fn fair_queueing_rotates_targets_in_a_pinned_order() {
    for (fair, want) in [
        (true, [0, 10, 20, 1, 11, 2, 3]),
        (false, [0, 1, 2, 3, 10, 11, 20]),
    ] {
        let gate = Arc::new(Gate::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 64,
            fair,
            ..ServerConfig::default()
        });
        server
            .register_normal("wedge", gated_grammar(Arc::clone(&gate)))
            .unwrap();
        for target in ["hot", "warm", "cold"] {
            server
                .register_normal(target, recording_grammar(target, target, Arc::clone(&log)))
                .unwrap();
        }

        let plug = server.try_submit("wedge", plug_forest()).unwrap();
        gate.wait_entered();
        let mut handles = Vec::new();
        for (target, values) in [("hot", 0..4), ("warm", 10..12), ("cold", 20..21)] {
            for k in values {
                handles.push(server.try_submit(target, tagged_forest(k)).unwrap());
            }
        }

        gate.open();
        for handle in handles {
            assert!(handle.wait().outcome.is_ok());
        }
        assert!(plug.wait().outcome.is_ok());

        let order: Vec<i64> = dedup_log(&log.lock().unwrap())
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(order, want, "fair: {fair}");
        assert_eq!(server.shutdown().completed, 8, "fair: {fair}");
    }
}

/// The client's own ledger: what `try_submit_with` and `wait` returned,
/// per target, in the registry's vocabulary.
#[derive(Default)]
struct ClientTally(std::collections::BTreeMap<String, JobCounts>);

impl ClientTally {
    fn submit(
        &mut self,
        server: &SelectorServer,
        target: &str,
        forest: Forest,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, SubmitError> {
        let options = JobOptions { deadline };
        let outcome = server.try_submit_with(target, forest, options);
        let t = self.0.entry(target.to_owned()).or_default();
        t.submitted += 1;
        match &outcome {
            Ok(_) => t.accepted += 1,
            Err(SubmitError::QueueFull { .. } | SubmitError::Shutdown) => t.rejected += 1,
            Err(SubmitError::Infeasible { .. }) => t.shed += 1,
            Err(e) => panic!("{target}: unexpected refusal: {e}"),
        }
        outcome
    }

    fn settle(&mut self, done: CompletedJob) -> CompletedJob {
        let t = self
            .0
            .get_mut(&done.target)
            .expect("accepted jobs are tallied");
        match &done.outcome {
            Ok(_) => t.completed += 1,
            Err(JobError::Label(_)) => {
                t.completed += 1;
                t.failed += 1;
            }
            Err(JobError::Panicked { .. }) => {
                t.completed += 1;
                t.failed += 1;
                t.panics += 1;
            }
            Err(JobError::DeadlineExceeded { .. }) => t.deadline_missed += 1,
        }
        done
    }
}

/// One ledger: one server is driven through every job outcome, and each
/// target's registry counts (`TargetServerStats::jobs`) must equal the
/// client's own tally of its `try_submit_with` and `wait` results, with
/// the report's outcome fields their sum.
#[test]
fn every_outcome_is_counted_once_in_the_registry() {
    // The primed estimate outlasts the candidate's deadline, and the job
    // queued ahead of the candidate must not expire before the
    // `QueueFull` submit a few microseconds later.
    const HOLD: Duration = Duration::from_millis(500);
    const CANDIDATE: Duration = Duration::from_millis(450);
    const AHEAD: Duration = Duration::from_millis(400);

    let gate = Arc::new(Gate::default());
    let hold = Arc::new(Gate::default());
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 2,
        shed_infeasible: true,
        ..ServerConfig::default()
    });
    server
        .register_normal("gate", gated_grammar(Arc::clone(&gate)))
        .unwrap();
    server
        .register_normal("hold", gated_grammar(Arc::clone(&hold)))
        .unwrap();
    server.register_normal("trap", trap_grammar()).unwrap();
    let mut client = ClientTally::default();

    // A labeled job, held open so that `gate`'s service-time estimate
    // is at least HOLD.
    let primer = client.submit(&server, "gate", plug_forest(), None).unwrap();
    gate.wait_entered();
    std::thread::sleep(HOLD);
    gate.open();
    assert!(client.settle(primer.wait()).outcome.is_ok());

    // Wedge the worker again, on another target.
    let wedge = client.submit(&server, "hold", plug_forest(), None).unwrap();
    hold.wait_entered();

    // Two dead-on-arrival jobs fill the queue; the next admission purges
    // them, and they have resolved by the time it returns.
    let dead: Vec<JobHandle> = (0..2)
        .map(|k| {
            client
                .submit(&server, "trap", tagged_forest(k), Some(Duration::ZERO))
                .unwrap()
        })
        .collect();
    let ahead = client
        .submit(&server, "trap", tagged_forest(2), Some(AHEAD))
        .unwrap();
    let ahead_expired = Instant::now() + AHEAD;
    for mut handle in dead {
        let done = handle.try_wait().expect("purged jobs resolve at admission");
        assert!(matches!(
            client.settle(done).outcome,
            Err(JobError::DeadlineExceeded { .. })
        ));
    }

    // `ahead` is due before the candidate, and one job at the primed
    // estimate already outlasts the candidate's deadline.
    match client.submit(&server, "gate", tagged_forest(3), Some(CANDIDATE)) {
        Err(SubmitError::Infeasible { .. }) => {}
        other => panic!("the candidate must be shed, got {other:?}"),
    }
    let poisoned = client
        .submit(&server, "trap", tagged_forest(13), None)
        .unwrap();
    match client.submit(&server, "trap", tagged_forest(4), None) {
        Err(SubmitError::QueueFull { capacity: 2 }) => {}
        other => panic!("a full queue must reject, got {other:?}"),
    }

    // `ahead` expires while queued and misses at pop; the poisoned job
    // panics; an uncovered forest fails labeling.
    std::thread::sleep(ahead_expired.saturating_duration_since(Instant::now()));
    hold.open();
    assert!(client.settle(wedge.wait()).outcome.is_ok());
    assert!(matches!(
        client.settle(ahead.wait()).outcome,
        Err(JobError::DeadlineExceeded { .. })
    ));
    assert!(matches!(
        client.settle(poisoned.wait()).outcome,
        Err(JobError::Panicked { .. })
    ));
    let mut uncovered = Forest::new();
    let root = odburg::ir::parse_sexpr(&mut uncovered, "(AddI8 (ConstI8 1) (ConstI8 2))").unwrap();
    uncovered.add_root(root);
    let uncovered = client.submit(&server, "gate", uncovered, None).unwrap();
    assert!(matches!(
        client.settle(uncovered.wait()).outcome,
        Err(JobError::Label(_))
    ));

    server.shutdown();
    match client.submit(&server, "trap", tagged_forest(5), None) {
        Err(SubmitError::Shutdown) => {}
        other => panic!("a shut-down server must reject, got {other:?}"),
    }
    let report = server.shutdown();

    assert_eq!(report.per_target.len(), client.0.len());
    let mut sum = JobCounts::default();
    for stats in &report.per_target {
        assert_eq!(
            Some(&stats.jobs),
            client.0.get(&stats.target),
            "{}: the registry disagrees with the client",
            stats.target
        );
        sum.merge(&stats.jobs);
    }
    assert_eq!(
        (
            report.submitted,
            report.accepted,
            report.rejected,
            report.shed,
            report.completed,
            report.failed,
            report.deadline_missed,
        ),
        (
            sum.submitted,
            sum.accepted,
            sum.rejected,
            sum.shed,
            sum.completed,
            sum.failed,
            sum.deadline_missed,
        )
    );
    assert_eq!(report.accepted, report.completed + report.deadline_missed);
}
