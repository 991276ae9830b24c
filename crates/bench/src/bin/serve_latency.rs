//! **Serve latency: the long-running server under open-loop load.**
//!
//! What the [`SelectorServer`] exists for: **continuous mixed-target
//! traffic** against a *bounded* queue with deadlines and backpressure.
//! Four phases:
//!
//! * **paced** — an arrival-paced ([`paced_traffic`]) open-loop replay:
//!   jobs are submitted at their scheduled instants whether or not
//!   earlier jobs finished, with a compacting per-target memory budget
//!   so the maintenance quanta run between jobs. Reports p50/p99
//!   submit→complete latency, rejection and deadline rates.
//! * **burst** — an adversarial overload: one large plug job wedges the
//!   single worker, then a burst of zero-deadline jobs slams the 8-slot
//!   queue. Deterministically exercises deadline expiry — and, since
//!   admission purges expired queued jobs before rejecting, asserts
//!   that dead work never converts into spurious `QueueFull`.
//! * **overload_noshed / overload_shed** — goodput under deadline
//!   overload: one worker, a wedging plug, then a flood of loose,
//!   doomed, and tight-deadline jobs submitted in the order that is
//!   worst for arrival-order serving. The earliest-deadline-first
//!   queue serves deadline order and meets every tight job in both
//!   phases; `overload_shed` also turns on feasibility shedding, which
//!   refuses the doomed jobs at admission (`SubmitError::Infeasible`)
//!   instead of queueing work that cannot make its deadline.
//!
//! The shape checks this bench exists for, asserted on every run:
//!
//! * **conservation** — every submitted job is accounted as completed,
//!   typed-rejected, shed, or deadline-expired; zero are lost,
//!   including across the graceful shutdown that ends each phase;
//! * **off-path maintenance** — the budget work shows up in
//!   `maintenance_runs` (worker quanta), proving no compaction ran on
//!   the submit path;
//! * **goodput** — each overload phase completes every job that is not
//!   doomed (`submitted − DOOMED`: warm-up, plug, loose and tight
//!   jobs), a bound an arrival-order queue fails because it misses
//!   every tight job; `overload_noshed` sheds nothing, `overload_shed`
//!   sheds the doomed jobs and misses no more deadlines than
//!   `overload_noshed`.
//!
//! Results go to stdout and, as JSON, to `target/serve_latency.json`
//! (CI uploads the artifact); `lost` is `accepted − completed −
//! deadline_missed`, so its check is the accepted-side conservation.
//!
//! Regenerate with:
//! `cargo run --release -p odburg_bench --bin serve_latency`

use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg::service::{JobError, JobHandle, JobOptions, SelectorServer, ServerConfig, SubmitError};
use odburg_bench::f;
use odburg_core::MemoryBudget;
use odburg_grammar::{NormalGrammar, RuleCost};
use odburg_workloads::paced_traffic;

const SEED: u64 = 0x5E12_7E4C;

/// Deterministic per-job service time of the overload phases' `work`
/// grammar: its dynamic cost sleeps this long once per distinct
/// constant.
const SERVICE_SLICE: Duration = Duration::from_millis(2);

/// Overload jobs whose 8 ms deadline the plug alone outlasts: the only
/// jobs an overload phase may fail to complete.
const DOOMED: usize = 40;

struct PhaseStats {
    phase: &'static str,
    workers: usize,
    queue_cap: usize,
    deadline_ms: Option<u64>,
    submitted: u64,
    accepted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    shed: u64,
    deadline_missed: u64,
    lost: i64,
    p50_us: u128,
    p99_us: u128,
    maintenance_runs: u64,
    wall_ms: u128,
}

/// Waits every handle out and folds the phase accounting together.
fn settle(
    phase: &'static str,
    server: &SelectorServer,
    handles: Vec<JobHandle>,
    submitted: u64,
    started: Instant,
    deadline_ms: Option<u64>,
) -> PhaseStats {
    let mut latencies: Vec<Duration> = Vec::with_capacity(handles.len());
    for handle in handles {
        let done = handle.wait();
        match &done.outcome {
            Ok(_) => latencies.push(done.queued + done.latency),
            Err(JobError::DeadlineExceeded { .. }) => {}
            Err(e) => panic!("{phase}: sampled traffic must label: {e}"),
        }
    }
    let wall_ms = started.elapsed().as_millis();
    let report = server.shutdown();
    // The report is the metrics registry; check it against what this
    // phase itself submitted.
    assert_eq!(
        report.submitted, submitted,
        "{phase}: the registry disagrees with the phase's own submissions"
    );
    let maintenance_runs = report.counters().maintenance_runs;
    let lost = report.accepted as i64 - report.completed as i64 - report.deadline_missed as i64;
    PhaseStats {
        phase,
        workers: report.workers,
        queue_cap: report.queue_cap,
        deadline_ms,
        submitted,
        accepted: report.accepted,
        completed: report.completed,
        failed: report.failed,
        rejected: report.rejected,
        shed: report.shed,
        deadline_missed: report.deadline_missed,
        lost,
        p50_us: odburg_bench::quantile_us(&latencies, 0.50),
        p99_us: odburg_bench::quantile_us(&latencies, 0.99),
        maintenance_runs,
        wall_ms,
    }
}

/// Open-loop replay: arrival-paced mixed traffic against a bounded
/// queue, a deadline, and a compacting per-target budget.
fn paced_phase(grammars: &[(String, Arc<NormalGrammar>)]) -> PhaseStats {
    const JOBS: usize = 240;
    let deadline = Duration::from_millis(250);
    let refs: Vec<(&str, &NormalGrammar)> = grammars
        .iter()
        .map(|(n, g)| (n.as_str(), g.as_ref()))
        .collect();
    let traffic = paced_traffic(&refs, SEED, JOBS, Duration::from_micros(300));

    let server = SelectorServer::with_builtin_targets(ServerConfig {
        workers: 2,
        queue_cap: 64,
        memory_budget: Some(MemoryBudget::compact(128 * 1024, 0.5)),
        ..ServerConfig::default()
    });
    let options = JobOptions {
        deadline: Some(deadline),
        ..JobOptions::default()
    };
    let started = Instant::now();
    let mut handles = Vec::with_capacity(JOBS);
    let mut submitted = 0u64;
    for paced in traffic {
        if let Some(wait) = paced.at.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        submitted += 1;
        match server.try_submit_with(&paced.job.target, paced.job.forest, options) {
            Ok(handle) => handles.push(handle),
            Err(SubmitError::QueueFull { .. }) => {} // typed-rejected, tallied by the server
            Err(e) => panic!("paced: unexpected rejection: {e}"),
        }
    }
    settle(
        "paced",
        &server,
        handles,
        submitted,
        started,
        Some(deadline.as_millis() as u64),
    )
}

/// Adversarial overload: a plug job wedges the single worker, then a
/// zero-deadline burst slams the tiny queue. Admission purges expired
/// queued jobs before rejecting, so the already-dead burst jobs are
/// delivered as `DeadlineExceeded` and never convert into spurious
/// `QueueFull` — the whole burst is accepted and expires, none of it
/// is rejected.
fn burst_phase() -> PhaseStats {
    const BURST: usize = 200;
    let server = SelectorServer::with_builtin_targets(ServerConfig {
        workers: 1,
        queue_cap: 8,
        ..ServerConfig::default()
    });
    // The plug: a big MiniC workload, long enough that the burst below
    // is fully submitted while the worker is still labeling it.
    let suite = odburg::workloads::combined_workload();
    let plug = odburg::workloads::replicate(&suite.forest, 50);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(BURST + 1);
    handles.push(
        server
            .try_submit("x86ish", plug)
            .expect("an empty queue accepts the plug"),
    );
    let mut submitted = 1u64;
    let expired = JobOptions {
        deadline: Some(Duration::ZERO),
        ..JobOptions::default()
    };
    for i in 0..BURST {
        let mut forest = odburg_ir::Forest::new();
        let root =
            odburg_ir::parse_sexpr(&mut forest, &format!("(AddI4 (ConstI4 {i}) (ConstI4 1))"))
                .expect("burst tree parses");
        forest.add_root(root);
        submitted += 1;
        match server.try_submit_with("x86ish", forest, expired) {
            Ok(handle) => handles.push(handle),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(e) => panic!("burst: unexpected rejection: {e}"),
        }
    }
    settle("burst", &server, handles, submitted, started, Some(0))
}

/// A grammar whose dynamic cost sleeps [`SERVICE_SLICE`] once per
/// distinct constant, so every job with a fresh constant has a known,
/// deterministic service time — the per-target EWMA converges to it
/// within the warmup jobs.
fn work_grammar() -> Arc<NormalGrammar> {
    let mut g = odburg::grammar::parse_grammar(
        r#"
        %grammar work
        %start stmt
        %dyncost sleep
        reg: ConstI8 [sleep]
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .expect("work grammar parses");
    g.bind_dyncost(
        "sleep",
        Arc::new(|forest: &odburg_ir::Forest, node: odburg_ir::NodeId| {
            std::thread::sleep(SERVICE_SLICE);
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            RuleCost::Finite((v.unsigned_abs() % 911) as u16)
        }),
    )
    .expect("dyncost binds");
    Arc::new(g.normalize())
}

/// One `work` job: a fresh constant per call keeps minting signatures,
/// so its dyncost (and sleep) is evaluated once per job.
fn work_forest(k: i64) -> odburg_ir::Forest {
    let mut f = odburg_ir::Forest::new();
    let root = odburg_ir::parse_sexpr(
        &mut f,
        &format!("(StoreI8 (ConstI8 {k}) (ConstI8 {}))", k + 1),
    )
    .expect("work tree parses");
    f.add_root(root);
    f
}

/// Goodput under deadline overload, run with and without shedding.
///
/// One worker; a five-constant plug (~5 × [`SERVICE_SLICE`]) wedges it
/// while the flood is submitted in the order worst for arrival-order
/// serving: 60 *loose* jobs (2 s deadlines), then [`DOOMED`] *doomed*
/// jobs (8 ms deadlines the plug alone outlasts), then 16 *tight* jobs
/// (250 ms deadlines). Served in arrival order, every tight job would
/// wait behind ~400 ms of loose work and miss; the queue serves
/// deadline order and meets every tight job. With shedding on, the
/// doomed jobs behind other doomed work are refused at admission
/// (`Infeasible`) once the per-target EWMA says the earlier-deadline
/// queue already blows their 8 ms.
fn overload_phase(phase: &'static str, shed_infeasible: bool) -> PhaseStats {
    const LOOSE: usize = 60;
    const TIGHT: usize = 16;
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 512,
        shed_infeasible,
        ..ServerConfig::default()
    });
    server
        .register_normal("work", work_grammar())
        .expect("work grammar registers");

    let started = Instant::now();
    let mut submitted = 0u64;
    // Prime the per-target service-time EWMA with undeadlined jobs,
    // fully drained before the overload starts.
    for i in 0..4 {
        submitted += 1;
        let handle = server
            .try_submit("work", work_forest(9_000_000 + 2 * i))
            .expect("an idle server accepts warmup");
        let done = handle.wait();
        assert!(done.outcome.is_ok(), "{phase}: warmup must label");
    }

    // The plug: five fresh constants wedge the worker long enough that
    // the whole flood is submitted (and the doomed deadlines expire)
    // while it labels.
    let mut handles = Vec::with_capacity(1 + LOOSE + DOOMED + TIGHT);
    let mut plug = odburg_ir::Forest::new();
    let root = odburg_ir::parse_sexpr(
        &mut plug,
        "(StoreI8 (AddI8 (AddI8 (ConstI8 9100000) (ConstI8 9100001)) \
         (AddI8 (ConstI8 9100002) (ConstI8 9100003))) (ConstI8 9100004))",
    )
    .expect("plug tree parses");
    plug.add_root(root);
    submitted += 1;
    handles.push(
        server
            .try_submit("work", plug)
            .expect("an empty queue accepts the plug"),
    );

    let classes: [(usize, i64, Duration); 3] = [
        (LOOSE, 1_000_000, Duration::from_secs(2)),
        (DOOMED, 2_000_000, Duration::from_millis(8)),
        (TIGHT, 3_000_000, Duration::from_millis(250)),
    ];
    for (count, base, deadline) in classes {
        let options = JobOptions {
            deadline: Some(deadline),
            ..JobOptions::default()
        };
        for i in 0..count {
            submitted += 1;
            match server.try_submit_with("work", work_forest(base + 2 * i as i64), options) {
                Ok(handle) => handles.push(handle),
                Err(SubmitError::Infeasible { .. }) => {} // shed, tallied by the server
                Err(e) => panic!("{phase}: unexpected rejection: {e}"),
            }
        }
    }
    settle(phase, &server, handles, submitted, started, None)
}

fn main() {
    let grammars: Vec<(String, Arc<NormalGrammar>)> = odburg::targets::all()
        .into_iter()
        .map(|g| (g.name().to_owned(), Arc::new(g.normalize())))
        .collect();

    let phases = [
        paced_phase(&grammars),
        burst_phase(),
        overload_phase("overload_noshed", false),
        overload_phase("overload_shed", true),
    ];
    let (noshed, shed) = (&phases[2], &phases[3]);
    // Every job but the doomed ones must complete; both phases submit
    // the same jobs.
    let min_completed = noshed.submitted - DOOMED as u64;

    println!("Serve latency: bounded queue, deadlines, backpressure\n");
    for p in &phases {
        let rate = |n: u64| {
            if p.submitted == 0 {
                0.0
            } else {
                n as f64 / p.submitted as f64
            }
        };
        println!(
            "{:<15} workers={} cap={} deadline={:?}ms: {} submitted = {} completed \
             ({} failed) + {} rejected + {} shed + {} deadline-missed (lost {}), \
             p50 {}us p99 {}us, {} maintenance quanta, {} ms",
            p.phase,
            p.workers,
            p.queue_cap,
            p.deadline_ms.unwrap_or(0),
            p.submitted,
            p.completed,
            p.failed,
            p.rejected,
            p.shed,
            p.deadline_missed,
            p.lost,
            p.p50_us,
            p.p99_us,
            p.maintenance_runs,
            p.wall_ms,
        );
        println!(
            "       rejection rate {}, deadline rate {}",
            f(rate(p.rejected), 3),
            f(rate(p.deadline_missed), 3)
        );
    }

    let mut json = String::from("{\n  \"bench\": \"serve_latency\",\n");
    json.push_str(&format!(
        "  \"seed\": {SEED},\n  \"overload_min_completed\": {min_completed},\n  \"phases\": [\n"
    ));
    for (i, p) in phases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"phase\": \"{}\", \"workers\": {}, \"queue_cap\": {}, \
             \"deadline_ms\": {}, \"submitted\": {}, \"accepted\": {}, \
             \"completed\": {}, \"failed\": {}, \"rejected\": {}, \"shed\": {}, \
             \"deadline_missed\": {}, \"lost\": {}, \"p50_us\": {}, \
             \"p99_us\": {}, \"rejection_rate\": {:.4}, \"deadline_rate\": {:.4}, \
             \"maintenance_runs\": {}, \"wall_ms\": {}}}{}\n",
            p.phase,
            p.workers,
            p.queue_cap,
            p.deadline_ms.unwrap_or(0),
            p.submitted,
            p.accepted,
            p.completed,
            p.failed,
            p.rejected,
            p.shed,
            p.deadline_missed,
            p.lost,
            p.p50_us,
            p.p99_us,
            p.rejected as f64 / p.submitted.max(1) as f64,
            p.deadline_missed as f64 / p.submitted.max(1) as f64,
            p.maintenance_runs,
            p.wall_ms,
            if i + 1 == phases.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new("target/serve_latency.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncannot write {}: {e}", path.display()),
    }

    // The shape checks this bench exists for.
    for p in &phases {
        assert_eq!(p.lost, 0, "{}: jobs were lost", p.phase);
        assert_eq!(
            p.submitted,
            p.accepted + p.rejected + p.shed,
            "{}: submissions unaccounted",
            p.phase
        );
        assert_eq!(p.failed, 0, "{}: sampled traffic must label", p.phase);
    }
    let paced = &phases[0];
    assert!(paced.completed > 0, "paced: nothing completed");
    assert!(
        paced.maintenance_runs > 0,
        "paced: budget enforcement must run in worker quanta"
    );
    let burst = &phases[1];
    assert_eq!(
        burst.rejected, 0,
        "burst: expired queued jobs must be purged at admission, not converted into QueueFull"
    );
    assert!(
        burst.deadline_missed > 0,
        "burst: zero-deadline jobs queued behind the plug must expire"
    );
    assert_eq!(noshed.shed, 0, "overload_noshed: shedding is off");
    assert!(
        shed.shed > 0,
        "overload_shed: doomed jobs must be shed at admission"
    );
    for p in [noshed, shed] {
        assert!(
            p.completed >= min_completed,
            "{}: completed {} of {} jobs, below the {min_completed} that are not doomed",
            p.phase,
            p.completed,
            p.submitted
        );
    }
    assert!(
        shed.deadline_missed <= noshed.deadline_missed,
        "overload: shedding must not miss more deadlines ({}) than no shedding ({})",
        shed.deadline_missed,
        noshed.deadline_missed
    );
    println!(
        "ok: conservation holds in every phase; backpressure, shedding, and deadlines are \
         typed outcomes, and every job that is not doomed completes under overload"
    );
}
