//! **Cluster smoke: 3 shards, table shipping, one kill, nothing lost.**
//!
//! The cluster tier's CI gate, exercising every claim the
//! [`odburg::cluster`] module makes on one fixed-seed mixed-traffic
//! stream:
//!
//! 1. **Differential** — every job routed through the 3-shard cluster
//!    reduces bit-identically to a fresh single-process [`DpLabeler`]
//!    oracle.
//! 2. **Kill** — a shard is killed with jobs in flight; every accepted
//!    job still resolves (`lost_accepted_on_kill == 0`) and the killed
//!    incarnation's own report conserves.
//! 3. **Warm start** — the shard restarts, warm-starts from tables
//!    shipped by the surviving writers, and serves pinned warm traffic
//!    with **zero** grow-path entries (`states_built == 0`,
//!    `memo_misses == 0`).
//! 4. **Conservation from telemetry alone** — `submitted == accepted +
//!    rejected + shed` summed over every shard incarnation's telemetry
//!    registry, and those totals equal the jobs this bin submitted
//!    (every one accepted).
//!
//! Every invariant is asserted here, on every run. Results go to stdout
//! and, as JSON, to `target/cluster_smoke.json` (CI uploads the
//! artifact).
//!
//! Regenerate with:
//! `cargo run --release -p odburg_bench --bin cluster_smoke`

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use odburg::prelude::*;
use odburg_workloads::{builtin_traffic, TrafficJob};

const SEED: u64 = 0xC0FFEE;
const WARM_JOBS: usize = 90;
const KILL_JOBS: usize = 30;

/// The DP oracle's reduction of one job: a fresh dynamic-programming
/// labeler per target, no automata, no sharing.
fn oracle_reduce(
    oracles: &mut HashMap<String, (Arc<NormalGrammar>, DpLabeler)>,
    job: &TrafficJob,
) -> Reduction {
    let (normal, dp) = oracles.entry(job.target.clone()).or_insert_with(|| {
        let grammar = odburg::targets::by_name(&job.target).expect("builtin target");
        let normal = Arc::new(grammar.normalize());
        (Arc::clone(&normal), DpLabeler::new(normal))
    });
    let labeling = dp.label_forest(&job.forest).expect("oracle labels");
    reduce_forest(&job.forest, normal, &labeling).expect("oracle reduces")
}

fn assert_matches_oracle(
    oracles: &mut HashMap<String, (Arc<NormalGrammar>, DpLabeler)>,
    job: &TrafficJob,
    done: &CompletedJob,
) {
    let expected = oracle_reduce(oracles, job);
    let got = done.reduce().expect("cluster job reduces");
    assert_eq!(
        got.instructions, expected.instructions,
        "instructions diverge from the DP oracle on {}",
        job.target
    );
    assert_eq!(
        got.total_cost, expected.total_cost,
        "cost diverges from the DP oracle on {}",
        job.target
    );
}

fn main() {
    let cluster = ShardCluster::with_builtin_targets(ClusterConfig {
        shards: 3,
        vnodes: 64,
        server: ServerConfig {
            workers: 2,
            queue_cap: 4096,
            ..ServerConfig::default()
        },
    });
    let mut oracles = HashMap::new();

    // Phase 1: warm the writers on mixed traffic, every job checked
    // against the oracle.
    let warm = builtin_traffic(SEED, WARM_JOBS);
    let mut pending = Vec::new();
    for job in &warm {
        pending.push(
            cluster
                .submit(&job.target, job.forest.clone())
                .expect("uncontended submit"),
        );
    }
    let mut oracle_matches = 0usize;
    for (job, sub) in warm.iter().zip(pending) {
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
        oracle_matches += 1;
    }
    println!("phase 1: {oracle_matches}/{WARM_JOBS} warm jobs match the DP oracle");

    // Broadcast the warm tables before anything fails: a writer
    // failover can only be seamless if the replicas already hold what
    // the writer learned.
    for (target, result) in cluster.ship_all() {
        result.unwrap_or_else(|e| panic!("shipping {target} failed: {e}"));
    }

    // Phase 2: kill the busiest writer with jobs in flight. Every
    // accepted job must still resolve — the kill drains the queue.
    let victim = cluster
        .writer(&warm[0].target)
        .expect("registered target")
        .shard;
    let kill_traffic = builtin_traffic(SEED ^ 0x51, KILL_JOBS);
    let mut in_flight = Vec::new();
    for job in &kill_traffic {
        in_flight.push((
            job,
            cluster
                .submit(&job.target, job.forest.clone())
                .expect("uncontended submit"),
        ));
    }
    let in_flight_at_kill = in_flight.len();
    let killed = cluster.kill_shard(victim).expect("victim was alive");
    let lost_accepted_on_kill = killed.accepted - killed.completed - killed.deadline_missed;
    let mut resolved_after_kill = 0usize;
    for (job, sub) in in_flight {
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
        resolved_after_kill += 1;
    }
    assert_eq!(
        lost_accepted_on_kill, 0,
        "killing shard {victim} dropped accepted jobs: {killed:?}"
    );
    assert_eq!(resolved_after_kill, in_flight_at_kill);
    println!(
        "phase 2: killed shard {victim} with {in_flight_at_kill} jobs in flight; \
         all resolved, {lost_accepted_on_kill} accepted jobs lost"
    );

    // Phase 3: restart the victim; it warm-starts from tables shipped
    // by the surviving writers, then serves pinned warm traffic.
    let warmed = cluster.restart_shard(victim).expect("restart ships");
    assert!(warmed > 0, "restart shipped no tables");
    let mut replayed = 0usize;
    for job in &warm {
        let lease = cluster.writer(&job.target).expect("registered");
        if lease.shard == victim {
            continue; // pinning to the writer would not prove shipping
        }
        cluster.pin(&job.target, victim).expect("registered");
        let sub = cluster
            .submit(&job.target, job.forest.clone())
            .expect("pinned submit");
        assert_eq!(sub.shard, victim, "pin must route to the restarted shard");
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
        replayed += 1;
    }
    assert!(replayed > 0, "no warm traffic reached the restarted shard");
    println!(
        "phase 3: restarted shard {victim} warm-started {warmed} targets, replayed {replayed} jobs"
    );

    let report = cluster.shutdown();
    assert!(report.conserved(), "cluster conservation: {report:?}");

    // The restarted incarnation served the pinned replay; its grow-path
    // counters prove it answered from shipped tables.
    let restarted = report
        .per_shard
        .iter()
        .rfind(|s| s.shard == victim && !s.killed)
        .expect("restarted incarnation reported");
    let counters = restarted.report.counters();

    // Conservation from telemetry alone, checked against the jobs this
    // bin submitted: every submit above expected acceptance.
    let mut totals = JobCounts::default();
    for (_, telemetry) in cluster.shard_telemetries() {
        totals.merge(&telemetry.totals());
    }
    let telemetry_conserved = totals.conserved();
    assert!(telemetry_conserved, "telemetry conservation: {totals:?}");
    let submitted = (WARM_JOBS + KILL_JOBS + replayed) as u64;
    assert_eq!(
        (totals.submitted, totals.accepted),
        (submitted, submitted),
        "telemetry disagrees with the jobs this bin submitted"
    );
    println!(
        "conservation (telemetry alone): submitted {} == accepted {} + rejected {} + shed {}",
        totals.submitted, totals.accepted, totals.rejected, totals.shed
    );
    println!(
        "replica grow path on warm traffic: {} states built, {} memo misses",
        counters.states_built, counters.memo_misses
    );

    let mut json = String::from("{\n  \"bench\": \"cluster_smoke\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"shards\": 3,");
    let _ = writeln!(json, "  \"warm_jobs\": {WARM_JOBS},");
    let _ = writeln!(json, "  \"kill_jobs\": {KILL_JOBS},");
    let _ = writeln!(
        json,
        "  \"oracle_matches\": {},",
        oracle_matches + resolved_after_kill + replayed
    );
    let _ = writeln!(json, "  \"submitted\": {submitted},");
    let _ = writeln!(json, "  \"accepted\": {},", report.accepted);
    let _ = writeln!(json, "  \"completed\": {},", report.completed);
    let _ = writeln!(json, "  \"rejected\": {},", report.rejected);
    let _ = writeln!(json, "  \"shed\": {},", report.shed);
    let _ = writeln!(json, "  \"deadline_missed\": {},", report.deadline_missed);
    let _ = writeln!(json, "  \"telemetry_submitted\": {},", totals.submitted);
    let _ = writeln!(json, "  \"telemetry_accepted\": {},", totals.accepted);
    let _ = writeln!(json, "  \"telemetry_rejected\": {},", totals.rejected);
    let _ = writeln!(json, "  \"telemetry_shed\": {},", totals.shed);
    let _ = writeln!(json, "  \"telemetry_conserved\": {telemetry_conserved},");
    let _ = writeln!(json, "  \"killed_shard\": {victim},");
    let _ = writeln!(json, "  \"in_flight_at_kill\": {in_flight_at_kill},");
    let _ = writeln!(json, "  \"resolved_after_kill\": {resolved_after_kill},");
    let _ = writeln!(
        json,
        "  \"lost_accepted_on_kill\": {lost_accepted_on_kill},"
    );
    let _ = writeln!(json, "  \"restart_warmed_targets\": {warmed},");
    let _ = writeln!(json, "  \"replayed_warm_jobs\": {replayed},");
    let _ = writeln!(
        json,
        "  \"replica_states_built\": {},",
        counters.states_built
    );
    let _ = writeln!(json, "  \"replica_memo_misses\": {},", counters.memo_misses);
    let _ = writeln!(json, "  \"shipments\": {},", report.shipments);
    let _ = writeln!(json, "  \"ship_rejects\": {},", report.ship_rejects);
    let _ = writeln!(json, "  \"reroutes\": {},", report.reroutes);
    let _ = writeln!(json, "  \"writer_elections\": {}", report.writer_elections);
    json.push_str("}\n");
    let path = std::path::Path::new("target/cluster_smoke.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncannot write {}: {e}", path.display()),
    }

    // The three checks this smoke exists for, stated last and loud.
    assert_eq!(
        counters.states_built, 0,
        "restarted shard entered the grow path on warm traffic"
    );
    assert_eq!(
        counters.memo_misses, 0,
        "restarted shard missed its shipped tables on warm traffic"
    );
    assert_eq!(lost_accepted_on_kill, 0);
    assert!(
        report.shipments > 0 && report.writer_elections > 0,
        "the cluster shipped {} times over {} writer elections",
        report.shipments,
        report.writer_elections
    );
    println!(
        "ok: oracle-identical, zero lost accepted jobs, zero grow-path entries on the replica"
    );
}
