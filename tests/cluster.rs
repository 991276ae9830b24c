//! Differential tests of the cluster tier: every job routed through a
//! 3-shard [`ShardCluster`] must reduce bit-identically to a fresh
//! single-process DP oracle — including jobs in flight across a
//! snapshot shipment and across a writer re-election — and no accepted
//! job may ever be lost, killed shard or not.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use odburg::prelude::*;
use odburg::workloads::{builtin_traffic, TrafficJob};

use common::dp_reduction;

/// Checks one cluster job against the DP oracle; `oracles` caches each
/// target's normalized grammar.
fn assert_matches_oracle(
    oracles: &mut HashMap<String, Arc<NormalGrammar>>,
    job: &TrafficJob,
    done: &CompletedJob,
) {
    let normal = oracles.entry(job.target.clone()).or_insert_with(|| {
        let grammar = odburg::targets::by_name(&job.target).expect("builtin target");
        Arc::new(grammar.normalize())
    });
    let expected = dp_reduction(&job.forest, normal);
    let got = done.reduce().expect("cluster job reduces");
    assert_eq!(
        got.instructions, expected.instructions,
        "instructions diverge from DP oracle on {} ({})",
        job.target, done.ticket
    );
    assert_eq!(
        got.total_cost, expected.total_cost,
        "cost diverges from DP oracle on {}",
        job.target
    );
}

fn small_cluster() -> ShardCluster {
    ShardCluster::with_builtin_targets(ClusterConfig {
        shards: 3,
        vnodes: 64,
        server: ServerConfig {
            workers: 2,
            queue_cap: 1024,
            ..ServerConfig::default()
        },
    })
}

#[test]
fn three_shard_cluster_matches_dp_oracle_with_conservation() {
    let cluster = small_cluster();
    let jobs = builtin_traffic(11, 90);
    let mut oracles = HashMap::new();

    let mut pending = Vec::new();
    for job in &jobs {
        let accepted = cluster
            .submit(&job.target, job.forest.clone())
            .expect("queue is large enough");
        // Routing must agree with the writer lease: single-writer
        // discipline is enforced by where jobs go.
        assert_eq!(
            accepted.shard,
            cluster.writer(&job.target).expect("registered").shard
        );
        pending.push(accepted.handle);
    }
    for (job, handle) in jobs.iter().zip(pending) {
        let done = handle.wait();
        assert_matches_oracle(&mut oracles, job, &done);
    }

    let report = cluster.shutdown();
    assert!(report.conserved(), "conservation violated: {report:?}");
    assert_eq!(report.submitted, 90);
    assert_eq!(report.accepted, 90);
    assert_eq!(report.completed, 90);

    // Cluster-wide conservation is also derivable from telemetry alone.
    let mut tele = JobCounts::default();
    for (_, t) in cluster.shard_telemetries() {
        tele.merge(&t.totals());
    }
    assert_eq!(tele.submitted, tele.accepted + tele.rejected + tele.shed);
    assert_eq!(tele.submitted, 90);
}

#[test]
fn jobs_in_flight_straddle_a_shipment_and_replicas_stay_warm() {
    let cluster = small_cluster();
    let jobs = builtin_traffic(23, 60);
    let mut oracles = HashMap::new();

    // Warm the writers with the first half while shipping snapshots
    // between submissions — jobs are queued and in flight while
    // replicas swap shipped tables in.
    let (warmup, rest) = jobs.split_at(30);
    let mut pending = Vec::new();
    for (i, job) in warmup.iter().enumerate() {
        pending.push(cluster.submit(&job.target, job.forest.clone()).unwrap());
        if i % 7 == 6 {
            cluster.ship_target(&job.target).expect("mid-stream ship");
        }
    }
    for (job, sub) in warmup.iter().zip(pending.drain(..)) {
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
    }

    // Ship everything, then pin each target to a replica and replay
    // traffic the writer has already seen: the replica must answer from
    // shipped tables with zero grow-path entries.
    for (target, result) in cluster.ship_all() {
        result.unwrap_or_else(|e| panic!("shipping {target} failed: {e}"));
    }
    for target in cluster.targets() {
        let writer = cluster.writer(&target).unwrap().shard;
        let replica = (0..3).find(|&s| s != writer).unwrap();
        cluster.pin(&target, replica).unwrap();
    }
    for job in warmup {
        let sub = cluster.submit(&job.target, job.forest.clone()).unwrap();
        let writer = cluster.writer(&job.target).unwrap().shard;
        assert_ne!(sub.shard, writer, "pin must override the ring");
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
    }

    // Unpinned fresh traffic still matches the oracle.
    for target in cluster.targets() {
        cluster.unpin(&target);
    }
    let mut pending = Vec::new();
    for job in rest {
        pending.push(cluster.submit(&job.target, job.forest.clone()).unwrap());
    }
    for (job, sub) in rest.iter().zip(pending) {
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
    }

    let report = cluster.shutdown();
    assert!(report.conserved());
    assert!(report.shipments > 0, "no shipment was installed");
}

#[test]
fn restarted_shard_warm_starts_with_zero_grow_entries() {
    let cluster = small_cluster();
    let jobs = builtin_traffic(31, 40);
    let mut oracles = HashMap::new();

    // Warm every writer.
    let mut pending = Vec::new();
    for job in &jobs {
        pending.push(cluster.submit(&job.target, job.forest.clone()).unwrap());
    }
    for (job, sub) in jobs.iter().zip(pending) {
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
    }

    // Broadcast the warm tables while every writer is alive: a failover
    // writer can only ship warm tables if it received them as a replica.
    for (target, result) in cluster.ship_all() {
        result.unwrap_or_else(|e| panic!("shipping {target} failed: {e}"));
    }

    // Kill a shard, then bring it back: it must warm-start from shipped
    // tables.
    let victim = 1;
    let killed = cluster.kill_shard(victim).expect("was alive");
    assert_eq!(killed.accepted, killed.completed + killed.deadline_missed);
    let warmed = cluster.restart_shard(victim).expect("restart");
    assert!(warmed > 0, "restart shipped no tables");

    // Pin warm traffic to the restarted shard; its masters must answer
    // entirely from the shipped tables — zero grow-path entries.
    let mut replayed = false;
    for job in &jobs {
        let lease = cluster.writer(&job.target).unwrap();
        if lease.shard == victim {
            continue; // pinning to the writer would not prove shipping
        }
        cluster.pin(&job.target, victim).unwrap();
        let sub = cluster.submit(&job.target, job.forest.clone()).unwrap();
        assert_eq!(sub.shard, victim);
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
        replayed = true;
    }
    assert!(replayed, "no warm traffic reached the restarted shard");

    let report = cluster.shutdown();
    assert!(report.conserved());
    // The restarted incarnation is the one that served the pinned
    // replay; its grow-path counters must be zero.
    let restarted = report
        .per_shard
        .iter()
        .rfind(|s| s.shard == victim && !s.killed)
        .expect("restarted incarnation reported");
    let counters = restarted.report.counters();
    assert_eq!(
        counters.states_built, 0,
        "restarted shard entered the grow path: {counters:?}"
    );
    assert_eq!(
        counters.memo_misses, 0,
        "restarted shard missed its shipped tables: {counters:?}"
    );
}

#[test]
fn writer_re_election_fences_the_zombie_and_loses_nothing() {
    let cluster = small_cluster();
    let jobs = builtin_traffic(47, 50);
    let mut oracles = HashMap::new();

    // Warm the writers, then capture a pre-election shipment from one
    // target's writer — the "zombie broadcast".
    let mut pending = Vec::new();
    for job in &jobs {
        pending.push(cluster.submit(&job.target, job.forest.clone()).unwrap());
    }
    for (job, sub) in jobs.iter().zip(pending) {
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
    }
    let target = jobs[0].target.clone();
    let old_lease = cluster.writer(&target).unwrap();
    let zombie = {
        // A shipment the old writer prepared before it died: current
        // bytes, old lease epoch.
        let report = cluster.ship_target(&target).expect("pre-kill ship");
        assert_eq!(report.writer, old_lease);
        Shipment {
            target: target.clone(),
            writer_epoch: old_lease.epoch,
            bytes: Vec::new(), // never reached: the lease fence fires first
        }
    };

    // Kill the writer: in-flight jobs drain, the lease moves on with a
    // bumped epoch.
    let mut in_flight = Vec::new();
    for job in jobs.iter().filter(|j| j.target == target).take(5) {
        in_flight.push((
            job,
            cluster.submit(&job.target, job.forest.clone()).unwrap(),
        ));
    }
    let killed = cluster.kill_shard(old_lease.shard).expect("was alive");
    assert_eq!(
        killed.accepted,
        killed.completed + killed.deadline_missed,
        "kill dropped accepted jobs"
    );
    // Jobs accepted before the kill still resolve and still match.
    for (job, sub) in in_flight {
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
    }

    let new_lease = cluster.writer(&target).unwrap();
    assert_ne!(new_lease.shard, old_lease.shard);
    assert_eq!(new_lease.epoch, old_lease.epoch + 1);

    // The zombie's late broadcast is refused by the epoch fence on
    // every alive shard — a typed error, not a silent anything.
    for idx in 0..cluster.shard_count() {
        if !cluster.is_alive(idx) {
            continue;
        }
        match cluster.deliver_shipment(idx, &zombie) {
            Err(ShipError::StaleWriter {
                shipped, current, ..
            }) => {
                assert_eq!(shipped, old_lease.epoch);
                assert_eq!(current, new_lease.epoch);
            }
            other => panic!("zombie shipment not fenced: {other:?}"),
        }
    }

    // Traffic for the re-homed target flows to the new writer and still
    // matches the oracle.
    for job in jobs.iter().filter(|j| j.target == target) {
        let sub = cluster.submit(&job.target, job.forest.clone()).unwrap();
        assert_eq!(sub.shard, new_lease.shard);
        assert_matches_oracle(&mut oracles, job, &sub.handle.wait());
    }

    let report = cluster.shutdown();
    assert!(report.conserved());
    assert!(report.writer_elections > 6, "re-election not recorded");
    assert!(report.ship_rejects >= 2, "zombie rejections not recorded");
}

#[test]
fn routing_errors_are_typed() {
    let cluster = ShardCluster::new(ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    });
    let mut f = Forest::new();
    let root = odburg::ir::parse_sexpr(&mut f, "(ConstI8 1)").unwrap();
    f.add_root(root);

    assert!(matches!(
        cluster.submit("nope", f.clone()),
        Err(ClusterSubmitError::Route(RouteError::UnknownTarget(_)))
    ));

    let grammar = odburg::targets::x86ish();
    cluster.register(&grammar).unwrap();
    cluster.kill_shard(0).unwrap();
    cluster.kill_shard(1).unwrap();
    assert!(matches!(
        cluster.submit(grammar.name(), f),
        Err(ClusterSubmitError::Route(RouteError::NoAliveShard(_)))
    ));
    let report = cluster.shutdown();
    assert!(report.conserved());
}
