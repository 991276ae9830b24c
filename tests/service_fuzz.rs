//! Differential fuzzing of the selection service: proptest-generated
//! random grammars and forests go through a [`SelectorServer`] batch
//! (uncapped queue, worker pool, snapshot pinning, registry), and every
//! result is
//! cross-checked **bit-identically** — full instruction sequence and
//! total cost — against a fresh [`DpLabeler`] oracle built for just
//! that job. The service is allowed no deviation at all: the concurrent
//! fast path, the grow path and mid-batch registration must all be
//! invisible in the output.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use odburg::prelude::*;
use odburg::workloads::TreeSampler;

use common::{dp_reduction, random_grammar};

/// A two-worker batch server: uncapped, so every job is accepted.
fn batch_server() -> SelectorServer {
    SelectorServer::new(ServerConfig {
        workers: 2,
        queue_cap: usize::MAX,
        ..ServerConfig::default()
    })
}

proptest! {
    // 256 cases x 4 jobs: the differential surface the acceptance
    // criteria ask for, on every run.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn service_batches_agree_bit_identically_with_dp(seed in 0u64..1_000_000) {
        let server = batch_server();
        let alpha = Arc::new(random_grammar(seed).normalize());
        let beta = Arc::new(random_grammar(seed ^ 0x5EED).normalize());
        server.register_normal("alpha", Arc::clone(&alpha)).unwrap();
        server.register_normal("beta", Arc::clone(&beta)).unwrap();

        let mut expected: Vec<(JobHandle, Arc<NormalGrammar>, Forest)> = Vec::new();
        let mut enqueue = |server: &SelectorServer, name: &str, normal: &Arc<NormalGrammar>, salt: u64| {
            let mut sampler = TreeSampler::new(normal, seed ^ salt);
            let forest = sampler.sample_forest(8);
            let handle = server.try_submit(name, forest.clone()).unwrap();
            expected.push((handle, Arc::clone(normal), forest));
        };
        enqueue(&server, "alpha", &alpha, 0xA1);
        enqueue(&server, "beta", &beta, 0xB2);
        // Mid-batch registration: a third grammar joins while jobs are
        // already queued, and serves the same batch.
        let gamma = Arc::new(random_grammar(seed ^ 0xC0C0).normalize());
        server.register_normal("gamma", Arc::clone(&gamma)).unwrap();
        enqueue(&server, "gamma", &gamma, 0xC3);
        // And the first target again, now against warmed tables.
        enqueue(&server, "alpha", &alpha, 0xA4);

        let jobs = expected.len() as u64;
        for (handle, normal, forest) in expected {
            let ticket = handle.ticket();
            let done = handle.wait();
            prop_assert_eq!(done.ticket, ticket);
            prop_assert_eq!(done.forest.len(), forest.len());
            prop_assert!(done.epoch().is_some());
            let got = done.reduce().expect("service job reduces");
            let want = dp_reduction(&forest, &normal);
            prop_assert_eq!(
                &got.instructions,
                &want.instructions,
                "seed {}: service and dp chose different code for {}",
                seed,
                ticket
            );
            prop_assert_eq!(got.total_cost, want.total_cost, "seed {}", seed);
        }

        // The server's accounting covers exactly the submitted jobs.
        let report = server.shutdown();
        prop_assert_eq!((report.accepted, report.completed, report.failed), (jobs, jobs, 0));
    }

    #[test]
    fn service_reports_uncoverable_jobs_without_poisoning_the_batch(seed in 0u64..1_000_000) {
        // A forest using an operator the grammar has no rule for must
        // come back as a per-job NoCover, while every other job in the
        // same batch still matches the oracle.
        let server = batch_server();
        let normal = Arc::new(random_grammar(seed).normalize());
        server.register_normal("only", Arc::clone(&normal)).unwrap();

        let mut sampler = TreeSampler::new(&normal, seed ^ 0x0DD);
        let good = sampler.sample_forest(6);
        let good_job = server.try_submit("only", good.clone()).unwrap();

        let mut bad = Forest::new();
        let root = parse_sexpr(&mut bad, "(MulF8 (ConstF8 #1.5) (ConstF8 #2.5))").unwrap();
        bad.add_root(root);
        let bad_job = server.try_submit("only", bad).unwrap();

        let good_done = good_job.wait();
        prop_assert!(good_done.outcome.is_ok());
        prop_assert!(matches!(
            bad_job.wait().outcome,
            Err(JobError::Label(LabelError::NoCover { .. }))
        ));
        prop_assert_eq!(server.shutdown().failed, 1);
        let got = good_done.reduce().expect("good job reduces");
        let want = dp_reduction(&good, &normal);
        prop_assert_eq!(&got.instructions, &want.instructions);
        prop_assert_eq!(got.total_cost, want.total_cost);
    }
}
