//! The benchmark's inputs come from its seed alone: one pass of a
//! workload on the same seed gives identical counts, and another seed
//! gives another stream.

use std::path::Path;

use odburg_perfbench::jobs::MinicSuite;
use odburg_perfbench::{minic, serve, Counts, Params, Stop, Workload};

/// Counts of one pass of `workload` on `seed`, on a short stream. One
/// worker, so the server labels jobs in submission order (with more,
/// the order in which workers grow the tables is up to the scheduler).
fn one_pass(workload: Workload, seed: u64) -> Counts {
    let mut params = Params::new(workload, seed);
    params.pass_jobs = params.pass_jobs.min(300);
    params.workers = 1;
    params.setups = 1;
    let out = match workload {
        Workload::MinicSession => {
            let suite = MinicSuite::build().expect("the MiniC suite builds");
            minic::run(&params, &suite, Stop::Passes(1), false)
        }
        _ => {
            let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
            let prepared = serve::Prepared::new(&params, scratch).expect("inputs generate");
            serve::run(&params, &prepared, Stop::Passes(1), false)
        }
    }
    .expect("the pass runs");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.failed, 0, "{workload:?} seed {seed}: failed jobs");
    out.counts
}

#[test]
fn same_seed_gives_identical_counts() {
    for workload in Workload::ALL {
        let a = one_pass(workload, 7);
        assert!(a.jobs > 0 && a.nodes > 0 && a.instructions > 0, "{a:?}");
        assert_eq!(a, one_pass(workload, 7), "{workload:?}");
    }
}

#[test]
fn workload_counts_match_their_purpose() {
    let warm = one_pass(Workload::ServeWarm, 7);
    assert_eq!((warm.misses, warm.publications), (0, 0), "{warm:?}");
    let cold = one_pass(Workload::ServeCold, 7);
    assert!(cold.misses > 0 && cold.publications > 0, "{cold:?}");
    let session = one_pass(Workload::MinicSession, 7);
    assert!(
        session.states_built > 0 && session.publications == 0,
        "{session:?}"
    );
}

#[test]
fn another_seed_gives_another_stream() {
    for workload in [Workload::ServeWarm, Workload::ServeCold] {
        assert_ne!(one_pass(workload, 7), one_pass(workload, 8), "{workload:?}");
    }
    // A session covers every (program, target) pair once per pass, so
    // its counts repeat; the seed shuffles the order.
    let suite = MinicSuite::build().expect("the MiniC suite builds");
    assert_ne!(suite.order(7, 0), suite.order(8, 0));
    assert_ne!(suite.order(7, 0), suite.order(7, 1));
}
