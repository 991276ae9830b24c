//! Thread-scaling of the concurrent labeling core: warmed-automaton
//! labeling throughput of the snapshot-based [`SharedOnDemand`] at
//! 1/2/4/8 threads.
//!
//! Each measured iteration is one *parallel round*: every thread labels
//! the whole warm workload once, so the per-iteration element count is
//! `threads × nodes` and the reported throughput is aggregate labeled
//! nodes per second. The acceptance bar for the snapshot core is ≥2×
//! aggregate throughput at 4 threads vs 1 thread.
//!
//! Results are also written to `target/criterion-results.json` (see the
//! criterion shim) for the perf trajectory.
//!
//! Note on hardware: aggregate throughput can only rise with thread
//! count when more than one CPU is available; on a single-core runner
//! every thread count flatlines at the 1-thread rate, and the scaling
//! column needs multi-core hardware to mean anything.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use odburg_core::{OnDemandAutomaton, SharedOnDemand};
use odburg_ir::Forest;
use odburg_workloads::{combined_workload, random_workload, replicate};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn warm_workload() -> (Arc<odburg_grammar::NormalGrammar>, Forest) {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    // The MiniC suite plus random trees: realistic op mix, and large
    // enough that one round dominates thread start-up cost.
    let mut forest = replicate(&combined_workload().forest, 4);
    forest.append(&random_workload(&normal, 0x7A, 400).forest);
    (normal, forest)
}

/// One parallel round: `threads` workers each label `forest` `iters`
/// times; returns the wall time of the whole round.
fn parallel_round(threads: usize, iters: u64, label: &(dyn Fn() + Sync)) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                for _ in 0..iters {
                    label();
                }
            });
        }
    });
    start.elapsed()
}

fn bench_thread_scaling(c: &mut Criterion) {
    let (normal, forest) = warm_workload();

    let mut group = c.benchmark_group("thread_scaling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(900));

    for &threads in &THREADS {
        group.throughput(Throughput::Elements((forest.len() * threads) as u64));

        let snapshot = SharedOnDemand::new(OnDemandAutomaton::new(normal.clone()));
        snapshot.label_forest(&forest).expect("warmup");
        group.bench_with_input(
            BenchmarkId::new("snapshot", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    parallel_round(threads, iters, &|| {
                        criterion::black_box(snapshot.label_forest(&forest).expect("labels"));
                    })
                })
            },
        );
    }
    group.finish();

    // Scaling summary: aggregate nodes/sec per thread count, and the
    // speedup over one thread (the ≥2x-at-4-threads criterion).
    let tput = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.group == "thread_scaling" && r.id == id)
            .and_then(|r| r.throughput_per_sec)
            .unwrap_or(0.0)
    };
    println!("\nthread-scaling summary (aggregate labeled nodes/sec):");
    println!("{:>8} {:>16} {:>12}", "threads", "snapshot", "vs 1-thread");
    let base = tput("snapshot/1");
    for &t in &THREADS {
        let s = tput(&format!("snapshot/{t}"));
        println!("{t:>8} {s:>16.3e} {:>11.2}x", s / base);
    }
}

criterion_group!(benches, bench_thread_scaling);
criterion_main!(benches);
