//! Criterion timing for the labeling comparisons behind T3/F5: ns per
//! labeling pass of the MiniC suite for every selector.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use odburg_core::{Labeler, OfflineAutomaton, OfflineConfig, OfflineLabeler, OnDemandAutomaton};
use odburg_dp::{DpLabeler, MacroExpander};
use odburg_workloads::combined_workload;

fn bench_labelers(c: &mut Criterion) {
    let suite = combined_workload();
    let mut group = c.benchmark_group("label_suite");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    for name in ["x86ish", "riscish", "jvmish"] {
        let grammar = odburg::targets::by_name(name).expect("built-in");
        let normal = Arc::new(grammar.normalize());
        let stripped = Arc::new(
            grammar
                .without_dynamic_rules()
                .expect("fixed fallbacks")
                .normalize(),
        );
        let offline =
            Arc::new(OfflineAutomaton::build(stripped, OfflineConfig::default()).expect("builds"));

        let mut dp = DpLabeler::new(normal.clone());
        group.bench_with_input(BenchmarkId::new("dp", name), &suite, |b, w| {
            b.iter(|| dp.label_forest(&w.forest).expect("labels"))
        });

        let mut od = OnDemandAutomaton::new(normal.clone());
        od.label_forest(&suite.forest).expect("warmup");
        group.bench_with_input(BenchmarkId::new("ondemand_warm", name), &suite, |b, w| {
            b.iter(|| od.label_forest(&w.forest).expect("labels"))
        });

        let mut off = OfflineLabeler::new(offline);
        group.bench_with_input(BenchmarkId::new("offline", name), &suite, |b, w| {
            b.iter(|| off.label_forest(&w.forest).expect("labels"))
        });

        let mut mx = MacroExpander::new(normal.clone());
        group.bench_with_input(BenchmarkId::new("macro", name), &suite, |b, w| {
            b.iter(|| mx.label_forest(&w.forest).expect("labels"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_labelers);
criterion_main!(benches);
