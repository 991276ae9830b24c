//! Shared plumbing for the table/figure binaries in `src/bin/`.
//!
//! Every `table*`/`figure*`/`ablation*` binary regenerates the table or
//! figure of the reproduced evaluation it is named after; the smoke
//! binaries (`serve_latency`, `table_pressure`, `cluster_smoke`) assert
//! their own invariants. Run them with `--release`; the Criterion
//! benches under `benches/` provide statistically solid timings for the
//! same quantities.

use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg_core::telemetry::Histogram;
use odburg_core::{Labeler, OnDemandAutomaton, OnDemandConfig};
use odburg_grammar::NormalGrammar;
use odburg_ir::Forest;

/// The shared quantile helper every bench bin routes through, backed by
/// the telemetry histogram (`odburg_core::telemetry::Histogram`):
/// log-linear buckets with interpolated nearest-rank quantiles, within
/// one sub-bucket width (~1.6% relative) of the exact order statistic.
pub fn quantile(samples: &[Duration], q: f64) -> Duration {
    Histogram::from_durations(samples).quantile_duration(q)
}

/// [`quantile`] in integer microseconds (`serve_latency`'s JSON unit).
pub fn quantile_us(samples: &[Duration], q: f64) -> u128 {
    quantile(samples, q).as_micros()
}

/// Median wall-clock time of `reps` runs of `f` (with one warmup run).
pub fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    let times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    quantile(&times, 0.5)
}

/// Nanoseconds per node for labeling `forest` with `labeler`, median of
/// `reps`.
pub fn ns_per_node<L: Labeler>(labeler: &mut L, forest: &Forest, reps: usize) -> f64 {
    let t = median_time(reps, || {
        labeler
            .label_forest(forest)
            .expect("benchmark workloads must label");
    });
    t.as_nanos() as f64 / forest.len() as f64
}

/// Work units per node accumulated by one labeling pass.
pub fn work_per_node<L: Labeler>(labeler: &mut L, forest: &Forest) -> f64 {
    labeler.reset_counters();
    labeler
        .label_forest(forest)
        .expect("benchmark workloads must label");
    labeler.counters().work_per_node()
}

/// A warm on-demand automaton: `warmup` labeled once already.
pub fn warm_ondemand(
    grammar: Arc<NormalGrammar>,
    config: OnDemandConfig,
    warmup: &Forest,
) -> OnDemandAutomaton {
    let mut od = OnDemandAutomaton::with_config(grammar, config);
    od.label_forest(warmup).expect("warmup labels");
    od.reset_counters();
    od
}

/// Prints a row of right-aligned cells under the given widths.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (i, cell) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{:<width$}", cell, width = widths[0]));
        } else {
            line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
        }
    }
    println!("{line}");
}

/// Prints a rule line matching the widths.
pub fn rule_line(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}
