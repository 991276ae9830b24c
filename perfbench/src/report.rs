//! Metrics: the end-to-end set every run reports, the per-layer set a
//! traced run reports, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

use crate::replay::Replayed;
use crate::trace::Layer;
use crate::{Outcome, Params, Workload};

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

/// The `q`-quantile of `samples` (nearest rank), zero when empty.
pub fn quantile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `part / whole`, zero when `whole` is zero.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// IR nodes selected per second. In the open loop that is the window's
/// goodput. A closed loop always has `in_flight` jobs in the system, so
/// by Little's law a pass lasts the sum of its jobs' latencies divided by
/// `in_flight`; summed over each job's fastest latency, that is a pass
/// the host did not disturb.
fn nodes_per_s(out: &Outcome, params: &Params) -> f64 {
    if params.workload == Workload::ServeWarm {
        let nodes: u64 = out.segments.iter().map(|s| s.nodes).sum();
        let window: Duration = out.segments.iter().map(|s| s.window).sum();
        return ratio(nodes as f64, window.as_secs_f64());
    }
    let (time, nodes) = out
        .fastest()
        .fold((Duration::ZERO, 0), |(t, n), (d, k)| (t + d, n + k));
    params.in_flight as f64 * ratio(nodes as f64, time.as_secs_f64())
}

/// The end-to-end metrics of an untraced run. Set-up time is the median
/// set-up (they are spread over the run, before and after the window).
/// Every workload repeats a fixed pass of distinct jobs many times, and
/// a job's latency is its fastest completion: a preemption or a slow
/// spell of the host that hits some of its repetitions does not count,
/// while a cost the program pays on every repetition does. The latency
/// quantiles are taken over the distinct jobs. (Of a job's fastest,
/// lower-quartile and median completion, the fastest varied least from
/// run to run on a shared 2-vCPU VM.)
pub fn end_to_end(out: &Outcome, params: &Params) -> Vec<Metric> {
    let fastest: Vec<Duration> = out.fastest().map(|(d, _)| d).collect();
    vec![
        metric("setup_s", quantile(&out.setups, 0.5).as_secs_f64(), "s"),
        metric("latency_p50_us", us(quantile(&fastest, 0.50)), "us"),
        metric("latency_p99_us", us(quantile(&fastest, 0.99)), "us"),
        metric("nodes_per_s", nodes_per_s(out, params), "1/s"),
        metric(
            "ok_ratio",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        metric("table_bytes", out.counts.table_bytes as f64, "bytes"),
    ]
}

/// Each layer's share (`share.<layer>`) of the summed job time of a
/// traced run. Labeling time the server reports as one duration is split
/// into warm probe, grow and publish in the proportions the replay
/// measured.
pub fn shares(out: &Outcome, replayed: &Replayed) -> Vec<(&'static str, f64)> {
    let Some(trace) = &out.trace else {
        return Vec::new();
    };
    let st = trace.self_times();
    let secs = |l: Layer| st.total(l).as_secs_f64();
    let publish: f64 = replayed.publishes.iter().map(Duration::as_secs_f64).sum();
    let (hit, miss) = (
        replayed.label_hit.as_secs_f64(),
        replayed.label_miss.as_secs_f64(),
    );
    let replayed_label = hit + miss + publish;
    let label = secs(Layer::Label);
    let (warm_part, grow_part, publish_part) = if replayed_label > 0.0 {
        (
            label * hit / replayed_label,
            label * miss / replayed_label,
            label * publish / replayed_label,
        )
    } else {
        (label, 0.0, 0.0)
    };
    let job = secs(Layer::Job);
    vec![
        ("share.client", st.own(Layer::Job).as_secs_f64()),
        ("share.intake", secs(Layer::Intake)),
        ("share.frontend", secs(Layer::Frontend)),
        (
            "share.service",
            secs(Layer::Submit) + st.own(Layer::Wait).as_secs_f64() + secs(Layer::Queue),
        ),
        ("share.label", warm_part),
        ("share.grow", grow_part + secs(Layer::Grow)),
        ("share.publish", publish_part),
        ("share.reduce", secs(Layer::Reduce)),
    ]
    .into_iter()
    .map(|(name, t)| (name, ratio(t, job)))
    .collect()
}

/// The per-layer metrics of a traced run. `untraced_p50` is the
/// untraced run's median latency (for the tracing overhead) and
/// `offline` the (on-demand, offline) ns per node of the MiniC replay.
pub fn per_layer(
    out: &Outcome,
    replayed: &Replayed,
    untraced_p50: Duration,
    offline: (f64, f64),
) -> Vec<Metric> {
    let trace = out.trace.as_ref().expect("a traced run records spans");
    let st = trace.self_times();
    let nodes = out.counts.nodes as f64;
    let per_node = |l: Layer| ratio(st.total(l).as_nanos() as f64, nodes);
    let p50_us = |l: Layer| us(quantile(&trace.durations(l), 0.5));
    let c = &out.counts;
    let grow_ns_per_miss = if replayed.misses > 0 {
        ratio(
            replayed.label_miss.as_nanos() as f64,
            replayed.misses as f64,
        )
    } else {
        ratio(st.total(Layer::Grow).as_nanos() as f64, c.misses as f64)
    };
    let publish: Duration = replayed.publishes.iter().sum();
    let replayed_label = replayed.label_hit + replayed.label_miss + publish;
    let mut m = vec![
        metric("intake.parse_ns_per_node", per_node(Layer::Intake), "ns"),
        metric(
            "frontend.compile_ns_per_node",
            per_node(Layer::Frontend),
            "ns",
        ),
        metric("service.submit_us", p50_us(Layer::Submit), "us"),
        metric("service.queued_us_p50", p50_us(Layer::Queue), "us"),
        metric("service.turnaround_us_p50", p50_us(Layer::Wait), "us"),
        metric(
            "service.generator_lag_us_p99",
            us(quantile(&out.lags, 0.99)),
            "us",
        ),
        metric(
            "label.ns_per_node",
            per_node(Layer::Label) + per_node(Layer::Grow),
            "ns",
        ),
        metric("label.od_ns_per_node", offline.0, "ns"),
        metric("label.offline_ns_per_node", offline.1, "ns"),
        metric(
            "label.od_over_offline",
            ratio(offline.0, offline.1),
            "ratio",
        ),
        metric("warm.ns_per_node", replayed.warm_ns_per_node, "ns"),
        metric(
            "warm.hit_ratio",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
            "ratio",
        ),
        metric("grow.misses", c.misses as f64, "count"),
        metric("grow.states_built", c.states_built as f64, "count"),
        metric("grow.ns_per_miss", grow_ns_per_miss, "ns"),
        metric("publish.count", c.publications as f64, "count"),
        metric(
            "publish.us_p50",
            us(quantile(&replayed.publishes, 0.5)),
            "us",
        ),
        metric(
            "publish.us_p99",
            us(quantile(&replayed.publishes, 0.99)),
            "us",
        ),
        metric(
            "publish.share",
            ratio(publish.as_secs_f64(), replayed_label.as_secs_f64()),
            "ratio",
        ),
        metric("reduce.ns_per_node", per_node(Layer::Reduce), "ns"),
        metric(
            "reduce.instructions_per_node",
            ratio(c.instructions as f64, nodes),
            "ratio",
        ),
        metric("persist.import_ms", ms(replayed.import), "ms"),
        metric("persist.export_ms", ms(replayed.export), "ms"),
        metric("persist.bytes", replayed.bytes as f64, "bytes"),
        metric("setup.register_ms", ms(quantile(&out.registers, 0.5)), "ms"),
    ];
    for (name, share) in shares(out, replayed) {
        m.push(metric(name, share, "ratio"));
    }
    m.push(metric(
        "trace.overhead_p50_us",
        us(quantile(&out.latencies(), 0.5)) - us(untraced_p50),
        "us",
    ));
    m.push(metric("trace.spans", trace.spans.len() as f64, "count"));
    m
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
