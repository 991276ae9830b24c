//! The telemetry subsystem's contracts, cross-crate: histogram
//! merge/count preservation and the quantile error bound as properties
//! over random samples, flight-recorder overflow accounting, and the
//! registry conservation law of a live [`SelectorServer`], checked
//! against the jobs the test itself submitted.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use odburg::prelude::*;
use odburg::select::telemetry::{bucket_bounds, bucket_index};
use odburg::service::{JobOptions, SelectorServer, ServerConfig};

/// Draws a sample set that exercises every histogram regime: exact
/// sub-bucket values, mid-range, and the wide octaves.
fn sample_values(rng: &mut StdRng) -> Vec<u64> {
    let len = rng.gen_range(1..200usize);
    (0..len)
        .map(|_| {
            let magnitude = rng.gen_range(0..60u32);
            rng.gen_range(0..2u64 << magnitude)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Splitting a sample set across two histograms and merging them
    /// must reproduce the single-histogram recording exactly: same
    /// buckets, count, sum, and max. This is the property that makes
    /// per-worker recording + snapshot-time merging sound.
    #[test]
    fn histogram_merge_preserves_everything(seed in 0u64..(1u64 << 48)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = sample_values(&mut rng);

        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { left.record(v) } else { right.record(v) }
        }
        left.merge(&right);

        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.count(), values.len() as u64);
        prop_assert_eq!(left.sum(), whole.sum());
        prop_assert_eq!(left.max(), whole.max());
        prop_assert_eq!(left.nonzero_buckets(), whole.nonzero_buckets());
    }

    /// Histogram quantiles track the exact order statistic to within
    /// the width of the bucket containing it (≤ 1/64 relative above
    /// the direct-indexed range), and the max is exact.
    #[test]
    fn quantile_error_is_bounded_by_bucket_width(seed in 0u64..(1u64 << 48)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = sample_values(&mut rng);

        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();

        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let rank = (q * (sorted.len() - 1) as f64).round() as usize;
            let exact = sorted[rank];
            let estimate = h.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            let width = hi - lo;
            prop_assert!(
                estimate.abs_diff(exact) <= width,
                "q={} estimate {} vs exact {} (bucket width {})",
                q, estimate, exact, width
            );
        }
        prop_assert_eq!(h.max(), sorted[sorted.len() - 1]);
    }

    /// The atomic histogram's snapshot agrees with a plain histogram
    /// fed the same values — the lock-free path loses nothing.
    #[test]
    fn atomic_histogram_snapshot_is_lossless(seed in 0u64..(1u64 << 48)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = sample_values(&mut rng);

        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for &v in &values {
            atomic.record(v);
            plain.record(v);
        }
        let snap = atomic.snapshot();
        prop_assert_eq!(snap.count(), plain.count());
        prop_assert_eq!(snap.sum(), plain.sum());
        prop_assert_eq!(snap.max(), plain.max());
        prop_assert_eq!(snap.nonzero_buckets(), plain.nonzero_buckets());
    }
}

/// Regression: overflowing a bounded ring must drop the *oldest*
/// events, count every drop, and never tear an event — each retained
/// entry is exactly one of the written ones, in timestamp order.
#[test]
fn recorder_overflow_drops_oldest_and_counts() {
    const CAPACITY: usize = 8;
    const WRITES: u64 = 100;

    let recorder = FlightRecorder::new(2, CAPACITY);
    for i in 0..WRITES {
        recorder.record(
            0,
            Event {
                ts_ns: i,
                kind: EventKind::Admit,
                target: (i % 3) as u32,
                ticket: i,
                arg: i * 7,
            },
        );
    }

    assert_eq!(recorder.dropped(), WRITES - CAPACITY as u64);
    let events: Vec<Event> = recorder.events().into_iter().map(|(_, e)| e).collect();
    assert_eq!(events.len(), CAPACITY);
    for (offset, event) in events.iter().enumerate() {
        // The survivors are the newest CAPACITY writes, un-torn: every
        // field still satisfies the relations the writer established.
        let i = WRITES - CAPACITY as u64 + offset as u64;
        assert_eq!(event.ts_ns, i);
        assert_eq!(event.ticket, i);
        assert_eq!(event.arg, i * 7);
        assert_eq!(event.target, (i % 3) as u32);
    }
}

/// Concurrent writers on distinct lanes never interfere: each lane
/// retains its own newest events and the drop counter accounts for
/// every overflow across lanes.
#[test]
fn recorder_lanes_are_independent_under_concurrency() {
    const LANES: usize = 4;
    const CAPACITY: usize = 16;
    const WRITES_PER_LANE: u64 = 64;

    let recorder = Arc::new(FlightRecorder::new(LANES, CAPACITY));
    std::thread::scope(|scope| {
        for lane in 0..LANES {
            let recorder = Arc::clone(&recorder);
            scope.spawn(move || {
                for i in 0..WRITES_PER_LANE {
                    recorder.record(
                        lane,
                        Event {
                            ts_ns: i,
                            kind: EventKind::Pop,
                            target: lane as u32,
                            ticket: i,
                            arg: lane as u64 * 1_000 + i,
                        },
                    );
                }
            });
        }
    });

    assert_eq!(
        recorder.dropped(),
        LANES as u64 * (WRITES_PER_LANE - CAPACITY as u64)
    );
    let events = recorder.events();
    assert_eq!(events.len(), LANES * CAPACITY);
    for (lane, event) in events {
        assert_eq!(event.target, lane as u32);
        assert_eq!(event.arg, lane as u64 * 1_000 + event.ticket);
        assert!(event.ticket >= WRITES_PER_LANE - CAPACITY as u64);
    }
}

/// The conservation law recomputed purely from the metrics registry of
/// a live server: submitted == accepted + rejected + shed, and the
/// registry's totals equal the jobs the test submitted. The flight
/// recorder must also have seen the core's `EpochPublish`
/// events, proving the shared-core hook is attached.
#[test]
fn live_server_registry_conserves_and_records_epochs() {
    const JOBS: usize = 40;

    let grammar = Arc::new(common::random_grammar(0xBEEF).normalize());
    let server = SelectorServer::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    server
        .register_normal("telemetry-target", Arc::clone(&grammar))
        .expect("fresh registry");

    let mut sampler = odburg::workloads::TreeSampler::new(&grammar, 0xF00D);
    let mut handles = Vec::new();
    for _ in 0..JOBS {
        let mut forest = Forest::new();
        let root = sampler.sample_tree(&mut forest);
        forest.add_root(root);
        handles.push(
            server
                .try_submit_with("telemetry-target", forest, JobOptions::default())
                .expect("uncapped queue accepts"),
        );
    }
    for handle in handles {
        let done = handle.wait();
        assert!(done.outcome.is_ok(), "sampled trees label");
    }

    let telemetry = Arc::clone(server.telemetry());
    server.shutdown();

    let totals = telemetry.totals();
    assert!(totals.conserved(), "registry conservation: {totals:?}");
    assert_eq!(totals.submitted, JOBS as u64);
    assert_eq!(totals.accepted, JOBS as u64);
    assert_eq!(totals.completed, JOBS as u64);

    let metrics = telemetry.target("telemetry-target");
    assert_eq!(metrics.queue_wait.count(), JOBS as u64);
    assert_eq!(metrics.labeling.count(), JOBS as u64);
    assert!(metrics.labeling.snapshot().sum() > 0);

    let events = telemetry.recorder().events();
    let publishes = events
        .iter()
        .filter(|(_, e)| e.kind == EventKind::EpochPublish)
        .count();
    assert!(
        publishes > 0,
        "the shared core must report its snapshot publishes through the recorder"
    );
    let admits = events
        .iter()
        .filter(|(_, e)| e.kind == EventKind::Admit)
        .count();
    assert_eq!(admits, JOBS, "every accepted job leaves an Admit event");
    for (_, e) in &events {
        if e.kind == EventKind::Admit || e.kind == EventKind::Complete {
            assert_ne!(
                e.ticket,
                Event::NO_TICKET,
                "{:?} must carry a ticket",
                e.kind
            );
        }
    }

    // And the exporters stay well-formed on a real run's registry.
    let mut jsonl = Vec::new();
    write_jsonl(&mut jsonl, &telemetry).expect("jsonl export");
    let jsonl = String::from_utf8(jsonl).expect("utf8");
    assert!(jsonl.lines().count() > 1 + JOBS);
    let mut trace = Vec::new();
    write_chrome_trace(&mut trace, &telemetry).expect("trace export");
    let trace = String::from_utf8(trace).expect("utf8");
    assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));

    // No quiet data loss in this small run.
    assert_eq!(telemetry.recorder().dropped(), 0);
}
