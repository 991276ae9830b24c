//! Mixed multi-target traffic for the selection service.
//!
//! The single-grammar workloads in [`suite`](crate::suite) model one
//! compiler session; a JIT *service* sees something messier — requests
//! for many targets interleaved, with wildly varying forest shapes and
//! sizes. [`mixed_traffic`] generates that stream deterministically:
//! each job picks a target uniformly at random, then samples a small
//! forest from that target's own grammar (so every job is guaranteed
//! labelable), with per-job tree counts and depths drawn from the same
//! seeded RNG. The same seed always produces the same job sequence,
//! which is what lets `tests/server.rs` and perfbench's `serve_warm`
//! train warm tables on exactly the traffic they then serve.

use std::time::Duration;

use odburg_grammar::NormalGrammar;
use odburg_ir::Forest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sampler::{SamplerConfig, TreeSampler};

/// One job of a mixed-traffic stream: a target name plus the forest to
/// label against it.
#[derive(Debug, Clone)]
pub struct TrafficJob {
    /// The target the job is addressed to.
    pub target: String,
    /// The forest to label.
    pub forest: Forest,
}

/// Generates `jobs` deterministic mixed-target jobs from `targets`
/// (name, normalized grammar) pairs. Tree counts (1–6 per job) and
/// sampling depths vary per job; payloads are randomized by the sampler
/// to exercise dynamic-cost rules.
///
/// # Panics
///
/// Panics if `targets` is empty.
pub fn mixed_traffic(
    targets: &[(&str, &NormalGrammar)],
    seed: u64,
    jobs: usize,
) -> Vec<TrafficJob> {
    assert!(
        !targets.is_empty(),
        "mixed traffic needs at least one target"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6D69_7865_6474_7266); // "mixedtrf"
    (0..jobs)
        .map(|_| {
            let (name, grammar) = targets[rng.gen_range(0..targets.len())];
            let trees = rng.gen_range(1..7usize);
            let config = SamplerConfig {
                max_depth: rng.gen_range(4..12usize),
                symbol_pool: 16,
            };
            let job_seed = rng.gen_range(0..u64::MAX);
            let mut sampler = TreeSampler::with_config(grammar, job_seed, config);
            TrafficJob {
                target: name.to_owned(),
                forest: sampler.sample_forest(trees),
            }
        })
        .collect()
}

/// [`mixed_traffic`] over every built-in target
/// ([`odburg_targets::all`]): the manifest the cluster smoke test, the
/// `serve` CLI examples, and the differential suites share, so "the
/// mixed-traffic workload" means the same job stream everywhere.
pub fn builtin_traffic(seed: u64, jobs: usize) -> Vec<TrafficJob> {
    let grammars: Vec<(String, NormalGrammar)> = odburg_targets::all()
        .iter()
        .map(|g| (g.name().to_owned(), g.normalize()))
        .collect();
    let targets: Vec<(&str, &NormalGrammar)> = grammars
        .iter()
        .map(|(name, normal)| (name.as_str(), normal))
        .collect();
    mixed_traffic(&targets, seed, jobs)
}

/// One job of an open-loop arrival-paced stream: the offset from the
/// stream's start at which the job "arrives", plus the job itself.
#[derive(Debug, Clone)]
pub struct PacedJob {
    /// Arrival time, relative to the first submission.
    pub at: Duration,
    /// The traffic job to submit at that instant.
    pub job: TrafficJob,
}

/// Generates `jobs` deterministic mixed-target jobs with **open-loop**
/// arrival times: inter-arrival gaps are sampled from an exponential
/// distribution with the given mean (a Poisson arrival process — the
/// canonical open-loop load model, where arrivals do not wait for
/// completions), capped at `10 × mean_gap` so a single long gap cannot
/// stall a replay. The job sequence is exactly
/// [`mixed_traffic`]`(targets, seed, jobs)`; the same seed always
/// produces the same jobs *and* the same schedule, which is what lets
/// the `serve_latency` bench compare runs.
///
/// # Panics
///
/// Panics if `targets` is empty.
pub fn paced_traffic(
    targets: &[(&str, &NormalGrammar)],
    seed: u64,
    jobs: usize,
    mean_gap: Duration,
) -> Vec<PacedJob> {
    let stream = mixed_traffic(targets, seed, jobs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_6365_6474_7266); // "pacedtrf"
    let mean = mean_gap.as_secs_f64();
    let mut at = Duration::ZERO;
    stream
        .into_iter()
        .map(|job| {
            // Inverse-transform sampling; 1 - u keeps the argument of
            // ln strictly positive for u in [0, 1).
            let u: f64 = rng.gen_range(0.0..1.0);
            let gap = (-mean * (1.0 - u).ln()).min(mean * 10.0);
            at += Duration::from_secs_f64(gap);
            PacedJob { at, job }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_core::Labeler;

    fn grammars() -> Vec<(String, NormalGrammar)> {
        odburg_targets::all()
            .into_iter()
            .map(|g| (g.name().to_owned(), g.normalize()))
            .collect()
    }

    #[test]
    fn traffic_is_deterministic_and_covers_all_targets() {
        let gs = grammars();
        let refs: Vec<(&str, &NormalGrammar)> = gs.iter().map(|(n, g)| (n.as_str(), g)).collect();
        let a = mixed_traffic(&refs, 0xC0FFEE, 96);
        let b = mixed_traffic(&refs, 0xC0FFEE, 96);
        assert_eq!(a.len(), 96);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.forest.len(), y.forest.len());
        }
        for (name, _) in &refs {
            assert!(
                a.iter().any(|j| j.target == *name),
                "96 jobs over 6 targets must hit `{name}`"
            );
        }
        let c = mixed_traffic(&refs, 0xDECAF, 96);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.forest.len() != y.forest.len()),
            "different seeds must produce different traffic"
        );
    }

    #[test]
    fn paced_traffic_is_deterministic_monotonic_and_open_loop() {
        let gs = grammars();
        let refs: Vec<(&str, &NormalGrammar)> = gs.iter().map(|(n, g)| (n.as_str(), g)).collect();
        let mean = Duration::from_micros(500);
        let a = paced_traffic(&refs, 0xC0FFEE, 64, mean);
        let b = paced_traffic(&refs, 0xC0FFEE, 64, mean);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at, "same seed, same schedule");
            assert_eq!(x.job.target, y.job.target);
            assert_eq!(x.job.forest.len(), y.job.forest.len());
        }
        // Arrival times are non-decreasing, gaps are bounded, and the
        // job sequence is exactly the mixed_traffic stream.
        let mut last = Duration::ZERO;
        for p in &a {
            assert!(p.at >= last);
            assert!(p.at - last <= mean * 10 + Duration::from_nanos(1));
            last = p.at;
        }
        let plain = mixed_traffic(&refs, 0xC0FFEE, 64);
        for (p, j) in a.iter().zip(&plain) {
            assert_eq!(p.job.target, j.target);
            assert_eq!(p.job.forest.len(), j.forest.len());
        }
        // The schedule averages out near the requested mean (loose 4x
        // band: 64 exponential samples are noisy).
        let total = a.last().unwrap().at;
        assert!(total >= mean * 64 / 4, "{total:?} too bunched");
        assert!(total <= mean * 64 * 4, "{total:?} too sparse");
        // Different seeds, different schedule.
        let c = paced_traffic(&refs, 0xDECAF, 64, mean);
        assert!(a.iter().zip(&c).any(|(x, y)| x.at != y.at));
    }

    #[test]
    fn every_traffic_job_is_labelable() {
        let gs = grammars();
        let refs: Vec<(&str, &NormalGrammar)> = gs.iter().map(|(n, g)| (n.as_str(), g)).collect();
        for job in mixed_traffic(&refs, 7, 48) {
            let normal = gs
                .iter()
                .find(|(n, _)| *n == job.target)
                .map(|(_, g)| g.clone())
                .unwrap();
            let mut dp = odburg_dp::DpLabeler::new(std::sync::Arc::new(normal));
            dp.label_forest(&job.forest)
                .unwrap_or_else(|e| panic!("{}: {e}", job.target));
            assert!(!job.forest.is_empty());
        }
    }
}
