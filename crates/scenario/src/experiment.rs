//! The §5 measurement loop.
//!
//! "Given the number of hosts, the global number of tasks, and the length
//! of the workflow as parameters for an experiment, we configure the
//! hosts, establish connectivity within the community, and then measure
//! the time taken from when the specification is given to the initiating
//! host to the time when all tasks of the resulting workflow have been
//! successfully allocated to some host. … the results for each path length
//! are the average of one thousand runs."

use std::fmt;

use openwf_runtime::{Community, CommunityBuilder, Driver, RuntimeParams};
use openwf_simnet::{ConstantLatency, SimDuration, Wireless80211g};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::distribute::distribute_knowledge;
use crate::generator::GeneratedKnowledge;
use crate::stats::Summary;

/// Which communications substrate the experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyKind {
    /// The paper's simulated in-process network (Figures 4 and 5).
    SimulatedLan,
    /// The 802.11g ad hoc wireless model (Figure 6's substitution).
    Wireless,
}

/// Parameters of one experiment series (one curve in a figure).
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Community knowledge: number of task nodes in the supergraph.
    pub tasks: usize,
    /// Community size: number of hosts.
    pub hosts: usize,
    /// Path lengths to sweep (the x axis).
    pub path_lengths: Vec<usize>,
    /// Measured runs per path length (the paper used 1000).
    pub runs_per_point: usize,
    /// Base RNG seed; every run derives a unique sub-seed.
    pub seed: u64,
    /// Network model.
    pub latency: LatencyKind,
    /// Runtime parameters for every host.
    pub params: RuntimeParams,
}

impl ExperimentConfig {
    /// A config with the paper's defaults (construction+allocation focus:
    /// tiny service durations).
    pub fn new(tasks: usize, hosts: usize, latency: LatencyKind) -> Self {
        ExperimentConfig {
            tasks,
            hosts,
            path_lengths: (2..=22).step_by(2).collect(),
            runs_per_point: 1000,
            seed: 0x00F1_u64 + tasks as u64 * 31 + hosts as u64,
            latency,
            params: RuntimeParams::default(),
        }
    }

    /// Overrides the sweep of path lengths.
    pub fn path_lengths(mut self, lengths: impl IntoIterator<Item = usize>) -> Self {
        self.path_lengths = lengths.into_iter().collect();
        self
    }

    /// Overrides the number of runs per point.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs_per_point = runs;
        self
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One point of a measured series.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Solution path length requested.
    pub path_length: usize,
    /// Spec→allocated latency in **virtual milliseconds**.
    pub time_ms: Summary,
    /// Messages delivered per run.
    pub messages: Summary,
    /// Runs where no path of this length existed in the supergraph (the
    /// paper's "max path length" cutoffs).
    pub unsampleable: usize,
    /// Runs that failed to construct/allocate (should be 0: specs are
    /// guaranteed satisfiable).
    pub failures: usize,
}

impl fmt::Display for SeriesPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "len={:2} mean={:8.3}ms sd={:6.3} n={} fail={}",
            self.path_length,
            self.time_ms.mean,
            self.time_ms.std_dev,
            self.time_ms.n,
            self.failures
        )
    }
}

/// Runs one experiment series: for each path length, `runs_per_point`
/// independent problems on fresh communities over a shared supergraph.
///
/// Returns one [`SeriesPoint`] per path length that was sampleable at
/// least once (matching the paper's truncated series for small graphs).
pub fn run_series(config: &ExperimentConfig) -> Vec<SeriesPoint> {
    let knowledge = GeneratedKnowledge::generate(config.tasks, config.seed);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
    let mut out = Vec::new();

    for &len in &config.path_lengths {
        let mut times = Vec::with_capacity(config.runs_per_point);
        let mut messages = Vec::with_capacity(config.runs_per_point);
        let mut unsampleable = 0usize;
        let mut failures = 0usize;

        for _ in 0..config.runs_per_point {
            let Some(path) = knowledge.sample_path(len, &mut rng, 64) else {
                unsampleable += 1;
                continue;
            };
            let mut community = build_community(config, &knowledge, &mut rng);
            let initiator = community.hosts()[rng.random_range(0..config.hosts)];
            let before = community.stats().delivered;
            let handle = community.submit(initiator, path.spec.clone());
            let report = community.run_until_allocated(handle);
            match report.timings.spec_to_allocated() {
                Some(d) => {
                    times.push(d.as_millis_f64());
                    messages.push((community.stats().delivered - before) as f64);
                }
                None => failures += 1,
            }
        }

        if times.is_empty() && unsampleable >= config.runs_per_point {
            // No path of this length exists: the series ends here, like
            // the paper's "max path length for small graph" annotations.
            continue;
        }
        out.push(SeriesPoint {
            path_length: len,
            time_ms: Summary::of(&times),
            messages: Summary::of(&messages),
            unsampleable,
            failures,
        });
    }
    out
}

fn build_community(
    config: &ExperimentConfig,
    knowledge: &GeneratedKnowledge,
    rng: &mut StdRng,
) -> Community {
    let host_configs =
        distribute_knowledge(knowledge, config.hosts, SimDuration::from_millis(1), rng);
    let builder = CommunityBuilder::new(rng.random_range(0..u64::MAX))
        .params(config.params.clone())
        .hosts(host_configs);
    match config.latency {
        LatencyKind::SimulatedLan => builder.latency(ConstantLatency::default()).build(),
        LatencyKind::Wireless => builder.latency(Wireless80211g::new()).build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(tasks: usize, hosts: usize) -> ExperimentConfig {
        ExperimentConfig::new(tasks, hosts, LatencyKind::SimulatedLan)
            .path_lengths([2, 4])
            .runs(5)
            .seed(42)
    }

    #[test]
    fn series_measures_every_point_without_failures() {
        let points = run_series(&quick(25, 3));
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.failures, 0, "guaranteed-satisfiable specs: {p}");
            assert!(p.time_ms.n > 0);
            assert!(p.time_ms.mean > 0.0);
            assert!(p.messages.mean > 0.0);
        }
    }

    #[test]
    fn longer_paths_cost_more() {
        let cfg = quick(40, 2).path_lengths([2, 10]).runs(8);
        let points = run_series(&cfg);
        assert_eq!(points.len(), 2);
        assert!(
            points[1].time_ms.mean > points[0].time_ms.mean,
            "len 10 ({:.3}ms) should exceed len 2 ({:.3}ms)",
            points[1].time_ms.mean,
            points[0].time_ms.mean
        );
    }

    #[test]
    fn more_hosts_cost_more() {
        let a = run_series(&quick(30, 2).path_lengths([4]).runs(8));
        let b = run_series(&quick(30, 8).path_lengths([4]).runs(8));
        assert!(
            b[0].time_ms.mean > a[0].time_ms.mean,
            "8 hosts ({:.3}ms) should exceed 2 hosts ({:.3}ms)",
            b[0].time_ms.mean,
            a[0].time_ms.mean
        );
    }

    #[test]
    fn wireless_is_slower_than_lan() {
        let lan = run_series(&quick(30, 4).path_lengths([6]).runs(6));
        let wifi = run_series(
            &ExperimentConfig::new(30, 4, LatencyKind::Wireless)
                .path_lengths([6])
                .runs(6)
                .seed(42),
        );
        assert!(wifi[0].time_ms.mean > lan[0].time_ms.mean);
    }

    #[test]
    fn impossible_lengths_are_dropped() {
        // Only paths up to 10 exist in a 10-task graph.
        let cfg = quick(10, 2).path_lengths([2, 50]).runs(3);
        let points = run_series(&cfg);
        assert_eq!(points.len(), 1, "length-50 point must be absent");
        assert_eq!(points[0].path_length, 2);
    }
}
