//! The result line and the small statistics it is built from.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in the order they are reported.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (problems submitted).
    pub attempted: u64,
    /// Operations that failed unexpectedly (see the README per workload).
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric that could not be
            // computed reads 0 and the run is already marked incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank quantile (`q` in 0..=1) of `values`, which it sorts.
/// Empty input reads 0.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (nearest rank), sorting them.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, reading 0 when nothing was completed.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Machine-wide CPU time so far and the part of it the hypervisor
/// stole (`/proc/stat`, in ticks): how much a run was slowed by other
/// tenants of the box.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// CPU seconds this process has run so far, all threads, user and
/// system (`/proc/self/stat`, in 10 ms ticks). Time the hypervisor
/// stole from it is not in it.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum::<f64>()
        / 100.0
}

/// Measures the share of the machine's CPU time the hypervisor stole,
/// and this process's CPU time, from its creation on.
#[derive(Clone, Copy, Debug)]
pub struct Meter {
    ticks: (u64, u64),
    cpu_s: f64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            ticks: cpu_ticks(),
            cpu_s: process_cpu_s(),
        }
    }

    /// `(steal share, process CPU seconds)` since [`Meter::start`].
    pub fn read(&self) -> (f64, f64) {
        let (total, steal) = cpu_ticks();
        (
            per((steal - self.ticks.1) as f64, (total - self.ticks.0) as f64),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// Reads one metric's value out of a result line printed by
/// [`RunResult::to_json`].
pub fn metric_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_round_trips_a_metric() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            ..RunResult::default()
        };
        r.metrics.put("setup_s", 0.25, "s");
        r.metrics.put("workflows_per_s", 100.5, "1/s");
        let line = r.to_json();
        assert!(openwf_obs::validate_json(&line).is_ok(), "{line}");
        assert_eq!(metric_in_line(&line, "workflows_per_s"), Some(100.5));
        assert_eq!(metric_in_line(&line, "setup_s"), Some(0.25));
    }
}
