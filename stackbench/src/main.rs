//! stackbench — the repository's end-to-end benchmark.
//!
//! ```text
//! stackbench --workload <serve-small|serve-durable|soak-city> --seed <n> \
//!            --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload in this (fresh) process against the real layers,
//! checks its outputs, and prints one JSON line last on stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run first re-runs itself untraced on the same
//! seed as a child process, to report what tracing costs. See README.md
//! for the workloads and what every metric measures.

mod inputs;
mod layers;
mod report;
mod serve;
mod soak;
mod spans;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{metric_in_line, Metrics, RunResult};
use spans::Spans;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("workflows_per_s", "1/s"),
    ("e2e_p50_ms", "ms"),
    ("e2e_p99_ms", "ms"),
    ("completed_ratio", "ratio"),
    ("ingest_lag_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("cpu_ms_per_wf", "ms"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.poll_active_ms_per_wf", "ms"),
    ("net.polls_per_wf", "count"),
    ("net.tx_frames_per_wf", "count"),
    ("net.tx_bytes_per_wf", "bytes"),
    ("net.tx_queue_depth_p99", "count"),
    ("net.drops", "count"),
    ("runtime.construct_ms_p50", "ms"),
    ("runtime.allocate_ms_p50", "ms"),
    ("runtime.execute_ms_p50", "ms"),
    ("runtime.query_rounds_per_wf", "count"),
    ("runtime.fragments_pulled_per_wf", "count"),
    ("runtime.repairs_per_wf", "count"),
    ("runtime.messages_per_wf", "count"),
    ("runtime.timer_lag_us_p99", "us"),
    ("runtime.queue_depth_p99", "count"),
    ("core.construct_us_p50", "us"),
    ("core.explore_steps_per_wf", "count"),
    ("core.merged_per_wf", "count"),
    ("wire.decode_fragment_ns", "ns"),
    ("wire.encode_fragment_ns", "ns"),
    ("wire.decode_frames_per_wf", "count"),
    ("wire.decode_cache_hit_ratio", "ratio"),
    ("storage.reopen_ms", "ms"),
    ("storage.replay_ms", "ms"),
    ("storage.replayed_records", "count"),
    ("storage.log_bytes", "bytes"),
    ("storage.garbage_ratio", "ratio"),
    ("simnet.delivered_per_s", "1/s"),
    ("simnet.delivered_per_wf", "count"),
    ("simnet.dropped", "count"),
    ("simnet.duplicated", "count"),
    ("scenario.profile_s.lossy-urban", "s"),
    ("scenario.profile_s.partition-heal", "s"),
    ("scenario.profile_s.churn-storm", "s"),
    ("scenario.profile_s.vocab-flood", "s"),
    ("scenario.profile_s.dup-delivery", "s"),
    ("scenario.ingest_late_p99_ms", "ms"),
    ("scenario.e2e_samples", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
];

const WORKLOADS: &[&str] = &["serve-small", "serve-durable", "soak-city"];

/// Everything the benchmark reads and writes lives under this directory
/// of the working directory (the checkout root).
const WORK_DIR: &str = ".stackbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad {flag} value {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace value {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (one of {WORKLOADS:?})"
            ));
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// A workload's raw outcome before it is shaped into the result line.
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed (see README per workload).
    pub failed: u64,
    /// Every output-check violation, printed to stderr.
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// The traced run's spans, to export.
    pub spans: Option<Spans>,
}

fn run_workload(args: &Args, data: &Path) -> std::io::Result<Outcome> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "serve-small" => serve::run(&serve::SERVE_SMALL, seed, seconds, data, trace),
        "serve-durable" => serve::run(&serve::SERVE_DURABLE, seed, seconds, data, trace),
        _ => Ok(soak::run(seed, seconds, trace)),
    }
}

/// Runs this workload untraced on the same seed in a child process and
/// returns its result line.
fn untraced_twin(args: &Args) -> std::io::Result<String> {
    let output = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last() {
        Some(line) if output.status.success() => Ok(line.to_string()),
        _ => Err(std::io::Error::other(format!(
            "the untraced twin run failed ({})",
            output.status
        ))),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: stackbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(WORK_DIR);
    let data = work.join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&data).and_then(|()| {
        // The soak's crash-restart profile keeps its durable logs under
        // the temp dir; keep them inside the run's own directory.
        std::env::set_var("TMPDIR", std::fs::canonicalize(&data)?);
        measure(&args, &work, &data)
    });
    let _ = std::fs::remove_dir_all(&data);
    match result {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stackbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn measure(args: &Args, work: &Path, data: &Path) -> std::io::Result<RunResult> {
    let twin = if args.trace {
        Some(untraced_twin(args)?)
    } else {
        None
    };
    let meter = report::Meter::start();
    let outcome = run_workload(args, data)?;
    eprintln!(
        "stackbench: {} seed {}: {:.1}% of the machine's CPU time was stolen by the hypervisor",
        args.workload,
        args.seed,
        100.0 * meter.read().0
    );
    for v in outcome.violations.iter().take(20) {
        eprintln!("stackbench: check failed: {v}");
    }
    let mut metrics = outcome.metrics;
    let mut correct = outcome.violations.is_empty();
    let mut result = Metrics::default();
    if let (Some(spans), Some(twin)) = (&outcome.spans, &twin) {
        let path = work.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match spans.export(&path) {
            Ok(n) => eprintln!("stackbench: {n} spans written to {}", path.display()),
            Err(e) => {
                eprintln!("stackbench: {e}");
                correct = false;
            }
        }
        let traced = metrics.get("workflows_per_s").unwrap_or(0.0);
        let untraced = metric_in_line(twin, "workflows_per_s").unwrap_or(0.0);
        metrics.put(
            "obs.trace_overhead_ratio",
            report::per(untraced, traced),
            "ratio",
        );
        for (name, unit) in PER_LAYER {
            result.put(*name, metrics.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = metrics.get(name);
            if value.is_none_or(|v| !v.is_finite() || v <= 0.0) {
                eprintln!("stackbench: end-to-end metric {name} was not measured");
                correct = false;
            }
            result.put(*name, value.unwrap_or(0.0), unit);
        }
    }
    Ok(RunResult {
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units this binary prints are the ones
    /// BENCHMARK.json declares, and every workload it accepts is listed.
    #[test]
    fn metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let ok = parse("--workload soak-city --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3, true));
        assert!(parse("--workload nope --seed 7 --seconds 3 --trace 1").is_err());
        assert!(parse("--workload soak-city --seed 7 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload soak-city --seed 7 --seconds 3 --trace 2").is_err());
        assert!(parse("--workload soak-city --seconds 3 --trace 0").is_err());
    }
}
