//! soak-city: the simulator soak (`openwf_scenario::run_soak`), all five
//! chaos profiles over a ~1000-host districted city, swept until the
//! measured time is spent.

use std::time::{Duration, Instant};

use openwf_obs::{MetricsRegistry, Obs, TraceSink};
use openwf_scenario::{run_soak, run_soak_observed, ChaosProfile, GeneratedKnowledge, SoakConfig};

use crate::inputs::derive;
use crate::layers;
use crate::report::{median, per, Meter, Metrics};
use crate::spans::Spans;
use crate::Outcome;

/// Districts per profile: ~1000 hosts in 10-host districts.
const DISTRICTS: usize = 100;
const WAVES: usize = 10;
const PROBLEMS_PER_WAVE: usize = 2;
/// Sweeps every run makes at least, so each profile has calls to choose
/// from.
const MIN_SWEEPS: u32 = 2;

/// One `run_soak` call: the machine's steal share during it, its wall
/// time and this process's CPU time.
#[derive(Clone)]
struct Call {
    steal: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// The soak's set-up for one profile: a `run_soak` call on the measured
/// configuration with one wave of no problems. The call assembles the
/// city exactly as a measured call does (know-how generated and split
/// over the hosts, vocab-flood's flooders and caps, churn-storm's
/// durable hosts opening their logs, the hosts built over one simulator
/// and split into districts). It then drains the soak's horizon of
/// virtual time with nothing to send, which still applies the profile's
/// fault schedule: partition-heal's cut of the 1,000-host city into 200
/// groups is about 40% of the figure. Returns its wall time.
fn set_up(config: &SoakConfig) -> f64 {
    let t = Instant::now();
    run_soak(&SoakConfig {
        waves: 1,
        problems_per_wave: 0,
        ..config.clone()
    });
    t.elapsed().as_secs_f64()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let spans = trace.then(|| Spans::new(Instant::now()));
    let soaks: Vec<SoakConfig> = ChaosProfile::all()
        .into_iter()
        .enumerate()
        .map(|(i, profile)| SoakConfig {
            waves: WAVES,
            problems_per_wave: PROBLEMS_PER_WAVE,
            ..SoakConfig::new(profile, DISTRICTS, derive(seed, 100 + i as u64))
        })
        .collect();
    let obs = if trace {
        Obs {
            metrics: MetricsRegistry::new(),
            trace: TraceSink::disabled(),
        }
    } else {
        Obs::disabled()
    };

    let mut violations = Vec::new();
    let (mut attempted, mut completed, mut sweeps) = (0u64, 0u64, 0u32);
    // Per profile: every call, and the problems and completions of one
    // call (the same every sweep: a soak's outcome is a pure function of
    // its configuration).
    let mut calls: Vec<Vec<Call>> = vec![Vec::new(); soaks.len()];
    let mut problems = vec![0u64; soaks.len()];
    let mut completions = vec![0u64; soaks.len()];
    // Per profile: its set-up times, one before each of its calls and
    // one after the last sweep, so they sample the machine's speed over
    // the whole run as the calls do.
    let mut set_ups: Vec<Vec<f64>> = vec![Vec::new(); soaks.len()];
    let start = Instant::now();
    while sweeps < MIN_SWEEPS || start.elapsed() < Duration::from_secs(seconds) {
        sweeps += 1;
        for (i, config) in soaks.iter().enumerate() {
            set_ups[i].push(set_up(config));
            let meter = Meter::start();
            let t = Instant::now();
            let outcome = if obs.is_enabled() {
                run_soak_observed(config, &obs)
            } else {
                run_soak(config)
            };
            let end = Instant::now();
            let wall = end - t;
            let (steal, cpu_s) = meter.read();
            if let Some(spans) = &spans {
                spans.span(
                    config.profile.name(),
                    0,
                    0,
                    t,
                    end,
                    format!("sweep {sweeps}"),
                );
            }
            calls[i].push(Call {
                steal,
                wall_s: wall.as_secs_f64(),
                cpu_s,
            });
            problems[i] = outcome.problems as u64;
            completions[i] = outcome.completed as u64;
            attempted += outcome.problems as u64;
            completed += outcome.completed as u64;
            if !outcome.invariants_hold() {
                violations.extend(
                    outcome
                        .violations
                        .iter()
                        .map(|v| format!("{} sweep {sweeps}: {v}", outcome.profile)),
                );
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // Wall time of the measured calls alone, without the set-ups.
    let measured_s: f64 = calls.iter().flatten().map(|c| c.wall_s).sum();
    for (times, config) in set_ups.iter_mut().zip(&soaks) {
        times.push(set_up(config));
    }
    eprintln!(
        "stackbench: soak-city {sweeps} sweeps of {} profiles, {attempted} problems, \
         {completed} completed in {wall:.2} s",
        soaks.len()
    );

    // Each profile's call during which the hypervisor stole the least
    // CPU time from the machine, so a sweep slowed by other tenants of a
    // shared box moves the figures less (the work is the same each
    // sweep).
    let kept: Vec<&Call> = calls
        .iter()
        .map(|w| {
            w.iter()
                .min_by(|a, b| a.steal.total_cmp(&b.steal))
                .expect("at least one sweep")
        })
        .collect();
    let profile_s: Vec<f64> = kept.iter().map(|c| c.wall_s).collect();
    let sweep_s: f64 = profile_s.iter().sum();
    let sweep_completions = completions.iter().sum::<u64>() as f64;
    let mut m = Metrics::default();
    let setup_s: f64 = set_ups.iter_mut().map(|times| median(times)).sum();
    m.put("setup_s", setup_s, "s");
    m.put("workflows_per_s", sweep_completions / sweep_s, "1/s");
    // No client round trip and no ingest stream exist here. The latency
    // and ingest metrics all read one stand-in, the sweep's wall time
    // per problem: 1000 × completed_ratio / workflows_per_s, so it
    // repeats what `workflows_per_s` says.
    let ms_per_problem = sweep_s * 1000.0 / problems.iter().sum::<u64>() as f64;
    m.put("e2e_p50_ms", ms_per_problem, "ms");
    m.put("e2e_p99_ms", ms_per_problem, "ms");
    m.put(
        "completed_ratio",
        per(completed as f64, attempted as f64),
        "ratio",
    );
    m.put("ingest_lag_p99_ms", ms_per_problem, "ms");
    m.put("peak_rss_mib", crate::report::peak_rss_mib(), "MiB");
    let sweep_cpu_s: f64 = kept.iter().map(|c| c.cpu_s).sum();
    m.put(
        "cpu_ms_per_wf",
        per(sweep_cpu_s * 1000.0, sweep_completions),
        "ms",
    );

    if trace {
        let reg = &obs.metrics;
        let c = completed as f64;
        let counter = |name: &str| reg.counter(name).get() as f64;
        m.put(
            "simnet.delivered_per_s",
            counter("net.delivered") / measured_s,
            "1/s",
        );
        m.put(
            "simnet.delivered_per_wf",
            per(counter("net.delivered"), c),
            "count",
        );
        m.put(
            "simnet.dropped",
            counter("net.dropped") / f64::from(sweeps),
            "count",
        );
        m.put(
            "simnet.duplicated",
            counter("net.duplicated") / f64::from(sweeps),
            "count",
        );
        for (config, secs) in soaks.iter().zip(&profile_s) {
            let name = format!("scenario.profile_s.{}", config.profile.name());
            m.put(name, *secs, "s");
        }
        m.put(
            "runtime.query_rounds_per_wf",
            per(counter("core.rounds"), c),
            "count",
        );
        layers::runtime_registry(&mut m, reg, c);
        layers::decode_registry(&mut m, reg, c);
        // Know-how of the soak's district shape, for the codec timing.
        let fragments: Vec<_> = (0..DISTRICTS)
            .flat_map(|d| {
                let k = GeneratedKnowledge::generate(
                    soaks[0].district_tasks,
                    derive(seed, 200 + d as u64),
                );
                k.fragments().to_vec()
            })
            .collect();
        layers::wire_codec(&mut m, &fragments);
    }
    // Problems that fail under injected faults are outcomes the soak's
    // invariants judge (completion floors); what fails here is a broken
    // invariant.
    Outcome {
        attempted,
        failed: violations.len() as u64,
        violations,
        metrics: m,
        spans,
    }
}
