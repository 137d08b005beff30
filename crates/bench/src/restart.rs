//! Durable-store restart benchmark: cold replay vs snapshot + tail.
//!
//! Measures what a restarting host actually pays to get its knowhow
//! database back, at 1k/10k/100k **live** fragments under 0%/50%/90%
//! supersede churn:
//!
//! * **cold_replay** — reopening a log holding the full insert history
//!   (no snapshot): O(insert history) decode work, the PR 4 baseline.
//!   At churn `c` the history is `live / (1 − c)` records, so 90% churn
//!   replays 10× the live set.
//! * **snapshot_restart** — reopening after the store compacted at ~95%
//!   of the same history: the newest snapshot loads the live set and
//!   only the remaining ~5% tail of records replays — O(live + tail).
//!
//! Both stores index the **same** live fragments; the measured gap is
//! purely the superseded history the snapshot made irrelevant. Results
//! are emitted as `BENCH_durable_restart.json` at the workspace root
//! (same trajectory-file pattern as `BENCH_wire_codec.json`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use openwf_core::Fragment;
use openwf_wire::DurableFragmentStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::scale::percentile;

/// Live-set sizes of the restart suite.
pub const RESTART_SIZES: &[usize] = &[1_000, 10_000, 100_000];

/// Supersede-churn levels: the fraction of insert history that is
/// superseded by the time the host restarts.
pub const CHURN_PERCENTS: &[u8] = &[0, 50, 90];

/// How far through the insert history the snapshot fires (percent) in
/// the `snapshot_restart` scenario — the remaining records are the tail
/// the restart still replays.
pub const SNAPSHOT_AT_PERCENT: usize = 95;

/// One insert schedule: `live` distinct fragment ids whose history is
/// stretched to `records` inserts by supersedes, shuffled so churn is
/// spread across the whole log like a long-lived community's would be.
pub struct ChurnSchedule {
    /// Distinct (live) fragment ids.
    pub live: usize,
    /// Supersede share of the history, in percent.
    pub churn_percent: u8,
    /// The full insert sequence (`live / (1 − churn)` records).
    pub inserts: Vec<Arc<Fragment>>,
}

fn churn_fragment(id: usize, version: u32) -> Arc<Fragment> {
    Arc::new(
        Fragment::single_task(
            format!("ch-f{id}"),
            format!("ch-t{id}-v{version}"),
            openwf_core::Mode::Disjunctive,
            [format!("ch-a{id}"), format!("ch-b{id}-v{version}")],
            [format!("ch-c{id}")],
        )
        .expect("valid bench fragment"),
    )
}

/// Generates a churned insert schedule: `live` fresh inserts plus
/// enough supersedes (same id, bumped content version) to make
/// superseded records `churn_percent` of the history, shuffled
/// deterministically from `seed`.
///
/// # Panics
///
/// Panics if `churn_percent >= 100` (the history would be unbounded).
pub fn churn_schedule(live: usize, churn_percent: u8, seed: u64) -> ChurnSchedule {
    assert!(churn_percent < 100, "churn must leave a live remainder");
    let history = live * 100 / (100 - usize::from(churn_percent));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f77_665f_7265_7374);
    // One op per record: which id this insert touches. Fresh inserts
    // carry version 0; each later touch of an id bumps its version, so
    // every record has distinct content and the last write wins.
    let mut ops: Vec<usize> = (0..live).collect();
    for _ in live..history {
        ops.push(rng.random_range(0..live));
    }
    ops.shuffle(&mut rng);
    let mut versions = vec![0u32; live];
    let inserts = ops
        .into_iter()
        .map(|id| {
            let v = versions[id];
            versions[id] += 1;
            churn_fragment(id, v)
        })
        .collect();
    ChurnSchedule {
        live,
        churn_percent,
        inserts,
    }
}

/// One measured cell of the restart suite.
#[derive(Clone, Debug)]
pub struct RestartMeasurement {
    /// Operation name (`cold_replay`, `snapshot_restart`).
    pub op: &'static str,
    /// Live fragments after all supersedes.
    pub fragments: usize,
    /// Supersede share of the insert history, in percent.
    pub churn_percent: u8,
    /// Insert-history length the scenario carries.
    pub records: u64,
    /// On-disk bytes the reopened store accounts (log + snapshot).
    pub bytes: u64,
    /// Timed passes.
    pub samples: usize,
    /// Mean wall-clock nanoseconds per reopen.
    pub mean_ns: f64,
    /// Median nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile nanoseconds.
    pub p95_ns: f64,
    /// Fastest pass.
    pub min_ns: f64,
    /// Live fragments restored per second (mean).
    pub frags_per_sec: f64,
}

fn cell(
    op: &'static str,
    schedule: &ChurnSchedule,
    bytes: u64,
    times_ns: Vec<f64>,
) -> RestartMeasurement {
    let mean_ns = times_ns.iter().sum::<f64>() / times_ns.len() as f64;
    RestartMeasurement {
        op,
        fragments: schedule.live,
        churn_percent: schedule.churn_percent,
        records: schedule.inserts.len() as u64,
        bytes,
        samples: times_ns.len(),
        mean_ns,
        p50_ns: percentile(&times_ns, 50.0),
        p95_ns: percentile(&times_ns, 95.0),
        min_ns: times_ns[0],
        frags_per_sec: schedule.live as f64 / (mean_ns / 1e9),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("openwf-restartbench-{tag}-{}", std::process::id()))
}

/// Populates `dir` with the schedule; when `compact_at` is set, runs a
/// compaction after that many inserts so the log carries a snapshot
/// plus the remaining tail.
fn populate(
    dir: &PathBuf,
    schedule: &ChurnSchedule,
    segment_bytes: u64,
    compact_at: Option<usize>,
) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = DurableFragmentStore::open_with(dir, segment_bytes).expect("open scratch log");
    for (i, f) in schedule.inserts.iter().enumerate() {
        store.insert(Arc::clone(f)).expect("append");
        if compact_at == Some(i + 1) {
            store.compact().expect("compact");
        }
    }
    store.sync().expect("sync");
    assert_eq!(store.len(), schedule.live);
    store.log_bytes() + store.snapshot_bytes()
}

/// Measures one schedule's restart pair: cold full-history replay vs
/// snapshot + tail. Both reopened stores must restore the identical
/// live count; the snapshot store asserts its snapshot was actually
/// used (a snapshot file exists and the tail is the post-compaction
/// remainder). The two scenarios' passes interleave (cold, snapshot,
/// cold, snapshot, …) so clock drift on a shared/throttled runner lands
/// on both sides equally instead of biasing whichever ran last.
///
/// # Panics
///
/// Panics on I/O failure in the scratch directory (harness bugs, not
/// measurement outcomes).
pub fn measure_schedule(
    schedule: &ChurnSchedule,
    segment_bytes: u64,
    samples: usize,
) -> Vec<RestartMeasurement> {
    let tag = format!("{}-{}", schedule.live, schedule.churn_percent);
    let cold_dir = scratch_dir(&format!("cold-{tag}"));
    let cold_bytes = populate(&cold_dir, schedule, segment_bytes, None);
    let snap_dir = scratch_dir(&format!("snap-{tag}"));
    let compact_at = schedule.inserts.len() * SNAPSHOT_AT_PERCENT / 100;
    let snap_bytes = populate(&snap_dir, schedule, segment_bytes, Some(compact_at));

    let mut cold_times = Vec::with_capacity(samples);
    let mut snap_times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let store = DurableFragmentStore::open_with(&cold_dir, segment_bytes).expect("cold replay");
        cold_times.push(t0.elapsed().as_secs_f64() * 1e9);
        assert_eq!(store.len(), schedule.live);
        std::hint::black_box(&store);
        drop(store);

        let t0 = Instant::now();
        let store =
            DurableFragmentStore::open_with(&snap_dir, segment_bytes).expect("snapshot restart");
        snap_times.push(t0.elapsed().as_secs_f64() * 1e9);
        assert_eq!(store.len(), schedule.live);
        assert!(
            store.snapshot_segment().is_some(),
            "restart must come from a snapshot"
        );
        std::hint::black_box(&store);
    }
    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
    cold_times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    snap_times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));

    vec![
        cell("cold_replay", schedule, cold_bytes, cold_times),
        cell("snapshot_restart", schedule, snap_bytes, snap_times),
    ]
}

/// Runs the full suite over `sizes` × `churns`.
pub fn run(
    sizes: &[usize],
    churns: &[u8],
    samples_for: impl Fn(usize) -> usize,
) -> Vec<RestartMeasurement> {
    let mut results = Vec::new();
    for &live in sizes {
        for &churn in churns {
            let schedule = churn_schedule(live, churn, 0xc0ff_ee00 + live as u64);
            results.extend(measure_schedule(
                &schedule,
                openwf_wire::DEFAULT_SEGMENT_BYTES,
                samples_for(live),
            ));
        }
    }
    results
}

/// Renders the measurements in the committed `BENCH_durable_restart.json`
/// schema (see README § Wire format & durable storage).
pub fn to_json(results: &[RestartMeasurement]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"durable_restart\",\n  \"unit\": \"ns\",\n  \"results\": [\n",
    );
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"fragments\": {}, \"churn_percent\": {}, \
             \"records\": {}, \"bytes\": {}, \"samples\": {}, \"mean_ns\": {:.0}, \
             \"p50_ns\": {:.0}, \"p95_ns\": {:.0}, \"min_ns\": {:.0}, \
             \"frags_per_sec\": {:.0}}}{comma}\n",
            r.op,
            r.fragments,
            r.churn_percent,
            r.records,
            r.bytes,
            r.samples,
            r.mean_ns,
            r.p50_ns,
            r.p95_ns,
            r.min_ns,
            r.frags_per_sec,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The committed location of the restart trajectory file: the workspace
/// root's `BENCH_durable_restart.json`.
pub fn default_report_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_durable_restart.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_hits_live_and_history_targets() {
        let s = churn_schedule(64, 50, 7);
        assert_eq!(s.live, 64);
        assert_eq!(s.inserts.len(), 128, "50% churn doubles the history");
        let distinct: std::collections::BTreeSet<&str> =
            s.inserts.iter().map(|f| f.id().as_str()).collect();
        assert_eq!(distinct.len(), 64, "every live id appears");
        let zero = churn_schedule(64, 0, 7);
        assert_eq!(zero.inserts.len(), 64, "0% churn has no supersedes");
    }

    #[test]
    fn small_schedule_measures_both_ops() {
        let s = churn_schedule(96, 50, 11);
        let results = measure_schedule(&s, 2048, 2);
        let ops: Vec<&str> = results.iter().map(|r| r.op).collect();
        assert_eq!(ops, ["cold_replay", "snapshot_restart"]);
        assert!(results.iter().all(|r| r.mean_ns > 0.0));
        assert!(results.iter().all(|r| r.records == 192));
        assert!(results.iter().all(|r| r.bytes > 0));
        let json = to_json(&results);
        assert!(json.contains("\"bench\": \"durable_restart\""));
        assert!(json.contains("\"churn_percent\": 50"));
    }
}
