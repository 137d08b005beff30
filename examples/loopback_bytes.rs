//! Loopback bytes: a whole community coordinating over the real wire
//! format.
//!
//! The same scenario usually run with typed messages runs here on the
//! simulator's frame carrier (`CommunityBuilder::build_bytes`): every
//! protocol message — the fragment and capability queries, the auction
//! traffic, the execution plans and input deliveries — is **encoded to
//! `openwf-wire` frames on send and decoded through the receiver's
//! vocabulary budget on delivery**. Nothing is shared in memory across
//! host boundaries; the run is an end-to-end proof that the binary
//! codec carries the complete protocol.
//!
//! The example then replays the identical scenario with typed messages
//! and checks the two carriers agree — the sans-io core cannot tell
//! which one moves its messages.
//!
//! Run with: `cargo run --example loopback_bytes`
//! Fast mode (CI smoke): `OPENWF_LOOPBACK_FAST=1 cargo run --example loopback_bytes`

use openworkflow::prelude::*;

fn configs(chain: usize, hosts: usize) -> Vec<HostConfig> {
    let mut cfgs: Vec<HostConfig> = (0..hosts).map(|_| HostConfig::new()).collect();
    for i in 0..chain {
        // Knowhow lives on one host, the matching capability on another:
        // every step of the pipeline forces cross-host wire traffic.
        let holder = i % hosts;
        let server = (i + 1) % hosts;
        cfgs[holder] = std::mem::take(&mut cfgs[holder]).with_fragment(
            Fragment::single_task(
                format!("step-{i}-knowhow"),
                format!("step-{i}"),
                Mode::Conjunctive,
                [format!("stage-{i}")],
                [format!("stage-{}", i + 1)],
            )
            .expect("valid fragment"),
        );
        cfgs[server] = std::mem::take(&mut cfgs[server]).with_service(ServiceDescription::new(
            format!("step-{i}"),
            SimDuration::from_millis(250),
        ));
    }
    cfgs
}

fn main() {
    let fast = std::env::var("OPENWF_LOOPBACK_FAST").is_ok();
    let (chain, hosts) = if fast { (4, 3) } else { (12, 5) };
    let spec = Spec::new(["stage-0".to_string()], [format!("stage-{chain}")]);

    println!("== community of {hosts} hosts, {chain}-step pipeline, all traffic as wire bytes ==");
    let mut driver = CommunityBuilder::new(0)
        .hosts(configs(chain, hosts))
        .build_bytes();
    let initiator = driver.hosts()[0];
    let handle = driver.submit(initiator, spec.clone());
    let report = driver.run_until_complete(handle);
    let stats = driver.stats();
    let (frames_delivered, bytes_delivered) = (stats.delivered, stats.bytes_delivered);

    println!("status        : {:?}", report.status);
    println!("assignments   : {}", report.assignments.len());
    println!(
        "virtual time  : {} (constructed {:?}, allocated {:?})",
        driver.now(),
        report.timings.constructed_at,
        report.timings.allocated_at,
    );
    println!(
        "wire traffic  : {frames_delivered} frames, {bytes_delivered} exact bytes, {} timers",
        stats.timers_fired
    );
    for (host, event) in driver.all_events() {
        println!("event         : h{} {event:?}", host.0);
    }
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "pipeline must complete over the wire: {report}"
    );
    assert!(frames_delivered > (chain as u64) * 2, "real traffic flowed");

    // The same scenario with typed messages must agree on the outcome.
    let mut sim = CommunityBuilder::new(0)
        .hosts(configs(chain, hosts))
        .build();
    let sim_handle = sim.submit(sim.hosts()[0], spec);
    let sim_report = sim.run_until_complete(sim_handle);
    assert_eq!(
        format!("{:?}", sim_report.assignments),
        format!("{:?}", report.assignments),
        "carriers must allocate identically"
    );
    assert_eq!(
        sim_report.timings.completed_at, report.timings.completed_at,
        "virtual clocks agree to the microsecond"
    );
    println!("== typed replay agrees: same assignments, same completion time ==");
}
