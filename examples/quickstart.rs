//! Quickstart: the smallest end-to-end open workflow.
//!
//! Two devices form a community. Neither can reach the goal alone — the
//! knowledge of *how* and the capability to *do* are split across them —
//! but the open workflow engine assembles a plan from their fragments,
//! auctions the tasks, and executes them in dependency order.
//!
//! Run with: `cargo run --example quickstart`

use openworkflow::prelude::*;

fn main() {
    // Device A knows how to brew coffee (but can only grind).
    let device_a = HostConfig::new()
        .with_fragment(
            Fragment::single_task(
                "brew-knowhow",
                "brew coffee",
                Mode::Conjunctive,
                ["beans ground"],
                ["coffee ready"],
            )
            .expect("valid fragment"),
        )
        .with_service(ServiceDescription::new(
            "grind beans",
            SimDuration::from_secs(60),
        ));

    // Device B knows how to grind beans (but can only brew).
    let device_b = HostConfig::new()
        .with_fragment(
            Fragment::single_task(
                "grind-knowhow",
                "grind beans",
                Mode::Conjunctive,
                ["beans available"],
                ["beans ground"],
            )
            .expect("valid fragment"),
        )
        .with_service(ServiceDescription::new(
            "brew coffee",
            SimDuration::from_secs(120),
        ));

    let mut community = CommunityBuilder::new(42)
        .host(device_a)
        .host(device_b)
        .build();

    // Narrate the service executions.
    for h in community.hosts() {
        community
            .core_mut(h)
            .service_mgr_mut()
            .set_hook(Box::new(move |call| {
                println!("  [{h}] executing service: {}", call.task);
            }));
    }

    // A participant identifies a need: coffee, given beans.
    let initiator = community.hosts()[0];
    let spec = Spec::new(["beans available"], ["coffee ready"]);
    println!("submitting problem: {spec}");
    let handle = community.submit(initiator, spec);
    let report = community.run_until_complete(handle);

    println!("\nstatus:            {}", report.status);
    println!("query rounds:      {}", report.query_rounds);
    println!("fragments pulled:  {}", report.fragments_pulled);
    println!(
        "construction:      {}",
        report.timings.construction().expect("constructed")
    );
    println!(
        "allocation:        {}",
        report.timings.allocation().expect("allocated")
    );
    println!(
        "total (virtual):   {}",
        report.timings.total().expect("completed")
    );
    println!("\nassignments:");
    for (task, host) in &report.assignments {
        println!("  {task} -> {host}");
    }
    assert!(matches!(report.status, ProblemStatus::Completed));
}
