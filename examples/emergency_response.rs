//! The §1 motivating scenario: mercury spill on a construction site.
//!
//! "The result is a series of frantic phone calls and the dispatching of
//! various workers and equipment to execute what might be seen as a
//! workflow that is reactive, opportunistic, composite, and constrained by
//! the set of participants present on the site along with their knowledge
//! and resources." — here, the open workflow engine replaces the frantic
//! phone calls.
//!
//! The run shows location-aware execution: participants travel to the
//! spill site (virtual travel time from the mobility substrate) before
//! performing their services, and a conjunctive task (`contain spill`)
//! waits for *two* upstream results.
//!
//! Run with: `cargo run --example emergency_response`

use openworkflow::prelude::*;
use openworkflow::scenario::emergency::EmergencyScenario;

fn main() {
    let scenario = EmergencyScenario::new();
    let names = ["worker", "supervisor", "chief engineer", "hazmat tech"];

    let mut community = CommunityBuilder::new(911)
        .hosts(scenario.host_configs())
        .build();
    for (i, h) in community.hosts().into_iter().enumerate() {
        let name = names[i];
        community
            .core_mut(h)
            .service_mgr_mut()
            .set_hook(Box::new(move |call| {
                println!("  {name}: {}", call.task);
            }));
    }

    // The worker's device reports the spill and initiates the response.
    let worker = community.hosts()[0];
    let spec = scenario.spec();
    println!("spill reported; constructing response: {spec}\n");
    let handle = community.submit(worker, spec);
    let report = community.run_until_complete(handle);

    println!("\nstatus: {}", report.status);
    println!("response plan ({} steps):", report.assignments.len());
    for (task, host) in &report.assignments {
        let who = names[host.index()];
        println!("  {task} -> {who}");
    }
    println!(
        "constructed in {}, allocated in {}, site safe after {}",
        report.timings.construction().expect("constructed"),
        report.timings.allocation().expect("allocated"),
        report.timings.total().expect("completed"),
    );
    assert!(matches!(report.status, ProblemStatus::Completed));

    // Counterfactual: without the chief engineer there is no plan at all.
    let absent = EmergencyScenario::new().without_engineer();
    let mut community = CommunityBuilder::new(912)
        .hosts(absent.host_configs())
        .build();
    let worker = community.hosts()[0];
    let handle = community.submit(worker, absent.spec());
    let report = community.run_until_complete(handle);
    println!("\nwithout the chief engineer: {}", report.status);
    assert!(matches!(report.status, ProblemStatus::Failed { .. }));
}
