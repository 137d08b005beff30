//! The field-hospital scenario: conjunctive decisions and
//! capability-driven branch selection, end to end.
//!
//! A casualty arrives. Triage and imaging proceed **in parallel** (both
//! are level-0 tasks); the treatment plan is a conjunctive join that
//! waits for both reports; and the final stabilization step depends on
//! who is on shift — surgery if the surgeon is in, medevac otherwise.
//!
//! Run with: `cargo run --example field_hospital`

use openworkflow::prelude::*;
use openworkflow::scenario::field_hospital::FieldHospitalScenario;

fn run(label: &str, scenario: FieldHospitalScenario) {
    println!("=== {label} ===");
    let names: Vec<&str> = if scenario.surgeon_present {
        vec!["triage nurse", "radiologist", "surgeon", "medevac crew"]
    } else {
        vec!["triage nurse", "radiologist", "medevac crew"]
    };
    let mut community = CommunityBuilder::new(1066)
        .hosts(scenario.host_configs())
        .build();
    for (i, h) in community.hosts().into_iter().enumerate() {
        let who = names[i].to_string();
        community
            .core_mut(h)
            .service_mgr_mut()
            .set_hook(Box::new(move |call| {
                println!("  {who}: {}", call.task);
            }));
    }

    let nurse = community.hosts()[0];
    let spec = scenario.spec();
    println!("casualty arrived; goal: {spec}");
    let handle = community.submit(nurse, spec);
    let report = community.run_until_complete(handle);
    println!("  -> {}", report.status);
    if let Some(total) = report.timings.total() {
        println!("  -> patient stable after {total} (incl. travel and procedures)\n");
    } else {
        println!();
    }
    assert!(matches!(report.status, ProblemStatus::Completed));
}

fn main() {
    run("full staff: surgical branch", FieldHospitalScenario::new());
    run(
        "surgeon off-site: stabilize and evacuate",
        FieldHospitalScenario::new().without_surgeon(),
    );
}
