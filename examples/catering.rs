//! The §2.1 corporate catering scenario — Figure 1 end to end.
//!
//! Three runs demonstrate the paradigm's context sensitivity:
//!
//! 1. **Everyone present** — breakfast and lunch are planned and executed.
//! 2. **Master chef out of the office** — the omelet fragment "will never
//!    be collected and considered by the workflow engine"; a breakfast
//!    alternative is chosen instead.
//! 3. **Wait staff absent** — "the open workflow engine must select
//!    buffet service since no one in the available community is capable
//!    of serving tables."
//!
//! Run with: `cargo run --example catering`

use openworkflow::prelude::*;
use openworkflow::scenario::catering::{table_service_fragment, CateringScenario};

fn run(label: &str, scenario: CateringScenario, spec: Spec) {
    println!("=== {label} ===");
    let mut configs = scenario.host_configs();
    // The chef's table-service knowhow travels with the chef's PDA.
    if scenario.chef_present {
        configs[1].fragments.push(table_service_fragment().into());
    }
    let names = participant_names(&scenario);
    let mut community = CommunityBuilder::new(2009).hosts(configs).build();
    for (i, h) in community.hosts().into_iter().enumerate() {
        let name = names[i].to_string();
        community
            .core_mut(h)
            .service_mgr_mut()
            .set_hook(Box::new(move |call| {
                println!("  {name}: {}", call.task);
            }));
    }

    let manager = community.hosts()[0];
    println!("manager submits: {spec}");
    let handle = community.submit(manager, spec);
    let report = community.run_until_complete(handle);
    println!("  -> {}", report.status);
    if let Some(total) = report.timings.total() {
        println!("  -> done after {total} (virtual time incl. cooking & travel)");
    }
    println!();
}

fn participant_names(s: &CateringScenario) -> Vec<&'static str> {
    let mut names = vec!["manager"];
    if s.chef_present {
        names.push("master chef");
    }
    names.push("kitchen staff");
    if s.waitstaff_present {
        names.push("wait staff");
    }
    names
}

fn main() {
    // 1. Full staff: breakfast + lunch.
    let s = CateringScenario::new();
    let spec = s.breakfast_and_lunch_spec();
    run("everyone present: breakfast and lunch", s, spec);

    // 2. Chef out of the office: omelets are off the menu, but the
    //    kitchen staff's buffet knowhow still serves breakfast.
    let s = CateringScenario::new().without_chef().with_orders_placed();
    let spec = Spec::new(
        ["breakfast ingredients", "doughnuts ordered"],
        ["breakfast served"],
    );
    run("master chef absent: breakfast still served", s, spec);

    // 3. Wait staff absent: lunch must be buffet service.
    let s = CateringScenario::new().without_waitstaff();
    let spec = Spec::new(["lunch ingredients"], ["lunch served"]);
    run("wait staff absent: buffet service selected", s, spec);
}
