//! Property-based tests over the full stack: random knowledge worlds run
//! through the real distributed runtime must agree with the core
//! algorithm's feasibility verdict and always terminate cleanly.

use std::collections::BTreeSet;

use openworkflow::prelude::*;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct WorldSpec {
    /// (task-index, inputs, outputs, conjunctive) tuples.
    tasks: Vec<(Vec<u8>, Vec<u8>, bool)>,
    triggers: BTreeSet<u8>,
    goals: BTreeSet<u8>,
    hosts: usize,
    seed: u64,
}

fn label(i: u8) -> String {
    format!("l{i}")
}

fn arb_world() -> impl Strategy<Value = WorldSpec> {
    (
        proptest::collection::vec(
            (
                proptest::collection::vec(0u8..8, 1..=2),
                proptest::collection::vec(0u8..8, 1..=2),
                any::<bool>(),
            ),
            1..=8,
        ),
        proptest::collection::btree_set(0u8..8, 1..=2),
        proptest::collection::btree_set(0u8..8, 1..=1),
        1usize..=4,
        any::<u64>(),
    )
        .prop_map(|(tasks, triggers, goals, hosts, seed)| WorldSpec {
            tasks,
            triggers,
            goals,
            hosts,
            seed,
        })
}

/// Builds the fragments (skipping degenerate tasks whose outputs would
/// equal inputs) and the spec.
fn materialize(w: &WorldSpec) -> (Vec<Fragment>, Spec) {
    let fragments: Vec<Fragment> = w
        .tasks
        .iter()
        .enumerate()
        .filter_map(|(i, (ins, outs, conj))| {
            let ins: BTreeSet<u8> = ins.iter().copied().collect();
            let outs: BTreeSet<u8> = outs.iter().copied().filter(|o| !ins.contains(o)).collect();
            if outs.is_empty() {
                return None;
            }
            Fragment::single_task(
                format!("f{i}"),
                format!("t{i}"),
                if *conj {
                    Mode::Conjunctive
                } else {
                    Mode::Disjunctive
                },
                ins.iter().map(|&x| label(x)),
                outs.iter().map(|&x| label(x)),
            )
            .ok()
        })
        .collect();
    let spec = Spec::new(
        w.triggers.iter().map(|&t| label(t)),
        w.goals.iter().map(|&g| label(g)),
    );
    (fragments, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-stack soundness & completeness: the distributed runtime
    /// (construction over the network + auction + execution) completes a
    /// problem iff the local core algorithm deems it feasible, and the
    /// executed services form a workflow satisfying the spec.
    #[test]
    fn runtime_agrees_with_core_feasibility(world in arb_world()) {
        let (fragments, spec) = materialize(&world);

        // Core verdict: fully collected supergraph, every task feasible
        // (the runtime gives every generated task a service below).
        let sg = Supergraph::from_fragments(&fragments);
        prop_assume!(sg.is_ok()); // conflicting modes across fragments: skip
        let sg = sg.unwrap();
        let core_feasible = Constructor::new().construct(&sg, &spec).is_ok();

        // Distribute fragments round-robin; give every host every service
        // so capability never blocks.
        let mut configs: Vec<HostConfig> =
            (0..world.hosts).map(|_| HostConfig::new()).collect();
        for (i, f) in fragments.iter().enumerate() {
            configs[i % world.hosts].fragments.push(f.clone().into());
        }
        for cfg in &mut configs {
            for f in &fragments {
                for t in f.tasks() {
                    cfg.services.push(ServiceDescription::new(
                        t,
                        SimDuration::from_millis(1),
                    ));
                }
            }
        }
        let mut community = CommunityBuilder::new(world.seed).hosts(configs).build();
        let initiator = community.hosts()[0];
        let handle = community.submit(initiator, spec.clone());
        let report = community.run_until_complete(handle);

        match report.status {
            ProblemStatus::Completed => {
                prop_assert!(core_feasible, "runtime completed an infeasible spec");
                // All goals delivered exactly.
                let delivered: BTreeSet<_> =
                    report.goals_delivered.iter().cloned().collect();
                prop_assert_eq!(&delivered, spec.goals());
            }
            ProblemStatus::Failed { ref reason } => {
                prop_assert!(!core_feasible, "runtime failed a feasible spec: {}", reason);
            }
            ref other => prop_assert!(false, "non-terminal status {other}"),
        }

        // The network must fully drain (no stuck messages/timers beyond
        // watchdogs), and draining must not change the outcome.
        community.run_until_quiescent();
        prop_assert_eq!(community.stats().in_flight(), 0);
    }

    /// Auction invariant under arbitrary worlds: every task of a completed
    /// problem is assigned to exactly one host that offers the service.
    #[test]
    fn completed_assignments_are_unique_and_capable(world in arb_world()) {
        let (fragments, spec) = materialize(&world);
        prop_assume!(!fragments.is_empty());
        let sg = Supergraph::from_fragments(&fragments);
        prop_assume!(sg.is_ok());

        let mut configs: Vec<HostConfig> =
            (0..world.hosts).map(|_| HostConfig::new()).collect();
        for (i, f) in fragments.iter().enumerate() {
            configs[i % world.hosts].fragments.push(f.clone().into());
            // Only the *next* host can serve this fragment's tasks:
            // forces cross-host assignment patterns.
            let server = (i + 1) % world.hosts;
            for t in f.tasks() {
                configs[server]
                    .services
                    .push(ServiceDescription::new(t, SimDuration::from_millis(1)));
            }
        }
        let mut community = CommunityBuilder::new(world.seed ^ 1).hosts(configs).build();
        let initiator = community.hosts()[0];
        let handle = community.submit(initiator, spec);
        let report = community.run_until_complete(handle);

        if matches!(report.status, ProblemStatus::Completed) {
            let mut seen = BTreeSet::new();
            for (task, host) in &report.assignments {
                prop_assert!(seen.insert(task.clone()), "task {task} assigned twice");
                prop_assert!(
                    community.core(*host).service_mgr().can_serve(task),
                    "host {host} cannot serve {task}"
                );
            }
        }
    }
}
