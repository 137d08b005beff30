//! Carrier equivalence: the same scenario driven on the simulator with
//! typed messages ([`CommunityBuilder::build`]) and with encoded wire
//! frames ([`CommunityBuilder::build_bytes`]) produces **bit-identical
//! supergraphs and workflow outcomes**.
//!
//! This is the load-bearing guarantee of the sans-io split: the
//! protocol state machine cannot tell which carrier is moving its
//! messages. Both run on the one kernel (constant 200µs latency,
//! compute charges defer the busy host, `(time, seq)` event order), so
//! every core sees the identical input sequence — down to virtual-time
//! phase timings — whether fragments travel as shared `Arc`s or as
//! freshly decoded wire bytes.

use std::fmt::Write as _;

use openwf_core::{Fragment, Mode, Spec};
use openwf_runtime::workflow_mgr::Workspace;
use openwf_runtime::{CommunityBuilder, Driver, HostConfig, RuntimeParams, ServiceDescription};
use openwf_simnet::SimDuration;
use proptest::prelude::*;

fn frag(id: String, task: String, input: String, output: String) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

/// One generated community scenario: a knowledge chain spread across
/// hosts, services deliberately placed on *other* hosts than the
/// knowhow (forcing cross-host queries, bids and input deliveries),
/// plus dead-end noise fragments that join the supergraph but never the
/// workflow.
#[derive(Clone, Debug)]
struct Scenario {
    n_hosts: usize,
    chain: usize,
    noise: Vec<u8>,
    seed: u64,
}

impl Scenario {
    /// Builds fresh host configurations (configs are consumed by a
    /// community, so each carrier gets its own identical copy).
    fn configs(&self) -> Vec<HostConfig> {
        let mut cfgs: Vec<HostConfig> = (0..self.n_hosts).map(|_| HostConfig::new()).collect();
        for i in 0..self.chain {
            let holder = i % self.n_hosts;
            let server = (i + 1) % self.n_hosts;
            cfgs[holder] = std::mem::take(&mut cfgs[holder]).with_fragment(frag(
                format!("eqv-f{i}"),
                format!("eqv-t{i}"),
                format!("eqv-l{i}"),
                format!("eqv-l{}", i + 1),
            ));
            cfgs[server] = std::mem::take(&mut cfgs[server]).with_service(ServiceDescription::new(
                format!("eqv-t{i}"),
                SimDuration::from_millis(3),
            ));
        }
        for (j, &pick) in self.noise.iter().enumerate() {
            let host = (j + 1) % self.n_hosts;
            let consumed = pick as usize % (self.chain + 1);
            cfgs[host] = std::mem::take(&mut cfgs[host]).with_fragment(frag(
                format!("eqv-nz-f{j}"),
                format!("eqv-nz-t{j}"),
                format!("eqv-l{consumed}"),
                format!("eqv-nz-out{j}"),
            ));
        }
        cfgs
    }

    fn spec(&self) -> Spec {
        Spec::new(["eqv-l0".to_string()], [format!("eqv-l{}", self.chain)])
    }
}

/// Everything that must match bit-for-bit: the assembled supergraph
/// (every node and edge in index order), the extracted workflow, and
/// the full outcome record including virtual-time phase timings.
fn digest(ws: &Workspace) -> String {
    let mut s = String::new();
    let g = ws.supergraph().graph();
    writeln!(s, "phase {:?}", ws.phase).unwrap();
    writeln!(s, "supergraph {}n {}e", g.node_count(), g.edge_count()).unwrap();
    for (idx, key) in g.nodes() {
        writeln!(s, "n {idx:?} {key}").unwrap();
    }
    for (a, b) in g.edges() {
        writeln!(s, "e {a:?} {b:?}").unwrap();
    }
    if let Some(c) = &ws.construction {
        writeln!(s, "workflow {:?}", c.workflow()).unwrap();
    }
    writeln!(s, "status {:?}", ws.report.status).unwrap();
    writeln!(s, "assignments {:?}", ws.report.assignments).unwrap();
    writeln!(s, "goals {:?}", ws.report.goals_delivered).unwrap();
    writeln!(s, "rounds {}", ws.report.query_rounds).unwrap();
    writeln!(s, "pulled {}", ws.report.fragments_pulled).unwrap();
    writeln!(s, "timings {:?}", ws.report.timings).unwrap();
    s
}

fn run_both(scenario: &Scenario) -> (String, String) {
    let params = RuntimeParams::default();

    // Typed carrier.
    let mut sim = CommunityBuilder::new(scenario.seed)
        .params(params.clone())
        .hosts(scenario.configs())
        .build();
    let initiator = sim.hosts()[0];
    let handle = sim.submit(initiator, scenario.spec());
    sim.run_until_complete(handle);
    sim.run_until_quiescent();
    let sim_digest = digest(
        sim.core(initiator)
            .latest_attempt(handle.id)
            .expect("sim workspace"),
    );

    // Frame carrier: the same configs over encoded frames.
    let mut loopback = CommunityBuilder::new(scenario.seed)
        .params(params)
        .hosts(scenario.configs())
        .build_bytes();
    let lb_initiator = loopback.hosts()[0];
    assert_eq!(lb_initiator, initiator);
    let lb_handle = loopback.submit(lb_initiator, scenario.spec());
    assert_eq!(lb_handle.id, handle.id, "same problem identity");
    loopback.run_until_complete(lb_handle);
    loopback.run_until_quiescent();
    let lb_digest = digest(
        loopback
            .core(lb_initiator)
            .latest_attempt(lb_handle.id)
            .expect("loopback workspace"),
    );

    (sim_digest, lb_digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same scenario, both carriers: bit-identical supergraphs and
    /// outcomes for every seed, host count, chain length and noise
    /// shape.
    #[test]
    fn sim_and_loopback_agree_bit_for_bit(
        n_hosts in 1usize..4,
        chain in 1usize..6,
        noise in proptest::collection::vec(any::<u8>(), 0..4),
        seed in any::<u64>(),
    ) {
        let scenario = Scenario { n_hosts, chain, noise, seed };
        let (sim, loopback) = run_both(&scenario);
        prop_assert_eq!(
            &sim, &loopback,
            "carriers diverged for {:?}", scenario
        );
        prop_assert!(sim.contains("phase Completed"), "scenario solvable by construction: {sim}");
    }
}

/// Vocabulary-capped hosts whose budget *suffices* behave identically
/// on both carriers: the typed path charges replies through
/// `reply_through_wire`, the frame path charges them at decode, and
/// only the fragment-reply family touches the budget either way —
/// ordinary protocol traffic (queries, bids, plans) never trips a cap.
#[test]
fn capped_within_budget_agrees_across_transports() {
    let params = RuntimeParams::default();
    let mk = || {
        vec![
            HostConfig::new()
                .with_fragment(frag(
                    "eqc-f0".into(),
                    "eqc-t0".into(),
                    "eqc-l0".into(),
                    "eqc-l1".into(),
                ))
                .with_service(ServiceDescription::new(
                    "eqc-t1",
                    SimDuration::from_millis(3),
                ))
                .with_vocabulary_cap(32),
            HostConfig::new()
                .with_fragment(frag(
                    "eqc-f1".into(),
                    "eqc-t1".into(),
                    "eqc-l1".into(),
                    "eqc-l2".into(),
                ))
                .with_service(ServiceDescription::new(
                    "eqc-t0",
                    SimDuration::from_millis(3),
                )),
        ]
    };
    let spec = || Spec::new(["eqc-l0".to_string()], ["eqc-l2".to_string()]);

    let mut sim = CommunityBuilder::new(5)
        .params(params.clone())
        .hosts(mk())
        .build();
    let h = sim.hosts()[0];
    let handle = sim.submit(h, spec());
    sim.run_until_complete(handle);
    sim.run_until_quiescent();
    let sim_digest = digest(sim.core(h).latest_attempt(handle.id).unwrap());
    let sim_names = sim.core(h).vocabulary_names();

    let mut lb = CommunityBuilder::new(5)
        .params(params)
        .hosts(mk())
        .build_bytes();
    let lb_handle = lb.submit(h, spec());
    lb.run_until_complete(lb_handle);
    lb.run_until_quiescent();
    let lb_digest = digest(lb.core(h).latest_attempt(lb_handle.id).unwrap());

    assert_eq!(sim_digest, lb_digest);
    assert!(sim_digest.contains("phase Completed"), "{sim_digest}");
    assert_eq!(
        sim_names,
        lb.core(h).vocabulary_names(),
        "both trust boundaries admitted the same distinct names"
    );
    assert_eq!(lb.core(h).vocabulary_rejections(), 0);
}

/// A fixed smoke case outside the proptest loop, so a plain `cargo
/// test` exercises the comparison even when the property harness is
/// filtered out.
#[test]
fn three_host_chain_agrees() {
    let scenario = Scenario {
        n_hosts: 3,
        chain: 4,
        noise: vec![7, 130],
        seed: 11,
    };
    let (sim, loopback) = run_both(&scenario);
    assert_eq!(sim, loopback);
    assert!(sim.contains("phase Completed"), "{sim}");
}
