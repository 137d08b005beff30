//! Observability integration: the core's trace instants see the whole
//! protocol conversation on either carrier, metric names mean the same
//! thing under every driver, and traffic accounting matches the paper's
//! pairwise-communication story.

use std::collections::BTreeSet;

use openworkflow::obs::SpanPhase;
use openworkflow::prelude::*;
use openworkflow::runtime::{Carrier, Community};
use openworkflow::simnet::NetStats;
use serde::Value;

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_millis(5))
}

/// Two hosts that must cooperate: each holds half the knowhow and the
/// other half's capability. Every config carries `obs`.
fn two_host_configs(obs: &Obs) -> Vec<HostConfig> {
    vec![
        HostConfig::new()
            .with_fragment(frag("f1", "t1", "a", "b"))
            .with_service(service("t2"))
            .with_observability(obs.clone()),
        HostConfig::new()
            .with_fragment(frag("f2", "t2", "b", "c"))
            .with_service(service("t1"))
            .with_observability(obs.clone()),
    ]
}

/// Runs the two-host problem to completion on the simulator — over
/// encoded frames when `bytes`, typed messages otherwise — with the
/// kernel's `net.*` counters and every core's metrics in `obs`. Returns
/// the kernel's counters.
fn run_two_hosts(bytes: bool, obs: &Obs) -> NetStats {
    fn drive<C: Carrier>(mut community: Community<C>, obs: &Obs) -> NetStats {
        community.net_mut().set_metrics(&obs.metrics);
        let hosts = community.hosts();
        let handle = community.submit(hosts[0], Spec::new(["a"], ["c"]));
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "{report}"
        );
        for h in hosts {
            community.core_mut(h).publish_metrics();
        }
        community.stats()
    }
    let builder = CommunityBuilder::new(61).hosts(two_host_configs(obs));
    if bytes {
        drive(builder.build_bytes(), obs)
    } else {
        drive(builder.build(), obs)
    }
}

#[test]
fn tracer_captures_the_protocol_conversation() {
    for (name, bytes) in [("typed", false), ("frames", true)] {
        let obs = Obs::enabled();
        let stats = run_two_hosts(bytes, &obs);

        // One instant per delivered message, named by its variant and
        // stamped with the receiving host and the sender.
        let messages: Vec<_> = obs
            .trace
            .snapshot()
            .into_iter()
            .filter(|e| e.phase == SpanPhase::Instant && e.detail.starts_with("from host"))
            .collect();
        assert_eq!(messages.len() as u64, stats.delivered, "{name}");
        assert_eq!(
            obs.metrics.counter("core.messages").get(),
            stats.delivered,
            "{name}"
        );

        // Every message family of Figure 3 must appear on the wire.
        let kinds: Vec<&str> = messages.iter().map(|e| e.name).collect();
        for family in [
            "Initiate",
            "FragmentQuery",
            "FragmentReply",
            "CapabilityQuery",
            "CapabilityReply",
            "CallForBids",
            "Bid",
            "Execute",
            "InputDelivery",
            "GoalDelivered",
        ] {
            assert!(kinds.contains(&family), "{name}: missing {family} in trace");
        }

        // Pairwise conversation: host0 (initiator) exchanged messages
        // with host1 in both directions.
        let flows = |from: u32, to: u32| {
            messages
                .iter()
                .any(|e| e.host == to && e.detail == format!("from host{from}"))
        };
        assert!(flows(0, 1), "{name}: host0 -> host1");
        assert!(flows(1, 0), "{name}: host1 -> host0");

        // Delivery times never decrease.
        assert!(
            messages.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "{name}"
        );
    }
}

/// Metric names mean the same thing under every driver: the same
/// two-host problem on the typed carrier, the frame carrier and
/// [`TcpCommunityDriver`], each with one enabled `Obs` in every config
/// and every core publishing its metrics, registers the same `core.*`
/// names, and the two simulated carriers register the same `net.*`
/// kernel counters.
///
/// The TCP driver's `net.*` names describe sockets, not a kernel, and
/// live in its own registry: connection lifecycle (`net.conn_accepted`,
/// `net.conn_dialed`, `net.conn_closed`, `net.conn_denied`,
/// `net.conn_slow_drops`, `net.conn_quarantine_drops`), receive side
/// (`net.rx_frames`, `net.rx_bytes`, `net.rx_misrouted`,
/// `net.rx_ingest_refused`, `net.decode_rejections`) and send side
/// (`net.tx_frames`, `net.tx_bytes`, `net.tx_dropped`,
/// `net.tx_queue_depth`).
#[test]
fn metric_names_agree_across_carriers_and_tcp() {
    fn names(obs: &Obs, prefix: &str) -> BTreeSet<String> {
        let Value::Map(kinds) = obs.metrics.snapshot() else {
            panic!("a registry snapshot is a map");
        };
        kinds
            .into_iter()
            .flat_map(|(_, metrics)| match metrics {
                Value::Map(entries) => entries,
                _ => Vec::new(),
            })
            .filter_map(|(name, _)| match name {
                Value::Str(name) if name.starts_with(prefix) => Some(name),
                _ => None,
            })
            .collect()
    }

    let typed = Obs::enabled();
    run_two_hosts(false, &typed);
    let frames = Obs::enabled();
    run_two_hosts(true, &frames);
    let tcp_obs = Obs::enabled();
    let mut tcp = TcpCommunityDriver::build(RuntimeParams::default(), two_host_configs(&tcp_obs))
        .expect("bind localhost listeners");
    let hosts = tcp.hosts();
    let handle = tcp.submit(hosts[0], Spec::new(["a"], ["c"]));
    let report = tcp.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    for h in hosts {
        tcp.core_mut(h).publish_metrics();
    }
    let tcp_net = names(tcp.obs(), "net.");
    tcp.shutdown();

    let core = names(&typed, "core.");
    assert!(core.contains("core.messages"), "{core:?}");
    assert_eq!(core, names(&frames, "core."), "typed vs frame carrier");
    assert_eq!(core, names(&tcp_obs, "core."), "typed carrier vs TCP");
    let net = names(&typed, "net.");
    assert!(net.contains("net.delivered"), "{net:?}");
    assert_eq!(net, names(&frames, "net."), "typed vs frame carrier");
    assert!(tcp_net.contains("net.rx_frames"), "{tcp_net:?}");
}

/// Bytes on the wire scale with community size at fixed work — the
/// pairwise-communication linearity at the traffic level.
#[test]
fn traffic_grows_with_community_size() {
    let run = |bystanders: usize| {
        let mut builder = CommunityBuilder::new(62).host(
            HostConfig::new()
                .with_fragment(frag("f", "t", "a", "b"))
                .with_service(service("t")),
        );
        for _ in 0..bystanders {
            builder = builder.host(HostConfig::new());
        }
        let mut community = builder.build();
        let h = community.hosts()[0];
        let handle = community.submit(h, Spec::new(["a"], ["b"]));
        let report = community.run_until_complete(handle);
        assert!(matches!(report.status, ProblemStatus::Completed));
        community.stats().bytes_delivered
    };
    let small = run(1);
    let large = run(8);
    assert!(
        large > small * 3,
        "8 bystanders should multiply query traffic: {large} vs {small}"
    );
}

/// The [`WorkflowEvent`] stream well-formedness contract, checked on one
/// driver's event log: a `Completed` is always preceded (same host) by a
/// `Constructed` for the same problem, completions are unique per
/// problem, and every `PeerQuarantined` names the actual offender with a
/// rejection count at or past the host's quarantine threshold.
fn assert_event_stream_well_formed(
    events: &[(HostId, WorkflowEvent)],
    flooder: HostId,
    rejection_threshold: u64,
) {
    for (i, (host, event)) in events.iter().enumerate() {
        match event {
            WorkflowEvent::Completed { problem } => {
                let constructed = events[..i].iter().any(|(h, e)| {
                    h == host
                        && matches!(e, WorkflowEvent::Constructed { problem: p } if p == problem)
                });
                assert!(
                    constructed,
                    "Completed({problem:?}) on {host:?} without a prior Constructed"
                );
                let dup = events[i + 1..].iter().any(|(h, e)| {
                    h == host
                        && matches!(e, WorkflowEvent::Completed { problem: p } if p == problem)
                });
                assert!(!dup, "duplicate Completed({problem:?}) on {host:?}");
            }
            WorkflowEvent::PeerQuarantined { peer, rejections } => {
                assert_eq!(*peer, flooder, "quarantine must name the offender");
                assert!(
                    *rejections >= rejection_threshold,
                    "quarantine tripped below threshold: {rejections}"
                );
            }
            _ => {}
        }
    }
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, WorkflowEvent::Completed { .. })),
        "scenario must complete at least one problem"
    );
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, WorkflowEvent::PeerQuarantined { .. })),
        "scenario must quarantine the flooder"
    );
}

/// The two-honest-hosts-plus-flooder scenario used to provoke a full
/// event alphabet (Constructed, Completed, PeerQuarantined) on both
/// carriers: the flooder mints fresh symbols keyed to every label the
/// honest construction queries, so it offends in each wave.
fn flooder_scenario_configs() -> Vec<HostConfig> {
    let mint = |prefix: &str, input: &str| -> Vec<Fragment> {
        (0..8)
            .map(|i| {
                frag(
                    &format!("{prefix}-f{i}"),
                    &format!("{prefix}-t{i}"),
                    input,
                    &format!("{prefix}-out{i}"),
                )
            })
            .collect()
    };
    let mut flooder = HostConfig::new();
    for f in mint("obs-mint-a", "obs-a")
        .into_iter()
        .chain(mint("obs-mint-b", "obs-b"))
    {
        flooder = flooder.with_fragment(f);
    }
    vec![
        HostConfig::new()
            .with_fragment(frag("obs-f1", "obs-t1", "obs-a", "obs-b"))
            .with_service(service("obs-t2"))
            .with_vocabulary_cap(16)
            .with_max_vocabulary_rejections(2),
        HostConfig::new()
            .with_fragment(frag("obs-f2", "obs-t2", "obs-b", "obs-c"))
            .with_service(service("obs-t1")),
        flooder,
    ]
}

/// Runs the flooder scenario on one carrier and checks its event log.
fn check_flooder_event_stream<C: Carrier>(mut community: Community<C>) {
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["obs-a"], ["obs-c"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "honest peers complete despite the flooder: {report}"
    );
    assert_event_stream_well_formed(&community.all_events(), hosts[2], 2);
}

#[test]
fn workflow_event_stream_is_well_formed_on_the_sim_driver() {
    check_flooder_event_stream(
        CommunityBuilder::new(64)
            .hosts(flooder_scenario_configs())
            .build(),
    );
}

#[test]
fn workflow_event_stream_is_well_formed_on_the_loopback_driver() {
    check_flooder_event_stream(
        CommunityBuilder::new(64)
            .hosts(flooder_scenario_configs())
            .build_bytes(),
    );
}

/// A task with several outputs routes each label to its own consumers
/// and reports only goal labels to the initiator.
#[test]
fn multi_output_tasks_route_each_label() {
    // prep produces {salad, soup}; two different hosts consume one each;
    // final goals are the two plated dishes.
    let prep = Fragment::builder("prep")
        .task("prepare course", Mode::Conjunctive)
        .inputs(["ingredients"])
        .outputs(["salad", "soup"])
        .done()
        .build()
        .unwrap();
    let mut community = CommunityBuilder::new(63)
        .host(
            HostConfig::new()
                .with_fragment(prep)
                .with_fragment(frag("fa", "plate salad", "salad", "salad plated"))
                .with_fragment(frag("fb", "plate soup", "soup", "soup plated"))
                .with_service(service("prepare course")),
        )
        .host(HostConfig::new().with_service(service("plate salad")))
        .host(HostConfig::new().with_service(service("plate soup")))
        .build();
    let hosts = community.hosts();
    let handle = community.submit(
        hosts[0],
        Spec::new(["ingredients"], ["salad plated", "soup plated"]),
    );
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert_eq!(report.goals_delivered.len(), 2);
    // The platers each executed exactly one service.
    assert_eq!(
        community.core(hosts[1]).service_mgr().invocations().len(),
        1
    );
    assert_eq!(
        community.core(hosts[2]).service_mgr().invocations().len(),
        1
    );
}
