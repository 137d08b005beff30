//! The open workflow host: one participant's device on the simulated
//! network.
//!
//! [`OwmsHost`] is a **thin transport adapter**: all protocol logic lives
//! in the sans-io [`HostCore`] state machine (see [`crate::core_sm`]).
//! This type merely implements [`Actor`] for every [`Carrier`] by
//! handing each delivered message/timer to the core and replaying the
//! returned [`ActionQueue`] onto the simulator's [`Context`] — sends
//! become `ctx.send` in the carrier's form, timers become
//! `ctx.set_timer`, compute charges become `ctx.charge`, and
//! [`WorkflowEvent`]s are collected for inspection.

use std::fmt;

use openwf_simnet::{Actor, Context, HostId, TimerToken};

use crate::core_sm::{Action, ActionQueue, HostCore, WorkflowEvent};
use crate::driver::Carrier;
use crate::params::RuntimeParams;

pub use crate::core_sm::{HostConfig, StorageConfig};

/// One participant's device: the sans-io [`HostCore`] bound to the
/// simulator transport.
pub struct OwmsHost {
    core: HostCore,
    events: Vec<WorkflowEvent>,
}

impl OwmsHost {
    /// Builds a host from its configuration.
    ///
    /// # Panics
    ///
    /// Panics when [`StorageConfig::Durable`] storage cannot be opened
    /// or an insert cannot be persisted (I/O failure, corrupt log).
    pub fn new(config: HostConfig, params: RuntimeParams) -> Self {
        OwmsHost {
            core: HostCore::new(config, params),
            events: Vec::new(),
        }
    }

    /// The sans-io protocol core this adapter drives.
    pub fn core(&self) -> &HostCore {
        &self.core
    }

    /// Mutable access to the protocol core.
    pub fn core_mut(&mut self) -> &mut HostCore {
        &mut self.core
    }

    /// Workflow events the core surfaced so far (milestones, quarantine
    /// decisions), in emission order.
    pub fn events(&self) -> &[WorkflowEvent] {
        &self.events
    }

    /// Replays a core action queue onto the simulator context. A send
    /// in the other form than the carrier's (a core whose
    /// [`crate::OutboundMode`] was switched by hand) is converted by the
    /// carrier rather than lost.
    fn apply<C: Carrier>(&mut self, queue: ActionQueue, ctx: &mut Context<'_, C>) {
        ctx.charge(queue.charged());
        for action in queue {
            match action {
                Action::Send { to, msg } => ctx.send(to, C::from_msg(msg)),
                Action::SendBytes { to, bytes } => {
                    if let Some(msg) = C::from_frame(bytes) {
                        ctx.send(to, msg);
                    }
                }
                Action::SetTimer { delay, token } => ctx.set_timer(delay, token),
                Action::Event(event) => self.events.push(event),
            }
        }
    }
}

impl<C: Carrier> Actor<C> for OwmsHost {
    fn on_message(&mut self, from: HostId, msg: C, ctx: &mut Context<'_, C>) {
        self.core.bind(ctx.self_id());
        let queue = msg.deliver(&mut self.core, from, ctx.now());
        self.apply(queue, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, C>) {
        self.core.bind(ctx.self_id());
        let queue = self.core.handle_timer(token, ctx.now());
        self.apply(queue, ctx);
    }
}

impl fmt::Debug for OwmsHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OwmsHost")
            .field("core", &self.core)
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Fragment, Mode, Spec, TaskId};
    use openwf_simnet::SimDuration;

    use crate::messages::{Msg, ProblemId};
    use crate::service::ServiceDescription;
    use crate::workflow_mgr::Phase;

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn service(task: &str) -> ServiceDescription {
        ServiceDescription::new(task, SimDuration::from_millis(10))
    }

    /// A one-host community: the full pipeline (construction, self-bid
    /// auction, execution) runs entirely through local loopback.
    #[test]
    fn single_host_end_to_end() {
        use openwf_simnet::SimNetwork;
        let mut net: SimNetwork<Msg, OwmsHost> = SimNetwork::new(1);
        let cfg = HostConfig::new()
            .with_fragment(frag("f1", "t1", "a", "b"))
            .with_fragment(frag("f2", "t2", "b", "c"))
            .with_service(service("t1"))
            .with_service(service("t2"));
        let mut host = OwmsHost::new(cfg, RuntimeParams::default());
        host.core_mut().set_community(vec![HostId(0)]);
        let h = net.add_host(host);
        let problem = ProblemId::new(h, 0);
        net.send_external(
            h,
            h,
            Msg::Initiate {
                problem,
                spec: Spec::new(["a"], ["c"]),
            },
        );
        net.run_until_quiescent();

        let ws = net
            .host(h)
            .core()
            .workflow_mgr()
            .get(&problem)
            .expect("workspace");
        assert_eq!(ws.phase, Phase::Completed, "report: {}", ws.report);
        assert_eq!(ws.report.assignments.len(), 2);
        assert!(ws.report.timings.spec_to_allocated().is_some());
        assert!(ws.report.timings.total().is_some());
        // Services actually ran, in dependency order.
        let inv = net.host(h).core().service_mgr().invocations();
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[0].task, TaskId::new("t1"));
        assert_eq!(inv[1].task, TaskId::new("t2"));
        // The adapter surfaced the core's milestone events.
        assert!(net
            .host(h)
            .events()
            .iter()
            .any(|e| matches!(e, WorkflowEvent::Constructed { .. })));
        assert!(net
            .host(h)
            .events()
            .iter()
            .any(|e| matches!(e, WorkflowEvent::Completed { .. })));
    }

    /// A core someone switched to `OutboundMode::Encoded` still works on
    /// the typed simulator: the adapter carries its frames back to
    /// typed messages instead of losing them.
    #[test]
    fn encoded_mode_core_still_runs_on_the_simulator() {
        use crate::core_sm::OutboundMode;
        use openwf_simnet::SimNetwork;
        let mut net: SimNetwork<Msg, OwmsHost> = SimNetwork::new(1);
        let cfg = HostConfig::new()
            .with_fragment(frag("em-f1", "em-t1", "em-a", "em-b"))
            .with_service(service("em-t1"));
        let mut host = OwmsHost::new(cfg, RuntimeParams::default());
        host.core_mut().set_community(vec![HostId(0)]);
        host.core_mut().set_outbound_mode(OutboundMode::Encoded);
        let h = net.add_host(host);
        let problem = ProblemId::new(h, 0);
        net.send_external(
            h,
            h,
            Msg::Initiate {
                problem,
                spec: Spec::new(["em-a"], ["em-b"]),
            },
        );
        net.run_until_quiescent();
        let ws = net
            .host(h)
            .core()
            .workflow_mgr()
            .get(&problem)
            .expect("workspace");
        assert_eq!(ws.phase, Phase::Completed, "report: {}", ws.report);
    }

    /// Trivial problem: the goal is already a trigger.
    #[test]
    fn trivial_problem_completes_without_tasks() {
        use openwf_simnet::SimNetwork;
        let mut net: SimNetwork<Msg, OwmsHost> = SimNetwork::new(1);
        let mut host = OwmsHost::new(HostConfig::new(), RuntimeParams::default());
        host.core_mut().set_community(vec![HostId(0)]);
        let h = net.add_host(host);
        let problem = ProblemId::new(h, 0);
        net.send_external(
            h,
            h,
            Msg::Initiate {
                problem,
                spec: Spec::new(["a"], ["a"]),
            },
        );
        net.run_until_quiescent();
        let ws = net.host(h).core().workflow_mgr().get(&problem).unwrap();
        assert_eq!(ws.phase, Phase::Completed);
        assert!(ws.report.assignments.is_empty());
    }

    /// An unsatisfiable problem fails cleanly.
    #[test]
    fn unsatisfiable_problem_fails() {
        use openwf_simnet::SimNetwork;
        let mut net: SimNetwork<Msg, OwmsHost> = SimNetwork::new(1);
        let cfg = HostConfig::new().with_fragment(frag("f1", "t1", "a", "b"));
        let mut host = OwmsHost::new(cfg, RuntimeParams::default());
        host.core_mut().set_community(vec![HostId(0)]);
        let h = net.add_host(host);
        let problem = ProblemId::new(h, 0);
        net.send_external(
            h,
            h,
            Msg::Initiate {
                problem,
                spec: Spec::new(["a"], ["nothing makes this"]),
            },
        );
        net.run_until_quiescent();
        let ws = net.host(h).core().workflow_mgr().get(&problem).unwrap();
        assert_eq!(ws.phase, Phase::Failed);
        assert!(matches!(
            ws.report.status,
            crate::report::ProblemStatus::Failed { .. }
        ));
        // Terminal failure surfaces as an event.
        assert!(net
            .host(h)
            .events()
            .iter()
            .any(|e| matches!(e, WorkflowEvent::Failed { .. })));
    }

    /// Capability gating: knowledge exists but no service anywhere — the
    /// wait-staff example's mechanism.
    #[test]
    fn missing_capability_fails_construction() {
        use openwf_simnet::SimNetwork;
        let mut net: SimNetwork<Msg, OwmsHost> = SimNetwork::new(1);
        let cfg = HostConfig::new().with_fragment(frag("f1", "t1", "a", "b"));
        // No service for t1.
        let mut host = OwmsHost::new(cfg, RuntimeParams::default());
        host.core_mut().set_community(vec![HostId(0)]);
        let h = net.add_host(host);
        let problem = ProblemId::new(h, 0);
        net.send_external(
            h,
            h,
            Msg::Initiate {
                problem,
                spec: Spec::new(["a"], ["b"]),
            },
        );
        net.run_until_quiescent();
        let ws = net.host(h).core().workflow_mgr().get(&problem).unwrap();
        assert_eq!(ws.phase, Phase::Failed);
    }
}
