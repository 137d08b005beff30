//! Drivers: transports that own the clock and the pipes and poll the
//! sans-io [`HostCore`] state machines.
//!
//! The protocol core performs no I/O — every poll call returns an
//! [`crate::core_sm::ActionQueue`] of typed effects. A [`Driver`] is the
//! half that *performs* them: it schedules message deliveries, arms
//! timers, advances a clock, and feeds inputs back into the cores.
//!
//! In this crate the one driver is [`crate::Community`]: the
//! deterministic `openwf-simnet` kernel with a pluggable
//! latency/topology/fault model, moving one of two [`Carrier`]s — typed
//! [`crate::Msg`]s or encoded [`WireFrame`]s — chosen by the
//! community's type. `openwf-net`'s `TcpCommunityDriver` runs the same
//! cores over real sockets.
//!
//! Any other transport drives the same cores the same way: deliver
//! bytes through [`HostCore::handle_frame`], fire timers via
//! [`HostCore::handle_timer`] or poll [`HostCore::tick`], and perform
//! the returned actions.

use openwf_core::Spec;
use openwf_simnet::{HostId, SimTime};

use crate::core_sm::HostCore;
use crate::messages::ProblemId;
use crate::report::ProblemReport;
use crate::workflow_mgr::Phase;

mod carrier;

pub use carrier::{Carrier, WireFrame};

/// Handle to a submitted problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemHandle {
    /// The first-attempt problem id.
    pub id: ProblemId,
}

/// A transport driving a community of [`HostCore`] state machines.
///
/// The required surface is small — host enumeration, core access, a
/// clock, problem submission and single-stepping; the problem-driving
/// conveniences are provided on top of it and therefore behave
/// identically across transports.
pub trait Driver {
    /// All host ids in the community, in order.
    fn hosts(&self) -> Vec<HostId>;

    /// The protocol core of one host, for inspection.
    fn core(&self, id: HostId) -> &HostCore;

    /// Mutable access to one host's protocol core (e.g. to install
    /// service hooks before driving).
    fn core_mut(&mut self, id: HostId) -> &mut HostCore;

    /// Current time on this driver's clock.
    fn now(&self) -> SimTime;

    /// Submits a problem specification to `initiator` (the Workflow
    /// Initiator's job in §4.2). Returns a handle for driving/reporting.
    fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle;

    /// Processes the next pending event. Returns `false` when the driver
    /// is quiescent (nothing queued).
    fn step(&mut self) -> bool;

    /// Runs until no events remain. Returns the final time.
    fn run_until_quiescent(&mut self) -> SimTime {
        while self.step() {}
        self.now()
    }

    /// The latest-attempt report for a problem, if any.
    fn report(&self, handle: ProblemHandle) -> Option<ProblemReport> {
        self.core(handle.id.initiator)
            .latest_attempt(handle.id)
            .map(|ws| ws.report.clone())
    }

    /// The latest-attempt phase for a problem.
    fn phase(&self, handle: ProblemHandle) -> Option<Phase> {
        self.core(handle.id.initiator)
            .latest_attempt(handle.id)
            .map(|ws| ws.phase.clone())
    }

    /// Runs until the problem's tasks are all allocated (the paper's
    /// measurement endpoint) or the problem fails; returns the report.
    fn run_until_allocated(&mut self, handle: ProblemHandle) -> ProblemReport {
        loop {
            let settled = self
                .core(handle.id.initiator)
                .latest_attempt(handle.id)
                .map(|ws| ws.report.timings.allocated_at.is_some() || ws.phase == Phase::Failed)
                .unwrap_or(false);
            if settled || !self.step() {
                break;
            }
        }
        self.report(handle).expect("workspace exists after submit")
    }

    /// Runs until the problem completes (all goals delivered) or fails;
    /// returns the report.
    fn run_until_complete(&mut self, handle: ProblemHandle) -> ProblemReport {
        loop {
            let settled = self
                .core(handle.id.initiator)
                .latest_attempt(handle.id)
                .map(|ws| matches!(ws.phase, Phase::Completed | Phase::Failed))
                .unwrap_or(false);
            if settled || !self.step() {
                break;
            }
        }
        self.report(handle).expect("workspace exists after submit")
    }
}
