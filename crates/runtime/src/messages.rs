//! The open workflow wire protocol.
//!
//! Figure 3 of the paper names four message families crossing the
//! communications layer: *fragment messages*, *service feasibility
//! messages*, *auction messages*, and *inter-service messages*. [`Msg`]
//! carries all four plus the problem-initiation and repair control
//! messages.

use std::fmt;
use std::sync::Arc;

use openwf_core::{Fragment, Label, Spec, TaskId};
use openwf_simnet::{HostId, Message};

use crate::metadata::{Assignment, ExecutionPlan, TaskMetadata};

/// Globally unique problem identifier: initiating host + local sequence +
/// repair attempt.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProblemId {
    /// The initiating host.
    pub initiator: HostId,
    /// Per-initiator sequence number.
    pub seq: u32,
    /// Repair attempt (0 = first try).
    pub attempt: u32,
}

impl ProblemId {
    /// Creates the id of the first attempt of a problem.
    pub fn new(initiator: HostId, seq: u32) -> Self {
        ProblemId {
            initiator,
            seq,
            attempt: 0,
        }
    }

    /// The id of the next repair attempt of the same problem.
    pub fn next_attempt(self) -> Self {
        ProblemId {
            attempt: self.attempt + 1,
            ..self
        }
    }

    /// True if `other` is an attempt of the same logical problem.
    pub fn same_problem(self, other: ProblemId) -> bool {
        self.initiator == other.initiator && self.seq == other.seq
    }

    /// The trace-correlation id of this attempt: the
    /// `(initiator, seq, attempt)` triple packed into a `u64` (see
    /// `openwf_obs::pack_trace_id`). Every protocol message carries a
    /// `ProblemId`, so this id stitches one attempt's events across
    /// hosts without any extra wire bytes.
    pub fn trace_id(self) -> u64 {
        openwf_obs::pack_trace_id(self.initiator.0, self.seq, self.attempt)
    }
}

impl fmt::Debug for ProblemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}/{}#{}", self.initiator.0, self.seq, self.attempt)
    }
}

impl fmt::Display for ProblemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// All protocol messages exchanged between open workflow hosts.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Msg {
    /// Driver → initiator: a participant expressed a need (the Workflow
    /// Initiator's output, §4.2).
    Initiate {
        /// Problem id (chosen by the driver/initiator).
        problem: ProblemId,
        /// The specification ι → ω.
        spec: Spec,
    },

    /// Initiator → all: which fragments consume these labels? (knowhow
    /// query during incremental supergraph growth).
    FragmentQuery {
        /// Problem this query belongs to.
        problem: ProblemId,
        /// Round number (matches replies to rounds).
        round: u32,
        /// Frontier labels.
        labels: Vec<Label>,
    },

    /// Host → initiator: fragments matching a query.
    FragmentReply {
        /// Problem this reply belongs to.
        problem: ProblemId,
        /// Round the reply answers.
        round: u32,
        /// Matching fragments from the replier's Fragment Manager, shared
        /// (cloning a reply — e.g. when the simulated network fans a
        /// message out — bumps reference counts instead of copying
        /// graphs).
        fragments: Vec<Arc<Fragment>>,
    },

    /// Initiator → all: can anyone perform these tasks? (service
    /// feasibility messages of Figure 3).
    CapabilityQuery {
        /// Problem this query belongs to.
        problem: ProblemId,
        /// Round number.
        round: u32,
        /// Tasks newly discovered in the supergraph.
        tasks: Vec<TaskId>,
    },

    /// Host → initiator: the subset of queried tasks this host can serve.
    CapabilityReply {
        /// Problem this reply belongs to.
        problem: ProblemId,
        /// Round the reply answers.
        round: u32,
        /// Tasks the replier offers a service for.
        capable: Vec<TaskId>,
    },

    /// Auction manager → all: solicit bids for one task (§3.2).
    CallForBids {
        /// Problem being allocated.
        problem: ProblemId,
        /// The task up for auction.
        task: TaskId,
        /// Scheduling metadata (level, location, earliest start…).
        meta: TaskMetadata,
    },

    /// Participant → auction manager: a firm bid.
    Bid {
        /// Problem being allocated.
        problem: ProblemId,
        /// Task being bid on.
        task: TaskId,
        /// The bid.
        bid: crate::auction_part::Bid,
    },

    /// Participant → auction manager: cannot serve this task.
    Decline {
        /// Problem being allocated.
        problem: ProblemId,
        /// Task declined.
        task: TaskId,
    },

    /// Auction manager → winner: the task is yours.
    Award {
        /// Problem being allocated.
        problem: ProblemId,
        /// Task awarded.
        task: TaskId,
        /// Assignment details (time, location).
        assignment: Assignment,
    },

    /// Initiator → each executor: the routing/commitment plan for the
    /// tasks it won (sent once allocation is complete).
    Execute {
        /// Problem to execute.
        problem: ProblemId,
        /// This host's slice of the execution plan.
        plan: ExecutionPlan,
    },

    /// Executor → executor: a produced label traveling to a dependent task
    /// (inter-service messages of Figure 3). Also used by the initiator to
    /// seed trigger labels.
    InputDelivery {
        /// Problem being executed.
        problem: ProblemId,
        /// The label being delivered.
        label: Label,
    },

    /// Executor → initiator: a service invocation finished.
    TaskCompleted {
        /// Problem being executed.
        problem: ProblemId,
        /// Completed task.
        task: TaskId,
    },

    /// Executor → initiator: a goal label was produced and delivered.
    GoalDelivered {
        /// Problem being executed.
        problem: ProblemId,
        /// The goal label.
        label: Label,
    },
}

impl Msg {
    /// The problem (attempt) this message belongs to. Every variant
    /// carries one — it doubles as the trace-correlation key
    /// ([`ProblemId::trace_id`]).
    pub fn problem(&self) -> ProblemId {
        match self {
            Msg::Initiate { problem, .. }
            | Msg::FragmentQuery { problem, .. }
            | Msg::FragmentReply { problem, .. }
            | Msg::CapabilityQuery { problem, .. }
            | Msg::CapabilityReply { problem, .. }
            | Msg::CallForBids { problem, .. }
            | Msg::Bid { problem, .. }
            | Msg::Decline { problem, .. }
            | Msg::Award { problem, .. }
            | Msg::Execute { problem, .. }
            | Msg::InputDelivery { problem, .. }
            | Msg::TaskCompleted { problem, .. }
            | Msg::GoalDelivered { problem, .. } => *problem,
        }
    }

    /// The variant's name — `"CallForBids"`, `"Bid"` — which names the
    /// core's per-message trace instant. Static, so tracing never
    /// formats the message body.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Initiate { .. } => "Initiate",
            Msg::FragmentQuery { .. } => "FragmentQuery",
            Msg::FragmentReply { .. } => "FragmentReply",
            Msg::CapabilityQuery { .. } => "CapabilityQuery",
            Msg::CapabilityReply { .. } => "CapabilityReply",
            Msg::CallForBids { .. } => "CallForBids",
            Msg::Bid { .. } => "Bid",
            Msg::Decline { .. } => "Decline",
            Msg::Award { .. } => "Award",
            Msg::Execute { .. } => "Execute",
            Msg::InputDelivery { .. } => "InputDelivery",
            Msg::TaskCompleted { .. } => "TaskCompleted",
            Msg::GoalDelivered { .. } => "GoalDelivered",
        }
    }

    /// Shorthand for `self.problem().trace_id()`.
    pub fn trace_id(&self) -> u64 {
        self.problem().trace_id()
    }
}

impl Message for Msg {
    fn wire_size(&self) -> usize {
        // Rough serialized sizes; the wireless model charges bandwidth by
        // these. Constants approximate a compact binary encoding.
        // Calibrated against `codec::encoded_len` (the exact frame
        // size): a bounded overestimate, observed at 1.75×–4.04× across
        // all 13 variants with typical community name lengths — the
        // per-name constant assumes names are spelled per reference,
        // while the real codec's per-frame name table spells each once
        // (see tests/wire_size_calibration.rs, which pins the band).
        match self {
            Msg::Initiate { spec, .. } => 32 + 24 * (spec.triggers().len() + spec.goals().len()),
            Msg::FragmentQuery { labels, .. } => 32 + 24 * labels.len(),
            Msg::FragmentReply { fragments, .. } => {
                32 + fragments
                    .iter()
                    .map(|f| 48 + 32 * f.graph().node_count() + 16 * f.graph().edge_count())
                    .sum::<usize>()
            }
            Msg::CapabilityQuery { tasks, .. } => 32 + 24 * tasks.len(),
            Msg::CapabilityReply { capable, .. } => 32 + 24 * capable.len(),
            Msg::CallForBids { .. } => 96,
            Msg::Bid { .. } => 64,
            Msg::Decline { .. } => 40,
            Msg::Award { .. } => 96,
            Msg::Execute { plan, .. } => 64 + 64 * plan.commitments.len(),
            Msg::InputDelivery { label, .. } => 40 + label.as_str().len(),
            Msg::TaskCompleted { .. } => 40,
            Msg::GoalDelivered { .. } => 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::Mode;

    #[test]
    fn problem_ids_track_attempts() {
        let p = ProblemId::new(HostId(2), 7);
        assert_eq!(p.attempt, 0);
        let r = p.next_attempt();
        assert_eq!(r.attempt, 1);
        assert!(p.same_problem(r));
        assert_ne!(p, r);
        assert!(!p.same_problem(ProblemId::new(HostId(2), 8)));
        assert_eq!(format!("{p}"), "p2/7#0");
    }

    #[test]
    fn trace_ids_are_distinct_per_attempt_and_match_the_id() {
        let p = ProblemId::new(HostId(2), 7);
        assert_ne!(p.trace_id(), p.next_attempt().trace_id());
        assert_ne!(p.trace_id(), ProblemId::new(HostId(3), 7).trace_id());
        assert_eq!(
            openwf_obs::unpack_trace_id(p.trace_id()),
            (2, 7, 0),
            "trace id must round-trip the identity triple"
        );
        let m = Msg::TaskCompleted {
            problem: p,
            task: TaskId::new("t"),
        };
        assert_eq!(m.problem(), p);
        assert_eq!(m.trace_id(), p.trace_id());
        assert_eq!(m.kind(), "TaskCompleted");
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let p = ProblemId::new(HostId(0), 0);
        let small = Msg::FragmentQuery {
            problem: p,
            round: 0,
            labels: vec![Label::new("a")],
        };
        let big = Msg::FragmentQuery {
            problem: p,
            round: 0,
            labels: (0..100).map(|i| Label::new(format!("l{i}"))).collect(),
        };
        assert!(big.wire_size() > small.wire_size());

        let frag = Fragment::single_task("f", "t", Mode::Disjunctive, ["a"], ["b"]).unwrap();
        let reply = Msg::FragmentReply {
            problem: p,
            round: 0,
            fragments: vec![std::sync::Arc::new(frag)],
        };
        assert!(reply.wire_size() > 100);
    }

    #[test]
    fn control_messages_are_small() {
        let p = ProblemId::new(HostId(0), 0);
        let m = Msg::TaskCompleted {
            problem: p,
            task: TaskId::new("t"),
        };
        assert!(m.wire_size() < 128);
    }
}
