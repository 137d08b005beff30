//! # openwf-runtime — the open workflow management system
//!
//! This crate is the distributed runtime of WUCSE-2009-14 §4: every
//! participant's device runs a sans-io [`HostCore`] state machine
//! combining the paper's two subsystems. The core performs no I/O — a
//! [`Driver`] transport polls it ([`Community`] on the deterministic
//! simulator, where [`OwmsHost`] is the thin `simnet` actor adapter and
//! the [`Carrier`] is typed [`Msg`]s or encoded [`WireFrame`]s):
//!
//! **Construction subsystem** (active on the initiating host):
//! * [`WorkflowManager`](workflow_mgr::WorkflowManager) — one isolated
//!   [`Workspace`](workflow_mgr::Workspace) per problem; issues fragment
//!   and capability queries, grows the supergraph incrementally along the
//!   colored frontier, and runs Algorithm 1's coloring phases.
//! * Auction Manager ([`auction::ProblemAuctions`]) — solicits firm bids for
//!   every task, keeps the best tentative allocation, and finalizes on
//!   bidder deadlines (§3.2's CiAN-style auction).
//!
//! **Execution subsystem** (active on every host):
//! * [`FragmentManager`](fragment_mgr::FragmentManager) — the local
//!   knowhow database, answering fragment queries.
//! * [`ServiceManager`](service::ServiceManager) — local service registry,
//!   capability answers, and invocation.
//! * [`ScheduleManager`](schedule::ScheduleManager) — commitments,
//!   availability and travel-time checks.
//! * [`AuctionParticipationManager`](auction_part::AuctionParticipationManager)
//!   — bid computation against capabilities, schedule and preferences.
//! * [`ExecutionManager`](exec::ExecutionManager) — monitors input and
//!   time conditions, travels, invokes services, and publishes outputs to
//!   dependent hosts.
//!
//! [`Community`] assembles hosts on a simulated network and drives
//! end-to-end problems through the [`Driver`] methods; it is the entry
//! point used by the examples, the integration tests, and every §5
//! experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod auction;
pub mod auction_part;
pub mod codec;
pub mod community;
pub mod config;
pub mod core_sm;
pub mod driver;
pub mod exec;
pub mod fragment_mgr;
pub mod host;
pub mod messages;
pub mod metadata;
pub mod params;
pub mod prefs;
pub mod report;
pub mod schedule;
pub mod service;
pub mod vocab;
pub mod workflow_mgr;

pub use codec::{decode_msg, decode_msg_traced_with, encode_msg, encode_msg_traced};
pub use community::{Community, CommunityBuilder, ProblemHandle};
pub use core_sm::{Action, ActionQueue, HostCore, OutboundMode, WorkflowEvent};
pub use driver::{Carrier, Driver, WireFrame};
pub use host::{HostConfig, OwmsHost, StorageConfig};
pub use messages::{Msg, ProblemId};
pub use metadata::{Assignment, TaskMetadata};
pub use params::RuntimeParams;
pub use prefs::Preferences;
pub use report::{PhaseTimings, ProblemReport, ProblemStatus};
pub use schedule::Commitment;
pub use service::ServiceDescription;
pub use vocab::{VocabularyExceeded, VocabularyGuard};
