//! # openworkflow — dynamic construction of open workflows
//!
//! A production-quality Rust reproduction of *"Achieving Coordination
//! Through Dynamic Construction of Open Workflows"* (Thomas, Wilson,
//! Roman, Gill — WUCSE-2009-14, 2009): workflow middleware for transient
//! communities over ad hoc networks, where the workflow itself is
//! **constructed on the fly** from knowhow fragments scattered across the
//! participants, allocated by auction, and executed in a fully
//! decentralized way.
//!
//! This facade crate re-exports the workspace layers:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | [`wfcore`] | `openwf-core` | workflow model, fragments, composition, pruning, Algorithm 1 |
//! | [`obs`] | `openwf-obs` | metrics registry, causal workflow tracing, trace exporters |
//! | [`wire`] | `openwf-wire` | binary wire codec, vocabulary budget, durable fragment log |
//! | [`simnet`] | `openwf-simnet` | DES kernel, transports, latency models, faults |
//! | [`mobility`] | `openwf-mobility` | 2D locations, travel, waypoint mobility |
//! | [`runtime`] | `openwf-runtime` | the per-host managers and community harness |
//! | [`net`] | `openwf-net` | TCP serving tier: socket driver, `owms-serve` community server |
//! | [`scenario`] | `openwf-scenario` | supergraph generator, catering/emergency scenarios, experiments |
//!
//! ## Quickstart
//!
//! ```rust
//! use openworkflow::prelude::*;
//!
//! # fn main() {
//! // Two devices, each with half the knowledge and the *other* half of
//! // the capabilities — they must cooperate.
//! let mut community = CommunityBuilder::new(42)
//!     .host(
//!         HostConfig::new()
//!             .with_fragment(
//!                 Fragment::single_task(
//!                     "brew", "brew coffee", Mode::Conjunctive,
//!                     ["beans ground"], ["coffee ready"],
//!                 ).unwrap(),
//!             )
//!             .with_service(ServiceDescription::new("grind beans", SimDuration::from_secs(60))),
//!     )
//!     .host(
//!         HostConfig::new()
//!             .with_fragment(
//!                 Fragment::single_task(
//!                     "grind", "grind beans", Mode::Conjunctive,
//!                     ["beans available"], ["beans ground"],
//!                 ).unwrap(),
//!             )
//!             .with_service(ServiceDescription::new("brew coffee", SimDuration::from_secs(120))),
//!     )
//!     .build();
//!
//! let initiator = community.hosts()[0];
//! let handle = community.submit(initiator, Spec::new(["beans available"], ["coffee ready"]));
//! let report = community.run_until_complete(handle);
//! assert!(matches!(report.status, ProblemStatus::Completed));
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use openwf_core as wfcore;
pub use openwf_mobility as mobility;
pub use openwf_net as net;
pub use openwf_obs as obs;
pub use openwf_runtime as runtime;
pub use openwf_scenario as scenario;
pub use openwf_simnet as simnet;
pub use openwf_wire as wire;

/// The most common imports for building and running open workflows.
pub mod prelude {
    pub use openwf_core::{
        compose, compose_all, Constructor, Fragment, FragmentBuilder, InMemoryFragmentStore,
        IncrementalConstructor, Label, Mode, PickOrder, Spec, Supergraph, TaskId, Workflow,
    };
    pub use openwf_mobility::{Motion, Point, SiteMap};
    pub use openwf_net::{NetServer, ServerConfig, TcpCommunityDriver};
    pub use openwf_obs::Obs;
    pub use openwf_runtime::{
        Community, CommunityBuilder, Driver, HostConfig, HostCore, Preferences, ProblemStatus,
        RuntimeParams, ServiceDescription, StorageConfig, WireFrame, WorkflowEvent,
    };
    pub use openwf_simnet::{
        ConstantLatency, HostId, SimDuration, SimTime, UniformLatency, Wireless80211g,
    };
    pub use openwf_wire::{DurableFragmentStore, VocabularyBudget};
}
