//! # openwf-simnet — communications substrate for open workflows
//!
//! The open workflow architecture (§4.2 of WUCSE-2009-14) requires an
//! *abstract communications layer* that "isolates and hides the highly
//! variable details of the transports, protocols, and caching schemes used
//! during communication". This crate provides the simulated side of that
//! layer: [`SimNetwork`], a deterministic, single-threaded
//! **discrete-event simulation** kernel with a virtual clock. Hosts are
//! [`Actor`] state machines; messages are delivered through a pluggable
//! [`LatencyModel`] over a [`Topology`] with optional [`FaultInjector`]
//! drops, byte damage, duplication, reordering and crashes. All
//! experiments in the paper's §5 run on this kernel (the paper ran its
//! simulations "within a single JVM … through a simulated network").
//! The kernel is generic over the [`Message`] it moves: the runtime runs
//! it with typed protocol messages or with encoded wire frames, and
//! real sockets are the job of `openwf-net`'s TCP driver, which runs
//! the same protocol core.
//!
//! Determinism: with the same seed and the same actor behavior, a
//! [`SimNetwork`] run produces the identical event sequence — a property
//! the experiment harness relies on and the tests assert.
//!
//! ```rust
//! use openwf_simnet::{Actor, Context, HostId, Message, SimNetwork};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Message for Ping {
//!     fn wire_size(&self) -> usize { 8 }
//! }
//!
//! struct Echo;
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, from: HostId, msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         if msg.0 < 3 {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//! }
//!
//! let mut net = SimNetwork::new(42);
//! let a = net.add_host(Echo);
//! let b = net.add_host(Echo);
//! net.send_external(a, b, Ping(0));
//! net.run_until_quiescent();
//! assert_eq!(net.stats().delivered, 4); // 0,1,2,3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod actor;
pub mod chaos;
pub mod event;
pub mod fault;
pub mod latency;
pub mod message;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

pub use actor::{Actor, Context, TimerToken};
pub use chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
pub use event::{Event, EventKind};
pub use fault::FaultInjector;
pub use latency::{ConstantLatency, LatencyModel, UniformLatency, Wireless80211g};
pub use message::{Damage, HostId, Message};
pub use sim::SimNetwork;
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
