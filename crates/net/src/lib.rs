//! # openwf-net — the real-I/O serving tier
//!
//! Everything below this crate is sans-io: the protocol cores
//! ([`openwf_runtime::HostCore`]) return effect queues and never touch
//! a socket, and the simulator replays them under virtual time with
//! either carrier. This crate is the real transport — **TCP** — built from
//! `std::net` only (the workspace builds offline; no async runtime, no
//! poll library):
//!
//! * [`NetServer`] — one process's reactor: many communities' cores,
//!   one listener, per-connection reader/writer threads around bounded
//!   outbound queues, all protocol logic single-threaded in
//!   [`NetServer::poll`]. Frames cross sockets length-prefixed and are
//!   reassembled by the streaming [`openwf_wire::FrameDecoder`];
//!   [`openwf_wire::frame_tag`] routes them. Timer-driven progress
//!   comes from [`openwf_runtime::HostCore::next_timer_due`] bounding
//!   every socket wait, with [`openwf_runtime::HostCore::tick`] firing
//!   matured timeouts — a silent peer cannot wedge a workflow.
//! * [`TcpCommunityDriver`] — the [`openwf_runtime::Driver`] trait over
//!   that reactor: one server per host, meshed over `127.0.0.1`, so any
//!   scenario written against the trait runs unchanged on real sockets.
//! * `owms-serve` — the standalone community server binary on top of
//!   [`NetServer`]: XML host configs, durable fragment stores, metrics
//!   scrapes, trace export, graceful shutdown. Multiple OS processes
//!   running it construct one workflow over real wires (the
//!   `serve_process` integration test proves digest-identical know-how
//!   against a simulator run of the same scenario).
//!
//! Transport metrics land in the crate's [`openwf_obs`] registry under
//! `net.*` (`net.rx_frames`, `net.tx_bytes`, `net.conn_slow_drops`,
//! `net.tx_queue_depth`, …); scrape with [`NetServer::scrape`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod conn;
pub mod json;
pub mod proto;
pub mod server;

mod driver;

pub use clock::WallClock;
pub use conn::{ConnId, IoEvent, OutboundQueue, PushError, QueueCaps};
pub use driver::{TcpCommunityDriver, DRIVER_COMMUNITY};
pub use json::value_to_json;
pub use proto::{
    Envelope, Hello, NET_PROTO_VERSION, TAG_NET_ENVELOPE, TAG_NET_GOODBYE, TAG_NET_HELLO,
    TAG_NET_SHUTDOWN,
};
pub use server::{NetServer, ServerConfig, ShutdownReport};
