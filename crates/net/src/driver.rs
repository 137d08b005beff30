//! The third [`Driver`]: a whole community over real TCP.
//!
//! [`TcpCommunityDriver`] gives every host its **own** [`NetServer`] —
//! own listener, own port, own reactor state — inside one process, with
//! a full routing mesh over `127.0.0.1`. Every protocol message crosses
//! a real socket as encoded wire bytes: kernel buffering, arbitrary
//! segmentation, genuine reader/writer threads. The cores cannot tell
//! this transport from a distributed deployment, which is the point —
//! it is the same reactor `owms-serve` runs, driven through the same
//! [`Driver`] surface as the simulator's [`openwf_runtime::Community`]
//! (on either of its carriers), so any scenario written against the
//! trait runs unchanged on real I/O.
//!
//! # Quiescence on a wall clock
//!
//! The simulator knows exactly when nothing remains. A socket
//! driver cannot: silence might be in-flight bytes. [`Driver::step`]
//! therefore reports quiescence only after `idle_grace` of continuous
//! silence **and** no core timer due within `timer_horizon`. The
//! horizon matters: [`openwf_runtime::RuntimeParams`] defaults include
//! a 24-hour execution watchdog, which must not keep a wall-clock
//! driver alive — a wedged run stops after the grace period and the
//! caller reads the non-terminal report. Timers *within* the horizon
//! (round timeouts, bid patience) are waited for and fired, which is
//! how a silent peer's timeout drives repair instead of a wedge.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use openwf_obs::Obs;
use openwf_runtime::{Driver, HostConfig, HostCore, ProblemHandle, RuntimeParams, WorkflowEvent};
use openwf_simnet::{HostId, SimTime};

use crate::clock::WallClock;
use crate::server::{NetServer, ServerConfig, ShutdownReport};

/// The community id a [`TcpCommunityDriver`] serves (it hosts exactly
/// one community).
pub const DRIVER_COMMUNITY: u64 = 0;

/// A community of [`HostCore`]s cooperating over real TCP sockets.
pub struct TcpCommunityDriver {
    servers: Vec<NetServer>,
    clock: WallClock,
    idle_grace: Duration,
    timer_horizon: Duration,
    last_activity: Instant,
}

impl TcpCommunityDriver {
    /// Builds one server per host config, all listening on ephemeral
    /// `127.0.0.1` ports, fully route-meshed, sharing one clock anchor
    /// and one observability registry.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn build(params: RuntimeParams, configs: Vec<HostConfig>) -> std::io::Result<Self> {
        let clock = WallClock::new();
        let obs = Obs::enabled();
        let n = configs.len();
        let mut servers = Vec::with_capacity(n);
        for (i, config) in configs.into_iter().enumerate() {
            let mut server = NetServer::new(ServerConfig {
                name: format!("tcp-driver-{i}"),
                obs: obs.clone(),
                clock,
                ..ServerConfig::default()
            })?;
            server.add_core(DRIVER_COMMUNITY, HostId(i as u32), config, params.clone());
            servers.push(server);
        }
        let addrs: Vec<SocketAddr> = servers
            .iter()
            .map(|s| s.listen_addr().expect("driver servers always listen"))
            .collect();
        let hosts: Vec<HostId> = (0..n as u32).map(HostId).collect();
        for (i, server) in servers.iter_mut().enumerate() {
            server.set_community(DRIVER_COMMUNITY, hosts.clone());
            for (j, addr) in addrs.iter().enumerate() {
                if i != j {
                    server.add_route(DRIVER_COMMUNITY, HostId(j as u32), *addr);
                }
            }
        }
        Ok(TcpCommunityDriver {
            servers,
            clock,
            idle_grace: Duration::from_millis(200),
            timer_horizon: Duration::from_secs(2),
            last_activity: Instant::now(),
        })
    }

    /// Overrides the quiescence tuning (tests shortening a wedge wait).
    pub fn set_quiescence(&mut self, idle_grace: Duration, timer_horizon: Duration) {
        self.idle_grace = idle_grace;
        self.timer_horizon = timer_horizon;
    }

    /// The shared observability registry (`net.*` transport metrics of
    /// every server; core metrics if configs enabled them).
    pub fn obs(&self) -> &Obs {
        self.servers[0].obs()
    }

    /// One host's reactor, for transport-level inspection.
    pub fn server(&self, id: HostId) -> &NetServer {
        &self.servers[id.index()]
    }

    /// Mutable access to one host's reactor (scrapes, digests).
    pub fn server_mut(&mut self, id: HostId) -> &mut NetServer {
        &mut self.servers[id.index()]
    }

    /// Drains every server's workflow events, tagged by emitting host.
    pub fn drain_events(&mut self) -> Vec<(HostId, WorkflowEvent)> {
        self.servers
            .iter_mut()
            .flat_map(|s| {
                s.drain_workflow_events()
                    .into_iter()
                    .map(|(_, host, ev)| (host, ev))
            })
            .collect()
    }

    /// Gracefully stops every server: drains outbound queues, syncs
    /// durable stores, publishes final metrics.
    pub fn shutdown(self) -> Vec<ShutdownReport> {
        self.servers.into_iter().map(NetServer::shutdown).collect()
    }
}

impl std::fmt::Debug for TcpCommunityDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCommunityDriver")
            .field("hosts", &self.servers.len())
            .finish()
    }
}

impl Driver for TcpCommunityDriver {
    fn hosts(&self) -> Vec<HostId> {
        (0..self.servers.len() as u32).map(HostId).collect()
    }

    fn core(&self, id: HostId) -> &HostCore {
        self.servers[id.index()].core(DRIVER_COMMUNITY, id)
    }

    fn core_mut(&mut self, id: HostId) -> &mut HostCore {
        self.servers[id.index()].core_mut(DRIVER_COMMUNITY, id)
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn submit(&mut self, initiator: HostId, spec: openwf_core::Spec) -> ProblemHandle {
        let handle = self.servers[initiator.index()].submit(DRIVER_COMMUNITY, initiator, spec);
        self.last_activity = Instant::now();
        handle
    }

    fn step(&mut self) -> bool {
        let mut any = false;
        for server in &mut self.servers {
            any |= server.poll(Duration::from_millis(1));
        }
        if any {
            self.last_activity = Instant::now();
            return true;
        }
        // Silent. A timer inside the horizon is pending progress: sleep
        // toward it and stay live so the next poll fires it.
        if let Some(due) = self
            .servers
            .iter()
            .filter_map(NetServer::next_timer_due)
            .min()
        {
            let until = self.clock.until(due);
            if until <= self.timer_horizon {
                std::thread::sleep(until.min(Duration::from_millis(20)));
                return true;
            }
        }
        // No near timer, nothing moving: quiesce once the grace elapses
        // (in-flight bytes would have surfaced well within it).
        self.last_activity.elapsed() < self.idle_grace
    }
}
