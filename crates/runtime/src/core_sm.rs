//! The sans-io protocol core: one host's complete OWMS state machine,
//! free of any transport.
//!
//! [`HostCore`] owns the paper's §4.2 components — the construction
//! subsystem (Workflow Manager + Auction Manager) and the execution
//! subsystem (Fragment, Service, Schedule, Auction Participation and
//! Execution Managers) — but performs **no I/O**. Every input arrives
//! through a narrow poll surface:
//!
//! * [`HostCore::handle_msg`] — a typed protocol message from a peer,
//! * [`HostCore::handle_frame`] — the same message as encoded wire
//!   bytes (decoded through the host's vocabulary trust boundary),
//! * [`HostCore::handle_timer`] — a timer the driver armed on the
//!   core's behalf fired,
//! * [`HostCore::tick`] — a clock poll for drivers without a timer
//!   facility: fires every armed timer that has come due.
//!
//! Each call returns an [`ActionQueue`] of typed effects — messages to
//! send ([`Action::Send`] / [`Action::SendBytes`]), timers to arm
//! ([`Action::SetTimer`]), observability events
//! ([`Action::Event`]) — plus the modeled compute time the call
//! charged. A *driver* (see [`crate::driver`]) owns the transport: the
//! deterministic simulator (moving typed messages or encoded frames),
//! real sockets, or any future async executor can drive the identical
//! protocol logic.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use openwf_core::{Fragment, Label, TaskId};
use openwf_mobility::{Motion, Point, SiteMap};
use openwf_obs::{Counter, Histogram, Obs, SpanPhase, TraceEvent};
use openwf_simnet::{HostId, SimDuration, SimTime, TimerToken};
use openwf_wire::{DecodeScratch, VocabularyBudget, WireError};

use crate::auction::{AuctionAction, ProblemAuctions};
use crate::auction_part::{AuctionParticipationManager, BidDecision};
use crate::codec;
use crate::exec::{ExecEvent, ExecutionManager};
use crate::fragment_mgr::FragmentManager;
use crate::messages::{Msg, ProblemId};
use crate::metadata::{build_plans, compute_metadata};
use crate::params::RuntimeParams;
use crate::prefs::Preferences;
use crate::report::ProblemStatus;
use crate::schedule::ScheduleManager;
use crate::service::{ServiceDescription, ServiceManager};
use crate::workflow_mgr::{Phase, WorkflowManager, WsAction};

/// Which storage backend backs a host's Fragment Manager (see
/// [`openwf_core::FragmentBackend`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum StorageConfig {
    /// Knowhow lives only in memory (the default; a restart loses it).
    #[default]
    InMemory,
    /// Knowhow is appended to `openwf-wire`'s CRC-checked segment log in
    /// `dir` and replayed on restart, so a restarted host reconstructs
    /// the same database — and therefore bit-identical supergraphs.
    Durable {
        /// Log directory (created if absent; an existing log is
        /// replayed).
        dir: PathBuf,
        /// Segment roll size in bytes
        /// ([`openwf_wire::DEFAULT_SEGMENT_BYTES`] unless overridden).
        segment_bytes: u64,
        /// When the log snapshots its live set and compacts covered
        /// segments ([`openwf_wire::StoragePolicy`]; the default is
        /// manual only). Snapshots bound restart cost to O(live +
        /// tail) instead of O(insert history).
        policy: openwf_wire::StoragePolicy,
    },
}

/// Static configuration of one host: its knowhow, capabilities, place and
/// disposition (the paper's deployment steps 2 and 3: "adding knowhow in
/// the form of workflow fragments, and adding service descriptions").
///
/// `Clone` lets a driver keep the config it built a host from and rebuild
/// the host after a kill — with durable storage, the clone reopens the
/// same on-disk store (the chaos soak's kill-restart path).
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Workflow fragments this host knows (shared handles; scenario
    /// generators hand the same allocation to every consumer).
    pub fragments: Vec<Arc<Fragment>>,
    /// Services this host offers.
    pub services: Vec<ServiceDescription>,
    /// Starting position.
    pub position: Point,
    /// Motion capability.
    pub motion: Motion,
    /// Site map for resolving symbolic locations.
    pub site: SiteMap,
    /// Willingness preferences.
    pub prefs: Preferences,
    /// Per-community vocabulary cap: the maximum number of distinct
    /// interned names (labels, tasks, fragment ids) this host admits
    /// across its own knowhow and peer fragment replies. Replies that
    /// would exceed the cap are rejected as protocol errors instead of
    /// growing the process-wide interner without bound. Enforcement runs
    /// at wire decode (`openwf-wire`'s `VocabularyBudget`): a capped
    /// host routes peer replies through the binary codec and charges
    /// each distinct un-interned name *before* anything is interned —
    /// and on the frame transport ([`HostCore::handle_frame`]) **every**
    /// peer frame's name table is charged, since at a networked
    /// boundary any frame can mint. `None` (default) trusts the
    /// community.
    pub max_interned_names: Option<usize>,
    /// Per-peer vocabulary-rejection tolerance: once a single peer has
    /// had this many frames rejected at the vocabulary trust boundary,
    /// the host **quarantines** it — every subsequent message or frame
    /// from that peer is dropped on arrival and a
    /// [`WorkflowEvent::PeerQuarantined`] is surfaced once. `None`
    /// (default) keeps counting without acting.
    pub max_vocabulary_rejections: Option<u64>,
    /// Fragment storage backend (see [`StorageConfig`]). The default is
    /// in-memory.
    pub storage: StorageConfig,
    /// Observability collectors (metrics registry + trace sink) this
    /// host records into. The default is fully disabled: every record
    /// call is a single-branch no-op, and enabling collection never
    /// changes protocol behaviour — collectors draw no randomness, arm
    /// no timers, and send nothing (the scenario layer property-tests
    /// bit-identical outcomes with collectors on or off).
    pub obs: Obs,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            fragments: Vec::new(),
            services: Vec::new(),
            position: Point::ORIGIN,
            motion: Motion::STATIONARY,
            site: SiteMap::new(),
            prefs: Preferences::willing(),
            max_interned_names: None,
            max_vocabulary_rejections: None,
            storage: StorageConfig::InMemory,
            obs: Obs::disabled(),
        }
    }
}

impl HostConfig {
    /// An empty configuration (no knowhow, no services, stationary at the
    /// origin).
    pub fn new() -> Self {
        HostConfig::default()
    }

    /// Adds a fragment (owned or shared).
    pub fn with_fragment(mut self, fragment: impl Into<Arc<Fragment>>) -> Self {
        self.fragments.push(fragment.into());
        self
    }

    /// Adds a service.
    pub fn with_service(mut self, service: ServiceDescription) -> Self {
        self.services.push(service);
        self
    }

    /// Sets position and motion.
    pub fn located(mut self, position: Point, motion: Motion) -> Self {
        self.position = position;
        self.motion = motion;
        self
    }

    /// Sets the site map.
    pub fn with_site(mut self, site: SiteMap) -> Self {
        self.site = site;
        self
    }

    /// Sets preferences.
    pub fn with_prefs(mut self, prefs: Preferences) -> Self {
        self.prefs = prefs;
        self
    }

    /// Sets the per-community vocabulary cap (see
    /// [`HostConfig::max_interned_names`]).
    pub fn with_vocabulary_cap(mut self, cap: usize) -> Self {
        self.max_interned_names = Some(cap);
        self
    }

    /// Quarantines any peer after `cap` vocabulary rejections (see
    /// [`HostConfig::max_vocabulary_rejections`]).
    pub fn with_max_vocabulary_rejections(mut self, cap: u64) -> Self {
        self.max_vocabulary_rejections = Some(cap);
        self
    }

    /// Selects the fragment storage backend.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Persists this host's knowhow in a durable segment log at `dir`
    /// (replayed on restart; see [`StorageConfig::Durable`]) with
    /// manual-only snapshot/compaction.
    pub fn with_durable_storage(mut self, dir: impl Into<PathBuf>) -> Self {
        self.storage = StorageConfig::Durable {
            dir: dir.into(),
            segment_bytes: openwf_wire::DEFAULT_SEGMENT_BYTES,
            policy: openwf_wire::StoragePolicy::default(),
        };
        self
    }

    /// Attaches observability collectors (see [`HostConfig::obs`]).
    /// Clone one [`Obs`] into every host of a community so metrics
    /// aggregate in a single registry and trace events land in one
    /// sink.
    pub fn with_observability(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the durable log's snapshot/compaction policy (no-op advice
    /// for in-memory storage: the backend must already be
    /// [`StorageConfig::Durable`], e.g. via
    /// [`HostConfig::with_durable_storage`]).
    pub fn with_storage_policy(mut self, policy: openwf_wire::StoragePolicy) -> Self {
        if let StorageConfig::Durable {
            policy: configured, ..
        } = &mut self.storage
        {
            *configured = policy;
        }
        self
    }
}

/// Observability events the core surfaces to its driver — milestones and
/// protocol-boundary decisions an embedder may want to log, export or
/// act on. Drivers are free to ignore them; none carries protocol
/// obligations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkflowEvent {
    /// A problem this host initiated finished construction and is moving
    /// to allocation.
    Constructed {
        /// The constructed problem.
        problem: ProblemId,
    },
    /// A problem this host initiated delivered every goal.
    Completed {
        /// The completed problem.
        problem: ProblemId,
    },
    /// A problem this host initiated failed terminally (repair attempts
    /// exhausted or construction impossible).
    Failed {
        /// The failed problem.
        problem: ProblemId,
        /// Human-readable reason.
        reason: String,
    },
    /// A peer crossed [`HostConfig::max_vocabulary_rejections`] and was
    /// quarantined: its frames are dropped from now on.
    PeerQuarantined {
        /// The quarantined peer.
        peer: HostId,
        /// Its rejection count when the quarantine tripped.
        rejections: u64,
    },
}

/// One typed effect the core asks its driver to perform.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Action {
    /// Deliver a typed protocol message to `to` (emitted in
    /// [`OutboundMode::Typed`]).
    Send {
        /// Destination host.
        to: HostId,
        /// The message.
        msg: Msg,
    },
    /// Deliver one encoded wire frame to `to` (emitted in
    /// [`OutboundMode::Encoded`]; the bytes are a complete
    /// `openwf-wire` `TAG_MSG` frame produced by
    /// [`crate::codec::encode_msg`]).
    SendBytes {
        /// Destination host.
        to: HostId,
        /// The complete frame.
        bytes: Vec<u8>,
    },
    /// Arm a timer: deliver `token` back through
    /// [`HostCore::handle_timer`] after `delay` (or let
    /// [`HostCore::tick`] fire it on a clock poll).
    SetTimer {
        /// Delay from the current callback's time.
        delay: SimDuration,
        /// Token to hand back.
        token: TimerToken,
    },
    /// An observability event (see [`WorkflowEvent`]).
    Event(WorkflowEvent),
}

/// The ordered effects of one [`HostCore`] poll call, plus the modeled
/// compute time the call charged.
///
/// Actions must be applied **in order** (message sends among themselves
/// preserve protocol causality); the charge applies to the callback as
/// a whole — a transport that models host compute should delay every
/// action in the queue by the total charge, which is exactly what the
/// simulator does.
#[derive(Debug, Default)]
pub struct ActionQueue {
    actions: Vec<Action>,
    charged: SimDuration,
}

impl ActionQueue {
    fn new() -> Self {
        ActionQueue::default()
    }

    /// Total modeled compute time charged by the call that produced this
    /// queue.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// The effects, in emission order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of queued effects.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the call produced no effects (a charge may still be
    /// present).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    fn charge(&mut self, cost: SimDuration) {
        self.charged += cost;
    }

    fn push(&mut self, action: Action) {
        self.actions.push(action);
    }
}

impl IntoIterator for ActionQueue {
    type Item = Action;
    type IntoIter = std::vec::IntoIter<Action>;

    /// Consumes the queue in emission order. Read
    /// [`ActionQueue::charged`] first — the charge is not an action.
    fn into_iter(self) -> Self::IntoIter {
        self.actions.into_iter()
    }
}

/// How the core emits outbound protocol messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutboundMode {
    /// Emit [`Action::Send`] with the typed [`Msg`] (the in-process
    /// simulator's mode: `Arc<Fragment>` payloads are shared, not
    /// copied).
    #[default]
    Typed,
    /// Encode every outbound message through [`crate::codec::encode_msg`]
    /// and emit [`Action::SendBytes`] — what a networked transport
    /// ships. The receiving core decodes through
    /// [`HostCore::handle_frame`], which charges its vocabulary budget
    /// at the trust boundary.
    Encoded,
}

#[derive(Clone, Debug)]
enum TimerPurpose {
    RoundTimeout { problem: ProblemId, round: u32 },
    AuctionDeadline { problem: ProblemId, task: TaskId },
    AuctionTimeout { problem: ProblemId },
    BidHoldExpiry { problem: ProblemId, task: TaskId },
    ExecStart { problem: ProblemId, task: TaskId },
    ExecFinish { problem: ProblemId, task: TaskId },
    Watchdog { problem: ProblemId },
}

#[derive(Clone, Debug)]
struct ArmedTimer {
    due: SimTime,
    purpose: TimerPurpose,
}

/// Storage-backend metric names published as gauges (point-in-time
/// sizes that move both ways); everything else a backend reports is
/// monotonic and published as a counter. See
/// [`HostCore::publish_metrics`].
const STORAGE_GAUGE_NAMES: &[&str] = &["live_bytes", "garbage_bytes", "log_bytes", "segments"];

/// Resolved per-host metric handles (all no-ops when the registry is
/// disabled) plus the baselines [`HostCore::publish_metrics`] diffs
/// pull-style sources against, so multiple hosts sharing one registry
/// publish correct community-wide totals.
#[derive(Debug, Default)]
struct CoreMetrics {
    /// `core.messages` — protocol messages dispatched.
    messages: Counter,
    /// `core.rounds` — construction rounds opened (round timeouts armed).
    rounds: Counter,
    /// `core.auctions` — task auctions opened.
    auctions: Counter,
    /// `core.vocab_rejections` — frames rejected at the vocabulary
    /// trust boundary.
    vocab_rejections: Counter,
    /// `core.quarantines` — peers quarantined for repeated minting.
    quarantines: Counter,
    /// `core.timer_lag_us` — how late timers fire relative to their due
    /// time (µs of virtual time; a driver servicing timers promptly
    /// keeps this at 0).
    timer_lag_us: Histogram,
    /// `core.queue_depth` — actions emitted per poll call.
    queue_depth: Histogram,
    /// Last-published values of pull-style sources (decode cache,
    /// storage backend), keyed by source-local name.
    published: HashMap<&'static str, u64>,
}

impl CoreMetrics {
    fn resolve(obs: &Obs) -> Self {
        let m = &obs.metrics;
        CoreMetrics {
            messages: m.counter("core.messages"),
            rounds: m.counter("core.rounds"),
            auctions: m.counter("core.auctions"),
            vocab_rejections: m.counter("core.vocab_rejections"),
            quarantines: m.counter("core.quarantines"),
            timer_lag_us: m.histogram("core.timer_lag_us"),
            queue_depth: m.histogram("core.queue_depth"),
            published: HashMap::new(),
        }
    }

    /// Unsigned delta of a monotonic source value since its last
    /// publish (and records the new baseline).
    fn delta(&mut self, name: &'static str, value: u64) -> u64 {
        let prev = self.published.insert(name, value).unwrap_or(0);
        value.saturating_sub(prev)
    }

    /// Signed delta for gauge-like sources that move both ways.
    fn gauge_delta(&mut self, name: &'static str, value: u64) -> i64 {
        let prev = self.published.insert(name, value).unwrap_or(0);
        value as i64 - prev as i64
    }
}

/// One participant's complete protocol state machine (all §4.2 managers),
/// driven sans-io through the poll surface described in the module docs.
pub struct HostCore {
    /// Identity, fixed at first [`HostCore::bind`].
    me: Option<HostId>,
    community: Vec<HostId>,
    params: RuntimeParams,
    prefs: Preferences,
    /// Execution subsystem.
    fragment_mgr: FragmentManager,
    service_mgr: ServiceManager,
    schedule: ScheduleManager,
    auction_part: AuctionParticipationManager,
    exec_mgr: ExecutionManager,
    /// Construction subsystem.
    workflow_mgr: WorkflowManager,
    /// Vocabulary trust boundary: the decode-side budget capped peer
    /// replies are charged against (see [`crate::codec::reply_through_wire`]).
    vocab: VocabularyBudget,
    /// Per-host decode state: recycled frame/name/staging buffers plus
    /// the fragment-identity cache (primed with own knowhow at
    /// construction, so an echoed fragment decodes to the shared `Arc`).
    decode: DecodeScratch,
    vocabulary_rejections: u64,
    /// Per-peer vocabulary rejection tallies;
    /// [`HostConfig::max_vocabulary_rejections`] acts on them.
    vocab_rejections_by_peer: HashMap<HostId, u64>,
    max_vocab_rejections: Option<u64>,
    quarantined: HashSet<HostId>,
    outbound: OutboundMode,
    /// Armed timers: token → due time + purpose. Due times let
    /// [`HostCore::tick`] fire timers on a clock poll and
    /// [`HostCore::next_timer_due`] tell a poll-based driver how long it
    /// may sleep.
    timers: HashMap<u64, ArmedTimer>,
    next_timer: u64,
    /// Observability collectors (disabled by default; see
    /// [`HostConfig::obs`]).
    obs: Obs,
    /// Resolved metric handles + publish baselines.
    metrics: CoreMetrics,
}

impl HostCore {
    /// Builds a core from its configuration.
    ///
    /// # Panics
    ///
    /// Panics when [`StorageConfig::Durable`] storage cannot be opened
    /// or an insert cannot be persisted (I/O failure, corrupt log).
    pub fn new(config: HostConfig, params: RuntimeParams) -> Self {
        let mut fragment_mgr = match config.storage {
            StorageConfig::InMemory => FragmentManager::new(),
            StorageConfig::Durable {
                dir,
                segment_bytes,
                policy,
            } => FragmentManager::durable_with(dir, segment_bytes, policy)
                .expect("open the durable fragment log"),
        };
        for f in config.fragments {
            // A durable backend may have replayed this exact fragment
            // from its log already (a restarted host re-running its
            // config): re-appending it would grow the log by one
            // replace-by-id record per restart, so skip byte-identical
            // knowhow. A *changed* fragment under the same id still
            // replaces the logged one.
            let already_logged = fragment_mgr.store().get(f.id()).is_some_and(|existing| {
                let mut a = Vec::new();
                let mut b = Vec::new();
                openwf_wire::encode_fragment(existing, &mut a);
                openwf_wire::encode_fragment(&f, &mut b);
                a == b
            });
            if !already_logged {
                fragment_mgr.add(f);
            }
        }
        let mut vocab = VocabularyBudget::new(config.max_interned_names);
        if vocab.cap().is_some() {
            // Own knowhow is trusted: it seeds the vocabulary instead of
            // being checked against the cap. Seed from the *manager*,
            // not the config, so knowhow replayed from a durable log
            // keeps its budget headroom across restarts.
            for f in fragment_mgr.fragments() {
                vocab.seed_fragment(f);
            }
        }
        let mut decode = DecodeScratch::new();
        fragment_mgr.prime_cache(decode.cache_mut());
        let mut service_mgr = ServiceManager::new();
        for s in config.services {
            service_mgr.register(s);
        }
        let schedule = ScheduleManager::new(config.position, config.motion, config.site);
        HostCore {
            me: None,
            community: Vec::new(),
            params,
            prefs: config.prefs,
            fragment_mgr,
            service_mgr,
            schedule,
            auction_part: AuctionParticipationManager::new(),
            exec_mgr: ExecutionManager::new(),
            workflow_mgr: WorkflowManager::new(),
            vocab,
            decode,
            vocabulary_rejections: 0,
            vocab_rejections_by_peer: HashMap::new(),
            max_vocab_rejections: config.max_vocabulary_rejections,
            quarantined: HashSet::new(),
            outbound: OutboundMode::Typed,
            timers: HashMap::new(),
            next_timer: 0,
            metrics: CoreMetrics::resolve(&config.obs),
            obs: config.obs,
        }
    }

    /// Fixes this core's host identity. Drivers call it once at install
    /// (re-binding the same id is a no-op, so per-callback binding is
    /// also fine).
    ///
    /// # Panics
    ///
    /// Panics on an attempt to re-bind to a *different* id — one core
    /// drives one host.
    pub fn bind(&mut self, me: HostId) {
        match self.me {
            None => self.me = Some(me),
            Some(bound) => assert_eq!(bound, me, "a HostCore drives exactly one host identity"),
        }
    }

    /// The bound identity.
    ///
    /// # Panics
    ///
    /// Panics before the first [`HostCore::bind`].
    pub fn id(&self) -> HostId {
        self.me.expect("HostCore::bind before driving")
    }

    /// Selects how outbound messages are emitted (see [`OutboundMode`]).
    pub fn set_outbound_mode(&mut self, mode: OutboundMode) {
        self.outbound = mode;
    }

    /// The current outbound emission mode.
    pub fn outbound_mode(&self) -> OutboundMode {
        self.outbound
    }

    /// Number of peer frames/replies rejected at the vocabulary trust
    /// boundary (see [`HostConfig::max_interned_names`]).
    pub fn vocabulary_rejections(&self) -> u64 {
        self.vocabulary_rejections
    }

    /// Vocabulary rejections attributed to one peer (what
    /// [`HostConfig::max_vocabulary_rejections`] acts on).
    pub fn vocabulary_rejections_from(&self, peer: HostId) -> u64 {
        self.vocab_rejections_by_peer
            .get(&peer)
            .copied()
            .unwrap_or(0)
    }

    /// Distinct names recorded in the vocabulary budget (own knowhow —
    /// including knowhow replayed from a durable log — plus admitted
    /// peer names). Always 0 for uncapped hosts, which track nothing.
    pub fn vocabulary_names(&self) -> usize {
        self.vocab.len()
    }

    /// True when `peer` has been quarantined for minting past the
    /// vocabulary cap (see [`HostConfig::max_vocabulary_rejections`]).
    pub fn is_quarantined(&self, peer: HostId) -> bool {
        self.quarantined.contains(&peer)
    }

    /// Sets the community membership (all host ids, including this one).
    /// Called by the driver before traffic flows.
    pub fn set_community(&mut self, community: Vec<HostId>) {
        self.community = community;
    }

    /// The workflow manager (workspaces/reports), for inspection.
    pub fn workflow_mgr(&self) -> &WorkflowManager {
        &self.workflow_mgr
    }

    /// The fragment manager, for inspection and late configuration.
    pub fn fragment_mgr_mut(&mut self) -> &mut FragmentManager {
        &mut self.fragment_mgr
    }

    /// The fragment manager (read-only).
    pub fn fragment_mgr(&self) -> &FragmentManager {
        &self.fragment_mgr
    }

    /// The service manager, for inspection, hooks and late configuration.
    pub fn service_mgr_mut(&mut self) -> &mut ServiceManager {
        &mut self.service_mgr
    }

    /// The service manager (read-only).
    pub fn service_mgr(&self) -> &ServiceManager {
        &self.service_mgr
    }

    /// The schedule manager (commitments), for inspection.
    pub fn schedule(&self) -> &ScheduleManager {
        &self.schedule
    }

    /// The workspace of the **latest attempt** of the problem `base`
    /// belongs to, if any.
    pub fn latest_attempt(&self, base: ProblemId) -> Option<&crate::workflow_mgr::Workspace> {
        self.workflow_mgr
            .iter()
            .filter(|ws| ws.problem.same_problem(base))
            .max_by_key(|ws| ws.problem.attempt)
    }

    /// Earliest due time among armed timers — how long a poll-based
    /// driver may sleep before the next [`HostCore::tick`] has work.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        self.timers.values().map(|t| t.due).min()
    }

    /// The observability collectors this core records into (disabled
    /// unless [`HostConfig::obs`] attached enabled ones).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Decode-side fragment-identity cache statistics `(hits, misses)`
    /// — how often a peer-sent fragment decoded to an already-known
    /// shared `Arc` instead of rebuilding the graph.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        let cache = self.decode.cache();
        (cache.hits(), cache.misses())
    }

    /// Publishes this host's *pull-style* metrics into the registry:
    /// decode-path statistics (`decode.cache_hits`, `decode.cache_misses`,
    /// `decode.frames`, `decode.span_reuses`) and the fragment storage
    /// backend's report (`storage.*` — log/snapshot/compaction/replay
    /// figures from [`openwf_core::FragmentBackend::metrics`]).
    ///
    /// Cheap per-poll metrics (counters, timer lag) are recorded live;
    /// this call syncs the sources that would cost a read or an
    /// allocation per poll. Drivers call it at a barrier (end of run).
    /// Publishing repeatedly is safe: every value is published as a
    /// **delta** against the previous publish — monotonic sources as
    /// counter increments, sizes as signed gauge moves — so any number
    /// of hosts can share one registry and its totals stay correct.
    pub fn publish_metrics(&mut self) {
        if !self.obs.metrics.is_enabled() {
            return;
        }
        let cache = self.decode.cache();
        let decode_stats: [(&'static str, u64); 4] = [
            ("decode.cache_hits", cache.hits()),
            ("decode.cache_misses", cache.misses()),
            ("decode.frames", self.decode.frames_decoded()),
            ("decode.span_reuses", self.decode.span_reuses()),
        ];
        for (name, value) in decode_stats {
            let d = self.metrics.delta(name, value);
            if d > 0 {
                self.obs.metrics.counter(name).add(d);
            }
        }

        let report = self.fragment_mgr.backend_metrics();
        if report.is_empty() {
            return;
        }
        let lookup: HashMap<&'static str, u64> = report.iter().copied().collect();
        let snapshots_before = self
            .metrics
            .published
            .get("snapshots")
            .copied()
            .unwrap_or(0);
        let compactions_before = self
            .metrics
            .published
            .get("compactions")
            .copied()
            .unwrap_or(0);
        for (name, value) in report {
            match name {
                // Fed into histograms below, keyed off their op counts.
                "last_snapshot_micros" | "last_compaction_micros" => {
                    self.metrics.published.insert(name, value);
                }
                n if STORAGE_GAUGE_NAMES.contains(&n) => {
                    let d = self.metrics.gauge_delta(name, value);
                    if d != 0 {
                        self.obs.metrics.gauge(&format!("storage.{name}")).add(d);
                    }
                }
                _ => {
                    let d = self.metrics.delta(name, value);
                    if d > 0 {
                        self.obs.metrics.counter(&format!("storage.{name}")).add(d);
                    }
                }
            }
        }
        if lookup.get("snapshots").copied().unwrap_or(0) > snapshots_before {
            self.obs
                .metrics
                .histogram("storage.snapshot_us")
                .record(lookup.get("last_snapshot_micros").copied().unwrap_or(0));
        }
        if lookup.get("compactions").copied().unwrap_or(0) > compactions_before {
            self.obs
                .metrics
                .histogram("storage.compaction_us")
                .record(lookup.get("last_compaction_micros").copied().unwrap_or(0));
        }
    }

    /// Records one causal trace event for `problem` (no-op unless the
    /// trace sink is enabled; callers building a `detail` string should
    /// gate on [`openwf_obs::TraceSink::is_enabled`] first).
    fn trace(
        &self,
        now: SimTime,
        problem: ProblemId,
        name: &'static str,
        phase: SpanPhase,
        dur_us: u64,
        detail: String,
    ) {
        self.obs.trace.record(TraceEvent {
            at_us: now.as_micros(),
            host: self.me.map(|h| h.0).unwrap_or(u32::MAX),
            trace: problem.trace_id(),
            name,
            phase,
            dur_us,
            detail,
        });
    }

    // ---- the poll surface ------------------------------------------------

    /// Handles one delivered typed protocol message, returning the
    /// effects. `now` is the delivery time on the driver's clock.
    pub fn handle_msg(&mut self, from: HostId, msg: Msg, now: SimTime) -> ActionQueue {
        let mut q = ActionQueue::new();
        if self.quarantined.contains(&from) {
            return q; // dropped on arrival, nothing charged
        }
        self.dispatch_msg(from, msg, now, &mut q, false);
        self.metrics.queue_depth.record(q.len() as u64);
        q
    }

    /// Handles one delivered wire frame (a complete `TAG_MSG` frame as
    /// produced by [`crate::codec::encode_msg`]): decodes it and
    /// dispatches the message. **Every peer frame's whole name table is
    /// charged against this host's vocabulary budget before anything is
    /// interned** — at a networked boundary the interner can only grow
    /// through decode, so the cap must guard every frame, not just
    /// fragment replies. Frames from *self* (a driver looping back the
    /// host's own traffic) are trusted like own knowhow and bypass the
    /// budget.
    ///
    /// Decode failures never panic and never poison the core. A
    /// [`WireError::VocabularyExceeded`] drops the frame with the
    /// interner untouched; it additionally books a rejection against
    /// the sending peer (possibly quarantining it, see
    /// [`HostConfig::max_vocabulary_rejections`]) only when the frame
    /// was a `FragmentReply` — the family through which a peer mints
    /// *knowhow* names of its own choosing. Other over-budget frames
    /// (a query echoing a third party's rich frontier, say) are not
    /// evidence of minting by the sender and are dropped without
    /// blame. Any other wire error is transport-level loss: dropped
    /// silently, like a message the network never delivered.
    ///
    /// One deliberate asymmetry with the typed path: an over-budget
    /// reply received *as a frame* cannot be attributed to its query
    /// round (nothing of it decodes), so the round completes via its
    /// timeout — on the typed transport the rejection yields an
    /// explicit empty answer instead. Within-budget traffic is
    /// transport-identical either way.
    pub fn handle_frame(&mut self, from: HostId, bytes: &[u8], now: SimTime) -> ActionQueue {
        let mut q = ActionQueue::new();
        if self.quarantined.contains(&from) {
            return q;
        }
        let decoded = if from == self.id() {
            codec::decode_msg_with(bytes, &mut VocabularyBudget::unlimited(), &mut self.decode)
        } else {
            codec::decode_msg_with(bytes, &mut self.vocab, &mut self.decode)
        };
        match decoded {
            Ok((msg, _consumed)) => self.dispatch_msg(from, msg, now, &mut q, true),
            Err(WireError::VocabularyExceeded { .. }) => {
                // Cold path: re-parse only to classify the offence.
                if codec::frame_is_fragment_reply(bytes).unwrap_or(false) {
                    self.note_rejection(from, now, &mut q);
                }
            }
            Err(_) => {}
        }
        self.metrics.queue_depth.record(q.len() as u64);
        q
    }

    /// Handles a fired timer (one the driver armed from an
    /// [`Action::SetTimer`]).
    pub fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> ActionQueue {
        let mut q = ActionQueue::new();
        let Some(armed) = self.timers.remove(&token.0) else {
            return q;
        };
        self.metrics
            .timer_lag_us
            .record(now.since(armed.due).as_micros());
        self.fire_timer(armed.purpose, now, &mut q);
        self.metrics.queue_depth.record(q.len() as u64);
        q
    }

    /// Clock poll: fires every armed timer whose due time is at or
    /// before `now`, in due order. For drivers without a timer facility
    /// — a transport that can only say "this much time has passed" calls
    /// `tick` instead of scheduling [`Action::SetTimer`] deliveries
    /// (drivers that do deliver timers must not *also* tick past them,
    /// or timers fire twice... which the protocol tolerates but models
    /// nothing).
    pub fn tick(&mut self, now: SimTime) -> ActionQueue {
        let mut q = ActionQueue::new();
        loop {
            // One at a time: firing a timer can arm new (already-due)
            // timers, which an upfront snapshot would miss.
            let due = self
                .timers
                .iter()
                .filter(|(_, t)| t.due <= now)
                .map(|(&tok, t)| (t.due, tok))
                .min();
            let Some((_, token)) = due else {
                self.metrics.queue_depth.record(q.len() as u64);
                return q;
            };
            let armed = self.timers.remove(&token).expect("selected above");
            self.metrics
                .timer_lag_us
                .record(now.since(armed.due).as_micros());
            self.fire_timer(armed.purpose, now, &mut q);
        }
    }

    /// Submits a problem specification locally — what the paper's
    /// Workflow Initiator does on the initiating host. Equivalent to
    /// delivering [`Msg::Initiate`] from self; provided so embedders
    /// driving a bare core need no self-addressed message plumbing.
    pub fn initiate(
        &mut self,
        problem: ProblemId,
        spec: openwf_core::Spec,
        now: SimTime,
    ) -> ActionQueue {
        self.handle_msg(self.id(), Msg::Initiate { problem, spec }, now)
    }

    // ---- outbound helpers ------------------------------------------------

    fn emit(&self, q: &mut ActionQueue, to: HostId, msg: Msg) {
        match self.outbound {
            OutboundMode::Typed => q.push(Action::Send { to, msg }),
            OutboundMode::Encoded => {
                let mut bytes = Vec::new();
                codec::encode_msg(&msg, &mut bytes);
                q.push(Action::SendBytes { to, bytes });
            }
        }
    }

    fn emit_all(&self, q: &mut ActionQueue, peers: &[HostId], msg: Msg) {
        let me = self.id();
        match self.outbound {
            OutboundMode::Typed => {
                for &p in peers {
                    if p != me {
                        q.push(Action::Send {
                            to: p,
                            msg: msg.clone(),
                        });
                    }
                }
            }
            OutboundMode::Encoded => {
                // Encode the broadcast once; each recipient gets a clone
                // of the bytes, not a fresh encode pass.
                let mut bytes = Vec::new();
                codec::encode_msg(&msg, &mut bytes);
                for &p in peers {
                    if p != me {
                        q.push(Action::SendBytes {
                            to: p,
                            bytes: bytes.clone(),
                        });
                    }
                }
            }
        }
    }

    fn arm(
        &mut self,
        q: &mut ActionQueue,
        now: SimTime,
        delay: SimDuration,
        purpose: TimerPurpose,
    ) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(
            token,
            ArmedTimer {
                due: now + delay,
                purpose,
            },
        );
        q.push(Action::SetTimer {
            delay,
            token: TimerToken(token),
        });
    }

    fn arm_at(&mut self, q: &mut ActionQueue, now: SimTime, at: SimTime, purpose: TimerPurpose) {
        let delay = at.since(now);
        self.arm(q, now, delay, purpose);
    }

    fn others(&self) -> Vec<HostId> {
        let me = self.id();
        self.community
            .iter()
            .copied()
            .filter(|&h| h != me)
            .collect()
    }

    fn note_rejection(&mut self, from: HostId, now: SimTime, q: &mut ActionQueue) {
        self.vocabulary_rejections += 1;
        self.metrics.vocab_rejections.inc();
        let count = self.vocab_rejections_by_peer.entry(from).or_insert(0);
        *count += 1;
        let count = *count;
        if let Some(cap) = self.max_vocab_rejections {
            if count >= cap && self.quarantined.insert(from) {
                self.metrics.quarantines.inc();
                if self.obs.trace.is_enabled() {
                    // Quarantine is host- not problem-scoped: trace id 0.
                    self.obs.trace.record(TraceEvent {
                        at_us: now.as_micros(),
                        host: self.me.map(|h| h.0).unwrap_or(u32::MAX),
                        trace: 0,
                        name: "quarantine",
                        phase: SpanPhase::Instant,
                        dur_us: 0,
                        detail: format!("peer host{} after {count} rejections", from.0),
                    });
                }
                q.push(Action::Event(WorkflowEvent::PeerQuarantined {
                    peer: from,
                    rejections: count,
                }));
            }
        }
    }

    // ---- protocol logic --------------------------------------------------

    /// Dispatches one message. `off_the_wire` marks messages that
    /// arrived through [`HostCore::handle_frame`] — those were already
    /// decoded through the vocabulary budget, so the capped-host
    /// re-encode detour is skipped.
    fn dispatch_msg(
        &mut self,
        from: HostId,
        msg: Msg,
        now: SimTime,
        q: &mut ActionQueue,
        off_the_wire: bool,
    ) {
        q.charge(self.params.per_message_cost);
        self.metrics.messages.inc();
        if self.obs.trace.is_enabled() {
            self.trace(
                now,
                msg.problem(),
                msg.kind(),
                SpanPhase::Instant,
                0,
                format!("from host{}", from.0),
            );
        }
        match msg {
            Msg::Initiate { problem, spec } => {
                if self.obs.trace.is_enabled() {
                    let goals = spec.goals().len();
                    self.trace(
                        now,
                        problem,
                        "problem",
                        SpanPhase::Begin,
                        0,
                        format!("announce: {goals} goal(s)"),
                    );
                    self.trace(
                        now,
                        problem,
                        "construct",
                        SpanPhase::Begin,
                        0,
                        String::new(),
                    );
                }
                let n_peers = self.community.len().saturating_sub(1);
                self.workflow_mgr.create(problem, spec, now, n_peers);
                let actions = match self.workflow_mgr.get_mut(&problem) {
                    Some(ws) => ws.begin(&self.fragment_mgr, &self.service_mgr, &self.params),
                    None => Vec::new(),
                };
                self.apply_ws_actions(problem, actions, now, q);
            }

            Msg::FragmentQuery {
                problem,
                round,
                labels,
            } => {
                let fragments = self.fragment_mgr.query(&labels);
                self.emit(
                    q,
                    from,
                    Msg::FragmentReply {
                        problem,
                        round,
                        fragments,
                    },
                );
            }
            Msg::FragmentReply {
                problem,
                round,
                fragments,
            } => {
                // Trust boundary: a capped host receives the reply *off
                // the wire* — when the transport is typed (the
                // in-process simulator sharing `Arc<Fragment>`s), it
                // re-encodes the payload and decodes it through the
                // vocabulary budget, which charges every distinct
                // un-interned name before interning anything. A frame
                // that actually traveled as bytes was already charged at
                // decode in `handle_frame`. A rejected reply is dropped
                // (the round proceeds with it counted as an empty
                // answer) — the protocol error is recorded per peer, not
                // fatal.
                let fragments = if off_the_wire || self.vocab.cap().is_none() {
                    fragments
                } else {
                    match codec::reply_through_wire_with(
                        problem,
                        round,
                        fragments,
                        &mut self.vocab,
                        &mut self.decode,
                    ) {
                        Ok(decoded) => decoded,
                        Err(WireError::VocabularyExceeded { .. }) => {
                            // The peer minted past the cap: book the
                            // protocol error against it.
                            self.note_rejection(from, now, q);
                            Vec::new()
                        }
                        Err(_) => {
                            // Any other wire failure (e.g. a reply past
                            // the frame-size cap) is a transport-level
                            // loss, not vocabulary minting: drop the
                            // reply like a never-delivered message, but
                            // do not blame the peer's vocabulary.
                            Vec::new()
                        }
                    }
                };
                let actions = match self.workflow_mgr.get_mut(&problem) {
                    Some(ws) => ws.on_fragment_reply(
                        from,
                        round,
                        fragments,
                        &self.fragment_mgr,
                        &self.service_mgr,
                        &self.params,
                    ),
                    None => Vec::new(),
                };
                self.apply_ws_actions(problem, actions, now, q);
            }

            Msg::CapabilityQuery {
                problem,
                round,
                tasks,
            } => {
                let capable = self.service_mgr.capable_of(&tasks);
                self.emit(
                    q,
                    from,
                    Msg::CapabilityReply {
                        problem,
                        round,
                        capable,
                    },
                );
            }
            Msg::CapabilityReply {
                problem,
                round,
                capable,
            } => {
                let actions = match self.workflow_mgr.get_mut(&problem) {
                    Some(ws) => ws.on_capability_reply(
                        from,
                        round,
                        capable,
                        &self.fragment_mgr,
                        &self.service_mgr,
                        &self.params,
                    ),
                    None => Vec::new(),
                };
                self.apply_ws_actions(problem, actions, now, q);
            }

            Msg::CallForBids {
                problem,
                task,
                meta,
            } => {
                let decision = self.auction_part.consider(
                    problem,
                    &task,
                    &meta,
                    now,
                    &self.service_mgr,
                    &mut self.schedule,
                    &self.prefs,
                    &self.params,
                );
                match decision {
                    BidDecision::Submit(bid) => {
                        let expiry = bid.deadline + self.params.round_timeout;
                        self.arm_at(
                            q,
                            now,
                            expiry,
                            TimerPurpose::BidHoldExpiry {
                                problem,
                                task: task.clone(),
                            },
                        );
                        self.emit(q, from, Msg::Bid { problem, task, bid });
                    }
                    BidDecision::Decline(_) => {
                        self.emit(q, from, Msg::Decline { problem, task });
                    }
                }
            }
            Msg::Bid { problem, task, bid } => {
                q.charge(self.params.bid_evaluation_cost);
                let action = self
                    .workflow_mgr
                    .get_mut(&problem)
                    .and_then(|ws| ws.auctions.as_mut())
                    .map(|a| a.on_bid(&task, from, bid))
                    .unwrap_or(AuctionAction::None);
                self.handle_auction_action(problem, action, now, q);
            }
            Msg::Decline { problem, task } => {
                let action = self
                    .workflow_mgr
                    .get_mut(&problem)
                    .and_then(|ws| ws.auctions.as_mut())
                    .map(|a| a.on_decline(&task, from))
                    .unwrap_or(AuctionAction::None);
                self.handle_auction_action(problem, action, now, q);
            }
            Msg::Award {
                problem,
                task,
                assignment: _,
            } => {
                // The hold becomes a firm commitment (already scheduled).
                let _ = self.auction_part.on_award(problem, &task);
            }

            Msg::Execute { problem, plan } => {
                // A newer attempt supersedes older ones of the same problem.
                let events = self.exec_mgr.install_plan(problem, plan, now);
                self.apply_exec_events(problem, events, now, q);
            }
            Msg::InputDelivery { problem, label } => {
                let events = self.exec_mgr.on_input(problem, label, now);
                self.apply_exec_events(problem, events, now, q);
            }
            Msg::TaskCompleted { problem, task } => {
                if let Some(ws) = self.workflow_mgr.get_mut(&problem) {
                    ws.tasks_pending.remove(&task);
                }
            }
            Msg::GoalDelivered { problem, label } => {
                if let Some(ws) = self.workflow_mgr.get_mut(&problem) {
                    ws.goals_pending.remove(&label);
                    ws.report.goals_delivered.push(label);
                }
                self.check_completion(problem, now, q);
            }
        }
    }

    fn fire_timer(&mut self, purpose: TimerPurpose, now: SimTime, q: &mut ActionQueue) {
        match purpose {
            TimerPurpose::RoundTimeout { problem, round } => {
                let actions = match self.workflow_mgr.get_mut(&problem) {
                    Some(ws) => ws.on_round_timeout(
                        round,
                        &self.fragment_mgr,
                        &self.service_mgr,
                        &self.params,
                    ),
                    None => Vec::new(),
                };
                self.apply_ws_actions(problem, actions, now, q);
            }
            TimerPurpose::AuctionDeadline { problem, task } => {
                let action = self
                    .workflow_mgr
                    .get_mut(&problem)
                    .and_then(|ws| ws.auctions.as_mut())
                    .map(|a| a.on_deadline(&task))
                    .unwrap_or(AuctionAction::None);
                self.handle_auction_action(problem, action, now, q);
            }
            TimerPurpose::AuctionTimeout { problem } => {
                let still_allocating = self
                    .workflow_mgr
                    .get(&problem)
                    .map(|ws| ws.phase == Phase::Allocating)
                    .unwrap_or(false);
                if still_allocating {
                    let actions = self
                        .workflow_mgr
                        .get_mut(&problem)
                        .and_then(|ws| ws.auctions.as_mut())
                        .map(|a| a.force_decide_all())
                        .unwrap_or_default();
                    for action in actions {
                        self.handle_auction_action(problem, action, now, q);
                    }
                }
            }
            TimerPurpose::BidHoldExpiry { problem, task } => {
                let _ = self
                    .auction_part
                    .expire_hold(problem, &task, &mut self.schedule);
            }
            TimerPurpose::ExecStart { problem, task } => {
                let events = self.exec_mgr.on_start_time(problem, &task);
                self.apply_exec_events(problem, events, now, q);
            }
            TimerPurpose::ExecFinish { problem, task } => {
                self.finish_task(problem, task, q);
            }
            TimerPurpose::Watchdog { problem } => {
                let unfinished = self
                    .workflow_mgr
                    .get(&problem)
                    .map(|ws| ws.phase == Phase::Executing)
                    .unwrap_or(false);
                if unfinished {
                    self.repair_or_fail(
                        problem,
                        "execution watchdog expired before all goals were delivered".into(),
                        now,
                        q,
                    );
                }
            }
        }
    }

    fn apply_ws_actions(
        &mut self,
        problem: ProblemId,
        actions: Vec<WsAction>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        for action in actions {
            match action {
                WsAction::BroadcastFragmentQuery { round, labels } => {
                    let msg = Msg::FragmentQuery {
                        problem,
                        round,
                        labels,
                    };
                    let others = self.others();
                    self.emit_all(q, &others, msg);
                }
                WsAction::BroadcastCapabilityQuery { round, tasks } => {
                    let msg = Msg::CapabilityQuery {
                        problem,
                        round,
                        tasks,
                    };
                    let others = self.others();
                    self.emit_all(q, &others, msg);
                }
                WsAction::ArmRoundTimeout { round } => {
                    self.metrics.rounds.inc();
                    let delay = self.params.round_timeout;
                    self.arm(q, now, delay, TimerPurpose::RoundTimeout { problem, round });
                }
                WsAction::Charge(d) => q.charge(d),
                WsAction::Constructed => {
                    if self.obs.trace.is_enabled() {
                        self.trace(now, problem, "construct", SpanPhase::End, 0, String::new());
                        self.trace(now, problem, "allocate", SpanPhase::Begin, 0, String::new());
                    }
                    q.push(Action::Event(WorkflowEvent::Constructed { problem }));
                    self.start_allocation(problem, now, q);
                }
                WsAction::Failed { reason } => {
                    // Construction failure is final: the community's live
                    // knowledge cannot satisfy the spec. (Repair handles
                    // allocation/execution failures, where retrying can
                    // help because community state changed.)
                    if self.obs.trace.is_enabled() {
                        self.trace(
                            now,
                            problem,
                            "failed",
                            SpanPhase::Instant,
                            0,
                            reason.clone(),
                        );
                        self.trace(now, problem, "problem", SpanPhase::End, 0, String::new());
                    }
                    q.push(Action::Event(WorkflowEvent::Failed { problem, reason }));
                }
            }
        }
    }

    fn start_allocation(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let community_size = self.community.len();
        let Some(ws) = self.workflow_mgr.get_mut(&problem) else {
            return;
        };
        ws.report.timings.constructed_at = Some(now);
        let workflow = ws
            .construction
            .as_ref()
            .expect("constructed phase has a workflow")
            .workflow()
            .clone();
        // Task metadata (§3.2): levels, inputs/outputs, earliest starts.
        // Location requirements are looked up from the *bidders'* service
        // descriptions; the initiator does not constrain locations here.
        let metas = compute_metadata(&workflow, now, SimDuration::ZERO, |_| None);
        ws.auctions = Some(ProblemAuctions::open(metas.clone(), community_size));
        self.metrics.auctions.add(metas.len() as u64);

        if metas.is_empty() {
            // Trivial workflow (goals were triggers): skip auctions.
            self.finalize_allocation(problem, now, q);
            return;
        }

        // Liveness backstop: if bids never arrive (lost calls, crashed
        // bidders), force the allocation decision after auction_timeout
        // instead of waiting on per-bid deadlines that never get armed.
        let timeout = self.params.auction_timeout;
        self.arm(q, now, timeout, TimerPurpose::AuctionTimeout { problem });

        // Call for bids: pairwise to every other member…
        let others = self.others();
        for (task, meta) in &metas {
            self.emit_all(
                q,
                &others,
                Msg::CallForBids {
                    problem,
                    task: task.clone(),
                    meta: meta.clone(),
                },
            );
        }
        // …and the initiator participates through the same logic, locally.
        for (task, meta) in metas {
            let decision = self.auction_part.consider(
                problem,
                &task,
                &meta,
                now,
                &self.service_mgr,
                &mut self.schedule,
                &self.prefs,
                &self.params,
            );
            match decision {
                BidDecision::Submit(bid) => {
                    let expiry = bid.deadline + self.params.round_timeout;
                    self.arm_at(
                        q,
                        now,
                        expiry,
                        TimerPurpose::BidHoldExpiry {
                            problem,
                            task: task.clone(),
                        },
                    );
                    let me = self.id();
                    let action = self
                        .workflow_mgr
                        .get_mut(&problem)
                        .and_then(|ws| ws.auctions.as_mut())
                        .map(|a| a.on_bid(&task, me, bid))
                        .unwrap_or(AuctionAction::None);
                    self.handle_auction_action(problem, action, now, q);
                }
                BidDecision::Decline(_) => {
                    let me = self.id();
                    let action = self
                        .workflow_mgr
                        .get_mut(&problem)
                        .and_then(|ws| ws.auctions.as_mut())
                        .map(|a| a.on_decline(&task, me))
                        .unwrap_or(AuctionAction::None);
                    self.handle_auction_action(problem, action, now, q);
                }
            }
        }
    }

    fn handle_auction_action(
        &mut self,
        problem: ProblemId,
        action: AuctionAction,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        match action {
            AuctionAction::None => {}
            AuctionAction::ArmDeadline(task, at) => {
                self.arm_at(q, now, at, TimerPurpose::AuctionDeadline { problem, task });
            }
            AuctionAction::Award(task, host, assignment) => {
                if let Some(ws) = self.workflow_mgr.get_mut(&problem) {
                    ws.assignments.push((task.clone(), assignment.clone()));
                }
                self.emit(
                    q,
                    host,
                    Msg::Award {
                        problem,
                        task,
                        assignment,
                    },
                );
                self.maybe_finish_allocation(problem, now, q);
            }
            AuctionAction::Unallocatable(task) => {
                if let Some(ws) = self.workflow_mgr.get_mut(&problem) {
                    ws.unallocatable.push(task);
                }
                self.maybe_finish_allocation(problem, now, q);
            }
        }
    }

    fn maybe_finish_allocation(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let done = self
            .workflow_mgr
            .get(&problem)
            .and_then(|ws| ws.auctions.as_ref())
            .map(|a| a.all_decided())
            .unwrap_or(false);
        if done {
            self.finalize_allocation(problem, now, q);
        }
    }

    fn finalize_allocation(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let Some(ws) = self.workflow_mgr.get_mut(&problem) else {
            return;
        };
        if !ws.unallocatable.is_empty() {
            let reason = format!(
                "tasks without any capable/willing host: {:?}",
                ws.unallocatable
            );
            self.repair_or_fail(problem, reason, now, q);
            return;
        }
        ws.report.timings.allocated_at = Some(now);
        ws.report.status = ProblemStatus::Executing;
        ws.phase = Phase::Executing;
        ws.report.assignments = ws
            .assignments
            .iter()
            .map(|(t, a)| (t.clone(), a.host))
            .collect();

        let workflow = ws
            .construction
            .as_ref()
            .expect("allocated phase has a workflow")
            .workflow()
            .clone();
        let goals = ws.spec.goals().clone();
        let triggers = ws.spec.triggers().clone();
        let assignments = ws.assignments.clone();

        // Goals the environment supplies directly (no producer task).
        let mut trivially_done: Vec<Label> = Vec::new();
        for goal in &goals {
            if workflow.contains_label(goal) && workflow.producer(goal).is_none() {
                trivially_done.push(goal.clone());
            }
        }
        for g in &trivially_done {
            ws.goals_pending.remove(g);
            ws.report.goals_delivered.push(g.clone());
        }

        if self.obs.trace.is_enabled() {
            self.trace(
                now,
                problem,
                "allocate",
                SpanPhase::End,
                0,
                format!("{} assignment(s)", assignments.len()),
            );
            self.trace(now, problem, "execute", SpanPhase::Begin, 0, String::new());
        }

        // Dispatch execution plans (self-sends included for uniformity).
        let plans = build_plans(&workflow, &assignments, &goals);
        for (host, plan) in plans {
            self.emit(q, host, Msg::Execute { problem, plan });
        }

        // Seed trigger labels to the hosts consuming them.
        let host_of = |task: &TaskId| -> Option<HostId> {
            assignments
                .iter()
                .find(|(t, _)| t == task)
                .map(|(_, a)| a.host)
        };
        for label in &triggers {
            if !workflow.contains_label(label) {
                continue;
            }
            let mut targets: Vec<HostId> = workflow
                .consumers(label)
                .iter()
                .filter_map(host_of)
                .collect();
            targets.sort();
            targets.dedup();
            for h in targets {
                self.emit(
                    q,
                    h,
                    Msg::InputDelivery {
                        problem,
                        label: label.clone(),
                    },
                );
            }
        }

        let watchdog = self.params.execution_watchdog;
        self.arm(q, now, watchdog, TimerPurpose::Watchdog { problem });
        self.check_completion(problem, now, q);
    }

    fn check_completion(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let Some(ws) = self.workflow_mgr.get_mut(&problem) else {
            return;
        };
        if ws.phase == Phase::Executing && ws.goals_pending.is_empty() {
            ws.phase = Phase::Completed;
            ws.report.status = ProblemStatus::Completed;
            ws.report.timings.completed_at = Some(now);
            if self.obs.trace.is_enabled() {
                self.trace(
                    now,
                    problem,
                    "completed",
                    SpanPhase::Instant,
                    0,
                    String::new(),
                );
                self.trace(now, problem, "execute", SpanPhase::End, 0, String::new());
                self.trace(now, problem, "problem", SpanPhase::End, 0, String::new());
            }
            q.push(Action::Event(WorkflowEvent::Completed { problem }));
        }
    }

    fn repair_or_fail(
        &mut self,
        problem: ProblemId,
        reason: String,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let (attempts_used, spec, original_start) = match self.workflow_mgr.get_mut(&problem) {
            Some(ws) => {
                ws.phase = Phase::Failed;
                ws.report.status = ProblemStatus::Failed {
                    reason: reason.clone(),
                };
                (
                    ws.report.repair_attempts,
                    ws.spec.clone(),
                    ws.report.timings.initiated_at,
                )
            }
            None => return,
        };
        if attempts_used >= self.params.max_repair_attempts {
            if self.obs.trace.is_enabled() {
                self.trace(
                    now,
                    problem,
                    "failed",
                    SpanPhase::Instant,
                    0,
                    reason.clone(),
                );
                self.trace(now, problem, "problem", SpanPhase::End, 0, String::new());
            }
            q.push(Action::Event(WorkflowEvent::Failed { problem, reason }));
            return;
        }
        // "A failure … should result in a revised or repaired workflow,
        // which requires reconstruction [and] reallocation" (§5.1): retry
        // the whole pipeline under a fresh attempt id. Crashed hosts
        // simply never answer; round timeouts carry construction forward
        // with the knowledge that is still alive.
        let next = problem.next_attempt();
        if self.obs.trace.is_enabled() {
            self.trace(
                now,
                problem,
                "repair",
                SpanPhase::Instant,
                0,
                format!("{reason}; retrying as attempt {}", next.attempt),
            );
            self.trace(now, problem, "problem", SpanPhase::End, 0, String::new());
            self.trace(
                now,
                next,
                "problem",
                SpanPhase::Begin,
                0,
                format!("repair attempt {}", next.attempt),
            );
            self.trace(now, next, "construct", SpanPhase::Begin, 0, String::new());
        }
        self.exec_mgr.abandon(&problem);
        self.schedule.release_problem(problem);
        let n_peers = self.community.len().saturating_sub(1);
        self.workflow_mgr.create(next, spec, now, n_peers);
        if let Some(ws) = self.workflow_mgr.get_mut(&next) {
            ws.report.repair_attempts = attempts_used + 1;
            // End-to-end timing spans the failed attempt too.
            ws.report.timings.initiated_at = original_start;
            let actions = ws.begin(&self.fragment_mgr, &self.service_mgr, &self.params);
            self.apply_ws_actions(next, actions, now, q);
        }
    }

    fn apply_exec_events(
        &mut self,
        problem: ProblemId,
        events: Vec<ExecEvent>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        for ev in events {
            match ev {
                ExecEvent::WaitUntilStart { task, at } => {
                    self.arm_at(q, now, at, TimerPurpose::ExecStart { problem, task });
                }
                ExecEvent::Begin { task, duration } => {
                    if self.obs.trace.is_enabled() {
                        self.trace(
                            now,
                            problem,
                            "task",
                            SpanPhase::Complete,
                            duration.as_micros(),
                            task.as_str().to_string(),
                        );
                    }
                    self.arm(q, now, duration, TimerPurpose::ExecFinish { problem, task });
                }
            }
        }
    }

    fn finish_task(&mut self, problem: ProblemId, task: TaskId, q: &mut ActionQueue) {
        let Some(finished) = self.exec_mgr.on_completion(problem, &task) else {
            return;
        };
        // Invoke the service (§4.2: uniform service invocation interface).
        self.service_mgr
            .invoke(&finished.task, finished.inputs.clone());
        // Publish outputs to dependents, goals to the initiator.
        for out in &finished.outputs {
            for &consumer in &out.consumers {
                self.emit(
                    q,
                    consumer,
                    Msg::InputDelivery {
                        problem,
                        label: out.label.clone(),
                    },
                );
            }
            if out.is_goal {
                self.emit(
                    q,
                    problem.initiator,
                    Msg::GoalDelivered {
                        problem,
                        label: out.label.clone(),
                    },
                );
            }
        }
        self.emit(q, problem.initiator, Msg::TaskCompleted { problem, task });
    }
}

impl fmt::Debug for HostCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostCore")
            .field("id", &self.me)
            .field("community", &self.community.len())
            .field("fragments", &self.fragment_mgr.len())
            .field("services", &self.service_mgr.service_count())
            .field("workspaces", &self.workflow_mgr.len())
            .field("outbound", &self.outbound)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Mode, Spec};

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn service(task: &str) -> ServiceDescription {
        ServiceDescription::new(task, SimDuration::from_millis(10))
    }

    /// Drives a single bound core by hand: every `Send` loops back into
    /// `handle_msg`, timers fire through `tick` — the minimal embedding
    /// the README documents.
    #[test]
    fn bare_core_runs_a_problem_without_any_driver() {
        let cfg = HostConfig::new()
            .with_fragment(frag("cs-f1", "cs-t1", "cs-a", "cs-b"))
            .with_fragment(frag("cs-f2", "cs-t2", "cs-b", "cs-c"))
            .with_service(service("cs-t1"))
            .with_service(service("cs-t2"));
        let mut core = HostCore::new(cfg, RuntimeParams::default());
        let me = HostId(0);
        core.bind(me);
        core.set_community(vec![me]);

        let problem = ProblemId::new(me, 0);
        let mut now = SimTime::ZERO;
        let mut inbox: Vec<Msg> = Vec::new();
        let mut constructed = false;
        let mut completed = false;
        let mut q = core.initiate(problem, Spec::new(["cs-a"], ["cs-c"]), now);
        for _ in 0..1_000 {
            for action in q {
                match action {
                    Action::Send { to, msg } => {
                        assert_eq!(to, me, "single-host community loops back");
                        inbox.push(msg);
                    }
                    Action::SendBytes { .. } => panic!("typed mode emits no bytes"),
                    Action::SetTimer { .. } => {} // tick() fires by due time
                    Action::Event(WorkflowEvent::Constructed { .. }) => constructed = true,
                    Action::Event(WorkflowEvent::Completed { .. }) => completed = true,
                    Action::Event(e) => panic!("unexpected event {e:?}"),
                }
            }
            if let Some(msg) = inbox.pop() {
                q = core.handle_msg(me, msg, now);
                continue;
            }
            // Idle: advance the clock to the next armed timer and poll.
            let Some(due) = core.next_timer_due() else {
                break;
            };
            now = due;
            q = core.tick(now);
        }
        assert!(constructed, "Constructed event surfaced");
        assert!(completed, "Completed event surfaced");
        let ws = core.latest_attempt(problem).expect("workspace");
        assert_eq!(ws.phase, Phase::Completed, "report: {}", ws.report);
        assert_eq!(ws.report.assignments.len(), 2);
        assert_eq!(core.service_mgr().invocations().len(), 2);
    }

    /// `tick` at a time before any due timer is a no-op; at the due time
    /// it fires exactly the due timers.
    #[test]
    fn tick_fires_only_due_timers() {
        let cfg = HostConfig::new().with_fragment(frag("ct-f1", "ct-t1", "ct-a", "ct-b"));
        let mut core = HostCore::new(cfg, RuntimeParams::default());
        core.bind(HostId(0));
        core.set_community(vec![HostId(0), HostId(1)]);
        // With a peer, construction arms a round timeout and waits.
        let q = core.initiate(
            ProblemId::new(HostId(0), 0),
            Spec::new(["ct-a"], ["ct-b"]),
            SimTime::ZERO,
        );
        let armed: Vec<_> = q
            .actions()
            .iter()
            .filter(|a| matches!(a, Action::SetTimer { .. }))
            .collect();
        assert_eq!(armed.len(), 1, "round timeout armed: {:?}", q.actions());
        let due = core.next_timer_due().expect("armed");
        assert!(core.tick(SimTime::ZERO).is_empty(), "nothing due yet");
        assert_eq!(core.next_timer_due(), Some(due), "timer still armed");
        let fired = core.tick(due);
        assert!(
            !fired.is_empty(),
            "round timeout fires work (local fragment round proceeds)"
        );
    }

    /// With enabled collectors attached, a full local problem run
    /// records live counters and a well-formed span stream for the
    /// attempt — and `publish_metrics` is idempotent (delta-based).
    #[test]
    fn observed_core_records_counters_and_spans() {
        let obs = Obs::enabled();
        let cfg = HostConfig::new()
            .with_fragment(frag("ob-f1", "ob-t1", "ob-a", "ob-b"))
            .with_service(service("ob-t1"))
            .with_observability(obs.clone());
        let mut core = HostCore::new(cfg, RuntimeParams::default());
        let me = HostId(0);
        core.bind(me);
        core.set_community(vec![me]);
        let problem = ProblemId::new(me, 0);
        let mut now = SimTime::ZERO;
        let mut inbox: Vec<Msg> = Vec::new();
        let mut q = core.initiate(problem, Spec::new(["ob-a"], ["ob-b"]), now);
        for _ in 0..1_000 {
            for action in q {
                if let Action::Send { msg, .. } = action {
                    inbox.push(msg);
                }
            }
            if let Some(msg) = inbox.pop() {
                q = core.handle_msg(me, msg, now);
                continue;
            }
            let Some(due) = core.next_timer_due() else {
                break;
            };
            now = due;
            q = core.tick(now);
        }
        assert_eq!(
            core.latest_attempt(problem).expect("workspace").phase,
            Phase::Completed
        );

        assert!(obs.metrics.counter("core.messages").get() > 0);
        assert_eq!(obs.metrics.counter("core.auctions").get(), 1);
        assert!(obs.metrics.histogram("core.queue_depth").count() > 0);

        let events = obs.trace.snapshot();
        let spans: Vec<(&str, SpanPhase)> = events
            .iter()
            .filter(|e| e.trace == problem.trace_id())
            .map(|e| (e.name, e.phase))
            .collect();
        for required in [
            ("problem", SpanPhase::Begin),
            ("construct", SpanPhase::Begin),
            ("construct", SpanPhase::End),
            ("allocate", SpanPhase::Begin),
            ("allocate", SpanPhase::End),
            ("execute", SpanPhase::Begin),
            ("task", SpanPhase::Complete),
            ("completed", SpanPhase::Instant),
            ("execute", SpanPhase::End),
            ("problem", SpanPhase::End),
        ] {
            assert!(
                spans.contains(&required),
                "missing {required:?} in {spans:?}"
            );
        }
        // The span stream is causally ordered: begin precedes end.
        let begin = spans
            .iter()
            .position(|s| *s == ("problem", SpanPhase::Begin))
            .unwrap();
        let end = spans
            .iter()
            .position(|s| *s == ("problem", SpanPhase::End))
            .unwrap();
        assert!(begin < end);

        // Delta publishing: a second publish adds nothing new.
        core.publish_metrics();
        let hits_once = obs.metrics.counter("decode.cache_hits").get();
        core.publish_metrics();
        assert_eq!(obs.metrics.counter("decode.cache_hits").get(), hits_once);
    }

    /// Binding twice to the same id is fine; a different id panics.
    #[test]
    #[should_panic(expected = "exactly one host")]
    fn rebinding_to_another_identity_panics() {
        let mut core = HostCore::new(HostConfig::new(), RuntimeParams::default());
        core.bind(HostId(0));
        core.bind(HostId(0));
        core.bind(HostId(1));
    }

    /// Quarantine: after `max_vocabulary_rejections` over-budget frames
    /// from one peer, its traffic is dropped and the event surfaces
    /// exactly once.
    #[test]
    fn minting_peer_is_quarantined_after_cap() {
        let cfg = HostConfig::new()
            .with_fragment(frag("qr-f0", "qr-t0", "qr-a", "qr-b"))
            .with_vocabulary_cap(6) // own knowhow seeds ~5 names
            .with_max_vocabulary_rejections(2);
        let mut core = HostCore::new(cfg, RuntimeParams::default());
        core.bind(HostId(0));
        core.set_community(vec![HostId(0), HostId(1), HostId(2)]);
        let problem = ProblemId::new(HostId(0), 0);
        let minted_reply = |i: usize| Msg::FragmentReply {
            problem,
            round: 1,
            fragments: vec![Arc::new(frag(
                &format!("qr-mint-f{i}"),
                &format!("qr-mint-t{i}"),
                &format!("qr-mint-in{i}"),
                &format!("qr-mint-out{i}"),
            ))],
        };

        // First over-budget reply: rejected, counted, not yet quarantined.
        let q = core.handle_msg(HostId(1), minted_reply(0), SimTime::ZERO);
        assert_eq!(core.vocabulary_rejections_from(HostId(1)), 1);
        assert!(!core.is_quarantined(HostId(1)));
        assert!(
            !q.actions()
                .iter()
                .any(|a| matches!(a, Action::Event(WorkflowEvent::PeerQuarantined { .. }))),
            "below the cap, no quarantine event"
        );

        // Second: the cap trips, the event surfaces.
        let q = core.handle_msg(HostId(1), minted_reply(1), SimTime::ZERO);
        assert!(core.is_quarantined(HostId(1)));
        assert!(
            q.actions().iter().any(|a| matches!(
                a,
                Action::Event(WorkflowEvent::PeerQuarantined {
                    peer: HostId(1),
                    rejections: 2
                })
            )),
            "quarantine event expected in {:?}",
            q.actions()
        );

        // Quarantined traffic — even well-formed queries — is dropped.
        let q = core.handle_msg(
            HostId(1),
            Msg::FragmentQuery {
                problem,
                round: 9,
                labels: vec![Label::new("qr-a")],
            },
            SimTime::ZERO,
        );
        assert!(q.is_empty(), "no reply to a quarantined peer");
        assert_eq!(q.charged(), SimDuration::ZERO, "dropped before processing");
        assert_eq!(
            core.vocabulary_rejections_from(HostId(1)),
            2,
            "dropped frames are not re-counted"
        );

        // An innocent peer is unaffected.
        let q = core.handle_msg(
            HostId(2),
            Msg::FragmentQuery {
                problem,
                round: 9,
                labels: vec![Label::new("qr-a")],
            },
            SimTime::ZERO,
        );
        assert!(
            q.actions()
                .iter()
                .any(|a| matches!(a, Action::Send { to: HostId(2), .. })),
            "peer 2 still gets replies: {:?}",
            q.actions()
        );

        // The same applies to raw frames.
        let mut bytes = Vec::new();
        codec::encode_msg(
            &Msg::FragmentQuery {
                problem,
                round: 10,
                labels: vec![Label::new("qr-a")],
            },
            &mut bytes,
        );
        assert!(core
            .handle_frame(HostId(1), &bytes, SimTime::ZERO)
            .is_empty());
    }

    /// `handle_frame` charges the vocabulary budget at decode: an
    /// over-budget frame books a rejection without interning anything.
    #[test]
    fn over_budget_frame_is_rejected_at_decode() {
        let cfg = HostConfig::new()
            .with_fragment(frag("fb-f0", "fb-t0", "fb-a", "fb-b"))
            .with_vocabulary_cap(6);
        let mut core = HostCore::new(cfg, RuntimeParams::default());
        core.bind(HostId(0));
        core.set_community(vec![HostId(0), HostId(1)]);
        let names_before = core.vocabulary_names();

        let mut bytes = Vec::new();
        codec::encode_msg(
            &Msg::FragmentReply {
                problem: ProblemId::new(HostId(0), 0),
                round: 1,
                fragments: vec![Arc::new(frag(
                    "fb-mint-f",
                    "fb-mint-t",
                    "fb-mint-in",
                    "fb-mint-out",
                ))],
            },
            &mut bytes,
        );
        let q = core.handle_frame(HostId(1), &bytes, SimTime::ZERO);
        assert!(q.is_empty());
        assert_eq!(core.vocabulary_rejections(), 1);
        assert_eq!(core.vocabulary_rejections_from(HostId(1)), 1);
        assert_eq!(
            core.vocabulary_names(),
            names_before,
            "rejected frame recorded nothing"
        );

        // Garbage bytes are transport loss, not a vocabulary offence.
        let q = core.handle_frame(HostId(1), &[0xff, 0x01, 0x02], SimTime::ZERO);
        assert!(q.is_empty());
        assert_eq!(core.vocabulary_rejections(), 1, "no rejection booked");
    }

    /// The cap guards *every* peer frame at the networked boundary — a
    /// hostile peer cannot grow the interner through query labels — but
    /// only fragment replies (minted knowhow) are blamed, and the
    /// host's own looped-back frames are trusted like own knowhow.
    #[test]
    fn non_reply_frames_cannot_mint_past_the_cap() {
        let cfg = HostConfig::new()
            .with_fragment(frag("nf-f0", "nf-t0", "nf-a", "nf-b"))
            .with_service(service("nf-t0"))
            .with_vocabulary_cap(8)
            .with_max_vocabulary_rejections(1);
        let mut core = HostCore::new(cfg, RuntimeParams::default());
        core.bind(HostId(0));
        core.set_community(vec![HostId(0), HostId(1)]);
        let problem = ProblemId::new(HostId(0), 0);
        let names_before = core.vocabulary_names();

        // A peer query minting fresh labels: dropped, nothing recorded,
        // and the peer is NOT blamed (echoing a rich frontier is not
        // evidence of minting).
        let mut bytes = Vec::new();
        codec::encode_msg(
            &Msg::FragmentQuery {
                problem,
                round: 1,
                labels: (0..16)
                    .map(|i| Label::new(format!("nf-mint-{i}")))
                    .collect(),
            },
            &mut bytes,
        );
        let q = core.handle_frame(HostId(1), &bytes, SimTime::ZERO);
        assert!(q.is_empty(), "over-budget query dropped, not answered");
        assert_eq!(core.vocabulary_names(), names_before, "nothing interned");
        assert_eq!(core.vocabulary_rejections_from(HostId(1)), 0, "no blame");
        assert!(!core.is_quarantined(HostId(1)));

        // A within-budget query from the same peer still gets answered.
        let mut ok_bytes = Vec::new();
        codec::encode_msg(
            &Msg::FragmentQuery {
                problem,
                round: 2,
                labels: vec![Label::new("nf-a")],
            },
            &mut ok_bytes,
        );
        let q = core.handle_frame(HostId(1), &ok_bytes, SimTime::ZERO);
        assert!(
            q.actions()
                .iter()
                .any(|a| matches!(a, Action::Send { to: HostId(1), .. })),
            "reply expected in {:?}",
            q.actions()
        );

        // The same minting frame from *self* (a driver looping back own
        // traffic) bypasses the budget entirely and is processed.
        let q = core.handle_frame(HostId(0), &bytes, SimTime::ZERO);
        assert!(
            q.actions()
                .iter()
                .any(|a| matches!(a, Action::Send { to: HostId(0), .. })),
            "self query answered: {:?}",
            q.actions()
        );
        assert_eq!(core.vocabulary_rejections(), 0);
    }
}
