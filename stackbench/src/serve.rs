//! The serve workloads: real `NetServer` reactors, one thread per host,
//! meshed over 127.0.0.1, loaded by one generator thread (the caller's)
//! over at most two client connections. Problems go in as operator SPEC
//! envelopes in a closed loop; on serve-durable, know-how also streams in
//! as FRAGMENT envelopes on an open-loop schedule.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openwf_core::{InMemoryFragmentStore, IncrementalConstructor, Spec};
use openwf_net::proto::{encode_hello, Hello};
use openwf_net::{NetServer, ServerConfig, WallClock, NET_PROTO_VERSION};
use openwf_obs::{MetricsRegistry, Obs, TraceSink};
use openwf_runtime::fragment_mgr::FragmentManager;
use openwf_runtime::{HostConfig, RuntimeParams, WorkflowEvent};
use openwf_simnet::{HostId, SimTime};

use crate::inputs::{self, derive, IngestBatch, Problem};
use crate::layers;
use crate::report::{median, per, quantile, Meter, Metrics};
use crate::spans::Spans;
use crate::Outcome;

/// The community every serve workload runs in.
const COMMUNITY: u64 = 0;
/// Client connections announce host ids from here up (never a member).
const CLIENT_HOST_BASE: u32 = 1_000;
/// Distinct names one operator connection may intern: far above what
/// a run's ingest stream mints, so the budget never refuses it.
const INGEST_NAME_CAP: usize = 1 << 24;
/// The longest a reactor poll waits before rechecking its stop flag.
const POLL_WAIT: Duration = Duration::from_millis(10);
/// Interval between know-how ingest batches.
const INGEST_PERIOD: Duration = Duration::from_millis(2);
/// How long problems and ingest still in flight at the deadline may
/// take to finish before they count as stuck.
const DRAIN: Duration = Duration::from_secs(5);
/// Bound on any single set-up step (listen, mesh, handshake).
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Spans kept per kind in a traced run (the Chrome exporter is
/// quadratic in distinct problems).
const SPAN_CAP: usize = 2_000;

/// The fixed shape of one serve workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub hosts: usize,
    /// Tasks of the generated supergraph (split 1/hosts per host).
    pub tasks: usize,
    /// Inclusive range of spec path lengths.
    pub lengths: (usize, usize),
    /// Closed-loop clients; client `c` submits to host `c`.
    pub clients: usize,
    /// Open-loop know-how ingest on a connection of its own to the last
    /// host, in fragments per second, a batch every [`INGEST_PERIOD`].
    pub ingest: Option<usize>,
    /// Durable stores reopened from pre-built logs: `(live filler
    /// fragments per host, versions written of each)`.
    pub durable: Option<(usize, usize)>,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

pub const SERVE_SMALL: Shape = Shape {
    hosts: 4,
    tasks: 100,
    lengths: (2, 8),
    clients: 2,
    ingest: None,
    durable: None,
    setups: 7,
};

pub const SERVE_DURABLE: Shape = Shape {
    hosts: 4,
    tasks: 500,
    lengths: (8, 14),
    clients: 1,
    ingest: Some(20_000),
    durable: Some((25_000, 4)),
    setups: 9,
};

impl Shape {
    /// Whether host `h` takes in the ingest stream.
    fn ingests(&self, h: usize) -> bool {
        self.ingest.is_some() && h == self.hosts - 1
    }

    /// Remote pairs host `h` must have handshaken before it is ready:
    /// every peer, plus each client connection addressed to it.
    fn expected_peers(&self, h: usize) -> usize {
        let clients = usize::from(h < self.clients);
        self.hosts - 1 + clients + usize::from(self.ingests(h))
    }
}

/// How a finished problem looked to its initiator.
#[derive(Debug)]
struct Finished {
    /// Why an output check failed (or the failure reason).
    violation: Option<String>,
    /// Initiated, constructed, allocated and completed, on the run clock.
    phases: [Option<SimTime>; 4],
    rounds: u32,
    pulled: usize,
    repairs: u32,
}

enum Note {
    Finished {
        host: usize,
        seq: u32,
        at: Instant,
        outcome: Finished,
    },
    /// The ingest host's store size changed.
    Stored { len: usize, at: Instant },
}

enum Up {
    Listening {
        addr: SocketAddr,
        add_core: Duration,
    },
    Ready {
        store_len: usize,
    },
}

/// What a reactor thread measured and held at the end of the run.
#[derive(Default)]
struct ReactorEnd {
    polls: u64,
    active_poll_time: Duration,
    backend: Vec<(&'static str, u64)>,
    digest: Option<Vec<Vec<u8>>>,
}

/// One live community: reactor threads plus the client connections.
struct Mesh {
    stop: Arc<AtomicBool>,
    reactors: Vec<JoinHandle<ReactorEnd>>,
    /// Clients in order, then the dedicated ingest connection.
    conns: Vec<TcpStream>,
    notes: Receiver<Note>,
    /// The ingest host's store size once ready.
    base_len: usize,
    obs: Obs,
}

/// Everything the run needs that comes from the seed.
struct Inputs {
    community: inputs::Community,
    /// Per client, the problems it cycles through.
    problems: Vec<Vec<Problem>>,
    ingest: Vec<IngestBatch>,
    dirs: Vec<PathBuf>,
    prebuilt_records: u64,
}

fn client_host(c: usize) -> HostId {
    HostId(CLIENT_HOST_BASE + c as u32)
}

fn make_inputs(shape: &Shape, seed: u64, seconds: u64, data: &Path) -> std::io::Result<Inputs> {
    let community = inputs::community(shape.tasks, shape.hosts, seed);
    // A closed-loop client completes well under 1,000 problems/s here;
    // the pool cycles if a faster build does.
    let pool = (1_000 * seconds as usize).clamp(500, 40_000);
    let problems = (0..shape.clients)
        .map(|c| {
            inputs::problems(
                &community.knowledge,
                shape.lengths,
                pool,
                derive(seed, 10 + c as u64),
                client_host(c),
                HostId(c as u32),
            )
        })
        .collect();
    let ingest = match shape.ingest {
        Some(rate) => inputs::ingest_stream(
            rate,
            INGEST_PERIOD,
            seconds,
            derive(seed, 3),
            client_host(shape.clients),
            HostId(shape.hosts as u32 - 1),
        ),
        None => Vec::new(),
    };
    let mut dirs = Vec::new();
    let mut prebuilt_records = 0;
    if let Some((live, versions)) = shape.durable {
        for (h, config) in community.configs.iter().enumerate() {
            let dir = data.join(format!("host{h}"));
            prebuilt_records += inputs::prebuild_log(
                &dir,
                &config.fragments,
                live,
                versions,
                derive(seed, 20 + h as u64),
                h,
            )?;
            dirs.push(dir);
        }
    }
    Ok(Inputs {
        community,
        problems,
        ingest,
        dirs,
        prebuilt_records,
    })
}

/// The host's configuration: in-memory with its share of know-how, or
/// durable over a copy of its pre-built log (which already holds that
/// share) in `dirs`.
fn host_config(inputs: &Inputs, dirs: &[PathBuf], h: usize, obs: &Obs) -> HostConfig {
    let base = &inputs.community.configs[h];
    let config = match dirs.get(h) {
        Some(dir) => {
            let mut c = HostConfig::new().with_durable_storage(dir);
            c.services = base.services.clone();
            c
        }
        None => base.clone(),
    };
    config.with_observability(obs.clone())
}

fn hello_frame(name: &str, host: HostId) -> Vec<u8> {
    let mut out = Vec::new();
    encode_hello(
        &Hello {
            proto: NET_PROTO_VERSION,
            name: name.into(),
            listen: String::new(),
            hosts: vec![(COMMUNITY, host)],
        },
        &mut out,
    );
    out
}

fn fail(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

impl Mesh {
    /// Brings the community up until the first submission can go out:
    /// reactors built (durable logs reopened), peers meshed with
    /// completed hellos, client connections handshaken. Returns the mesh,
    /// the set-up time and each host's `add_core` time.
    fn start(
        shape: &Shape,
        inputs: &Inputs,
        dirs: &[PathBuf],
        clock: WallClock,
        traced: bool,
        spans: Option<&Spans>,
    ) -> std::io::Result<(Mesh, Duration, Vec<Duration>)> {
        // Untraced runs keep every collector disabled. Traced runs
        // enable the metrics registry only: spans come from the
        // benchmark, not from inside the program.
        let obs = if traced {
            Obs {
                metrics: MetricsRegistry::new(),
                trace: TraceSink::disabled(),
            }
        } else {
            Obs::disabled()
        };
        let began = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let (up_tx, up_rx) = channel();
        let (note_tx, notes) = channel();
        let mut downs = Vec::new();
        let mut reactors = Vec::new();
        for h in 0..shape.hosts {
            let (down_tx, down_rx) = channel();
            downs.push(down_tx);
            let reactor = Reactor {
                host: h,
                hosts: shape.hosts,
                expected_peers: shape.expected_peers(h),
                watch_store: shape.ingests(h),
                durable: shape.durable.is_some(),
                clock,
                obs: obs.clone(),
                stop: Arc::clone(&stop),
                notes: note_tx.clone(),
                spans: spans.cloned(),
            };
            let config = host_config(inputs, dirs, h, &obs);
            let up = up_tx.clone();
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("stackbench-reactor-{h}"))
                    .spawn(move || reactor.run(config, up, down_rx))?,
            );
        }
        drop(up_tx);
        drop(note_tx);

        let mut addrs = vec![None; shape.hosts];
        let mut add_core = vec![Duration::ZERO; shape.hosts];
        for _ in 0..shape.hosts {
            match up_rx.recv_timeout(SETUP_TIMEOUT) {
                Ok((h, Up::Listening { addr, add_core: d })) => {
                    addrs[h] = Some(addr);
                    add_core[h] = d;
                }
                _ => return Err(fail("a reactor did not come up".into())),
            }
        }
        let addrs: Vec<SocketAddr> = addrs.into_iter().map(|a| a.expect("all up")).collect();
        for down in &downs {
            down.send(addrs.clone())
                .map_err(|_| fail("a reactor exited during set-up".into()))?;
        }
        let mut conns = Vec::new();
        for (c, addr) in addrs.iter().enumerate().take(shape.clients) {
            conns.push(connect(*addr, &format!("client{c}"), client_host(c))?);
        }
        if shape.ingest.is_some() {
            let to = addrs[shape.hosts - 1];
            conns.push(connect(to, "ingest", client_host(shape.clients))?);
        }
        let mut base_len = 0;
        for _ in 0..shape.hosts {
            match up_rx.recv_timeout(SETUP_TIMEOUT) {
                Ok((h, Up::Ready { store_len })) => {
                    if shape.ingests(h) {
                        base_len = store_len;
                    }
                }
                _ => return Err(fail("the mesh did not complete its handshakes".into())),
            }
        }
        let setup = began.elapsed();
        Ok((
            Mesh {
                stop,
                reactors,
                conns,
                notes,
                base_len,
                obs,
            },
            setup,
            add_core,
        ))
    }

    /// Stops every reactor (each publishes its metrics and shuts its
    /// server down gracefully) and closes the client connections.
    fn finish(self) -> Vec<ReactorEnd> {
        self.stop.store(true, Ordering::SeqCst);
        let ends = self
            .reactors
            .into_iter()
            .map(|r| r.join().expect("reactor thread panicked"))
            .collect();
        drop(self.conns);
        ends
    }
}

fn connect(addr: SocketAddr, name: &str, host: HostId) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, SETUP_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.write_all(&hello_frame(name, host))?;
    Ok(stream)
}

/// One host's reactor thread.
struct Reactor {
    host: usize,
    hosts: usize,
    expected_peers: usize,
    watch_store: bool,
    durable: bool,
    clock: WallClock,
    obs: Obs,
    stop: Arc<AtomicBool>,
    notes: Sender<Note>,
    spans: Option<Spans>,
}

impl Reactor {
    fn run(
        self,
        config: HostConfig,
        up: Sender<(usize, Up)>,
        down: Receiver<Vec<SocketAddr>>,
    ) -> ReactorEnd {
        let me = HostId(self.host as u32);
        let mut server = NetServer::new(ServerConfig {
            name: format!("stackbench-host{}", self.host),
            obs: self.obs.clone(),
            clock: self.clock,
            operator_ingest: Some(INGEST_NAME_CAP),
            ..ServerConfig::default()
        })
        .expect("bind a loopback listener");
        let t = Instant::now();
        server.add_core(COMMUNITY, me, config, RuntimeParams::default());
        let add_core = t.elapsed();
        if let Some(spans) = &self.spans {
            spans.span(
                "storage.reopen",
                self.host as u32,
                0,
                t,
                t + add_core,
                String::new(),
            );
        }
        let addr = server.listen_addr().expect("servers listen");
        if up
            .send((self.host, Up::Listening { addr, add_core }))
            .is_err()
        {
            return ReactorEnd::default();
        }
        let Ok(addrs) = down.recv() else {
            return ReactorEnd::default();
        };
        server.set_community(COMMUNITY, (0..self.hosts as u32).map(HostId).collect());
        // Lower hosts dial higher ones, so each pair shares one
        // connection and the acceptor maps its peer only once the hello
        // arrived — which makes the count below a handshake barrier.
        for (j, addr) in addrs.iter().enumerate().skip(self.host + 1) {
            server.add_route(COMMUNITY, HostId(j as u32), *addr);
        }
        server.dial_routes();
        let deadline = Instant::now() + SETUP_TIMEOUT;
        while server.connected_remote_hosts() < self.expected_peers {
            assert!(Instant::now() < deadline, "handshakes did not complete");
            server.poll(Duration::from_millis(1));
        }
        let mut last_len = server.core(COMMUNITY, me).fragment_mgr().len();
        let _ = up.send((
            self.host,
            Up::Ready {
                store_len: last_len,
            },
        ));

        let mut end = ReactorEnd::default();
        let mut poll_spans = 0;
        while !self.stop.load(Ordering::SeqCst) {
            let t = Instant::now();
            let active = server.poll(POLL_WAIT);
            // Whatever this turn surfaced, the harness sees it now.
            let now = Instant::now();
            if let Some(spans) = &self.spans {
                end.polls += 1;
                if active {
                    end.active_poll_time += now - t;
                    if poll_spans < SPAN_CAP {
                        poll_spans += 1;
                        spans.span("net.poll", self.host as u32, 0, t, now, String::new());
                    }
                }
            }
            for (_, _, event) in server.drain_workflow_events() {
                let (problem, outcome) = match event {
                    WorkflowEvent::Completed { problem } => {
                        (problem, check_completed(&server, me, problem))
                    }
                    WorkflowEvent::Failed { problem, reason } => {
                        let mut outcome = check_completed(&server, me, problem);
                        outcome.violation = Some(format!("failed: {reason}"));
                        (problem, outcome)
                    }
                    _ => continue,
                };
                let _ = self.notes.send(Note::Finished {
                    host: self.host,
                    seq: problem.seq,
                    at: now,
                    outcome,
                });
            }
            if self.watch_store {
                let len = server.core(COMMUNITY, me).fragment_mgr().len();
                if len != last_len {
                    last_len = len;
                    let _ = self.notes.send(Note::Stored { len, at: now });
                }
            }
        }
        server.scrape();
        end.backend = server.core(COMMUNITY, me).fragment_mgr().backend_metrics();
        if self.durable {
            end.digest = Some(server.knowhow_digest(COMMUNITY, me));
        }
        server.shutdown();
        end
    }
}

/// The output check on a finished problem: its constructed tasks are all
/// assigned and every goal of its spec was delivered.
fn check_completed(server: &NetServer, me: HostId, problem: openwf_runtime::ProblemId) -> Finished {
    let Some(ws) = server.core(COMMUNITY, me).workflow_mgr().get(&problem) else {
        return Finished {
            violation: Some("no workspace for a finished problem".into()),
            phases: [None; 4],
            rounds: 0,
            pulled: 0,
            repairs: 0,
        };
    };
    let report = &ws.report;
    let mut violation = None;
    match &ws.construction {
        None => violation = Some("completed without a construction".to_string()),
        Some(c) => {
            if let Some(task) = c
                .workflow()
                .tasks()
                .find(|t| !report.assignments.iter().any(|(a, _)| a == t))
            {
                violation = Some(format!("constructed task {task} was never assigned"));
            }
        }
    }
    if let Some(goal) = ws
        .spec
        .goals()
        .iter()
        .find(|g| !report.goals_delivered.contains(g))
    {
        violation.get_or_insert(format!("goal {goal} was not delivered"));
    }
    let t = &report.timings;
    Finished {
        violation,
        phases: [
            t.initiated_at,
            t.constructed_at,
            t.allocated_at,
            t.completed_at,
        ],
        rounds: report.query_rounds,
        pulled: report.fragments_pulled,
        repairs: report.repair_attempts,
    }
}

/// A closed-loop client's state.
struct Client {
    /// Index of the next problem in its pool.
    next: usize,
    /// Send time of each submission, indexed by the initiator's seq.
    sent: Vec<Instant>,
    in_flight: bool,
}

/// Tail figures are summarised per window of this much of the measured
/// phase (by completion time for problems, by due time for ingest).
const TAIL_WINDOW: Duration = Duration::from_secs(2);

/// What the load generator saw.
#[derive(Default)]
struct Drive {
    /// Problems completed in each second of the measured phase.
    per_second: Vec<u64>,
    /// Machine steal share and process CPU seconds over the phase.
    steal: f64,
    cpu_s: f64,
    /// Submit→complete latencies of the problems completed in the phase,
    /// by [`TAIL_WINDOW`] of completion time.
    latencies_ms: Vec<Vec<f64>>,
    /// For the same problems, the SPEC envelope's ingest hop: the
    /// client's write until the initiator's core took the problem in
    /// (its report's `initiated_at`).
    spec_lag_ms: Vec<Vec<f64>>,
    /// Lags of the ingest batches due in the phase, by [`TAIL_WINDOW`]
    /// of due time.
    ingest_lag_ms: Vec<Vec<f64>>,
    attempted: u64,
    completed_ok: u64,
    stuck: u64,
    violations: Vec<String>,
    phase_ms: [Vec<f64>; 3],
    rounds: u64,
    pulled: u64,
    repairs: u64,
    ingest_late_ms: Vec<f64>,
    ingest_unstored: usize,
    /// Problems the initiators finished, in completion order.
    completed_specs: Vec<(usize, usize)>,
}

/// The generator loop: closed-loop problems, open-loop ingest, for
/// `seconds`, then a bounded drain of what is still in flight.
fn drive(
    shape: &Shape,
    inputs: &Inputs,
    mesh: &mut Mesh,
    seconds: u64,
    clock: WallClock,
    spans: Option<&Spans>,
) -> std::io::Result<Drive> {
    let mut d = Drive {
        per_second: vec![0; seconds as usize],
        ..Drive::default()
    };
    let mut clients: Vec<Client> = (0..shape.clients)
        .map(|_| Client {
            next: 0,
            sent: Vec::new(),
            in_flight: false,
        })
        .collect();
    let ingest_conn = shape.clients;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let meter = Meter::start();
    let mut drain_until = None;
    let mut next_batch = 0;
    let mut stored_batches = 0;
    let mut stored_target = mesh.base_len;
    let mut problem_spans = 0;

    let submit = |c: usize, client: &mut Client, conns: &mut [TcpStream], d: &mut Drive| {
        let pool = &inputs.problems[c];
        let problem = &pool[client.next % pool.len()];
        client.next += 1;
        client.sent.push(Instant::now());
        client.in_flight = true;
        d.attempted += 1;
        conns[c].write_all(&problem.envelope)
    };
    for (c, client) in clients.iter_mut().enumerate() {
        submit(c, client, &mut mesh.conns, &mut d)?;
    }
    loop {
        let now = Instant::now();
        if now >= deadline && drain_until.is_none() {
            drain_until = Some(now + DRAIN);
            (d.steal, d.cpu_s) = meter.read();
        }
        while drain_until.is_none() {
            let Some(batch) = inputs.ingest.get(next_batch) else {
                break;
            };
            let due = start + batch.due;
            if due > now {
                break;
            }
            mesh.conns[ingest_conn].write_all(&batch.bytes)?;
            d.ingest_late_ms.push(ms(Instant::now() - due));
            next_batch += 1;
        }
        if let Some(until) = drain_until {
            let idle = clients.iter().all(|c| !c.in_flight);
            if (idle && stored_batches == next_batch) || now >= until {
                break;
            }
        }
        let wake = match (drain_until, inputs.ingest.get(next_batch)) {
            (Some(until), _) => until,
            (None, Some(batch)) => (start + batch.due).min(deadline),
            (None, None) => deadline,
        };
        let note = match mesh.notes.recv_timeout(wake.saturating_duration_since(now)) {
            Ok(note) => note,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(fail("every reactor exited mid-run".into()))
            }
        };
        match note {
            Note::Stored { len, at } => {
                while stored_batches < next_batch
                    && len >= stored_target + inputs.ingest[stored_batches].fresh
                {
                    stored_target += inputs.ingest[stored_batches].fresh;
                    let due = inputs.ingest[stored_batches].due;
                    let lag = ms(at.saturating_duration_since(start + due));
                    push_windowed(&mut d.ingest_lag_ms, due, lag);
                    stored_batches += 1;
                }
            }
            Note::Finished {
                host,
                seq,
                at,
                outcome,
            } => {
                let Some(client) = clients.get_mut(host) else {
                    d.violations
                        .push(format!("host {host} finished a problem no client sent"));
                    continue;
                };
                let Some(&sent) = client.sent.get(seq as usize) else {
                    d.violations
                        .push(format!("host {host} finished unknown seq {seq}"));
                    continue;
                };
                if !client.in_flight || seq as usize + 1 != client.sent.len() {
                    d.violations
                        .push(format!("host {host} finished seq {seq} twice or early"));
                    continue;
                }
                client.in_flight = false;
                match outcome.violation {
                    Some(v) => d.violations.push(format!("host {host} seq {seq}: {v}")),
                    None => {
                        d.completed_ok += 1;
                        if let Some(n) = d.per_second.get_mut((at - start).as_secs() as usize) {
                            *n += 1;
                            push_windowed(&mut d.latencies_ms, at - start, ms(at - sent));
                            if let Some(initiated) = outcome.phases[0] {
                                let lag =
                                    clock.instant_of(initiated).saturating_duration_since(sent);
                                push_windowed(&mut d.spec_lag_ms, at - start, ms(lag));
                            }
                        }
                        d.completed_specs
                            .push((host, (client.next - 1) % inputs.problems[host].len()));
                        let p = outcome.phases;
                        for (i, out) in d.phase_ms.iter_mut().enumerate() {
                            if let (Some(a), Some(b)) = (p[i], p[i + 1]) {
                                out.push(b.since(a).as_micros() as f64 / 1000.0);
                            }
                        }
                        d.rounds += u64::from(outcome.rounds);
                        d.pulled += outcome.pulled as u64;
                        d.repairs += u64::from(outcome.repairs);
                        if let Some(spans) = spans.filter(|_| problem_spans < SPAN_CAP) {
                            problem_spans += 1;
                            record_problem(spans, clock, host, seq, sent, at, &p);
                        }
                    }
                }
                if drain_until.is_none() {
                    submit(host, client, &mut mesh.conns, &mut d)?;
                }
            }
        }
    }
    d.stuck = clients.iter().filter(|c| c.in_flight).count() as u64;
    d.ingest_unstored = next_batch - stored_batches;
    Ok(d)
}

/// Files `value` under the [`TAIL_WINDOW`] that `offset` into the
/// measured phase falls in.
fn push_windowed(windows: &mut Vec<Vec<f64>>, offset: Duration, value: f64) {
    let w = (offset.as_nanos() / TAIL_WINDOW.as_nanos()) as usize;
    if windows.len() <= w {
        windows.resize(w + 1, Vec::new());
    }
    windows[w].push(value);
}

/// The median over windows of each window's 99th percentile. A rare
/// stall of a few tens of milliseconds (a burst of steal, say) delays a
/// run of consecutive problems or batches; pooled, the number of such
/// stalls a run happens to catch would decide its p99.
fn windowed_p99(windows: &[Vec<f64>]) -> f64 {
    let mut p99: Vec<f64> = windows
        .iter()
        .map(|w| quantile(&mut w.clone(), 0.99))
        .collect();
    median(&mut p99)
}

/// A problem's root span (client write → `Completed` surfaced) with its
/// construct / allocate / execute children from the report timestamps.
fn record_problem(
    spans: &Spans,
    clock: WallClock,
    host: usize,
    seq: u32,
    sent: Instant,
    done: Instant,
    phases: &[Option<SimTime>; 4],
) {
    let trace = openwf_obs::pack_trace_id(host as u32, seq, 0);
    let lane = host as u32;
    spans.span("problem", lane, trace, sent, done, String::new());
    for (i, name) in ["construct", "allocate", "execute"].into_iter().enumerate() {
        if let (Some(a), Some(b)) = (phases[i], phases[i + 1]) {
            let (a, b) = (clock.instant_of(a), clock.instant_of(b));
            spans.span(name, lane, trace, a, b, String::new());
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Each durable host's digest after the run must equal the digest of
/// its log reopened fresh.
fn check_durable(dirs: &[PathBuf], ends: &[ReactorEnd]) -> Vec<String> {
    std::thread::scope(|s| {
        let checks: Vec<_> = dirs
            .iter()
            .zip(ends)
            .enumerate()
            .map(|(h, (dir, end))| {
                s.spawn(move || {
                    let reopened = match FragmentManager::durable(
                        dir,
                        1,
                        openwf_wire::DEFAULT_SEGMENT_BYTES,
                    ) {
                        Ok(m) => m,
                        Err(e) => return Some(format!("host {h}: reopening its log failed: {e}")),
                    };
                    let mut digest: Vec<Vec<u8>> = reopened
                        .fragments()
                        .map(|f| {
                            let mut bytes = Vec::new();
                            openwf_wire::encode_fragment(f, &mut bytes);
                            bytes
                        })
                        .collect();
                    digest.sort();
                    (end.digest.as_ref() != Some(&digest))
                        .then(|| format!("host {h}: know-how digest differs from its reopened log"))
                })
            })
            .collect();
        checks
            .into_iter()
            .filter_map(|c| c.join().expect("digest check thread"))
            .collect()
    })
}

/// An attempt whose measured phase saw the hypervisor steal less than
/// this share of the machine's CPU time is kept without trying again.
const STEAL_OK: f64 = 0.005;
/// Measured phases one run may try before it keeps the calmest.
const ATTEMPTS: usize = 3;

/// One measured phase over a fresh community.
struct Attempt {
    drive: Drive,
    ends: Vec<ReactorEnd>,
    obs: Obs,
    spans: Option<Spans>,
}

/// Copies each pristine log directory into `to`, so every attempt
/// reopens the same logs. Returns the copies.
fn copy_logs(pristine: &[PathBuf], to: &Path) -> std::io::Result<Vec<PathBuf>> {
    pristine
        .iter()
        .enumerate()
        .map(|(h, from)| {
            let dir = to.join(format!("host{h}"));
            std::fs::create_dir_all(&dir)?;
            for entry in std::fs::read_dir(from)? {
                let entry = entry?;
                std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
            }
            Ok(dir)
        })
        .collect()
}

/// Runs one serve workload and measures it.
///
/// Other tenants of a shared box can steal a large share of its CPU
/// time for tens of seconds, and a closed loop over real sockets slows
/// several times over when they do. So a run measures for `seconds`
/// over a freshly built community, and when the hypervisor stole more
/// than [`STEAL_OK`] of the machine's CPU time meanwhile it builds the
/// community again and measures again, up to [`ATTEMPTS`] times,
/// keeping the calmest attempt. Output checks cover every attempt.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: u64,
    data: &Path,
    trace: bool,
) -> std::io::Result<Outcome> {
    let inputs = make_inputs(shape, seed, seconds, &data.join("pristine"))?;
    let clock = WallClock::new();
    let mut setups = Vec::new();
    let mut add_cores = Vec::new();
    let mut violations = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut kept: Option<Attempt> = None;
    let mut peak_rss_mib = 0.0;
    for attempt in 0..ATTEMPTS {
        let spans = trace.then(|| Spans::new(Instant::now()));
        let attempt_dir = data.join(format!("attempt{attempt}"));
        let dirs = copy_logs(&inputs.dirs, &attempt_dir)?;
        let set_ups = if attempt == 0 { shape.setups } else { 1 };
        let mut mesh = None;
        for i in 0..set_ups {
            let (m, setup, add_core) =
                Mesh::start(shape, &inputs, &dirs, clock, trace, spans.as_ref())?;
            setups.push(setup.as_secs_f64());
            add_cores.extend(add_core.iter().map(|d| ms(*d)));
            if i + 1 < set_ups {
                m.finish();
            } else {
                mesh = Some(m);
            }
        }
        let mut mesh = mesh.expect("at least one set-up");
        let d = drive(shape, &inputs, &mut mesh, seconds, clock, spans.as_ref())?;
        let obs = mesh.obs.clone();
        let ends = mesh.finish();

        // Failed: problems that did not complete cleanly, plus every
        // store check that broke.
        violations.extend(d.violations.iter().cloned());
        if d.stuck > 0 {
            violations.push(format!("{} problems unfinished after the drain", d.stuck));
        }
        let mut store_checks = Vec::new();
        if shape.durable.is_some() {
            store_checks.extend(check_durable(&dirs, &ends));
        }
        if d.ingest_unstored > 0 {
            store_checks.push(format!("{} ingest batches never stored", d.ingest_unstored));
        }
        attempted += d.attempted;
        failed += d.attempted - d.completed_ok + store_checks.len() as u64;
        violations.extend(store_checks);
        if !dirs.is_empty() {
            std::fs::remove_dir_all(&attempt_dir)?;
        }
        if attempt == 0 {
            // Memory a later attempt's threads allocate lands in fresh
            // allocator arenas, on top of what this one freed; only the
            // first attempt's peak is the peak of one run.
            peak_rss_mib = crate::report::peak_rss_mib();
        }

        eprintln!(
            "stackbench: attempt {attempt}: {} problems, {} completed, {:.1}% of the \
             machine's CPU time stolen; completions per second {:?}",
            d.attempted,
            d.completed_ok,
            100.0 * d.steal,
            d.per_second,
        );
        let calm = d.steal <= STEAL_OK;
        if kept.as_ref().is_none_or(|k| d.steal < k.drive.steal) {
            kept = Some(Attempt {
                drive: d,
                ends,
                obs,
                spans,
            });
        }
        if calm {
            break;
        }
    }
    let Attempt {
        drive: d,
        ends,
        obs,
        spans,
    } = kept.expect("at least one attempt");

    let completed = d.completed_ok as f64;
    let in_phase: u64 = d.per_second.iter().sum();
    let mut per_second: Vec<f64> = d.per_second.iter().map(|&n| n as f64).collect();
    let mut lat: Vec<f64> = d.latencies_ms.concat();
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setups), "s");
    // The median second, so a short stall of the machine moves it less.
    m.put("workflows_per_s", median(&mut per_second), "1/s");
    m.put("e2e_p50_ms", quantile(&mut lat, 0.50), "ms");
    m.put("e2e_p99_ms", windowed_p99(&d.latencies_ms), "ms");
    m.put(
        "completed_ratio",
        per(completed, d.attempted as f64),
        "ratio",
    );
    // Without a know-how stream, the SPEC envelopes are the run's only
    // operator ingest, and their hop into the initiator stands in.
    let ingest_lag = if shape.ingest.is_some() {
        &d.ingest_lag_ms
    } else {
        &d.spec_lag_ms
    };
    m.put("ingest_lag_p99_ms", windowed_p99(ingest_lag), "ms");
    m.put("peak_rss_mib", peak_rss_mib, "MiB");
    m.put(
        "cpu_ms_per_wf",
        per(d.cpu_s * 1000.0, in_phase as f64),
        "ms",
    );
    let fewest = |windows: &[Vec<f64>]| windows.iter().map(Vec::len).min().unwrap_or(0);
    eprintln!(
        "stackbench: kept attempt: {} e2e samples, {} ingest-lag samples, in {}-second \
         windows holding at least {} and {}; prebuilt log records {}",
        lat.len(),
        ingest_lag.iter().map(Vec::len).sum::<usize>(),
        TAIL_WINDOW.as_secs(),
        fewest(&d.latencies_ms),
        fewest(ingest_lag),
        inputs.prebuilt_records,
    );

    if let Some(spans) = &spans {
        let reg = &obs.metrics;
        let counter = |name: &str| reg.counter(name).get() as f64;
        let polls: u64 = ends.iter().map(|e| e.polls).sum();
        let active: Duration = ends.iter().map(|e| e.active_poll_time).sum();
        m.put(
            "net.poll_active_ms_per_wf",
            per(ms(active), completed),
            "ms",
        );
        m.put("net.polls_per_wf", per(polls as f64, completed), "count");
        m.put(
            "net.tx_frames_per_wf",
            per(counter("net.tx_frames"), completed),
            "count",
        );
        m.put(
            "net.tx_bytes_per_wf",
            per(counter("net.tx_bytes"), completed),
            "bytes",
        );
        m.put(
            "net.tx_queue_depth_p99",
            layers::histogram_p99(reg, "net.tx_queue_depth"),
            "count",
        );
        m.put(
            "net.drops",
            counter("net.conn_slow_drops") + counter("net.tx_dropped"),
            "count",
        );
        let [construct, allocate, execute] = d.phase_ms.clone();
        m.put(
            "runtime.construct_ms_p50",
            median(&mut construct.clone()),
            "ms",
        );
        m.put(
            "runtime.allocate_ms_p50",
            median(&mut allocate.clone()),
            "ms",
        );
        m.put("runtime.execute_ms_p50", median(&mut execute.clone()), "ms");
        m.put(
            "runtime.query_rounds_per_wf",
            per(d.rounds as f64, completed),
            "count",
        );
        m.put(
            "runtime.fragments_pulled_per_wf",
            per(d.pulled as f64, completed),
            "count",
        );
        m.put(
            "runtime.repairs_per_wf",
            per(d.repairs as f64, completed),
            "count",
        );
        layers::runtime_registry(&mut m, reg, completed);
        layers::decode_registry(&mut m, reg, completed);

        let knowhow: Vec<_> = inputs.community.knowledge.fragments().to_vec();
        let specs: Vec<&Spec> = d
            .completed_specs
            .iter()
            .take(1_000)
            .map(|&(c, i)| &inputs.problems[c][i].spec)
            .collect();
        replay_construction(&mut m, &knowhow, &specs, spans);
        layers::wire_codec(&mut m, &knowhow);

        let backend = |name: &str| -> f64 {
            ends.iter()
                .flat_map(|e| e.backend.iter())
                .filter(|(k, _)| *k == name)
                .fold(0.0, |sum, (_, v)| sum + *v as f64)
        };
        let hosts = shape.hosts as f64;
        m.put("storage.reopen_ms", median(&mut add_cores), "ms");
        m.put(
            "storage.replay_ms",
            backend("replay_micros") / 1000.0 / hosts,
            "ms",
        );
        m.put(
            "storage.replayed_records",
            backend("replayed_records"),
            "count",
        );
        m.put("storage.log_bytes", backend("log_bytes"), "bytes");
        m.put(
            "storage.garbage_ratio",
            per(
                backend("garbage_bytes"),
                backend("garbage_bytes") + backend("live_bytes"),
            ),
            "ratio",
        );
        m.put(
            "scenario.ingest_late_p99_ms",
            quantile(&mut d.ingest_late_ms.clone(), 0.99),
            "ms",
        );
        m.put("scenario.e2e_samples", lat.len() as f64, "count");
    }
    Ok(Outcome {
        attempted,
        failed,
        violations,
        metrics: m,
        spans,
    })
}

/// Times the core layer's incremental constructor on the workload's own
/// know-how and the specs the run completed, outside the runtime.
fn replay_construction(
    m: &mut Metrics,
    knowhow: &[Arc<openwf_core::Fragment>],
    specs: &[&Spec],
    spans: &Spans,
) {
    let mut store = InMemoryFragmentStore::new();
    for f in knowhow {
        store.insert(Arc::clone(f));
    }
    let constructor = IncrementalConstructor::new();
    let mut times = Vec::with_capacity(specs.len());
    let (mut steps, mut merged) = (0u64, 0u64);
    for (i, spec) in specs.iter().enumerate() {
        let t = Instant::now();
        let result = constructor.construct(&mut store, spec);
        let end = Instant::now();
        if let Ok((construction, _)) = result {
            steps += construction.stats().explore_steps;
            merged += construction.stats().fragments_pulled as u64;
        }
        times.push((end - t).as_secs_f64() * 1e6);
        if i < SPAN_CAP {
            spans.span("core.construct", 0, 0, t, end, String::new());
        }
    }
    let n = specs.len() as f64;
    m.put("core.construct_us_p50", median(&mut times), "us");
    m.put("core.explore_steps_per_wf", per(steps as f64, n), "count");
    m.put("core.merged_per_wf", per(merged as f64, n), "count");
}
