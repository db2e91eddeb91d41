//! End-to-end net runs: host the online detection actors on socket-connected
//! peers and report the same [`DetectionReport`] the simulator produces.
//!
//! Peer layout mirrors the simulator harness: application actors at ids
//! `0..N`, monitors at `N..N+n`. Peer `i` hosts monitor `i` together with
//! its mated application process (preserving the paper's only FIFO
//! requirement as a local queue); applications outside the predicate scope
//! are spread round-robin over the peers. The verdict is the first
//! consistent cut satisfying the WCP, which is a function of the
//! computation alone — so a net run must (and the equivalence tests pin
//! that it does) produce a `Detection` bit-identical to the simulator's,
//! including under tolerated fault schedules.

use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wcp_clocks::{Cut, ProcessId};
use wcp_detect::online::dd_monitor::DdMonitor;
use wcp_detect::online::vc_monitor::VcMonitor;
use wcp_detect::online::{AppProcess, ClockMode, OnlineDetection, OnlineStats, SharedOutcome};
use wcp_detect::{Detection, DetectionMetrics, DetectionReport};
use wcp_obs::{NullRecorder, Recorder, TeeRecorder};
use wcp_sim::{ActorId, FaultConfig, SimMetrics};
use wcp_trace::{Computation, Wcp};

use crate::fault::FaultyTransport;
use crate::peer::{Endpoint, HostedActor, PeerHost, TelemetrySidecar};
use crate::pool::{FramePool, PooledBuf};
use crate::stats::{NetCounters, NetStats};
use crate::telemetry::{SidecarRecorder, TelemetryCollector};
use crate::transport::{
    spawn_listener, Acceptor, InboxSender, LoopbackTransport, TcpTransport, Transport,
};
use crate::worker::{self, Doorbell};

/// Which substrate carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-memory channels, no sockets.
    #[default]
    Loopback,
    /// Real TCP sockets on localhost (`std::net`).
    Tcp,
}

/// Configuration of a net run.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Frame substrate.
    pub transport: TransportKind,
    /// Fault schedule injected on every link (`None` = clean links).
    pub faults: Option<FaultConfig>,
    /// Watchdog: a peer making no progress for this long panics the run.
    pub deadline: Duration,
    /// Coalesce bulk sends into batched writes (the default). `false`
    /// writes one frame at a time — the pre-batching wire behaviour, kept
    /// for A/B benchmarks and equivalence pinning.
    pub batch: bool,
    /// Run the sidecar telemetry plane: every peer tees its events into a
    /// private ring and periodically frames the deltas to the collector
    /// peer as `TELEMETRY` frames on the un-faulted recovery path.
    /// Verdicts, paper metrics and fault schedules are bit-identical with
    /// this on or off (the equivalence tests pin that).
    pub telemetry: bool,
    /// Fan-out workers the multi-tenant session service pumps with: `1`
    /// (the default) is the serial pump, `> 1` the parallel pump.
    /// Verdicts and metrics are bit-identical either way (the equivalence
    /// tests pin that).
    pub pump_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            transport: TransportKind::Loopback,
            faults: None,
            deadline: Duration::from_secs(60),
            batch: true,
            telemetry: false,
            pump_threads: 1,
        }
    }
}

impl NetConfig {
    /// Loopback transport, clean links.
    pub fn loopback() -> Self {
        NetConfig::default()
    }

    /// TCP transport, clean links.
    pub fn tcp() -> Self {
        NetConfig {
            transport: TransportKind::Tcp,
            ..NetConfig::default()
        }
    }

    /// Injects `faults` on every link.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Replaces the stall deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Disables send coalescing: one transport write per frame, as before
    /// the batched data path. Verdicts are identical either way (the
    /// equivalence tests pin both); this exists for A/B measurement and
    /// as the conservative fallback.
    pub fn with_per_frame_writes(mut self) -> Self {
        self.batch = false;
        self
    }

    /// Enables the sidecar telemetry plane (see [`NetConfig::telemetry`]).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Replaces the session service's fan-out worker count (see
    /// [`NetConfig::pump_threads`]); `≤ 1` keeps the serial pump.
    pub fn with_pump_threads(mut self, pump_threads: usize) -> Self {
        self.pump_threads = pump_threads.max(1);
        self
    }
}

/// A [`DetectionReport`] plus transport-level statistics.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Detection result and paper-unit metrics (as the simulator reports;
    /// `parallel_time` is 0 because a socket run has no global logical
    /// clock).
    pub report: DetectionReport,
    /// Wire-level counters: frames, bytes, retransmits, reconnects, dedup.
    pub net: NetStats,
    /// The telemetry collector, populated when [`NetConfig::telemetry`]
    /// was on: per-source counter snapshots plus the causally merged
    /// global event timeline.
    pub telemetry: Option<Arc<TelemetryCollector>>,
}

/// Retry budget for dialling peers that have bound but not yet accepted.
const DIAL_RETRIES: u32 = 20;
/// Retry budget for reconnect-and-replay recovery after a link error.
pub(crate) const RECOVERY_RETRIES: u32 = 10;

/// Per-run telemetry wiring: the shared collector plus one private
/// sidecar recorder per peer. Peer 0 doubles as the collector peer —
/// other peers frame their deltas to it, peer 0 ingests its own locally.
pub(crate) struct TelemetryPlane {
    pub(crate) collector: Arc<TelemetryCollector>,
    sidecars: Vec<Arc<SidecarRecorder>>,
}

impl TelemetryPlane {
    /// Builds the plane, reusing `collector` when a live watcher supplied
    /// one (the `*_observed` entry points).
    pub(crate) fn build(n_peers: usize, collector: Option<Arc<TelemetryCollector>>) -> Self {
        TelemetryPlane {
            collector: collector.unwrap_or_else(TelemetryCollector::shared),
            sidecars: (0..n_peers).map(|_| Arc::default()).collect(),
        }
    }

    /// The recorder peer `i`'s actors, endpoint and fault injection see:
    /// the caller's recorder, when it keeps events, teed into the peer's
    /// [`SidecarRecorder`] — per-frame wire events reach user recorders
    /// but are never shipped (the delta's `NetStats` snapshot already
    /// aggregates them).
    pub(crate) fn recorder(&self, user: &Arc<dyn Recorder>, i: usize) -> Arc<dyn Recorder> {
        let sidecar: Arc<dyn Recorder> = self.sidecars[i].clone();
        if user.is_enabled() {
            Arc::new(TeeRecorder::new(user.clone(), sidecar))
        } else {
            sidecar
        }
    }

    /// The sidecar state handed to peer `i`'s host.
    pub(crate) fn sidecar(&self, i: usize) -> TelemetrySidecar {
        TelemetrySidecar::new(self.sidecars[i].clone(), 0)
    }
}

/// The per-peer recorders for a run: teed through the telemetry plane
/// when one is active, the caller's recorder unchanged otherwise.
pub(crate) fn peer_recorders(
    n_peers: usize,
    user: &Arc<dyn Recorder>,
    plane: &Option<TelemetryPlane>,
) -> Vec<Arc<dyn Recorder>> {
    (0..n_peers)
        .map(|i| match plane {
            Some(plane) => plane.recorder(user, i),
            None => user.clone(),
        })
        .collect()
}

/// All outbound links plus the per-peer inboxes they deliver into.
pub(crate) struct Fabric {
    /// `links[i][j]` is the transport for the directed link `i → j`.
    pub(crate) links: Vec<Vec<Option<Box<dyn Transport>>>>,
    pub(crate) inboxes: Vec<Receiver<PooledBuf>>,
    /// The worker hosting the run's peers; every inbox rings its doorbell.
    pub(crate) worker: Worker,
}

/// The worker of an in-process run: its doorbell, plus the TCP accept
/// loops to stop at the end.
#[derive(Default)]
pub(crate) struct Worker {
    bell: Arc<Doorbell>,
    transport: TransportKind,
    acceptors: Vec<Acceptor>,
}

pub(crate) fn wrap_faults(
    base: Box<dyn Transport>,
    config: &NetConfig,
    me: u32,
    to: u32,
    counters: &Arc<NetCounters>,
    recorder: &Arc<dyn Recorder>,
) -> Box<dyn Transport> {
    match config.faults {
        Some(cfg) if !cfg.is_quiet() => Box::new(FaultyTransport::new(
            base,
            cfg,
            me,
            to,
            counters.clone(),
            recorder.clone(),
        )),
        _ => base,
    }
}

pub(crate) fn build_fabric(
    n_peers: usize,
    config: &NetConfig,
    counters: &Arc<NetCounters>,
    recorders: &[Arc<dyn Recorder>],
) -> Fabric {
    // One buffer pool per fabric: every chunk crossing a thread boundary
    // (loopback delivery, TCP reads) recycles through it.
    let pool = FramePool::shared(counters.clone());
    let mut worker = Worker {
        transport: config.transport,
        ..Worker::default()
    };
    let (txs, inboxes): (Vec<_>, Vec<_>) = (0..n_peers).map(|_| channel()).unzip();
    let inbox_txs: Vec<InboxSender> = txs
        .into_iter()
        .map(|tx| InboxSender::new(tx, Arc::clone(&worker.bell)))
        .collect();
    let dial: Box<dyn Fn(usize) -> Box<dyn Transport>> = match config.transport {
        TransportKind::Loopback => {
            let pool = pool.clone();
            Box::new(move |j| Box::new(LoopbackTransport::new(inbox_txs[j].clone(), pool.clone())))
        }
        TransportKind::Tcp => {
            // Bind every listener before anyone dials, so in-process runs
            // never race peer startup.
            let listeners: Vec<TcpListener> = (0..n_peers)
                .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind localhost"))
                .collect();
            let addrs: Vec<SocketAddr> = listeners
                .iter()
                .map(|l| l.local_addr().expect("listener addr"))
                .collect();
            worker.acceptors = listeners
                .into_iter()
                .zip(inbox_txs)
                .map(|(listener, inbox)| spawn_listener(listener, inbox, pool.clone()))
                .collect();
            Box::new(move |j| {
                Box::new(
                    TcpTransport::connect(addrs[j], DIAL_RETRIES, Duration::from_millis(1))
                        .expect("dial peer"),
                )
            })
        }
    };
    let links = (0..n_peers)
        .map(|i| {
            (0..n_peers)
                .map(|j| {
                    (i != j).then(|| {
                        wrap_faults(dial(j), config, i as u32, j as u32, counters, &recorders[i])
                    })
                })
                .collect()
        })
        .collect();
    Fabric {
        links,
        inboxes,
        worker,
    }
}

/// Hosts the peers on the calling thread and returns once every peer has
/// finished. Endpoints stay open until then, so no peer ever sends into a
/// torn-down link; then the collector peer drains the final telemetry
/// deltas (loopback delivery is synchronous, so that needs no grace;
/// sockets get 2 ms for the reader-thread race) and the links and TCP
/// acceptors close.
pub(crate) fn drive(hosts: Vec<PeerHost>, worker: Worker) {
    let Worker {
        bell,
        transport,
        acceptors,
    } = worker;
    let mut hosts = worker::run(hosts, &bell);
    let grace = match transport {
        TransportKind::Loopback => Duration::ZERO,
        TransportKind::Tcp => Duration::from_millis(2),
    };
    for host in hosts.iter_mut().filter(|h| h.is_collector()) {
        // Any late data frame surfacing here is dropped unprocessed, the
        // same fate it meets in a closed channel: accounting and verdicts
        // are untouched.
        while host.endpoint.recv(grace).is_some() {}
    }
    for host in &mut hosts {
        host.endpoint.close();
    }
    drop(acceptors);
}

/// How long a standalone peer keeps its sockets open after finishing, so
/// remote stragglers can still complete their writes.
const SERVE_LINGER: Duration = Duration::from_millis(300);

/// Runs one standalone `wcp serve` peer on the calling thread: the same
/// event loop as an in-process run, over TCP. Afterwards it lingers — draining the inbox when telemetry is
/// on, since the other peers' final deltas arrive exactly then — and
/// closes its links and accept loop.
pub(crate) fn serve_alone(host: PeerHost, bell: &Doorbell, acceptor: Acceptor) {
    let mut host = worker::run(vec![host], bell)
        .pop()
        .expect("the worker returns its peer");
    let until = Instant::now() + SERVE_LINGER;
    if host.telemetry.is_some() {
        while let Some(left) = until.checked_duration_since(Instant::now()) {
            let _ = host.endpoint.recv(left);
        }
    } else {
        std::thread::sleep(SERVE_LINGER);
    }
    host.endpoint.close();
    drop(acceptor);
}

/// Translates accumulated counters into paper-unit [`DetectionMetrics`];
/// the mirror of the simulator harness's accounting, minus the logical
/// clock (`parallel_time` stays 0).
fn paper_metrics(
    metrics: &SimMetrics,
    computation: &Computation,
    apps: &[ActorId],
    monitors: &[ActorId],
    stats: &OnlineStats,
    app_payload_bytes: u64,
) -> DetectionMetrics {
    let mut out = DetectionMetrics::new(monitors.len());
    for (i, &m) in monitors.iter().enumerate() {
        let a = metrics.actor(m);
        out.per_process_work[i] = a.work;
        out.control_messages += a.sent;
        out.control_bytes += a.bytes_sent;
    }
    let mut app_sent = 0u64;
    let mut app_bytes = 0u64;
    for &a in apps {
        let m = metrics.actor(a);
        app_sent += m.sent;
        app_bytes += m.bytes_sent;
    }
    let script_msgs = computation.total_messages() as u64;
    let eot_count = monitors.len() as u64;
    out.snapshot_messages = app_sent.saturating_sub(script_msgs + eot_count);
    out.snapshot_bytes = app_bytes.saturating_sub(script_msgs * app_payload_bytes + eot_count);
    out.token_hops = stats.token_hops;
    out.max_buffered_snapshots = stats.max_buffered;
    out
}

fn take_detection_vc(result: &SharedOutcome, wcp: &Wcp, n_total: usize) -> Detection {
    match result.lock().unwrap().take() {
        Some(OnlineDetection::Detected(g)) => Detection::Detected {
            cut: wcp.lift(&g, n_total),
        },
        Some(OnlineDetection::Undetected) => Detection::Undetected,
        None => panic!("net run finished without a verdict (protocol stalled)"),
    }
}

/// Runs the Section 3 single-token algorithm over real transport: one peer
/// per scope process, each hosting its monitor and mated application.
///
/// # Panics
///
/// Panics if the scope is empty, the computation is invalid, or the run
/// stalls past the configured deadline.
pub fn run_vc_token_net(computation: &Computation, wcp: &Wcp, config: NetConfig) -> NetReport {
    run_vc_token_net_recorded(computation, wcp, config, Arc::new(NullRecorder))
}

/// [`run_vc_token_net`] with an attached [`Recorder`]: peers stream
/// transport events (frames, bytes, retransmits, reconnects) alongside the
/// monitors' protocol events.
///
/// # Panics
///
/// Panics if the scope is empty, the computation is invalid, or the run
/// stalls past the configured deadline.
pub fn run_vc_token_net_recorded(
    computation: &Computation,
    wcp: &Wcp,
    config: NetConfig,
    recorder: Arc<dyn Recorder>,
) -> NetReport {
    run_vc_token_net_inner(computation, wcp, config, recorder, None)
}

/// [`run_vc_token_net_recorded`] with telemetry forced on and an external
/// [`TelemetryCollector`], so a live watcher (`wcp top`) can sample the
/// merged view while the run is still in flight.
///
/// # Panics
///
/// Panics if the scope is empty, the computation is invalid, or the run
/// stalls past the configured deadline.
pub fn run_vc_token_net_observed(
    computation: &Computation,
    wcp: &Wcp,
    mut config: NetConfig,
    recorder: Arc<dyn Recorder>,
    collector: Arc<TelemetryCollector>,
) -> NetReport {
    config.telemetry = true;
    run_vc_token_net_inner(computation, wcp, config, recorder, Some(collector))
}

fn run_vc_token_net_inner(
    computation: &Computation,
    wcp: &Wcp,
    config: NetConfig,
    recorder: Arc<dyn Recorder>,
    collector: Option<Arc<TelemetryCollector>>,
) -> NetReport {
    let n_total = computation.process_count();
    let n = wcp.n();
    assert!(n >= 1, "WCP scope must name at least one process");

    let apps: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let monitors: Vec<ActorId> = (0..n as u32)
        .map(|i| ActorId::new(n_total as u32 + i))
        .collect();
    // Peer layout: peer `pos` hosts monitor `pos` and its mated scope
    // application; non-scope applications go round-robin.
    let mut actor_peer = vec![0u32; n_total + n];
    for p in ProcessId::all(n_total) {
        actor_peer[p.index()] = match wcp.position(p) {
            Some(pos) => pos as u32,
            None => (p.index() % n) as u32,
        };
    }
    for pos in 0..n {
        actor_peer[monitors[pos].index()] = pos as u32;
    }
    let actor_peer = Arc::new(actor_peer);

    let result: SharedOutcome = Arc::new(Mutex::new(None));
    let stats = Arc::new(Mutex::new(OnlineStats::default()));
    let metrics = Arc::new(Mutex::new(SimMetrics::new(n_total + n)));
    let counters = NetCounters::shared();
    let plane = config
        .telemetry
        .then(|| TelemetryPlane::build(n, collector));
    let recorders = peer_recorders(n, &recorder, &plane);
    let fabric = build_fabric(n, &config, &counters, &recorders);

    let mut hosts = Vec::with_capacity(n);
    let mut inboxes = fabric.inboxes.into_iter();
    for (i, links) in fabric.links.into_iter().enumerate() {
        let mut actors: Vec<(ActorId, HostedActor)> = Vec::new();
        for p in ProcessId::all(n_total) {
            if actor_peer[p.index()] == i as u32 {
                actors.push((
                    apps[p.index()],
                    HostedActor::boxed(AppProcess::new(
                        computation,
                        wcp,
                        p,
                        ClockMode::Vector,
                        apps.clone(),
                        wcp.position(p).map(|pos| monitors[pos]),
                    )),
                ));
            }
        }
        actors.push((
            monitors[i],
            // Typed hosting: inbound snapshots decode arena-direct.
            HostedActor::vc(
                VcMonitor::new(
                    i,
                    n,
                    monitors.clone(),
                    i == 0,
                    result.clone(),
                    stats.clone(),
                )
                .with_recorder(recorders[i].clone()),
            ),
        ));
        let mut endpoint = Endpoint::new(
            i as u32,
            links,
            inboxes.next().expect("inbox per peer"),
            counters.clone(),
            recorders[i].clone(),
            RECOVERY_RETRIES,
            Duration::from_millis(1),
            config.batch,
        );
        if let Some(plane) = &plane {
            endpoint.set_collector(plane.collector.clone());
        }
        hosts.push(PeerHost {
            index: i as u32,
            endpoint,
            actors,
            actor_peer: actor_peer.clone(),
            metrics: metrics.clone(),
            result: result.clone(),
            deadline: config.deadline,
            telemetry: plane.as_ref().map(|p| p.sidecar(i)),
        });
    }
    drive(hosts, fabric.worker);

    let detection = take_detection_vc(&result, wcp, n_total);
    let metrics = paper_metrics(
        &metrics.lock().unwrap(),
        computation,
        &apps,
        &monitors,
        &stats.lock().unwrap(),
        8 + 8 * n as u64,
    );
    NetReport {
        report: DetectionReport { detection, metrics },
        net: counters.snapshot(),
        telemetry: plane.map(|p| p.collector),
    }
}

/// Runs the Section 4 direct-dependence algorithm over real transport: one
/// peer per process, each hosting its application and monitor; `parallel`
/// enables the Section 4.5 proactive red chain.
///
/// # Panics
///
/// Panics if the computation has no processes or the run stalls past the
/// configured deadline.
pub fn run_direct_net(
    computation: &Computation,
    wcp: &Wcp,
    parallel: bool,
    config: NetConfig,
) -> NetReport {
    run_direct_net_recorded(computation, wcp, parallel, config, Arc::new(NullRecorder))
}

/// [`run_direct_net`] with an attached [`Recorder`].
///
/// # Panics
///
/// Panics if the computation has no processes or the run stalls past the
/// configured deadline.
pub fn run_direct_net_recorded(
    computation: &Computation,
    wcp: &Wcp,
    parallel: bool,
    config: NetConfig,
    recorder: Arc<dyn Recorder>,
) -> NetReport {
    let n_total = computation.process_count();
    assert!(n_total >= 1, "computation must have at least one process");

    let apps: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let monitors: Vec<ActorId> = (0..n_total as u32)
        .map(|i| ActorId::new(n_total as u32 + i))
        .collect();
    let mut actor_peer = vec![0u32; 2 * n_total];
    for p in 0..n_total {
        actor_peer[apps[p].index()] = p as u32;
        actor_peer[monitors[p].index()] = p as u32;
    }
    let actor_peer = Arc::new(actor_peer);

    let result: SharedOutcome = Arc::new(Mutex::new(None));
    let stats = Arc::new(Mutex::new(OnlineStats::default()));
    // The direct-dependence monitors share the G board through process
    // memory, so this runner is in-process peers only (see
    // docs/networking.md).
    let g_board = Arc::new(Mutex::new(vec![0u64; n_total]));
    let metrics = Arc::new(Mutex::new(SimMetrics::new(2 * n_total)));
    let counters = NetCounters::shared();
    let plane = config
        .telemetry
        .then(|| TelemetryPlane::build(n_total, None));
    let recorders = peer_recorders(n_total, &recorder, &plane);
    let fabric = build_fabric(n_total, &config, &counters, &recorders);

    let mut hosts = Vec::with_capacity(n_total);
    let mut inboxes = fabric.inboxes.into_iter();
    for (i, links) in fabric.links.into_iter().enumerate() {
        let p = ProcessId::new(i as u32);
        let actors: Vec<(ActorId, HostedActor)> = vec![
            (
                apps[i],
                HostedActor::boxed(AppProcess::new(
                    computation,
                    wcp,
                    p,
                    ClockMode::Scalar,
                    apps.clone(),
                    Some(monitors[i]),
                )),
            ),
            (
                monitors[i],
                HostedActor::boxed(
                    DdMonitor::new(
                        p,
                        n_total,
                        monitors.clone(),
                        parallel,
                        g_board.clone(),
                        result.clone(),
                        stats.clone(),
                    )
                    .with_recorder(recorders[i].clone()),
                ),
            ),
        ];
        let mut endpoint = Endpoint::new(
            i as u32,
            links,
            inboxes.next().expect("inbox per peer"),
            counters.clone(),
            recorders[i].clone(),
            RECOVERY_RETRIES,
            Duration::from_millis(1),
            config.batch,
        );
        if let Some(plane) = &plane {
            endpoint.set_collector(plane.collector.clone());
        }
        hosts.push(PeerHost {
            index: i as u32,
            endpoint,
            actors,
            actor_peer: actor_peer.clone(),
            metrics: metrics.clone(),
            result: result.clone(),
            deadline: config.deadline,
            telemetry: plane.as_ref().map(|p| p.sidecar(i)),
        });
    }
    drive(hosts, fabric.worker);

    let detection = match result.lock().unwrap().take() {
        Some(OnlineDetection::Detected(g)) => Detection::Detected {
            cut: Cut::from_indices(g),
        },
        Some(OnlineDetection::Undetected) => Detection::Undetected,
        None => panic!("net run finished without a verdict (protocol stalled)"),
    };
    let metrics = paper_metrics(
        &metrics.lock().unwrap(),
        computation,
        &apps,
        &monitors,
        &stats.lock().unwrap(),
        16,
    );
    NetReport {
        report: DetectionReport { detection, metrics },
        net: counters.snapshot(),
        telemetry: plane.map(|p| p.collector),
    }
}

/// Outcome of one standalone serve peer.
#[derive(Debug, Clone)]
pub struct PeerReport {
    /// The run's verdict (decided locally or received in a verdict frame).
    pub detection: Detection,
    /// This peer's wire-level counters.
    pub net: NetStats,
    /// This peer's telemetry collector when [`NetConfig::telemetry`] was
    /// on. Only peer 0 — the collector peer — accumulates the other
    /// peers' deltas; the rest see just their own.
    pub telemetry: Option<Arc<TelemetryCollector>>,
}

/// Runs peer `peer` of a vector-clock token detection as its own process,
/// listening on `addrs[peer]` and dialling every other address — the
/// `wcp serve` entry point, one OS process per scope position.
///
/// Every peer must be started with the same computation, predicate and
/// address list; peers dial with generous retries so start order does not
/// matter. Only the vector-clock detector serves standalone (the
/// direct-dependence monitors share their G board through process memory).
///
/// # Panics
///
/// Panics on bad indices, undialable peers, or a stall past the deadline.
pub fn serve_vc_peer(
    computation: &Computation,
    wcp: &Wcp,
    peer: usize,
    addrs: &[SocketAddr],
    config: NetConfig,
    recorder: Arc<dyn Recorder>,
) -> PeerReport {
    serve_vc_peer_inner(computation, wcp, peer, addrs, config, recorder, None)
}

/// [`serve_vc_peer`] with telemetry forced on and an external
/// [`TelemetryCollector`] — on peer 0 a live watcher sees every peer's
/// deltas arrive over TCP while the session runs.
///
/// # Panics
///
/// Panics on bad indices, undialable peers, or a stall past the deadline.
pub fn serve_vc_peer_observed(
    computation: &Computation,
    wcp: &Wcp,
    peer: usize,
    addrs: &[SocketAddr],
    mut config: NetConfig,
    recorder: Arc<dyn Recorder>,
    collector: Arc<TelemetryCollector>,
) -> PeerReport {
    config.telemetry = true;
    serve_vc_peer_inner(
        computation,
        wcp,
        peer,
        addrs,
        config,
        recorder,
        Some(collector),
    )
}

#[allow(clippy::too_many_arguments)]
fn serve_vc_peer_inner(
    computation: &Computation,
    wcp: &Wcp,
    peer: usize,
    addrs: &[SocketAddr],
    config: NetConfig,
    recorder: Arc<dyn Recorder>,
    collector: Option<Arc<TelemetryCollector>>,
) -> PeerReport {
    let n_total = computation.process_count();
    let n = wcp.n();
    assert_eq!(addrs.len(), n, "one address per scope process");
    assert!(peer < n, "peer index out of range");

    let apps: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let monitors: Vec<ActorId> = (0..n as u32)
        .map(|i| ActorId::new(n_total as u32 + i))
        .collect();
    let mut actor_peer = vec![0u32; n_total + n];
    for p in ProcessId::all(n_total) {
        actor_peer[p.index()] = match wcp.position(p) {
            Some(pos) => pos as u32,
            None => (p.index() % n) as u32,
        };
    }
    for pos in 0..n {
        actor_peer[monitors[pos].index()] = pos as u32;
    }
    let actor_peer = Arc::new(actor_peer);

    let counters = NetCounters::shared();
    // A standalone peer owns exactly one ring: its own.
    let plane = config
        .telemetry
        .then(|| TelemetryPlane::build(1, collector));
    let recorder: Arc<dyn Recorder> = match &plane {
        Some(plane) => plane.recorder(&recorder, 0),
        None => recorder,
    };
    let pool = FramePool::shared(counters.clone());
    let listener = TcpListener::bind(addrs[peer]).expect("bind serve address");
    let (tx, rx) = channel();
    let bell = Arc::new(Doorbell::default());
    let acceptor = spawn_listener(listener, InboxSender::new(tx, bell.clone()), pool);

    // Other peers may not have started yet: dial patiently.
    let links: Vec<Option<Box<dyn Transport>>> = (0..n)
        .map(|j| {
            (j != peer).then(|| {
                let base: Box<dyn Transport> = Box::new(
                    TcpTransport::connect(addrs[j], 12, Duration::from_millis(5))
                        .expect("dial peer"),
                );
                wrap_faults(base, &config, peer as u32, j as u32, &counters, &recorder)
            })
        })
        .collect();

    let result: SharedOutcome = Arc::new(Mutex::new(None));
    let stats = Arc::new(Mutex::new(OnlineStats::default()));
    let metrics = Arc::new(Mutex::new(SimMetrics::new(n_total + n)));
    let mut actors: Vec<(ActorId, HostedActor)> = Vec::new();
    for p in ProcessId::all(n_total) {
        if actor_peer[p.index()] == peer as u32 {
            actors.push((
                apps[p.index()],
                HostedActor::boxed(AppProcess::new(
                    computation,
                    wcp,
                    p,
                    ClockMode::Vector,
                    apps.clone(),
                    wcp.position(p).map(|pos| monitors[pos]),
                )),
            ));
        }
    }
    actors.push((
        monitors[peer],
        HostedActor::vc(
            VcMonitor::new(
                peer,
                n,
                monitors.clone(),
                peer == 0,
                result.clone(),
                stats.clone(),
            )
            .with_recorder(recorder.clone()),
        ),
    ));

    let mut endpoint = Endpoint::new(
        peer as u32,
        links,
        rx,
        counters.clone(),
        recorder.clone(),
        RECOVERY_RETRIES,
        Duration::from_millis(1),
        config.batch,
    );
    if let Some(plane) = &plane {
        endpoint.set_collector(plane.collector.clone());
    }
    let host = PeerHost {
        index: peer as u32,
        endpoint,
        actors,
        actor_peer,
        metrics,
        result: result.clone(),
        deadline: config.deadline,
        telemetry: plane.as_ref().map(|p| p.sidecar(0)),
    };
    serve_alone(host, &bell, acceptor);

    PeerReport {
        detection: take_detection_vc(&result, wcp, n_total),
        net: counters.snapshot(),
        telemetry: plane.map(|p| p.collector),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::run_multi_net;
    use wcp_detect::online::{run_direct, run_vc_token};
    use wcp_session::{run_multi_offline, run_multi_sim};
    use wcp_sim::SimConfig;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::ComputationBuilder;

    #[test]
    fn loopback_vc_matches_simulator() {
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(5)
                .with_predicate_density(0.3)
                .with_plant(0.7),
        );
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&g.computation, &wcp, SimConfig::seeded(1));
        let net = run_vc_token_net(&g.computation, &wcp, NetConfig::loopback());
        assert_eq!(net.report.detection, sim.report.detection);
        assert!(net.net.frames_sent > 0, "token crossed the wire");
        assert_eq!(net.net.retransmits, 0, "clean links");
    }

    /// The Theorem 5.1 staircase: the token circles the ring `rounds`
    /// times, so every candidate passes through it and every run sends
    /// the same frames whatever the schedule.
    fn staircase(n: usize, rounds: usize) -> Computation {
        let mut b = ComputationBuilder::new(n);
        for step in 0..rounds * n {
            let holder = ProcessId::new((step % n) as u32);
            let next = ProcessId::new(((step + 1) % n) as u32);
            b.mark_true(holder);
            let msg = b.send(holder, next);
            b.receive(next, msg);
        }
        for p in ProcessId::all(n) {
            b.mark_true(p);
        }
        b.build().expect("a staircase is a valid computation")
    }

    /// `metrics` without the fields that depend on the schedule even
    /// between two simulator seeds: the logical `parallel_time`, which a
    /// socket run has no clock for, and how many snapshots a monitor
    /// buffered at once, which depends on arrival order.
    fn schedule_free(metrics: &DetectionMetrics) -> DetectionMetrics {
        DetectionMetrics {
            parallel_time: 0,
            max_buffered_snapshots: 0,
            ..metrics.clone()
        }
    }

    #[test]
    fn every_schedule_and_transport_matches_the_simulator() {
        let computation = staircase(4, 6);
        let wcp = Wcp::over_all(&computation);
        let predicates: Vec<Wcp> = (1..=4).map(Wcp::over_first).collect();
        let vc_sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1)).report;
        let dd_sim = run_direct(&computation, &wcp, SimConfig::seeded(1), true).report;
        let multi_sim = run_multi_sim(&computation, &predicates, 1);
        let multi_offline = run_multi_offline(&computation, &predicates);
        let schedules = [
            ("clean", None),
            (
                "delay+duplicate+reorder",
                Some(FaultConfig::delay_duplicate_reorder(7)),
            ),
            (
                "drop+reset",
                Some(FaultConfig::seeded(9).with_drop(0.15).with_reset(0.05)),
            ),
        ];
        for (schedule, faults) in schedules {
            let config = |base: NetConfig| {
                let base = base.with_deadline(Duration::from_secs(30));
                faults.map_or(base, |f| base.with_faults(f))
            };
            for base in [NetConfig::loopback(), NetConfig::tcp()] {
                let net = run_vc_token_net(&computation, &wcp, config(base));
                let label = format!("{schedule}, vc token over {:?}", base.transport);
                assert_eq!(net.report.detection, vc_sim.detection, "{label}");
                assert_eq!(
                    schedule_free(&net.report.metrics),
                    schedule_free(&vc_sim.metrics),
                    "{label}"
                );
                if schedule == "drop+reset" {
                    // A reconnect backoff sleeps on the one thread that
                    // also hosts the receiving peer, and the run still
                    // finishes.
                    assert!(net.net.reconnects > 0, "{label}: no reset drawn");
                }
            }
            // The §4.5 parallel red chain: how often the token moves
            // depends on the schedule even in the simulator, but the
            // verdict, the work and the snapshot traffic do not.
            let dd = run_direct_net(&computation, &wcp, true, config(NetConfig::loopback()));
            let (got, want) = (&dd.report.metrics, &dd_sim.metrics);
            assert_eq!(dd.report.detection, dd_sim.detection, "{schedule}, direct");
            assert_eq!(got.per_process_work, want.per_process_work, "{schedule}");
            assert_eq!(
                (got.snapshot_messages, got.snapshot_bytes),
                (want.snapshot_messages, want.snapshot_bytes),
                "{schedule}, direct"
            );
            let multi = run_multi_net(&computation, &predicates, config(NetConfig::loopback()));
            for reference in [&multi_sim, &multi_offline] {
                assert_eq!(
                    multi.report.outcomes, reference.outcomes,
                    "{schedule}, multi"
                );
                assert_eq!(multi.report.stats, reference.stats, "{schedule}, multi");
            }
        }
    }

    #[test]
    fn clean_loopback_runs_repeat_exactly() {
        // One thread steps every peer and delivers every loopback frame,
        // so a clean run has no cross-thread hand-off: running it again
        // repeats every wire counter, not only the verdict.
        for seed in 0..6 {
            let g = generate(
                &GeneratorConfig::new(5, 30)
                    .with_seed(seed)
                    .with_predicate_density(0.3)
                    .with_plant(0.8),
            );
            let c = &g.computation;
            let wcp = Wcp::over_all(c);
            let predicates: Vec<Wcp> = (1..=3).map(Wcp::over_first).collect();
            let [a, b] = [0, 1].map(|_| run_vc_token_net(c, &wcp, NetConfig::loopback()));
            assert_eq!(a.net, b.net, "seed {seed}, vc token");
            assert_eq!(a.report, b.report, "seed {seed}, vc token");
            let [a, b] = [0, 1].map(|_| run_direct_net(c, &wcp, true, NetConfig::loopback()));
            assert_eq!(a.net, b.net, "seed {seed}, direct");
            assert_eq!(a.report, b.report, "seed {seed}, direct");
            let [a, b] = [0, 1].map(|_| run_multi_net(c, &predicates, NetConfig::loopback()));
            assert_eq!(a.net, b.net, "seed {seed}, multi");
            assert_eq!(a.report.outcomes, b.report.outcomes, "seed {seed}, multi");
        }
    }
}
