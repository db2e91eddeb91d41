//! End-to-end net runs: host an online family's [`Layout`] on
//! socket-connected peers and report what the simulator reports.
//!
//! A layout names the peer of every actor; the two hosts here run it:
//! every peer in-process on the calling thread (`build_fabric` + `drive`),
//! or one peer as its own OS process (`serve_alone`, the `wcp serve`
//! entry). Every socket link is FIFO and exactly-once, so the paper's
//! FIFO application→monitor channels hold wherever the two actors run.
//! The verdict is the first consistent cut satisfying the WCP, which is a
//! function of the computation alone — so a net run must (and the
//! equivalence tests pin that it does) produce a `Detection`
//! bit-identical to the simulator's, including under tolerated fault
//! schedules; the report is the layout's own mapping, the simulator's.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wcp_detect::online::{
    DetectActor, Family, Layout, Placed, ReportFn, RunOptions, SharedOutcome,
};
use wcp_detect::DetectionReport;
use wcp_obs::{Recorder, TeeRecorder, TelemetrySink};
use wcp_sim::{ActorId, FaultConfig, SimMetrics};
use wcp_trace::{Computation, Wcp};

use crate::fault::FaultyTransport;
use crate::peer::{Endpoint, PeerHost, TelemetrySidecar};
use crate::pool::{FramePool, PooledBuf};
use crate::stats::{NetCounters, NetStats};
use crate::telemetry::{SidecarRecorder, TelemetryCollector};
use crate::transport::{spawn_listener, Acceptor, Dialer, InboxSender, TcpTransport, Transport};
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
    /// Run the sidecar telemetry plane: every peer tees its events into a
    /// private ring and periodically frames the deltas to the collector
    /// peer as `TELEMETRY` frames on the un-faulted recovery path.
    /// Verdicts, paper metrics and fault schedules are bit-identical with
    /// this on or off (the equivalence tests pin that).
    pub telemetry: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            transport: TransportKind::Loopback,
            faults: None,
            deadline: Duration::from_secs(60),
            telemetry: false,
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

    /// Enables the sidecar telemetry plane (see [`NetConfig::telemetry`]).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

/// A run's report plus transport-level statistics.
#[derive(Debug, Clone)]
pub struct NetReport<R = DetectionReport> {
    /// The family's report, as the simulator maps it (`parallel_time` is
    /// 0: a socket run has no global logical clock).
    pub report: R,
    /// Wire-level counters of the peers the host ran: frames, bytes,
    /// retransmits, reconnects, dedup.
    pub net: NetStats,
    /// The telemetry collector the run made when [`NetConfig::telemetry`]
    /// was on and the options named none: per-source counter snapshots
    /// plus the causally merged global event timeline.
    pub telemetry: Option<Arc<TelemetryCollector>>,
}

/// Outcome of one standalone serve peer: its report holds the verdict
/// (decided here or received in a verdict frame) and what the actors it
/// hosts counted.
pub type PeerReport<R = DetectionReport> = NetReport<R>;

/// Per-run telemetry wiring: the sink plus one private sidecar recorder
/// per peer. Peer 0 doubles as the collector peer — other peers frame
/// their deltas to it, peer 0 ingests its own locally.
struct TelemetryPlane {
    sink: Arc<dyn TelemetrySink>,
    /// The collector the plane made, when the options named no sink.
    own: Option<Arc<TelemetryCollector>>,
    sidecars: Vec<Arc<SidecarRecorder>>,
}

/// What every peer of one run shares: the actor placement, the
/// paper-unit counters, the verdict cell, the wire counters and the
/// per-peer recorders.
struct RunShared {
    config: NetConfig,
    actor_peer: Arc<Vec<u32>>,
    metrics: Arc<Mutex<SimMetrics>>,
    verdict: SharedOutcome,
    counters: Arc<NetCounters>,
    plane: Option<TelemetryPlane>,
    /// Peer `i`'s recorder: the options' recorder, when it keeps events,
    /// teed into the peer's sidecar when telemetry is on. Per-frame wire
    /// events reach user recorders but are never shipped (the delta's
    /// `NetStats` snapshot already aggregates them).
    recorders: Vec<Arc<dyn Recorder>>,
}

impl RunShared {
    fn new<R>(
        layout: &Layout<R>,
        config: &NetConfig,
        options: &RunOptions,
        counters: Arc<NetCounters>,
    ) -> Self {
        let n_peers = layout.peers();
        let plane = (config.telemetry || options.collector.is_some()).then(|| {
            let (sink, own) = match &options.collector {
                Some(sink) => (sink.clone(), None),
                None => {
                    let own = TelemetryCollector::shared();
                    (own.clone() as Arc<dyn TelemetrySink>, Some(own))
                }
            };
            TelemetryPlane {
                sink,
                own,
                sidecars: (0..n_peers).map(|_| Arc::default()).collect(),
            }
        });
        let user = &options.recorder;
        let recorders = (0..n_peers)
            .map(|i| match &plane {
                Some(plane) => {
                    let sidecar: Arc<dyn Recorder> = plane.sidecars[i].clone();
                    if user.is_enabled() {
                        Arc::new(TeeRecorder::new(user.clone(), sidecar))
                    } else {
                        sidecar
                    }
                }
                None => user.clone(),
            })
            .collect();
        RunShared {
            config: *config,
            actor_peer: Arc::new(layout.actors.iter().map(|&(peer, _)| peer).collect()),
            metrics: Arc::new(Mutex::new(SimMetrics::new(layout.actors.len()))),
            verdict: layout.verdict.clone(),
            counters,
            plane,
            recorders,
        }
    }

    /// Peer `index`'s host: its endpoint over `links` and `inbox`, and
    /// the actors it runs, each handed the peer's recorder.
    fn host(
        &self,
        index: u32,
        links: Vec<Option<Box<dyn Transport>>>,
        inbox: Receiver<PooledBuf>,
        mut actors: Vec<(ActorId, DetectActor)>,
    ) -> PeerHost {
        let recorder = &self.recorders[index as usize];
        for (_, actor) in &mut actors {
            actor.set_recorder(recorder);
        }
        let mut endpoint =
            Endpoint::new(index, links, inbox, self.counters.clone(), recorder.clone());
        if let Some(plane) = &self.plane {
            endpoint.set_collector(plane.sink.clone());
        }
        PeerHost {
            index,
            endpoint,
            actors,
            actor_peer: self.actor_peer.clone(),
            metrics: self.metrics.clone(),
            result: self.verdict.clone(),
            deadline: self.config.deadline,
            telemetry: self
                .plane
                .as_ref()
                .map(|p| TelemetrySidecar::new(p.sidecars[index as usize].clone(), 0)),
        }
    }

    /// The run's report, through the layout's own mapping.
    fn report<R>(self, report: ReportFn<R>) -> NetReport<R> {
        let report = report(&self.metrics.lock().expect("a peer panicked"), 0);
        NetReport {
            report,
            net: self.counters.snapshot(),
            telemetry: self.plane.and_then(|p| p.own),
        }
    }
}

/// Each peer's actors with their ids, in id order.
fn per_peer(actors: Vec<Placed>, n_peers: usize) -> Vec<Vec<(ActorId, DetectActor)>> {
    let mut peers: Vec<Vec<_>> = (0..n_peers).map(|_| Vec::new()).collect();
    for (id, (peer, actor)) in actors.into_iter().enumerate() {
        peers[peer as usize].push((ActorId::new(id as u32), actor));
    }
    peers
}

/// All outbound links plus the per-peer inboxes they deliver into.
struct Fabric {
    /// `links[i][j]` is the transport for the directed link `i → j`.
    links: Vec<Vec<Option<Box<dyn Transport>>>>,
    inboxes: Vec<Receiver<PooledBuf>>,
    /// The doorbell of the worker hosting the run's peers; every inbox
    /// rings it.
    bell: Arc<Doorbell>,
}

fn wrap_faults(
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

fn build_fabric(
    n_peers: usize,
    config: &NetConfig,
    counters: &Arc<NetCounters>,
    recorders: &[Arc<dyn Recorder>],
) -> Fabric {
    // One buffer pool per fabric: every chunk a link delivers recycles
    // through it.
    let dialer = Dialer::new(config.transport, FramePool::shared(counters.clone()));
    let bell = Arc::new(Doorbell::default());
    let (txs, inboxes): (Vec<_>, Vec<_>) = (0..n_peers).map(|_| channel()).unzip();
    let inbox_txs: Vec<InboxSender> = txs
        .into_iter()
        .map(|tx| InboxSender::new(tx, Arc::clone(&bell)))
        .collect();
    let links = (0..n_peers)
        .map(|i| {
            (0..n_peers)
                .map(|j| {
                    (i != j).then(|| {
                        let link = dialer.dial(&inbox_txs[j]);
                        wrap_faults(link, config, i as u32, j as u32, counters, &recorders[i])
                    })
                })
                .collect()
        })
        .collect();
    Fabric {
        links,
        inboxes,
        bell,
    }
}

/// Hosts the peers on the calling thread and returns once every peer has
/// finished. Endpoints stay open until then, so no peer ever sends into a
/// torn-down link; then the collector peer drains the final telemetry
/// deltas (both in-process transports deliver on the sending thread, so
/// they are already in its inbox) and the links close.
fn drive(hosts: Vec<PeerHost>, bell: &Doorbell) {
    let mut hosts = worker::run(hosts, bell);
    for host in hosts.iter_mut().filter(|h| h.is_collector()) {
        // Any late data frame surfacing here is dropped unprocessed, the
        // same fate it meets in a closed channel: accounting and verdicts
        // are untouched.
        while host.endpoint.recv(Duration::ZERO).is_some() {}
    }
    for host in &mut hosts {
        host.endpoint.close();
    }
}

/// How long a standalone peer keeps its sockets open after finishing, so
/// remote stragglers can still complete their writes.
const SERVE_LINGER: Duration = Duration::from_millis(300);

/// Runs one standalone `wcp serve` peer on the calling thread: the same
/// event loop as an in-process run, over TCP. Afterwards it lingers — draining the inbox when telemetry is
/// on, since the other peers' final deltas arrive exactly then — and
/// closes its links and accept loop.
fn serve_alone(host: PeerHost, bell: &Doorbell, acceptor: Acceptor) {
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

/// The in-process host: every peer of `layout` on the calling thread,
/// over `config`'s transport, counting into `counters`.
pub(crate) fn host<R>(
    layout: Layout<R>,
    config: &NetConfig,
    options: &RunOptions,
    counters: Arc<NetCounters>,
) -> NetReport<R> {
    let run = RunShared::new(&layout, config, options, counters);
    let n_peers = run.recorders.len();
    let fabric = build_fabric(n_peers, config, &run.counters, &run.recorders);
    let hosts = fabric
        .links
        .into_iter()
        .zip(fabric.inboxes)
        .zip(per_peer(layout.actors, n_peers))
        .enumerate()
        .map(|(i, ((links, inbox), actors))| run.host(i as u32, links, inbox, actors))
        .collect();
    drive(hosts, &fabric.bell);
    run.report(layout.report)
}

/// The standalone host: peer `peer` of `layout` as its own process,
/// listening on `addrs[peer]` and dialling every other address. Peers
/// dial with generous retries, so start order does not matter.
///
/// # Errors
///
/// An I/O error naming the address if its own address cannot be bound or
/// another peer's cannot be dialled.
///
/// # Panics
///
/// Panics on bad indices or a stall past the deadline.
pub(crate) fn serve<R>(
    layout: Layout<R>,
    peer: usize,
    addrs: &[SocketAddr],
    config: &NetConfig,
    options: &RunOptions,
    counters: Arc<NetCounters>,
) -> io::Result<PeerReport<R>> {
    let n_peers = layout.peers();
    assert_eq!(addrs.len(), n_peers, "one address per peer");
    assert!(peer < n_peers, "peer index out of range");
    let run = RunShared::new(&layout, config, options, counters);
    let pool = FramePool::shared(run.counters.clone());
    let listener = TcpListener::bind(addrs[peer])
        .map_err(|e| io::Error::new(e.kind(), format!("cannot bind {}: {e}", addrs[peer])))?;
    let (tx, rx) = channel();
    let bell = Arc::new(Doorbell::default());
    let acceptor = spawn_listener(listener, InboxSender::new(tx, bell.clone()), pool);
    // Other peers may not have started yet: dial patiently.
    let mut links = Vec::with_capacity(n_peers);
    for (j, &addr) in addrs.iter().enumerate() {
        if j == peer {
            links.push(None);
            continue;
        }
        let tcp = TcpTransport::connect(addr, 12, Duration::from_millis(5))
            .map_err(|e| io::Error::new(e.kind(), format!("cannot dial peer at {addr}: {e}")))?;
        let recorder = &run.recorders[peer];
        links.push(Some(wrap_faults(
            Box::new(tcp),
            config,
            peer as u32,
            j as u32,
            &run.counters,
            recorder,
        )));
    }
    let actors = per_peer(layout.actors, n_peers).swap_remove(peer);
    let host = run.host(peer as u32, links, rx, actors);
    serve_alone(host, &bell, acceptor);
    Ok(run.report(layout.report))
}

/// Runs `family` over real transport, every peer in-process.
///
/// # Panics
///
/// As [`Family::layout`], or if the run stalls past the configured
/// deadline.
pub fn run_net(
    family: Family,
    computation: &Computation,
    wcp: &Wcp,
    config: NetConfig,
    options: &RunOptions,
) -> NetReport {
    host(
        family.layout(computation, wcp),
        &config,
        options,
        NetCounters::shared(),
    )
}

/// Runs the Section 3 single-token algorithm over real transport: one peer
/// per scope process, each hosting its monitor and mated application.
///
/// # Panics
///
/// Panics if the scope is empty, the computation is invalid, or the run
/// stalls past the configured deadline.
pub fn run_vc_token_net(computation: &Computation, wcp: &Wcp, config: NetConfig) -> NetReport {
    run_net(
        Family::VcToken,
        computation,
        wcp,
        config,
        &RunOptions::default(),
    )
}

/// Runs peer `peer` of a vector-clock token detection as its own process,
/// listening on `addrs[peer]` and dialling every other address — the
/// `wcp serve` entry point, one OS process per scope position.
///
/// Every peer must be started with the same computation, predicate and
/// address list. With telemetry on, every peer ships its deltas to peer
/// 0, whose report (or the options' collector) holds them all.
///
/// # Errors
///
/// An I/O error naming the address if its own address cannot be bound or
/// another peer's cannot be dialled.
///
/// # Panics
///
/// Panics on bad indices or a stall past the deadline.
pub fn serve_vc_peer(
    computation: &Computation,
    wcp: &Wcp,
    peer: usize,
    addrs: &[SocketAddr],
    config: NetConfig,
    options: &RunOptions,
) -> io::Result<PeerReport> {
    let layout = Family::VcToken.layout(computation, wcp);
    serve(layout, peer, addrs, &config, options, NetCounters::shared())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::run_multi_net;
    use wcp_clocks::ProcessId;
    use wcp_detect::online::{run_online, run_vc_token, DetectMsg};
    use wcp_detect::DetectionMetrics;
    use wcp_session::Service;
    use wcp_sim::{Actor, Context, SimConfig};
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

    /// Runs `family` in-process with default options.
    fn net(family: Family, c: &Computation, wcp: &Wcp, config: NetConfig) -> NetReport {
        run_net(family, c, wcp, config, &RunOptions::default())
    }

    #[test]
    fn in_process_runs_repeat_exactly() {
        // One thread steps every peer and delivers every frame, on
        // loopback and in-process TCP alike (a TCP link reads its own
        // bytes back), and frames held by fault injection wait on that
        // thread's virtual clock: a run, clean or under the equivalence
        // suite's fault schedules, has no cross-thread hand-off, so
        // running it again repeats every wire counter and every metric,
        // not only the verdict.
        let schedules = [
            None,
            Some(FaultConfig::delay_duplicate_reorder(7)),
            Some(FaultConfig::seeded(9).with_drop(0.15).with_reset(0.05)),
        ];
        for seed in 0..6 {
            let g = generate(
                &GeneratorConfig::new(5, 30)
                    .with_seed(seed)
                    .with_predicate_density(0.3)
                    .with_plant(0.8),
            );
            let c = &g.computation;
            let wcp = Wcp::over_all(c);
            for (base, faults) in [NetConfig::loopback(), NetConfig::tcp()]
                .into_iter()
                .flat_map(|base| schedules.map(|faults| (base, faults)))
            {
                let config = NetConfig { faults, ..base };
                let label = format!("seed {seed}, {:?}, {faults:?}", base.transport);
                for family in [
                    Family::VcToken,
                    Family::MultiToken { groups: 1 },
                    Family::MultiToken { groups: 2 },
                    Family::Checker,
                    Family::Direct { parallel: true },
                ] {
                    let [a, b] = [0, 1].map(|_| net(family, c, &wcp, config));
                    assert_eq!(a.net, b.net, "{family}, {label}");
                    assert_eq!(a.report.metrics, b.report.metrics, "{family}, {label}");
                    assert_eq!(a.report, b.report, "{family}, {label}");
                }
                let service = Service::new(&(1..=3).map(Wcp::over_first).collect::<Vec<_>>());
                let options = RunOptions::default();
                let [a, b] = [0, 1].map(|_| run_multi_net(c, &service, config, &options));
                assert_eq!(a.net, b.net, "multi, {label}");
                assert_eq!(a.report.outcomes, b.report.outcomes, "multi, {label}");
            }
        }
    }

    /// An application actor that never runs its script.
    struct Silent;

    impl Actor<DetectMsg> for Silent {
        fn on_message(&mut self, _: &mut dyn Context<DetectMsg>, _: ActorId, _: DetectMsg) {}
    }

    #[test]
    fn a_stalled_loopback_run_names_every_monitor_state() {
        // Silence process 1's application: its monitor never hears a
        // snapshot or end-of-trace, so the token waits there until the
        // watchdog fires, and the panic must say where it waits.
        let mut b = ComputationBuilder::new(3);
        for p in ProcessId::all(3) {
            b.mark_true(p);
        }
        let computation = b.build().expect("valid");
        let mut layout = Family::VcToken.layout(&computation, &Wcp::over_all(&computation));
        layout.actors[1].1 = Box::new(Silent);
        let config = NetConfig::loopback().with_deadline(Duration::from_millis(100));
        let stall = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            host(
                layout,
                &config,
                &RunOptions::default(),
                NetCounters::shared(),
            )
        }))
        .expect_err("the run cannot finish");
        let message = stall.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("stalled past their deadline"), "{message}");
        for row in [
            "vc[0]: queued=0 eot=true done=false no token",
            "vc[1]: queued=0 eot=false done=false token held",
            "vc[2]: queued=1 eot=true done=false no token",
        ] {
            assert!(message.contains(row), "{row} missing from\n{message}");
        }
    }

    #[test]
    fn a_multi_token_run_wider_than_64_processes_matches_the_simulator() {
        // A group token's presence bitmap is n bits of its body, so no
        // scope width is refused; 65 processes is one more than a 64-bit
        // word holds.
        let n = 65;
        let mut b = ComputationBuilder::new(n);
        for p in ProcessId::all(n) {
            b.mark_true(p);
        }
        let computation = b.build().expect("valid");
        let wcp = Wcp::over_all(&computation);
        let family = Family::MultiToken { groups: 2 };
        let sim = run_online(family, &computation, &wcp, SimConfig::seeded(1)).report;
        let net = net(family, &computation, &wcp, NetConfig::loopback());
        assert!(sim.detection.is_detected());
        assert_eq!(net.report.detection, sim.detection);
        let schedule_free = |m: &DetectionMetrics| DetectionMetrics {
            parallel_time: 0,
            max_buffered_snapshots: 0,
            ..m.clone()
        };
        assert_eq!(
            schedule_free(&net.report.metrics),
            schedule_free(&sim.metrics)
        );
    }
}
