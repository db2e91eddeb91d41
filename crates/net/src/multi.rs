//! The multi-tenant detection service over real transport (DESIGN.md
//! S25): `wcp serve --multi` and the in-process equivalence runner.
//!
//! Peer layout: `N + 1` peers for an `N`-process computation. Peer `p`
//! (`p < N`) hosts application process `p` streaming full-width Figure 2
//! snapshots; peer `N` hosts the session service (actor id `N`) with its
//! [`MultiEngine`]; the controller (actor id `N + 1`) rides on peer 0 and
//! registers predicates, collects `MULTI_VERDICT` frames, and stops the
//! run when the service announces end-of-verdicts. Registration,
//! unregistration and verdict frames ride the same reliability layer
//! (sequence numbers, retransmit, dedup) as snapshots.
//!
//! Each session reads its scope class's routed log: the projection of
//! the computation's canonical `(interval, process)` order onto the
//! predicate's scope, whatever order the frames arrived in. That makes
//! every per-predicate verdict *and* its `DetectionMetrics` a pure
//! function of the computation, so a socket run — loopback or TCP, clean
//! or under a tolerated fault schedule — must be bit-identical to the
//! simulator and to `k` standalone single-predicate runs. The equivalence
//! tests pin exactly that.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wcp_clocks::ProcessId;
use wcp_detect::online::{AppProcess, ClockMode, DetectMsg, SharedOutcome};
use wcp_obs::{NullRecorder, Recorder};
use wcp_session::{
    check_registrations, collect_multi_report, MultiController, MultiEngine, MultiReport,
    MultiService, PredicateOutcome,
};
use wcp_sim::{Actor, ActorId, Context, SimMetrics};
use wcp_trace::{Computation, Wcp};

use crate::peer::{Endpoint, HostedActor, PeerHost};
use crate::pool::FramePool;
use crate::runner::{
    build_fabric, drive, peer_recorders, serve_alone, wrap_faults, NetConfig, TelemetryPlane,
    RECOVERY_RETRIES,
};
use crate::stats::{NetCounters, NetStats};
use crate::telemetry::TelemetryCollector;
use crate::transport::{spawn_listener, InboxSender, TcpTransport, Transport};
use crate::worker::Doorbell;

/// [`MultiService`] with its engine counters and its count of refused
/// messages mirrored into the run's [`NetCounters`] after every message,
/// so the sidecar telemetry plane (`wcp stats --net`, `wcp top`) sees
/// `sessions_active`, `routed_events`, `detections` and `rejected` move
/// while the run is in flight — without adding a single byte to the
/// verdict path.
struct CountedService {
    inner: MultiService,
    counters: Arc<NetCounters>,
}

impl CountedService {
    fn sync(&self) {
        let stats = self.inner.engine().stats();
        self.counters
            .multi_sessions_active
            .store(stats.sessions_active, Ordering::Relaxed);
        self.counters
            .multi_routed_events
            .store(stats.routed_events, Ordering::Relaxed);
        self.counters
            .multi_detections
            .store(stats.detections, Ordering::Relaxed);
        self.counters
            .multi_rejected
            .store(self.inner.rejected(), Ordering::Relaxed);
    }
}

impl Actor<DetectMsg> for CountedService {
    fn on_start(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        self.inner.on_start(ctx);
        self.sync();
    }

    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, from: ActorId, msg: DetectMsg) {
        self.inner.on_message(ctx, from, msg);
        self.sync();
    }
}

/// Result of a multi-tenant net run.
#[derive(Debug, Clone)]
pub struct MultiNetReport {
    /// Per-predicate outcomes plus wire verdicts and engine counters —
    /// the same shape the offline and simulator runners report.
    pub report: MultiReport,
    /// Wire-level counters of the whole run (all peers combined),
    /// including the mirrored `multi_*` session counters.
    pub net: NetStats,
    /// The merged telemetry timeline when [`NetConfig::telemetry`] is on.
    pub telemetry: Option<Arc<TelemetryCollector>>,
}

/// The shared actor-id layout of a multi run over an `n_total`-process
/// computation: apps `0..N` on peers `0..N`, service `N` on peer `N`,
/// controller `N + 1` on peer 0.
fn multi_actor_peer(n_total: usize) -> Arc<Vec<u32>> {
    let mut actor_peer = vec![0u32; n_total + 2];
    for (p, slot) in actor_peer.iter_mut().enumerate().take(n_total) {
        *slot = p as u32;
    }
    actor_peer[n_total] = n_total as u32; // service
    actor_peer[n_total + 1] = 0; // controller
    Arc::new(actor_peer)
}

/// Runs `predicates` (ids `0..k`) over real transport: every application
/// process on its own peer, the session service on one more.
///
/// # Panics
///
/// Panics if the computation has no processes, a registration is invalid,
/// or the run stalls past the configured deadline.
pub fn run_multi_net(
    computation: &Computation,
    predicates: &[Wcp],
    config: NetConfig,
) -> MultiNetReport {
    let registrations: Vec<(u64, Wcp)> = predicates
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, w)| (i as u64, w))
        .collect();
    run_multi_net_with(
        computation,
        &registrations,
        &[],
        config,
        Arc::new(NullRecorder),
        None,
    )
}

/// [`run_multi_net`] with telemetry forced on and an external
/// [`TelemetryCollector`], so a live watcher (`wcp top`) can sample the
/// per-session counters while the run is still in flight.
///
/// # Panics
///
/// Panics on invalid input or a stall past the configured deadline.
pub fn run_multi_net_observed(
    computation: &Computation,
    predicates: &[Wcp],
    mut config: NetConfig,
    recorder: Arc<dyn Recorder>,
    collector: Arc<TelemetryCollector>,
) -> MultiNetReport {
    config.telemetry = true;
    let registrations: Vec<(u64, Wcp)> = predicates
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, w)| (i as u64, w))
        .collect();
    run_multi_net_with(
        computation,
        &registrations,
        &[],
        config,
        recorder,
        Some(collector),
    )
}

/// [`run_multi_net`] with explicit predicate ids, a mid-run
/// unregistration list, a [`Recorder`], and an optional external
/// telemetry collector.
///
/// # Panics
///
/// Panics on invalid input or a stall past the configured deadline.
pub fn run_multi_net_with(
    computation: &Computation,
    registrations: &[(u64, Wcp)],
    unregister: &[u64],
    config: NetConfig,
    recorder: Arc<dyn Recorder>,
    collector: Option<Arc<TelemetryCollector>>,
) -> MultiNetReport {
    let n_total = computation.process_count();
    assert!(n_total >= 1, "computation must have at least one process");
    if let Err(e) = check_registrations(n_total, registrations) {
        panic!("multi service would reject a registration: {e}");
    }
    let n_peers = n_total + 1;
    let scope_all = Wcp::over_all(computation);
    let service_id = ActorId::new(n_total as u32);
    let controller_id = ActorId::new(n_total as u32 + 1);
    let app_actors: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let actor_peer = multi_actor_peer(n_total);

    let engine = Arc::new(MultiEngine::new(n_total));
    let result: SharedOutcome = Arc::new(Mutex::new(None));
    let metrics = Arc::new(Mutex::new(SimMetrics::new(n_total + 2)));
    let counters = NetCounters::shared();
    let plane = config
        .telemetry
        .then(|| TelemetryPlane::build(n_peers, collector));
    let recorders = peer_recorders(n_peers, &recorder, &plane);
    let fabric = build_fabric(n_peers, &config, &counters, &recorders);

    let ctrl = MultiController::new(service_id, registrations.to_vec(), unregister.to_vec());
    let verdicts = ctrl.verdicts();
    let finished = ctrl.finished();
    let mut ctrl = Some(ctrl);

    let mut hosts = Vec::with_capacity(n_peers);
    let mut inboxes = fabric.inboxes.into_iter();
    for (i, links) in fabric.links.into_iter().enumerate() {
        let mut actors: Vec<(ActorId, HostedActor)> = Vec::new();
        if i < n_total {
            let p = ProcessId::new(i as u32);
            actors.push((
                app_actors[i],
                HostedActor::boxed(AppProcess::new(
                    computation,
                    &scope_all,
                    p,
                    ClockMode::Vector,
                    app_actors.clone(),
                    Some(service_id),
                )),
            ));
        } else {
            actors.push((
                service_id,
                HostedActor::boxed(CountedService {
                    inner: MultiService::new(
                        Arc::clone(&engine),
                        controller_id,
                        registrations.len(),
                        unregister.len(),
                    )
                    .with_pump_threads(config.pump_threads),
                    counters: counters.clone(),
                }),
            ));
        }
        if i == 0 {
            actors.push((
                controller_id,
                HostedActor::boxed(ctrl.take().expect("controller placed once")),
            ));
        }
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

    assert!(
        finished.load(Ordering::Acquire),
        "multi net run ended before the service announced end-of-verdicts"
    );
    let wire = verdicts.lock().expect("controller poisoned").clone();
    MultiNetReport {
        report: collect_multi_report(&engine, registrations, unregister, wire),
        net: counters.snapshot(),
        telemetry: plane.map(|p| p.collector),
    }
}

/// Outcome of one standalone multi-service peer.
#[derive(Debug, Clone)]
pub struct MultiPeerReport {
    /// Per-predicate outcomes — populated only on the service peer
    /// (peer `N`), which owns the engine.
    pub outcomes: Vec<PredicateOutcome>,
    /// Verdicts collected off the wire — populated only on the
    /// controller peer (peer 0).
    pub verdicts: HashMap<u64, Option<Vec<u64>>>,
    /// This peer's wire-level counters.
    pub net: NetStats,
    /// This peer's telemetry collector when [`NetConfig::telemetry`] is
    /// on (peer 0 accumulates every peer's deltas).
    pub telemetry: Option<Arc<TelemetryCollector>>,
}

/// Runs peer `peer` of a multi-tenant detection as its own OS process —
/// the `wcp serve --multi` entry point. `addrs` lists `N + 1` addresses:
/// one per application process, then the service peer's.
///
/// Every peer must be started with the same computation and registration
/// list; peers dial with generous retries so start order does not matter.
///
/// # Panics
///
/// Panics on bad indices, an invalid registration, undialable peers, or a
/// stall past the deadline.
pub fn serve_multi_peer(
    computation: &Computation,
    registrations: &[(u64, Wcp)],
    peer: usize,
    addrs: &[SocketAddr],
    config: NetConfig,
    recorder: Arc<dyn Recorder>,
) -> MultiPeerReport {
    let n_total = computation.process_count();
    let n_peers = n_total + 1;
    assert_eq!(
        addrs.len(),
        n_peers,
        "one address per process plus the service peer"
    );
    assert!(peer < n_peers, "peer index out of range");
    if let Err(e) = check_registrations(n_total, registrations) {
        panic!("multi service would reject a registration: {e}");
    }
    let scope_all = Wcp::over_all(computation);
    let service_id = ActorId::new(n_total as u32);
    let controller_id = ActorId::new(n_total as u32 + 1);
    let app_actors: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let actor_peer = multi_actor_peer(n_total);

    let counters = NetCounters::shared();
    // A standalone peer owns exactly one ring: its own.
    let plane = config.telemetry.then(|| TelemetryPlane::build(1, None));
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
    let links: Vec<Option<Box<dyn Transport>>> = (0..n_peers)
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

    let engine = Arc::new(MultiEngine::new(n_total));
    let result: SharedOutcome = Arc::new(Mutex::new(None));
    let metrics = Arc::new(Mutex::new(SimMetrics::new(n_total + 2)));
    let mut actors: Vec<(ActorId, HostedActor)> = Vec::new();
    let mut verdicts = None;
    if peer < n_total {
        let p = ProcessId::new(peer as u32);
        actors.push((
            app_actors[peer],
            HostedActor::boxed(AppProcess::new(
                computation,
                &scope_all,
                p,
                ClockMode::Vector,
                app_actors.clone(),
                Some(service_id),
            )),
        ));
    } else {
        actors.push((
            service_id,
            HostedActor::boxed(CountedService {
                inner: MultiService::new(
                    Arc::clone(&engine),
                    controller_id,
                    registrations.len(),
                    0,
                )
                .with_pump_threads(config.pump_threads),
                counters: counters.clone(),
            }),
        ));
    }
    if peer == 0 {
        let ctrl = MultiController::new(service_id, registrations.to_vec(), Vec::new());
        verdicts = Some(ctrl.verdicts());
        actors.push((controller_id, HostedActor::boxed(ctrl)));
    }

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
        result,
        deadline: config.deadline,
        telemetry: plane.as_ref().map(|p| p.sidecar(0)),
    };
    serve_alone(host, &bell, acceptor);

    let outcomes = if peer == n_total {
        collect_multi_report(&engine, registrations, &[], HashMap::new()).outcomes
    } else {
        Vec::new()
    };
    MultiPeerReport {
        outcomes,
        verdicts: verdicts
            .map(|v| v.lock().expect("controller poisoned").clone())
            .unwrap_or_default(),
        net: counters.snapshot(),
        telemetry: plane.map(|p| p.collector),
    }
}
