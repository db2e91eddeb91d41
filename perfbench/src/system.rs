//! The adapter: every call from the benchmark into the system under test
//! goes through this file, and no other file names a `wcp_*` crate. The
//! crates imported here are the layers the benchmark reports on.
//!
//! The adapter hands the rest of the benchmark plain data (scope
//! projections as `Vec<u64>`, counters as integers), so a change to the
//! system's entry points touches only this file.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use wcp_clocks::{scoped_workers, ProcessId, StateId};
use wcp_detect::online::run_vc_token;
use wcp_detect::{
    dd_snapshot_queues, CentralizedChecker, DetectionReport, Detector, DirectDependenceDetector,
    ParallelDetector, TokenDetector, VcSnapshotQueues,
};
use wcp_net::{run_vc_token_net, saturate_loopback, NetConfig};
use wcp_obs::json::{FromJson, Json, ToJson};
use wcp_session::{run_single_offline, MultiEngine, PredicateId, SessionVerdict};
use wcp_sim::SimConfig;
use wcp_trace::generate::{generate, GeneratorConfig, Topology};
use wcp_trace::ComputationBuilder;

pub use wcp_detect::DetectionMetrics as Metrics;
pub use wcp_trace::{AnnotatedComputation as Annotated, Computation, Wcp};

/// Worker count wherever the system takes a width (the host has 2 CPUs).
pub const WIDTH: usize = 2;

/// Predicate density and plant point of every generated random trace: the
/// `wcp generate --density 0.2 --plant 0.8` shape.
const DENSITY: f64 = 0.2;
const PLANT: f64 = 0.8;

/// A detectable uniform-topology trace of `n × m` events.
pub fn uniform(n: usize, m: usize, seed: u64) -> Computation {
    random_trace(GeneratorConfig::new(n, m), seed)
}

/// A detectable client-server trace (2 servers): skewed communication.
pub fn client_server(n: usize, m: usize, seed: u64) -> Computation {
    let cfg = GeneratorConfig::new(n, m).with_topology(Topology::ClientServer { servers: 2 });
    random_trace(cfg, seed)
}

fn random_trace(cfg: GeneratorConfig, seed: u64) -> Computation {
    let cfg = cfg
        .with_seed(seed)
        .with_predicate_density(DENSITY)
        .with_plant(PLANT);
    generate(&cfg).computation
}

/// The Theorem 5.1 staircase: a virtual token circles the ring `order`
/// for `rounds` rounds with each holder's predicate true while it holds
/// it, then a final barrier of pairwise-concurrent true intervals. Every
/// candidate is causally after the previous one, so detectors eliminate
/// them one at a time.
pub fn staircase(order: &[u32], rounds: usize) -> Computation {
    let n = order.len();
    let mut b = ComputationBuilder::new(n);
    for step in 0..rounds * n {
        let holder = ProcessId::new(order[step % n]);
        let next = ProcessId::new(order[(step + 1) % n]);
        b.mark_true(holder);
        let msg = b.send(holder, next);
        b.receive(next, msg);
    }
    for p in ProcessId::all(n) {
        b.mark_true(p);
    }
    b.build().expect("a staircase is a valid computation")
}

/// The trace as `wcp generate` writes it.
pub fn to_json(c: &Computation) -> String {
    c.to_json().pretty()
}

/// `Json::parse` + `Computation::from_json`: JSON text in, trace out.
pub fn parse(text: &str) -> Result<Computation, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    Computation::from_json(&json).map_err(|e| e.to_string())
}

/// Vector-clock annotation of a trace.
pub fn annotate(c: &Computation) -> Annotated<'_> {
    c.annotate()
}

/// Number of processes `N` of a trace.
pub fn process_count(c: &Computation) -> usize {
    c.process_count()
}

/// Number of events of a trace.
pub fn event_count(c: &Computation) -> usize {
    c.total_events()
}

/// A predicate over the listed processes.
pub fn scope(processes: &[u32]) -> Wcp {
    Wcp::over(processes.iter().map(|&p| ProcessId::new(p)))
}

/// The Theorem 3.2 oracle: the scope projection of the first satisfying
/// cut, or `None` if the predicate never holds.
pub fn oracle(a: &Annotated<'_>, w: &Wcp) -> Option<Vec<u64>> {
    a.first_satisfying_cut(w).map(|cut| w.project(&cut))
}

/// What a detector reported, as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Scope projection of the detected cut, `None` if undetected.
    pub cut: Option<Vec<u64>>,
    /// `DetectionMetrics::total_work`, in paper units.
    pub work: u64,
    /// `DetectionMetrics::parallel_time`, in paper units.
    pub span: u64,
    /// Token transfers between monitors.
    pub token_hops: u64,
    /// Control messages among monitors.
    pub control_messages: u64,
}

fn verdict(report: &DetectionReport, w: &Wcp) -> Verdict {
    Verdict {
        cut: report.detection.cut().map(|cut| w.project(cut)),
        work: report.metrics.total_work(),
        span: report.metrics.parallel_time,
        token_hops: report.metrics.token_hops,
        control_messages: report.metrics.control_messages,
    }
}

/// The offline detector families the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `TokenDetector`, §3 (the CLI default).
    Token,
    /// `DirectDependenceDetector`, §4.
    Direct,
    /// `CentralizedChecker`, the Garg–Waldecker baseline.
    Checker,
    /// `ParallelDetector` with [`WIDTH`] workers.
    Parallel,
}

impl Family {
    /// Every family, in report order; the offline leg relies on
    /// `Parallel` coming last.
    pub const ALL: [Family; 4] = [
        Family::Token,
        Family::Direct,
        Family::Checker,
        Family::Parallel,
    ];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Token => "token",
            Family::Direct => "direct",
            Family::Checker => "checker",
            Family::Parallel => "parallel",
        }
    }
}

/// Runs one offline detector.
pub fn detect(family: Family, a: &Annotated<'_>, w: &Wcp) -> Verdict {
    let report = match family {
        Family::Token => TokenDetector::new().detect(a, w),
        Family::Direct => DirectDependenceDetector::new().detect(a, w),
        Family::Checker => CentralizedChecker::new().detect(a, w),
        Family::Parallel => ParallelDetector::new().with_threads(WIDTH).detect(a, w),
    };
    verdict(&report, w)
}

/// `VcSnapshotQueues::build`; returns the snapshot count.
pub fn queue_build(a: &Annotated<'_>, w: &Wcp) -> usize {
    VcSnapshotQueues::build(a, w).total_snapshots()
}

/// `VcSnapshotQueues::build_parallel`; returns the snapshot count.
pub fn queue_build_par(a: &Annotated<'_>, w: &Wcp) -> usize {
    VcSnapshotQueues::build_parallel(a, w).total_snapshots()
}

/// `dd_snapshot_queues`, the §4 detector's queue build; returns the
/// snapshot count.
pub fn dd_queue_build(a: &Annotated<'_>, w: &Wcp) -> usize {
    dd_snapshot_queues(a, w).iter().map(Vec::len).sum()
}

/// One `scoped_workers` round trip of [`WIDTH`] no-op workers.
pub fn dispatch_noop() -> usize {
    scoped_workers(WIDTH, |w| w).len()
}

/// Where an online run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// The discrete-event simulator (`run_vc_token`).
    Sim,
    /// `run_vc_token_net` over `NetConfig::loopback()`.
    Loopback,
    /// `run_vc_token_net` over `NetConfig::tcp()`.
    Tcp,
    /// Loopback with the telemetry plane on.
    Telemetry,
}

impl Substrate {
    /// Every substrate, in report order.
    pub const ALL: [Substrate; 4] = [
        Substrate::Sim,
        Substrate::Loopback,
        Substrate::Tcp,
        Substrate::Telemetry,
    ];
}

/// Wire counters of one net run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Bytes sent in first transmissions.
    pub bytes_sent: u64,
    /// Frames sent in first transmissions.
    pub frames_sent: u64,
    /// Coalesced batch writes.
    pub batch_flushes: u64,
    /// Fresh frame-pool allocations.
    pub pool_allocs: u64,
    /// Frames transmitted again.
    pub retransmits: u64,
    /// Bytes of telemetry bodies.
    pub telemetry_bytes: u64,
}

/// Verdict and wire counters of one online run.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The run's verdict and paper-unit counts.
    pub verdict: Verdict,
    /// Wire counters; `None` on the simulator.
    pub net: Option<NetCounts>,
}

/// Runs the §3 vector-clock token algorithm online. A peer that makes no
/// progress for `deadline` fails the run.
pub fn run_token(
    substrate: Substrate,
    c: &Computation,
    w: &Wcp,
    seed: u64,
    deadline: Duration,
) -> OnlineOutcome {
    let config = match substrate {
        Substrate::Sim => {
            let run = run_vc_token(c, w, SimConfig::seeded(seed));
            return OnlineOutcome {
                verdict: verdict(&run.report, w),
                net: None,
            };
        }
        Substrate::Loopback => NetConfig::loopback(),
        Substrate::Tcp => NetConfig::tcp(),
        Substrate::Telemetry => NetConfig::loopback().with_telemetry(),
    };
    let run = run_vc_token_net(c, w, config.with_deadline(deadline));
    OnlineOutcome {
        verdict: verdict(&run.report, w),
        net: Some(NetCounts {
            bytes_sent: run.net.bytes_sent,
            frames_sent: run.net.frames_sent,
            batch_flushes: run.net.batch_flushes,
            pool_allocs: run.net.pool_allocs,
            retransmits: run.net.retransmits,
            telemetry_bytes: run.net.telemetry_bytes,
        }),
    }
}

/// `saturate_loopback`: `frames` snapshot frames of width `scope` over one
/// batched loopback link, no detector in the loop. Returns frames/s.
pub fn saturate(frames: u64, scope: usize) -> f64 {
    saturate_loopback(frames, scope, true).frames_per_sec()
}

/// One true-interval snapshot of a session stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Process index.
    pub process: u32,
    /// True interval of the snapshot.
    pub interval: u64,
    /// Full-width vector clock of that interval.
    pub clock: Vec<u64>,
}

/// Every true-interval snapshot of every process, per process in interval
/// order: what the application processes stream to a session service.
pub fn snapshots(a: &Annotated<'_>) -> Vec<Vec<Snapshot>> {
    ProcessId::all(a.process_count())
        .map(|p| {
            a.true_intervals(p)
                .iter()
                .map(|&k| Snapshot {
                    process: p.index() as u32,
                    interval: k,
                    clock: a.clock(StateId::new(p, k)).as_slice().to_vec(),
                })
                .collect()
        })
        .collect()
}

/// A session verdict: `Some(cut)` for detected, `None` for impossible.
pub type SessionCut = Option<Vec<u64>>;

fn session_cut(v: &SessionVerdict) -> SessionCut {
    match v {
        SessionVerdict::Detected(g) => Some(g.clone()),
        SessionVerdict::Impossible => None,
    }
}

/// The multi-tenant engine of `wcp-session`.
#[derive(Debug)]
pub struct Engine(MultiEngine);

impl Engine {
    /// An empty engine over `n` processes.
    pub fn new(n: usize) -> Self {
        Engine(MultiEngine::new(n))
    }

    /// `MultiEngine::register`; `Ok(Some(v))` if the replay of the routed
    /// log already resolved the session.
    pub fn register(&self, id: u64, w: &Wcp) -> Result<Option<SessionCut>, String> {
        self.0
            .register(PredicateId::new(id), w)
            .map(|v| v.as_ref().map(session_cut))
            .map_err(|e| e.to_string())
    }

    /// `MultiEngine::unregister`.
    pub fn unregister(&self, id: u64) -> bool {
        self.0.unregister(PredicateId::new(id))
    }

    /// `MultiEngine::ingest`.
    pub fn ingest(&self, s: &Snapshot) {
        self.0
            .ingest(ProcessId::new(s.process), s.interval, &s.clock);
    }

    /// `MultiEngine::close`.
    pub fn close(&self, process: u32) {
        self.0.close(ProcessId::new(process));
    }

    /// `pump_parallel(threads)`, or the serial `pump()` for `threads == 1`.
    /// Returns the sessions resolved by this call.
    pub fn pump(&self, threads: usize) -> Vec<(u64, SessionCut)> {
        let resolved = if threads > 1 {
            self.0.pump_parallel(threads)
        } else {
            self.0.pump()
        };
        resolved
            .iter()
            .map(|(id, v)| (id.raw(), session_cut(v)))
            .collect()
    }

    /// `EngineStats::routed_events`: deliveries to sessions so far.
    pub fn routed_events(&self) -> u64 {
        self.0.stats().routed_events
    }

    /// `routed_log_len()`: what a late registration replays.
    pub fn routed_log_len(&self) -> usize {
        self.0.routed_log_len()
    }

    /// `SharedStore::stored_bytes`.
    pub fn stored_bytes(&self) -> u64 {
        self.0.store().stored_bytes()
    }

    /// Final verdict and metrics of session `id`, if resolved.
    pub fn report(&self, id: u64) -> Option<(SessionCut, Metrics)> {
        let r = self.0.report(PredicateId::new(id))?;
        Some((session_cut(r.verdict.as_ref()?), r.metrics))
    }
}

/// `run_single_offline`: one predicate alone on the stream, the reference
/// a multi-tenant session must match bit for bit.
pub fn single_offline(c: &Computation, w: &Wcp) -> (SessionCut, Metrics) {
    let (v, m) = run_single_offline(c, w);
    (session_cut(&v), m)
}

/// Runs `op`, turning a panic into `None` so one failed operation is
/// counted instead of aborting the run.
pub fn guarded<R>(op: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(op)).ok()
}
