//! The online run builder. Each family lays its actors out once, as a
//! [`Layout`]: the actors in id order with the peer that hosts each, the
//! channels that must be FIFO, the verdict cell, and the one mapping from
//! a finished run's counters to its report. A host runs any layout: the
//! simulator here ([`simulate`]), and `wcp-net`'s in-process socket peers
//! and standalone `wcp serve` peers.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use wcp_clocks::ProcessId;
use wcp_obs::{NullRecorder, Recorder, TelemetrySink};
use wcp_sim::{Actor, ActorId, SimConfig, SimMetrics, SimOutcome, Simulation, StopReason};
use wcp_trace::{Computation, Wcp};

use crate::detector::{Detection, DetectionReport};
use crate::metrics::DetectionMetrics;
use crate::online::app::{AppProcess, ClockMode};
use crate::online::messages::DetectMsg;
use crate::online::vc_monitor::{OnlineDetection, SharedOutcome, SharedStats};
use crate::online::{checker_actor, dd_monitor, multi_token, vc_monitor};

/// A run's report plus the simulation outcome (notably the simulated
/// end time — the online detection-latency measure).
#[derive(Debug, Clone)]
pub struct OnlineReport<R = DetectionReport> {
    /// The family's report: detection result and paper-unit metrics.
    pub report: R,
    /// Raw simulation outcome.
    pub outcome: SimOutcome,
}

/// The cross-cutting options of one online run, one value for every host.
#[derive(Clone)]
pub struct RunOptions {
    /// Receives the actors' protocol events and the host's own: the
    /// simulator's deliveries, a socket peer's frames.
    pub recorder: Arc<dyn Recorder>,
    /// A live sink for a socket run's telemetry deltas, for a watcher
    /// sampling the run while it is in flight; setting it turns the
    /// telemetry plane on. The simulator has no telemetry plane.
    pub collector: Option<Arc<dyn TelemetrySink>>,
    /// Fan-out workers of the session service's pump on every host; 1
    /// pumps serially. Verdicts and metrics are bit-identical at any width
    /// (the equivalence tests pin that).
    pub pump_threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            recorder: Arc::new(NullRecorder),
            collector: None,
            pump_threads: 1,
        }
    }
}

impl RunOptions {
    /// Default options with `recorder` attached.
    pub fn recorded(recorder: Arc<dyn Recorder>) -> Self {
        RunOptions {
            recorder,
            ..RunOptions::default()
        }
    }
}

impl fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("recording", &self.recorder.is_enabled())
            .field("collector", &self.collector.is_some())
            .field("pump_threads", &self.pump_threads)
            .finish()
    }
}

/// The online detection families. (The session service lays out its own
/// actors, in `wcp-session`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Section 3: one vector-clock token.
    VcToken,
    /// Section 3.5: one token per group of scope monitors, and a leader.
    MultiToken {
        /// Number of groups (and tokens).
        groups: usize,
    },
    /// The Garg–Waldecker centralized checker as one actor.
    Checker,
    /// Section 4: direct dependences and scalar clocks.
    Direct {
        /// Run the Section 4.5 proactive red chain.
        parallel: bool,
    },
}

impl Family {
    /// Lays out this family's actors for `wcp` over `computation`.
    ///
    /// # Panics
    ///
    /// Panics if the scope (or, for the direct family, the computation) is
    /// empty, or a multi-token run asks for no group.
    pub fn layout(self, computation: &Computation, wcp: &Wcp) -> Layout<DetectionReport> {
        match self {
            Family::VcToken => vc_monitor::layout(computation, wcp),
            Family::MultiToken { groups } => multi_token::layout(computation, wcp, groups),
            Family::Checker => checker_actor::layout(computation, wcp),
            Family::Direct { parallel } => dd_monitor::layout(computation, wcp, parallel),
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Family::VcToken => write!(f, "token"),
            Family::MultiToken { groups } => write!(f, "multi:{groups}"),
            Family::Checker => write!(f, "checker"),
            Family::Direct { parallel: false } => write!(f, "direct"),
            Family::Direct { parallel: true } => write!(f, "direct+par"),
        }
    }
}

impl FromStr for Family {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form, the names `wcp detect`
    /// gives the offline detectors: `token`, `multi:G` (`G ≥ 1`),
    /// `checker`, `direct`, and `direct+par` for the Section 4.5 chain.
    fn from_str(s: &str) -> Result<Self, String> {
        let family = match s {
            "token" => Family::VcToken,
            "checker" => Family::Checker,
            "direct" => Family::Direct { parallel: false },
            "direct+par" => Family::Direct { parallel: true },
            _ => match s.strip_prefix("multi:").map(str::parse) {
                Some(Ok(groups)) if groups >= 1 => Family::MultiToken { groups },
                _ => {
                    return Err(format!(
                        "`{s}` (want token|multi:G|checker|direct|direct+par)"
                    ))
                }
            },
        };
        Ok(family)
    }
}

/// One actor of the online detection protocols, as a layout holds it and
/// every host runs it.
pub type DetectActor = Box<dyn Actor<DetectMsg>>;

/// A layout's actor and the socket peer that hosts it.
pub type Placed = (u32, DetectActor);

/// A directed channel between two actors.
pub type Channel = (ActorId, ActorId);

/// A layout's mapping from a stopped run's counters and simulated end
/// time to its report.
pub type ReportFn<R> = Box<dyn FnOnce(&SimMetrics, u64) -> R>;

/// One online family's actors, laid out once for every host.
pub struct Layout<R> {
    /// Every actor in id order, with the socket peer that hosts it.
    pub actors: Vec<Placed>,
    /// The channels that must be FIFO: each application to its monitor
    /// (the paper's only ordering requirement). Socket links are FIFO
    /// throughout, so only the simulator reads this.
    pub fifo: Vec<Channel>,
    /// The cell the deciding actor publishes its verdict into.
    pub verdict: SharedOutcome,
    /// Maps a stopped run's counters and simulated end time (0 on
    /// sockets, which have no global clock) to its report.
    pub report: ReportFn<R>,
}

impl<R> Layout<R> {
    /// Number of socket peers the layout spreads over.
    pub fn peers(&self) -> usize {
        self.actors
            .iter()
            .map(|&(peer, _)| peer as usize + 1)
            .max()
            .unwrap_or(1)
    }
}

/// The application actors `0..N` of a layout, one per process, and their
/// FIFO channels: process `p` replays its trace with `mode` clocks over
/// `clocks`' scope, counts its snapshots in `stats`, streams them to
/// `mate(p)` and runs on peer `peer(p)`.
pub fn apps(
    computation: &Computation,
    clocks: &Wcp,
    mode: ClockMode,
    stats: &SharedStats,
    mate: impl Fn(ProcessId) -> Option<ActorId>,
    peer: impl Fn(ProcessId) -> u32,
) -> (Vec<Placed>, Vec<Channel>) {
    let n_total = computation.process_count();
    let ids: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let fifo = ProcessId::all(n_total)
        .filter_map(|p| mate(p).map(|m| (ids[p.index()], m)))
        .collect();
    let actors = ProcessId::all(n_total)
        .map(|p| {
            let app = AppProcess::new(
                computation,
                clocks,
                p,
                mode,
                ids.clone(),
                mate(p),
                stats.clone(),
            );
            (peer(p), Box::new(app) as DetectActor)
        })
        .collect();
    (actors, fifo)
}

/// Lays out a detection family: application actors `0..N`, then the
/// monitors `monitors` returns, at ids `N..`, each with its peer.
///
/// The monitored processes are the scope in [`ClockMode::Vector`] runs
/// (Section 3) and every process in [`ClockMode::Scalar`] runs (Section
/// 4). Each streams its snapshots to its mate: the monitor at its own
/// position, or the first monitor for every process when `central` (the
/// centralized checker). An application runs on its position's peer, one
/// outside the scope round-robin. A verdict's entries are indexed by
/// monitored position; every monitor is a participant of the metrics.
pub(crate) fn detection_layout(
    computation: &Computation,
    wcp: &Wcp,
    mode: ClockMode,
    central: bool,
    monitors: impl FnOnce(&SharedOutcome, &SharedStats) -> Vec<Placed>,
) -> Layout<DetectionReport> {
    let n_total = computation.process_count();
    let monitored = match mode {
        ClockMode::Vector => wcp.clone(),
        ClockMode::Scalar => Wcp::over_first(n_total),
    };
    assert!(monitored.n() >= 1, "a run needs at least one monitor");
    let verdict = SharedOutcome::default();
    let stats = SharedStats::default();
    let mate = |p: ProcessId| {
        let pos = monitored.position(p)?;
        Some(ActorId::new(
            (n_total + if central { 0 } else { pos }) as u32,
        ))
    };
    let peer = |p: ProcessId| monitored.position(p).unwrap_or(p.index() % monitored.n()) as u32;
    let (mut actors, fifo) = apps(computation, wcp, mode, &stats, mate, peer);
    let monitors = monitors(&verdict, &stats);
    let participants = monitors.len();
    actors.extend(monitors);

    let cell = verdict.clone();
    let report = move |metrics: &SimMetrics, time: u64| {
        let detection = match cell.lock().expect("a monitor panicked").take() {
            Some(OnlineDetection::Detected(g)) => Detection::Detected {
                cut: monitored.lift(&g, n_total),
            },
            Some(OnlineDetection::Undetected) => Detection::Undetected,
            None => panic!("the run stopped without a verdict"),
        };
        let mut m = DetectionMetrics::new(participants);
        for (i, work) in m.per_process_work.iter_mut().enumerate() {
            let a = metrics.actor(ActorId::new((n_total + i) as u32));
            *work = a.work;
            m.control_messages += a.sent;
            m.control_bytes += a.bytes_sent;
        }
        m.snapshot_messages = stats.snapshots.load(Ordering::Relaxed);
        m.snapshot_bytes = stats.snapshot_bytes.load(Ordering::Relaxed);
        m.token_hops = stats.token_hops.load(Ordering::Relaxed);
        m.max_buffered_snapshots = stats.max_buffered.load(Ordering::Relaxed);
        m.parallel_time = time;
        DetectionReport {
            detection,
            metrics: m,
        }
    };
    Layout {
        actors,
        fifo,
        verdict,
        report: Box::new(report),
    }
}

/// The simulator host: runs `layout` on the discrete-event network until
/// an actor stops it, and reports.
///
/// # Panics
///
/// Panics with every actor's protocol state if the run quiesces without
/// stopping (a stalled protocol).
pub fn simulate<R>(layout: Layout<R>, config: SimConfig, options: &RunOptions) -> OnlineReport<R> {
    let Layout {
        actors,
        fifo,
        report,
        ..
    } = layout;
    let config = fifo
        .into_iter()
        .fold(config, |c, (from, to)| c.with_fifo_channel(from, to));
    let mut sim = Simulation::new(config);
    sim.set_recorder(options.recorder.clone());
    for (_, mut actor) in actors {
        actor.set_recorder(&options.recorder);
        sim.add_actor(actor);
    }
    let outcome = sim.run();
    assert!(
        outcome.reason == StopReason::Stopped,
        "simulation quiesced without a verdict (protocol stalled)\n{}",
        sim.status_report()
    );
    OnlineReport {
        report: report(sim.metrics(), outcome.time.0),
        outcome,
    }
}

/// Runs `family` online over the simulated network.
///
/// # Panics
///
/// As [`Family::layout`] and [`simulate`].
pub fn run_online(
    family: Family,
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
) -> OnlineReport {
    simulate(
        family.layout(computation, wcp),
        sim_config,
        &RunOptions::default(),
    )
}

/// Runs the Section 3 single-token algorithm online: one application
/// actor per process and one monitor per scope process, with FIFO
/// application→monitor channels.
///
/// # Panics
///
/// Panics if the scope is empty or the computation is invalid.
pub fn run_vc_token(computation: &Computation, wcp: &Wcp, sim_config: SimConfig) -> OnlineReport {
    run_online(Family::VcToken, computation, wcp, sim_config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DirectDependenceDetector, TokenDetector};
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run_direct(c: &Computation, wcp: &Wcp, sim: SimConfig, parallel: bool) -> OnlineReport {
        run_online(Family::Direct { parallel }, c, wcp, sim)
    }

    #[test]
    fn vc_online_detects_simple_cut() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let r = run_vc_token(&c, &Wcp::over_first(2), SimConfig::seeded(1));
        assert_eq!(
            r.report.detection.cut().unwrap().as_slice(),
            &[2, 2],
            "{:?}",
            r.report
        );
        assert!(r.report.metrics.token_hops >= 1);
    }

    #[test]
    fn vc_online_reports_undetected() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let r = run_vc_token(&c, &Wcp::over_first(2), SimConfig::seeded(1));
        assert_eq!(r.report.detection, Detection::Undetected);
    }

    #[test]
    fn vc_online_matches_offline_across_seeds_and_jitter() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(4);
            let offline = TokenDetector::new().detect(&a, &wcp);
            for sim_seed in [0u64, 1, 99] {
                let online = run_vc_token(&g.computation, &wcp, SimConfig::seeded(sim_seed));
                assert_eq!(
                    online.report.detection, offline.detection,
                    "seed {seed} sim_seed {sim_seed}"
                );
            }
        }
    }

    #[test]
    fn every_vector_clock_runner_counts_only_snapshot_traffic() {
        let cfg = GeneratorConfig::new(4, 10).with_seed(5);
        let wcp = Wcp::over_first(4);
        let runs = |c: &Computation| {
            [
                Family::VcToken,
                Family::MultiToken { groups: 2 },
                Family::Checker,
            ]
            .map(|family| (family, run_online(family, c, &wcp, SimConfig::seeded(1))))
        };
        // No pred-true interval, no snapshot: end-of-trace markers are not
        // snapshots.
        let empty = generate(&cfg.clone().with_predicate_density(0.0)).computation;
        for (family, run) in runs(&empty) {
            let m = &run.report.metrics;
            assert_eq!(run.report.detection, Detection::Undetected, "{family}");
            assert_eq!((m.snapshot_messages, m.snapshot_bytes), (0, 0), "{family}");
        }
        let planted = generate(&cfg.with_predicate_density(0.3).with_plant(0.9)).computation;
        for (family, run) in runs(&planted) {
            let m = &run.report.metrics;
            assert!(run.report.detection.cut().is_some(), "{family}");
            assert!(m.snapshot_messages > 0, "{family}");
            // Every Figure 2 snapshot is a scope-width clock.
            assert_eq!(m.snapshot_bytes, m.snapshot_messages * 8 * 4, "{family}");
        }
    }

    #[test]
    fn an_early_stop_counts_the_snapshots_the_apps_sent() {
        // Both processes hold their predicate from the start, then trade
        // 40 messages: every family detects long before the scripts end,
        // so inferring snapshots from the whole script undercounts them
        // (to zero). The apps count them where they send them.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        b.mark_true(p(1));
        for _ in 0..20 {
            let m = b.send(p(0), p(1));
            b.receive(p(1), m);
            let m = b.send(p(1), p(0));
            b.receive(p(0), m);
        }
        let c = b.build().unwrap();
        let wcp = Wcp::over_first(2);
        for family in [
            Family::VcToken,
            Family::MultiToken { groups: 2 },
            Family::Checker,
            Family::Direct { parallel: false },
        ] {
            let run = run_online(family, &c, &wcp, SimConfig::seeded(1));
            let m = &run.report.metrics;
            assert_eq!(
                run.report.detection.cut().map(|c| c.as_slice().to_vec()),
                Some(vec![1, 1]),
                "{family}"
            );
            assert!(m.snapshot_messages >= 2, "{family}: {m}");
            assert!(m.snapshot_bytes > 0, "{family}: {m}");
        }
    }

    #[test]
    fn dd_online_matches_offline_across_seeds_and_jitter() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(3);
            let offline = DirectDependenceDetector::new().detect(&a, &wcp);
            for sim_seed in [0u64, 7] {
                let online = run_direct(&g.computation, &wcp, SimConfig::seeded(sim_seed), false);
                assert_eq!(
                    online.report.detection, offline.detection,
                    "seed {seed} sim_seed {sim_seed}"
                );
            }
        }
    }

    #[test]
    fn dd_parallel_detects_same_cut() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(5);
            let offline = DirectDependenceDetector::new().detect(&a, &wcp);
            let online = run_direct(&g.computation, &wcp, SimConfig::seeded(3), true);
            assert_eq!(online.report.detection, offline.detection, "seed {seed}");
        }
    }

    #[test]
    fn parallel_chain_reduces_latency_on_average() {
        let mut faster = 0usize;
        let total = 15usize;
        for seed in 0..total as u64 {
            let cfg = GeneratorConfig::new(6, 15)
                .with_seed(seed)
                .with_predicate_density(0.2)
                .with_plant(0.8);
            let g = generate(&cfg);
            let wcp = Wcp::over_first(6);
            let seq = run_direct(&g.computation, &wcp, SimConfig::seeded(5), false);
            let par = run_direct(&g.computation, &wcp, SimConfig::seeded(5), true);
            assert_eq!(seq.report.detection, par.report.detection, "seed {seed}");
            if par.outcome.time <= seq.outcome.time {
                faster += 1;
            }
        }
        assert!(
            faster * 3 >= total * 2,
            "parallel chain faster only {faster}/{total} runs"
        );
    }

    #[test]
    fn families_print_and_parse_alike() {
        for family in [
            Family::VcToken,
            Family::MultiToken { groups: 3 },
            Family::Checker,
            Family::Direct { parallel: false },
            Family::Direct { parallel: true },
        ] {
            assert_eq!(family.to_string().parse::<Family>(), Ok(family));
        }
        for bad in ["bogus", "multi", "multi:0", "multi:x"] {
            assert!(bad.parse::<Family>().is_err(), "{bad}");
        }
    }

    #[test]
    fn a_stalled_simulation_names_every_monitor_state() {
        // Silence process 1's application: its monitor never hears a
        // snapshot or end-of-trace, so every family waits on it forever,
        // and the panic must say where.
        struct Silent;
        impl Actor<DetectMsg> for Silent {
            fn on_message(
                &mut self,
                _: &mut dyn wcp_sim::Context<DetectMsg>,
                _: ActorId,
                _: DetectMsg,
            ) {
            }
        }
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        b.mark_true(p(1));
        let c = b.build().unwrap();
        for (family, rows) in [
            (
                Family::VcToken,
                &[
                    "vc[0]: queued=0 eot=true done=false no token",
                    "vc[1]: queued=0 eot=false done=false token held",
                ][..],
            ),
            (
                Family::MultiToken { groups: 2 },
                &[
                    "group[0]: queued=0 eot=true done=false no token",
                    "group[1]: queued=0 eot=false done=false token held",
                    "leader: queued=1 eot=false done=false outstanding=1 parked groups=[0]",
                ][..],
            ),
            (
                Family::Checker,
                &["checker: queued=1 eot=false done=false queue depths=[1, 0]"][..],
            ),
            (
                Family::Direct { parallel: false },
                &["dd[P0]: queued=0 eot=true", "dd[P1]: queued=0 eot=false"][..],
            ),
        ] {
            let mut layout = family.layout(&c, &Wcp::over_first(2));
            layout.actors[1].1 = Box::new(Silent);
            let stall = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simulate(layout, SimConfig::seeded(1), &RunOptions::default())
            }))
            .expect_err("the run cannot finish");
            let message = stall.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains("protocol stalled"), "{family}: {message}");
            for row in rows {
                assert!(
                    message.contains(row),
                    "{family}: {row} missing from\n{message}"
                );
            }
        }
    }
}
