//! Wiring: build a simulation hosting application and monitor actors, run
//! it, and translate the outcome into a [`DetectionReport`].

use std::sync::{Arc, Mutex};

use wcp_clocks::ProcessId;
use wcp_obs::{NullRecorder, Recorder};
use wcp_sim::{Actor, ActorId, SimConfig, SimOutcome, Simulation};
use wcp_trace::{Computation, Wcp};

use crate::detector::{Detection, DetectionReport};
use crate::metrics::DetectionMetrics;
use crate::online::app::{AppProcess, ClockMode};
use crate::online::dd_monitor::DdMonitor;
use crate::online::messages::DetectMsg;
use crate::online::vc_monitor::{
    OnlineDetection, OnlineStats, SharedOutcome, SharedStats, VcMonitor,
};

/// A [`DetectionReport`] plus the simulation outcome (notably the simulated
/// end time — the online detection-latency measure).
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Detection result and paper-unit metrics.
    pub report: DetectionReport,
    /// Raw simulation outcome.
    pub outcome: SimOutcome,
}

/// Runs the Section 3 single-token algorithm online.
///
/// Builds one application actor per process and one monitor per scope
/// process, with FIFO application→monitor channels (the paper's only FIFO
/// requirement), runs the simulation to quiescence, and reports.
///
/// # Panics
///
/// Panics if the scope is empty or the computation is invalid.
pub fn run_vc_token(computation: &Computation, wcp: &Wcp, sim_config: SimConfig) -> OnlineReport {
    run_vc_token_recorded(computation, wcp, sim_config, Arc::new(NullRecorder))
}

/// [`run_vc_token`] with an attached [`Recorder`]: the simulator streams
/// [`wcp_obs::TraceEvent::MessageDelivered`] hops and each monitor streams
/// its protocol events (token moves, candidate verdicts, buffered
/// snapshots), all stamped with simulated time.
///
/// # Panics
///
/// Panics if the scope is empty or the computation is invalid.
pub fn run_vc_token_recorded(
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
    recorder: Arc<dyn Recorder>,
) -> OnlineReport {
    let n = wcp.n();
    assert!(n >= 1, "WCP scope must name at least one process");
    let monitors = actor_ids(computation.process_count(), n);
    simulate(
        computation,
        wcp,
        ClockMode::Vector,
        sim_config,
        recorder.clone(),
        false,
        |result, stats| {
            (0..n)
                .map(|pos| {
                    let monitor = VcMonitor::new(
                        pos,
                        n,
                        monitors.clone(),
                        pos == 0,
                        result.clone(),
                        stats.clone(),
                    );
                    Box::new(monitor.with_recorder(recorder.clone())) as Box<dyn Actor<DetectMsg>>
                })
                .collect()
        },
    )
}

/// Runs the Section 4 direct-dependence algorithm online; `parallel`
/// enables the Section 4.5 proactive red-chain variant.
///
/// All `N` processes get monitors.
///
/// # Panics
///
/// Panics if the computation has no processes or is invalid.
pub fn run_direct(
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
    parallel: bool,
) -> OnlineReport {
    run_direct_recorded(
        computation,
        wcp,
        sim_config,
        parallel,
        Arc::new(NullRecorder),
    )
}

/// [`run_direct`] with an attached [`Recorder`]: the simulator streams
/// message-delivery hops and each monitor streams its protocol events
/// (polls, red-chain hops, candidate verdicts), stamped with simulated
/// time.
///
/// # Panics
///
/// Panics if the computation has no processes or is invalid.
pub fn run_direct_recorded(
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
    parallel: bool,
    recorder: Arc<dyn Recorder>,
) -> OnlineReport {
    let n_total = computation.process_count();
    assert!(n_total >= 1, "computation must have at least one process");
    let monitors = actor_ids(n_total, n_total);
    let g_board = Arc::new(Mutex::new(vec![0u64; n_total]));
    simulate(
        computation,
        wcp,
        ClockMode::Scalar,
        sim_config,
        recorder.clone(),
        false,
        |result, stats| {
            ProcessId::all(n_total)
                .map(|p| {
                    let monitor = DdMonitor::new(
                        p,
                        n_total,
                        monitors.clone(),
                        parallel,
                        g_board.clone(),
                        result.clone(),
                        stats.clone(),
                    );
                    Box::new(monitor.with_recorder(recorder.clone())) as Box<dyn Actor<DetectMsg>>
                })
                .collect()
        },
    )
}

/// Actor ids `first..first + count`.
pub(crate) fn actor_ids(first: usize, count: usize) -> Vec<ActorId> {
    (first..first + count)
        .map(|i| ActorId::new(i as u32))
        .collect()
}

/// Builds, runs and reports one simulated detection.
///
/// Application actors take ids `0..N`; the actors `monitors` returns take
/// the ids after them, in order. The monitored processes are the scope in
/// [`ClockMode::Vector`] runs (Section 3) and every process in
/// [`ClockMode::Scalar`] runs (Section 4). Each streams its snapshots over
/// a FIFO channel to its mate: the monitor at its own position, or the
/// first monitor for every process when `central` (the centralized
/// checker). A verdict's entries are indexed by monitored position.
///
/// # Panics
///
/// Panics with the monitors' stall table if the run ends without a
/// verdict.
pub(crate) fn simulate(
    computation: &Computation,
    wcp: &Wcp,
    mode: ClockMode,
    sim_config: SimConfig,
    recorder: Arc<dyn Recorder>,
    central: bool,
    monitors: impl FnOnce(&SharedOutcome, &SharedStats) -> Vec<Box<dyn Actor<DetectMsg>>>,
) -> OnlineReport {
    let n_total = computation.process_count();
    let (monitored, app_payload_bytes) = match mode {
        ClockMode::Vector => (wcp.clone(), 8 + 8 * wcp.n() as u64), // MsgId + scope-width vector
        ClockMode::Scalar => (Wcp::over_first(n_total), 16),        // MsgId + scalar tag
    };
    let mate = |pos: usize| ActorId::new((n_total + if central { 0 } else { pos }) as u32);
    let apps = actor_ids(0, n_total);
    let mut config = sim_config;
    for (pos, &p) in monitored.scope().iter().enumerate() {
        config = config.with_fifo_channel(apps[p.index()], mate(pos));
    }

    let result: SharedOutcome = Arc::default();
    let stats: SharedStats = Arc::default();
    let mut sim = Simulation::new(config);
    sim.set_recorder(recorder);
    for p in ProcessId::all(n_total) {
        let monitor = monitored.position(p).map(mate);
        sim.add_actor(Box::new(AppProcess::new(
            computation,
            wcp,
            p,
            mode,
            apps.clone(),
            monitor,
        )));
    }
    let monitors = monitors(&result, &stats);
    let monitor_ids = actor_ids(n_total, monitors.len());
    for monitor in monitors {
        sim.add_actor(monitor);
    }

    let outcome = sim.run();
    let detection = match result.lock().unwrap().take() {
        Some(OnlineDetection::Detected(g)) => Detection::Detected {
            cut: monitored.lift(&g, n_total),
        },
        Some(OnlineDetection::Undetected) => Detection::Undetected,
        None => panic!(
            "simulation quiesced without a verdict (protocol stalled)\n{}",
            stats.lock().unwrap().stall_report()
        ),
    };
    let metrics = collect_metrics(
        &sim,
        computation,
        &monitor_ids,
        monitored.n() as u64,
        &stats.lock().unwrap(),
        &outcome,
        app_payload_bytes,
    );
    OnlineReport {
        report: DetectionReport { detection, metrics },
        outcome,
    }
}

/// Translates simulator counters into paper-unit [`DetectionMetrics`].
///
/// Application actors send script messages, snapshots, and end-of-trace
/// markers (one per monitored process); the script traffic (whose size
/// per message is fixed by the clock mode) and the 1-byte markers are
/// subtracted to isolate snapshot traffic. Every non-application actor
/// is a participant; application actors are `0..N`.
fn collect_metrics(
    sim: &Simulation<DetectMsg>,
    computation: &Computation,
    monitors: &[ActorId],
    eot_count: u64,
    stats: &OnlineStats,
    outcome: &SimOutcome,
    app_payload_bytes: u64,
) -> DetectionMetrics {
    let mut metrics = DetectionMetrics::new(monitors.len());
    let sim_metrics = sim.metrics();
    for (i, &m) in monitors.iter().enumerate() {
        let a = sim_metrics.actor(m);
        metrics.per_process_work[i] = a.work;
        metrics.control_messages += a.sent;
        metrics.control_bytes += a.bytes_sent;
    }
    let mut app_sent = 0u64;
    let mut app_bytes = 0u64;
    for a in 0..computation.process_count() {
        let m = sim_metrics.actor(ActorId::new(a as u32));
        app_sent += m.sent;
        app_bytes += m.bytes_sent;
    }
    let script_msgs = computation.total_messages() as u64;
    metrics.snapshot_messages = app_sent.saturating_sub(script_msgs + eot_count);
    metrics.snapshot_bytes = app_bytes.saturating_sub(script_msgs * app_payload_bytes + eot_count);
    metrics.token_hops = stats.token_hops;
    metrics.max_buffered_snapshots = stats.max_buffered;
    metrics.parallel_time = outcome.time.0;
    metrics
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
        use crate::online::{run_checker, run_multi_token};
        let cfg = GeneratorConfig::new(4, 10).with_seed(5);
        let wcp = Wcp::over_first(4);
        let runs = |c: &Computation| {
            [
                ("token", run_vc_token(c, &wcp, SimConfig::seeded(1))),
                ("multi", run_multi_token(c, &wcp, SimConfig::seeded(1), 2)),
                ("checker", run_checker(c, &wcp, SimConfig::seeded(1))),
            ]
        };
        // No pred-true interval, no snapshot: end-of-trace markers are not
        // snapshots.
        let empty = generate(&cfg.clone().with_predicate_density(0.0)).computation;
        for (name, run) in runs(&empty) {
            let m = &run.report.metrics;
            assert_eq!(run.report.detection, Detection::Undetected, "{name}");
            assert_eq!((m.snapshot_messages, m.snapshot_bytes), (0, 0), "{name}");
        }
        let planted = generate(&cfg.with_predicate_density(0.3).with_plant(0.9)).computation;
        for (name, run) in runs(&planted) {
            let m = &run.report.metrics;
            assert!(run.report.detection.cut().is_some(), "{name}");
            assert!(m.snapshot_messages > 0 && m.snapshot_bytes > 0, "{name}");
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
}

/// [`Detector`]-trait adapters over the online runners, so experiment code
/// can mix offline emulations and online simulations behind one interface.
pub mod adapters {
    use wcp_trace::{AnnotatedComputation, Wcp};

    use crate::detector::{DetectionReport, Detector};
    use crate::online::harness::{run_direct, run_vc_token};
    use crate::online::multi_token::run_multi_token;
    use wcp_sim::SimConfig;

    /// The Section 3 token algorithm over the simulated network.
    #[derive(Debug, Clone)]
    pub struct OnlineTokenDetector {
        config: SimConfig,
    }

    impl OnlineTokenDetector {
        /// Online token detector over the given network.
        pub fn new(config: SimConfig) -> Self {
            OnlineTokenDetector { config }
        }
    }

    impl Detector for OnlineTokenDetector {
        fn name(&self) -> &str {
            "token(sim)"
        }
        fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
            run_vc_token(annotated.computation(), wcp, self.config.clone()).report
        }
    }

    /// The Section 4 direct-dependence algorithm over the simulated
    /// network, optionally with the §4.5 parallel red chain.
    #[derive(Debug, Clone)]
    pub struct OnlineDirectDetector {
        config: SimConfig,
        parallel: bool,
    }

    impl OnlineDirectDetector {
        /// Online direct-dependence detector over the given network.
        pub fn new(config: SimConfig, parallel: bool) -> Self {
            OnlineDirectDetector { config, parallel }
        }
    }

    impl Detector for OnlineDirectDetector {
        fn name(&self) -> &str {
            if self.parallel {
                "direct∥(sim)"
            } else {
                "direct(sim)"
            }
        }
        fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
            run_direct(
                annotated.computation(),
                wcp,
                self.config.clone(),
                self.parallel,
            )
            .report
        }
    }

    /// The Section 3.5 multi-token algorithm over the simulated network.
    #[derive(Debug, Clone)]
    pub struct OnlineMultiTokenDetector {
        config: SimConfig,
        groups: usize,
    }

    impl OnlineMultiTokenDetector {
        /// Online multi-token detector with `groups` tokens.
        ///
        /// # Panics
        ///
        /// Panics if `groups == 0`.
        pub fn new(config: SimConfig, groups: usize) -> Self {
            assert!(groups >= 1, "need at least one group");
            OnlineMultiTokenDetector { config, groups }
        }
    }

    impl Detector for OnlineMultiTokenDetector {
        fn name(&self) -> &str {
            "multi-token(sim)"
        }
        fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
            run_multi_token(
                annotated.computation(),
                wcp,
                self.config.clone(),
                self.groups,
            )
            .report
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{Detector, TokenDetector};
        use wcp_trace::generate::{generate, GeneratorConfig};

        #[test]
        fn adapters_run_behind_the_trait() {
            let g = generate(
                &GeneratorConfig::new(4, 8)
                    .with_seed(2)
                    .with_predicate_density(0.3)
                    .with_plant(0.7),
            );
            let annotated = g.computation.annotate();
            let wcp = wcp_trace::Wcp::over_first(4);
            let expected = TokenDetector::new().detect(&annotated, &wcp).detection;
            let detectors: Vec<Box<dyn Detector>> = vec![
                Box::new(OnlineTokenDetector::new(SimConfig::seeded(1))),
                Box::new(OnlineDirectDetector::new(SimConfig::seeded(1), false)),
                Box::new(OnlineDirectDetector::new(SimConfig::seeded(1), true)),
                Box::new(OnlineMultiTokenDetector::new(SimConfig::seeded(1), 2)),
            ];
            for d in &detectors {
                let r = d.detect(&annotated, &wcp);
                assert_eq!(r.detection, expected, "{}", d.name());
                assert!(!d.name().is_empty());
            }
        }
    }
}
