//! Acceptance tests for the net subsystem: a detection run over real TCP
//! sockets on localhost yields a `Detection` bit-identical to the
//! discrete-event simulator's for the same computation — for every online
//! family, each hosting the one layout the simulator hosts, on clean links
//! and under tolerated fault schedules.
//!
//! This is the paper's uniqueness property made operational: the first
//! consistent cut satisfying a WCP is a function of the computation alone,
//! so no amount of (masked) transport nondeterminism may change it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use wcp_clocks::ProcessId;
use wcp_detect::online::{run_online, run_vc_token, simulate, Family, OnlineReport, RunOptions};
use wcp_detect::{
    audit_bounds, BoundLimits, Detection, DetectionMetrics, Detector, DirectDependenceDetector,
    TokenDetector,
};
use wcp_net::{run_multi_net, run_net, run_vc_token_net, serve_vc_peer, NetConfig, NetReport};
use wcp_obs::{merge_streams, split_by_monitor, RingRecorder, StampedEvent};
use wcp_session::{run_multi_offline, run_multi_sim, Service};
use wcp_sim::{FaultConfig, SimConfig};
use wcp_trace::generate::{generate, GeneratorConfig, Topology};
use wcp_trace::{Computation, ComputationBuilder, Wcp};

fn workload(seed: u64) -> Computation {
    generate(
        &GeneratorConfig::new(4, 10)
            .with_seed(seed)
            .with_predicate_density(0.3)
            .with_plant(0.6),
    )
    .computation
}

fn deadline() -> Duration {
    Duration::from_secs(30)
}

fn run_direct(c: &Computation, wcp: &Wcp, sim: SimConfig, parallel: bool) -> OnlineReport {
    run_online(Family::Direct { parallel }, c, wcp, sim)
}

fn run_direct_net(c: &Computation, wcp: &Wcp, parallel: bool, config: NetConfig) -> NetReport {
    let family = Family::Direct { parallel };
    run_net(family, c, wcp, config, &RunOptions::default())
}

/// The Theorem 5.1 staircase: the token circles the ring `rounds` times,
/// so every candidate passes through it and every run sends the same
/// snapshots whatever the schedule.
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

/// `metrics` without the fields that depend on the schedule even between
/// two simulator seeds: the logical `parallel_time`, which a socket run
/// has no clock for, and how many snapshots a monitor buffered at once,
/// which depends on arrival order.
fn schedule_free(metrics: &DetectionMetrics) -> DetectionMetrics {
    DetectionMetrics {
        parallel_time: 0,
        max_buffered_snapshots: 0,
        ..metrics.clone()
    }
}

/// The fault schedules every family runs under: clean links, masked
/// delay + duplicate + reorder, and drops recovered by reset and replay.
fn schedules() -> [(&'static str, Option<FaultConfig>); 3] {
    [
        ("clean", None),
        (
            "delay+duplicate+reorder",
            Some(FaultConfig::delay_duplicate_reorder(7)),
        ),
        (
            "drop+reset",
            Some(FaultConfig::seeded(9).with_drop(0.15).with_reset(0.05)),
        ),
    ]
}

#[test]
fn every_family_matches_the_simulator_on_every_substrate() {
    // Each family hosts one layout everywhere, so on the staircase (where
    // every run sends the same snapshots) a socket run reports the
    // simulator's verdict and every schedule-free metric.
    let computation = staircase(4, 6);
    let wcp = Wcp::over_all(&computation);
    for family in [
        Family::VcToken,
        Family::MultiToken { groups: 1 },
        Family::MultiToken { groups: 2 },
        Family::Checker,
    ] {
        let sim = run_online(family, &computation, &wcp, SimConfig::seeded(1)).report;
        assert!(sim.detection.is_detected(), "{family}");
        for (schedule, faults) in schedules() {
            for base in [NetConfig::loopback(), NetConfig::tcp()] {
                let config = base.with_deadline(deadline());
                let config = faults.map_or(config, |f| config.with_faults(f));
                let label = format!("{family}, {schedule}, {:?}", base.transport);
                let net = run_net(family, &computation, &wcp, config, &RunOptions::default());
                assert_eq!(net.report.detection, sim.detection, "{label}");
                assert_eq!(
                    schedule_free(&net.report.metrics),
                    schedule_free(&sim.metrics),
                    "{label}"
                );
                if schedule == "drop+reset" {
                    // A reset reconnects and replays the send log on the
                    // one thread that also hosts the receiving peer, and
                    // the run still finishes.
                    assert!(net.net.reconnects > 0, "{label}: no reset drawn");
                }
            }
        }
    }
}

#[test]
fn standalone_serve_peers_match_the_simulator() {
    // The standalone host is the one left on thread-per-connection: each
    // peer on its own thread with its own listener, like `wcp serve`
    // processes, its reader threads ringing the worker's doorbell. Every
    // peer ends with the simulator's verdict, and its monitor (scope
    // position = peer) with the simulator's work.
    let computation = staircase(4, 6);
    let wcp = Wcp::over_all(&computation);
    let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1)).report;
    for (round, (schedule, faults)) in [schedules()[0], schedules()[2]].into_iter().enumerate() {
        // Ports below the kernel's ephemeral range (32768 and up by
        // default): no listener bound to port 0 elsewhere in this binary
        // can take one before its peer binds it.
        let base = 29_000 + (std::process::id() as u16 % 256) * 8;
        let addrs: Vec<SocketAddr> = (0..4)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], base + 4 * round as u16 + i)))
            .collect();
        let config = NetConfig::tcp().with_deadline(deadline());
        let config = faults.map_or(config, |f| config.with_faults(f));
        let peers: Vec<NetReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|peer| {
                    let (computation, wcp, addrs) = (&computation, &wcp, &addrs);
                    s.spawn(move || {
                        serve_vc_peer(
                            computation,
                            wcp,
                            peer,
                            addrs,
                            config,
                            &RunOptions::default(),
                        )
                        .expect("every peer binds and dials")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (peer, net) in peers.iter().enumerate() {
            let label = format!("{schedule}, peer {peer}");
            assert_eq!(net.report.detection, sim.detection, "{label}");
            assert_eq!(
                net.report.metrics.per_process_work[peer], sim.metrics.per_process_work[peer],
                "{label}"
            );
        }
        if faults.is_some() {
            let reconnects: u64 = peers.iter().map(|p| p.net.reconnects).sum();
            assert!(reconnects > 0, "{schedule}: no reset drawn");
        }
    }
}

#[test]
fn direct_and_session_runs_match_the_simulator_under_every_schedule() {
    // The §4.5 parallel red chain: how often the token moves depends on
    // the schedule even in the simulator, but the verdict, the work and
    // the snapshot traffic do not. The session service's outcomes are a
    // function of the computation alone.
    let computation = staircase(4, 6);
    let wcp = Wcp::over_all(&computation);
    let dd_sim = run_direct(&computation, &wcp, SimConfig::seeded(1), true).report;
    let predicates: Vec<Wcp> = (1..=4).map(Wcp::over_first).collect();
    let service = Service::new(&predicates);
    let options = RunOptions::default();
    let multi_sim = run_multi_sim(&computation, &service, SimConfig::seeded(1), &options);
    let multi_offline = run_multi_offline(&computation, &predicates, &options);
    for (schedule, faults) in schedules() {
        let config = NetConfig::loopback().with_deadline(deadline());
        let config = faults.map_or(config, |f| config.with_faults(f));
        let dd = run_direct_net(&computation, &wcp, true, config);
        let (got, want) = (&dd.report.metrics, &dd_sim.metrics);
        assert_eq!(dd.report.detection, dd_sim.detection, "{schedule}, direct");
        assert_eq!(got.per_process_work, want.per_process_work, "{schedule}");
        assert_eq!(
            (got.snapshot_messages, got.snapshot_bytes),
            (want.snapshot_messages, want.snapshot_bytes),
            "{schedule}, direct"
        );
        let multi = run_multi_net(&computation, &service, config, &options);
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
fn tcp_vc_token_matches_simulator() {
    let mut detected = 0;
    for seed in 0..6u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::tcp().with_deadline(deadline()),
        );
        assert_eq!(net.report.detection, sim.report.detection, "seed {seed}");
        assert!(net.net.frames_sent > 0 && net.net.bytes_sent > 0);
        if matches!(net.report.detection, Detection::Detected { .. }) {
            detected += 1;
        }
    }
    assert!(detected > 0, "workloads never detect — test is vacuous");
}

#[test]
fn tcp_direct_matches_simulator() {
    for seed in 0..6u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_direct(&computation, &wcp, SimConfig::seeded(1), false);
        let net = run_direct_net(
            &computation,
            &wcp,
            false,
            NetConfig::tcp().with_deadline(deadline()),
        );
        assert_eq!(net.report.detection, sim.report.detection, "seed {seed}");
    }
}

#[test]
fn loopback_matches_simulator_for_both_detectors() {
    for seed in 0..8u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let vc_sim = run_vc_token(&computation, &wcp, SimConfig::seeded(2));
        let vc_net = run_vc_token_net(&computation, &wcp, NetConfig::loopback());
        assert_eq!(
            vc_net.report.detection, vc_sim.report.detection,
            "vc {seed}"
        );
        let dd_sim = run_direct(&computation, &wcp, SimConfig::seeded(2), true);
        let dd_net = run_direct_net(&computation, &wcp, true, NetConfig::loopback());
        assert_eq!(
            dd_net.report.detection, dd_sim.report.detection,
            "dd {seed}"
        );
    }
    // The structured topologies at full scope, against the offline
    // detectors.
    for (topology, i) in [
        Topology::Ring,
        Topology::ClientServer { servers: 2 },
        Topology::Neighbors { degree: 2 },
    ]
    .into_iter()
    .zip(1u64..)
    {
        for seed in 0..4u64 {
            let computation = generate(
                &GeneratorConfig::new(6, 8)
                    .with_seed(seed * 31 + i)
                    .with_topology(topology)
                    .with_predicate_density(0.3),
            )
            .computation;
            let wcp = Wcp::over_first(6);
            let annotated = computation.annotate();
            let vc = TokenDetector::new().detect(&annotated, &wcp).detection;
            let dd = DirectDependenceDetector::new()
                .detect(&annotated, &wcp)
                .detection;
            assert_eq!(
                run_vc_token_net(&computation, &wcp, NetConfig::loopback())
                    .report
                    .detection,
                vc,
                "vc {topology:?} seed {seed}"
            );
            assert_eq!(
                run_direct_net(&computation, &wcp, true, NetConfig::loopback())
                    .report
                    .detection,
                dd,
                "dd {topology:?} seed {seed}"
            );
        }
    }
    // No predicate is ever true: every detector must terminate with
    // Undetected rather than hang.
    let computation = generate(
        &GeneratorConfig::new(4, 10)
            .with_seed(3)
            .with_predicate_density(0.0),
    )
    .computation;
    let wcp = Wcp::over_first(4);
    let vc = run_vc_token_net(&computation, &wcp, NetConfig::loopback());
    assert!(!vc.report.detection.is_detected(), "vc");
    for parallel in [false, true] {
        let dd = run_direct_net(&computation, &wcp, parallel, NetConfig::loopback());
        assert!(!dd.report.detection.is_detected(), "dd parallel {parallel}");
    }
}

#[test]
fn tcp_vc_token_survives_delay_duplicate_reorder() {
    for seed in 0..4u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let faults = FaultConfig::delay_duplicate_reorder(seed);
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::tcp()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(
            net.report.detection, sim.report.detection,
            "seed {seed}: verdict changed under tolerated faults"
        );
    }
}

#[test]
fn tcp_direct_survives_delay_duplicate_reorder() {
    for seed in 0..4u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_direct(&computation, &wcp, SimConfig::seeded(1), false);
        let faults = FaultConfig::delay_duplicate_reorder(100 + seed);
        let net = run_direct_net(
            &computation,
            &wcp,
            false,
            NetConfig::tcp()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(
            net.report.detection, sim.report.detection,
            "seed {seed}: verdict changed under tolerated faults"
        );
    }
}

#[test]
fn loopback_survives_drops_and_resets_via_recovery() {
    for seed in 0..3u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let faults = FaultConfig::seeded(seed).with_drop(0.15).with_reset(0.05);
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(net.report.detection, sim.report.detection, "seed {seed}");
    }
}

#[test]
fn batched_writes_keep_the_verdict_under_faults() {
    // Coalesced writes reach the simulator's verdict under an injected
    // fault schedule: the fault layer draws one decision per frame
    // whatever the grouping of frames into writes
    // (`fault.rs::batching_consumes_the_same_fault_schedule`).
    for seed in 0..3u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let faults = FaultConfig::delay_duplicate_reorder(seed);
        let batched = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(
            batched.report.detection, sim.report.detection,
            "seed {seed}"
        );
        assert!(
            batched.net.batch_flushes < batched.net.frames_sent,
            "seed {seed}: batched run never coalesced"
        );
    }
}

#[test]
fn telemetry_never_perturbs_verdicts_metrics_or_fault_schedules() {
    // The tentpole property of the telemetry plane: turning it on changes
    // nothing observable about detection. Verdict AND paper-unit metrics
    // are bit-identical, and the injected fault schedule is untouched
    // (telemetry frames ride the un-faulted recovery path, so the fault
    // layer draws exactly the same decisions) — across clean links and
    // drop + delay + duplicate + reorder + reset schedules.
    let schedules: Vec<Option<FaultConfig>> = vec![
        None,
        Some(FaultConfig::delay_duplicate_reorder(7)),
        Some(FaultConfig::seeded(9).with_drop(0.15).with_reset(0.05)),
    ];
    for (which, faults) in schedules.into_iter().enumerate() {
        for seed in 0..3u64 {
            let computation = workload(seed);
            let wcp = Wcp::over_first(3);
            let mut config = NetConfig::loopback().with_deadline(deadline());
            if let Some(f) = &faults {
                config = config.with_faults(*f);
            }
            let off = run_vc_token_net(&computation, &wcp, config);
            let on = run_vc_token_net(&computation, &wcp, config.with_telemetry());
            assert_eq!(
                on.report.detection, off.report.detection,
                "schedule {which} seed {seed}: telemetry changed the verdict"
            );
            // The metrics a threaded run determines (the shutdown
            // broadcast races with the application tail, so the snapshot
            // counters vary run-to-run with telemetry entirely off — see
            // `fault::tests::telemetry_resends_consume_no_fault_schedule`
            // for the per-frame proof that telemetry adds nothing to
            // that pre-existing variance).
            assert_eq!(
                on.report.metrics.token_hops, off.report.metrics.token_hops,
                "schedule {which} seed {seed}: telemetry changed the token path"
            );
            assert_eq!(
                (
                    on.report.metrics.control_messages,
                    on.report.metrics.control_bytes,
                ),
                (
                    off.report.metrics.control_messages,
                    off.report.metrics.control_bytes,
                ),
                "schedule {which} seed {seed}: telemetry changed control accounting"
            );
            let collector = on.telemetry.expect("telemetry run returns its collector");
            assert!(off.telemetry.is_none(), "off run must not collect");
            assert!(
                collector.events_collected() > 0,
                "schedule {which} seed {seed}: sidecar collected nothing"
            );
            assert_eq!(collector.malformed(), 0);
        }
    }
}

#[test]
fn telemetry_collector_merges_every_peer_over_tcp() {
    let computation = workload(1);
    let wcp = Wcp::over_first(3);
    let net = run_vc_token_net(
        &computation,
        &wcp,
        NetConfig::tcp().with_deadline(deadline()).with_telemetry(),
    );
    let collector = net.telemetry.expect("collector");
    let sources = collector.source_stats();
    assert_eq!(sources.len(), 3, "one telemetry stream per peer");
    assert!(net.net.telemetry_sent > 0, "peers 1,2 framed deltas");
    assert_eq!(collector.malformed(), 0);
    let merged = collector.merged();
    assert!(!merged.is_empty());
    // The merged timeline is causally ordered: effective times never
    // decrease (TELEMETRY frames carry each stream in recording order and
    // the merge sorts by effective logical time).
    let dashboard = collector.dashboard("tcp run");
    assert!(dashboard.contains("wcp top"));
    assert!(dashboard.contains("source"));
}

#[test]
fn wire_v2_agrees_with_the_simulator_under_every_fault_schedule() {
    // The wire-v2 acceptance pin: the same computation under the same
    // fault schedule yields the simulator's verdict, while v2 measurably
    // compresses (within one run, `bytes_sent` vs the v1-equivalent
    // accounting — cross-run byte comparisons would race the shutdown
    // broadcast).
    let schedules: Vec<Option<FaultConfig>> = vec![
        None,
        Some(FaultConfig::delay_duplicate_reorder(5)),
        Some(FaultConfig::seeded(13).with_drop(0.15).with_reset(0.05)),
    ];
    for (which, faults) in schedules.into_iter().enumerate() {
        for seed in 0..3u64 {
            let computation = workload(seed);
            let wcp = Wcp::over_first(3);
            let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
            // Real sockets on the clean schedule; loopback under injected
            // faults (the fault layer is substrate-independent and the
            // TCP fault runs above already cover that axis).
            let mut config = if which == 0 {
                NetConfig::tcp()
            } else {
                NetConfig::loopback()
            }
            .with_deadline(deadline());
            if let Some(f) = &faults {
                config = config.with_faults(*f);
            }
            let v2 = run_vc_token_net(&computation, &wcp, config);
            assert_eq!(
                v2.report.detection, sim.report.detection,
                "schedule {which} seed {seed}: v2 diverged from the simulator"
            );
            assert!(
                v2.net.bytes_sent < v2.net.wire_bytes_v1_equiv,
                "schedule {which} seed {seed}: v2 did not compress ({:?})",
                v2.net
            );
            assert!(
                v2.net.keyframes_sent > 0,
                "schedule {which} seed {seed}: v2 links never keyframed"
            );
        }
    }
}

#[test]
fn paper_unit_accounting_matches_the_wire_free_simulator() {
    // `DetectionMetrics` and the bound audit count paper units via
    // `wire_size()`, never actual encoded bytes — so a v2 run that
    // compresses below its v1-equivalent must audit exactly like the
    // simulator, which has no wire at all. Only the schedule-independent
    // counters are pinned across runs (the shutdown broadcast races the
    // application tail, so raw snapshot counts vary run-to-run).
    for seed in 0..3u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let audit = |ring: &RingRecorder| {
            assert_eq!(ring.dropped(), 0, "ring too small for the audit");
            let events = ring.events();
            let streams = split_by_monitor(&events);
            let borrowed: Vec<(u32, &[StampedEvent])> =
                streams.iter().map(|(m, s)| (*m, s.as_slice())).collect();
            let merged = merge_streams(&borrowed);
            let m1 = computation.max_events_per_process() as u64 + 1;
            audit_bounds(wcp.n(), m1, &merged, &BoundLimits::exact())
        };
        let sim_ring = Arc::new(RingRecorder::new(1 << 16));
        let sim = simulate(
            Family::VcToken.layout(&computation, &wcp),
            SimConfig::seeded(1),
            &RunOptions::recorded(sim_ring.clone()),
        );
        let net_ring = Arc::new(RingRecorder::new(1 << 16));
        let net = run_net(
            Family::VcToken,
            &computation,
            &wcp,
            NetConfig::loopback().with_deadline(deadline()),
            &RunOptions::recorded(net_ring.clone()),
        );
        let (a_sim, a_net) = (audit(&sim_ring), audit(&net_ring));
        assert_eq!(
            net.report.detection, sim.report.detection,
            "seed {seed}: the wire changed the verdict"
        );
        assert!(a_net.ok(), "seed {seed}: {:?}", a_net.violations);
        assert_eq!(
            net.report.metrics.token_hops, sim.report.metrics.token_hops,
            "seed {seed}: the wire changed the token path"
        );
        assert_eq!(
            (
                net.report.metrics.control_messages,
                net.report.metrics.control_bytes,
            ),
            (
                sim.report.metrics.control_messages,
                sim.report.metrics.control_bytes,
            ),
            "seed {seed}: the wire changed paper-unit accounting"
        );
        assert_eq!(
            (a_net.n, a_net.m1, a_net.token_hops, a_net.hop_limit),
            (a_sim.n, a_sim.m1, a_sim.token_hops, a_sim.hop_limit),
            "seed {seed}: the wire changed the audited bounds"
        );
        // And the run really compressed below its own v1-equivalent
        // accounting while the audit stayed identical.
        assert!(
            net.net.bytes_sent < net.net.wire_bytes_v1_equiv,
            "seed {seed}: audit run never exercised compression"
        );
    }
}

#[test]
fn faulty_runs_actually_exercise_the_fault_machinery() {
    // Guard against a silently quiet schedule making the fault tests
    // vacuous: over a few seeds, the delay+duplicate+reorder schedule must
    // produce receiver-side dedup or resequencing work.
    let mut dups = 0;
    let mut reordered = 0;
    for seed in 0..4u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback()
                .with_faults(FaultConfig::delay_duplicate_reorder(seed))
                .with_deadline(deadline()),
        );
        dups += net.net.duplicates_dropped;
        reordered += net.net.reordered;
    }
    assert!(
        dups > 0 && reordered > 0,
        "fault schedule injected nothing (dups {dups}, reordered {reordered})"
    );
}
