//! Acceptance tests for the multi-tenant service over real transport: a
//! socket run serving `k` predicates at once yields per-predicate
//! verdicts *and* paper-unit `DetectionMetrics` bit-identical to
//!
//! 1. the offline engine fed the annotated trace directly,
//! 2. `k` independent single-predicate runs ("alone" baselines), and
//! 3. the discrete-event simulator hosting the same actors,
//!
//! on loopback and TCP, on clean links and under tolerated
//! drop + reset and delay + duplicate + reorder fault schedules. The
//! engine's canonical routed log makes each session's entire observable
//! behaviour a function of the computation alone — this suite pins that
//! the transport cannot perturb it.

use std::time::Duration;

use wcp_clocks::ProcessId;
use wcp_detect::online::RunOptions;
use wcp_net::{run_multi_net, MultiNetReport, NetConfig};
use wcp_session::{run_multi_offline, run_multi_sim, run_single_offline, MultiReport, Service};
use wcp_sim::{FaultConfig, SimConfig};
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::{Computation, Wcp};

fn workload(seed: u64, procs: usize, events: usize) -> Computation {
    generate(
        &GeneratorConfig::new(procs, events)
            .with_seed(seed)
            .with_predicate_density(0.3),
    )
    .computation
}

/// `k` deterministic predicates with diverse (non-prefix) scopes.
fn derived_predicates(n: usize, k: usize) -> Vec<Wcp> {
    (0..k)
        .map(|j| {
            let width = 1 + (j % n);
            Wcp::over((0..width).map(|i| ProcessId::new(((j * 3 + i) % n) as u32)))
        })
        .collect()
}

fn deadline() -> Duration {
    Duration::from_secs(30)
}

/// Serves `predicates` (ids `0..k`) over sockets with default options.
fn net(computation: &Computation, predicates: &[Wcp], config: NetConfig) -> MultiNetReport {
    run_multi_net(
        computation,
        &Service::new(predicates),
        config,
        &RunOptions::default(),
    )
}

/// Pins a net report against the offline reference, the wire verdicts
/// against the engine verdicts, and each outcome against its alone
/// baseline.
fn assert_multi_identical(
    computation: &Computation,
    got: &MultiReport,
    reference: &MultiReport,
    label: &str,
) {
    assert_eq!(got.outcomes.len(), reference.outcomes.len(), "{label}");
    for (g, want) in got.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(g.verdict, want.verdict, "{label} id {}", g.id);
        assert_eq!(
            g.metrics, want.metrics,
            "{label} id {}: metrics diverged from offline",
            g.id
        );
        let (alone_verdict, alone_metrics) = run_single_offline(computation, &g.wcp);
        assert_eq!(g.verdict, alone_verdict, "{label} id {}", g.id);
        assert_eq!(
            g.metrics, alone_metrics,
            "{label} id {}: metrics diverged from alone baseline",
            g.id
        );
        assert_eq!(
            got.wire_verdicts.get(&g.id),
            Some(&g.verdict.cut().map(<[u64]>::to_vec)),
            "{label} id {}: controller saw a different verdict on the wire",
            g.id
        );
    }
    assert_eq!(got.stats, reference.stats, "{label}: engine counters");
    assert_eq!(got.stored_bytes, reference.stored_bytes, "{label}");
}

#[test]
fn loopback_multi_matches_offline_and_alone() {
    for seed in 0..6u64 {
        let computation = workload(seed, 2 + (seed as usize % 4), 8);
        let n = computation.process_count();
        let predicates = derived_predicates(n, 6);
        let offline = run_multi_offline(&computation, &predicates, &RunOptions::default());
        let net = net(&computation, &predicates, NetConfig::loopback());
        assert_multi_identical(&computation, &net.report, &offline, "loopback");
        assert!(net.net.frames_sent > 0, "snapshots crossed the wire");
        assert_eq!(
            net.net.multi_sessions_active,
            predicates.len() as u64,
            "mirrored session counter"
        );
        assert_eq!(
            net.net.multi_detections, net.report.stats.detections,
            "mirrored detection counter"
        );
        assert_eq!(net.net.multi_rejected, 0, "an honest run refuses nothing");
    }
}

#[test]
fn tcp_multi_matches_offline_and_alone() {
    for seed in 0..4u64 {
        let computation = workload(seed, 3, 8);
        let predicates = derived_predicates(3, 5);
        let offline = run_multi_offline(&computation, &predicates, &RunOptions::default());
        let net = net(
            &computation,
            &predicates,
            NetConfig::tcp().with_deadline(deadline()),
        );
        assert_multi_identical(&computation, &net.report, &offline, "tcp");
    }
}

#[test]
fn multi_survives_drops_and_resets_via_recovery() {
    for seed in 0..3u64 {
        let computation = workload(seed, 4, 8);
        let predicates = derived_predicates(4, 5);
        let offline = run_multi_offline(&computation, &predicates, &RunOptions::default());
        let faults = FaultConfig::seeded(seed).with_drop(0.15).with_reset(0.05);
        let net = net(
            &computation,
            &predicates,
            NetConfig::loopback()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_multi_identical(&computation, &net.report, &offline, "drop+reset");
    }
}

#[test]
fn tcp_multi_survives_delay_duplicate_reorder() {
    for seed in 0..3u64 {
        let computation = workload(seed, 3, 8);
        let predicates = derived_predicates(3, 5);
        let offline = run_multi_offline(&computation, &predicates, &RunOptions::default());
        let faults = FaultConfig::delay_duplicate_reorder(200 + seed);
        let net = net(
            &computation,
            &predicates,
            NetConfig::tcp()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_multi_identical(&computation, &net.report, &offline, "ddr");
    }
}

#[test]
fn unregistration_is_transport_independent() {
    // Registrations 0..5 with ids 10..15, then ids 11 and 13 unregister
    // mid-run: the surviving sessions must be untouched, identically on
    // the simulator and over sockets (clean and faulted).
    for seed in 0..3u64 {
        let computation = workload(seed, 4, 10);
        let predicates = derived_predicates(4, 5);
        let service = Service {
            registrations: predicates
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, w)| (10 + i as u64, w))
                .collect(),
            unregister: vec![11, 13],
        };
        // The sim leg pumps with the parallel pump (2 workers):
        // transport-independence must hold across pump modes too.
        let two = RunOptions {
            pump_threads: 2,
            ..RunOptions::default()
        };
        let sim = run_multi_sim(&computation, &service, SimConfig::seeded(seed), &two);
        for (label, config) in [
            ("loopback", NetConfig::loopback()),
            (
                "faulted",
                NetConfig::loopback()
                    .with_faults(FaultConfig::delay_duplicate_reorder(seed))
                    .with_deadline(deadline()),
            ),
        ] {
            let net = run_multi_net(&computation, &service, config, &RunOptions::default());
            assert_eq!(
                net.report.outcomes.len(),
                3,
                "{label} seed {seed}: two sessions unregistered"
            );
            for (g, want) in net.report.outcomes.iter().zip(&sim.outcomes) {
                assert_eq!(g.id, want.id, "{label} seed {seed}");
                assert_eq!(g.verdict, want.verdict, "{label} seed {seed} id {}", g.id);
                assert_eq!(g.metrics, want.metrics, "{label} seed {seed} id {}", g.id);
            }
        }
    }
}

#[test]
fn parallel_pump_service_is_bit_identical_over_sockets() {
    // The socket service pumping with 4 sharded workers must be
    // indistinguishable from the serial-pump socket run and from the
    // offline reference — on clean and faulted links.
    for seed in 0..3u64 {
        let computation = workload(seed, 4, 10);
        let predicates = derived_predicates(4, 6);
        let offline = run_multi_offline(&computation, &predicates, &RunOptions::default());
        let four = RunOptions {
            pump_threads: 4,
            ..RunOptions::default()
        };
        for (label, config) in [
            ("parallel", NetConfig::loopback()),
            (
                "parallel+faults",
                NetConfig::loopback()
                    .with_faults(FaultConfig::delay_duplicate_reorder(seed))
                    .with_deadline(deadline()),
            ),
        ] {
            let net = run_multi_net(&computation, &Service::new(&predicates), config, &four);
            assert_multi_identical(&computation, &net.report, &offline, label);
        }
    }
}
