//! Pins the offline token walks to the simulated ones.
//!
//! `TokenDetector` and the online `VcMonitor`, and `MultiTokenDetector`
//! and the online group monitors and leader, run one Figure 3 visit, one
//! routing rule and one §3.5 merge. So past the cut they also agree on
//! every cost counter the walk decides: per-process work, token hops,
//! control messages and control bytes.
//!
//! - The single token agrees on every run.
//! - The groups agree on detected runs, and on every run with one group.
//!   With more groups an undetected online run keeps walking the other
//!   groups until the stop reaches them, where the emulation stops at
//!   once, so those runs are left out.
//! - One group walks exactly like the single token; its control traffic
//!   adds the leader's dispatch and, when the walk completes, the return.
//!
//! `DirectDependenceDetector` and the online §4 monitors run one Figure 4
//! collect loop and one Figure 5 transition, so the sequential red chain
//! agrees on the same counters on every run. The §4.5 parallel chain
//! searches ahead of the token, so it agrees on the verdict only.

use std::sync::Arc;

use wcp_clocks::ProcessId;
use wcp_detect::online::{run_online, run_vc_token, simulate, Family, RunOptions};
use wcp_detect::{
    CentralizedChecker, DetectionMetrics, Detector, DirectDependenceDetector, HierarchicalChecker,
    LatticeDetector, MultiTokenDetector, ParallelDetector, TokenDetector,
};
use wcp_obs::{RingRecorder, TraceEvent};
use wcp_sim::SimConfig;
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::{Computation, Wcp};

const SEEDS: u64 = 60;

/// Per seed: a 6 × 12 run (planted cut on even seeds, so both verdicts
/// occur) under its full scope and a narrow one, with a uniform-latency
/// network seed.
fn cases() -> impl Iterator<Item = (String, Computation, Wcp, SimConfig)> {
    (0..SEEDS).flat_map(|seed| {
        let mut cfg = GeneratorConfig::new(6, 12)
            .with_seed(seed)
            .with_predicate_density(0.3);
        if seed % 2 == 0 {
            cfg = cfg.with_plant(0.8);
        }
        let c = generate(&cfg).computation;
        let narrow = Wcp::over([1, 3, 4].map(ProcessId::new));
        [(Wcp::over_all(&c), "full"), (narrow, "narrow")]
            .into_iter()
            .map(move |(wcp, label)| {
                let sim = SimConfig::seeded(seed * 7 + 1);
                (format!("seed {seed} {label}"), c.clone(), wcp, sim)
            })
    })
}

/// The counters a walk decides beyond the cut.
fn costs(m: &DetectionMetrics) -> (Vec<u64>, u64, u64, u64) {
    (
        m.per_process_work.clone(),
        m.token_hops,
        m.control_messages,
        m.control_bytes,
    )
}

#[test]
fn token_detector_costs_equal_the_simulated_token_on_every_run() {
    for (label, c, wcp, sim) in cases() {
        let offline = TokenDetector::new().detect(&c.annotate(), &wcp);
        let online = run_vc_token(&c, &wcp, sim).report;
        assert_eq!(online.detection, offline.detection, "{label}");
        assert_eq!(costs(&online.metrics), costs(&offline.metrics), "{label}");
    }
}

#[test]
fn multi_token_detector_costs_equal_the_simulated_groups() {
    let mut detected = 0;
    for (label, c, wcp, sim) in cases() {
        let annotated = c.annotate();
        for groups in 1..=4 {
            let offline = MultiTokenDetector::new(groups).detect(&annotated, &wcp);
            let online = run_online(Family::MultiToken { groups }, &c, &wcp, sim.clone()).report;
            assert_eq!(online.detection, offline.detection, "{label} g {groups}");
            if offline.detection.is_detected() || groups.min(wcp.n()) == 1 {
                assert_eq!(
                    costs(&online.metrics),
                    costs(&offline.metrics),
                    "{label} g {groups}"
                );
                detected += u64::from(groups > 1);
            }
        }
    }
    assert!(
        detected >= SEEDS,
        "only {detected} detected multi-group runs"
    );
}

#[test]
fn direct_detector_costs_equal_the_simulated_red_chain() {
    for (label, c, wcp, sim) in cases() {
        let offline = DirectDependenceDetector::new().detect(&c.annotate(), &wcp);
        let online = run_online(Family::Direct { parallel: false }, &c, &wcp, sim.clone()).report;
        assert_eq!(online.detection, offline.detection, "{label}");
        assert_eq!(costs(&online.metrics), costs(&offline.metrics), "{label}");
        let parallel = run_online(Family::Direct { parallel: true }, &c, &wcp, sim).report;
        assert_eq!(parallel.detection, offline.detection, "{label} parallel");
    }
}

#[test]
fn one_group_walks_like_the_single_token() {
    for (label, c, wcp, _) in cases() {
        let annotated = c.annotate();
        let token = TokenDetector::new().detect(&annotated, &wcp);
        let multi = MultiTokenDetector::new(1).detect(&annotated, &wcp);
        let n = wcp.n();
        assert_eq!(multi.detection, token.detection, "{label}");
        assert_eq!(
            multi.metrics.per_process_work[..n],
            token.metrics.per_process_work[..],
            "{label}"
        );
        assert_eq!(
            multi.metrics.token_hops, token.metrics.token_hops,
            "{label}"
        );
        let returned = u64::from(token.detection.is_detected());
        assert_eq!(
            multi.metrics.control_messages,
            token.metrics.control_messages + 1 + returned,
            "{label}"
        );
    }
}

/// The `DetectionFound` payload is the cut's scope projection for every
/// vector-clock detector, offline as online.
#[test]
fn detection_found_is_scope_indexed() {
    let found = |ring: &RingRecorder| {
        ring.events().iter().find_map(|e| match &e.event {
            TraceEvent::DetectionFound { cut } => Some(cut.clone()),
            _ => None,
        })
    };
    let c = generate(
        &GeneratorConfig::new(5, 6)
            .with_seed(3)
            .with_predicate_density(0.4)
            .with_plant(0.8),
    )
    .computation;
    let annotated = c.annotate();
    let wcp = Wcp::over([1, 3].map(ProcessId::new));
    let ring = Arc::new(RingRecorder::new(1 << 12));
    simulate(
        Family::VcToken.layout(&c, &wcp),
        SimConfig::seeded(1),
        &RunOptions::recorded(ring.clone()),
    );
    let online = found(&ring).expect("the online run detects");
    assert_eq!(online.len(), wcp.n());

    type Build = fn(Arc<RingRecorder>) -> Box<dyn Detector>;
    let offline: [(&str, Build); 6] = [
        ("token", |r| Box::new(TokenDetector::new().with_recorder(r))),
        ("multi", |r| {
            Box::new(MultiTokenDetector::new(2).with_recorder(r))
        }),
        ("checker", |r| {
            Box::new(CentralizedChecker::new().with_recorder(r))
        }),
        ("parallel", |r| {
            Box::new(ParallelDetector::new().with_recorder(r))
        }),
        ("hierarchical", |r| {
            Box::new(HierarchicalChecker::new(2).with_recorder(r))
        }),
        ("lattice", |r| {
            Box::new(LatticeDetector::new().with_recorder(r))
        }),
    ];
    for (name, build) in offline {
        let ring = Arc::new(RingRecorder::new(1 << 12));
        let report = build(ring.clone()).detect(&annotated, &wcp);
        let cut = report.detection.cut().expect("detected");
        assert_eq!(found(&ring), Some(wcp.project(cut)), "{name}");
        assert_eq!(found(&ring), Some(online.clone()), "{name}");
    }
}
