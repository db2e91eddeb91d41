//! Moderate-scale stress tests: the complexity claims at sizes two orders
//! of magnitude above the unit tests, plus end-to-end sanity at scale.
//!
//! These sizes (N up to 100, m up to 100 — 10,000 events) keep debug-mode
//! runtimes in seconds while being large enough that any accidental
//! quadratic-per-process behaviour would show up as a timeout.

use wcp::detect::online::{run_online, Family};
use wcp::detect::{vc_snapshot_queues, CentralizedChecker};
use wcp::detect::{
    Detector, DirectDependenceDetector, StreamingChecker, StreamingStatus, TokenDetector,
};
use wcp::sim::SimConfig;
use wcp::trace::generate::{generate, GeneratorConfig};
use wcp::trace::Wcp;

fn big(n: usize, m: usize, seed: u64) -> wcp::trace::Computation {
    generate(
        &GeneratorConfig::new(n, m)
            .with_seed(seed)
            .with_predicate_density(0.15)
            .with_plant(0.9),
    )
    .computation
}

#[test]
fn token_detector_at_n100() {
    let c = big(100, 50, 1);
    let wcp = Wcp::over_first(100);
    let a = c.annotate();
    let report = TokenDetector::new().detect(&a, &wcp);
    let cut = report.detection.cut().expect("planted cut");
    assert!(a.is_consistent_over(cut, wcp.scope()));
    // §3.4 bounds at scale.
    let n = 100u64;
    let m1 = c.max_events_per_process() as u64 + 1;
    assert!(report.metrics.token_hops <= n * m1);
    assert!(report.metrics.total_work() <= 2 * n * n * m1);
    assert!(report.metrics.max_process_work() <= 2 * n * m1);
}

#[test]
fn direct_detector_at_n100() {
    let c = big(100, 50, 2);
    let wcp = Wcp::over_first(100);
    let a = c.annotate();
    let report = DirectDependenceDetector::new().detect(&a, &wcp);
    let cut = report.detection.cut().expect("planted cut");
    assert!(cut.is_complete());
    // §4.4 bounds at scale.
    let m1 = c.max_events_per_process() as u64 + 1;
    assert!(
        report.metrics.max_process_work() <= 4 * m1,
        "O(m) per process"
    );
    assert!(report.metrics.max_buffered_snapshots <= m1);
}

#[test]
fn agreement_at_scale() {
    let c = big(60, 60, 3);
    let a = c.annotate();
    for scope_n in [10usize, 40, 60] {
        let wcp = Wcp::over_first(scope_n);
        let token = TokenDetector::new().detect(&a, &wcp);
        let checker = CentralizedChecker::new().detect(&a, &wcp);
        let direct = DirectDependenceDetector::new().detect(&a, &wcp);
        assert_eq!(token.detection, checker.detection, "scope {scope_n}");
        match (token.detection.cut(), direct.detection.cut()) {
            (Some(t), Some(d)) => assert_eq!(wcp.project(t), wcp.project(d)),
            (None, None) => {}
            other => panic!("scope {scope_n}: {other:?}"),
        }
    }
}

#[test]
fn online_direct_at_scale() {
    let c = big(40, 40, 4);
    let wcp = Wcp::over_first(40);
    let offline = DirectDependenceDetector::new().detect(&c.annotate(), &wcp);
    let direct = Family::Direct { parallel: true };
    let online = run_online(direct, &c, &wcp, SimConfig::seeded(9));
    assert_eq!(online.report.detection, offline.detection);
}

#[test]
fn streaming_checker_at_scale() {
    let c = big(50, 80, 5);
    let wcp = Wcp::over_first(50);
    let a = c.annotate();
    let queues = vc_snapshot_queues(&a, &wcp);
    let mut checker = StreamingChecker::new(50);
    let mut detected = None;
    // Round-robin feeding across positions.
    let mut next = vec![0usize; 50];
    'outer: loop {
        let mut any = false;
        for pos in 0..50 {
            if let Some(s) = queues[pos].get(next[pos]) {
                next[pos] += 1;
                any = true;
                if let StreamingStatus::Detected(g) = checker.push(pos, s.clone()) {
                    detected = Some(g);
                    break 'outer;
                }
            }
        }
        if !any {
            break;
        }
    }
    let batch = CentralizedChecker::new().detect(&a, &wcp);
    assert_eq!(
        detected,
        batch.detection.cut().map(|cut| wcp.project(cut)),
        "streaming and batch must agree at scale"
    );
}
