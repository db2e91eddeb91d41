//! Cross-crate agreement suite: every detector family — offline emulations,
//! online simulated actors, and the lattice ground truth — must report the
//! same detection verdict and the same scope projection of the first
//! satisfying cut, on randomized computations (Theorems 3.2, 4.3,
//! 4.4 of the paper). Cases are drawn from fixed seeds via
//! `wcp::obs::rng::Rng`, so failures reproduce exactly.

use wcp::detect::online::{run_online, run_vc_token, Family};
use wcp::detect::{
    CentralizedChecker, Detection, Detector, DirectDependenceDetector, LatticeDetector,
    MultiTokenDetector, TokenDetector,
};
use wcp::obs::rng::Rng;
use wcp::sim::{LatencyModel, SimConfig};
use wcp::trace::generate::{generate, GeneratorConfig, Topology};
use wcp::trace::Wcp;

const CASES: usize = 48;

fn rand_config(rng: &mut Rng) -> GeneratorConfig {
    let n = rng.gen_range(2usize..6);
    let m = rng.gen_range(2usize..10);
    let topo = match rng.gen_range(0u32..3) {
        0 => Topology::Uniform,
        1 => Topology::Ring,
        _ => Topology::Neighbors {
            degree: rng.gen_range(1usize..3),
        },
    };
    let mut cfg = GeneratorConfig::new(n, m)
        .with_seed(rng.next_u64())
        .with_send_fraction(0.2 + rng.gen_f64() * 0.7)
        .with_predicate_density(0.05 + rng.gen_f64() * 0.45)
        .with_topology(topo);
    if rng.gen_bool(0.5) {
        cfg = cfg.with_plant(rng.gen_f64());
    }
    cfg
}

/// Extracts the scope projection, or `None` if undetected.
fn projected(wcp: &Wcp, detection: &Detection) -> Option<Vec<u64>> {
    detection.cut().map(|c| wcp.project(c))
}

/// All offline detectors agree with the ground truth, for full and partial
/// scopes.
#[test]
fn offline_families_agree() {
    let mut rng = Rng::seed_from_u64(31);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let scope_n = rng.gen_range(1usize..6);
        let g = generate(&cfg);
        let annotated = g.computation.annotate();
        let n = g.computation.process_count();
        let wcp = Wcp::over_first(scope_n.min(n));

        let truth = annotated
            .first_satisfying_cut(&wcp)
            .map(|c| wcp.project(&c));

        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(CentralizedChecker::new()),
            Box::new(TokenDetector::new().with_invariant_checks()),
            Box::new(TokenDetector::new().with_start(wcp.n() - 1)),
            Box::new(MultiTokenDetector::new(2)),
            Box::new(MultiTokenDetector::new(3)),
            Box::new(DirectDependenceDetector::new().with_invariant_checks()),
        ];
        for d in &detectors {
            let report = d.detect(&annotated, &wcp);
            assert_eq!(
                projected(&wcp, &report.detection),
                truth,
                "{} disagrees with ground truth on {cfg:?}",
                d.name()
            );
        }
    }
}

/// The lattice baseline (budgeted) agrees when it fits the budget.
#[test]
fn lattice_agrees_when_feasible() {
    let mut rng = Rng::seed_from_u64(32);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let g = generate(&cfg);
        // Only explore small instances exhaustively.
        if g.computation.process_count() > 4 || g.computation.max_events_per_process() > 6 {
            continue;
        }
        let annotated = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        let truth = annotated.first_satisfying_full_cut(&wcp);
        let lattice = LatticeDetector::new().detect(&annotated, &wcp);
        assert_eq!(lattice.detection.cut().cloned(), truth, "{cfg:?}");
    }
}

/// Online (simulated) runs agree with offline, under different network
/// seeds and heavy jitter.
#[test]
fn online_agrees_with_offline() {
    let mut rng = Rng::seed_from_u64(33);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let scope_n = rng.gen_range(1usize..6);
        let net_seed = rng.next_u64();
        let g = generate(&cfg);
        let n = g.computation.process_count();
        let wcp = Wcp::over_first(scope_n.min(n));
        let annotated = g.computation.annotate();
        let offline_vc = TokenDetector::new().detect(&annotated, &wcp);
        let offline_dd = DirectDependenceDetector::new().detect(&annotated, &wcp);

        let sim_cfg =
            SimConfig::seeded(net_seed).with_latency(LatencyModel::Uniform { min: 1, max: 25 });
        let online_vc = run_vc_token(&g.computation, &wcp, sim_cfg.clone());
        assert_eq!(
            &online_vc.report.detection, &offline_vc.detection,
            "{cfg:?}"
        );

        let multi = Family::MultiToken { groups: 2 };
        let online_mt = run_online(multi, &g.computation, &wcp, sim_cfg.clone());
        assert_eq!(
            &online_mt.report.detection, &offline_vc.detection,
            "{cfg:?}"
        );

        for parallel in [false, true] {
            let direct = Family::Direct { parallel };
            let online_dd = run_online(direct, &g.computation, &wcp, sim_cfg.clone());
            assert_eq!(
                &online_dd.report.detection, &offline_dd.detection,
                "{cfg:?}"
            );
        }
    }
}

/// The direct-dependence algorithm's full cut projects to the vector-clock
/// algorithm's scope cut, and is itself consistent.
#[test]
fn dd_full_cut_extends_scope_cut() {
    let mut rng = Rng::seed_from_u64(34);
    for _ in 0..CASES {
        let cfg = rand_config(&mut rng);
        let scope_n = rng.gen_range(1usize..6);
        let g = generate(&cfg);
        let n = g.computation.process_count();
        let wcp = Wcp::over_first(scope_n.min(n));
        let annotated = g.computation.annotate();
        let vc = TokenDetector::new().detect(&annotated, &wcp);
        let dd = DirectDependenceDetector::new().detect(&annotated, &wcp);
        match (vc.detection.cut(), dd.detection.cut()) {
            (Some(vcut), Some(dcut)) => {
                assert_eq!(wcp.project(vcut), wcp.project(dcut), "{cfg:?}");
                assert!(dcut.is_complete());
                assert!(annotated.is_consistent(dcut));
                assert!(wcp.holds_on(&g.computation, dcut));
            }
            (None, None) => {}
            other => panic!("existence disagreement on {cfg:?}: {other:?}"),
        }
    }
}
