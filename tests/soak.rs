//! Soak tests: broad randomized sweeps across every topology, scope size,
//! algorithm family, and substrate. The quick variant runs in the normal
//! suite; the heavy variant (hundreds of configurations) is `#[ignore]`d —
//! run it with `cargo test --release -- --ignored`.

use wcp::detect::online::{run_online, run_vc_token, Family};
use wcp::detect::{
    CentralizedChecker, Detector, DirectDependenceDetector, MultiTokenDetector, TokenDetector,
};
use wcp::sim::SimConfig;
use wcp::trace::generate::{generate, GeneratorConfig, Topology};
use wcp::trace::Wcp;

fn topologies() -> Vec<Topology> {
    vec![
        Topology::Uniform,
        Topology::Ring,
        Topology::ClientServer { servers: 2 },
        Topology::Neighbors { degree: 2 },
        Topology::Phased { phase_len: 2 },
    ]
}

/// One configuration: every offline family agrees with ground truth, and
/// one online run agrees too.
fn check_config(n: usize, m: usize, seed: u64, topology: Topology, scope_n: usize, online: bool) {
    let cfg = GeneratorConfig::new(n, m)
        .with_seed(seed)
        .with_topology(topology)
        .with_predicate_density(0.25);
    let g = generate(&cfg);
    let annotated = g.computation.annotate();
    let wcp = Wcp::over_first(scope_n.min(n));
    let truth = annotated
        .first_satisfying_cut(&wcp)
        .map(|c| wcp.project(&c));

    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(CentralizedChecker::new()),
        Box::new(TokenDetector::new()),
        Box::new(MultiTokenDetector::new(2)),
        Box::new(DirectDependenceDetector::new()),
    ];
    for d in &detectors {
        let got = d.detect(&annotated, &wcp);
        assert_eq!(
            got.detection.cut().map(|c| wcp.project(c)),
            truth,
            "{} n={n} m={m} seed={seed} {topology:?} scope={scope_n}",
            d.name()
        );
    }
    if online {
        let vc = run_vc_token(&g.computation, &wcp, SimConfig::seeded(seed));
        assert_eq!(vc.report.detection.cut().map(|c| wcp.project(c)), truth);
        let direct = Family::Direct {
            parallel: seed.is_multiple_of(2),
        };
        let dd = run_online(direct, &g.computation, &wcp, SimConfig::seeded(seed));
        assert_eq!(dd.report.detection.cut().map(|c| wcp.project(c)), truth);
    }
}

#[test]
fn quick_soak() {
    for (i, topology) in topologies().into_iter().enumerate() {
        for seed in 0..3u64 {
            check_config(5, 8, seed * 17 + i as u64, topology, 4, seed == 0);
        }
    }
}

#[test]
#[ignore = "heavy: hundreds of configurations; run with --release -- --ignored"]
fn heavy_soak() {
    let mut configs = 0u32;
    for topology in topologies() {
        for n in [3usize, 6, 10] {
            for m in [5usize, 15, 40] {
                for seed in 0..4u64 {
                    for scope_n in [2usize, n / 2 + 1, n] {
                        let online = configs.is_multiple_of(7);
                        check_config(n, m, seed * 101 + configs as u64, topology, scope_n, online);
                        configs += 1;
                    }
                }
            }
        }
    }
    assert!(configs >= 500, "expected a broad sweep, got {configs}");
}
