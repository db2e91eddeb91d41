//! Integration tests for generalized conjunctive predicates: termination
//! detection semantics and agreement with exhaustive lattice search.

use wcp::clocks::ProcessId;
use wcp::detect::{ChannelPredicate, ChannelTerm, Gcp, GcpChecker};
use wcp::obs::rng::Rng;
use wcp::trace::channel::{ChannelId, ChannelIndex};
use wcp::trace::generate::{generate, GeneratorConfig};
use wcp::trace::lattice::LatticeExplorer;
use wcp::trace::Wcp;

/// Termination GCP: all local predicates plus "empty" on every used channel.
fn termination_gcp(computation: &wcp::trace::Computation) -> Gcp {
    let index = ChannelIndex::new(computation);
    let terms: Vec<ChannelTerm> = index
        .channels()
        .map(|channel| ChannelTerm {
            channel,
            predicate: ChannelPredicate::Empty,
        })
        .collect();
    Gcp::new(Wcp::over_all(computation), terms)
}

#[test]
fn termination_cut_is_always_quiescent() {
    for seed in 0..25 {
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(seed)
                .with_predicate_density(0.5),
        );
        let gcp = termination_gcp(&g.computation);
        let annotated = g.computation.annotate();
        let report = GcpChecker::new().detect(&annotated, &gcp);
        if let Some(cut) = report.detection.cut() {
            let index = ChannelIndex::new(&g.computation);
            assert_eq!(index.total_in_flight(cut), 0, "seed {seed}: cut {cut}");
            assert!(annotated.is_consistent(cut), "seed {seed}");
            assert!(gcp.wcp().holds_on(&g.computation, cut), "seed {seed}");
        }
    }
}

/// The GCP checker agrees with exhaustive lattice search for random
/// channel-term mixes on random runs.
#[test]
fn gcp_checker_agrees_with_lattice() {
    let mut rng = Rng::seed_from_u64(51);
    for _ in 0..40 {
        let seed = rng.next_u64();
        let density = 0.2 + rng.gen_f64() * 0.6;
        let term_kinds: Vec<u8> = (0..rng.gen_range(0usize..3))
            .map(|_| rng.gen_range(0u32..3) as u8)
            .collect();
        let g = generate(
            &GeneratorConfig::new(3, 6)
                .with_seed(seed)
                .with_predicate_density(density),
        );
        let computation = &g.computation;
        let index = ChannelIndex::new(computation);
        let channels: Vec<ChannelId> = index.channels().collect();
        if channels.is_empty() {
            continue;
        }
        let terms: Vec<ChannelTerm> = term_kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| ChannelTerm {
                channel: channels[i % channels.len()],
                predicate: match kind {
                    0 => ChannelPredicate::Empty,
                    1 => ChannelPredicate::AtMost(1),
                    _ => ChannelPredicate::AtLeast(1),
                },
            })
            .collect();
        let gcp = Gcp::new(Wcp::over_all(computation), terms);

        let annotated = computation.annotate();
        let via_checker = GcpChecker::new().detect(&annotated, &gcp);
        let Ok(via_lattice) = LatticeExplorer::new(computation)
            .first_satisfying_where(|cut| gcp.holds_on(computation, &index, cut), 300_000)
        else {
            continue;
        };
        assert_eq!(
            via_checker.detection.cut().cloned(),
            via_lattice,
            "seed {seed} terms {term_kinds:?}"
        );
    }
}

/// GCP with no channel terms degenerates to plain WCP detection: the
/// centralized checker's verdict and `DetectionMetrics`, field for field.
#[test]
fn empty_terms_equal_wcp() {
    use wcp::detect::{CentralizedChecker, Detector};
    let mut rng = Rng::seed_from_u64(52);
    for _ in 0..40 {
        let seed = rng.next_u64();
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(seed)
                .with_predicate_density(0.3),
        );
        let wcp = Wcp::over_all(&g.computation);
        let gcp = Gcp::new(wcp.clone(), []);
        let annotated = g.computation.annotate();
        let via_gcp = GcpChecker::new().detect(&annotated, &gcp);
        let via_wcp = CentralizedChecker::new().detect(&annotated, &wcp);
        assert_eq!(via_gcp, via_wcp, "seed {seed}");
    }
}

#[test]
fn channel_terms_strictly_strengthen() {
    // Adding channel terms can only delay (or prevent) detection.
    for seed in 0..20 {
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(seed)
                .with_predicate_density(0.5),
        );
        let annotated = g.computation.annotate();
        let plain = Gcp::new(Wcp::over_all(&g.computation), []);
        let strict = termination_gcp(&g.computation);
        let plain_cut = GcpChecker::new().detect(&annotated, &plain).detection;
        let strict_cut = GcpChecker::new().detect(&annotated, &strict).detection;
        match (plain_cut.cut(), strict_cut.cut()) {
            (Some(p), Some(s)) => assert!(p.le(s), "seed {seed}: {p} !≤ {s}"),
            (None, Some(s)) => {
                panic!("seed {seed}: stricter predicate detected {s} but plain did not")
            }
            _ => {}
        }
    }
}

#[test]
fn endpoints_validation_is_enforced() {
    let g = generate(&GeneratorConfig::new(3, 4).with_seed(0));
    let result = std::panic::catch_unwind(|| {
        Gcp::new(
            Wcp::over([ProcessId::new(0)]),
            [ChannelTerm {
                channel: ChannelId::new(ProcessId::new(0), ProcessId::new(2)),
                predicate: ChannelPredicate::Empty,
            }],
        )
    });
    assert!(result.is_err(), "out-of-scope endpoint must be rejected");
    drop(g);
}
