//! Property test for the arena snapshot substrate: across randomly
//! generated computations and scopes, the arena-backed
//! [`VcSnapshotQueues`] (the scope's clock columns propagated on their
//! own) is element-for-element equal to the legacy per-`Vec`
//! [`vc_snapshot_queues`] reference path (projections of the `N`-wide
//! table) — same queue lengths, same intervals, same clock components.

use wcp_clocks::ProcessId;
use wcp_detect::{vc_snapshot_queues, VcSnapshotQueues};
use wcp_obs::rng::Rng;
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::Wcp;

/// A spread of generator shapes: narrow/wide, sparse/dense predicates,
/// planted and unplanted cuts, heavy and light messaging, and two traces
/// wider than the pool's sequential cutoff of 128 scope positions.
fn configs(seed: u64) -> Vec<GeneratorConfig> {
    let mut configs = vec![
        GeneratorConfig::new(3, 8).with_seed(seed),
        GeneratorConfig::new(6, 12)
            .with_seed(seed)
            .with_predicate_density(0.3),
        GeneratorConfig::new(8, 10)
            .with_seed(seed)
            .with_predicate_density(0.6)
            .with_plant(0.7),
        GeneratorConfig::new(5, 14)
            .with_seed(seed)
            .with_predicate_density(0.1)
            .with_send_fraction(0.8),
        GeneratorConfig::new(10, 9)
            .with_seed(seed)
            .with_predicate_density(0.4),
    ];
    if seed < 3 {
        configs.push(
            GeneratorConfig::new(130, 6)
                .with_seed(seed)
                .with_predicate_density(0.3),
        );
        configs.push(
            GeneratorConfig::new(200, 4)
                .with_seed(seed)
                .with_predicate_density(0.5)
                .with_plant(0.8),
        );
    }
    configs
}

/// Prefix scopes of 1, about half and all `total` processes, then subset
/// scopes drawn from `seed`: one that skips process 0, a single process,
/// and about a third of the processes, so the rest relay causality from
/// outside the scope.
fn scopes(total: usize, seed: u64) -> Vec<Wcp> {
    let mut rng = Rng::seed_from_u64(seed);
    let pick = |p: usize| ProcessId::new(p as u32);
    let mut scopes: Vec<Wcp> = [1, total.div_ceil(2), total]
        .into_iter()
        .map(Wcp::over_first)
        .collect();
    if total > 1 {
        let some: Vec<usize> = (1..total).filter(|_| rng.gen_bool(0.5)).collect();
        scopes.push(Wcp::over(some.into_iter().chain([total - 1]).map(pick)));
    }
    scopes.push(Wcp::over([pick(rng.gen_range(0..total))]));
    let third: Vec<usize> = (0..total).filter(|_| rng.gen_range(0u32..3) == 0).collect();
    let anchor = rng.gen_range(0..total);
    scopes.push(Wcp::over(third.into_iter().chain([anchor]).map(pick)));
    scopes
}

#[test]
fn arena_queues_equal_legacy_queues_across_seeds() {
    for seed in 0..20 {
        for (ci, cfg) in configs(seed).into_iter().enumerate() {
            let g = generate(&cfg);
            let total = g.computation.process_count();
            for wcp in scopes(total, seed ^ ci as u64) {
                // A fresh annotation, the arena first: once the legacy
                // path has built the N-wide table, scoped builds project
                // from it.
                let annotated = g.computation.annotate();
                let arena = VcSnapshotQueues::build(&annotated, &wcp);
                let legacy = vc_snapshot_queues(&annotated, &wcp);
                let scope_n = wcp.n();
                assert_eq!(arena.scope_width(), scope_n);
                assert_eq!(legacy.len(), scope_n, "seed {seed} cfg {ci}");
                for (pos, queue) in legacy.iter().enumerate() {
                    assert_eq!(
                        arena.queue_len(pos),
                        queue.len(),
                        "seed {seed} cfg {ci} scope {wcp} pos {pos}"
                    );
                    for (i, snapshot) in queue.iter().enumerate() {
                        assert_eq!(
                            arena.interval(pos, i),
                            snapshot.interval,
                            "seed {seed} cfg {ci} pos {pos} snapshot {i}"
                        );
                        assert_eq!(
                            arena.clock(pos, i).as_slice(),
                            snapshot.clock.as_slice(),
                            "seed {seed} cfg {ci} pos {pos} snapshot {i}"
                        );
                    }
                }
                // The whole substrate is one allocation (or zero when empty).
                assert!(arena.clock_allocations() <= 1);
            }
        }
    }
}
