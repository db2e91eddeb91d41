//! Property test for the arena snapshot substrate: across randomly
//! generated computations, the arena-backed [`VcSnapshotQueues`] is
//! element-for-element equal to the legacy per-`Vec`
//! [`vc_snapshot_queues`] reference path — same queue lengths, same
//! intervals, same clock components.

use wcp_detect::{vc_snapshot_queues, VcSnapshotQueues};
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::Wcp;

/// A spread of generator shapes: narrow/wide, sparse/dense predicates,
/// planted and unplanted cuts, heavy and light messaging.
fn configs(seed: u64) -> Vec<GeneratorConfig> {
    vec![
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
    ]
}

#[test]
fn arena_queues_equal_legacy_queues_across_seeds() {
    for seed in 0..20 {
        for (ci, cfg) in configs(seed).into_iter().enumerate() {
            let g = generate(&cfg);
            let annotated = g.computation.annotate();
            let total = annotated.process_count();
            for scope_n in [1, total.div_ceil(2), total] {
                let wcp = Wcp::over_first(scope_n);
                let legacy = vc_snapshot_queues(&annotated, &wcp);
                let arena = VcSnapshotQueues::build(&annotated, &wcp);
                assert_eq!(arena.scope_width(), scope_n);
                assert_eq!(legacy.len(), scope_n, "seed {seed} cfg {ci}");
                for (pos, queue) in legacy.iter().enumerate() {
                    assert_eq!(
                        arena.queue_len(pos),
                        queue.len(),
                        "seed {seed} cfg {ci} scope {scope_n} pos {pos}"
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
                        assert_eq!(arena.to_vc_snapshot(pos, i), *snapshot);
                    }
                }
                // The whole substrate is one allocation (or zero when empty).
                assert!(arena.clock_allocations() <= 1);
            }
        }
    }
}
