//! Causal-merge property tests for the telemetry plane.
//!
//! The simulator is single-threaded, so one shared ring records the
//! ground-truth delivery order of an online run. The telemetry plane
//! instead ships one stream per peer and reconstructs a global timeline
//! with `wcp_obs::merge_streams`. These tests pin the contract between
//! the two views:
//!
//! - the merge is a permutation of the ground-truth recording;
//! - every per-process stream survives as a subsequence;
//! - cross-tick pairs (events with different effective logical times)
//!   keep their ground-truth delivery order;
//! - same-tick (concurrent) events use exactly the documented
//!   deterministic tie-break — `(effective time, source, position)`.
//!
//! The last section replays the same properties over the real wire:
//! loopback peers under seeded fault schedules, with the collector's
//! merged timeline standing in for the shared ring.

use std::sync::Arc;

use wcp_detect::online::{simulate, Family, RunOptions};
use wcp_net::{run_net, NetConfig, TelemetryCollector};
use wcp_obs::{
    merge_streams, split_by_monitor, LogicalTime, RingRecorder, RunReport, StampedEvent,
};
use wcp_sim::{FaultConfig, LatencyModel, SimConfig};
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::{Computation, Wcp};

fn workload(seed: u64) -> Computation {
    generate(
        &GeneratorConfig::new(4, 8)
            .with_seed(seed)
            .with_predicate_density(0.3)
            .with_plant(0.6),
    )
    .computation
}

/// Effective logical time per event of an interleaved recording: the
/// running maximum of tick values *within each monitor's sub-stream*
/// (untimed transport events inherit their per-stream predecessor), the
/// same rule `merge_streams` applies after the split.
fn effective_times(events: &[StampedEvent]) -> Vec<u64> {
    let mut latest: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    events
        .iter()
        .map(|e| {
            let slot = latest.entry(e.monitor).or_insert(0);
            if !matches!(e.time, LogicalTime::Unknown) {
                *slot = (*slot).max(e.time.value());
            }
            *slot
        })
        .collect()
}

/// `(monitor, time, event)` — the identity of an event modulo the `seq`
/// restamping `split_by_monitor` performs.
fn key(e: &StampedEvent) -> (u32, LogicalTime, wcp_obs::TraceEvent) {
    (e.monitor, e.time, e.event.clone())
}

/// Ground truth from one simulated online run: the shared ring's events
/// in true delivery order.
fn simulated_ground_truth(seed: u64, latency: LatencyModel) -> Vec<StampedEvent> {
    let computation = workload(seed);
    let wcp = Wcp::over_first(3);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    simulate(
        Family::VcToken.layout(&computation, &wcp),
        SimConfig::seeded(seed).with_latency(latency),
        &RunOptions::recorded(ring.clone()),
    );
    assert_eq!(ring.dropped(), 0, "ring capacity too small for the test");
    ring.events()
}

#[test]
fn merge_reconstructs_simulator_delivery_order() {
    let latencies = [
        LatencyModel::Fixed { ticks: 0 },
        LatencyModel::Fixed { ticks: 3 },
        LatencyModel::Uniform { min: 1, max: 10 },
        LatencyModel::Uniform { min: 0, max: 25 },
    ];
    for seed in 0..8u64 {
        for latency in latencies {
            let ground = simulated_ground_truth(seed, latency);
            assert!(!ground.is_empty());
            let streams = split_by_monitor(&ground);
            let borrowed: Vec<(u32, &[StampedEvent])> =
                streams.iter().map(|(m, s)| (*m, s.as_slice())).collect();
            let merged = merge_streams(&borrowed);

            // Permutation: same length, and each monitor's projection is
            // identical (which also proves every per-process stream is a
            // subsequence of the merge).
            assert_eq!(merged.len(), ground.len(), "seed {seed} {latency:?}");
            for (monitor, stream) in &streams {
                let projected: Vec<_> = merged
                    .iter()
                    .filter(|e| e.monitor == *monitor)
                    .map(key)
                    .collect();
                let original: Vec<_> = stream.iter().map(key).collect();
                assert_eq!(projected, original, "seed {seed} {latency:?} P{monitor}");
            }

            // The simulator delivers in tick order, so ground-truth
            // effective times never decrease...
            let ground_eff = effective_times(&ground);
            assert!(
                ground_eff.windows(2).all(|w| w[0] <= w[1]),
                "seed {seed} {latency:?}: delivery order not tick-monotone"
            );

            // ...and therefore the merge — a stable sort by (effective
            // time, source, position) — equals ground truth exactly, up
            // to the documented same-tick tie-break.
            let mut expected: Vec<(u64, u32, usize, &StampedEvent)> = Vec::new();
            let mut pos: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
            for (e, &eff) in ground.iter().zip(&ground_eff) {
                let at = pos.entry(e.monitor).or_insert(0);
                expected.push((eff, e.monitor, *at, e));
                *at += 1;
            }
            expected.sort_by_key(|&(eff, src, at, _)| (eff, src, at));
            let expected_keys: Vec<_> = expected.iter().map(|&(_, _, _, e)| key(e)).collect();
            let merged_keys: Vec<_> = merged.iter().map(key).collect();
            assert_eq!(merged_keys, expected_keys, "seed {seed} {latency:?}");

            // Cross-tick pairs specifically: different effective times
            // always appear in ground-truth (delivery) order.
            let merged_eff = effective_times(&merged);
            assert!(
                merged_eff.windows(2).all(|w| w[0] <= w[1]),
                "seed {seed} {latency:?}: merged timeline not causally ordered"
            );
        }
    }
}

#[test]
fn merged_wire_timelines_stay_causal_under_fault_schedules() {
    let schedules = [
        None,
        Some(FaultConfig::delay_duplicate_reorder(7)),
        Some(FaultConfig::seeded(9).with_drop(0.15).with_reset(0.05)),
    ];
    for (i, faults) in schedules.into_iter().enumerate() {
        let computation = workload(40 + i as u64);
        let wcp = Wcp::over_first(3);
        let mut config = NetConfig::loopback();
        if let Some(f) = faults {
            config = config.with_faults(f);
        }
        let collector = TelemetryCollector::shared();
        let options = RunOptions {
            collector: Some(collector.clone()),
            ..RunOptions::default()
        };
        let report = run_net(Family::VcToken, &computation, &wcp, config, &options);
        let merged = collector.merged();

        // Nothing was lost or corrupted on the sidecar channel: the merge
        // holds exactly the events the collector ingested, from every peer.
        assert_eq!(collector.malformed(), 0, "schedule {i}");
        assert_eq!(collector.events_collected(), merged.len(), "schedule {i}");
        assert_eq!(collector.source_stats().len(), wcp.n(), "schedule {i}");

        // Each peer's stream survives as a subsequence: its ring seq
        // numbers appear strictly increasing inside the merge.
        for peer in 0..wcp.n() as u32 {
            let seqs: Vec<u64> = merged
                .iter()
                .filter(|e| e.monitor == peer)
                .map(|e| e.seq)
                .collect();
            assert!(!seqs.is_empty(), "schedule {i}: no events from P{peer}");
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "schedule {i}: P{peer} stream reordered by the merge"
            );
        }

        // The merge is causally ordered even though deltas arrive
        // interleaved and fault-delayed.
        let eff = effective_times(&merged);
        assert!(
            eff.windows(2).all(|w| w[0] <= w[1]),
            "schedule {i}: merged wire timeline not causally ordered"
        );

        // And the merged timeline tells the same story as the run itself.
        let folded = RunReport::from_events(&merged);
        assert_eq!(
            folded.detected_cut.is_some(),
            matches!(
                report.report.detection,
                wcp_detect::Detection::Detected { .. }
            ),
            "schedule {i}: merged timeline disagrees with the verdict"
        );
    }
}
