//! The multi-tenant core correctness claim, property-tested:
//!
//! 1. per-predicate verdicts equal the Theorem 3.2 oracle
//!    (`first_satisfying_cut`);
//! 2. per-predicate `DetectionMetrics` are **bit-identical** to running
//!    the same predicate alone on the same stream — whatever the tenant
//!    count, registration time, pump parallelism, or substrate
//!    (offline / simulator; `wcp-net`'s `multi_equivalence.rs` pins the
//!    socket peers);
//! 3. the session elimination engine is a faithful re-expression of the
//!    trusted `StreamingChecker` fed in the engine's canonical order.

use wcp_clocks::ProcessId;
use wcp_detect::online::RunOptions;
use wcp_detect::{vc_snapshot_queues, StreamingChecker, StreamingStatus};
use wcp_session::{
    check_registrations, feed_annotated, run_multi_offline, run_multi_sim, run_single_offline,
    MultiEngine, PredicateId, RegisterError, Service, SessionVerdict,
};
use wcp_sim::SimConfig;
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::{AnnotatedComputation, Computation, Wcp};

fn workload(seed: u64, procs: usize, events: usize) -> Computation {
    let cfg = GeneratorConfig::new(procs, events)
        .with_seed(seed)
        .with_predicate_density(0.3);
    generate(&cfg).computation
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

/// The engine's canonical routed order, recomputed independently: all
/// events sorted by `(interval, process)`, with each process's close
/// keyed one past its last true interval. `None` marks a close.
fn canonical_order(annotated: &AnnotatedComputation) -> Vec<(u64, u32, bool)> {
    let mut evs = Vec::new();
    for p in ProcessId::all(annotated.process_count()) {
        let intervals = annotated.true_intervals(p);
        for &k in intervals {
            evs.push((k, p.index() as u32, false));
        }
        let last = intervals.last().copied().unwrap_or(0);
        evs.push((last + 1, p.index() as u32, true));
    }
    evs.sort_unstable();
    evs
}

#[test]
fn verdicts_match_theorem_3_2_oracle() {
    for seed in 0..40u64 {
        let computation = workload(seed, 2 + (seed as usize % 5), 6 + (seed as usize % 10));
        let n = computation.process_count();
        let annotated = computation.annotate();
        let predicates = derived_predicates(n, 6);
        let report = run_multi_offline(&computation, &predicates, &RunOptions::default());
        assert_eq!(report.outcomes.len(), predicates.len());
        for outcome in &report.outcomes {
            match annotated.first_satisfying_cut(&outcome.wcp) {
                Some(cut) => assert_eq!(
                    outcome.verdict,
                    SessionVerdict::Detected(outcome.wcp.project(&cut)),
                    "seed {seed} predicate {}",
                    outcome.id
                ),
                None => assert_eq!(
                    outcome.verdict,
                    SessionVerdict::Impossible,
                    "seed {seed} predicate {}",
                    outcome.id
                ),
            }
        }
    }
}

#[test]
fn multi_tenant_metrics_bit_identical_to_alone() {
    for seed in 0..40u64 {
        let computation = workload(seed, 2 + (seed as usize % 5), 6 + (seed as usize % 10));
        let n = computation.process_count();
        let predicates = derived_predicates(n, 7);
        let report = run_multi_offline(&computation, &predicates, &RunOptions::default());
        for outcome in &report.outcomes {
            let (alone_verdict, alone_metrics) = run_single_offline(&computation, &outcome.wcp);
            assert_eq!(
                outcome.verdict, alone_verdict,
                "seed {seed} id {}",
                outcome.id
            );
            assert_eq!(
                outcome.metrics, alone_metrics,
                "seed {seed} id {}: multi-tenant metrics must be bit-identical to alone",
                outcome.id
            );
        }
    }
}

#[test]
fn session_engine_matches_streaming_checker_differentially() {
    for seed in 0..40u64 {
        let computation = workload(seed, 2 + (seed as usize % 5), 6 + (seed as usize % 10));
        let n = computation.process_count();
        let annotated = computation.annotate();
        let order = canonical_order(&annotated);
        for wcp in derived_predicates(n, 5) {
            // Reference: the trusted StreamingChecker over scope-projected
            // snapshot copies, fed in the canonical order, stopping at
            // resolution (sessions freeze when resolved).
            let queues = vc_snapshot_queues(&annotated, &wcp);
            let mut checker = StreamingChecker::new(wcp.n());
            let mut next = vec![0usize; wcp.n()];
            let mut reference = None;
            for &(_, p, close) in &order {
                let Some(pos) = wcp.position(ProcessId::new(p)) else {
                    continue;
                };
                let status = if close {
                    checker.close(pos)
                } else {
                    let s = queues[pos][next[pos]].clone();
                    next[pos] += 1;
                    checker.push(pos, s)
                };
                match status {
                    StreamingStatus::Detected(g) => {
                        reference = Some(SessionVerdict::Detected(g));
                        break;
                    }
                    StreamingStatus::Impossible => {
                        reference = Some(SessionVerdict::Impossible);
                        break;
                    }
                    _ => {}
                }
            }
            let (verdict, metrics) = run_single_offline(&computation, &wcp);
            assert_eq!(Some(&verdict), reference.as_ref(), "seed {seed} {wcp}");
            assert_eq!(
                metrics.per_process_work,
                vec![checker.work()],
                "seed {seed} {wcp}"
            );
            assert_eq!(
                metrics.max_buffered_snapshots,
                checker.peak_buffered(),
                "seed {seed} {wcp}"
            );
        }
    }
}

/// Late registrations replay to the standalone outcome. Two inputs: a
/// scope first registered mid-stream (its class starts from the store
/// origin), and a scope whose only session left and whose class the sweep
/// dropped before the scope was registered again (rebuilt from the origin).
#[test]
fn late_registration_replays_to_the_same_outcome() {
    for seed in 0..20u64 {
        let computation = workload(seed, 4, 10);
        let annotated = computation.annotate();
        let fresh = Wcp::over_first(3);
        let again = Wcp::over([ProcessId::new(1), ProcessId::new(3)]);
        let engine = MultiEngine::new(4);
        engine.register(PredicateId::new(2), &again).unwrap();
        // First half of every process's stream, then a pump...
        for p in ProcessId::all(4) {
            let intervals = annotated.true_intervals(p);
            for &k in &intervals[..intervals.len() / 2] {
                engine.ingest(
                    p,
                    k,
                    annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice(),
                );
            }
        }
        engine.pump();
        // ...then `again`'s only session leaves, and the next pump's sweep
        // drops the class it leaves empty...
        assert!(engine.unregister(PredicateId::new(2)));
        engine.pump();
        // ...then late registrations (each replays its class's log)...
        let early = [
            engine.register(PredicateId::new(1), &fresh).unwrap(),
            engine.register(PredicateId::new(3), &again).unwrap(),
        ];
        // ...then the rest of the stream.
        for p in ProcessId::all(4) {
            let intervals = annotated.true_intervals(p);
            for &k in &intervals[intervals.len() / 2..] {
                engine.ingest(
                    p,
                    k,
                    annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice(),
                );
            }
            engine.close(p);
        }
        engine.pump();
        for ((id, wcp), early) in [(1u64, &fresh), (3, &again)].into_iter().zip(early) {
            let report = engine.report(PredicateId::new(id)).unwrap();
            let verdict = report
                .verdict
                .or(early)
                .expect("resolved after full stream");
            let (alone_verdict, alone_metrics) = run_single_offline(&computation, wcp);
            assert_eq!(verdict, alone_verdict, "seed {seed} id {id}");
            assert_eq!(report.metrics, alone_metrics, "seed {seed} id {id}");
        }
    }
}

#[test]
fn unregister_drops_one_tenant_without_perturbing_the_rest() {
    let computation = workload(7, 4, 12);
    let predicates = derived_predicates(4, 3);
    let engine = MultiEngine::new(4);
    for (i, wcp) in predicates.iter().enumerate() {
        engine.register(PredicateId::new(i as u64), wcp).unwrap();
    }
    assert_eq!(engine.session_count(), 3);
    assert!(engine.unregister(PredicateId::new(1)));
    assert!(!engine.unregister(PredicateId::new(1)), "double unregister");
    assert_eq!(engine.session_count(), 2);
    feed_annotated(&engine, &computation.annotate(), 1);
    assert!(engine.report(PredicateId::new(1)).is_none());
    for i in [0u64, 2] {
        let report = engine.report(PredicateId::new(i)).unwrap();
        let (alone_verdict, alone_metrics) =
            run_single_offline(&computation, &predicates[i as usize]);
        assert_eq!(report.verdict, Some(alone_verdict));
        assert_eq!(report.metrics, alone_metrics);
    }
    assert_eq!(engine.stats().sessions_active, 2);
}

/// Every snapshot and end-of-stream mark of `annotated`, each process's
/// in FIFO order. `None` takes the processes one after another; `Some(seed)`
/// interleaves them by a seeded draw. An entry is `(process, Some(interval))`
/// for a snapshot and `(process, None)` for the close.
fn arrivals(annotated: &AnnotatedComputation, seed: Option<u64>) -> Vec<(ProcessId, Option<u64>)> {
    let mut open: Vec<ProcessId> = ProcessId::all(annotated.process_count()).collect();
    let mut next = vec![0usize; open.len()];
    let mut state = seed.unwrap_or(0) ^ 0x9E37_79B9_7F4A_7C15;
    let mut out = Vec::new();
    while !open.is_empty() {
        let j = match seed {
            Some(_) => {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % open.len()
            }
            None => 0,
        };
        let p = open[j];
        let intervals = annotated.true_intervals(p);
        if let Some(&k) = intervals.get(next[p.index()]) {
            next[p.index()] += 1;
            out.push((p, Some(k)));
        } else {
            out.push((p, None));
            open.remove(j);
        }
    }
    out
}

/// The serial and parallel pumps agree bit for bit, and every session
/// matches running alone, under two schedules: processes one after
/// another with a pump after each close, and seeded random arrival
/// interleavings with a pump after every ingest (overlapping scopes route
/// at different moments in each class).
#[test]
fn pump_parallel_is_bit_identical_to_serial_pump() {
    for seed in 0..10u64 {
        let computation = workload(seed, 5, 12);
        let annotated = computation.annotate();
        let predicates = derived_predicates(5, 40);
        for shuffle in [None, Some(seed)] {
            let serial = MultiEngine::new(5);
            let parallel = MultiEngine::new(5);
            for (i, wcp) in predicates.iter().enumerate() {
                serial.register(PredicateId::new(i as u64), wcp).unwrap();
                parallel.register(PredicateId::new(i as u64), wcp).unwrap();
            }
            for (p, interval) in arrivals(&annotated, shuffle) {
                match interval {
                    Some(k) => {
                        let clock = annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice();
                        serial.ingest(p, k, clock);
                        parallel.ingest(p, k, clock);
                    }
                    None => {
                        serial.close(p);
                        parallel.close(p);
                    }
                }
                // Pump mid-stream too, to exercise incremental routing.
                if shuffle.is_some() || interval.is_none() {
                    serial.pump();
                    parallel.pump_parallel(4);
                }
            }
            let mut serial_reports = serial.reports();
            let parallel_reports = parallel.reports();
            serial_reports.sort_by_key(|(id, _)| *id);
            assert_eq!(serial_reports, parallel_reports, "seed {seed} {shuffle:?}");
            assert_eq!(serial.stats(), parallel.stats(), "seed {seed} {shuffle:?}");
            for ((id, report), wcp) in serial_reports.iter().zip(&predicates) {
                let (alone_verdict, alone_metrics) = run_single_offline(&computation, wcp);
                assert_eq!(
                    report.verdict,
                    Some(alone_verdict),
                    "seed {seed} {shuffle:?} {id}"
                );
                assert_eq!(
                    report.metrics, alone_metrics,
                    "seed {seed} {shuffle:?} {id}"
                );
            }
        }
    }
}

/// Regression for the partition-skew bug: workers used to be keyed by
/// `id % threads`, so client-chosen ids with a common factor (all even,
/// multiples of 16, of 4096…) piled every session onto few workers. The
/// hashed shard map must keep adversarial id patterns bit-identical to
/// serial — whatever the worker count.
#[test]
fn adversarial_id_patterns_stay_bit_identical_to_serial() {
    for stride in [2u64, 16, 4096] {
        for seed in 0..5u64 {
            let computation = workload(seed, 5, 12);
            let annotated = computation.annotate();
            let predicates = derived_predicates(5, 48);
            let serial = MultiEngine::new(5);
            let parallel = MultiEngine::new(5);
            for (i, wcp) in predicates.iter().enumerate() {
                let id = PredicateId::new(i as u64 * stride);
                serial.register(id, wcp).unwrap();
                parallel.register(id, wcp).unwrap();
            }
            for p in ProcessId::all(5) {
                for &k in annotated.true_intervals(p) {
                    let clock = annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice();
                    serial.ingest(p, k, clock);
                    parallel.ingest(p, k, clock);
                }
                serial.close(p);
                parallel.close(p);
                serial.pump();
                parallel.pump_parallel(4);
            }
            let mut serial_reports = serial.reports();
            serial_reports.sort_by_key(|(id, _)| *id);
            assert_eq!(
                serial_reports,
                parallel.reports(),
                "stride {stride} seed {seed}"
            );
            assert_eq!(
                serial.stats(),
                parallel.stats(),
                "stride {stride} seed {seed}"
            );
        }
    }
}

/// Unregistering between (and after) parallel pumps: the shard lists keep
/// dead slots until a sweep, so the interleaving must neither perturb the
/// survivors nor resurrect the removed session.
#[test]
fn unregister_during_parallel_pumps_leaves_survivors_identical() {
    for seed in 0..10u64 {
        let computation = workload(seed, 4, 12);
        let annotated = computation.annotate();
        let predicates = derived_predicates(4, 12);
        let engine = MultiEngine::new(4);
        for (i, wcp) in predicates.iter().enumerate() {
            engine.register(PredicateId::new(i as u64), wcp).unwrap();
        }
        // First half of every stream, then a parallel pump...
        for p in ProcessId::all(4) {
            let intervals = annotated.true_intervals(p);
            for &k in &intervals[..intervals.len() / 2] {
                engine.ingest(
                    p,
                    k,
                    annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice(),
                );
            }
        }
        engine.pump_parallel(4);
        // ...then unregistrations (one likely resolved by now, one not),
        // then the rest of the stream through more parallel pumps.
        for id in [1u64, 5] {
            assert!(engine.unregister(PredicateId::new(id)), "seed {seed}");
        }
        for p in ProcessId::all(4) {
            let intervals = annotated.true_intervals(p);
            for &k in &intervals[intervals.len() / 2..] {
                engine.ingest(
                    p,
                    k,
                    annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice(),
                );
            }
            engine.close(p);
            engine.pump_parallel(3);
        }
        assert!(engine.report(PredicateId::new(1)).is_none(), "seed {seed}");
        assert!(engine.report(PredicateId::new(5)).is_none(), "seed {seed}");
        for (i, wcp) in predicates.iter().enumerate() {
            if i == 1 || i == 5 {
                continue;
            }
            let report = engine.report(PredicateId::new(i as u64)).unwrap();
            let (alone_verdict, alone_metrics) = run_single_offline(&computation, wcp);
            assert_eq!(report.verdict, Some(alone_verdict), "seed {seed} id {i}");
            assert_eq!(report.metrics, alone_metrics, "seed {seed} id {i}");
        }
        assert_eq!(engine.stats().sessions_active, 10, "seed {seed}");
    }
}

/// A session registered after parallel pumps already fanned out part of
/// the stream must replay the routed log to the same outcome as one
/// registered up front — the shard lists' insert-under-pump-lock path.
#[test]
fn late_register_after_parallel_pumps_replays_identically() {
    for seed in 0..10u64 {
        let computation = workload(seed, 4, 10);
        let annotated = computation.annotate();
        let wcp = Wcp::over_first(3);
        let engine = MultiEngine::new(4);
        engine.register(PredicateId::new(9), &wcp).unwrap();
        for p in ProcessId::all(4) {
            let intervals = annotated.true_intervals(p);
            for &k in &intervals[..intervals.len() / 2] {
                engine.ingest(
                    p,
                    k,
                    annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice(),
                );
            }
        }
        engine.pump_parallel(4);
        let early = engine.register(PredicateId::new(1), &wcp).unwrap();
        for p in ProcessId::all(4) {
            let intervals = annotated.true_intervals(p);
            for &k in &intervals[intervals.len() / 2..] {
                engine.ingest(
                    p,
                    k,
                    annotated.clock(wcp_clocks::StateId::new(p, k)).as_slice(),
                );
            }
            engine.close(p);
        }
        engine.pump_parallel(4);
        let late = engine.report(PredicateId::new(1)).unwrap();
        let up_front = engine.report(PredicateId::new(9)).unwrap();
        let verdict = late.verdict.or(early).expect("resolved after full stream");
        let (alone_verdict, alone_metrics) = run_single_offline(&computation, &wcp);
        assert_eq!(verdict, alone_verdict, "seed {seed}");
        assert_eq!(late.metrics, alone_metrics, "seed {seed}");
        assert_eq!(up_front.verdict, Some(alone_verdict), "seed {seed}");
        assert_eq!(up_front.metrics, alone_metrics, "seed {seed}");
    }
}

/// The `pump_threads` knob threads through every runner without changing
/// a single outcome bit.
#[test]
fn runners_honor_pump_threads_with_identical_outcomes() {
    for seed in 0..4u64 {
        let computation = workload(seed, 2 + (seed as usize % 4), 8);
        let n = computation.process_count();
        let predicates = derived_predicates(n, 6);
        let offline = run_multi_offline(&computation, &predicates, &RunOptions::default());
        let four = RunOptions {
            pump_threads: 4,
            ..RunOptions::default()
        };
        let service = Service::new(&predicates);
        for report in [
            run_multi_offline(&computation, &predicates, &four),
            run_multi_sim(&computation, &service, SimConfig::seeded(seed), &four),
        ] {
            assert_eq!(report.outcomes.len(), offline.outcomes.len());
            for (got, want) in report.outcomes.iter().zip(&offline.outcomes) {
                assert_eq!(got.verdict, want.verdict, "seed {seed} id {}", got.id);
                assert_eq!(got.metrics, want.metrics, "seed {seed} id {}", got.id);
            }
        }
    }
}

#[test]
fn simulator_matches_offline() {
    for seed in 0..8u64 {
        let computation = workload(seed, 2 + (seed as usize % 4), 8);
        let n = computation.process_count();
        let predicates = derived_predicates(n, 5);
        let offline = run_multi_offline(&computation, &predicates, &RunOptions::default());
        let report = run_multi_sim(
            &computation,
            &Service::new(&predicates),
            SimConfig::seeded(seed.wrapping_mul(31)),
            &RunOptions::default(),
        );
        assert_eq!(report.outcomes.len(), offline.outcomes.len());
        for (got, want) in report.outcomes.iter().zip(&offline.outcomes) {
            assert_eq!(got.verdict, want.verdict, "seed {seed} id {}", got.id);
            assert_eq!(got.metrics, want.metrics, "seed {seed} id {}", got.id);
            // The controller saw the same verdict on the wire.
            assert_eq!(
                report.wire_verdicts.get(&got.id),
                Some(&got.verdict.cut().map(<[u64]>::to_vec)),
                "seed {seed} id {}",
                got.id
            );
        }
    }
}

/// The service drops a rejected registration instead of stopping, so the
/// runners check their registration lists first and name the reason.
#[test]
fn invalid_registration_lists_are_refused_before_a_run() {
    let scope = |s: &[u32]| Wcp::over(s.iter().map(|&p| ProcessId::new(p)));
    assert_eq!(
        check_registrations(3, &[(0, scope(&[0, 2])), (1, scope(&[1]))]),
        Ok(())
    );
    assert_eq!(
        check_registrations(3, &[(7, scope(&[0])), (7, scope(&[1]))]),
        Err(RegisterError::Duplicate(PredicateId::new(7)))
    );
    assert_eq!(
        check_registrations(3, &[(0, scope(&[3]))]),
        Err(RegisterError::ScopeOutOfRange {
            process: ProcessId::new(3),
            n: 3
        })
    );
    assert_eq!(
        check_registrations(3, &[(0, scope(&[]))]),
        Err(RegisterError::EmptyScope)
    );
    let computation = workload(1, 3, 6);
    let duplicate = Service {
        registrations: vec![(7, scope(&[0])), (7, scope(&[1]))],
        unregister: Vec::new(),
    };
    let run = std::panic::catch_unwind(|| {
        run_multi_sim(
            &computation,
            &duplicate,
            SimConfig::seeded(1),
            &RunOptions::default(),
        )
    });
    let message = run
        .expect_err("a duplicate id must be refused")
        .downcast::<String>()
        .expect("a formatted panic message");
    assert!(
        message.contains("predicate S7 is already registered"),
        "{message}"
    );
}
