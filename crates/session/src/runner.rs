//! End-to-end multi-tenant runs: offline and simulator.
//!
//! Both runners serve the same predicates over the same computation and
//! must produce bit-identical per-predicate verdicts and
//! [`DetectionMetrics`] — the offline runner feeds the engine the
//! annotated trace directly, the simulator runner streams it through
//! [`AppProcess`](wcp_detect::online::AppProcess) actors over
//! `Wcp::over_all` full-width clocks (`wcp-net` adds the socket variant
//! on the same actors, over a real transport).

use std::collections::{HashMap, HashSet};

use std::sync::Arc;

use wcp_clocks::{ProcessId, StateId};
use wcp_detect::online::{AppProcess, ClockMode};
use wcp_detect::{Detection, DetectionMetrics, DetectionReport};
use wcp_sim::{ActorId, SimConfig, Simulation};
use wcp_trace::{AnnotatedComputation, Computation, Wcp};

use crate::actors::{MultiController, MultiService};
use crate::engine::{check_scope, EngineStats, MultiEngine, RegisterError};
use crate::registry::PredicateId;
use crate::session::SessionVerdict;

/// Outcome of one predicate of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateOutcome {
    /// The predicate's stable id.
    pub id: u64,
    /// The predicate itself.
    pub wcp: Wcp,
    /// Final session verdict.
    pub verdict: SessionVerdict,
    /// Paper-unit metrics, identical to a standalone run.
    pub metrics: DetectionMetrics,
}

impl PredicateOutcome {
    /// The verdict as a full-width [`Detection`] (nonzero entries only at
    /// scope processes, like the Section 3 detectors).
    pub fn detection(&self, n_total: usize) -> Detection {
        match &self.verdict {
            SessionVerdict::Detected(g) => Detection::Detected {
                cut: self.wcp.lift(g, n_total),
            },
            SessionVerdict::Impossible => Detection::Undetected,
        }
    }

    /// Detection + metrics in the workspace's common report shape.
    pub fn report(&self, n_total: usize) -> DetectionReport {
        DetectionReport {
            detection: self.detection(n_total),
            metrics: self.metrics.clone(),
        }
    }
}

/// Result of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// One outcome per predicate still registered at the end of the run,
    /// in registration order.
    pub outcomes: Vec<PredicateOutcome>,
    /// Verdicts the controller collected off the wire, by raw id (empty
    /// for the offline runner, which has no controller). May also hold
    /// verdicts of sessions that resolved before their unregistration.
    pub wire_verdicts: HashMap<u64, Option<Vec<u64>>>,
    /// Engine counters at the end of the run.
    pub stats: EngineStats,
    /// Bytes in the shared snapshot store (paid once, not per session).
    pub stored_bytes: u64,
}

/// Streams the annotated computation into `engine` — every true-interval
/// snapshot of every process, in per-process FIFO order, then the
/// end-of-stream marks — and pumps it dry.
pub fn feed_annotated(engine: &MultiEngine, annotated: &AnnotatedComputation) {
    feed_annotated_with(engine, annotated, 1);
}

/// [`feed_annotated`] with an explicit fan-out worker count: `> 1` pumps
/// with [`MultiEngine::pump_parallel`] (bit-identical outcomes, sharded
/// fan-out), `1` with the serial [`MultiEngine::pump`].
pub fn feed_annotated_with(
    engine: &MultiEngine,
    annotated: &AnnotatedComputation,
    pump_threads: usize,
) {
    for p in ProcessId::all(engine.process_count()) {
        for &k in annotated.true_intervals(p) {
            engine.ingest(p, k, annotated.clock(StateId::new(p, k)).as_slice());
        }
        engine.close(p);
    }
    if pump_threads > 1 {
        engine.pump_parallel(pump_threads);
    } else {
        engine.pump();
    }
}

/// Assembles a [`MultiReport`] out of a finished engine: one outcome per
/// registration not later unregistered, every session expected resolved.
/// Shared with `wcp-net`'s socket runner, which drives the same actors
/// over real links and reports through the same shape.
///
/// # Panics
///
/// Panics if a registered session is missing or unresolved.
pub fn collect_multi_report(
    engine: &MultiEngine,
    registrations: &[(u64, Wcp)],
    unregister: &[u64],
    wire_verdicts: HashMap<u64, Option<Vec<u64>>>,
) -> MultiReport {
    let outcomes = registrations
        .iter()
        .filter(|(id, _)| !unregister.contains(id))
        .map(|(id, wcp)| {
            let report = engine
                .report(PredicateId::new(*id))
                .expect("registered session vanished");
            PredicateOutcome {
                id: *id,
                wcp: wcp.clone(),
                verdict: report
                    .verdict
                    .expect("session unresolved after full stream"),
                metrics: report.metrics,
            }
        })
        .collect();
    MultiReport {
        outcomes,
        wire_verdicts,
        stats: engine.stats(),
        stored_bytes: engine.store().stored_bytes(),
    }
}

/// Checks a registration list the way [`MultiEngine::register`] will
/// when the service receives it: non-empty scopes inside `0..n`, distinct
/// ids. The service drops a rejected registration instead of stopping, so
/// the runners check their lists before a run.
///
/// # Errors
///
/// The first registration the engine would reject, and why.
pub fn check_registrations(n: usize, registrations: &[(u64, Wcp)]) -> Result<(), RegisterError> {
    let mut ids = HashSet::new();
    for (id, wcp) in registrations {
        check_scope(n, wcp)?;
        if !ids.insert(*id) {
            return Err(RegisterError::Duplicate(PredicateId::new(*id)));
        }
    }
    Ok(())
}

/// Runs `predicates` (ids `0..k`) over `computation` directly — no actors,
/// no transport; the reference the streamed runners are pinned against.
pub fn run_multi_offline(computation: &Computation, predicates: &[Wcp]) -> MultiReport {
    run_multi_offline_with(computation, predicates, 1)
}

/// [`run_multi_offline`] with an explicit fan-out worker count; `> 1`
/// drives the parallel pump, whose report must be bit-identical
/// to the serial run's (the fuzz oracle cross-checks exactly this).
pub fn run_multi_offline_with(
    computation: &Computation,
    predicates: &[Wcp],
    pump_threads: usize,
) -> MultiReport {
    let annotated = computation.annotate();
    let engine = MultiEngine::new(computation.process_count());
    let registrations: Vec<(u64, Wcp)> = predicates
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, w)| (i as u64, w))
        .collect();
    for (id, wcp) in &registrations {
        engine
            .register(PredicateId::new(*id), wcp)
            .expect("offline registration failed");
    }
    feed_annotated_with(&engine, &annotated, pump_threads);
    collect_multi_report(&engine, &registrations, &[], HashMap::new())
}

/// Runs one predicate alone on the stream — the baseline the multi-tenant
/// bit-identity property compares against.
pub fn run_single_offline(
    computation: &Computation,
    wcp: &Wcp,
) -> (SessionVerdict, DetectionMetrics) {
    let report = run_multi_offline(computation, std::slice::from_ref(wcp));
    let outcome = report.outcomes.into_iter().next().expect("one outcome");
    (outcome.verdict, outcome.metrics)
}

/// Runs `predicates` (ids `0..k`) through the discrete-event simulator:
/// application actors stream Figure 2 snapshots to the service, the
/// controller registers and collects.
pub fn run_multi_sim(computation: &Computation, predicates: &[Wcp], seed: u64) -> MultiReport {
    let registrations: Vec<(u64, Wcp)> = predicates
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, w)| (i as u64, w))
        .collect();
    run_multi_sim_with(computation, &registrations, &[], seed, 1)
}

/// [`run_multi_sim`] with explicit ids, a mid-run unregistration list,
/// and a fan-out worker count (`> 1` = the parallel pump).
///
/// # Panics
///
/// Panics if a registration is invalid (see [`check_registrations`]).
pub fn run_multi_sim_with(
    computation: &Computation,
    registrations: &[(u64, Wcp)],
    unregister: &[u64],
    seed: u64,
    pump_threads: usize,
) -> MultiReport {
    let n_total = computation.process_count();
    if let Err(e) = check_registrations(n_total, registrations) {
        panic!("multi service would reject a registration: {e}");
    }
    let service = ActorId::new(n_total as u32);
    let controller = ActorId::new(n_total as u32 + 1);
    let mut config = SimConfig::seeded(seed);
    for i in 0..n_total {
        config = config.with_fifo_channel(ActorId::new(i as u32), service);
    }
    config = config
        .with_fifo_channel(controller, service)
        .with_fifo_channel(service, controller);
    let scope_all = Wcp::over_all(computation);
    let app_actors: Vec<ActorId> = (0..n_total).map(|i| ActorId::new(i as u32)).collect();
    let engine = Arc::new(MultiEngine::new(n_total));
    let ctrl = MultiController::new(service, registrations.to_vec(), unregister.to_vec());
    let verdicts = ctrl.verdicts();
    let finished = ctrl.finished();
    let mut sim = Simulation::new(config);
    for p in ProcessId::all(n_total) {
        sim.add_actor(Box::new(AppProcess::new(
            computation,
            &scope_all,
            p,
            ClockMode::Vector,
            app_actors.clone(),
            Some(service),
        )));
    }
    sim.add_actor(Box::new(
        MultiService::new(
            Arc::clone(&engine),
            controller,
            registrations.len(),
            unregister.len(),
        )
        .with_pump_threads(pump_threads),
    ));
    sim.add_actor(Box::new(ctrl));
    sim.run();
    assert!(
        finished.load(std::sync::atomic::Ordering::Acquire),
        "multi sim run ended before the service announced end-of-verdicts"
    );
    let wire = verdicts.lock().expect("controller poisoned").clone();
    collect_multi_report(&engine, registrations, unregister, wire)
}
