//! The session service family: its layout, and its offline and
//! simulator runs.
//!
//! Both runners serve the same predicates over the same computation and
//! must produce bit-identical per-predicate verdicts and
//! [`DetectionMetrics`] — the offline runner feeds the engine the
//! annotated trace directly, the simulator runner streams it through the
//! service's [`Layout`] over `Wcp::over_all` full-width clocks (`wcp-net`
//! hosts the same layout on socket peers).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use wcp_clocks::{ProcessId, StateId};
use wcp_detect::online::{
    apps, simulate, ClockMode, Layout, RunOptions, SharedOutcome, SharedStats,
};
use wcp_detect::{Detection, DetectionMetrics, DetectionReport};
use wcp_sim::{ActorId, SimConfig, SimMetrics};
use wcp_trace::{AnnotatedComputation, Computation, Wcp};

use crate::actors::{MultiController, MultiService, ServiceMirror};
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
/// end-of-stream marks — and pumps it dry: serially with one worker,
/// with [`MultiEngine::pump_parallel`] over more (bit-identical
/// outcomes, sharded fan-out).
pub fn feed_annotated(engine: &MultiEngine, annotated: &AnnotatedComputation, pump_threads: usize) {
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
/// An engine that holds none of them is a standalone `wcp serve` peer
/// that does not host the service, and reports no outcome.
///
/// # Panics
///
/// Panics if the engine holds some registered sessions but not all, or
/// one is unresolved.
fn collect_multi_report(
    engine: &MultiEngine,
    registrations: &[(u64, Wcp)],
    unregister: &[u64],
    wire_verdicts: HashMap<u64, Option<Vec<u64>>>,
) -> MultiReport {
    let mut live: Vec<&(u64, Wcp)> = registrations
        .iter()
        .filter(|(id, _)| !unregister.contains(id))
        .collect();
    if !live
        .iter()
        .any(|(id, _)| engine.report(PredicateId::new(*id)).is_some())
    {
        live.clear();
    }
    let outcomes = live
        .into_iter()
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

/// The session service family: the predicates a controller registers
/// with one service over the shared stream, and those it then
/// unregisters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Service {
    /// `(id, predicate)` pairs, registered in order.
    pub registrations: Vec<(u64, Wcp)>,
    /// Ids unregistered once every registration is sent.
    pub unregister: Vec<u64>,
}

impl Service {
    /// Registers `predicates` under ids `0..k` and unregisters none.
    pub fn new(predicates: &[Wcp]) -> Self {
        Service {
            registrations: predicates
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, w)| (i as u64, w))
                .collect(),
            unregister: Vec::new(),
        }
    }

    /// Lays out the service over `computation`: application `p` on peer
    /// `p` streams full-width Figure 2 snapshots to the service (actor
    /// `N`, on peer `N`), and the controller (actor `N + 1`) rides on peer
    /// 0, registering the predicates and collecting verdicts. The service
    /// pumps with `pump_threads` workers and reports its counters to
    /// `mirror`.
    ///
    /// # Panics
    ///
    /// Panics if the computation has no processes or the service would
    /// reject a registration (see [`check_registrations`]).
    pub fn layout(
        &self,
        computation: &Computation,
        pump_threads: usize,
        mirror: Option<ServiceMirror>,
    ) -> Layout<MultiReport> {
        let n_total = computation.process_count();
        assert!(n_total >= 1, "computation must have at least one process");
        if let Err(e) = check_registrations(n_total, &self.registrations) {
            panic!("multi service would reject a registration: {e}");
        }
        let service = ActorId::new(n_total as u32);
        let controller = ActorId::new(n_total as u32 + 1);
        let (mut actors, mut fifo) = apps(
            computation,
            &Wcp::over_all(computation),
            ClockMode::Vector,
            &SharedStats::default(),
            |_| Some(service),
            |p| p.index() as u32,
        );
        fifo.extend([(controller, service), (service, controller)]);
        let engine = Arc::new(MultiEngine::new(n_total));
        let mut multi = MultiService::new(
            Arc::clone(&engine),
            controller,
            self.registrations.len(),
            self.unregister.len(),
        )
        .with_pump_threads(pump_threads);
        if let Some(mirror) = mirror {
            multi = multi.with_mirror(mirror);
        }
        let ctrl =
            MultiController::new(service, self.registrations.clone(), self.unregister.clone());
        let verdicts = ctrl.verdicts();
        actors.push((n_total as u32, Box::new(multi)));
        actors.push((0, Box::new(ctrl)));
        let Service {
            registrations,
            unregister,
        } = self.clone();
        let report = move |_: &SimMetrics, _: u64| {
            let wire = verdicts.lock().expect("controller poisoned").clone();
            collect_multi_report(&engine, &registrations, &unregister, wire)
        };
        Layout {
            actors,
            fifo,
            verdict: SharedOutcome::default(),
            report: Box::new(report),
        }
    }
}

/// Runs `predicates` (ids `0..k`) over `computation` directly — no actors,
/// no transport; the reference the streamed runners are pinned against.
/// The engine pumps with `options.pump_threads` workers, whose report
/// must be bit-identical to the serial run's (the fuzz oracle
/// cross-checks exactly this).
pub fn run_multi_offline(
    computation: &Computation,
    predicates: &[Wcp],
    options: &RunOptions,
) -> MultiReport {
    let annotated = computation.annotate();
    let engine = MultiEngine::new(computation.process_count());
    let service = Service::new(predicates);
    for (id, wcp) in &service.registrations {
        engine
            .register(PredicateId::new(*id), wcp)
            .expect("offline registration failed");
    }
    feed_annotated(&engine, &annotated, options.pump_threads);
    collect_multi_report(&engine, &service.registrations, &[], HashMap::new())
}

/// Runs one predicate alone on the stream — the baseline the multi-tenant
/// bit-identity property compares against.
pub fn run_single_offline(
    computation: &Computation,
    wcp: &Wcp,
) -> (SessionVerdict, DetectionMetrics) {
    let report = run_multi_offline(
        computation,
        std::slice::from_ref(wcp),
        &RunOptions::default(),
    );
    let outcome = report.outcomes.into_iter().next().expect("one outcome");
    (outcome.verdict, outcome.metrics)
}

/// Runs `service` through the discrete-event simulator: application
/// actors stream Figure 2 snapshots to the service, the controller
/// registers and collects. The service pumps with `options.pump_threads`
/// workers.
///
/// # Panics
///
/// As [`Service::layout`] and [`simulate`].
pub fn run_multi_sim(
    computation: &Computation,
    service: &Service,
    sim_config: SimConfig,
    options: &RunOptions,
) -> MultiReport {
    let layout = service.layout(computation, options.pump_threads, None);
    simulate(layout, sim_config, options).report
}
