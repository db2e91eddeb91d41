//! The session service and controller actors.
//!
//! The service hosts one [`MultiEngine`] behind an actor mailbox: every
//! application process streams its Figure 2 snapshots (full-width clocks,
//! `Wcp::over_all`) plus an end-of-trace marker to it, and a controller
//! registers/unregisters predicates and collects per-predicate verdicts.
//! The same two actors run unmodified on the discrete-event simulator
//! and on `wcp-net`'s socket peers (`wcp serve --multi`): every session
//! sees its scope's events in the one canonical order (its scope class's
//! routed log), so the outcome is transport-independent.
//!
//! The service takes its input off the wire, so it never panics on it: a
//! snapshot or end-of-stream mark the engine refuses
//! ([`IngestError`](crate::IngestError)), a rejected registration and a
//! message kind the service does not serve are dropped and counted
//! ([`MultiService::rejected`]), and change nothing else. The runners
//! check their registration lists before a run
//! ([`check_registrations`](crate::check_registrations)), so a rejection
//! there names its reason up front.
//!
//! Termination: the service announces end-of-verdicts with a final
//! [`EndOfTrace`](DetectMsg::EndOfTrace) to the controller once every
//! process closed, every (un)registration the controller is expected to
//! send arrived — a rejected one included — and every live session
//! resolved; the controller then stops the run. FIFO service → controller
//! channels make "after every verdict" meaningful.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wcp_clocks::ProcessId;
use wcp_detect::online::DetectMsg;
use wcp_sim::{Actor, ActorId, Context};
use wcp_trace::Wcp;

use crate::engine::{EngineStats, MultiEngine};
use crate::registry::PredicateId;
use crate::session::SessionVerdict;

/// Actor hosting the shared engine: ingests every process's snapshot
/// stream, applies registry commands, emits per-predicate verdicts.
pub struct MultiService {
    engine: Arc<MultiEngine>,
    controller: ActorId,
    expected_regs: usize,
    expected_unregs: usize,
    regs: usize,
    unregs: usize,
    closed: Vec<bool>,
    done: bool,
    rejected: u64,
    /// Fan-out workers per pump: `1` (the default) pumps serially on the
    /// service thread, `> 1` uses the parallel pump. Verdicts and
    /// metrics are bit-identical either way.
    pump_threads: usize,
    mirror: Option<ServiceMirror>,
}

/// Called after every message the service handles with its engine's
/// counters and its count of refused messages, so a socket run's
/// telemetry sees them move while the run is in flight.
pub type ServiceMirror = Box<dyn Fn(EngineStats, u64) + Send>;

impl MultiService {
    /// A service over `engine`, reporting to `controller` and expecting
    /// exactly `expected_regs` registrations and `expected_unregs`
    /// unregistrations from it before it can declare the run complete.
    pub fn new(
        engine: Arc<MultiEngine>,
        controller: ActorId,
        expected_regs: usize,
        expected_unregs: usize,
    ) -> Self {
        let n = engine.process_count();
        MultiService {
            engine,
            controller,
            expected_regs,
            expected_unregs,
            regs: 0,
            unregs: 0,
            closed: vec![false; n],
            done: false,
            rejected: 0,
            pump_threads: 1,
            mirror: None,
        }
    }

    /// Reports the service's counters to `mirror` after every message.
    pub fn with_mirror(mut self, mirror: ServiceMirror) -> Self {
        self.mirror = Some(mirror);
        self
    }

    /// Replaces the fan-out worker count (see
    /// [`MultiEngine::pump_parallel`]); `≤ 1` keeps the serial pump.
    pub fn with_pump_threads(mut self, pump_threads: usize) -> Self {
        self.pump_threads = pump_threads.max(1);
        self
    }

    /// The engine, e.g. for reading reports after the run.
    pub fn engine(&self) -> &Arc<MultiEngine> {
        &self.engine
    }

    /// Messages dropped so far: snapshots and end-of-stream marks the
    /// engine refused, rejected registrations, and message kinds the
    /// service does not serve.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn send_verdict(&self, ctx: &mut dyn Context<DetectMsg>, id: PredicateId, v: &SessionVerdict) {
        ctx.send(
            self.controller,
            DetectMsg::MultiVerdict {
                id: id.raw(),
                verdict: v.cut().map(<[u64]>::to_vec),
            },
        );
    }

    /// Pumps the engine, forwards fresh verdicts, and announces
    /// end-of-verdicts once the run is complete.
    fn drain(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        let resolved = if self.pump_threads > 1 {
            self.engine.pump_parallel(self.pump_threads)
        } else {
            self.engine.pump()
        };
        for (id, v) in resolved {
            self.send_verdict(ctx, id, &v);
        }
        if !self.done
            && self.regs == self.expected_regs
            && self.unregs == self.expected_unregs
            && self.closed.iter().all(|&c| c)
            && self.engine.all_resolved()
        {
            self.done = true;
            ctx.send(self.controller, DetectMsg::EndOfTrace);
        }
    }
}

impl Actor<DetectMsg> for MultiService {
    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, from: ActorId, msg: DetectMsg) {
        self.handle(ctx, from, msg);
        if let Some(mirror) = &self.mirror {
            mirror(self.engine.stats(), self.rejected);
        }
    }
}

impl MultiService {
    fn handle(&mut self, ctx: &mut dyn Context<DetectMsg>, from: ActorId, msg: DetectMsg) {
        // The sender's actor id is its process id: application process
        // `p` runs as actor `p`.
        let p = ProcessId::new(from.index() as u32);
        let from_controller = from == self.controller;
        match msg {
            DetectMsg::VcSnapshot(s) => {
                if self
                    .engine
                    .try_ingest(p, s.interval, s.clock.as_slice())
                    .is_err()
                {
                    self.rejected += 1;
                    return;
                }
            }
            DetectMsg::EndOfTrace => {
                if self.engine.try_close(p).is_err() {
                    self.rejected += 1;
                    return;
                }
                self.closed[p.index()] = true;
            }
            DetectMsg::MultiRegister { id, scope } => {
                // A rejected registration of the controller's still
                // arrived: it counts, or the run could never end.
                self.regs += usize::from(from_controller);
                let id = PredicateId::new(id);
                match self.engine.register(id, &Wcp::over(scope)) {
                    // Catch-up replay already resolved the session.
                    Ok(Some(v)) => self.send_verdict(ctx, id, &v),
                    Ok(None) => {}
                    Err(_) => self.rejected += 1,
                }
            }
            DetectMsg::MultiUnregister { id } => {
                self.unregs += usize::from(from_controller);
                self.engine.unregister(PredicateId::new(id));
            }
            _ => {
                self.rejected += 1;
                return;
            }
        }
        self.drain(ctx);
    }
}

/// Wire-level verdicts collected by a [`MultiController`], keyed by raw
/// predicate id (`Some(g)` = detected cut over scope positions).
pub type CollectedVerdicts = Arc<Mutex<HashMap<u64, Option<Vec<u64>>>>>;

/// The registering/collecting client of a [`MultiService`].
pub struct MultiController {
    service: ActorId,
    registrations: Vec<(u64, Wcp)>,
    unregister: Vec<u64>,
    verdicts: CollectedVerdicts,
}

impl MultiController {
    /// A controller that registers `registrations` (in order), then
    /// unregisters the ids in `unregister`, then collects verdicts until
    /// the service announces end-of-verdicts.
    pub fn new(service: ActorId, registrations: Vec<(u64, Wcp)>, unregister: Vec<u64>) -> Self {
        MultiController {
            service,
            registrations,
            unregister,
            verdicts: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Shared handle to the verdicts collected off the wire.
    pub fn verdicts(&self) -> CollectedVerdicts {
        Arc::clone(&self.verdicts)
    }
}

impl Actor<DetectMsg> for MultiController {
    fn on_start(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        for (id, wcp) in &self.registrations {
            ctx.send(
                self.service,
                DetectMsg::MultiRegister {
                    id: *id,
                    scope: wcp.scope().to_vec(),
                },
            );
        }
        for &id in &self.unregister {
            ctx.send(self.service, DetectMsg::MultiUnregister { id });
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, _from: ActorId, msg: DetectMsg) {
        match msg {
            DetectMsg::MultiVerdict { id, verdict } => {
                self.verdicts
                    .lock()
                    .expect("controller poisoned")
                    .insert(id, verdict);
            }
            DetectMsg::EndOfTrace => {
                ctx.stop();
            }
            other => panic!("unexpected message for multi controller: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_single_offline;
    use wcp_clocks::{StateId, VectorClock};
    use wcp_detect::VcSnapshot;
    use wcp_trace::generate::{generate, GeneratorConfig};

    /// A context that keeps what the service sends.
    struct Outbox(Vec<(ActorId, DetectMsg)>);

    impl Context<DetectMsg> for Outbox {
        fn me(&self) -> ActorId {
            ActorId::new(u32::MAX)
        }

        fn send(&mut self, to: ActorId, msg: DetectMsg) {
            self.0.push((to, msg));
        }

        fn add_work(&mut self, _units: u64) {}

        fn stop(&mut self) {}
    }

    fn snapshot(interval: u64, clock: Vec<u64>) -> DetectMsg {
        DetectMsg::VcSnapshot(VcSnapshot {
            interval,
            clock: VectorClock::from_components(clock),
        })
    }

    /// Every kind of malformed message the service can be sent — the
    /// header's `from` names no process, a clock of the wrong width or
    /// with a wrong own component, a replayed interval, a snapshot after
    /// the close, rejected registrations, a kind the service does not
    /// serve — is dropped and counted. The honest sessions' verdicts and
    /// metrics stay those of running alone, and the run still ends: the
    /// controller's rejected registrations count as arrived.
    #[test]
    fn malformed_messages_are_dropped_and_counted_leaving_honest_sessions_alone() {
        let computation = generate(
            &GeneratorConfig::new(3, 10)
                .with_seed(5)
                .with_predicate_density(0.4),
        )
        .computation;
        let annotated = computation.annotate();
        let n = computation.process_count() as u32;
        let controller = ActorId::new(n + 1);
        let predicates = [
            Wcp::over_first(3),
            Wcp::over([ProcessId::new(0), ProcessId::new(2)]),
            Wcp::over([ProcessId::new(1)]),
        ];
        let engine = Arc::new(MultiEngine::new(n as usize));
        let rejected_regs = 3;
        let mut service = MultiService::new(
            Arc::clone(&engine),
            controller,
            predicates.len() + rejected_regs,
            0,
        );
        let mut ctx = Outbox(Vec::new());
        for (id, wcp) in predicates.iter().enumerate() {
            let scope = wcp.scope().to_vec();
            let msg = DetectMsg::MultiRegister {
                id: id as u64,
                scope,
            };
            service.on_message(&mut ctx, controller, msg);
        }
        let p0 = ActorId::new(0);
        let stranger = ActorId::new(n + 7);
        let hostile = [
            (stranger, snapshot(1, vec![1, 0, 0])),
            (stranger, DetectMsg::EndOfTrace),
            (p0, snapshot(1, vec![1, 0])),
            (p0, snapshot(1, vec![2, 0, 0])),
            (
                controller,
                DetectMsg::MultiRegister {
                    id: 0,
                    scope: vec![ProcessId::new(1)],
                },
            ),
            (
                controller,
                DetectMsg::MultiRegister {
                    id: 9,
                    scope: vec![ProcessId::new(n)],
                },
            ),
            (
                controller,
                DetectMsg::MultiRegister {
                    id: 10,
                    scope: vec![],
                },
            ),
            (
                stranger,
                DetectMsg::MultiRegister {
                    id: 11,
                    scope: vec![ProcessId::new(n)],
                },
            ),
            (controller, DetectMsg::DdToken),
        ];
        let mut expected_rejections = 0;
        for (from, msg) in hostile {
            service.on_message(&mut ctx, from, msg);
            expected_rejections += 1;
        }
        for p in ProcessId::all(n as usize) {
            let from = ActorId::new(p.index() as u32);
            for &k in annotated.true_intervals(p) {
                let clock = annotated.clock(StateId::new(p, k)).as_slice().to_vec();
                service.on_message(&mut ctx, from, snapshot(k, clock.clone()));
                // The same snapshot again breaks the FIFO order.
                service.on_message(&mut ctx, from, snapshot(k, clock));
                expected_rejections += 1;
            }
            service.on_message(&mut ctx, from, DetectMsg::EndOfTrace);
            let late = annotated.true_intervals(p).last().copied().unwrap_or(0) + 1;
            let mut clock = vec![0; n as usize];
            clock[p.index()] = late;
            service.on_message(&mut ctx, from, snapshot(late, clock));
            expected_rejections += 1;
        }
        assert_eq!(service.rejected(), expected_rejections);
        assert_eq!(engine.session_count(), predicates.len());
        for (id, wcp) in predicates.iter().enumerate() {
            let report = engine.report(PredicateId::new(id as u64)).unwrap();
            let (verdict, metrics) = run_single_offline(&computation, wcp);
            assert_eq!(report.verdict, Some(verdict), "id {id}");
            assert_eq!(report.metrics, metrics, "id {id}");
        }
        assert!(
            matches!(ctx.0.last(), Some((to, DetectMsg::EndOfTrace)) if *to == controller),
            "end-of-verdicts announced"
        );
    }
}
