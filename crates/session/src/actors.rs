//! The session service and controller actors.
//!
//! The service hosts one [`MultiEngine`] behind an actor mailbox: every
//! application process streams its Figure 2 snapshots (full-width clocks,
//! `Wcp::over_all`) plus an end-of-trace marker to it, and a controller
//! registers/unregisters predicates and collects per-predicate verdicts.
//! The same two actors run unmodified on the discrete-event simulator
//! and on `wcp-net`'s socket peers (`wcp serve --multi`) — the engine's
//! canonical routed log makes the outcome transport-independent.
//!
//! Termination: the service announces end-of-verdicts with a final
//! [`EndOfTrace`](DetectMsg::EndOfTrace) to the controller once every
//! process closed, every expected (un)registration arrived, and every
//! live session resolved; the controller then stops the run. FIFO
//! service → controller channels make "after every verdict" meaningful.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use wcp_clocks::ProcessId;
use wcp_detect::online::DetectMsg;
use wcp_sim::{Actor, ActorId, Context};
use wcp_trace::Wcp;

use crate::engine::MultiEngine;
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
    /// Fan-out workers per pump: `1` (the default) pumps serially on the
    /// service thread, `> 1` uses the sharded parallel pump. Verdicts and
    /// metrics are bit-identical either way.
    pump_threads: usize,
}

impl MultiService {
    /// A service over `engine`, reporting to `controller` and expecting
    /// exactly `expected_regs` registrations and `expected_unregs`
    /// unregistrations before it can declare the run complete.
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
            pump_threads: 1,
        }
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
        match msg {
            DetectMsg::VcSnapshot(s) => {
                let p = ProcessId::new(from.index() as u32);
                self.engine.ingest(p, s.interval, s.clock.as_slice());
                self.drain(ctx);
            }
            DetectMsg::EndOfTrace => {
                let p = ProcessId::new(from.index() as u32);
                self.engine.close(p);
                self.closed[p.index()] = true;
                self.drain(ctx);
            }
            DetectMsg::MultiRegister { id, scope } => {
                self.regs += 1;
                let id = PredicateId::new(id);
                match self.engine.register(id, &Wcp::over(scope)) {
                    // Catch-up replay already resolved the session.
                    Ok(Some(v)) => self.send_verdict(ctx, id, &v),
                    Ok(None) => {}
                    Err(e) => panic!("multi service rejected registration: {e}"),
                }
                self.drain(ctx);
            }
            DetectMsg::MultiUnregister { id } => {
                self.unregs += 1;
                self.engine.unregister(PredicateId::new(id));
                self.drain(ctx);
            }
            other => panic!("unexpected message for multi service: {other:?}"),
        }
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
    finished: Arc<AtomicBool>,
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
            finished: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Shared handle to the verdicts collected off the wire.
    pub fn verdicts(&self) -> CollectedVerdicts {
        Arc::clone(&self.verdicts)
    }

    /// Shared flag set once the service announced end-of-verdicts.
    pub fn finished(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.finished)
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
                self.finished.store(true, Ordering::Release);
                ctx.stop();
            }
            other => panic!("unexpected message for multi controller: {other:?}"),
        }
    }
}
