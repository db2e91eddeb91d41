//! The application-process actor (Figure 2 and Section 4.1).
//!
//! Replays one process's scripted events, maintaining the clock the chosen
//! algorithm needs, and sends a local snapshot to its mated monitor the
//! first time its local predicate is true in each communication interval
//! (`firstflag`). When the script ends, it sends an end-of-trace marker so
//! finite experiments can report "undetected" instead of blocking forever.

use std::collections::HashMap;

use wcp_clocks::{Dependence, ProcessId, VectorClock};
use wcp_sim::{Actor, ActorId, Context, WireSize};
use wcp_trace::{Computation, Event, MsgId, Wcp};

use crate::online::messages::{ClockTag, DetectMsg};
use crate::online::vc_monitor::SharedStats;
use crate::snapshot::{DdSnapshot, VcSnapshot};

/// Which clock discipline the application processes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Figure 2: scope-projected vector clocks; only scope processes send
    /// snapshots.
    Vector,
    /// Section 4.1: scalar clocks and dependence lists; every process sends
    /// snapshots (trivially true predicates outside the scope).
    Scalar,
}

/// An application process replaying its trace script.
#[derive(Debug)]
pub struct AppProcess {
    pid: ProcessId,
    mode: ClockMode,
    script: Vec<Event>,
    pred: Vec<bool>,
    /// Scope position of this process, if it is in the predicate's scope.
    scope_pos: Option<usize>,
    /// `ActorId` of each application process, indexed by `ProcessId`.
    app_actors: Vec<ActorId>,
    /// This process's monitor, if it has one (vector mode: scope processes
    /// only; scalar mode: everyone).
    monitor: Option<ActorId>,
    /// Where the snapshots this process sends are counted.
    stats: SharedStats,

    next_event: usize,
    inbox: HashMap<MsgId, ClockTag>,
    vclock: VectorClock,
    scalar: u64,
    deplist: Vec<Dependence>,
    firstflag: bool,
    eot_sent: bool,
}

impl AppProcess {
    /// Builds the actor for process `pid` of `computation`.
    ///
    /// `app_actors` maps each `ProcessId` to its application actor;
    /// `monitor` is this process's monitor actor (required in scalar mode
    /// and for scope processes in vector mode); every snapshot sent is
    /// counted in `stats`.
    pub fn new(
        computation: &Computation,
        wcp: &Wcp,
        pid: ProcessId,
        mode: ClockMode,
        app_actors: Vec<ActorId>,
        monitor: Option<ActorId>,
        stats: SharedStats,
    ) -> Self {
        let trace = computation.process(pid);
        let scope_pos = wcp.position(pid);
        let mut vclock = VectorClock::new(wcp.n());
        if let Some(pos) = scope_pos {
            vclock.set(ProcessId::new(pos as u32), 1);
        }
        if mode == ClockMode::Scalar || scope_pos.is_some() {
            assert!(monitor.is_some(), "participating process needs a monitor");
        }
        AppProcess {
            pid,
            mode,
            script: trace.events.clone(),
            pred: trace.pred.clone(),
            scope_pos,
            app_actors,
            monitor,
            stats,
            next_event: 0,
            inbox: HashMap::new(),
            vclock,
            scalar: 1,
            deplist: Vec::new(),
            firstflag: true,
            eot_sent: false,
        }
    }

    /// Whether the local predicate (trivially true outside the scope in
    /// scalar mode) holds in 1-based interval `k`.
    fn pred_holds(&self, k: usize) -> bool {
        match self.mode {
            ClockMode::Vector => self.scope_pos.is_some() && self.pred[k - 1],
            ClockMode::Scalar => self.scope_pos.is_none() || self.pred[k - 1],
        }
    }

    fn maybe_snapshot(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        let k = self.next_event + 1; // current interval
        if !self.firstflag || !self.pred_holds(k) {
            return;
        }
        // In vector mode only scope processes snapshot; pred_holds already
        // excludes the rest.
        let Some(monitor) = self.monitor else { return };
        self.firstflag = false;
        let msg = match self.mode {
            ClockMode::Vector => DetectMsg::VcSnapshot(VcSnapshot {
                interval: k as u64,
                clock: self.vclock.clone(),
            }),
            ClockMode::Scalar => DetectMsg::DdSnapshot(DdSnapshot {
                clock: self.scalar,
                deps: std::mem::take(&mut self.deplist),
            }),
        };
        self.stats.snapshot(msg.wire_size() as u64);
        ctx.send(monitor, msg);
    }

    /// Executes script events until blocked on an undelivered message.
    fn step(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        loop {
            self.maybe_snapshot(ctx);
            let Some(event) = self.script.get(self.next_event).copied() else {
                if !self.eot_sent {
                    self.eot_sent = true;
                    if let Some(monitor) = self.monitor {
                        ctx.send(monitor, DetectMsg::EndOfTrace);
                    }
                }
                return;
            };
            match event {
                Event::Send { to, msg } => {
                    let tag = match self.mode {
                        ClockMode::Vector => ClockTag::Vector(self.vclock.clone()),
                        ClockMode::Scalar => ClockTag::Scalar(self.scalar),
                    };
                    ctx.send(self.app_actors[to.index()], DetectMsg::App { msg, tag });
                    self.advance_clock();
                }
                Event::Receive { from, msg } => {
                    let Some(tag) = self.inbox.remove(&msg) else {
                        return; // wait for delivery
                    };
                    match tag {
                        ClockTag::Vector(v) => self.vclock.merge(&v),
                        ClockTag::Scalar(k) => self.deplist.push(Dependence::new(from, k)),
                    }
                    self.advance_clock();
                }
            }
            self.next_event += 1;
            self.firstflag = true;
        }
    }

    /// Figure 2 / Section 4.1: the clock advances past each send/receive.
    fn advance_clock(&mut self) {
        if let Some(pos) = self.scope_pos {
            self.vclock.tick(ProcessId::new(pos as u32));
        }
        self.scalar += 1;
    }
}

impl Actor<DetectMsg> for AppProcess {
    fn on_start(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        self.step(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, _from: ActorId, msg: DetectMsg) {
        match msg {
            DetectMsg::App { msg, tag } => {
                let prev = self.inbox.insert(msg, tag);
                debug_assert!(prev.is_none(), "{}: duplicate delivery of {msg}", self.pid);
                self.step(ctx);
            }
            other => unreachable!("{}: unexpected message {other:?}", self.pid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use wcp_sim::{SimConfig, Simulation};
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Records everything a monitor would receive.
    struct SnapshotSink(Arc<Mutex<Vec<DetectMsg>>>);
    impl Actor<DetectMsg> for SnapshotSink {
        fn on_message(
            &mut self,
            _ctx: &mut dyn Context<DetectMsg>,
            _from: ActorId,
            msg: DetectMsg,
        ) {
            self.0.lock().unwrap().push(msg);
        }
    }

    /// Two processes exchanging one message; returns each monitor's inbox.
    fn run(mode: ClockMode, mark: fn(&mut ComputationBuilder)) -> Vec<Vec<DetectMsg>> {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        mark(&mut b);
        let c = b.build().unwrap();
        let wcp = Wcp::over_first(2);

        let mut sim = Simulation::new(SimConfig::seeded(1).with_fifo_default(true));
        let logs: Vec<Arc<Mutex<Vec<DetectMsg>>>> =
            (0..2).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        let apps = vec![ActorId::new(0), ActorId::new(1)];
        let monitors = [ActorId::new(2), ActorId::new(3)];
        for i in 0..2u32 {
            let actor = AppProcess::new(
                &c,
                &wcp,
                p(i),
                mode,
                apps.clone(),
                Some(monitors[i as usize]),
                Arc::default(),
            );
            sim.add_actor(Box::new(actor));
        }
        for log in &logs {
            sim.add_actor(Box::new(SnapshotSink(log.clone())));
        }
        sim.run();
        logs.iter().map(|l| l.lock().unwrap().clone()).collect()
    }

    #[test]
    fn vector_mode_emits_projected_snapshots_and_eot() {
        let inboxes = run(ClockMode::Vector, |b| {
            b.mark_true(p(0)); // before any event? No: after builder ops — P0 interval 2
            b.mark_true(p(1)); // P1 interval 2
        });
        // P0: snapshot at interval 2 with clock [2,0], then EOT.
        assert_eq!(
            inboxes[0],
            vec![
                DetectMsg::VcSnapshot(VcSnapshot {
                    interval: 2,
                    clock: VectorClock::from_components(vec![2, 0]),
                }),
                DetectMsg::EndOfTrace
            ]
        );
        // P1 merged P0's send clock [1,0]: snapshot [1,2].
        assert_eq!(
            inboxes[1],
            vec![
                DetectMsg::VcSnapshot(VcSnapshot {
                    interval: 2,
                    clock: VectorClock::from_components(vec![1, 2]),
                }),
                DetectMsg::EndOfTrace
            ]
        );
    }

    #[test]
    fn scalar_mode_carries_dependences() {
        let inboxes = run(ClockMode::Scalar, |b| {
            b.mark_true(p(1));
        });
        // P0 has no true interval: just EOT.
        assert_eq!(inboxes[0], vec![DetectMsg::EndOfTrace]);
        assert_eq!(
            inboxes[1],
            vec![
                DetectMsg::DdSnapshot(DdSnapshot {
                    clock: 2,
                    deps: vec![Dependence::new(p(0), 1)],
                }),
                DetectMsg::EndOfTrace
            ]
        );
    }

    #[test]
    fn one_snapshot_per_interval_firstflag() {
        // Predicate true in both of P0's intervals: two snapshots, not more.
        let inboxes = run(ClockMode::Vector, |b| {
            b.set_pred(p(0), 1, true);
            b.set_pred(p(0), 2, true);
        });
        let snapshots = inboxes[0]
            .iter()
            .filter(|m| matches!(m, DetectMsg::VcSnapshot(_)))
            .count();
        assert_eq!(snapshots, 2);
    }

    #[test]
    fn app_messages_have_mode_appropriate_tags() {
        let msg_v = DetectMsg::App {
            msg: MsgId::new(0),
            tag: ClockTag::Vector(VectorClock::new(2)),
        };
        let msg_s = DetectMsg::App {
            msg: MsgId::new(0),
            tag: ClockTag::Scalar(1),
        };
        assert!(msg_v.wire_size() > msg_s.wire_size());
    }
}
