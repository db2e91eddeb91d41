//! Live trace recording.
//!
//! The detection algorithms consume a recorded [`Computation`]; this crate
//! closes the loop for real programs: write your distributed application as
//! plain actors ([`Application`]), run it on the deterministic simulator
//! through a [`Recorder`], and get back the exact `Computation` of that run
//! — every send, receive, and per-interval local-predicate value — ready
//! for any `wcp-detect` algorithm.
//!
//! Under the hood each application process is wrapped in a recording proxy
//! that (a) tags every outgoing message with a globally unique
//! [`MsgId`], (b) logs the send/receive events in program
//! order, and (c) samples [`Application::local_predicate`] at every handler
//! boundary (the observable quiescent points of an actor), marking the
//! current communication interval.
//!
//! # Example: detecting simultaneous idleness
//!
//! ```rust
//! use wcp_record::{Application, Recorder};
//! use wcp_sim::{ActorId, Context, SimConfig, WireSize};
//! use wcp_trace::Wcp;
//! use wcp_detect::{Detector, TokenDetector};
//!
//! #[derive(Clone)]
//! struct Job(u32);
//! impl WireSize for Job {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! /// Bounces a job back and forth `hops` times; "idle" = no job in hand.
//! struct Worker { peer: ActorId, kick_off: bool, idle: bool }
//! impl Application<Job> for Worker {
//!     fn on_start(&mut self, ctx: &mut dyn Context<Job>) {
//!         if self.kick_off {
//!             ctx.send(self.peer, Job(3));
//!             self.idle = true; // handed the job off
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut dyn Context<Job>, _from: ActorId, job: Job) {
//!         self.idle = false;
//!         if job.0 > 0 {
//!             ctx.send(self.peer, Job(job.0 - 1));
//!             self.idle = true;
//!         }
//!     }
//!     fn local_predicate(&self) -> bool { self.idle }
//! }
//!
//! let mut recorder = Recorder::new(SimConfig::seeded(1));
//! let w0 = recorder.add_process(Box::new(Worker { peer: ActorId::new(1), kick_off: true,  idle: true }));
//! let _w1 = recorder.add_process(Box::new(Worker { peer: ActorId::new(0), kick_off: false, idle: true }));
//! let run = recorder.run();
//!
//! // Were both workers ever idle on a consistent cut?
//! let report = TokenDetector::new().detect(&run.computation.annotate(), &Wcp::over_first(2));
//! assert!(report.detection.is_detected());
//! # let _ = w0;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::Mutex;
use wcp_clocks::ProcessId;
use wcp_sim::{Actor, ActorId, Context, SimConfig, SimOutcome, Simulation, WireSize};
use wcp_trace::{Computation, Event, MsgId, ProcessTrace};

/// An application process whose run is being recorded.
///
/// Identical to [`wcp_sim::Actor`] plus a sampled local predicate. In a
/// recording, `ActorId::new(i)` and `ProcessId::new(i)` refer to the same
/// process.
pub trait Application<M>: Send {
    /// Invoked once before any message is delivered.
    fn on_start(&mut self, ctx: &mut dyn Context<M>) {
        let _ = ctx;
    }

    /// Invoked for each delivered message.
    fn on_message(&mut self, ctx: &mut dyn Context<M>, from: ActorId, msg: M);

    /// The process's local predicate, sampled at every handler boundary.
    ///
    /// The sampled value is attributed to the communication interval in
    /// effect when the handler returns; intervals that begin and end
    /// *inside* one handler (between two sends) are never observed
    /// quiescent and keep `false`.
    fn local_predicate(&self) -> bool;
}

/// A message wrapped with its recording identity.
#[derive(Debug, Clone)]
pub struct Recorded<M> {
    /// Trace-level message id.
    pub msg: MsgId,
    /// The application payload.
    pub inner: M,
}

impl<M: WireSize> WireSize for Recorded<M> {
    fn wire_size(&self) -> usize {
        8 + self.inner.wire_size()
    }
}

/// Per-process growing trace.
#[derive(Debug, Default)]
struct ProcessLog {
    events: Vec<Event>,
    pred: Vec<bool>,
}

impl ProcessLog {
    fn new() -> Self {
        ProcessLog {
            events: Vec::new(),
            pred: vec![false],
        }
    }

    fn push_event(&mut self, event: Event) {
        self.events.push(event);
        self.pred.push(false);
    }

    fn mark_current(&mut self, value: bool) {
        if value {
            *self.pred.last_mut().expect("at least one interval") = true;
        }
    }
}

/// Context proxy: tags and logs outgoing sends.
struct RecordingCtx<'a, M> {
    inner: &'a mut dyn Context<Recorded<M>>,
    pid: ProcessId,
    log: &'a Mutex<ProcessLog>,
    next_msg: &'a AtomicU64,
}

impl<M> Context<M> for RecordingCtx<'_, M> {
    fn me(&self) -> ActorId {
        self.inner.me()
    }

    fn send(&mut self, to: ActorId, msg: M) {
        assert_ne!(
            to.index(),
            self.pid.index(),
            "recorded applications must not send to themselves"
        );
        let id = MsgId::new(self.next_msg.fetch_add(1, Ordering::Relaxed));
        self.log.lock().unwrap().push_event(Event::Send {
            to: ProcessId::new(to.index() as u32),
            msg: id,
        });
        self.inner.send(
            to,
            Recorded {
                msg: id,
                inner: msg,
            },
        );
    }

    fn add_work(&mut self, units: u64) {
        self.inner.add_work(units);
    }

    fn stop(&mut self) {
        self.inner.stop();
    }
}

/// Actor proxy around one [`Application`].
struct RecordingActor<M, A> {
    app: A,
    pid: ProcessId,
    log: Arc<Mutex<ProcessLog>>,
    next_msg: Arc<AtomicU64>,
    _marker: std::marker::PhantomData<fn(M)>,
}

impl<M: WireSize + Send + 'static, A: Application<M>> Actor<Recorded<M>> for RecordingActor<M, A> {
    fn on_start(&mut self, ctx: &mut dyn Context<Recorded<M>>) {
        let mut rctx = RecordingCtx {
            inner: ctx,
            pid: self.pid,
            log: &self.log,
            next_msg: &self.next_msg,
        };
        self.app.on_start(&mut rctx);
        self.log
            .lock()
            .unwrap()
            .mark_current(self.app.local_predicate());
    }

    fn on_message(&mut self, ctx: &mut dyn Context<Recorded<M>>, from: ActorId, msg: Recorded<M>) {
        self.log.lock().unwrap().push_event(Event::Receive {
            from: ProcessId::new(from.index() as u32),
            msg: msg.msg,
        });
        let mut rctx = RecordingCtx {
            inner: ctx,
            pid: self.pid,
            log: &self.log,
            next_msg: &self.next_msg,
        };
        self.app.on_message(&mut rctx, from, msg.inner);
        self.log
            .lock()
            .unwrap()
            .mark_current(self.app.local_predicate());
    }
}

/// The result of a recorded run.
#[derive(Debug, Clone)]
pub struct RecordedRun {
    /// The recorded computation (always valid).
    pub computation: Computation,
    /// Raw simulation outcome of the application run.
    pub outcome: SimOutcome,
}

/// Runs applications on the deterministic simulator while recording their
/// computation.
pub struct Recorder<M> {
    sim: Simulation<Recorded<M>>,
    logs: Vec<Arc<Mutex<ProcessLog>>>,
    next_msg: Arc<AtomicU64>,
}

impl<M: WireSize + Send + 'static> Recorder<M> {
    /// Creates a recorder over a simulated network.
    pub fn new(config: SimConfig) -> Self {
        Recorder {
            sim: Simulation::new(config),
            logs: Vec::new(),
            next_msg: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Registers an application process; `ProcessId::new(i)` in the
    /// recorded trace corresponds to the returned `ActorId::new(i)`.
    pub fn add_process(&mut self, app: Box<dyn Application<M>>) -> ProcessId {
        let log = Arc::new(Mutex::new(ProcessLog::new()));
        self.logs.push(log.clone());
        let pid = ProcessId::new(self.logs.len() as u32 - 1);
        let actor = RecordingActor {
            app: BoxedApp(app),
            pid,
            log,
            next_msg: self.next_msg.clone(),
            _marker: std::marker::PhantomData,
        };
        let actor_id = self.sim.add_actor(Box::new(actor));
        debug_assert_eq!(actor_id.index(), pid.index());
        pid
    }

    /// Number of registered processes.
    pub fn process_count(&self) -> usize {
        self.logs.len()
    }

    /// Runs the application to quiescence (or until it stops itself) and
    /// assembles the recorded computation.
    ///
    /// # Panics
    ///
    /// Panics if no process was added (a computation has at least one
    /// process), or if the recorded trace fails validation — impossible
    /// unless an application bypasses the recording context.
    pub fn run(mut self) -> RecordedRun {
        assert!(
            !self.logs.is_empty(),
            "a recorded computation needs at least one process"
        );
        let outcome = self.sim.run();
        let traces: Vec<ProcessTrace> = self
            .logs
            .iter()
            .map(|log| {
                let log = log.lock().unwrap();
                ProcessTrace {
                    events: log.events.clone(),
                    pred: log.pred.clone(),
                }
            })
            .collect();
        let computation = Computation::from_traces(traces);
        computation
            .validate()
            .expect("recorded computations are valid by construction");
        RecordedRun {
            computation,
            outcome,
        }
    }
}

impl<M> std::fmt::Debug for Recorder<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("processes", &self.logs.len())
            .finish()
    }
}

/// Adapter so `Box<dyn Application<M>>` itself implements [`Application`].
struct BoxedApp<M>(Box<dyn Application<M>>);

impl<M> Application<M> for BoxedApp<M> {
    fn on_start(&mut self, ctx: &mut dyn Context<M>) {
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Context<M>, from: ActorId, msg: M) {
        self.0.on_message(ctx, from, msg);
    }
    fn local_predicate(&self) -> bool {
        self.0.local_predicate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_detect::{Detection, Detector, TokenDetector};
    use wcp_trace::Wcp;

    #[derive(Clone)]
    struct Byte(u8);
    impl WireSize for Byte {
        fn wire_size(&self) -> usize {
            1
        }
    }

    /// Sends `count` messages to `to` on start, then is "done".
    struct Burst {
        to: Option<ActorId>,
        count: u8,
        done: bool,
    }
    impl Application<Byte> for Burst {
        fn on_start(&mut self, ctx: &mut dyn Context<Byte>) {
            if let Some(to) = self.to {
                for i in 0..self.count {
                    ctx.send(to, Byte(i));
                }
            }
            self.done = true;
        }
        fn on_message(&mut self, _ctx: &mut dyn Context<Byte>, _from: ActorId, _msg: Byte) {}
        fn local_predicate(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn records_sends_and_receives_with_matching_ids() {
        let mut rec = Recorder::new(SimConfig::seeded(0));
        let p0 = rec.add_process(Box::new(Burst {
            to: Some(ActorId::new(1)),
            count: 3,
            done: false,
        }));
        let p1 = rec.add_process(Box::new(Burst {
            to: None,
            count: 0,
            done: false,
        }));
        let run = rec.run();
        let c = &run.computation;
        assert_eq!(c.process_count(), 2);
        assert_eq!(c.process(p0).events.len(), 3);
        assert_eq!(c.process(p1).events.len(), 3);
        assert!(c.process(p0).events.iter().all(Event::is_send));
        assert!(c.process(p1).events.iter().all(Event::is_receive));
        assert!(c.validate().is_ok());
        assert_eq!(run.outcome.delivered, 3);
    }

    #[test]
    fn predicate_sampled_at_handler_boundaries() {
        let mut rec = Recorder::new(SimConfig::seeded(0));
        let p0 = rec.add_process(Box::new(Burst {
            to: Some(ActorId::new(1)),
            count: 2,
            done: false,
        }));
        rec.add_process(Box::new(Burst {
            to: None,
            count: 0,
            done: false,
        }));
        let run = rec.run();
        let trace = run.computation.process(p0);
        // Intervals: 1 (pre-send), 2 (between the sends), 3 (after both).
        // Only interval 3 is observed quiescent with done = true.
        assert_eq!(trace.pred, vec![false, false, true]);
    }

    #[test]
    fn recorded_run_is_detectable_end_to_end() {
        let mut rec = Recorder::new(SimConfig::seeded(7));
        rec.add_process(Box::new(Burst {
            to: Some(ActorId::new(1)),
            count: 1,
            done: false,
        }));
        rec.add_process(Box::new(Burst {
            to: None,
            count: 0,
            done: true, // trivially done
        }));
        assert_eq!(rec.process_count(), 2);
        let run = rec.run();
        let report = TokenDetector::new().detect(&run.computation.annotate(), &Wcp::over_first(2));
        assert!(matches!(report.detection, Detection::Detected { .. }));
    }

    /// Ping-pong with a decreasing counter: both sides are idle iff the
    /// counter is exhausted on their side.
    struct PingPong {
        peer: ActorId,
        kick: Option<u8>,
        holding: bool,
    }
    impl Application<Byte> for PingPong {
        fn on_start(&mut self, ctx: &mut dyn Context<Byte>) {
            if let Some(k) = self.kick.take() {
                ctx.send(self.peer, Byte(k));
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<Byte>, _from: ActorId, msg: Byte) {
            self.holding = true;
            if msg.0 > 0 {
                ctx.send(self.peer, Byte(msg.0 - 1));
                self.holding = false;
            }
        }
        fn local_predicate(&self) -> bool {
            !self.holding
        }
    }

    #[test]
    fn ping_pong_recording_matches_expected_shape() {
        let mut rec = Recorder::new(SimConfig::seeded(3));
        let a = rec.add_process(Box::new(PingPong {
            peer: ActorId::new(1),
            kick: Some(4),
            holding: false,
        }));
        let b = rec.add_process(Box::new(PingPong {
            peer: ActorId::new(0),
            kick: None,
            holding: false,
        }));
        let run = rec.run();
        let c = &run.computation;
        // 5 messages total: kick(4), 3,2,1,0.
        assert_eq!(c.total_messages(), 5);
        // Process a's pre-kick interval is never observed quiescent (the
        // sample happens after on_start's send), so its first idle
        // interval is 2 — which is concurrent with b's untouched interval
        // 1: the minimum cut is ⟨2,1⟩.
        let report = TokenDetector::new().detect(&c.annotate(), &Wcp::over_first(2));
        let cut = report.detection.cut().expect("initial idleness");
        assert_eq!(cut[a], 2);
        assert_eq!(cut[b], 1);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn running_without_processes_is_rejected() {
        Recorder::<Byte>::new(SimConfig::seeded(0)).run();
    }

    #[test]
    #[should_panic(expected = "must not send to themselves")]
    fn self_sends_are_rejected() {
        struct SelfSender;
        impl Application<Byte> for SelfSender {
            fn on_start(&mut self, ctx: &mut dyn Context<Byte>) {
                let me = ctx.me();
                ctx.send(me, Byte(0));
            }
            fn on_message(&mut self, _: &mut dyn Context<Byte>, _: ActorId, _: Byte) {}
            fn local_predicate(&self) -> bool {
                false
            }
        }
        let mut rec = Recorder::new(SimConfig::seeded(0));
        rec.add_process(Box::new(SelfSender));
        rec.run();
    }

    #[test]
    fn deterministic_recordings_for_equal_seeds() {
        let make = |seed| {
            let mut rec = Recorder::new(SimConfig::seeded(seed));
            rec.add_process(Box::new(PingPong {
                peer: ActorId::new(1),
                kick: Some(6),
                holding: false,
            }));
            rec.add_process(Box::new(PingPong {
                peer: ActorId::new(0),
                kick: None,
                holding: false,
            }));
            rec.run().computation
        };
        assert_eq!(make(5), make(5));
    }
}
