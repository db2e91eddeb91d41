//! The discrete-event loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use wcp_obs::rng::Rng;
use wcp_obs::{LogicalTime, NullRecorder, Recorder, TraceEvent};

use crate::actor::{Actor, ActorId, Context, WireSize};
use crate::config::{LatencyModel, SimConfig};
use crate::metrics::SimMetrics;

/// Discrete simulation time, in abstract ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No messages remained in flight.
    QueueDrained,
    /// An actor called [`Context::stop`].
    Stopped,
    /// The [`SimConfig::max_deliveries`] safety valve fired.
    DeliveryLimit,
}

/// Result of [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutcome {
    /// Why the run ended.
    pub reason: StopReason,
    /// Simulated time at the end of the run — the paper-level "detection
    /// latency" measure used by the parallelism experiments (E4, E8).
    pub time: SimTime,
    /// Total messages delivered.
    pub delivered: u64,
}

struct Delivery<M> {
    at: u64,
    seq: u64,
    sent_at: u64,
    from: ActorId,
    to: ActorId,
    msg: M,
}

impl<M> PartialEq for Delivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Delivery<M> {}
impl<M> PartialOrd for Delivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delivery<M> {
    /// Reversed so the `BinaryHeap` pops the earliest delivery first; `seq`
    /// breaks ties deterministically.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Side effects collected while one handler runs.
struct Effects<M> {
    me: ActorId,
    now: u64,
    outbox: Vec<(ActorId, M)>,
    work: u64,
    stop: bool,
}

impl<M> Context<M> for Effects<M> {
    fn me(&self) -> ActorId {
        self.me
    }
    fn send(&mut self, to: ActorId, msg: M) {
        self.outbox.push((to, msg));
    }
    fn add_work(&mut self, units: u64) {
        self.work += units;
    }
    fn stop(&mut self) {
        self.stop = true;
    }
    fn now(&self) -> u64 {
        self.now
    }
}

/// A deterministic discrete-event simulation of asynchronous message
/// passing among a set of [`Actor`]s.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulation<M> {
    config: SimConfig,
    actors: Vec<Box<dyn Actor<M>>>,
    queue: BinaryHeap<Delivery<M>>,
    rng: Rng,
    metrics: SimMetrics,
    recorder: Arc<dyn Recorder>,
    now: u64,
    seq: u64,
    delivered: u64,
    stop_requested: bool,
    started: bool,
    /// Latest scheduled delivery time per FIFO channel, to keep order.
    fifo_watermark: HashMap<(ActorId, ActorId), u64>,
}

impl<M: WireSize> Simulation<M> {
    /// Creates an empty simulation.
    pub fn new(config: SimConfig) -> Self {
        let rng = Rng::seed_from_u64(config.seed);
        Simulation {
            config,
            actors: Vec::new(),
            queue: BinaryHeap::new(),
            rng,
            metrics: SimMetrics::new(0),
            recorder: Arc::new(NullRecorder),
            now: 0,
            seq: 0,
            delivered: 0,
            stop_requested: false,
            started: false,
            fifo_watermark: HashMap::new(),
        }
    }

    /// Registers an actor, returning its id. Actors must be added before
    /// [`run`](Self::run).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId::new(self.actors.len() as u32);
        self.actors.push(actor);
        self.metrics.ensure(self.actors.len());
        id
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Attaches an event recorder. The simulator emits a
    /// [`TraceEvent::MessageDelivered`] per delivery (attributed to the
    /// receiving actor, with its queueing delay); actors may share the same
    /// recorder to emit their own algorithm-level events.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Injects a message from the outside (attributed to `from`), e.g. to
    /// bootstrap a protocol in tests.
    pub fn post(&mut self, from: ActorId, to: ActorId, msg: M) {
        self.schedule(from, to, msg);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now)
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The stall table of every actor (see [`status_report`](crate::status_report)).
    pub fn status_report(&self) -> String {
        crate::status_report(self.actors.iter().map(|a| &**a))
    }

    /// Runs until no messages are in flight, an actor stops the run, or the
    /// delivery safety valve fires.
    pub fn run(&mut self) -> SimOutcome {
        if !self.started {
            self.started = true;
            for i in 0..self.actors.len() {
                let id = ActorId::new(i as u32);
                self.dispatch(id, None);
                if self.stop_requested {
                    return self.outcome(StopReason::Stopped);
                }
            }
        }
        while let Some(delivery) = self.queue.pop() {
            self.now = self.now.max(delivery.at);
            self.delivered += 1;
            let to = delivery.to;
            self.metrics.actor_mut(to).received += 1;
            if self.recorder.is_enabled() {
                self.recorder.record(
                    to.index() as u32,
                    LogicalTime::Tick(self.now),
                    TraceEvent::MessageDelivered {
                        from: delivery.from.index() as u32,
                        to: to.index() as u32,
                        delay: self.now - delivery.sent_at,
                    },
                );
            }
            self.dispatch(to, Some((delivery.from, delivery.msg)));
            if self.stop_requested {
                return self.outcome(StopReason::Stopped);
            }
            if self.config.max_deliveries > 0 && self.delivered >= self.config.max_deliveries {
                return self.outcome(StopReason::DeliveryLimit);
            }
        }
        self.outcome(StopReason::QueueDrained)
    }

    fn outcome(&self, reason: StopReason) -> SimOutcome {
        SimOutcome {
            reason,
            time: SimTime(self.now),
            delivered: self.delivered,
        }
    }

    /// Runs one handler (on_start when `event` is `None`) and applies its
    /// effects.
    fn dispatch(&mut self, id: ActorId, event: Option<(ActorId, M)>) {
        let mut effects = Effects {
            me: id,
            now: self.now,
            outbox: Vec::new(),
            work: 0,
            stop: false,
        };
        // Temporarily take the actor out so the handler can borrow the
        // context without aliasing the simulation.
        let mut actor = std::mem::replace(&mut self.actors[id.index()], Box::new(Inert));
        match event {
            None => actor.on_start(&mut effects),
            Some((from, msg)) => actor.on_message(&mut effects, from, msg),
        }
        self.actors[id.index()] = actor;

        self.metrics.actor_mut(id).work += effects.work;
        self.stop_requested |= effects.stop;
        for (to, msg) in effects.outbox {
            self.schedule(id, to, msg);
        }
    }

    fn schedule(&mut self, from: ActorId, to: ActorId, msg: M) {
        assert!(
            to.index() < self.actors.len(),
            "message addressed to unregistered actor {to}"
        );
        let latency = match self.config.latency {
            LatencyModel::Fixed { ticks } => ticks,
            LatencyModel::Uniform { min, max } => self.rng.gen_range(min..=max),
        };
        let mut at = self.now + latency;
        if self.config.is_fifo(from, to) {
            let watermark = self.fifo_watermark.entry((from, to)).or_insert(0);
            at = at.max(*watermark);
            *watermark = at;
        }
        {
            let m = self.metrics.actor_mut(from);
            m.sent += 1;
            m.bytes_sent += msg.wire_size() as u64;
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Delivery {
            at,
            seq,
            sent_at: self.now,
            from,
            to,
            msg,
        });
    }
}

impl<M> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("actors", &self.actors.len())
            .field("now", &self.now)
            .field("in_flight", &self.queue.len())
            .field("delivered", &self.delivered)
            .finish()
    }
}

/// Placeholder actor occupying a slot while its real actor is dispatched.
struct Inert;
impl<M> Actor<M> for Inert {
    fn on_message(&mut self, _ctx: &mut dyn Context<M>, _from: ActorId, _msg: M) {
        unreachable!("inert placeholder actor received a message");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl WireSize for Num {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Records the order in which payloads arrive.
    struct Recorder(Arc<Mutex<Vec<u64>>>);
    impl Actor<Num> for Recorder {
        fn on_message(&mut self, ctx: &mut dyn Context<Num>, _from: ActorId, msg: Num) {
            ctx.add_work(1);
            self.0.lock().unwrap().push(msg.0);
        }
    }

    /// Sends 0..n to a peer on start.
    struct Burst {
        to: ActorId,
        n: u64,
    }
    impl Actor<Num> for Burst {
        fn on_start(&mut self, ctx: &mut dyn Context<Num>) {
            for i in 0..self.n {
                ctx.send(self.to, Num(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn Context<Num>, _from: ActorId, _msg: Num) {}
    }

    fn recorder_pair(config: SimConfig, n: u64) -> (SimOutcome, Vec<u64>, SimMetrics) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(config);
        let rec = sim.add_actor(Box::new(Recorder(log.clone())));
        let _src = sim.add_actor(Box::new(Burst { to: rec, n }));
        let outcome = sim.run();
        let order = log.lock().unwrap().clone();
        (outcome, order, sim.metrics().clone())
    }

    #[test]
    fn fifo_channel_preserves_order() {
        let config = SimConfig::seeded(3)
            .with_latency(LatencyModel::Uniform { min: 1, max: 50 })
            .with_fifo_default(true);
        let (outcome, order, _) = recorder_pair(config, 20);
        assert_eq!(outcome.reason, StopReason::QueueDrained);
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn non_fifo_channel_reorders_under_jitter() {
        let config = SimConfig::seeded(3).with_latency(LatencyModel::Uniform { min: 1, max: 50 });
        let (_, order, _) = recorder_pair(config, 20);
        assert_eq!(order.len(), 20);
        assert_ne!(order, (0..20).collect::<Vec<_>>(), "expected reordering");
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = SimConfig::seeded(7).with_latency(LatencyModel::Uniform { min: 1, max: 9 });
        let (o1, order1, m1) = recorder_pair(cfg.clone(), 30);
        let (o2, order2, m2) = recorder_pair(cfg, 30);
        assert_eq!(o1, o2);
        assert_eq!(order1, order2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn metrics_count_messages_bytes_work() {
        let cfg = SimConfig::seeded(0).with_latency(LatencyModel::Fixed { ticks: 1 });
        let (_, _, metrics) = recorder_pair(cfg, 5);
        assert_eq!(metrics.total_sent(), 5);
        assert_eq!(metrics.total_bytes(), 40);
        assert_eq!(metrics.total_work(), 5); // recorder adds 1 per delivery
        assert_eq!(metrics.actor(ActorId::new(1)).sent, 5);
        assert_eq!(metrics.actor(ActorId::new(0)).received, 5);
    }

    #[test]
    fn stop_halts_immediately() {
        struct Stopper;
        impl Actor<Num> for Stopper {
            fn on_message(&mut self, ctx: &mut dyn Context<Num>, from: ActorId, msg: Num) {
                if msg.0 >= 3 {
                    ctx.stop();
                } else {
                    ctx.send(from, Num(msg.0 + 1));
                }
            }
        }
        let mut sim = Simulation::new(SimConfig::seeded(0));
        let a = sim.add_actor(Box::new(Stopper));
        let b = sim.add_actor(Box::new(Stopper));
        sim.post(a, b, Num(0));
        let outcome = sim.run();
        assert_eq!(outcome.reason, StopReason::Stopped);
        assert_eq!(outcome.delivered, 4); // 0,1,2,3
    }

    #[test]
    fn delivery_limit_fires() {
        struct PingPong;
        impl Actor<Num> for PingPong {
            fn on_message(&mut self, ctx: &mut dyn Context<Num>, from: ActorId, msg: Num) {
                ctx.send(from, msg);
            }
        }
        let mut sim = Simulation::new(SimConfig::seeded(0).with_max_deliveries(25));
        let a = sim.add_actor(Box::new(PingPong));
        let b = sim.add_actor(Box::new(PingPong));
        sim.post(a, b, Num(0));
        let outcome = sim.run();
        assert_eq!(outcome.reason, StopReason::DeliveryLimit);
        assert_eq!(outcome.delivered, 25);
    }

    #[test]
    fn time_advances_with_latency() {
        let cfg = SimConfig::seeded(0).with_latency(LatencyModel::Fixed { ticks: 10 });
        let (outcome, _, _) = recorder_pair(cfg, 3);
        // All three sent at t0, delivered at t10.
        assert_eq!(outcome.time, SimTime(10));
    }

    #[test]
    fn recorder_sees_each_delivery_with_its_delay() {
        use wcp_obs::RingRecorder;
        let ring = Arc::new(RingRecorder::new(64));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim =
            Simulation::new(SimConfig::seeded(0).with_latency(LatencyModel::Fixed { ticks: 4 }));
        sim.set_recorder(ring.clone());
        let rec = sim.add_actor(Box::new(Recorder(log.clone())));
        sim.add_actor(Box::new(Burst { to: rec, n: 3 }));
        sim.run();
        let events = ring.events();
        assert_eq!(events.len(), 3);
        for e in &events {
            assert_eq!(e.monitor, rec.index() as u32);
            assert_eq!(e.time, LogicalTime::Tick(4));
            match e.event {
                TraceEvent::MessageDelivered { from, to, delay } => {
                    assert_eq!((from, to, delay), (1, 0, 4));
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "unregistered actor")]
    fn sending_to_unknown_actor_panics() {
        let mut sim: Simulation<Num> = Simulation::new(SimConfig::default());
        let a = sim.add_actor(Box::new(Recorder(Arc::new(Mutex::new(Vec::new())))));
        sim.post(a, ActorId::new(9), Num(0));
    }

    #[test]
    fn on_start_runs_once_per_actor() {
        struct Greeter {
            peer: ActorId,
            started: Arc<Mutex<u32>>,
        }
        impl Actor<Num> for Greeter {
            fn on_start(&mut self, ctx: &mut dyn Context<Num>) {
                *self.started.lock().unwrap() += 1;
                ctx.send(self.peer, Num(1));
            }
            fn on_message(&mut self, _: &mut dyn Context<Num>, _: ActorId, _: Num) {}
        }
        let started = Arc::new(Mutex::new(0));
        let mut sim = Simulation::new(SimConfig::seeded(0));
        let sink = sim.add_actor(Box::new(Recorder(Arc::new(Mutex::new(Vec::new())))));
        sim.add_actor(Box::new(Greeter {
            peer: sink,
            started: started.clone(),
        }));
        sim.run();
        sim.run(); // second run must not restart actors
        assert_eq!(*started.lock().unwrap(), 1);
    }
}
