//! The `session-stream` workload: one generator thread feeds detectable
//! 16-process streams into a `MultiEngine` holding 10 000 predicates
//! registered in advance.
//!
//! - The open-loop leg offers snapshots at the frozen rate [`RATE`],
//!   ingests whatever is due and calls `pump_parallel(2)` once per tick,
//!   and registers and unregisters late predicates at a fixed rate.
//! - The closed-loop leg ingests the same streams in tick-sized chunks as
//!   fast as the engine takes them.
//!
//! It loads the store, the router, the pump and `clocks::par` per tick,
//! plus the replay-on-register path, with no wire and no parse.

use std::time::{Duration, Instant};

use crate::report::{Metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, median, quantile, SplitMix};
use crate::system::{self, Engine, Snapshot, WIDTH};
use crate::Config;

/// Processes of every stream.
const PROCESSES: usize = 16;
/// Open-loop offered rate in snapshots per second: set once at about half
/// the closed-loop saturation rate of the commit that introduced the
/// benchmark, then frozen so later commits face the same load.
pub const RATE: f64 = 1_200.0;
/// Generator tick: due snapshots are ingested and the engine pumped once
/// per tick.
const TICK: Duration = Duration::from_millis(2);
/// A late registration every this many ticks; each also unregisters the
/// late predicate registered two before it.
const LATE_EVERY: u64 = 5;
/// Sessions per stream cross-checked against `run_single_offline`.
const CROSS_CHECKS: usize = 4;
/// Ids of late registrations start here.
const LATE_BASE: u64 = 1 << 32;

struct Shape {
    predicates: usize,
    events: usize,
    streams: usize,
}

fn shape(toy: bool) -> Shape {
    if toy {
        Shape {
            predicates: 200,
            events: 12,
            streams: 2,
        }
    } else {
        Shape {
            predicates: 10_000,
            events: 40,
            streams: 16,
        }
    }
}

/// Scope of predicate `j`, the derivation of the repository's
/// `multi_predicates`: `1 + (j mod n)` processes starting at `3j mod n`, so
/// singletons, strided bands and full-width scopes all appear. Sorted.
fn predicate_scope(j: u64, n: usize) -> Vec<u32> {
    let j = j as usize;
    let width = 1 + (j % n);
    let mut s: Vec<u32> = (0..width).map(|i| ((j * 3 + i) % n) as u32).collect();
    s.sort_unstable();
    s
}

/// Distinct scopes the derivation yields: predicate `j` has class `j mod n`.
fn class_of(j: u64) -> usize {
    j as usize % PROCESSES
}

/// One seeded stream.
#[derive(Debug)]
pub struct Stream {
    /// The trace as JSON text.
    pub text: String,
    /// The parsed trace (for the `run_single_offline` cross-check).
    pub computation: system::Computation,
    /// Snapshots in ingest order: by interval, then process.
    pub events: Vec<Snapshot>,
    /// Per scope class: the oracle cut.
    pub oracle: Vec<Option<Vec<u64>>>,
    /// Per scope class: index in `events` of the last-due snapshot of the
    /// oracle cut.
    pub last_due: Vec<Option<usize>>,
}

/// The generated streams and predicate set.
#[derive(Debug)]
pub struct Inputs {
    /// Streams, cycled through episode by episode.
    pub streams: Vec<Stream>,
    /// Scope of each class.
    pub scopes: Vec<Vec<u32>>,
    /// Predicates registered in advance.
    pub predicates: usize,
    /// Seed of the cross-check sample.
    seed: u64,
}

impl Inputs {
    /// Digest of every stream's JSON text.
    pub fn digest(&self) -> u64 {
        stats::digest(self.streams.iter().map(|s| s.text.as_bytes()))
    }
}

/// Generates the streams, round-trips them through JSON, computes every
/// class's oracle cut, and registers the predicate set once as warm-up.
pub fn setup(cfg: &Config) -> Inputs {
    let shape = shape(cfg.toy);
    let mut rng = SplitMix::new(cfg.seed ^ 0x005E_5510);
    let scopes: Vec<Vec<u32>> = (0..PROCESSES as u64)
        .map(|j| predicate_scope(j, PROCESSES))
        .collect();
    let streams = (0..shape.streams)
        .map(|_| {
            let c = system::uniform(PROCESSES, shape.events, rng.next_u64());
            let text = system::to_json(&c);
            let computation = system::parse(&text).expect("a generated trace parses");
            let a = system::annotate(&computation);
            let mut events: Vec<Snapshot> = system::snapshots(&a).into_iter().flatten().collect();
            events.sort_by_key(|s| (s.interval, s.process));
            let oracle: Vec<Option<Vec<u64>>> = scopes
                .iter()
                .map(|s| system::oracle(&a, &system::scope(s)))
                .collect();
            let last_due = scopes
                .iter()
                .zip(&oracle)
                .map(|(scope, cut)| {
                    let cut = cut.as_ref()?;
                    scope
                        .iter()
                        .zip(cut)
                        .map(|(&p, &k)| {
                            events
                                .iter()
                                .position(|e| e.process == p && e.interval == k)
                        })
                        .collect::<Option<Vec<usize>>>()?
                        .into_iter()
                        .max()
                })
                .collect();
            drop(a);
            Stream {
                text,
                computation,
                events,
                oracle,
                last_due,
            }
        })
        .collect();
    let inputs = Inputs {
        streams,
        scopes,
        predicates: shape.predicates,
        seed: cfg.seed,
    };
    drop(registered(&inputs));
    inputs
}

/// A fresh engine with every predicate registered in advance.
fn registered(inputs: &Inputs) -> Engine {
    let engine = Engine::new(PROCESSES);
    for j in 0..inputs.predicates as u64 {
        engine
            .register(j, &system::scope(&inputs.scopes[class_of(j)]))
            .expect("advance registration succeeds");
    }
    engine
}

/// Verdicts seen during an episode, checked once it ends.
type Seen = Vec<(u64, system::SessionCut)>;

/// Alternates closed-loop and open-loop episodes until the budget is spent
/// and every stream has had one of each, so a burst of host noise lands on
/// both legs alike.
pub fn measure(inputs: &Inputs, cfg: &Config, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let streams = inputs.streams.len();
    // Closed-loop episode times per stream; the rate is taken at each
    // stream's median.
    let mut closed_ms: Vec<Vec<f64>> = vec![Vec::new(); streams];
    let mut deliveries = 0u64;
    let mut ol = OpenLoop::default();
    let start = Instant::now();
    let mut episode = 0usize;
    while episode < 2 * streams || start.elapsed() < cfg.budget {
        let si = (episode / 2) % streams;
        let engine = registered(inputs);
        if episode.is_multiple_of(2) {
            let (ms, seen) = closed_episode(&inputs.streams[si], &engine);
            closed_ms[si].push(ms);
            if episode < 2 * streams {
                deliveries += engine.routed_events();
            }
            check_episode(inputs, si, &engine, &seen, cfg, episode, &mut out);
        } else {
            let seen = ol.episode(inputs, si, &engine, tr);
            check_episode(inputs, si, &engine, &seen, cfg, episode, &mut out);
            if tr.is_on() {
                ol.serial_replay(inputs, si, tr);
            }
        }
        episode += 1;
    }
    let closed_events: usize = inputs.streams.iter().map(|s| s.events.len()).sum();
    let closed_s: f64 = closed_ms.iter().map(|m| median(m) / 1e3).sum();
    let events_per_s = closed_events as f64 / closed_s;

    out.throughput_per_s = events_per_s;
    out.latency_ms_p50 = median(&ol.latency_ms);
    let named = &mut out.named;
    named.push(Metric::new(
        "session_events_per_s",
        events_per_s,
        "events/s",
    ));
    named.push(Metric::new(
        "session_latency_ms_p50",
        out.latency_ms_p50,
        "ms",
    ));
    named.push(Metric::new(
        "session_latency_ms_p99",
        quantile(&ol.latency_ms, 0.99),
        "ms",
    ));
    named.push(Metric::new(
        "session_register_ms_p50",
        median(&ol.register_ms),
        "ms",
    ));
    if tr.is_on() {
        let pump_ms = tr.durations_ms("session.pump");
        let pump_total: f64 = pump_ms.iter().sum();
        let ingest_total: f64 = tr.durations_ms("session.ingest").iter().sum();
        let l = &mut out.layers;
        l.push(Metric::new(
            "session.ingest_us",
            ingest_total * 1e3 / ol.events as f64,
            "us",
        ));
        l.push(Metric::new("session.pump_ms_p50", median(&pump_ms), "ms"));
        l.push(Metric::new(
            "session.pump_serial_ms_p50",
            median(&tr.durations_ms("session.pump_serial")),
            "ms",
        ));
        l.push(Metric::new(
            "session.ns_per_delivery",
            pump_total * 1e6 / ol.deliveries as f64,
            "ns",
        ));
        l.push(Metric::new(
            "session.deliveries",
            deliveries as f64,
            "count",
        ));
        l.push(Metric::new(
            "session.replay_entries_per_register",
            ol.replay_entries as f64 / ol.register_ms.len() as f64,
            "count",
        ));
        l.push(Metric::new(
            "session.generator_late_ms_max",
            ol.late_ms_max,
            "ms",
        ));
        l.push(Metric::new(
            "session.backlog_max",
            ol.backlog_max as f64,
            "events",
        ));
        l.push(Metric::new(
            "session.stored_bytes",
            ol.stored_bytes as f64,
            "B",
        ));
    }
    out
}

/// Snapshots per generator tick at [`RATE`].
fn per_tick() -> usize {
    ((RATE * TICK.as_secs_f64()).round() as usize).max(1)
}

/// One closed-loop episode: ingest a tick's worth, pump, repeat, as fast
/// as the engine takes it. Returns the time in ms and the verdicts.
fn closed_episode(stream: &Stream, engine: &Engine) -> (f64, Seen) {
    let mut seen = Seen::new();
    let t0 = Instant::now();
    let ticks = stream.events.len().div_ceil(per_tick());
    for (tick, chunk) in stream.events.chunks(per_tick()).enumerate() {
        for e in chunk {
            engine.ingest(e);
        }
        if tick + 1 == ticks {
            close_all(engine);
        }
        seen.extend(engine.pump(WIDTH));
    }
    (t0.elapsed().as_secs_f64() * 1e3, seen)
}

fn close_all(engine: &Engine) {
    for p in 0..PROCESSES as u32 {
        engine.close(p);
    }
}

/// Checks every verdict of one episode against its class's oracle cut,
/// every advance-registered session for a verdict, and a seeded sample
/// against `run_single_offline`, verdict and metrics. `episode` picks the
/// sabotaged episode in the self-tests.
fn check_episode(
    inputs: &Inputs,
    si: usize,
    engine: &Engine,
    seen: &Seen,
    cfg: &Config,
    episode: usize,
    out: &mut Outcome,
) {
    let stream = &inputs.streams[si];
    let mut resolved = 0usize;
    for (n, (id, cut)) in seen.iter().enumerate() {
        let sabotaged = cfg.sabotage && episode == 0 && n == 0;
        let want = &stream.oracle[class_of(*id)];
        out.count(cut == want && !sabotaged);
        if *id < inputs.predicates as u64 {
            resolved += 1;
        }
    }
    // Every advance registration must have resolved exactly once.
    out.count(resolved == inputs.predicates);
    let mut rng = SplitMix::new(inputs.seed ^ si as u64);
    for _ in 0..CROSS_CHECKS {
        let id = rng.below(inputs.predicates) as u64;
        let w = system::scope(&inputs.scopes[class_of(id)]);
        let single = system::single_offline(&stream.computation, &w);
        out.count(engine.report(id).is_some_and(|got| got == single));
    }
}

/// Open-loop accumulators.
#[derive(Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    register_ms: Vec<f64>,
    replay_entries: u64,
    late_ms_max: f64,
    backlog_max: usize,
    events: usize,
    deliveries: u64,
    stored_bytes: u64,
    late_next: u64,
    /// Snapshots ingested per tick of the last episode, for the serial
    /// replay.
    ticks: Vec<usize>,
}

impl OpenLoop {
    /// One stream at [`RATE`]: due snapshots are ingested at each tick,
    /// then the engine is pumped once. Snapshot `i` is due `i / RATE`
    /// seconds after the start; a session's latency runs from the due time
    /// of the last-due snapshot of its oracle cut to the return of the
    /// pump that reports its verdict.
    fn episode(&mut self, inputs: &Inputs, si: usize, engine: &Engine, tr: &Tracer) -> Seen {
        let stream = &inputs.streams[si];
        let len = stream.events.len();
        let mut seen = Seen::new();
        let mut late: Vec<u64> = Vec::new();
        self.ticks.clear();
        let start = Instant::now();
        let mut idx = 0usize;
        let mut tick = 0u64;
        let mut closed = false;
        while !closed {
            let scheduled = start + TICK * tick as u32;
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            let now = Instant::now();
            self.late_ms_max = self
                .late_ms_max
                .max(now.saturating_duration_since(scheduled).as_secs_f64() * 1e3);
            let elapsed = now.duration_since(start).as_secs_f64();
            let due = ((elapsed * RATE).floor() as usize + 1).min(len);
            self.backlog_max = self.backlog_max.max(due - idx);
            tr.span("wcp-session", "session.ingest", tick, || {
                for e in &stream.events[idx..due] {
                    engine.ingest(e);
                }
            });
            self.ticks.push(due - idx);
            idx = due;
            if idx == len {
                close_all(engine);
                closed = true;
            }
            let resolved = tr.span("wcp-session", "session.pump", tick, || engine.pump(WIDTH));
            let returned = Instant::now();
            for (id, cut) in resolved {
                if id < LATE_BASE {
                    if let Some(i) = stream.last_due[class_of(id)] {
                        let due_at = start + Duration::from_secs_f64(i as f64 / RATE);
                        let ms = returned.saturating_duration_since(due_at).as_secs_f64() * 1e3;
                        self.latency_ms.push(ms);
                    }
                }
                seen.push((id, cut));
            }
            if tick % LATE_EVERY == LATE_EVERY - 1 && !closed {
                self.late_registration(inputs, engine, &mut late, &mut seen, tick, tr);
            }
            tick = (tick + 1).max((start.elapsed().as_secs_f64() / TICK.as_secs_f64()) as u64);
        }
        self.events += len;
        self.deliveries += engine.routed_events();
        self.stored_bytes = self.stored_bytes.max(engine.stored_bytes());
        seen
    }

    /// Registers one late predicate, which replays the routed log from
    /// entry 0, and unregisters the late predicate registered two before.
    fn late_registration(
        &mut self,
        inputs: &Inputs,
        engine: &Engine,
        late: &mut Vec<u64>,
        seen: &mut Seen,
        tick: u64,
        tr: &Tracer,
    ) {
        let id = LATE_BASE + self.late_next;
        self.late_next += 1;
        let w = system::scope(&inputs.scopes[class_of(id)]);
        self.replay_entries += engine.routed_log_len() as u64;
        let t0 = Instant::now();
        let got = tr.span("wcp-session", "session.register", tick, || {
            engine.register(id, &w)
        });
        self.register_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Ok(Some(cut)) = got {
            seen.push((id, cut));
        }
        late.push(id);
        if late.len() > 2 {
            let old = late.remove(0);
            tr.span("wcp-session", "session.unregister", tick, || {
                engine.unregister(old)
            });
        }
    }

    /// Replays the last episode's tick sequence into a second engine with
    /// the serial `pump()`: the single-threaded baseline.
    fn serial_replay(&self, inputs: &Inputs, si: usize, tr: &Tracer) {
        let stream = &inputs.streams[si];
        let engine = registered(inputs);
        let mut idx = 0;
        for (tick, &n) in self.ticks.iter().enumerate() {
            for e in &stream.events[idx..idx + n] {
                engine.ingest(e);
            }
            idx += n;
            if idx == stream.events.len() {
                close_all(&engine);
            }
            tr.span("wcp-session", "session.pump_serial", tick as u64, || {
                engine.pump(1)
            });
        }
    }
}
