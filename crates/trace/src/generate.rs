//! Seeded random workload generators.
//!
//! The paper evaluates its algorithms analytically on arbitrary runs of a
//! distributed program; no traces are published. This module is the repo's
//! substitute (see DESIGN.md §5): a deterministic, seeded generator that
//! produces valid [`Computation`]s with controllable size (`N`, `m`),
//! communication topology, predicate density, and — crucially for
//! experiments — an optionally *planted* consistent cut on which every local
//! predicate is true, guaranteeing the WCP is detectable.
//!
//! Generation works by forward-simulating a legal interleaving, so every
//! produced trace is realizable by construction; a planted cut is the vector
//! of per-process positions at one instant of that interleaving, hence
//! consistent by construction.
//!
//! # Example
//!
//! ```rust
//! use wcp_trace::generate::{generate, GeneratorConfig, Topology};
//!
//! let cfg = GeneratorConfig::new(4, 10)
//!     .with_seed(42)
//!     .with_topology(Topology::Ring)
//!     .with_plant(0.5);
//! let generated = generate(&cfg);
//! assert!(generated.computation.validate().is_ok());
//! let planted = generated.planted.expect("plant requested");
//! assert!(generated.computation.annotate().is_consistent(&planted));
//! ```

use wcp_clocks::{Cut, ProcessId};
use wcp_obs::json::{FromJson, Json, JsonError, ToJson};
use wcp_obs::rng::Rng;

use crate::computation::{Computation, ProcessTrace};
use crate::event::{Event, MsgId};

/// Communication pattern of the generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every send targets a uniformly random other process.
    Uniform,
    /// Process `i` always sends to `(i + 1) mod N`.
    Ring,
    /// The first `servers` processes are servers; clients send to a random
    /// server, servers send to a random client.
    ClientServer {
        /// Number of server processes (must be `≥ 1` and `< N`).
        servers: usize,
    },
    /// Every send targets one of the `degree` nearest ring neighbours.
    Neighbors {
        /// Neighbourhood radius (`≥ 1`).
        degree: usize,
    },
    /// Bulk-synchronous phases: processes exchange uniformly within a
    /// phase, then everyone synchronizes through process 0 (worker → P0,
    /// P0 → worker) before the next phase — the communication shape of BSP
    /// programs, producing narrow "waists" in the global-state lattice.
    Phased {
        /// Communication steps per process between barriers (`≥ 1`).
        phase_len: usize,
    },
}

// A `Topology` travels in corpus case files as either a bare string
// (`"uniform"`, `"ring"`) or a one-key object (`{"client_server": K}`,
// `{"neighbors": K}`, `{"phased": K}`).
impl ToJson for Topology {
    fn to_json(&self) -> Json {
        match *self {
            Topology::Uniform => Json::Str("uniform".to_string()),
            Topology::Ring => Json::Str("ring".to_string()),
            Topology::ClientServer { servers } => {
                Json::obj([("client_server", Json::UInt(servers as u64))])
            }
            Topology::Neighbors { degree } => Json::obj([("neighbors", Json::UInt(degree as u64))]),
            Topology::Phased { phase_len } => Json::obj([("phased", Json::UInt(phase_len as u64))]),
        }
    }
}

impl FromJson for Topology {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = value {
            return match s.as_str() {
                "uniform" => Ok(Topology::Uniform),
                "ring" => Ok(Topology::Ring),
                other => Err(JsonError::shape(format!("unknown topology `{other}`"))),
            };
        }
        match value.as_object() {
            Some([(tag, payload)]) => {
                let k = payload.expect_u64()? as usize;
                match tag.as_str() {
                    "client_server" => Ok(Topology::ClientServer { servers: k }),
                    "neighbors" => Ok(Topology::Neighbors { degree: k }),
                    "phased" => Ok(Topology::Phased { phase_len: k }),
                    other => Err(JsonError::shape(format!("unknown topology `{other}`"))),
                }
            }
            _ => Err(JsonError::shape(format!(
                "expected a topology string or one-key object, got {value}"
            ))),
        }
    }
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of processes (`N`).
    pub processes: usize,
    /// Communication events per process (the paper's `m`).
    pub events_per_process: usize,
    /// Probability that a step is a send rather than a receive (receives
    /// fall back to sends when no message is pending). Clamped to `[0, 1]`.
    pub send_fraction: f64,
    /// Per-interval probability that the local predicate is true.
    pub predicate_density: f64,
    /// Communication pattern.
    pub topology: Topology,
    /// If set, plant a consistent all-true cut at this fraction of the run
    /// (`0.0` = start, `1.0` = end).
    pub plant_at: Option<f64>,
    /// RNG seed; equal configs produce equal computations.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A uniform-topology workload of `processes × events_per_process`
    /// events with sparse predicates and no planted cut.
    pub fn new(processes: usize, events_per_process: usize) -> Self {
        GeneratorConfig {
            processes,
            events_per_process,
            send_fraction: 0.5,
            predicate_density: 0.05,
            topology: Topology::Uniform,
            plant_at: None,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the communication topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the per-interval predicate probability.
    pub fn with_predicate_density(mut self, density: f64) -> Self {
        self.predicate_density = density;
        self
    }

    /// Sets the send/receive mix.
    pub fn with_send_fraction(mut self, fraction: f64) -> Self {
        self.send_fraction = fraction;
        self
    }

    /// Requests a planted satisfying cut at `fraction` of the run.
    pub fn with_plant(mut self, fraction: f64) -> Self {
        self.plant_at = Some(fraction);
        self
    }
}

// A `GeneratorConfig` round-trips through JSON exactly (floats use the
// shortest-roundtrip form), so a corpus case file regenerates the identical
// computation.
impl ToJson for GeneratorConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("processes", Json::UInt(self.processes as u64)),
            ("events", Json::UInt(self.events_per_process as u64)),
            ("send_fraction", Json::Float(self.send_fraction)),
            ("predicate_density", Json::Float(self.predicate_density)),
            ("topology", self.topology.to_json()),
            (
                "plant_at",
                match self.plant_at {
                    Some(f) => Json::Float(f),
                    None => Json::Null,
                },
            ),
            ("seed", Json::UInt(self.seed)),
        ])
    }
}

impl FromJson for GeneratorConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let f64_field = |name: &str| -> Result<f64, JsonError> {
            value
                .field(name)?
                .as_f64()
                .ok_or_else(|| JsonError::shape(format!("{name}: expected a number")))
        };
        let plant_at = match value.field("plant_at")? {
            Json::Null => None,
            other => Some(
                other
                    .as_f64()
                    .ok_or_else(|| JsonError::shape("plant_at: expected a number or null"))?,
            ),
        };
        Ok(GeneratorConfig {
            processes: value.field("processes")?.expect_u64()? as usize,
            events_per_process: value.field("events")?.expect_u64()? as usize,
            send_fraction: f64_field("send_fraction")?,
            predicate_density: f64_field("predicate_density")?,
            topology: Topology::from_json(value.field("topology")?)?,
            plant_at,
            seed: value.field("seed")?.expect_u64()?,
        })
    }
}

/// Output of [`generate`]: the computation plus the planted cut, if one was
/// requested.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The generated computation (always valid).
    pub computation: Computation,
    /// The planted consistent cut with all predicate flags true, if
    /// [`GeneratorConfig::plant_at`] was set.
    pub planted: Option<Cut>,
}

/// Generates a valid computation according to `config`.
///
/// # Panics
///
/// Panics if `config.processes` is 0 (a computation has at least one
/// process), or if the topology is inconsistent with the process count
/// (`ClientServer` with `servers == 0` or `servers >= N`, `Neighbors` with
/// `degree == 0`).
pub fn generate(config: &GeneratorConfig) -> Generated {
    assert!(
        config.processes >= 1,
        "a generated computation needs at least one process"
    );
    if let Topology::Phased { phase_len } = config.topology {
        return generate_phased(config, phase_len);
    }
    let n = config.processes;
    let mut rng = Rng::seed_from_u64(config.seed);
    let send_fraction = config.send_fraction.clamp(0.0, 1.0);

    // A single process cannot exchange messages; its trace is one interval.
    let quota = if n >= 2 { config.events_per_process } else { 0 };

    if let Topology::ClientServer { servers } = config.topology {
        assert!(
            servers >= 1 && servers < n.max(1),
            "ClientServer requires 1 <= servers < N"
        );
    }
    if let Topology::Neighbors { degree } = config.topology {
        assert!(degree >= 1, "Neighbors requires degree >= 1");
    }

    let mut events: Vec<Vec<Event>> = vec![Vec::new(); n];
    // Messages sent and not yet received, per destination.
    let mut pending: Vec<Vec<(MsgId, ProcessId)>> = vec![Vec::new(); n];
    let mut next_msg = 0u64;
    let total_steps = n * quota;
    let plant_step = config
        .plant_at
        .map(|f| ((total_steps as f64) * f.clamp(0.0, 1.0)).round() as usize);
    let mut planted: Option<Cut> = None;

    let mut remaining: Vec<usize> = vec![quota; n];
    let mut live: Vec<usize> = (0..n).filter(|&i| remaining[i] > 0).collect();
    let mut step = 0usize;

    // Plant at step 0 if requested at fraction 0.
    if plant_step == Some(0) {
        planted = Some(snapshot_cut(&events));
    }

    while !live.is_empty() {
        let slot = rng.gen_range(0..live.len());
        let i = live[slot];
        let pid = ProcessId::new(i as u32);

        let do_send = pending[i].is_empty() || rng.gen_bool(send_fraction);
        if do_send {
            let to = pick_target(pid, n, config.topology, &mut rng);
            let msg = MsgId::new(next_msg);
            next_msg += 1;
            events[i].push(Event::Send { to, msg });
            pending[to.index()].push((msg, pid));
        } else {
            let k = rng.gen_range(0..pending[i].len());
            let (msg, from) = pending[i].swap_remove(k);
            events[i].push(Event::Receive { from, msg });
        }

        remaining[i] -= 1;
        if remaining[i] == 0 {
            live.swap_remove(slot);
        }
        step += 1;
        if plant_step == Some(step) {
            planted = Some(snapshot_cut(&events));
        }
    }

    // If the plant step lands beyond the last step (fraction 1.0 with
    // rounding), take the final positions.
    if config.plant_at.is_some() && planted.is_none() {
        planted = Some(snapshot_cut(&events));
    }

    // Predicate flags: Bernoulli per interval, then overwrite the planted
    // cut's intervals with true.
    let mut traces: Vec<ProcessTrace> = events
        .into_iter()
        .map(|evts| {
            let intervals = evts.len() + 1;
            let pred = (0..intervals)
                .map(|_| rng.gen_bool(config.predicate_density.clamp(0.0, 1.0)))
                .collect();
            ProcessTrace { events: evts, pred }
        })
        .collect();
    if let Some(cut) = &planted {
        for (i, trace) in traces.iter_mut().enumerate() {
            let k = cut[ProcessId::new(i as u32)];
            trace.pred[(k - 1) as usize] = true;
        }
    }

    let computation = Computation::from_traces(traces);
    debug_assert!(computation.validate().is_ok());
    Generated {
        computation,
        planted,
    }
}

/// The consistent cut given by every process's current interval during
/// generation (events so far + 1).
fn snapshot_cut(events: &[Vec<Event>]) -> Cut {
    events.iter().map(|e| e.len() as u64 + 1).collect()
}

fn pick_target(from: ProcessId, n: usize, topology: Topology, rng: &mut Rng) -> ProcessId {
    let i = from.index();
    let to = match topology {
        Topology::Uniform => {
            let mut t = rng.gen_range(0..n - 1);
            if t >= i {
                t += 1;
            }
            t
        }
        Topology::Ring => (i + 1) % n,
        Topology::ClientServer { servers } => {
            if i < servers {
                // server → random client
                servers + rng.gen_range(0..n - servers)
            } else {
                // client → random server
                rng.gen_range(0..servers)
            }
        }
        Topology::Neighbors { degree } => {
            let offset = rng.gen_range(1..=degree.min(n - 1));
            if rng.gen_bool(0.5) {
                (i + offset) % n
            } else {
                (i + n - offset) % n
            }
        }
        Topology::Phased { .. } => unreachable!("phased generation has its own path"),
    };
    ProcessId::new(to as u32)
}

/// Bulk-synchronous generation: uniform worker↔worker traffic inside each
/// phase, then a barrier through process 0 (`worker → P0 → worker`). A
/// planted cut lands at a barrier boundary — a natural consistent cut.
fn generate_phased(config: &GeneratorConfig, phase_len: usize) -> Generated {
    use crate::builder::ComputationBuilder;

    let n = config.processes;
    assert!(phase_len >= 1, "Phased requires phase_len >= 1");
    let mut rng = Rng::seed_from_u64(config.seed);
    if n < 2 {
        // No communication possible; fall back to a single-interval trace.
        let computation = ComputationBuilder::new(n).build_unchecked();
        return Generated {
            computation,
            planted: config.plant_at.map(|_| snapshot_cut(&vec![Vec::new(); n])),
        };
    }

    let quota = config.events_per_process;
    // Per phase each worker performs ≈ 2·phase_len intra-phase events plus
    // 2 barrier events; plan the plant phase from that estimate.
    let per_phase = 2 * phase_len + 2;
    let planned_phases = quota.div_ceil(per_phase).max(1);
    let plant_phase = config
        .plant_at
        .map(|f| ((planned_phases as f64) * f.clamp(0.0, 1.0)).round() as usize);

    let mut b = ComputationBuilder::new(n);
    let mut planted: Option<Cut> = None;
    let current_cut = |b: &ComputationBuilder| -> Cut {
        (0..n)
            .map(|i| b.current_interval(ProcessId::new(i as u32)))
            .collect()
    };
    if plant_phase == Some(0) {
        planted = Some(current_cut(&b));
    }

    for phase in 1..=planned_phases {
        // Intra-phase worker ↔ worker traffic (needs ≥ 2 workers).
        if n > 2 {
            let mut deliveries = Vec::new();
            for w in 1..n {
                for _ in 0..phase_len {
                    let mut peer = rng.gen_range(1..n - 1);
                    if peer >= w {
                        peer += 1;
                    }
                    let m = b.send(ProcessId::new(w as u32), ProcessId::new(peer as u32));
                    deliveries.push((peer, m));
                }
            }
            // Deliver all intra-phase messages in a random order.
            for k in (1..deliveries.len()).rev() {
                deliveries.swap(k, rng.gen_range(0..=k));
            }
            for (dest, m) in deliveries {
                b.receive(ProcessId::new(dest as u32), m);
            }
        }
        // Barrier through P0.
        for w in 1..n {
            let m = b.send(ProcessId::new(w as u32), ProcessId::new(0));
            b.receive(ProcessId::new(0), m);
        }
        for w in 1..n {
            let m = b.send(ProcessId::new(0), ProcessId::new(w as u32));
            b.receive(ProcessId::new(w as u32), m);
        }
        if plant_phase == Some(phase) {
            planted = Some(current_cut(&b));
        }
    }
    if config.plant_at.is_some() && planted.is_none() {
        planted = Some(current_cut(&b));
    }

    let computation = b.build().expect("phased construction is valid");
    // Apply Bernoulli predicate flags plus the planted overwrite.
    let mut traces = computation.traces().to_vec();
    for trace in &mut traces {
        for flag in &mut trace.pred {
            *flag = rng.gen_bool(config.predicate_density.clamp(0.0, 1.0));
        }
    }
    if let Some(cut) = &planted {
        for (i, trace) in traces.iter_mut().enumerate() {
            let k = cut[ProcessId::new(i as u32)];
            trace.pred[(k - 1) as usize] = true;
        }
    }
    Generated {
        computation: Computation::from_traces(traces),
        planted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wcp;

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = GeneratorConfig::new(5, 20).with_seed(7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.computation, b.computation);
        let c = generate(&cfg.clone().with_seed(8));
        assert_ne!(a.computation, c.computation);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_are_rejected() {
        generate(&GeneratorConfig::new(0, 8));
    }

    #[test]
    fn generated_computations_are_valid() {
        for seed in 0..10 {
            let cfg = GeneratorConfig::new(6, 15).with_seed(seed);
            let g = generate(&cfg);
            assert!(g.computation.validate().is_ok(), "seed {seed}");
            assert_eq!(g.computation.process_count(), 6);
            for (_, t) in g.computation.iter() {
                assert_eq!(t.event_count(), 15);
            }
        }
    }

    #[test]
    fn planted_cut_is_consistent_and_true() {
        for seed in 0..10 {
            let cfg = GeneratorConfig::new(5, 12)
                .with_seed(seed)
                .with_predicate_density(0.0)
                .with_plant(0.5);
            let g = generate(&cfg);
            let cut = g.planted.expect("plant requested");
            let a = g.computation.annotate();
            assert!(a.is_consistent(&cut), "seed {seed}: {cut}");
            assert!(Wcp::over_all(&g.computation).holds_on(&g.computation, &cut));
            // With density 0 the planted cut is the ONLY source of truth, so
            // detection must succeed.
            assert!(a
                .first_satisfying_cut(&Wcp::over_all(&g.computation))
                .is_some());
        }
    }

    #[test]
    fn plant_at_extremes() {
        for frac in [0.0, 1.0] {
            let cfg = GeneratorConfig::new(3, 8)
                .with_seed(1)
                .with_predicate_density(0.0)
                .with_plant(frac);
            let g = generate(&cfg);
            let cut = g.planted.unwrap();
            assert!(g.computation.annotate().is_consistent(&cut));
        }
    }

    #[test]
    fn ring_topology_only_sends_to_successor() {
        let cfg = GeneratorConfig::new(4, 10)
            .with_seed(3)
            .with_topology(Topology::Ring);
        let g = generate(&cfg);
        for (p, t) in g.computation.iter() {
            for e in &t.events {
                if let Event::Send { to, .. } = e {
                    assert_eq!(to.index(), (p.index() + 1) % 4);
                }
            }
        }
    }

    #[test]
    fn client_server_respects_roles() {
        let cfg = GeneratorConfig::new(5, 10)
            .with_seed(3)
            .with_topology(Topology::ClientServer { servers: 2 });
        let g = generate(&cfg);
        for (p, t) in g.computation.iter() {
            for e in &t.events {
                if let Event::Send { to, .. } = e {
                    if p.index() < 2 {
                        assert!(to.index() >= 2, "server sent to server");
                    } else {
                        assert!(to.index() < 2, "client sent to client");
                    }
                }
            }
        }
    }

    #[test]
    fn neighbors_topology_stays_local() {
        let cfg = GeneratorConfig::new(8, 10)
            .with_seed(5)
            .with_topology(Topology::Neighbors { degree: 1 });
        let g = generate(&cfg);
        for (p, t) in g.computation.iter() {
            for e in &t.events {
                if let Event::Send { to, .. } = e {
                    let d = (p.index() as i64 - to.index() as i64).rem_euclid(8);
                    assert!(d == 1 || d == 7, "send distance {d}");
                }
            }
        }
    }

    #[test]
    fn single_process_degenerates_gracefully() {
        let g = generate(&GeneratorConfig::new(1, 10).with_seed(0));
        assert_eq!(g.computation.total_events(), 0);
        assert!(g.computation.validate().is_ok());
    }

    #[test]
    fn predicate_density_extremes() {
        let g0 = generate(&GeneratorConfig::new(3, 5).with_predicate_density(0.0));
        assert_eq!(g0.computation.stats().true_intervals, 0);
        let g1 = generate(&GeneratorConfig::new(3, 5).with_predicate_density(1.0));
        let s = g1.computation.stats();
        assert_eq!(s.true_intervals, s.total_intervals);
    }

    #[test]
    fn phased_topology_generates_valid_barriered_runs() {
        for seed in 0..8 {
            let cfg = GeneratorConfig::new(5, 20)
                .with_seed(seed)
                .with_topology(Topology::Phased { phase_len: 2 })
                .with_predicate_density(0.1)
                .with_plant(0.5);
            let g = generate(&cfg);
            assert!(g.computation.validate().is_ok(), "seed {seed}");
            let cut = g.planted.expect("plant requested");
            let a = g.computation.annotate();
            assert!(a.is_consistent(&cut), "seed {seed}: {cut}");
            assert!(Wcp::over_all(&g.computation).holds_on(&g.computation, &cut));
            // Barrier traffic touches every process.
            for (_, t) in g.computation.iter() {
                assert!(t.event_count() > 0, "seed {seed}");
            }
        }
    }

    #[test]
    fn phased_plant_extremes() {
        for frac in [0.0, 1.0] {
            let cfg = GeneratorConfig::new(4, 12)
                .with_seed(3)
                .with_topology(Topology::Phased { phase_len: 1 })
                .with_predicate_density(0.0)
                .with_plant(frac);
            let g = generate(&cfg);
            let cut = g.planted.unwrap();
            assert!(g.computation.annotate().is_consistent(&cut));
        }
    }

    #[test]
    fn send_fraction_one_never_receives() {
        let g = generate(&GeneratorConfig::new(3, 10).with_send_fraction(1.0));
        assert_eq!(g.computation.total_messages(), g.computation.total_events());
    }

    #[test]
    fn config_json_roundtrip_regenerates_identically() {
        let topologies = [
            Topology::Uniform,
            Topology::Ring,
            Topology::ClientServer { servers: 2 },
            Topology::Neighbors { degree: 3 },
            Topology::Phased { phase_len: 2 },
        ];
        for (i, topo) in topologies.into_iter().enumerate() {
            let mut cfg = GeneratorConfig::new(5, 9)
                .with_seed(0xC0FFEE + i as u64)
                .with_send_fraction(0.1 + 0.17 * i as f64)
                .with_predicate_density(0.05 + 0.11 * i as f64)
                .with_topology(topo);
            if i % 2 == 0 {
                cfg = cfg.with_plant(0.3 + 0.13 * i as f64);
            }
            let json = cfg.to_json().pretty();
            let back = GeneratorConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, cfg, "{json}");
            assert_eq!(generate(&back).computation, generate(&cfg).computation);
        }
    }

    #[test]
    fn config_json_rejects_malformed() {
        assert!(Topology::from_json(&Json::Str("hex".into())).is_err());
        assert!(Topology::from_json(&Json::UInt(3)).is_err());
        assert!(Topology::from_json(&Json::obj([("mesh", Json::UInt(1))])).is_err());
        let mut json = GeneratorConfig::new(2, 2).to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "seed");
        }
        assert!(GeneratorConfig::from_json(&json).is_err());
    }
}
