//! The `online-token` workload: the §3 vector-clock token algorithm run
//! online, one run at a time (closed loop), on the simulator, loopback,
//! TCP, and loopback with telemetry, over traces of at most 4 peers.
//!
//! It loads the online monitors, `wcp-sim`, `wcp-net` and `wcp-obs`, with
//! no `clocks::par` and no session service. Staircases carry the load:
//! every candidate passes through the token, so run length grows with
//! trace length, while random detectable traces resolve early.

use std::time::{Duration, Instant};

use crate::report::{Metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, geomean, median, quantile, SplitMix};
use crate::system::{self, NetCounts, Substrate, Verdict};
use crate::Config;

/// A peer that makes no progress for this long fails its run.
const STALL_DEADLINE: Duration = Duration::from_secs(10);
/// A run that takes longer than this counts as failed.
const DEADLINE_MS: f64 = 10_000.0;
/// Frames and scope of the saturation probe of traced runs.
const SATURATION_FRAMES: u64 = 20_000;
const SATURATION_SCOPE: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Staircase { n: usize, rounds: usize },
    Random { n: usize, m: usize },
}

fn shapes(toy: bool) -> Vec<Shape> {
    if toy {
        return vec![
            Shape::Staircase { n: 3, rounds: 4 },
            Shape::Random { n: 3, m: 12 },
        ];
    }
    vec![
        Shape::Staircase { n: 4, rounds: 100 },
        Shape::Staircase { n: 3, rounds: 60 },
        Shape::Random { n: 4, m: 200 },
    ]
}

/// One trace of the workload.
#[derive(Debug)]
pub struct Run {
    /// The trace as JSON text (what set-up generated).
    pub text: String,
    /// The parsed trace handed to every run.
    pub computation: system::Computation,
    /// Scope: all processes.
    pub scope: Vec<u32>,
    /// Number of events, for bytes per event.
    pub events: usize,
    /// A staircase: every candidate passes through the token, so the run
    /// always sends the same frames. A random trace resolves early, and
    /// how many frames leave before the verdict depends on timing.
    pub staircase: bool,
    /// Scope projection of the first satisfying cut.
    pub oracle: Option<Vec<u64>>,
    /// The simulator's verdict, which every substrate must repeat.
    pub sim: Verdict,
}

/// The generated traces.
#[derive(Debug)]
pub struct Inputs {
    /// Traces in run order.
    pub runs: Vec<Run>,
}

impl Inputs {
    /// Digest of every trace's JSON text.
    pub fn digest(&self) -> u64 {
        stats::digest(self.runs.iter().map(|r| r.text.as_bytes()))
    }
}

/// Generates the traces, round-trips them through JSON, computes the
/// oracle cut and the simulator's reference verdict, and runs each
/// substrate once as warm-up.
pub fn setup(cfg: &Config) -> Inputs {
    let mut rng = SplitMix::new(cfg.seed ^ 0x0004_114E);
    let runs = shapes(cfg.toy)
        .into_iter()
        .map(|shape| {
            let (c, staircase) = match shape {
                Shape::Staircase { n, rounds } => {
                    (system::staircase(&rng.permutation(n), rounds), true)
                }
                Shape::Random { n, m } => (system::uniform(n, m, rng.next_u64()), false),
            };
            let text = system::to_json(&c);
            let computation = system::parse(&text).expect("a generated trace parses");
            let scope: Vec<u32> = (0..system::process_count(&computation) as u32).collect();
            let w = system::scope(&scope);
            let oracle = system::oracle(&system::annotate(&computation), &w);
            let sim = system::run_token(Substrate::Sim, &computation, &w, cfg.seed, STALL_DEADLINE)
                .verdict;
            Run {
                text,
                events: system::event_count(&computation),
                staircase,
                computation,
                scope,
                oracle,
                sim,
            }
        })
        .collect();
    let inputs = Inputs { runs };
    for run in &inputs.runs {
        let w = system::scope(&run.scope);
        for s in Substrate::ALL {
            let _ = system::guarded(|| {
                system::run_token(s, &run.computation, &w, cfg.seed, STALL_DEADLINE)
            });
        }
    }
    inputs
}

/// The most frequent value (the smallest among ties); 0 if empty.
fn mode(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted
        .chunk_by(|a, b| a == b)
        .max_by_key(|run| (run.len(), std::cmp::Reverse(run[0])))
        .map_or(0, |run| run[0])
}

fn span_name(s: Substrate) -> (&'static str, &'static str) {
    match s {
        Substrate::Sim => ("wcp-sim", "online.run.sim"),
        Substrate::Loopback => ("wcp-net", "online.run.loopback"),
        Substrate::Tcp => ("wcp-net", "online.run.tcp"),
        Substrate::Telemetry => ("wcp-obs", "online.run.telemetry"),
    }
}

/// Totals of the wire counters over one substrate's runs.
#[derive(Debug, Default)]
struct Wire {
    runs: u64,
    bytes: u64,
    frames: u64,
    flushes: u64,
    pool_allocs: u64,
    retransmits: u64,
    telemetry_bytes: u64,
}

impl Wire {
    fn add(&mut self, n: &NetCounts) {
        self.runs += 1;
        self.bytes += n.bytes_sent;
        self.frames += n.frames_sent;
        self.flushes += n.batch_flushes;
        self.pool_allocs += n.pool_allocs;
        self.retransmits += n.retransmits;
        self.telemetry_bytes += n.telemetry_bytes;
    }
}

/// Runs rounds until the budget is spent; each round runs every trace on
/// every substrate in a rotating order. Each verdict is checked against
/// the oracle and the simulator's after its run.
pub fn measure(inputs: &Inputs, cfg: &Config, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let k = Substrate::ALL.len();
    // Run times per (trace, substrate).
    let mut cells: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); k]; inputs.runs.len()];
    let mut wire: Vec<Wire> = (0..k).map(|_| Wire::default()).collect();
    // Bytes sent by each loopback run, per trace.
    let mut loopback_bytes: Vec<Vec<u64>> = vec![Vec::new(); inputs.runs.len()];
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed() < cfg.budget {
        for (i, run) in inputs.runs.iter().enumerate() {
            let w = system::scope(&run.scope);
            let req = (round * inputs.runs.len() + i) as u64;
            for j in 0..k {
                let si = (j + round + i) % k;
                let s = Substrate::ALL[si];
                let (layer, name) = span_name(s);
                let t0 = Instant::now();
                let got = system::guarded(|| {
                    tr.span(layer, name, req, || {
                        system::run_token(s, &run.computation, &w, cfg.seed, STALL_DEADLINE)
                    })
                });
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                cells[i][si].push(ms);
                let mut got = got;
                if cfg.sabotage && round == 0 && i == 0 {
                    if let Some(o) = got.as_mut() {
                        o.verdict.cut = None;
                    }
                }
                let ok = got.as_ref().is_some_and(|o| {
                    o.verdict.cut == run.oracle
                        && o.verdict.cut == run.sim.cut
                        && o.verdict.work == run.sim.work
                        && o.verdict.token_hops == run.sim.token_hops
                });
                out.count(ok && ms <= DEADLINE_MS);
                if let Some(n) = got.as_ref().and_then(|o| o.net.as_ref()) {
                    wire[si].add(n);
                    if s == Substrate::Loopback {
                        loopback_bytes[i].push(n.bytes_sent);
                    }
                }
            }
        }
        round += 1;
    }

    // Per substrate: a round over the traces at each trace's median time.
    let rate: Vec<f64> = (0..k)
        .map(|si| {
            let round_ms: f64 = cells.iter().map(|c| median(&c[si])).sum();
            cells.len() as f64 / (round_ms / 1e3)
        })
        .collect();
    // The named metrics pool each substrate's runs over all traces.
    let pooled: Vec<Vec<f64>> = (0..k)
        .map(|si| cells.iter().flat_map(|c| c[si].iter().copied()).collect())
        .collect();
    let p50: Vec<f64> = pooled.iter().map(|s| median(s)).collect();
    let p90: Vec<f64> = pooled.iter().map(|s| quantile(s, 0.9)).collect();
    out.throughput_per_s = geomean(&rate);
    out.latency_ms_p50 = geomean(
        &cells
            .iter()
            .flatten()
            .map(|c| median(c))
            .collect::<Vec<_>>(),
    );
    let at = |s: Substrate| {
        Substrate::ALL
            .iter()
            .position(|x| *x == s)
            .expect("a substrate")
    };
    let (sim, lo, tcp, tel) = (
        at(Substrate::Sim),
        at(Substrate::Loopback),
        at(Substrate::Tcp),
        at(Substrate::Telemetry),
    );
    let named = &mut out.named;
    named.push(Metric::new("online_sim_ms_p50", p50[sim], "ms"));
    named.push(Metric::new("online_loopback_ms_p50", p50[lo], "ms"));
    named.push(Metric::new("online_tcp_ms_p50", p50[tcp], "ms"));
    named.push(Metric::new("online_tcp_ms_p90", p90[tcp], "ms"));
    named.push(Metric::new(
        "online_tcp_runs",
        pooled[tcp].len() as f64,
        "count",
    ));
    named.push(Metric::new("online_telemetry_ms_p50", p50[tel], "ms"));
    named.push(Metric::new(
        "net.retransmits",
        wire.iter().map(|w| w.retransmits).sum::<u64>() as f64,
        "count",
    ));

    if tr.is_on() {
        let hops: u64 = inputs.runs.iter().map(|r| r.sim.token_hops).sum();
        let control: u64 = inputs.runs.iter().map(|r| r.sim.control_messages).sum();
        // Over the staircases, at each one's most frequent byte count.
        let staircases = || {
            inputs
                .runs
                .iter()
                .zip(&loopback_bytes)
                .filter(|(r, _)| r.staircase)
        };
        let events: usize = staircases().map(|(r, _)| r.events).sum();
        let bytes: u64 = staircases().map(|(_, b)| mode(b)).sum();
        let saturation: Vec<f64> = (0..3)
            .map(|probe| {
                tr.span("wcp-net", "online.saturate", probe, || {
                    system::saturate(SATURATION_FRAMES, SATURATION_SCOPE)
                })
            })
            .collect();
        let l = &mut out.layers;
        l.push(Metric::new("online.token_hops", hops as f64, "count"));
        l.push(Metric::new(
            "online.control_messages",
            control as f64,
            "count",
        ));
        l.push(Metric::new("net.stack_ms", p50[lo] - p50[sim], "ms"));
        l.push(Metric::new("net.socket_ms", p50[tcp] - p50[lo], "ms"));
        l.push(Metric::new(
            "net.bytes_per_event",
            bytes as f64 / events as f64,
            "B",
        ));
        l.push(Metric::new(
            "net.frames_per_flush",
            wire[lo].frames as f64 / wire[lo].flushes as f64,
            "ratio",
        ));
        l.push(Metric::new(
            "net.pool_allocs_per_frame",
            wire[lo].pool_allocs as f64 / wire[lo].frames as f64,
            "ratio",
        ));
        l.push(Metric::new(
            "net.saturation_frames_per_s",
            median(&saturation),
            "frames/s",
        ));
        l.push(Metric::new("obs.telemetry_ms", p50[tel] - p50[lo], "ms"));
        l.push(Metric::new(
            "obs.telemetry_bytes_per_run",
            wire[tel].telemetry_bytes as f64 / wire[tel].runs as f64,
            "B",
        ));
    }
    out
}
