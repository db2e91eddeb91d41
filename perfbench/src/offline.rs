//! The `offline-corpus` workload: a seeded corpus of JSON traces, each run
//! through JSON text in → parse → annotate → detect → verdict once per
//! detector family, one trace at a time (closed loop).
//!
//! It loads `wcp-trace`, the snapshot queues, every detector kernel and
//! `clocks::par`, and never touches the wire or the session service.

use std::time::Instant;

use crate::report::{Metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, geomean, median, SplitMix};
use crate::system::{self, Family};
use crate::Config;

/// A pipeline that takes longer than this counts as failed.
const DEADLINE_MS: f64 = 5_000.0;

/// Passes over the corpus that time the queue builds on their own, and
/// no-op `scoped_workers` round trips per pass, in a traced run.
const LAYER_PASSES: usize = 10;
const DISPATCH_PROBES: usize = 16;

/// One corpus shape class.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Uniform topology, scope = all `n` processes.
    Uniform { n: usize, m: usize },
    /// Client-server topology (skewed communication), scope = all.
    ClientServer { n: usize, m: usize },
    /// The Theorem 5.1 staircase over a seeded ring order.
    Staircase { n: usize, rounds: usize },
    /// A seeded scope of `scope` processes over a uniform `n`-process trace:
    /// where §4 direct dependence wins.
    Narrow { n: usize, scope: usize, m: usize },
}

/// The corpus: `(shape, copies)`.
fn corpus(toy: bool) -> Vec<(Shape, usize)> {
    if toy {
        return vec![
            (Shape::Uniform { n: 4, m: 8 }, 2),
            (Shape::ClientServer { n: 5, m: 8 }, 1),
            (Shape::Staircase { n: 4, rounds: 3 }, 1),
            (
                Shape::Narrow {
                    n: 8,
                    scope: 3,
                    m: 8,
                },
                1,
            ),
        ];
    }
    vec![
        (Shape::Uniform { n: 8, m: 24 }, 4),
        (Shape::Uniform { n: 32, m: 24 }, 3),
        (Shape::Uniform { n: 128, m: 24 }, 2),
        (Shape::ClientServer { n: 32, m: 24 }, 3),
        (Shape::Staircase { n: 32, rounds: 10 }, 2),
        (
            Shape::Narrow {
                n: 128,
                scope: 16,
                m: 24,
            },
            2,
        ),
    ]
}

/// One corpus trace, as the system receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Shape class, for reports.
    pub class: &'static str,
    /// The trace in the JSON format `wcp generate` writes.
    pub text: String,
    /// Predicate scope.
    pub scope: Vec<u32>,
    /// Scope projection of the first satisfying cut.
    pub oracle: Option<Vec<u64>>,
}

/// The generated corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Traces in corpus order.
    pub traces: Vec<Trace>,
}

impl Inputs {
    /// Digest of every trace's JSON text and scope.
    pub fn digest(&self) -> u64 {
        let scopes: Vec<String> = self
            .traces
            .iter()
            .map(|t| format!("{:?}", t.scope))
            .collect();
        stats::digest(
            self.traces
                .iter()
                .zip(&scopes)
                .flat_map(|(t, s)| [t.text.as_bytes(), s.as_bytes()]),
        )
    }
}

/// Generates the corpus for `seed`, computes each oracle cut, and warms
/// the sequential pipelines up once.
pub fn setup(cfg: &Config) -> Inputs {
    let mut rng = SplitMix::new(cfg.seed ^ 0x000F_F11E);
    let mut traces = Vec::new();
    for (shape, copies) in corpus(cfg.toy) {
        for _ in 0..copies {
            let seed = rng.next_u64();
            let (class, c, scope) = match shape {
                Shape::Uniform { n, m } => ("uniform", system::uniform(n, m, seed), all(n)),
                Shape::ClientServer { n, m } => {
                    ("client-server", system::client_server(n, m, seed), all(n))
                }
                Shape::Staircase { n, rounds } => (
                    "staircase",
                    system::staircase(&rng.permutation(n), rounds),
                    all(n),
                ),
                Shape::Narrow { n, scope, m } => {
                    let mut s = rng.permutation(n);
                    s.truncate(scope);
                    s.sort_unstable();
                    ("narrow", system::uniform(n, m, seed), s)
                }
            };
            let text = system::to_json(&c);
            let parsed = system::parse(&text).expect("a generated trace parses");
            let oracle = system::oracle(&system::annotate(&parsed), &system::scope(&scope));
            traces.push(Trace {
                class,
                text,
                scope,
                oracle,
            });
        }
    }
    let inputs = Inputs { traces };
    // Warm up the sequential families only: thread spawns slow down what
    // runs after them, and the parallel family warms up in its own phase.
    let off = Tracer::new(false);
    for f in Family::ALL.into_iter().filter(|f| *f != Family::Parallel) {
        for (i, t) in inputs.traces.iter().enumerate() {
            let _ = system::guarded(|| pipeline(f, t, i as u64, &off));
        }
    }
    inputs
}

fn all(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

fn detect_span(f: Family) -> &'static str {
    match f {
        Family::Token => "offline.detect.token",
        Family::Direct => "offline.detect.direct",
        Family::Checker => "offline.detect.checker",
        Family::Parallel => "offline.detect.parallel",
    }
}

/// JSON text in → verdict out, one span per layer call.
fn pipeline(f: Family, t: &Trace, req: u64, tr: &Tracer) -> Result<system::Verdict, String> {
    let c = tr.span("wcp-trace", "offline.parse", req, || system::parse(&t.text))?;
    let a = tr.span("wcp-trace", "offline.annotate", req, || {
        system::annotate(&c)
    });
    let w = system::scope(&t.scope);
    Ok(tr.span("wcp-detect", detect_span(f), req, || {
        system::detect(f, &a, &w)
    }))
}

/// The queue builds each detector starts with, timed on their own so the
/// kernel time can be estimated as detect − build. Traced runs only.
fn queue_builds(t: &Trace, req: u64, tr: &Tracer) {
    let Ok(c) = system::parse(&t.text) else {
        return;
    };
    let a = system::annotate(&c);
    let w = system::scope(&t.scope);
    tr.span("wcp-detect", "offline.queue_build", req, || {
        std::hint::black_box(system::queue_build(&a, &w))
    });
    tr.span("wcp-detect", "offline.queue_build_par", req, || {
        std::hint::black_box(system::queue_build_par(&a, &w))
    });
    tr.span("wcp-detect", "offline.dd_queue_build", req, || {
        std::hint::black_box(system::dd_queue_build(&a, &w))
    });
}

/// Runs whole passes over the corpus, one trace at a time. The sequential
/// families take three quarters of the budget, rotating pass by pass so a
/// burst of host noise lands on all of them alike; the parallel family
/// runs last, for the rest, after one untimed warm-up pass. Its thread
/// spawns perturb whatever runs after them, as they would not in separate
/// CLI runs. Verdicts are checked against the oracle after each timed
/// pipeline.
pub fn measure(inputs: &Inputs, cfg: &Config, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let families = Family::ALL.len();
    let sequential = families - 1;
    // Pipeline times per (family, trace), and the first verdict per
    // (trace, family), which later passes must repeat.
    let mut samples = vec![vec![Vec::new(); inputs.traces.len()]; families];
    let mut first: Vec<Vec<Option<system::Verdict>>> =
        vec![vec![None; families]; inputs.traces.len()];
    let mut pass = |fi: usize, timed: bool, out: &mut Outcome| {
        let f = Family::ALL[fi];
        for (i, t) in inputs.traces.iter().enumerate() {
            let req = i as u64;
            let t0 = Instant::now();
            let got = system::guarded(|| {
                tr.span("bench", "offline.pipeline", req, || pipeline(f, t, req, tr))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if !timed {
                continue;
            }
            samples[fi][i].push(ms);
            let mut verdict = got.and_then(Result::ok);
            if cfg.sabotage && i == 0 && samples[fi][i].len() == 1 {
                if let Some(v) = verdict.as_mut() {
                    v.cut = v.cut.take().map_or(Some(vec![]), |_| None);
                }
            }
            let ok = match (&verdict, &first[i][fi]) {
                (None, _) => false,
                (Some(v), None) => v.cut == t.oracle,
                (Some(v), Some(want)) => v == want,
            };
            out.count(ok && ms <= DEADLINE_MS);
            if first[i][fi].is_none() {
                first[i][fi] = verdict.filter(|_| ok);
            }
        }
    };
    let start = Instant::now();
    let mut n = 0;
    while n % sequential != 0 || n == 0 || start.elapsed() < cfg.budget.mul_f64(0.75) {
        pass(n % sequential, true, &mut out);
        n += 1;
    }
    let parallel = families - 1;
    pass(parallel, false, &mut out);
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < cfg.budget / 4 {
        pass(parallel, true, &mut out);
        n += 1;
    }
    if tr.is_on() {
        for _ in 0..LAYER_PASSES {
            for (i, t) in inputs.traces.iter().enumerate() {
                queue_builds(t, i as u64, tr);
            }
            for probe in 0..DISPATCH_PROBES {
                tr.span("wcp-clocks", "par.dispatch", probe as u64, || {
                    std::hint::black_box(system::dispatch_noop())
                });
            }
        }
    }

    // Per family: a pass over the corpus at each trace's median time.
    let per_s: Vec<f64> = samples
        .iter()
        .map(|per_trace| {
            let pass_ms: f64 = per_trace.iter().map(|s| median(s)).sum();
            per_trace.len() as f64 / (pass_ms / 1e3)
        })
        .collect();
    out.throughput_per_s = geomean(&per_s);
    out.latency_ms_p50 = geomean(
        &samples
            .iter()
            .flatten()
            .map(|s| median(s))
            .collect::<Vec<_>>(),
    );
    for (f, rate) in Family::ALL.iter().zip(&per_s) {
        out.named.push(Metric::new(
            format!("offline_{}_traces_per_s", f.name()),
            *rate,
            "traces/s",
        ));
    }
    if tr.is_on() {
        layers(&mut out, tr, &first);
    }
    out
}

fn layers(out: &mut Outcome, tr: &Tracer, first: &[Vec<Option<system::Verdict>>]) {
    let build_us = tr.mean_ms("offline.queue_build") * 1e3;
    let build_par_us = tr.mean_ms("offline.queue_build_par") * 1e3;
    let dd_build_us = tr.mean_ms("offline.dd_queue_build") * 1e3;
    let l = &mut out.layers;
    l.push(Metric::new(
        "trace.parse_ms",
        tr.mean_ms("offline.parse"),
        "ms",
    ));
    l.push(Metric::new(
        "trace.annotate_ms",
        tr.mean_ms("offline.annotate"),
        "ms",
    ));
    l.push(Metric::new("core.queue_build_us", build_us, "us"));
    l.push(Metric::new("core.queue_build_par_us", build_par_us, "us"));
    for (fi, f) in Family::ALL.iter().enumerate() {
        let build = match f {
            Family::Direct => dd_build_us,
            Family::Parallel => build_par_us,
            Family::Token | Family::Checker => build_us,
        };
        let detect_us = tr.mean_ms(detect_span(*f)) * 1e3;
        l.push(Metric::new(
            format!("core.detect_us.{}", f.name()),
            detect_us - build,
            "us",
        ));
        let work: u64 = first
            .iter()
            .filter_map(|t| t[fi].as_ref())
            .map(|v| v.work)
            .sum();
        l.push(Metric::new(
            format!("core.work.{}", f.name()),
            work as f64,
            "units",
        ));
    }
    let pi = Family::ALL
        .iter()
        .position(|f| *f == Family::Parallel)
        .expect("parallel is a family");
    let span: u64 = first
        .iter()
        .filter_map(|t| t[pi].as_ref())
        .map(|v| v.span)
        .sum();
    l.push(Metric::new("core.span.parallel", span as f64, "units"));
    l.push(Metric::new(
        "par.dispatch_us",
        tr.mean_ms("par.dispatch") * 1e3,
        "us",
    ));
}
