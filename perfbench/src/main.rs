//! `perfbench`: one seeded benchmark for WCP detection.
//!
//! ```text
//! perfbench --workload <offline-corpus|online-token|session-stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <A> <B>
//! ```
//!
//! A run generates its inputs from `--seed` during set-up, measures for
//! `--seconds`, checks every verdict against the Theorem 3.2 oracle outside
//! the timed region, prints each metric as `metric <name> <value> <unit>
//! <better> [bound]`, and ends with one JSON line. With `--trace 0` that
//! line holds the end-to-end metrics; with `--trace 1` the per-layer ones.
//! `compare` reads two files of such run outputs. See `README.md`.

mod compare;
mod offline;
mod online;
mod report;
mod session;
mod spans;
mod stats;
mod system;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Metric, Outcome};
use spans::Tracer;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measuring time of the leg.
    pub budget: Duration,
    /// Toy-sized inputs, for the self-tests.
    pub toy: bool,
    /// Corrupt one verdict before it is checked, for the self-tests.
    pub sabotage: bool,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over a seeded JSON trace corpus, four detector families.
    Offline,
    /// The §3 token algorithm on sim, loopback, TCP and telemetry.
    Online,
    /// A multi-tenant session stream, open and closed loop.
    Session,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Offline, Workload::Online, Workload::Session];

    fn name(self) -> &'static str {
        match self {
            Workload::Offline => "offline-corpus",
            Workload::Online => "online-token",
            Workload::Session => "session-stream",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// End-to-end metrics: `(name, unit, better, bound)`, as in
/// `BENCHMARK.json`.
const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
];

enum Inputs {
    Offline(offline::Inputs),
    Online(online::Inputs),
    Session(session::Inputs),
}

impl Inputs {
    fn digest(&self) -> u64 {
        match self {
            Inputs::Offline(i) => i.digest(),
            Inputs::Online(i) => i.digest(),
            Inputs::Session(i) => i.digest(),
        }
    }
}

fn setup(w: Workload, cfg: &Config) -> Inputs {
    match w {
        Workload::Offline => Inputs::Offline(offline::setup(cfg)),
        Workload::Online => Inputs::Online(online::setup(cfg)),
        Workload::Session => Inputs::Session(session::setup(cfg)),
    }
}

fn measure(inputs: &Inputs, cfg: &Config, tr: &Tracer) -> Outcome {
    match inputs {
        Inputs::Offline(i) => offline::measure(i, cfg, tr),
        Inputs::Online(i) => online::measure(i, cfg, tr),
        Inputs::Session(i) => session::measure(i, cfg, tr),
    }
}

/// What one run reports.
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further named metrics, printed but not in the JSON line.
    pub extra: Vec<Metric>,
    /// The traced run's spans, if any.
    pub tracer: Option<Tracer>,
    /// Digest of the workload's generated inputs.
    pub digest: u64,
}

fn failed_ratio(attempted: u64, failed: u64) -> Metric {
    Metric::new(
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "failed/attempted",
    )
}

/// The untraced run: set up [`SETUPS`] times, measure once, report the
/// end-to-end metrics.
pub fn run_untraced(w: Workload, cfg: &Config) -> RunResult {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup(w, cfg));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let out = measure(&inputs, cfg, &Tracer::new(false));
    let peak_rss_mb = stats::peak_rss_mb();
    let mut extra = out.named;
    extra.push(failed_ratio(out.attempted, out.failed));
    let values = [
        stats::median(&setup_s),
        peak_rss_mb,
        out.throughput_per_s,
        out.latency_ms_p50,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _, _), v)| Metric::new(*name, v, unit))
        .collect();
    RunResult {
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        extra,
        tracer: None,
        digest: inputs.digest(),
    }
}

/// The traced run. The workload's own leg is measured untraced for half
/// the budget and traced for the other half, which gives the tracing
/// overhead; the other two legs run traced on a short probe budget so
/// every per-layer metric is measured in every workload.
pub fn run_traced(w: Workload, cfg: &Config) -> RunResult {
    let half = Config {
        budget: cfg.budget / 2,
        ..cfg.clone()
    };
    let inputs = setup(w, cfg);
    let off = measure(&inputs, &half, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let on = measure(&inputs, &half, &tracer);
    let digest = inputs.digest();
    drop(inputs);
    let mut attempted = off.attempted + on.attempted;
    let mut failed = off.failed + on.failed;
    let mut by_leg = vec![(w, off.named, on.layers)];
    by_leg[0].2.push(Metric::new(
        "trace.overhead_ratio",
        off.throughput_per_s / on.throughput_per_s,
        "ratio",
    ));
    let probe = Config {
        budget: (cfg.budget / 8).max(Duration::from_millis(500)),
        ..cfg.clone()
    };
    for other in Workload::ALL.into_iter().filter(|o| *o != w) {
        let inputs = setup(other, &probe);
        let out = measure(&inputs, &probe, &Tracer::new(true));
        attempted += out.attempted;
        failed += out.failed;
        by_leg.push((other, out.named, out.layers));
    }
    // Report in a fixed order whatever the workload.
    by_leg.sort_by_key(|(leg, _, _)| Workload::ALL.iter().position(|x| x == leg));
    let mut metrics = Vec::new();
    let mut extra = Vec::new();
    for (_, named, layers) in by_leg {
        for m in named.into_iter().chain(layers) {
            if LAYER_PRINT_ONLY.contains(&m.name.as_str()) {
                extra.push(m);
            } else {
                metrics.push(m);
            }
        }
    }
    for (layer, ms) in tracer.self_ms_by_layer() {
        extra.push(Metric::new(format!("self_ms.{layer}"), ms, "ms"));
    }
    extra.push(Metric::new("spans", tracer.len() as f64, "count"));
    extra.push(failed_ratio(attempted, failed));
    RunResult {
        attempted,
        failed,
        metrics,
        extra,
        tracer: Some(tracer),
        digest,
    }
}

/// Counts of the traced run that are printed but kept out of the JSON
/// line: retransmits are 0 on clean links, and the TCP sample count only
/// qualifies `online_tcp_ms_p90`.
const LAYER_PRINT_ONLY: [&str; 2] = ["net.retransmits", "online_tcp_runs"];

fn better(unit: &str) -> &'static str {
    if unit.ends_with("/s") {
        "higher"
    } else {
        "lower"
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// The printed report: a header, one `metric` line per metric, and the
/// final JSON line.
pub fn render(w: Workload, cfg: &Config, trace: bool, r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# perfbench workload={} seed={} seconds={} trace={} inputs={:016x}",
        w.name(),
        cfg.seed,
        cfg.budget.as_secs_f64(),
        u8::from(trace),
        r.digest
    );
    for m in r.metrics.iter().chain(&r.extra) {
        let bound = END_TO_END
            .iter()
            .find(|e| e.0 == m.name && !trace)
            .map_or(String::new(), |e| format!(" {}", e.3));
        let better = END_TO_END
            .iter()
            .find(|e| e.0 == m.name)
            .map_or(better(m.unit), |e| e.2);
        let _ = writeln!(
            s,
            "metric {} {} {} {}{}",
            m.name,
            number(m.value),
            m.unit,
            better,
            bound
        );
    }
    let finite = r.metrics.iter().all(|m| m.value.is_finite());
    let correct = r.failed == 0 && r.attempted > 0 && finite;
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        body.join(", ")
    );
    s
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <offline-corpus|online-token|session-stream> \
         --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <A> <B>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next().and_then(|v| Workload::parse(v)),
            "--seed" => seed = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = it.next().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => trace = it.next().and_then(|v| v.parse::<u8>().ok()),
            _ => return usage(),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace @ 0..=1)) =
        (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let cfg = Config {
        seed,
        budget: Duration::from_secs_f64(seconds),
        toy: false,
        sabotage: false,
    };
    let result = if trace == 1 {
        run_traced(w, &cfg)
    } else {
        run_untraced(w, &cfg)
    };
    if let Some(tracer) = &result.tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.jsonl", w.name(), seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut f = std::io::BufWriter::new(f);
                tracer.write_jsonl(&mut f)?;
                f.flush()
            });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    print!("{}", render(w, &cfg, trace == 1, &result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod selftest {
    //! The benchmark's own checks, at toy size.

    use super::*;

    /// Counts that must repeat exactly for a seed.
    const EXACT: [&str; 9] = [
        "core.work.token",
        "core.work.direct",
        "core.work.checker",
        "core.work.parallel",
        "core.span.parallel",
        "online.token_hops",
        "net.bytes_per_event",
        "session.deliveries",
        "session.stored_bytes",
    ];

    fn toy(seed: u64) -> Config {
        Config {
            seed,
            budget: Duration::from_millis(300),
            toy: true,
            sabotage: false,
        }
    }

    /// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let body = &text[text
            .find(&format!("\"{section}\""))
            .expect("section present")..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |item: &str, key: &str| {
            let v =
                &item[item.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5..];
            v[..v.find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|item| (field(item, "name"), field(item, "unit")))
            .collect()
    }

    fn listed(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut v: Vec<_> = metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    fn value(r: &RunResult, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} reported"))
            .value
    }

    #[test]
    fn every_workload_emits_every_declared_metric_with_its_unit() {
        let mut end_to_end = declared("end_to_end");
        end_to_end.sort();
        let mut per_layer = declared("per_layer");
        per_layer.sort();
        for w in Workload::ALL {
            for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
                let r = if trace {
                    run_traced(w, &toy(1))
                } else {
                    run_untraced(w, &toy(1))
                };
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name());
                assert_eq!(&listed(&r.metrics), want, "{} trace={trace}", w.name());
                assert!(r.metrics.iter().all(|m| m.value.is_finite()));
                let text = render(w, &toy(1), trace, &r);
                assert!(text
                    .lines()
                    .last()
                    .unwrap()
                    .starts_with("{\"correct\": true"));
            }
        }
    }

    #[test]
    fn a_sabotaged_verdict_raises_failed() {
        for w in Workload::ALL {
            let cfg = Config {
                sabotage: true,
                ..toy(2)
            };
            let out = measure(&setup(w, &cfg), &cfg, &Tracer::new(false));
            assert!(out.failed >= 1, "{}: sabotage went unnoticed", w.name());
            let clean = measure(&setup(w, &toy(2)), &toy(2), &Tracer::new(false));
            assert_eq!(clean.failed, 0, "{}", w.name());
        }
    }

    #[test]
    fn the_same_seed_repeats_inputs_and_exact_counts() {
        for w in Workload::ALL {
            let a = setup(w, &toy(3)).digest();
            assert_eq!(a, setup(w, &toy(3)).digest(), "{}", w.name());
            assert_ne!(a, setup(w, &toy(4)).digest(), "{}", w.name());
        }
        let a = run_traced(Workload::Offline, &toy(3));
        let b = run_traced(Workload::Offline, &toy(3));
        for name in EXACT {
            assert_eq!(value(&a, name), value(&b, name), "{name}");
        }
    }
}
