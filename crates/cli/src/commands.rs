//! The CLI commands. Each is a pure function from parsed arguments to the
//! stdout text, so the suite below tests the full surface without spawning
//! processes.

use std::fs;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wcp_clocks::ProcessId;
use wcp_detect::lower_bound::run_optimal_algorithm;
use wcp_detect::online::{run_online, simulate, Family, RunOptions};
use wcp_detect::{
    audit_bounds, BoundLimits, CentralizedChecker, ChannelPredicate, ChannelTerm, Detection,
    DetectionReport, Detector, DirectDependenceDetector, Gcp, GcpChecker, LatticeDetector,
    MultiTokenDetector, ParallelDetector, TokenDetector,
};
use wcp_net::{
    run_multi_net, run_net, run_vc_token_net, serve_multi_peer, serve_vc_peer, NetConfig,
    TelemetryCollector, TransportKind,
};
use wcp_obs::json::{FromJson, Json, ToJson};
use wcp_obs::{jsonl, NullRecorder, Recorder, RingRecorder, RunReport};
use wcp_session::{run_multi_sim, PredicateOutcome, Service};
use wcp_sim::{FaultConfig, SimConfig};
use wcp_trace::channel::ChannelId;
use wcp_trace::generate::{generate as generate_workload, GeneratorConfig, Topology};
use wcp_trace::lattice::LatticeExplorer;
use wcp_trace::render::{self, DiagramOptions};
use wcp_trace::{Computation, Wcp};

use crate::args::Args;
use crate::CliError;

fn load(path: &str) -> Result<Computation, CliError> {
    let data = fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let computation = Computation::from_json(&Json::parse(&data)?)?;
    computation
        .validate()
        .map_err(|e| CliError::runtime(format!("{path} is not a valid computation: {e}")))?;
    Ok(computation)
}

fn parse_scope(args: &Args, computation: &Computation) -> Result<Wcp, CliError> {
    match args.get("scope") {
        None => Ok(Wcp::over_all(computation)),
        Some(spec) => {
            let mut ids = Vec::new();
            for part in spec.split(',') {
                let idx: u32 = part
                    .trim()
                    .parse()
                    .map_err(|_| CliError::usage(format!("--scope: bad process id `{part}`")))?;
                if idx as usize >= computation.process_count() {
                    return Err(CliError::usage(format!(
                        "--scope: process {idx} out of range (N = {})",
                        computation.process_count()
                    )));
                }
                ids.push(ProcessId::new(idx));
            }
            if ids.is_empty() {
                return Err(CliError::usage("--scope: empty"));
            }
            Ok(Wcp::over(ids))
        }
    }
}

/// Largest trace `wcp generate` writes, in events (`N·M`, with `M` counted
/// as at least 1): a million events take about a second and 130 MB of JSON.
pub const GENERATE_MAX_EVENTS: usize = 1_000_000;

/// `wcp generate` — write a seeded random workload to a JSON file.
pub fn generate_cmd(args: &Args) -> Result<String, CliError> {
    let processes: usize = args.require("processes")?;
    if processes == 0 {
        return Err(CliError::usage("--processes: needs at least one process"));
    }
    let events: usize = args.require("events")?;
    if processes
        .checked_mul(events.max(1))
        .is_none_or(|total| total > GENERATE_MAX_EVENTS)
    {
        return Err(CliError::usage(format!(
            "--processes × --events must be at most {GENERATE_MAX_EVENTS}"
        )));
    }
    let seed: u64 = args.get_or("seed", 0)?;
    let density: f64 = args.get_or("density", 0.1)?;
    let out: String = args.require("o")?;

    let mut cfg = GeneratorConfig::new(processes, events)
        .with_seed(seed)
        .with_predicate_density(density);
    if let Some(f) = args.get("plant") {
        let f: f64 = f
            .parse()
            .map_err(|_| CliError::usage("--plant: expected a fraction"))?;
        cfg = cfg.with_plant(f);
    }
    if let Some(topo) = args.get("topology") {
        let topology = parse_topology(topo)?;
        if let Topology::ClientServer { servers } = topology {
            if servers >= processes {
                return Err(CliError::usage(format!(
                    "--topology cs:{servers}: needs fewer servers than --processes ({processes})"
                )));
            }
        }
        cfg = cfg.with_topology(topology);
    }
    let generated = generate_workload(&cfg);
    fs::write(&out, generated.computation.to_json().pretty())?;
    let mut msg = format!("wrote {out}: {}", generated.computation.stats());
    if let Some(cut) = generated.planted {
        msg.push_str(&format!("\nplanted satisfying cut at {cut}"));
    }
    Ok(msg)
}

fn parse_topology(spec: &str) -> Result<Topology, CliError> {
    if spec == "uniform" {
        return Ok(Topology::Uniform);
    }
    if spec == "ring" {
        return Ok(Topology::Ring);
    }
    let at_least_one = |k: &str| k.parse().ok().filter(|&k: &usize| k >= 1);
    if let Some(k) = spec.strip_prefix("cs:") {
        let servers = at_least_one(k)
            .ok_or_else(|| CliError::usage("--topology cs:K needs a server count K ≥ 1"))?;
        return Ok(Topology::ClientServer { servers });
    }
    if let Some(k) = spec.strip_prefix("nb:") {
        let degree = at_least_one(k)
            .ok_or_else(|| CliError::usage("--topology nb:K needs a degree K ≥ 1"))?;
        return Ok(Topology::Neighbors { degree });
    }
    Err(CliError::usage(format!("unknown topology `{spec}`")))
}

/// `wcp info` — validate and summarize a trace file.
pub fn info(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("info", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let stats = computation.stats();
    let mut out = format!("{path}: valid\n{stats}\n");
    let annotated = computation.annotate();
    for (p, _) in computation.iter() {
        out.push_str(&format!(
            "  {p}: {} events, {} true intervals\n",
            computation.process(p).event_count(),
            annotated.true_intervals(p).len()
        ));
    }
    Ok(out)
}

/// `wcp generate` entry point.
pub fn generate(raw: &[String]) -> Result<String, CliError> {
    generate_cmd(&Args::parse("generate", raw)?)
}

/// Parses a `parallel` / `parallel:T` spec into a worker count.
fn parse_parallel_threads(spec: &str) -> Result<Option<usize>, CliError> {
    if spec == "parallel" {
        return Ok(Some(1));
    }
    match spec.strip_prefix("parallel:") {
        Some(t) => {
            let threads: usize =
                t.parse().ok().filter(|&t| t >= 1).ok_or_else(|| {
                    CliError::usage("--algorithm parallel:T needs a thread count")
                })?;
            Ok(Some(threads))
        }
        None => Ok(None),
    }
}

/// The group count `G` of `multi:G`, which must be at least 1.
fn parse_multi_groups(groups: &str) -> Result<usize, CliError> {
    groups
        .parse()
        .ok()
        .filter(|&g| g >= 1)
        .ok_or_else(|| CliError::usage("--algorithm multi:G needs a group count"))
}

/// The offline detector `spec` names, streaming its
/// [`wcp_obs::TraceEvent`]s to `recorder`.
fn parse_detector(spec: &str, recorder: Arc<dyn Recorder>) -> Result<Box<dyn Detector>, CliError> {
    Ok(match spec {
        "token" => Box::new(TokenDetector::new().with_recorder(recorder)),
        "checker" => Box::new(CentralizedChecker::new().with_recorder(recorder)),
        "direct" => Box::new(DirectDependenceDetector::new().with_recorder(recorder)),
        "lattice" => Box::new(LatticeDetector::new().with_recorder(recorder)),
        other => {
            if let Some(g) = other.strip_prefix("multi:") {
                Box::new(MultiTokenDetector::new(parse_multi_groups(g)?).with_recorder(recorder))
            } else if let Some(threads) = parse_parallel_threads(other)? {
                Box::new(
                    ParallelDetector::new()
                        .with_threads(threads)
                        .with_recorder(recorder),
                )
            } else {
                return Err(CliError::usage(format!(
                    "unknown algorithm `{other}` \
                     (token|checker|direct|lattice|multi:G|parallel[:T])"
                )));
            }
        }
    })
}

fn describe(report: &DetectionReport, json: bool) -> Result<String, CliError> {
    if json {
        return Ok(report.to_json().pretty());
    }
    let mut out = String::new();
    match &report.detection {
        Detection::Detected { cut } => out.push_str(&format!("DETECTED at cut {cut}\n")),
        Detection::Undetected => {
            out.push_str("UNDETECTED: the predicate never held on a consistent cut\n")
        }
    }
    out.push_str(&format!("cost: {}\n", report.metrics));
    Ok(out)
}

/// `wcp detect` — run a WCP detector on a trace file.
pub fn detect(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("detect", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let detector = parse_detector(
        args.get("algorithm").unwrap_or("token"),
        Arc::new(NullRecorder),
    )?;

    let annotated = computation.annotate();
    let report = detector.try_detect(&annotated, &wcp)?;
    let mut out = format!("algorithm: {}\npredicate: {wcp}\n", detector.name());
    out.push_str(&describe(&report, args.switch("json"))?);
    if let Some(slice_path) = args.get("slice") {
        if let Detection::Detected { cut } = &report.detection {
            // Scope-only cuts (zero entries elsewhere) are completed to the
            // least consistent extension before slicing.
            let full = if cut.is_complete() {
                cut.clone()
            } else {
                let states: Vec<_> = wcp
                    .scope()
                    .iter()
                    .map(|&p| {
                        cut.get(p)
                            .filter(|&k| k >= 1)
                            .map(|k| wcp_clocks::StateId::new(p, k))
                            .ok_or_else(|| {
                                CliError::runtime(format!(
                                    "detected cut {cut} selects no state for scope process {p}; \
                                     cannot slice"
                                ))
                            })
                    })
                    .collect::<Result<Vec<_>, CliError>>()?;
                annotated.check_full_clocks()?;
                annotated
                    .least_consistent_extension(&states)
                    .ok_or_else(|| CliError::runtime("no consistent extension for the cut"))?
            };
            let sliced = computation.truncate_at(&full);
            fs::write(slice_path, sliced.to_json().pretty())?;
            out.push_str(&format!(
                "sliced trace (prefix at {full}) written to {slice_path}\n"
            ));
        } else {
            out.push_str("no detection: nothing to slice\n");
        }
    }
    if args.switch("diagram") {
        let options = match &report.detection {
            Detection::Detected { cut } => DiagramOptions::with_cut(cut.clone()),
            Detection::Undetected => DiagramOptions {
                cut: None,
                show_predicates: true,
            },
        };
        out.push('\n');
        out.push_str(&render::ascii(&computation, &options));
    }
    Ok(out)
}

/// `wcp trace` — run an offline detector with a recorder attached and
/// write the event stream as JSONL.
pub fn trace(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("trace", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let events_path: String = args.require("events")?;
    let capacity: usize = args.get_or("capacity", 1 << 20)?;

    let ring = Arc::new(RingRecorder::new(capacity));
    let detector = parse_detector(args.get("algorithm").unwrap_or("token"), ring.clone())?;
    let annotated = computation.annotate();
    let report = detector.try_detect(&annotated, &wcp)?;

    let events = ring.events();
    fs::write(&events_path, jsonl::to_string(&events))?;
    let mut out = format!(
        "algorithm: {}\npredicate: {wcp}\nwrote {} events to {events_path}",
        detector.name(),
        events.len()
    );
    if ring.dropped() > 0 {
        out.push_str(&format!(
            " ({} older events dropped; raise --capacity)",
            ring.dropped()
        ));
    }
    out.push('\n');
    out.push_str(&describe(&report, args.switch("json"))?);
    Ok(out)
}

/// `wcp stats` — run the paper's two online algorithms (Section 3 token,
/// Section 4 direct dependence) over the simulated network with recorders
/// attached and print their [`RunReport`]s: per-monitor token-hop counts,
/// queue-delay histograms and the candidate-elimination timeline.
pub fn stats(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("stats", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let capacity: usize = args.get_or("capacity", 1 << 20)?;

    let mut out = String::new();
    let mut section = |title: &str, run: &dyn Fn(Arc<RingRecorder>) -> u64| {
        let ring = Arc::new(RingRecorder::new(capacity));
        let latency = run(ring.clone());
        out.push_str(&format!("== {title} (sim seed {seed}) ==\n"));
        if ring.dropped() > 0 {
            out.push_str(&format!(
                "({} oldest events dropped; raise --capacity)\n",
                ring.dropped()
            ));
        }
        out.push_str(&RunReport::from_events(&ring.events()).render());
        out.push_str(&format!("detection latency: {latency} ticks\n\n"));
    };
    for (title, family) in [
        ("section 3: vector-clock token algorithm", Family::VcToken),
        (
            "section 4: direct-dependence algorithm",
            Family::Direct { parallel: false },
        ),
    ] {
        section(title, &|ring| {
            let layout = family.layout(&computation, &wcp);
            let options = RunOptions::recorded(ring);
            simulate(layout, SimConfig::seeded(seed), &options)
                .outcome
                .time
                .0
        });
    }
    // Wire section: the same token run over the in-process loopback
    // transport, surfacing the transport-layer counters the simulator has
    // no notion of — batch coalescing, ready-queue watermark, buffer-pool
    // reuse.
    let net = run_vc_token_net(&computation, &wcp, NetConfig::loopback()).net;
    out.push_str("== wire transport (loopback, batched writes) ==\n");
    out.push_str(&format!(
        "frames        : {} sent ({} B) / {} received ({} B)\n",
        net.frames_sent, net.bytes_sent, net.frames_received, net.bytes_received
    ));
    out.push_str(&format!(
        "recovery      : {} retransmits, {} reconnects, {} dups dropped, {} reordered\n",
        net.retransmits, net.reconnects, net.duplicates_dropped, net.reordered
    ));
    out.push_str(&format!(
        "batch flushes : {} (max batch {} B)\n",
        net.batch_flushes, net.max_batch_bytes
    ));
    out.push_str(&format!("ready depth   : ≤ {}\n", net.max_ready_depth));
    out.push_str(&format!(
        "buffer pool   : {} allocs / {} reuses\n",
        net.pool_allocs, net.pool_reuses
    ));
    out.push_str(&format!(
        "acks          : {} out / {} in\n",
        net.acks_sent, net.acks_received
    ));
    // Wire-v2 compression: actual bytes against what the same frames
    // would have cost under v1 full-width clock bodies (paper units are
    // unaffected — DetectionMetrics always counts `wire_size()`).
    let ratio = net.bytes_sent as f64 / net.wire_bytes_v1_equiv.max(1) as f64;
    out.push_str(&format!(
        "wire v2       : {} B sent vs {} B v1-equiv ({:.2}× ratio)\n",
        net.bytes_sent, net.wire_bytes_v1_equiv, ratio
    ));
    out.push_str(&format!(
        "clock chains  : {} keyframes / {} deltas\n",
        net.keyframes_sent, net.delta_frames_sent
    ));
    // Multi-tenant section: the same trace served to a handful of
    // sessions with diverse scopes through the shared session layer,
    // surfacing the per-session counters the single-predicate runs
    // above have no notion of.
    let n = computation.process_count();
    let sessions = 2 * n;
    let multi = run_multi_net(
        &computation,
        &Service::new(&derived_predicates(n, sessions)),
        NetConfig::loopback(),
        &RunOptions::default(),
    );
    out.push_str(&format!(
        "\n== multi-tenant session layer (loopback, {sessions} sessions) ==\n"
    ));
    out.push_str(&format!(
        "sessions      : {} active at end of run\n",
        multi.report.stats.sessions_active
    ));
    out.push_str(&format!(
        "routing       : {} routed events, {} detections\n",
        multi.report.stats.routed_events, multi.report.stats.detections
    ));
    out.push_str(&format!(
        "shared store  : {} B of snapshots ({:.1} B/session)\n",
        multi.report.stored_bytes,
        multi.report.stored_bytes as f64 / sessions as f64
    ));
    Ok(out.trim_end().to_string() + "\n")
}

fn parse_channel_term(spec: &str) -> Result<ChannelTerm, CliError> {
    let usage = || {
        CliError::usage(format!(
            "--channel: `{spec}` (want FROM-TO:empty|atmost:K|atleast:K)"
        ))
    };
    let (endpoints, predicate) = spec.split_once(':').ok_or_else(usage)?;
    let (from, to) = endpoints.split_once('-').ok_or_else(usage)?;
    let from: u32 = from.parse().map_err(|_| usage())?;
    let to: u32 = to.parse().map_err(|_| usage())?;
    let predicate = match predicate {
        "empty" => ChannelPredicate::Empty,
        other => {
            if let Some(k) = other.strip_prefix("atmost:") {
                ChannelPredicate::AtMost(k.parse().map_err(|_| usage())?)
            } else if let Some(k) = other.strip_prefix("atleast:") {
                ChannelPredicate::AtLeast(k.parse().map_err(|_| usage())?)
            } else {
                return Err(usage());
            }
        }
    };
    Ok(ChannelTerm {
        channel: ChannelId::new(ProcessId::new(from), ProcessId::new(to)),
        predicate,
    })
}

/// `wcp gcp` — detect a generalized conjunctive predicate with channel
/// terms.
pub fn gcp(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("gcp", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let mut terms = Vec::new();
    for spec in args.get_all("channel") {
        terms.push(parse_channel_term(spec)?);
    }
    for term in &terms {
        if !wcp.contains(term.channel.from) || !wcp.contains(term.channel.to) {
            return Err(CliError::usage(format!(
                "--channel {}: endpoints must be inside the scope",
                term.channel
            )));
        }
    }
    let gcp = Gcp::new(wcp, terms);
    let annotated = computation.annotate();
    let checker = GcpChecker::new();
    annotated.check_scope_clocks(gcp.wcp())?;
    let report = checker.detect(&annotated, &gcp);
    let mut out = format!("predicate: {gcp}\n");
    out.push_str(&describe(&report, args.switch("json"))?);
    Ok(out)
}

/// `wcp render` — print a space-time diagram (text or Graphviz DOT).
pub fn render(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("render", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    // `--scope` is advertised in USAGE; out-of-range ids must be a proper
    // usage error, not silently ignored.
    parse_scope(&args, &computation)?;
    let options = DiagramOptions {
        cut: None,
        show_predicates: true,
    };
    if args.switch("dot") {
        Ok(render::dot(&computation, &options))
    } else {
        Ok(render::ascii(&computation, &options))
    }
}

/// `wcp lattice` — explore the global-state lattice of a trace.
pub fn lattice(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("lattice", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let max_states: usize = args.get_or("max-states", 1_000_000)?;
    let survey = LatticeExplorer::new(&computation).survey(&wcp, max_states);
    let mut out = String::new();
    match survey.states {
        Ok(count) => out.push_str(&format!("consistent global states: {count}\n")),
        Err(e) => out.push_str(&format!("consistent global states: {e}\n")),
    }
    match survey.first {
        Ok((Some(cut), visited)) => out.push_str(&format!(
            "first cut satisfying {wcp}: {cut} (after visiting {visited} states)\n"
        )),
        Ok((None, visited)) => out.push_str(&format!(
            "no consistent cut satisfies {wcp} (visited {visited} states)\n"
        )),
        Err(e) => out.push_str(&format!("search truncated: {e}\n")),
    }
    Ok(out)
}

/// A socket run's config and its transport's display name, from
/// `--transport` (`default` when absent), `--deadline` and the fault
/// flags; flags a command does not take keep their defaults.
fn net_config(args: &Args, default: &str) -> Result<(NetConfig, &'static str), CliError> {
    let (transport, name) = match args.get("transport").unwrap_or(default) {
        "tcp" => (TransportKind::Tcp, "tcp (localhost sockets)"),
        "loopback" => (TransportKind::Loopback, "loopback (in-memory)"),
        other => {
            return Err(CliError::usage(format!(
                "--transport: `{other}` (want tcp|loopback)"
            )))
        }
    };
    let deadline = Duration::from_secs(args.get_or("deadline", 60)?);
    let faults = FaultConfig::seeded(args.get_or("fault-seed", 0)?)
        .with_drop(args.get_or("drop", 0.0)?)
        .with_delay(args.get_or("delay", 0.0)?)
        .with_duplicate(args.get_or("duplicate", 0.0)?)
        .with_reorder(args.get_or("reorder", 0.0)?)
        .with_reset(args.get_or("reset", 0.0)?);
    for (flag, p) in [
        ("drop", faults.drop),
        ("delay", faults.delay),
        ("duplicate", faults.duplicate),
        ("reorder", faults.reorder),
        ("reset", faults.reset),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(CliError::usage(format!(
                "--{flag}: probability {p} outside [0, 1]"
            )));
        }
    }
    let config = NetConfig {
        transport,
        faults: (!faults.is_quiet()).then_some(faults),
        deadline,
        telemetry: false,
    };
    Ok((config, name))
}

/// The `faults:` line of a demo run under a fault schedule.
fn faults_line(config: &NetConfig) -> String {
    config.faults.map_or_else(String::new, |f| {
        format!(
            "faults: drop {} delay {} duplicate {} reorder {} reset {} (seed {})\n",
            f.drop, f.delay, f.duplicate, f.reorder, f.reset, f.seed
        )
    })
}

/// `wcp net-demo` — run a detection over real transport (in-process peers
/// over TCP localhost or loopback channels, optionally with injected
/// faults) and cross-check the verdict against the simulator.
pub fn net_demo(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("net-demo", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let algorithm = args.get("algorithm").unwrap_or("token");
    let family: Family = algorithm
        .parse()
        .map_err(|e| CliError::usage(format!("--algorithm: {e}")))?;
    let (config, transport_name) = net_config(&args, "tcp")?;

    let net = run_net(family, &computation, &wcp, config, &RunOptions::default());
    let sim = run_online(family, &computation, &wcp, SimConfig::seeded(0)).report;

    let mut out = format!("algorithm: {family} over {transport_name}\npredicate: {wcp}\n");
    out.push_str(&faults_line(&config));
    out.push_str(&describe(&net.report, args.switch("json"))?);
    out.push_str(&format!("wire: {}\n", net.net));
    if net.report.detection == sim.detection {
        out.push_str("simulator cross-check: identical verdict\n");
    } else {
        return Err(CliError::runtime(format!(
            "net verdict {:?} disagrees with simulator verdict {:?}",
            net.report.detection, sim.detection
        )));
    }
    Ok(out)
}

/// `k` deterministic predicates with diverse scopes over `n` processes:
/// predicate `j` spans `1 + (j mod n)` processes starting at
/// `3·j mod n` — singletons, strided bands and full-width scopes all
/// appear, so the demo exercises routing fan-out, not one shared scope.
fn derived_predicates(n: usize, k: usize) -> Vec<Wcp> {
    (0..k)
        .map(|j| {
            let width = 1 + (j % n);
            Wcp::over((0..width).map(|i| ProcessId::new(((j * 3 + i) % n) as u32)))
        })
        .collect()
}

/// One row of a per-predicate verdict table.
fn outcome_row(outcome: &PredicateOutcome) -> String {
    let verdict = match outcome.verdict.cut() {
        Some(cut) => format!(
            "DETECTED at [{}]",
            cut.iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        None => "impossible".to_string(),
    };
    format!("  {:>3} | {} | {verdict}\n", outcome.id, outcome.wcp)
}

/// `wcp multi-demo` — run `--predicates K` detection sessions with
/// diverse scopes over one shared event stream through the socket-backed
/// multi-tenant service ([`run_multi_net`]), print the per-predicate
/// verdict table and session counters, and cross-check every verdict and
/// every [`DetectionMetrics`](wcp_detect::DetectionMetrics) against the
/// simulator runner — Theorem 3.2 says transport must not matter.
/// `--pump-threads T` fans deliveries out over `T` parallel pump workers
/// (bit-identical to the serial pump either way).
pub fn multi_demo(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("multi-demo", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let n = computation.process_count();
    let k: usize = args.get_or("predicates", 8)?;
    if k == 0 {
        return Err(CliError::usage("multi-demo needs --predicates ≥ 1"));
    }
    let (config, transport_name) = net_config(&args, "loopback")?;
    let service = Service::new(&derived_predicates(n, k));
    let options = pump_options(&args)?;
    let net = run_multi_net(&computation, &service, config, &options);
    let sim_config = SimConfig::seeded(args.get_or("seed", 0)?);
    let sim = run_multi_sim(&computation, &service, sim_config, &options);

    let mut out =
        format!("multi-tenant demo over {transport_name}\nprocesses: {n}, sessions: {k}\n");
    out.push_str(&faults_line(&config));
    out.push_str("   id | scope | verdict\n");
    for outcome in &net.report.outcomes {
        out.push_str(&outcome_row(outcome));
    }
    let stats = &net.report.stats;
    out.push_str(&format!(
        "sessions: {} active, {} routed events, {} detections\n",
        stats.sessions_active, stats.routed_events, stats.detections
    ));
    out.push_str(&format!(
        "store: {} B shared snapshots ({:.1} B/session)\n",
        net.report.stored_bytes,
        net.report.stored_bytes as f64 / k as f64
    ));
    out.push_str(&format!("wire: {}\n", net.net));
    for (socket, simulated) in net.report.outcomes.iter().zip(&sim.outcomes) {
        if socket.verdict != simulated.verdict {
            return Err(CliError::runtime(format!(
                "session {}: socket verdict {:?} disagrees with simulator verdict {:?}",
                socket.id, socket.verdict, simulated.verdict
            )));
        }
        if socket.metrics != simulated.metrics {
            return Err(CliError::runtime(format!(
                "session {}: socket metrics diverge from the simulator's",
                socket.id
            )));
        }
    }
    out.push_str("simulator cross-check: identical verdicts and metrics\n");
    Ok(out)
}

/// Parses `--peer I --addrs HOST:PORT,...` against a session of `n`
/// peers (shared by `serve`, `top` and `obs-report`).
fn parse_peer_addrs(args: &Args, n: usize) -> Result<(usize, Vec<SocketAddr>), CliError> {
    let peer: usize = args.require("peer")?;
    let addrs_raw = args
        .get("addrs")
        .ok_or_else(|| CliError::usage("missing --addrs HOST:PORT,HOST:PORT,..."))?;
    let addrs = addrs_raw
        .split(',')
        .map(|a| {
            a.trim()
                .parse::<SocketAddr>()
                .map_err(|_| CliError::usage(format!("--addrs: bad address `{a}`")))
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    if addrs.len() != n {
        return Err(CliError::usage(format!(
            "--addrs: {} addresses (this session needs {n})",
            addrs.len(),
        )));
    }
    if peer >= n {
        return Err(CliError::usage(format!(
            "--peer: {peer} out of range (this session has {n} peers)"
        )));
    }
    Ok((peer, addrs))
}

/// `wcp serve` — run one peer of a vector-clock token detection as a
/// standalone process, connected to the other peers over TCP. Every peer
/// must be started with the same trace, scope and address list. With
/// `--telemetry` the peer also runs the sidecar telemetry channel: it
/// streams its ring deltas to peer 0, and peer 0 (the collector) prints
/// the merged cross-peer summary. With `--multi` the peer instead joins
/// a multi-tenant session-layer deployment (see `serve_multi`).
pub fn serve(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("serve", raw)?;
    if args.switch("multi") {
        return serve_multi(&args);
    }
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let (peer, addrs) = parse_peer_addrs(&args, wcp.n())?;
    let (config, _) = net_config(&args, "tcp")?;
    let telemetry = args.switch("telemetry").then(TelemetryCollector::shared);
    let options = RunOptions {
        collector: telemetry.clone().map(|c| c as _),
        ..RunOptions::default()
    };
    let report = serve_vc_peer(&computation, &wcp, peer, &addrs, config, &options)?;
    let mut out = format!(
        "peer {peer}/{} listening on {}\npredicate: {wcp}\n",
        wcp.n(),
        addrs[peer]
    );
    match &report.report.detection {
        Detection::Detected { cut } => out.push_str(&format!("DETECTED at cut {cut}\n")),
        Detection::Undetected => {
            out.push_str("UNDETECTED: the predicate never held on a consistent cut\n")
        }
    }
    out.push_str(&format!("wire: {}\n", report.net));
    if let Some(collector) = telemetry {
        out.push_str(&format!(
            "telemetry: {} events from {} sources ({} malformed deltas)\n",
            collector.events_collected(),
            collector.source_stats().len(),
            collector.malformed()
        ));
    }
    Ok(out)
}

/// `wcp serve --multi` — one peer of a standalone multi-tenant
/// deployment: application peers `0..N` replay the trace over TCP, peer
/// `N` hosts the shared session-layer service serving `--predicates K`
/// derived predicates, and peer 0 doubles as the verdict-collecting
/// controller. `--addrs` therefore lists `N + 1` addresses (one per
/// process, then the service peer's), and every peer must be started
/// with the same trace, predicate count and address list.
fn serve_multi(args: &Args) -> Result<String, CliError> {
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let n = computation.process_count();
    let k: usize = args.get_or("predicates", 8)?;
    if k == 0 {
        return Err(CliError::usage("serve --multi needs --predicates ≥ 1"));
    }
    let (peer, addrs) = parse_peer_addrs(args, n + 1)?;
    let (config, _) = net_config(args, "tcp")?;
    let service = Service::new(&derived_predicates(n, k));
    let report = serve_multi_peer(
        &computation,
        &service,
        peer,
        &addrs,
        config,
        &pump_options(args)?,
    )?;
    let (outcomes, verdicts) = (&report.report.outcomes, &report.report.wire_verdicts);
    let role = if peer == n { "service" } else { "app" };
    let mut out = format!(
        "peer {peer}/{} ({role}) listening on {}\nsessions: {k} over one shared {n}-process stream\n",
        n + 1,
        addrs[peer]
    );
    if !outcomes.is_empty() {
        out.push_str("   id | scope | verdict\n");
        for outcome in outcomes {
            out.push_str(&outcome_row(outcome));
        }
    }
    if !verdicts.is_empty() {
        let detected = verdicts.values().filter(|v| v.is_some()).count();
        out.push_str(&format!(
            "controller: {} verdicts collected ({detected} detected)\n",
            verdicts.len()
        ));
    }
    out.push_str(&format!("wire: {}\n", report.net));
    Ok(out)
}

/// `--pump-threads T`: the session service's pump width (`≤ 1` pumps
/// serially).
fn pump_options(args: &Args) -> Result<RunOptions, CliError> {
    Ok(RunOptions {
        pump_threads: args.get_or("pump-threads", 1)?,
        ..RunOptions::default()
    })
}

/// Spawns the observed detection for `top`/`obs-report` on a worker
/// thread and returns `(title, join handle)`. With `--peer`/`--addrs`
/// the run is one standalone TCP peer of a `wcp serve` session;
/// otherwise all peers run in-process over `--transport`.
fn spawn_observed(
    args: &Args,
    path: &str,
    computation: &Computation,
    wcp: &Wcp,
    collector: &Arc<TelemetryCollector>,
    done: &Arc<AtomicBool>,
) -> Result<(String, std::thread::JoinHandle<Result<Detection, CliError>>), CliError> {
    // A standalone peer runs over TCP, whatever `--transport` says.
    let (config, name) = net_config(args, "loopback")?;
    let computation = computation.clone();
    let wcp = wcp.clone();
    let options = RunOptions {
        collector: Some(collector.clone()),
        ..RunOptions::default()
    };
    let done = done.clone();
    if args.get("peer").is_some() {
        let (peer, addrs) = parse_peer_addrs(args, wcp.n())?;
        let title = format!("{path} — tcp peer {peer}/{}", wcp.n());
        let handle = std::thread::spawn(move || {
            let report = serve_vc_peer(&computation, &wcp, peer, &addrs, config, &options);
            done.store(true, Ordering::Relaxed);
            Ok(report?.report.detection)
        });
        Ok((title, handle))
    } else {
        let title = format!("{path} — {name}");
        let handle = std::thread::spawn(move || {
            let report = run_net(Family::VcToken, &computation, &wcp, config, &options);
            done.store(true, Ordering::Relaxed);
            Ok(report.report.detection)
        });
        Ok((title, handle))
    }
}

/// `wcp top` — live telemetry dashboard: runs a vector-clock token
/// detection with the sidecar telemetry plane on and refreshes the
/// collector's merged view every `--interval-ms` until the run finishes
/// (or `--frames` refreshes, whichever is first; at least one refresh
/// unless `--frames 0`). In-process by default
/// (`--transport tcp|loopback`); with `--peer I --addrs ...` it joins a
/// real `wcp serve` session as one standalone peer — run it as peer 0 to
/// watch every peer's telemetry converge on the collector.
pub fn top(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("top", raw)?;
    top_with_sink(&args, &mut |frame| {
        // ANSI clear + home so successive frames repaint in place.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
    })
}

/// [`top`] with the intermediate frames routed to `sink` (tests collect
/// them instead of painting a terminal); the returned string is the final
/// frame plus a footer.
fn top_with_sink(args: &Args, sink: &mut dyn FnMut(&str)) -> Result<String, CliError> {
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(args, &computation)?;
    let interval = Duration::from_millis(args.get_or("interval-ms", 200)?);
    let max_frames: usize = args.get_or("frames", 100)?;

    let collector = TelemetryCollector::shared();
    let done = Arc::new(AtomicBool::new(false));
    let (title, handle) = spawn_observed(args, path, &computation, &wcp, &collector, &done)?;

    // The run is checked after each refresh, not before, so a run that
    // ends within one interval still streams one frame, however the
    // detection thread was scheduled.
    let mut frames = 0usize;
    while frames < max_frames {
        std::thread::sleep(interval);
        sink(&collector.dashboard(&title));
        frames += 1;
        if done.load(Ordering::Relaxed) {
            break;
        }
    }
    handle
        .join()
        .map_err(|_| CliError::runtime("detection thread panicked (peer deadline exceeded?)"))??;
    let mut out = collector.dashboard(&title);
    out.push_str(&format!(
        "{} refreshes, {} events collected, {} malformed deltas\n",
        frames + 1,
        collector.events_collected(),
        collector.malformed()
    ));
    Ok(out)
}

/// `wcp obs-report` — run a detection with the telemetry plane on, then
/// print the collector's causally merged global timeline as the full
/// [`RunReport`], the per-source wire counters, and the paper-bound audit
/// (Section 3.4 message/bit/latency limits). `--events OUT.jsonl` also
/// exports the merged timeline for replay tooling. Same run modes as
/// `wcp top`: in-process by default, `--peer I --addrs ...` for a real
/// TCP serve session.
pub fn obs_report(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("obs-report", raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;

    let collector = TelemetryCollector::shared();
    let done = Arc::new(AtomicBool::new(false));
    let (title, handle) = spawn_observed(&args, path, &computation, &wcp, &collector, &done)?;
    let detection = handle
        .join()
        .map_err(|_| CliError::runtime("detection thread panicked (peer deadline exceeded?)"))??;

    let merged = collector.merged();
    let sources = collector.source_stats();
    let mut out = format!("telemetry report — {title}\npredicate: {wcp}\n");
    match &detection {
        Detection::Detected { cut } => out.push_str(&format!("DETECTED at cut {cut}\n")),
        Detection::Undetected => {
            out.push_str("UNDETECTED: the predicate never held on a consistent cut\n")
        }
    }
    out.push_str(&format!(
        "merged timeline: {} events from {} sources ({} malformed deltas)\n",
        merged.len(),
        sources.len(),
        collector.malformed()
    ));
    for (src, stats, events, deltas) in &sources {
        out.push_str(&format!(
            "  S{src}: {deltas} deltas, {events} events | {stats}\n"
        ));
    }
    out.push('\n');
    out.push_str(&RunReport::from_events(&merged).render());
    out.push('\n');
    let m1 = computation.max_events_per_process() as u64 + 1;
    out.push_str(&audit_bounds(wcp.n(), m1, &merged, &BoundLimits::exact()).render());
    if let Some(events_path) = args.get("events") {
        fs::write(events_path, jsonl::to_string(&merged))?;
        out.push_str(&format!(
            "wrote {} merged events to {events_path}\n",
            merged.len()
        ));
    }
    Ok(out)
}

/// `wcp fuzz` — seeded differential conformance campaign.
///
/// Draws `--cases` random cases from `--seed`, runs every detector family
/// on each, and cross-checks verdicts and replayed metrics against the
/// lattice oracle. Divergences exit nonzero, with repro JSON suitable for
/// `tests/corpus/` in the error output; `--shrink` first reduces each
/// repro to its minimal form. `--no-net` skips the (slower) real-socket
/// loopback stacks; `--multi` forces the socket-backed
/// multi-tenant session leg on every case (the offline session
/// cross-check runs on every case regardless);
/// `--pump-parallel` forces the parallel-pump cross-check on
/// every case (each case otherwise draws that bit at random);
/// `--parallel-detect` forces the work-optimal detector's multi-thread
/// bit-identity leg on every case (also drawn per case at random);
/// `--audit-bounds` additionally audits every case's merged telemetry
/// timeline against the paper's §3.4 message/bit/latency bounds.
pub fn fuzz(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("fuzz", raw)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let cases: usize = args.get_or("cases", 50)?;
    if cases == 0 {
        return Err(CliError::usage("fuzz needs --cases ≥ 1"));
    }
    let mut config = wcp_fuzz::CampaignConfig::new(seed, cases);
    config.shrink = args.switch("shrink");
    config.check.include_net = !args.switch("no-net");
    config.check.force_multi = args.switch("multi");
    config.check.force_pump_parallel = args.switch("pump-parallel");
    config.check.force_parallel_detect = args.switch("parallel-detect");
    config.check.audit_bounds = args.switch("audit-bounds");
    let report = wcp_fuzz::run_campaign(&config);
    let mut out = report.summary_table();
    if report.bugs.is_empty() {
        out.push_str("\nall detector families agree: no divergences\n");
        return Ok(out);
    }
    out.push_str("\nrepro JSON (pin under tests/corpus/ once fixed):\n");
    for bug in &report.bugs {
        out.push_str(&bug.repro_json().to_string_compact());
        out.push('\n');
    }
    Err(CliError::runtime(out))
}

/// Widest game `wcp bound` plays (`--n`).
pub const BOUND_MAX_N: usize = 1_000;
/// Most states `wcp bound`'s game holds (`n·m`).
pub const BOUND_MAX_STATES: u64 = 1_000_000;

/// `wcp bound` — run the Theorem 5.1 adversary game.
pub fn bound(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse("bound", raw)?;
    let n: usize = args.require("n")?;
    let m: u64 = args.require("m")?;
    // The game holds n·m states and scans all n queues per deletion, so
    // it runs in n²·m steps: both caps keep it within seconds.
    let states = (n as u64).checked_mul(m);
    if n < 2 || m < 1 || n > BOUND_MAX_N || states.is_none_or(|s| s > BOUND_MAX_STATES) {
        return Err(CliError::usage(format!(
            "bound needs 2 ≤ --n ≤ {BOUND_MAX_N}, --m ≥ 1 and n·m ≤ {BOUND_MAX_STATES}"
        )));
    }
    let stats = run_optimal_algorithm(n, m);
    Ok(format!(
        "adversary game n={n} m={m}: forced {} deletions in {} comparison rounds (bound nm−n = {})",
        stats.deletions, stats.comparisons, stats.bound
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("wcp-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn generated_trace(name: &str) -> String {
        let path = tmpfile(name);
        let out = generate(&argv(&[
            "--processes",
            "4",
            "--events",
            "8",
            "--seed",
            "5",
            "--plant",
            "0.7",
            "-o",
            &path,
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        assert!(out.contains("planted"));
        path
    }

    #[test]
    fn generate_info_roundtrip() {
        let path = generated_trace("roundtrip.json");
        let out = info(&argv(&[&path])).unwrap();
        assert!(out.contains("valid"));
        assert!(out.contains("N=4"));
        assert!(out.contains("P3:"));
    }

    #[test]
    fn detect_all_algorithms_agree() {
        let path = generated_trace("detect.json");
        let mut cuts = Vec::new();
        for alg in [
            "token",
            "checker",
            "direct",
            "lattice",
            "multi:2",
            "parallel",
            "parallel:4",
        ] {
            let out = detect(&argv(&[&path, "--algorithm", alg])).unwrap();
            assert!(out.contains("DETECTED"), "{alg}: {out}");
            let cut_line = out
                .lines()
                .find(|l| l.contains("DETECTED"))
                .unwrap()
                .to_string();
            cuts.push((alg, cut_line));
        }
        // token / checker / multi / parallel report identical scope cuts.
        assert_eq!(cuts[0].1, cuts[1].1);
        assert_eq!(cuts[0].1, cuts[4].1);
        assert_eq!(cuts[0].1, cuts[5].1);
        assert_eq!(cuts[0].1, cuts[6].1);
    }

    /// 30,000 processes with no events, every interval true: 2.1 MB of
    /// JSON. Full-scope vector clocks would need 2·N² cells, over the
    /// budget; the §4 detector needs none, and a two-process scope needs
    /// `O(N)` cells.
    #[test]
    fn wide_traces_refuse_full_scope_vector_clocks_before_allocating() {
        let wide = Computation::from_traces(vec![
            wcp_trace::ProcessTrace {
                events: Vec::new(),
                pred: vec![true],
            };
            30_000
        ]);
        let path = tmpfile("wide.json");
        fs::write(&path, wide.to_json().pretty()).unwrap();
        assert!(fs::metadata(&path).unwrap().len() >= 2_000_000);
        assert!(info(&argv(&[&path])).unwrap().contains("N=30000"));
        for scoped in [
            detect(&argv(&[&path, "--algorithm", "direct"])),
            detect(&argv(&[&path, "--scope", "0,1"])),
        ] {
            assert!(scoped.unwrap().contains("DETECTED at cut ⟨1,1,"));
        }
        let events = tmpfile("wide.jsonl");
        let mut refused = vec![gcp(&argv(&[&path]))];
        for alg in ["token", "checker", "parallel", "multi:3"] {
            refused.push(detect(&argv(&[&path, "--algorithm", alg])));
            refused.push(trace(&argv(&[
                &path,
                "--algorithm",
                alg,
                "--events",
                &events,
            ])));
        }
        for err in refused {
            let err = err.unwrap_err();
            assert_eq!(err.code, 1, "{err}");
            assert_eq!(
                err.message,
                "vector clocks 30000 wide need 1800000000 cells, \
                 over the budget of 134217728 cells"
            );
        }
    }

    /// The seed-11 9×10 trace: 10.8 KB, with more consistent global
    /// states than the lattice detector may visit.
    fn assert_lattice_budget_error(name: &str, run: impl Fn(&str) -> Result<String, CliError>) {
        let path = tmpfile(name);
        generate(&argv(&[
            "--processes",
            "9",
            "--events",
            "10",
            "--seed",
            "11",
            "--density",
            "0.3",
            "-o",
            &path,
        ]))
        .unwrap();
        let err = run(&path).unwrap_err();
        assert_eq!(err.code, 1, "{err}");
        assert_eq!(
            err.message,
            "global-state lattice exceeds the exploration budget of 1000000 states"
        );
    }

    #[test]
    fn lattice_detection_past_its_budget_is_an_error() {
        assert_lattice_budget_error("lattice_budget_detect.json", |path| {
            detect(&argv(&[path, "--algorithm", "lattice"]))
        });
    }

    #[test]
    fn lattice_trace_past_its_budget_is_an_error_and_writes_nothing() {
        let events = tmpfile("lattice_budget.jsonl");
        let _ = fs::remove_file(&events);
        assert_lattice_budget_error("lattice_budget_trace.json", |path| {
            trace(&argv(&[
                path,
                "--algorithm",
                "lattice",
                "--events",
                &events,
            ]))
        });
        assert!(fs::metadata(&events).is_err(), "no event stream written");
    }

    #[test]
    fn detect_with_diagram_and_json() {
        let path = generated_trace("diagram.json");
        let out = detect(&argv(&[&path, "--diagram"])).unwrap();
        assert!(out.contains('┊'), "diagram with cut markers: {out}");
        let out = detect(&argv(&[&path, "--json"])).unwrap();
        assert!(out.contains("\"detection\""));
    }

    #[test]
    fn detect_scope_subset() {
        let path = generated_trace("scope.json");
        let out = detect(&argv(&[&path, "--scope", "0,2"])).unwrap();
        assert!(out.contains("l(P0)"));
        assert!(out.contains("l(P2)"));
        assert!(!out.contains("l(P1)"));
    }

    #[test]
    fn gcp_command_runs() {
        let path = generated_trace("gcp.json");
        let out = gcp(&argv(&[&path, "--channel", "0-1:atmost:99"])).unwrap();
        assert!(out.contains("≤99"));
        assert!(out.contains("DETECTED"));
    }

    #[test]
    fn render_text_and_dot() {
        let path = generated_trace("render.json");
        let text = render(&argv(&[&path])).unwrap();
        assert!(text.contains("P0"));
        let dot = render(&argv(&[&path, "--dot"])).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn detect_slice_writes_prefix() {
        let path = generated_trace("slice_src.json");
        let out_path = tmpfile("slice_out.json");
        let out = detect(&argv(&[&path, "--scope", "0,1", "--slice", &out_path])).unwrap();
        assert!(out.contains("sliced trace"), "{out}");
        // The slice is a valid computation that still detects the same cut.
        let sliced = load(&out_path).unwrap();
        let full = load(&path).unwrap();
        assert!(sliced.total_events() <= full.total_events());
        let wcp = parse_scope(
            &Args::parse("detect", &argv(&["--scope", "0,1"])).unwrap(),
            &sliced,
        )
        .unwrap();
        let before = wcp_detect::TokenDetector::new()
            .detect(&full.annotate(), &wcp)
            .detection;
        let after = wcp_detect::TokenDetector::new()
            .detect(&sliced.annotate(), &wcp)
            .detection;
        assert_eq!(before, after);
    }

    #[test]
    fn lattice_command_counts_and_searches() {
        let path = generated_trace("lattice.json");
        let out = lattice(&argv(&[&path])).unwrap();
        assert!(out.contains("consistent global states:"));
        assert!(out.contains("first cut satisfying"));
        // Tiny budget triggers truncation reporting, not failure.
        let out = lattice(&argv(&[&path, "--max-states", "2"])).unwrap();
        assert!(out.contains("budget of 2"));
    }

    #[test]
    fn trace_writes_replayable_jsonl() {
        let path = generated_trace("trace_src.json");
        let events_path = tmpfile("trace_events.jsonl");
        let out = trace(&argv(&[&path, "--events", &events_path])).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("DETECTED"), "{out}");
        // The JSONL round-trips and replays to the reported metrics.
        let text = fs::read_to_string(&events_path).unwrap();
        let events = jsonl::read_str(&text).unwrap();
        assert!(!events.is_empty());
        let computation = load(&path).unwrap();
        let wcp = Wcp::over_all(&computation);
        let report = TokenDetector::new().detect(&computation.annotate(), &wcp);
        assert_eq!(wcp_detect::replay_metrics(wcp.n(), &events), report.metrics);
    }

    #[test]
    fn trace_supports_every_offline_algorithm() {
        let path = generated_trace("trace_algos.json");
        for alg in [
            "token",
            "checker",
            "direct",
            "lattice",
            "multi:2",
            "parallel:2",
        ] {
            let events_path = tmpfile(&format!("trace_{}.jsonl", alg.replace(':', "_")));
            let out = trace(&argv(&[
                &path,
                "--algorithm",
                alg,
                "--events",
                &events_path,
            ]))
            .unwrap();
            assert!(out.contains("wrote"), "{alg}: {out}");
            let events = jsonl::read_str(&fs::read_to_string(&events_path).unwrap()).unwrap();
            assert!(!events.is_empty(), "{alg}");
        }
        assert!(trace(&argv(&[&path])).is_err(), "--events is required");
    }

    #[test]
    fn stats_reports_both_online_sections() {
        let path = generated_trace("stats.json");
        let out = stats(&argv(&[&path])).unwrap();
        assert!(
            out.contains("section 3: vector-clock token algorithm"),
            "{out}"
        );
        assert!(
            out.contains("section 4: direct-dependence algorithm"),
            "{out}"
        );
        assert!(out.contains("token timeline"), "{out}");
        assert!(out.contains("monitor | token_in"), "{out}");
        assert!(out.contains("queue delay"), "{out}");
        assert!(out.contains("detection latency:"), "{out}");
        assert!(out.contains("DETECTED"), "{out}");
        // The wire section surfaces the transport-layer counters.
        assert!(out.contains("wire transport"), "{out}");
        assert!(out.contains("batch flushes"), "{out}");
        assert!(out.contains("ready depth"), "{out}");
        assert!(out.contains("buffer pool"), "{out}");
        // Including the v2 compression accounting: every link speaks v2,
        // so actual bytes land below the v1-equivalent.
        assert!(out.contains("B v1-equiv"), "{out}");
        assert!(out.contains("clock chains"), "{out}");
        let wire_line = out
            .lines()
            .find(|l| l.starts_with("wire v2"))
            .expect("wire v2 line");
        let nums: Vec<u64> = wire_line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(
            nums[0] < nums[1],
            "v2 must compress below the v1-equivalent: {wire_line}"
        );
        // And the session-layer section surfaces per-session counters.
        assert!(out.contains("multi-tenant session layer"), "{out}");
        assert!(out.contains("routed events"), "{out}");
        assert!(out.contains("shared store"), "{out}");
    }

    #[test]
    fn top_streams_frames_and_reports_the_verdict() {
        let path = generated_trace("top.json");
        let args = Args::parse(
            "top",
            &argv(&[&path, "--interval-ms", "20", "--frames", "500"]),
        )
        .unwrap();
        let mut frames = Vec::new();
        let out = top_with_sink(&args, &mut |f| frames.push(f.to_string())).unwrap();
        // The final frame carries the merged dashboard and a settled verdict.
        assert!(out.contains("wcp top"), "{out}");
        assert!(out.contains("source | deltas"), "{out}");
        assert!(out.contains("verdict: DETECTED"), "{out}");
        assert!(out.contains("refreshes"), "{out}");
        assert!(out.contains("malformed"), "{out}");
        // Intermediate frames were streamed to the sink.
        assert!(!frames.is_empty());
        assert!(frames.iter().all(|f| f.contains("wcp top")));
    }

    #[test]
    fn obs_report_renders_timeline_audit_and_jsonl_export() {
        let path = generated_trace("obs_report.json");
        let events_path = tmpfile("obs_report_events.jsonl");
        let out = obs_report(&argv(&[&path, "--events", &events_path])).unwrap();
        assert!(out.contains("telemetry report"), "{out}");
        assert!(out.contains("merged timeline:"), "{out}");
        assert!(out.contains("token timeline"), "{out}");
        assert!(out.contains("paper-bound audit"), "{out}");
        assert!(out.contains("token hops"), "{out}");
        assert!(!out.contains("VIOLATED"), "{out}");
        assert!(out.contains("DETECTED"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        // The export replays as a JSONL event stream.
        let events = jsonl::read_str(&fs::read_to_string(&events_path).unwrap()).unwrap();
        assert!(!events.is_empty());
    }

    /// `wcp top` / `wcp obs-report` joined to a real TCP `wcp serve`
    /// session: peer 0 watches (or reports) while peers 1 and 2 run
    /// `serve --telemetry` and stream their deltas over the wire.
    #[test]
    fn top_and_obs_report_join_a_tcp_serve_session() {
        for watcher in ["top", "obs-report"] {
            let path = generated_trace(&format!("tcp_{watcher}.json"));
            let addrs = &serve_addrs(3);
            let mut outputs: Vec<String> = std::thread::scope(|s| {
                let watch = s.spawn(|| {
                    let base = [
                        path.as_str(),
                        "--scope",
                        "0,1,2",
                        "--peer",
                        "0",
                        "--addrs",
                        addrs,
                    ];
                    if watcher == "top" {
                        let mut raw = argv(&base);
                        raw.extend(argv(&["--interval-ms", "20", "--frames", "500"]));
                        let args = Args::parse("top", &raw).unwrap();
                        top_with_sink(&args, &mut |_| {})
                    } else {
                        obs_report(&argv(&base))
                    }
                });
                let peers: Vec<_> = (1..3)
                    .map(|peer: usize| {
                        let path = &path;
                        s.spawn(move || {
                            serve(&argv(&[
                                path,
                                "--scope",
                                "0,1,2",
                                "--peer",
                                &peer.to_string(),
                                "--addrs",
                                addrs,
                                "--telemetry",
                            ]))
                        })
                    })
                    .collect();
                std::iter::once(watch)
                    .chain(peers)
                    .map(|h| h.join().unwrap().unwrap())
                    .collect()
            });
            let watched = outputs.remove(0);
            let served = outputs;
            // Peer 0 collected telemetry from every peer in the session.
            for src in ["S0", "S1", "S2"] {
                assert!(watched.contains(src), "{watcher} missing {src}:\n{watched}");
            }
            for out in &served {
                assert!(out.contains("telemetry:"), "{out}");
            }
        }
    }

    #[test]
    fn net_demo_runs_over_tcp_and_loopback() {
        let path = generated_trace("net_demo.json");
        for transport in ["tcp", "loopback"] {
            for algorithm in ["token", "direct"] {
                let out = net_demo(&argv(&[
                    &path,
                    "--transport",
                    transport,
                    "--algorithm",
                    algorithm,
                ]))
                .unwrap();
                assert!(
                    out.contains("simulator cross-check: identical verdict"),
                    "{transport}/{algorithm}: {out}"
                );
                assert!(out.contains("wire:"), "{out}");
            }
        }
    }

    #[test]
    fn net_demo_runs_every_online_family() {
        let path = generated_trace("net_demo_families.json");
        for algorithm in ["multi:2", "checker", "direct+par"] {
            let out = net_demo(&argv(&[
                &path,
                "--transport",
                "loopback",
                "--algorithm",
                algorithm,
            ]))
            .unwrap();
            assert!(
                out.contains(&format!("algorithm: {algorithm} over")),
                "{out}"
            );
            assert!(out.contains("identical verdict"), "{algorithm}: {out}");
        }
        let err = net_demo(&argv(&[&path, "--algorithm", "multi:0"])).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
    }

    #[test]
    fn net_demo_runs_a_group_token_wider_than_64_processes() {
        let path = tmpfile("net_demo_wide.json");
        generate(&argv(&["--processes", "65", "--events", "2", "-o", &path])).unwrap();
        let out = net_demo(&argv(&[
            &path,
            "--transport",
            "loopback",
            "--algorithm",
            "multi:2",
        ]))
        .unwrap();
        assert!(out.contains("identical verdict"), "{out}");
    }

    #[test]
    fn net_demo_with_faults_still_matches_simulator() {
        let path = generated_trace("net_demo_faults.json");
        let out = net_demo(&argv(&[
            &path,
            "--transport",
            "loopback",
            "--delay",
            "0.25",
            "--duplicate",
            "0.2",
            "--reorder",
            "0.2",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("identical verdict"), "{out}");
        assert!(net_demo(&argv(&[&path, "--drop", "1.5"])).is_err());
        assert!(net_demo(&argv(&[&path, "--transport", "carrier-pigeon"])).is_err());
    }

    /// Loopback addresses for a `count`-peer `serve` deployment, on ports
    /// below the kernel's ephemeral range (32768 and up by default): a
    /// listener bound to port 0 never gets one, so no other test's
    /// in-process TCP run can take one before `serve` binds it. A
    /// process-wide counter keeps this binary's deployments apart.
    fn serve_addrs(count: usize) -> String {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let base = 20_000 + (std::process::id() as usize % 64) * 128;
        (0..count)
            .map(|_| {
                let port = base + NEXT.fetch_add(1, Ordering::Relaxed) % 128;
                format!("127.0.0.1:{port}")
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn serve_on_a_taken_address_exits_1_and_names_it() {
        let path = generated_trace("serve_taken.json");
        let holder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let taken = holder.local_addr().unwrap();
        let addrs = format!("{taken},{}", serve_addrs(2));
        let err = serve(&argv(&[
            &path, "--scope", "0,1,2", "--peer", "0", "--addrs", &addrs,
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1, "{err}");
        assert!(
            err.message
                .starts_with(&format!("io error: cannot bind {taken}: ")),
            "{err}"
        );
        assert!(err.message.contains("in use"), "{err}");
    }

    #[test]
    fn serve_peers_agree_on_the_verdict() {
        let path = generated_trace("serve.json");
        let addrs = &serve_addrs(3);
        let outputs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|peer: usize| {
                    let path = &path;
                    s.spawn(move || {
                        serve(&argv(&[
                            path,
                            "--scope",
                            "0,1,2",
                            "--peer",
                            &peer.to_string(),
                            "--addrs",
                            addrs,
                        ]))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        let verdicts: Vec<&str> = outputs
            .iter()
            .map(|o| {
                o.lines()
                    .find(|l| l.starts_with("DETECTED") || l.starts_with("UNDETECTED"))
                    .unwrap()
            })
            .collect();
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
        // The standalone run agrees with the in-process simulator too.
        let computation = load(&path).unwrap();
        let wcp = Wcp::over(vec![
            ProcessId::new(0),
            ProcessId::new(1),
            ProcessId::new(2),
        ]);
        let sim = run_online(Family::VcToken, &computation, &wcp, SimConfig::seeded(0));
        let expects_detected = matches!(sim.report.detection, Detection::Detected { .. });
        assert_eq!(
            verdicts[0].starts_with("DETECTED"),
            expects_detected,
            "{verdicts:?}"
        );
        let addrs = serve_addrs(3);
        assert!(serve(&argv(&[&path, "--peer", "9", "--addrs", &addrs])).is_err());
    }

    #[test]
    fn multi_demo_tabulates_and_cross_checks() {
        let path = generated_trace("multi_demo.json");
        for transport in ["loopback", "tcp"] {
            let out = multi_demo(&argv(&[
                &path,
                "--transport",
                transport,
                "--predicates",
                "5",
            ]))
            .unwrap();
            assert!(out.contains("sessions: 5"), "{transport}: {out}");
            assert!(out.contains("id | scope | verdict"), "{out}");
            // One table row per predicate, each resolved one way or the other.
            let rows = out
                .lines()
                .filter(|l| l.contains("DETECTED at [") || l.contains("| impossible"))
                .count();
            assert_eq!(rows, 5, "{out}");
            assert!(out.contains("routed events"), "{out}");
            assert!(out.contains("B/session"), "{out}");
            assert!(
                out.contains("simulator cross-check: identical verdicts and metrics"),
                "{out}"
            );
        }
        assert!(multi_demo(&argv(&[&path, "--predicates", "0"])).is_err());
        assert!(multi_demo(&argv(&[&path, "--transport", "smoke-signal"])).is_err());
    }

    #[test]
    fn multi_demo_pump_threads_is_invisible_in_the_output() {
        // The parallel pump must not change a single verdict, so
        // the serial and 4-worker runs print identical output. One
        // thread steps every loopback peer, so that includes the `wire:`
        // line's batch flushes and buffer-pool reuse.
        let path = generated_trace("multi_demo_pump.json");
        let serial = multi_demo(&argv(&[&path, "--predicates", "6"])).unwrap();
        let parallel =
            multi_demo(&argv(&[&path, "--predicates", "6", "--pump-threads", "4"])).unwrap();
        assert!(serial.contains("wire: "), "{serial}");
        assert_eq!(serial, parallel);
        assert!(multi_demo(&argv(&[&path, "--pump-threads", "lots"])).is_err());
    }

    #[test]
    fn multi_demo_with_faults_still_matches_simulator() {
        let path = generated_trace("multi_demo_faults.json");
        let out = multi_demo(&argv(&[
            &path,
            "--transport",
            "loopback",
            "--predicates",
            "6",
            "--drop",
            "0.15",
            "--reorder",
            "0.2",
            "--fault-seed",
            "11",
        ]))
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("identical verdicts and metrics"), "{out}");
    }

    #[test]
    fn serve_multi_peers_share_one_service() {
        let path = generated_trace("serve_multi.json");
        // 4 app peers + 1 service peer.
        let addrs = &serve_addrs(5);
        let outputs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..5)
                .map(|peer: usize| {
                    let path = &path;
                    s.spawn(move || {
                        serve(&argv(&[
                            path,
                            "--multi",
                            "--predicates",
                            "4",
                            "--peer",
                            &peer.to_string(),
                            "--addrs",
                            addrs,
                        ]))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        // The service peer (peer 4) prints the outcome table; peer 0 the
        // controller's collected verdicts; both agree with the offline
        // engine on the same derived predicates.
        assert!(outputs[4].contains("(service)"), "{}", outputs[4]);
        assert!(
            outputs[4].contains("id | scope | verdict"),
            "{}",
            outputs[4]
        );
        assert!(outputs[0].contains("verdicts collected"), "{}", outputs[0]);
        let computation = load(&path).unwrap();
        let offline = wcp_session::run_multi_offline(
            &computation,
            &derived_predicates(4, 4),
            &RunOptions::default(),
        );
        for outcome in &offline.outcomes {
            assert!(
                outputs[4].contains(&outcome_row(outcome)),
                "session {} row missing:\n{}",
                outcome.id,
                outputs[4]
            );
        }
        let detected = offline
            .outcomes
            .iter()
            .filter(|o| o.verdict.cut().is_some())
            .count();
        assert!(
            outputs[0].contains(&format!("4 verdicts collected ({detected} detected)")),
            "{}",
            outputs[0]
        );
        // Address-count mismatch (5 addrs for scope-style n) is a usage error.
        assert!(serve(&argv(&[
            &path,
            "--multi",
            "--peer",
            "0",
            "--addrs",
            "127.0.0.1:1"
        ]))
        .is_err());
    }

    #[test]
    fn bound_reports_theorem() {
        let out = bound(&argv(&["--n", "4", "--m", "10"])).unwrap();
        assert!(out.contains("bound nm−n = 36"));
        assert!(bound(&argv(&["--n", "1", "--m", "5"])).is_err());
    }

    #[test]
    fn fuzz_smoke_campaign_is_clean_and_summarized() {
        let out = fuzz(&argv(&["--seed", "1", "--cases", "8", "--no-net"])).unwrap();
        assert!(out.contains("cases run   | 8"), "{out}");
        assert!(out.contains("divergences | 0"), "{out}");
        assert!(out.contains("no divergences"), "{out}");
        assert!(fuzz(&argv(&["--cases", "0"])).is_err());
        assert!(fuzz(&argv(&["--cases", "many"])).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(info(&argv(&["/nonexistent/file.json"])).is_err());
        assert!(detect(&argv(&[])).is_err());
        let path = generated_trace("errors.json");
        assert!(detect(&argv(&[&path, "--algorithm", "bogus"])).is_err());
        assert!(detect(&argv(&[&path, "--scope", "9"])).is_err());
        assert!(gcp(&argv(&[&path, "--channel", "nonsense"])).is_err());
        assert!(parse_topology("weird").is_err());
        assert!(parse_topology("cs:2").is_ok());
        assert!(parse_topology("nb:1").is_ok());
    }

    #[test]
    fn out_of_scope_process_ids_are_cli_errors_not_panics() {
        let path = generated_trace("scope_errors.json");
        // The trace has 4 processes; id 9 must be a usage error (exit 2)
        // with a message naming the offending id for every scoped command.
        for result in [
            detect(&argv(&[&path, "--scope", "0,9"])),
            detect(&argv(&[
                &path,
                "--scope",
                "9",
                "--slice",
                &tmpfile("never.json"),
            ])),
            render(&argv(&[&path, "--scope", "9"])),
            render(&argv(&[&path, "--dot", "--scope", "0,nine"])),
        ] {
            let err = result.expect_err("out-of-scope id must not succeed");
            assert_ne!(err.code, 0);
            assert!(
                err.message.contains("out of range") || err.message.contains("bad process id"),
                "{}",
                err.message
            );
        }
        // A valid scope still renders.
        assert!(render(&argv(&[&path, "--scope", "0,1"])).is_ok());
    }

    #[test]
    fn zero_process_traces_are_runtime_errors_not_panics() {
        let path = tmpfile("no_processes.json");
        fs::write(&path, "{\"processes\": []}").unwrap();
        let events = tmpfile("no_processes.jsonl");
        let mut results = vec![
            info(&argv(&[&path])),
            trace(&argv(&[&path, "--events", &events])),
            stats(&argv(&[&path])),
            gcp(&argv(&[&path])),
            net_demo(&argv(&[&path])),
            multi_demo(&argv(&[&path])),
            obs_report(&argv(&[&path])),
        ];
        for alg in [
            "token",
            "checker",
            "direct",
            "lattice",
            "multi:2",
            "parallel:2",
        ] {
            results.push(detect(&argv(&[&path, "--algorithm", alg])));
        }
        for result in results {
            let err = result.expect_err("a trace without processes is invalid");
            assert_eq!(err.code, 1, "{}", err.message);
            assert!(err.message.contains("no processes"), "{}", err.message);
        }
        let out = tmpfile("no_processes_generated.json");
        let err = generate(&argv(&["--processes", "0", "--events", "8", "-o", &out]))
            .expect_err("generating zero processes is a usage error");
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("--processes"), "{}", err.message);
    }

    #[test]
    fn multi_needs_at_least_one_group() {
        let path = generated_trace("multi_groups.json");
        let events = tmpfile("multi_groups.jsonl");
        for alg in ["multi:0", "multi:x", "multi:"] {
            for result in [
                detect(&argv(&[&path, "--algorithm", alg])),
                trace(&argv(&[&path, "--events", &events, "--algorithm", alg])),
            ] {
                let err = result.expect_err("a bad group count is a usage error");
                assert_eq!(err.code, 2, "{alg}: {}", err.message);
                assert!(err.message.contains("multi:G"), "{alg}: {}", err.message);
            }
        }
    }

    /// Runs `wcp <tokens>` and returns its usage error, failing if it
    /// succeeds or fails any other way.
    fn usage_error(tokens: &[&str]) -> CliError {
        let err = crate::run(&argv(tokens)).expect_err("must be rejected");
        assert_eq!(err.code, 2, "{tokens:?}: {}", err.message);
        err
    }

    #[test]
    fn client_server_topology_needs_between_one_and_n_minus_one_servers() {
        let out = tmpfile("cs_rejected.json");
        for k in ["cs:0", "cs:4", "cs:9"] {
            let err = usage_error(&[
                "generate",
                "--processes",
                "4",
                "--events",
                "8",
                "--topology",
                k,
                "-o",
                &out,
            ]);
            assert!(err.message.contains("cs:"), "{k}: {}", err.message);
        }
    }

    #[test]
    fn neighbour_topology_needs_a_positive_degree() {
        let out = tmpfile("nb_rejected.json");
        let err = usage_error(&[
            "generate",
            "--processes",
            "4",
            "--events",
            "8",
            "--topology",
            "nb:0",
            "-o",
            &out,
        ]);
        assert!(err.message.contains("nb:K"), "{}", err.message);
    }

    #[test]
    fn bound_rejects_a_game_too_large_to_allocate() {
        let err = usage_error(&["bound", "--n", "99999999999", "--m", "99999999999"]);
        assert!(err.message.contains("n·m"), "{}", err.message);
    }

    #[test]
    fn bound_rejects_a_game_too_long_to_play() {
        usage_error(&["bound", "--n", "2", "--m", "99999999999"]);
        usage_error(&["bound", "--n", "1001", "--m", "1"]);
        assert!(bound(&argv(&["--n", "1000", "--m", "1"])).is_ok());
    }

    #[test]
    fn generate_rejects_too_many_processes() {
        let out = tmpfile("too_wide.json");
        let err = usage_error(&[
            "generate",
            "--processes",
            "100000000",
            "--events",
            "1000",
            "-o",
            &out,
        ]);
        assert!(err.message.contains("at most"), "{}", err.message);
        // A process count alone can exceed the cap (`M = 0` counts as 1).
        usage_error(&[
            "generate",
            "--processes",
            "4294967296",
            "--events",
            "0",
            "-o",
            &out,
        ]);
    }

    #[test]
    fn generate_rejects_too_many_events() {
        let out = tmpfile("too_long.json");
        usage_error(&[
            "generate",
            "--processes",
            "4",
            "--events",
            "99999999999",
            "-o",
            &out,
        ]);
    }

    #[test]
    fn usage_states_the_size_caps() {
        for cap in [
            GENERATE_MAX_EVENTS.to_string(),
            BOUND_MAX_N.to_string(),
            BOUND_MAX_STATES.to_string(),
        ] {
            assert!(crate::USAGE.contains(&cap), "USAGE omits {cap}");
        }
    }
}
