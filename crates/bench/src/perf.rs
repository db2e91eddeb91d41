//! Perf trajectory: times the standard detectable workloads through the
//! detector families and appends the measurements, as a labelled entry, to
//! the machine-readable `BENCH_wcp.json` snapshot.
//!
//! The `harness bench` subcommand (wrapped by `scripts/bench.sh`) writes the
//! trajectory so successive PRs can diff detector throughput — and the
//! paper-unit cost counters plus substrate allocation counts that explain
//! any change — without re-reading benchmark logs. Entries are keyed by a
//! label (`pre-arena`, `arena`, …); regenerating an entry with the same
//! label replaces it, so the file stays reproducible.

use wcp_clocks::{ProcessId, StateId};
use wcp_detect::online::{run_vc_token, RunOptions};
use wcp_detect::{
    CentralizedChecker, Detector, DirectDependenceDetector, LatticeDetector, MultiTokenDetector,
    ParallelDetector, TokenDetector, VcSnapshotQueues,
};
use wcp_net::{
    run_multi_net, run_vc_token_net, saturate, saturate_loopback, NetConfig, SaturationReport,
};
use wcp_obs::json::{FromJson, Json, ToJson};
use wcp_session::{MultiEngine, PredicateId, Service};
use wcp_sim::SimConfig;
use wcp_trace::{Computation, Wcp};

use crate::timing;
use crate::workloads;

/// Schema tag of the trajectory document.
pub const TRAJECTORY_SCHEMA: &str = "wcp-bench-trajectory/1";

/// Largest scope the exponential lattice baseline is timed on.
const LATTICE_MAX_SCOPE: usize = 8;

/// One measured workload shape: `processes × events`, scope = all processes.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Total process count (also the predicate scope width `n`).
    pub processes: usize,
    /// Events per process.
    pub events: usize,
    /// Generator seed.
    pub seed: u64,
}

/// The workload shapes of the standard snapshot: the historical small shape
/// plus a wide one where allocator traffic dominates the constant factors.
pub fn standard_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            processes: 5,
            events: 12,
            seed: 7,
        },
        WorkloadSpec {
            processes: 32,
            events: 36,
            seed: 7,
        },
    ]
}

/// The detector families timed on a workload with scope width `scope_n`
/// (the exponential lattice baseline only runs on small scopes).
pub fn detectors(scope_n: usize) -> Vec<(String, Box<dyn Detector>)> {
    let mut families: Vec<(String, Box<dyn Detector>)> = vec![
        ("token".into(), Box::new(TokenDetector::new())),
        ("checker".into(), Box::new(CentralizedChecker::new())),
        ("direct".into(), Box::new(DirectDependenceDetector::new())),
        ("multi:2".into(), Box::new(MultiTokenDetector::new(2))),
        ("multi:4".into(), Box::new(MultiTokenDetector::new(4))),
        ("parallel".into(), Box::new(ParallelDetector::new())),
        (
            "parallel:4/threads".into(),
            Box::new(ParallelDetector::new().with_threads(4)),
        ),
    ];
    if scope_n <= LATTICE_MAX_SCOPE {
        families.push(("lattice".into(), Box::new(LatticeDetector::new())));
    }
    families
}

/// Measures the vector-clock snapshot substrate on one workload: how long
/// one queue build takes (each on a fresh annotation, which would
/// otherwise hand back the queues it kept) and how many clock heap
/// allocations it performs.
///
/// The arena path packs every snapshot clock into one flat buffer, so
/// `clock_allocations` is 1 regardless of snapshot count (0 when empty).
fn substrate_stats(
    annotated: &wcp_trace::AnnotatedComputation<'_>,
    wcp: &wcp_trace::Wcp,
    samples: usize,
) -> Json {
    let queues = VcSnapshotQueues::build(annotated, wcp);
    let snapshots = queues.total_snapshots() as u64;
    let clock_allocations = queues.clock_allocations();
    let build = timing::run_fresh(
        "substrate/build",
        samples,
        || annotated.computation().annotate(),
        |fresh| {
            std::hint::black_box(VcSnapshotQueues::build(fresh, wcp));
        },
    );
    Json::obj([
        ("kind", Json::Str("arena".into())),
        ("snapshots", Json::UInt(snapshots)),
        ("clock_allocations", Json::UInt(clock_allocations)),
        (
            "allocs_per_snapshot",
            Json::Float(if snapshots == 0 {
                0.0
            } else {
                clock_allocations as f64 / snapshots as f64
            }),
        ),
        ("build_median_ns", Json::UInt(build.median_ns)),
        ("build_min_ns", Json::UInt(build.min_ns)),
    ])
}

/// Times every detector family on one workload and renders the
/// measurements plus paper-unit cost counters. Every call runs on one
/// annotation, so after the first it reuses the scope's snapshot queues.
fn measure_workload(spec: WorkloadSpec, samples: usize) -> Json {
    let computation = workloads::detectable(spec.processes, spec.events, spec.seed);
    let annotated = computation.annotate();
    let wcp = workloads::scope(spec.processes);

    let mut results = Vec::new();
    for (name, detector) in detectors(spec.processes) {
        let report = detector.detect(&annotated, &wcp);
        let timing = timing::run(&name, samples, || {
            std::hint::black_box(detector.detect(&annotated, &wcp));
        });
        results.push(Json::obj([
            ("name", Json::Str(name)),
            ("median_ns", Json::UInt(timing.median_ns)),
            ("min_ns", Json::UInt(timing.min_ns)),
            ("samples", Json::UInt(timing.samples as u64)),
            ("iters_per_sample", Json::UInt(timing.iters_per_sample)),
            ("detected", Json::Bool(report.detection.is_detected())),
            ("total_work", Json::UInt(report.metrics.total_work())),
            (
                "control_messages",
                Json::UInt(report.metrics.control_messages),
            ),
            ("token_hops", Json::UInt(report.metrics.token_hops)),
            ("parallel_time", Json::UInt(report.metrics.parallel_time)),
        ]));
    }
    Json::obj([
        ("processes", Json::UInt(spec.processes as u64)),
        ("events", Json::UInt(spec.events as u64)),
        ("seed", Json::UInt(spec.seed)),
        ("scope", Json::UInt(spec.processes as u64)),
        ("substrate", substrate_stats(&annotated, &wcp, samples)),
        ("results", Json::Arr(results)),
    ])
}

/// Shape of the net-loopback comparison workload. Kept small: every
/// measured iteration spawns one OS thread per scope process.
const NET_WORKLOAD: WorkloadSpec = WorkloadSpec {
    processes: 4,
    events: 10,
    seed: 7,
};

/// Measures online vector-clock token detection end to end twice on the
/// same workload: through the in-process discrete-event simulator, and
/// over the `wcp-net` loopback transport (real peers, framed wire codec,
/// reliability layer — everything but the socket). The delta is the cost
/// of the wire stack itself; the loopback run's [`wcp_net::NetStats`]
/// supplies the frame/byte traffic totals.
fn net_loopback_stats(samples: usize) -> Json {
    let spec = NET_WORKLOAD;
    let computation = workloads::detectable(spec.processes, spec.events, spec.seed);
    let wcp = workloads::scope(spec.processes);
    let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
    let net = run_vc_token_net(&computation, &wcp, NetConfig::loopback());
    assert_eq!(
        net.report.detection, sim.report.detection,
        "loopback verdict diverged from the simulator's — wire stack bug"
    );
    let sim_t = timing::run("net/sim", samples, || {
        std::hint::black_box(run_vc_token(&computation, &wcp, SimConfig::seeded(1)));
    });
    let net_t = timing::run("net/loopback", samples, || {
        std::hint::black_box(run_vc_token_net(&computation, &wcp, NetConfig::loopback()));
    });
    Json::obj([
        ("processes", Json::UInt(spec.processes as u64)),
        ("events", Json::UInt(spec.events as u64)),
        ("seed", Json::UInt(spec.seed)),
        ("detected", Json::Bool(net.report.detection.is_detected())),
        ("sim_median_ns", Json::UInt(sim_t.median_ns)),
        ("sim_min_ns", Json::UInt(sim_t.min_ns)),
        ("loopback_median_ns", Json::UInt(net_t.median_ns)),
        ("loopback_min_ns", Json::UInt(net_t.min_ns)),
        ("frames_sent", Json::UInt(net.net.frames_sent)),
        ("bytes_sent", Json::UInt(net.net.bytes_sent)),
        ("frames_received", Json::UInt(net.net.frames_received)),
        ("bytes_received", Json::UInt(net.net.bytes_received)),
    ])
}

/// Shape of the telemetry-overhead detection-run comparison. Bigger
/// than [`NET_WORKLOAD`] on purpose, so per-event costs rather than
/// thread spawn/exit fixed costs carry most of the measured time.
const TELEMETRY_WORKLOAD: WorkloadSpec = WorkloadSpec {
    processes: 6,
    events: 60,
    seed: 7,
};

/// Frames per saturation run of the telemetry A/B.
const TELEMETRY_SAT_FRAMES: u64 = 40_000;
/// Vector-clock width of the telemetry A/B payloads.
const TELEMETRY_SAT_SCOPE: usize = 8;

/// Measures the cost of the sidecar telemetry plane two ways.
///
/// The headline (`overhead_ratio`) is saturation throughput with
/// telemetry off vs on: the same frame stream over one batched loopback
/// link, bare vs with both endpoints recording through the sidecar gate
/// and the sender shipping deltas to the collector. At saturation the
/// per-frame marginal cost is what matters, and the [`SidecarRecorder`]
/// keeps it to a rejected virtual dispatch — `docs/observability.md`
/// tracks this ratio with ≤ 1.05 as the budget.
///
/// The secondary comparison times whole detection runs (6×60 loopback)
/// off vs on. Short runs put every fixed cost — ring setup, the exit
/// flush, the final drain — inside the measurement, so this ratio runs
/// higher than the saturation one; it is recorded as what observability
/// costs end to end on a small run, not held to the budget. Verdicts
/// are bit-identical by construction (the equivalence tests pin that)
/// and re-asserted here.
///
/// Threaded runs carry scheduler noise that drifts over seconds, so
/// timing all off-runs then all on-runs confounds the comparison with
/// whatever the machine was doing meanwhile. Both comparisons therefore
/// interleave the two modes round by round — and the saturation pairs
/// alternate which mode goes first, so warm-cache spillover from one
/// run into the next cancels across rounds too.
///
/// [`SidecarRecorder`]: wcp_net::SidecarRecorder
fn telemetry_overhead_stats(samples: usize) -> Json {
    // Saturation A/B: alternating paired rounds, medians plus best-of
    // (the max is the better capability estimate under noisy neighbours).
    let sat_rounds = samples.max(9);
    std::hint::black_box(saturate_loopback(
        TELEMETRY_SAT_FRAMES,
        TELEMETRY_SAT_SCOPE,
        true,
    ));
    let observed = NetConfig::loopback().with_telemetry();
    let warm_on = saturate(TELEMETRY_SAT_FRAMES, TELEMETRY_SAT_SCOPE, observed);
    let sat_telemetry_frames = warm_on.net.telemetry_sent;
    let sat_telemetry_bytes = warm_on.net.telemetry_bytes;
    let mut off_fps: Vec<f64> = Vec::with_capacity(sat_rounds);
    let mut on_fps: Vec<f64> = Vec::with_capacity(sat_rounds);
    for round in 0..sat_rounds {
        let off = || saturate_loopback(TELEMETRY_SAT_FRAMES, TELEMETRY_SAT_SCOPE, true);
        let on = || saturate(TELEMETRY_SAT_FRAMES, TELEMETRY_SAT_SCOPE, observed);
        if round % 2 == 0 {
            off_fps.push(off().frames_per_sec());
            on_fps.push(on().frames_per_sec());
        } else {
            on_fps.push(on().frames_per_sec());
            off_fps.push(off().frames_per_sec());
        }
    }
    off_fps.sort_by(f64::total_cmp);
    on_fps.sort_by(f64::total_cmp);
    let median = |v: &[f64]| v[v.len() / 2];
    let best = |v: &[f64]| v[v.len() - 1];
    // fps are inverse times, so off/on is the elapsed-time ratio: > 1
    // means telemetry slowed the link down.
    let sat_ratio = median(&off_fps) / median(&on_fps).max(f64::MIN_POSITIVE);
    let sat_ratio_best = best(&off_fps) / best(&on_fps).max(f64::MIN_POSITIVE);

    // Whole-run A/B on the detection path, plus the verdict guard.
    let spec = TELEMETRY_WORKLOAD;
    let computation = workloads::detectable(spec.processes, spec.events, spec.seed);
    let wcp = workloads::scope(spec.processes);
    let off = run_vc_token_net(&computation, &wcp, NetConfig::loopback());
    let on = run_vc_token_net(&computation, &wcp, NetConfig::loopback().with_telemetry());
    assert_eq!(
        on.report.detection, off.report.detection,
        "telemetry perturbed the verdict — sidecar channel bug"
    );
    let rounds = samples.max(15);
    let mut off_ns: Vec<u64> = Vec::with_capacity(rounds);
    let mut on_ns: Vec<u64> = Vec::with_capacity(rounds);
    for _ in 0..3 {
        std::hint::black_box(run_vc_token_net(&computation, &wcp, NetConfig::loopback()));
    }
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        std::hint::black_box(run_vc_token_net(&computation, &wcp, NetConfig::loopback()));
        off_ns.push(t.elapsed().as_nanos() as u64);
        let t = std::time::Instant::now();
        std::hint::black_box(run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback().with_telemetry(),
        ));
        on_ns.push(t.elapsed().as_nanos() as u64);
    }
    off_ns.sort_unstable();
    on_ns.sort_unstable();
    let (off_median, off_min) = (off_ns[rounds / 2], off_ns[0]);
    let (on_median, on_min) = (on_ns[rounds / 2], on_ns[0]);
    let run_ratio = on_median as f64 / (off_median as f64).max(f64::MIN_POSITIVE);
    let run_ratio_min = on_min as f64 / (off_min as f64).max(f64::MIN_POSITIVE);
    Json::obj([
        ("saturation_frames", Json::UInt(TELEMETRY_SAT_FRAMES)),
        ("saturation_scope", Json::UInt(TELEMETRY_SAT_SCOPE as u64)),
        ("saturation_off_fps_median", Json::Float(median(&off_fps))),
        ("saturation_on_fps_median", Json::Float(median(&on_fps))),
        ("saturation_off_fps_best", Json::Float(best(&off_fps))),
        ("saturation_on_fps_best", Json::Float(best(&on_fps))),
        ("overhead_ratio", Json::Float(sat_ratio)),
        ("overhead_ratio_best", Json::Float(sat_ratio_best)),
        (
            "saturation_telemetry_frames",
            Json::UInt(sat_telemetry_frames),
        ),
        (
            "saturation_telemetry_bytes",
            Json::UInt(sat_telemetry_bytes),
        ),
        ("processes", Json::UInt(spec.processes as u64)),
        ("events", Json::UInt(spec.events as u64)),
        ("seed", Json::UInt(spec.seed)),
        ("off_median_ns", Json::UInt(off_median)),
        ("off_min_ns", Json::UInt(off_min)),
        ("on_median_ns", Json::UInt(on_median)),
        ("on_min_ns", Json::UInt(on_min)),
        ("run_overhead_ratio", Json::Float(run_ratio)),
        ("run_overhead_ratio_min", Json::Float(run_ratio_min)),
        ("telemetry_frames", Json::UInt(on.net.telemetry_sent)),
        ("telemetry_bytes", Json::UInt(on.net.telemetry_bytes)),
        (
            "events_collected",
            Json::UInt(
                on.telemetry
                    .as_ref()
                    .map(|c| c.events_collected() as u64)
                    .unwrap_or(0),
            ),
        ),
    ])
}

/// Frames pumped through one link per saturation measurement in a full
/// trajectory entry.
const SATURATION_FRAMES: u64 = 20_000;
/// Vector-clock width of the saturation payloads.
const SATURATION_SCOPE: usize = 4;

/// Renders one [`SaturationReport`]: throughput, the steady-state
/// allocation rate (`pool_allocs / frames`, ~0 when the pool recycles),
/// and frames per write — the syscall-amortization proxy (1.0 in
/// per-frame mode, `>> 1` when coalescing).
fn saturation_json(r: &SaturationReport) -> Json {
    Json::obj([
        ("frames_per_sec", Json::Float(r.frames_per_sec())),
        ("allocs_per_frame", Json::Float(r.allocs_per_frame())),
        ("frames_per_flush", Json::Float(r.frames_per_flush())),
        ("bytes", Json::UInt(r.bytes)),
        ("bytes_per_event", Json::Float(r.bytes_per_frame())),
        ("delta_hit_rate", Json::Float(r.delta_hit_rate())),
        ("v1_equiv_ratio", Json::Float(r.v1_equiv_ratio())),
        ("elapsed_ns", Json::UInt(r.elapsed.as_nanos() as u64)),
    ])
}

/// Measures the raw wire stack with no detector in the loop: `frames`
/// vector-clock snapshot frames pumped through one saturated link — the
/// loopback transport in batched and per-frame mode, and real TCP
/// sockets. `batched_speedup` (loopback batched over per-frame
/// frames/sec) is the headline number `docs/performance.md` tracks.
fn net_saturation_stats(frames: u64) -> Json {
    let batched = saturate_loopback(frames, SATURATION_SCOPE, true);
    let per_frame = saturate_loopback(frames, SATURATION_SCOPE, false);
    let tcp = saturate(frames, SATURATION_SCOPE, NetConfig::tcp());
    let speedup = batched.frames_per_sec() / per_frame.frames_per_sec().max(f64::MIN_POSITIVE);
    Json::obj([
        ("frames", Json::UInt(frames)),
        ("scope", Json::UInt(SATURATION_SCOPE as u64)),
        ("loopback_batched", saturation_json(&batched)),
        ("loopback_per_frame", saturation_json(&per_frame)),
        ("tcp_batched", saturation_json(&tcp)),
        ("batched_speedup", Json::Float(speedup)),
    ])
}

/// Scope widths for the wire-v2 compression — the `n` of the paper's
/// `O(n²m)` bit bound, where full-width v1 clock bodies grow linearly
/// and v2 delta frames stay near-constant.
const WIRE_V2_SCOPES: [usize; 3] = [8, 32, 128];

/// Measures the wire-v2 delta compression on one saturated batched
/// loopback link at each [`WIRE_V2_SCOPES`] width: bytes per event (one
/// snapshot frame per event), the fraction of chained frames shipped as
/// deltas, and the v2/v1 bytes ratio (the ≤ 0.5× acceptance number at
/// `n = 32`). The v1 column is what the same frames cost under v1 — the
/// header plus the paper-unit `wire_size()` body the link counts as
/// `wire_bytes_v1_equiv` — so one run gives both sides.
fn wire_v2_stats(frames: u64) -> Json {
    let per_scope = WIRE_V2_SCOPES
        .iter()
        .map(|&n| {
            let v2 = saturate_loopback(frames, n, true);
            let v1_bytes_per_event = v2.net.wire_bytes_v1_equiv as f64 / v2.frames.max(1) as f64;
            Json::obj([
                ("scope", Json::UInt(n as u64)),
                ("v1_bytes_per_event", Json::Float(v1_bytes_per_event)),
                ("v2_bytes_per_event", Json::Float(v2.bytes_per_frame())),
                ("v2_delta_hit_rate", Json::Float(v2.delta_hit_rate())),
                ("bytes_ratio", Json::Float(v2.v1_equiv_ratio())),
                ("v2_frames_per_sec", Json::Float(v2.frames_per_sec())),
            ])
        })
        .collect();
    Json::obj([
        ("frames", Json::UInt(frames)),
        ("scopes", Json::Arr(per_scope)),
    ])
}

/// Shape of the multi-tenant saturation workload: wide enough that the
/// derived scopes diversify, long enough that event routing (not session
/// setup) dominates the measured time.
const MULTI_SAT_WORKLOAD: WorkloadSpec = WorkloadSpec {
    processes: 16,
    events: 40,
    seed: 7,
};
/// Concurrent sessions in the multi-tenant saturation run.
const MULTI_SAT_SESSIONS: usize = 10_000;
/// Worker threads of the headline parallel-pump leg.
const MULTI_SAT_THREADS: usize = 8;
/// Every pump width measured: serial, then the parallel pump at
/// 2/4/8 workers. Each width must resolve the identical verdict set.
const MULTI_SAT_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Timed rounds per pump width; the entry records the fastest.
const MULTI_SAT_ROUNDS: usize = 2;
/// Sessions of the (slower, socket-backed) wire leg.
const MULTI_SAT_NET_SESSIONS: usize = 64;

/// `k` predicates with diverse scopes over `n` processes — the same
/// derivation the CLI demo and the fuzz oracle use: predicate `j` spans
/// `1 + (j mod n)` processes starting at `3·j mod n`, so singletons,
/// strided bands and full-width scopes all appear.
fn multi_predicates(n: usize, k: usize) -> Vec<Wcp> {
    (0..k)
        .map(|j| {
            let width = 1 + (j % n);
            Wcp::over((0..width).map(|i| ProcessId::new(((j * 3 + i) % n) as u32)))
        })
        .collect()
}

/// Measures the multi-tenant session layer at saturation: `sessions`
/// concurrent predicates with diverse scopes registered on one
/// [`MultiEngine`], the whole event stream ingested once, and the engine
/// pumped dry — once per pump width in [`MULTI_SAT_THREAD_COUNTS`]
/// (serial, then the parallel pump at each worker count), every
/// width required to resolve the identical verdict set, the fastest of
/// [`MULTI_SAT_ROUNDS`] rounds recorded per width. The headline numbers are
/// detections/sec and shared-store bytes/predicate; `naive_store_bytes`
/// is what `sessions` standalone engines would have stored (each pays
/// the full stream), so `stored_bytes` vs it is the sharing win. A
/// smaller socket leg ([`run_multi_net`], loopback) adds wire
/// bytes/predicate and re-pins a sample of verdicts and metrics against
/// the saturated engine's.
fn multi_saturation_stats_sized(spec: WorkloadSpec, sessions: usize, net_sessions: usize) -> Json {
    let n = spec.processes;
    let computation = workloads::detectable(n, spec.events, spec.seed);
    let annotated = computation.annotate();
    let predicates = multi_predicates(n, sessions);

    // One full run: register everything, stream the computation in, pump
    // dry. Registration is setup, not detection work — the clock starts
    // at the first ingest.
    let run = |threads: usize| {
        let engine = MultiEngine::new(n);
        for (i, w) in predicates.iter().enumerate() {
            engine
                .register(PredicateId::new(i as u64), w)
                .expect("saturation registration failed");
        }
        let t = std::time::Instant::now();
        for p in ProcessId::all(n) {
            for &k in annotated.true_intervals(p) {
                engine.ingest(p, k, annotated.clock(StateId::new(p, k)).as_slice());
            }
            engine.close(p);
        }
        let resolved = if threads <= 1 {
            engine.pump()
        } else {
            engine.pump_parallel(threads)
        };
        let elapsed = t.elapsed();
        assert!(
            engine.all_resolved(),
            "saturation run left sessions unresolved"
        );
        (engine, resolved, elapsed)
    };
    // Every pump width, `MULTI_SAT_ROUNDS` timed rounds each (fastest
    // kept): the scaling curve serial → 8 workers in one entry, with the
    // verdict sets pinned identical across all widths.
    let mut serial_elapsed = std::time::Duration::MAX;
    let mut parallel_elapsed = std::time::Duration::MAX;
    let mut baseline: Option<Vec<_>> = None;
    let mut scaling = Vec::new();
    let mut last = None;
    for threads in MULTI_SAT_THREAD_COUNTS {
        let mut best = std::time::Duration::MAX;
        for _ in 0..MULTI_SAT_ROUNDS {
            let (engine, mut resolved, elapsed) = run(threads);
            best = best.min(elapsed);
            resolved.sort_by_key(|(id, _)| *id);
            match &baseline {
                None => baseline = Some(resolved),
                Some(want) => assert_eq!(
                    want, &resolved,
                    "{threads}-worker pump diverged from the serial one"
                ),
            }
            last = Some(engine);
        }
        let routed = last.as_ref().map_or(0, |e| e.stats().routed_events);
        scaling.push(Json::obj([
            ("threads", Json::UInt(threads as u64)),
            ("elapsed_ns", Json::UInt(best.as_nanos() as u64)),
            (
                "routed_events_per_sec",
                Json::Float(routed as f64 / best.as_secs_f64().max(f64::MIN_POSITIVE)),
            ),
        ]));
        if threads == 1 {
            serial_elapsed = best;
        }
        if threads == MULTI_SAT_THREADS {
            parallel_elapsed = best;
        }
    }
    let engine = last.expect("at least one saturation run");

    // Socket leg: a sample of the same predicates (the derivation is
    // independent of k, so ids line up) through the full wire stack.
    let net = run_multi_net(
        &computation,
        &Service::new(&multi_predicates(n, net_sessions)),
        NetConfig::loopback(),
        &RunOptions::default(),
    );
    for outcome in &net.report.outcomes {
        let saturated = engine
            .report(PredicateId::new(outcome.id))
            .expect("sampled session missing from the saturated engine");
        assert_eq!(
            Some(&outcome.verdict),
            saturated.verdict.as_ref(),
            "socket verdict diverged from the saturated engine (session {})",
            outcome.id
        );
        assert_eq!(
            outcome.metrics, saturated.metrics,
            "socket metrics diverged from the saturated engine (session {})",
            outcome.id
        );
    }

    let stats = engine.stats();
    let secs = |d: std::time::Duration| d.as_secs_f64().max(f64::MIN_POSITIVE);
    let stored = engine.store().stored_bytes();
    Json::obj([
        ("sessions", Json::UInt(sessions as u64)),
        ("processes", Json::UInt(n as u64)),
        ("events", Json::UInt(spec.events as u64)),
        ("seed", Json::UInt(spec.seed)),
        (
            "serial_elapsed_ns",
            Json::UInt(serial_elapsed.as_nanos() as u64),
        ),
        (
            "parallel_elapsed_ns",
            Json::UInt(parallel_elapsed.as_nanos() as u64),
        ),
        ("parallel_threads", Json::UInt(MULTI_SAT_THREADS as u64)),
        (
            "parallel_speedup",
            Json::Float(secs(serial_elapsed) / secs(parallel_elapsed)),
        ),
        ("pump_scaling", Json::Arr(scaling)),
        ("detections", Json::UInt(stats.detections)),
        (
            "detections_per_sec",
            Json::Float(stats.detections as f64 / secs(parallel_elapsed)),
        ),
        ("routed_events", Json::UInt(stats.routed_events)),
        (
            "routed_events_per_sec",
            Json::Float(stats.routed_events as f64 / secs(parallel_elapsed)),
        ),
        ("stored_bytes", Json::UInt(stored)),
        (
            "stored_bytes_per_session",
            Json::Float(stored as f64 / sessions as f64),
        ),
        ("naive_store_bytes", Json::UInt(stored * sessions as u64)),
        ("net_sessions", Json::UInt(net_sessions as u64)),
        ("net_bytes_sent", Json::UInt(net.net.bytes_sent)),
        (
            "net_bytes_per_session",
            Json::Float(net.net.bytes_sent as f64 / net_sessions as f64),
        ),
        ("net_frames_sent", Json::UInt(net.net.frames_sent)),
    ])
}

/// Scope widths of the work-optimal parallel scaling grid — the `n` of
/// the crossover claim (beat the sequential token walk at `n ≥ 32`).
const PARALLEL_SCALING_SCOPES: [usize; 3] = [8, 32, 128];
/// Events per process at each width of the scaling grid.
const PARALLEL_SCALING_EVENTS: usize = 24;
/// Worker counts measured at every width. Every width must produce a
/// `Detection` and `DetectionMetrics` bit-identical to the 1-thread run.
const PARALLEL_SCALING_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Measures the work-optimal [`ParallelDetector`] against the sequential
/// token walk on one workload per scope width: elapsed time for the
/// sequential baseline and for the round-based detector at every worker
/// count, plus the paper-unit work totals that carry the work-optimality
/// claim (O(1) per elimination vs the token walk's O(n) per consumed
/// candidate). Determinism is enforced, not sampled — every width is
/// asserted bit-identical (`Detection` + `DetectionMetrics`) to the
/// 1-thread reference before its timing is recorded.
fn parallel_scaling_stats_sized(samples: usize, scopes: &[usize], events: usize) -> Json {
    let per_scope = scopes
        .iter()
        .map(|&n| {
            let computation = workloads::detectable(n, events, 7);
            let annotated = computation.annotate();
            let wcp = workloads::scope(n);

            let sequential = TokenDetector::new().detect(&annotated, &wcp);
            let seq_t = timing::run("parallel_scaling/token", samples, || {
                std::hint::black_box(TokenDetector::new().detect(&annotated, &wcp));
            });

            let reference = ParallelDetector::new().detect(&annotated, &wcp);
            assert_eq!(
                reference.detection, sequential.detection,
                "scope {n}: work-optimal verdict diverged from the token walk"
            );

            let mut widths = Vec::new();
            for &threads in &PARALLEL_SCALING_THREAD_COUNTS {
                let detector = ParallelDetector::new().with_threads(threads);
                let report = detector.detect(&annotated, &wcp);
                assert_eq!(
                    report.detection, reference.detection,
                    "scope {n}: {threads}-thread verdict diverged from 1-thread"
                );
                assert_eq!(
                    report.metrics, reference.metrics,
                    "scope {n}: {threads}-thread metrics diverged from 1-thread"
                );
                let t = timing::run(&format!("parallel_scaling/{n}x{threads}"), samples, || {
                    std::hint::black_box(detector.detect(&annotated, &wcp));
                });
                widths.push(Json::obj([
                    ("threads", Json::UInt(threads as u64)),
                    ("median_ns", Json::UInt(t.median_ns)),
                    ("min_ns", Json::UInt(t.min_ns)),
                    (
                        "speedup_vs_sequential",
                        Json::Float(
                            seq_t.median_ns as f64 / (t.median_ns as f64).max(f64::MIN_POSITIVE),
                        ),
                    ),
                ]));
            }

            let seq_work = sequential.metrics.total_work();
            let par_work = reference.metrics.total_work();
            assert!(
                par_work as f64 <= seq_work as f64 * 1.1,
                "scope {n}: parallel work {par_work} exceeds 1.1× the token walk's {seq_work} — \
                 the work-optimality claim regressed"
            );
            Json::obj([
                ("scope", Json::UInt(n as u64)),
                ("events", Json::UInt(events as u64)),
                ("detected", Json::Bool(reference.detection.is_detected())),
                ("sequential_median_ns", Json::UInt(seq_t.median_ns)),
                ("sequential_min_ns", Json::UInt(seq_t.min_ns)),
                ("sequential_total_work", Json::UInt(seq_work)),
                ("parallel_total_work", Json::UInt(par_work)),
                (
                    "work_ratio",
                    Json::Float(par_work as f64 / (seq_work as f64).max(f64::MIN_POSITIVE)),
                ),
                (
                    "parallel_time_units",
                    Json::UInt(reference.metrics.parallel_time),
                ),
                ("widths", Json::Arr(widths)),
            ])
        })
        .collect();
    Json::obj([("scopes", Json::Arr(per_scope))])
}

/// [`parallel_scaling_stats_sized`] at the standard grid:
/// `n ∈ {8, 32, 128}` × `threads ∈ {1, 2, 4, 8}` over 24-event traces.
fn parallel_scaling_stats(samples: usize) -> Json {
    parallel_scaling_stats_sized(samples, &PARALLEL_SCALING_SCOPES, PARALLEL_SCALING_EVENTS)
}

/// Scope widths of the trace-ingest grid.
const INGEST_SCOPES: [usize; 3] = [8, 32, 128];
/// Events per process at every width of the ingest grid.
const INGEST_EVENTS: usize = 24;

/// Times what every offline detection pays before its detector runs, layer
/// by layer, on one detectable trace per scope width: parsing the JSON
/// text `wcp generate` writes (`Json::parse` + `Computation::from_json`),
/// `validate`, `annotate` (which validates as well, since callers may
/// skip `validate`) and the Figure 2 snapshot-queue build (on a fresh
/// annotation each time).
fn ingest_stats_sized(samples: usize, scopes: &[usize], events: usize) -> Json {
    let per_scope = scopes
        .iter()
        .map(|&n| {
            let computation = workloads::detectable(n, events, 7);
            let text = computation.to_json().pretty();
            let wcp = workloads::scope(n);
            let parse = timing::run(&format!("ingest/{n}/parse"), samples, || {
                let json = Json::parse(&text).expect("a generated trace is valid JSON");
                std::hint::black_box(
                    Computation::from_json(&json).expect("a generated trace parses"),
                );
            });
            let validate = timing::run(&format!("ingest/{n}/validate"), samples, || {
                std::hint::black_box(computation.validate()).expect("a generated trace is valid");
            });
            let annotate = timing::run(&format!("ingest/{n}/annotate"), samples, || {
                std::hint::black_box(computation.annotate());
            });
            let queue_build = timing::run_fresh(
                &format!("ingest/{n}/queue_build"),
                samples,
                || computation.annotate(),
                |annotated| {
                    std::hint::black_box(VcSnapshotQueues::build(annotated, &wcp));
                },
            );
            let us = |ns: u64| Json::Float(ns as f64 / 1e3);
            Json::obj([
                ("scope", Json::UInt(n as u64)),
                ("events", Json::UInt(events as u64)),
                ("json_bytes", Json::UInt(text.len() as u64)),
                ("parse_us", us(parse.median_ns)),
                ("parse_min_us", us(parse.min_ns)),
                ("validate_us", us(validate.median_ns)),
                ("validate_min_us", us(validate.min_ns)),
                ("annotate_us", us(annotate.median_ns)),
                ("annotate_min_us", us(annotate.min_ns)),
                ("queue_build_us", us(queue_build.median_ns)),
                ("queue_build_min_us", us(queue_build.min_ns)),
            ])
        })
        .collect();
    Json::obj([("scopes", Json::Arr(per_scope))])
}

/// [`multi_saturation_stats_sized`] at the standard shape: 10 000
/// concurrent predicates over a 16×40 stream, 64 of them re-run through
/// the socket stack.
fn multi_saturation_stats() -> Json {
    multi_saturation_stats_sized(
        MULTI_SAT_WORKLOAD,
        MULTI_SAT_SESSIONS,
        MULTI_SAT_NET_SESSIONS,
    )
}

/// One labelled trajectory entry: every standard workload measured through
/// every applicable detector family, plus the net-loopback comparison and
/// the wire-stack saturation numbers.
pub fn entry(label: &str, samples: usize) -> Json {
    let workloads = standard_workloads()
        .into_iter()
        .map(|spec| measure_workload(spec, samples))
        .collect();
    Json::obj([
        ("label", Json::Str(label.to_string())),
        ("samples", Json::UInt(samples as u64)),
        ("workloads", Json::Arr(workloads)),
        ("net_loopback", net_loopback_stats(samples)),
        ("net_saturation", net_saturation_stats(SATURATION_FRAMES)),
        ("net_wire_v2", wire_v2_stats(SATURATION_FRAMES)),
        ("telemetry_overhead", telemetry_overhead_stats(samples)),
        ("multi_saturation", multi_saturation_stats()),
        ("parallel_scaling", parallel_scaling_stats(samples)),
        (
            "ingest",
            ingest_stats_sized(samples, &INGEST_SCOPES, INGEST_EVENTS),
        ),
    ])
}

/// Folds `new_entry` into a trajectory document: entries with the same
/// label are replaced (so `scripts/bench.sh` regenerates reproducibly),
/// other entries are preserved in order. `existing` is the parsed previous
/// file contents, if any; non-trajectory documents are discarded.
pub fn append_entry(existing: Option<Json>, new_entry: Json) -> Json {
    let mut entries: Vec<Json> = match existing {
        Some(doc) if doc.get("schema").and_then(Json::as_str) == Some(TRAJECTORY_SCHEMA) => doc
            .get("entries")
            .and_then(|e| e.as_array().map(<[Json]>::to_vec))
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    let label = new_entry
        .get("label")
        .and_then(Json::as_str)
        .map(String::from);
    entries.retain(|e| e.get("label").and_then(Json::as_str).map(String::from) != label);
    entries.push(new_entry);
    Json::obj([
        ("schema", Json::Str(TRAJECTORY_SCHEMA.to_string())),
        ("entries", Json::Arr(entries)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny entry (one sample, smallest workload only) for tests.
    fn tiny_entry(label: &str) -> Json {
        let spec = WorkloadSpec {
            processes: 4,
            events: 6,
            seed: 3,
        };
        Json::obj([
            ("label", Json::Str(label.to_string())),
            ("samples", Json::UInt(1)),
            ("workloads", Json::Arr(vec![measure_workload(spec, 1)])),
        ])
    }

    #[test]
    fn workload_measures_all_families() {
        let spec = WorkloadSpec {
            processes: 4,
            events: 8,
            seed: 7,
        };
        let w = measure_workload(spec, 1);
        let results = w.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), detectors(4).len());
        for r in results {
            assert!(r.get("median_ns").unwrap().as_u64().is_some());
            assert_eq!(r.get("detected").unwrap().as_bool(), Some(true));
            assert!(r.get("total_work").unwrap().as_u64().unwrap() > 0);
        }
        let substrate = w.get("substrate").unwrap();
        assert!(substrate.get("snapshots").unwrap().as_u64().unwrap() > 0);
        // The document round-trips through the in-tree serializer.
        let text = w.pretty();
        assert_eq!(Json::parse(&text).unwrap(), w);
    }

    #[test]
    fn lattice_excluded_on_wide_scopes() {
        let names: Vec<String> = detectors(LATTICE_MAX_SCOPE + 1)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(!names.iter().any(|n| n == "lattice"));
        assert!(names.iter().any(|n| n == "token"));
        let small: Vec<String> = detectors(4).into_iter().map(|(n, _)| n).collect();
        assert!(small.iter().any(|n| n == "lattice"));
    }

    #[test]
    fn net_loopback_stats_report_traffic_and_agree_with_sim() {
        let stats = net_loopback_stats(1);
        assert_eq!(stats.get("detected").unwrap().as_bool(), Some(true));
        assert!(stats.get("frames_sent").unwrap().as_u64().unwrap() > 0);
        assert!(stats.get("bytes_sent").unwrap().as_u64().unwrap() > 0);
        assert!(
            stats
                .get("loopback_median_ns")
                .unwrap()
                .as_u64()
                .unwrap()
                .max(1)
                > 0
        );
        let text = stats.pretty();
        assert_eq!(Json::parse(&text).unwrap(), stats);
    }

    #[test]
    fn net_saturation_stats_cover_all_three_modes() {
        let stats = net_saturation_stats(400);
        for mode in ["loopback_batched", "loopback_per_frame", "tcp_batched"] {
            let m = stats.get(mode).unwrap();
            assert!(m.get("frames_per_sec").unwrap().as_f64().unwrap() > 0.0);
            assert!(m.get("allocs_per_frame").unwrap().as_f64().unwrap() >= 0.0);
        }
        let per_frame = stats.get("loopback_per_frame").unwrap();
        assert_eq!(
            per_frame.get("frames_per_flush").unwrap().as_f64(),
            Some(1.0),
            "per-frame mode writes once per frame by construction"
        );
        assert!(
            stats
                .get("loopback_batched")
                .unwrap()
                .get("frames_per_flush")
                .unwrap()
                .as_f64()
                .unwrap()
                > 1.0,
            "batched mode must coalesce"
        );
        let text = stats.pretty();
        assert_eq!(Json::parse(&text).unwrap(), stats);
    }

    #[test]
    fn wire_v2_halves_bytes_per_event_at_every_measured_scope() {
        // The wire-v2 acceptance number: bytes/event on the saturated
        // link at n = 32 must be ≤ 0.5× the v1 baseline (it holds at
        // every measured width — v1 bodies grow with n, deltas do not).
        let stats = wire_v2_stats(400);
        let scopes = stats.get("scopes").unwrap().as_array().unwrap();
        assert_eq!(scopes.len(), WIRE_V2_SCOPES.len());
        for s in scopes {
            let n = s.get("scope").unwrap().as_u64().unwrap();
            // The computed v1 baseline is exactly what a v1 link measured:
            // the fixed header plus an 8-byte component per scope process
            // (97, 289 and 1057 B at n = 8, 32 and 128).
            assert_eq!(
                s.get("v1_bytes_per_event").unwrap().as_f64().unwrap(),
                (wcp_net::codec::V1_HEADER_LEN + 8 * n as usize) as f64,
                "scope {n}: v1 baseline"
            );
            let ratio = s.get("bytes_ratio").unwrap().as_f64().unwrap();
            assert!(
                ratio <= 0.5,
                "scope {n}: v2 bytes/event ratio {ratio} exceeds the 0.5× bound"
            );
            assert!(
                s.get("v2_delta_hit_rate").unwrap().as_f64().unwrap() > 0.8,
                "scope {n}: chained frames should overwhelmingly be deltas"
            );
        }
        let text = stats.pretty();
        assert_eq!(Json::parse(&text).unwrap(), stats);
    }

    #[test]
    fn telemetry_overhead_stats_record_both_modes() {
        let stats = telemetry_overhead_stats(1);
        assert!(stats.get("off_median_ns").unwrap().as_u64().unwrap() > 0);
        assert!(stats.get("on_median_ns").unwrap().as_u64().unwrap() > 0);
        assert!(stats.get("overhead_ratio").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            stats
                .get("saturation_off_fps_median")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert!(
            stats
                .get("saturation_on_fps_median")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert!(
            stats
                .get("saturation_telemetry_frames")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0,
            "the observed saturation run must ship telemetry frames"
        );
        assert!(
            stats.get("telemetry_frames").unwrap().as_u64().unwrap() > 0,
            "the on-run must actually ship telemetry frames"
        );
        assert!(stats.get("run_overhead_ratio").unwrap().as_f64().unwrap() > 0.0);
        assert!(stats.get("events_collected").unwrap().as_u64().unwrap() > 0);
        let text = stats.pretty();
        assert_eq!(Json::parse(&text).unwrap(), stats);
    }

    #[test]
    fn multi_saturation_stats_report_throughput_and_sharing() {
        let spec = WorkloadSpec {
            processes: 8,
            events: 12,
            seed: 7,
        };
        let stats = multi_saturation_stats_sized(spec, 200, 16);
        assert_eq!(stats.get("sessions").unwrap().as_u64(), Some(200));
        assert!(stats.get("detections").unwrap().as_u64().unwrap() > 0);
        assert!(stats.get("detections_per_sec").unwrap().as_f64().unwrap() > 0.0);
        assert!(stats.get("routed_events").unwrap().as_u64().unwrap() > 0);
        let stored = stats.get("stored_bytes").unwrap().as_u64().unwrap();
        assert!(stored > 0);
        // The shared store is paid once; 200 standalone engines pay it 200×.
        assert_eq!(
            stats.get("naive_store_bytes").unwrap().as_u64(),
            Some(stored * 200)
        );
        // The scaling curve covers every measured pump width.
        let scaling = stats.get("pump_scaling").unwrap().as_array().unwrap();
        assert_eq!(scaling.len(), MULTI_SAT_THREAD_COUNTS.len());
        for (point, threads) in scaling.iter().zip(MULTI_SAT_THREAD_COUNTS) {
            assert_eq!(point.get("threads").unwrap().as_u64(), Some(threads as u64));
            assert!(point.get("elapsed_ns").unwrap().as_u64().unwrap() > 0);
            assert!(
                point
                    .get("routed_events_per_sec")
                    .unwrap()
                    .as_f64()
                    .unwrap()
                    > 0.0
            );
        }
        assert!(
            stats
                .get("net_bytes_per_session")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        let text = stats.pretty();
        assert_eq!(Json::parse(&text).unwrap(), stats);
    }

    #[test]
    fn parallel_scaling_stats_pin_every_width() {
        // Tiny grid: the structure and the bit-identity guard, not the
        // headline numbers (the full grid runs under `scripts/bench.sh`).
        let stats = parallel_scaling_stats_sized(1, &[4, 6], 8);
        let scopes = stats.get("scopes").unwrap().as_array().unwrap();
        assert_eq!(scopes.len(), 2);
        for s in scopes {
            assert_eq!(s.get("detected").unwrap().as_bool(), Some(true));
            assert!(s.get("sequential_total_work").unwrap().as_u64().unwrap() > 0);
            assert!(s.get("parallel_total_work").unwrap().as_u64().unwrap() > 0);
            assert!(s.get("work_ratio").unwrap().as_f64().unwrap() > 0.0);
            let widths = s.get("widths").unwrap().as_array().unwrap();
            assert_eq!(widths.len(), PARALLEL_SCALING_THREAD_COUNTS.len());
            for (w, threads) in widths.iter().zip(PARALLEL_SCALING_THREAD_COUNTS) {
                assert_eq!(w.get("threads").unwrap().as_u64(), Some(threads as u64));
                assert!(w.get("median_ns").unwrap().as_u64().unwrap() > 0);
            }
        }
        let text = stats.pretty();
        assert_eq!(Json::parse(&text).unwrap(), stats);
    }

    #[test]
    fn ingest_stats_time_every_layer() {
        let stats = ingest_stats_sized(1, &[4, 6], 8);
        let scopes = stats.get("scopes").unwrap().as_array().unwrap();
        assert_eq!(scopes.len(), 2);
        for s in scopes {
            assert!(s.get("json_bytes").unwrap().as_u64().unwrap() > 0);
            for layer in ["parse", "validate", "annotate", "queue_build"] {
                for key in [format!("{layer}_us"), format!("{layer}_min_us")] {
                    assert!(s.get(&key).unwrap().as_f64().unwrap() > 0.0, "{key}");
                }
            }
        }
        let text = stats.pretty();
        assert_eq!(Json::parse(&text).unwrap(), stats);
    }

    #[test]
    fn trajectory_appends_and_replaces_by_label() {
        let doc = append_entry(None, tiny_entry("a"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(TRAJECTORY_SCHEMA)
        );
        assert_eq!(doc.get("entries").unwrap().as_array().unwrap().len(), 1);
        let doc = append_entry(Some(doc), tiny_entry("b"));
        assert_eq!(doc.get("entries").unwrap().as_array().unwrap().len(), 2);
        // Same label replaces, preserving the other entry.
        let doc = append_entry(Some(doc), tiny_entry("b"));
        let entries = doc.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("label").and_then(Json::as_str), Some("a"));
        // A non-trajectory existing document is discarded.
        let fresh = append_entry(Some(Json::obj([("x", Json::UInt(1))])), tiny_entry("c"));
        assert_eq!(fresh.get("entries").unwrap().as_array().unwrap().len(), 1);
    }
}
