//! The differential oracle: runs one [`FuzzCase`] through every detector
//! family and cross-checks each verdict against the ground truth.
//!
//! Theorem 3.2 makes this possible: the first satisfying consistent cut of
//! a WCP is *unique*, so every correct detector — offline emulation, online
//! actor stack, streaming checker, socket peer — must report the same scope
//! projection. The truth is read straight off the annotated computation
//! ([`AnnotatedComputation::first_satisfying_cut`]); the Cooper–Marzullo
//! lattice baseline is additionally cross-checked on instances small enough
//! to enumerate.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use wcp_clocks::{ProcessId, StateId};
use wcp_detect::online::{run_online, simulate, Family, RunOptions};
use wcp_detect::{
    audit_bounds, replay_metrics, vc_snapshot_queues, BoundLimits, CentralizedChecker, Detection,
    DetectionMetrics, DetectionReport, Detector, DirectDependenceDetector, Gcp, GcpChecker,
    HierarchicalChecker, LatticeDetector, MultiTokenDetector, ParallelDetector, StreamingChecker,
    StreamingStatus, TokenDetector,
};
use wcp_net::{decode_delta, encode_delta, run_multi_net, run_net, NetConfig, NetStats};
use wcp_obs::rng::Rng;
use wcp_obs::{merge_streams, split_by_monitor, RingRecorder, StampedEvent};
use wcp_session::{
    run_multi_offline, run_single_offline, MultiEngine, PredicateId, Service, SessionReport,
    SessionVerdict,
};
use wcp_sim::SimConfig;
use wcp_trace::generate::generate;
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::case::FuzzCase;

/// Ring capacity for replay-lockstep checks; sized so generated cases
/// never overflow (overflow skips the metrics check, it is not a bug).
const RING_CAPACITY: usize = 1 << 16;

/// Lattice-enumeration budget: mirror `tests/agreement.rs` — only explore
/// small instances exhaustively.
const LATTICE_MAX_PROCESSES: usize = 4;
const LATTICE_MAX_EVENTS: usize = 6;

/// Wall-clock budget for one socket run.
const NET_DEADLINE: Duration = Duration::from_secs(20);

/// Worker count the parallel-pump cross-check leg drives — enough to
/// partition the shard space several ways while staying cheap per case.
const PUMP_PARALLEL_WORKERS: usize = 4;

/// Worker count of the work-optimal detector's multi-thread cross-check
/// leg — several strided shares per round without per-case thread spam.
const PARALLEL_DETECT_WORKERS: usize = 4;

/// How a detector deviated from the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Wrong verdict or wrong cut projection.
    Verdict,
    /// Verdict right, but `replay_metrics` over the recorded event stream
    /// does not reconstruct the reported `DetectionMetrics`.
    Metrics,
    /// The merged telemetry timeline exceeds a paper bound (§3.4:
    /// `O(nm)` messages, `O(n²m)` bits, hop-bounded detection latency).
    Bounds,
    /// A telemetry delta did not decode to the events it encoded.
    Codec,
    /// The detector panicked.
    Crash,
}

/// One detector's deviation on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Battery label of the deviating detector (e.g. `"multi-token(2)+par"`).
    pub detector: String,
    /// Deviation class.
    pub kind: DivergenceKind,
    /// Human-readable expected-vs-got (or panic payload).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            DivergenceKind::Verdict => "verdict",
            DivergenceKind::Metrics => "metrics",
            DivergenceKind::Bounds => "bounds",
            DivergenceKind::Codec => "codec",
            DivergenceKind::Crash => "crash",
        };
        write!(f, "[{kind}] {}: {}", self.detector, self.detail)
    }
}

/// Knobs for [`check_case`].
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Run the socket stacks (loopback and in-process TCP) for cases with
    /// `net = true`.
    /// Campaigns enable this; the shrinker's inner loop may disable it.
    pub include_net: bool,
    /// Test-only: add a [`SabotagedDetector`] to the battery so the
    /// shrinker self-test has a known planted bug to reduce.
    pub sabotage: bool,
    /// Force the multi-tenant session cross-check to run its socket
    /// loopback leg even when the case's `net` draw is false — the
    /// `wcp fuzz --multi` smoke knob. (The offline engine cross-check
    /// runs on every case regardless.)
    pub force_multi: bool,
    /// Force the parallel-pump leg of the multi-tenant
    /// cross-check even when the case's `pump_parallel` draw is false —
    /// the `wcp fuzz --pump-parallel` smoke knob.
    pub force_pump_parallel: bool,
    /// Force the work-optimal detector's multi-thread bit-identity leg
    /// even when the case's `parallel_detect` draw is false — the
    /// `wcp fuzz --parallel-detect` smoke knob. (The single-thread
    /// detector runs in the offline battery on every case regardless.)
    pub force_parallel_detect: bool,
    /// Audit the merged telemetry timeline of a recorded online vc-token
    /// run against the paper's §3.4 bounds (`wcp fuzz --audit-bounds`).
    pub audit_bounds: bool,
    /// Test-only: audit against [`BoundLimits::sabotaged`] (every limit
    /// zero) instead of the Theorem limits, so the self-test can assert
    /// the auditor actually reports violations.
    pub sabotage_bounds: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            include_net: true,
            sabotage: false,
            force_multi: false,
            force_pump_parallel: false,
            force_parallel_detect: false,
            audit_bounds: false,
            sabotage_bounds: false,
        }
    }
}

/// Test-only wrapper that mis-reports `Undetected` whenever the true cut
/// selects any interval `>= 2` — a planted mutation the shrinker self-test
/// must find and reduce to a minimal repro.
pub struct SabotagedDetector<D: Detector>(pub D);

impl<D: Detector> Detector for SabotagedDetector<D> {
    fn name(&self) -> &str {
        "sabotaged"
    }

    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let mut report = self.0.detect(annotated, wcp);
        if let Detection::Detected { cut } = &report.detection {
            if wcp.project(cut).iter().any(|&k| k >= 2) {
                report.detection = Detection::Undetected;
            }
        }
        report
    }
}

/// Runs `f`, converting a panic into `Err(payload)`.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())),
    }
}

/// Serves `predicates` (ids `0..k`) on an engine fed one snapshot at a
/// time with a pump after each, and after each close. Even ids register
/// before the first snapshot, so those pumps route their classes; odd ids
/// register once half of every process's stream is in, each followed by a
/// pump — an odd id over a scope with no class yet builds it mid-stream
/// from the store origin, and one over a routed class's scope replays it.
/// Returns every session's report, in id order.
fn registered_mid_stream(
    annotated: &AnnotatedComputation,
    predicates: &[Wcp],
) -> Vec<SessionReport> {
    let n = annotated.process_count();
    let engine = MultiEngine::new(n);
    let register = |parity: usize| {
        for (id, wcp) in predicates.iter().enumerate().skip(parity).step_by(2) {
            engine
                .register(PredicateId::new(id as u64), wcp)
                .expect("fuzz predicates have valid scopes and distinct ids");
            engine.pump();
        }
    };
    let feed = |p: ProcessId, intervals: &[u64]| {
        for &k in intervals {
            engine.ingest(p, k, annotated.clock(StateId::new(p, k)).as_slice());
            engine.pump();
        }
    };
    register(0);
    for p in ProcessId::all(n) {
        let intervals = annotated.true_intervals(p);
        feed(p, &intervals[..intervals.len() / 2]);
    }
    register(1);
    for p in ProcessId::all(n) {
        let intervals = annotated.true_intervals(p);
        feed(p, &intervals[intervals.len() / 2..]);
        engine.close(p);
        engine.pump();
    }
    (0..predicates.len() as u64)
        .map(|id| {
            engine
                .report(PredicateId::new(id))
                .expect("registered session vanished")
        })
        .collect()
}

fn fmt_proj(p: &Option<Vec<u64>>) -> String {
    match p {
        Some(v) => format!("Detected{v:?}"),
        None => "Undetected".to_string(),
    }
}

/// Runs the full battery on `case`, returning every deviation found.
///
/// An empty result means all detector families agreed with the oracle on
/// both verdict and (where applicable) replayed metrics.
pub fn check_case(case: &FuzzCase, opts: &CheckOptions) -> Vec<Divergence> {
    let mut out = Vec::new();
    let generated = match guarded(|| generate(&case.gen)) {
        Ok(g) => g,
        Err(p) => {
            out.push(Divergence {
                detector: "generator".to_string(),
                kind: DivergenceKind::Crash,
                detail: p,
            });
            return out;
        }
    };
    let computation = &generated.computation;
    let wcp = case.wcp(computation);
    let annotated = computation.annotate();
    let truth = annotated
        .first_satisfying_cut(&wcp)
        .map(|c| wcp.project(&c));

    let mut diverge = |detector: &str, kind: DivergenceKind, detail: String| {
        out.push(Divergence {
            detector: detector.to_string(),
            kind,
            detail,
        });
    };

    // ---- offline detectors, with replay-lockstep metrics checks --------
    // `replay_exact` marks the families whose recorded event stream is a
    // lossless account of their metrics (the `tests/replay.rs` contract);
    // the sabotaged detector is verdict-checked only. The `centralized`
    // report is kept for the GCP leg, the `token` and `multi-token`
    // reports for the online legs below.
    struct Offline<'a> {
        label: &'static str,
        build: Box<dyn Fn(Arc<RingRecorder>) -> Box<dyn Detector> + 'a>,
        replay_exact: bool,
    }
    let groups = case.groups.max(1);
    let scope_n = wcp.n();
    let mut battery: Vec<Offline<'_>> = vec![
        Offline {
            label: "centralized",
            build: Box::new(|r| Box::new(CentralizedChecker::new().with_recorder(r))),
            replay_exact: true,
        },
        Offline {
            label: "token",
            build: Box::new(|r| {
                Box::new(
                    TokenDetector::new()
                        .with_invariant_checks()
                        .with_recorder(r),
                )
            }),
            replay_exact: true,
        },
        Offline {
            label: "token+start",
            build: Box::new(move |r| {
                Box::new(
                    TokenDetector::new()
                        .with_start(scope_n - 1)
                        .with_recorder(r),
                )
            }),
            replay_exact: true,
        },
        Offline {
            label: "multi-token",
            build: Box::new(move |r| Box::new(MultiTokenDetector::new(groups).with_recorder(r))),
            replay_exact: true,
        },
        Offline {
            label: "parallel",
            build: Box::new(|r| Box::new(ParallelDetector::new().with_recorder(r))),
            replay_exact: true,
        },
        Offline {
            label: "direct",
            build: Box::new(|r| {
                Box::new(
                    DirectDependenceDetector::new()
                        .with_invariant_checks()
                        .with_recorder(r),
                )
            }),
            replay_exact: true,
        },
        Offline {
            label: "hierarchical",
            build: Box::new(move |r| Box::new(HierarchicalChecker::new(groups).with_recorder(r))),
            replay_exact: true,
        },
    ];
    if opts.sabotage {
        battery.push(Offline {
            label: "sabotaged",
            build: Box::new(|_| Box::new(SabotagedDetector(ParallelDetector::new()))),
            replay_exact: false,
        });
    }
    let (mut central_report, mut token_report, mut multi_report, mut direct_report) =
        (None, None, None, None);
    for entry in &battery {
        let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let detector = (entry.build)(ring.clone());
        match guarded(|| detector.detect(&annotated, &wcp)) {
            Ok(report) => {
                let got = report.detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        entry.label,
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                } else if entry.replay_exact && ring.dropped() == 0 {
                    let replayed =
                        replay_metrics(report.metrics.per_process_work.len(), &ring.events());
                    if replayed != report.metrics {
                        diverge(
                            entry.label,
                            DivergenceKind::Metrics,
                            format!(
                                "replayed metrics diverge: reported [{}], replayed [{}]",
                                report.metrics, replayed
                            ),
                        );
                    }
                }
                match entry.label {
                    "centralized" => central_report = Some(report),
                    "token" => token_report = Some(report),
                    "multi-token" => multi_report = Some(report),
                    "direct" => direct_report = Some(report),
                    _ => {}
                }
            }
            Err(p) => diverge(entry.label, DivergenceKind::Crash, p),
        }
    }

    // ---- GCP checker with no channel terms -----------------------------
    // Phase 1 of the GCP checker is the centralized checker's loop over
    // its own row source, so with no channel terms the whole report —
    // verdict and `DetectionMetrics` — must equal the centralized one.
    match guarded(|| GcpChecker::new().detect(&annotated, &Gcp::new(wcp.clone(), []))) {
        Ok(report) => {
            let got = report.detection.cut().map(|c| wcp.project(c));
            if got != truth {
                diverge(
                    "gcp",
                    DivergenceKind::Verdict,
                    format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                );
            } else if let Some(central) = central_report.as_ref().filter(|c| **c != report) {
                diverge(
                    "gcp",
                    DivergenceKind::Metrics,
                    format!(
                        "diverges from the centralized checker: centralized [{}], gcp [{}]",
                        central.metrics, report.metrics
                    ),
                );
            }
        }
        Err(p) => diverge("gcp", DivergenceKind::Crash, p),
    }

    // ---- work-optimal detector: thread-count bit-identity --------------
    // When the case drew `parallel_detect` (or `--parallel-detect` forced
    // it), rerun the work-optimal detector with a real worker pool and pin
    // the whole report — verdict, `DetectionMetrics`, recorded event
    // stream — bit-identical to a fresh single-thread run. The oracle
    // check itself already happened in the battery above.
    if case.parallel_detect || opts.force_parallel_detect {
        let seq_ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let par_ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let run = |threads: usize, ring: Arc<RingRecorder>| {
            ParallelDetector::new()
                .with_threads(threads)
                .with_recorder(ring)
                .detect(&annotated, &wcp)
        };
        match guarded(|| {
            (
                run(1, seq_ring.clone()),
                run(PARALLEL_DETECT_WORKERS, par_ring.clone()),
            )
        }) {
            Ok((seq, par)) => {
                if par.detection != seq.detection {
                    diverge(
                        "parallel+par",
                        DivergenceKind::Verdict,
                        format!(
                            "multi-thread verdict diverged from single-thread: \
                             sequential {:?}, parallel {:?}",
                            seq.detection, par.detection
                        ),
                    );
                } else if par.metrics != seq.metrics {
                    diverge(
                        "parallel+par",
                        DivergenceKind::Metrics,
                        format!(
                            "multi-thread metrics diverged from single-thread: \
                             sequential [{}], parallel [{}]",
                            seq.metrics, par.metrics
                        ),
                    );
                } else if seq_ring.dropped() == 0
                    && par_ring.dropped() == 0
                    && par_ring.events() != seq_ring.events()
                {
                    diverge(
                        "parallel+par",
                        DivergenceKind::Metrics,
                        "multi-thread event stream diverged from single-thread".to_string(),
                    );
                }
            }
            Err(p) => diverge("parallel+par", DivergenceKind::Crash, p),
        }
    }

    // ---- lattice ground truth (budgeted) -------------------------------
    if computation.process_count() <= LATTICE_MAX_PROCESSES
        && computation.max_events_per_process() <= LATTICE_MAX_EVENTS
    {
        match guarded(|| LatticeDetector::new().detect(&annotated, &wcp)) {
            Ok(report) => {
                let got = report.detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        "lattice",
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                }
            }
            Err(p) => diverge("lattice", DivergenceKind::Crash, p),
        }
    }

    // ---- streaming checker under a seeded push/close interleave --------
    match guarded(|| run_streaming(case, &annotated, &wcp)) {
        Ok(outcome) => {
            if outcome.detected != truth {
                diverge(
                    "streaming",
                    DivergenceKind::Verdict,
                    format!(
                        "expected {}, got {}",
                        fmt_proj(&truth),
                        fmt_proj(&outcome.detected)
                    ),
                );
            } else if let Some(violation) = outcome.contract_violation {
                diverge("streaming", DivergenceKind::Verdict, violation);
            } else if truth.is_none() && !outcome.settled {
                // Once every position is closed, a checker that has not
                // detected must report Impossible — staying Pending
                // forever is the close-order liveness bug.
                diverge(
                    "streaming",
                    DivergenceKind::Verdict,
                    "all positions closed without detection, yet the checker never \
                     reported Impossible"
                        .to_string(),
                );
            } else if let Some(central) = &central_report {
                // Pushes only pause the offline run's sequence of rounds,
                // so the work matches whatever the interleave.
                let want = central.metrics.total_work();
                if outcome.work != want {
                    diverge(
                        "streaming",
                        DivergenceKind::Metrics,
                        format!("checker work {want}, streaming work {}", outcome.work),
                    );
                }
            }
        }
        Err(p) => diverge("streaming", DivergenceKind::Crash, p),
    }

    // ---- online simulated actor stacks ---------------------------------
    // The online token, group and §4 monitors run the offline legs'
    // visits, routing and merge, so they must also report the same work,
    // hops and control traffic: always for the single token and the §4
    // red chain; for the groups on detected runs and with one group. With
    // more groups an undetected online run keeps walking the other groups
    // until the stop reaches them, where the emulation stops at once.
    let sim = SimConfig::seeded(case.sim_seed).with_latency(case.latency);
    let one_group = groups.min(scope_n) == 1;
    // The one list of online families: the simulator leg runs each here,
    // the socket leg below runs the same values over loopback and TCP
    // peers.
    let families = [
        Family::VcToken,
        Family::MultiToken { groups },
        Family::Checker,
        Family::Direct { parallel: false },
        Family::Direct { parallel: true },
    ];
    struct Online<'a> {
        label: String,
        run: Box<dyn Fn() -> DetectionReport + 'a>,
        twin: Option<&'a DetectionReport>,
    }
    let online: Vec<Online<'_>> = families
        .iter()
        .map(|&family| Online {
            label: format!("online:{}", label(family)),
            run: Box::new({
                let (wcp, sim) = (&wcp, &sim);
                move || run_online(family, computation, wcp, sim.clone()).report
            }),
            twin: match family {
                Family::VcToken => token_report.as_ref(),
                Family::MultiToken { .. } => multi_report
                    .as_ref()
                    .filter(|_| truth.is_some() || one_group),
                Family::Direct { parallel: false } => direct_report.as_ref(),
                Family::Checker | Family::Direct { parallel: true } => None,
            },
        })
        .collect();
    for entry in &online {
        match guarded(&entry.run) {
            Ok(report) => {
                let got = report.detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        &entry.label,
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                } else if let Some(twin) = entry.twin {
                    let costs = |m: &DetectionMetrics| {
                        (
                            m.per_process_work.clone(),
                            m.token_hops,
                            m.control_messages,
                            m.control_bytes,
                        )
                    };
                    if costs(&report.metrics) != costs(&twin.metrics) {
                        diverge(
                            &entry.label,
                            DivergenceKind::Metrics,
                            format!(
                                "online costs diverge from the offline emulation: \
                                 online [{}], offline [{}]",
                                report.metrics, twin.metrics
                            ),
                        );
                    }
                }
            }
            Err(p) => diverge(&entry.label, DivergenceKind::Crash, p),
        }
    }

    // ---- paper-bound audit over the merged telemetry pipeline ----------
    if opts.audit_bounds || opts.sabotage_bounds {
        let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        match guarded(|| {
            simulate(
                Family::VcToken.layout(computation, &wcp),
                sim.clone(),
                &RunOptions::recorded(ring.clone()),
            )
            .report
            .detection
        }) {
            Ok(detection) => {
                let got = detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        "audit:vc-token",
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                } else if ring.dropped() == 0 {
                    // Exactly the collector pipeline: split the recording
                    // into per-monitor streams (what each peer's private
                    // ring would hold), ship each through the telemetry
                    // delta codec, causally merge them back, and audit
                    // paper units over the merged timeline.
                    let events = ring.events();
                    let mut shipped = Vec::new();
                    for (monitor, stream) in split_by_monitor(&events) {
                        let body = encode_delta(monitor, &NetStats::default(), &stream);
                        match decode_delta(&body) {
                            Ok(delta) if delta.events == stream => {
                                shipped.push((monitor, delta.events));
                            }
                            other => diverge(
                                "audit:codec",
                                DivergenceKind::Codec,
                                format!(
                                    "monitor {monitor}'s {} events came back as {:?}",
                                    stream.len(),
                                    other.map(|d| d.events.len())
                                ),
                            ),
                        }
                    }
                    let borrowed: Vec<(u32, &[StampedEvent])> =
                        shipped.iter().map(|(m, s)| (*m, s.as_slice())).collect();
                    let merged = merge_streams(&borrowed);
                    let limits = if opts.sabotage_bounds {
                        BoundLimits::sabotaged()
                    } else {
                        BoundLimits::exact()
                    };
                    let m1 = computation.max_events_per_process() as u64 + 1;
                    let audit = audit_bounds(wcp.n(), m1, &merged, &limits);
                    if !audit.ok() {
                        diverge(
                            "audit:bounds",
                            DivergenceKind::Bounds,
                            audit.violations.join("; "),
                        );
                    }
                }
            }
            Err(p) => diverge("audit:vc-token", DivergenceKind::Crash, p),
        }
    }

    // ---- multi-tenant session engine ------------------------------------
    // Serve `multi_predicates` predicates with diverse scopes over the
    // shared stream and cross-check **predicate by predicate**: each
    // verdict against the Theorem 3.2 oracle for *that* predicate, each
    // session's `DetectionMetrics` against a run of the same predicate
    // alone (the bit-identity claim of DESIGN.md S25), and each verdict
    // and `total_work` against the offline checker on the same scope. The
    // alone run is session code too; the checker runs the loop once over
    // full queues, so a drift in how routed rows reach the loop shows.
    {
        let n = computation.process_count().max(1);
        let k = case.multi_predicates.max(1);
        let predicates: Vec<Wcp> = (0..k)
            .map(|j| {
                let width = 1 + (j % n);
                Wcp::over((0..width).map(|i| ProcessId::new(((j * 3 + i) % n) as u32)))
            })
            .collect();
        let mut engine_clean = true;
        let serial_report =
            match guarded(|| run_multi_offline(computation, &predicates, &RunOptions::default())) {
                Ok(report) => {
                    for outcome in &report.outcomes {
                        let session_truth = annotated
                            .first_satisfying_cut(&outcome.wcp)
                            .map(|c| outcome.wcp.project(&c));
                        let got = match &outcome.verdict {
                            SessionVerdict::Detected(g) => Some(g.clone()),
                            SessionVerdict::Impossible => None,
                        };
                        if got != session_truth {
                            engine_clean = false;
                            diverge(
                                &format!("multi:engine#{}", outcome.id),
                                DivergenceKind::Verdict,
                                format!(
                                    "expected {}, got {}",
                                    fmt_proj(&session_truth),
                                    fmt_proj(&got)
                                ),
                            );
                            continue;
                        }
                        let (alone_verdict, alone_metrics) =
                            run_single_offline(computation, &outcome.wcp);
                        if outcome.verdict != alone_verdict {
                            engine_clean = false;
                            diverge(
                                &format!("multi:alone#{}", outcome.id),
                                DivergenceKind::Verdict,
                                format!("alone {alone_verdict}, multi {}", outcome.verdict),
                            );
                        } else if outcome.metrics != alone_metrics {
                            engine_clean = false;
                            diverge(
                                &format!("multi:alone#{}", outcome.id),
                                DivergenceKind::Metrics,
                                format!(
                                    "multi-tenant metrics diverged from the alone baseline: \
                                 alone {alone_metrics:?}, multi {:?}",
                                    outcome.metrics
                                ),
                            );
                        } else if let Some((kind, detail)) =
                            checker_twin(&annotated, &outcome.wcp, &got, &outcome.metrics)
                        {
                            engine_clean = false;
                            diverge(&format!("multi:checker#{}", outcome.id), kind, detail);
                        }
                    }
                    Some(report)
                }
                Err(p) => {
                    engine_clean = false;
                    diverge("multi:engine", DivergenceKind::Crash, p);
                    None
                }
            };
        // Parallel-pump leg: the same predicates fanned out by the
        // parallel pump, when the case drew `pump_parallel` (or
        // `--pump-parallel` forced it). The whole report — every verdict,
        // every `DetectionMetrics`, the engine counters — must be
        // bit-identical to the serial engine the offline leg just vetted.
        if engine_clean && (case.pump_parallel || opts.force_pump_parallel) {
            if let Some(serial) = &serial_report {
                let options = RunOptions {
                    pump_threads: PUMP_PARALLEL_WORKERS,
                    ..RunOptions::default()
                };
                match guarded(|| run_multi_offline(computation, &predicates, &options)) {
                    Ok(par) => {
                        if par.stats != serial.stats {
                            diverge(
                                "multi:pump-par",
                                DivergenceKind::Metrics,
                                format!(
                                    "parallel-pump engine counters diverged: serial {:?}, \
                                     parallel {:?}",
                                    serial.stats, par.stats
                                ),
                            );
                        }
                        for (p, s) in par.outcomes.iter().zip(&serial.outcomes) {
                            if p.verdict != s.verdict {
                                diverge(
                                    &format!("multi:pump-par#{}", s.id),
                                    DivergenceKind::Verdict,
                                    format!("serial {}, parallel {}", s.verdict, p.verdict),
                                );
                            } else if p.metrics != s.metrics {
                                diverge(
                                    &format!("multi:pump-par#{}", s.id),
                                    DivergenceKind::Metrics,
                                    "parallel-pump metrics diverged from the serial pump's"
                                        .to_string(),
                                );
                            }
                        }
                    }
                    Err(p) => diverge("multi:pump-par", DivergenceKind::Crash, p),
                }
            }
        }
        // Mid-stream registration leg, on every case: half the predicates
        // register only after half of every stream went through pumps, so
        // scope classes are built and replayed mid-stream. Every session
        // must match the serial engine, which the offline leg just pinned
        // to `run_single_offline` verdict and metrics.
        if engine_clean {
            if let Some(serial) = &serial_report {
                match guarded(|| registered_mid_stream(&annotated, &predicates)) {
                    Ok(reports) => {
                        for (got, want) in reports.iter().zip(&serial.outcomes) {
                            if got.verdict.as_ref() != Some(&want.verdict) {
                                diverge(
                                    &format!("multi:mid-stream#{}", want.id),
                                    DivergenceKind::Verdict,
                                    format!(
                                        "alone {}, registered mid-stream {:?}",
                                        want.verdict, got.verdict
                                    ),
                                );
                            } else if got.metrics != want.metrics {
                                diverge(
                                    &format!("multi:mid-stream#{}", want.id),
                                    DivergenceKind::Metrics,
                                    "mid-stream registration diverged from the alone baseline"
                                        .to_string(),
                                );
                            }
                        }
                    }
                    Err(p) => diverge("multi:mid-stream", DivergenceKind::Crash, p),
                }
            }
        }
        // Socket leg: the same predicates through loopback peers, when
        // the case drew net (or `--multi` forced it). Pins the wire
        // against the engine the offline leg just vetted.
        if engine_clean && ((case.net && opts.include_net) || opts.force_multi) {
            let mut config = NetConfig::loopback().with_deadline(NET_DEADLINE);
            if let Some(f) = &case.fault {
                config = config.with_faults(*f);
            }
            let service = Service::new(&predicates);
            match guarded(|| run_multi_net(computation, &service, config, &RunOptions::default())) {
                Ok(net) => {
                    for outcome in &net.report.outcomes {
                        let session_truth = annotated
                            .first_satisfying_cut(&outcome.wcp)
                            .map(|c| outcome.wcp.project(&c));
                        let got = match &outcome.verdict {
                            SessionVerdict::Detected(g) => Some(g.clone()),
                            SessionVerdict::Impossible => None,
                        };
                        if got != session_truth {
                            diverge(
                                &format!("multi:net#{}", outcome.id),
                                DivergenceKind::Verdict,
                                format!(
                                    "expected {}, got {}",
                                    fmt_proj(&session_truth),
                                    fmt_proj(&got)
                                ),
                            );
                        } else if net.report.wire_verdicts.get(&outcome.id)
                            != Some(&outcome.verdict.cut().map(<[u64]>::to_vec))
                        {
                            diverge(
                                &format!("multi:net#{}", outcome.id),
                                DivergenceKind::Verdict,
                                "controller saw a different verdict on the wire".to_string(),
                            );
                        } else {
                            let (_, alone_metrics) = run_single_offline(computation, &outcome.wcp);
                            if outcome.metrics != alone_metrics {
                                diverge(
                                    &format!("multi:net#{}", outcome.id),
                                    DivergenceKind::Metrics,
                                    "socket session metrics diverged from the alone baseline"
                                        .to_string(),
                                );
                            }
                        }
                    }
                }
                Err(p) => diverge("multi:net", DivergenceKind::Crash, p),
            }
        }
    }

    // ---- real-socket peers (optional, slow) ----------------------------
    // The same family values as the simulator leg, each hosting the
    // layout the simulator hosted, over loopback (`net:`) and in-process
    // TCP (`tcp:`), both under the case's fault schedule.
    if case.net && opts.include_net {
        for (substrate, base) in [("net", NetConfig::loopback()), ("tcp", NetConfig::tcp())] {
            let mut config = base.with_deadline(NET_DEADLINE);
            if let Some(f) = &case.fault {
                config = config.with_faults(*f);
            }
            for family in families {
                let label = format!("{substrate}:{}", label(family));
                let run =
                    guarded(|| run_net(family, computation, &wcp, config, &RunOptions::default()));
                match run {
                    Ok(net) => {
                        let got = net.report.detection.cut().map(|c| wcp.project(c));
                        if got != truth {
                            diverge(
                                &label,
                                DivergenceKind::Verdict,
                                format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                            );
                        }
                    }
                    Err(p) => diverge(&label, DivergenceKind::Crash, p),
                }
            }
        }
    }

    out
}

/// Where a session's verdict or `total_work` differs from the offline
/// checker's on the same scope, the difference.
fn checker_twin(
    annotated: &AnnotatedComputation<'_>,
    wcp: &Wcp,
    got: &Option<Vec<u64>>,
    metrics: &DetectionMetrics,
) -> Option<(DivergenceKind, String)> {
    let twin = CentralizedChecker::new().detect(annotated, wcp);
    let want = twin.detection.cut().map(|c| wcp.project(c));
    let (work, twin_work) = (metrics.total_work(), twin.metrics.total_work());
    let kind = if want != *got {
        DivergenceKind::Verdict
    } else if work != twin_work {
        DivergenceKind::Metrics
    } else {
        return None;
    };
    let detail = format!(
        "checker {} at {twin_work} work, session {} at {work}",
        fmt_proj(&want),
        fmt_proj(got)
    );
    Some((kind, detail))
}

/// A family's divergence label, without its group count.
fn label(family: Family) -> &'static str {
    match family {
        Family::VcToken => "vc-token",
        Family::MultiToken { .. } => "multi-token",
        Family::Checker => "checker",
        Family::Direct { parallel: false } => "direct",
        Family::Direct { parallel: true } => "direct+par",
    }
}

/// What a full streaming drive ended with.
struct StreamingOutcome {
    /// The detected projection, if any.
    detected: Option<Vec<u64>>,
    /// Whether the checker reached a terminal verdict (`Detected` or
    /// `Impossible`) rather than hanging in `Pending` after full close.
    settled: bool,
    /// A per-operation contract breach: `close()` on a position that never
    /// had (and never will have) a snapshot must report `Impossible` on
    /// that very call, not linger `Pending` until a later operation.
    contract_violation: Option<String>,
    /// The checker's work when the drive ended.
    work: u64,
}

/// Drives the [`StreamingChecker`] with the case's seeded interleave:
/// snapshots are pushed in a random cross-position merge (respecting each
/// position's queue order), and positions are closed in shuffled order as
/// their queues drain — closing early-dry positions first, which is
/// exactly the ordering that exposed the close-order bugs.
fn run_streaming(
    case: &FuzzCase,
    annotated: &AnnotatedComputation<'_>,
    wcp: &Wcp,
) -> StreamingOutcome {
    let queues = vc_snapshot_queues(annotated, wcp);
    let n = wcp.n();
    let mut rng = Rng::seed_from_u64(case.stream_seed);
    let mut checker = StreamingChecker::new(n);

    // Close order: positions with empty queues may close before any push.
    let mut close_order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut close_order);

    let mut next: Vec<usize> = vec![0; n];
    let mut closed = vec![false; n];
    let mut detected: Option<Vec<u64>> = None;
    let mut settled = false;
    let mut contract_violation: Option<String> = None;

    // Interleave: close a random pre-drained position a third of the time,
    // otherwise push the head snapshot of a random position with pending
    // snapshots. Track the first Detected verdict; Impossible is terminal.
    loop {
        let closable: Vec<usize> = close_order
            .iter()
            .copied()
            .filter(|&i| !closed[i] && next[i] == queues[i].len())
            .collect();
        let pushable: Vec<usize> = (0..n).filter(|&i| next[i] < queues[i].len()).collect();
        if pushable.is_empty() && closable.is_empty() {
            break;
        }
        let do_close = !closable.is_empty() && (pushable.is_empty() || rng.gen_bool(0.34));
        let status = if do_close {
            let pos = closable[rng.gen_range(0usize..closable.len())];
            closed[pos] = true;
            let status = checker.close(pos);
            if queues[pos].is_empty() && status == StreamingStatus::Pending {
                contract_violation.get_or_insert_with(|| {
                    format!(
                        "close({pos}) on a snapshot-less position returned Pending; \
                         Impossible must be reported immediately"
                    )
                });
            }
            status
        } else {
            let pos = pushable[rng.gen_range(0usize..pushable.len())];
            let snap = queues[pos][next[pos]].clone();
            next[pos] += 1;
            checker.push(pos, snap)
        };
        match status {
            StreamingStatus::Detected(cut) => {
                detected = Some(cut);
                settled = true;
                break;
            }
            StreamingStatus::AlreadyDetected | StreamingStatus::Impossible => {
                settled = true;
                break;
            }
            StreamingStatus::Pending => {}
        }
    }
    if detected.is_none() {
        if let Some(cut) = checker.detected() {
            detected = Some(cut.to_vec());
            settled = true;
        }
    }
    StreamingOutcome {
        detected,
        settled,
        contract_violation,
        work: checker.work(),
    }
}
