//! Work-optimal round-parallel detection (Garg, *Fast and Work-Optimal
//! Parallel Algorithms for Predicate Detection*, arXiv:2008.12516).
//!
//! The single-token algorithm walks the candidate queues one elimination
//! at a time, paying `O(n)` per consumed candidate (Figure 3's `for` loop).
//! This detector restructures the same elimination rule into synchronous
//! rounds over a shared knowledge vector `M`:
//!
//! - `M[i]` is the most any **other** position's ever-selected candidate
//!   knows about scope position `i` — the running componentwise max of
//!   `row[i]` over every accepted candidate row of positions `j ≠ i`.
//!   Clocks are componentwise monotone along a process line, so knowledge
//!   from superseded candidates never has to be retracted: `M` only grows.
//! - A round sweeps every *dirty* position (one whose `M[i]` grew) against
//!   the **frozen** `M` of the previous round: candidate `(i, k)` is
//!   refuted iff `M[i] ≥ k` — one scalar compare, not an `n`-vector scan —
//!   and the position consumes its queue until a candidate survives.
//! - Newly selected candidates then merge their clocks into `M`
//!   (`O(n)` once per accepted candidate), marking the raised components
//!   dirty for the next round. A round with nothing dirty is the fixed
//!   point: every pair of selected candidates is mutually unknown, i.e.
//!   pairwise concurrent — the paper's all-green detection condition.
//!
//! Total work is `O(1)` per eliminated candidate plus `O(n)` per accepted
//! one — `O(nm + n·a)` for `a` acceptances instead of the token walk's
//! `O(n)` on every elimination — and the sweeps within a round are data
//! independent, so they partition across the persistent
//! [`wcp_clocks::par`] worker pool: a round costs one dispatch to parked
//! threads, never a thread spawn. Rounds with fewer than `SWEEP_GRAIN`
//! dirty positions per worker run on the calling thread.
//!
//! # Bit-identity at every thread count
//!
//! A sweep is a pure function of (frozen `M`, the position's queue and
//! head), so worker assignment cannot change its outcome — the same trick
//! as the session pump's `deliver_part`. Workers only *compute* sweep
//! records; all metering and state mutation happens on the calling thread
//! in (round, position) order. `Detection`, `DetectionMetrics` **and the
//! recorded event stream** are therefore identical at every thread count,
//! and `replay_metrics` reconstructs the metrics exactly (the fuzz battery
//! checks this on every case).

use std::fmt;
use std::sync::Arc;

use wcp_clocks::{par, strided_map};
use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;
use crate::snapshot::VcSnapshotQueues;

/// Dirty positions each worker must get before a round is split across
/// the pool (the [`par::width`] cutoff). A sweep costs tens of ns, while a
/// 2-unit pool dispatch measured about 2 µs with the worker spinning
/// between rounds and 3 µs with it parked (2-vCPU x86-64 VM), so rounds
/// below this many positions per worker run faster on the calling thread.
const SWEEP_GRAIN: usize = 64;

/// Outcome of sweeping one dirty position in one round — everything the
/// calling thread needs to meter and commit the position's progress.
struct Sweep {
    /// Scope position swept.
    pos: usize,
    /// Previously selected interval this round's knowledge refuted, if any
    /// (timeline event only: it was counted as consumed at acceptance).
    invalidated: Option<u64>,
    /// Intervals consumed and refuted, in queue order.
    eliminated: Vec<u64>,
    /// Newly selected candidate: `(interval, arena row id)`.
    accepted: Option<(u64, usize)>,
    /// Queue index of the next unconsumed candidate after the sweep.
    new_head: usize,
    /// The queue ran dry while the position was still refuted.
    exhausted: bool,
}

impl Sweep {
    /// Paper-unit cost of the sweep: one threshold test, one unit per
    /// refuted candidate, and an `n`-vector merge if one was accepted.
    fn work(&self, n: usize) -> u64 {
        1 + self.eliminated.len() as u64 + if self.accepted.is_some() { n as u64 } else { 0 }
    }
}

/// Sweeps `pos` against the frozen knowledge `threshold = M[pos]`: refutes
/// the selected candidate if dominated, then consumes the queue until a
/// candidate survives. Pure — this is the part workers run concurrently.
fn sweep_position(
    queues: &VcSnapshotQueues,
    pos: usize,
    head: usize,
    selected: u64,
    threshold: u64,
) -> Sweep {
    let mut sweep = Sweep {
        pos,
        invalidated: None,
        eliminated: Vec::new(),
        accepted: None,
        new_head: head,
        exhausted: false,
    };
    if selected > 0 {
        if threshold < selected {
            // Still unrefuted: the raised knowledge stops short of the
            // selected interval.
            return sweep;
        }
        sweep.invalidated = Some(selected);
    }
    let len = queues.queue_len(pos);
    let mut h = head;
    loop {
        if h >= len {
            sweep.exhausted = true;
            break;
        }
        let interval = queues.interval(pos, h);
        h += 1;
        if interval > threshold {
            sweep.accepted = Some((interval, queues.row_id(pos, h - 1)));
            break;
        }
        sweep.eliminated.push(interval);
    }
    sweep.new_head = h;
    sweep
}

/// The work-optimal round-parallel detector (see the [module docs](self)).
///
/// `threads = 1` (the default) runs the identical round routine on the
/// calling thread; higher counts partition each round's dirty positions
/// across the persistent worker pool. The verdict, metrics and event
/// stream are bit-identical at every thread count.
#[derive(Clone)]
pub struct ParallelDetector {
    threads: usize,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for ParallelDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelDetector")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ParallelDetector {
    /// Detector running its rounds on the calling thread (`threads = 1`).
    pub fn new() -> Self {
        ParallelDetector {
            threads: 1,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Partitions each round across up to `threads` units on the worker
    /// pool (at most the pool's thread count run at once).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`. Monitor
    /// ids are scope positions.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Default for ParallelDetector {
    fn default() -> Self {
        ParallelDetector::new()
    }
}

impl Detector for ParallelDetector {
    fn name(&self) -> &str {
        "parallel"
    }

    /// Runs the round-parallel elimination to its fixed point.
    ///
    /// # Panics
    ///
    /// Panics if the predicate scope is empty.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let n = wcp.n();
        assert!(n >= 1, "WCP scope must name at least one process");
        // Shared with the pool's workers, which outlive this call's frame.
        let queues = Arc::new(VcSnapshotQueues::build(annotated, wcp));

        let mut meter = Meter::new(n, self.recorder.clone());
        for i in 0..n {
            for pos in 0..queues.queue_len(i) {
                meter.snapshot_buffered(i, pos as u64 + 1, queues.clock(i, pos).wire_size() as u64);
            }
        }

        let mut heads = vec![0usize; n]; // next unconsumed queue index
        let mut selected = vec![0u64; n]; // selected interval (0 = none yet)
        let mut m = vec![0u64; n]; // others' knowledge about each position
        let mut dirty: Vec<usize> = (0..n).collect();

        while !dirty.is_empty() {
            // ---- Phase A: sweep dirty positions against frozen M. -------
            // Sweeps are pure, so the worker partition cannot change them,
            // and `strided_map` returns them in dirty (= position) order.
            // Each sweep's inputs travel by value: (position, head,
            // selected interval, frozen threshold).
            let probes: Arc<[(usize, usize, u64, u64)]> = dirty
                .iter()
                .map(|&pos| (pos, heads[pos], selected[pos], m[pos]))
                .collect();
            let workers = par::width(self.threads, probes.len(), SWEEP_GRAIN);
            let sweeps: Vec<Sweep> = {
                let queues = Arc::clone(&queues);
                strided_map(workers, probes.len(), move |k| {
                    let (pos, head, sel, threshold) = probes[k];
                    sweep_position(&queues, pos, head, sel, threshold)
                })
            };

            // ---- Commit: meter and mutate in position order. ------------
            let mut round_max = 0u64;
            let mut lead = sweeps[0].pos;
            for s in &sweeps {
                if s.work(n) > round_max {
                    round_max = s.work(n);
                    lead = s.pos;
                }
                if let Some(old) = s.invalidated {
                    meter.candidate_invalidated(s.pos, s.pos, old);
                }
                meter.work(s.pos, 1);
                for &interval in &s.eliminated {
                    meter.candidate_eliminated(s.pos, s.pos, interval, 1);
                }
                if let Some((interval, _)) = s.accepted {
                    meter.candidate_accepted(s.pos, s.pos, interval, n as u64);
                    selected[s.pos] = interval;
                }
                heads[s.pos] = s.new_head;
                if s.exhausted {
                    // Account for the partial round before aborting; later
                    // positions' sweeps are discarded uncommitted, exactly
                    // as a serial emulation would never have started them.
                    meter.parallel_advance(s.pos, round_max);
                    meter.exhausted(s.pos);
                    return DetectionReport {
                        detection: Detection::Undetected,
                        metrics: meter.metrics,
                    };
                }
            }
            // Sweeps ran concurrently: the round's critical path is the
            // costliest position.
            meter.parallel_advance(lead, round_max);

            // ---- Phase B: merge accepted knowledge, mark dirty. ---------
            // Componentwise max is order independent, so merging in
            // position order here equals any per-component parallel merge.
            let mut raised = vec![false; n];
            for s in &sweeps {
                if let Some((_, row_id)) = s.accepted {
                    let row = queues.arena().row(row_id);
                    for j in 0..n {
                        if j != s.pos && row[j] > m[j] {
                            m[j] = row[j];
                            raised[j] = true;
                        }
                    }
                }
            }
            dirty = (0..n).filter(|&j| raised[j]).collect();
        }

        // Fixed point: nobody's knowledge reaches anybody's selected
        // interval, so the selected candidates are pairwise concurrent.
        meter.found(0, &selected);
        DetectionReport {
            detection: Detection::Detected {
                cut: wcp.lift(&selected, annotated.process_count()),
            },
            metrics: meter.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_metrics, TokenDetector};
    use wcp_clocks::ProcessId;
    use wcp_obs::RingRecorder;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn detects_concurrent_true_states() {
        let mut b = ComputationBuilder::new(2);
        let msg = b.send(p(0), p(1));
        b.mark_true(p(0));
        b.receive(p(1), msg);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let report = ParallelDetector::new().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(report.detection.cut().unwrap().as_slice(), &[2, 2]);
    }

    #[test]
    fn agrees_with_token_and_ground_truth_on_random_runs() {
        for seed in 0..40 {
            let cfg = GeneratorConfig::new(5, 12)
                .with_seed(seed)
                .with_predicate_density(0.25);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(4);
            let expected = a.first_satisfying_cut(&wcp);
            let token = TokenDetector::new().detect(&a, &wcp);
            let par = ParallelDetector::new().detect(&a, &wcp);
            assert_eq!(par.detection.cut().cloned(), expected, "seed {seed}");
            assert_eq!(par.detection, token.detection, "seed {seed}");
        }
    }

    #[test]
    fn every_thread_count_is_bit_identical() {
        for seed in 0..20 {
            let cfg = GeneratorConfig::new(8, 15)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(8);
            let ring1 = Arc::new(RingRecorder::new(1 << 14));
            let reference = ParallelDetector::new()
                .with_recorder(ring1.clone())
                .detect(&a, &wcp);
            for threads in [2usize, 4, 8] {
                let ring = Arc::new(RingRecorder::new(1 << 14));
                let r = ParallelDetector::new()
                    .with_threads(threads)
                    .with_recorder(ring.clone())
                    .detect(&a, &wcp);
                assert_eq!(r.detection, reference.detection, "seed {seed} t{threads}");
                assert_eq!(r.metrics, reference.metrics, "seed {seed} t{threads}");
                assert_eq!(
                    ring.events(),
                    ring1.events(),
                    "seed {seed} t{threads}: event streams differ"
                );
            }
        }
    }

    #[test]
    fn replay_reconstructs_metrics_exactly() {
        for threads in [1usize, 4] {
            let g = generate(
                &GeneratorConfig::new(6, 12)
                    .with_seed(5)
                    .with_predicate_density(0.3),
            );
            let a = g.computation.annotate();
            let ring = Arc::new(RingRecorder::new(1 << 14));
            let report = ParallelDetector::new()
                .with_threads(threads)
                .with_recorder(ring.clone())
                .detect(&a, &Wcp::over_first(6));
            assert_eq!(ring.dropped(), 0);
            let replayed = replay_metrics(report.metrics.per_process_work.len(), &ring.events());
            assert_eq!(replayed, report.metrics, "threads {threads}");
        }
    }

    #[test]
    fn single_process_scope() {
        let mut b = ComputationBuilder::new(1);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let report = ParallelDetector::new().detect(&c.annotate(), &Wcp::over_first(1));
        assert_eq!(report.detection.cut().unwrap().as_slice(), &[1]);
    }

    #[test]
    fn undetected_when_one_predicate_never_true() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        for threads in [1usize, 2, 8] {
            let report = ParallelDetector::new()
                .with_threads(threads)
                .detect(&c.annotate(), &Wcp::over_first(2));
            assert_eq!(report.detection, Detection::Undetected, "threads {threads}");
        }
    }

    #[test]
    fn undetected_when_only_ordered_true_states() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let msg = b.send(p(0), p(1));
        b.receive(p(1), msg);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let report = ParallelDetector::new().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(report.detection, Detection::Undetected);
        assert_eq!(report.metrics.snapshot_messages, 2);
    }

    #[test]
    fn work_is_cheaper_than_token_on_elimination_heavy_runs() {
        // Dense queues with a late planted cut: the token pays n per
        // consumed candidate, the round sweep pays 1.
        let cfg = GeneratorConfig::new(8, 40)
            .with_seed(9)
            .with_predicate_density(0.6)
            .with_plant(0.9);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_first(8);
        let token = TokenDetector::new().detect(&a, &wcp);
        let par = ParallelDetector::new().detect(&a, &wcp);
        assert_eq!(par.detection, token.detection);
        assert!(
            par.metrics.total_work() < token.metrics.total_work(),
            "parallel {} !< token {}",
            par.metrics.total_work(),
            token.metrics.total_work()
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ParallelDetector::new().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_scope_panics() {
        let c = ComputationBuilder::new(1).build().unwrap();
        let a = c.annotate();
        ParallelDetector::new().detect(&a, &Wcp::over([]));
    }
}
