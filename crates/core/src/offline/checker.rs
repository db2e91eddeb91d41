//! The centralized checker baseline (Garg & Waldecker, reference \[7\] of
//! the paper).
//!
//! Every application process sends its Figure 2 snapshots to a single
//! checker process, which repeatedly compares the heads of the `n` candidate
//! queues and eliminates any head that happened before another head — the
//! one [`Elimination`] loop, run here over a finished trace. The
//! paper's critique (Section 1): this concentrates `O(n²m)` time **and**
//! `O(n²m)` space on one process — the distributed algorithms exist to
//! spread that cost.

use std::fmt;
use std::sync::Arc;

use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::elimination::{Elimination, Heads};
use crate::meter::Meter;
use crate::snapshot::VcSnapshotQueues;
use crate::streaming::StreamingStatus;

/// Offline emulation of the centralized checker.
///
/// Implements [`Detector`]; metrics attribute all work to a single
/// participant (the checker), and `max_buffered_snapshots` counts every
/// snapshot of every process, reflecting the checker's central buffer.
#[derive(Clone)]
pub struct CentralizedChecker {
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for CentralizedChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CentralizedChecker").finish_non_exhaustive()
    }
}

impl Default for CentralizedChecker {
    fn default() -> Self {
        CentralizedChecker {
            recorder: Arc::new(NullRecorder),
        }
    }
}

impl CentralizedChecker {
    /// Creates the checker baseline.
    pub fn new() -> Self {
        CentralizedChecker::default()
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`. All events
    /// carry monitor 0 — the checker is the only participant.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Detector for CentralizedChecker {
    fn name(&self) -> &str {
        "checker"
    }

    /// Runs the checker to completion.
    ///
    /// # Panics
    ///
    /// Panics if the predicate scope is empty.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let n = wcp.n();
        assert!(n >= 1, "WCP scope must name at least one process");
        let queues = VcSnapshotQueues::build(annotated, wcp);

        // Metrics: one participant (the checker). Every snapshot is a
        // message to the checker, and all of them are buffered there — the
        // buffer depth only ever grows. Queues lie back to back in the
        // arena, so the depth before a queue is its first row.
        let mut meter = Meter::new(1, self.recorder.clone());
        let mut cursors = Vec::with_capacity(n);
        let mut depth = 0;
        for i in 0..n {
            cursors.push((depth, depth + queues.queue_len(i)));
            for pos in 0..queues.queue_len(i) {
                depth += 1;
                let bytes = queues.clock(i, pos).wire_size() as u64;
                meter.snapshot_buffered(0, depth as u64, bytes);
            }
        }

        // Each queue's first snapshot is its initial candidate, up to the
        // first empty queue.
        for i in (0..n).take_while(|&i| queues.queue_len(i) > 0) {
            meter.candidate_accepted(0, i, queues.interval(i, 0), 0);
        }

        // Every snapshot is already in hand: one run of the loop, every
        // queue closed up front.
        let mut elimination = Elimination::new(n);
        for i in 0..n {
            elimination.close(i);
        }
        let mut rows = Rows {
            clocks: queues.arena().as_flat_slice(),
            cursors,
            meter: &mut meter,
        };
        let status = elimination.run(&mut rows);
        meter.work(0, elimination.work());
        let detection = match status {
            StreamingStatus::Detected(g) => {
                meter.found(0, &g);
                Detection::Detected {
                    cut: wcp.lift(&g, annotated.process_count()),
                }
            }
            _ => {
                meter.exhausted(0);
                Detection::Undetected
            }
        };
        meter.finish_sequential();
        DetectionReport {
            detection,
            metrics: meter.metrics,
        }
    }
}

/// The checker's row source: the queues' flat clock rows and, per scope
/// position, its head's row and one past its queue's last row. Consuming a
/// head meters it as an eliminated candidate.
struct Rows<'a> {
    clocks: &'a [u64],
    cursors: Vec<(usize, usize)>,
    meter: &'a mut Meter,
}

impl Heads for Rows<'_> {
    type Row<'a>
        = &'a [u64]
    where
        Self: 'a;

    fn has_head(&self, i: usize) -> bool {
        self.cursors[i].0 < self.cursors[i].1
    }

    fn head(&self, j: usize) -> &[u64] {
        let n = self.cursors.len();
        let start = self.cursors[j].0 * n;
        &self.clocks[start..start + n]
    }

    fn pop(&mut self, i: usize) {
        let dead = self.head(i)[i];
        self.cursors[i].0 += 1;
        self.meter.candidate_eliminated(0, i, dead, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenDetector;
    use wcp_clocks::ProcessId;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn detects_trivial_initial_cut() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let r = CentralizedChecker::new().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(r.detection.cut().unwrap().as_slice(), &[1, 1]);
    }

    #[test]
    fn undetected_when_queue_empty() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let r = CentralizedChecker::new().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(r.detection, Detection::Undetected);
    }

    #[test]
    fn eliminates_ordered_heads() {
        // True at (0,1) and (1,2) with (0,1) → (1,2); then true again at
        // (0,2): cut ⟨2,2⟩.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.mark_true(p(0)); // (0,2)
        b.receive(p(1), m);
        b.mark_true(p(1)); // (1,2)
        let c = b.build().unwrap();
        let r = CentralizedChecker::new().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(r.detection.cut().unwrap().as_slice(), &[2, 2]);
        assert_eq!(r.metrics.candidates_consumed, 3);
    }

    #[test]
    fn agrees_with_token_detector_on_random_runs() {
        for seed in 0..40 {
            let cfg = GeneratorConfig::new(6, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(5);
            let checker = CentralizedChecker::new().detect(&a, &wcp);
            let token = TokenDetector::new().detect(&a, &wcp);
            assert_eq!(checker.detection, token.detection, "seed {seed}");
        }
    }

    #[test]
    fn all_work_is_on_the_checker() {
        let cfg = GeneratorConfig::new(4, 10).with_seed(2).with_plant(0.7);
        let g = generate(&cfg);
        let r = CentralizedChecker::new().detect(&g.computation.annotate(), &Wcp::over_first(4));
        assert_eq!(r.metrics.per_process_work.len(), 1);
        assert_eq!(r.metrics.total_work(), r.metrics.max_process_work());
        assert_eq!(r.metrics.token_hops, 0);
        // The checker buffers *all* snapshots.
        assert_eq!(
            r.metrics.max_buffered_snapshots,
            r.metrics.snapshot_messages
        );
    }
}
