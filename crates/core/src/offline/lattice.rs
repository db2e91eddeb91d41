//! The Cooper–Marzullo lattice-search baseline (paper reference \[3\]).
//!
//! Detects *any* global predicate by enumerating the lattice of consistent
//! global states. For conjunctive predicates it is exponentially more
//! expensive than the paper's algorithms — which is exactly what experiment
//! E7's baseline column shows — but its total generality makes it the
//! independent ground truth of the test suite.

use std::fmt;
use std::sync::Arc;

use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::lattice::LatticeExplorer;
use wcp_trace::{AnnotatedComputation, ComputationError, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;

/// Lattice-search detector with a state budget.
#[derive(Clone)]
pub struct LatticeDetector {
    max_states: usize,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for LatticeDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatticeDetector")
            .field("max_states", &self.max_states)
            .finish_non_exhaustive()
    }
}

impl LatticeDetector {
    /// Detector with a default budget of one million global states.
    pub fn new() -> Self {
        LatticeDetector {
            max_states: 1_000_000,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Sets the exploration budget.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Default for LatticeDetector {
    fn default() -> Self {
        LatticeDetector::new()
    }
}

impl Detector for LatticeDetector {
    fn name(&self) -> &str {
        "lattice"
    }

    /// Runs breadth-first lattice search.
    ///
    /// # Panics
    ///
    /// Panics if the lattice exceeds the configured state budget — this
    /// detector is a test/benchmark baseline, not a production path, and a
    /// truncated search cannot soundly report `Undetected`.
    /// [`try_detect`](Detector::try_detect) reports it as an error.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        self.try_detect(annotated, wcp)
            .unwrap_or_else(|e| panic!("lattice baseline exceeded its budget: {e}"))
    }

    /// Walks the lattice by message closure (no vector clock), within the
    /// state budget.
    fn try_detect(
        &self,
        annotated: &AnnotatedComputation<'_>,
        wcp: &Wcp,
    ) -> Result<DetectionReport, ComputationError> {
        let computation = annotated.computation();
        let explorer = LatticeExplorer::new(computation);
        let mut meter = Meter::new(1, self.recorder.clone());
        // Count exactly the states BFS visits to answer: all states at
        // levels up to the detected cut, or the whole lattice if undetected.
        let (cut, visited) = explorer
            .first_satisfying_counted(wcp, self.max_states)
            .map_err(ComputationError::LatticeBudget)?;
        let detection = match cut {
            Some(cut) => Detection::Detected { cut },
            None => Detection::Undetected,
        };
        meter.lattice_visited(0, visited as u64);
        meter.work(0, visited as u64);
        match &detection {
            Detection::Detected { cut } => meter.found(0, &wcp.project(cut)),
            Detection::Undetected => meter.exhausted(0),
        }
        meter.finish_sequential();
        Ok(DetectionReport {
            detection,
            metrics: meter.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectDependenceDetector, TokenDetector};
    use wcp_trace::generate::{generate, GeneratorConfig};

    #[test]
    fn all_three_families_agree() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(4, 8)
                .with_seed(seed)
                .with_predicate_density(0.25);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(3);
            let lattice = LatticeDetector::new().detect(&a, &wcp);
            let token = TokenDetector::new().detect(&a, &wcp);
            let direct = DirectDependenceDetector::new().detect(&a, &wcp);
            assert_eq!(
                lattice.detection.is_detected(),
                token.detection.is_detected(),
                "seed {seed}"
            );
            if let (Some(l), Some(t), Some(d)) = (
                lattice.detection.cut(),
                token.detection.cut(),
                direct.detection.cut(),
            ) {
                assert_eq!(wcp.project(l), wcp.project(t), "seed {seed}");
                assert_eq!(wcp.project(l), wcp.project(d), "seed {seed}");
            }
        }
    }

    #[test]
    fn records_states_visited() {
        let g = generate(&GeneratorConfig::new(3, 4).with_seed(1));
        let a = g.computation.annotate();
        let r = LatticeDetector::new().detect(&a, &Wcp::over_first(3));
        assert!(r.metrics.lattice_states_visited >= 1);
        assert_eq!(r.metrics.total_work(), r.metrics.lattice_states_visited);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn panics_when_budget_exceeded() {
        let g = generate(
            &GeneratorConfig::new(5, 10)
                .with_seed(0)
                .with_send_fraction(1.0),
        );
        let a = g.computation.annotate();
        LatticeDetector::new()
            .with_max_states(10)
            .detect(&a, &Wcp::over_first(5));
    }
}
