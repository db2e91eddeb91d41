//! The direct-dependence algorithm (paper Section 4, Figures 4–5, Table 1).
//!
//! No vector clocks: application processes tag messages with a scalar
//! counter and record *direct dependences* `(sender, clock)` for each
//! receive. The token is empty — the candidate cut and colours are
//! distributed across the monitors (`token.G[i] ↔ M_i.G`,
//! `token.color[i] ↔ M_i.color`; Table 1), and red monitors are linked into
//! a **red chain** headed by the token holder. A monitor holding the token
//! consumes candidates until one exceeds its `G`, then *polls* the source of
//! every collected dependence; a poll that turns its target red splices the
//! target into the chain. An empty chain means detection.
//!
//! All `N` processes participate (Lemma 4.1 requires the cut to span every
//! process); total work, messages and space are `O(Nm)` with `O(m)` per
//! process.
//!
//! Figure 4's repeat-until and Figure 5's transition are the ones the
//! online monitors run (`crate::visit`); this emulation keeps the
//! synchronous poll loop, the chain splice and the Lemma 4.2 checks.
//!
//! Note on Figure 4: the pseudocode omits the assignment `G := candidate.clock`
//! after the repeat-until loop, but the correctness argument (Lemma 4.2) and
//! Table 1 both require `M_i.G` to hold the clock of the current candidate;
//! we perform the assignment. See DESIGN.md §3.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use wcp_clocks::{Cut, ProcessId, StateId};
use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, ComputationError, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;
use crate::offline::token::Color;
use crate::online::messages::{DD_TOKEN_BYTES, POLL_BYTES, REPLY_BYTES};
use crate::snapshot::dd_snapshot_queues;
use crate::visit::{collect, poll, Visit};

/// Offline emulation of the Figures 4–5 monitor protocol.
#[derive(Clone)]
pub struct DirectDependenceDetector {
    check_invariants: bool,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for DirectDependenceDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirectDependenceDetector")
            .field("check_invariants", &self.check_invariants)
            .finish_non_exhaustive()
    }
}

impl DirectDependenceDetector {
    /// Creates the detector. The token starts at process 0 with the red
    /// chain `P0 → P1 → … → P(N−1)`.
    pub fn new() -> Self {
        DirectDependenceDetector {
            check_invariants: false,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Verifies Lemma 4.2 (parts 1–3) after every token visit. Used by the
    /// test suite; expensive.
    pub fn with_invariant_checks(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`. Monitor
    /// ids are process indices; token movement shows up as
    /// [`wcp_obs::TraceEvent::RedChainHop`]s.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Default for DirectDependenceDetector {
    fn default() -> Self {
        DirectDependenceDetector::new()
    }
}

impl Detector for DirectDependenceDetector {
    fn name(&self) -> &str {
        "direct"
    }

    /// Reads dependences only: no vector clock.
    fn try_detect(
        &self,
        annotated: &AnnotatedComputation<'_>,
        wcp: &Wcp,
    ) -> Result<DetectionReport, ComputationError> {
        Ok(self.detect(annotated, wcp))
    }

    /// Runs the direct-dependence protocol to completion.
    ///
    /// # Panics
    ///
    /// Panics if the computation has no processes.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let n = annotated.process_count();
        assert!(n >= 1, "computation must have at least one process");
        let queues = dd_snapshot_queues(annotated, wcp);

        let mut meter = Meter::new(n, self.recorder.clone());
        for (i, q) in queues.iter().enumerate() {
            for (pos, s) in q.iter().enumerate() {
                meter.snapshot_buffered(i, pos as u64 + 1, s.wire_size() as u64);
            }
        }
        let mut queues: Vec<VecDeque<_>> = queues.into_iter().map(VecDeque::from).collect();

        // Distributed token state (Table 1): per-monitor G and colour, plus
        // the red-chain pointers. Initially every monitor is red and the
        // chain is P0 → P1 → … → P(N−1) → ⊥, token at P0.
        let mut g = vec![0u64; n];
        let mut color = vec![Color::Red; n];
        let mut next_red: Vec<Option<usize>> =
            (0..n).map(|i| (i + 1 < n).then_some(i + 1)).collect();
        let mut holder = 0usize;
        let mut deplist = Vec::new();
        meter.token_acquired(holder, None);

        loop {
            debug_assert_eq!(color[holder], Color::Red, "token held by a green monitor");
            // Figure 4 repeat-until: collect dependences until a candidate
            // survives the (possibly poll-advanced) G.
            deplist.clear();
            let Visit::Accepted(clock) = collect(
                holder,
                g[holder],
                &mut queues[holder],
                true,
                &mut deplist,
                &mut meter,
            ) else {
                meter.exhausted(holder);
                meter.finish_sequential();
                return DetectionReport {
                    detection: Detection::Undetected,
                    metrics: meter.metrics,
                };
            };
            g[holder] = clock;
            color[holder] = Color::Green;

            // Poll the source of every dependence, splicing newly-red
            // monitors into the chain after the holder.
            for dep in &deplist {
                let target = dep.on.index();
                debug_assert_ne!(target, holder, "self-dependence is impossible");
                meter.poll_sent(holder, target, POLL_BYTES);
                meter.work(holder, 1);

                // Figure 5 at the target.
                let was = poll(&mut g[target], &mut color[target], dep.clock);
                meter.poll_answered(target, holder, color[target] == Color::Red, REPLY_BYTES);
                meter.work(target, 1);
                if was == Some(Color::Green) {
                    // The target became red: it adopts the holder's chain
                    // tail, and the holder points at the target.
                    meter.candidate_invalidated(holder, target, g[target]);
                    next_red[target] = next_red[holder];
                    next_red[holder] = Some(target);
                }
            }

            if self.check_invariants {
                check_lemma_4_2(annotated, &g, &color, &next_red, next_red[holder]);
            }

            match next_red[holder] {
                None => {
                    let cut = Cut::from_indices(g);
                    meter.found(holder, cut.as_slice());
                    meter.finish_sequential();
                    return DetectionReport {
                        detection: Detection::Detected { cut },
                        metrics: meter.metrics,
                    };
                }
                Some(next) => {
                    meter.red_chain_hop(holder, next, DD_TOKEN_BYTES);
                    holder = next;
                }
            }
        }
    }
}

/// `(i, k) →_d (j, l)`: same process and earlier, or a single message sent
/// at or after state `k` on `i` is received before state `l` on `j`.
fn directly_precedes(annotated: &AnnotatedComputation<'_>, a: StateId, b: StateId) -> bool {
    if a.process == b.process {
        return a.index < b.index;
    }
    // Scan the dependences recorded on b's process up to state b.
    (2..=b.index).any(|l| {
        annotated
            .dependence_at(StateId::new(b.process, l))
            .is_some_and(|d| d.on == a.process && d.clock >= a.index)
    })
}

/// Asserts Lemma 4.2 of the paper on the distributed state.
fn check_lemma_4_2(
    annotated: &AnnotatedComputation<'_>,
    g: &[u64],
    color: &[Color],
    next_red: &[Option<usize>],
    chain_head: Option<usize>,
) {
    let n = g.len();
    let state = |i: usize| StateId::new(ProcessId::new(i as u32), g[i]);
    for i in 0..n {
        if color[i] == Color::Red && g[i] != 0 {
            // Part 1: a red state directly precedes some selected state.
            let witnessed = (0..n)
                .any(|j| j != i && g[j] > 0 && directly_precedes(annotated, state(i), state(j)));
            assert!(
                witnessed,
                "Lemma 4.2(1) violated: red {} directly precedes nothing",
                state(i)
            );
        }
    }
    // Part 2: greens are pairwise →_d-incomparable.
    for i in 0..n {
        for j in 0..n {
            if i != j && color[i] == Color::Green && color[j] == Color::Green {
                assert!(
                    !directly_precedes(annotated, state(i), state(j)),
                    "Lemma 4.2(2) violated: green {} →_d green {}",
                    state(i),
                    state(j)
                );
            }
        }
    }
    // Part 3: red ⟺ on the red chain.
    let mut on_chain = vec![false; n];
    let mut cursor = chain_head;
    let mut steps = 0;
    while let Some(i) = cursor {
        assert!(!on_chain[i], "red chain has a cycle at P{i}");
        on_chain[i] = true;
        cursor = next_red[i];
        steps += 1;
        assert!(steps <= n, "red chain longer than N");
    }
    for i in 0..n {
        assert_eq!(
            on_chain[i],
            color[i] == Color::Red,
            "Lemma 4.2(3) violated at P{i}"
        );
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

    fn detector() -> DirectDependenceDetector {
        DirectDependenceDetector::new().with_invariant_checks()
    }

    #[test]
    fn detects_trivial_cut_single_process() {
        let mut b = ComputationBuilder::new(1);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let r = detector().detect(&c.annotate(), &Wcp::over_first(1));
        assert_eq!(r.detection.cut().unwrap().as_slice(), &[1]);
    }

    #[test]
    fn detects_concurrent_true_states_full_cut() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0)); // (0,2)
        b.receive(p(1), m);
        b.mark_true(p(1)); // (1,2)
        let c = b.build().unwrap();
        let r = detector().detect(&c.annotate(), &Wcp::over_first(2));
        let cut = r.detection.cut().unwrap();
        assert!(cut.is_complete());
        assert_eq!(cut.as_slice(), &[2, 2]);
    }

    #[test]
    fn undetected_when_ordered() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let r = detector().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(r.detection, Detection::Undetected);
    }

    #[test]
    fn scope_projection_agrees_with_token_detector() {
        for seed in 0..40 {
            let cfg = GeneratorConfig::new(6, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            for scope_n in [2usize, 4, 6] {
                let wcp = Wcp::over_first(scope_n);
                let dd = detector().detect(&a, &wcp);
                let vc = TokenDetector::new().detect(&a, &wcp);
                assert_eq!(
                    dd.detection.is_detected(),
                    vc.detection.is_detected(),
                    "seed {seed} n {scope_n}"
                );
                if let (Some(dc), Some(vc_cut)) = (dd.detection.cut(), vc.detection.cut()) {
                    assert_eq!(
                        wcp.project(dc),
                        wcp.project(vc_cut),
                        "seed {seed} n {scope_n}"
                    );
                }
            }
        }
    }

    #[test]
    fn detected_full_cut_is_consistent_ground_truth() {
        for seed in 0..20 {
            let cfg = GeneratorConfig::new(5, 12)
                .with_seed(seed)
                .with_predicate_density(0.0)
                .with_plant(0.5);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_all(&g.computation);
            let r = detector().detect(&a, &wcp);
            let expected = a.first_satisfying_full_cut(&wcp);
            assert_eq!(r.detection.cut().cloned(), expected, "seed {seed}");
            assert!(a.is_consistent(r.detection.cut().unwrap()));
        }
    }

    #[test]
    fn message_bounds_of_section_4_4() {
        // Polls+replies ≤ 2·(deps) ≤ 2mN, token hops ≤ mN (per §4.4 units:
        // candidates are bounded by snapshots, deps by receives).
        let cfg = GeneratorConfig::new(6, 20)
            .with_seed(9)
            .with_predicate_density(0.4)
            .with_plant(0.8);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let r = detector().detect(&a, &Wcp::over_first(3));
        let m = g.computation.max_events_per_process() as u64;
        let n_total = g.computation.process_count() as u64;
        assert!(r.metrics.control_messages <= 3 * m * n_total);
        assert!(r.metrics.token_hops <= m * n_total);
        assert!(r.metrics.snapshot_messages <= (m + 1) * n_total);
    }

    #[test]
    fn per_process_work_is_bounded_by_own_events() {
        // §4.4: O(m) work per process — work scales with own snapshots +
        // own dependences + polls received, all O(m).
        let cfg = GeneratorConfig::new(5, 30)
            .with_seed(4)
            .with_predicate_density(0.5)
            .with_plant(0.9);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let r = detector().detect(&a, &Wcp::over_all(&g.computation));
        let m = g.computation.max_events_per_process() as u64;
        for (i, &w) in r.metrics.per_process_work.iter().enumerate() {
            // own candidates (≤ m+1) + own deps (≤ m) + polls sent (≤ m)
            // + polls received (≤ N·m... but each poll corresponds to one
            // dependence recorded anywhere targeting i; bounded by i's sends ≤ m)
            assert!(w <= 4 * (m + 1), "P{i} work {w} exceeds O(m) bound");
        }
    }
}
