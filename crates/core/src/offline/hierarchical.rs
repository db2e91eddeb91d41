//! The hierarchical (grouped) checker the paper's introduction criticizes.
//!
//! Garg & Waldecker's decentralization \[7\], as summarized in Section 1:
//! processes are divided into groups; each **group checker** computes the
//! set of all candidate combinations that are consistent *within* its
//! group and ships that set to an **overall checker**, which searches for
//! a selection (one combination per group) that is consistent *across*
//! groups.
//!
//! > "This technique suffers from the disadvantage that the group checker
//! > process may have to send an exponential number (exponential in the
//! > number of processes in the group) of global states to the overall
//! > checker process. The algorithm presented in this paper avoids this
//! > problem."
//!
//! This module implements that flawed design faithfully so the blow-up can
//! be measured (experiment E13): with highly concurrent workloads a group
//! of `k` processes with `c` candidates each ships up to `cᵏ` states. The
//! detected cut still matches every other detector (satisfying cuts are
//! meet-closed, and the minimum's group projections are necessarily in the
//! shipped sets) — the *answer* is right; the *cost* is the problem.

use std::fmt;
use std::sync::Arc;

use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;
use crate::snapshot::VcSnapshotQueues;

/// `(a, ka) → (b, kb)` for scope positions `a ≠ b`, on arena rows: `b`'s
/// clock knows `a`'s interval `ka` (the row keeps exactly the scope
/// components, so the projection loses nothing the check needs).
fn row_happened_before(
    queues: &VcSnapshotQueues,
    a: usize,
    ia: usize,
    b: usize,
    ib: usize,
) -> bool {
    queues.clock(b, ib)[a] >= queues.interval(a, ia)
}

/// `(a, ka) ‖ (b, kb)` for scope positions `a ≠ b`, on arena rows.
fn row_concurrent(queues: &VcSnapshotQueues, a: usize, ia: usize, b: usize, ib: usize) -> bool {
    !row_happened_before(queues, a, ia, b, ib) && !row_happened_before(queues, b, ib, a, ia)
}

/// The Section 1 hierarchical checker baseline.
#[derive(Clone)]
pub struct HierarchicalChecker {
    groups: usize,
    /// Safety valve on enumerated states (the whole point is that this
    /// number explodes).
    max_states: usize,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for HierarchicalChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HierarchicalChecker")
            .field("groups", &self.groups)
            .field("max_states", &self.max_states)
            .finish_non_exhaustive()
    }
}

impl HierarchicalChecker {
    /// Checker with `groups` group checkers (clamped to `1..=n`) and a
    /// one-million-state enumeration budget.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0`.
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 1, "need at least one group");
        HierarchicalChecker {
            groups,
            max_states: 1_000_000,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Sets the enumeration budget.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`. Monitor
    /// ids are group indices; the overall checker is monitor `groups`.
    /// State-set shipping appears as batched
    /// [`wcp_obs::TraceEvent::ControlSent`] events.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Enumerates every pairwise-concurrent candidate tuple of one group.
    ///
    /// Each tuple is the group projection of some potential global cut;
    /// this is exactly what the group checker ships to the overall checker.
    /// Tuples carry queue positions into the shared snapshot arena (the
    /// wire representation stays one interval — 8 bytes — per entry).
    fn group_tuples(
        &self,
        queues: &VcSnapshotQueues,
        members: &[usize],
        budget: &mut usize,
    ) -> Option<Vec<Vec<usize>>> {
        let mut tuples = Vec::new();
        let mut current: Vec<usize> = Vec::with_capacity(members.len());
        // DFS over the candidate product with pairwise-concurrency pruning.
        fn dfs(
            queues: &VcSnapshotQueues,
            members: &[usize],
            depth: usize,
            current: &mut Vec<usize>,
            tuples: &mut Vec<Vec<usize>>,
            budget: &mut usize,
        ) -> bool {
            if depth == members.len() {
                if *budget == 0 {
                    return false;
                }
                *budget -= 1;
                tuples.push(current.clone());
                return true;
            }
            let m = members[depth];
            for i in 0..queues.queue_len(m) {
                let compatible =
                    (0..depth).all(|d| row_concurrent(queues, members[d], current[d], m, i));
                if compatible {
                    current.push(i);
                    let ok = dfs(queues, members, depth + 1, current, tuples, budget);
                    current.pop();
                    if !ok {
                        return false;
                    }
                }
            }
            true
        }
        if dfs(queues, members, 0, &mut current, &mut tuples, budget) {
            Some(tuples)
        } else {
            None
        }
    }
}

impl Detector for HierarchicalChecker {
    fn name(&self) -> &str {
        "hierarchical"
    }

    /// Runs the grouped enumeration and the overall cross-group search.
    ///
    /// # Panics
    ///
    /// Panics if the scope is empty or the enumeration budget is exceeded
    /// (this detector is a baseline for measuring the blow-up, so a silent
    /// truncation would falsify the experiment).
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let n = wcp.n();
        assert!(n >= 1, "WCP scope must name at least one process");
        let g_count = self.groups.min(n);
        let group_of = |i: usize| i * g_count / n;
        let members: Vec<Vec<usize>> = (0..g_count)
            .map(|gi| (0..n).filter(|&i| group_of(i) == gi).collect())
            .collect();

        // Participants: g group checkers + 1 overall checker (index g).
        let overall = g_count;
        let mut meter = Meter::new(g_count + 1, self.recorder.clone());
        let queues = VcSnapshotQueues::build(annotated, wcp);

        // Phase 1: group checkers enumerate and ship their state sets.
        let mut budget = self.max_states;
        let mut sets: Vec<Vec<Vec<usize>>> = Vec::with_capacity(g_count);
        for (gi, group) in members.iter().enumerate() {
            let tuples = self
                .group_tuples(&queues, group, &mut budget)
                .unwrap_or_else(|| {
                    panic!(
                        "hierarchical checker exceeded its enumeration budget of {} states",
                        self.max_states
                    )
                });
            // Work: one unit per tuple entry examined; messages: the whole
            // set travels to the overall checker (one batched event).
            meter.work(gi, (tuples.len() * group.len()) as u64);
            meter.control_sent(
                gi,
                overall,
                tuples.len() as u64,
                (tuples.len() * group.len() * 8) as u64,
            );
            if tuples.is_empty() {
                meter.exhausted(gi);
                meter.finish_sequential();
                return DetectionReport {
                    detection: Detection::Undetected,
                    metrics: meter.metrics,
                };
            }
            sets.push(tuples);
        }

        // Phase 2: the overall checker searches the product of the group
        // sets for globally consistent selections, folding their meet —
        // which is the unique first satisfying cut.
        let mut best: Option<Vec<u64>> = None;
        let mut selection = vec![0usize; g_count];
        loop {
            // Check the current selection for cross-group consistency.
            let mut consistent = true;
            meter.work(overall, (n * n) as u64);
            'outer: for ga in 0..g_count {
                for gb in 0..g_count {
                    if ga == gb {
                        continue;
                    }
                    for (da, &ma) in members[ga].iter().enumerate() {
                        for (db, &mb) in members[gb].iter().enumerate() {
                            let ia = sets[ga][selection[ga]][da];
                            let ib = sets[gb][selection[gb]][db];
                            if row_happened_before(&queues, ma, ia, mb, ib) {
                                consistent = false;
                                break 'outer;
                            }
                        }
                    }
                }
            }
            if consistent {
                let mut cut = vec![0u64; n];
                for gi in 0..g_count {
                    for (d, &mi) in members[gi].iter().enumerate() {
                        cut[mi] = queues.interval(mi, sets[gi][selection[gi]][d]);
                    }
                }
                best = Some(match best {
                    None => cut,
                    Some(prev) => prev.iter().zip(&cut).map(|(a, b)| *a.min(b)).collect(),
                });
            }
            // Advance the mixed-radix selection counter.
            let mut pos = 0;
            loop {
                if pos == g_count {
                    // Exhausted the product.
                    let detection = match best {
                        Some(g) => {
                            meter.found(overall, &g);
                            Detection::Detected {
                                cut: wcp.lift(&g, annotated.process_count()),
                            }
                        }
                        None => {
                            meter.exhausted(overall);
                            Detection::Undetected
                        }
                    };
                    meter.finish_sequential();
                    return DetectionReport {
                        detection,
                        metrics: meter.metrics,
                    };
                }
                selection[pos] += 1;
                if selection[pos] < sets[pos].len() {
                    break;
                }
                selection[pos] = 0;
                pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenDetector;
    use wcp_trace::generate::{generate, GeneratorConfig};

    #[test]
    fn agrees_with_token_detector() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(5, 8)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            for scope_n in [3usize, 5] {
                let wcp = Wcp::over_first(scope_n);
                let token = TokenDetector::new().detect(&a, &wcp);
                for groups in [1usize, 2, 3] {
                    let h = HierarchicalChecker::new(groups).detect(&a, &wcp);
                    assert_eq!(
                        h.detection, token.detection,
                        "seed {seed} scope {scope_n} groups {groups}"
                    );
                }
            }
        }
    }

    #[test]
    fn ships_exponentially_many_states_on_concurrent_workloads() {
        // Independent processes: every candidate tuple is concurrent, so a
        // k-member group with c candidates ships c^k states.
        let g = generate(
            &GeneratorConfig::new(6, 6)
                .with_seed(1)
                .with_send_fraction(1.0) // all sends undelivered ⇒ independence
                .with_predicate_density(1.0),
        );
        let a = g.computation.annotate();
        let wcp = Wcp::over_first(6);
        // 2 groups of 3, each member with 7 candidates: 7³ = 343 per group.
        let h = HierarchicalChecker::new(2).detect(&a, &wcp);
        assert_eq!(h.metrics.control_messages, 2 * 343);
        // The token algorithm's message count on the same workload is tiny.
        let t = TokenDetector::new().detect(&a, &wcp);
        assert!(t.metrics.control_messages < 20);
        assert_eq!(h.detection, t.detection);
    }

    #[test]
    #[should_panic(expected = "enumeration budget")]
    fn budget_overflow_panics() {
        let g = generate(
            &GeneratorConfig::new(6, 10)
                .with_seed(2)
                .with_send_fraction(1.0)
                .with_predicate_density(1.0),
        );
        let a = g.computation.annotate();
        HierarchicalChecker::new(1)
            .with_max_states(100)
            .detect(&a, &Wcp::over_first(6));
    }

    #[test]
    fn empty_group_set_is_undetected() {
        // A process with no true interval empties its group's tuple set.
        let g = generate(
            &GeneratorConfig::new(4, 6)
                .with_seed(3)
                .with_predicate_density(0.0),
        );
        let a = g.computation.annotate();
        let h = HierarchicalChecker::new(2).detect(&a, &Wcp::over_first(4));
        assert_eq!(h.detection, Detection::Undetected);
    }
}
