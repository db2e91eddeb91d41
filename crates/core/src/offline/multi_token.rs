//! The multi-token parallel variant (paper Section 3.5).
//!
//! The scope's monitors are partitioned into `g` groups, each running the
//! single-token algorithm among its own members. When a group has no red
//! members left, its token returns to a leader; once the leader holds all
//! `g` tokens it merges them into one candidate cut, applies the Figure 3
//! elimination rule *across* groups, and sends tokens back into every group
//! that has a red member. All-green at a merge means detection.
//!
//! The paper leaves the leader's cross-group consistency check unspecified;
//! following DESIGN.md §3, each token additionally carries the candidate
//! vector clocks of its group members, which is exactly the information the
//! Figure 3 `for` loop uses. The visit, the routing and the merge are the
//! ones the online group monitors and leader run (`crate::visit`), over the
//! same [`GroupTokenMsg`], so on a detected run the two report the same
//! work, hops and control traffic.
//!
//! Between two merges the groups' walks are data-independent: a walk reads
//! and writes only its own token and its own members' queues. The
//! emulation runs them one after another in group order and computes
//! [`DetectionMetrics::parallel_time`](crate::DetectionMetrics::parallel_time)
//! as if they ran concurrently: the critical path per round is the
//! maximum group work in that round, plus the leader's merge work.

use std::fmt;
use std::sync::Arc;

use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;
use crate::online::messages::GroupTokenMsg;
use crate::snapshot::VcSnapshotQueues;
use crate::visit::{first_red, groups, merge, next_red_member, visit, Queue, Visit};

/// Offline emulation of the multi-token algorithm.
///
/// With `groups == 1` the walk is the single-token algorithm's, plus the
/// leader's dispatch, return and merge, and detects the identical cut.
#[derive(Clone)]
pub struct MultiTokenDetector {
    groups: usize,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for MultiTokenDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiTokenDetector")
            .field("groups", &self.groups)
            .finish_non_exhaustive()
    }
}

impl MultiTokenDetector {
    /// Detector with `groups` tokens (clamped to `1..=n` at run time).
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0`.
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 1, "need at least one group");
        MultiTokenDetector {
            groups,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Number of groups configured.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`. Monitor
    /// ids are scope positions; the leader is monitor `n`.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Detector for MultiTokenDetector {
    fn name(&self) -> &str {
        "multi-token"
    }

    /// Runs the grouped protocol to completion.
    ///
    /// # Panics
    ///
    /// Panics if the predicate scope is empty.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let n = wcp.n();
        assert!(n >= 1, "WCP scope must name at least one process");
        let queues = VcSnapshotQueues::build(annotated, wcp);

        // Participants: n monitors + 1 leader (index n).
        let leader = n;
        let mut meter = Meter::new(n + 1, self.recorder.clone());
        for i in 0..n {
            for pos in 0..queues.queue_len(i) {
                meter.snapshot_buffered(i, pos as u64 + 1, queues.clock(i, pos).wire_size() as u64);
            }
        }

        let groups = groups(n, self.groups);
        let mut tokens: Vec<GroupTokenMsg> = (0..groups.len())
            .map(|k| GroupTokenMsg::new(k, n))
            .collect();
        let mut heads = vec![0usize; n];

        loop {
            // The leader sends every token with a red member to the first
            // red member.
            let walks: Vec<(usize, usize)> = groups
                .iter()
                .enumerate()
                .filter_map(|(k, members)| first_red(&tokens[k].token, members).map(|at| (k, at)))
                .collect();
            debug_assert!(!walks.is_empty(), "red member must be in some group");
            for &(k, at) in &walks {
                meter.control_sent(leader, at, 1, tokens[k].wire_size() as u64);
            }

            // Each group walks its token among its red members.
            let mut round = 0u64;
            for (k, mut at) in walks {
                let t = &mut tokens[k];
                let before = meter.metrics.total_work();
                loop {
                    let mut queue = Queue {
                        queues: &queues,
                        pos: at,
                        next: &mut heads[at],
                    };
                    let Visit::Accepted(id) = visit(&mut t.token, at, &mut queue, &mut meter)
                    else {
                        // Account for the partial round before aborting:
                        // the groups that finished this round walked
                        // concurrently with this one.
                        let walked = meter.metrics.total_work() - before;
                        meter.parallel_advance(at, round.max(walked));
                        meter.exhausted(at);
                        return DetectionReport {
                            detection: Detection::Undetected,
                            metrics: meter.metrics,
                        };
                    };
                    t.candidates[at] = Some(queues.arena().row(id).to_vector_clock());
                    let Some(next) = next_red_member(&t.token, &groups[k], at) else {
                        break;
                    };
                    meter.token_forwarded(at, next, t.wire_size() as u64);
                    meter.token_acquired(next, Some(at));
                    at = next;
                }
                // No red member left: the token returns to the leader.
                meter.control_sent(at, leader, 1, t.wire_size() as u64);
                round = round.max(meter.metrics.total_work() - before);
            }
            // Groups run concurrently: the round's critical path is the
            // slowest walk.
            meter.parallel_advance(leader, round);

            meter.work(leader, (n * n) as u64);
            meter.parallel_advance(leader, (n * n) as u64);
            if let Some(g) = merge(&mut tokens, &groups) {
                meter.found(leader, &g);
                return DetectionReport {
                    detection: Detection::Detected {
                        cut: wcp.lift(&g, annotated.process_count()),
                    },
                    metrics: meter.metrics,
                };
            }
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

    #[test]
    fn one_group_equals_single_token() {
        for seed in 0..20 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(5);
            let single = TokenDetector::new().detect(&a, &wcp);
            let multi = MultiTokenDetector::new(1).detect(&a, &wcp);
            assert_eq!(single.detection, multi.detection, "seed {seed}");
        }
    }

    #[test]
    fn all_group_counts_agree() {
        for seed in 0..20 {
            let cfg = GeneratorConfig::new(6, 12)
                .with_seed(seed)
                .with_predicate_density(0.25);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(6);
            let reference = TokenDetector::new().detect(&a, &wcp).detection;
            for groups in [2usize, 3, 6, 9] {
                let multi = MultiTokenDetector::new(groups).detect(&a, &wcp);
                assert_eq!(multi.detection, reference, "seed {seed} groups {groups}");
            }
        }
    }

    #[test]
    fn more_groups_never_increase_critical_path_much() {
        // Statistical sanity: with a planted cut and dense predicates, the
        // 4-group critical path should beat the 1-group one on most seeds.
        let mut wins = 0;
        let total = 20;
        for seed in 0..total {
            let cfg = GeneratorConfig::new(8, 15)
                .with_seed(seed)
                .with_predicate_density(0.3)
                .with_plant(0.8);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(8);
            let t1 = MultiTokenDetector::new(1)
                .detect(&a, &wcp)
                .metrics
                .parallel_time;
            let t4 = MultiTokenDetector::new(4)
                .detect(&a, &wcp)
                .metrics
                .parallel_time;
            if t4 <= t1 {
                wins += 1;
            }
        }
        assert!(
            wins * 2 > total,
            "4 groups beat 1 group only {wins}/{total} times"
        );
    }

    #[test]
    fn groups_accessor_and_clamping() {
        let d = MultiTokenDetector::new(64);
        assert_eq!(d.groups(), 64);
        // More groups than scope processes still works (clamped).
        let g = generate(&GeneratorConfig::new(3, 6).with_seed(1).with_plant(0.5));
        let a = g.computation.annotate();
        let r = d.detect(&a, &Wcp::over_first(3));
        assert!(r.detection.is_detected());
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panics() {
        MultiTokenDetector::new(0);
    }

    #[test]
    fn an_exhausted_round_keeps_the_longest_finished_walk() {
        // Group 0 (process 0) accepts a candidate and returns its token;
        // then group 1 (process 1, never true) finds an empty queue at
        // once. The round ran both walks concurrently, so its critical
        // path is group 0's walk, not group 1's empty one.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(ProcessId::new(0));
        let computation = b.build().unwrap();
        let a = computation.annotate();
        let wcp = Wcp::over_all(&computation);
        let ring = Arc::new(RingRecorder::new(1024));
        let r = MultiTokenDetector::new(2)
            .with_recorder(ring.clone())
            .detect(&a, &wcp);
        assert_eq!(r.detection, Detection::Undetected);
        let walk0 = r.metrics.per_process_work[0];
        assert!(walk0 > 0, "group 0 consumed its candidate");
        assert_eq!(r.metrics.parallel_time, walk0, "{}", r.metrics);
        assert_eq!(replay_metrics(3, &ring.events()), r.metrics);
    }

    #[test]
    fn undetected_propagates() {
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(2)
                .with_predicate_density(0.0),
        );
        let a = g.computation.annotate();
        let r = MultiTokenDetector::new(2).detect(&a, &Wcp::over_first(4));
        assert_eq!(r.detection, Detection::Undetected);
    }
}
