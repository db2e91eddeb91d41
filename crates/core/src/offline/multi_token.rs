//! The multi-token parallel variant (paper Section 3.5).
//!
//! The scope's monitors are partitioned into `g` groups, each running the
//! single-token algorithm among its own members. When a group has no red
//! members left, its token returns to a leader; once the leader holds all
//! `g` tokens it merges them into one candidate cut, applies the Figure 3
//! elimination rule *across* groups, and sends tokens back into every group
//! that acquired a red member. All-green at a merge means detection.
//!
//! The paper leaves the leader's cross-group consistency check unspecified;
//! following DESIGN.md §3, each token additionally carries the candidate
//! vector clocks of its group members, which is exactly the information the
//! Figure 3 `for` loop uses. Candidate clocks are carried as row ids into
//! the run's shared [`VcSnapshotQueues`] arena, so tokens never clone clock
//! storage.
//!
//! Between two leader merges the groups are *data-independent*: a group's
//! walk reads and writes only its own token and its own members' queue
//! heads. [`MultiTokenDetector::with_parallel`] exploits this by running
//! the groups' walks on the persistent [`wcp_clocks::par`] worker pool.
//! Each walk records its meter effects as an op log instead of touching
//! the shared [`Meter`];
//! the logs are then applied in group-index order — exactly the order the
//! sequential emulation interleaves them — so the detected cut, the
//! [`DetectionMetrics`](crate::DetectionMetrics), and the recorded event
//! stream are bit-identical to the sequential emulation (property-tested
//! in `tests/substrate.rs`).
//!
//! The emulation also computes
//! [`DetectionMetrics::parallel_time`](crate::DetectionMetrics::parallel_time):
//! groups work concurrently between merges, so the critical path per round
//! is the maximum group work in that round, plus the leader's merge work.

use std::fmt;
use std::sync::Arc;

use wcp_clocks::strided_map;
use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;
use crate::offline::token::Color;
use crate::snapshot::VcSnapshotQueues;

/// A Section 3.5 group token: full-scope `G`/colour vectors plus the
/// candidate clocks of this group's members (arena row ids).
#[derive(Debug, Clone)]
struct GroupToken {
    g: Vec<u64>,
    color: Vec<Color>,
    /// Candidate clock rows, populated only at this group's member
    /// positions; ids index the run's shared snapshot arena.
    candidates: Vec<Option<usize>>,
}

impl GroupToken {
    fn new(n: usize) -> Self {
        GroupToken {
            g: vec![0; n],
            color: vec![Color::Red; n],
            candidates: vec![None; n],
        }
    }

    /// Wire size: `G` + colours (9 bytes/entry) plus the carried candidate
    /// vectors (8 bytes/component — what the clock rows would occupy on the
    /// wire, independent of the arena representation).
    fn wire_size(&self) -> usize {
        let n = self.g.len();
        n * 9 + self.candidates.iter().flatten().count() * n * 8
    }
}

/// One deferred meter effect of a group walk. Applying a walk's ops in
/// order reproduces exactly the meter calls the sequential emulation makes.
#[derive(Debug, Clone)]
enum GroupOp {
    Accepted { at: usize, interval: u64 },
    Eliminated { at: usize, interval: u64 },
    Work { at: usize },
    Invalidated { at: usize, j: usize, interval: u64 },
    Forwarded { at: usize, next: usize, wire: u64 },
}

impl GroupOp {
    fn apply(&self, meter: &mut Meter, n: usize) {
        match *self {
            GroupOp::Accepted { at, interval } => {
                meter.candidate_accepted(at, at, interval, n as u64);
            }
            GroupOp::Eliminated { at, interval } => {
                meter.candidate_eliminated(at, at, interval, n as u64);
            }
            GroupOp::Work { at } => meter.work(at, n as u64),
            GroupOp::Invalidated { at, j, interval } => {
                meter.candidate_invalidated(at, j, interval);
            }
            GroupOp::Forwarded { at, next, wire } => {
                meter.token_forwarded(at, next, wire);
                meter.token_acquired(next, Some(at));
            }
        }
    }
}

/// Result of one group's Phase A walk.
struct GroupOutcome {
    /// Deferred meter effects, in the order the walk produced them.
    ops: Vec<GroupOp>,
    /// `(member, new head)` for every queue position the walk consumed
    /// from — only this group's members, so updates are disjoint across
    /// groups.
    head_updates: Vec<(usize, usize)>,
    /// Paper work units this walk contributed to the round's critical path.
    group_work: u64,
    /// Member that last held the token.
    last_at: usize,
    /// Wire size of the token as it returns to the leader (valid only when
    /// `exhausted_at` is `None`).
    wire: u64,
    /// `Some(at)` if member `at` ran out of candidates mid-walk.
    exhausted_at: Option<usize>,
}

/// Walks one group's token among its red members (Phase A of a round).
///
/// Pure with respect to shared detector state: reads the queues and the
/// members' head positions, mutates only `token`, and defers all meter
/// effects to the returned op log — which is what makes running walks on
/// pool workers indistinguishable from running them in sequence.
fn run_group(
    queues: &VcSnapshotQueues,
    members: &[usize],
    token: &mut GroupToken,
    heads: &[usize],
    n: usize,
) -> GroupOutcome {
    let mut local_heads: Vec<(usize, usize)> = members.iter().map(|&i| (i, heads[i])).collect();
    let head_of = |local: &mut Vec<(usize, usize)>, at: usize| -> usize {
        local.iter().position(|&(i, _)| i == at).expect("member")
    };
    let mut ops = Vec::new();
    let mut group_work = 0u64;
    let mut last_at = members[0];

    while let Some(&at) = members.iter().find(|&&i| token.color[i] == Color::Red) {
        last_at = at;
        // Figure 3 `while` loop at member `at`.
        let candidate_row = loop {
            let slot = head_of(&mut local_heads, at);
            let head = local_heads[slot].1;
            if head >= queues.queue_len(at) {
                return GroupOutcome {
                    ops,
                    head_updates: local_heads,
                    group_work,
                    last_at,
                    wire: 0,
                    exhausted_at: Some(at),
                };
            }
            local_heads[slot].1 += 1;
            group_work += n as u64;
            let interval = queues.interval(at, head);
            if interval > token.g[at] {
                ops.push(GroupOp::Accepted { at, interval });
                token.g[at] = interval;
                token.color[at] = Color::Green;
                break queues.row_id(at, head);
            }
            ops.push(GroupOp::Eliminated { at, interval });
        };
        token.candidates[at] = Some(candidate_row);
        // Figure 3 `for` loop — updates entries across all of the scope;
        // red members of *other* groups are reconciled at the next merge.
        ops.push(GroupOp::Work { at });
        group_work += n as u64;
        let row = queues.arena().row(candidate_row);
        for j in 0..n {
            if j == at {
                continue;
            }
            let seen = row[j];
            if seen >= token.g[j] && seen > 0 {
                token.g[j] = seen;
                if token.color[j] == Color::Green {
                    ops.push(GroupOp::Invalidated {
                        at,
                        j,
                        interval: seen,
                    });
                }
                token.color[j] = Color::Red;
            }
        }
        // Token hop to the next red member, if any.
        if let Some(&next) = members.iter().find(|&&i| token.color[i] == Color::Red) {
            ops.push(GroupOp::Forwarded {
                at,
                next,
                wire: token.wire_size() as u64,
            });
        }
    }

    let wire = token.wire_size() as u64;
    GroupOutcome {
        ops,
        head_updates: local_heads,
        group_work,
        last_at,
        wire,
        exhausted_at: None,
    }
}

/// Offline emulation of the multi-token algorithm.
///
/// With `groups == 1` this degenerates to the single-token algorithm (plus
/// one leader round-trip) and detects the identical cut.
#[derive(Clone)]
pub struct MultiTokenDetector {
    groups: usize,
    parallel: bool,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for MultiTokenDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiTokenDetector")
            .field("groups", &self.groups)
            .field("parallel", &self.parallel)
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
            parallel: false,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Number of groups configured.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Runs the group walks between leader merges on the persistent worker
    /// pool, one unit per walking group. The result — cut, metrics, and
    /// recorded events — is bit-identical to the sequential emulation.
    pub fn with_parallel(mut self) -> Self {
        self.parallel = true;
        self
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
        let g_count = self.groups.min(n);
        // Shared with the pool's workers, which outlive this call's frame.
        let queues = Arc::new(VcSnapshotQueues::build(annotated, wcp));

        // Participants: n monitors + 1 leader (index n).
        let leader = n;
        let mut meter = Meter::new(n + 1, self.recorder.clone());
        for i in 0..n {
            for pos in 0..queues.queue_len(i) {
                meter.snapshot_buffered(i, pos as u64 + 1, queues.clock(i, pos).wire_size() as u64);
            }
        }

        // Contiguous balanced partition: member i belongs to group i·g/n.
        let group_of = |i: usize| i * g_count / n;
        let members: Arc<Vec<Vec<usize>>> = Arc::new(
            (0..g_count)
                .map(|gi| (0..n).filter(|&i| group_of(i) == gi).collect())
                .collect(),
        );

        let mut heads = vec![0usize; n];
        let mut tokens: Vec<GroupToken> = (0..g_count).map(|_| GroupToken::new(n)).collect();
        // Groups whose token is currently circulating (not at the leader).
        let mut active: Vec<bool> = vec![true; g_count];

        loop {
            // ---- Phase A: groups drain their red members concurrently. ----
            //
            // Walks are data-independent, so they may run on the pool; each
            // walks its own copy of its token against a copy of the heads,
            // and outcomes come back in group-index order either way, which
            // makes the two modes indistinguishable — including when a walk
            // exhausts its queue: the sequential emulation never starts
            // later groups, so their (committed-nowhere) results are simply
            // discarded.
            let walks: Arc<[(usize, GroupToken)]> = (0..g_count)
                .filter(|&gi| active[gi])
                .map(|gi| (gi, tokens[gi].clone()))
                .collect();
            let workers = if self.parallel { walks.len() } else { 1 };
            let outcomes = {
                let queues = Arc::clone(&queues);
                let members = Arc::clone(&members);
                let heads = heads.clone();
                strided_map(workers, walks.len(), move |k| {
                    let (gi, token) = &walks[k];
                    let mut token = token.clone();
                    let outcome = run_group(&queues, &members[*gi], &mut token, &heads, n);
                    (*gi, token, outcome)
                })
            };

            let mut round_max = 0u64;
            for (gi, token, outcome) in outcomes {
                tokens[gi] = token;
                for op in &outcome.ops {
                    op.apply(&mut meter, n);
                }
                for (i, head) in outcome.head_updates {
                    heads[i] = head;
                }
                if let Some(at) = outcome.exhausted_at {
                    // Account for the partial round before aborting.
                    meter.parallel_advance(at, outcome.group_work);
                    meter.exhausted(at);
                    return DetectionReport {
                        detection: Detection::Undetected,
                        metrics: meter.metrics,
                    };
                }
                // Group finished: token returns to the leader.
                meter.control_sent(outcome.last_at, leader, 1, outcome.wire);
                active[gi] = false;
                round_max = round_max.max(outcome.group_work);
            }
            // Groups ran concurrently: the round's critical path is the
            // slowest group.
            meter.parallel_advance(leader, round_max);

            // ---- Phase B: leader merge. ----
            let mut g_merged = vec![0u64; n];
            let mut color = vec![Color::Red; n];
            let mut candidates: Vec<Option<usize>> = vec![None; n];
            for i in 0..n {
                let owner = &tokens[group_of(i)];
                for t in &tokens {
                    g_merged[i] = g_merged[i].max(t.g[i]);
                }
                candidates[i] = owner.candidates[i];
                color[i] = if owner.color[i] == Color::Green && owner.g[i] == g_merged[i] {
                    Color::Green
                } else {
                    Color::Red
                };
            }
            // Cross-group Figure 3 elimination: a green candidate that
            // "knows" interval ≥ G[i] of process i eliminates (i, G[i]).
            meter.work(leader, (n * n) as u64);
            meter.parallel_advance(leader, (n * n) as u64);
            for j in 0..n {
                if color[j] != Color::Green {
                    continue;
                }
                let cand = queues
                    .arena()
                    .row(candidates[j].expect("green ⇒ candidate"));
                for i in 0..n {
                    if i == j {
                        continue;
                    }
                    let seen = cand[i];
                    if seen >= g_merged[i] && seen > 0 {
                        g_merged[i] = seen;
                        color[i] = Color::Red;
                    }
                }
            }

            if color.iter().all(|&c| c == Color::Green) {
                let cut = wcp.lift(&g_merged, annotated.process_count());
                meter.found(leader, cut.as_slice());
                return DetectionReport {
                    detection: Detection::Detected { cut },
                    metrics: meter.metrics,
                };
            }

            // Redistribute: every group containing a red member gets a
            // token carrying the merged state.
            for gi in 0..g_count {
                tokens[gi].g = g_merged.clone();
                tokens[gi].color = color.clone();
                tokens[gi].candidates = candidates.clone();
                if members[gi].iter().any(|&i| color[i] == Color::Red) {
                    active[gi] = true;
                    meter.control_sent(leader, members[gi][0], 1, tokens[gi].wire_size() as u64);
                }
            }
            debug_assert!(
                active.iter().any(|&a| a),
                "red member must be in some group"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenDetector;
    use wcp_trace::generate::{generate, GeneratorConfig};

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
    fn parallel_mode_matches_sequential_end_to_end() {
        for seed in 0..10 {
            let cfg = GeneratorConfig::new(6, 12)
                .with_seed(seed)
                .with_predicate_density(0.25);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(6);
            for groups in [1usize, 2, 4] {
                let seq = MultiTokenDetector::new(groups).detect(&a, &wcp);
                let par = MultiTokenDetector::new(groups)
                    .with_parallel()
                    .detect(&a, &wcp);
                assert_eq!(seq.detection, par.detection, "seed {seed} groups {groups}");
                assert_eq!(seq.metrics, par.metrics, "seed {seed} groups {groups}");
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
    fn undetected_propagates() {
        let g = generate(
            &GeneratorConfig::new(4, 8)
                .with_seed(2)
                .with_predicate_density(0.0),
        );
        let a = g.computation.annotate();
        let r = MultiTokenDetector::new(2).detect(&a, &Wcp::over_first(4));
        assert_eq!(r.detection, Detection::Undetected);
        let rp = MultiTokenDetector::new(2)
            .with_parallel()
            .detect(&a, &Wcp::over_first(4));
        assert_eq!(rp.detection, Detection::Undetected);
        assert_eq!(r.metrics, rp.metrics);
    }
}
