//! The single-token vector-clock algorithm (paper Section 3, Figures 2–3).
//!
//! A unique token carries the candidate cut `G[1..n]` and a colour vector.
//! `color[i] = red` means state `(i, G[i])` (and all its predecessors) can
//! never satisfy the WCP; `green` means no selected state is known to follow
//! it. The token travels only to red monitors; a visit consumes candidate
//! snapshots until one survives (Figure 3's `while` loop), then eliminates
//! any other selected state that happened before the new candidate (the
//! `for` loop). All-green means the cut is consistent — detection. The
//! visit is the one the online monitors run (`crate::visit`).

use std::fmt;
use std::sync::Arc;

use wcp_clocks::StateId;
use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;
use crate::snapshot::VcSnapshotQueues;
use crate::visit::{visit, Queue, Visit};

/// Colour of a candidate state, as in Figure 3. The Section 4 monitors
/// keep one each (Table 1's `M_i.color`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// The state is eliminated; the token must visit this monitor.
    Red,
    /// No selected state is known to causally follow this one.
    Green,
}

/// The token of the single-token algorithm: the candidate cut and colours.
///
/// Colours are kept behind [`color`](Self::color)/[`set_color`](Self::set_color)
/// so the token can maintain a red-count cache: [`all_green`](Self::all_green)
/// is `O(1)` instead of an `O(n)` scan per hop, and
/// [`next_red`](Self::next_red) resolves without scanning in the common
/// cases (current position still red, or a single red left — the cached
/// last hit).
#[derive(Debug, Clone)]
pub struct Token {
    /// Candidate cut: `G[i]` is the selected interval of scope process `i`
    /// (`0` = none yet).
    pub g: Vec<u64>,
    /// Colours of the candidate states.
    color: Vec<Color>,
    /// How many entries of `color` are red.
    red_count: usize,
    /// Position most recently set red (valid only while that entry is
    /// still red; checked before use).
    last_red: usize,
}

// Equality is over the protocol state (cut + colours); the caches are
// derived and excluded so tokens built along different paths compare equal.
impl PartialEq for Token {
    fn eq(&self, other: &Self) -> bool {
        self.g == other.g && self.color == other.color
    }
}

impl Eq for Token {}

impl Token {
    /// A fresh token over `n` scope processes (`∀i: G[i] = 0`, all red).
    pub fn new(n: usize) -> Self {
        Token {
            g: vec![0; n],
            color: vec![Color::Red; n],
            red_count: n,
            last_red: 0,
        }
    }

    /// Wire size: `G` (8 bytes/entry) plus colours (1 byte/entry).
    pub fn wire_size(&self) -> usize {
        self.g.len() * 9
    }

    /// The colour of position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn color(&self, i: usize) -> Color {
        self.color[i]
    }

    /// All colours, indexed by scope position.
    pub fn colors(&self) -> &[Color] {
        &self.color
    }

    /// Sets the colour of position `i`, maintaining the red-count cache.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_color(&mut self, i: usize, c: Color) {
        match (self.color[i], c) {
            (Color::Green, Color::Red) => {
                self.red_count += 1;
                self.last_red = i;
            }
            (Color::Red, Color::Green) => self.red_count -= 1,
            _ => {}
        }
        self.color[i] = c;
    }

    /// Index of the first red entry at or cyclically after `from`.
    ///
    /// `O(1)` when all entries are green, when `from` itself is red, or
    /// when the only red left is the cached last hit; otherwise scans the
    /// red-free gap.
    pub fn next_red(&self, from: usize) -> Option<usize> {
        if self.red_count == 0 {
            return None;
        }
        let n = self.color.len();
        let from = from % n;
        if self.color[from] == Color::Red {
            return Some(from);
        }
        if self.red_count == 1 && self.color[self.last_red] == Color::Red {
            return Some(self.last_red);
        }
        (1..n)
            .map(|d| (from + d) % n)
            .find(|&j| self.color[j] == Color::Red)
    }

    /// `true` iff every colour is green (detection condition). `O(1)`.
    pub fn all_green(&self) -> bool {
        self.red_count == 0
    }
}

/// Which red monitor receives the token next. Figure 3 only says "send
/// token to M_j" for *some* red `j`; the choice affects token hops but not
/// the detected cut (experiment E11 measures the difference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NextRedStrategy {
    /// First red position cyclically after the current monitor (default).
    #[default]
    Cyclic,
    /// Always the lowest-indexed red position.
    LowestIndex,
    /// The red position with the smallest candidate index `G[j]` — the
    /// monitor that is "most behind".
    MostBehind,
}

impl NextRedStrategy {
    /// Picks the next red position, given the current position.
    pub(crate) fn pick(&self, token: &Token, at: usize) -> Option<usize> {
        match self {
            NextRedStrategy::Cyclic => token.next_red((at + 1) % token.g.len()),
            NextRedStrategy::LowestIndex => token.next_red(0),
            NextRedStrategy::MostBehind => (0..token.g.len())
                .filter(|&j| token.color(j) == Color::Red)
                .min_by_key(|&j| token.g[j]),
        }
    }
}

/// Offline emulation of the Figure 3 monitor protocol.
///
/// See the [crate docs](crate) for a usage example; complexity is the
/// paper's `O(n²m)` total work with `O(nm)` work and space per monitor.
#[derive(Clone)]
pub struct TokenDetector {
    start: usize,
    check_invariants: bool,
    strategy: NextRedStrategy,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for TokenDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TokenDetector")
            .field("start", &self.start)
            .field("check_invariants", &self.check_invariants)
            .field("strategy", &self.strategy)
            .finish_non_exhaustive()
    }
}

impl TokenDetector {
    /// Detector with the token starting at scope position 0.
    pub fn new() -> Self {
        TokenDetector {
            start: 0,
            check_invariants: false,
            strategy: NextRedStrategy::Cyclic,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Starts the token at a different scope position (the paper: "the
    /// token can start on any process").
    pub fn with_start(mut self, start: usize) -> Self {
        self.start = start;
        self
    }

    /// Verifies Lemma 3.1 (parts 1–3) after every token visit. Used by the
    /// test suite; expensive.
    pub fn with_invariant_checks(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Chooses how the next red monitor is selected (E11 ablation).
    pub fn with_strategy(mut self, strategy: NextRedStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`. Monitor
    /// ids are scope positions.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Default for TokenDetector {
    fn default() -> Self {
        TokenDetector::new()
    }
}

impl Detector for TokenDetector {
    fn name(&self) -> &str {
        "token"
    }

    /// Runs the single-token protocol to completion.
    ///
    /// # Panics
    ///
    /// Panics if the predicate scope is empty or names processes outside
    /// the computation.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let n = wcp.n();
        assert!(n >= 1, "WCP scope must name at least one process");
        let queues = VcSnapshotQueues::build(annotated, wcp);

        let mut meter = Meter::new(n, self.recorder.clone());
        for i in 0..n {
            for pos in 0..queues.queue_len(i) {
                meter.snapshot_buffered(i, pos as u64 + 1, queues.clock(i, pos).wire_size() as u64);
            }
        }

        let mut token = Token::new(n);
        let mut heads = vec![0usize; n]; // per-monitor queue position
        let mut at = self.start % n;
        meter.token_acquired(at, None);

        loop {
            let mut queue = Queue {
                queues: &queues,
                pos: at,
                next: &mut heads[at],
            };
            let Visit::Accepted(_) = visit(&mut token, at, &mut queue, &mut meter) else {
                // Monitor would block forever waiting for a candidate.
                meter.exhausted(at);
                meter.finish_sequential();
                return DetectionReport {
                    detection: Detection::Undetected,
                    metrics: meter.metrics,
                };
            };

            if self.check_invariants {
                check_lemma_3_1(annotated, wcp, &token);
            }

            if token.all_green() {
                meter.found(at, &token.g);
                meter.finish_sequential();
                return DetectionReport {
                    detection: Detection::Detected {
                        cut: wcp.lift(&token.g, annotated.process_count()),
                    },
                    metrics: meter.metrics,
                };
            }

            let next = self
                .strategy
                .pick(&token, at)
                .expect("not all green ⇒ some red");
            meter.token_forwarded(at, next, token.wire_size() as u64);
            meter.token_acquired(next, Some(at));
            at = next;
        }
    }
}

/// Asserts Lemma 3.1 of the paper on the current token state.
fn check_lemma_3_1(annotated: &AnnotatedComputation<'_>, wcp: &Wcp, token: &Token) {
    let scope = wcp.scope();
    let state = |i: usize| StateId::new(scope[i], token.g[i]);
    for i in 0..scope.len() {
        if token.g[i] == 0 {
            continue;
        }
        match token.color(i) {
            Color::Red => {
                // Part 1: a red non-zero state happened before some
                // selected state.
                let witnessed = (0..scope.len()).any(|j| {
                    j != i && token.g[j] > 0 && annotated.happened_before(state(i), state(j))
                });
                assert!(
                    witnessed,
                    "Lemma 3.1(1) violated: red {} precedes no candidate",
                    state(i)
                );
            }
            Color::Green => {
                // Part 2: a green state precedes no selected state.
                for j in 0..scope.len() {
                    if j == i || token.g[j] == 0 {
                        continue;
                    }
                    assert!(
                        !annotated.happened_before(state(i), state(j)),
                        "Lemma 3.1(2) violated: green {} precedes {}",
                        state(i),
                        state(j)
                    );
                }
            }
        }
    }
    // Part 3: greens are pairwise concurrent (follows from part 2, but
    // check both directions explicitly).
    for i in 0..scope.len() {
        for j in i + 1..scope.len() {
            if token.color(i) == Color::Green && token.color(j) == Color::Green {
                assert!(
                    annotated.concurrent(state(i), state(j)),
                    "Lemma 3.1(3) violated: greens {} and {} not concurrent",
                    state(i),
                    state(j)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_clocks::ProcessId;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn detector() -> TokenDetector {
        TokenDetector::new().with_invariant_checks()
    }

    #[test]
    fn token_new_matches_figure3_init() {
        let t = Token::new(3);
        assert_eq!(t.g, vec![0, 0, 0]);
        assert!(t.colors().iter().all(|&c| c == Color::Red));
        assert!(!t.all_green());
        assert_eq!(t.next_red(1), Some(1));
        assert_eq!(t.wire_size(), 27);
    }

    #[test]
    fn next_red_wraps() {
        let mut t = Token::new(3);
        t.set_color(1, Color::Green);
        t.set_color(2, Color::Green);
        assert_eq!(t.next_red(1), Some(0));
        t.set_color(0, Color::Green);
        assert_eq!(t.next_red(0), None);
        assert!(t.all_green());
    }

    #[test]
    fn red_count_cache_tracks_set_color() {
        let mut t = Token::new(4);
        // Idempotent sets don't skew the count.
        t.set_color(0, Color::Red);
        t.set_color(1, Color::Green);
        t.set_color(1, Color::Green);
        t.set_color(2, Color::Green);
        t.set_color(3, Color::Green);
        assert!(!t.all_green());
        // Exactly one red left: next_red finds it from any start (the
        // cached-last-hit fast path after a green→red flip).
        t.set_color(0, Color::Green);
        t.set_color(2, Color::Red);
        for from in 0..4 {
            assert_eq!(t.next_red(from), Some(2));
        }
        t.set_color(2, Color::Green);
        assert!(t.all_green());
        assert_eq!(t.next_red(0), None);
    }

    #[test]
    fn token_equality_ignores_caches() {
        // Same (g, colours) reached along different set_color paths.
        let mut a = Token::new(3);
        a.set_color(0, Color::Green);
        let mut b = Token::new(3);
        b.set_color(1, Color::Green);
        b.set_color(2, Color::Green);
        b.set_color(2, Color::Red);
        b.set_color(1, Color::Red);
        b.set_color(0, Color::Green);
        assert_eq!(a, b);
    }

    #[test]
    fn detects_concurrent_true_states() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0)); // (0,2)
        b.receive(p(1), m);
        b.mark_true(p(1)); // (1,2)
        let c = b.build().unwrap();
        let report = detector().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(
            report.detection.cut().unwrap().as_slice(),
            &[2, 2],
            "{report}"
        );
    }

    #[test]
    fn reports_undetected_when_no_consistent_cut() {
        // (0,1) → (1,2): only true states are causally ordered.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let report = detector().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(report.detection, Detection::Undetected);
        // Both snapshots were generated, and some were consumed.
        assert_eq!(report.metrics.snapshot_messages, 2);
        assert!(report.metrics.candidates_consumed >= 1);
    }

    #[test]
    fn undetected_when_one_predicate_never_true() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let report = detector().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(report.detection, Detection::Undetected);
    }

    #[test]
    fn agrees_with_ground_truth_on_random_runs() {
        for seed in 0..40 {
            let cfg = GeneratorConfig::new(5, 12)
                .with_seed(seed)
                .with_predicate_density(0.25);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(4);
            let expected = a.first_satisfying_cut(&wcp);
            let report = detector().detect(&a, &wcp);
            assert_eq!(
                report.detection.cut().cloned(),
                expected,
                "seed {seed}: {report}"
            );
        }
    }

    #[test]
    fn start_position_does_not_change_result() {
        let cfg = GeneratorConfig::new(4, 10).with_seed(3).with_plant(0.6);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        let r0 = detector().detect(&a, &wcp);
        for start in 1..4 {
            let r = detector().with_start(start).detect(&a, &wcp);
            assert_eq!(r.detection, r0.detection, "start {start}");
        }
    }

    #[test]
    fn token_hops_bounded_by_candidates() {
        // Paper §3.4: the token is sent at most mn times; every hop follows
        // at least one elimination.
        let cfg = GeneratorConfig::new(5, 20)
            .with_seed(11)
            .with_predicate_density(0.3)
            .with_plant(0.9);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let report = detector().detect(&a, &Wcp::over_all(&g.computation));
        assert!(report.metrics.token_hops <= report.metrics.candidates_consumed);
        assert!(report.metrics.candidates_consumed <= report.metrics.snapshot_messages);
    }

    #[test]
    fn work_is_n_per_candidate_plus_n_per_visit() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let report = detector().detect(&c.annotate(), &Wcp::over_first(2));
        // Visits: P0 consumes 1 candidate (2+2 work), P1 consumes 1 (2+2).
        assert_eq!(report.metrics.total_work(), 8);
        assert_eq!(report.metrics.per_process_work, vec![4, 4]);
        assert_eq!(report.metrics.token_hops, 1);
        assert_eq!(
            report.detection.cut().unwrap().as_slice(),
            &[1, 1],
            "trivial cut"
        );
    }

    #[test]
    fn strategies_agree_on_the_cut() {
        use crate::NextRedStrategy;
        for seed in 0..15 {
            let cfg = GeneratorConfig::new(6, 12)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(6);
            let reference = detector().detect(&a, &wcp).detection;
            for strategy in [
                NextRedStrategy::Cyclic,
                NextRedStrategy::LowestIndex,
                NextRedStrategy::MostBehind,
            ] {
                let r = detector().with_strategy(strategy).detect(&a, &wcp);
                assert_eq!(r.detection, reference, "seed {seed} {strategy:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_scope_panics() {
        let c = ComputationBuilder::new(1).build().unwrap();
        let a = c.annotate();
        TokenDetector::new().detect(&a, &Wcp::over([]));
    }
}
