//! Generalized conjunctive predicates (GCP): conjunctions of local
//! predicates **and channel predicates**.
//!
//! The paper's companion work (reference \[6\], Garg, Chase, Mitchell,
//! Kilgore, *Detecting Conjunctive Channel Predicates*, HICSS 1995) extends
//! WCP detection with predicates over channel states — the messages in
//! flight across a cut. The classic application is **distributed
//! termination detection**: "every process is passive ∧ every channel is
//! empty".
//!
//! Detection stays efficient because the supported channel predicates are
//! *linear* (monotone): when one is false, a specific endpoint can be
//! blamed — no satisfying cut keeps that endpoint at its current state:
//!
//! - [`ChannelPredicate::Empty`] / [`ChannelPredicate::AtMost`] — more
//!   sender progress only adds in-flight messages, so a violation condemns
//!   the **receiver's** state (it must advance and receive more);
//! - [`ChannelPredicate::AtLeast`] — more receiver progress only removes
//!   in-flight messages, so a violation condemns the **sender's** state.
//!
//! [`GcpChecker`] runs the \[6\]-style centralized checker: the usual
//! advancing-cut loop, with channel violations advancing the blamed
//! endpoint. Linearity keeps satisfying cuts meet-closed, so the result is
//! still the unique *first* satisfying cut (cross-checked against lattice
//! search in the tests).

use std::fmt;

use wcp_clocks::Cut;
use wcp_trace::channel::{ChannelId, ChannelIndex};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport};
use crate::elimination::{Elimination, Heads};
use crate::metrics::DetectionMetrics;
use crate::snapshot::VcSnapshotQueues;
use crate::streaming::StreamingStatus;

/// A linear (monotone) predicate on one channel's in-flight message count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelPredicate {
    /// No message in flight (equivalent to `AtMost(0)`).
    Empty,
    /// At most `k` messages in flight.
    AtMost(usize),
    /// At least `k` messages in flight.
    AtLeast(usize),
}

/// Which endpoint a false channel predicate condemns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// The receiver must advance (receive more).
    Receiver,
    /// The sender must advance (send more).
    Sender,
}

impl ChannelPredicate {
    /// Evaluates the predicate on an in-flight count.
    pub fn eval(&self, in_flight: usize) -> bool {
        match *self {
            ChannelPredicate::Empty => in_flight == 0,
            ChannelPredicate::AtMost(k) => in_flight <= k,
            ChannelPredicate::AtLeast(k) => in_flight >= k,
        }
    }

    /// The endpoint condemned when the predicate is false (the linearity
    /// direction).
    pub fn blame(&self) -> Blame {
        match self {
            ChannelPredicate::Empty | ChannelPredicate::AtMost(_) => Blame::Receiver,
            ChannelPredicate::AtLeast(_) => Blame::Sender,
        }
    }
}

impl fmt::Display for ChannelPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelPredicate::Empty => write!(f, "empty"),
            ChannelPredicate::AtMost(k) => write!(f, "≤{k}"),
            ChannelPredicate::AtLeast(k) => write!(f, "≥{k}"),
        }
    }
}

/// One channel term of a GCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelTerm {
    /// The channel the term constrains.
    pub channel: ChannelId,
    /// The constraint.
    pub predicate: ChannelPredicate,
}

/// A generalized conjunctive predicate: local predicates over a scope plus
/// channel terms whose endpoints lie within that scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gcp {
    wcp: Wcp,
    channels: Vec<ChannelTerm>,
}

impl Gcp {
    /// Creates a GCP from its conjuncts.
    ///
    /// # Panics
    ///
    /// Panics if any channel endpoint is outside the WCP scope — the
    /// detector observes channel states through the endpoint monitors, so
    /// both ends must participate (as in \[6\]).
    pub fn new<I: IntoIterator<Item = ChannelTerm>>(wcp: Wcp, channels: I) -> Self {
        let channels: Vec<ChannelTerm> = channels.into_iter().collect();
        for term in &channels {
            assert!(
                wcp.contains(term.channel.from) && wcp.contains(term.channel.to),
                "channel {} endpoints must be inside the predicate scope",
                term.channel
            );
        }
        Gcp { wcp, channels }
    }

    /// The local-predicate part.
    pub fn wcp(&self) -> &Wcp {
        &self.wcp
    }

    /// The channel terms.
    pub fn channel_terms(&self) -> &[ChannelTerm] {
        &self.channels
    }

    /// Evaluates the full conjunction on a cut (local predicates and
    /// channel terms; consistency is checked separately).
    pub fn holds_on(
        &self,
        computation: &wcp_trace::Computation,
        index: &ChannelIndex,
        cut: &Cut,
    ) -> bool {
        self.wcp.holds_on(computation, cut)
            && self
                .channels
                .iter()
                .all(|t| t.predicate.eval(index.in_flight(t.channel, cut)))
    }
}

impl fmt::Display for Gcp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.wcp)?;
        for t in &self.channels {
            write!(f, " ∧ ({} {})", t.channel, t.predicate)?;
        }
        Ok(())
    }
}

/// Centralized GCP checker in the style of \[6\].
///
/// Like [`CentralizedChecker`](crate::CentralizedChecker), all work happens
/// at one checker process, which runs the one [`Elimination`] loop for
/// causal consistency; on a consistent cut it additionally repairs false
/// channel terms by consuming the blamed endpoint's candidate.
#[derive(Debug, Clone, Default)]
pub struct GcpChecker;

impl GcpChecker {
    /// Creates the checker.
    pub fn new() -> Self {
        GcpChecker
    }

    /// Detects the first consistent cut satisfying `gcp`.
    ///
    /// # Panics
    ///
    /// Panics if the predicate scope is empty, or as
    /// [`VcSnapshotQueues::build`].
    pub fn detect(&self, annotated: &AnnotatedComputation<'_>, gcp: &Gcp) -> DetectionReport {
        let wcp = gcp.wcp();
        let n = wcp.n();
        assert!(n >= 1, "GCP scope must name at least one process");
        let index = ChannelIndex::new(annotated.computation());

        let mut metrics = DetectionMetrics::new(1);
        // Candidate queues: pred-true intervals per scope process, every
        // one closed up front. Each queue's first interval is its initial
        // candidate, up to the first empty queue.
        let queues = VcSnapshotQueues::build(annotated, wcp);
        let mut rows = QueueHeads {
            queues: &queues,
            heads: vec![0; n],
        };
        metrics.snapshot_messages = queues.total_snapshots() as u64;
        // §3.4 units, as the centralized checker charges: one
        // scope-projected clock component per scope process.
        metrics.snapshot_bytes = 8 * n as u64 * metrics.snapshot_messages;
        metrics.max_buffered_snapshots = metrics.snapshot_messages;
        metrics.candidates_consumed =
            (0..n).take_while(|&i| queues.queue_len(i) > 0).count() as u64;
        let mut elimination = Elimination::new(n);
        for i in 0..n {
            elimination.close(i);
        }

        let mut term_work = 0;
        let detection = loop {
            // Phase 1: causal consistency among candidates.
            let StreamingStatus::Detected(g) = elimination.run(&mut rows) else {
                break Detection::Undetected;
            };

            // Phase 2: channel terms on the (consistent) candidate cut.
            let cut = wcp.lift(&g, annotated.process_count());
            let mut blamed = None;
            for term in gcp.channel_terms() {
                term_work += 1;
                let in_flight = index.in_flight(term.channel, &cut);
                if !term.predicate.eval(in_flight) {
                    let victim = match term.predicate.blame() {
                        Blame::Receiver => term.channel.to,
                        Blame::Sender => term.channel.from,
                    };
                    blamed = Some(wcp.position(victim).expect("endpoint in scope"));
                    break;
                }
            }
            match blamed {
                Some(i) => elimination.consume(&mut rows, i),
                None => break Detection::Detected { cut },
            }
        };
        metrics.add_work(0, elimination.work() + term_work);
        metrics.candidates_consumed += elimination.eliminated();
        metrics.finish_sequential();
        DetectionReport { detection, metrics }
    }
}

/// Phase 1's row source: one cursor per scope position into its snapshot
/// queue.
struct QueueHeads<'a> {
    queues: &'a VcSnapshotQueues,
    heads: Vec<usize>,
}

impl Heads for QueueHeads<'_> {
    type Row<'a>
        = &'a [u64]
    where
        Self: 'a;

    fn has_head(&self, i: usize) -> bool {
        self.heads[i] < self.queues.queue_len(i)
    }

    fn head(&self, j: usize) -> &[u64] {
        self.queues.clock(j, self.heads[j]).as_slice()
    }

    fn pop(&mut self, i: usize) {
        self.heads[i] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector as _;
    use wcp_clocks::ProcessId;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::lattice::LatticeExplorer;
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn term(from: u32, to: u32, predicate: ChannelPredicate) -> ChannelTerm {
        ChannelTerm {
            channel: ChannelId::new(p(from), p(to)),
            predicate,
        }
    }

    #[test]
    fn channel_predicate_eval_and_blame() {
        assert!(ChannelPredicate::Empty.eval(0));
        assert!(!ChannelPredicate::Empty.eval(1));
        assert!(ChannelPredicate::AtMost(2).eval(2));
        assert!(!ChannelPredicate::AtMost(2).eval(3));
        assert!(ChannelPredicate::AtLeast(1).eval(1));
        assert!(!ChannelPredicate::AtLeast(1).eval(0));
        assert_eq!(ChannelPredicate::Empty.blame(), Blame::Receiver);
        assert_eq!(ChannelPredicate::AtLeast(1).blame(), Blame::Sender);
        assert_eq!(ChannelPredicate::AtMost(3).to_string(), "≤3");
    }

    #[test]
    #[should_panic(expected = "inside the predicate scope")]
    fn endpoints_must_be_in_scope() {
        Gcp::new(Wcp::over([p(0)]), [term(0, 1, ChannelPredicate::Empty)]);
    }

    /// Termination-style: P0 sends work to P1; "both passive ∧ channel
    /// empty" must not fire while the message is in flight.
    #[test]
    fn empty_channel_postpones_detection() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0)); // passive before sending?? no — interval 1
        let m = b.send(p(0), p(1));
        b.mark_true(p(0)); // passive again after send (interval 2)
        b.receive(p(1), m);
        b.mark_true(p(1)); // P1 passive after processing (interval 2)
        b.set_pred(p(1), 1, true); // P1 was also passive before the work arrived
        let c = b.build().unwrap();
        let a = c.annotate();

        // Without the channel term, detection fires at ⟨1,1⟩ — a false
        // termination: the message is still in flight... actually at ⟨1,1⟩
        // nothing was sent yet, so the real trap is ⟨2,1⟩. The WCP alone
        // accepts ⟨1,1⟩.
        let wcp = Wcp::over_first(2);
        let plain = crate::CentralizedChecker::new().detect(&a, &wcp);
        assert_eq!(plain.detection.cut().unwrap().as_slice(), &[1, 1]);

        // With the channel term the checker must still accept ⟨1,1⟩ (empty
        // channel before any send)...
        let gcp = Gcp::new(wcp.clone(), [term(0, 1, ChannelPredicate::Empty)]);
        let r = GcpChecker::new().detect(&a, &gcp);
        assert_eq!(r.detection.cut().unwrap().as_slice(), &[1, 1]);

        // ...but if P0 is only passive after its send, the message is in
        // flight at ⟨2,1⟩ and detection must move to ⟨2,2⟩.
        let mut b2 = ComputationBuilder::new(2);
        let m2 = b2.send(p(0), p(1));
        b2.mark_true(p(0)); // P0 passive only after sending
        b2.receive(p(1), m2);
        b2.mark_true(p(1));
        b2.set_pred(p(1), 1, true);
        let c2 = b2.build().unwrap();
        let a2 = c2.annotate();
        let gcp2 = Gcp::new(Wcp::over_first(2), [term(0, 1, ChannelPredicate::Empty)]);
        let r2 = GcpChecker::new().detect(&a2, &gcp2);
        assert_eq!(r2.detection.cut().unwrap().as_slice(), &[2, 2], "{}", gcp2);
        // The WCP alone would have accepted ⟨2,1⟩ (in-flight message).
        let plain2 = crate::CentralizedChecker::new().detect(&a2, &Wcp::over_first(2));
        assert_eq!(plain2.detection.cut().unwrap().as_slice(), &[2, 1]);
    }

    #[test]
    fn at_least_blames_sender() {
        // Require ≥1 in flight on P0→P1 with both predicates true: P0 must
        // advance past its send.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0)); // interval 1: nothing sent yet
        b.mark_true(p(1));
        let _m = b.send(p(0), p(1)); // never received
        b.mark_true(p(0)); // interval 2: message in flight
        let c = b.build().unwrap();
        let a = c.annotate();
        let gcp = Gcp::new(
            Wcp::over_first(2),
            [term(0, 1, ChannelPredicate::AtLeast(1))],
        );
        let r = GcpChecker::new().detect(&a, &gcp);
        assert_eq!(r.detection.cut().unwrap().as_slice(), &[2, 1]);
    }

    #[test]
    fn undetected_when_channel_never_satisfiable() {
        // Require ≥1 in flight but no message is ever sent.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let a = c.annotate();
        let gcp = Gcp::new(
            Wcp::over_first(2),
            [term(0, 1, ChannelPredicate::AtLeast(1))],
        );
        let r = GcpChecker::new().detect(&a, &gcp);
        assert_eq!(r.detection, Detection::Undetected);
    }

    /// The checker agrees with exhaustive lattice search on random runs.
    #[test]
    fn agrees_with_lattice_on_random_runs() {
        for seed in 0..30 {
            let cfg = GeneratorConfig::new(4, 6)
                .with_seed(seed)
                .with_predicate_density(0.4);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let index = ChannelIndex::new(&g.computation);
            let wcp = Wcp::over_all(&g.computation);
            let gcp = Gcp::new(
                wcp.clone(),
                [
                    term(0, 1, ChannelPredicate::AtMost(1)),
                    term(1, 2, ChannelPredicate::Empty),
                ],
            );
            let via_checker = GcpChecker::new().detect(&a, &gcp);
            let via_lattice = LatticeExplorer::new(&g.computation)
                .first_satisfying_where(|cut| gcp.holds_on(&g.computation, &index, cut), 500_000)
                .expect("within budget");
            assert_eq!(
                via_checker.detection.cut().cloned(),
                via_lattice,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn gcp_display() {
        let gcp = Gcp::new(Wcp::over_first(2), [term(0, 1, ChannelPredicate::Empty)]);
        assert_eq!(gcp.to_string(), "⋀{l(P0),l(P1)} ∧ (P0→P1 empty)");
        assert_eq!(gcp.channel_terms().len(), 1);
        assert_eq!(gcp.wcp().n(), 2);
    }
}
