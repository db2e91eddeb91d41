//! Streaming (incremental) WCP detection.
//!
//! The offline detectors consume a finished trace; the online actors own
//! their transport. This module provides the third integration style: a
//! **push-based** checker that an application embeds directly — feed it
//! Figure 2 snapshots in per-process FIFO order as they are produced, and
//! it reports the first satisfying cut the moment one exists. It runs the
//! one [`Elimination`] loop over per-position snapshot buffers, so each
//! round costs `n` work units and amortized `O(n)` comparisons, exactly
//! the centralized checker's budget. While every position is open, a
//! push that does not fill the last empty queue answers in `O(1)`.
//!
//! This is how a monitoring sidecar or test harness would consume the
//! library in production: no simulator, no trace files.
//!
//! # Example
//!
//! ```rust
//! use wcp_clocks::VectorClock;
//! use wcp_detect::{StreamingChecker, StreamingStatus};
//! use wcp_detect::VcSnapshot;
//!
//! let mut checker = StreamingChecker::new(2);
//! // P0's predicate true in its interval 2, clock [2,0]:
//! let s0 = VcSnapshot { interval: 2, clock: VectorClock::from_components(vec![2, 0]) };
//! assert_eq!(checker.push(0, s0), StreamingStatus::Pending);
//! // P1's predicate true in its interval 1, clock [0,1] — concurrent:
//! let s1 = VcSnapshot { interval: 1, clock: VectorClock::from_components(vec![0, 1]) };
//! match checker.push(1, s1) {
//!     StreamingStatus::Detected(g) => assert_eq!(g, vec![2, 1]),
//!     other => panic!("expected detection, got {other:?}"),
//! }
//! ```

use std::fmt;

use crate::elimination::{Elimination, Heads};
use crate::snapshot::{SnapshotBuffer, VcSnapshot};

/// Result of pushing one snapshot into a [`StreamingChecker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingStatus {
    /// No satisfying cut exists among the snapshots seen so far; more input
    /// may change that.
    Pending,
    /// The first satisfying cut: the candidate interval per scope position.
    Detected(Vec<u64>),
    /// A previous push already detected; further input is ignored.
    AlreadyDetected,
    /// [`StreamingChecker::close`] was called on some position whose queue
    /// ran dry: no cut can ever form.
    Impossible,
}

impl fmt::Display for StreamingStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamingStatus::Pending => write!(f, "pending"),
            StreamingStatus::Detected(g) => write!(f, "detected {g:?}"),
            StreamingStatus::AlreadyDetected => write!(f, "already detected"),
            StreamingStatus::Impossible => write!(f, "impossible"),
        }
    }
}

/// Incremental centralized checker over `n` scope positions.
///
/// Snapshots must arrive in per-position FIFO order (increasing
/// `interval`), matching the paper's FIFO application→checker channels;
/// interleaving across positions is arbitrary.
#[derive(Debug, Clone)]
pub struct StreamingChecker {
    queues: Vec<SnapshotBuffer>,
    elimination: Elimination,
    last_interval: Vec<u64>,
    detected: Option<Vec<u64>>,
    /// Snapshots pushed; those not yet eliminated are buffered.
    pushed: u64,
    peak_buffered: u64,
}

impl Heads for [SnapshotBuffer] {
    type Row<'a> = &'a [u64];

    fn has_head(&self, i: usize) -> bool {
        !self[i].is_empty()
    }

    fn head(&self, j: usize) -> &[u64] {
        let q = &self[j];
        q.row(q.front().expect("position has a head")).as_slice()
    }

    fn pop(&mut self, i: usize) {
        self[i].pop();
    }
}

impl StreamingChecker {
    /// A checker over `n ≥ 1` scope positions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        StreamingChecker {
            queues: (0..n).map(|_| SnapshotBuffer::new(n)).collect(),
            elimination: Elimination::new(n),
            last_interval: vec![0; n],
            detected: None,
            pushed: 0,
            peak_buffered: 0,
        }
    }

    /// Number of scope positions.
    pub fn width(&self) -> usize {
        self.queues.len()
    }

    /// Total comparison work performed so far (the §3.4 unit).
    pub fn work(&self) -> u64 {
        self.elimination.work()
    }

    /// Largest number of snapshots ever buffered simultaneously.
    pub fn peak_buffered(&self) -> u64 {
        self.peak_buffered
    }

    /// Snapshots of position `pos` buffered and not yet eliminated.
    pub fn queued(&self, pos: usize) -> usize {
        self.queues[pos].len()
    }

    /// Whether position `pos` was [`close`](Self::close)d.
    pub fn is_closed(&self, pos: usize) -> bool {
        self.elimination.is_closed(pos)
    }

    /// Pushes the next snapshot of scope position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range, the position was
    /// [`close`](Self::close)d, the snapshot's clock width differs from
    /// `n`, FIFO order is violated (non-increasing intervals), or the
    /// snapshot's own clock component differs from its interval (the
    /// Figure 2 protocol makes them equal).
    pub fn push(&mut self, pos: usize, snapshot: VcSnapshot) -> StreamingStatus {
        assert!(pos < self.width(), "position {pos} out of range");
        assert!(!self.is_closed(pos), "position {pos} is closed");
        assert_eq!(
            snapshot.clock.len(),
            self.width(),
            "snapshot clock width must equal the scope size"
        );
        assert!(
            snapshot.interval > self.last_interval[pos],
            "snapshots must arrive in increasing interval order"
        );
        assert_eq!(
            snapshot.clock.as_slice()[pos],
            snapshot.interval,
            "a snapshot's own clock component must equal its interval"
        );
        if self.detected.is_some() {
            return StreamingStatus::AlreadyDetected;
        }
        self.last_interval[pos] = snapshot.interval;
        self.queues[pos].push(&snapshot);
        self.pushed += 1;
        let buffered = self.pushed - self.elimination.eliminated();
        self.peak_buffered = self.peak_buffered.max(buffered);
        let status = self.elimination.arrive(self.queues.as_mut_slice(), pos);
        self.settle(status)
    }

    /// Declares that position `pos` will produce no more snapshots (end of
    /// trace). If its queue is ever exhausted afterwards, detection is
    /// [`StreamingStatus::Impossible`].
    ///
    /// All close orders are well-defined: closing before any push reports
    /// [`StreamingStatus::Impossible`] immediately (the dry closed queue
    /// can never refill), closing a position whose buffered snapshots
    /// detect later still detects, closing twice is idempotent, and a
    /// verdict reached earlier is never overwritten —
    /// [`StreamingStatus::AlreadyDetected`] wins over a subsequent close,
    /// and `Impossible` is sticky.
    pub fn close(&mut self, pos: usize) -> StreamingStatus {
        assert!(pos < self.width(), "position {pos} out of range");
        self.elimination.close(pos);
        if self.detected.is_some() {
            return StreamingStatus::AlreadyDetected;
        }
        let status = self.elimination.run(self.queues.as_mut_slice());
        self.settle(status)
    }

    /// The detected cut, if any push reported one.
    pub fn detected(&self) -> Option<&[u64]> {
        self.detected.as_deref()
    }

    /// Keeps a detected cut. A closed queue never refills, so once a
    /// closed queue is dry every later answer is `Impossible` again.
    fn settle(&mut self, status: StreamingStatus) -> StreamingStatus {
        if let StreamingStatus::Detected(g) = &status {
            self.detected = Some(g.clone());
        }
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::vc_snapshot_queues;
    use crate::{CentralizedChecker, Detection, Detector};
    use wcp_obs::rng::Rng;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::Wcp;

    /// Feed all snapshots of a generated run in a random (per-position
    /// FIFO-respecting) interleaving and compare with the batch checker.
    fn stream_run(seed: u64, interleave_seed: u64) -> (Option<Vec<u64>>, Option<Vec<u64>>) {
        let cfg = GeneratorConfig::new(5, 10)
            .with_seed(seed)
            .with_predicate_density(0.3);
        let g = generate(&cfg);
        let wcp = Wcp::over_first(5);
        let annotated = g.computation.annotate();
        let queues = vc_snapshot_queues(&annotated, &wcp);

        // Build a random interleaving: a bag of position labels, one per
        // snapshot, shuffled; per-position order is preserved by indexing.
        let mut labels: Vec<usize> = queues
            .iter()
            .enumerate()
            .flat_map(|(i, q)| std::iter::repeat_n(i, q.len()))
            .collect();
        let mut rng = Rng::seed_from_u64(interleave_seed);
        rng.shuffle(&mut labels);

        let mut checker = StreamingChecker::new(5);
        let mut next = [0usize; 5];
        let mut streamed = None;
        for pos in labels {
            let s = queues[pos][next[pos]].clone();
            next[pos] += 1;
            if let StreamingStatus::Detected(cut) = checker.push(pos, s) {
                streamed = Some(cut);
                break;
            }
        }
        if streamed.is_none() {
            for pos in 0..5 {
                if let StreamingStatus::Detected(cut) = checker.close(pos) {
                    streamed = Some(cut);
                    break;
                }
            }
        }

        let batch = CentralizedChecker::new().detect(&annotated, &wcp);
        let batch_cut = match batch.detection {
            Detection::Detected { cut } => Some(wcp.project(&cut)),
            Detection::Undetected => None,
        };
        (streamed, batch_cut)
    }

    #[test]
    fn streaming_matches_batch_over_random_interleavings() {
        for seed in 0..20 {
            for interleave in 0..3 {
                let (streamed, batch) = stream_run(seed, interleave * 31 + 7);
                assert_eq!(streamed, batch, "seed {seed} interleave {interleave}");
            }
        }
    }

    #[test]
    fn detects_at_the_earliest_possible_push() {
        use wcp_clocks::VectorClock;
        let mut c = StreamingChecker::new(2);
        assert_eq!(
            c.push(
                0,
                VcSnapshot {
                    interval: 1,
                    clock: VectorClock::from_components(vec![1, 0])
                }
            ),
            StreamingStatus::Pending
        );
        let status = c.push(
            1,
            VcSnapshot {
                interval: 1,
                clock: VectorClock::from_components(vec![0, 1]),
            },
        );
        assert_eq!(status, StreamingStatus::Detected(vec![1, 1]));
        assert_eq!(c.detected(), Some(&[1, 1][..]));
        // Further input reports AlreadyDetected.
        assert_eq!(
            c.push(
                0,
                VcSnapshot {
                    interval: 2,
                    clock: VectorClock::from_components(vec![2, 0])
                }
            ),
            StreamingStatus::AlreadyDetected
        );
    }

    #[test]
    fn close_makes_detection_impossible() {
        use wcp_clocks::VectorClock;
        let mut c = StreamingChecker::new(2);
        c.push(
            0,
            VcSnapshot {
                interval: 1,
                clock: VectorClock::from_components(vec![1, 0]),
            },
        );
        assert_eq!(c.close(1), StreamingStatus::Impossible);
        // And it stays impossible.
        assert_eq!(
            c.push(
                0,
                VcSnapshot {
                    interval: 2,
                    clock: VectorClock::from_components(vec![2, 0])
                }
            ),
            StreamingStatus::Impossible
        );
    }

    #[test]
    fn close_before_any_push_is_impossible() {
        // Regression: the head-set scan used to stop at the first empty
        // *open* queue and report Pending, hiding a later closed-and-dry
        // position. With no pushes at all, closing any position must
        // settle the verdict immediately.
        let mut c = StreamingChecker::new(2);
        assert_eq!(c.close(1), StreamingStatus::Impossible);
        assert_eq!(c.detected(), None);
    }

    #[test]
    fn close_on_buffered_position_still_detects() {
        use wcp_clocks::VectorClock;
        let mut c = StreamingChecker::new(2);
        assert_eq!(
            c.push(
                0,
                VcSnapshot {
                    interval: 1,
                    clock: VectorClock::from_components(vec![1, 0])
                }
            ),
            StreamingStatus::Pending
        );
        // Closing P0 is fine while its snapshot is still buffered …
        assert_eq!(c.close(0), StreamingStatus::Pending);
        // … and the buffered snapshot still participates in detection.
        let status = c.push(
            1,
            VcSnapshot {
                interval: 1,
                clock: VectorClock::from_components(vec![0, 1]),
            },
        );
        assert_eq!(status, StreamingStatus::Detected(vec![1, 1]));
    }

    #[test]
    fn double_close_is_stable() {
        let mut c = StreamingChecker::new(2);
        assert_eq!(c.close(0), StreamingStatus::Impossible);
        assert_eq!(c.close(0), StreamingStatus::Impossible);
        assert_eq!(c.close(1), StreamingStatus::Impossible);
    }

    #[test]
    fn impossible_never_overwrites_detected() {
        use wcp_clocks::VectorClock;
        let mut c = StreamingChecker::new(2);
        c.push(
            0,
            VcSnapshot {
                interval: 1,
                clock: VectorClock::from_components(vec![1, 0]),
            },
        );
        let status = c.push(
            1,
            VcSnapshot {
                interval: 1,
                clock: VectorClock::from_components(vec![0, 1]),
            },
        );
        assert_eq!(status, StreamingStatus::Detected(vec![1, 1]));
        // Closing (even twice) after detection reports AlreadyDetected and
        // leaves the verdict in place.
        assert_eq!(c.close(0), StreamingStatus::AlreadyDetected);
        assert_eq!(c.close(0), StreamingStatus::AlreadyDetected);
        assert_eq!(c.detected(), Some(&[1, 1][..]));
    }

    #[test]
    #[should_panic(expected = "increasing interval order")]
    fn fifo_violation_panics() {
        use wcp_clocks::VectorClock;
        let mut c = StreamingChecker::new(1);
        let s = VcSnapshot {
            interval: 2,
            clock: VectorClock::from_components(vec![2]),
        };
        c.push(0, s.clone());
        c.push(0, s);
    }

    #[test]
    fn work_and_buffering_are_tracked() {
        let (_, _) = stream_run(3, 1);
        let mut c = StreamingChecker::new(1);
        use wcp_clocks::VectorClock;
        c.push(
            0,
            VcSnapshot {
                interval: 1,
                clock: VectorClock::from_components(vec![1]),
            },
        );
        assert!(c.work() >= 1);
        assert_eq!(c.peak_buffered(), 1);
        assert_eq!(c.width(), 1);
    }
}
