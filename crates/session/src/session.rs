//! Per-predicate session state: streaming elimination over shared rows.
//!
//! A session runs the one [`Elimination`] loop — the centralized
//! checker's, at `n` work units and amortized `O(n)` comparisons per
//! round — over the [`SharedStore`](crate::SharedStore): instead of
//! buffering scope-projected snapshot copies, it keeps one `(head, tail)`
//! cursor pair per scope position into the owning process's arena. The scope projection is never materialized: position
//! `i`'s component of a head is read straight out of the full-width
//! stored clock at index `scope[i]`, and a snapshot's interval is its own
//! clock component (the Figure 2 protocol guarantees `clock[p] == k` for
//! `p`'s interval-`k` snapshot).
//!
//! The loop is the one [`StreamingChecker`](wcp_detect::StreamingChecker)
//! runs, fed the same rows in the same order, and detection freezes every
//! counter, so per-session [`DetectionMetrics`] equal a standalone run in
//! every field. A routed snapshot that lands behind an existing head
//! only moves its position's tail cursor and the session's counters; one
//! that fills an empty queue is reported to the loop
//! ([`Elimination::arrive`]), which runs its rounds only once no queue is
//! empty.

use std::fmt;

use wcp_clocks::ProcessId;
use wcp_detect::{DetectionMetrics, Elimination, Heads, ScopedRow, StreamingStatus};

use crate::store::StoreView;

/// Final outcome of one session over a finite stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionVerdict {
    /// The first satisfying cut: the candidate interval per scope
    /// position, in scope order.
    Detected(Vec<u64>),
    /// Some scope position's stream ended with its queue dry: no
    /// satisfying cut exists in this computation.
    Impossible,
}

impl SessionVerdict {
    /// The detected cut over scope positions, or `None` for
    /// [`Impossible`](SessionVerdict::Impossible) — the shape carried by
    /// `MULTI_VERDICT` frames.
    pub fn cut(&self) -> Option<&[u64]> {
        match self {
            SessionVerdict::Detected(g) => Some(g),
            SessionVerdict::Impossible => None,
        }
    }
}

impl fmt::Display for SessionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionVerdict::Detected(g) => write!(f, "detected {g:?}"),
            SessionVerdict::Impossible => write!(f, "impossible"),
        }
    }
}

/// Detection state of one registered predicate.
#[derive(Debug)]
pub struct SessionState {
    /// Scope processes, sorted ascending (`Wcp` order).
    scope: Vec<ProcessId>,
    /// Per scope position: the next unconsumed arena row and one past the
    /// last routed one.
    cursors: Vec<(usize, usize)>,
    /// The loop's per-position state, closed flags included.
    elimination: Elimination,
    verdict: Option<SessionVerdict>,
    peak_buffered: u64,
    /// Routed snapshots; those the loop has not consumed are buffered.
    snapshot_messages: u64,
}

/// The loop's row source: a session's cursors over the store.
struct Cursors<'a> {
    scope: &'a [ProcessId],
    cursors: &'a mut [(usize, usize)],
    view: &'a StoreView<'a>,
}

impl Heads for Cursors<'_> {
    type Row<'a>
        = ScopedRow<'a>
    where
        Self: 'a;

    fn has_head(&self, i: usize) -> bool {
        self.cursors[i].0 < self.cursors[i].1
    }

    fn head(&self, j: usize) -> ScopedRow<'_> {
        ScopedRow::new(
            self.view.row(self.scope[j].index(), self.cursors[j].0),
            self.scope,
        )
    }

    fn pop(&mut self, i: usize) {
        self.cursors[i].0 += 1;
    }
}

impl SessionState {
    /// Fresh state over a non-empty sorted scope.
    pub(crate) fn new(scope: &[ProcessId]) -> Self {
        assert!(!scope.is_empty(), "predicate scope must be non-empty");
        let n = scope.len();
        SessionState {
            scope: scope.to_vec(),
            cursors: vec![(0, 0); n],
            elimination: Elimination::new(n),
            verdict: None,
            peak_buffered: 0,
            snapshot_messages: 0,
        }
    }

    /// Whether the session has reached a final verdict; resolved sessions
    /// ignore further routed events and their counters are frozen.
    pub(crate) fn resolved(&self) -> bool {
        self.verdict.is_some()
    }

    /// The final verdict, once resolved.
    pub(crate) fn verdict(&self) -> Option<&SessionVerdict> {
        self.verdict.as_ref()
    }

    /// Accepts the next routed snapshot of scope position `pos` (its row
    /// index is implied: rows arrive dense and in order). Returns the
    /// verdict iff this event resolved the session.
    pub(crate) fn on_snapshot(
        &mut self,
        pos: usize,
        view: &StoreView<'_>,
    ) -> Option<SessionVerdict> {
        debug_assert!(!self.resolved(), "resolved sessions must be skipped");
        debug_assert!(!self.elimination.is_closed(pos), "snapshot after close");
        let (head, tail) = &mut self.cursors[pos];
        let filled = *head == *tail;
        *tail += 1;
        self.snapshot_messages += 1;
        let buffered = self.snapshot_messages - self.elimination.eliminated();
        self.peak_buffered = self.peak_buffered.max(buffered);
        if !filled {
            // Behind an existing head: the loop's last answer, Pending,
            // stands.
            return None;
        }
        let (elimination, mut cursors) = self.split(view);
        let status = elimination.arrive(&mut cursors, pos);
        self.settle(status)
    }

    /// Declares scope position `pos`'s stream finished.
    pub(crate) fn on_close(&mut self, pos: usize, view: &StoreView<'_>) -> Option<SessionVerdict> {
        debug_assert!(!self.resolved(), "resolved sessions must be skipped");
        self.elimination.close(pos);
        let (elimination, mut cursors) = self.split(view);
        let status = elimination.run(&mut cursors);
        self.settle(status)
    }

    /// The loop and its row source over `view`.
    fn split<'a>(&'a mut self, view: &'a StoreView<'a>) -> (&'a mut Elimination, Cursors<'a>) {
        let cursors = Cursors {
            scope: &self.scope,
            cursors: &mut self.cursors,
            view,
        };
        (&mut self.elimination, cursors)
    }

    /// Keeps a final verdict and returns it.
    fn settle(&mut self, status: StreamingStatus) -> Option<SessionVerdict> {
        self.verdict = match status {
            StreamingStatus::Detected(g) => Some(SessionVerdict::Detected(g)),
            StreamingStatus::Impossible => Some(SessionVerdict::Impossible),
            StreamingStatus::Pending | StreamingStatus::AlreadyDetected => None,
        };
        self.verdict.clone()
    }

    /// Paper-unit metrics for this session, identical in every field to a
    /// standalone run of the same predicate over the same stream.
    pub(crate) fn metrics(&self) -> DetectionMetrics {
        let mut m = DetectionMetrics::new(1);
        m.add_work(0, self.elimination.work());
        m.snapshot_messages = self.snapshot_messages;
        // §3.4 units: one scope-projected clock component per scope process.
        m.snapshot_bytes = 8 * self.scope.len() as u64 * self.snapshot_messages;
        m.max_buffered_snapshots = self.peak_buffered;
        m.candidates_consumed = self.elimination.eliminated();
        m.finish_sequential();
        m
    }
}
