//! The Garg–Waldecker elimination loop (reference \[7\] of the paper),
//! written once: every checker runs it over its own row source
//! ([`Heads`]); docs/ALGORITHMS.md lists them.
//!
//! The rule: discard any queue head that happened before another head;
//! pairwise concurrent heads form the first satisfying cut. A snapshot's
//! own clock component is its interval (Figure 2), so head `i` happened
//! before head `j` iff `head(j).at(i) >= head(i).at(i)`.
//!
//! - A round needs a head on every position, costs `n` work units (the
//!   §3.4 unit) and consumes the **lowest-position** head that happened
//!   before another head; a round with no such head detects.
//! - A closed, dry queue anywhere makes the verdict
//!   [`Impossible`](StreamingStatus::Impossible).
//! - Like every Figure 3 monitor, the loop waits on an empty queue: a
//!   row changes its state only when it fills one. It counts its empty
//!   queues, and a row source that reports each row landing in an empty
//!   queue through [`Elimination::arrive`] gets the
//!   [`Pending`](StreamingStatus::Pending) answer in `O(1)` until the
//!   report that fills the last one. A row appended behind an existing
//!   head needs no call.
//! - Comparisons are amortized `O(n)` per round. A new head is compared
//!   once with every other head, then only with later new heads while it
//!   is known concurrent: clocks of a process only grow, so an eliminable
//!   head stays eliminable until consumed.
//! - Each head row is fetched once per classification, and each head's
//!   own interval is read once, when it is classified, and kept. `r`
//!   rounds over `n` positions fetch at most `n·(r + n)` head rows (one
//!   per classification plus one per column read of another head) and
//!   read at most `3n·(r + n)` clock components.

use wcp_clocks::ProcessId;

use crate::streaming::StreamingStatus;

/// One queue head's clock as [`Heads::head`] hands it out, indexed by
/// scope position.
pub trait HeadRow {
    /// The clock's component at scope position `i`.
    fn at(&self, i: usize) -> u64;
}

/// A row stored projected onto the scope.
impl HeadRow for &[u64] {
    #[inline]
    fn at(&self, i: usize) -> u64 {
        self[i]
    }
}

/// A full-width clock read through the scope: position `i` is the
/// component of process `scope[i]`.
#[derive(Debug, Clone, Copy)]
pub struct ScopedRow<'a> {
    clock: &'a [u64],
    scope: &'a [ProcessId],
}

impl<'a> ScopedRow<'a> {
    /// Views the full-width `clock` through `scope`.
    pub fn new(clock: &'a [u64], scope: &'a [ProcessId]) -> Self {
        ScopedRow { clock, scope }
    }
}

impl HeadRow for ScopedRow<'_> {
    #[inline]
    fn at(&self, i: usize) -> u64 {
        self.clock[self.scope[i].index()]
    }
}

/// A row source for [`Elimination`]: one FIFO queue of snapshot clocks per
/// scope position.
pub trait Heads {
    /// How the source hands out a head row.
    type Row<'a>: HeadRow
    where
        Self: 'a;
    /// Whether position `i`'s queue has an unconsumed head.
    fn has_head(&self, i: usize) -> bool;
    /// Position `j`'s head clock; its component `j` is the head's own
    /// interval. Called only while `j` has a head.
    fn head(&self, j: usize) -> Self::Row<'_>;
    /// Consumes position `i`'s head.
    fn pop(&mut self, i: usize);
}

/// What the loop knows about one position's current head.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Status {
    /// The queue was empty when last looked at.
    #[default]
    Absent,
    /// A head not yet compared with the others.
    Unchecked,
    /// Concurrent with every other current head.
    Concurrent,
    /// Happened before some other current head.
    Eliminable,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    status: Status,
    /// The queue will receive no more rows.
    closed: bool,
    /// The head's own interval, kept when it is classified: valid while
    /// the status is `Concurrent` or `Eliminable`.
    own: u64,
}

/// The elimination loop's state over `n` positions: one status per
/// position plus the work and elimination counters. The row source is
/// passed to every call, so it may be owned, borrowed or a locked view.
#[derive(Debug, Clone)]
pub struct Elimination {
    slots: Vec<Slot>,
    /// Positions whose status is `Absent`.
    empty: usize,
    /// Some position was [`close`](Self::close)d.
    closing: bool,
    work: u64,
    eliminated: u64,
}

impl Elimination {
    /// A loop over `n ≥ 1` positions, every queue open and empty.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one scope position");
        Elimination {
            slots: vec![Slot::default(); n],
            empty: n,
            closing: false,
            work: 0,
            eliminated: 0,
        }
    }

    /// Work units spent so far: `n` per round.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Heads consumed so far, by the rule or through
    /// [`consume`](Self::consume).
    pub fn eliminated(&self) -> u64 {
        self.eliminated
    }

    /// Declares that position `i`'s queue gets no more rows. Idempotent.
    pub fn close(&mut self, i: usize) {
        self.slots[i].closed = true;
        self.closing = true;
    }

    /// Whether position `i` was [`close`](Self::close)d.
    pub fn is_closed(&self, i: usize) -> bool {
        self.slots[i].closed
    }

    /// Runs rounds until the heads detect, a queue runs dry, or a closed
    /// queue is dry. Call it again after rows are added or a queue is
    /// closed; a [`Detected`](StreamingStatus::Detected) verdict repeats
    /// (at `n` more work) unless a head is consumed in between.
    pub fn run<H: Heads + ?Sized>(&mut self, heads: &mut H) -> StreamingStatus {
        // Unreported rows may have filled an empty queue. Look at every
        // empty position before settling for Pending: a closed, dry queue
        // anywhere means no cut can ever form.
        if self.empty > 0 {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                if slot.status == Status::Absent {
                    if heads.has_head(i) {
                        slot.status = Status::Unchecked;
                        self.empty -= 1;
                    } else if slot.closed {
                        return StreamingStatus::Impossible;
                    }
                }
            }
            if self.empty > 0 {
                return StreamingStatus::Pending;
            }
        }
        let n = self.slots.len();
        for k in 0..n {
            if self.slots[k].status == Status::Unchecked {
                self.classify(heads, k);
            }
        }
        loop {
            self.work += n as u64;
            let Some(i) = self
                .slots
                .iter()
                .position(|s| s.status == Status::Eliminable)
            else {
                return StreamingStatus::Detected(self.slots.iter().map(|s| s.own).collect());
            };
            self.consume(heads, i);
            let slot = self.slots[i];
            if slot.status == Status::Absent {
                return if slot.closed {
                    StreamingStatus::Impossible
                } else {
                    StreamingStatus::Pending
                };
            }
            self.classify(heads, i);
        }
    }

    /// Reports a row that arrived in position `i`'s queue, and answers
    /// what [`run`](Self::run) would. While another queue is still empty
    /// and no queue is closed, that is
    /// [`Pending`](StreamingStatus::Pending), told in `O(1)` without a
    /// look at the row source; otherwise the loop runs.
    ///
    /// A source that calls this for every row landing in an empty queue
    /// need not call anything for a row appended behind an existing head:
    /// the loop's last answer stands. A source that reports no rows calls
    /// `run` instead.
    pub fn arrive<H: Heads + ?Sized>(&mut self, heads: &mut H, i: usize) -> StreamingStatus {
        debug_assert!(heads.has_head(i), "position {i} reported a row it lacks");
        let slot = &mut self.slots[i];
        if slot.status == Status::Absent {
            slot.status = Status::Unchecked;
            self.empty -= 1;
        }
        if self.empty > 0 && !self.closing {
            return StreamingStatus::Pending;
        }
        self.run(heads)
    }

    /// Consumes position `i`'s head outside the rule — for a caller with
    /// its own reason to reject it, like a GCP channel term blaming that
    /// endpoint. The next [`run`](Self::run) examines the new head.
    pub fn consume<H: Heads + ?Sized>(&mut self, heads: &mut H, i: usize) {
        heads.pop(i);
        self.eliminated += 1;
        self.slots[i].status = if heads.has_head(i) {
            Status::Unchecked
        } else {
            self.empty += 1;
            Status::Absent
        };
    }

    /// Settles new head `k` against every other head, then re-examines
    /// the heads known concurrent against it: row `k` is fetched once,
    /// each other head is read at column `k` only, and each concurrent
    /// head is tested against its kept interval.
    fn classify<H: Heads + ?Sized>(&mut self, heads: &H, k: usize) {
        let row = heads.head(k);
        let own = row.at(k);
        let known = (0..self.slots.len()).any(|j| j != k && heads.head(j).at(k) >= own);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if i != k && slot.status == Status::Concurrent && row.at(i) >= slot.own {
                slot.status = Status::Eliminable;
            }
        }
        let slot = &mut self.slots[k];
        slot.own = own;
        slot.status = if known {
            Status::Eliminable
        } else {
            Status::Concurrent
        };
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::snapshot::VcSnapshotQueues;
    use wcp_clocks::ProcessId;
    use wcp_obs::rng::Rng;
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::{Computation, ComputationBuilder, Wcp};

    /// Per position, a queue of clock rows of which a prefix is pushed and
    /// a shorter prefix consumed. Counts head-row fetches and component
    /// reads.
    #[derive(Clone)]
    struct Queues {
        rows: Vec<Vec<Vec<u64>>>,
        next: Vec<usize>,
        pushed: Vec<usize>,
        fetches: Cell<u64>,
        reads: Cell<u64>,
    }

    impl Queues {
        fn new(rows: Vec<Vec<Vec<u64>>>, pushed: Vec<usize>) -> Self {
            Queues {
                next: vec![0; rows.len()],
                rows,
                pushed,
                fetches: Cell::new(0),
                reads: Cell::new(0),
            }
        }

        fn component(&self, j: usize, i: usize) -> u64 {
            self.head(j).at(i)
        }
    }

    /// A head row that counts its reads into its queues.
    struct Counted<'a> {
        row: &'a [u64],
        reads: &'a Cell<u64>,
    }

    impl HeadRow for Counted<'_> {
        fn at(&self, i: usize) -> u64 {
            self.reads.set(self.reads.get() + 1);
            self.row[i]
        }
    }

    impl Heads for Queues {
        type Row<'a> = Counted<'a>;
        fn has_head(&self, i: usize) -> bool {
            self.next[i] < self.pushed[i]
        }
        fn head(&self, j: usize) -> Counted<'_> {
            self.fetches.set(self.fetches.get() + 1);
            Counted {
                row: &self.rows[j][self.next[j]],
                reads: &self.reads,
            }
        }
        fn pop(&mut self, i: usize) {
            self.next[i] += 1;
        }
    }

    /// The reference: the re-scan every checker ran before they shared
    /// one loop, comparing every ordered pair of heads each round.
    /// Returns the status and adds to `work` and `eliminated`.
    fn rescan(q: &mut Queues, closed: &[bool], counters: &mut (u64, u64)) -> StreamingStatus {
        let n = closed.len();
        loop {
            if (0..n).any(|i| !q.has_head(i) && closed[i]) {
                return StreamingStatus::Impossible;
            }
            if (0..n).any(|i| !q.has_head(i)) {
                return StreamingStatus::Pending;
            }
            counters.0 += n as u64;
            let before =
                |i: usize| (0..n).any(|j| j != i && q.component(j, i) >= q.component(i, i));
            match (0..n).find(|&i| before(i)) {
                Some(i) => {
                    q.pop(i);
                    counters.1 += 1;
                }
                None => {
                    return StreamingStatus::Detected((0..n).map(|i| q.component(i, i)).collect())
                }
            }
        }
    }

    /// How a case hands its rows to the loop.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Feed {
        /// All rows pushed and every queue closed up front, one run: the
        /// offline checker.
        Offline,
        /// `run` after every push and close.
        Run,
        /// `arrive` for a row that fills an empty queue, no call for one
        /// behind a head, `run` after a close: a session.
        Filling,
        /// `arrive` after every push, `run` after a close: the streaming
        /// checker.
        Every,
    }

    /// Drives the loop and the re-scan through the same pushes and closes
    /// over random queues whose clocks only grow, each row's own component
    /// its interval, and asserts that status, `work` and `eliminated`
    /// agree after every push and close. Rows reach the loop each of the
    /// ways of [`Feed`]; a push that makes no call answers the last
    /// status.
    #[test]
    fn matches_the_rescan_over_random_interleavings() {
        let mut rng = Rng::seed_from_u64(19);
        let feeds = [Feed::Offline, Feed::Run, Feed::Filling, Feed::Every];
        // Pushes behind a head that made no call.
        let mut skipped = 0;
        for case in 0..800 {
            let feed = feeds[case % feeds.len()];
            let n = rng.gen_range(1usize..7);
            let rows: Vec<Vec<Vec<u64>>> = (0..n)
                .map(|p| {
                    let mut clock = vec![0u64; n];
                    (0..rng.gen_range(0usize..8))
                        .map(|_| {
                            for (q, c) in clock.iter_mut().enumerate() {
                                *c += rng.gen_range(u64::from(q == p)..2 + u64::from(q == p));
                            }
                            clock.clone()
                        })
                        .collect()
                })
                .collect();
            let offline = feed == Feed::Offline;
            let full: Vec<usize> = rows.iter().map(Vec::len).collect();
            let pushed = if offline { full.clone() } else { vec![0; n] };
            let mut a = Queues::new(rows, pushed);
            let mut b = a.clone();
            let (mut elimination, mut closed, mut counters) =
                (Elimination::new(n), vec![false; n], (0, 0));
            let mut last = StreamingStatus::Pending;
            loop {
                let open: Vec<usize> = (0..n).filter(|&i| !closed[i]).collect();
                if open.is_empty() {
                    break;
                }
                let pos = open[rng.gen_range(0..open.len())];
                let got = if offline || a.pushed[pos] == full[pos] {
                    elimination.close(pos);
                    closed[pos] = true;
                    if offline && closed.iter().any(|&c| !c) {
                        continue;
                    }
                    elimination.run(&mut a)
                } else {
                    let filled = !a.has_head(pos);
                    a.pushed[pos] += 1;
                    b.pushed[pos] += 1;
                    match feed {
                        Feed::Filling if !filled => {
                            skipped += 1;
                            last.clone()
                        }
                        Feed::Filling | Feed::Every => elimination.arrive(&mut a, pos),
                        Feed::Run | Feed::Offline => elimination.run(&mut a),
                    }
                };
                assert_eq!(got, rescan(&mut b, &closed, &mut counters), "case {case}");
                assert_eq!(
                    (elimination.work(), elimination.eliminated()),
                    counters,
                    "case {case}"
                );
                if matches!(got, StreamingStatus::Detected(_)) {
                    break;
                }
                last = got;
            }
        }
        assert!(skipped > 1000, "only {skipped} pushes landed behind a head");
    }

    /// An arrival into one of several empty queues, and one behind a
    /// head, fetch no row and read no component; the arrival that fills
    /// the last empty queue runs the loop.
    #[test]
    fn arrivals_before_the_last_empty_queue_fills_read_nothing() {
        let rows = vec![
            vec![vec![1, 0, 0], vec![2, 0, 0]],
            vec![vec![0, 1, 0]],
            vec![vec![0, 0, 1]],
        ];
        let mut q = Queues::new(rows, vec![0; 3]);
        let mut elimination = Elimination::new(3);
        for pos in [0, 0, 1] {
            q.pushed[pos] += 1;
            assert_eq!(elimination.arrive(&mut q, pos), StreamingStatus::Pending);
            assert_eq!((q.fetches.get(), q.reads.get()), (0, 0));
        }
        q.pushed[2] += 1;
        assert_eq!(
            elimination.arrive(&mut q, 2),
            StreamingStatus::Detected(vec![1, 1, 1])
        );
        assert!(q.fetches.get() > 0);
        assert_eq!(elimination.work(), 3);
    }

    /// The Theorem 5.1 staircase: a token circles the ring `rounds` times,
    /// each holder's predicate true while it holds it, then a final
    /// barrier of concurrent true intervals.
    fn staircase(n: usize, rounds: usize) -> Computation {
        let mut b = ComputationBuilder::new(n);
        for step in 0..rounds * n {
            let (holder, next) = (
                ProcessId::new((step % n) as u32),
                ProcessId::new(((step + 1) % n) as u32),
            );
            b.mark_true(holder);
            let m = b.send(holder, next);
            b.receive(next, m);
        }
        for p in ProcessId::all(n) {
            b.mark_true(p);
        }
        b.build().unwrap()
    }

    #[test]
    fn comparisons_are_amortized_linear_per_round() {
        let uniform = GeneratorConfig::new(128, 24)
            .with_seed(1)
            .with_predicate_density(0.2)
            .with_plant(0.8);
        for c in [staircase(32, 20), generate(&uniform).computation] {
            let (annotated, wcp) = (c.annotate(), Wcp::over_all(&c));
            let queues = VcSnapshotQueues::build(&annotated, &wcp);
            let n = wcp.n();
            let rows: Vec<Vec<Vec<u64>>> = (0..n)
                .map(|i| {
                    (0..queues.queue_len(i))
                        .map(|k| queues.clock(i, k).as_slice().to_vec())
                        .collect()
                })
                .collect();
            let pushed = rows.iter().map(Vec::len).collect();
            let mut q = Queues::new(rows, pushed);
            let mut elimination = Elimination::new(n);
            (0..n).for_each(|i| elimination.close(i));
            assert!(matches!(
                elimination.run(&mut q),
                StreamingStatus::Detected(_)
            ));
            let (n, rounds) = (n as u64, elimination.work() / n as u64);
            assert!(rounds > n, "only {rounds} rounds over {n} positions");
            let (fetches, reads) = (q.fetches.get(), q.reads.get());
            assert!(
                fetches <= n * (rounds + n),
                "{fetches} row fetches for {rounds} rounds over {n} positions"
            );
            assert!(
                reads <= 3 * n * (rounds + n),
                "{reads} reads for {rounds} rounds over {n} positions"
            );
        }
    }
}
