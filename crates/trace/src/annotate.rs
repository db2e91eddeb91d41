//! Clock annotation and happened-before queries over a computation, and
//! the Figure 2 snapshot queues built from it.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use wcp_clocks::{ClockArena, ClockRow, Cut, Dependence, ProcessId, StateId};

use crate::computation::{Computation, ComputationError};
use crate::predicate::Wcp;

/// Most `u64` components one clock table may hold: 2^27 cells, or 1 GiB.
///
/// Every table is checked against it before anything is allocated, so a
/// small trace file over many processes gets
/// [`ComputationError::ClockBudget`] instead of an allocation it cannot
/// pay for.
pub const CLOCK_CELL_BUDGET: u64 = 1 << 27;

/// A [`Computation`] replayed once, with what every detector needs and no
/// vector clock.
///
/// Construction replays the computation once (in the greedy valid
/// interleaving of [`Computation::validate`]), validating it on the way,
/// and keeps what costs `O(N + E)`:
///
/// - the replay order, one step per event, with each message's clock
///   routed through a recycled slot while it is in flight;
/// - the direct dependence recorded when each interval `(i, k)` began (from
///   the receive event that started it), if any: Section 4.1's dependence
///   list is the union of these over the intervals since the last
///   snapshot;
/// - the pred-true intervals of every process.
///
/// Vector clocks are built from the replay order only when a reader asks:
///
/// - [`VcSnapshotQueues::build`] propagates the `n` columns of a
///   predicate's scope and keeps a row for each pred-true interval of a
///   scope process only: the Figure 2 snapshots, `vclock: array[1..n]`.
///   The annotation keeps the first scope's queues, so every detector
///   run over that predicate shares one build;
/// - [`clock`](Self::clock), [`happened_before`](Self::happened_before)
///   and the full-cut references read the `N`-wide table of every
///   interval, built once on first use. Once it exists, queue builds
///   project it instead of replaying.
///
/// [`check_scope_clocks`](Self::check_scope_clocks) and
/// [`check_full_clocks`](Self::check_full_clocks) tell, without
/// allocating, whether a table fits [`CLOCK_CELL_BUDGET`]; a build over
/// it panics.
///
/// # Example
///
/// ```rust
/// use wcp_clocks::{ProcessId, StateId};
/// use wcp_trace::ComputationBuilder;
///
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
/// let mut b = ComputationBuilder::new(2);
/// let m = b.send(p0, p1);
/// b.receive(p1, m);
/// let c = b.build()?;
/// let a = c.annotate();
/// assert!(a.happened_before(StateId::new(p0, 1), StateId::new(p1, 2)));
/// assert!(a.concurrent(StateId::new(p0, 1), StateId::new(p1, 1)));
/// # Ok::<(), wcp_trace::ComputationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnnotatedComputation<'a> {
    computation: &'a Computation,
    /// Index of each process's first interval among all intervals, then
    /// the interval count: interval `(i, k)` has index
    /// `first_interval[i] + k - 1`.
    first_interval: Vec<usize>,
    /// Dependence recorded when each interval began, by interval index.
    deps: Vec<Option<Dependence>>,
    /// Sorted pred-true interval indices per process.
    true_intervals: Vec<Vec<u64>>,
    /// Every event in replay order.
    steps: Vec<Step>,
    /// Message slots the replay keeps in flight at once, at most.
    slots: usize,
    /// The `N`-wide clock of every interval, row = interval index.
    full: OnceLock<ClockArena>,
    /// The first scope's snapshot queues, handed to later builds of it.
    queues: OnceLock<(Vec<ProcessId>, VcSnapshotQueues)>,
}

/// One event of the replay: its process and what it does with a message
/// slot.
#[derive(Debug, Clone, Copy)]
struct Step {
    process: u32,
    link: Link,
}

#[derive(Debug, Clone, Copy)]
enum Link {
    /// A send no process receives: no clock needs what it carries.
    Unreceived,
    /// A send: the clock it carries waits in this slot for the receive.
    Send(u32),
    /// A receive: joins the clock in this slot, which is then free.
    Receive(u32),
}

impl<'a> AnnotatedComputation<'a> {
    /// Replays `computation` and records the replay order, dependences and
    /// pred-true intervals. Allocates no clock.
    ///
    /// # Panics
    ///
    /// Panics if the computation is invalid (see
    /// [`Computation::validate`]); validate untrusted input first.
    pub fn new(computation: &'a Computation) -> Self {
        let n = computation.process_count();
        let mut first_interval = Vec::with_capacity(n + 1);
        let mut intervals = 0;
        for trace in computation.traces() {
            first_interval.push(intervals);
            intervals += trace.interval_count();
        }
        first_interval.push(intervals);

        // A step names a message by its send's global event index until
        // slots are assigned below; process `i`'s events start at
        // `first_interval[i] - i`.
        let events = intervals - n;
        let event = |p: ProcessId, e: usize| {
            u32::try_from(first_interval[p.index()] - p.index() + e).expect("under 2^32 events")
        };
        let mut deps = vec![None; intervals];
        let mut steps = Vec::with_capacity(events);
        computation
            .replay(|p, e, send| {
                let link = match send {
                    Some((from, j)) => {
                        deps[first_interval[p.index()] + e + 1] =
                            Some(Dependence::new(from, j as u64 + 1));
                        Link::Receive(event(from, j))
                    }
                    None => Link::Send(event(p, e)),
                };
                steps.push(Step {
                    process: p.index() as u32,
                    link,
                });
            })
            .expect("cannot annotate an invalid computation");

        // Slots: a received send takes a free slot, its receive frees it.
        const UNRECEIVED: u32 = u32::MAX;
        let mut slot_of = vec![UNRECEIVED; events];
        for step in &steps {
            if let Link::Receive(send) = step.link {
                slot_of[send as usize] = 0;
            }
        }
        let (mut free, mut slots) = (Vec::new(), 0);
        for step in &mut steps {
            step.link = match step.link {
                Link::Send(send) if slot_of[send as usize] == UNRECEIVED => Link::Unreceived,
                Link::Send(send) => {
                    let slot = free.pop().unwrap_or_else(|| {
                        slots += 1;
                        slots - 1
                    });
                    slot_of[send as usize] = slot;
                    Link::Send(slot)
                }
                Link::Receive(send) => {
                    free.push(slot_of[send as usize]);
                    Link::Receive(slot_of[send as usize])
                }
                Link::Unreceived => Link::Unreceived,
            };
        }

        let true_intervals = computation
            .traces()
            .iter()
            .map(|t| {
                t.pred
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, &f)| f.then_some(idx as u64 + 1))
                    .collect()
            })
            .collect();

        AnnotatedComputation {
            computation,
            first_interval,
            deps,
            true_intervals,
            steps,
            slots: slots as usize,
            full: OnceLock::new(),
            queues: OnceLock::new(),
        }
    }

    /// The underlying computation.
    pub fn computation(&self) -> &'a Computation {
        self.computation
    }

    /// Number of processes (`N`).
    pub fn process_count(&self) -> usize {
        self.computation.process_count()
    }

    /// Number of intervals of process `p`.
    pub fn interval_count(&self, p: ProcessId) -> u64 {
        (self.first_interval[p.index() + 1] - self.first_interval[p.index()]) as u64
    }

    /// Index of state `s` among all intervals.
    fn interval(&self, s: StateId) -> usize {
        assert!(s.index >= 1, "interval indices are 1-based");
        let count = self.interval_count(s.process);
        assert!(
            s.index <= count,
            "state {s} out of range: {} has {count} intervals",
            s.process
        );
        self.first_interval[s.process.index()] + (s.index - 1) as usize
    }

    /// Checks that the `N`-wide table of every interval's clock fits
    /// [`CLOCK_CELL_BUDGET`], without building it.
    ///
    /// # Errors
    ///
    /// [`ComputationError::ClockBudget`] if it does not.
    pub fn check_full_clocks(&self) -> Result<(), ComputationError> {
        let n = self.process_count();
        within_budget(n, &[self.first_interval[n]])
    }

    /// The `N`-wide table of every interval's clock, row = interval index,
    /// built on first use and kept.
    ///
    /// # Panics
    ///
    /// Panics if the table does not fit [`CLOCK_CELL_BUDGET`]; nothing is
    /// allocated then.
    fn full_clocks(&self) -> &ClockArena {
        self.full.get_or_init(|| {
            self.check_full_clocks().unwrap_or_else(|e| panic!("{e}"));
            self.build_full()
        })
    }

    /// Figure 2's protocol over all `N` columns, every interval stored:
    /// interval `(i, k + 1)` copies `(i, k)`, joins the clock of the
    /// sender's interval before its send (the dependence it recorded) and
    /// ticks.
    fn build_full(&self) -> ClockArena {
        let n = self.process_count();
        let mut clocks = ClockArena::zeroed(n, self.first_interval[n]);
        let mut at = self.first_interval[..n].to_vec();
        for (i, &first) in at.iter().enumerate() {
            clocks.row_mut(first)[i] = 1;
        }
        for step in &self.steps {
            let p = step.process as usize;
            at[p] += 1;
            clocks.copy_row(at[p] - 1, at[p]);
            if let Some(dep) = self.deps[at[p]] {
                let sent = self.first_interval[dep.on.index()] + dep.clock as usize - 1;
                clocks.join_row(at[p], sent);
            }
            clocks.row_mut(at[p])[p] += 1;
        }
        clocks
    }

    /// Checks that the snapshot queues of `wcp`
    /// ([`VcSnapshotQueues::build`]) fit [`CLOCK_CELL_BUDGET`], without
    /// building them.
    ///
    /// # Errors
    ///
    /// [`ComputationError::ClockBudget`] if it does not.
    pub fn check_scope_clocks(&self, wcp: &Wcp) -> Result<(), ComputationError> {
        let snapshots: usize = wcp
            .scope()
            .iter()
            .map(|&p| self.true_intervals[p.index()].len())
            .sum();
        within_budget(wcp.n(), &[snapshots, self.process_count(), self.slots])
    }

    /// Replays the steps over the scope's columns, storing each scope
    /// process's pred-true interval clocks at `rows[starts[pos] ..]`.
    fn propagate(&self, scope: &[ProcessId], starts: &[usize], rows: &mut ClockArena) {
        let n = scope.len();
        let mut current = ClockArena::zeroed(n, self.process_count());
        let mut slots = ClockArena::zeroed(n, self.slots);
        // Scope position of each process, `n` outside the scope; the own
        // component of a scope process is its interval index.
        let mut column = vec![n; self.process_count()];
        // Per scope position: how many pred-true intervals are stored.
        let mut stored = vec![0; n];
        let mut store = |pos: usize, clock: &[u64], rows: &mut ClockArena| {
            let queue = &self.true_intervals[scope[pos].index()];
            if queue.get(stored[pos]) == Some(&clock[pos]) {
                rows.row_mut(starts[pos] + stored[pos])
                    .copy_from_slice(clock);
                stored[pos] += 1;
            }
        };
        for (pos, &p) in scope.iter().enumerate() {
            column[p.index()] = pos;
            current.row_mut(p.index())[pos] = 1;
            store(pos, current.row(p.index()).as_slice(), rows);
        }
        for step in &self.steps {
            let p = step.process as usize;
            match step.link {
                Link::Unreceived => {}
                Link::Send(slot) => slots
                    .row_mut(slot as usize)
                    .copy_from_slice(current.row(p).as_slice()),
                Link::Receive(slot) => {
                    let carried = slots.row(slot as usize);
                    for (c, &x) in current.row_mut(p).iter_mut().zip(carried.as_slice()) {
                        *c = (*c).max(x);
                    }
                }
            }
            let pos = column[p];
            if pos < n {
                let clock = current.row_mut(p);
                clock[pos] += 1;
                store(pos, clock, rows);
            }
        }
    }

    /// Vector clock of state `s` (width `N`), from the `N`-wide table.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or has index `0`, or if the table
    /// does not fit [`CLOCK_CELL_BUDGET`] (check with
    /// [`check_full_clocks`](Self::check_full_clocks) first).
    pub fn clock(&self, s: StateId) -> ClockRow<'_> {
        let interval = self.interval(s);
        self.full_clocks().row(interval)
    }

    /// The direct dependence recorded when interval `s` began (`None` for
    /// first intervals and intervals started by a send).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or has index `0`.
    pub fn dependence_at(&self, s: StateId) -> Option<Dependence> {
        self.deps[self.interval(s)]
    }

    /// The dependences a Section 4.1 snapshot at state `s` would carry if
    /// the previous snapshot was at interval `since` (exclusive): every
    /// dependence recorded in intervals `since+1 ..= s.index`.
    pub fn dependences_between(&self, p: ProcessId, since: u64, upto: u64) -> Vec<Dependence> {
        (since + 1..=upto)
            .filter_map(|k| self.dependence_at(StateId::new(p, k)))
            .collect()
    }

    /// Lamport's happened-before over intervals: `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range or has index `0`, or as
    /// [`clock`](Self::clock).
    pub fn happened_before(&self, a: StateId, b: StateId) -> bool {
        if a.process == b.process {
            return a.index < b.index;
        }
        self.clock(b)[a.process] >= a.index
    }
    /// `a ‖ b`: neither happened before the other.
    pub fn concurrent(&self, a: StateId, b: StateId) -> bool {
        !self.happened_before(a, b) && !self.happened_before(b, a)
    }

    /// Whether a cut is consistent **over the given processes**: complete on
    /// them and pairwise concurrent.
    pub fn is_consistent_over(&self, cut: &Cut, procs: &[ProcessId]) -> bool {
        self.violating_pair_over(cut, procs).is_none()
            && procs.iter().all(|&p| cut.get(p).is_some_and(|k| k >= 1))
    }

    /// Whether a complete full-width cut is consistent.
    pub fn is_consistent(&self, cut: &Cut) -> bool {
        let procs: Vec<ProcessId> = ProcessId::all(self.process_count()).collect();
        self.is_consistent_over(cut, &procs)
    }

    /// Returns a witness `(a, b)` with `a → b` among the cut's states over
    /// `procs`, if any.
    pub fn violating_pair_over(
        &self,
        cut: &Cut,
        procs: &[ProcessId],
    ) -> Option<(StateId, StateId)> {
        for &pa in procs {
            for &pb in procs {
                if pa == pb {
                    continue;
                }
                let (ka, kb) = (cut.get(pa)?, cut.get(pb)?);
                if ka == 0 || kb == 0 {
                    return None;
                }
                let (a, b) = (StateId::new(pa, ka), StateId::new(pb, kb));
                if self.happened_before(a, b) {
                    return Some((a, b));
                }
            }
        }
        None
    }

    /// Sorted pred-true interval indices of process `p`.
    pub fn true_intervals(&self, p: ProcessId) -> &[u64] {
        &self.true_intervals[p.index()]
    }

    /// First pred-true interval of `p` with index `≥ at`, or `None`.
    pub fn first_true_at_or_after(&self, p: ProcessId, at: u64) -> Option<u64> {
        let v = &self.true_intervals[p.index()];
        let pos = v.partition_point(|&k| k < at);
        v.get(pos).copied()
    }

    /// Reference implementation of WCP detection over the predicate's scope
    /// (the semantics of the paper's Section 3 algorithms): returns the
    /// first consistent cut of the *scope* processes in which every local
    /// predicate holds. Non-scope entries of the returned cut are `0`.
    ///
    /// This is the "advancing cut" fixpoint: while some candidate happened
    /// before another candidate, advance the earlier one to its next
    /// pred-true interval. Conjunctive predicates are linear, so the result
    /// is the unique minimum satisfying cut.
    ///
    /// Candidates are compared on the rows of `wcp`'s
    /// [`VcSnapshotQueues`].
    ///
    /// # Panics
    ///
    /// Panics as [`VcSnapshotQueues::build`].
    pub fn first_satisfying_cut(&self, wcp: &Wcp) -> Option<Cut> {
        let scope = wcp.scope();
        let candidates: Vec<&[u64]> = scope
            .iter()
            .map(|&p| self.true_intervals[p.index()].as_slice())
            .collect();
        let queues = VcSnapshotQueues::build(self, wcp);
        self.advancing_cut(scope, &candidates, |a, ia, b, ib| {
            queues.clock(b, ib)[a] >= candidates[a][ia]
        })
    }

    /// Reference implementation of detection over **all** `N` processes (the
    /// semantics of the paper's Section 4 algorithm): non-scope processes
    /// have trivially true predicates and contribute states to the cut.
    ///
    /// The scope projection of this cut equals
    /// [`first_satisfying_cut`](Self::first_satisfying_cut) whenever both
    /// exist.
    pub fn first_satisfying_full_cut(&self, wcp: &Wcp) -> Option<Cut> {
        let candidates: Vec<Vec<u64>> = ProcessId::all(self.process_count())
            .map(|p| {
                if wcp.contains(p) {
                    self.true_intervals[p.index()].clone()
                } else {
                    (1..=self.interval_count(p)).collect()
                }
            })
            .collect();
        let procs: Vec<ProcessId> = ProcessId::all(self.process_count()).collect();
        self.advancing_full_cut(&procs, &candidates)
    }

    /// The least consistent full cut that includes every state in `states`
    /// (which must be pairwise concurrent), or `None` if no consistent
    /// extension exists.
    pub fn least_consistent_extension(&self, states: &[StateId]) -> Option<Cut> {
        let fixed: HashMap<ProcessId, u64> = states.iter().map(|s| (s.process, s.index)).collect();
        let candidates: Vec<Vec<u64>> = ProcessId::all(self.process_count())
            .map(|p| match fixed.get(&p) {
                Some(&k) => vec![k],
                None => (1..=self.interval_count(p)).collect(),
            })
            .collect();
        let procs: Vec<ProcessId> = ProcessId::all(self.process_count()).collect();
        self.advancing_full_cut(&procs, &candidates)
    }

    /// [`advancing_cut`](Self::advancing_cut) on the `N`-wide table.
    fn advancing_full_cut<C: AsRef<[u64]>>(
        &self,
        procs: &[ProcessId],
        candidates: &[C],
    ) -> Option<Cut> {
        let state = |a: usize, i: usize| StateId::new(procs[a], candidates[a].as_ref()[i]);
        self.advancing_cut(procs, candidates, |a, ia, b, ib| {
            self.happened_before(state(a, ia), state(b, ib))
        })
    }

    /// Advancing-cut fixpoint over `procs`, each with a sorted candidate
    /// list; `before(a, ia, b, ib)` tells whether candidate `ia` of
    /// `procs[a]` happened before candidate `ib` of `procs[b]`. Eliminates
    /// any candidate that happened before another candidate until the cut
    /// is pairwise concurrent or some list is exhausted.
    fn advancing_cut<C: AsRef<[u64]>>(
        &self,
        procs: &[ProcessId],
        candidates: &[C],
        before: impl Fn(usize, usize, usize, usize) -> bool,
    ) -> Option<Cut> {
        let candidates: Vec<&[u64]> = candidates.iter().map(AsRef::as_ref).collect();
        if candidates.iter().any(|c| c.is_empty()) {
            return None;
        }
        debug_assert!(
            candidates.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])),
            "candidates must be sorted"
        );
        let mut pos = vec![0usize; procs.len()];
        loop {
            let mut advanced = false;
            for a in 0..procs.len() {
                for b in 0..procs.len() {
                    if a != b && before(a, pos[a], b, pos[b]) {
                        pos[a] += 1;
                        if pos[a] >= candidates[a].len() {
                            return None;
                        }
                        advanced = true;
                    }
                }
            }
            if !advanced {
                let mut cut = Cut::new(self.process_count());
                for (i, &p) in procs.iter().enumerate() {
                    cut.set(p, candidates[i][pos[i]]);
                }
                return Some(cut);
            }
        }
    }
}

/// Arena-backed Figure 2 snapshot queues: for each scope process, in
/// scope order, the clock of each of its pred-true intervals, projected
/// to the scope, in one flat [`ClockArena`] with stride `n`.
///
/// Queues are laid out back-to-back in scope order, so a build performs a
/// single clock allocation for the whole run (the backing buffer is sized
/// exactly up front) instead of one `Vec<u64>` per snapshot. A snapshot's
/// interval index needs no separate storage: by the Figure 2 protocol the
/// own-component of a state's clock *is* its 1-based interval index, so
/// `interval(pos, i) == clock(pos, i)[pos]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcSnapshotQueues {
    /// Shared with the annotation that built it, which hands it to later
    /// builds of the same scope.
    arena: Arc<ClockArena>,
    /// Per scope position: index of its first row; then the row count.
    starts: Vec<usize>,
}

impl VcSnapshotQueues {
    /// Builds the queues of `wcp`'s scope.
    ///
    /// Component `i` of a clock propagates on its own, so the build
    /// replays the annotation carrying only the scope's `n` columns: one
    /// `n`-wide current clock per process, one per message slot in
    /// flight, and a stored row per snapshot. Once the `N`-wide table
    /// exists the build projects it instead; the values are the same.
    /// The annotation keeps the first scope's queues and returns them,
    /// arena shared, to every later build of that scope.
    ///
    /// # Panics
    ///
    /// Panics if the clocks do not fit [`CLOCK_CELL_BUDGET`] (check with
    /// [`AnnotatedComputation::check_scope_clocks`] first), or if the
    /// scope names a process outside the computation.
    pub fn build(annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> Self {
        let scope = wcp.scope();
        if let Some((kept, queues)) = annotated.queues.get() {
            if kept == scope {
                return queues.clone();
            }
        }
        annotated
            .check_scope_clocks(wcp)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut starts = Vec::with_capacity(scope.len() + 1);
        let mut total = 0;
        for &p in scope {
            starts.push(total);
            total += annotated.true_intervals[p.index()].len();
        }
        starts.push(total);
        let mut rows = ClockArena::zeroed(scope.len(), total);
        if let Some(full) = annotated.full.get() {
            for (pos, &p) in scope.iter().enumerate() {
                for (i, &k) in annotated.true_intervals[p.index()].iter().enumerate() {
                    let clock = full.row(annotated.interval(StateId::new(p, k)));
                    for (slot, &q) in rows.row_mut(starts[pos] + i).iter_mut().zip(scope) {
                        *slot = clock[q];
                    }
                }
            }
        } else {
            annotated.propagate(scope, &starts, &mut rows);
        }
        let queues = VcSnapshotQueues {
            arena: Arc::new(rows),
            starts,
        };
        let _ = annotated.queues.set((scope.to_vec(), queues.clone()));
        queues
    }

    /// The build the parallel detectors once split one thread per scope
    /// process; now the same single pass as [`build`](Self::build). The
    /// pass reads the borrowed annotation, which the persistent worker
    /// pool cannot share: its jobs own their inputs.
    pub fn build_parallel(annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> Self {
        Self::build(annotated, wcp)
    }

    /// Scope width `n` (also the width of every clock row).
    pub fn scope_width(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of snapshots queued for scope position `pos`.
    pub fn queue_len(&self, pos: usize) -> usize {
        self.starts[pos + 1] - self.starts[pos]
    }

    /// Total snapshots across all queues.
    pub fn total_snapshots(&self) -> usize {
        self.arena.len()
    }

    /// The `i`-th snapshot clock in scope position `pos`'s queue.
    ///
    /// # Panics
    ///
    /// Panics if `pos` or `i` is out of range.
    pub fn clock(&self, pos: usize, i: usize) -> ClockRow<'_> {
        self.arena.row(self.row_id(pos, i))
    }

    /// Arena row id of the `i`-th snapshot in `pos`'s queue — stable across
    /// the run, usable as a compact candidate-clock handle
    /// (see [`arena`](Self::arena)).
    ///
    /// # Panics
    ///
    /// Panics if `pos` or `i` is out of range.
    pub fn row_id(&self, pos: usize, i: usize) -> usize {
        assert!(i < self.queue_len(pos), "snapshot index out of range");
        self.starts[pos] + i
    }

    /// The `i`-th snapshot's candidate interval index on scope position
    /// `pos` (its own clock component).
    pub fn interval(&self, pos: usize, i: usize) -> u64 {
        self.clock(pos, i)[pos]
    }

    /// The shared backing arena.
    pub fn arena(&self) -> &ClockArena {
        &self.arena
    }

    /// Heap allocations holding clock components: `1` for the whole run
    /// (the flat backing buffer), vs one per snapshot on the per-`Vec` path.
    pub fn clock_allocations(&self) -> u64 {
        u64::from(!self.arena.is_empty())
    }
}

/// Checks a table `width` columns wide over `rows` (summed) rows against
/// [`CLOCK_CELL_BUDGET`].
fn within_budget(width: usize, rows: &[usize]) -> Result<(), ComputationError> {
    let cells = rows
        .iter()
        .try_fold(0u64, |sum, &r| sum.checked_add(r as u64))
        .and_then(|r| r.checked_mul(width as u64))
        .unwrap_or(u64::MAX);
    if cells <= CLOCK_CELL_BUDGET {
        Ok(())
    } else {
        Err(ComputationError::ClockBudget {
            width,
            cells,
            budget: CLOCK_CELL_BUDGET,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn s(i: u32, k: u64) -> StateId {
        StateId::new(p(i), k)
    }

    /// P0 sends m0 to P1; P1 sends m1 to P2; classic chain.
    fn chain() -> Computation {
        let mut b = ComputationBuilder::new(3);
        let m0 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        let m1 = b.send(p(1), p(2));
        b.receive(p(2), m1);
        b.build().unwrap()
    }

    #[test]
    fn clocks_follow_figure2() {
        let c = chain();
        let a = c.annotate();
        assert_eq!(a.clock(s(0, 1)).as_slice(), &[1, 0, 0]);
        assert_eq!(a.clock(s(0, 2)).as_slice(), &[2, 0, 0]);
        assert_eq!(a.clock(s(1, 1)).as_slice(), &[0, 1, 0]);
        assert_eq!(a.clock(s(1, 2)).as_slice(), &[1, 2, 0]); // merged + ticked
        assert_eq!(a.clock(s(1, 3)).as_slice(), &[1, 3, 0]);
        assert_eq!(a.clock(s(2, 2)).as_slice(), &[1, 2, 2]);
    }

    /// `#[should_panic]` tests querying `$query` at interval `$k` of
    /// process `$proc` of [`chain`]: P1 is a middle process with 3
    /// intervals, P2 the last with 2.
    macro_rules! rejects_interval {
        ($($name:ident: $query:ident($proc:expr, $k:expr) => $msg:literal;)*) => {$(
            #[test]
            #[should_panic(expected = $msg)]
            fn $name() {
                let c = chain();
                let _ = c.annotate().$query(s($proc, $k));
            }
        )*};
    }

    rejects_interval! {
        clock_rejects_zero_on_middle: clock(1, 0) => "1-based";
        clock_rejects_past_end_of_middle: clock(1, 4) => "P1 has 3 intervals";
        clock_rejects_zero_on_last: clock(2, 0) => "1-based";
        clock_rejects_past_end_of_last: clock(2, 3) => "P2 has 2 intervals";
        dependence_rejects_zero_on_middle: dependence_at(1, 0) => "1-based";
        dependence_rejects_past_end_of_middle: dependence_at(1, 4) => "P1 has 3 intervals";
        dependence_rejects_zero_on_last: dependence_at(2, 0) => "1-based";
        dependence_rejects_past_end_of_last: dependence_at(2, 3) => "P2 has 2 intervals";
    }

    #[test]
    fn transitive_happened_before() {
        let c = chain();
        let a = c.annotate();
        assert!(a.happened_before(s(0, 1), s(1, 2)));
        assert!(a.happened_before(s(0, 1), s(2, 2))); // transitively
        assert!(!a.happened_before(s(2, 2), s(0, 1)));
        assert!(a.concurrent(s(0, 2), s(1, 1)));
        assert!(a.happened_before(s(1, 1), s(1, 2))); // program order
    }

    #[test]
    fn dependences_recorded_at_receives() {
        let c = chain();
        let a = c.annotate();
        assert_eq!(a.dependence_at(s(1, 1)), None);
        assert_eq!(a.dependence_at(s(1, 2)), Some(Dependence::new(p(0), 1)));
        assert_eq!(a.dependence_at(s(1, 3)), None); // started by a send
        assert_eq!(a.dependence_at(s(2, 2)), Some(Dependence::new(p(1), 2)));
        assert_eq!(
            a.dependences_between(p(1), 0, 3),
            vec![Dependence::new(p(0), 1)]
        );
        assert_eq!(a.dependences_between(p(1), 2, 3), vec![]);
    }

    #[test]
    fn consistency_checks() {
        let c = chain();
        let a = c.annotate();
        // ⟨1,1,1⟩ is the initial cut — consistent.
        assert!(a.is_consistent(&Cut::from_indices(vec![1, 1, 1])));
        // ⟨1,2,1⟩: (0,1) → (1,2) — inconsistent.
        let bad = Cut::from_indices(vec![1, 2, 1]);
        assert!(!a.is_consistent(&bad));
        let (from, to) = a
            .violating_pair_over(&bad, &[p(0), p(1), p(2)])
            .expect("violation exists");
        assert_eq!((from, to), (s(0, 1), s(1, 2)));
        // ⟨2,2,1⟩ consistent.
        assert!(a.is_consistent(&Cut::from_indices(vec![2, 2, 1])));
        // Incomplete cut is not consistent.
        assert!(!a.is_consistent(&Cut::from_indices(vec![0, 1, 1])));
    }

    #[test]
    fn true_interval_queries() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0)); // interval 1
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1)); // interval 2
        let c = b.build().unwrap();
        let a = c.annotate();
        assert_eq!(a.true_intervals(p(0)), &[1]);
        assert_eq!(a.true_intervals(p(1)), &[2]);
        assert_eq!(a.first_true_at_or_after(p(0), 1), Some(1));
        assert_eq!(a.first_true_at_or_after(p(0), 2), None);
        assert_eq!(a.first_true_at_or_after(p(1), 1), Some(2));
    }

    #[test]
    fn first_cut_simple_detection() {
        // P0 true in interval 2 (after send), P1 true in interval 2 (after
        // receive): ⟨2,2⟩ is consistent and satisfying.
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let a = c.annotate();
        let wcp = Wcp::over_all(&c);
        assert_eq!(
            a.first_satisfying_cut(&wcp),
            Some(Cut::from_indices(vec![2, 2]))
        );
    }

    #[test]
    fn first_cut_requires_concurrency() {
        // P0 true only in interval 1, P1 true only in interval 2, but
        // (0,1) → (1,2): no satisfying cut.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let a = c.annotate();
        assert_eq!(a.first_satisfying_cut(&Wcp::over_all(&c)), None);
    }

    #[test]
    fn first_cut_is_minimal() {
        // Predicate true everywhere: the minimum is ⟨1,1⟩.
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        b.mark_true(p(1));
        let m = b.send(p(0), p(1));
        b.mark_true(p(0));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let a = c.annotate();
        assert_eq!(
            a.first_satisfying_cut(&Wcp::over_all(&c)),
            Some(Cut::from_indices(vec![1, 1]))
        );
    }

    #[test]
    fn scoped_detection_ignores_other_processes() {
        // Scope = {P0, P2}; P1 relays causality but has no predicate.
        let mut b = ComputationBuilder::new(3);
        b.mark_true(p(0));
        let m0 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        let m1 = b.send(p(1), p(2));
        b.receive(p(2), m1);
        b.mark_true(p(2)); // interval 2, causally after (0,1)
        let c = b.build().unwrap();
        let a = c.annotate();
        let wcp = Wcp::over([p(0), p(2)]);
        // (0,1) → (2,2) via P1, so no cut with those two states; P0 has no
        // later true interval ⇒ undetected.
        assert_eq!(a.first_satisfying_cut(&wcp), None);
    }

    #[test]
    fn full_cut_agrees_with_scope_cut() {
        let mut b = ComputationBuilder::new(3);
        let m0 = b.send(p(0), p(1));
        b.mark_true(p(0)); // interval 2
        b.receive(p(1), m0);
        b.mark_true(p(2)); // interval 1
        let c = b.build().unwrap();
        let a = c.annotate();
        let wcp = Wcp::over([p(0), p(2)]);
        let scope_cut = a.first_satisfying_cut(&wcp).unwrap();
        let full_cut = a.first_satisfying_full_cut(&wcp).unwrap();
        assert_eq!(wcp.project(&scope_cut), wcp.project(&full_cut));
        assert!(a.is_consistent(&full_cut));
        assert!(full_cut.is_complete());
    }

    #[test]
    fn least_consistent_extension_contains_states() {
        let c = chain();
        let a = c.annotate();
        let chosen = [s(0, 2), s(2, 1)];
        let ext = a.least_consistent_extension(&chosen).unwrap();
        assert_eq!(ext[p(0)], 2);
        assert_eq!(ext[p(2)], 1);
        assert!(a.is_consistent(&ext));
    }

    #[test]
    fn annotation_and_scope_queries_build_no_full_table() {
        // The chain, P0 true in interval 1 and P2 in interval 2.
        let mut b = ComputationBuilder::new(3);
        b.mark_true(p(0));
        let m0 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        let m1 = b.send(p(1), p(2));
        b.receive(p(2), m1);
        b.mark_true(p(2));
        let c = b.build().unwrap();
        let a = c.annotate();
        assert!(a.full.get().is_none());
        let wcp = Wcp::over([p(0), p(2)]);
        let queues = VcSnapshotQueues::build(&a, &wcp);
        assert_eq!(queues.clock(0, 0).as_slice(), &[1, 0]);
        assert_eq!(queues.clock(1, 0).as_slice(), &[1, 2]); // P0 relayed by P1
        assert_eq!(a.first_satisfying_cut(&wcp), None);
        // Later builds of the scope share the first one's arena.
        let again = VcSnapshotQueues::build(&a, &wcp);
        assert!(std::ptr::eq(again.arena(), queues.arena()));
        assert!(a.full.get().is_none());
        assert_eq!(a.clock(s(2, 2)).as_slice(), &[1, 2, 2]);
        assert!(a.full.get().is_some());
    }

    #[test]
    fn clock_tables_over_the_budget_are_refused_before_allocating() {
        // 20,000 processes, no events: an N-wide table needs N² cells.
        let n = 20_000;
        let c = Computation::from_traces(vec![
            crate::ProcessTrace {
                events: Vec::new(),
                pred: vec![true],
            };
            n
        ]);
        let a = c.annotate();
        let refused = ComputationError::ClockBudget {
            width: n,
            cells: (n * n) as u64,
            budget: CLOCK_CELL_BUDGET,
        };
        assert_eq!(a.check_full_clocks(), Err(refused.clone()));
        assert_eq!(
            a.check_scope_clocks(&Wcp::over_all(&c)),
            Err(ComputationError::ClockBudget {
                width: n,
                cells: (2 * n * n) as u64,
                budget: CLOCK_CELL_BUDGET,
            })
        );
        // Two columns over N processes fit.
        let pair = Wcp::over([p(0), p(1)]);
        assert_eq!(VcSnapshotQueues::build(&a, &pair).total_snapshots(), 2);
        assert_eq!(a.first_satisfying_cut(&pair).unwrap()[p(1)], 1);
        let message = refused.to_string();
        assert_eq!(
            message,
            "vector clocks 20000 wide need 400000000 cells, over the budget of 134217728 cells"
        );
        let panic = std::panic::catch_unwind(|| a.clock(s(0, 1))).unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&message));
    }

    #[test]
    fn empty_candidates_mean_no_detection() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let a = c.annotate();
        assert_eq!(a.first_satisfying_cut(&Wcp::over_all(&c)), None);
    }
}
