//! Clock annotation and happened-before queries over a computation.

use std::collections::HashMap;

use wcp_clocks::{ClockArena, ClockRow, Cut, Dependence, ProcessId, StateId};

use crate::computation::Computation;
use crate::predicate::Wcp;

/// A [`Computation`] enriched with per-interval vector clocks and direct
/// dependences.
///
/// Construction replays the computation once (in an arbitrary valid
/// interleaving — all interleavings yield the same clocks), validating it
/// on the way, and records, for every interval `(i, k)`:
///
/// - its vector clock `vc_i(k)` over all `N` processes, maintained per the
///   Figure 2 protocol,
/// - the direct dependence recorded when the interval began (i.e. from the
///   receive event that started it), if any — Section 4.1's dependence list
///   is the union of these over the intervals since the last snapshot.
///
/// Every interval clock is one row of a single [`ClockArena`], so
/// [`clock`](Self::clock) hands out a borrowed [`ClockRow`].
///
/// All happened-before queries, consistency checks, and the reference
/// ("ground truth") first-cut computations live here.
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
    /// Vector clock of every interval, one row each, in replay order.
    clocks: ClockArena,
    /// Row of `clocks` holding each interval's clock, by interval index.
    row_of: Vec<usize>,
    /// Dependence recorded when each interval began, by interval index.
    deps: Vec<Option<Dependence>>,
    /// Sorted pred-true interval indices per process.
    true_intervals: Vec<Vec<u64>>,
}

impl<'a> AnnotatedComputation<'a> {
    /// Replays `computation` and records clocks and dependences.
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

        // Rows are appended as the replay reaches them, so the buffer is
        // never zero-filled: first every process's interval 1, then one
        // row per event.
        let mut clocks = ClockArena::with_capacity(n, intervals);
        let mut row_of = vec![0; intervals];
        let mut deps = vec![None; intervals];
        for (i, &first) in first_interval[..n].iter().enumerate() {
            clocks.push_zeroed()[i] = 1;
            row_of[first] = i;
        }
        // Event `e` of process `i` starts interval `(i, e + 2)`: copy the
        // clock of `(i, e + 1)`, join the clock the matching send carried
        // (the sender's interval before its send) and tick.
        computation
            .replay(|p, e, send| {
                let at = first_interval[p.index()] + e + 1;
                let row = clocks.push_copy(row_of[at - 1]);
                if let Some((from, j)) = send {
                    clocks.join_row(row, row_of[first_interval[from.index()] + j]);
                    deps[at] = Some(Dependence::new(from, j as u64 + 1));
                }
                clocks.row_mut(row)[p.index()] += 1;
                row_of[at] = row;
            })
            .expect("cannot annotate an invalid computation");

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
            clocks,
            row_of,
            deps,
            true_intervals,
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

    /// Vector clock of state `s` (width `N`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or has index `0`.
    pub fn clock(&self, s: StateId) -> ClockRow<'_> {
        self.clocks.row(self.row_of[self.interval(s)])
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
    /// Panics if either state is out of range or has index `0`.
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
    pub fn first_satisfying_cut(&self, wcp: &Wcp) -> Option<Cut> {
        let candidates: Vec<Vec<u64>> = wcp
            .scope()
            .iter()
            .map(|&p| self.true_intervals[p.index()].clone())
            .collect();
        self.advancing_cut(wcp.scope(), &candidates)
    }

    /// Reference implementation of detection over **all** `N` processes (the
    /// semantics of the paper's Section 4 algorithm): non-scope processes
    /// have trivially true predicates and contribute states to the cut.
    ///
    /// The scope projection of this cut equals
    /// [`first_satisfying_cut`](Self::first_satisfying_cut) whenever both
    /// exist.
    pub fn first_satisfying_full_cut(&self, wcp: &Wcp) -> Option<Cut> {
        let procs: Vec<ProcessId> = ProcessId::all(self.process_count()).collect();
        let candidates: Vec<Vec<u64>> = procs
            .iter()
            .map(|&p| {
                if wcp.contains(p) {
                    self.true_intervals[p.index()].clone()
                } else {
                    (1..=self.interval_count(p)).collect()
                }
            })
            .collect();
        self.advancing_cut(&procs, &candidates)
    }

    /// The least consistent full cut that includes every state in `states`
    /// (which must be pairwise concurrent), or `None` if no consistent
    /// extension exists.
    pub fn least_consistent_extension(&self, states: &[StateId]) -> Option<Cut> {
        let procs: Vec<ProcessId> = ProcessId::all(self.process_count()).collect();
        let fixed: HashMap<ProcessId, u64> = states.iter().map(|s| (s.process, s.index)).collect();
        let candidates: Vec<Vec<u64>> = procs
            .iter()
            .map(|&p| match fixed.get(&p) {
                Some(&k) => vec![k],
                None => (1..=self.interval_count(p)).collect(),
            })
            .collect();
        self.advancing_cut(&procs, &candidates)
    }

    /// Advancing-cut fixpoint over `procs`, each with a sorted candidate
    /// list. Eliminates any candidate that happened before another candidate
    /// until the cut is pairwise concurrent or some list is exhausted.
    fn advancing_cut(&self, procs: &[ProcessId], candidates: &[Vec<u64>]) -> Option<Cut> {
        let mut pos = vec![0usize; procs.len()];
        for (i, c) in candidates.iter().enumerate() {
            if c.is_empty() {
                return None;
            }
            debug_assert!(
                c.windows(2).all(|w| w[0] < w[1]),
                "candidates must be sorted"
            );
            let _ = i;
        }
        loop {
            let mut advanced = false;
            for a in 0..procs.len() {
                for b in 0..procs.len() {
                    if a == b {
                        continue;
                    }
                    let sa = StateId::new(procs[a], candidates[a][pos[a]]);
                    let sb = StateId::new(procs[b], candidates[b][pos[b]]);
                    if self.happened_before(sa, sb) {
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
    fn empty_candidates_mean_no_detection() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let a = c.annotate();
        assert_eq!(a.first_satisfying_cut(&Wcp::over_all(&c)), None);
    }
}
