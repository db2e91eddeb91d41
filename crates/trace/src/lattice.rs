//! Cooper–Marzullo global-state lattice exploration.
//!
//! Cooper and Marzullo's detector (the paper's reference \[3\]) enumerates the
//! lattice of consistent global states and tests the predicate on each. The
//! lattice can be exponential in the number of processes — that cost is the
//! paper's motivation for specialized conjunctive-predicate algorithms — so
//! in this repository it serves two purposes:
//!
//! 1. an **independent ground truth** for the test suite (it never looks at
//!    a vector clock, so it cannot share bugs with the clock-based
//!    algorithms), and
//! 2. the **baseline** whose state-count blow-up the experiment harness
//!    contrasts with the token algorithms' `O(n²m)` work.
//!
//! # Example
//!
//! ```rust
//! use wcp_clocks::ProcessId;
//! use wcp_trace::lattice::LatticeExplorer;
//! use wcp_trace::{ComputationBuilder, Wcp};
//!
//! let mut b = ComputationBuilder::new(2);
//! let m = b.send(ProcessId::new(0), ProcessId::new(1));
//! b.mark_true(ProcessId::new(0));
//! b.receive(ProcessId::new(1), m);
//! b.mark_true(ProcessId::new(1));
//! let c = b.build()?;
//! let explorer = LatticeExplorer::new(&c);
//! let first = explorer
//!     .first_satisfying(&Wcp::over_all(&c), 10_000)
//!     .expect("small lattice")
//!     .expect("cut exists");
//! assert_eq!(first.as_slice(), &[2, 2]);
//! # Ok::<(), wcp_trace::ComputationError>(())
//! ```

use std::collections::{HashSet, VecDeque};
use std::fmt;

use wcp_clocks::{ClockArena, Cut, ProcessId};

use crate::computation::{Computation, Matching};
use crate::predicate::Wcp;

/// Error returned when lattice exploration exceeds its state budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticeTruncated {
    /// The budget that was exceeded.
    pub max_states: usize,
}

impl fmt::Display for LatticeTruncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "global-state lattice exceeds the exploration budget of {} states",
            self.max_states
        )
    }
}

impl std::error::Error for LatticeTruncated {}

/// What one [`LatticeExplorer::survey`] pass found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeSurvey {
    /// The number of consistent global states.
    pub states: Result<usize, LatticeTruncated>,
    /// The first cut satisfying the predicate, if any, and the states
    /// visited to reach that answer.
    pub first: Result<(Option<Cut>, usize), LatticeTruncated>,
}

/// Breadth-first explorer of a computation's consistent global states.
#[derive(Debug, Clone)]
pub struct LatticeExplorer<'a> {
    computation: &'a Computation,
    /// The send each receive matches.
    matching: Matching,
}

impl<'a> LatticeExplorer<'a> {
    /// Prepares exploration of `computation` (which must be valid).
    pub fn new(computation: &'a Computation) -> Self {
        LatticeExplorer {
            computation,
            matching: computation.matching(),
        }
    }

    /// The bottom of the lattice: every process in interval 1.
    pub fn initial_cut(&self) -> Cut {
        Cut::from_indices(vec![1; self.computation.process_count()])
    }

    /// Whether process `p` can advance from `cut[p]` to `cut[p] + 1` in
    /// global state `cut` (its next event is a send, or a receive whose
    /// message has already been sent below the cut).
    pub fn can_advance(&self, cut: &Cut, p: ProcessId) -> bool {
        let k = cut[p]; // executing 1-based event k
        if k as usize > self.computation.process(p).events.len() {
            return false;
        }
        match self.matching.send_of(p, (k - 1) as usize) {
            None => true,
            // The sender must have executed its send, 0-based event `j`:
            // its interval is past `j + 1`.
            Some((sender, j)) => cut[sender] > j as u64 + 1,
        }
    }

    /// All global states reachable from `cut` by one event.
    pub fn successors(&self, cut: &Cut) -> Vec<Cut> {
        ProcessId::all(self.computation.process_count())
            .filter(|&p| self.can_advance(cut, p))
            .map(|p| {
                let mut next = cut.clone();
                next.set(p, cut[p] + 1);
                next
            })
            .collect()
    }

    /// Consistency of a complete cut by the *message-closure* rule: no
    /// message is received at or below the cut but sent above it. For
    /// complete cuts this is equivalent to pairwise concurrency (checked
    /// against the vector-clock definition in the property-test suite).
    pub fn is_consistent_cut(&self, cut: &Cut) -> bool {
        if !cut.is_complete() {
            return false;
        }
        for (p, trace) in self.computation.iter() {
            let k = match cut.get(p) {
                Some(k) => k,
                None => return false,
            };
            if (k - 1) as usize > trace.events.len() {
                return false;
            }
            // Events 1..k-1 are below the cut.
            for e in 0..(k - 1) as usize {
                if let Some((sender, j)) = self.matching.send_of(p, e) {
                    if cut.get(sender).is_none_or(|ks| ks <= j as u64 + 1) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Counts the consistent global states and finds the first one
    /// satisfying `wcp`, in one level-order pass within the same budget.
    /// The pass visits every state the search would, in the same order,
    /// so its answer is the one
    /// [`first_satisfying_counted`](Self::first_satisfying_counted) gives.
    pub fn survey(&self, wcp: &Wcp, max_states: usize) -> LatticeSurvey {
        let mut count = 0usize;
        let mut found = None;
        let walked = self.bfs(max_states, |cut| {
            count += 1;
            if found.is_none() && wcp.holds_on(self.computation, cut) {
                found = Some((cut.clone(), count));
            }
            false
        });
        // The search stops at its cut, so only a truncation before the
        // cut is visited cuts it short.
        let first = match (found, walked) {
            (Some((cut, visited)), _) => Ok((Some(cut), visited)),
            (None, Ok(())) => Ok((None, count)),
            (None, Err(e)) => Err(e),
        };
        LatticeSurvey {
            states: walked.map(|()| count),
            first,
        }
    }

    /// The first (minimum) consistent cut satisfying `wcp`, in
    /// breadth-first (level) order. Conjunctive predicates are linear, so
    /// the first satisfying state found at the lowest level is the unique
    /// minimum.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeTruncated`] when more than `max_states` states are
    /// visited before an answer is known.
    pub fn first_satisfying(
        &self,
        wcp: &Wcp,
        max_states: usize,
    ) -> Result<Option<Cut>, LatticeTruncated> {
        self.first_satisfying_counted(wcp, max_states)
            .map(|(cut, _)| cut)
    }

    /// The first consistent cut satisfying an arbitrary predicate
    /// `satisfies`, in level order, with the same state budget.
    ///
    /// Generalizes [`first_satisfying`](Self::first_satisfying) to
    /// predicates beyond plain conjunctions — e.g. generalized conjunctive
    /// predicates with channel terms (`wcp-detect::gcp`). **Minimality
    /// caveat:** for a non-linear predicate the first *level-order* hit is
    /// a minimal-weight satisfying cut, but not necessarily a unique
    /// minimum.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeTruncated`] when more than `max_states` states are
    /// visited before an answer is known.
    pub fn first_satisfying_where<F: FnMut(&Cut) -> bool>(
        &self,
        mut satisfies: F,
        max_states: usize,
    ) -> Result<Option<Cut>, LatticeTruncated> {
        let mut found = None;
        self.bfs(max_states, |cut| {
            if satisfies(cut) {
                found = Some(cut.clone());
                true
            } else {
                false
            }
        })?;
        Ok(found)
    }

    /// Like [`first_satisfying`](Self::first_satisfying), additionally
    /// returning the number of global states visited to reach the answer —
    /// the search cost a Cooper–Marzullo detector pays.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeTruncated`] when more than `max_states` states are
    /// visited before an answer is known.
    pub fn first_satisfying_counted(
        &self,
        wcp: &Wcp,
        max_states: usize,
    ) -> Result<(Option<Cut>, usize), LatticeTruncated> {
        let mut found = None;
        let mut visited = 0usize;
        self.bfs(max_states, |cut| {
            visited += 1;
            if wcp.holds_on(self.computation, cut) {
                found = Some(cut.clone());
                true
            } else {
                false
            }
        })?;
        Ok((found, visited))
    }

    /// All consistent cuts satisfying `wcp` (for meet-closure tests on
    /// small lattices).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeTruncated`] when the lattice exceeds `max_states`.
    pub fn all_satisfying(
        &self,
        wcp: &Wcp,
        max_states: usize,
    ) -> Result<Vec<Cut>, LatticeTruncated> {
        let mut out = Vec::new();
        self.bfs(max_states, |cut| {
            if wcp.holds_on(self.computation, cut) {
                out.push(cut.clone());
            }
            false
        })?;
        Ok(out)
    }

    /// Level-order traversal of the lattice, invoking `visit` on each state;
    /// stops early if `visit` returns `true`.
    ///
    /// The frontier is arena-backed: pending cuts live in one flat
    /// [`ClockArena`] and the queue holds row ids, so expanding a state
    /// allocates only the dedup key (the `seen` set needs owned keys)
    /// instead of a [`Cut`] per enqueued successor plus a key.
    fn bfs<F: FnMut(&Cut) -> bool>(
        &self,
        max_states: usize,
        mut visit: F,
    ) -> Result<(), LatticeTruncated> {
        let n = self.computation.process_count();
        let start = self.initial_cut();
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut arena = ClockArena::new(n);
        let mut queue: VecDeque<usize> = VecDeque::new();
        seen.insert(start.as_slice().to_vec());
        queue.push_back(arena.push(start.as_slice()));
        // Scratch cut, re-filled from the current row before each visit.
        let mut cut = start;
        while let Some(id) = queue.pop_front() {
            for (i, &v) in arena.row(id).as_slice().iter().enumerate() {
                cut.set(ProcessId::new(i as u32), v);
            }
            if visit(&cut) {
                return Ok(());
            }
            for p in ProcessId::all(n) {
                if !self.can_advance(&cut, p) {
                    continue;
                }
                let mut key = arena.row(id).as_slice().to_vec();
                key[p.index()] += 1;
                if !seen.contains(&key) {
                    if seen.len() >= max_states {
                        return Err(LatticeTruncated { max_states });
                    }
                    queue.push_back(arena.push(&key));
                    seen.insert(key);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Two independent processes with E events each have (E+1)^2 states.
    #[test]
    fn independent_processes_have_product_lattice() {
        let mut b = ComputationBuilder::new(2);
        // Give each process 2 events by unreceived cross-sends.
        b.send(p(0), p(1));
        b.send(p(0), p(1));
        b.send(p(1), p(0));
        b.send(p(1), p(0));
        let c = b.build_unchecked();
        assert!(c.validate().is_ok());
        let ex = LatticeExplorer::new(&c);
        let states = ex.survey(&Wcp::over_all(&c), 100).states;
        assert_eq!(states, Ok(9));
    }

    /// A message removes the states where the receive precedes the send.
    #[test]
    fn message_prunes_lattice() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        let c = b.build().unwrap();
        let ex = LatticeExplorer::new(&c);
        // States: (1,1) (2,1) (2,2) — (1,2) is inconsistent.
        assert_eq!(ex.survey(&Wcp::over_all(&c), 100).states, Ok(3));
        assert!(!ex.is_consistent_cut(&Cut::from_indices(vec![1, 2])));
        assert!(ex.is_consistent_cut(&Cut::from_indices(vec![2, 2])));
    }

    #[test]
    fn truncation_reports_budget() {
        let mut b = ComputationBuilder::new(2);
        b.send(p(0), p(1));
        b.send(p(1), p(0));
        let c = b.build().unwrap();
        let ex = LatticeExplorer::new(&c);
        let truncated = LatticeTruncated { max_states: 2 };
        let survey = ex.survey(&Wcp::over_all(&c), 2);
        assert_eq!(survey.states, Err(truncated));
        assert_eq!(survey.first, Err(truncated));
        let msg = LatticeTruncated { max_states: 2 }.to_string();
        assert!(msg.contains("budget of 2"));
    }

    /// One survey pass answers what a full count and a separate search
    /// answer, truncations included: planted cuts on even seeds give
    /// searches that end before the count truncates.
    #[test]
    fn survey_counts_and_searches_like_two_passes() {
        use crate::generate::{generate, GeneratorConfig};
        for seed in 0..12 {
            let mut cfg = GeneratorConfig::new(4, 6)
                .with_seed(seed)
                .with_predicate_density(0.3);
            if seed % 2 == 0 {
                cfg = cfg.with_plant(0.2);
            }
            let c = generate(&cfg).computation;
            let ex = LatticeExplorer::new(&c);
            let wcp = Wcp::over_all(&c);
            for max_states in [2, 40, 300, 100_000] {
                let mut count = 0;
                let states = ex
                    .first_satisfying_where(
                        |_| {
                            count += 1;
                            false
                        },
                        max_states,
                    )
                    .map(|_| count);
                let survey = ex.survey(&wcp, max_states);
                assert_eq!(survey.states, states, "seed {seed}, budget {max_states}");
                assert_eq!(
                    survey.first,
                    ex.first_satisfying_counted(&wcp, max_states),
                    "seed {seed}, budget {max_states}"
                );
            }
        }
    }

    #[test]
    fn first_satisfying_matches_annotate() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0)); // (0,2)
        b.receive(p(1), m);
        b.mark_true(p(1)); // (1,2)
        let c = b.build().unwrap();
        let wcp = Wcp::over_all(&c);
        let ex = LatticeExplorer::new(&c);
        let via_lattice = ex.first_satisfying(&wcp, 1000).unwrap();
        let via_clocks = c.annotate().first_satisfying_full_cut(&wcp);
        assert_eq!(via_lattice, via_clocks);
        assert_eq!(via_lattice.unwrap().as_slice(), &[2, 2]);
    }

    #[test]
    fn no_satisfying_cut_when_predicates_conflict() {
        // Predicate true only at (0,1) and (1,2), but (0,1) → (1,2).
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let ex = LatticeExplorer::new(&c);
        assert_eq!(ex.first_satisfying(&Wcp::over_all(&c), 1000), Ok(None));
    }

    #[test]
    fn satisfying_cuts_are_meet_closed() {
        // Predicate always true: every consistent cut satisfies, and the
        // set must be closed under meet.
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.send(p(1), p(0)); // unreceived
        let mut c = b.build_unchecked();
        assert!(c.validate().is_ok());
        for t in 0..2 {
            let n = c.process(p(t)).pred.len();
            let traces = vec![true; n];
            // rebuild with all-true predicates
            let mut all = c.traces().to_vec();
            all[t as usize].pred = traces;
            c = Computation::from_traces(all);
        }
        let wcp = Wcp::over_all(&c);
        let ex = LatticeExplorer::new(&c);
        let sats = ex.all_satisfying(&wcp, 10_000).unwrap();
        for a in &sats {
            for b in &sats {
                let m = a.meet(b);
                assert!(ex.is_consistent_cut(&m), "meet {m} not consistent");
                assert!(wcp.holds_on(&c, &m));
            }
        }
    }

    #[test]
    fn successors_respect_message_order() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        let c = b.build().unwrap();
        let ex = LatticeExplorer::new(&c);
        let init = ex.initial_cut();
        // From ⟨1,1⟩ only P0 can advance (P1's receive is blocked).
        assert_eq!(ex.successors(&init), vec![Cut::from_indices(vec![2, 1])]);
        assert!(!ex.can_advance(&init, p(1)));
    }
}
