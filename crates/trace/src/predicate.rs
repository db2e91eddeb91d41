//! Weak conjunctive predicates.

use std::fmt;

use wcp_clocks::{Cut, ProcessId};
use wcp_obs::json::{FromJson, Json, JsonError, ToJson};

use crate::computation::Computation;

/// A weak conjunctive predicate: the conjunction `l_{s_1} ∧ … ∧ l_{s_n}` of
/// the local predicates of a subset of processes (the *scope*).
///
/// The paper distinguishes `n` — the number of processes over which the
/// predicate is defined — from `N`, the total number of processes. Processes
/// outside the scope have a trivially true local predicate. The scope is
/// kept sorted and duplicate-free.
///
/// # Example
///
/// ```rust
/// use wcp_clocks::ProcessId;
/// use wcp_trace::Wcp;
///
/// let wcp = Wcp::over([ProcessId::new(2), ProcessId::new(0)]);
/// assert_eq!(wcp.n(), 2);
/// assert_eq!(wcp.scope()[0], ProcessId::new(0)); // sorted
/// assert_eq!(wcp.position(ProcessId::new(2)), Some(1));
/// assert_eq!(wcp.position(ProcessId::new(1)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Wcp {
    scope: Vec<ProcessId>,
}

impl ToJson for Wcp {
    fn to_json(&self) -> Json {
        Json::obj([(
            "scope",
            Json::Arr(self.scope.iter().map(ProcessId::to_json).collect()),
        )])
    }
}

impl FromJson for Wcp {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let scope = Vec::<ProcessId>::from_json(value.field("scope")?)?;
        Ok(Wcp::over(scope))
    }
}

impl Wcp {
    /// Creates a predicate over the given processes (sorted, deduplicated).
    pub fn over<I: IntoIterator<Item = ProcessId>>(scope: I) -> Self {
        let mut scope: Vec<ProcessId> = scope.into_iter().collect();
        scope.sort_unstable();
        scope.dedup();
        Wcp { scope }
    }

    /// Creates a predicate over every process of `computation` (`n = N`).
    pub fn over_all(computation: &Computation) -> Self {
        Wcp {
            scope: ProcessId::all(computation.process_count()).collect(),
        }
    }

    /// Creates a predicate over the first `n` processes.
    pub fn over_first(n: usize) -> Self {
        Wcp {
            scope: ProcessId::all(n).collect(),
        }
    }

    /// The processes the predicate ranges over, sorted ascending.
    pub fn scope(&self) -> &[ProcessId] {
        &self.scope
    }

    /// The paper's `n`: the number of conjoined local predicates.
    pub fn n(&self) -> usize {
        self.scope.len()
    }

    /// `true` iff `p` is one of the predicate's processes.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.scope.binary_search(&p).is_ok()
    }

    /// Index of `p` within the sorted scope (the paper's `i ∈ 1ꓸꓸn`),
    /// or `None` if `p` is outside the scope.
    pub fn position(&self, p: ProcessId) -> Option<usize> {
        self.scope.binary_search(&p).ok()
    }

    /// Whether the local predicate of `p` holds in its 1-based `interval`:
    /// trivially true for processes outside the scope, otherwise the trace's
    /// recorded flag.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `interval` is out of range for `computation`.
    pub fn holds_locally(&self, computation: &Computation, p: ProcessId, interval: u64) -> bool {
        if !self.contains(p) {
            return true;
        }
        computation.process(p).pred_at(interval)
    }

    /// Whether a complete cut satisfies the conjunction (ignoring
    /// consistency — combine with
    /// [`AnnotatedComputation::is_consistent`](crate::AnnotatedComputation::is_consistent)).
    ///
    /// # Panics
    ///
    /// Panics if the cut does not cover every scope process with a nonzero
    /// interval, or indices are out of range.
    pub fn holds_on(&self, computation: &Computation, cut: &Cut) -> bool {
        self.scope.iter().all(|&p| {
            let k = cut.get(p).expect("cut narrower than predicate scope");
            assert!(k >= 1, "cut has no state for scope process {p}");
            computation.process(p).pred_at(k)
        })
    }

    /// Projects a full-width cut to the scope processes, in scope order.
    pub fn project(&self, cut: &Cut) -> Vec<u64> {
        self.scope
            .iter()
            .map(|&p| cut.get(p).unwrap_or(0))
            .collect()
    }

    /// The inverse of [`project`](Self::project): a cut over `n_total`
    /// processes holding `g[i]` at scope process `i` and `0` elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not one entry per scope process, or a scope
    /// process is not below `n_total`.
    pub fn lift(&self, g: &[u64], n_total: usize) -> Cut {
        assert_eq!(g.len(), self.n(), "one entry per scope process");
        let mut cut = Cut::new(n_total);
        for (&p, &k) in self.scope.iter().zip(g) {
            cut.set(p, k);
        }
        cut
    }
}

impl fmt::Display for Wcp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⋀{{")?;
        for (i, p) in self.scope.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "l({p})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn scope_is_sorted_and_deduped() {
        let w = Wcp::over([p(3), p(1), p(3), p(0)]);
        assert_eq!(w.scope(), &[p(0), p(1), p(3)]);
        assert_eq!(w.n(), 3);
        assert!(w.contains(p(3)));
        assert!(!w.contains(p(2)));
    }

    #[test]
    fn over_all_and_first() {
        let mut b = ComputationBuilder::new(4);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        assert_eq!(Wcp::over_all(&c).n(), 4);
        assert_eq!(Wcp::over_first(2).scope(), &[p(0), p(1)]);
    }

    #[test]
    fn holds_locally_trivial_outside_scope() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let w = Wcp::over([p(0)]);
        assert!(w.holds_locally(&c, p(0), 1));
        assert!(w.holds_locally(&c, p(1), 1)); // outside scope ⇒ true
    }

    #[test]
    fn holds_on_checks_scope_only() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let w = Wcp::over([p(0)]);
        let cut = Cut::from_indices(vec![1, 1]);
        assert!(w.holds_on(&c, &cut));
        assert!(!Wcp::over_all(&c).holds_on(&c, &cut));
    }

    #[test]
    fn project_extracts_scope_entries() {
        let w = Wcp::over([p(0), p(2)]);
        let cut = Cut::from_indices(vec![4, 9, 2]);
        assert_eq!(w.project(&cut), vec![4, 2]);
        assert_eq!(w.lift(&[4, 2], 3), Cut::from_indices(vec![4, 0, 2]));
        assert_eq!(w.project(&w.lift(&[4, 2], 3)), vec![4, 2]);
    }

    #[test]
    fn display_lists_scope() {
        assert_eq!(Wcp::over([p(0), p(2)]).to_string(), "⋀{l(P0),l(P2)}");
    }
}
