//! The Section 3 and Section 4 monitor visits and the §3.5 leader merge,
//! each written once: the offline emulations and the online actors run
//! the same code, so their walks cannot drift apart
//! (`tests/token_walks.rs` pins them).
//!
//! A visit is what a monitor does while it holds a red token: the `while`
//! loop consumes candidates until one survives, then the `for j ≠ i` loop
//! eliminates every selected state that happened before the new
//! candidate. It runs over a candidate source ([`Candidates`]: an offline
//! [`Queue`] or an online [`Inbox`]) and an effect sink ([`Effects`]: the
//! offline [`Meter`] or the online [`ActorEffects`]), both statically
//! dispatched, and reports how it ended ([`Visit`]); the caller then
//! detects, routes or sends. Work is the §3.4 unit: `n` per consumed
//! candidate (receive and examine an `n`-vector) and `n` for the `for`
//! loop.
//!
//! In Section 4 the holder runs Figure 4's repeat-until ([`collect`]) into
//! the same sink, then polls the source of every dependence it collected;
//! each polled monitor runs Figure 5's transition ([`poll`]).
//!
//! Section 3.5 runs the visit inside `g` groups. Its rules, for the
//! offline emulation and the online monitors alike:
//! - the scope splits into `min(g, n)` contiguous groups ([`groups`]);
//! - the leader sends each token that has a red member to the first red
//!   member ([`first_red`]);
//! - a group's token goes to the next red member cyclically after its
//!   holder, as the single token does ([`next_red_member`]); with none
//!   left it returns to the leader, a control message and not a hop;
//! - once every token is home the leader merges them ([`merge`]).

use std::collections::VecDeque;
use std::ops::Range;

use wcp_clocks::Dependence;
use wcp_obs::{LogicalTime, Recorder, TraceEvent};
use wcp_sim::Context;

use crate::meter::Meter;
use crate::offline::token::{Color, Token};
use crate::online::messages::{DetectMsg, GroupTokenMsg};
use crate::snapshot::{DdSnapshot, SnapshotBuffer, VcSnapshotQueues};

/// A monitor's candidate queue: its process's snapshots, oldest first.
pub(crate) trait Candidates {
    /// Consumes the oldest queued candidate, returning a handle to its
    /// clock row.
    fn pop(&mut self) -> Option<usize>;
    /// The scope-indexed clock of a popped candidate; its own component
    /// is its interval (Figure 2).
    fn row(&self, id: usize) -> &[u64];
    /// Whether the queue will receive no more candidates.
    fn closed(&self) -> bool;
}

/// Where a visit's costs and events go.
pub(crate) trait Effects {
    /// Monitor `at` consumed its candidate `interval` for `work` units;
    /// `accepted` iff the candidate survives.
    fn candidate(&mut self, at: usize, interval: u64, accepted: bool, work: u64);
    /// Monitor `at` spent `units` on the `for` loop.
    fn scan(&mut self, at: usize, units: u64);
    /// The `for` loop at `at` turned green position `j` red, raising
    /// `G[j]` to `interval`.
    fn invalidated(&mut self, at: usize, j: usize, interval: u64);
}

/// How a visit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit<A> {
    /// A candidate survived; carries its row handle (Figure 3, where the
    /// holder is now green) or its clock (Figure 4).
    Accepted(A),
    /// The queue ran dry but may still grow: resume on the next candidate.
    Blocked,
    /// The queue ran dry and is closed: the predicate cannot hold on a
    /// consistent cut any more.
    Exhausted,
}

/// Runs monitor `at`'s Figure 3 visit on `token`, which must hold `at`
/// red.
pub(crate) fn visit<C: Candidates, E: Effects>(
    token: &mut Token,
    at: usize,
    queue: &mut C,
    fx: &mut E,
) -> Visit<usize> {
    debug_assert_eq!(token.color(at), Color::Red, "token visits a green monitor");
    let n = token.g.len() as u64;
    // `while (color[i] = red)`: consume candidates until one survives.
    let id = loop {
        let Some(id) = queue.pop() else {
            return if queue.closed() {
                Visit::Exhausted
            } else {
                Visit::Blocked
            };
        };
        let interval = queue.row(id)[at];
        let accepted = interval > token.g[at];
        fx.candidate(at, interval, accepted, n);
        if accepted {
            token.g[at] = interval;
            token.set_color(at, Color::Green);
            break id;
        }
    };

    // `for j ≠ i`: eliminate the selected states the candidate knows.
    // One branch-light pass over the row against `G` first; the mutating
    // scan (colour writes, invalidation events) runs only when some
    // selected state is dominated, and would write nothing otherwise.
    fx.scan(at, n);
    let row = queue.row(id);
    let mut dominated = false;
    for (j, (&seen, &gj)) in row.iter().zip(&token.g).enumerate() {
        dominated |= j != at && seen >= gj && seen > 0;
    }
    if dominated {
        for (j, &seen) in row.iter().enumerate() {
            if j != at && seen >= token.g[j] && seen > 0 {
                token.g[j] = seen;
                if token.color(j) == Color::Green {
                    fx.invalidated(at, j, seen);
                }
                token.set_color(j, Color::Red);
            }
        }
    }
    Visit::Accepted(id)
}

/// Runs monitor `at`'s Figure 4 repeat-until against its candidate clock
/// `g`: consumes snapshots, appending each one's direct dependences to
/// `deps`, until one's clock exceeds `g`. A consumed candidate costs
/// `1 + |deps|` (§4.4). `closed` says end-of-trace arrived, which turns a
/// dry queue from [`Visit::Blocked`] into [`Visit::Exhausted`]. The caller
/// sets `G` to the accepted clock and polls `deps`.
pub(crate) fn collect<E: Effects>(
    at: usize,
    g: u64,
    queue: &mut VecDeque<DdSnapshot>,
    closed: bool,
    deps: &mut Vec<Dependence>,
    fx: &mut E,
) -> Visit<u64> {
    loop {
        let Some(snapshot) = queue.pop_front() else {
            return if closed {
                Visit::Exhausted
            } else {
                Visit::Blocked
            };
        };
        let accepted = snapshot.clock > g;
        fx.candidate(at, snapshot.clock, accepted, 1 + snapshot.deps.len() as u64);
        deps.extend(snapshot.deps);
        if accepted {
            return Visit::Accepted(snapshot.clock);
        }
    }
}

/// Figure 5 at a monitor whose candidate is `(g, color)`, polled with a
/// dependence on its interval `k`: if `k ≥ G`, the candidate happened
/// before a selected state, so the monitor turns red and sets `G := k`.
/// Returns the colour it had then, or `None` if the candidate stands; it
/// "became red" iff that colour was green.
pub(crate) fn poll(g: &mut u64, color: &mut Color, k: u64) -> Option<Color> {
    (k >= *g).then(|| {
        *g = k;
        std::mem::replace(color, Color::Red)
    })
}

/// An offline monitor's queue: a cursor into the run's precomputed
/// snapshot queues. Every snapshot is queued up front, so the queue is
/// closed and a visit never blocks.
pub(crate) struct Queue<'a> {
    /// The run's snapshot queues.
    pub queues: &'a VcSnapshotQueues,
    /// The monitor's scope position.
    pub pos: usize,
    /// Index of the monitor's next unconsumed snapshot.
    pub next: &'a mut usize,
}

impl Candidates for Queue<'_> {
    fn pop(&mut self) -> Option<usize> {
        let i = *self.next;
        (i < self.queues.queue_len(self.pos)).then(|| {
            *self.next += 1;
            self.queues.row_id(self.pos, i)
        })
    }
    fn row(&self, id: usize) -> &[u64] {
        self.queues.arena().row(id).as_slice()
    }
    fn closed(&self) -> bool {
        true
    }
}

/// An online monitor's queue: the snapshots delivered so far, closed once
/// its process's end-of-trace marker arrived.
pub(crate) struct Inbox<'a> {
    /// The delivered snapshots.
    pub queue: &'a mut SnapshotBuffer,
    /// Whether end-of-trace arrived.
    pub eot: bool,
}

impl Candidates for Inbox<'_> {
    fn pop(&mut self) -> Option<usize> {
        self.queue.pop()
    }
    fn row(&self, id: usize) -> &[u64] {
        self.queue.row(id).as_slice()
    }
    fn closed(&self) -> bool {
        self.eot
    }
}

impl Effects for Meter {
    fn candidate(&mut self, at: usize, interval: u64, accepted: bool, work: u64) {
        if accepted {
            self.candidate_accepted(at, at, interval, work);
        } else {
            self.candidate_eliminated(at, at, interval, work);
        }
    }
    fn scan(&mut self, at: usize, units: u64) {
        self.work(at, units);
    }
    fn invalidated(&mut self, at: usize, j: usize, interval: u64) {
        self.candidate_invalidated(at, j, interval);
    }
}

/// The online monitors' sink: work goes to the actor context and events
/// to the recorder, built only while the recorder is enabled.
pub(crate) struct ActorEffects<'a> {
    ctx: &'a mut dyn Context<DetectMsg>,
    recorder: &'a dyn Recorder,
    observe: bool,
}

impl<'a> ActorEffects<'a> {
    /// A sink over `ctx`, recording to `recorder`.
    pub fn new(ctx: &'a mut dyn Context<DetectMsg>, recorder: &'a dyn Recorder) -> Self {
        ActorEffects {
            ctx,
            observe: recorder.is_enabled(),
            recorder,
        }
    }

    fn emit(&self, at: usize, event: TraceEvent) {
        self.recorder
            .record(at as u32, LogicalTime::Tick(self.ctx.now()), event);
    }
}

impl Effects for ActorEffects<'_> {
    fn candidate(&mut self, at: usize, interval: u64, accepted: bool, work: u64) {
        self.ctx.add_work(work);
        if self.observe {
            let process = at as u32;
            self.emit(
                at,
                if accepted {
                    TraceEvent::CandidateAccepted {
                        process,
                        interval,
                        work,
                    }
                } else {
                    TraceEvent::CandidateEliminated {
                        process,
                        interval,
                        work,
                    }
                },
            );
        }
    }
    fn scan(&mut self, at: usize, units: u64) {
        self.ctx.add_work(units);
        if self.observe {
            self.emit(at, TraceEvent::Work { units });
        }
    }
    fn invalidated(&mut self, at: usize, j: usize, interval: u64) {
        if self.observe {
            self.emit(
                at,
                TraceEvent::CandidateInvalidated {
                    process: j as u32,
                    interval,
                },
            );
        }
    }
}

/// The §3.5 partition of `n ≥ 1` scope positions into `min(g, n)`
/// contiguous, balanced groups: position `i` is in group `i·g/n`.
pub(crate) fn groups(n: usize, g: usize) -> Vec<Range<usize>> {
    let g = g.min(n);
    (0..g)
        .map(|k| (k * n).div_ceil(g)..((k + 1) * n).div_ceil(g))
        .collect()
}

/// Where the leader sends a group's token: its first red member, if any.
pub(crate) fn first_red(token: &Token, members: &Range<usize>) -> Option<usize> {
    members.clone().find(|&p| token.color(p) == Color::Red)
}

/// Where a group's token goes after `at`'s visit: the next red member
/// cyclically after `at`. `None` sends it home to the leader.
pub(crate) fn next_red_member(token: &Token, members: &Range<usize>, at: usize) -> Option<usize> {
    let len = members.len();
    (1..=len)
        .map(|d| members.start + (at - members.start + d) % len)
        .find(|&p| token.color(p) == Color::Red)
}

/// The §3.5 leader merge, once every group's token is home: `tokens[k]`
/// walked `groups[k]`. The leader's `n²` work is the caller's to charge.
///
/// Each position takes the largest `G` any token holds, with its own
/// group's colour and candidate clock; it stays green only if its group
/// holds that largest `G`. Then the Figure 3 `for` loop runs across
/// groups: a green candidate that knows interval `≥ G[i]` of position `i`
/// eliminates it. The paper leaves this check open; the tokens carry the
/// candidate clocks for it (DESIGN.md §3). Returns the merged `G` when
/// every position stays green: detection. Otherwise every token leaves
/// carrying the merged state.
pub(crate) fn merge(tokens: &mut [GroupTokenMsg], groups: &[Range<usize>]) -> Option<Vec<u64>> {
    let n = tokens[0].token.g.len();
    let mut merged = Token::new(n);
    let mut candidates = vec![None; n];
    for (owner, members) in tokens.iter().zip(groups) {
        for i in members.clone() {
            merged.g[i] = tokens.iter().map(|t| t.token.g[i]).max().unwrap_or(0);
            candidates[i] = owner.candidates[i].clone();
            if owner.token.color(i) == Color::Green && owner.token.g[i] == merged.g[i] {
                merged.set_color(i, Color::Green);
            }
        }
    }
    for (j, known) in candidates.iter().enumerate() {
        if merged.color(j) != Color::Green {
            continue;
        }
        let known = known.as_ref().expect("green ⇒ candidate");
        for (i, &seen) in known.as_slice().iter().enumerate() {
            if i != j && seen >= merged.g[i] && seen > 0 {
                merged.g[i] = seen;
                merged.set_color(i, Color::Red);
            }
        }
    }
    if merged.all_green() {
        return Some(merged.g);
    }
    for t in tokens {
        t.token = merged.clone();
        t.candidates = candidates.clone();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_contiguous_and_balanced() {
        for n in 1..12 {
            for g in 1..14 {
                let parts = groups(n, g);
                assert_eq!(parts.len(), g.min(n));
                let mut next = 0;
                for (k, members) in parts.iter().enumerate() {
                    assert_eq!(members.start, next, "n {n} g {g}");
                    assert!(!members.is_empty(), "n {n} g {g}");
                    assert!(members.clone().all(|i| i * parts.len() / n == k));
                    next = members.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn group_routing_is_cyclic_within_the_group() {
        let mut token = Token::new(6);
        let members = 2..5;
        assert_eq!(first_red(&token, &members), Some(2));
        token.set_color(2, Color::Green);
        token.set_color(3, Color::Green);
        assert_eq!(next_red_member(&token, &members, 2), Some(4));
        assert_eq!(next_red_member(&token, &members, 3), Some(4));
        token.set_color(4, Color::Green);
        assert_eq!(next_red_member(&token, &members, 3), None);
        assert_eq!(first_red(&token, &members), None);
        token.set_color(2, Color::Red);
        assert_eq!(next_red_member(&token, &members, 3), Some(2));
    }
}
