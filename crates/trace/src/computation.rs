//! The computation model and its structural validation.

use std::fmt;

use wcp_clocks::{Cut, ProcessId, StateId};
use wcp_obs::json::{FromJson, Json, JsonError, ToJson};

use crate::annotate::AnnotatedComputation;
use crate::event::{Event, MsgId};
use crate::lattice::LatticeTruncated;
use crate::stats::ComputationStats;

/// The recorded execution of one process: its communication events and the
/// predicate flag for each interval between them.
///
/// A process with `E` events has `E + 1` intervals, numbered `1ꓸꓸE+1`
/// (interval `k` precedes event `k`; interval `E + 1` follows the last
/// event). `pred[k - 1]` records whether the local predicate was true at
/// some point during interval `k`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessTrace {
    /// Communication events, in program order.
    pub events: Vec<Event>,
    /// Per-interval predicate flags; `pred.len() == events.len() + 1`.
    pub pred: Vec<bool>,
}

impl ProcessTrace {
    /// Creates an event-free trace (one interval) with the predicate false.
    pub fn new() -> Self {
        ProcessTrace {
            events: Vec::new(),
            pred: vec![false],
        }
    }

    /// Number of communication events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of intervals (`events + 1`).
    pub fn interval_count(&self) -> usize {
        self.events.len() + 1
    }

    /// Predicate flag for 1-based interval `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is `0` or exceeds [`interval_count`](Self::interval_count).
    pub fn pred_at(&self, k: u64) -> bool {
        assert!(k >= 1, "interval indices are 1-based");
        self.pred[(k - 1) as usize]
    }
}

impl ToJson for ProcessTrace {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "events",
                Json::Arr(self.events.iter().map(Event::to_json).collect()),
            ),
            (
                "pred",
                Json::Arr(self.pred.iter().map(|&b| Json::Bool(b)).collect()),
            ),
        ])
    }
}

impl FromJson for ProcessTrace {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ProcessTrace {
            events: Vec::from_json(value.field("events")?)?,
            pred: Vec::from_json(value.field("pred")?)?,
        })
    }
}

/// A single run of a distributed program: one [`ProcessTrace`] per process.
///
/// Construct with [`ComputationBuilder`](crate::ComputationBuilder), the
/// generators in [`generate`](crate::generate), or deserialize from JSON;
/// then call [`validate`](Self::validate) (builders and generators always
/// emit valid computations — validation exists for hand-made and
/// deserialized data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Computation {
    processes: Vec<ProcessTrace>,
}

impl ToJson for Computation {
    fn to_json(&self) -> Json {
        Json::obj([(
            "processes",
            Json::Arr(self.processes.iter().map(ProcessTrace::to_json).collect()),
        )])
    }
}

impl FromJson for Computation {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Computation {
            processes: Vec::from_json(value.field("processes")?)?,
        })
    }
}

/// Ways a hand-built or deserialized [`Computation`] can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputationError {
    /// The computation has no processes, so no predicate can name one.
    NoProcesses,
    /// A process's `pred` vector does not have `events + 1` entries.
    PredLengthMismatch {
        /// Offending process.
        process: ProcessId,
        /// Number of events recorded.
        events: usize,
        /// Number of predicate flags recorded.
        pred_len: usize,
    },
    /// A send or receive names a process outside the computation.
    PeerOutOfRange {
        /// Process whose trace contains the event.
        process: ProcessId,
        /// The out-of-range peer.
        peer: ProcessId,
    },
    /// A process sends a message to itself.
    SelfMessage {
        /// Offending process.
        process: ProcessId,
        /// Offending message.
        msg: MsgId,
    },
    /// Two sends carry the same message identifier.
    DuplicateSend(MsgId),
    /// Two receives consume the same message identifier.
    DuplicateReceive(MsgId),
    /// A receive references a message no process sends.
    ReceiveWithoutSend(MsgId),
    /// A receive's `from` or location disagrees with the matching send.
    MismatchedEndpoints {
        /// Offending message.
        msg: MsgId,
        /// What the send declared: `(sender, destination)`.
        send: (ProcessId, ProcessId),
        /// What the receive declared: `(claimed sender, receiver)`.
        receive: (ProcessId, ProcessId),
    },
    /// The event sequences admit no valid interleaving (a message is
    /// received "before" it could have been sent).
    CausalCycle {
        /// Per-process count of events that could not be scheduled.
        stuck_events: usize,
    },
    /// A vector-clock table would hold more cells than
    /// [`CLOCK_CELL_BUDGET`](crate::CLOCK_CELL_BUDGET) allows; it was not
    /// allocated.
    ClockBudget {
        /// Width of the table's clocks.
        width: usize,
        /// `u64` components the table would hold.
        cells: u64,
        /// The budget it exceeds.
        budget: u64,
    },
    /// The lattice of consistent global states has more states than an
    /// exploration may visit.
    LatticeBudget(LatticeTruncated),
}

impl fmt::Display for ComputationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputationError::NoProcesses => write!(f, "computation has no processes"),
            ComputationError::PredLengthMismatch {
                process,
                events,
                pred_len,
            } => write!(
                f,
                "process {process} has {events} events but {pred_len} predicate flags (want events + 1)"
            ),
            ComputationError::PeerOutOfRange { process, peer } => {
                write!(f, "event on {process} names out-of-range peer {peer}")
            }
            ComputationError::SelfMessage { process, msg } => {
                write!(f, "process {process} sends message {msg} to itself")
            }
            ComputationError::DuplicateSend(m) => write!(f, "message {m} is sent twice"),
            ComputationError::DuplicateReceive(m) => write!(f, "message {m} is received twice"),
            ComputationError::ReceiveWithoutSend(m) => {
                write!(f, "message {m} is received but never sent")
            }
            ComputationError::MismatchedEndpoints { msg, send, receive } => write!(
                f,
                "message {msg} endpoints disagree: sent {}→{} but received {}→{}",
                send.0, send.1, receive.0, receive.1
            ),
            ComputationError::CausalCycle { stuck_events } => write!(
                f,
                "event sequences admit no valid interleaving ({stuck_events} events unschedulable)"
            ),
            ComputationError::ClockBudget {
                width,
                cells,
                budget,
            } => write!(
                f,
                "vector clocks {width} wide need {cells} cells, over the budget of {budget} cells"
            ),
            ComputationError::LatticeBudget(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ComputationError {}

impl Computation {
    /// Creates a computation from per-process traces.
    ///
    /// The result is not checked; call [`validate`](Self::validate) if the
    /// traces come from an untrusted source.
    pub fn from_traces(processes: Vec<ProcessTrace>) -> Self {
        Computation { processes }
    }

    /// Number of processes (`N` in the paper).
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// The trace of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn process(&self, p: ProcessId) -> &ProcessTrace {
        &self.processes[p.index()]
    }

    /// Iterates over `(ProcessId, &ProcessTrace)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &ProcessTrace)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, t)| (ProcessId::new(i as u32), t))
    }

    /// Read-only view of all process traces.
    pub fn traces(&self) -> &[ProcessTrace] {
        &self.processes
    }

    /// The paper's `m`: the maximum number of messages sent or received by
    /// any single process.
    pub fn max_events_per_process(&self) -> usize {
        self.processes
            .iter()
            .map(|t| t.event_count())
            .max()
            .unwrap_or(0)
    }

    /// Total number of communication events across all processes.
    pub fn total_events(&self) -> usize {
        self.processes.iter().map(|t| t.event_count()).sum()
    }

    /// Total number of messages (sends) in the computation.
    pub fn total_messages(&self) -> usize {
        self.processes
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.is_send())
            .count()
    }

    /// Predicate flag of local state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` names a process or interval out of range, or has
    /// index `0`.
    pub fn pred_at(&self, s: StateId) -> bool {
        self.process(s.process).pred_at(s.index)
    }

    /// Replays this computation once for its dependences, pred-true
    /// intervals and replay order; vector clocks are built from these on
    /// demand.
    ///
    /// This is the entry point for all happened-before queries; see
    /// [`AnnotatedComputation`].
    pub fn annotate(&self) -> AnnotatedComputation<'_> {
        AnnotatedComputation::new(self)
    }

    /// Summary statistics (event counts, message counts, predicate density).
    pub fn stats(&self) -> ComputationStats {
        ComputationStats::of(self)
    }

    /// Slices the computation to the prefix at or below `cut`: process `i`
    /// keeps its first `cut[i]` intervals (events `1 ..= cut[i]−1`).
    ///
    /// If `cut` is a **consistent** cut, the prefix is a valid computation
    /// (no received message can cross a consistent cut backwards) that
    /// still contains every state of the cut — the standard way to shrink
    /// a trace to a detected violation for debugging.
    ///
    /// # Panics
    ///
    /// Panics if the cut is incomplete or out of range for this
    /// computation.
    pub fn truncate_at(&self, cut: &Cut) -> Computation {
        assert_eq!(cut.len(), self.process_count(), "cut width mismatch");
        let traces = self
            .iter()
            .map(|(p, trace)| {
                let k = cut.get(p).expect("cut covers every process");
                assert!(
                    k >= 1 && (k as usize) <= trace.interval_count(),
                    "cut entry {k} out of range for {p}"
                );
                ProcessTrace {
                    events: trace.events[..(k - 1) as usize].to_vec(),
                    pred: trace.pred[..k as usize].to_vec(),
                }
            })
            .collect();
        Computation::from_traces(traces)
    }

    /// Checks structural well-formedness.
    ///
    /// # Errors
    ///
    /// Returns the first problem found, checked in this order: a
    /// computation without processes; predicate-flag length mismatches and
    /// out-of-range or self-directed messages (in process, then event
    /// order); duplicate message
    /// identifiers (at the earliest second occurrence); receives without a
    /// send or whose endpoints disagree with their send (at the earliest
    /// such receive); event sequences that admit no valid interleaving.
    /// "Earliest" orders positions by process, then event, so the same
    /// trace always reports the same error.
    pub fn validate(&self) -> Result<(), ComputationError> {
        self.replay(|_, _, _| {})
    }

    /// Validates the computation, then replays it in one valid
    /// interleaving, calling `visit(p, e, send)` for the 0-based event `e`
    /// of process `p` in schedule order. `send` is the position of the
    /// matching send for a receive and `None` for a send, and a receive is
    /// visited only after its send.
    ///
    /// The schedule is greedy: each process runs until it blocks on a
    /// receive whose send has not run yet. Sends are always enabled and
    /// enabling is monotone, so the greedy schedule completes iff some
    /// schedule does.
    pub(crate) fn replay(
        &self,
        mut visit: impl FnMut(ProcessId, usize, Option<Position>),
    ) -> Result<(), ComputationError> {
        self.check_shape()?;
        let Matching {
            first_event,
            send_of,
        } = self.match_messages()?;
        let mut next = vec![0usize; self.processes.len()];
        let total = send_of.len();
        let mut done = 0usize;
        loop {
            let mut progressed = false;
            for (p, trace) in self.iter() {
                let i = p.index();
                while next[i] < trace.events.len() {
                    let e = next[i];
                    let send = send_of[first_event[i] + e];
                    if let Some((q, j)) = send {
                        if next[q.index()] <= j {
                            break; // not yet sent; try another process
                        }
                    }
                    visit(p, e, send);
                    next[i] += 1;
                    done += 1;
                    progressed = true;
                }
            }
            if done == total {
                return Ok(());
            }
            if !progressed {
                return Err(ComputationError::CausalCycle {
                    stuck_events: total - done,
                });
            }
        }
    }

    /// Per-process checks: predicate-flag count and message peers.
    fn check_shape(&self) -> Result<(), ComputationError> {
        let n = self.processes.len();
        if n == 0 {
            return Err(ComputationError::NoProcesses);
        }
        for (p, trace) in self.iter() {
            if trace.pred.len() != trace.events.len() + 1 {
                return Err(ComputationError::PredLengthMismatch {
                    process: p,
                    events: trace.events.len(),
                    pred_len: trace.pred.len(),
                });
            }
            for ev in &trace.events {
                let peer = ev.peer();
                if peer.index() >= n {
                    return Err(ComputationError::PeerOutOfRange { process: p, peer });
                }
                if let Event::Send { to, msg } = *ev {
                    if to == p {
                        return Err(ComputationError::SelfMessage { process: p, msg });
                    }
                }
            }
        }
        Ok(())
    }

    /// Pairs every receive with its send: the one message matching of the
    /// crate, for computations already validated.
    ///
    /// # Panics
    ///
    /// Panics if a message is sent or received twice, or received with no
    /// matching send.
    pub(crate) fn matching(&self) -> Matching {
        self.match_messages()
            .expect("matching messages of an invalid computation")
    }

    /// Pairs every receive with its send by sorting all events on
    /// `(msg, kind, process, event)` once.
    fn match_messages(&self) -> Result<Matching, ComputationError> {
        let mut first_event = Vec::with_capacity(self.processes.len());
        let mut events = Vec::with_capacity(self.total_events());
        for (p, trace) in self.iter() {
            first_event.push(events.len());
            for (e, ev) in trace.events.iter().enumerate() {
                events.push((ev.msg(), ev.is_receive(), p, e));
            }
        }
        events.sort_unstable();

        let mut send_of = vec![None; events.len()];
        let mut duplicate = Earliest::default();
        let mut bad_receive = Earliest::default();
        for group in events.chunk_by(|a, b| a.0 == b.0) {
            let msg = group[0].0;
            let (sends, receives) = group.split_at(group.partition_point(|r| !r.1));
            if let Some(&(_, _, p, e)) = sends.get(1) {
                duplicate.offer((p, e), ComputationError::DuplicateSend(msg));
            }
            if let Some(&(_, _, p, e)) = receives.get(1) {
                duplicate.offer((p, e), ComputationError::DuplicateReceive(msg));
            }
            let Some(&(_, _, receiver, re)) = receives.first() else {
                continue;
            };
            let claimed_from = self.processes[receiver.index()].events[re].peer();
            match sends.first() {
                None => {
                    bad_receive.offer((receiver, re), ComputationError::ReceiveWithoutSend(msg))
                }
                Some(&(_, _, sender, se)) => {
                    let dest = self.processes[sender.index()].events[se].peer();
                    if sender != claimed_from || dest != receiver {
                        bad_receive.offer(
                            (receiver, re),
                            ComputationError::MismatchedEndpoints {
                                msg,
                                send: (sender, dest),
                                receive: (claimed_from, receiver),
                            },
                        );
                    } else {
                        send_of[first_event[receiver.index()] + re] = Some((sender, se));
                    }
                }
            }
        }
        match duplicate.0.or(bad_receive.0) {
            Some((_, err)) => Err(err),
            None => Ok(Matching {
                first_event,
                send_of,
            }),
        }
    }
}

/// An event's position: its process and 0-based index in that process.
pub(crate) type Position = (ProcessId, usize);

/// Every receive of a computation paired with its send.
#[derive(Debug, Clone)]
pub(crate) struct Matching {
    /// Each process's first global event index.
    first_event: Vec<usize>,
    /// Per global event: the position of the matching send (`None` for
    /// sends).
    send_of: Vec<Option<Position>>,
}

impl Matching {
    /// Global index of event `e` of `p`: process by process, in program
    /// order.
    pub(crate) fn index(&self, p: ProcessId, e: usize) -> usize {
        self.first_event[p.index()] + e
    }

    /// The position of the send that event `e` of `p` receives, `None`
    /// for a send.
    pub(crate) fn send_of(&self, p: ProcessId, e: usize) -> Option<Position> {
        self.send_of[self.index(p, e)]
    }
}

/// The defect found at the smallest position so far.
#[derive(Default)]
struct Earliest(Option<(Position, ComputationError)>);

impl Earliest {
    fn offer(&mut self, at: Position, err: ComputationError) {
        if self.0.as_ref().is_none_or(|(seen, _)| at < *seen) {
            self.0 = Some((at, err));
        }
    }
}

impl fmt::Display for Computation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "computation over {} processes:", self.processes.len())?;
        for (p, trace) in self.iter() {
            write!(f, "  {p}:")?;
            for (k, ev) in trace.events.iter().enumerate() {
                let flag = if trace.pred[k] { "*" } else { "" };
                write!(f, " [{}{flag}] {ev}", k + 1)?;
            }
            let last = trace.pred.len();
            let flag = if trace.pred[last - 1] { "*" } else { "" };
            writeln!(f, " [{last}{flag}]")?;
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

    #[test]
    fn empty_trace_has_one_interval() {
        let t = ProcessTrace::new();
        assert_eq!(t.interval_count(), 1);
        assert!(!t.pred_at(1));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn pred_at_zero_panics() {
        ProcessTrace::new().pred_at(0);
    }

    #[test]
    fn valid_two_process_exchange() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        let c = b.build().unwrap();
        assert_eq!(c.process_count(), 2);
        assert_eq!(c.total_messages(), 1);
        assert_eq!(c.total_events(), 2);
        assert_eq!(c.max_events_per_process(), 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn detects_pred_length_mismatch() {
        let mut t = ProcessTrace::new();
        t.pred.clear(); // now 0 flags for 0 events (want 1)
        let c = Computation::from_traces(vec![t]);
        assert!(matches!(
            c.validate(),
            Err(ComputationError::PredLengthMismatch { .. })
        ));
    }

    #[test]
    fn detects_peer_out_of_range() {
        let mut t = ProcessTrace::new();
        t.events.push(Event::Send {
            to: p(5),
            msg: MsgId::new(0),
        });
        t.pred.push(false);
        let c = Computation::from_traces(vec![t]);
        assert!(matches!(
            c.validate(),
            Err(ComputationError::PeerOutOfRange { .. })
        ));
    }

    #[test]
    fn detects_self_message() {
        let mut t = ProcessTrace::new();
        t.events.push(Event::Send {
            to: p(0),
            msg: MsgId::new(0),
        });
        t.pred.push(false);
        let c = Computation::from_traces(vec![t]);
        assert!(matches!(
            c.validate(),
            Err(ComputationError::SelfMessage { .. })
        ));
    }

    #[test]
    fn detects_duplicate_send() {
        let mk = |to| Event::Send {
            to,
            msg: MsgId::new(0),
        };
        let mut t0 = ProcessTrace::new();
        t0.events.extend([mk(p(1)), mk(p(1))]);
        t0.pred.extend([false, false]);
        let c = Computation::from_traces(vec![t0, ProcessTrace::new()]);
        assert_eq!(
            c.validate(),
            Err(ComputationError::DuplicateSend(MsgId::new(0)))
        );
    }

    #[test]
    fn detects_receive_without_send() {
        let mut t = ProcessTrace::new();
        t.events.push(Event::Receive {
            from: p(1),
            msg: MsgId::new(9),
        });
        t.pred.push(false);
        let c = Computation::from_traces(vec![t, ProcessTrace::new()]);
        assert_eq!(
            c.validate(),
            Err(ComputationError::ReceiveWithoutSend(MsgId::new(9)))
        );
    }

    fn send(to: u32, msg: u64) -> Event {
        Event::Send {
            to: p(to),
            msg: MsgId::new(msg),
        }
    }

    fn recv(from: u32, msg: u64) -> Event {
        Event::Receive {
            from: p(from),
            msg: MsgId::new(msg),
        }
    }

    /// A computation with the given events per process, predicates false.
    fn of_events(per_process: &[&[Event]]) -> Computation {
        let traces = per_process
            .iter()
            .map(|events| ProcessTrace {
                events: events.to_vec(),
                pred: vec![false; events.len() + 1],
            })
            .collect();
        Computation::from_traces(traces)
    }

    #[test]
    fn reports_the_earliest_bad_receive() {
        // Four orphan receives: the one at the smallest (process, event)
        // position is reported, on every run.
        let c = of_events(&[&[recv(1, 9), recv(1, 7)], &[recv(0, 8), recv(0, 10)]]);
        for _ in 0..8 {
            assert_eq!(
                c.validate(),
                Err(ComputationError::ReceiveWithoutSend(MsgId::new(9)))
            );
        }
        // Orphans and endpoint mismatches share one order: P1's orphan
        // comes before P2's mismatch, and the other way round.
        let c = of_events(&[&[send(1, 1)], &[recv(0, 5)], &[recv(0, 1)]]);
        assert_eq!(
            c.validate(),
            Err(ComputationError::ReceiveWithoutSend(MsgId::new(5)))
        );
        let c = of_events(&[&[send(2, 1)], &[recv(0, 1)], &[recv(0, 5)]]);
        assert_eq!(
            c.validate(),
            Err(ComputationError::MismatchedEndpoints {
                msg: MsgId::new(1),
                send: (p(0), p(2)),
                receive: (p(0), p(1)),
            })
        );
    }

    #[test]
    fn reports_the_earliest_second_occurrence() {
        // m4's second send (P0 event 2) precedes m3's (P0 event 3) and the
        // second receive of m3 (P1 event 1); duplicates outrank orphans.
        let c = of_events(&[
            &[send(1, 3), send(1, 4), send(1, 4), send(1, 3)],
            &[recv(0, 3), recv(0, 3), recv(0, 8)],
        ]);
        assert_eq!(
            c.validate(),
            Err(ComputationError::DuplicateSend(MsgId::new(4)))
        );
        let c = of_events(&[
            &[recv(1, 6), recv(1, 6)],
            &[send(0, 6), send(0, 2), send(0, 2)],
        ]);
        assert_eq!(
            c.validate(),
            Err(ComputationError::DuplicateReceive(MsgId::new(6)))
        );
    }

    #[test]
    fn detects_mismatched_endpoints() {
        let mut t0 = ProcessTrace::new();
        t0.events.push(Event::Send {
            to: p(1),
            msg: MsgId::new(0),
        });
        t0.pred.push(false);
        let mut t2 = ProcessTrace::new();
        // P2 claims to receive m0 although it was addressed to P1.
        t2.events.push(Event::Receive {
            from: p(0),
            msg: MsgId::new(0),
        });
        t2.pred.push(false);
        let c = Computation::from_traces(vec![t0, ProcessTrace::new(), t2]);
        assert!(matches!(
            c.validate(),
            Err(ComputationError::MismatchedEndpoints { .. })
        ));
    }

    #[test]
    fn detects_causal_cycle() {
        // P0: recv(m1) then send(m0);  P1: recv(m0) then send(m1).
        let mut t0 = ProcessTrace::new();
        t0.events.push(Event::Receive {
            from: p(1),
            msg: MsgId::new(1),
        });
        t0.events.push(Event::Send {
            to: p(1),
            msg: MsgId::new(0),
        });
        t0.pred.extend([false, false]);
        let mut t1 = ProcessTrace::new();
        t1.events.push(Event::Receive {
            from: p(0),
            msg: MsgId::new(0),
        });
        t1.events.push(Event::Send {
            to: p(0),
            msg: MsgId::new(1),
        });
        t1.pred.extend([false, false]);
        let c = Computation::from_traces(vec![t0, t1]);
        assert_eq!(
            c.validate(),
            Err(ComputationError::CausalCycle { stuck_events: 4 })
        );
    }

    #[test]
    fn unreceived_messages_are_legal() {
        let mut b = ComputationBuilder::new(2);
        b.send(p(0), p(1)); // never received
        let c = b.build().unwrap();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn display_shows_events_and_flags() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        let c = b.build().unwrap();
        let s = c.to_string();
        assert!(s.contains("P0"));
        assert!(s.contains("send(m0)→P1"));
        assert!(s.contains("[1*]"));
    }

    #[test]
    fn truncate_at_consistent_cut_preserves_detection() {
        // P0 sends m0 after its true interval; P1 receives and is true.
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0)); // (0,2)
        b.receive(p(1), m);
        b.mark_true(p(1)); // (1,2)
        b.send(p(0), p(1)); // extra tail activity, never received
        let c = b.build().unwrap();
        let cut = Cut::from_indices(vec![2, 2]);
        assert!(c.annotate().is_consistent(&cut));
        let sliced = c.truncate_at(&cut);
        assert!(sliced.validate().is_ok());
        assert_eq!(sliced.process(p(0)).event_count(), 1, "tail send dropped");
        assert_eq!(sliced.process(p(1)).event_count(), 1);
        // The detection result is unchanged on the slice.
        let a = sliced.annotate();
        assert_eq!(
            a.first_satisfying_cut(&crate::Wcp::over_first(2)),
            Some(cut)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn truncate_rejects_incomplete_cut() {
        let c = ComputationBuilder::new(2).build().unwrap();
        c.truncate_at(&Cut::from_indices(vec![0, 1]));
    }

    #[test]
    fn json_roundtrip() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let json = c.to_json().to_string();
        assert!(json.starts_with("{\"processes\":["), "{json}");
        assert!(json.contains("{\"Send\":{\"to\":1,\"msg\":0}}"), "{json}");
        let back = Computation::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, c);
        assert!(back.validate().is_ok());
    }
}
