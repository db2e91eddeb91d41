//! The Figures 4–5 monitor actor (direct-dependence algorithm), including
//! the Section 4.5 parallel red-chain variant.
//!
//! Each monitor owns its share of the distributed token state (Table 1):
//! its candidate clock `G`, its colour, and its `next_red` chain pointer.
//! The token itself is empty. The token holder collects candidates until
//! one survives `G`, polls the source of every collected dependence
//! (sequentially — one outstanding poll, so chain insertions are atomic),
//! then forwards the token to the head of the remaining chain.
//!
//! **Parallel variant (§4.5).** When enabled, every red monitor performs
//! the collect-and-poll phase *proactively*, without waiting for the token;
//! it stays red (and on the chain) until the token arrives, at which point
//! its staged candidate is either accepted instantly or — if later polls
//! invalidated it — the search resumes. One deviation from a naive reading
//! of Figure 5 is needed for chain integrity: a token holder that is mid
//! visit defers replying to incoming polls until its visit completes
//! (indistinguishable from network latency), so a holder is never
//! re-reddened while splicing the chain.
//!
//! Figure 4's repeat-until and Figure 5's transition are the ones the
//! offline emulation runs (`crate::visit`); this actor keeps the
//! one-outstanding-poll state machine, the proactive search, staging and
//! deferred polls.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use std::sync::Mutex;
use wcp_clocks::{Dependence, ProcessId};
use wcp_obs::{LogicalTime, NullRecorder, Recorder, TraceEvent};
use wcp_sim::{Actor, ActorId, Context};

use wcp_trace::{Computation, Wcp};

use crate::detector::DetectionReport;
use crate::offline::token::Color;
use crate::online::app::ClockMode;
use crate::online::harness::{detection_layout, DetectActor, Layout};
use crate::online::messages::{DetectMsg, DD_TOKEN_BYTES, POLL_BYTES, REPLY_BYTES};
use crate::online::vc_monitor::{stall_row, OnlineDetection, SharedOutcome, SharedStats};
use crate::snapshot::DdSnapshot;
use crate::visit::{collect, poll, ActorEffects, Visit};

#[derive(Debug)]
enum Phase {
    /// Not searching: waiting for the token (red) or done (green).
    Idle,
    /// Figure 4 repeat-until: consuming candidates, gathering dependences.
    Collecting { deps: Vec<Dependence> },
    /// Polling the collected dependences one at a time.
    Polling {
        deps: Vec<Dependence>,
        idx: usize,
        /// Set when an incoming poll eliminated the accepted candidate
        /// while its dependences were still being polled (parallel mode
        /// only — a holder defers polls, so its candidate cannot die).
        candidate_dead: bool,
    },
}

/// Shared instrumentation board: each monitor's current `G`, read by the
/// detecting monitor to assemble the final cut (the cut *is* distributed;
/// this is observation, not communication — see DESIGN.md §3).
pub type GBoard = Arc<Mutex<Vec<u64>>>;

/// A Figure 4–5 monitor.
pub struct DdMonitor {
    pid: ProcessId,
    /// Monitor actors indexed by `ProcessId`.
    monitors: Vec<ActorId>,
    parallel: bool,

    queue: VecDeque<DdSnapshot>,
    eot: bool,
    color: Color,
    g: u64,
    next_red: Option<ProcessId>,
    phase: Phase,
    holds_token: bool,
    /// Parallel mode: a proactively found candidate is staged (its clock is
    /// already in `g`; invalidated by any poll with `clock ≥ g`).
    staged: bool,
    /// Polls deferred while this monitor is a mid-visit green holder.
    deferred_polls: VecDeque<(ActorId, u64, Option<ProcessId>)>,
    /// Latched once a verdict is published: late deliveries (the stop
    /// signal is asynchronous on the net peers) are ignored.
    done: bool,

    g_board: GBoard,
    result: SharedOutcome,
    stats: SharedStats,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for DdMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DdMonitor")
            .field("pid", &self.pid)
            .field("color", &self.color)
            .field("g", &self.g)
            .field("holds_token", &self.holds_token)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl DdMonitor {
    /// Builds the monitor for process `pid` of `n_total`. Process 0 starts
    /// with the token; the initial red chain is `P0 → P1 → … → P(N−1)`.
    pub fn new(
        pid: ProcessId,
        n_total: usize,
        monitors: Vec<ActorId>,
        parallel: bool,
        g_board: GBoard,
        result: SharedOutcome,
        stats: SharedStats,
    ) -> Self {
        let next = pid.index() + 1;
        DdMonitor {
            pid,
            monitors,
            parallel,
            queue: VecDeque::new(),
            eot: false,
            color: Color::Red,
            g: 0,
            next_red: (next < n_total).then(|| ProcessId::new(next as u32)),
            phase: Phase::Idle,
            holds_token: pid.index() == 0,
            staged: false,
            deferred_polls: VecDeque::new(),
            done: false,
            g_board,
            result,
            stats,
            recorder: Arc::new(NullRecorder),
        }
    }

    fn emit(&self, ctx: &dyn Context<DetectMsg>, event: TraceEvent) {
        self.recorder
            .record(self.pid.index() as u32, LogicalTime::Tick(ctx.now()), event);
    }

    fn publish_g(&self) {
        self.g_board.lock().unwrap()[self.pid.index()] = self.g;
    }

    /// Entry point whenever the situation may allow progress.
    fn progress(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        if self.done {
            return;
        }
        match self.phase {
            Phase::Idle => {
                if self.holds_token {
                    if self.staged {
                        // Proactive candidate survived: accept instantly.
                        self.staged = false;
                        self.color = Color::Green;
                        self.finish_visit(ctx);
                    } else {
                        self.phase = Phase::Collecting { deps: Vec::new() };
                        self.try_collect(ctx);
                    }
                } else if self.parallel
                    && self.color == Color::Red
                    && !self.staged
                    && !self.queue.is_empty()
                {
                    // §4.5: search proactively while red.
                    self.phase = Phase::Collecting { deps: Vec::new() };
                    self.try_collect(ctx);
                }
            }
            Phase::Collecting { .. } => self.try_collect(ctx),
            Phase::Polling { .. } => {} // waiting for a poll reply
        }
    }

    /// Figure 4 repeat-until loop.
    fn try_collect(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        let Phase::Collecting { deps } = &mut self.phase else {
            return;
        };
        let mut fx = ActorEffects::new(ctx, &*self.recorder);
        match collect(
            self.pid.index(),
            self.g,
            &mut self.queue,
            self.eot,
            deps,
            &mut fx,
        ) {
            Visit::Accepted(clock) => {
                let deps = std::mem::take(deps);
                self.g = clock;
                self.publish_g();
                if self.holds_token {
                    self.color = Color::Green;
                }
                self.phase = Phase::Polling {
                    deps,
                    idx: 0,
                    candidate_dead: false,
                };
                self.advance_polls(ctx);
            }
            Visit::Exhausted if self.holds_token => {
                self.done = true;
                if self.recorder.is_enabled() {
                    self.emit(ctx, TraceEvent::DetectionExhausted);
                }
                *self.result.lock().unwrap() = Some(OnlineDetection::Undetected);
                ctx.stop();
            }
            // Out of candidates for now: stay collecting. The dependences
            // gathered so far belong to eliminated candidates and are
            // polled with the next one that survives.
            Visit::Blocked | Visit::Exhausted => {}
        }
    }

    /// Sends the next poll, or completes the visit when all are answered.
    fn advance_polls(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        let Phase::Polling {
            deps,
            idx,
            candidate_dead,
        } = &self.phase
        else {
            return;
        };
        if let Some(dep) = deps.get(*idx) {
            debug_assert_ne!(dep.on, self.pid, "self-dependence is impossible");
            ctx.add_work(1);
            if self.recorder.is_enabled() {
                self.emit(
                    ctx,
                    TraceEvent::PollSent {
                        to: dep.on.index() as u32,
                        bytes: POLL_BYTES,
                    },
                );
            }
            ctx.send(
                self.monitors[dep.on.index()],
                DetectMsg::Poll {
                    clock: dep.clock,
                    next_red: self.next_red,
                },
            );
            return; // await the reply
        }
        let candidate_dead = *candidate_dead;
        self.phase = Phase::Idle;
        if self.holds_token {
            // The token may have arrived mid-poll (proactive search that
            // was overtaken): if the candidate survived, accept it now;
            // otherwise resume searching.
            if candidate_dead {
                self.phase = Phase::Collecting { deps: Vec::new() };
                self.try_collect(ctx);
            } else {
                self.color = Color::Green;
                self.finish_visit(ctx);
            }
        } else {
            // Proactive completion: stage unless a poll already killed the
            // candidate.
            self.staged = !candidate_dead;
        }
    }

    /// Token holder concludes its visit: detect, or pass the token on.
    fn finish_visit(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        debug_assert!(self.holds_token);
        debug_assert_eq!(self.color, Color::Green);
        match self.next_red {
            None => {
                self.done = true;
                let cut = self.g_board.lock().unwrap().clone();
                if self.recorder.is_enabled() {
                    self.emit(ctx, TraceEvent::DetectionFound { cut: cut.clone() });
                }
                *self.result.lock().unwrap() = Some(OnlineDetection::Detected(cut));
                ctx.stop();
            }
            Some(next) => {
                self.holds_token = false;
                self.stats.hop();
                if self.recorder.is_enabled() {
                    self.emit(
                        ctx,
                        TraceEvent::RedChainHop {
                            to: next.index() as u32,
                            bytes: DD_TOKEN_BYTES,
                        },
                    );
                }
                ctx.send(self.monitors[next.index()], DetectMsg::DdToken);
                // Now off the chain; answer the polls deferred mid-visit.
                while let Some((from, clock, next_red)) = self.deferred_polls.pop_front() {
                    self.handle_poll(ctx, from, clock, next_red);
                }
            }
        }
    }

    /// Figure 5.
    fn handle_poll(
        &mut self,
        ctx: &mut dyn Context<DetectMsg>,
        from: ActorId,
        clock: u64,
        poll_next_red: Option<ProcessId>,
    ) {
        if self.done {
            // Verdict already published: answer so the poller is not left
            // waiting if the stop signal reaches it late.
            ctx.send(from, DetectMsg::PollReply { became_red: false });
            return;
        }
        // A mid-visit green holder must not be re-reddened while splicing
        // the chain; defer (the reply is simply delayed).
        if self.holds_token && self.color == Color::Green {
            self.deferred_polls.push_back((from, clock, poll_next_red));
            return;
        }
        ctx.add_work(1);
        let was = poll(&mut self.g, &mut self.color, clock);
        if was.is_some() {
            self.publish_g();
            self.staged = false;
            if let Phase::Polling { candidate_dead, .. } = &mut self.phase {
                *candidate_dead = true;
            }
        }
        let became_red = was == Some(Color::Green);
        if became_red {
            self.next_red = poll_next_red;
        }
        if self.recorder.is_enabled() {
            let poller = self.monitors.iter().position(|&m| m == from).unwrap_or(0);
            self.emit(
                ctx,
                TraceEvent::PollAnswered {
                    to: poller as u32,
                    alive: self.color == Color::Red,
                    bytes: REPLY_BYTES,
                },
            );
        }
        ctx.send(from, DetectMsg::PollReply { became_red });
        if became_red {
            // §4.5: a newly red monitor may start searching immediately.
            self.progress(ctx);
        }
    }

    fn handle_poll_reply(&mut self, ctx: &mut dyn Context<DetectMsg>, became_red: bool) {
        if self.done {
            return;
        }
        let Phase::Polling { deps, idx, .. } = &mut self.phase else {
            unreachable!("{}: poll reply outside polling phase", self.pid);
        };
        let target = deps[*idx].on;
        *idx += 1;
        if became_red {
            self.next_red = Some(target);
        }
        self.advance_polls(ctx);
    }
}

impl Actor<DetectMsg> for DdMonitor {
    fn on_start(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        if self.holds_token && self.recorder.is_enabled() {
            self.emit(ctx, TraceEvent::TokenAcquired { from: None });
        }
        self.progress(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, from: ActorId, msg: DetectMsg) {
        match msg {
            DetectMsg::DdSnapshot(s) => {
                if self.recorder.is_enabled() {
                    self.emit(
                        ctx,
                        TraceEvent::SnapshotBuffered {
                            depth: self.queue.len() as u64 + 1,
                            bytes: s.wire_size() as u64,
                        },
                    );
                }
                self.queue.push_back(s);
                self.stats.buffered(self.queue.len() as u64);
                self.progress(ctx);
            }
            DetectMsg::EndOfTrace => {
                self.eot = true;
                self.progress(ctx);
            }
            DetectMsg::DdToken => {
                if self.done {
                    return;
                }
                debug_assert!(!self.holds_token, "duplicate token");
                debug_assert_eq!(self.color, Color::Red, "token sent to green monitor");
                self.holds_token = true;
                if self.recorder.is_enabled() {
                    let sender = self.monitors.iter().position(|&m| m == from);
                    self.emit(
                        ctx,
                        TraceEvent::TokenAcquired {
                            from: sender.map(|s| s as u32),
                        },
                    );
                }
                self.progress(ctx);
            }
            DetectMsg::Poll { clock, next_red } => {
                self.handle_poll(ctx, from, clock, next_red);
            }
            DetectMsg::PollReply { became_red } => {
                self.handle_poll_reply(ctx, became_red);
            }
            other => unreachable!("dd monitor {}: unexpected {other:?}", self.pid),
        }
    }

    fn set_recorder(&mut self, recorder: &Arc<dyn Recorder>) {
        self.recorder = recorder.clone();
    }

    fn status(&self) -> Option<String> {
        let phase = match &self.phase {
            Phase::Idle => "idle".to_string(),
            Phase::Collecting { deps } => format!("collecting({} deps)", deps.len()),
            Phase::Polling {
                deps,
                idx,
                candidate_dead,
            } => format!("polling {idx}/{} dead={candidate_dead}", deps.len()),
        };
        Some(stall_row(
            &format!("dd[{}]", self.pid),
            self.queue.len(),
            self.eot,
            self.done,
            &format!(
                "color={:?} g={} token={} staged={} next_red={:?} deferred_polls={} {phase}",
                self.color,
                self.g,
                self.holds_token,
                self.staged,
                self.next_red,
                self.deferred_polls.len()
            ),
        ))
    }
}

/// Lays out the Section 4 direct-dependence algorithm (`parallel`: with
/// the Section 4.5 red chain): process `p`'s application and monitor
/// (`N + p`) share peer `p`. The monitors share their G board through
/// process memory, so this layout runs in-process only.
pub(crate) fn layout(
    computation: &Computation,
    wcp: &Wcp,
    parallel: bool,
) -> Layout<DetectionReport> {
    let n_total = computation.process_count();
    let monitors: Vec<ActorId> = (0..n_total)
        .map(|p| ActorId::new((n_total + p) as u32))
        .collect();
    let g_board: GBoard = Arc::new(Mutex::new(vec![0; n_total]));
    detection_layout(
        computation,
        wcp,
        ClockMode::Scalar,
        false,
        |result, stats| {
            ProcessId::all(n_total)
                .map(|p| {
                    let monitor = DdMonitor::new(
                        p,
                        n_total,
                        monitors.clone(),
                        parallel,
                        g_board.clone(),
                        result.clone(),
                        stats.clone(),
                    );
                    (p.index() as u32, Box::new(monitor) as DetectActor)
                })
                .collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::testing::MockCtx;
    use crate::online::vc_monitor::OnlineDetection;

    fn monitor(pid: u32, n: usize, parallel: bool) -> (DdMonitor, SharedOutcome, GBoard) {
        let result: SharedOutcome = Arc::new(Mutex::new(None));
        let stats = Arc::default();
        let g_board: GBoard = Arc::new(Mutex::new(vec![0; n]));
        let monitors = (0..n as u32).map(|i| ActorId::new(100 + i)).collect();
        (
            DdMonitor::new(
                ProcessId::new(pid),
                n,
                monitors,
                parallel,
                g_board.clone(),
                result.clone(),
                stats,
            ),
            result,
            g_board,
        )
    }

    fn dd_snapshot(clock: u64, deps: Vec<(u32, u64)>) -> DetectMsg {
        DetectMsg::DdSnapshot(DdSnapshot {
            clock,
            deps: deps
                .into_iter()
                .map(|(p, k)| Dependence::new(ProcessId::new(p), k))
                .collect(),
        })
    }

    #[test]
    fn poll_reddens_green_monitor_and_adopts_tail() {
        // Monitor 1 (no token), green after a hypothetical visit.
        let (mut m, _result, _g) = monitor(1, 3, false);
        m.color = Color::Green;
        m.g = 2;
        m.next_red = None;
        let mut ctx = MockCtx::default();
        m.on_message(
            &mut ctx,
            ActorId::new(100),
            DetectMsg::Poll {
                clock: 2,
                next_red: Some(ProcessId::new(2)),
            },
        );
        let sent = ctx.take_sent();
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            sent[0].1,
            DetectMsg::PollReply { became_red: true }
        ));
        assert_eq!(m.color, Color::Red);
        assert_eq!(m.g, 2);
        assert_eq!(
            m.next_red,
            Some(ProcessId::new(2)),
            "adopted the poll's tail"
        );
    }

    #[test]
    fn poll_below_g_is_no_change() {
        let (mut m, _result, _g) = monitor(1, 3, false);
        m.color = Color::Green;
        m.g = 5;
        let mut ctx = MockCtx::default();
        m.on_message(
            &mut ctx,
            ActorId::new(100),
            DetectMsg::Poll {
                clock: 3,
                next_red: Some(ProcessId::new(2)),
            },
        );
        let sent = ctx.take_sent();
        assert!(matches!(
            sent[0].1,
            DetectMsg::PollReply { became_red: false }
        ));
        assert_eq!(m.color, Color::Green);
        assert_eq!(m.g, 5, "g unchanged below threshold");
    }

    #[test]
    fn poll_to_red_monitor_raises_g_without_chain_change() {
        let (mut m, _result, _g) = monitor(2, 3, false);
        assert_eq!(m.color, Color::Red);
        let original_tail = m.next_red;
        let mut ctx = MockCtx::default();
        m.on_message(
            &mut ctx,
            ActorId::new(100),
            DetectMsg::Poll {
                clock: 7,
                next_red: Some(ProcessId::new(0)),
            },
        );
        let sent = ctx.take_sent();
        assert!(matches!(
            sent[0].1,
            DetectMsg::PollReply { became_red: false }
        ));
        assert_eq!(m.g, 7, "g raised");
        assert_eq!(m.next_red, original_tail, "already on chain: pointer kept");
    }

    #[test]
    fn holder_collects_polls_and_passes_token() {
        // Monitor 0 holds the token initially; chain 0→1→2.
        let (mut m, result, _g) = monitor(0, 3, false);
        let mut ctx = MockCtx::default();
        m.on_start(&mut ctx);
        assert!(ctx.take_sent().is_empty(), "waiting for candidates");

        // Candidate with one dependence on P1 at clock 4.
        m.on_message(&mut ctx, ActorId::new(0), dd_snapshot(3, vec![(1, 4)]));
        let sent = ctx.take_sent();
        assert_eq!(sent.len(), 1, "one poll outstanding");
        assert_eq!(sent[0].0, ActorId::new(101));
        assert!(matches!(sent[0].1, DetectMsg::Poll { clock: 4, .. }));

        // P1 replies no_change (it was red already): polls done, token to
        // the chain head (P1).
        m.on_message(
            &mut ctx,
            ActorId::new(101),
            DetectMsg::PollReply { became_red: false },
        );
        let sent = ctx.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, ActorId::new(101));
        assert!(matches!(sent[0].1, DetectMsg::DdToken));
        assert!(result.lock().unwrap().is_none());
        assert_eq!(m.color, Color::Green);
        assert!(!m.holds_token);
    }

    #[test]
    fn single_monitor_detects_alone() {
        let (mut m, result, g_board) = monitor(0, 1, false);
        let mut ctx = MockCtx::default();
        m.on_start(&mut ctx);
        m.on_message(&mut ctx, ActorId::new(0), dd_snapshot(2, vec![]));
        assert!(ctx.stopped);
        assert_eq!(
            *result.lock().unwrap(),
            Some(OnlineDetection::Detected(vec![2]))
        );
        assert_eq!(g_board.lock().unwrap()[0], 2);
    }

    #[test]
    fn green_holder_defers_polls_until_visit_ends() {
        let (mut m, _result, _g) = monitor(0, 3, true);
        let mut ctx = MockCtx::default();
        m.on_start(&mut ctx);
        // Accept a candidate with a dependence — holder is now GREEN and
        // mid-poll.
        m.on_message(&mut ctx, ActorId::new(0), dd_snapshot(2, vec![(1, 1)]));
        ctx.take_sent(); // the poll to P1
        assert_eq!(m.color, Color::Green);

        // An incoming poll that would re-redden the holder is deferred: no
        // reply yet.
        m.on_message(
            &mut ctx,
            ActorId::new(102),
            DetectMsg::Poll {
                clock: 9,
                next_red: None,
            },
        );
        assert!(ctx.take_sent().is_empty(), "reply deferred mid-visit");

        // Visit completes (poll reply arrives): token passes AND the
        // deferred poll is finally answered.
        m.on_message(
            &mut ctx,
            ActorId::new(101),
            DetectMsg::PollReply { became_red: false },
        );
        let sent = ctx.take_sent();
        assert_eq!(sent.len(), 2);
        assert!(matches!(sent[0].1, DetectMsg::DdToken));
        assert_eq!(sent[1].0, ActorId::new(102));
        assert!(matches!(
            sent[1].1,
            DetectMsg::PollReply { became_red: true }
        ));
        assert_eq!(m.color, Color::Red, "re-reddened after the visit");
        assert_eq!(m.g, 9);
    }
}
