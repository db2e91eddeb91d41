//! The Figure 3 monitor actor (single-token vector-clock algorithm).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wcp_obs::{LogicalTime, NullRecorder, Recorder, TraceEvent};
use wcp_sim::{Actor, ActorId, Context};

use wcp_trace::{Computation, Wcp};

use crate::detector::DetectionReport;
use crate::offline::token::{Color, Token};
use crate::online::app::ClockMode;
use crate::online::harness::{detection_layout, DetectActor, Layout};
use crate::online::messages::DetectMsg;
use crate::snapshot::SnapshotBuffer;
use crate::visit::{visit, ActorEffects, Inbox, Visit};

/// Result cell shared between monitor actors and the harness.
///
/// The contained vector is the detected `G` (scope-position indexed);
/// `None` inside `Some` is impossible — `Some(None)` is represented by
/// [`OnlineDetection::Undetected`].
pub type SharedOutcome = Arc<Mutex<Option<OnlineDetection>>>;

/// What the online monitors concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineDetection {
    /// First satisfying cut found; entries indexed per algorithm (scope
    /// positions for the vector-clock family, all processes for the
    /// direct-dependence family).
    Detected(Vec<u64>),
    /// Some local predicate can never again hold consistently.
    Undetected,
}

/// Protocol-level counters the simulator cannot attribute by itself,
/// shared by a run's actors and bumped without a lock.
#[derive(Debug, Default)]
pub struct OnlineStats {
    /// Token transfers between monitors.
    pub token_hops: AtomicU64,
    /// Largest snapshot queue observed at any monitor (the paper's
    /// per-process space measure).
    pub max_buffered: AtomicU64,
    /// Snapshots the application processes sent to their monitors.
    pub snapshots: AtomicU64,
    /// Their paper-unit bytes ([`WireSize`](wcp_sim::WireSize)).
    pub snapshot_bytes: AtomicU64,
}

impl OnlineStats {
    /// Counts one token transfer.
    pub fn hop(&self) {
        self.token_hops.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a monitor queue `depth` deep.
    pub fn buffered(&self, depth: u64) {
        self.max_buffered.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts one snapshot of `bytes` paper-unit bytes.
    pub fn snapshot(&self, bytes: u64) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// One monitor's row of a stalled run's panic message: queue depth,
/// end-of-trace flag, verdict latch, then the algorithm's own state.
pub(crate) fn stall_row(label: &str, queued: usize, eot: bool, done: bool, detail: &str) -> String {
    format!("{label}: queued={queued} eot={eot} done={done} {detail}")
}

/// Renders a token's candidate cut and colors (`R`/`G` per position) for a
/// stall report.
pub(crate) fn describe_token_state(token: Option<&Token>) -> String {
    let Some(token) = token else {
        return "no token".to_string();
    };
    let colors: String = token
        .colors()
        .iter()
        .map(|c| match c {
            Color::Red => 'R',
            Color::Green => 'G',
        })
        .collect();
    format!("token held: g={:?} colors={colors}", token.g)
}

/// Shared instrumentation cell for [`OnlineStats`].
pub type SharedStats = Arc<OnlineStats>;

/// A Figure 3 monitor: buffers its application process's snapshots and,
/// while holding the token, advances the candidate cut.
pub struct VcMonitor {
    /// This monitor's scope position (the paper's `i`).
    pos: usize,
    n: usize,
    /// Monitor actors by scope position.
    monitors: Vec<ActorId>,
    queue: SnapshotBuffer,
    eot: bool,
    token: Option<Token>,
    starts_with_token: bool,
    /// Latched once a verdict is published: late deliveries (the stop
    /// signal is asynchronous on the net peers) are ignored.
    done: bool,
    result: SharedOutcome,
    stats: SharedStats,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for VcMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VcMonitor")
            .field("pos", &self.pos)
            .field("n", &self.n)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl VcMonitor {
    /// Builds monitor `pos` of `n`; `monitors` maps scope positions to
    /// actor ids. The monitor with `starts_with_token` creates the initial
    /// all-red token.
    pub fn new(
        pos: usize,
        n: usize,
        monitors: Vec<ActorId>,
        starts_with_token: bool,
        result: SharedOutcome,
        stats: SharedStats,
    ) -> Self {
        VcMonitor {
            pos,
            n,
            monitors,
            queue: SnapshotBuffer::new(n),
            eot: false,
            token: None,
            starts_with_token,
            done: false,
            result,
            stats,
            recorder: Arc::new(NullRecorder),
        }
    }

    fn emit(&self, ctx: &dyn Context<DetectMsg>, event: TraceEvent) {
        self.recorder
            .record(self.pos as u32, LogicalTime::Tick(ctx.now()), event);
    }

    /// Figure 3 body; re-entered whenever the token or new candidates
    /// arrive. Blocking `receive candidate` is modeled by returning and
    /// resuming on the next snapshot delivery.
    fn try_advance(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        if self.done {
            return;
        }
        let Some(token) = &mut self.token else { return };
        let mut inbox = Inbox {
            queue: &mut self.queue,
            eot: self.eot,
        };
        let observe = self.recorder.is_enabled();
        match visit(
            token,
            self.pos,
            &mut inbox,
            &mut ActorEffects::new(ctx, &*self.recorder),
        ) {
            Visit::Accepted(_) => {}
            Visit::Blocked => return, // wait for more snapshots
            Visit::Exhausted => {
                // No further candidate can ever arrive: the predicate
                // cannot hold at this process again.
                self.done = true;
                if observe {
                    self.emit(ctx, TraceEvent::DetectionExhausted);
                }
                *self.result.lock().unwrap() = Some(OnlineDetection::Undetected);
                ctx.stop();
                return;
            }
        }

        if token.all_green() {
            let g = token.g.clone();
            self.done = true;
            if observe {
                self.emit(ctx, TraceEvent::DetectionFound { cut: g.clone() });
            }
            *self.result.lock().unwrap() = Some(OnlineDetection::Detected(g));
            ctx.stop();
            return;
        }
        let next = token
            .next_red((self.pos + 1) % self.n)
            .expect("not all green ⇒ some red");
        let token = self.token.take().expect("token present");
        self.stats.hop();
        if observe {
            let bytes = token.wire_size() as u64;
            self.emit(
                ctx,
                TraceEvent::TokenForwarded {
                    to: next as u32,
                    bytes,
                },
            );
        }
        ctx.send(self.monitors[next], DetectMsg::VcToken(token));
    }
}

impl Actor<DetectMsg> for VcMonitor {
    fn on_start(&mut self, ctx: &mut dyn Context<DetectMsg>) {
        if self.starts_with_token {
            self.token = Some(Token::new(self.n));
            if self.recorder.is_enabled() {
                self.emit(ctx, TraceEvent::TokenAcquired { from: None });
            }
            self.try_advance(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<DetectMsg>, from: ActorId, msg: DetectMsg) {
        match msg {
            DetectMsg::VcSnapshot(s) => {
                if self.recorder.is_enabled() {
                    self.emit(
                        ctx,
                        TraceEvent::SnapshotBuffered {
                            depth: self.queue.len() as u64 + 1,
                            bytes: s.wire_size() as u64,
                        },
                    );
                }
                self.queue.push(&s);
                self.stats.buffered(self.queue.len() as u64);
                self.try_advance(ctx);
            }
            DetectMsg::EndOfTrace => {
                self.eot = true;
                self.try_advance(ctx);
            }
            DetectMsg::VcToken(t) => {
                if self.done {
                    return;
                }
                debug_assert!(self.token.is_none(), "duplicate token");
                self.token = Some(t);
                if self.recorder.is_enabled() {
                    let sender = self.monitors.iter().position(|&m| m == from);
                    self.emit(
                        ctx,
                        TraceEvent::TokenAcquired {
                            from: sender.map(|s| s as u32),
                        },
                    );
                }
                self.try_advance(ctx);
            }
            other => unreachable!("vc monitor {}: unexpected {other:?}", self.pos),
        }
    }

    fn set_recorder(&mut self, recorder: &Arc<dyn Recorder>) {
        self.recorder = recorder.clone();
    }

    fn status(&self) -> Option<String> {
        Some(stall_row(
            &format!("vc[{}]", self.pos),
            self.queue.len(),
            self.eot,
            self.done,
            &describe_token_state(self.token.as_ref()),
        ))
    }
}

/// Lays out the Section 3 single-token algorithm: applications `0..N`
/// and one monitor per scope position at `N..N+n`, monitor `pos` on peer
/// `pos` beside its application, so every snapshot a monitor buffers
/// comes over the in-order local queue, on a socket run as in the
/// simulator.
pub(crate) fn layout(computation: &Computation, wcp: &Wcp) -> Layout<DetectionReport> {
    let n = wcp.n();
    let n_total = computation.process_count();
    let monitors: Vec<ActorId> = (0..n)
        .map(|pos| ActorId::new((n_total + pos) as u32))
        .collect();
    detection_layout(
        computation,
        wcp,
        ClockMode::Vector,
        false,
        |result, stats| {
            (0..n)
                .map(|pos| {
                    let monitor = VcMonitor::new(
                        pos,
                        n,
                        monitors.clone(),
                        pos == 0,
                        result.clone(),
                        stats.clone(),
                    );
                    (pos as u32, Box::new(monitor) as DetectActor)
                })
                .collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::testing::MockCtx;
    use crate::snapshot::VcSnapshot;
    use wcp_clocks::VectorClock;

    #[test]
    fn online_detection_variants_compare() {
        assert_ne!(
            OnlineDetection::Detected(vec![1]),
            OnlineDetection::Undetected
        );
        assert_eq!(
            OnlineDetection::Detected(vec![1, 2]),
            OnlineDetection::Detected(vec![1, 2])
        );
    }

    fn monitor(pos: usize, with_token: bool) -> (VcMonitor, SharedOutcome) {
        let result: SharedOutcome = Arc::new(Mutex::new(None));
        let monitors = vec![ActorId::new(10), ActorId::new(11)];
        (
            VcMonitor::new(pos, 2, monitors, with_token, result.clone(), Arc::default()),
            result,
        )
    }

    fn snapshot(interval: u64, clock: Vec<u64>) -> DetectMsg {
        DetectMsg::VcSnapshot(VcSnapshot {
            interval,
            clock: VectorClock::from_components(clock),
        })
    }

    #[test]
    fn status_names_the_token_state() {
        let (mut m, _result) = monitor(0, true);
        let (idle, _) = monitor(1, false);
        let mut ctx = MockCtx::default();
        m.on_start(&mut ctx);
        let actors: [&dyn Actor<DetectMsg>; 2] = [&m, &idle];
        let report = wcp_sim::status_report(actors);
        assert!(
            report.contains("vc[0]: queued=0 eot=false done=false token held"),
            "{report}"
        );
        assert!(report.contains("colors=RR"), "{report}");
        assert!(report.contains("vc[1]: queued=0"), "{report}");
        assert!(report.contains("no token"), "{report}");
    }

    #[test]
    fn token_holder_waits_for_candidates() {
        let (mut m, result) = monitor(0, true);
        let mut ctx = MockCtx::default();
        m.on_start(&mut ctx); // creates the token, finds no candidates
        assert!(ctx.take_sent().is_empty(), "must block, not forward");
        assert!(result.lock().unwrap().is_none());

        // A concurrent candidate arrives: accept, but P1 is still red →
        // token moves to monitor 1.
        m.on_message(&mut ctx, ActorId::new(0), snapshot(1, vec![1, 0]));
        let sent = ctx.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, ActorId::new(11));
        assert!(matches!(sent[0].1, DetectMsg::VcToken(_)));
    }

    #[test]
    fn eot_with_token_and_empty_queue_is_undetected() {
        let (mut m, result) = monitor(0, true);
        let mut ctx = MockCtx::default();
        m.on_start(&mut ctx);
        m.on_message(&mut ctx, ActorId::new(0), DetectMsg::EndOfTrace);
        assert!(ctx.stopped);
        assert_eq!(*result.lock().unwrap(), Some(OnlineDetection::Undetected));
    }

    #[test]
    fn stale_candidates_are_consumed_silently() {
        let (mut m, _result) = monitor(1, false);
        let mut ctx = MockCtx::default();
        // Token arrives claiming G[1] = 2 already: a snapshot at interval 1
        // is stale and must be eaten without going green.
        let mut token = Token::new(2);
        token.g = vec![0, 2];
        m.on_message(&mut ctx, ActorId::new(10), DetectMsg::VcToken(token));
        m.on_message(&mut ctx, ActorId::new(1), snapshot(1, vec![0, 1]));
        assert!(ctx.take_sent().is_empty(), "stale candidate kept the token");
        // A fresh candidate at interval 3 (concurrent) completes detection
        // for this 2-process scope only if P0 is green; here P0 is red with
        // G[0]=0 → token forwarded to monitor 0.
        m.on_message(&mut ctx, ActorId::new(1), snapshot(3, vec![0, 3]));
        let sent = ctx.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, ActorId::new(10));
    }

    #[test]
    fn detection_when_all_green() {
        let (mut m, result) = monitor(1, false);
        let mut ctx = MockCtx::default();
        // Token with P0 already green at G[0]=1.
        let mut token = Token::new(2);
        token.g = vec![1, 0];
        token.set_color(0, Color::Green);
        m.on_message(&mut ctx, ActorId::new(1), snapshot(1, vec![0, 1]));
        m.on_message(&mut ctx, ActorId::new(10), DetectMsg::VcToken(token));
        assert!(ctx.stopped);
        assert_eq!(
            *result.lock().unwrap(),
            Some(OnlineDetection::Detected(vec![1, 1]))
        );
    }

    #[test]
    fn candidate_that_knows_peer_re_reddens_it() {
        let (mut m, result) = monitor(1, false);
        let mut ctx = MockCtx::default();
        let mut token = Token::new(2);
        token.g = vec![1, 0];
        token.set_color(0, Color::Green);
        // Candidate knows P0's interval 1 → (P0,1) happened before it:
        // P0 must be re-reddened and the token sent back.
        m.on_message(&mut ctx, ActorId::new(1), snapshot(2, vec![1, 2]));
        m.on_message(&mut ctx, ActorId::new(10), DetectMsg::VcToken(token));
        assert!(!ctx.stopped);
        assert!(result.lock().unwrap().is_none());
        let sent = ctx.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, ActorId::new(10), "token returns to monitor 0");
        match &sent[0].1 {
            DetectMsg::VcToken(t) => {
                assert_eq!(t.g, vec![1, 2]);
                assert_eq!(t.color(0), Color::Red);
                assert_eq!(t.color(1), Color::Green);
            }
            other => panic!("expected token, got {other:?}"),
        }
    }
}
