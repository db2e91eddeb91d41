//! The Figure 3 monitor actor (single-token vector-clock algorithm).

use std::fmt;
use std::sync::Arc;

use std::sync::Mutex;
use wcp_obs::{LogicalTime, NullRecorder, Recorder, TraceEvent};
use wcp_sim::{Actor, ActorId, Context};

use crate::offline::token::{Color, Token};
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

/// Protocol-level counters the simulator cannot attribute by itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Token transfers between monitors.
    pub token_hops: u64,
    /// Largest snapshot queue observed at any monitor (the paper's
    /// per-process space measure).
    pub max_buffered: u64,
    /// Last-known per-monitor protocol state, refreshed after every
    /// delivery; read only when a run quiesces without a verdict so the
    /// stall is diagnosable from the panic message alone.
    pub stalls: Vec<MonitorStall>,
}

impl OnlineStats {
    /// Records monitor `idx`'s latest protocol state, growing the table as
    /// needed.
    pub fn note_stall(&mut self, idx: usize, stall: MonitorStall) {
        if self.stalls.len() <= idx {
            self.stalls.resize(idx + 1, MonitorStall::default());
        }
        self.stalls[idx] = stall;
    }

    /// Formats the per-monitor stall table for a quiesced-without-verdict
    /// panic message: one line per monitor with queue depth, end-of-trace
    /// flag, verdict latch, and algorithm-specific token/chain state.
    pub fn stall_report(&self) -> String {
        if self.stalls.is_empty() {
            return "  (no monitor state recorded)".to_string();
        }
        self.stalls
            .iter()
            .map(|s| {
                format!(
                    "  {}: queued={} eot={} done={} {}",
                    s.label, s.queued, s.eot, s.done, s.detail
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// One monitor's last-known protocol state (see [`OnlineStats::stalls`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStall {
    /// Monitor label, e.g. `vc[2]`, `dd[0]`, `group[1]`, `leader`.
    pub label: String,
    /// Snapshots buffered and not yet consumed.
    pub queued: u64,
    /// Whether end-of-trace has been observed.
    pub eot: bool,
    /// Whether a verdict was latched locally.
    pub done: bool,
    /// Algorithm-specific state: token location and colors, chain phase,
    /// outstanding polls, parked group tokens, ….
    pub detail: String,
}

/// Renders a token's candidate cut and colors (`R`/`G` per position) for a
/// stall report.
pub(crate) fn describe_token_state(token: &Token) -> String {
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
pub type SharedStats = Arc<Mutex<OnlineStats>>;

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

    /// Streams [`TraceEvent`]s of this monitor's protocol steps to
    /// `recorder`, stamped with the simulation tick.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    fn emit(&self, ctx: &dyn Context<DetectMsg>, event: TraceEvent) {
        self.recorder
            .record(self.pos as u32, LogicalTime::Tick(ctx.now()), event);
    }

    fn record_stall(&self) {
        let detail = match &self.token {
            Some(t) => describe_token_state(t),
            None => "no token".to_string(),
        };
        self.stats.lock().unwrap().note_stall(
            self.pos,
            MonitorStall {
                label: format!("vc[{}]", self.pos),
                queued: self.queue.len() as u64,
                eot: self.eot,
                done: self.done,
                detail,
            },
        );
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
        self.stats.lock().unwrap().token_hops += 1;
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

    /// Delivers a `VcSnapshot` straight from its wire body (`clock_le`: the
    /// little-endian `u64` clock components), decoding into the arena-backed
    /// queue without materializing an owned snapshot.
    ///
    /// Behaviourally identical to `on_message` with
    /// [`DetectMsg::VcSnapshot`]: the monitor only ever reads the clock (a
    /// snapshot's interval is its own clock component), and
    /// `clock_le.len()` equals the snapshot's `wire_size()`.
    pub fn on_snapshot_wire(&mut self, ctx: &mut dyn Context<DetectMsg>, clock_le: &[u8]) {
        if self.recorder.is_enabled() {
            self.emit(
                ctx,
                TraceEvent::SnapshotBuffered {
                    depth: self.queue.len() as u64 + 1,
                    bytes: clock_le.len() as u64,
                },
            );
        }
        self.queue.push_le_bytes(clock_le);
        {
            let mut stats = self.stats.lock().unwrap();
            stats.max_buffered = stats.max_buffered.max(self.queue.len() as u64);
        }
        self.try_advance(ctx);
        self.record_stall();
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
            self.record_stall();
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
                {
                    let mut stats = self.stats.lock().unwrap();
                    stats.max_buffered = stats.max_buffered.max(self.queue.len() as u64);
                }
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
        self.record_stall();
    }
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
        let stats: SharedStats = Arc::new(Mutex::new(OnlineStats::default()));
        let monitors = vec![ActorId::new(10), ActorId::new(11)];
        (
            VcMonitor::new(pos, 2, monitors, with_token, result.clone(), stats),
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
    fn stall_report_names_every_monitor() {
        let mut stats = OnlineStats::default();
        assert!(stats.stall_report().contains("no monitor state"));
        let (mut m, _result) = monitor(0, true);
        let mut ctx = MockCtx::default();
        m.on_start(&mut ctx);
        m.record_stall();
        let snapshot_stats = m.stats.lock().unwrap().clone();
        let report = snapshot_stats.stall_report();
        assert!(report.contains("vc[0]"), "{report}");
        assert!(report.contains("token held"), "{report}");
        assert!(report.contains("colors=RR"), "{report}");
        stats.note_stall(
            2,
            MonitorStall {
                label: "dd[2]".into(),
                queued: 3,
                eot: true,
                done: false,
                detail: "color=Red g=1 idle".into(),
            },
        );
        let report = stats.stall_report();
        assert!(
            report.contains("dd[2]: queued=3 eot=true done=false"),
            "{report}"
        );
        // Unreported slots render as defaults rather than panicking.
        assert!(report.lines().count() == 3, "{report}");
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
    fn wire_snapshot_delivery_matches_owned_delivery() {
        let (mut owned, owned_result) = monitor(0, true);
        let (mut wire, wire_result) = monitor(0, true);
        let mut owned_ctx = MockCtx::default();
        let mut wire_ctx = MockCtx::default();
        owned.on_start(&mut owned_ctx);
        wire.on_start(&mut wire_ctx);
        for clock in [vec![1u64, 0], vec![2, 1], vec![3, 1]] {
            let mut le = Vec::new();
            for &c in &clock {
                le.extend_from_slice(&c.to_le_bytes());
            }
            owned.on_message(&mut owned_ctx, ActorId::new(0), snapshot(clock[0], clock));
            wire.on_snapshot_wire(&mut wire_ctx, &le);
            assert_eq!(wire_ctx.take_sent(), owned_ctx.take_sent());
        }
        assert_eq!(wire.queue.len(), owned.queue.len());
        assert_eq!(*wire_result.lock().unwrap(), *owned_result.lock().unwrap());
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
