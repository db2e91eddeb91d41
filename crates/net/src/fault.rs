//! Seeded, deterministic fault injection on top of any [`Transport`].
//!
//! [`FaultyTransport`] wraps the outbound half of one directed link and
//! draws one fault decision per frame from a per-link RNG stream derived
//! from [`FaultConfig::seed`] — so *which* frames are dropped, delayed,
//! duplicated, reordered, or hit by a connection reset is reproducible.
//! A frame that does not go out at once waits in the link's held list,
//! due at the virtual millisecond it was sent plus its drawn delay. The
//! worker stepping the sending peer owns that clock (`worker.rs`): it
//! stands still while any peer progresses, and when none does it jumps
//! to the earliest due frame and releases it through
//! [`Transport::release`]. Nothing sleeps and no thread is involved, so
//! *when* a held frame lands repeats as exactly as *which* frames are
//! held; see `docs/networking.md` for the determinism boundary.
//!
//! Faults and their recovery:
//!
//! - **drop** — the first `k` transmissions fail (`k` geometric in the
//!   drop probability, capped at `max_retries`); the link layer
//!   retransmits with exponential backoff, so the frame still arrives,
//!   late: it is held for the backoffs' sum. Counted as `k` retransmits.
//! - **delay** — the frame is held `1..=max_delay_ms` ms; later frames
//!   overtake it on the wire.
//! - **duplicate** — the frame is sent now *and* held 1 ms for a second
//!   copy; the receiver drops the copy by sequence number.
//! - **reorder** — the frame is held 1 ms, so the frames sent after it
//!   until the clock next moves overtake it; delivery stays guaranteed
//!   even when it is the last frame on the link.
//! - **reset** — the underlying connection is torn down and the send
//!   fails; the endpoint reconnects and replays its send log (replays
//!   bypass fault injection via [`Transport::resend`], so recovery always
//!   converges).
//!
//! Batched sends keep seeded schedules unchanged: `FaultyTransport`
//! deliberately inherits the trait's default [`Transport::send_batch`],
//! which walks the batch's length prefixes and routes every frame through
//! [`Transport::send`] individually — the per-link decision stream is one
//! draw sequence per frame in send order, bit-identical whether or not
//! the sender coalesces (pinned by
//! `batching_consumes_the_same_fault_schedule` below).

use std::io;
use std::sync::Arc;

use wcp_obs::rng::Rng;
use wcp_obs::{LogicalTime, Recorder, TraceEvent};
use wcp_sim::FaultConfig;

use crate::stats::NetCounters;
use crate::transport::Transport;

/// Derives the per-link RNG seed: every directed link `(me → to)` gets its
/// own decision stream regardless of thread interleaving.
pub fn link_seed(config_seed: u64, me: u32, to: u32) -> u64 {
    config_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((me as u64) << 32) | to as u64)
}

/// A [`Transport`] wrapper injecting the [`FaultConfig`] schedule.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    cfg: FaultConfig,
    rng: Rng,
    /// The virtual millisecond of the last [`release`](Transport::release).
    now: u64,
    /// Frames not yet on the wire, each with the millisecond it is due,
    /// in the order they were held.
    held: Vec<(u64, Vec<u8>)>,
    counters: Arc<NetCounters>,
    recorder: Arc<dyn Recorder>,
    /// Sending peer (event attribution) and destination peer.
    me: u32,
    to: u32,
}

impl FaultyTransport {
    /// Wraps `inner` with the fault schedule `cfg` for the directed link
    /// `me → to`.
    pub fn new(
        inner: Box<dyn Transport>,
        cfg: FaultConfig,
        me: u32,
        to: u32,
        counters: Arc<NetCounters>,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        FaultyTransport {
            rng: Rng::seed_from_u64(link_seed(cfg.seed, me, to)),
            inner,
            cfg,
            now: 0,
            held: Vec::new(),
            counters,
            recorder,
            me,
            to,
        }
    }

    /// Holds `frame` until `ms` virtual milliseconds from now.
    fn hold(&mut self, ms: u64, frame: &[u8]) {
        self.held
            .push((self.now.saturating_add(ms), frame.to_vec()));
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        // Decision order is fixed so the per-link stream is reproducible:
        // reset, drop, delay, reorder, duplicate — first match wins.
        if self.rng.gen_bool(self.cfg.reset) {
            self.inner.inject_reset();
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if self.rng.gen_bool(self.cfg.drop) {
            // k consecutive lost transmissions, then the retransmit lands.
            let mut k = 1u32;
            while k < self.cfg.max_retries.max(1) && self.rng.gen_bool(self.cfg.drop) {
                k += 1;
            }
            let (base, mut ms) = (self.cfg.backoff_base_ms.max(1), 0u64);
            for attempt in 1..=k {
                ms = ms.saturating_add(base.saturating_mul(1 << attempt.min(16)));
                self.counters
                    .retransmits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.recorder.record(
                    self.me,
                    LogicalTime::Unknown,
                    TraceEvent::Retransmit {
                        to: self.to,
                        attempt: attempt as u64,
                    },
                );
            }
            self.hold(ms, frame);
            return Ok(());
        }
        if self.rng.gen_bool(self.cfg.delay) {
            let ms = self.rng.gen_range(1..=self.cfg.max_delay_ms.max(1));
            self.hold(ms, frame);
            return Ok(());
        }
        if self.rng.gen_bool(self.cfg.reorder) {
            self.hold(1, frame);
            return Ok(());
        }
        if self.rng.gen_bool(self.cfg.duplicate) {
            self.inner.send(frame)?;
            self.hold(1, frame);
            return Ok(());
        }
        self.inner.send(frame)
    }

    fn resend(&mut self, frame: &[u8]) -> io::Result<()> {
        // Recovery traffic bypasses injection so replay converges.
        self.inner.resend(frame)
    }

    fn release(&mut self, now: u64) -> Option<u64> {
        self.now = now;
        // Due order; the sort is stable, so ties go in the order held.
        self.held.sort_by_key(|&(due, _)| due);
        let ready = self.held.partition_point(|&(due, _)| due <= now);
        for (_, frame) in self.held.drain(..ready) {
            // A held frame is committed: it is in the endpoint's send log,
            // which the link's next failed send replays.
            let _ = self.inner.resend(&frame);
        }
        self.held.first().map(|&(due, _)| due)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.inner.reconnect()
    }

    fn inject_reset(&mut self) {
        self.inner.inject_reset();
    }

    fn close(&mut self) {
        // Every committed frame goes on the wire before the link closes.
        self.release(u64::MAX);
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_header, encode_frame, frame_len_at, Frame, Payload};
    use crate::pool::{FramePool, PooledBuf};
    use crate::transport::LoopbackTransport;
    use std::sync::mpsc::channel as mpsc_channel;
    use wcp_obs::NullRecorder;
    use wcp_sim::ActorId;

    /// The sequence number of a buffer holding exactly one frame.
    fn seq_of(raw: &[u8]) -> u64 {
        decode_header(raw).unwrap().0.seq
    }

    fn frame(seq: u64) -> Frame {
        Frame {
            peer: 0,
            from: ActorId::new(0),
            to: ActorId::new(1),
            seq,
            payload: Payload::Shutdown,
        }
    }

    fn faulty(cfg: FaultConfig) -> (FaultyTransport, std::sync::mpsc::Receiver<PooledBuf>) {
        let (tx, rx) = mpsc_channel();
        let counters = NetCounters::shared();
        let pool = FramePool::shared(counters.clone());
        let t = FaultyTransport::new(
            Box::new(LoopbackTransport::new(tx, pool)),
            cfg,
            0,
            1,
            counters,
            Arc::new(NullRecorder),
        );
        (t, rx)
    }

    /// Every frame in every drained chunk, in arrival order.
    fn drain_seqs(rx: &std::sync::mpsc::Receiver<PooledBuf>) -> Vec<u64> {
        let mut seqs = Vec::new();
        while let Ok(chunk) = rx.try_recv() {
            let mut at = 0;
            while at < chunk.len() {
                let len = frame_len_at(&chunk, at).unwrap().unwrap();
                seqs.push(seq_of(&chunk[at..at + len]));
                at += len;
            }
        }
        seqs
    }

    #[test]
    fn quiet_schedule_is_transparent() {
        let (mut t, rx) = faulty(FaultConfig::seeded(1));
        for seq in 0..5 {
            t.send(&encode_frame(&frame(seq))).unwrap();
        }
        for seq in 0..5 {
            assert_eq!(*rx.recv().unwrap(), encode_frame(&frame(seq)));
        }
        t.close();
    }

    #[test]
    fn every_frame_eventually_arrives_under_heavy_faults() {
        let cfg = FaultConfig::seeded(7)
            .with_drop(0.3)
            .with_delay(0.3)
            .with_duplicate(0.3)
            .with_reorder(0.3);
        let (mut t, rx) = faulty(cfg);
        let total = 50u64;
        for seq in 0..total {
            t.send(&encode_frame(&frame(seq))).unwrap();
        }
        t.close(); // drains the delay worker
        let mut seen = std::collections::HashSet::new();
        while let Ok(raw) = rx.try_recv() {
            seen.insert(seq_of(&raw));
        }
        for seq in 0..total {
            assert!(seen.contains(&seq), "frame {seq} lost");
        }
    }

    #[test]
    fn fault_decisions_are_deterministic_per_link() {
        let cfg = FaultConfig::delay_duplicate_reorder(21);
        let order = |cfg: FaultConfig| {
            let (mut t, rx) = faulty(cfg);
            for seq in 0..30 {
                t.send(&encode_frame(&frame(seq))).unwrap();
            }
            t.close();
            drain_seqs(&rx)
        };
        // Same seed: identical decision stream, and held frames land by
        // the virtual clock, not a thread's timing, so the delivered
        // sequence repeats exactly, duplicates and overtakes included.
        let a = order(cfg);
        assert_eq!(a, order(cfg), "same delivered sequence");
        assert!(a.len() > 30, "some frame was duplicated");
        assert!(a.windows(2).any(|w| w[0] > w[1]), "some frame overtaken");
    }

    #[test]
    fn held_frames_wait_for_the_virtual_clock() {
        let cfg = FaultConfig {
            max_delay_ms: 3,
            ..FaultConfig::seeded(5).with_delay(1.0)
        };
        let (mut t, rx) = faulty(cfg);
        for seq in 0..8 {
            t.send(&encode_frame(&frame(seq))).unwrap();
        }
        // Nothing is due at time 0, and nothing moves until released.
        let first = t.release(0).expect("every frame is held");
        assert!((1..=3).contains(&first));
        assert!(drain_seqs(&rx).is_empty(), "held until due");
        let mut delivered = Vec::new();
        let mut next = Some(first);
        while let Some(now) = next {
            next = t.release(now);
            let landed = drain_seqs(&rx);
            assert!(!landed.is_empty(), "the earliest due frame lands at {now}");
            delivered.extend(landed);
            assert!(next.is_none_or(|due| due > now), "the clock only moves on");
        }
        delivered.sort_unstable();
        assert_eq!(delivered, (0..8).collect::<Vec<_>>(), "each frame once");
        t.close();
    }

    #[test]
    fn batching_consumes_the_same_fault_schedule() {
        // The same frames, once per-frame and once as one coalesced batch,
        // must draw identical per-frame fault decisions: same retransmit
        // count, same delivered multiset (duplicates included).
        let cfg = FaultConfig::seeded(11)
            .with_drop(0.2)
            .with_delay(0.2)
            .with_duplicate(0.3)
            .with_reorder(0.2);
        let (mut per_frame, rx_a) = faulty(cfg);
        for seq in 0..40 {
            per_frame.send(&encode_frame(&frame(seq))).unwrap();
        }
        per_frame.close();
        let (mut batched, rx_b) = faulty(cfg);
        let mut batch = Vec::new();
        for seq in 0..40 {
            batch.extend_from_slice(&encode_frame(&frame(seq)));
        }
        batched.send_batch(&batch).unwrap();
        batched.close();
        let mut a = drain_seqs(&rx_a);
        let mut b = drain_seqs(&rx_b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "schedule changed under batching");
    }

    #[test]
    fn telemetry_resends_consume_no_fault_schedule() {
        // The telemetry sidecar rides `resend`, which must not advance the
        // fault RNG: interleaving telemetry frames between faulted sends
        // leaves the data frames' fault decisions bit-identical, and every
        // telemetry frame arrives exactly once.
        let cfg = FaultConfig::seeded(17)
            .with_drop(0.2)
            .with_delay(0.2)
            .with_duplicate(0.3)
            .with_reorder(0.2);
        let (mut plain, rx_plain) = faulty(cfg);
        for seq in 0..40 {
            plain.send(&encode_frame(&frame(seq))).unwrap();
        }
        plain.close();
        let (mut mixed, rx_mixed) = faulty(cfg);
        let mut telemetry = Vec::new();
        crate::codec::encode_telemetry_into(0, b"opaque telemetry body", &mut telemetry);
        for seq in 0..40 {
            mixed.resend(&telemetry).unwrap();
            mixed.send(&encode_frame(&frame(seq))).unwrap();
        }
        mixed.close();
        let mut plain_seqs = drain_seqs(&rx_plain);
        let mut data_seqs = Vec::new();
        let mut telemetry_delivered = 0;
        while let Ok(chunk) = rx_mixed.try_recv() {
            let mut at = 0;
            while at < chunk.len() {
                let len = frame_len_at(&chunk, at).unwrap().unwrap();
                let (head, _) = decode_header(&chunk[at..at + len]).unwrap();
                if head.kind == crate::codec::kind::TELEMETRY {
                    telemetry_delivered += 1;
                } else {
                    data_seqs.push(head.seq);
                }
                at += len;
            }
        }
        plain_seqs.sort_unstable();
        data_seqs.sort_unstable();
        assert_eq!(plain_seqs, data_seqs, "telemetry perturbed the schedule");
        assert_eq!(
            telemetry_delivered, 40,
            "telemetry frames are never faulted"
        );
    }

    #[test]
    fn reset_surfaces_as_send_error() {
        let cfg = FaultConfig::seeded(3).with_reset(1.0);
        let (mut t, _rx) = faulty(cfg);
        assert!(t.send(&encode_frame(&frame(0))).is_err());
        t.reconnect().unwrap();
        // Recovery path (resend) is not fault-injected.
        t.resend(&encode_frame(&frame(0))).unwrap();
        t.close();
    }
}
