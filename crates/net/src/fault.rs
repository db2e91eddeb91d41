//! Seeded, deterministic fault injection on top of any [`Transport`].
//!
//! [`FaultyTransport`] wraps the outbound half of one directed link and
//! draws one fault decision per frame from a per-link RNG stream derived
//! from [`FaultConfig::seed`] — so *which* frames are dropped, delayed,
//! duplicated, reordered, or hit by a connection reset is reproducible.
//! *When* a delayed frame lands is wall-clock timing (a worker thread
//! sleeps and sends), which the receiving endpoint's per-link
//! resequencing masks; see `docs/networking.md` for the determinism
//! boundary.
//!
//! Faults and their recovery:
//!
//! - **drop** — the first `k` transmissions fail (`k` geometric in the
//!   drop probability, capped at `max_retries`); the link layer
//!   retransmits with exponential backoff, so the frame still arrives,
//!   late. Counted as `k` retransmits.
//! - **delay** — the frame is held `1..=max_delay_ms` ms; later frames
//!   overtake it on the wire.
//! - **duplicate** — the frame is sent now *and* once more shortly after;
//!   the receiver drops the copy by sequence number.
//! - **reorder** — the frame is handed to the worker with a minimal delay
//!   so immediately following frames overtake it on the wire; unlike an
//!   open-ended hold, delivery stays guaranteed even when the reordered
//!   frame is the last one on the link.
//! - **reset** — the underlying connection is torn down and the send
//!   fails; the endpoint reconnects with exponential backoff and replays
//!   its send log (replays bypass fault injection via
//!   [`Transport::resend`], so recovery always converges).
//!
//! Batched sends keep seeded schedules unchanged: `FaultyTransport`
//! deliberately inherits the trait's default [`Transport::send_batch`],
//! which walks the batch's length prefixes and routes every frame through
//! [`Transport::send`] individually — the per-link decision stream is one
//! draw sequence per frame in send order, bit-identical whether or not
//! the sender coalesces (pinned by
//! `batching_consumes_the_same_fault_schedule` below).

use std::io;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
    inner: Arc<Mutex<Box<dyn Transport>>>,
    cfg: FaultConfig,
    rng: Rng,
    worker_tx: Option<Sender<(Duration, Vec<u8>)>>,
    worker: Option<JoinHandle<()>>,
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
        let inner = Arc::new(Mutex::new(inner));
        let (tx, rx) = channel::<(Duration, Vec<u8>)>();
        let worker_inner = Arc::clone(&inner);
        let max_retries = cfg.max_retries;
        let backoff = Duration::from_millis(cfg.backoff_base_ms.max(1));
        // The delay worker: sleeps, then transmits. Frames routed through
        // here are already "committed" — on transient errors (a reset
        // injected in between) it retries until the endpoint's recovery
        // has restored the link, so injected delay never becomes loss.
        let worker = std::thread::spawn(move || {
            while let Ok((delay, frame)) = rx.recv() {
                std::thread::sleep(delay);
                let mut attempt = 0u32;
                loop {
                    let result = worker_inner.lock().unwrap().resend(&frame);
                    match result {
                        Ok(()) => break,
                        Err(_) if attempt < max_retries.max(1) => {
                            std::thread::sleep(backoff.saturating_mul(1 << attempt.min(16)));
                            attempt += 1;
                        }
                        Err(_) => break,
                    }
                }
            }
        });
        FaultyTransport {
            rng: Rng::seed_from_u64(link_seed(cfg.seed, me, to)),
            inner,
            cfg,
            worker_tx: Some(tx),
            worker: Some(worker),
            counters,
            recorder,
            me,
            to,
        }
    }

    fn schedule(&self, delay: Duration, frame: Vec<u8>) {
        if let Some(tx) = &self.worker_tx {
            let _ = tx.send((delay, frame));
        }
    }

    fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_millis(self.cfg.backoff_base_ms.max(1)).saturating_mul(1 << attempt.min(16))
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        // Decision order is fixed so the per-link stream is reproducible:
        // reset, drop, delay, reorder, duplicate — first match wins.
        if self.rng.gen_bool(self.cfg.reset) {
            self.inner.lock().unwrap().inject_reset();
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if self.rng.gen_bool(self.cfg.drop) {
            // k consecutive lost transmissions, then the retransmit lands.
            let mut k = 1u32;
            while k < self.cfg.max_retries.max(1) && self.rng.gen_bool(self.cfg.drop) {
                k += 1;
            }
            let mut delay = Duration::ZERO;
            for attempt in 1..=k {
                delay += self.backoff(attempt);
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
            self.schedule(delay, frame.to_vec());
            return Ok(());
        }
        if self.rng.gen_bool(self.cfg.delay) {
            let ms = self.rng.gen_range(1..=self.cfg.max_delay_ms.max(1));
            self.schedule(Duration::from_millis(ms), frame.to_vec());
            return Ok(());
        }
        if self.rng.gen_bool(self.cfg.reorder) {
            // A minimal worker delay: frames sent right after this one
            // overtake it, but delivery stays guaranteed even when no
            // further frame ever crosses this link.
            self.schedule(Duration::from_millis(1), frame.to_vec());
            return Ok(());
        }
        if self.rng.gen_bool(self.cfg.duplicate) {
            self.inner.lock().unwrap().send(frame)?;
            self.schedule(Duration::from_millis(1), frame.to_vec());
            return Ok(());
        }
        self.inner.lock().unwrap().send(frame)
    }

    fn resend(&mut self, frame: &[u8]) -> io::Result<()> {
        // Recovery traffic bypasses injection so replay converges.
        self.inner.lock().unwrap().resend(frame)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.inner.lock().unwrap().reconnect()
    }

    fn inject_reset(&mut self) {
        self.inner.lock().unwrap().inject_reset();
    }

    fn close(&mut self) {
        // Drain the delay worker (so every committed frame is on the
        // wire), then close the inner link.
        drop(self.worker_tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        self.inner.lock().unwrap().close();
    }
}

impl Drop for FaultyTransport {
    fn drop(&mut self) {
        if self.worker.is_some() {
            self.close();
        }
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
            let mut seqs = Vec::new();
            while let Ok(raw) = rx.try_recv() {
                seqs.push(seq_of(&raw));
            }
            seqs
        };
        // Same seed: identical decision stream. (Wire order may still vary
        // by worker timing; compare the deterministic immediate
        // transmissions only by filtering to first occurrences.)
        let a = order(cfg);
        let b = order(cfg);
        assert_eq!(a.len(), b.len(), "same duplicate/drop decisions");
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
