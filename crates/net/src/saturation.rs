//! Saturation harness: pump a stream of snapshot frames through one
//! directed link as fast as the transport allows, and measure the data
//! path end to end — encode into the outbound batch, coalesced writes,
//! pooled inbound chunks, and the decode of every snapshot frame, whose
//! clock then goes into a [`SnapshotBuffer`] as a monitor's would.
//!
//! This is the measured half of the batching claim: the same frame count
//! over the same substrate, batched vs flushed after every send, gives
//! the throughput ratio, and `pool_allocs / frames` gives steady-state
//! allocations per frame (the pool recycles a fixed working set, so it
//! tends to zero as the frame count grows). `scripts/bench.sh net-batch` records these in
//! `BENCH_wcp.json`.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wcp_clocks::VectorClock;
use wcp_detect::online::DetectMsg;
use wcp_detect::{SnapshotBuffer, VcSnapshot};
use wcp_obs::{NullRecorder, Recorder};
use wcp_sim::ActorId;

use crate::codec::Payload;
use crate::peer::Endpoint;
use crate::pool::FramePool;
use crate::runner::NetConfig;
use crate::stats::{NetCounters, NetStats};
use crate::telemetry::{SidecarRecorder, TelemetryCollector};
use crate::transport::{Dialer, InboxSender};

/// Outcome of one saturation run.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Snapshot frames delivered end to end.
    pub frames: u64,
    /// Accepted bytes on the receiving side.
    pub bytes: u64,
    /// Wall-clock time from first send to last delivery.
    pub elapsed: Duration,
    /// Wire-level counters of the run (both directions: data plus acks).
    pub net: NetStats,
    /// Both endpoints' telemetry, when the run had the plane on.
    pub telemetry: Option<Arc<TelemetryCollector>>,
}

impl SaturationReport {
    /// Delivered frames per second of wall-clock time.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Fresh pool allocations per delivered frame — the steady-state
    /// allocation measure (the pool recycles, so this tends to zero).
    pub fn allocs_per_frame(&self) -> f64 {
        self.net.pool_allocs as f64 / self.frames.max(1) as f64
    }

    /// Frames per coalesced transport write — the syscall-amortization
    /// proxy (1.0 means per-frame writes, higher means batching works).
    pub fn frames_per_flush(&self) -> f64 {
        self.frames as f64 / self.net.batch_flushes.max(1) as f64
    }

    /// Bytes actually sent per delivered frame (header plus body).
    pub fn bytes_per_frame(&self) -> f64 {
        self.net.bytes_sent as f64 / self.frames.max(1) as f64
    }

    /// Fraction of chained clock frames that shipped as deltas rather
    /// than keyframes.
    pub fn delta_hit_rate(&self) -> f64 {
        let chained = self.net.delta_frames_sent + self.net.keyframes_sent;
        if chained == 0 {
            return 0.0;
        }
        self.net.delta_frames_sent as f64 / chained as f64
    }

    /// Actual bytes sent over what the retired fixed-width encoding
    /// would have cost — the compression ratio (lower is better).
    pub fn v1_equiv_ratio(&self) -> f64 {
        self.net.bytes_sent as f64 / self.net.wire_bytes_v1_equiv.max(1) as f64
    }
}

/// How often the sender polls its own inbox for returning acks, keeping
/// its replay log truncated mid-run.
const ACK_POLL_EVERY: u64 = 4096;

/// Sidecar wiring of a saturation run with telemetry: each endpoint records
/// into its private [`SidecarRecorder`], and the sender ships deltas
/// towards the receiver — the collector peer — on the same cadence it
/// polls acks.
struct SaturationTelemetry {
    sender: Arc<SidecarRecorder>,
    receiver: Arc<SidecarRecorder>,
    collector: Arc<TelemetryCollector>,
}

/// Drives `frames` snapshot frames from `sender` (peer 0) to `receiver`
/// (peer 1), buffering every decoded snapshot. Without `batch` the sender
/// flushes after every send: one write per frame.
fn drive(
    mut sender: Endpoint,
    mut receiver: Endpoint,
    frames: u64,
    scope_n: usize,
    batch: bool,
    counters: &Arc<NetCounters>,
    telemetry: Option<SaturationTelemetry>,
) -> SaturationReport {
    let from = ActorId::new(0);
    let to = ActorId::new(1);
    let clock: Vec<u64> = (0..scope_n as u64).collect();
    let sender_sidecar = telemetry.as_ref().map(|t| t.sender.clone());
    let start = Instant::now();
    let pump = std::thread::spawn(move || {
        let flush_sidecar = |sender: &mut Endpoint| {
            if let Some(sidecar) = sender_sidecar.as_ref().filter(|s| !s.is_empty()) {
                let body = sidecar.take_delta(0, &sender.stats());
                sender.send_telemetry(1, &body);
            }
        };
        for i in 0..frames {
            sender.send(
                1,
                from,
                to,
                Payload::Detect(DetectMsg::VcSnapshot(VcSnapshot {
                    interval: i,
                    clock: VectorClock::from_components(clock.clone()),
                })),
            );
            if !batch {
                sender.flush_link(1);
            }
            if i % ACK_POLL_EVERY == ACK_POLL_EVERY - 1 {
                // Ingest returning acks so the replay log stays truncated.
                while sender.recv(Duration::ZERO).is_some() {}
                flush_sidecar(&mut sender);
            }
        }
        sender.flush_all();
        flush_sidecar(&mut sender);
        sender
    });

    let mut buffer = SnapshotBuffer::new(scope_n);
    let mut got = 0u64;
    while got < frames {
        let frame = receiver
            .recv(Duration::from_secs(10))
            .expect("saturation stream stalled");
        let Payload::Detect(DetectMsg::VcSnapshot(snapshot)) = frame.payload else {
            panic!("the saturation stream carries snapshots only");
        };
        buffer.push(&snapshot);
        got += 1;
        // Consume the row the way the monitor's Figure 3 loop does.
        buffer.pop();
    }
    let elapsed = start.elapsed();
    let mut sender = pump.join().expect("sender thread");
    // Drain any trailing acks, then tear both ends down.
    while sender.recv(Duration::ZERO).is_some() {}
    if let Some(tel) = &telemetry {
        // Both transports deliver on the sending thread, so the sender's
        // final delta is already queued: one sweep ingests it, then the
        // receiver's own delta joins the collector through the local
        // (wire-free) path.
        while receiver.recv(Duration::ZERO).is_some() {}
        tel.collector
            .ingest(&tel.receiver.take_delta(1, &receiver.stats()));
    }
    sender.close();
    receiver.close();
    let net = counters.snapshot();
    SaturationReport {
        frames,
        bytes: net.bytes_received,
        elapsed,
        net,
        telemetry: telemetry.map(|t| t.collector),
    }
}

/// Saturates one link of `config`'s transport with `frames` snapshot
/// frames of scope width `scope_n`, with coalesced writes. With
/// `config.telemetry` both endpoints record into private
/// [`SidecarRecorder`]s, and the sender ships deltas towards the
/// receiver (the collector peer) on its ack-poll cadence: the A/B against
/// the same run without it is the marginal cost of telemetry at wire
/// saturation (`scripts/bench.sh telemetry`). The report carries both the
/// bytes sent and what the fixed-width encoding would have cost
/// (`NetStats::wire_bytes_v1_equiv`), so one run gives the compression
/// ratio (`scripts/bench.sh wire-v2`). Faults and the deadline do not
/// apply.
pub fn saturate(frames: u64, scope_n: usize, config: NetConfig) -> SaturationReport {
    saturate_link(frames, scope_n, config, true)
}

/// [`saturate`] over an in-memory loopback link, clean and without
/// telemetry; without `batch` the sender flushes after every send, one
/// write per frame (the A/B knob).
pub fn saturate_loopback(frames: u64, scope_n: usize, batch: bool) -> SaturationReport {
    saturate_link(frames, scope_n, NetConfig::loopback(), batch)
}

/// The run behind [`saturate`] and [`saturate_loopback`].
fn saturate_link(frames: u64, scope_n: usize, config: NetConfig, batch: bool) -> SaturationReport {
    let counters = NetCounters::shared();
    let dialer = Dialer::new(config.transport, FramePool::shared(counters.clone()));
    let (txs, mut inboxes): (Vec<_>, Vec<_>) = (0..2).map(|_| channel()).unzip();
    let txs: Vec<InboxSender> = txs.into_iter().map(InboxSender::from).collect();
    let telemetry = config.telemetry.then(|| SaturationTelemetry {
        sender: Arc::default(),
        receiver: Arc::default(),
        collector: TelemetryCollector::shared(),
    });
    let recorders: [Arc<dyn Recorder>; 2] = match &telemetry {
        Some(t) => [t.sender.clone(), t.receiver.clone()],
        None => [Arc::new(NullRecorder), Arc::new(NullRecorder)],
    };
    let [sender, mut receiver] = [0usize, 1].map(|i| {
        let links = (0..2)
            .map(|j| (j != i).then(|| dialer.dial(&txs[j])))
            .collect();
        let inbox = inboxes.remove(0);
        Endpoint::new(
            i as u32,
            links,
            inbox,
            counters.clone(),
            recorders[i].clone(),
        )
    });
    if let Some(t) = &telemetry {
        receiver.set_collector(t.collector.clone());
    }
    drive(
        sender, receiver, frames, scope_n, batch, &counters, telemetry,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_saturation_delivers_every_frame_with_pooled_buffers() {
        let report = saturate_loopback(2_000, 4, true);
        assert_eq!(report.frames, 2_000);
        assert!(report.net.frames_received >= 2_000);
        assert!(
            report.frames_per_flush() > 1.0,
            "batching coalesced at least some frames: {:?}",
            report.net
        );
        assert!(
            report.net.pool_allocs < 200,
            "steady state recycles buffers: {:?}",
            report.net
        );
        assert!(report.net.acks_received > 0, "log truncation exercised");
    }

    #[test]
    fn per_frame_mode_still_delivers_everything() {
        let report = saturate_loopback(500, 4, false);
        assert_eq!(report.frames, 500);
        assert!((report.frames_per_flush() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn observed_saturation_delivers_data_and_collects_telemetry() {
        let report = saturate(6_000, 4, NetConfig::loopback().with_telemetry());
        let collector = report.telemetry.clone().expect("telemetry was on");
        assert_eq!(report.frames, 6_000);
        assert!(report.net.telemetry_sent > 0, "{:?}", report.net);
        assert_eq!(
            report.net.telemetry_sent, report.net.telemetry_received,
            "loopback sidecar is lossless: {:?}",
            report.net
        );
        assert_eq!(collector.malformed(), 0);
        // Both peers surface in the collector, and the shipped stream is
        // flush-level only: the per-frame gate kept FrameSent volume out.
        let sources = collector.source_stats();
        assert_eq!(sources.len(), 2);
        let merged = collector.merged();
        assert!(!merged.is_empty());
        assert!(merged
            .iter()
            .all(|e| !matches!(e.event.kind(), "FrameSent" | "FrameReceived")));
        assert!(
            (merged.len() as u64) < report.frames / 10,
            "telemetry volume stays amortized: {} events for {} frames",
            merged.len(),
            report.frames
        );
    }

    #[test]
    fn tcp_saturation_roundtrips() {
        let report = saturate(1_000, 4, NetConfig::tcp());
        assert_eq!(report.frames, 1_000);
        assert!(report.frames_per_flush() > 1.0);
    }
}
