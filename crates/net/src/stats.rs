//! Transport-level counters, shared by a run's worker and a standalone
//! peer's TCP reader threads, and their plain snapshot form.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live atomic counters of one net run (all peers and links combined).
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Frames sent (first transmissions only).
    pub frames_sent: AtomicU64,
    /// Bytes sent in first transmissions (header + body).
    pub bytes_sent: AtomicU64,
    /// Frames received and accepted (post-dedup).
    pub frames_received: AtomicU64,
    /// Bytes received in accepted frames.
    pub bytes_received: AtomicU64,
    /// Frames transmitted again (fault recovery or log replay).
    pub retransmits: AtomicU64,
    /// Connections re-established after an error.
    pub reconnects: AtomicU64,
    /// Duplicate frames dropped by receivers.
    pub duplicates_dropped: AtomicU64,
    /// Frames that arrived ahead of a gap and were held for resequencing.
    pub reordered: AtomicU64,
    /// Coalesced batch writes handed to transports.
    pub batch_flushes: AtomicU64,
    /// High-watermark: largest single batch flushed, in bytes.
    pub max_batch_bytes: AtomicU64,
    /// High-watermark: deepest in-order ready queue at any receiver (the
    /// backpressure measure — how far a slow consumer fell behind).
    pub max_ready_depth: AtomicU64,
    /// Cumulative acknowledgements sent (not counted as `frames_sent`).
    pub acks_sent: AtomicU64,
    /// Cumulative acknowledgements received and applied to send logs.
    pub acks_received: AtomicU64,
    /// Fresh buffer allocations by the frame pool (free list empty).
    pub pool_allocs: AtomicU64,
    /// Buffer checkouts served by recycling a returned buffer.
    pub pool_reuses: AtomicU64,
    /// Sidecar telemetry frames sent (not counted as `frames_sent`).
    pub telemetry_sent: AtomicU64,
    /// Sidecar telemetry frames received and collected.
    pub telemetry_received: AtomicU64,
    /// Bytes of telemetry bodies shipped (outside paper accounting).
    pub telemetry_bytes: AtomicU64,
    /// What every sent frame would have cost under the retired
    /// fixed-width encoding ([`v1_frame_len`](crate::codec::v1_frame_len):
    /// a 33-byte header plus a `wire_size()` body), so
    /// `bytes_sent / wire_bytes_v1_equiv` is the compression ratio.
    pub wire_bytes_v1_equiv: AtomicU64,
    /// Chained clocks sent as deltas (changed bitmap + varint deltas).
    pub delta_frames_sent: AtomicU64,
    /// Chained clocks sent as full-clock keyframes.
    pub keyframes_sent: AtomicU64,
    /// Multi-tenant service: predicate sessions currently registered.
    pub multi_sessions_active: AtomicU64,
    /// Multi-tenant service: per-session event deliveries routed so far.
    pub multi_routed_events: AtomicU64,
    /// Multi-tenant service: sessions resolved `Detected`.
    pub multi_detections: AtomicU64,
    /// Multi-tenant service: messages it refused and dropped.
    pub multi_rejected: AtomicU64,
    /// Inbound frames dropped because their header did not decode, or
    /// chunk tails dropped because they could not be framed.
    pub corrupt_frames: AtomicU64,
}

/// Applies `$apply` to every [`NetStats`] field name, in declaration
/// order, which is also their order in a telemetry delta.
macro_rules! stats_fields {
    ($apply:ident) => {
        $apply!(
            frames_sent,
            bytes_sent,
            frames_received,
            bytes_received,
            retransmits,
            reconnects,
            duplicates_dropped,
            reordered,
            batch_flushes,
            max_batch_bytes,
            max_ready_depth,
            acks_sent,
            acks_received,
            pool_allocs,
            pool_reuses,
            telemetry_sent,
            telemetry_received,
            telemetry_bytes,
            wire_bytes_v1_equiv,
            delta_frames_sent,
            keyframes_sent,
            multi_sessions_active,
            multi_routed_events,
            multi_detections,
            multi_rejected,
            corrupt_frames
        )
    };
}
pub(crate) use stats_fields;

impl NetCounters {
    /// A fresh shared counter block.
    pub fn shared() -> Arc<Self> {
        Arc::new(NetCounters::default())
    }

    /// Plain-value snapshot.
    pub fn snapshot(&self) -> NetStats {
        macro_rules! load {
            ($($field:ident),*) => {
                NetStats { $($field: self.$field.load(Ordering::Relaxed)),* }
            };
        }
        stats_fields!(load)
    }
}

/// Snapshot of [`NetCounters`] at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames sent (first transmissions only).
    pub frames_sent: u64,
    /// Bytes sent in first transmissions (header + body).
    pub bytes_sent: u64,
    /// Frames received and accepted (post-dedup).
    pub frames_received: u64,
    /// Bytes received in accepted frames.
    pub bytes_received: u64,
    /// Frames transmitted again (fault recovery or log replay).
    pub retransmits: u64,
    /// Connections re-established after an error.
    pub reconnects: u64,
    /// Duplicate frames dropped by receivers.
    pub duplicates_dropped: u64,
    /// Frames that arrived ahead of a gap and were held for resequencing.
    pub reordered: u64,
    /// Coalesced batch writes handed to transports.
    pub batch_flushes: u64,
    /// High-watermark: largest single batch flushed, in bytes.
    pub max_batch_bytes: u64,
    /// High-watermark: deepest in-order ready queue at any receiver.
    pub max_ready_depth: u64,
    /// Cumulative acknowledgements sent (not counted as `frames_sent`).
    pub acks_sent: u64,
    /// Cumulative acknowledgements received and applied to send logs.
    pub acks_received: u64,
    /// Fresh buffer allocations by the frame pool (free list empty).
    pub pool_allocs: u64,
    /// Buffer checkouts served by recycling a returned buffer.
    pub pool_reuses: u64,
    /// Sidecar telemetry frames sent (not counted as `frames_sent`).
    pub telemetry_sent: u64,
    /// Sidecar telemetry frames received and collected.
    pub telemetry_received: u64,
    /// Bytes of telemetry bodies shipped (outside paper accounting).
    pub telemetry_bytes: u64,
    /// What every sent frame would have cost under the retired
    /// fixed-width encoding; see [`NetCounters::wire_bytes_v1_equiv`].
    pub wire_bytes_v1_equiv: u64,
    /// Chained clocks sent as deltas (changed bitmap + varint deltas).
    pub delta_frames_sent: u64,
    /// Chained clocks sent as full-clock keyframes.
    pub keyframes_sent: u64,
    /// Multi-tenant service: predicate sessions registered at snapshot.
    pub multi_sessions_active: u64,
    /// Multi-tenant service: per-session event deliveries routed.
    pub multi_routed_events: u64,
    /// Multi-tenant service: sessions resolved `Detected`.
    pub multi_detections: u64,
    /// Multi-tenant service: messages it refused and dropped.
    pub multi_rejected: u64,
    /// Inbound frames (or unframeable chunk tails) dropped as corrupt.
    pub corrupt_frames: u64,
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} frames / {} B sent, {} frames / {} B received, \
             {} retransmits, {} reconnects, {} dups dropped, {} reordered, \
             {} flushes (max {} B), ready depth ≤ {}, {} acks out / {} in, \
             pool {} allocs / {} reuses, telemetry {} out / {} in ({} B), \
             wire {} B v1-equiv ({} keyframes / {} deltas), \
             multi {} sessions / {} routed / {} detections / {} rejected",
            self.frames_sent,
            self.bytes_sent,
            self.frames_received,
            self.bytes_received,
            self.retransmits,
            self.reconnects,
            self.duplicates_dropped,
            self.reordered,
            self.batch_flushes,
            self.max_batch_bytes,
            self.max_ready_depth,
            self.acks_sent,
            self.acks_received,
            self.pool_allocs,
            self.pool_reuses,
            self.telemetry_sent,
            self.telemetry_received,
            self.telemetry_bytes,
            self.wire_bytes_v1_equiv,
            self.keyframes_sent,
            self.delta_frames_sent,
            self.multi_sessions_active,
            self.multi_routed_events,
            self.multi_detections,
            self.multi_rejected
        )?;
        // Shown only once a peer has met one, so honest runs print as before.
        if self.corrupt_frames > 0 {
            write!(f, ", {} corrupt frames dropped", self.corrupt_frames)?;
        }
        Ok(())
    }
}
