//! The sidecar telemetry plane: delta framing and the collector.
//!
//! Each peer periodically drains its private ring recorder and ships the
//! delta — the new [`StampedEvent`]s plus a [`NetStats`] snapshot — as a
//! `TELEMETRY` frame towards the collector peer. The frames ride the
//! *existing* wire but outside the detection protocol:
//!
//! - sent via [`Transport::resend`](crate::transport::Transport::resend),
//!   the un-faulted recovery path, so seeded fault schedules draw exactly
//!   the same random numbers with telemetry on or off;
//! - `seq = CONTROL_SEQ`, so they are never logged, acknowledged,
//!   deduplicated, or resequenced;
//! - dropped silently on any error — a lost delta thins the collected
//!   timeline, never the detection.
//!
//! The [`TelemetryCollector`] merges the per-peer streams into one
//! causally ordered global timeline ([`wcp_obs::merge`]), which is what
//! `wcp obs-report` renders, `wcp top` refreshes from, and the bound
//! auditor counts paper units over.
//!
//! ## Delta body format (`wcp-telemetry/1`)
//!
//! Line 1 is a header object; every following line is one JSONL
//! [`StampedEvent`] (the `wcp trace --events` format):
//!
//! ```text
//! {"schema":"wcp-telemetry/1","source":2,"stats":{"frames_sent":9,...}}
//! {"seq":0,"monitor":2,"time":{"tick":4},"event":{...}}
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use wcp_obs::json::{Json, JsonError};
use wcp_obs::{
    jsonl, merge_streams, LogicalTime, Recorder, RingRecorder, RunReport, StampedEvent, TraceEvent,
};

use crate::stats::NetStats;

/// Schema tag of a telemetry delta body.
pub const TELEMETRY_SCHEMA: &str = "wcp-telemetry/1";

/// `NetStats` as a JSON object (field names match the struct).
pub fn stats_to_json(s: &NetStats) -> Json {
    Json::obj([
        ("frames_sent", Json::from(s.frames_sent)),
        ("bytes_sent", Json::from(s.bytes_sent)),
        ("frames_received", Json::from(s.frames_received)),
        ("bytes_received", Json::from(s.bytes_received)),
        ("retransmits", Json::from(s.retransmits)),
        ("reconnects", Json::from(s.reconnects)),
        ("duplicates_dropped", Json::from(s.duplicates_dropped)),
        ("reordered", Json::from(s.reordered)),
        ("batch_flushes", Json::from(s.batch_flushes)),
        ("max_batch_bytes", Json::from(s.max_batch_bytes)),
        ("max_ready_depth", Json::from(s.max_ready_depth)),
        ("acks_sent", Json::from(s.acks_sent)),
        ("acks_received", Json::from(s.acks_received)),
        ("pool_allocs", Json::from(s.pool_allocs)),
        ("pool_reuses", Json::from(s.pool_reuses)),
        ("telemetry_sent", Json::from(s.telemetry_sent)),
        ("telemetry_received", Json::from(s.telemetry_received)),
        ("telemetry_bytes", Json::from(s.telemetry_bytes)),
        ("wire_bytes_v1_equiv", Json::from(s.wire_bytes_v1_equiv)),
        ("delta_frames_sent", Json::from(s.delta_frames_sent)),
        ("keyframes_sent", Json::from(s.keyframes_sent)),
        ("multi_sessions_active", Json::from(s.multi_sessions_active)),
        ("multi_routed_events", Json::from(s.multi_routed_events)),
        ("multi_detections", Json::from(s.multi_detections)),
        ("multi_rejected", Json::from(s.multi_rejected)),
    ])
}

/// Parses a [`stats_to_json`] object back (absent fields default to 0,
/// so older deltas keep parsing as counters are added).
///
/// # Errors
///
/// Shape error when a present field is not a non-negative integer.
pub fn stats_from_json(v: &Json) -> Result<NetStats, JsonError> {
    let field = |name: &str| -> Result<u64, JsonError> {
        match v.get(name) {
            Some(value) => value.expect_u64(),
            None => Ok(0),
        }
    };
    Ok(NetStats {
        frames_sent: field("frames_sent")?,
        bytes_sent: field("bytes_sent")?,
        frames_received: field("frames_received")?,
        bytes_received: field("bytes_received")?,
        retransmits: field("retransmits")?,
        reconnects: field("reconnects")?,
        duplicates_dropped: field("duplicates_dropped")?,
        reordered: field("reordered")?,
        batch_flushes: field("batch_flushes")?,
        max_batch_bytes: field("max_batch_bytes")?,
        max_ready_depth: field("max_ready_depth")?,
        acks_sent: field("acks_sent")?,
        acks_received: field("acks_received")?,
        pool_allocs: field("pool_allocs")?,
        pool_reuses: field("pool_reuses")?,
        telemetry_sent: field("telemetry_sent")?,
        telemetry_received: field("telemetry_received")?,
        telemetry_bytes: field("telemetry_bytes")?,
        wire_bytes_v1_equiv: field("wire_bytes_v1_equiv")?,
        delta_frames_sent: field("delta_frames_sent")?,
        keyframes_sent: field("keyframes_sent")?,
        multi_sessions_active: field("multi_sessions_active")?,
        multi_routed_events: field("multi_routed_events")?,
        multi_detections: field("multi_detections")?,
        multi_rejected: field("multi_rejected")?,
    })
}

/// One decoded telemetry delta.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDelta {
    /// Sending peer.
    pub source: u32,
    /// The sender's counter snapshot at flush time.
    pub stats: NetStats,
    /// Ring-recorder events drained since the previous delta.
    pub events: Vec<StampedEvent>,
}

/// Encodes one delta body (header line + JSONL events).
pub fn encode_delta(source: u32, stats: &NetStats, events: &[StampedEvent]) -> Vec<u8> {
    let head = Json::obj([
        ("schema", Json::from(TELEMETRY_SCHEMA)),
        ("source", Json::from(source)),
        ("stats", stats_to_json(stats)),
    ]);
    let mut out = head.to_string().into_bytes();
    out.push(b'\n');
    out.extend_from_slice(jsonl::to_string(events).as_bytes());
    out
}

/// Decodes a delta body produced by [`encode_delta`].
///
/// # Errors
///
/// A message naming what was malformed (collectors drop such bodies and
/// count them; telemetry must never take a run down).
pub fn decode_delta(body: &[u8]) -> Result<TelemetryDelta, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("telemetry body not UTF-8: {e}"))?;
    let (head_line, rest) = text.split_once('\n').unwrap_or((text, ""));
    let head = Json::parse(head_line).map_err(|e| format!("telemetry header: {e}"))?;
    match head.get("schema").and_then(Json::as_str) {
        Some(TELEMETRY_SCHEMA) => {}
        other => return Err(format!("unknown telemetry schema {other:?}")),
    }
    let source = head
        .field("source")
        .and_then(Json::expect_u64)
        .map_err(|e| format!("telemetry source: {e}"))? as u32;
    let stats = stats_from_json(head.field("stats").map_err(|e| e.to_string())?)
        .map_err(|e| format!("telemetry stats: {e}"))?;
    let events = jsonl::read_str(rest).map_err(|e| format!("telemetry events: {e}"))?;
    Ok(TelemetryDelta {
        source,
        stats,
        events,
    })
}

/// The gate in front of a peer's private sidecar ring: every event
/// passes through *except* the per-frame wire events ([`FrameSent`]
/// and [`FrameReceived`]).
///
/// Those two fire once per frame — at wire saturation that is the
/// entire hot path — and carry nothing the [`NetStats`] snapshot
/// shipped with every delta doesn't already aggregate. Rejecting them
/// before the ring mutex keeps sidecar cost proportional to protocol
/// activity (token hops, candidates, snapshots) plus flush-level wire
/// marks (`BatchFlushed`, `Retransmit`, `Reconnect`), not to frame
/// volume. User-supplied recorders are unaffected: the runner tees the
/// raw stream to them and gates only the sidecar leg.
///
/// [`FrameSent`]: TraceEvent::FrameSent
/// [`FrameReceived`]: TraceEvent::FrameReceived
pub struct SidecarFilter {
    ring: Arc<RingRecorder>,
}

impl SidecarFilter {
    /// Gates `ring` behind the per-frame filter.
    pub fn new(ring: Arc<RingRecorder>) -> Self {
        SidecarFilter { ring }
    }
}

impl Recorder for SidecarFilter {
    fn record(&self, monitor: u32, time: LogicalTime, event: TraceEvent) {
        if matches!(
            event,
            TraceEvent::FrameSent { .. } | TraceEvent::FrameReceived { .. }
        ) {
            return;
        }
        self.ring.record(monitor, time, event);
    }
}

#[derive(Default)]
struct SourceState {
    events: Vec<StampedEvent>,
    stats: NetStats,
    deltas: u64,
}

#[derive(Default)]
struct Inner {
    /// Raw delta bodies queued by the wire path, decoded on first read.
    pending: Vec<Vec<u8>>,
    sources: BTreeMap<u32, SourceState>,
    malformed: u64,
}

impl Inner {
    /// Decodes every queued body. Runs on the reader side (`wcp top`'s
    /// refresh thread, post-run reporting) so the collector peer's accept
    /// path never pays for JSON parsing mid-detection.
    fn settle(&mut self) {
        for body in std::mem::take(&mut self.pending) {
            match decode_delta(&body) {
                Ok(d) => {
                    let st = self.sources.entry(d.source).or_default();
                    st.events.extend(d.events);
                    st.stats = d.stats;
                    st.deltas += 1;
                }
                Err(_) => self.malformed += 1,
            }
        }
    }
}

/// Merges per-peer telemetry streams into one global view: the causally
/// ordered timeline plus the latest counter snapshot per source.
///
/// Shared (`Arc`) between the collector peer's endpoint (which ingests
/// inbound `TELEMETRY` frames) and whoever watches the run live (`wcp
/// top`) or reports on it afterwards (`wcp obs-report`).
#[derive(Default)]
pub struct TelemetryCollector {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for TelemetryCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut inner = self.inner.lock().unwrap();
        inner.settle();
        f.debug_struct("TelemetryCollector")
            .field("sources", &inner.sources.len())
            .field("malformed", &inner.malformed)
            .finish()
    }
}

impl TelemetryCollector {
    /// A fresh shared collector.
    pub fn shared() -> Arc<Self> {
        Arc::new(TelemetryCollector::default())
    }

    /// Queues one encoded delta body (the wire path). The body is only
    /// copied here — decoding is deferred to the first read
    /// ([`source_stats`](Self::source_stats), [`merged`](Self::merged),
    /// …), keeping JSON parsing off the collector peer's accept path.
    /// Malformed bodies surface in [`malformed`](Self::malformed) once
    /// settled; telemetry must never take a detection run down.
    pub fn ingest(&self, body: &[u8]) {
        self.inner.lock().unwrap().pending.push(body.to_vec());
    }

    /// Ingests one already-decoded delta (the collector peer's local
    /// path — its own ring never touches the wire).
    pub fn ingest_delta(&self, source: u32, stats: NetStats, events: Vec<StampedEvent>) {
        let mut inner = self.inner.lock().unwrap();
        let st = inner.sources.entry(source).or_default();
        st.events.extend(events);
        st.stats = stats;
        st.deltas += 1;
    }

    /// `(source, latest stats, events collected, deltas)` per source.
    pub fn source_stats(&self) -> Vec<(u32, NetStats, usize, u64)> {
        let mut inner = self.inner.lock().unwrap();
        inner.settle();
        inner
            .sources
            .iter()
            .map(|(&src, st)| (src, st.stats, st.events.len(), st.deltas))
            .collect()
    }

    /// Total events collected across all sources.
    pub fn events_collected(&self) -> usize {
        let mut inner = self.inner.lock().unwrap();
        inner.settle();
        inner.sources.values().map(|st| st.events.len()).sum()
    }

    /// Malformed delta bodies dropped.
    pub fn malformed(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.settle();
        inner.malformed
    }

    /// The causally ordered global timeline (see [`wcp_obs::merge`]).
    pub fn merged(&self) -> Vec<StampedEvent> {
        let mut inner = self.inner.lock().unwrap();
        inner.settle();
        let streams: Vec<(u32, &[StampedEvent])> = inner
            .sources
            .iter()
            .map(|(&src, st)| (src, st.events.as_slice()))
            .collect();
        merge_streams(&streams)
    }

    /// One refresh frame of the live `wcp top` view: per-source link
    /// table (throughput, batch watermarks, telemetry traffic) above the
    /// detection progress folded from the merged timeline.
    pub fn dashboard(&self, title: &str) -> String {
        let sources = self.source_stats();
        let merged = self.merged();
        let report = RunReport::from_events(&merged);
        let mut out = format!("wcp top — {title}\n");
        out.push_str(
            "source | deltas | events | frames out | B out | flushes | max B | ready≤ | tlm out/in\n",
        );
        for (src, stats, events, deltas) in &sources {
            out.push_str(&format!(
                "S{src:<5} | {deltas:>6} | {events:>6} | {:>10} | {:>5} | {:>7} | {:>5} | {:>6} | {}/{}\n",
                stats.frames_sent,
                stats.bytes_sent,
                stats.batch_flushes,
                stats.max_batch_bytes,
                stats.max_ready_depth,
                stats.telemetry_sent,
                stats.telemetry_received,
            ));
        }
        if sources.is_empty() {
            out.push_str("(no telemetry yet)\n");
        }
        let (eliminated, accepted) = report
            .monitors
            .iter()
            .fold((0u64, 0u64), |(e, a), m| (e + m.eliminated, a + m.accepted));
        out.push_str(&format!(
            "detection: {} token hops, {eliminated} eliminated, {accepted} accepted\n",
            report.token_hops(),
        ));
        match (&report.detected_cut, report.finished_at) {
            (Some(cut), _) => {
                let cut: Vec<String> = cut.iter().map(u64::to_string).collect();
                out.push_str(&format!("verdict: DETECTED at ⟨{}⟩\n", cut.join(",")));
            }
            (None, Some(t)) => {
                out.push_str(&format!("verdict: UNDETECTED (exhausted at t={t})\n"));
            }
            (None, None) => out.push_str("verdict: (running)\n"),
        }
        // Multi-tenant service counters, when any source is a session
        // peer (the service mirrors its engine stats into `NetStats`, so
        // they ride the existing telemetry deltas — no new frame kinds).
        let (active, routed, detections, rejected) =
            sources.iter().fold((0, 0, 0, 0), |acc, (_, s, _, _)| {
                (
                    acc.0.max(s.multi_sessions_active),
                    acc.1 + s.multi_routed_events,
                    acc.2 + s.multi_detections,
                    acc.3 + s.multi_rejected,
                )
            });
        if active > 0 || routed > 0 || rejected > 0 {
            out.push_str(&format!(
                "sessions: {active} active, {routed} routed events, {detections} detections, \
                 {rejected} rejected\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_obs::{LogicalTime, TraceEvent};

    fn ev(seq: u64, monitor: u32, t: u64) -> StampedEvent {
        StampedEvent {
            seq,
            monitor,
            time: LogicalTime::Tick(t),
            wall_nanos: None,
            event: TraceEvent::Work { units: t },
        }
    }

    #[test]
    fn deltas_roundtrip_through_the_body_encoding() {
        let stats = NetStats {
            frames_sent: 7,
            bytes_sent: 441,
            telemetry_sent: 2,
            telemetry_bytes: 99,
            ..NetStats::default()
        };
        let events = vec![ev(0, 3, 1), ev(1, 3, 4)];
        let body = encode_delta(3, &stats, &events);
        let delta = decode_delta(&body).unwrap();
        assert_eq!(delta.source, 3);
        assert_eq!(delta.stats, stats);
        assert_eq!(delta.events, events);
    }

    #[test]
    fn empty_deltas_roundtrip_too() {
        let body = encode_delta(0, &NetStats::default(), &[]);
        let delta = decode_delta(&body).unwrap();
        assert_eq!(delta.events, vec![]);
        assert_eq!(delta.stats, NetStats::default());
    }

    #[test]
    fn malformed_bodies_are_rejected_and_counted() {
        let collector = TelemetryCollector::shared();
        collector.ingest(b"not a delta");
        collector.ingest(br#"{"schema":"other/9","source":0,"stats":{}}"#);
        assert_eq!(collector.malformed(), 2);
        assert_eq!(collector.events_collected(), 0);
    }

    #[test]
    fn collector_merges_sources_into_one_timeline() {
        let collector = TelemetryCollector::shared();
        collector.ingest_delta(1, NetStats::default(), vec![ev(0, 1, 2)]);
        collector.ingest(&encode_delta(
            0,
            &NetStats::default(),
            &[ev(0, 0, 1), ev(1, 0, 3)],
        ));
        // A second delta from source 1 appends to its stream.
        collector.ingest_delta(1, NetStats::default(), vec![ev(1, 1, 5)]);
        let merged = collector.merged();
        let times: Vec<u64> = merged.iter().map(|e| e.time.value()).collect();
        assert_eq!(times, vec![1, 2, 3, 5], "causally ordered across sources");
        assert_eq!(collector.events_collected(), 4);
        let per_source = collector.source_stats();
        assert_eq!(per_source.len(), 2);
        assert_eq!(per_source[1].3, 2, "two deltas from source 1");
    }

    #[test]
    fn sidecar_filter_drops_per_frame_events_only() {
        let ring = Arc::new(RingRecorder::new(16));
        let filter = SidecarFilter::new(ring.clone());
        filter.record(
            0,
            LogicalTime::Unknown,
            TraceEvent::FrameSent { to: 1, bytes: 52 },
        );
        filter.record(
            0,
            LogicalTime::Unknown,
            TraceEvent::FrameReceived { from: 1, bytes: 52 },
        );
        filter.record(
            0,
            LogicalTime::Unknown,
            TraceEvent::BatchFlushed {
                to: 1,
                frames: 9,
                bytes: 477,
            },
        );
        filter.record(0, LogicalTime::Tick(3), TraceEvent::Work { units: 1 });
        let kept: Vec<&'static str> = ring.events().iter().map(|e| e.event.kind()).collect();
        assert_eq!(kept, vec!["BatchFlushed", "Work"]);
    }

    #[test]
    fn stats_json_defaults_absent_counters() {
        let parsed = stats_from_json(&Json::parse(r#"{"frames_sent":5}"#).unwrap()).unwrap();
        assert_eq!(parsed.frames_sent, 5);
        assert_eq!(parsed.telemetry_bytes, 0);
        assert!(stats_from_json(&Json::parse(r#"{"frames_sent":"x"}"#).unwrap()).is_err());
    }

    #[test]
    fn dashboard_renders_sources_and_progress() {
        let collector = TelemetryCollector::shared();
        let empty = collector.dashboard("warming up");
        assert!(empty.contains("no telemetry yet"), "{empty}");
        collector.ingest_delta(
            0,
            NetStats {
                frames_sent: 12,
                ..NetStats::default()
            },
            vec![StampedEvent {
                seq: 0,
                monitor: 0,
                time: LogicalTime::Tick(8),
                wall_nanos: None,
                event: TraceEvent::DetectionFound { cut: vec![2, 1] },
            }],
        );
        let text = collector.dashboard("run");
        assert!(text.contains("wcp top — run"), "{text}");
        assert!(text.contains("S0"), "{text}");
        assert!(text.contains("DETECTED at ⟨2,1⟩"), "{text}");
    }
}
