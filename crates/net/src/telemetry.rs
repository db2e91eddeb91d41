//! The sidecar telemetry plane: delta framing and the collector.
//!
//! Each peer records into its private [`SidecarRecorder`] and
//! periodically ships the delta — the events recorded since the last one
//! plus a [`NetStats`] snapshot — as a `TELEMETRY` frame towards the
//! collector peer. The frames ride the
//! *existing* wire but outside the detection protocol:
//!
//! - sent via [`Transport::resend`](crate::transport::Transport::resend),
//!   the un-faulted recovery path, so seeded fault schedules draw exactly
//!   the same random numbers with telemetry on or off;
//! - outside the sequence space (a `TELEMETRY` frame carries no `seq`),
//!   so they are never logged, acknowledged, deduplicated, or
//!   resequenced;
//! - dropped silently on any error — a lost delta thins the collected
//!   timeline, never the detection.
//!
//! The [`TelemetryCollector`] merges the per-peer streams into one
//! causally ordered global timeline ([`wcp_obs::merge`]), which is what
//! `wcp obs-report` renders, `wcp top` refreshes from, and the bound
//! auditor counts paper units over.
//!
//! ## Delta body format (`wcp-telemetry/3`)
//!
//! One MSB-first bit stream ([`BitWriter`]), zero-padded to a byte.
//! Every number is a [`wire2`](crate::wire2) varint (a continuation bit
//! and 7 value bits per group), `zz` a zigzag-mapped wrapping
//! difference:
//!
//! ```text
//! body:  version=3 ┆ source ┆ 26 NetStats counters ┆ count ┆ count × event
//! event: time tag:2 ┆ wall flag:1 ┆ kind:5 ┆ zz(seq − previous seq − 1)
//!        ┆ monitor ┆ time value ┆ zz(wall_nanos − previous wall_nanos)
//!        ┆ fields
//! ```
//!
//! The time tag is 0 for unknown (no value follows), 1 for a tick and 2
//! for a scalar; the wall difference is present when the flag is set.
//! The fields follow the variant's declaration order, each a varint: a
//! `bool` as 0 or 1, the `Option` of `TokenAcquired` as 0 for none or
//! the sender plus one, the cut of `DetectionFound` as a length and its
//! entries. The event's first byte holds the three short fields, so the
//! stream stays byte-aligned and every varint is whole bytes. Within one
//! step the events share their wall stamp, so most events cost about
//! eight bytes.
//!
//! Decoding returns a typed [`CodecError`] for every malformed body and
//! never allocates for a count longer than the bits left.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use wcp_obs::{
    merge_streams, LogicalTime, Recorder, RunReport, StampedEvent, TelemetrySink, TraceEvent,
};

use crate::codec::CodecError;
use crate::stats::{stats_fields, NetStats};
use crate::wire2::{unzigzag, zigzag, BitReader, BitWriter};

/// Version tag that opens a telemetry delta body.
pub const TELEMETRY_VERSION: u64 = 3;

/// Bits of the shortest encoded event: the byte holding the time tag,
/// the wall flag and the kind, then one-group seq and monitor varints.
const MIN_EVENT_BITS: usize = 8 + 8 + 8;

/// One decoded telemetry delta.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDelta {
    /// Sending peer.
    pub source: u32,
    /// The sender's counter snapshot at flush time.
    pub stats: NetStats,
    /// Events recorded since the previous delta.
    pub events: Vec<StampedEvent>,
}

/// Encodes one delta body (see the module docs for the layout).
pub fn encode_delta(source: u32, stats: &NetStats, events: &[StampedEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 8 * events.len());
    write_header(&mut out, source, stats, events.len() as u64);
    let mut chain = Chain::default();
    let mut w = BitWriter::new(&mut out);
    for e in events {
        chain.write(&mut w, e.seq, e.monitor, e.time, e.wall_nanos, &e.event);
    }
    w.finish();
    out
}

/// Writes the header of a delta carrying `count` events. Every field is
/// a varint, so the header ends on a byte boundary.
fn write_header(out: &mut Vec<u8>, source: u32, stats: &NetStats, count: u64) {
    let mut w = BitWriter::new(out);
    w.write_varint(TELEMETRY_VERSION);
    w.write_varint(source.into());
    macro_rules! put {
        ($($field:ident),*) => { $(w.write_varint(stats.$field);)* };
    }
    stats_fields!(put);
    w.write_varint(count);
    w.finish();
}

/// The previous event's `seq` and wall stamp, which the next event of
/// the same delta is written against; both start at 0 in every delta.
#[derive(Debug, Default, Clone, Copy)]
struct Chain {
    next_seq: u64,
    last_wall: u64,
}

impl Chain {
    /// Writes one event, whole bytes, and advances the chain.
    fn write(
        &mut self,
        w: &mut BitWriter<'_>,
        seq: u64,
        monitor: u32,
        time: LogicalTime,
        wall_nanos: Option<u64>,
        event: &TraceEvent,
    ) {
        let (tag, time) = match time {
            LogicalTime::Unknown => (0, None),
            LogicalTime::Tick(t) => (1, Some(t)),
            LogicalTime::Scalar(t) => (2, Some(t)),
        };
        w.write_bits(
            tag << 6 | u64::from(wall_nanos.is_some()) << 5 | kind_index(event),
            8,
        );
        w.write_varint(zigzag(seq.wrapping_sub(self.next_seq) as i64));
        self.next_seq = seq.wrapping_add(1);
        w.write_varint(monitor.into());
        if let Some(t) = time {
            w.write_varint(t);
        }
        if let Some(ns) = wall_nanos {
            w.write_varint(zigzag(ns.wrapping_sub(self.last_wall) as i64));
            self.last_wall = ns;
        }
        write_fields(w, event);
    }
}

/// The 5-bit kind of an event on the wire.
fn kind_index(event: &TraceEvent) -> u64 {
    use TraceEvent as E;
    match event {
        E::TokenAcquired { .. } => 0,
        E::TokenForwarded { .. } => 1,
        E::CandidateEliminated { .. } => 2,
        E::CandidateAccepted { .. } => 3,
        E::CandidateInvalidated { .. } => 4,
        E::SnapshotBuffered { .. } => 5,
        E::SnapshotDrained { .. } => 6,
        E::PollSent { .. } => 7,
        E::PollAnswered { .. } => 8,
        E::RedChainHop { .. } => 9,
        E::ControlSent { .. } => 10,
        E::Work { .. } => 11,
        E::ParallelAdvance { .. } => 12,
        E::LatticeVisited { .. } => 13,
        E::DetectionFound { .. } => 14,
        E::DetectionExhausted => 15,
        E::MessageDelivered { .. } => 16,
        E::FrameSent { .. } => 17,
        E::FrameReceived { .. } => 18,
        E::Retransmit { .. } => 19,
        E::Reconnect { .. } => 20,
        E::BatchFlushed { .. } => 21,
    }
}

/// Writes an event's fields in declaration order.
fn write_fields(w: &mut BitWriter<'_>, event: &TraceEvent) {
    use TraceEvent as E;
    let mut put = |fields: &[u64]| fields.iter().for_each(|&f| w.write_varint(f));
    match *event {
        E::TokenAcquired { from } => put(&[from.map_or(0, |from| u64::from(from) + 1)]),
        E::PollAnswered { to, alive, bytes } => put(&[to.into(), alive.into(), bytes]),
        E::DetectionFound { ref cut } => {
            put(&[cut.len() as u64]);
            put(cut);
        }
        E::TokenForwarded { to, bytes }
        | E::PollSent { to, bytes }
        | E::RedChainHop { to, bytes }
        | E::FrameSent { to, bytes }
        | E::FrameReceived { from: to, bytes } => put(&[to.into(), bytes]),
        E::CandidateEliminated {
            process,
            interval,
            work,
        }
        | E::CandidateAccepted {
            process,
            interval,
            work,
        } => put(&[process.into(), interval, work]),
        E::CandidateInvalidated { process, interval } => put(&[process.into(), interval]),
        E::SnapshotBuffered { depth, bytes } => put(&[depth, bytes]),
        E::SnapshotDrained { depth: units }
        | E::Work { units }
        | E::ParallelAdvance { units }
        | E::LatticeVisited { states: units } => put(&[units]),
        E::ControlSent { to, count, bytes } => put(&[to.into(), count, bytes]),
        E::DetectionExhausted => {}
        E::MessageDelivered { from, to, delay } => put(&[from.into(), to.into(), delay]),
        E::Retransmit { to, attempt } | E::Reconnect { peer: to, attempt } => {
            put(&[to.into(), attempt])
        }
        E::BatchFlushed { to, frames, bytes } => put(&[to.into(), frames, bytes]),
    }
}

/// Decodes a delta body produced by [`encode_delta`].
///
/// # Errors
///
/// A [`CodecError`] naming what was malformed (collectors drop such
/// bodies and count them; telemetry must never take a run down).
pub fn decode_delta(body: &[u8]) -> Result<TelemetryDelta, CodecError> {
    let r = &mut BitReader::new(body);
    if r.read_varint()? != TELEMETRY_VERSION {
        return Err(CodecError::OutOfRange("telemetry version"));
    }
    let source = r.read_u32()?;
    macro_rules! get {
        ($($field:ident),*) => { NetStats { $($field: r.read_varint()?,)* } };
    }
    let stats = stats_fields!(get);
    let count = r.read_count(MIN_EVENT_BITS)?;
    let mut events = Vec::with_capacity(count);
    let (mut next_seq, mut last_wall) = (0u64, 0u64);
    for _ in 0..count {
        let head = r.read_bits(8)?;
        let seq = next_seq.wrapping_add(unzigzag(r.read_varint()?) as u64);
        next_seq = seq.wrapping_add(1);
        let monitor = r.read_u32()?;
        let time = match head >> 6 {
            0 => LogicalTime::Unknown,
            1 => LogicalTime::Tick(r.read_varint()?),
            2 => LogicalTime::Scalar(r.read_varint()?),
            _ => return Err(CodecError::OutOfRange("logical time tag")),
        };
        let wall_nanos = if head & 0x20 != 0 {
            last_wall = last_wall.wrapping_add(unzigzag(r.read_varint()?) as u64);
            Some(last_wall)
        } else {
            None
        };
        events.push(StampedEvent {
            seq,
            monitor,
            time,
            wall_nanos,
            event: read_event(head & 0x1F, r)?,
        });
    }
    r.expect_padding()?;
    Ok(TelemetryDelta {
        source,
        stats,
        events,
    })
}

/// Reads the fields of an event of kind `kind` (see [`kind_index`]).
fn read_event(kind: u64, r: &mut BitReader<'_>) -> Result<TraceEvent, CodecError> {
    use TraceEvent as E;
    Ok(match kind {
        0 => E::TokenAcquired {
            from: match r.read_varint()? {
                0 => None,
                from => Some(narrow(from - 1)?),
            },
        },
        1 => E::TokenForwarded {
            to: r.read_u32()?,
            bytes: r.read_varint()?,
        },
        2 => E::CandidateEliminated {
            process: r.read_u32()?,
            interval: r.read_varint()?,
            work: r.read_varint()?,
        },
        3 => E::CandidateAccepted {
            process: r.read_u32()?,
            interval: r.read_varint()?,
            work: r.read_varint()?,
        },
        4 => E::CandidateInvalidated {
            process: r.read_u32()?,
            interval: r.read_varint()?,
        },
        5 => E::SnapshotBuffered {
            depth: r.read_varint()?,
            bytes: r.read_varint()?,
        },
        6 => E::SnapshotDrained {
            depth: r.read_varint()?,
        },
        7 => E::PollSent {
            to: r.read_u32()?,
            bytes: r.read_varint()?,
        },
        8 => E::PollAnswered {
            to: r.read_u32()?,
            alive: match r.read_varint()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::OutOfRange("bool field")),
            },
            bytes: r.read_varint()?,
        },
        9 => E::RedChainHop {
            to: r.read_u32()?,
            bytes: r.read_varint()?,
        },
        10 => E::ControlSent {
            to: r.read_u32()?,
            count: r.read_varint()?,
            bytes: r.read_varint()?,
        },
        11 => E::Work {
            units: r.read_varint()?,
        },
        12 => E::ParallelAdvance {
            units: r.read_varint()?,
        },
        13 => E::LatticeVisited {
            states: r.read_varint()?,
        },
        14 => {
            let len = r.read_count(8)?;
            let mut cut = Vec::with_capacity(len);
            for _ in 0..len {
                cut.push(r.read_varint()?);
            }
            E::DetectionFound { cut }
        }
        15 => E::DetectionExhausted,
        16 => E::MessageDelivered {
            from: r.read_u32()?,
            to: r.read_u32()?,
            delay: r.read_varint()?,
        },
        17 => E::FrameSent {
            to: r.read_u32()?,
            bytes: r.read_varint()?,
        },
        18 => E::FrameReceived {
            from: r.read_u32()?,
            bytes: r.read_varint()?,
        },
        19 => E::Retransmit {
            to: r.read_u32()?,
            attempt: r.read_varint()?,
        },
        20 => E::Reconnect {
            peer: r.read_u32()?,
            attempt: r.read_varint()?,
        },
        21 => E::BatchFlushed {
            to: r.read_u32()?,
            frames: r.read_varint()?,
            bytes: r.read_varint()?,
        },
        other => return Err(CodecError::BadKind(other as u8)),
    })
}

fn narrow(v: u64) -> Result<u32, CodecError> {
    u32::try_from(v).map_err(|_| CodecError::OutOfRange("32-bit field"))
}

/// Identities of [`SidecarRecorder`]s for the stepping scope; 0 names
/// none.
static NEXT_SIDECAR: AtomicU64 = AtomicU64::new(1);

/// The events one thread recorded inside a [`SidecarRecorder::step`],
/// not yet stamped or encoded.
struct Staged {
    /// The sidecar being stepped on this thread (0 = none).
    sidecar: u64,
    events: Vec<(u32, LogicalTime, TraceEvent)>,
}

thread_local! {
    static STAGED: RefCell<Staged> = const {
        RefCell::new(Staged {
            sidecar: 0,
            events: Vec::new(),
        })
    };
}

/// The events of the next delta, encoded.
#[derive(Default)]
struct Pending {
    /// Encoded events, back to back.
    bytes: Vec<u8>,
    count: u64,
    chain: Chain,
    /// `seq` of the next event recorded (counts across deltas).
    seq: u64,
}

impl Pending {
    fn push(
        &mut self,
        monitor: u32,
        time: LogicalTime,
        wall_nanos: Option<u64>,
        event: &TraceEvent,
    ) {
        let mut w = BitWriter::new(&mut self.bytes);
        self.chain
            .write(&mut w, self.seq, monitor, time, wall_nanos, event);
        w.finish();
        self.seq += 1;
        self.count += 1;
    }
}

/// One peer's private telemetry recorder: what the peer's actors,
/// endpoint and fault injection record goes here (teed with the caller's
/// recorder), wall-clock stamped and encoded straight into the body of
/// the next delta.
///
/// The per-frame wire events ([`FrameSent`] and [`FrameReceived`]) are
/// dropped at the door. They fire once per frame — at wire saturation
/// that is the entire hot path — and carry nothing the [`NetStats`]
/// snapshot shipped with every delta doesn't already aggregate, so
/// sidecar cost stays proportional to protocol activity (token hops,
/// candidates, snapshots) plus flush-level wire marks (`BatchFlushed`,
/// `Retransmit`, `Reconnect`). User-supplied recorders see them: the
/// runner tees the raw stream to them.
///
/// The worker stepping the peer wraps each step in
/// [`step`](Self::step), so the step's events are staged on its thread
/// with no lock and no clock reading per event, and then stamped once
/// and encoded under one lock. Events recorded outside a step (another
/// thread, or teardown) take the lock and the clock each.
///
/// [`FrameSent`]: TraceEvent::FrameSent
/// [`FrameReceived`]: TraceEvent::FrameReceived
pub struct SidecarRecorder {
    id: u64,
    epoch: Instant,
    pending: Mutex<Pending>,
    /// Events in `pending`, readable without the lock.
    len: AtomicUsize,
}

impl Default for SidecarRecorder {
    fn default() -> Self {
        SidecarRecorder {
            id: NEXT_SIDECAR.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            pending: Mutex::default(),
            len: AtomicUsize::new(0),
        }
    }
}

impl SidecarRecorder {
    /// A recorder whose wall stamps count from now.
    pub fn new() -> Self {
        SidecarRecorder::default()
    }

    /// Events recorded since the last delta was taken.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no event was recorded since the last delta was taken.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every event recorded so far as one delta body from
    /// `source`, carrying `stats` (see [`decode_delta`]).
    pub fn take_delta(&self, source: u32, stats: &NetStats) -> Vec<u8> {
        let mut pending = self.lock();
        let mut body = Vec::with_capacity(64 + pending.bytes.len());
        write_header(&mut body, source, stats, pending.count);
        body.extend_from_slice(&pending.bytes);
        pending.bytes.clear();
        pending.count = 0;
        pending.chain = Chain::default();
        self.len.store(0, Ordering::Relaxed);
        body
    }

    /// Runs `f` as one step of the calling thread: what `f` records here
    /// on this thread is staged without a lock or a clock reading, then
    /// stamped with one wall-clock reading and encoded when `f` returns
    /// (or unwinds). A step nested in another sidecar's step stages
    /// nothing.
    pub fn step<R>(&self, f: impl FnOnce() -> R) -> R {
        let entered = STAGED.with_borrow_mut(|s| {
            let free = s.sidecar == 0;
            if free {
                s.sidecar = self.id;
            }
            free
        });
        if !entered {
            return f();
        }
        /// Encodes the staged events when the step ends, unwinding too.
        struct Commit<'a>(&'a SidecarRecorder);
        impl Drop for Commit<'_> {
            fn drop(&mut self) {
                STAGED.with_borrow_mut(|s| {
                    s.sidecar = 0;
                    if s.events.is_empty() {
                        return;
                    }
                    let wall_nanos = Some(self.0.wall_nanos());
                    let mut pending = self.0.lock();
                    for (monitor, time, event) in s.events.drain(..) {
                        pending.push(monitor, time, wall_nanos, &event);
                    }
                    self.0.len.store(pending.count as usize, Ordering::Relaxed);
                });
            }
        }
        let _commit = Commit(self);
        f()
    }

    fn lock(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wall_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Recorder for SidecarRecorder {
    fn record(&self, monitor: u32, time: LogicalTime, event: TraceEvent) {
        if matches!(
            event,
            TraceEvent::FrameSent { .. } | TraceEvent::FrameReceived { .. }
        ) {
            return;
        }
        let unstaged = STAGED.with_borrow_mut(|s| {
            if s.sidecar != self.id {
                return Some(event);
            }
            s.events.push((monitor, time, event));
            None
        });
        if let Some(event) = unstaged {
            let wall_nanos = Some(self.wall_nanos());
            let mut pending = self.lock();
            pending.push(monitor, time, wall_nanos, &event);
            self.len.store(pending.count as usize, Ordering::Relaxed);
        }
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
    /// path never pays for decoding mid-detection.
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

impl TelemetrySink for TelemetryCollector {
    fn ingest(&self, delta: &[u8]) {
        TelemetryCollector::ingest(self, delta);
    }
}

impl TelemetryCollector {
    /// A fresh shared collector.
    pub fn shared() -> Arc<Self> {
        Arc::new(TelemetryCollector::default())
    }

    /// Queues one encoded delta body, off the wire or from the collector
    /// peer's own sidecar. The body is only copied here — decoding is
    /// deferred to the first read ([`source_stats`](Self::source_stats),
    /// [`merged`](Self::merged), …), keeping decoding off the collector
    /// peer's accept path. Malformed bodies surface in
    /// [`malformed`](Self::malformed) once settled; telemetry must never
    /// take a detection run down.
    pub fn ingest(&self, body: &[u8]) {
        self.inner.lock().unwrap().pending.push(body.to_vec());
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
        let mut other_version = encode_delta(0, &NetStats::default(), &[ev(0, 0, 1)]);
        other_version[0] = 9;
        assert_eq!(
            decode_delta(&other_version),
            Err(CodecError::OutOfRange("telemetry version"))
        );
        let mut huge_count = Vec::new();
        let mut w = BitWriter::new(&mut huge_count);
        w.write_varint(TELEMETRY_VERSION);
        for _ in 0..27 {
            w.write_varint(0);
        }
        w.write_varint(u64::MAX);
        w.finish();
        assert_eq!(
            decode_delta(&huge_count),
            Err(CodecError::OutOfRange("count"))
        );
        collector.ingest(b"not a delta");
        collector.ingest(&other_version);
        collector.ingest(&huge_count);
        assert_eq!(collector.malformed(), 3);
        assert_eq!(collector.events_collected(), 0);
    }

    #[test]
    fn collector_merges_sources_into_one_timeline() {
        let collector = TelemetryCollector::shared();
        let stats = NetStats::default();
        collector.ingest(&encode_delta(1, &stats, &[ev(0, 1, 2)]));
        collector.ingest(&encode_delta(0, &stats, &[ev(0, 0, 1), ev(1, 0, 3)]));
        // A second delta from source 1 appends to its stream.
        collector.ingest(&encode_delta(1, &stats, &[ev(1, 1, 5)]));
        let merged = collector.merged();
        let times: Vec<u64> = merged.iter().map(|e| e.time.value()).collect();
        assert_eq!(times, vec![1, 2, 3, 5], "causally ordered across sources");
        assert_eq!(collector.events_collected(), 4);
        let per_source = collector.source_stats();
        assert_eq!(per_source.len(), 2);
        assert_eq!(per_source[1].3, 2, "two deltas from source 1");
    }

    #[test]
    fn the_sidecar_drops_per_frame_events_only() {
        let sidecar = SidecarRecorder::new();
        sidecar.record(
            0,
            LogicalTime::Unknown,
            TraceEvent::FrameSent { to: 1, bytes: 52 },
        );
        sidecar.record(
            0,
            LogicalTime::Unknown,
            TraceEvent::FrameReceived { from: 1, bytes: 52 },
        );
        sidecar.record(
            0,
            LogicalTime::Unknown,
            TraceEvent::BatchFlushed {
                to: 1,
                frames: 9,
                bytes: 477,
            },
        );
        sidecar.record(0, LogicalTime::Tick(3), TraceEvent::Work { units: 1 });
        let delta = decode_delta(&sidecar.take_delta(2, &NetStats::default())).unwrap();
        let kept: Vec<&'static str> = delta.events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kept, vec!["BatchFlushed", "Work"]);
        assert_eq!(delta.source, 2);
    }

    #[test]
    fn a_step_stamps_its_events_once_and_numbers_them_across_deltas() {
        let sidecar = SidecarRecorder::new();
        sidecar.record(0, LogicalTime::Unknown, TraceEvent::Work { units: 0 });
        let out = sidecar.step(|| {
            for i in 1..4u64 {
                sidecar.record(1, LogicalTime::Tick(i), TraceEvent::Work { units: i });
            }
            assert_eq!(sidecar.len(), 1, "staged, not yet encoded");
            7
        });
        assert_eq!((out, sidecar.len()), (7, 4));
        let stats = NetStats::default();
        let first = decode_delta(&sidecar.take_delta(0, &stats)).unwrap().events;
        assert!(sidecar.is_empty());
        let seqs: Vec<u64> = first.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(first[1..]
            .iter()
            .all(|e| e.wall_nanos == first[1].wall_nanos));
        assert!(first[1].wall_nanos >= first[0].wall_nanos);
        sidecar.record(0, LogicalTime::Unknown, TraceEvent::DetectionExhausted);
        let second = decode_delta(&sidecar.take_delta(0, &stats)).unwrap().events;
        assert_eq!(second[0].seq, 4, "numbering runs across deltas");
    }

    #[test]
    fn a_step_stages_only_its_own_sidecar_on_its_own_thread() {
        let a = Arc::new(SidecarRecorder::new());
        let b = SidecarRecorder::new();
        a.step(|| {
            b.record(0, LogicalTime::Unknown, TraceEvent::DetectionExhausted);
            let other = Arc::clone(&a);
            std::thread::spawn(move || {
                other.record(2, LogicalTime::Unknown, TraceEvent::DetectionExhausted)
            })
            .join()
            .unwrap();
            // A nested step of another sidecar stages nothing; `a` stays
            // staged.
            b.step(|| a.record(1, LogicalTime::Tick(1), TraceEvent::Work { units: 1 }));
            assert_eq!((a.len(), b.len()), (1, 1), "other sidecar and thread lock");
        });
        let delta = decode_delta(&a.take_delta(0, &NetStats::default())).unwrap();
        let monitors: Vec<u32> = delta.events.iter().map(|e| e.monitor).collect();
        assert_eq!(monitors, vec![2, 1]);
    }

    #[test]
    fn a_panicking_step_still_encodes_what_it_staged() {
        let sidecar = SidecarRecorder::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sidecar.step(|| {
                sidecar.record(0, LogicalTime::Unknown, TraceEvent::DetectionExhausted);
                panic!("step failed");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(sidecar.len(), 1);
        sidecar.record(0, LogicalTime::Unknown, TraceEvent::DetectionExhausted);
        assert_eq!(sidecar.len(), 2, "the thread left the step");
    }

    #[test]
    fn dashboard_renders_sources_and_progress() {
        let collector = TelemetryCollector::shared();
        let empty = collector.dashboard("warming up");
        assert!(empty.contains("no telemetry yet"), "{empty}");
        collector.ingest(&encode_delta(
            0,
            &NetStats {
                frames_sent: 12,
                ..NetStats::default()
            },
            &[StampedEvent {
                seq: 0,
                monitor: 0,
                time: LogicalTime::Tick(8),
                wall_nanos: None,
                event: TraceEvent::DetectionFound { cut: vec![2, 1] },
            }],
        ));
        let text = collector.dashboard("run");
        assert!(text.contains("wcp top — run"), "{text}");
        assert!(text.contains("S0"), "{text}");
        assert!(text.contains("DETECTED at ⟨2,1⟩"), "{text}");
    }
}
