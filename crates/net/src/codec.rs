//! The wire codec of the online detection protocol: one bit-packed
//! encoding for every frame kind, header included.
//!
//! Every frame is laid out as
//!
//! ```text
//! ┌────────────┬──────┬─────────────┬──────────────────────┬────────────┬──────┐
//! │ varint len │ kind │ varint peer │ varint from, to      │ varint seq │ body │
//! └────────────┴──────┴─────────────┴──────────────────────┴────────────┴──────┘
//!                                    └──── sequenced kinds only ──────┘
//! ```
//!
//! `len` counts every byte after the length varint itself (so a reader
//! fetches the varint, then `len` more), and `kind` is one byte (see
//! [`kind`]). `peer` is the sending peer (the resequencing domain of
//! `seq`). The *sequenced* kinds — every [`DetectMsg`] kind, the verdict
//! and the shutdown — go on to name the actors the detection layer
//! addresses (`from`, `to`) and the per-link sequence number the receiver
//! deduplicates and resequences by. An ack or a telemetry frame carries
//! neither: it never reaches an actor and stays outside the sequence
//! space. Every varint is a [`wire2`](crate::wire2) varint (7-bit groups,
//! continuation bit first), so the header of a small run costs five
//! bytes plus its `seq`.
//!
//! The body is one MSB-first bit stream ([`BitWriter`]) zero-padded to a
//! byte, written by one `ser` and read by one `de` per kind; a `de` that
//! finds the body too short, too long, or naming a count the bits left
//! cannot hold returns a typed [`CodecError`] before it allocates:
//!
//! | kind | body |
//! |---|---|
//! | `APP_VECTOR` | varint msg id, chained clock |
//! | `APP_SCALAR` | varint msg id, varint clock |
//! | `VC_SNAPSHOT` | varint interval, chained clock |
//! | `DD_SNAPSHOT` | varint clock, varint count, count × (varint process, varint clock) |
//! | `END_OF_TRACE`, `DD_TOKEN`, `SHUTDOWN` | empty |
//! | `VC_TOKEN` | token: varint n, n × varint `G`, n colour bits (1 = green) |
//! | `POLL` | varint clock, varint `next_red + 1` (0 = none) |
//! | `POLL_REPLY` | one bit |
//! | `GROUP_TOKEN` | varint group, token, n presence bits, n varints per present candidate |
//! | `MULTI_REGISTER` | varint id, varint count, count × varint process |
//! | `MULTI_UNREGISTER` | varint id |
//! | `MULTI_VERDICT`, `VERDICT` | (`MULTI_VERDICT`: varint id), presence bit, varint count, count × varint |
//! | `ACK` | varint `next_expected` cursor |
//! | `TELEMETRY` | the opaque delta (`telemetry.rs`), the rest of the frame |
//!
//! A *chained clock* is delta-encoded against the last clock of the same
//! originating actor and stream class on the link ([`ClockChains`]), so
//! a sender encodes and a receiver decodes in sequence order.
//!
//! Bytes on the wire are not the paper's unit. [`WireSize::wire_size`]
//! stays the Section 3.4/4.4 accounting (8 bytes per clock component or
//! integer) that `DetectionMetrics` and the bound audits count;
//! [`v1_frame_len`] adds the fixed 33-byte header the retired
//! fixed-width encoding spent, which `NetStats::wire_bytes_v1_equiv`
//! sums so the compression ratio compares across versions.

use wcp_clocks::{Dependence, ProcessId, VectorClock};
use wcp_detect::offline::token::{Color, Token};
use wcp_detect::online::{ClockTag, DetectMsg, GroupTokenMsg};
use wcp_detect::{DdSnapshot, VcSnapshot};
use wcp_sim::{ActorId, WireSize};
use wcp_trace::MsgId;

use crate::wire2::{BitReader, BitWriter, ChainFrame, ClockChains, CLASS_APP, CLASS_SNAPSHOT};

/// The longest `len` (everything after the length varint) a reader
/// accepts: a longer one, a zero one, or a length varint longer than
/// this bound needs ends the connection before any buffer grows for it.
///
/// Every frame a run sends stays far below it. A detection body holds at
/// most a few clocks of at most 10 bytes per process (a varint of a
/// `u64`): an application message or a snapshot about `10n` bytes for
/// `n` processes, a token `11n`, a group token at most `12n + 10n²`, and
/// a session registration `5n`; so a frame reaches the cap only past a
/// thousand-process group token carrying every candidate, or 1.5 million
/// processes for every other kind. A verdict is one cut, an ack one
/// varint, a shutdown empty. A telemetry delta carries one counter
/// snapshot plus the events a peer recorded since it last shipped one,
/// bit-packed to a few bytes each; the peer ships after every step that
/// leaves 256 or more and on every idle poll, and one step records events
/// in proportion to the one message it handles, so a delta holds
/// kilobytes.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Bytes of the longest length varint: four 7-bit groups hold every
/// length up to [`MAX_FRAME_LEN`].
const MAX_PREFIX_LEN: usize = 4;

/// Length prefix plus fixed header of every frame under the retired
/// fixed-width encoding (a `u32` length, the kind, `u32` peer, from and
/// to, `u64` seq and a `u64` auxiliary word), charged per frame by
/// [`v1_frame_len`].
pub const V1_HEADER_LEN: usize = 33;

/// Frame kinds. `DetectMsg` payloads are < 0x80; control frames ≥ 0xF0.
pub mod kind {
    /// Application message tagged with a vector clock.
    pub const APP_VECTOR: u8 = 1;
    /// Application message tagged with a scalar clock.
    pub const APP_SCALAR: u8 = 2;
    /// Figure 2 local snapshot (scope-projected vector clock).
    pub const VC_SNAPSHOT: u8 = 3;
    /// Section 4.1 local snapshot (scalar clock + direct dependences).
    pub const DD_SNAPSHOT: u8 = 4;
    /// End-of-trace marker.
    pub const END_OF_TRACE: u8 = 5;
    /// The Figure 3 token.
    pub const VC_TOKEN: u8 = 6;
    /// The Section 4 red-chain token.
    pub const DD_TOKEN: u8 = 7;
    /// A Figure 5 `visit` poll.
    pub const POLL: u8 = 8;
    /// Answer to a poll.
    pub const POLL_REPLY: u8 = 9;
    /// A §3.5 multi-token group token.
    pub const GROUP_TOKEN: u8 = 10;
    /// Registers a predicate with the multi-tenant session service
    /// (DESIGN.md S25).
    pub const MULTI_REGISTER: u8 = 11;
    /// Unregisters a predicate from the session service.
    pub const MULTI_UNREGISTER: u8 = 12;
    /// Per-predicate verdict from the session service.
    pub const MULTI_VERDICT: u8 = 13;
    /// Verdict broadcast by the deciding peer.
    pub const VERDICT: u8 = 0xF0;
    /// Orderly teardown marker.
    pub const SHUTDOWN: u8 = 0xF1;
    /// Cumulative acknowledgement of in-order delivery (the body is the
    /// receiver's `next_expected` cursor). Endpoint-internal: consumed at
    /// ingest, never logged or resequenced.
    pub const ACK: u8 = 0xF2;
    /// Sidecar telemetry: ring-recorder deltas and counter snapshots,
    /// carried outside the reliability window (no `seq`) over the
    /// un-faulted recovery path so fault schedules stay bit-identical
    /// with telemetry on or off. Endpoint-internal like [`ACK`]: consumed
    /// at ingest, never logged, acked, or resequenced, and never counted
    /// in the paper-unit accounting.
    pub const TELEMETRY: u8 = 0xF3;
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the layout said it would.
    Truncated,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A length inconsistent with the layout: a frame length out of
    /// range or disagreeing with the buffer, an overlong varint, bytes
    /// past a body's last field, or a delta against a chain of another
    /// width.
    BadLength(usize),
    /// A decoded value outside the range of the field it names (a count
    /// the bits left cannot hold, a 32-bit id, a telemetry tag).
    OutOfRange(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            CodecError::BadLength(n) => write!(f, "length {n} inconsistent with the layout"),
            CodecError::OutOfRange(field) => write!(f, "{field} out of range"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Frame payload: a protocol message or a control-plane marker.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An online detection protocol message.
    Detect(DetectMsg),
    /// The run's verdict, broadcast by the deciding peer so standalone
    /// peers learn the outcome: `Some(g)` is the detected candidate cut
    /// (algorithm-indexed, as in `OnlineDetection::Detected`), `None` is
    /// undetected.
    Verdict(Option<Vec<u64>>),
    /// Orderly teardown: the receiving peer drains and exits.
    Shutdown,
}

/// One sequenced wire frame: routing header plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sending peer index (the `seq` resequencing domain).
    pub peer: u32,
    /// Originating actor.
    pub from: ActorId,
    /// Destination actor.
    pub to: ActorId,
    /// Per-link sequence number, assigned by the sending endpoint.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
}

/// The header of one frame, decoded without touching the body:
/// receivers route and resequence on it alone and decode the body at
/// in-sequence promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Frame kind byte (see [`kind`]).
    pub kind: u8,
    /// Sending peer index (the `seq` resequencing domain).
    pub peer: u32,
    /// Originating actor (actor 0 for an ack or a telemetry frame).
    pub from: ActorId,
    /// Destination actor (actor 0 for an ack or a telemetry frame).
    pub to: ActorId,
    /// Per-link sequence number (0 for an ack or a telemetry frame).
    pub seq: u64,
}

/// Whether frames of `kind` carry actor ids and a `seq`: every kind but
/// the endpoint-internal ack and telemetry.
fn sequenced(kind: u8) -> bool {
    !matches!(kind, kind::ACK | kind::TELEMETRY)
}

/// The kind byte of a payload.
fn kind_of(payload: &Payload) -> u8 {
    match payload {
        Payload::Detect(msg) => match msg {
            DetectMsg::App {
                tag: ClockTag::Vector(_),
                ..
            } => kind::APP_VECTOR,
            DetectMsg::App {
                tag: ClockTag::Scalar(_),
                ..
            } => kind::APP_SCALAR,
            DetectMsg::VcSnapshot(_) => kind::VC_SNAPSHOT,
            DetectMsg::DdSnapshot(_) => kind::DD_SNAPSHOT,
            DetectMsg::EndOfTrace => kind::END_OF_TRACE,
            DetectMsg::VcToken(_) => kind::VC_TOKEN,
            DetectMsg::DdToken => kind::DD_TOKEN,
            DetectMsg::Poll { .. } => kind::POLL,
            DetectMsg::PollReply { .. } => kind::POLL_REPLY,
            DetectMsg::GroupToken(_) => kind::GROUP_TOKEN,
            DetectMsg::MultiRegister { .. } => kind::MULTI_REGISTER,
            DetectMsg::MultiUnregister { .. } => kind::MULTI_UNREGISTER,
            DetectMsg::MultiVerdict { .. } => kind::MULTI_VERDICT,
        },
        Payload::Verdict(_) => kind::VERDICT,
        Payload::Shutdown => kind::SHUTDOWN,
    }
}

/// Appends one frame to `out`: a length varint, then the bit stream
/// `write` produces (kind and header first), zero-padded to a byte. The
/// length is reserved as one byte and widened in place when the frame
/// turns out 128 bytes or longer.
fn frame_into<R>(out: &mut Vec<u8>, write: impl FnOnce(&mut BitWriter<'_>) -> R) -> R {
    let start = out.len();
    out.push(0);
    let mut w = BitWriter::new(out);
    let written = write(&mut w);
    w.finish();
    let len = out.len() - start - 1;
    debug_assert!(len <= MAX_FRAME_LEN, "a {len}-byte frame exceeds the cap");
    if len < 0x80 {
        out[start] = len as u8;
    } else {
        let mut prefix = Vec::with_capacity(MAX_PREFIX_LEN);
        BitWriter::new(&mut prefix).write_varint(len as u64);
        out.splice(start..start + 1, prefix);
    }
    written
}

/// Writes the kind byte and the sending peer, the header every frame
/// opens with.
fn ser_kind_peer(w: &mut BitWriter<'_>, kind: u8, peer: u32) {
    w.write_bits(u64::from(kind), 8);
    w.write_varint(u64::from(peer));
}

/// Appends `frame` to `out`, encoding its clock (if it carries a chained
/// one) against `chains` and advancing them. Returns how that clock
/// shipped, or `None` for a payload without one.
pub fn encode_frame_into(
    frame: &Frame,
    chains: &mut ClockChains,
    out: &mut Vec<u8>,
) -> Option<ChainFrame> {
    frame_into(out, |w| {
        ser_kind_peer(w, kind_of(&frame.payload), frame.peer);
        w.write_varint(frame.from.index() as u64);
        w.write_varint(frame.to.index() as u64);
        w.write_varint(frame.seq);
        match &frame.payload {
            Payload::Detect(msg) => ser_detect(msg, frame.from.index() as u32, chains, w),
            Payload::Verdict(cut) => {
                ser_cut(cut.as_deref(), w);
                None
            }
            Payload::Shutdown => None,
        }
    })
}

/// Encodes one frame on fresh chains, so a chained clock ships as a
/// keyframe and the bytes decode on their own (tests, tooling).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut ClockChains::new(), &mut out);
    out
}

/// Appends a cumulative-acknowledgement frame from peer `me` to `out`:
/// `next_expected` is `me`'s in-order delivery cursor on the link it
/// acknowledges.
pub fn encode_ack_into(me: u32, next_expected: u64, out: &mut Vec<u8>) {
    frame_into(out, |w| {
        ser_kind_peer(w, kind::ACK, me);
        w.write_varint(next_expected);
    });
}

/// Appends a sidecar telemetry frame to `out`: `body` is an opaque delta
/// (`telemetry.rs`) that fills the rest of the frame.
pub fn encode_telemetry_into(me: u32, body: &[u8], out: &mut Vec<u8>) {
    frame_into(out, |w| {
        ser_kind_peer(w, kind::TELEMETRY, me);
        w.write_bytes(body);
    });
}

/// The length varint at byte `at` of `buf`: `(varint bytes, len)`, or
/// `None` while the varint is incomplete.
fn length_prefix(buf: &[u8], at: usize) -> Result<Option<(usize, usize)>, CodecError> {
    let mut len = 0;
    let bytes = buf.get(at..).unwrap_or_default();
    for (i, &byte) in bytes.iter().take(MAX_PREFIX_LEN).enumerate() {
        len |= usize::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            return if (1..=MAX_FRAME_LEN).contains(&len) {
                Ok(Some((i + 1, len)))
            } else {
                Err(CodecError::BadLength(len))
            };
        }
    }
    if bytes.len() >= MAX_PREFIX_LEN {
        return Err(CodecError::BadLength(len));
    }
    Ok(None)
}

/// Total on-wire length (length varint included) of the frame starting at
/// byte `at` of `buf`, or `None` while its length varint is incomplete.
///
/// # Errors
///
/// [`CodecError::BadLength`] for a zero length, one over
/// [`MAX_FRAME_LEN`], or a length varint longer than that cap needs —
/// each refused as soon as its bytes are in.
pub fn frame_len_at(buf: &[u8], at: usize) -> Result<Option<usize>, CodecError> {
    Ok(length_prefix(buf, at)?.map(|(prefix, len)| prefix + len))
}

/// Decodes the header of a buffer holding exactly one frame, returning it
/// with the frame's body bytes.
///
/// # Errors
///
/// A [`CodecError`] when the length disagrees with the buffer, the kind
/// is unknown, or the header is cut short.
pub fn decode_header(frame: &[u8]) -> Result<(WireHeader, &[u8]), CodecError> {
    let (prefix, len) = length_prefix(frame, 0)?.ok_or(CodecError::Truncated)?;
    if prefix + len != frame.len() {
        return Err(CodecError::BadLength(frame.len()));
    }
    let r = &mut BitReader::new(&frame[prefix..]);
    let kind = r.read_bits(8)? as u8;
    if !matches!(kind, kind::APP_VECTOR..=kind::MULTI_VERDICT | kind::VERDICT..=kind::TELEMETRY) {
        return Err(CodecError::BadKind(kind));
    }
    let peer = r.read_u32()?;
    let (from, to, seq) = if sequenced(kind) {
        (r.read_u32()?, r.read_u32()?, r.read_varint()?)
    } else {
        (0, 0, 0)
    };
    let head = WireHeader {
        kind,
        peer,
        from: ActorId::new(from),
        to: ActorId::new(to),
        seq,
    };
    Ok((head, r.rest()))
}

/// Decodes the body of a sequenced frame, advancing `chains` for a
/// chained clock exactly as the sender's advanced.
///
/// # Errors
///
/// A [`CodecError`] for an ack or telemetry kind, or a malformed body.
pub fn decode_payload(
    head: &WireHeader,
    body: &[u8],
    chains: &mut ClockChains,
) -> Result<Payload, CodecError> {
    let r = &mut BitReader::new(body);
    let payload = match head.kind {
        kind::VERDICT => Payload::Verdict(de_cut(r)?),
        kind::SHUTDOWN => Payload::Shutdown,
        kind => Payload::Detect(de_detect(kind, head.from.index() as u32, chains, r)?),
    };
    r.expect_padding()?;
    Ok(payload)
}

/// Decodes a buffer holding exactly one sequenced frame, advancing
/// `chains` as [`decode_payload`] does.
///
/// # Errors
///
/// As [`decode_header`] and [`decode_payload`].
pub fn decode_frame(buf: &[u8], chains: &mut ClockChains) -> Result<Frame, CodecError> {
    let (head, body) = decode_header(buf)?;
    Ok(Frame {
        peer: head.peer,
        from: head.from,
        to: head.to,
        seq: head.seq,
        payload: decode_payload(&head, body, chains)?,
    })
}

/// Decodes an ack frame's body: the acknowledged `next_expected` cursor.
///
/// # Errors
///
/// A [`CodecError`] for a malformed body.
pub fn decode_ack(body: &[u8]) -> Result<u64, CodecError> {
    let r = &mut BitReader::new(body);
    let cursor = r.read_varint()?;
    r.expect_padding()?;
    Ok(cursor)
}

/// What `payload`'s frame cost under the retired fixed-width encoding:
/// [`V1_HEADER_LEN`] plus a body of `wire_size()` bytes for a detection
/// message, a flag byte (then, when detected, an 8-byte count and 8
/// bytes per entry) for a verdict, and nothing for a shutdown.
pub fn v1_frame_len(payload: &Payload) -> usize {
    V1_HEADER_LEN
        + match payload {
            Payload::Detect(msg) => msg.wire_size(),
            Payload::Verdict(cut) => 1 + cut.as_ref().map_or(0, |g| 8 + 8 * g.len()),
            Payload::Shutdown => 0,
        }
}

/// The `ser` of every [`DetectMsg`] kind (see the module docs for the
/// bodies). Returns how a chained clock shipped.
fn ser_detect(
    msg: &DetectMsg,
    from: u32,
    chains: &mut ClockChains,
    w: &mut BitWriter<'_>,
) -> Option<ChainFrame> {
    match msg {
        DetectMsg::App { msg: id, tag } => {
            w.write_varint(id.as_u64());
            match tag {
                ClockTag::Vector(v) => {
                    return Some(chains.encode_clock(from, CLASS_APP, v.as_slice(), w))
                }
                ClockTag::Scalar(s) => w.write_varint(*s),
            }
        }
        DetectMsg::VcSnapshot(s) => {
            w.write_varint(s.interval);
            return Some(chains.encode_clock(from, CLASS_SNAPSHOT, s.clock.as_slice(), w));
        }
        DetectMsg::DdSnapshot(s) => {
            w.write_varint(s.clock);
            w.write_varint(s.deps.len() as u64);
            for d in &s.deps {
                w.write_varint(d.on.index() as u64);
                w.write_varint(d.clock);
            }
        }
        DetectMsg::EndOfTrace | DetectMsg::DdToken => {}
        DetectMsg::VcToken(t) => ser_token(t, w),
        DetectMsg::Poll { clock, next_red } => {
            w.write_varint(*clock);
            w.write_varint(next_red.map_or(0, |p| p.index() as u64 + 1));
        }
        DetectMsg::PollReply { became_red } => w.write_bit(*became_red),
        DetectMsg::GroupToken(t) => {
            w.write_varint(t.group as u64);
            ser_token(&t.token, w);
            for cand in &t.candidates {
                w.write_bit(cand.is_some());
            }
            for clock in t.candidates.iter().flatten() {
                debug_assert_eq!(clock.len(), t.token.g.len(), "candidates span the scope");
                for &c in clock.as_slice() {
                    w.write_varint(c);
                }
            }
        }
        DetectMsg::MultiRegister { id, scope } => {
            w.write_varint(*id);
            w.write_varint(scope.len() as u64);
            for p in scope {
                w.write_varint(p.index() as u64);
            }
        }
        DetectMsg::MultiUnregister { id } => w.write_varint(*id),
        DetectMsg::MultiVerdict { id, verdict } => {
            w.write_varint(*id);
            ser_cut(verdict.as_deref(), w);
        }
    }
    None
}

/// The `de` of every [`DetectMsg`] kind: reads what [`ser_detect`] wrote
/// for `kind`, decoding a chained clock against the `from` chain.
fn de_detect(
    kind: u8,
    from: u32,
    chains: &mut ClockChains,
    r: &mut BitReader<'_>,
) -> Result<DetectMsg, CodecError> {
    Ok(match kind {
        kind::APP_VECTOR => DetectMsg::App {
            msg: MsgId::new(r.read_varint()?),
            tag: ClockTag::Vector(VectorClock::from_components(
                chains.decode_clock(from, CLASS_APP, r)?,
            )),
        },
        kind::APP_SCALAR => DetectMsg::App {
            msg: MsgId::new(r.read_varint()?),
            tag: ClockTag::Scalar(r.read_varint()?),
        },
        kind::VC_SNAPSHOT => DetectMsg::VcSnapshot(VcSnapshot {
            interval: r.read_varint()?,
            clock: VectorClock::from_components(chains.decode_clock(from, CLASS_SNAPSHOT, r)?),
        }),
        kind::DD_SNAPSHOT => {
            let clock = r.read_varint()?;
            let deps = (0..r.read_count(16)?)
                .map(|_| {
                    let on = ProcessId::new(r.read_u32()?);
                    Ok(Dependence::new(on, r.read_varint()?))
                })
                .collect::<Result<_, CodecError>>()?;
            DetectMsg::DdSnapshot(DdSnapshot { clock, deps })
        }
        kind::END_OF_TRACE => DetectMsg::EndOfTrace,
        kind::VC_TOKEN => DetectMsg::VcToken(de_token(r)?),
        kind::DD_TOKEN => DetectMsg::DdToken,
        kind::POLL => DetectMsg::Poll {
            clock: r.read_varint()?,
            next_red: match r.read_u32()? {
                0 => None,
                p => Some(ProcessId::new(p - 1)),
            },
        },
        kind::POLL_REPLY => DetectMsg::PollReply {
            became_red: r.read_bit()?,
        },
        kind::GROUP_TOKEN => {
            let group =
                usize::try_from(r.read_varint()?).map_err(|_| CodecError::OutOfRange("group"))?;
            let token = de_token(r)?;
            let n = token.g.len();
            let mut present = Vec::with_capacity(n);
            for _ in 0..n {
                present.push(r.read_bit()?);
            }
            // A carried candidate is n varints of at least a byte each.
            let carried = present.iter().filter(|&&p| p).count();
            if carried
                .checked_mul(n)
                .is_none_or(|cells| cells > r.bits_remaining() / 8)
            {
                return Err(CodecError::OutOfRange("count"));
            }
            let mut candidates = vec![None; n];
            for (cand, _) in candidates.iter_mut().zip(present).filter(|(_, p)| *p) {
                let comps = (0..n).map(|_| r.read_varint()).collect::<Result<_, _>>()?;
                *cand = Some(VectorClock::from_components(comps));
            }
            DetectMsg::GroupToken(Box::new(GroupTokenMsg {
                group,
                token,
                candidates,
            }))
        }
        kind::MULTI_REGISTER => DetectMsg::MultiRegister {
            id: r.read_varint()?,
            scope: (0..r.read_count(8)?)
                .map(|_| Ok(ProcessId::new(r.read_u32()?)))
                .collect::<Result<_, CodecError>>()?,
        },
        kind::MULTI_UNREGISTER => DetectMsg::MultiUnregister {
            id: r.read_varint()?,
        },
        kind::MULTI_VERDICT => DetectMsg::MultiVerdict {
            id: r.read_varint()?,
            verdict: de_cut(r)?,
        },
        other => return Err(CodecError::BadKind(other)),
    })
}

/// A token: varint `n`, `n` varint `G` entries, `n` colour bits.
fn ser_token(t: &Token, w: &mut BitWriter<'_>) {
    w.write_varint(t.g.len() as u64);
    for &g in &t.g {
        w.write_varint(g);
    }
    for &c in t.colors() {
        w.write_bit(c == Color::Green);
    }
}

fn de_token(r: &mut BitReader<'_>) -> Result<Token, CodecError> {
    // An entry costs at least a one-byte varint and a colour bit.
    let n = r.read_count(9)?;
    let mut token = Token::new(n);
    for g in token.g.iter_mut() {
        *g = r.read_varint()?;
    }
    for i in 0..n {
        if r.read_bit()? {
            token.set_color(i, Color::Green);
        }
    }
    Ok(token)
}

/// A verdict's cut: a presence bit, then a varint count and the entries.
fn ser_cut(cut: Option<&[u64]>, w: &mut BitWriter<'_>) {
    w.write_bit(cut.is_some());
    if let Some(g) = cut {
        w.write_varint(g.len() as u64);
        for &v in g {
            w.write_varint(v);
        }
    }
}

fn de_cut(r: &mut BitReader<'_>) -> Result<Option<Vec<u64>>, CodecError> {
    if !r.read_bit()? {
        return Ok(None);
    }
    let count = r.read_count(8)?;
    (0..count)
        .map(|_| r.read_varint())
        .collect::<Result<_, _>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: Payload) -> Frame {
        Frame {
            peer: 3,
            from: ActorId::new(7),
            to: ActorId::new(11),
            seq: 42,
            payload,
        }
    }

    fn decode(bytes: &[u8]) -> Result<Frame, CodecError> {
        decode_frame(bytes, &mut ClockChains::new())
    }

    #[test]
    fn control_frames_roundtrip() {
        for payload in [
            Payload::Detect(DetectMsg::EndOfTrace),
            Payload::Detect(DetectMsg::DdToken),
            Payload::Verdict(Some(vec![2, 9, 4])),
            Payload::Verdict(None),
            Payload::Shutdown,
        ] {
            let f = frame(payload);
            assert_eq!(decode(&encode_frame(&f)).unwrap(), f);
        }
    }

    #[test]
    fn a_small_frame_spends_five_header_bytes_plus_its_seq() {
        // len, kind, peer, from, to (one byte each), then seq 42.
        let bytes = encode_frame(&frame(Payload::Detect(DetectMsg::DdToken)));
        assert_eq!(bytes, [5, kind::DD_TOKEN, 3, 7, 11, 42]);
        assert_eq!(frame_len_at(&bytes, 0), Ok(Some(bytes.len())));
        assert_eq!(frame_len_at(&bytes, bytes.len()), Ok(None), "nothing yet");
        let (head, body) = decode_header(&bytes).unwrap();
        assert_eq!(
            (head.kind, head.peer, head.from, head.to, head.seq),
            (kind::DD_TOKEN, 3, ActorId::new(7), ActorId::new(11), 42)
        );
        assert!(body.is_empty());
    }

    #[test]
    fn long_frames_widen_their_length_varint() {
        let f = frame(Payload::Verdict(Some((0..100).map(|i| i << 20).collect())));
        let bytes = encode_frame(&f);
        assert!(bytes.len() > 130);
        assert_eq!(frame_len_at(&bytes, 0), Ok(Some(bytes.len())));
        assert_eq!(
            frame_len_at(&bytes[..1], 0),
            Ok(None),
            "half a length varint"
        );
        assert_eq!(decode(&bytes).unwrap(), f);
    }

    #[test]
    fn frame_lengths_outside_the_cap_are_refused_at_once() {
        let mut over = Vec::new();
        BitWriter::new(&mut over).write_varint(MAX_FRAME_LEN as u64 + 1);
        for refused in [&[0u8][..], &over, &[0xFF, 0xFF, 0xFF, 0xFF]] {
            assert!(frame_len_at(refused, 0).is_err(), "{refused:?}");
        }
        let mut at_cap = Vec::new();
        BitWriter::new(&mut at_cap).write_varint(MAX_FRAME_LEN as u64);
        assert_eq!(frame_len_at(&at_cap, 0), Ok(Some(4 + MAX_FRAME_LEN)));
    }

    #[test]
    fn in_place_encoding_matches_allocating_encoding() {
        let frames = [
            frame(Payload::Detect(DetectMsg::VcToken(Token::new(3)))),
            frame(Payload::Verdict(Some(vec![1, 2]))),
            frame(Payload::Shutdown),
        ];
        let mut batch = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut ClockChains::new(), &mut batch);
        }
        let mut at = 0;
        for f in &frames {
            let len = frame_len_at(&batch, at).unwrap().unwrap();
            assert_eq!(&batch[at..at + len], encode_frame(f).as_slice());
            at += len;
        }
        assert_eq!(at, batch.len());
    }

    #[test]
    fn ack_frames_carry_the_cursor_in_their_body() {
        let mut bytes = Vec::new();
        encode_ack_into(2, 640, &mut bytes);
        assert_eq!(bytes.len(), 5, "len, kind, peer, a two-byte cursor");
        let (head, body) = decode_header(&bytes).unwrap();
        assert_eq!((head.kind, head.peer, head.seq), (kind::ACK, 2, 0));
        assert_eq!(decode_ack(body), Ok(640));
        assert_eq!(
            decode(&bytes),
            Err(CodecError::BadKind(kind::ACK)),
            "acks are endpoint-internal, not a protocol payload"
        );
    }

    #[test]
    fn telemetry_frames_carry_an_opaque_body_outside_the_payload_codec() {
        let body = br#"{"seq":0,"monitor":1,"event":"DetectionExhausted"}"#;
        let mut bytes = Vec::new();
        encode_telemetry_into(4, body, &mut bytes);
        assert_eq!(frame_len_at(&bytes, 0), Ok(Some(bytes.len())));
        let (head, got) = decode_header(&bytes).unwrap();
        assert_eq!((head.kind, head.peer), (kind::TELEMETRY, 4));
        assert_eq!(got, body.as_slice(), "the body is the rest of the frame");
        assert!(
            decode(&bytes).is_err(),
            "telemetry is endpoint-internal, not a protocol payload"
        );
    }

    #[test]
    fn chained_clocks_ship_as_deltas_after_a_keyframe() {
        let snapshots = [vec![1, 2, 3], vec![1, 3, 3], vec![u64::MAX, 3, 4]];
        let mut enc = ClockChains::new();
        let mut dec = ClockChains::new();
        for (i, clock) in snapshots.iter().enumerate() {
            let f = frame(Payload::Detect(DetectMsg::VcSnapshot(VcSnapshot {
                interval: i as u64,
                clock: VectorClock::from_components(clock.clone()),
            })));
            let mut bytes = Vec::new();
            let shipped = encode_frame_into(&f, &mut enc, &mut bytes);
            let want = if i == 0 {
                ChainFrame::Keyframe
            } else {
                ChainFrame::Delta
            };
            assert_eq!(shipped, Some(want));
            assert_eq!(decode_frame(&bytes, &mut dec).unwrap(), f);
            if i > 0 {
                assert!(decode(&bytes).is_err(), "a delta needs the chain");
            }
        }
    }

    #[test]
    fn group_tokens_of_any_width_roundtrip() {
        // The presence bitmap is n bits of the body, so no width is
        // refused: past 64 processes as below.
        for n in [1, 64, 65, 200] {
            let mut t = GroupTokenMsg::new(1, n);
            t.token.g = (0..n as u64).collect();
            t.token.set_color(n - 1, Color::Green);
            t.candidates[n - 1] = Some(VectorClock::from_components(vec![7; n]));
            let f = frame(Payload::Detect(DetectMsg::GroupToken(Box::new(t))));
            assert_eq!(decode(&encode_frame(&f)).unwrap(), f, "n = {n}");
        }
    }

    #[test]
    fn a_verdict_count_the_body_cannot_hold_is_refused_before_allocating() {
        // An encoded `Verdict(Some(vec![1, 2]))` with its count raised: a
        // count sized allocation would abort the process (2^32 entries)
        // or overflow the capacity (2^62).
        for count in [1u64 << 32, 1 << 62, u64::MAX, 3] {
            let mut bytes = Vec::new();
            frame_into(&mut bytes, |w| {
                ser_kind_peer(w, kind::VERDICT, 0);
                for header in [0, 0, 5] {
                    w.write_varint(header);
                }
                w.write_bit(true);
                w.write_varint(count);
                w.write_varint(1);
                w.write_varint(2);
            });
            assert_eq!(
                decode(&bytes),
                Err(CodecError::OutOfRange("count")),
                "count {count}"
            );
        }
    }

    #[test]
    fn truncated_padded_and_bogus_frames_are_rejected() {
        let f = frame(Payload::Detect(DetectMsg::PollReply { became_red: true }));
        let bytes = encode_frame(&f);
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(CodecError::BadLength(6))
        );
        let mut bad_kind = bytes.clone();
        bad_kind[1] = 0x7F;
        assert_eq!(decode(&bad_kind), Err(CodecError::BadKind(0x7F)));
        let mut dirty = bytes.clone();
        *dirty.last_mut().unwrap() |= 1; // a set padding bit
        assert_eq!(decode(&dirty), Err(CodecError::BadLength(1)));
        let mut long = bytes;
        long.push(0);
        long[0] += 1; // a trailing byte inside the frame
        assert_eq!(decode(&long), Err(CodecError::BadLength(2)));
    }
}
