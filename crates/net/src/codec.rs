//! Length-prefixed binary wire codec for the online detection protocol.
//!
//! Every frame is laid out as
//!
//! ```text
//! ┌─────────┬──────┬──────────┬──────────┬────────┬─────────┬─────────┬──────┐
//! │ len u32 │ kind │ peer u32 │ from u32 │ to u32 │ seq u64 │ aux u64 │ body │
//! └─────────┴──────┴──────────┴──────────┴────────┴─────────┴─────────┴──────┘
//! ```
//!
//! with all integers little-endian. `len` counts every byte after the
//! length field itself (so a reader fetches 4 bytes, then `len` more).
//! `peer` is the sending peer (the resequencing domain of `seq`), `from`
//! and `to` are the actor ids the detection layer addresses, and `seq` is
//! the per-link sequence number the receiver uses to deduplicate and
//! resequence.
//!
//! The `body` of a [`DetectMsg`] frame is **exactly
//! [`WireSize::wire_size`] bytes** — the paper-unit accounting of
//! Sections 3.4/4.4 — which is what turns `DetectionMetrics` bit counts
//! into real bytes-on-the-wire (property-tested in
//! `tests/codec_roundtrip.rs`). Two encodings need one redundant
//! out-of-band value to round-trip, carried in the fixed `aux` header
//! field (and therefore *outside* the accounted body):
//!
//! - `VcSnapshot` — the paper transmits only the clock (the interval index
//!   equals the snapshot's own component); `aux` carries the interval.
//! - `GroupToken` — `aux` is the presence bitmap of the carried candidate
//!   clocks, which caps group tokens at 64 scope processes on the wire.

use std::io::{self, Read};

use wcp_clocks::{Dependence, ProcessId, VectorClock};
use wcp_detect::offline::token::{Color, Token};
use wcp_detect::online::{ClockTag, DetectMsg, GroupTokenMsg};
use wcp_detect::{DdSnapshot, VcSnapshot};
use wcp_sim::{ActorId, WireSize};
use wcp_trace::MsgId;

use crate::wire2::{BitReader, BitWriter, ChainFrame, ClockChains, CLASS_APP, CLASS_SNAPSHOT};

/// Header bytes after the length field (kind + peer + from + to + seq + aux).
pub const HEADER_LEN: usize = 1 + 4 + 4 + 4 + 8 + 8;

/// The longest `len` (header plus body) a socket reader accepts: a
/// longer one, or one shorter than [`HEADER_LEN`], ends the connection
/// before any buffer grows for it.
///
/// Every frame a run sends stays far below it. A detection body holds at
/// most a few clocks of 8 bytes per process: an application message or a
/// snapshot `8 + 8n` bytes for `n` processes, a token `9n`, a group token
/// at most `8 + 9n + 8n²` with `n ≤` [`MAX_GROUP_WIDTH`] (under 33 KiB),
/// and a session registration `8 + 4n`; so a frame reaches the cap only
/// past 1.8 million processes. Verdicts are one clock, acks and shutdowns
/// header-only. A telemetry delta carries one counter snapshot plus the
/// events a peer recorded since it last shipped one, bit-packed to a few
/// bytes each; the peer ships after every step that leaves 256 or more
/// and on every idle poll, and one step records events in proportion to
/// the one message it handles, so a delta holds kilobytes.
pub const MAX_FRAME_LEN: usize = 16 << 20;

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
    /// Bit offset between a v1 clock-carrying kind and its v2 variant:
    /// every v2 kind is `v1 | V2_BIT`, so frames stay self-describing and
    /// receivers decode both kinds without per-link version state.
    pub const V2_BIT: u8 = 0x20;
    /// [`APP_VECTOR`] with a delta-chained, bit-packed clock (wire v2).
    pub const APP_VECTOR_V2: u8 = APP_VECTOR | V2_BIT;
    /// [`VC_SNAPSHOT`] with a delta-chained, bit-packed clock (wire v2).
    pub const VC_SNAPSHOT_V2: u8 = VC_SNAPSHOT | V2_BIT;
    /// [`VC_TOKEN`] with varint components and 1-bit colours (wire v2,
    /// stateless).
    pub const VC_TOKEN_V2: u8 = VC_TOKEN | V2_BIT;
    /// [`GROUP_TOKEN`] with varint components and 1-bit colours (wire v2,
    /// stateless).
    pub const GROUP_TOKEN_V2: u8 = GROUP_TOKEN | V2_BIT;
    /// Verdict broadcast by the deciding peer.
    pub const VERDICT: u8 = 0xF0;
    /// Orderly teardown marker.
    pub const SHUTDOWN: u8 = 0xF1;
    /// Cumulative acknowledgement of in-order delivery (`aux` carries the
    /// receiver's `next_expected` cursor). Endpoint-internal: consumed
    /// before payload decode, never logged or resequenced.
    pub const ACK: u8 = 0xF2;
    /// Sidecar telemetry: ring-recorder deltas and counter snapshots,
    /// carried outside the reliability window (`seq = CONTROL_SEQ`, `aux`
    /// is the body length) over the un-faulted recovery path so fault
    /// schedules stay bit-identical with telemetry on or off.
    /// Endpoint-internal like [`ACK`]: consumed before payload decode,
    /// never logged, acked, or resequenced, and never counted in the
    /// paper-unit accounting.
    pub const TELEMETRY: u8 = 0xF3;
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the layout said it would.
    Truncated,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A colour byte outside {0, 1}.
    BadColor(u8),
    /// The body length is inconsistent with the frame kind.
    BadLength(usize),
    /// A group token wider than the 64-process aux bitmap.
    TooWide(usize),
    /// A delta-chained v2 frame reached a stateless decode path; only
    /// the endpoint (which holds the per-link [`ClockChains`]) can
    /// decode it.
    Stateful(u8),
    /// A decoded value outside the range of the field it names (a
    /// telemetry delta's version, tag, count or 32-bit id).
    OutOfRange(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            CodecError::BadColor(c) => write!(f, "invalid colour byte {c}"),
            CodecError::BadLength(n) => write!(f, "body length {n} inconsistent with kind"),
            CodecError::TooWide(n) => {
                write!(
                    f,
                    "group token over {n} processes exceeds the 64-bit aux bitmap"
                )
            }
            CodecError::Stateful(k) => {
                write!(f, "frame kind {k:#04x} needs the link's delta-chain state")
            }
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

/// One wire frame: routing header plus payload.
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.at).ok_or(CodecError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let end = self.at + 4;
        let bytes = self.buf.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let end = self.at + 8;
        let bytes = self.buf.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::BadLength(self.buf.len()))
        }
    }
}

fn color_byte(c: Color) -> u8 {
    match c {
        Color::Red => 0,
        Color::Green => 1,
    }
}

fn byte_color(b: u8) -> Result<Color, CodecError> {
    match b {
        0 => Ok(Color::Red),
        1 => Ok(Color::Green),
        other => Err(CodecError::BadColor(other)),
    }
}

/// Widest scope a group token can span: its candidate bitmap rides the
/// 64-bit `aux` field. Runners refuse a wider multi-token run before any
/// peer starts.
pub const MAX_GROUP_WIDTH: usize = 64;

/// Presence bitmap of a group token's carried candidate clocks (the
/// `aux` value of a `GROUP_TOKEN` frame).
fn group_bitmap(t: &GroupTokenMsg) -> u64 {
    assert!(
        t.token.g.len() <= MAX_GROUP_WIDTH,
        "group token over {} processes exceeds the 64-bit aux bitmap",
        t.token.g.len()
    );
    let mut bitmap = 0u64;
    for (i, cand) in t.candidates.iter().enumerate() {
        if cand.is_some() {
            bitmap |= 1 << i;
        }
    }
    bitmap
}

/// `(kind, aux)` of a [`DetectMsg`], computable without encoding the body.
fn detect_kind_aux(msg: &DetectMsg) -> (u8, u64) {
    match msg {
        DetectMsg::App {
            tag: ClockTag::Vector(_),
            ..
        } => (kind::APP_VECTOR, 0),
        DetectMsg::App {
            tag: ClockTag::Scalar(_),
            ..
        } => (kind::APP_SCALAR, 0),
        DetectMsg::VcSnapshot(s) => (kind::VC_SNAPSHOT, s.interval),
        DetectMsg::DdSnapshot(_) => (kind::DD_SNAPSHOT, 0),
        DetectMsg::EndOfTrace => (kind::END_OF_TRACE, 0),
        DetectMsg::VcToken(_) => (kind::VC_TOKEN, 0),
        DetectMsg::DdToken => (kind::DD_TOKEN, 0),
        DetectMsg::Poll { .. } => (kind::POLL, 0),
        DetectMsg::PollReply { .. } => (kind::POLL_REPLY, 0),
        DetectMsg::GroupToken(t) => (kind::GROUP_TOKEN, group_bitmap(t)),
        DetectMsg::MultiRegister { .. } => (kind::MULTI_REGISTER, 0),
        DetectMsg::MultiUnregister { .. } => (kind::MULTI_UNREGISTER, 0),
        DetectMsg::MultiVerdict { .. } => (kind::MULTI_VERDICT, 0),
    }
}

/// Appends a [`DetectMsg`] body (exactly `msg.wire_size()` bytes) to `out`.
fn detect_body_into(msg: &DetectMsg, out: &mut Vec<u8>) {
    match msg {
        DetectMsg::App { msg: id, tag } => {
            put_u64(out, id.as_u64());
            match tag {
                ClockTag::Vector(v) => {
                    for &c in v.as_slice() {
                        put_u64(out, c);
                    }
                }
                ClockTag::Scalar(s) => put_u64(out, *s),
            }
        }
        DetectMsg::VcSnapshot(s) => {
            for &c in s.clock.as_slice() {
                put_u64(out, c);
            }
        }
        DetectMsg::DdSnapshot(s) => {
            put_u64(out, s.clock);
            for d in &s.deps {
                put_u64(out, d.on.index() as u64);
                put_u64(out, d.clock);
            }
        }
        DetectMsg::EndOfTrace | DetectMsg::DdToken => out.push(0),
        DetectMsg::VcToken(t) => {
            for &g in &t.g {
                put_u64(out, g);
            }
            for &c in t.colors() {
                out.push(color_byte(c));
            }
        }
        DetectMsg::Poll { clock, next_red } => {
            put_u64(out, *clock);
            put_u64(out, next_red.map_or(u64::MAX, |p| p.index() as u64));
        }
        DetectMsg::PollReply { became_red } => out.push(u8::from(*became_red)),
        DetectMsg::GroupToken(t) => {
            put_u64(out, t.group as u64);
            for &g in &t.token.g {
                put_u64(out, g);
            }
            for &c in t.token.colors() {
                out.push(color_byte(c));
            }
            for clock in t.candidates.iter().flatten() {
                for &c in clock.as_slice() {
                    put_u64(out, c);
                }
            }
        }
        DetectMsg::MultiRegister { id, scope } => {
            put_u64(out, *id);
            for &p in scope {
                put_u32(out, p.index() as u32);
            }
        }
        DetectMsg::MultiUnregister { id } => put_u64(out, *id),
        DetectMsg::MultiVerdict { id, verdict } => {
            put_u64(out, *id);
            match verdict {
                Some(g) => {
                    out.push(1);
                    for &v in g {
                        put_u64(out, v);
                    }
                }
                None => out.push(0),
            }
        }
    }
}

/// Encodes a [`DetectMsg`] body, returning `(kind, aux, body)`.
///
/// The body is exactly `msg.wire_size()` bytes; `aux` carries the
/// out-of-band redundancy described in the module docs.
pub fn encode_body(msg: &DetectMsg) -> (u8, u64, Vec<u8>) {
    let (kind_byte, aux) = detect_kind_aux(msg);
    let mut body = Vec::with_capacity(msg.wire_size());
    detect_body_into(msg, &mut body);
    (kind_byte, aux, body)
}

/// Decodes a [`DetectMsg`] body produced by [`encode_body`].
pub fn decode_body(kind_byte: u8, aux: u64, body: &[u8]) -> Result<DetectMsg, CodecError> {
    let mut r = Reader::new(body);
    let msg = match kind_byte {
        kind::APP_VECTOR => {
            let id = MsgId::new(r.u64()?);
            if !r.remaining().is_multiple_of(8) {
                return Err(CodecError::BadLength(body.len()));
            }
            let n = r.remaining() / 8;
            let mut comps = Vec::with_capacity(n);
            for _ in 0..n {
                comps.push(r.u64()?);
            }
            DetectMsg::App {
                msg: id,
                tag: ClockTag::Vector(VectorClock::from_components(comps)),
            }
        }
        kind::APP_SCALAR => DetectMsg::App {
            msg: MsgId::new(r.u64()?),
            tag: ClockTag::Scalar(r.u64()?),
        },
        kind::VC_SNAPSHOT => {
            if !body.len().is_multiple_of(8) {
                return Err(CodecError::BadLength(body.len()));
            }
            let n = body.len() / 8;
            let mut comps = Vec::with_capacity(n);
            for _ in 0..n {
                comps.push(r.u64()?);
            }
            DetectMsg::VcSnapshot(VcSnapshot {
                interval: aux,
                clock: VectorClock::from_components(comps),
            })
        }
        kind::DD_SNAPSHOT => {
            let clock = r.u64()?;
            if !r.remaining().is_multiple_of(16) {
                return Err(CodecError::BadLength(body.len()));
            }
            let deps = (0..r.remaining() / 16)
                .map(|_| {
                    let on = ProcessId::new(r.u64()? as u32);
                    Ok(Dependence::new(on, r.u64()?))
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            DetectMsg::DdSnapshot(DdSnapshot { clock, deps })
        }
        kind::END_OF_TRACE => {
            r.u8()?;
            DetectMsg::EndOfTrace
        }
        kind::VC_TOKEN => {
            if !body.len().is_multiple_of(9) {
                return Err(CodecError::BadLength(body.len()));
            }
            let n = body.len() / 9;
            let mut token = Token::new(n);
            for g in token.g.iter_mut() {
                *g = r.u64()?;
            }
            for i in 0..n {
                let c = byte_color(r.u8()?)?;
                token.set_color(i, c);
            }
            DetectMsg::VcToken(token)
        }
        kind::DD_TOKEN => {
            r.u8()?;
            DetectMsg::DdToken
        }
        kind::POLL => {
            let clock = r.u64()?;
            let raw = r.u64()?;
            DetectMsg::Poll {
                clock,
                next_red: (raw != u64::MAX).then(|| ProcessId::new(raw as u32)),
            }
        }
        kind::POLL_REPLY => DetectMsg::PollReply {
            became_red: r.u8()? != 0,
        },
        kind::GROUP_TOKEN => {
            let group = r.u64()? as usize;
            let k = aux.count_ones() as usize;
            // body = 8 + 9n + 8nk with n scope processes and k carried
            // scope-width candidate clocks.
            let rest = r.remaining();
            if (9 + 8 * k) == 0 || !rest.is_multiple_of(9 + 8 * k) {
                return Err(CodecError::BadLength(body.len()));
            }
            let n = rest / (9 + 8 * k);
            if n > MAX_GROUP_WIDTH || aux.checked_shr(n as u32).is_some_and(|high| high != 0) {
                return Err(CodecError::TooWide(n));
            }
            let mut t = GroupTokenMsg::new(group, n);
            for g in t.token.g.iter_mut() {
                *g = r.u64()?;
            }
            for i in 0..n {
                t.token.set_color(i, byte_color(r.u8()?)?);
            }
            for i in 0..n {
                if aux & (1 << i) != 0 {
                    let mut comps = Vec::with_capacity(n);
                    for _ in 0..n {
                        comps.push(r.u64()?);
                    }
                    t.candidates[i] = Some(VectorClock::from_components(comps));
                }
            }
            DetectMsg::GroupToken(Box::new(t))
        }
        kind::MULTI_REGISTER => {
            let id = r.u64()?;
            if !r.remaining().is_multiple_of(4) {
                return Err(CodecError::BadLength(body.len()));
            }
            let scope = (0..r.remaining() / 4)
                .map(|_| Ok(ProcessId::new(r.u32()?)))
                .collect::<Result<Vec<_>, CodecError>>()?;
            DetectMsg::MultiRegister { id, scope }
        }
        kind::MULTI_UNREGISTER => DetectMsg::MultiUnregister { id: r.u64()? },
        kind::MULTI_VERDICT => {
            let id = r.u64()?;
            let flag = r.u8()?;
            if !r.remaining().is_multiple_of(8) || (flag == 0 && r.remaining() != 0) {
                return Err(CodecError::BadLength(body.len()));
            }
            let verdict = if flag == 0 {
                None
            } else {
                Some(
                    (0..r.remaining() / 8)
                        .map(|_| r.u64())
                        .collect::<Result<Vec<_>, CodecError>>()?,
                )
            };
            DetectMsg::MultiVerdict { id, verdict }
        }
        // Stateless v2 bodies: varint-packed, decodable without chain
        // state (early return — they use the bit reader, not `r`).
        kind::VC_TOKEN_V2 => return decode_vc_token_v2(body),
        kind::GROUP_TOKEN_V2 => return decode_group_token_v2(aux, body),
        // Delta-chained v2 bodies never decode statelessly; the endpoint
        // decodes them at in-sequence promotion with the link's chains.
        kind::APP_VECTOR_V2 | kind::VC_SNAPSHOT_V2 => return Err(CodecError::Stateful(kind_byte)),
        other => return Err(CodecError::BadKind(other)),
    };
    r.done()?;
    Ok(msg)
}

/// Decodes a stateless v2 token body: varint `n`, `n` varint `G`
/// components, `n` colour bits.
fn decode_vc_token_v2(body: &[u8]) -> Result<DetectMsg, CodecError> {
    let mut r = BitReader::new(body);
    let n = r.read_varint()? as usize;
    if n > r.bits_remaining() / 9 {
        return Err(CodecError::BadLength(n));
    }
    let mut token = Token::new(n);
    for g in token.g.iter_mut() {
        *g = r.read_varint()?;
    }
    for i in 0..n {
        let c = if r.read_bit()? {
            Color::Green
        } else {
            Color::Red
        };
        token.set_color(i, c);
    }
    r.expect_padding()?;
    Ok(DetectMsg::VcToken(token))
}

/// Decodes a stateless v2 group-token body: varint group, varint `n`,
/// `n` varint `G` components, `n` colour bits, then one varint clock per
/// set bit of the `aux` presence bitmap (same bitmap as v1).
fn decode_group_token_v2(aux: u64, body: &[u8]) -> Result<DetectMsg, CodecError> {
    let mut r = BitReader::new(body);
    let group = r.read_varint()? as usize;
    let n = r.read_varint()? as usize;
    if n > r.bits_remaining() / 9 {
        return Err(CodecError::BadLength(n));
    }
    if n > MAX_GROUP_WIDTH || aux.checked_shr(n as u32).is_some_and(|high| high != 0) {
        return Err(CodecError::TooWide(n));
    }
    let mut t = GroupTokenMsg::new(group, n);
    for g in t.token.g.iter_mut() {
        *g = r.read_varint()?;
    }
    for i in 0..n {
        let c = if r.read_bit()? {
            Color::Green
        } else {
            Color::Red
        };
        t.token.set_color(i, c);
    }
    for i in 0..n {
        if aux & (1 << i) != 0 {
            let mut comps = Vec::with_capacity(n);
            for _ in 0..n {
                comps.push(r.read_varint()?);
            }
            t.candidates[i] = Some(VectorClock::from_components(comps));
        }
    }
    r.expect_padding()?;
    Ok(DetectMsg::GroupToken(Box::new(t)))
}

/// Byte offset of a frame's body within the full frame bytes (length
/// prefix + fixed header).
pub const BODY_START: usize = 4 + HEADER_LEN;

/// Sequence number carried by frames outside the reliability window
/// (acknowledgements): never deduplicated, resequenced, logged, or acked.
pub const CONTROL_SEQ: u64 = u64::MAX;

/// Appends a whole encoded frame (length prefix included) to `out`,
/// without intermediate buffers — the batched send path encodes straight
/// into a link's outbound batch.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0); // length placeholder, patched below
    let (kind_byte, aux) = match &frame.payload {
        Payload::Detect(msg) => detect_kind_aux(msg),
        Payload::Verdict(_) => (kind::VERDICT, 0),
        Payload::Shutdown => (kind::SHUTDOWN, 0),
    };
    out.push(kind_byte);
    put_u32(out, frame.peer);
    put_u32(out, frame.from.index() as u32);
    put_u32(out, frame.to.index() as u32);
    put_u64(out, frame.seq);
    put_u64(out, aux);
    match &frame.payload {
        Payload::Detect(msg) => detect_body_into(msg, out),
        Payload::Verdict(verdict) => match verdict {
            Some(g) => {
                out.push(1);
                put_u64(out, g.len() as u64);
                for &v in g {
                    put_u64(out, v);
                }
            }
            None => out.push(0),
        },
        Payload::Shutdown => {}
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a whole frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out);
    out
}

/// How [`encode_frame_into_v2`] put a frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireEncoding {
    /// No v2 form for this payload — encoded exactly as v1.
    V1,
    /// Stateless bit-packed v2 body (tokens).
    Packed,
    /// Delta-chain keyframe (full clock, varint-packed).
    Keyframe,
    /// Delta-chain delta frame (changed bitmap + varint deltas).
    Delta,
}

/// The v2 kind byte of a [`DetectMsg`] that has a v2 encoding. `O(1)`
/// bodies gain nothing from bit packing and stay v1 on every link.
fn detect_kind_v2(msg: &DetectMsg) -> Option<u8> {
    match msg {
        DetectMsg::App {
            tag: ClockTag::Vector(_),
            ..
        } => Some(kind::APP_VECTOR_V2),
        DetectMsg::VcSnapshot(_) => Some(kind::VC_SNAPSHOT_V2),
        DetectMsg::VcToken(_) => Some(kind::VC_TOKEN_V2),
        DetectMsg::GroupToken(_) => Some(kind::GROUP_TOKEN_V2),
        _ => None,
    }
}

/// Appends a frame encoded under wire v2 (length prefix included),
/// advancing `chains` for delta-chained bodies. Payloads with no v2 form
/// fall back to [`encode_frame_into`] byte for byte. The bit-packed body
/// is written straight into `out`, so the batched send path stays
/// allocation-free.
pub fn encode_frame_into_v2(
    frame: &Frame,
    chains: &mut ClockChains,
    out: &mut Vec<u8>,
) -> WireEncoding {
    let msg = match &frame.payload {
        Payload::Detect(msg) => msg,
        _ => {
            encode_frame_into(frame, out);
            return WireEncoding::V1;
        }
    };
    let Some(kind2) = detect_kind_v2(msg) else {
        encode_frame_into(frame, out);
        return WireEncoding::V1;
    };
    let (_, aux) = detect_kind_aux(msg);
    let start = out.len();
    put_u32(out, 0); // length placeholder, patched below
    out.push(kind2);
    put_u32(out, frame.peer);
    put_u32(out, frame.from.index() as u32);
    put_u32(out, frame.to.index() as u32);
    put_u64(out, frame.seq);
    put_u64(out, aux);
    let from = frame.from.index() as u32;
    let mut w = BitWriter::new(out);
    let encoding = match msg {
        DetectMsg::App {
            msg: id,
            tag: ClockTag::Vector(v),
        } => {
            w.write_varint(id.as_u64());
            match chains.encode_clock(from, CLASS_APP, v.as_slice(), &mut w) {
                ChainFrame::Keyframe => WireEncoding::Keyframe,
                ChainFrame::Delta => WireEncoding::Delta,
            }
        }
        DetectMsg::VcSnapshot(s) => {
            match chains.encode_clock(from, CLASS_SNAPSHOT, s.clock.as_slice(), &mut w) {
                ChainFrame::Keyframe => WireEncoding::Keyframe,
                ChainFrame::Delta => WireEncoding::Delta,
            }
        }
        DetectMsg::VcToken(t) => {
            w.write_varint(t.g.len() as u64);
            for &g in &t.g {
                w.write_varint(g);
            }
            for &c in t.colors() {
                w.write_bit(c == Color::Green);
            }
            WireEncoding::Packed
        }
        DetectMsg::GroupToken(t) => {
            w.write_varint(t.group as u64);
            w.write_varint(t.token.g.len() as u64);
            for &g in &t.token.g {
                w.write_varint(g);
            }
            for &c in t.token.colors() {
                w.write_bit(c == Color::Green);
            }
            for clock in t.candidates.iter().flatten() {
                for &c in clock.as_slice() {
                    w.write_varint(c);
                }
            }
            WireEncoding::Packed
        }
        _ => unreachable!("detect_kind_v2 gated the payload"),
    };
    w.finish();
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    encoding
}

/// A delta-chained v2 body reconstructed by the receiving endpoint at
/// in-sequence promotion (the only point where the link's chain state
/// may legally advance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedV2 {
    /// `VC_SNAPSHOT_V2`: the full reconstructed clock as little-endian
    /// bytes — exactly the v1 body layout, arena-ready for
    /// `SnapshotBuffer::push_le_bytes`.
    SnapshotClock(Vec<u8>),
    /// `APP_VECTOR_V2`: the message id and reconstructed clock.
    AppVector(MsgId, VectorClock),
}

/// Decodes a delta-chained v2 body (`APP_VECTOR_V2` / `VC_SNAPSHOT_V2`),
/// advancing the receiver-side `chains` exactly as the sender did.
pub fn decode_stateful_v2(
    head: &WireHeader,
    body: &[u8],
    chains: &mut ClockChains,
) -> Result<DecodedV2, CodecError> {
    let from = head.from.index() as u32;
    let mut r = BitReader::new(body);
    match head.kind {
        kind::APP_VECTOR_V2 => {
            let id = MsgId::new(r.read_varint()?);
            let clock = chains.decode_clock(from, CLASS_APP, &mut r)?;
            r.expect_padding()?;
            Ok(DecodedV2::AppVector(
                id,
                VectorClock::from_components(clock),
            ))
        }
        kind::VC_SNAPSHOT_V2 => {
            let clock = chains.decode_clock(from, CLASS_SNAPSHOT, &mut r)?;
            r.expect_padding()?;
            let mut le = Vec::with_capacity(clock.len() * 8);
            for &c in &clock {
                le.extend_from_slice(&c.to_le_bytes());
            }
            Ok(DecodedV2::SnapshotClock(le))
        }
        other => Err(CodecError::BadKind(other)),
    }
}

/// Appends a cumulative-acknowledgement frame to `out`: `next_expected`
/// is the receiver's in-order delivery cursor for the `peer → me` link,
/// carried in `aux` with an empty body.
pub fn encode_ack_into(me: u32, next_expected: u64, out: &mut Vec<u8>) {
    put_u32(out, HEADER_LEN as u32);
    out.push(kind::ACK);
    put_u32(out, me);
    put_u32(out, 0); // from/to unused: acks never reach an actor
    put_u32(out, 0);
    put_u64(out, CONTROL_SEQ);
    put_u64(out, next_expected);
}

/// Appends a sidecar telemetry frame to `out`: `body` is an opaque blob
/// (JSONL-framed recorder deltas plus a counter snapshot), carried with
/// `seq = CONTROL_SEQ` and its length mirrored in `aux`.
pub fn encode_telemetry_into(me: u32, body: &[u8], out: &mut Vec<u8>) {
    put_u32(out, (HEADER_LEN + body.len()) as u32);
    out.push(kind::TELEMETRY);
    put_u32(out, me);
    put_u32(out, 0); // from/to unused: telemetry never reaches an actor
    put_u32(out, 0);
    put_u64(out, CONTROL_SEQ);
    put_u64(out, body.len() as u64);
    out.extend_from_slice(body);
}

/// The fixed routing header of one frame, decoded without touching the
/// body — receivers route and resequence on this alone, deferring payload
/// decode to delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Frame kind byte (see [`kind`]).
    pub kind: u8,
    /// Sending peer index (the `seq` resequencing domain).
    pub peer: u32,
    /// Originating actor.
    pub from: ActorId,
    /// Destination actor.
    pub to: ActorId,
    /// Per-link sequence number.
    pub seq: u64,
    /// Out-of-band auxiliary value (snapshot interval, group bitmap, or
    /// ack cursor).
    pub aux: u64,
}

/// Total on-wire length (length prefix included) of the frame starting at
/// byte `at` of `buf`, if the 4-byte prefix is fully present.
pub fn frame_len_at(buf: &[u8], at: usize) -> Option<usize> {
    let bytes = buf.get(at..at.checked_add(4)?)?;
    Some(4 + u32::from_le_bytes(bytes.try_into().unwrap()) as usize)
}

/// Decodes the fixed header of a buffer holding exactly one frame.
pub fn decode_header(frame: &[u8]) -> Result<WireHeader, CodecError> {
    let mut r = Reader::new(frame);
    let len = r.u32()? as usize;
    if r.remaining() != len || len < HEADER_LEN {
        return Err(CodecError::BadLength(len));
    }
    Ok(WireHeader {
        kind: r.u8()?,
        peer: r.u32()?,
        from: ActorId::new(r.u32()?),
        to: ActorId::new(r.u32()?),
        seq: r.u64()?,
        aux: r.u64()?,
    })
}

/// Decodes a frame body — control or detect — given its kind and aux.
///
/// [`kind::ACK`] frames carry no payload and are rejected here: endpoints
/// consume them during ingest, before payload decode.
pub fn decode_payload(kind_byte: u8, aux: u64, body: &[u8]) -> Result<Payload, CodecError> {
    Ok(match kind_byte {
        kind::VERDICT => {
            let mut br = Reader::new(body);
            match br.u8()? {
                0 => Payload::Verdict(None),
                _ => {
                    let count = br.u64()? as usize;
                    let mut g = Vec::with_capacity(count);
                    for _ in 0..count {
                        g.push(br.u64()?);
                    }
                    Payload::Verdict(Some(g))
                }
            }
        }
        kind::SHUTDOWN => Payload::Shutdown,
        detect => Payload::Detect(decode_body(detect, aux, body)?),
    })
}

/// Decodes one frame from a buffer that contains exactly one frame
/// (length prefix included).
pub fn decode_frame(buf: &[u8]) -> Result<Frame, CodecError> {
    let h = decode_header(buf)?;
    let payload = decode_payload(h.kind, h.aux, &buf[BODY_START..])?;
    Ok(Frame {
        peer: h.peer,
        from: h.from,
        to: h.to,
        seq: h.seq,
        payload,
    })
}

/// Reads one length-prefixed frame (raw bytes, prefix included) from a
/// stream. Returns `Ok(None)` on clean end-of-stream.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    let mut buf = vec![0u8; 4 + len];
    buf[..4].copy_from_slice(&len_bytes);
    r.read_exact(&mut buf[4..])?;
    Ok(Some(buf))
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

    #[test]
    fn detect_body_length_equals_wire_size() {
        let msg = DetectMsg::VcSnapshot(VcSnapshot {
            interval: 5,
            clock: VectorClock::from_components(vec![1, 2, 3]),
        });
        let (_, aux, body) = encode_body(&msg);
        assert_eq!(body.len(), msg.wire_size());
        assert_eq!(aux, 5, "interval rides in aux, outside the accounted body");
    }

    #[test]
    fn frame_roundtrips() {
        for payload in [
            Payload::Detect(DetectMsg::EndOfTrace),
            Payload::Detect(DetectMsg::DdToken),
            Payload::Verdict(Some(vec![2, 9, 4])),
            Payload::Verdict(None),
            Payload::Shutdown,
        ] {
            let f = frame(payload);
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn read_frame_handles_stream_and_eof() {
        let f = frame(Payload::Detect(DetectMsg::PollReply { became_red: true }));
        let bytes = encode_frame(&f);
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&bytes);
        stream.extend_from_slice(&bytes);
        let mut cursor = io::Cursor::new(stream);
        let first = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_frame(&first).unwrap(), f);
        let second = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(first, second);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn header_decode_and_frame_len_agree_with_full_decode() {
        let f = frame(Payload::Detect(DetectMsg::VcSnapshot(VcSnapshot {
            interval: 9,
            clock: VectorClock::from_components(vec![4, 9]),
        })));
        let bytes = encode_frame(&f);
        assert_eq!(frame_len_at(&bytes, 0), Some(bytes.len()));
        assert_eq!(
            frame_len_at(&bytes, bytes.len() - 3),
            None,
            "partial prefix"
        );
        let h = decode_header(&bytes).unwrap();
        assert_eq!(h.kind, kind::VC_SNAPSHOT);
        assert_eq!(
            (h.peer, h.from, h.to, h.seq, h.aux),
            (3, f.from, f.to, 42, 9)
        );
        assert_eq!(
            decode_payload(h.kind, h.aux, &bytes[BODY_START..]).unwrap(),
            f.payload
        );
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
            encode_frame_into(f, &mut batch);
        }
        let mut at = 0;
        for f in &frames {
            let len = frame_len_at(&batch, at).unwrap();
            assert_eq!(&batch[at..at + len], encode_frame(f).as_slice());
            at += len;
        }
        assert_eq!(at, batch.len());
    }

    #[test]
    fn ack_frames_carry_the_cursor_in_aux() {
        let mut bytes = Vec::new();
        encode_ack_into(2, 640, &mut bytes);
        assert_eq!(frame_len_at(&bytes, 0), Some(bytes.len()));
        let h = decode_header(&bytes).unwrap();
        assert_eq!(h.kind, kind::ACK);
        assert_eq!(h.peer, 2);
        assert_eq!(h.seq, CONTROL_SEQ);
        assert_eq!(h.aux, 640);
        assert!(decode_payload(h.kind, h.aux, &bytes[BODY_START..]).is_err());
    }

    #[test]
    fn telemetry_frames_carry_an_opaque_body_outside_the_payload_codec() {
        let body = br#"{"seq":0,"monitor":1,"event":"DetectionExhausted"}"#;
        let mut bytes = Vec::new();
        encode_telemetry_into(4, body, &mut bytes);
        assert_eq!(frame_len_at(&bytes, 0), Some(bytes.len()));
        let h = decode_header(&bytes).unwrap();
        assert_eq!(h.kind, kind::TELEMETRY);
        assert_eq!(h.peer, 4);
        assert_eq!(h.seq, CONTROL_SEQ);
        assert_eq!(h.aux, body.len() as u64);
        assert_eq!(&bytes[BODY_START..], body.as_slice());
        assert!(
            decode_payload(h.kind, h.aux, &bytes[BODY_START..]).is_err(),
            "telemetry is endpoint-internal, not a protocol payload"
        );
    }

    #[test]
    fn v2_tokens_roundtrip_statelessly_and_pack_tighter() {
        let mut token = Token::new(5);
        token.g = vec![0, 3, 120, 4000, 1];
        token.set_color(2, Color::Green);
        let mut group = GroupTokenMsg::new(1, 3);
        group.token.g = vec![9, 0, 2];
        group.token.set_color(1, Color::Green);
        group.candidates[2] = Some(VectorClock::from_components(vec![4, 5, 6]));
        for msg in [
            DetectMsg::VcToken(token),
            DetectMsg::GroupToken(Box::new(group)),
        ] {
            let f = frame(Payload::Detect(msg.clone()));
            let mut chains = ClockChains::new();
            let mut v2 = Vec::new();
            let enc = encode_frame_into_v2(&f, &mut chains, &mut v2);
            assert_eq!(enc, WireEncoding::Packed);
            assert_eq!(decode_frame(&v2).unwrap(), f, "stateless v2 decode");
            assert!(v2.len() < encode_frame(&f).len(), "packs tighter than v1");
        }
    }

    #[test]
    fn v2_delta_chains_need_the_endpoint_and_reconstruct_v1_bodies() {
        let snapshots = [vec![1, 2, 3], vec![1, 3, 3], vec![u64::MAX, 3, 4]];
        let mut enc_chains = ClockChains::new();
        let mut dec_chains = ClockChains::new();
        for (i, clock) in snapshots.iter().enumerate() {
            let msg = DetectMsg::VcSnapshot(VcSnapshot {
                interval: i as u64,
                clock: VectorClock::from_components(clock.clone()),
            });
            let f = frame(Payload::Detect(msg.clone()));
            let mut v2 = Vec::new();
            let enc = encode_frame_into_v2(&f, &mut enc_chains, &mut v2);
            assert_eq!(
                enc,
                if i == 0 {
                    WireEncoding::Keyframe
                } else {
                    WireEncoding::Delta
                }
            );
            let h = decode_header(&v2).unwrap();
            assert_eq!(h.kind, kind::VC_SNAPSHOT_V2);
            assert_eq!(h.aux, i as u64, "interval still rides in aux");
            assert!(
                matches!(
                    decode_payload(h.kind, h.aux, &v2[BODY_START..]),
                    Err(CodecError::Stateful(_))
                ),
                "delta frames refuse stateless decode"
            );
            let decoded = decode_stateful_v2(&h, &v2[BODY_START..], &mut dec_chains).unwrap();
            let (_, _, v1_body) = encode_body(&msg);
            assert_eq!(
                decoded,
                DecodedV2::SnapshotClock(v1_body),
                "reconstruction is the exact v1 (paper-unit) body"
            );
        }
    }

    #[test]
    fn v2_app_vectors_roundtrip_and_scalars_fall_back_to_v1() {
        let mut chains = ClockChains::new();
        let mut dec_chains = ClockChains::new();
        let vec_msg = DetectMsg::App {
            msg: MsgId::new(77),
            tag: ClockTag::Vector(VectorClock::from_components(vec![5, 0, 9])),
        };
        let f = frame(Payload::Detect(vec_msg));
        let mut v2 = Vec::new();
        encode_frame_into_v2(&f, &mut chains, &mut v2);
        let h = decode_header(&v2).unwrap();
        assert_eq!(h.kind, kind::APP_VECTOR_V2);
        let decoded = decode_stateful_v2(&h, &v2[BODY_START..], &mut dec_chains).unwrap();
        assert_eq!(
            decoded,
            DecodedV2::AppVector(MsgId::new(77), VectorClock::from_components(vec![5, 0, 9]))
        );
        // O(1) payloads gain nothing from bit packing: byte-identical v1.
        for payload in [
            Payload::Detect(DetectMsg::App {
                msg: MsgId::new(3),
                tag: ClockTag::Scalar(9),
            }),
            Payload::Detect(DetectMsg::EndOfTrace),
            Payload::Detect(DetectMsg::DdToken),
            Payload::Verdict(None),
            Payload::Shutdown,
        ] {
            let f = frame(payload);
            let mut v2 = Vec::new();
            let enc = encode_frame_into_v2(&f, &mut chains, &mut v2);
            assert_eq!(enc, WireEncoding::V1);
            assert_eq!(v2, encode_frame(&f));
        }
    }

    #[test]
    fn truncated_and_bogus_frames_are_rejected() {
        let f = frame(Payload::Detect(DetectMsg::EndOfTrace));
        let mut bytes = encode_frame(&f);
        bytes.pop();
        assert!(decode_frame(&bytes).is_err());
        let mut bad_kind = encode_frame(&f);
        bad_kind[4] = 0x7F;
        assert!(matches!(
            decode_frame(&bad_kind),
            Err(CodecError::BadKind(0x7F))
        ));
        let token = DetectMsg::VcToken(Token::new(2));
        let mut bad_color = encode_frame(&frame(Payload::Detect(token)));
        *bad_color.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_frame(&bad_color),
            Err(CodecError::BadColor(9))
        ));
    }
}
