//! Property tests for the wire codec, over seeded random clocks, tokens
//! and snapshots of every [`DetectMsg`] variant:
//!
//! 1. `decode(encode(f)) == f` for every frame, alone and as a stream
//!    whose clocks ship as deltas (the codec is lossless);
//! 2. `m.wire_size()` is the per-kind paper-unit formula of Sections
//!    3.4/4.4, whatever the frame's bytes on the wire;
//! 3. damaged frames of every kind — cut short, a byte deleted, a bit
//!    flipped, two frames spliced — decode or return a typed
//!    [`CodecError`], and never panic or size anything by a count the
//!    bytes cannot hold.

use wcp_clocks::{Dependence, ProcessId, VectorClock};
use wcp_detect::offline::token::{Color, Token};
use wcp_detect::online::{ClockTag, DetectMsg, GroupTokenMsg};
use wcp_detect::{DdSnapshot, VcSnapshot};
use wcp_net::codec::{
    decode_ack, decode_frame, decode_header, encode_ack_into, encode_frame, encode_frame_into,
    encode_telemetry_into, kind, CodecError, Frame, Payload,
};
use wcp_net::{decode_delta, encode_delta, ClockChains, NetStats};
use wcp_obs::rng::Rng;
use wcp_obs::{LogicalTime, StampedEvent, TraceEvent};
use wcp_sim::{ActorId, WireSize};
use wcp_trace::MsgId;

fn random_clock(rng: &mut Rng, n: usize) -> VectorClock {
    VectorClock::from_components((0..n).map(|_| rng.gen_range(0..1000u64)).collect())
}

fn random_color(rng: &mut Rng) -> Color {
    if rng.gen_bool(0.5) {
        Color::Green
    } else {
        Color::Red
    }
}

/// One random instance of every `DetectMsg` variant.
fn random_messages(rng: &mut Rng) -> Vec<DetectMsg> {
    let n = rng.gen_range(1..=12usize);
    let mut token = Token::new(n);
    for g in token.g.iter_mut() {
        *g = rng.gen_range(0..100u64);
    }
    for i in 0..n {
        let c = random_color(rng);
        token.set_color(i, c);
    }
    let mut group = GroupTokenMsg::new(rng.gen_range(0..4usize), n);
    for g in group.token.g.iter_mut() {
        *g = rng.gen_range(0..100u64);
    }
    for i in 0..n {
        let c = random_color(rng);
        group.token.set_color(i, c);
    }
    for i in 0..n {
        if rng.gen_bool(0.5) {
            group.candidates[i] = Some(random_clock(rng, n));
        }
    }
    vec![
        DetectMsg::App {
            msg: MsgId::new(rng.gen_range(0..10_000u64)),
            tag: ClockTag::Vector(random_clock(rng, n)),
        },
        DetectMsg::App {
            msg: MsgId::new(rng.gen_range(0..10_000u64)),
            tag: ClockTag::Scalar(rng.gen_range(0..10_000u64)),
        },
        DetectMsg::VcSnapshot(VcSnapshot {
            interval: rng.gen_range(0..10_000u64),
            clock: random_clock(rng, n),
        }),
        DetectMsg::DdSnapshot(DdSnapshot {
            clock: rng.gen_range(0..10_000u64),
            deps: (0..rng.gen_range(0..6usize))
                .map(|_| {
                    Dependence::new(
                        ProcessId::new(rng.gen_range(0..64u32)),
                        rng.gen_range(0..10_000u64),
                    )
                })
                .collect(),
        }),
        DetectMsg::EndOfTrace,
        DetectMsg::VcToken(token),
        DetectMsg::DdToken,
        DetectMsg::Poll {
            clock: rng.gen_range(0..10_000u64),
            next_red: rng
                .gen_bool(0.5)
                .then(|| ProcessId::new(rng.gen_range(0..64u32))),
        },
        DetectMsg::PollReply {
            became_red: rng.gen_bool(0.5),
        },
        DetectMsg::GroupToken(Box::new(group)),
        DetectMsg::MultiRegister {
            id: rng.gen_range(0..10_000u64),
            scope: (0..rng.gen_range(1..=8usize))
                .map(|_| ProcessId::new(rng.gen_range(0..64u32)))
                .collect(),
        },
        DetectMsg::MultiUnregister {
            id: rng.gen_range(0..10_000u64),
        },
        DetectMsg::MultiVerdict {
            id: rng.gen_range(0..10_000u64),
            verdict: rng
                .gen_bool(0.5)
                .then(|| (0..n).map(|_| rng.gen_range(0..10_000u64)).collect()),
        },
    ]
}

/// The paper-unit size of `msg` by its kind's formula: 8 bytes per
/// integer or clock component, 1 per colour, flag or empty marker, 4 per
/// registered process.
fn paper_units(msg: &DetectMsg) -> usize {
    match msg {
        DetectMsg::App {
            tag: ClockTag::Vector(v),
            ..
        } => 8 + 8 * v.len(),
        DetectMsg::App {
            tag: ClockTag::Scalar(_),
            ..
        } => 16,
        DetectMsg::VcSnapshot(s) => 8 * s.clock.len(),
        DetectMsg::DdSnapshot(s) => 8 + 16 * s.deps.len(),
        DetectMsg::EndOfTrace | DetectMsg::DdToken | DetectMsg::PollReply { .. } => 1,
        DetectMsg::VcToken(t) => 9 * t.g.len(),
        DetectMsg::Poll { .. } => 16,
        DetectMsg::GroupToken(t) => {
            let n = t.token.g.len();
            8 + 9 * n + 8 * n * t.candidates.iter().flatten().count()
        }
        DetectMsg::MultiRegister { scope, .. } => 8 + 4 * scope.len(),
        DetectMsg::MultiUnregister { .. } => 8,
        DetectMsg::MultiVerdict { verdict, .. } => 9 + verdict.as_ref().map_or(0, |g| 8 * g.len()),
    }
}

fn random_frame(rng: &mut Rng, payload: Payload) -> Frame {
    Frame {
        peer: rng.gen_range(0..16u32),
        from: ActorId::new(rng.gen_range(0..32u32)),
        to: ActorId::new(rng.gen_range(0..32u32)),
        seq: rng.gen_range(0..1_000_000u64),
        payload,
    }
}

#[test]
fn every_variant_roundtrips_and_matches_wire_size() {
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed);
        for msg in random_messages(&mut rng) {
            assert_eq!(
                msg.wire_size(),
                paper_units(&msg),
                "seed {seed}: wire_size != the paper-unit formula for {msg:?}"
            );
            let frame = random_frame(&mut rng, Payload::Detect(msg));
            let back = decode_frame(&encode_frame(&frame), &mut ClockChains::new())
                .unwrap_or_else(|e| panic!("seed {seed}: decode failed for {frame:?}: {e}"));
            assert_eq!(back, frame, "seed {seed}");
        }
    }
}

/// `msg` with one clock component moved, for a chained kind: the same
/// chain's next clock, which ships as a delta.
fn next_clock(msg: &DetectMsg) -> Option<DetectMsg> {
    let bump = |v: &VectorClock| {
        let mut c = v.as_slice().to_vec();
        c[0] += 1;
        VectorClock::from_components(c)
    };
    match msg {
        DetectMsg::App {
            msg: id,
            tag: ClockTag::Vector(v),
        } => Some(DetectMsg::App {
            msg: *id,
            tag: ClockTag::Vector(bump(v)),
        }),
        DetectMsg::VcSnapshot(s) => Some(DetectMsg::VcSnapshot(VcSnapshot {
            interval: s.interval + 1,
            clock: bump(&s.clock),
        })),
        _ => None,
    }
}

/// Every sequenced payload of one seed, chained clocks twice over.
fn random_payloads(rng: &mut Rng) -> Vec<Payload> {
    let msgs = random_messages(rng);
    let again: Vec<DetectMsg> = msgs.iter().filter_map(next_clock).collect();
    let cut = (0..rng.gen_range(0..6usize))
        .map(|_| rng.gen_range(0..10_000u64))
        .collect();
    msgs.into_iter()
        .chain(again)
        .map(Payload::Detect)
        .chain([
            Payload::Verdict(Some(cut)),
            Payload::Verdict(None),
            Payload::Shutdown,
        ])
        .collect()
}

#[test]
fn every_variant_roundtrips_through_whole_frames() {
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut tx, mut rx) = (ClockChains::new(), ClockChains::new());
        for payload in random_payloads(&mut rng) {
            let frame = Frame {
                from: ActorId::new(3),
                ..random_frame(&mut rng, payload)
            };
            let mut bytes = Vec::new();
            encode_frame_into(&frame, &mut tx, &mut bytes);
            assert_eq!(decode_frame(&bytes, &mut rx).unwrap(), frame, "seed {seed}");
        }
    }
}

/// Decodes one frame of any kind the way an endpoint does: header, then
/// the ack cursor, the telemetry delta, or the sequenced body.
fn decode_any(bytes: &[u8], chains: &mut ClockChains) -> Result<(), CodecError> {
    let (head, body) = decode_header(bytes)?;
    match head.kind {
        kind::ACK => decode_ack(body).map(drop),
        kind::TELEMETRY => decode_delta(body).map(drop),
        _ => decode_frame(bytes, chains).map(drop),
    }
}

/// Frames of every kind, encoded as one link sends them, each with the
/// receiver's chains as they stand before it.
fn encoded_frames(seed: u64) -> Vec<(Vec<u8>, ClockChains)> {
    let mut rng = Rng::seed_from_u64(seed);
    let (mut tx, mut rx) = (ClockChains::new(), ClockChains::new());
    let mut out = Vec::new();
    for payload in random_payloads(&mut rng) {
        let frame = Frame {
            from: ActorId::new(1),
            ..random_frame(&mut rng, payload)
        };
        let mut bytes = Vec::new();
        encode_frame_into(&frame, &mut tx, &mut bytes);
        let before = rx.clone();
        assert_eq!(decode_frame(&bytes, &mut rx), Ok(frame), "seed {seed}");
        out.push((bytes, before));
    }
    let mut ack = Vec::new();
    encode_ack_into(2, rng.gen_range(0..100_000u64), &mut ack);
    let event = StampedEvent {
        seq: 0,
        monitor: 1,
        time: LogicalTime::Tick(4),
        wall_nanos: Some(rng.gen_range(0..1_000_000u64)),
        event: TraceEvent::DetectionFound { cut: vec![3, 1, 4] },
    };
    let mut telemetry = Vec::new();
    encode_telemetry_into(
        2,
        &encode_delta(2, &NetStats::default(), &[event]),
        &mut telemetry,
    );
    for bytes in [ack, telemetry] {
        decode_any(&bytes, &mut ClockChains::new()).expect("a clean control frame decodes");
        out.push((bytes, ClockChains::new()));
    }
    out
}

#[test]
fn damaged_frames_never_panic() {
    let (mut decoded, mut refused) = (0, 0);
    let mut tally = |result: Result<(), CodecError>| match result {
        Ok(()) => decoded += 1,
        Err(_) => refused += 1,
    };
    for seed in 0..20 {
        let frames = encoded_frames(seed);
        for (k, (bytes, chains)) in frames.iter().enumerate() {
            for end in 0..bytes.len() {
                assert!(
                    decode_any(&bytes[..end], &mut chains.clone()).is_err(),
                    "seed {seed} frame {k}: a prefix of {end} bytes decoded"
                );
            }
            for i in 0..bytes.len() {
                let mut cut = bytes.clone();
                cut.remove(i);
                tally(decode_any(&cut, &mut chains.clone()));
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    tally(decode_any(&flipped, &mut chains.clone()));
                }
            }
            let (next, _) = &frames[(k + 1) % frames.len()];
            for at in 0..=bytes.len() {
                let mut spliced = bytes[..at].to_vec();
                spliced.extend_from_slice(&next[at.min(next.len())..]);
                tally(decode_any(&spliced, &mut chains.clone()));
            }
        }
    }
    // A flip inside a varint's value bits still decodes; a flip of a
    // length, a kind or a continuation bit does not.
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );
}
