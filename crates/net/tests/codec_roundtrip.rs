//! Property test for the wire codec: for every [`DetectMsg`] variant over
//! seeded random clocks, tokens and snapshots,
//!
//! 1. `decode(encode(m)) == m` (the codec is lossless), and
//! 2. `encode(m).len() == m.wire_size()` (the body is exactly the
//!    paper-unit byte accounting — no hidden wire overhead in the body).

use wcp_clocks::{Dependence, ProcessId, VectorClock};
use wcp_detect::offline::token::{Color, Token};
use wcp_detect::online::{ClockTag, DetectMsg, GroupTokenMsg};
use wcp_detect::{DdSnapshot, VcSnapshot};
use wcp_net::codec::{decode_body, decode_frame, encode_body, encode_frame, Frame, Payload};
use wcp_obs::rng::Rng;
use wcp_sim::ActorId;
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

#[test]
fn every_variant_roundtrips_and_matches_wire_size() {
    use wcp_sim::WireSize;
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed);
        for msg in random_messages(&mut rng) {
            let (kind, aux, body) = encode_body(&msg);
            assert_eq!(
                body.len(),
                msg.wire_size(),
                "seed {seed}: body length != wire_size for {msg:?}"
            );
            let back = decode_body(kind, aux, &body)
                .unwrap_or_else(|e| panic!("seed {seed}: decode failed for {msg:?}: {e}"));
            assert_eq!(back, msg, "seed {seed}");
        }
    }
}

#[test]
fn every_variant_roundtrips_through_whole_frames() {
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(seed);
        for msg in random_messages(&mut rng) {
            let frame = Frame {
                peer: rng.gen_range(0..16u32),
                from: ActorId::new(rng.gen_range(0..32u32)),
                to: ActorId::new(rng.gen_range(0..32u32)),
                seq: rng.gen_range(0..1_000_000u64),
                payload: Payload::Detect(msg),
            };
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).unwrap(), frame, "seed {seed}");
        }
    }
}
