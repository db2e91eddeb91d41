//! Randomized property tests for the bit-packed telemetry delta codec:
//! generated deltas survive a round trip field for field, and damaged
//! bodies decode to a typed error or a delta without a panic. Cases are
//! drawn from fixed seeds via `wcp_obs::rng::Rng`, so failures reproduce
//! exactly.

use wcp_net::{
    decode_delta, encode_delta, BitWriter, CodecError, NetStats, TelemetryDelta, TELEMETRY_VERSION,
};
use wcp_obs::rng::Rng;
use wcp_obs::{jsonl, LogicalTime, StampedEvent, TraceEvent};

const CASES: usize = 300;

/// Number of [`TraceEvent`] variants [`event`] draws from.
const KINDS: u32 = 22;

/// A value from the edges and the middle of the `u64` range.
fn num(rng: &mut Rng) -> u64 {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0u64..200),
        1 => rng.next_u64(),
        2 => u64::MAX,
        _ => rng.gen_range(0u64..1 << 40),
    }
}

fn id(rng: &mut Rng) -> u32 {
    match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0u32..8),
        1 => rng.next_u64() as u32,
        _ => u32::MAX,
    }
}

fn event(rng: &mut Rng, kind: u32) -> TraceEvent {
    use TraceEvent as E;
    match kind {
        0 => E::TokenAcquired {
            from: rng.gen_bool(0.5).then(|| id(rng)),
        },
        1 => E::TokenForwarded {
            to: id(rng),
            bytes: num(rng),
        },
        2 => E::CandidateEliminated {
            process: id(rng),
            interval: num(rng),
            work: num(rng),
        },
        3 => E::CandidateAccepted {
            process: id(rng),
            interval: num(rng),
            work: num(rng),
        },
        4 => E::CandidateInvalidated {
            process: id(rng),
            interval: num(rng),
        },
        5 => E::SnapshotBuffered {
            depth: num(rng),
            bytes: num(rng),
        },
        6 => E::SnapshotDrained { depth: num(rng) },
        7 => E::PollSent {
            to: id(rng),
            bytes: num(rng),
        },
        8 => E::PollAnswered {
            to: id(rng),
            alive: rng.gen_bool(0.5),
            bytes: num(rng),
        },
        9 => E::RedChainHop {
            to: id(rng),
            bytes: num(rng),
        },
        10 => E::ControlSent {
            to: id(rng),
            count: num(rng),
            bytes: num(rng),
        },
        11 => E::Work { units: num(rng) },
        12 => E::ParallelAdvance { units: num(rng) },
        13 => E::LatticeVisited { states: num(rng) },
        14 => E::DetectionFound {
            cut: (0..rng.gen_range(0usize..6)).map(|_| num(rng)).collect(),
        },
        15 => E::DetectionExhausted,
        16 => E::MessageDelivered {
            from: id(rng),
            to: id(rng),
            delay: num(rng),
        },
        17 => E::FrameSent {
            to: id(rng),
            bytes: num(rng),
        },
        18 => E::FrameReceived {
            from: id(rng),
            bytes: num(rng),
        },
        19 => E::Retransmit {
            to: id(rng),
            attempt: num(rng),
        },
        20 => E::Reconnect {
            peer: id(rng),
            attempt: num(rng),
        },
        _ => E::BatchFlushed {
            to: id(rng),
            frames: num(rng),
            bytes: num(rng),
        },
    }
}

/// A delta as a peer ships it: mostly consecutive `seq`s and
/// nondecreasing wall stamps, with arbitrary jumps mixed in.
fn delta(rng: &mut Rng) -> TelemetryDelta {
    let mut stats = NetStats::default();
    for field in [
        &mut stats.frames_sent,
        &mut stats.bytes_sent,
        &mut stats.frames_received,
        &mut stats.bytes_received,
        &mut stats.retransmits,
        &mut stats.reconnects,
        &mut stats.duplicates_dropped,
        &mut stats.reordered,
        &mut stats.batch_flushes,
        &mut stats.max_batch_bytes,
        &mut stats.max_ready_depth,
        &mut stats.acks_sent,
        &mut stats.acks_received,
        &mut stats.pool_allocs,
        &mut stats.pool_reuses,
        &mut stats.telemetry_sent,
        &mut stats.telemetry_received,
        &mut stats.telemetry_bytes,
        &mut stats.wire_bytes_v1_equiv,
        &mut stats.delta_frames_sent,
        &mut stats.keyframes_sent,
        &mut stats.multi_sessions_active,
        &mut stats.multi_routed_events,
        &mut stats.multi_detections,
        &mut stats.multi_rejected,
        &mut stats.corrupt_frames,
    ] {
        *field = num(rng);
    }
    let mut seq = num(rng);
    let mut wall = rng.gen_range(0u64..1 << 30);
    let events = (0..rng.gen_range(0usize..24))
        .map(|_| {
            seq = if rng.gen_bool(0.8) {
                seq.wrapping_add(1)
            } else {
                num(rng)
            };
            wall = match rng.gen_range(0u32..4) {
                0 => wall,
                1 => num(rng),
                _ => wall.wrapping_add(rng.gen_range(0u64..100_000)),
            };
            StampedEvent {
                seq,
                monitor: id(rng),
                time: match rng.gen_range(0u32..3) {
                    0 => LogicalTime::Unknown,
                    1 => LogicalTime::Tick(num(rng)),
                    _ => LogicalTime::Scalar(num(rng)),
                },
                wall_nanos: rng.gen_bool(0.7).then_some(wall),
                event: {
                    let kind = rng.gen_range(0..KINDS);
                    event(rng, kind)
                },
            }
        })
        .collect();
    TelemetryDelta {
        source: id(rng),
        stats,
        events,
    }
}

fn encode(d: &TelemetryDelta) -> Vec<u8> {
    encode_delta(d.source, &d.stats, &d.events)
}

/// `decode_delta` inverts `encode_delta` field for field, so the JSONL a
/// collector exports renders the same bytes as the events that were
/// recorded.
#[test]
fn decode_inverts_encode_for_every_event_shape() {
    let mut rng = Rng::seed_from_u64(53);
    let mut kinds = std::collections::BTreeSet::new();
    let mut times = std::collections::BTreeSet::new();
    let mut walls = [0usize; 2];
    for _ in 0..CASES {
        let d = delta(&mut rng);
        let back = decode_delta(&encode(&d)).expect("an encoded delta decodes");
        assert_eq!(back, d);
        assert_eq!(jsonl::to_string(&back.events), jsonl::to_string(&d.events));
        for e in &d.events {
            kinds.insert(e.event.kind());
            times.insert(match e.time {
                LogicalTime::Unknown => 0,
                LogicalTime::Tick(_) => 1,
                LogicalTime::Scalar(_) => 2,
            });
            walls[usize::from(e.wall_nanos.is_some())] += 1;
        }
    }
    assert_eq!(kinds.len(), KINDS as usize, "every variant drawn");
    assert_eq!(times.len(), 3, "every logical time drawn");
    assert!(
        walls.iter().all(|&n| n > 0),
        "wall stamps present and absent"
    );
    let empty = TelemetryDelta {
        source: 0,
        stats: NetStats::default(),
        events: Vec::new(),
    };
    assert_eq!(decode_delta(&encode(&empty)), Ok(empty));
}

/// Every strict prefix of an encoded delta is an error, and every
/// single-byte deletion and single-bit flip decodes to an error or a
/// delta; none panics.
#[test]
fn damaged_deltas_never_panic() {
    let mut rng = Rng::seed_from_u64(59);
    let mut decoded = 0;
    let mut refused = 0;
    for _ in 0..20 {
        let body = encode(&delta(&mut rng));
        for end in 0..body.len() {
            assert!(decode_delta(&body[..end]).is_err(), "prefix of {end} bytes");
        }
        for i in 0..body.len() {
            let mut damaged = body.clone();
            damaged.remove(i);
            let ok = decode_delta(&damaged).is_ok();
            (decoded, refused) = (decoded + usize::from(ok), refused + usize::from(!ok));
            for bit in 0..8 {
                let mut flipped = body.clone();
                flipped[i] ^= 1 << bit;
                let ok = decode_delta(&flipped).is_ok();
                (decoded, refused) = (decoded + usize::from(ok), refused + usize::from(!ok));
            }
        }
    }
    // Flips inside a varint's value bits still decode; flips of a tag or
    // a continuation bit do not.
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );
}

/// A header up to its event count, as `encode_delta` writes it.
fn header(out: &mut Vec<u8>, count: u64) -> BitWriter<'_> {
    let mut w = BitWriter::new(out);
    w.write_varint(TELEMETRY_VERSION);
    w.write_varint(1); // source
    for _ in 0..26 {
        w.write_varint(0);
    }
    w.write_varint(count);
    w
}

/// A count the bits left cannot hold is refused before anything is sized
/// by it, for the event list and for a cut alike.
#[test]
fn counts_beyond_the_bits_left_are_errors() {
    for count in [u64::MAX, 1 << 40, 64] {
        let mut body = Vec::new();
        let mut w = header(&mut body, count);
        for _ in 0..8 {
            w.write_varint(0);
        }
        w.finish();
        assert_eq!(decode_delta(&body), Err(CodecError::OutOfRange("count")));
    }
    for len in [u64::MAX, 1 << 40, 9] {
        let mut body = Vec::new();
        let mut w = header(&mut body, 1);
        w.write_bits(14, 8); // unknown time, no wall stamp, DetectionFound
        w.write_varint(0); // seq
        w.write_varint(0); // monitor
        w.write_varint(len);
        for _ in 0..8 {
            w.write_varint(3);
        }
        w.finish();
        assert_eq!(decode_delta(&body), Err(CodecError::OutOfRange("count")));
    }
}
