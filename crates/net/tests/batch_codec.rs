//! Property tests for the batched wire format: a batch is *defined* as the
//! concatenation of individually encoded frames, so any reassembly of the
//! byte stream — split at every possible byte boundary — must decode to
//! exactly the frames that were encoded, delta-chained clocks included.
//! The same holds end to end: a TCP reader fed the batch in arbitrary
//! dribbles, and an endpoint that batches versus one flushed after every
//! send, all deliver identical frame sequences.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use wcp_clocks::{ProcessId, VectorClock};
use wcp_detect::offline::token::{Color, Token};
use wcp_detect::online::{ClockTag, DetectMsg, GroupTokenMsg};
use wcp_detect::VcSnapshot;
use wcp_net::codec::{decode_frame, encode_frame_into, frame_len_at, v1_frame_len};
use wcp_net::{
    spawn_listener, ClockChains, Endpoint, Frame, FramePool, LoopbackTransport, NetCounters,
    Payload, Transport,
};
use wcp_obs::NullRecorder;
use wcp_sim::ActorId;
use wcp_trace::MsgId;

/// A mixed bag of payloads covering every batching class: bulk app
/// traffic, bulk snapshots, and immediate control frames.
fn sample_frames() -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut payloads: Vec<Payload> = Vec::new();
    for i in 0..4u64 {
        payloads.push(Payload::Detect(DetectMsg::App {
            msg: MsgId::new(i),
            tag: ClockTag::Scalar(i),
        }));
        payloads.push(Payload::Detect(DetectMsg::VcSnapshot(VcSnapshot {
            interval: i,
            clock: VectorClock::from_components(vec![i, 2 * i + 1, 7]),
        })));
    }
    payloads.push(Payload::Detect(DetectMsg::DdToken));
    payloads.push(Payload::Detect(DetectMsg::MultiRegister {
        id: 7,
        scope: vec![ProcessId::new(0), ProcessId::new(2)],
    }));
    payloads.push(Payload::Detect(DetectMsg::MultiUnregister { id: 7 }));
    payloads.push(Payload::Detect(DetectMsg::MultiVerdict {
        id: 9,
        verdict: Some(vec![3, 1]),
    }));
    payloads.push(Payload::Detect(DetectMsg::MultiVerdict {
        id: 10,
        verdict: None,
    }));
    payloads.push(Payload::Detect(DetectMsg::EndOfTrace));
    payloads.push(Payload::Verdict(None));
    payloads.push(Payload::Shutdown);
    for (seq, payload) in payloads.into_iter().enumerate() {
        frames.push(Frame {
            peer: 2,
            from: ActorId::new(5),
            to: ActorId::new(9),
            seq: seq as u64,
            payload,
        });
    }
    frames
}

/// `frames` encoded back to back on one link's chains, as a sender
/// batches them.
fn encode_stream(frames: &[Frame]) -> Vec<u8> {
    let mut chains = ClockChains::new();
    let mut stream = Vec::new();
    for f in frames {
        encode_frame_into(f, &mut chains, &mut stream);
    }
    stream
}

/// The persistent-read-buffer contract, expressed via the public codec
/// only: consume the maximal prefix of complete frames, decoding them on
/// the receiver's `chains`, and keep the rest.
fn drain_complete(buf: &mut Vec<u8>, chains: &mut ClockChains) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(len) = frame_len_at(buf, at)
        .unwrap()
        .filter(|len| at + len <= buf.len())
    {
        out.push(decode_frame(&buf[at..at + len], chains).expect("complete frame decodes"));
        at += len;
    }
    buf.drain(..at);
    out
}

#[test]
fn batch_split_at_every_byte_boundary_decodes_like_the_unbatched_codec() {
    let frames = sample_frames();
    let batch = encode_stream(&frames);
    for split in 0..=batch.len() {
        let mut chains = ClockChains::new();
        let mut pending = batch[..split].to_vec();
        let mut decoded = drain_complete(&mut pending, &mut chains);
        // Whatever the split holds back must be a strict prefix of one
        // frame — never something the walker misparses.
        assert!(
            frame_len_at(&pending, 0)
                .unwrap()
                .is_none_or(|len| len > pending.len()),
            "split {split}: leftover parsed as complete"
        );
        pending.extend_from_slice(&batch[split..]);
        decoded.extend(drain_complete(&mut pending, &mut chains));
        assert!(pending.is_empty(), "split {split}: bytes left over");
        assert_eq!(decoded, frames, "split {split}: decode diverged");
    }
}

#[test]
fn tcp_reader_fed_arbitrary_dribbles_reassembles_the_exact_frame_stream() {
    let frames = sample_frames();
    let batch = encode_stream(&frames);

    let counters = NetCounters::shared();
    let pool = FramePool::shared(counters.clone());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = channel();
    let acceptor = spawn_listener(listener, tx, pool);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // Irregular write sizes (1, 2, 3, ... bytes) guarantee frames straddle
    // writes; TCP may merge them further, splitting reads anywhere.
    let mut at = 0;
    let mut step = 1;
    while at < batch.len() {
        let end = (at + step).min(batch.len());
        stream.write_all(&batch[at..end]).unwrap();
        stream.flush().unwrap();
        at = end;
        step = step % 7 + 1;
    }
    drop(stream);

    let mut received = Vec::new();
    let mut chains = ClockChains::new();
    while received.len() < batch.len() {
        let chunk = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("reader delivered all bytes");
        // Each delivered chunk must hold only whole frames.
        let mut copy = chunk.to_vec();
        let in_chunk = drain_complete(&mut copy, &mut chains);
        assert!(
            !in_chunk.is_empty() && copy.is_empty(),
            "partial frame leaked"
        );
        received.extend_from_slice(&chunk);
    }
    drop(acceptor);

    assert_eq!(received, batch, "byte stream mutated in flight");
    let mut all = received;
    assert_eq!(drain_complete(&mut all, &mut ClockChains::new()), frames);
}

/// A connected endpoint pair over loopback with its own counter block.
fn endpoint_pair() -> (Endpoint, Endpoint, Arc<NetCounters>) {
    let (tx0, rx0) = channel();
    let (tx1, rx1) = channel();
    let counters = NetCounters::shared();
    let pool = FramePool::shared(counters.clone());
    let mk = |me: u32, tx: std::sync::mpsc::Sender<wcp_net::PooledBuf>, rx| {
        Endpoint::new(
            me,
            vec![
                None,
                Some(Box::new(LoopbackTransport::new(tx, pool.clone())) as Box<dyn Transport>),
            ],
            rx,
            counters.clone(),
            Arc::new(NullRecorder),
        )
    };
    let e0 = mk(0, tx1, rx0);
    let e1 = mk(1, tx0, rx1);
    (e0, e1, counters)
}

/// Drives `traffic` payloads through a fresh pair and returns the
/// delivered `(seq, frame)` sequence plus the pair's counters. Without
/// `batch` the sender flushes after every send.
fn deliver_all(batch: bool) -> (Vec<Frame>, Arc<NetCounters>) {
    let (mut sender, mut receiver, counters) = endpoint_pair();
    let a = ActorId::new(0);
    let total = {
        let frames = sample_frames();
        for f in &frames {
            sender.send(1, a, a, f.payload.clone());
            if !batch {
                sender.flush_link(1);
            }
        }
        frames.len()
    };
    sender.flush_all();
    let mut got = Vec::new();
    while got.len() < total {
        got.push(
            receiver
                .recv(Duration::from_secs(10))
                .expect("all frames delivered"),
        );
    }
    sender.close();
    receiver.close();
    (got, counters)
}

#[test]
fn batched_and_per_frame_endpoints_deliver_identical_frame_sequences() {
    let (batched, batched_counters) = deliver_all(true);
    let (per_frame, per_frame_counters) = deliver_all(false);
    assert_eq!(batched, per_frame, "wire mode changed delivered frames");

    let b = batched_counters.snapshot();
    let p = per_frame_counters.snapshot();
    assert_eq!(b.frames_sent, p.frames_sent);
    assert_eq!(b.bytes_sent, p.bytes_sent, "batching must not change bytes");
    assert!(
        b.batch_flushes < b.frames_sent,
        "batched mode never coalesced ({} flushes / {} frames)",
        b.batch_flushes,
        b.frames_sent
    );
    assert_eq!(
        p.batch_flushes, p.frames_sent,
        "per-frame mode must write once per frame"
    );
}

#[test]
fn steady_state_traffic_recycles_pooled_buffers() {
    let (mut sender, mut receiver, counters) = endpoint_pair();
    let a = ActorId::new(0);
    let rounds = 200u64;
    for i in 0..rounds {
        sender.send(
            1,
            a,
            a,
            Payload::Detect(DetectMsg::App {
                msg: MsgId::new(i),
                tag: ClockTag::Scalar(i),
            }),
        );
        // Flush every round so buffers cycle through the pool rather than
        // accumulating in one giant batch.
        sender.flush_all();
        let frame = receiver.recv(Duration::from_secs(10)).expect("delivered");
        assert_eq!(frame.seq, i);
    }
    let stats = counters.snapshot();
    assert!(
        stats.pool_reuses > stats.pool_allocs,
        "pool mostly recycles in steady state (allocs {}, reuses {})",
        stats.pool_allocs,
        stats.pool_reuses
    );
    assert!(
        stats.pool_allocs < rounds / 4,
        "allocations should be a small working set, got {}",
        stats.pool_allocs
    );
}

/// Tiny deterministic PRNG (xorshift64*) for the arbitrary-stream
/// generators below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// An arbitrary `DetectMsg` stream mixing every wire class: delta-chained
/// clocks (mostly small increments, occasionally wild jumps or width
/// changes, from two distinct sending actors so per-actor chains
/// interleave), tokens, and scalar bodies.
fn arbitrary_stream(seed: u64, count: usize) -> Vec<Frame> {
    let mut rng = Rng(seed | 1);
    // Evolving clock per (actor, class) so deltas and keyframes both occur.
    let mut clocks: std::collections::BTreeMap<(u32, u8), Vec<u64>> = Default::default();
    let mut evolve = |rng: &mut Rng, actor: u32, class: u8| -> Vec<u64> {
        let clock = clocks
            .entry((actor, class))
            .or_insert_with(|| vec![0; 3 + (actor as usize % 3)]);
        match rng.below(10) {
            0 => {
                // Width change: forces a keyframe mid-chain.
                *clock = (0..2 + rng.below(5)).map(|_| rng.below(1 << 20)).collect();
            }
            1 => {
                // Wild jump, including the u64 edges (wrapping deltas).
                let i = rng.below(clock.len() as u64) as usize;
                clock[i] = match rng.below(3) {
                    0 => u64::MAX,
                    1 => 0,
                    _ => rng.next(),
                };
            }
            _ => {
                // The common case: a few components tick forward.
                for _ in 0..=rng.below(3) {
                    let i = rng.below(clock.len() as u64) as usize;
                    clock[i] = clock[i].wrapping_add(1 + rng.below(4));
                }
            }
        }
        clock.clone()
    };
    (0..count)
        .map(|i| {
            let actor = (rng.below(2) as u32) * 5; // actors 0 and 5
            let payload = match rng.below(8) {
                0 | 1 => Payload::Detect(DetectMsg::App {
                    msg: MsgId::new(rng.next()),
                    tag: ClockTag::Vector(VectorClock::from_components(evolve(&mut rng, actor, 0))),
                }),
                2 | 3 => Payload::Detect(DetectMsg::VcSnapshot(VcSnapshot {
                    interval: rng.next(),
                    clock: VectorClock::from_components(evolve(&mut rng, actor, 1)),
                })),
                4 => {
                    let n = 1 + rng.below(6) as usize;
                    let mut t = Token::new(n);
                    for j in 0..n {
                        t.g[j] = rng.below(1 << 30);
                        if rng.below(2) == 0 {
                            t.set_color(j, Color::Green);
                        }
                    }
                    Payload::Detect(DetectMsg::VcToken(t))
                }
                5 => {
                    let n = 1 + rng.below(5) as usize;
                    let mut t = GroupTokenMsg::new(rng.below(4) as usize, n);
                    for j in 0..n {
                        t.token.g[j] = rng.next() >> rng.below(40);
                        if rng.below(2) == 0 {
                            t.token.set_color(j, Color::Green);
                        }
                        if rng.below(3) == 0 {
                            t.candidates[j] = Some(VectorClock::from_components(
                                (0..n as u64).map(|_| rng.below(1 << 16)).collect(),
                            ));
                        }
                    }
                    Payload::Detect(DetectMsg::GroupToken(Box::new(t)))
                }
                6 => Payload::Detect(DetectMsg::App {
                    msg: MsgId::new(rng.next()),
                    tag: ClockTag::Scalar(rng.next()),
                }),
                _ => Payload::Detect(if rng.below(2) == 0 {
                    DetectMsg::DdToken
                } else {
                    DetectMsg::EndOfTrace
                }),
            };
            Frame {
                peer: 0,
                from: ActorId::new(actor),
                to: ActorId::new(9),
                seq: i as u64,
                payload,
            }
        })
        .collect()
}

#[test]
fn chained_streams_decode_to_the_sent_frames_at_every_dribble_split() {
    for seed in [3u64, 77, 0xDEAD_BEEF] {
        let frames = arbitrary_stream(seed, 40);
        // The whole stream on one sender chain set, reassembled at every
        // possible byte boundary: the split may hold back at most a
        // strict prefix of one frame, and the chained decode across the
        // boundary must give back the sent frames exactly.
        let stream = encode_stream(&frames);
        for split in 0..=stream.len() {
            let mut chains = ClockChains::new();
            let mut pending = stream[..split].to_vec();
            let mut decoded = drain_complete(&mut pending, &mut chains);
            pending.extend_from_slice(&stream[split..]);
            decoded.extend(drain_complete(&mut pending, &mut chains));
            assert!(pending.is_empty(), "seed {seed} split {split}: leftovers");
            assert_eq!(decoded, frames, "seed {seed} split {split}: diverged");
        }
    }
}

#[test]
fn endpoints_deliver_the_sent_frames_for_fewer_bytes_than_v1() {
    let (mut sender, mut receiver, counters) = endpoint_pair();
    let frames = arbitrary_stream(11, 120);
    for f in &frames {
        sender.send(1, f.from, f.to, f.payload.clone());
    }
    sender.flush_all();
    let mut got = Vec::new();
    while got.len() < frames.len() {
        got.push(
            receiver
                .recv(Duration::from_secs(10))
                .expect("all frames delivered"),
        );
    }
    sender.close();
    receiver.close();
    let v2 = counters.snapshot();
    for (seq, (got, sent)) in got.iter().zip(&frames).enumerate() {
        assert_eq!(
            (got.from, got.to, &got.payload),
            (sent.from, sent.to, &sent.payload),
            "frame {seq} changed in delivery"
        );
    }
    assert_eq!(v2.frames_sent, frames.len() as u64);
    // The v1-equivalent accounting is what the fixed-width encoding
    // spent on the same frames (33 header bytes plus `wire_size()` per
    // detection frame); the wire sends less.
    let v1_bytes: usize = frames.iter().map(|f| v1_frame_len(&f.payload)).sum();
    assert_eq!(v2.wire_bytes_v1_equiv, v1_bytes as u64);
    assert!(
        v2.bytes_sent < v2.wire_bytes_v1_equiv,
        "v2 did not compress: {} vs {}",
        v2.bytes_sent,
        v2.wire_bytes_v1_equiv
    );
    assert!(v2.delta_frames_sent > 0, "no deltas on a chained stream");
    assert!(v2.keyframes_sent > 0, "chains must start with keyframes");
}
