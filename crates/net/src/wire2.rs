//! Bit-level packing and per-link clock delta chains: the primitives of
//! the wire codec (`codec.rs`).
//!
//! The paper's bit bound is `O(n²m)` because every snapshot carries a
//! full n-component vector clock (`wire_size()` counts `8n` bytes for
//! it). Consecutive clocks shipped on one link differ in few components,
//! so the codec encodes a clock as a delta against the last clock
//! shipped on that link: a changed-component bitmap plus zigzag varint
//! deltas, with a periodic full-clock *keyframe* bounding the chain. The
//! primitives here are std-only and deliberately small:
//!
//! - [`BitWriter`] / [`BitReader`] — MSB-first bit streams over plain
//!   byte buffers (the writer appends straight into the outbound batch,
//!   so the batched send path stays zero-copy);
//! - unsigned varints (7-bit groups, continuation-bit first) and
//!   [`zigzag`]/[`unzigzag`] signed mapping, so arbitrary `u64`
//!   components round-trip under wrapping delta arithmetic;
//! - [`ClockChains`] — the per-link delta state, keyed by originating
//!   actor and stream class, advanced in lockstep by the sending and
//!   receiving endpoints (receivers decode at in-sequence promotion,
//!   after dedup, so ACK-truncated replay and reconnect recovery replay
//!   the exact bytes and never double-advance a chain).
//!
//! Chain framing (one clock, inside a frame body):
//!
//! ```text
//! keyframe: 1 ┆ varint n ┆ n × varint component
//! delta:    0 ┆ varint n ┆ n-bit changed bitmap ┆ varint zigzag per set bit
//! ```
//!
//! A sender emits a keyframe when the chain is fresh, when the clock
//! width changes, or every [`KEYFRAME_EVERY`] frames; a delta frame whose
//! width disagrees with the chain is a decode error (corrupt stream).

use std::collections::BTreeMap;

use crate::codec::CodecError;

/// Cadence of full-clock keyframes on a delta chain: after this many
/// consecutive delta frames the sender re-ships the whole clock, bounding
/// how much history a (hypothetically) diverged chain can poison.
pub const KEYFRAME_EVERY: u32 = 32;

/// Chain class of an app-message vector clock (`APP_VECTOR` bodies).
pub const CLASS_APP: u8 = 0;
/// Chain class of a local-snapshot clock (`VC_SNAPSHOT` bodies).
pub const CLASS_SNAPSHOT: u8 = 1;

/// MSB-first bit appender over a borrowed byte buffer.
///
/// Borrowing the output vector lets the frame encoder write bit-packed
/// bodies directly into a link's outbound batch with no intermediate
/// allocation. [`BitWriter::finish`] zero-pads the final partial byte.
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    cur: u8,
    filled: u32,
}

impl<'a> BitWriter<'a> {
    /// Starts a bit stream appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            out,
            cur: 0,
            filled: 0,
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | u8::from(bit);
        self.filled += 1;
        if self.filled == 8 {
            self.out.push(self.cur);
            self.cur = 0;
            self.filled = 0;
        }
    }

    /// Appends the low `bits` bits of `value`, most significant first,
    /// filling the current byte a whole run of bits at a time.
    pub fn write_bits(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        if self.filled == 0 && bits == 8 {
            self.out.push(value as u8);
            return;
        }
        let mut left = bits;
        while left > 0 {
            let take = left.min(8 - self.filled);
            left -= take;
            let run = (value >> left) as u32 & ((1 << take) - 1);
            // `filled + take ≤ 8`, so the shift drops no set bit.
            self.cur = ((u32::from(self.cur) << take) | run) as u8;
            self.filled += take;
            if self.filled == 8 {
                self.out.push(self.cur);
                self.cur = 0;
                self.filled = 0;
            }
        }
    }

    /// Appends whole bytes: straight onto the buffer when the stream is
    /// byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        if self.filled == 0 {
            self.out.extend_from_slice(bytes);
            return;
        }
        for &byte in bytes {
            self.write_bits(u64::from(byte), 8);
        }
    }

    /// Appends an unsigned varint: 7-bit groups low-to-high, each
    /// preceded by a continuation bit.
    pub fn write_varint(&mut self, mut v: u64) {
        loop {
            let group = v & 0x7F;
            v >>= 7;
            self.write_bits(u64::from(v != 0) << 7 | group, 8);
            if v == 0 {
                break;
            }
        }
    }

    /// Flushes the final partial byte (zero-padded on the right).
    pub fn finish(self) {
        if self.filled > 0 {
            self.out.push(self.cur << (8 - self.filled));
        }
    }
}

/// MSB-first bit reader over a byte slice.
pub struct BitReader<'a> {
    buf: &'a [u8],
    at_bit: usize,
}

impl<'a> BitReader<'a> {
    /// Starts reading at the first bit of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, at_bit: 0 }
    }

    /// Bits left in the stream.
    pub fn bits_remaining(&self) -> usize {
        self.buf.len() * 8 - self.at_bit
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        let byte = *self.buf.get(self.at_bit / 8).ok_or(CodecError::Truncated)?;
        let bit = byte & (0x80 >> (self.at_bit % 8)) != 0;
        self.at_bit += 1;
        Ok(bit)
    }

    /// Reads `bits` bits, most significant first, a whole run of the
    /// current byte at a time.
    pub fn read_bits(&mut self, bits: u32) -> Result<u64, CodecError> {
        debug_assert!(bits <= 64);
        if bits as usize > self.bits_remaining() {
            return Err(CodecError::Truncated);
        }
        if bits == 8 && self.at_bit.is_multiple_of(8) {
            self.at_bit += 8;
            return Ok(u64::from(self.buf[self.at_bit / 8 - 1]));
        }
        let mut v = 0u64;
        let mut left = bits;
        while left > 0 {
            let avail = 8 - (self.at_bit % 8) as u32;
            let take = left.min(avail);
            let byte = u32::from(self.buf[self.at_bit / 8]);
            v = (v << take) | u64::from((byte >> (avail - take)) & ((1 << take) - 1));
            self.at_bit += take as usize;
            left -= take;
        }
        Ok(v)
    }

    /// Reads an unsigned varint written by [`BitWriter::write_varint`].
    pub fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut acc = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_bits(8)?;
            let (more, group) = (byte & 0x80 != 0, byte & 0x7F);
            if shift >= 64 || (shift == 63 && group > 1) {
                return Err(CodecError::BadLength(self.buf.len()));
            }
            acc |= group << shift;
            if !more {
                return Ok(acc);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit 32 bits (a peer, actor or process id).
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.read_varint()?).map_err(|_| CodecError::OutOfRange("32-bit field"))
    }

    /// Reads a count of items of at least `min_bits` each, refusing one
    /// the bits left cannot hold before anything is sized by it.
    pub fn read_count(&mut self, min_bits: usize) -> Result<usize, CodecError> {
        let count = self.read_varint()?;
        if count > (self.bits_remaining() / min_bits) as u64 {
            return Err(CodecError::OutOfRange("count"));
        }
        Ok(count as usize)
    }

    /// The unread bytes, from the next whole byte on.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.at_bit.div_ceil(8)..]
    }

    /// Verifies only zero padding (less than one byte of it) remains: a
    /// body ends where its last field ends.
    pub fn expect_padding(&mut self) -> Result<(), CodecError> {
        if self.bits_remaining() >= 8 {
            return Err(CodecError::BadLength(self.buf.len()));
        }
        while self.bits_remaining() > 0 {
            if self.read_bit()? {
                return Err(CodecError::BadLength(self.buf.len()));
            }
        }
        Ok(())
    }
}

/// Maps a signed value to an unsigned one with small magnitudes staying
/// small (protobuf's zigzag), so near-monotone clock deltas cost one
/// varint group.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One directed chain: the last clock shipped (or decoded) and how many
/// delta frames have run since the last keyframe.
#[derive(Clone)]
struct Chain {
    last: Vec<u64>,
    since_key: u32,
}

/// What one chained clock encode produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainFrame {
    /// A full-clock keyframe.
    Keyframe,
    /// A bitmap + deltas frame.
    Delta,
}

/// Per-link delta-compression state: one `Chain` per (originating
/// actor, stream class). The sending endpoint holds one per outbound
/// link; the receiving endpoint holds the mirror per inbound peer and
/// advances it in sequence order, so both ends replay the identical
/// chain no matter how the transport batched, dropped, or replayed the
/// frames in between.
#[derive(Clone, Default)]
pub struct ClockChains {
    chains: BTreeMap<(u32, u8), Chain>,
}

impl ClockChains {
    /// Fresh, keyframe-forcing state (used on both ends of a new link).
    pub fn new() -> Self {
        ClockChains::default()
    }

    /// Encodes `clock` against the `(from, class)` chain into `w` and
    /// advances the chain. Returns which frame flavour was emitted.
    pub fn encode_clock(
        &mut self,
        from: u32,
        class: u8,
        clock: &[u64],
        w: &mut BitWriter<'_>,
    ) -> ChainFrame {
        let chain = self.chains.entry((from, class)).or_insert(Chain {
            last: Vec::new(),
            since_key: KEYFRAME_EVERY,
        });
        let keyframe = chain.last.len() != clock.len() || chain.since_key >= KEYFRAME_EVERY;
        if keyframe {
            w.write_bit(true);
            w.write_varint(clock.len() as u64);
            for &c in clock {
                w.write_varint(c);
            }
            chain.since_key = 0;
        } else {
            w.write_bit(false);
            w.write_varint(clock.len() as u64);
            for (&old, &new) in chain.last.iter().zip(clock) {
                w.write_bit(old != new);
            }
            for (&old, &new) in chain.last.iter().zip(clock) {
                if old != new {
                    w.write_varint(zigzag(new.wrapping_sub(old) as i64));
                }
            }
            chain.since_key += 1;
        }
        chain.last.clear();
        chain.last.extend_from_slice(clock);
        if keyframe {
            ChainFrame::Keyframe
        } else {
            ChainFrame::Delta
        }
    }

    /// Decodes one chained clock from `r`, advancing the `(from, class)`
    /// chain exactly as [`ClockChains::encode_clock`] did on the sender.
    pub fn decode_clock(
        &mut self,
        from: u32,
        class: u8,
        r: &mut BitReader<'_>,
    ) -> Result<Vec<u64>, CodecError> {
        let keyframe = r.read_bit()?;
        let n = r.read_varint()? as usize;
        // A component costs ≥ 8 bits in a keyframe and ≥ 1 bitmap bit in
        // a delta, so any width claim beyond the remaining bits is
        // corrupt — reject it before allocating.
        if n > r.bits_remaining() / if keyframe { 8 } else { 1 } {
            return Err(CodecError::BadLength(n));
        }
        let chain = self.chains.entry((from, class)).or_insert(Chain {
            last: Vec::new(),
            since_key: KEYFRAME_EVERY,
        });
        if keyframe {
            let mut clock = Vec::with_capacity(n);
            for _ in 0..n {
                clock.push(r.read_varint()?);
            }
            chain.since_key = 0;
            chain.last.clear();
            chain.last.extend_from_slice(&clock);
            Ok(clock)
        } else {
            if chain.last.len() != n {
                return Err(CodecError::BadLength(n));
            }
            let mut changed = vec![false; n];
            for c in changed.iter_mut() {
                *c = r.read_bit()?;
            }
            let mut clock = chain.last.clone();
            for (i, &c) in changed.iter().enumerate() {
                if c {
                    let delta = unzigzag(r.read_varint()?);
                    clock[i] = clock[i].wrapping_add(delta as u64);
                }
            }
            chain.since_key += 1;
            chain.last.clear();
            chain.last.extend_from_slice(&clock);
            Ok(clock)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_varints_roundtrip() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        w.write_bit(true);
        w.write_bits(0b1011, 4);
        for v in [0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1] {
            w.write_varint(v);
        }
        w.finish();
        let mut r = BitReader::new(&buf);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        for v in [0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1] {
            assert_eq!(r.read_varint().unwrap(), v);
        }
        r.expect_padding().unwrap();
    }

    #[test]
    fn truncated_streams_and_dirty_padding_are_rejected() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        w.write_varint(u64::MAX);
        w.finish();
        let mut r = BitReader::new(&buf[..buf.len() - 1]);
        assert!(r.read_varint().is_err(), "truncated varint");
        let mut dirty = Vec::new();
        let mut w = BitWriter::new(&mut dirty);
        w.write_bit(false);
        w.write_bit(true); // non-zero padding after a 1-bit payload
        w.finish();
        let mut r = BitReader::new(&dirty);
        assert!(!r.read_bit().unwrap());
        assert!(r.expect_padding().is_err());
    }

    #[test]
    fn counts_and_ids_beyond_their_range_are_refused() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        w.write_varint(u64::from(u32::MAX) + 1);
        w.write_varint(3); // a count of three one-byte items...
        w.write_varint(1);
        w.write_varint(2); // ...with two in the stream
        w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_u32(), Err(CodecError::OutOfRange("32-bit field")));
        assert_eq!(r.read_count(8), Err(CodecError::OutOfRange("count")));
        let mut r = BitReader::new(&[1, 1, 2]);
        assert_eq!(r.read_count(16), Ok(1), "two bytes hold one 16-bit item");
        assert_eq!(r.rest(), [1, 2]);
    }

    #[test]
    fn zigzag_is_a_bijection_on_the_edges() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1, "small magnitudes stay small");
        assert_eq!(zigzag(1), 2);
    }

    fn roundtrip_chain(clocks: &[Vec<u64>]) {
        let mut enc = ClockChains::new();
        let mut dec = ClockChains::new();
        for clock in clocks {
            let mut buf = Vec::new();
            let mut w = BitWriter::new(&mut buf);
            enc.encode_clock(7, CLASS_SNAPSHOT, clock, &mut w);
            w.finish();
            let mut r = BitReader::new(&buf);
            let got = dec.decode_clock(7, CLASS_SNAPSHOT, &mut r).unwrap();
            r.expect_padding().unwrap();
            assert_eq!(&got, clock);
        }
    }

    #[test]
    fn delta_chains_reconstruct_arbitrary_clock_sequences() {
        roundtrip_chain(&[
            vec![0, 0, 0],
            vec![1, 0, 0],
            vec![1, 5, 0],
            vec![u64::MAX, 5, 3],
            vec![0, 5, 3], // wraps back down
            vec![0, 5, 3], // no change at all
        ]);
        // Width changes force keyframes mid-chain.
        roundtrip_chain(&[vec![1, 2], vec![1, 2, 3], vec![2, 2, 3], vec![9]]);
    }

    #[test]
    fn keyframes_recur_on_the_cadence() {
        let mut enc = ClockChains::new();
        let mut sink = Vec::new();
        let mut kinds = Vec::new();
        for i in 0..(KEYFRAME_EVERY * 2 + 2) {
            let clock = vec![u64::from(i), 0, 0];
            let mut w = BitWriter::new(&mut sink);
            kinds.push(enc.encode_clock(1, CLASS_APP, &clock, &mut w));
            w.finish();
        }
        assert_eq!(kinds[0], ChainFrame::Keyframe, "fresh chain keyframes");
        assert_eq!(kinds[1], ChainFrame::Delta);
        assert_eq!(kinds[KEYFRAME_EVERY as usize + 1], ChainFrame::Keyframe);
        let deltas = kinds.iter().filter(|k| **k == ChainFrame::Delta).count();
        assert_eq!(deltas as u32, KEYFRAME_EVERY * 2);
    }

    #[test]
    fn chains_are_independent_per_actor_and_class() {
        let mut enc = ClockChains::new();
        let mut dec = ClockChains::new();
        let streams: [(u32, u8, Vec<Vec<u64>>); 3] = [
            (1, CLASS_APP, vec![vec![1, 1], vec![2, 1]]),
            (1, CLASS_SNAPSHOT, vec![vec![100], vec![101]]),
            (2, CLASS_APP, vec![vec![7, 7, 7], vec![7, 8, 7]]),
        ];
        // Interleave: one frame per stream per round.
        for round in 0..2 {
            for (from, class, clocks) in &streams {
                let mut buf = Vec::new();
                let mut w = BitWriter::new(&mut buf);
                enc.encode_clock(*from, *class, &clocks[round], &mut w);
                w.finish();
                let mut r = BitReader::new(&buf);
                let got = dec.decode_clock(*from, *class, &mut r).unwrap();
                assert_eq!(&got, &clocks[round]);
            }
        }
    }

    #[test]
    fn delta_frames_against_a_fresh_chain_are_rejected() {
        let mut enc = ClockChains::new();
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        enc.encode_clock(1, CLASS_APP, &[5, 5], &mut w);
        w.finish();
        let mut delta = Vec::new();
        let mut w = BitWriter::new(&mut delta);
        enc.encode_clock(1, CLASS_APP, &[5, 6], &mut w);
        w.finish();
        // Decoder that never saw the keyframe must refuse the delta.
        let mut dec = ClockChains::new();
        let mut r = BitReader::new(&delta);
        assert!(dec.decode_clock(1, CLASS_APP, &mut r).is_err());
    }
}
