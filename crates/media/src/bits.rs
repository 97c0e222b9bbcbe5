//! MSB-first bit-level I/O for the elementary stream.

/// Writes bits MSB-first into a growing byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the current (last) byte, 0..8.
    bit_pos: u8,
}

eclipse_sim::snap_fields!(
    /// The accumulated bytes and the bits used in the last byte;
    /// loading rejects a position no writer can reach.
    BitWriter { bytes, bit_pos } then BitWriter::check_position
);

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_position(&mut self) -> Result<(), eclipse_sim::SnapError> {
        if self.bit_pos >= 8 || (self.bit_pos != 0 && self.bytes.is_empty()) {
            return Err(eclipse_sim::SnapError::Corrupt("vle writer bit position"));
        }
        Ok(())
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Write the low `n` bits of `v`, MSB first. `n` must be <= 32.
    ///
    /// The leading bits fill the partial last byte, whole bytes follow,
    /// and the trailing bits start a new partial byte; bits of `v` above
    /// the low `n` are ignored.
    #[inline]
    pub fn put_bits(&mut self, v: u32, n: u8) {
        debug_assert!(n <= 32);
        debug_assert!(
            n == 32 || v < (1u64 << n) as u32,
            "value {v} does not fit in {n} bits"
        );
        // Bits of `v` still to write: its low `left`.
        let mut left = n as u32;
        if self.bit_pos != 0 && left > 0 {
            let room = 8 - self.bit_pos as u32;
            let take = room.min(left);
            left -= take;
            let bits = (v >> left) as u8 & ((1u8 << take) - 1);
            let last = self.bytes.last_mut().expect("a partial byte exists");
            *last |= bits << (room - take);
            self.bit_pos = (self.bit_pos + take as u8) % 8;
        }
        while left >= 8 {
            left -= 8;
            self.bytes.push((v >> left) as u8);
        }
        if left > 0 {
            self.bytes.push((v << (8 - left)) as u8);
            self.bit_pos = left as u8;
        }
    }

    /// Write a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u32, 1);
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn byte_align(&mut self) {
        if self.bit_pos != 0 {
            let pad = 8 - self.bit_pos;
            self.put_bits(0, pad);
        }
    }

    /// Append whole bytes (must be byte-aligned).
    pub fn put_bytes(&mut self, data: &[u8]) {
        assert_eq!(self.bit_pos, 0, "put_bytes requires byte alignment");
        self.bytes.extend_from_slice(data);
    }

    /// Finish, padding to a byte boundary, and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.byte_align();
        self.bytes
    }

    /// Move all *complete* bytes written so far onto the end of `out`,
    /// keeping any partially filled trailing byte in place. Used by
    /// streaming entropy-coder tasks (VLE) that emit their output
    /// incrementally.
    pub fn drain_complete_into(&mut self, out: &mut Vec<u8>) {
        let complete = self.bytes.len() - (self.bit_pos != 0) as usize;
        out.extend_from_slice(&self.bytes[..complete]);
        self.bytes.drain(..complete);
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit position.
    pos: usize,
}

/// Error returned when a read runs past the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndOfStream;

impl std::fmt::Display for EndOfStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unexpected end of bitstream")
    }
}

impl std::error::Error for EndOfStream {}

impl<'a> BitReader<'a> {
    /// A reader over `data` starting at bit 0.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Jump to an absolute bit position (hardware VLD resume point).
    pub fn seek(&mut self, bit_pos: usize) {
        debug_assert!(bit_pos <= self.data.len() * 8);
        self.pos = bit_pos;
    }

    /// Bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    /// Read one bit.
    pub fn get_bit(&mut self) -> Result<bool, EndOfStream> {
        if self.pos >= self.data.len() * 8 {
            return Err(EndOfStream);
        }
        let byte = self.data[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit != 0)
    }

    /// Read `n` bits (<= 32), MSB first: one [`BitReader::peek_bits`]
    /// and a seek past the bits.
    #[inline]
    pub fn get_bits(&mut self, n: u8) -> Result<u32, EndOfStream> {
        debug_assert!(n <= 32);
        if self.remaining_bits() < n as usize {
            return Err(EndOfStream);
        }
        let v = self.peek_bits(n);
        self.pos += n as usize;
        Ok(v)
    }

    /// Peek at up to `n` bits (<= 32) without consuming; missing bits
    /// beyond the end are returned as zeros (callers must bound their use
    /// via code lengths).
    #[inline]
    pub fn peek_bits(&self, n: u8) -> u32 {
        debug_assert!(n <= 32);
        if n == 0 {
            return 0;
        }
        // The bits live in the eight bytes from the read head's byte
        // (n + bit offset <= 32 + 7 < 64).
        ((self.window() << (self.pos % 8)) >> (64 - n as u32)) as u32
    }

    /// The eight bytes from the one holding the read head, big-endian;
    /// bytes past the end read as zero (the zero-fill contract of
    /// [`BitReader::peek_bits`]).
    #[inline]
    fn window(&self) -> u64 {
        let byte = self.pos / 8;
        match self.data.get(byte..byte + 8) {
            Some(w) => u64::from_be_bytes(w.try_into().expect("an 8-byte slice")),
            None => {
                let tail = self.data.get(byte..).unwrap_or_default();
                let mut w = [0u8; 8];
                w[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(w)
            }
        }
    }

    /// Skip to the next byte boundary.
    pub fn byte_align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

    #[test]
    fn writer_snapshot_round_trips_and_rejects_bad_positions() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        let mut out = SnapWriter::new();
        w.save(&mut out);
        let mut back = BitWriter::new();
        back.load(&mut SnapReader::new(out.bytes())).unwrap();
        assert_eq!((back.bytes.clone(), back.bit_pos), (w.bytes.clone(), 3));
        // Bytes then position: no bytes with a partial byte, and a
        // position past the byte.
        for (bytes, pos) in [(Vec::<u8>::new(), 1u8), (vec![0xA0], 8)] {
            let mut crafted = SnapWriter::new();
            bytes.save(&mut crafted);
            crafted.u8(pos);
            assert_eq!(
                BitWriter::new().load(&mut SnapReader::new(crafted.bytes())),
                Err(SnapError::Corrupt("vle writer bit position"))
            );
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0xFF, 8);
        w.put_bits(0, 1);
        w.put_bits(0x1234, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(8).unwrap(), 0xFF);
        assert_eq!(r.get_bits(1).unwrap(), 0);
        assert_eq!(r.get_bits(16).unwrap(), 0x1234);
    }

    #[test]
    fn byte_align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.put_bits(0b11, 2);
        w.byte_align();
        w.put_bytes(&[0xAB]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1100_0000, 0xAB]);
        let mut r = BitReader::new(&bytes);
        r.get_bits(2).unwrap();
        r.byte_align();
        assert_eq!(r.get_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn bit_len_tracks_position() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.put_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.put_bits(0b1010, 4);
        assert_eq!(w.bit_len(), 12);
    }

    #[test]
    fn reader_detects_end_of_stream() {
        let bytes = [0xA5u8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(8).unwrap(), 0xA5);
        assert_eq!(r.get_bit(), Err(EndOfStream));
        assert_eq!(r.get_bits(4), Err(EndOfStream));
    }

    #[test]
    fn peek_does_not_consume() {
        let bytes = [0b1011_0001u8, 0xFF];
        let r0 = BitReader::new(&bytes);
        assert_eq!(r0.peek_bits(4), 0b1011);
        let mut r = r0.clone();
        assert_eq!(r.get_bits(4).unwrap(), 0b1011);
        assert_eq!(r.peek_bits(4), 0b0001);
    }

    #[test]
    fn peek_past_end_zero_fills() {
        let bytes = [0b1000_0000u8];
        let mut r = BitReader::new(&bytes);
        r.get_bits(7).unwrap();
        // 1 bit remains (value 0); peek 8 must not fail.
        assert_eq!(r.peek_bits(8), 0);
    }

    #[test]
    fn thirty_two_bit_values() {
        let mut w = BitWriter::new();
        w.put_bits(0xDEAD_BEEF, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(32).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn many_single_bits() {
        let mut w = BitWriter::new();
        let pattern: Vec<bool> = (0..1000).map(|i| (i * 7) % 3 == 0).collect();
        for &b in &pattern {
            w.put_bit(b);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(r.get_bit().unwrap(), b, "bit {i}");
        }
    }
}

/// The reader is checked bit for bit against a bitwise one, at every
/// position of short streams: tails, byte edges and the end.
#[cfg(test)]
mod equivalence {
    use super::*;
    use eclipse_sim::rng::SplitMix64;

    /// Bit `pos` of `data` MSB first, zero past the end.
    fn bit(data: &[u8], pos: usize) -> u32 {
        data.get(pos / 8)
            .map_or(0, |b| (b >> (7 - pos % 8)) as u32 & 1)
    }

    fn peek_bitwise(data: &[u8], pos: usize, n: u8) -> u32 {
        (0..n as usize).fold(0, |v, i| (v << 1) | bit(data, pos + i))
    }

    #[test]
    fn get_and_peek_match_bitwise_reads() {
        let mut rng = SplitMix64::new(0xB175);
        for len in 0..14 {
            for _ in 0..8 {
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                for pos in 0..=len * 8 {
                    for n in 0..=32u8 {
                        let mut r = BitReader::new(&data);
                        r.seek(pos);
                        assert_eq!(
                            r.peek_bits(n),
                            peek_bitwise(&data, pos, n),
                            "peek {n} at {pos}"
                        );
                        let got = r.get_bits(n);
                        if pos + n as usize <= len * 8 {
                            assert_eq!(got, Ok(peek_bitwise(&data, pos, n)), "get {n} at {pos}");
                            assert_eq!(r.bit_pos(), pos + n as usize);
                        } else {
                            assert_eq!(got, Err(EndOfStream), "get {n} at {pos}");
                            assert_eq!(r.bit_pos(), pos);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The writer as it was first written, one bit per loop turn: the
    /// oracle of [`BitWriter::put_bits`].
    #[derive(Default)]
    struct BitwiseWriter {
        bytes: Vec<u8>,
        bit_pos: u8,
    }

    impl BitwiseWriter {
        fn put_bits(&mut self, v: u32, n: u8) {
            for i in (0..n).rev() {
                let bit = (v >> i) & 1;
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                let last = self.bytes.len() - 1;
                self.bytes[last] |= (bit as u8) << (7 - self.bit_pos);
                self.bit_pos = (self.bit_pos + 1) % 8;
            }
        }

        fn byte_align(&mut self) {
            if self.bit_pos != 0 {
                self.put_bits(0, 8 - self.bit_pos);
            }
        }
    }

    proptest! {
        /// Fields of every width 0..=32 mixed with `byte_align`,
        /// `put_bytes` (after an align) and the VLE's incremental drain,
        /// which keeps only a partial byte: after every operation, the
        /// drained bytes followed by the kept ones are the oracle's
        /// bytes, and the bit position and length agree.
        #[test]
        fn put_bits_matches_the_bitwise_writer(
            ops in proptest::collection::vec((0u8..12, 0u32..=u32::MAX, 0u8..=32), 0..200),
        ) {
            let (mut w, mut oracle) = (BitWriter::new(), BitwiseWriter::default());
            let mut drained = Vec::new();
            for (op, v, n) in ops {
                match op {
                    0..=7 => {
                        let v = if n == 32 { v } else { v & ((1u32 << n) - 1) };
                        w.put_bits(v, n);
                        oracle.put_bits(v, n);
                    }
                    8 => {
                        w.byte_align();
                        oracle.byte_align();
                    }
                    9 => {
                        let data = &v.to_be_bytes()[..n as usize % 5];
                        w.byte_align();
                        w.put_bytes(data);
                        oracle.byte_align();
                        oracle.bytes.extend_from_slice(data);
                    }
                    _ => {
                        w.drain_complete_into(&mut drained);
                        prop_assert!(w.bytes.len() == (w.bit_pos != 0) as usize);
                    }
                }
                let kept = [&drained[..], &w.bytes[..]].concat();
                prop_assert_eq!((kept, w.bit_pos), (oracle.bytes.clone(), oracle.bit_pos));
                prop_assert_eq!(drained.len() * 8 + w.bit_len(), oracle.bytes.len() * 8 - (8 - oracle.bit_pos as usize) % 8);
            }
        }

        /// Any sequence of (value, width) writes reads back identically.
        #[test]
        fn arbitrary_field_round_trip(fields in proptest::collection::vec((0u32..=u32::MAX, 1u8..=32), 0..100)) {
            let mut w = BitWriter::new();
            let masked: Vec<(u32, u8)> = fields
                .iter()
                .map(|&(v, n)| (if n == 32 { v } else { v & ((1u32 << n) - 1) }, n))
                .collect();
            for &(v, n) in &masked {
                w.put_bits(v, n);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &masked {
                prop_assert_eq!(r.get_bits(n).unwrap(), v);
            }
        }
    }
}
