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
    pub fn put_bits(&mut self, v: u32, n: u8) {
        debug_assert!(n <= 32);
        debug_assert!(
            n == 32 || v < (1u64 << n) as u32,
            "value {v} does not fit in {n} bits"
        );
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

    /// Remove and return all *complete* bytes written so far, keeping any
    /// partially filled trailing byte in place. Used by streaming
    /// entropy-coder tasks (VLE) that emit their output incrementally.
    pub fn drain_complete_bytes(&mut self) -> Vec<u8> {
        if self.bit_pos == 0 {
            std::mem::take(&mut self.bytes)
        } else {
            let last = self
                .bytes
                .pop()
                .expect("bit_pos != 0 implies a partial byte");
            let out = std::mem::take(&mut self.bytes);
            self.bytes.push(last);
            out
        }
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

    /// Read `n` bits (<= 32), MSB first.
    pub fn get_bits(&mut self, n: u8) -> Result<u32, EndOfStream> {
        debug_assert!(n <= 32);
        if self.remaining_bits() < n as usize {
            return Err(EndOfStream);
        }
        let mut v: u32 = 0;
        // Fast path byte-at-a-time when aligned.
        let mut left = n;
        while left >= 8 && self.pos.is_multiple_of(8) {
            v = (v << 8) | self.data[self.pos / 8] as u32;
            self.pos += 8;
            left -= 8;
        }
        for _ in 0..left {
            let byte = self.data[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Peek at up to `n` bits without consuming; missing bits beyond the
    /// end are returned as zeros (callers must bound their use via code
    /// lengths).
    pub fn peek_bits(&self, n: u8) -> u32 {
        debug_assert!(n <= 32);
        if n == 0 {
            return 0;
        }
        if n <= 25 {
            // Fast path: the bits live in at most 4 consecutive bytes
            // (n + bit offset <= 25 + 7 = 32). Bytes past the end read as
            // zero, preserving the zero-fill contract.
            let byte = self.pos / 8;
            let off = (self.pos % 8) as u32;
            let mut window: u32 = 0;
            for i in 0..4 {
                let b = self.data.get(byte + i).copied().unwrap_or(0);
                window = (window << 8) | b as u32;
            }
            return (window << off) >> (32 - n as u32);
        }
        let mut clone = self.clone();
        let avail = clone.remaining_bits().min(n as usize) as u8;
        let v = clone.get_bits(avail).unwrap_or(0);
        v << (n - avail)
    }

    /// Skip to the next byte boundary.
    pub fn byte_align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// True when byte-aligned.
    pub fn is_byte_aligned(&self) -> bool {
        self.pos.is_multiple_of(8)
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
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
