//! Cyclic buffer address arithmetic.
//!
//! Eclipse stream FIFOs are fixed-size cyclic regions of the linear SRAM
//! address space (paper Section 5.1, Figure 6). The shell translates
//! `(access point, offset, n_bytes)` coordinates inside the conceptual
//! "infinite tape" of a stream into one or two linear memory segments,
//! wrapping at the buffer end.

/// A linear memory segment: absolute start address and length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Absolute byte address of the first byte.
    pub addr: u32,
    /// Length in bytes (always > 0 for segments returned by this module).
    pub len: u32,
}

/// A fixed-size cyclic buffer at `base` of `size` bytes in a linear
/// address space. The zero-size default is only a placeholder for a
/// checkpoint to load into; restore rejects a buffer that is still
/// zero-size after loading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CyclicBuffer {
    /// Absolute base address.
    pub base: u32,
    /// Buffer size in bytes. Must be > 0.
    pub size: u32,
}

eclipse_sim::snap_fields!(CyclicBuffer { base, size });

impl CyclicBuffer {
    /// Create a buffer descriptor. `size` must be non-zero.
    pub fn new(base: u32, size: u32) -> Self {
        assert!(size > 0, "cyclic buffer must have non-zero size");
        CyclicBuffer { base, size }
    }

    /// Advance an in-buffer offset by `n`, wrapping at `size`.
    ///
    /// `n` may exceed `size` (multiple wraps are folded by the modulo).
    #[inline]
    pub fn wrap_add(&self, offset: u32, n: u32) -> u32 {
        // Offsets kept by the shell are already `< size` and advances are
        // `<= size`, so a single conditional subtraction covers the hot
        // path without the u64 division.
        let sum = offset as u64 + n as u64;
        if sum < self.size as u64 {
            sum as u32
        } else if sum < 2 * self.size as u64 {
            (sum - self.size as u64) as u32
        } else {
            (sum % self.size as u64) as u32
        }
    }

    /// Absolute address of in-buffer offset `offset` (which must be
    /// `< size`).
    #[inline]
    pub fn abs(&self, offset: u32) -> u32 {
        debug_assert!(offset < self.size);
        self.base + offset
    }

    /// Translate an access of `len` bytes starting at in-buffer `offset`
    /// into one or two linear segments. `len` must be `<= size` (an access
    /// can never exceed the whole buffer — the shell guarantees this via
    /// the GetSpace window discipline).
    #[inline]
    pub fn segments(&self, offset: u32, len: u32) -> (Segment, Option<Segment>) {
        debug_assert!(
            len <= self.size,
            "access larger than buffer: {} > {}",
            len,
            self.size
        );
        let offset = if offset < self.size {
            offset
        } else {
            offset % self.size
        };
        let first_len = len.min(self.size - offset);
        let first = Segment {
            addr: self.base + offset,
            len: first_len,
        };
        let rest = len - first_len;
        let second = (rest > 0).then_some(Segment {
            addr: self.base,
            len: rest,
        });
        (first, second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_add_wraps() {
        let b = CyclicBuffer::new(0x100, 64);
        assert_eq!(b.wrap_add(0, 10), 10);
        assert_eq!(b.wrap_add(60, 4), 0);
        assert_eq!(b.wrap_add(60, 10), 6);
        assert_eq!(b.wrap_add(0, 64), 0);
        assert_eq!(b.wrap_add(0, 130), 2); // double wrap folds
    }

    #[test]
    fn segments_no_wrap() {
        let b = CyclicBuffer::new(0x100, 64);
        let (a, second) = b.segments(8, 16);
        assert_eq!(
            a,
            Segment {
                addr: 0x108,
                len: 16
            }
        );
        assert!(second.is_none());
    }

    #[test]
    fn segments_with_wrap() {
        let b = CyclicBuffer::new(0x100, 64);
        let (a, second) = b.segments(56, 16);
        assert_eq!(
            a,
            Segment {
                addr: 0x138,
                len: 8
            }
        );
        assert_eq!(
            second,
            Some(Segment {
                addr: 0x100,
                len: 8
            })
        );
    }

    #[test]
    fn segments_exactly_to_end() {
        let b = CyclicBuffer::new(0, 32);
        let (a, second) = b.segments(16, 16);
        assert_eq!(a, Segment { addr: 16, len: 16 });
        assert!(second.is_none());
    }

    #[test]
    fn segments_full_buffer() {
        let b = CyclicBuffer::new(0x40, 32);
        let (a, second) = b.segments(8, 32);
        assert_eq!(
            a,
            Segment {
                addr: 0x48,
                len: 24
            }
        );
        assert_eq!(second, Some(Segment { addr: 0x40, len: 8 }));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The two segments of any access cover exactly `len` bytes, stay
        /// within the buffer, and the second segment exists iff the access
        /// wraps.
        #[test]
        fn segments_cover_len(base in 0u32..1_000_000, size in 1u32..4096, offset in 0u32..8192, frac in 0.0f64..1.0) {
            let len = (frac * size as f64) as u32;
            let b = CyclicBuffer::new(base, size);
            let (a, second) = b.segments(offset, len.min(size));
            let total = a.len + second.map_or(0, |s| s.len);
            prop_assert_eq!(total, len.min(size).max(if len == 0 { 0 } else { len.min(size) }));
            prop_assert!(a.addr >= base && a.addr + a.len <= base + size);
            if let Some(s) = second {
                prop_assert_eq!(s.addr, base);
                prop_assert!(s.len <= size);
            }
        }

        /// wrap_add is consistent with repeated increment.
        #[test]
        fn wrap_add_matches_iteration(size in 1u32..512, offset in 0u32..512, n in 0u32..2048) {
            let b = CyclicBuffer::new(0, size);
            let offset = offset % size;
            let mut o = offset;
            for _ in 0..n {
                o = (o + 1) % size;
            }
            prop_assert_eq!(b.wrap_add(offset, n), o);
        }
    }
}
