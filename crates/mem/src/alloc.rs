//! Run-time cyclic-buffer allocation in the shared SRAM.
//!
//! The paper (Section 3): "The strong requirements on flexibility led us to
//! design the Eclipse infrastructure with a centralized memory module where
//! communication buffers can be allocated at run-time." The CPU allocates a
//! cyclic buffer per stream when configuring an application graph and frees
//! it when the application is torn down.
//!
//! This is a first-fit free-list allocator over the SRAM byte range with
//! alignment support and high-watermark accounting. It is deliberately
//! simple — allocation happens at application (re)configuration time, not
//! in the streaming hot path.

use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cyclic::CyclicBuffer;

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free region large enough (possibly due to fragmentation).
    OutOfMemory {
        /// Bytes requested.
        requested: u32,
        /// Largest contiguous free region available.
        largest_free: u32,
    },
    /// The aligned end address of the request does not fit in the 32-bit
    /// address space (the `(start + align - 1)` round-up or `start + size`
    /// would overflow `u32`).
    AddressOverflow {
        /// Bytes requested.
        requested: u32,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { requested, largest_free } => write!(
                f,
                "out of on-chip buffer memory: requested {requested} bytes, largest free region {largest_free} bytes"
            ),
            AllocError::AddressOverflow { requested } => write!(
                f,
                "buffer allocation of {requested} bytes overflows the 32-bit address space"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// First-fit allocator over a `[base, base+size)` byte range.
#[derive(Debug, Clone)]
pub struct BufferAllocator {
    base: u32,
    size: u32,
    /// Sorted, coalesced list of free `(start, len)` regions.
    free: Vec<(u32, u32)>,
    in_use: u32,
    high_watermark: u32,
}

impl BufferAllocator {
    /// An allocator managing `[base, base + size)`.
    pub fn new(base: u32, size: u32) -> Self {
        BufferAllocator {
            base,
            size,
            free: vec![(base, size)],
            in_use: 0,
            high_watermark: 0,
        }
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Peak bytes ever allocated simultaneously.
    pub fn high_watermark(&self) -> u32 {
        self.high_watermark
    }

    /// Largest single free region (what the next big alloc could get).
    pub fn largest_free(&self) -> u32 {
        self.free.iter().map(|&(_, len)| len).max().unwrap_or(0)
    }

    /// Total free bytes (may be fragmented).
    pub fn total_free(&self) -> u32 {
        self.free.iter().map(|&(_, len)| len).sum()
    }

    /// Allocate a cyclic buffer of `size` bytes aligned to `align`
    /// (a power of two).
    pub fn alloc(&mut self, size: u32, align: u32) -> Result<CyclicBuffer, AllocError> {
        assert!(size > 0, "zero-size buffer");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut overflowed = false;
        for i in 0..self.free.len() {
            let (start, len) = self.free[i];
            // Widen to u64: the round-up `(start + align - 1)` and the end
            // address `aligned + size` can both overflow u32 for large
            // sizes near the top of the address space.
            let aligned64 = (start as u64 + align as u64 - 1) & !(align as u64 - 1);
            let end64 = aligned64 + size as u64;
            if end64 > u32::MAX as u64 {
                overflowed = true;
                continue;
            }
            let aligned = aligned64 as u32;
            let pad = aligned - start;
            if len as u64 >= pad as u64 + size as u64 {
                // Carve [aligned, aligned+size) out of the region.
                let tail_start = aligned + size;
                let tail_len = len - pad - size;
                // Replace the region with up to two remainders.
                self.free.remove(i);
                if tail_len > 0 {
                    self.free.insert(i, (tail_start, tail_len));
                }
                if pad > 0 {
                    self.free.insert(i, (start, pad));
                }
                self.in_use += size;
                self.high_watermark = self.high_watermark.max(self.in_use);
                return Ok(CyclicBuffer::new(aligned, size));
            }
        }
        if overflowed {
            return Err(AllocError::AddressOverflow { requested: size });
        }
        Err(AllocError::OutOfMemory {
            requested: size,
            largest_free: self.largest_free(),
        })
    }

    /// Free a previously allocated buffer. Coalesces with neighbours.
    ///
    /// # Panics
    /// Panics if the buffer overlaps a free region (double free / corruption).
    pub fn free(&mut self, buf: CyclicBuffer) {
        let (start, len) = (buf.base, buf.size);
        assert!(
            start >= self.base && start as u64 + len as u64 <= self.base as u64 + self.size as u64,
            "freeing buffer outside managed range"
        );
        // Find insertion point keeping the list sorted by start.
        let idx = self.free.partition_point(|&(s, _)| s < start);
        // Check overlap with neighbours.
        if idx > 0 {
            let (ps, pl) = self.free[idx - 1];
            assert!(
                ps + pl <= start,
                "double free / overlap with preceding free region"
            );
        }
        if idx < self.free.len() {
            let (ns, _) = self.free[idx];
            assert!(
                start + len <= ns,
                "double free / overlap with following free region"
            );
        }
        self.free.insert(idx, (start, len));
        // Coalesce around idx.
        if idx + 1 < self.free.len() {
            let (s, l) = self.free[idx];
            let (ns, nl) = self.free[idx + 1];
            if s + l == ns {
                self.free[idx] = (s, l + nl);
                self.free.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (ps, pl) = self.free[idx - 1];
            let (s, l) = self.free[idx];
            if ps + pl == s {
                self.free[idx - 1] = (ps, pl + l);
                self.free.remove(idx);
            }
        }
        self.in_use -= len;
    }
}

impl Snapshot for BufferAllocator {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.base);
        w.u32(self.size);
        w.usize(self.free.len());
        for &(start, len) in &self.free {
            w.u32(start);
            w.u32(len);
        }
        w.u32(self.in_use);
        w.u32(self.high_watermark);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let base = r.u32()?;
        let size = r.u32()?;
        if base != self.base || size != self.size {
            return Err(SnapError::Corrupt("allocator range"));
        }
        let n = r.usize()?;
        self.free.clear();
        for _ in 0..n {
            let start = r.u32()?;
            let len = r.u32()?;
            self.free.push((start, len));
        }
        self.in_use = r.u32()?;
        self.high_watermark = r.u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mut a = BufferAllocator::new(0, 1024);
        let b1 = a.alloc(256, 16).unwrap();
        let b2 = a.alloc(256, 16).unwrap();
        assert_ne!(b1.base, b2.base);
        assert_eq!(a.in_use(), 512);
        a.free(b1);
        a.free(b2);
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.largest_free(), 1024); // fully coalesced
    }

    #[test]
    fn alignment_respected() {
        let mut a = BufferAllocator::new(4, 1020);
        let b = a.alloc(100, 64).unwrap();
        assert_eq!(b.base % 64, 0);
    }

    #[test]
    fn out_of_memory_reports_largest_free() {
        let mut a = BufferAllocator::new(0, 256);
        let _b = a.alloc(200, 1).unwrap();
        let err = a.alloc(100, 1).unwrap_err();
        assert_eq!(
            err,
            AllocError::OutOfMemory {
                requested: 100,
                largest_free: 56
            }
        );
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut a = BufferAllocator::new(0, 300);
        let b1 = a.alloc(100, 1).unwrap();
        let b2 = a.alloc(100, 1).unwrap();
        let b3 = a.alloc(100, 1).unwrap();
        a.free(b2);
        // Hole of 100 in the middle; can't fit 150.
        assert!(a.alloc(150, 1).is_err());
        a.free(b1);
        // Now [0, 200) is free and coalesced.
        assert!(a.alloc(150, 1).is_ok());
        a.free(b3);
    }

    #[test]
    fn high_watermark_tracks_peak() {
        let mut a = BufferAllocator::new(0, 1000);
        let b1 = a.alloc(400, 1).unwrap();
        let b2 = a.alloc(300, 1).unwrap();
        a.free(b1);
        let _b3 = a.alloc(100, 1).unwrap();
        assert_eq!(a.high_watermark(), 700);
        a.free(b2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = BufferAllocator::new(0, 1024);
        let b = a.alloc(128, 1).unwrap();
        a.free(b);
        a.free(b);
    }

    /// Regression (u32 overflow): a request whose aligned end address
    /// exceeds the 32-bit address space must report `AddressOverflow`, not
    /// wrap around and corrupt the free list.
    #[test]
    fn huge_request_near_address_top_reports_overflow() {
        let top = u32::MAX - 1024;
        let mut a = BufferAllocator::new(top, 1024);
        assert_eq!(
            a.alloc(2048, 4096).unwrap_err(),
            AllocError::AddressOverflow { requested: 2048 }
        );
        // A fitting request still succeeds afterwards.
        let b = a.alloc(512, 1).unwrap();
        assert_eq!(b.base, top);
        a.free(b);
        assert_eq!(a.total_free(), 1024);
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let mut a = BufferAllocator::new(0, 1000);
        let b1 = a.alloc(100, 1).unwrap();
        let _b2 = a.alloc(100, 1).unwrap();
        a.free(b1);
        let b3 = a.alloc(50, 1).unwrap();
        assert_eq!(b3.base, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random alloc/free sequences never hand out overlapping buffers
        /// and accounting stays consistent.
        #[test]
        fn no_overlapping_allocations(ops in proptest::collection::vec((1u32..512, 0u32..4u32, proptest::bool::ANY), 1..60)) {
            let mut a = BufferAllocator::new(0, 8192);
            let mut live: Vec<CyclicBuffer> = Vec::new();
            for (size, align_log, do_free) in ops {
                if do_free && !live.is_empty() {
                    let b = live.swap_remove(0);
                    a.free(b);
                } else if let Ok(b) = a.alloc(size, 1 << align_log) {
                    // Check no overlap with any live buffer.
                    for other in &live {
                        let disjoint = b.base + b.size <= other.base || other.base + other.size <= b.base;
                        prop_assert!(disjoint, "overlap: {:?} vs {:?}", b, other);
                    }
                    live.push(b);
                }
                let live_bytes: u32 = live.iter().map(|b| b.size).sum();
                prop_assert_eq!(a.in_use(), live_bytes);
            }
            // Free everything: allocator must return to a single region
            // minus nothing.
            for b in live.drain(..) {
                a.free(b);
            }
            prop_assert_eq!(a.in_use(), 0);
            prop_assert_eq!(a.total_free(), 8192);
            prop_assert_eq!(a.largest_free(), 8192);
        }
    }
}
