//! The centralized wide on-chip SRAM that holds all stream FIFO buffers.
//!
//! Paper Section 6: the first Eclipse instance uses a single 32 kB on-chip
//! SRAM with a 128-bit data path, clocked at 300 MHz (2x the coprocessor
//! clock) so that it can serve one read and one write port per 150 MHz
//! cycle. The SRAM itself is a simple pipelined memory: fixed access
//! latency, one `word_bytes`-wide beat per port per SRAM cycle. Contention
//! between shells is modeled by the buses in [`crate::bus`], not here.

/// Configuration of the on-chip SRAM.
#[derive(Debug, Clone, Copy)]
pub struct SramConfig {
    /// Total capacity in bytes (paper instance: 32 kB).
    pub size: u32,
    /// Width of the data path in bytes (paper instance: 16 = 128 bits).
    pub word_bytes: u32,
    /// Access latency in base-clock cycles (pipelined; applies once per
    /// transaction, not per beat).
    pub latency: u64,
}

impl Default for SramConfig {
    fn default() -> Self {
        SramConfig {
            size: 32 * 1024,
            word_bytes: 16,
            latency: 2,
        }
    }
}

/// Access statistics, kept per port direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SramStats {
    /// Number of read transactions.
    pub reads: u64,
    /// Number of write transactions.
    pub writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

/// The functional + timed SRAM model.
#[derive(Debug, Clone)]
pub struct Sram {
    cfg: SramConfig,
    data: Vec<u8>,
    stats: SramStats,
}

impl Sram {
    /// A zero-initialized SRAM.
    pub fn new(cfg: SramConfig) -> Self {
        Sram {
            cfg,
            data: vec![0; cfg.size as usize],
            stats: SramStats::default(),
        }
    }

    /// Configuration this SRAM was built with.
    pub fn config(&self) -> &SramConfig {
        &self.cfg
    }

    /// Capacity in bytes.
    pub fn size(&self) -> u32 {
        self.cfg.size
    }

    /// Cumulative access statistics.
    pub fn stats(&self) -> &SramStats {
        &self.stats
    }

    /// Number of data beats a transaction of `bytes` starting at `addr`
    /// occupies on the data path (alignment-aware: an unaligned access
    /// touches one extra word).
    pub fn beats(&self, addr: u32, bytes: u32) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let w = self.cfg.word_bytes;
        let first = addr / w;
        let last = (addr + bytes - 1) / w;
        (last - first + 1) as u64
    }

    /// Cycle cost of a transaction of `bytes` at `addr`: pipeline latency
    /// plus one cycle per beat (the SRAM runs at 2x the base clock serving
    /// read and write ports, so a beat costs one base cycle per port).
    pub fn access_cost(&self, addr: u32, bytes: u32) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.cfg.latency + self.beats(addr, bytes)
    }

    /// Read `buf.len()` bytes starting at absolute address `addr`.
    #[inline]
    pub fn read(&mut self, addr: u32, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.data[a..a + buf.len()]);
        self.stats.reads += 1;
        self.stats.bytes_read += buf.len() as u64;
    }

    /// Write `buf` starting at absolute address `addr`.
    #[inline]
    pub fn write(&mut self, addr: u32, buf: &[u8]) {
        let a = addr as usize;
        self.data[a..a + buf.len()].copy_from_slice(buf);
        self.stats.writes += 1;
        self.stats.bytes_written += buf.len() as u64;
    }

    /// Borrow the raw backing store (tests and the allocator-free debug
    /// tooling only — functional components go through `read`/`write`).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }
}

eclipse_sim::snap_fields!(SramStats {
    reads,
    writes,
    bytes_read,
    bytes_written
});
eclipse_sim::snap_fields!(Sram { data: blob, stats });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let mut s = Sram::new(SramConfig::default());
        s.write(100, &[1, 2, 3, 4, 5]);
        let mut buf = [0u8; 5];
        s.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5]);
        assert_eq!(s.stats().reads, 1);
        assert_eq!(s.stats().writes, 1);
        assert_eq!(s.stats().bytes_read, 5);
        assert_eq!(s.stats().bytes_written, 5);
    }

    #[test]
    fn beats_are_alignment_aware() {
        let s = Sram::new(SramConfig {
            size: 1024,
            word_bytes: 16,
            latency: 2,
        });
        assert_eq!(s.beats(0, 16), 1); // aligned single word
        assert_eq!(s.beats(0, 17), 2);
        assert_eq!(s.beats(8, 16), 2); // straddles a word boundary
        assert_eq!(s.beats(15, 2), 2);
        assert_eq!(s.beats(16, 16), 1);
        assert_eq!(s.beats(0, 0), 0);
    }

    #[test]
    fn access_cost_is_latency_plus_beats() {
        let s = Sram::new(SramConfig {
            size: 1024,
            word_bytes: 16,
            latency: 2,
        });
        assert_eq!(s.access_cost(0, 64), 2 + 4);
        assert_eq!(s.access_cost(0, 0), 0);
    }

    #[test]
    fn fresh_sram_is_zeroed() {
        let mut s = Sram::new(SramConfig {
            size: 64,
            word_bytes: 16,
            latency: 1,
        });
        let mut buf = [0xAAu8; 64];
        s.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut s = Sram::new(SramConfig {
            size: 64,
            word_bytes: 16,
            latency: 1,
        });
        let mut buf = [0u8; 8];
        s.read(60, &mut buf);
    }
}
