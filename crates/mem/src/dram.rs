//! Off-chip memory (DRAM) model.
//!
//! In the paper's Eclipse instance (Section 6, Figure 8), the VLD
//! coprocessor fetches compressed bitstreams from off-chip memory and the
//! MC/ME coprocessor accesses MPEG reference frames there, both through
//! dedicated connections to the system bus. Off-chip accesses are the
//! dominant latency in motion compensation — the paper's Figure 10
//! analysis attributes the B-frame bottleneck to exactly this path.
//!
//! The model is a banked DRAM with open-row (page-mode) behavior: an
//! access to the currently open row of a bank pays `row_hit_latency`,
//! anything else pays `row_miss_latency` (precharge + activate). Transfer
//! time afterwards is `beats * cycles_per_beat` on the DRAM data pins.
//! Requests are serialized in arrival order, like [`crate::bus::Bus`].

use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::stats::RunningStat;
use eclipse_sim::Cycle;

use crate::bus::Transfer;

/// Static DRAM parameters.
#[derive(Debug, Clone, Copy)]
pub struct DramConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Data pin width in bytes per beat.
    pub width_bytes: u32,
    /// Latency (in base-clock cycles) of an access that hits the open row.
    pub row_hit_latency: u64,
    /// Latency of an access that must precharge + activate a new row.
    pub row_miss_latency: u64,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// Number of banks (rows can be open in parallel, one per bank).
    pub banks: u32,
    /// Cycles per data beat.
    pub cycles_per_beat: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // A 2002-era SDR/DDR part seen from a 150 MHz subsystem:
        // ~9-cycle row hit, ~30-cycle row miss, 8-byte pins, 2 kB rows.
        DramConfig {
            size: 64 * 1024 * 1024,
            width_bytes: 8,
            row_hit_latency: 9,
            row_miss_latency: 30,
            row_bytes: 2048,
            banks: 8,
            cycles_per_beat: 1,
        }
    }
}

/// Cumulative DRAM statistics.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Total transactions served.
    pub transactions: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Transactions that hit an open row.
    pub row_hits: u64,
    /// Transactions that had to open a row.
    pub row_misses: u64,
    /// Cycles the data pins were busy.
    pub busy_cycles: Cycle,
    /// Arbitration + queueing wait per transaction.
    pub wait: RunningStat,
}

/// Granule of the written-page map.
const PAGE_BYTES: usize = 4096;

/// Set the written-page bits covering `len` bytes at `addr`.
fn mark_written(written: &mut [u64], addr: usize, len: usize) {
    if len == 0 {
        return;
    }
    for page in addr / PAGE_BYTES..=(addr + len - 1) / PAGE_BYTES {
        written[page / 64] |= 1 << (page % 64);
    }
}

/// The functional + timed DRAM model.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    data: Vec<u8>,
    /// One bit per `PAGE_BYTES` page of `data`, set by `write` and by
    /// restore. A clear bit promises the page is all zero, so checkpoint
    /// save and restore cost what a run wrote, not the whole capacity:
    /// a fresh build's untouched pages are never even read.
    written: Vec<u64>,
    open_rows: Vec<Option<u32>>,
    next_free: Cycle,
    stats: DramStats,
}

impl Dram {
    /// A zero-initialized DRAM.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            data: vec![0; cfg.size as usize],
            written: vec![0; (cfg.size as usize).div_ceil(PAGE_BYTES).div_ceil(64)],
            open_rows: vec![None; cfg.banks as usize],
            next_free: 0,
            stats: DramStats::default(),
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn row_of(&self, addr: u32) -> u32 {
        addr / self.cfg.row_bytes
    }

    fn bank_of(&self, addr: u32) -> usize {
        // Rows interleave across banks.
        (self.row_of(addr) % self.cfg.banks) as usize
    }

    /// Timing of an access of `bytes` at `addr` issued at `now`, advancing
    /// the open-row state. Purely the timing half; pair with
    /// [`Dram::read`]/[`Dram::write`] for data.
    pub fn access(&mut self, now: Cycle, addr: u32, bytes: u32) -> Transfer {
        debug_assert!(bytes > 0);
        let bank = self.bank_of(addr);
        let row = self.row_of(addr);
        let hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);
        let latency = if hit {
            self.stats.row_hits += 1;
            self.cfg.row_hit_latency
        } else {
            self.stats.row_misses += 1;
            self.cfg.row_miss_latency
        };
        let beats = (bytes as u64).div_ceil(self.cfg.width_bytes as u64);
        let occupancy = beats * self.cfg.cycles_per_beat;
        let start = now.max(self.next_free);
        let done = start + latency + occupancy;
        self.next_free = start + occupancy;
        let wait = start - now;
        self.stats.transactions += 1;
        self.stats.bytes += bytes as u64;
        self.stats.busy_cycles += occupancy;
        self.stats.wait.record(wait as f64);
        Transfer { start, done, wait }
    }

    /// Read `buf.len()` bytes at `addr` (functional half).
    pub fn read(&mut self, addr: u32, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.data[a..a + buf.len()]);
    }

    /// Write `buf` at `addr` (functional half).
    pub fn write(&mut self, addr: u32, buf: &[u8]) {
        let a = addr as usize;
        self.data[a..a + buf.len()].copy_from_slice(buf);
        mark_written(&mut self.written, a, buf.len());
    }

    fn is_written(&self, page: usize) -> bool {
        self.written[page / 64] >> (page % 64) & 1 == 1
    }

    /// Row-hit fraction over all transactions so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.stats.row_hits + self.stats.row_misses;
        if total == 0 {
            0.0
        } else {
            self.stats.row_hits as f64 / total as f64
        }
    }
}

eclipse_sim::snap_fields!(DramStats {
    transactions,
    bytes,
    row_hits,
    row_misses,
    busy_cycles,
    wait,
});

impl Snapshot for Dram {
    fn save(&self, w: &mut SnapWriter) {
        w.blob_paged(&self.data, PAGE_BYTES, |page| self.is_written(page));
        w.usize(self.open_rows.len());
        self.open_rows[..].save(w);
        w.u64(self.next_free);
        self.stats.save(w);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        // Zero what this run wrote; every other page is zero already.
        for (i, word) in self.written.iter_mut().enumerate() {
            while *word != 0 {
                let start = (i * 64 + word.trailing_zeros() as usize) * PAGE_BYTES;
                let end = (start + PAGE_BYTES).min(self.data.len());
                self.data[start..end].fill(0);
                *word &= *word - 1;
            }
        }
        r.blob_literals(self.data.len(), |at, bytes| {
            self.data[at..at + bytes.len()].copy_from_slice(bytes);
            mark_written(&mut self.written, at, bytes.len());
        })?;
        r.expect_len(self.open_rows.len(), "dram bank count")?;
        self.open_rows[..].load(r)?;
        self.next_free = r.u64()?;
        self.stats.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig {
            size: 1 << 20,
            width_bytes: 8,
            row_hit_latency: 9,
            row_miss_latency: 30,
            row_bytes: 2048,
            banks: 4,
            cycles_per_beat: 1,
        })
    }

    #[test]
    fn first_access_misses_row() {
        let mut d = dram();
        let t = d.access(0, 0, 64);
        assert_eq!(t.start, 0);
        assert_eq!(t.done, 30 + 8);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn same_row_access_hits() {
        let mut d = dram();
        d.access(0, 0, 64);
        let t = d.access(100, 128, 64); // same 2 kB row
        assert_eq!(t.done, 100 + 9 + 8);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn different_row_same_bank_misses() {
        let mut d = dram();
        d.access(0, 0, 8); // row 0, bank 0
                           // row 4 maps to bank 0 (4 % 4 == 0) but is a different row.
        let t = d.access(100, 4 * 2048, 8);
        assert_eq!(t.done, 100 + 30 + 1);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn banks_keep_independent_open_rows() {
        let mut d = dram();
        d.access(0, 0, 8); // row 0 -> bank 0
        d.access(50, 2048, 8); // row 1 -> bank 1
        let t = d.access(100, 16, 8); // row 0 again: still open in bank 0
        assert_eq!(t.done, 100 + 9 + 1);
    }

    #[test]
    fn functional_read_write_round_trip() {
        let mut d = dram();
        d.write(4096, b"motion compensation reference");
        let mut buf = [0u8; 29];
        d.read(4096, &mut buf);
        assert_eq!(&buf, b"motion compensation reference");
    }

    #[test]
    fn requests_serialize() {
        let mut d = dram();
        let t1 = d.access(0, 0, 80); // 10 beats
        assert_eq!(t1.start, 0);
        let t2 = d.access(0, 0, 8);
        assert_eq!(t2.start, 10);
        assert_eq!(t2.wait, 10);
    }

    fn checkpoint(d: &Dram) -> Vec<u8> {
        let mut w = SnapWriter::new();
        d.save(&mut w);
        w.into_bytes()
    }

    /// The page-map invariant: every page with a clear bit is all zero.
    fn assert_unwritten_pages_zero(d: &Dram) {
        for (page, bytes) in d.data.chunks(PAGE_BYTES).enumerate() {
            assert!(
                d.is_written(page) || bytes.iter().all(|&b| b == 0),
                "unwritten page {page} holds data"
            );
        }
    }

    #[test]
    fn paged_save_matches_a_full_scan() {
        let mut d = dram();
        d.write(100, &[1; 300]);
        d.write(4090, &[2; 12]); // straddles a page edge
        d.write(8192, &[0; 64]); // written, but zero
        d.write(0, &[]);
        let mut full = SnapWriter::new();
        full.blob(&d.data);
        let paged = checkpoint(&d);
        assert_eq!(&paged[..full.bytes().len()], full.bytes());
        assert_unwritten_pages_zero(&d);
    }

    #[test]
    fn restore_into_a_dirty_dram_matches_a_fresh_restore() {
        let mut d = dram();
        d.write(100, &[1; 300]);
        d.write(4090, &[2; 12]);
        let ck = checkpoint(&d);
        // Run on: write new pages and overwrite saved ones.
        d.write(3 * 8192, &[3; 5000]);
        d.write(100, &[4; 10]);
        d.load(&mut SnapReader::new(&ck)).unwrap();
        let mut fresh = dram();
        fresh.load(&mut SnapReader::new(&ck)).unwrap();
        assert!(d.data == fresh.data, "dirty restore left stale bytes");
        assert_eq!(d.written, fresh.written);
        assert_unwritten_pages_zero(&d);
        assert_eq!(checkpoint(&d), ck);
        assert_eq!(checkpoint(&fresh), ck);
    }

    #[test]
    fn hit_rate_reported() {
        let mut d = dram();
        d.access(0, 0, 8);
        d.access(0, 8, 8);
        d.access(0, 16, 8);
        assert!((d.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
