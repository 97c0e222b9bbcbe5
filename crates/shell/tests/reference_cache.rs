//! An executable specification of the stream cache, and a differential
//! property test of [`StreamCache`] against it.
//!
//! [`ReferenceCache`] is what the stream cache does, written the plain
//! way: direct-mapped like the real cache, one `bool` per dirty byte, no
//! resident-span memo, no single-line fast paths, no 8-byte merge groups,
//! and write-backs issued as the runs a byte-by-byte scan finds. Every
//! fast path in `StreamCache` claims "same stats and timing"; the test
//! drives both caches through identical random operation sequences over
//! wrapping buffers, each against its own memory system, and requires the
//! same return cycle from every operation, the same `CacheStats`, the
//! same bytes read, the same SRAM contents and the same per-port fabric
//! statistics after every step.

use eclipse_mem::{BusConfig, CyclicBuffer, DataFabricConfig, SramConfig};
use eclipse_shell::{CacheConfig, CacheStats, MemSys, StreamCache};
use eclipse_sim::Cycle;
use proptest::prelude::*;

/// One cache line of the specification.
#[derive(Clone)]
struct RefLine {
    /// Aligned address of the cached line, `None` when invalid.
    tag: Option<u32>,
    /// Cycle the line's data is (or becomes) available.
    ready_at: Cycle,
    /// Byte `i` was written by the coprocessor and not yet written back.
    dirty: Vec<bool>,
    /// The line's data came from memory (false for a write-allocated line
    /// that was never read).
    fetched: bool,
    data: Vec<u8>,
}

impl RefLine {
    fn empty(line_bytes: usize) -> Self {
        RefLine {
            tag: None,
            ready_at: 0,
            dirty: vec![false; line_bytes],
            fetched: false,
            data: vec![0; line_bytes],
        }
    }
}

/// The stream cache's behaviour, without its shortcuts.
struct ReferenceCache {
    cfg: CacheConfig,
    lines: Vec<RefLine>,
    owner: usize,
    stats: CacheStats,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig, owner: usize) -> Self {
        ReferenceCache {
            cfg,
            lines: vec![RefLine::empty(cfg.line_bytes as usize); cfg.lines],
            owner,
            stats: CacheStats::default(),
        }
    }

    fn line_bytes(&self) -> u32 {
        self.cfg.line_bytes
    }

    /// `(line index, tag)` of the line holding `addr`.
    fn slot(&self, addr: u32) -> (usize, u32) {
        let tag = addr - addr % self.line_bytes();
        (((tag / self.line_bytes()) as usize) % self.lines.len(), tag)
    }

    fn holds(&self, idx: usize, tag: u32) -> bool {
        self.lines[idx].tag == Some(tag)
    }

    /// The address of every byte of the window, split into the linear
    /// runs the buffer's wrap produces.
    fn runs(buffer: &CyclicBuffer, offset: u32, len: u32) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for i in 0..len as u64 {
            let addr = buffer.base + ((offset as u64 + i) % buffer.size as u64) as u32;
            match runs.last_mut() {
                Some((start, n)) if *start + *n == addr => *n += 1,
                _ => runs.push((addr, 1)),
            }
        }
        runs
    }

    /// Every `(address, length)` piece of the window that stays inside
    /// one line, run by run, in address order within each run.
    fn pieces(&self, buffer: &CyclicBuffer, offset: u32, len: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (mut addr, mut left) in Self::runs(buffer, offset, len) {
            while left > 0 {
                let n = left.min(self.line_bytes() - addr % self.line_bytes());
                out.push((addr, n));
                addr += n;
                left -= n;
            }
        }
        out
    }

    /// The lines the window touches, once per run.
    fn lines_of(&self, buffer: &CyclicBuffer, offset: u32, len: u32) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for (start, n) in Self::runs(buffer, offset, len) {
            let first = out.len();
            for addr in start..start + n {
                let tag = self.slot(addr).1;
                if out[first..].last() != Some(&tag) {
                    out.push(tag);
                }
            }
        }
        out
    }

    /// Write every dirty run of a line back, lowest address first.
    fn write_runs(&self, mem: &mut MemSys, now: Cycle, idx: usize) -> Cycle {
        let line = &self.lines[idx];
        let tag = line.tag.expect("only valid lines are written back");
        let mut done = now;
        let mut i = 0;
        while i < line.dirty.len() {
            if !line.dirty[i] {
                i += 1;
                continue;
            }
            let mut j = i;
            while j < line.dirty.len() && line.dirty[j] {
                j += 1;
            }
            done = done.max(mem.writeback(self.owner, now, tag + i as u32, &line.data[i..j]));
            i = j;
        }
        done
    }

    fn evict(&mut self, now: Cycle, mem: &mut MemSys, idx: usize) {
        if self.lines[idx].tag.is_some() && self.lines[idx].dirty.contains(&true) {
            self.write_runs(mem, now, idx);
            self.stats.writebacks += 1;
        }
        self.lines[idx] = RefLine::empty(self.line_bytes() as usize);
    }

    /// Make line `idx` hold `tag` with fetched data; returns when it is
    /// ready. `demand` counts a hit or miss, otherwise a prefetch.
    fn ensure_line(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        idx: usize,
        tag: u32,
        demand: bool,
    ) -> Cycle {
        let line_bytes = self.line_bytes() as usize;
        if self.holds(idx, tag) && self.lines[idx].fetched {
            if demand {
                self.stats.hits += 1;
            }
            return self.lines[idx].ready_at.max(now);
        }
        let ready = if self.holds(idx, tag) {
            // Write-allocated: fetch, keeping the dirty bytes.
            let mut fresh = vec![0u8; line_bytes];
            let ready = mem.fetch(self.owner, now, tag, &mut fresh);
            let line = &mut self.lines[idx];
            for (i, byte) in fresh.into_iter().enumerate() {
                if !line.dirty[i] {
                    line.data[i] = byte;
                }
            }
            ready
        } else {
            self.evict(now, mem, idx);
            let owner = self.owner;
            let line = &mut self.lines[idx];
            line.tag = Some(tag);
            mem.fetch(owner, now, tag, &mut line.data)
        };
        let line = &mut self.lines[idx];
        line.fetched = true;
        line.ready_at = ready;
        if demand {
            self.stats.misses += 1;
        } else {
            self.stats.prefetches += 1;
        }
        ready
    }

    fn read(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        buf: &mut [u8],
    ) -> Cycle {
        if buf.is_empty() {
            return now;
        }
        let mut done = now;
        let mut pos = 0;
        if self.lines.is_empty() {
            for (addr, n) in Self::runs(buffer, offset, buf.len() as u32) {
                let end = pos + n as usize;
                done = done.max(mem.fetch(self.owner, now, addr, &mut buf[pos..end]));
                pos = end;
            }
            self.stats.misses += 1;
        } else {
            for (addr, n) in self.pieces(buffer, offset, buf.len() as u32) {
                let (idx, tag) = self.slot(addr);
                done = done.max(self.ensure_line(now, mem, idx, tag, true));
                let at = (addr - tag) as usize;
                let end = pos + n as usize;
                buf[pos..end].copy_from_slice(&self.lines[idx].data[at..at + n as usize]);
                pos = end;
            }
        }
        self.stats.stall_cycles += done - now;
        done
    }

    fn write(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        data: &[u8],
    ) -> Cycle {
        let mut pos = 0;
        if self.lines.is_empty() {
            let mut done = now;
            for (addr, n) in Self::runs(buffer, offset, data.len() as u32) {
                let end = pos + n as usize;
                done = done.max(mem.writeback(self.owner, now, addr, &data[pos..end]));
                pos = end;
            }
            return done;
        }
        for (addr, n) in self.pieces(buffer, offset, data.len() as u32) {
            let (idx, tag) = self.slot(addr);
            if !self.holds(idx, tag) {
                // Write-allocate without fetching.
                self.evict(now, mem, idx);
                let line = &mut self.lines[idx];
                line.tag = Some(tag);
                line.ready_at = now;
            }
            let line = &mut self.lines[idx];
            for i in 0..n as usize {
                let at = (addr - tag) as usize + i;
                line.data[at] = data[pos + i];
                line.dirty[at] = true;
            }
            pos += n as usize;
        }
        now
    }

    fn invalidate_window(&mut self, buffer: &CyclicBuffer, offset: u32, len: u32) {
        if self.lines.is_empty() {
            return;
        }
        for tag in self.lines_of(buffer, offset, len) {
            let (idx, tag) = self.slot(tag);
            if !self.holds(idx, tag) {
                continue;
            }
            if self.lines[idx].dirty.contains(&true) {
                self.lines[idx].fetched = false;
            } else {
                self.lines[idx] = RefLine::empty(self.line_bytes() as usize);
                self.stats.invalidations += 1;
            }
        }
    }

    fn flush_window(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        len: u32,
    ) -> Cycle {
        let mut done = now;
        if self.lines.is_empty() {
            return done;
        }
        for tag in self.lines_of(buffer, offset, len) {
            let (idx, tag) = self.slot(tag);
            if self.holds(idx, tag) && self.lines[idx].dirty.contains(&true) {
                done = done.max(self.write_runs(mem, now, idx));
                self.lines[idx].dirty.fill(false);
                self.stats.writebacks += 1;
            }
        }
        done
    }

    fn prefetch(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        len: u32,
    ) {
        if self.lines.is_empty() || !self.cfg.prefetch {
            return;
        }
        for tag in self.lines_of(buffer, offset, len.min(buffer.size)) {
            let (idx, tag) = self.slot(tag);
            if !self.holds(idx, tag) {
                self.ensure_line(now, mem, idx, tag, false);
            }
        }
    }
}

/// One operation, applied to both caches. Offsets are taken modulo the
/// buffer size and lengths are capped at it when the operation runs.
#[derive(Debug, Clone)]
enum Op {
    Read(u32, u32),
    /// Write `len` bytes filled from `seed` at `offset`.
    Write(u32, u32, u8),
    Invalidate(u32, u32),
    Flush(u32, u32),
    Prefetch(u32, u32),
    /// Another unit changes memory behind the cache's back (straight into
    /// the SRAM, no fabric traffic), as a remote producer's flush does.
    Memory(u32, u32, u8),
    /// Let time pass.
    Tick(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Short windows are the streaming case the fast paths serve; long
    // ones cross lines and wrap.
    let len = || prop_oneof![1u32..72, 1u32..72, 1u32..600];
    prop_oneof![
        (0u32..4096, len()).prop_map(|(o, l)| Op::Read(o, l)),
        (0u32..4096, len()).prop_map(|(o, l)| Op::Read(o, l)),
        (0u32..4096, len(), 0u8..255).prop_map(|(o, l, s)| Op::Write(o, l, s)),
        (0u32..4096, len(), 0u8..255).prop_map(|(o, l, s)| Op::Write(o, l, s)),
        (0u32..4096, len()).prop_map(|(o, l)| Op::Invalidate(o, l)),
        (0u32..4096, len()).prop_map(|(o, l)| Op::Flush(o, l)),
        (0u32..4096, len()).prop_map(|(o, l)| Op::Prefetch(o, l)),
        (0u32..4096, len()).prop_map(|(o, l)| Op::Prefetch(o, l)),
        (0u32..4096, len(), 0u8..255).prop_map(|(o, l, s)| Op::Memory(o, l, s)),
        (0u64..40).prop_map(Op::Tick),
    ]
}

const SRAM_BYTES: u32 = 8192;

fn memsys(private_ports: bool) -> MemSys {
    let sram = SramConfig {
        size: SRAM_BYTES,
        word_bytes: 16,
        latency: 2,
    };
    if private_ports {
        let fabric = DataFabricConfig::PrivatePort {
            grant_cycles: 2,
            port: BusConfig::default(),
        };
        MemSys::with_fabric(sram, fabric)
    } else {
        MemSys::shared_bus(sram, BusConfig::default(), BusConfig::default())
    }
}

/// Everything the fabric reports per port, plus its contention count.
fn fabric_stats(mem: &MemSys) -> String {
    let ports: Vec<String> = (mem.fabric.ports().iter())
        .map(|p| format!("{} {:?}", p.name, p.stats))
        .collect();
    format!("{ports:?} contended {}", mem.fabric.contended_requests())
}

fn stats_tuple(s: &CacheStats) -> [u64; 6] {
    [
        s.hits,
        s.misses,
        s.prefetches,
        s.writebacks,
        s.invalidations,
        s.stall_cycles,
    ]
}

fn fill(len: u32, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i as u8).wrapping_mul(7)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `StreamCache` is observationally the reference cache: every return
    /// cycle, counter, byte read, SRAM byte and fabric port statistic
    /// agrees after every operation.
    #[test]
    fn stream_cache_matches_reference(
        lines in prop_oneof![1usize..9, 1usize..65, 0usize..2],
        line_bytes in prop_oneof![Just(16u32), Just(32u32), Just(64u32)],
        prefetch in any::<bool>(),
        base in 0u32..2048,
        size in prop_oneof![1u32..160, 1u32..1024, 64u32..65],
        owner in 0usize..3,
        private_ports in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let cfg = CacheConfig { lines, line_bytes, prefetch, prefetch_depth: 2 };
        let buffer = CyclicBuffer::new(base, size);
        let mut real = StreamCache::new(cfg);
        real.owner = owner;
        let mut spec = ReferenceCache::new(cfg, owner);
        let (mut real_mem, mut spec_mem) = (memsys(private_ports), memsys(private_ports));
        let mut now: Cycle = 0;
        for (step, op) in ops.iter().enumerate() {
            let ctx = format!("step {step} {op:?} cfg {cfg:?} buffer {buffer:?}");
            match *op {
                Op::Read(o, l) => {
                    let (o, l) = (o % size, l.min(size));
                    let (mut a, mut b) = (vec![0u8; l as usize], vec![0u8; l as usize]);
                    let ta = real.read(now, &mut real_mem, &buffer, o, &mut a);
                    let tb = spec.read(now, &mut spec_mem, &buffer, o, &mut b);
                    prop_assert_eq!(ta, tb, "{}", ctx);
                    prop_assert_eq!(a, b, "{}", ctx);
                }
                Op::Write(o, l, seed) => {
                    let (o, data) = (o % size, fill(l.min(size), seed));
                    let ta = real.write(now, &mut real_mem, &buffer, o, &data);
                    let tb = spec.write(now, &mut spec_mem, &buffer, o, &data);
                    prop_assert_eq!(ta, tb, "{}", ctx);
                }
                Op::Invalidate(o, l) => {
                    real.invalidate_window(&buffer, o % size, l.min(size));
                    spec.invalidate_window(&buffer, o % size, l.min(size));
                }
                Op::Flush(o, l) => {
                    let ta = real.flush_window(now, &mut real_mem, &buffer, o % size, l.min(size));
                    let tb = spec.flush_window(now, &mut spec_mem, &buffer, o % size, l.min(size));
                    prop_assert_eq!(ta, tb, "{}", ctx);
                }
                Op::Prefetch(o, l) => {
                    real.prefetch(now, &mut real_mem, &buffer, o % size, l);
                    spec.prefetch(now, &mut spec_mem, &buffer, o % size, l);
                }
                Op::Memory(o, l, seed) => {
                    let data = fill(l.min(size), seed);
                    let mut pos = 0;
                    for (addr, n) in ReferenceCache::runs(&buffer, o % size, data.len() as u32) {
                        let run = &data[pos..pos + n as usize];
                        real_mem.sram.write(addr, run);
                        spec_mem.sram.write(addr, run);
                        pos += n as usize;
                    }
                }
                Op::Tick(d) => now += d,
            }
            prop_assert_eq!(stats_tuple(&real.stats), stats_tuple(&spec.stats), "{}", ctx);
            prop_assert!(real_mem.sram.raw() == spec_mem.sram.raw(), "SRAM differs: {}", ctx);
            prop_assert_eq!(fabric_stats(&real_mem), fabric_stats(&spec_mem), "{}", ctx);
        }
    }
}
