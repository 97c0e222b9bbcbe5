//! Tiled frame stores in off-chip memory.
//!
//! The MC/ME coprocessor keeps MPEG reference frames in off-chip memory
//! behind its private system-bus port (paper Figure 8). Frames are stored
//! *block-linear*: each 8×8 tile occupies 64 contiguous bytes, so a
//! reconstructed macroblock is written as six aligned 64-byte bursts, and
//! a motion-compensated fetch at an arbitrary displacement gathers at
//! most four tiles per 8×8 block — the fetch pattern whose cost makes
//! B pictures MC-bound in the paper's Figure 10.

use eclipse_core::StepCtx;
use eclipse_media::motion::SampleGrid;

/// Which plane of a stored frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneSel {
    /// Luma.
    Y,
    /// Chroma blue-difference.
    U,
    /// Chroma red-difference.
    V,
}

/// Geometry of a tiled frame store (one layout shared by all slots).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameStore {
    /// Luma width in pixels (multiple of 16).
    pub width: u32,
    /// Luma height in pixels (multiple of 16).
    pub height: u32,
}

impl FrameStore {
    /// Create a layout. Dimensions must be multiples of 16.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width.is_multiple_of(16) && height.is_multiple_of(16));
        FrameStore { width, height }
    }

    /// Bytes per frame slot (4:2:0, tiled; already 64-aligned).
    pub fn slot_bytes(&self) -> u32 {
        self.width * self.height * 3 / 2
    }

    /// (plane width, plane height, byte offset within the slot).
    fn plane_geom(&self, plane: PlaneSel) -> (u32, u32, u32) {
        let (w, h) = (self.width, self.height);
        match plane {
            PlaneSel::Y => (w, h, 0),
            PlaneSel::U => (w / 2, h / 2, w * h),
            PlaneSel::V => (w / 2, h / 2, w * h + (w / 2) * (h / 2)),
        }
    }

    /// Byte address of tile `(tx, ty)` of `plane` in the slot at `base`:
    /// its 64 bytes are the tile's 8×8 samples in raster order.
    pub fn tile_addr(&self, base: u32, plane: PlaneSel, tx: u32, ty: u32) -> u32 {
        let (pw, _ph, off) = self.plane_geom(plane);
        let tiles_x = pw / 8;
        base + off + (ty * tiles_x + tx) * 64
    }

    /// Write a reconstructed macroblock into the slot at `base`: six
    /// aligned 64-byte tile bursts over the system bus.
    pub fn write_mb(
        &self,
        ctx: &mut StepCtx<'_>,
        base: u32,
        mbx: u32,
        mby: u32,
        blocks: &[[i16; 64]; 6],
    ) {
        let tiles: [(PlaneSel, u32, u32); 6] = [
            (PlaneSel::Y, 2 * mbx, 2 * mby),
            (PlaneSel::Y, 2 * mbx + 1, 2 * mby),
            (PlaneSel::Y, 2 * mbx, 2 * mby + 1),
            (PlaneSel::Y, 2 * mbx + 1, 2 * mby + 1),
            (PlaneSel::U, mbx, mby),
            (PlaneSel::V, mbx, mby),
        ];
        for (blk, &(plane, tx, ty)) in tiles.iter().enumerate() {
            let mut bytes = [0u8; 64];
            for (i, &v) in blocks[blk].iter().enumerate() {
                bytes[i] = v.clamp(0, 255) as u8;
            }
            ctx.dram_write(self.tile_addr(base, plane, tx, ty), &bytes);
        }
    }

    /// Fetch an 8×8 prediction block whose top-left corner sits at
    /// *half-pel* coordinates `(x2, y2)` of `plane`, interpolating with
    /// the same MPEG rounding as [`eclipse_media::motion::sample_half`]
    /// (the decode path must agree with the software decoder bit for
    /// bit). Gathers the tiles under the clamped 8-sample span of each
    /// axis (9 with a half phase) — at most four — as one burst train:
    /// the first tile pays the full round trip, the rest ride pipelined
    /// behind it.
    pub fn fetch_block_half(
        &self,
        ctx: &mut StepCtx<'_>,
        base: u32,
        plane: PlaneSel,
        x2: i32,
        y2: i32,
    ) -> [i16; 64] {
        let mut first = true;
        self.gather_block(base, plane, x2, y2, |addr, tile| {
            if first {
                ctx.dram_read(addr, tile);
                first = false;
            } else {
                ctx.dram_read_overlapped(addr, tile);
            }
        })
    }

    /// The block of [`FrameStore::fetch_block_half`], reading each tile
    /// it touches, in raster order, through `read_tile(addr, tile)`.
    ///
    /// The tiles are laid side by side into one patch that starts at
    /// sample `(8 * tx0, 8 * ty0)`. Clamping is monotonic, so the tiles
    /// form the rectangle spanned by the clamped corners, and on any side
    /// where the block leaves the plane the patch edge is the plane edge:
    /// clamping to the patch then reads the samples clamping to the plane
    /// would.
    fn gather_block(
        &self,
        base: u32,
        plane: PlaneSel,
        x2: i32,
        y2: i32,
        mut read_tile: impl FnMut(u32, &mut [u8; 64]),
    ) -> [i16; 64] {
        let (pw, ph, _) = self.plane_geom(plane);
        // A full-pel block spans 8 samples per axis; a half-pel one 9 on
        // both axes, whichever of them has the half phase.
        let last = if (x2 | y2) & 1 == 0 { 7 } else { 8 };
        let tile_span = |v0: i32, extent: u32| {
            let tile = |v: i32| v.clamp(0, extent as i32 - 1) as u32 / 8;
            (tile(v0), tile(v0 + last))
        };
        let (tx0, tx1) = tile_span(x2 >> 1, pw);
        let (ty0, ty1) = tile_span(y2 >> 1, ph);
        let w = (tx1 - tx0 + 1) as usize * 8;
        let h = (ty1 - ty0 + 1) as usize * 8;
        let mut patch = [0u8; 256];
        let mut tile = [0u8; 64];
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                read_tile(self.tile_addr(base, plane, tx, ty), &mut tile);
                let corner = (ty - ty0) as usize * 8 * w + (tx - tx0) as usize * 8;
                for (r, row) in tile.chunks_exact(8).enumerate() {
                    patch[corner + r * w..][..8].copy_from_slice(row);
                }
            }
        }
        let mut out = [0i16; 64];
        let (px2, py2) = (x2 - 16 * tx0 as i32, y2 - 16 * ty0 as i32);
        SampleGrid::new(&patch[..w * h], w, h).half_rows(px2, py2, 8, 8, |y, row| {
            out[y * 8..][..8].copy_from_slice(row)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_bytes_matches_420() {
        let fs = FrameStore::new(64, 48);
        assert_eq!(fs.slot_bytes(), 64 * 48 * 3 / 2);
    }

    #[test]
    fn tile_addresses_are_disjoint_and_in_range() {
        let fs = FrameStore::new(32, 32);
        let mut seen = std::collections::HashSet::new();
        for plane in [PlaneSel::Y, PlaneSel::U, PlaneSel::V] {
            let (pw, ph, _) = fs.plane_geom(plane);
            for ty in 0..ph / 8 {
                for tx in 0..pw / 8 {
                    let addr = fs.tile_addr(1000, plane, tx, ty);
                    assert!(addr >= 1000 && addr + 64 <= 1000 + fs.slot_bytes());
                    assert!(seen.insert(addr), "tile address collision at {addr}");
                }
            }
        }
        assert_eq!(seen.len() as u32, fs.slot_bytes() / 64);
    }

    /// The former per-pixel gathers, kept as the oracle of
    /// [`FrameStore::gather_block`]: the same tiles in the same order, each
    /// sample picked from its tile by clamped plane coordinates; a
    /// half-pel block spans 9 samples on both axes.
    fn gather_per_pixel(
        fs: &FrameStore,
        base: u32,
        plane: PlaneSel,
        x2: i32,
        y2: i32,
        mut read_tile: impl FnMut(u32, &mut [u8; 64]),
    ) -> [i16; 64] {
        let (hx, hy) = (x2 & 1, y2 & 1);
        let (xi, yi) = (x2 >> 1, y2 >> 1);
        let n = if hx == 0 && hy == 0 { 8 } else { 9 };
        let (pw, ph, _) = fs.plane_geom(plane);
        let mut cxs = [0u32; 9];
        let mut cys = [0u32; 9];
        for i in 0..n {
            cxs[i] = (xi + i as i32).clamp(0, pw as i32 - 1) as u32;
            cys[i] = (yi + i as i32).clamp(0, ph as i32 - 1) as u32;
        }
        let (tx0, tx1) = (cxs[0] / 8, cxs[n - 1] / 8);
        let (ty0, ty1) = (cys[0] / 8, cys[n - 1] / 8);
        let ntx = (tx1 - tx0 + 1) as usize;
        let mut tiles = [[0u8; 64]; 4];
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let idx = (ty - ty0) as usize * ntx + (tx - tx0) as usize;
                read_tile(fs.tile_addr(base, plane, tx, ty), &mut tiles[idx]);
            }
        }
        let mut patch = [0u8; 81];
        for y in 0..n {
            let cy = cys[y];
            let trow = (cy / 8 - ty0) as usize * ntx;
            for x in 0..n {
                let cx = cxs[x];
                let tile = &tiles[trow + (cx / 8 - tx0) as usize];
                patch[y * 9 + x] = tile[((cy % 8) * 8 + cx % 8) as usize];
            }
        }
        let mut out = [0i16; 64];
        if n == 8 {
            for y in 0..8 {
                for x in 0..8 {
                    out[y * 8 + x] = patch[y * 9 + x] as i16;
                }
            }
            return out;
        }
        SampleGrid::new(&patch, 9, 9).half_rows(hx, hy, 8, 8, |y, row| {
            out[y * 8..][..8].copy_from_slice(row)
        });
        out
    }

    #[test]
    fn patch_gather_matches_per_pixel_gather() {
        let fs = FrameStore::new(48, 32);
        let base = 128;
        let mut rng = eclipse_sim::rng::SplitMix64::new(0xF5);
        let dram: Vec<u8> = (0..base + fs.slot_bytes())
            .map(|_| rng.next_u64() as u8)
            .collect();
        for plane in [PlaneSel::Y, PlaneSel::U, PlaneSel::V] {
            let (pw, ph, _) = fs.plane_geom(plane);
            // Every half-pel position from well outside the top-left
            // corner to well outside the bottom-right one.
            for y2 in -40..2 * ph as i32 + 24 {
                for x2 in -40..2 * pw as i32 + 24 {
                    let mut reads = Vec::new();
                    let got = fs.gather_block(base, plane, x2, y2, |addr, tile| {
                        reads.push(addr);
                        tile.copy_from_slice(&dram[addr as usize..][..64]);
                    });
                    let mut want_reads = Vec::new();
                    let want = gather_per_pixel(&fs, base, plane, x2, y2, |addr, tile| {
                        want_reads.push(addr);
                        tile.copy_from_slice(&dram[addr as usize..][..64]);
                    });
                    assert_eq!(got, want, "{plane:?} at half-pel ({x2}, {y2})");
                    assert_eq!(reads, want_reads, "{plane:?} at half-pel ({x2}, {y2})");
                }
            }
        }
    }
}
