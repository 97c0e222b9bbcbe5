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

    /// Byte address of tile `(tx, ty)` of `plane` in the slot at `base`.
    fn tile_addr(&self, base: u32, plane: PlaneSel, tx: u32, ty: u32) -> u32 {
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

    /// Fetch the 8×8 prediction block of `plane` whose top-left corner is
    /// `(x0, y0)` (may be out of bounds; edge-clamped as MPEG requires)
    /// from the slot at `base`. Gathers 1–4 tiles, one system-bus
    /// transaction each.
    pub fn fetch_block(
        &self,
        ctx: &mut StepCtx<'_>,
        base: u32,
        plane: PlaneSel,
        x0: i32,
        y0: i32,
    ) -> [i16; 64] {
        let (pw, ph, _) = self.plane_geom(plane);
        // Clamped sample coordinates per axis; clamping is monotonic, so
        // the touched tiles form the rectangle spanned by the corners.
        let mut cxs = [0u32; 8];
        let mut cys = [0u32; 8];
        for i in 0..8 {
            cxs[i] = (x0 + i as i32).clamp(0, pw as i32 - 1) as u32;
            cys[i] = (y0 + i as i32).clamp(0, ph as i32 - 1) as u32;
        }
        // Gather the 1-4 covering tiles in raster order (the order the
        // former per-pixel scan first encountered them): the first tile
        // pays the full round trip, the rest ride pipelined behind it.
        let (tx0, tx1) = (cxs[0] / 8, cxs[7] / 8);
        let (ty0, ty1) = (cys[0] / 8, cys[7] / 8);
        let ntx = (tx1 - tx0 + 1) as usize;
        let mut tiles = [[0u8; 64]; 4];
        let mut first = true;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let idx = (ty - ty0) as usize * ntx + (tx - tx0) as usize;
                let addr = self.tile_addr(base, plane, tx, ty);
                if first {
                    ctx.dram_read(addr, &mut tiles[idx]);
                    first = false;
                } else {
                    ctx.dram_read_overlapped(addr, &mut tiles[idx]);
                }
            }
        }
        let mut out = [0i16; 64];
        for y in 0..8 {
            let cy = cys[y];
            let trow = (cy / 8 - ty0) as usize * ntx;
            let prow = (cy % 8) * 8;
            for x in 0..8 {
                let cx = cxs[x];
                let tile = &tiles[trow + (cx / 8 - tx0) as usize];
                out[y * 8 + x] = tile[(prow + cx % 8) as usize] as i16;
            }
        }
        out
    }

    /// Fetch an 8×8 prediction block whose top-left corner sits at
    /// *half-pel* coordinates `(x2, y2)` of `plane`, interpolating with
    /// the same MPEG rounding as [`eclipse_media::motion::sample_half`]
    /// (the decode path must agree with the software decoder bit for
    /// bit). Gathers the clamped (9×9-sample) region — still at most four
    /// tiles — as one burst train.
    pub fn fetch_block_half(
        &self,
        ctx: &mut StepCtx<'_>,
        base: u32,
        plane: PlaneSel,
        x2: i32,
        y2: i32,
    ) -> [i16; 64] {
        let (hx, hy) = (x2 & 1, y2 & 1);
        let (xi, yi) = (x2 >> 1, y2 >> 1);
        if hx == 0 && hy == 0 {
            return self.fetch_block(ctx, base, plane, xi, yi);
        }
        let (pw, ph, _) = self.plane_geom(plane);
        // Clamped sample coordinates across the (8+1)-sample span of each
        // axis; clamping is monotonic, so the touched tiles form the
        // rectangle spanned by the corners.
        let mut cxs = [0u32; 9];
        let mut cys = [0u32; 9];
        for i in 0..9 {
            cxs[i] = (xi + i as i32).clamp(0, pw as i32 - 1) as u32;
            cys[i] = (yi + i as i32).clamp(0, ph as i32 - 1) as u32;
        }
        // Gather the 1-4 covering tiles in raster order (the order the
        // former per-pixel scan first encountered them) as one burst train.
        let (tx0, tx1) = (cxs[0] / 8, cxs[8] / 8);
        let (ty0, ty1) = (cys[0] / 8, cys[8] / 8);
        let ntx = (tx1 - tx0 + 1) as usize;
        let mut tiles = [[0u8; 64]; 4];
        let mut first = true;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let idx = (ty - ty0) as usize * ntx + (tx - tx0) as usize;
                let addr = self.tile_addr(base, plane, tx, ty);
                if first {
                    ctx.dram_read(addr, &mut tiles[idx]);
                    first = false;
                } else {
                    ctx.dram_read_overlapped(addr, &mut tiles[idx]);
                }
            }
        }
        // Materialize the 9x9 patch once, then interpolate from it.
        let mut patch = [0u8; 81];
        for y in 0..9 {
            let cy = cys[y];
            let trow = (cy / 8 - ty0) as usize * ntx;
            let prow = (cy % 8) * 8;
            for x in 0..9 {
                let cx = cxs[x];
                let tile = &tiles[trow + (cx / 8 - tx0) as usize];
                patch[y * 9 + x] = tile[(prow + cx % 8) as usize];
            }
        }
        let mut out = [0i16; 64];
        SampleGrid::new(&patch, 9, 9).half_rows(hx, hy, 8, 8, |y, row| {
            out[y * 8..][..8].copy_from_slice(row)
        });
        out
    }

    /// Read a whole frame out of a slot into an
    /// [`eclipse_media::Frame`] — host-side verification only (no timing),
    /// used by tests and experiment harnesses after a run.
    pub fn read_frame(&self, dram: &mut eclipse_mem::Dram, base: u32) -> eclipse_media::Frame {
        let mut f = eclipse_media::Frame::new(self.width as usize, self.height as usize);
        for (plane_sel, plane) in [
            (PlaneSel::Y, &mut f.y),
            (PlaneSel::U, &mut f.u),
            (PlaneSel::V, &mut f.v),
        ] {
            let (pw, ph, _) = self.plane_geom(plane_sel);
            for ty in 0..ph / 8 {
                for tx in 0..pw / 8 {
                    let mut tile = [0u8; 64];
                    dram.read(self.tile_addr(base, plane_sel, tx, ty), &mut tile);
                    for y in 0..8 {
                        for x in 0..8 {
                            plane.set(
                                (tx * 8 + x) as usize,
                                (ty * 8 + y) as usize,
                                tile[(y * 8 + x) as usize],
                            );
                        }
                    }
                }
            }
        }
        f
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

    // write_mb / fetch_block round trips are exercised through the MC
    // coprocessor integration tests (they need a StepCtx, i.e. a full
    // system).
}
