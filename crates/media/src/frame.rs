//! Frames, planes, and macroblock access.
//!
//! Video is 4:2:0 YCbCr: a luma plane at full resolution and two chroma
//! planes at half resolution in both dimensions. A *macroblock* is a
//! 16×16 luma area with its two co-sited 8×8 chroma blocks — six 8×8
//! blocks in total, the unit the paper's coprocessors operate on and the
//! synchronization grain Eclipse chooses for MPEG ("from picture to
//! macroblock level", Section 2.2).

use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Number of 8x8 blocks per macroblock in 4:2:0 (4 luma + 2 chroma).
pub const BLOCKS_PER_MB: usize = 6;
/// Macroblock luma dimension in pixels.
pub const MB_SIZE: usize = 16;

/// A single image plane of 8-bit samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    /// Width in samples.
    pub width: usize,
    /// Height in samples.
    pub height: usize,
    /// Row-major sample data (`width * height` bytes).
    pub data: Vec<u8>,
}

impl Plane {
    /// A zero (black) plane.
    pub fn new(width: usize, height: usize) -> Self {
        Plane {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Sample at in-bounds (x, y).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Set sample at in-bounds (x, y).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }

    /// Copy an 8×8 block with top-left corner (x0, y0) (in bounds) into
    /// `out` in raster order.
    pub fn get_block8(&self, x0: usize, y0: usize, out: &mut [i16; 64]) {
        debug_assert!(x0 + 8 <= self.width && y0 + 8 <= self.height);
        for y in 0..8 {
            let row = (y0 + y) * self.width + x0;
            for x in 0..8 {
                out[y * 8 + x] = self.data[row + x] as i16;
            }
        }
    }

    /// Write an 8×8 block of samples (clamped to 0..=255) at (x0, y0).
    pub fn set_block8(&mut self, x0: usize, y0: usize, block: &[i16; 64]) {
        debug_assert!(x0 + 8 <= self.width && y0 + 8 <= self.height);
        for y in 0..8 {
            let row = (y0 + y) * self.width + x0;
            for x in 0..8 {
                self.data[row + x] = block[y * 8 + x].clamp(0, 255) as u8;
            }
        }
    }
}

/// A 4:2:0 video frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Luma width in pixels (multiple of 16).
    pub width: usize,
    /// Luma height in pixels (multiple of 16).
    pub height: usize,
    /// Luma plane.
    pub y: Plane,
    /// Cb chroma plane (half resolution).
    pub u: Plane,
    /// Cr chroma plane (half resolution).
    pub v: Plane,
}

/// The smallest frame: one black macroblock (a placeholder for a
/// checkpoint to load into).
impl Default for Frame {
    fn default() -> Self {
        Frame::new(MB_SIZE, MB_SIZE)
    }
}

/// Largest frame side a checkpoint may declare: MPEG-1 codes picture
/// sizes in 12 bits.
const MAX_SNAP_SIDE: usize = (1 << 12) - 1;

/// The geometry, then the three planes as zero-run-length blobs. Loading
/// bounds the sides before it allocates the planes.
impl Snapshot for Frame {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.width);
        w.usize(self.height);
        w.blob(&self.y.data);
        w.blob(&self.u.data);
        w.blob(&self.v.data);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let width = r.usize()?;
        let height = r.usize()?;
        let side_ok = |s: usize| s != 0 && s <= MAX_SNAP_SIDE && s.is_multiple_of(MB_SIZE);
        if !side_ok(width) || !side_ok(height) {
            return Err(SnapError::Corrupt("frame geometry"));
        }
        *self = Frame::new(width, height);
        r.blob_into(&mut self.y.data)?;
        r.blob_into(&mut self.u.data)?;
        r.blob_into(&mut self.v.data)
    }
}

impl Frame {
    /// A black frame. Dimensions must be multiples of 16.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width.is_multiple_of(MB_SIZE) && height.is_multiple_of(MB_SIZE),
            "frame dimensions must be multiples of 16 (got {width}x{height})"
        );
        assert!(width > 0 && height > 0);
        Frame {
            width,
            height,
            y: Plane::new(width, height),
            u: Plane::new(width / 2, height / 2),
            v: Plane::new(width / 2, height / 2),
        }
    }

    /// Macroblock columns.
    pub fn mb_cols(&self) -> usize {
        self.width / MB_SIZE
    }

    /// Macroblock rows.
    pub fn mb_rows(&self) -> usize {
        self.height / MB_SIZE
    }

    /// Total macroblocks.
    pub fn mb_count(&self) -> usize {
        self.mb_cols() * self.mb_rows()
    }

    /// Extract the six 8×8 blocks of macroblock (mbx, mby):
    /// Y00, Y01, Y10, Y11, U, V.
    pub fn get_macroblock(&self, mbx: usize, mby: usize) -> [[i16; 64]; BLOCKS_PER_MB] {
        let x = mbx * MB_SIZE;
        let y = mby * MB_SIZE;
        let mut blocks = [[0i16; 64]; BLOCKS_PER_MB];
        self.y.get_block8(x, y, &mut blocks[0]);
        self.y.get_block8(x + 8, y, &mut blocks[1]);
        self.y.get_block8(x, y + 8, &mut blocks[2]);
        self.y.get_block8(x + 8, y + 8, &mut blocks[3]);
        self.u.get_block8(x / 2, y / 2, &mut blocks[4]);
        self.v.get_block8(x / 2, y / 2, &mut blocks[5]);
        blocks
    }

    /// Store six 8×8 blocks into macroblock (mbx, mby).
    pub fn set_macroblock(&mut self, mbx: usize, mby: usize, blocks: &[[i16; 64]; BLOCKS_PER_MB]) {
        let x = mbx * MB_SIZE;
        let y = mby * MB_SIZE;
        self.y.set_block8(x, y, &blocks[0]);
        self.y.set_block8(x + 8, y, &blocks[1]);
        self.y.set_block8(x, y + 8, &blocks[2]);
        self.y.set_block8(x + 8, y + 8, &blocks[3]);
        self.u.set_block8(x / 2, y / 2, &blocks[4]);
        self.v.set_block8(x / 2, y / 2, &blocks[5]);
    }

    /// Peak signal-to-noise ratio of the luma plane against a reference —
    /// the standard codec quality metric, used by the round-trip tests.
    pub fn psnr_y(&self, other: &Frame) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let mse: f64 = self
            .y
            .data
            .iter()
            .zip(&other.y.data)
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum::<f64>()
            / self.y.data.len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }

    /// Serialized byte size of one frame in 4:2:0 (for bandwidth math).
    pub fn byte_size(&self) -> usize {
        self.width * self.height * 3 / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_dimensions_and_planes() {
        let f = Frame::new(64, 48);
        assert_eq!(f.y.data.len(), 64 * 48);
        assert_eq!(f.u.data.len(), 32 * 24);
        assert_eq!(f.mb_cols(), 4);
        assert_eq!(f.mb_rows(), 3);
        assert_eq!(f.mb_count(), 12);
        assert_eq!(f.byte_size(), 64 * 48 * 3 / 2);
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn odd_dimensions_rejected() {
        Frame::new(60, 48);
    }

    #[test]
    fn macroblock_round_trip() {
        let mut f = Frame::new(32, 32);
        // Fill with a recognizable pattern.
        for (i, p) in f.y.data.iter_mut().enumerate() {
            *p = (i % 251) as u8;
        }
        for (i, p) in f.u.data.iter_mut().enumerate() {
            *p = (i % 13) as u8 + 100;
        }
        for (i, p) in f.v.data.iter_mut().enumerate() {
            *p = (i % 7) as u8 + 50;
        }
        let blocks = f.get_macroblock(1, 1);
        let mut g = Frame::new(32, 32);
        g.set_macroblock(1, 1, &blocks);
        assert_eq!(g.get_macroblock(1, 1), blocks);
    }

    #[test]
    fn set_block_clamps_to_pixel_range() {
        let mut p = Plane::new(8, 8);
        let mut block = [0i16; 64];
        block[0] = -50;
        block[1] = 300;
        block[2] = 128;
        p.set_block8(0, 0, &block);
        assert_eq!(p.get(0, 0), 0);
        assert_eq!(p.get(1, 0), 255);
        assert_eq!(p.get(2, 0), 128);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let f = Frame::new(16, 16);
        assert!(f.psnr_y(&f).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let mut a = Frame::new(16, 16);
        for (i, p) in a.y.data.iter_mut().enumerate() {
            *p = (i % 200) as u8;
        }
        let mut b = a.clone();
        for p in b.y.data.iter_mut().step_by(4) {
            *p = p.wrapping_add(3);
        }
        let mut c = a.clone();
        for p in c.y.data.iter_mut().step_by(2) {
            *p = p.wrapping_add(20);
        }
        assert!(a.psnr_y(&b) > a.psnr_y(&c));
    }
}
