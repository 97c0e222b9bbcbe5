//! Motion estimation and compensation.
//!
//! The MC/ME coprocessor of the Eclipse instance performs motion
//! compensation for decoding and motion estimation for encoding, fetching
//! reference-frame data from off-chip memory. This module is the
//! functional kernel: block matching with a predictor-seeded three-step
//! logarithmic search plus half-pel refinement (encoder), and
//! forward/backward/bidirectional prediction with MPEG-style **half-pel
//! interpolation** and edge clamping (both encoder reconstruction and
//! decoder).
//!
//! Motion vectors are in **half-pel units**, as in MPEG-2: an even
//! component is an integer displacement, an odd component selects the
//! bilinearly interpolated half-sample position
//! (`(a+b+1)>>1` horizontally/vertically, `(a+b+c+d+2)>>2` diagonally).

use crate::frame::{Frame, Plane, BLOCKS_PER_MB, MB_SIZE};

/// A motion vector in half-pel units (MPEG-2 semantics): `dx = 3` means
/// 1.5 luma samples to the right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    /// Horizontal displacement in half-pels.
    pub dx: i16,
    /// Vertical displacement in half-pels.
    pub dy: i16,
}

eclipse_sim::snap_fields!(MotionVector { dx, dy });

impl MotionVector {
    /// A vector from full-pel displacements.
    pub fn full_pel(dx: i16, dy: i16) -> Self {
        MotionVector {
            dx: dx * 2,
            dy: dy * 2,
        }
    }
}

/// Sample `plane` at half-pel coordinates `(x2, y2)` (units of half a
/// sample), with MPEG rounding and edge clamping. This single function
/// defines the interpolation for the whole codebase — software codec and
/// coprocessor models alike — so all reconstruction paths agree bit for
/// bit. The block kernel [`SampleGrid::half_rows`] is built on the same
/// rounding step (`interpolate`), and its interior fast path is checked
/// against this per-sample path.
#[inline]
pub fn sample_half(plane: &Plane, x2: i32, y2: i32) -> i16 {
    SampleGrid::of(plane).sample_half(x2, y2)
}

/// MPEG half-pel rounding for the half-sample phase `(HX, HY)`. `at(dx,
/// dy)` reads the sample `dx` right of and `dy` below the integer part of
/// the position; only the taps the phase needs are read.
#[inline(always)]
fn interpolate<const HX: usize, const HY: usize>(at: impl Fn(usize, usize) -> i32) -> i16 {
    let v = match (HX, HY) {
        (0, 0) => at(0, 0),
        (1, 0) => (at(0, 0) + at(1, 0) + 1) >> 1,
        (0, 1) => (at(0, 0) + at(0, 1) + 1) >> 1,
        _ => (at(0, 0) + at(1, 0) + at(0, 1) + at(1, 1) + 2) >> 2,
    };
    v as i16
}

/// A borrowed row-major grid of 8-bit samples read with edge clamping: a
/// [`Plane`], the ME's fetched search window, or the frame store's
/// gathered patch. Every motion sampler goes through it.
#[derive(Debug, Clone, Copy)]
pub struct SampleGrid<'a> {
    data: &'a [u8],
    width: usize,
    height: usize,
}

impl<'a> SampleGrid<'a> {
    /// A `width`×`height` grid over `data` (row-major, non-empty).
    pub fn new(data: &'a [u8], width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0 && data.len() == width * height);
        SampleGrid {
            data,
            width,
            height,
        }
    }

    /// The grid of `plane`'s samples.
    pub fn of(plane: &'a Plane) -> Self {
        SampleGrid::new(&plane.data, plane.width, plane.height)
    }

    #[inline]
    fn clamped(&self, x: i32, y: i32) -> i32 {
        let x = x.clamp(0, self.width as i32 - 1) as usize;
        let y = y.clamp(0, self.height as i32 - 1) as usize;
        self.data[y * self.width + x] as i32
    }

    /// The sample at half-pel `(x2, y2)`, clamped at the edges: the
    /// per-sample path of [`sample_half`].
    #[inline]
    fn sample_half(&self, x2: i32, y2: i32) -> i16 {
        let (xi, yi) = (x2 >> 1, y2 >> 1);
        let at = |dx: usize, dy: usize| self.clamped(xi + dx as i32, yi + dy as i32);
        match (x2 & 1, y2 & 1) {
            (0, 0) => interpolate::<0, 0>(at),
            (1, 0) => interpolate::<1, 0>(at),
            (0, 1) => interpolate::<0, 1>(at),
            _ => interpolate::<1, 1>(at),
        }
    }

    /// Does the `w`×`h` block whose top-left sample sits at half-pel
    /// `(x2, y2)` lie inside the grid, together with the one extra
    /// column/row its half-pel phase reads? Such a block is read as direct
    /// row slices; any other one through a clamped patch.
    #[inline]
    pub fn contains(&self, x2: i32, y2: i32, w: usize, h: usize) -> bool {
        let (xi, yi) = (x2 >> 1, y2 >> 1);
        xi >= 0
            && yi >= 0
            && xi as usize + w + (x2 & 1) as usize <= self.width
            && yi as usize + h + (y2 & 1) as usize <= self.height
    }

    /// Visit the rows of the `w`×`h` block (`w` ≤ 16) whose top-left
    /// sample sits at half-pel `(x2, y2)`: `row(y, samples)` gets row `y`
    /// as `w` interpolated samples, the same values `sample_half`
    /// gives each position.
    ///
    /// A block the grid [contains](SampleGrid::contains) is read with one
    /// loop per phase; any other one through a patch of its clamped samples.
    #[inline]
    pub fn half_rows(&self, x2: i32, y2: i32, w: usize, h: usize, row: impl FnMut(usize, &[i16])) {
        assert!(w <= 16, "half_rows handles rows of up to 16 samples");
        if !self.contains(x2, y2, w, h) {
            return self.clamped_patch(x2, y2, w, h, |g| g.half_rows(x2 & 1, y2 & 1, w, h, row));
        }
        let (x, y) = ((x2 >> 1) as usize, (y2 >> 1) as usize);
        match (x2 & 1, y2 & 1) {
            (0, 0) => self.interior_rows::<0, 0>(x, y, w, h, row),
            (1, 0) => self.interior_rows::<1, 0>(x, y, w, h, row),
            (0, 1) => self.interior_rows::<0, 1>(x, y, w, h, row),
            _ => self.interior_rows::<1, 1>(x, y, w, h, row),
        }
    }

    /// Sum of absolute differences between the 16×16 source block `src`
    /// (rows of 8-bit samples) and the grid's block at half-pel `(x2,
    /// y2)`: the SAD of [`SampleGrid::half_rows`]' samples, computed on
    /// 8-bit rows with one loop per half-pel phase. A block outside the
    /// grid goes through a patch of its clamped samples, like `half_rows`.
    #[inline]
    pub fn sad_16x16(&self, src: &[[u8; 16]; 16], x2: i32, y2: i32) -> u32 {
        if !self.contains(x2, y2, 16, 16) {
            return self.clamped_patch(x2, y2, 16, 16, |g| g.sad_16x16(src, x2 & 1, y2 & 1));
        }
        let (x, y) = ((x2 >> 1) as usize, (y2 >> 1) as usize);
        match (x2 & 1, y2 & 1) {
            (0, 0) => self.interior_sad::<0, 0>(src, x, y),
            (1, 0) => self.interior_sad::<1, 0>(src, x, y),
            (0, 1) => self.interior_sad::<0, 1>(src, x, y),
            _ => self.interior_sad::<1, 1>(src, x, y),
        }
    }

    /// The `w`×`h` block at half-pel `(x2, y2)` when it leaves the grid:
    /// the clamped `(w + hx)`×`(h + hy)` samples it reads are gathered
    /// once into a patch, and `f` reads the block from the patch at the
    /// block's phase `(x2 & 1, y2 & 1)`, where it is interior — the values
    /// `sample_half` gives, with each sample clamped once instead of per
    /// tap. Each patch row is the row's edge sample repeated over the
    /// columns left of the grid, the span of the grid the patch covers,
    /// and the other edge sample over the columns right of it.
    fn clamped_patch<R>(
        &self,
        x2: i32,
        y2: i32,
        w: usize,
        h: usize,
        f: impl FnOnce(SampleGrid<'_>) -> R,
    ) -> R {
        let (xi, yi) = (x2 >> 1, y2 >> 1);
        let (pw, ph) = (w + (x2 & 1) as usize, h + (y2 & 1) as usize);
        // Patch columns left of the grid, right of it, and between.
        let left = (-xi).clamp(0, pw as i32) as usize;
        let right = (xi + pw as i32 - self.width as i32).clamp(0, pw as i32) as usize;
        let span = pw - left - right;
        let x0 = (xi.max(0) as usize).min(self.width);
        let mut patch = [0u8; 17 * 17];
        for (r, dst) in patch.chunks_exact_mut(pw).take(ph).enumerate() {
            let sy = (yi + r as i32).clamp(0, self.height as i32 - 1) as usize;
            let src = &self.data[sy * self.width..][..self.width];
            let (head, rest) = dst.split_at_mut(left);
            let (mid, tail) = rest.split_at_mut(span);
            head.fill(src[0]);
            mid.copy_from_slice(&src[x0..x0 + span]);
            tail.fill(src[self.width - 1]);
        }
        f(SampleGrid::new(&patch[..pw * ph], pw, ph))
    }

    #[inline(always)]
    fn interior_sad<const HX: usize, const HY: usize>(
        &self,
        src: &[[u8; 16]; 16],
        x: usize,
        y: usize,
    ) -> u32 {
        let row = |at: usize| -> &[u8; 16] {
            self.data[at..]
                .first_chunk()
                .expect("an interior block's row lies inside the grid")
        };
        // Per-column sums of at most 16 differences of at most 255 each.
        let mut sums = [0u16; 16];
        for (r, s) in src.iter().enumerate() {
            let (top, below) = ((y + r) * self.width + x, (y + r + HY) * self.width + x);
            let (a, b, c, d) = (row(top), row(top + HX), row(below), row(below + HX));
            // `interpolate`'s rounding on 16-bit lanes, back to 8 bits.
            let pred: [u8; 16] = std::array::from_fn(|i| {
                let (a, b, c, d) = (a[i] as u16, b[i] as u16, c[i] as u16, d[i] as u16);
                (match (HX, HY) {
                    (0, 0) => a,
                    (1, 0) => (a + b + 1) >> 1,
                    (0, 1) => (a + c + 1) >> 1,
                    _ => (a + b + c + d + 2) >> 2,
                }) as u8
            });
            for ((sum, &s), &p) in sums.iter_mut().zip(s).zip(&pred) {
                *sum += (s.max(p) - s.min(p)) as u16;
            }
        }
        sums.iter().map(|&v| v as u32).sum()
    }

    #[inline(always)]
    fn interior_rows<const HX: usize, const HY: usize>(
        &self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        mut row: impl FnMut(usize, &[i16]),
    ) {
        let mut buf = [0i16; 16];
        for r in 0..h {
            let top = &self.data[(y + r) * self.width + x..][..w + HX];
            let below = &self.data[(y + r + HY) * self.width + x..][..w + HX];
            for (i, v) in buf[..w].iter_mut().enumerate() {
                *v = interpolate::<HX, HY>(|dx, dy| {
                    (if dy == 0 { top } else { below })[i + dx] as i32
                });
            }
            row(r, &buf[..w]);
        }
    }
}

/// How a macroblock is predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionMode {
    /// No prediction (intra coding).
    Intra,
    /// Forward prediction from the past anchor frame.
    Forward(MotionVector),
    /// Backward prediction from the future anchor frame (B pictures).
    Backward(MotionVector),
    /// Average of forward and backward predictions (B pictures).
    Bidirectional(MotionVector, MotionVector),
}

/// The 16×16 luma samples of macroblock (mbx, mby) of `frame`, as rows:
/// the source block of [`SampleGrid::sad_16x16`].
pub fn luma_rows(frame: &Frame, mbx: usize, mby: usize) -> [[u8; 16]; 16] {
    let (x0, y0) = (mbx * MB_SIZE, mby * MB_SIZE);
    let mut rows = [[0u8; 16]; 16];
    for (y, row) in rows.iter_mut().enumerate() {
        row.copy_from_slice(&frame.y.data[(y0 + y) * frame.y.width + x0..][..MB_SIZE]);
    }
    rows
}

/// Sum of absolute differences between the 16×16 luma macroblock at
/// (mbx, mby) of `cur` and the (possibly out-of-bounds, edge-clamped)
/// block displaced by `mv` in `reference`.
pub fn sad_16x16(cur: &Frame, reference: &Frame, mbx: usize, mby: usize, mv: MotionVector) -> u32 {
    let src = luma_rows(cur, mbx, mby);
    SampleGrid::of(&reference.y).sad_16x16(
        &src,
        (mbx * MB_SIZE) as i32 * 2 + mv.dx as i32,
        (mby * MB_SIZE) as i32 * 2 + mv.dy as i32,
    )
}

/// Three-step logarithmic search around the zero vector. Returns the best
/// motion vector and its SAD. `range` bounds |dx|, |dy| (full-pel).
///
/// Also returns the number of SAD evaluations performed, which the ME
/// cycle-cost model charges for.
pub fn three_step_search(
    cur: &Frame,
    reference: &Frame,
    mbx: usize,
    mby: usize,
    range: u8,
) -> (MotionVector, u32, u32) {
    three_step_search_pred(cur, reference, mbx, mby, range, &[MotionVector::default()])
}

/// Three-step search seeded with candidate predictors (the zero vector,
/// the left-neighbour vector, a global pan estimate...), over the frame
/// `reference`: [`search`] with [`SampleGrid::sad_16x16`] as the cost.
pub fn three_step_search_pred(
    cur: &Frame,
    reference: &Frame,
    mbx: usize,
    mby: usize,
    range: u8,
    candidates: &[MotionVector],
) -> (MotionVector, u32, u32) {
    let src = luma_rows(cur, mbx, mby);
    let grid = SampleGrid::of(&reference.y);
    let (x2, y2) = ((mbx * MB_SIZE) as i32 * 2, (mby * MB_SIZE) as i32 * 2);
    search(range, candidates, |mv| {
        grid.sad_16x16(&src, x2 + mv.dx as i32, y2 + mv.dy as i32)
    })
}

/// Predictor-seeded three-step search under the cost `sad(mv)`: the
/// software encoder's and the ME coprocessor's one search. Textured
/// scenes have a delta-function SAD minimum sitting on a rugged plateau;
/// a bare logarithmic search gets trapped, which is why real encoders seed
/// the search with neighbouring vectors. The best candidate becomes the
/// refinement centre. Returns (half-pel vector, SAD, SAD evaluations);
/// `range` bounds |dx|, |dy| in full pels.
pub fn search(
    range: u8,
    candidates: &[MotionVector],
    mut sad: impl FnMut(MotionVector) -> u32,
) -> (MotionVector, u32, u32) {
    // Vectors are half-pel; the coarse search walks the full-pel lattice
    // (even components), then a final pass refines to half-pel — the
    // classic MPEG encoder structure.
    let limit = range as i16 * 2 + 1; // half-pel clamp
    let clamp = |v: MotionVector| MotionVector {
        dx: v.dx.clamp(-limit, limit),
        dy: v.dy.clamp(-limit, limit),
    };
    let mut best = clamp(*candidates.first().unwrap_or(&MotionVector::default()));
    let mut best_sad = sad(best);
    let mut evals: u32 = 1;
    let mut consider = |cand: MotionVector, best: &mut MotionVector, best_sad: &mut u32| {
        if cand == *best {
            return;
        }
        let s = sad(cand);
        evals += 1;
        if s < *best_sad || (s == *best_sad && (cand.dx, cand.dy) < (best.dx, best.dy)) {
            *best_sad = s;
            *best = cand;
        }
    };
    for &cand in candidates.iter().skip(1) {
        consider(clamp(cand), &mut best, &mut best_sad);
    }
    let mut step = ((range.max(1) as u16).next_power_of_two()) as i16; // full-pel step in half-pel units
                                                                       // The full-pel steps, then the half-pel refinement around the
                                                                       // full-pel optimum.
    while step >= 1 {
        let center = best;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = clamp(MotionVector {
                    dx: center.dx + dx,
                    dy: center.dy + dy,
                });
                consider(cand, &mut best, &mut best_sad);
            }
        }
        step /= 2;
    }
    (best, best_sad, evals)
}

/// Build the six 8×8 prediction blocks for macroblock (mbx, mby) using
/// `mode`. `fwd_ref` is the past anchor, `bwd_ref` the future anchor
/// (needed only for backward/bidirectional modes). Chroma vectors are the
/// luma vector halved (toward zero), as in MPEG.
pub fn predict_macroblock(
    mode: PredictionMode,
    fwd_ref: Option<&Frame>,
    bwd_ref: Option<&Frame>,
    mbx: usize,
    mby: usize,
) -> [[i16; 64]; BLOCKS_PER_MB] {
    let mut out = [[0i16; 64]; BLOCKS_PER_MB];
    match mode {
        PredictionMode::Intra => out, // zero prediction
        PredictionMode::Forward(mv) => {
            fetch_pred(
                fwd_ref.expect("forward prediction needs a past reference"),
                mbx,
                mby,
                mv,
                &mut out,
            );
            out
        }
        PredictionMode::Backward(mv) => {
            fetch_pred(
                bwd_ref.expect("backward prediction needs a future reference"),
                mbx,
                mby,
                mv,
                &mut out,
            );
            out
        }
        PredictionMode::Bidirectional(fmv, bmv) => {
            let mut f = [[0i16; 64]; BLOCKS_PER_MB];
            let mut b = [[0i16; 64]; BLOCKS_PER_MB];
            fetch_pred(
                fwd_ref.expect("bidirectional prediction needs a past reference"),
                mbx,
                mby,
                fmv,
                &mut f,
            );
            fetch_pred(
                bwd_ref.expect("bidirectional prediction needs a future reference"),
                mbx,
                mby,
                bmv,
                &mut b,
            );
            for blk in 0..BLOCKS_PER_MB {
                for i in 0..64 {
                    // MPEG averaging with round-up.
                    out[blk][i] = (f[blk][i] + b[blk][i] + 1) >> 1;
                }
            }
            out
        }
    }
}

fn fetch_pred(
    reference: &Frame,
    mbx: usize,
    mby: usize,
    mv: MotionVector,
    out: &mut [[i16; 64]; BLOCKS_PER_MB],
) {
    // Half-pel coordinates of the macroblock origin.
    let x2 = (mbx * MB_SIZE) as i32 * 2;
    let y2 = (mby * MB_SIZE) as i32 * 2;
    let (dx, dy) = (mv.dx as i32, mv.dy as i32);
    fetch_block_half(&reference.y, x2 + dx, y2 + dy, &mut out[0]);
    fetch_block_half(&reference.y, x2 + 16 + dx, y2 + dy, &mut out[1]);
    fetch_block_half(&reference.y, x2 + dx, y2 + 16 + dy, &mut out[2]);
    fetch_block_half(&reference.y, x2 + 16 + dx, y2 + 16 + dy, &mut out[3]);
    // Chroma: half-resolution plane; the chroma vector is the luma vector
    // halved toward zero, still in (chroma) half-pel units — MPEG's rule.
    let (cdx, cdy) = (div2(mv.dx) as i32, div2(mv.dy) as i32);
    fetch_block_half(&reference.u, x2 / 2 + cdx, y2 / 2 + cdy, &mut out[4]);
    fetch_block_half(&reference.v, x2 / 2 + cdx, y2 / 2 + cdy, &mut out[5]);
}

/// Fetch an 8×8 block whose top-left corner sits at half-pel coordinates
/// `(x2, y2)` of `plane`, interpolating as needed.
pub fn fetch_block_half(plane: &Plane, x2: i32, y2: i32, out: &mut [i16; 64]) {
    SampleGrid::of(plane).half_rows(x2, y2, 8, 8, |y, row| {
        out[y * 8..][..8].copy_from_slice(row)
    });
}

#[inline]
fn div2(v: i16) -> i16 {
    v / 2 // toward zero, both signs
}

/// Number of reference bytes an MC fetch touches: 4 luma + 2 chroma 8×8
/// blocks per prediction direction. The MC coprocessor's off-chip
/// bandwidth model uses this.
pub fn mc_fetch_bytes(mode: PredictionMode) -> u32 {
    match mode {
        PredictionMode::Intra => 0,
        PredictionMode::Forward(_) | PredictionMode::Backward(_) => 6 * 64,
        PredictionMode::Bidirectional(..) => 2 * 6 * 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame with a bright 16x16 square whose top-left corner is (x, y).
    fn frame_with_square(x: usize, y: usize) -> Frame {
        let mut f = Frame::new(64, 64);
        for p in f.y.data.iter_mut() {
            *p = 20;
        }
        for dy in 0..16 {
            for dx in 0..16 {
                f.y.set(x + dx, y + dy, 200);
            }
        }
        f
    }

    #[test]
    fn sad_zero_for_identical_frames() {
        let f = frame_with_square(16, 16);
        assert_eq!(sad_16x16(&f, &f, 1, 1, MotionVector::default()), 0);
    }

    #[test]
    fn sad_detects_displacement() {
        let cur = frame_with_square(20, 16); // moved 4 px right
        let reference = frame_with_square(16, 16);
        let wrong = sad_16x16(&cur, &reference, 1, 1, MotionVector::default());
        let right = sad_16x16(&cur, &reference, 1, 1, MotionVector::full_pel(-4, 0));
        assert!(right < wrong, "right {right} < wrong {wrong}");
        assert_eq!(right, 0);
    }

    #[test]
    fn three_step_search_finds_simple_motion() {
        // Object moves (+4, +2) between reference and current.
        let reference = frame_with_square(16, 16);
        let cur = frame_with_square(20, 18);
        let (mv, sad, evals) = three_step_search(&cur, &reference, 1, 1, 16);
        assert_eq!(mv, MotionVector::full_pel(-4, -2));
        assert_eq!(sad, 0);
        assert!(evals > 1 && evals < 120);
    }

    #[test]
    fn search_respects_range() {
        let reference = frame_with_square(0, 0);
        let cur = frame_with_square(48, 48);
        let (mv, _, _) = three_step_search(&cur, &reference, 3, 3, 4);
        // range 4 full-pel => |component| <= 2*4 + 1 half-pels.
        assert!(mv.dx.abs() <= 9 && mv.dy.abs() <= 9);
    }

    #[test]
    fn forward_prediction_reproduces_reference() {
        let reference = frame_with_square(16, 16);
        let pred = predict_macroblock(
            PredictionMode::Forward(MotionVector::default()),
            Some(&reference),
            None,
            1,
            1,
        );
        let direct = reference.get_macroblock(1, 1);
        assert_eq!(pred, direct);
    }

    #[test]
    fn displaced_prediction_shifts_content() {
        let reference = frame_with_square(16, 16);
        let mv = MotionVector::full_pel(16, 0);
        // Predicting MB (0,1) with dx=16 full-pel lands exactly on the
        // square at (16, 16).
        let pred = predict_macroblock(PredictionMode::Forward(mv), Some(&reference), None, 0, 1);
        let target = reference.get_macroblock(1, 1);
        assert_eq!(pred[0], target[0]);
    }

    #[test]
    fn half_pel_prediction_interpolates() {
        let mut reference = Frame::new(32, 32);
        // Vertical stripes: columns alternate 100 / 200.
        for y in 0..32 {
            for x in 0..32 {
                reference.y.set(x, y, if x % 2 == 0 { 100 } else { 200 });
            }
        }
        // A half-pel horizontal shift averages adjacent columns -> 150.
        let pred = predict_macroblock(
            PredictionMode::Forward(MotionVector { dx: 1, dy: 0 }),
            Some(&reference),
            None,
            0,
            0,
        );
        assert!(
            pred[0].iter().all(|&v| v == 150),
            "half-pel average expected, got {:?}",
            &pred[0][..8]
        );
    }

    #[test]
    fn half_pel_diagonal_uses_four_tap_rounding() {
        let mut reference = Frame::new(32, 32);
        reference.y.set(0, 0, 10);
        reference.y.set(1, 0, 20);
        reference.y.set(0, 1, 30);
        reference.y.set(1, 1, 41);
        // (10+20+30+41+2)>>2 = 25 (with the +2 round).
        assert_eq!(sample_half(&reference.y, 1, 1), 25);
        // Pure horizontal: (10+20+1)>>1 = 15.
        assert_eq!(sample_half(&reference.y, 1, 0), 15);
        // Full-pel passthrough.
        assert_eq!(sample_half(&reference.y, 2, 0), 20);
    }

    #[test]
    fn clamped_sampling_replicates_edges() {
        let mut p = Plane::new(8, 8);
        p.set(0, 0, 11);
        p.set(7, 7, 99);
        assert_eq!(sample_half(&p, -10, -10), 11);
        assert_eq!(sample_half(&p, 200, 200), 99);
        let mut block = [0i16; 64];
        fetch_block_half(&p, -8, -8, &mut block);
        assert_eq!(block[0], 11);
    }

    #[test]
    fn search_refines_to_half_pel() {
        // Current frame = reference shifted by exactly half a sample
        // (each pixel the average of two neighbours).
        let mut reference = Frame::new(64, 64);
        for y in 0..64usize {
            for x in 0..64usize {
                // Hash-based texture: no modular aliasing under shifts.
                let mut h = (x as u64) << 32 | y as u64;
                h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 29;
                reference.y.set(x, y, (h % 200) as u8);
            }
        }
        let mut cur = Frame::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                cur.y.set(
                    x,
                    y,
                    sample_half(&reference.y, x as i32 * 2 + 1, y as i32 * 2).clamp(0, 255) as u8,
                );
            }
        }
        let (mv, sad, _) = three_step_search(&cur, &reference, 1, 1, 4);
        assert_eq!(
            mv,
            MotionVector { dx: 1, dy: 0 },
            "should lock onto the half-pel shift"
        );
        assert_eq!(sad, 0);
    }

    #[test]
    fn bidirectional_prediction_averages() {
        let mut a = Frame::new(32, 32);
        let mut b = Frame::new(32, 32);
        for p in a.y.data.iter_mut() {
            *p = 100;
        }
        for p in b.y.data.iter_mut() {
            *p = 200;
        }
        let pred = predict_macroblock(
            PredictionMode::Bidirectional(MotionVector::default(), MotionVector::default()),
            Some(&a),
            Some(&b),
            0,
            0,
        );
        assert!(pred[0].iter().all(|&v| v == 150));
    }

    #[test]
    fn intra_mode_predicts_zero() {
        let pred = predict_macroblock(PredictionMode::Intra, None, None, 0, 0);
        assert!(pred.iter().all(|b| b.iter().all(|&v| v == 0)));
    }

    #[test]
    fn chroma_vector_is_halved() {
        let mut reference = Frame::new(32, 32);
        // Chroma plane 16x16: mark (4, 0) in U.
        reference.u.set(4, 0, 77);
        // Luma vector 8 full-pel = 16 half-pel; chroma = 8 chroma
        // half-pels = 4 full chroma samples.
        let mv = MotionVector::full_pel(8, 0);
        let pred = predict_macroblock(PredictionMode::Forward(mv), Some(&reference), None, 0, 0);
        assert_eq!(pred[4][0], 77);
    }

    #[test]
    fn fetch_bytes_model() {
        assert_eq!(mc_fetch_bytes(PredictionMode::Intra), 0);
        assert_eq!(
            mc_fetch_bytes(PredictionMode::Forward(MotionVector::default())),
            384
        );
        assert_eq!(
            mc_fetch_bytes(PredictionMode::Bidirectional(
                MotionVector::default(),
                MotionVector::default()
            )),
            768
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Frame sizes: every multiple of 16 up to 64 on each axis, plus QCIF.
    fn frame_size() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            (1usize..=4, 1usize..=4).prop_map(|(w, h)| (w * 16, h * 16)),
            Just((176, 144)),
        ]
    }

    /// SplitMix64 stream for plane contents and vectors.
    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn random_frame(width: usize, height: usize, next: &mut impl FnMut() -> u64) -> Frame {
        let mut f = Frame::new(width, height);
        for p in [&mut f.y, &mut f.u, &mut f.v] {
            p.data.iter_mut().for_each(|s| *s = next() as u8);
        }
        f
    }

    /// A half-pel vector whose components reach range + 2 full pels, on
    /// either phase.
    fn random_vector(range: u8, next: &mut impl FnMut() -> u64) -> MotionVector {
        let lim = 2 * (range as i64 + 2) + 1;
        let mut c = || ((next() % (2 * lim as u64 + 1)) as i64 - lim) as i16;
        MotionVector { dx: c(), dy: c() }
    }

    /// The clamped per-sample SAD: `sad_16x16` without the fast path.
    fn clamped_sad(
        cur: &Frame,
        reference: &Frame,
        mbx: usize,
        mby: usize,
        mv: MotionVector,
    ) -> u32 {
        let (x0, y0) = ((mbx * MB_SIZE) as i32, (mby * MB_SIZE) as i32);
        let mut sad = 0;
        for y in 0..MB_SIZE as i32 {
            for x in 0..MB_SIZE as i32 {
                let c = cur.y.get((x0 + x) as usize, (y0 + y) as usize) as i32;
                let r = sample_half(
                    &reference.y,
                    (x0 + x) * 2 + mv.dx as i32,
                    (y0 + y) * 2 + mv.dy as i32,
                ) as i32;
                sad += (c - r).unsigned_abs();
            }
        }
        sad
    }

    /// The former row-based SAD, kept as an oracle of the 8-bit kernel:
    /// `half_rows`' interpolated rows against the source.
    fn row_sad(grid: &SampleGrid<'_>, src: &[[u8; 16]; 16], x2: i32, y2: i32) -> u32 {
        let mut sad = 0;
        grid.half_rows(x2, y2, 16, 16, |y, pred| {
            sad += src[y]
                .iter()
                .zip(pred)
                .map(|(&s, &p)| (s as i32 - p as i32).unsigned_abs())
                .sum::<u32>()
        });
        sad
    }

    /// Vectors at the corners of the box `random_vector` draws from: a
    /// full-pel part of range + 2 pels, with and without the half phase.
    fn extreme_vectors(range: u8) -> [MotionVector; 4] {
        let (even, far) = (2 * (range as i16 + 2), 2 * (range as i16 + 2) + 1);
        [(-far, -far), (far, far), (-even, far), (far, -even)]
            .map(|(dx, dy)| MotionVector { dx, dy })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every macroblock (so every edge and corner one) of random
        /// frames, under random vectors out to ±(range + 2) pels on either
        /// phase and the corners of that box: the 8-bit SAD kernel equals
        /// the clamped per-sample SAD and the former row-based one,
        /// whichever path it takes.
        #[test]
        fn sad_16x16_matches_clamped_path(
            (w, h) in frame_size(),
            range in 1u8..=16,
            seed in any::<u64>(),
        ) {
            let mut next = rng(seed);
            let cur = random_frame(w, h, &mut next);
            let reference = random_frame(w, h, &mut next);
            let grid = SampleGrid::of(&reference.y);
            for mby in 0..h / MB_SIZE {
                for mbx in 0..w / MB_SIZE {
                    let random: Vec<_> = (0..4).map(|_| random_vector(range, &mut next)).collect();
                    for mv in random.into_iter().chain(extreme_vectors(range)) {
                        let got = sad_16x16(&cur, &reference, mbx, mby, mv);
                        let (x2, y2) = ((mbx * 32) as i32 + mv.dx as i32, (mby * 32) as i32 + mv.dy as i32);
                        let src = luma_rows(&cur, mbx, mby);
                        prop_assert_eq!(
                            got,
                            clamped_sad(&cur, &reference, mbx, mby, mv),
                            "{}x{} mb ({}, {}) mv {:?}", w, h, mbx, mby, mv
                        );
                        prop_assert_eq!(got, row_sad(&grid, &src, x2, y2), "row-based, mv {:?}", mv);
                    }
                }
            }
        }

        /// Blocks outside grids of 1 to 40 samples a side, from just
        /// across an edge to far beyond it, at each of the four half-pel
        /// phases: `sad_16x16` and `half_rows` equal the samples clamped
        /// one at a time (`sample_half`).
        #[test]
        fn out_of_grid_blocks_match_per_sample_clamping(
            (gw, gh) in (1usize..=40, 1usize..=40),
            seed in any::<u64>(),
        ) {
            let mut next = rng(seed);
            let data: Vec<u8> = (0..gw * gh).map(|_| next() as u8).collect();
            let grid = SampleGrid::new(&data, gw, gh);
            let src: [[u8; 16]; 16] = std::array::from_fn(|_| std::array::from_fn(|_| next() as u8));
            // A full-pel origin from 40 samples left of (above) the grid
            // to 24 right of (below) it.
            let mut origin = |n: usize| (next() % (n as u64 + 64)) as i32 - 40;
            for _ in 0..8 {
                let (xi, yi) = (origin(gw), origin(gh));
                for (hx, hy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    let (x2, y2) = (2 * xi + hx, 2 * yi + hy);
                    if grid.contains(x2, y2, 16, 16) {
                        continue;
                    }
                    let at = |c: usize, r: usize| grid.sample_half(x2 + 2 * c as i32, y2 + 2 * r as i32);
                    let want: u32 = (0..16)
                        .flat_map(|r| (0..16).map(move |c| (r, c)))
                        .map(|(r, c)| (src[r][c] as i32 - at(c, r) as i32).unsigned_abs())
                        .sum();
                    prop_assert_eq!(grid.sad_16x16(&src, x2, y2), want, "{}x{} at ({}, {})", gw, gh, x2, y2);
                    let mut rows_ok = true;
                    grid.half_rows(x2, y2, 16, 16, |r, row| {
                        rows_ok &= row.iter().enumerate().all(|(c, &v)| v == at(c, r));
                    });
                    prop_assert!(rows_ok, "half_rows {}x{} at ({}, {})", gw, gh, x2, y2);
                }
            }
        }

        /// Every 8×8 block of each plane, displaced by random vectors:
        /// `fetch_block_half` equals `sample_half` at each position.
        #[test]
        fn fetch_block_half_matches_clamped_path(
            (w, h) in frame_size(),
            range in 1u8..=16,
            seed in any::<u64>(),
        ) {
            let mut next = rng(seed);
            let f = random_frame(w, h, &mut next);
            for plane in [&f.y, &f.u, &f.v] {
                for by in 0..plane.height / 8 {
                    for bx in 0..plane.width / 8 {
                        for _ in 0..4 {
                            let mv = random_vector(range, &mut next);
                            let (x2, y2) = (bx as i32 * 16 + mv.dx as i32, by as i32 * 16 + mv.dy as i32);
                            let mut out = [0i16; 64];
                            fetch_block_half(plane, x2, y2, &mut out);
                            for (i, &v) in out.iter().enumerate() {
                                let (x, y) = ((i % 8) as i32, (i / 8) as i32);
                                prop_assert_eq!(
                                    v,
                                    sample_half(plane, x2 + 2 * x, y2 + 2 * y),
                                    "{}x{} block ({}, {}) mv {:?} sample {}", plane.width, plane.height, bx, by, mv, i
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
