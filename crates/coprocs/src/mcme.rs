//! The MC/ME coprocessor: motion compensation (decode), motion
//! estimation (encode), and the encoder's reconstruction loop.
//!
//! Paper Figure 8: "the motion compensation/motion estimation (MC/ME)
//! coprocessor has a dedicated connection to the system bus to access
//! MPEG reference frames in off-chip memory." Its off-chip traffic —
//! double for bidirectionally predicted macroblocks — is what shifts the
//! decoding bottleneck to MC for B pictures in the paper's Figure 10.
//!
//! Task functions:
//!
//! * `mc` — decode-side motion compensation: consumes the mv stream (from
//!   VLD) and the residual block stream (from IDCT), fetches predictions
//!   from the tiled frame store, reconstructs macroblocks, writes them
//!   back to the frame store (reference + display) and streams them to
//!   the display task;
//! * `me` — encode-side motion estimation: consumes source macroblocks,
//!   searches the reconstructed reference frames (through a fetched
//!   search window, like a hardware ME's window cache), decides
//!   intra/inter/bi modes, and emits the mb-decision stream plus the
//!   six residual blocks per macroblock;
//! * `recon` — the encoder's local decoding loop tail: adds the
//!   dequantized/IDCT'd residual back onto the prediction and writes
//!   anchor reconstructions into the frame store. It signals each
//!   completed anchor picture back to `me` over a feedback stream (the
//!   frame-level dependency that makes the encode graph cyclic).

use std::collections::BTreeMap;

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_media::motion::{self, MotionVector, SampleGrid};
use eclipse_media::stream::{PictureType, SequenceHeader};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cost::McCost;
use crate::framestore::{FrameStore, PlaneSel};
use crate::io::{Head, StepReader, StepWriter};
use crate::records::{
    self, cblk_from_bytes, cblk_to_bytes, mbmv_from_bytes, mbmv_to_bytes, PicRec, TAG_EOS, TAG_MB,
};

/// Per-task configuration: the frame-store arena this task works in.
#[derive(Debug, Clone, Copy, Default)]
pub struct McTaskConfig {
    /// Base address of the frame arena in off-chip memory.
    pub arena_base: u32,
    /// Frame geometry.
    pub width: u32,
    /// Frame geometry.
    pub height: u32,
    /// Encode-side search range in full pels (ME tasks only).
    pub search_range: u8,
}

eclipse_sim::snap_fields!(McTaskConfig {
    arena_base,
    width,
    height,
    search_range
});

/// Number of frame slots in a decode arena (two anchors + one B scratch +
/// one display).
pub const DECODE_SLOTS: u32 = 4;
/// Number of frame slots in an encode arena (two alternating anchors).
pub const ENCODE_SLOTS: u32 = 2;

/// Bytes an arena needs for `slots` frames of the given geometry.
pub fn arena_bytes(width: u32, height: u32, slots: u32) -> u32 {
    FrameStore::new(width, height).slot_bytes() * slots
}

#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    /// Slot holding the most recent anchor.
    last_anchor: Option<u32>,
    /// Slot holding the anchor before that.
    prev_anchor: Option<u32>,
    /// Anchors processed so far (drives the rotation).
    anchor_count: u32,
}

impl SlotState {
    /// Slot the next anchor will occupy.
    fn next_anchor_slot(&self, max_slots: u32) -> u32 {
        self.anchor_count % max_slots.min(2)
    }

    /// Rotate after an anchor picture completes.
    fn complete_anchor(&mut self, slot: u32) {
        self.prev_anchor = self.last_anchor;
        self.last_anchor = Some(slot);
        self.anchor_count += 1;
    }
}

eclipse_sim::snap_fields!(SlotState {
    last_anchor,
    prev_anchor,
    anchor_count
});

#[derive(Default)]
struct McTask {
    cfg: McTaskConfig,
    fs: FrameStore,
    slots: SlotState,
    pic: Option<PicRec>,
    /// Slot the current picture is being written to (mc/recon).
    write_slot: u32,
    mb_index: u32,
    /// Cycle at which the current picture's first record was seen.
    pic_start: u64,
    /// Completed picture spans (for bottleneck attribution).
    pic_spans: Vec<records::PicSpan>,
    /// Statistics.
    mbs_done: u64,
    ref_bytes_fetched: u64,
    /// Damaged records tolerated instead of crashing.
    errors_recovered: u64,
    /// Macroblocks reconstructed from a fallback prediction.
    mbs_concealed: u64,
}

eclipse_sim::snap_fields!(
    /// The frame store is pure geometry (the pixels live in off-chip
    /// memory); it is rebuilt from the config on load.
    McTask {
        cfg,
        slots,
        pic,
        write_slot,
        mb_index,
        pic_start,
        pic_spans,
        mbs_done,
        ref_bytes_fetched,
        errors_recovered,
        mbs_concealed,
    } then McTask::rebuild_frame_store
);

impl McTask {
    /// Rebuild the frame store from a loaded config, whose sides must be
    /// nonzero multiples of 16 within the sequence header's limit, and
    /// reject a picture, macroblock cursor or slot the task could not
    /// have reached: the picture is nonempty and fits the frame store (as
    /// the PIC parser enforces), the cursor stays within it, and slots
    /// index the arena.
    fn rebuild_frame_store(&mut self) -> Result<(), SnapError> {
        let side_ok =
            |s: u32| s != 0 && s.is_multiple_of(16) && s <= SequenceHeader::MAX_DIM as u32;
        let pic_ok = self
            .pic
            .is_none_or(|p| self.fits(&p) && self.mb_index <= p.mb_count());
        if !side_ok(self.cfg.width) || !side_ok(self.cfg.height) || !pic_ok {
            return Err(SnapError::Corrupt("mc task picture"));
        }
        if self.slots_used() > DECODE_SLOTS {
            return Err(SnapError::Corrupt("mc task slot"));
        }
        self.fs = FrameStore::new(self.cfg.width, self.cfg.height);
        Ok(())
    }

    /// Is `pic` a nonempty picture within the configured frame? A
    /// damaged header that is not would break macroblock indexing and
    /// the frame-store accesses.
    fn fits(&self, pic: &PicRec) -> bool {
        pic.mb_count() > 0
            && pic.mb_cols as u32 <= self.cfg.width.div_ceil(16)
            && pic.mb_rows as u32 <= self.cfg.height.div_ceil(16)
    }

    /// Arena slots the task's state refers to: one past the highest.
    /// (Reconstruction marks a B picture, which it never stores, with a
    /// write slot of `u32::MAX`.)
    fn slots_used(&self) -> u32 {
        let s = &self.slots;
        let write = (self.write_slot != u32::MAX).then_some(self.write_slot);
        let highest = [write, s.last_anchor, s.prev_anchor];
        highest
            .into_iter()
            .flatten()
            .max()
            .map_or(0, |slot| slot.saturating_add(1))
    }

    /// Do the slots the task refers to lie inside off-chip memory?
    fn arena_fits(&self, dram_bytes: u32) -> bool {
        let end =
            self.cfg.arena_base as u64 + self.slots_used() as u64 * self.fs.slot_bytes() as u64;
        end <= dram_bytes as u64
    }
}

enum TaskKind {
    Mc(McTask),
    Me(MeTask),
    Recon(McTask),
}

eclipse_sim::snap_fields!(MeTask {
    inner,
    anchors_confirmed,
    sad_evals,
    mv_pred
});

impl Default for TaskKind {
    fn default() -> Self {
        TaskKind::Mc(McTask::default())
    }
}

eclipse_sim::snap_enum!(TaskKind {
    Mc(task) = 0,
    Me(task) = 1,
    Recon(task) = 2,
});

/// The MC/ME coprocessor model.
pub struct McMeCoproc {
    cost: McCost,
    /// Ordered maps: checkpoint serialization iterates them, and two
    /// builds of the same system must produce identical bytes.
    cfgs: BTreeMap<String, McTaskConfig>,
    tasks: BTreeMap<TaskIdx, TaskKind>,
}

eclipse_sim::snap_fields!(McMeCoproc { cfgs, tasks });

impl McMeCoproc {
    /// A new MC/ME with arena configurations keyed by task instance name.
    pub fn new(cost: McCost, cfgs: BTreeMap<String, McTaskConfig>) -> Self {
        McMeCoproc {
            cost,
            cfgs,
            tasks: BTreeMap::new(),
        }
    }

    /// Picture spans processed by a task (for the Figure 10 analysis).
    pub fn pic_spans(&self, task: TaskIdx) -> &[records::PicSpan] {
        match self.tasks.get(&task) {
            Some(TaskKind::Mc(t)) | Some(TaskKind::Recon(t)) => &t.pic_spans,
            Some(TaskKind::Me(t)) => &t.inner.pic_spans,
            None => &[],
        }
    }

    /// Reference bytes fetched by a task (bandwidth statistics).
    pub fn ref_bytes_fetched(&self, task: TaskIdx) -> u64 {
        match self.tasks.get(&task) {
            Some(TaskKind::Mc(t)) | Some(TaskKind::Recon(t)) => t.ref_bytes_fetched,
            Some(TaskKind::Me(t)) => t.inner.ref_bytes_fetched,
            None => 0,
        }
    }
}

// ---- decode-side MC --------------------------------------------------------

/// mc ports: in0 = mv stream, in1 = residual blocks, out0 = recon pixels.
mod mc_port {
    use super::PortId;
    pub const IN_MV: PortId = 0;
    pub const IN_RESID: PortId = 1;
    pub const OUT_PIX: PortId = 2;
}

/// Fetch the six prediction blocks for macroblock (mbx, mby) displaced by
/// `mv` from the frame in `slot`.
fn fetch_pred(
    ctx: &mut StepCtx<'_>,
    fs: &FrameStore,
    arena: u32,
    slot: u32,
    mbx: u32,
    mby: u32,
    mv: MotionVector,
) -> [[i16; 64]; 6] {
    let base = arena + slot * fs.slot_bytes();
    // Half-pel macroblock origin (vectors are half-pel, MPEG semantics).
    let (x2, y2) = ((mbx * 32) as i32, (mby * 32) as i32);
    let (dx, dy) = (mv.dx as i32, mv.dy as i32);
    // Chroma: luma vector halved toward zero, in chroma half-pels.
    let (cdx, cdy) = ((mv.dx / 2) as i32, (mv.dy / 2) as i32);
    let (cx2, cy2) = ((mbx * 16) as i32, (mby * 16) as i32);
    [
        fs.fetch_block_half(ctx, base, PlaneSel::Y, x2 + dx, y2 + dy),
        fs.fetch_block_half(ctx, base, PlaneSel::Y, x2 + 16 + dx, y2 + dy),
        fs.fetch_block_half(ctx, base, PlaneSel::Y, x2 + dx, y2 + 16 + dy),
        fs.fetch_block_half(ctx, base, PlaneSel::Y, x2 + 16 + dx, y2 + 16 + dy),
        fs.fetch_block_half(ctx, base, PlaneSel::U, cx2 + cdx, cy2 + cdy),
        fs.fetch_block_half(ctx, base, PlaneSel::V, cx2 + cdx, cy2 + cdy),
    ]
}

/// Build this macroblock's prediction according to the wire mode.
///
/// Damaged streams may name a reference that does not exist yet (e.g. a
/// P picture arriving before any anchor after an I picture was lost) or
/// carry an invalid mode code. Those cases fall back to a flat zero
/// prediction instead of crashing; the third return value flags the
/// fallback so the caller can count the concealment *after* the step
/// commits.
#[allow(clippy::too_many_arguments)]
fn predict(
    ctx: &mut StepCtx<'_>,
    t: &McTask,
    mode_code: u8,
    fwd: MotionVector,
    bwd: MotionVector,
    mbx: u32,
    mby: u32,
) -> ([[i16; 64]; 6], u64, bool) {
    let arena = t.cfg.arena_base;
    let flat = ([[0i16; 64]; 6], 0, true);
    match mode_code {
        records::mode::INTRA => ([[0i16; 64]; 6], 0, false),
        records::mode::SKIP | records::mode::FWD => {
            // B pictures predict forward from the *previous* anchor.
            let slot = if t.pic.map(|p| p.ptype) == Some(PictureType::B) {
                t.slots.prev_anchor
            } else {
                t.slots.last_anchor
            };
            let Some(slot) = slot else { return flat };
            let mv = if mode_code == records::mode::SKIP {
                MotionVector::default()
            } else {
                fwd
            };
            (
                fetch_pred(ctx, &t.fs, arena, slot, mbx, mby, mv),
                384,
                false,
            )
        }
        records::mode::BWD => {
            let Some(slot) = t.slots.last_anchor else {
                return flat;
            };
            (
                fetch_pred(ctx, &t.fs, arena, slot, mbx, mby, bwd),
                384,
                false,
            )
        }
        records::mode::BI => {
            let (Some(fslot), Some(bslot)) = (t.slots.prev_anchor, t.slots.last_anchor) else {
                return flat;
            };
            let f = fetch_pred(ctx, &t.fs, arena, fslot, mbx, mby, fwd);
            let b = fetch_pred(ctx, &t.fs, arena, bslot, mbx, mby, bwd);
            let mut out = [[0i16; 64]; 6];
            for blk in 0..6 {
                for i in 0..64 {
                    out[blk][i] = (f[blk][i] + b[blk][i] + 1) >> 1;
                }
            }
            (out, 768, false)
        }
        _ => flat,
    }
}

fn step_mc(t: &mut McTask, cost: &McCost, ctx: &mut StepCtx<'_>) -> StepResult {
    use mc_port::*;
    let mut r_mv = match StepReader::new(IN_MV).head(ctx, &mut t.errors_recovered) {
        Head::Mb(r) => r,
        Head::Eos(mut r_mv) => {
            // Drain the residual stream's EOS as well. A damaged stream
            // can leave stray residual records behind; eat them one byte
            // per step until the residual EOS lines up, so the graph
            // still terminates instead of wedging.
            let mut r_res = StepReader::new(IN_RESID);
            match r_res.peek_tag(ctx) {
                None => return StepResult::Blocked,
                Some(TAG_EOS) => {}
                Some(_) => return r_res.skip(ctx, &mut t.errors_recovered),
            }
            let mut b = [0u8; 1];
            r_mv.read(ctx, &mut b);
            r_res.read(ctx, &mut b);
            let mut w = StepWriter::new(OUT_PIX);
            w.stage(&[TAG_EOS]);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r_mv.commit(ctx);
            r_res.commit(ctx);
            return StepResult::Finished;
        }
        Head::Pic(r_mv, body, pic) => {
            // A damaged or misfit header is dropped; the picture's MBs
            // are swallowed by the MB-without-PIC path.
            let Some(pic) = pic.filter(|p| t.fits(p)) else {
                r_mv.commit(ctx);
                ctx.compute(1);
                t.errors_recovered += 1;
                return StepResult::Done;
            };
            let mut w = StepWriter::new(OUT_PIX);
            w.stage(&body);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r_mv.commit(ctx);
            ctx.compute(8);
            // Slot selection: anchors alternate 0/1; B pictures use the
            // scratch slot 2 (never referenced).
            t.write_slot = if pic.ptype == PictureType::B {
                2
            } else {
                t.slots.next_anchor_slot(2)
            };
            t.pic = Some(pic);
            t.mb_index = 0;
            t.pic_start = ctx.now();
            return StepResult::Done;
        }
        Head::Return(res) => return res,
    };
    let hdr = match r_mv.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
        None => return StepResult::Blocked,
        Some(b) => b,
    };
    let (mode_code, cbp, fwd, bwd) = mbmv_from_bytes(&hdr);
    let Some(pic) = t.pic else {
        // MB with no live picture (its PIC record was damaged and
        // dropped): consume the header and the residual blocks
        // its cbp claims so both streams stay record-aligned,
        // and emit nothing.
        let mut r_res = StepReader::new(IN_RESID);
        if !r_res.skip_blocks(ctx, cbp) {
            return StepResult::Blocked;
        }
        r_mv.commit(ctx);
        r_res.commit(ctx);
        ctx.compute(1);
        t.errors_recovered += 1;
        return StepResult::Done;
    };
    // Collect the residual blocks for the coded blocks.
    let mut r_res = StepReader::new(IN_RESID);
    let mut residuals = [[0i16; 64]; 6];
    let mut bad_residual = false;
    for (blk, res) in residuals.iter_mut().enumerate() {
        if cbp & (1 << (5 - blk)) == 0 {
            continue;
        }
        let rec = match r_res.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
            None => return StepResult::Blocked,
            Some(b) => b,
        };
        if rec[0] == TAG_MB {
            *res = cblk_from_bytes(&rec);
        } else {
            // Desynced residual record: substitute zeros (the
            // bytes are consumed either way).
            bad_residual = true;
        }
    }
    let (mbx, mby) = (
        t.mb_index % pic.mb_cols as u32,
        t.mb_index / pic.mb_cols as u32,
    );
    let (pred, fetch_bytes, fallback) = predict(ctx, t, mode_code, fwd, bwd, mbx, mby);
    let mut recon = [[0i16; 64]; 6];
    let mut coded_blocks = 0u64;
    for blk in 0..6 {
        if cbp & (1 << (5 - blk)) != 0 {
            coded_blocks += 1;
            for i in 0..64 {
                recon[blk][i] = pred[blk][i].saturating_add(residuals[blk][i]).clamp(0, 255);
            }
        } else {
            for i in 0..64 {
                recon[blk][i] = pred[blk][i].clamp(0, 255);
            }
        }
    }
    // Reserve the output before the irreversible frame-store
    // writes (abort discipline).
    let mut w = StepWriter::new(OUT_PIX);
    w.stage(&[TAG_MB]);
    w.stage(&records::pix_to_bytes(&recon));
    if !w.reserve(ctx) {
        return StepResult::Blocked;
    }
    let base = t.cfg.arena_base + t.write_slot * t.fs.slot_bytes();
    t.fs.write_mb(ctx, base, mbx, mby, &recon);
    w.commit(ctx);
    r_mv.commit(ctx);
    r_res.commit(ctx);
    ctx.compute(cost.per_mb + coded_blocks * cost.per_block_add);
    t.ref_bytes_fetched += fetch_bytes;
    t.mbs_done += 1;
    if fallback {
        t.mbs_concealed += 1;
    }
    if bad_residual {
        t.errors_recovered += 1;
    }
    t.mb_index += 1;
    if t.mb_index == pic.mb_count() {
        if pic.ptype != PictureType::B {
            t.slots.complete_anchor(t.write_slot);
        }
        t.pic_spans.push(records::PicSpan {
            temporal_ref: pic.temporal_ref,
            ptype: pic.ptype,
            start: t.pic_start,
            end: ctx.now(),
        });
        t.pic = None;
    }
    StepResult::Done
}

// ---- encode-side ME --------------------------------------------------------

/// me ports: in0 = source MBs, in1 = anchor-done feedback;
/// out0 = mb decisions, out1 = residual blocks.
mod me_port {
    use super::PortId;
    pub const IN_SRC: PortId = 0;
    pub const IN_FEEDBACK: PortId = 1;
    pub const OUT_MBDEC: PortId = 2;
    pub const OUT_RESID: PortId = 3;
}

#[derive(Default)]
struct MeTask {
    inner: McTask,
    /// Anchors whose reconstruction has been confirmed by `recon`.
    anchors_confirmed: u32,
    /// SAD evaluations performed (statistics).
    sad_evals: u64,
    /// Left-neighbour motion predictors (fwd, bwd), reset per picture.
    mv_pred: (MotionVector, MotionVector),
    /// Host-side scratch reused by every step (no simulated state): the
    /// fetched search window and the feedback bytes.
    win: SearchWindow,
    feedback: Vec<u8>,
}

/// A fetched luma search window (the ME's window cache), padded on every
/// side by [`SearchWindow::pad`] samples that replicate its border.
#[derive(Default)]
struct SearchWindow {
    /// Frame position of the fetched (unpadded) window's top-left sample.
    x0: i32,
    y0: i32,
    /// Fetched window size: what the ME reads from off-chip memory.
    w: usize,
    h: usize,
    /// Border samples on each side.
    pad: usize,
    /// The padded `(w + 2 pad)`×`(h + 2 pad)` samples, row-major.
    data: Vec<u8>,
}

impl SearchWindow {
    /// Border for `range`. Search candidates reach range + ½ pels past
    /// the macroblock, so with the half-pel tap a block reads up to
    /// range + 1 samples beyond a window clamped at the frame edge. A
    /// border of `range + 3` holds every block displaced by up to range +
    /// 2 full pels, on either phase. Padding replicates the border, so a
    /// candidate reads the samples the clamp to the unpadded window would
    /// give.
    fn pad(range: i32) -> usize {
        (range + 3) as usize
    }

    /// Make this the `w`×`h` window at `(x0, y0)` padded for `range`; the
    /// samples are then written with [`SearchWindow::row_mut`] and the
    /// border with [`SearchWindow::pad_border`].
    fn reset(&mut self, x0: i32, y0: i32, w: usize, h: usize, range: i32) {
        let pad = Self::pad(range);
        *self = SearchWindow {
            x0,
            y0,
            w,
            h,
            pad,
            data: std::mem::take(&mut self.data),
        };
        self.data.resize((w + 2 * pad) * (h + 2 * pad), 0);
    }

    fn stride(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// The `w` samples of window row `y`, from window column `x` on.
    fn row_mut(&mut self, x: usize, y: usize) -> &mut [u8] {
        let at = (self.pad + y) * self.stride() + self.pad + x;
        let w = self.w - x;
        &mut self.data[at..][..w]
    }

    /// Replicate the window's edge samples into the border.
    fn pad_border(&mut self) {
        let (stride, pad, w, h) = (self.stride(), self.pad, self.w, self.h);
        for row in self.data.chunks_exact_mut(stride).skip(pad).take(h) {
            let (left, right) = (row[pad], row[pad + w - 1]);
            row[..pad].fill(left);
            row[pad + w..].fill(right);
        }
        for y in 0..pad {
            self.data
                .copy_within(pad * stride..(pad + 1) * stride, y * stride);
            let last = (pad + h - 1) * stride;
            self.data
                .copy_within(last..last + stride, (pad + h + y) * stride);
        }
    }

    fn grid(&self) -> SampleGrid<'_> {
        SampleGrid::new(&self.data, self.stride(), self.h + 2 * self.pad)
    }

    /// Half-pel position in the padded grid of macroblock (mbx, mby)
    /// displaced by `mv`.
    fn position(&self, mbx: u32, mby: u32, mv: MotionVector) -> (i32, i32) {
        let pad = self.pad as i32;
        (
            mbx as i32 * 32 + mv.dx as i32 - 2 * (self.x0 - pad),
            mby as i32 * 32 + mv.dy as i32 - 2 * (self.y0 - pad),
        )
    }
}

/// The tile-aligned luma rectangle `(x_lo, y_lo, x_hi, y_hi)` covering
/// the search area of macroblock (mbx, mby) in a `w`×`h` frame, clamped
/// to the frame.
fn window_bounds(w: i32, h: i32, mbx: u32, mby: u32, range: i32) -> (i32, i32, i32, i32) {
    // +2 margin: half-pel refinement reaches range+0.5 and interpolation
    // needs one more sample.
    let x_lo = ((mbx as i32 * 16 - range - 2).max(0) / 8) * 8;
    let y_lo = ((mby as i32 * 16 - range - 2).max(0) / 8) * 8;
    let x_hi = ((mbx as i32 * 16 + 16 + range + 2).min(w) + 7) / 8 * 8;
    let y_hi = ((mby as i32 * 16 + 16 + range + 2).min(h) + 7) / 8 * 8;
    (x_lo, y_lo, x_hi, y_hi)
}

/// Fetch into `win` the tile-aligned luma window covering the search area
/// of macroblock (mbx, mby) from `slot`: one off-chip read per 8×8 tile,
/// in raster order.
fn fetch_window(
    ctx: &mut StepCtx<'_>,
    t: &McTask,
    win: &mut SearchWindow,
    slot: u32,
    mbx: u32,
    mby: u32,
    range: i32,
) {
    let fs = &t.fs;
    let base = t.cfg.arena_base + slot * fs.slot_bytes();
    let (x_lo, y_lo, x_hi, y_hi) =
        window_bounds(t.cfg.width as i32, t.cfg.height as i32, mbx, mby, range);
    win.reset(
        x_lo,
        y_lo,
        (x_hi - x_lo) as usize,
        (y_hi - y_lo) as usize,
        range,
    );
    let mut tile = [0u8; 64];
    for ty in (y_lo..y_hi).step_by(8) {
        for tx in (x_lo..x_hi).step_by(8) {
            ctx.dram_read(
                fs.tile_addr(base, PlaneSel::Y, tx as u32 / 8, ty as u32 / 8),
                &mut tile,
            );
            let (x, y) = ((tx - x_lo) as usize, (ty - y_lo) as usize);
            for (r, row) in tile.chunks_exact(8).enumerate() {
                win.row_mut(x, y + r)[..8].copy_from_slice(row);
            }
        }
    }
    win.pad_border();
}

/// The 16×16 source luma of a PIX record (blocks 0–3, raster 8×8 each)
/// as rows.
fn luma_rows(pix: &[u8]) -> [[u8; 16]; 16] {
    let mut rows = [[0u8; 16]; 16];
    for (y, row) in rows.iter_mut().enumerate() {
        let blk = y / 8 * 2;
        let o = (y % 8) * 8;
        row[..8].copy_from_slice(&pix[blk * 64 + o..][..8]);
        row[8..].copy_from_slice(&pix[(blk + 1) * 64 + o..][..8]);
    }
    rows
}

/// SAD of the 16×16 source luma against the window displaced by the
/// half-pel vector `mv`.
fn window_sad(
    src: &[[u8; 16]; 16],
    win: &SearchWindow,
    mbx: u32,
    mby: u32,
    mv: MotionVector,
) -> u32 {
    let (x2, y2) = win.position(mbx, mby, mv);
    win.grid().sad_16x16(src, x2, y2)
}

/// Luma activity (SAD against the mean) — the intra/inter threshold.
fn intra_activity(src: &[[i16; 64]; 6]) -> u32 {
    let mut sum: i64 = 0;
    for blk in src.iter().take(4) {
        for &v in blk.iter() {
            sum += v as i64;
        }
    }
    let mean = (sum / 256) as i16;
    let mut act = 0u32;
    for blk in src.iter().take(4) {
        for &v in blk.iter() {
            act += (v - mean).unsigned_abs() as u32;
        }
    }
    act
}

fn step_me(t: &mut MeTask, cost: &McCost, ctx: &mut StepCtx<'_>) -> StepResult {
    use me_port::*;
    let mut r_src = match StepReader::new(IN_SRC).head(ctx, &mut t.inner.errors_recovered) {
        Head::Mb(r) => r,
        Head::Pic(r_src, body, pic) => {
            // A damaged or misfit header is dropped; the MB path below
            // drops the picture's macroblocks.
            let Some(pic) = pic.filter(|p| t.inner.fits(p)) else {
                r_src.commit(ctx);
                ctx.compute(8);
                t.inner.errors_recovered += 1;
                return StepResult::Done;
            };
            // Frame-level dependency: every previously emitted anchor must
            // be reconstructed before a picture that references them.
            if pic.ptype != PictureType::I {
                let needed = t.inner.slots.anchor_count - t.anchors_confirmed;
                if needed > 0 {
                    let mut r_fb = StepReader::new(IN_FEEDBACK);
                    if !r_fb.need(ctx, needed) {
                        return StepResult::Blocked;
                    }
                    t.feedback.resize(needed as usize, 0);
                    r_fb.read(ctx, &mut t.feedback);
                    r_fb.commit(ctx);
                    t.anchors_confirmed += needed;
                }
            }
            let mut w_dec = StepWriter::new(OUT_MBDEC);
            let w_res = StepWriter::new(OUT_RESID);
            w_dec.stage(&body);
            if !w_dec.reserve(ctx) || !w_res.reserve(ctx) {
                return StepResult::Blocked;
            }
            w_dec.commit(ctx);
            w_res.commit(ctx);
            r_src.commit(ctx);
            ctx.compute(8);
            t.inner.pic = Some(pic);
            t.inner.mb_index = 0;
            t.mv_pred = Default::default();
            return StepResult::Done;
        }
        Head::Eos(r) => return r.finish(ctx, &[OUT_MBDEC, OUT_RESID]),
        Head::Return(res) => return res,
    };
    if !r_src.need(ctx, 1 + records::PIX_REC_BYTES) {
        return StepResult::Blocked;
    }
    let mut tagb = [0u8; 1];
    r_src.read(ctx, &mut tagb);
    let mut pix = [0u8; records::PIX_REC_BYTES as usize];
    r_src.read(ctx, &mut pix);
    let Some(pic) = t.inner.pic else {
        // No picture (its header was lost): drop the macroblock.
        r_src.commit(ctx);
        ctx.compute(1);
        t.inner.errors_recovered += 1;
        return StepResult::Done;
    };
    let src = records::pix_from_bytes(&pix);
    let luma = luma_rows(&pix);
    let (mbx, mby) = (
        t.inner.mb_index % pic.mb_cols as u32,
        t.inner.mb_index / pic.mb_cols as u32,
    );
    let range = t.inner.cfg.search_range;

    // Mode decision.
    use eclipse_media::motion::PredictionMode as Pm;
    let mut fetch_bytes = 0u64;
    let mut no_anchor = false;
    let (prev, last) = (t.inner.slots.prev_anchor, t.inner.slots.last_anchor);
    let (mode, pred): (Pm, [[i16; 64]; 6]) = match (pic.ptype, prev, last) {
        (PictureType::P, _, Some(slot)) => {
            fetch_window(ctx, &t.inner, &mut t.win, slot, mbx, mby, range as i32);
            fetch_bytes += (t.win.w * t.win.h) as u64;
            let cands = [MotionVector::default(), t.mv_pred.0];
            let (mv, sad, evals) =
                motion::search(range, &cands, |mv| window_sad(&luma, &t.win, mbx, mby, mv));
            t.mv_pred.0 = mv;
            t.sad_evals += evals as u64;
            ctx.compute(evals as u64 * cost.per_sad);
            if sad < intra_activity(&src) {
                (
                    Pm::Forward(mv),
                    fetch_pred(ctx, &t.inner.fs, t.inner.cfg.arena_base, slot, mbx, mby, mv),
                )
            } else {
                (Pm::Intra, [[0i16; 64]; 6])
            }
        }
        (PictureType::B, Some(fslot), Some(bslot)) => {
            // Each window is searched as soon as it is fetched
            // (the search makes no off-chip or shell access), so
            // one scratch window serves both directions.
            let fcands = [MotionVector::default(), t.mv_pred.0];
            let bcands = [MotionVector::default(), t.mv_pred.1];
            fetch_window(ctx, &t.inner, &mut t.win, fslot, mbx, mby, range as i32);
            fetch_bytes += (t.win.w * t.win.h) as u64;
            let (fmv, fsad, fe) =
                motion::search(range, &fcands, |mv| window_sad(&luma, &t.win, mbx, mby, mv));
            fetch_window(ctx, &t.inner, &mut t.win, bslot, mbx, mby, range as i32);
            fetch_bytes += (t.win.w * t.win.h) as u64;
            let (bmv, bsad, be) =
                motion::search(range, &bcands, |mv| window_sad(&luma, &t.win, mbx, mby, mv));
            t.mv_pred = (fmv, bmv);
            t.sad_evals += (fe + be) as u64;
            ctx.compute((fe + be) as u64 * cost.per_sad);
            let arena = t.inner.cfg.arena_base;
            let fp = fetch_pred(ctx, &t.inner.fs, arena, fslot, mbx, mby, fmv);
            let bp = fetch_pred(ctx, &t.inner.fs, arena, bslot, mbx, mby, bmv);
            let mut bi = [[0i16; 64]; 6];
            for blk in 0..6 {
                for i in 0..64 {
                    bi[blk][i] = (fp[blk][i] + bp[blk][i] + 1) >> 1;
                }
            }
            let bi_sad = {
                let mut sad = 0u32;
                for blk in 0..4 {
                    for i in 0..64 {
                        sad += (src[blk][i] - bi[blk][i]).unsigned_abs() as u32;
                    }
                }
                sad
            };
            let best = fsad.min(bsad).min(bi_sad);
            if best >= intra_activity(&src) {
                (Pm::Intra, [[0i16; 64]; 6])
            } else if bi_sad == best {
                (Pm::Bidirectional(fmv, bmv), bi)
            } else if fsad == best {
                (Pm::Forward(fmv), fp)
            } else {
                (Pm::Backward(bmv), bp)
            }
        }
        // I pictures, and P or B pictures whose anchors were lost
        // upstream.
        (ptype, ..) => {
            no_anchor = ptype != PictureType::I;
            (Pm::Intra, [[0i16; 64]; 6])
        }
    };

    // Emit the decision and the six residual blocks.
    let (mode_code, fwd, bwd) = records::encode_mode(Some(mode));
    let mut w_dec = StepWriter::new(OUT_MBDEC);
    let mut w_res = StepWriter::new(OUT_RESID);
    w_dec.stage(&mbmv_to_bytes(mode_code, 0b111111, fwd, bwd));
    for blk in 0..6 {
        let mut residual = [0i16; 64];
        for i in 0..64 {
            residual[i] = src[blk][i] - pred[blk][i];
        }
        w_res.stage(&cblk_to_bytes(&residual));
    }
    if !w_dec.reserve(ctx) || !w_res.reserve(ctx) {
        return StepResult::Blocked;
    }
    w_dec.commit(ctx);
    w_res.commit(ctx);
    r_src.commit(ctx);
    ctx.compute(cost.per_mb);
    t.inner.ref_bytes_fetched += fetch_bytes;
    t.inner.mbs_done += 1;
    t.inner.errors_recovered += no_anchor as u64;
    t.inner.mb_index += 1;
    if t.inner.mb_index == pic.mb_count() {
        if pic.ptype != PictureType::B {
            // Track the rotation; the slot contents are written by
            // the recon task.
            let slot = t.inner.slots.next_anchor_slot(2);
            t.inner.slots.complete_anchor(slot);
        }
        t.inner.pic = None;
    }
    StepResult::Done
}

// ---- encode-side RECON -----------------------------------------------------

/// recon ports: in0 = reconstructed residual stream (MB-framed),
/// out0 = anchor-done feedback to ME.
mod recon_port {
    use super::PortId;
    pub const IN_RESID: PortId = 0;
    pub const OUT_FEEDBACK: PortId = 1;
}

fn step_recon(t: &mut McTask, cost: &McCost, ctx: &mut StepCtx<'_>) -> StepResult {
    use recon_port::*;
    let mut r = match StepReader::new(IN_RESID).head(ctx, &mut t.errors_recovered) {
        Head::Mb(r) => r,
        Head::Pic(r, _, pic) => {
            r.commit(ctx);
            ctx.compute(8);
            // A damaged or misfit header is dropped; the MB path below
            // drops the picture's macroblocks.
            let Some(pic) = pic.filter(|p| t.fits(p)) else {
                t.errors_recovered += 1;
                return StepResult::Done;
            };
            t.write_slot = if pic.ptype == PictureType::B {
                u32::MAX
            } else {
                t.slots.next_anchor_slot(2)
            };
            t.pic = Some(pic);
            t.mb_index = 0;
            return StepResult::Done;
        }
        Head::Eos(r) => return r.finish(ctx, &[]),
        Head::Return(res) => return res,
    };
    let hdr = match r.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
        None => return StepResult::Blocked,
        Some(b) => b,
    };
    let (mode_code, cbp, fwd, bwd) = mbmv_from_bytes(&hdr);
    let Some(pic) = t.pic else {
        // No picture (its header was lost): consume the
        // macroblock and reconstruct nothing.
        if !r.skip_blocks(ctx, cbp) {
            return StepResult::Blocked;
        }
        r.commit(ctx);
        ctx.compute(1);
        t.errors_recovered += 1;
        return StepResult::Done;
    };
    let mut residuals = [[0i16; 64]; 6];
    for (blk, res) in residuals.iter_mut().enumerate() {
        if cbp & (1 << (5 - blk)) == 0 {
            continue;
        }
        let rec = match r.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
            None => return StepResult::Blocked,
            Some(b) => b,
        };
        *res = cblk_from_bytes(&rec);
    }
    let is_b = pic.ptype == PictureType::B;
    let last_mb = t.mb_index + 1 == pic.mb_count();
    if !is_b {
        // Reconstruct into the anchor slot.
        let (mbx, mby) = (
            t.mb_index % pic.mb_cols as u32,
            t.mb_index / pic.mb_cols as u32,
        );
        let (pred, fetch_bytes, _) = predict(ctx, t, mode_code, fwd, bwd, mbx, mby);
        let mut recon = [[0i16; 64]; 6];
        for blk in 0..6 {
            for i in 0..64 {
                let resid = if cbp & (1 << (5 - blk)) != 0 {
                    residuals[blk][i]
                } else {
                    0
                };
                recon[blk][i] = pred[blk][i].saturating_add(resid).clamp(0, 255);
            }
        }
        // Reserve feedback room before irreversible writes.
        let mut w = StepWriter::new(OUT_FEEDBACK);
        if last_mb {
            w.stage(&[pic.temporal_ref as u8]);
        }
        if !w.reserve(ctx) {
            return StepResult::Blocked;
        }
        let base = t.cfg.arena_base + t.write_slot * t.fs.slot_bytes();
        t.fs.write_mb(ctx, base, mbx, mby, &recon);
        w.commit(ctx);
        t.ref_bytes_fetched += fetch_bytes;
        ctx.compute(cost.per_mb + cbp.count_ones() as u64 * cost.per_block_add);
    } else {
        // B pictures are never referenced: drain without work.
        ctx.compute(4);
    }
    r.commit(ctx);
    t.mbs_done += 1;
    t.mb_index += 1;
    if last_mb {
        if !is_b {
            t.slots.complete_anchor(t.write_slot);
        }
        t.pic = None;
    }
    StepResult::Done
}

impl Coprocessor for McMeCoproc {
    fn name(&self) -> &str {
        "mcme"
    }

    fn supports(&self, function: &str) -> bool {
        matches!(function, "mc" | "me" | "recon")
    }

    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        let cfg = *self
            .cfgs
            .get(&decl.name)
            .unwrap_or_else(|| panic!("no MC/ME arena configured for task '{}'", decl.name));
        let inner = McTask {
            cfg,
            fs: FrameStore::new(cfg.width, cfg.height),
            slots: SlotState::default(),
            pic: None,
            write_slot: 0,
            mb_index: 0,
            pic_start: 0,
            pic_spans: Vec::new(),
            mbs_done: 0,
            ref_bytes_fetched: 0,
            errors_recovered: 0,
            mbs_concealed: 0,
        };
        match decl.function.as_str() {
            "mc" => {
                self.tasks.insert(task, TaskKind::Mc(inner));
                (vec![1, 0], vec![1 + records::PIX_REC_BYTES])
            }
            "me" => {
                self.tasks.insert(
                    task,
                    TaskKind::Me(MeTask {
                        inner,
                        ..MeTask::default()
                    }),
                );
                (vec![1, 0], vec![records::MBMV_REC_BYTES, 0])
            }
            "recon" => {
                self.tasks.insert(task, TaskKind::Recon(inner));
                (vec![1], vec![0])
            }
            other => panic!("MC/ME cannot perform '{other}'"),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn task_error_counters(&self, task: TaskIdx) -> (u64, u64) {
        self.tasks.get(&task).map_or((0, 0), |kind| {
            let t = match kind {
                TaskKind::Mc(t) | TaskKind::Recon(t) => t,
                TaskKind::Me(t) => &t.inner,
            };
            (t.errors_recovered, t.mbs_concealed)
        })
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }

    fn task_state_fits(&self, task: TaskIdx, _row: &TaskRow, dram_bytes: u32) -> bool {
        match self.tasks.get(&task) {
            Some(TaskKind::Mc(t) | TaskKind::Recon(t)) => t.arena_fits(dram_bytes),
            Some(TaskKind::Me(t)) => t.inner.arena_fits(dram_bytes),
            None => false,
        }
    }

    fn step(&mut self, task: TaskIdx, _info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        let cost = self.cost;
        match self.tasks.get_mut(&task).expect("unconfigured MC/ME task") {
            TaskKind::Mc(t) => step_mc(t, &cost, ctx),
            TaskKind::Me(t) => step_me(t, &cost, ctx),
            TaskKind::Recon(t) => step_recon(t, &cost, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_media::motion::sample_half;
    use eclipse_media::Plane;
    use proptest::prelude::*;

    /// The window `fetch_window` would fetch, copied straight from `plane`
    /// and padded the same way.
    fn window_of(plane: &Plane, mbx: u32, mby: u32, range: i32) -> SearchWindow {
        let (w, h) = (plane.width as i32, plane.height as i32);
        let (x_lo, y_lo, x_hi, y_hi) = window_bounds(w, h, mbx, mby, range);
        let mut win = SearchWindow::default();
        win.reset(
            x_lo,
            y_lo,
            (x_hi - x_lo) as usize,
            (y_hi - y_lo) as usize,
            range,
        );
        for y in y_lo..y_hi {
            win.row_mut(0, (y - y_lo) as usize).copy_from_slice(
                &plane.data[y as usize * plane.width..][x_lo as usize..x_hi as usize],
            );
        }
        win.pad_border();
        win
    }

    /// The clamped per-sample SAD: `window_sad` without the fast path, on
    /// the fetched samples alone. Positions outside the fetched window
    /// clamp to its border.
    fn clamped_window_sad(
        src: &[[u8; 16]; 16],
        win: &SearchWindow,
        mbx: u32,
        mby: u32,
        mv: MotionVector,
    ) -> u32 {
        let mut fetched = Plane::new(win.w, win.h);
        for (y, row) in fetched.data.chunks_exact_mut(win.w).enumerate() {
            let at = (win.pad + y) * win.stride() + win.pad;
            row.copy_from_slice(&win.data[at..][..win.w]);
        }
        let x2 = mbx as i32 * 32 + mv.dx as i32 - 2 * win.x0;
        let y2 = mby as i32 * 32 + mv.dy as i32 - 2 * win.y0;
        let mut sad = 0;
        for y in 0..16i32 {
            for x in 0..16i32 {
                let s = src[y as usize][x as usize] as i32;
                let r = sample_half(&fetched, x2 + 2 * x, y2 + 2 * y) as i32;
                sad += (s - r).unsigned_abs();
            }
        }
        sad
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every macroblock of random frames (sizes: multiples of 16 up to
        /// 64, or QCIF), its padded window for a random search range, and
        /// vectors out to ±(range + 2) full pels on either phase (random
        /// ones and the box's corners): every block lies inside the padded
        /// window, and its SAD equals the clamped per-sample SAD on the
        /// fetched window. Edge macroblocks give windows clamped at 0
        /// and at the frame edge; both must occur.
        #[test]
        fn window_sad_matches_clamped_path(
            (w, h) in prop_oneof![
                (1usize..=4, 1usize..=4).prop_map(|(w, h)| (w * 16, h * 16)),
                Just((176usize, 144usize)),
            ],
            range in 1i32..=16,
            seed in any::<u64>(),
        ) {
            let mut rng = eclipse_sim::rng::SplitMix64::new(seed);
            let mut next = || rng.next_u64();
            let mut reference = Plane::new(w, h);
            reference.data.iter_mut().for_each(|s| *s = next() as u8);
            let (mut clamped_lo, mut clamped_hi) = (false, false);
            let (even, far) = (2 * (range as i16 + 2), 2 * (range as i16 + 2) + 1);
            let extremes = [(-far, -far), (far, far), (-even, far), (far, -even)];
            for mby in 0..(h / 16) as u32 {
                for mbx in 0..(w / 16) as u32 {
                    let win = window_of(&reference, mbx, mby, range);
                    clamped_lo |= win.x0 == 0 && win.y0 == 0;
                    clamped_hi |= win.x0 + win.w as i32 == w as i32 && win.y0 + win.h as i32 == h as i32;
                    let mut src = [[0u8; 16]; 16];
                    src.iter_mut().flatten().for_each(|s| *s = next() as u8);
                    let lim = 2 * (range as u64 + 2) + 1;
                    let random: Vec<_> = (0..6)
                        .map(|_| {
                            let mut c = || ((next() % (2 * lim + 1)) as i64 - lim as i64) as i16;
                            (c(), c())
                        })
                        .collect();
                    for (dx, dy) in random.into_iter().chain(extremes) {
                        let mv = MotionVector { dx, dy };
                        let (x2, y2) = win.position(mbx, mby, mv);
                        prop_assert!(
                            win.grid().contains(x2, y2, 16, 16),
                            "{}x{} mb ({}, {}) range {} mv {:?} leaves the padded window", w, h, mbx, mby, range, mv
                        );
                        prop_assert_eq!(
                            window_sad(&src, &win, mbx, mby, mv),
                            clamped_window_sad(&src, &win, mbx, mby, mv),
                            "{}x{} mb ({}, {}) range {} mv {:?}", w, h, mbx, mby, range, mv
                        );
                    }
                }
            }
            prop_assert!(clamped_lo && clamped_hi);
        }
    }

    /// `luma_rows` reads the four luma blocks of a PIX record as rows.
    #[test]
    fn luma_rows_follow_the_block_layout() {
        let pix: [u8; records::PIX_REC_BYTES as usize] = std::array::from_fn(|i| i as u8);
        let blocks = records::pix_from_bytes(&pix);
        let rows = luma_rows(&pix);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(
                    rows[y][x] as i16,
                    blocks[y / 8 * 2 + x / 8][(y % 8) * 8 + x % 8]
                );
            }
        }
    }
}
