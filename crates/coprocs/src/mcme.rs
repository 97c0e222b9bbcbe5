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
use eclipse_media::motion::{row_sad, MotionVector, SampleGrid};
use eclipse_media::stream::{PictureType, SequenceHeader};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cost::McCost;
use crate::framestore::{FrameStore, PlaneSel};
use crate::io::{StepReader, StepWriter};
use crate::records::{
    self, cblk_from_body, cblk_to_bytes, mbmv_from_body, mbmv_to_bytes, PicRec, TAG_EOS, TAG_MB,
    TAG_PIC,
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
        let pic_ok = self.pic.is_none_or(|p| {
            p.mb_count() != 0
                && p.mb_cols as u32 <= self.cfg.width / 16
                && p.mb_rows as u32 <= self.cfg.height / 16
                && self.mb_index <= p.mb_count()
        });
        if !side_ok(self.cfg.width) || !side_ok(self.cfg.height) || !pic_ok {
            return Err(SnapError::Corrupt("mc task picture"));
        }
        if self.slots_used() > DECODE_SLOTS {
            return Err(SnapError::Corrupt("mc task slot"));
        }
        self.fs = FrameStore::new(self.cfg.width, self.cfg.height);
        Ok(())
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
    let mut r_mv = StepReader::new(IN_MV);
    let tag = match r_mv.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            // Drain the residual stream's EOS as well. A damaged stream
            // can leave stray residual records behind; eat them one byte
            // per step until the residual EOS lines up, so the graph
            // still terminates instead of wedging.
            let mut r_res = StepReader::new(IN_RESID);
            match r_res.peek_tag(ctx) {
                None => return StepResult::Blocked,
                Some(TAG_EOS) => {}
                Some(_) => {
                    let mut b = [0u8; 1];
                    r_res.read(ctx, &mut b);
                    r_res.commit(ctx);
                    ctx.compute(1);
                    t.errors_recovered += 1;
                    return StepResult::Done;
                }
            }
            let mut b = [0u8; 1];
            r_mv.read(ctx, &mut b);
            let mut b = [0u8; 1];
            r_res.read(ctx, &mut b);
            let mut w = StepWriter::new(OUT_PIX);
            w.stage(&[TAG_EOS]);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r_mv.commit(ctx);
            r_res.commit(ctx);
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r_mv.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            // Validate against the configured geometry: a corrupt PIC
            // record (bad type byte, zero or oversized dimensions) would
            // break MB indexing and the frame-store writes. Drop it; the
            // picture's MBs are swallowed by the MB-without-PIC path.
            let pic = PicRec::from_body(&body[1..]).filter(|p| {
                p.mb_count() > 0
                    && p.mb_cols as u32 <= t.cfg.width.div_ceil(16)
                    && p.mb_rows as u32 <= t.cfg.height.div_ceil(16)
            });
            let Some(pic) = pic else {
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
            StepResult::Done
        }
        TAG_MB => {
            let hdr = match r_mv.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let (mode_code, cbp, fwd, bwd) = mbmv_from_body(&hdr[1..]).unwrap_or((
                records::mode::INTRA,
                hdr[2],
                MotionVector::default(),
                MotionVector::default(),
            ));
            let Some(pic) = t.pic else {
                // MB with no live picture (its PIC record was damaged and
                // dropped): consume the header and the residual blocks
                // its cbp claims so both streams stay record-aligned,
                // and emit nothing.
                let mut r_res = StepReader::new(IN_RESID);
                for blk in 0..6 {
                    if cbp & (1 << (5 - blk)) == 0 {
                        continue;
                    }
                    if r_res
                        .take::<{ records::CBLK_REC_BYTES as usize }>(ctx)
                        .is_none()
                    {
                        return StepResult::Blocked;
                    }
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
                    *res = cblk_from_body(&rec[1..]).unwrap_or([0i16; 64]);
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
                        recon[blk][i] =
                            pred[blk][i].saturating_add(residuals[blk][i]).clamp(0, 255);
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
        _ => {
            // Unknown tag (bit-flipped in SRAM): skip one byte and
            // rescan for the next plausible record boundary.
            let mut b = [0u8; 1];
            r_mv.read(ctx, &mut b);
            r_mv.commit(ctx);
            ctx.compute(1);
            t.errors_recovered += 1;
            StepResult::Done
        }
    }
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
}

/// A fetched luma search window (the ME's window cache).
struct SearchWindow {
    x0: i32,
    y0: i32,
    w: usize,
    h: usize,
    data: Vec<u8>,
}

impl SearchWindow {
    fn grid(&self) -> SampleGrid<'_> {
        SampleGrid::new(&self.data, self.w, self.h)
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

/// Fetch the tile-aligned luma window covering the search area of
/// macroblock (mbx, mby) from `slot`.
fn fetch_window(
    ctx: &mut StepCtx<'_>,
    t: &McTask,
    slot: u32,
    mbx: u32,
    mby: u32,
    range: i32,
) -> SearchWindow {
    let fs = &t.fs;
    let base = t.cfg.arena_base + slot * fs.slot_bytes();
    let (x_lo, y_lo, x_hi, y_hi) =
        window_bounds(t.cfg.width as i32, t.cfg.height as i32, mbx, mby, range);
    let (ww, wh) = ((x_hi - x_lo) as usize, (y_hi - y_lo) as usize);
    let mut data = vec![0u8; ww * wh];
    let mut ty = y_lo;
    while ty < y_hi {
        let mut tx = x_lo;
        while tx < x_hi {
            let tile = fs.fetch_block(ctx, base, PlaneSel::Y, tx, ty);
            for y in 0..8 {
                for x in 0..8 {
                    data[(ty - y_lo + y) as usize * ww + (tx - x_lo + x) as usize] =
                        tile[(y * 8 + x) as usize] as u8;
                }
            }
            tx += 8;
        }
        ty += 8;
    }
    SearchWindow {
        x0: x_lo,
        y0: y_lo,
        w: ww,
        h: wh,
        data,
    }
}

/// SAD of the 16×16 source luma against the window displaced by the
/// half-pel vector `mv`.
fn window_sad(
    src: &[[i16; 64]; 6],
    win: &SearchWindow,
    mbx: u32,
    mby: u32,
    mv: MotionVector,
) -> u32 {
    // Half-pel position of the displaced block relative to the window;
    // samples outside the window clamp to its border.
    let x2 = mbx as i32 * 32 + mv.dx as i32 - 2 * win.x0;
    let y2 = mby as i32 * 32 + mv.dy as i32 - 2 * win.y0;
    let mut sad = 0;
    win.grid().half_rows(x2, y2, 16, 16, |y, pred| {
        let (left, right) = (&src[y / 8 * 2], &src[y / 8 * 2 + 1]);
        let o = (y % 8) * 8;
        sad += row_sad(&left[o..o + 8], &pred[..8]) + row_sad(&right[o..o + 8], &pred[8..]);
    });
    sad
}

/// Predictor-seeded three-step search over the window on the full-pel
/// lattice, followed by half-pel refinement (mirrors
/// [`eclipse_media::motion::three_step_search_pred`]). Returns
/// (half-pel mv, sad, evaluations).
fn window_search(
    src: &[[i16; 64]; 6],
    win: &SearchWindow,
    mbx: u32,
    mby: u32,
    range: u8,
    candidates: &[MotionVector],
) -> (MotionVector, u32, u32) {
    let limit = range as i16 * 2 + 1;
    let clamp = |v: MotionVector| MotionVector {
        dx: v.dx.clamp(-limit, limit),
        dy: v.dy.clamp(-limit, limit),
    };
    let mut best = clamp(*candidates.first().unwrap_or(&MotionVector::default()));
    let mut best_sad = window_sad(src, win, mbx, mby, best);
    let mut evals = 1u32;
    let consider =
        |cand: MotionVector, best: &mut MotionVector, best_sad: &mut u32, evals: &mut u32| {
            if cand == *best {
                return;
            }
            let sad = window_sad(src, win, mbx, mby, cand);
            *evals += 1;
            if sad < *best_sad || (sad == *best_sad && (cand.dx, cand.dy) < (best.dx, best.dy)) {
                *best_sad = sad;
                *best = cand;
            }
        };
    for &cand in candidates.iter().skip(1) {
        consider(clamp(cand), &mut best, &mut best_sad, &mut evals);
    }
    let mut step = (range.max(1) as u16).next_power_of_two() as i16;
    while step >= 2 {
        let center = best;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                consider(
                    clamp(MotionVector {
                        dx: center.dx + dx,
                        dy: center.dy + dy,
                    }),
                    &mut best,
                    &mut best_sad,
                    &mut evals,
                );
            }
        }
        step /= 2;
    }
    let center = best;
    for dy in [-1i16, 0, 1] {
        for dx in [-1i16, 0, 1] {
            if dx == 0 && dy == 0 {
                continue;
            }
            consider(
                clamp(MotionVector {
                    dx: center.dx + dx,
                    dy: center.dy + dy,
                }),
                &mut best,
                &mut best_sad,
                &mut evals,
            );
        }
    }
    (best, best_sad, evals)
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
    let mut r_src = StepReader::new(IN_SRC);
    let tag = match r_src.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r_src.read(ctx, &mut b);
            let mut w_dec = StepWriter::new(OUT_MBDEC);
            let mut w_res = StepWriter::new(OUT_RESID);
            w_dec.stage(&[TAG_EOS]);
            w_res.stage(&[TAG_EOS]);
            if !w_dec.reserve(ctx) || !w_res.reserve(ctx) {
                return StepResult::Blocked;
            }
            w_dec.commit(ctx);
            w_res.commit(ctx);
            r_src.commit(ctx);
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r_src.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let pic = PicRec::from_body(&body[1..]).expect("bad PIC record");
            // Frame-level dependency: every previously emitted anchor must
            // be reconstructed before a picture that references them.
            if pic.ptype != PictureType::I {
                let needed = t.inner.slots.anchor_count - t.anchors_confirmed;
                if needed > 0 {
                    let mut r_fb = StepReader::new(IN_FEEDBACK);
                    if !r_fb.need(ctx, needed) {
                        return StepResult::Blocked;
                    }
                    let mut buf = vec![0u8; needed as usize];
                    r_fb.read(ctx, &mut buf);
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
            StepResult::Done
        }
        TAG_MB => {
            let pic = t.inner.pic.expect("MB before PIC on source stream");
            if !r_src.need(ctx, 1 + records::PIX_REC_BYTES) {
                return StepResult::Blocked;
            }
            let mut tagb = [0u8; 1];
            r_src.read(ctx, &mut tagb);
            let mut pix = vec![0u8; records::PIX_REC_BYTES as usize];
            r_src.read(ctx, &mut pix);
            let src = records::pix_from_bytes(&pix).unwrap();
            let (mbx, mby) = (
                t.inner.mb_index % pic.mb_cols as u32,
                t.inner.mb_index / pic.mb_cols as u32,
            );
            let range = t.inner.cfg.search_range;

            // Mode decision.
            use eclipse_media::motion::PredictionMode as Pm;
            let mut fetch_bytes = 0u64;
            let (mode, pred): (Pm, [[i16; 64]; 6]) = match pic.ptype {
                PictureType::I => (Pm::Intra, [[0i16; 64]; 6]),
                PictureType::P => {
                    let slot = t
                        .inner
                        .slots
                        .last_anchor
                        .expect("P picture without reference");
                    let win = fetch_window(ctx, &t.inner, slot, mbx, mby, range as i32);
                    fetch_bytes += (win.w * win.h) as u64;
                    let cands = [MotionVector::default(), t.mv_pred.0];
                    let (mv, sad, evals) = window_search(&src, &win, mbx, mby, range, &cands);
                    t.mv_pred.0 = mv;
                    t.sad_evals += evals as u64;
                    ctx.compute(evals as u64 * cost.per_sad);
                    if sad < intra_activity(&src) {
                        (
                            Pm::Forward(mv),
                            fetch_pred(
                                ctx,
                                &t.inner.fs,
                                t.inner.cfg.arena_base,
                                slot,
                                mbx,
                                mby,
                                mv,
                            ),
                        )
                    } else {
                        (Pm::Intra, [[0i16; 64]; 6])
                    }
                }
                PictureType::B => {
                    let fslot = t
                        .inner
                        .slots
                        .prev_anchor
                        .expect("B picture without past anchor");
                    let bslot = t
                        .inner
                        .slots
                        .last_anchor
                        .expect("B picture without future anchor");
                    let fwin = fetch_window(ctx, &t.inner, fslot, mbx, mby, range as i32);
                    let bwin = fetch_window(ctx, &t.inner, bslot, mbx, mby, range as i32);
                    fetch_bytes += (fwin.w * fwin.h + bwin.w * bwin.h) as u64;
                    let fcands = [MotionVector::default(), t.mv_pred.0];
                    let bcands = [MotionVector::default(), t.mv_pred.1];
                    let (fmv, fsad, fe) = window_search(&src, &fwin, mbx, mby, range, &fcands);
                    let (bmv, bsad, be) = window_search(&src, &bwin, mbx, mby, range, &bcands);
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
        other => panic!("me: unexpected tag {other:#x} on source stream"),
    }
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
    let mut r = StepReader::new(IN_RESID);
    let tag = match r.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            r.commit(ctx);
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let pic = PicRec::from_body(&body[1..]).expect("bad PIC record");
            r.commit(ctx);
            ctx.compute(8);
            t.write_slot = if pic.ptype == PictureType::B {
                u32::MAX
            } else {
                t.slots.next_anchor_slot(2)
            };
            t.pic = Some(pic);
            t.mb_index = 0;
            StepResult::Done
        }
        TAG_MB => {
            let pic = t.pic.expect("MB before PIC on recon stream");
            let hdr = match r.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let (mode_code, cbp, fwd, bwd) = mbmv_from_body(&hdr[1..]).unwrap();
            let mut residuals = [[0i16; 64]; 6];
            for (blk, res) in residuals.iter_mut().enumerate() {
                if cbp & (1 << (5 - blk)) == 0 {
                    continue;
                }
                let rec = match r.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
                    None => return StepResult::Blocked,
                    Some(b) => b,
                };
                *res = cblk_from_body(&rec[1..]).unwrap();
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
        other => panic!("recon: unexpected tag {other:#x}"),
    }
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
                        anchors_confirmed: 0,
                        sad_evals: 0,
                        mv_pred: Default::default(),
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

    fn error_counters(&self) -> (u64, u64) {
        let mut errors = 0;
        let mut concealed = 0;
        for kind in self.tasks.values() {
            let t = match kind {
                TaskKind::Mc(t) | TaskKind::Recon(t) => t,
                TaskKind::Me(t) => &t.inner,
            };
            errors += t.errors_recovered;
            concealed += t.mbs_concealed;
        }
        (errors, concealed)
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

    /// The window `fetch_window` would fetch, copied straight from `plane`.
    fn window_of(plane: &Plane, mbx: u32, mby: u32, range: i32) -> SearchWindow {
        let (w, h) = (plane.width as i32, plane.height as i32);
        let (x_lo, y_lo, x_hi, y_hi) = window_bounds(w, h, mbx, mby, range);
        let (ww, wh) = ((x_hi - x_lo) as usize, (y_hi - y_lo) as usize);
        let mut data = Vec::with_capacity(ww * wh);
        for y in y_lo..y_hi {
            data.extend_from_slice(
                &plane.data[y as usize * plane.width..][x_lo as usize..x_hi as usize],
            );
        }
        SearchWindow {
            x0: x_lo,
            y0: y_lo,
            w: ww,
            h: wh,
            data,
        }
    }

    /// The clamped per-sample SAD: `window_sad` without the fast path.
    /// Positions outside the window clamp to the window's border.
    fn clamped_window_sad(
        src: &[[i16; 64]; 6],
        win: &SearchWindow,
        mbx: u32,
        mby: u32,
        mv: MotionVector,
    ) -> u32 {
        let win_plane = Plane {
            width: win.w,
            height: win.h,
            data: win.data.clone(),
        };
        let x2 = mbx as i32 * 32 + mv.dx as i32 - 2 * win.x0;
        let y2 = mby as i32 * 32 + mv.dy as i32 - 2 * win.y0;
        let mut sad = 0;
        for y in 0..16i32 {
            for x in 0..16i32 {
                let s = src[(y / 8 * 2 + x / 8) as usize][((y % 8) * 8 + x % 8) as usize] as i32;
                let r = sample_half(&win_plane, x2 + 2 * x, y2 + 2 * y) as i32;
                sad += (s - r).unsigned_abs();
            }
        }
        sad
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every macroblock of random frames (sizes: multiples of 16 up to
        /// 64, or QCIF), its window for a random search range, and random
        /// vectors out to ±(range + 2) full pels: the block kernel's SAD
        /// equals the clamped per-sample SAD. Edge macroblocks give
        /// windows clamped at 0 and at the frame edge; both must occur.
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
            for mby in 0..(h / 16) as u32 {
                for mbx in 0..(w / 16) as u32 {
                    let win = window_of(&reference, mbx, mby, range);
                    clamped_lo |= win.x0 == 0 && win.y0 == 0;
                    clamped_hi |= win.x0 + win.w as i32 == w as i32 && win.y0 + win.h as i32 == h as i32;
                    let mut src = [[0i16; 64]; 6];
                    src.iter_mut().flatten().for_each(|s| *s = (next() % 256) as i16);
                    let lim = 2 * (range as u64 + 2);
                    for _ in 0..8 {
                        let mut c = || ((next() % (2 * lim + 1)) as i64 - lim as i64) as i16;
                        let mv = MotionVector { dx: c(), dy: c() };
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
}
