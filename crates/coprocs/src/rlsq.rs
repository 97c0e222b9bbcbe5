//! The RLSQ coprocessor: run-length (de)coding, (inverse) scan, and
//! (inverse) quantization.
//!
//! Paper Section 6: "the RLSQ coprocessor performs the run-length
//! decoding, inverse scan, and inverse quantization of the MPEG-2
//! decoding graph, as well as the encoding variant: quantization, zigzag
//! scan and run-length encoding." The three task functions:
//!
//! * `rlsq` (decode): token stream in → dequantized coefficient blocks
//!   out;
//! * `qrl` (encode): FDCT coefficient blocks + the forked mb-decision
//!   stream in → quantized run/level symbols (token records, for the
//!   VLE) *and* quantized level blocks (for the encoder's reconstruction
//!   loop) out;
//! * the encode-side inverse quantizer is folded into `qrl`'s second
//!   output (levels are dequantized by the `iq` function, also hosted
//!   here).
//!
//! Its cost is dominated by the per-coefficient work, which is what makes
//! it the I-picture bottleneck in the paper's Figure 10.

use std::collections::BTreeMap;

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_media::quant::{dequant_inter, dequant_intra, quant_inter, quant_intra};
use eclipse_media::scan::{rle_decode, rle_encode_into, RunLevel};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cost::RlsqCost;
use crate::io::{Head, StepReader, StepWriter};
use crate::records::{self, cblk_from_bytes, cblk_to_bytes, PicRec, TAG_MB};

/// Which RLSQ function a task performs (from the task's function name).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Function {
    /// Decode: run-length decode + inverse scan + inverse quantize.
    #[default]
    Decode,
    /// Encode: quantize + zigzag + run-length encode.
    EncodeQrl,
    /// Encode reconstruction loop: inverse quantize level blocks.
    Iq,
}

eclipse_sim::snap_enum!(Function { Decode = 0, EncodeQrl = 1, Iq = 2 });

#[derive(Default)]
struct RlsqTask {
    function: Function,
    /// Current picture context (qscale, type) from the latest PIC record.
    pic: Option<PicRec>,
    /// Encode-side DC predictors (the encoder's QRL owns DC prediction).
    dc_pred: [i16; 3],
    /// Decode-path records that arrived damaged (SRAM faults upstream)
    /// and were skipped or zero-substituted instead of crashing.
    errors_recovered: u64,
}

eclipse_sim::snap_fields!(RlsqTask {
    function,
    pic,
    dc_pred,
    errors_recovered,
});

/// The RLSQ coprocessor model.
pub struct RlsqCoproc {
    cost: RlsqCost,
    /// Ordered map: checkpoint serialization iterates it, and two builds
    /// of the same system must produce identical bytes.
    tasks: BTreeMap<TaskIdx, RlsqTask>,
}

eclipse_sim::snap_fields!(RlsqCoproc { tasks });

impl RlsqCoproc {
    /// A new RLSQ.
    pub fn new(cost: RlsqCost) -> Self {
        RlsqCoproc {
            cost,
            tasks: BTreeMap::new(),
        }
    }
}

impl Coprocessor for RlsqCoproc {
    fn name(&self) -> &str {
        "rlsq"
    }

    fn supports(&self, function: &str) -> bool {
        matches!(function, "rlsq" | "qrl" | "iq")
    }

    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        let function = match decl.function.as_str() {
            "rlsq" => Function::Decode,
            "qrl" => Function::EncodeQrl,
            "iq" => Function::Iq,
            other => panic!("RLSQ cannot perform '{other}'"),
        };
        self.tasks.insert(
            task,
            RlsqTask {
                function,
                pic: None,
                dc_pred: [128; 3],
                errors_recovered: 0,
            },
        );
        // Input hints must not exceed the smallest record (the 1-byte
        // EOS tag), or the scheduler would never run the stream tail.
        match function {
            Function::Decode => (vec![1], vec![records::CBLK_REC_BYTES]),
            Function::EncodeQrl => (vec![1, 0], vec![16, 0]),
            Function::Iq => (vec![1], vec![records::CBLK_REC_BYTES]),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn task_error_counters(&self, task: TaskIdx) -> (u64, u64) {
        self.tasks
            .get(&task)
            .map_or((0, 0), |t| (t.errors_recovered, 0))
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }

    fn task_state_fits(&self, task: TaskIdx, _row: &TaskRow, _dram_bytes: u32) -> bool {
        self.tasks.contains_key(&task)
    }

    fn step(&mut self, task: TaskIdx, _info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        let cost = self.cost;
        let t = self.tasks.get_mut(&task).expect("unconfigured RLSQ task");
        match t.function {
            Function::Decode => step_decode(t, &cost, ctx),
            Function::EncodeQrl => step_qrl(t, &cost, ctx),
            Function::Iq => step_iq(t, &cost, ctx),
        }
    }
}

/// Decode direction: one macroblock's coefficient data per step.
fn step_decode(t: &mut RlsqTask, cost: &RlsqCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const IN: PortId = 0;
    const OUT: PortId = 1; // port numbering: inputs first, then outputs

    let mut r = match StepReader::new(IN).head(ctx, &mut t.errors_recovered) {
        Head::Mb(r) => r,
        Head::Pic(r, _, pic) => {
            ctx.compute(8);
            r.commit(ctx);
            match pic {
                Some(pic) => t.pic = Some(pic),
                // Damaged picture record (an upstream SRAM fault): keep
                // the previous picture context and move on.
                None => t.errors_recovered += 1,
            }
            return StepResult::Done;
        }
        Head::Eos(r) => return r.finish(ctx, &[OUT]),
        Head::Return(res) => return res,
    };
    // A damaged stream can deliver an MB record before any valid
    // PIC record; dequantize with a default scale instead of
    // crashing (the output is concealment fodder anyway).
    let (qscale, mut errs) = match t.pic {
        Some(pic) => (pic.qscale, 0u64),
        None => (8, 1),
    };
    let hdr = match r.take::<{ records::MB_REC_BYTES as usize }>(ctx) {
        None => return StepResult::Blocked,
        Some(b) => b,
    };
    let (mode_code, cbp) = (hdr[1], hdr[2]);
    let intra = mode_code == records::mode::INTRA;
    let mut w = StepWriter::new(OUT);
    let mut cycles = cost.per_mb;
    let mut corrupt = false;
    let mut symbols = [RunLevel::default(); 64];
    for blk in 0..6 {
        if cbp & (1 << (5 - blk)) == 0 {
            continue;
        }
        if corrupt {
            // Zero-substitute the rest so the CBLK count still
            // matches this record's coded-block pattern.
            w.stage(&cblk_to_bytes(&[0i16; 64]));
            continue;
        }
        // Parse one block: [dc if intra] nsym, then symbols.
        let dc = if intra {
            let b = match r.take::<2>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            Some(i16::from_le_bytes(b))
        } else {
            None
        };
        let nsym = match r.take::<2>(ctx) {
            None => return StepResult::Blocked,
            Some(b) => u16::from_le_bytes(b) as u32,
        };
        // At most 64 symbols fit in an 8x8 block; a larger count
        // is a corrupted length field, and waiting for that many
        // bytes could exceed the buffer and deadlock the graph.
        if nsym > 64 {
            errs += 1;
            corrupt = true;
            w.stage(&cblk_to_bytes(&[0i16; 64]));
            continue;
        }
        if !r.need(ctx, nsym * 3) {
            return StepResult::Blocked;
        }
        let symbols = &mut symbols[..nsym as usize];
        for s in symbols.iter_mut() {
            let mut sb = [0u8; 3];
            r.read(ctx, &mut sb);
            *s = RunLevel {
                run: sb[0],
                level: i16::from_le_bytes([sb[1], sb[2]]),
            };
        }
        let mut levels = match rle_decode(symbols) {
            Ok(levels) => levels,
            Err(_) => {
                // Run/level data overflows the block: zero it.
                errs += 1;
                [0i16; 64]
            }
        };
        if let Some(dc) = dc {
            levels[0] = dc;
        }
        let dequant = if intra {
            dequant_intra(&levels, qscale)
        } else {
            dequant_inter(&levels, qscale)
        };
        w.stage(&cblk_to_bytes(&dequant));
        cycles += cost.per_block + (nsym as u64 + intra as u64) * cost.per_coef;
    }
    if !w.reserve(ctx) {
        return StepResult::Blocked;
    }
    w.commit(ctx);
    r.commit(ctx);
    ctx.compute(cycles);
    t.errors_recovered += errs;
    StepResult::Done
}

/// Encode direction (`qrl`): consumes the forked mb-decision stream
/// (in0) and the FDCT coefficient blocks (in1); emits token records for
/// the VLE (out0) and quantized level blocks for the reconstruction loop
/// (out1).
fn step_qrl(t: &mut RlsqTask, cost: &RlsqCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const IN_MB: PortId = 0;
    const IN_COEF: PortId = 1;
    const OUT_TOKEN: PortId = 2;
    const OUT_LEVELS: PortId = 3;

    let mut r_mb = match StepReader::new(IN_MB).head(ctx, &mut t.errors_recovered) {
        Head::Mb(r) => r,
        Head::Pic(r, body, pic) => {
            // Forward the picture header on both outputs; a damaged one
            // passes through and leaves the picture context as it was.
            let mut w_tok = StepWriter::new(OUT_TOKEN);
            let mut w_lvl = StepWriter::new(OUT_LEVELS);
            w_tok.stage(&body);
            w_lvl.stage(&body);
            if !w_tok.reserve(ctx) || !w_lvl.reserve(ctx) {
                return StepResult::Blocked;
            }
            w_tok.commit(ctx);
            w_lvl.commit(ctx);
            r.commit(ctx);
            ctx.compute(8);
            match pic {
                Some(pic) => {
                    t.pic = Some(pic);
                    t.dc_pred = [128; 3];
                }
                None => t.errors_recovered += 1,
            }
            return StepResult::Done;
        }
        Head::Eos(r) => return r.finish(ctx, &[OUT_TOKEN, OUT_LEVELS]),
        Head::Return(res) => return res,
    };
    let hdr = match r_mb.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
        None => return StepResult::Blocked,
        Some(b) => b,
    };
    let mode_code = hdr[1];
    let intra = mode_code == records::mode::INTRA;
    // The ME stage sends all 6 FDCT blocks for every macroblock;
    // quantization decides the final cbp.
    let mut r_coef = StepReader::new(IN_COEF);
    let Some(pic) = t.pic else {
        // No valid picture header yet (lost upstream): consume the
        // macroblock and its blocks so both inputs stay aligned,
        // and emit nothing.
        if !r_coef.skip_blocks(ctx, 0b11_1111) {
            return StepResult::Blocked;
        }
        r_mb.commit(ctx);
        r_coef.commit(ctx);
        ctx.compute(1);
        t.errors_recovered += 1;
        return StepResult::Done;
    };
    let mut errs = 0;
    let mut level_blocks = [[0i16; 64]; 6];
    // Per coded block: the intra DC difference and the symbols
    // `symbols[blk][..nsym[blk]]`.
    let mut symbols = [[RunLevel::default(); 64]; 6];
    let mut nsym = [0usize; 6];
    let mut dc_diffs = [None; 6];
    let mut cbp: u8 = 0;
    let mut cycles = cost.per_mb;
    let mut dc_pred = t.dc_pred;
    for (blk, lv_out) in level_blocks.iter_mut().enumerate() {
        let rec = match r_coef.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
            None => return StepResult::Blocked,
            Some(b) => b,
        };
        // A damaged block record quantizes as a zero block.
        let coefs = if rec[0] == TAG_MB {
            cblk_from_bytes(&rec)
        } else {
            errs += 1;
            [0i16; 64]
        };
        let levels = if intra {
            quant_intra(&coefs, pic.qscale)
        } else {
            quant_inter(&coefs, pic.qscale)
        };
        let coded = if intra {
            true
        } else {
            levels.iter().any(|&l| l != 0)
        };
        if coded {
            cbp |= 1 << (5 - blk);
            let mut ac = levels;
            if intra {
                let comp = match blk {
                    0..=3 => 0,
                    4 => 1,
                    _ => 2,
                };
                let dc = levels[0];
                dc_diffs[blk] = Some(dc - dc_pred[comp]);
                dc_pred[comp] = dc;
                ac[0] = 0;
            }
            nsym[blk] = rle_encode_into(&ac, &mut symbols[blk]);
            cycles += cost.per_block + (nsym[blk] as u64 + intra as u64) * cost.per_coef;
            *lv_out = levels;
        }
    }
    let coded_blocks = (0..6).filter(|&blk| cbp & (1 << (5 - blk)) != 0);
    // Token record for the VLE: MBMV header (mode/mv/cbp now
    // final) followed by per-block symbol data.
    let mut w_tok = StepWriter::new(OUT_TOKEN);
    let mut mv_hdr = hdr;
    mv_hdr[2] = cbp;
    w_tok.stage(&mv_hdr);
    for blk in coded_blocks.clone() {
        if let Some(diff) = dc_diffs[blk] {
            w_tok.stage(&diff.to_le_bytes());
        }
        w_tok.stage(&(nsym[blk] as u16).to_le_bytes());
        for s in &symbols[blk][..nsym[blk]] {
            let [lo, hi] = s.level.to_le_bytes();
            w_tok.stage(&[s.run, lo, hi]);
        }
    }
    // Level blocks for the reconstruction loop: MB header (with
    // final cbp) + the coded level blocks.
    let mut w_lvl = StepWriter::new(OUT_LEVELS);
    w_lvl.stage(&mv_hdr);
    for blk in coded_blocks {
        w_lvl.stage(&cblk_to_bytes(&level_blocks[blk]));
    }
    if !w_tok.reserve(ctx) || !w_lvl.reserve(ctx) {
        return StepResult::Blocked;
    }
    w_tok.commit(ctx);
    w_lvl.commit(ctx);
    r_mb.commit(ctx);
    r_coef.commit(ctx);
    ctx.compute(cycles);
    t.dc_pred = dc_pred;
    t.errors_recovered += errs;
    StepResult::Done
}

/// Encode reconstruction loop: inverse-quantize the level blocks.
fn step_iq(t: &mut RlsqTask, cost: &RlsqCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const IN: PortId = 0;
    const OUT: PortId = 1;
    let mut r = match StepReader::new(IN).head(ctx, &mut t.errors_recovered) {
        Head::Mb(r) => r,
        Head::Pic(r, body, pic) => {
            // Forward downstream (the IDCT/RECON need picture context); a
            // damaged header passes through and leaves the context as it
            // was.
            let mut w = StepWriter::new(OUT);
            w.stage(&body);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r.commit(ctx);
            ctx.compute(8);
            match pic {
                Some(pic) => t.pic = Some(pic),
                None => t.errors_recovered += 1,
            }
            return StepResult::Done;
        }
        Head::Eos(r) => return r.finish(ctx, &[OUT]),
        Head::Return(res) => return res,
    };
    let hdr = match r.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
        None => return StepResult::Blocked,
        Some(b) => b,
    };
    let (mode_code, cbp) = (hdr[1], hdr[2]);
    let Some(pic) = t.pic else {
        // No valid picture header yet (lost upstream): consume the
        // macroblock and emit nothing.
        if !r.skip_blocks(ctx, cbp) {
            return StepResult::Blocked;
        }
        r.commit(ctx);
        ctx.compute(1);
        t.errors_recovered += 1;
        return StepResult::Done;
    };
    let intra = mode_code == records::mode::INTRA;
    let mut w = StepWriter::new(OUT);
    w.stage(&hdr);
    let mut cycles = cost.per_mb;
    for blk in 0..6 {
        if cbp & (1 << (5 - blk)) == 0 {
            continue;
        }
        let rec = match r.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
            None => return StepResult::Blocked,
            Some(b) => b,
        };
        let levels = cblk_from_bytes(&rec);
        let coefs = if intra {
            dequant_intra(&levels, pic.qscale)
        } else {
            dequant_inter(&levels, pic.qscale)
        };
        w.stage(&cblk_to_bytes(&coefs));
        let nz = levels.iter().filter(|&&l| l != 0).count() as u64;
        cycles += cost.per_block + nz * cost.per_coef;
    }
    if !w.reserve(ctx) {
        return StepResult::Blocked;
    }
    w.commit(ctx);
    r.commit(ctx);
    ctx.compute(cycles);
    StepResult::Done
}
