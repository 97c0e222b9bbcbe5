//! The DCT coprocessor.
//!
//! The paper's own example of weak programmability and multi-tasking
//! (Section 6): "the DCT coprocessor can time-share both the forward and
//! inverse DCT functions of one or more MPEG encoding applications and
//! the inverse DCT of one or more decoding applications." The direction
//! is selected per task by the `task_info` word the shell hands back from
//! `GetTask` — exactly the paper's Section 3.2 example ("one bit to
//! select whether a forward or inverse DCT is to be performed").
//!
//! The block stream is a sequence of tagged records; picture headers and
//! macroblock headers (present on the encoder's path) pass through
//! untouched — the DCT only transforms `CBLK` payloads.

use std::collections::BTreeMap;

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_media::dct::{fdct2d, idct2d};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cost::DctCost;
use crate::io::{StepReader, StepWriter};
use crate::records::{self, cblk_from_body, cblk_to_bytes, TAG_EOS, TAG_MB, TAG_PIC};

/// `task_info` value selecting the inverse DCT.
pub const INFO_IDCT: u32 = 0;
/// `task_info` value selecting the forward DCT.
pub const INFO_FDCT: u32 = 1;

/// Whether a task's stream carries bare blocks (decode path: RLSQ → DCT)
/// or header-framed macroblocks (encode paths, where MB headers travel
/// with the blocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Framing {
    #[default]
    Bare,
    Framed,
}

eclipse_sim::snap_enum!(Framing { Bare = 0, Framed = 1 });

#[derive(Default)]
struct DctTask {
    framing: Framing,
    /// For framed streams: coded blocks remaining in the current MB.
    blocks_left: u8,
    blocks_done: u64,
    /// Damaged records skipped instead of crashing.
    errors_recovered: u64,
}

eclipse_sim::snap_fields!(DctTask {
    framing,
    blocks_left,
    blocks_done,
    errors_recovered
});

/// The DCT coprocessor model.
pub struct DctCoproc {
    cost: DctCost,
    /// Ordered map: checkpoint serialization iterates it, and two builds
    /// of the same system must produce identical bytes.
    tasks: BTreeMap<TaskIdx, DctTask>,
}

eclipse_sim::snap_fields!(DctCoproc { tasks });

impl DctCoproc {
    /// A new DCT unit.
    pub fn new(cost: DctCost) -> Self {
        DctCoproc {
            cost,
            tasks: BTreeMap::new(),
        }
    }

    /// Blocks transformed by a task (workload statistics).
    pub fn blocks_done(&self, task: TaskIdx) -> u64 {
        self.tasks.get(&task).map_or(0, |t| t.blocks_done)
    }
}

impl Coprocessor for DctCoproc {
    fn name(&self) -> &str {
        "dct"
    }

    fn supports(&self, function: &str) -> bool {
        matches!(function, "dct" | "fdct" | "idct")
    }

    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        // Decode-path IDCT streams are bare block sequences; the encode
        // paths (`fdct` after ME, `idct` after IQ) are MB-framed.
        // Decode IDCT ("dct") and encode FDCT ("fdct") consume bare block
        // sequences; the encode reconstruction IDCT ("idct") consumes the
        // MB-framed stream from the IQ.
        let framing = match decl.function.as_str() {
            "dct" | "fdct" => Framing::Bare,
            "idct" => Framing::Framed,
            other => panic!("DCT cannot perform '{other}'"),
        };
        self.tasks.insert(
            task,
            DctTask {
                framing,
                blocks_left: 0,
                blocks_done: 0,
                errors_recovered: 0,
            },
        );
        // Input hint of 1: the EOS record is a single byte.
        (vec![1], vec![records::CBLK_REC_BYTES])
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn error_counters(&self) -> (u64, u64) {
        (self.tasks.values().map(|t| t.errors_recovered).sum(), 0)
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

    fn step(&mut self, task: TaskIdx, info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        const IN: PortId = 0;
        const OUT: PortId = 1;
        let t = self.tasks.get_mut(&task).expect("unconfigured DCT task");
        let mut r = StepReader::new(IN);
        let mut w = StepWriter::new(OUT);

        let tag = match r.peek_tag(ctx) {
            None => return StepResult::Blocked,
            Some(tag) => tag,
        };
        match tag {
            TAG_EOS => {
                let mut b = [0u8; 1];
                r.read(ctx, &mut b);
                w.stage(&[TAG_EOS]);
                if !w.reserve(ctx) {
                    return StepResult::Blocked;
                }
                w.commit(ctx);
                r.commit(ctx);
                StepResult::Finished
            }
            TAG_PIC => {
                // Pass picture headers through (framed streams only).
                let body = match r.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                    None => return StepResult::Blocked,
                    Some(b) => b,
                };
                w.stage(&body);
                if !w.reserve(ctx) {
                    return StepResult::Blocked;
                }
                w.commit(ctx);
                r.commit(ctx);
                ctx.compute(4);
                StepResult::Done
            }
            TAG_MB => {
                // On framed streams a TAG_MB may be an 11-byte MB header
                // (when no blocks are pending) or a 129-byte block record.
                let is_header = t.framing == Framing::Framed && t.blocks_left == 0;
                if is_header {
                    let hdr = match r.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
                        None => return StepResult::Blocked,
                        Some(b) => b,
                    };
                    let cbp = hdr[2];
                    w.stage(&hdr);
                    if !w.reserve(ctx) {
                        return StepResult::Blocked;
                    }
                    w.commit(ctx);
                    r.commit(ctx);
                    ctx.compute(4);
                    t.blocks_left = cbp.count_ones() as u8;
                    return StepResult::Done;
                }
                let rec = match r.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
                    None => return StepResult::Blocked,
                    Some(b) => b,
                };
                let block = cblk_from_body(&rec[1..]).unwrap_or([0i16; 64]);
                let transformed = if info == INFO_FDCT {
                    fdct2d(&block)
                } else {
                    idct2d(&block)
                };
                w.stage(&cblk_to_bytes(&transformed));
                if !w.reserve(ctx) {
                    return StepResult::Blocked;
                }
                w.commit(ctx);
                r.commit(ctx);
                ctx.compute(self.cost.per_block);
                t.blocks_done += 1;
                if t.framing == Framing::Framed {
                    t.blocks_left = t.blocks_left.saturating_sub(1);
                }
                StepResult::Done
            }
            _ => {
                // Unknown tag (bit-flipped in SRAM): skip one byte and
                // rescan for the next plausible record boundary.
                let mut b = [0u8; 1];
                r.read(ctx, &mut b);
                r.commit(ctx);
                ctx.compute(1);
                t.errors_recovered += 1;
                StepResult::Done
            }
        }
    }
}
