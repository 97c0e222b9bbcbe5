//! The VLD (variable-length decoding) coprocessor.
//!
//! Paper Figure 8: "the VLD coprocessor fetches the incoming compressed
//! bit-streams from off-chip memory" through a dedicated system-bus port.
//! It is the canonical irregular task (Section 2.2): the amount of input
//! consumed and output produced varies wildly per picture.
//!
//! Per task (one task per decoded stream — the multi-stream decode mixes
//! run several VLD tasks time-shared on this one coprocessor), the VLD
//!
//! 1. incrementally fetches the bitstream from off-chip memory,
//! 2. parses sequence/picture headers and entropy-coded macroblocks
//!    (including intra-DC prediction, which is entropy-decode state), and
//! 3. emits two streams: the *token* stream of run/level coefficient
//!    symbols for the RLSQ, and the *mv* stream of macroblock modes,
//!    motion vectors, and coded-block patterns for the MC.
//!
//! Processing steps follow the paper's §4.2 discipline: one macroblock
//! (or one header) per step, with all parse state staged locally and
//! committed only after every output window was granted — a denied
//! GetSpace aborts the step and the retry re-parses from the committed
//! bit position.

use std::collections::BTreeMap;

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_media::bits::BitReader;
use eclipse_media::motion::PredictionMode;
use eclipse_media::scan::RunLevel;
use eclipse_media::stream::{
    read_mb_header, read_picture_header, read_sequence_header, SequenceHeader, MARKER_END,
    MARKER_PIC, MARKER_SEQ,
};
use eclipse_media::vlc::{get_block, get_sev};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cost::VldCost;
use crate::io::StepWriter;
use crate::records::{self, PicRec, TAG_EOS, TAG_MB};

/// Conventional output port of the token stream when the VLD has no
/// input port (DRAM-sourced tasks).
pub const PORT_TOKEN: PortId = 0;
/// Conventional output port of the mv stream for DRAM-sourced tasks.
pub const PORT_MV: PortId = 1;

/// Where a VLD task's compressed bitstream comes from.
#[derive(Debug, Clone, Copy, Default)]
pub enum VldSource {
    /// Fetched from off-chip memory over the VLD's system-bus port (the
    /// paper's Figure 8 arrangement).
    Dram {
        /// Byte address of the bitstream.
        addr: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Received as length-framed chunks on the task's input port 0 (fed
    /// by the DSP's software demultiplexer).
    #[default]
    Port,
}

/// Per-stream configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct VldTaskConfig {
    /// Bitstream source.
    pub source: VldSource,
}

eclipse_sim::snap_enum!(VldSource { Dram { addr, len } = 0, Port = 1 });
eclipse_sim::snap_fields!(VldTaskConfig { source });

impl VldTaskConfig {
    /// Shorthand for the off-chip arrangement.
    pub fn dram(addr: u32, len: u32) -> Self {
        VldTaskConfig {
            source: VldSource::Dram { addr, len },
        }
    }

    /// Shorthand for the demux-fed arrangement.
    pub fn port() -> Self {
        VldTaskConfig {
            source: VldSource::Port,
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum VldState {
    #[default]
    Seq,
    PicOrEnd,
    Mb,
    /// Error recovery: finish concealing the damaged picture, then scan
    /// byte by byte for the next start marker.
    Recover,
    /// Terminal drain after unrecoverable damage or truncation: emit
    /// end-of-stream records so downstream tasks shut down cleanly.
    Eos,
}

eclipse_sim::snap_enum!(VldState {
    Seq = 0,
    PicOrEnd = 1,
    Mb = 2,
    Recover = 3,
    Eos = 4,
});

#[derive(Default)]
struct VldTask {
    cfg: VldTaskConfig,
    /// Prefix of the bitstream fetched so far (the coprocessor's local
    /// fetch buffer; functionally a cache, safe across aborts — in port
    /// mode, consumed input chunks are committed as soon as they are
    /// copied here).
    fetched: Vec<u8>,
    /// Port mode: the demux sent its terminator; no more bytes will come.
    source_done: bool,
    /// Port ids of the two outputs (shifted by one in port mode, where
    /// input port 0 carries the bitstream).
    port_token: PortId,
    port_mv: PortId,
    /// Committed parse position in bits.
    bit_pos: usize,
    seq: Option<SequenceHeader>,
    state: VldState,
    cur_pic: Option<PicRec>,
    mb_left: u32,
    dc_pred: [i16; 3],
    /// Statistics: total bits parsed, macroblocks decoded.
    bits_parsed: u64,
    mbs_decoded: u64,
    /// Graceful degradation: concealment records still owed for the
    /// picture damaged by the current error, recovery-in-progress flag
    /// (so one corrupt region counts as one error), and counters.
    conceal_left: u32,
    in_recovery: bool,
    errors_recovered: u64,
    mbs_concealed: u64,
    /// Supervisor degrade rung: stop trusting the (damaged) entropy
    /// data entirely — every picture whose header still parses is
    /// filled with intra concealment macroblocks, keeping frames
    /// flowing downstream at minimum quality.
    conceal_only: bool,
}

eclipse_sim::snap_fields!(VldTask {
    cfg,
    fetched: blob(VldTask::fetch_bound),
    source_done,
    port_token,
    port_mv,
    bit_pos,
    seq,
    state,
    cur_pic,
    mb_left,
    dc_pred,
    bits_parsed,
    mbs_decoded,
    conceal_left,
    in_recovery,
    errors_recovered,
    mbs_concealed,
    conceal_only,
} then VldTask::check_parse_position);

impl VldTask {
    /// True when no byte beyond `fetched` can ever arrive.
    fn stream_exhausted(&self) -> bool {
        match self.cfg.source {
            VldSource::Dram { len, .. } => self.fetched.len() >= len as usize,
            VldSource::Port => self.source_done,
        }
    }

    /// Enter recovery (idempotent while one corrupt region is being
    /// skipped), owing `conceal` concealment macroblocks.
    fn begin_recovery(&mut self, conceal: u32) {
        if !self.in_recovery {
            self.in_recovery = true;
            self.errors_recovered += 1;
        }
        self.conceal_left = conceal;
        self.mb_left = 0;
        self.state = VldState::Recover;
    }

    /// The longest fetch buffer a checkpoint may restore: a DRAM-sourced
    /// buffer may not outgrow its stream.
    fn fetch_bound(&self) -> usize {
        match self.cfg.source {
            VldSource::Dram { len, .. } => len as usize,
            VldSource::Port => crate::MAX_STREAM_BYTES,
        }
    }

    /// Reject a parse position past the fetched bytes.
    fn check_parse_position(&mut self) -> Result<(), SnapError> {
        if self.bit_pos > self.fetched.len() * 8 {
            return Err(SnapError::Corrupt("vld parse position"));
        }
        Ok(())
    }

    /// Scan the fetched bytes from the committed position for the next
    /// start marker. Positions `bit_pos` at the marker and returns it, or
    /// advances `bit_pos` to just short of the fetch horizon (keeping a
    /// 3-byte marker prefix) and returns `None` so the caller can fetch
    /// more and rescan.
    fn resync_scan(&mut self) -> Option<u32> {
        let mut p = self.bit_pos.div_ceil(8);
        while p + 4 <= self.fetched.len() {
            let m = u32::from_be_bytes([
                self.fetched[p],
                self.fetched[p + 1],
                self.fetched[p + 2],
                self.fetched[p + 3],
            ]);
            if m == MARKER_SEQ || m == MARKER_PIC || m == MARKER_END {
                self.bit_pos = p * 8;
                return Some(m);
            }
            p += 1;
        }
        self.bit_pos = self.fetched.len().saturating_sub(3) * 8;
        None
    }
}

/// The VLD coprocessor model.
pub struct VldCoproc {
    cost: VldCost,
    /// Stream configs by task instance name (bound in `configure_task`).
    /// Ordered maps: checkpoint serialization iterates them, and two
    /// builds of the same system must produce identical bytes.
    cfgs: BTreeMap<String, VldTaskConfig>,
    tasks: BTreeMap<TaskIdx, VldTask>,
}

eclipse_sim::snap_fields!(VldCoproc { cfgs, tasks });

impl VldCoproc {
    /// A VLD with stream configurations keyed by graph task name.
    pub fn new(cost: VldCost, cfgs: BTreeMap<String, VldTaskConfig>) -> Self {
        VldCoproc {
            cost,
            cfgs,
            tasks: BTreeMap::new(),
        }
    }

    /// Bits parsed by a task so far (workload statistics).
    pub fn bits_parsed(&self, task: TaskIdx) -> u64 {
        self.tasks.get(&task).map_or(0, |t| t.bits_parsed)
    }

    /// Macroblocks decoded by a task so far.
    pub fn mbs_decoded(&self, task: TaskIdx) -> u64 {
        self.tasks.get(&task).map_or(0, |t| t.mbs_decoded)
    }

    /// Fetch ahead so at least `bytes_ahead` bytes beyond the parse
    /// position are available locally. DRAM mode fetches over the system
    /// bus (bounded by the stream length); port mode pulls length-framed
    /// chunks from input port 0 and returns `false` (caller blocks) when
    /// the demux has not delivered enough yet.
    fn ensure_fetched(
        t: &mut VldTask,
        cost: &VldCost,
        ctx: &mut StepCtx<'_>,
        bytes_ahead: usize,
    ) -> bool {
        match t.cfg.source {
            VldSource::Dram { addr, len } => {
                let want = ((t.bit_pos / 8) + bytes_ahead).min(len as usize);
                while t.fetched.len() < want {
                    let chunk = (cost.fetch_chunk as usize).min(len as usize - t.fetched.len());
                    let a = addr + t.fetched.len() as u32;
                    let start = t.fetched.len();
                    t.fetched.resize(start + chunk, 0);
                    ctx.dram_read(a, &mut t.fetched[start..]);
                }
                true
            }
            VldSource::Port => {
                const IN: PortId = 0;
                let want = (t.bit_pos / 8) + bytes_ahead;
                while t.fetched.len() < want && !t.source_done {
                    if !ctx.get_space(IN, 2) {
                        return false;
                    }
                    let mut lenb = [0u8; 2];
                    ctx.read(IN, 0, &mut lenb);
                    let len = u16::from_le_bytes(lenb) as u32;
                    if len == 0 {
                        ctx.put_space(IN, 2);
                        t.source_done = true;
                        break;
                    }
                    if !ctx.get_space(IN, 2 + len) {
                        return false;
                    }
                    let mut payload = vec![0u8; len as usize];
                    ctx.read(IN, 2, &mut payload);
                    // Copying into the local fetch buffer commits the
                    // input — safe even if the step later aborts, because
                    // the buffer is persistent task state.
                    ctx.put_space(IN, 2 + len);
                    ctx.compute(4 + len as u64 / 8);
                    t.fetched.extend_from_slice(&payload);
                }
                true
            }
        }
    }
}

impl Coprocessor for VldCoproc {
    fn name(&self) -> &str {
        "vld"
    }

    fn supports(&self, function: &str) -> bool {
        function == "vld"
    }

    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        let cfg = *self
            .cfgs
            .get(&decl.name)
            .unwrap_or_else(|| panic!("no VLD bitstream configured for task '{}'", decl.name));
        // Port numbering: inputs first. In port mode the bitstream input
        // occupies port 0, shifting both outputs by one.
        let port_input = matches!(cfg.source, VldSource::Port);
        assert_eq!(
            decl.inputs.len(),
            port_input as usize,
            "VLD '{}' port shape mismatch",
            decl.name
        );
        let base = port_input as PortId;
        self.tasks.insert(
            task,
            VldTask {
                cfg,
                fetched: Vec::new(),
                source_done: false,
                port_token: base,
                port_mv: base + 1,
                bit_pos: 0,
                seq: None,
                state: VldState::Seq,
                cur_pic: None,
                mb_left: 0,
                dc_pred: [128; 3],
                bits_parsed: 0,
                mbs_decoded: 0,
                conceal_left: 0,
                in_recovery: false,
                errors_recovered: 0,
                mbs_concealed: 0,
                conceal_only: false,
            },
        );
        // Output hints: a header-sized window on both streams keeps the
        // scheduler's best guess cheapish without starving small buffers.
        (
            if port_input { vec![0] } else { vec![] },
            vec![64, records::MBMV_REC_BYTES],
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn error_counters(&self) -> (u64, u64) {
        self.tasks.values().fold((0, 0), |(e, c), t| {
            (e + t.errors_recovered, c + t.mbs_concealed)
        })
    }

    fn task_error_counters(&self, task: TaskIdx) -> (u64, u64) {
        self.tasks
            .get(&task)
            .map_or((0, 0), |t| (t.errors_recovered, t.mbs_concealed))
    }

    fn set_conceal_only(&mut self, task: TaskIdx, on: bool) -> bool {
        match self.tasks.get_mut(&task) {
            Some(t) => {
                t.conceal_only = on;
                true
            }
            None => false,
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }

    fn task_state_fits(&self, task: TaskIdx, row: &TaskRow, dram_bytes: u32) -> bool {
        self.tasks.get(&task).is_some_and(|t| {
            let ports = row.cfg.ports.len();
            let source_ok = match t.cfg.source {
                VldSource::Dram { addr, len } => addr as u64 + len as u64 <= dram_bytes as u64,
                VldSource::Port => true,
            };
            (t.port_token as usize) < ports && (t.port_mv as usize) < ports && source_ok
        })
    }

    fn step(&mut self, task: TaskIdx, _info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        let cost = self.cost;
        let t = self.tasks.get_mut(&task).expect("unconfigured VLD task");
        let (port_token, port_mv) = (t.port_token, t.port_mv);
        match t.state {
            VldState::Seq => {
                if !Self::ensure_fetched(t, &cost, ctx, 32) {
                    return StepResult::Blocked;
                }
                let mut r = BitReader::new(&t.fetched);
                r.seek(t.bit_pos);
                let seq = match read_sequence_header(&mut r) {
                    Ok(seq) if seq.validate().is_ok() => seq,
                    _ => {
                        // Corrupt head: hunt for a later start marker
                        // instead of crashing the whole pipeline.
                        ctx.compute(cost.per_header);
                        t.begin_recovery(0);
                        return StepResult::Done;
                    }
                };
                ctx.compute(cost.per_header);
                t.bits_parsed += (r.bit_pos() - t.bit_pos) as u64;
                t.bit_pos = r.bit_pos();
                t.seq = Some(seq);
                t.state = VldState::PicOrEnd;
                StepResult::Done
            }
            VldState::PicOrEnd => {
                if !Self::ensure_fetched(t, &cost, ctx, 32) {
                    return StepResult::Blocked;
                }
                let mut r = BitReader::new(&t.fetched);
                r.seek(t.bit_pos);
                r.byte_align();
                let marker = match r.clone().get_bits(32) {
                    Ok(m) => m,
                    Err(_) => {
                        // Truncated between pictures.
                        if t.stream_exhausted() {
                            t.state = VldState::Eos;
                            if !t.in_recovery {
                                t.in_recovery = true;
                                t.errors_recovered += 1;
                            }
                        } else {
                            t.begin_recovery(0);
                        }
                        ctx.compute(cost.per_header);
                        return StepResult::Done;
                    }
                };
                if marker == MARKER_SEQ {
                    // A repeated sequence header (seen after resync past a
                    // damaged region): re-parse it.
                    t.state = VldState::Seq;
                    ctx.compute(cost.per_header);
                    return StepResult::Done;
                }
                if marker == MARKER_END {
                    // Emit end-of-stream on both outputs, then finish.
                    let mut w_tok = StepWriter::new(port_token);
                    let mut w_mv = StepWriter::new(port_mv);
                    w_tok.stage(&[TAG_EOS]);
                    w_mv.stage(&[TAG_EOS]);
                    if !w_tok.reserve(ctx) || !w_mv.reserve(ctx) {
                        return StepResult::Blocked;
                    }
                    w_tok.commit(ctx);
                    w_mv.commit(ctx);
                    ctx.compute(cost.per_header);
                    return StepResult::Finished;
                }
                if marker != MARKER_PIC {
                    // Garbage between pictures: scan for the next marker.
                    ctx.compute(cost.per_header);
                    t.begin_recovery(0);
                    return StepResult::Done;
                }
                let (ph, seq) = match (read_picture_header(&mut r), t.seq) {
                    (Ok(ph), Some(seq)) if ph.temporal_ref < seq.num_frames => (ph, seq),
                    _ => {
                        // Corrupt picture header (or one with a display
                        // slot outside the sequence): drop the picture.
                        ctx.compute(cost.per_header);
                        t.begin_recovery(0);
                        return StepResult::Done;
                    }
                };
                let pic = PicRec {
                    ptype: ph.ptype,
                    qscale: ph.qscale,
                    temporal_ref: ph.temporal_ref,
                    mb_cols: seq.width / 16,
                    mb_rows: seq.height / 16,
                };
                let mut w_tok = StepWriter::new(port_token);
                let mut w_mv = StepWriter::new(port_mv);
                w_tok.stage(&pic.to_bytes());
                w_mv.stage(&pic.to_bytes());
                if !w_tok.reserve(ctx) || !w_mv.reserve(ctx) {
                    return StepResult::Blocked;
                }
                w_tok.commit(ctx);
                w_mv.commit(ctx);
                ctx.compute(cost.per_header);
                t.bits_parsed += (r.bit_pos() - t.bit_pos) as u64;
                t.bit_pos = r.bit_pos();
                t.cur_pic = Some(pic);
                t.mb_left = pic.mb_count();
                t.dc_pred = [128; 3];
                if t.conceal_only {
                    // Degraded mode: the picture header parsed, but the
                    // entropy data is not to be trusted. Conceal the
                    // whole picture instead of decoding it — no error
                    // is charged; this is policy, not damage.
                    t.conceal_left = pic.mb_count();
                    t.mb_left = 0;
                    t.in_recovery = true;
                    t.state = VldState::Recover;
                } else {
                    t.state = VldState::Mb;
                }
                StepResult::Done
            }
            VldState::Mb => {
                if t.conceal_only {
                    // Degrade flipped mid-picture: abandon the entropy
                    // decode and conceal the remaining macroblocks.
                    ctx.compute(cost.per_mb);
                    let owed = t.mb_left;
                    t.conceal_left = owed;
                    t.mb_left = 0;
                    t.in_recovery = true;
                    t.state = VldState::Recover;
                    return StepResult::Done;
                }
                // One macroblock per processing step.
                if !Self::ensure_fetched(t, &cost, ctx, 4096) {
                    return StepResult::Blocked;
                }
                let _pic = t.cur_pic.expect("MB state without picture");
                let mut r = BitReader::new(&t.fetched);
                r.seek(t.bit_pos);
                let start_bits = r.bit_pos();
                let mb = match read_mb_header(&mut r) {
                    Ok((mb, _)) => mb,
                    Err(_) => {
                        // Slice damage: conceal the rest of the picture
                        // and resynchronize at the next marker.
                        ctx.compute(cost.per_mb);
                        let owed = t.mb_left;
                        t.begin_recovery(owed);
                        return StepResult::Done;
                    }
                };
                let (mode_code, fwd, bwd) = records::encode_mode(mb.mode);
                let intra = mode_code == records::mode::INTRA;

                let mut w_tok = StepWriter::new(port_token);
                let mut w_mv = StepWriter::new(port_mv);
                w_tok.stage(&[TAG_MB, mode_code, mb.cbp]);
                w_mv.stage(&records::mbmv_to_bytes(mode_code, mb.cbp, fwd, bwd));

                // Parse coefficient data, staging the DC predictor state.
                let mut dc_pred = t.dc_pred;
                let mut symbols = [RunLevel::default(); 64];
                let mut parse_ok = true;
                'blocks: for blk in 0..6 {
                    if mb.cbp & (1 << (5 - blk)) == 0 {
                        continue;
                    }
                    if intra {
                        let comp = match blk {
                            0..=3 => 0,
                            4 => 1,
                            _ => 2,
                        };
                        let diff = match get_sev(&mut r) {
                            Ok(d) => d as i16,
                            Err(_) => {
                                parse_ok = false;
                                break 'blocks;
                            }
                        };
                        // Wrapping: a corrupt diff must not abort in
                        // overflow-checked builds.
                        let dc = dc_pred[comp].wrapping_add(diff);
                        dc_pred[comp] = dc;
                        w_tok.stage(&dc.to_le_bytes());
                    }
                    let n = match get_block(&mut r, &mut symbols) {
                        Ok((n, _)) => n,
                        Err(_) => {
                            parse_ok = false;
                            break 'blocks;
                        }
                    };
                    w_tok.stage(&(n as u16).to_le_bytes());
                    for s in &symbols[..n] {
                        w_tok.stage(&[s.run]);
                        w_tok.stage(&s.level.to_le_bytes());
                    }
                }
                if !parse_ok {
                    ctx.compute(cost.per_mb);
                    let owed = t.mb_left;
                    t.begin_recovery(owed);
                    return StepResult::Done;
                }

                if !w_tok.reserve(ctx) || !w_mv.reserve(ctx) {
                    return StepResult::Blocked; // abort; retry re-parses
                }
                w_tok.commit(ctx);
                w_mv.commit(ctx);

                let bits = (r.bit_pos() - start_bits) as u64;
                ctx.compute(cost.per_mb + bits / 4 * cost.per_4bits);
                t.bits_parsed += bits;
                t.mbs_decoded += 1;
                t.dc_pred = dc_pred;
                t.mb_left -= 1;
                if t.mb_left == 0 {
                    r.byte_align();
                    t.state = VldState::PicOrEnd;
                }
                t.bit_pos = r.bit_pos();
                StepResult::Done
            }
            VldState::Recover => {
                // First settle the concealment debt: one INTRA macroblock
                // with an empty coded-block pattern per step, so every
                // picture whose header was emitted still carries exactly
                // mb_count records downstream (decodes to a flat block —
                // the MC model substitutes something better if it has a
                // reference frame).
                if t.conceal_left > 0 {
                    let (mode_code, fwd, bwd) = records::encode_mode(Some(PredictionMode::Intra));
                    let mut w_tok = StepWriter::new(port_token);
                    let mut w_mv = StepWriter::new(port_mv);
                    w_tok.stage(&[TAG_MB, mode_code, 0]);
                    w_mv.stage(&records::mbmv_to_bytes(mode_code, 0, fwd, bwd));
                    if !w_tok.reserve(ctx) || !w_mv.reserve(ctx) {
                        return StepResult::Blocked;
                    }
                    w_tok.commit(ctx);
                    w_mv.commit(ctx);
                    ctx.compute(cost.per_mb);
                    t.conceal_left -= 1;
                    t.mbs_concealed += 1;
                    return StepResult::Done;
                }
                // Then hunt for the next start marker.
                if !Self::ensure_fetched(t, &cost, ctx, 64) {
                    return StepResult::Blocked;
                }
                loop {
                    match t.resync_scan() {
                        // A picture before any valid sequence header is
                        // useless (no geometry): keep scanning past it.
                        Some(MARKER_PIC) if t.seq.is_none() => {
                            t.bit_pos += 8;
                            continue;
                        }
                        Some(m) => {
                            t.in_recovery = false;
                            t.state = if m == MARKER_SEQ {
                                VldState::Seq
                            } else {
                                VldState::PicOrEnd
                            };
                            break;
                        }
                        None => {
                            if t.stream_exhausted() {
                                t.in_recovery = false;
                                t.state = VldState::Eos;
                            }
                            // Otherwise: fetch horizon reached; the next
                            // step fetches more bytes and rescans.
                            break;
                        }
                    }
                }
                ctx.compute(cost.per_header);
                StepResult::Done
            }
            VldState::Eos => {
                // Truncated or unrecoverable stream: emit end-of-stream on
                // both outputs so the rest of the graph terminates instead
                // of deadlocking on input that will never come.
                let mut w_tok = StepWriter::new(port_token);
                let mut w_mv = StepWriter::new(port_mv);
                w_tok.stage(&[TAG_EOS]);
                w_mv.stage(&[TAG_EOS]);
                if !w_tok.reserve(ctx) || !w_mv.reserve(ctx) {
                    return StepResult::Blocked;
                }
                w_tok.commit(ctx);
                w_mv.commit(ctx);
                ctx.compute(cost.per_header);
                StepResult::Finished
            }
        }
    }
}
