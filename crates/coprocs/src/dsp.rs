//! The media processor (DSP-CPU) and its software tasks.
//!
//! Paper Section 6: "audio decoding, variable-length encoding, and
//! de-multiplexing are executed in software on the media processor
//! (DSP-CPU)." The DSP is modeled as one more multi-tasking processor
//! behind a shell (typically configured with higher handshake costs — the
//! paper notes the media processor shell "may implement parts of its
//! functionality in software"). Its tasks use exactly the same five
//! primitives as the hardware coprocessors.
//!
//! Software task functions:
//!
//! * `video_source` — emits synthetic source frames as macroblock packets
//!   in coded order (the encoder front end);
//! * `display` — collects reconstructed macroblocks into frames in
//!   display order (the decoder back end, exposed for verification);
//! * `vle` — variable-length encoding: serializes the quantized symbol
//!   stream into the elementary bit syntax of [`eclipse_media::stream`];
//! * `bitsink` — collects the final bitstream bytes.

use std::collections::BTreeMap;

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_media::bits::BitWriter;
use eclipse_media::frame::Frame;
use eclipse_media::scan::RunLevel;
use eclipse_media::stream::{
    write_end, write_mb_header, write_picture_header, write_sequence_header, GopConfig, MbHeader,
    PictureHeader, SequenceHeader,
};
use eclipse_media::vlc::{put_block, put_sev};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cost::DspCost;
use crate::io::{StepReader, StepWriter};
use crate::records::{
    self, decode_mode, mbmv_from_body, pix_from_bytes, pix_to_bytes, PicRec, TAG_EOS, TAG_MB,
    TAG_PIC,
};

/// Chunk size of the VLE's byte output records.
pub const BITS_CHUNK: usize = 64;

/// Configuration of a `video_source` task.
#[derive(Debug, Clone, Default)]
pub struct SourceTaskConfig {
    /// Frames to encode, in display order.
    pub frames: Vec<Frame>,
    /// GOP structure (drives coded-order emission).
    pub gop: GopConfig,
    /// Quantizer scale stamped into the picture records.
    pub qscale: u8,
}

/// Configuration of a `vle` task.
#[derive(Debug, Clone, Copy, Default)]
pub struct VleTaskConfig {
    /// Sequence header to emit at the start of the bitstream.
    pub seq: SequenceHeader,
}

/// Where an `audio_dec` task's coded (ADPCM) stream comes from.
#[derive(Debug, Clone, Copy, Default)]
pub enum AudioSource {
    /// Read from off-chip memory.
    Dram {
        /// Byte address of the coded audio.
        addr: u32,
        /// Coded length in bytes (whole blocks).
        len: u32,
    },
    /// Length-framed chunks on input port 0 (from the demux task).
    #[default]
    Port,
}

/// Configuration of an `audio_dec` task.
#[derive(Debug, Clone, Copy, Default)]
pub struct AudioTaskConfig {
    /// Coded-stream source.
    pub source: AudioSource,
}

/// Configuration of a `demux` task: a transport stream in off-chip
/// memory and the packet-id routing table (output port `i` receives the
/// payloads of `pids[i]`, as length-framed chunks terminated by a
/// zero-length chunk).
#[derive(Debug, Clone, Default)]
pub struct DemuxTaskConfig {
    /// Transport-stream byte address in DRAM.
    pub ts_addr: u32,
    /// Transport-stream length (multiple of the packet size).
    pub ts_len: u32,
    /// Routing table: output port index -> packet id.
    pub pids: Vec<u8>,
}

// ---- task state machines ---------------------------------------------------

#[derive(Default)]
struct DisplayTask {
    frames: Vec<Option<Frame>>,
    cur: Option<(PicRec, Frame, u32)>,
    /// Damaged records tolerated instead of crashing.
    errors_recovered: u64,
    /// Supervisor degrade rung: at end-of-stream, backfill display
    /// slots that never received a complete picture with the nearest
    /// decoded frame (freeze-frame concealment).
    conceal_missing: bool,
    /// Slots filled by freeze-frame concealment.
    frames_concealed: u64,
    /// Frame total announced by the container / sequence header at
    /// build time (0 = unknown). Freeze-frame concealment extends the
    /// slot array to this length, so pictures whose headers were lost
    /// upstream are still delivered.
    expected_frames: u16,
}

#[derive(Default)]
struct SourceTask {
    cfg: SourceTaskConfig,
    /// (display index, ptype) in coded order.
    coded: Vec<(u16, eclipse_media::stream::PictureType)>,
    pic_idx: usize,
    mb_idx: u32,
    sent_pic_header: bool,
}

#[derive(Default)]
struct VleTask {
    cfg: VleTaskConfig,
    writer: BitWriter,
    pending: Vec<u8>,
    eos_seen: bool,
}

#[derive(Default)]
struct SinkTask {
    bytes: Vec<u8>,
    done: bool,
}

#[derive(Default)]
struct AudioTask {
    cfg: AudioTaskConfig,
    /// DRAM mode: byte position. Port mode: unused.
    pos: u32,
    /// Port mode: locally accumulated coded bytes.
    pending: Vec<u8>,
    /// Port mode: terminator seen.
    source_done: bool,
    /// Output port id (1 in port mode, 0 in DRAM mode).
    out_port: PortId,
}

#[derive(Default)]
struct DemuxTask {
    cfg: DemuxTaskConfig,
    pos: u32,
    /// Corrupt packets dropped.
    errors_recovered: u64,
}

#[derive(Default)]
struct MonitorTask {
    /// FNV-1a checksum over every payload byte observed.
    checksum: u64,
    records: u64,
    done: bool,
    /// Damaged records tolerated instead of crashing.
    errors_recovered: u64,
}

#[derive(Default)]
struct PcmSinkTask {
    samples: Vec<i16>,
    done: bool,
    /// Damaged records tolerated instead of crashing.
    errors_recovered: u64,
}

enum SwTask {
    Display(DisplayTask),
    Source(SourceTask),
    Vle(VleTask),
    Sink(SinkTask),
    Audio(AudioTask),
    PcmSink(PcmSinkTask),
    Demux(DemuxTask),
    Monitor(MonitorTask),
}

// ---- checkpoint serialization ----------------------------------------------

eclipse_sim::snap_fields!(SourceTaskConfig {
    frames,
    gop,
    qscale
});
eclipse_sim::snap_fields!(VleTaskConfig { seq });
eclipse_sim::snap_enum!(AudioSource { Dram { addr, len } = 0, Port = 1 });
eclipse_sim::snap_fields!(AudioTaskConfig { source });
eclipse_sim::snap_fields!(DemuxTaskConfig {
    ts_addr,
    ts_len,
    pids
});

eclipse_sim::snap_fields!(DisplayTask {
    frames,
    cur,
    errors_recovered,
    conceal_missing,
    frames_concealed,
    expected_frames,
} then DisplayTask::check_picture);
eclipse_sim::snap_fields!(SourceTask {
    cfg,
    coded,
    pic_idx,
    mb_idx,
    sent_pic_header,
} then SourceTask::check_coded);
eclipse_sim::snap_fields!(VleTask {
    cfg,
    writer,
    pending,
    eos_seen
});
eclipse_sim::snap_fields!(SinkTask {
    bytes: blob(|_| crate::MAX_STREAM_BYTES),
    done
});
eclipse_sim::snap_fields!(AudioTask {
    cfg,
    pos,
    pending,
    source_done,
    out_port
});
eclipse_sim::snap_fields!(PcmSinkTask {
    samples,
    done,
    errors_recovered
});
eclipse_sim::snap_fields!(DemuxTask {
    cfg,
    pos,
    errors_recovered
});
eclipse_sim::snap_fields!(MonitorTask {
    checksum,
    records,
    done,
    errors_recovered
});
eclipse_sim::snap_enum!(SwTask {
    Display(task) = 0,
    Source(task) = 1,
    Vle(task) = 2,
    Sink(task) = 3,
    Audio(task) = 4,
    PcmSink(task) = 5,
    Demux(task) = 6,
    Monitor(task) = 7,
});

impl Default for SwTask {
    fn default() -> Self {
        SwTask::Monitor(MonitorTask::default())
    }
}

impl DisplayTask {
    /// Reject a picture in progress whose frame slot, frame size or
    /// macroblock cursor disagrees with its header.
    fn check_picture(&mut self) -> Result<(), SnapError> {
        let Some((pic, frame, mb_idx)) = &self.cur else {
            return Ok(());
        };
        if (pic.temporal_ref as usize) >= self.frames.len()
            || frame.mb_cols() != pic.mb_cols as usize
            || frame.mb_rows() != pic.mb_rows as usize
            || *mb_idx >= pic.mb_count()
        {
            return Err(SnapError::Corrupt("display picture"));
        }
        Ok(())
    }
}

impl SourceTask {
    /// Reject a coded order that names a frame the task does not hold.
    fn check_coded(&mut self) -> Result<(), SnapError> {
        let frames = self.cfg.frames.len();
        if self.coded.iter().any(|&(idx, _)| idx as usize >= frames) {
            return Err(SnapError::Corrupt("source coded order"));
        }
        Ok(())
    }
}

/// The DSP-CPU model.
pub struct DspCoproc {
    cost: DspCost,
    /// Ordered maps: checkpoint serialization iterates them, and two
    /// builds of the same system must produce identical bytes.
    source_cfgs: BTreeMap<String, SourceTaskConfig>,
    vle_cfgs: BTreeMap<String, VleTaskConfig>,
    audio_cfgs: BTreeMap<String, AudioTaskConfig>,
    demux_cfgs: BTreeMap<String, DemuxTaskConfig>,
    display_totals: BTreeMap<String, u16>,
    tasks: BTreeMap<TaskIdx, SwTask>,
    names: BTreeMap<String, TaskIdx>,
}

eclipse_sim::snap_fields!(DspCoproc {
    source_cfgs,
    vle_cfgs,
    audio_cfgs,
    demux_cfgs,
    names,
    tasks,
});

impl DspCoproc {
    /// A DSP with no workloads bound yet.
    pub fn new(cost: DspCost) -> Self {
        DspCoproc {
            cost,
            source_cfgs: BTreeMap::new(),
            vle_cfgs: BTreeMap::new(),
            audio_cfgs: BTreeMap::new(),
            demux_cfgs: BTreeMap::new(),
            display_totals: BTreeMap::new(),
            tasks: BTreeMap::new(),
            names: BTreeMap::new(),
        }
    }

    /// Announce the frame total of the stream feeding the display task
    /// named `name` (from the container / sequence header). Only used
    /// by freeze-frame concealment; a display without a bound total
    /// conceals up to the highest picture it saw announced.
    pub fn with_display_total(mut self, name: impl Into<String>, total: u16) -> Self {
        self.display_totals.insert(name.into(), total);
        self
    }

    /// Bind an `audio_dec` stream to the task named `name`.
    pub fn with_audio(mut self, name: impl Into<String>, cfg: AudioTaskConfig) -> Self {
        self.audio_cfgs.insert(name.into(), cfg);
        self
    }

    /// Bind an `audio_dec` stream in place — the non-consuming form of
    /// [`DspCoproc::with_audio`], for binding new work to a DSP already
    /// installed in a built system (run-time reconfiguration).
    pub fn bind_audio(&mut self, name: impl Into<String>, cfg: AudioTaskConfig) {
        self.audio_cfgs.insert(name.into(), cfg);
    }

    /// Bind a `demux` transport stream to the task named `name`.
    pub fn with_demux(mut self, name: impl Into<String>, cfg: DemuxTaskConfig) -> Self {
        self.demux_cfgs.insert(name.into(), cfg);
        self
    }

    /// Checksum and record count observed by the `monitor` task `name`.
    pub fn monitor_stats(&self, name: &str) -> Option<(u64, u64)> {
        let idx = self.names.get(name)?;
        match self.tasks.get(idx)? {
            SwTask::Monitor(m) => Some((m.checksum, m.records)),
            _ => None,
        }
    }

    /// PCM samples collected by the `pcm_sink` task `name` (after a run).
    pub fn pcm_samples(&self, name: &str) -> Option<&[i16]> {
        let idx = self.names.get(name)?;
        match self.tasks.get(idx)? {
            SwTask::PcmSink(s) => Some(&s.samples),
            _ => None,
        }
    }

    /// Bind a `video_source` workload to the task named `name`.
    pub fn with_source(mut self, name: impl Into<String>, cfg: SourceTaskConfig) -> Self {
        self.source_cfgs.insert(name.into(), cfg);
        self
    }

    /// Bind a `vle` configuration to the task named `name`.
    pub fn with_vle(mut self, name: impl Into<String>, cfg: VleTaskConfig) -> Self {
        self.vle_cfgs.insert(name.into(), cfg);
        self
    }

    /// Frames collected by the display task `name` (after a run).
    /// Returns `None` if a frame slot was never filled.
    pub fn display_frames(&self, name: &str) -> Option<Vec<Frame>> {
        let idx = self.names.get(name)?;
        match self.tasks.get(idx)? {
            SwTask::Display(d) => d.frames.iter().cloned().collect(),
            _ => None,
        }
    }

    /// Bytes collected by the sink task `name` (after a run).
    pub fn sink_bytes(&self, name: &str) -> Option<&[u8]> {
        let idx = self.names.get(name)?;
        match self.tasks.get(idx)? {
            SwTask::Sink(s) => Some(&s.bytes),
            _ => None,
        }
    }
}

impl Coprocessor for DspCoproc {
    fn name(&self) -> &str {
        "dsp-cpu"
    }

    fn supports(&self, function: &str) -> bool {
        matches!(
            function,
            "display"
                | "video_source"
                | "vle"
                | "bitsink"
                | "audio_dec"
                | "pcm_sink"
                | "demux"
                | "monitor"
        )
    }

    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        self.names.insert(decl.name.clone(), task);
        match decl.function.as_str() {
            "display" => {
                self.tasks.insert(
                    task,
                    SwTask::Display(DisplayTask {
                        frames: Vec::new(),
                        cur: None,
                        errors_recovered: 0,
                        conceal_missing: false,
                        frames_concealed: 0,
                        expected_frames: self.display_totals.get(&decl.name).copied().unwrap_or(0),
                    }),
                );
                (vec![1], vec![])
            }
            "video_source" => {
                let cfg = self
                    .source_cfgs
                    .get(&decl.name)
                    .unwrap_or_else(|| panic!("no source workload bound for task '{}'", decl.name))
                    .clone();
                let coded = cfg
                    .gop
                    .coded_order(cfg.frames.len() as u16)
                    .into_iter()
                    .map(|p| (p.display_idx, p.ptype))
                    .collect();
                self.tasks.insert(
                    task,
                    SwTask::Source(SourceTask {
                        cfg,
                        coded,
                        pic_idx: 0,
                        mb_idx: 0,
                        sent_pic_header: false,
                    }),
                );
                (vec![], vec![1 + records::PIX_REC_BYTES])
            }
            "vle" => {
                let cfg = *self
                    .vle_cfgs
                    .get(&decl.name)
                    .unwrap_or_else(|| panic!("no VLE config bound for task '{}'", decl.name));
                let mut writer = BitWriter::new();
                write_sequence_header(&mut writer, &cfg.seq);
                self.tasks.insert(
                    task,
                    SwTask::Vle(VleTask {
                        cfg,
                        writer,
                        pending: Vec::new(),
                        eos_seen: false,
                    }),
                );
                // No input hint: after EOS the VLE still runs to flush its
                // pending output with nothing left on the input stream.
                (vec![0], vec![BITS_CHUNK as u32 + 3])
            }
            "bitsink" => {
                self.tasks.insert(
                    task,
                    SwTask::Sink(SinkTask {
                        bytes: Vec::new(),
                        done: false,
                    }),
                );
                (vec![2], vec![])
            }
            "audio_dec" => {
                let cfg = *self
                    .audio_cfgs
                    .get(&decl.name)
                    .unwrap_or_else(|| panic!("no audio stream bound for task '{}'", decl.name));
                let port_input = matches!(cfg.source, AudioSource::Port);
                assert_eq!(
                    decl.inputs.len(),
                    port_input as usize,
                    "audio task '{}' port shape",
                    decl.name
                );
                self.tasks.insert(
                    task,
                    SwTask::Audio(AudioTask {
                        cfg,
                        pos: 0,
                        pending: Vec::new(),
                        source_done: false,
                        out_port: port_input as PortId,
                    }),
                );
                let in_hints = if port_input { vec![0] } else { vec![] };
                (
                    in_hints,
                    vec![1 + 2 * eclipse_media::audio::BLOCK_SAMPLES as u32],
                )
            }
            "monitor" => {
                self.tasks.insert(
                    task,
                    SwTask::Monitor(MonitorTask {
                        checksum: 0xCBF2_9CE4_8422_2325,
                        records: 0,
                        done: false,
                        errors_recovered: 0,
                    }),
                );
                (vec![1], vec![])
            }
            "demux" => {
                let cfg = self
                    .demux_cfgs
                    .get(&decl.name)
                    .unwrap_or_else(|| panic!("no transport stream bound for task '{}'", decl.name))
                    .clone();
                assert_eq!(
                    decl.outputs.len(),
                    cfg.pids.len(),
                    "demux '{}' needs one output per pid",
                    decl.name
                );
                self.tasks.insert(
                    task,
                    SwTask::Demux(DemuxTask {
                        cfg,
                        pos: 0,
                        errors_recovered: 0,
                    }),
                );
                (vec![], vec![0; decl.outputs.len()])
            }
            "pcm_sink" => {
                self.tasks.insert(
                    task,
                    SwTask::PcmSink(PcmSinkTask {
                        samples: Vec::new(),
                        done: false,
                        errors_recovered: 0,
                    }),
                );
                (vec![1], vec![])
            }
            other => panic!("DSP cannot perform '{other}'"),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn error_counters(&self) -> (u64, u64) {
        self.tasks
            .values()
            .map(|t| match t {
                SwTask::Display(t) => (t.errors_recovered, t.frames_concealed),
                SwTask::Monitor(t) => (t.errors_recovered, 0),
                SwTask::Demux(t) => (t.errors_recovered, 0),
                SwTask::PcmSink(t) => (t.errors_recovered, 0),
                _ => (0, 0),
            })
            .fold((0, 0), |(e, c), (te, tc)| (e + te, c + tc))
    }

    fn task_error_counters(&self, task: TaskIdx) -> (u64, u64) {
        match self.tasks.get(&task) {
            Some(SwTask::Display(t)) => (t.errors_recovered, t.frames_concealed),
            Some(SwTask::Monitor(t)) => (t.errors_recovered, 0),
            Some(SwTask::Demux(t)) => (t.errors_recovered, 0),
            Some(SwTask::PcmSink(t)) => (t.errors_recovered, 0),
            _ => (0, 0),
        }
    }

    fn progress_units(&self, task: TaskIdx) -> Option<u64> {
        match self.tasks.get(&task)? {
            SwTask::Display(t) => Some(t.frames.iter().flatten().count() as u64),
            SwTask::PcmSink(t) => Some(t.samples.len() as u64),
            SwTask::Sink(t) => Some(t.bytes.len() as u64),
            SwTask::Monitor(t) => Some(t.records),
            _ => None,
        }
    }

    fn set_conceal_only(&mut self, task: TaskIdx, on: bool) -> bool {
        match self.tasks.get_mut(&task) {
            Some(SwTask::Display(t)) => {
                t.conceal_missing = on;
                true
            }
            _ => false,
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }

    fn task_state_fits(&self, task: TaskIdx, row: &TaskRow, dram_bytes: u32) -> bool {
        let inside = |addr: u32, len: u32| addr as u64 + len as u64 <= dram_bytes as u64;
        match self.tasks.get(&task) {
            Some(SwTask::Audio(t)) => {
                let source_ok = match t.cfg.source {
                    AudioSource::Dram { addr, len } => inside(addr, len),
                    AudioSource::Port => true,
                };
                source_ok && (t.out_port as usize) < row.cfg.ports.len()
            }
            Some(SwTask::Demux(t)) => inside(t.cfg.ts_addr, t.cfg.ts_len),
            Some(_) => true,
            None => false,
        }
    }

    fn step(&mut self, task: TaskIdx, _info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        let cost = self.cost;
        match self.tasks.get_mut(&task).expect("unconfigured DSP task") {
            SwTask::Display(t) => step_display(t, &cost, ctx),
            SwTask::Source(t) => step_source(t, &cost, ctx),
            SwTask::Vle(t) => step_vle(t, &cost, ctx),
            SwTask::Sink(t) => step_sink(t, &cost, ctx),
            SwTask::Audio(t) => step_audio(t, &cost, ctx),
            SwTask::PcmSink(t) => step_pcm_sink(t, &cost, ctx),
            SwTask::Demux(t) => step_demux(t, &cost, ctx),
            SwTask::Monitor(t) => step_monitor(t, &cost, ctx),
        }
    }
}

/// A quality/QoS monitor tapping a reconstructed-macroblock stream (the
/// paper's §5.4 "run-time control for quality-of-service resource
/// management" consumer): checksums every record it observes. Because
/// the stream is *forked* (one producer, two consumers), the monitor
/// sees exactly the bytes the display sees.
fn step_monitor(t: &mut MonitorTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const IN: PortId = 0;
    if t.done {
        return StepResult::Finished;
    }
    let mut r = StepReader::new(IN);
    let tag = match r.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    let fnv = |mut h: u64, bytes: &[u8]| -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            r.commit(ctx);
            t.done = true;
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            r.commit(ctx);
            t.checksum = fnv(t.checksum, &body);
            t.records += 1;
            ctx.compute(cost.per_record);
            StepResult::Done
        }
        TAG_MB => {
            if !r.need(ctx, 1 + records::PIX_REC_BYTES) {
                return StepResult::Blocked;
            }
            let mut buf = vec![0u8; 1 + records::PIX_REC_BYTES as usize];
            r.read(ctx, &mut buf);
            r.commit(ctx);
            t.checksum = fnv(t.checksum, &buf);
            t.records += 1;
            ctx.compute(cost.per_record + buf.len() as u64 / 4);
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

/// One transport packet per processing step: read it from off-chip
/// memory, parse the header, and forward the payload (length-framed) to
/// the output port its pid routes to. Unknown pids are dropped, like a
/// real demux. At stream end, every output gets the zero-length
/// terminator.
fn step_demux(t: &mut DemuxTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    use eclipse_media::transport::{parse_packet, PACKET_BYTES};
    if t.pos + PACKET_BYTES as u32 > t.cfg.ts_len {
        // Terminators on all outputs (staged together: all or nothing).
        let mut writers: Vec<StepWriter> = (0..t.cfg.pids.len())
            .map(|p| StepWriter::new(p as PortId))
            .collect();
        for w in writers.iter_mut() {
            w.stage(&0u16.to_le_bytes());
        }
        for w in &writers {
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
        }
        for w in writers {
            w.commit(ctx);
        }
        return StepResult::Finished;
    }
    let mut packet = [0u8; PACKET_BYTES];
    ctx.dram_read(t.cfg.ts_addr + t.pos, &mut packet);
    // A corrupt packet (bad sync byte, bad header checksum) is dropped
    // whole, like a real demux: the packet framing is fixed-size, so the
    // stream re-synchronizes at the next packet boundary.
    let Ok((pid, payload)) = parse_packet(&packet) else {
        ctx.compute(cost.per_record);
        t.pos += PACKET_BYTES as u32;
        t.errors_recovered += 1;
        return StepResult::Done;
    };
    if let Some(port) = t.cfg.pids.iter().position(|&p| p == pid) {
        let mut w = StepWriter::new(port as PortId);
        w.stage(&(payload.len() as u16).to_le_bytes());
        w.stage(payload);
        if !w.reserve(ctx) {
            return StepResult::Blocked;
        }
        w.commit(ctx);
    }
    ctx.compute(cost.per_record + PACKET_BYTES as u64 * cost.per_byte / 4);
    t.pos += PACKET_BYTES as u32;
    StepResult::Done
}

/// One ADPCM block per processing step: obtain the coded block (from
/// off-chip memory or from the demux port), decode it in software, and
/// stream the PCM out.
fn step_audio(t: &mut AudioTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    use eclipse_media::audio::{decode_block, BLOCK_BYTES, BLOCK_SAMPLES};
    const IN: PortId = 0;
    let out = t.out_port;

    // Obtain one coded block.
    let mut coded = [0u8; BLOCK_BYTES];
    let got = match t.cfg.source {
        AudioSource::Dram { addr, len } => {
            if t.pos + BLOCK_BYTES as u32 <= len {
                ctx.dram_read(addr + t.pos, &mut coded);
                true
            } else {
                false
            }
        }
        AudioSource::Port => {
            // Pull framed chunks until a whole block is buffered (the
            // pending buffer is persistent state; consuming a chunk
            // commits it).
            while t.pending.len() < BLOCK_BYTES && !t.source_done {
                if !ctx.get_space(IN, 2) {
                    return StepResult::Blocked;
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
                    return StepResult::Blocked;
                }
                let mut payload = vec![0u8; len as usize];
                ctx.read(IN, 2, &mut payload);
                ctx.put_space(IN, 2 + len);
                ctx.compute(4 + len as u64 / 8);
                t.pending.extend_from_slice(&payload);
            }
            if t.pending.len() >= BLOCK_BYTES {
                coded.copy_from_slice(&t.pending[..BLOCK_BYTES]);
                true
            } else {
                false
            }
        }
    };
    if !got {
        let mut w = StepWriter::new(out);
        w.stage(&[TAG_EOS]);
        if !w.reserve(ctx) {
            return StepResult::Blocked;
        }
        w.commit(ctx);
        return StepResult::Finished;
    }

    let pcm = decode_block(&coded);
    let mut w = StepWriter::new(out);
    w.stage(&[TAG_MB]);
    for s in pcm {
        w.stage(&s.to_le_bytes());
    }
    if !w.reserve(ctx) {
        return StepResult::Blocked;
    }
    w.commit(ctx);
    // Software decode: ~4 cycles per sample on the DSP.
    ctx.compute(cost.per_record + BLOCK_SAMPLES as u64 * 4);
    match t.cfg.source {
        AudioSource::Dram { .. } => t.pos += BLOCK_BYTES as u32,
        AudioSource::Port => {
            t.pending.drain(..BLOCK_BYTES);
        }
    }
    StepResult::Done
}

fn step_pcm_sink(t: &mut PcmSinkTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    use eclipse_media::audio::BLOCK_SAMPLES;
    const IN: PortId = 0;
    if t.done {
        return StepResult::Finished;
    }
    let mut r = StepReader::new(IN);
    let tag = match r.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            r.commit(ctx);
            t.done = true;
            StepResult::Finished
        }
        TAG_MB => {
            let need = 1 + 2 * BLOCK_SAMPLES as u32;
            if !r.need(ctx, need) {
                return StepResult::Blocked;
            }
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            let mut payload = vec![0u8; 2 * BLOCK_SAMPLES];
            r.read(ctx, &mut payload);
            r.commit(ctx);
            for chunk in payload.chunks_exact(2) {
                t.samples.push(i16::from_le_bytes([chunk[0], chunk[1]]));
            }
            ctx.compute(cost.per_record + payload.len() as u64 * cost.per_byte);
            StepResult::Done
        }
        _ => {
            // Unknown tag: skip one byte and rescan.
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            r.commit(ctx);
            ctx.compute(1);
            t.errors_recovered += 1;
            StepResult::Done
        }
    }
}

/// Freeze-frame concealment (supervisor degrade rung): fill every
/// display slot that never received a complete picture with the
/// nearest decoded frame — forward-fill from the previous frame, then
/// backfill any leading gap from the first decoded one. Host-side
/// bookkeeping only; charges no simulated cycles.
fn conceal_missing_frames(t: &mut DisplayTask) {
    if t.frames.len() < t.expected_frames as usize {
        t.frames.resize(t.expected_frames as usize, None);
    }
    let mut filled = 0u64;
    let mut last: Option<Frame> = None;
    for slot in t.frames.iter_mut() {
        match slot {
            Some(f) => last = Some(f.clone()),
            None => {
                if let Some(f) = &last {
                    *slot = Some(f.clone());
                    filled += 1;
                }
            }
        }
    }
    if let Some(first) = t.frames.iter().flatten().next().cloned() {
        for slot in t.frames.iter_mut() {
            if slot.is_some() {
                break;
            }
            *slot = Some(first.clone());
            filled += 1;
        }
    }
    t.frames_concealed += filled;
}

fn step_display(t: &mut DisplayTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const IN: PortId = 0;
    let mut r = StepReader::new(IN);
    let tag = match r.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            r.commit(ctx);
            if t.conceal_missing {
                conceal_missing_frames(t);
            }
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            // Bound the geometry (a corrupt record could name a frame
            // too large to allocate); drop bad PIC records and let the
            // MB-without-PIC path below swallow their macroblocks.
            let pic = PicRec::from_body(&body[1..])
                .filter(|p| p.mb_count() > 0 && p.mb_cols <= 256 && p.mb_rows <= 256);
            r.commit(ctx);
            ctx.compute(cost.per_record);
            let Some(pic) = pic else {
                t.errors_recovered += 1;
                return StepResult::Done;
            };
            if t.cur.is_some() {
                // The previous picture never completed (records lost
                // upstream): drop the partial frame.
                t.errors_recovered += 1;
            }
            let frame = Frame::new(pic.mb_cols as usize * 16, pic.mb_rows as usize * 16);
            if t.frames.len() <= pic.temporal_ref as usize {
                t.frames.resize(pic.temporal_ref as usize + 1, None);
            }
            t.cur = Some((pic, frame, 0));
            StepResult::Done
        }
        TAG_MB => {
            if !r.need(ctx, 1 + records::PIX_REC_BYTES) {
                return StepResult::Blocked;
            }
            let mut tagb = [0u8; 1];
            r.read(ctx, &mut tagb);
            let mut pix = [0u8; records::PIX_REC_BYTES as usize];
            r.read(ctx, &mut pix);
            r.commit(ctx);
            ctx.compute(cost.per_record + records::PIX_REC_BYTES as u64 * cost.per_byte);
            let Some((pic, _, _)) = t.cur.as_ref() else {
                // MB with no live picture (its PIC record was damaged
                // and dropped): the bytes are consumed, nothing shown.
                t.errors_recovered += 1;
                return StepResult::Done;
            };
            let pic = *pic;
            let blocks = pix_from_bytes(&pix).unwrap_or([[0i16; 64]; 6]);
            let (_, frame, mb_idx) = t.cur.as_mut().unwrap();
            let (mbx, mby) = (*mb_idx % pic.mb_cols as u32, *mb_idx / pic.mb_cols as u32);
            frame.set_macroblock(mbx as usize, mby as usize, &blocks);
            *mb_idx += 1;
            if *mb_idx == pic.mb_count() {
                let (pic, frame, _) = t.cur.take().unwrap();
                t.frames[pic.temporal_ref as usize] = Some(frame);
            }
            StepResult::Done
        }
        _ => {
            // Unknown tag: skip one byte and rescan.
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            r.commit(ctx);
            ctx.compute(1);
            t.errors_recovered += 1;
            StepResult::Done
        }
    }
}

fn step_source(t: &mut SourceTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const OUT: PortId = 0;
    if t.pic_idx >= t.coded.len() {
        let mut w = StepWriter::new(OUT);
        w.stage(&[TAG_EOS]);
        if !w.reserve(ctx) {
            return StepResult::Blocked;
        }
        w.commit(ctx);
        return StepResult::Finished;
    }
    let (display_idx, ptype) = t.coded[t.pic_idx];
    let frame = &t.cfg.frames[display_idx as usize];
    if !t.sent_pic_header {
        let pic = PicRec {
            ptype,
            qscale: t.cfg.qscale,
            temporal_ref: display_idx,
            mb_cols: (frame.width / 16) as u16,
            mb_rows: (frame.height / 16) as u16,
        };
        let mut w = StepWriter::new(OUT);
        w.stage(&pic.to_bytes());
        if !w.reserve(ctx) {
            return StepResult::Blocked;
        }
        w.commit(ctx);
        ctx.compute(cost.per_record);
        t.sent_pic_header = true;
        t.mb_idx = 0;
        return StepResult::Done;
    }
    let mb_cols = frame.mb_cols() as u32;
    let (mbx, mby) = (t.mb_idx % mb_cols, t.mb_idx / mb_cols);
    let blocks = frame.get_macroblock(mbx as usize, mby as usize);
    let mut w = StepWriter::new(OUT);
    w.stage(&[TAG_MB]);
    w.stage(&pix_to_bytes(&blocks));
    if !w.reserve(ctx) {
        return StepResult::Blocked;
    }
    w.commit(ctx);
    ctx.compute(cost.per_record + records::PIX_REC_BYTES as u64 * cost.per_byte);
    t.mb_idx += 1;
    if t.mb_idx == frame.mb_count() as u32 {
        t.pic_idx += 1;
        t.sent_pic_header = false;
    }
    StepResult::Done
}

fn step_vle(t: &mut VleTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const IN: PortId = 0;
    const OUT: PortId = 1;

    // Flush pending output first.
    if t.pending.len() >= BITS_CHUNK || (t.eos_seen && !t.pending.is_empty()) {
        let n = t.pending.len().min(BITS_CHUNK);
        let mut w = StepWriter::new(OUT);
        w.stage(&(n as u16).to_le_bytes());
        w.stage(&t.pending[..n]);
        if !w.reserve(ctx) {
            return StepResult::Blocked;
        }
        w.commit(ctx);
        ctx.compute(cost.per_record + n as u64 * cost.per_byte);
        t.pending.drain(..n);
        return StepResult::Done;
    }
    if t.eos_seen {
        // Terminating zero-length chunk.
        let mut w = StepWriter::new(OUT);
        w.stage(&0u16.to_le_bytes());
        if !w.reserve(ctx) {
            return StepResult::Blocked;
        }
        w.commit(ctx);
        return StepResult::Finished;
    }

    // Consume one token record.
    let mut r = StepReader::new(IN);
    let tag = match r.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            r.commit(ctx);
            write_end(&mut t.writer);
            t.writer.byte_align();
            let bytes = t.writer.drain_complete_bytes();
            t.pending.extend_from_slice(&bytes);
            t.eos_seen = true;
            ctx.compute(cost.per_record);
            StepResult::Done
        }
        TAG_PIC => {
            let body = match r.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let pic = PicRec::from_body(&body[1..]).expect("bad PIC record");
            r.commit(ctx);
            write_picture_header(
                &mut t.writer,
                &PictureHeader {
                    ptype: pic.ptype,
                    temporal_ref: pic.temporal_ref,
                    qscale: pic.qscale,
                },
            );
            let bytes = t.writer.drain_complete_bytes();
            t.pending.extend_from_slice(&bytes);
            ctx.compute(cost.per_record * 2);
            let _ = t.cfg; // sequence header already emitted at configure
            StepResult::Done
        }
        TAG_MB => {
            let hdr = match r.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let (mode_code, cbp, fwd, bwd) = mbmv_from_body(&hdr[1..]).unwrap();
            let mode = decode_mode(mode_code, fwd, bwd).expect("bad mode code");
            let intra = mode_code == records::mode::INTRA;
            // Parse per-block symbol payloads.
            let mut payloads: Vec<(Option<i16>, Vec<RunLevel>)> = Vec::new();
            let mut nsym_total = 0u64;
            for blk in 0..6 {
                if cbp & (1 << (5 - blk)) == 0 {
                    continue;
                }
                let dc_diff = if intra {
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
                if !r.need(ctx, nsym * 3) {
                    return StepResult::Blocked;
                }
                let mut symbols = Vec::with_capacity(nsym as usize);
                for _ in 0..nsym {
                    let mut sb = [0u8; 3];
                    r.read(ctx, &mut sb);
                    symbols.push(RunLevel {
                        run: sb[0],
                        level: i16::from_le_bytes([sb[1], sb[2]]),
                    });
                }
                nsym_total += nsym as u64;
                payloads.push((dc_diff, symbols));
            }
            r.commit(ctx);
            // Serialize into the bit syntax.
            write_mb_header(&mut t.writer, &MbHeader { mode, cbp });
            for (dc_diff, symbols) in &payloads {
                if let Some(diff) = dc_diff {
                    put_sev(&mut t.writer, *diff as i32);
                }
                put_block(&mut t.writer, symbols);
            }
            let bytes = t.writer.drain_complete_bytes();
            t.pending.extend_from_slice(&bytes);
            ctx.compute(cost.per_record + nsym_total * 8);
            StepResult::Done
        }
        other => panic!("vle: unexpected tag {other:#x}"),
    }
}

fn step_sink(t: &mut SinkTask, cost: &DspCost, ctx: &mut StepCtx<'_>) -> StepResult {
    const IN: PortId = 0;
    if t.done {
        return StepResult::Finished;
    }
    let mut r = StepReader::new(IN);
    let len = match r.take::<2>(ctx) {
        None => return StepResult::Blocked,
        Some(b) => u16::from_le_bytes(b) as u32,
    };
    if len == 0 {
        r.commit(ctx);
        t.done = true;
        return StepResult::Finished;
    }
    if !r.need(ctx, len) {
        return StepResult::Blocked;
    }
    let mut buf = vec![0u8; len as usize];
    r.read(ctx, &mut buf);
    r.commit(ctx);
    ctx.compute(cost.per_record + len as u64 * cost.per_byte);
    t.bytes.extend_from_slice(&buf);
    StepResult::Done
}
