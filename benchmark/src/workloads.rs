//! The four in-process workloads. Each op builds a fresh instance, runs
//! it to the end and is then checked outside its timed span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder, MpegSystem};
use eclipse_core::{EclipseConfig, EclipseSystem, RunOutcome, RunSummary, SystemBuilder};
use eclipse_kpn::GraphBuilder;
use eclipse_media::{Decoder, Frame};

use crate::inputs::{expected_checksum, mix, PipeStage, StageKind, QCIF, TIMESHIFT};
use crate::stats::Span;

/// Simulated-cycle ceiling of every run; no workload comes near it.
pub const MAX_CYCLES: u64 = 20_000_000_000;

/// Lowest Y-PSNR the simulated encoder's output may decode to.
pub const MIN_PSNR_DB: f64 = 24.0;

/// A built system, ready to run.
pub enum Instance {
    Media(MpegSystem),
    Pipes {
        sys: EclipseSystem,
        sinks: Vec<usize>,
    },
}

impl Instance {
    pub fn sys(&self) -> &EclipseSystem {
        match self {
            Instance::Media(m) => &m.sys,
            Instance::Pipes { sys, .. } => sys,
        }
    }

    pub fn sys_mut(&mut self) -> &mut EclipseSystem {
        match self {
            Instance::Media(m) => &mut m.sys,
            Instance::Pipes { sys, .. } => sys,
        }
    }

    fn display_frames(&self, prefix: &str) -> Result<Vec<Frame>, String> {
        match self {
            Instance::Media(m) => m.display_frames(prefix),
            Instance::Pipes { .. } => None,
        }
        .ok_or_else(|| format!("no display frames for {prefix}"))
    }
}

/// The mid-run checkpoint the fork workload restores.
pub struct Checkpoint {
    pub blob: Vec<u8>,
    pub hash: u64,
    /// Cycle the checkpoint was taken at.
    pub mid: u64,
}

pub trait Workload: Sized {
    /// Makes the inputs for `seed` and the reference outputs.
    fn setup(seed: u64) -> Result<Self, String>;
    /// A freshly built instance.
    fn build(&self) -> Instance;
    /// The instance an op runs (the fork workload restores into it).
    fn prepare(&self) -> Result<Instance, String> {
        Ok(self.build())
    }
    /// Checks the outputs of a finished op.
    fn check(&self, inst: &Instance) -> Result<(), String>;
    /// Whether the op runs media kernels at all.
    const MEDIA: bool = true;
    /// Runs the software codec on the op's media inputs: the work the
    /// simulated media kernels repeat.
    fn media_reference(&self) {}
    fn checkpoint(&self) -> Option<&Checkpoint> {
        None
    }
}

/// A workload set up and warmed by one checked op.
pub struct Ready<W> {
    pub w: W,
    /// Simulated cycles every op must end at.
    pub cycles: u64,
}

/// One op: prepare and run to the end, timed.
pub fn timed_op<W: Workload>(w: &W) -> (Span, Result<(Instance, RunSummary), String>) {
    let t = Span::start();
    let out = w.prepare().map(|mut inst| {
        let summary = inst.sys_mut().run(MAX_CYCLES);
        (inst, summary)
    });
    (t, out)
}

/// Checks a finished op: it completed, at the expected cycle, with the
/// right outputs.
pub fn check_op<W: Workload>(
    w: &W,
    cycles: Option<u64>,
    inst: &Instance,
    summary: &RunSummary,
) -> Result<(), String> {
    if summary.outcome != RunOutcome::AllFinished {
        return Err(format!("run ended {:?}", summary.outcome));
    }
    if let Some(c) = cycles.filter(|&c| c != summary.cycles) {
        return Err(format!("ran {} cycles, expected {c}", summary.cycles));
    }
    w.check(inst)
}

/// Sets up `W` for `seed` and warms it with one checked op.
pub fn set_up<W: Workload>(seed: u64) -> Result<Ready<W>, String> {
    let w = W::setup(seed)?;
    let (inst, summary) = timed_op(&w).1?;
    check_op(&w, None, &inst, &summary).map_err(|e| format!("warm-up op: {e}"))?;
    Ok(Ready {
        w,
        cycles: summary.cycles,
    })
}

/// Timed ops of one run, with the ops that failed their check.
#[derive(Default)]
pub struct Measured {
    /// CPU milliseconds of each op that passed its check.
    pub cpu_ms: Vec<f64>,
    /// Their wall-clock milliseconds.
    pub wall_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Runs ops until `budget` has passed and at least `min_ops` ran, or
/// exactly `fixed` ops when given.
pub fn measure<W: Workload>(
    r: &Ready<W>,
    budget: Duration,
    min_ops: u64,
    fixed: Option<u64>,
) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    while match fixed {
        Some(n) => m.attempted < n,
        None => m.attempted < min_ops || start.elapsed() < budget,
    } {
        let (t, out) = timed_op(&r.w);
        let (cpu_ms, wall_ms) = (t.cpu_ms(), t.wall_ms());
        m.attempted += 1;
        match out.and_then(|(inst, s)| check_op(&r.w, Some(r.cycles), &inst, &s)) {
            Ok(()) => {
                m.cpu_ms.push(cpu_ms);
                m.wall_ms.push(wall_ms);
            }
            Err(e) => {
                m.failed += 1;
                m.first_error.get_or_insert(e);
            }
        }
    }
    m
}

fn software_decode(bitstream: &[u8]) -> Result<Vec<Frame>, String> {
    Decoder::decode(bitstream)
        .map(|d| d.frames)
        .map_err(|e| format!("software decode failed: {e:?}"))
}

/// Frames must be bit-identical to the reference, frame by frame.
pub fn check_frames(got: &[Frame], want: &[Frame]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} frames, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => Err(format!("frame {i} differs from the software decoder's")),
        None => Ok(()),
    }
}

/// `qcif_decode`: the paper's Figure-10 QCIF decode.
pub struct QcifDecode {
    bitstream: Vec<u8>,
    reference: Vec<Frame>,
}

impl Workload for QcifDecode {
    fn setup(seed: u64) -> Result<Self, String> {
        let bitstream = QCIF.encode(&QCIF.source(seed));
        let reference = software_decode(&bitstream)?;
        Ok(QcifDecode {
            bitstream,
            reference,
        })
    }

    fn build(&self) -> Instance {
        Instance::Media(
            build_decode_system(EclipseConfig::default(), self.bitstream.clone()).system,
        )
    }

    fn check(&self, inst: &Instance) -> Result<(), String> {
        check_frames(&inst.display_frames("dec0")?, &self.reference)
    }

    fn media_reference(&self) {
        black_box(Decoder::decode(&self.bitstream).ok());
    }
}

const PIPELINES: usize = 4;
const PACKETS: u32 = 5000;
const STREAM_BYTES: u32 = 256;
const STAGES: [(&str, StageKind, u64); 3] = [
    ("src", StageKind::Source, 50),
    ("filt", StageKind::Filter, 80),
    ("sink", StageKind::Sink, 30),
];

/// `pipeline_sync`: independent source → filter → sink pipelines that
/// do no media work, so the run loop and the stream primitives do it all.
pub struct PipelineSync {
    keys: [u64; PIPELINES],
    /// Compute cycles per packet of each stage: the base cost ±10.
    compute: [[u64; 3]; PIPELINES],
    expected: [u64; PIPELINES],
}

impl Workload for PipelineSync {
    const MEDIA: bool = false;

    fn setup(seed: u64) -> Result<Self, String> {
        let keys: [u64; PIPELINES] = std::array::from_fn(|p| mix(seed ^ ((p as u64) << 56)));
        Ok(PipelineSync {
            compute: std::array::from_fn(|p| {
                std::array::from_fn(|s| STAGES[s].2 + mix(keys[p] ^ s as u64) % 21 - 10)
            }),
            expected: keys.map(|k| expected_checksum(k, PACKETS)),
            keys,
        })
    }

    fn build(&self) -> Instance {
        let mut b = SystemBuilder::new(EclipseConfig::default());
        let mut sinks = Vec::new();
        for p in 0..PIPELINES {
            for (s, &(role, kind, _)) in STAGES.iter().enumerate() {
                let stage = PipeStage::new(
                    format!("{role}{p}"),
                    kind,
                    self.keys[p],
                    PACKETS,
                    self.compute[p][s],
                );
                let shell = b.add_coprocessor(Box::new(stage));
                if kind == StageKind::Sink {
                    sinks.push(shell);
                }
            }
            let mut g = GraphBuilder::new(format!("pipe{p}"));
            let a = g.stream(format!("p{p}.a"), STREAM_BYTES);
            let z = g.stream(format!("p{p}.b"), STREAM_BYTES);
            g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[a]);
            g.task(format!("filt{p}"), format!("filt{p}"), 0, &[a], &[z]);
            g.task(format!("sink{p}"), format!("sink{p}"), 0, &[z], &[]);
            b.map_app(&g.build().expect("pipeline graph is well formed"))
                .expect("pipeline maps onto its own stages");
        }
        Instance::Pipes {
            sys: b.build(),
            sinks,
        }
    }

    fn check(&self, inst: &Instance) -> Result<(), String> {
        let Instance::Pipes { sys, sinks } = inst else {
            return Err("not a pipeline instance".into());
        };
        check_checksums(
            &sinks
                .iter()
                .map(|&s| sys.coproc(s).as_any().downcast_ref::<PipeStage>())
                .map(|stage| stage.map_or(0, PipeStage::checksum))
                .collect::<Vec<_>>(),
            &self.expected,
        )
    }
}

/// Every sink must have folded exactly the predicted payload.
pub fn check_checksums(got: &[u64], want: &[u64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} sinks, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(p) => Err(format!(
            "pipeline {p}: sink checksum differs from the payload sent"
        )),
        None => Ok(()),
    }
}

/// `timeshift_mix`: a decode and an encode sharing one instance (paper
/// §6, transcoding for time-shift).
pub struct TimeshiftMix {
    bitstream: Vec<u8>,
    reference: Vec<Frame>,
    /// Frames the simulated encoder codes.
    source: Vec<Frame>,
}

impl Workload for TimeshiftMix {
    fn setup(seed: u64) -> Result<Self, String> {
        let bitstream = TIMESHIFT.encode(&TIMESHIFT.source(seed));
        Ok(TimeshiftMix {
            reference: software_decode(&bitstream)?,
            bitstream,
            source: TIMESHIFT.source(mix(seed)),
        })
    }

    fn build(&self) -> Instance {
        let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
        b.add_decode("dec0", self.bitstream.clone(), DecodeAppConfig::default());
        b.add_encode(
            "enc0",
            self.source.clone(),
            TIMESHIFT.gop,
            TIMESHIFT.qscale,
            TIMESHIFT.search_range,
            EncodeAppConfig::default(),
        );
        Instance::Media(b.build())
    }

    fn check(&self, inst: &Instance) -> Result<(), String> {
        check_frames(&inst.display_frames("dec0")?, &self.reference)?;
        let Instance::Media(m) = inst else {
            return Err("not a media instance".into());
        };
        let coded = m
            .encoded_bytes("enc0")
            .ok_or("the encoder produced no bitstream")?;
        check_encoding(&software_decode(&coded)?, &self.source)
    }

    fn media_reference(&self) {
        black_box(Decoder::decode(&self.bitstream).ok());
        black_box(TIMESHIFT.encode(&self.source));
    }
}

/// The encoder's output must decode to every source frame at a usable
/// quality.
pub fn check_encoding(decoded: &[Frame], source: &[Frame]) -> Result<(), String> {
    if decoded.len() != source.len() {
        return Err(format!(
            "decoded {} frames, expected {}",
            decoded.len(),
            source.len()
        ));
    }
    for (i, (d, s)) in decoded.iter().zip(source).enumerate() {
        let psnr = d.psnr_y(s);
        if psnr <= MIN_PSNR_DB {
            return Err(format!(
                "encoded frame {i}: Y-PSNR {psnr:.1} dB <= {MIN_PSNR_DB} dB"
            ));
        }
    }
    Ok(())
}

/// `checkpoint_fork`: restore a mid-decode checkpoint into a fresh build,
/// verify its state hash, and finish the decode.
pub struct CheckpointFork {
    decode: QcifDecode,
    checkpoint: Checkpoint,
}

impl Workload for CheckpointFork {
    fn setup(seed: u64) -> Result<Self, String> {
        let decode = QcifDecode::setup(seed)?;
        let total = decode.build().sys_mut().run(MAX_CYCLES).cycles;
        let mut inst = decode.build();
        let sys = inst.sys_mut();
        if let Some(outcome) = sys.run_until(total / 2) {
            return Err(format!("decode ended {outcome:?} before its midpoint"));
        }
        let checkpoint = Checkpoint {
            blob: sys.save(),
            hash: sys.state_hash(),
            mid: total / 2,
        };
        Ok(CheckpointFork { decode, checkpoint })
    }

    fn build(&self) -> Instance {
        self.decode.build()
    }

    fn prepare(&self) -> Result<Instance, String> {
        let mut inst = self.build();
        inst.sys_mut()
            .restore(&self.checkpoint.blob)
            .map_err(|e| format!("restore failed: {e:?}"))?;
        let hash = inst.sys().state_hash();
        if hash != self.checkpoint.hash {
            return Err(format!(
                "restored state hash {hash:#x} != saved {:#x}",
                self.checkpoint.hash
            ));
        }
        Ok(inst)
    }

    fn check(&self, inst: &Instance) -> Result<(), String> {
        self.decode.check(inst)
    }

    fn media_reference(&self) {
        self.decode.media_reference()
    }

    fn checkpoint(&self) -> Option<&Checkpoint> {
        Some(&self.checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::DEFAULT_SEED;
    use eclipse_sim::FaultPlan;

    fn finished<W: Workload>(r: &Ready<W>) -> Instance {
        let (inst, summary) = timed_op(&r.w).1.expect("op runs");
        check_op(&r.w, Some(r.cycles), &inst, &summary).expect("clean op passes its check");
        inst
    }

    #[test]
    fn default_seed_reproduces_the_committed_qcif_cycles() {
        let r = set_up::<QcifDecode>(DEFAULT_SEED).expect("set-up");
        assert_eq!(r.cycles, 1_141_083);
        let fingerprint = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results/timing_fingerprint.txt"
        ))
        .expect("committed fingerprint");
        let committed = fingerprint
            .lines()
            .skip_while(|l| *l != "== qcif_decode/default ==")
            .find_map(|l| l.strip_prefix("cycles: "))
            .expect("qcif cycles line");
        assert_eq!(committed, r.cycles.to_string());
    }

    #[test]
    fn one_corrupted_frame_byte_fails_the_decode_check() {
        let r = set_up::<QcifDecode>(DEFAULT_SEED).expect("set-up");
        let mut frames = finished(&r).display_frames("dec0").expect("frames");
        assert_eq!(check_frames(&frames, &r.w.reference), Ok(()));
        frames[7].u.data[100] ^= 0x20;
        assert!(check_frames(&frames, &r.w.reference).is_err());
    }

    #[test]
    fn one_flipped_payload_bit_fails_the_pipeline_check() {
        let r = set_up::<PipelineSync>(DEFAULT_SEED).expect("set-up");
        finished(&r);
        let mut inst = r.w.prepare().expect("build");
        inst.sys_mut().inject_faults(FaultPlan {
            sram_flip_rate: 2e-5,
            ..FaultPlan::with_seed(7)
        });
        let summary = inst.sys_mut().run(MAX_CYCLES);
        assert_eq!(summary.outcome, RunOutcome::AllFinished);
        assert!(inst.sys().fault_stats().sram_flips > 0);
        assert!(r.w.check(&inst).is_err());
    }

    #[test]
    fn a_corrupted_checkpoint_fails_the_fork() {
        let mut r = set_up::<CheckpointFork>(DEFAULT_SEED).expect("set-up");
        let last = r.w.checkpoint.blob.len() - 1;
        r.w.checkpoint.blob[last] ^= 1;
        assert!(r.w.prepare().is_err());
    }
}
