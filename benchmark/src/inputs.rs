//! Inputs the benchmark pins for itself: the stream constants and the
//! synthetic pipeline stage. Edits to the experiment harness
//! (`eclipse_bench::StreamSpec`, `eclipse_bench::synthetic`) therefore
//! cannot silently change a workload.

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::{Encoder, EncoderConfig, Frame, GopConfig};
use eclipse_shell::{PortId, TaskIdx};

/// The seed of the committed QCIF stream (`results/timing_fingerprint.txt`).
pub const DEFAULT_SEED: u64 = 0xEC11;

/// A synthetic video stream: scene, size and coding parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub width: usize,
    pub height: usize,
    pub frames: u16,
    pub gop: GopConfig,
    pub qscale: u8,
    pub complexity: f64,
    pub motion: f64,
    pub search_range: u8,
}

/// The paper's Figure-10 stream: QCIF, 15 frames, IPBB GOP.
pub const QCIF: StreamSpec = StreamSpec {
    width: 176,
    height: 144,
    frames: 15,
    gop: GopConfig { n: 12, m: 3 },
    qscale: 6,
    complexity: 0.5,
    motion: 2.0,
    search_range: 15,
};

/// Both halves of the time-shift mix (paper §6): 9 QCIF frames, one GOP
/// of n=9 m=3, motion search range 8.
pub const TIMESHIFT: StreamSpec = StreamSpec {
    frames: 9,
    gop: GopConfig { n: 9, m: 3 },
    search_range: 8,
    ..QCIF
};

impl StreamSpec {
    /// The scene's frames for `seed`.
    pub fn source(&self, seed: u64) -> Vec<Frame> {
        SyntheticSource::new(SourceConfig {
            width: self.width,
            height: self.height,
            complexity: self.complexity,
            motion: self.motion,
            seed,
        })
        .frames(self.frames)
    }

    /// `frames` coded by the software encoder.
    pub fn encode(&self, frames: &[Frame]) -> Vec<u8> {
        Encoder::new(EncoderConfig {
            width: self.width,
            height: self.height,
            qscale: self.qscale,
            gop: self.gop,
            search_range: self.search_range,
        })
        .encode(frames)
        .0
    }
}

/// SplitMix64 finalizer: derives independent values from one seed. Kept
/// here rather than taken from `eclipse_sim::rng`, so the inputs cannot
/// change with the simulator's own generators.
pub fn mix(x: u64) -> u64 {
    let x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bytes per pipeline packet.
pub const PACKET: u32 = 64;

/// The role of a [`PipeStage`] within its pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Generates packets from the pipeline key.
    Source,
    /// XORs every payload word with the key.
    Filter,
    /// Folds every payload into a checksum.
    Sink,
}

/// One stage of a synthetic pipeline: a coprocessor hosting exactly one
/// task that moves `packets` packets of [`PACKET`] bytes, charging
/// `compute` cycles per packet. The payload is a pure function of the
/// pipeline `key` and the packet index, so the sink's checksum can be
/// predicted on the host ([`expected_checksum`]). It keeps the default
/// no-op checkpoint hooks: no workload snapshots a pipeline.
pub struct PipeStage {
    name: String,
    kind: StageKind,
    key: u64,
    packets: u32,
    compute: u64,
    done: u32,
    checksum: u64,
}

impl PipeStage {
    pub fn new(name: String, kind: StageKind, key: u64, packets: u32, compute: u64) -> Self {
        PipeStage {
            name,
            kind,
            key,
            packets,
            compute,
            done: 0,
            checksum: 0,
        }
    }

    /// Checksum of every payload this sink consumed so far.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

fn source_packet(key: u64, index: u32) -> [u8; PACKET as usize] {
    let mut p = [0u8; PACKET as usize];
    for (w, chunk) in p.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(key ^ ((index as u64) << 8) ^ w as u64).to_le_bytes());
    }
    p
}

fn filter_packet(key: u64, p: &mut [u8; PACKET as usize]) {
    for chunk in p.chunks_exact_mut(8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ key;
        chunk.copy_from_slice(&w.to_le_bytes());
    }
}

fn fold_packet(sum: u64, p: &[u8; PACKET as usize]) -> u64 {
    p.chunks_exact(8).fold(sum, |s, chunk| {
        (s ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x0100_0000_01B3)
    })
}

/// The checksum a sink must report after a pipeline keyed `key` moved
/// `packets` packets through its filter.
pub fn expected_checksum(key: u64, packets: u32) -> u64 {
    (0..packets).fold(0, |sum, i| {
        let mut p = source_packet(key, i);
        filter_packet(key, &mut p);
        fold_packet(sum, &p)
    })
}

impl Coprocessor for PipeStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, function: &str) -> bool {
        function == self.name
    }

    fn configure_task(
        &mut self,
        _task: TaskIdx,
        _decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        match self.kind {
            StageKind::Source => (vec![], vec![PACKET]),
            StageKind::Filter => (vec![PACKET], vec![PACKET]),
            StageKind::Sink => (vec![PACKET], vec![]),
        }
    }

    fn uses_system_bus(&self) -> bool {
        false
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn step(&mut self, _task: TaskIdx, _info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        const IN: PortId = 0;
        let out: PortId = if self.kind == StageKind::Filter { 1 } else { 0 };
        if self.done >= self.packets {
            return StepResult::Finished;
        }
        let mut p = [0u8; PACKET as usize];
        if self.kind == StageKind::Source {
            p = source_packet(self.key, self.done);
        } else {
            if !ctx.get_space(IN, PACKET) {
                return StepResult::Blocked;
            }
            ctx.read(IN, 0, &mut p);
        }
        if self.kind == StageKind::Sink {
            self.checksum = fold_packet(self.checksum, &p);
        } else {
            if !ctx.get_space(out, PACKET) {
                return StepResult::Blocked;
            }
            if self.kind == StageKind::Filter {
                filter_packet(self.key, &mut p);
            }
            ctx.write(out, 0, &p);
        }
        ctx.compute(self.compute);
        if self.kind != StageKind::Source {
            ctx.put_space(IN, PACKET);
        }
        if self.kind != StageKind::Sink {
            ctx.put_space(out, PACKET);
        }
        self.done += 1;
        if self.done >= self.packets {
            StepResult::Finished
        } else {
            StepResult::Done
        }
    }
}
