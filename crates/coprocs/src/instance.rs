//! Wiring complete MPEG systems (the paper's Figure 8 instance).
//!
//! [`MpegBuilder`] instantiates the five processors (VLD, RLSQ, DCT,
//! MC/ME, DSP-CPU), then stacks any mix of decode and encode applications
//! onto them — the paper's "various combinations are possible" (dual HD
//! decode, SD encode plus SD decodes, transcoding) — before building the
//! runnable [`MpegSystem`].

use std::collections::BTreeMap;

use eclipse_core::{
    AppHandles, EclipseConfig, EclipseSystem, MapError, Placement, ReconfigError, RunSummary,
    SystemBuilder,
};
use eclipse_media::frame::Frame;
use eclipse_media::stream::{read_sequence_header, GopConfig, SequenceHeader};
use eclipse_mem::DataFabricConfig;
use eclipse_shell::SyncFabricConfig;
use eclipse_sim::Cycle;

use crate::apps::{
    audio_graph, av_program_graph, decoder_graph, decoder_graph_with_tap, encoder_graph,
    AudioAppConfig, AvProgramConfig, DecodeAppConfig, EncodeAppConfig,
};
use crate::cost::{DctCost, DspCost, McCost, RlsqCost, VldCost};
use crate::dct::DctCoproc;
use crate::dsp::{
    AudioSource, AudioTaskConfig, DemuxTaskConfig, DspCoproc, SourceTaskConfig, VleTaskConfig,
};
use crate::mcme::{arena_bytes, McMeCoproc, McTaskConfig, DECODE_SLOTS, ENCODE_SLOTS};
use crate::rlsq::RlsqCoproc;
use crate::vld::{VldCoproc, VldTaskConfig};

/// Indices of the instance's processors (shell ids).
#[derive(Debug, Clone, Copy)]
pub struct MpegCoprocs {
    /// The VLD coprocessor / shell index.
    pub vld: usize,
    /// The RLSQ coprocessor / shell index.
    pub rlsq: usize,
    /// The DCT coprocessor / shell index.
    pub dct: usize,
    /// The MC/ME coprocessor / shell index.
    pub mcme: usize,
    /// The DSP-CPU / shell index.
    pub dsp: usize,
}

/// Cost-model bundle for the instance (ablation knob).
#[derive(Debug, Clone, Copy, Default)]
pub struct InstanceCosts {
    /// VLD cost model.
    pub vld: VldCost,
    /// RLSQ cost model.
    pub rlsq: RlsqCost,
    /// DCT cost model.
    pub dct: DctCost,
    /// MC/ME cost model.
    pub mc: McCost,
    /// DSP cost model.
    pub dsp: DspCost,
}

/// Builds an MPEG Eclipse instance with a configurable application mix.
pub struct MpegBuilder {
    cfg: EclipseConfig,
    costs: InstanceCosts,
    vld_cfgs: BTreeMap<String, VldTaskConfig>,
    mc_cfgs: BTreeMap<String, McTaskConfig>,
    dsp: DspCoproc,
    decode_apps: Vec<(String, DecodeAppConfig)>,
    tapped_decode_apps: Vec<(String, DecodeAppConfig)>,
    encode_apps: Vec<(String, EncodeAppConfig)>,
    audio_apps: Vec<(String, AudioAppConfig)>,
    av_apps: Vec<(String, AvProgramConfig)>,
    bitstream_loads: Vec<(u32, Vec<u8>)>,
    dram_next: u32,
    data_fabric: Option<DataFabricConfig>,
    sync_fabric: Option<SyncFabricConfig>,
    placement: Option<Box<dyn Placement>>,
}

impl MpegBuilder {
    /// Start building with the given template parameters and cost models.
    pub fn new(cfg: EclipseConfig, costs: InstanceCosts) -> Self {
        MpegBuilder {
            dsp: DspCoproc::new(costs.dsp),
            cfg,
            costs,
            vld_cfgs: BTreeMap::new(),
            mc_cfgs: BTreeMap::new(),
            decode_apps: Vec::new(),
            tapped_decode_apps: Vec::new(),
            encode_apps: Vec::new(),
            audio_apps: Vec::new(),
            av_apps: Vec::new(),
            bitstream_loads: Vec::new(),
            dram_next: 0,
            data_fabric: None,
            sync_fabric: None,
            placement: None,
        }
    }

    /// Select the shell↔SRAM transport fabric (default: the paper
    /// instance's shared read/write bus pair).
    pub fn with_data_fabric(&mut self, fabric: DataFabricConfig) -> &mut Self {
        self.data_fabric = Some(fabric);
        self
    }

    /// Select the `putspace` synchronization network (default: the flat
    /// direct network).
    pub fn with_sync_fabric(&mut self, fabric: SyncFabricConfig) -> &mut Self {
        self.sync_fabric = Some(fabric);
        self
    }

    /// Select the placement pass that assigns tasks to shells (default:
    /// the historical first-fit choice).
    pub fn with_placement(&mut self, placement: Box<dyn Placement>) -> &mut Self {
        self.placement = Some(placement);
        self
    }

    fn dram_alloc(&mut self, size: u32, align: u32) -> u32 {
        // Widen to u64: the `(next + align - 1)` round-up and the end
        // address can both overflow u32 near the top of the address
        // space, which would silently wrap and overlap earlier loads.
        let base = (self.dram_next as u64 + align as u64 - 1) & !(align as u64 - 1);
        let end = base + size as u64;
        assert!(
            end <= u32::MAX as u64,
            "off-chip reservation of {size} bytes overflows the 32-bit address space"
        );
        self.dram_next = end as u32;
        base as u32
    }

    /// Add a decode application: `bitstream` is an elementary stream
    /// produced by [`eclipse_media::Encoder`] (or the Eclipse encoder).
    /// Returns the parsed sequence header.
    pub fn add_decode(
        &mut self,
        prefix: &str,
        bitstream: Vec<u8>,
        bufs: DecodeAppConfig,
    ) -> SequenceHeader {
        self.try_add_decode(prefix, bitstream, bufs)
            .expect("invalid bitstream: no sequence header")
    }

    /// Fallible [`MpegBuilder::add_decode`] for untrusted bitstreams: a
    /// missing or nonsensical sequence header (which would size the
    /// frame arena) is a typed error instead of a panic. Damage *after*
    /// the header is the hardened pipeline's problem and is fine here.
    pub fn try_add_decode(
        &mut self,
        prefix: &str,
        bitstream: Vec<u8>,
        bufs: DecodeAppConfig,
    ) -> Result<SequenceHeader, eclipse_media::stream::StreamError> {
        let mut r = eclipse_media::bits::BitReader::new(&bitstream);
        let seq = read_sequence_header(&mut r)?;
        seq.validate()?;
        let bs_addr = self.dram_alloc(bitstream.len() as u32, 64);
        let arena = self.dram_alloc(
            arena_bytes(seq.width as u32, seq.height as u32, DECODE_SLOTS),
            64,
        );
        self.vld_cfgs.insert(
            format!("{prefix}.vld"),
            VldTaskConfig::dram(bs_addr, bitstream.len() as u32),
        );
        self.mc_cfgs.insert(
            format!("{prefix}.mc"),
            McTaskConfig {
                arena_base: arena,
                width: seq.width as u32,
                height: seq.height as u32,
                search_range: 0,
            },
        );
        let dsp = std::mem::replace(&mut self.dsp, DspCoproc::new(self.costs.dsp));
        self.dsp = dsp.with_display_total(format!("{prefix}.display"), seq.num_frames);
        self.bitstream_loads.push((bs_addr, bitstream));
        self.decode_apps.push((prefix.to_string(), bufs));
        Ok(seq)
    }

    /// Like [`MpegBuilder::add_decode`], with the reconstructed stream
    /// forked to a QoS monitor task on the DSP (the paper's multicast
    /// streams + §5.4 run-time measurement consumer).
    pub fn add_decode_with_tap(
        &mut self,
        prefix: &str,
        bitstream: Vec<u8>,
        bufs: DecodeAppConfig,
    ) -> SequenceHeader {
        let seq = self.add_decode(prefix, bitstream, bufs);
        // Re-route: move the app from the plain list to the tapped list.
        let entry = self.decode_apps.pop().expect("just added");
        self.tapped_decode_apps.push(entry);
        seq
    }

    /// Add an encode application over `frames` (display order).
    pub fn add_encode(
        &mut self,
        prefix: &str,
        frames: Vec<Frame>,
        gop: GopConfig,
        qscale: u8,
        search_range: u8,
        bufs: EncodeAppConfig,
    ) {
        assert!(!frames.is_empty());
        let (w, h) = (frames[0].width as u32, frames[0].height as u32);
        let arena = self.dram_alloc(arena_bytes(w, h, ENCODE_SLOTS), 64);
        let mc_cfg = McTaskConfig {
            arena_base: arena,
            width: w,
            height: h,
            search_range,
        };
        self.mc_cfgs.insert(format!("{prefix}.me"), mc_cfg);
        self.mc_cfgs.insert(format!("{prefix}.recon"), mc_cfg);
        let seq = SequenceHeader {
            width: w as u16,
            height: h as u16,
            qscale,
            gop,
            num_frames: frames.len() as u16,
        };
        let dsp = std::mem::replace(&mut self.dsp, DspCoproc::new(self.costs.dsp));
        self.dsp = dsp
            .with_source(
                format!("{prefix}.src"),
                SourceTaskConfig {
                    frames,
                    gop,
                    qscale,
                },
            )
            .with_vle(format!("{prefix}.vle"), VleTaskConfig { seq });
        self.encode_apps.push((prefix.to_string(), bufs));
    }

    /// Add an audio-decode application (software on the DSP-CPU): `pcm`
    /// is compressed with [`eclipse_media::audio::encode`] and placed in
    /// off-chip memory for the `audio_dec` task.
    pub fn add_audio(&mut self, prefix: &str, pcm: &[i16], bufs: AudioAppConfig) {
        let coded = eclipse_media::audio::encode(pcm);
        let addr = self.dram_alloc(coded.len() as u32, 64);
        let dsp = std::mem::replace(&mut self.dsp, DspCoproc::new(self.costs.dsp));
        self.dsp = dsp.with_audio(
            format!("{prefix}.audio"),
            AudioTaskConfig {
                source: crate::dsp::AudioSource::Dram {
                    addr,
                    len: coded.len() as u32,
                },
            },
        );
        self.bitstream_loads.push((addr, coded));
        self.audio_apps.push((prefix.to_string(), bufs));
    }

    /// Packet id of the video substream in muxed A/V programs.
    pub const VIDEO_PID: u8 = 0x10;
    /// Packet id of the audio substream in muxed A/V programs.
    pub const AUDIO_PID: u8 = 0x20;

    /// Add a demuxed A/V program: the video elementary stream and the
    /// PCM audio are multiplexed into a transport stream in off-chip
    /// memory; the DSP's software demux feeds the VLD (through its input
    /// port) and the software audio decoder.
    pub fn add_av_program(
        &mut self,
        prefix: &str,
        video: Vec<u8>,
        pcm: &[i16],
        bufs: AvProgramConfig,
    ) -> SequenceHeader {
        let mut r = eclipse_media::bits::BitReader::new(&video);
        let seq = read_sequence_header(&mut r).expect("invalid bitstream: no sequence header");
        let coded_audio = eclipse_media::audio::encode(pcm);
        let ts = eclipse_media::transport::mux(&[
            (Self::VIDEO_PID, &video),
            (Self::AUDIO_PID, &coded_audio),
        ]);
        let ts_addr = self.dram_alloc(ts.len() as u32, 64);
        let arena = self.dram_alloc(
            arena_bytes(seq.width as u32, seq.height as u32, DECODE_SLOTS),
            64,
        );
        self.vld_cfgs
            .insert(format!("{prefix}.vld"), VldTaskConfig::port());
        self.mc_cfgs.insert(
            format!("{prefix}.mc"),
            McTaskConfig {
                arena_base: arena,
                width: seq.width as u32,
                height: seq.height as u32,
                search_range: 0,
            },
        );
        let dsp = std::mem::replace(&mut self.dsp, DspCoproc::new(self.costs.dsp));
        self.dsp = dsp
            .with_display_total(format!("{prefix}.display"), seq.num_frames)
            .with_demux(
                format!("{prefix}.demux"),
                DemuxTaskConfig {
                    ts_addr,
                    ts_len: ts.len() as u32,
                    pids: vec![Self::VIDEO_PID, Self::AUDIO_PID],
                },
            )
            .with_audio(
                format!("{prefix}.audio"),
                AudioTaskConfig {
                    source: AudioSource::Port,
                },
            );
        self.bitstream_loads.push((ts_addr, ts));
        self.av_apps.push((prefix.to_string(), bufs));
        seq
    }

    /// Build the runnable system.
    pub fn build(self) -> MpegSystem {
        let mut b = SystemBuilder::new(self.cfg);
        if let Some(f) = self.data_fabric {
            b.with_data_fabric(f);
        }
        if let Some(f) = self.sync_fabric {
            b.with_sync_fabric(f);
        }
        if let Some(p) = self.placement {
            b.with_placement(p);
        }
        let coprocs = MpegCoprocs {
            vld: b.add_coprocessor(Box::new(VldCoproc::new(self.costs.vld, self.vld_cfgs))),
            rlsq: b.add_coprocessor(Box::new(RlsqCoproc::new(self.costs.rlsq))),
            dct: b.add_coprocessor(Box::new(DctCoproc::new(self.costs.dct))),
            mcme: b.add_coprocessor(Box::new(McMeCoproc::new(self.costs.mc, self.mc_cfgs))),
            dsp: b.add_coprocessor(Box::new(self.dsp)),
        };
        // Mirror the builder's private DRAM bump allocator.
        let mut max_addr = 0;
        for (addr, bytes) in &self.bitstream_loads {
            max_addr = max_addr.max(addr + bytes.len() as u32);
        }
        let _ = b.dram_alloc(self.dram_next.max(max_addr).max(64), 64);
        for (prefix, bufs) in &self.decode_apps {
            b.map_app(&decoder_graph(prefix, bufs))
                .expect("decode app maps");
        }
        for (prefix, bufs) in &self.tapped_decode_apps {
            b.map_app(&decoder_graph_with_tap(prefix, bufs))
                .expect("tapped decode app maps");
        }
        for (prefix, bufs) in &self.encode_apps {
            b.map_app(&encoder_graph(prefix, bufs))
                .expect("encode app maps");
        }
        for (prefix, bufs) in &self.audio_apps {
            b.map_app(&audio_graph(prefix, bufs))
                .expect("audio app maps");
        }
        for (prefix, bufs) in &self.av_apps {
            b.map_app(&av_program_graph(prefix, bufs))
                .expect("A/V program maps");
        }
        let mut sys = b.build();
        for (addr, bytes) in &self.bitstream_loads {
            sys.dram_mut().write(*addr, bytes);
        }
        MpegSystem { sys, coprocs }
    }
}

/// A runnable MPEG Eclipse instance.
pub struct MpegSystem {
    /// The underlying Eclipse system (shells, memories, traces).
    pub sys: EclipseSystem,
    /// Shell indices of the five processors.
    pub coprocs: MpegCoprocs,
}

impl MpegSystem {
    /// Run the simulation.
    pub fn run(&mut self, max_cycles: Cycle) -> RunSummary {
        self.sys.run(max_cycles)
    }

    /// Run under self-healing supervision (see
    /// `EclipseSystem::run_supervised`). With no interventions the
    /// timing is byte-identical to [`MpegSystem::run`].
    pub fn run_supervised(
        &mut self,
        max_cycles: Cycle,
        sup: &mut eclipse_core::Supervisor,
    ) -> RunSummary {
        self.sys.run_supervised(max_cycles, sup)
    }

    /// Decoded frames of the decode app `prefix` (display order).
    pub fn display_frames(&self, prefix: &str) -> Option<Vec<Frame>> {
        let dsp = self
            .sys
            .coproc(self.coprocs.dsp)
            .as_any()
            .downcast_ref::<DspCoproc>()?;
        dsp.display_frames(&format!("{prefix}.display"))
    }

    /// Bitstream produced by the encode app `prefix`.
    pub fn encoded_bytes(&self, prefix: &str) -> Option<Vec<u8>> {
        let dsp = self
            .sys
            .coproc(self.coprocs.dsp)
            .as_any()
            .downcast_ref::<DspCoproc>()?;
        dsp.sink_bytes(&format!("{prefix}.sink"))
            .map(|b| b.to_vec())
    }

    /// (checksum, records) observed by the monitor of a tapped decode.
    pub fn monitor_stats(&self, prefix: &str) -> Option<(u64, u64)> {
        let dsp = self
            .sys
            .coproc(self.coprocs.dsp)
            .as_any()
            .downcast_ref::<DspCoproc>()?;
        dsp.monitor_stats(&format!("{prefix}.monitor"))
    }

    /// Admit an audio-decode application into the *live* system
    /// (run-time reconfiguration): the PCM is compressed, placed in
    /// off-chip memory, bound to the DSP's software audio decoder, and
    /// the `audio_dec → pcm_sink` graph is mapped mid-run. Pair with
    /// [`EclipseSystem::drain_app`] / [`EclipseSystem::unmap_app`] on
    /// `sys` (the app name is `{prefix}-audio`) to tear it down again.
    pub fn add_audio_live(
        &mut self,
        prefix: &str,
        pcm: &[i16],
        bufs: AudioAppConfig,
    ) -> Result<AppHandles, ReconfigError> {
        let coded = eclipse_media::audio::encode(pcm);
        let addr = self
            .sys
            .try_dram_alloc(coded.len() as u32, 64)
            .map_err(|cause| {
                ReconfigError::Map(MapError::BufferAlloc {
                    stream: format!("{prefix}.audio-bitstream"),
                    cause,
                })
            })?;
        self.sys.dram_mut().write(addr, &coded);
        let dsp = self
            .sys
            .coproc_mut(self.coprocs.dsp)
            .as_any_mut()
            .downcast_mut::<DspCoproc>()
            .expect("DSP shell hosts a DspCoproc");
        dsp.bind_audio(
            format!("{prefix}.audio"),
            AudioTaskConfig {
                source: AudioSource::Dram {
                    addr,
                    len: coded.len() as u32,
                },
            },
        );
        self.sys.map_app_live(&audio_graph(prefix, &bufs))
    }

    /// PCM produced by the audio app `prefix`.
    pub fn pcm_samples(&self, prefix: &str) -> Option<Vec<i16>> {
        let dsp = self
            .sys
            .coproc(self.coprocs.dsp)
            .as_any()
            .downcast_ref::<DspCoproc>()?;
        dsp.pcm_samples(&format!("{prefix}.pcmout"))
            .map(|s| s.to_vec())
    }
}

/// Convenience: a single-decode system (used by most experiments).
pub struct DecodeSystem {
    /// The system.
    pub system: MpegSystem,
    /// The decode app's sequence header.
    pub seq: SequenceHeader,
}

/// Build a system decoding one bitstream with default buffers and costs.
pub fn build_decode_system(cfg: EclipseConfig, bitstream: Vec<u8>) -> DecodeSystem {
    try_build_decode_system(cfg, bitstream).expect("invalid bitstream: no sequence header")
}

/// Fallible [`build_decode_system`] for untrusted bitstreams.
pub fn try_build_decode_system(
    cfg: EclipseConfig,
    bitstream: Vec<u8>,
) -> Result<DecodeSystem, eclipse_media::stream::StreamError> {
    let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
    let seq = b.try_add_decode("dec0", bitstream, DecodeAppConfig::default())?;
    Ok(DecodeSystem {
        system: b.build(),
        seq,
    })
}
