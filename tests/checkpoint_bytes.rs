//! Checkpoint bytes and state hashes, pinned by FNV-1a hash at mid-run
//! for every configuration that serializes a distinct part of the
//! system: the encode-side coprocessor tasks (ME, RLSQ encode, the DSP's
//! software source and VLE), each non-default fabric, an armed fault
//! injector, a live-mapped application, the trace-sink section and the
//! synthetic pipeline. Any change to the checkpoint codec that moves a
//! byte fails here by name.

use eclipse_bench::synthetic::open_gate_system;
use eclipse_coprocs::apps::{AudioAppConfig, DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder, MpegSystem};
use eclipse_core::{EclipseConfig, EclipseSystem};
use eclipse_media::encoder::{Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_media::{audio, Frame};
use eclipse_mem::{BusConfig, DataFabricConfig};
use eclipse_shell::SyncFabricConfig;
use eclipse_sim::snapshot::fnv1a_64;
use eclipse_sim::FaultPlan;

fn frames(seed: u64, n: u16) -> Vec<Frame> {
    SyntheticSource::new(SourceConfig {
        width: 48,
        height: 32,
        complexity: 0.35,
        motion: 2.0,
        seed,
    })
    .frames(n)
}

fn bitstream() -> Vec<u8> {
    Encoder::new(EncoderConfig {
        width: 48,
        height: 32,
        qscale: 6,
        gop: GopConfig { n: 3, m: 3 },
        search_range: 7,
    })
    .encode(&frames(31, 3))
    .0
}

fn port() -> BusConfig {
    let cfg = EclipseConfig::default();
    BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    }
}

/// A one-decode instance, shaped by `setup` before it is built.
fn decode(setup: impl FnOnce(&mut MpegBuilder)) -> MpegSystem {
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    setup(&mut b);
    b.add_decode("dec0", bitstream(), DecodeAppConfig::default());
    b.build()
}

/// Run to `at`, which must land mid-run, and return FNV-1a of the
/// checkpoint and the state hash there.
fn pin(label: &str, sys: &mut EclipseSystem, at: u64) -> (u64, u64) {
    assert!(sys.run_until(at).is_none(), "{label}: finished before {at}");
    (fnv1a_64(&sys.save()), sys.state_hash())
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let mut timeshift = decode(|b| {
        b.add_encode(
            "enc0",
            frames(32, 3),
            GopConfig { n: 3, m: 3 },
            6,
            4,
            EncodeAppConfig::default(),
        );
    });
    let mut private = decode(|b| {
        b.with_data_fabric(DataFabricConfig::PrivatePort {
            grant_cycles: 2,
            port: port(),
        });
    });
    let mut mesh = decode(|b| {
        b.with_data_fabric(DataFabricConfig::Mesh {
            cols: 2,
            rows: 2,
            interleave_bytes: 64,
            link_grant: 2,
            hop_cycles: 1,
            port: port(),
        })
        .with_sync_fabric(SyncFabricConfig::Mesh {
            cols: 2,
            rows: 2,
            hop_latency: 2,
            link_occupancy: 6,
            piggyback_window: 4,
        });
    });
    let mut faults = decode(|_| {});
    faults.sys.inject_faults(FaultPlan {
        seed: 7,
        sync_delay_rate: 0.05,
        stall_rate: 0.02,
        stall_cycles: 50,
        ..FaultPlan::default()
    });
    let mut audio = decode(|_| {});
    assert!(audio.sys.run_until(4_000).is_none());
    audio
        .add_audio_live(
            "aud",
            &audio::synth_pcm(audio::BLOCK_SAMPLES * 2, 0x5A5A),
            AudioAppConfig::default(),
        )
        .expect("live audio admission");
    let mut traced = decode(|_| {});
    traced.sys.enable_tracing(256);
    let mut pipeline = open_gate_system(64, 90);

    let got = [
        pin("timeshift", &mut timeshift.sys, 28_000),
        pin("private-port", &mut private.sys, 9_000),
        pin("mesh", &mut mesh.sys, 9_000),
        pin("faults", &mut faults.sys, 9_000),
        pin("live audio", &mut audio.sys, 9_000),
        pin("traced", &mut traced.sys, 9_000),
        pin("pipeline", &mut pipeline, 3_000),
    ];
    let want = [
        (0x4d1b_78f9_a862_7be5, 0xf986_73b9_75c3_0047),
        (0xd541_9d44_1fb7_9249, 0xc73b_5531_756e_ad14),
        (0x4bc1_ebdb_7a00_ffae, 0x580b_88bb_b83d_1460),
        (0x1cf4_c829_edf0_74c4, 0xe4e2_1f70_4c71_d8ec),
        (0xf26a_d8ca_ea70_ba99, 0xdbb6_207d_f826_4b43),
        (0x8910_fe7f_0f1c_7f7a, 0xf230_17e2_cdc3_e8a7),
        (0xae22_f221_cd38_e700, 0x4aff_b286_5662_2a3f),
    ];
    assert_eq!(got, want);
}
