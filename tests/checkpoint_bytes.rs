//! Checkpoint bytes and state hashes, pinned by FNV-1a hash at mid-run
//! for every configuration that serializes a distinct part of the
//! system: the encode-side coprocessor tasks (ME, RLSQ encode, the DSP's
//! software source and VLE), each non-default fabric, the CPU sync
//! baseline, an armed fault injector, a live-mapped application, the
//! trace-sink section and the synthetic pipeline. Any change to the
//! checkpoint codec that moves a byte fails here by name.

use eclipse_bench::points::{mesh, private_port, CPU_SYNC};
use eclipse_bench::synthetic::open_gate_system;
use eclipse_coprocs::apps::{AudioAppConfig, DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder, MpegSystem};
use eclipse_core::{EclipseConfig, EclipseSystem};
use eclipse_media::encoder::{Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_media::{audio, Frame};
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
        b.with_data_fabric(private_port(2));
    });
    let mut mesh = decode(|b| {
        b.with_data_fabric(mesh(2, 2))
            .with_sync_fabric(SyncFabricConfig::Mesh {
                cols: 2,
                rows: 2,
                hop_latency: 2,
                link_occupancy: 6,
                piggyback_window: 4,
            });
    });
    let mut cpu = decode(|b| {
        b.with_sync_fabric(CPU_SYNC);
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
        pin("cpu sync", &mut cpu.sys, 9_000),
        pin("faults", &mut faults.sys, 9_000),
        pin("live audio", &mut audio.sys, 9_000),
        pin("traced", &mut traced.sys, 9_000),
        pin("pipeline", &mut pipeline, 3_000),
    ];
    let want = [
        (0xa334_3d9c_e77d_79e0, 0x5f61_eac0_382a_76e4),
        (0x3302_6aa7_eada_6545, 0x43e2_7670_10e1_71ce),
        (0x21f4_4ac5_f7d6_537f, 0x9d60_8a65_f791_f286),
        (0x1890_b356_a5e0_08d8, 0xb954_7363_db88_c9dd),
        (0xcca0_8805_b286_c9d7, 0xc17f_1878_450f_0cb1),
        (0x165a_0773_4dcc_db3c, 0xdb5a_a73b_d686_9fa0),
        (0x7934_f9b7_622b_2627, 0x4742_02b6_1b3c_b4c6),
        (0x946d_16d7_724a_f509, 0x7985_40c8_ff1b_0bbf),
    ];
    assert_eq!(got, want);
}
