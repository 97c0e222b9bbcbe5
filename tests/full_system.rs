//! Cross-crate integration tests through the `eclipse` facade: the full
//! instance decoding and encoding, functional transparency of the
//! architecture, and determinism.

use eclipse::coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse::coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder};
use eclipse::core::EclipseConfig;
use eclipse::media::encoder::{Encoder, EncoderConfig};
use eclipse::media::source::{SourceConfig, SyntheticSource};
use eclipse::media::stream::GopConfig;
use eclipse::media::Decoder;
use eclipse_bench::run_finished;

fn make_stream(
    w: usize,
    h: usize,
    frames: u16,
    seed: u64,
) -> (Vec<u8>, Vec<eclipse::media::Frame>) {
    let src = SyntheticSource::new(SourceConfig {
        width: w,
        height: h,
        complexity: 0.4,
        motion: 2.0,
        seed,
    });
    let enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        qscale: 6,
        gop: GopConfig { n: 6, m: 3 },
        search_range: 15,
    });
    let frames = src.frames(frames);
    let (bytes, _) = enc.encode(&frames);
    (bytes, frames)
}

#[test]
fn facade_decode_is_functionally_transparent() {
    let (bitstream, _) = make_stream(64, 48, 7, 0xFACADE);
    let reference = Decoder::decode(&bitstream).unwrap();
    let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
    run_finished(&mut dec.system.sys, 2_000_000_000, "facade decode");
    let frames = dec.system.display_frames("dec0").unwrap();
    assert_eq!(frames, reference.frames);
}

#[test]
fn three_concurrent_decodes_are_all_exact() {
    let streams: Vec<_> = (0..3).map(|i| make_stream(48, 32, 5, 100 + i)).collect();
    let refs: Vec<_> = streams
        .iter()
        .map(|(b, _)| Decoder::decode(b).unwrap())
        .collect();
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    for (i, (bytes, _)) in streams.iter().enumerate() {
        b.add_decode(&format!("s{i}"), bytes.clone(), DecodeAppConfig::default());
    }
    let mut sys = b.build();
    run_finished(&mut sys.sys, 20_000_000_000, "three decodes");
    for (i, r) in refs.iter().enumerate() {
        let frames = sys.display_frames(&format!("s{i}")).unwrap();
        assert_eq!(frames, r.frames, "stream {i}");
    }
}

#[test]
fn eclipse_encode_round_trips_through_software_decoder() {
    let src = SyntheticSource::new(SourceConfig {
        width: 48,
        height: 32,
        complexity: 0.4,
        motion: 1.5,
        seed: 7,
    });
    let frames = src.frames(6);
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_encode(
        "e",
        frames.clone(),
        GopConfig { n: 6, m: 3 },
        6,
        8,
        EncodeAppConfig::default(),
    );
    let mut sys = b.build();
    run_finished(&mut sys.sys, 20_000_000_000, "encode");
    let bytes = sys.encoded_bytes("e").unwrap();
    let decoded = Decoder::decode(&bytes).unwrap();
    assert_eq!(decoded.frames.len(), frames.len());
    for (d, s) in decoded.frames.iter().zip(&frames) {
        assert!(d.psnr_y(s) > 24.0);
    }
}

#[test]
fn full_runs_are_bit_deterministic() {
    let (bitstream, _) = make_stream(48, 32, 4, 0xD1CE);
    let run = |bs: Vec<u8>| {
        let mut dec = build_decode_system(EclipseConfig::default(), bs);
        let s = dec.system.run(2_000_000_000);
        let frames = dec.system.display_frames("dec0").unwrap();
        (s.cycles, s.sync_messages, frames)
    };
    let (c1, m1, f1) = run(bitstream.clone());
    let (c2, m2, f2) = run(bitstream);
    assert_eq!((c1, m1), (c2, m2));
    assert_eq!(f1, f2);
}

#[test]
fn architecture_timing_varies_but_data_never_does() {
    // The Kahn property at system level: any template configuration
    // produces the same decoded bytes, only the timing differs.
    let (bitstream, _) = make_stream(48, 32, 4, 0xABCD);
    let reference = Decoder::decode(&bitstream).unwrap();
    let mut cycle_counts = Vec::new();
    for cfg in [
        EclipseConfig::default(),
        EclipseConfig::default().with_bus_width(4),
        EclipseConfig::default().with_cache(eclipse::shell::CacheConfig::with_lines(0, false)),
        {
            let mut c = EclipseConfig::default();
            c.shell.sync_latency = 40;
            c.default_budget = 500;
            c
        },
    ] {
        let mut dec = build_decode_system(cfg, bitstream.clone());
        let summary = run_finished(&mut dec.system.sys, 5_000_000_000, format!("{cfg:?}"));
        assert_eq!(dec.system.display_frames("dec0").unwrap(), reference.frames);
        cycle_counts.push(summary.cycles);
    }
    // Timing genuinely differed across configurations.
    cycle_counts.dedup();
    assert!(
        cycle_counts.len() > 1,
        "configurations should differ in timing: {cycle_counts:?}"
    );
}

#[test]
fn dsp_cpu_shell_can_be_slower_without_breaking_function() {
    // The media processor's software shell has higher handshake costs
    // (paper §3.1); function is unchanged.
    let (bitstream, _) = make_stream(48, 32, 3, 0x50F7);
    let reference = Decoder::decode(&bitstream).unwrap();
    let mut cfg = EclipseConfig::default();
    cfg.shell.getspace_cost = 20;
    cfg.shell.putspace_cost = 20;
    cfg.shell.gettask_cost = 30;
    let mut dec = build_decode_system(cfg, bitstream);
    run_finished(&mut dec.system.sys, 5_000_000_000, "slow DSP shell");
    assert_eq!(dec.system.display_frames("dec0").unwrap(), reference.frames);
}
