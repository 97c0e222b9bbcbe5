//! Regression tests pinning the *paper's quantitative claims* at
//! test-friendly scale. These are the invariants the benches reproduce in
//! full — if one of these breaks, an experiment's shape broke.

use eclipse::core::model::{estimate_instance, WorkloadModel};
use eclipse::core::{EclipseConfig, RunOutcome, SystemBuilder};
use eclipse::kpn::GraphBuilder;
use eclipse::shell::SyncFabricConfig;
use eclipse_bench::points::{coupling_decode, CPU_SYNC};
use eclipse_bench::synthetic::PipeCoproc;
use eclipse_bench::{run_finished, StreamSpec};

/// §6: area < 7 mm², power < 240 mW, ~36 Gops for dual-HD decode.
#[test]
fn section6_silicon_envelope() {
    let est = estimate_instance(&EclipseConfig::default(), &WorkloadModel::dual_hd_decode());
    assert!(est.total_area_mm2 < 7.0);
    assert!(est.total_power_mw < 240.0);
    assert!((est.gops - 36.0).abs() < 4.0);
}

/// §2.2: worst/average per-macroblock load reaches the order of 10x on
/// content with mixed complexity.
#[test]
fn section2_load_irregularity_reaches_order_10x() {
    use eclipse::media::bits::BitReader;
    use eclipse::media::scan::RunLevel;
    use eclipse::media::stream::{
        peek_marker, read_mb_header, read_picture_header, read_sequence_header, MARKER_END,
    };
    use eclipse::media::vlc::{get_block, get_sev};

    let spec = StreamSpec {
        complexity: 0.08,
        motion: 0.5,
        frames: 10,
        ..StreamSpec::tiny()
    };
    let (bitstream, _) = spec.encode();
    let mut r = BitReader::new(&bitstream);
    let seq = read_sequence_header(&mut r).unwrap();
    let mbs = (seq.width as u32 / 16) * (seq.height as u32 / 16);
    let (mut max_bits, mut total_bits, mut count) = (0u64, 0u64, 0u64);
    while peek_marker(&mut r).unwrap() != MARKER_END {
        let _ = read_picture_header(&mut r).unwrap();
        for _ in 0..mbs {
            let start = r.bit_pos();
            let (mb, _) = read_mb_header(&mut r).unwrap();
            let intra = mb.mode == Some(eclipse::media::motion::PredictionMode::Intra);
            for blk in 0..6 {
                if mb.cbp & (1 << (5 - blk)) == 0 {
                    continue;
                }
                if intra {
                    let _ = get_sev(&mut r).unwrap();
                }
                let _ = get_block(&mut r, &mut [RunLevel::default(); 64]).unwrap();
            }
            let bits = (r.bit_pos() - start) as u64;
            max_bits = max_bits.max(bits);
            total_bits += bits;
            count += 1;
        }
        r.byte_align();
    }
    let ratio = max_bits as f64 / (total_bits as f64 / count as f64);
    assert!(
        ratio > 4.0,
        "worst/avg VLD load only {ratio:.1}x — data-dependence collapsed"
    );
}

/// §2.3/§5.1: CPU-centric synchronization does not scale; distributed
/// shells do.
#[test]
fn section5_distributed_sync_scales_cpu_centric_does_not() {
    let run = |pipelines: usize, sync: SyncFabricConfig| -> u64 {
        let mut b = SystemBuilder::new(EclipseConfig::default());
        b.with_sync_fabric(sync);
        let mut g = GraphBuilder::new("scale");
        for p in 0..pipelines {
            let s = g.stream(format!("s{p}"), 256);
            g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[s]);
            g.task(format!("dst{p}"), format!("dst{p}"), 0, &[s], &[]);
            b.add_coprocessor(Box::new(PipeCoproc::source(format!("src{p}"), 100, 64, 60)));
            b.add_coprocessor(Box::new(PipeCoproc::sink(format!("dst{p}"), 100, 64, 60)));
        }
        b.map_app(&g.build().unwrap()).unwrap();
        run_finished(
            &mut b.build(),
            100_000_000,
            format!("{pipelines} pipelines"),
        )
        .cycles
    };
    let d1 = run(1, SyncFabricConfig::Direct);
    let d6 = run(6, SyncFabricConfig::Direct);
    // Distributed: independent pipelines stay (nearly) constant-time.
    assert!(d6 < d1 * 2, "distributed sync must scale: {d1} -> {d6}");
    let c1 = run(1, CPU_SYNC);
    let c6 = run(6, CPU_SYNC);
    // Centralized: wall-clock grows roughly with the pipeline count.
    assert!(c6 > c1 * 3, "CPU-centric sync must saturate: {c1} -> {c6}");
}

/// §2.2/§3: loosening the coupling (bigger buffers) never slows decoding,
/// and tight coupling costs real cycles.
#[test]
fn section3_coupling_knee() {
    use eclipse::coprocs::apps::DecodeAppConfig;
    let spec = StreamSpec {
        frames: 4,
        ..StreamSpec::tiny()
    };
    let (bitstream, _) = spec.encode();
    let run = |factor: f64| -> u64 {
        let bufs = DecodeAppConfig::default().scaled(factor);
        let mut sys = coupling_decode(bitstream.clone(), bufs);
        run_finished(&mut sys.sys, 10_000_000_000, format!("factor {factor}")).cycles
    };
    let tight = run(0.01);
    let nominal = run(1.0);
    let loose = run(3.0);
    assert!(
        tight > nominal,
        "tight coupling must cost cycles: {tight} vs {nominal}"
    );
    assert!(
        loose <= nominal,
        "more buffering must not hurt: {loose} vs {nominal}"
    );
    let knee_gain = tight as f64 / nominal as f64;
    let tail_gain = nominal as f64 / loose as f64;
    assert!(
        knee_gain > tail_gain,
        "the knee must be below nominal buffering"
    );
}

/// §5.2: the explicit coherency mechanism is load-bearing — disabling
/// invalidation corrupts decoding.
#[test]
fn section52_coherency_fault_injection() {
    use eclipse::coprocs::instance::build_decode_system;
    use eclipse::media::Decoder;
    let spec = StreamSpec {
        frames: 3,
        ..StreamSpec::tiny()
    };
    let (bitstream, _) = spec.encode();
    let reference = Decoder::decode(&bitstream).unwrap();
    let outcome = std::panic::catch_unwind(|| {
        let mut dec = build_decode_system(EclipseConfig::default(), bitstream.clone());
        for i in 0..dec.system.sys.shells().len() {
            dec.system.sys.shell_mut(i).disable_invalidate = true;
        }
        let summary = dec.system.run(10_000_000_000);
        if summary.outcome != RunOutcome::AllFinished {
            return true; // corrupted framing stalled the pipeline
        }
        let frames = dec.system.display_frames("dec0");
        match frames {
            None => true,
            Some(frames) => frames != reference.frames,
        }
    });
    let corrupted = outcome.unwrap_or(true); // a panic is also corruption
    assert!(
        corrupted,
        "disabling invalidation must visibly corrupt decoding"
    );
}
