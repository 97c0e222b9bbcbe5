//! **Experiment E6 — §6 application mixes**: the paper's instance
//! "targets decoding of two high-definition MPEG-2 streams
//! simultaneously, or standard definition MPEG-2 encoding in parallel
//! with decoding a number of SD MPEG-2 streams. Various combinations are
//! possible, such as ... transcoding for time-shift functionality."
//!
//! We run the mixes at experiment scale (QCIF streams stand in for
//! SD/HD; absolute resolution does not change who shares which
//! coprocessor) and report completion, per-unit utilization, and the
//! achieved macroblock throughput against the real-time requirement.
//! Mixes run in parallel across host cores.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin tab_app_mixes`

use eclipse_bench::{par_sweep, run_finished, save_result, table, StreamSpec};
use eclipse_coprocs::apps::{AudioAppConfig, AvProgramConfig, DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::EclipseConfig;
use eclipse_media::audio;
use eclipse_media::stream::GopConfig;

struct MixResult {
    label: String,
    cycles: u64,
    mbs: u64,
    util: Vec<(String, f64)>,
}

fn run_mix(label: &str, decodes: u32, encodes: u32, av_programs: u32) -> MixResult {
    let spec = StreamSpec {
        frames: 9,
        gop: GopConfig { n: 9, m: 3 },
        ..StreamSpec::qcif()
    };
    // The SRAM is a template parameter: size it for the mix (the paper's
    // 32 kB covers dual decode or decode+encode; wider mixes extrapolate).
    let need = decodes * DecodeAppConfig::default().total()
        + encodes * EncodeAppConfig::default().total()
        + av_programs * (DecodeAppConfig::default().total() + 4096);
    let sram = (need + 4096).next_power_of_two().max(32 * 1024);
    let mut b = MpegBuilder::new(
        EclipseConfig::default().with_sram_size(sram),
        InstanceCosts::default(),
    );
    let mut mbs = 0u64;
    for i in 0..decodes {
        let (bs, _) = StreamSpec {
            seed: spec.seed + i as u64,
            ..spec
        }
        .encode();
        b.add_decode(&format!("dec{i}"), bs, DecodeAppConfig::default());
        mbs += spec.mbs_per_frame() as u64 * spec.frames as u64;
    }
    for i in 0..encodes {
        let frames = StreamSpec {
            seed: spec.seed + 100 + i as u64,
            ..spec
        }
        .source_frames();
        b.add_encode(
            &format!("enc{i}"),
            frames,
            spec.gop,
            spec.qscale,
            8,
            EncodeAppConfig::default(),
        );
        mbs += spec.mbs_per_frame() as u64 * spec.frames as u64;
    }
    for i in 0..av_programs {
        let (bs, _) = StreamSpec {
            seed: spec.seed + 200 + i as u64,
            ..spec
        }
        .encode();
        let pcm = audio::synth_pcm(audio::BLOCK_SAMPLES * 32, 900 + i as u64);
        b.add_av_program(&format!("av{i}"), bs, &pcm, AvProgramConfig::default());
        mbs += spec.mbs_per_frame() as u64 * spec.frames as u64;
        let _ = AudioAppConfig::default();
    }
    let mut sys = b.build();
    let summary = run_finished(&mut sys.sys, 50_000_000_000, label);
    let util = sys
        .sys
        .shell_names()
        .iter()
        .zip(&summary.utilization)
        .map(|(n, u)| (n.clone(), u.busy_fraction() + u.stall_fraction()))
        .collect();
    MixResult {
        label: label.to_string(),
        cycles: summary.cycles,
        mbs,
        util,
    }
}

fn main() {
    println!("Application mixes on the shared coprocessors (paper §6).\n");
    let points: [(&str, u32, u32, u32); 8] = [
        ("1x decode", 1, 0, 0),
        ("2x decode (dual-stream)", 2, 0, 0),
        ("3x decode", 3, 0, 0),
        ("1x encode", 0, 1, 0),
        ("encode + decode (time-shift)", 1, 1, 0),
        ("encode + 2x decode", 2, 1, 0),
        ("A/V program (demux+audio)", 0, 0, 1),
        ("A/V program + decode", 1, 0, 1),
    ];
    let mixes = par_sweep(&points, |&(label, d, e, av)| run_mix(label, d, e, av));

    let mut rows = Vec::new();
    for m in &mixes {
        let cyc_per_mb = m.cycles as f64 / m.mbs as f64;
        // Real-time check: SD (720x576@25) needs 40 500 MB/s; at 150 MHz
        // that allows 3 703 cycles/MB of *pipeline* time.
        let sd_margin = 3703.0 / cyc_per_mb;
        let util_s: Vec<String> = m
            .util
            .iter()
            .map(|(n, u)| format!("{n} {:.0}%", u * 100.0))
            .collect();
        rows.push(vec![
            m.label.clone(),
            format!("{}", m.cycles),
            format!("{:.0}", cyc_per_mb),
            format!("{:.1}x SD", sd_margin),
            util_s.join("  "),
        ]);
    }
    let t = table(
        &[
            "application mix",
            "cycles",
            "cycles/MB",
            "real-time margin",
            "unit occupancy (busy+stall)",
        ],
        &rows,
    );
    println!("{t}");
    println!(
        "\nReading: every mix completes on the same four coprocessors + DSP —\n\
         the multi-tasking flexibility the paper claims. Throughput degrades\n\
         gracefully as streams are added; 'real-time margin' is how many SD\n\
         streams of this mix's per-MB cost would fit at 150 MHz."
    );
    save_result("tab_app_mixes.txt", &t);
}
