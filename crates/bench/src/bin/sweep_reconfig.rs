//! **Run-time reconfiguration sweep**: audio applications are admitted
//! into a *live* video-decode instance, run to completion, quiesced, and
//! reclaimed — over and over — measuring the transition latencies of
//! each lifecycle edge (paper Section 3: applications are configured at
//! run time while the subsystem keeps streaming):
//!
//! * **startup** — map to first PCM block delivered;
//! * **completion** — map to last PCM block delivered;
//! * **drain** — simulated cycles the quiesce waited for in-flight
//!   `putspace` messages before the unmap was safe.
//!
//! The co-resident video decode must come out bit-identical to a
//! churn-free solo run, and the SRAM footprint must return exactly to
//! the base application's after every unmap.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin sweep_reconfig [--quick]`

use eclipse_bench::{run_finished, save_result, table, Counters, StreamSpec};
use eclipse_coprocs::apps::{AudioAppConfig, DecodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder, MpegSystem};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::audio;

fn build_video(bitstream: Vec<u8>) -> MpegSystem {
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode("vid", bitstream, DecodeAppConfig::default());
    b.build()
}

/// Advance in slices until `done` reports true; returns `true` if the
/// whole system finished first.
fn pump(sys: &mut MpegSystem, slice: u64, mut done: impl FnMut(&MpegSystem) -> bool) -> bool {
    loop {
        if done(sys) {
            return false;
        }
        let stop = sys.sys.now() + slice;
        match sys.sys.run_until(stop) {
            Some(RunOutcome::AllFinished) => return true,
            Some(other) => panic!("reconfig sweep hit {other:?}"),
            None => {}
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = if quick {
        StreamSpec::tiny()
    } else {
        StreamSpec::qcif()
    };
    let (bitstream, _) = spec.encode();

    // Both arms of the sweep fork from one warm checkpoint taken 5k
    // cycles in, so they share a bit-identical prefix instead of each
    // re-simulating the warm-up from scratch.
    let mut proto = build_video(bitstream.clone());
    assert_eq!(proto.sys.run_until(5_000), None, "video must still be live");
    let warm = proto.sys.save();

    // Churn-free solo reference, forked from the warm checkpoint.
    let mut solo = build_video(bitstream.clone());
    solo.sys.restore(&warm).expect("fork solo arm");
    run_finished(&mut solo.sys, 20_000_000_000, "solo decode");
    let reference = solo.display_frames("vid").expect("solo decode output");
    let solo_cycles = solo.sys.now();

    // Churn run, forked from the same checkpoint: repeated map → run →
    // drain → unmap cycles while the video streams on.
    let churn_cycles = if quick { 2 } else { 4 };
    let blocks = if quick { 4 } else { 16 };
    let mut sys = build_video(bitstream);
    sys.sys.restore(&warm).expect("fork churn arm");
    let base_in_use = sys.sys.sram_allocator().in_use();

    let mut rows = Vec::new();
    for i in 0..churn_cycles {
        let name = format!("aud{i}");
        let app = format!("{name}-audio");
        let pcm = audio::synth_pcm(audio::BLOCK_SAMPLES * blocks, 0xB10C + i as u64);
        let expect = audio::decode(&audio::encode(&pcm)).len();

        let mapped_at = sys.sys.now();
        sys.add_audio_live(&name, &pcm, AudioAppConfig::default())
            .expect("audio app admitted");
        let sram_peak = sys.sys.sram_allocator().in_use();

        let mut first_block = None;
        let finished_all = pump(&mut sys, 2_000, |s| {
            let got = s.pcm_samples(&name).map_or(0, |p| p.len());
            if got > 0 && first_block.is_none() {
                first_block = Some(s.sys.now());
            }
            got >= expect
        });
        assert!(!finished_all, "video outlasts each audio app");
        let completed_at = sys.sys.now();

        let report = sys.sys.drain_app(&app, 10_000_000).expect("drain quiesces");
        sys.sys.unmap_app(&app).expect("unmap reclaims");
        assert_eq!(
            sys.sys.sram_allocator().in_use(),
            base_in_use,
            "SRAM footprint must return to base after unmap"
        );

        rows.push(vec![
            name,
            format!("{mapped_at}"),
            format!("{}", first_block.unwrap_or(completed_at) - mapped_at),
            format!("{}", completed_at - mapped_at),
            format!("{}", report.wait_cycles),
            format!("{}", sram_peak - base_in_use),
        ]);
    }

    run_finished(&mut sys.sys, 20_000_000_000, "churn decode");
    assert_eq!(
        sys.display_frames("vid").expect("churn decode output"),
        reference,
        "co-resident video decode must be bit-identical to solo"
    );
    let stale = Counters::of(&sys.sys).stale_syncs;

    let t = table(
        &[
            "app",
            "mapped at",
            "startup (cy)",
            "complete (cy)",
            "drain wait (cy)",
            "sram claim (B)",
        ],
        &rows,
    );
    let mut out = String::new();
    out.push_str(&format!(
        "Run-time reconfiguration sweep ({} churn cycles of {} audio blocks each)\n\n",
        churn_cycles, blocks
    ));
    out.push_str(&t);
    out.push_str(&format!(
        "\nvideo decode: solo {} cycles, under churn {} cycles ({:+.1}%)\n",
        solo_cycles,
        sys.sys.now(),
        (sys.sys.now() as f64 / solo_cycles as f64 - 1.0) * 100.0
    ));
    out.push_str(&format!(
        "video output bit-identical to solo: yes\nstale putspace messages rejected: {stale}\n\
         sram high watermark: {} bytes\n",
        sys.sys.sram_allocator().high_watermark()
    ));
    print!("{out}");
    save_result(
        if quick {
            "sweep_reconfig_quick.txt"
        } else {
            "sweep_reconfig.txt"
        },
        &out,
    );
}
