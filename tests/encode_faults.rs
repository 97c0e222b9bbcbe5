//! The encode graph under SRAM bit flips: every encode task reads its
//! input through the shared record reader, so damaged records are
//! skipped or concealed, never a panic. A seeded sweep over QCIF encode
//! and time-shift (decode plus encode) graphs must end every run
//! `AllFinished` or in a diagnosed `Deadlock`. The named seeds are runs
//! that once panicked in an encode task, kept as regressions.

use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::encoder::{Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_media::Frame;
use eclipse_shell::TaskIdx;
use eclipse_sim::FaultPlan;

const GOP: GopConfig = GopConfig { n: 3, m: 1 };
const QSCALE: u8 = 5;
const SEARCH_RANGE: u8 = 7;

fn qcif_frames() -> Vec<Frame> {
    SyntheticSource::new(SourceConfig {
        width: 176,
        height: 144,
        complexity: 0.3,
        motion: 1.5,
        seed: 7,
    })
    .frames(3)
}

/// A 3-frame QCIF encode, beside a decode of the same frames when
/// `timeshift`, run with `sram_flip_rate` under fault seed `seed`.
/// Returns the outcome and the errors the VLE task recovered from.
fn run(seed: u64, sram_flip_rate: f64, timeshift: bool) -> (RunOutcome, u64) {
    let frames = qcif_frames();
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    if timeshift {
        let bitstream = Encoder::new(EncoderConfig {
            width: 176,
            height: 144,
            qscale: QSCALE,
            gop: GOP,
            search_range: SEARCH_RANGE,
        })
        .encode(&frames)
        .0;
        b.add_decode("dec0", bitstream, DecodeAppConfig::default());
    }
    b.add_encode(
        "enc0",
        frames,
        GOP,
        QSCALE,
        SEARCH_RANGE,
        EncodeAppConfig::default(),
    );
    let mut sys = b.build();
    sys.sys.inject_faults(FaultPlan {
        sram_flip_rate,
        ..FaultPlan::with_seed(seed)
    });
    sys.sys.set_watchdog(5_000_000);
    let outcome = sys.run(2_000_000_000).outcome;
    let dsp = sys.coprocs.dsp;
    let vle = sys.sys.shells()[dsp]
        .tasks()
        .iter()
        .position(|t| t.cfg.name == "enc0.vle")
        .expect("the encode maps a VLE task");
    let (vle_errors, _) = sys.sys.coproc(dsp).task_error_counters(TaskIdx(vle as u8));
    (outcome, vle_errors)
}

/// Run and require a clean end or a diagnosed wedge; returns the VLE's
/// recovered errors.
fn check(seed: u64, sram_flip_rate: f64, timeshift: bool) -> u64 {
    let (outcome, vle_errors) = run(seed, sram_flip_rate, timeshift);
    match outcome {
        RunOutcome::AllFinished => {}
        RunOutcome::Deadlock(stuck) => assert!(
            !stuck.is_empty(),
            "seed {seed} rate {sram_flip_rate}: a deadlock must name its stuck tasks"
        ),
        RunOutcome::MaxCycles => {
            panic!("seed {seed} rate {sram_flip_rate}: ran to the cycle limit")
        }
    }
    vle_errors
}

#[test]
fn seed_0_qrl_unexpected_tag() {
    check(0, 0.001, false);
}

#[test]
fn seed_4_recon_unexpected_tag() {
    check(4, 0.001, false);
}

#[test]
fn seed_14_qrl_unexpected_tag() {
    check(14, 0.001, false);
}

#[test]
fn seed_16_vle_unexpected_tag() {
    check(16, 0.001, false);
}

#[test]
fn seed_18_qrl_unexpected_tag() {
    check(18, 0.001, false);
}

#[test]
fn seed_4_qrl_damaged_coefficient_block() {
    check(4, 0.003, false);
}

#[test]
fn seed_8_vle_bad_mode_code() {
    assert!(
        check(8, 0.003, false) >= 1,
        "the VLE must count the bad mode code it coded intra"
    );
}

#[test]
fn encode_fault_sweep() {
    for rate in [0.001, 0.003, 0.01] {
        for seed in 20..32 {
            check(seed, rate, false);
        }
    }
}

#[test]
fn timeshift_fault_sweep() {
    for rate in [0.001, 0.003] {
        for seed in 0..8 {
            check(seed, rate, true);
        }
    }
}

/// The long sweep, past the ranges above: the encode graph over seeds
/// 32..232 at three rates and the time-shift graph over seeds 8..108 at
/// two. About 5 s in a release build; CI's release step runs it with
/// `--include-ignored`.
#[test]
#[ignore = "long; run in release with --include-ignored"]
fn long_fault_sweep() {
    for rate in [0.001, 0.003, 0.01] {
        for seed in 32..232 {
            check(seed, rate, false);
        }
    }
    for rate in [0.001, 0.003] {
        for seed in 8..108 {
            check(seed, rate, true);
        }
    }
}
