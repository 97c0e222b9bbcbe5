//! Checkpoint fuzzing: no mutated checkpoint may abort the process.
//!
//! A mid-run checkpoint of a 64×48 decode is mutated per seed — bit
//! flips, byte overwrites, a truncation, an insertion, or a splice with
//! a checkpoint taken at another cycle — and restored into a fresh
//! build. Every case must either return a typed [`SnapError`] or
//! restore and then run a bounded number of cycles and hash its state
//! without panicking. Seeds are fixed, so a failure names its input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::EclipseConfig;
use eclipse_media::encoder::{Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_sim::rng::SplitMix64;
use eclipse_sim::snapshot::SnapError;

/// Magic, version and configuration digest: mutating them only tests
/// the three header checks, so mutations land past them.
const HEADER_BYTES: usize = 20;
/// Cycles a restored run may take before its state is hashed.
const RUN_CYCLES: u64 = 20_000;

fn bitstream() -> Vec<u8> {
    let frames = SyntheticSource::new(SourceConfig {
        width: 64,
        height: 48,
        complexity: 0.35,
        motion: 2.0,
        seed: 41,
    })
    .frames(6);
    Encoder::new(EncoderConfig {
        width: 64,
        height: 48,
        qscale: 6,
        gop: GopConfig { n: 6, m: 3 },
        search_range: 7,
    })
    .encode(&frames)
    .0
}

/// Mutate `base` past its header as `rng` picks; `other` is the splice
/// donor.
fn mutate(rng: &mut SplitMix64, base: &[u8], other: &[u8]) -> (Vec<u8>, &'static str) {
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut bytes = base.to_vec();
    let kind = pick(5);
    match kind {
        0 | 1 => {
            for _ in 0..=pick(3) {
                let i = HEADER_BYTES + pick(bytes.len() - HEADER_BYTES);
                if kind == 0 {
                    bytes[i] ^= 1 << pick(8);
                } else {
                    bytes[i] = pick(256) as u8;
                }
            }
        }
        2 => bytes.truncate(HEADER_BYTES + pick(base.len() - HEADER_BYTES)),
        3 => {
            let i = HEADER_BYTES + pick(base.len() - HEADER_BYTES);
            let mut fill = Vec::new();
            for _ in 0..=pick(8) {
                fill.push(pick(256) as u8);
            }
            bytes.splice(i..i, fill);
        }
        _ => {
            let i = HEADER_BYTES + pick(base.len() - HEADER_BYTES);
            let j = HEADER_BYTES + pick(other.len() - HEADER_BYTES);
            bytes.truncate(i);
            bytes.extend_from_slice(&other[j..]);
        }
    }
    let name = [
        "bit flip",
        "byte overwrite",
        "truncation",
        "insertion",
        "splice",
    ][kind];
    (bytes, name)
}

#[test]
fn mutated_checkpoints_never_panic() {
    let bs = bitstream();
    let build = || build_decode_system(EclipseConfig::default(), bs.clone());
    let total = build().system.run(50_000_000).cycles;
    let checkpoint_at = |cycle: u64| {
        let mut dec = build();
        assert!(
            dec.system.sys.run_until(cycle).is_none(),
            "decode ended early"
        );
        dec.system.sys.save()
    };
    let base = checkpoint_at(total / 2);
    let donor = checkpoint_at(total / 3);

    let (mut restored, mut rejected) = (0, 0);
    let mut panics = Vec::new();
    for seed in 0..1000u64 {
        let (bytes, kind) = mutate(&mut SplitMix64::new(seed), &base, &donor);
        let mut dec = build();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let sys = &mut dec.system.sys;
            let result: Result<(), SnapError> = sys.restore(&bytes);
            if result.is_ok() {
                sys.run_until(sys.now() + RUN_CYCLES);
                sys.state_hash();
            }
            result
        }));
        match outcome {
            Ok(Ok(())) => restored += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panics.push(format!("seed {seed} ({kind})")),
        }
    }
    println!(
        "{restored} restored, {rejected} rejected, {} panicked",
        panics.len()
    );
    assert!(panics.is_empty(), "panicked: {}", panics.join(", "));
}
