//! **Experiment E11 — §5.2 explicit cache coherency**: "using local
//! GetSpace and PutSpace events for explicit cache coherency control
//! results in a simple and efficient implementation in comparison with
//! existing generic coherency mechanisms such as bus snooping."
//!
//! Three measurements on the decode workload:
//!
//! 1. **accounting** — how many coherency actions the explicit mechanism
//!    actually performs (invalidations on GetSpace, flushes on PutSpace)
//!    vs what snooping would cost (every write-back broadcast to every
//!    other cache: `writebacks x (ports - 1)` snoop lookups);
//! 2. **separation of sync from transport** — synchronization messages
//!    per macroblock vs data bytes per macroblock (the §2.2 argument for
//!    separating the two);
//! 3. **fault injection** — disabling the invalidate/flush rules must
//!    corrupt the decoded output, proving the mechanism is load-bearing.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin tab_coherency`

use eclipse_bench::{run_finished, save_result, table, Counters, StreamSpec};
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::Decoder;

fn main() {
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    let reference = Decoder::decode(&bitstream).unwrap();
    let total_mbs = spec.mbs_per_frame() as u64 * spec.frames as u64;

    // ---- healthy run: coherency-action accounting ----------------------
    let mut dec = build_decode_system(EclipseConfig::default(), bitstream.clone());
    let summary = run_finished(&mut dec.system.sys, 20_000_000_000, "healthy decode");
    let frames = dec.system.display_frames("dec0").unwrap();
    let healthy_exact = frames.iter().zip(&reference.frames).all(|(a, b)| a == b);

    let Counters {
        invalidations,
        writebacks,
        caches,
        stream_bytes: data_bytes,
        ..
    } = Counters::of(&dec.system.sys);
    let snoop_lookups = writebacks * (caches - 1);

    let t1 = table(
        &["quantity", "per run", "per macroblock"],
        &[
            vec![
                "explicit invalidations (GetSpace)".into(),
                format!("{invalidations}"),
                format!("{:.1}", invalidations as f64 / total_mbs as f64),
            ],
            vec![
                "explicit flush write-backs (PutSpace)".into(),
                format!("{writebacks}"),
                format!("{:.1}", writebacks as f64 / total_mbs as f64),
            ],
            vec![
                "snooping baseline: snoop lookups".into(),
                format!("{snoop_lookups}"),
                format!("{:.1}", snoop_lookups as f64 / total_mbs as f64),
            ],
            vec![
                "sync messages (putspace)".into(),
                format!("{}", summary.sync_messages),
                format!("{:.1}", summary.sync_messages as f64 / total_mbs as f64),
            ],
            vec![
                "stream data moved (bytes)".into(),
                format!("{data_bytes}"),
                format!("{:.0}", data_bytes as f64 / total_mbs as f64),
            ],
        ],
    );
    println!(
        "Coherency & synchronization accounting (decode, {} MBs):\n\n{t1}",
        total_mbs
    );
    println!(
        "Separation of sync from transport: ~{:.1} sync messages move ~{:.0} data\n\
         bytes per macroblock — synchronization at packet grain, transport at\n\
         byte grain, exactly the paper's §2.2 design point. The explicit\n\
         mechanism performs its actions only at window edges; snooping would\n\
         look up every peer cache on every write-back.\n",
        summary.sync_messages as f64 / total_mbs as f64,
        data_bytes as f64 / total_mbs as f64
    );

    // ---- fault injection -------------------------------------------------
    let mut rows = vec![vec![
        "all rules on (baseline)".to_string(),
        "yes".to_string(),
        if healthy_exact {
            "bit-exact".to_string()
        } else {
            "CORRUPT".to_string()
        },
    ]];
    for (label, invalidate_off, flush_off) in [
        ("invalidate-on-GetSpace disabled", true, false),
        ("flush-on-PutSpace disabled", false, true),
    ] {
        // Corruption can desynchronize the downstream record parsers
        // entirely (a coprocessor model panics on an impossible tag) —
        // catch that and report it as what it is: corrupted streams.
        let bitstream = bitstream.clone();
        let reference = &reference;
        let outcome = std::panic::catch_unwind(move || {
            let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
            for i in 0..dec.system.sys.shells().len() {
                dec.system.sys.shell_mut(i).disable_invalidate = invalidate_off;
                dec.system.sys.shell_mut(i).disable_flush = flush_off;
            }
            let summary = dec.system.run(20_000_000_000);
            let completed = summary.outcome == RunOutcome::AllFinished;
            let verdict = if !completed {
                format!("{:?}", summary.outcome)
            } else {
                match dec.system.display_frames("dec0") {
                    Some(frames) => {
                        let exact = frames.iter().zip(&reference.frames).all(|(a, b)| a == b);
                        if exact {
                            "bit-exact (unexpected!)".to_string()
                        } else {
                            let psnr = frames
                                .iter()
                                .zip(&reference.frames)
                                .map(|(a, b)| a.psnr_y(b))
                                .fold(f64::INFINITY, f64::min);
                            format!("CORRUPT (worst frame {psnr:.1} dB)")
                        }
                    }
                    None => "incomplete output".to_string(),
                }
            };
            (completed, verdict)
        });
        let (completed, verdict) =
            outcome.unwrap_or((false, "CORRUPT (stream parser desynchronized)".to_string()));
        assert!(
            verdict.starts_with("CORRUPT") || verdict.contains("Deadlock") || !completed,
            "{label}: fault injection must visibly break decoding, got '{verdict}'"
        );
        rows.push(vec![
            label.to_string(),
            if completed { "yes".into() } else { "no".into() },
            verdict,
        ]);
    }
    let t2 = table(&["configuration", "run completes", "decoded output"], &rows);
    println!("Fault injection (the coherency rules are load-bearing):\n\n{t2}");
    assert!(healthy_exact, "baseline must be bit-exact");
    save_result("tab_coherency.txt", &format!("{t1}\n{t2}"));
}
