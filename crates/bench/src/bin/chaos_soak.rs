//! Chaos soak: sweep every injected-fault class and rate across decode
//! workloads and report per-class recovery statistics.
//!
//! Each design point runs the full hardware decode pipeline under one
//! fault class (sync drop/delay, bus transfer errors, SRAM bit flips,
//! coprocessor stalls, or input-bitstream corruption) at a fixed rate,
//! all driven by one seed so every row reproduces exactly. The columns
//! show how the system degrades: did the run terminate (finish, or wedge
//! *diagnosed* by the watchdog — never a silent hang), how many faults
//! were actually injected, and how much damage the media layer absorbed
//! (error records skipped, macroblocks concealed, pictures still
//! delivered to the display).
//!
//! Usage:
//!
//! ```text
//! cargo run -p eclipse-bench --release --bin chaos_soak           # full sweep
//! cargo run -p eclipse-bench --release --bin chaos_soak -- --quick # CI smoke
//! cargo run -p eclipse-bench --release --bin chaos_soak -- --supervised # self-healing sweep
//! cargo run -p eclipse-bench --release --bin chaos_soak -- --replay <class> <rate>
//! ```
//!
//! `--supervised` runs the same sweep under the ISSUE 8 supervisor
//! (watchdog-driven recovery ladder, per-app QoS contracts) and adds
//! per-row recovery columns: how many ladder actions fired and the
//! highest rung reached.
//!
//! `--replay` re-runs one design point with rolling checkpoints and,
//! when the run wedges, forks from the last checkpoint before the
//! failure with event tracing enabled — reproducing the exact failure
//! (the fault injector's RNG cursors travel in the checkpoint) and
//! bisecting the wedge to the last cycle at which the architectural
//! state still changed. The traced tail is saved as
//! `results/replay_trace.csv` for inspection.

use eclipse_bench::{outcome_cell, print_peak_rss, save_result, stream_result, table, StreamSpec};
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::{EclipseConfig, QosContract, RunOutcome, Supervisor, SupervisorConfig};
use eclipse_media::stream::GopConfig;
use eclipse_sim::{corrupt_bytes, FaultPlan, FaultStats};

const SEED: u64 = 0xC4A0_50AC;
const WATCHDOG: u64 = 5_000_000;

/// The sync/bus/SRAM/stall classes, driven through [`FaultPlan`].
const PLAN_CLASSES: [&str; 5] = ["sync_drop", "sync_delay", "bus_error", "sram_flip", "stall"];

fn plan_for(class: &str, rate: f64, seed: u64) -> FaultPlan {
    let base = FaultPlan::with_seed(seed);
    match class {
        "sync_drop" => FaultPlan {
            sync_drop_rate: rate,
            ..base
        },
        "sync_delay" => FaultPlan {
            sync_delay_rate: rate,
            ..base
        },
        "bus_error" => FaultPlan {
            bus_error_rate: rate,
            ..base
        },
        "sram_flip" => FaultPlan {
            sram_flip_rate: rate,
            ..base
        },
        "stall" => FaultPlan {
            stall_rate: rate,
            ..base
        },
        other => panic!("unknown fault class {other}"),
    }
}

fn injected(class: &str, f: &FaultStats) -> u64 {
    match class {
        "sync_drop" => f.sync_dropped,
        "sync_delay" => f.sync_delayed,
        "bus_error" => f.bus_errors,
        "sram_flip" => f.sram_flips,
        "stall" => f.coproc_stalls,
        _ => f.total(),
    }
}

/// One design point: decode `bitstream` under `plan` (faults may be all
/// zero for the baseline), return the table row. With `supervised`,
/// the run goes through the recovery ladder and the row gains two
/// columns: ladder actions taken and the highest rung reached.
fn run_point(
    workload: &str,
    class: &str,
    rate: f64,
    bitstream: Vec<u8>,
    plan: Option<FaultPlan>,
    extra_injected: u64,
    supervised: bool,
) -> Vec<String> {
    let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
    if let Some(p) = plan {
        dec.system.sys.inject_faults(p);
    }
    dec.system.sys.set_watchdog(WATCHDOG);
    let (s, recovery_cells) = if supervised {
        let mut sup = Supervisor::new(SupervisorConfig {
            check_interval: 10_000,
            checkpoint_interval: 30_000,
            retry_limit: 2,
            rollback_limit: 4,
            ..SupervisorConfig::default()
        });
        sup.set_contract(
            "dec0-decode",
            QosContract {
                error_budget: 8,
                priority: 200,
                ..QosContract::default()
            },
        );
        let s = dec.system.run_supervised(20_000_000_000, &mut sup);
        let top = s
            .recovery
            .iter()
            .max_by_key(|r| r.action.rung())
            .map(|r| r.action.rung_name())
            .unwrap_or("-");
        let cells = vec![s.recovery.len().to_string(), top.to_string()];
        (s, cells)
    } else {
        (dec.system.run(20_000_000_000), Vec::new())
    };
    let frames = dec
        .system
        .display_frames("dec0")
        .map(|f| f.len())
        .unwrap_or(0);
    let mut row = vec![
        workload.into(),
        class.into(),
        format!("{rate:.4}"),
        outcome_cell(&s.outcome),
        s.cycles.to_string(),
        (injected(class, &s.faults) + extra_injected).to_string(),
        s.faults.credits_lost.to_string(),
        s.media_errors.to_string(),
        s.concealed_mbs.to_string(),
        frames.to_string(),
    ];
    row.extend(recovery_cells);
    row
}

/// Re-run one soak design point deterministically, checkpointing as it
/// goes, then bisect a failure by forking from the nearest checkpoint
/// with tracing on. See the module docs.
fn replay(class: &str, rate: f64) {
    let spec = StreamSpec {
        frames: 4,
        gop: GopConfig { n: 4, m: 2 },
        ..StreamSpec::tiny()
    };
    let (mut bitstream, _) = spec.encode();
    if class == "bitstream" {
        corrupt_bytes(&mut bitstream[16..], rate, SEED);
    }
    let arm = |bs: Vec<u8>| {
        let mut dec = build_decode_system(EclipseConfig::default(), bs);
        if PLAN_CLASSES.contains(&class) {
            dec.system.sys.inject_faults(plan_for(class, rate, SEED));
        }
        dec.system.sys.set_watchdog(WATCHDOG);
        dec
    };

    // First pass: run in slices, keeping the latest pre-failure checkpoint.
    const SLICE: u64 = 100_000;
    let mut dec = arm(bitstream.clone());
    let mut ckpt_cycle = 0;
    let mut ckpt = dec.system.sys.save();
    let outcome = loop {
        let stop = dec.system.sys.now() + SLICE;
        match dec.system.sys.run_until(stop) {
            None => {
                ckpt_cycle = dec.system.sys.now();
                ckpt = dec.system.sys.save();
            }
            Some(o) => break o,
        }
    };
    let fail_at = dec.system.sys.now();
    println!(
        "replay {class}@{rate}: {} at cycle {fail_at}",
        outcome_cell(&outcome)
    );
    if outcome == RunOutcome::AllFinished {
        println!("run finished clean — nothing to bisect");
        return;
    }

    // Second pass: fork from the checkpoint (fault plan, RNG cursors and
    // watchdog all travel inside it — a *fresh* build reproduces the
    // failure exactly), tracing on, fine-grained hash watch.
    let mut rep = build_decode_system(EclipseConfig::default(), bitstream);
    rep.system.sys.restore(&ckpt).expect("restore checkpoint");
    let sink = rep.system.sys.enable_tracing(1 << 16);
    let fine = (SLICE / 64).max(1);
    let mut last_active = ckpt_cycle;
    let mut prev = rep.system.sys.state_hash();
    let replayed = loop {
        let stop = rep.system.sys.now() + fine;
        match rep.system.sys.run_until(stop) {
            None => {
                let h = rep.system.sys.state_hash();
                if h != prev {
                    prev = h;
                    last_active = rep.system.sys.now();
                }
            }
            Some(o) => break o,
        }
    };
    assert_eq!(replayed, outcome, "fork did not reproduce the failure");
    assert_eq!(
        rep.system.sys.now(),
        fail_at,
        "fork reproduced the failure at a different cycle"
    );
    println!(
        "forked from checkpoint at {ckpt_cycle}; failure reproduced at {fail_at}; \
         last state change at cycle {last_active} (±{fine})"
    );
    stream_result("replay_trace.csv", |w| sink.borrow().write_csv(w));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let class = args.get(i + 1).map(String::as_str).unwrap_or("sync_drop");
        let rate = args.get(i + 2).and_then(|r| r.parse().ok()).unwrap_or(0.05);
        replay(class, rate);
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let supervised = std::env::args().any(|a| a == "--supervised");

    // Workloads: the sweep-scale tiny stream always; the QCIF workhorse
    // only in the full soak.
    let mut workloads: Vec<(&str, StreamSpec)> = vec![(
        "tiny",
        StreamSpec {
            frames: 4,
            gop: GopConfig { n: 4, m: 2 },
            ..StreamSpec::tiny()
        },
    )];
    if !quick {
        workloads.push(("qcif", StreamSpec::qcif()));
    }
    let rates: &[f64] = if quick { &[0.01] } else { &[0.001, 0.01, 0.05] };

    let mut rows = Vec::new();
    for (wname, spec) in &workloads {
        let (bitstream, _) = spec.encode();

        // Faults-off baseline: must finish with zero faults and errors.
        let base = run_point(wname, "none", 0.0, bitstream.clone(), None, 0, supervised);
        assert_eq!(base[3], "finished", "faults-off baseline must finish");
        assert_eq!(base[5], "0", "faults-off baseline must inject nothing");
        if supervised {
            assert_eq!(base[10], "0", "faults-off baseline must not recover");
        }
        rows.push(base);

        for class in PLAN_CLASSES {
            for &rate in rates {
                rows.push(run_point(
                    wname,
                    class,
                    rate,
                    bitstream.clone(),
                    Some(plan_for(class, rate, SEED)),
                    0,
                    supervised,
                ));
            }
        }

        // Input-stream corruption (outside FaultPlan: damages the bytes
        // before the pipeline ever sees them; spares the sequence header
        // that sizes the frame arena).
        for &rate in rates {
            let mut damaged = bitstream.clone();
            let flipped = corrupt_bytes(&mut damaged[16..], rate, SEED);
            rows.push(run_point(
                wname,
                "bitstream",
                rate,
                damaged,
                None,
                flipped,
                supervised,
            ));
        }
    }

    let mut headers = vec![
        "workload",
        "class",
        "rate",
        "outcome",
        "cycles",
        "injected",
        "credits_lost",
        "media_errors",
        "concealed",
        "frames_out",
    ];
    if supervised {
        headers.extend(["recoveries", "top_rung"]);
    }
    let report = table(&headers, &rows);
    print!("{report}");
    save_result(
        match (quick, supervised) {
            (true, false) => "chaos_soak_quick.txt",
            (false, false) => "chaos_soak.txt",
            (true, true) => "chaos_soak_supervised_quick.txt",
            (false, true) => "chaos_soak_supervised.txt",
        },
        &report,
    );

    // Soak invariant: every run terminated — a wedge is acceptable only
    // when diagnosed by the watchdog/deadlock detector.
    for row in &rows {
        assert_ne!(
            row[3], "max_cycles",
            "run {}/{}/{} neither finished nor produced a deadlock diagnosis",
            row[0], row[1], row[2]
        );
    }
    // With --supervised the checkpoint ring sets this binary's memory
    // peak; host-dependent, so printed only: CI bounds it.
    print_peak_rss();
}
