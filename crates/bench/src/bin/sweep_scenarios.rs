//! Scenario sweep for the self-healing supervisor (ISSUE 8): arrival
//! patterns × fault patterns, all supervised, reporting QoS outcomes.
//!
//! Each design point arms one fault class (or none) against a workload
//! mix — decode only, decode + live audio, or two decodes + audio —
//! runs it under the supervisor with per-app QoS contracts, and
//! reports:
//!
//! * `deadline_met` — fraction of health checks where the decode app
//!   was inside its frame budget,
//! * per-rung recovery counts (retry / rollback / degrade / evict /
//!   quarantine),
//! * `lat_p50` / `lat_p95` — recovery transition latency percentiles
//!   (detection → normal execution resumed), in cycles,
//! * frames actually delivered vs. the stream's announced total.
//!
//! Usage:
//!   cargo run -p eclipse-bench --release --bin sweep_scenarios            # full sweep
//!   cargo run -p eclipse-bench --release --bin sweep_scenarios -- --quick # CI smoke
//!
//! Both modes assert the supervision invariants: the no-fault
//! supervised run is byte-identical (cycles + state hash) to the
//! unsupervised baseline, and every calibrated single-fault `av`
//! scenario recovers (at least one ladder report, run completes).

use eclipse_bench::{outcome_cell, print_peak_rss, save_result, table, StreamSpec};
use eclipse_coprocs::apps::{AudioAppConfig, DecodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder, MpegSystem};
use eclipse_core::{
    EclipseConfig, QosContract, RecoveryAction, RunOutcome, Supervisor, SupervisorConfig,
};
use eclipse_sim::{corrupt_bytes, FaultPlan};

const WATCHDOG: u64 = 100_000;
const BUDGET: u64 = 50_000_000;

/// The calibrated 3-frame QCIF stream (see `coprocs/tests/supervisor.rs`
/// for the per-class calibration story).
fn test_stream() -> Vec<u8> {
    let spec = StreamSpec {
        frames: 3,
        gop: eclipse_media::stream::GopConfig { n: 3, m: 1 },
        complexity: 0.35,
        seed: 41,
        ..StreamSpec::qcif()
    };
    spec.encode().0
}

fn test_pcm() -> Vec<i16> {
    (0..4000)
        .map(|i| (((i as f32) * 0.13).sin() * 12_000.0) as i16)
        .collect()
}

/// Arrival patterns: which applications contend for the machine.
const ARRIVALS: [&str; 3] = ["solo", "av", "dual-av"];

fn build(arrival: &str, bs: &[u8]) -> MpegSystem {
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode("dec0", bs.to_vec(), DecodeAppConfig::default());
    match arrival {
        "solo" => {}
        "av" => b.add_audio("aud0", &test_pcm(), AudioAppConfig::default()),
        "dual-av" => {
            b.add_decode("dec1", bs.to_vec(), DecodeAppConfig::default());
            b.add_audio("aud0", &test_pcm(), AudioAppConfig::default());
        }
        other => panic!("unknown arrival pattern {other}"),
    }
    b.build()
}

fn decode_apps(arrival: &str) -> Vec<&'static str> {
    match arrival {
        "dual-av" => vec!["dec0-decode", "dec1-decode"],
        _ => vec!["dec0-decode"],
    }
}

struct FaultCase {
    name: &'static str,
    plan: Option<FaultPlan>,
    /// Bitstream damage rate (applied before the pipeline sees the
    /// bytes) — the one class outside `FaultPlan`.
    corrupt: f64,
    /// Rollback needs a dense, deep checkpoint ring; everything else
    /// uses the deadline/error-budget knobs.
    rollback_knobs: bool,
}

fn fault_cases() -> Vec<FaultCase> {
    vec![
        FaultCase {
            name: "none",
            plan: None,
            corrupt: 0.0,
            rollback_knobs: false,
        },
        FaultCase {
            name: "sync_delay",
            plan: Some(FaultPlan {
                sync_delay_rate: 0.01,
                sync_delay_max: 400_000,
                ..FaultPlan::with_seed(2)
            }),
            corrupt: 0.0,
            rollback_knobs: false,
        },
        FaultCase {
            name: "sync_drop",
            plan: Some(FaultPlan {
                sync_drop_rate: 1.0,
                sync_drop_skip: 800,
                sync_drop_limit: 2,
                ..FaultPlan::with_seed(1)
            }),
            corrupt: 0.0,
            rollback_knobs: true,
        },
        FaultCase {
            name: "bus_error",
            plan: Some(FaultPlan {
                bus_error_rate: 0.02,
                bus_retry_cycles: 20_000,
                ..FaultPlan::with_seed(3)
            }),
            corrupt: 0.0,
            rollback_knobs: false,
        },
        FaultCase {
            name: "sram_flip",
            plan: Some(FaultPlan {
                sram_flip_rate: 0.004,
                ..FaultPlan::with_seed(2)
            }),
            corrupt: 0.0,
            rollback_knobs: false,
        },
        FaultCase {
            name: "stall",
            plan: Some(FaultPlan {
                stall_rate: 0.01,
                stall_cycles: 50_000,
                ..FaultPlan::with_seed(5)
            }),
            corrupt: 0.0,
            rollback_knobs: false,
        },
        FaultCase {
            name: "bitstream",
            plan: None,
            corrupt: 0.05,
            rollback_knobs: false,
        },
    ]
}

fn supervisor_for(case: &FaultCase, arrival: &str) -> Supervisor {
    let cfg = if case.rollback_knobs {
        SupervisorConfig {
            check_interval: 10_000,
            checkpoint_interval: 10_000,
            checkpoint_ring: 24,
            retry_limit: 2,
            rollback_limit: 16,
            ..SupervisorConfig::default()
        }
    } else {
        SupervisorConfig {
            check_interval: 20_000,
            checkpoint_interval: 60_000,
            retry_limit: 4,
            rollback_limit: 6,
            deadline_miss_limit: 3,
            ..SupervisorConfig::default()
        }
    };
    let mut sup = Supervisor::new(cfg);
    for app in decode_apps(arrival) {
        let contract = if case.rollback_knobs {
            QosContract {
                priority: 200,
                ..QosContract::default()
            }
        } else {
            QosContract {
                frame_budget: 150_000,
                error_budget: if case.name == "bitstream" { 0 } else { 2 },
                priority: 200,
            }
        };
        sup.set_contract(app, contract);
    }
    sup
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let bs = test_stream();

    let arrivals: &[&str] = if quick { &["av"] } else { &ARRIVALS };
    let cases = fault_cases();
    let cases: Vec<&FaultCase> = if quick {
        cases
            .iter()
            .filter(|c| matches!(c.name, "none" | "sync_delay" | "bitstream"))
            .collect()
    } else {
        cases.iter().collect()
    };

    let mut rows = Vec::new();
    for arrival in arrivals {
        for case in &cases {
            let mut stream = bs.clone();
            if case.corrupt > 0.0 {
                corrupt_bytes(&mut stream[16..], case.corrupt, 6);
            }
            let mut sys = build(arrival, &stream);
            if let Some(plan) = &case.plan {
                sys.sys.inject_faults(plan.clone());
            }
            sys.sys.set_watchdog(WATCHDOG);
            let mut sup = supervisor_for(case, arrival);
            let s = sys.run_supervised(BUDGET, &mut sup);

            // Deadline health over all contracted decode apps.
            let (mut met, mut missed) = (0u64, 0u64);
            for (_, d) in sup.deadline_stats() {
                met += d.met;
                missed += d.missed;
            }
            let deadline_met = if met + missed > 0 {
                format!("{:.0}%", 100.0 * met as f64 / (met + missed) as f64)
            } else {
                "-".into()
            };

            let mut counts = [0u32; 5]; // retry, rollback, degrade, evict, quarantine
            for r in &s.recovery {
                let slot = match r.action {
                    RecoveryAction::Retry { .. } => 0,
                    RecoveryAction::Rollback { .. } => 1,
                    RecoveryAction::Degrade { .. } => 2,
                    RecoveryAction::Evict { .. } => 3,
                    RecoveryAction::Quarantine => 4,
                };
                counts[slot] += 1;
            }
            let mut lats: Vec<u64> = s.recovery.iter().map(|r| r.latency).collect();
            lats.sort_unstable();

            let frames = sys.display_frames("dec0").map(|f| f.len()).unwrap_or(0);

            // Sweep invariants: terminated (never a silent hang), and
            // the calibrated single-fault av scenarios fully recover.
            assert_ne!(
                s.outcome,
                RunOutcome::MaxCycles,
                "{arrival}/{} hit the cycle budget",
                case.name
            );
            if *arrival == "av" && case.name != "none" {
                assert!(
                    !s.recovery.is_empty(),
                    "{arrival}/{}: no recovery reported",
                    case.name
                );
                assert_eq!(
                    s.outcome,
                    RunOutcome::AllFinished,
                    "{arrival}/{}: should heal",
                    case.name
                );
                assert_eq!(frames, 3, "{arrival}/{}: should deliver", case.name);
            }
            if case.name == "none" {
                // Faults disarmed: supervision must be invisible —
                // byte-identical timing and state vs. the unsupervised
                // baseline, zero interventions.
                let mut base = build(arrival, &stream);
                base.sys.set_watchdog(WATCHDOG);
                let b = base.run(BUDGET);
                assert_eq!(
                    s.cycles, b.cycles,
                    "{arrival}: supervision perturbed timing"
                );
                assert_eq!(
                    sys.sys.state_hash(),
                    base.sys.state_hash(),
                    "{arrival}: supervision perturbed state"
                );
                assert!(s.recovery.is_empty());
            }

            rows.push(vec![
                arrival.to_string(),
                case.name.to_string(),
                outcome_cell(&s.outcome),
                s.cycles.to_string(),
                deadline_met,
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
                counts[3].to_string(),
                counts[4].to_string(),
                percentile(&lats, 0.50).to_string(),
                percentile(&lats, 0.95).to_string(),
                frames.to_string(),
            ]);
        }
    }

    let report = table(
        &[
            "arrival",
            "fault",
            "outcome",
            "cycles",
            "deadline_met",
            "retry",
            "rollback",
            "degrade",
            "evict",
            "quarantine",
            "lat_p50",
            "lat_p95",
            "frames_out",
        ],
        &rows,
    );
    print!("{report}");
    save_result(
        if quick {
            "sweep_scenarios_quick.txt"
        } else {
            "sweep_scenarios.txt"
        },
        &report,
    );
    // The supervisor's checkpoint ring sets this binary's memory peak;
    // host-dependent, so printed only: CI bounds it.
    print_peak_rss();
}
