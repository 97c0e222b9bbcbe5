//! **Experiment E10 — §2.3/§5.1 synchronization scalability**: "a
//! coprocessor architecture where a single CPU synchronizes all
//! coprocessors is not scalable as the interrupt rate will overload the
//! CPU with an increasing number of coprocessors. ... Thereto, all
//! Eclipse coprocessors execute autonomously."
//!
//! Scales the number of concurrently active pipelines (each pipeline is a
//! source→filter→sink chain on three dedicated coprocessors) and compares
//! Eclipse's distributed shell-to-shell synchronization against the
//! CPU-centric baseline where every `putspace` interrupts a central CPU
//! (`SyncFabricConfig::Cpu`, the sync network that serializes every
//! message through one CPU's interrupt service).
//! The (pipeline-count × sync-mode) grid runs in parallel across host
//! cores.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin sweep_scalability`

use eclipse_bench::points::{shared_bus, CPU_SYNC};
use eclipse_bench::synthetic::PipeBundle;
use eclipse_bench::{par_sweep, run_finished, save_result, table};
use eclipse_shell::SyncFabricConfig;

const PACKETS: u32 = PipeBundle::scalability(1).packets;

fn main() {
    println!(
        "Synchronization scalability: {PACKETS} packets through N independent\n\
         3-stage pipelines (3N coprocessors). Distributed shell sync vs a\n\
         central CPU servicing every putspace (200-cycle interrupt service).\n"
    );
    // One design point per (pipeline count, sync mode) pair so the whole
    // grid spreads over the host cores.
    let counts = [1usize, 2, 4, 8];
    let points: Vec<(usize, bool)> = counts
        .iter()
        .flat_map(|&p| [(p, false), (p, true)])
        .collect();
    let results = par_sweep(&points, |&(pipelines, cpu)| {
        let sync = if cpu {
            CPU_SYNC
        } else {
            SyncFabricConfig::Direct
        };
        let mut sys = PipeBundle::scalability(pipelines).system(shared_bus(), sync);
        let summary = run_finished(&mut sys, 1_000_000_000, format!("{pipelines} pipelines"));
        let cpu_load = summary.cpu_sync_busy as f64 / summary.cycles as f64;
        (summary.cycles, summary.sync_messages, cpu_load)
    });
    let mut rows = Vec::new();
    for (i, &pipelines) in counts.iter().enumerate() {
        let (d_cycles, msgs, _) = &results[2 * i];
        let (c_cycles, _, cpu_load) = &results[2 * i + 1];
        rows.push(vec![
            format!("{pipelines} ({} coprocs)", pipelines * 3),
            format!("{}", msgs),
            format!("{}", d_cycles),
            format!("{}", c_cycles),
            format!("{:.2}x", *c_cycles as f64 / *d_cycles as f64),
            format!("{:.0}%", cpu_load * 100.0),
        ]);
    }
    let t = table(
        &[
            "pipelines",
            "sync msgs",
            "distributed cycles",
            "CPU-centric cycles",
            "slowdown",
            "CPU load",
        ],
        &rows,
    );
    println!("{t}");
    println!(
        "\nExpected shape: distributed sync keeps wall-clock flat as pipelines\n\
         are added (they are independent); the CPU-centric baseline saturates\n\
         its CPU (load -> 100%) and wall-clock grows with the pipeline count —\n\
         the paper's scalability argument in one table."
    );
    save_result("sweep_scalability.txt", &t);
}
