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

use eclipse_bench::synthetic::PipeCoproc;
use eclipse_bench::{par_sweep, save_result, table};
use eclipse_core::{EclipseConfig, RunOutcome, SystemBuilder};
use eclipse_kpn::GraphBuilder;
use eclipse_shell::SyncFabricConfig;

const PACKETS: u32 = 400;
const PACKET_BYTES: u32 = 64;

fn run(pipelines: usize, sync: SyncFabricConfig) -> (u64, u64, f64) {
    // SRAM must hold 2 buffers per pipeline.
    let sram = (pipelines as u32 * 2 * 256 + 1024)
        .next_power_of_two()
        .max(32 * 1024);
    let mut b = SystemBuilder::new(EclipseConfig::default().with_sram_size(sram));
    b.with_sync_fabric(sync);
    let mut g = GraphBuilder::new("scale");
    for p in 0..pipelines {
        let a = g.stream(format!("a{p}"), 256);
        let bstream = g.stream(format!("b{p}"), 256);
        g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[a]);
        g.task(format!("mid{p}"), format!("mid{p}"), 0, &[a], &[bstream]);
        g.task(format!("dst{p}"), format!("dst{p}"), 0, &[bstream], &[]);
        b.add_coprocessor(Box::new(PipeCoproc::source(
            format!("src{p}"),
            PACKETS,
            PACKET_BYTES,
            60,
        )));
        b.add_coprocessor(Box::new(PipeCoproc::filter(
            format!("mid{p}"),
            PACKETS,
            PACKET_BYTES,
            90,
        )));
        b.add_coprocessor(Box::new(PipeCoproc::sink(
            format!("dst{p}"),
            PACKETS,
            PACKET_BYTES,
            40,
        )));
    }
    let graph = g.build().unwrap();
    b.map_app(&graph).unwrap();
    let mut sys = b.build();
    let summary = sys.run(1_000_000_000);
    assert_eq!(
        summary.outcome,
        RunOutcome::AllFinished,
        "{pipelines} pipelines: {:?}",
        summary.outcome
    );
    let cpu_load = summary.cpu_sync_busy as f64 / summary.cycles as f64;
    (summary.cycles, summary.sync_messages, cpu_load)
}

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
            SyncFabricConfig::Cpu {
                service_cycles: 200,
            }
        } else {
            SyncFabricConfig::Direct
        };
        run(pipelines, sync)
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
