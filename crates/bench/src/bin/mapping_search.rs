//! **Placement search**: score the placement passes against each data
//! fabric topology instead of hand-assigning tasks.
//!
//! The workload is a pool instance — several identical worker
//! coprocessors per pipeline stage, all advertising the *same* function
//! — running a bundle of independent source → work → sink pipelines.
//! With a pool, placement is a real decision: the historical first-fit
//! pass piles every task of a stage onto the first supporting worker,
//! while the topology-aware pass reads the fabric's
//! [`FabricTopology`](eclipse_mem::FabricTopology) descriptor and
//! balances load and (on the mesh) hop distance between communicating
//! tasks.
//!
//! Each (topology × placement) cell reports run cycles and transport
//! energy per packet from the Section-6 coefficient decomposition
//! (`eclipse_core::model`): bank access + wire transport (global-bus
//! pJ/B on flat fabrics, per-link-hop pJ/B on the mesh) + sync routing.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin mapping_search`

use eclipse_bench::points::{mesh, mesh_sync, multibank, private_port, shared_bus};
use eclipse_bench::synthetic::PipeCoproc;
use eclipse_bench::{par_sweep, run_finished, save_result, table, Counters};
use eclipse_core::model::{transport_energy_per_mb_pj, TransportCounts};
use eclipse_core::{
    EclipseConfig, FirstFitPlacement, Placement, SystemBuilder, TopologyAwarePlacement,
};
use eclipse_kpn::GraphBuilder;
use eclipse_mem::{BankedFabric, DataFabricConfig};
use eclipse_shell::SyncFabricConfig::{self, Direct};
use std::fmt::Write as _;

/// Pipelines in the bundle (each: source → work → sink).
const PIPES: usize = 4;
/// Worker pool sizes per stage: 2 sources, 4 workers, 2 sinks.
const SRC_POOL: usize = 2;
const WORK_POOL: usize = 4;
const SINK_POOL: usize = 2;
/// Packets each pipeline moves.
const PACKETS: u32 = 400;

struct Cell {
    topo_label: &'static str,
    data: DataFabricConfig,
    sync: SyncFabricConfig,
    placement_label: &'static str,
    first_fit: bool,
}

fn topologies() -> [(&'static str, DataFabricConfig, SyncFabricConfig); 5] {
    [
        ("shared-bus", shared_bus(), Direct),
        ("4-bank", multibank(4), Direct),
        ("private g=2", private_port(2), Direct),
        ("mesh 2x2", mesh(2, 2), Direct),
        ("mesh 4x2 + mesh-sync", mesh(4, 2), mesh_sync(4, 2)),
    ]
}

fn build_pool_system(
    data: DataFabricConfig,
    sync: SyncFabricConfig,
    placement: Box<dyn Placement>,
) -> eclipse_core::EclipseSystem {
    let mut b = SystemBuilder::new(EclipseConfig::default());
    b.with_data_fabric(data);
    b.with_sync_fabric(sync);
    b.with_placement(placement);
    // Worker pools: every worker of a stage advertises the same
    // function, so the placement pass decides which one each task uses.
    // Tasks time-share a worker, so each worker's per-task packet quota
    // is the full pipeline quota.
    for i in 0..SRC_POOL {
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("srcw{i}"),
            "stage-src",
            PACKETS,
            64,
            60,
            "source",
        )));
    }
    for i in 0..WORK_POOL {
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("workw{i}"),
            "stage-work",
            PACKETS,
            64,
            90,
            "filter",
        )));
    }
    for i in 0..SINK_POOL {
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("sinkw{i}"),
            "stage-sink",
            PACKETS,
            64,
            40,
            "sink",
        )));
    }
    for p in 0..PIPES {
        let mut g = GraphBuilder::new(format!("pipe{p}"));
        let a = g.stream(format!("a{p}"), 256);
        let bst = g.stream(format!("b{p}"), 256);
        g.task(format!("src{p}"), "stage-src", 0, &[], &[a]);
        g.task(format!("work{p}"), "stage-work", 0, &[a], &[bst]);
        g.task(format!("sink{p}"), "stage-sink", 0, &[bst], &[]);
        b.map_app(&g.build().unwrap()).unwrap();
    }
    b.build()
}

fn main() {
    let mut cells = Vec::new();
    for (topo_label, data, sync) in topologies() {
        for (placement_label, first_fit) in [("first-fit", true), ("topology-aware", false)] {
            cells.push(Cell {
                topo_label,
                data,
                sync,
                placement_label,
                first_fit,
            });
        }
    }

    let results = par_sweep(&cells, |c| {
        let placement: Box<dyn Placement> = if c.first_fit {
            Box::new(FirstFitPlacement)
        } else {
            Box::new(TopologyAwarePlacement::default())
        };
        let mut sys = build_pool_system(c.data, c.sync, placement);
        let label = format!("{} / {}", c.topo_label, c.placement_label);
        let summary = run_finished(&mut sys, 20_000_000_000, label);
        let sram_bytes = Counters::of(&sys).port_bytes;
        let fabric = sys.data_fabric();
        // Only a mesh charges wire energy per hop; the other banked
        // fabrics have no links, so their byte·hops are zero anyway.
        let byte_hops = (fabric as &dyn std::any::Any)
            .downcast_ref::<BankedFabric>()
            .map_or(0, BankedFabric::byte_hops);
        let counts = TransportCounts {
            sram_bytes,
            byte_hops,
            mesh: fabric.topology().mesh.is_some(),
            sync_messages: summary.sync_fabric.messages,
            sync_hops: summary.sync_fabric.hops,
        };
        // One packet = one macroblock-equivalent work unit; count the
        // packets the sinks actually consumed.
        let work_units = (PIPES as u64) * PACKETS as u64;
        let pj_per_mb = transport_energy_per_mb_pj(&counts, work_units);
        (summary.cycles, pj_per_mb)
    });

    let mut rows = Vec::new();
    for (c, (cycles, pj)) in cells.iter().zip(&results) {
        rows.push(vec![
            c.topo_label.to_string(),
            c.placement_label.to_string(),
            format!("{cycles}"),
            format!("{pj:.0}"),
        ]);
    }
    let t = table(&["topology", "placement", "cycles", "pJ/MB"], &rows);
    println!("{t}");

    // Per-topology verdict: does the fabric-aware pass beat first-fit
    // on cycles or energy?
    let mut out = String::new();
    writeln!(
        out,
        "Placement search ({PIPES} pipelines x {PACKETS} packets, pools {SRC_POOL}/{WORK_POOL}/{SINK_POOL})\n"
    )
    .unwrap();
    out.push_str(&t);
    writeln!(out, "\ntopology-aware vs first-fit:").unwrap();
    let mut wins = 0;
    for pair in cells.chunks(2).zip(results.chunks(2)) {
        let (cs, rs) = pair;
        let (ff_cycles, ff_pj) = rs[0];
        let (ta_cycles, ta_pj) = rs[1];
        let cyc_gain = 100.0 * (ff_cycles as f64 - ta_cycles as f64) / ff_cycles as f64;
        let pj_gain = 100.0 * (ff_pj - ta_pj) / ff_pj.max(f64::EPSILON);
        let verdict = if ta_cycles < ff_cycles || ta_pj < ff_pj {
            wins += 1;
            "WIN"
        } else if ta_cycles == ff_cycles && ta_pj == ff_pj {
            "tie"
        } else {
            "loss"
        };
        writeln!(
            out,
            "  {:<22} cycles {:+.2}%  energy {:+.2}%  {}",
            cs[0].topo_label, cyc_gain, pj_gain, verdict
        )
        .unwrap();
    }
    writeln!(
        out,
        "\ntopology-aware placement wins on {wins}/{} topologies",
        cells.len() / 2
    )
    .unwrap();
    println!(
        "{}",
        out.lines()
            .skip_while(|l| !l.starts_with("topology-aware vs"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        wins >= 1,
        "expected the fabric-aware placer to beat first-fit on at least one topology"
    );
    save_result("mapping_search.txt", &out);
}
