//! **Interconnect-fabric design-space sweep**: decode throughput and
//! stream denial rates across data fabrics (the paper instance's shared
//! read/write bus pair vs. the one `BankedFabric` under its three
//! constructors: address-interleaved multi-bank SRAM with contended
//! per-bank arbitration, the worst-case-provisioned private-port
//! crossbar, and the 2-D mesh NoC of bank nodes) and sync-network
//! backends (flat direct delivery vs. a unidirectional ring with per-hop
//! latency and link contention vs. the XY-routed mesh with credit
//! piggy-backing).
//!
//! The private-port rows also measure the price of timing independence:
//! every access pays the static grant bound up front, which is exactly
//! what keeps one shell's load from moving another shell's grant (see
//! DESIGN.md §16).
//!
//! The shared-bus + direct row is the committed baseline model; every
//! other row answers a scaling question the template leaves open: how
//! much arbitration headroom do SRAM banks buy, and what does a real
//! sync topology cost?
//!
//! Usage: `cargo run -p eclipse-bench --release --bin sweep_fabric`

use eclipse_bench::points::{mesh, mesh_sync, multibank, private_port, shared_bus, RING};
use eclipse_bench::{par_sweep, run_finished, save_result, table, Counters, StreamSpec};
use eclipse_coprocs::apps::DecodeAppConfig;
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::EclipseConfig;
use eclipse_mem::DataFabricConfig;
use eclipse_shell::SyncFabricConfig::{self, Direct};
use std::fmt::Write as _;

/// The fabric pairs, labelled; the first is the committed baseline.
fn points() -> [(&'static str, DataFabricConfig, SyncFabricConfig); 12] {
    [
        ("shared-bus + direct", shared_bus(), Direct),
        ("2-bank + direct", multibank(2), Direct),
        ("4-bank + direct", multibank(4), Direct),
        ("8-bank + direct", multibank(8), Direct),
        ("private g=2 + direct", private_port(2), Direct),
        ("private g=8 + direct", private_port(8), Direct),
        ("shared-bus + ring", shared_bus(), RING),
        ("4-bank + ring", multibank(4), RING),
        ("private g=2 + ring", private_port(2), RING),
        ("mesh 2x2 + direct", mesh(2, 2), Direct),
        ("mesh 2x2 + mesh-sync", mesh(2, 2), mesh_sync(2, 2)),
        ("mesh 4x2 + direct", mesh(4, 2), Direct),
    ]
}

fn main() {
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    let cfg = EclipseConfig::default();

    let pts = points();
    let results = par_sweep(&pts, |&(label, data, sync)| {
        let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
        b.with_data_fabric(data);
        b.with_sync_fabric(sync);
        b.add_decode("dec0", bitstream.clone(), DecodeAppConfig::default());
        let mut sys = b.build();
        let summary = run_finished(&mut sys.sys, 20_000_000_000, label);
        let frames = sys
            .display_frames("dec0")
            .map(|f| f.len())
            .unwrap_or_default();
        let cycles_per_frame = summary.cycles / frames.max(1) as u64;
        let worst_denial = summary
            .denial_rates
            .iter()
            .map(|&(_, r)| r)
            .fold(0.0f64, f64::max);
        let c = Counters::of(&sys.sys);
        let contended = sys.sys.data_fabric().contended_requests();
        let sync = sys.sys.sync_fabric().stats();
        let row = vec![
            label.to_string(),
            format!("{}", summary.cycles),
            format!("{cycles_per_frame}"),
            format!("{:.3}", worst_denial),
            format!("{contended}"),
            format!(
                "{:.1}%",
                100.0 * c.port_busy_cycles as f64 / (summary.cycles * c.ports).max(1) as f64
            ),
            format!("{}", sync.hops),
            format!("{}", sync.wait_cycles),
        ];
        (summary.cycles, row)
    });

    let rows: Vec<Vec<String>> = results.iter().map(|(_, r)| r.clone()).collect();
    let t = table(
        &[
            "fabric",
            "decode cycles",
            "cycles/frame",
            "worst denial",
            "data contended",
            "mean port util",
            "sync hops",
            "sync wait",
        ],
        &rows,
    );
    println!("{t}");

    let baseline = results[0].0;
    let mut out = String::new();
    writeln!(
        out,
        "Interconnect-fabric sweep ({} frames QCIF decode)\n",
        spec.frames
    )
    .unwrap();
    out.push_str(&t);
    writeln!(out, "\nrelative to shared-bus + direct baseline:").unwrap();
    for ((cycles, _), (label, ..)) in results.iter().zip(&pts) {
        writeln!(
            out,
            "  {:<22} {:+.2}%",
            label,
            100.0 * (*cycles as f64 - baseline as f64) / baseline as f64
        )
        .unwrap();
    }
    save_result("sweep_fabric.txt", &out);
}
