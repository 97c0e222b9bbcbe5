//! Simulated-timing fingerprint of the canonical workloads.
//!
//! Prints a full digest of every [`RunSummary`] field (plus cache and bus
//! counters) for the Figure-10 QCIF decode and one design point per sweep
//! binary. Host-performance work (calendar structure, cache fast paths)
//! must leave this output **byte-identical** — run it before and after an
//! optimization and diff `results/timing_fingerprint.txt`. The closing
//! `state_hash` line hashes the checkpoint state section, so a change of
//! its layout (a `SNAP_VERSION` bump) moves that line and no other.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin timing_fingerprint`

use eclipse_bench::points::{coupling_decode, scheduler_mix, shared_bus, CPU_SYNC};
use eclipse_bench::synthetic::{open_gate_system, PipeBundle};
use eclipse_bench::{save_result, Counters, StreamSpec};
use eclipse_coprocs::apps::DecodeAppConfig;
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::{EclipseConfig, RunSummary};
use eclipse_shell::{CacheConfig, SchedPolicy, SyncFabricConfig};
use std::fmt::Write as _;

fn digest(out: &mut String, label: &str, s: &RunSummary) {
    writeln!(out, "== {label} ==").unwrap();
    writeln!(out, "outcome: {:?}", s.outcome).unwrap();
    writeln!(out, "cycles: {}", s.cycles).unwrap();
    writeln!(out, "sync_messages: {}", s.sync_messages).unwrap();
    writeln!(out, "cpu_sync_busy: {}", s.cpu_sync_busy).unwrap();
    writeln!(out, "sched_occupancy: {:.12}", s.sched_occupancy).unwrap();
    for (i, u) in s.utilization.iter().enumerate() {
        writeln!(
            out,
            "util[{i}]: busy={} stalled={} idle={}",
            u.busy, u.stalled, u.idle
        )
        .unwrap();
    }
    for (row, rate) in &s.denial_rates {
        writeln!(out, "denial {row}: {rate:.12}").unwrap();
    }
    writeln!(out, "sync_latency buckets: {:?}", s.sync_latency.buckets()).unwrap();
    writeln!(
        out,
        "sync_latency stat: n={} sum={:.3} min={:.3} max={:.3}",
        s.sync_latency.stat().count(),
        s.sync_latency.stat().sum(),
        s.sync_latency.stat().min(),
        s.sync_latency.stat().max()
    )
    .unwrap();
}

fn main() {
    let mut out = String::new();
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();

    // Figure-10 QCIF decode, default configuration.
    {
        let mut dec = build_decode_system(EclipseConfig::default(), bitstream.clone());
        let s = dec.system.sys.run(20_000_000_000);
        digest(&mut out, "qcif_decode/default", &s);
        let c = Counters::of(&dec.system.sys);
        writeln!(
            out,
            "cache: hits={} misses={} prefetches={} writebacks={} invalidations={} \
             stall_cycles={}",
            c.hits, c.misses, c.prefetches, c.writebacks, c.invalidations, c.stall_cycles
        )
        .unwrap();
        for port in dec.system.sys.data_fabric().ports() {
            writeln!(
                out,
                "bus/{}: txn={} bytes={} busy={} wait_sum={:.3}",
                port.name,
                port.stats.transactions,
                port.stats.bytes,
                port.stats.busy_cycles,
                port.stats.wait.sum()
            )
            .unwrap();
        }
    }

    // sweep_cache point: 512 B + prefetch.
    {
        let cfg = EclipseConfig::default().with_cache(CacheConfig::with_lines(8, true));
        let mut dec = build_decode_system(cfg, bitstream.clone());
        let s = dec.system.sys.run(20_000_000_000);
        digest(&mut out, "sweep_cache/512B+prefetch", &s);
    }

    // sweep_bus point: 64-bit bus.
    {
        let cfg = EclipseConfig::default().with_bus_width(8);
        let mut dec = build_decode_system(cfg, bitstream.clone());
        let s = dec.system.sys.run(20_000_000_000);
        digest(&mut out, "sweep_bus/width8", &s);
    }

    // sweep_coupling point: 0.7x buffers.
    {
        let mut sys = coupling_decode(bitstream.clone(), DecodeAppConfig::default().scaled(0.7));
        let s = sys.sys.run(50_000_000_000);
        digest(&mut out, "sweep_coupling/0.7x", &s);
    }

    // sweep_scalability point: 4 pipelines on the direct and the CPU
    // sync fabric.
    for (label, sync) in [
        (
            "sweep_scalability/4pipes-distributed",
            SyncFabricConfig::Direct,
        ),
        ("sweep_scalability/4pipes-cpu", CPU_SYNC),
    ] {
        let mut sys = PipeBundle::scalability(4).system(shared_bus(), sync);
        let s = sys.run(1_000_000_000);
        digest(&mut out, label, &s);
    }

    // sweep_scheduler point: best-guess policy, budget 2000, encode+decode.
    {
        let mut sys = scheduler_mix(SchedPolicy::BestGuess, 2000);
        let s = sys.sys.run(100_000_000_000);
        digest(&mut out, "sweep_scheduler/bestguess-2000", &s);
    }

    // Open-gate point: two independent apps on the private-port
    // crossbar, the fabric whose static grant floor every SRAM access
    // pays; the final state hash pins the whole machine state.
    {
        let mut sys = open_gate_system(2_000, 60);
        let s = sys.run(1_000_000_000);
        digest(&mut out, "open_gate/private-port-2apps", &s);
        writeln!(out, "state_hash: {:#018x}", sys.state_hash()).unwrap();
    }

    print!("{out}");
    save_result("timing_fingerprint.txt", &out);
}
