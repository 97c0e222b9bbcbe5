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

use eclipse_bench::synthetic::{open_gate_system, PipeCoproc};
use eclipse_bench::{save_result, StreamSpec};
use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, RunSummary, SystemBuilder};
use eclipse_kpn::GraphBuilder;
use eclipse_media::stream::GopConfig;
use eclipse_shell::{CacheConfig, SyncFabricConfig};
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
        let (mut hits, mut misses, mut pf, mut wb, mut inv, mut stall) = (0, 0, 0, 0, 0, 0u64);
        for shell in dec.system.sys.shells() {
            for c in shell.caches() {
                hits += c.stats.hits;
                misses += c.stats.misses;
                pf += c.stats.prefetches;
                wb += c.stats.writebacks;
                inv += c.stats.invalidations;
                stall += c.stats.stall_cycles;
            }
        }
        writeln!(
            out,
            "cache: hits={hits} misses={misses} prefetches={pf} writebacks={wb} \
             invalidations={inv} stall_cycles={stall}"
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
        let bufs = DecodeAppConfig::default().scaled(0.7);
        let sram = (bufs.total() + 8 * 1024).next_power_of_two().max(32 * 1024);
        let mut b = MpegBuilder::new(
            EclipseConfig::default().with_sram_size(sram),
            InstanceCosts::default(),
        );
        b.add_decode("dec0", bitstream.clone(), bufs);
        let mut sys = b.build();
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
        (
            "sweep_scalability/4pipes-cpu",
            SyncFabricConfig::Cpu {
                service_cycles: 200,
            },
        ),
    ] {
        let pipelines = 4usize;
        let sram = (pipelines as u32 * 2 * 256 + 1024)
            .next_power_of_two()
            .max(32 * 1024);
        let mut b = SystemBuilder::new(EclipseConfig::default().with_sram_size(sram));
        b.with_sync_fabric(sync);
        let mut g = GraphBuilder::new("scale");
        for p in 0..pipelines {
            let a = g.stream(format!("a{p}"), 256);
            let bs = g.stream(format!("b{p}"), 256);
            g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[a]);
            g.task(format!("mid{p}"), format!("mid{p}"), 0, &[a], &[bs]);
            g.task(format!("dst{p}"), format!("dst{p}"), 0, &[bs], &[]);
            b.add_coprocessor(Box::new(PipeCoproc::source(format!("src{p}"), 400, 64, 60)));
            b.add_coprocessor(Box::new(PipeCoproc::filter(format!("mid{p}"), 400, 64, 90)));
            b.add_coprocessor(Box::new(PipeCoproc::sink(format!("dst{p}"), 400, 64, 40)));
        }
        let graph = g.build().unwrap();
        b.map_app(&graph).unwrap();
        let mut sys = b.build();
        let s = sys.run(1_000_000_000);
        digest(&mut out, label, &s);
    }

    // sweep_scheduler point: best-guess policy, budget 2000, encode+decode.
    {
        let spec = StreamSpec {
            frames: 6,
            gop: GopConfig { n: 6, m: 3 },
            ..StreamSpec::qcif()
        };
        let (mix_bs, _) = spec.encode();
        let mut cfg = EclipseConfig::default();
        cfg.shell.policy = eclipse_shell::SchedPolicy::BestGuess;
        cfg.default_budget = 2000;
        let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
        b.add_decode("dec0", mix_bs, DecodeAppConfig::default());
        let frames = StreamSpec {
            seed: spec.seed + 9,
            ..spec
        }
        .source_frames();
        b.add_encode(
            "enc0",
            frames,
            spec.gop,
            spec.qscale,
            8,
            EncodeAppConfig::default(),
        );
        let mut sys = b.build();
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
