//! Fabric-equivalence suite: the pluggable interconnect layer must be
//! invisible when the default backends are selected, and every backend
//! must stay functionally conservative (no created or lost credits, no
//! created or lost bytes) no matter how the traffic looks.
//!
//! Three layers of evidence:
//!
//! 1. **Timing equivalence.** Explicitly selecting the default fabrics
//!    (`SharedBus` with the instance's read/write bus pair + `Direct`
//!    sync delivery) on the Figure-10 decode reproduces the implicit
//!    build cycle-for-cycle — the same guarantee the committed
//!    `results/timing_fingerprint.txt` encodes, checked here against a
//!    live run rather than a file.
//! 2. **One banked fabric.** The private-port crossbar is the one-node
//!    case of the mesh: a decode on either agrees in every timing
//!    counter, the premise that lets one `BankedFabric` serve both.
//! 3. **Conservation under random traffic.** Property tests drive
//!    randomly shaped producer/filter/consumer pipelines through every
//!    fabric combination with the credit checker armed: each combo must
//!    finish, observe the same number of sync messages, and move the
//!    same number of bytes over the data fabric (the fabric shapes
//!    *when* traffic flows, never *what* flows).

use eclipse::coprocs::apps::DecodeAppConfig;
use eclipse::coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder};
use eclipse::core::{EclipseConfig, RunOutcome, RunSummary, SystemBuilder};
use eclipse::kpn::GraphBuilder;
use eclipse::media::encoder::{Encoder, EncoderConfig};
use eclipse::media::source::{SourceConfig, SyntheticSource};
use eclipse::media::stream::GopConfig;
use eclipse::mem::{BusConfig, DataFabricConfig};
use eclipse::shell::SyncFabricConfig;
use eclipse_bench::synthetic::PipeCoproc;
use proptest::prelude::*;

fn small_stream() -> Vec<u8> {
    let src = SyntheticSource::new(SourceConfig {
        width: 64,
        height: 48,
        complexity: 0.4,
        motion: 2.0,
        seed: 0xFAB41C,
    });
    let enc = Encoder::new(EncoderConfig {
        width: 64,
        height: 48,
        qscale: 6,
        gop: GopConfig { n: 6, m: 3 },
        search_range: 15,
    });
    let (bytes, _) = enc.encode(&src.frames(7));
    bytes
}

/// Selecting the default fabrics by hand is byte-identical in time to
/// not selecting any fabric at all: same cycle count, same sync-message
/// count, same per-shell utilization split.
#[test]
fn explicit_default_fabrics_reproduce_implicit_timing() {
    let bitstream = small_stream();
    let cfg = EclipseConfig::default();

    let mut implicit = build_decode_system(cfg, bitstream.clone());
    let a = implicit.system.run(20_000_000_000);

    let mut eb = MpegBuilder::new(cfg, InstanceCosts::default());
    eb.with_data_fabric(DataFabricConfig::SharedBus {
        read: cfg.read_bus,
        write: cfg.write_bus,
    });
    eb.with_sync_fabric(SyncFabricConfig::Direct);
    eb.add_decode("dec0", bitstream, DecodeAppConfig::default());
    let mut explicit = eb.build();
    let b = explicit.run(20_000_000_000);

    assert_eq!(a.outcome, RunOutcome::AllFinished);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// A private-port fabric is a 1×1 mesh: with no links to cross, the
/// mesh charges exactly the private port's grant over the same port
/// pairs. A decode on `PrivatePort { grant_cycles: g }` and on a 1×1
/// `Mesh { link_grant: g, .. }` agree in cycles, per-shell utilization,
/// per-port transactions, bytes and wait, and contention.
#[test]
fn private_port_is_a_one_node_mesh() {
    let bitstream = small_stream();
    let cfg = EclipseConfig::default();
    let port = cfg.read_bus;
    for g in [1, 2, 8] {
        let run = |fabric| {
            let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
            b.with_data_fabric(fabric);
            b.add_decode("dec0", bitstream.clone(), DecodeAppConfig::default());
            let mut m = b.build();
            let summary = m.run(20_000_000_000);
            assert_eq!(summary.outcome, RunOutcome::AllFinished, "g={g}");
            let f = m.sys.data_fabric();
            let ports: Vec<String> = f
                .ports()
                .iter()
                .map(|p| format!("{} {:?}", p.name, p.stats))
                .collect();
            (summary, ports, f.contended_requests())
        };
        let (a, a_ports, a_contended) = run(DataFabricConfig::PrivatePort {
            grant_cycles: g,
            port,
        });
        let (b, b_ports, b_contended) = run(DataFabricConfig::Mesh {
            cols: 1,
            rows: 1,
            interleave_bytes: 64,
            link_grant: g,
            hop_cycles: 3,
            port,
        });
        assert_eq!(a.cycles, b.cycles, "g={g}: cycles");
        assert_eq!(
            format!("{:?}", a.utilization),
            format!("{:?}", b.utilization),
            "g={g}: per-shell utilization"
        );
        assert!(!a_ports.is_empty(), "g={g}: the decode used the fabric");
        assert_eq!(
            a_ports, b_ports,
            "g={g}: per-port transactions, bytes, wait"
        );
        assert_eq!(a_contended, b_contended, "g={g}: contended requests");
    }
}

/// One pipeline shape, run through a given fabric pair with the credit
/// checker armed; returns the summary plus total bytes the data fabric
/// carried.
fn run_combo(
    pipelines: usize,
    buffer: u32,
    packets: u32,
    packet_bytes: u32,
    data: DataFabricConfig,
    sync: SyncFabricConfig,
) -> (RunSummary, u64) {
    let sram = (pipelines as u32 * 2 * buffer + 1024)
        .next_power_of_two()
        .max(32 * 1024);
    let mut b = SystemBuilder::new(EclipseConfig::default().with_sram_size(sram));
    b.with_data_fabric(data);
    b.with_sync_fabric(sync);
    let mut g = GraphBuilder::new("fuzz");
    for p in 0..pipelines {
        let a = g.stream(format!("a{p}"), buffer);
        let bs = g.stream(format!("b{p}"), buffer);
        g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[a]);
        g.task(format!("mid{p}"), format!("mid{p}"), 0, &[a], &[bs]);
        g.task(format!("dst{p}"), format!("dst{p}"), 0, &[bs], &[]);
        b.add_coprocessor(Box::new(PipeCoproc::source(
            format!("src{p}"),
            packets,
            packet_bytes,
            60,
        )));
        b.add_coprocessor(Box::new(PipeCoproc::filter(
            format!("mid{p}"),
            packets,
            packet_bytes,
            90,
        )));
        b.add_coprocessor(Box::new(PipeCoproc::sink(
            format!("dst{p}"),
            packets,
            packet_bytes,
            40,
        )));
    }
    let graph = g.build().unwrap();
    b.map_app(&graph).unwrap();
    let mut sys = b.build();
    sys.enable_credit_check();
    let summary = sys.run(10_000_000_000);
    let bytes: u64 = sys
        .data_fabric()
        .ports()
        .iter()
        .map(|p| p.stats.bytes)
        .sum();
    (summary, bytes)
}

fn fabric_combos(cfg: &EclipseConfig) -> Vec<(String, DataFabricConfig, SyncFabricConfig)> {
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    let shared = DataFabricConfig::SharedBus {
        read: cfg.read_bus,
        write: cfg.write_bus,
    };
    let ring = SyncFabricConfig::Ring {
        hop_latency: 2,
        link_occupancy: 1,
    };
    let mut combos = Vec::new();
    for (dl, data) in [
        ("shared", shared),
        (
            "bank2",
            DataFabricConfig::MultiBank {
                banks: 2,
                interleave_bytes: 64,
                bank,
            },
        ),
        (
            "bank4",
            DataFabricConfig::MultiBank {
                banks: 4,
                interleave_bytes: 64,
                bank,
            },
        ),
        (
            "bank8",
            DataFabricConfig::MultiBank {
                banks: 8,
                interleave_bytes: 64,
                bank,
            },
        ),
    ] {
        for (sl, sync) in [("direct", SyncFabricConfig::Direct), ("ring", ring)] {
            combos.push((format!("{dl}+{sl}"), data, sync));
        }
    }
    // The 2-D mesh planes: XY-routed data chunks and an XY-routed sync
    // network with credit piggy-backing must conserve exactly like the
    // flat fabrics — hops shift timing and add link counters, never
    // payload.
    let mesh = DataFabricConfig::Mesh {
        cols: 2,
        rows: 2,
        interleave_bytes: 64,
        link_grant: 2,
        hop_cycles: 1,
        port: bank,
    };
    let mesh_sync = SyncFabricConfig::Mesh {
        cols: 2,
        rows: 2,
        hop_latency: 2,
        link_occupancy: 1,
        piggyback_window: 4,
    };
    combos.push(("mesh+direct".into(), mesh, SyncFabricConfig::Direct));
    combos.push(("mesh+ring".into(), mesh, ring));
    combos.push(("mesh+mesh-sync".into(), mesh, mesh_sync));
    combos
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every fabric combination conserves credits (the armed credit
    /// checker panics on any violation), completes the same workload,
    /// and carries the same number of payload bytes as every other
    /// combination — the fabric shifts timing, never data. (Sync
    /// *message counts* legitimately differ across fabrics: how many
    /// putspace updates coalesce depends on scheduling timing.)
    #[test]
    fn all_fabrics_conserve_credits_and_bytes(
        pipelines in 1usize..=3,
        buffer_pow in 7u32..=9,     // 128, 256, 512 B stream buffers
        packets in 40u32..160,
        packet_pow in 4u32..=6,     // 16, 32, 64 B packets
    ) {
        let buffer = 1u32 << buffer_pow;
        let packet_bytes = 1u32 << packet_pow;
        let cfg = EclipseConfig::default();
        let mut reference: Option<u64> = None;
        for (label, data, sync) in fabric_combos(&cfg) {
            let (summary, bytes) = run_combo(
                pipelines, buffer, packets, packet_bytes, data, sync,
            );
            prop_assert_eq!(
                summary.outcome, RunOutcome::AllFinished,
                "{} did not finish: {:?}", label, summary.outcome
            );
            prop_assert!(
                summary.sync_messages > 0,
                "{}: no sync traffic observed", label
            );
            match reference {
                None => reference = Some(bytes),
                Some(ref_bytes) => {
                    prop_assert_eq!(
                        bytes, ref_bytes,
                        "{}: fabric byte total diverged", label
                    );
                }
            }
        }
    }
}
