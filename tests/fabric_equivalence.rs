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
use eclipse::core::{EclipseConfig, RunOutcome, RunSummary};
use eclipse::media::stream::GopConfig;
use eclipse::mem::DataFabricConfig;
use eclipse::shell::SyncFabricConfig::{self, Direct};
use eclipse_bench::points::{mesh, mesh_sync, multibank, private_port, shared_bus, RING};
use eclipse_bench::synthetic::PipeBundle;
use eclipse_bench::{run_finished, Counters, StreamSpec};
use proptest::prelude::*;

fn small_stream() -> Vec<u8> {
    StreamSpec {
        width: 64,
        height: 48,
        frames: 7,
        gop: GopConfig { n: 6, m: 3 },
        complexity: 0.4,
        seed: 0xFAB41C,
        ..StreamSpec::qcif()
    }
    .encode()
    .0
}

/// Selecting the default fabrics by hand is byte-identical in time to
/// not selecting any fabric at all: same cycle count, same sync-message
/// count, same per-shell utilization split.
#[test]
fn explicit_default_fabrics_reproduce_implicit_timing() {
    let bitstream = small_stream();
    let cfg = EclipseConfig::default();

    let mut implicit = build_decode_system(cfg, bitstream.clone());
    let a = run_finished(&mut implicit.system.sys, 20_000_000_000, "implicit fabrics");

    let mut eb = MpegBuilder::new(cfg, InstanceCosts::default());
    eb.with_data_fabric(shared_bus());
    eb.with_sync_fabric(Direct);
    eb.add_decode("dec0", bitstream, DecodeAppConfig::default());
    let b = eb.build().run(20_000_000_000);

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
    for g in [1, 2, 8] {
        let run = |fabric| {
            let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
            b.with_data_fabric(fabric);
            b.add_decode("dec0", bitstream.clone(), DecodeAppConfig::default());
            let mut m = b.build();
            let summary = run_finished(&mut m.sys, 20_000_000_000, format!("g={g}"));
            let f = m.sys.data_fabric();
            let ports: Vec<String> = f
                .ports()
                .iter()
                .map(|p| format!("{} {:?}", p.name, p.stats))
                .collect();
            (summary, ports, f.contended_requests())
        };
        let (a, a_ports, a_contended) = run(private_port(g));
        let (b, b_ports, b_contended) = run(DataFabricConfig::Mesh {
            cols: 1,
            rows: 1,
            interleave_bytes: 64,
            link_grant: g,
            hop_cycles: 3,
            port: cfg.read_bus,
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

/// One pipeline bundle, run through a given fabric pair with the credit
/// checker armed; returns the summary plus total bytes the data fabric
/// carried.
fn run_combo(
    bundle: PipeBundle,
    data: DataFabricConfig,
    sync: SyncFabricConfig,
) -> (RunSummary, u64) {
    let mut sys = bundle.system(data, sync);
    sys.enable_credit_check();
    let summary = sys.run(10_000_000_000);
    (summary, Counters::of(&sys).port_bytes)
}

fn fabric_combos() -> Vec<(String, DataFabricConfig, SyncFabricConfig)> {
    let mut combos = Vec::new();
    for (dl, data) in [
        ("shared", shared_bus()),
        ("bank2", multibank(2)),
        ("bank4", multibank(4)),
        ("bank8", multibank(8)),
    ] {
        for (sl, sync) in [("direct", Direct), ("ring", RING)] {
            combos.push((format!("{dl}+{sl}"), data, sync));
        }
    }
    // The 2-D mesh planes: XY-routed data chunks and an XY-routed sync
    // network with credit piggy-backing must conserve exactly like the
    // flat fabrics — hops shift timing and add link counters, never
    // payload.
    combos.push(("mesh+direct".into(), mesh(2, 2), Direct));
    combos.push(("mesh+ring".into(), mesh(2, 2), RING));
    combos.push(("mesh+mesh-sync".into(), mesh(2, 2), mesh_sync(2, 2)));
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
        let bundle = PipeBundle {
            pipelines,
            buffer: 1 << buffer_pow,
            packets,
            packet_bytes: 1 << packet_pow,
        };
        let mut reference: Option<u64> = None;
        for (label, data, sync) in fabric_combos() {
            let (summary, bytes) = run_combo(bundle, data, sync);
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
