//! The design points that more than one experiment binary or test
//! builds, defined once so that the committed tables, the timing
//! fingerprint and the paper-claim tests run the same configuration. A
//! point that only one binary builds stays in that binary.
//!
//! Every banked fabric's port is the default instance's read bus.

use crate::StreamSpec;
use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder, MpegSystem};
use eclipse_core::EclipseConfig;
use eclipse_mem::{BusConfig, DataFabricConfig};
use eclipse_shell::{SchedPolicy, SyncFabricConfig};

/// The port of every banked fabric: the default instance's read bus.
fn port() -> BusConfig {
    EclipseConfig::default().read_bus
}

/// The paper instance's shared read/write bus pair, selected explicitly
/// (timing-identical to selecting no fabric).
pub fn shared_bus() -> DataFabricConfig {
    let cfg = EclipseConfig::default();
    DataFabricConfig::SharedBus {
        read: cfg.read_bus,
        write: cfg.write_bus,
    }
}

/// `banks` SRAM banks interleaved every 64 bytes, each a contended bus.
pub fn multibank(banks: u32) -> DataFabricConfig {
    DataFabricConfig::MultiBank {
        banks,
        interleave_bytes: 64,
        bank: port(),
    }
}

/// The private-port crossbar with a static grant of `grant_cycles`.
pub fn private_port(grant_cycles: u64) -> DataFabricConfig {
    DataFabricConfig::PrivatePort {
        grant_cycles,
        port: port(),
    }
}

/// A `cols`×`rows` mesh of bank nodes, interleaved every 64 bytes, with
/// a 2-cycle link grant and 1 cycle per hop.
pub fn mesh(cols: u32, rows: u32) -> DataFabricConfig {
    DataFabricConfig::Mesh {
        cols,
        rows,
        interleave_bytes: 64,
        link_grant: 2,
        hop_cycles: 1,
        port: port(),
    }
}

/// The unidirectional sync ring: 2 cycles per hop, each link busy 1
/// cycle per message.
pub const RING: SyncFabricConfig = SyncFabricConfig::Ring {
    hop_latency: 2,
    link_occupancy: 1,
};

/// The XY-routed sync mesh on a `cols`×`rows` grid, with the ring's hop
/// costs and a 4-cycle credit piggy-back window.
pub fn mesh_sync(cols: u32, rows: u32) -> SyncFabricConfig {
    SyncFabricConfig::Mesh {
        cols,
        rows,
        hop_latency: 2,
        link_occupancy: 1,
        piggyback_window: 4,
    }
}

/// The CPU-centric baseline of experiment E10: every `putspace` costs
/// the CPU a 200-cycle interrupt service.
pub const CPU_SYNC: SyncFabricConfig = SyncFabricConfig::Cpu {
    service_cycles: 200,
};

/// The coupling sweep's point: one decode (`dec0`) of `bitstream` with
/// stream buffers `bufs`, on an SRAM sized to hold them (at least the
/// paper's 32 kB).
pub fn coupling_decode(bitstream: Vec<u8>, bufs: DecodeAppConfig) -> MpegSystem {
    let sram = (bufs.total() + 8 * 1024).next_power_of_two().max(32 * 1024);
    let mut b = MpegBuilder::new(
        EclipseConfig::default().with_sram_size(sram),
        InstanceCosts::default(),
    );
    b.add_decode("dec0", bitstream, bufs);
    b.build()
}

/// The scheduler sweep's encode+decode mix under `policy` with per-task
/// `budget`: a decode (`dec0`) of [`StreamSpec::mix`] and an encode
/// (`enc0`, motion search range 8) of the same spec's source with the
/// seed moved by 9.
pub fn scheduler_mix(policy: SchedPolicy, budget: u64) -> MpegSystem {
    let spec = StreamSpec::mix();
    let mut cfg = EclipseConfig::default();
    cfg.shell.policy = policy;
    cfg.default_budget = budget;
    let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
    b.add_decode("dec0", spec.encode().0, DecodeAppConfig::default());
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
    b.build()
}
