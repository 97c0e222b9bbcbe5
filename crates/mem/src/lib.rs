#![warn(missing_docs)]

//! # eclipse-mem — memory and interconnect substrate
//!
//! Models the communication hardware of an Eclipse instance (paper
//! Sections 3, 5.2, 6):
//!
//! * [`sram::Sram`] — the centralized wide on-chip memory holding the
//!   stream FIFO buffers (the paper's instance: 32 kB, 128-bit wide,
//!   300 MHz, separate read and write ports),
//! * [`dram::Dram`] — off-chip memory holding compressed bitstreams and
//!   MPEG reference frames, reached over the system bus by the VLD and
//!   MC/ME coprocessors,
//! * [`bus::Bus`] — a shared, arbitrated, wide data bus with occupancy and
//!   contention accounting (instantiated as the on-chip read bus, write
//!   bus, and the off-chip system bus),
//! * [`fabric::DataFabric`] — the pluggable shell↔SRAM transport seam
//!   with two backends: [`fabric::SharedBusFabric`] (the paper-instance
//!   bus pair, the default) and [`fabric::BankedFabric`] (address-
//!   interleaved SRAM bank nodes on a [`fabric::MeshGeometry`], behind
//!   contended per-bank arbitration or worst-case-provisioned
//!   per-requester ports). [`fabric::DataFabricConfig`] keeps one
//!   constructor per design point — `SharedBus`, `MultiBank`,
//!   `PrivatePort` and a 2-D `Mesh` with XY routing and per-link
//!   accounting — and every backend publishes a
//!   [`fabric::FabricTopology`] descriptor the topology-aware placement
//!   pass reads,
//! * [`alloc::BufferAllocator`] — run-time allocation of cyclic stream
//!   buffers in the shared SRAM address range (the paper's "communication
//!   buffers can be allocated at run-time"),
//! * [`cyclic`] — cyclic (wrap-around) buffer address arithmetic shared by
//!   the shells and the caches.
//!
//! Everything is *functional and timed*: reads and writes move real bytes,
//! and every access returns the cycle cost it incurred, so higher layers
//! both compute correct data and account correct time.

pub mod alloc;
pub mod bus;
pub mod cyclic;
pub mod dram;
pub mod fabric;
pub mod sram;

pub use alloc::BufferAllocator;
pub use bus::{Bus, BusConfig, BusStats, Transfer};
pub use cyclic::CyclicBuffer;
pub use dram::{Dram, DramConfig};
pub use fabric::{
    BankedFabric, DataFabric, DataFabricConfig, FabricConfigError, FabricDir, FabricPort,
    FabricTopology, LinkStats, MeshGeometry, SharedBusFabric,
};
pub use sram::{Sram, SramConfig};
