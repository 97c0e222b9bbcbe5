//! Pluggable data-transport fabrics between the shells and the SRAM.
//!
//! The paper presents Eclipse as a *template*: the instance of Section 6
//! reaches the shared SRAM over one arbitrated read bus and one write bus,
//! but the communication hardware is explicitly a replaceable, scalable
//! component. [`DataFabric`] is that seam. The historical bus pair is the
//! default [`SharedBusFabric`] (timing-identical to the former hardwired
//! `Bus` pair inside `MemSys`); [`MultiBankFabric`] models an
//! address-interleaved multi-bank SRAM interconnect where independent
//! banks arbitrate in parallel, opening the bandwidth-scaling axis the
//! shared bus saturates.
//!
//! A fabric is purely a *timing* model: the functional byte movement stays
//! in [`crate::sram::Sram`]; the fabric decides when the data is usable.

use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::trace::{SharedTraceSink, TraceEventKind, TraceHandle};
use eclipse_sim::Cycle;

use crate::bus::{Bus, BusConfig, BusStats, Transfer};

/// Direction of a fabric request (selects the bus on the shared-bus
/// fabric; multi-bank fabrics arbitrate reads and writes on one port per
/// bank, like a single-ported SRAM bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricDir {
    /// SRAM → shell (cache line fetch).
    Read,
    /// Shell → SRAM (cache line writeback).
    Write,
}

/// Geometry of a `cols × rows` mesh with XY (dimension-ordered)
/// routing — shared by the data-plane [`MeshDataFabric`] and the
/// sync-plane mesh network in `eclipse-shell`, so both planes agree on
/// node coordinates, link identities, and hop distances.
///
/// Node `n` sits at `(n % cols, n / cols)`. Directed links are
/// enumerated east, west, south, north (stable ids, so per-link
/// statistics snapshot deterministically). XY routing resolves the X
/// offset first, then Y — deadlock-free and, crucially here,
/// *deterministic*: the path is a pure function of the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshGeometry {
    /// Grid width (nodes per row).
    pub cols: usize,
    /// Grid height (rows).
    pub rows: usize,
}

impl MeshGeometry {
    /// A `cols × rows` grid (both at least 1).
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "mesh needs at least one node");
        MeshGeometry { cols, rows }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Number of directed links (east + west + south + north).
    pub fn n_links(&self) -> usize {
        2 * (self.cols - 1) * self.rows + 2 * self.cols * (self.rows - 1)
    }

    /// Manhattan (XY-route) distance between two nodes, in hops.
    pub fn distance(&self, a: usize, b: usize) -> u64 {
        let (ax, ay) = (a % self.cols, a / self.cols);
        let (bx, by) = (b % self.cols, b / self.cols);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// Directed link id of the single hop `from → to` (adjacent nodes).
    fn link_id(&self, from: usize, to: usize) -> usize {
        let he = (self.cols - 1) * self.rows; // east links
        let vs = self.cols * (self.rows - 1); // south links
        let (fx, fy) = (from % self.cols, from / self.cols);
        let (tx, ty) = (to % self.cols, to / self.cols);
        if ty == fy {
            if tx == fx + 1 {
                fy * (self.cols - 1) + fx // east
            } else {
                debug_assert_eq!(tx + 1, fx);
                he + fy * (self.cols - 1) + tx // west
            }
        } else if ty == fy + 1 {
            2 * he + fy * self.cols + fx // south
        } else {
            debug_assert_eq!(ty + 1, fy);
            2 * he + vs + ty * self.cols + fx // north
        }
    }

    /// Walk the XY route `from → to`, yielding each directed link id in
    /// traversal order.
    pub fn route(&self, from: usize, to: usize, mut f: impl FnMut(usize)) {
        let (mut x, mut y) = (from % self.cols, from / self.cols);
        let (tx, ty) = (to % self.cols, to / self.cols);
        while x != tx {
            let nx = if tx > x { x + 1 } else { x - 1 };
            f(self.link_id(y * self.cols + x, y * self.cols + nx));
            x = nx;
        }
        while y != ty {
            let ny = if ty > y { y + 1 } else { y - 1 };
            f(self.link_id(y * self.cols + x, ny * self.cols + x));
            y = ny;
        }
    }
}

/// A topology descriptor the placement pass reads off the active data
/// fabric ([`DataFabric::topology`]): how many independently arbitrated
/// bank nodes exist, how addresses stripe across them, and — for mesh
/// fabrics — the grid the distance metric lives on. Placement uses it
/// to spread hot streams across distinct banks and keep communicating
/// tasks on adjacent mesh nodes; everything here is static
/// configuration, never run-time state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricTopology {
    /// The owning fabric's `kind()`.
    pub kind: &'static str,
    /// Independently arbitrated bank nodes (1 = uniform/global).
    pub banks: usize,
    /// Address-interleave stripe in bytes (0 = not interleaved).
    pub interleave_bytes: u32,
    /// Mesh grid `(cols, rows)` when the banks form a 2-D mesh.
    pub mesh: Option<(usize, usize)>,
    /// Whether each requester owns a private injection port (positive
    /// grant floor; distance — not arbitration — is the placement axis).
    pub private_ports: bool,
    /// Added latency per mesh hop (0 without a mesh).
    pub hop_cycles: Cycle,
}

impl FabricTopology {
    /// A distance-free, single-arbiter topology (the default hook).
    pub fn uniform(kind: &'static str) -> Self {
        FabricTopology {
            kind,
            banks: 1,
            interleave_bytes: 0,
            mesh: None,
            private_ports: false,
            hop_cycles: 0,
        }
    }

    /// The bank node requester (shell) `s` injects at.
    pub fn requester_node(&self, requester: usize) -> usize {
        requester % self.banks.max(1)
    }

    /// Hop distance between two bank nodes (0 on non-mesh topologies,
    /// whose ports are all equidistant).
    pub fn distance(&self, a: usize, b: usize) -> u64 {
        match self.mesh {
            Some((cols, rows)) => MeshGeometry::new(cols, rows).distance(a, b),
            None => 0,
        }
    }
}

/// One observable arbitration port of a fabric, for reporting.
#[derive(Debug, Clone, Copy)]
pub struct FabricPort<'a> {
    /// Stable port name ("read", "write", "bank0", ...).
    pub name: &'static str,
    /// Cumulative statistics of the port.
    pub stats: &'a BusStats,
}

impl FabricPort<'_> {
    /// Fraction of `[0, now]` during which the port carried data.
    pub fn utilization(&self, now: Cycle) -> f64 {
        if now == 0 {
            0.0
        } else {
            (self.stats.busy_cycles as f64 / now as f64).min(1.0)
        }
    }
}

/// A data-transport fabric: arbitrates shell↔SRAM transfers and accounts
/// their timing. Implementations must be deterministic — identical
/// request sequences must produce identical [`Transfer`]s.
pub trait DataFabric: std::fmt::Debug {
    /// Short backend name for reports ("shared-bus", "multibank4", ...).
    fn kind(&self) -> &'static str;

    /// Request a transfer of `bytes` at SRAM address `addr`, issued at
    /// `now` by requester (shell) `requester`. Returns grant/completion
    /// timing including arbitration wait. Globally-arbitrated fabrics
    /// ignore `requester`; per-requester-ported fabrics route the request
    /// through that requester's private port.
    fn request(
        &mut self,
        requester: usize,
        dir: FabricDir,
        now: Cycle,
        addr: u32,
        bytes: u32,
    ) -> Transfer;

    /// Connect the fabric to a shared event-trace sink.
    fn attach_trace(&mut self, sink: &SharedTraceSink);

    /// The fabric's arbitration ports, in a stable order.
    fn ports(&self) -> Vec<FabricPort<'_>>;

    /// Requests that found their port busy and had to wait.
    fn contended_requests(&self) -> u64;

    /// Look up one port by name (e.g. "read" on the shared-bus fabric).
    fn port(&self, name: &str) -> Option<FabricPort<'_>> {
        self.ports().into_iter().find(|p| p.name == name)
    }

    /// Static topology descriptor for the placement pass: bank count,
    /// address interleave, optional mesh grid. The default is the
    /// uniform single-arbiter topology (no placement leverage).
    fn topology(&self) -> FabricTopology {
        FabricTopology::uniform(self.kind())
    }

    /// Serialize the fabric's dynamic state (arbiter clocks, statistics)
    /// into a checkpoint. The default is a no-op for stateless fabrics.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restore dynamic state written by [`DataFabric::save_state`] into a
    /// fabric built with the same configuration.
    fn load_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Ok(())
    }

    /// Downcast support (reports that need a concrete backend's own
    /// counters, e.g. the mesh's per-link byte·hops).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Fabric selection, resolved to a backend at system build time.
#[derive(Debug, Clone, Copy)]
pub enum DataFabricConfig {
    /// The paper-instance bus pair: one shared read bus, one shared write
    /// bus (the default; timing-identical to the pre-fabric model).
    SharedBus {
        /// Read-bus parameters.
        read: BusConfig,
        /// Write-bus parameters.
        write: BusConfig,
    },
    /// Address-interleaved multi-bank SRAM fabric: consecutive
    /// `interleave_bytes`-sized chunks live in consecutive banks, each
    /// bank arbitrates its own port in order, and a transfer completes
    /// when its slowest chunk completes.
    MultiBank {
        /// Number of banks (power of two, at most [`MAX_BANKS`]).
        banks: u32,
        /// Bytes per interleave chunk (power of two).
        interleave_bytes: u32,
        /// Per-bank port parameters.
        bank: BusConfig,
    },
    /// Per-requester private ports into address-interleaved SRAM banks
    /// through a worst-case-provisioned crossbar: every request pays the
    /// static grant bound `grant_cycles`, and after the grant its private
    /// port carries the data with no cross-requester arbitration at all.
    PrivatePort {
        /// Static worst-case crossbar grant latency in cycles (>= 1);
        /// a TDM crossbar serving `P` ports bounds this by `P`.
        grant_cycles: Cycle,
        /// Per-port parameters (each requester gets a private read port
        /// and a private write port with these timings).
        port: BusConfig,
    },
    /// A `cols × rows` mesh NoC of SRAM bank nodes with XY routing:
    /// addresses interleave across the bank nodes, every requester owns
    /// a private injection port at node `requester % nodes`, and each
    /// traversed link charges its worst-case TDM grant slot plus a hop
    /// latency. Like [`DataFabricConfig::PrivatePort`], the per-link
    /// grant floor is statically provisioned, so no requester ever waits
    /// on another.
    Mesh {
        /// Grid width in bank nodes (>= 1).
        cols: u32,
        /// Grid height in bank nodes (>= 1).
        rows: u32,
        /// Bytes per address-interleave chunk (power of two).
        interleave_bytes: u32,
        /// Worst-case TDM grant slot per link (>= 1).
        link_grant: Cycle,
        /// Added latency per traversed link.
        hop_cycles: Cycle,
        /// Per-requester injection-port parameters.
        port: BusConfig,
    },
}

impl DataFabricConfig {
    /// Instantiate the configured backend.
    pub fn build(self) -> Box<dyn DataFabric> {
        match self {
            DataFabricConfig::SharedBus { read, write } => {
                Box::new(SharedBusFabric::new(read, write))
            }
            DataFabricConfig::MultiBank {
                banks,
                interleave_bytes,
                bank,
            } => Box::new(MultiBankFabric::new(banks, interleave_bytes, bank)),
            DataFabricConfig::PrivatePort { grant_cycles, port } => {
                Box::new(PrivatePortFabric::new(grant_cycles, port))
            }
            DataFabricConfig::Mesh {
                cols,
                rows,
                interleave_bytes,
                link_grant,
                hop_cycles,
                port,
            } => Box::new(MeshDataFabric::new(
                cols as usize,
                rows as usize,
                interleave_bytes,
                link_grant,
                hop_cycles,
                port,
            )),
        }
    }

    /// The topology descriptor the configured backend would publish,
    /// without instantiating it — what the build-time placement pass
    /// reads (matches [`DataFabric::topology`] of the built fabric
    /// exactly).
    pub fn topology(&self) -> FabricTopology {
        match *self {
            DataFabricConfig::SharedBus { .. } => FabricTopology::uniform("shared-bus"),
            DataFabricConfig::MultiBank {
                banks,
                interleave_bytes,
                ..
            } => FabricTopology {
                kind: "multibank",
                banks: banks as usize,
                interleave_bytes,
                mesh: None,
                private_ports: false,
                hop_cycles: 0,
            },
            DataFabricConfig::PrivatePort { .. } => FabricTopology {
                kind: "private-port",
                banks: 1,
                interleave_bytes: 0,
                mesh: None,
                private_ports: true,
                hop_cycles: 0,
            },
            DataFabricConfig::Mesh {
                cols,
                rows,
                interleave_bytes,
                hop_cycles,
                ..
            } => FabricTopology {
                kind: "mesh",
                banks: (cols as usize) * (rows as usize),
                interleave_bytes,
                mesh: Some((cols as usize, rows as usize)),
                private_ports: true,
                hop_cycles,
            },
        }
    }
}

/// The default fabric: the paper's shared read/write bus pair.
///
/// Pure delegation to two [`Bus`] arbiters named "read" and "write", so
/// timing, statistics, and `BusGrant` trace events are byte-identical to
/// the former hardwired model.
#[derive(Debug, Clone)]
pub struct SharedBusFabric {
    read: Bus,
    write: Bus,
    contended: u64,
}

impl SharedBusFabric {
    /// A new idle bus pair.
    pub fn new(read: BusConfig, write: BusConfig) -> Self {
        SharedBusFabric {
            read: Bus::new("read", read),
            write: Bus::new("write", write),
            contended: 0,
        }
    }
}

impl DataFabric for SharedBusFabric {
    fn kind(&self) -> &'static str {
        "shared-bus"
    }

    fn request(
        &mut self,
        _requester: usize,
        dir: FabricDir,
        now: Cycle,
        _addr: u32,
        bytes: u32,
    ) -> Transfer {
        let t = match dir {
            FabricDir::Read => self.read.request(now, bytes),
            FabricDir::Write => self.write.request(now, bytes),
        };
        if t.wait > 0 {
            self.contended += 1;
        }
        t
    }

    fn attach_trace(&mut self, sink: &SharedTraceSink) {
        self.read.attach_trace(sink);
        self.write.attach_trace(sink);
    }

    fn ports(&self) -> Vec<FabricPort<'_>> {
        vec![
            FabricPort {
                name: self.read.name(),
                stats: self.read.stats(),
            },
            FabricPort {
                name: self.write.name(),
                stats: self.write.stats(),
            },
        ]
    }

    fn contended_requests(&self) -> u64 {
        self.contended
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.read.save(w);
        self.write.save(w);
        w.u64(self.contended);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.read.load(r)?;
        self.write.load(r)?;
        self.contended = r.u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Upper bound on [`MultiBankFabric`] banks (names are static strings).
pub const MAX_BANKS: usize = 16;

const BANK_NAMES: [&str; MAX_BANKS] = [
    "bank0", "bank1", "bank2", "bank3", "bank4", "bank5", "bank6", "bank7", "bank8", "bank9",
    "bank10", "bank11", "bank12", "bank13", "bank14", "bank15",
];

/// Address-interleaved multi-bank SRAM fabric.
///
/// The SRAM address space is striped across `banks` single-ported banks in
/// `interleave_bytes` chunks: chunk *i* of a transfer lands in bank
/// `(addr / interleave) % banks`. Each bank arbitrates its own requests
/// in arrival order (an independent [`Bus`] per bank, reads and writes
/// sharing the port); the chunks of one transfer issue concurrently and
/// the transfer completes when its slowest chunk does. Wide transfers
/// therefore stream out of `banks` ports at once — the bandwidth scaling
/// the shared bus cannot offer — while transfers colliding on a bank
/// still serialize, which the per-bank stats and the contention counter
/// make visible.
#[derive(Debug)]
pub struct MultiBankFabric {
    banks: Vec<Bus>,
    interleave: u32,
    contended: u64,
    trace: Option<TraceHandle>,
}

impl MultiBankFabric {
    /// A new idle fabric with `banks` banks of `interleave_bytes` stripe.
    pub fn new(banks: u32, interleave_bytes: u32, bank: BusConfig) -> Self {
        assert!(
            (1..=MAX_BANKS as u32).contains(&banks),
            "bank count must be in 1..={MAX_BANKS}"
        );
        assert!(
            interleave_bytes.is_power_of_two(),
            "interleave must be a power of two"
        );
        MultiBankFabric {
            banks: (0..banks as usize)
                .map(|i| Bus::new(BANK_NAMES[i], bank))
                .collect(),
            interleave: interleave_bytes,
            contended: 0,
            trace: None,
        }
    }

    fn bank_of(&self, addr: u32) -> usize {
        ((addr / self.interleave) as usize) % self.banks.len()
    }
}

impl DataFabric for MultiBankFabric {
    fn kind(&self) -> &'static str {
        "multibank"
    }

    /// Banks are real, separately arbitrated nodes: placement can
    /// spread hot streams across them via buffer alignment.
    fn topology(&self) -> FabricTopology {
        FabricTopology {
            kind: self.kind(),
            banks: self.banks.len(),
            interleave_bytes: self.interleave,
            mesh: None,
            private_ports: false,
            hop_cycles: 0,
        }
    }

    fn request(
        &mut self,
        _requester: usize,
        dir: FabricDir,
        now: Cycle,
        addr: u32,
        bytes: u32,
    ) -> Transfer {
        let _ = dir;
        debug_assert!(bytes > 0, "zero-byte fabric transaction");
        // Split the transfer at interleave boundaries; chunks issue
        // concurrently, each arbitrating on its own bank.
        //
        // Contended-wait accounting distinguishes *external* contention
        // (the bank was busy with someone else's transfer when our first
        // chunk arrived) from *self-serialization* (a wide transfer
        // wrapping around the stripe queues behind its own earlier chunk
        // on the same bank). Only the first chunk landing on each bank
        // can wait on external traffic; later chunks on that bank wait
        // behind ourselves, which is bandwidth, not contention. A bank
        // freed exactly at `now` (`now == next_free`) grants immediately
        // with zero wait — the grant boundary is not contention either.
        let mut a = addr;
        let mut remaining = bytes;
        let mut start = Cycle::MAX;
        let mut done = 0;
        let mut wait = 0;
        let mut banks_touched = 0u32;
        while remaining > 0 {
            let in_chunk = (self.interleave - a % self.interleave).min(remaining);
            let bank = self.bank_of(a);
            let first_touch = banks_touched & (1 << bank) == 0;
            banks_touched |= 1 << bank;
            let t = self.banks[bank].request(now, in_chunk);
            if first_touch && t.wait > 0 {
                self.contended += 1;
                wait = wait.max(t.wait);
            }
            if let Some(h) = &self.trace {
                h.emit(
                    t.start,
                    TraceEventKind::BankGrant {
                        bank: bank as u32,
                        bytes: in_chunk,
                        wait: t.wait,
                    },
                );
            }
            start = start.min(t.start);
            done = done.max(t.done);
            a += in_chunk;
            remaining -= in_chunk;
        }
        Transfer { start, done, wait }
    }

    fn attach_trace(&mut self, sink: &SharedTraceSink) {
        self.trace = Some(TraceHandle::new(sink, "fabric/multibank"));
    }

    fn ports(&self) -> Vec<FabricPort<'_>> {
        self.banks
            .iter()
            .map(|b| FabricPort {
                name: b.name(),
                stats: b.stats(),
            })
            .collect()
    }

    fn contended_requests(&self) -> u64 {
        self.contended
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.banks.len());
        for bank in &self.banks {
            bank.save(w);
        }
        w.u64(self.contended);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n != self.banks.len() {
            return Err(SnapError::Corrupt("fabric bank count"));
        }
        for bank in &mut self.banks {
            bank.load(r)?;
        }
        self.contended = r.u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Upper bound on [`PrivatePortFabric`] requesters (port names are
/// static strings).
pub const MAX_PORTS: usize = 16;

const PORT_READ_NAMES: [&str; MAX_PORTS] = [
    "p0.rd", "p1.rd", "p2.rd", "p3.rd", "p4.rd", "p5.rd", "p6.rd", "p7.rd", "p8.rd", "p9.rd",
    "p10.rd", "p11.rd", "p12.rd", "p13.rd", "p14.rd", "p15.rd",
];
const PORT_WRITE_NAMES: [&str; MAX_PORTS] = [
    "p0.wr", "p1.wr", "p2.wr", "p3.wr", "p4.wr", "p5.wr", "p6.wr", "p7.wr", "p8.wr", "p9.wr",
    "p10.wr", "p11.wr", "p12.wr", "p13.wr", "p14.wr", "p15.wr",
];

/// One requester's private read/write port pair.
#[derive(Debug, Clone)]
struct PrivatePort {
    read: Bus,
    write: Bus,
}

/// Per-requester private ports into the interleaved SRAM banks, through
/// a worst-case-provisioned crossbar — the paper's §4 memory
/// architecture, where every coprocessor shell owns its own port into
/// the embedded SRAM and streams never contend on a single arbiter.
///
/// Timing model: a request issued at `now` by shell `s` pays the static
/// crossbar grant bound `grant_cycles` (every request, hit or miss — the
/// crossbar is provisioned for the worst case, e.g. a TDM wheel that
/// guarantees each of `P` ports one grant slot every `P` cycles even
/// when all ports storm the same bank), then streams over shell `s`'s
/// private port [`Bus`]. No state whatsoever is shared between
/// requesters, so one shell's traffic *cannot* move another shell's
/// grant or completion times. The only waiting a request can experience
/// is the grant floor plus queueing behind the same shell's earlier
/// transfer on its own port; that self-queueing is what the contention
/// counter reports.
#[derive(Debug)]
pub struct PrivatePortFabric {
    /// Port `s` serves requester (shell) `s`; grown lazily on first use
    /// (growth creates every intermediate port, so the vector length —
    /// and the snapshot — depend only on the highest requester seen).
    ports: Vec<PrivatePort>,
    grant: Cycle,
    port_cfg: BusConfig,
    contended: u64,
    trace: Option<TraceHandle>,
}

impl PrivatePortFabric {
    /// A new idle fabric with the given static grant bound (>= 1).
    pub fn new(grant_cycles: Cycle, port: BusConfig) -> Self {
        assert!(
            grant_cycles >= 1,
            "the crossbar grant bound must be positive"
        );
        PrivatePortFabric {
            ports: Vec::new(),
            grant: grant_cycles,
            port_cfg: port,
            contended: 0,
            trace: None,
        }
    }

    fn port_pair(&mut self, requester: usize) -> &mut PrivatePort {
        assert!(
            requester < MAX_PORTS,
            "requester {requester} exceeds the {MAX_PORTS}-port crossbar"
        );
        while self.ports.len() <= requester {
            let i = self.ports.len();
            self.ports.push(PrivatePort {
                read: Bus::new(PORT_READ_NAMES[i], self.port_cfg),
                write: Bus::new(PORT_WRITE_NAMES[i], self.port_cfg),
            });
        }
        &mut self.ports[requester]
    }
}

impl DataFabric for PrivatePortFabric {
    fn kind(&self) -> &'static str {
        "private-port"
    }

    /// Distance-free: every port reaches every interleaved bank at the
    /// same cost, so placement gains nothing from bank spreading here —
    /// but the private ports mean load, not arbitration, is the axis.
    fn topology(&self) -> FabricTopology {
        FabricTopology {
            kind: self.kind(),
            banks: 1,
            interleave_bytes: 0,
            mesh: None,
            private_ports: true,
            hop_cycles: 0,
        }
    }

    fn request(
        &mut self,
        requester: usize,
        dir: FabricDir,
        now: Cycle,
        _addr: u32,
        bytes: u32,
    ) -> Transfer {
        debug_assert!(bytes > 0, "zero-byte fabric transaction");
        let grant = self.grant;
        let pair = self.port_pair(requester);
        let bus = match dir {
            FabricDir::Read => &mut pair.read,
            FabricDir::Write => &mut pair.write,
        };
        // The crossbar always charges its worst-case grant bound, then
        // the private port streams the data; queueing can only be behind
        // this requester's own earlier transfers.
        let t = bus.request(now + grant, bytes);
        let wait = t.start - now;
        if t.wait > 0 {
            self.contended += 1;
        }
        if let Some(h) = &self.trace {
            h.emit(
                t.start,
                TraceEventKind::BankGrant {
                    bank: requester as u32,
                    bytes,
                    wait,
                },
            );
        }
        Transfer {
            start: t.start,
            done: t.done,
            wait,
        }
    }

    fn attach_trace(&mut self, sink: &SharedTraceSink) {
        self.trace = Some(TraceHandle::new(sink, "fabric/private-port"));
    }

    fn ports(&self) -> Vec<FabricPort<'_>> {
        let mut out = Vec::with_capacity(self.ports.len() * 2);
        for p in &self.ports {
            out.push(FabricPort {
                name: p.read.name(),
                stats: p.read.stats(),
            });
            out.push(FabricPort {
                name: p.write.name(),
                stats: p.write.stats(),
            });
        }
        out
    }

    fn contended_requests(&self) -> u64 {
        self.contended
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.ports.len());
        for p in &self.ports {
            p.read.save(w);
            p.write.save(w);
        }
        w.u64(self.contended);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n > MAX_PORTS {
            return Err(SnapError::Corrupt("fabric port count"));
        }
        self.ports.clear();
        for i in 0..n {
            self.ports.push(PrivatePort {
                read: Bus::new(PORT_READ_NAMES[i], self.port_cfg),
                write: Bus::new(PORT_WRITE_NAMES[i], self.port_cfg),
            });
            let p = self.ports.last_mut().expect("just pushed");
            p.read.load(r)?;
            p.write.load(r)?;
        }
        self.contended = r.u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Cumulative transport counters of one directed mesh link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Chunk traversals routed over the link.
    pub traversals: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Cycles the link was occupied carrying those bytes.
    pub busy_cycles: u64,
}

impl Snapshot for LinkStats {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.traversals);
        w.u64(self.bytes);
        w.u64(self.busy_cycles);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.traversals = r.u64()?;
        self.bytes = r.u64()?;
        self.busy_cycles = r.u64()?;
        Ok(())
    }
}

/// A `cols × rows` mesh NoC of SRAM bank nodes with XY routing — the
/// distributed-memory alternative to the centralized crossbar, after
/// the 2-D mesh interconnects of network-processor designs.
///
/// **Structure.** The SRAM address space interleaves across the
/// `cols × rows` bank nodes in `interleave_bytes` chunks (chunk *i* of
/// a transfer lives on node `(addr / interleave) % nodes`). Requester
/// (shell) `s` injects at node `s % nodes` through a private port pair,
/// and a chunk reaches its bank over the XY route between the two
/// nodes.
///
/// **Timing.** Every link is a TDM wheel provisioned for the worst
/// case: each requester owns a guaranteed grant slot every `link_grant`
/// cycles on every link it can reach, so a request never waits on
/// *another* requester — it statically pays `link_grant` for its
/// injection slot plus `link_grant + hop_cycles` per traversed link of
/// its longest chunk route, then streams over its private port. Because
/// of that static provisioning, requester timing state is fully
/// disjoint, as on [`PrivatePortFabric`]. The only queueing is behind
/// the same requester's earlier transfers on its own injection port
/// (reported by the contention counter).
///
/// **Accounting.** Per-link occupancy/byte/traversal counters record
/// where the traffic actually flowed — purely observational (they never
/// feed back into timing).
#[derive(Debug)]
pub struct MeshDataFabric {
    geom: MeshGeometry,
    interleave: u32,
    link_grant: Cycle,
    hop_cycles: Cycle,
    port_cfg: BusConfig,
    /// Port `s` serves requester `s`; grown lazily like
    /// [`PrivatePortFabric`].
    ports: Vec<PrivatePort>,
    links: Vec<LinkStats>,
    contended: u64,
    trace: Option<TraceHandle>,
}

impl MeshDataFabric {
    /// A new idle `cols × rows` mesh.
    pub fn new(
        cols: usize,
        rows: usize,
        interleave_bytes: u32,
        link_grant: Cycle,
        hop_cycles: Cycle,
        port: BusConfig,
    ) -> Self {
        let geom = MeshGeometry::new(cols, rows);
        assert!(
            geom.nodes() <= MAX_BANKS,
            "mesh node count must not exceed {MAX_BANKS}"
        );
        assert!(
            interleave_bytes.is_power_of_two(),
            "interleave must be a power of two"
        );
        assert!(link_grant >= 1, "the link grant slot must be positive");
        MeshDataFabric {
            links: vec![LinkStats::default(); geom.n_links()],
            geom,
            interleave: interleave_bytes,
            link_grant,
            hop_cycles,
            port_cfg: port,
            ports: Vec::new(),
            contended: 0,
            trace: None,
        }
    }

    /// The grid geometry (shared with the sync-plane mesh).
    pub fn geometry(&self) -> MeshGeometry {
        self.geom
    }

    /// Per-directed-link transport counters, in stable link-id order.
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.links
    }

    /// Total byte·hops carried (Σ over links of bytes) — the transport
    /// quantity the energy model charges per link traversal.
    pub fn byte_hops(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Whether any injection port still holds a grant beyond `now` —
    /// i.e. a chunk is mid-route through the mesh. Lets checkpoint
    /// tests pick a save point with data transfers genuinely in flight.
    pub fn in_flight(&self, now: Cycle) -> bool {
        self.ports
            .iter()
            .any(|p| p.read.busy_until() > now || p.write.busy_until() > now)
    }

    fn bank_of(&self, addr: u32) -> usize {
        ((addr / self.interleave) as usize) % self.geom.nodes()
    }

    fn port_pair(&mut self, requester: usize) -> &mut PrivatePort {
        assert!(
            requester < MAX_PORTS,
            "requester {requester} exceeds the {MAX_PORTS}-port mesh"
        );
        while self.ports.len() <= requester {
            let i = self.ports.len();
            self.ports.push(PrivatePort {
                read: Bus::new(PORT_READ_NAMES[i], self.port_cfg),
                write: Bus::new(PORT_WRITE_NAMES[i], self.port_cfg),
            });
        }
        &mut self.ports[requester]
    }

    /// Cycles one chunk occupies a link (beats at the port width).
    fn chunk_occupancy(&self, bytes: u32) -> u64 {
        (bytes as u64).div_ceil(self.port_cfg.width_bytes as u64) * self.port_cfg.cycles_per_beat
    }
}

impl DataFabric for MeshDataFabric {
    fn kind(&self) -> &'static str {
        "mesh"
    }

    fn topology(&self) -> FabricTopology {
        FabricTopology {
            kind: self.kind(),
            banks: self.geom.nodes(),
            interleave_bytes: self.interleave,
            mesh: Some((self.geom.cols, self.geom.rows)),
            private_ports: true,
            hop_cycles: self.hop_cycles,
        }
    }

    fn request(
        &mut self,
        requester: usize,
        dir: FabricDir,
        now: Cycle,
        addr: u32,
        bytes: u32,
    ) -> Transfer {
        debug_assert!(bytes > 0, "zero-byte fabric transaction");
        let src = requester % self.geom.nodes();
        // Pass 1 over the interleave chunks: hop depth of the farthest
        // bank (sets the route latency) and per-link accounting. Reads
        // flow bank → requester, writes requester → bank; XY timing is
        // symmetric, but the occupancy lands on the actual direction.
        let mut a = addr;
        let mut remaining = bytes;
        let mut hops_max = 0u64;
        while remaining > 0 {
            let in_chunk = (self.interleave - a % self.interleave).min(remaining);
            let bank = self.bank_of(a);
            hops_max = hops_max.max(self.geom.distance(src, bank));
            let occupancy = self.chunk_occupancy(in_chunk);
            let (from, to) = match dir {
                FabricDir::Read => (bank, src),
                FabricDir::Write => (src, bank),
            };
            let links = &mut self.links;
            self.geom.route(from, to, |l| {
                links[l].traversals += 1;
                links[l].bytes += in_chunk as u64;
                links[l].busy_cycles += occupancy;
            });
            a += in_chunk;
            remaining -= in_chunk;
        }
        // Injection grant slot, then one (grant slot + hop) per link of
        // the deepest route; the chunks pipeline behind the head flit.
        let route = self.link_grant + hops_max * (self.link_grant + self.hop_cycles);
        let pair = self.port_pair(requester);
        let bus = match dir {
            FabricDir::Read => &mut pair.read,
            FabricDir::Write => &mut pair.write,
        };
        let t = bus.request(now + route, bytes);
        let wait = t.start - now;
        if t.wait > 0 {
            self.contended += 1;
        }
        if let Some(h) = &self.trace {
            h.emit(
                t.start,
                TraceEventKind::BankGrant {
                    bank: self.bank_of(addr) as u32,
                    bytes,
                    wait,
                },
            );
        }
        Transfer {
            start: t.start,
            done: t.done,
            wait,
        }
    }

    fn attach_trace(&mut self, sink: &SharedTraceSink) {
        self.trace = Some(TraceHandle::new(sink, "fabric/mesh"));
    }

    fn ports(&self) -> Vec<FabricPort<'_>> {
        let mut out = Vec::with_capacity(self.ports.len() * 2);
        for p in &self.ports {
            out.push(FabricPort {
                name: p.read.name(),
                stats: p.read.stats(),
            });
            out.push(FabricPort {
                name: p.write.name(),
                stats: p.write.stats(),
            });
        }
        out
    }

    fn contended_requests(&self) -> u64 {
        self.contended
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.ports.len());
        for p in &self.ports {
            p.read.save(w);
            p.write.save(w);
        }
        w.usize(self.links.len());
        for l in &self.links {
            l.save(w);
        }
        w.u64(self.contended);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n > MAX_PORTS {
            return Err(SnapError::Corrupt("fabric port count"));
        }
        self.ports.clear();
        for i in 0..n {
            self.ports.push(PrivatePort {
                read: Bus::new(PORT_READ_NAMES[i], self.port_cfg),
                write: Bus::new(PORT_WRITE_NAMES[i], self.port_cfg),
            });
            let p = self.ports.last_mut().expect("just pushed");
            p.read.load(r)?;
            p.write.load(r)?;
        }
        let nl = r.usize()?;
        if nl != self.links.len() {
            return Err(SnapError::Corrupt("mesh link count"));
        }
        for l in &mut self.links {
            l.load(r)?;
        }
        self.contended = r.u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BusConfig {
        BusConfig {
            width_bytes: 16,
            latency: 1,
            cycles_per_beat: 1,
        }
    }

    #[test]
    fn shared_bus_fabric_matches_raw_buses() {
        let mut fabric = SharedBusFabric::new(cfg(), cfg());
        let mut read = Bus::new("read", cfg());
        let mut write = Bus::new("write", cfg());
        for (i, &(dir, addr, bytes)) in [
            (FabricDir::Read, 0u32, 64u32),
            (FabricDir::Read, 4096, 16),
            (FabricDir::Write, 128, 48),
            (FabricDir::Read, 64, 64),
            (FabricDir::Write, 128, 17),
        ]
        .iter()
        .enumerate()
        {
            let now = (i as u64) * 3;
            let expect = match dir {
                FabricDir::Read => read.request(now, bytes),
                FabricDir::Write => write.request(now, bytes),
            };
            assert_eq!(fabric.request(i % 3, dir, now, addr, bytes), expect);
        }
        let ports = fabric.ports();
        assert_eq!(ports[0].name, "read");
        assert_eq!(ports[0].stats.transactions, read.stats().transactions);
        assert_eq!(ports[1].stats.bytes, write.stats().bytes);
    }

    #[test]
    fn multibank_stripes_across_banks() {
        // 4 banks, 64 B interleave: a 256 B line-aligned transfer touches
        // all four banks once and finishes in one bank's chunk time.
        let mut f = MultiBankFabric::new(4, 64, cfg());
        let t = f.request(0, FabricDir::Read, 0, 0, 256);
        // Each chunk: 4 beats + latency 1 → done at 5, concurrently.
        assert_eq!(
            t,
            Transfer {
                start: 0,
                done: 5,
                wait: 0
            }
        );
        for p in f.ports() {
            assert_eq!(p.stats.transactions, 1);
            assert_eq!(p.stats.bytes, 64);
        }
        assert_eq!(f.contended_requests(), 0);
    }

    #[test]
    fn multibank_collisions_serialize_on_one_bank() {
        let mut f = MultiBankFabric::new(4, 64, cfg());
        // Two transfers to the same bank at the same cycle: second waits.
        let t1 = f.request(0, FabricDir::Read, 0, 0, 64);
        let t2 = f.request(1, FabricDir::Write, 0, 256, 64); // 256/64 % 4 == bank 0
        assert_eq!(t1.wait, 0);
        assert!(t2.wait > 0);
        assert_eq!(f.contended_requests(), 1);
    }

    #[test]
    fn multibank_splits_unaligned_transfers() {
        let mut f = MultiBankFabric::new(2, 64, cfg());
        // 100 B starting at 32: chunks of 32 (bank 0), 64 (bank 1), 4 (bank 0).
        f.request(0, FabricDir::Read, 0, 32, 100);
        let ports = f.ports();
        assert_eq!(ports[0].stats.transactions, 2);
        assert_eq!(ports[0].stats.bytes, 36);
        assert_eq!(ports[1].stats.transactions, 1);
        assert_eq!(ports[1].stats.bytes, 64);
    }

    #[test]
    fn fabric_conserves_bytes() {
        let mut shared: Box<dyn DataFabric> = DataFabricConfig::SharedBus {
            read: cfg(),
            write: cfg(),
        }
        .build();
        let mut banked: Box<dyn DataFabric> = DataFabricConfig::MultiBank {
            banks: 8,
            interleave_bytes: 64,
            bank: cfg(),
        }
        .build();
        let mut private: Box<dyn DataFabric> = DataFabricConfig::PrivatePort {
            grant_cycles: 2,
            port: cfg(),
        }
        .build();
        let mut total = 0u64;
        let mut state = 0x1234_5678_9abc_def0u64;
        for i in 0..500u64 {
            // Cheap xorshift so the traffic pattern is irregular.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = (state as u32) % 32768;
            let bytes = (state >> 32) as u32 % 200 + 1;
            let dir = if state & 1 == 0 {
                FabricDir::Read
            } else {
                FabricDir::Write
            };
            let requester = (state >> 48) as usize % 4;
            total += bytes as u64;
            let a = shared.request(requester, dir, i, addr, bytes);
            let b = banked.request(requester, dir, i, addr, bytes);
            let c = private.request(requester, dir, i, addr, bytes);
            for t in [a, b, c] {
                assert!(t.start >= i);
                // `wait` reflects externally-contended grants; `start` the
                // earliest chunk's grant — so wait bounds (start - now)
                // from above.
                assert!(t.wait >= t.start - i);
                assert!(t.done > t.start);
            }
        }
        for f in [&shared, &banked, &private] {
            let carried: u64 = f.ports().iter().map(|p| p.stats.bytes).sum();
            assert_eq!(carried, total, "{} must carry every byte", f.kind());
        }
    }

    /// Satellite-2 regression: a requester arriving exactly at the cycle a
    /// resource becomes free (`now == next_free`) is granted immediately —
    /// zero wait, and the fabric does NOT count a contended grant. Pinned
    /// for every fabric, old and new.
    #[test]
    fn boundary_cycle_grant_is_uncontended_on_every_fabric() {
        // cfg(): 64 B → 4 beats; a request at `now` occupies the bus until
        // `start + 4`, completing (latency 1) at `start + 5`.
        // Each fabric with the static grant floor every request pays.
        let fabrics: Vec<(Box<dyn DataFabric>, Cycle)> = vec![
            (
                DataFabricConfig::SharedBus {
                    read: cfg(),
                    write: cfg(),
                }
                .build(),
                0,
            ),
            (
                DataFabricConfig::MultiBank {
                    banks: 4,
                    interleave_bytes: 64,
                    bank: cfg(),
                }
                .build(),
                0,
            ),
            (
                DataFabricConfig::PrivatePort {
                    grant_cycles: 3,
                    port: cfg(),
                }
                .build(),
                3,
            ),
        ];
        for (mut f, grant) in fabrics {
            let kind = f.kind();
            let t1 = f.request(0, FabricDir::Read, 0, 0, 64);
            assert_eq!(t1.wait, grant, "{kind}: idle fabric charges only its floor");
            // The port frees at start + beats; arrive so the (possibly
            // grant-delayed) issue lands exactly on that boundary cycle.
            let free_at = t1.start + 4;
            let now2 = free_at - grant;
            let t2 = f.request(0, FabricDir::Read, now2, 0, 64);
            assert_eq!(
                t2.wait, grant,
                "{kind}: boundary-cycle arrival must not queue"
            );
            assert_eq!(t2.start, free_at);
            assert_eq!(
                f.contended_requests(),
                0,
                "{kind}: boundary-cycle grants are not contention"
            );
        }
    }

    /// Satellite-2 regression: a wide transfer wrapping the bank stripe
    /// serializes behind *itself* on each bank — that is occupancy, not
    /// contention, and must inflate neither `wait` nor the contended
    /// count.
    #[test]
    fn multibank_self_serialization_is_not_contention() {
        let mut f = MultiBankFabric::new(2, 64, cfg());
        // 256 B over 2 banks: chunks land bank0, bank1, bank0, bank1 —
        // the second visit to each bank queues behind the first.
        let t = f.request(0, FabricDir::Read, 0, 0, 256);
        assert_eq!(t.start, 0);
        assert_eq!(t.wait, 0, "self-serialization must not report as wait");
        assert!(t.done > 5, "wrap-around chunks do serialize in time");
        assert_eq!(f.contended_requests(), 0);
        // A genuinely foreign collision still counts.
        let t2 = f.request(1, FabricDir::Read, 0, 0, 64);
        assert!(t2.wait > 0);
        assert_eq!(f.contended_requests(), 1);
    }

    #[test]
    fn private_port_charges_constant_grant_floor() {
        let mut f = PrivatePortFabric::new(2, cfg());
        assert_eq!(f.kind(), "private-port");
        let t = f.request(0, FabricDir::Read, 10, 0, 64);
        assert_eq!(
            t,
            Transfer {
                start: 12,
                done: 17,
                wait: 2
            }
        );
        // Reads and writes ride separate port buses: no cross-queueing.
        let w = f.request(0, FabricDir::Write, 10, 0, 64);
        assert_eq!(w, t);
        assert_eq!(f.contended_requests(), 0);
    }

    #[test]
    fn private_ports_are_independent_across_requesters() {
        // Storm requester 0, then check requester 1 sees virgin timing.
        let mut stormed = PrivatePortFabric::new(1, cfg());
        for i in 0..32u64 {
            stormed.request(0, FabricDir::Read, i, 0, 128);
        }
        let mut fresh = PrivatePortFabric::new(1, cfg());
        for now in [100u64, 101, 103] {
            let a = stormed.request(1, FabricDir::Read, now, 64, 64);
            let b = fresh.request(1, FabricDir::Read, now, 64, 64);
            assert_eq!(a, b, "requester 1 must be untouched by requester 0");
        }
        // Requester 0's own back-to-back queueing did register.
        assert!(stormed.contended_requests() > 0);
        // Growth created ports 0 and 1 (read+write each).
        assert_eq!(stormed.ports().len(), 4);
        assert_eq!(stormed.ports()[2].name, "p1.rd");
    }

    #[test]
    fn private_port_snapshot_roundtrip_mid_contention() {
        let mut f = PrivatePortFabric::new(2, cfg());
        // Pile up in-flight occupancy on ports 0 and 2 (growing three
        // ports) so arbiter cursors are mid-contention at save time.
        for i in 0..8u64 {
            f.request(0, FabricDir::Read, i, 0, 192);
            f.request(2, FabricDir::Write, i, 64, 192);
        }
        let mut w = SnapWriter::new();
        f.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut g = PrivatePortFabric::new(2, cfg());
        let mut r = SnapReader::new(&bytes);
        g.load_state(&mut r).expect("load");

        // Identical future behaviour, stats, and re-saved bytes.
        for (req, dir, now) in [
            (0usize, FabricDir::Read, 8u64),
            (2, FabricDir::Write, 8),
            (1, FabricDir::Read, 9),
        ] {
            assert_eq!(
                f.request(req, dir, now, 0, 64),
                g.request(req, dir, now, 0, 64)
            );
        }
        assert_eq!(f.contended_requests(), g.contended_requests());
        let (mut wf, mut wg) = (SnapWriter::new(), SnapWriter::new());
        f.save_state(&mut wf);
        g.save_state(&mut wg);
        assert_eq!(wf.into_bytes(), wg.into_bytes());
    }

    #[test]
    fn mesh_geometry_xy_routes() {
        let g = MeshGeometry::new(3, 2);
        assert_eq!(g.nodes(), 6);
        // east/west: 2 per row × 2 rows × 2 dirs = 8; north/south:
        // 3 cols × 1 × 2 dirs = 6.
        assert_eq!(g.n_links(), 14);
        assert_eq!(g.distance(0, 5), 3); // (0,0) -> (2,1)
        assert_eq!(g.distance(4, 4), 0);
        // XY: 0 -> 5 goes east, east, then south; 5 -> 0 mirrors with
        // west/north links — different directed ids.
        let mut fwd = Vec::new();
        g.route(0, 5, |l| fwd.push(l));
        let mut back = Vec::new();
        g.route(5, 0, |l| back.push(l));
        assert_eq!(fwd.len(), 3);
        assert_eq!(back.len(), 3);
        assert!(fwd.iter().all(|l| !back.contains(l)));
        // Every route stays within the link table.
        for a in 0..6 {
            for b in 0..6 {
                let mut n = 0;
                g.route(a, b, |l| {
                    assert!(l < g.n_links());
                    n += 1;
                });
                assert_eq!(n as u64, g.distance(a, b));
            }
        }
    }

    #[test]
    fn mesh_charges_grant_plus_hops() {
        // 2×2 grid, 64 B interleave. Requester 0 injects at node 0.
        let mut f = MeshDataFabric::new(2, 2, 64, 2, 3, cfg());
        assert_eq!(f.kind(), "mesh");
        // addr 0 → bank 0: zero hops, pays only the injection slot.
        let local = f.request(0, FabricDir::Read, 10, 0, 64);
        assert_eq!(local.start, 12);
        assert_eq!(local.wait, 2);
        // addr 3*64 → bank 3: 2 hops from node 0, each hop 2+3.
        let mut g = MeshDataFabric::new(2, 2, 64, 2, 3, cfg());
        let far = g.request(0, FabricDir::Read, 10, 192, 64);
        assert_eq!(far.start, 10 + 2 + 2 * (2 + 3));
        // The route's links carry the chunk (read: bank → requester).
        assert_eq!(g.link_stats().iter().map(|l| l.bytes).sum::<u64>(), 128);
        assert_eq!(g.byte_hops(), 128);
        assert_eq!(g.link_stats().iter().map(|l| l.traversals).sum::<u64>(), 2);
    }

    #[test]
    fn mesh_requesters_are_independent() {
        let mut stormed = MeshDataFabric::new(2, 2, 64, 1, 1, cfg());
        for i in 0..32u64 {
            stormed.request(0, FabricDir::Read, i, 0, 128);
        }
        let mut fresh = MeshDataFabric::new(2, 2, 64, 1, 1, cfg());
        for now in [100u64, 101, 103] {
            let a = stormed.request(1, FabricDir::Read, now, 64, 64);
            let b = fresh.request(1, FabricDir::Read, now, 64, 64);
            assert_eq!(a, b, "requester 1 must be untouched by requester 0");
        }
        assert!(stormed.contended_requests() > 0);
    }

    #[test]
    fn mesh_conserves_bytes_on_ports() {
        let mut f = MeshDataFabric::new(2, 2, 64, 2, 1, cfg());
        let mut total = 0u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..300u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = (state as u32) % 32768;
            let bytes = (state >> 32) as u32 % 200 + 1;
            let dir = if state & 1 == 0 {
                FabricDir::Read
            } else {
                FabricDir::Write
            };
            total += bytes as u64;
            let t = f.request((state >> 48) as usize % 4, dir, i, addr, bytes);
            assert!(t.start >= i);
            assert!(t.wait >= t.start - i);
            assert!(t.done > t.start);
        }
        let carried: u64 = f.ports().iter().map(|p| p.stats.bytes).sum();
        assert_eq!(carried, total, "mesh ports must carry every byte");
    }

    #[test]
    fn mesh_topology_describes_grid() {
        let f = MeshDataFabric::new(4, 2, 64, 2, 1, cfg());
        let t = f.topology();
        assert_eq!(t.kind, "mesh");
        assert_eq!(t.banks, 8);
        assert_eq!(t.mesh, Some((4, 2)));
        assert!(t.private_ports);
        assert_eq!(t.requester_node(9), 1);
        assert_eq!(t.distance(0, 7), 4);
        // Non-mesh fabrics report distance-free topologies.
        let shared = SharedBusFabric::new(cfg(), cfg());
        let ut = shared.topology();
        assert_eq!(ut.banks, 1);
        assert_eq!(ut.distance(0, 1), 0);
        let banked = MultiBankFabric::new(4, 64, cfg());
        assert_eq!(banked.topology().banks, 4);
        assert_eq!(banked.topology().interleave_bytes, 64);
    }

    #[test]
    fn config_topology_matches_built_fabric() {
        let cfgs = [
            DataFabricConfig::SharedBus {
                read: cfg(),
                write: cfg(),
            },
            DataFabricConfig::MultiBank {
                banks: 4,
                interleave_bytes: 64,
                bank: cfg(),
            },
            DataFabricConfig::PrivatePort {
                grant_cycles: 2,
                port: cfg(),
            },
            DataFabricConfig::Mesh {
                cols: 2,
                rows: 2,
                interleave_bytes: 64,
                link_grant: 2,
                hop_cycles: 1,
                port: cfg(),
            },
        ];
        for c in cfgs {
            assert_eq!(c.topology(), c.build().topology());
        }
    }

    #[test]
    fn mesh_snapshot_roundtrip_mid_flight() {
        // Pile in-flight occupancy on two injection ports and traffic
        // over several links, then checkpoint mid-contention.
        let mut f = MeshDataFabric::new(2, 2, 64, 2, 1, cfg());
        for i in 0..8u64 {
            f.request(0, FabricDir::Read, i, 192, 192);
            f.request(2, FabricDir::Write, i, 64, 192);
        }
        let mut w = SnapWriter::new();
        f.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut g = MeshDataFabric::new(2, 2, 64, 2, 1, cfg());
        let mut r = SnapReader::new(&bytes);
        g.load_state(&mut r).expect("load");

        for (req, dir, now) in [
            (0usize, FabricDir::Read, 8u64),
            (2, FabricDir::Write, 8),
            (1, FabricDir::Read, 9),
        ] {
            assert_eq!(
                f.request(req, dir, now, 128, 64),
                g.request(req, dir, now, 128, 64)
            );
        }
        assert_eq!(f.contended_requests(), g.contended_requests());
        assert_eq!(f.link_stats(), g.link_stats());
        let (mut wf, mut wg) = (SnapWriter::new(), SnapWriter::new());
        f.save_state(&mut wf);
        g.save_state(&mut wg);
        assert_eq!(wf.into_bytes(), wg.into_bytes());
    }
}
