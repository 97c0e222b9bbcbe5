//! Pluggable data-transport fabrics between the shells and the SRAM.
//!
//! The paper presents Eclipse as a *template*: the instance of Section 6
//! reaches the shared SRAM over one arbitrated read bus and one write bus,
//! but the communication hardware is explicitly a replaceable, scalable
//! component. [`DataFabric`] is that seam. The historical bus pair is the
//! default [`SharedBusFabric`] (timing-identical to the former hardwired
//! `Bus` pair inside `MemSys`). [`BankedFabric`] stripes the SRAM across
//! bank nodes on a [`MeshGeometry`]: a column of banks every requester
//! contends for, one node behind per-requester crossbar ports, or a grid
//! reached over XY-routed links — the bandwidth and timing-independence
//! axes the shared bus closes off.
//!
//! A fabric is purely a *timing* model: the functional byte movement stays
//! in [`crate::sram::Sram`]; the fabric decides when the data is usable.

use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::trace::{SharedTraceSink, TraceEventKind, TraceHandle};
use eclipse_sim::Cycle;

use crate::bus::{Bus, BusConfig, BusStats, Transfer};

/// Direction of a fabric request (selects the bus or port; contended
/// banks arbitrate reads and writes on one port per bank, like a
/// single-ported SRAM bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricDir {
    /// SRAM → shell (cache line fetch).
    Read,
    /// Shell → SRAM (cache line writeback).
    Write,
}

/// Geometry of a `cols × rows` mesh with XY (dimension-ordered)
/// routing — shared by the data-plane [`BankedFabric`] and the
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
}

impl FabricTopology {
    /// A distance-free, single-arbiter topology (the default hook).
    pub fn uniform(kind: &'static str) -> Self {
        FabricTopology {
            kind,
            banks: 1,
            interleave_bytes: 0,
            mesh: None,
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
/// request sequences must produce identical [`Transfer`]s. Reports
/// that need a concrete backend's own counters (e.g. the mesh's
/// per-link byte·hops) downcast through the [`Any`](std::any::Any)
/// supertrait.
pub trait DataFabric: std::any::Any + std::fmt::Debug {
    /// Short backend name for reports ("shared-bus", "multibank", ...).
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

    /// The checkpoint hook: save the fabric's dynamic state (arbiter
    /// clocks, statistics). Stateful backends forward it, and
    /// [`DataFabric::load_state`], to their [`Snapshot`] impl; the
    /// default is a no-op for stateless fabrics.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restore dynamic state written by [`DataFabric::save_state`] into a
    /// fabric built with the same configuration.
    fn load_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Fabric selection, resolved to a backend at system build time. Every
/// variant but `SharedBus` builds a [`BankedFabric`].
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
        /// Number of banks (at most [`MAX_BANKS`]).
        banks: u32,
        /// Bytes per interleave chunk (power of two).
        interleave_bytes: u32,
        /// Per-bank port parameters.
        bank: BusConfig,
    },
    /// Per-requester private ports into the SRAM through a
    /// worst-case-provisioned crossbar: every request pays the static
    /// grant bound `grant_cycles`, and after the grant its private port
    /// carries the data with no cross-requester arbitration at all.
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

/// A [`DataFabricConfig`] rule that [`DataFabricConfig::validate`] found
/// broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricConfigError {
    /// A `MultiBank` bank count outside `1..=MAX_BANKS`.
    BankCount(u32),
    /// An interleave stripe that is not a power of two.
    Interleave(u32),
    /// A mesh whose `cols × rows` node count is outside `1..=MAX_BANKS`.
    MeshNodes {
        /// Grid width.
        cols: u32,
        /// Grid height.
        rows: u32,
    },
    /// A zero `grant_cycles` or `link_grant`.
    ZeroGrant,
    /// A bus or port with a zero-byte data path.
    ZeroPortWidth,
}

impl std::fmt::Display for FabricConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use FabricConfigError as E;
        match self {
            E::BankCount(n) => write!(f, "bank count {n} is outside 1..={MAX_BANKS}"),
            E::Interleave(n) => write!(f, "interleave {n} is not a power of two"),
            E::MeshNodes { cols, rows } => {
                write!(f, "a {cols}x{rows} mesh is outside 1..={MAX_BANKS} nodes")
            }
            E::ZeroGrant => write!(f, "the grant slot must be positive"),
            E::ZeroPortWidth => write!(f, "a port must be at least one byte wide"),
        }
    }
}

impl std::error::Error for FabricConfigError {}

impl DataFabricConfig {
    /// Instantiate the configured backend.
    ///
    /// Panics, naming the [`FabricConfigError`], on a configuration
    /// [`DataFabricConfig::validate`] rejects: every variant is checked
    /// here, before a bad one could fail on its first request.
    pub fn build(self) -> Box<dyn DataFabric> {
        if let Err(e) = self.validate() {
            panic!("invalid data fabric: {e} ({e:?})");
        }
        match self {
            DataFabricConfig::SharedBus { read, write } => {
                Box::new(SharedBusFabric::new(read, write))
            }
            banked => Box::new(BankedFabric::new(banked)),
        }
    }

    /// Check every rule [`DataFabricConfig::build`] relies on, so a bad
    /// configuration is a typed error instead of a panic at build or
    /// run time.
    pub fn validate(&self) -> Result<(), FabricConfigError> {
        use DataFabricConfig as C;
        use FabricConfigError as E;
        let (widths, grant, stripe) = match *self {
            C::SharedBus { read, write } => ([read.width_bytes, write.width_bytes], 1, 1),
            C::MultiBank {
                interleave_bytes,
                bank,
                ..
            } => ([bank.width_bytes; 2], 1, interleave_bytes),
            C::PrivatePort { grant_cycles, port } => ([port.width_bytes; 2], grant_cycles, 1),
            C::Mesh {
                interleave_bytes: il,
                link_grant,
                port,
                ..
            } => ([port.width_bytes; 2], link_grant, il),
        };
        let t = self.topology();
        if !(1..=MAX_BANKS).contains(&t.banks) {
            return Err(match t.mesh {
                Some((cols, rows)) => E::MeshNodes {
                    cols: cols as u32,
                    rows: rows as u32,
                },
                None => E::BankCount(t.banks as u32),
            });
        }
        if !stripe.is_power_of_two() {
            return Err(E::Interleave(stripe));
        }
        if grant == 0 {
            return Err(E::ZeroGrant);
        }
        if widths.contains(&0) {
            return Err(E::ZeroPortWidth);
        }
        Ok(())
    }

    /// The topology descriptor the configured backend would publish,
    /// without instantiating it — what the build-time placement pass
    /// reads (matches [`DataFabric::topology`] of the built fabric
    /// exactly, because a built [`BankedFabric`] stores this one).
    pub fn topology(&self) -> FabricTopology {
        use DataFabricConfig as C;
        let (kind, banks, interleave_bytes, mesh) = match *self {
            C::SharedBus { .. } => return FabricTopology::uniform("shared-bus"),
            C::MultiBank {
                banks,
                interleave_bytes,
                ..
            } => ("multibank", banks as usize, interleave_bytes, None),
            C::PrivatePort { .. } => ("private-port", 1, 0, None),
            C::Mesh {
                cols,
                rows,
                interleave_bytes,
                ..
            } => {
                let grid = (cols as usize, rows as usize);
                ("mesh", grid.0 * grid.1, interleave_bytes, Some(grid))
            }
        };
        FabricTopology {
            kind,
            banks,
            interleave_bytes,
            mesh,
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

eclipse_sim::snap_fields!(SharedBusFabric {
    read,
    write,
    contended
});

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
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }
}

/// A boxed fabric checkpoints through its hook.
impl Snapshot for Box<dyn DataFabric> {
    fn save(&self, w: &mut SnapWriter) {
        self.save_state(w);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load_state(r)
    }
}

/// Upper bound on [`BankedFabric`] bank nodes (names are static strings).
pub const MAX_BANKS: usize = 16;

/// Upper bound on requesters of a provisioned [`BankedFabric`] (port
/// names are static strings).
pub const MAX_PORTS: usize = 16;

const BANK_NAMES: [&str; MAX_BANKS] = [
    "bank0", "bank1", "bank2", "bank3", "bank4", "bank5", "bank6", "bank7", "bank8", "bank9",
    "bank10", "bank11", "bank12", "bank13", "bank14", "bank15",
];

/// Requester `s`'s read and write ports sit at `2s` and `2s + 1`.
const PORT_NAMES: [&str; 2 * MAX_PORTS] = [
    "p0.rd", "p0.wr", "p1.rd", "p1.wr", "p2.rd", "p2.wr", "p3.rd", "p3.wr", "p4.rd", "p4.wr",
    "p5.rd", "p5.wr", "p6.rd", "p6.wr", "p7.rd", "p7.wr", "p8.rd", "p8.wr", "p9.rd", "p9.wr",
    "p10.rd", "p10.wr", "p11.rd", "p11.wr", "p12.rd", "p12.wr", "p13.rd", "p13.wr", "p14.rd",
    "p14.wr", "p15.rd", "p15.wr",
];

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

eclipse_sim::snap_fields!(LinkStats {
    traversals,
    bytes,
    busy_cycles
});

/// How a [`BankedFabric`] arbitrates.
#[derive(Debug, Clone, Copy)]
enum Arbitration {
    /// One bus per bank, shared by every requester in arrival order.
    Contended,
    /// Per-requester port pairs behind worst-case-provisioned TDM links:
    /// `grant` per slot, `hop` added per traversed link.
    Provisioned { grant: Cycle, hop: Cycle },
}

/// Address-interleaved SRAM bank nodes on a [`MeshGeometry`] — the one
/// backend of the `MultiBank` (a column of banks), `PrivatePort` (one
/// node) and `Mesh` (a grid) configurations. Chunk *i* of a transfer,
/// cut at `interleave_bytes` boundaries, lives on node
/// `(addr / interleave) % nodes`.
///
/// **Contended** (`MultiBank`). Each bank arbitrates its own requests in
/// arrival order (an independent [`Bus`] per bank, reads and writes
/// sharing the port); the chunks of one transfer issue concurrently and
/// the transfer completes when its slowest chunk does. Wide transfers
/// stream out of all banks at once — the bandwidth scaling the shared
/// bus cannot offer — while transfers colliding on a bank serialize.
///
/// **Provisioned** (`PrivatePort`, `Mesh`). Requester `s` owns a private
/// port pair (`p{s}.rd` / `p{s}.wr`) at node `s % nodes`, and a chunk
/// reaches its bank over the XY route between the two nodes. Every link
/// is a TDM wheel provisioned for the worst case (each requester owns a
/// grant slot every `grant` cycles even when all ports storm one bank),
/// so a request statically pays `grant` for its injection slot plus
/// `grant + hop` per link of its longest chunk route, then streams over
/// its own port. One shell's traffic therefore *cannot* move another
/// shell's timing; the only queueing is behind the same requester's
/// earlier transfers, which is what the contention counter reports. One
/// node has no routes: every request pays `grant`, the paper's §4 picture
/// of every shell owning its own SRAM port behind a crossbar. Per-link
/// counters record where the traffic flowed and never feed back into
/// timing.
#[derive(Debug)]
pub struct BankedFabric {
    topo: FabricTopology,
    geom: MeshGeometry,
    arb: Arbitration,
    port_cfg: BusConfig,
    /// Contended: bus `b` is bank `b`. Provisioned: requester `s`'s port
    /// pair at `2s`, `2s + 1`, grown lazily on first use (growth creates
    /// every intermediate pair, so the length — and the snapshot —
    /// depend only on the highest requester seen).
    buses: Vec<Bus>,
    /// Per-directed-link counters of a provisioned mesh (empty when
    /// contended).
    links: Vec<LinkStats>,
    contended: u64,
    trace: Option<TraceHandle>,
}

impl BankedFabric {
    /// A new idle fabric for any configuration but `SharedBus`; callers
    /// outside the crate build one through [`DataFabricConfig::build`],
    /// which validates the configuration first.
    pub(crate) fn new(cfg: DataFabricConfig) -> Self {
        use DataFabricConfig as C;
        debug_assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        let (arb, port_cfg) = match cfg {
            C::SharedBus { .. } => panic!("the shared bus is not a banked fabric"),
            C::MultiBank { bank, .. } => (Arbitration::Contended, bank),
            C::PrivatePort {
                grant_cycles: grant,
                port,
            } => (Arbitration::Provisioned { grant, hop: 0 }, port),
            C::Mesh {
                link_grant: grant,
                hop_cycles: hop,
                port,
                ..
            } => (Arbitration::Provisioned { grant, hop }, port),
        };
        // A column of banks, one node, or the mesh grid.
        let topo = cfg.topology();
        let (cols, rows) = topo.mesh.unwrap_or((1, topo.banks));
        let geom = MeshGeometry::new(cols, rows);
        let (buses, links) = match arb {
            Arbitration::Contended => (
                BANK_NAMES[..geom.nodes()]
                    .iter()
                    .map(|&name| Bus::new(name, port_cfg))
                    .collect(),
                Vec::new(),
            ),
            Arbitration::Provisioned { .. } => {
                (Vec::new(), vec![LinkStats::default(); geom.n_links()])
            }
        };
        BankedFabric {
            topo,
            geom,
            arb,
            port_cfg,
            buses,
            links,
            contended: 0,
            trace: None,
        }
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

    /// Whether any bus still holds a grant beyond `now` — i.e. a chunk
    /// is mid-route. Lets checkpoint tests pick a save point with data
    /// transfers genuinely in flight.
    pub fn in_flight(&self, now: Cycle) -> bool {
        self.buses.iter().any(|b| b.busy_until() > now)
    }

    /// The interleave chunks of `[addr, addr + bytes)`, each as
    /// `(bank, chunk bytes)`.
    fn chunks(&self, addr: u32, bytes: u32) -> impl Iterator<Item = (usize, u32)> {
        let (il, nodes) = (self.topo.interleave_bytes, self.geom.nodes());
        let (mut a, mut remaining) = (addr, bytes);
        std::iter::from_fn(move || {
            (remaining > 0).then(|| {
                let in_chunk = (il - a % il).min(remaining);
                let bank = ((a / il) as usize) % nodes;
                a += in_chunk;
                remaining -= in_chunk;
                (bank, in_chunk)
            })
        })
    }

    fn emit(&self, at: Cycle, bank: usize, bytes: u32, wait: Cycle) {
        if let Some(h) = &self.trace {
            let bank = bank as u32;
            h.emit(at, TraceEventKind::BankGrant { bank, bytes, wait });
        }
    }

    fn request_contended(&mut self, now: Cycle, addr: u32, bytes: u32) -> Transfer {
        // Chunks issue concurrently, each arbitrating on its own bank.
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
        let (mut start, mut done, mut wait) = (Cycle::MAX, 0, 0);
        let mut banks_touched = 0u32;
        for (bank, in_chunk) in self.chunks(addr, bytes) {
            let first_touch = banks_touched & (1 << bank) == 0;
            banks_touched |= 1 << bank;
            let t = self.buses[bank].request(now, in_chunk);
            if first_touch && t.wait > 0 {
                self.contended += 1;
                wait = wait.max(t.wait);
            }
            self.emit(t.start, bank, in_chunk, t.wait);
            start = start.min(t.start);
            done = done.max(t.done);
        }
        Transfer { start, done, wait }
    }

    /// Record each chunk's link traversals from node `src`, returning the
    /// hop depth of the farthest chunk's bank and the first chunk's bank.
    /// Reads flow bank → requester, writes requester → bank; XY timing
    /// is symmetric, but the occupancy lands on the actual direction.
    fn route_chunks(&mut self, src: usize, dir: FabricDir, addr: u32, bytes: u32) -> (u64, usize) {
        let (mut hops_max, mut first) = (0, None);
        for (bank, in_chunk) in self.chunks(addr, bytes) {
            first.get_or_insert(bank);
            hops_max = hops_max.max(self.geom.distance(src, bank));
            let beats = (in_chunk as u64).div_ceil(self.port_cfg.width_bytes as u64);
            let occupancy = beats * self.port_cfg.cycles_per_beat;
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
        }
        (hops_max, first.unwrap_or(0))
    }

    /// Create port pairs up to `pairs` requesters.
    fn grow_ports(&mut self, pairs: usize) {
        while self.buses.len() < 2 * pairs {
            let name = PORT_NAMES[self.buses.len()];
            self.buses.push(Bus::new(name, self.port_cfg));
        }
    }
}

impl DataFabric for BankedFabric {
    fn kind(&self) -> &'static str {
        self.topo.kind
    }

    fn topology(&self) -> FabricTopology {
        self.topo
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
        let Arbitration::Provisioned { grant, hop } = self.arb else {
            return self.request_contended(now, addr, bytes);
        };
        assert!(
            requester < MAX_PORTS,
            "requester {requester} exceeds the {MAX_PORTS}-port fabric"
        );
        // Injection grant slot, then one (grant slot + hop) per link of
        // the deepest route; the chunks pipeline behind the head flit.
        // One node has no routes, so its chunk walk would change nothing.
        let (hops, bank) = match self.geom.nodes() {
            1 => (0, 0),
            nodes => self.route_chunks(requester % nodes, dir, addr, bytes),
        };
        self.grow_ports(requester + 1);
        let bus = &mut self.buses[2 * requester + dir as usize];
        let t = bus.request(now + grant + hops * (grant + hop), bytes);
        let wait = t.start - now;
        if t.wait > 0 {
            self.contended += 1;
        }
        self.emit(t.start, bank, bytes, wait);
        Transfer {
            start: t.start,
            done: t.done,
            wait,
        }
    }

    fn attach_trace(&mut self, sink: &SharedTraceSink) {
        let unit = format!("fabric/{}", self.topo.kind);
        self.trace = Some(TraceHandle::new(sink, &unit));
    }

    fn ports(&self) -> Vec<FabricPort<'_>> {
        self.buses
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

    /// The bank count (contended) or port-pair count (provisioned), the
    /// buses, the link table when the geometry has links, then the
    /// contention counter.
    fn save_state(&self, w: &mut SnapWriter) {
        match self.arb {
            Arbitration::Contended => w.usize(self.buses.len()),
            Arbitration::Provisioned { .. } => w.usize(self.buses.len() / 2),
        }
        self.buses[..].save(w);
        if !self.links.is_empty() {
            w.usize(self.links.len());
            self.links[..].save(w);
        }
        w.u64(self.contended);
    }

    /// A provisioned fabric creates a requester's pair on its first
    /// request, so the saved pair count need not match this build's; it
    /// may not exceed the port limit.
    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        match self.arb {
            Arbitration::Contended => r.expect_len(self.buses.len(), "banks length")?,
            Arbitration::Provisioned { .. } => {
                let n = r.usize()?;
                if n > MAX_PORTS {
                    return Err(SnapError::Corrupt("fabric port count"));
                }
                self.buses.clear();
                self.grow_ports(n);
            }
        }
        self.buses[..].load(r)?;
        if !self.links.is_empty() {
            r.expect_len(self.links.len(), "mesh link count")?;
            self.links[..].load(r)?;
        }
        self.contended = r.u64()?;
        Ok(())
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

    fn multibank(banks: u32) -> DataFabricConfig {
        DataFabricConfig::MultiBank {
            banks,
            interleave_bytes: 64,
            bank: cfg(),
        }
    }

    fn private(grant_cycles: Cycle) -> DataFabricConfig {
        DataFabricConfig::PrivatePort {
            grant_cycles,
            port: cfg(),
        }
    }

    fn mesh(cols: u32, rows: u32, link_grant: Cycle, hop_cycles: Cycle) -> DataFabricConfig {
        DataFabricConfig::Mesh {
            cols,
            rows,
            interleave_bytes: 64,
            link_grant,
            hop_cycles,
            port: cfg(),
        }
    }

    fn shared() -> DataFabricConfig {
        DataFabricConfig::SharedBus {
            read: cfg(),
            write: cfg(),
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
        let mut f = BankedFabric::new(multibank(4));
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
        let mut f = BankedFabric::new(multibank(4));
        // Two transfers to the same bank at the same cycle: second waits.
        let t1 = f.request(0, FabricDir::Read, 0, 0, 64);
        let t2 = f.request(1, FabricDir::Write, 0, 256, 64); // 256/64 % 4 == bank 0
        assert_eq!(t1.wait, 0);
        assert!(t2.wait > 0);
        assert_eq!(f.contended_requests(), 1);
    }

    #[test]
    fn multibank_splits_unaligned_transfers() {
        let mut f = BankedFabric::new(multibank(2));
        // 100 B starting at 32: chunks of 32 (bank 0), 64 (bank 1), 4 (bank 0).
        f.request(0, FabricDir::Read, 0, 32, 100);
        let ports = f.ports();
        assert_eq!(ports[0].stats.transactions, 2);
        assert_eq!(ports[0].stats.bytes, 36);
        assert_eq!(ports[1].stats.transactions, 1);
        assert_eq!(ports[1].stats.bytes, 64);
    }

    /// Every fabric carries every byte on its ports, and every transfer
    /// starts no earlier than its request, reports a wait bounding
    /// `start - now` from above, and completes after it starts — under
    /// two irregular traffic patterns from four requesters.
    #[test]
    fn every_fabric_conserves_bytes() {
        for (seed, n) in [
            (0x1234_5678_9abc_def0u64, 500u64),
            (0x9e37_79b9_7f4a_7c15, 300),
        ] {
            let mut fabrics: Vec<Box<dyn DataFabric>> =
                [shared(), multibank(8), private(2), mesh(2, 2, 2, 1)]
                    .map(DataFabricConfig::build)
                    .into();
            let mut total = 0u64;
            let mut state = seed;
            for i in 0..n {
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
                for f in &mut fabrics {
                    let t = f.request(requester, dir, i, addr, bytes);
                    assert!(t.start >= i);
                    // `wait` reflects externally-contended grants; `start`
                    // the earliest chunk's grant — so wait bounds
                    // (start - now) from above.
                    assert!(t.wait >= t.start - i);
                    assert!(t.done > t.start);
                }
            }
            for f in &fabrics {
                let carried: u64 = f.ports().iter().map(|p| p.stats.bytes).sum();
                assert_eq!(carried, total, "{} must carry every byte", f.kind());
            }
        }
    }

    /// A requester arriving exactly at the cycle a resource becomes free
    /// (`now == next_free`) is granted immediately — zero wait, and the
    /// fabric does NOT count a contended grant. Pinned for every fabric.
    #[test]
    fn boundary_cycle_grant_is_uncontended_on_every_fabric() {
        // cfg(): 64 B → 4 beats; a request at `now` occupies the bus until
        // `start + 4`, completing (latency 1) at `start + 5`.
        // Each fabric with the static grant floor every request pays.
        let fabrics = [
            (shared(), 0),
            (multibank(4), 0),
            (private(3), 3),
            (mesh(2, 2, 3, 1), 3),
        ];
        for (c, grant) in fabrics {
            let mut f = c.build();
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

    /// A wide transfer wrapping the bank stripe serializes behind
    /// *itself* on each bank — that is occupancy, not contention, and
    /// must inflate neither `wait` nor the contended count.
    #[test]
    fn multibank_self_serialization_is_not_contention() {
        let mut f = BankedFabric::new(multibank(2));
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
        let mut f = BankedFabric::new(private(2));
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

    /// On provisioned fabrics a storm from requester 0 leaves requester
    /// 1's timing exactly as on a fresh fabric.
    #[test]
    fn provisioned_requesters_are_independent() {
        for c in [private(1), mesh(2, 2, 1, 1)] {
            let mut stormed = BankedFabric::new(c);
            for i in 0..32u64 {
                stormed.request(0, FabricDir::Read, i, 0, 128);
            }
            let mut fresh = BankedFabric::new(c);
            for now in [100u64, 101, 103] {
                let a = stormed.request(1, FabricDir::Read, now, 64, 64);
                let b = fresh.request(1, FabricDir::Read, now, 64, 64);
                assert_eq!(a, b, "{c:?}: requester 1 must be untouched by requester 0");
            }
            // Requester 0's own back-to-back queueing did register.
            assert!(stormed.contended_requests() > 0);
            // Growth created ports 0 and 1 (read+write each).
            assert_eq!(stormed.ports().len(), 4);
            assert_eq!(stormed.ports()[2].name, "p1.rd");
        }
    }

    /// Each banked arbitration checkpoints mid-flight and restores into
    /// a fresh build with identical future timing, statistics, link
    /// counters and re-saved bytes. Rows: the config, the two addresses
    /// the pile-up hits, and the probe address after the restore.
    #[test]
    fn banked_snapshot_roundtrip_mid_flight() {
        for (c, piles, probe) in [
            (private(2), [0, 64], 0),
            (mesh(2, 2, 2, 1), [192, 64], 128),
            (multibank(4), [0, 64], 0),
        ] {
            let mut f = BankedFabric::new(c);
            // Pile up in-flight occupancy from requesters 0 and 2 (growing
            // three port pairs on provisioned fabrics) so arbiter cursors
            // are mid-contention at save time.
            for i in 0..8u64 {
                f.request(0, FabricDir::Read, i, piles[0], 192);
                f.request(2, FabricDir::Write, i, piles[1], 192);
            }
            assert!(f.in_flight(8), "{c:?}: the save point must be mid-flight");
            let mut w = SnapWriter::new();
            f.save_state(&mut w);
            let bytes = w.into_bytes();

            let mut g = BankedFabric::new(c);
            let mut r = SnapReader::new(&bytes);
            g.load_state(&mut r).expect("load");
            assert_eq!(r.remaining(), 0, "{c:?}: load must consume the whole save");

            // Identical future behaviour, stats, and re-saved bytes.
            for (req, dir, now) in [
                (0usize, FabricDir::Read, 8u64),
                (2, FabricDir::Write, 8),
                (1, FabricDir::Read, 9),
            ] {
                assert_eq!(
                    f.request(req, dir, now, probe, 64),
                    g.request(req, dir, now, probe, 64)
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
        let mut f = BankedFabric::new(mesh(2, 2, 2, 3));
        assert_eq!(f.kind(), "mesh");
        // addr 0 → bank 0: zero hops, pays only the injection slot.
        let local = f.request(0, FabricDir::Read, 10, 0, 64);
        assert_eq!(local.start, 12);
        assert_eq!(local.wait, 2);
        // addr 3*64 → bank 3: 2 hops from node 0, each hop 2+3.
        let mut g = BankedFabric::new(mesh(2, 2, 2, 3));
        let far = g.request(0, FabricDir::Read, 10, 192, 64);
        assert_eq!(far.start, 10 + 2 + 2 * (2 + 3));
        // The route's links carry the chunk (read: bank → requester).
        assert_eq!(g.link_stats().iter().map(|l| l.bytes).sum::<u64>(), 128);
        assert_eq!(g.byte_hops(), 128);
        assert_eq!(g.link_stats().iter().map(|l| l.traversals).sum::<u64>(), 2);
    }

    #[test]
    fn mesh_topology_describes_grid() {
        let f = BankedFabric::new(mesh(4, 2, 2, 1));
        let t = f.topology();
        assert_eq!(t.kind, "mesh");
        assert_eq!(t.banks, 8);
        assert_eq!(t.mesh, Some((4, 2)));
        assert_eq!(t.requester_node(9), 1);
        assert_eq!(t.distance(0, 7), 4);
        // Non-mesh fabrics report distance-free topologies.
        let shared = SharedBusFabric::new(cfg(), cfg());
        let ut = shared.topology();
        assert_eq!(ut.banks, 1);
        assert_eq!(ut.distance(0, 1), 0);
        let banked = BankedFabric::new(multibank(4));
        assert_eq!(banked.topology().banks, 4);
        assert_eq!(banked.topology().interleave_bytes, 64);
    }

    #[test]
    fn config_topology_matches_built_fabric() {
        for c in [shared(), multibank(4), private(2), mesh(2, 2, 2, 1)] {
            assert_eq!(c.topology(), c.build().topology());
        }
    }

    #[test]
    fn every_constructor_validates() {
        for c in [shared(), multibank(4), private(2), mesh(2, 2, 2, 1)] {
            assert_eq!(c.validate(), Ok(()), "{c:?}");
        }
    }

    #[test]
    fn bank_count_outside_range_is_rejected() {
        for banks in [0, 17] {
            assert_eq!(
                multibank(banks).validate(),
                Err(FabricConfigError::BankCount(banks))
            );
        }
        assert_eq!(multibank(16).validate(), Ok(()));
    }

    #[test]
    fn non_power_of_two_interleave_is_rejected() {
        let banked = DataFabricConfig::MultiBank {
            banks: 4,
            interleave_bytes: 48,
            bank: cfg(),
        };
        assert_eq!(banked.validate(), Err(FabricConfigError::Interleave(48)));
        let grid = DataFabricConfig::Mesh {
            cols: 2,
            rows: 2,
            interleave_bytes: 0,
            link_grant: 2,
            hop_cycles: 1,
            port: cfg(),
        };
        assert_eq!(grid.validate(), Err(FabricConfigError::Interleave(0)));
    }

    #[test]
    fn mesh_nodes_outside_range_are_rejected() {
        for (cols, rows) in [(0, 2), (2, 0), (17, 1), (4, 5), (u32::MAX, u32::MAX)] {
            assert_eq!(
                mesh(cols, rows, 2, 1).validate(),
                Err(FabricConfigError::MeshNodes { cols, rows })
            );
        }
        assert_eq!(mesh(4, 4, 2, 1).validate(), Ok(()));
    }

    #[test]
    fn zero_grant_is_rejected() {
        assert_eq!(private(0).validate(), Err(FabricConfigError::ZeroGrant));
        assert_eq!(
            mesh(2, 2, 0, 1).validate(),
            Err(FabricConfigError::ZeroGrant)
        );
    }

    #[test]
    fn zero_port_width_is_rejected() {
        let narrow = BusConfig {
            width_bytes: 0,
            ..cfg()
        };
        for c in [
            DataFabricConfig::SharedBus {
                read: cfg(),
                write: narrow,
            },
            DataFabricConfig::MultiBank {
                banks: 4,
                interleave_bytes: 64,
                bank: narrow,
            },
            DataFabricConfig::PrivatePort {
                grant_cycles: 2,
                port: narrow,
            },
            DataFabricConfig::Mesh {
                cols: 2,
                rows: 2,
                interleave_bytes: 64,
                link_grant: 2,
                hop_cycles: 1,
                port: narrow,
            },
        ] {
            assert_eq!(c.validate(), Err(FabricConfigError::ZeroPortWidth), "{c:?}");
        }
    }

    /// A zero-width shared bus fails at build time, naming the error,
    /// instead of dividing by zero on its first request.
    #[test]
    #[should_panic(
        expected = "invalid data fabric: a port must be at least one byte wide (ZeroPortWidth)"
    )]
    fn zero_width_shared_bus_fails_at_build() {
        let narrow = BusConfig {
            width_bytes: 0,
            ..cfg()
        };
        let _ = DataFabricConfig::SharedBus {
            read: narrow,
            write: cfg(),
        }
        .build();
    }
}
