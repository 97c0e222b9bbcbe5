//! Pluggable `putspace` synchronization networks.
//!
//! Paper Section 5.1 keeps synchronization fully distributed: shells
//! exchange small `putspace` messages over a dedicated network, with no
//! CPU in the loop. The paper's instance uses a message network whose
//! delivery cost the model folds into a flat per-message latency — that
//! is [`DirectSyncFabric`], the default. [`SyncFabric`] makes the
//! network a replaceable component (the template's promise), and
//! [`RingSyncFabric`] adds the first scalable topology: a unidirectional
//! ring where a message traverses one link per intermediate shell, each
//! link carrying one message at a time, so sync traffic between distant
//! shells both costs more and *contends* — visible in the fabric stats
//! and the `SyncHop` trace events.
//!
//! A sync fabric only computes *arrival times*; message payload,
//! generation stamping, and delivery stay in the run loop.

use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::trace::{SharedTraceSink, TraceEventKind, TraceHandle};
use eclipse_sim::Cycle;

use crate::ShellId;

/// Cumulative statistics of a sync network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncFabricStats {
    /// Messages routed.
    pub messages: u64,
    /// Links traversed in total (0 for shell-local messages).
    pub hops: u64,
    /// Messages that queued behind at least one busy link.
    pub contended: u64,
    /// Total cycles messages spent queued behind busy links.
    pub wait_cycles: u64,
}

/// A `putspace` message network: computes when a message departing at
/// `depart` arrives at the destination shell. Implementations must be
/// deterministic.
pub trait SyncFabric: std::fmt::Debug {
    /// Short backend name for reports ("direct", "ring", ...).
    fn kind(&self) -> &'static str;

    /// Route one message; returns its arrival cycle. `base_latency` is
    /// the shell-configured per-message latency (`ShellConfig::
    /// sync_latency`), which every backend honors as the minimum cost.
    fn route(&mut self, depart: Cycle, src: ShellId, dst: ShellId, base_latency: u64) -> Cycle;

    /// Cumulative routing statistics.
    fn stats(&self) -> SyncFabricStats;

    /// Connect the fabric to a shared event-trace sink.
    fn attach_trace(&mut self, sink: &SharedTraceSink);

    /// Downcast support for backend-specific inspection (tests, benches).
    fn as_any(&self) -> &dyn std::any::Any;

    /// The checkpoint hook: save the network's dynamic state (link
    /// clocks, statistics). Stateful backends forward it, and
    /// [`SyncFabric::load_state`], to their [`Snapshot`] impl; the
    /// default is a no-op for stateless networks.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restore dynamic state written by [`SyncFabric::save_state`] into a
    /// network built with the same configuration.
    fn load_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Ok(())
    }
}

eclipse_sim::snap_fields!(SyncFabricStats {
    messages,
    hops,
    contended,
    wait_cycles
});

/// Sync-network selection, resolved to a backend at system build time.
#[derive(Debug, Clone, Copy)]
pub enum SyncFabricConfig {
    /// The paper-instance message network: a flat per-message latency,
    /// no topology, no contention (the default; timing-identical to the
    /// pre-fabric model).
    Direct,
    /// A unidirectional ring: a message from shell *s* to shell *d*
    /// traverses `(d - s) mod n` links, paying `hop_latency` per link;
    /// each link carries one message per `link_occupancy` cycles, so
    /// concurrent messages over shared links queue.
    Ring {
        /// Added latency per traversed link.
        hop_latency: u64,
        /// Cycles a link is held per message (1 = full rate).
        link_occupancy: u64,
    },
    /// A 2-D mesh with XY routing, matching the data-plane
    /// [`eclipse_mem::MeshDataFabric`] grid: shell *s* injects at node
    /// `s % (cols·rows)` and a message crosses the Manhattan route's
    /// links, each carrying one message per `link_occupancy` cycles.
    /// Credits piggy-back: a message entering a link within
    /// `piggyback_window` cycles of the previous grant on that link
    /// rides the same flit — no fresh link reservation, only the hop
    /// latency.
    Mesh {
        /// Grid width in nodes (>= 1).
        cols: u32,
        /// Grid height in nodes (>= 1).
        rows: u32,
        /// Added latency per traversed link.
        hop_latency: u64,
        /// Cycles a link is held per (non-piggybacked) message.
        link_occupancy: u64,
        /// Coalescing window for credit piggy-backing (0 disables it).
        piggyback_window: u64,
    },
}

impl SyncFabricConfig {
    /// Instantiate the configured backend for an instance of `n_shells`.
    pub fn build(self, n_shells: usize) -> Box<dyn SyncFabric> {
        match self {
            SyncFabricConfig::Direct => Box::new(DirectSyncFabric::default()),
            SyncFabricConfig::Ring {
                hop_latency,
                link_occupancy,
            } => Box::new(RingSyncFabric::new(n_shells, hop_latency, link_occupancy)),
            SyncFabricConfig::Mesh {
                cols,
                rows,
                hop_latency,
                link_occupancy,
                piggyback_window,
            } => Box::new(MeshSyncFabric::new(
                cols as usize,
                rows as usize,
                hop_latency,
                link_occupancy,
                piggyback_window,
            )),
        }
    }
}

/// The default network: every message arrives `base_latency` cycles
/// after departure, regardless of topology or load.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectSyncFabric {
    stats: SyncFabricStats,
}

eclipse_sim::snap_fields!(DirectSyncFabric { stats });

impl DirectSyncFabric {
    /// A new idle network.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SyncFabric for DirectSyncFabric {
    fn kind(&self) -> &'static str {
        "direct"
    }

    fn route(&mut self, depart: Cycle, src: ShellId, dst: ShellId, base_latency: u64) -> Cycle {
        self.stats.messages += 1;
        self.stats.hops += u64::from(src != dst);
        depart + base_latency
    }

    fn stats(&self) -> SyncFabricStats {
        self.stats
    }

    fn attach_trace(&mut self, _sink: &SharedTraceSink) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }
}

/// A unidirectional ring sync network with per-link occupancy.
#[derive(Debug)]
pub struct RingSyncFabric {
    /// `link_free[i]`: earliest cycle link i→(i+1) accepts a message.
    link_free: Vec<Cycle>,
    hop_latency: u64,
    link_occupancy: u64,
    stats: SyncFabricStats,
    trace: Option<TraceHandle>,
}

eclipse_sim::snap_fields!(RingSyncFabric {
    link_free: fixed,
    stats
});

impl RingSyncFabric {
    /// A new idle ring connecting `n_shells` shells.
    pub fn new(n_shells: usize, hop_latency: u64, link_occupancy: u64) -> Self {
        assert!(n_shells > 0, "a ring needs at least one shell");
        RingSyncFabric {
            link_free: vec![0; n_shells],
            hop_latency,
            link_occupancy: link_occupancy.max(1),
            stats: SyncFabricStats::default(),
            trace: None,
        }
    }

    /// Links a message from `src` to `dst` traverses.
    pub fn hops(&self, src: ShellId, dst: ShellId) -> u64 {
        let n = self.link_free.len() as u64;
        (u64::from(dst.0) + n - u64::from(src.0)) % n
    }
}

impl SyncFabric for RingSyncFabric {
    fn kind(&self) -> &'static str {
        "ring"
    }

    fn route(&mut self, depart: Cycle, src: ShellId, dst: ShellId, base_latency: u64) -> Cycle {
        self.stats.messages += 1;
        let n = self.link_free.len();
        let hops = self.hops(src, dst);
        // Injection costs the shell-level message latency; each traversed
        // link then adds its hop latency, queuing while the link drains
        // the previous message.
        let mut t = depart + base_latency;
        let mut waited = 0;
        for k in 0..hops {
            let link = (usize::from(src.0) + k as usize) % n;
            let start = t.max(self.link_free[link]);
            waited += start - t;
            self.link_free[link] = start + self.link_occupancy;
            t = start + self.hop_latency;
        }
        self.stats.hops += hops;
        self.stats.wait_cycles += waited;
        if waited > 0 {
            self.stats.contended += 1;
        }
        if let Some(h) = &self.trace {
            if hops > 0 {
                h.emit(
                    depart,
                    TraceEventKind::SyncHop {
                        hops: hops as u32,
                        wait: waited,
                    },
                );
            }
        }
        t
    }

    fn stats(&self) -> SyncFabricStats {
        self.stats
    }

    fn attach_trace(&mut self, sink: &SharedTraceSink) {
        self.trace = Some(TraceHandle::new(sink, "fabric/ring"));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }
}

/// A 2-D mesh `putspace` network with XY routing and credit
/// piggy-backing.
///
/// The grid mirrors the data-plane mesh (same [`MeshGeometry`](eclipse_mem::MeshGeometry) node and
/// link enumeration), so an instance selecting both mesh planes routes
/// sync messages along the same physical topology its data rides on.
/// Piggy-backing models the classic NoC optimization of folding credit
/// updates into flits already crossing a link: a message entering a
/// link within `piggyback_window` cycles of that link's previous grant
/// shares the earlier flit — it pays the hop latency but reserves no
/// new link slot (and cannot be the *victim* of occupancy queueing).
///
/// Like the ring, the per-link free clocks are state shared between
/// shells: one shell's message can delay another's.
#[derive(Debug)]
pub struct MeshSyncFabric {
    geom: eclipse_mem::MeshGeometry,
    hop_latency: u64,
    link_occupancy: u64,
    piggyback_window: u64,
    /// `link_free[l]`: earliest cycle link `l` accepts a fresh flit.
    link_free: Vec<Cycle>,
    /// `last_grant[l]`: start cycle of the link's most recent fresh
    /// flit (`Cycle::MAX` = never granted), anchoring the piggy-back
    /// window.
    last_grant: Vec<Cycle>,
    stats: SyncFabricStats,
    piggybacked: u64,
    trace: Option<TraceHandle>,
}

eclipse_sim::snap_fields!(MeshSyncFabric {
    link_free: fixed,
    last_grant: each,
    stats,
    piggybacked,
});

impl MeshSyncFabric {
    /// A new idle `cols × rows` mesh.
    pub fn new(
        cols: usize,
        rows: usize,
        hop_latency: u64,
        link_occupancy: u64,
        piggyback_window: u64,
    ) -> Self {
        let geom = eclipse_mem::MeshGeometry::new(cols, rows);
        MeshSyncFabric {
            link_free: vec![0; geom.n_links()],
            last_grant: vec![Cycle::MAX; geom.n_links()],
            geom,
            hop_latency,
            link_occupancy: link_occupancy.max(1),
            piggyback_window,
            stats: SyncFabricStats::default(),
            piggybacked: 0,
            trace: None,
        }
    }

    /// The node shell `s` injects at.
    pub fn node_of(&self, shell: ShellId) -> usize {
        usize::from(shell.0) % self.geom.nodes()
    }

    /// Links a message from `src` to `dst` traverses (XY hop count).
    pub fn hops(&self, src: ShellId, dst: ShellId) -> u64 {
        self.geom.distance(self.node_of(src), self.node_of(dst))
    }

    /// Messages that rode an existing flit instead of reserving a link
    /// slot (credit piggy-backing).
    pub fn piggybacked(&self) -> u64 {
        self.piggybacked
    }

    /// Whether any link still holds a reservation beyond `now` — i.e. a
    /// message is mid-route. Lets checkpoint tests pick a save point
    /// with sync flits genuinely in flight.
    pub fn links_in_flight(&self, now: Cycle) -> bool {
        self.link_free.iter().any(|&f| f > now)
    }
}

impl SyncFabric for MeshSyncFabric {
    fn kind(&self) -> &'static str {
        "mesh"
    }

    fn route(&mut self, depart: Cycle, src: ShellId, dst: ShellId, base_latency: u64) -> Cycle {
        self.stats.messages += 1;
        let (from, to) = (self.node_of(src), self.node_of(dst));
        let mut links = Vec::with_capacity(self.geom.distance(from, to) as usize);
        self.geom.route(from, to, |l| links.push(l));
        let mut t = depart + base_latency;
        let mut waited = 0;
        let mut piggy = 0u64;
        for &link in &links {
            let anchor = self.last_grant[link];
            if self.piggyback_window > 0
                && anchor != Cycle::MAX
                && t >= anchor
                && t - anchor <= self.piggyback_window
            {
                // Ride the flit granted at `anchor`: no fresh link
                // reservation, no occupancy queueing possible.
                piggy += 1;
                t += self.hop_latency;
            } else {
                let start = t.max(self.link_free[link]);
                waited += start - t;
                self.link_free[link] = start + self.link_occupancy;
                self.last_grant[link] = start;
                t = start + self.hop_latency;
            }
        }
        self.stats.hops += links.len() as u64;
        self.stats.wait_cycles += waited;
        self.piggybacked += piggy;
        if waited > 0 {
            self.stats.contended += 1;
        }
        if let Some(h) = &self.trace {
            if !links.is_empty() {
                h.emit(
                    depart,
                    TraceEventKind::SyncHop {
                        hops: links.len() as u32,
                        wait: waited,
                    },
                );
            }
        }
        t
    }

    fn stats(&self) -> SyncFabricStats {
        self.stats
    }

    fn attach_trace(&mut self, sink: &SharedTraceSink) {
        self.trace = Some(TraceHandle::new(sink, "fabric/mesh-sync"));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_is_flat_latency() {
        let mut f = DirectSyncFabric::new();
        assert_eq!(f.route(100, ShellId(0), ShellId(3), 4), 104);
        assert_eq!(f.route(0, ShellId(2), ShellId(2), 4), 4);
        assert_eq!(f.stats().messages, 2);
        assert_eq!(f.stats().contended, 0);
    }

    #[test]
    fn ring_charges_per_hop() {
        let mut f = RingSyncFabric::new(5, 3, 1);
        // 0 → 3: three links, 4 base + 3×3 hop.
        assert_eq!(f.route(0, ShellId(0), ShellId(3), 4), 4 + 9);
        // Wrap-around: 3 → 1 crosses links 3, 4, 0.
        assert_eq!(f.hops(ShellId(3), ShellId(1)), 3);
        // Local delivery never touches a link.
        assert_eq!(f.route(50, ShellId(2), ShellId(2), 4), 54);
        assert_eq!(f.stats().hops, 3);
    }

    #[test]
    fn ring_links_contend() {
        let mut f = RingSyncFabric::new(4, 2, 10);
        let a = f.route(0, ShellId(0), ShellId(1), 4);
        assert_eq!(a, 6); // base 4 + one hop of 2
                          // Same first link, same instant: queues the full occupancy (10)
                          // behind the first message, then crosses two links.
        let b = f.route(0, ShellId(0), ShellId(2), 4);
        assert_eq!(b, 4 + 10 + 2 + 2);
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.wait_cycles, 10);
    }

    #[test]
    fn mesh_charges_per_hop() {
        // 2×2 grid, four shells (one per node), no piggy-backing.
        let mut f = MeshSyncFabric::new(2, 2, 3, 1, 0);
        // Shell 0 (node 0,0) → shell 3 (node 1,1): two XY hops.
        assert_eq!(f.hops(ShellId(0), ShellId(3)), 2);
        assert_eq!(f.route(0, ShellId(0), ShellId(3), 4), 4 + 2 * 3);
        // Local delivery never touches a link.
        assert_eq!(f.route(50, ShellId(2), ShellId(2), 4), 54);
        assert_eq!(f.stats().hops, 2);
    }

    #[test]
    fn mesh_links_contend() {
        let mut f = MeshSyncFabric::new(2, 2, 2, 10, 0);
        let a = f.route(0, ShellId(0), ShellId(1), 4);
        assert_eq!(a, 6); // base 4 + one hop of 2
                          // Same east link, same instant: queues the full occupancy
                          // (10) behind the first flit, then crosses two links.
        let b = f.route(0, ShellId(0), ShellId(3), 4);
        assert_eq!(b, 4 + 10 + 2 + 2);
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.wait_cycles, 10);
        assert_eq!(f.piggybacked(), 0);
    }

    #[test]
    fn mesh_piggyback_rides_recent_flit() {
        let mut f = MeshSyncFabric::new(2, 2, 2, 10, 5);
        // First flit reserves the east link at cycle 4 (free again at 14).
        assert_eq!(f.route(0, ShellId(0), ShellId(1), 4), 6);
        // Entering the link 2 cycles later — inside the 5-cycle window —
        // rides the same flit: no occupancy queueing, just the hop.
        assert_eq!(f.route(0, ShellId(0), ShellId(1), 6), 8);
        assert_eq!(f.piggybacked(), 1);
        assert_eq!(f.stats().contended, 0);
        // Outside the window the link clock applies again (free at 14,
        // so an arrival at 12 waits 2).
        assert_eq!(f.route(0, ShellId(0), ShellId(1), 12), 14 + 2);
        assert_eq!(f.piggybacked(), 1);
        assert_eq!(f.stats().wait_cycles, 2);
    }

    #[test]
    fn mesh_shells_sharing_a_node_route_without_hops() {
        // Five shells on a 2×2 grid: shells 0 and 4 share node 0, so
        // their messages pay the base latency alone.
        let mut f = MeshSyncFabric::new(2, 2, 3, 1, 0);
        assert_eq!(f.route(0, ShellId(0), ShellId(4), 4), 4);
    }

    #[test]
    fn mesh_snapshot_restores_links_mid_route() {
        let drive = |f: &mut MeshSyncFabric| {
            f.route(0, ShellId(0), ShellId(3), 4);
            f.route(1, ShellId(1), ShellId(2), 4);
            f.route(2, ShellId(0), ShellId(1), 4)
        };
        let mut live = MeshSyncFabric::new(2, 2, 2, 10, 3);
        drive(&mut live);
        let mut w = SnapWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = MeshSyncFabric::new(2, 2, 2, 10, 3);
        let mut r = SnapReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        assert_eq!(restored.stats(), live.stats());
        assert_eq!(restored.piggybacked(), live.piggybacked());
        // Future routing sees the restored link clocks and piggy-back
        // anchors: both instances stay cycle-identical.
        for dep in [3u64, 5, 20] {
            assert_eq!(
                live.route(dep, ShellId(0), ShellId(3), 4),
                restored.route(dep, ShellId(0), ShellId(3), 4)
            );
        }
        let mut w2 = SnapWriter::new();
        let mut w3 = SnapWriter::new();
        live.save_state(&mut w2);
        restored.save_state(&mut w3);
        assert_eq!(w2.into_bytes(), w3.into_bytes());
    }

    #[test]
    fn mesh_route_is_deterministic() {
        let runs: Vec<Vec<Cycle>> = (0..2)
            .map(|_| {
                let mut f = MeshSyncFabric::new(3, 2, 2, 3, 4);
                (0..50u64)
                    .map(|i| {
                        let src = ShellId((i % 6) as u16);
                        let dst = ShellId(((i * 7) % 6) as u16);
                        f.route(i * 2, src, dst, 4)
                    })
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn ring_route_is_deterministic() {
        let runs: Vec<Vec<Cycle>> = (0..2)
            .map(|_| {
                let mut f = RingSyncFabric::new(6, 2, 3);
                (0..50u64)
                    .map(|i| {
                        let src = ShellId((i % 6) as u16);
                        let dst = ShellId(((i * 7) % 6) as u16);
                        f.route(i * 2, src, dst, 4)
                    })
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }
}
