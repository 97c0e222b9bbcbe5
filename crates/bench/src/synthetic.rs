//! Generic synthetic coprocessors for scalability experiments: a
//! configurable source → filter → sink pipeline whose stages move
//! fixed-size packets with a fixed compute cost.

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

/// A synthetic stage: consumes packets on port 0 (unless a pure source),
/// produces packets on its output port (unless a pure sink).
pub struct PipeCoproc {
    name: String,
    function: String,
    /// Packets each task must move before finishing.
    packets: u32,
    /// Packet payload size in bytes.
    packet_bytes: u32,
    /// Compute cycles charged per packet.
    compute: u64,
    /// Per-task progress. Ordered map: checkpoint serialization iterates
    /// it, and two builds of the same system must produce identical bytes.
    done: std::collections::BTreeMap<TaskIdx, u32>,
    kind: Kind,
    /// One packet's bytes, reused by every step.
    payload: Vec<u8>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Source,
    Filter,
    Sink,
}

impl PipeCoproc {
    /// A source emitting `packets` packets. The coprocessor supports the
    /// function named like itself, so each graph task lands on its own
    /// dedicated unit.
    pub fn source(name: impl Into<String>, packets: u32, packet_bytes: u32, compute: u64) -> Self {
        Self::new(name, packets, packet_bytes, compute, Kind::Source)
    }

    /// A 1-in/1-out transform stage.
    pub fn filter(name: impl Into<String>, packets: u32, packet_bytes: u32, compute: u64) -> Self {
        Self::new(name, packets, packet_bytes, compute, Kind::Filter)
    }

    /// A sink consuming `packets` packets.
    pub fn sink(name: impl Into<String>, packets: u32, packet_bytes: u32, compute: u64) -> Self {
        Self::new(name, packets, packet_bytes, compute, Kind::Sink)
    }

    /// A worker advertising an explicit (possibly shared) `function`
    /// instead of its own name. A pool of workers with the same function
    /// gives the placement pass a real choice — first-fit piles every
    /// task onto the first worker, a load/topology-aware pass spreads
    /// them.
    pub fn worker(
        name: impl Into<String>,
        function: impl Into<String>,
        packets: u32,
        packet_bytes: u32,
        compute: u64,
        kind_of: &str,
    ) -> Self {
        let kind = match kind_of {
            "source" => Kind::Source,
            "filter" => Kind::Filter,
            "sink" => Kind::Sink,
            other => panic!("unknown pipe stage kind '{other}'"),
        };
        let mut c = Self::new(name, packets, packet_bytes, compute, kind);
        c.function = function.into();
        c
    }

    fn new(
        name: impl Into<String>,
        packets: u32,
        packet_bytes: u32,
        compute: u64,
        kind: Kind,
    ) -> Self {
        let name = name.into();
        PipeCoproc {
            function: name.clone(),
            name,
            packets,
            packet_bytes,
            compute,
            done: Default::default(),
            kind,
            payload: vec![0; packet_bytes as usize],
        }
    }
}

impl Coprocessor for PipeCoproc {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, function: &str) -> bool {
        function == self.function
    }

    fn configure_task(
        &mut self,
        task: TaskIdx,
        _decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        self.done.insert(task, 0);
        match self.kind {
            Kind::Source => (vec![], vec![self.packet_bytes]),
            Kind::Filter => (vec![self.packet_bytes], vec![self.packet_bytes]),
            Kind::Sink => (vec![self.packet_bytes], vec![]),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.done.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.done.load(r)
    }

    fn task_state_fits(&self, task: TaskIdx, _row: &TaskRow, _dram_bytes: u32) -> bool {
        self.done.contains_key(&task)
    }

    fn step(&mut self, task: TaskIdx, _info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        const IN: PortId = 0;
        let out: PortId = if self.kind == Kind::Filter { 1 } else { 0 };
        let n = self.packet_bytes;
        let count = self.done.get_mut(&task).expect("unconfigured task");
        if *count >= self.packets {
            return StepResult::Finished;
        }
        let payload = &mut self.payload;
        if self.kind != Kind::Source {
            if !ctx.get_space(IN, n) {
                return StepResult::Blocked;
            }
            ctx.read(IN, 0, payload);
        } else {
            for (i, b) in payload.iter_mut().enumerate() {
                *b = (*count as usize + i) as u8;
            }
        }
        if self.kind != Kind::Sink {
            if !ctx.get_space(out, n) {
                return StepResult::Blocked;
            }
            ctx.write(out, 0, payload);
        }
        ctx.compute(self.compute);
        if self.kind != Kind::Source {
            ctx.put_space(IN, n);
        }
        if self.kind != Kind::Sink {
            ctx.put_space(out, n);
        }
        *count += 1;
        if *count >= self.packets {
            StepResult::Finished
        } else {
            StepResult::Done
        }
    }
}

/// A two-app synthetic pipeline on the private-port crossbar: two fully
/// independent pipes (disjoint streams, dedicated coprocessors, no
/// system-bus traffic) whose every SRAM access pays the crossbar's static
/// grant floor (DESIGN.md §16). The `open_gate` point of the timing
/// fingerprint.
pub fn open_gate_system(packets: u32, compute: u64) -> eclipse_core::EclipseSystem {
    use eclipse_core::{EclipseConfig, SystemBuilder};
    use eclipse_kpn::GraphBuilder;
    use eclipse_mem::{BusConfig, DataFabricConfig};
    use eclipse_shell::SyncFabricConfig;

    let cfg = EclipseConfig::default();
    let mut b = SystemBuilder::new(cfg);
    b.with_data_fabric(DataFabricConfig::PrivatePort {
        grant_cycles: 2,
        port: BusConfig {
            width_bytes: cfg.read_bus.width_bytes,
            latency: cfg.read_bus.latency,
            cycles_per_beat: cfg.read_bus.cycles_per_beat,
        },
    });
    b.with_sync_fabric(SyncFabricConfig::Direct);
    for p in 0..2 {
        b.add_coprocessor(Box::new(PipeCoproc::source(
            format!("src{p}"),
            packets,
            64,
            compute + p as u64, // mild asymmetry between the two apps
        )));
        b.add_coprocessor(Box::new(PipeCoproc::sink(
            format!("dst{p}"),
            packets,
            64,
            40,
        )));
    }
    for p in 0..2 {
        let mut g = GraphBuilder::new(format!("app{p}"));
        let s = g.stream(format!("s{p}"), 256);
        g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[s]);
        g.task(format!("dst{p}"), format!("dst{p}"), 0, &[s], &[]);
        b.map_app(&g.build().unwrap()).unwrap();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_core::{EclipseConfig, RunOutcome, SystemBuilder};
    use eclipse_kpn::GraphBuilder;

    #[test]
    fn three_stage_pipeline_completes() {
        let mut g = GraphBuilder::new("pipe");
        let a = g.stream("a", 256);
        let b = g.stream("b", 256);
        g.task("src", "s", 0, &[], &[a]);
        g.task("mid", "f", 0, &[a], &[b]);
        g.task("dst", "k", 0, &[b], &[]);
        let graph = g.build().unwrap();
        let mut builder = SystemBuilder::new(EclipseConfig::default());
        builder.add_coprocessor(Box::new(PipeCoproc::source("s", 100, 64, 50)));
        builder.add_coprocessor(Box::new(PipeCoproc::filter("f", 100, 64, 80)));
        builder.add_coprocessor(Box::new(PipeCoproc::sink("k", 100, 64, 30)));
        builder.map_app(&graph).unwrap();
        let mut sys = builder.build();
        let summary = sys.run(10_000_000);
        assert_eq!(summary.outcome, RunOutcome::AllFinished);
        // Throughput is set by the slowest stage (~80 cycles/packet plus
        // overheads), not the sum of stages.
        assert!(
            summary.cycles < 100 * (50 + 80 + 30 + 200),
            "pipeline must overlap stages: {}",
            summary.cycles
        );
    }
}
