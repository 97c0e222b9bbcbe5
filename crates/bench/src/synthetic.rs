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
    two_pipe_system(
        crate::points::private_port(2),
        eclipse_shell::SyncFabricConfig::Direct,
        packets,
        compute,
    )
}

/// The two pipes of [`open_gate_system`] on any data and sync fabric:
/// apps `app0` and `app1`, each a source (`compute + p` cycles per
/// packet) feeding a sink through a 256-byte stream, `packets` packets
/// of 64 bytes.
pub fn two_pipe_system(
    data: eclipse_mem::DataFabricConfig,
    sync: eclipse_shell::SyncFabricConfig,
    packets: u32,
    compute: u64,
) -> eclipse_core::EclipseSystem {
    use eclipse_core::{EclipseConfig, SystemBuilder};
    use eclipse_kpn::GraphBuilder;

    let mut b = SystemBuilder::new(EclipseConfig::default());
    b.with_data_fabric(data);
    b.with_sync_fabric(sync);
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

/// A bundle of independent three-stage pipelines as one app `scale`:
/// pipeline `p` is a source `src{p}` (60 cycles per packet) feeding a
/// filter `mid{p}` (90) feeding a sink `dst{p}` (40), each on its own
/// coprocessor, through streams `a{p}` and `b{p}`. The SRAM is sized to
/// hold every buffer.
#[derive(Debug, Clone, Copy)]
pub struct PipeBundle {
    /// Independent pipelines.
    pub pipelines: usize,
    /// Bytes of each stream buffer.
    pub buffer: u32,
    /// Packets each stage moves.
    pub packets: u32,
    /// Payload bytes per packet.
    pub packet_bytes: u32,
}

impl PipeBundle {
    /// The synchronization-scalability bundle: `pipelines` pipelines of
    /// 400 packets of 64 bytes through 256-byte buffers.
    pub const fn scalability(pipelines: usize) -> Self {
        PipeBundle {
            pipelines,
            buffer: 256,
            packets: 400,
            packet_bytes: 64,
        }
    }

    /// Build the bundle on the `data` and `sync` fabrics.
    pub fn system(
        &self,
        data: eclipse_mem::DataFabricConfig,
        sync: eclipse_shell::SyncFabricConfig,
    ) -> eclipse_core::EclipseSystem {
        use eclipse_core::{EclipseConfig, SystemBuilder};
        use eclipse_kpn::GraphBuilder;

        let sram = (self.pipelines as u32 * 2 * self.buffer + 1024)
            .next_power_of_two()
            .max(32 * 1024);
        let mut b = SystemBuilder::new(EclipseConfig::default().with_sram_size(sram));
        b.with_data_fabric(data);
        b.with_sync_fabric(sync);
        let mut g = GraphBuilder::new("scale");
        let (n, bytes) = (self.packets, self.packet_bytes);
        for p in 0..self.pipelines {
            let a = g.stream(format!("a{p}"), self.buffer);
            let bs = g.stream(format!("b{p}"), self.buffer);
            g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[a]);
            g.task(format!("mid{p}"), format!("mid{p}"), 0, &[a], &[bs]);
            g.task(format!("dst{p}"), format!("dst{p}"), 0, &[bs], &[]);
            b.add_coprocessor(Box::new(PipeCoproc::source(
                format!("src{p}"),
                n,
                bytes,
                60,
            )));
            b.add_coprocessor(Box::new(PipeCoproc::filter(
                format!("mid{p}"),
                n,
                bytes,
                90,
            )));
            b.add_coprocessor(Box::new(PipeCoproc::sink(format!("dst{p}"), n, bytes, 40)));
        }
        b.map_app(&g.build().unwrap()).unwrap();
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::shared_bus;
    use crate::run_finished;
    use eclipse_shell::SyncFabricConfig;

    #[test]
    fn three_stage_pipeline_completes() {
        let bundle = PipeBundle {
            packets: 100,
            ..PipeBundle::scalability(1)
        };
        let mut sys = bundle.system(shared_bus(), SyncFabricConfig::Direct);
        let summary = run_finished(&mut sys, 10_000_000, "one pipeline");
        // Throughput is set by the slowest stage (~90 cycles/packet plus
        // overheads), not the sum of stages.
        assert!(
            summary.cycles < 100 * (60 + 90 + 40 + 200),
            "pipeline must overlap stages: {}",
            summary.cycles
        );
    }
}
