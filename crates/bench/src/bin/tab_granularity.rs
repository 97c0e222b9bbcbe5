//! **Experiment E12 — Figure 1 / §2.1 granularity of parallelism**:
//! "media-processing applications typically exhibit parallelism at
//! various levels of granularity" — functions (encoder ∥ decoder), tasks
//! (DCT ∥ quantization inside a codec), operations (inside a DCT).
//!
//! Measured on the cycle simulator (which models truly parallel
//! hardware), decoding the standard stream:
//!
//! * **coarse grain** — all five decode tasks time-shared on a *single*
//!   unit (the monolithic "dedicated MPEG processor" of the paper's
//!   introduction, which Eclipse sets out to replace);
//! * **medium grain (Eclipse)** — the tasks spread over the five units of
//!   the Figure 8 instance, running concurrently;
//! * **+ operation grain** — additionally exploiting parallelism inside
//!   the DCT datapath (the paper's pipelined-DCT conclusion);
//! * **function grain** — two independent streams decoded concurrently
//!   on the same instance (throughput scaling across applications).
//!
//! Usage: `cargo run -p eclipse-bench --release --bin tab_granularity`

use eclipse_bench::{run_finished, save_result, table, StreamSpec};
use eclipse_coprocs::apps::{decoder_graph, DecodeAppConfig};
use eclipse_coprocs::cost::DctCost;
use eclipse_coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder};
use eclipse_coprocs::mcme::{arena_bytes, McMeCoproc, McTaskConfig, DECODE_SLOTS};
use eclipse_coprocs::{
    dct::DctCoproc,
    dsp::DspCoproc,
    rlsq::RlsqCoproc,
    vld::{VldCoproc, VldTaskConfig},
};
use eclipse_core::{Coprocessor, EclipseConfig, StepCtx, StepResult, SystemBuilder};
use eclipse_shell::TaskIdx;

/// All of the instance's coprocessors fused behind one shell: every task
/// of the graph lands here and is time-shared — the coarse-grain,
/// single-processor baseline.
struct UnifiedCoproc {
    vld: VldCoproc,
    rlsq: RlsqCoproc,
    dct: DctCoproc,
    mcme: McMeCoproc,
    dsp: DspCoproc,
    route: std::collections::HashMap<TaskIdx, u8>,
}

impl Coprocessor for UnifiedCoproc {
    fn name(&self) -> &str {
        "unified"
    }
    fn supports(&self, f: &str) -> bool {
        self.vld.supports(f)
            || self.rlsq.supports(f)
            || self.dct.supports(f)
            || self.mcme.supports(f)
            || self.dsp.supports(f)
    }
    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        let (unit, hints) = if self.vld.supports(&decl.function) {
            (0, self.vld.configure_task(task, decl))
        } else if self.rlsq.supports(&decl.function) {
            (1, self.rlsq.configure_task(task, decl))
        } else if self.dct.supports(&decl.function) {
            (2, self.dct.configure_task(task, decl))
        } else if self.mcme.supports(&decl.function) {
            (3, self.mcme.configure_task(task, decl))
        } else {
            (4, self.dsp.configure_task(task, decl))
        };
        self.route.insert(task, unit);
        hints
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn step(&mut self, task: TaskIdx, info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        match self.route[&task] {
            0 => self.vld.step(task, info, ctx),
            1 => self.rlsq.step(task, info, ctx),
            2 => self.dct.step(task, info, ctx),
            3 => self.mcme.step(task, info, ctx),
            _ => self.dsp.step(task, info, ctx),
        }
    }
}

fn run_unified(bitstream: Vec<u8>) -> u64 {
    let mut r = eclipse_media::bits::BitReader::new(&bitstream);
    let seq = eclipse_media::stream::read_sequence_header(&mut r).unwrap();
    let costs = InstanceCosts::default();
    let mut b = SystemBuilder::new(EclipseConfig::default());
    let bs_addr = b.dram_alloc(bitstream.len() as u32, 64);
    let arena = b.dram_alloc(
        arena_bytes(seq.width as u32, seq.height as u32, DECODE_SLOTS),
        64,
    );
    let mut vld_cfgs = std::collections::BTreeMap::new();
    vld_cfgs.insert(
        "dec0.vld".to_string(),
        VldTaskConfig::dram(bs_addr, bitstream.len() as u32),
    );
    let mut mc_cfgs = std::collections::BTreeMap::new();
    mc_cfgs.insert(
        "dec0.mc".to_string(),
        McTaskConfig {
            arena_base: arena,
            width: seq.width as u32,
            height: seq.height as u32,
            search_range: 0,
        },
    );
    b.add_coprocessor(Box::new(UnifiedCoproc {
        vld: VldCoproc::new(costs.vld, vld_cfgs),
        rlsq: RlsqCoproc::new(costs.rlsq),
        dct: DctCoproc::new(costs.dct),
        mcme: McMeCoproc::new(costs.mc, mc_cfgs),
        dsp: DspCoproc::new(costs.dsp),
        route: Default::default(),
    }));
    b.map_app(&decoder_graph("dec0", &DecodeAppConfig::default()))
        .unwrap();
    let mut sys = b.build();
    sys.dram_mut().write(bs_addr, &bitstream);
    run_finished(&mut sys, 50_000_000_000, "unified").cycles
}

fn run_eclipse(bitstream: Vec<u8>, dct: DctCost) -> u64 {
    let costs = InstanceCosts {
        dct,
        ..InstanceCosts::default()
    };
    let mut b = MpegBuilder::new(EclipseConfig::default(), costs);
    b.add_decode("dec0", bitstream, DecodeAppConfig::default());
    run_finished(&mut b.build().sys, 50_000_000_000, "eclipse").cycles
}

fn main() {
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    let frames = spec.frames as u64;

    let coarse = run_unified(bitstream.clone());
    let medium = run_eclipse(bitstream.clone(), DctCost::default());
    let fine = run_eclipse(bitstream.clone(), DctCost::pipelined());

    // Function grain: two streams on one instance.
    let (bitstream2, _) = StreamSpec {
        seed: spec.seed + 1,
        ..spec
    }
    .encode();
    let dual = {
        let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
        b.add_decode("a", bitstream.clone(), DecodeAppConfig::default());
        b.add_decode("b", bitstream2, DecodeAppConfig::default());
        run_finished(&mut b.build().sys, 50_000_000_000, "dual").cycles
    };
    // Single-instance sanity point for the dual comparison.
    let single = {
        let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
        run_finished(&mut dec.system.sys, 50_000_000_000, "single").cycles
    };

    let t = table(
        &[
            "granularity exploited",
            "configuration",
            "cycles",
            "cycles/frame",
            "speedup",
        ],
        &[
            vec![
                "none (coarse monolith)".into(),
                "all 5 decode tasks on 1 unit".into(),
                format!("{coarse}"),
                format!("{:.0}", coarse as f64 / frames as f64),
                "1.00x".into(),
            ],
            vec![
                "task level (Eclipse)".into(),
                "tasks across the 5 units".into(),
                format!("{medium}"),
                format!("{:.0}", medium as f64 / frames as f64),
                format!("{:.2}x", coarse as f64 / medium as f64),
            ],
            vec![
                "+ operation level".into(),
                "pipelined DCT datapath".into(),
                format!("{fine}"),
                format!("{:.0}", fine as f64 / frames as f64),
                format!("{:.2}x", coarse as f64 / fine as f64),
            ],
            vec![
                "function level".into(),
                "2 streams on the instance".into(),
                format!("{dual}"),
                format!("{:.0} (2 streams)", dual as f64 / (2 * frames) as f64),
                format!("{:.2}x throughput", 2.0 * single as f64 / dual as f64),
            ],
        ],
    );
    println!("Granularity of parallelism (paper Figure 1), simulated cycles:\n\n{t}");
    println!(
        "\nReading: moving from a monolithic single processor to Eclipse's\n\
         medium-grain tasks buys task-level parallelism; pipelining the DCT\n\
         datapath adds operation-level parallelism (the paper's own Figure 10\n\
         conclusion); and multi-tasking lets a second application share the\n\
         units at better-than-half throughput (function-level parallelism)."
    );
    save_result("tab_granularity.txt", &t);
}
