//! **Experiment E2 — Figure 9**: the performance-visualization views the
//! paper's simulation environment produced — an *architecture view*
//! (coprocessor utilization) and *application views* (stream buffer
//! filling, task stall behaviour).
//!
//! Usage: `cargo run -p eclipse-bench --release --bin fig9_visualization`

use eclipse_bench::{run_finished, save_result, table, StreamSpec};
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::EclipseConfig;
use eclipse_viz::{render_series, utilization_bars, ChartConfig, UtilizationRow};

fn main() {
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
    let summary = run_finished(&mut dec.system.sys, 2_000_000_000, "QCIF decode");

    // ---- architecture view: coprocessor utilization --------------------
    println!("=== architecture view: coprocessor utilization ===\n");
    let rows: Vec<UtilizationRow> = dec
        .system
        .sys
        .shell_names()
        .iter()
        .zip(&summary.utilization)
        .map(|(name, util)| UtilizationRow {
            name: name.clone(),
            util: *util,
        })
        .collect();
    let bars = utilization_bars(&rows, 50);
    println!("{bars}");

    // ---- application view: stream buffer filling ------------------------
    println!("=== application view: stream buffer filling ===\n");
    let trace = dec.system.sys.trace();
    let mut out = String::new();
    for name in [
        "space/dec0.token:dec0.rlsq.in0",
        "space/dec0.mv:dec0.mc.in0",
        "space/dec0.coef:dec0.idct.in0",
        "space/dec0.resid:dec0.mc.in1",
        "space/dec0.recon:dec0.display.in0",
    ] {
        let series = trace.get(name).expect("trace series");
        let chart = render_series(
            series,
            ChartConfig {
                width: 90,
                height: 6,
            },
        );
        println!("{chart}");
        out.push_str(&chart);
    }

    // ---- application view: GetSpace denials per task over time ----------
    println!("=== application view: GetSpace denials per task over time ===\n");
    for name in [
        "taskdenied/dec0.vld",
        "taskdenied/dec0.rlsq",
        "taskdenied/dec0.mc",
    ] {
        if let Some(series) = trace.get(name) {
            let chart = render_series(
                series,
                ChartConfig {
                    width: 90,
                    height: 4,
                },
            );
            println!("{chart}");
            out.push_str(&chart);
        }
    }

    // ---- application view: task behaviour -------------------------------
    println!("=== application view: per-task behaviour ===\n");
    let mut rows = Vec::new();
    for (s, shell) in dec.system.sys.shells().iter().enumerate() {
        for task in shell.tasks() {
            let st = &task.stats;
            rows.push(vec![
                task.cfg.name.clone(),
                dec.system.sys.shell_names()[s].clone(),
                format!("{}", st.steps),
                format!("{}", st.aborted_steps),
                format!("{}", st.busy_cycles),
                format!("{}", st.denials),
                format!("{}", st.switches_in),
            ]);
        }
    }
    let task_table = table(
        &[
            "task",
            "unit",
            "steps",
            "aborted",
            "busy cycles",
            "GetSpace denials",
            "switches in",
        ],
        &rows,
    );
    println!("{task_table}");

    save_result("fig9_views.txt", &format!("{bars}\n{out}\n{task_table}"));
}
