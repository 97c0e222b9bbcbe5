//! **Experiment E1 — Figure 10**: available data in the RLSQ, DCT, and MC
//! input streams over time while decoding an IPBB... GOP, and the
//! per-picture-type bottleneck attribution ("the overall performance is
//! constrained by a different task for each type of MPEG frame").
//!
//! Usage: `cargo run -p eclipse-bench --release --bin fig10_buffer_traces`

use eclipse_bench::{run_finished, save_result, table, StreamSpec};
use eclipse_coprocs::instance::build_decode_system;
use eclipse_coprocs::mcme::McMeCoproc;
use eclipse_coprocs::records::PicSpan;
use eclipse_core::{EclipseConfig, TraceLog};
use eclipse_media::stream::PictureType;
use eclipse_viz::{render_stacked, ChartConfig};

/// Per-span occupancy (busy + memory-stall cycles) of one shell, from the
/// cumulative traces. Occupancy is the right bottleneck measure: a stage
/// stalled on its off-chip fetches is just as unavailable as one
/// computing (the paper's B-picture MC bound *is* a memory bound).
fn occupancy_in_span(trace: &TraceLog, shell: &str, span: &PicSpan) -> f64 {
    let cum = |name: String, t: u64| -> f64 {
        let series = trace.get(&name).expect("trace series");
        let mut v = 0.0;
        for &(time, value) in &series.points {
            if time <= t {
                v = value;
            } else {
                break;
            }
        }
        v
    };
    let busy = cum(format!("busy/{shell}"), span.end) - cum(format!("busy/{shell}"), span.start);
    let stall = cum(format!("stall/{shell}"), span.end) - cum(format!("stall/{shell}"), span.start);
    busy + stall
}

fn main() {
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    println!(
        "Figure 10 reproduction: decoding {}x{}, {} frames, GOP n={} m={} ({} kB stream)\n",
        spec.width,
        spec.height,
        spec.frames,
        spec.gop.n,
        spec.gop.m,
        bitstream.len() / 1024
    );

    let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
    let summary = run_finished(&mut dec.system.sys, 2_000_000_000, "QCIF decode");
    println!(
        "simulated {} cycles ({:.1} ms at 150 MHz), {} sync messages\n",
        summary.cycles,
        summary.cycles as f64 / 150e3,
        summary.sync_messages
    );

    // --- the figure: buffer-filling traces (paper Figure 10 layout) ----
    let trace = dec.system.sys.trace();
    let rlsq_in = trace
        .get("space/dec0.token:dec0.rlsq.in0")
        .expect("rlsq input trace");
    let dct_in = trace
        .get("space/dec0.coef:dec0.idct.in0")
        .expect("dct input trace");
    let mc_in = trace
        .get("space/dec0.resid:dec0.mc.in1")
        .expect("mc input trace");
    let chart = render_stacked(
        &[rlsq_in, dct_in, mc_in],
        ChartConfig {
            width: 100,
            height: 8,
        },
    );
    println!("Available data in the RLSQ / DCT / MC input streams (paper Figure 10):\n");
    println!("{chart}");

    // --- bottleneck attribution per picture ----------------------------
    let mcme = dec
        .system
        .sys
        .coproc(dec.system.coprocs.mcme)
        .as_any()
        .downcast_ref::<McMeCoproc>()
        .unwrap();
    let mc_task = {
        // The mc task is the only MC/ME task in this system.
        use eclipse_shell::TaskIdx;
        TaskIdx(0)
    };
    let spans = mcme.pic_spans(mc_task).to_vec();
    let shells = ["vld", "rlsq", "dct", "mcme"];
    let mut rows = Vec::new();
    let mut per_type_wins: std::collections::HashMap<PictureType, Vec<&'static str>> =
        Default::default();
    for span in &spans {
        let busys: Vec<f64> = shells
            .iter()
            .map(|s| occupancy_in_span(trace, s, span))
            .collect();
        let denom = (span.end - span.start).max(1) as f64;
        let (best_idx, _) =
            busys.iter().enumerate().fold(
                (0, -1.0),
                |acc, (i, &b)| if b > acc.1 { (i, b) } else { acc },
            );
        per_type_wins
            .entry(span.ptype)
            .or_default()
            .push(shells[best_idx]);
        rows.push(vec![
            format!("{}", span.temporal_ref),
            format!("{:?}", span.ptype),
            format!("{}", span.end - span.start),
            format!("{:.0}%", busys[0] / denom * 100.0),
            format!("{:.0}%", busys[1] / denom * 100.0),
            format!("{:.0}%", busys[2] / denom * 100.0),
            format!("{:.0}%", busys[3] / denom * 100.0),
            shells[best_idx].to_string(),
        ]);
    }
    let t = table(
        &[
            "pic",
            "type",
            "cycles",
            "vld occ",
            "rlsq occ",
            "dct occ",
            "mc occ",
            "bottleneck",
        ],
        &rows,
    );
    println!("Per-picture busy fractions and bottleneck (paper: I->RLSQ, P->DCT, B->MC):\n\n{t}");

    // Majority bottleneck per picture type.
    let majority = |t: PictureType| -> &'static str {
        let wins = per_type_wins.get(&t).cloned().unwrap_or_default();
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for w in wins {
            *counts.entry(w).or_default() += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(s, _)| s)
            .unwrap_or("-")
    };
    let verdict = table(
        &["picture type", "majority bottleneck (measured)", "paper"],
        &[
            vec!["I".into(), majority(PictureType::I).into(), "RLSQ".into()],
            vec!["P".into(), majority(PictureType::P).into(), "DCT".into()],
            vec!["B".into(), majority(PictureType::B).into(), "MC".into()],
        ],
    );
    println!("{verdict}");

    // Save CSVs for external plotting.
    let mut csv = String::from("series,cycle,value\n");
    for s in [rlsq_in, dct_in, mc_in] {
        for &(t, v) in &s.points {
            csv.push_str(&format!("{},{},{}\n", s.name, t, v));
        }
    }
    save_result("fig10_buffer_traces.csv", &csv);
    save_result("fig10_bottlenecks.txt", &format!("{t}\n{verdict}"));
}
