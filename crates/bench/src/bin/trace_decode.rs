//! Capture a structured event trace of the Figure-10 QCIF decode run and
//! export it as Chrome `trace_event` JSON (loadable in Perfetto /
//! `chrome://tracing`) plus a flat CSV, both under `results/`.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin trace_decode`

use eclipse_bench::{print_peak_rss, run_finished, save_result, stream_result, StreamSpec};
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::EclipseConfig;
use eclipse_viz::report::trace_event_summary;

fn main() {
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    println!(
        "Event-trace capture: decoding {}x{}, {} frames ({} kB stream)\n",
        spec.width,
        spec.height,
        spec.frames,
        bitstream.len() / 1024
    );

    let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
    let sink = dec.system.sys.enable_tracing(2_000_000);
    let summary = run_finished(&mut dec.system.sys, 2_000_000_000, "traced QCIF decode");

    let sink = sink.borrow();
    let mut report = String::new();
    report.push_str(&format!(
        "simulated {} cycles, {} sync messages\n\n",
        summary.cycles, summary.sync_messages
    ));
    report.push_str(&trace_event_summary(&sink));

    report.push_str(&format!(
        "\nscheduler-slot occupancy: {:.3}\n",
        summary.sched_occupancy
    ));
    let mut worst: Vec<_> = summary
        .denial_rates
        .iter()
        .filter(|(_, r)| *r > 0.0)
        .collect();
    worst.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.push_str("highest GetSpace denial rates:\n");
    for (label, rate) in worst.iter().take(8) {
        report.push_str(&format!("  {label:<40} {:.1}%\n", rate * 100.0));
    }
    let lat = summary.sync_latency.stat();
    report.push_str(&format!(
        "sync-message latency: mean {:.1} cycles, p95 <= {} cycles (n={})\n",
        lat.mean(),
        summary.sync_latency.quantile_upper_bound(0.95),
        lat.count()
    ));
    print!("{report}");

    save_result("trace_decode_summary.txt", &report);
    // The raw exports (about 65 MB of JSON and 22 MB of CSV) are
    // streamed straight to disk and .gitignore'd; the committed summary
    // above is the reproducible digest. The sink holds the events as a
    // byte log of about 6 B each, so the process peaks near 9 MiB.
    stream_result("trace_decode_qcif.json", |w| sink.write_chrome_trace(w));
    stream_result("trace_decode_qcif.csv", |w| sink.write_csv(w));
    println!("\nwrote results/trace_decode_qcif.json (Chrome trace_event) and results/trace_decode_qcif.csv");
    // Host-dependent, so printed only: CI bounds it.
    print_peak_rss();
}
