//! Developer probe: run the QCIF decode N times for host-side profiling.
//!
//! Usage: `gprofng collect app target/release/profile_qcif 20`

use eclipse_bench::run_finished;
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::EclipseConfig;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let spec = eclipse_bench::StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    let t0 = std::time::Instant::now();
    let mut cycles = 0;
    for _ in 0..n {
        let mut dec = build_decode_system(EclipseConfig::default(), bitstream.clone());
        let summary = run_finished(&mut dec.system.sys, 20_000_000_000, "QCIF decode");
        cycles = std::hint::black_box(summary.cycles);
    }
    println!(
        "{} iters, {:.2} ms/iter, {} cycles",
        n,
        t0.elapsed().as_secs_f64() * 1e3 / n as f64,
        cycles
    );
}
