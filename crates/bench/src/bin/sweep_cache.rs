//! **Experiment E3 — §7 cache design-space sweep**: "experiments include
//! caching strategies in the shell (e.g. varying cache size, cache
//! prefetching or not)". Sweeps the per-row shell cache size and the
//! prefetch switch, reporting decode time, hit rate, and bus traffic.
//!
//! Design points run in parallel across host cores (`par_sweep`).
//!
//! Usage: `cargo run -p eclipse-bench --release --bin sweep_cache`

use eclipse_bench::{par_sweep, run_finished, save_result, table, Counters, StreamSpec};
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::EclipseConfig;
use eclipse_shell::CacheConfig;

struct PointResult {
    cycles: u64,
    hit_rate: f64,
    prefetches: u64,
    stalls: u64,
    bus_txn: u64,
}

fn main() {
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();
    let total_mbs = spec.mbs_per_frame() as u64 * spec.frames as u64;

    let points: Vec<(&str, CacheConfig)> = vec![
        ("uncached", CacheConfig::with_lines(0, false)),
        ("128 B", CacheConfig::with_lines(2, false)),
        ("256 B", CacheConfig::with_lines(4, false)),
        ("512 B", CacheConfig::with_lines(8, false)),
        ("1 kB", CacheConfig::with_lines(16, false)),
        ("512 B + prefetch", CacheConfig::with_lines(8, true)),
        ("1 kB + prefetch", CacheConfig::with_lines(16, true)),
    ];

    let results = par_sweep(&points, |&(label, cache)| {
        let cfg = EclipseConfig::default().with_cache(cache);
        let mut dec = build_decode_system(cfg, bitstream.clone());
        let summary = run_finished(&mut dec.system.sys, 20_000_000_000, label);
        let c = Counters::of(&dec.system.sys);
        PointResult {
            cycles: summary.cycles,
            hit_rate: c.hit_rate(),
            prefetches: c.prefetches,
            stalls: c.stall_cycles,
            bus_txn: c.port_transactions,
        }
    });

    let baseline_cycles = results[0].cycles;
    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(&results)
        .map(|((label, _), r)| {
            vec![
                label.to_string(),
                format!("{}", r.cycles),
                format!(
                    "{:+.1}%",
                    (r.cycles as f64 / baseline_cycles as f64 - 1.0) * 100.0
                ),
                format!("{:.1}%", r.hit_rate * 100.0),
                format!("{}", r.prefetches),
                format!("{:.0}", r.stalls as f64 / total_mbs as f64),
                format!("{:.1}", r.bus_txn as f64 / total_mbs as f64),
            ]
        })
        .collect();
    let t = table(
        &[
            "cache / port",
            "decode cycles",
            "vs uncached",
            "read hit rate",
            "prefetches",
            "stall cyc/MB",
            "bus txn/MB",
        ],
        &rows,
    );
    println!("Shell cache design-space sweep (paper §7):\n\n{t}");
    println!("Expected shape: bigger caches cut stalls and bus transactions;\nprefetch removes most remaining demand-miss stalls.");
    save_result("sweep_cache.txt", &t);
}
