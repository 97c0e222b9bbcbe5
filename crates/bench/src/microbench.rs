//! Minimal wall-clock micro-benchmark harness.
//!
//! The build environment has no crates.io access, so the `[[bench]]`
//! targets cannot use Criterion; this module provides the small slice of
//! it they need: time-calibrated iteration counts, a warm-up pass, and a
//! readable one-line report. Statistical rigor (outlier rejection,
//! regression detection) is explicitly out of scope — these numbers keep
//! the *host speed* of the simulator honest, nothing more.

use std::time::{Duration, Instant};

/// Result of one measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Iterations measured (after calibration).
    pub iters: u64,
    /// Total measured wall time.
    pub total: Duration,
}

impl BenchResult {
    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.total.as_nanos() as f64 / self.iters as f64
    }

    /// One-line human-readable summary.
    pub fn report(&self) -> String {
        let ns = self.ns_per_iter();
        let (value, unit) = if ns >= 1e9 {
            (ns / 1e9, "s")
        } else if ns >= 1e6 {
            (ns / 1e6, "ms")
        } else if ns >= 1e3 {
            (ns / 1e3, "µs")
        } else {
            (ns, "ns")
        };
        format!(
            "{:<40} {:>10.2} {}/iter  ({} iters)",
            self.name, value, unit, self.iters
        )
    }
}

/// Measured wall time each benchmark aims for.
const BUDGET: Duration = Duration::from_millis(200);

/// Measure `f`, calibrating the iteration count so the measured run takes
/// roughly 200 ms. Prints the report line and returns the result.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    // Warm-up + calibration: run once, then scale the iteration count to
    // fill the budget (clamped to a sane range).
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(50));
    let iters = (BUDGET.as_nanos() / once.as_nanos()).clamp(3, 1_000_000) as u64;

    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = start.elapsed();
    let result = BenchResult {
        name: name.to_string(),
        iters,
        total,
    };
    println!("{}", result.report());
    result
}
