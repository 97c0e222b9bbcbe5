//! Order statistics, host probes and the calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it (`p` in `(0, 100]`). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The start of a timed span, on the process CPU clock and the wall
/// clock. Every time the benchmark reports is CPU time: on a shared host
/// it does not grow while other work holds the core.
pub struct Span {
    cpu_s: f64,
    wall: Instant,
}

impl Span {
    pub fn start() -> Self {
        Span {
            cpu_s: cpu_s(),
            wall: Instant::now(),
        }
    }

    /// CPU milliseconds since the start.
    pub fn cpu_ms(&self) -> f64 {
        (cpu_s() - self.cpu_s) * 1e3
    }

    /// Wall-clock milliseconds since the start.
    pub fn wall_ms(&self) -> f64 {
        self.wall.elapsed().as_secs_f64() * 1e3
    }
}

/// Median CPU milliseconds of `reps` calls of `f`; dropping the result
/// is not timed.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Span::start();
            let out = black_box(f());
            let ms = t.cpu_ms();
            drop(out);
            ms
        })
        .collect();
    median(&times)
}

/// A fixed pure-CPU kernel (xorshift and rotate, no memory traffic). Its
/// time tracks how fast the host runs this process at the moment, so a
/// drift between the start and the end of a run flags host noise.
pub fn calibration_ms() -> f64 {
    median_ms(5, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..black_box(4_000_000u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
        }
        acc
    })
}

/// `struct rusage` of 64-bit Linux: `ru_utime` and `ru_stime` as
/// (seconds, microseconds) pairs, then 14 `long`s of which `ru_maxrss`
/// (KiB) is the first.
type RUsage = [i64; 18];
const MAXRSS: usize = 4;
/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// CPU seconds this process has used so far (all its threads).
pub fn cpu_s() -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux); the process CPU-time clock always exists.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// Peak resident set of this process image in MiB (`VmHWM`, which
/// unlike `getrusage` leaves out the shell that `exec`ed this binary).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a finished child process used.
pub struct ChildUsage {
    /// It exited with status 0.
    pub ok: bool,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MiB. A child that std spawns through `vfork`
    /// inherits this process's peak, so the figure is at least that.
    pub peak_rss_mib: f64,
}

/// Reaps `child` and returns what it used.
pub fn wait_child(child: std::process::Child) -> ChildUsage {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru: RUsage = [0; 18];
    // SAFETY: `pid` is our own child, not yet reaped (std's `Child` is
    // consumed here and never waited on); `status` and `ru` are writable
    // buffers of the sizes wait4 writes on 64-bit Linux.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let tv = |i: usize| ru[i] as f64 + ru[i + 1] as f64 * 1e-6;
    ChildUsage {
        ok: rc == pid && status == 0,
        cpu_s: tv(0) + tv(2),
        peak_rss_mib: ru[MAXRSS] as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [50.0, 15.0, 40.0, 20.0, 35.0];
        assert_eq!(percentile(&v, 5.0), Some(15.0));
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 75.0), Some(40.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        // A nearest-rank percentile is always one of the samples, never
        // an interpolation between two.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
