//! Parallel design-point execution for the sweep binaries.
//!
//! Every design point of a sweep is an independent simulation — separate
//! `EclipseSystem`, separate RNG state, separate stats — so points can run
//! on separate host threads with **no** effect on simulated timing. The
//! executor here is deliberately std-only (scoped threads + an atomic work
//! index): results come back in the input order regardless of which thread
//! finished first, so sweep tables are byte-stable across thread counts.
//!
//! Set `ECLIPSE_SWEEP_THREADS=N` to override the default of one thread
//! per available core — useful for timing comparisons and for debugging
//! a single point.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads for a sweep over `points` design points:
/// `ECLIPSE_SWEEP_THREADS` if set, else one per available core — never
/// more than there are points.
pub fn sweep_threads(points: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads_for(
        std::env::var("ECLIPSE_SWEEP_THREADS").ok().as_deref(),
        cores,
        points,
    )
}

/// [`sweep_threads`] given the variable's value: a count that parses,
/// else `cores`, clamped to at least one and at most `points`.
fn threads_for(var: Option<&str>, cores: usize, points: usize) -> usize {
    var.and_then(|v| v.trim().parse().ok())
        .unwrap_or(cores)
        .clamp(1, points.max(1))
}

/// Run `run` over every design point, in parallel across host cores.
///
/// Deterministic by construction: each point is handed to exactly one
/// worker, workers share nothing but the work index, and the result vector
/// is ordered by input position — the output is identical to
/// `points.iter().map(run).collect()`, just faster.
pub fn par_sweep<T: Sync, R: Send>(points: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = sweep_threads(points.len());
    if threads <= 1 || points.len() <= 1 {
        return points.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let r = run(&points[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker produced no result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_sweep_preserves_input_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = par_sweep(&points, |&p| p * p);
        assert_eq!(out, points.iter().map(|p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn par_sweep_matches_serial_run() {
        let points: Vec<u64> = (0..17).collect();
        let serial: Vec<u64> = points.iter().map(|&p| p.wrapping_mul(0x9E3779B9)).collect();
        let parallel = par_sweep(&points, |&p| p.wrapping_mul(0x9E3779B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_sweep_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_sweep(&empty, |&p| p).is_empty());
        assert_eq!(par_sweep(&[7u32], |&p| p + 1), vec![8]);
    }

    #[test]
    fn sweep_threads_respects_override() {
        assert_eq!(threads_for(Some("1"), 8, 100), 1);
        assert_eq!(threads_for(Some("0"), 8, 100), 1);
        assert_eq!(threads_for(Some(" 3 "), 8, 100), 3);
        assert_eq!(threads_for(Some("many"), 8, 100), 8);
        assert_eq!(threads_for(Some(""), 8, 100), 8);
        assert_eq!(threads_for(None, 8, 100), 8);
        // Never more threads than points, and at least one.
        assert_eq!(threads_for(Some("16"), 8, 5), 5);
        assert_eq!(threads_for(None, 8, 5), 5);
        assert_eq!(threads_for(None, 8, 0), 1);
    }
}
