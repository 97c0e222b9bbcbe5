//! Running a design point and reading it back: the one run check, the
//! outcome cell of the fault tables, and the one rollup of the per-shell
//! and per-port counters.

use eclipse_core::{EclipseSystem, RunOutcome, RunSummary};
use std::fmt::Display;

/// Run `sys` for at most `max_cycles` and return its summary; panics,
/// naming `label` and the outcome, unless every task finished.
pub fn run_finished(sys: &mut EclipseSystem, max_cycles: u64, label: impl Display) -> RunSummary {
    let summary = sys.run(max_cycles);
    assert!(
        summary.outcome == RunOutcome::AllFinished,
        "{label}: run ended in {:?}",
        summary.outcome
    );
    summary
}

/// A run outcome as a table cell: `finished`, `max_cycles`, or
/// `deadlock(N diagnosed)`.
pub fn outcome_cell(o: &RunOutcome) -> String {
    match o {
        RunOutcome::AllFinished => "finished".into(),
        RunOutcome::Deadlock(tasks) => format!("deadlock({} diagnosed)", tasks.len()),
        RunOutcome::MaxCycles => "max_cycles".into(),
    }
}

/// Totals of a run's counters, summed over every shell, stream cache,
/// task row and data-fabric port.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Stream caches.
    pub caches: u64,
    /// Cache read hits.
    pub hits: u64,
    /// Cache read misses.
    pub misses: u64,
    /// Cache prefetches issued.
    pub prefetches: u64,
    /// Cache lines written back (PutSpace flushes).
    pub writebacks: u64,
    /// Cache lines invalidated (GetSpace).
    pub invalidations: u64,
    /// Cycles the shells stalled on cache fills.
    pub stall_cycles: u64,
    /// Steps that ended without progress.
    pub aborted_steps: u64,
    /// GetSpace denials.
    pub denials: u64,
    /// Scheduler task switches.
    pub switches: u64,
    /// Scheduler decisions (GetTask calls).
    pub decisions: u64,
    /// Stream bytes the shells read and wrote.
    pub stream_bytes: u64,
    /// `putspace` messages rejected as stale.
    pub stale_syncs: u64,
    /// Data-fabric ports.
    pub ports: u64,
    /// Transactions over the data-fabric ports.
    pub port_transactions: u64,
    /// Bytes over the data-fabric ports.
    pub port_bytes: u64,
    /// Busy cycles of the data-fabric ports.
    pub port_busy_cycles: u64,
}

impl Counters {
    /// The totals of `sys` as it stands.
    pub fn of(sys: &EclipseSystem) -> Self {
        let mut c = Counters::default();
        for shell in sys.shells() {
            for cache in shell.caches() {
                let s = &cache.stats;
                c.caches += 1;
                c.hits += s.hits;
                c.misses += s.misses;
                c.prefetches += s.prefetches;
                c.writebacks += s.writebacks;
                c.invalidations += s.invalidations;
                c.stall_cycles += s.stall_cycles;
            }
            for task in shell.tasks() {
                c.aborted_steps += task.stats.aborted_steps;
                c.denials += task.stats.denials;
            }
            c.switches += shell.sched().switches;
            c.decisions += shell.sched().decisions;
            c.stream_bytes += shell.stats.bytes_read + shell.stats.bytes_written;
            c.stale_syncs += shell.stats.stale_syncs_rejected;
        }
        for p in sys.data_fabric().ports() {
            c.ports += 1;
            c.port_transactions += p.stats.transactions;
            c.port_bytes += p.stats.bytes;
            c.port_busy_cycles += p.stats.busy_cycles;
        }
        c
    }

    /// Cache read hits over all cache reads; 0 with no reads.
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}
