//! End-of-run accounting: [`RunOutcome`], [`RunSummary`], and the
//! close-out pass that derives them from the system state.

use std::any::Any;

use eclipse_shell::{CpuSyncFabric, SyncFabricStats, TaskIdx};
use eclipse_sim::stats::{Histogram, Utilization};
use eclipse_sim::trace::TraceEventKind;
use eclipse_sim::{Cycle, FaultStats};

use super::supervisor::RecoveryReport;
use super::wedge::WedgeDiagnosis;
use super::EclipseSystem;

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every task on every shell finished.
    AllFinished,
    /// No events remained but tasks were still unfinished — the
    /// application deadlocked (usually undersized buffers). Each stuck
    /// task is diagnosed (see [`WedgeDiagnosis`]).
    Deadlock(Vec<WedgeDiagnosis>),
    /// The cycle limit was reached. The first event past the limit was
    /// discarded and the clock stands at its time.
    MaxCycles,
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Final simulated time.
    pub cycles: Cycle,
    /// Per-shell utilization (busy / stalled / idle cycles).
    pub utilization: Vec<Utilization>,
    /// Total `putspace` messages delivered.
    pub sync_messages: u64,
    /// CPU busy cycles spent forwarding sync messages (the
    /// [`SyncFabricConfig::Cpu`](eclipse_shell::SyncFabricConfig::Cpu)
    /// baseline only; 0 with distributed sync).
    pub cpu_sync_busy: Cycle,
    /// Per-stream `GetSpace` denial rate: `(row label, denied / calls)`
    /// for every stream row that answered at least one call.
    pub denial_rates: Vec<(String, f64)>,
    /// Fraction of all scheduler slots (GetTask invocations) that selected
    /// a runnable task, aggregated over all shells.
    pub sched_occupancy: f64,
    /// Send-to-delivery latency of every `putspace` message, in cycles
    /// (includes CPU serialization in the E10 baseline).
    pub sync_latency: Histogram,
    /// Faults injected during the run (all zero without an injector).
    pub faults: FaultStats,
    /// Decode/parse errors the coprocessors recovered from (graceful
    /// degradation; 0 on clean inputs).
    pub media_errors: u64,
    /// Macroblocks concealed instead of decoded (error concealment).
    pub concealed_mbs: u64,
    /// Supervisor interventions taken during the run (empty for
    /// unsupervised runs and for supervised runs that never had to
    /// act). Observational, like the trace sink: excluded from
    /// checkpoints and the state hash, and monotone across rollbacks.
    pub recovery: Vec<RecoveryReport>,
    /// Cumulative `putspace` network counters from the active sync
    /// fabric: messages routed, link hops traversed, messages that
    /// queued on a busy link, and the cycles they waited. All zero on
    /// the flat direct network except `messages`.
    pub sync_fabric: SyncFabricStats,
}

impl EclipseSystem {
    /// Close out a run that [`EclipseSystem::run_until`] (or its
    /// supervised counterpart) ended with `outcome`: idle accounting,
    /// the final sample, the RunEnd mark, and the observability metrics.
    /// `None` — the cycle limit stopped the run — pops and discards the
    /// first event past the limit, advancing the clock to it, and
    /// reports [`RunOutcome::MaxCycles`].
    pub(crate) fn finish_run(&mut self, outcome: Option<RunOutcome>) -> RunSummary {
        let outcome = outcome.unwrap_or_else(|| {
            let _ = self.cal.pop();
            RunOutcome::MaxCycles
        });
        let end = self.cal.now();
        // Close out idle accounting. Idle shells stay marked idle (at
        // `end`) rather than cleared, so a run resumed after live
        // reconfiguration can still be woken by new work.
        for s in 0..self.shells.len() {
            if let Some(since) = self.idle_since[s] {
                self.utilization[s].idle += end - since;
                self.idle_since[s] = Some(end);
            }
        }
        self.sample(end);
        if let Some(t) = &self.sys_trace {
            let name = match &outcome {
                RunOutcome::AllFinished => "all_finished",
                RunOutcome::Deadlock(_) => "deadlock",
                RunOutcome::MaxCycles => "max_cycles",
            };
            t.emit_with(end, |sink| TraceEventKind::RunEnd {
                outcome: sink.intern(name),
            });
        }
        // Derived observability metrics (always on; pure counters).
        let mut denial_rates = Vec::new();
        for (s, shell) in self.shells.iter().enumerate() {
            for (r, row) in shell.rows().iter().enumerate() {
                if row.retired {
                    continue;
                }
                let calls = row.stats.getspace_calls;
                if calls > 0 {
                    let rate = row.stats.getspace_denied as f64 / calls as f64;
                    denial_rates.push((self.row_labels[s][r].clone(), rate));
                }
            }
        }
        let (mut calls, mut runs) = (0u64, 0u64);
        for shell in &self.shells {
            calls += shell.stats.gettask_calls;
            runs += shell.stats.gettask_runs;
        }
        let sched_occupancy = if calls == 0 {
            0.0
        } else {
            runs as f64 / calls as f64
        };
        let (mut media_errors, mut concealed_mbs) = (0u64, 0u64);
        for (c, shell) in self.coprocs.iter().zip(&self.shells) {
            for task in 0..shell.tasks().len() {
                let (e, m) = c.task_error_counters(TaskIdx(task as u8));
                media_errors += e;
                concealed_mbs += m;
            }
        }
        RunSummary {
            outcome,
            cycles: end,
            utilization: self.utilization.clone(),
            sync_messages: self.sync_messages,
            cpu_sync_busy: (self.sync.as_ref() as &dyn Any)
                .downcast_ref::<CpuSyncFabric>()
                .map_or(0, |f| f.cpu().stats().busy_cycles),
            denial_rates,
            sched_occupancy,
            sync_latency: self.sync_latency.clone(),
            faults: self.fault_stats(),
            media_errors,
            concealed_mbs,
            recovery: std::mem::take(&mut self.recovery_log),
            sync_fabric: self.sync.stats(),
        }
    }
}
