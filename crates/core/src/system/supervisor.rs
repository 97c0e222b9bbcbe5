//! Self-healing supervision (ISSUE 8): per-app QoS contracts, a health
//! monitor folding the existing robustness signals, and a deterministic
//! recovery ladder.
//!
//! The supervisor closes the loop between the robustness pieces that
//! already exist in isolation: the fault injector and deadlock watchdog
//! *detect* trouble (PR 3), checkpoints can *rewind* it (PR 6), and the
//! lifecycle API can *remap* around it (PR 4). It drives the run in
//! `check_interval` slices of [`EclipseSystem::run_until`] — which
//! preserves the exact event pop order of [`EclipseSystem::run`] — and
//! only ever *reads* host-side state between slices, so a supervised
//! run with no faults and no interventions is byte-identical to an
//! unsupervised one (timing fingerprint and `state_hash` both; the
//! happy path is free).
//!
//! ## The recovery ladder
//!
//! When the watchdog diagnoses a wedge, the stuck tasks are attributed
//! to their owning application and the victim escalates through four
//! rungs, deterministically:
//!
//! 1. **Retry** — preempt the stuck tasks via `set_task_enabled`,
//!    back off exponentially (other apps keep running), re-enable.
//!    Heals transient livelocks: injected stalls, delayed syncs, and
//!    bus-retry storms that starved the watchdog without losing state.
//! 2. **Rollback** — restore the nearest entry of the rolling
//!    checkpoint ring. Architectural state rewinds; the fault
//!    injector's RNG cursors do *not* (faults are environmental, so
//!    the replay diverges instead of re-wedging deterministically) and
//!    neither does the recovery log. Heals lost-credit wedges: the
//!    pre-drop space views are restored wholesale. The CPU re-programs
//!    the shell tables over the PI bus, so each rollback charges
//!    `rows×4 + tasks×4` register writes.
//! 3. **Degrade** — force concealment-only decode on the victim
//!    (every task that accepts [`Coprocessor::set_conceal_only`]
//!    (crate::coproc::Coprocessor::set_conceal_only)), or — when the
//!    victim has no degraded mode or is already degraded — evict the
//!    lowest-priority app via `drain_app`/`unmap_app`, re-balancing
//!    its budget pro-rata onto the survivors.
//! 4. **Quarantine** — pause the victim for good and keep the rest of
//!    the system serving.
//!
//! Error-budget exhaustion (per-app media errors over the contract)
//! jumps straight to the degrade rung at the next health check; it
//! does not wait for a wedge.
//!
//! ## Checkpoint-ring policy
//!
//! Bounded count × interval: every `checkpoint_interval` cycles (at a
//! health-check boundary) the supervisor snapshots the system via
//! [`EclipseSystem::save`] into a ring of at most `checkpoint_ring`
//! entries, oldest evicted first. `save` never mutates the system, so
//! the ring is invisible to simulated timing. Host memory is bounded
//! by `checkpoint_ring × checkpoint size` (zero-RLE keeps a mostly
//! empty DRAM cheap).

use std::collections::{BTreeMap, HashMap, VecDeque};

use eclipse_sim::Cycle;

use super::wedge::WedgeDiagnosis;
use super::{AppState, EclipseSystem, RunOutcome, RunSummary};

/// Per-application quality-of-service contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosContract {
    /// Cycle budget per delivered output unit (display frame, PCM
    /// sample): the app is expected to have delivered `now /
    /// frame_budget` units (minus `deadline_grace`). 0 disables
    /// deadline tracking for the app.
    pub frame_budget: Cycle,
    /// Media errors (`task_error_counters().0` summed over the app's
    /// tasks) tolerated before the supervisor forces concealment-only
    /// decode. `u64::MAX` disables the error budget.
    pub error_budget: u64,
    /// Eviction priority: when the degrade rung must evict, the live
    /// app with the *lowest* priority goes first (ties broken by app
    /// name for determinism).
    pub priority: u8,
}

impl Default for QosContract {
    fn default() -> Self {
        QosContract {
            frame_budget: 0,
            error_budget: u64::MAX,
            priority: 100,
        }
    }
}

/// Supervisor tuning knobs. The defaults are sized for the media
/// workloads in this repo (hundreds of thousands to millions of cycles
/// per run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Health-check cadence: the supervised run advances in
    /// `run_until` slices of this many cycles.
    pub check_interval: Cycle,
    /// Checkpoint-ring cadence (rounded up to the next health check).
    pub checkpoint_interval: Cycle,
    /// Checkpoint-ring depth (oldest entry evicted first). 0 disables
    /// the rollback rung entirely.
    pub checkpoint_ring: usize,
    /// Retry-rung attempts per app before escalating to rollback.
    pub retry_limit: u32,
    /// Base preempt/re-enable backoff; attempt `k` waits
    /// `retry_backoff << k` cycles.
    pub retry_backoff: Cycle,
    /// Rollback-rung attempts per app before escalating to degrade.
    pub rollback_limit: u32,
    /// Simulated cycles an eviction drain may pump before the victim
    /// is quarantined instead.
    pub evict_drain_wait: Cycle,
    /// Accumulated deadline misses tolerated before an app is degraded
    /// proactively. `u64::MAX` disables the trigger (misses are still
    /// counted and reported).
    pub deadline_miss_limit: u64,
    /// Slack, in output units, granted before a deadline check counts
    /// as missed (absorbs pipeline fill latency).
    pub deadline_grace: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            check_interval: 100_000,
            checkpoint_interval: 500_000,
            checkpoint_ring: 4,
            retry_limit: 2,
            retry_backoff: 20_000,
            rollback_limit: 2,
            evict_drain_wait: 500_000,
            deadline_miss_limit: u64::MAX,
            deadline_grace: 2,
        }
    }
}

/// Health of one supervised application, folded from the watchdog,
/// media-error counters, credit-loss/stale-sync ledgers, and deadline
/// tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AppHealth {
    /// Meeting its contract, no anomalous signals.
    Healthy,
    /// Anomalous signals observed (errors, credit loss, deadline
    /// misses, a survived retry) but still serving.
    Suspect,
    /// Forced into concealment-only decode by the degrade rung.
    Degraded,
    /// Paused for good by the quarantine rung (or a failed eviction).
    Quarantined,
}

/// What the supervisor did (the ladder rung taken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Rung 1: preempt + exponential backoff + re-enable.
    Retry {
        /// Names of the preempted tasks.
        tasks: Vec<String>,
        /// Backoff waited before re-enabling, in cycles.
        backoff: Cycle,
    },
    /// Rung 2: restore the nearest checkpoint-ring entry.
    Rollback {
        /// The cycle the system rewound to.
        to_cycle: Cycle,
        /// Simulated work discarded by the rewind.
        dropped_cycles: Cycle,
    },
    /// Rung 3a: concealment-only decode forced on the app.
    Degrade {
        /// Tasks switched into concealment-only mode.
        tasks: u32,
    },
    /// Rung 3b: lowest-priority app drained and unmapped, budget
    /// re-balanced pro-rata onto the survivors.
    Evict {
        /// Cycles the drain waited for in-flight syncs.
        drain_wait: Cycle,
    },
    /// Rung 4: the app is paused for good; the rest keep serving.
    Quarantine,
}

impl RecoveryAction {
    /// Ladder rung number (1–4).
    pub fn rung(&self) -> u8 {
        match self {
            RecoveryAction::Retry { .. } => 1,
            RecoveryAction::Rollback { .. } => 2,
            RecoveryAction::Degrade { .. } | RecoveryAction::Evict { .. } => 3,
            RecoveryAction::Quarantine => 4,
        }
    }

    /// Stable rung name for tables and logs.
    pub fn rung_name(&self) -> &'static str {
        match self {
            RecoveryAction::Retry { .. } => "retry",
            RecoveryAction::Rollback { .. } => "rollback",
            RecoveryAction::Degrade { .. } => "degrade",
            RecoveryAction::Evict { .. } => "evict",
            RecoveryAction::Quarantine => "quarantine",
        }
    }
}

/// Why the supervisor acted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryTrigger {
    /// The watchdog diagnosed a wedge; `suspects` tasks were stuck
    /// (administratively paused tasks excluded).
    Wedge {
        /// Deadlock suspects in the diagnosis.
        suspects: u32,
    },
    /// The app's media-error count exceeded its contract.
    ErrorBudget {
        /// Errors observed at the health check.
        errors: u64,
        /// The contract's budget.
        budget: u64,
    },
    /// The app's accumulated deadline misses exceeded the configured
    /// limit.
    DeadlineMisses {
        /// Misses accumulated so far.
        misses: u64,
    },
}

/// One supervisor intervention, rolled into [`RunSummary::recovery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Simulated cycle the trigger was detected.
    pub cycle: Cycle,
    /// The ladder rung taken.
    pub action: RecoveryAction,
    /// What tripped it.
    pub trigger: RecoveryTrigger,
    /// PI-bus cycles the intervention charged (preempt/re-enable
    /// writes, table re-programming after a rollback, drain/unmap
    /// configuration traffic).
    pub pi_cycles: u64,
    /// Simulated cycles from detection until normal execution resumed
    /// (backoff waits, drain pumping; 0 for a rollback, which moves
    /// time backward — see `RecoveryAction::Rollback::dropped_cycles`).
    pub latency: Cycle,
    /// Applications affected (the victim; plus the evictee when they
    /// differ).
    pub apps: Vec<String>,
}

/// Per-app deadline bookkeeping reported by
/// [`Supervisor::deadline_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineStats {
    /// Health checks where the app was on schedule.
    pub met: u64,
    /// Health checks where the app was behind its frame budget.
    pub missed: u64,
}

#[derive(Default)]
struct AppMonitor {
    health: Option<AppHealth>, // None until first observed
    retries: u32,
    rollbacks: u32,
    degraded: bool,
    last_progress_units: u64,
    deadlines: DeadlineStats,
}

/// The supervision driver: contracts, health, the checkpoint ring, and
/// the escalation state of the recovery ladder. One `Supervisor` is
/// meant to live for one run (its checkpoint ring is only valid for
/// the system it was filled from).
pub struct Supervisor {
    cfg: SupervisorConfig,
    contracts: HashMap<String, QosContract>,
    monitors: BTreeMap<String, AppMonitor>,
    ring: VecDeque<(Cycle, Vec<u8>)>,
    next_check: Cycle,
    next_ckpt: Cycle,
    started: bool,
    last_credits_lost: u64,
    last_stale_syncs: u64,
    /// After a rollback, no new checkpoints are banked until the clock
    /// re-passes the cycle where the wedge was detected. A replayed
    /// window re-checkpointing the same doomed state would pin the ring
    /// and stop recurrence from escalating to older (pre-fault) entries.
    ckpt_hold_until: Cycle,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new(SupervisorConfig::default())
    }
}

impl Supervisor {
    /// A supervisor with the given knobs and no contracts (every app
    /// gets [`QosContract::default`]: no deadline or error budget,
    /// priority 100).
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor {
            cfg,
            contracts: HashMap::new(),
            monitors: BTreeMap::new(),
            ring: VecDeque::new(),
            next_check: 0,
            next_ckpt: 0,
            started: false,
            last_credits_lost: 0,
            last_stale_syncs: 0,
            ckpt_hold_until: 0,
        }
    }

    /// Register (or replace) the QoS contract of an application graph,
    /// keyed by graph name (e.g. `dec0-decode`).
    pub fn set_contract(&mut self, app: &str, contract: QosContract) -> &mut Self {
        self.contracts.insert(app.to_string(), contract);
        self
    }

    /// The configured knobs.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Current health of an app, if it has been observed.
    pub fn health(&self, app: &str) -> Option<AppHealth> {
        self.monitors.get(app).and_then(|m| m.health)
    }

    /// Deadline bookkeeping per app (only apps with a non-zero
    /// `frame_budget` accumulate checks), sorted by app name.
    pub fn deadline_stats(&self) -> Vec<(String, DeadlineStats)> {
        self.monitors
            .iter()
            .map(|(name, m)| (name.clone(), m.deadlines))
            .collect()
    }

    /// Entries currently held in the checkpoint ring, as
    /// `(cycle, bytes)` sizes.
    pub fn checkpoint_ring(&self) -> Vec<(Cycle, usize)> {
        self.ring.iter().map(|(c, b)| (*c, b.len())).collect()
    }

    fn contract(&self, app: &str) -> QosContract {
        self.contracts.get(app).copied().unwrap_or_default()
    }

    fn ensure_started(&mut self, now: Cycle) {
        if !self.started {
            self.started = true;
            self.next_check = now + self.cfg.check_interval;
            self.next_ckpt = now + self.cfg.checkpoint_interval;
        }
    }
}

/// Per-app signals read (without perturbing anything) at a health
/// check or wedge.
struct AppSignals {
    errors: u64,
    progress: Option<u64>,
    state: AppState,
}

fn app_signals(sys: &EclipseSystem, name: &str) -> Option<AppSignals> {
    let rec = sys.apps.get(name)?;
    let mut errors = 0u64;
    let mut progress: Option<u64> = None;
    for &(s, t) in &rec.tasks {
        let (e, _) = sys.coprocs[s].task_error_counters(t);
        errors += e;
        if let Some(u) = sys.coprocs[s].progress_units(t) {
            progress = Some(progress.unwrap_or(0) + u);
        }
    }
    Some(AppSignals {
        errors,
        progress,
        state: rec.state,
    })
}

fn app_names_sorted(sys: &EclipseSystem) -> Vec<String> {
    let mut names: Vec<String> = sys.apps.keys().cloned().collect();
    names.sort();
    names
}

enum WedgeVerdict {
    Handled,
    GiveUp(Vec<WedgeDiagnosis>),
}

impl EclipseSystem {
    /// Advance a *supervised* run until `stop_at`, every task
    /// finishing, or an unrecoverable deadlock — the supervised
    /// counterpart of [`EclipseSystem::run_until`], with the same
    /// resume semantics (the event at the stop boundary stays in the
    /// calendar). Health checks, checkpoints, and recovery actions
    /// happen between event pops, so a run that never needs an
    /// intervention pops the exact same event sequence as an
    /// unsupervised one.
    pub fn run_supervised_until(
        &mut self,
        stop_at: Cycle,
        sup: &mut Supervisor,
    ) -> Option<RunOutcome> {
        self.kickoff();
        sup.ensure_started(self.cal.now());
        loop {
            let stop = sup.next_check.min(stop_at);
            match self.run_until(stop) {
                Some(RunOutcome::AllFinished) => return Some(RunOutcome::AllFinished),
                Some(RunOutcome::Deadlock(diags)) => match sup.handle_wedge(self, diags) {
                    WedgeVerdict::Handled => {}
                    WedgeVerdict::GiveUp(diags) => return Some(RunOutcome::Deadlock(diags)),
                },
                // `run_until` never reports MaxCycles; it returns None
                // at the boundary instead.
                Some(RunOutcome::MaxCycles) => unreachable!("run_until has no cycle limit"),
                None => {
                    if stop >= stop_at {
                        return None;
                    }
                    sup.tick(self);
                }
            }
        }
    }

    /// Run under supervision until every task finishes, an
    /// unrecoverable deadlock, or `max_cycles` — the supervised
    /// counterpart of [`EclipseSystem::run`]. Recovery actions taken
    /// along the way land in [`RunSummary::recovery`].
    pub fn run_supervised(&mut self, max_cycles: Cycle, sup: &mut Supervisor) -> RunSummary {
        let outcome = self.run_supervised_until(max_cycles, sup);
        self.finish_run(outcome)
    }
}

impl Supervisor {
    /// One health check: fold the robustness signals into per-app
    /// health, count deadline hits/misses, refresh the checkpoint
    /// ring, and fire proactive (non-wedge) triggers.
    fn tick(&mut self, sys: &mut EclipseSystem) {
        let now = sys.cal.now();

        // Checkpoint the (still healthy enough to be running) state
        // first, so a later rollback lands before this tick's damage
        // responses, not after them.
        if self.cfg.checkpoint_ring > 0 && now >= self.next_ckpt && now >= self.ckpt_hold_until {
            if self.ring.back().map(|(c, _)| *c) != Some(now) {
                self.ring.push_back((now, sys.save()));
                while self.ring.len() > self.cfg.checkpoint_ring {
                    self.ring.pop_front();
                }
            }
            self.next_ckpt = now + self.cfg.checkpoint_interval;
        }

        // System-wide anomaly signals that cannot be attributed to one
        // app: lost sync credits and stale (rejected) syncs. Their
        // growth marks every running app Suspect.
        let credits_lost = sys.fault_stats().credits_lost;
        let stale: u64 = sys
            .shells
            .iter()
            .map(|sh| sh.stats.stale_syncs_rejected)
            .sum();
        let global_anomaly = credits_lost > self.last_credits_lost || stale > self.last_stale_syncs;
        self.last_credits_lost = credits_lost;
        self.last_stale_syncs = stale;

        for name in app_names_sorted(sys) {
            let Some(sig) = app_signals(sys, &name) else {
                continue;
            };
            let contract = self.contract(&name);
            let mon = self.monitors.entry(name.clone()).or_default();
            if mon.health.is_none() {
                mon.health = Some(AppHealth::Healthy);
            }
            if mon.health == Some(AppHealth::Quarantined) || sig.state == AppState::Drained {
                continue;
            }

            // Progress resets the retry rung: the app recovered on its
            // own (or an intervention worked), so the next wedge
            // starts the ladder from the bottom again.
            if let Some(units) = sig.progress {
                if units > mon.last_progress_units {
                    mon.last_progress_units = units;
                    mon.retries = 0;
                    if mon.health == Some(AppHealth::Suspect) {
                        mon.health = Some(AppHealth::Healthy);
                    }
                }
            }

            // Deadline tracking against the frame budget (a zero
            // budget disables it — checked_div folds that gate in).
            if let Some(quota) = now.checked_div(contract.frame_budget) {
                if let Some(units) = sig.progress {
                    let expected = quota.saturating_sub(self.cfg.deadline_grace);
                    if units >= expected {
                        mon.deadlines.met += 1;
                    } else {
                        mon.deadlines.missed += 1;
                        if mon.health == Some(AppHealth::Healthy) {
                            mon.health = Some(AppHealth::Suspect);
                        }
                    }
                }
            }

            if global_anomaly && mon.health == Some(AppHealth::Healthy) {
                mon.health = Some(AppHealth::Suspect);
            }
            if sig.errors > 0 && mon.health == Some(AppHealth::Healthy) {
                mon.health = Some(AppHealth::Suspect);
            }

            // Proactive degrade triggers (no wedge needed): the error
            // budget or the deadline-miss limit ran out.
            let already_degraded = mon.degraded;
            let misses = mon.deadlines.missed;
            let trigger = if sig.errors > contract.error_budget && !already_degraded {
                Some(RecoveryTrigger::ErrorBudget {
                    errors: sig.errors,
                    budget: contract.error_budget,
                })
            } else if misses > self.cfg.deadline_miss_limit && !already_degraded {
                Some(RecoveryTrigger::DeadlineMisses { misses })
            } else {
                None
            };
            if let Some(trigger) = trigger {
                self.degrade_app(sys, &name, trigger);
            }
        }

        self.next_check = self.next_check.max(now) + self.cfg.check_interval;
    }

    /// The escalation ladder, entered on a watchdog wedge diagnosis.
    fn handle_wedge(
        &mut self,
        sys: &mut EclipseSystem,
        diags: Vec<WedgeDiagnosis>,
    ) -> WedgeVerdict {
        // Attribute the suspects (non-paused stuck tasks) to apps.
        let mut owner: HashMap<(usize, u8), String> = HashMap::new();
        for name in app_names_sorted(sys) {
            for &(s, t) in &sys.apps[&name].tasks {
                owner.insert((s, t.0), name.clone());
            }
        }
        let suspects: Vec<&WedgeDiagnosis> = diags.iter().filter(|d| d.is_suspect()).collect();
        let mut per_app: BTreeMap<String, Vec<&WedgeDiagnosis>> = BTreeMap::new();
        for d in &suspects {
            if let Some(app) = owner.get(&(d.shell, d.task.0)) {
                per_app.entry(app.clone()).or_default().push(d);
            }
        }
        // Victim: the app owning the most stuck tasks; BTreeMap order
        // breaks ties by name, deterministically.
        let victim = per_app
            .iter()
            .max_by_key(|(_, v)| v.len())
            .map(|(k, _)| k.clone());
        let Some(victim) = victim else {
            // Nothing attributable is stuck (only paused/quarantined
            // tasks remain, or the suspects belong to no app): the
            // ladder has nothing left to act on.
            return WedgeVerdict::GiveUp(diags);
        };
        let trigger = RecoveryTrigger::Wedge {
            suspects: suspects.len() as u32,
        };
        let wedged: Vec<(usize, eclipse_shell::task_table::TaskIdx, String)> = per_app[&victim]
            .iter()
            .map(|d| (d.shell, d.task, d.task_name.clone()))
            .collect();

        let mon = self.monitors.entry(victim.clone()).or_default();
        if mon.health == Some(AppHealth::Quarantined) {
            return WedgeVerdict::GiveUp(diags);
        }
        if mon.health.is_none() || mon.health == Some(AppHealth::Healthy) {
            mon.health = Some(AppHealth::Suspect);
        }

        if mon.retries < self.cfg.retry_limit {
            self.retry_tasks(sys, &victim, &wedged, trigger);
        } else if mon.rollbacks < self.cfg.rollback_limit && !self.ring.is_empty() {
            self.rollback(sys, &victim, trigger);
        } else if !mon.degraded && self.degrade_app(sys, &victim, trigger.clone()) {
            // Degrade accepted; the wedge gets another chance to clear.
        } else if let Some(evictee) = self.eviction_candidate(sys, &victim) {
            self.evict_app(sys, &victim, &evictee, trigger);
        } else {
            self.quarantine_app(sys, &victim, trigger);
            // If nothing outside quarantine can still run, stop now
            // instead of waiting out another watchdog period.
            if self.all_remaining_quarantined(sys) {
                return WedgeVerdict::GiveUp(diags);
            }
        }
        // Every rung resets the watchdog clock: the intervention is
        // the progress.
        sys.last_progress = sys.cal.now();
        WedgeVerdict::Handled
    }

    /// Rung 1: preempt the stuck tasks, back off exponentially while
    /// the rest of the system keeps running, re-enable.
    fn retry_tasks(
        &mut self,
        sys: &mut EclipseSystem,
        victim: &str,
        wedged: &[(usize, eclipse_shell::task_table::TaskIdx, String)],
        trigger: RecoveryTrigger,
    ) {
        let start = sys.cal.now();
        let pi0 = sys.pi_busy_cycles;
        let mon = self.monitors.entry(victim.to_string()).or_default();
        let attempt = mon.retries;
        mon.retries += 1;
        let backoff = self.cfg.retry_backoff << attempt;

        sys.charge_pi(wedged.len() as u64);
        for &(s, t, _) in wedged {
            sys.shells[s].set_task_enabled(t, false);
        }
        // The stuck tasks are parked; give everyone else the backoff
        // window (and the watchdog a fresh clock).
        sys.last_progress = start;
        let _ = sys.run_until(start + backoff);
        let config_done = sys.charge_pi(wedged.len() as u64);
        let mut touched: Vec<usize> = wedged.iter().map(|&(s, _, _)| s).collect();
        touched.sort_unstable();
        touched.dedup();
        for &(s, t, _) in wedged {
            sys.shells[s].set_task_enabled(t, true);
        }
        for s in touched {
            sys.wake(s, config_done);
        }
        let now = sys.cal.now();
        sys.recovery_log.push(RecoveryReport {
            cycle: start,
            action: RecoveryAction::Retry {
                tasks: wedged.iter().map(|(_, _, n)| n.clone()).collect(),
                backoff,
            },
            trigger,
            pi_cycles: sys.pi_busy_cycles - pi0,
            latency: now.saturating_sub(start),
            apps: vec![victim.to_string()],
        });
    }

    /// Rung 2: restore the newest checkpoint-ring entry, keeping the
    /// fault injector's forward position (faults are environmental —
    /// a rewound run faces *new* faults, not a replay of the ones that
    /// wedged it) and charging the PI bus for the table re-program.
    fn rollback(&mut self, sys: &mut EclipseSystem, victim: &str, trigger: RecoveryTrigger) {
        let wedged_at = sys.cal.now();
        // Consume the entry: a wedge that recurs after this rollback
        // escalates to the *next older* checkpoint instead of rewinding
        // to the same (possibly already-doomed) state forever.
        let (to_cycle, bytes) = self.ring.pop_back().expect("caller checked");
        let fault_forward = sys.fault.clone();
        sys.restore(&bytes)
            .expect("checkpoint-ring entry restores into its own system");
        sys.fault = fault_forward;
        sys.last_progress = sys.cal.now();
        // Re-anchor the supervision cadence to the rewound clock;
        // otherwise the next health check would still sit at the
        // pre-rollback schedule, far in the simulated future.
        self.next_check = sys.cal.now() + self.cfg.check_interval;
        self.next_ckpt = sys.cal.now() + self.cfg.checkpoint_interval;
        self.ckpt_hold_until = self.ckpt_hold_until.max(wedged_at);
        let pi0 = sys.pi_busy_cycles;
        let writes: u64 = sys
            .apps
            .values()
            .map(|rec| rec.tasks.len() as u64 * 4 + rec.rows.len() as u64 * 4)
            .sum();
        sys.charge_pi(writes);
        let mon = self.monitors.entry(victim.to_string()).or_default();
        mon.rollbacks += 1;
        sys.recovery_log.push(RecoveryReport {
            cycle: wedged_at,
            action: RecoveryAction::Rollback {
                to_cycle,
                dropped_cycles: wedged_at.saturating_sub(to_cycle),
            },
            trigger,
            pi_cycles: sys.pi_busy_cycles - pi0,
            latency: 0,
            apps: vec![victim.to_string()],
        });
    }

    /// Rung 3a: force concealment-only mode on every task of the app
    /// that supports it. Returns false (and does nothing) if none do.
    fn degrade_app(
        &mut self,
        sys: &mut EclipseSystem,
        app: &str,
        trigger: RecoveryTrigger,
    ) -> bool {
        let Some(tasks) = sys.apps.get(app).map(|r| r.tasks.clone()) else {
            return false;
        };
        let start = sys.cal.now();
        let pi0 = sys.pi_busy_cycles;
        let mut accepted = 0u32;
        for (s, t) in tasks {
            if sys.coprocs[s].set_conceal_only(t, true) {
                accepted += 1;
            }
        }
        if accepted == 0 {
            return false;
        }
        sys.charge_pi(accepted as u64);
        let mon = self.monitors.entry(app.to_string()).or_default();
        mon.degraded = true;
        mon.health = Some(AppHealth::Degraded);
        sys.last_progress = start;
        sys.recovery_log.push(RecoveryReport {
            cycle: start,
            action: RecoveryAction::Degrade { tasks: accepted },
            trigger,
            pi_cycles: sys.pi_busy_cycles - pi0,
            latency: 0,
            apps: vec![app.to_string()],
        });
        true
    }

    /// The lowest-priority live (not drained, not quarantined) app, or
    /// None when fewer than two apps are live — evicting the only app
    /// is just a quarantine with extra steps.
    fn eviction_candidate(&self, sys: &EclipseSystem, _victim: &str) -> Option<String> {
        let live: Vec<String> = app_names_sorted(sys)
            .into_iter()
            .filter(|n| {
                sys.apps[n].state != AppState::Drained
                    && self.monitors.get(n).and_then(|m| m.health) != Some(AppHealth::Quarantined)
            })
            .collect();
        if live.len() < 2 {
            return None;
        }
        live.into_iter()
            .min_by_key(|n| (self.contract(n).priority, n.clone()))
    }

    /// Rung 3b: drain and unmap the evictee (unmap re-balances its
    /// budget onto the survivors). A drain that cannot quiesce demotes
    /// to quarantining the evictee.
    fn evict_app(
        &mut self,
        sys: &mut EclipseSystem,
        victim: &str,
        evictee: &str,
        trigger: RecoveryTrigger,
    ) {
        let start = sys.cal.now();
        let pi0 = sys.pi_busy_cycles;
        match sys.drain_app(evictee, self.cfg.evict_drain_wait) {
            Ok(report) => {
                sys.unmap_app(evictee).expect("drained app unmaps");
                self.monitors.remove(evictee);
                sys.last_progress = sys.cal.now();
                let mut apps = vec![victim.to_string()];
                if evictee != victim {
                    apps.push(evictee.to_string());
                }
                sys.recovery_log.push(RecoveryReport {
                    cycle: start,
                    action: RecoveryAction::Evict {
                        drain_wait: report.wait_cycles,
                    },
                    trigger,
                    pi_cycles: sys.pi_busy_cycles - pi0,
                    latency: sys.cal.now().saturating_sub(start),
                    apps,
                });
            }
            Err(_) => {
                // The evictee cannot quiesce; park it instead.
                self.quarantine_app(sys, evictee, trigger);
            }
        }
    }

    /// Rung 4: pause the app for good; everything else keeps serving.
    fn quarantine_app(&mut self, sys: &mut EclipseSystem, app: &str, trigger: RecoveryTrigger) {
        let start = sys.cal.now();
        let pi0 = sys.pi_busy_cycles;
        let _ = sys.pause_app(app);
        let mon = self.monitors.entry(app.to_string()).or_default();
        mon.health = Some(AppHealth::Quarantined);
        sys.last_progress = sys.cal.now();
        sys.recovery_log.push(RecoveryReport {
            cycle: start,
            action: RecoveryAction::Quarantine,
            trigger,
            pi_cycles: sys.pi_busy_cycles - pi0,
            latency: sys.cal.now().saturating_sub(start),
            apps: vec![app.to_string()],
        });
    }

    /// True when every app that still has unfinished tasks is
    /// quarantined — nothing the supervisor could still help.
    fn all_remaining_quarantined(&self, sys: &EclipseSystem) -> bool {
        for name in app_names_sorted(sys) {
            let rec = &sys.apps[&name];
            let unfinished = rec.tasks.iter().any(|&(s, t)| {
                let task = &sys.shells[s].tasks()[t.0 as usize];
                !task.retired && !task.finished
            });
            if unfinished
                && self.monitors.get(&name).and_then(|m| m.health) != Some(AppHealth::Quarantined)
            {
                return false;
            }
        }
        true
    }
}
