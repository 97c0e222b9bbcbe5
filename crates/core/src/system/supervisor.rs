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
//!    (every task that accepts
//!    [`Coprocessor::set_conceal_only`](crate::Coprocessor::set_conceal_only)),
//!    or — when the
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
//! the ring is invisible to simulated timing.
//!
//! The ring stores each checkpoint as content-defined chunks (a gear
//! rolling hash cuts them at about 1 KiB, FastCDC style: Xia et al.,
//! USENIX ATC 2016), and a chunk equal to one of the newest entry's is
//! shared instead of copied. Consecutive checkpoints are mostly the same
//! bytes at shifted offsets (append-only decoded frames, sampled series,
//! DRAM), so host memory is bounded by the ring's unique chunks: about
//! one checkpoint plus what changed between entries, not
//! `checkpoint_ring × checkpoint size`. A rollback concatenates its
//! entry's chunks and restores them; the bytes are exactly those `save`
//! returned.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

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
    ring: CheckpointRing,
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
            ring: CheckpointRing::default(),
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
        self.ring.entries.iter().map(|e| (e.cycle, e.len)).collect()
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

/// Smallest content-defined chunk: the cut-point search starts this
/// many bytes in.
const CHUNK_MIN: usize = 256;
/// Largest chunk: the cut is forced here when the hash found none.
const CHUNK_MAX: usize = 8 * 1024;
/// A chunk ends after the first byte (past `CHUNK_MIN`) where the gear
/// hash falls below this, once in 768 bytes on average: chunks average
/// about 1 KiB.
const CUT_BELOW: u64 = u64::MAX / 768;

/// The gear hash's table: 256 SplitMix64 outputs.
const GEAR: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut state = 0u64;
    let mut i = 0;
    while i < 256 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
};

/// Length of the first content-defined chunk of `data`. The gear hash
/// shifts one bit per byte, so its top bits, which decide the cut,
/// depend only on the last 64 bytes: an insertion or deletion moves
/// the cuts after it along with the bytes.
fn chunk_len(data: &[u8]) -> usize {
    let end = data.len().min(CHUNK_MAX);
    if end <= CHUNK_MIN {
        return end;
    }
    let mut h = 0u64;
    for (i, &b) in data[CHUNK_MIN..end].iter().enumerate() {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
        if h < CUT_BELOW {
            return CHUNK_MIN + i + 1;
        }
    }
    end
}

/// A chunk's lookup key: its length and its last (up to) 8 bytes.
fn chunk_key(chunk: &[u8]) -> (usize, u64) {
    let tail = &chunk[chunk.len().saturating_sub(8)..];
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    (chunk.len(), u64::from_le_bytes(word))
}

/// One checkpoint: its cycle, the length of its `save` bytes, and those
/// bytes as chunks.
struct RingEntry {
    cycle: Cycle,
    len: usize,
    chunks: Vec<Rc<[u8]>>,
}

/// The checkpoint ring, oldest entry first. Every entry's chunks are
/// the successive [`chunk_len`] cuts of its bytes, and a new entry
/// shares every chunk that equals one of the newest entry's.
#[derive(Default)]
struct CheckpointRing {
    entries: VecDeque<RingEntry>,
}

impl CheckpointRing {
    fn push(&mut self, cycle: Cycle, bytes: &[u8]) {
        let prev: &[Rc<[u8]>] = self.entries.back().map_or(&[], |e| &e.chunks);
        let mut index: HashMap<(usize, u64), usize> = HashMap::new();
        for (k, chunk) in prev.iter().enumerate() {
            index.entry(chunk_key(chunk)).or_insert(k);
        }
        // Any chunk of the previous entry but its last (which the end of
        // the bytes may have cut) ends where `chunk_len` cuts its own
        // bytes. So when the bytes ahead start with the chunk that
        // followed the last match, that chunk is the next cut, found by
        // one compare instead of hashing.
        let cut = &prev[..prev.len().saturating_sub(1)];
        let mut next = 0;
        let mut chunks = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let chunk = match cut.get(next).filter(|c| rest.starts_with(c)) {
                Some(same) => {
                    next += 1;
                    Rc::clone(same)
                }
                None => {
                    let piece = &rest[..chunk_len(rest)];
                    match index.get(&chunk_key(piece)) {
                        Some(&k) if *prev[k] == *piece => {
                            next = k + 1;
                            Rc::clone(&prev[k])
                        }
                        _ => {
                            next += 1;
                            Rc::from(piece)
                        }
                    }
                }
            };
            rest = &rest[chunk.len()..];
            chunks.push(chunk);
        }
        self.entries.push_back(RingEntry {
            cycle,
            len: bytes.len(),
            chunks,
        });
    }

    /// Evict the oldest entries until at most `depth` remain.
    fn keep_newest(&mut self, depth: usize) {
        while self.entries.len() > depth {
            self.entries.pop_front();
        }
    }

    /// Remove the newest entry and return its cycle and bytes.
    fn pop_newest(&mut self) -> Option<(Cycle, Vec<u8>)> {
        let entry = self.entries.pop_back()?;
        let mut bytes = Vec::with_capacity(entry.len);
        for chunk in &entry.chunks {
            bytes.extend_from_slice(chunk);
        }
        Some((entry.cycle, bytes))
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
            if self.ring.entries.back().map(|e| e.cycle) != Some(now) {
                self.ring.push(now, &sys.save());
                self.ring.keep_newest(self.cfg.checkpoint_ring);
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
        } else if mon.rollbacks < self.cfg.rollback_limit && !self.ring.entries.is_empty() {
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
        let pi0 = sys.pi_busy_cycles();
        let mon = self.monitors.entry(victim.to_string()).or_default();
        let attempt = mon.retries;
        mon.retries += 1;
        let backoff = self.cfg.retry_backoff << attempt;

        sys.charge_pi(wedged.len() as u32);
        for &(s, t, _) in wedged {
            sys.shells[s].set_task_enabled(t, false);
        }
        // The stuck tasks are parked; give everyone else the backoff
        // window (and the watchdog a fresh clock).
        sys.last_progress = start;
        let _ = sys.run_until(start + backoff);
        let config_done = sys.charge_pi(wedged.len() as u32);
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
            pi_cycles: sys.pi_busy_cycles() - pi0,
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
        let (to_cycle, bytes) = self.ring.pop_newest().expect("caller checked");
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
        let pi0 = sys.pi_busy_cycles();
        let writes: u32 = sys
            .apps
            .values()
            .map(|rec| rec.tasks.len() as u32 * 4 + rec.rows.len() as u32 * 4)
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
            pi_cycles: sys.pi_busy_cycles() - pi0,
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
        let pi0 = sys.pi_busy_cycles();
        let mut accepted = 0u32;
        for (s, t) in tasks {
            if sys.coprocs[s].set_conceal_only(t, true) {
                accepted += 1;
            }
        }
        if accepted == 0 {
            return false;
        }
        sys.charge_pi(accepted);
        let mon = self.monitors.entry(app.to_string()).or_default();
        mon.degraded = true;
        mon.health = Some(AppHealth::Degraded);
        sys.last_progress = start;
        sys.recovery_log.push(RecoveryReport {
            cycle: start,
            action: RecoveryAction::Degrade { tasks: accepted },
            trigger,
            pi_cycles: sys.pi_busy_cycles() - pi0,
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
        let pi0 = sys.pi_busy_cycles();
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
                    pi_cycles: sys.pi_busy_cycles() - pi0,
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
        let pi0 = sys.pi_busy_cycles();
        let _ = sys.pause_app(app);
        let mon = self.monitors.entry(app.to_string()).or_default();
        mon.health = Some(AppHealth::Quarantined);
        sys.last_progress = sys.cal.now();
        sys.recovery_log.push(RecoveryReport {
            cycle: start,
            action: RecoveryAction::Quarantine,
            trigger,
            pi_cycles: sys.pi_busy_cycles() - pi0,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bytes the ring holds: each distinct chunk once.
    fn resident_bytes(ring: &CheckpointRing) -> usize {
        let mut seen = std::collections::HashSet::new();
        ring.entries
            .iter()
            .flat_map(|e| &e.chunks)
            .filter(|c| seen.insert(Rc::as_ptr(c) as *const u8))
            .map(|c| c.len())
            .sum()
    }

    /// The lengths of the successive `chunk_len` cuts of `bytes`.
    fn cuts(mut bytes: &[u8]) -> Vec<usize> {
        let mut lens = Vec::new();
        while !bytes.is_empty() {
            lens.push(chunk_len(bytes));
            bytes = &bytes[lens[lens.len() - 1]..];
        }
        lens
    }

    /// `len` deterministic pseudo-random bytes.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// Overwrite, delete, insert or append about `n` bytes at `at`
    /// (taken modulo the buffer), by `kind` 0, 1, 2 or 3.
    fn edit(buf: &mut Vec<u8>, kind: u8, at: usize, n: usize, seed: u64) {
        let at = at % (buf.len() + 1);
        let end = (at + n).min(buf.len());
        match kind {
            0 => buf[at..end].copy_from_slice(&noise(seed, end - at)),
            1 => drop(buf.drain(at..end)),
            2 => drop(buf.splice(at..at, noise(seed, n + 1))),
            _ => buf.extend(noise(seed, n + 1)),
        }
    }

    proptest! {
        /// Successive versions of a buffer (overwrites, deletions,
        /// insertions and appends, over noise and a long zero run) go
        /// through push, eviction and rollback-pop in random order. Every
        /// pop returns the bytes pushed, the sizes track a deque of whole
        /// copies, and every entry is cut exactly where `chunk_len` cuts
        /// its bytes.
        #[test]
        fn ring_returns_what_was_pushed(
            lead in 0usize..6000,
            zeros in 0usize..12000,
            ops in proptest::collection::vec((0u8..7, any::<u64>()), 1..40),
        ) {
            let mut buf = noise(lead as u64, lead);
            buf.resize(lead + zeros, 0);
            buf.extend(noise(!0, 3000));
            let mut ring = CheckpointRing::default();
            let mut oracle: VecDeque<(Cycle, Vec<u8>)> = VecDeque::new();
            for (cycle, (op, r)) in ops.into_iter().enumerate() {
                let cycle = cycle as Cycle;
                match op {
                    0..=3 => edit(&mut buf, op, r as usize, (r >> 32) as usize % 700, r),
                    4 => {
                        ring.push(cycle, &buf);
                        oracle.push_back((cycle, buf.clone()));
                        let newest = ring.entries.back().unwrap();
                        let lens: Vec<usize> = newest.chunks.iter().map(|c| c.len()).collect();
                        prop_assert_eq!(lens, cuts(&buf));
                    }
                    5 => {
                        let depth = r as usize % 4;
                        ring.keep_newest(depth);
                        while oracle.len() > depth {
                            oracle.pop_front();
                        }
                    }
                    _ => prop_assert_eq!(ring.pop_newest(), oracle.pop_back()),
                }
                let sizes: Vec<(Cycle, usize)> =
                    ring.entries.iter().map(|e| (e.cycle, e.len)).collect();
                let expected: Vec<(Cycle, usize)> =
                    oracle.iter().map(|(c, b)| (*c, b.len())).collect();
                prop_assert_eq!(sizes, expected);
            }
            while let Some(entry) = oracle.pop_back() {
                prop_assert_eq!(ring.pop_newest(), Some(entry));
            }
            prop_assert_eq!(ring.pop_newest(), None);
        }
    }

    #[test]
    fn chunks_average_about_a_kibibyte() {
        let bytes = noise(11, 1 << 20);
        let lens = cuts(&bytes);
        let mean = bytes.len() / lens.len();
        assert!((900..1200).contains(&mean), "mean chunk {mean} B");
        let (body, last) = lens.split_at(lens.len() - 1);
        assert!(body.iter().all(|l| (CHUNK_MIN + 1..=CHUNK_MAX).contains(l)));
        assert!(last[0] <= CHUNK_MAX);
        // A run of one byte value has a fixed hash: it is cut at the
        // maximum or at the minimum every time.
        let flat = cuts(&[0u8; 5 * CHUNK_MAX]);
        assert!(
            flat[..flat.len() - 1].iter().all(|&l| l == flat[0]),
            "{flat:?}"
        );
    }

    #[test]
    fn near_identical_entries_share_their_chunks() {
        let mut buf = noise(7, 256 * 1024);
        let mut ring = CheckpointRing::default();
        let n = 8;
        for v in 0..n as u64 {
            ring.push(v, &buf);
            for (kind, at) in [(0, 1_000), (1, 70_000), (2, 180_000)] {
                edit(&mut buf, kind, at * (v as usize + 1), 16, v);
            }
        }
        let logical: usize = ring.entries.iter().map(|e| e.len).sum();
        let resident = resident_bytes(&ring);
        assert!(logical > (n - 1) * buf.len(), "{logical}");
        assert!(
            resident * 2 < 3 * buf.len(),
            "{n} near-identical entries hold {resident} B, one is {} B",
            buf.len()
        );
    }

    #[test]
    fn equal_length_and_tail_is_not_enough_to_share() {
        // Shorter than `CHUNK_MIN`, so each buffer is one chunk.
        let a = noise(3, 200);
        let mut b = a.clone();
        b[0] ^= 1;
        assert_eq!(chunk_key(&a), chunk_key(&b));
        let mut ring = CheckpointRing::default();
        ring.push(1, &a);
        ring.push(2, &b);
        ring.push(3, &b);
        let chunk = |i: usize| &ring.entries[i].chunks[0];
        assert!(!Rc::ptr_eq(chunk(0), chunk(1)));
        assert!(Rc::ptr_eq(chunk(1), chunk(2)));
        assert_eq!(ring.pop_newest(), Some((3, b.clone())));
        assert_eq!(ring.pop_newest(), Some((2, b)));
        assert_eq!(ring.pop_newest(), Some((1, a)));
    }
}
