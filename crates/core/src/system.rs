//! The simulation top level: system construction and the discrete-event
//! loop.
//!
//! The event loop drives three event kinds:
//!
//! * **Step** — a coprocessor executes `GetTask` and (if a task is
//!   runnable) one processing step; the step's accumulated cycle cost
//!   schedules the next step. A shell with nothing runnable goes idle and
//!   is woken by the next incoming `putspace` message (coprocessors are
//!   fully autonomous — no CPU involvement, paper Section 2.3).
//! * **Sync** — a `putspace` message arrives at its destination shell
//!   after the synchronization network has routed it (in the CPU-centric
//!   baseline of experiment E10, that network serializes every message
//!   through the CPU).
//! * **Sample** — the periodic measurement process reads the shell
//!   counters into the trace log (paper Section 5.4).
//!
//! The module is split by concern:
//!
//! * [`wiring`](self) — [`SystemBuilder`]: instantiation, build-time
//!   mapping, and interconnect-fabric selection;
//! * `run_loop` — the event loop proper (steps, sync routing, sampling,
//!   invariant checking);
//! * `lifecycle` — run-time reconfiguration (map/pause/resume/drain/
//!   unmap of live applications);
//! * `summary` — end-of-run accounting ([`RunSummary`]).
//!
//! This file keeps the [`EclipseSystem`] state struct and its simple
//! accessors; both data transport and `putspace` routing are pluggable
//! fabrics injected at build time ([`eclipse_mem::DataFabric`],
//! [`eclipse_shell::SyncFabric`]).

mod lifecycle;
mod run_loop;
mod snapshot;
mod summary;
pub mod supervisor;
#[cfg(test)]
mod tests;
mod wedge;
mod wiring;

pub use lifecycle::{AppState, DrainReport, ReconfigError};
pub use summary::{RunOutcome, RunSummary};
pub use supervisor::{
    AppHealth, QosContract, RecoveryAction, RecoveryReport, RecoveryTrigger, Supervisor,
    SupervisorConfig,
};
pub use wedge::{StreamSpaceView, WedgeDiagnosis, WedgeReason};
pub use wiring::SystemBuilder;

use std::collections::HashMap;

use eclipse_mem::alloc::AllocError;
use eclipse_mem::{BufferAllocator, Bus, DataFabric, Dram};
use eclipse_shell::stream_table::AccessPoint;
use eclipse_shell::{MemSys, Shell, SyncFabric, SyncMsg};
use eclipse_sim::stats::{Histogram, Utilization};
use eclipse_sim::trace::{SharedTraceSink, TraceHandle, TraceSink};
use eclipse_sim::{Calendar, Cycle, FaultInjector, FaultPlan, FaultStats};

use crate::config::EclipseConfig;
use crate::coproc::Coprocessor;
use crate::mapping::Placement;
use crate::trace::TraceLog;

use lifecycle::AppRecord;

#[derive(Clone, Copy, Default)]
pub(crate) enum Event {
    Step(usize),
    Sync(SyncMsg),
    #[default]
    Sample,
}

/// Content key of an event. The calendar pops in `(time, key, seq)`
/// order, and that order is committed: same-cycle events run in key
/// order, then in insertion order, so the timing fingerprint, the state
/// hash and the checkpoint bytes all depend on it.
///
/// Layout (top two bits = rank): sync deliveries first (keyed by the
/// full destination/source access-point pair), then coprocessor steps
/// (by shell), then the sampler.
pub(crate) fn event_key(ev: &Event) -> u64 {
    match ev {
        Event::Sync(m) => {
            debug_assert!(m.dst.shell.0 < (1 << 15) && m.src.shell.0 < (1 << 15));
            (u64::from(m.dst.shell.0) << 47)
                | (u64::from(m.dst.row.0) << 31)
                | (u64::from(m.src.shell.0) << 16)
                | u64::from(m.src.row.0)
        }
        Event::Step(s) => (1 << 62) | (*s as u64),
        Event::Sample => 2 << 62,
    }
}

/// In-flight `putspace` counters per (destination shell, row), stored as
/// per-shell vectors so the sync hot path never hashes. Rows mapped at
/// run time grow the vectors on first touch. `MAX` marks a never-touched
/// slot: the previous `HashMap` representation kept entries that had
/// decayed back to zero, and checkpoints serialized them, so the sentinel
/// preserves that distinction (and the exact checkpoint bytes).
#[derive(Default)]
pub(crate) struct PendingSyncs {
    per_shell: Vec<Vec<u32>>,
}

const PS_UNTOUCHED: u32 = u32::MAX;

impl PendingSyncs {
    pub(crate) fn new(shells: usize) -> Self {
        PendingSyncs {
            per_shell: vec![Vec::new(); shells],
        }
    }

    #[inline]
    pub(crate) fn add(&mut self, shell: usize, row: u16, n: u32) {
        if self.per_shell.len() <= shell {
            self.per_shell.resize(shell + 1, Vec::new());
        }
        let rows = &mut self.per_shell[shell];
        if rows.len() <= row as usize {
            rows.resize(row as usize + 1, PS_UNTOUCHED);
        }
        let p = &mut rows[row as usize];
        *p = if *p == PS_UNTOUCHED { n } else { *p + n };
    }

    #[inline]
    pub(crate) fn dec(&mut self, shell: usize, row: u16) {
        if let Some(p) = self
            .per_shell
            .get_mut(shell)
            .and_then(|rows| rows.get_mut(row as usize))
        {
            if *p != PS_UNTOUCHED {
                *p = p.saturating_sub(1);
            }
        }
    }

    #[inline]
    pub(crate) fn get(&self, shell: usize, row: u16) -> u32 {
        match self
            .per_shell
            .get(shell)
            .and_then(|rows| rows.get(row as usize))
        {
            Some(&n) if n != PS_UNTOUCHED => n,
            _ => 0,
        }
    }

    /// Shells tracked (the system's shell count).
    pub(crate) fn shells(&self) -> usize {
        self.per_shell.len()
    }

    pub(crate) fn clear(&mut self) {
        for rows in &mut self.per_shell {
            rows.clear();
        }
    }

    /// Touched entries in `(shell, row)` order — the checkpoint view
    /// (identical bytes to the former sorted-`HashMap` serialization,
    /// zero-valued entries included).
    pub(crate) fn entries_sorted(&self) -> Vec<((usize, u16), u32)> {
        let mut out = Vec::new();
        for (s, rows) in self.per_shell.iter().enumerate() {
            for (r, &n) in rows.iter().enumerate() {
                if n != PS_UNTOUCHED {
                    out.push(((s, r as u16), n));
                }
            }
        }
        out
    }
}

/// A fully constructed Eclipse instance, ready to run.
pub struct EclipseSystem {
    cfg: EclipseConfig,
    coprocs: Vec<Box<dyn Coprocessor>>,
    shells: Vec<Shell>,
    shell_names: Vec<String>,
    row_labels: Vec<Vec<String>>,
    mem: MemSys,
    dram: Dram,
    system_bus: Bus,
    /// The `putspace` message network (paper Section 5.1); pluggable at
    /// build time via [`SystemBuilder::with_sync_fabric`].
    sync: Box<dyn SyncFabric>,
    /// The SRAM buffer allocator, carried over from the builder so live
    /// reconfiguration can claim and reclaim stream buffers.
    alloc: BufferAllocator,
    /// Off-chip bump watermark, carried over for live DRAM reservations.
    dram_next: u32,
    /// Mapped applications by graph name.
    apps: HashMap<String, AppRecord>,
    /// In-flight `putspace` messages per (destination shell, row) —
    /// host-side accounting only; the drain protocol waits on it.
    pending_syncs: PendingSyncs,
    /// The kickoff events (initial steps + sampler + RunStart) have been
    /// scheduled; guards resumed runs against double kickoff.
    started: bool,
    cal: Calendar<Event>,
    /// The `putspace` messages of the step in progress: lent to each
    /// [`StepCtx`](crate::coproc::StepCtx) and drained by the run loop,
    /// so steps reuse one buffer. Always empty between events; not
    /// simulation state.
    step_msgs: Vec<SyncMsg>,
    idle_since: Vec<Option<Cycle>>,
    utilization: Vec<Utilization>,
    trace: TraceLog,
    /// The `trace` series each sample tick appends to, resolved from the
    /// row labels and task names once; `None` after anything that maps,
    /// retires or restores rows or tasks or attaches a trace sink, and
    /// rebuilt by the next tick. Derived state, never serialized.
    sample_plan: Option<run_loop::SamplePlan>,
    trace_sink: Option<SharedTraceSink>,
    sys_trace: Option<TraceHandle>,
    /// Label ids `sys_trace` emits under; derived, never serialized.
    sys_labels: run_loop::SysLabels,
    sync_latency: Histogram,
    sync_messages: u64,
    /// The PI control bus: one register access is one beat of
    /// `pi_access_cycles`, and configuration traffic serializes here.
    pi_bus: Bus,
    /// Deterministic fault injector (None = no injection; the run loop
    /// then draws no RNG values and timing is bit-identical).
    fault: Option<FaultInjector>,
    /// Deadlock/livelock watchdog: a run with no task progress (PutSpace
    /// commit or task completion) for this many cycles is diagnosed as
    /// deadlocked. None disables the watchdog.
    watchdog_cycles: Option<u64>,
    /// Cycle of the most recent task progress (watchdog state).
    last_progress: Cycle,
    /// Run the credit-conservation invariant checker after every event.
    credit_check: bool,
    /// Credit bytes in transit on the sync network, keyed by
    /// (destination, source) access points.
    in_flight: HashMap<(AccessPoint, AccessPoint), u64>,
    /// Credit bytes lost to injected message drops, same keying (the
    /// conservation invariant accounts them explicitly).
    credits_lost: HashMap<(AccessPoint, AccessPoint), u64>,
    /// Supervisor interventions accumulated since the last
    /// `finish_run`, drained into [`RunSummary::recovery`].
    /// Observational (like the trace sink): excluded from checkpoints
    /// and the state hash so reports survive rollbacks.
    recovery_log: Vec<supervisor::RecoveryReport>,
    /// The placement pass live admission routes task assignment
    /// through (build-time mapping uses the builder's copy).
    /// Configuration, not simulation state — excluded from checkpoints.
    placement: Box<dyn Placement>,
}

impl EclipseSystem {
    /// The template parameters.
    pub fn config(&self) -> &EclipseConfig {
        &self.cfg
    }

    /// Off-chip memory, for loading bitstreams before a run and checking
    /// frame stores afterwards.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Off-chip memory (read access).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The shells (for stats inspection).
    pub fn shells(&self) -> &[Shell] {
        &self.shells
    }

    /// Mutable shell access (fault injection in the coherency
    /// experiments; reprogramming budgets between runs).
    pub fn shell_mut(&mut self, idx: usize) -> &mut Shell {
        // The caller may add or retire rows and tasks.
        self.sample_plan = None;
        &mut self.shells[idx]
    }

    /// Serialize `accesses` register accesses onto the PI control bus,
    /// starting no earlier than the current cycle. Returns the cycle the
    /// last access completes (configuration takes effect then).
    pub(crate) fn charge_pi(&mut self, accesses: u32) -> Cycle {
        let now = self.cal.now();
        if accesses == 0 {
            return now.max(self.pi_bus.busy_until());
        }
        self.pi_bus.request(now, accesses).done
    }

    /// CPU read of a memory-mapped shell register over the PI control bus
    /// (paper Section 5.4). Returns the value; each access is counted and
    /// charged to the PI-bus busy ledger so experiments can account the
    /// CPU's measurement-collection traffic.
    pub fn pi_read(&mut self, shell: usize, addr: u16) -> u32 {
        self.charge_pi(1);
        self.shells[shell].read_reg(addr)
    }

    /// CPU write of a memory-mapped shell register over the PI bus
    /// (run-time application control: budgets, enables, task_info).
    pub fn pi_write(&mut self, shell: usize, addr: u16, value: u32) {
        self.charge_pi(1);
        self.shells[shell].write_reg(addr, value);
    }

    /// Total PI-bus accesses performed so far.
    pub fn pi_accesses(&self) -> u64 {
        self.pi_bus.stats().bytes
    }

    /// Total cycles the PI bus spent carrying register accesses
    /// (measurement reads plus reconfiguration writes).
    pub fn pi_busy_cycles(&self) -> u64 {
        self.pi_bus.stats().busy_cycles
    }

    /// Shell display names, aligned with [`EclipseSystem::shells`].
    pub fn shell_names(&self) -> &[String] {
        &self.shell_names
    }

    /// Labels of each shell's stream rows (aligned with `shell.rows()`).
    pub fn row_labels(&self) -> &[Vec<String>] {
        &self.row_labels
    }

    /// The memory system (for fabric/SRAM stats).
    pub fn mem(&self) -> &MemSys {
        &self.mem
    }

    /// The shell↔SRAM transport fabric (for per-port stats).
    pub fn data_fabric(&self) -> &dyn DataFabric {
        self.mem.fabric.as_ref()
    }

    /// The `putspace` synchronization network (for routing stats).
    pub fn sync_fabric(&self) -> &dyn SyncFabric {
        self.sync.as_ref()
    }

    /// The off-chip system bus (for stats).
    pub fn system_bus(&self) -> &Bus {
        &self.system_bus
    }

    /// Collected measurement traces.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Install a structured event-trace sink of the given ring capacity
    /// and attach every shell, the data fabric, the sync fabric, and the
    /// off-chip system bus to it. Returns the shared sink so the caller
    /// can export the events (or toggle collection) after the run.
    /// Tracing is purely observational: enabling it never changes
    /// simulated timing.
    pub fn enable_tracing(&mut self, capacity: usize) -> SharedTraceSink {
        let sink = TraceSink::shared(capacity);
        for (s, shell) in self.shells.iter_mut().enumerate() {
            let name = self.shell_names[s].clone();
            shell.attach_trace(&sink, &name);
        }
        self.mem.fabric.attach_trace(&sink);
        self.system_bus.attach_trace(&sink);
        self.sync.attach_trace(&sink);
        self.sys_trace = Some(TraceHandle::new(&sink, "system"));
        // Label ids cached for the previous sink mean nothing in this one.
        self.sys_labels = Default::default();
        self.sample_plan = None;
        self.trace_sink = Some(sink.clone());
        sink
    }

    /// The installed event-trace sink, if [`EclipseSystem::enable_tracing`]
    /// was called.
    pub fn trace_sink(&self) -> Option<&SharedTraceSink> {
        self.trace_sink.as_ref()
    }

    /// Direct access to a coprocessor model (e.g. to extract a display
    /// task's collected frames after a run).
    pub fn coproc(&self, idx: usize) -> &dyn Coprocessor {
        self.coprocs[idx].as_ref()
    }

    /// Mutable access to a coprocessor model (workload injection).
    pub fn coproc_mut(&mut self, idx: usize) -> &mut (dyn Coprocessor + '_) {
        self.coprocs[idx].as_mut()
    }

    /// Arm deterministic fault injection for the next run. Injection is
    /// reproducible from `plan.seed`; a plan with all rates at zero is
    /// equivalent to never calling this.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = if plan.is_active() {
            Some(FaultInjector::new(plan))
        } else {
            None
        };
    }

    /// Counters of faults injected so far (all zero without an injector).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| *f.stats()).unwrap_or_default()
    }

    /// Arm the deadlock/livelock watchdog: if no task commits any space
    /// (PutSpace) or finishes for `cycles` simulated cycles while events
    /// are still firing, the run ends with a [`RunOutcome::Deadlock`]
    /// diagnosis instead of spinning to `max_cycles`. Complements the
    /// empty-calendar deadlock detection, which cannot fire while
    /// injected faults or retry loops keep generating events.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog_cycles = if cycles == 0 { None } else { Some(cycles) };
    }

    /// Enable the credit-conservation invariant checker: after every
    /// event, for every producer→consumer link, assert
    /// `producer space + consumer data + in-flight credits + dropped
    /// credits == buffer capacity`. Panics with a diagnosis on
    /// violation. Costs host time; intended for tests and chaos runs.
    pub fn enable_credit_check(&mut self) {
        self.credit_check = true;
    }

    /// Current simulated time (the calendar clock).
    pub fn now(&self) -> Cycle {
        self.cal.now()
    }

    /// The SRAM buffer allocator (for inspecting `in_use` and the high
    /// watermark across reconfiguration cycles).
    pub fn sram_allocator(&self) -> &BufferAllocator {
        &self.alloc
    }

    /// Lifecycle state of a mapped application, if one with this name
    /// exists.
    pub fn app_state(&self, name: &str) -> Option<AppState> {
        self.apps.get(name).map(|r| r.state)
    }

    /// Fallible off-chip reservation at run time, continuing the bump
    /// watermark the builder used (e.g. a PCM buffer for a live-mapped
    /// audio app).
    pub fn try_dram_alloc(&mut self, size: u32, align: u32) -> Result<u32, AllocError> {
        let (base, next) = wiring::checked_bump(self.dram_next, size, align, self.cfg.dram.size)?;
        self.dram_next = next;
        Ok(base)
    }
}
