//! The coprocessor side of the task-level interface.
//!
//! Paper Section 4: coprocessors execute an infinite loop of *processing
//! steps*. At each step boundary the coprocessor calls `GetTask`; within
//! a step it inquires for windows with `GetSpace`, transfers data with
//! `Read`/`Write`, and commits with `PutSpace`. When a mid-step
//! conditional `GetSpace` is denied, the coprocessor may *abort* the step
//! — safe because nothing is committed before `PutSpace` — and redo it
//! from the beginning once space arrives (paper Section 4.2's two-exit
//! example).
//!
//! A simulated coprocessor implements [`Coprocessor`]. Its
//! [`Coprocessor::step`] runs one processing step against a [`StepCtx`],
//! which provides the primitives, accounts every cycle of cost (compute,
//! handshakes, cache stalls, off-chip accesses), and appends the
//! `putspace` messages to a buffer the event loop owns and drains.
//!
//! ## Abort discipline
//!
//! `step` receives `&mut self` and may freely mutate per-task state —
//! but if it returns [`StepResult::Blocked`], the step will be *retried
//! from the beginning* later, so implementations must not commit
//! persistent task state before their last conditional `GetSpace`
//! succeeded (stage locally, commit at the end — the same discipline the
//! paper imposes on hardware designers).

use eclipse_mem::{Bus, Dram};
use eclipse_shell::task_table::TaskRow;
use eclipse_shell::{MemSys, PortId, Shell, SyncMsg, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter};
use eclipse_sim::{Cycle, FaultInjector};

/// Outcome of one processing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The step completed; schedule the next step.
    Done,
    /// A conditional `GetSpace` was denied; the step's effects are
    /// discarded (nothing was committed) and the task is blocked in the
    /// shell until the space arrives.
    Blocked,
    /// The task reached its end of stream and will never run again.
    Finished,
}

/// The execution context of one processing step: the five primitives plus
/// compute-cost accounting and the coprocessor's private off-chip port.
pub struct StepCtx<'a> {
    shell: &'a mut Shell,
    mem: &'a mut MemSys,
    dram: &'a mut Dram,
    system_bus: &'a mut Bus,
    task: TaskIdx,
    step_start: Cycle,
    cost: u64,
    stall: u64,
    /// The event loop's message buffer; `put_space` appends to it.
    msgs: &'a mut Vec<SyncMsg>,
    put_called: bool,
    /// Deterministic fault injector (None in normal runs — the hooks
    /// then take the exact same code path and draw no RNG values).
    fault: Option<&'a mut FaultInjector>,
}

impl<'a> StepCtx<'a> {
    /// Build a context for one step (called by the system event loop),
    /// appending the step's `putspace` messages to `msgs`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shell: &'a mut Shell,
        mem: &'a mut MemSys,
        dram: &'a mut Dram,
        system_bus: &'a mut Bus,
        msgs: &'a mut Vec<SyncMsg>,
        task: TaskIdx,
        step_start: Cycle,
        initial_cost: u64,
        fault: Option<&'a mut FaultInjector>,
    ) -> Self {
        StepCtx {
            shell,
            mem,
            dram,
            system_bus,
            task,
            step_start,
            cost: initial_cost,
            stall: 0,
            msgs,
            put_called: false,
            fault,
        }
    }

    /// Current simulated time inside the step.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.step_start + self.cost
    }

    /// Cycles accumulated so far in this step.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Of which stall cycles (waiting on memory).
    #[inline]
    pub fn stall(&self) -> u64 {
        self.stall
    }

    /// The task being executed (as the paper's `task_id`).
    #[inline]
    pub fn task(&self) -> TaskIdx {
        self.task
    }

    /// Account `cycles` of computation.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.cost += cycles;
    }

    /// `GetSpace`: inquire for `n_bytes` of data (input port) or room
    /// (output port). A grant on an input port also prefetches the
    /// window. On denial the task is marked blocked in the shell; the step
    /// implementation should then return [`StepResult::Blocked`] (or try
    /// another conditional path).
    #[inline]
    pub fn get_space(&mut self, port: PortId, n_bytes: u32) -> bool {
        self.cost += self.shell.cfg.getspace_cost;
        let now = self.now();
        self.shell
            .get_space_prefetch(self.task, port, n_bytes, now, self.mem)
    }

    /// `Read` `buf.len()` bytes at `offset` inside the granted window of
    /// input `port`. Stalls (costs cycles) on cache misses.
    #[inline]
    pub fn read(&mut self, port: PortId, offset: u32, buf: &mut [u8]) {
        let now = self.now();
        let done = self.shell.read(self.task, port, offset, buf, now, self.mem);
        self.stall += done - now;
        self.cost += done - now;
    }

    /// `Write` `data` at `offset` inside the granted window of output
    /// `port`. Absorbed by the shell's write cache. An active fault
    /// injector may flip one bit of the transfer (SRAM corruption as
    /// seen by the consumer).
    #[inline]
    pub fn write(&mut self, port: PortId, offset: u32, data: &[u8]) {
        let shell_idx = self.shell.id.0 as usize;
        if let Some(inj) = self.fault.as_deref_mut() {
            if let Some((i, mask)) = inj.sram_flip(shell_idx, data.len()) {
                let mut corrupted = data.to_vec();
                corrupted[i] ^= mask;
                let now = self.now();
                let done = self
                    .shell
                    .write(self.task, port, offset, &corrupted, now, self.mem);
                self.stall += done - now;
                self.cost += done - now;
                return;
            }
        }
        let now = self.now();
        let done = self
            .shell
            .write(self.task, port, offset, data, now, self.mem);
        self.stall += done - now;
        self.cost += done - now;
    }

    /// `PutSpace`: commit `n_bytes` on `port`. Producer-side commits
    /// flush the shell cache before the `putspace` message is released
    /// (the message transit is handled by the event loop).
    #[inline]
    pub fn put_space(&mut self, port: PortId, n_bytes: u32) {
        self.cost += self.shell.cfg.putspace_cost;
        let now = self.now();
        self.shell
            .put_space_into(self.task, port, n_bytes, now, self.mem, self.msgs);
        self.put_called = true;
    }

    /// Read from off-chip memory through this coprocessor's system-bus
    /// port (VLD bitstream fetch, MC/ME reference access). Stalls for the
    /// full round trip.
    #[inline]
    pub fn dram_read(&mut self, addr: u32, buf: &mut [u8]) {
        let penalty = self.bus_fault_penalty();
        let now = self.now();
        let t = self.system_bus.request(now, buf.len() as u32);
        let access = self.dram.access(t.start, addr, buf.len() as u32);
        self.dram.read(addr, buf);
        let done = access.done.max(t.done) + penalty;
        self.stall += done - now;
        self.cost += done - now;
    }

    /// Retry penalty for an injected bus-transfer error (0 without an
    /// active injector).
    #[inline]
    fn bus_fault_penalty(&mut self) -> u64 {
        let shell_idx = self.shell.id.0 as usize;
        match self.fault.as_deref_mut() {
            Some(inj) => inj.bus_penalty(shell_idx),
            None => 0,
        }
    }

    /// Read from off-chip memory *pipelined behind a preceding demand
    /// fetch*: a burst continuation that charges only the data-transfer
    /// occupancy, not another full round-trip latency. Hardware stream
    /// units issue the whole gather as one burst train; the first tile
    /// pays the latency ([`StepCtx::dram_read`]), the rest ride behind it.
    #[inline]
    pub fn dram_read_overlapped(&mut self, addr: u32, buf: &mut [u8]) {
        let penalty = self.bus_fault_penalty();
        let now = self.now();
        let t = self.system_bus.request(now, buf.len() as u32);
        let _ = self.dram.access(t.start, addr, buf.len() as u32);
        self.dram.read(addr, buf);
        let occupancy = self.system_bus.beats(buf.len() as u32)
            * self.system_bus.config().cycles_per_beat
            + penalty;
        self.stall += occupancy;
        self.cost += occupancy;
    }

    /// Write to off-chip memory through the system-bus port. Posted
    /// (pipelined) — costs the bus occupancy, not the full round trip.
    #[inline]
    pub fn dram_write(&mut self, addr: u32, data: &[u8]) {
        let penalty = self.bus_fault_penalty();
        let now = self.now();
        let t = self.system_bus.request(now, data.len() as u32);
        let _ = self.dram.access(t.start, addr, data.len() as u32);
        self.dram.write(addr, data);
        // Posted write: the coprocessor continues after the bus accepted
        // the data (one beat handshake; a retry delays acceptance).
        let accept = t.start + 1 + penalty;
        self.stall += accept.saturating_sub(now);
        self.cost += accept.saturating_sub(now);
    }

    /// Dismantle into (cost, stall, put_called); the messages are
    /// already in the buffer passed to [`StepCtx::new`].
    pub(crate) fn finish(self) -> (u64, u64, bool) {
        (self.cost, self.stall, self.put_called)
    }
}

/// A simulated coprocessor (or the software media processor).
///
/// One `Coprocessor` is paired with one [`Shell`]; it may time-share any
/// number of tasks (paper Section 4.2).
pub trait Coprocessor {
    /// Display name ("vld", "dct", "mcme", "rlsq", "dsp-cpu", ...).
    fn name(&self) -> &str;

    /// Does this coprocessor implement `function` (an
    /// [`eclipse_kpn::graph::TaskDecl::function`] name)? Used by the
    /// mapper.
    fn supports(&self, function: &str) -> bool;

    /// Bind an application task to this coprocessor. `task` is the shell
    /// task id the coprocessor will see in `GetTask`; `decl` carries the
    /// function, instance name, and `task_info`. Returns per-port
    /// scheduler space hints `(inputs, outputs)` — empty vectors mean no
    /// hints.
    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>);

    /// Execute one processing step of `task`. See the module docs for the
    /// abort discipline.
    fn step(&mut self, task: TaskIdx, task_info: u32, ctx: &mut StepCtx<'_>) -> StepResult;

    /// Downcast support, so experiments can extract model-specific results
    /// (e.g. a display task's collected frames) after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support, so run-time reconfiguration can bind new
    /// work (e.g. an audio stream for a live-mapped app) to a coprocessor
    /// model inside a built system.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Graceful-degradation counters of one shell task slot: `(decode
    /// or parse errors recovered from, macroblocks concealed)`. The run
    /// summary sums them over every slot, and the supervisor over an
    /// application's tasks to attribute media damage to it. Zero for
    /// models that never degrade.
    fn task_error_counters(&self, _task: TaskIdx) -> (u64, u64) {
        (0, 0)
    }

    /// Delivered output units of a *sink* task (display frames filled,
    /// PCM samples emitted). `None` for tasks that are not delivery
    /// sinks. The supervisor folds this into per-app deadline tracking.
    fn progress_units(&self, _task: TaskIdx) -> Option<u64> {
        None
    }

    /// Switch a task into (or out of) concealment-only mode — the
    /// supervisor's "degrade" rung. A concealment-only decoder stops
    /// trusting the damaged input and emits concealed output units
    /// instead (VLD: intra concealment macroblocks without entropy
    /// decoding; display: backfill missing frame slots at end of
    /// stream). Returns `false` if this model has no degraded mode for
    /// the task (the supervisor then escalates past this rung).
    fn set_conceal_only(&mut self, _task: TaskIdx, _on: bool) -> bool {
        false
    }

    /// Does this coprocessor own a port on the off-chip system bus
    /// (DRAM traffic)? Nothing in the simulator reads this any more; it
    /// stays only so existing implementations that override it still
    /// compile, and will be removed once none do.
    #[deprecated(note = "not read by the simulator; drop the override")]
    fn uses_system_bus(&self) -> bool {
        true
    }

    /// The checkpoint hook: save all per-task dynamic state. The
    /// default is a no-op for stateless models; models holding task state
    /// (parsers, predictors, partial frames) forward it, and
    /// [`Coprocessor::load_state`], to their
    /// [`Snapshot`](eclipse_sim::Snapshot) impl so a restored run
    /// continues bit-exactly.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restore per-task state written by [`Coprocessor::save_state`] into
    /// a coprocessor built with the same configuration.
    fn load_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Ok(())
    }

    /// Does this model's restored state for `task` fit the system it was
    /// restored into? `row` is the task's entry in the shell's task table
    /// and `dram_bytes` the off-chip memory size. A restore asks this for
    /// every live task and rejects the checkpoint on a `false`, instead
    /// of failing mid-run: models with per-task state check that they
    /// hold the task, and that the ports and off-chip regions it uses
    /// exist. The default suits models without per-task state.
    fn task_state_fits(&self, _task: TaskIdx, _row: &TaskRow, _dram_bytes: u32) -> bool {
        true
    }
}
