//! The shell proper: one instance per coprocessor, combining the stream
//! table, per-row caches, the task table and scheduler, and the
//! distributed synchronization endpoints.
//!
//! The shell implements the five task-level primitives (paper Section
//! 3.2). Data I/O and synchronization are deliberately separated: `Read`/
//! `Write` move bytes through the caches, `GetSpace`/`PutSpace` move the
//! access windows and drive both the remote `putspace` messages and the
//! cache coherency actions, and `GetTask` runs the local scheduler.

use eclipse_mem::CyclicBuffer;
use eclipse_sim::snapshot::SnapError;
use eclipse_sim::trace::{SharedTraceSink, TraceEventKind, TraceHandle};
use eclipse_sim::Cycle;

use crate::cache::{CacheConfig, MemSys, StreamCache};
use crate::stream_table::{AccessPoint, PortDir, RowIdx, StreamRow, StreamRowConfig};
use crate::task_table::{select, Choice, SchedState, TaskConfig, TaskIdx, TaskRow};
use crate::{PortId, ShellId};

/// Task-selection policy (experiment E9 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// The paper's weighted round-robin with the "best guess" eligibility
    /// test (blocked tasks and unmet space hints are skipped).
    BestGuess,
    /// Naive round-robin: every enabled task is tried in turn; blocked
    /// tasks burn an aborted processing step before the next candidate
    /// runs (the paper's "recover with a limited penalty" without the
    /// guess that avoids it).
    NaiveRoundRobin,
}

/// Shell template parameters (identical across shells of an instance in
/// the default configuration; individually overridable per shell).
#[derive(Debug, Clone, Copy)]
pub struct ShellConfig {
    /// Cycles a `GetSpace` handshake takes.
    pub getspace_cost: u64,
    /// Cycles a `PutSpace` handshake takes.
    pub putspace_cost: u64,
    /// Cycles a `GetTask` handshake takes.
    pub gettask_cost: u64,
    /// Extra cycles when `GetTask` switches tasks (coprocessor
    /// state save/restore).
    pub task_switch_penalty: u64,
    /// Latency of a `putspace` message to a remote shell.
    pub sync_latency: u64,
    /// Cache configuration applied to stream rows (unless overridden).
    pub cache: CacheConfig,
    /// Task-selection policy.
    pub policy: SchedPolicy,
}

impl Default for ShellConfig {
    fn default() -> Self {
        ShellConfig {
            getspace_cost: 2,
            putspace_cost: 2,
            gettask_cost: 2,
            task_switch_penalty: 16,
            sync_latency: 4,
            cache: CacheConfig::default(),
            policy: SchedPolicy::BestGuess,
        }
    }
}

/// A `putspace` message in flight between two shells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncMsg {
    /// Sending access point.
    pub src: AccessPoint,
    /// Receiving access point.
    pub dst: AccessPoint,
    /// Committed bytes.
    pub bytes: u32,
    /// Earliest cycle the message may leave the sending shell (after the
    /// flush completed — paper Section 5.2 rule 3).
    pub send_at: Cycle,
    /// Generation of the destination row the message was addressed to.
    /// Stamped by the sync network at send time; a delivery whose
    /// generation no longer matches the destination row (the row was
    /// retired and possibly recycled for another application since) is
    /// rejected as stale. The sending shell fills in a placeholder of 0 —
    /// rows that were never recycled are at generation 0.
    pub dst_gen: u32,
}

eclipse_sim::snap_fields!(SyncMsg {
    src,
    dst,
    bytes,
    send_at,
    dst_gen
});

/// Result of a `PutSpace` call.
#[derive(Debug, Clone)]
pub struct PutSpaceOutcome {
    /// Messages to deliver to remote shells (the caller adds
    /// `sync_latency`).
    pub msgs: Vec<SyncMsg>,
    /// Cycle at which the local operation (including flush) completed.
    pub done: Cycle,
}

/// Result of a `GetTask` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetTaskResult {
    /// Run this task.
    Run {
        /// Task to execute.
        task: TaskIdx,
        /// Its `task_info` parameter word.
        info: u32,
        /// Whether this selection switched tasks (penalty applies).
        switched: bool,
    },
    /// Nothing runnable: idle until a `putspace` message arrives.
    Idle,
}

/// Aggregate shell counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShellStats {
    /// `putspace` messages sent to remote shells.
    pub messages_sent: u64,
    /// `putspace` messages received.
    pub messages_received: u64,
    /// Read bytes moved for the coprocessor.
    pub bytes_read: u64,
    /// Written bytes moved for the coprocessor.
    pub bytes_written: u64,
    /// `GetTask` invocations (scheduler slots offered).
    pub gettask_calls: u64,
    /// `GetTask` invocations that selected a task (occupied slots).
    pub gettask_runs: u64,
    /// Incoming `putspace` messages rejected because their destination
    /// row had been retired or recycled (generation mismatch).
    pub stale_syncs_rejected: u64,
}

impl ShellStats {
    /// Fraction of scheduler slots that found a runnable task (0 when the
    /// scheduler never ran).
    pub fn slot_occupancy(&self) -> f64 {
        if self.gettask_calls == 0 {
            0.0
        } else {
            self.gettask_runs as f64 / self.gettask_calls as f64
        }
    }
}

/// Default hardware size of a shell's task table (run-time admission
/// control rejects live mappings that would exceed it; overridable per
/// shell via [`Shell::task_capacity`]).
pub const DEFAULT_TASK_CAPACITY: usize = 32;

/// One coprocessor shell.
#[derive(Debug)]
pub struct Shell {
    /// This shell's identity.
    pub id: ShellId,
    /// Template parameters.
    pub cfg: ShellConfig,
    rows: Vec<StreamRow>,
    caches: Vec<StreamCache>,
    tasks: Vec<TaskRow>,
    sched: SchedState,
    /// Per-row generation counters, bumped every time a row is retired.
    /// In-flight `putspace` messages carry the generation they were
    /// stamped with; a mismatch on delivery marks the message stale.
    generations: Vec<u32>,
    /// Retired stream-row slots available for recycling (ascending).
    free_rows: Vec<RowIdx>,
    /// Retired task-row slots available for recycling (ascending).
    free_tasks: Vec<TaskIdx>,
    /// Hardware size of the task table: live admission control rejects
    /// mappings that would exceed it. Build-time mapping is not checked
    /// (a builder error is a configuration bug, not a run-time denial).
    pub task_capacity: usize,
    /// Aggregate counters.
    pub stats: ShellStats,
    /// Fault-injection switches for the coherency experiments (E11):
    /// disabling these must corrupt decoded data.
    pub disable_invalidate: bool,
    /// See [`Shell::disable_invalidate`].
    pub disable_flush: bool,
    trace: Option<TraceHandle>,
}

impl Shell {
    /// A shell with no rows or tasks yet.
    pub fn new(id: ShellId, cfg: ShellConfig) -> Self {
        Shell {
            id,
            cfg,
            rows: Vec::new(),
            caches: Vec::new(),
            tasks: Vec::new(),
            sched: SchedState::default(),
            generations: Vec::new(),
            free_rows: Vec::new(),
            free_tasks: Vec::new(),
            task_capacity: DEFAULT_TASK_CAPACITY,
            stats: ShellStats::default(),
            disable_invalidate: false,
            disable_flush: false,
            trace: None,
        }
    }

    /// Connect this shell to a shared event-trace sink; the five
    /// primitives and the coherency actions then emit structured events
    /// under the unit name `shell/<unit_name>`.
    pub fn attach_trace(&mut self, sink: &SharedTraceSink, unit_name: &str) {
        self.trace = Some(TraceHandle::new(sink, &format!("shell/{unit_name}")));
    }

    /// The shell's trace connection, if attached (the run loop uses it to
    /// stamp processing-step duration events onto this shell's timeline).
    pub fn trace_handle(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    // ---- configuration (the CPU over the PI bus) ------------------------

    /// Program a stream-table row; returns its index.
    pub fn add_stream_row(&mut self, cfg: StreamRowConfig) -> RowIdx {
        self.add_stream_row_with_cache(cfg, self.cfg.cache)
    }

    /// Program a stream-table row with a row-specific cache configuration.
    pub fn add_stream_row_with_cache(
        &mut self,
        cfg: StreamRowConfig,
        cache: CacheConfig,
    ) -> RowIdx {
        // Recycle the lowest retired slot if one exists (run-time
        // reconfiguration); otherwise append. The generation counter of a
        // recycled slot keeps its bumped value so in-flight syncs stamped
        // against the old occupant stay stale.
        let mut fresh = StreamCache::new(cache);
        fresh.owner = self.id.0 as usize;
        if self.free_rows.is_empty() {
            let idx = RowIdx(self.rows.len() as u16);
            self.rows.push(StreamRow::new(cfg));
            self.caches.push(fresh);
            self.generations.push(0);
            idx
        } else {
            let idx = self.free_rows.remove(0);
            self.rows[idx.0 as usize] = StreamRow::new(cfg);
            self.caches[idx.0 as usize] = fresh;
            idx
        }
    }

    /// Program a task-table row; returns its index (the `task_id`).
    pub fn add_task(&mut self, cfg: TaskConfig) -> TaskIdx {
        for &port in &cfg.ports {
            assert!(
                (port.0 as usize) < self.rows.len() && !self.rows[port.0 as usize].retired,
                "task references unknown stream row {port:?}"
            );
        }
        if self.free_tasks.is_empty() {
            let idx = TaskIdx(self.tasks.len() as u8);
            self.tasks.push(TaskRow::new(cfg));
            idx
        } else {
            let idx = self.free_tasks.remove(0);
            self.tasks[idx.0 as usize] = TaskRow::new(cfg);
            idx
        }
    }

    /// All stream rows (for measurement collection).
    pub fn rows(&self) -> &[StreamRow] {
        &self.rows
    }

    /// All task rows (for measurement collection).
    pub fn tasks(&self) -> &[TaskRow] {
        &self.tasks
    }

    /// All caches (for measurement collection).
    pub fn caches(&self) -> &[StreamCache] {
        &self.caches
    }

    /// Scheduler state (for measurement collection).
    pub fn sched(&self) -> &SchedState {
        &self.sched
    }

    /// The stream row backing `(task, port)`.
    pub fn row_of(&self, task: TaskIdx, port: PortId) -> RowIdx {
        self.tasks[task.0 as usize].cfg.ports[port as usize]
    }

    /// Effective space visible at a row.
    pub fn space(&self, row: RowIdx) -> u32 {
        self.rows[row.0 as usize].effective_space()
    }

    /// Enable or disable a task (CPU control). Disabling the currently
    /// selected task preempts it immediately, exactly like `finish_task`
    /// — otherwise the scheduler would keep running a paused task until
    /// its budget expired.
    pub fn set_task_enabled(&mut self, task: TaskIdx, enabled: bool) {
        self.tasks[task.0 as usize].enabled = enabled;
        if !enabled && self.sched.current == Some(task) {
            self.sched.current = None;
            self.sched.budget_left = 0;
        }
    }

    /// Reprogram a task's scheduler budget (CPU control).
    pub fn set_task_budget(&mut self, task: TaskIdx, budget: u64) {
        self.tasks[task.0 as usize].cfg.budget = budget;
    }

    /// Reprogram a task's `task_info` parameter word (CPU control).
    pub fn set_task_info(&mut self, task: TaskIdx, info: u32) {
        self.tasks[task.0 as usize].cfg.task_info = info;
    }

    /// Reprogram a task's per-port scheduler space hints (CPU control).
    pub fn set_task_hints(&mut self, task: TaskIdx, hints: Vec<u32>) {
        let t = &mut self.tasks[task.0 as usize];
        assert_eq!(hints.len(), t.cfg.ports.len());
        t.cfg.space_hints = hints;
    }

    /// Mark a task finished (end of stream); it will never be selected
    /// again.
    pub fn finish_task(&mut self, task: TaskIdx) {
        self.tasks[task.0 as usize].finished = true;
        if self.sched.current == Some(task) {
            self.sched.current = None;
            self.sched.budget_left = 0;
        }
    }

    /// True when every task of this shell has finished or been retired
    /// (vacuously true for a shell with no tasks configured — an unused
    /// coprocessor). A disabled-but-unfinished task is *paused*, not
    /// done: pausing an app must not terminate the run early.
    pub fn all_tasks_finished(&self) -> bool {
        self.tasks.iter().all(|t| t.finished || t.retired)
    }

    // ---- run-time reconfiguration (CPU over the PI bus) -----------------

    /// Retire a stream row: bump its generation (so in-flight `putspace`
    /// messages addressed to the old occupant are rejected as stale),
    /// replace its cache with a fresh object (dropping any dirty state —
    /// the quiesce protocol guarantees nothing coherent remains), and
    /// put the slot on the free list for recycling.
    pub fn retire_stream_row(&mut self, row: RowIdx) {
        let i = row.0 as usize;
        assert!(!self.rows[i].retired, "double retire of stream row {row:?}");
        self.rows[i].retired = true;
        self.generations[i] = self.generations[i].wrapping_add(1);
        let cache_cfg = *self.caches[i].config();
        self.caches[i] = StreamCache::new(cache_cfg);
        self.caches[i].owner = self.id.0 as usize;
        let pos = self.free_rows.partition_point(|&r| r.0 < row.0);
        self.free_rows.insert(pos, row);
    }

    /// Retire a task row: it is terminated for completion purposes,
    /// preempted if currently selected, and its slot freed for recycling.
    pub fn retire_task(&mut self, task: TaskIdx) {
        let i = task.0 as usize;
        assert!(!self.tasks[i].retired, "double retire of task {task:?}");
        let t = &mut self.tasks[i];
        t.retired = true;
        t.enabled = false;
        t.blocked_on = None;
        if self.sched.current == Some(task) {
            self.sched.current = None;
            self.sched.budget_left = 0;
        }
        let pos = self.free_tasks.partition_point(|&t| t.0 < task.0);
        self.free_tasks.insert(pos, task);
    }

    /// Current generation of a stream row.
    pub fn row_generation(&self, row: RowIdx) -> u32 {
        self.generations[row.0 as usize]
    }

    /// Retired stream-row slots available for recycling (ascending).
    pub fn free_rows(&self) -> &[RowIdx] {
        &self.free_rows
    }

    /// Number of task slots a live mapping could still claim before
    /// hitting [`Shell::task_capacity`].
    pub fn free_task_slots(&self) -> usize {
        self.free_tasks.len() + self.task_capacity.saturating_sub(self.tasks.len())
    }

    /// The slot the next `add_task` will return (recycled or appended).
    pub fn next_task_slot(&self) -> TaskIdx {
        self.free_tasks
            .first()
            .copied()
            .unwrap_or(TaskIdx(self.tasks.len() as u8))
    }

    /// The slot the next stream-row add will return (recycled or
    /// appended).
    pub fn next_row_slot(&self) -> RowIdx {
        self.free_rows
            .first()
            .copied()
            .unwrap_or(RowIdx(self.rows.len() as u16))
    }

    // ---- the five primitives --------------------------------------------

    /// `GetTask`: run the weighted round-robin scheduler under the
    /// configured policy. `now` stamps the selection event in the trace
    /// (the scheduler itself is time-free).
    pub fn get_task(&mut self, now: Cycle) -> GetTaskResult {
        self.stats.gettask_calls += 1;
        let rows = &self.rows;
        let policy = self.cfg.policy;
        let choice = select(&mut self.sched, &self.tasks, |t| {
            if policy == SchedPolicy::NaiveRoundRobin {
                // Only skip a task while we *know* nothing changed since
                // its denial (otherwise naive RR livelocks a single-task
                // shell); it never looks at space values or hints.
                return t.blocked_on.is_none();
            }
            if t.blocked_on.is_some() {
                return false;
            }
            // Best guess from locally known space vs the per-port hints.
            t.cfg
                .ports
                .iter()
                .zip(&t.cfg.space_hints)
                .all(|(&row, &hint)| hint == 0 || rows[row.0 as usize].effective_space() >= hint)
        });
        match choice {
            Choice::Run {
                task,
                info,
                switched,
            } => {
                self.stats.gettask_runs += 1;
                if switched {
                    self.tasks[task.0 as usize].stats.switches_in += 1;
                }
                if let Some(tr) = &self.trace {
                    let name = &self.tasks[task.0 as usize].cfg.name;
                    tr.emit_with(now, |sink| TraceEventKind::TaskSelected {
                        task: sink.intern(name),
                        switched,
                    });
                }
                GetTaskResult::Run {
                    task,
                    info,
                    switched,
                }
            }
            Choice::Idle => {
                if let Some(tr) = &self.trace {
                    tr.emit(now, TraceEventKind::TaskIdle);
                }
                GetTaskResult::Idle
            }
        }
    }

    /// `GetSpace`: answer locally from the stream table; on success run
    /// coherency rule 2 (invalidate the newly granted window) and the
    /// GetSpace-triggered prefetch; on failure record the denial for the
    /// best-guess scheduler.
    pub fn get_space(&mut self, task: TaskIdx, port: PortId, n_bytes: u32, now: Cycle) -> bool {
        let row_idx = self.row_of(task, port);
        let hint = self.tasks[task.0 as usize].cfg.space_hints[port as usize];
        let row = &mut self.rows[row_idx.0 as usize];
        let space = row.effective_space();
        let prev_granted = row.granted;
        match row.get_space(n_bytes, now) {
            Some(newly) => {
                if newly > 0 && !self.disable_invalidate {
                    let buffer = row.buffer;
                    let start = buffer.wrap_add(row.access_point, prev_granted);
                    let cache = &mut self.caches[row_idx.0 as usize];
                    let inv_before = cache.stats.invalidations;
                    cache.invalidate_window(&buffer, start, newly);
                    let lines = cache.stats.invalidations - inv_before;
                    if let Some(tr) = &self.trace {
                        if lines > 0 {
                            tr.emit(
                                now,
                                TraceEventKind::CacheInvalidate {
                                    row: row_idx.0 as u32,
                                    lines,
                                },
                            );
                        }
                    }
                }
                if let Some(tr) = &self.trace {
                    tr.emit(
                        now,
                        TraceEventKind::SpaceGranted {
                            port: port as u32,
                            bytes: n_bytes,
                            space,
                            hint,
                        },
                    );
                }
                true
            }
            None => {
                self.tasks[task.0 as usize].blocked_on = Some((port, n_bytes));
                self.tasks[task.0 as usize].stats.denials += 1;
                if let Some(tr) = &self.trace {
                    tr.emit(
                        now,
                        TraceEventKind::SpaceDenied {
                            port: port as u32,
                            bytes: n_bytes,
                            space,
                            hint,
                        },
                    );
                }
                false
            }
        }
    }

    /// GetSpace-triggered prefetch of the granted window's leading bytes
    /// (consumer rows only; producers have nothing to fetch). Called by
    /// the core after a successful `get_space` with access to the memory
    /// system.
    pub fn prefetch_window(
        &mut self,
        task: TaskIdx,
        port: PortId,
        len: u32,
        now: Cycle,
        mem: &mut MemSys,
    ) {
        let row_idx = self.row_of(task, port);
        let row = &self.rows[row_idx.0 as usize];
        if row.dir != PortDir::Consumer {
            return;
        }
        let cache = &mut self.caches[row_idx.0 as usize];
        let pf_before = cache.stats.prefetches;
        cache.prefetch(
            now,
            mem,
            &row.buffer,
            row.access_point,
            len.min(row.granted),
        );
        let lines = cache.stats.prefetches - pf_before;
        if let Some(tr) = &self.trace {
            if lines > 0 {
                tr.emit(
                    now,
                    TraceEventKind::CachePrefetch {
                        row: row_idx.0 as u32,
                        lines,
                    },
                );
            }
        }
    }

    /// `Read`: move bytes from the stream buffer (through the row cache)
    /// into `buf`. `offset` is relative to the access point and the range
    /// must lie within the granted window. Returns the completion cycle.
    pub fn read(
        &mut self,
        task: TaskIdx,
        port: PortId,
        offset: u32,
        buf: &mut [u8],
        now: Cycle,
        mem: &mut MemSys,
    ) -> Cycle {
        let row_idx = self.row_of(task, port);
        let row = &self.rows[row_idx.0 as usize];
        assert!(
            offset as u64 + buf.len() as u64 <= row.granted as u64,
            "Read outside granted window: offset {} + len {} > granted {} (task {:?} port {})",
            offset,
            buf.len(),
            row.granted,
            task,
            port
        );
        let start = row.buffer.wrap_add(row.access_point, offset);
        let buffer = row.buffer;
        let granted = row.granted;
        let dir = row.dir;
        let cache = &mut self.caches[row_idx.0 as usize];
        let done = cache.read(now, mem, &buffer, start, buf);
        // Read-triggered prefetch (paper §5.2), bounded by the granted
        // window: only committed producer data is fetched ahead.
        if dir == PortDir::Consumer && cache.config().prefetch {
            let end_off = offset + buf.len() as u32;
            let remaining = granted.saturating_sub(end_off);
            let depth = cache.config().prefetch_depth * cache.config().line_bytes;
            let len = remaining.min(depth);
            if len > 0 {
                let from = buffer.wrap_add(row.access_point, end_off);
                let pf_before = cache.stats.prefetches;
                cache.prefetch(now, mem, &buffer, from, len);
                let lines = cache.stats.prefetches - pf_before;
                if let Some(tr) = &self.trace {
                    if lines > 0 {
                        tr.emit(
                            now,
                            TraceEventKind::CachePrefetch {
                                row: row_idx.0 as u32,
                                lines,
                            },
                        );
                    }
                }
            }
        }
        self.stats.bytes_read += buf.len() as u64;
        done
    }

    /// `Write`: move bytes from the coprocessor into the stream buffer
    /// (absorbed by the row cache). Same window rules as [`Shell::read`].
    pub fn write(
        &mut self,
        task: TaskIdx,
        port: PortId,
        offset: u32,
        data: &[u8],
        now: Cycle,
        mem: &mut MemSys,
    ) -> Cycle {
        let row_idx = self.row_of(task, port);
        let row = &self.rows[row_idx.0 as usize];
        assert!(
            offset as u64 + data.len() as u64 <= row.granted as u64,
            "Write outside granted window: offset {} + len {} > granted {} (task {:?} port {})",
            offset,
            data.len(),
            row.granted,
            task,
            port
        );
        let start = row.buffer.wrap_add(row.access_point, offset);
        let buffer = row.buffer;
        let done = self.caches[row_idx.0 as usize].write(now, mem, &buffer, start, data);
        self.stats.bytes_written += data.len() as u64;
        done
    }

    /// `PutSpace`: commit `n_bytes`. For a producer this flushes the
    /// committed interval first (coherency rule 3) and only then releases
    /// the `putspace` messages; the returned messages carry their
    /// earliest send time. A wrapper over [`Shell::put_space_into`].
    pub fn put_space(
        &mut self,
        task: TaskIdx,
        port: PortId,
        n_bytes: u32,
        now: Cycle,
        mem: &mut MemSys,
    ) -> PutSpaceOutcome {
        let mut msgs = Vec::new();
        let done = self.put_space_into(task, port, n_bytes, now, mem, &mut msgs);
        PutSpaceOutcome { msgs, done }
    }

    /// [`Shell::put_space`] appending its messages to `out` instead of
    /// allocating; returns the cycle the local operation (including the
    /// flush) completed.
    pub fn put_space_into(
        &mut self,
        task: TaskIdx,
        port: PortId,
        n_bytes: u32,
        now: Cycle,
        mem: &mut MemSys,
        out: &mut Vec<SyncMsg>,
    ) -> Cycle {
        let row_idx = self.row_of(task, port);
        let row = &mut self.rows[row_idx.0 as usize];
        let flush_done = if row.dir == PortDir::Producer && !self.disable_flush {
            let cache = &mut self.caches[row_idx.0 as usize];
            let wb_before = cache.stats.writebacks;
            let done = cache.flush_window(now, mem, &row.buffer, row.access_point, n_bytes);
            let lines = cache.stats.writebacks - wb_before;
            if let Some(tr) = &self.trace {
                if lines > 0 {
                    tr.emit(
                        now,
                        TraceEventKind::CacheFlush {
                            row: row_idx.0 as u32,
                            lines,
                        },
                    );
                }
            }
            done
        } else {
            now
        };
        row.put_space(n_bytes, now);
        let src = AccessPoint {
            shell: self.id,
            row: row_idx,
        };
        out.extend(row.remotes.iter().map(|&dst| SyncMsg {
            src,
            dst,
            bytes: n_bytes,
            send_at: flush_done,
            // Placeholder: the sync network stamps the destination row's
            // real generation at send time (the sending shell has no view
            // of remote tables).
            dst_gen: 0,
        }));
        let sent = row.remotes.len();
        self.stats.messages_sent += sent as u64;
        if let Some(tr) = &self.trace {
            if sent > 0 {
                tr.emit(
                    now,
                    TraceEventKind::PutSpaceSend {
                        port: port as u32,
                        bytes: n_bytes,
                        send_at: flush_done,
                    },
                );
            }
        }
        flush_done
    }

    /// Deliver an incoming `putspace` message to a local row. Returns true
    /// if the message unblocked at least one task (the coprocessor should
    /// be woken if idle). A message addressed to a retired or recycled
    /// row (generation mismatch) is rejected as stale and dropped.
    pub fn deliver_putspace(&mut self, msg: &SyncMsg, now: Cycle) -> bool {
        let row_idx = msg.dst.row;
        if self.rows[row_idx.0 as usize].retired
            || msg.dst_gen != self.generations[row_idx.0 as usize]
        {
            self.stats.stale_syncs_rejected += 1;
            if let Some(tr) = &self.trace {
                tr.emit(
                    now,
                    TraceEventKind::StaleSyncRejected {
                        row: row_idx.0 as u32,
                        bytes: msg.bytes,
                    },
                );
            }
            return false;
        }
        self.rows[row_idx.0 as usize].deliver_putspace(msg.src, msg.bytes, now);
        self.stats.messages_received += 1;
        let mut unblocked = false;
        let rows = &self.rows;
        for t in &mut self.tasks {
            if let Some((port, wanted)) = t.blocked_on {
                let port_row = t.cfg.ports[port as usize];
                if port_row == row_idx && rows[port_row.0 as usize].effective_space() >= wanted {
                    t.blocked_on = None;
                    unblocked = true;
                }
            }
        }
        if let Some(tr) = &self.trace {
            tr.emit(
                now,
                TraceEventKind::PutSpaceRecv {
                    row: row_idx.0 as u32,
                    bytes: msg.bytes,
                    unblocked,
                },
            );
        }
        unblocked
    }

    // ---- accounting -------------------------------------------------------

    /// Charge `cycles` of execution to `task` (budget + busy time).
    pub fn charge(&mut self, task: TaskIdx, cycles: u64) {
        self.sched.budget_left = self.sched.budget_left.saturating_sub(cycles);
        self.tasks[task.0 as usize].stats.busy_cycles += cycles;
    }

    /// Record a completed processing step for `task`.
    pub fn note_step(&mut self, task: TaskIdx, aborted: bool) {
        let s = &mut self.tasks[task.0 as usize].stats;
        if aborted {
            s.aborted_steps += 1;
        } else {
            s.steps += 1;
        }
    }

    /// Direct access to a row's buffer descriptor (for the core's
    /// configuration plumbing).
    pub fn row_buffer(&self, row: RowIdx) -> CyclicBuffer {
        self.rows[row.0 as usize].buffer
    }

    // ---- checkpointing ----------------------------------------------------

    /// After a load: re-attach the caches to this shell's fabric port
    /// (wiring, not state) and reject tables whose indices disagree —
    /// generations, free lists, task ports and the scheduler all index
    /// the row and task tables unchecked.
    fn relink(&mut self) -> Result<(), SnapError> {
        for cache in &mut self.caches {
            cache.owner = self.id.0 as usize;
        }
        let (rows, tasks) = (self.rows.len(), self.tasks.len());
        let ports_ok = self
            .tasks
            .iter()
            .all(|t| t.cfg.ports.iter().all(|p| (p.0 as usize) < rows));
        let sched_ok =
            self.sched.current.is_none_or(|t| (t.0 as usize) < tasks) && self.sched.cursor <= tasks;
        if self.generations.len() != rows
            || self.free_rows.iter().any(|r| r.0 as usize >= rows)
            || self.free_tasks.iter().any(|t| t.0 as usize >= tasks)
            || !ports_ok
            || !sched_ok
        {
            return Err(SnapError::Corrupt("shell tables"));
        }
        Ok(())
    }

    /// Check the references a restored shell holds outside itself: every
    /// row's remotes name a row that exists (`rows_of(shell)` is that
    /// shell's row count, `None` for no such shell), and every buffer and
    /// cached line lies inside an SRAM of `sram_bytes`.
    pub fn check_links(
        &self,
        rows_of: impl Fn(ShellId) -> Option<usize>,
        sram_bytes: u32,
    ) -> Result<(), SnapError> {
        let inside = |start: u32, len: u32| start as u64 + len as u64 <= sram_bytes as u64;
        for (row, cache) in self.rows.iter().zip(&self.caches) {
            let remotes_ok = row
                .remotes
                .iter()
                .all(|ap| rows_of(ap.shell).is_some_and(|n| (ap.row.0 as usize) < n));
            if !remotes_ok {
                return Err(SnapError::Corrupt("stream row remote"));
            }
            if !inside(row.buffer.base, row.buffer.size) || !cache.lines_inside(inside) {
                return Err(SnapError::Corrupt("stream buffer outside SRAM"));
            }
        }
        Ok(())
    }
}

eclipse_sim::snap_fields!(
    /// All dynamic shell state: the full stream and task tables
    /// (including run-time-mapped entries) with each row's cache,
    /// scheduler state, generation counters, free lists, and counters.
    /// Loading rebuilds the tables wholesale, so rows and tasks mapped
    /// (or retired) after the system was built are recreated exactly.
    Shell {
        (rows, caches),
        tasks,
        sched,
        generations,
        free_rows,
        free_tasks,
        task_capacity,
        stats,
        disable_invalidate,
        disable_flush,
    } then Shell::relink
);

eclipse_sim::snap_fields!(ShellStats {
    messages_sent,
    messages_received,
    bytes_read,
    bytes_written,
    gettask_calls,
    gettask_runs,
    stale_syncs_rejected,
});

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_mem::{BusConfig, SramConfig};

    fn memsys() -> MemSys {
        MemSys::shared_bus(
            SramConfig {
                size: 8192,
                word_bytes: 16,
                latency: 2,
            },
            BusConfig::default(),
            BusConfig::default(),
        )
    }

    /// Wire a producer shell and a consumer shell around one stream.
    fn pair(buffer_size: u32) -> (Shell, Shell, MemSys) {
        let mut producer = Shell::new(ShellId(0), ShellConfig::default());
        let mut consumer = Shell::new(ShellId(1), ShellConfig::default());
        let buf = CyclicBuffer::new(0, buffer_size);
        let prow = producer.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Producer,
            remotes: vec![AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            }],
        });
        let crow = consumer.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Consumer,
            remotes: vec![AccessPoint {
                shell: ShellId(0),
                row: RowIdx(0),
            }],
        });
        producer.add_task(TaskConfig {
            name: "prod".into(),
            budget: 1000,
            task_info: 0,
            ports: vec![prow],
            space_hints: vec![0],
        });
        consumer.add_task(TaskConfig {
            name: "cons".into(),
            budget: 1000,
            task_info: 0,
            ports: vec![crow],
            space_hints: vec![0],
        });
        (producer, consumer, memsys())
    }

    const T0: TaskIdx = TaskIdx(0);

    #[test]
    fn end_to_end_stream_transfer() {
        let (mut p, mut c, mut mem) = pair(256);
        // Producer writes a packet.
        assert!(p.get_space(T0, 0, 64, 0));
        p.write(T0, 0, 0, &[42u8; 64], 1, &mut mem);
        let out = p.put_space(T0, 0, 64, 2, &mut mem);
        assert_eq!(out.msgs.len(), 1);
        // Consumer can't read yet.
        assert!(!c.get_space(T0, 0, 64, 3));
        // Deliver the putspace message.
        let t = out.msgs[0].send_at + 4;
        let unblocked = c.deliver_putspace(&out.msgs[0], t);
        assert!(unblocked, "blocked consumer task must be unblocked");
        assert!(c.get_space(T0, 0, 64, t + 1));
        let mut buf = [0u8; 64];
        let t = c.read(T0, 0, 0, &mut buf, t + 2, &mut mem);
        assert_eq!(buf, [42u8; 64]);
        let back = c.put_space(T0, 0, 64, t + 1, &mut mem);
        // Producer's room is restored by the consumer's putspace.
        p.deliver_putspace(&back.msgs[0], t + 8);
        assert_eq!(p.space(RowIdx(0)), 256);
    }

    #[test]
    fn flush_ordering_putspace_message_waits_for_flush() {
        let (mut p, _c, mut mem) = pair(256);
        p.get_space(T0, 0, 128, 0);
        p.write(T0, 0, 0, &[1u8; 128], 0, &mut mem);
        let out = p.put_space(T0, 0, 128, 0, &mut mem);
        assert!(
            out.msgs[0].send_at > 0,
            "message must wait for the flush write-backs"
        );
        // And the data must actually be in memory by then.
        let mut direct = [0u8; 128];
        mem.sram.read(0, &mut direct);
        assert_eq!(direct, [1u8; 128]);
    }

    #[test]
    fn coherency_survives_buffer_wrap() {
        // Stream 64-byte packets through a 128-byte buffer several times;
        // the consumer must always see fresh data even though the cyclic
        // buffer reuses the same addresses.
        let (mut p, mut c, mut mem) = pair(128);
        let mut now = 0u64;
        for round in 0u8..10 {
            assert!(p.get_space(T0, 0, 64, now), "round {round}");
            p.write(T0, 0, 0, &[round; 64], now, &mut mem);
            let out = p.put_space(T0, 0, 64, now, &mut mem);
            now = out.msgs[0].send_at + 4;
            c.deliver_putspace(&out.msgs[0], now);
            assert!(c.get_space(T0, 0, 64, now));
            let mut buf = [0u8; 64];
            now = c.read(T0, 0, 0, &mut buf, now, &mut mem);
            assert_eq!(buf, [round; 64], "round {round}: stale data");
            let back = c.put_space(T0, 0, 64, now, &mut mem);
            p.deliver_putspace(&back.msgs[0], now + 4);
            now += 10;
        }
    }

    #[test]
    fn disabled_invalidation_serves_stale_data() {
        // The fault-injection proof that rule 2 is load-bearing.
        let (mut p, mut c, mut mem) = pair(128);
        c.disable_invalidate = true;
        let mut now = 0u64;
        let mut saw_stale = false;
        for round in 0u8..4 {
            p.get_space(T0, 0, 64, now);
            p.write(T0, 0, 0, &[round; 64], now, &mut mem);
            let out = p.put_space(T0, 0, 64, now, &mut mem);
            now = out.msgs[0].send_at + 4;
            c.deliver_putspace(&out.msgs[0], now);
            c.get_space(T0, 0, 64, now);
            let mut buf = [0u8; 64];
            now = c.read(T0, 0, 0, &mut buf, now, &mut mem);
            if buf != [round; 64] {
                saw_stale = true;
            }
            let back = c.put_space(T0, 0, 64, now, &mut mem);
            p.deliver_putspace(&back.msgs[0], now + 4);
            now += 10;
        }
        assert!(
            saw_stale,
            "without invalidation the consumer must eventually read stale data"
        );
    }

    #[test]
    fn blocked_task_excluded_from_scheduling_until_message() {
        let (mut _p, mut c, mut _mem) = pair(128);
        // The consumer task blocks on data.
        assert!(!c.get_space(T0, 0, 64, 0));
        assert_eq!(c.get_task(0), GetTaskResult::Idle);
        // A message for 64 bytes unblocks it.
        let msg = SyncMsg {
            src: AccessPoint {
                shell: ShellId(0),
                row: RowIdx(0),
            },
            dst: AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            },
            bytes: 64,
            send_at: 0,
            dst_gen: 0,
        };
        assert!(c.deliver_putspace(&msg, 5));
        match c.get_task(0) {
            GetTaskResult::Run { task, .. } => assert_eq!(task, T0),
            GetTaskResult::Idle => panic!("task should be runnable"),
        }
    }

    #[test]
    fn partial_message_does_not_unblock() {
        let (mut _p, mut c, mut _mem) = pair(128);
        assert!(!c.get_space(T0, 0, 64, 0));
        let msg = SyncMsg {
            src: AccessPoint {
                shell: ShellId(0),
                row: RowIdx(0),
            },
            dst: AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            },
            bytes: 32, // less than requested
            send_at: 0,
            dst_gen: 0,
        };
        assert!(!c.deliver_putspace(&msg, 5), "32 < 64: stays blocked");
        assert_eq!(c.get_task(0), GetTaskResult::Idle);
    }

    #[test]
    #[should_panic(expected = "outside granted window")]
    fn read_outside_window_panics() {
        let (mut p, mut c, mut mem) = pair(128);
        p.get_space(T0, 0, 64, 0);
        p.write(T0, 0, 0, &[1u8; 64], 0, &mut mem);
        let out = p.put_space(T0, 0, 64, 0, &mut mem);
        c.deliver_putspace(&out.msgs[0], 5);
        c.get_space(T0, 0, 32, 6); // only 32 granted
        let mut buf = [0u8; 64];
        c.read(T0, 0, 0, &mut buf, 7, &mut mem); // reads 64: violation
    }

    #[test]
    fn space_hints_gate_scheduling() {
        let mut shell = Shell::new(ShellId(0), ShellConfig::default());
        let buf = CyclicBuffer::new(0, 256);
        let row = shell.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Consumer,
            remotes: vec![AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            }],
        });
        shell.add_task(TaskConfig {
            name: "t".into(),
            budget: 100,
            task_info: 7,
            ports: vec![row],
            space_hints: vec![128], // needs a full packet before running
        });
        assert_eq!(shell.get_task(0), GetTaskResult::Idle);
        let msg = SyncMsg {
            src: AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            },
            dst: AccessPoint {
                shell: ShellId(0),
                row: RowIdx(0),
            },
            bytes: 64,
            send_at: 0,
            dst_gen: 0,
        };
        shell.deliver_putspace(&msg, 1);
        assert_eq!(shell.get_task(0), GetTaskResult::Idle, "64 < hint 128");
        shell.deliver_putspace(&msg, 2);
        match shell.get_task(0) {
            GetTaskResult::Run { info, .. } => assert_eq!(info, 7),
            GetTaskResult::Idle => panic!("128 bytes available; hint satisfied"),
        }
    }

    #[test]
    fn multitask_shell_round_robins() {
        let mut shell = Shell::new(ShellId(0), ShellConfig::default());
        let buf = CyclicBuffer::new(0, 256);
        for i in 0..3u16 {
            let row = shell.add_stream_row(StreamRowConfig {
                buffer: buf,
                dir: PortDir::Producer,
                remotes: vec![AccessPoint {
                    shell: ShellId(1),
                    row: RowIdx(i),
                }],
            });
            shell.add_task(TaskConfig {
                name: format!("t{i}"),
                budget: 10,
                task_info: i as u32,
                ports: vec![row],
                space_hints: vec![0],
            });
        }
        let mut seen = Vec::new();
        for _ in 0..6 {
            match shell.get_task(0) {
                GetTaskResult::Run { task, .. } => {
                    seen.push(task.0);
                    shell.charge(task, 10); // burn the budget
                }
                GetTaskResult::Idle => panic!(),
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn finished_tasks_stop_and_shell_reports_completion() {
        let (mut p, _c, _mem) = pair(64);
        assert!(!p.all_tasks_finished());
        p.finish_task(T0);
        assert_eq!(p.get_task(0), GetTaskResult::Idle);
        assert!(p.all_tasks_finished());
    }

    /// Regression (satellite #1): disabling the currently selected task
    /// must preempt it immediately, not let it run out its budget.
    #[test]
    fn disabling_current_task_preempts_immediately() {
        let (mut p, _c, _mem) = pair(64);
        match p.get_task(0) {
            GetTaskResult::Run { task, .. } => assert_eq!(task, T0),
            GetTaskResult::Idle => panic!("producer task should run"),
        }
        assert_eq!(p.sched().current, Some(T0));
        p.set_task_enabled(T0, false);
        assert_eq!(p.sched().current, None, "disable must preempt");
        assert_eq!(p.sched().budget_left, 0);
        assert_eq!(p.get_task(1), GetTaskResult::Idle);
        // Re-enabling lets it run again.
        p.set_task_enabled(T0, true);
        match p.get_task(2) {
            GetTaskResult::Run { task, .. } => assert_eq!(task, T0),
            GetTaskResult::Idle => panic!("re-enabled task should run"),
        }
    }

    /// Regression (satellite #2): a paused (disabled-but-unfinished)
    /// task must not count as finished — pausing an app must not
    /// terminate the run early.
    #[test]
    fn paused_task_is_not_finished() {
        let (mut p, _c, _mem) = pair(64);
        p.set_task_enabled(T0, false);
        assert!(
            !p.all_tasks_finished(),
            "paused is not finished: the run must keep going"
        );
        // A retired task *is* terminated for completion purposes.
        p.retire_task(T0);
        assert!(p.all_tasks_finished());
    }

    /// A putspace stamped against a retired/recycled row's old generation
    /// is rejected as stale and must not corrupt the new occupant.
    #[test]
    fn stale_putspace_to_recycled_row_is_rejected() {
        let (_p, mut c, _mem) = pair(128);
        let row = RowIdx(0);
        assert_eq!(c.row_generation(row), 0);
        let msg = SyncMsg {
            src: AccessPoint {
                shell: ShellId(0),
                row: RowIdx(0),
            },
            dst: AccessPoint {
                shell: ShellId(1),
                row,
            },
            bytes: 64,
            send_at: 0,
            dst_gen: 0,
        };
        // Retire the row: both the retired flag and the generation bump
        // now reject the in-flight message.
        c.retire_stream_row(row);
        assert!(!c.deliver_putspace(&msg, 5));
        assert_eq!(c.stats.stale_syncs_rejected, 1);
        // Recycle the slot for a fresh stream; the old-generation message
        // must still be rejected, a correctly stamped one delivered.
        let buf = CyclicBuffer::new(0, 128);
        let new_row = c.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Consumer,
            remotes: vec![AccessPoint {
                shell: ShellId(0),
                row: RowIdx(0),
            }],
        });
        assert_eq!(new_row, row, "lowest free slot is recycled");
        assert_eq!(c.row_generation(row), 1);
        assert!(!c.deliver_putspace(&msg, 6), "old generation stays stale");
        assert_eq!(c.stats.stale_syncs_rejected, 2);
        let fresh = SyncMsg { dst_gen: 1, ..msg };
        let space_before = c.space(row);
        c.deliver_putspace(&fresh, 7);
        assert_eq!(c.space(row), space_before + 64);
    }

    /// Retired task slots are recycled lowest-first and the scheduler
    /// never selects a retired row.
    #[test]
    fn retired_task_slot_is_recycled() {
        let mut shell = Shell::new(ShellId(0), ShellConfig::default());
        let buf = CyclicBuffer::new(0, 256);
        let row = shell.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Producer,
            remotes: vec![AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            }],
        });
        let t0 = shell.add_task(TaskConfig {
            name: "a".into(),
            budget: 10,
            task_info: 0,
            ports: vec![row],
            space_hints: vec![0],
        });
        assert_eq!(shell.free_task_slots(), DEFAULT_TASK_CAPACITY - 1);
        shell.retire_task(t0);
        assert_eq!(shell.get_task(0), GetTaskResult::Idle);
        assert_eq!(shell.free_task_slots(), DEFAULT_TASK_CAPACITY);
        assert_eq!(shell.next_task_slot(), t0);
        let t1 = shell.add_task(TaskConfig {
            name: "b".into(),
            budget: 10,
            task_info: 9,
            ports: vec![row],
            space_hints: vec![0],
        });
        assert_eq!(t1, t0, "retired slot is reused");
        match shell.get_task(1) {
            GetTaskResult::Run { info, .. } => assert_eq!(info, 9),
            GetTaskResult::Idle => panic!("recycled task should run"),
        }
    }
}
