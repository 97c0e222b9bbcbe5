//! Whole-system checkpointing: [`EclipseSystem::save`],
//! [`EclipseSystem::restore`], and the rolling [`EclipseSystem::state_hash`].
//!
//! A checkpoint captures every piece of state that influences future
//! simulated behavior — the event calendar in exact pop order, the shell
//! stream/task tables (including rows and tasks mapped or retired by
//! run-time reconfiguration), per-row stream caches with their dirty
//! masks, SRAM and off-chip DRAM contents, the buffer allocator's free
//! list, application lifecycle records, fault-injector RNG streams, and
//! every statistics accumulator that feeds [`super::RunSummary`]. A run
//! restored from a checkpoint therefore continues *bit-exactly*: the
//! timing fingerprint, the state-hash sequence, and the final summary
//! are indistinguishable from the uninterrupted run.
//!
//! ## Format
//!
//! `MAGIC (8 bytes) | version u32 | config digest u64 | state section`.
//! The config digest is an FNV-1a hash of the build-time configuration
//! (template parameters, coprocessor roster, fabric kinds): restoring
//! into a differently-built system fails fast with
//! [`SnapError::ConfigMismatch`] instead of deserializing garbage.
//!
//! The trace-sink accounting section rides at the very end of `save`
//! output but is *excluded* from [`EclipseSystem::state_hash`]: tracing
//! is observational, and enabling it must never change the hash of the
//! architectural state. The state hash streams the same bytes into
//! FNV-1a ([`SnapWriter::hashing`]) without building a checkpoint.
//!
//! ## Validation
//!
//! A checkpoint is untrusted input. Decoding bounds every allocation
//! and each component checks its own invariants as it loads; `restore`
//! then checks every index the run loop later uses unchecked — event
//! targets, stream-row remotes, buffers against the SRAM, application
//! records, pending-sync keys, row labels, coprocessor task maps — and
//! returns [`SnapError::Corrupt`] instead of letting the run panic.

use eclipse_shell::task_table::TaskIdx;
use eclipse_shell::ShellId;
use eclipse_sim::snapshot::{fnv1a_64, SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::trace::TraceSink;
use eclipse_sim::Cycle;

use super::lifecycle::AppRecord;
use super::{event_key, AppState, EclipseSystem, Event, PendingSyncs};

/// Leading bytes of every Eclipse checkpoint.
pub const SNAP_MAGIC: &[u8; 8] = b"ECLSNAP1";
/// Checkpoint format version this build writes and accepts.
/// v2: fault-plan drop-burst window + injector sync counter, display
/// expected-frame totals (ISSUE 8).
/// v3: per-shell fault-injector RNG lanes, integer sync-latency
/// histogram accumulators (ISSUE 9). Calendar events still serialize as
/// `(time, event)` pairs — content keys are recomputed on load.
pub const SNAP_VERSION: u32 = 3;

eclipse_sim::snap_enum!(Event {
    Step(shell) = 0,
    Sync(msg) = 1,
    Sample = 2,
});
eclipse_sim::snap_enum!(AppState {
    Running = 0,
    Paused = 1,
    Drained = 2,
});
eclipse_sim::snap_fields!(AppRecord {
    state,
    tasks,
    rows,
    buffers
});

/// Touched entries in `(shell, row)` order. Loading rejects a shell the
/// system does not have; `restore` checks the rows.
impl Snapshot for PendingSyncs {
    fn save(&self, w: &mut SnapWriter) {
        self.entries_sorted().save(w);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let mut entries: Vec<((usize, u16), u32)> = Vec::new();
        entries.load(r)?;
        let shells = self.shells();
        self.clear();
        for ((shell, row), n) in entries {
            if shell >= shells {
                return Err(SnapError::Corrupt("pending sync shell"));
            }
            self.add(shell, row, n);
        }
        Ok(())
    }
}

impl EclipseSystem {
    /// FNV digest of the build-time configuration: template parameters,
    /// coprocessor roster, fabric backends, and the CPU-sync baseline
    /// flag. Two systems with equal digests were built through the same
    /// construction path and can exchange checkpoints.
    pub fn config_digest(&self) -> u64 {
        let desc = format!(
            "{:?}|coprocs={:?}|data={}|sync={}|cpu={:?}",
            self.cfg,
            self.shell_names,
            self.mem.fabric.kind(),
            self.sync.kind(),
            self.cpu_sync,
        );
        fnv1a_64(desc.as_bytes())
    }

    /// Rolling digest of all architectural state (everything the event
    /// loop can observe), excluding the trace-sink accounting. Two runs
    /// that agree on every `state_hash` sample agree on their futures;
    /// the first diverging sample brackets a nondeterminism bug.
    pub fn state_hash(&self) -> u64 {
        let mut w = SnapWriter::hashing();
        self.write_state(&mut w);
        w.digest()
    }

    /// Serialize the full system to a versioned checkpoint. The system
    /// is not disturbed; saving mid-run (between events) is the intended
    /// use — pair with [`EclipseSystem::run_until`].
    pub fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.raw(SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.u64(self.config_digest());
        self.write_state(&mut w);
        // Trace-sink accounting last, so the state hash can simply stop
        // before it.
        w.bool(self.trace_sink.is_some());
        if let Some(sink) = &self.trace_sink {
            sink.borrow().save(&mut w);
        }
        w.into_bytes()
    }

    /// Restore a checkpoint produced by [`EclipseSystem::save`] into
    /// this system, which must have been built through the same
    /// construction path (same config, coprocessors, fabrics — enforced
    /// via the config digest). All dynamic state, including applications
    /// mapped live after the original build, is reproduced; the next
    /// `run`/`run_until` continues exactly where the saved run stopped.
    ///
    /// A malformed checkpoint returns an error; the system is then in an
    /// unspecified state and must be restored again or dropped.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.raw(SNAP_MAGIC.len())? != SNAP_MAGIC {
            return Err(SnapError::Magic);
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::Version(version));
        }
        let found = r.u64()?;
        let expected = self.config_digest();
        if found != expected {
            return Err(SnapError::ConfigMismatch { expected, found });
        }
        self.read_state(&mut r)?;
        // Trace-sink accounting: load into the installed sink, or parse
        // into a scratch sink when the restoring run has tracing off (the
        // section still must be consumed to validate the stream end).
        if r.bool()? {
            match &self.trace_sink {
                Some(sink) => sink.borrow_mut().load(&mut r)?,
                None => TraceSink::new(0).load(&mut r)?,
            }
        }
        if r.remaining() != 0 {
            return Err(SnapError::Corrupt("trailing bytes"));
        }
        self.check_restored()
    }

    /// Write the architectural state: the checkpoint's state section and
    /// the input of the state hash.
    fn write_state(&self, w: &mut SnapWriter) {
        // Calendar: current time plus every pending event in exact pop
        // order (far-heap/wheel distinctions are reconstructed on load).
        w.u64(self.cal.now());
        self.cal.pending_in_order().save(w);
        // Shells and their run-time-editable row labels.
        w.usize(self.shells.len());
        self.shells[..].save(w);
        self.row_labels[..].save(w);
        // Memories, transports, and the SRAM allocator.
        self.mem.save(w);
        self.dram.save(w);
        self.system_bus.save(w);
        self.alloc.save(w);
        w.u32(self.dram_next);
        self.sync.save_state(w);
        // Lifecycle records and in-flight sync accounting, in key order.
        self.apps.save(w);
        self.pending_syncs.save(w);
        // Run-loop bookkeeping and accumulators.
        w.bool(self.started);
        w.usize(self.idle_since.len());
        self.idle_since[..].save(w);
        self.utilization[..].save(w);
        self.trace.save(w);
        self.sync_latency.save(w);
        w.u64(self.cpu_next_free);
        w.u64(self.cpu_sync_busy);
        w.u64(self.sync_messages);
        w.u64(self.pi_accesses);
        w.u64(self.pi_next_free);
        w.u64(self.pi_busy_cycles);
        self.fault.save(w);
        self.watchdog_cycles.save(w);
        w.u64(self.last_progress);
        w.bool(self.credit_check);
        self.in_flight.save(w);
        self.credits_lost.save(w);
        // Coprocessor task state, through the trait hooks.
        w.usize(self.coprocs.len());
        for c in &self.coprocs {
            c.save_state(w);
        }
    }

    /// Load the state written by [`EclipseSystem::write_state`]. The
    /// calendar is rebuilt from its events (keys are pure functions of
    /// event content, recomputed here instead of serialized), so its
    /// events are checked first: no past event, no unknown target.
    fn read_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let now = r.u64()?;
        let mut events: Vec<(Cycle, Event)> = Vec::new();
        events.load(r)?;
        let shells = self.shells.len();
        let target_ok = |ev: &Event| match ev {
            Event::Step(s) => *s < shells,
            Event::Sync(m) => {
                (m.src.shell.0 as usize) < shells && (m.dst.shell.0 as usize) < shells
            }
            Event::Sample => true,
        };
        if events.iter().any(|(t, ev)| *t < now || !target_ok(ev)) {
            return Err(SnapError::Corrupt("calendar event"));
        }
        self.cal.restore(
            now,
            events.into_iter().map(|(t, ev)| (t, event_key(&ev), ev)),
        );

        r.expect_len(self.shells.len(), "shell count")?;
        self.shells[..].load(r)?;
        self.row_labels[..].load(r)?;
        self.mem.load(r)?;
        self.dram.load(r)?;
        self.system_bus.load(r)?;
        self.alloc.load(r)?;
        self.dram_next = r.u32()?;
        self.sync.load_state(r)?;
        self.apps.load(r)?;
        self.pending_syncs.load(r)?;
        self.started = r.bool()?;
        r.expect_len(self.idle_since.len(), "shell count (idle)")?;
        self.idle_since[..].load(r)?;
        self.utilization[..].load(r)?;
        self.trace.load(r)?;
        self.sync_latency.load(r)?;
        self.cpu_next_free = r.u64()?;
        self.cpu_sync_busy = r.u64()?;
        self.sync_messages = r.u64()?;
        self.pi_accesses = r.u64()?;
        self.pi_next_free = r.u64()?;
        self.pi_busy_cycles = r.u64()?;
        self.fault.load(r)?;
        self.watchdog_cycles.load(r)?;
        self.last_progress = r.u64()?;
        self.credit_check = r.bool()?;
        self.in_flight.load(r)?;
        self.credits_lost.load(r)?;
        r.expect_len(self.coprocs.len(), "coprocessor count")?;
        self.coprocs.iter_mut().try_for_each(|c| c.load_state(r))
    }

    /// Check every index a restored run would use unchecked: each
    /// component validated itself while loading; what is left are the
    /// references between them.
    fn check_restored(&self) -> Result<(), SnapError> {
        let rows_of = |s: usize| self.shells.get(s).map(|sh| sh.rows().len());
        let tasks_of = |s: usize| self.shells.get(s).map(|sh| sh.tasks().len());
        let sram = self.mem.sram.config().size;
        let dram = self.dram.config().size;
        for (s, shell) in self.shells.iter().enumerate() {
            shell.check_links(|id: ShellId| rows_of(id.0 as usize), sram)?;
            if self.row_labels[s].len() != shell.rows().len() {
                return Err(SnapError::Corrupt("row label count"));
            }
            let coproc = &self.coprocs[s];
            let mut live = shell.tasks().iter().enumerate().filter(|(_, t)| !t.retired);
            if !live.all(|(t, row)| coproc.task_state_fits(TaskIdx(t as u8), row, dram)) {
                return Err(SnapError::Corrupt("coprocessor task state"));
            }
        }
        // A sync to a live row (its generation still current) is
        // delivered, so its source must be one of the row's remotes.
        for (_, ev) in self.cal.pending_in_order() {
            if let Event::Sync(m) = ev {
                let dst = &self.shells[m.dst.shell.0 as usize];
                let Some(row) = dst.rows().get(m.dst.row.0 as usize) else {
                    return Err(SnapError::Corrupt("sync destination row"));
                };
                if (m.src.row.0 as usize) >= rows_of(m.src.shell.0 as usize).unwrap_or(0)
                    || (!row.retired
                        && m.dst_gen == dst.row_generation(m.dst.row)
                        && !row.remotes.contains(&m.src))
                {
                    return Err(SnapError::Corrupt("sync source"));
                }
            }
        }
        for app in self.apps.values() {
            let tasks_ok = app
                .tasks
                .iter()
                .all(|&(s, t)| tasks_of(s).is_some_and(|n| (t.0 as usize) < n));
            let rows_ok = app
                .rows
                .iter()
                .all(|&(s, r)| rows_of(s).is_some_and(|n| (r.0 as usize) < n));
            if !tasks_ok || !rows_ok || app.buffers.iter().any(|b| b.size == 0) {
                return Err(SnapError::Corrupt("application record"));
            }
        }
        for ((s, row), _) in self.pending_syncs.entries_sorted() {
            if row as usize >= rows_of(s).unwrap_or(0) {
                return Err(SnapError::Corrupt("pending sync row"));
            }
        }
        let now = self.cal.now();
        if self.idle_since.iter().flatten().any(|&t| t > now) {
            return Err(SnapError::Corrupt("idle time in the future"));
        }
        if self.credit_check && self.credit_violation().is_some() {
            return Err(SnapError::Corrupt("credit conservation"));
        }
        Ok(())
    }
}
