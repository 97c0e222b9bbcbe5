//! Run-time reconfiguration (paper Section 3): live admission, pause/
//! resume, drain, and unmap of application graphs, with the CPU's PI-bus
//! configuration traffic modeled instead of free.
//!
//! Configuration cost model: every shell-table write (stream-row setup,
//! task setup, enable/disable, retire) is one PI register access of
//! [`crate::config::EclipseConfig::pi_access_cycles`] cycles, serialized
//! on the single PI bus. Newly mapped or resumed tasks only become
//! schedulable once their configuration writes have landed.

use std::collections::HashMap;

use eclipse_kpn::graph::AppGraph;
use eclipse_mem::CyclicBuffer;
use eclipse_shell::stream_table::RowIdx;
use eclipse_shell::task_table::TaskIdx;
use eclipse_sim::trace::TraceEventKind;

use crate::mapping::{plan_rows, AppHandles, MapError};

use super::wiring::{install_plan, resolve_assignments};
use super::EclipseSystem;

/// PI register writes to program one stream-table row (buffer base,
/// size, remote access point, initial space).
const ROW_CFG_WRITES: u64 = 4;
/// PI register writes to program one task-table entry (task info,
/// budget, space hints, enable).
const TASK_CFG_WRITES: u64 = 4;

/// Lifecycle state of a mapped application (run-time reconfiguration).
///
/// `Running -> Paused -> Running` via [`EclipseSystem::pause_app`] /
/// [`EclipseSystem::resume_app`]; `Running|Paused -> Drained` via
/// [`EclipseSystem::drain_app`]; a `Drained` app can be reclaimed with
/// [`EclipseSystem::unmap_app`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AppState {
    /// Tasks enabled and schedulable.
    #[default]
    Running,
    /// Tasks disabled (preempted) but tables, buffers, and in-flight
    /// state intact; resumable.
    Paused,
    /// Tasks disabled and every in-flight `putspace` addressed to the
    /// app's rows delivered; safe to unmap.
    Drained,
}

/// Book-keeping for one mapped application.
#[derive(Debug, Default)]
pub(crate) struct AppRecord {
    pub(crate) state: AppState,
    /// (shell index, task slot) of every task.
    pub(crate) tasks: Vec<(usize, TaskIdx)>,
    /// (shell index, stream row) of every access point.
    pub(crate) rows: Vec<(usize, RowIdx)>,
    /// The app's stream buffers in SRAM.
    pub(crate) buffers: Vec<CyclicBuffer>,
}

/// Errors from run-time reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// The graph could not be placed (assignment or SRAM exhaustion);
    /// already-allocated buffers are rolled back.
    Map(MapError),
    /// A shell's task table has no room for the app's tasks.
    TaskSlotsExhausted {
        /// The shell that ran out of slots.
        shell: String,
        /// Task slots the app needs on that shell.
        needed: usize,
        /// Task slots available there.
        available: usize,
    },
    /// No mapped application with this name.
    UnknownApp(String),
    /// An application with this name is already mapped.
    AlreadyMapped(String),
    /// `unmap_app` requires a prior successful `drain_app`.
    NotDrained(String),
    /// The operation is invalid for the app's current lifecycle state.
    InvalidState {
        /// The application.
        app: String,
        /// Its current state.
        state: AppState,
        /// The rejected operation.
        op: &'static str,
    },
    /// The drain's in-flight syncs did not quiesce within `max_wait`.
    DrainTimeout {
        /// The application.
        app: String,
        /// Cycles waited before giving up.
        waited: u64,
        /// Syncs still in flight toward the app's rows.
        pending: u32,
    },
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::Map(e) => write!(f, "cannot map application: {e}"),
            ReconfigError::TaskSlotsExhausted {
                shell,
                needed,
                available,
            } => write!(
                f,
                "shell '{shell}' task table exhausted: app needs {needed} slots, {available} available"
            ),
            ReconfigError::UnknownApp(name) => write!(f, "no mapped application '{name}'"),
            ReconfigError::AlreadyMapped(name) => {
                write!(f, "application '{name}' is already mapped")
            }
            ReconfigError::NotDrained(name) => {
                write!(f, "application '{name}' must be drained before unmapping")
            }
            ReconfigError::InvalidState { app, state, op } => {
                write!(f, "cannot {op} application '{app}' in state {state:?}")
            }
            ReconfigError::DrainTimeout {
                app,
                waited,
                pending,
            } => write!(
                f,
                "draining '{app}' timed out after {waited} cycles with {pending} syncs in flight"
            ),
        }
    }
}

impl std::error::Error for ReconfigError {}

impl From<MapError> for ReconfigError {
    fn from(e: MapError) -> Self {
        ReconfigError::Map(e)
    }
}

/// What a completed [`EclipseSystem::drain_app`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Cycles of simulated time the quiesce waited for in-flight syncs
    /// (0 when the app was already quiescent).
    pub wait_cycles: u64,
    /// PI-bus cycles spent on the task-disable writes that initiated the
    /// drain (0 when the app was already drained).
    pub config_cycles: u64,
}

impl EclipseSystem {
    /// Admit an application graph into the *live* system (run-time
    /// reconfiguration, paper Section 3): tasks go to the first
    /// coprocessor supporting their function. See
    /// [`EclipseSystem::map_app_live_with`].
    pub fn map_app_live(&mut self, graph: &AppGraph) -> Result<AppHandles, ReconfigError> {
        self.map_app_live_with(graph, &HashMap::new())
    }

    /// Admit an application graph into the live system with explicit
    /// task→coprocessor assignments. Admission is all-or-nothing: task
    /// slots and SRAM are checked/claimed first, and a failure rolls
    /// back every buffer already carved, leaving the system exactly as
    /// it was. Retired stream rows and task slots from earlier
    /// [`EclipseSystem::unmap_app`] calls are recycled. The CPU's
    /// table-configuration writes serialize over the PI bus; the new
    /// tasks become schedulable when the last write lands.
    pub fn map_app_live_with(
        &mut self,
        graph: &AppGraph,
        assignments: &HashMap<String, usize>,
    ) -> Result<AppHandles, ReconfigError> {
        if self.apps.contains_key(&graph.name) {
            return Err(ReconfigError::AlreadyMapped(graph.name.clone()));
        }
        let topo = self.mem.fabric.topology();
        let assign = resolve_assignments(
            self.placement.as_ref(),
            &self.coprocs,
            &self.shells,
            topo,
            graph,
            assignments,
        )?;

        // Admission control: every shell must have task-table headroom
        // for the tasks placed on it.
        let mut needed = vec![0usize; self.shells.len()];
        for &s in &assign {
            needed[s] += 1;
        }
        for (s, &n) in needed.iter().enumerate() {
            let available = self.shells[s].free_task_slots();
            if n > available {
                return Err(ReconfigError::TaskSlotsExhausted {
                    shell: self.shell_names[s].clone(),
                    needed: n,
                    available,
                });
            }
        }

        // Predict the row slot every access point will land in: replay
        // each shell's retired-slot free list, then append positions.
        let mut sim_free: Vec<Vec<RowIdx>> = self
            .shells
            .iter()
            .map(|sh| sh.free_rows().to_vec())
            .collect();
        let mut sim_len: Vec<u16> = self
            .shells
            .iter()
            .map(|sh| sh.rows().len() as u16)
            .collect();
        // Carve the stream buffers, remembering them for rollback.
        let mut allocated: Vec<CyclicBuffer> = Vec::new();
        let alloc = &mut self.alloc;
        let placement = self.placement.as_ref();
        let plan = plan_rows(
            graph,
            &assign,
            self.shells.len(),
            |s| {
                if sim_free[s].is_empty() {
                    let r = RowIdx(sim_len[s]);
                    sim_len[s] += 1;
                    r
                } else {
                    sim_free[s].remove(0)
                }
            },
            |i, size| {
                let b = alloc.alloc(size, placement.buffer_align(i, &topo))?;
                allocated.push(b);
                Ok(b)
            },
        );
        let plan = match plan {
            Ok(p) => p,
            Err(e) => {
                // All-or-nothing: return the partial SRAM claim.
                for b in allocated {
                    self.alloc.free(b);
                }
                return Err(ReconfigError::Map(e));
            }
        };

        let (handles, rows, tasks) = install_plan(
            &mut self.shells,
            &mut self.row_labels,
            &mut self.coprocs,
            self.cfg.default_budget,
            graph,
            &plan,
        );
        let sram_bytes: u32 = plan.buffers.iter().map(|b| b.size).sum();
        let now = self.cal.now();
        if let Some(t) = &self.sys_trace {
            t.emit_with(now, |sink| TraceEventKind::AppMapped {
                app: sink.intern(&graph.name),
                sram_bytes,
                tasks: tasks.len() as u32,
            });
        }
        // The CPU programs the new rows and tasks over the PI bus; the
        // app only starts once its configuration has landed.
        let config_done = self
            .charge_pi(rows.len() as u64 * ROW_CFG_WRITES + tasks.len() as u64 * TASK_CFG_WRITES);
        // Idle shells have no pending Step event to discover the new
        // work — wake every shell that received a task.
        let mut touched: Vec<usize> = tasks.iter().map(|&(s, _)| s).collect();
        touched.sort_unstable();
        touched.dedup();
        for s in touched {
            self.wake(s, config_done);
        }
        self.apps.insert(
            graph.name.clone(),
            AppRecord {
                state: AppState::Running,
                tasks,
                rows,
                buffers: plan.buffers.clone(),
            },
        );
        Ok(handles)
    }

    /// Disable (preempt) every task of a mapped application. Tables,
    /// buffers, and in-flight syncs stay intact; resume with
    /// [`EclipseSystem::resume_app`].
    pub fn pause_app(&mut self, name: &str) -> Result<(), ReconfigError> {
        let (state, tasks) = {
            let rec = self
                .apps
                .get(name)
                .ok_or_else(|| ReconfigError::UnknownApp(name.to_string()))?;
            (rec.state, rec.tasks.clone())
        };
        if state == AppState::Drained {
            return Err(ReconfigError::InvalidState {
                app: name.to_string(),
                state,
                op: "pause",
            });
        }
        self.charge_pi(tasks.len() as u64);
        for (s, t) in tasks {
            self.shells[s].set_task_enabled(t, false);
        }
        self.apps.get_mut(name).expect("checked above").state = AppState::Paused;
        if let Some(tr) = &self.sys_trace {
            tr.emit_with(self.cal.now(), |sink| TraceEventKind::AppPaused {
                app: sink.intern(name),
            });
        }
        Ok(())
    }

    /// Re-enable a paused application's tasks. A `Running` app is a
    /// no-op; a `Drained` app cannot be resumed (its quiesce is a
    /// one-way gate toward [`EclipseSystem::unmap_app`]).
    pub fn resume_app(&mut self, name: &str) -> Result<(), ReconfigError> {
        let (state, tasks) = {
            let rec = self
                .apps
                .get(name)
                .ok_or_else(|| ReconfigError::UnknownApp(name.to_string()))?;
            (rec.state, rec.tasks.clone())
        };
        match state {
            AppState::Running => return Ok(()),
            AppState::Drained => {
                return Err(ReconfigError::InvalidState {
                    app: name.to_string(),
                    state,
                    op: "resume",
                })
            }
            AppState::Paused => {}
        }
        let config_done = self.charge_pi(tasks.len() as u64);
        let mut touched = Vec::new();
        for (s, t) in tasks {
            self.shells[s].set_task_enabled(t, true);
            touched.push(s);
        }
        touched.sort_unstable();
        touched.dedup();
        for s in touched {
            self.wake(s, config_done);
        }
        self.apps.get_mut(name).expect("checked above").state = AppState::Running;
        if let Some(tr) = &self.sys_trace {
            tr.emit_with(self.cal.now(), |sink| TraceEventKind::AppResumed {
                app: sink.intern(name),
            });
        }
        Ok(())
    }

    /// Quiesce a mapped application: disable its tasks, then pump the
    /// event loop until every in-flight `putspace` addressed to the
    /// app's rows has been delivered (other applications keep making
    /// progress meanwhile). After a successful drain the app's rows can
    /// receive no further syncs and [`EclipseSystem::unmap_app`] is
    /// safe. Gives up after `max_wait` simulated cycles.
    pub fn drain_app(&mut self, name: &str, max_wait: u64) -> Result<DrainReport, ReconfigError> {
        let (state, tasks, rows) = {
            let rec = self
                .apps
                .get(name)
                .ok_or_else(|| ReconfigError::UnknownApp(name.to_string()))?;
            (rec.state, rec.tasks.clone(), rec.rows.clone())
        };
        if state == AppState::Drained {
            return Ok(DrainReport {
                wait_cycles: 0,
                config_cycles: 0,
            });
        }
        let pi_before = self.pi_busy_cycles();
        self.charge_pi(tasks.len() as u64);
        let config_cycles = self.pi_busy_cycles() - pi_before;
        for (s, t) in tasks {
            self.shells[s].set_task_enabled(t, false);
        }
        let start = self.cal.now();
        let deadline = start.saturating_add(max_wait);
        loop {
            let pending: u32 = rows
                .iter()
                .map(|&(s, r)| self.pending_syncs.get(s, r.0))
                .sum();
            if pending == 0 {
                break;
            }
            match self.cal.pop_at_most(deadline) {
                Ok((now, ev)) => {
                    // A task that finishes here is seen by the next
                    // `run_until`, which scans on entry.
                    self.step_event(now, ev);
                }
                // No events left, or the next one is past the deadline:
                // the in-flight syncs cannot quiesce in time.
                Err(_) => {
                    return Err(ReconfigError::DrainTimeout {
                        app: name.to_string(),
                        waited: self.cal.now().saturating_sub(start),
                        pending,
                    });
                }
            }
        }
        let waited = self.cal.now().saturating_sub(start);
        self.apps.get_mut(name).expect("checked above").state = AppState::Drained;
        if let Some(tr) = &self.sys_trace {
            tr.emit_with(self.cal.now(), |sink| TraceEventKind::AppDrained {
                app: sink.intern(name),
                wait_cycles: waited,
            });
        }
        Ok(DrainReport {
            wait_cycles: waited,
            config_cycles,
        })
    }

    /// Reclaim a drained application: retire its task slots and stream
    /// rows (bumping each row's generation so any straggler sync is
    /// rejected) and return its SRAM buffers to the allocator. The
    /// freed slots and bytes are available to the next
    /// [`EclipseSystem::map_app_live`], and the app's scheduler budget
    /// is redistributed pro-rata to the surviving tasks on each shell it
    /// ran on (weighted round-robin re-normalization).
    pub fn unmap_app(&mut self, name: &str) -> Result<(), ReconfigError> {
        match self.apps.get(name) {
            None => return Err(ReconfigError::UnknownApp(name.to_string())),
            Some(rec) if rec.state != AppState::Drained => {
                return Err(ReconfigError::NotDrained(name.to_string()))
            }
            Some(_) => {}
        }
        let rec = self.apps.remove(name).expect("checked above");
        self.charge_pi(rec.tasks.len() as u64 + rec.rows.len() as u64);
        // Per-shell budget the departing app gives back.
        let mut freed: HashMap<usize, u64> = HashMap::new();
        for &(s, t) in &rec.tasks {
            *freed.entry(s).or_insert(0) += self.shells[s].tasks()[t.0 as usize].cfg.budget;
        }
        for (s, t) in rec.tasks {
            self.shells[s].retire_task(t);
        }
        for (s, r) in rec.rows {
            self.shells[s].retire_stream_row(r);
        }
        self.rebalance_budgets(&freed);
        let sram_bytes: u32 = rec.buffers.iter().map(|b| b.size).sum();
        for b in rec.buffers {
            self.alloc.free(b);
        }
        if let Some(tr) = &self.sys_trace {
            tr.emit_with(self.cal.now(), |sink| TraceEventKind::AppUnmapped {
                app: sink.intern(name),
                sram_bytes,
            });
        }
        Ok(())
    }

    /// Weighted-RR re-normalization after an unmap: each shell's freed
    /// budget is shared among its surviving unfinished tasks, pro-rata
    /// to their current budgets (integer shares; remainders are simply
    /// not handed out). A shell with no survivors keeps nothing — the
    /// budget evaporates with the app.
    fn rebalance_budgets(&mut self, freed: &HashMap<usize, u64>) {
        for (&s, &freed_budget) in freed {
            if freed_budget == 0 {
                continue;
            }
            let shell = &mut self.shells[s];
            let survivors: Vec<(TaskIdx, u64)> = shell
                .tasks()
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.retired && !t.finished)
                .map(|(i, t)| (TaskIdx(i as u8), t.cfg.budget))
                .collect();
            let total: u64 = survivors.iter().map(|&(_, b)| b).sum();
            if total == 0 {
                continue;
            }
            for (t, budget) in survivors {
                let bonus = budget * freed_budget / total;
                shell.set_task_budget(t, budget + bonus);
            }
        }
    }
}
