//! The task table and the weighted round-robin "best guess" scheduler.
//!
//! Paper Section 5.3: task scheduling runs at 10–100 kHz, far too fast for
//! software, so each shell embeds a hardware scheduler. It is a weighted
//! round-robin: each task has a *budget* — a guaranteed minimum number of
//! cycles it may continuously execute once selected (typically 1 000 to
//! 10 000 cycles) — and selection uses a "best guess" of runnability from
//! locally available information: the stream-table space values and
//! previously denied GetSpace requests.

use eclipse_sim::snapshot::SnapError;
use eclipse_sim::trace::LabelSlot;
use eclipse_sim::Cycle;

use crate::stream_table::RowIdx;
use crate::PortId;

/// Index of a task row within one shell's task table (the `task_id` the
/// coprocessor receives from `GetTask`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskIdx(pub u8);

eclipse_sim::snap_fields!(TaskIdx { 0 });

/// Configuration of one task-table row.
#[derive(Debug, Clone, Default)]
pub struct TaskConfig {
    /// Human-readable name for reporting.
    pub name: String,
    /// Cycle budget: guaranteed minimum contiguous execution once
    /// selected.
    pub budget: u64,
    /// Function-parameter word handed to the coprocessor via `GetTask`.
    pub task_info: u32,
    /// Stream-table rows backing this task's ports, indexed by `port_id`.
    pub ports: Vec<RowIdx>,
    /// Per-port eligibility hints: the scheduler's best guess considers a
    /// task runnable only if every port has at least this much space
    /// (data or room). Zero disables the hint for that port. Typically
    /// set to the task's packet size.
    pub space_hints: Vec<u32>,
}

/// Measurement fields of a task row (paper Section 5.4).
#[derive(Debug, Clone, Default)]
pub struct TaskStats {
    /// Completed processing steps.
    pub steps: u64,
    /// Processing steps aborted on a denied GetSpace.
    pub aborted_steps: u64,
    /// Cycles spent executing this task.
    pub busy_cycles: Cycle,
    /// Times this task was selected when another task ran before it
    /// (task switches into this task).
    pub switches_in: u64,
    /// GetSpace denials charged to this task.
    pub denials: u64,
}

/// One task-table row. A checkpoint carries the full row —
/// configuration and dynamic state — so a restore can recreate tasks that
/// were mapped at run time.
#[derive(Debug, Clone, Default)]
pub struct TaskRow {
    /// Static configuration.
    pub cfg: TaskConfig,
    /// Enabled by the CPU (over the PI bus).
    pub enabled: bool,
    /// The task is blocked on a denied GetSpace: (port, requested bytes).
    /// Cleared when an incoming `putspace` raises that port's space to
    /// the requested amount. This is the "previously denied data access"
    /// input to the best-guess scheduler.
    pub blocked_on: Option<(PortId, u32)>,
    /// The task has voluntarily finished (end of stream reached); it will
    /// never be selected again.
    pub finished: bool,
    /// The row has been retired by run-time unmapping; the slot is free
    /// for recycling and the scheduler never selects it. Unlike a merely
    /// disabled (paused) task, a retired task counts as terminated for
    /// run-completion purposes.
    pub retired: bool,
    /// Measurement fields.
    pub stats: TaskStats,
    /// Trace label of `cfg.name`, resolved on the first traced event.
    /// Not state: a new or loaded row starts unresolved.
    pub(crate) label: LabelSlot,
}

impl TaskRow {
    /// Build an enabled row.
    pub fn new(cfg: TaskConfig) -> Self {
        assert_eq!(
            cfg.ports.len(),
            cfg.space_hints.len(),
            "one space hint per port"
        );
        TaskRow {
            cfg,
            enabled: true,
            blocked_on: None,
            finished: false,
            retired: false,
            stats: TaskStats::default(),
            label: LabelSlot::default(),
        }
    }

    /// Reject a loaded row whose hints or blocked port do not match its
    /// ports.
    fn check(&mut self) -> Result<(), SnapError> {
        let ports = self.cfg.ports.len();
        let blocked_ok = self
            .blocked_on
            .is_none_or(|(port, _)| (port as usize) < ports);
        if self.cfg.space_hints.len() != ports || !blocked_ok {
            return Err(SnapError::Corrupt("task row"));
        }
        Ok(())
    }
}

eclipse_sim::snap_fields!(TaskConfig {
    name,
    budget,
    task_info,
    ports,
    space_hints
});
eclipse_sim::snap_fields!(TaskRow {
    cfg,
    enabled,
    blocked_on,
    finished,
    retired,
    stats,
} then TaskRow::check);
eclipse_sim::snap_fields!(TaskStats {
    steps,
    aborted_steps,
    busy_cycles,
    switches_in,
    denials
});
eclipse_sim::snap_fields!(SchedState {
    current,
    budget_left,
    cursor,
    switches,
    decisions
});

/// Scheduler state (per shell).
#[derive(Debug, Clone, Default)]
pub struct SchedState {
    /// Currently selected task.
    pub current: Option<TaskIdx>,
    /// Remaining budget of the current task.
    pub budget_left: u64,
    /// Round-robin cursor: next row to consider.
    pub cursor: usize,
    /// Total task switches performed.
    pub switches: u64,
    /// Total GetTask decisions taken.
    pub decisions: u64,
}

/// The scheduling decision returned to the coprocessor via `GetTask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Run this task (with its `task_info`); `switched` tells whether this
    /// is a task switch (incurring the coprocessor's state-restore cost).
    Run {
        /// Selected task.
        task: TaskIdx,
        /// Its `task_info` word.
        info: u32,
        /// True if different from the previously running task.
        switched: bool,
    },
    /// No task is runnable; the coprocessor idles until a `putspace`
    /// message arrives.
    Idle,
}

/// The weighted round-robin selection over a task table.
///
/// `runnable` decides the best-guess eligibility of a row (the shell
/// closes over its stream table to compare space values against hints).
pub fn select(
    sched: &mut SchedState,
    tasks: &[TaskRow],
    mut runnable: impl FnMut(&TaskRow) -> bool,
) -> Choice {
    sched.decisions += 1;
    let mut eligible = |t: &TaskRow| t.enabled && !t.finished && !t.retired && runnable(t);

    // Keep the current task while it has budget and remains eligible
    // (budgets guarantee *minimum* contiguous execution; a task may run
    // longer if nothing else is eligible, which the cursor scan below
    // naturally provides by re-selecting it).
    if let Some(cur) = sched.current {
        if sched.budget_left > 0 && eligible(&tasks[cur.0 as usize]) {
            return Choice::Run {
                task: cur,
                info: tasks[cur.0 as usize].cfg.task_info,
                switched: false,
            };
        }
    }
    // Round-robin scan for the next eligible task. The cursor is at most
    // `n` (a restore checks it), so one subtraction wraps every index.
    let n = tasks.len();
    for i in 0..n {
        let mut idx = sched.cursor + i;
        if idx >= n {
            idx -= n;
        }
        if eligible(&tasks[idx]) {
            let task = TaskIdx(idx as u8);
            let switched = sched.current != Some(task);
            sched.cursor = if idx + 1 == n { 0 } else { idx + 1 };
            sched.budget_left = tasks[idx].cfg.budget;
            if switched {
                sched.switches += 1;
            }
            sched.current = Some(task);
            return Choice::Run {
                task,
                info: tasks[idx].cfg.task_info,
                switched,
            };
        }
    }
    sched.current = None;
    sched.budget_left = 0;
    Choice::Idle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, budget: u64) -> TaskRow {
        TaskRow::new(TaskConfig {
            name: name.into(),
            budget,
            task_info: 0,
            ports: vec![],
            space_hints: vec![],
        })
    }

    #[test]
    fn single_task_keeps_running() {
        let tasks = vec![row("a", 100)];
        let mut s = SchedState::default();
        let c1 = select(&mut s, &tasks, |_| true);
        assert_eq!(
            c1,
            Choice::Run {
                task: TaskIdx(0),
                info: 0,
                switched: true
            }
        );
        s.budget_left -= 50;
        let c2 = select(&mut s, &tasks, |_| true);
        assert_eq!(
            c2,
            Choice::Run {
                task: TaskIdx(0),
                info: 0,
                switched: false
            }
        );
        assert_eq!(s.switches, 1);
    }

    #[test]
    fn round_robin_alternates_on_budget_expiry() {
        let tasks = vec![row("a", 10), row("b", 10)];
        let mut s = SchedState::default();
        let mut order = Vec::new();
        for _ in 0..6 {
            match select(&mut s, &tasks, |_| true) {
                Choice::Run { task, .. } => {
                    order.push(task.0);
                    s.budget_left = 0; // burn the whole budget each step
                }
                Choice::Idle => panic!("should not idle"),
            }
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(s.switches, 6);
    }

    #[test]
    fn budget_shields_current_task_from_preemption() {
        let tasks = vec![row("a", 100), row("b", 100)];
        let mut s = SchedState::default();
        select(&mut s, &tasks, |_| true); // a selected
        s.budget_left -= 30;
        // b is eligible, but a still has budget.
        match select(&mut s, &tasks, |_| true) {
            Choice::Run { task, switched, .. } => {
                assert_eq!(task, TaskIdx(0));
                assert!(!switched);
            }
            Choice::Idle => panic!(),
        }
    }

    #[test]
    fn blocked_task_is_skipped() {
        let mut tasks = vec![row("a", 10), row("b", 10)];
        tasks[0].blocked_on = Some((0, 64));
        let mut s = SchedState::default();
        match select(&mut s, &tasks, |t| t.blocked_on.is_none()) {
            Choice::Run { task, .. } => assert_eq!(task, TaskIdx(1)),
            Choice::Idle => panic!(),
        }
    }

    #[test]
    fn all_blocked_means_idle() {
        let tasks = vec![row("a", 10), row("b", 10)];
        let mut s = SchedState::default();
        assert_eq!(select(&mut s, &tasks, |_| false), Choice::Idle);
        assert_eq!(s.current, None);
    }

    #[test]
    fn disabled_and_finished_tasks_never_run() {
        let mut tasks = vec![row("a", 10), row("b", 10), row("c", 10)];
        tasks[0].enabled = false;
        tasks[1].finished = true;
        let mut s = SchedState::default();
        match select(&mut s, &tasks, |_| true) {
            Choice::Run { task, .. } => assert_eq!(task, TaskIdx(2)),
            Choice::Idle => panic!(),
        }
    }

    #[test]
    fn current_task_losing_eligibility_forces_switch() {
        let tasks = vec![row("a", 1000), row("b", 1000)];
        let mut s = SchedState::default();
        select(&mut s, &tasks, |_| true); // a runs
                                          // a becomes blocked mid-budget; b must take over.
        match select(&mut s, &tasks, |t| t.cfg.name == "b") {
            Choice::Run { task, switched, .. } => {
                assert_eq!(task, TaskIdx(1));
                assert!(switched);
            }
            Choice::Idle => panic!(),
        }
    }

    /// Fairness: over many decisions with all tasks eligible, every task
    /// gets selected a similar number of times.
    #[test]
    fn no_starvation_under_contention() {
        let tasks: Vec<TaskRow> = (0..4).map(|i| row(&format!("t{i}"), 5)).collect();
        let mut s = SchedState::default();
        let mut counts = [0u32; 4];
        for _ in 0..400 {
            match select(&mut s, &tasks, |_| true) {
                Choice::Run { task, .. } => {
                    counts[task.0 as usize] += 1;
                    s.budget_left = 0;
                }
                Choice::Idle => panic!(),
            }
        }
        for &c in &counts {
            assert_eq!(c, 100, "round robin must be exactly fair here: {counts:?}");
        }
    }
}
