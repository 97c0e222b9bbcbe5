//! The discrete-event loop: coprocessor steps, `putspace` routing
//! through the sync fabric, sampling, deadlock diagnosis, and the
//! credit-conservation checker.

use std::collections::HashMap;

use eclipse_shell::stream_table::{AccessPoint, PortDir, RowIdx};
use eclipse_shell::task_table::TaskIdx;
use eclipse_shell::{GetTaskResult, ShellId};
use eclipse_sim::trace::{LabelSlot, TraceEventKind};
use eclipse_sim::{Cycle, SyncAction};

use crate::coproc::{StepCtx, StepResult};

use super::wedge::{StreamSpaceView, WedgeDiagnosis, WedgeReason};
use super::{event_key, EclipseSystem, Event, RunOutcome, RunSummary};

impl EclipseSystem {
    /// Schedule `ev` at absolute `time` under its content key (see
    /// [`event_key`]) — the only way the run loop ever inserts events.
    /// The calendar pops in `(time, key, seq)` order, and that committed
    /// order is what the timing fingerprint and checkpoint bytes record.
    #[inline]
    pub(crate) fn schedule_event(&mut self, time: Cycle, ev: Event) {
        self.cal.schedule_keyed_at(time, event_key(&ev), ev);
    }

    /// Schedule the kickoff events (one step per shell, the sampler, and
    /// the RunStart mark) exactly once per system lifetime; resumed runs
    /// continue from the live calendar instead.
    pub(crate) fn kickoff(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let t0 = self.cal.now();
        for s in 0..self.shells.len() {
            self.schedule_event(t0, Event::Step(s));
        }
        self.schedule_event(t0 + self.cfg.sample_interval, Event::Sample);
        if let Some(t) = &self.sys_trace {
            t.emit(t0, TraceEventKind::RunStart);
        }
    }

    /// Process one popped calendar event and check credit conservation
    /// — the one place events are handled (shared by
    /// [`EclipseSystem::run_until`] and the drain pump). Returns true when
    /// the event finished a task, the only way an event can complete the
    /// run.
    pub(crate) fn step_event(&mut self, now: Cycle, ev: Event) -> bool {
        let finished = self.handle_event(now, ev);
        if self.credit_check {
            self.verify_credits(now);
        }
        finished
    }

    fn handle_event(&mut self, now: Cycle, ev: Event) -> bool {
        match ev {
            Event::Step(s) => return self.do_step(s, now),
            Event::Sync(msg) => {
                let dst = msg.dst.shell.0 as usize;
                self.pending_syncs.dec(dst, msg.dst.row.0);
                self.sync_messages += 1;
                let latency = now.saturating_sub(msg.send_at);
                self.sync_latency.record(latency);
                if let Some(t) = &self.sys_trace {
                    t.emit(
                        now,
                        TraceEventKind::SyncDeliver {
                            bytes: msg.bytes,
                            latency,
                        },
                    );
                }
                // The delivery may unblock a task or satisfy a space
                // hint; an idle shell re-evaluates its scheduler on
                // every message (spurious wakeups just re-idle).
                if self.credit_check {
                    let slot = self.in_flight.entry((msg.dst, msg.src)).or_insert(0);
                    *slot = slot.saturating_sub(msg.bytes as u64);
                }
                self.shells[dst].deliver_putspace(&msg, now);
                self.wake(dst, now);
            }
            Event::Sample => {
                self.sample(now);
                if let Some(t) = &self.sys_trace {
                    t.emit(now, TraceEventKind::Sample);
                }
                // Keep sampling while anything can still happen.
                if !self.cal.is_empty() {
                    self.schedule_event(now + self.cfg.sample_interval, Event::Sample);
                }
            }
        }
        false
    }

    /// Advance the simulation until `stop_at` (inclusive), every task
    /// finishing, or deadlock. Returns `None` when the stop time was
    /// reached with events still pending — the caller may reconfigure
    /// (map/pause/drain/unmap apps) and resume with another
    /// `run_until` or a final [`EclipseSystem::run`], which also
    /// produces the summary. The event past the stop boundary is left
    /// in the calendar.
    pub fn run_until(&mut self, stop_at: Cycle) -> Option<RunOutcome> {
        self.kickoff();
        // Map, unmap, retire and restore all happen between calls, so one
        // scan on entry covers them; inside the loop only an event that
        // finished a task can complete the run.
        let mut scan = true;
        loop {
            if scan && self.shells.iter().all(|sh| sh.all_tasks_finished()) {
                return Some(RunOutcome::AllFinished);
            }
            match self.cal.pop_at_most(stop_at) {
                Err(None) => return Some(RunOutcome::Deadlock(self.blocked_tasks())),
                Err(Some(_)) => return None,
                Ok((now, ev)) => {
                    scan = self.step_event(now, ev);
                    if let Some(k) = self.watchdog_cycles {
                        if now.saturating_sub(self.last_progress) > k {
                            return Some(RunOutcome::Deadlock(self.blocked_tasks()));
                        }
                    }
                }
            }
        }
    }

    /// Run until every task finishes, deadlock, or `max_cycles`:
    /// [`EclipseSystem::run_until`]`(max_cycles)` closed out into a
    /// summary. A run stopped by the limit ends at the first event past
    /// it (see [`RunOutcome::MaxCycles`]).
    pub fn run(&mut self, max_cycles: Cycle) -> RunSummary {
        let outcome = self.run_until(max_cycles);
        self.finish_run(outcome)
    }

    /// Assert the credit-conservation invariant on every
    /// producer→consumer link (see [`EclipseSystem::enable_credit_check`]).
    pub(crate) fn verify_credits(&self, now: Cycle) {
        if let Some(violation) = self.credit_violation() {
            panic!("credit conservation violated at cycle {now} on {violation}");
        }
    }

    /// The first producer→consumer link whose views, in-flight and lost
    /// credits do not sum to its buffer capacity, described.
    pub(crate) fn credit_violation(&self) -> Option<String> {
        let get = |map: &HashMap<(AccessPoint, AccessPoint), u64>, a, b| {
            map.get(&(a, b)).copied().unwrap_or(0) as u128
        };
        for (s, shell) in self.shells.iter().enumerate() {
            for (r, row) in shell.rows().iter().enumerate() {
                if row.dir != PortDir::Producer || row.retired {
                    continue;
                }
                let prod = AccessPoint {
                    shell: ShellId(s as u16),
                    row: RowIdx(r as u16),
                };
                let cap = row.buffer.size as u128;
                for (ci, &remote) in row.remotes.iter().enumerate() {
                    let cons = &self.shells[remote.shell.0 as usize].rows()[remote.row.0 as usize];
                    let p_view = row.space_toward(ci) as u128;
                    let c_view = cons.space_toward(0) as u128;
                    let fly =
                        get(&self.in_flight, remote, prod) + get(&self.in_flight, prod, remote);
                    let lost = get(&self.credits_lost, remote, prod)
                        + get(&self.credits_lost, prod, remote);
                    if p_view + c_view + fly + lost != cap {
                        return Some(format!(
                            "{}: producer view {p_view} + consumer view {c_view} + \
                             in-flight {fly} + lost {lost} != capacity {cap}",
                            self.row_labels[s][r]
                        ));
                    }
                }
            }
        }
        None
    }

    pub(crate) fn blocked_tasks(&self) -> Vec<WedgeDiagnosis> {
        let mut out = Vec::new();
        for (s, shell) in self.shells.iter().enumerate() {
            for (ti, t) in shell.tasks().iter().enumerate() {
                if t.retired || t.finished {
                    continue;
                }
                let view = |ri: RowIdx| {
                    let row = &shell.rows()[ri.0 as usize];
                    StreamSpaceView {
                        label: self.row_labels[s][ri.0 as usize].clone(),
                        space: row.effective_space(),
                        capacity: row.buffer.size,
                    }
                };
                let reason = if !t.enabled {
                    // Paused (or admin-disabled) tasks are not deadlock
                    // suspects, but they explain why a drain stalls.
                    WedgeReason::Paused
                } else {
                    match t.blocked_on {
                        // Name the stream and show the local space view so
                        // a deadlock diagnosis pinpoints the starved link.
                        Some((port, n)) => WedgeReason::BlockedOnPort {
                            port,
                            needed: n,
                            stream: t.cfg.ports.get(port as usize).map(|&ri| view(ri)),
                        },
                        // Never denied a GetSpace, but the best-guess
                        // scheduler may be gating the task on an unmet
                        // space hint — diagnose the starved port anyway.
                        None => match t.cfg.ports.iter().zip(&t.cfg.space_hints).enumerate().find(
                            |(_, (&row, &hint))| {
                                hint != 0 && shell.rows()[row.0 as usize].effective_space() < hint
                            },
                        ) {
                            Some((port, (&ri, &hint))) => WedgeReason::HintStarved {
                                port: port as u8,
                                hint,
                                stream: view(ri),
                            },
                            None => WedgeReason::Starved,
                        },
                    }
                };
                out.push(WedgeDiagnosis {
                    shell: s,
                    task: TaskIdx(ti as u8),
                    task_name: t.cfg.name.clone(),
                    reason,
                });
            }
        }
        out
    }

    pub(crate) fn wake(&mut self, s: usize, now: Cycle) {
        if let Some(since) = self.idle_since[s].take() {
            self.utilization[s].idle += now - since;
            self.schedule_event(now, Event::Step(s));
        }
    }

    /// Run one processing step on shell `s`; returns true when the task
    /// finished.
    fn do_step(&mut self, s: usize, now: Cycle) -> bool {
        match self.shells[s].get_task(now) {
            GetTaskResult::Idle => {
                if self.idle_since[s].is_none() {
                    self.idle_since[s] = Some(now);
                }
                false
            }
            GetTaskResult::Run {
                task,
                info,
                switched,
            } => {
                let shell_cfg = self.shells[s].cfg;
                let initial = shell_cfg.gettask_cost
                    + if switched {
                        shell_cfg.task_switch_penalty
                    } else {
                        0
                    };
                let mut ctx = StepCtx::new(
                    &mut self.shells[s],
                    &mut self.mem,
                    &mut self.dram,
                    &mut self.system_bus,
                    &mut self.step_msgs,
                    task,
                    now,
                    initial,
                    self.fault.as_mut(),
                );
                let result = self.coprocs[s].step(task, info, &mut ctx);
                let (cost, stall, put_called) = ctx.finish();
                let mut cost = cost.max(1); // forbid zero-cost livelock
                let mut stall = stall;
                // Injected coprocessor stall: the unit freezes mid-step.
                if let Some(inj) = &mut self.fault {
                    let extra = inj.step_stall(s);
                    if extra > 0 {
                        cost += extra;
                        stall += extra;
                        if let Some(t) = &self.sys_trace {
                            let class = &mut self.sys_labels.stall;
                            t.emit_with(now, |sink| TraceEventKind::Fault {
                                class: class.resolve(sink, "stall"),
                                magnitude: extra,
                            });
                        }
                    }
                }
                if put_called || matches!(result, StepResult::Finished) {
                    self.last_progress = now + cost;
                }
                self.shells[s].charge(task, cost);
                let step_stall = match result {
                    StepResult::Blocked => cost,
                    _ => stall.min(cost),
                };
                self.shells[s].trace_task(now, task, |task| TraceEventKind::Step {
                    task,
                    busy: cost - step_stall,
                    stall: step_stall,
                });
                match result {
                    StepResult::Done => {
                        self.shells[s].note_step(task, false);
                        self.utilization[s].busy += cost - stall;
                        self.utilization[s].stalled += stall;
                    }
                    StepResult::Blocked => {
                        self.shells[s].note_step(task, true);
                        self.utilization[s].stalled += cost;
                    }
                    StepResult::Finished => {
                        self.shells[s].note_step(task, false);
                        self.utilization[s].busy += cost - stall;
                        self.utilization[s].stalled += stall;
                        self.shells[s].finish_task(task);
                    }
                }
                // Dispatch putspace messages through the sync fabric (or
                // the CPU in the E10 baseline, reached over the same
                // network). An active fault injector may drop or delay
                // individual messages. The buffer is taken out and put
                // back so its capacity serves every step.
                let sync_latency = shell_cfg.sync_latency;
                let mut msgs = std::mem::take(&mut self.step_msgs);
                for mut msg in msgs.drain(..) {
                    let mut extra_delay = 0u64;
                    if let Some(inj) = &mut self.fault {
                        // Keyed by the *sender* shell: the dice for a
                        // message come from the lane of the shell it
                        // originates at.
                        match inj.sync_action(msg.src.shell.0 as usize, msg.bytes) {
                            SyncAction::Deliver => {}
                            SyncAction::Delay(d) => {
                                extra_delay = d;
                                if let Some(t) = &self.sys_trace {
                                    let class = &mut self.sys_labels.sync_delay;
                                    t.emit_with(now, |sink| TraceEventKind::Fault {
                                        class: class.resolve(sink, "sync_delay"),
                                        magnitude: d,
                                    });
                                }
                            }
                            SyncAction::Drop => {
                                if let Some(t) = &self.sys_trace {
                                    let class = &mut self.sys_labels.sync_drop;
                                    t.emit_with(now, |sink| TraceEventKind::Fault {
                                        class: class.resolve(sink, "sync_drop"),
                                        magnitude: msg.bytes as u64,
                                    });
                                }
                                if self.credit_check {
                                    *self.credits_lost.entry((msg.dst, msg.src)).or_insert(0) +=
                                        msg.bytes as u64;
                                }
                                continue;
                            }
                        }
                    }
                    let depart = msg.send_at.max(now);
                    // The fabric decides when the message reaches its
                    // destination (with the default direct network:
                    // `depart + sync_latency`, exactly the pre-fabric
                    // model).
                    let arrive =
                        self.sync
                            .route(depart, msg.src.shell, msg.dst.shell, sync_latency)
                            + extra_delay;
                    if self.credit_check {
                        *self.in_flight.entry((msg.dst, msg.src)).or_insert(0) += msg.bytes as u64;
                    }
                    // Stamp the destination row's current generation so the
                    // receiver can reject the message if the row is retired
                    // and recycled while this sync is in flight. The sender
                    // can't know this (hardware shells don't either) — the
                    // sync network stamps at injection time.
                    msg.dst_gen = self.shells[msg.dst.shell.0 as usize].row_generation(msg.dst.row);
                    self.pending_syncs
                        .add(msg.dst.shell.0 as usize, msg.dst.row.0, 1);
                    self.schedule_event(arrive, Event::Sync(msg));
                }
                self.step_msgs = msgs;
                self.schedule_event(now + cost, Event::Step(s));
                matches!(result, StepResult::Finished)
            }
        }
    }

    pub(crate) fn sample(&mut self, now: Cycle) {
        let mut plan = match self.sample_plan.take() {
            Some(plan) => plan,
            None => self.plan_samples(),
        };
        let trace = &mut self.trace;
        for (s, shell) in self.shells.iter().enumerate() {
            let series = &mut plan.shells[s];
            for &mut (r, i, ref mut track) in &mut series.space {
                // Only consumer-side rows report "available data" (the
                // paper's Figure 10 quantity); producer rows report room.
                let space = shell.rows()[r].effective_space();
                trace.record_at(i, now, space as f64);
                // Mirror the fill level onto the structured trace spine as
                // a Chrome counter track (ph:"C"), so chaos runs visualize
                // backpressure building up behind injected faults.
                if let Some(t) = &self.sys_trace {
                    let name = &trace.series[i].name;
                    t.emit_with(now, |sink| TraceEventKind::Counter {
                        track: track.resolve(sink, name),
                        value: space as u64,
                    });
                }
            }
            let u = &self.utilization[s];
            trace.record_at(series.busy, now, u.busy as f64);
            trace.record_at(series.stall, now, u.stalled as f64);
            // Per-task views (paper Figure 9's "stall time of tasks"):
            // cumulative busy cycles and GetSpace denials per task.
            for &(t, busy, denied) in &series.tasks {
                let stats = &shell.tasks()[t].stats;
                trace.record_at(busy, now, stats.busy_cycles as f64);
                trace.record_at(denied, now, stats.denials as f64);
            }
        }
        self.sample_plan = Some(plan);
        // Sync-network counter tracks (hops and link waits on the
        // ring/mesh networks). Structured trace only: checkpoints and the
        // state hash record every `TraceLog` series, so a new series would
        // change them, while the sink is observational.
        if let Some(t) = &self.sys_trace {
            let s = self.sync.stats();
            let tracks = [
                ("sync/messages", s.messages),
                ("sync/hops", s.hops),
                ("sync/wait_cycles", s.wait_cycles),
            ];
            for ((name, value), track) in tracks.into_iter().zip(&mut self.sys_labels.sync) {
                t.emit_with(now, |sink| TraceEventKind::Counter {
                    track: track.resolve(sink, name),
                    value,
                });
            }
        }
    }

    /// Resolve the series of every live row and task, creating missing
    /// ones in the order sampling has always created them.
    fn plan_samples(&mut self) -> SamplePlan {
        use std::fmt::Write as _;
        let mut name = String::with_capacity(48);
        let mut index = |args: std::fmt::Arguments<'_>| {
            name.clear();
            let _ = name.write_fmt(args);
            self.trace.index_of(&name)
        };
        let mut shells = Vec::with_capacity(self.shells.len());
        for (s, shell) in self.shells.iter().enumerate() {
            let space = (shell.rows().iter().enumerate())
                .filter(|(_, row)| !row.retired)
                .map(|(r, _)| {
                    let series = index(format_args!("space/{}", self.row_labels[s][r]));
                    (r, series, LabelSlot::default())
                })
                .collect();
            let busy = index(format_args!("busy/{}", self.shell_names[s]));
            let stall = index(format_args!("stall/{}", self.shell_names[s]));
            let tasks = (shell.tasks().iter().enumerate())
                .filter(|(_, t)| !t.retired)
                .map(|(i, t)| {
                    let busy = index(format_args!("taskbusy/{}", t.cfg.name));
                    (i, busy, index(format_args!("taskdenied/{}", t.cfg.name)))
                })
                .collect();
            shells.push(ShellSeries {
                space,
                busy,
                stall,
                tasks,
            });
        }
        SamplePlan { shells }
    }
}

/// The label ids of the system's fixed trace names, each interned on
/// first use; reset when a sink is attached.
#[derive(Default)]
pub(crate) struct SysLabels {
    stall: LabelSlot,
    sync_delay: LabelSlot,
    sync_drop: LabelSlot,
    /// `sync/messages`, `sync/hops` and `sync/wait_cycles`.
    sync: [LabelSlot; 3],
}

/// The `TraceLog` series indices one sample tick appends to (see
/// [`EclipseSystem::sample`]), with the label of each series mirrored
/// onto the event trace.
pub(crate) struct SamplePlan {
    shells: Vec<ShellSeries>,
}

/// One shell's sampled series.
struct ShellSeries {
    /// `(row, series, counter track)` of each live row's `space/…`
    /// series.
    space: Vec<(usize, usize, LabelSlot)>,
    /// `busy/…` series.
    busy: usize,
    /// `stall/…` series.
    stall: usize,
    /// `(task, taskbusy/…, taskdenied/…)` of each live task.
    tasks: Vec<(usize, usize, usize)>,
}
