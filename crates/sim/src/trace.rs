//! Structured event tracing: a ring-buffer sink shared by the shells,
//! buses, and the run loop, with Chrome-`trace_event` and CSV exporters.
//!
//! The time-series measurements of the paper's Section 5.4 (sampled
//! counters, see `eclipse-core`'s `TraceLog`) answer *how much*; the event
//! trace answers *why* — which task a scheduler slot went to, which
//! `GetSpace` was denied against which hint, when a `putspace` message was
//! held back by a flush, and how long each bus grant waited on
//! arbitration.
//!
//! Design constraints:
//!
//! * **Near-zero cost when disabled.** Every producer holds a
//!   [`TraceHandle`]; an instrumented component without one pays a single
//!   `Option` check per hook, and one with a disabled sink pays one
//!   `bool` load. No allocation, no formatting.
//! * **No effect on simulated time.** Emitting is purely observational —
//!   enabling tracing must not change a single cycle of a run (a tier-1
//!   test asserts summary equality with tracing on and off).
//! * **Bounded memory.** The sink is a ring: when full, the oldest event
//!   is dropped and counted, never reallocated.
//! * **Deterministic output.** Events carry only simulated time and
//!   interned labels, so two identical runs export byte-identical traces.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::Cycle;

/// Interned-string id; resolves through [`TraceSink::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// Chrome-export `tid` base for per-task tracks: task `t` renders on
/// `TASK_TID_OFFSET + t.0`, well clear of the per-unit tids (raw label
/// ids, which number in the dozens).
pub const TASK_TID_OFFSET: u32 = 1 << 20;

/// What happened. Fixed-size payloads only — names are interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// `GetTask` selected a task (`switched` = a task switch penalty was
    /// paid).
    TaskSelected {
        /// Selected task's name.
        task: LabelId,
        /// True when the selection switched away from another task.
        switched: bool,
    },
    /// `GetTask` found nothing runnable; the coprocessor goes idle.
    TaskIdle,
    /// `GetSpace` granted. `space` is the locally known space *before* the
    /// call and `hint` the scheduler's best-guess space hint for the port.
    SpaceGranted {
        /// Port index within the calling task.
        port: u32,
        /// Requested bytes.
        bytes: u32,
        /// Locally known space before the call.
        space: u32,
        /// The port's best-guess scheduler hint.
        hint: u32,
    },
    /// `GetSpace` denied; fields as in
    /// [`TraceEventKind::SpaceGranted`]. The task blocks.
    SpaceDenied {
        /// Port index within the calling task.
        port: u32,
        /// Requested bytes.
        bytes: u32,
        /// Locally known space before the call.
        space: u32,
        /// The port's best-guess scheduler hint.
        hint: u32,
    },
    /// `PutSpace` released `putspace` messages; `send_at` is when the
    /// flush allows the first message to leave.
    PutSpaceSend {
        /// Port index within the calling task.
        port: u32,
        /// Committed bytes.
        bytes: u32,
        /// Earliest departure (after the flush).
        send_at: Cycle,
    },
    /// An incoming `putspace` message was applied to a local row.
    PutSpaceRecv {
        /// Destination stream-table row.
        row: u32,
        /// Released bytes.
        bytes: u32,
        /// True if the delivery unblocked a waiting task.
        unblocked: bool,
    },
    /// Coherency rule 2: lines invalidated on a `GetSpace` window
    /// extension.
    CacheInvalidate {
        /// Stream-table row owning the cache.
        row: u32,
        /// Lines invalidated.
        lines: u64,
    },
    /// Coherency rule 3: dirty lines written back before a `putspace`
    /// release.
    CacheFlush {
        /// Stream-table row owning the cache.
        row: u32,
        /// Lines written back.
        lines: u64,
    },
    /// Prefetch fetches issued (GetSpace- or Read-triggered).
    CachePrefetch {
        /// Stream-table row owning the cache.
        row: u32,
        /// Lines fetched ahead.
        lines: u64,
    },
    /// A bus transaction was granted after `wait` cycles of arbitration,
    /// occupying the bus for `busy` cycles.
    BusGrant {
        /// Payload bytes.
        bytes: u32,
        /// Arbitration wait in cycles.
        wait: Cycle,
        /// Data-path occupancy in cycles.
        busy: Cycle,
    },
    /// A multi-bank data-fabric chunk was granted on a bank port after
    /// `wait` cycles of arbitration.
    BankGrant {
        /// Bank index within the fabric.
        bank: u32,
        /// Chunk payload bytes.
        bytes: u32,
        /// Arbitration wait in cycles.
        wait: Cycle,
    },
    /// A `putspace` message was routed across a sync network (ring /
    /// crossbar backends; the direct network emits none).
    SyncHop {
        /// Links traversed between source and destination shell.
        hops: u32,
        /// Cycles queued behind busy links along the path.
        wait: Cycle,
    },
    /// One coprocessor processing step (run-loop phase; a duration event
    /// in the Chrome export, on the executing task's own track).
    Step {
        /// Executing task's name.
        task: LabelId,
        /// Cycles of useful work.
        busy: Cycle,
        /// Cycles stalled on memory.
        stall: Cycle,
    },
    /// A `putspace` message was delivered by the run loop's sync phase.
    SyncDeliver {
        /// Released bytes.
        bytes: u32,
        /// Send-to-delivery latency in cycles.
        latency: Cycle,
    },
    /// The periodic measurement sampler ran (run-loop phase).
    Sample,
    /// The run loop started.
    RunStart,
    /// The run loop ended; `outcome` is the interned outcome name.
    RunEnd {
        /// Interned outcome name: "AllFinished", "Deadlock", "MaxCycles".
        outcome: LabelId,
    },
    /// A sampled counter value (buffer fill level, queue depth, ...).
    /// Exported as a Chrome counter track (`ph:"C"`), so chaos runs can
    /// visualize backpressure building up behind injected faults.
    Counter {
        /// Interned track name (e.g. `space/dec0.token:dec0.rlsq.in0`).
        track: LabelId,
        /// Sampled value.
        value: u64,
    },
    /// A fault was injected (see `eclipse_sim::fault`).
    Fault {
        /// Interned fault-class name: "sync_drop", "sync_delay",
        /// "bus_error", "sram_flip", "stall".
        class: LabelId,
        /// Class-specific magnitude: credit bytes lost, delay or stall
        /// cycles, retry penalty, flipped-byte index.
        magnitude: u64,
    },
    /// An application graph was admitted into a live system
    /// (run-time reconfiguration).
    AppMapped {
        /// Interned application name.
        app: LabelId,
        /// SRAM bytes claimed for the app's stream buffers.
        sram_bytes: u32,
        /// Task-table rows claimed across all shells.
        tasks: u32,
    },
    /// A live application's tasks were disabled (paused).
    AppPaused {
        /// Interned application name.
        app: LabelId,
    },
    /// A paused application's tasks were re-enabled.
    AppResumed {
        /// Interned application name.
        app: LabelId,
    },
    /// A live application finished quiescing: tasks disabled and every
    /// in-flight `putspace` addressed to its rows delivered or expired.
    AppDrained {
        /// Interned application name.
        app: LabelId,
        /// Cycles the drain waited for in-flight syncs.
        wait_cycles: u64,
    },
    /// A drained application's rows, task slots, and buffers were
    /// reclaimed.
    AppUnmapped {
        /// Interned application name.
        app: LabelId,
        /// SRAM bytes returned to the allocator.
        sram_bytes: u32,
    },
    /// An incoming `putspace` was rejected because its destination row
    /// was retired or recycled (generation mismatch).
    StaleSyncRejected {
        /// Destination stream-table row.
        row: u32,
        /// Bytes the stale message carried (dropped, not applied).
        bytes: u32,
    },
}

impl TraceEventKind {
    /// Stable kind name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::TaskSelected { .. } => "task_selected",
            TraceEventKind::TaskIdle => "task_idle",
            TraceEventKind::SpaceGranted { .. } => "getspace_grant",
            TraceEventKind::SpaceDenied { .. } => "getspace_deny",
            TraceEventKind::PutSpaceSend { .. } => "putspace_send",
            TraceEventKind::PutSpaceRecv { .. } => "putspace_recv",
            TraceEventKind::CacheInvalidate { .. } => "cache_invalidate",
            TraceEventKind::CacheFlush { .. } => "cache_flush",
            TraceEventKind::CachePrefetch { .. } => "cache_prefetch",
            TraceEventKind::BusGrant { .. } => "bus_grant",
            TraceEventKind::BankGrant { .. } => "bank_grant",
            TraceEventKind::SyncHop { .. } => "sync_hop",
            TraceEventKind::Step { .. } => "step",
            TraceEventKind::SyncDeliver { .. } => "sync_deliver",
            TraceEventKind::Sample => "sample",
            TraceEventKind::RunStart => "run_start",
            TraceEventKind::RunEnd { .. } => "run_end",
            TraceEventKind::Counter { .. } => "counter",
            TraceEventKind::Fault { .. } => "fault",
            TraceEventKind::AppMapped { .. } => "app_mapped",
            TraceEventKind::AppPaused { .. } => "app_paused",
            TraceEventKind::AppResumed { .. } => "app_resumed",
            TraceEventKind::AppDrained { .. } => "app_drained",
            TraceEventKind::AppUnmapped { .. } => "app_unmapped",
            TraceEventKind::StaleSyncRejected { .. } => "stale_sync_rejected",
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub cycle: Cycle,
    /// Emitting unit (shell, bus, or system) as an interned label.
    pub unit: LabelId,
    /// Payload.
    pub kind: TraceEventKind,
}

/// Number of [`TraceEventKind`] variants — the divisor for the
/// per-kind budget under [`SamplePolicy::KindReservoir`].
pub const KIND_COUNT: usize = 25;

/// How a [`TraceSink`] spends its bounded event budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePolicy {
    /// Keep the newest events: when the ring is full the oldest event
    /// is dropped (the historical behaviour, and the default).
    Ring,
    /// Per-kind budget with reservoir sampling: the capacity is split
    /// evenly across all [`KIND_COUNT`] event kinds, and within a
    /// kind's budget events are reservoir-sampled (Algorithm R) so the
    /// retained set is a uniform sample of the *whole* run. A chatty
    /// kind (bus grants, steps) can never evict a rare one (faults,
    /// app lifecycle) — the failure mode of the plain ring on long
    /// chaos runs. Replacement draws come from a stateless splitmix
    /// hash of `(seed, kind, seen)`, so the sample is a pure function
    /// of the event stream: deterministic, and checkpoint/restore
    /// needs only the per-kind `seen` counters.
    KindReservoir {
        /// Seed folded into every replacement draw.
        seed: u64,
    },
}

/// One kind's reservoir under [`SamplePolicy::KindReservoir`]: how many
/// events of the kind were ever offered, and the retained sample with
/// each event's global emission sequence (for deterministic ordering).
#[derive(Debug, Default)]
struct KindReservoir {
    seen: u64,
    slots: Vec<(u64, TraceEvent)>,
}

/// Stateless uniform draw for reservoir replacement: splitmix64 over
/// the policy seed, an FNV-1a hash of the kind name, and the kind's
/// running `seen` count.
fn reservoir_draw(seed: u64, kind: &str, seen: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in kind.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = seed ^ h ^ seen.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Ring-buffer event sink with runtime enable/disable.
#[derive(Debug)]
pub struct TraceSink {
    enabled: bool,
    capacity: usize,
    policy: SamplePolicy,
    events: VecDeque<TraceEvent>,
    /// [`SamplePolicy::KindReservoir`] storage; empty under `Ring`.
    reservoirs: std::collections::BTreeMap<String, KindReservoir>,
    /// Global emission sequence (orders reservoir samples on export).
    seq: u64,
    labels: Vec<String>,
    by_label: HashMap<String, LabelId>,
    emitted: u64,
    dropped: u64,
}

/// A [`TraceSink`] shared by every instrumented component of one system.
pub type SharedTraceSink = Rc<RefCell<TraceSink>>;

impl TraceSink {
    /// A sink holding at most `capacity` events (oldest dropped first).
    /// Starts enabled.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, SamplePolicy::Ring)
    }

    /// A sink with an explicit sampling policy (see [`SamplePolicy`]).
    pub fn with_policy(capacity: usize, policy: SamplePolicy) -> Self {
        TraceSink {
            enabled: true,
            capacity: capacity.max(1),
            policy,
            events: VecDeque::new(),
            reservoirs: std::collections::BTreeMap::new(),
            seq: 0,
            labels: Vec::new(),
            by_label: HashMap::new(),
            emitted: 0,
            dropped: 0,
        }
    }

    /// A shareable sink (the form the instrumented components hold).
    pub fn shared(capacity: usize) -> SharedTraceSink {
        Rc::new(RefCell::new(Self::new(capacity)))
    }

    /// A shareable sink with an explicit sampling policy.
    pub fn shared_with_policy(capacity: usize, policy: SamplePolicy) -> SharedTraceSink {
        Rc::new(RefCell::new(Self::with_policy(capacity, policy)))
    }

    /// The active sampling policy.
    pub fn policy(&self) -> SamplePolicy {
        self.policy
    }

    /// Turn event collection on or off at runtime. Disabling does not
    /// discard already collected events.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether events are currently collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Intern a label; repeated calls with the same string return the same
    /// id.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_label.get(name) {
            return id;
        }
        let id = LabelId(self.labels.len() as u32);
        self.labels.push(name.to_string());
        self.by_label.insert(name.to_string(), id);
        id
    }

    /// Resolve an interned label.
    pub fn label(&self, id: LabelId) -> &str {
        &self.labels[id.0 as usize]
    }

    /// Append an event (no-op when disabled). Under [`SamplePolicy::Ring`]
    /// the oldest event is dropped when full; under
    /// [`SamplePolicy::KindReservoir`] the event is offered to its
    /// kind's reservoir. Either way `emitted - dropped` equals the
    /// retained count.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        match self.policy {
            SamplePolicy::Ring => {
                if self.events.len() == self.capacity {
                    self.events.pop_front();
                    self.dropped += 1;
                }
                self.events.push_back(event);
            }
            SamplePolicy::KindReservoir { seed } => {
                let name = event.kind.name();
                let quota = (self.capacity / KIND_COUNT).max(1);
                let seq = self.seq;
                self.seq += 1;
                if !self.reservoirs.contains_key(name) {
                    self.reservoirs
                        .insert(name.to_string(), KindReservoir::default());
                }
                let res = self.reservoirs.get_mut(name).expect("just inserted");
                res.seen += 1;
                if res.slots.len() < quota {
                    res.slots.push((seq, event));
                } else {
                    // Algorithm R: the n-th offer replaces a uniform
                    // slot with probability quota/n.
                    let j = reservoir_draw(seed, name, res.seen) % res.seen;
                    if (j as usize) < quota {
                        res.slots[j as usize] = (seq, event);
                    }
                    self.dropped += 1;
                }
            }
        }
        self.emitted += 1;
    }

    /// The retained events in deterministic export order: ring order
    /// under [`SamplePolicy::Ring`], global emission order under
    /// [`SamplePolicy::KindReservoir`].
    fn ordered(&self) -> Vec<&TraceEvent> {
        match self.policy {
            SamplePolicy::Ring => self.events.iter().collect(),
            SamplePolicy::KindReservoir { .. } => {
                let mut all: Vec<(u64, &TraceEvent)> = self
                    .reservoirs
                    .values()
                    .flat_map(|r| r.slots.iter().map(|(seq, e)| (*seq, e)))
                    .collect();
                all.sort_unstable_by_key(|&(seq, _)| seq);
                all.into_iter().map(|(_, e)| e).collect()
            }
        }
    }

    /// The retained events, oldest first (emission order).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ordered().into_iter()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
            + self
                .reservoirs
                .values()
                .map(|r| r.slots.len())
                .sum::<usize>()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-kind offered counts under [`SamplePolicy::KindReservoir`]
    /// (empty under [`SamplePolicy::Ring`]), sorted by kind name.
    pub fn kind_seen(&self) -> Vec<(String, u64)> {
        self.reservoirs
            .iter()
            .map(|(name, r)| (name.clone(), r.seen))
            .collect()
    }

    /// Total events emitted while enabled (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all retained events (the counters keep accumulating;
    /// reservoir `seen` counts are preserved so later offers keep their
    /// correct inclusion probability).
    pub fn clear(&mut self) {
        self.events.clear();
        for r in self.reservoirs.values_mut() {
            r.slots.clear();
        }
    }

    /// Per-kind event counts over the retained events, sorted by name (for
    /// reports).
    pub fn counts_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        for e in self.ordered() {
            *counts.entry(e.kind.name()).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by_key(|&(name, _)| name);
        out
    }

    // ---- exporters ------------------------------------------------------

    /// Export as Chrome `trace_event` JSON (the array-of-events form;
    /// loadable in Perfetto / `chrome://tracing`). Simulated cycles map
    /// 1:1 to the `ts` microsecond field; `pid` 0 is the instance and
    /// each emitting unit gets a `tid` named via metadata events.
    /// [`TraceEventKind::Step`] duration events additionally land on a
    /// per-*task* track (`tid` = [`TASK_TID_OFFSET`] + task label), so a
    /// multi-tasking shell's interleaved steps separate into one swim
    /// lane per task.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        // Thread-name metadata for every unit and task track that appears.
        let mut seen_units: Vec<LabelId> = Vec::new();
        let mut seen_tasks: Vec<LabelId> = Vec::new();
        let ordered = self.ordered();
        for e in &ordered {
            if !seen_units.contains(&e.unit) {
                seen_units.push(e.unit);
            }
            if let TraceEventKind::Step { task, .. } = e.kind {
                if !seen_tasks.contains(&task) {
                    seen_tasks.push(task);
                }
            }
        }
        for unit in &seen_units {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                    unit.0,
                    json_string(self.label(*unit))
                ),
            );
        }
        for task in &seen_tasks {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                    TASK_TID_OFFSET + task.0,
                    json_string(&format!("task/{}", self.label(*task)))
                ),
            );
        }
        for e in &ordered {
            let tid = e.unit.0;
            let line = match e.kind {
                TraceEventKind::Step { task, busy, stall } => format!(
                    "{{\"name\":{},\"cat\":\"step\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                     \"args\":{{\"busy\":{busy},\"stall\":{stall},\"shell\":{}}}}}",
                    json_string(self.label(task)),
                    e.cycle,
                    busy + stall,
                    TASK_TID_OFFSET + task.0,
                    json_string(self.label(e.unit)),
                ),
                TraceEventKind::BusGrant { bytes, wait, busy } => format!(
                    "{{\"name\":\"xfer {bytes}B\",\"cat\":\"bus\",\"ph\":\"X\",\"ts\":{},\"dur\":{busy},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{\"bytes\":{bytes},\"wait\":{wait}}}}}",
                    e.cycle,
                ),
                TraceEventKind::Counter { track, value } => format!(
                    "{{\"name\":{},\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":{tid},\
                     \"args\":{{\"value\":{value}}}}}",
                    json_string(self.label(track)),
                    e.cycle,
                ),
                kind => {
                    let args = instant_args(&kind, self);
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"shell\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{tid},\
                         \"s\":\"t\",\"args\":{{{args}}}}}",
                        kind.name(),
                        e.cycle,
                    )
                }
            };
            push(&mut out, line);
        }
        out.push_str("\n]\n");
        out
    }

    /// Export as CSV with a fixed header:
    /// `cycle,unit,event,detail,a,b,c` — `detail` is the task name where
    /// one applies, and `a`/`b`/`c` are the kind's numeric payload in
    /// declaration order (empty when absent).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,unit,event,detail,a,b,c\n");
        for e in self.ordered() {
            let unit = self.label(e.unit);
            let (detail, a, b, c): (&str, String, String, String) = match e.kind {
                TraceEventKind::TaskSelected { task, switched } => (
                    self.label(task),
                    (switched as u8).to_string(),
                    String::new(),
                    String::new(),
                ),
                TraceEventKind::TaskIdle | TraceEventKind::Sample | TraceEventKind::RunStart => {
                    ("", String::new(), String::new(), String::new())
                }
                TraceEventKind::SpaceGranted {
                    port,
                    bytes,
                    space,
                    hint,
                }
                | TraceEventKind::SpaceDenied {
                    port,
                    bytes,
                    space,
                    hint,
                } => (
                    "",
                    port.to_string(),
                    bytes.to_string(),
                    format!("{space}/{hint}"),
                ),
                TraceEventKind::PutSpaceSend {
                    port,
                    bytes,
                    send_at,
                } => ("", port.to_string(), bytes.to_string(), send_at.to_string()),
                TraceEventKind::PutSpaceRecv {
                    row,
                    bytes,
                    unblocked,
                } => (
                    "",
                    row.to_string(),
                    bytes.to_string(),
                    (unblocked as u8).to_string(),
                ),
                TraceEventKind::CacheInvalidate { row, lines }
                | TraceEventKind::CacheFlush { row, lines }
                | TraceEventKind::CachePrefetch { row, lines } => {
                    ("", row.to_string(), lines.to_string(), String::new())
                }
                TraceEventKind::BusGrant { bytes, wait, busy } => {
                    ("", bytes.to_string(), wait.to_string(), busy.to_string())
                }
                TraceEventKind::BankGrant { bank, bytes, wait } => {
                    ("", bank.to_string(), bytes.to_string(), wait.to_string())
                }
                TraceEventKind::SyncHop { hops, wait } => {
                    ("", hops.to_string(), wait.to_string(), String::new())
                }
                TraceEventKind::Step { task, busy, stall } => (
                    self.label(task),
                    busy.to_string(),
                    stall.to_string(),
                    String::new(),
                ),
                TraceEventKind::SyncDeliver { bytes, latency } => {
                    ("", bytes.to_string(), latency.to_string(), String::new())
                }
                TraceEventKind::RunEnd { outcome } => (
                    self.label(outcome),
                    String::new(),
                    String::new(),
                    String::new(),
                ),
                TraceEventKind::Counter { track, value } => (
                    self.label(track),
                    value.to_string(),
                    String::new(),
                    String::new(),
                ),
                TraceEventKind::Fault { class, magnitude } => (
                    self.label(class),
                    magnitude.to_string(),
                    String::new(),
                    String::new(),
                ),
                TraceEventKind::AppMapped {
                    app,
                    sram_bytes,
                    tasks,
                } => (
                    self.label(app),
                    sram_bytes.to_string(),
                    tasks.to_string(),
                    String::new(),
                ),
                TraceEventKind::AppPaused { app } | TraceEventKind::AppResumed { app } => {
                    (self.label(app), String::new(), String::new(), String::new())
                }
                TraceEventKind::AppDrained { app, wait_cycles } => (
                    self.label(app),
                    wait_cycles.to_string(),
                    String::new(),
                    String::new(),
                ),
                TraceEventKind::AppUnmapped { app, sram_bytes } => (
                    self.label(app),
                    sram_bytes.to_string(),
                    String::new(),
                    String::new(),
                ),
                TraceEventKind::StaleSyncRejected { row, bytes } => {
                    ("", row.to_string(), bytes.to_string(), String::new())
                }
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                e.cycle,
                unit,
                e.kind.name(),
                detail,
                a,
                b,
                c
            ));
        }
        out
    }
}

/// The sink's accounting state: the enable flag, the `emitted`/`dropped`
/// counters, and the interned label table in id order. The retained
/// ring events are deliberately *not* included — they are observational
/// debris, not architectural state — so a restored sink starts with an
/// empty ring but consistent counters and label ids ([`LabelId`]s held
/// by attached [`TraceHandle`]s stay valid because interning order is
/// deterministic). Loading re-interns the labels in id order (rebuilding
/// the lookup table) and clears the event ring.
impl Snapshot for TraceSink {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.enabled);
        w.u64(self.emitted);
        w.u64(self.dropped);
        self.labels.save(w);
        match self.policy {
            SamplePolicy::Ring => w.u8(0),
            SamplePolicy::KindReservoir { seed } => {
                w.u8(1);
                w.u64(seed);
            }
        }
        w.u64(self.seq);
        w.usize(self.reservoirs.len());
        for (name, r) in &self.reservoirs {
            w.str(name);
            w.u64(r.seen);
        }
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.enabled = r.bool()?;
        self.emitted = r.u64()?;
        self.dropped = r.u64()?;
        let mut labels: Vec<String> = Vec::new();
        labels.load(r)?;
        for label in &labels {
            self.intern(label);
        }
        self.policy = match r.u8()? {
            0 => SamplePolicy::Ring,
            _ => SamplePolicy::KindReservoir { seed: r.u64()? },
        };
        self.seq = r.u64()?;
        let mut seen: Vec<(String, u64)> = Vec::new();
        seen.load(r)?;
        self.reservoirs = seen
            .into_iter()
            .map(|(name, seen)| {
                let slots = Vec::new();
                (name, KindReservoir { seen, slots })
            })
            .collect();
        self.events.clear();
        Ok(())
    }
}

/// `args` body (without braces) for instant events in the Chrome export.
fn instant_args(kind: &TraceEventKind, sink: &TraceSink) -> String {
    match *kind {
        TraceEventKind::TaskSelected { task, switched } => {
            format!(
                "\"task\":{},\"switched\":{switched}",
                json_string(sink.label(task))
            )
        }
        TraceEventKind::SpaceGranted {
            port,
            bytes,
            space,
            hint,
        }
        | TraceEventKind::SpaceDenied {
            port,
            bytes,
            space,
            hint,
        } => {
            format!("\"port\":{port},\"bytes\":{bytes},\"space\":{space},\"hint\":{hint}")
        }
        TraceEventKind::PutSpaceSend {
            port,
            bytes,
            send_at,
        } => {
            format!("\"port\":{port},\"bytes\":{bytes},\"send_at\":{send_at}")
        }
        TraceEventKind::PutSpaceRecv {
            row,
            bytes,
            unblocked,
        } => {
            format!("\"row\":{row},\"bytes\":{bytes},\"unblocked\":{unblocked}")
        }
        TraceEventKind::CacheInvalidate { row, lines }
        | TraceEventKind::CacheFlush { row, lines }
        | TraceEventKind::CachePrefetch { row, lines } => {
            format!("\"row\":{row},\"lines\":{lines}")
        }
        TraceEventKind::BankGrant { bank, bytes, wait } => {
            format!("\"bank\":{bank},\"bytes\":{bytes},\"wait\":{wait}")
        }
        TraceEventKind::SyncHop { hops, wait } => {
            format!("\"hops\":{hops},\"wait\":{wait}")
        }
        TraceEventKind::SyncDeliver { bytes, latency } => {
            format!("\"bytes\":{bytes},\"latency\":{latency}")
        }
        TraceEventKind::RunEnd { outcome } => {
            format!("\"outcome\":{}", json_string(sink.label(outcome)))
        }
        TraceEventKind::Fault { class, magnitude } => {
            format!(
                "\"class\":{},\"magnitude\":{magnitude}",
                json_string(sink.label(class))
            )
        }
        TraceEventKind::AppMapped {
            app,
            sram_bytes,
            tasks,
        } => {
            format!(
                "\"app\":{},\"sram_bytes\":{sram_bytes},\"tasks\":{tasks}",
                json_string(sink.label(app))
            )
        }
        TraceEventKind::AppPaused { app } | TraceEventKind::AppResumed { app } => {
            format!("\"app\":{}", json_string(sink.label(app)))
        }
        TraceEventKind::AppDrained { app, wait_cycles } => {
            format!(
                "\"app\":{},\"wait_cycles\":{wait_cycles}",
                json_string(sink.label(app))
            )
        }
        TraceEventKind::AppUnmapped { app, sram_bytes } => {
            format!(
                "\"app\":{},\"sram_bytes\":{sram_bytes}",
                json_string(sink.label(app))
            )
        }
        TraceEventKind::StaleSyncRejected { row, bytes } => {
            format!("\"row\":{row},\"bytes\":{bytes}")
        }
        _ => String::new(),
    }
}

/// Minimal JSON string escaping for labels (control chars, quote,
/// backslash).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A component's connection to the shared sink: the sink plus the
/// component's own interned unit label. Cloning shares the sink.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    sink: SharedTraceSink,
    unit: LabelId,
}

impl TraceHandle {
    /// Connect a unit to a sink.
    pub fn new(sink: &SharedTraceSink, unit_name: &str) -> Self {
        let unit = sink.borrow_mut().intern(unit_name);
        TraceHandle {
            sink: Rc::clone(sink),
            unit,
        }
    }

    /// The shared sink.
    pub fn sink(&self) -> &SharedTraceSink {
        &self.sink
    }

    /// Intern a label (task names, outcome names).
    pub fn intern(&self, name: &str) -> LabelId {
        self.sink.borrow_mut().intern(name)
    }

    /// Emit an event stamped with this unit.
    #[inline]
    pub fn emit(&self, cycle: Cycle, kind: TraceEventKind) {
        let mut sink = self.sink.borrow_mut();
        if sink.enabled() {
            sink.emit(TraceEvent {
                cycle,
                unit: self.unit,
                kind,
            });
        }
    }

    /// Emit an event whose payload needs label interning, building it only
    /// when the sink is enabled.
    #[inline]
    pub fn emit_with(&self, cycle: Cycle, kind: impl FnOnce(&mut TraceSink) -> TraceEventKind) {
        let mut sink = self.sink.borrow_mut();
        if sink.enabled() {
            let kind = kind(&mut sink);
            let unit = self.unit;
            sink.emit(TraceEvent { cycle, unit, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_with(n: usize) -> TraceSink {
        let mut s = TraceSink::new(16);
        let u = s.intern("unit");
        for i in 0..n as u64 {
            s.emit(TraceEvent {
                cycle: i,
                unit: u,
                kind: TraceEventKind::Sample,
            });
        }
        s
    }

    #[test]
    fn disabled_sink_collects_nothing() {
        let mut s = TraceSink::new(16);
        s.set_enabled(false);
        let u = s.intern("u");
        s.emit(TraceEvent {
            cycle: 0,
            unit: u,
            kind: TraceEventKind::Sample,
        });
        assert!(s.is_empty());
        assert_eq!(s.emitted(), 0);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut s = TraceSink::new(4);
        let u = s.intern("u");
        for i in 0..10u64 {
            s.emit(TraceEvent {
                cycle: i,
                unit: u,
                kind: TraceEventKind::Sample,
            });
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        assert_eq!(s.emitted(), 10);
        let cycles: Vec<_> = s.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn interning_is_stable() {
        let mut s = TraceSink::new(4);
        let a = s.intern("alpha");
        let b = s.intern("beta");
        assert_eq!(s.intern("alpha"), a);
        assert_ne!(a, b);
        assert_eq!(s.label(a), "alpha");
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let mut s = TraceSink::new(16);
        let u = s.intern("vld");
        let t = s.intern("vld.task");
        s.emit(TraceEvent {
            cycle: 5,
            unit: u,
            kind: TraceEventKind::Step {
                task: t,
                busy: 10,
                stall: 2,
            },
        });
        s.emit(TraceEvent {
            cycle: 17,
            unit: u,
            kind: TraceEventKind::SpaceDenied {
                port: 1,
                bytes: 64,
                space: 32,
                hint: 64,
            },
        });
        let json = s.to_chrome_trace();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"dur\":12"));
        assert!(json.contains("getspace_deny"));
        assert!(json.contains("\"hint\":64"));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn steps_land_on_per_task_tracks() {
        let mut s = TraceSink::new(16);
        let u = s.intern("shell/vld");
        let t1 = s.intern("a.vld");
        let t2 = s.intern("b.vld");
        for (i, t) in [t1, t2, t1].iter().enumerate() {
            s.emit(TraceEvent {
                cycle: i as u64,
                unit: u,
                kind: TraceEventKind::Step {
                    task: *t,
                    busy: 1,
                    stall: 0,
                },
            });
        }
        let json = s.to_chrome_trace();
        // Each task gets its own named track above the unit tids.
        assert!(json.contains(&format!("\"tid\":{}", TASK_TID_OFFSET + t1.0)));
        assert!(json.contains(&format!("\"tid\":{}", TASK_TID_OFFSET + t2.0)));
        assert!(json.contains("\"task/a.vld\""));
        assert!(json.contains("\"task/b.vld\""));
        // The shell the step executed on stays recoverable from args.
        assert!(json.contains("\"shell\":\"shell/vld\""));
    }

    #[test]
    fn fabric_events_export_in_both_formats() {
        let mut s = TraceSink::new(16);
        let u = s.intern("fabric/multibank");
        s.emit(TraceEvent {
            cycle: 7,
            unit: u,
            kind: TraceEventKind::BankGrant {
                bank: 3,
                bytes: 64,
                wait: 2,
            },
        });
        s.emit(TraceEvent {
            cycle: 9,
            unit: u,
            kind: TraceEventKind::SyncHop { hops: 2, wait: 1 },
        });
        let json = s.to_chrome_trace();
        assert!(json.contains("bank_grant"));
        assert!(json.contains("\"bank\":3"));
        assert!(json.contains("sync_hop"));
        assert!(json.contains("\"hops\":2"));
        let csv = s.to_csv();
        assert!(csv.contains("7,fabric/multibank,bank_grant,,3,64,2"));
        assert!(csv.contains("9,fabric/multibank,sync_hop,,2,1,"));
    }

    #[test]
    fn csv_export_has_fixed_header() {
        let s = sink_with(3);
        let csv = s.to_csv();
        assert!(csv.starts_with("cycle,unit,event,detail,a,b,c\n"));
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("0,unit,sample,,,,"));
    }

    #[test]
    fn handle_emits_through_shared_sink() {
        let shared = TraceSink::shared(8);
        let h = TraceHandle::new(&shared, "bus");
        h.emit(
            3,
            TraceEventKind::BusGrant {
                bytes: 64,
                wait: 2,
                busy: 4,
            },
        );
        assert_eq!(shared.borrow().len(), 1);
        shared.borrow_mut().set_enabled(false);
        h.emit(
            4,
            TraceEventKind::BusGrant {
                bytes: 64,
                wait: 0,
                busy: 4,
            },
        );
        assert_eq!(shared.borrow().len(), 1, "disabled sink must not collect");
    }

    #[test]
    fn counts_by_kind_sorted() {
        let mut s = TraceSink::new(16);
        let u = s.intern("u");
        s.emit(TraceEvent {
            cycle: 0,
            unit: u,
            kind: TraceEventKind::Sample,
        });
        s.emit(TraceEvent {
            cycle: 1,
            unit: u,
            kind: TraceEventKind::TaskIdle,
        });
        s.emit(TraceEvent {
            cycle: 2,
            unit: u,
            kind: TraceEventKind::Sample,
        });
        assert_eq!(s.counts_by_kind(), vec![("sample", 2), ("task_idle", 1)]);
    }

    #[test]
    fn reservoir_keeps_rare_kinds_under_chatty_flood() {
        // 16-slot budget, so each kind's quota is max(1, 16/25) = 1...
        // use a larger capacity so quotas are meaningful.
        let mut s = TraceSink::with_policy(KIND_COUNT * 4, SamplePolicy::KindReservoir { seed: 7 });
        let u = s.intern("u");
        // One rare fault among ten thousand chatty samples.
        let f = s.intern("sram_flip");
        for i in 0..5_000u64 {
            s.emit(TraceEvent {
                cycle: i,
                unit: u,
                kind: TraceEventKind::Sample,
            });
        }
        s.emit(TraceEvent {
            cycle: 5_000,
            unit: u,
            kind: TraceEventKind::Fault {
                class: f,
                magnitude: 1,
            },
        });
        for i in 5_001..10_000u64 {
            s.emit(TraceEvent {
                cycle: i,
                unit: u,
                kind: TraceEventKind::Sample,
            });
        }
        // The plain ring would have evicted the fault long ago; the
        // per-kind reservoir must retain it.
        assert!(
            s.events()
                .any(|e| matches!(e.kind, TraceEventKind::Fault { .. })),
            "rare kind evicted by chatty one"
        );
        // Sample retention is capped at the per-kind quota.
        let quota = (s.capacity / KIND_COUNT).max(1);
        let samples = s
            .events()
            .filter(|e| matches!(e.kind, TraceEventKind::Sample))
            .count();
        assert_eq!(samples, quota);
        // Accounting: emitted - dropped == retained, and seen counts
        // cover the full stream.
        assert_eq!(s.emitted() - s.dropped(), s.len() as u64);
        assert_eq!(
            s.kind_seen(),
            vec![("fault".to_string(), 1), ("sample".to_string(), 9_999)]
        );
    }

    #[test]
    fn reservoir_sample_is_deterministic() {
        let run = || {
            let mut s =
                TraceSink::with_policy(KIND_COUNT * 2, SamplePolicy::KindReservoir { seed: 42 });
            let u = s.intern("u");
            for i in 0..1_000u64 {
                s.emit(TraceEvent {
                    cycle: i,
                    unit: u,
                    kind: if i % 3 == 0 {
                        TraceEventKind::TaskIdle
                    } else {
                        TraceEventKind::Sample
                    },
                });
            }
            s.to_csv()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reservoir_accounting_survives_snapshot() {
        let mut s = TraceSink::with_policy(KIND_COUNT, SamplePolicy::KindReservoir { seed: 3 });
        let u = s.intern("u");
        for i in 0..500u64 {
            s.emit(TraceEvent {
                cycle: i,
                unit: u,
                kind: TraceEventKind::Sample,
            });
        }
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = TraceSink::new(4);
        restored
            .load(&mut SnapReader::new(&bytes))
            .expect("round-trip");
        assert_eq!(restored.policy(), s.policy());
        assert_eq!(restored.emitted(), s.emitted());
        assert_eq!(restored.dropped(), s.dropped());
        assert_eq!(restored.kind_seen(), s.kind_seen());
        // Retained events are observational debris: not carried over.
        assert!(restored.is_empty());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }
}
