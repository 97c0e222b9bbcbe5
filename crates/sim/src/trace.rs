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
//! * **Bounded memory.** The sink is a ring of compactly encoded events
//!   (a few bytes each): when full, the oldest event is dropped and
//!   counted.
//! * **Deterministic output.** Events carry only simulated time and
//!   interned labels, so two identical runs export byte-identical traces.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::rc::Rc;

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::Cycle;

/// Interned-string id; resolves through [`TraceSink::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// A label id interned on first use and cached, so an emit site that
/// names the same label on every event hashes its string once. Interning
/// at first use keeps every id where uncached interning puts it. A sink
/// only ever appends labels (restoring a checkpoint included), so a
/// cached id stays valid for as long as its holder stays attached to the
/// same sink; holders reset their slots when a new sink is attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabelSlot(Option<LabelId>);

impl LabelSlot {
    /// The cached id, interning `name` into `sink` on first use.
    #[inline]
    pub fn resolve(&mut self, sink: &mut TraceSink, name: &str) -> LabelId {
        match self.0 {
            Some(id) => id,
            None => *self.0.insert(sink.intern(name)),
        }
    }
}

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

/// Number of [`TraceEventKind`] variants, and of kind tags in the event
/// log.
pub const KIND_COUNT: usize = 25;

/// Kind names in tag order (see [`TraceEventKind::tag`]).
const KIND_NAMES: [&str; KIND_COUNT] = [
    "task_selected",
    "task_idle",
    "getspace_grant",
    "getspace_deny",
    "putspace_send",
    "putspace_recv",
    "cache_invalidate",
    "cache_flush",
    "cache_prefetch",
    "bus_grant",
    "bank_grant",
    "sync_hop",
    "step",
    "sync_deliver",
    "sample",
    "run_start",
    "run_end",
    "counter",
    "fault",
    "app_mapped",
    "app_paused",
    "app_resumed",
    "app_drained",
    "app_unmapped",
    "stale_sync_rejected",
];

impl TraceEventKind {
    /// Stable kind name used by both exporters.
    pub fn name(&self) -> &'static str {
        KIND_NAMES[self.tag() as usize]
    }

    /// The kind's tag in the event log: its declaration index.
    fn tag(&self) -> u8 {
        use TraceEventKind as K;
        match self {
            K::TaskSelected { .. } => 0,
            K::TaskIdle => 1,
            K::SpaceGranted { .. } => 2,
            K::SpaceDenied { .. } => 3,
            K::PutSpaceSend { .. } => 4,
            K::PutSpaceRecv { .. } => 5,
            K::CacheInvalidate { .. } => 6,
            K::CacheFlush { .. } => 7,
            K::CachePrefetch { .. } => 8,
            K::BusGrant { .. } => 9,
            K::BankGrant { .. } => 10,
            K::SyncHop { .. } => 11,
            K::Step { .. } => 12,
            K::SyncDeliver { .. } => 13,
            K::Sample => 14,
            K::RunStart => 15,
            K::RunEnd { .. } => 16,
            K::Counter { .. } => 17,
            K::Fault { .. } => 18,
            K::AppMapped { .. } => 19,
            K::AppPaused { .. } => 20,
            K::AppResumed { .. } => 21,
            K::AppDrained { .. } => 22,
            K::AppUnmapped { .. } => 23,
            K::StaleSyncRejected { .. } => 24,
        }
    }

    /// The kind of tag `tag`, its fields read from `r` in
    /// [`TraceEventKind::payload`] order (struct fields evaluate in the
    /// order written).
    #[inline]
    fn read(tag: u8, r: &mut LogReader) -> Self {
        use TraceEventKind as K;
        match tag {
            0 => K::TaskSelected {
                task: r.label(),
                switched: r.flag(),
            },
            1 => K::TaskIdle,
            2 => K::SpaceGranted {
                port: r.u32(),
                bytes: r.u32(),
                space: r.u32(),
                hint: r.u32(),
            },
            3 => K::SpaceDenied {
                port: r.u32(),
                bytes: r.u32(),
                space: r.u32(),
                hint: r.u32(),
            },
            4 => K::PutSpaceSend {
                port: r.u32(),
                bytes: r.u32(),
                send_at: r.num(),
            },
            5 => K::PutSpaceRecv {
                row: r.u32(),
                bytes: r.u32(),
                unblocked: r.flag(),
            },
            6 => K::CacheInvalidate {
                row: r.u32(),
                lines: r.num(),
            },
            7 => K::CacheFlush {
                row: r.u32(),
                lines: r.num(),
            },
            8 => K::CachePrefetch {
                row: r.u32(),
                lines: r.num(),
            },
            9 => K::BusGrant {
                bytes: r.u32(),
                wait: r.num(),
                busy: r.num(),
            },
            10 => K::BankGrant {
                bank: r.u32(),
                bytes: r.u32(),
                wait: r.num(),
            },
            11 => K::SyncHop {
                hops: r.u32(),
                wait: r.num(),
            },
            12 => K::Step {
                task: r.label(),
                busy: r.num(),
                stall: r.num(),
            },
            13 => K::SyncDeliver {
                bytes: r.u32(),
                latency: r.num(),
            },
            14 => K::Sample,
            15 => K::RunStart,
            16 => K::RunEnd { outcome: r.label() },
            17 => K::Counter {
                track: r.label(),
                value: r.num(),
            },
            18 => K::Fault {
                class: r.label(),
                magnitude: r.num(),
            },
            19 => K::AppMapped {
                app: r.label(),
                sram_bytes: r.u32(),
                tasks: r.u32(),
            },
            20 => K::AppPaused { app: r.label() },
            21 => K::AppResumed { app: r.label() },
            22 => K::AppDrained {
                app: r.label(),
                wait_cycles: r.num(),
            },
            23 => K::AppUnmapped {
                app: r.label(),
                sram_bytes: r.u32(),
            },
            24 => K::StaleSyncRejected {
                row: r.u32(),
                bytes: r.u32(),
            },
            _ => unreachable!("the sink writes every tag it reads"),
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

/// Append `v` to `log` as an LEB128 varint: seven bits a byte, low
/// bits first, the top bit set on every byte but the last.
#[inline]
fn push_num(log: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        log.push(v as u8 | 0x80);
        v >>= 7;
    }
    log.push(v as u8);
}

/// A cursor over the event log.
struct LogReader<'a> {
    log: &'a [u8],
    pos: usize,
}

impl LogReader<'_> {
    /// The next LEB128 varint.
    #[inline]
    fn num(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.log[self.pos];
            self.pos += 1;
            v |= ((b & 0x7f) as u64) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// Step over the next varint without decoding it.
    #[inline]
    fn skip(&mut self) {
        while self.log[self.pos] >= 0x80 {
            self.pos += 1;
        }
        self.pos += 1;
    }

    #[inline]
    fn u32(&mut self) -> u32 {
        self.num() as u32
    }

    #[inline]
    fn flag(&mut self) -> bool {
        self.num() != 0
    }

    #[inline]
    fn label(&mut self) -> LabelId {
        LabelId(self.u32())
    }

    /// The next event, whose cycle counts from `prev`, the cycle of the
    /// event logged before it.
    #[inline]
    fn event(&mut self, prev: Cycle) -> TraceEvent {
        let tag = self.log[self.pos];
        self.pos += 1;
        let z = self.num();
        // Zigzag: even codes are forward deltas, odd ones backward.
        let delta = (z >> 1) ^ (z & 1).wrapping_neg();
        TraceEvent {
            cycle: prev.wrapping_add(delta),
            unit: self.label(),
            kind: TraceEventKind::read(tag, self),
        }
    }
}

/// Ring-buffer event sink with runtime enable/disable.
///
/// The retained events live in one byte log, oldest first. An event is
/// its kind tag byte, then LEB128 varints: the zigzagged (wrapping)
/// cycle delta from the event logged before it, the unit id, and the
/// kind's payload in the order the exporters print it (the label id where
/// the kind names one, then each number; flags are 0 or 1).
/// Nothing is narrowed, so every event decodes to exactly what was
/// emitted, cycles that go backwards included (a bus grant is stamped at
/// its grant start, after the time it was issued).
#[derive(Debug)]
pub struct TraceSink {
    enabled: bool,
    capacity: usize,
    /// Encoded events; the retained ones start at `head`.
    log: Vec<u8>,
    /// Byte offset of the oldest retained event.
    head: usize,
    /// The cycle the oldest retained event's delta counts from.
    base: Cycle,
    /// The cycle of the newest event logged (`base` when none is).
    tail: Cycle,
    /// Retained event count.
    len: usize,
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
        TraceSink {
            enabled: true,
            capacity: capacity.max(1),
            log: Vec::new(),
            head: 0,
            base: 0,
            tail: 0,
            len: 0,
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

    /// Append an event (no-op when disabled), dropping the oldest one
    /// when the ring is full, so `emitted - dropped` equals the retained
    /// count.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.len == self.capacity {
            self.drop_oldest();
        }
        let log = &mut self.log;
        log.push(event.kind.tag());
        // Zigzag, so a step back (a bus grant stamped ahead of the
        // events after it) stays as short as a step forward.
        let delta = event.cycle.wrapping_sub(self.tail) as i64;
        push_num(log, ((delta << 1) ^ (delta >> 63)) as u64);
        push_num(log, event.unit.0 as u64);
        let p = event.kind.payload();
        if let Some((_, label)) = p.label {
            push_num(log, label.0 as u64);
        }
        for &(_, num) in p.nums() {
            push_num(
                log,
                match num {
                    Num::Int(v) => v,
                    Num::Flag(f) => f as u64,
                },
            );
        }
        self.tail = event.cycle;
        self.len += 1;
        self.emitted += 1;
    }

    /// Drop the oldest retained event, and move the retained bytes to
    /// the front of the log once the dropped ones fill half of it.
    fn drop_oldest(&mut self) {
        let mut r = LogReader {
            log: &self.log,
            pos: self.head,
        };
        self.base = r.event(self.base).cycle;
        self.head = r.pos;
        self.len -= 1;
        self.dropped += 1;
        if self.head * 2 > self.log.len() {
            self.log.drain(..self.head);
            self.head = 0;
        }
    }

    /// The retained events, oldest first, decoded from the log.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let mut r = LogReader {
            log: &self.log,
            pos: self.head,
        };
        let mut cycle = self.base;
        std::iter::from_fn(move || {
            (r.pos < r.log.len()).then(|| {
                let e = r.event(cycle);
                cycle = e.cycle;
                e
            })
        })
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events emitted while enabled (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all retained events (the counters keep accumulating).
    pub fn clear(&mut self) {
        self.log.clear();
        self.head = 0;
        self.base = self.tail;
        self.len = 0;
    }

    /// Per-kind event counts over the retained events, sorted by name (for
    /// reports).
    pub fn counts_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        for e in self.events() {
            *counts.entry(e.kind.name()).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by_key(|&(name, _)| name);
        out
    }

    // ---- exporters ------------------------------------------------------

    /// Write the retained events as Chrome `trace_event` JSON (the
    /// array-of-events form; loadable in Perfetto / `chrome://tracing`).
    /// Simulated cycles map 1:1 to the `ts` microsecond field; `pid` 0 is
    /// the instance and each emitting unit gets a `tid` named via
    /// metadata events. [`TraceEventKind::Step`] duration events
    /// additionally land on a per-*task* track (`tid` =
    /// [`TASK_TID_OFFSET`] + task label), so a multi-tasking shell's
    /// interleaved steps separate into one swim lane per task.
    ///
    /// Every field goes straight into `w`; labels are JSON-escaped once
    /// per export, so nothing is allocated per event.
    pub fn write_chrome_trace(&self, w: &mut impl Write) -> io::Result<()> {
        let names: Vec<String> = self.labels.iter().map(|l| json_string(l)).collect();
        // Thread-name metadata for every unit and task track that
        // appears, in order of first appearance. This walk reads only
        // each event's tag, unit and `Step` task and steps over the rest:
        // decoding a kind from all-zero varints, one byte each, counts
        // the varints it reads after the unit.
        let fields: Vec<usize> = (0..KIND_COUNT as u8)
            .map(|tag| {
                let mut r = LogReader {
                    log: &[0; 8],
                    pos: 0,
                };
                TraceEventKind::read(tag, &mut r);
                r.pos
            })
            .collect();
        let step = TraceEventKind::Step {
            task: LabelId(0),
            busy: 0,
            stall: 0,
        }
        .tag();
        let (mut units, mut tasks) = (Vec::new(), Vec::new());
        let mut seen = vec![(false, false); self.labels.len()];
        let mut r = LogReader {
            log: &self.log,
            pos: self.head,
        };
        while r.pos < r.log.len() {
            let tag = r.log[r.pos];
            r.pos += 1;
            r.skip();
            let unit = r.label();
            if !std::mem::replace(&mut seen[unit.0 as usize].0, true) {
                units.push(unit);
            }
            let mut rest = fields[tag as usize];
            if tag == step {
                let task = r.label();
                rest -= 1;
                if !std::mem::replace(&mut seen[task.0 as usize].1, true) {
                    tasks.push(task);
                }
            }
            for _ in 0..rest {
                r.skip();
            }
        }
        let mut o = Out::new(w);
        o.s("[\n");
        let mut sep = "";
        for unit in units {
            o.s(sep).thread_name(unit.0, &names[unit.0 as usize]);
            sep = ",\n";
        }
        for task in tasks {
            let name = json_string(&format!("task/{}", self.label(task)));
            o.s(sep).thread_name(TASK_TID_OFFSET + task.0, &name);
            sep = ",\n";
        }
        for e in self.events() {
            o.s(sep);
            sep = ",\n";
            let tid = e.unit.0 as u64;
            match e.kind {
                TraceEventKind::Step { task, busy, stall } => {
                    o.s("{\"name\":").s(&names[task.0 as usize]);
                    o.s(",\"cat\":\"step\",\"ph\":\"X\",\"ts\":").n(e.cycle);
                    o.s(",\"dur\":").n(busy.saturating_add(stall));
                    o.s(",\"pid\":0,\"tid\":")
                        .n((TASK_TID_OFFSET + task.0) as u64);
                    o.s(",\"args\":{\"busy\":")
                        .n(busy)
                        .s(",\"stall\":")
                        .n(stall);
                    o.s(",\"shell\":").s(&names[e.unit.0 as usize]).s("}}");
                }
                TraceEventKind::BusGrant { bytes, wait, busy } => {
                    o.s("{\"name\":\"xfer ").n(bytes as u64);
                    o.s("B\",\"cat\":\"bus\",\"ph\":\"X\",\"ts\":").n(e.cycle);
                    o.s(",\"dur\":").n(busy).s(",\"pid\":0,\"tid\":").n(tid);
                    o.s(",\"args\":{\"bytes\":").n(bytes as u64);
                    o.s(",\"wait\":").n(wait).s("}}");
                }
                TraceEventKind::Counter { track, value } => {
                    o.s("{\"name\":").s(&names[track.0 as usize]);
                    o.s(",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":").n(e.cycle);
                    o.s(",\"pid\":0,\"tid\":").n(tid);
                    o.s(",\"args\":{\"value\":").n(value).s("}}");
                }
                kind => {
                    o.s("{\"name\":\"").s(kind.name());
                    o.s("\",\"cat\":\"shell\",\"ph\":\"i\",\"ts\":").n(e.cycle);
                    o.s(",\"pid\":0,\"tid\":")
                        .n(tid)
                        .s(",\"s\":\"t\",\"args\":{");
                    let p = kind.payload();
                    let mut sep = "";
                    if let Some((key, label)) = p.label {
                        o.s("\"").s(key).s("\":").s(&names[label.0 as usize]);
                        sep = ",";
                    }
                    for &(key, num) in p.nums() {
                        o.s(sep).s("\"").s(key).s("\":");
                        match num {
                            Num::Int(v) => o.n(v),
                            Num::Flag(f) => o.s(if f { "true" } else { "false" }),
                        };
                        sep = ",";
                    }
                    o.s("}}");
                }
            }
        }
        o.s("\n]\n").finish()
    }

    /// Write the retained events as CSV with a fixed header:
    /// `cycle,unit,event,detail,a,b,c` — `detail` is the label the event
    /// names (task, track, fault class, app, outcome) where one applies,
    /// and `a`/`b`/`c` are the kind's numeric payload in declaration
    /// order (empty when absent; `GetSpace`'s space and hint share `c`
    /// as `space/hint`). A label holding a comma, quote or line break is
    /// quoted RFC 4180 style, once per export.
    pub fn write_csv(&self, w: &mut impl Write) -> io::Result<()> {
        let names: Vec<Cow<str>> = self.labels.iter().map(|l| csv_field(l)).collect();
        let mut o = Out::new(w);
        o.s("cycle,unit,event,detail,a,b,c\n");
        for e in self.events() {
            let p = e.kind.payload();
            o.n(e.cycle).s(",").s(&names[e.unit.0 as usize]);
            o.s(",").s(e.kind.name()).s(",");
            if let Some((_, label)) = p.label {
                o.s(&names[label.0 as usize]);
            }
            let nums = p.nums();
            for (i, &(_, num)) in nums.iter().enumerate() {
                o.s(if i < 3 { "," } else { "/" });
                match num {
                    Num::Int(v) => o.n(v),
                    Num::Flag(f) => o.n(f as u64),
                };
            }
            o.s(&",,,"[nums.len().min(3)..]).s("\n");
        }
        o.finish()
    }

    /// [`TraceSink::write_chrome_trace`] collected into a string.
    pub fn to_chrome_trace(&self) -> String {
        collect(|out| self.write_chrome_trace(out))
    }

    /// [`TraceSink::write_csv`] collected into a string.
    pub fn to_csv(&self) -> String {
        collect(|out| self.write_csv(out))
    }
}

/// Run an exporter into memory.
fn collect(export: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    export(&mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("exports are UTF-8")
}

/// An exporter's writer: text fragments and decimal numbers, with no
/// formatting machinery or allocation. The first write error is kept
/// and later writes are skipped, so a record is written as one chain.
struct Out<'w, W: Write> {
    w: &'w mut W,
    result: io::Result<()>,
}

impl<'w, W: Write> Out<'w, W> {
    fn new(w: &'w mut W) -> Self {
        Out { w, result: Ok(()) }
    }

    #[inline]
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        if self.result.is_ok() {
            self.result = self.w.write_all(bytes);
        }
        self
    }

    #[inline]
    fn s(&mut self, text: &str) -> &mut Self {
        self.bytes(text.as_bytes())
    }

    #[inline]
    fn n(&mut self, mut v: u64) -> &mut Self {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.bytes(&buf[i..])
    }

    /// A Chrome metadata event naming track `tid` (`name` is JSON).
    fn thread_name(&mut self, tid: u32, name: &str) -> &mut Self {
        self.s("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":")
            .n(tid as u64)
            .s(",\"args\":{\"name\":")
            .s(name)
            .s("}}")
    }

    fn finish(&mut self) -> io::Result<()> {
        std::mem::replace(&mut self.result, Ok(()))
    }
}

/// A payload number: decimal, or a flag (JSON `true`/`false`, CSV
/// `1`/`0`).
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(u64),
    Flag(bool),
}

/// An event's payload as both exporters print it: the label the event
/// names and up to four named numbers, in declaration order.
struct Payload {
    label: Option<(&'static str, LabelId)>,
    nums: [(&'static str, Num); 4],
    len: usize,
}

impl Payload {
    fn new(label: Option<(&'static str, LabelId)>, nums: &[(&'static str, Num)]) -> Self {
        let mut p = Payload {
            label,
            nums: [("", Num::Int(0)); 4],
            len: nums.len(),
        };
        p.nums[..nums.len()].copy_from_slice(nums);
        p
    }

    fn nums(&self) -> &[(&'static str, Num)] {
        &self.nums[..self.len]
    }
}

impl TraceEventKind {
    /// The payload the exporters print (the Chrome export draws
    /// [`TraceEventKind::Step`], [`TraceEventKind::BusGrant`] and
    /// [`TraceEventKind::Counter`] its own way).
    fn payload(&self) -> Payload {
        use Num::{Flag, Int};
        use TraceEventKind as K;
        let at = |key, id| Some((key, id));
        match *self {
            K::TaskSelected { task, switched } => {
                Payload::new(at("task", task), &[("switched", Flag(switched))])
            }
            K::TaskIdle | K::Sample | K::RunStart => Payload::new(None, &[]),
            K::SpaceGranted {
                port,
                bytes,
                space,
                hint,
            }
            | K::SpaceDenied {
                port,
                bytes,
                space,
                hint,
            } => Payload::new(
                None,
                &[
                    ("port", Int(port as u64)),
                    ("bytes", Int(bytes as u64)),
                    ("space", Int(space as u64)),
                    ("hint", Int(hint as u64)),
                ],
            ),
            K::PutSpaceSend {
                port,
                bytes,
                send_at,
            } => Payload::new(
                None,
                &[
                    ("port", Int(port as u64)),
                    ("bytes", Int(bytes as u64)),
                    ("send_at", Int(send_at)),
                ],
            ),
            K::PutSpaceRecv {
                row,
                bytes,
                unblocked,
            } => Payload::new(
                None,
                &[
                    ("row", Int(row as u64)),
                    ("bytes", Int(bytes as u64)),
                    ("unblocked", Flag(unblocked)),
                ],
            ),
            K::CacheInvalidate { row, lines }
            | K::CacheFlush { row, lines }
            | K::CachePrefetch { row, lines } => {
                Payload::new(None, &[("row", Int(row as u64)), ("lines", Int(lines))])
            }
            K::BusGrant { bytes, wait, busy } => Payload::new(
                None,
                &[
                    ("bytes", Int(bytes as u64)),
                    ("wait", Int(wait)),
                    ("busy", Int(busy)),
                ],
            ),
            K::BankGrant { bank, bytes, wait } => Payload::new(
                None,
                &[
                    ("bank", Int(bank as u64)),
                    ("bytes", Int(bytes as u64)),
                    ("wait", Int(wait)),
                ],
            ),
            K::SyncHop { hops, wait } => {
                Payload::new(None, &[("hops", Int(hops as u64)), ("wait", Int(wait))])
            }
            K::Step { task, busy, stall } => Payload::new(
                at("task", task),
                &[("busy", Int(busy)), ("stall", Int(stall))],
            ),
            K::SyncDeliver { bytes, latency } => Payload::new(
                None,
                &[("bytes", Int(bytes as u64)), ("latency", Int(latency))],
            ),
            K::RunEnd { outcome } => Payload::new(at("outcome", outcome), &[]),
            K::Counter { track, value } => {
                Payload::new(at("track", track), &[("value", Int(value))])
            }
            K::Fault { class, magnitude } => {
                Payload::new(at("class", class), &[("magnitude", Int(magnitude))])
            }
            K::AppMapped {
                app,
                sram_bytes,
                tasks,
            } => Payload::new(
                at("app", app),
                &[
                    ("sram_bytes", Int(sram_bytes as u64)),
                    ("tasks", Int(tasks as u64)),
                ],
            ),
            K::AppPaused { app } | K::AppResumed { app } => Payload::new(at("app", app), &[]),
            K::AppDrained { app, wait_cycles } => {
                Payload::new(at("app", app), &[("wait_cycles", Int(wait_cycles))])
            }
            K::AppUnmapped { app, sram_bytes } => {
                Payload::new(at("app", app), &[("sram_bytes", Int(sram_bytes as u64))])
            }
            K::StaleSyncRejected { row, bytes } => Payload::new(
                None,
                &[("row", Int(row as u64)), ("bytes", Int(bytes as u64))],
            ),
        }
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
///
/// Three fields close the section that a removed per-kind sampling policy
/// used to fill: a policy byte, an emission sequence and a per-kind count
/// list. The ring writes them as `0u8`, `0u64` and an empty list, so
/// checkpoint bytes and state hashes stay what they were, and loading
/// rejects anything else as corrupt.
impl Snapshot for TraceSink {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.enabled);
        w.u64(self.emitted);
        w.u64(self.dropped);
        self.labels.save(w);
        w.u8(0);
        w.u64(0);
        w.usize(0);
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
        if (r.u8()?, r.u64()?, r.usize()?) != (0, 0, 0) {
            return Err(SnapError::Corrupt("trace sampling state"));
        }
        self.clear();
        Ok(())
    }
}

/// A label as one CSV field: quoted, with every quote doubled, when it
/// holds a comma, a quote or a line break; as it is otherwise.
fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
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

    /// One event of every kind, on a unit whose label needs every JSON
    /// escape the exporters apply.
    fn every_kind_sink() -> TraceSink {
        let mut s = TraceSink::new(64);
        let odd = s.intern("odd \"q\" \\ nl\n tab\t ctl\u{1}");
        let u = s.intern("shell/vld");
        let task = s.intern("dec0.vld");
        let other = s.intern("system");
        let kinds = [
            TraceEventKind::TaskSelected {
                task,
                switched: true,
            },
            TraceEventKind::TaskIdle,
            TraceEventKind::SpaceGranted {
                port: 1,
                bytes: 64,
                space: 128,
                hint: 32,
            },
            TraceEventKind::SpaceDenied {
                port: 2,
                bytes: 96,
                space: 16,
                hint: 0,
            },
            TraceEventKind::PutSpaceSend {
                port: 0,
                bytes: 48,
                send_at: 1_234,
            },
            TraceEventKind::PutSpaceRecv {
                row: 3,
                bytes: 48,
                unblocked: false,
            },
            TraceEventKind::CacheInvalidate { row: 4, lines: 2 },
            TraceEventKind::CacheFlush { row: 5, lines: 3 },
            TraceEventKind::CachePrefetch { row: 6, lines: 1 },
            TraceEventKind::BusGrant {
                bytes: 64,
                wait: 7,
                busy: 8,
            },
            TraceEventKind::BankGrant {
                bank: 2,
                bytes: 32,
                wait: 1,
            },
            TraceEventKind::SyncHop { hops: 3, wait: 9 },
            TraceEventKind::Step {
                task: odd,
                busy: 40,
                stall: 2,
            },
            TraceEventKind::SyncDeliver {
                bytes: 16,
                latency: 11,
            },
            TraceEventKind::Sample,
            TraceEventKind::RunStart,
            TraceEventKind::RunEnd { outcome: odd },
            TraceEventKind::Counter {
                track: odd,
                value: 77,
            },
            TraceEventKind::Fault {
                class: other,
                magnitude: u64::MAX,
            },
            TraceEventKind::AppMapped {
                app: odd,
                sram_bytes: 4_096,
                tasks: 5,
            },
            TraceEventKind::AppPaused { app: task },
            TraceEventKind::AppResumed { app: task },
            TraceEventKind::AppDrained {
                app: task,
                wait_cycles: 12,
            },
            TraceEventKind::AppUnmapped {
                app: task,
                sram_bytes: 4_096,
            },
            TraceEventKind::StaleSyncRejected { row: 7, bytes: 24 },
        ];
        assert_eq!(kinds.len(), KIND_COUNT);
        for (i, kind) in kinds.into_iter().enumerate() {
            let unit = if i % 2 == 0 { u } else { odd };
            s.emit(TraceEvent {
                cycle: 10 * i as u64,
                unit,
                kind,
            });
        }
        s
    }

    // The exact export of `every_kind_sink`. Chrome JSON escapes labels;
    // the CSV quotes the one holding quotes and a line break.
    const EXPECTED_JSON: &str = r#"[
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"shell/vld"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"odd \"q\" \\ nl\n tab\t ctl\u0001"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1048576,"args":{"name":"task/odd \"q\" \\ nl\n tab\t ctl\u0001"}},
{"name":"task_selected","cat":"shell","ph":"i","ts":0,"pid":0,"tid":1,"s":"t","args":{"task":"dec0.vld","switched":true}},
{"name":"task_idle","cat":"shell","ph":"i","ts":10,"pid":0,"tid":0,"s":"t","args":{}},
{"name":"getspace_grant","cat":"shell","ph":"i","ts":20,"pid":0,"tid":1,"s":"t","args":{"port":1,"bytes":64,"space":128,"hint":32}},
{"name":"getspace_deny","cat":"shell","ph":"i","ts":30,"pid":0,"tid":0,"s":"t","args":{"port":2,"bytes":96,"space":16,"hint":0}},
{"name":"putspace_send","cat":"shell","ph":"i","ts":40,"pid":0,"tid":1,"s":"t","args":{"port":0,"bytes":48,"send_at":1234}},
{"name":"putspace_recv","cat":"shell","ph":"i","ts":50,"pid":0,"tid":0,"s":"t","args":{"row":3,"bytes":48,"unblocked":false}},
{"name":"cache_invalidate","cat":"shell","ph":"i","ts":60,"pid":0,"tid":1,"s":"t","args":{"row":4,"lines":2}},
{"name":"cache_flush","cat":"shell","ph":"i","ts":70,"pid":0,"tid":0,"s":"t","args":{"row":5,"lines":3}},
{"name":"cache_prefetch","cat":"shell","ph":"i","ts":80,"pid":0,"tid":1,"s":"t","args":{"row":6,"lines":1}},
{"name":"xfer 64B","cat":"bus","ph":"X","ts":90,"dur":8,"pid":0,"tid":0,"args":{"bytes":64,"wait":7}},
{"name":"bank_grant","cat":"shell","ph":"i","ts":100,"pid":0,"tid":1,"s":"t","args":{"bank":2,"bytes":32,"wait":1}},
{"name":"sync_hop","cat":"shell","ph":"i","ts":110,"pid":0,"tid":0,"s":"t","args":{"hops":3,"wait":9}},
{"name":"odd \"q\" \\ nl\n tab\t ctl\u0001","cat":"step","ph":"X","ts":120,"dur":42,"pid":0,"tid":1048576,"args":{"busy":40,"stall":2,"shell":"shell/vld"}},
{"name":"sync_deliver","cat":"shell","ph":"i","ts":130,"pid":0,"tid":0,"s":"t","args":{"bytes":16,"latency":11}},
{"name":"sample","cat":"shell","ph":"i","ts":140,"pid":0,"tid":1,"s":"t","args":{}},
{"name":"run_start","cat":"shell","ph":"i","ts":150,"pid":0,"tid":0,"s":"t","args":{}},
{"name":"run_end","cat":"shell","ph":"i","ts":160,"pid":0,"tid":1,"s":"t","args":{"outcome":"odd \"q\" \\ nl\n tab\t ctl\u0001"}},
{"name":"odd \"q\" \\ nl\n tab\t ctl\u0001","cat":"counter","ph":"C","ts":170,"pid":0,"tid":0,"args":{"value":77}},
{"name":"fault","cat":"shell","ph":"i","ts":180,"pid":0,"tid":1,"s":"t","args":{"class":"system","magnitude":18446744073709551615}},
{"name":"app_mapped","cat":"shell","ph":"i","ts":190,"pid":0,"tid":0,"s":"t","args":{"app":"odd \"q\" \\ nl\n tab\t ctl\u0001","sram_bytes":4096,"tasks":5}},
{"name":"app_paused","cat":"shell","ph":"i","ts":200,"pid":0,"tid":1,"s":"t","args":{"app":"dec0.vld"}},
{"name":"app_resumed","cat":"shell","ph":"i","ts":210,"pid":0,"tid":0,"s":"t","args":{"app":"dec0.vld"}},
{"name":"app_drained","cat":"shell","ph":"i","ts":220,"pid":0,"tid":1,"s":"t","args":{"app":"dec0.vld","wait_cycles":12}},
{"name":"app_unmapped","cat":"shell","ph":"i","ts":230,"pid":0,"tid":0,"s":"t","args":{"app":"dec0.vld","sram_bytes":4096}},
{"name":"stale_sync_rejected","cat":"shell","ph":"i","ts":240,"pid":0,"tid":1,"s":"t","args":{"row":7,"bytes":24}}
]
"#;

    const EXPECTED_CSV: &str = concat!(
        "cycle,unit,event,detail,a,b,c\n",
        "0,shell/vld,task_selected,dec0.vld,1,,\n",
        "10,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",task_idle,,,,\n",
        "20,shell/vld,getspace_grant,,1,64,128/32\n",
        "30,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",getspace_deny,,2,96,16/0\n",
        "40,shell/vld,putspace_send,,0,48,1234\n",
        "50,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",putspace_recv,,3,48,0\n",
        "60,shell/vld,cache_invalidate,,4,2,\n",
        "70,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",cache_flush,,5,3,\n",
        "80,shell/vld,cache_prefetch,,6,1,\n",
        "90,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",bus_grant,,64,7,8\n",
        "100,shell/vld,bank_grant,,2,32,1\n",
        "110,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",sync_hop,,3,9,\n",
        "120,shell/vld,step,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",40,2,\n",
        "130,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",sync_deliver,,16,11,\n",
        "140,shell/vld,sample,,,,\n",
        "150,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",run_start,,,,\n",
        "160,shell/vld,run_end,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",,,\n",
        "170,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",counter,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",77,,\n",
        "180,shell/vld,fault,system,18446744073709551615,,\n",
        "190,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",app_mapped,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",4096,5,\n",
        "200,shell/vld,app_paused,dec0.vld,,,\n",
        "210,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",app_resumed,dec0.vld,,,\n",
        "220,shell/vld,app_drained,dec0.vld,12,,\n",
        "230,\"odd \"\"q\"\" \\ nl\n tab\t ctl\u{1}\",app_unmapped,dec0.vld,4096,,\n",
        "240,shell/vld,stale_sync_rejected,,7,24,\n",
    );

    #[test]
    fn export_bytes_are_pinned() {
        let s = every_kind_sink();
        assert_eq!(s.to_chrome_trace(), EXPECTED_JSON);
        assert_eq!(s.to_csv(), EXPECTED_CSV);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("dec0.vld"), "dec0.vld");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("x\ry"), "\"x\ry\"");
    }

    /// The bytes a ring sink's checkpoint section has always had.
    fn ring_section(enabled: bool, emitted: u64, dropped: u64, labels: &[&str]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.bool(enabled);
        w.u64(emitted);
        w.u64(dropped);
        w.usize(labels.len());
        for label in labels {
            w.str(label);
        }
        w.u8(0);
        w.u64(0);
        w.usize(0);
        w.into_bytes()
    }

    #[test]
    fn snapshot_bytes_are_the_ring_format() {
        let mut s = TraceSink::new(2);
        let u = s.intern("u");
        s.intern("v");
        for cycle in 0..3 {
            let kind = TraceEventKind::Sample;
            s.emit(TraceEvent {
                cycle,
                unit: u,
                kind,
            });
        }
        let mut w = SnapWriter::new();
        s.save(&mut w);
        assert_eq!(w.into_bytes(), ring_section(true, 3, 1, &["u", "v"]));

        let mut restored = TraceSink::new(4);
        let bytes = ring_section(false, 9, 4, &["a", "b"]);
        restored.load(&mut SnapReader::new(&bytes)).unwrap();
        assert!(!restored.enabled());
        assert_eq!((restored.emitted(), restored.dropped()), (9, 4));
        assert_eq!(restored.intern("b"), LabelId(1));
        assert!(restored.is_empty());
    }

    #[test]
    fn sampling_state_in_a_checkpoint_is_corrupt() {
        let good = ring_section(true, 0, 0, &["u"]);
        // The policy byte, then the emission sequence's low byte, then
        // the per-kind count's low byte.
        let policy = good.len() - 17;
        for at in [policy, policy + 1, policy + 9] {
            let mut bytes = good.clone();
            bytes[at] = 1;
            let mut sink = TraceSink::new(4);
            assert_eq!(
                sink.load(&mut SnapReader::new(&bytes)),
                Err(SnapError::Corrupt("trace sampling state")),
                "byte {at}"
            );
        }
        let mut sink = TraceSink::new(4);
        assert_eq!(sink.load(&mut SnapReader::new(&good)), Ok(()));
    }

    /// An event of kind `tag` whose label fields name `label` and whose
    /// numbers are `n(0)`, `n(1)`, ... in declaration order (truncated
    /// where a field is 32 bits wide).
    fn arbitrary_kind(tag: u8, n: impl Fn(usize) -> u64, label: LabelId) -> TraceEventKind {
        use TraceEventKind as K;
        let w = |i| n(i) as u32;
        match tag {
            0 => K::TaskSelected {
                task: label,
                switched: n(0) & 1 == 1,
            },
            1 => K::TaskIdle,
            2 => K::SpaceGranted {
                port: w(0),
                bytes: w(1),
                space: w(2),
                hint: w(3),
            },
            3 => K::SpaceDenied {
                port: w(0),
                bytes: w(1),
                space: w(2),
                hint: w(3),
            },
            4 => K::PutSpaceSend {
                port: w(0),
                bytes: w(1),
                send_at: n(2),
            },
            5 => K::PutSpaceRecv {
                row: w(0),
                bytes: w(1),
                unblocked: n(2) & 1 == 1,
            },
            6 => K::CacheInvalidate {
                row: w(0),
                lines: n(1),
            },
            7 => K::CacheFlush {
                row: w(0),
                lines: n(1),
            },
            8 => K::CachePrefetch {
                row: w(0),
                lines: n(1),
            },
            9 => K::BusGrant {
                bytes: w(0),
                wait: n(1),
                busy: n(2),
            },
            10 => K::BankGrant {
                bank: w(0),
                bytes: w(1),
                wait: n(2),
            },
            11 => K::SyncHop {
                hops: w(0),
                wait: n(1),
            },
            12 => K::Step {
                task: label,
                busy: n(0),
                stall: n(1),
            },
            13 => K::SyncDeliver {
                bytes: w(0),
                latency: n(1),
            },
            14 => K::Sample,
            15 => K::RunStart,
            16 => K::RunEnd { outcome: label },
            17 => K::Counter {
                track: label,
                value: n(0),
            },
            18 => K::Fault {
                class: label,
                magnitude: n(0),
            },
            19 => K::AppMapped {
                app: label,
                sram_bytes: w(0),
                tasks: w(1),
            },
            20 => K::AppPaused { app: label },
            21 => K::AppResumed { app: label },
            22 => K::AppDrained {
                app: label,
                wait_cycles: n(0),
            },
            23 => K::AppUnmapped {
                app: label,
                sram_bytes: w(0),
            },
            _ => K::StaleSyncRejected {
                row: w(0),
                bytes: w(1),
            },
        }
    }

    #[test]
    fn every_tag_is_its_kind() {
        for tag in 0..KIND_COUNT as u8 {
            assert_eq!(arbitrary_kind(tag, |_| 0, LabelId(0)).tag(), tag);
        }
    }

    /// The ring as it was stored before the byte log: a deque of events.
    struct OracleRing {
        events: VecDeque<TraceEvent>,
        capacity: usize,
        enabled: bool,
        emitted: u64,
        dropped: u64,
    }

    impl OracleRing {
        fn emit(&mut self, event: TraceEvent) {
            if !self.enabled {
                return;
            }
            if self.events.len() == self.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(event);
            self.emitted += 1;
        }
    }

    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The log keeps what a deque of events keeps. Each op is
        /// `(what, tag, select, raw, step)`: most emit an event of kind
        /// `tag`, a few clear the ring or switch collection on or off.
        /// `select` picks each number from 0, `u32::MAX`, `u64::MAX` and
        /// a raw draw, the cycle from a raw draw, a small step back or
        /// forward, 0 and `u64::MAX`, and the unit and label.
        #[test]
        fn log_matches_a_deque_of_events(
            capacity in 1usize..=64,
            ops in proptest::collection::vec(
                (0u8..100, 0u8..KIND_COUNT as u8, any::<u64>(), any::<u64>(), any::<u64>()),
                0..160,
            ),
        ) {
            let names = ["shell/vld", "a,b", "q\"uote\"", "nl\nx", "dec0.vld"];
            let mut sink = TraceSink::new(capacity);
            let labels: Vec<LabelId> = names.iter().map(|n| sink.intern(n)).collect();
            let mut oracle = OracleRing {
                events: VecDeque::new(),
                capacity,
                enabled: true,
                emitted: 0,
                dropped: 0,
            };
            let mut cycle = 0u64;
            for (what, tag, select, raw, step) in ops {
                match what {
                    0..=84 => {
                        let n = |i: usize| match select >> (2 * i) & 3 {
                            0 => 0,
                            1 => u32::MAX as u64,
                            2 => u64::MAX,
                            _ => raw.rotate_left(16 * i as u32),
                        };
                        cycle = match select >> 8 & 3 {
                            0 => step,
                            1 => cycle.wrapping_add(step % 32).wrapping_sub(8),
                            2 => 0,
                            _ => u64::MAX,
                        };
                        let pick = |shift: u32| labels[(select >> shift) as usize % labels.len()];
                        let event = TraceEvent {
                            cycle,
                            unit: pick(16),
                            kind: arbitrary_kind(tag, n, pick(24)),
                        };
                        sink.emit(event);
                        oracle.emit(event);
                    }
                    85..=91 => {
                        sink.clear();
                        oracle.events.clear();
                    }
                    _ => {
                        let on = select & 1 == 1;
                        sink.set_enabled(on);
                        oracle.enabled = on;
                    }
                }
                let kept: Vec<TraceEvent> = sink.events().collect();
                prop_assert!(kept.iter().eq(oracle.events.iter()));
                prop_assert_eq!(sink.len(), oracle.events.len());
                prop_assert_eq!(sink.emitted(), oracle.emitted);
                prop_assert_eq!(sink.dropped(), oracle.dropped);
            }
            let mut counts: HashMap<&'static str, u64> = HashMap::new();
            for e in &oracle.events {
                *counts.entry(e.kind.name()).or_insert(0) += 1;
            }
            let mut counts: Vec<_> = counts.into_iter().collect();
            counts.sort_by_key(|&(name, _)| name);
            prop_assert_eq!(sink.counts_by_kind(), counts);
            // A fresh sink holding exactly the deque's events exports
            // what the ring does.
            let mut fresh = TraceSink::new(oracle.events.len());
            for n in names {
                fresh.intern(n);
            }
            for &e in &oracle.events {
                fresh.emit(e);
            }
            prop_assert_eq!(sink.to_csv(), fresh.to_csv());
            prop_assert_eq!(sink.to_chrome_trace(), fresh.to_chrome_trace());
        }
    }
}
