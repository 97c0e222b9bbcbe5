//! The traced pass: per-layer work counts from traced ops, and per-layer
//! host time estimated by timing each layer's public functions in
//! isolation. A `*.share_pct` is the op's count of a layer's operations
//! times that layer's isolated ns per operation, as a percentage of the
//! untraced median op time: an estimate from outside, not a measured span,
//! so shares may overlap (a stream handoff includes its sync route and
//! fabric fetches) and `unattributed.share_pct` may go negative.

use std::hint::black_box;
use std::time::Duration;

use eclipse_core::{EclipseConfig, EclipseSystem, TraceLog};
use eclipse_mem::CyclicBuffer;
use eclipse_shell::{
    AccessPoint, MemSys, PortDir, RowIdx, Shell, ShellConfig, ShellId, StreamRowConfig,
    SyncFabricConfig, TaskConfig, TaskIdx,
};
use eclipse_sim::Calendar;

use crate::inputs::PACKET;
use crate::stats::{median, median_ms, Span};
use crate::workloads::{check_op, measure, Measured, Ready, Workload, MAX_CYCLES};

/// Per-layer metric values by name.
pub type Values = Vec<(String, f64)>;

/// Every per-layer metric of the in-process workloads, with its unit.
pub const METRICS: [(&str, &str); 38] = [
    ("sim.cycles", "cycles"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("run_loop.events", "count"),
    ("run_loop.ns_per_event", "ns"),
    ("calendar.ns_per_op", "ns"),
    ("calendar.share_pct", "%"),
    ("gettask.calls", "count"),
    ("gettask.idle_pct", "%"),
    ("getspace.calls", "count"),
    ("getspace.deny_pct", "%"),
    ("putspace.msgs", "count"),
    ("stream.ns_per_handoff", "ns"),
    ("stream.share_pct", "%"),
    ("sync.msgs", "count"),
    ("sync.latency_cycles", "cycles"),
    ("sync.ns_per_route", "ns"),
    ("cache.hit_pct", "%"),
    ("cache.prefetches", "count"),
    ("cache.stall_cycles", "cycles"),
    ("fabric.grants", "count"),
    ("fabric.wait_cycles", "cycles"),
    ("fabric.ns_per_fetch64", "ns"),
    ("fabric.share_pct", "%"),
    ("media.ref_ms", "ms"),
    ("media.share_pct", "%"),
    ("sample.records", "count"),
    ("sample.ns_per_record", "ns"),
    ("sample.share_pct", "%"),
    ("trace.events", "count"),
    ("trace.overhead_pct", "%"),
    ("snapshot.bytes", "B"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.hash_ms", "ms"),
    ("snapshot.share_pct", "%"),
    ("build.ms", "ms"),
    ("build.share_pct", "%"),
    ("unattributed.share_pct", "%"),
];

/// Traced ops run for the overhead median; the first one gives the counts.
const TRACED_OPS: usize = 5;
/// Event ring large enough that no traced op drops an event.
const TRACE_CAPACITY: usize = 1 << 26;

/// Work counters summed over the whole system. Restoring a checkpoint
/// restores them too, so an op's counts are the difference across it.
#[derive(Clone, Copy, Default)]
struct Counters {
    gettask_calls: u64,
    gettask_runs: u64,
    getspace_calls: u64,
    getspace_denied: u64,
    /// Commits on producer rows: one per packet handed downstream.
    handoffs: u64,
    putspace_msgs: u64,
    cache_hits: u64,
    cache_misses: u64,
    prefetches: u64,
    stall_cycles: u64,
    grants: u64,
    wait_cycles: f64,
    records: u64,
}

impl Counters {
    fn of(sys: &EclipseSystem) -> Self {
        let mut c = Counters::default();
        for shell in sys.shells() {
            c.gettask_calls += shell.stats.gettask_calls;
            c.gettask_runs += shell.stats.gettask_runs;
            c.putspace_msgs += shell.stats.messages_sent;
            for row in shell.rows() {
                c.getspace_calls += row.stats.getspace_calls;
                c.getspace_denied += row.stats.getspace_denied;
                if row.dir == PortDir::Producer {
                    c.handoffs += row.stats.putspace_calls;
                }
            }
            for cache in shell.caches() {
                c.cache_hits += cache.stats.hits;
                c.cache_misses += cache.stats.misses;
                c.prefetches += cache.stats.prefetches;
                c.stall_cycles += cache.stats.stall_cycles;
            }
        }
        for port in sys.data_fabric().ports() {
            c.grants += port.stats.transactions;
            c.wait_cycles += port.stats.wait.sum();
        }
        c.records = sys
            .trace()
            .series
            .iter()
            .map(|s| s.points.len() as u64)
            .sum();
        c
    }

    fn since(self, before: Counters) -> Self {
        Counters {
            gettask_calls: self.gettask_calls - before.gettask_calls,
            gettask_runs: self.gettask_runs - before.gettask_runs,
            getspace_calls: self.getspace_calls - before.getspace_calls,
            getspace_denied: self.getspace_denied - before.getspace_denied,
            handoffs: self.handoffs - before.handoffs,
            putspace_msgs: self.putspace_msgs - before.putspace_msgs,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            prefetches: self.prefetches - before.prefetches,
            stall_cycles: self.stall_cycles - before.stall_cycles,
            grants: self.grants - before.grants,
            wait_cycles: self.wait_cycles - before.wait_cycles,
            records: self.records - before.records,
        }
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Median over 5 repetitions of the ns per call of `f(i)` over `iters`
/// calls.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Span::start();
            for i in 0..iters {
                f(black_box(i));
            }
            t.cpu_ms() * 1e6 / iters as f64
        })
        .collect();
    median(&reps)
}

/// `Calendar` schedule + pop with `in_flight` events pending.
fn calendar_ns(in_flight: usize) -> f64 {
    let mut cal = Calendar::<u64>::new();
    for i in 0..in_flight as u64 {
        cal.schedule_keyed_at(i, i, i);
    }
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    ns_per_iter(200_000, |_| {
        let (now, ev) = cal.pop().expect("events stay in flight");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cal.schedule_keyed_at(now + x % 512, ev, ev);
    })
}

/// `SyncFabric::route` on the default (direct) network.
fn route_ns(shells: usize) -> f64 {
    let n = shells.max(2) as u64;
    let mut fabric = SyncFabricConfig::Direct.build(n as usize);
    let mut acc = 0;
    let ns = ns_per_iter(1_000_000, |i| {
        acc ^= fabric.route(i, ShellId((i % n) as u16), ShellId(((i + 1) % n) as u16), 4);
    });
    black_box(acc);
    ns
}

/// `MemSys::fetch` of one 64-byte line over the default shared bus.
fn fetch64_ns() -> f64 {
    let cfg = EclipseConfig::default();
    let mut mem = MemSys::shared_bus(cfg.sram, cfg.read_bus, cfg.write_bus);
    let lines = cfg.sram.size / 64;
    let mut line = [0u8; 64];
    let mut now = 0;
    ns_per_iter(500_000, |i| {
        now = mem.fetch(0, now, (i as u32 % lines) * 64, &mut line);
    })
}

fn shell_with_row(id: u16, dir: PortDir, remote: u16, cfg: ShellConfig) -> Shell {
    let mut shell = Shell::new(ShellId(id), cfg);
    let row = shell.add_stream_row(StreamRowConfig {
        buffer: CyclicBuffer::new(0, 256),
        dir,
        remotes: vec![AccessPoint {
            shell: ShellId(remote),
            row: RowIdx(0),
        }],
    });
    shell.add_task(TaskConfig {
        name: format!("t{id}"),
        budget: cfg.gettask_cost.max(1) * 1000,
        task_info: 0,
        ports: vec![row],
        space_hints: vec![0],
    });
    shell
}

/// One packet through two standalone shells over a 256-byte stream:
/// `get_space`/`write`/`put_space` → `SyncFabric::route` →
/// `deliver_putspace` → `get_space`/`read`/`put_space`, and the credit
/// back to the producer.
fn handoff_ns() -> f64 {
    let cfg = EclipseConfig::default();
    let mut mem = MemSys::shared_bus(cfg.sram, cfg.read_bus, cfg.write_bus);
    let mut sync = SyncFabricConfig::Direct.build(2);
    let mut producer = shell_with_row(0, PortDir::Producer, 1, cfg.shell);
    let mut consumer = shell_with_row(1, PortDir::Consumer, 0, cfg.shell);
    let task = TaskIdx(0);
    let payload = [0x5Au8; PACKET as usize];
    let mut got = [0u8; PACKET as usize];
    let mut now = 0;
    ns_per_iter(50_000, |_| {
        assert!(producer.get_space(task, 0, PACKET, now));
        now = producer.write(task, 0, 0, &payload, now, &mut mem);
        for m in producer.put_space(task, 0, PACKET, now, &mut mem).msgs {
            now = sync.route(
                m.send_at.max(now),
                m.src.shell,
                m.dst.shell,
                cfg.shell.sync_latency,
            );
            consumer.deliver_putspace(&m, now);
        }
        assert!(consumer.get_space(task, 0, PACKET, now));
        now = consumer.read(task, 0, 0, &mut got, now, &mut mem);
        for m in consumer.put_space(task, 0, PACKET, now, &mut mem).msgs {
            now = sync.route(
                m.send_at.max(now),
                m.src.shell,
                m.dst.shell,
                cfg.shell.sync_latency,
            );
            producer.deliver_putspace(&m, now);
        }
    })
}

/// `TraceLog::record` round-robin over `names` (the series one op samples).
fn record_ns(names: &[String]) -> f64 {
    if names.is_empty() {
        return 0.0;
    }
    let mut log = TraceLog::new();
    ns_per_iter(100_000, |i| {
        log.record(&names[i as usize % names.len()], i, i as f64)
    })
}

/// The per-layer metrics of workload `r`. Runs untraced ops for half the
/// `budget` (their median is the base of every share), then the traced
/// ops, then the isolated layer timings.
pub fn traced<W: Workload>(r: &Ready<W>, budget: Duration) -> Result<(Measured, Values), String> {
    let untraced = measure(r, budget / 2, 5, None);
    let p50_ms = median(&untraced.cpu_ms);
    if p50_ms == 0.0 {
        return Err(untraced
            .first_error
            .unwrap_or_else(|| "no untraced op passed its check".into()));
    }
    let p50_ns = p50_ms * 1e6;

    let mut traced_ms = Vec::new();
    let mut first = None;
    for _ in 0..TRACED_OPS {
        let t = Span::start();
        let mut inst = r.w.prepare()?;
        let before = Counters::of(inst.sys());
        let sink = inst.sys_mut().enable_tracing(TRACE_CAPACITY);
        let summary = inst.sys_mut().run(MAX_CYCLES);
        traced_ms.push(t.cpu_ms());
        check_op(&r.w, Some(r.cycles), &inst, &summary).map_err(|e| format!("traced op: {e}"))?;
        if first.is_none() {
            let sink = sink.borrow();
            if sink.dropped() > 0 {
                return Err(format!("trace ring dropped {} events", sink.dropped()));
            }
            first = Some((inst, summary, before, sink.counts_by_kind(), sink.emitted()));
        }
    }
    let (inst, summary, before, kinds, emitted) = first.expect("at least one traced op");
    let sys = inst.sys();
    let c = Counters::of(sys).since(before);
    let kind = |k: &str| {
        kinds
            .iter()
            .find(|(name, _)| *name == k)
            .map_or(0, |&(_, n)| n) as f64
    };
    let events = kind("task_selected") + kind("task_idle") + kind("sync_deliver") + kind("sample");
    let names: Vec<String> = sys.trace().series.iter().map(|s| s.name.clone()).collect();

    let start = r.w.checkpoint().map_or(0, |ck| ck.mid);
    let cycles = (r.cycles - start) as f64;
    let calendar_ns = calendar_ns(sys.shells().len() + 8);
    let handoff_ns = handoff_ns();
    let fetch_ns = fetch64_ns();
    let record_ns = record_ns(&names);
    let build_ms = median_ms(5, || r.w.build());
    let media_ms = if W::MEDIA {
        median_ms(3, || r.w.media_reference())
    } else {
        0.0
    };
    let (snap_bytes, save_ms, restore_ms, hash_ms) = match r.w.checkpoint() {
        None => (0.0, 0.0, 0.0, 0.0),
        Some(ck) => {
            let mut mid = r.w.build();
            if mid.sys_mut().run_until(ck.mid).is_some() {
                return Err("checkpoint midpoint not reached".into());
            }
            let save_ms = median_ms(3, || mid.sys().save());
            let mut restores = Vec::new();
            for _ in 0..3 {
                let mut fresh = r.w.build();
                let t = Span::start();
                fresh
                    .sys_mut()
                    .restore(&ck.blob)
                    .map_err(|e| format!("restore failed: {e:?}"))?;
                restores.push(t.cpu_ms());
            }
            let hash_ms = median_ms(3, || mid.sys().state_hash());
            (ck.blob.len() as f64, save_ms, median(&restores), hash_ms)
        }
    };

    let shares = [
        ("calendar.share_pct", pct(events * calendar_ns, p50_ns)),
        (
            "stream.share_pct",
            pct(c.handoffs as f64 * handoff_ns, p50_ns),
        ),
        ("fabric.share_pct", pct(c.grants as f64 * fetch_ns, p50_ns)),
        // The fork op simulates only the cycles after its checkpoint.
        (
            "media.share_pct",
            pct(media_ms * cycles / r.cycles as f64, p50_ms),
        ),
        (
            "sample.share_pct",
            pct(c.records as f64 * record_ns, p50_ns),
        ),
        ("snapshot.share_pct", pct(restore_ms + hash_ms, p50_ms)),
        ("build.share_pct", pct(build_ms, p50_ms)),
    ];
    let mut metrics = vec![
        ("sim.cycles", cycles),
        ("sim.mcycles_per_s", cycles / p50_ms / 1e3),
        ("run_loop.events", events),
        ("run_loop.ns_per_event", p50_ns / events),
        ("calendar.ns_per_op", calendar_ns),
        ("gettask.calls", c.gettask_calls as f64),
        (
            "gettask.idle_pct",
            pct(
                (c.gettask_calls - c.gettask_runs) as f64,
                c.gettask_calls as f64,
            ),
        ),
        ("getspace.calls", c.getspace_calls as f64),
        (
            "getspace.deny_pct",
            pct(c.getspace_denied as f64, c.getspace_calls as f64),
        ),
        ("putspace.msgs", c.putspace_msgs as f64),
        ("stream.ns_per_handoff", handoff_ns),
        ("sync.msgs", kind("sync_deliver")),
        ("sync.latency_cycles", summary.sync_latency.stat().mean()),
        ("sync.ns_per_route", route_ns(sys.shells().len())),
        (
            "cache.hit_pct",
            pct(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        ("cache.prefetches", c.prefetches as f64),
        ("cache.stall_cycles", c.stall_cycles as f64),
        ("fabric.grants", c.grants as f64),
        ("fabric.wait_cycles", c.wait_cycles),
        ("fabric.ns_per_fetch64", fetch_ns),
        ("media.ref_ms", media_ms),
        ("sample.records", c.records as f64),
        ("sample.ns_per_record", record_ns),
        ("trace.events", emitted as f64),
        (
            "trace.overhead_pct",
            pct(median(&traced_ms) - p50_ms, p50_ms),
        ),
        ("snapshot.bytes", snap_bytes),
        ("snapshot.save_ms", save_ms),
        ("snapshot.restore_ms", restore_ms),
        ("snapshot.hash_ms", hash_ms),
        ("build.ms", build_ms),
        (
            "unattributed.share_pct",
            100.0 - shares.iter().map(|&(_, s)| s).sum::<f64>(),
        ),
    ];
    metrics.extend(shares);
    let values = metrics.into_iter().map(|(n, v)| (n.to_string(), v));
    Ok((untraced, values.collect()))
}
