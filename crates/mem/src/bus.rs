//! Shared, arbitrated data buses.
//!
//! The Eclipse instance of the paper connects all shells to the central
//! SRAM through a wide (128-bit) shared bus pair — one read bus and one
//! write bus, each at the coprocessor clock (Section 6). The VLD and MC/ME
//! coprocessors additionally own ports on the off-chip *system* bus.
//!
//! The model is transaction-level: a requester asks for `bytes` at time
//! `now`; the bus serializes transactions in arrival order (the calendar's
//! deterministic ordering doubles as the arbiter), so a transaction starts
//! at `max(now, bus free)` and occupies `ceil(bytes/width)` beats. The
//! returned [`Transfer`] tells the caller both when its data is complete
//! and how long it waited on arbitration — the wait is the contention the
//! design-space experiments (E4) measure.

use eclipse_sim::stats::RunningStat;
use eclipse_sim::trace::{SharedTraceSink, TraceEventKind, TraceHandle};
use eclipse_sim::Cycle;

/// Static bus parameters.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Data path width in bytes per beat (paper instance: 16 = 128 bits).
    pub width_bytes: u32,
    /// Fixed latency from grant to first data beat, in cycles
    /// (address/arbitration pipeline depth).
    pub latency: u64,
    /// Cycles per beat (1 = full base clock rate).
    pub cycles_per_beat: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            width_bytes: 16,
            latency: 1,
            cycles_per_beat: 1,
        }
    }
}

/// The outcome of a bus request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Cycle at which the transaction was granted (first beat issued).
    pub start: Cycle,
    /// Cycle at which the last data beat completed — data is usable from
    /// this time on.
    pub done: Cycle,
    /// Cycles spent waiting for the bus (start - request time).
    pub wait: Cycle,
}

/// Cumulative bus statistics.
#[derive(Debug, Clone, Default)]
pub struct BusStats {
    /// Total transactions carried.
    pub transactions: u64,
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Total cycles the bus was occupied by beats.
    pub busy_cycles: Cycle,
    /// Arbitration wait per transaction.
    pub wait: RunningStat,
}

eclipse_sim::snap_fields!(BusStats {
    transactions,
    bytes,
    busy_cycles,
    wait
});

/// A shared bus with in-order arbitration.
#[derive(Debug, Clone)]
pub struct Bus {
    cfg: BusConfig,
    name: &'static str,
    next_free: Cycle,
    stats: BusStats,
    trace: Option<TraceHandle>,
    /// `log2(width_bytes)` when the width is a power of two (it is for
    /// every paper configuration), letting `beats` avoid a runtime divide.
    width_shift: Option<u32>,
}

impl Bus {
    /// A new idle bus.
    pub fn new(name: &'static str, cfg: BusConfig) -> Self {
        let width_shift =
            (cfg.width_bytes.is_power_of_two()).then(|| cfg.width_bytes.trailing_zeros());
        Bus {
            cfg,
            name,
            next_free: 0,
            stats: BusStats::default(),
            trace: None,
            width_shift,
        }
    }

    /// Connect this bus to a shared event-trace sink; every grant emits a
    /// [`TraceEventKind::BusGrant`] with its arbitration wait.
    pub fn attach_trace(&mut self, sink: &SharedTraceSink) {
        self.trace = Some(TraceHandle::new(sink, &format!("bus/{}", self.name)));
    }

    /// Bus name for reporting ("read", "write", "system").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Static configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// The arbitration horizon: the earliest cycle a fresh request can
    /// be granted. A value beyond "now" means a transfer is in flight.
    pub fn busy_until(&self) -> Cycle {
        self.next_free
    }

    /// Number of beats a payload of `bytes` occupies.
    #[inline]
    pub fn beats(&self, bytes: u32) -> u64 {
        match self.width_shift {
            Some(s) => ((bytes as u64) + (self.cfg.width_bytes as u64 - 1)) >> s,
            None => (bytes as u64).div_ceil(self.cfg.width_bytes as u64),
        }
    }

    /// Request a transfer of `bytes` at time `now`.
    ///
    /// Transactions are granted in request order; the data path is
    /// pipelined so the fixed `latency` of a transaction overlaps the beats
    /// of the previous one.
    #[inline]
    pub fn request(&mut self, now: Cycle, bytes: u32) -> Transfer {
        debug_assert!(bytes > 0, "zero-byte bus transaction");
        let occupancy = self.beats(bytes) * self.cfg.cycles_per_beat;
        let start = now.max(self.next_free);
        let done = start + self.cfg.latency + occupancy;
        self.next_free = start + occupancy;
        let wait = start - now;
        self.stats.transactions += 1;
        self.stats.bytes += bytes as u64;
        self.stats.busy_cycles += occupancy;
        self.stats.wait.record(wait as f64);
        if let Some(t) = &self.trace {
            t.emit(
                start,
                TraceEventKind::BusGrant {
                    bytes,
                    wait,
                    busy: occupancy,
                },
            );
        }
        Transfer { start, done, wait }
    }

    fn check_clock(&mut self) -> Result<(), eclipse_sim::SnapError> {
        eclipse_sim::check_horizon([&self.next_free], "bus clock past the horizon")
    }
}

eclipse_sim::snap_fields!(
    /// The arbitration clock, then the statistics; loading refuses a
    /// clock at or past the horizon.
    Bus { next_free, stats } then Bus::check_clock
);

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> Bus {
        Bus::new(
            "test",
            BusConfig {
                width_bytes: 16,
                latency: 2,
                cycles_per_beat: 1,
            },
        )
    }

    #[test]
    fn uncontended_transfer_costs_latency_plus_beats() {
        let mut b = bus();
        let t = b.request(100, 64); // 4 beats
        assert_eq!(
            t,
            Transfer {
                start: 100,
                done: 106,
                wait: 0
            }
        );
    }

    #[test]
    fn partial_beat_rounds_up() {
        let mut b = bus();
        assert_eq!(b.beats(1), 1);
        assert_eq!(b.beats(16), 1);
        assert_eq!(b.beats(17), 2);
        let t = b.request(0, 17);
        assert_eq!(t.done, 4); // latency 2 + 2 beats
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut b = bus();
        let t1 = b.request(0, 32); // 2 beats, occupies [0, 2)
        assert_eq!(t1.start, 0);
        let t2 = b.request(0, 32); // must wait until cycle 2
        assert_eq!(t2.start, 2);
        assert_eq!(t2.wait, 2);
        assert_eq!(t2.done, 2 + 2 + 2);
    }

    #[test]
    fn bus_frees_up_over_time() {
        let mut b = bus();
        b.request(0, 160); // 10 beats: busy till 10
        let t = b.request(50, 16); // long after: no wait
        assert_eq!(t.start, 50);
        assert_eq!(t.wait, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut b = bus();
        b.request(0, 16);
        b.request(0, 16);
        b.request(0, 16);
        assert_eq!(b.stats().transactions, 3);
        assert_eq!(b.stats().bytes, 48);
        // waits: 0, 1, 2
        assert!((b.stats().wait.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wider_bus_is_faster() {
        let mut narrow = Bus::new(
            "n",
            BusConfig {
                width_bytes: 4,
                latency: 1,
                cycles_per_beat: 1,
            },
        );
        let mut wide = Bus::new(
            "w",
            BusConfig {
                width_bytes: 32,
                latency: 1,
                cycles_per_beat: 1,
            },
        );
        let tn = narrow.request(0, 128);
        let tw = wide.request(0, 128);
        assert!(tn.done > tw.done);
        assert_eq!(tn.done, 1 + 32);
        assert_eq!(tw.done, 1 + 4);
    }
}
