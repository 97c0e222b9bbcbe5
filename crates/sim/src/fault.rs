//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what* can go wrong and how often; a
//! [`FaultInjector`] turns the plan into a reproducible stream of
//! per-event decisions, driven entirely by the simulator's own seeded
//! RNGs ([`crate::rng`]). Every (shell, fault class) pair draws from its
//! own child generator (derived from the single plan seed), so enabling
//! one class does not perturb the decision stream of another — a sweep
//! over `sync_drop_rate` sees identical bus-error decisions at every
//! point — and one shell's activity never shifts another shell's
//! decisions. The lane seeding is committed: the chaos tables and the
//! checkpoint bytes of faulted runs depend on it.
//!
//! The plan is **off by default**: with all rates at zero the injector
//! is never constructed, no RNG values are drawn, and the simulated
//! timing is bit-identical to an uninstrumented run (the
//! `timing_fingerprint` invariant).
//!
//! Fault classes (ISSUE 3 tentpole):
//!
//! * **sync**: delay or drop `putspace` messages on the sync network —
//!   dropped credits are never recovered, so the stream eventually
//!   stalls and the deadlock watchdog must diagnose it;
//! * **bus**: a transfer error on the off-chip bus, modeled as a retry
//!   penalty of extra wait cycles;
//! * **sram**: a single-bit flip in data written to the on-chip stream
//!   buffers (applied to the transfer, i.e. corruption-at-rest as seen
//!   by the consumer);
//! * **stall**: a coprocessor freezes for N cycles in the middle of a
//!   processing step (pipeline hiccup, clock-domain recovery, ...);
//! * **stream corruption**: byte corruption of an input elementary
//!   stream, applied host-side by [`corrupt_bytes`] before the run.

use crate::rng::{SplitMix64, Xoshiro256StarStar};

/// What faults to inject and how often. All-zero rates (the default)
/// mean no injection at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every fault class derives an independent child seed.
    pub seed: u64,
    /// Probability that a `putspace` message is silently dropped.
    pub sync_drop_rate: f64,
    /// Number of initial `putspace` messages immune to drops. Lets a
    /// plan model a drop *burst* that starts mid-run, after a
    /// supervisor has had time to bank clean checkpoints.
    pub sync_drop_skip: u64,
    /// Maximum number of drops injected over the injector's lifetime
    /// (`u64::MAX` = unbounded). A bounded burst is the transient-fault
    /// model under which checkpoint rollback can actually heal: replays
    /// past an exhausted budget see no new drops.
    pub sync_drop_limit: u64,
    /// Probability that a `putspace` message is delayed.
    pub sync_delay_rate: f64,
    /// Maximum extra delivery delay in cycles (uniform in `1..=max`).
    pub sync_delay_max: u64,
    /// Probability that an off-chip bus transfer errors and is retried.
    pub bus_error_rate: f64,
    /// Retry penalty per injected bus error, in cycles.
    pub bus_retry_cycles: u64,
    /// Probability that a stream-buffer write suffers a single-bit flip.
    pub sram_flip_rate: f64,
    /// Probability that a processing step stalls the coprocessor.
    pub stall_rate: f64,
    /// Stall length in cycles.
    pub stall_cycles: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            sync_drop_rate: 0.0,
            sync_drop_skip: 0,
            sync_drop_limit: u64::MAX,
            sync_delay_rate: 0.0,
            sync_delay_max: 200,
            bus_error_rate: 0.0,
            bus_retry_cycles: 40,
            sram_flip_rate: 0.0,
            stall_rate: 0.0,
            stall_cycles: 500,
        }
    }
}

impl FaultPlan {
    /// A plan with every rate at zero and the given seed (useful as a
    /// base for builder-style sweeps).
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.sync_drop_rate > 0.0
            || self.sync_delay_rate > 0.0
            || self.bus_error_rate > 0.0
            || self.sram_flip_rate > 0.0
            || self.stall_rate > 0.0
    }
}

/// Counters of faults actually injected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `putspace` messages dropped.
    pub sync_dropped: u64,
    /// `putspace` messages delayed.
    pub sync_delayed: u64,
    /// Credit bytes lost to dropped messages (never recovered).
    pub credits_lost: u64,
    /// Bus transfer errors (retry penalties) injected.
    pub bus_errors: u64,
    /// Single-bit flips injected into stream-buffer writes.
    pub sram_flips: u64,
    /// Coprocessor stalls injected.
    pub coproc_stalls: u64,
}

impl FaultStats {
    /// Total number of injected faults across all classes.
    pub fn total(&self) -> u64 {
        self.sync_dropped
            + self.sync_delayed
            + self.bus_errors
            + self.sram_flips
            + self.coproc_stalls
    }
}

/// Decision for one `putspace` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncAction {
    /// Deliver normally.
    Deliver,
    /// Deliver after this many extra cycles.
    Delay(u64),
    /// Drop the message; the credit bytes are lost.
    Drop,
}

/// One shell's private fault-decision streams: an independent RNG per
/// fault class, each a pure function of `(plan seed, shell index)`.
#[derive(Debug, Clone)]
struct FaultLane {
    sync: Xoshiro256StarStar,
    bus: Xoshiro256StarStar,
    sram: Xoshiro256StarStar,
    stall: Xoshiro256StarStar,
}

/// A placeholder lane, overwritten when a checkpoint is loaded into it.
impl Default for FaultLane {
    fn default() -> Self {
        FaultLane::new(0, 0)
    }
}

impl FaultLane {
    /// Child seeds are split in a fixed order so each fault class owns an
    /// independent decision stream, and each shell owns an independent
    /// lane — a draw on one shell never perturbs another shell's stream.
    fn new(seed: u64, shell: usize) -> Self {
        let mut sm = SplitMix64::new(seed ^ (shell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultLane {
            sync: Xoshiro256StarStar::new(sm.split()),
            bus: Xoshiro256StarStar::new(sm.split()),
            sram: Xoshiro256StarStar::new(sm.split()),
            stall: Xoshiro256StarStar::new(sm.split()),
        }
    }
}

/// A running injector: the plan plus per-shell, per-class decision
/// streams (one `FaultLane` per shell) and the injection counters.
///
/// Decision streams are **per shell**: every hook takes the shell index
/// on whose behalf the decision is made (the *sender* shell for sync
/// messages). Because each lane is derived purely from
/// `(plan seed, shell)`, the decisions a shell sees are independent of
/// how its activity interleaves with other shells'.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Lane `s` serves shell `s`; grown lazily on first use (growth
    /// creates every intermediate lane, so the vector's length — and the
    /// snapshot — depend only on the highest shell that ever drew).
    lanes: Vec<FaultLane>,
    stats: FaultStats,
    /// `putspace` messages seen so far (drives `sync_drop_skip`).
    syncs_seen: u64,
}

/// An injector for the default (inactive) plan.
impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::new(FaultPlan::default())
    }
}

impl FaultInjector {
    /// Build an injector from a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            lanes: Vec::new(),
            stats: FaultStats::default(),
            syncs_seen: 0,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    fn lane(&mut self, shell: usize) -> &mut FaultLane {
        while self.lanes.len() <= shell {
            self.lanes
                .push(FaultLane::new(self.plan.seed, self.lanes.len()));
        }
        &mut self.lanes[shell]
    }

    /// Decide the fate of one `putspace` message carrying `bytes`
    /// credits, sent by `shell`. One uniform draw splits [0,1) into
    /// drop / delay / deliver bands, so the per-message decision cost is
    /// constant.
    pub fn sync_action(&mut self, shell: usize, bytes: u32) -> SyncAction {
        let (drop, delay) = (self.plan.sync_drop_rate, self.plan.sync_delay_rate);
        if drop <= 0.0 && delay <= 0.0 {
            return SyncAction::Deliver;
        }
        self.syncs_seen += 1;
        let drop_armed = self.syncs_seen > self.plan.sync_drop_skip
            && self.stats.sync_dropped < self.plan.sync_drop_limit;
        let r = self.lane(shell).sync.next_f64();
        if r < drop {
            // Outside the armed window the drop band is inert: the
            // draw is still consumed (keeps the decision stream
            // aligned) but the message is delivered.
            if !drop_armed {
                return SyncAction::Deliver;
            }
            self.stats.sync_dropped += 1;
            self.stats.credits_lost += bytes as u64;
            SyncAction::Drop
        } else if r < drop + delay {
            self.stats.sync_delayed += 1;
            let max = self.plan.sync_delay_max.max(1);
            let d = 1 + self.lane(shell).sync.below(max);
            SyncAction::Delay(d)
        } else {
            SyncAction::Deliver
        }
    }

    /// Extra wait cycles for one off-chip bus transfer issued by `shell`
    /// (0 = no fault).
    pub fn bus_penalty(&mut self, shell: usize) -> u64 {
        if self.plan.bus_error_rate <= 0.0 {
            return 0;
        }
        if self.lane(shell).bus.next_f64() < self.plan.bus_error_rate {
            self.stats.bus_errors += 1;
            self.plan.bus_retry_cycles
        } else {
            0
        }
    }

    /// Maybe flip one bit of a `len`-byte stream-buffer write by `shell`.
    /// Returns the byte index and XOR mask to apply.
    pub fn sram_flip(&mut self, shell: usize, len: usize) -> Option<(usize, u8)> {
        if self.plan.sram_flip_rate <= 0.0 || len == 0 {
            return None;
        }
        let rate = self.plan.sram_flip_rate;
        if self.lane(shell).sram.next_f64() < rate {
            self.stats.sram_flips += 1;
            let idx = self.lane(shell).sram.below(len as u64) as usize;
            let mask = 1u8 << self.lane(shell).sram.below(8);
            Some((idx, mask))
        } else {
            None
        }
    }

    /// Extra stall cycles for one processing step on `shell` (0 = no
    /// fault).
    pub fn step_stall(&mut self, shell: usize) -> u64 {
        if self.plan.stall_rate <= 0.0 {
            return 0;
        }
        if self.lane(shell).stall.next_f64() < self.plan.stall_rate {
            self.stats.coproc_stalls += 1;
            self.plan.stall_cycles
        } else {
            0
        }
    }
}

crate::snap_fields!(FaultPlan {
    seed,
    sync_drop_rate,
    sync_drop_skip,
    sync_drop_limit,
    sync_delay_rate,
    sync_delay_max,
    bus_error_rate,
    bus_retry_cycles,
    sram_flip_rate,
    stall_rate,
    stall_cycles,
});

crate::snap_fields!(FaultStats {
    sync_dropped,
    sync_delayed,
    credits_lost,
    bus_errors,
    sram_flips,
    coproc_stalls,
});

crate::snap_fields!(FaultLane {
    sync,
    bus,
    sram,
    stall
});
crate::snap_fields!(FaultInjector {
    plan,
    lanes,
    stats,
    syncs_seen
});

/// Corrupt an elementary stream in place: each byte independently has
/// one random bit flipped with probability `rate`. Deterministic in
/// `seed`; returns the number of bytes corrupted. Callers that must
/// keep a header intact corrupt a sub-slice (`&mut bytes[hdr..]`).
pub fn corrupt_bytes(data: &mut [u8], rate: f64, seed: u64) -> u64 {
    if rate <= 0.0 {
        return 0;
    }
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut flipped = 0;
    for b in data.iter_mut() {
        if rng.next_f64() < rate {
            *b ^= 1u8 << rng.below(8);
            flipped += 1;
        }
    }
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive() {
        assert!(!FaultPlan::default().is_active());
        assert!(!FaultPlan::with_seed(99).is_active());
        let active = FaultPlan {
            sync_drop_rate: 0.01,
            ..FaultPlan::with_seed(1)
        };
        assert!(active.is_active());
    }

    #[test]
    fn decisions_are_reproducible_per_seed() {
        let plan = FaultPlan {
            sync_drop_rate: 0.1,
            sync_delay_rate: 0.2,
            bus_error_rate: 0.15,
            sram_flip_rate: 0.1,
            stall_rate: 0.05,
            ..FaultPlan::with_seed(0xC0FFEE)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..2000 {
            let s = i % 3; // spread draws over a few shells
            assert_eq!(a.sync_action(s, 64), b.sync_action(s, 64), "sync {i}");
            assert_eq!(a.bus_penalty(s), b.bus_penalty(s), "bus {i}");
            assert_eq!(a.sram_flip(s, 128), b.sram_flip(s, 128), "sram {i}");
            assert_eq!(a.step_stall(s), b.step_stall(s), "stall {i}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0);
    }

    #[test]
    fn classes_draw_independently() {
        // Consuming one class's stream must not disturb another's.
        let plan = FaultPlan {
            sync_drop_rate: 0.5,
            bus_error_rate: 0.5,
            ..FaultPlan::with_seed(7)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..100 {
            let _ = a.sync_action(0, 8); // a consumes sync decisions...
        }
        for _ in 0..50 {
            // ...but its bus stream still matches b's untouched one.
            assert_eq!(a.bus_penalty(0), b.bus_penalty(0));
        }
    }

    #[test]
    fn shells_draw_independently() {
        // One shell's activity must not perturb another shell's decision
        // stream: shell 2's draws match whether or not shells 0/1 drew
        // in between.
        let plan = FaultPlan {
            sync_drop_rate: 0.2,
            sync_delay_rate: 0.2,
            bus_error_rate: 0.3,
            stall_rate: 0.3,
            ..FaultPlan::with_seed(0xAB)
        };
        let mut interleaved = FaultInjector::new(plan.clone());
        let mut solo = FaultInjector::new(plan);
        for i in 0..500 {
            let _ = interleaved.sync_action(0, 16);
            let _ = interleaved.bus_penalty(1);
            let _ = interleaved.step_stall(i % 2);
            assert_eq!(
                interleaved.sync_action(2, 16),
                solo.sync_action(2, 16),
                "sync {i}"
            );
            assert_eq!(interleaved.bus_penalty(2), solo.bus_penalty(2), "bus {i}");
            assert_eq!(interleaved.step_stall(2), solo.step_stall(2), "stall {i}");
        }
    }

    #[test]
    fn zero_rate_classes_inject_nothing() {
        let plan = FaultPlan {
            sync_delay_rate: 1.0,
            ..FaultPlan::with_seed(3)
        };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..100 {
            assert!(matches!(inj.sync_action(0, 4), SyncAction::Delay(_)));
            assert_eq!(inj.bus_penalty(0), 0);
            assert_eq!(inj.sram_flip(0, 64), None);
            assert_eq!(inj.step_stall(0), 0);
        }
        let s = inj.stats();
        assert_eq!(s.sync_delayed, 100);
        assert_eq!(
            s.sync_dropped + s.bus_errors + s.sram_flips + s.coproc_stalls,
            0
        );
    }

    #[test]
    fn delay_bounds_respected() {
        let plan = FaultPlan {
            sync_delay_rate: 1.0,
            sync_delay_max: 10,
            ..FaultPlan::with_seed(11)
        };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..1000 {
            match inj.sync_action(0, 1) {
                SyncAction::Delay(d) => assert!((1..=10).contains(&d), "delay {d}"),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_bytes_is_deterministic_and_rate_proportional() {
        let mut a = vec![0u8; 10_000];
        let mut b = vec![0u8; 10_000];
        let na = corrupt_bytes(&mut a, 0.01, 42);
        let nb = corrupt_bytes(&mut b, 0.01, 42);
        assert_eq!(a, b);
        assert_eq!(na, nb);
        assert!((50..200).contains(&na), "≈1% of 10000, got {na}");
        // Each corrupted byte differs by exactly one bit.
        let ones: u32 = a.iter().map(|&x| x.count_ones()).sum();
        assert_eq!(ones as u64, na);
        // Zero rate: untouched.
        let mut c = vec![0xABu8; 64];
        assert_eq!(corrupt_bytes(&mut c, 0.0, 1), 0);
        assert!(c.iter().all(|&x| x == 0xAB));
    }
}
