//! Simulated time.
//!
//! Eclipse is a clocked architecture: the paper's first instance runs its
//! coprocessors at 150 MHz with the on-chip SRAM at 300 MHz (Section 6).
//! The simulator counts time in *cycles of the base coprocessor clock*;
//! faster clock domains (like the SRAM) are expressed as integer
//! multipliers of the base clock.

use crate::snapshot::SnapError;

/// A point in simulated time, in base-clock cycles.
///
/// 64 bits of cycles at 150 MHz covers ~3900 years of simulated time, so
/// overflow is not a practical concern and arithmetic is unchecked. A
/// checkpoint cannot bring a clock near the end of the range either: its
/// arbiter clocks are checked against [`CLOCK_HORIZON`] on load.
pub type Cycle = u64;

/// The cycle no arbiter clock reaches: 2^62 cycles, about 975 years at
/// 150 MHz. An arbiter (a bus, a fabric port, a sync link) adds
/// occupancy and latency to its clock without checking; a restored clock
/// below the horizon leaves that sum far from overflow.
pub const CLOCK_HORIZON: Cycle = 1 << 62;

/// `Err(SnapError::Corrupt(what))` when a restored arbiter clock is at
/// or past [`CLOCK_HORIZON`].
pub fn check_horizon<'a>(
    clocks: impl IntoIterator<Item = &'a Cycle>,
    what: &'static str,
) -> Result<(), SnapError> {
    if clocks.into_iter().any(|&c| c >= CLOCK_HORIZON) {
        return Err(SnapError::Corrupt(what));
    }
    Ok(())
}

/// A clock frequency in Hz.
///
/// Used to convert between simulated cycles and wall-clock-style metrics
/// (frames per second, kHz task-switch rates, GB/s bandwidths) when
/// reporting results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Frequency(pub u64);

impl Frequency {
    /// The paper's coprocessor clock: 150 MHz.
    pub const COPROC_150MHZ: Frequency = Frequency(150_000_000);
    /// The paper's on-chip SRAM clock: 300 MHz.
    pub const SRAM_300MHZ: Frequency = Frequency(300_000_000);

    /// Frequency in MHz as a float, for reporting.
    pub fn mhz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Convert a cycle count at this frequency to seconds.
    pub fn cycles_to_secs(self, cycles: Cycle) -> f64 {
        cycles as f64 / self.0 as f64
    }

    /// Events-per-second rate of `count` events over `cycles` cycles.
    pub fn rate(self, count: u64, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            count as f64 / self.cycles_to_secs(cycles)
        }
    }
}

/// The simulation clock: current time plus the base frequency used for
/// converting measurements into real-time units.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    now: Cycle,
    /// Base (coprocessor) clock frequency.
    pub freq: Frequency,
}

impl Clock {
    /// A clock starting at cycle 0 with the given base frequency.
    pub fn new(freq: Frequency) -> Self {
        Clock { now: 0, freq }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advance the clock to `t`. Time never moves backwards; attempting to
    /// do so is a kernel bug and panics.
    #[inline]
    pub fn advance_to(&mut self, t: Cycle) {
        debug_assert!(
            t >= self.now,
            "clock moved backwards: {} -> {}",
            self.now,
            t
        );
        self.now = t;
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new(Frequency::COPROC_150MHZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_converts_cycles_to_secs() {
        let f = Frequency::COPROC_150MHZ;
        assert_eq!(f.mhz(), 150.0);
        assert!((f.cycles_to_secs(75_000_000) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_of_zero_cycles_is_zero() {
        assert_eq!(Frequency(1000).rate(42, 0), 0.0);
    }

    #[test]
    fn rate_computes_events_per_second() {
        // 300 events in 150e6 cycles at 150 MHz = 300 events/sec.
        let f = Frequency::COPROC_150MHZ;
        assert!((f.rate(300, 150_000_000) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::default();
        assert_eq!(c.now(), 0);
        c.advance_to(10);
        c.advance_to(10); // same time is fine
        c.advance_to(250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    #[cfg(debug_assertions)]
    fn clock_panics_on_backwards_time() {
        let mut c = Clock::default();
        c.advance_to(10);
        c.advance_to(9);
    }
}
