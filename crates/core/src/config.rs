//! Template parameters of an Eclipse instance.
//!
//! Paper Section 2.3: "Architecture templates are essential in supporting
//! scalability by providing a set of parameterized rules for the
//! composition of a (sub)system. Examples of template parameters are
//! memory size, bus width, number and type of (co)processors."

use eclipse_mem::{BusConfig, DramConfig, SramConfig};
use eclipse_shell::ShellConfig;
use eclipse_sim::{Cycle, Frequency};

/// Full parameter set of an Eclipse instance.
#[derive(Debug, Clone, Copy)]
pub struct EclipseConfig {
    /// Base coprocessor clock (paper instance: 150 MHz).
    pub clock: Frequency,
    /// The shared on-chip SRAM (paper instance: 32 kB, 128-bit, 300 MHz).
    pub sram: SramConfig,
    /// Read data bus between shells and SRAM.
    pub read_bus: BusConfig,
    /// Write data bus between shells and SRAM.
    pub write_bus: BusConfig,
    /// Off-chip system bus (used by VLD bitstream fetch and MC/ME
    /// reference-frame traffic).
    pub system_bus: BusConfig,
    /// Off-chip memory.
    pub dram: DramConfig,
    /// Default shell parameters (per-shell overrides possible at build
    /// time).
    pub shell: ShellConfig,
    /// Default task budget in cycles (paper Section 5.3: 1 000–10 000).
    pub default_budget: u64,
    /// Coprocessor cycles one PI-bus register access occupies (paper
    /// Section 2.2: shells are configured by the CPU over the PI bus).
    /// Run-time reconfiguration serializes its table writes at this
    /// cost, so mapping an app is not free; 0 restores the idealized
    /// free-configuration model.
    pub pi_access_cycles: u64,
    /// Measurement sampling interval in cycles (paper Section 5.4: "a
    /// separate process in the shell takes measurement samples at regular
    /// intervals").
    pub sample_interval: Cycle,
}

impl Default for EclipseConfig {
    fn default() -> Self {
        EclipseConfig {
            clock: Frequency::COPROC_150MHZ,
            sram: SramConfig::default(),
            read_bus: BusConfig::default(),
            write_bus: BusConfig::default(),
            system_bus: BusConfig {
                width_bytes: 8,
                latency: 6,
                cycles_per_beat: 1,
            },
            dram: DramConfig::default(),
            shell: ShellConfig::default(),
            default_budget: 2000,
            pi_access_cycles: 10,
            sample_interval: 2048,
        }
    }
}

impl EclipseConfig {
    /// A configuration with a larger SRAM, for experiments that need many
    /// or deep stream buffers without changing timing parameters.
    pub fn with_sram_size(mut self, bytes: u32) -> Self {
        self.sram.size = bytes;
        self
    }

    /// Override the data-bus width (both read and write buses), in bytes.
    pub fn with_bus_width(mut self, width_bytes: u32) -> Self {
        self.read_bus.width_bytes = width_bytes;
        self.write_bus.width_bytes = width_bytes;
        self
    }

    /// Override the shell cache configuration.
    pub fn with_cache(mut self, cache: eclipse_shell::CacheConfig) -> Self {
        self.shell.cache = cache;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_instance() {
        let c = EclipseConfig::default();
        assert_eq!(c.clock.mhz(), 150.0);
        assert_eq!(c.sram.size, 32 * 1024);
        assert_eq!(c.sram.word_bytes, 16); // 128 bits
        assert_eq!(c.read_bus.width_bytes, 16);
    }

    #[test]
    fn builder_overrides() {
        let c = EclipseConfig::default()
            .with_sram_size(64 * 1024)
            .with_bus_width(32);
        assert_eq!(c.sram.size, 64 * 1024);
        assert_eq!(c.read_bus.width_bytes, 32);
        assert_eq!(c.write_bus.width_bytes, 32);
    }
}
