//! Measurement configuration: the experimental factors of §3/§4.3.

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;

use crate::interface::{CountingMode, Interface};
use crate::pattern::Pattern;

/// gcc optimization level used to compile the measurement harness (§3.6).
///
/// The benchmark itself is inline assembly and is never optimized; the
/// level only changes the surrounding harness code — which the paper's
/// ANOVA finds insignificant for instruction-count error, but which moves
/// the code placement and therefore the cycle counts (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// `-O0`.
    O0,
    /// `-O1`.
    O1,
    /// `-O2`.
    O2,
    /// `-O3`.
    O3,
}

impl OptLevel {
    /// All four levels.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// The gcc flag.
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
        }
    }

    /// Numeric level (0–3).
    pub fn level(self) -> u64 {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
            OptLevel::O3 => 3,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.flag())
    }
}

/// Everything that identifies one measurement cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasurementConfig {
    /// Processor (Table 1).
    pub processor: Processor,
    /// Counter-access interface (Figure 2).
    pub interface: Interface,
    /// Access pattern (Table 2).
    pub pattern: Pattern,
    /// Harness compiler optimization level (§3.6).
    pub opt_level: OptLevel,
    /// Number of concurrently measured counters (§4.1).
    pub counters: usize,
    /// perfctr's TSC setting (§4.1); ignored by non-perfctr interfaces.
    pub tsc_on: bool,
    /// Which privilege levels are counted (§2.5).
    pub mode: CountingMode,
    /// The measured event on counter 0.
    pub event: Event,
    /// RNG seed for this measurement run.
    pub seed: u64,
    /// Timer frequency (0 disables ticks; the Figure 7 ablation).
    pub hz: u32,
}

impl MeasurementConfig {
    /// A baseline configuration: `pm`, start-read, `-O2`, one counter,
    /// TSC on, user mode, instruction counting, HZ=250.
    pub fn new(processor: Processor, interface: Interface) -> Self {
        MeasurementConfig {
            processor,
            interface,
            pattern: Pattern::StartRead,
            opt_level: OptLevel::O2,
            counters: 1,
            tsc_on: true,
            mode: CountingMode::User,
            event: Event::InstructionsRetired,
            seed: 0xACCE55,
            hz: 250,
        }
    }

    /// Replaces the pattern.
    pub fn with_pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Replaces the optimization level.
    pub fn with_opt_level(mut self, opt: OptLevel) -> Self {
        self.opt_level = opt;
        self
    }

    /// Replaces the counter count.
    pub fn with_counters(mut self, counters: usize) -> Self {
        self.counters = counters;
        self
    }

    /// Replaces the TSC setting.
    pub fn with_tsc(mut self, on: bool) -> Self {
        self.tsc_on = on;
        self
    }

    /// Replaces the counting mode.
    pub fn with_mode(mut self, mode: CountingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the measured event.
    pub fn with_event(mut self, event: Event) -> Self {
        self.event = event;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the timer frequency.
    pub fn with_hz(mut self, hz: u32) -> Self {
        self.hz = hz;
        self
    }

    /// A one-line cell label for reports, e.g.
    /// `"CD/pc/read-read/-O2/1ctr/tsc/user"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}ctr/{}/{}",
            self.processor,
            self.interface,
            self.pattern.code(),
            self.opt_level,
            self.counters,
            if self.tsc_on { "tsc" } else { "notsc" },
            self.mode
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn all_lists_every_variant() {
        for v in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            match v {
                OptLevel::O0 => assert!(OptLevel::ALL.contains(&OptLevel::O0)),
                OptLevel::O1 => assert!(OptLevel::ALL.contains(&OptLevel::O1)),
                OptLevel::O2 => assert!(OptLevel::ALL.contains(&OptLevel::O2)),
                OptLevel::O3 => assert!(OptLevel::ALL.contains(&OptLevel::O3)),
            }
        }
    }

    #[test]
    fn opt_levels() {
        assert_eq!(OptLevel::ALL.len(), 4);
        assert_eq!(OptLevel::O2.flag(), "-O2");
        assert_eq!(OptLevel::O3.level(), 3);
        assert_eq!(OptLevel::O0.to_string(), "-O0");
    }

    #[test]
    fn builder_chain() {
        let c = MeasurementConfig::new(Processor::Core2Duo, Interface::Pc)
            .with_pattern(Pattern::ReadRead)
            .with_counters(2)
            .with_tsc(false)
            .with_mode(CountingMode::UserKernel)
            .with_seed(9)
            .with_hz(0);
        assert_eq!(c.pattern, Pattern::ReadRead);
        assert_eq!(c.counters, 2);
        assert!(!c.tsc_on);
        assert_eq!(c.hz, 0);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn label_mentions_all_dims() {
        let c = MeasurementConfig::new(Processor::AthlonK8, Interface::PLpm);
        let l = c.label();
        for part in ["K8", "PLpm", "ar", "-O2", "1ctr", "tsc", "user"] {
            assert!(l.contains(part), "missing {part} in {l}");
        }
    }
}
