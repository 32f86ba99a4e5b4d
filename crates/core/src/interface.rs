//! The six counter-access interfaces of Figure 2.
//!
//! | code   | path                                        |
//! |--------|---------------------------------------------|
//! | `pm`   | libpfm directly on perfmon2                 |
//! | `pc`   | libperfctr directly on perfctr              |
//! | `PLpm` | PAPI low-level API on libpfm                |
//! | `PLpc` | PAPI low-level API on libperfctr            |
//! | `PHpm` | PAPI high-level API on libpfm               |
//! | `PHpc` | PAPI high-level API on libperfctr           |
//!
//! [`AnyInterface`] gives the measurement harness one API over all six
//! while preserving each stack's cost behaviour.

use counterlab_cpu::pmu::{CountMode, Event};
use counterlab_cpu::uarch::Processor;
use counterlab_kernel::config::KernelConfig;
use counterlab_kernel::system::System;
use counterlab_papi::{BackendKind, PapiDomain, PapiHighLevel, PapiLowLevel, PapiPreset};
use counterlab_perfctr::{Perfctr, PerfctrOptions};
use counterlab_perfmon::{Perfmon, PerfmonOptions};

use crate::pattern::Pattern;
use crate::{CoreError, Result};

/// Which privilege levels the measurement counts (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CountingMode {
    /// User-mode events only.
    User,
    /// Kernel-mode events only (used by the paper's Figure 9 cross-check).
    Kernel,
    /// User plus kernel.
    UserKernel,
}

impl CountingMode {
    /// All modes.
    pub const ALL: [CountingMode; 3] = [
        CountingMode::User,
        CountingMode::Kernel,
        CountingMode::UserKernel,
    ];

    /// The hardware counter mode.
    pub fn to_count_mode(self) -> CountMode {
        match self {
            CountingMode::User => CountMode::UserOnly,
            CountingMode::Kernel => CountMode::KernelOnly,
            CountingMode::UserKernel => CountMode::UserAndKernel,
        }
    }

    /// The PAPI domain.
    pub fn to_domain(self) -> PapiDomain {
        match self {
            CountingMode::User => PapiDomain::User,
            CountingMode::Kernel => PapiDomain::Kernel,
            CountingMode::UserKernel => PapiDomain::All,
        }
    }

    /// Short label used in reports (`user`, `os`, `user+os`).
    pub fn label(self) -> &'static str {
        match self {
            CountingMode::User => "user",
            CountingMode::Kernel => "os",
            CountingMode::UserKernel => "user+os",
        }
    }
}

impl std::fmt::Display for CountingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One of the six counter-access interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Interface {
    /// Direct libpfm on perfmon2.
    Pm,
    /// Direct libperfctr on perfctr.
    Pc,
    /// PAPI low level over perfmon2.
    PLpm,
    /// PAPI low level over perfctr.
    PLpc,
    /// PAPI high level over perfmon2.
    PHpm,
    /// PAPI high level over perfctr.
    PHpc,
}

impl Interface {
    /// All six, in Figure 6's left-to-right order.
    pub const ALL: [Interface; 6] = [
        Interface::PHpm,
        Interface::PHpc,
        Interface::PLpm,
        Interface::PLpc,
        Interface::Pm,
        Interface::Pc,
    ];

    /// The paper's code for this interface.
    pub fn code(self) -> &'static str {
        match self {
            Interface::Pm => "pm",
            Interface::Pc => "pc",
            Interface::PLpm => "PLpm",
            Interface::PLpc => "PLpc",
            Interface::PHpm => "PHpm",
            Interface::PHpc => "PHpc",
        }
    }

    /// Parses a code.
    pub fn from_code(code: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|i| i.code() == code)
    }

    /// Whether this is a PAPI high-level interface.
    pub fn is_high_level(self) -> bool {
        matches!(self, Interface::PHpm | Interface::PHpc)
    }

    /// Whether the interface supports a pattern. Only the PAPI high-level
    /// API is restricted: its read implicitly resets, so patterns that
    /// begin with a read are impossible (§3.5).
    pub fn supports(self, pattern: Pattern) -> bool {
        !(self.is_high_level() && pattern.begins_with_read())
    }

    /// Patterns this interface supports.
    pub fn supported_patterns(self) -> Vec<Pattern> {
        Pattern::ALL
            .into_iter()
            .filter(|p| self.supports(*p))
            .collect()
    }
}

impl std::fmt::Display for Interface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// The PAPI preset for a native event (the inverse of
/// [`PapiPreset::to_native`]).
pub fn preset_for(event: Event) -> PapiPreset {
    PapiPreset::ALL
        .into_iter()
        .find(|p| p.to_native() == event)
        .expect("every native event has a preset")
}

/// A live measurement stack: one booted system with one of the six
/// interfaces attached.
#[derive(Debug, Clone)]
pub struct AnyInterface {
    which: Interface,
    inner: Inner,
    /// Stashed events for the high-level API (configured at start).
    ph_events: Vec<PapiPreset>,
    /// Reusable buffer for the high-level API's read/stop value arrays,
    /// so the per-repetition hot loop performs no allocation.
    scratch: Vec<i64>,
    /// Reusable buffer for the (event, mode) pairs handed to the direct
    /// libraries in [`AnyInterface::setup`] — same purpose.
    pairs: Vec<(Event, CountMode)>,
    /// Reusable buffer for counter-value reads — same purpose.
    values: Vec<u64>,
}

#[derive(Debug, Clone)]
enum Inner {
    Pm(Perfmon),
    Pc(Perfctr),
    Low(PapiLowLevel),
    High(PapiHighLevel),
}

impl AnyInterface {
    /// Boots a system and attaches the chosen interface.
    ///
    /// `tsc_on` is only meaningful for the direct perfctr interface; the
    /// PAPI builds always enable the TSC (they know about the fast read)
    /// and perfmon has no TSC notion.
    ///
    /// # Errors
    ///
    /// Propagates boot/attach failures from the substrate crates.
    pub fn boot(
        which: Interface,
        processor: Processor,
        kernel: KernelConfig,
        tsc_on: bool,
        seed: u64,
    ) -> Result<Self> {
        let sys = System::new(processor, kernel);
        let inner = match which {
            Interface::Pm => Inner::Pm(Perfmon::attach(sys, PerfmonOptions { seed })?),
            Interface::Pc => Inner::Pc(Perfctr::attach(sys, PerfctrOptions { tsc_on, seed })?),
            Interface::PLpm => Inner::Low(PapiLowLevel::attach(BackendKind::Perfmon, sys, seed)?),
            Interface::PLpc => Inner::Low(PapiLowLevel::attach(BackendKind::Perfctr, sys, seed)?),
            Interface::PHpm => Inner::High(PapiHighLevel::attach(BackendKind::Perfmon, sys, seed)?),
            Interface::PHpc => Inner::High(PapiHighLevel::attach(BackendKind::Perfctr, sys, seed)?),
        };
        Ok(AnyInterface {
            which,
            inner,
            ph_events: Vec::new(),
            scratch: Vec::new(),
            pairs: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Returns the stack to the state a fresh [`AnyInterface::boot`] of
    /// the same interface and processor with the given `kernel`, `tsc_on`
    /// and `seed` would produce, reusing every allocation.
    ///
    /// This is the per-run reset of
    /// [`crate::measure::MeasurementSession`]: within a cell only the
    /// seed varies, and across the cells of one processor × interface
    /// only what this takes (kernel config, TSC setting, seed) and the
    /// per-run setup do, so a session boots once and reseeds instead of
    /// reconstructing the whole simulated stack. Bit-identity with a
    /// fresh boot is locked in by the session equivalence suite.
    ///
    /// # Errors
    ///
    /// Propagates reseed failures from the substrate crates.
    pub fn reseed(&mut self, kernel: &KernelConfig, tsc_on: bool, seed: u64) -> Result<()> {
        match &mut self.inner {
            Inner::Pm(x) => x.reseed(kernel, PerfmonOptions { seed })?,
            Inner::Pc(x) => x.reseed(kernel, PerfctrOptions { tsc_on, seed })?,
            Inner::Low(x) => x.reseed(kernel, seed)?,
            Inner::High(x) => x.reseed(kernel, seed)?,
        }
        self.ph_events.clear();
        Ok(())
    }

    /// Fills the scratch buffer with `n` zeroes and returns it (the
    /// high-level API's output array, without a per-call allocation).
    fn zeroed_scratch(scratch: &mut Vec<i64>, n: usize) -> &mut [i64] {
        scratch.clear();
        scratch.resize(n, 0);
        scratch
    }

    /// Which interface this is.
    pub fn which(&self) -> Interface {
        self.which
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        match &self.inner {
            Inner::Pm(x) => x.system(),
            Inner::Pc(x) => x.system(),
            Inner::Low(x) => x.system(),
            Inner::High(x) => x.system(),
        }
    }

    /// Mutable system access (to run benchmark code).
    pub fn system_mut(&mut self) -> &mut System {
        match &mut self.inner {
            Inner::Pm(x) => x.system_mut(),
            Inner::Pc(x) => x.system_mut(),
            Inner::Low(x) => x.system_mut(),
            Inner::High(x) => x.system_mut(),
        }
    }

    /// Configures the events to measure. The first event is the *measured*
    /// counter whose value [`AnyInterface::read`] returns.
    ///
    /// # Errors
    ///
    /// Propagates substrate configuration errors.
    pub fn setup(&mut self, events: &[Event], mode: CountingMode) -> Result<()> {
        let pairs = &mut self.pairs;
        pairs.clear();
        pairs.extend(events.iter().map(|e| (*e, mode.to_count_mode())));
        match &mut self.inner {
            Inner::Pm(x) => x.write_pmcs(pairs)?,
            Inner::Pc(x) => x.control(pairs)?,
            Inner::Low(x) => {
                x.set_domain(mode.to_domain())?;
                for e in events {
                    x.add_event(preset_for(*e))?;
                }
            }
            Inner::High(x) => {
                x.set_domain(mode.to_domain())?;
                self.ph_events.clear();
                self.ph_events.extend(events.iter().map(|e| preset_for(*e)));
            }
        }
        Ok(())
    }

    /// Starts counting.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn start(&mut self) -> Result<()> {
        match &mut self.inner {
            Inner::Pm(x) => x.start()?,
            Inner::Pc(x) => x.start()?,
            Inner::Low(x) => x.start()?,
            Inner::High(x) => x.start_counters(&self.ph_events)?,
        }
        Ok(())
    }

    /// Stops counting.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn stop(&mut self) -> Result<()> {
        match &mut self.inner {
            Inner::Pm(x) => x.stop()?,
            Inner::Pc(x) => x.stop()?,
            Inner::Low(x) => {
                x.stop()?;
            }
            Inner::High(x) => {
                let v = Self::zeroed_scratch(&mut self.scratch, self.ph_events.len());
                x.stop_counters(v)?;
            }
        }
        Ok(())
    }

    /// Resets counter values to zero. A no-op for the high-level API,
    /// whose `start_counters` begins from zero anyway.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn reset(&mut self) -> Result<()> {
        match &mut self.inner {
            Inner::Pm(x) => x.reset()?,
            Inner::Pc(x) => x.reset()?,
            Inner::Low(x) => x.reset()?,
            Inner::High(_) => {}
        }
        Ok(())
    }

    /// Reads the measured counter (index 0).
    ///
    /// For the high-level API this is `PAPI_read_counters`, which
    /// **implicitly resets** — callers must only use it in patterns the
    /// interface supports.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn read(&mut self) -> Result<u64> {
        let values = &mut self.values;
        match &mut self.inner {
            Inner::Pm(x) => {
                x.read_pmds_into(values)?;
                Ok(values[0])
            }
            Inner::Pc(x) => {
                x.read_ctrs_into(values)?;
                Ok(values[0])
            }
            Inner::Low(x) => {
                x.read_into(values)?;
                Ok(values[0])
            }
            Inner::High(x) => {
                let v = Self::zeroed_scratch(&mut self.scratch, self.ph_events.len());
                x.read_counters(v)?;
                Ok(v[0] as u64)
            }
        }
    }

    /// Stops counting and returns the measured counter's final value (the
    /// closing step of the `ao`/`ro` patterns).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn stop_read(&mut self) -> Result<u64> {
        match &mut self.inner {
            Inner::High(x) => {
                let v = Self::zeroed_scratch(&mut self.scratch, self.ph_events.len());
                x.stop_counters(v)?;
                Ok(v[0] as u64)
            }
            // PAPI_stop returns the final values itself.
            Inner::Low(x) => {
                let values = &mut self.values;
                x.stop_into(values)?;
                Ok(values[0])
            }
            _ => {
                self.stop()?;
                self.read()
            }
        }
    }

    /// Whether the interface supports the pattern (see
    /// [`Interface::supports`]).
    pub fn supports(&self, pattern: Pattern) -> bool {
        self.which.supports(pattern)
    }
}

/// Validates a (interface, pattern) pair.
///
/// # Errors
///
/// [`CoreError::UnsupportedPattern`] when the high-level API is asked for a
/// read-first pattern.
pub fn check_supported(interface: Interface, pattern: Pattern) -> Result<()> {
    if interface.supports(pattern) {
        Ok(())
    } else {
        Err(CoreError::UnsupportedPattern {
            interface: interface.code(),
            pattern: pattern.code(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterlab_kernel::config::SkidModel;

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn interface_all_lists_every_variant() {
        for v in [
            Interface::Pm,
            Interface::Pc,
            Interface::PLpm,
            Interface::PLpc,
            Interface::PHpm,
            Interface::PHpc,
        ] {
            match v {
                Interface::Pm => assert!(Interface::ALL.contains(&Interface::Pm)),
                Interface::Pc => assert!(Interface::ALL.contains(&Interface::Pc)),
                Interface::PLpm => assert!(Interface::ALL.contains(&Interface::PLpm)),
                Interface::PLpc => assert!(Interface::ALL.contains(&Interface::PLpc)),
                Interface::PHpm => assert!(Interface::ALL.contains(&Interface::PHpm)),
                Interface::PHpc => assert!(Interface::ALL.contains(&Interface::PHpc)),
            }
        }
    }

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn counting_mode_all_lists_every_variant() {
        for v in [
            CountingMode::User,
            CountingMode::Kernel,
            CountingMode::UserKernel,
        ] {
            match v {
                CountingMode::User => assert!(CountingMode::ALL.contains(&CountingMode::User)),
                CountingMode::Kernel => assert!(CountingMode::ALL.contains(&CountingMode::Kernel)),
                CountingMode::UserKernel => {
                    assert!(CountingMode::ALL.contains(&CountingMode::UserKernel))
                }
            }
        }
    }

    fn quiet() -> KernelConfig {
        KernelConfig::default()
            .with_hz(0)
            .with_skid(SkidModel::disabled())
    }

    #[test]
    fn codes_roundtrip() {
        for i in Interface::ALL {
            assert_eq!(Interface::from_code(i.code()), Some(i));
        }
        assert_eq!(Interface::from_code("zz"), None);
    }

    #[test]
    fn high_level_pattern_restrictions() {
        for i in [Interface::PHpm, Interface::PHpc] {
            assert!(i.supports(Pattern::StartRead));
            assert!(i.supports(Pattern::StartStop));
            assert!(!i.supports(Pattern::ReadRead));
            assert!(!i.supports(Pattern::ReadStop));
            assert_eq!(i.supported_patterns().len(), 2);
        }
        for i in [
            Interface::Pm,
            Interface::Pc,
            Interface::PLpm,
            Interface::PLpc,
        ] {
            assert_eq!(i.supported_patterns().len(), 4);
        }
    }

    #[test]
    fn check_supported_errs() {
        assert!(check_supported(Interface::PHpm, Pattern::ReadRead).is_err());
        assert!(check_supported(Interface::Pm, Pattern::ReadRead).is_ok());
    }

    #[test]
    fn classification() {
        assert!(Interface::PHpm.is_high_level());
    }

    #[test]
    fn preset_for_covers_all_events() {
        for e in Event::ALL {
            assert_eq!(preset_for(e).to_native(), e);
        }
    }

    #[test]
    fn boot_all_six() {
        for i in Interface::ALL {
            let api = AnyInterface::boot(i, Processor::AthlonK8, quiet(), true, 1).unwrap();
            assert_eq!(api.which(), i);
        }
    }

    #[test]
    fn lifecycle_through_any_interface() {
        for i in Interface::ALL {
            let mut api = AnyInterface::boot(i, Processor::AthlonK8, quiet(), true, 2).unwrap();
            api.setup(&[Event::InstructionsRetired], CountingMode::User)
                .unwrap();
            api.reset().unwrap();
            api.start().unwrap();
            let v = api.read().unwrap();
            // Window error only; must be nonzero (the access costs) and
            // far below a thousand user instructions for any interface.
            assert!(v > 0, "{i}: v = {v}");
            assert!(v < 1_000, "{i}: v = {v}");
        }
    }

    #[test]
    fn stop_read_works_everywhere() {
        for i in Interface::ALL {
            let mut api = AnyInterface::boot(i, Processor::Core2Duo, quiet(), true, 3).unwrap();
            api.setup(&[Event::InstructionsRetired], CountingMode::UserKernel)
                .unwrap();
            api.reset().unwrap();
            api.start().unwrap();
            let v = api.stop_read().unwrap();
            assert!(v > 0, "{i}");
        }
    }

    #[test]
    fn mode_conversions() {
        assert_eq!(CountingMode::User.to_count_mode(), CountMode::UserOnly);
        assert_eq!(CountingMode::Kernel.to_count_mode(), CountMode::KernelOnly);
        assert_eq!(
            CountingMode::UserKernel.to_count_mode(),
            CountMode::UserAndKernel
        );
        assert_eq!(CountingMode::UserKernel.label(), "user+os");
    }
}
