//! The PAPI low-level API (`PAPI_create_eventset`, `PAPI_add_event`,
//! `PAPI_start`, `PAPI_read`, `PAPI_accum`, `PAPI_stop`, `PAPI_reset`).
//!
//! “The low-level API is richer and more complex” (§3.3): every call runs
//! through PAPI's event-set bookkeeping before reaching the substrate, and
//! those wrapper instructions land inside the measurement window. The
//! paper quantifies the cost: going from the direct libraries to low-level
//! PAPI raises the user-mode read-read error from 37 to 134 instructions
//! (perfmon, Table 3).

use counterlab_cpu::pmu::{CountMode, Event};
use counterlab_kernel::system::System;

use crate::backend::{Backend, BackendKind};
use crate::preset::{PapiDomain, PapiPreset};
use crate::{PapiError, Result};

/// Per-call user-mode wrapper instructions of the low-level API, before
/// the substrate call.
pub const LOW_LEVEL_PRE: u64 = 48;
/// Per-call user-mode wrapper instructions after the substrate call.
pub const LOW_LEVEL_POST: u64 = 49;

/// Event-set state, mirroring PAPI's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSetState {
    /// Created but not started.
    Stopped,
    /// Counting.
    Running,
}

/// A PAPI low-level event set bound to a substrate.
///
/// # Examples
///
/// ```
/// use counterlab_papi::lowlevel::PapiLowLevel;
/// use counterlab_papi::backend::BackendKind;
/// use counterlab_papi::preset::PapiPreset;
/// use counterlab_cpu::prelude::*;
/// use counterlab_kernel::prelude::*;
///
/// # fn main() -> Result<(), counterlab_papi::PapiError> {
/// let mut papi = PapiLowLevel::boot(BackendKind::Perfmon, Processor::AthlonK8,
///                                   KernelConfig::default(), 7)?;
/// papi.add_event(PapiPreset::PAPI_TOT_INS)?;
/// papi.start()?;
/// let values = papi.read()?;
/// assert_eq!(values.len(), 1);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct PapiLowLevel {
    backend: Backend,
    events: Vec<PapiPreset>,
    domain: PapiDomain,
    state: EventSetState,
    configured: bool,
    /// Reused (native event, mode) pairs handed to the substrate when the
    /// event set is (re)configured, so a measurement loop allocates
    /// nothing.
    native: Vec<(Event, CountMode)>,
    /// Reused counter sample of `PAPI_accum` — same purpose.
    sample: Vec<u64>,
}

impl PapiLowLevel {
    /// `PAPI_library_init` + `PAPI_create_eventset` on a fresh system.
    ///
    /// # Errors
    ///
    /// Propagates substrate attach failures.
    pub fn boot(
        kind: BackendKind,
        processor: counterlab_cpu::uarch::Processor,
        kernel: counterlab_kernel::config::KernelConfig,
        seed: u64,
    ) -> Result<Self> {
        let sys = System::new(processor, kernel);
        Self::attach(kind, sys, seed)
    }

    /// Initializes PAPI over an existing system.
    ///
    /// # Errors
    ///
    /// Propagates substrate attach failures.
    pub fn attach(kind: BackendKind, sys: System, seed: u64) -> Result<Self> {
        let mut backend = Backend::attach(kind, sys, seed)?;
        // PAPI_library_init: component discovery, preset table setup.
        backend.system_mut().run_user_code(600);
        Ok(PapiLowLevel {
            backend,
            events: Vec::new(),
            domain: PapiDomain::default(),
            state: EventSetState::Stopped,
            configured: false,
            native: Vec::new(),
            sample: Vec::new(),
        })
    }

    /// Returns the interface to the state a fresh
    /// [`PapiLowLevel::attach`] with the given `kernel`/`seed` would
    /// produce, reusing the booted system's allocations. Replays the
    /// substrate attach and the `PAPI_library_init` work, so the handle
    /// is bit-identical to a fresh boot (the measurement-session reuse
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates substrate reseed failures.
    pub fn reseed(
        &mut self,
        kernel: &counterlab_kernel::config::KernelConfig,
        seed: u64,
    ) -> Result<()> {
        self.backend.reseed(kernel, seed)?;
        // PAPI_library_init: component discovery, preset table setup.
        self.backend.system_mut().run_user_code(600);
        self.events.clear();
        self.domain = PapiDomain::default();
        self.state = EventSetState::Stopped;
        self.configured = false;
        Ok(())
    }

    /// Which substrate this build uses.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        self.backend.system()
    }

    /// Mutable system access (to run benchmark code).
    pub fn system_mut(&mut self) -> &mut System {
        self.backend.system_mut()
    }

    /// Current state of the event set.
    pub fn state(&self) -> EventSetState {
        self.state
    }

    /// `PAPI_set_domain`: selects which privilege levels are counted.
    ///
    /// # Errors
    ///
    /// [`PapiError::InvalidState`] while the event set is running.
    pub fn set_domain(&mut self, domain: PapiDomain) -> Result<()> {
        if self.state == EventSetState::Running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_set_domain",
                state: "running",
            });
        }
        self.domain = domain;
        self.configured = false;
        Ok(())
    }

    /// `PAPI_add_event`: appends a preset to the event set.
    ///
    /// # Errors
    ///
    /// [`PapiError::InvalidState`] while running;
    /// [`PapiError::EventAlreadyAdded`] for duplicates.
    pub fn add_event(&mut self, preset: PapiPreset) -> Result<()> {
        if self.state == EventSetState::Running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_add_event",
                state: "running",
            });
        }
        if self.events.contains(&preset) {
            return Err(PapiError::EventAlreadyAdded {
                name: preset.name(),
            });
        }
        self.events.push(preset);
        self.configured = false;
        Ok(())
    }

    /// Events currently in the set.
    pub fn events(&self) -> &[PapiPreset] {
        &self.events
    }

    /// `PAPI_start`: begins counting the event set.
    ///
    /// # Errors
    ///
    /// [`PapiError::NoEvents`] on an empty set; [`PapiError::InvalidState`]
    /// if already running.
    pub fn start(&mut self) -> Result<()> {
        if self.events.is_empty() {
            return Err(PapiError::NoEvents);
        }
        if self.state == EventSetState::Running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_start",
                state: "running",
            });
        }
        self.wrap_pre();
        self.ensure_configured()?;
        self.backend.start()?;
        self.wrap_post();
        self.state = EventSetState::Running;
        Ok(())
    }

    /// `PAPI_read`: samples the counters without disturbing them.
    ///
    /// # Errors
    ///
    /// [`PapiError::InvalidState`] unless running.
    pub fn read(&mut self) -> Result<Vec<u64>> {
        let mut values = Vec::with_capacity(self.events.len());
        self.read_into(&mut values)?;
        Ok(values)
    }

    /// [`PapiLowLevel::read`] into a caller-owned buffer (cleared first):
    /// the allocation-free variant for measurement hot loops; the
    /// simulated call path is identical.
    ///
    /// # Errors
    ///
    /// As [`PapiLowLevel::read`].
    pub fn read_into(&mut self, out: &mut Vec<u64>) -> Result<()> {
        if self.state != EventSetState::Running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_read",
                state: "stopped",
            });
        }
        self.wrap_pre();
        self.backend.read_into(out)?;
        self.wrap_post();
        Ok(())
    }

    /// `PAPI_accum`: adds the counters into `values` and resets them.
    ///
    /// # Errors
    ///
    /// [`PapiError::InvalidState`] unless running;
    /// [`PapiError::LengthMismatch`] if `values` is the wrong size.
    pub fn accum(&mut self, values: &mut [u64]) -> Result<()> {
        if self.state != EventSetState::Running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_accum",
                state: "stopped",
            });
        }
        if values.len() != self.events.len() {
            return Err(PapiError::LengthMismatch {
                expected: self.events.len(),
                got: values.len(),
            });
        }
        self.wrap_pre();
        self.backend.read_into(&mut self.sample)?;
        self.backend.reset()?;
        self.wrap_post();
        for (acc, &v) in values.iter_mut().zip(&self.sample) {
            *acc += v;
        }
        Ok(())
    }

    /// `PAPI_stop`: stops counting and returns the final values.
    ///
    /// # Errors
    ///
    /// [`PapiError::InvalidState`] unless running.
    pub fn stop(&mut self) -> Result<Vec<u64>> {
        let mut values = Vec::with_capacity(self.events.len());
        self.stop_into(&mut values)?;
        Ok(values)
    }

    /// [`PapiLowLevel::stop`] into a caller-owned buffer (cleared first):
    /// the allocation-free variant for measurement hot loops; the
    /// simulated call path is identical.
    ///
    /// # Errors
    ///
    /// As [`PapiLowLevel::stop`].
    pub fn stop_into(&mut self, out: &mut Vec<u64>) -> Result<()> {
        if self.state != EventSetState::Running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_stop",
                state: "stopped",
            });
        }
        self.wrap_pre();
        self.backend.stop()?;
        self.backend.read_into(out)?;
        self.wrap_post();
        self.state = EventSetState::Stopped;
        Ok(())
    }

    /// `PAPI_reset`: zeroes the event set's counters.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn reset(&mut self) -> Result<()> {
        self.wrap_pre();
        self.ensure_configured()?;
        self.backend.reset()?;
        self.wrap_post();
        Ok(())
    }

    fn ensure_configured(&mut self) -> Result<()> {
        if !self.configured {
            let mode = self.domain.to_mode();
            self.native.clear();
            self.native
                .extend(self.events.iter().map(|p| (p.to_native(), mode)));
            self.backend.configure(&self.native)?;
            self.configured = true;
        }
        Ok(())
    }

    fn wrap_pre(&mut self) {
        self.backend.system_mut().run_user_code(LOW_LEVEL_PRE);
    }

    fn wrap_post(&mut self) {
        self.backend.system_mut().run_user_code(LOW_LEVEL_POST);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterlab_cpu::uarch::Processor;
    use counterlab_kernel::config::{KernelConfig, SkidModel};

    fn quiet() -> KernelConfig {
        KernelConfig::default()
            .with_hz(0)
            .with_skid(SkidModel::disabled())
    }

    fn booted(kind: BackendKind) -> PapiLowLevel {
        PapiLowLevel::boot(kind, Processor::AthlonK8, quiet(), 1).unwrap()
    }

    #[test]
    fn lifecycle_both_backends() {
        for kind in [BackendKind::Perfctr, BackendKind::Perfmon] {
            let mut papi = booted(kind);
            papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
            papi.start().unwrap();
            let v0 = papi.read().unwrap()[0];
            let v1 = papi.read().unwrap()[0];
            assert!(v1 > v0, "{kind:?}");
            let fin = papi.stop().unwrap();
            assert_eq!(fin.len(), 1);
        }
    }

    #[test]
    fn state_machine_enforced() {
        let mut papi = booted(BackendKind::Perfmon);
        assert!(matches!(papi.start(), Err(PapiError::NoEvents)));
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        assert!(matches!(papi.read(), Err(PapiError::InvalidState { .. })));
        papi.start().unwrap();
        assert!(matches!(papi.start(), Err(PapiError::InvalidState { .. })));
        assert!(matches!(
            papi.add_event(PapiPreset::PAPI_TOT_CYC),
            Err(PapiError::InvalidState { .. })
        ));
        papi.stop().unwrap();
        assert!(matches!(papi.read(), Err(PapiError::InvalidState { .. })));
    }

    #[test]
    fn reseed_matches_fresh_boot() {
        let lifecycle = |papi: &mut PapiLowLevel| {
            papi.set_domain(PapiDomain::All).unwrap();
            papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
            papi.start().unwrap();
            let v0 = papi.read().unwrap();
            let v1 = papi.read().unwrap();
            (v0, v1, papi.system().machine().cycle())
        };
        for kind in [BackendKind::Perfctr, BackendKind::Perfmon] {
            let kernel = counterlab_kernel::config::KernelConfig::default();
            let mut fresh =
                PapiLowLevel::boot(kind, Processor::AthlonK8, kernel.clone(), 11).unwrap();
            let expected = lifecycle(&mut fresh);

            let mut reused = PapiLowLevel::boot(
                kind,
                Processor::AthlonK8,
                kernel.clone().with_seed(5),
                77,
            )
            .unwrap();
            let _ = lifecycle(&mut reused);
            reused.reseed(&kernel, 11).unwrap();
            assert_eq!(reused.state(), EventSetState::Stopped);
            assert!(reused.events().is_empty());
            assert_eq!(lifecycle(&mut reused), expected, "{kind:?}");
        }
    }

    #[test]
    fn duplicate_event_rejected() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        assert!(matches!(
            papi.add_event(PapiPreset::PAPI_TOT_INS),
            Err(PapiError::EventAlreadyAdded { .. })
        ));
    }

    #[test]
    fn default_domain_counts_user_only() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        papi.start().unwrap();
        let v0 = papi.read().unwrap()[0];
        let v1 = papi.read().unwrap()[0];
        // User-only window over perfmon: direct is 37, PAPI adds ~97.
        let err = v1 - v0;
        assert!((120..=155).contains(&err), "PLpm user rr = {err}");
    }

    #[test]
    fn domain_all_includes_kernel() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.set_domain(PapiDomain::All).unwrap();
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        papi.start().unwrap();
        let v0 = papi.read().unwrap()[0];
        let v1 = papi.read().unwrap()[0];
        let err = v1 - v0;
        // Direct pm is ~573 on K8; PAPI adds ~97 user.
        assert!((620..=760).contains(&err), "PLpm u+k rr = {err}");
    }

    #[test]
    fn set_domain_while_running_rejected() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        papi.start().unwrap();
        assert!(matches!(
            papi.set_domain(PapiDomain::All),
            Err(PapiError::InvalidState { .. })
        ));
    }

    #[test]
    fn accum_resets_and_accumulates() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        papi.start().unwrap();
        let mut acc = vec![0u64];
        papi.accum(&mut acc).unwrap();
        let first = acc[0];
        papi.accum(&mut acc).unwrap();
        // Accumulated twice; each interval is small (window error only).
        assert!(acc[0] > first);
        assert!(acc[0] < 2 * first + 1500, "acc={} first={first}", acc[0]);
    }

    #[test]
    fn accum_length_checked() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        papi.start().unwrap();
        let mut wrong = vec![0u64; 3];
        assert!(matches!(
            papi.accum(&mut wrong),
            Err(PapiError::LengthMismatch {
                expected: 1,
                got: 3
            })
        ));
    }

    #[test]
    fn plpc_window_larger_than_direct_pc() {
        // PAPI low level over perfctr: user rr error = pc fast read window
        // (~84 on K8) + ~97 PAPI wrapper instructions.
        let mut papi = booted(BackendKind::Perfctr);
        papi.add_event(PapiPreset::PAPI_TOT_INS).unwrap();
        papi.start().unwrap();
        let v0 = papi.read().unwrap()[0];
        let v1 = papi.read().unwrap()[0];
        let err = v1 - v0;
        assert!((165..=220).contains(&err), "PLpc user rr = {err}");
    }
}
