//! The PAPI high-level API (`PAPI_start_counters`, `PAPI_read_counters`,
//! `PAPI_accum_counters`, `PAPI_stop_counters`).
//!
//! “To allow an even simpler programming model, PAPI provides a high level
//! API that requires almost no configuration” (§2.4). The convenience has
//! two costs the paper measures:
//!
//! 1. extra wrapper instructions on every call (user-mode error rises from
//!    134 to 236 between `PLpm` and `PHpm`, Table 3);
//! 2. `PAPI_read_counters` **implicitly resets** the counters after
//!    reading, which is why the high-level API cannot express the
//!    read-read and read-stop patterns (§3.5).

use counterlab_cpu::pmu::{CountMode, Event};
use counterlab_kernel::syscall::user_code_mix;
use counterlab_kernel::system::System;

use crate::backend::{Backend, BackendKind};
use crate::lowlevel::{LOW_LEVEL_POST, LOW_LEVEL_PRE};
use crate::preset::{PapiDomain, PapiPreset};
use crate::{PapiError, Result};

/// Extra per-call user-mode wrapper instructions of the high-level API,
/// on top of the low-level layer it calls internally.
pub const HIGH_LEVEL_EXTRA_PRE: u64 = 52;
/// Extra post-call wrapper instructions.
pub const HIGH_LEVEL_EXTRA_POST: u64 = 53;

/// The PAPI high-level interface.
///
/// # Examples
///
/// ```
/// use counterlab_papi::highlevel::PapiHighLevel;
/// use counterlab_papi::backend::BackendKind;
/// use counterlab_papi::preset::PapiPreset;
/// use counterlab_cpu::prelude::*;
/// use counterlab_kernel::prelude::*;
///
/// # fn main() -> Result<(), counterlab_papi::PapiError> {
/// let mut papi = PapiHighLevel::boot(BackendKind::Perfctr, Processor::Core2Duo,
///                                    KernelConfig::default(), 7)?;
/// papi.start_counters(&[PapiPreset::PAPI_TOT_INS])?;
/// let mut values = vec![0i64; 1];
/// papi.read_counters(&mut values)?; // implicitly resets!
/// papi.stop_counters(&mut values)?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct PapiHighLevel {
    backend: Backend,
    events: Vec<PapiPreset>,
    domain: PapiDomain,
    running: bool,
    /// Reused (native event, mode) pairs handed to the substrate by
    /// `PAPI_start_counters`, so a measurement loop allocates nothing.
    native: Vec<(Event, CountMode)>,
    /// Reused counter sample of the read/accum/stop calls — same purpose.
    sample: Vec<u64>,
}

impl PapiHighLevel {
    /// Boots a fresh system and initializes the high-level interface.
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

    /// Initializes the high-level interface over an existing system.
    ///
    /// # Errors
    ///
    /// Propagates substrate attach failures.
    pub fn attach(kind: BackendKind, sys: System, seed: u64) -> Result<Self> {
        let mut backend = Backend::attach(kind, sys, seed)?;
        // PAPI_library_init (implicit in the first high-level call).
        backend.system_mut().run_user_mix(&user_code_mix(600));
        Ok(PapiHighLevel {
            backend,
            events: Vec::new(),
            domain: PapiDomain::default(),
            running: false,
            native: Vec::new(),
            sample: Vec::new(),
        })
    }

    /// Returns the interface to the state a fresh
    /// [`PapiHighLevel::attach`] with the given `kernel`/`seed` would
    /// produce, reusing the booted system's allocations (the
    /// measurement-session reuse path).
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
        // PAPI_library_init (implicit in the first high-level call).
        self.backend.system_mut().run_user_mix(&user_code_mix(600));
        self.events.clear();
        self.domain = PapiDomain::default();
        self.running = false;
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

    /// Mutable system access.
    pub fn system_mut(&mut self) -> &mut System {
        self.backend.system_mut()
    }

    /// Selects the measurement domain for subsequent
    /// [`PapiHighLevel::start_counters`] calls (the real high-level API
    /// inherits the process-wide default domain; this models
    /// `PAPI_set_domain` called before the high-level sequence).
    ///
    /// # Errors
    ///
    /// [`PapiError::InvalidState`] while counters run.
    pub fn set_domain(&mut self, domain: PapiDomain) -> Result<()> {
        if self.running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_set_domain",
                state: "running",
            });
        }
        self.domain = domain;
        Ok(())
    }

    /// `PAPI_start_counters`: configures and starts the given presets in
    /// one call.
    ///
    /// # Errors
    ///
    /// [`PapiError::NoEvents`] for an empty list;
    /// [`PapiError::InvalidState`] if already running.
    pub fn start_counters(&mut self, presets: &[PapiPreset]) -> Result<()> {
        if presets.is_empty() {
            return Err(PapiError::NoEvents);
        }
        if self.running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_start_counters",
                state: "running",
            });
        }
        self.wrap_pre();
        let mode = self.domain.to_mode();
        self.native.clear();
        self.native
            .extend(presets.iter().map(|p| (p.to_native(), mode)));
        self.backend.configure(&self.native)?;
        self.backend.start()?;
        self.wrap_post();
        self.events.clear();
        self.events.extend_from_slice(presets);
        self.running = true;
        Ok(())
    }

    /// `PAPI_read_counters`: copies the current counts into `values` and
    /// **resets the counters to zero** — the implicit reset that makes the
    /// read-read pattern impossible with this API (§3.5).
    ///
    /// # Errors
    ///
    /// [`PapiError::InvalidState`] unless running;
    /// [`PapiError::LengthMismatch`] on a wrong-size buffer.
    pub fn read_counters(&mut self, values: &mut [i64]) -> Result<()> {
        if !self.running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_read_counters",
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
        for (dst, &v) in values.iter_mut().zip(&self.sample) {
            *dst = v as i64;
        }
        Ok(())
    }

    /// `PAPI_accum_counters`: adds the counts into `values` and resets.
    ///
    /// # Errors
    ///
    /// As [`PapiHighLevel::read_counters`].
    pub fn accum_counters(&mut self, values: &mut [i64]) -> Result<()> {
        if !self.running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_accum_counters",
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
        for (dst, &v) in values.iter_mut().zip(&self.sample) {
            *dst += v as i64;
        }
        Ok(())
    }

    /// `PAPI_stop_counters`: stops counting and stores the final counts.
    ///
    /// # Errors
    ///
    /// As [`PapiHighLevel::read_counters`].
    pub fn stop_counters(&mut self, values: &mut [i64]) -> Result<()> {
        if !self.running {
            return Err(PapiError::InvalidState {
                operation: "PAPI_stop_counters",
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
        self.backend.stop()?;
        self.backend.read_into(&mut self.sample)?;
        self.wrap_post();
        for (dst, &v) in values.iter_mut().zip(&self.sample) {
            *dst = v as i64;
        }
        self.running = false;
        Ok(())
    }

    /// Whether counters are running.
    pub fn is_running(&self) -> bool {
        self.running
    }

    fn wrap_pre(&mut self) {
        self.backend
            .system_mut()
            .run_user_mix(&user_code_mix(HIGH_LEVEL_EXTRA_PRE + LOW_LEVEL_PRE));
    }

    fn wrap_post(&mut self) {
        self.backend
            .system_mut()
            .run_user_mix(&user_code_mix(HIGH_LEVEL_EXTRA_POST + LOW_LEVEL_POST));
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

    fn booted(kind: BackendKind) -> PapiHighLevel {
        PapiHighLevel::boot(kind, Processor::AthlonK8, quiet(), 1).unwrap()
    }

    #[test]
    fn lifecycle_both_backends() {
        for kind in [BackendKind::Perfctr, BackendKind::Perfmon] {
            let mut papi = booted(kind);
            papi.start_counters(&[PapiPreset::PAPI_TOT_INS]).unwrap();
            assert!(papi.is_running());
            let mut v = vec![0i64];
            papi.read_counters(&mut v).unwrap();
            papi.stop_counters(&mut v).unwrap();
            assert!(!papi.is_running());
        }
    }

    #[test]
    fn read_counters_implicitly_resets() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.set_domain(PapiDomain::User).unwrap();
        papi.start_counters(&[PapiPreset::PAPI_TOT_INS]).unwrap();
        // Run a chunk of benchmark work, read (and implicitly reset).
        papi.system_mut()
            .run_user_mix(&counterlab_cpu::mix::InstMix::straight_line(100_000));
        let mut v = vec![0i64];
        papi.read_counters(&mut v).unwrap();
        assert!(v[0] >= 100_000);
        // Immediately read again: the counter restarted near zero, so the
        // second reading must NOT include the 100k.
        let mut w = vec![0i64];
        papi.read_counters(&mut w).unwrap();
        assert!(w[0] < 5_000, "implicit reset missing: {}", w[0]);
    }

    #[test]
    fn window_error_larger_than_low_level() {
        // PHpm user-mode start→read window ≈ pm direct + PL + PH extras.
        let mut papi = booted(BackendKind::Perfmon);
        papi.start_counters(&[PapiPreset::PAPI_TOT_INS]).unwrap();
        let mut v = vec![0i64];
        papi.read_counters(&mut v).unwrap();
        let err = v[0] as u64;
        // Table 3: PHpm user start-read median 236.
        assert!((200..=280).contains(&err), "PHpm user ar = {err}");
    }

    #[test]
    fn state_machine() {
        let mut papi = booted(BackendKind::Perfctr);
        let mut v = vec![0i64];
        assert!(matches!(
            papi.read_counters(&mut v),
            Err(PapiError::InvalidState { .. })
        ));
        assert!(matches!(papi.start_counters(&[]), Err(PapiError::NoEvents)));
        papi.start_counters(&[PapiPreset::PAPI_TOT_INS]).unwrap();
        assert!(matches!(
            papi.start_counters(&[PapiPreset::PAPI_TOT_CYC]),
            Err(PapiError::InvalidState { .. })
        ));
        assert!(matches!(
            papi.set_domain(PapiDomain::All),
            Err(PapiError::InvalidState { .. })
        ));
    }

    #[test]
    fn buffer_length_enforced() {
        let mut papi = booted(BackendKind::Perfctr);
        papi.start_counters(&[PapiPreset::PAPI_TOT_INS]).unwrap();
        let mut wrong = vec![0i64; 2];
        assert!(matches!(
            papi.read_counters(&mut wrong),
            Err(PapiError::LengthMismatch {
                expected: 1,
                got: 2
            })
        ));
        assert!(matches!(
            papi.accum_counters(&mut wrong),
            Err(PapiError::LengthMismatch { .. })
        ));
        assert!(matches!(
            papi.stop_counters(&mut wrong),
            Err(PapiError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn accum_adds_into_buffer() {
        let mut papi = booted(BackendKind::Perfctr);
        papi.start_counters(&[PapiPreset::PAPI_TOT_INS]).unwrap();
        let mut acc = vec![1_000_000i64];
        papi.accum_counters(&mut acc).unwrap();
        assert!(acc[0] >= 1_000_000, "accumulates, not overwrites");
    }

    #[test]
    fn multiple_counters() {
        let mut papi = booted(BackendKind::Perfmon);
        papi.start_counters(&[
            PapiPreset::PAPI_TOT_INS,
            PapiPreset::PAPI_BR_INS,
            PapiPreset::PAPI_TOT_CYC,
        ])
        .unwrap();
        let mut v = vec![0i64; 3];
        papi.read_counters(&mut v).unwrap();
        // Instructions >= branches.
        assert!(v[0] >= v[1]);
    }
}
