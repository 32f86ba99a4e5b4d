//! The libperfctr user-space API over the perfctr kernel extension.
//!
//! Modeled on Mikael Pettersson's perfctr 2.6.29 (the version the paper
//! uses): a process opens its per-thread *vperfctr*, programs counters with
//! a control call, and then reads them either through the **fast user-mode
//! path** — `rdtsc` + `rdpmc` against a kernel-mapped state page, possible
//! only while the TSC is part of the measurement set — or through a system
//! call when the TSC is disabled. Figure 4 of the paper hinges on exactly
//! this asymmetry.

use counterlab_cpu::pmu::{CountMode, Event, PmcConfig};
use counterlab_cpu::uarch::Processor;
use counterlab_kernel::config::KernelConfig;
use counterlab_kernel::syscall::lib_syscall;
use counterlab_kernel::system::System;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::costs::{PathCost, PerfctrCosts};
use crate::{PerfctrError, Result};

/// Options for opening a vperfctr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfctrOptions {
    /// Whether the TSC is included in the measurement set. Enabling it is
    /// what unlocks the fast user-mode read (§4.1 of the paper).
    pub tsc_on: bool,
    /// Seed for the library's per-call cost jitter.
    pub seed: u64,
}

impl Default for PerfctrOptions {
    fn default() -> Self {
        PerfctrOptions {
            tsc_on: true,
            seed: 0x9E37_79B9,
        }
    }
}

/// Counter values returned by a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Programmable counter values, in configuration order.
    pub pmcs: Vec<u64>,
    /// TSC value (present when the TSC is enabled in the control).
    pub tsc: Option<u64>,
}

/// A per-thread virtual performance counter handle (libperfctr's
/// `struct vperfctr`).
///
/// # Examples
///
/// ```
/// use counterlab_perfctr::vperfctr::{Perfctr, PerfctrOptions};
/// use counterlab_cpu::prelude::*;
/// use counterlab_kernel::prelude::*;
///
/// # fn main() -> Result<(), counterlab_perfctr::PerfctrError> {
/// let mut pc = Perfctr::boot(
///     Processor::Core2Duo,
///     KernelConfig::default(),
///     PerfctrOptions::default(),
/// )?;
/// pc.control(&[(Event::InstructionsRetired, CountMode::UserOnly)])?;
/// pc.start()?;
/// let before = pc.read_ctrs()?;
/// // ... benchmark would run here ...
/// let after = pc.read_ctrs()?;
/// assert!(after.pmcs[0] >= before.pmcs[0]);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct Perfctr {
    sys: System,
    costs: PerfctrCosts,
    rng: StdRng,
    tsc_on: bool,
    events: Vec<(Event, CountMode)>,
    running: bool,
}

impl Perfctr {
    /// Boots a fresh system with the perfctr kernel extension loaded and
    /// opens the calling thread's vperfctr.
    ///
    /// # Errors
    ///
    /// Propagates CPU faults from the open syscall (none in normal use).
    pub fn boot(
        processor: Processor,
        kernel: KernelConfig,
        options: PerfctrOptions,
    ) -> Result<Self> {
        let sys = System::new(processor, kernel);
        Self::attach(sys, options)
    }

    /// Attaches perfctr to an existing system (loads the extension, opens
    /// the vperfctr, maps the state page, and sets `CR4.PCE` so user-mode
    /// `RDPMC` works).
    ///
    /// # Errors
    ///
    /// Propagates CPU faults from the open syscall.
    pub fn attach(mut sys: System, options: PerfctrOptions) -> Result<Self> {
        let costs = PerfctrCosts::for_processor(sys.machine().processor());
        sys.set_tick_extension_extra(costs.tick_extra);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let path = jittered(&costs.open, &costs, &mut rng);
        lib_syscall(
            &mut sys,
            path.wrapper_pre,
            path.handler_pre,
            path.handler_post,
            path.wrapper_post,
            |m| {
                // The vperfctr open enables user-mode RDPMC for the process.
                m.set_cr4_pce(true)?;
                Ok(())
            },
        )?;
        Ok(Perfctr {
            sys,
            costs,
            rng,
            tsc_on: options.tsc_on,
            events: Vec::new(),
            running: false,
        })
    }

    /// Returns the handle to the state a fresh [`Perfctr::boot`] with the
    /// same processor and the given `kernel`/`options` would produce,
    /// reusing the booted system's allocations.
    ///
    /// This replays [`Perfctr::attach`] — extension tick hook, jittered
    /// open syscall, `CR4.PCE` enable — on the reseeded system, so the
    /// handle is bit-identical to a fresh boot (the measurement-session
    /// reuse path).
    ///
    /// # Errors
    ///
    /// Propagates CPU faults from the open syscall.
    pub fn reseed(&mut self, kernel: &KernelConfig, options: PerfctrOptions) -> Result<()> {
        self.sys.reseed(kernel);
        self.sys.set_tick_extension_extra(self.costs.tick_extra);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let path = jittered(&self.costs.open, &self.costs, &mut rng);
        lib_syscall(
            &mut self.sys,
            path.wrapper_pre,
            path.handler_pre,
            path.handler_post,
            path.wrapper_post,
            |m| {
                m.set_cr4_pce(true)?;
                Ok(())
            },
        )?;
        self.rng = rng;
        self.tsc_on = options.tsc_on;
        self.events.clear();
        self.running = false;
        Ok(())
    }

    /// The underlying system (to run benchmark code between counter calls).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Mutable system access.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// Consumes the handle, returning the system.
    pub fn into_system(self) -> System {
        self.sys
    }

    /// The cost model in use.
    pub fn costs(&self) -> &PerfctrCosts {
        &self.costs
    }

    /// Whether counting is currently started.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Number of programmed counters.
    pub fn counter_count(&self) -> usize {
        self.events.len()
    }

    /// `vperfctr_control`: programs the given events (disabled). Must be
    /// called before [`Perfctr::start`].
    ///
    /// # Errors
    ///
    /// [`PerfctrError::TooManyCounters`] if the processor lacks registers;
    /// CPU faults propagate.
    pub fn control(&mut self, events: &[(Event, CountMode)]) -> Result<()> {
        let avail = self.sys.machine().pmu().programmable_count();
        if events.len() > avail {
            return Err(PerfctrError::TooManyCounters {
                requested: events.len(),
                available: avail,
            });
        }
        let path = jittered(&self.costs.control, &self.costs, &mut self.rng);
        lib_syscall(
            &mut self.sys,
            path.wrapper_pre,
            path.handler_pre,
            path.handler_post,
            path.wrapper_post,
            |m| {
                for (i, (event, mode)) in events.iter().enumerate() {
                    m.pmu_mut().program(i, PmcConfig::disabled(*event, *mode))?;
                }
                Ok(())
            },
        )?;
        self.events.clear();
        self.events.extend_from_slice(events);
        self.running = false;
        Ok(())
    }

    /// Starts counting. The measured counter (index 0) is enabled *last*,
    /// so the extra counters' enable work lands before the capture point.
    ///
    /// # Errors
    ///
    /// [`PerfctrError::NotConfigured`] without a prior
    /// [`Perfctr::control`]; CPU faults propagate.
    pub fn start(&mut self) -> Result<()> {
        if self.events.is_empty() {
            return Err(PerfctrError::NotConfigured);
        }
        let n = self.events.len() as u64;
        let mut path = jittered(&self.costs.start, &self.costs, &mut self.rng);
        path.handler_pre += self.costs.start_per_counter_pre * (n - 1);
        path.handler_post += self.costs.start_per_counter_post * (n - 1);
        let count = self.events.len();
        lib_syscall(
            &mut self.sys,
            path.wrapper_pre,
            path.handler_pre,
            path.handler_post,
            path.wrapper_post,
            |m| {
                // Enable extras first (their cost is in handler_pre), the
                // measured counter last: its enable is the capture point.
                for i in (0..count).rev() {
                    m.pmu_mut().set_enabled(i, true)?;
                }
                Ok(())
            },
        )?;
        self.running = true;
        Ok(())
    }

    /// Stops counting. The measured counter is disabled *first* (capture
    /// point), then the extras.
    ///
    /// # Errors
    ///
    /// [`PerfctrError::NotConfigured`] without configuration.
    pub fn stop(&mut self) -> Result<()> {
        if self.events.is_empty() {
            return Err(PerfctrError::NotConfigured);
        }
        let n = self.events.len() as u64;
        let mut path = jittered(&self.costs.stop, &self.costs, &mut self.rng);
        path.handler_post += self.costs.stop_per_counter_pre * (n - 1);
        let count = self.events.len();
        lib_syscall(
            &mut self.sys,
            path.wrapper_pre,
            path.handler_pre,
            path.handler_post,
            path.wrapper_post,
            |m| {
                for i in 0..count {
                    m.pmu_mut().set_enabled(i, false)?;
                }
                Ok(())
            },
        )?;
        self.running = false;
        Ok(())
    }

    /// Resets all counter values (and the accumulated sums in the kernel
    /// state page) to zero.
    ///
    /// # Errors
    ///
    /// [`PerfctrError::NotConfigured`] without configuration.
    pub fn reset(&mut self) -> Result<()> {
        if self.events.is_empty() {
            return Err(PerfctrError::NotConfigured);
        }
        let path = jittered(&self.costs.reset, &self.costs, &mut self.rng);
        let count = self.events.len();
        lib_syscall(
            &mut self.sys,
            path.wrapper_pre,
            path.handler_pre,
            path.handler_post,
            path.wrapper_post,
            |m| {
                for i in 0..count {
                    m.pmu_mut().write_pmc(i, 0)?;
                }
                Ok(())
            },
        )?;
        Ok(())
    }

    /// Reads the counters.
    ///
    /// With the TSC enabled this is the **fast user-mode path**: pure user
    /// instructions (`rdtsc`, then one `rdpmc` per counter against the
    /// mapped vperfctr page) and no kernel entry. With the TSC disabled,
    /// perfctr cannot use that path and falls back to a system call — the
    /// reason disabling the TSC *increases* the error in Figure 4.
    ///
    /// # Errors
    ///
    /// [`PerfctrError::NotConfigured`] without configuration; CPU faults
    /// propagate.
    pub fn read_ctrs(&mut self) -> Result<CounterSample> {
        let mut pmcs = Vec::with_capacity(self.events.len());
        let tsc = self.read_ctrs_into(&mut pmcs)?;
        Ok(CounterSample { pmcs, tsc })
    }

    /// [`Perfctr::read_ctrs`] into a caller-owned buffer (cleared first),
    /// returning the TSC sample when the fast path took one: the
    /// allocation-free variant for measurement hot loops. The simulated
    /// call path is identical.
    ///
    /// # Errors
    ///
    /// As [`Perfctr::read_ctrs`].
    pub fn read_ctrs_into(&mut self, pmcs: &mut Vec<u64>) -> Result<Option<u64>> {
        if self.events.is_empty() {
            return Err(PerfctrError::NotConfigured);
        }
        pmcs.clear();
        if self.tsc_on {
            self.fast_read(pmcs).map(Some)
        } else {
            self.slow_read(pmcs).map(|()| None)
        }
    }

    fn fast_read(&mut self, pmcs: &mut Vec<u64>) -> Result<u64> {
        let n = self.events.len() as u64;
        let uj = self.rng.gen_range(0..=self.costs.user_jitter);
        let pre = self.costs.fast_read.wrapper_pre
            + self.costs.fast_read_per_counter_pre * (n - 1)
            + uj / 2;
        let post = self.costs.fast_read.wrapper_post + uj - uj / 2;
        let count = self.events.len();
        let per_counter_post = self.costs.fast_read_per_counter_post;

        // Pre side: wrapper prologue + rdtsc + per-counter page loads.
        self.sys.run_user_code(pre.saturating_sub(1));
        let tsc = self.sys.machine().rdtsc();
        self.sys
            .run_user_mix(&counterlab_cpu::mix::MixBuilder::new().rdtsc(1).build());
        // Capture of the measured counter.
        pmcs.push(self.sys.machine().rdpmc(0)?);
        // Remaining counters: each costs rdpmc + accumulate instructions
        // that land after the measured counter's capture.
        for i in 1..count {
            let per = counterlab_cpu::mix::MixBuilder::new()
                .alu(per_counter_post - 1)
                .rdpmc(1)
                .build();
            self.sys.run_user_mix(&per);
            pmcs.push(self.sys.machine().rdpmc(i)?);
        }
        // Post side: the measured counter's own rdpmc + accumulation + epilogue.
        let post_mix = counterlab_cpu::mix::MixBuilder::new()
            .alu(post.saturating_sub(3))
            .rdpmc(1)
            .stores(2)
            .build();
        self.sys.run_user_mix(&post_mix);
        Ok(tsc)
    }

    fn slow_read(&mut self, pmcs: &mut Vec<u64>) -> Result<()> {
        let n = self.events.len() as u64;
        let mut path = jittered(&self.costs.slow_read, &self.costs, &mut self.rng);
        path.handler_pre += self.costs.slow_read_per_counter * (n - 1);
        path.handler_post += self.costs.slow_read_per_counter * (n - 1);
        let count = self.events.len();
        lib_syscall(
            &mut self.sys,
            path.wrapper_pre,
            path.handler_pre,
            path.handler_post,
            path.wrapper_post,
            |m| {
                for i in 0..count {
                    pmcs.push(m.pmu().read_pmc(i)?);
                }
                Ok(())
            },
        )?;
        Ok(())
    }
}

/// Fast user-mode reads without kernel support would fault; this helper
/// exposes the pure-user read skeleton for tests of the mechanism.
pub fn fast_read_window(costs: &PerfctrCosts, counters: u64) -> (u64, u64) {
    let pre =
        costs.fast_read.wrapper_pre + costs.fast_read_per_counter_pre * counters.saturating_sub(1);
    let post = costs.fast_read.wrapper_post
        + costs.fast_read_per_counter_post * counters.saturating_sub(1);
    (pre, post)
}

/// Applies per-call jitter to a path.
fn jittered(path: &PathCost, costs: &PerfctrCosts, rng: &mut StdRng) -> PathCost {
    let uj = rng.gen_range(0..=costs.user_jitter);
    let kj = rng.gen_range(0..=costs.kernel_jitter);
    PathCost {
        wrapper_pre: path.wrapper_pre + uj / 2,
        handler_pre: path.handler_pre + kj / 2,
        handler_post: path.handler_post + kj - kj / 2,
        wrapper_post: path.wrapper_post + uj - uj / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> KernelConfig {
        KernelConfig::default()
            .with_hz(0)
            .with_skid(counterlab_kernel::config::SkidModel::disabled())
    }

    fn booted(tsc_on: bool) -> Perfctr {
        Perfctr::boot(
            Processor::Core2Duo,
            quiet(),
            PerfctrOptions { tsc_on, seed: 1 },
        )
        .unwrap()
    }

    #[test]
    fn open_enables_user_rdpmc() {
        let pc = booted(true);
        assert!(pc.system().machine().cr4_pce());
    }

    #[test]
    fn control_programs_disabled_counters() {
        let mut pc = booted(true);
        pc.control(&[(Event::InstructionsRetired, CountMode::UserOnly)])
            .unwrap();
        let cfg = pc.system().machine().pmu().config(0).unwrap().unwrap();
        assert!(!cfg.enabled);
        assert_eq!(cfg.event, Event::InstructionsRetired);
        assert!(!pc.is_running());
        assert_eq!(pc.counter_count(), 1);
    }

    #[test]
    fn start_stop_toggle_counting() {
        let mut pc = booted(true);
        pc.control(&[(Event::InstructionsRetired, CountMode::UserOnly)])
            .unwrap();
        pc.start().unwrap();
        assert!(pc.is_running());
        assert!(
            pc.system()
                .machine()
                .pmu()
                .config(0)
                .unwrap()
                .unwrap()
                .enabled
        );
        pc.stop().unwrap();
        assert!(!pc.is_running());
        assert!(
            !pc.system()
                .machine()
                .pmu()
                .config(0)
                .unwrap()
                .unwrap()
                .enabled
        );
    }

    #[test]
    fn too_many_counters_rejected() {
        let mut pc = booted(true);
        let events: Vec<_> = (0..3)
            .map(|_| (Event::InstructionsRetired, CountMode::UserOnly))
            .collect();
        // Core 2 has two programmable counters.
        assert!(matches!(
            pc.control(&events),
            Err(PerfctrError::TooManyCounters {
                requested: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn read_before_control_rejected() {
        let mut pc = booted(true);
        assert!(matches!(pc.read_ctrs(), Err(PerfctrError::NotConfigured)));
        assert!(matches!(pc.start(), Err(PerfctrError::NotConfigured)));
        assert!(matches!(pc.stop(), Err(PerfctrError::NotConfigured)));
        assert!(matches!(pc.reset(), Err(PerfctrError::NotConfigured)));
    }

    #[test]
    fn fast_read_stays_in_user_mode() {
        let mut pc = booted(true);
        pc.control(&[(Event::InstructionsRetired, CountMode::UserAndKernel)])
            .unwrap();
        pc.start().unwrap();
        let syscalls_before = pc.system().syscall_count();
        let s = pc.read_ctrs().unwrap();
        assert_eq!(pc.system().syscall_count(), syscalls_before, "no syscall");
        assert!(s.tsc.is_some());
    }

    #[test]
    fn slow_read_uses_syscall() {
        let mut pc = booted(false);
        pc.control(&[(Event::InstructionsRetired, CountMode::UserAndKernel)])
            .unwrap();
        pc.start().unwrap();
        let syscalls_before = pc.system().syscall_count();
        let s = pc.read_ctrs().unwrap();
        assert_eq!(pc.system().syscall_count(), syscalls_before + 1);
        assert!(s.tsc.is_none());
    }

    #[test]
    fn null_window_error_fast_read_about_109() {
        // The read-read window on CD: two fast reads back to back with a
        // user-mode counter should count roughly the paper's 109
        // instructions (post of the 1st read + pre of the 2nd).
        let mut pc = booted(true);
        pc.control(&[(Event::InstructionsRetired, CountMode::UserOnly)])
            .unwrap();
        pc.start().unwrap();
        let c0 = pc.read_ctrs().unwrap().pmcs[0];
        let c1 = pc.read_ctrs().unwrap().pmcs[0];
        let err = c1 - c0;
        assert!((95..=135).contains(&err), "rr error = {err}");
    }

    #[test]
    fn tsc_off_inflates_read_error() {
        let run = |tsc_on: bool| {
            let mut pc = booted(tsc_on);
            pc.control(&[(Event::InstructionsRetired, CountMode::UserAndKernel)])
                .unwrap();
            pc.start().unwrap();
            let c0 = pc.read_ctrs().unwrap().pmcs[0];
            let c1 = pc.read_ctrs().unwrap().pmcs[0];
            c1 - c0
        };
        let on = run(true);
        let off = run(false);
        assert!(off > 10 * on, "TSC off {off} should dwarf TSC on {on}");
        assert!((1_400..=2_100).contains(&off), "off = {off}");
    }

    #[test]
    fn extra_counters_grow_fast_read_window() {
        let run = |n: usize| {
            let mut pc = Perfctr::boot(
                Processor::AthlonK8,
                quiet(),
                PerfctrOptions {
                    tsc_on: true,
                    seed: 3,
                },
            )
            .unwrap();
            let events: Vec<_> = [
                (Event::InstructionsRetired, CountMode::UserOnly),
                (Event::CoreCycles, CountMode::UserOnly),
                (Event::BranchesRetired, CountMode::UserOnly),
                (Event::ICacheMisses, CountMode::UserOnly),
            ][..n]
                .to_vec();
            pc.control(&events).unwrap();
            pc.start().unwrap();
            let c0 = pc.read_ctrs().unwrap().pmcs[0];
            let c1 = pc.read_ctrs().unwrap().pmcs[0];
            c1 - c0
        };
        let one = run(1);
        let four = run(4);
        // Paper: K8 read-read grows from ~84 to ~125 between 1 and 4.
        assert!(four > one + 20, "one={one} four={four}");
        assert!(four < one + 90, "growth should be modest: {one} -> {four}");
    }

    #[test]
    fn fast_read_window_helper() {
        let c = PerfctrCosts::for_processor(Processor::AthlonK8);
        let (p1, q1) = fast_read_window(&c, 1);
        let (p4, q4) = fast_read_window(&c, 4);
        assert!(p4 > p1);
        assert!(q4 > q1);
    }

    #[test]
    fn reset_zeroes_counters() {
        let mut pc = booted(true);
        pc.control(&[(Event::InstructionsRetired, CountMode::UserAndKernel)])
            .unwrap();
        pc.start().unwrap();
        let _ = pc.read_ctrs().unwrap();
        pc.reset().unwrap();
        // Counter restarts from (near) zero: only the post-reset handler
        // tail and read-pre window count.
        let v = pc.read_ctrs().unwrap().pmcs[0];
        assert!(v < 1_500, "post-reset value = {v}");
    }

    #[test]
    fn reseed_matches_fresh_boot() {
        let lifecycle = |pc: &mut Perfctr| {
            pc.control(&[(Event::InstructionsRetired, CountMode::UserAndKernel)])
                .unwrap();
            pc.start().unwrap();
            let c0 = pc.read_ctrs().unwrap();
            let c1 = pc.read_ctrs().unwrap();
            (c0, c1, pc.system().machine().cycle())
        };
        for (tsc_on, seed) in [(true, 7u64), (false, 7), (true, 99)] {
            let options = PerfctrOptions { tsc_on, seed };
            let mut fresh =
                Perfctr::boot(Processor::AthlonK8, KernelConfig::default(), options).unwrap();
            let expected = lifecycle(&mut fresh);

            // Dirty a handle booted under different options, then reseed.
            let mut reused = Perfctr::boot(
                Processor::AthlonK8,
                KernelConfig::default().with_seed(1),
                PerfctrOptions {
                    tsc_on: !tsc_on,
                    seed: seed ^ 0xAB,
                },
            )
            .unwrap();
            let _ = lifecycle(&mut reused);
            reused.reseed(&KernelConfig::default(), options).unwrap();
            assert!(!reused.is_running());
            assert_eq!(reused.counter_count(), 0);
            assert_eq!(lifecycle(&mut reused), expected, "tsc={tsc_on} seed={seed}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut pc = booted(true);
            pc.control(&[(Event::InstructionsRetired, CountMode::UserOnly)])
                .unwrap();
            pc.start().unwrap();
            let c0 = pc.read_ctrs().unwrap().pmcs[0];
            let c1 = pc.read_ctrs().unwrap().pmcs[0];
            c1 - c0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn benchmark_instructions_counted_exactly() {
        use counterlab_cpu::mix::InstMix;
        let mut pc = booted(true);
        pc.control(&[(Event::InstructionsRetired, CountMode::UserOnly)])
            .unwrap();
        pc.start().unwrap();
        let c0 = pc.read_ctrs().unwrap().pmcs[0];
        pc.system_mut()
            .run_user_mix(&InstMix::straight_line(10_000));
        let c1 = pc.read_ctrs().unwrap().pmcs[0];
        let measured = c1 - c0;
        // benchmark + fixed window error (~109)
        assert!(measured >= 10_000);
        assert!(measured < 10_200, "measured = {measured}");
    }
}
