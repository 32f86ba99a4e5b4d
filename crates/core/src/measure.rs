//! Running one measurement: the harness of §3.6.
//!
//! A measurement embeds a benchmark in the call sequence of an access
//! pattern (Table 2), runs it on a freshly booted system, and compares the
//! measured count `c∆ = c1 − c0` with the benchmark's statically known
//! count. The deviation is the *measurement error* the paper studies.
//!
//! Two entry points produce bit-identical records:
//!
//! * [`run_measurement`] — boots a fresh simulated stack for one run: the
//!   historical path, kept as the equivalence oracle (the sweep runner's
//!   per-run switch, [`Plan::measure`](crate::sweep::Plan::measure),
//!   selects it);
//! * [`MeasurementSession`] — validates a cell and boots its stack, then
//!   runs any number of seeded repetitions against that stack via the
//!   reseed path, with the placement, event selection and kernel template
//!   hoisted out of the per-repetition loop. [`MeasurementSession::reuse`]
//!   re-targets a finished session to the next cell when both run on the
//!   same processor × interface, so the sweep runner ([`crate::sweep`],
//!   the only caller a clippy rule allows) boots **once per stack per
//!   worker**, not once per cell: cells of the paper's 170 000-measurement
//!   sweep differ only in factors the reseed path already restores, so
//!   paying the full boot per cell (or per repetition) was pure overhead.

// Serving path: a panic here kills a countd worker or a whole sweep, so every
// unwrap, expect, index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use counterlab_cpu::layout::{BuildFingerprint, CodePlacement};
use counterlab_cpu::pmu::Event;
use counterlab_kernel::config::KernelConfig;

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::interface::{check_supported, AnyInterface, CountingMode};
use crate::pattern::Pattern;
use crate::Result;

/// The outcome of one measurement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// The configuration that produced this record.
    pub config: MeasurementConfig,
    /// The benchmark that was measured.
    pub benchmark: Benchmark,
    /// The measured count `c∆` of the primary event.
    pub measured: u64,
    /// The statically expected count (0 for the null benchmark, `1 + 3l`
    /// for the loop when counting user-mode instructions).
    pub expected: u64,
}

impl Record {
    /// The measurement error `measured − expected`. The paper treats “every
    /// deviation from zero \[as\] a measurement error” (§4); errors are
    /// almost always positive (superfluous counted events) but boundary
    /// skid can make user-mode errors slightly negative.
    pub fn error(&self) -> i64 {
        self.measured as i64 - self.expected as i64
    }

    /// Error normalized per loop iteration (the y-axis of Figures 7/8);
    /// `None` for the null benchmark.
    pub fn error_per_iteration(&self) -> Option<f64> {
        let iters = self.benchmark.iterations();
        if iters == 0 {
            None
        } else {
            Some(self.error() as f64 / iters as f64)
        }
    }
}

/// The code placement the build of this configuration produces.
///
/// Every factor that changes the emitted code layout participates in the
/// fingerprint — pattern, optimization level, interface and benchmark —
/// reproducing §6's placement sensitivity. The loop's `MAX` iteration
/// count is deliberately *not* hashed: it only changes an immediate
/// operand, so all sizes of one build share a placement (which is why each
/// Figure 12 panel is a clean line).
pub fn placement_for(config: &MeasurementConfig, benchmark: &Benchmark) -> CodePlacement {
    BuildFingerprint::new()
        .with_str(config.pattern.code())
        .with_u64(config.opt_level.level())
        .with_str(config.interface.code())
        .with_str(benchmark.name())
        .placement()
}

/// The events programmed for an `n`-counter measurement: the measured
/// event first, then distinct filler events (§4.1 measures “all possible
/// combinations of enabled counters”; we take the first `n−1` others).
///
/// `counters == 0` selects **no** events. The old `saturating_sub(1)`
/// arithmetic still returned `vec![primary]` for zero counters, so a
/// request that should have been impossible armed one counter anyway and
/// produced an empty-but-plausible record; callers gate on
/// [`crate::CoreError::ZeroCounters`] before ever reaching this function,
/// and this now agrees with them instead of quietly disagreeing.
pub fn event_selection(primary: Event, counters: usize) -> Vec<Event> {
    selected_events(primary, counters).collect()
}

/// The sequence [`event_selection`] collects, for callers that refill a
/// buffer they already own.
fn selected_events(primary: Event, counters: usize) -> impl Iterator<Item = Event> {
    std::iter::once(primary)
        .chain(Event::ALL.into_iter().filter(move |e| *e != primary))
        .take(counters)
}

/// The interface-library seed is decorrelated from the kernel seed by a
/// fixed XOR (both derive from the per-run seed, as they always have).
const INTERFACE_SEED_XOR: u64 = 0x5EED;

/// A reusable measurement stack: the simulated system is validated and
/// booted once, then any number of seeded repetitions run against it
/// through the reseed path, and [`MeasurementSession::reuse`] hands it on
/// to the next cell of the same processor × interface.
///
/// Every run is bit-identical to [`run_measurement`] with the same
/// configuration and seed — the reseed path restores the exact
/// post-boot state a fresh stack would have (the session equivalence
/// suite and the pinned golden CSV lock this in). What the session
/// *avoids* paying per repetition: the simulated stack's construction
/// and its allocations, the `placement_for` build-fingerprint hash, the
/// `event_selection` vector, and the `KernelConfig` assembly. After its
/// first run a session allocates nothing, on every processor × interface.
///
/// # Examples
///
/// ```
/// use counterlab::benchmark::Benchmark;
/// use counterlab::config::MeasurementConfig;
/// use counterlab::interface::Interface;
/// use counterlab::measure::{run_measurement, MeasurementSession};
/// use counterlab_cpu::uarch::Processor;
///
/// # fn main() -> counterlab::Result<()> {
/// let cfg = MeasurementConfig::new(Processor::AthlonK8, Interface::Pm);
/// let mut session = MeasurementSession::new(&cfg, Benchmark::Null)?;
/// for seed in [1, 2, 3] {
///     let reused = session.run(seed)?;
///     let fresh = run_measurement(&cfg.with_seed(seed), Benchmark::Null)?;
///     assert_eq!(reused, fresh);
/// }
/// // The next cell on the same stack re-targets it instead of booting.
/// let next = cfg.with_counters(2).with_hz(0);
/// let mut session = MeasurementSession::reuse(Some(session), &next, Benchmark::Null)?;
/// assert_eq!(session.run(4)?, run_measurement(&next.with_seed(4), Benchmark::Null)?);
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct MeasurementSession {
    config: MeasurementConfig,
    benchmark: Benchmark,
    /// Kernel template: per-run seeds are stamped into a copy's `seed`.
    kernel: KernelConfig,
    api: AnyInterface,
    /// Hoisted event selection (identical for every repetition).
    events: Vec<Event>,
    /// Memoized `placement_for` result, keyed by the cell's build
    /// fingerprint — constant across repetitions *and* across loop sizes
    /// of one build (the iteration count is not part of the fingerprint).
    placement: CodePlacement,
    /// Seed the stack is currently booted/reseeded for, or `None` once
    /// the state has been consumed by a run (or the session re-targeted).
    armed_for: Option<u64>,
}

impl MeasurementSession {
    /// Validates `config` and boots the measurement stack once.
    ///
    /// The boot uses `config.seed`, so a first [`MeasurementSession::run`]
    /// with that same seed consumes the boot state directly; runs with any
    /// other seed reseed first. Either way the records are bit-identical
    /// to fresh boots.
    ///
    /// # Errors
    ///
    /// * [`crate::CoreError::UnsupportedPattern`] for PAPI-high-level with
    ///   a read-first pattern;
    /// * [`crate::CoreError::ZeroCounters`] when zero counters are
    ///   requested — a typed, machine-matchable rejection, because a
    ///   zero-counter "measurement" has nothing to arm and anything it
    ///   returned would be indistinguishable from a real record;
    /// * [`crate::CoreError::InvalidConfig`] when the processor lacks the
    ///   requested number of counters;
    /// * substrate boot errors propagate.
    #[expect(clippy::disallowed_methods, reason = "a new session is a re-target of none")]
    pub fn new(config: &MeasurementConfig, benchmark: Benchmark) -> Result<Self> {
        Self::reuse(None, config, benchmark)
    }

    /// A session for `config`, re-targeting `prev` when it runs the same
    /// processor × interface and booting a new stack otherwise.
    ///
    /// Processor and interface are the only boot-only parameters: the
    /// timer frequency and the TSC setting go through the reseed every
    /// run performs, and the event list, placement and kernel template are
    /// rebuilt here. A re-targeted session reseeds before its first run,
    /// so its records are bit-identical to [`MeasurementSession::new`]'s
    /// and to fresh boots. Same-stack reuse allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`MeasurementSession::new`], checked before `prev` is looked at
    /// (an invalid cell drops `prev`).
    pub fn reuse(
        prev: Option<MeasurementSession>,
        config: &MeasurementConfig,
        benchmark: Benchmark,
    ) -> Result<Self> {
        check_supported(config.interface, config.pattern)?;
        if config.counters == 0 {
            return Err(crate::CoreError::ZeroCounters);
        }
        let available = config.processor.uarch().programmable_counters;
        if config.counters > available {
            return Err(crate::CoreError::InvalidConfig(format!(
                "{} counters requested, {} has {}",
                config.counters, config.processor, available
            )));
        }
        let kernel = KernelConfig::default()
            .with_hz(config.hz)
            .with_seed(config.seed);
        let placement = placement_for(config, &benchmark);
        if let Some(mut session) = prev.filter(|s| {
            s.config.processor == config.processor && s.config.interface == config.interface
        }) {
            session.config = *config;
            session.benchmark = benchmark;
            session.kernel = kernel;
            session.events.clear();
            session
                .events
                .extend(selected_events(config.event, config.counters));
            session.placement = placement;
            session.armed_for = None;
            return Ok(session);
        }
        let api = AnyInterface::boot(
            config.interface,
            config.processor,
            kernel.clone(),
            config.tsc_on,
            config.seed ^ INTERFACE_SEED_XOR,
        )?;
        Ok(MeasurementSession {
            config: *config,
            benchmark,
            kernel,
            api,
            events: event_selection(config.event, config.counters),
            placement,
            armed_for: Some(config.seed),
        })
    }

    /// The cell configuration this session was built for (its `seed` field
    /// is the boot seed; per-run seeds are passed to [`MeasurementSession::run`]).
    pub fn config(&self) -> &MeasurementConfig {
        &self.config
    }

    /// Runs one repetition with the given seed and returns its record,
    /// bit-identical to `run_measurement(&config.with_seed(seed), benchmark)`.
    ///
    /// # Errors
    ///
    /// Substrate errors propagate (none in normal use).
    pub fn run(&mut self, seed: u64) -> Result<Record> {
        let benchmark = self.benchmark;
        self.run_benchmark(seed, benchmark)
    }

    /// [`MeasurementSession::run`] with an explicit benchmark of the
    /// **same build** (same [`Benchmark::name`]) — the loop-size sweeps of
    /// Figures 7–12 reuse one session across sizes because all sizes of a
    /// build share a placement.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] when `benchmark` is a
    /// different build than the session's (a different build places
    /// differently, so the hoisted placement would be wrong); substrate
    /// errors propagate.
    pub fn run_benchmark(&mut self, seed: u64, benchmark: Benchmark) -> Result<Record> {
        if benchmark.name() != self.benchmark.name() {
            return Err(crate::CoreError::InvalidConfig(format!(
                "session built for {} cannot run {}: different builds place differently",
                self.benchmark.name(),
                benchmark.name()
            )));
        }
        if self.armed_for != Some(seed) {
            self.kernel.seed = seed;
            self.api
                .reseed(&self.kernel, self.config.tsc_on, seed ^ INTERFACE_SEED_XOR)?;
        }
        // The run consumes the boot/reseed state.
        self.armed_for = None;

        self.api.setup(&self.events, self.config.mode)?;
        let api = &mut self.api;
        let placement = self.placement;
        let measured = match self.config.pattern {
            Pattern::StartRead => {
                api.reset()?;
                api.start()?;
                benchmark.run(api.system_mut(), placement);
                api.read()?
            }
            Pattern::StartStop => {
                api.reset()?;
                api.start()?;
                benchmark.run(api.system_mut(), placement);
                api.stop_read()?
            }
            Pattern::ReadRead => {
                api.start()?;
                let c0 = api.read()?;
                benchmark.run(api.system_mut(), placement);
                let c1 = api.read()?;
                counter_delta(self.config.pattern, c0, c1)?
            }
            Pattern::ReadStop => {
                api.start()?;
                let c0 = api.read()?;
                benchmark.run(api.system_mut(), placement);
                let c1 = api.stop_read()?;
                counter_delta(self.config.pattern, c0, c1)?
            }
        };

        let config = MeasurementConfig { seed, ..self.config };
        Ok(Record {
            config,
            benchmark,
            measured,
            expected: expected_count(&config, &benchmark),
        })
    }
}

/// Runs one measurement on a freshly booted stack and returns its record.
///
/// This is the fresh-boot path — one complete simulated stack per call,
/// exactly as the paper ran one process per measurement. The sweep runner
/// reuses one [`MeasurementSession`] per stack instead; this function
/// remains the equivalence oracle the session path is verified against
/// (see `Grid::fresh_boot` and [`Plan::measure`](crate::sweep::Plan::measure)).
///
/// # Errors
///
/// * [`crate::CoreError::UnsupportedPattern`] for PAPI-high-level with a
///   read-first pattern;
/// * [`crate::CoreError::InvalidConfig`] when the processor lacks the
///   requested number of counters;
/// * substrate errors propagate.
pub fn run_measurement(config: &MeasurementConfig, benchmark: Benchmark) -> Result<Record> {
    // `new` boots with `config.seed`, so this single run consumes the
    // boot state directly: the call sequence against the simulated stack
    // is identical to the historical inline implementation.
    MeasurementSession::new(config, benchmark)?.run(config.seed)
}

/// The count delta `c1 − c0` of a read-first pattern.
///
/// A running 64-bit event counter cannot decrease between two reads of
/// the same measurement, so `c1 < c0` is a broken interface, not a
/// zero-event run; a saturating subtraction here used to mask such a bug
/// as a suspiciously perfect `0` count.
///
/// # Errors
///
/// [`crate::CoreError::CounterWentBackwards`] when `c1 < c0`.
fn counter_delta(pattern: Pattern, c0: u64, c1: u64) -> Result<u64> {
    c1.checked_sub(c0)
        .ok_or(crate::CoreError::CounterWentBackwards {
            pattern: pattern.code(),
            first: c0,
            second: c1,
        })
}

/// The statically known count of the primary event for this configuration.
///
/// Delegates to the benchmark's per-event oracle table
/// ([`Benchmark::expected_counts`] /
/// [`Benchmark::expected_kernel_counts`]), summed per the counting mode.
/// Events with no closed form for this benchmark (cycles, and the
/// placement-dependent front-end events of the looping kernels) expect 0,
/// so the raw measurement is reported (Figures 10–12 plot raw cycles).
pub fn expected_count(config: &MeasurementConfig, benchmark: &Benchmark) -> u64 {
    let user = benchmark.expected_counts(config.event).unwrap_or(0);
    let kernel = benchmark.expected_kernel_counts(config.event).unwrap_or(0);
    match config.mode {
        CountingMode::User => user,
        CountingMode::Kernel => kernel,
        CountingMode::UserKernel => user + kernel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::Interface;
    use counterlab_cpu::uarch::Processor;

    fn base(interface: Interface) -> MeasurementConfig {
        MeasurementConfig::new(Processor::AthlonK8, interface).with_hz(0)
    }

    #[test]
    fn null_benchmark_error_is_positive_and_small() {
        for interface in Interface::ALL {
            for pattern in interface.supported_patterns() {
                let cfg = base(interface).with_pattern(pattern);
                let rec = run_measurement(&cfg, Benchmark::Null).unwrap();
                assert_eq!(rec.expected, 0);
                let err = rec.error();
                assert!(err > 0, "{interface}/{pattern}: err = {err}");
                assert!(err < 3_000, "{interface}/{pattern}: err = {err}");
            }
        }
    }

    #[test]
    fn loop_measurement_includes_benchmark() {
        let cfg = base(Interface::Pm);
        let rec = run_measurement(&cfg, Benchmark::Loop { iters: 10_000 }).unwrap();
        assert_eq!(rec.expected, 30_001);
        assert!(rec.measured >= rec.expected);
        assert!(rec.error() < 1_000, "err = {}", rec.error());
    }

    #[test]
    fn unsupported_pattern_rejected() {
        let cfg = base(Interface::PHpm).with_pattern(crate::pattern::Pattern::ReadRead);
        assert!(run_measurement(&cfg, Benchmark::Null).is_err());
    }

    #[test]
    fn counter_bounds_checked() {
        let cfg = base(Interface::Pm).with_counters(0);
        assert!(run_measurement(&cfg, Benchmark::Null).is_err());
        let cfg = MeasurementConfig::new(Processor::Core2Duo, Interface::Pm)
            .with_hz(0)
            .with_counters(3); // CD has 2
        assert!(run_measurement(&cfg, Benchmark::Null).is_err());
    }

    /// Regression for the zero-counter path: every entry point (fresh
    /// boot, session boot) must fail with the *typed* `ZeroCounters`
    /// error, on every interface, so a networked caller can match on it
    /// rather than parse a message — and so nothing downstream ever sees
    /// an empty-but-plausible record.
    #[test]
    fn zero_counters_is_a_typed_error_everywhere() {
        for interface in Interface::ALL {
            for pattern in interface.supported_patterns() {
                let cfg = base(interface).with_pattern(pattern).with_counters(0);
                let fresh = run_measurement(&cfg, Benchmark::Null).unwrap_err();
                assert!(
                    matches!(fresh, crate::CoreError::ZeroCounters),
                    "{interface}/{pattern}: fresh boot gave {fresh}"
                );
                let boot = MeasurementSession::new(&cfg, Benchmark::Null).unwrap_err();
                assert!(
                    matches!(boot, crate::CoreError::ZeroCounters),
                    "{interface}/{pattern}: session boot gave {boot}"
                );
            }
        }
        // Too-many-counters stays the descriptive InvalidConfig.
        let cfg = MeasurementConfig::new(Processor::Core2Duo, Interface::Pm)
            .with_hz(0)
            .with_counters(3);
        assert!(matches!(
            run_measurement(&cfg, Benchmark::Null).unwrap_err(),
            crate::CoreError::InvalidConfig(_)
        ));
    }

    #[test]
    fn determinism() {
        let cfg = base(Interface::Pc).with_pattern(Pattern::ReadRead);
        let a = run_measurement(&cfg, Benchmark::Null).unwrap();
        let b = run_measurement(&cfg, Benchmark::Null).unwrap();
        assert_eq!(a.measured, b.measured);
        // Different seed, (almost surely) different jitter.
        let cfg2 = cfg.with_seed(cfg.seed + 1);
        let c = run_measurement(&cfg2, Benchmark::Null).unwrap();
        let _ = c; // value may or may not differ; determinism is the point
    }

    #[test]
    fn session_reuse_is_bit_identical_to_fresh_boot() {
        // Every interface × pattern × a few seeds, in a scrambled seed
        // order (reseed must not depend on monotone seeds).
        for interface in Interface::ALL {
            for pattern in interface.supported_patterns() {
                let cfg = MeasurementConfig::new(Processor::Core2Duo, interface)
                    .with_pattern(pattern);
                let mut session = MeasurementSession::new(&cfg, Benchmark::Null).unwrap();
                for seed in [7u64, 3, 3, 0xFFFF_FFFF_FFFF_FFFF, 0] {
                    let reused = session.run(seed).unwrap();
                    let fresh =
                        run_measurement(&cfg.with_seed(seed), Benchmark::Null).unwrap();
                    assert_eq!(reused, fresh, "{interface}/{pattern} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn session_first_run_consumes_boot_state() {
        // The boot seed's first run takes the fast path (no reseed); it
        // must still match a fresh boot, and a *second* run with the same
        // seed must reseed and match again.
        let cfg = base(Interface::Pc).with_pattern(Pattern::ReadRead).with_seed(42);
        let fresh = run_measurement(&cfg, Benchmark::Null).unwrap();
        let mut session = MeasurementSession::new(&cfg, Benchmark::Null).unwrap();
        assert_eq!(session.run(42).unwrap(), fresh);
        assert_eq!(session.run(42).unwrap(), fresh);
    }

    #[test]
    fn session_shares_build_across_loop_sizes() {
        let cfg = base(Interface::Pm).with_seed(5);
        let mut session =
            MeasurementSession::new(&cfg, Benchmark::Loop { iters: 1 }).unwrap();
        for (seed, iters) in [(9u64, 1_000u64), (2, 50_000), (9, 1_000)] {
            let reused = session
                .run_benchmark(seed, Benchmark::Loop { iters })
                .unwrap();
            let fresh =
                run_measurement(&cfg.with_seed(seed), Benchmark::Loop { iters }).unwrap();
            assert_eq!(reused, fresh, "iters {iters} seed {seed}");
        }
    }

    #[test]
    fn session_validates_like_run_measurement() {
        let cfg = base(Interface::PHpm).with_pattern(Pattern::ReadRead);
        assert!(MeasurementSession::new(&cfg, Benchmark::Null).is_err());
        let cfg = base(Interface::Pm).with_counters(0);
        assert!(MeasurementSession::new(&cfg, Benchmark::Null).is_err());
    }

    #[test]
    fn session_rejects_foreign_build() {
        let cfg = base(Interface::Pm);
        let mut session =
            MeasurementSession::new(&cfg, Benchmark::Loop { iters: 10 }).unwrap();
        let err = session
            .run_benchmark(1, Benchmark::ArrayWalk { iters: 10 })
            .unwrap_err();
        assert!(
            matches!(err, crate::CoreError::InvalidConfig(_)),
            "foreign build must be rejected, got {err}"
        );
        // Same build, different size: fine.
        assert!(session.run_benchmark(1, Benchmark::Loop { iters: 99 }).is_ok());
    }

    #[test]
    fn counter_delta_flags_backwards_counters() {
        // Forward (and equal) readings pass through exactly.
        assert_eq!(counter_delta(Pattern::ReadRead, 3, 5).unwrap(), 2);
        assert_eq!(counter_delta(Pattern::ReadStop, 7, 7).unwrap(), 0);
        // A backwards counter is an error, not a silent zero.
        for pattern in [Pattern::ReadRead, Pattern::ReadStop] {
            let err = counter_delta(pattern, 100, 40).unwrap_err();
            match err {
                crate::CoreError::CounterWentBackwards {
                    pattern: code,
                    first,
                    second,
                } => {
                    assert_eq!(code, pattern.code());
                    assert_eq!((first, second), (100, 40));
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn read_first_patterns_count_forward() {
        // Both read-first arms must produce a real (positive-error) delta
        // on every interface that supports them — the healthy path the
        // old saturating subtraction could silently corrupt.
        for interface in Interface::ALL {
            for pattern in [Pattern::ReadRead, Pattern::ReadStop] {
                if !interface.supports(pattern) {
                    continue;
                }
                let cfg = base(interface).with_pattern(pattern);
                let rec = run_measurement(&cfg, Benchmark::Null).unwrap();
                assert!(rec.error() > 0, "{interface}/{pattern}");
            }
        }
    }

    #[test]
    fn placement_differs_across_builds() {
        let cfg_a = base(Interface::Pm);
        let cfg_b = base(Interface::Pm).with_pattern(Pattern::ReadRead);
        let p_a = placement_for(&cfg_a, &Benchmark::Null);
        let p_b = placement_for(&cfg_b, &Benchmark::Null);
        assert_ne!(p_a, p_b);
        // Same config, same placement.
        assert_eq!(p_a, placement_for(&cfg_a, &Benchmark::Null));
    }

    #[test]
    fn event_selection_distinct() {
        let ev = event_selection(Event::InstructionsRetired, 4);
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0], Event::InstructionsRetired);
        let set: std::collections::BTreeSet<_> = ev.iter().collect();
        assert_eq!(set.len(), 4);
    }

    /// Zero counters must select zero events — the saturating-sub version
    /// returned `[primary]`, arming a counter the caller never asked for.
    #[test]
    fn event_selection_zero_counters_is_empty() {
        for event in Event::ALL {
            assert!(event_selection(event, 0).is_empty(), "{event:?}");
        }
        assert_eq!(event_selection(Event::InstructionsRetired, 1).len(), 1);
    }

    #[test]
    fn error_per_iteration() {
        let cfg = base(Interface::Pm);
        let rec = run_measurement(&cfg, Benchmark::Loop { iters: 1000 }).unwrap();
        let e = rec.error_per_iteration().unwrap();
        assert!(e >= 0.0);
        let null = run_measurement(&cfg, Benchmark::Null).unwrap();
        assert!(null.error_per_iteration().is_none());
    }

    #[test]
    fn user_mode_loop_error_is_fixed_cost_only() {
        // Without timer interrupts, the user-mode error must not depend on
        // loop length (§5's expectation for user counts).
        let cfg = base(Interface::Pm);
        let short = run_measurement(&cfg, Benchmark::Loop { iters: 1_000 }).unwrap();
        let long = run_measurement(&cfg, Benchmark::Loop { iters: 1_000_000 }).unwrap();
        assert_eq!(short.error(), long.error());
    }

    #[test]
    fn kernel_mode_expectation_is_zero() {
        let cfg = base(Interface::Pc).with_mode(CountingMode::Kernel);
        let rec = run_measurement(&cfg, Benchmark::Loop { iters: 100 }).unwrap();
        assert_eq!(rec.expected, 0);
    }
}
