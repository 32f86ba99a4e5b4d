//! The performance monitoring unit: programmable counters, fixed-function
//! counters, and the time stamp counter (§2.1 of the paper).
//!
//! Counters support *conditional event counting* (§2.5): each counter is
//! configured to count events occurring in user mode, kernel mode, or both,
//! and stops the moment the processor switches to a privilege level outside
//! its configuration.

use crate::machine::Privilege;
use crate::uarch::Uarch;
use crate::{CpuError, Result};

/// Micro-architectural events countable by the model.
///
/// Real processors expose hundreds of events; these seven cover everything
/// the paper measures (retired instructions, cycles) plus the events its §6
/// blames for cycle variability (branch prediction, i-cache, i-TLB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// Retired (non-speculative) instructions.
    InstructionsRetired,
    /// Unhalted core clock cycles.
    CoreCycles,
    /// Retired branch instructions.
    BranchesRetired,
    /// Mispredicted retired branches.
    BranchMispredictions,
    /// Instruction-cache misses.
    ICacheMisses,
    /// Data-cache misses.
    DCacheMisses,
    /// Instruction-TLB misses.
    ItlbMisses,
}

impl Event {
    /// All supported events.
    pub const ALL: [Event; 7] = [
        Event::InstructionsRetired,
        Event::CoreCycles,
        Event::BranchesRetired,
        Event::BranchMispredictions,
        Event::ICacheMisses,
        Event::DCacheMisses,
        Event::ItlbMisses,
    ];

    /// Stable lower-case name, e.g. for report output.
    pub fn name(self) -> &'static str {
        match self {
            Event::InstructionsRetired => "instructions_retired",
            Event::CoreCycles => "core_cycles",
            Event::BranchesRetired => "branches_retired",
            Event::BranchMispredictions => "branch_mispredictions",
            Event::ICacheMisses => "icache_misses",
            Event::DCacheMisses => "dcache_misses",
            Event::ItlbMisses => "itlb_misses",
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which privilege levels a counter counts in (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CountMode {
    /// Count only events that occur in user mode (`USR` flag).
    UserOnly,
    /// Count only events that occur in kernel mode (`OS` flag).
    KernelOnly,
    /// Count in both modes (`USR|OS`).
    #[default]
    UserAndKernel,
}

impl CountMode {
    /// Whether an event occurring at `privilege` is counted under this mode.
    pub fn counts(self, privilege: Privilege) -> bool {
        matches!(
            (self, privilege),
            (CountMode::UserOnly, Privilege::User)
                | (CountMode::KernelOnly, Privilege::Kernel)
                | (CountMode::UserAndKernel, _)
        )
    }
}

/// Configuration of one programmable counter — the model's equivalent of an
/// `IA32_PERFEVTSEL` / K8 `PerfEvtSel` register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmcConfig {
    /// Event selected.
    pub event: Event,
    /// Privilege filter.
    pub mode: CountMode,
    /// Enable bit.
    pub enabled: bool,
}

impl PmcConfig {
    /// An enabled counter for `event` filtered by `mode`.
    pub fn counting(event: Event, mode: CountMode) -> Self {
        PmcConfig {
            event,
            mode,
            enabled: true,
        }
    }

    /// A configured but disabled counter.
    pub fn disabled(event: Event, mode: CountMode) -> Self {
        PmcConfig {
            event,
            mode,
            enabled: false,
        }
    }
}

/// One execution quantum's worth of events, produced by the execution engine
/// and committed to the PMU at a fixed privilege level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventDelta {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles.
    pub cycles: u64,
    /// Retired branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredictions: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// I-TLB misses.
    pub itlb_misses: u64,
}

impl EventDelta {
    /// The delta's count for a particular event.
    pub fn count(&self, event: Event) -> u64 {
        match event {
            Event::InstructionsRetired => self.instructions,
            Event::CoreCycles => self.cycles,
            Event::BranchesRetired => self.branches,
            Event::BranchMispredictions => self.branch_mispredictions,
            Event::ICacheMisses => self.icache_misses,
            Event::DCacheMisses => self.dcache_misses,
            Event::ItlbMisses => self.itlb_misses,
        }
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &EventDelta) -> EventDelta {
        EventDelta {
            instructions: self.instructions + other.instructions,
            cycles: self.cycles + other.cycles,
            branches: self.branches + other.branches,
            branch_mispredictions: self.branch_mispredictions + other.branch_mispredictions,
            icache_misses: self.icache_misses + other.icache_misses,
            dcache_misses: self.dcache_misses + other.dcache_misses,
            itlb_misses: self.itlb_misses + other.itlb_misses,
        }
    }

    /// Component-wise product with `k`: the delta of `k` repetitions of
    /// this quantum.
    pub fn scaled(&self, k: u64) -> EventDelta {
        EventDelta {
            instructions: self.instructions * k,
            cycles: self.cycles * k,
            branches: self.branches * k,
            branch_mispredictions: self.branch_mispredictions * k,
            icache_misses: self.icache_misses * k,
            dcache_misses: self.dcache_misses * k,
            itlb_misses: self.itlb_misses * k,
        }
    }
}

/// Snapshot of all counter values, used by the kernel's context-switch code
/// to implement per-thread virtual counters (§2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmuSnapshot {
    /// Programmable counter values.
    pub pmcs: Vec<u64>,
    /// Fixed counter values.
    pub fixed: Vec<u64>,
}

/// Fixed-function counter roles, in register order (Core 2's three fixed
/// counters).
const FIXED_EVENTS: [Event; MAX_FIXED] = [
    Event::InstructionsRetired,
    Event::CoreCycles,
    Event::CoreCycles, // CPU_CLK_UNHALTED.REF — same source in this model
];

/// The most programmable counters a modeled processor has (the Pentium
/// D's 18, Table 1).
pub const MAX_PMCS: usize = 18;

/// The most fixed-function counters a modeled processor has (Core 2's
/// three).
pub const MAX_FIXED: usize = 3;

/// The per-core performance monitoring unit.
///
/// Counting is deferred. [`Pmu::commit`] runs on every retired
/// instruction mix and library-call step, so it only adds the delta to
/// one pending delta per privilege level. A counter's true value is its
/// stored value plus the pending events its current configuration counts. Every reader adds
/// that part, and every mutator first settles it into the stored values,
/// so no caller can tell deferred counting from eager counting.
///
/// The register files are inline arrays sized for the largest modeled
/// PMU, of which the first [`Pmu::programmable_count`] and
/// [`Pmu::fixed_count`] slots exist on this processor: booting a PMU
/// allocates nothing, and resetting one stores a few words instead of
/// filling heap buffers.
#[derive(Debug, Clone)]
pub struct Pmu {
    uarch: &'static Uarch,
    pmc_values: [u64; MAX_PMCS],
    pmc_configs: [Option<PmcConfig>; MAX_PMCS],
    /// Indices of programmed counters, ascending. Settling walks this
    /// short list instead of scanning all slots (the Pentium D has 18,
    /// rarely more than 4 of which are in use). A slot has a
    /// configuration exactly when its index is listed here.
    programmed: Vec<usize>,
    fixed_values: [u64; MAX_FIXED],
    fixed_configs: [Option<CountMode>; MAX_FIXED],
    tsc: u64,
    /// Events committed since the last settle, indexed by [`level`].
    pending: [EventDelta; 2],
}

/// Index of `privilege` in [`Pmu`]'s pending deltas.
fn level(privilege: Privilege) -> usize {
    match privilege {
        Privilege::User => 0,
        Privilege::Kernel => 1,
    }
}

/// The pending events a counter of `event` filtered by `mode` has not yet
/// added to its stored value.
fn pending_count(pending: &[EventDelta; 2], event: Event, mode: CountMode) -> u64 {
    [Privilege::User, Privilege::Kernel]
        .into_iter()
        .filter(|&privilege| mode.counts(privilege))
        .map(|privilege| pending[level(privilege)].count(event))
        .sum()
}

impl Pmu {
    /// Creates the PMU for a given micro-architecture (counter counts come
    /// from Table 1 via [`Uarch`]). Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `uarch` has more than [`MAX_PMCS`] programmable or
    /// [`MAX_FIXED`] fixed counters.
    pub fn new(uarch: &'static Uarch) -> Self {
        assert!(
            uarch.programmable_counters <= MAX_PMCS && uarch.fixed_counters <= MAX_FIXED,
            "{} has more counters than the PMU model holds",
            uarch.model_name
        );
        Pmu {
            uarch,
            pmc_values: [0; MAX_PMCS],
            pmc_configs: [None; MAX_PMCS],
            programmed: Vec::new(),
            fixed_values: [0; MAX_FIXED],
            fixed_configs: [None; MAX_FIXED],
            tsc: 0,
            pending: [EventDelta::default(); 2],
        }
    }

    /// Returns the PMU to its power-on state — all counters deprogrammed
    /// and zeroed, TSC at zero — while keeping the programmed list's
    /// allocation (the reuse path of measurement sessions). Equivalent to
    /// [`Pmu::new`] with the same micro-architecture.
    pub fn reset(&mut self) {
        for &idx in &self.programmed {
            self.pmc_configs[idx] = None;
        }
        self.programmed.clear();
        self.pmc_values = [0; MAX_PMCS];
        self.fixed_values = [0; MAX_FIXED];
        self.fixed_configs = [None; MAX_FIXED];
        self.tsc = 0;
        self.pending = [EventDelta::default(); 2];
    }

    /// Records `index` in the programmed-counter list (ascending, no
    /// duplicates).
    fn note_programmed(&mut self, index: usize) {
        if let Err(pos) = self.programmed.binary_search(&index) {
            self.programmed.insert(pos, index);
        }
    }

    /// The micro-architecture this PMU belongs to.
    pub fn uarch(&self) -> &'static Uarch {
        self.uarch
    }

    /// Number of programmable counters.
    pub fn programmable_count(&self) -> usize {
        self.uarch.programmable_counters
    }

    /// Number of fixed-function counters (excluding the TSC).
    pub fn fixed_count(&self) -> usize {
        self.uarch.fixed_counters
    }

    /// Programs counter `index` with `config`, resetting its value to zero,
    /// and returns the index for convenience.
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when the index is out of range, or
    /// [`CpuError::UnsupportedEvent`] when this micro-architecture cannot
    /// count the event.
    pub fn program(&mut self, index: usize, config: PmcConfig) -> Result<usize> {
        self.check_pmc(index)?;
        if self.uarch.event_encoding(config.event).is_none() {
            return Err(CpuError::UnsupportedEvent {
                event: config.event.name(),
                uarch: self.uarch.arch.name(),
            });
        }
        self.settle();
        self.pmc_configs[index] = Some(config);
        self.pmc_values[index] = 0;
        self.note_programmed(index);
        Ok(index)
    }

    /// Programs counter `index` with `config` *without* resetting its value
    /// — the `WRMSR`-to-event-select data path, where the counter value
    /// lives in a separate register.
    ///
    /// # Errors
    ///
    /// As [`Pmu::program`].
    pub fn program_preserving(&mut self, index: usize, config: PmcConfig) -> Result<usize> {
        self.check_pmc(index)?;
        if self.uarch.event_encoding(config.event).is_none() {
            return Err(CpuError::UnsupportedEvent {
                event: config.event.name(),
                uarch: self.uarch.arch.name(),
            });
        }
        self.settle();
        self.pmc_configs[index] = Some(config);
        self.note_programmed(index);
        Ok(index)
    }

    /// Removes the configuration of counter `index`.
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when the index is out of range.
    pub fn deprogram(&mut self, index: usize) -> Result<()> {
        self.check_pmc(index)?;
        self.settle();
        self.pmc_configs[index] = None;
        if let Ok(pos) = self.programmed.binary_search(&index) {
            self.programmed.remove(pos);
        }
        Ok(())
    }

    /// Current configuration of counter `index` (if programmed).
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when the index is out of range.
    pub fn config(&self, index: usize) -> Result<Option<PmcConfig>> {
        self.check_pmc(index)?;
        Ok(self.pmc_configs[index])
    }

    /// Sets or clears the enable bit of counter `index`.
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] for a bad index; enabling an unprogrammed
    /// counter is a no-op (as on hardware, where the enable bit lives in the
    /// event-select register).
    pub fn set_enabled(&mut self, index: usize, enabled: bool) -> Result<()> {
        self.check_pmc(index)?;
        self.settle();
        if let Some(cfg) = self.pmc_configs[index].as_mut() {
            cfg.enabled = enabled;
        }
        Ok(())
    }

    /// Reads the value of programmable counter `index` (the `RDPMC` data
    /// path; privilege checking happens in [`crate::machine::Machine`]).
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when the index is out of range.
    pub fn read_pmc(&self, index: usize) -> Result<u64> {
        self.check_pmc(index)?;
        Ok(self.pmc_values[index] + self.pmc_pending(index))
    }

    /// Writes the value of programmable counter `index` (kernel-only WRMSR
    /// data path; used by `reset`).
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when the index is out of range.
    pub fn write_pmc(&mut self, index: usize, value: u64) -> Result<()> {
        self.check_pmc(index)?;
        self.settle();
        self.pmc_values[index] = value;
        Ok(())
    }

    /// Reads fixed counter `index`.
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when this processor has no such fixed
    /// counter.
    pub fn read_fixed(&self, index: usize) -> Result<u64> {
        self.check_fixed(index)?;
        Ok(self.fixed_values[index] + self.fixed_pending(index))
    }

    /// Writes fixed counter `index` (kernel WRMSR data path).
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when this processor has no such fixed
    /// counter.
    pub fn write_fixed(&mut self, index: usize, value: u64) -> Result<()> {
        self.check_fixed(index)?;
        self.settle();
        self.fixed_values[index] = value;
        Ok(())
    }

    /// Current mode of fixed counter `index` (`None` if stopped).
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when this processor has no such fixed
    /// counter.
    pub fn fixed_config(&self, index: usize) -> Result<Option<CountMode>> {
        self.check_fixed(index)?;
        Ok(self.fixed_configs[index])
    }

    /// Sets fixed counter `index`'s mode without resetting its value (the
    /// `IA32_FIXED_CTR_CTRL` data path).
    ///
    /// # Errors
    ///
    /// [`CpuError::NoSuchCounter`] when this processor has no such fixed
    /// counter.
    pub fn set_fixed_mode(&mut self, index: usize, mode: Option<CountMode>) -> Result<()> {
        self.check_fixed(index)?;
        self.settle();
        self.fixed_configs[index] = mode;
        Ok(())
    }

    /// Sets the TSC to an absolute value (kernel WRMSR to `IA32_TSC`).
    pub fn set_tsc(&mut self, value: u64) {
        self.tsc = value;
    }

    /// Current time stamp counter value.
    pub fn tsc(&self) -> u64 {
        self.tsc
    }

    /// Commits one execution quantum at the given privilege level: every
    /// enabled counter whose [`CountMode`] covers `privilege` accumulates
    /// its event's delta. The delta joins the pending events of its
    /// privilege level, which readers see at once and the next mutator
    /// settles; counting is linear, so that equals adding it to each
    /// counter now. The TSC advances by the delta's cycles at once,
    /// regardless of privilege.
    pub fn commit(&mut self, delta: &EventDelta, privilege: Privilege) {
        let pending = &mut self.pending[level(privilege)];
        *pending = pending.merged(delta);
        self.tsc += delta.cycles;
    }

    /// Adds the pending events to every counter that counts them and
    /// clears them. Runs before any change to a counter's value or
    /// configuration, which would otherwise re-attribute them.
    fn settle(&mut self) {
        for &idx in &self.programmed {
            self.pmc_values[idx] += self.pmc_pending(idx);
        }
        for i in 0..self.fixed_count() {
            self.fixed_values[i] += self.fixed_pending(i);
        }
        self.pending = [EventDelta::default(); 2];
    }

    /// Pending events programmable counter `index` counts (`index` in
    /// range).
    fn pmc_pending(&self, index: usize) -> u64 {
        match self.pmc_configs[index] {
            Some(cfg) if cfg.enabled => pending_count(&self.pending, cfg.event, cfg.mode),
            _ => 0,
        }
    }

    /// Pending events fixed counter `index` counts (`index` in range).
    fn fixed_pending(&self, index: usize) -> u64 {
        self.fixed_configs[index].map_or(0, |mode| {
            pending_count(&self.pending, FIXED_EVENTS[index], mode)
        })
    }

    /// Captures all counter values (for context switches).
    pub fn snapshot(&self) -> PmuSnapshot {
        PmuSnapshot {
            pmcs: (0..self.programmable_count())
                .map(|i| self.pmc_values[i] + self.pmc_pending(i))
                .collect(),
            fixed: (0..self.fixed_count())
                .map(|i| self.fixed_values[i] + self.fixed_pending(i))
                .collect(),
        }
    }

    /// Restores counter values captured by [`Pmu::snapshot`]. Configurations
    /// are not part of the snapshot; the kernel extension reprograms them
    /// separately, exactly like the real context-switch path.
    pub fn restore(&mut self, snapshot: &PmuSnapshot) {
        self.settle();
        let (pmcs, fixed) = (self.programmable_count(), self.fixed_count());
        for (dst, src) in self.pmc_values[..pmcs].iter_mut().zip(&snapshot.pmcs) {
            *dst = *src;
        }
        for (dst, src) in self.fixed_values[..fixed].iter_mut().zip(&snapshot.fixed) {
            *dst = *src;
        }
    }

    fn check_pmc(&self, index: usize) -> Result<()> {
        if index >= self.programmable_count() {
            return Err(CpuError::NoSuchCounter {
                index,
                available: self.programmable_count(),
            });
        }
        Ok(())
    }

    fn check_fixed(&self, index: usize) -> Result<()> {
        if index >= self.fixed_count() {
            return Err(CpuError::NoSuchCounter {
                index,
                available: self.fixed_count(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch::{ATHLON_K8, CORE2_DUO, PENTIUM_D};

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn all_lists_every_variant() {
        for v in [
            Event::InstructionsRetired,
            Event::CoreCycles,
            Event::BranchesRetired,
            Event::BranchMispredictions,
            Event::ICacheMisses,
            Event::DCacheMisses,
            Event::ItlbMisses,
        ] {
            match v {
                Event::InstructionsRetired => {
                    assert!(Event::ALL.contains(&Event::InstructionsRetired))
                }
                Event::CoreCycles => assert!(Event::ALL.contains(&Event::CoreCycles)),
                Event::BranchesRetired => assert!(Event::ALL.contains(&Event::BranchesRetired)),
                Event::BranchMispredictions => {
                    assert!(Event::ALL.contains(&Event::BranchMispredictions))
                }
                Event::ICacheMisses => assert!(Event::ALL.contains(&Event::ICacheMisses)),
                Event::DCacheMisses => assert!(Event::ALL.contains(&Event::DCacheMisses)),
                Event::ItlbMisses => assert!(Event::ALL.contains(&Event::ItlbMisses)),
            }
        }
    }

    fn delta(instructions: u64, cycles: u64) -> EventDelta {
        EventDelta {
            instructions,
            cycles,
            ..EventDelta::default()
        }
    }

    #[test]
    fn counter_counts_matching_privilege_only() {
        let mut pmu = Pmu::new(&ATHLON_K8);
        pmu.program(
            0,
            PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly),
        )
        .unwrap();
        pmu.commit(&delta(10, 20), Privilege::User);
        pmu.commit(&delta(100, 200), Privilege::Kernel);
        assert_eq!(pmu.read_pmc(0).unwrap(), 10);
    }

    #[test]
    fn kernel_only_mode() {
        let mut pmu = Pmu::new(&ATHLON_K8);
        pmu.program(
            0,
            PmcConfig::counting(Event::InstructionsRetired, CountMode::KernelOnly),
        )
        .unwrap();
        pmu.commit(&delta(10, 20), Privilege::User);
        pmu.commit(&delta(100, 200), Privilege::Kernel);
        assert_eq!(pmu.read_pmc(0).unwrap(), 100);
    }

    #[test]
    fn user_and_kernel_counts_both() {
        let mut pmu = Pmu::new(&ATHLON_K8);
        pmu.program(
            0,
            PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel),
        )
        .unwrap();
        pmu.commit(&delta(10, 20), Privilege::User);
        pmu.commit(&delta(100, 200), Privilege::Kernel);
        assert_eq!(pmu.read_pmc(0).unwrap(), 110);
    }

    #[test]
    fn disabled_counter_frozen() {
        let mut pmu = Pmu::new(&ATHLON_K8);
        pmu.program(
            1,
            PmcConfig::disabled(Event::InstructionsRetired, CountMode::UserAndKernel),
        )
        .unwrap();
        pmu.commit(&delta(10, 20), Privilege::User);
        assert_eq!(pmu.read_pmc(1).unwrap(), 0);
        pmu.set_enabled(1, true).unwrap();
        pmu.commit(&delta(10, 20), Privilege::User);
        assert_eq!(pmu.read_pmc(1).unwrap(), 10);
        pmu.set_enabled(1, false).unwrap();
        pmu.commit(&delta(10, 20), Privilege::User);
        assert_eq!(pmu.read_pmc(1).unwrap(), 10);
    }

    #[test]
    fn tsc_runs_unconditionally() {
        let mut pmu = Pmu::new(&CORE2_DUO);
        pmu.commit(&delta(1, 7), Privilege::User);
        pmu.commit(&delta(1, 13), Privilege::Kernel);
        assert_eq!(pmu.tsc(), 20);
    }

    #[test]
    fn fixed_counters_on_core2_only() {
        let mut cd = Pmu::new(&CORE2_DUO);
        assert_eq!(cd.fixed_count(), 3);
        cd.set_fixed_mode(0, Some(CountMode::UserAndKernel))
            .unwrap();
        cd.commit(&delta(42, 100), Privilege::User);
        assert_eq!(cd.read_fixed(0).unwrap(), 42); // instructions
        let mut k8 = Pmu::new(&ATHLON_K8);
        assert_eq!(k8.fixed_count(), 0);
        assert!(k8
            .set_fixed_mode(0, Some(CountMode::UserAndKernel))
            .is_err());
    }

    #[test]
    fn fixed_counter_cycles_role() {
        let mut cd = Pmu::new(&CORE2_DUO);
        cd.set_fixed_mode(1, Some(CountMode::UserAndKernel))
            .unwrap();
        cd.set_fixed_mode(2, Some(CountMode::UserOnly)).unwrap();
        cd.commit(&delta(42, 100), Privilege::Kernel);
        cd.commit(&delta(1, 10), Privilege::User);
        assert_eq!(cd.read_fixed(1).unwrap(), 110); // core cycles
        assert_eq!(cd.read_fixed(2).unwrap(), 10); // reference cycles, user only
        assert!(cd.read_fixed(3).is_err());
    }

    #[test]
    fn pentium_d_has_18_pmcs() {
        let mut pmu = Pmu::new(&PENTIUM_D);
        assert_eq!(pmu.programmable_count(), 18);
        pmu.program(
            17,
            PmcConfig::counting(Event::CoreCycles, CountMode::UserOnly),
        )
        .unwrap();
        assert!(pmu
            .program(
                18,
                PmcConfig::counting(Event::CoreCycles, CountMode::UserOnly)
            )
            .is_err());
    }

    #[test]
    fn program_resets_value() {
        let mut pmu = Pmu::new(&ATHLON_K8);
        pmu.program(
            0,
            PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly),
        )
        .unwrap();
        pmu.commit(&delta(5, 5), Privilege::User);
        assert_eq!(pmu.read_pmc(0).unwrap(), 5);
        pmu.program(
            0,
            PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly),
        )
        .unwrap();
        assert_eq!(pmu.read_pmc(0).unwrap(), 0);
    }

    #[test]
    fn write_pmc_sets_value() {
        let mut pmu = Pmu::new(&ATHLON_K8);
        pmu.write_pmc(2, 999).unwrap();
        assert_eq!(pmu.read_pmc(2).unwrap(), 999);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut pmu = Pmu::new(&CORE2_DUO);
        pmu.program(
            0,
            PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel),
        )
        .unwrap();
        pmu.set_fixed_mode(0, Some(CountMode::UserAndKernel))
            .unwrap();
        pmu.commit(&delta(7, 9), Privilege::User);
        let snap = pmu.snapshot();
        pmu.commit(&delta(100, 100), Privilege::User);
        pmu.restore(&snap);
        assert_eq!(pmu.read_pmc(0).unwrap(), 7);
        assert_eq!(pmu.read_fixed(0).unwrap(), 7);
    }

    #[test]
    fn deprogrammed_counter_stops() {
        let mut pmu = Pmu::new(&ATHLON_K8);
        pmu.program(
            0,
            PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel),
        )
        .unwrap();
        pmu.commit(&delta(3, 3), Privilege::User);
        pmu.deprogram(0).unwrap();
        pmu.commit(&delta(3, 3), Privilege::User);
        assert_eq!(pmu.read_pmc(0).unwrap(), 3);
        assert_eq!(pmu.config(0).unwrap(), None);
    }

    #[test]
    fn event_delta_count_and_merge() {
        let a = EventDelta {
            instructions: 1,
            cycles: 2,
            branches: 3,
            ..EventDelta::default()
        };
        let b = EventDelta {
            instructions: 10,
            itlb_misses: 4,
            ..EventDelta::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.instructions, 11);
        assert_eq!(m.count(Event::BranchesRetired), 3);
        assert_eq!(m.count(Event::ItlbMisses), 4);
        assert_eq!(m.count(Event::DCacheMisses), 0);
        // Scaling by k is k-fold merging, component by component.
        assert_eq!(m.scaled(0), EventDelta::default());
        assert_eq!(m.scaled(1), m);
        assert_eq!(m.scaled(3), m.merged(&m).merged(&m));
    }

    #[test]
    fn count_mode_matrix() {
        assert!(CountMode::UserOnly.counts(Privilege::User));
        assert!(!CountMode::UserOnly.counts(Privilege::Kernel));
        assert!(!CountMode::KernelOnly.counts(Privilege::User));
        assert!(CountMode::KernelOnly.counts(Privilege::Kernel));
        assert!(CountMode::UserAndKernel.counts(Privilege::User));
        assert!(CountMode::UserAndKernel.counts(Privilege::Kernel));
    }
}
