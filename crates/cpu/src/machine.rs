//! The execution engine: one simulated core with its PMU, front-end
//! structures, and privilege-checked counter-access instructions.

use crate::branch::BranchTargetBuffer;
use crate::icache::{ICache, ITlb};
use crate::layout::{CodePlacement, TEXT_BASE};
use crate::mix::InstMix;
use crate::msr::{self, MsrTarget};
use crate::pmu::{EventDelta, Pmu};
use crate::timing::{
    self, icache_miss_penalty, itlb_miss_penalty, mispredict_penalty, CyclesPerIteration,
};
use crate::uarch::{MicroArch, Processor, Uarch};
use crate::{CpuError, Result};

/// Processor privilege level (ring 3 vs ring 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Ring 3 — application code.
    User,
    /// Ring 0 — kernel code, interrupt handlers.
    Kernel,
}

impl std::fmt::Display for Privilege {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Privilege::User => "user",
            Privilege::Kernel => "kernel",
        })
    }
}

/// Pre-computed facts about a loop at a given placement, produced by
/// [`Machine::analyze_loop`] and consumed by the chunked execution methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopAnalysis {
    /// Steady-state cycles per iteration.
    pub cpi: CyclesPerIteration,
    /// Cold i-cache misses the first traversal will take.
    pub cold_icache_misses: u64,
    /// Whether the first traversal takes an i-TLB miss.
    pub itlb_miss: bool,
    /// Whether the loop's backward branch stays resident in the BTB.
    pub btb_stable: bool,
}

/// Memoized pure part of a loop analysis: the steady-state CPI for one
/// `(placement, body, btb_stable)` triple. [`timing::loop_cpi`] is a pure
/// function, so the memo stays valid across [`Machine::reset`] — which is
/// the point: a measurement session re-analyzing the same loop every
/// repetition hits the cache instead of re-deriving the CPI.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CpiMemo {
    base: u64,
    body: InstMix,
    btb_stable: bool,
    cpi: CyclesPerIteration,
}

/// One simulated core.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Machine {
    processor: Processor,
    pmu: Pmu,
    privilege: Privilege,
    cycle: u64,
    cr4_pce: bool,
    icache: ICache,
    itlb: ITlb,
    btb: BranchTargetBuffer,
    cpi_memo: Option<CpiMemo>,
}

impl Machine {
    /// Boots a core of the given processor model. The machine starts in
    /// kernel mode (as after reset) with `CR4.PCE` clear: user-mode `RDPMC`
    /// faults until a kernel extension sets the bit.
    pub fn new(processor: Processor) -> Self {
        let uarch = processor.uarch();
        let (icache, itlb, btb) = match uarch.arch {
            MicroArch::Core2 => (
                ICache::new(32 * 1024, 64, 8),
                ITlb::new(128, 4096),
                BranchTargetBuffer::new(512, 4),
            ),
            MicroArch::K8 => (
                ICache::new(64 * 1024, 64, 2),
                ITlb::new(32, 4096),
                BranchTargetBuffer::new(512, 1),
            ),
            MicroArch::NetBurst => (
                // The trace cache, modeled as a small conventional i-cache.
                ICache::new(16 * 1024, 64, 4),
                ITlb::new(64, 4096),
                BranchTargetBuffer::new(128, 1),
            ),
        };
        Machine {
            processor,
            pmu: Pmu::new(uarch),
            privilege: Privilege::Kernel,
            cycle: 0,
            cr4_pce: false,
            icache,
            itlb,
            btb,
            cpi_memo: None,
        }
    }

    /// Returns the core to its power-on state — kernel mode, `CR4.PCE`
    /// clear, cycle zero, PMU deprogrammed, front-end structures cold —
    /// while keeping every allocation. Behaviorally equivalent to
    /// replacing the machine with `Machine::new(self.processor())`; this
    /// is the boot-once/reset-per-repetition path of measurement
    /// sessions. (The pure CPI memo survives: it caches a stateless
    /// function of placement and body, not machine state.)
    pub fn reset(&mut self) {
        self.pmu.reset();
        self.privilege = Privilege::Kernel;
        self.cycle = 0;
        self.cr4_pce = false;
        self.icache.reset();
        self.itlb.reset();
        self.btb.reset();
    }

    /// The processor model.
    pub fn processor(&self) -> Processor {
        self.processor
    }

    /// The micro-architecture descriptor.
    pub fn uarch(&self) -> &'static Uarch {
        self.processor.uarch()
    }

    /// Immutable PMU access.
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// Mutable PMU access (the kernel's direct line to the hardware).
    pub fn pmu_mut(&mut self) -> &mut Pmu {
        &mut self.pmu
    }

    /// Current privilege level.
    pub fn privilege(&self) -> Privilege {
        self.privilege
    }

    /// Switches privilege level (ring transition; the cycle cost of the
    /// transition itself is accounted by the kernel's entry/exit mixes).
    pub fn set_privilege(&mut self, privilege: Privilege) {
        self.privilege = privilege;
    }

    /// Absolute core cycle count since boot.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether `CR4.PCE` allows user-mode `RDPMC`.
    pub fn cr4_pce(&self) -> bool {
        self.cr4_pce
    }

    /// Sets `CR4.PCE`. Writing CR4 is privileged.
    ///
    /// # Errors
    ///
    /// [`CpuError::GeneralProtectionFault`] when executed in user mode.
    pub fn set_cr4_pce(&mut self, enabled: bool) -> Result<()> {
        if self.privilege != Privilege::Kernel {
            return Err(CpuError::GeneralProtectionFault { what: "mov to CR4" });
        }
        self.cr4_pce = enabled;
        Ok(())
    }

    /// Fraction of straight-line code's loads that miss the L1 d-cache in
    /// the model (library and kernel code touching state that benchmark
    /// data evicted — the “pollution of caches due to instrumentation
    /// code” Dongarra et al. point out).
    pub const STRAIGHT_LOAD_MISS_PERIOD: u64 = 8;

    /// A sequential data walk misses once per cache line: 64-byte lines /
    /// 4-byte elements.
    pub const SEQUENTIAL_WALK_MISS_PERIOD: u64 = 16;

    /// The event delta retiring a straight-line mix produces, without
    /// committing it. A pure function of the mix and the
    /// micro-architecture: the same mix always yields the same delta,
    /// which is what lets the kernel commit repeated mixes in bulk.
    // The kernel prices every mix it still retires as a mix (benchmark
    // bodies, perfctr's fast-read steps, interrupt handlers) through this
    // from another crate: without the hint it stays an out-of-line call.
    #[inline]
    pub fn mix_delta(&self, mix: &InstMix) -> EventDelta {
        EventDelta {
            instructions: mix.total_instructions(),
            cycles: timing::straight_cycles(self.uarch(), mix),
            branches: mix.branches,
            branch_mispredictions: 0,
            icache_misses: 0,
            // Dependent loads walk to a fresh line each time, so every one
            // misses; ordinary straight-line loads miss at the pollution
            // period.
            dcache_misses: mix.loads / Self::STRAIGHT_LOAD_MISS_PERIOD + mix.chase_loads,
            itlb_misses: 0,
        }
    }

    /// The event delta of `instructions` of ordinary library or handler
    /// code, shaped as the kernel's `syscall::user_code_mix` shapes a
    /// budget (a tenth each loads and branches, a twentieth stores, the
    /// rest ALU; plain ALU below 8 instructions), without building the mix.
    /// Equal to [`Machine::mix_delta`] of that mix for every budget: the
    /// branches are `n / 10`, the loads `n / 10`, so the d-cache misses
    /// `n / 10 / 8`, and every shaped instruction is plain.
    // The per-call hot path of every measurement library, called from the
    // kernel crate.
    #[inline]
    pub fn shaped_delta(&self, instructions: u64) -> EventDelta {
        EventDelta {
            instructions,
            cycles: timing::plain_cycles(self.uarch(), instructions),
            branches: instructions / 10,
            dcache_misses: instructions / 10 / Self::STRAIGHT_LOAD_MISS_PERIOD,
            ..EventDelta::default()
        }
    }

    /// Retires a straight-line instruction mix at the given privilege level
    /// and returns the committed event delta.
    pub fn execute_mix(&mut self, mix: &InstMix, privilege: Privilege) -> EventDelta {
        let delta = self.mix_delta(mix);
        self.commit_delta(&delta, privilege);
        delta
    }

    /// Analyzes a loop at `placement`: determines its steady-state CPI and
    /// the cold-start misses the next traversal will take. Mutates the
    /// front-end structures (fills the i-cache/i-TLB, trains the BTB) but
    /// commits nothing to the counters.
    pub fn analyze_loop(&mut self, body: &InstMix, placement: CodePlacement) -> LoopAnalysis {
        let base = placement.base_address();
        let bytes = body.code_bytes().max(1);
        let cold_icache_misses = self.icache.access_block(base, bytes);
        let itlb_miss = !self.itlb.access(base);
        // The loop's backward branch is the last instruction of the body.
        let branch_addr = base + bytes - 2;
        let env = environment_branches(base);
        let btb_stable = self.btb.loop_branch_stable(branch_addr, &env);
        let cpi = match self.cpi_memo {
            Some(memo)
                if memo.base == base && memo.body == *body && memo.btb_stable == btb_stable =>
            {
                memo.cpi
            }
            _ => {
                let cpi = timing::loop_cpi(self.uarch(), placement, body, btb_stable);
                self.cpi_memo = Some(CpiMemo {
                    base,
                    body: *body,
                    btb_stable,
                    cpi,
                });
                cpi
            }
        };
        LoopAnalysis {
            cpi,
            cold_icache_misses,
            itlb_miss,
            btb_stable,
        }
    }

    /// Commits the loop's cold-start costs (first traversal misses).
    pub fn commit_loop_warmup(&mut self, analysis: &LoopAnalysis, privilege: Privilege) {
        let uarch = self.uarch();
        let delta = EventDelta {
            instructions: 0,
            cycles: analysis.cold_icache_misses * icache_miss_penalty(uarch)
                + u64::from(analysis.itlb_miss) * itlb_miss_penalty(uarch),
            icache_misses: analysis.cold_icache_misses,
            itlb_misses: u64::from(analysis.itlb_miss),
            ..EventDelta::default()
        };
        self.commit_delta(&delta, privilege);
    }

    /// Executes `iters` steady-state iterations of the loop body.
    ///
    /// Kernel code calls this repeatedly with partial iteration counts to
    /// interleave interrupt delivery; the instruction/cycle accounting is
    /// identical to one big call.
    pub fn execute_loop_iters(
        &mut self,
        body: &InstMix,
        iters: u64,
        analysis: &LoopAnalysis,
        privilege: Privilege,
    ) -> EventDelta {
        let delta = EventDelta {
            instructions: body.total_instructions() * iters,
            cycles: analysis.cpi.cycles_for(iters),
            branches: body.branches * iters,
            // An unstable BTB re-mispredicts the backward branch every
            // iteration — that's where its +1 cycle/iteration goes.
            branch_mispredictions: if analysis.btb_stable { 0 } else { iters },
            // A loop that loads or stores walks its data sequentially: one
            // miss per cache line's worth of elements. Dependent loads
            // (pointer chases) miss on every single iteration.
            dcache_misses: (body.loads + body.stores) * iters / Self::SEQUENTIAL_WALK_MISS_PERIOD
                + body.chase_loads * iters,
            ..EventDelta::default()
        };
        self.commit_delta(&delta, privilege);
        delta
    }

    /// Commits the loop's exit cost: the final not-taken branch
    /// mispredicts (the predictor has learned "taken").
    pub fn commit_loop_exit(&mut self, privilege: Privilege) {
        let delta = EventDelta {
            cycles: mispredict_penalty(self.uarch()),
            branch_mispredictions: 1,
            ..EventDelta::default()
        };
        self.commit_delta(&delta, privilege);
    }

    /// Convenience wrapper: analyze + warmup + all iterations + exit, as one
    /// uninterrupted run. Returns the total committed delta.
    pub fn execute_loop(
        &mut self,
        body: &InstMix,
        iters: u64,
        placement: CodePlacement,
        privilege: Privilege,
    ) -> EventDelta {
        let analysis = self.analyze_loop(body, placement);
        let before = self.cycle;
        self.commit_loop_warmup(&analysis, privilege);
        let mut delta = self.execute_loop_iters(body, iters, &analysis, privilege);
        self.commit_loop_exit(privilege);
        delta.cycles = self.cycle - before;
        delta.icache_misses += analysis.cold_icache_misses;
        delta.itlb_misses += u64::from(analysis.itlb_miss);
        delta.branch_mispredictions += 1;
        delta
    }

    /// `RDPMC` — reads programmable counter `index`.
    ///
    /// # Errors
    ///
    /// [`CpuError::RdpmcNotEnabled`] in user mode with `CR4.PCE` clear
    /// (§2.2: “Whether RDPMC and RDTSC work in user mode is configurable by
    /// software”), or [`CpuError::NoSuchCounter`].
    pub fn rdpmc(&self, index: usize) -> Result<u64> {
        if self.privilege == Privilege::User && !self.cr4_pce {
            return Err(CpuError::RdpmcNotEnabled);
        }
        self.pmu.read_pmc(index)
    }

    /// `RDTSC` — reads the time stamp counter (available from user mode in
    /// the default `CR4.TSD = 0` configuration we model).
    pub fn rdtsc(&self) -> u64 {
        self.pmu.tsc()
    }

    /// `RDMSR` — kernel-only read of a model-specific register.
    ///
    /// # Errors
    ///
    /// [`CpuError::GeneralProtectionFault`] in user mode;
    /// [`CpuError::NoSuchMsr`] for unknown addresses.
    pub fn rdmsr(&self, addr: u32) -> Result<u64> {
        if self.privilege != Privilege::Kernel {
            return Err(CpuError::GeneralProtectionFault { what: "RDMSR" });
        }
        match msr::decode(self.uarch(), addr)? {
            MsrTarget::Tsc => Ok(self.pmu.tsc()),
            MsrTarget::PerfCtr(i) => self.pmu.read_pmc(i),
            MsrTarget::PerfEvtSel(i) => match self.pmu.config(i)? {
                Some(cfg) => msr::encode_evtsel(self.uarch(), &cfg),
                None => Ok(0),
            },
            MsrTarget::FixedCtr(i) => self.pmu.read_fixed(i),
            MsrTarget::FixedCtrCtrl => {
                let modes: Vec<_> = (0..self.pmu.fixed_count())
                    .map(|i| self.pmu.fixed_config(i).expect("index in range"))
                    .collect();
                Ok(msr::encode_fixed_ctrl(&modes))
            }
        }
    }

    /// `WRMSR` — kernel-only write of a model-specific register.
    ///
    /// # Errors
    ///
    /// [`CpuError::GeneralProtectionFault`] in user mode;
    /// [`CpuError::NoSuchMsr`] / [`CpuError::UnsupportedEvent`] for bad
    /// addresses or event encodings.
    pub fn wrmsr(&mut self, addr: u32, value: u64) -> Result<()> {
        if self.privilege != Privilege::Kernel {
            return Err(CpuError::GeneralProtectionFault { what: "WRMSR" });
        }
        match msr::decode(self.uarch(), addr)? {
            MsrTarget::Tsc => {
                self.pmu.set_tsc(value);
                Ok(())
            }
            MsrTarget::PerfCtr(i) => self.pmu.write_pmc(i, value),
            MsrTarget::PerfEvtSel(i) => match msr::decode_evtsel(self.uarch(), value)? {
                Some(cfg) => self.pmu.program_preserving(i, cfg).map(|_| ()),
                None => self.pmu.deprogram(i),
            },
            MsrTarget::FixedCtr(i) => self.pmu.write_fixed(i, value),
            MsrTarget::FixedCtrCtrl => {
                for (i, mode) in msr::decode_fixed_ctrl(value, self.pmu.fixed_count())
                    .into_iter()
                    .enumerate()
                {
                    self.pmu.set_fixed_mode(i, mode)?;
                }
                Ok(())
            }
        }
    }

    /// Commits a precomputed delta at `privilege`: the PMU adds it to its
    /// pending events for that level ([`Pmu::commit`]), which counters
    /// settle only when they are read or reconfigured, and the TSC and the
    /// cycle clock advance by its cycles at once, so tick checks see the
    /// current cycle. All of it is linear, so committing `d.scaled(k)`
    /// once equals committing `d` `k` times.
    #[inline]
    pub fn commit_delta(&mut self, delta: &EventDelta, privilege: Privilege) {
        self.pmu.commit(delta, privilege);
        self.cycle += delta.cycles;
    }
}

/// Branch addresses of the surrounding harness code, derived
/// deterministically from the loop's base address. These are the other
/// branches alive in the BTB while the loop runs.
fn environment_branches(base: u64) -> [u64; 3] {
    let h = crate::hash::splitmix64(base);
    [
        TEXT_BASE + (h & 0xF_FFFF),
        TEXT_BASE + ((h >> 20) & 0xF_FFFF),
        TEXT_BASE + ((h >> 40) & 0xF_FFFF),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmu::{CountMode, Event, PmcConfig};

    fn user_machine(p: Processor) -> Machine {
        let mut m = Machine::new(p);
        m.set_privilege(Privilege::User);
        m
    }

    #[test]
    fn boots_in_kernel_mode_pce_clear() {
        let m = Machine::new(Processor::Core2Duo);
        assert_eq!(m.privilege(), Privilege::Kernel);
        assert!(!m.cr4_pce());
        assert_eq!(m.cycle(), 0);
    }

    #[test]
    fn straight_mix_counts_instructions_exactly() {
        let mut m = Machine::new(Processor::AthlonK8);
        m.pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel),
            )
            .unwrap();
        m.execute_mix(&InstMix::straight_line(123), Privilege::User);
        m.execute_mix(&InstMix::straight_line(7), Privilege::Kernel);
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 130);
    }

    #[test]
    fn loop_instruction_model_holds() {
        // The paper's model: 1 + 3·iters instructions.
        for iters in [1u64, 10, 1000, 100_000] {
            let mut m = Machine::new(Processor::Core2Duo);
            m.pmu_mut()
                .program(
                    0,
                    PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly),
                )
                .unwrap();
            let placement = CodePlacement::at(0x0804_9000);
            m.execute_mix(&InstMix::LOOP_PROLOGUE, Privilege::User);
            m.execute_loop(&InstMix::LOOP_BODY, iters, placement, Privilege::User);
            assert_eq!(m.pmu().read_pmc(0).unwrap(), 1 + 3 * iters, "iters={iters}");
        }
    }

    #[test]
    fn loop_cycles_at_least_cpi_times_iters() {
        // Figure 11: measurements bound the c = cpi·i line from above.
        let mut m = Machine::new(Processor::AthlonK8);
        let placement = CodePlacement::at(0x0804_9000);
        let analysis = m.analyze_loop(&InstMix::LOOP_BODY, placement);
        let iters = 1_000_000;
        let delta = m.execute_loop(&InstMix::LOOP_BODY, iters, placement, Privilege::User);
        assert!(delta.cycles >= analysis.cpi.cycles_for(iters));
        // ... but not wildly more (warmup + exit only).
        assert!(delta.cycles < analysis.cpi.cycles_for(iters) + 10_000);
    }

    #[test]
    fn chunked_loop_equals_whole_loop() {
        let placement = CodePlacement::at(0x0804_9000);
        let body = InstMix::LOOP_BODY;

        let mut whole = Machine::new(Processor::Core2Duo);
        let wa = whole.analyze_loop(&body, placement);
        whole.commit_loop_warmup(&wa, Privilege::User);
        whole.execute_loop_iters(&body, 10_000, &wa, Privilege::User);
        whole.commit_loop_exit(Privilege::User);

        let mut chunked = Machine::new(Processor::Core2Duo);
        let ca = chunked.analyze_loop(&body, placement);
        assert_eq!(wa, ca);
        chunked.commit_loop_warmup(&ca, Privilege::User);
        let mut left = 10_000u64;
        while left > 0 {
            let step = left.min(937);
            chunked.execute_loop_iters(&body, step, &ca, Privilege::User);
            left -= step;
        }
        chunked.commit_loop_exit(Privilege::User);

        // Cycle totals may differ only by per-chunk div_ceil rounding.
        let diff = chunked.cycle().abs_diff(whole.cycle());
        assert!(diff <= 11, "diff = {diff}");
    }

    #[test]
    fn rdpmc_faults_in_user_without_pce() {
        let m = user_machine(Processor::Core2Duo);
        assert_eq!(m.rdpmc(0), Err(CpuError::RdpmcNotEnabled));
    }

    #[test]
    fn rdpmc_works_with_pce() {
        let mut m = Machine::new(Processor::Core2Duo);
        m.set_cr4_pce(true).unwrap();
        m.set_privilege(Privilege::User);
        assert_eq!(m.rdpmc(0).unwrap(), 0);
    }

    #[test]
    fn cr4_write_is_privileged() {
        let mut m = user_machine(Processor::Core2Duo);
        assert!(matches!(
            m.set_cr4_pce(true),
            Err(CpuError::GeneralProtectionFault { .. })
        ));
    }

    #[test]
    fn rdmsr_wrmsr_privileged() {
        let mut m = user_machine(Processor::Core2Duo);
        assert!(matches!(
            m.rdmsr(msr::IA32_TSC),
            Err(CpuError::GeneralProtectionFault { .. })
        ));
        assert!(matches!(
            m.wrmsr(msr::IA32_TSC, 0),
            Err(CpuError::GeneralProtectionFault { .. })
        ));
    }

    #[test]
    fn wrmsr_programs_counter() {
        let mut m = Machine::new(Processor::AthlonK8);
        let u = m.uarch();
        let cfg = PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly);
        let sel = msr::encode_evtsel(u, &cfg).unwrap();
        m.wrmsr(msr::evtsel_address(u, 2), sel).unwrap();
        m.execute_mix(&InstMix::straight_line(9), Privilege::User);
        assert_eq!(m.rdmsr(msr::counter_address(u, 2)).unwrap(), 9);
        // Read back the event select.
        assert_eq!(m.rdmsr(msr::evtsel_address(u, 2)).unwrap(), sel);
        // Deprogram by writing 0.
        m.wrmsr(msr::evtsel_address(u, 2), 0).unwrap();
        assert_eq!(m.pmu().config(2).unwrap(), None);
    }

    #[test]
    fn wrmsr_counter_write_preserved_by_evtsel_write() {
        // Writing the event select must not clobber the counter value
        // (hardware keeps them in distinct registers).
        let mut m = Machine::new(Processor::AthlonK8);
        let u = m.uarch();
        m.wrmsr(msr::counter_address(u, 0), 555).unwrap();
        let cfg = PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel);
        m.wrmsr(
            msr::evtsel_address(u, 0),
            msr::encode_evtsel(u, &cfg).unwrap(),
        )
        .unwrap();
        assert_eq!(m.rdmsr(msr::counter_address(u, 0)).unwrap(), 555);
    }

    #[test]
    fn fixed_ctrl_via_msr() {
        let mut m = Machine::new(Processor::Core2Duo);
        let v = msr::encode_fixed_ctrl(&[Some(CountMode::UserAndKernel), None, None]);
        m.wrmsr(msr::IA32_FIXED_CTR_CTRL, v).unwrap();
        m.execute_mix(&InstMix::straight_line(11), Privilege::User);
        assert_eq!(m.rdmsr(msr::IA32_FIXED_CTR0).unwrap(), 11);
        assert_eq!(m.rdmsr(msr::IA32_FIXED_CTR_CTRL).unwrap(), v);
    }

    #[test]
    fn tsc_advances_with_work() {
        let mut m = Machine::new(Processor::Core2Duo);
        let t0 = m.rdtsc();
        m.execute_mix(&InstMix::straight_line(1000), Privilege::User);
        assert!(m.rdtsc() > t0);
        assert_eq!(m.rdtsc(), m.cycle());
    }

    #[test]
    fn second_run_same_placement_no_cold_misses() {
        let mut m = Machine::new(Processor::Core2Duo);
        let placement = CodePlacement::at(0x0804_9000);
        let a1 = m.analyze_loop(&InstMix::LOOP_BODY, placement);
        let a2 = m.analyze_loop(&InstMix::LOOP_BODY, placement);
        assert!(a1.cold_icache_misses > 0);
        assert_eq!(a2.cold_icache_misses, 0);
        assert!(!a2.itlb_miss);
        // CPI is a pure function of placement: identical across runs.
        assert_eq!(a1.cpi, a2.cpi);
    }

    #[test]
    fn dcache_misses_for_walking_loop() {
        use crate::mix::MixBuilder;
        let mut m = Machine::new(Processor::AthlonK8);
        m.pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::DCacheMisses, CountMode::UserOnly),
            )
            .unwrap();
        let body = MixBuilder::new().alu(2).loads(1).branches(1, 1).build();
        m.execute_loop(
            &body,
            16_000,
            CodePlacement::at(0x0804_9000),
            Privilege::User,
        );
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 1_000);
    }

    #[test]
    fn no_dcache_misses_without_loads() {
        let mut m = Machine::new(Processor::AthlonK8);
        m.pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::DCacheMisses, CountMode::UserOnly),
            )
            .unwrap();
        m.execute_loop(
            &InstMix::LOOP_BODY,
            100_000,
            CodePlacement::at(0x0804_9000),
            Privilege::User,
        );
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 0);
    }

    #[test]
    fn straight_code_pollutes_dcache() {
        use crate::mix::MixBuilder;
        let mut m = Machine::new(Processor::Core2Duo);
        m.pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::DCacheMisses, CountMode::UserAndKernel),
            )
            .unwrap();
        let mix = MixBuilder::new().alu(100).loads(80).build();
        m.execute_mix(&mix, Privilege::Kernel);
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 10);
    }

    #[test]
    fn chase_loads_miss_every_iteration() {
        use crate::mix::MixBuilder;
        let mut m = Machine::new(Processor::AthlonK8);
        m.pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::DCacheMisses, CountMode::UserOnly),
            )
            .unwrap();
        let body = MixBuilder::new().alu(1).chase_loads(1).branches(1, 1).build();
        m.execute_loop(&body, 777, CodePlacement::at(0x0804_9000), Privilege::User);
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 777);
        // Straight-line chases miss too, one per chase load.
        m.execute_mix(
            &MixBuilder::new().alu(3).chase_loads(5).build(),
            Privilege::User,
        );
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 782);
    }

    #[test]
    fn streaming_stores_miss_once_per_line() {
        use crate::mix::MixBuilder;
        let mut m = Machine::new(Processor::AthlonK8);
        m.pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::DCacheMisses, CountMode::UserOnly),
            )
            .unwrap();
        let body = MixBuilder::new().alu(2).stores(1).branches(1, 1).build();
        m.execute_loop(
            &body,
            16_000,
            CodePlacement::at(0x0804_9000),
            Privilege::User,
        );
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 1_000);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut m = Machine::new(Processor::AthlonK8);
        m.set_cr4_pce(true).unwrap();
        m.set_privilege(Privilege::User);
        m.pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel),
            )
            .unwrap();
        m.execute_mix(&InstMix::straight_line(100), Privilege::User);
        m.execute_loop(
            &InstMix::LOOP_BODY,
            1000,
            CodePlacement::at(0x0804_9000),
            Privilege::User,
        );
        m.reset();
        // Power-on invariants.
        assert_eq!(m.privilege(), Privilege::Kernel);
        assert!(!m.cr4_pce());
        assert_eq!(m.cycle(), 0);
        assert_eq!(m.rdtsc(), 0);
        assert_eq!(m.pmu().config(0).unwrap(), None);
        assert_eq!(m.pmu().read_pmc(0).unwrap(), 0);
        // Front end is cold again: the same loop takes its cold misses.
        let a = m.analyze_loop(&InstMix::LOOP_BODY, CodePlacement::at(0x0804_9000));
        assert!(a.cold_icache_misses > 0);
    }

    #[test]
    fn reset_machine_behaves_like_fresh_machine() {
        // Drive a reset machine and a fresh machine through the same
        // program; every observable must match exactly.
        let placement = CodePlacement::at(0x0804_9017);
        let run = |m: &mut Machine| {
            m.pmu_mut()
                .program(
                    1,
                    PmcConfig::counting(Event::CoreCycles, CountMode::UserAndKernel),
                )
                .unwrap();
            m.execute_mix(&InstMix::straight_line(37), Privilege::Kernel);
            m.execute_loop(&InstMix::LOOP_BODY, 12_345, placement, Privilege::User);
            (m.cycle(), m.rdtsc(), m.pmu().read_pmc(1).unwrap())
        };
        let mut fresh = Machine::new(Processor::PentiumD);
        let baseline = run(&mut fresh);
        let mut reused = Machine::new(Processor::PentiumD);
        let _ = run(&mut reused);
        reused.reset();
        assert_eq!(run(&mut reused), baseline);
    }

    #[test]
    fn cpi_memo_is_exact_across_resets() {
        let placement = CodePlacement::at(0x0804_8000 + 12);
        let mut m = Machine::new(Processor::AthlonK8);
        let first = m.analyze_loop(&InstMix::LOOP_BODY, placement);
        m.reset();
        let second = m.analyze_loop(&InstMix::LOOP_BODY, placement);
        assert_eq!(first, second, "memoized CPI must not change results");
        // A different placement must not hit the stale memo.
        m.reset();
        let other = m.analyze_loop(&InstMix::LOOP_BODY, CodePlacement::at(0x0804_8000));
        assert_ne!(first.cpi, other.cpi);
    }

    #[test]
    fn placement_changes_cpi_somewhere() {
        // Across many placements on K8 both CPI classes must appear.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            let mut m = Machine::new(Processor::AthlonK8);
            let a = m.analyze_loop(&InstMix::LOOP_BODY, CodePlacement::at(0x0804_8000 + i));
            seen.insert(a.cpi.cycles_for(1000));
        }
        assert!(seen.len() >= 2, "only one CPI class: {seen:?}");
    }
}
