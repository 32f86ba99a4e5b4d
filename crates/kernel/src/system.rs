//! The simulated system: one core plus kernel state.
//!
//! [`System`] is what the kernel-extension crates drive. It provides:
//!
//! * user-mode execution of straight-line code and loops, with timer
//!   interrupts delivered at the right cycle boundaries;
//! * the system-call protocol (user stub → kernel entry → handler →
//!   kernel exit → user stub) used by perfctr/perfmon syscalls;
//! * context switches that save/restore the PMU per thread (§2.3).

use counterlab_cpu::layout::CodePlacement;
use counterlab_cpu::machine::{LoopAnalysis, Machine, Privilege};
use counterlab_cpu::mix::{InstMix, MixBuilder};
use counterlab_cpu::uarch::Processor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{KernelConfig, Preemption, SkidModel, TimerCost};
use crate::interrupt::{IoSource, TimerSource};
use crate::syscall::SyscallConvention;
use crate::thread::{ThreadId, ThreadTable};
use crate::{KernelError, Result};

/// Kernel instructions of one bare context switch (2.6.22 `switch_to` plus
/// scheduler bookkeeping), excluding PMU save/restore work which the
/// kernel extensions add.
pub const CONTEXT_SWITCH_INSTRUCTIONS: u64 = 450;

/// One simulated machine running one simulated kernel.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct System {
    machine: Machine,
    timer: TimerSource,
    io: Option<IoSource>,
    rng: StdRng,
    skid: SkidModel,
    threads: ThreadTable,
    convention: SyscallConvention,
    /// The four convention mixes, cached once per boot: the syscall round
    /// trip is the measurement hot loop and the mixes are pure functions
    /// of `convention` (entry, kernel entry, kernel exit, exit).
    conv_mixes: [InstMix; 4],
    syscall_count: u64,
    preemption: Option<Preemption>,
    ticks_since_switch: u32,
    in_preemption: bool,
}

impl System {
    /// Boots a system: one core of `processor` under `config`. The boot
    /// leaves the CPU in user mode with `CR4.PCE` clear (extensions that
    /// want user-mode `RDPMC` must enable it, as perfctr does).
    pub fn new(processor: Processor, config: KernelConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let machine = Machine::new(processor);
        let cost = config
            .timer_cost
            .unwrap_or_else(|| TimerCost::default_for(processor));
        let timer = TimerSource::new(processor.uarch(), config.hz, cost, &mut rng);
        let io = config
            .io
            .map(|cfg| IoSource::new(processor.uarch(), cfg, &mut rng));
        let convention = SyscallConvention::default();
        let mut system = System {
            machine,
            timer,
            io,
            rng,
            skid: config.skid,
            threads: ThreadTable::new(),
            convention,
            conv_mixes: convention_mixes(&convention),
            syscall_count: 0,
            preemption: config.preemption,
            ticks_since_switch: 0,
            in_preemption: false,
        };
        system.machine.set_privilege(Privilege::User);
        system
    }

    /// Returns the system to the state a fresh [`System::new`] boot with
    /// `config` would produce, while keeping the machine's allocations.
    ///
    /// The measurement-session reuse path: within one experiment cell only
    /// the seed varies between repetitions, so instead of constructing a
    /// new system per run the harness boots once and reseeds. The
    /// per-field assignments mirror [`System::new`] exactly — including
    /// the RNG draw order (timer phase first, then the optional I/O
    /// source) — so a reseeded system is bit-identical to a fresh boot
    /// with the same configuration; the equivalence suite locks this in.
    pub fn reseed(&mut self, config: &KernelConfig) {
        self.machine.reset();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let processor = self.machine.processor();
        let cost = config
            .timer_cost
            .unwrap_or_else(|| TimerCost::default_for(processor));
        self.timer = TimerSource::new(processor.uarch(), config.hz, cost, &mut rng);
        self.io = config
            .io
            .map(|cfg| IoSource::new(processor.uarch(), cfg, &mut rng));
        self.rng = rng;
        self.skid = config.skid;
        self.threads.reset();
        // `convention` and its cached mixes are boot constants (no setter
        // exists); nothing to restore.
        self.syscall_count = 0;
        self.preemption = config.preemption;
        self.ticks_since_switch = 0;
        self.in_preemption = false;
        self.machine.set_privilege(Privilege::User);
    }

    /// The underlying machine (counters, cycle clock).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access. Intended for kernel-extension crates; going
    /// around the kernel with it in application code is the simulation
    /// equivalent of poking MSRs from a driver.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The thread table.
    pub fn threads(&self) -> &ThreadTable {
        &self.threads
    }

    /// The running thread.
    pub fn current_thread(&self) -> ThreadId {
        self.threads.current()
    }

    /// The syscall cost convention.
    pub fn convention(&self) -> SyscallConvention {
        self.convention
    }

    /// Timer ticks delivered since boot.
    pub fn ticks_delivered(&self) -> u64 {
        self.timer.ticks_delivered()
    }

    /// System calls performed since boot.
    pub fn syscall_count(&self) -> u64 {
        self.syscall_count
    }

    /// Adds per-tick kernel work on behalf of a loaded extension (perfctr's
    /// and perfmon's tick hooks cost different amounts — part of why their
    /// Figure 7 slopes differ).
    pub fn set_tick_extension_extra(&mut self, instructions: u64) {
        self.timer.set_extension_extra(instructions);
    }

    /// Runs a straight-line user-mode mix, then delivers any timer ticks
    /// that became due.
    pub fn run_user_mix(&mut self, mix: &InstMix) {
        debug_assert_eq!(self.machine.privilege(), Privilege::User);
        let delta = self.machine.execute_mix(mix, Privilege::User);
        let tid = self.threads.current();
        if let Some(t) = self.threads.get_mut(tid) {
            t.add_user_instructions(delta.instructions);
        }
        self.deliver_due_ticks();
    }

    /// Runs `iters` iterations of a user-mode loop placed at `placement`,
    /// delivering timer interrupts at the cycles where they fall — the
    /// mechanism behind the paper's §5 duration-dependent error.
    pub fn run_user_loop(&mut self, body: &InstMix, iters: u64, placement: CodePlacement) {
        debug_assert_eq!(self.machine.privilege(), Privilege::User);
        let analysis = self.machine.analyze_loop(body, placement);
        self.machine.commit_loop_warmup(&analysis, Privilege::User);
        let mut remaining = iters;
        let mut user_retired = 0u64;
        while remaining > 0 {
            let chunk = self.iters_until_event(&analysis, remaining);
            if chunk > 0 {
                let d = self
                    .machine
                    .execute_loop_iters(body, chunk, &analysis, Privilege::User);
                user_retired += d.instructions;
                remaining -= chunk;
            }
            let now = self.machine.cycle();
            if self.timer.due(now) {
                remaining = self.deliver_tick_in_loop(body, &analysis, remaining);
            } else if self.io.as_ref().is_some_and(|io| io.due(now)) {
                self.run_io_handler();
            } else if chunk == 0 {
                // No interrupt due yet but no full iteration fits: run one.
                let d = self
                    .machine
                    .execute_loop_iters(body, 1, &analysis, Privilege::User);
                user_retired += d.instructions;
                remaining -= 1;
            }
        }
        self.machine.commit_loop_exit(Privilege::User);
        let tid = self.threads.current();
        if let Some(t) = self.threads.get_mut(tid) {
            t.add_user_instructions(user_retired);
        }
        self.deliver_due_ticks();
    }

    /// Performs one system call: user stub → kernel entry → `pre` handler
    /// instructions → privileged work `f` → `post` handler instructions →
    /// kernel exit → user stub. Timer ticks are held off while in the
    /// kernel (interrupts disabled on the syscall path) and delivered after
    /// return to user mode.
    ///
    /// # Errors
    ///
    /// [`KernelError::AlreadyInKernel`] for nested calls; errors from `f`
    /// propagate.
    pub fn syscall<R>(
        &mut self,
        pre: &InstMix,
        f: impl FnOnce(&mut Machine) -> Result<R>,
        post: &InstMix,
    ) -> Result<R> {
        if self.machine.privilege() == Privilege::Kernel {
            return Err(KernelError::AlreadyInKernel);
        }
        self.syscall_count += 1;
        let [user_entry, kernel_entry, kernel_exit, user_exit] = self.conv_mixes;
        self.machine.execute_mix(&user_entry, Privilege::User);
        self.machine.set_privilege(Privilege::Kernel);
        self.machine.execute_mix(&kernel_entry, Privilege::Kernel);
        self.machine.execute_mix(pre, Privilege::Kernel);
        let result = f(&mut self.machine);
        self.machine.execute_mix(post, Privilege::Kernel);
        self.machine.execute_mix(&kernel_exit, Privilege::Kernel);
        self.machine.set_privilege(Privilege::User);
        self.machine.execute_mix(&user_exit, Privilege::User);
        self.deliver_due_ticks();
        result
    }

    /// Runs `rounds` rounds of a user-mode `compute` mix followed by one
    /// no-op system call with `pre`/`post` handler mixes. The result is
    /// exactly that of `rounds` × ([`System::run_user_mix`] +
    /// [`System::syscall`]), but the rounds between two interrupts are
    /// committed in one step instead of one mix at a time.
    ///
    /// **Batching rule.** A round checks for interrupts only after its
    /// compute mix and after the syscall's user exit, and a round always
    /// costs the same `round_cycles`. So from cycle `now`, the next
    /// `k = (next_event − now − 1) / round_cycles` rounds (capped at the
    /// rounds left) end before the next interrupt is due and cannot see
    /// it. They are committed as the round's user delta (compute + user
    /// entry + user exit) scaled by `k` at user level plus its kernel
    /// delta (kernel entry + `pre` + `post` + kernel exit) scaled by `k`
    /// at kernel level. The one round an interrupt falls in runs through
    /// the per-mix path, which delivers it; then batching resumes.
    ///
    /// **Why it is exact.** [`counterlab_cpu::pmu::Pmu::commit`] adds a
    /// delta linearly per privilege level, and each mix's delta (cycles
    /// included) is an integer computed from that mix alone
    /// ([`Machine::mix_delta`]). So `k` rounds committed at once leave
    /// every counter, the TSC and the cycle clock where `k` rounds
    /// committed one by one would, and no interrupt is skipped or moved.
    ///
    /// # Errors
    ///
    /// [`KernelError::AlreadyInKernel`] when called in kernel mode.
    pub fn run_syscall_rounds(
        &mut self,
        compute: &InstMix,
        pre: &InstMix,
        post: &InstMix,
        rounds: u64,
    ) -> Result<()> {
        if self.machine.privilege() == Privilege::Kernel {
            return Err(KernelError::AlreadyInKernel);
        }
        let [user_entry, kernel_entry, kernel_exit, user_exit] = self.conv_mixes;
        let m = &self.machine;
        let compute_delta = m.mix_delta(compute);
        let user = compute_delta
            .merged(&m.mix_delta(&user_entry))
            .merged(&m.mix_delta(&user_exit));
        let kernel = m
            .mix_delta(&kernel_entry)
            .merged(&m.mix_delta(pre))
            .merged(&m.mix_delta(post))
            .merged(&m.mix_delta(&kernel_exit));
        let round_cycles = user.cycles + kernel.cycles;
        let mut remaining = rounds;
        while remaining > 0 {
            let budget = self
                .next_event_cycle()
                .saturating_sub(self.machine.cycle() + 1);
            let k = (budget / round_cycles).min(remaining);
            self.machine.commit_delta(&user.scaled(k), Privilege::User);
            self.machine
                .commit_delta(&kernel.scaled(k), Privilege::Kernel);
            self.syscall_count += k;
            let tid = self.threads.current();
            if let Some(t) = self.threads.get_mut(tid) {
                t.add_user_instructions(k * compute_delta.instructions);
            }
            remaining -= k;
            if remaining > 0 {
                // An interrupt falls in this round: run it mix by mix.
                self.run_user_mix(compute);
                self.syscall(pre, |_| Ok(()), post)?;
                remaining -= 1;
            }
        }
        Ok(())
    }

    /// Spawns a new thread.
    pub fn spawn_thread(&mut self, name: impl Into<String>) -> ThreadId {
        self.threads.spawn(name)
    }

    /// Context-switches to thread `to`: enters the kernel, runs the switch
    /// path, saves the PMU for the outgoing thread and restores (or zeroes)
    /// it for the incoming one — the per-thread virtualization of §2.3.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchThread`] if `to` doesn't exist.
    pub fn switch_thread(&mut self, to: ThreadId) -> Result<()> {
        if self.threads.get(to).is_none() {
            return Err(KernelError::NoSuchThread { tid: to.0 });
        }
        let from = self.threads.current();
        if from == to {
            return Ok(());
        }
        self.do_switch(to);
        self.deliver_due_ticks();
        Ok(())
    }

    /// The raw context-switch path (kernel work + PMU save/restore),
    /// shared by [`System::switch_thread`] and the preemptive scheduler.
    fn do_switch(&mut self, to: ThreadId) {
        let from = self.threads.current();
        self.machine.set_privilege(Privilege::Kernel);
        let switch_mix = MixBuilder::new()
            .alu(CONTEXT_SWITCH_INSTRUCTIONS - 80)
            .loads(40)
            .stores(30)
            .branches(10, 6)
            .build();
        self.machine.execute_mix(&switch_mix, Privilege::Kernel);
        // Save outgoing counters.
        let snapshot = self.machine.pmu().snapshot();
        if let Some(t) = self.threads.get_mut(from) {
            t.save_counters(snapshot);
        }
        // Restore incoming counters (fresh threads start at zero).
        let incoming = self
            .threads
            .get_mut(to)
            .expect("caller verified existence")
            .take_counters();
        match incoming {
            Some(snap) => self.machine.pmu_mut().restore(&snap),
            None => {
                let zero = counterlab_cpu::pmu::PmuSnapshot {
                    pmcs: vec![0; self.machine.pmu().programmable_count()],
                    fixed: vec![0; self.machine.pmu().fixed_count()],
                };
                self.machine.pmu_mut().restore(&zero);
            }
        }
        self.threads.set_current(to);
        self.ticks_since_switch = 0;
        self.machine.set_privilege(Privilege::User);
    }

    /// Absolute cycle of the next pending interrupt (timer or I/O);
    /// `u64::MAX` when nothing is armed.
    fn next_event_cycle(&self) -> u64 {
        let t = self.timer.next_tick_cycle();
        let i = self.io.as_ref().map_or(u64::MAX, IoSource::next_cycle);
        t.min(i)
    }

    /// How many whole loop iterations fit before the next interrupt
    /// (capped at `remaining`). With no interrupt sources armed this is
    /// all of `remaining`.
    fn iters_until_event(&self, analysis: &LoopAnalysis, remaining: u64) -> u64 {
        let next = self.next_event_cycle();
        if next == u64::MAX {
            return remaining;
        }
        let now = self.machine.cycle();
        if next <= now {
            return 0;
        }
        let budget = next - now;
        // cycles_for(1) >= 1 always, so this terminates.
        let per_iter_num = analysis.cpi.num().max(1);
        let per_iter_den = analysis.cpi.den();
        let fit = budget.saturating_mul(per_iter_den) / per_iter_num;
        fit.min(remaining)
    }

    /// Delivers one timer tick in the middle of a user loop, applying the
    /// boundary skid model. Returns the updated remaining-iteration count.
    fn deliver_tick_in_loop(
        &mut self,
        body: &InstMix,
        analysis: &LoopAnalysis,
        mut remaining: u64,
    ) -> u64 {
        // Boundary skid: the retirement boundary is imprecise by a few
        // instructions in either direction.
        let roll: f64 = self.rng.gen();
        if roll < self.skid.minus_probability && remaining > 0 && self.skid.max_magnitude >= 3 {
            // Under-count: in-flight user instructions retire after the
            // privilege switch and get attributed to the kernel. We steal
            // one whole iteration (3 instructions) from user attribution.
            self.machine
                .execute_loop_iters(body, 1, analysis, Privilege::Kernel);
            remaining -= 1;
        } else if roll < self.skid.minus_probability + self.skid.plus_probability
            && self.skid.max_magnitude > 0
        {
            // Over-count: a few instructions are counted both before and
            // after the interrupt.
            let extra = self.rng.gen_range(1..=self.skid.max_magnitude);
            let delta = counterlab_cpu::pmu::EventDelta {
                instructions: extra,
                ..Default::default()
            };
            self.machine.pmu_mut().commit(&delta, Privilege::User);
        }
        self.run_tick_handler();
        remaining
    }

    /// Delivers all due interrupts (used after straight-line segments and
    /// at kernel exit).
    fn deliver_due_ticks(&mut self) {
        loop {
            let now = self.machine.cycle();
            if self.timer.due(now) {
                self.run_tick_handler();
            } else if self.io.as_ref().is_some_and(|io| io.due(now)) {
                self.run_io_handler();
            } else {
                break;
            }
        }
    }

    fn run_tick_handler(&mut self) {
        let handler = self.timer.take_tick(&mut self.rng);
        let was = self.machine.privilege();
        self.machine.set_privilege(Privilege::Kernel);
        self.machine.execute_mix(&handler, Privilege::Kernel);
        self.machine.set_privilege(was);
        self.maybe_preempt();
    }

    // I/O interrupts are off by default and rare when on. Left inlinable,
    // this handler is copied into `deliver_due_ticks` and its callers,
    // which run after every user mix and syscall, and bloats them.
    #[cold]
    fn run_io_handler(&mut self) {
        let handler = self
            .io
            .as_mut()
            .expect("caller checked io presence")
            .take(&mut self.rng);
        let was = self.machine.privilege();
        self.machine.set_privilege(Privilege::Kernel);
        self.machine.execute_mix(&handler, Privilege::Kernel);
        self.machine.set_privilege(was);
    }

    /// Preemptive scheduling: after a full timeslice of ticks, a runnable
    /// background thread gets the CPU for its slice, then control returns.
    /// The background thread's user instructions are counted against *its*
    /// virtualized counters — the measuring thread's counts are protected
    /// by the §2.3 save/restore.
    fn maybe_preempt(&mut self) {
        let Some(p) = self.preemption else { return };
        if self.in_preemption || self.threads.len() < 2 {
            return;
        }
        self.ticks_since_switch += 1;
        if self.ticks_since_switch < p.timeslice_ticks {
            return;
        }
        self.in_preemption = true;
        let me = self.threads.current();
        let next = ThreadId((me.0 + 1) % self.threads.len() as u32);
        let was = self.machine.privilege();
        self.do_switch(next);
        // The background thread runs its slice (its ticks deliver inside).
        let background = crate::syscall::user_code_mix(p.background_instructions);
        self.machine.execute_mix(&background, Privilege::User);
        while self.timer.due(self.machine.cycle()) {
            let handler = self.timer.take_tick(&mut self.rng);
            self.machine.set_privilege(Privilege::Kernel);
            self.machine.execute_mix(&handler, Privilege::Kernel);
            self.machine.set_privilege(Privilege::User);
        }
        self.do_switch(me);
        self.machine.set_privilege(was);
        self.in_preemption = false;
    }
}

/// The four syscall-convention mixes in round-trip order.
fn convention_mixes(conv: &SyscallConvention) -> [InstMix; 4] {
    [
        conv.user_entry_mix(),
        conv.kernel_entry_mix(),
        conv.kernel_exit_mix(),
        conv.user_exit_mix(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterlab_cpu::pmu::{CountMode, Event, PmcConfig};

    fn quiet_config() -> KernelConfig {
        KernelConfig::default()
            .with_seed(42)
            .with_skid(SkidModel::disabled())
    }

    fn count_instructions(sys: &mut System, mode: CountMode) -> usize {
        sys.machine_mut()
            .pmu_mut()
            .program(0, PmcConfig::counting(Event::InstructionsRetired, mode))
            .unwrap()
    }

    #[test]
    fn boots_in_user_mode() {
        let sys = System::new(Processor::Core2Duo, quiet_config());
        assert_eq!(sys.machine().privilege(), Privilege::User);
        assert!(!sys.machine().cr4_pce());
        assert_eq!(sys.current_thread(), ThreadId(0));
    }

    #[test]
    fn user_mix_counts_exactly_in_user_mode() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config());
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        sys.run_user_mix(&InstMix::straight_line(500));
        // Ticks may fire, but they are kernel-mode: user counter is exact.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 500);
    }

    #[test]
    fn loop_user_count_is_exact_without_skid() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config());
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        let placement = CodePlacement::at(0x0804_9000);
        sys.run_user_loop(&InstMix::LOOP_BODY, 1_000_000, placement);
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 3_000_000);
    }

    #[test]
    fn long_loop_accumulates_kernel_instructions() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config());
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        let placement = CodePlacement::at(0x0804_9000);
        sys.run_user_loop(&InstMix::LOOP_BODY, 30_000_000, placement);
        let kernel = sys.machine().pmu().read_pmc(idx).unwrap();
        assert!(sys.ticks_delivered() > 0, "expected timer ticks");
        assert!(kernel > 0, "kernel instructions from tick handlers");
        // All kernel instructions come from tick handlers here.
        assert!(kernel >= sys.ticks_delivered() * 7_000);
    }

    #[test]
    fn timer_disabled_no_kernel_instructions() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            5_000_000,
            CodePlacement::at(0x0804_9000),
        );
        assert_eq!(sys.ticks_delivered(), 0);
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
    }

    #[test]
    fn tick_count_tracks_duration() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config());
        let placement = CodePlacement::at(0x0804_9000);
        sys.run_user_loop(&InstMix::LOOP_BODY, 20_000_000, placement);
        let t1 = sys.ticks_delivered();
        sys.run_user_loop(&InstMix::LOOP_BODY, 20_000_000, placement);
        let t2 = sys.ticks_delivered() - t1;
        // Same work, comparable tick counts (within ±2 for phase effects).
        assert!(t1 > 0);
        assert!(t1.abs_diff(t2) <= 2, "t1={t1} t2={t2}");
    }

    #[test]
    fn syscall_executes_handler_in_kernel_mode() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        let user = count_instructions(&mut sys, CountMode::UserOnly);
        let kernel = sys
            .machine_mut()
            .pmu_mut()
            .program(
                1,
                PmcConfig::counting(Event::InstructionsRetired, CountMode::KernelOnly),
            )
            .unwrap();
        let pre = InstMix::straight_line(100);
        let post = InstMix::straight_line(50);
        let got: u64 = sys.syscall(&pre, |m| Ok(m.rdtsc()), &post).unwrap();
        let _ = got;
        let conv = sys.convention();
        assert_eq!(
            sys.machine().pmu().read_pmc(user).unwrap(),
            conv.total_user()
        );
        assert_eq!(
            sys.machine().pmu().read_pmc(kernel).unwrap(),
            conv.total_kernel() + 150
        );
        assert_eq!(sys.syscall_count(), 1);
    }

    #[test]
    fn nested_syscall_rejected() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config());
        let r = sys.syscall(
            &InstMix::empty(),
            |m| {
                m.set_privilege(Privilege::Kernel);
                Ok(())
            },
            &InstMix::empty(),
        );
        assert!(r.is_ok());
        // Machine was left in kernel mode by the hostile closure: fix up.
        sys.machine_mut().set_privilege(Privilege::Kernel);
        let r2 = sys.syscall(&InstMix::empty(), |_| Ok(()), &InstMix::empty());
        assert_eq!(r2.unwrap_err(), KernelError::AlreadyInKernel);
    }

    #[test]
    fn switch_thread_virtualizes_counters() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        let other = sys.spawn_thread("other");
        sys.run_user_mix(&InstMix::straight_line(100));
        sys.switch_thread(other).unwrap();
        // Fresh thread sees zeroed counters.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
        sys.run_user_mix(&InstMix::straight_line(7));
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 7);
        // Switching back restores the first thread's counts.
        sys.switch_thread(ThreadId(0)).unwrap();
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 100);
    }

    #[test]
    fn switch_to_missing_thread_fails() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config());
        assert_eq!(
            sys.switch_thread(ThreadId(9)).unwrap_err(),
            KernelError::NoSuchThread { tid: 9 }
        );
    }

    #[test]
    fn switch_to_self_is_noop() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::UserAndKernel);
        sys.switch_thread(ThreadId(0)).unwrap();
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
    }

    #[test]
    fn skid_perturbs_user_counts_both_ways() {
        // With aggressive skid, long-loop user counts deviate from the
        // model in both directions across seeds.
        let mut deviations = Vec::new();
        for seed in 0..12 {
            let cfg = KernelConfig::default()
                .with_seed(seed)
                .with_skid(SkidModel {
                    plus_probability: 0.5,
                    minus_probability: 0.5,
                    max_magnitude: 6,
                });
            let mut sys = System::new(Processor::Core2Duo, cfg);
            let idx = count_instructions(&mut sys, CountMode::UserOnly);
            sys.run_user_loop(
                &InstMix::LOOP_BODY,
                30_000_000,
                CodePlacement::at(0x0804_9000),
            );
            let got = sys.machine().pmu().read_pmc(idx).unwrap() as i64;
            deviations.push(got - 90_000_000);
        }
        assert!(
            deviations.iter().any(|&d| d != 0),
            "some deviation expected"
        );
        // Deviations are tiny relative to the workload (< 1e-3 relative).
        assert!(deviations.iter().all(|&d| d.abs() < 1000), "{deviations:?}");
    }

    #[test]
    fn reseed_matches_fresh_boot() {
        // Drive a fresh system and a reseeded one through the same
        // program: every counter, the cycle clock, tick count and syscall
        // count must agree exactly — for the same seed and across seeds.
        let run = |sys: &mut System| {
            let idx = count_instructions(sys, CountMode::UserAndKernel);
            sys.run_user_mix(&InstMix::straight_line(500));
            sys.run_user_loop(
                &InstMix::LOOP_BODY,
                30_000_000,
                CodePlacement::at(0x0804_9013),
            );
            sys.syscall(&InstMix::straight_line(40), |m| Ok(m.rdtsc()), &InstMix::empty())
                .unwrap();
            (
                sys.machine().cycle(),
                sys.machine().pmu().read_pmc(idx).unwrap(),
                sys.ticks_delivered(),
                sys.syscall_count(),
            )
        };
        for seed in [0u64, 42, 0xDEAD_BEEF] {
            let cfg = KernelConfig::default().with_seed(seed);
            let mut fresh = System::new(Processor::Core2Duo, cfg.clone());
            let expected = run(&mut fresh);

            // Dirty a system with a different config, then reseed to cfg.
            let mut reused = System::new(
                Processor::Core2Duo,
                KernelConfig::default().with_seed(seed ^ 0x1234),
            );
            let _ = run(&mut reused);
            let other = reused.spawn_thread("noise");
            reused.switch_thread(other).unwrap();
            reused.reseed(&cfg);
            assert_eq!(run(&mut reused), expected, "seed {seed}");
            assert_eq!(reused.current_thread(), ThreadId(0));
        }
    }

    #[test]
    fn thread_bookkeeping_tracks_user_instructions() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        sys.run_user_mix(&InstMix::straight_line(11));
        sys.run_user_loop(&InstMix::LOOP_BODY, 10, CodePlacement::at(0x0804_9000));
        let t = sys.threads().get(ThreadId(0)).unwrap();
        assert_eq!(t.user_instructions(), 11 + 30);
    }

    #[test]
    fn io_interrupts_add_kernel_instructions() {
        use crate::config::IoInterrupts;
        let cfg = quiet_config().without_timer().with_io(IoInterrupts {
            rate_hz: 2_000,
            handler_instructions: 1_500,
        });
        let mut sys = System::new(Processor::Core2Duo, cfg);
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        // 20M iterations ≈ 20–40M cycles ≈ 17–33 expected I/O interrupts
        // at 2 kHz on a 2.4 GHz core.
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            20_000_000,
            CodePlacement::at(0x0804_9000),
        );
        let kernel = sys.machine().pmu().read_pmc(idx).unwrap();
        assert!(kernel >= 5 * 1_500, "kernel = {kernel}");
        assert_eq!(sys.ticks_delivered(), 0, "timer disabled");
    }

    #[test]
    fn io_disabled_by_default() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            20_000_000,
            CodePlacement::at(0x0804_9000),
        );
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
    }

    #[test]
    fn preemption_preserves_virtualized_counts() {
        use crate::config::Preemption;
        let cfg = quiet_config().with_preemption(Preemption {
            timeslice_ticks: 2,
            background_instructions: 500_000,
        });
        let mut sys = System::new(Processor::Core2Duo, cfg);
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        let noisy = sys.spawn_thread("background");
        let _ = noisy;
        // A long loop: many ticks → several preemptions → the background
        // thread runs millions of instructions in between.
        let iters = 60_000_000;
        sys.run_user_loop(&InstMix::LOOP_BODY, iters, CodePlacement::at(0x0804_9000));
        // Despite preemption, the measuring thread's user-mode count is
        // exactly its own work.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 3 * iters);
        // And the background thread really did run.
        let bg = sys.threads().get(noisy).unwrap();
        assert!(
            bg.saved_counters().is_some(),
            "background thread must have been scheduled"
        );
    }

    #[test]
    fn preemption_requires_second_thread() {
        use crate::config::Preemption;
        let cfg = quiet_config().with_preemption(Preemption {
            timeslice_ticks: 1,
            background_instructions: 1,
        });
        let mut sys = System::new(Processor::Core2Duo, cfg);
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            30_000_000,
            CodePlacement::at(0x0804_9000),
        );
        // Single runnable thread: preemption never fires, counts exact.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 90_000_000);
    }

    #[test]
    fn extension_tick_extra_increases_kernel_count() {
        let mut base = System::new(Processor::Core2Duo, quiet_config());
        let bidx = count_instructions(&mut base, CountMode::KernelOnly);
        base.run_user_loop(
            &InstMix::LOOP_BODY,
            10_000_000,
            CodePlacement::at(0x0804_9000),
        );
        let base_kernel = base.machine().pmu().read_pmc(bidx).unwrap();
        let base_ticks = base.ticks_delivered();

        let mut ext = System::new(Processor::Core2Duo, quiet_config());
        ext.set_tick_extension_extra(4_000);
        let eidx = count_instructions(&mut ext, CountMode::KernelOnly);
        ext.run_user_loop(
            &InstMix::LOOP_BODY,
            10_000_000,
            CodePlacement::at(0x0804_9000),
        );
        let ext_kernel = ext.machine().pmu().read_pmc(eidx).unwrap();

        assert!(base_ticks > 0);
        assert!(
            ext_kernel > base_kernel,
            "extension overhead must show up: {ext_kernel} vs {base_kernel}"
        );
    }
}
