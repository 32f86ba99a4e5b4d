//! System-call mechanics: the fixed instruction costs of crossing the
//! user/kernel boundary.
//!
//! §3.5 of the paper notes that “some of these instructions can only be
//! used in kernel mode, and thus some functions incur the cost of a system
//! call”. The convention below fixes what one crossing costs; the kernel
//! extensions add their handler bodies on top.

use counterlab_cpu::machine::Machine;
use counterlab_cpu::mix::{InstMix, MixBuilder};

use crate::system::System;
use crate::Result;

/// The instruction costs of one system call round trip on the modeled
/// 2.6.22 kernel (int 0x80 / sysenter flavor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallConvention {
    /// User-mode instructions before the `sysenter` (argument marshalling,
    /// the libc stub).
    pub user_entry_stub: u64,
    /// Kernel-mode instructions from the entry point to the handler
    /// dispatch (saving registers, locating the handler).
    pub kernel_entry: u64,
    /// Kernel-mode instructions from handler return to `sysexit`
    /// (restoring registers, checking for pending signals/reschedule).
    pub kernel_exit: u64,
    /// User-mode instructions after the `sysexit` (return value handling).
    pub user_exit_stub: u64,
}

impl Default for SyscallConvention {
    fn default() -> Self {
        SyscallConvention {
            user_entry_stub: 12,
            kernel_entry: 85,
            kernel_exit: 70,
            user_exit_stub: 8,
        }
    }
}

impl SyscallConvention {
    /// The user-mode mix executed before the privilege switch.
    pub fn user_entry_mix(&self) -> InstMix {
        MixBuilder::new()
            .alu(self.user_entry_stub.saturating_sub(2))
            .branches(1, 1)
            .stores(1)
            .build()
    }

    /// The kernel-mode mix executed right after the privilege switch.
    pub fn kernel_entry_mix(&self) -> InstMix {
        MixBuilder::new()
            .alu(self.kernel_entry.saturating_sub(12))
            .loads(4)
            .stores(6)
            .branches(2, 1)
            .build()
    }

    /// The kernel-mode mix executed just before returning to user mode.
    pub fn kernel_exit_mix(&self) -> InstMix {
        MixBuilder::new()
            .alu(self.kernel_exit.saturating_sub(10))
            .loads(6)
            .stores(2)
            .branches(2, 1)
            .build()
    }

    /// The user-mode mix executed after returning from the kernel.
    pub fn user_exit_mix(&self) -> InstMix {
        MixBuilder::new()
            .alu(self.user_exit_stub.saturating_sub(1))
            .branches(1, 0)
            .build()
    }

    /// Total user-mode instructions of one round trip.
    pub fn total_user(&self) -> u64 {
        self.user_entry_stub + self.user_exit_stub
    }

    /// Total kernel-mode instructions of one round trip (excluding the
    /// handler body).
    pub fn total_kernel(&self) -> u64 {
        self.kernel_entry + self.kernel_exit
    }
}

/// Instruction costs of one measurement-library operation's path, split by
/// mode and position relative to the capture point (the instant the
/// measured counter starts, stops, or is sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCost {
    /// User-mode library instructions before the syscall stub (or, for a
    /// pure user-mode path, before the capture).
    pub wrapper_pre: u64,
    /// Kernel-mode handler instructions before the capture point.
    pub handler_pre: u64,
    /// Kernel-mode handler instructions after the capture point.
    pub handler_post: u64,
    /// User-mode library instructions after return (or after the capture).
    pub wrapper_post: u64,
}

impl PathCost {
    /// Scales the kernel-mode portions by `percent / 100`.
    pub fn scale_kernel(mut self, percent: u64) -> Self {
        self.handler_pre = self.handler_pre * percent / 100;
        self.handler_post = self.handler_post * percent / 100;
        self
    }

    /// Scales the user-mode portions by `percent / 100`.
    pub fn scale_user(mut self, percent: u64) -> Self {
        self.wrapper_pre = self.wrapper_pre * percent / 100;
        self.wrapper_post = self.wrapper_post * percent / 100;
        self
    }
}

/// Shapes an instruction budget into a plausible user-library mix
/// (~10% loads, ~5% stores, ~10% branches, the rest ALU).
// perfctr, perfmon and PAPI shape every call's budgets through these two.
#[inline]
pub fn user_code_mix(instructions: u64) -> InstMix {
    shaped_mix(instructions)
}

/// Shapes an instruction budget into a plausible kernel-handler mix
/// (same composition; kernel code is ordinary code).
#[inline]
pub fn kernel_code_mix(instructions: u64) -> InstMix {
    shaped_mix(instructions)
}

// Inlined with the two wrappers above into their callers' crates.
#[inline]
fn shaped_mix(instructions: u64) -> InstMix {
    if instructions < 8 {
        return InstMix::straight_line(instructions);
    }
    let loads = instructions / 10;
    let stores = instructions / 20;
    let branches = instructions / 10;
    MixBuilder::new()
        .alu(instructions - loads - stores - branches)
        .loads(loads)
        .stores(stores)
        .branches(branches, branches / 2)
        .build()
}

/// Runs one measurement-library operation: `wrapper_pre` user instructions,
/// a system call whose handler executes `handler_pre` kernel instructions,
/// then the privileged work `f` (the capture point), then `handler_post`
/// kernel instructions, returning through `wrapper_post` user instructions.
///
/// This is the exact instruction-attribution skeleton the paper's §3.5
/// analyzes: everything after one call's capture point and before the next
/// call's capture point is *measurement error*.
///
/// # Errors
///
/// Propagates [`crate::KernelError`] from the syscall machinery and from
/// `f`.
pub fn lib_syscall<R>(
    sys: &mut System,
    wrapper_pre: u64,
    handler_pre: u64,
    handler_post: u64,
    wrapper_post: u64,
    f: impl FnOnce(&mut Machine) -> Result<R>,
) -> Result<R> {
    sys.run_user_mix(&user_code_mix(wrapper_pre));
    let pre = kernel_code_mix(handler_pre);
    let post = kernel_code_mix(handler_post);
    let result = sys.syscall(&pre, f, &post)?;
    sys.run_user_mix(&user_code_mix(wrapper_post));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelConfig, SkidModel};
    use counterlab_cpu::pmu::{CountMode, Event, PmcConfig};
    use counterlab_cpu::uarch::Processor;

    fn quiet_system() -> System {
        System::new(
            Processor::AthlonK8,
            KernelConfig::default()
                .with_hz(0)
                .with_skid(SkidModel::disabled()),
        )
    }

    #[test]
    fn shaped_mixes_conserve_counts() {
        for n in [0u64, 1, 3, 4, 5, 6, 100, 12345] {
            assert_eq!(user_code_mix(n).total_instructions(), n, "user n={n}");
            assert_eq!(kernel_code_mix(n).total_instructions(), n, "kernel n={n}");
        }
    }

    #[test]
    fn lib_syscall_attributes_modes_correctly() {
        let mut sys = quiet_system();
        sys.machine_mut()
            .pmu_mut()
            .program(
                0,
                PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly),
            )
            .unwrap();
        sys.machine_mut()
            .pmu_mut()
            .program(
                1,
                PmcConfig::counting(Event::InstructionsRetired, CountMode::KernelOnly),
            )
            .unwrap();
        lib_syscall(&mut sys, 30, 100, 50, 20, |_| Ok(())).unwrap();
        let conv = sys.convention();
        let user = sys.machine().pmu().read_pmc(0).unwrap();
        let kernel = sys.machine().pmu().read_pmc(1).unwrap();
        assert_eq!(user, 30 + 20 + conv.total_user());
        assert_eq!(kernel, 100 + 50 + conv.total_kernel());
    }

    #[test]
    fn mixes_add_up_to_declared_totals() {
        let c = SyscallConvention::default();
        assert_eq!(c.user_entry_mix().total_instructions(), c.user_entry_stub);
        assert_eq!(c.kernel_entry_mix().total_instructions(), c.kernel_entry);
        assert_eq!(c.kernel_exit_mix().total_instructions(), c.kernel_exit);
        assert_eq!(c.user_exit_mix().total_instructions(), c.user_exit_stub);
    }

    #[test]
    fn totals() {
        let c = SyscallConvention::default();
        assert_eq!(c.total_user(), 20);
        assert_eq!(c.total_kernel(), 155);
    }

    #[test]
    fn custom_convention() {
        let c = SyscallConvention {
            user_entry_stub: 5,
            kernel_entry: 50,
            kernel_exit: 40,
            user_exit_stub: 3,
        };
        assert_eq!(c.user_entry_mix().total_instructions(), 5);
        assert_eq!(c.total_kernel(), 90);
    }
}
