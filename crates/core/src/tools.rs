//! Standalone measurement tools — the §9 cross-check.
//!
//! Korn et al. found >60,000% error when measuring micro-benchmarks with
//! the `perfex` command-line tool, “since the perfex program starts the
//! micro-benchmark as a separate process, and thus includes process
//! startup (e.g. loading and dynamic linking) and shutdown cost in its
//! measurement”. The paper repeated the experiment with the standalone
//! tools of its three infrastructures (perfex/perfctr, pfmon/perfmon2,
//! papiex/PAPI) “and found errors of similar magnitude”.
//!
//! This module models those tools: the measured region spans the whole
//! child process, so the error includes the exec path, the dynamic
//! linker, libc startup and process teardown.

use counterlab_cpu::mix::InstMix;
use counterlab_kernel::syscall::kernel_code_mix;

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::interface::Interface;
use crate::measure::{placement_for, run_measurement, Record};
use crate::Result;

/// The standalone tool of each infrastructure (§9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StandaloneTool {
    /// `perfex` (ships with perfctr).
    Perfex,
    /// `pfmon` (ships with perfmon2).
    Pfmon,
    /// `papiex` (available for PAPI).
    Papiex,
}

impl StandaloneTool {
    /// All three tools.
    pub const ALL: [StandaloneTool; 3] = [
        StandaloneTool::Perfex,
        StandaloneTool::Pfmon,
        StandaloneTool::Papiex,
    ];

    /// Tool name.
    pub fn name(self) -> &'static str {
        match self {
            StandaloneTool::Perfex => "perfex",
            StandaloneTool::Pfmon => "pfmon",
            StandaloneTool::Papiex => "papiex",
        }
    }

    /// The interface the tool drives underneath.
    pub fn interface(self) -> Interface {
        match self {
            StandaloneTool::Perfex => Interface::Pc,
            StandaloneTool::Pfmon => Interface::Pm,
            StandaloneTool::Papiex => Interface::PLpm,
        }
    }

    /// User-mode instructions of the child's startup the tool measures:
    /// `execve` return path, the dynamic linker resolving relocations, and
    /// libc's `_start`→`main` initialization. Calibrated to the order of
    /// 10⁵–10⁶ instructions of a small dynamically linked binary.
    pub fn startup_user_instructions(self) -> u64 {
        match self {
            // perfex children are plain C binaries.
            StandaloneTool::Perfex => 290_000,
            // pfmon attaches before exec; slightly different path length.
            StandaloneTool::Pfmon => 260_000,
            // papiex preloads its monitoring shared object: more linking.
            StandaloneTool::Papiex => 420_000,
        }
    }

    /// Kernel-mode instructions of `execve` + address-space setup + the
    /// startup page faults.
    pub fn startup_kernel_instructions(self) -> u64 {
        match self {
            StandaloneTool::Perfex => 160_000,
            StandaloneTool::Pfmon => 150_000,
            StandaloneTool::Papiex => 185_000,
        }
    }

    /// Instructions of process teardown (`exit_group`, unmapping) counted
    /// before the tool's final read.
    pub fn shutdown_instructions(self) -> (u64, u64) {
        match self {
            StandaloneTool::Perfex => (9_000, 55_000),
            StandaloneTool::Pfmon => (8_000, 50_000),
            StandaloneTool::Papiex => (14_000, 60_000),
        }
    }
}

impl std::fmt::Display for StandaloneTool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of measuring a benchmark with a standalone tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolMeasurement {
    /// The tool used.
    pub tool: StandaloneTool,
    /// The whole-process measured count.
    pub measured: u64,
    /// The benchmark's true count.
    pub expected: u64,
}

impl ToolMeasurement {
    /// Absolute error in instructions.
    pub fn error(&self) -> i64 {
        self.measured as i64 - self.expected as i64
    }

    /// Relative error in percent — the quantity Korn et al. report
    /// (>60,000% for short benchmarks).
    pub fn relative_error_percent(&self) -> f64 {
        100.0 * self.error() as f64 / (self.expected.max(1)) as f64
    }
}

/// Measures `benchmark` the way a standalone tool does: counters armed
/// before `execve`, read after process exit, so startup and shutdown are
/// inside the window.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn run_tool(
    tool: StandaloneTool,
    config: &MeasurementConfig,
    benchmark: Benchmark,
) -> Result<ToolMeasurement> {
    // The in-process measurement provides the benchmark + library window.
    let cfg = MeasurementConfig {
        interface: tool.interface(),
        ..*config
    };
    let inner: Record = run_measurement(&cfg, benchmark)?;

    // Model the process lifetime around it on a fresh system: the tool's
    // window additionally covers startup and shutdown.
    let kernel = counterlab_kernel::config::KernelConfig::default()
        .with_hz(cfg.hz)
        .with_seed(cfg.seed ^ 0x0007_0015);
    let mut sys = counterlab_kernel::system::System::new(cfg.processor, kernel);
    let mode = cfg.mode.to_count_mode();
    sys.machine_mut()
        .pmu_mut()
        .program(0, counterlab_cpu::pmu::PmcConfig::counting(cfg.event, mode))
        .expect("counter 0 exists on every modeled processor");

    // Startup: kernel exec work, then user-mode linking/init.
    run_kernel(&mut sys, tool.startup_kernel_instructions());
    sys.run_user_code(tool.startup_user_instructions());
    // The benchmark itself (its placement is the child's own).
    benchmark.run(&mut sys, placement_for(&cfg, &benchmark));
    // Shutdown before the tool's final read.
    let (down_user, down_kernel) = tool.shutdown_instructions();
    sys.run_user_code(down_user);
    run_kernel(&mut sys, down_kernel);

    let process_wide = sys.machine().pmu().read_pmc(0).expect("programmed above");
    // Library-call window error from the in-process measurement.
    let measured = process_wide + inner.error().max(0) as u64;
    Ok(ToolMeasurement {
        tool,
        measured,
        expected: crate::measure::expected_count(&cfg, &benchmark),
    })
}

fn run_kernel(sys: &mut counterlab_kernel::system::System, instructions: u64) {
    use counterlab_cpu::machine::Privilege;
    let mix: InstMix = kernel_code_mix(instructions);
    sys.machine_mut().set_privilege(Privilege::Kernel);
    sys.machine_mut().execute_mix(&mix, Privilege::Kernel);
    sys.machine_mut().set_privilege(Privilege::User);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::CountingMode;
    use counterlab_cpu::uarch::Processor;

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn all_lists_every_variant() {
        for v in [
            StandaloneTool::Perfex,
            StandaloneTool::Pfmon,
            StandaloneTool::Papiex,
        ] {
            match v {
                StandaloneTool::Perfex => {
                    assert!(StandaloneTool::ALL.contains(&StandaloneTool::Perfex))
                }
                StandaloneTool::Pfmon => {
                    assert!(StandaloneTool::ALL.contains(&StandaloneTool::Pfmon))
                }
                StandaloneTool::Papiex => {
                    assert!(StandaloneTool::ALL.contains(&StandaloneTool::Papiex))
                }
            }
        }
    }

    fn cfg() -> MeasurementConfig {
        MeasurementConfig::new(Processor::Core2Duo, Interface::Pc)
            .with_mode(CountingMode::UserKernel)
            .with_hz(0)
    }

    #[test]
    fn tools_have_enormous_relative_error_on_short_benchmarks() {
        // Korn et al.: >60,000% error measuring tiny regions with perfex.
        for tool in StandaloneTool::ALL {
            let m = run_tool(tool, &cfg(), Benchmark::Loop { iters: 100 }).unwrap();
            assert!(
                m.relative_error_percent() > 60_000.0,
                "{tool}: {}%",
                m.relative_error_percent()
            );
        }
    }

    #[test]
    fn tool_error_amortizes_for_long_benchmarks() {
        let tool = StandaloneTool::Pfmon;
        let short = run_tool(tool, &cfg(), Benchmark::Loop { iters: 100 }).unwrap();
        let long = run_tool(tool, &cfg(), Benchmark::Loop { iters: 100_000_000 }).unwrap();
        assert!(short.relative_error_percent() > 10_000.0);
        assert!(
            long.relative_error_percent() < 1.0,
            "long: {}%",
            long.relative_error_percent()
        );
    }

    #[test]
    fn user_mode_tools_still_swamped_by_linker() {
        // Even counting only user instructions, the dynamic linker and
        // libc startup dominate a small benchmark.
        let m = run_tool(
            StandaloneTool::Papiex,
            &MeasurementConfig::new(Processor::AthlonK8, Interface::PLpm)
                .with_mode(CountingMode::User)
                .with_hz(0),
            Benchmark::Loop { iters: 1_000 },
        )
        .unwrap();
        assert!(m.error() > 300_000, "error = {}", m.error());
    }

    #[test]
    fn tool_metadata() {
        assert_eq!(StandaloneTool::Perfex.interface(), Interface::Pc);
        assert_eq!(StandaloneTool::Pfmon.interface(), Interface::Pm);
        assert_eq!(StandaloneTool::Papiex.interface(), Interface::PLpm);
        assert_eq!(StandaloneTool::Perfex.to_string(), "perfex");
    }

    #[test]
    fn fine_grained_measurement_beats_tools_by_orders() {
        // The reason the paper focuses on in-process measurement.
        let bench = Benchmark::Loop { iters: 1_000 };
        let in_process = crate::measure::run_measurement(&cfg(), bench).unwrap();
        let tool = run_tool(StandaloneTool::Perfex, &cfg(), bench).unwrap();
        assert!(tool.error() > 1_000 * in_process.error());
    }
}
