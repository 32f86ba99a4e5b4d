//! Processor descriptors — the paper's Table 1.
//!
//! | id | processor          | GHz | µarch    | fixed ctrs | programmable |
//! |----|--------------------|-----|----------|------------|--------------|
//! | PD | Pentium D 925      | 3.0 | NetBurst | 0 (+TSC)   | 18           |
//! | CD | Core 2 Duo E6600   | 2.4 | Core2    | 3 (+TSC)   | 2            |
//! | K8 | Athlon 64 X2 4200+ | 2.2 | K8       | 0 (+TSC)   | 4            |

use crate::pmu::Event;

/// The three micro-architectures in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MicroArch {
    /// Intel NetBurst (Pentium 4 / Pentium D).
    NetBurst,
    /// Intel Core2 (Core 2 Duo).
    Core2,
    /// AMD K8 (Athlon 64).
    K8,
}

impl MicroArch {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            MicroArch::NetBurst => "NetBurst",
            MicroArch::Core2 => "Core2",
            MicroArch::K8 => "K8",
        }
    }
}

impl std::fmt::Display for MicroArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The three processors used in the study (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Processor {
    /// Pentium D 925, 3.0 GHz, NetBurst — “PD”.
    PentiumD,
    /// Core 2 Duo E6600, 2.4 GHz, Core2 — “CD”.
    Core2Duo,
    /// Athlon 64 X2 4200+, 2.2 GHz, K8 — “K8”.
    AthlonK8,
}

impl Processor {
    /// All three processors, in the paper's table order.
    pub const ALL: [Processor; 3] = [
        Processor::PentiumD,
        Processor::Core2Duo,
        Processor::AthlonK8,
    ];

    /// The paper's two-letter code for this processor.
    pub fn code(self) -> &'static str {
        match self {
            Processor::PentiumD => "PD",
            Processor::Core2Duo => "CD",
            Processor::AthlonK8 => "K8",
        }
    }

    /// The static micro-architecture descriptor.
    pub fn uarch(self) -> &'static Uarch {
        match self {
            Processor::PentiumD => &PENTIUM_D,
            Processor::Core2Duo => &CORE2_DUO,
            Processor::AthlonK8 => &ATHLON_K8,
        }
    }
}

impl std::fmt::Display for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Static description of one processor model.
#[derive(Debug, Clone, PartialEq)]
pub struct Uarch {
    /// Marketing name, e.g. `"Pentium D 925"`.
    pub model_name: &'static str,
    /// Micro-architecture family.
    pub arch: MicroArch,
    /// Clock frequency in Hz with the Linux “performance” governor pinning
    /// the highest P-state (§3.2 of the paper).
    pub clock_hz: u64,
    /// Number of fixed-function performance counters, *excluding* the TSC.
    /// (Table 1 writes `3+1` for Core 2: three fixed counters plus TSC.)
    pub fixed_counters: usize,
    /// Number of programmable performance counters.
    pub programmable_counters: usize,
    /// Latency in cycles of a serializing counter-access instruction pair
    /// (`RDMSR`/`WRMSR`), used by the timing model.
    pub msr_access_cycles: u64,
    /// Latency in cycles of `RDPMC`.
    pub rdpmc_cycles: u64,
    /// Latency in cycles of `RDTSC`.
    pub rdtsc_cycles: u64,
    /// Cycles for a kernel entry/exit round trip (sysenter + sysexit and the
    /// immediate entry code).
    pub syscall_cycles: u64,
    /// Sustainable instructions-per-cycle for plain integer code, ×100
    /// (e.g. 300 = 3 IPC). Used to convert straight-line instruction counts
    /// into cycles.
    pub ipc_times_100: u64,
}

impl Uarch {
    /// Total counter registers a measurement could touch: programmable +
    /// fixed + TSC.
    pub fn total_counter_registers(&self) -> usize {
        self.programmable_counters + self.fixed_counters + 1
    }

    /// Whether this micro-architecture can count `event` on a programmable
    /// counter, and if so its event-select encoding.
    ///
    /// Encodings follow the respective vendor manuals (umask ≪ 8 | event):
    /// the exact values matter only in that libpfm/libperfctr must agree
    /// with the PMU on them, as on real hardware.
    pub fn event_encoding(&self, event: Event) -> Option<u32> {
        use Event::*;
        match self.arch {
            MicroArch::Core2 | MicroArch::K8 => match event {
                InstructionsRetired => Some(0x00C0),
                CoreCycles => Some(0x003C),
                BranchesRetired => Some(if self.arch == MicroArch::Core2 {
                    0x00C4
                } else {
                    0x00C2
                }),
                BranchMispredictions => Some(if self.arch == MicroArch::Core2 {
                    0x00C5
                } else {
                    0x00C3
                }),
                ICacheMisses => Some(if self.arch == MicroArch::Core2 {
                    0x0080
                } else {
                    0x0081
                }),
                DCacheMisses => Some(if self.arch == MicroArch::Core2 {
                    0x0145
                } else {
                    0x0041
                }),
                ItlbMisses => Some(if self.arch == MicroArch::Core2 {
                    0x0082
                } else {
                    0x0084
                }),
            },
            // NetBurst's ESCR/CCCR scheme is wilder; we flatten it to one
            // select value per event for the model.
            MicroArch::NetBurst => match event {
                InstructionsRetired => Some(0x02_07),
                CoreCycles => Some(0x02_13),
                BranchesRetired => Some(0x02_06),
                BranchMispredictions => Some(0x02_03),
                ICacheMisses => Some(0x02_0A),
                DCacheMisses => Some(0x02_0B),
                ItlbMisses => Some(0x02_18),
            },
        }
    }
}

/// Pentium D 925 descriptor (Table 1 row “PD”).
pub static PENTIUM_D: Uarch = Uarch {
    model_name: "Pentium D 925",
    arch: MicroArch::NetBurst,
    clock_hz: 3_000_000_000,
    fixed_counters: 0,
    programmable_counters: 18,
    msr_access_cycles: 150,
    rdpmc_cycles: 45,
    rdtsc_cycles: 80,
    syscall_cycles: 400,
    ipc_times_100: 150,
};

/// Core 2 Duo E6600 descriptor (Table 1 row “CD”).
pub static CORE2_DUO: Uarch = Uarch {
    model_name: "Core 2 Duo E6600",
    arch: MicroArch::Core2,
    clock_hz: 2_400_000_000,
    fixed_counters: 3,
    programmable_counters: 2,
    msr_access_cycles: 100,
    rdpmc_cycles: 40,
    rdtsc_cycles: 65,
    syscall_cycles: 250,
    ipc_times_100: 250,
};

/// Athlon 64 X2 4200+ descriptor (Table 1 row “K8”).
pub static ATHLON_K8: Uarch = Uarch {
    model_name: "Athlon 64 X2 4200+",
    arch: MicroArch::K8,
    clock_hz: 2_200_000_000,
    fixed_counters: 0,
    programmable_counters: 4,
    msr_access_cycles: 90,
    rdpmc_cycles: 35,
    rdtsc_cycles: 40,
    syscall_cycles: 220,
    ipc_times_100: 220,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn all_lists_every_variant() {
        for v in [
            Processor::PentiumD,
            Processor::Core2Duo,
            Processor::AthlonK8,
        ] {
            match v {
                Processor::PentiumD => assert!(Processor::ALL.contains(&Processor::PentiumD)),
                Processor::Core2Duo => assert!(Processor::ALL.contains(&Processor::Core2Duo)),
                Processor::AthlonK8 => assert!(Processor::ALL.contains(&Processor::AthlonK8)),
            }
        }
    }

    #[test]
    fn table1_counters() {
        // Table 1: PD 0+1 fixed / 18 programmable, CD 3+1 / 2, K8 0+1 / 4.
        assert_eq!(Processor::PentiumD.uarch().fixed_counters, 0);
        assert_eq!(Processor::PentiumD.uarch().programmable_counters, 18);
        assert_eq!(Processor::Core2Duo.uarch().fixed_counters, 3);
        assert_eq!(Processor::Core2Duo.uarch().programmable_counters, 2);
        assert_eq!(Processor::AthlonK8.uarch().fixed_counters, 0);
        assert_eq!(Processor::AthlonK8.uarch().programmable_counters, 4);
    }

    #[test]
    fn table1_frequencies() {
        assert_eq!(Processor::PentiumD.uarch().clock_hz, 3_000_000_000);
        assert_eq!(Processor::Core2Duo.uarch().clock_hz, 2_400_000_000);
        assert_eq!(Processor::AthlonK8.uarch().clock_hz, 2_200_000_000);
    }

    #[test]
    fn total_registers_includes_tsc() {
        assert_eq!(Processor::Core2Duo.uarch().total_counter_registers(), 6);
        assert_eq!(Processor::AthlonK8.uarch().total_counter_registers(), 5);
        assert_eq!(Processor::PentiumD.uarch().total_counter_registers(), 19);
    }

    #[test]
    fn codes_match_paper() {
        assert_eq!(Processor::PentiumD.code(), "PD");
        assert_eq!(Processor::Core2Duo.code(), "CD");
        assert_eq!(Processor::AthlonK8.code(), "K8");
        assert_eq!(Processor::ALL.len(), 3);
    }

    #[test]
    fn every_event_encodable_everywhere() {
        use crate::pmu::Event;
        for p in Processor::ALL {
            for e in Event::ALL {
                assert!(
                    p.uarch().event_encoding(e).is_some(),
                    "{e:?} missing on {p}"
                );
            }
        }
    }

    #[test]
    fn encodings_differ_between_vendors() {
        let cd = Processor::Core2Duo.uarch();
        let k8 = Processor::AthlonK8.uarch();
        assert_ne!(
            cd.event_encoding(Event::BranchesRetired),
            k8.event_encoding(Event::BranchesRetired)
        );
        // But instructions-retired shares 0xC0 on both, as in reality.
        assert_eq!(
            cd.event_encoding(Event::InstructionsRetired),
            k8.event_encoding(Event::InstructionsRetired)
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(Processor::AthlonK8.to_string(), "K8");
        assert_eq!(MicroArch::NetBurst.to_string(), "NetBurst");
    }
}
