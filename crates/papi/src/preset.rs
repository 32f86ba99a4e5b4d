//! PAPI preset events and measurement domains.
//!
//! PAPI achieves processor independence “by providing a set of high level
//! events that are mapped to the corresponding low-level events available
//! on specific processors” (§2.4 of the paper). The preset names below are
//! the classic `PAPI_*` constants; the mapping target is the portable
//! [`Event`] of the CPU model, which each micro-architecture encodes
//! differently (see `counterlab_cpu::uarch::Uarch::event_encoding`).

use counterlab_cpu::pmu::{CountMode, Event};

/// PAPI preset (platform-independent) events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(non_camel_case_types, reason = "variants spell the PAPI_* preset names")]
pub enum PapiPreset {
    /// `PAPI_TOT_INS` — total instructions completed.
    PAPI_TOT_INS,
    /// `PAPI_TOT_CYC` — total cycles.
    PAPI_TOT_CYC,
    /// `PAPI_BR_INS` — branch instructions.
    PAPI_BR_INS,
    /// `PAPI_BR_MSP` — mispredicted branches.
    PAPI_BR_MSP,
    /// `PAPI_L1_ICM` — L1 instruction-cache misses.
    PAPI_L1_ICM,
    /// `PAPI_L1_DCM` — L1 data-cache misses.
    PAPI_L1_DCM,
    /// `PAPI_TLB_IM` — instruction TLB misses.
    PAPI_TLB_IM,
}

impl PapiPreset {
    /// All presets.
    pub const ALL: [PapiPreset; 7] = [
        PapiPreset::PAPI_TOT_INS,
        PapiPreset::PAPI_TOT_CYC,
        PapiPreset::PAPI_BR_INS,
        PapiPreset::PAPI_BR_MSP,
        PapiPreset::PAPI_L1_ICM,
        PapiPreset::PAPI_L1_DCM,
        PapiPreset::PAPI_TLB_IM,
    ];

    /// The native event this preset maps to.
    pub fn to_native(self) -> Event {
        match self {
            PapiPreset::PAPI_TOT_INS => Event::InstructionsRetired,
            PapiPreset::PAPI_TOT_CYC => Event::CoreCycles,
            PapiPreset::PAPI_BR_INS => Event::BranchesRetired,
            PapiPreset::PAPI_BR_MSP => Event::BranchMispredictions,
            PapiPreset::PAPI_L1_ICM => Event::ICacheMisses,
            PapiPreset::PAPI_L1_DCM => Event::DCacheMisses,
            PapiPreset::PAPI_TLB_IM => Event::ItlbMisses,
        }
    }

    /// The canonical `PAPI_*` name.
    pub fn name(self) -> &'static str {
        match self {
            PapiPreset::PAPI_TOT_INS => "PAPI_TOT_INS",
            PapiPreset::PAPI_TOT_CYC => "PAPI_TOT_CYC",
            PapiPreset::PAPI_BR_INS => "PAPI_BR_INS",
            PapiPreset::PAPI_BR_MSP => "PAPI_BR_MSP",
            PapiPreset::PAPI_L1_ICM => "PAPI_L1_ICM",
            PapiPreset::PAPI_L1_DCM => "PAPI_L1_DCM",
            PapiPreset::PAPI_TLB_IM => "PAPI_TLB_IM",
        }
    }

    /// Parses a `PAPI_*` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for PapiPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// PAPI measurement domains (`PAPI_set_domain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PapiDomain {
    /// `PAPI_DOM_USER` — user-mode events only (PAPI's default).
    #[default]
    User,
    /// `PAPI_DOM_KERNEL` — kernel-mode events only.
    Kernel,
    /// `PAPI_DOM_ALL` — user plus kernel.
    All,
}

impl PapiDomain {
    /// The counter mode this domain configures.
    pub fn to_mode(self) -> CountMode {
        match self {
            PapiDomain::User => CountMode::UserOnly,
            PapiDomain::Kernel => CountMode::KernelOnly,
            PapiDomain::All => CountMode::UserAndKernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn all_lists_every_variant() {
        for v in [
            PapiPreset::PAPI_TOT_INS,
            PapiPreset::PAPI_TOT_CYC,
            PapiPreset::PAPI_BR_INS,
            PapiPreset::PAPI_BR_MSP,
            PapiPreset::PAPI_L1_ICM,
            PapiPreset::PAPI_L1_DCM,
            PapiPreset::PAPI_TLB_IM,
        ] {
            match v {
                PapiPreset::PAPI_TOT_INS => {
                    assert!(PapiPreset::ALL.contains(&PapiPreset::PAPI_TOT_INS))
                }
                PapiPreset::PAPI_TOT_CYC => {
                    assert!(PapiPreset::ALL.contains(&PapiPreset::PAPI_TOT_CYC))
                }
                PapiPreset::PAPI_BR_INS => {
                    assert!(PapiPreset::ALL.contains(&PapiPreset::PAPI_BR_INS))
                }
                PapiPreset::PAPI_BR_MSP => {
                    assert!(PapiPreset::ALL.contains(&PapiPreset::PAPI_BR_MSP))
                }
                PapiPreset::PAPI_L1_ICM => {
                    assert!(PapiPreset::ALL.contains(&PapiPreset::PAPI_L1_ICM))
                }
                PapiPreset::PAPI_L1_DCM => {
                    assert!(PapiPreset::ALL.contains(&PapiPreset::PAPI_L1_DCM))
                }
                PapiPreset::PAPI_TLB_IM => {
                    assert!(PapiPreset::ALL.contains(&PapiPreset::PAPI_TLB_IM))
                }
            }
        }
    }

    #[test]
    fn roundtrip_names() {
        for p in PapiPreset::ALL {
            assert_eq!(PapiPreset::from_name(p.name()), Some(p));
        }
        assert_eq!(PapiPreset::from_name("PAPI_NOPE"), None);
    }

    #[test]
    fn native_mapping_is_injective() {
        let mut seen = std::collections::BTreeSet::new();
        for p in PapiPreset::ALL {
            assert!(seen.insert(p.to_native()), "{p} duplicates a native event");
        }
    }

    #[test]
    fn default_domain_is_user() {
        assert_eq!(PapiDomain::default(), PapiDomain::User);
        assert_eq!(PapiDomain::default().to_mode(), CountMode::UserOnly);
        assert_eq!(PapiDomain::All.to_mode(), CountMode::UserAndKernel);
    }

    #[test]
    fn display_is_papi_name() {
        assert_eq!(PapiPreset::PAPI_TOT_INS.to_string(), "PAPI_TOT_INS");
    }
}
