//! Model-specific register map and event-select encodings.
//!
//! Kernel extensions configure counters by writing event-select MSRs with
//! `WRMSR` and read/write counter values via `RDMSR`/`WRMSR` (§2.2). This
//! module gives each micro-architecture its authentic register addresses
//! and the bit layout of event-select values, so the perfctr/perfmon models
//! above talk to the PMU the way the real kernel patches do.

use crate::pmu::{CountMode, Event, PmcConfig};
use crate::uarch::{MicroArch, Uarch};
use crate::{CpuError, Result};

/// `IA32_TIME_STAMP_COUNTER`.
pub const IA32_TSC: u32 = 0x10;
/// First Intel architectural event-select register (`IA32_PERFEVTSEL0`).
pub const IA32_PERFEVTSEL0: u32 = 0x186;
/// First Intel architectural counter (`IA32_PMC0`).
pub const IA32_PMC0: u32 = 0xC1;
/// First Intel fixed-function counter (`IA32_FIXED_CTR0`).
pub const IA32_FIXED_CTR0: u32 = 0x309;
/// Intel fixed-counter control register (`IA32_FIXED_CTR_CTRL`).
pub const IA32_FIXED_CTR_CTRL: u32 = 0x38D;
/// First AMD K8 event-select register (`PerfEvtSel0`).
pub const K8_PERFEVTSEL0: u32 = 0xC001_0000;
/// First AMD K8 counter (`PerfCtr0`).
pub const K8_PERFCTR0: u32 = 0xC001_0004;
/// First NetBurst counter (`MSR_BPU_COUNTER0` block base).
pub const P4_COUNTER0: u32 = 0x300;
/// First NetBurst counter-configuration register (`MSR_BPU_CCCR0` block
/// base; the model flattens the ESCR+CCCR pair into one register).
pub const P4_CCCR0: u32 = 0x360;

/// Event-select bit positions (Intel architectural layout, which AMD K8
/// shares; our flattened NetBurst registers reuse it too).
pub mod bits {
    /// USR flag: count in user mode.
    pub const USR: u64 = 1 << 16;
    /// OS flag: count in kernel mode.
    pub const OS: u64 = 1 << 17;
    /// Enable flag.
    pub const EN: u64 = 1 << 22;
    /// Mask of the event+umask field.
    pub const EVENT_MASK: u64 = 0xFFFF;
}

/// What a decoded MSR address refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrTarget {
    /// The time stamp counter.
    Tsc,
    /// Event-select register of programmable counter `i`.
    PerfEvtSel(usize),
    /// Value register of programmable counter `i`.
    PerfCtr(usize),
    /// Fixed-function counter `i`.
    FixedCtr(usize),
    /// The fixed-counter control register.
    FixedCtrCtrl,
}

/// Decodes an MSR address for the given micro-architecture.
///
/// # Errors
///
/// Returns [`CpuError::NoSuchMsr`] for addresses this processor doesn't
/// implement.
pub fn decode(uarch: &Uarch, addr: u32) -> Result<MsrTarget> {
    if addr == IA32_TSC {
        return Ok(MsrTarget::Tsc);
    }
    let n = uarch.programmable_counters as u32;
    match uarch.arch {
        MicroArch::Core2 => {
            if (IA32_PERFEVTSEL0..IA32_PERFEVTSEL0 + n).contains(&addr) {
                return Ok(MsrTarget::PerfEvtSel((addr - IA32_PERFEVTSEL0) as usize));
            }
            if (IA32_PMC0..IA32_PMC0 + n).contains(&addr) {
                return Ok(MsrTarget::PerfCtr((addr - IA32_PMC0) as usize));
            }
            let f = uarch.fixed_counters as u32;
            if (IA32_FIXED_CTR0..IA32_FIXED_CTR0 + f).contains(&addr) {
                return Ok(MsrTarget::FixedCtr((addr - IA32_FIXED_CTR0) as usize));
            }
            if addr == IA32_FIXED_CTR_CTRL {
                return Ok(MsrTarget::FixedCtrCtrl);
            }
        }
        MicroArch::K8 => {
            if (K8_PERFEVTSEL0..K8_PERFEVTSEL0 + n).contains(&addr) {
                return Ok(MsrTarget::PerfEvtSel((addr - K8_PERFEVTSEL0) as usize));
            }
            if (K8_PERFCTR0..K8_PERFCTR0 + n).contains(&addr) {
                return Ok(MsrTarget::PerfCtr((addr - K8_PERFCTR0) as usize));
            }
        }
        MicroArch::NetBurst => {
            if (P4_CCCR0..P4_CCCR0 + n).contains(&addr) {
                return Ok(MsrTarget::PerfEvtSel((addr - P4_CCCR0) as usize));
            }
            if (P4_COUNTER0..P4_COUNTER0 + n).contains(&addr) {
                return Ok(MsrTarget::PerfCtr((addr - P4_COUNTER0) as usize));
            }
        }
    }
    Err(CpuError::NoSuchMsr { address: addr })
}

/// The MSR address of programmable counter `i`'s event-select register.
#[cfg(test)]
pub(crate) fn evtsel_address(uarch: &Uarch, i: usize) -> u32 {
    match uarch.arch {
        MicroArch::Core2 => IA32_PERFEVTSEL0 + i as u32,
        MicroArch::K8 => K8_PERFEVTSEL0 + i as u32,
        MicroArch::NetBurst => P4_CCCR0 + i as u32,
    }
}

/// The MSR address of programmable counter `i`'s value register.
#[cfg(test)]
pub(crate) fn counter_address(uarch: &Uarch, i: usize) -> u32 {
    match uarch.arch {
        MicroArch::Core2 => IA32_PMC0 + i as u32,
        MicroArch::K8 => K8_PERFCTR0 + i as u32,
        MicroArch::NetBurst => P4_COUNTER0 + i as u32,
    }
}

/// Encodes a counter configuration into an event-select MSR value.
///
/// # Errors
///
/// Returns [`CpuError::UnsupportedEvent`] if the event has no encoding on
/// this micro-architecture.
pub fn encode_evtsel(uarch: &Uarch, config: &PmcConfig) -> Result<u64> {
    let code = uarch
        .event_encoding(config.event)
        .ok_or(CpuError::UnsupportedEvent {
            event: config.event.name(),
            uarch: uarch.arch.name(),
        })?;
    let mut v = u64::from(code) & bits::EVENT_MASK;
    match config.mode {
        CountMode::UserOnly => v |= bits::USR,
        CountMode::KernelOnly => v |= bits::OS,
        CountMode::UserAndKernel => v |= bits::USR | bits::OS,
    }
    if config.enabled {
        v |= bits::EN;
    }
    Ok(v)
}

/// Decodes an event-select MSR value back into a counter configuration.
/// Value `0` means "deprogrammed" and decodes to `None`.
///
/// # Errors
///
/// Returns [`CpuError::UnsupportedEvent`] when the event field matches no
/// event this micro-architecture counts, and
/// [`CpuError::GeneralProtectionFault`] when neither USR nor OS is set for a
/// non-zero value (hardware accepts this but the counter would never count;
/// the model treats it as a configuration bug).
pub fn decode_evtsel(uarch: &Uarch, value: u64) -> Result<Option<PmcConfig>> {
    if value == 0 {
        return Ok(None);
    }
    let code = (value & bits::EVENT_MASK) as u32;
    let event = Event::ALL
        .into_iter()
        .find(|e| uarch.event_encoding(*e) == Some(code))
        .ok_or(CpuError::UnsupportedEvent {
            event: "unknown event code",
            uarch: uarch.arch.name(),
        })?;
    let usr = value & bits::USR != 0;
    let os = value & bits::OS != 0;
    let mode = match (usr, os) {
        (true, true) => CountMode::UserAndKernel,
        (true, false) => CountMode::UserOnly,
        (false, true) => CountMode::KernelOnly,
        (false, false) => {
            return Err(CpuError::GeneralProtectionFault {
                what: "event select with neither USR nor OS",
            })
        }
    };
    Ok(Some(PmcConfig {
        event,
        mode,
        enabled: value & bits::EN != 0,
    }))
}

/// Encodes fixed-counter modes into an `IA32_FIXED_CTR_CTRL` value
/// (2-bit field per counter: 0 = off, 1 = OS, 2 = USR, 3 = both).
pub fn encode_fixed_ctrl(modes: &[Option<CountMode>]) -> u64 {
    let mut v = 0u64;
    for (i, m) in modes.iter().enumerate() {
        let field = match m {
            None => 0u64,
            Some(CountMode::KernelOnly) => 1,
            Some(CountMode::UserOnly) => 2,
            Some(CountMode::UserAndKernel) => 3,
        };
        v |= field << (4 * i);
    }
    v
}

/// Decodes an `IA32_FIXED_CTR_CTRL` value into per-counter modes.
pub fn decode_fixed_ctrl(value: u64, count: usize) -> Vec<Option<CountMode>> {
    (0..count)
        .map(|i| match (value >> (4 * i)) & 0b11 {
            1 => Some(CountMode::KernelOnly),
            2 => Some(CountMode::UserOnly),
            3 => Some(CountMode::UserAndKernel),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch::{ATHLON_K8, CORE2_DUO, PENTIUM_D};

    #[test]
    fn decode_tsc_everywhere() {
        for u in [&ATHLON_K8, &CORE2_DUO, &PENTIUM_D] {
            assert_eq!(decode(u, IA32_TSC).unwrap(), MsrTarget::Tsc);
        }
    }

    #[test]
    fn decode_intel_registers() {
        assert_eq!(decode(&CORE2_DUO, 0x187).unwrap(), MsrTarget::PerfEvtSel(1));
        assert_eq!(decode(&CORE2_DUO, 0xC1).unwrap(), MsrTarget::PerfCtr(0));
        assert_eq!(decode(&CORE2_DUO, 0x30B).unwrap(), MsrTarget::FixedCtr(2));
        assert_eq!(decode(&CORE2_DUO, 0x38D).unwrap(), MsrTarget::FixedCtrCtrl);
        // Core 2 has two programmable counters: 0x188 is out of range.
        assert!(decode(&CORE2_DUO, 0x188).is_err());
    }

    #[test]
    fn decode_k8_registers() {
        assert_eq!(
            decode(&ATHLON_K8, 0xC001_0003).unwrap(),
            MsrTarget::PerfEvtSel(3)
        );
        assert_eq!(
            decode(&ATHLON_K8, 0xC001_0007).unwrap(),
            MsrTarget::PerfCtr(3)
        );
        // K8 has no fixed counters or Intel addresses.
        assert!(decode(&ATHLON_K8, IA32_PERFEVTSEL0).is_err());
        assert!(decode(&ATHLON_K8, IA32_FIXED_CTR_CTRL).is_err());
    }

    #[test]
    fn decode_netburst_has_18() {
        assert_eq!(decode(&PENTIUM_D, 0x360).unwrap(), MsrTarget::PerfEvtSel(0));
        assert_eq!(
            decode(&PENTIUM_D, 0x360 + 17).unwrap(),
            MsrTarget::PerfEvtSel(17)
        );
        assert!(decode(&PENTIUM_D, 0x360 + 18).is_err());
        assert_eq!(decode(&PENTIUM_D, 0x300).unwrap(), MsrTarget::PerfCtr(0));
    }

    #[test]
    fn evtsel_roundtrip() {
        for u in [&ATHLON_K8, &CORE2_DUO, &PENTIUM_D] {
            for event in Event::ALL {
                for mode in [
                    CountMode::UserOnly,
                    CountMode::KernelOnly,
                    CountMode::UserAndKernel,
                ] {
                    for enabled in [true, false] {
                        let cfg = PmcConfig {
                            event,
                            mode,
                            enabled,
                        };
                        let v = encode_evtsel(u, &cfg).unwrap();
                        let back = decode_evtsel(u, v).unwrap().unwrap();
                        assert_eq!(back, cfg, "{u:?} {event:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn evtsel_zero_means_deprogrammed() {
        assert_eq!(decode_evtsel(&CORE2_DUO, 0).unwrap(), None);
    }

    #[test]
    fn evtsel_without_priv_bits_rejected() {
        let v = 0x00C0 | bits::EN; // instructions retired, no USR/OS
        assert!(matches!(
            decode_evtsel(&CORE2_DUO, v),
            Err(CpuError::GeneralProtectionFault { .. })
        ));
    }

    #[test]
    fn evtsel_unknown_event_rejected() {
        let v = 0x1234 | bits::USR | bits::EN;
        assert!(matches!(
            decode_evtsel(&CORE2_DUO, v),
            Err(CpuError::UnsupportedEvent { .. })
        ));
    }

    #[test]
    fn fixed_ctrl_roundtrip() {
        let modes = vec![
            Some(CountMode::UserAndKernel),
            None,
            Some(CountMode::UserOnly),
        ];
        let v = encode_fixed_ctrl(&modes);
        assert_eq!(decode_fixed_ctrl(v, 3), modes);
    }

    #[test]
    fn address_helpers_agree_with_decode() {
        for u in [&ATHLON_K8, &CORE2_DUO, &PENTIUM_D] {
            for i in 0..u.programmable_counters {
                assert_eq!(
                    decode(u, evtsel_address(u, i)).unwrap(),
                    MsrTarget::PerfEvtSel(i)
                );
                assert_eq!(
                    decode(u, counter_address(u, i)).unwrap(),
                    MsrTarget::PerfCtr(i)
                );
            }
        }
    }
}
