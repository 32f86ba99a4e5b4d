//! Cycle-cost models.
//!
//! Instruction counts are architectural and exact; cycle counts are a
//! micro-architectural consequence of code placement (§6 of the paper).
//! This module prices both:
//!
//! * [`straight_cycles`] — cost of straight-line code from the mix and the
//!   per-class latencies in [`Uarch`];
//! * [`loop_cpi`] — steady-state cycles per iteration of a tight loop,
//!   which is where the paper's Figures 10–12 get their distinct slopes
//!   (`c = 2i` vs `c = 3i` on K8, 1.5–4 cycles/iteration on Pentium D).

use crate::layout::CodePlacement;
use crate::mix::InstMix;
use crate::uarch::{MicroArch, Uarch};

/// Instruction-fetch window width of the front ends we model (bytes).
pub const FETCH_WINDOW_BYTES: u64 = 16;

/// A rational cycles-per-iteration figure (NetBurst sustains half-cycle
/// averages, e.g. 3 cycles per 2 iterations).
///
/// # Examples
///
/// ```
/// use counterlab_cpu::timing::CyclesPerIteration;
///
/// let cpi = CyclesPerIteration::new(3, 2); // 1.5 cycles/iteration
/// assert_eq!(cpi.cycles_for(1_000_000), 1_500_000);
/// assert_eq!(cpi.as_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CyclesPerIteration {
    num: u64,
    den: u64,
}

impl CyclesPerIteration {
    /// Creates a `num/den` cycles-per-iteration ratio.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub const fn new(num: u64, den: u64) -> Self {
        assert!(den > 0, "denominator must be non-zero");
        CyclesPerIteration { num, den }
    }

    /// Numerator.
    pub const fn num(&self) -> u64 {
        self.num
    }

    /// Denominator.
    pub const fn den(&self) -> u64 {
        self.den
    }

    /// Total cycles for `iters` iterations (rounded up to whole cycles).
    pub const fn cycles_for(&self, iters: u64) -> u64 {
        (iters * self.num).div_ceil(self.den)
    }

    /// The ratio as a float (for reporting).
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Sum of two ratios.
    pub const fn plus(&self, other: CyclesPerIteration) -> CyclesPerIteration {
        CyclesPerIteration {
            num: self.num * other.den + other.num * self.den,
            den: self.den * other.den,
        }
    }
}

impl std::fmt::Display for CyclesPerIteration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.num.is_multiple_of(self.den) {
            write!(f, "{}", self.num / self.den)
        } else {
            write!(f, "{:.2}", self.as_f64())
        }
    }
}

/// Cycles to execute a straight-line mix with a warm front end.
///
/// Plain instructions retire at the micro-architecture's sustainable IPC;
/// counter-access instructions carry their documented latencies
/// (`RDPMC`/`RDTSC` are tens of cycles, `RDMSR`/`WRMSR` are serializing and
/// cost on the order of a hundred cycles — §2.2).
pub fn straight_cycles(uarch: &Uarch, mix: &InstMix) -> u64 {
    let plain = mix.alu + mix.branches + mix.loads + mix.chase_loads + mix.stores;
    let chase = mix.chase_loads * dcache_miss_penalty(uarch);
    plain_cycles(uarch, plain)
        + chase
        + mix.rdpmc * uarch.rdpmc_cycles
        + mix.rdtsc * uarch.rdtsc_cycles
        + (mix.rdmsr + mix.wrmsr) * uarch.msr_access_cycles
}

/// Cycles of `plain` instructions retiring at the sustainable IPC, rounded
/// up to a whole cycle: the part of [`straight_cycles`] that ordinary
/// (non-counter-access) code costs.
// One `div_ceil` per retired mix or library-call step makes this the
// hottest division in the simulator; dispatching on the three shipped IPC
// constants lets the compiler strength-reduce each to a multiply
// (identical quotients), with the generic division kept for custom
// `Uarch`s.
#[inline]
pub fn plain_cycles(uarch: &Uarch, plain: u64) -> u64 {
    let n = plain * 100;
    match uarch.ipc_times_100 {
        150 => n.div_ceil(150),
        220 => n.div_ceil(220),
        250 => n.div_ceil(250),
        d => n.div_ceil(d),
    }
}

/// Steady-state cycles per iteration of a tight loop whose body is `body`,
/// placed at `placement`, given whether the loop's backward branch is
/// stable in the BTB (`btb_stable = false` means it is re-predicted or
/// mispredicted every iteration).
///
/// The penalty structure is what produces the paper's observations:
///
/// * **K8** — base 2 cycles/iteration; +1 when the body straddles a
///   16-byte fetch window (two fetch groups per iteration). This yields the
///   `c = 2i` and `c = 3i` groups of Figure 11. An unstable BTB adds one
///   more cycle (rare).
/// * **Core2** — base 1 cycle/iteration (macro-fused cmp+jne); +1 for a
///   fetch-window straddle; +1 for an unstable BTB.
/// * **NetBurst** — base 1.5 cycles/iteration; +0.5 for a fetch straddle;
///   +1 when the body straddles a trace-cache line (64 bytes); +1 for an
///   unstable BTB. Range 1.5–4, matching Figure 10's Pentium D spread.
pub fn loop_cpi(
    uarch: &Uarch,
    placement: CodePlacement,
    body: &InstMix,
    btb_stable: bool,
) -> CyclesPerIteration {
    let bytes = body.code_bytes();
    let straddle_fetch = placement.straddles(bytes, FETCH_WINDOW_BYTES);
    // A dependent load chain stalls the loop for a full L1D-miss fill per
    // chase load, every iteration — no out-of-order window hides a load
    // whose address is the previous load's data.
    let chase = body.chase_loads * dcache_miss_penalty(uarch);
    let base = match uarch.arch {
        MicroArch::K8 => {
            let mut cpi = CyclesPerIteration::new(2, 1);
            if straddle_fetch {
                cpi = cpi.plus(CyclesPerIteration::new(1, 1));
            }
            if !btb_stable {
                cpi = cpi.plus(CyclesPerIteration::new(1, 1));
            }
            cpi
        }
        MicroArch::Core2 => {
            let mut cpi = CyclesPerIteration::new(1, 1);
            if straddle_fetch {
                cpi = cpi.plus(CyclesPerIteration::new(1, 1));
            }
            if !btb_stable {
                cpi = cpi.plus(CyclesPerIteration::new(1, 1));
            }
            cpi
        }
        MicroArch::NetBurst => {
            let mut cpi = CyclesPerIteration::new(3, 2);
            if straddle_fetch {
                cpi = cpi.plus(CyclesPerIteration::new(1, 2));
            }
            if placement.straddles(bytes, 64) {
                cpi = cpi.plus(CyclesPerIteration::new(1, 1));
            }
            if !btb_stable {
                cpi = cpi.plus(CyclesPerIteration::new(1, 1));
            }
            cpi
        }
    };
    if chase > 0 {
        base.plus(CyclesPerIteration::new(chase, 1))
    } else {
        base
    }
}

/// L1 data-cache miss penalty in cycles (fill from L2) — the stall a
/// dependent-load chain pays on every link.
pub fn dcache_miss_penalty(uarch: &Uarch) -> u64 {
    match uarch.arch {
        MicroArch::NetBurst => 28,
        MicroArch::Core2 => 14,
        MicroArch::K8 => 12,
    }
}

/// Branch-mispredict penalty in cycles (pipeline refill).
pub fn mispredict_penalty(uarch: &Uarch) -> u64 {
    match uarch.arch {
        MicroArch::NetBurst => 30, // infamous 31-stage pipeline
        MicroArch::Core2 => 15,
        MicroArch::K8 => 12,
    }
}

/// L1 instruction-cache miss penalty in cycles (fill from L2).
pub fn icache_miss_penalty(uarch: &Uarch) -> u64 {
    match uarch.arch {
        MicroArch::NetBurst => 26,
        MicroArch::Core2 => 14,
        MicroArch::K8 => 12,
    }
}

/// Instruction-TLB miss penalty in cycles (page walk).
pub fn itlb_miss_penalty(uarch: &Uarch) -> u64 {
    match uarch.arch {
        MicroArch::NetBurst => 50,
        MicroArch::Core2 => 30,
        MicroArch::K8 => 25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch::{ATHLON_K8, CORE2_DUO, PENTIUM_D};

    fn placed(offset: u64) -> CodePlacement {
        CodePlacement::at(0x0804_8000 + offset)
    }

    #[test]
    fn cpi_rational_arithmetic() {
        let c = CyclesPerIteration::new(3, 2);
        assert_eq!(c.cycles_for(2), 3);
        assert_eq!(c.cycles_for(3), 5); // ceil(4.5)
        let d = c.plus(CyclesPerIteration::new(1, 2));
        assert_eq!(d.as_f64(), 2.0);
        assert_eq!(d.cycles_for(10), 20);
    }

    #[test]
    fn cpi_display() {
        assert_eq!(CyclesPerIteration::new(4, 2).to_string(), "2");
        assert_eq!(CyclesPerIteration::new(3, 2).to_string(), "1.50");
    }

    #[test]
    fn k8_two_classes_from_placement() {
        // Loop body is 8 bytes; aligned placement → 2 cycles, placement at
        // offset 12 of a fetch window → straddle → 3 cycles.
        let body = InstMix::LOOP_BODY;
        let aligned = loop_cpi(&ATHLON_K8, placed(0), &body, true);
        let straddling = loop_cpi(&ATHLON_K8, placed(12), &body, true);
        assert_eq!(aligned, CyclesPerIteration::new(2, 1));
        assert_eq!(straddling.as_f64(), 3.0);
    }

    #[test]
    fn core2_classes() {
        let body = InstMix::LOOP_BODY;
        assert_eq!(loop_cpi(&CORE2_DUO, placed(0), &body, true).as_f64(), 1.0);
        assert_eq!(loop_cpi(&CORE2_DUO, placed(12), &body, true).as_f64(), 2.0);
    }

    #[test]
    fn netburst_range_is_1_5_to_4() {
        let body = InstMix::LOOP_BODY;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for off in 0..64 {
            for stable in [true, false] {
                let cpi = loop_cpi(&PENTIUM_D, placed(off), &body, stable).as_f64();
                lo = lo.min(cpi);
                hi = hi.max(cpi);
            }
        }
        assert_eq!(lo, 1.5);
        assert_eq!(hi, 4.0);
    }

    #[test]
    fn unstable_btb_costs_a_cycle() {
        let body = InstMix::LOOP_BODY;
        let stable = loop_cpi(&ATHLON_K8, placed(0), &body, true);
        let unstable = loop_cpi(&ATHLON_K8, placed(0), &body, false);
        assert_eq!(unstable.as_f64() - stable.as_f64(), 1.0);
    }

    #[test]
    fn straight_cycles_scale_with_ipc() {
        let mix = InstMix::straight_line(300);
        // Core2 at 2.5 IPC: 120 cycles; K8 at 2.2: ceil(300/2.2)=137.
        assert_eq!(straight_cycles(&CORE2_DUO, &mix), 120);
        assert_eq!(
            straight_cycles(&ATHLON_K8, &mix),
            (300 * 100u64).div_ceil(220)
        );
    }

    #[test]
    fn msr_instructions_dominate_short_paths() {
        use crate::mix::MixBuilder;
        let with_wrmsr = MixBuilder::new().alu(10).wrmsr(2).build();
        let without = MixBuilder::new().alu(12).build();
        assert!(
            straight_cycles(&CORE2_DUO, &with_wrmsr) > straight_cycles(&CORE2_DUO, &without) + 150
        );
    }

    #[test]
    fn penalties_ordered_by_pipeline_depth() {
        assert!(mispredict_penalty(&PENTIUM_D) > mispredict_penalty(&CORE2_DUO));
        assert!(mispredict_penalty(&CORE2_DUO) > mispredict_penalty(&ATHLON_K8));
    }

    #[test]
    fn empty_mix_costs_nothing() {
        assert_eq!(straight_cycles(&CORE2_DUO, &InstMix::empty()), 0);
    }

    #[test]
    fn chase_loads_add_a_miss_penalty_per_iteration() {
        use crate::mix::MixBuilder;
        let plain = MixBuilder::new().alu(1).loads(1).branches(1, 1).build();
        let chasing = MixBuilder::new().alu(1).chase_loads(1).branches(1, 1).build();
        for (uarch, penalty) in [(&ATHLON_K8, 12), (&CORE2_DUO, 14), (&PENTIUM_D, 28)] {
            assert_eq!(dcache_miss_penalty(uarch), penalty);
            let base = loop_cpi(uarch, placed(0), &plain, true);
            let chase = loop_cpi(uarch, placed(0), &chasing, true);
            assert_eq!(
                chase.as_f64() - base.as_f64(),
                penalty as f64,
                "{:?}",
                uarch.arch
            );
            // Straight-line chases stall too.
            let s = straight_cycles(uarch, &MixBuilder::new().chase_loads(2).build());
            assert_eq!(s, 2 * penalty + (2 * 100u64).div_ceil(uarch.ipc_times_100));
        }
    }
}
