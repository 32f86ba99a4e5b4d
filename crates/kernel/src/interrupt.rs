//! Timer-interrupt scheduling: when ticks fire and what each costs.

use counterlab_cpu::mix::{InstMix, MixBuilder};
use counterlab_cpu::uarch::Uarch;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::TimerCost;

/// Generates the stream of timer ticks for one core.
///
/// Ticks fire every `clock_hz / hz` cycles. The phase of the first tick is
/// random per boot (real measurements start at an arbitrary point of the
/// tick period — this is what spreads the per-loop-size distributions of
/// the paper's Figure 9).
#[derive(Debug, Clone)]
pub struct TimerSource {
    period_cycles: u64,
    next_tick_cycle: u64,
    cost: TimerCost,
    ticks_delivered: u64,
}

impl TimerSource {
    /// Creates the timer for a processor at `hz`; `hz == 0` disables it.
    pub fn new(uarch: &Uarch, hz: u32, cost: TimerCost, rng: &mut StdRng) -> Self {
        if hz == 0 {
            return TimerSource {
                period_cycles: 0,
                next_tick_cycle: u64::MAX,
                cost,
                ticks_delivered: 0,
            };
        }
        let period_cycles = uarch.clock_hz / u64::from(hz);
        let phase = rng.gen_range(0..period_cycles);
        TimerSource {
            period_cycles,
            next_tick_cycle: phase,
            cost,
            ticks_delivered: 0,
        }
    }

    /// Whether the timer is enabled.
    pub fn enabled(&self) -> bool {
        self.period_cycles > 0
    }

    /// Tick period in cycles (0 when disabled).
    pub fn period_cycles(&self) -> u64 {
        self.period_cycles
    }

    /// Absolute cycle of the next pending tick (`u64::MAX` when disabled).
    pub fn next_tick_cycle(&self) -> u64 {
        self.next_tick_cycle
    }

    /// Number of ticks delivered so far.
    pub fn ticks_delivered(&self) -> u64 {
        self.ticks_delivered
    }

    /// Updates the per-tick extension overhead (kernel extensions load
    /// after the timer exists).
    pub fn set_extension_extra(&mut self, instructions: u64) {
        self.cost.extension_extra = instructions;
    }

    /// Whether a tick is due at or before `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        self.enabled() && cycle >= self.next_tick_cycle
    }

    /// Consumes the pending tick and returns the kernel-mode handler mix to
    /// execute for it. Jitter makes each handler run a slightly different
    /// length.
    pub fn take_tick(&mut self, rng: &mut StdRng) -> InstMix {
        debug_assert!(self.enabled());
        self.next_tick_cycle += self.period_cycles;
        self.ticks_delivered += 1;
        let jitter = if self.cost.jitter > 0 {
            rng.gen_range(0..=self.cost.jitter)
        } else {
            0
        };
        handler_mix(self.cost.base_instructions + self.cost.extension_extra + jitter)
    }
}

/// A Poisson stream of I/O interrupts (disk/network completion).
///
/// Inter-arrival gaps are exponentially distributed around the configured
/// rate. Like the timer, handlers run in kernel mode and their
/// instructions land on whatever thread they interrupt — an additional
/// §5-style duration-dependent error source on busy machines.
#[derive(Debug, Clone)]
pub struct IoSource {
    mean_gap_cycles: f64,
    next_cycle: u64,
    handler_instructions: u64,
    delivered: u64,
}

impl IoSource {
    /// Creates the source for a processor at `rate_hz` interrupts/second.
    pub fn new(uarch: &Uarch, cfg: crate::config::IoInterrupts, rng: &mut StdRng) -> Self {
        let mean_gap_cycles = uarch.clock_hz as f64 / f64::from(cfg.rate_hz.max(1));
        let mut src = IoSource {
            mean_gap_cycles,
            next_cycle: 0,
            handler_instructions: cfg.handler_instructions,
            delivered: 0,
        };
        src.next_cycle = exponential_gap(mean_gap_cycles, rng);
        src
    }

    /// Absolute cycle of the next pending interrupt.
    pub fn next_cycle(&self) -> u64 {
        self.next_cycle
    }

    /// Interrupts delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Whether an interrupt is due at or before `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_cycle
    }

    /// Consumes the pending interrupt, schedules the next arrival, and
    /// returns the handler mix.
    pub fn take(&mut self, rng: &mut StdRng) -> InstMix {
        self.delivered += 1;
        self.next_cycle += exponential_gap(self.mean_gap_cycles, rng);
        handler_mix(self.handler_instructions)
    }
}

fn exponential_gap(mean: f64, rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-u.ln() * mean).max(1.0) as u64
}

/// Shapes a handler instruction budget into a plausible kernel mix
/// (roughly 15% memory operations, 10% branches).
pub fn handler_mix(instructions: u64) -> InstMix {
    let loads = instructions / 10;
    let stores = instructions / 20;
    let branches = instructions / 10;
    let alu = instructions.saturating_sub(loads + stores + branches);
    MixBuilder::new()
        .alu(alu)
        .loads(loads)
        .stores(stores)
        .branches(branches, branches / 2)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterlab_cpu::uarch::CORE2_DUO;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn cost() -> TimerCost {
        TimerCost {
            base_instructions: 1000,
            extension_extra: 0,
            jitter: 100,
        }
    }

    #[test]
    fn period_matches_hz() {
        let t = TimerSource::new(&CORE2_DUO, 250, cost(), &mut rng(1));
        assert_eq!(t.period_cycles(), 2_400_000_000 / 250);
        assert!(t.enabled());
    }

    #[test]
    fn disabled_timer_never_due() {
        let t = TimerSource::new(&CORE2_DUO, 0, cost(), &mut rng(1));
        assert!(!t.enabled());
        assert!(!t.due(u64::MAX - 1));
    }

    #[test]
    fn first_tick_within_one_period() {
        let t = TimerSource::new(&CORE2_DUO, 250, cost(), &mut rng(2));
        assert!(t.next_tick_cycle() < t.period_cycles());
    }

    #[test]
    fn phase_varies_with_seed() {
        let phases: std::collections::BTreeSet<u64> = (0..16)
            .map(|s| TimerSource::new(&CORE2_DUO, 250, cost(), &mut rng(s)).next_tick_cycle())
            .collect();
        assert!(phases.len() > 8, "phases should vary: {phases:?}");
    }

    #[test]
    fn take_tick_advances_and_counts() {
        let mut r = rng(3);
        let mut t = TimerSource::new(&CORE2_DUO, 250, cost(), &mut r);
        let first = t.next_tick_cycle();
        let mix = t.take_tick(&mut r);
        assert_eq!(t.next_tick_cycle(), first + t.period_cycles());
        assert_eq!(t.ticks_delivered(), 1);
        let n = mix.total_instructions();
        assert!((1000..=1100).contains(&n), "handler size {n}");
    }

    #[test]
    fn handler_jitter_varies() {
        let mut r = rng(4);
        let mut t = TimerSource::new(&CORE2_DUO, 250, cost(), &mut r);
        let sizes: std::collections::BTreeSet<u64> = (0..32)
            .map(|_| t.take_tick(&mut r).total_instructions())
            .collect();
        assert!(sizes.len() > 4, "jitter should vary sizes: {sizes:?}");
    }

    #[test]
    fn handler_mix_conserves_instructions() {
        for n in [0u64, 1, 10, 1234, 100_000] {
            assert_eq!(handler_mix(n).total_instructions(), n, "n={n}");
        }
    }

    #[test]
    fn io_source_poisson_arrivals() {
        let mut r = rng(9);
        let cfg = crate::config::IoInterrupts {
            rate_hz: 1_000,
            handler_instructions: 500,
        };
        let mut io = IoSource::new(&CORE2_DUO, cfg, &mut r);
        // Mean gap = 2.4e9 / 1000 = 2.4M cycles; sample 200 gaps.
        let mut prev = 0u64;
        let mut gaps = Vec::new();
        for _ in 0..200 {
            let next = io.next_cycle();
            gaps.push(next - prev);
            prev = next;
            let mix = io.take(&mut r);
            assert_eq!(mix.total_instructions(), 500);
        }
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            (1_600_000.0..3_400_000.0).contains(&mean),
            "mean gap = {mean}"
        );
        assert_eq!(io.delivered(), 200);
        // Exponential: high variance (sd ≈ mean).
        let var = gaps
            .iter()
            .map(|&g| (g as f64 - mean) * (g as f64 - mean))
            .sum::<f64>()
            / gaps.len() as f64;
        assert!(var.sqrt() > 0.5 * mean, "sd = {}", var.sqrt());
    }

    #[test]
    fn extension_extra_included() {
        let mut r = rng(5);
        let c = TimerCost {
            base_instructions: 1000,
            extension_extra: 500,
            jitter: 0,
        };
        let mut t = TimerSource::new(&CORE2_DUO, 250, c, &mut r);
        assert_eq!(t.take_tick(&mut r).total_instructions(), 1500);
    }
}
