//! Property-based tests of the CPU model: architectural invariants that
//! must hold for arbitrary workloads, placements and configurations.

use counterlab_cpu::layout::{BuildFingerprint, CodePlacement, TEXT_BASE};
use counterlab_cpu::machine::{Machine, Privilege};
use counterlab_cpu::mix::{InstMix, MixBuilder};
use counterlab_cpu::msr;
use counterlab_cpu::pmu::{CountMode, Event, EventDelta, PmcConfig, Pmu, PmuSnapshot};
use counterlab_cpu::timing::{loop_cpi, straight_cycles, CyclesPerIteration};
use counterlab_cpu::uarch::{Processor, Uarch};
use proptest::prelude::*;

fn arb_processor() -> impl Strategy<Value = Processor> {
    prop_oneof![
        Just(Processor::PentiumD),
        Just(Processor::Core2Duo),
        Just(Processor::AthlonK8),
    ]
}

fn arb_mix() -> impl Strategy<Value = InstMix> {
    (0u64..500, 0u64..50, 0u64..50, 0u64..50, 0u64..5, 0u64..5).prop_map(
        |(alu, branches, loads, stores, rdpmc, rdtsc)| {
            MixBuilder::new()
                .alu(alu)
                .branches(branches, branches / 2)
                .loads(loads)
                .stores(stores)
                .rdpmc(rdpmc)
                .rdtsc(rdtsc)
                .build()
        },
    )
}

/// Eager reference PMU: every commit adds straight into each counter that
/// counts it. [`Pmu`] defers that work; this model defines what deferral
/// must be indistinguishable from.
struct EagerPmu {
    uarch: &'static Uarch,
    pmcs: Vec<u64>,
    configs: Vec<Option<PmcConfig>>,
    fixed: Vec<u64>,
    fixed_modes: Vec<Option<CountMode>>,
    tsc: u64,
}

/// Fixed-counter roles in register order (the third is reference
/// cycles, which the model counts as core cycles).
const FIXED_EVENTS: [Event; 3] = [
    Event::InstructionsRetired,
    Event::CoreCycles,
    Event::CoreCycles,
];

impl EagerPmu {
    fn new(uarch: &'static Uarch) -> Self {
        EagerPmu {
            uarch,
            pmcs: vec![0; uarch.programmable_counters],
            configs: vec![None; uarch.programmable_counters],
            fixed: vec![0; uarch.fixed_counters],
            fixed_modes: vec![None; uarch.fixed_counters],
            tsc: 0,
        }
    }

    fn commit(&mut self, delta: &EventDelta, privilege: Privilege) {
        for (value, config) in self.pmcs.iter_mut().zip(&self.configs) {
            if let Some(cfg) = config {
                if cfg.enabled && cfg.mode.counts(privilege) {
                    *value += delta.count(cfg.event);
                }
            }
        }
        for ((value, mode), event) in self
            .fixed
            .iter_mut()
            .zip(&self.fixed_modes)
            .zip(FIXED_EVENTS)
        {
            if mode.is_some_and(|m| m.counts(privilege)) {
                *value += delta.count(event);
            }
        }
        self.tsc += delta.cycles;
    }

    /// `program` (`reset` true) or `program_preserving`; false on error.
    fn program(&mut self, index: usize, config: PmcConfig, reset: bool) -> bool {
        if index >= self.pmcs.len() || self.uarch.event_encoding(config.event).is_none() {
            return false;
        }
        self.configs[index] = Some(config);
        if reset {
            self.pmcs[index] = 0;
        }
        true
    }

    fn snapshot(&self) -> PmuSnapshot {
        PmuSnapshot {
            pmcs: self.pmcs.clone(),
            fixed: self.fixed.clone(),
        }
    }

    fn restore(&mut self, snapshot: &PmuSnapshot) {
        for (dst, src) in self.pmcs.iter_mut().zip(&snapshot.pmcs) {
            *dst = *src;
        }
        for (dst, src) in self.fixed.iter_mut().zip(&snapshot.fixed) {
            *dst = *src;
        }
    }
}

/// A counter configuration drawn from `sel` in `0..42`: every event, mode
/// and enable bit.
fn config_from(sel: usize) -> PmcConfig {
    let mode = [
        CountMode::UserOnly,
        CountMode::KernelOnly,
        CountMode::UserAndKernel,
    ][(sel / 7) % 3];
    PmcConfig {
        event: Event::ALL[sel % 7],
        mode,
        enabled: sel < 21,
    }
}

/// Applies one encoded op to both PMUs. `slot` picks a counter index in
/// range or one past it, `x` a value and `sel` a configuration.
fn apply_op(
    real: &mut Pmu,
    eager: &mut EagerPmu,
    saved: &mut Option<PmuSnapshot>,
    (kind, slot, x, sel): (u64, usize, u64, usize),
) -> Result<(), TestCaseError> {
    let i = slot % (real.programmable_count() + 1);
    let f = slot % 4;
    let fixed_mode = [
        None,
        Some(CountMode::UserOnly),
        Some(CountMode::KernelOnly),
        Some(CountMode::UserAndKernel),
    ][sel % 4];
    match kind {
        0..=5 => {
            let delta = EventDelta {
                instructions: x,
                cycles: x / 3 + sel as u64,
                branches: x / 10,
                branch_mispredictions: (sel % 3) as u64,
                icache_misses: (sel % 5) as u64,
                dcache_misses: x % 7,
                itlb_misses: (sel % 2) as u64,
            };
            let privilege = if kind < 3 {
                Privilege::User
            } else {
                Privilege::Kernel
            };
            real.commit(&delta, privilege);
            eager.commit(&delta, privilege);
        }
        6 => prop_assert_eq!(
            real.program(i, config_from(sel)).is_ok(),
            eager.program(i, config_from(sel), true)
        ),
        7 => prop_assert_eq!(
            real.program_preserving(i, config_from(sel)).is_ok(),
            eager.program(i, config_from(sel), false)
        ),
        8 => {
            prop_assert_eq!(real.deprogram(i).is_ok(), i < eager.pmcs.len());
            if let Some(c) = eager.configs.get_mut(i) {
                *c = None;
            }
        }
        9 => {
            let enabled = sel.is_multiple_of(2);
            prop_assert_eq!(real.set_enabled(i, enabled).is_ok(), i < eager.pmcs.len());
            if let Some(Some(cfg)) = eager.configs.get_mut(i) {
                cfg.enabled = enabled;
            }
        }
        10 => {
            prop_assert_eq!(real.write_pmc(i, x).is_ok(), i < eager.pmcs.len());
            if let Some(v) = eager.pmcs.get_mut(i) {
                *v = x;
            }
        }
        11 => {
            prop_assert_eq!(
                real.set_fixed_mode(f, fixed_mode).is_ok(),
                f < eager.fixed.len()
            );
            if let Some(m) = eager.fixed_modes.get_mut(f) {
                *m = fixed_mode;
            }
        }
        12 => {
            prop_assert_eq!(real.write_fixed(f, x).is_ok(), f < eager.fixed.len());
            if let Some(v) = eager.fixed.get_mut(f) {
                *v = x;
            }
        }
        13 => *saved = Some(real.snapshot()),
        14 => {
            // Before any snapshot, a short one: it overwrites only the
            // first counter, and the others keep their pending events.
            let snapshot = saved.clone().unwrap_or(PmuSnapshot {
                pmcs: vec![7],
                fixed: vec![],
            });
            real.restore(&snapshot);
            eager.restore(&snapshot);
        }
        _ => {
            real.reset();
            *eager = EagerPmu::new(eager.uarch);
        }
    }
    Ok(())
}

/// Every observation of the two PMUs agrees.
fn assert_same(real: &Pmu, eager: &EagerPmu) -> Result<(), TestCaseError> {
    for i in 0..=eager.pmcs.len() {
        prop_assert_eq!(
            real.read_pmc(i).ok(),
            eager.pmcs.get(i).copied(),
            "pmc {}",
            i
        );
        prop_assert_eq!(
            real.config(i).ok(),
            eager.configs.get(i).copied(),
            "config {}",
            i
        );
    }
    for i in 0..=eager.fixed.len() {
        prop_assert_eq!(
            real.read_fixed(i).ok(),
            eager.fixed.get(i).copied(),
            "fixed {}",
            i
        );
        prop_assert_eq!(
            real.fixed_config(i).ok(),
            eager.fixed_modes.get(i).copied(),
            "fixed mode {}",
            i
        );
    }
    prop_assert_eq!(real.tsc(), eager.tsc);
    prop_assert_eq!(real.snapshot(), eager.snapshot());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Deferred counting is indistinguishable from eager counting: the
    /// real PMU and the eager reference, driven through the same random
    /// sequence of commits at both levels, (re)programming, enable bits,
    /// value writes, fixed-counter modes, snapshot/restore and reset,
    /// agree on every counter, configuration, the TSC and the snapshot
    /// after every op.
    #[test]
    fn deferred_commit_matches_eager(
        p in arb_processor(),
        ops in prop::collection::vec((0u64..16, 0usize..64, 0u64..1_000_000, 0usize..42), 1..80),
    ) {
        let mut real = Pmu::new(p.uarch());
        let mut eager = EagerPmu::new(p.uarch());
        let mut saved = None;
        for op in ops {
            apply_op(&mut real, &mut eager, &mut saved, op)?;
            assert_same(&real, &eager)?;
        }
    }

    /// Retired-instruction counting is exact: the committed count equals
    /// the mix's instruction total, independent of processor.
    #[test]
    fn instruction_counting_exact(p in arb_processor(), mix in arb_mix()) {
        let mut m = Machine::new(p);
        m.pmu_mut()
            .program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel))
            .unwrap();
        m.execute_mix(&mix, Privilege::User);
        prop_assert_eq!(m.pmu().read_pmc(0).unwrap(), mix.total_instructions());
    }

    /// Privilege filtering is exact: user-only plus kernel-only equals
    /// user+kernel for any split of the same work.
    #[test]
    fn privilege_split_additive(p in arb_processor(), a in arb_mix(), b in arb_mix()) {
        let mut m = Machine::new(p);
        m.pmu_mut().program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly)).unwrap();
        m.pmu_mut().program(1, PmcConfig::counting(Event::InstructionsRetired, CountMode::KernelOnly)).unwrap();
        let has_third = m.pmu().programmable_count() > 2;
        if has_third {
            m.pmu_mut().program(2, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel)).unwrap();
        }
        m.execute_mix(&a, Privilege::User);
        m.execute_mix(&b, Privilege::Kernel);
        let user = m.pmu().read_pmc(0).unwrap();
        let kernel = m.pmu().read_pmc(1).unwrap();
        prop_assert_eq!(user, a.total_instructions());
        prop_assert_eq!(kernel, b.total_instructions());
        if has_third {
            prop_assert_eq!(m.pmu().read_pmc(2).unwrap(), user + kernel);
        }
    }

    /// The TSC advances exactly with committed cycles and never runs
    /// backwards.
    #[test]
    fn tsc_equals_cycles(p in arb_processor(), mixes in prop::collection::vec(arb_mix(), 1..10)) {
        let mut m = Machine::new(p);
        let mut last = m.rdtsc();
        for mix in &mixes {
            m.execute_mix(mix, Privilege::User);
            let now = m.rdtsc();
            prop_assert!(now >= last);
            last = now;
        }
        prop_assert_eq!(m.rdtsc(), m.cycle());
    }

    /// Straight-line cycle cost is monotone in the workload: adding
    /// instructions never makes code faster.
    #[test]
    fn cycles_monotone(p in arb_processor(), mix in arb_mix(), extra in 1u64..100) {
        let u = p.uarch();
        let bigger = mix.merged(&InstMix::straight_line(extra));
        prop_assert!(straight_cycles(u, &bigger) >= straight_cycles(u, &mix));
    }

    /// Loop CPI is bounded: between 1 and 4 cycles per iteration on every
    /// modeled micro-architecture, for any placement.
    #[test]
    fn loop_cpi_bounded(p in arb_processor(), offset in 0u64..4096, stable in any::<bool>()) {
        let placement = CodePlacement::at(TEXT_BASE + offset);
        let cpi = loop_cpi(p.uarch(), placement, &InstMix::LOOP_BODY, stable);
        let v = cpi.as_f64();
        prop_assert!((1.0..=4.0).contains(&v), "cpi = {v}");
    }

    /// Chunked loop execution commutes with whole execution for
    /// instruction counts (cycle rounding differs by at most one cycle per
    /// chunk).
    #[test]
    fn loop_chunking_instruction_exact(
        iters in 1u64..100_000,
        chunk in 1u64..10_000,
    ) {
        let placement = CodePlacement::at(0x0804_9000);
        let mut whole = Machine::new(Processor::AthlonK8);
        whole.pmu_mut().program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly)).unwrap();
        let wa = whole.analyze_loop(&InstMix::LOOP_BODY, placement);
        whole.execute_loop_iters(&InstMix::LOOP_BODY, iters, &wa, Privilege::User);

        let mut chunked = Machine::new(Processor::AthlonK8);
        chunked.pmu_mut().program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly)).unwrap();
        let ca = chunked.analyze_loop(&InstMix::LOOP_BODY, placement);
        let mut left = iters;
        while left > 0 {
            let step = left.min(chunk);
            chunked.execute_loop_iters(&InstMix::LOOP_BODY, step, &ca, Privilege::User);
            left -= step;
        }
        prop_assert_eq!(
            whole.pmu().read_pmc(0).unwrap(),
            chunked.pmu().read_pmc(0).unwrap()
        );
    }

    /// Fingerprints are deterministic and placement stays inside the text
    /// segment.
    #[test]
    fn fingerprint_deterministic(parts in prop::collection::vec("[a-z]{1,8}", 1..5)) {
        let build = |parts: &[String]| {
            let mut f = BuildFingerprint::new();
            for p in parts {
                f = f.with_str(p);
            }
            f
        };
        let a = build(&parts);
        let b = build(&parts);
        prop_assert_eq!(a.hash(), b.hash());
        let addr = a.placement().base_address();
        prop_assert!(addr >= TEXT_BASE);
        prop_assert!(addr < TEXT_BASE + (1 << 20));
    }

    /// MSR event-select encode/decode round-trips for every event, mode
    /// and enable bit on every processor.
    #[test]
    fn evtsel_roundtrip(p in arb_processor(), ei in 0usize..7, enabled in any::<bool>(),
                        mi in 0usize..3) {
        let event = Event::ALL[ei];
        let mode = [CountMode::UserOnly, CountMode::KernelOnly, CountMode::UserAndKernel][mi];
        let cfg = PmcConfig { event, mode, enabled };
        let v = msr::encode_evtsel(p.uarch(), &cfg).unwrap();
        let back = msr::decode_evtsel(p.uarch(), v).unwrap().unwrap();
        prop_assert_eq!(back, cfg);
    }

    /// PMU snapshot/restore round-trips arbitrary counter values.
    #[test]
    fn pmu_snapshot_roundtrip(p in arb_processor(), values in prop::collection::vec(any::<u64>(), 18)) {
        let mut m = Machine::new(p);
        let n = m.pmu().programmable_count();
        for i in 0..n {
            m.pmu_mut().write_pmc(i, values[i % values.len()]).unwrap();
        }
        let snap = m.pmu().snapshot();
        for i in 0..n {
            m.pmu_mut().write_pmc(i, 0).unwrap();
        }
        m.pmu_mut().restore(&snap);
        for i in 0..n {
            prop_assert_eq!(m.pmu().read_pmc(i).unwrap(), values[i % values.len()]);
        }
    }

    /// CyclesPerIteration arithmetic: cycles_for is superadditive under
    /// splitting (ceil rounding can only add cycles).
    #[test]
    fn cpi_split_superadditive(num in 1u64..8, den in 1u64..4, a in 0u64..100_000, b in 0u64..100_000) {
        let cpi = CyclesPerIteration::new(num, den);
        let whole = cpi.cycles_for(a + b);
        let split = cpi.cycles_for(a) + cpi.cycles_for(b);
        prop_assert!(split >= whole);
        prop_assert!(split <= whole + 2, "rounding adds at most 1 per part");
    }

    /// Mix algebra: `repeated(n)` equals n-fold `merged`.
    #[test]
    fn mix_repeat_is_iterated_merge(mix in arb_mix(), n in 1u64..20) {
        let repeated = mix.repeated(n);
        let mut merged = InstMix::empty();
        for _ in 0..n {
            merged = merged.merged(&mix);
        }
        prop_assert_eq!(repeated, merged);
    }
}
