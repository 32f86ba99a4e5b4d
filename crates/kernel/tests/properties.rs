//! Property-based tests of the kernel model.

use counterlab_cpu::layout::CodePlacement;
use counterlab_cpu::machine::Privilege;
use counterlab_cpu::mix::InstMix;
use counterlab_cpu::pmu::{CountMode, Event, EventDelta, PmcConfig, PmuSnapshot};
use counterlab_cpu::uarch::Processor;
use counterlab_kernel::config::{IoInterrupts, KernelConfig, Preemption, SkidModel};
use counterlab_kernel::syscall::{kernel_code_mix, lib_syscall, user_code_mix};
use counterlab_kernel::system::System;
use counterlab_kernel::thread::ThreadId;
use proptest::prelude::*;

fn arb_processor() -> impl Strategy<Value = Processor> {
    prop_oneof![
        Just(Processor::PentiumD),
        Just(Processor::Core2Duo),
        Just(Processor::AthlonK8),
    ]
}

fn quiet(p: Processor, seed: u64) -> System {
    System::new(
        p,
        KernelConfig::default()
            .with_hz(0)
            .with_seed(seed)
            .with_skid(SkidModel::disabled()),
    )
}

/// The per-round reference for [`System::run_syscall_rounds`]: every
/// round's compute mix and system call executed mix by mix.
fn reference_rounds(
    sys: &mut System,
    compute: &InstMix,
    pre: &InstMix,
    post: &InstMix,
    rounds: u64,
) {
    for _ in 0..rounds {
        sys.run_user_mix(compute);
        sys.syscall(pre, |_| Ok(()), post).unwrap();
    }
}

/// The per-mix reference for [`lib_syscall`]: each budget shaped into its
/// mix and run through [`System::run_user_mix`] and [`System::syscall`].
fn reference_lib_syscall<R>(
    sys: &mut System,
    wrapper_pre: u64,
    handler_pre: u64,
    handler_post: u64,
    wrapper_post: u64,
    f: impl FnOnce(&mut counterlab_cpu::machine::Machine) -> counterlab_kernel::Result<R>,
) -> counterlab_kernel::Result<R> {
    sys.run_user_mix(&user_code_mix(wrapper_pre));
    let result = sys.syscall(
        &kernel_code_mix(handler_pre),
        f,
        &kernel_code_mix(handler_post),
    )?;
    sys.run_user_mix(&user_code_mix(wrapper_post));
    Ok(result)
}

/// The privileged work of one library call, as the kernel extensions do
/// it: read every programmed counter (which must see the handler's pre
/// half), then `action` — nothing, zero counter 0, or reprogram counter 0
/// under `mode` — and read counter 0 again.
fn capture(
    m: &mut counterlab_cpu::machine::Machine,
    action: u8,
    mode: CountMode,
) -> counterlab_kernel::Result<Vec<u64>> {
    let pmu = m.pmu_mut();
    let mut reads: Vec<u64> = (0..pmu.programmable_count())
        .map(|i| pmu.read_pmc(i).unwrap())
        .collect();
    reads.push(pmu.tsc());
    match action {
        0 => {}
        1 => pmu.write_pmc(0, 0).unwrap(),
        _ => {
            pmu.program(0, PmcConfig::counting(Event::InstructionsRetired, mode))
                .unwrap();
        }
    }
    reads.push(pmu.read_pmc(0).unwrap());
    Ok(reads)
}

/// Everything a run of syscall rounds can change, as seen from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    cycle: u64,
    tsc: u64,
    counters: PmuSnapshot,
    ticks: u64,
    syscalls: u64,
    /// Per thread: user instructions retired and the saved PMU snapshot.
    threads: Vec<(u64, Option<PmuSnapshot>)>,
}

fn observe(sys: &System) -> Observed {
    let threads = (0..sys.threads().len() as u32)
        .map(|tid| {
            let t = sys.threads().get(ThreadId(tid)).unwrap();
            (t.user_instructions(), t.saved_counters().cloned())
        })
        .collect();
    Observed {
        cycle: sys.machine().cycle(),
        tsc: sys.machine().rdtsc(),
        counters: sys.machine().pmu().snapshot(),
        ticks: sys.ticks_delivered(),
        syscalls: sys.syscall_count(),
        threads,
    }
}

/// Programs `events` onto the programmable counters and every fixed
/// counter, all filtered by `mode`.
fn program_counters(sys: &mut System, mode: CountMode, events: &[Event]) {
    let pmu = sys.machine_mut().pmu_mut();
    for (i, &event) in events.iter().enumerate() {
        pmu.program(i, PmcConfig::counting(event, mode)).unwrap();
    }
    for i in 0..pmu.fixed_count() {
        pmu.set_fixed_mode(i, Some(mode)).unwrap();
    }
}

/// Cycles of one compute + syscall round.
fn round_cycles(sys: &System, compute: &InstMix, pre: &InstMix, post: &InstMix) -> u64 {
    let conv = sys.convention();
    [
        *compute,
        *pre,
        *post,
        conv.user_entry_mix(),
        conv.kernel_entry_mix(),
        conv.kernel_exit_mix(),
        conv.user_exit_mix(),
    ]
    .iter()
    .map(|mix| sys.machine().mix_delta(mix).cycles)
    .sum()
}

/// A system booted with `cfg` whose clock has been advanced to `cycle`
/// without executing anything (no interrupt is delivered on the way).
fn booted_at(p: Processor, cfg: &KernelConfig, cycle: u64) -> System {
    let mut sys = System::new(p, cfg.clone());
    let idle = EventDelta {
        cycles: cycle,
        ..EventDelta::default()
    };
    sys.machine_mut().commit_delta(&idle, Privilege::User);
    sys
}

/// The cycle the first timer tick of a `cfg` boot is due at, found by
/// bisection: the smallest clock at which an interrupt check delivers it.
fn first_tick_cycle(p: Processor, cfg: &KernelConfig) -> u64 {
    let delivered_by = |cycle| {
        let mut sys = booted_at(p, cfg, cycle);
        sys.run_user_mix(&InstMix::empty());
        sys.ticks_delivered() > 0
    };
    let period = p.uarch().clock_hz / u64::from(cfg.hz);
    let (mut lo, mut hi) = (0u64, period);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if delivered_by(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[test]
fn zero_syscall_rounds_change_nothing() {
    for p in Processor::ALL {
        let mut sys = System::new(p, KernelConfig::default().with_hz(100_000).with_seed(3));
        program_counters(&mut sys, CountMode::UserAndKernel, &Event::ALL[..2]);
        sys.run_user_mix(&InstMix::straight_line(1_000));
        let before = observe(&sys);
        let mix = InstMix::straight_line(16);
        sys.run_syscall_rounds(&mix, &mix, &mix, 0).unwrap();
        assert_eq!(observe(&sys), before, "{p:?}");
    }
}

#[test]
fn syscall_rounds_rejected_in_kernel_mode() {
    let mut sys = quiet(Processor::AthlonK8, 1);
    sys.machine_mut().set_privilege(Privilege::Kernel);
    let mix = InstMix::straight_line(16);
    assert!(sys.run_syscall_rounds(&mix, &mix, &mix, 1).is_err());
    assert_eq!(sys.syscall_count(), 0);
}

/// A tick due exactly at the end of the last round must be delivered (the
/// `− 1` in the batch-size rule); one due a cycle later must not.
#[test]
fn tick_at_round_boundary_matches_reference() {
    let compute = InstMix::straight_line(16);
    let pre = kernel_code_mix(96);
    let post = kernel_code_mix(32);
    let rounds = 5u64;
    let mut checked = 0;
    for p in Processor::ALL {
        for seed in 0..4u64 {
            let cfg = KernelConfig::default().with_hz(1_000).with_seed(seed);
            let next = first_tick_cycle(p, &cfg);
            let rc = round_cycles(&System::new(p, cfg.clone()), &compute, &pre, &post);
            for (slack, ticks) in [(0u64, 1u64), (1, 0)] {
                let Some(start) = next.checked_sub(rounds * rc + slack) else {
                    continue;
                };
                let mut expected = booted_at(p, &cfg, start);
                let mut batched = booted_at(p, &cfg, start);
                for sys in [&mut expected, &mut batched] {
                    program_counters(sys, CountMode::UserAndKernel, &Event::ALL[..2]);
                }
                reference_rounds(&mut expected, &compute, &pre, &post, rounds);
                batched
                    .run_syscall_rounds(&compute, &pre, &post, rounds)
                    .unwrap();
                assert_eq!(
                    expected.ticks_delivered(),
                    ticks,
                    "{p:?} seed {seed} slack {slack}"
                );
                assert_eq!(
                    observe(&batched),
                    observe(&expected),
                    "{p:?} seed {seed} slack {slack}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 12, "only {checked} boundary cases ran");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched syscall rounds are exact: against the per-round reference,
    /// every counter under every count mode, the cycle clock and TSC,
    /// ticks, syscalls and per-thread state agree — with timer ticks
    /// inside most batches, Poisson I/O interrupts, preemption by a
    /// background thread, and skid perturbing the RNG stream beforehand.
    #[test]
    fn syscall_rounds_match_per_round_reference(
        p in arb_processor(),
        seed in any::<u64>(),
        hz in prop_oneof![Just(0u32), Just(250u32), Just(1_000u32), Just(100_000u32)],
        io_rate in prop_oneof![Just(None), (1_000u32..200_000).prop_map(Some)],
        preempt in any::<bool>(),
        timeslice in 1u32..4,
        skid in any::<bool>(),
        warmup_iters in 0u64..200_000,
        rounds in 0u64..2_000,
        compute in 0u64..64,
        pre in 0u64..400,
        post in 0u64..400,
    ) {
        let mut cfg = KernelConfig::default().with_seed(seed).with_hz(hz);
        cfg.skid = if skid {
            SkidModel { plus_probability: 0.3, minus_probability: 0.3, max_magnitude: 4 }
        } else {
            SkidModel::disabled()
        };
        if let Some(rate_hz) = io_rate {
            cfg = cfg.with_io(IoInterrupts { rate_hz, handler_instructions: 1_500 });
        }
        if preempt {
            cfg = cfg.with_preemption(Preemption {
                timeslice_ticks: timeslice,
                background_instructions: 20_000,
            });
        }
        let compute = user_code_mix(compute);
        let pre = kernel_code_mix(pre);
        let post = kernel_code_mix(post);
        let width = System::new(p, cfg.clone()).machine().pmu().programmable_count();
        for mode in [CountMode::UserOnly, CountMode::KernelOnly, CountMode::UserAndKernel] {
            for events in Event::ALL.chunks(width) {
                let boot = || {
                    let mut sys = System::new(p, cfg.clone());
                    if preempt {
                        sys.spawn_thread("background");
                    }
                    program_counters(&mut sys, mode, events);
                    sys.run_user_loop(&InstMix::LOOP_BODY, warmup_iters, CodePlacement::at(0x0804_9000));
                    sys
                };
                let mut expected = boot();
                reference_rounds(&mut expected, &compute, &pre, &post, rounds);
                let mut batched = boot();
                batched.run_syscall_rounds(&compute, &pre, &post, rounds).unwrap();
                prop_assert_eq!(observe(&batched), observe(&expected), "{:?} {:?}", mode, events);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The closed-form library path is exact: [`lib_syscall`] and
    /// [`System::run_user_code`], against the per-mix reference, agree on
    /// what the privileged work reads and on every counter (programmable
    /// and fixed), the cycle clock and TSC, ticks delivered, the syscall
    /// count and each thread's user instructions and saved counters —
    /// after every call of a random sequence, with budgets from empty
    /// (below the 8-instruction shaping threshold) to many timer periods,
    /// the perfctr fast-read steps in between, user and user+kernel
    /// counting, timer ticks, Poisson I/O interrupts, skid and preemption
    /// by a background thread.
    #[test]
    fn closed_form_calls_match_per_mix_reference(
        p in arb_processor(),
        seed in any::<u64>(),
        hz in prop_oneof![Just(0u32), Just(250u32), Just(1_000u32), Just(100_000u32)],
        io_rate in prop_oneof![Just(None), (1_000u32..200_000).prop_map(Some)],
        timeslice in 1u32..4,
        skid in any::<bool>(),
        user_kernel in any::<bool>(),
        warmup_iters in 0u64..200_000,
        ops in prop::collection::vec(
            (0u8..5, 0u64..3_000, 0u64..3_000, 0u64..3_000, 0u64..3_000),
            1..60,
        ),
    ) {
        let mut cfg = KernelConfig::default().with_seed(seed).with_hz(hz);
        cfg.skid = if skid {
            SkidModel { plus_probability: 0.3, minus_probability: 0.3, max_magnitude: 4 }
        } else {
            SkidModel::disabled()
        };
        if let Some(rate_hz) = io_rate {
            cfg = cfg.with_io(IoInterrupts { rate_hz, handler_instructions: 1_500 });
        }
        cfg = cfg.with_preemption(Preemption {
            timeslice_ticks: timeslice,
            background_instructions: 20_000,
        });
        let mode = if user_kernel { CountMode::UserAndKernel } else { CountMode::UserOnly };
        let width = System::new(p, cfg.clone()).machine().pmu().programmable_count();
        for events in Event::ALL.chunks(width) {
            let boot = || {
                let mut sys = System::new(p, cfg.clone());
                sys.spawn_thread("background");
                program_counters(&mut sys, mode, events);
                sys.run_user_loop(&InstMix::LOOP_BODY, warmup_iters, CodePlacement::at(0x0804_9000));
                sys
            };
            let mut expected = boot();
            let mut closed = boot();
            for (i, &(kind, a, b, c, d)) in ops.iter().enumerate() {
                match kind {
                    0 => {
                        expected.run_user_mix(&user_code_mix(a));
                        closed.run_user_code(a);
                    }
                    1 => {
                        // A budget spanning many timer periods at 100 kHz.
                        let n = a * 1_000 + b;
                        expected.run_user_mix(&user_code_mix(n));
                        closed.run_user_code(n);
                    }
                    2 => {
                        // perfctr's fast read: a prologue, then rdtsc/rdpmc steps.
                        let rdtsc = counterlab_cpu::mix::MixBuilder::new().rdtsc(1).build();
                        let rdpmc = counterlab_cpu::mix::MixBuilder::new().alu(c % 8).rdpmc(1).build();
                        expected.run_user_mix(&user_code_mix(a));
                        closed.run_user_code(a);
                        for sys in [&mut expected, &mut closed] {
                            sys.run_user_mix(&rdtsc);
                            sys.run_user_mix(&rdpmc);
                        }
                    }
                    _ => {
                        let action = (d % 3) as u8;
                        let want = reference_lib_syscall(&mut expected, a, b, c, d, |m| {
                            capture(m, action, mode)
                        })
                        .unwrap();
                        let got = lib_syscall(&mut closed, a, b, c, d, |m| capture(m, action, mode))
                            .unwrap();
                        prop_assert_eq!(got, want, "reads of op {}", i);
                    }
                }
                prop_assert_eq!(
                    observe(&closed),
                    observe(&expected),
                    "{:?} after op {}",
                    events,
                    i
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mix shapers conserve the instruction budget exactly for any size.
    #[test]
    fn code_mixes_conserve_budget(n in 0u64..1_000_000) {
        prop_assert_eq!(user_code_mix(n).total_instructions(), n);
        prop_assert_eq!(kernel_code_mix(n).total_instructions(), n);
    }

    /// Syscall attribution is exact: for any handler sizes, the user
    /// counter sees exactly the stubs and the kernel counter exactly the
    /// entry/exit paths plus the handler.
    #[test]
    fn syscall_attribution_exact(
        p in arb_processor(),
        pre in 0u64..5_000,
        post in 0u64..5_000,
        seed in any::<u64>(),
    ) {
        let mut sys = quiet(p, seed);
        sys.machine_mut().pmu_mut()
            .program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly))
            .unwrap();
        sys.machine_mut().pmu_mut()
            .program(1, PmcConfig::counting(Event::InstructionsRetired, CountMode::KernelOnly))
            .unwrap();
        let conv = sys.convention();
        sys.syscall(&kernel_code_mix(pre), |_| Ok(()), &kernel_code_mix(post)).unwrap();
        prop_assert_eq!(sys.machine().pmu().read_pmc(0).unwrap(), conv.total_user());
        prop_assert_eq!(
            sys.machine().pmu().read_pmc(1).unwrap(),
            conv.total_kernel() + pre + post
        );
    }

    /// With the timer off and skid disabled, user loops count exactly for
    /// any size and placement.
    #[test]
    fn quiet_loops_exact(
        p in arb_processor(),
        iters in 1u64..3_000_000,
        offset in 0u64..65_536,
        seed in any::<u64>(),
    ) {
        let mut sys = quiet(p, seed);
        sys.machine_mut().pmu_mut()
            .program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel))
            .unwrap();
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            iters,
            CodePlacement::at(0x0804_8000 + offset),
        );
        prop_assert_eq!(sys.machine().pmu().read_pmc(0).unwrap(), 3 * iters);
    }

    /// With the timer on, the kernel-mode count equals (handler sizes
    /// summed), i.e. every counted kernel instruction is accounted to an
    /// interrupt — nothing appears from nowhere.
    #[test]
    fn tick_accounting_conserved(iters in 1_000_000u64..50_000_000, seed in any::<u64>()) {
        let mut sys = System::new(
            Processor::Core2Duo,
            KernelConfig::default().with_seed(seed).with_skid(SkidModel::disabled()),
        );
        sys.machine_mut().pmu_mut()
            .program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::KernelOnly))
            .unwrap();
        sys.run_user_loop(&InstMix::LOOP_BODY, iters, CodePlacement::at(0x0804_9000));
        let kernel = sys.machine().pmu().read_pmc(0).unwrap();
        let ticks = sys.ticks_delivered();
        if ticks == 0 {
            prop_assert_eq!(kernel, 0);
        } else {
            // Each tick handler is base ± jitter (CD base 8000, jitter ≤ 1000).
            prop_assert!(kernel >= ticks * 8_000, "kernel {kernel} ticks {ticks}");
            prop_assert!(kernel <= ticks * 9_100, "kernel {kernel} ticks {ticks}");
        }
    }

    /// Thread counter isolation holds for arbitrary interleavings.
    #[test]
    fn thread_isolation(
        work in prop::collection::vec((0usize..3, 1u64..10_000), 1..20),
        seed in any::<u64>(),
    ) {
        use counterlab_kernel::thread::ThreadId;
        let mut sys = quiet(Processor::AthlonK8, seed);
        sys.machine_mut().pmu_mut()
            .program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly))
            .unwrap();
        sys.spawn_thread("t1");
        sys.spawn_thread("t2");
        let mut expected = [0u64; 3];
        for &(tid, n) in &work {
            sys.switch_thread(ThreadId(tid as u32)).unwrap();
            sys.run_user_mix(&InstMix::straight_line(n));
            expected[tid] += n;
        }
        for tid in 0..3u32 {
            sys.switch_thread(ThreadId(tid)).unwrap();
            prop_assert_eq!(
                sys.machine().pmu().read_pmc(0).unwrap(),
                expected[tid as usize],
                "thread {}", tid
            );
        }
    }

    /// Identical seeds give identical systems: full determinism.
    #[test]
    fn system_determinism(iters in 1u64..10_000_000, seed in any::<u64>()) {
        let run = || {
            let mut sys = System::new(Processor::PentiumD, KernelConfig::default().with_seed(seed));
            sys.machine_mut().pmu_mut()
                .program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserAndKernel))
                .unwrap();
            sys.run_user_loop(&InstMix::LOOP_BODY, iters, CodePlacement::at(0x0804_9000));
            (sys.machine().pmu().read_pmc(0).unwrap(), sys.machine().cycle(), sys.ticks_delivered())
        };
        prop_assert_eq!(run(), run());
    }
}
