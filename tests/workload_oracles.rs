//! Oracle conformance: the workload zoo's per-event true-count tables
//! ([`Benchmark::expected_counts`] / [`Benchmark::expected_kernel_counts`])
//! are *exact*, not approximate.
//!
//! Under a quiet configuration (timer off, skid disabled) a bare
//! hardware counter programmed around a benchmark run must read exactly
//! the oracle's `Some(n)` — in user mode and in kernel mode, for every
//! zoo variant, for arbitrary iteration counts and kernel seeds, and
//! identically at any worker count. Every accuracy experiment measures
//! *error relative to these counts*, so any drift here silently corrupts
//! every downstream figure.

use counterlab::benchmark::Benchmark;
use counterlab::prelude::*;
use counterlab_cpu::layout::CodePlacement;
use counterlab_cpu::pmu::{CountMode, Event, PmcConfig};
use counterlab::kernel::config::{KernelConfig, SkidModel};
use counterlab::kernel::system::System;
use proptest::prelude::*;

/// A quiet system: no timer interrupts, no counter-read skid — the
/// measured count is the architectural truth.
fn quiet_sys(processor: Processor, seed: u64) -> System {
    System::new(
        processor,
        KernelConfig::default()
            .with_hz(0)
            .with_skid(SkidModel::disabled())
            .with_seed(seed),
    )
}

/// Programs a bare counter, runs the benchmark, reads the count.
fn count(processor: Processor, seed: u64, bench: Benchmark, event: Event, mode: CountMode) -> u64 {
    let mut sys = quiet_sys(processor, seed);
    sys.machine_mut()
        .pmu_mut()
        .program(0, PmcConfig::counting(event, mode))
        .expect("counter 0 programs");
    bench.run(&mut sys, CodePlacement::at(0x0804_9000));
    sys.machine().pmu().read_pmc(0).expect("counter 0 reads")
}

/// Every `Some(n)` in the user-mode oracle table is measured exactly,
/// for every zoo variant and every event, on every modeled processor.
#[test]
fn user_oracles_exact_for_every_variant_and_event() {
    for processor in Processor::ALL {
        for bench in Benchmark::zoo(1000) {
            let mut verified = 0;
            for event in Event::ALL {
                let Some(expected) = bench.expected_counts(event) else {
                    continue;
                };
                let measured = count(processor, 0xACE, bench, event, CountMode::UserOnly);
                assert_eq!(
                    measured, expected,
                    "{processor:?}/{bench}/{event:?} (user)"
                );
                verified += 1;
            }
            // The acceptance bar: at least two event classes per kernel
            // have an exact, verified closed form.
            assert!(verified >= 2, "{bench}: only {verified} oracle events");
        }
    }
}

/// The kernel-mode oracle table is exact too: zero for the user-only
/// kernels, the syscall convention's closed form for `syscallheavy`.
#[test]
fn kernel_oracles_exact_for_every_variant_and_event() {
    for processor in Processor::ALL {
        for bench in Benchmark::zoo(1000) {
            for event in Event::ALL {
                let Some(expected) = bench.expected_kernel_counts(event) else {
                    continue;
                };
                let measured = count(processor, 0xACE, bench, event, CountMode::KernelOnly);
                assert_eq!(
                    measured, expected,
                    "{processor:?}/{bench}/{event:?} (kernel)"
                );
            }
        }
    }
}

/// User + kernel oracles compose: a counter in `UserAndKernel` mode
/// reads exactly their sum whenever both sides have a closed form.
#[test]
fn combined_mode_counts_the_sum_of_both_oracles() {
    for bench in Benchmark::zoo(512) {
        for event in [Event::InstructionsRetired, Event::BranchesRetired] {
            let (Some(user), Some(kernel)) = (
                bench.expected_counts(event),
                bench.expected_kernel_counts(event),
            ) else {
                continue;
            };
            let measured = count(
                Processor::AthlonK8,
                7,
                bench,
                event,
                CountMode::UserAndKernel,
            );
            assert_eq!(measured, user + kernel, "{bench}/{event:?}");
        }
    }
}

/// The oracle suite passes identically at jobs 1, 2 and 4: the measured
/// count vector over the whole (variant × event) space is the same for
/// any worker count.
#[test]
fn oracle_sweep_is_jobs_invariant() {
    let work: Vec<(Benchmark, Event)> = Benchmark::zoo(700)
        .into_iter()
        .flat_map(|b| Event::ALL.into_iter().map(move |e| (b, e)))
        .collect();
    // Each of `jobs` scoped threads counts one contiguous share of the
    // work; the shares are joined back in order.
    let sweep = |jobs: usize| {
        let share = work.len().div_ceil(jobs);
        std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .chunks(share)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&(bench, event)| {
                                let mode = CountMode::UserOnly;
                                (
                                    count(Processor::Core2Duo, 0xD1CE, bench, event, mode),
                                    bench.expected_counts(event),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep runs"))
                .collect::<Vec<_>>()
        })
    };
    let baseline = sweep(1);
    for (i, &(measured, oracle)) in baseline.iter().enumerate() {
        if let Some(expected) = oracle {
            let (bench, event) = work[i];
            assert_eq!(measured, expected, "{bench}/{event:?}");
        }
    }
    assert_eq!(sweep(2), baseline);
    assert_eq!(sweep(4), baseline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The oracles hold for arbitrary iteration counts and arbitrary
    /// kernel seeds — closed forms, not fitted constants, and the seed
    /// (which only perturbs the measurement infrastructure) never leaks
    /// into a bare count.
    #[test]
    fn oracles_exact_for_any_size_and_seed(
        iters in 0u64..5_000,
        seed in any::<u64>(),
    ) {
        for bench in [
            Benchmark::Loop { iters },
            Benchmark::ArrayWalk { iters },
            Benchmark::PointerChase { iters },
            Benchmark::Branchy { iters },
            Benchmark::StoreStream { iters },
            Benchmark::SyscallHeavy { iters: iters % 257 },
            Benchmark::NestedLoop { iters: iters % 509 },
        ] {
            for event in Event::ALL {
                if let Some(expected) = bench.expected_counts(event) {
                    prop_assert_eq!(
                        count(Processor::AthlonK8, seed, bench, event, CountMode::UserOnly),
                        expected,
                        "{}/{:?} (user)", bench, event
                    );
                }
                if let Some(expected) = bench.expected_kernel_counts(event) {
                    prop_assert_eq!(
                        count(Processor::AthlonK8, seed, bench, event, CountMode::KernelOnly),
                        expected,
                        "{}/{:?} (kernel)", bench, event
                    );
                }
            }
        }
    }
}
