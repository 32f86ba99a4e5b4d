//! The micro-benchmark zoo: workloads with statically known event counts.
//!
//! The paper's ground truth comes from benchmarks whose true event counts
//! are statically known:
//!
//! * the **null benchmark** — an empty block, exactly 0 instructions: any
//!   non-zero measurement is error;
//! * the **loop benchmark** (Figure 3) — gcc inline assembly of
//!   `movl $0,%eax; .loop: addl $1,%eax; cmpl $MAX,%eax; jne .loop`,
//!   exactly `1 + 3·MAX` instructions.
//!
//! We extend the set into a workload zoo, in the spirit of Korn et al.'s
//! array-walk: every kernel below carries a closed-form **per-event**
//! oracle ([`Benchmark::expected_counts`]), so accuracy claims about any
//! counter stay testable, not asserted. With `i` iterations, the
//! user-mode oracles are:
//!
//! | benchmark | instructions | branches | d-cache misses | i-TLB misses |
//! |---|---|---|---|---|
//! | `null` | 0 | 0 | 0 | 0 |
//! | `loop` | 1 + 3i | i | 0 | 1 |
//! | `arraywalk` | 1 + 4i | i | i/16 | 1 |
//! | `pointerchase` | 1 + 3i | i | i | 1 |
//! | `branchy` | 1 + 10i | 8i | 0 | 1 |
//! | `storestream` | 1 + 4i | i | i/16 | 1 |
//! | `syscallheavy` | 36i | 2i | 0 | 0 |
//! | `nestedloop` | 25 + 24i | 8 + 8i | 0 | 2 |
//!
//! (`i/16` is the sequential-walk line period: 64-byte lines, 4-byte
//! elements. `syscallheavy`'s user count is `16 + total_user()` per
//! iteration and its **kernel**-mode oracle is `(85+96+32+70)i = 283i`
//! instructions and `4i` branches — see
//! [`Benchmark::expected_kernel_counts`].) Cycle counts and
//! misprediction/i-cache counts of the looping kernels depend on code
//! placement and micro-architecture, so their oracle is `None`; the null
//! benchmark, which executes nothing, is 0 for every event.

use counterlab_cpu::layout::CodePlacement;
use counterlab_cpu::mix::{InstMix, MixBuilder};
use counterlab_cpu::pmu::Event;
use counterlab_kernel::syscall::SyscallConvention;
use counterlab_kernel::system::System;

/// A micro-benchmark with statically known event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// The empty benchmark: zero instructions (§3.4).
    Null,
    /// The loop benchmark of Figure 3 with `iters` iterations:
    /// `1 + 3·iters` instructions.
    Loop {
        /// Number of loop iterations (the `MAX` macro).
        iters: u64,
    },
    /// An array-walking loop (extension, after Korn et al.): per iteration
    /// one load is added to the Figure 3 body, `1 + 4·iters` instructions.
    ArrayWalk {
        /// Number of loop iterations.
        iters: u64,
    },
    /// A pointer chase: the Figure 3 loop with the add replaced by a
    /// dependent load whose address is the previous load's data. Every
    /// load walks to a fresh line, so the true d-cache miss count is
    /// exactly `iters`.
    PointerChase {
        /// Number of chase steps.
        iters: u64,
    },
    /// A branch-dense loop: eight conditional branches per iteration whose
    /// taken/not-taken schedule is derived from a fixed seed
    /// ([`Benchmark::BRANCHY_SEED`]) — seeded, but statically countable:
    /// the retired-branch count is `8·iters` for any schedule.
    Branchy {
        /// Number of loop iterations.
        iters: u64,
    },
    /// A streaming-store loop: per iteration one store walks sequentially
    /// through an output array, missing once per 16-element cache line.
    StoreStream {
        /// Number of loop iterations.
        iters: u64,
    },
    /// A syscall-heavy workload: per iteration a short user-mode compute
    /// block and one no-op system call. The kernel-instruction count per
    /// round trip is fixed by [`SyscallConvention`] plus the handler
    /// budget, so both the user and the kernel oracles are closed-form.
    ///
    /// It runs through [`System::run_syscall_rounds`]: every round between
    /// two interrupts commits the same user and kernel deltas, so the
    /// rounds that fit before the next interrupt is due are committed as
    /// one scaled delta per privilege level, and only the round an
    /// interrupt falls in is executed mix by mix. Counter commits are
    /// linear and each mix's cost is fixed, so this is exact, not an
    /// approximation: every counter, cycle and tick matches the per-round
    /// execution.
    SyscallHeavy {
        /// Number of user-compute + syscall rounds.
        iters: u64,
    },
    /// A nested loop: [`Benchmark::NESTED_OUTER`] outer rounds each
    /// re-entering the Figure 3 inner loop, with the inner code placed on
    /// two alternating pages — the touched-set stress for the BTB,
    /// i-cache and i-TLB paths (true i-TLB miss count: exactly 2).
    NestedLoop {
        /// Inner-loop iterations per outer round.
        iters: u64,
    },
}

impl Benchmark {
    /// The fixed seed of the `branchy` taken/not-taken schedule. The
    /// schedule is `splitmix64(BRANCHY_SEED) & 0xFF` read as 8 taken
    /// bits — derived, documented, and pinned by a unit test.
    pub const BRANCHY_SEED: u64 = 0x00B7_A2C4;

    /// Outer rounds of the nested-loop kernel.
    pub const NESTED_OUTER: u64 = 8;

    /// User-mode compute instructions per `syscallheavy` iteration.
    pub const SYSCALL_USER_COMPUTE: u64 = 16;
    /// Kernel handler instructions before the no-op work, per syscall.
    pub const SYSCALL_HANDLER_PRE: u64 = 96;
    /// Kernel handler instructions after the no-op work, per syscall.
    pub const SYSCALL_HANDLER_POST: u64 = 32;

    /// Every variant at a small fixed size, in canonical order — the zoo
    /// roster experiments and conformance suites iterate.
    pub fn zoo(iters: u64) -> [Benchmark; 8] {
        [
            Benchmark::Null,
            Benchmark::Loop { iters },
            Benchmark::ArrayWalk { iters },
            Benchmark::PointerChase { iters },
            Benchmark::Branchy { iters },
            Benchmark::StoreStream { iters },
            Benchmark::SyscallHeavy { iters: iters / 8 },
            Benchmark::NestedLoop { iters: iters / 8 },
        ]
    }

    /// The number of taken branches (of 8) in the `branchy` body's
    /// steady-state schedule.
    pub fn branchy_taken() -> u64 {
        u64::from((counterlab_cpu::hash::splitmix64(Self::BRANCHY_SEED) & 0xFF).count_ones())
    }

    /// Short stable name (used in build fingerprints, wire cell identity
    /// and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Null => "null",
            Benchmark::Loop { .. } => "loop",
            Benchmark::ArrayWalk { .. } => "arraywalk",
            Benchmark::PointerChase { .. } => "pointerchase",
            Benchmark::Branchy { .. } => "branchy",
            Benchmark::StoreStream { .. } => "storestream",
            Benchmark::SyscallHeavy { .. } => "syscallheavy",
            Benchmark::NestedLoop { .. } => "nestedloop",
        }
    }

    /// The exact number of user-mode instructions this benchmark retires —
    /// the paper's analytical model (`ie = 1 + 3l` for the loop),
    /// extended to the zoo (see the module-level oracle table).
    pub fn expected_instructions(&self) -> u64 {
        self.expected_counts(Event::InstructionsRetired)
            .expect("every benchmark has a closed-form instruction count")
    }

    /// The statically known **user-mode** count of `event`, or `None`
    /// when the true count depends on code placement or the
    /// micro-architecture (cycles everywhere but `null`; mispredictions
    /// and i-cache misses of the looping kernels).
    ///
    /// `Some(n)` is exact: under a quiet configuration (timer off, skid
    /// disabled) a user-mode counter measures exactly `n` — the oracle
    /// conformance suite (`tests/workload_oracles.rs`) pins this for
    /// every variant.
    pub fn expected_counts(&self, event: Event) -> Option<u64> {
        use Event::*;
        match *self {
            // Nothing executes: every count, including cycles, is 0.
            Benchmark::Null => Some(0),
            Benchmark::Loop { iters } => match event {
                InstructionsRetired => Some(1 + 3 * iters),
                BranchesRetired => Some(iters),
                DCacheMisses => Some(0),
                ItlbMisses => Some(1),
                CoreCycles | BranchMispredictions | ICacheMisses => None,
            },
            Benchmark::ArrayWalk { iters } | Benchmark::StoreStream { iters } => match event {
                InstructionsRetired => Some(1 + 4 * iters),
                BranchesRetired => Some(iters),
                DCacheMisses => {
                    Some(iters / counterlab_cpu::machine::Machine::SEQUENTIAL_WALK_MISS_PERIOD)
                }
                ItlbMisses => Some(1),
                CoreCycles | BranchMispredictions | ICacheMisses => None,
            },
            Benchmark::PointerChase { iters } => match event {
                InstructionsRetired => Some(1 + 3 * iters),
                BranchesRetired => Some(iters),
                DCacheMisses => Some(iters),
                ItlbMisses => Some(1),
                CoreCycles | BranchMispredictions | ICacheMisses => None,
            },
            Benchmark::Branchy { iters } => match event {
                InstructionsRetired => Some(1 + 10 * iters),
                BranchesRetired => Some(8 * iters),
                DCacheMisses => Some(0),
                ItlbMisses => Some(1),
                CoreCycles | BranchMispredictions | ICacheMisses => None,
            },
            Benchmark::SyscallHeavy { iters } => {
                let conv = SyscallConvention::default();
                match event {
                    InstructionsRetired => {
                        Some((Self::SYSCALL_USER_COMPUTE + conv.total_user()) * iters)
                    }
                    // One taken branch in the entry stub, one not-taken in
                    // the exit stub, per round trip.
                    BranchesRetired => Some(2 * iters),
                    // Straight-line code: no loop warm-up, no walks, and
                    // too few stub loads to cross the pollution period
                    // within one retired mix.
                    BranchMispredictions | ICacheMisses | DCacheMisses | ItlbMisses => Some(0),
                    CoreCycles => None,
                }
            }
            Benchmark::NestedLoop { iters } => match event {
                InstructionsRetired => {
                    Some(1 + Self::NESTED_OUTER * (3 + 3 * iters))
                }
                BranchesRetired => Some(Self::NESTED_OUTER * (1 + iters)),
                DCacheMisses => Some(0),
                // Two code pages, each walked once; both stay resident in
                // every modeled i-TLB (capacities ≥ 32 entries).
                ItlbMisses => Some(2),
                CoreCycles | BranchMispredictions | ICacheMisses => None,
            },
        }
    }

    /// The statically known **kernel-mode** count of `event`.
    ///
    /// Every benchmark but `syscallheavy` runs entirely in user mode, so
    /// its kernel oracle is `Some(0)` for all events; `syscallheavy`
    /// retires `kernel_entry + handler + kernel_exit` instructions per
    /// round trip inside the kernel.
    pub fn expected_kernel_counts(&self, event: Event) -> Option<u64> {
        use Event::*;
        match *self {
            Benchmark::SyscallHeavy { iters } => {
                let conv = SyscallConvention::default();
                match event {
                    InstructionsRetired => Some(
                        (conv.total_kernel()
                            + Self::SYSCALL_HANDLER_PRE
                            + Self::SYSCALL_HANDLER_POST)
                            * iters,
                    ),
                    // Two branches in the kernel entry mix, two in the exit
                    // mix, per round trip.
                    BranchesRetired => Some(4 * iters),
                    // The entry/exit mixes carry 4 and 6 loads: both below
                    // the straight-line miss period per retired mix.
                    BranchMispredictions | ICacheMisses | DCacheMisses | ItlbMisses => Some(0),
                    CoreCycles => None,
                }
            }
            _ => Some(0),
        }
    }

    /// The loop iteration count (0 for the null benchmark).
    pub fn iterations(&self) -> u64 {
        match self {
            Benchmark::Null => 0,
            Benchmark::Loop { iters }
            | Benchmark::ArrayWalk { iters }
            | Benchmark::PointerChase { iters }
            | Benchmark::Branchy { iters }
            | Benchmark::StoreStream { iters }
            | Benchmark::SyscallHeavy { iters }
            | Benchmark::NestedLoop { iters } => *iters,
        }
    }

    /// The (inner) loop body mix (`None` for the benchmarks without a
    /// steady-state loop: `null` and `syscallheavy`).
    pub fn body(&self) -> Option<InstMix> {
        match self {
            Benchmark::Null | Benchmark::SyscallHeavy { .. } => None,
            Benchmark::Loop { .. } | Benchmark::NestedLoop { .. } => Some(InstMix::LOOP_BODY),
            Benchmark::ArrayWalk { .. } => {
                Some(MixBuilder::new().alu(2).loads(1).branches(1, 1).build())
            }
            Benchmark::PointerChase { .. } => {
                Some(MixBuilder::new().alu(1).chase_loads(1).branches(1, 1).build())
            }
            Benchmark::Branchy { .. } => {
                Some(MixBuilder::new().alu(2).branches(8, Self::branchy_taken()).build())
            }
            Benchmark::StoreStream { .. } => {
                Some(MixBuilder::new().alu(2).stores(1).branches(1, 1).build())
            }
        }
    }

    /// Executes the benchmark in user mode at the given code placement.
    /// The null benchmark executes nothing at all.
    pub fn run(&self, sys: &mut System, placement: CodePlacement) {
        match self {
            Benchmark::Null => {}
            Benchmark::Loop { iters }
            | Benchmark::ArrayWalk { iters }
            | Benchmark::PointerChase { iters }
            | Benchmark::Branchy { iters }
            | Benchmark::StoreStream { iters } => {
                sys.run_user_mix(&InstMix::LOOP_PROLOGUE);
                let body = self.body().expect("loop benchmarks have a body");
                sys.run_user_loop(&body, *iters, placement);
            }
            Benchmark::SyscallHeavy { iters } => {
                let compute = InstMix::straight_line(Self::SYSCALL_USER_COMPUTE);
                let pre = InstMix::straight_line(Self::SYSCALL_HANDLER_PRE);
                let post = InstMix::straight_line(Self::SYSCALL_HANDLER_POST);
                sys.run_syscall_rounds(&compute, &pre, &post, *iters)
                    .expect("a user-mode benchmark cannot nest syscalls");
            }
            Benchmark::NestedLoop { iters } => {
                sys.run_user_mix(&InstMix::LOOP_PROLOGUE);
                let head = MixBuilder::new().alu(2).branches(1, 1).build();
                let body = InstMix::LOOP_BODY;
                let base = placement.base_address();
                for round in 0..Self::NESTED_OUTER {
                    sys.run_user_mix(&head);
                    // Alternate the inner loop between two code pages
                    // (base + 4096 is always on the next page).
                    let page = CodePlacement::at(base + (round % 2) * 4096);
                    sys.run_user_loop(&body, *iters, page);
                }
            }
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Benchmark::Null => write!(f, "null"),
            _ => write!(f, "{}({})", self.name(), self.iterations()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterlab_cpu::pmu::{CountMode, PmcConfig};
    use counterlab_cpu::uarch::Processor;
    use counterlab_kernel::config::{KernelConfig, SkidModel};

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that `Benchmark::zoo` includes it.
    #[test]
    fn zoo_lists_every_variant() {
        let zoo = Benchmark::zoo(64);
        let in_zoo = |b: Benchmark| {
            let d = std::mem::discriminant(&b);
            zoo.iter().any(|z| std::mem::discriminant(z) == d)
        };
        for b in [
            Benchmark::Null,
            Benchmark::Loop { iters: 1 },
            Benchmark::ArrayWalk { iters: 1 },
            Benchmark::PointerChase { iters: 1 },
            Benchmark::Branchy { iters: 1 },
            Benchmark::StoreStream { iters: 1 },
            Benchmark::SyscallHeavy { iters: 1 },
            Benchmark::NestedLoop { iters: 1 },
        ] {
            match b {
                Benchmark::Null => assert!(in_zoo(b)),
                Benchmark::Loop { .. } => assert!(in_zoo(b)),
                Benchmark::ArrayWalk { .. } => assert!(in_zoo(b)),
                Benchmark::PointerChase { .. } => assert!(in_zoo(b)),
                Benchmark::Branchy { .. } => assert!(in_zoo(b)),
                Benchmark::StoreStream { .. } => assert!(in_zoo(b)),
                Benchmark::SyscallHeavy { .. } => assert!(in_zoo(b)),
                Benchmark::NestedLoop { .. } => assert!(in_zoo(b)),
            }
        }
    }

    fn quiet_sys() -> System {
        System::new(
            Processor::AthlonK8,
            KernelConfig::default()
                .with_hz(0)
                .with_skid(SkidModel::disabled()),
        )
    }

    #[test]
    fn expected_counts_match_paper_model() {
        assert_eq!(Benchmark::Null.expected_instructions(), 0);
        assert_eq!(Benchmark::Loop { iters: 0 }.expected_instructions(), 1);
        assert_eq!(
            Benchmark::Loop { iters: 1000 }.expected_instructions(),
            3001
        );
        assert_eq!(
            Benchmark::Loop { iters: 1_000_000 }.expected_instructions(),
            3_000_001
        );
    }

    #[test]
    fn zoo_oracle_table_is_the_module_doc() {
        // The closed forms of the module-level table, spelled out.
        use Event::*;
        let i = 1000u64;
        let cases: [(Benchmark, [Option<u64>; 4]); 8] = [
            (Benchmark::Null, [Some(0), Some(0), Some(0), Some(0)]),
            (
                Benchmark::Loop { iters: i },
                [Some(3001), Some(i), Some(0), Some(1)],
            ),
            (
                Benchmark::ArrayWalk { iters: i },
                [Some(4001), Some(i), Some(62), Some(1)],
            ),
            (
                Benchmark::PointerChase { iters: i },
                [Some(3001), Some(i), Some(i), Some(1)],
            ),
            (
                Benchmark::Branchy { iters: i },
                [Some(10_001), Some(8 * i), Some(0), Some(1)],
            ),
            (
                Benchmark::StoreStream { iters: i },
                [Some(4001), Some(i), Some(62), Some(1)],
            ),
            (
                Benchmark::SyscallHeavy { iters: i },
                [Some(36 * i), Some(2 * i), Some(0), Some(0)],
            ),
            (
                Benchmark::NestedLoop { iters: i },
                [Some(25 + 24 * i), Some(8 + 8 * i), Some(0), Some(2)],
            ),
        ];
        for (bench, [instr, branches, dcache, itlb]) in cases {
            assert_eq!(bench.expected_counts(InstructionsRetired), instr, "{bench}");
            assert_eq!(bench.expected_counts(BranchesRetired), branches, "{bench}");
            assert_eq!(bench.expected_counts(DCacheMisses), dcache, "{bench}");
            assert_eq!(bench.expected_counts(ItlbMisses), itlb, "{bench}");
        }
        // Kernel-side: only syscallheavy retires anything in the kernel.
        let sh = Benchmark::SyscallHeavy { iters: i };
        assert_eq!(
            sh.expected_kernel_counts(InstructionsRetired),
            Some(283 * i)
        );
        assert_eq!(sh.expected_kernel_counts(BranchesRetired), Some(4 * i));
        assert_eq!(sh.expected_kernel_counts(CoreCycles), None);
        for bench in Benchmark::zoo(1000) {
            if bench.name() != "syscallheavy" {
                for event in Event::ALL {
                    assert_eq!(bench.expected_kernel_counts(event), Some(0), "{bench}");
                }
            }
        }
    }

    #[test]
    fn branchy_schedule_is_pinned() {
        // The seeded schedule is a pure derivation: pin it so the
        // benchmark's timing behavior can never drift silently.
        assert_eq!(
            Benchmark::branchy_taken(),
            u64::from(
                (counterlab_cpu::hash::splitmix64(Benchmark::BRANCHY_SEED) & 0xFF).count_ones()
            )
        );
        assert!(Benchmark::branchy_taken() <= 8);
        let body = Benchmark::Branchy { iters: 1 }.body().unwrap();
        assert_eq!(body.branches, 8);
        assert_eq!(body.taken_branches, Benchmark::branchy_taken());
    }

    #[test]
    fn run_retires_exactly_expected_user_instructions() {
        let mut zoo = Benchmark::zoo(1000).to_vec();
        zoo.extend([Benchmark::Loop { iters: 12345 }, Benchmark::Null]);
        for bench in zoo {
            let mut sys = quiet_sys();
            sys.machine_mut()
                .pmu_mut()
                .program(
                    0,
                    PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly),
                )
                .unwrap();
            bench.run(&mut sys, CodePlacement::at(0x0804_9000));
            assert_eq!(
                sys.machine().pmu().read_pmc(0).unwrap(),
                bench.expected_instructions(),
                "{bench}"
            );
        }
    }

    #[test]
    fn null_benchmark_touches_nothing() {
        let mut sys = quiet_sys();
        let c0 = sys.machine().cycle();
        Benchmark::Null.run(&mut sys, CodePlacement::at(0x0804_9000));
        assert_eq!(sys.machine().cycle(), c0);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Benchmark::Null.name(), "null");
        assert_eq!(Benchmark::Loop { iters: 5 }.to_string(), "loop(5)");
        assert_eq!(Benchmark::ArrayWalk { iters: 2 }.name(), "arraywalk");
        assert_eq!(
            Benchmark::PointerChase { iters: 7 }.to_string(),
            "pointerchase(7)"
        );
        assert_eq!(Benchmark::Branchy { iters: 1 }.name(), "branchy");
        assert_eq!(
            Benchmark::StoreStream { iters: 3 }.to_string(),
            "storestream(3)"
        );
        assert_eq!(
            Benchmark::SyscallHeavy { iters: 4 }.to_string(),
            "syscallheavy(4)"
        );
        assert_eq!(Benchmark::NestedLoop { iters: 9 }.name(), "nestedloop");
        // Names are unique across the zoo (they key wire cell identity).
        let names: std::collections::BTreeSet<&str> =
            Benchmark::zoo(8).iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn bodies() {
        assert!(Benchmark::Null.body().is_none());
        assert!(Benchmark::SyscallHeavy { iters: 1 }.body().is_none());
        assert_eq!(
            Benchmark::Loop { iters: 1 }
                .body()
                .unwrap()
                .total_instructions(),
            3
        );
        assert_eq!(
            Benchmark::ArrayWalk { iters: 1 }
                .body()
                .unwrap()
                .total_instructions(),
            4
        );
        assert_eq!(
            Benchmark::PointerChase { iters: 1 }
                .body()
                .unwrap()
                .chase_loads,
            1
        );
        assert_eq!(
            Benchmark::StoreStream { iters: 1 }.body().unwrap().stores,
            1
        );
        assert_eq!(
            Benchmark::Branchy { iters: 1 }
                .body()
                .unwrap()
                .total_instructions(),
            10
        );
        assert_eq!(
            Benchmark::NestedLoop { iters: 1 }.body().unwrap(),
            InstMix::LOOP_BODY
        );
    }
}
