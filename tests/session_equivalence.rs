//! The session-reuse equivalence suite: the measurement-session engine
//! (boot once per cell, reseed per repetition) must be **bit-identical**
//! to the fresh-boot oracle (one simulated stack per run) — same
//! `Record`s, byte-identical CSV — over random grids, seeds, patterns,
//! benchmarks and worker counts.
//!
//! This is the contract that makes the session path safe to use as the
//! default engine: `Grid::fresh_boot = true` selects the historical path,
//! and everything here asserts the two are indistinguishable except for
//! speed.

use counterlab::benchmark::Benchmark;
use counterlab::config::{MeasurementConfig, OptLevel};
use counterlab::exec::RunOptions;
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};
use counterlab::measure::{run_measurement, MeasurementSession};
use counterlab::pattern::Pattern;
use counterlab::prelude::*;
use counterlab_cpu::pmu::Event;
use proptest::prelude::*;

fn arb_processor() -> impl Strategy<Value = Processor> {
    prop_oneof![
        Just(Processor::PentiumD),
        Just(Processor::Core2Duo),
        Just(Processor::AthlonK8),
    ]
}

/// A non-empty subset of `all`, selected by bitmask (the shim has no
/// subsequence strategy).
fn masked_subset<T: Copy>(all: &[T], mask: u32) -> Vec<T> {
    let picked: Vec<T> = all
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, x)| x)
        .collect();
    if picked.is_empty() {
        vec![all[0]]
    } else {
        picked
    }
}

fn arb_interfaces() -> impl Strategy<Value = Vec<Interface>> {
    (0u32..64).prop_map(|mask| masked_subset(&Interface::ALL, mask))
}

fn arb_patterns() -> impl Strategy<Value = Vec<Pattern>> {
    (0u32..16).prop_map(|mask| masked_subset(&Pattern::ALL, mask))
}

fn arb_benchmark() -> impl Strategy<Value = Benchmark> {
    prop_oneof![
        Just(Benchmark::Null),
        (1u64..50_000).prop_map(|iters| Benchmark::Loop { iters }),
        (1u64..20_000).prop_map(|iters| Benchmark::ArrayWalk { iters }),
        (1u64..10_000).prop_map(|iters| Benchmark::PointerChase { iters }),
        (1u64..10_000).prop_map(|iters| Benchmark::Branchy { iters }),
        (1u64..20_000).prop_map(|iters| Benchmark::StoreStream { iters }),
        (1u64..500).prop_map(|iters| Benchmark::SyscallHeavy { iters }),
        (1u64..2_000).prop_map(|iters| Benchmark::NestedLoop { iters }),
    ]
}

/// An arbitrary cell, valid or not, on stack `home + offset` of the 18
/// processor × interface stacks — the offset is 0 for most cells, so a
/// chain of cells mostly re-targets one stack and now and then moves to
/// another. Everything else is arbitrary: pattern (read-first patterns are
/// unsupported on PAPI high level), build optimization level, counting
/// mode, event, counter count (0 and counts beyond the processor's
/// registers are invalid), TSC setting, timer frequency, zoo benchmark
/// (short, or long enough for timer ticks to land) and boot seed (often a
/// shared one, so a session handed on unrun meets a cell armed for the
/// same seed).
fn arb_cell() -> impl Strategy<Value = (usize, MeasurementConfig, Benchmark)> {
    (
        prop_oneof![Just(0usize), Just(0usize), Just(0usize), 0usize..18],
        (0usize..4, 0usize..4, 0usize..3, 0usize..Event::ALL.len()),
        prop_oneof![1usize..=4, 1usize..=4, 0usize..=5],
        any::<bool>(),
        prop_oneof![Just(0u32), Just(250u32), Just(1000u32)],
        (0usize..8, prop_oneof![1u64..3_000, 1_000_000u64..8_000_000]),
        prop_oneof![Just(7u64), any::<u64>()],
    )
        .prop_map(
            |(offset, (pat, opt, mode, event), counters, tsc_on, hz, (b, iters), seed)| {
                let cfg = MeasurementConfig::new(Processor::Core2Duo, Interface::Pm)
                    .with_pattern(Pattern::ALL[pat])
                    .with_opt_level(OptLevel::ALL[opt])
                    .with_mode(CountingMode::ALL[mode])
                    .with_event(Event::ALL[event])
                    .with_counters(counters)
                    .with_tsc(tsc_on)
                    .with_hz(hz)
                    .with_seed(seed);
                (offset, cfg, Benchmark::zoo(iters)[b])
            },
        )
}

/// A random small grid: enough cells to exercise the skipping rules and
/// the cell-chunked scheduler, small enough to run many cases.
fn arb_grid() -> impl Strategy<Value = Grid> {
    (
        arb_processor(),
        arb_interfaces(),
        arb_patterns(),
        arb_benchmark(),
        1usize..=4,            // reps
        any::<u64>(),          // base seed
        prop_oneof![Just(0u32), Just(250u32)],
        (0u32..16).prop_map(|mask| masked_subset(&[1usize, 2, 3, 4], mask)),
    )
        .prop_map(
            |(processor, interfaces, patterns, benchmark, reps, base_seed, hz, counters)| {
                let mut g = Grid::new(benchmark);
                g.processors = vec![processor];
                g.interfaces = interfaces;
                g.patterns = patterns;
                g.counter_counts = counters;
                g.modes = vec![CountingMode::User, CountingMode::UserKernel];
                g.reps = reps;
                g.base_seed = base_seed;
                g.hz = hz;
                g
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Session-reuse records are bit-identical to fresh-boot records over
    /// random grids at every worker count.
    #[test]
    fn grid_records_bit_identical(grid in arb_grid()) {
        let mut oracle = grid.clone();
        oracle.fresh_boot = true;
        let expected = oracle.run_with(&RunOptions::sequential()).unwrap();
        for jobs in [1usize, 2, 4, 8] {
            let got = grid.run_with(&RunOptions::with_jobs(jobs)).unwrap();
            prop_assert_eq!(&got, &expected, "jobs = {}", jobs);
        }
    }

    /// The per-cell fold (the streaming engine's backbone) sees the very
    /// same record stream on both paths.
    #[test]
    fn grid_fold_bit_identical(grid in arb_grid()) {
        let mut oracle = grid.clone();
        oracle.fresh_boot = true;
        let fold = |g: &Grid, jobs: usize| {
            g.run_fold(
                &RunOptions::with_jobs(jobs),
                |_| Vec::new(),
                |acc: &mut Vec<(u64, i64)>, r| acc.push((r.measured, r.error())),
            )
            .unwrap()
        };
        let expected = fold(&oracle, 1);
        for jobs in [1usize, 4] {
            prop_assert_eq!(fold(&grid, jobs), expected.clone(), "jobs = {}", jobs);
        }
    }

    /// The streamed CSV is byte-identical between the boot policies at
    /// every worker count.
    #[test]
    fn grid_csv_byte_identical(grid in arb_grid()) {
        let mut oracle = grid.clone();
        oracle.fresh_boot = true;
        let csv = |g: &Grid, jobs: usize| {
            let mut out = String::new();
            let n = g
                .run_csv(&RunOptions::with_jobs(jobs), |line| out.push_str(line))
                .unwrap();
            (n, out)
        };
        let expected = csv(&oracle, 1);
        for jobs in [1usize, 2, 8] {
            prop_assert_eq!(csv(&grid, jobs), expected.clone(), "jobs = {}", jobs);
        }
    }

    /// A single session replayed over arbitrary seed sequences matches
    /// fresh boots run for the same seeds, in any order (reseeding must
    /// not carry state between repetitions).
    #[test]
    fn session_matches_fresh_for_any_seed_sequence(
        interface in prop_oneof![
            Just(Interface::Pm), Just(Interface::Pc), Just(Interface::PLpc),
            Just(Interface::PHpm),
        ],
        processor in arb_processor(),
        benchmark in arb_benchmark(),
        seeds in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let pattern = Pattern::StartRead; // supported everywhere
        let cfg = MeasurementConfig::new(processor, interface).with_pattern(pattern);
        let mut session = MeasurementSession::new(&cfg, benchmark).unwrap();
        for &seed in &seeds {
            let reused = session.run(seed).unwrap();
            let fresh = run_measurement(&cfg.with_seed(seed), benchmark).unwrap();
            prop_assert_eq!(reused, fresh, "seed = {}", seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One chain of `MeasurementSession::reuse` calls over an arbitrary
    /// sequence of cells — same stack or not, valid or not — gives every
    /// valid cell records bit-identical to fresh boots (its boot seed
    /// first, then another seed; sessions are also handed on after no
    /// run), and every invalid cell the very error
    /// `MeasurementSession::new` gives it.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "pins `reuse` itself, below the sweep runner")]
    fn reuse_chain_matches_fresh_boots(
        home in 0usize..18,
        cells in proptest::collection::vec((arb_cell(), 0usize..4), 1..10),
        extra_seed in any::<u64>(),
    ) {
        let processors = [Processor::PentiumD, Processor::Core2Duo, Processor::AthlonK8];
        let mut prev = None;
        for ((offset, cfg, benchmark), runs) in cells {
            let stack = (home + offset) % 18;
            let cfg = MeasurementConfig {
                processor: processors[stack / 6],
                interface: Interface::ALL[stack % 6],
                ..cfg
            };
            match MeasurementSession::reuse(prev.take(), &cfg, benchmark) {
                Ok(mut session) => {
                    for &seed in [cfg.seed, extra_seed, cfg.seed].iter().take(runs) {
                        let fresh = run_measurement(&cfg.with_seed(seed), benchmark).unwrap();
                        prop_assert_eq!(session.run(seed).unwrap(), fresh, "{:?}", cfg);
                    }
                    prev = Some(session);
                }
                Err(err) => {
                    let boot = MeasurementSession::new(&cfg, benchmark).unwrap_err();
                    prop_assert_eq!(&err, &boot, "{:?}", cfg);
                    prop_assert_eq!(&err, &run_measurement(&cfg, benchmark).unwrap_err());
                }
            }
        }
    }
}

/// Deterministic (non-proptest) pin: the full default grid path at the
/// quick scale agrees between engines — the exact configuration the
/// `repro` CLI runs.
#[test]
fn quick_full_null_grid_identical() {
    let grid = Grid::full_null(2);
    let mut oracle = grid.clone();
    oracle.fresh_boot = true;
    let expected = oracle.run_with(&RunOptions::with_jobs(2)).unwrap();
    let got = grid.run_with(&RunOptions::with_jobs(2)).unwrap();
    assert_eq!(got.len(), grid.run_count());
    assert_eq!(got, expected);
}
