//! Tier-1 guarantees of the parallel execution engine: worker count must
//! never change a single output byte. Each measurement derives its seed
//! from the cell's identity alone, so `jobs = 1`, `jobs = N` and the
//! legacy [`Grid::run`] path must all produce identical record vectors —
//! the property that makes the paper-scale sweep safely parallel.

use counterlab::benchmark::Benchmark;
use counterlab::config::MeasurementConfig;
use counterlab::exec::RunOptions;
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};
use counterlab::measure::Record;
use counterlab::pattern::Pattern;
use counterlab::sweep::Plan;
use counterlab_cpu::uarch::Processor;
use proptest::prelude::*;

/// A grid that exercises skipping rules, several interfaces and reps.
fn multi_interface_grid() -> Grid {
    let mut g = Grid::new(Benchmark::Null);
    g.interfaces = vec![
        Interface::Pm,
        Interface::Pc,
        Interface::PLpm,
        Interface::PHpc,
    ];
    g.patterns = Pattern::ALL.to_vec();
    g.counter_counts = vec![1, 2];
    g.tsc_settings = vec![true, false];
    g.modes = vec![CountingMode::User, CountingMode::UserKernel];
    g.reps = 3;
    g
}

#[test]
fn jobs_do_not_change_grid_records() {
    let g = multi_interface_grid();
    let sequential = g.run_with(&RunOptions::sequential()).unwrap();
    assert_eq!(sequential.len(), g.run_count());
    assert!(sequential.len() > 100, "grid too small to be interesting");

    let four = g.run_with(&RunOptions::with_jobs(4)).unwrap();
    assert_eq!(sequential, four, "jobs=4 diverged from jobs=1");

    let legacy = g.run().unwrap();
    assert_eq!(sequential, legacy, "legacy run() diverged from jobs=1");

    let auto = g.run_with(&RunOptions::default()).unwrap();
    assert_eq!(sequential, auto, "jobs=auto diverged from jobs=1");
}

#[test]
fn jobs_do_not_change_csv_bytes() {
    // The acceptance-criterion form of the invariant: the CSV serialization
    // (the `repro csv` artifact) is byte-identical at any worker count.
    let g = multi_interface_grid();
    let csv1 = counterlab::report::records_to_csv(&g.run_with(&RunOptions::sequential()).unwrap());
    let csv4 = counterlab::report::records_to_csv(&g.run_with(&RunOptions::with_jobs(4)).unwrap());
    assert_eq!(csv1, csv4);
}

#[test]
fn engine_keeps_enumeration_order() {
    // Pure-engine check, no measurements: a plan whose every run spins by
    // its index (the run's seed) instead of measuring. Results land in
    // index order at every worker count even when item "cost" varies
    // wildly.
    let spin = |cfg: &MeasurementConfig, benchmark| {
        let i = cfg.seed as usize;
        let mut acc = i as u64;
        for k in 0..(i % 7) * 1_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
        }
        Ok(Record { config: *cfg, benchmark, measured: acc, expected: 0 })
    };
    let cfg = MeasurementConfig::new(Processor::AthlonK8, Interface::Pm);
    let plan = Plan {
        measure: Some(&spin),
        ..Plan::new(500, 1, 1, |_| (cfg, Benchmark::Null), |i, _| i as u64)
    };
    let run = |opts| -> Vec<(u64, u64)> {
        let records = plan.records(&opts).unwrap();
        records.iter().map(|r| (r.config.seed, r.measured)).collect()
    };
    let seq = run(RunOptions::sequential());
    assert!(seq.iter().enumerate().all(|(i, &(seed, _))| seed == i as u64));
    for jobs in [2, 4, 8] {
        let par = run(RunOptions::with_jobs(jobs));
        assert_eq!(seq, par, "jobs = {jobs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small grids: any subset of interfaces/patterns/modes, any
    /// rep count and base seed must be jobs-invariant.
    #[test]
    fn random_grids_are_jobs_invariant(
        interface_mask in 1u8..64,
        pattern_mask in 1u8..16,
        both_modes in any::<bool>(),
        reps in 1usize..4,
        base_seed in any::<u64>(),
        jobs in 2usize..6,
    ) {
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = Interface::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| interface_mask & (1 << i) != 0)
            .map(|(_, &x)| x)
            .collect();
        g.patterns = Pattern::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| pattern_mask & (1 << i) != 0)
            .map(|(_, &x)| x)
            .collect();
        if both_modes {
            g.modes = vec![CountingMode::User, CountingMode::UserKernel];
        }
        g.reps = reps;
        g.base_seed = base_seed;
        let sequential = g.run_with(&RunOptions::sequential()).unwrap();
        let parallel = g.run_with(&RunOptions::with_jobs(jobs)).unwrap();
        prop_assert_eq!(sequential, parallel);
    }
}
