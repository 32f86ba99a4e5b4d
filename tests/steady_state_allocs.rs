//! Steady-state allocation counts of the measurement stack.
//!
//! A measurement session pays its allocations when it boots and on its
//! first run; after that, every run on every processor × interface stack
//! — and every re-targeting of a session to another cell of the same
//! stack — must allocate nothing. A counting global allocator (per
//! thread, so concurrently running tests do not disturb each other) pins
//! the counts at exactly zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use counterlab::benchmark::Benchmark;
use counterlab::config::MeasurementConfig;
use counterlab::interface::{CountingMode, Interface};
use counterlab::measure::MeasurementSession;
use counterlab::pattern::Pattern;
use counterlab::prelude::*;

thread_local! {
    /// Allocation calls (alloc, alloc_zeroed, realloc) on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

#[expect(unsafe_code, reason = "a GlobalAlloc impl is unsafe by definition")]
// SAFETY: every method delegates directly to the system allocator with
// the caller's arguments; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const PROCESSORS: [Processor; 3] = [
    Processor::PentiumD,
    Processor::Core2Duo,
    Processor::AthlonK8,
];

/// Every run after a session's first allocates nothing, on all 18 stacks,
/// for every supported pattern, both modes of the grid and the whole zoo,
/// short and long enough for timer ticks to land.
#[test]
fn every_stack_runs_allocation_free_after_its_first_run() {
    for processor in PROCESSORS {
        for interface in Interface::ALL {
            for pattern in interface.supported_patterns() {
                for mode in [CountingMode::User, CountingMode::UserKernel] {
                    for benchmark in Benchmark::zoo(200)
                        .into_iter()
                        .chain(Benchmark::zoo(4_000_000))
                    {
                        let cfg = MeasurementConfig::new(processor, interface)
                            .with_pattern(pattern)
                            .with_mode(mode)
                            .with_counters(2);
                        let mut session = MeasurementSession::new(&cfg, benchmark).unwrap();
                        session.run(cfg.seed).unwrap();
                        for seed in [1, 2, 3] {
                            let (n, record) = allocations(|| session.run(seed));
                            record.unwrap();
                            assert_eq!(
                                n,
                                0,
                                "{processor}/{interface}/{pattern}/{mode}/{}",
                                benchmark.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Re-targeting a session to another cell of the same stack, and that
/// cell's first run, allocate nothing.
#[test]
#[expect(clippy::disallowed_methods, reason = "pins `reuse` itself, below the sweep runner")]
fn same_stack_reuse_allocates_nothing() {
    for processor in PROCESSORS {
        for interface in Interface::ALL {
            let first = MeasurementConfig::new(processor, interface);
            let mut session = MeasurementSession::new(&first, Benchmark::Null).unwrap();
            session.run(first.seed).unwrap();
            let next = first
                .with_pattern(Pattern::StartStop)
                .with_mode(CountingMode::UserKernel)
                .with_counters(2)
                .with_tsc(false)
                .with_hz(1000)
                .with_seed(9);
            let (n, record) = allocations(|| {
                let mut session = MeasurementSession::reuse(Some(session), &next, Benchmark::Null)?;
                session.run(next.seed)
            });
            record.unwrap();
            assert_eq!(n, 0, "{processor}/{interface}");
        }
    }
}
