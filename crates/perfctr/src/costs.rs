//! Calibrated instruction costs of the perfctr call paths.
//!
//! Every libperfctr operation is modeled as instruction mixes around a
//! *capture point* (the instant the measured counter starts, stops, or is
//! sampled). Instructions after the opening call's capture point and before
//! the closing call's capture point fall inside the measurement window and
//! are the *measurement error* the paper studies.
//!
//! The base constants below are calibrated on the Core 2 Duo so that the
//! paper's headline numbers come out: e.g. the fast user-mode read costs
//! ≈51 pre + ≈58 post user instructions, giving the read-read median of
//! ≈109 instructions the paper reports for CD (Figure 4), while Table 3's
//! `pc` start-read lands near 163 user+kernel instructions. Platform
//! factors scale the paths the way the paper's per-processor figures
//! differ (e.g. K8's read-read median of 84). The tests that pin these
//! numbers are this module's `cd_fast_read_window_is_about_109` and
//! `k8_fast_read_window_is_about_84`, `vperfctr`'s
//! `null_window_error_fast_read_about_109`, and
//! `counterlab::experiments::infrastructure`'s
//! `absolute_medians_near_paper` (Table 3).

use counterlab_cpu::uarch::Processor;

pub use counterlab_kernel::syscall::PathCost;

/// The complete perfctr cost model for one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfctrCosts {
    /// `vperfctr_open` + mmap of the vperfctr page (outside any window).
    pub open: PathCost,
    /// `vperfctr_control` programming the event selections.
    pub control: PathCost,
    /// Start: capture = the `WRMSR` enabling the measured counter (last).
    pub start: PathCost,
    /// Stop: capture = the `WRMSR` disabling the measured counter (first).
    pub stop: PathCost,
    /// Reset: zeroes counter values and accumulated sums.
    pub reset: PathCost,
    /// Fast user-mode read (TSC enabled): `rdtsc` + `rdpmc` loop against
    /// the mapped vperfctr page — no kernel entry at all.
    pub fast_read: PathCost,
    /// Slow syscall read (TSC disabled): the kernel samples the counters.
    pub slow_read: PathCost,
    /// Extra user instructions per additional counter on the fast read's
    /// pre side (loading the page entry).
    pub fast_read_per_counter_pre: u64,
    /// Extra user instructions per additional counter on the fast read's
    /// post side (`rdpmc` + accumulate).
    pub fast_read_per_counter_post: u64,
    /// Extra kernel instructions per additional counter on each side of the
    /// slow read.
    pub slow_read_per_counter: u64,
    /// Extra kernel instructions per additional counter when starting
    /// (the extra counters are enabled *before* the measured one, so they
    /// land on the pre side) and a small bookkeeping tail on the post side.
    pub start_per_counter_pre: u64,
    /// Post-side bookkeeping per extra counter on start.
    pub start_per_counter_post: u64,
    /// Pre-side bookkeeping per extra counter on stop.
    pub stop_per_counter_pre: u64,
    /// Kernel instructions perfctr's timer-tick hook adds per tick
    /// (per-thread virtualization bookkeeping).
    pub tick_extra: u64,
    /// Upper bound of per-call user-mode jitter (alignment/branching
    /// variation in the library).
    pub user_jitter: u64,
    /// Upper bound of per-call kernel-mode jitter (locking, list walks).
    pub kernel_jitter: u64,
}

/// Core 2 Duo base cost model.
const BASE: PerfctrCosts = PerfctrCosts {
    open: PathCost {
        wrapper_pre: 60,
        handler_pre: 200,
        handler_post: 200,
        wrapper_post: 40,
    },
    control: PathCost {
        wrapper_pre: 30,
        handler_pre: 80,
        handler_post: 70,
        wrapper_post: 20,
    },
    start: PathCost {
        wrapper_pre: 14,
        handler_pre: 120,
        handler_post: 26,
        wrapper_post: 20,
    },
    stop: PathCost {
        wrapper_pre: 15,
        handler_pre: 60,
        handler_post: 90,
        wrapper_post: 12,
    },
    reset: PathCost {
        wrapper_pre: 12,
        handler_pre: 80,
        handler_post: 80,
        wrapper_post: 10,
    },
    fast_read: PathCost {
        wrapper_pre: 51,
        handler_pre: 0,
        handler_post: 0,
        wrapper_post: 58,
    },
    slow_read: PathCost {
        wrapper_pre: 123,
        handler_pre: 675,
        handler_post: 620,
        wrapper_post: 107,
    },
    fast_read_per_counter_pre: 6,
    fast_read_per_counter_post: 7,
    slow_read_per_counter: 30,
    start_per_counter_pre: 18,
    start_per_counter_post: 4,
    stop_per_counter_pre: 22,
    tick_extra: 4_000,
    user_jitter: 6,
    kernel_jitter: 30,
};

impl PerfctrCosts {
    /// The cost model for a processor. Kernel paths scale with the
    /// platform's kernel code generation; the fast read's user path scales
    /// the way Figure 4 vs Figure 5 differ (CD ≈ 109, K8 ≈ 84 for
    /// read-read).
    pub fn for_processor(processor: Processor) -> Self {
        let (kernel_pct, user_pct) = match processor {
            Processor::PentiumD => (120, 110),
            Processor::Core2Duo => (100, 100),
            Processor::AthlonK8 => (85, 77),
        };
        let mut c = BASE;
        c.open = c.open.scale_kernel(kernel_pct);
        c.control = c.control.scale_kernel(kernel_pct);
        c.start = c.start.scale_kernel(kernel_pct);
        c.stop = c.stop.scale_kernel(kernel_pct);
        c.reset = c.reset.scale_kernel(kernel_pct);
        c.slow_read = c.slow_read.scale_kernel(kernel_pct);
        c.fast_read = c.fast_read.scale_user(user_pct);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cd_fast_read_window_is_about_109() {
        let c = PerfctrCosts::for_processor(Processor::Core2Duo);
        let rr = c.fast_read.wrapper_post + c.fast_read.wrapper_pre;
        assert!((100..=120).contains(&rr), "rr = {rr}");
    }

    #[test]
    fn k8_fast_read_window_is_about_84() {
        let c = PerfctrCosts::for_processor(Processor::AthlonK8);
        let rr = c.fast_read.wrapper_post + c.fast_read.wrapper_pre;
        assert!((78..=90).contains(&rr), "rr = {rr}");
    }

    #[test]
    fn fast_read_never_enters_kernel() {
        for p in Processor::ALL {
            let c = PerfctrCosts::for_processor(p);
            assert_eq!(c.fast_read.handler_pre, 0);
            assert_eq!(c.fast_read.handler_post, 0);
        }
    }

    #[test]
    fn slow_read_is_dramatically_heavier() {
        // Figure 4: TSC off pushes read-read from ~110 to ~1700.
        let c = PerfctrCosts::for_processor(Processor::Core2Duo);
        let fast = c.fast_read.wrapper_pre + c.fast_read.wrapper_post;
        let slow = c.slow_read.wrapper_pre
            + c.slow_read.handler_pre
            + c.slow_read.handler_post
            + c.slow_read.wrapper_post;
        assert!(slow > 10 * fast, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn kernel_scaling_ordering() {
        let pd = PerfctrCosts::for_processor(Processor::PentiumD);
        let cd = PerfctrCosts::for_processor(Processor::Core2Duo);
        let k8 = PerfctrCosts::for_processor(Processor::AthlonK8);
        assert!(pd.start.handler_pre > cd.start.handler_pre);
        assert!(cd.start.handler_pre > k8.start.handler_pre);
    }

    #[test]
    fn scale_helpers() {
        let p = PathCost {
            wrapper_pre: 100,
            handler_pre: 100,
            handler_post: 100,
            wrapper_post: 100,
        };
        let k = p.scale_kernel(50);
        assert_eq!(k.handler_pre, 50);
        assert_eq!(k.wrapper_pre, 100);
        let u = p.scale_user(110);
        assert_eq!(u.wrapper_post, 110);
        assert_eq!(u.handler_post, 100);
    }
}
