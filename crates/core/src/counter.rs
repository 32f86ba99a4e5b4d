//! [`StatCounter`]: the one relaxed atomic type of the serving plane.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A statistics counter or sequence dispenser over an [`AtomicU64`].
///
/// Every operation uses `Ordering::Relaxed`, and that is sound for every
/// use of this type: no other data is published under a counter, so a
/// reader needs nothing but the counter's own value, and read-modify-write
/// operations on one atomic never lose an update at any ordering. Code
/// that hands data from one thread to another through an atomic must not
/// use this type.
#[derive(Debug, Default)]
pub struct StatCounter(AtomicU64);

impl StatCounter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        StatCounter(AtomicU64::new(0))
    }

    /// Adds one and returns the previous value, which is unique among
    /// all `incr` calls on this counter.
    #[inline]
    pub fn incr(&self) -> u64 {
        self.0.fetch_add(1, Relaxed)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_dispenses_unique_sequence_numbers() {
        let c = StatCounter::new();
        assert_eq!((c.incr(), c.incr(), c.get()), (0, 1, 2));
        c.add(5);
        c.sub(3);
        assert_eq!(c.get(), 4);
        let seqs: std::collections::BTreeSet<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).map(|_| c.incr()).collect::<Vec<_>>()))
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(seqs.len(), 400);
        assert_eq!(c.get(), 404);
    }
}
