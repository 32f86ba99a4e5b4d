//! A small branch-target-buffer model.
//!
//! The paper attributes cycle-count variability to code placement affecting
//! “branch predictor, i-cache, and i-TLB performance” (§6). This module
//! models the placement-sensitive part of branch prediction: a set-indexed
//! BTB in which branches at conflicting addresses evict each other.

use crate::icache::LruSets;

/// A set-associative branch target buffer indexed by branch address.
///
/// # Examples
///
/// ```
/// use counterlab_cpu::branch::BranchTargetBuffer;
///
/// let mut btb = BranchTargetBuffer::new(512, 4);
/// assert!(!btb.lookup_insert(0x1000)); // cold miss
/// assert!(btb.lookup_insert(0x1000)); // now predicted
/// ```
#[derive(Debug, Clone)]
pub struct BranchTargetBuffer {
    sets: LruSets,
}

impl BranchTargetBuffer {
    /// Creates a BTB with `sets` sets of `ways` entries (LRU within a set).
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a power of two and `1 <= ways <= 255`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "BTB sets must be a power of two");
        assert!(ways >= 1, "BTB needs at least one way");
        BranchTargetBuffer {
            sets: LruSets::new(sets, ways),
        }
    }

    /// Empties every set, returning the BTB to its cold post-boot state
    /// while keeping all allocations (the reuse path of measurement
    /// sessions).
    pub fn reset(&mut self) {
        self.sets.reset();
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.set_count()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.sets.ways()
    }

    /// The set index a branch at `addr` maps to. Real BTBs index by the
    /// low-order branch address bits above the 4-byte position bits.
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr >> 2) as usize) & (self.sets.set_count() - 1)
    }

    /// Looks up the branch at `addr`; returns whether it was present
    /// (predicted), and inserts/refreshes it (LRU).
    pub fn lookup_insert(&mut self, addr: u64) -> bool {
        let idx = self.set_index(addr);
        self.sets.lookup_insert(idx, addr)
    }

    /// Whether two branch addresses contend for the same set.
    pub fn conflicts(&self, a: u64, b: u64) -> bool {
        a != b && self.set_index(a) == self.set_index(b)
    }

    /// Steady-state prediction accuracy for a loop branch at `branch_addr`
    /// when `environment` branches are also live each iteration: returns
    /// `true` if the loop branch survives in its set every iteration.
    pub fn loop_branch_stable(&mut self, branch_addr: u64, environment: &[u64]) -> bool {
        // Warm up: two full rounds through the working set.
        for _ in 0..2 {
            self.lookup_insert(branch_addr);
            for &e in environment {
                self.lookup_insert(e);
            }
        }
        // Measure the third round.
        self.lookup_insert(branch_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits() {
        let mut btb = BranchTargetBuffer::new(16, 2);
        assert!(!btb.lookup_insert(0x40));
        assert!(btb.lookup_insert(0x40));
    }

    #[test]
    fn set_indexing_wraps() {
        let btb = BranchTargetBuffer::new(16, 1);
        // Addresses 16*4=64 bytes apart map to the same set.
        assert_eq!(btb.set_index(0x0), btb.set_index(64));
        assert_ne!(btb.set_index(0x0), btb.set_index(4));
        assert!(btb.conflicts(0x0, 64));
        assert!(!btb.conflicts(0x0, 4));
        assert!(!btb.conflicts(0x0, 0x0), "same address is not a conflict");
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut btb = BranchTargetBuffer::new(16, 1);
        btb.lookup_insert(0x0);
        btb.lookup_insert(64); // same set, evicts 0x0
        assert!(!btb.lookup_insert(0x0), "0x0 must have been evicted");
    }

    #[test]
    fn associativity_tolerates_one_conflict() {
        let mut btb = BranchTargetBuffer::new(16, 2);
        btb.lookup_insert(0x0);
        btb.lookup_insert(64);
        assert!(btb.lookup_insert(0x0));
        assert!(btb.lookup_insert(64));
    }

    #[test]
    fn lru_order() {
        let mut btb = BranchTargetBuffer::new(1, 2);
        btb.lookup_insert(0); // set: [0]
        btb.lookup_insert(4); // set: [0, 4]
        btb.lookup_insert(0); // refresh 0 → [4, 0]
        btb.lookup_insert(8); // evict 4 → [0, 8]
        assert!(btb.lookup_insert(0));
        assert!(!btb.lookup_insert(4));
    }

    #[test]
    fn stable_loop_branch_with_empty_environment() {
        let mut btb = BranchTargetBuffer::new(512, 4);
        assert!(btb.loop_branch_stable(0x8048_1000, &[]));
    }

    #[test]
    fn thrashed_loop_branch() {
        // Direct-mapped BTB, environment branch in the same set: the loop
        // branch is evicted every iteration.
        let mut btb = BranchTargetBuffer::new(16, 1);
        let loop_addr = 0x1000;
        let alias = loop_addr + 16 * 4; // same set
        assert!(!btb.loop_branch_stable(loop_addr, &[alias]));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = BranchTargetBuffer::new(12, 2);
    }
}
