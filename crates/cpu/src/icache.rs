//! Instruction-cache and instruction-TLB models.
//!
//! Together with [`crate::branch`], these provide the placement-sensitive
//! micro-architectural structures that §6 of the paper holds responsible
//! for cycle-count perturbation.

/// A set-associative instruction cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use counterlab_cpu::icache::ICache;
///
/// let mut ic = ICache::new(32 * 1024, 64, 8);
/// assert!(!ic.access(0x8048000)); // cold miss
/// assert!(ic.access(0x8048000)); // hit
/// assert!(ic.access(0x8048004)); // same line
/// ```
#[derive(Debug, Clone)]
pub struct ICache {
    line_bytes: u64,
    sets: LruSets,
}

impl ICache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry divides evenly and the set count is a
    /// power of two, or beyond 255 ways.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = size_bytes / line_bytes;
        let sets = (lines as usize) / ways;
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        ICache {
            line_bytes,
            sets: LruSets::new(sets, ways),
        }
    }

    /// Empties every set, returning the cache to its cold post-boot state
    /// while keeping all allocations (the reuse path of measurement
    /// sessions). Equivalent to, but much cheaper than, rebuilding with
    /// [`ICache::new`].
    pub fn reset(&mut self) {
        self.sets.reset();
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.set_count()
    }

    /// Accesses the byte at `addr`; returns `true` on hit. Misses fill the
    /// line (LRU within the set).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let idx = (line as usize) & (self.sets.set_count() - 1);
        self.sets.lookup_insert(idx, line)
    }

    /// Accesses a code block of `bytes` starting at `addr`; returns the
    /// number of missing lines (i.e. cold-fetch misses).
    pub fn access_block(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr / self.line_bytes;
        let last = (addr + bytes - 1) / self.line_bytes;
        let mut misses = 0;
        for line in first..=last {
            if !self.access(line * self.line_bytes) {
                misses += 1;
            }
        }
        misses
    }
}

/// `sets × ways` tags with LRU replacement within each set: the storage
/// shared by [`ICache`] and [`crate::branch::BranchTargetBuffer`].
///
/// Every buffer is sized at construction: all tags live in one slot array
/// (a set's resident tags are its first `fill[set]` slots, least recently
/// used first) and the touched list has room for every set, so no access
/// ever allocates.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    ways: usize,
    slots: Vec<u64>,
    fill: Vec<u8>,
    /// Indices of sets that currently hold at least one tag, so
    /// [`LruSets::reset`] clears only what a run actually touched instead
    /// of walking every set of a large structure.
    touched: Vec<u32>,
}

impl LruSets {
    /// # Panics
    ///
    /// Panics beyond 255 ways or 2³² − 1 sets.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= usize::from(u8::MAX), "at most 255 ways");
        assert!(u32::try_from(sets).is_ok(), "at most 2^32 - 1 sets");
        LruSets {
            ways,
            slots: vec![0; sets * ways],
            fill: vec![0; sets],
            touched: Vec::with_capacity(sets),
        }
    }

    pub(crate) fn set_count(&self) -> usize {
        self.fill.len()
    }

    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Empties every touched set.
    pub(crate) fn reset(&mut self) {
        for &idx in &self.touched {
            self.fill[idx as usize] = 0;
        }
        self.touched.clear();
    }

    /// Looks `tag` up in set `idx`; returns whether it was resident. Either
    /// way the tag ends up most recently used, evicting the set's least
    /// recently used tag when the set is full.
    pub(crate) fn lookup_insert(&mut self, idx: usize, tag: u64) -> bool {
        let fill = usize::from(self.fill[idx]);
        let set = &mut self.slots[idx * self.ways..(idx + 1) * self.ways];
        if let Some(pos) = set[..fill].iter().position(|&t| t == tag) {
            set[pos..fill].rotate_left(1);
            return true;
        }
        if fill == 0 {
            // Lossless: `new` checked that every set index fits.
            self.touched.push(idx as u32);
        }
        let fill = if fill == self.ways {
            set.rotate_left(1);
            fill
        } else {
            fill + 1
        };
        set[fill - 1] = tag;
        // Lossless: `fill <= ways <= 255`.
        self.fill[idx] = fill as u8;
        false
    }
}

/// A fully-associative instruction TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct ITlb {
    page_bytes: u64,
    entries: Vec<u64>,
    capacity: usize,
}

impl ITlb {
    /// Creates an i-TLB with `capacity` entries for `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: u64) -> Self {
        assert!(capacity >= 1, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        ITlb {
            page_bytes,
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Translates the address of one fetch; returns `true` on TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr / self.page_bytes;
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let p = self.entries.remove(pos);
            self.entries.push(p);
            true
        } else {
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push(page);
            false
        }
    }

    /// Flushes all translations (context switch with address-space change).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Returns the TLB to its cold post-boot state (alias of
    /// [`ITlb::flush`], named for symmetry with the other front-end
    /// structures' reset path).
    pub fn reset(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_one_miss() {
        let mut ic = ICache::new(1024, 64, 2);
        assert!(!ic.access(0));
        assert!(ic.access(63));
        assert!(!ic.access(64));
    }

    #[test]
    fn block_access_counts_lines() {
        let mut ic = ICache::new(1024, 64, 2);
        // 100 bytes at offset 60 spans lines 0 and 1 and part of line 2.
        assert_eq!(ic.access_block(60, 100), 3);
        assert_eq!(ic.access_block(60, 100), 0, "second pass all hits");
    }

    #[test]
    fn zero_byte_block() {
        let mut ic = ICache::new(1024, 64, 2);
        assert_eq!(ic.access_block(0, 0), 0);
    }

    #[test]
    fn conflict_eviction() {
        // 2 sets × 1 way × 64B lines = 128B cache: lines 0 and 2 collide.
        let mut ic = ICache::new(128, 64, 1);
        ic.access(0);
        ic.access(2 * 64);
        assert!(!ic.access(0), "line 0 must have been evicted");
    }

    #[test]
    fn associativity_keeps_both() {
        // 1 set × 2 ways.
        let mut ic = ICache::new(128, 64, 2);
        ic.access(0);
        ic.access(64);
        assert!(ic.access(0));
        assert!(ic.access(64));
    }

    /// The slot-array sets keep exactly the LRU order of one `Vec` per
    /// set (the layout they replaced): same hits, same residents, across
    /// resets, for 1-, 2-, 3- and 8-way geometries.
    #[test]
    fn lru_sets_match_vec_per_set_model() {
        for (sets, ways) in [(4, 1), (4, 2), (2, 3), (8, 8)] {
            let mut lru = LruSets::new(sets, ways);
            let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets];
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (sets * ways) as u64;
            for step in 0..4_000 {
                if step % 700 == 699 {
                    lru.reset();
                    model.iter_mut().for_each(Vec::clear);
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let tag = x % (3 * (sets * ways) as u64);
                let idx = (tag as usize) % sets;
                let set = &mut model[idx];
                let hit = match set.iter().position(|&t| t == tag) {
                    Some(pos) => {
                        set.remove(pos);
                        true
                    }
                    None => {
                        if set.len() == ways {
                            set.remove(0);
                        }
                        false
                    }
                };
                set.push(tag);
                assert_eq!(
                    lru.lookup_insert(idx, tag),
                    hit,
                    "{sets}x{ways} step {step}"
                );
                let fill = usize::from(lru.fill[idx]);
                assert_eq!(&lru.slots[idx * ways..idx * ways + fill], &set[..]);
            }
        }
    }

    #[test]
    fn tlb_hit_after_fill() {
        let mut tlb = ITlb::new(4, 4096);
        assert!(!tlb.access(0x8048_1234));
        assert!(tlb.access(0x8048_1ff0), "same page");
        assert!(!tlb.access(0x9000_0000), "different page");
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut tlb = ITlb::new(2, 4096);
        tlb.access(0x0000); // page 0
        tlb.access(0x1000); // page 1
        tlb.access(0x0000); // refresh page 0
        tlb.access(0x2000); // evicts page 1
        assert!(tlb.access(0x0000));
        assert!(!tlb.access(0x1000));
    }

    #[test]
    fn tlb_flush() {
        let mut tlb = ITlb::new(4, 4096);
        tlb.access(0);
        tlb.flush();
        assert!(!tlb.access(0));
    }
}
