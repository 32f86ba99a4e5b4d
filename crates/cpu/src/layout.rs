//! Code placement: where the measured code lands in memory.
//!
//! Section 6 of the paper explains the bimodal cycle counts of Figures 10–12
//! by *code placement*: every distinct executable (a different access
//! pattern, optimization level, or infrastructure produces one) puts the
//! loop at a different address, which changes branch-predictor, i-cache and
//! i-TLB behaviour and therefore cycles per iteration.
//!
//! [`BuildFingerprint`] models "a distinct executable": a deterministic hash
//! over whatever identifies the build. [`CodePlacement`] turns the hash into
//! a concrete address for the measured code.

/// Base of the text segment of a 32-bit Linux executable.
pub const TEXT_BASE: u64 = 0x0804_8000;

/// Span of plausible code offsets inside the text segment (1 MiB).
const TEXT_SPAN: u64 = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic fingerprint of one built measurement executable.
///
/// Feed in everything that changes the emitted binary — the benchmark, the
/// counter access pattern, the compiler optimization level, the measuring
/// infrastructure — and obtain a stable [`CodePlacement`].
///
/// # Examples
///
/// ```
/// use counterlab_cpu::layout::BuildFingerprint;
///
/// let a = BuildFingerprint::new().with_str("start-read").with_u64(2);
/// let b = BuildFingerprint::new().with_str("read-read").with_u64(2);
/// assert_ne!(a.placement().base_address(), b.placement().base_address());
/// // Same inputs, same placement:
/// let a2 = BuildFingerprint::new().with_str("start-read").with_u64(2);
/// assert_eq!(a.placement(), a2.placement());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuildFingerprint {
    hash: u64,
}

impl Default for BuildFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildFingerprint {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        BuildFingerprint { hash: FNV_OFFSET }
    }

    /// Mixes a string component (e.g. the pattern name) into the fingerprint.
    pub fn with_str(mut self, s: &str) -> Self {
        for b in s.as_bytes() {
            self.hash ^= u64::from(*b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        // Separator so "ab"+"c" differs from "a"+"bc".
        self.hash ^= 0xff;
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
        self
    }

    /// Mixes an integer component (e.g. the optimization level) into the
    /// fingerprint.
    pub fn with_u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The raw 64-bit hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The code placement this build produces.
    pub fn placement(&self) -> CodePlacement {
        CodePlacement {
            base: TEXT_BASE + (self.hash % TEXT_SPAN),
        }
    }
}

/// A concrete address for the measured code within the text segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodePlacement {
    base: u64,
}

impl CodePlacement {
    /// Creates a placement at an explicit address (mostly for tests; normal
    /// construction goes through [`BuildFingerprint::placement`]).
    pub fn at(base: u64) -> Self {
        CodePlacement { base }
    }

    /// Address of the first byte of the measured code.
    pub fn base_address(&self) -> u64 {
        self.base
    }

    /// Offset of the code within an aligned block of `align` bytes
    /// (e.g. `alignment_offset(64)` gives the position inside its cache
    /// line, `alignment_offset(16)` inside its fetch window).
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn alignment_offset(&self, align: u64) -> u64 {
        assert!(align > 0, "alignment must be non-zero");
        self.base % align
    }

    /// Whether a block of `bytes` starting at this placement crosses an
    /// `align`-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn straddles(&self, bytes: u64, align: u64) -> bool {
        if bytes == 0 {
            return false;
        }
        let first = self.base / align;
        let last = (self.base + bytes - 1) / align;
        first != last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let f = || BuildFingerprint::new().with_str("x").with_u64(3);
        assert_eq!(f().hash(), f().hash());
    }

    #[test]
    fn component_order_matters() {
        let a = BuildFingerprint::new().with_str("a").with_str("b");
        let b = BuildFingerprint::new().with_str("b").with_str("a");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn separator_prevents_concat_collisions() {
        let a = BuildFingerprint::new().with_str("ab").with_str("c");
        let b = BuildFingerprint::new().with_str("a").with_str("bc");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn placement_in_text_segment() {
        let p = BuildFingerprint::new().with_str("anything").placement();
        assert!(p.base_address() >= TEXT_BASE);
        assert!(p.base_address() < TEXT_BASE + TEXT_SPAN);
    }

    #[test]
    fn alignment_offset() {
        let p = CodePlacement::at(0x1000 + 13);
        assert_eq!(p.alignment_offset(64), 13);
        assert_eq!(p.alignment_offset(16), 13);
        assert_eq!(p.alignment_offset(1), 0);
    }

    #[test]
    fn straddle_detection() {
        // 10 bytes at offset 60 of a 64-byte line crosses the boundary.
        assert!(CodePlacement::at(60).straddles(10, 64));
        // 4 bytes at offset 60 ends exactly at 63: no crossing.
        assert!(!CodePlacement::at(60).straddles(4, 64));
        // Zero-size block never straddles.
        assert!(!CodePlacement::at(63).straddles(0, 64));
        // Block exactly filling a line doesn't straddle.
        assert!(!CodePlacement::at(64).straddles(64, 64));
        assert!(CodePlacement::at(64).straddles(65, 64));
    }

    #[test]
    fn placements_spread_over_alignments() {
        // Across many fingerprints, both 16-byte-aligned and unaligned
        // placements must occur (otherwise no bimodality could emerge).
        let mut offsets = std::collections::BTreeSet::new();
        for i in 0..256u64 {
            let p = BuildFingerprint::new().with_u64(i).placement();
            offsets.insert(p.alignment_offset(16));
        }
        assert!(offsets.len() > 8, "only {} distinct offsets", offsets.len());
    }
}
