//! Shared deterministic mixing functions.
//!
//! Several layers derive pseudo-random-but-reproducible values from
//! integers: the machine model places environment branches from a loop's
//! base address, and the experiment grid derives per-run seeds from a
//! cell's identity. Both used to carry private copies of these mixers;
//! this module is the single definition, with the exact output sequences
//! pinned by unit tests so no caller can drift.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function
/// (Steele et al., *Fast splittable pseudorandom number generators*).
///
/// # Examples
///
/// ```
/// use counterlab_cpu::hash::splitmix64;
///
/// // Deterministic, and nearby inputs land far apart.
/// assert_eq!(splitmix64(1), splitmix64(1));
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Boost-style `hash_combine` step over `u64`: folds `value` into the
/// running state `state` and returns the new state.
///
/// This is the seed-derivation combiner of the experiment grid
/// (`per_run_seed`): feed the base seed as the initial state and combine
/// each component of a run's identity in a fixed order.
pub fn seed_combine(state: u64, value: u64) -> u64 {
    state
        ^ value
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(state << 6)
            .wrapping_add(state >> 2)
}

/// A streaming hasher over a canonical byte encoding: the incremental
/// counterpart of chaining [`seed_combine`] by hand, finalized with
/// [`splitmix64`].
///
/// This is what countd's content-addressed result cache keys cells with
/// (`counterlab::wire::cell_key`) and what its on-disk cache tier uses as
/// a payload checksum. The exact output sequence is therefore part of the
/// cache format: it is pinned by this module's unit tests, and any change
/// to it must bump the wire/cache format version.
///
/// Input framing: bytes are folded in 8-byte little-endian chunks (the
/// final partial chunk zero-padded) and the total byte length is folded
/// into the finalizer, so `"ab"` and `"ab\0"` hash differently even
/// though their padded chunks coincide.
///
/// # Examples
///
/// ```
/// use counterlab_cpu::hash::StreamHasher;
///
/// let mut a = StreamHasher::new(7);
/// a.write_str("null");
/// a.write_u64(3);
/// // Chunking boundaries don't matter, only the byte stream does.
/// let mut b = StreamHasher::new(7);
/// b.write_bytes(b"nu");
/// b.write_bytes(b"ll");
/// assert_ne!(a.finish(), b.finish()); // b lacks the u64
/// b.write_u64(3);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct StreamHasher {
    state: u64,
    /// Pending bytes of an incomplete 8-byte chunk, packed little-endian
    /// (zero above `pending_len` bytes).
    pending: u64,
    pending_len: u32,
    /// Total bytes written (u64 writes count as 8).
    len: u64,
}

impl StreamHasher {
    /// A hasher whose initial state derives from `seed` via
    /// [`splitmix64`].
    pub fn new(seed: u64) -> Self {
        StreamHasher {
            state: splitmix64(seed),
            pending: 0,
            pending_len: 0,
            len: 0,
        }
    }

    /// Folds one `u64` into the state. Flushes any pending partial chunk
    /// first, so a `u64` always occupies its own chunk.
    pub fn write_u64(&mut self, value: u64) {
        self.flush_pending();
        self.state = seed_combine(self.state, value);
        self.len += 8;
    }

    /// Folds raw bytes into the state in 8-byte little-endian chunks,
    /// independent of how the byte stream is split across calls.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        // A word at a time, never a byte at a time: cell keys hash their
        // identity text as a few dozen short pieces.
        let (chunks, rest) = bytes.as_chunks::<8>();
        for chunk in chunks {
            self.push_word(u64::from_le_bytes(*chunk), 8);
        }
        if !rest.is_empty() {
            let word = rest.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.push_word(word, rest.len() as u32);
        }
    }

    /// [`StreamHasher::write_bytes`] over a string's UTF-8 bytes.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The hash of everything written so far (the hasher can keep
    /// accepting writes afterwards). The total byte length participates,
    /// defeating trailing-zero-padding collisions.
    pub fn finish(&self) -> u64 {
        let mut state = self.state;
        if self.pending_len > 0 {
            state = seed_combine(state, self.pending);
        }
        splitmix64(seed_combine(state, self.len))
    }

    /// Appends the `n` (1 to 8) bytes packed little-endian in `word`,
    /// folding the chunk they complete.
    #[inline]
    fn push_word(&mut self, word: u64, n: u32) {
        // `pending_len` is at most 7, so no shift below reaches 64 bits.
        let joined = self.pending | word << (8 * self.pending_len);
        let total = self.pending_len + n;
        if total < 8 {
            self.pending = joined;
            self.pending_len = total;
            return;
        }
        self.state = seed_combine(self.state, joined);
        self.pending = if self.pending_len == 0 {
            0
        } else {
            word >> (8 * (8 - self.pending_len))
        };
        self.pending_len = total - 8;
    }

    fn flush_pending(&mut self) {
        if self.pending_len > 0 {
            self.state = seed_combine(self.state, self.pending);
            self.pending = 0;
            self.pending_len = 0;
        }
    }
}

/// Formatting straight into the hash: `write!(hasher, ...)` folds exactly
/// the bytes `format!` with the same arguments would produce, without
/// building the string.
impl std::fmt::Write for StreamHasher {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact output values are load-bearing: `splitmix64` places the
    /// machine model's environment branches and `seed_combine` derives
    /// every per-run measurement seed, so a change to either silently
    /// reshuffles all simulated results (and breaks the pinned golden
    /// CSV). These constants pin the current sequences.
    #[test]
    fn splitmix64_pinned_values() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0x0804_9000), 0xAED0_CD89_E9C7_1D86);
    }

    #[test]
    fn seed_combine_pinned_values() {
        assert_eq!(seed_combine(0, 0), 0x9E37_79B9_7F4A_7C15);
        let h = seed_combine(0x6121D ^ 0x9E37_79B9_7F4A_7C15, 2);
        assert_eq!(h, 0xCD94_BF3E_CD75_7791);
    }

    #[test]
    fn seed_combine_order_sensitive() {
        let a = seed_combine(seed_combine(1, 2), 3);
        let b = seed_combine(seed_combine(1, 3), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix64_spreads_sequential_inputs() {
        let outs: std::collections::BTreeSet<u64> = (0..1000).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
    }

    /// `StreamHasher` output is part of countd's cache format (cache keys
    /// and on-disk checksums), so the sequence is pinned the same way the
    /// primitive mixers are. If these constants change, the wire/cache
    /// format version must be bumped.
    #[test]
    fn stream_hasher_pinned_values() {
        assert_eq!(StreamHasher::new(0).finish(), 0x1BC3_918F_92CF_CA5C);

        let mut h = StreamHasher::new(0);
        h.write_str("cell/1");
        assert_eq!(h.finish(), 0x5F51_8A9E_9C2A_06B7);

        let mut h = StreamHasher::new(0x6121);
        h.write_u64(42);
        h.write_str("null");
        assert_eq!(h.finish(), 0x92EC_8EC6_FFDD_5AFB);
    }

    #[test]
    fn stream_hasher_is_chunking_independent() {
        let data = b"an-odd-length-canonical-cell-identity-string";
        let mut whole = StreamHasher::new(9);
        whole.write_bytes(data);
        for split in [1, 3, 7, 8, 13, data.len() - 1] {
            let mut parts = StreamHasher::new(9);
            parts.write_bytes(&data[..split]);
            parts.write_bytes(&data[split..]);
            assert_eq!(parts.finish(), whole.finish(), "split at {split}");
        }
    }

    proptest::proptest! {
        /// Any split of a byte stream into writes, at arbitrary points,
        /// hashes like one write of the whole stream, and both match a
        /// plain fold of its zero-padded 8-byte chunks.
        #[test]
        fn stream_hasher_split_writes_match_one_write(
            data in proptest::prop::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            cuts in proptest::prop::collection::vec(0usize..80, 0..6),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut whole = StreamHasher::new(seed);
            whole.write_bytes(&data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut parts = StreamHasher::new(seed);
            let mut at = 0;
            for cut in cuts {
                parts.write_bytes(&data[at..cut]);
                at = cut;
            }
            parts.write_bytes(&data[at..]);
            proptest::prop_assert_eq!(parts.finish(), whole.finish());

            let mut state = splitmix64(seed);
            for chunk in data.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                state = seed_combine(state, u64::from_le_bytes(word));
            }
            let reference = splitmix64(seed_combine(state, data.len() as u64));
            proptest::prop_assert_eq!(whole.finish(), reference);
        }
    }

    #[test]
    fn stream_hasher_formats_like_format() {
        use std::fmt::Write as _;
        let (proc, reps, seed) = ("K8", 10, 0xBEEF_u64);
        let mut streamed = StreamHasher::new(3);
        write!(streamed, "cell/1 proc={proc} reps={reps} seed={seed:x}").unwrap();
        let mut built = StreamHasher::new(3);
        built.write_str(&format!("cell/1 proc={proc} reps={reps} seed={seed:x}"));
        assert_eq!(streamed.finish(), built.finish());
    }

    #[test]
    fn stream_hasher_length_breaks_padding_collisions() {
        let mut a = StreamHasher::new(0);
        a.write_bytes(b"ab");
        let mut b = StreamHasher::new(0);
        b.write_bytes(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stream_hasher_u64_flushes_partial_chunk() {
        // "abc" then u64(5) must differ from "abc" with 5 packed into the
        // same chunk region — write_u64 starts a fresh chunk.
        let mut a = StreamHasher::new(0);
        a.write_bytes(b"abc");
        a.write_u64(5);
        let mut b = StreamHasher::new(0);
        b.write_bytes(b"abc\x05\0\0\0\0\0\0\0");
        assert_ne!(a.finish(), b.finish());
    }
}
