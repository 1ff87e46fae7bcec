//! The atomic visited bitmap — the first key optimization of Algorithm 2.
//!
//! Marking visited vertices in a bitmap instead of the parent array shrinks
//! the randomly-accessed working set by 32× (1 bit vs. 4 bytes per vertex):
//! "in 4 MB we can store all the visit information for a graph with 32
//! million vertices", moving the hot data up the cache hierarchy and — per
//! the paper's Fig. 2 — improving the raw processing rate "by at least a
//! factor of four".
//!
//! The second idea is [`AtomicBitmap::claim`]: *test, then set*. A plain
//! load first checks whether the bit is already 1 and only falls through to
//! the `lock or` (`fetch_or`) when it is 0. The bit may be set concurrently
//! between the check and the atomic, so the atomic's return value is still
//! authoritative — but in the late levels of a BFS almost every neighbour is
//! already visited and the check eliminates the vast majority of atomic
//! operations (the paper's Fig. 4).

use core::sync::atomic::{AtomicU64, Ordering};

/// Outcome of a [`AtomicBitmap::claim`] / [`AtomicBitmap::set_atomic`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The plain read found the bit already set; no atomic was issued.
    AlreadyVisited,
    /// The atomic set the bit; the caller owns the vertex.
    Claimed,
    /// The atomic found the bit set by a racing thread; no ownership.
    LostRace,
}

impl ClaimOutcome {
    /// `true` when the caller won ownership of the bit.
    #[inline]
    pub fn claimed(self) -> bool {
        matches!(self, ClaimOutcome::Claimed)
    }

    /// `true` when the call issued a `lock`-prefixed atomic operation
    /// (used by the instrumentation for Fig. 4).
    #[inline]
    pub fn used_atomic(self) -> bool {
        !matches!(self, ClaimOutcome::AlreadyVisited)
    }
}

/// A fixed-size concurrent bitmap over 64-bit words.
///
/// # Examples
///
/// ```
/// use mcbfs_graph::bitmap::{AtomicBitmap, ClaimOutcome};
///
/// let bm = AtomicBitmap::new(128);
/// assert!(!bm.test(64));
/// assert_eq!(bm.claim(64), ClaimOutcome::Claimed);
/// assert_eq!(bm.claim(64), ClaimOutcome::AlreadyVisited);
/// assert!(bm.test(64));
/// assert_eq!(bm.count_ones(), 1);
/// ```
pub struct AtomicBitmap {
    words: Box<[AtomicU64]>,
    bits: usize,
}

impl AtomicBitmap {
    /// Creates a bitmap holding `bits` zeroed bits.
    pub fn new(bits: usize) -> Self {
        let words = bits.div_ceil(64);
        Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            bits,
        }
    }

    /// Creates a bitmap of `bits` bits with exactly the given indices set —
    /// the bulk constructor used when a sparse frontier is converted into a
    /// dense one outside a parallel region.
    ///
    /// # Panics
    /// Panics (in debug builds) on indices `>= bits`.
    pub fn from_ones(bits: usize, ones: impl IntoIterator<Item = usize>) -> Self {
        let mut words = vec![0u64; bits.div_ceil(64)];
        for bit in ones {
            debug_assert!(bit < bits, "bit {bit} out of range 0..{bits}");
            words[bit / 64] |= 1u64 << (bit % 64);
        }
        Self {
            words: words.into_iter().map(AtomicU64::new).collect(),
            bits,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits
    }

    /// `true` when the bitmap holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Size of the bitmap's storage in bytes — the paper reasons about this
    /// as the random-access working set of the visit phase.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    #[inline]
    fn index(&self, bit: usize) -> (usize, u64) {
        debug_assert!(bit < self.bits, "bit {bit} out of range 0..{}", self.bits);
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Plain (non-atomic-RMW) read of one bit.
    #[inline]
    pub fn test(&self, bit: usize) -> bool {
        let (w, mask) = self.index(bit);
        self.words[w].load(Ordering::Relaxed) & mask != 0
    }

    /// Atomically ORs `mask` into storage word `i` and returns the word's
    /// *previous* value — the word-granular claim of the bit-parallel
    /// multi-source BFS, where one `lock or` advances up to 64 searches.
    /// `mask & !previous` is exactly the set of bits this call newly set,
    /// so callers can attribute each bit to a unique winner under races.
    #[inline(always)]
    pub fn or_word(&self, i: usize, mask: u64) -> u64 {
        self.words[i].fetch_or(mask, Ordering::AcqRel)
    }

    /// Unconditional atomic set; returns `Claimed` if this call flipped the
    /// bit from 0 to 1, `LostRace` otherwise. This is the paper's
    /// `LockedReadSet` (`__sync_or_and_fetch` on the original system).
    #[inline]
    pub fn set_atomic(&self, bit: usize) -> ClaimOutcome {
        let (w, mask) = self.index(bit);
        let prev = self.words[w].fetch_or(mask, Ordering::AcqRel);
        if prev & mask == 0 {
            ClaimOutcome::Claimed
        } else {
            ClaimOutcome::LostRace
        }
    }

    /// Atomically clears one bit (the inverse of [`AtomicBitmap::set_atomic`]);
    /// used by consumers that treat the bitmap as a shrinking work-list,
    /// such as the connected-components root cursor.
    #[inline]
    pub fn clear_bit(&self, bit: usize) {
        let (w, mask) = self.index(bit);
        self.words[w].fetch_and(!mask, Ordering::AcqRel);
    }

    /// Test-then-set: checks the bit with a plain load and only issues the
    /// atomic when it reads 0 (lines 13–15 of the paper's Algorithm 2).
    #[inline]
    pub fn claim(&self, bit: usize) -> ClaimOutcome {
        if self.test(bit) {
            ClaimOutcome::AlreadyVisited
        } else {
            self.set_atomic(bit)
        }
    }

    /// Number of 64-bit storage words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Plain load of storage word `i` — the word-level read of the
    /// bottom-up sweep, which inspects 64 visited bits at once.
    #[inline(always)]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Relaxed)
    }

    /// Plain store of storage word `i`. Safe for concurrent use only when
    /// word `i` is owned by one thread for the duration of the phase (the
    /// bottom-up sweep partitions words contiguously across threads); a
    /// barrier must publish the stores before other threads read them.
    #[inline(always)]
    pub fn set_word(&self, i: usize, value: u64) {
        self.words[i].store(value, Ordering::Relaxed);
    }

    /// Clears every bit. Requires external quiescence (called between BFS
    /// runs); uses relaxed stores.
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits (in-range bits only; stray bits a `set_word`
    /// planted beyond `bits` are excluded, as in [`AtomicBitmap::iter_set_bits`]).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.load(Ordering::Relaxed) & self.word_mask(i)).count_ones() as usize)
            .sum()
    }

    /// Mask selecting the in-range bits of storage word `i` (all ones for
    /// full words, the low `bits % 64` ones for the final partial word).
    #[inline]
    pub fn word_mask(&self, i: usize) -> u64 {
        debug_assert!(i < self.words.len());
        if i + 1 == self.words.len() && !self.bits.is_multiple_of(64) {
            (1u64 << (self.bits % 64)) - 1
        } else {
            u64::MAX
        }
    }

    /// Iterator over the global indices of set bits within the storage-word
    /// range `words` — the one word-level scan loop of the crate. The
    /// frontier sparsifier, the connected-components root cursor and the
    /// multi-source BFS all consume this instead of open-coding the
    /// `trailing_zeros` walk over [`AtomicBitmap::word`]. Out-of-range bits
    /// in the final partial word are masked off.
    pub fn iter_set_bits(
        &self,
        words: core::ops::Range<usize>,
    ) -> impl Iterator<Item = usize> + '_ {
        words.flat_map(move |wi| {
            bits_of_word(self.word(wi) & self.word_mask(wi)).map(move |bit| wi * 64 + bit)
        })
    }
}

/// Iterator over the set-bit positions (0–63, ascending) of one 64-bit
/// word, via the standard `trailing_zeros` / clear-lowest-bit walk. Shared
/// by every word-granular scan: frontier conversion, the hybrid bottom-up
/// sweep (over the *complement* of the visited word) and the bit-parallel
/// multi-source BFS (over newly-discovered source masks).
#[inline(always)]
pub fn bits_of_word(word: u64) -> impl Iterator<Item = usize> {
    let mut word = word;
    core::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(bit)
    })
}

impl core::fmt::Debug for AtomicBitmap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AtomicBitmap")
            .field("bits", &self.bits)
            .field("ones", &self.count_ones())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_bitmap_is_zeroed() {
        let bm = AtomicBitmap::new(200);
        assert_eq!(bm.len(), 200);
        assert_eq!(bm.count_ones(), 0);
        assert!((0..200).all(|b| !bm.test(b)));
    }

    #[test]
    fn zero_length_bitmap() {
        let bm = AtomicBitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.iter_set_bits(0..bm.num_words()).count(), 0);
    }

    #[test]
    fn set_and_test_across_word_boundaries() {
        let bm = AtomicBitmap::new(130);
        for &b in &[0usize, 63, 64, 127, 128, 129] {
            assert_eq!(bm.set_atomic(b), ClaimOutcome::Claimed);
            assert!(bm.test(b));
        }
        assert_eq!(bm.count_ones(), 6);
    }

    #[test]
    fn set_atomic_detects_race_loss() {
        let bm = AtomicBitmap::new(64);
        assert_eq!(bm.set_atomic(5), ClaimOutcome::Claimed);
        assert_eq!(bm.set_atomic(5), ClaimOutcome::LostRace);
    }

    #[test]
    fn claim_skips_atomic_when_visible() {
        let bm = AtomicBitmap::new(64);
        assert_eq!(bm.claim(9), ClaimOutcome::Claimed);
        let second = bm.claim(9);
        assert_eq!(second, ClaimOutcome::AlreadyVisited);
        assert!(!second.used_atomic());
        assert!(!second.claimed());
    }

    #[test]
    fn clear_bit_clears_only_that_bit() {
        let bm = AtomicBitmap::new(128);
        bm.set_atomic(64);
        bm.set_atomic(65);
        bm.clear_bit(64);
        assert!(!bm.test(64));
        assert!(bm.test(65));
        bm.clear_bit(64); // idempotent
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let bm = AtomicBitmap::new(100);
        for b in (0..100).step_by(3) {
            bm.set_atomic(b);
        }
        bm.clear();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn from_ones_sets_exactly_the_given_bits() {
        let set = [0usize, 7, 63, 64, 128, 129];
        let bm = AtomicBitmap::from_ones(130, set.iter().copied());
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.count_ones(), set.len());
        let got: Vec<_> = bm.iter_set_bits(0..bm.num_words()).collect();
        assert_eq!(got, set);
        assert!(!bm.test(1) && !bm.test(65));
    }

    #[test]
    fn from_ones_empty_iterator() {
        let bm = AtomicBitmap::from_ones(100, core::iter::empty());
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn word_accessors_roundtrip() {
        let bm = AtomicBitmap::new(130);
        assert_eq!(bm.num_words(), 3);
        bm.set_word(1, 0b1010);
        assert_eq!(bm.word(1), 0b1010);
        assert!(bm.test(65) && bm.test(67));
        assert!(!bm.test(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn word_mask_covers_partial_final_word() {
        let bm = AtomicBitmap::new(130);
        assert_eq!(bm.word_mask(0), u64::MAX);
        assert_eq!(bm.word_mask(1), u64::MAX);
        assert_eq!(bm.word_mask(2), 0b11);
        let full = AtomicBitmap::new(128);
        assert_eq!(full.word_mask(1), u64::MAX);
    }

    #[test]
    fn or_word_returns_previous_and_accumulates() {
        let bm = AtomicBitmap::new(128);
        assert_eq!(bm.or_word(1, 0b0110), 0);
        assert_eq!(bm.or_word(1, 0b1100), 0b0110);
        assert_eq!(bm.word(1), 0b1110);
        // The newly-set bits of the second call are exactly mask & !prev.
        assert_eq!(0b1100 & !0b0110u64, 0b1000);
    }

    #[test]
    fn bits_of_word_walks_ascending() {
        assert_eq!(bits_of_word(0).count(), 0);
        assert_eq!(bits_of_word(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            bits_of_word(0x8000_0000_0000_0005).collect::<Vec<_>>(),
            vec![0, 2, 63]
        );
        assert_eq!(bits_of_word(u64::MAX).count(), 64);
    }

    #[test]
    fn iter_set_bits_respects_range_and_mask() {
        let bm = AtomicBitmap::new(200);
        for &b in &[3usize, 64, 70, 130, 199] {
            bm.set_atomic(b);
        }
        assert_eq!(
            bm.iter_set_bits(0..bm.num_words()).collect::<Vec<_>>(),
            vec![3, 64, 70, 130, 199]
        );
        assert_eq!(bm.iter_set_bits(1..2).collect::<Vec<_>>(), vec![64, 70]);
        assert_eq!(bm.iter_set_bits(2..2).count(), 0);
        // Stray bits past `len` are masked off.
        let partial = AtomicBitmap::new(70);
        partial.set_word(1, u64::MAX);
        assert_eq!(
            partial.iter_set_bits(1..2).collect::<Vec<_>>(),
            (64..70).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_bytes_matches_paper_rule_of_thumb() {
        // 32 M vertices fit in 4 MB of bitmap.
        let bm = AtomicBitmap::new(32 * 1024 * 1024);
        assert_eq!(bm.memory_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn concurrent_claims_grant_each_bit_once() {
        const BITS: usize = 4096;
        const THREADS: usize = 8;
        let bm = Arc::new(AtomicBitmap::new(BITS));
        let wins: Arc<Vec<core::sync::atomic::AtomicUsize>> = Arc::new(
            (0..BITS)
                .map(|_| core::sync::atomic::AtomicUsize::new(0))
                .collect(),
        );
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let bm = Arc::clone(&bm);
                let wins = Arc::clone(&wins);
                s.spawn(move || {
                    for b in 0..BITS {
                        if bm.claim(b).claimed() {
                            wins[b].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert!(wins.iter().all(|w| w.load(Ordering::SeqCst) == 1));
        assert_eq!(bm.count_ones(), BITS);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_range_bit_panics_in_debug() {
        let bm = AtomicBitmap::new(10);
        bm.test(10);
    }
}
