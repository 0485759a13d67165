//! Dense fixed-capacity bitsets.
//!
//! [`BitSet`] backs the *vertical* database representation: one bitset per
//! item, bit `t` set iff transaction `t` contains the item. Support
//! counting then reduces to word-wise `AND` + popcount, the fastest
//! primitive available for the dense datasets the paper evaluates on
//! (MUSHROOMS, census extracts).

use crate::kernels;
use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of `usize` indices backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    /// Capacity in bits; indices must be `< nbits`.
    nbits: usize,
}

impl BitSet {
    /// An empty bitset with capacity for indices `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            words: vec![0; nbits.div_ceil(WORD_BITS)],
            nbits,
        }
    }

    /// A bitset with every index in `0..nbits` set.
    pub fn full(nbits: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; nbits.div_ceil(WORD_BITS)],
            nbits,
        };
        s.trim_tail();
        s
    }

    /// Builds a bitset from indices. Indices must be `< nbits`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(nbits: usize, indices: I) -> Self {
        let mut s = BitSet::new(nbits);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Clears bits beyond `nbits` in the last word (they must stay zero for
    /// `count_ones`/equality to be correct).
    #[inline]
    fn trim_tail(&mut self) {
        let rem = self.nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Grows the capacity to `nbits`, keeping every set bit. New bits are
    /// clear — this is how a vertical cover is extended when transactions
    /// are appended to the database.
    ///
    /// # Panics
    ///
    /// Panics if `nbits` is smaller than the current capacity.
    pub fn grow(&mut self, nbits: usize) {
        assert!(
            nbits >= self.nbits,
            "cannot shrink a bitset from {} to {nbits} bits",
            self.nbits
        );
        // Bits past the old capacity in the last word are zero by the
        // trim_tail invariant, so widening is just appending zero words.
        self.words.resize(nbits.div_ceil(WORD_BITS), 0);
        self.nbits = nbits;
    }

    /// Sets bit `i`. Returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of capacity {}", self.nbits);
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was = *word & mask != 0;
        *word |= mask;
        !was
    }

    /// Clears bit `i`. Returns `true` if it was set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.nbits {
            return false;
        }
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Tests bit `i`. Out-of-range indices are absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.nbits && self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        kernels::count(&self.words)
    }

    /// Whether no bit is set (chunked scan, early exit on the first
    /// non-zero word group).
    #[inline]
    pub fn is_empty(&self) -> bool {
        !kernels::any(&self.words)
    }

    /// The backing words, low bits first. Bits at positions `>= capacity()`
    /// in the last word are always zero (the `trim_tail` invariant), so
    /// word-level kernels need no masking.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place intersection: `self ← self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        kernels::and_assign(&mut self.words, &other.words);
    }

    /// Fused in-place intersection + count: `self ← self ∩ other`,
    /// returning `|self ∩ other|` from the same pass — extent refinement
    /// loops use this instead of `intersect_with` followed by `count`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with_count(&mut self, other: &BitSet) -> usize {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        kernels::and_assign_count(&mut self.words, &other.words)
    }

    /// In-place union: `self ← self ∪ other`.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        kernels::or_assign(&mut self.words, &other.words);
    }

    /// In-place difference: `self ← self ∖ other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        kernels::and_not_assign(&mut self.words, &other.words);
    }

    /// New bitset `self ∩ other`, built directly in one pass (no clone of
    /// `self` followed by a second masking sweep).
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            nbits: self.nbits,
        }
    }

    /// `|self ∩ other|` without materializing the intersection — the hot
    /// path of vertical support counting.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        kernels::and_count(&self.words, &other.words)
    }

    /// `|self ∖ other|` without materializing the difference — how many
    /// objects of this extent the other cover misses.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn and_not_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        kernels::and_not_count(&self.words, &other.words)
    }

    /// Overwrites `out` with `self ∩ other` and returns its bit count,
    /// all in one pass. `out`'s buffer is reused across calls — the
    /// allocation-free form of `intersection` + `count` for refinement
    /// loops that keep a scratch bitset.
    ///
    /// # Panics
    ///
    /// Panics if `self` and `other` capacities differ.
    pub fn intersect_count_into(&self, other: &BitSet, out: &mut BitSet) -> usize {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        out.nbits = self.nbits;
        kernels::and_into_count(&mut out.words, &self.words, &other.words)
    }

    /// Subset test (`⊆`), chunked with an early exit at the first word
    /// group of `self ∖ other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        kernels::is_subset(&self.words, &other.words)
    }

    /// Copies the bit range `start..start + len` into a new bitset
    /// re-based at zero. A word-aligned `start` is a whole-word copy; an
    /// unaligned one takes the cross-word shift path.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds the capacity.
    pub fn extract_block(&self, start: usize, len: usize) -> BitSet {
        assert!(
            start + len <= self.nbits,
            "block {start}..{} beyond capacity {}",
            start + len,
            self.nbits
        );
        let first = start / WORD_BITS;
        let sh = start % WORD_BITS;
        let mut out = if sh == 0 {
            BitSet {
                words: self.words[first..first + len.div_ceil(WORD_BITS)].to_vec(),
                nbits: len,
            }
        } else {
            let words = (0..len.div_ceil(WORD_BITS))
                .map(|i| {
                    let lo = self.words.get(first + i).copied().unwrap_or(0) >> sh;
                    let hi =
                        self.words.get(first + i + 1).copied().unwrap_or(0) << (WORD_BITS - sh);
                    lo | hi
                })
                .collect();
            BitSet { words, nbits: len }
        };
        out.trim_tail();
        out
    }

    /// Drops the first `k` bits and re-bases the rest at zero, shrinking
    /// the capacity by `k` — how a vertical cover is renumbered when a
    /// prefix of transactions expires from the database.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the capacity.
    pub fn drop_prefix(&mut self, k: usize) {
        assert!(
            k <= self.nbits,
            "cannot drop {k} bits from capacity {}",
            self.nbits
        );
        *self = self.extract_block(k, self.nbits - k);
    }

    /// Iterates over set bit indices in increasing order.
    pub fn iter(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The index of the lowest set bit, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over set bits, lowest first.
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(500));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn full_and_trim() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        assert_eq!(BitSet::full(0).count(), 0);
        assert_eq!(BitSet::full(64).count(), 64);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(100, [1, 2, 3, 99]);
        let b = BitSet::from_indices(100, [2, 3, 4]);
        assert_eq!(a.intersection(&b), BitSet::from_indices(100, [2, 3]));
        assert_eq!(a.intersection_count(&b), 2);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, BitSet::from_indices(100, [1, 2, 3, 4, 99]));

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, BitSet::from_indices(100, [1, 99]));
    }

    #[test]
    fn fused_intersection_variants_agree() {
        let a = BitSet::from_indices(200, [1, 2, 3, 64, 65, 130, 199]);
        let b = BitSet::from_indices(200, [2, 3, 65, 100, 199]);
        let expect = a.intersection(&b);
        let n = expect.count();

        let mut fused = a.clone();
        assert_eq!(fused.intersect_with_count(&b), n);
        assert_eq!(fused, expect);

        let mut out = BitSet::new(3); // wrong capacity + stale words: must be overwritten
        out.insert(1);
        assert_eq!(a.intersect_count_into(&b, &mut out), n);
        assert_eq!(out, expect);
        assert_eq!(out.capacity(), 200);

        assert_eq!(a.and_not_count(&b), a.count() - n);
        assert_eq!(b.and_not_count(&a), b.count() - n);
    }

    #[test]
    fn subset() {
        let a = BitSet::from_indices(80, [3, 70]);
        let b = BitSet::from_indices(80, [3, 5, 70]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(BitSet::new(80).is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn iter_in_order() {
        let s = BitSet::from_indices(200, [5, 0, 199, 64, 63]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 63, 64, 199]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(BitSet::new(10).first(), None);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::from_indices(20, [1]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 20);
    }

    #[test]
    fn aligned_blocks_extract_their_bits() {
        let s = BitSet::from_indices(300, [0, 5, 63, 64, 127, 128, 250, 299]);
        // Word-aligned cuts at 0, 64, 128, 300 re-base each range at zero.
        for w in [0usize, 64, 128, 300].windows(2) {
            let block = s.extract_block(w[0], w[1] - w[0]);
            assert_eq!(block.capacity(), w[1] - w[0]);
            assert_eq!(
                block.iter().collect::<Vec<_>>(),
                s.iter()
                    .filter(|&i| i >= w[0] && i < w[1])
                    .map(|i| i - w[0])
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn extract_empty_block() {
        let s = BitSet::from_indices(100, [1, 99]);
        let block = s.extract_block(64, 0);
        assert_eq!(block.capacity(), 0);
        assert!(block.is_empty());
    }

    #[test]
    fn unaligned_blocks_extract_their_bits() {
        let bits = [0usize, 5, 9, 10, 63, 64, 65, 127, 128, 250, 299];
        let s = BitSet::from_indices(300, bits);
        for cuts in [[0usize, 10, 75, 300], [0, 1, 63, 300], [0, 130, 131, 300]] {
            for w in cuts.windows(2) {
                let block = s.extract_block(w[0], w[1] - w[0]);
                assert_eq!(
                    block.iter().collect::<Vec<_>>(),
                    s.iter()
                        .filter(|&i| i >= w[0] && i < w[1])
                        .map(|i| i - w[0])
                        .collect::<Vec<_>>(),
                    "cut {w:?}"
                );
            }
        }
    }

    #[test]
    fn drop_prefix_renumbers() {
        let mut s = BitSet::from_indices(200, [0, 3, 70, 127, 128, 199]);
        s.drop_prefix(70);
        assert_eq!(s.capacity(), 130);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 57, 58, 129]);
        s.drop_prefix(0);
        assert_eq!(s.capacity(), 130);
        s.drop_prefix(130);
        assert_eq!(s.capacity(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn equality_ignores_unused_tail() {
        let mut a = BitSet::full(65);
        let b = BitSet::full(65);
        assert_eq!(a, b);
        a.remove(64);
        assert_ne!(a, b);
    }
}
