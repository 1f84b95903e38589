//! A packed `u64` bitset for cache-efficient incremental oracle state.
//!
//! Coverage-style oracles track "is user/RR-set `i` already served?"
//! flags. A `Vec<bool>` spends one byte (and one cache line per 64
//! flags) per entry and forces element-at-a-time gain counting; packing
//! 64 flags per word lets a kernel AND a candidate's sparse
//! `(word, mask)` pairs ([`pack_sparse`]) against the complement of the
//! covered words and count whole words at a time.

use serde::{Deserialize, Serialize};

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// A fixed-capacity bitset backed by `u64` words.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedBitset {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitset {
    /// An all-zero bitset over `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets bit `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (little-endian bit order within each word).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// Packs an index list into sparse `(word, mask)` pairs, merged per
/// word and sorted by word index — the precomputed per-item masks the
/// word-at-a-time kernels scan.
pub fn pack_sparse(indices: &[u32]) -> Vec<(u32, u64)> {
    let mut pairs: Vec<(u32, u64)> = Vec::new();
    for &i in indices {
        let w = i / WORD_BITS as u32;
        let bit = 1u64 << (i % WORD_BITS as u32);
        match pairs.last_mut() {
            Some((lw, mask)) if *lw == w => *mask |= bit,
            _ => match pairs.iter_mut().find(|(pw, _)| *pw == w) {
                Some((_, mask)) => *mask |= bit,
                None => pairs.push((w, bit)),
            },
        }
    }
    pairs.sort_unstable_by_key(|&(w, _)| w);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test_roundtrip() {
        let mut b = FixedBitset::zeros(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.words().len(), 3);
        for i in [0usize, 63, 64, 129] {
            assert!(!b.contains(i));
            b.insert(i);
            assert!(b.contains(i));
        }
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn pack_sparse_merges_words() {
        // Unsorted input with two indices in word 0 and one in word 2.
        let pairs = pack_sparse(&[130, 3, 0]);
        assert_eq!(pairs, vec![(0, 0b1001), (2, 1u64 << 2)]);
    }

    #[test]
    fn pack_sparse_equals_dense_bitmap() {
        let indices: Vec<u32> = (0..200).filter(|i| i % 7 == 0).collect();
        let pairs = pack_sparse(&indices);
        let mut dense = FixedBitset::zeros(200);
        for &i in &indices {
            dense.insert(i as usize);
        }
        let mut rebuilt = FixedBitset::zeros(200);
        for (w, mask) in pairs {
            rebuilt.words_mut()[w as usize] |= mask;
        }
        assert_eq!(dense, rebuilt);
    }
}
