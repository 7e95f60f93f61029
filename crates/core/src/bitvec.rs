//! A compact bit vector used for per-column NULL bitmaps.
//!
//! The engine distinguishes *empty* cells (never written, or outside a shape
//! function's ragged bounds) from *NULL* cells (written, but the paper's
//! `Filter` operator, §2.2.2, replaces non-qualifying values with NULL). A
//! chunk tracks presence by the sorted offsets of its present cells
//! ([`crate::chunk`]) and NULLs with one of these bitmaps per column, one
//! bit per present cell.

/// A growable bit vector backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let n_words = len.div_ceil(64);
        let mut bv = BitVec {
            words: vec![word; n_words],
            len,
        };
        bv.mask_tail();
        bv
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Appends a bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Inserts bit `value` at `i`, shifting bits `i..` up by one. Panics if
    /// `i > len`.
    pub fn insert(&mut self, i: usize, value: bool) {
        assert!(i <= self.len, "bit index {i} out of range {}", self.len);
        self.push(false);
        let (w, b) = (i / 64, i % 64);
        let word = self.words[w];
        let low = (1u64 << b) - 1;
        self.words[w] = (word & low) | ((word & !low) << 1) | (u64::from(value) << b);
        let mut carry = word >> 63;
        for word in &mut self.words[w + 1..] {
            let next = *word >> 63;
            *word = (*word << 1) | carry;
            carry = next;
        }
    }

    /// Removes bit `i`, shifting bits `i + 1..` down by one. Panics if out
    /// of range.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let n = self.words.len();
        for k in w..n {
            let carry = self.words.get(k + 1).map_or(0, |next| next & 1) << 63;
            let word = self.words[k];
            self.words[k] = if k == w {
                let low = (1u64 << b) - 1;
                (word & low) | ((word >> 1) & !low) | carry
            } else {
                (word >> 1) | carry
            };
        }
        self.len -= 1;
        self.words.truncate(self.len.div_ceil(64));
        self.mask_tail();
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterator over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// In-place union with another bit vector of the same length.
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Serialized byte size (used by the storage layer's accounting).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Raw words, for codec use.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds from raw words and a length, for codec use.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert!(words.len() == len.div_ceil(64), "word count mismatch");
        let mut bv = BitVec { words, len };
        bv.mask_tail();
        bv
    }

    /// Clears bits beyond `len` in the last word so `count_ones` is exact.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_true_has_all_bits() {
        let bv = BitVec::filled(100, true);
        assert_eq!(bv.len(), 100);
        assert_eq!(bv.count_ones(), 100);
        assert!(bv.all());
        assert!(bv.get(0) && bv.get(63) && bv.get(64) && bv.get(99));
    }

    #[test]
    fn filled_false_has_no_bits() {
        let bv = BitVec::filled(70, false);
        assert_eq!(bv.count_ones(), 0);
        assert!(!bv.get(69));
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut bv = BitVec::filled(130, false);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
        assert!(!bv.get(64));
    }

    #[test]
    fn push_grows_vector() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        assert_eq!(bv.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn iter_ones_yields_set_indices() {
        let mut bv = BitVec::filled(150, false);
        for i in [3usize, 64, 65, 149] {
            bv.set(i, true);
        }
        let ones: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 149]);
    }

    #[test]
    fn union_sets_bits() {
        let mut a = BitVec::filled(10, false);
        let mut b = BitVec::filled(10, false);
        a.set(1, true);
        a.set(2, true);
        b.set(2, true);
        b.set(3, true);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::filled(5, false).get(5);
    }

    #[test]
    fn insert_and_remove_shift_across_words() {
        let mut bv = BitVec::new();
        let mut model: Vec<bool> = Vec::new();
        for step in 0..400usize {
            let value = step % 3 == 0 || step % 7 == 0;
            if step % 5 == 4 && !model.is_empty() {
                let i = (step * 31) % model.len();
                bv.remove(i);
                model.remove(i);
            } else {
                let i = (step * 17) % (model.len() + 1);
                bv.insert(i, value);
                model.insert(i, value);
            }
            assert_eq!(bv.len(), model.len(), "step {step}");
            assert_eq!(bv.count_ones(), model.iter().filter(|&&b| b).count());
        }
        assert!(model.iter().enumerate().all(|(i, &b)| bv.get(i) == b));
        while !model.is_empty() {
            bv.remove(0);
            model.remove(0);
            assert_eq!(bv.count_ones(), model.iter().filter(|&&b| b).count());
        }
        assert_eq!(bv, BitVec::new());
    }

    #[test]
    fn from_words_masks_tail() {
        let bv = BitVec::from_words(vec![u64::MAX], 10);
        assert_eq!(bv.count_ones(), 10);
    }
}
