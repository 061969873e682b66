//! Word-packed selection masks.
//!
//! The predicate index produces one selection mask per member query per
//! chunk.  Masks are `u64`-word bitsets so combining them — ANDing a
//! member's atoms together, ORing members into the union the shared store
//! absorbs — is a handful of word ops per 64 rows, and so a 256-member
//! group's mask set for a 1 024-row chunk is 4 KiB of reusable buffer, not
//! 256 `Vec<bool>` allocations.
//!
//! Invariant: bits at positions `>= rows` are always zero, so
//! [`SelMask::count`] and the word-wise combinators never see tail garbage.

/// A fixed-length bitset over a chunk's rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelMask {
    words: Vec<u64>,
    rows: usize,
}

impl SelMask {
    /// A mask of `rows` bits, all set to `value`.
    pub fn new(rows: usize, value: bool) -> Self {
        let mut mask = SelMask {
            words: Vec::new(),
            rows: 0,
        };
        mask.reset(rows, value);
        mask
    }

    /// Resize to `rows` bits, all set to `value`, reusing the allocation.
    pub fn reset(&mut self, rows: usize, value: bool) {
        let words = rows.div_ceil(64);
        self.rows = rows;
        self.words.clear();
        self.words.resize(words, if value { !0u64 } else { 0 });
        self.trim_tail();
    }

    /// Zero the bits past `rows` (upholds the tail invariant).
    fn trim_tail(&mut self) {
        if !self.rows.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.rows % 64)) - 1;
            }
        }
    }

    /// Number of rows the mask covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The packed bits: bit `r % 64` of word `r / 64` is row `r`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Set bit `r`.
    pub fn set(&mut self, r: usize) {
        debug_assert!(r < self.rows);
        self.words[r / 64] |= 1u64 << (r % 64);
    }

    /// Clear bit `r`.
    pub fn clear(&mut self, r: usize) {
        debug_assert!(r < self.rows);
        self.words[r / 64] &= !(1u64 << (r % 64));
    }

    /// Read bit `r`.
    pub fn get(&self, r: usize) -> bool {
        debug_assert!(r < self.rows);
        self.words[r / 64] & (1u64 << (r % 64)) != 0
    }

    /// `self &= other` (both masks must cover the same rows).
    pub fn and_assign(&mut self, other: &SelMask) {
        debug_assert_eq!(self.rows, other.rows);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other` (both masks must cover the same rows).
    pub fn or_assign(&mut self, other: &SelMask) {
        debug_assert_eq!(self.rows, other.rows);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The mask as a `Vec<bool>` parallel to the chunk's rows — the shape
    /// [`ColumnChunk::filter`](pier_core::ColumnChunk::filter) consumes.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.rows).map(|r| self.get(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_and_bounds() {
        let mut m = SelMask::new(70, false);
        assert_eq!(m.rows(), 70);
        assert_eq!(m.count(), 0);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(69);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(69));
        assert!(!m.get(1));
        assert_eq!(m.count(), 4);
        m.clear(63);
        assert!(!m.get(63));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn all_true_respects_the_tail_invariant() {
        let m = SelMask::new(70, true);
        assert_eq!(m.count(), 70, "no phantom bits past the row count");
        let e = SelMask::new(0, true);
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn bitwise_combinators() {
        let mut a = SelMask::new(130, true);
        let mut b = SelMask::new(130, false);
        for r in (0..130).step_by(3) {
            b.set(r);
        }
        a.and_assign(&b);
        assert_eq!(a.count(), b.count());
        let mut c = SelMask::new(130, false);
        c.or_assign(&b);
        assert_eq!(c, b);
        assert_ne!(c.count(), 0);
        assert_eq!(SelMask::new(130, false).count(), 0);
    }

    #[test]
    fn bool_round_trip() {
        let bools: Vec<bool> = (0..77).map(|r| r % 5 == 0 || r % 7 == 0).collect();
        let mut m = SelMask::new(77, false);
        for (r, _) in bools.iter().enumerate().filter(|(_, b)| **b) {
            m.set(r);
        }
        assert_eq!(m.to_bools(), bools);
        assert_eq!(m.count(), bools.iter().filter(|b| **b).count());
    }
}
