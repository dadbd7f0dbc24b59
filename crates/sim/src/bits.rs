//! Packed `u64` bitsets for per-node protocol state.
//!
//! Executors track per-node flags (informed / alive / has-transmitted) for
//! up to 10⁶ nodes; a packed bitset keeps a whole field's mask in
//! `n / 8` bytes — 64 nodes per cache line instead of 8 — so the phase
//! loop's working set scales with the *active* frontier rather than with
//! `n` booleans.

const WORD_BITS: usize = 64;

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// A fixed-length packed bitset (one bit per node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// All-false bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; word_count(len)],
            len,
        }
    }

    /// All-true bitset of `len` bits.
    pub fn filled(len: usize) -> Self {
        let mut s = BitSet {
            words: vec![u64::MAX; word_count(len)],
            len,
        };
        s.trim_tail();
        s
    }

    /// Builds from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut s = BitSet::new(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                s.set(i);
            }
        }
        s
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear_bit(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Writes bit `i`.
    #[inline]
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear_bit(i);
        }
    }

    /// Clears every bit (reusable scratch).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit.
    pub fn fill_all(&mut self) {
        self.words.fill(u64::MAX);
        self.trim_tail();
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Raw packed words (low bit of word 0 = node 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes held by the packed words (memory-footprint telemetry).
    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Calls `f(i)` for every set bit, ascending.
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * WORD_BITS + bit);
                w &= w - 1;
            }
        }
    }

    /// Calls `f(i)` for every bit set here but not in `other`, ascending
    /// (word-parallel `self & !other` — the TDMA "informed but not yet
    /// transmitted" scan).
    pub fn for_each_set_and_not(&self, other: &BitSet, mut f: impl FnMut(usize)) {
        debug_assert_eq!(self.len, other.len);
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut w = a & !b;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * WORD_BITS + bit);
                w &= w - 1;
            }
        }
    }

    /// Zeroes the bits past `len` in the last word so `count_ones` and
    /// word-level scans never see phantom nodes.
    fn trim_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitSet::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 8);
        b.clear_bit(64);
        assert!(!b.get(64));
        b.assign(64, true);
        assert!(b.get(64));
        b.assign(64, false);
        assert_eq!(b.count_ones(), 7);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn filled_and_fill_all_respect_length() {
        let b = BitSet::filled(70);
        assert_eq!(b.count_ones(), 70);
        assert!(b.get(69));
        let mut c = BitSet::new(70);
        c.fill_all();
        assert_eq!(b, c);
        // Exact word multiple: no tail to trim.
        assert_eq!(BitSet::filled(128).count_ones(), 128);
        assert_eq!(BitSet::filled(0).count_ones(), 0);
    }

    #[test]
    fn from_bools_matches() {
        let bools: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let b = BitSet::from_bools(&bools);
        for (i, &expect) in bools.iter().enumerate() {
            assert_eq!(b.get(i), expect, "bit {i}");
        }
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut b = BitSet::new(200);
        let set = [0usize, 5, 63, 64, 100, 199];
        for &i in &set {
            b.set(i);
        }
        let mut seen = Vec::new();
        b.for_each_set(|i| seen.push(i));
        assert_eq!(seen, set);
    }

    #[test]
    fn and_not_scan() {
        let mut a = BitSet::new(130);
        let mut bset = BitSet::new(130);
        for i in 0..130 {
            if i % 2 == 0 {
                a.set(i);
            }
            if i % 4 == 0 {
                bset.set(i);
            }
        }
        let mut seen = Vec::new();
        a.for_each_set_and_not(&bset, |i| seen.push(i));
        let expect: Vec<usize> = (0..130).filter(|i| i % 2 == 0 && i % 4 != 0).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn bytes_report_packed_footprint() {
        assert_eq!(BitSet::new(0).bytes(), 0);
        assert_eq!(BitSet::new(1).bytes(), 8);
        assert_eq!(BitSet::new(64).bytes(), 8);
        assert_eq!(BitSet::new(65).bytes(), 16);
    }
}
