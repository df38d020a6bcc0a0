//! A small fixed-capacity bit set used by the matrix arbiters.
//!
//! Radices in this crate are at most a few hundred, so a `Vec<u64>`-backed
//! set with no growth logic is both simple and fast. The arbiters use it
//! for request masks and priority-matrix rows.

/// A fixed-capacity set of bits indexed `0..capacity`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold bits `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Number of bit positions this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn insert(&mut self, index: usize) {
        assert!(index < self.capacity, "bit index {index} out of range");
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Clears bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn remove(&mut self, index: usize) {
        assert!(index < self.capacity, "bit index {index} out of range");
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// Returns whether bit `index` is set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        assert!(index < self.capacity, "bit index {index} out of range");
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit `0..capacity` in one word-level pass. Bits at or
    /// beyond `capacity` stay zero, preserving the invariants `len`,
    /// `iter` and the superset tests rely on.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        self.mask_tail();
    }

    /// Sets every bit `0..capacity` except `skip` in one word-level
    /// pass — the priority-matrix "new winner outranks nobody, everyone
    /// outranks the winner" reset, without a per-bit loop.
    ///
    /// # Panics
    ///
    /// Panics if `skip >= capacity`.
    pub fn set_all_except(&mut self, skip: usize) {
        assert!(skip < self.capacity, "bit index {skip} out of range");
        self.words.fill(!0);
        self.words[skip / 64] &= !(1u64 << (skip % 64));
        self.mask_tail();
    }

    /// Makes `self` an exact copy of `other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// ORs a raw mask into word `word`; the arbiter update loop uses
    /// this to splice one precomputed bit into every row without
    /// re-deriving the word index and shift per row.
    ///
    /// Stray mask bits at or beyond `capacity` are dropped, preserving
    /// the tail invariant (`len`, `iter` and the superset tests assume
    /// bits past the capacity are zero) even for capacities that are not
    /// multiples of 64.
    // Part of the word-ops API surface; the hot kernels moved to raw
    // `[u64]` scratch, so outside tests (which pin the tail-masking
    // semantics at odd radices) this currently has no callers.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub(crate) fn or_word(&mut self, word: usize, mask: u64) {
        debug_assert!(word < self.words.len(), "word index {word} out of range");
        self.words[word] |= mask & self.valid_mask(word);
    }

    /// Reads word `word` of the backing storage. The tail invariant
    /// guarantees bits at or beyond `capacity` read as zero.
    #[allow(dead_code)]
    #[inline]
    pub(crate) fn word(&self, word: usize) -> u64 {
        self.words[word]
    }

    /// Mask of the bit positions in word `word` that are inside
    /// `capacity` — all-ones except for a partial tail word.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub(crate) fn valid_mask(&self, word: usize) -> u64 {
        let tail = self.capacity % 64;
        if tail != 0 && word + 1 == self.words.len() {
            (1u64 << tail) - 1
        } else {
            !0
        }
    }

    /// Zeroes any bits at or beyond `capacity` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Asserts the tail invariant: no bits at or beyond `capacity`.
    #[cfg(test)]
    pub(crate) fn assert_tail_invariant(&self) {
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last() {
                assert_eq!(
                    last & !((1u64 << tail) - 1),
                    0,
                    "stray bits beyond capacity {}",
                    self.capacity
                );
            }
        }
    }

    /// Returns whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns whether `self` contains every bit of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_superset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }

    /// Returns whether `self` contains every bit of `other` except
    /// possibly bit `skip` — equivalent to cloning `other`, removing
    /// `skip` and calling [`is_superset`](Self::is_superset), without
    /// the allocation. This is the arbiter's hot path.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ or `skip` is out of range.
    pub fn is_superset_except(&self, other: &BitSet, skip: usize) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        assert!(skip < self.capacity, "bit index {skip} out of range");
        let skip_word = skip / 64;
        let skip_mask = !(1u64 << (skip % 64));
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .all(|(w, (a, b))| {
                let expected = if w == skip_word { b & skip_mask } else { *b };
                a & expected == expected
            })
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set bit indices, produced by [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * 64 + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_index];
        }
    }
}

impl Default for BitSet {
    /// An empty zero-capacity set; placeholder for scratch structures
    /// that are sized later (allocation-free, `vec![0; 0]` does not
    /// allocate).
    fn default() -> Self {
        Self::new(0)
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the largest element (capacity = max + 1).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let capacity = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(capacity);
        for item in items {
            set.insert(item);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut set = BitSet::new(130);
        assert!(set.is_empty());
        set.insert(0);
        set.insert(64);
        set.insert(129);
        assert!(set.contains(0));
        assert!(set.contains(64));
        assert!(set.contains(129));
        assert!(!set.contains(1));
        assert_eq!(set.len(), 3);
        set.remove(64);
        assert!(!set.contains(64));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn iter_visits_bits_in_order() {
        let mut set = BitSet::new(200);
        for index in [5, 63, 64, 65, 128, 199] {
            set.insert(index);
        }
        let seen: Vec<usize> = set.iter().collect();
        assert_eq!(seen, vec![5, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn superset_logic() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(65);
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        b.insert(2);
        assert!(!a.is_superset(&b));
    }

    #[test]
    fn superset_except_matches_clone_and_remove() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(1);
        b.insert(65);
        b.insert(3);
        // a lacks bit 3, so plain superset fails but skipping 3 passes.
        assert!(!a.is_superset(&b));
        assert!(a.is_superset_except(&b, 3));
        assert!(!a.is_superset_except(&b, 65), "still missing bit 3");
        // Reference behaviour: clone, remove, is_superset.
        let mut reference = b.clone();
        reference.remove(3);
        assert_eq!(a.is_superset(&reference), a.is_superset_except(&b, 3));
    }

    #[test]
    fn clear_resets_everything() {
        let mut set = BitSet::new(10);
        set.insert(3);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let set: BitSet = [3usize, 9, 1].into_iter().collect();
        assert_eq!(set.capacity(), 10);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1, 3, 9]);
    }

    #[test]
    fn set_all_masks_the_tail_word() {
        for capacity in [1usize, 63, 64, 65, 70, 128, 130] {
            let mut set = BitSet::new(capacity);
            set.set_all();
            assert_eq!(set.len(), capacity, "capacity {capacity}");
            assert_eq!(set.iter().count(), capacity);
            assert!(set.contains(capacity - 1));
        }
    }

    #[test]
    fn set_all_except_drops_exactly_one_bit() {
        for capacity in [1usize, 64, 70, 130] {
            for skip in [0, capacity / 2, capacity - 1] {
                let mut set = BitSet::new(capacity);
                set.set_all_except(skip);
                assert_eq!(set.len(), capacity - 1, "capacity {capacity} skip {skip}");
                assert!(!set.contains(skip));
                // Matches the reference formulation: set_all then remove.
                let mut reference = BitSet::new(capacity);
                reference.set_all();
                reference.remove(skip);
                assert_eq!(set, reference);
            }
        }
    }

    #[test]
    fn copy_from_replicates_contents() {
        let mut src = BitSet::new(130);
        src.insert(0);
        src.insert(129);
        let mut dst = BitSet::new(130);
        dst.insert(5);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn copy_from_rejects_capacity_mismatch() {
        let mut dst = BitSet::new(8);
        dst.copy_from(&BitSet::new(9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_all_except_out_of_range_panics() {
        let mut set = BitSet::new(8);
        set.set_all_except(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let set = BitSet::new(8);
        let _ = set.contains(8);
    }

    #[test]
    fn zero_capacity_is_fine() {
        let set = BitSet::new(0);
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn or_word_drops_stray_bits_beyond_capacity() {
        for capacity in [17usize, 33, 63, 65, 130] {
            let mut set = BitSet::new(capacity);
            let last = capacity.div_ceil(64) - 1;
            // An all-ones mask into every word must produce exactly the
            // full set, never bits past the capacity.
            for word in 0..=last {
                set.or_word(word, !0);
            }
            set.assert_tail_invariant();
            assert_eq!(set.len(), capacity, "capacity {capacity}");
            assert_eq!(set.iter().count(), capacity);
            let mut reference = BitSet::new(capacity);
            reference.set_all();
            assert_eq!(set, reference, "capacity {capacity}");
        }
    }

    #[test]
    fn or_word_keeps_in_range_bits() {
        let mut set = BitSet::new(65);
        set.or_word(1, 0b1); // bit 64: last valid bit
        assert!(set.contains(64));
        set.or_word(0, 1 << 63);
        assert!(set.contains(63));
        assert_eq!(set.len(), 2);
        set.assert_tail_invariant();
    }

    #[test]
    fn word_level_passes_hold_tail_invariant_under_fuzz() {
        // Seeded pseudo-random mix of all word-level mutators at awkward
        // capacities; the tail invariant must hold after every step.
        let mut state = 0x5EED_B175u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for capacity in [17usize, 33, 63, 65] {
            let mut set = BitSet::new(capacity);
            let mut other = BitSet::new(capacity);
            for _ in 0..200 {
                match next() % 5 {
                    0 => set.set_all(),
                    1 => set.set_all_except(next() as usize % capacity),
                    2 => {
                        other.set_all_except(next() as usize % capacity);
                        set.copy_from(&other);
                    }
                    3 => set.or_word(
                        (next() as usize) % capacity.div_ceil(64),
                        next() | (next() << 32),
                    ),
                    _ => set.clear(),
                }
                set.assert_tail_invariant();
                assert!(set.len() <= capacity);
                assert_eq!(set.iter().count(), set.len());
            }
        }
    }
}
