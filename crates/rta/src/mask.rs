//! Bitsets over task indices.
//!
//! Every search in `csa-core` describes a higher-priority set as a
//! subset of the task slice's indices, and the simulator in `csa-sim`
//! tracks its ready tasks as a subset of priority ranks. [`TaskMask`] is
//! the one set type both use, at every task count: one `u64` word per 64
//! indices, so a set of up to 64 tasks is exactly one word. Callers
//! build a mask once per search and mutate it in place
//! ([`TaskMask::insert`] / [`TaskMask::remove`]), so no check or
//! scheduling event allocates.

/// A set of indices `0..n` stored as a bitset of `ceil(n / 64)` words
/// (at least one).
///
/// # Examples
///
/// ```
/// use csa_rta::TaskMask;
///
/// let mut hp = TaskMask::full(70); // indices 0..70, two words
/// hp.remove(3);
/// hp.remove(69);
/// assert!(!hp.contains(3));
/// assert_eq!(hp.highest(), Some(68));
/// assert_eq!(hp.iter().take(4).collect::<Vec<_>>(), vec![0, 1, 2, 4]);
/// assert_eq!(hp.single_word(), None);
/// assert_eq!(TaskMask::full(3).single_word(), Some(0b111));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskMask {
    words: Vec<u64>,
}

impl TaskMask {
    /// Indices held per word.
    pub const WORD_BITS: usize = u64::BITS as usize;

    /// The empty set over indices `0..n`.
    pub fn empty(n: usize) -> TaskMask {
        let mut mask = TaskMask::default();
        mask.reset(n);
        mask
    }

    /// The set of every index in `0..n`.
    pub fn full(n: usize) -> TaskMask {
        let mut mask = TaskMask::empty(n);
        let (whole, tail) = (n / Self::WORD_BITS, n % Self::WORD_BITS);
        mask.words[..whole].fill(u64::MAX);
        if tail != 0 {
            mask.words[whole] = (1u64 << tail) - 1;
        }
        mask
    }

    /// The set as one word when it is backed by exactly one (a set over
    /// at most 64 indices), `None` otherwise.
    #[inline]
    pub fn single_word(&self) -> Option<u64> {
        match self.words[..] {
            [word] => Some(word),
            _ => None,
        }
    }

    /// Adds index `i` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the indices the mask was built for.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / Self::WORD_BITS] |= 1u64 << (i % Self::WORD_BITS);
    }

    /// Removes index `i` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the indices the mask was built for.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / Self::WORD_BITS] &= !(1u64 << (i % Self::WORD_BITS));
    }

    /// `true` when index `i` is in the set (`false` beyond the mask's
    /// range).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / Self::WORD_BITS)
            .is_some_and(|w| w & (1u64 << (i % Self::WORD_BITS)) != 0)
    }

    /// Empties the set and sizes it for indices `0..n`, reusing its
    /// storage (allocation-free once it has held `n` indices).
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(Self::WORD_BITS).max(1), 0);
    }

    /// Smallest index in the set that is at least `i`, if any.
    #[inline]
    pub fn next_from(&self, i: usize) -> Option<usize> {
        let mut k = i / Self::WORD_BITS;
        let mut word = self.words.get(k)? & (u64::MAX << (i % Self::WORD_BITS));
        while word == 0 {
            k += 1;
            word = *self.words.get(k)?;
        }
        Some(k * Self::WORD_BITS + word.trailing_zeros() as usize)
    }

    /// Largest index in the set, if any.
    #[inline]
    pub fn highest(&self) -> Option<usize> {
        let (k, w) = self
            .words
            .iter()
            .enumerate()
            .rev()
            .find(|&(_, &w)| w != 0)?;
        Some(k * Self::WORD_BITS + w.ilog2() as usize)
    }

    /// Ascending iterator over the indices in the set.
    #[inline]
    pub fn iter(&self) -> Ones<'_> {
        self.iter_except(usize::MAX)
    }

    /// Ascending iterator over the indices in the set other than `skip`.
    #[inline]
    pub fn iter_except(&self, skip: usize) -> Ones<'_> {
        let (word, rest) = self.words.split_first().unwrap_or((&0, &[]));
        Ones {
            word: word & !bit_in_word(skip, 0),
            base: 0,
            rest,
            skip,
        }
    }
}

/// The bit of index `i` within the word holding indices `base..base + 64`
/// (0 when `i` lies in another word).
#[inline]
fn bit_in_word(i: usize, base: usize) -> u64 {
    match i.wrapping_sub(base) {
        offset @ 0..=63 => 1u64 << offset,
        _ => 0,
    }
}

/// Ascending iterator over the indices of a [`TaskMask`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    word: u64,
    base: usize,
    rest: &'a [u64],
    skip: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&next, rest) = self.rest.split_first()?;
            self.base += TaskMask::WORD_BITS;
            self.word = next & !bit_in_word(self.skip, self.base);
            self.rest = rest;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_count(mask: &TaskMask) -> usize {
        mask.words.len()
    }

    #[test]
    fn word_count_steps_at_the_word_boundaries() {
        for (n, words) in [
            (0, 1),
            (1, 1),
            (63, 1),
            (64, 1),
            (65, 2),
            (128, 2),
            (129, 3),
        ] {
            assert_eq!(word_count(&TaskMask::empty(n)), words, "n = {n}");
            assert_eq!(word_count(&TaskMask::full(n)), words, "n = {n}");
        }
    }

    #[test]
    fn full_sets_exactly_the_first_n_indices() {
        for n in [0, 1, 63, 64, 65, 70, 127, 128, 129] {
            let full = TaskMask::full(n);
            assert_eq!(full.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert_eq!(full.highest(), n.checked_sub(1));
            assert!(!full.contains(n), "n = {n}");
        }
        assert_eq!(TaskMask::full(63).single_word(), Some(u64::MAX >> 1));
        assert_eq!(TaskMask::full(64).single_word(), Some(u64::MAX));
        assert_eq!(TaskMask::full(65).single_word(), None);
    }

    #[test]
    fn insert_and_remove_at_the_word_edges() {
        let mut m = TaskMask::empty(129);
        for i in [0, 63, 64, 127, 128] {
            m.insert(i);
            m.insert(i); // idempotent
            assert!(m.contains(i));
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128]);
        let walked: Vec<usize> =
            std::iter::successors(m.next_from(0), |&i| m.next_from(i + 1)).collect();
        assert_eq!(walked, vec![0, 63, 64, 127, 128]);
        assert_eq!(m.next_from(1), Some(63));
        assert_eq!(m.next_from(65), Some(127));
        assert_eq!(m.next_from(129), None);
        assert_eq!(m.next_from(1000), None);
        assert_eq!(m.highest(), Some(128));
        m.remove(128);
        assert_eq!(m.highest(), Some(127));
        m.remove(127);
        m.remove(64);
        assert_eq!(m.highest(), Some(63));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 63]);
        m.remove(63);
        m.remove(0);
        m.remove(0); // idempotent
        assert_eq!(m.highest(), None);
        assert_eq!(m.iter().next(), None);
        assert_eq!(word_count(&m), 3);
    }

    #[test]
    fn iteration_skips_empty_words() {
        let mut m = TaskMask::empty(200);
        m.insert(5);
        m.insert(190);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![5, 190]);
        m.remove(5);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![190]);
        m.reset(200);
        assert_eq!(m.iter().next(), None);
        assert_eq!(word_count(&m), 4);
        m.reset(64);
        assert_eq!(m.single_word(), Some(0));
        let mut fresh = TaskMask::default();
        fresh.reset(65);
        fresh.insert(64);
        assert_eq!(fresh.iter().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn iter_except_skips_one_index_in_any_word() {
        for n in [3, 64, 129] {
            let full = TaskMask::full(n);
            for skip in [0, 1, 63, 64, 127, 128, 500] {
                let got: Vec<usize> = full.iter_except(skip).collect();
                let want: Vec<usize> = (0..n).filter(|&i| i != skip).collect();
                assert_eq!(got, want, "n {n} skip {skip}");
            }
        }
    }

    #[test]
    fn single_word_tracks_contents() {
        let mut m = TaskMask::empty(64);
        assert_eq!(m.single_word(), Some(0));
        m.insert(63);
        m.insert(1);
        assert_eq!(m.single_word(), Some((1 << 63) | 0b10));
        assert!(!m.contains(64), "out-of-range indices are absent");
        assert_eq!(TaskMask::default().single_word(), None);
        assert_eq!(TaskMask::default().iter().next(), None);
    }
}
