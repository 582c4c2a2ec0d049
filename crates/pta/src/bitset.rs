//! Dense bitsets over `u64` words — the points-to set representation of
//! the worklist Andersen solver, and the object and candidate sets of the
//! RELAY race detector and the weak-lock planner.
//!
//! Points-to analysis spends essentially all of its time unioning one
//! node's set into another's and iterating freshly added elements. A
//! `BTreeSet<ObjId>` pays an allocation and pointer-chasing tax per element
//! on both operations; a dense word array makes a union a handful of `|=`
//! over machine words and membership a shift and a mask. Object ids are
//! already dense (the [`crate::ObjectTable`] numbers them contiguously),
//! so the representation wastes no space.

const WORD_BITS: usize = 64;

/// A fixed-universe dense bitset. Elements are `usize` indices below the
/// universe size given at construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PtsSet {
    words: Vec<u64>,
}

impl PtsSet {
    /// An empty set over a universe of `universe` elements.
    pub fn new(universe: usize) -> PtsSet {
        PtsSet {
            words: vec![0; universe.div_ceil(WORD_BITS)],
        }
    }

    /// Insert `i`, returning `true` if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let old = self.words[w];
        self.words[w] = old | mask;
        old & mask == 0
    }

    /// Remove `i` (a no-op if absent).
    pub fn remove(&mut self, i: usize) {
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Is `i` a member?
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Remove every element, keeping the universe.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Do the two sets share no element?
    pub fn is_disjoint(&self, other: &PtsSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Is every element of `self` in `other`?
    pub fn is_subset(&self, other: &PtsSet) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// The smallest element of `self ∩ other`, if any.
    pub fn first_common(&self, other: &PtsSet) -> Option<usize> {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .find_map(|(w, (a, b))| {
                let both = a & b;
                (both != 0).then(|| w * WORD_BITS + both.trailing_zeros() as usize)
            })
    }

    /// `self ∖= other` (difference, in place).
    pub fn subtract(&mut self, other: &PtsSet) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d &= !s;
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self |= other`; returns `true` if `self` changed. Both sets must
    /// share a universe size.
    pub fn union_from(&mut self, other: &PtsSet) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        let mut changed = 0u64;
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            let old = *d;
            *d = old | s;
            changed |= *d ^ old;
        }
        changed != 0
    }

    /// `self &= other` (intersection, in place).
    pub fn intersect_with(&mut self, other: &PtsSet) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d &= s;
        }
    }

    /// `self ∖ other` as a new set — the *delta* the worklist solver
    /// propagates.
    pub fn minus(&self, other: &PtsSet) -> PtsSet {
        let mut out = PtsSet::default();
        out.assign_minus(self, other);
        out
    }

    /// Set `self` to `a ∖ b`, reusing this set's allocation. The solver
    /// calls this once per worklist pop, so avoiding a fresh `Vec` here
    /// matters.
    pub fn assign_minus(&mut self, a: &PtsSet, b: &PtsSet) {
        debug_assert_eq!(a.words.len(), b.words.len());
        self.words.clear();
        self.words
            .extend(a.words.iter().zip(&b.words).map(|(x, y)| x & !y));
    }

    /// Elements of `self` not in `earlier`, in ascending order — the
    /// *delta* the worklist solver propagates.
    pub fn difference<'a>(&'a self, earlier: &'a PtsSet) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.words.len(), earlier.words.len());
        BitIter {
            words: Diff {
                a: &self.words,
                b: &earlier.words,
            },
            word_idx: 0,
            current: 0,
            primed: false,
        }
    }

    /// All elements, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        BitIter {
            words: All { a: &self.words },
            word_idx: 0,
            current: 0,
            primed: false,
        }
    }
}

/// Word-stream abstraction so `iter` and `difference` share one bit walker.
trait WordStream {
    fn word(&self, i: usize) -> Option<u64>;
}

struct All<'a> {
    a: &'a [u64],
}

impl WordStream for All<'_> {
    fn word(&self, i: usize) -> Option<u64> {
        self.a.get(i).copied()
    }
}

struct Diff<'a> {
    a: &'a [u64],
    b: &'a [u64],
}

impl WordStream for Diff<'_> {
    fn word(&self, i: usize) -> Option<u64> {
        Some(self.a.get(i)? & !self.b.get(i).copied().unwrap_or(0))
    }
}

struct BitIter<W> {
    words: W,
    word_idx: usize,
    current: u64,
    primed: bool,
}

impl<W: WordStream> Iterator for BitIter<W> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if !self.primed {
                self.current = self.words.word(self.word_idx)?;
                self.primed = true;
            }
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            self.primed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = PtsSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports no change");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_reports_change_precisely() {
        let mut a = PtsSet::new(100);
        let mut b = PtsSet::new(100);
        b.insert(7);
        b.insert(99);
        assert!(a.union_from(&b));
        assert!(!a.union_from(&b), "idempotent union reports no change");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![7, 99]);
    }

    #[test]
    fn difference_yields_only_new_elements() {
        let mut now = PtsSet::new(200);
        let mut before = PtsSet::new(200);
        for i in [3, 64, 65, 190] {
            now.insert(i);
        }
        before.insert(64);
        before.insert(3);
        let delta: Vec<usize> = now.difference(&before).collect();
        assert_eq!(delta, vec![65, 190]);
    }

    #[test]
    fn assign_minus_reuses_any_prior_state() {
        let mut a = PtsSet::new(100);
        let mut b = PtsSet::new(100);
        for i in [2, 40, 99] {
            a.insert(i);
        }
        b.insert(40);
        let mut scratch = PtsSet::new(7); // wrong size on purpose
        scratch.insert(3);
        scratch.assign_minus(&a, &b);
        assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![2, 99]);
        assert_eq!(scratch, a.minus(&b));
    }

    #[test]
    fn iter_is_sorted_across_word_boundaries() {
        let mut s = PtsSet::new(300);
        let elems = [299, 0, 63, 64, 127, 128, 200];
        for e in elems {
            s.insert(e);
        }
        let got: Vec<usize> = s.iter().collect();
        let mut want = elems.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn intersect_keeps_common_elements() {
        let mut a = PtsSet::new(70);
        let mut b = PtsSet::new(70);
        for i in [1, 5, 69] {
            a.insert(i);
        }
        for i in [5, 69] {
            b.insert(i);
        }
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 69]);
    }

    #[test]
    fn set_relations_and_first_common() {
        let set = |xs: &[usize]| {
            let mut s = PtsSet::new(200);
            for &x in xs {
                s.insert(x);
            }
            s
        };
        let (a, b) = (set(&[3, 70, 150]), set(&[70, 150, 199]));
        assert_eq!(a.first_common(&b), Some(70));
        assert_eq!(set(&[3]).first_common(&b), None);
        assert!(set(&[3, 4]).is_disjoint(&b) && !a.is_disjoint(&b));
        assert!(set(&[70, 199]).is_subset(&b) && !a.is_subset(&b));
        assert!(PtsSet::new(200).is_subset(&a));
        let mut d = a.clone();
        d.subtract(&b);
        d.remove(64);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![3]);
        d.remove(3);
        assert!(d.is_empty());
        let mut c = a;
        c.clear();
        assert!(c.is_empty() && c.insert(199));
    }

    #[test]
    fn empty_universe_is_fine() {
        let s = PtsSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
