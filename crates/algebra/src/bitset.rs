//! A compact fixed-capacity bitset used to represent sets of basis
//! attributes (atoms).
//!
//! The membership algorithm's complexity analysis (Section 6 of the paper)
//! treats nested attributes as their sets of basis attributes; `AtomSet`
//! makes the lattice operations `⊔`/`⊓` single-pass word operations.
//!
//! Storage is a *width class* chosen by capacity: universes of up to
//! 128, 256 and 512 atoms are stored inline as `[u64; 2]`, `[u64; 4]`
//! and `[u64; 8]` respectively, and every binary operation dispatches
//! once on the class pair into a width-specialized kernel
//! (the private `kernels` module) whose loop trip count is a compile-time
//! constant — no heap traffic, no per-word bounds checks, and a loop
//! body LLVM unrolls and autovectorizes. Larger universes fall back to a
//! heap-allocated word vector with the same kernel shapes. Because the
//! class is a pure function of capacity ([`WidthClass::for_capacity`]),
//! all sets of one [`crate::Algebra`] share one class and the dispatch
//! branch is perfectly predicted on the closure engine's hot path.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::atoms::AlgebraError;
use crate::kernels;

const W2_ATOMS: usize = 128;
const W4_ATOMS: usize = 256;
const W8_ATOMS: usize = 512;

/// The storage width class of an [`AtomSet`] capacity: which inline
/// word count (or the heap fallback) backs sets of that capacity.
///
/// Selected once per [`crate::Algebra`] construction — every set drawn
/// from the same universe has the same class, so kernel dispatch is
/// per-algebra in effect even though it is expressed per-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WidthClass {
    /// `[u64; 2]` inline — up to 128 atoms.
    W2,
    /// `[u64; 4]` inline — up to 256 atoms.
    W4,
    /// `[u64; 8]` inline — up to 512 atoms.
    W8,
    /// Heap `Vec<u64>` — beyond 512 atoms.
    Heap,
}

impl WidthClass {
    /// The class backing sets of the given capacity.
    pub fn for_capacity(len: usize) -> Self {
        if len <= W2_ATOMS {
            WidthClass::W2
        } else if len <= W4_ATOMS {
            WidthClass::W4
        } else if len <= W8_ATOMS {
            WidthClass::W8
        } else {
            WidthClass::Heap
        }
    }

    /// Stable lowercase name, used in benchmark JSON and metrics.
    pub fn name(self) -> &'static str {
        match self {
            WidthClass::W2 => "w2",
            WidthClass::W4 => "w4",
            WidthClass::W8 => "w8",
            WidthClass::Heap => "heap",
        }
    }
}

impl fmt::Display for WidthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Clone)]
enum Words {
    W2([u64; 2]),
    W4([u64; 4]),
    W8([u64; 8]),
    Heap(Vec<u64>),
}

/// Binary operations only ever mix width classes when the operands'
/// capacities differ, which the public reasoning boundary rejects with a
/// typed [`crate::AlgebraError`] before any kernel runs; hitting this in
/// release mode means a set from one universe leaked into another's
/// engine through a non-public path.
#[cold]
#[inline(never)]
fn width_mismatch() -> ! {
    panic!("AtomSet binary operation across different width classes (capacity mismatch)")
}

/// Dispatches a mutating binary kernel on the width-class pair.
macro_rules! dispatch2_mut {
    ($a:expr, $b:expr, $k:ident) => {
        match (&mut $a.words, &$b.words) {
            (Words::W2(x), Words::W2(y)) => kernels::$k(x, y),
            (Words::W4(x), Words::W4(y)) => kernels::$k(x, y),
            (Words::W8(x), Words::W8(y)) => kernels::$k(x, y),
            (Words::Heap(x), Words::Heap(y)) => kernels::slice::$k(x, y),
            _ => width_mismatch(),
        }
    };
}

/// Dispatches a read-only binary kernel on the width-class pair.
macro_rules! dispatch2_ref {
    ($a:expr, $b:expr, $k:ident) => {
        match (&$a.words, &$b.words) {
            (Words::W2(x), Words::W2(y)) => kernels::$k(x, y),
            (Words::W4(x), Words::W4(y)) => kernels::$k(x, y),
            (Words::W8(x), Words::W8(y)) => kernels::$k(x, y),
            (Words::Heap(x), Words::Heap(y)) => kernels::slice::$k(x, y),
            _ => width_mismatch(),
        }
    };
}

/// A set of atom indices `0..len`, backed by `u64` words.
///
/// Equality, hashing and ordering are structural — capacity first, then
/// the words lexicographically — so `AtomSet` can key hash maps and
/// ordered sets (the dependency-basis blocks are kept deduplicated and
/// deterministically ordered this way). All binary operations require
/// both operands to have the same capacity.
#[derive(Clone)]
pub struct AtomSet {
    len: usize,
    words: Words,
}

impl AtomSet {
    /// The empty set with capacity for `len` atoms.
    pub fn empty(len: usize) -> Self {
        let words = match WidthClass::for_capacity(len) {
            WidthClass::W2 => Words::W2([0; 2]),
            WidthClass::W4 => Words::W4([0; 4]),
            WidthClass::W8 => Words::W8([0; 8]),
            WidthClass::Heap => Words::Heap(vec![0; len.div_ceil(64)]),
        };
        AtomSet { len, words }
    }

    /// The full set `{0, …, len-1}`.
    pub fn full(len: usize) -> Self {
        let mut s = Self::empty(len);
        for w in s.words_mut() {
            *w = u64::MAX;
        }
        s.mask_tail();
        s
    }

    /// Builds a set from an iterator of indices.
    pub fn from_indices(len: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(len);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Capacity (number of atoms in the universe, *not* the cardinality).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// The storage width class backing this set's capacity.
    pub fn width_class(&self) -> WidthClass {
        WidthClass::for_capacity(self.len)
    }

    /// Number of backing words (`⌈capacity / 64⌉`).
    #[inline]
    pub fn word_count(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// The `i`-th backing word (bits `64·i .. 64·i+63`).
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words()[i]
    }

    /// Builds a set of capacity `len` from its width-exact words — the
    /// inverse of [`AtomSet::words`]. Checked, because the words may come
    /// from outside (a snapshot): a word count for another capacity is
    /// [`AlgebraError::CapacityMismatch`], and a set bit at or above `len`
    /// is [`AlgebraError::AtomOutOfRange`], so no kernel ever sees an atom
    /// outside the universe. Always inlined: a cache hit that derives a
    /// full basis converts one set per block, and a call per set costs
    /// more than the conversion.
    #[inline(always)]
    pub fn from_words(len: usize, words: &[u64]) -> Result<AtomSet, AlgebraError> {
        if words.len() != len.div_ceil(64) {
            return Err(AlgebraError::CapacityMismatch {
                have: 64 * words.len(),
                want: len,
            });
        }
        let tail = words.last().map_or(0, |&w| match len % 64 {
            0 => 0,
            used => w >> used << used,
        });
        if tail != 0 {
            return Err(AlgebraError::AtomOutOfRange {
                atom: 64 * (words.len() - 1) + 63 - tail.leading_zeros() as usize,
                capacity: len,
            });
        }
        fn inline<const N: usize>(words: &[u64]) -> [u64; N] {
            let mut a = [0; N];
            for (to, &from) in a.iter_mut().zip(words) {
                *to = from;
            }
            a
        }
        let words = match WidthClass::for_capacity(len) {
            WidthClass::W2 => Words::W2(inline(words)),
            WidthClass::W4 => Words::W4(inline(words)),
            WidthClass::W8 => Words::W8(inline(words)),
            WidthClass::Heap => Words::Heap(words.to_vec()),
        };
        Ok(AtomSet { len, words })
    }

    /// The width-exact words of the set: `⌈capacity / 64⌉` of them, bit
    /// `i` of word `k` standing for atom `64·k + i`. The index-addressed
    /// accessors, iteration and the structural impls read these; the
    /// kernels bypass them and run over the class's full inline width
    /// (tail words are kept zero by `mask_tail`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        let n = self.len.div_ceil(64);
        match &self.words {
            Words::W2(a) => &a[..n],
            Words::W4(a) => &a[..n],
            Words::W8(a) => &a[..n],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = self.len.div_ceil(64);
        match &mut self.words {
            Words::W2(a) => &mut a[..n],
            Words::W4(a) => &mut a[..n],
            Words::W8(a) => &mut a[..n],
            Words::Heap(v) => v,
        }
    }

    /// Zeroes the bits above `len` in the last used word (bits in unused
    /// inline tail words are zero by construction and stay zero under
    /// every kernel).
    fn mask_tail(&mut self) {
        let len = self.len;
        if len % 64 != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
    }

    /// Removes all elements (capacity unchanged).
    pub fn clear(&mut self) {
        match &mut self.words {
            Words::W2(a) => kernels::clear(a),
            Words::W4(a) => kernels::clear(a),
            Words::W8(a) => kernels::clear(a),
            Words::Heap(v) => kernels::slice::clear(v),
        }
    }

    /// Overwrites `self` with the contents of `other` (same capacity).
    pub fn copy_from(&mut self, other: &AtomSet) {
        debug_assert_eq!(self.len, other.len);
        dispatch2_mut!(self, other, copy);
    }

    /// Inserts index `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Removes index `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Does the set contain `i`?
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words()[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        match &self.words {
            Words::W2(a) => kernels::count(a),
            Words::W4(a) => kernels::count(a),
            Words::W8(a) => kernels::count(a),
            Words::Heap(v) => kernels::slice::count(v),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        match &self.words {
            Words::W2(a) => kernels::is_empty(a),
            Words::W4(a) => kernels::is_empty(a),
            Words::W8(a) => kernels::is_empty(a),
            Words::Heap(v) => kernels::slice::is_empty(v),
        }
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &AtomSet) {
        debug_assert_eq!(self.len, other.len);
        dispatch2_mut!(self, other, union);
    }

    /// In-place union that reports whether any new bit was set — the
    /// fused `a ⊔ b`-with-changed-flag kernel of the worklist engine,
    /// replacing a separate `is_subset` probe plus `union_with` pass.
    #[inline]
    pub fn union_with_changed(&mut self, other: &AtomSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        dispatch2_mut!(self, other, union_changed)
    }

    /// `self ⊔= a ⊓ ¬b`, fused in one word pass: the and-not is never
    /// materialised as an intermediate set. This is the worklist engine's
    /// "accumulate the newly-dirtied atoms" kernel.
    #[inline]
    pub fn union_andnot(&mut self, a: &AtomSet, b: &AtomSet) {
        debug_assert_eq!(self.len, a.len);
        debug_assert_eq!(self.len, b.len);
        match (&mut self.words, &a.words, &b.words) {
            (Words::W2(s), Words::W2(x), Words::W2(y)) => kernels::union_andnot(s, x, y),
            (Words::W4(s), Words::W4(x), Words::W4(y)) => kernels::union_andnot(s, x, y),
            (Words::W8(s), Words::W8(x), Words::W8(y)) => kernels::union_andnot(s, x, y),
            (Words::Heap(s), Words::Heap(x), Words::Heap(y)) => {
                kernels::slice::union_andnot(s, x, y);
            }
            _ => width_mismatch(),
        }
    }

    /// In-place intersection.
    #[inline]
    pub fn intersect_with(&mut self, other: &AtomSet) {
        debug_assert_eq!(self.len, other.len);
        dispatch2_mut!(self, other, intersect);
    }

    /// In-place difference (`self \ other`).
    #[inline]
    pub fn difference_with(&mut self, other: &AtomSet) {
        debug_assert_eq!(self.len, other.len);
        dispatch2_mut!(self, other, difference);
    }

    /// Union, by value.
    #[must_use]
    pub fn union(&self, other: &AtomSet) -> AtomSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Intersection, by value.
    #[must_use]
    pub fn intersect(&self, other: &AtomSet) -> AtomSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Difference, by value.
    #[must_use]
    pub fn difference(&self, other: &AtomSet) -> AtomSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Is `self ⊆ other`?
    #[inline]
    pub fn is_subset(&self, other: &AtomSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        dispatch2_ref!(self, other, is_subset)
    }

    /// Do the sets intersect?
    #[inline]
    pub fn intersects(&self, other: &AtomSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        dispatch2_ref!(self, other, intersects)
    }

    /// Is `self ∩ other \ excl` non-empty? Word-parallel form of the
    /// closure engine's anchoring test (`∃a ∈ U ∩ W: a ∉ X_new`), fused so
    /// no intermediate set is materialised.
    #[inline]
    pub fn intersects_excluding(&self, other: &AtomSet, excl: &AtomSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        debug_assert_eq!(self.len, excl.len);
        match (&self.words, &other.words, &excl.words) {
            (Words::W2(a), Words::W2(b), Words::W2(e)) => kernels::intersects_excluding(a, b, e),
            (Words::W4(a), Words::W4(b), Words::W4(e)) => kernels::intersects_excluding(a, b, e),
            (Words::W8(a), Words::W8(b), Words::W8(e)) => kernels::intersects_excluding(a, b, e),
            (Words::Heap(a), Words::Heap(b), Words::Heap(e)) => {
                kernels::slice::intersects_excluding(a, b, e)
            }
            _ => width_mismatch(),
        }
    }

    /// Iterates over the contained indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

impl PartialEq for AtomSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for AtomSet {}

impl Hash for AtomSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl PartialOrd for AtomSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AtomSet {
    /// Capacity first, then words lexicographically — the same order the
    /// seed's derived `(len, Vec<u64>)` implementation produced, which the
    /// deterministic block/basis output order depends on.
    fn cmp(&self, other: &Self) -> Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.words().cmp(other.words()))
    }
}

impl fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = AtomSet::empty(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.count(), 3);
        assert!(s.contains(64) && !s.contains(63));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn set_algebra() {
        let a = AtomSet::from_indices(10, [1, 2, 3]);
        let b = AtomSet::from_indices(10, [3, 4]);
        assert_eq!(a.union(&b), AtomSet::from_indices(10, [1, 2, 3, 4]));
        assert_eq!(a.intersect(&b), AtomSet::from_indices(10, [3]));
        assert_eq!(a.difference(&b), AtomSet::from_indices(10, [1, 2]));
        assert!(AtomSet::from_indices(10, [1, 3]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&AtomSet::from_indices(10, [5])));
    }

    #[test]
    fn full_and_empty() {
        let f = AtomSet::full(65);
        assert_eq!(f.count(), 65);
        assert!(AtomSet::empty(65).is_subset(&f));
        let e = AtomSet::empty(0);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn ordering_is_deterministic() {
        let a = AtomSet::from_indices(8, [1]);
        let b = AtomSet::from_indices(8, [2]);
        assert!(a < b);
        let mut v = vec![b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }

    #[test]
    fn debug_format() {
        let a = AtomSet::from_indices(8, [1, 5]);
        assert_eq!(format!("{a:?}"), "{1, 5}");
    }

    #[test]
    fn width_class_by_capacity() {
        for (cap, class) in [
            (0usize, WidthClass::W2),
            (1, WidthClass::W2),
            (128, WidthClass::W2),
            (129, WidthClass::W4),
            (256, WidthClass::W4),
            (257, WidthClass::W8),
            (512, WidthClass::W8),
            (513, WidthClass::Heap),
            (100_000, WidthClass::Heap),
        ] {
            assert_eq!(WidthClass::for_capacity(cap), class, "capacity {cap}");
            assert_eq!(AtomSet::empty(cap).width_class(), class);
        }
        assert_eq!(WidthClass::W4.name(), "w4");
        assert_eq!(WidthClass::Heap.to_string(), "heap");
    }

    #[test]
    fn every_width_class_agrees() {
        // the same logical sets at one capacity per width class behave
        // identically across the whole API
        for cap in [100usize, 200, 300, 600] {
            let a = AtomSet::from_indices(cap, [0, 63, 64, 97]);
            let b = AtomSet::from_indices(cap, [63, 97, 99]);
            assert_eq!(
                a.union(&b).iter().collect::<Vec<_>>(),
                vec![0, 63, 64, 97, 99]
            );
            assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![63, 97]);
            assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![0, 64]);
            assert!(a.intersects_excluding(&b, &AtomSet::from_indices(cap, [63])));
            assert!(!a.intersects_excluding(&b, &AtomSet::from_indices(cap, [63, 97])));
            let mut c = AtomSet::empty(cap);
            c.copy_from(&a);
            assert_eq!(c, a);
            c.clear();
            assert!(c.is_empty());
        }
    }

    #[test]
    fn fused_kernels_match_composed_ops() {
        // one capacity per width class, each taking a different storage path
        for cap in [100usize, 200, 300, 600] {
            let a = AtomSet::from_indices(cap, [0, 63, 64, 97]);
            let b = AtomSet::from_indices(cap, [63, 97, 99]);

            // union_with_changed == (grew?) + union_with
            let mut u = a.clone();
            assert!(u.union_with_changed(&b));
            assert_eq!(u, a.union(&b));
            let mut again = u.clone();
            assert!(!again.union_with_changed(&b), "no new bits the second time");
            assert_eq!(again, u);
            let mut from_empty = AtomSet::empty(cap);
            assert!(!from_empty.union_with_changed(&AtomSet::empty(cap)));

            // union_andnot == union_with(difference)
            let mut acc = AtomSet::from_indices(cap, [5]);
            acc.union_andnot(&a, &b);
            let mut expect = AtomSet::from_indices(cap, [5]);
            expect.union_with(&a.difference(&b));
            assert_eq!(acc, expect);
            let mut acc2 = AtomSet::empty(cap);
            acc2.union_andnot(&b, &b);
            assert!(acc2.is_empty(), "x ⊓ ¬x accumulates nothing");
        }
    }

    #[test]
    fn full_masks_tail_bits() {
        for cap in [
            1usize, 63, 64, 65, 127, 128, 129, 190, 255, 256, 257, 511, 512, 513,
        ] {
            let f = AtomSet::full(cap);
            assert_eq!(f.count(), cap, "capacity {cap}");
            assert_eq!(f.iter().max(), cap.checked_sub(1));
        }
    }

    #[test]
    fn words_round_trip_at_every_width() {
        for cap in [0usize, 1, 63, 64, 65, 128, 129, 256, 257, 513] {
            let s = AtomSet::from_indices(cap, (0..cap).step_by(7).chain(cap.checked_sub(1)));
            assert_eq!(s.words().len(), cap.div_ceil(64), "capacity {cap}");
            assert_eq!(AtomSet::from_words(cap, s.words()), Ok(s));
        }
    }

    #[test]
    fn from_words_rejects_foreign_words() {
        assert_eq!(
            AtomSet::from_words(65, &[0]),
            Err(AlgebraError::CapacityMismatch { have: 64, want: 65 })
        );
        assert_eq!(
            AtomSet::from_words(65, &[0, 0b110]),
            Err(AlgebraError::AtomOutOfRange {
                atom: 66,
                capacity: 65
            })
        );
        assert_eq!(
            AtomSet::from_words(3, &[1 << 63]),
            Err(AlgebraError::AtomOutOfRange {
                atom: 63,
                capacity: 3
            })
        );
        assert!(AtomSet::from_words(64, &[u64::MAX]).is_ok());
    }

    #[test]
    fn word_accessors() {
        let a = AtomSet::from_indices(130, [0, 64, 129]);
        assert_eq!(a.word_count(), 3);
        assert_eq!(a.word(0), 1);
        assert_eq!(a.word(1), 1);
        assert_eq!(a.word(2), 2);
    }

    // panics via `debug_assert_eq!` in debug builds and via the cold
    // `width_mismatch` path in release builds — message differs, so no
    // `expected` substring
    #[test]
    #[should_panic]
    fn cross_class_operation_panics() {
        let a = AtomSet::empty(100); // W2
        let mut b = AtomSet::empty(200); // W4
        b.union_with(&a);
    }
}
