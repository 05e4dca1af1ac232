//! Exact lock-set representation for the *ideal* lockset detector.
//!
//! The paper's "ideal" configuration (§4) maintains candidate sets "at
//! variable granularity for all variables using complete set
//! representation, as in software implementations of the lockset
//! algorithm". [`ExactSet`] is that representation: either the universe
//! of all possible locks (the initial candidate set) or a finite set of
//! lock addresses.
//!
//! The ideal detector keeps one set per tracked 4-byte granule, so the
//! set is 16 bytes: a finite set is a sorted, deduplicated boxed slice,
//! and the universe sits in the pointer's niche. The empty set
//! allocates nothing, and the in-place intersection allocates only
//! when the set shrinks to a non-empty proper subset.

use hard_types::LockId;
use std::fmt;

/// An exact lock set: the universe, or a finite set.
#[derive(Clone, PartialEq, Eq)]
pub struct ExactSet(Repr);

/// The representation. Equality is structural, which is set equality
/// because a finite set is kept sorted and deduplicated.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// "All possible locks" — the initial candidate set C(v).
    Universe,
    /// A concrete, possibly empty, set of locks in ascending order.
    Finite(Box<[LockId]>),
}

impl ExactSet {
    /// The universe ("all possible locks").
    #[must_use]
    pub fn full() -> ExactSet {
        ExactSet(Repr::Universe)
    }

    /// The empty set.
    #[must_use]
    pub fn empty() -> ExactSet {
        ExactSet(Repr::Finite(Box::default()))
    }

    /// A finite set from a list of locks.
    #[must_use]
    pub fn from_locks(locks: &[LockId]) -> ExactSet {
        locks.iter().copied().collect()
    }

    /// Adds a lock. Adding to the universe is a no-op.
    pub fn insert(&mut self, lock: LockId) {
        if let Repr::Finite(s) = &mut self.0 {
            if let Err(i) = s.binary_search(&lock) {
                let mut v = Vec::with_capacity(s.len() + 1);
                v.extend_from_slice(&s[..i]);
                v.push(lock);
                v.extend_from_slice(&s[i..]);
                *s = v.into_boxed_slice();
            }
        }
    }

    /// Removes a lock.
    ///
    /// # Panics
    ///
    /// Panics when called on the universe — removal from "all possible
    /// locks" is never meaningful in the algorithm, so reaching it is a
    /// logic error.
    pub fn remove(&mut self, lock: LockId) {
        match &mut self.0 {
            Repr::Universe => panic!("cannot remove a lock from the universe set"),
            Repr::Finite(s) => {
                if s.binary_search(&lock).is_ok() {
                    *s = s.iter().copied().filter(|&l| l != lock).collect();
                }
            }
        }
    }

    /// Membership test (exact; no false positives).
    #[must_use]
    pub fn contains(&self, lock: LockId) -> bool {
        match &self.0 {
            Repr::Universe => true,
            Repr::Finite(s) => s.binary_search(&lock).is_ok(),
        }
    }

    /// Exact set intersection.
    #[must_use]
    pub fn intersect(&self, other: &ExactSet) -> ExactSet {
        let mut out = self.clone();
        out.intersect_assign(other);
        out
    }

    /// In-place intersection; returns whether `self` changed.
    ///
    /// Equivalent to `*self = self.intersect(other)`, but allocates
    /// nothing when `self ⊆ other` (e.g. the same lock set protects the
    /// variable on every access) or when the result is empty.
    pub fn intersect_assign(&mut self, other: &ExactSet) -> bool {
        match (&mut self.0, &other.0) {
            (_, Repr::Universe) => false,
            (Repr::Universe, Repr::Finite(_)) => {
                self.0 = other.0.clone();
                true
            }
            (Repr::Finite(a), Repr::Finite(b)) => {
                let kept = a.iter().filter(|l| b.binary_search(l).is_ok()).count();
                if kept == a.len() {
                    return false;
                }
                let mut v = Vec::with_capacity(kept);
                v.extend(a.iter().filter(|l| b.binary_search(l).is_ok()));
                *a = v.into_boxed_slice();
                true
            }
        }
    }

    /// True iff the set is empty (the universe never is).
    #[must_use]
    pub fn is_empty_set(&self) -> bool {
        matches!(&self.0, Repr::Finite(s) if s.is_empty())
    }

    /// Number of locks, or `None` for the universe.
    ///
    /// (`is_empty` is spelled [`ExactSet::is_empty_set`] to mirror the
    /// bloom vector's one-sided test.)
    #[allow(clippy::len_without_is_empty)]
    #[must_use]
    pub fn len(&self) -> Option<usize> {
        match &self.0 {
            Repr::Universe => None,
            Repr::Finite(s) => Some(s.len()),
        }
    }

    /// True iff this is the universe value.
    #[must_use]
    pub fn is_universe(&self) -> bool {
        matches!(self.0, Repr::Universe)
    }
}

impl Default for ExactSet {
    fn default() -> Self {
        ExactSet::full()
    }
}

impl fmt::Debug for ExactSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Universe => write!(f, "ExactSet(U)"),
            Repr::Finite(s) => {
                write!(f, "ExactSet{{")?;
                for (i, l) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl FromIterator<LockId> for ExactSet {
    fn from_iter<T: IntoIterator<Item = LockId>>(iter: T) -> Self {
        let mut v: Vec<LockId> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ExactSet(Repr::Finite(v.into_boxed_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_absorbs_intersection() {
        let u = ExactSet::full();
        let s = ExactSet::from_locks(&[LockId(1), LockId(2)]);
        assert_eq!(u.intersect(&s), s);
        assert_eq!(s.intersect(&u), s);
        assert!(u.intersect(&ExactSet::full()).is_universe());
    }

    #[test]
    fn finite_intersection() {
        let a = ExactSet::from_locks(&[LockId(1), LockId(2), LockId(3)]);
        let b = ExactSet::from_locks(&[LockId(2), LockId(3), LockId(4)]);
        let i = a.intersect(&b);
        assert_eq!(i, ExactSet::from_locks(&[LockId(2), LockId(3)]));
    }

    #[test]
    fn emptiness_is_exact() {
        assert!(ExactSet::empty().is_empty_set());
        assert!(!ExactSet::full().is_empty_set());
        let a = ExactSet::from_locks(&[LockId(1)]);
        let b = ExactSet::from_locks(&[LockId(2)]);
        assert!(a.intersect(&b).is_empty_set());
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ExactSet::empty();
        s.insert(LockId(5));
        assert!(s.contains(LockId(5)));
        assert!(!s.contains(LockId(6)));
        s.remove(LockId(5));
        assert!(s.is_empty_set());
    }

    #[test]
    fn insert_into_universe_is_noop() {
        let mut u = ExactSet::full();
        u.insert(LockId(1));
        assert!(u.is_universe());
        assert!(u.contains(LockId(999)));
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn remove_from_universe_panics() {
        ExactSet::full().remove(LockId(1));
    }

    #[test]
    fn len_and_collect() {
        let s: ExactSet = [LockId(1), LockId(2), LockId(2)].into_iter().collect();
        assert_eq!(s.len(), Some(2));
        assert_eq!(ExactSet::full().len(), None);
    }

    /// The ideal lockset keeps one set per tracked granule: two words,
    /// the universe in the pointer niche.
    #[test]
    fn set_is_two_words() {
        assert_eq!(std::mem::size_of::<ExactSet>(), 16);
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", ExactSet::full()).is_empty());
        assert!(!format!("{:?}", ExactSet::empty()).is_empty());
        assert!(format!("{:?}", ExactSet::from_locks(&[LockId(4)])).contains("lock@0x4"));
    }
}
