//! Property-based tests for the bloom-filter structures.

use hard_bloom::{lanes, BloomShape, BloomVector, ExactSet, LaneKernel, LockRegister};
use hard_types::LockId;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_lock() -> impl Strategy<Value = LockId> {
    // Word-aligned addresses, as lock objects are in practice.
    (0u64..=u64::MAX / 4).prop_map(|v| LockId(v << 2))
}

fn arb_shape() -> impl Strategy<Value = BloomShape> {
    prop_oneof![Just(BloomShape::B16), Just(BloomShape::B32)]
}

/// One step of the `ExactSet` model check.
#[derive(Clone, Debug)]
enum SetOp {
    Insert(LockId),
    Remove(LockId),
    /// Intersect with a finite set (`Some`) or the universe (`None`).
    Intersect(Option<Vec<LockId>>),
}

/// Locks from a small domain, so inserts, removals and intersections
/// hit the same locks often.
fn arb_small_lock() -> impl Strategy<Value = LockId> {
    (0u64..8).prop_map(|v| LockId(0x40 + v * 4))
}

fn arb_set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    let op = prop_oneof![
        arb_small_lock().prop_map(SetOp::Insert),
        arb_small_lock().prop_map(SetOp::Remove),
        prop::collection::vec(arb_small_lock(), 0..6).prop_map(|v| SetOp::Intersect(Some(v))),
        Just(SetOp::Intersect(None)),
    ];
    prop::collection::vec(op, 0..24)
}

/// The `ExactSet` a `BTreeSet` model (`None` = the universe) stands for.
fn exact_of(model: &Option<BTreeSet<LockId>>) -> ExactSet {
    match model {
        None => ExactSet::full(),
        Some(s) => s.iter().copied().collect(),
    }
}

proptest! {
    /// `ExactSet` agrees with a `BTreeSet` model after every operation:
    /// membership, length, emptiness, universality, equality, the
    /// `Debug` listing (ascending) and the change flag of the in-place
    /// intersection, with `intersect` equal to `intersect_assign`.
    #[test]
    fn exact_set_matches_btreeset_model(
        init in (any::<bool>(), prop::collection::vec(arb_small_lock(), 0..6))
            .prop_map(|(universe, v)| (!universe).then_some(v)),
        ops in arb_set_ops(),
    ) {
        let mut model: Option<BTreeSet<LockId>> =
            init.as_ref().map(|v| v.iter().copied().collect());
        let mut set = match &init {
            None => ExactSet::full(),
            Some(v) => ExactSet::from_locks(v),
        };
        for op in ops {
            match op {
                SetOp::Insert(l) => {
                    set.insert(l);
                    if let Some(m) = &mut model {
                        m.insert(l);
                    }
                }
                SetOp::Remove(l) => {
                    // Removal from the universe is a logic error (it
                    // panics), so the model only removes from finite sets.
                    if let Some(m) = &mut model {
                        set.remove(l);
                        m.remove(&l);
                    }
                }
                SetOp::Intersect(other) => {
                    let other_model: Option<BTreeSet<LockId>> =
                        other.map(|v| v.into_iter().collect());
                    let other_set = exact_of(&other_model);
                    let next = match (&model, &other_model) {
                        (None, o) => o.clone(),
                        (m, None) => m.clone(),
                        (Some(a), Some(b)) => Some(a.intersection(b).copied().collect()),
                    };
                    let pure = set.intersect(&other_set);
                    let changed = set.intersect_assign(&other_set);
                    prop_assert_eq!(changed, next != model, "change flag");
                    prop_assert_eq!(&pure, &set, "intersect == intersect_assign");
                    model = next;
                }
            }
            prop_assert_eq!(&set, &exact_of(&model));
            prop_assert_eq!(set.is_universe(), model.is_none());
            prop_assert_eq!(set.len(), model.as_ref().map(BTreeSet::len));
            prop_assert_eq!(set.is_empty_set(), model.as_ref().is_some_and(BTreeSet::is_empty));
            for v in 0..10u64 {
                let l = LockId(0x40 + v * 4);
                prop_assert_eq!(set.contains(l), model.as_ref().is_none_or(|m| m.contains(&l)));
            }
            let listed = match &model {
                None => "ExactSet(U)".to_string(),
                Some(m) => format!(
                    "ExactSet{{{}}}",
                    m.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
                ),
            };
            prop_assert_eq!(format!("{set:?}"), listed);
        }
    }

    /// One-sided error: a member is always reported as contained.
    #[test]
    fn member_always_contained(shape in arb_shape(), locks in prop::collection::vec(arb_lock(), 1..8)) {
        let v = BloomVector::from_locks(shape, &locks);
        for &l in &locks {
            prop_assert!(v.contains(l));
        }
    }

    /// The bloom emptiness test never reports a non-empty set as empty:
    /// any vector containing at least one inserted lock is non-empty.
    #[test]
    fn inserted_never_empty(shape in arb_shape(), lock in arb_lock()) {
        let v = BloomVector::from_locks(shape, &[lock]);
        prop_assert!(!v.is_empty_set());
    }

    /// Bloom intersection over-approximates exact intersection: if the
    /// bloom intersection tests empty, the exact intersection is empty.
    /// (The converse can fail — that is the Figure 5 false negative.)
    #[test]
    fn bloom_empty_implies_exact_empty(
        shape in arb_shape(),
        a in prop::collection::vec(arb_lock(), 0..6),
        b in prop::collection::vec(arb_lock(), 0..6),
    ) {
        let bloom = BloomVector::from_locks(shape, &a)
            .intersect(&BloomVector::from_locks(shape, &b));
        let exact = ExactSet::from_locks(&a).intersect(&ExactSet::from_locks(&b));
        if bloom.is_empty_set() {
            prop_assert!(exact.is_empty_set());
        }
    }

    /// AND/OR are commutative and idempotent on vectors.
    #[test]
    fn lattice_laws(
        shape in arb_shape(),
        a in prop::collection::vec(arb_lock(), 0..5),
        b in prop::collection::vec(arb_lock(), 0..5),
    ) {
        let va = BloomVector::from_locks(shape, &a);
        let vb = BloomVector::from_locks(shape, &b);
        prop_assert_eq!(va.intersect(&vb), vb.intersect(&va));
        prop_assert_eq!(va.union(&vb), vb.union(&va));
        prop_assert_eq!(va.intersect(&va), va);
        prop_assert_eq!(va.union(&va), va);
    }

    /// Intersecting with full is the identity; with empty, empty.
    #[test]
    fn unit_and_zero(shape in arb_shape(), a in prop::collection::vec(arb_lock(), 0..5)) {
        let va = BloomVector::from_locks(shape, &a);
        prop_assert_eq!(va.intersect(&BloomVector::full(shape)), va);
        prop_assert_eq!(va.intersect(&BloomVector::empty(shape)), BloomVector::empty(shape));
    }

    /// Lock register: acquiring a multiset of locks and releasing them
    /// in any order restores the empty register, as long as no counter
    /// saturates (≤3 copies of any signature bit).
    #[test]
    fn register_roundtrip(shape in arb_shape(), locks in prop::collection::vec(arb_lock(), 0..3)) {
        let mut reg = LockRegister::new(shape);
        for &l in &locks {
            reg.acquire(l);
        }
        for &l in &locks {
            prop_assert!(reg.vector().contains(l));
        }
        let mut rev = locks.clone();
        rev.reverse();
        for &l in &rev {
            reg.release(l);
        }
        prop_assert!(reg.is_empty());
        prop_assert!(reg.counters().all_zero());
    }

    /// While locks are held, the register vector equals the union of
    /// the held locks' signatures.
    #[test]
    fn register_vector_is_union_of_signatures(
        shape in arb_shape(),
        locks in prop::collection::vec(arb_lock(), 1..3),
    ) {
        let mut reg = LockRegister::new(shape);
        for &l in &locks {
            reg.acquire(l);
        }
        let expect = BloomVector::from_locks(shape, &locks);
        prop_assert_eq!(reg.vector(), expect);
    }

    /// Exact sets: intersection is a lower bound of both operands.
    #[test]
    fn exact_intersection_lower_bound(
        a in prop::collection::vec(arb_lock(), 0..8),
        b in prop::collection::vec(arb_lock(), 0..8),
    ) {
        let sa = ExactSet::from_locks(&a);
        let sb = ExactSet::from_locks(&b);
        let i = sa.intersect(&sb);
        for &l in a.iter().chain(b.iter()) {
            if i.contains(l) {
                prop_assert!(sa.contains(l) && sb.contains(l));
            }
        }
    }

    /// Every lane kernel computes bit-identically to the per-word
    /// reference loop — intersected words and empty-part mask both —
    /// for arbitrary word slices, held vectors and lane widths.
    #[test]
    fn lane_kernels_match_per_word_intersect_and_emptiness(
        shape in arb_shape(),
        words in prop::collection::vec(any::<u64>(), 0..lanes::MAX_LANE_WORDS),
        held in any::<u64>(),
    ) {
        let mut expect = words.clone();
        let mut expect_mask = 0u64;
        for (i, w) in expect.iter_mut().enumerate() {
            *w &= held;
            expect_mask |= u64::from(shape.has_empty_part(*w)) << i;
        }
        for kernel in [LaneKernel::Unroll4, LaneKernel::Simd] {
            let mut got = words.clone();
            let mask = lanes::intersect_empty(kernel, shape, &mut got, held);
            prop_assert_eq!(&got, &expect, "{} kernel words diverged", kernel.name());
            prop_assert_eq!(mask, expect_mask, "{} kernel mask diverged", kernel.name());
        }
    }
}
