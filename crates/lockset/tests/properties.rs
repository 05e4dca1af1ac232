//! Property-based tests of lockset-algorithm invariants.

use hard_bloom::{BloomShape, BloomVector, ExactSet, LaneKernel};
use hard_lockset::ideal::{IdealLockset, IdealLocksetConfig};
use hard_lockset::{lockset_access, GranuleMeta, LState, PackedLineMeta, MAX_GRANULES};
use hard_trace::detect::Detector;
use hard_trace::{Op, Program, SchedConfig, Scheduler, ThreadProgram, TraceEvent};
use hard_types::{AccessKind, Addr, LockId, SiteId, ThreadId};
use proptest::prelude::*;

fn arb_access_seq() -> impl Strategy<Value = Vec<(u32, bool, u8)>> {
    // (thread, is_write, lock mask bits: which of two locks are held)
    prop::collection::vec((0u32..3, any::<bool>(), 0u8..4), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Between resets, a granule's candidate set only ever shrinks
    /// (set-inclusion monotonicity), and its LState only moves forward
    /// in the partial order Virgin ≤ Exclusive ≤ Shared ≤ SM.
    #[test]
    fn candidate_sets_shrink_monotonically(seq in arb_access_seq()) {
        let l1 = LockId(0x40);
        let l2 = LockId(0x80);
        let mut meta = GranuleMeta::<ExactSet>::virgin(());
        let mut prev = meta.candidate.clone();
        let mut prev_rank = 0u8;
        for (t, w, mask) in seq {
            let mut held = ExactSet::empty();
            if mask & 1 != 0 {
                held.insert(l1);
            }
            if mask & 2 != 0 {
                held.insert(l2);
            }
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            lockset_access(&mut meta, ThreadId(t), kind, &held);
            // Shrinkage: everything in the new set was in the old one.
            for l in [l1, l2] {
                if meta.candidate.contains(l) {
                    prop_assert!(prev.contains(l), "candidate set grew");
                }
            }
            let rank = match meta.state {
                LState::Virgin => 0,
                LState::Exclusive => 1,
                LState::Shared => 2,
                LState::SharedModified => 3,
            };
            prop_assert!(rank >= prev_rank, "LState moved backwards");
            prev = meta.candidate.clone();
            prev_rank = rank;
        }
    }

    /// The packed metadata word round-trips exactly to the old
    /// `GranuleMeta` representation: packing any (state, owner,
    /// candidate) triple and unpacking it returns the same triple, for
    /// both paper vector shapes, with a consistent parity bit.
    #[test]
    fn packed_word_round_trips_to_granule_meta(
        entries in prop::collection::vec(
            (0u8..4, any::<bool>(), 0u32..128, any::<u64>()),
            1..=MAX_GRANULES,
        )
    ) {
        for shape in [BloomShape::B16, BloomShape::B32] {
            let mut packed = PackedLineMeta::virgin(shape, entries.len());
            let metas: Vec<GranuleMeta<BloomVector>> = entries
                .iter()
                .map(|&(state, owned, owner, bits)| GranuleMeta {
                    state: LState::decode(state),
                    owner: owned.then_some(ThreadId(owner)),
                    candidate: BloomVector::from_bits(shape, bits & shape.full_mask()),
                })
                .collect();
            for (gi, g) in metas.iter().enumerate() {
                packed.set_granule(gi, g);
            }
            for (gi, g) in metas.iter().enumerate() {
                prop_assert_eq!(&packed.granule(gi), g, "granule {} of {}", gi, shape);
                prop_assert!(packed.parity_ok(gi));
                prop_assert_eq!(packed.state(gi), g.state);
                prop_assert_eq!(packed.owner(gi), g.owner);
                prop_assert_eq!(packed.candidate_bits(gi), g.candidate.bits());
            }
            // A second pack of the unpacked value is bit-stable.
            let mut repacked = PackedLineMeta::virgin(shape, entries.len());
            for gi in 0..metas.len() {
                repacked.set_granule(gi, &packed.granule(gi));
            }
            prop_assert_eq!(repacked, packed);
        }
    }

    /// A race is only ever reported in the Shared-Modified state.
    #[test]
    fn races_only_in_shared_modified(seq in arb_access_seq()) {
        let mut meta = GranuleMeta::<ExactSet>::virgin(());
        for (t, w, mask) in seq {
            let mut held = ExactSet::empty();
            if mask & 1 != 0 {
                held.insert(LockId(0x40));
            }
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let out = lockset_access(&mut meta, ThreadId(t), kind, &held);
            if out.race {
                prop_assert_eq!(meta.state, LState::SharedModified);
                prop_assert!(meta.candidate.is_empty_set());
            }
        }
    }

    /// Single-threaded programs never produce reports, no matter the
    /// locking (or absence of it).
    #[test]
    fn single_thread_is_always_silent(seq in prop::collection::vec((0u64..16, any::<bool>(), any::<bool>()), 1..60)) {
        let mut tp = ThreadProgram::new();
        let lock = LockId(0x40);
        for (i, (w, wr, locked)) in seq.into_iter().enumerate() {
            let addr = Addr(0x1000 + w * 4);
            let site = SiteId(i as u32);
            if locked {
                tp.lock(lock, site);
            }
            if wr {
                tp.write(addr, 4, site);
            } else {
                tp.read(addr, 4, site);
            }
            if locked {
                tp.unlock(lock, site);
            }
        }
        let p = Program::new(vec![tp]);
        let trace = Scheduler::new(SchedConfig::default()).run(&p);
        let mut d = IdealLockset::new(IdealLocksetConfig::default());
        for (i, e) in trace.events.iter().enumerate() {
            d.on_event(i, e);
        }
        prop_assert!(d.reports().is_empty());
    }

    /// Fully disciplined programs (every shared access under the one
    /// common lock) never produce reports under any interleaving.
    #[test]
    fn disciplined_programs_are_silent(
        per_thread in prop::collection::vec(prop::collection::vec((0u64..8, any::<bool>()), 1..20), 2..4),
        seed in 0u64..8,
    ) {
        let lock = LockId(0x40);
        let threads: Vec<ThreadProgram> = per_thread
            .into_iter()
            .map(|ops| {
                let mut tp = ThreadProgram::new();
                for (i, (w, wr)) in ops.into_iter().enumerate() {
                    let site = SiteId(i as u32);
                    tp.lock(lock, site);
                    if wr {
                        tp.write(Addr(0x1000 + w * 4), 4, site);
                    } else {
                        tp.read(Addr(0x1000 + w * 4), 4, site);
                    }
                    tp.unlock(lock, site);
                }
                tp
            })
            .collect();
        let p = Program::new(threads);
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 3 }).run(&p);
        let mut d = IdealLockset::new(IdealLocksetConfig::default());
        for (i, e) in trace.events.iter().enumerate() {
            d.on_event(i, e);
        }
        prop_assert!(d.reports().is_empty(), "{:?}", d.reports());
    }

    /// An undisciplined write pair (two threads, no common lock) is
    /// reported whenever the threads' accesses to the variable actually
    /// interleave — i.e. the per-variable access order is not of the
    /// sequential form `A… B…`, in which the Exclusive state legally
    /// absorbs the first thread's era (Eraser's known first-toucher
    /// blind spot, also present in the paper's ideal implementation).
    #[test]
    fn undisciplined_write_pairs_are_reported_when_interleaved(seed in 0u64..64) {
        let x = Addr(0x1000);
        let mut t0 = ThreadProgram::new();
        let mut t1 = ThreadProgram::new();
        for i in 0..3u32 {
            t0.lock(LockId(0x40), SiteId(i))
                .write(x, 4, SiteId(100))
                .unlock(LockId(0x40), SiteId(10 + i));
            t1.lock(LockId(0x80), SiteId(20 + i))
                .write(x, 4, SiteId(200))
                .unlock(LockId(0x80), SiteId(30 + i));
        }
        let p = Program::new(vec![t0, t1]);
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);
        // Per-variable thread order of the accesses to x.
        let order: Vec<u32> = trace
            .ops()
            .filter(|(_, op)| matches!(op, Op::Write { addr, .. } if *addr == x))
            .map(|(t, _)| t.0)
            .collect();
        let sequential = order.windows(2).filter(|w| w[0] != w[1]).count() <= 1;
        let mut d = IdealLockset::new(IdealLocksetConfig::default());
        for (i, e) in trace.events.iter().enumerate() {
            d.on_event(i, e);
        }
        let reported = d.reports().iter().any(|r| r.addr == x);
        if !sequential {
            prop_assert!(reported, "interleaved disjoint-lock writes must be flagged");
        }
        if reported {
            prop_assert!(!sequential || order.len() >= 2);
        }
    }

    /// The batched span access is bit-identical to granule-at-a-time
    /// [`PackedLineMeta::access`] over arbitrary operation sequences,
    /// for every lane kernel and every granule count — the inline
    /// one-granule line production runs at the default granularity as
    /// well as each heap size class: same words, same
    /// broadcast-on-change flag, same race mask, at every step.
    #[test]
    fn access_span_is_bit_identical_to_scalar_sequences(
        shape_is_32 in any::<bool>(),
        kernel_sel in 0u8..2,
        granules in 1usize..=MAX_GRANULES,
        seq in prop::collection::vec(
            (0u32..4, any::<bool>(), 0u8..4, 0usize..MAX_GRANULES, 1usize..=MAX_GRANULES),
            1..60,
        ),
    ) {
        let shape = if shape_is_32 { BloomShape::B32 } else { BloomShape::B16 };
        let kernel = [LaneKernel::Unroll4, LaneKernel::Simd][kernel_sel as usize];
        let mut batched = PackedLineMeta::fetched(shape, granules, ThreadId(0));
        let mut scalar = batched.clone();
        for (t, w, mask, start, span) in seq {
            let g0 = start % granules;
            let g1 = (g0 + span).min(granules);
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let mut held = BloomVector::empty(shape);
            if mask & 1 != 0 {
                held.insert(LockId(0x40));
            }
            if mask & 2 != 0 {
                held.insert(LockId(0x84));
            }
            let mut expect_changed = false;
            let mut expect_mask = 0u8;
            for gi in g0..g1 {
                let (ch, out) = scalar.access(gi, ThreadId(t), kind, &held);
                expect_changed |= ch;
                expect_mask |= u8::from(out.race) << (gi - g0);
            }
            let got = batched.access_span(g0, g1, ThreadId(t), kind, &held, kernel);
            prop_assert_eq!(got.changed, expect_changed);
            prop_assert_eq!(got.race_mask, expect_mask);
            prop_assert_eq!(batched, scalar);
        }
    }
}

/// Barrier completion resets every candidate set in the ideal detector.
#[test]
fn barrier_reset_is_global() {
    let mut d = IdealLockset::new(IdealLocksetConfig::default());
    let ev = |thread, op| TraceEvent::Op { thread, op };
    let t0 = ThreadId(0);
    let t1 = ThreadId(1);
    let events = [
        ev(
            t0,
            Op::Write {
                addr: Addr(0x100),
                size: 4,
                site: SiteId(1),
            },
        ),
        ev(
            t1,
            Op::Read {
                addr: Addr(0x100),
                size: 4,
                site: SiteId(2),
            },
        ),
        TraceEvent::BarrierComplete {
            barrier: hard_types::BarrierId(0),
        },
    ];
    for (i, e) in events.iter().enumerate() {
        d.on_event(i, e);
    }
    let meta = d.granule_meta(Addr(0x100)).expect("tracked");
    assert!(meta.candidate.is_universe());
    assert_eq!(meta.state, LState::Virgin);
}
