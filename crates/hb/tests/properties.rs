//! Property-based tests of the happens-before machinery.

use hard_hb::{hb_access, HbOutcome, LineClocks, SyncClocks, VectorClock};
use hard_types::{AccessKind, LockId, ThreadId};
use proptest::prelude::*;

fn arb_clock(width: usize) -> impl Strategy<Value = VectorClock> {
    prop::collection::vec(0u64..20, width..=width).prop_map(move |vals| {
        let mut c = VectorClock::new(vals.len());
        for (i, v) in vals.iter().enumerate() {
            for _ in 0..*v {
                c.tick(ThreadId(i as u32));
            }
        }
        c
    })
}

/// Sync operations drawn for the lattice simulation.
#[derive(Clone, Debug)]
enum SyncOp {
    Acquire(u32, u8),
    Release(u32, u8),
    Fork(u32, u32),
    Join(u32, u32),
    Barrier,
}

fn arb_sync_ops() -> impl Strategy<Value = Vec<SyncOp>> {
    let op = prop_oneof![
        (0u32..3, 0u8..2).prop_map(|(t, l)| SyncOp::Acquire(t, l)),
        (0u32..3, 0u8..2).prop_map(|(t, l)| SyncOp::Release(t, l)),
        (0u32..3, 0u32..3).prop_map(|(a, b)| SyncOp::Fork(a, b)),
        (0u32..3, 0u32..3).prop_map(|(a, b)| SyncOp::Join(a, b)),
        Just(SyncOp::Barrier),
    ];
    prop::collection::vec(op, 0..40)
}

/// The access record with 64-bit epochs, as `LineClocks` stored it
/// before epochs narrowed to 32 bits: the reference model for the
/// equivalence property below.
#[derive(Clone, Debug)]
struct WideClocks {
    last_write: Option<(ThreadId, u64)>,
    read_epochs: Vec<u64>,
}

/// `hb_access` over [`WideClocks`], unchanged from the 64-bit record.
fn wide_access(
    meta: &mut WideClocks,
    thread: ThreadId,
    clock: &VectorClock,
    kind: AccessKind,
) -> HbOutcome {
    let mut out = HbOutcome::default();
    if let Some((wt, we)) = meta.last_write {
        if wt != thread && !clock.epoch_before(wt, we) {
            out.race_with_write = true;
        }
    }
    if kind.is_write() {
        for (u, &re) in meta.read_epochs.iter().enumerate() {
            let ut = ThreadId(u as u32);
            if re != 0 && ut != thread && !clock.epoch_before(ut, re) {
                out.race_with_read = true;
            }
        }
        meta.last_write = Some((thread, clock.get(thread)));
        meta.read_epochs[thread.index()] = 0;
    } else {
        meta.read_epochs[thread.index()] = clock.get(thread);
    }
    out
}

/// A program width (1–7 threads, so both the inline and the heap read
/// epochs run) and a sequence of `(thread, is_write, clock)` accesses.
fn arb_accesses() -> impl Strategy<Value = (usize, Vec<(u32, bool, Vec<u64>)>)> {
    (1usize..8).prop_flat_map(|width| {
        let access = (
            0u32..width as u32,
            any::<bool>(),
            prop::collection::vec(0u64..6, width..=width),
        );
        prop::collection::vec(access, 0..32).prop_map(move |accs| (width, accs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `hb_access` on the 32-bit record reports exactly what it
    /// reported on the 64-bit one, and leaves the same history, for
    /// random clocks, threads and access kinds.
    #[test]
    fn narrow_records_match_the_wide_reference(program in arb_accesses()) {
        let (width, accesses) = program;
        let mut narrow = LineClocks::new(width);
        let mut wide = WideClocks { last_write: None, read_epochs: vec![0; width] };
        for (t, is_write, comps) in accesses {
            let thread = ThreadId(t);
            let mut clock = VectorClock::new(width);
            for (u, &c) in comps.iter().enumerate() {
                for _ in 0..c {
                    clock.tick(ThreadId(u as u32));
                }
            }
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let got = hb_access(&mut narrow, thread, &clock, kind);
            let want = wide_access(&mut wide, thread, &clock, kind);
            prop_assert_eq!(got, want);
            prop_assert_eq!(narrow.last_write(), wide.last_write);
            for u in 0..width {
                prop_assert_eq!(narrow.read_epoch(ThreadId(u as u32)), wide.read_epochs[u]);
            }
            prop_assert_eq!(
                narrow.is_empty(),
                wide.last_write.is_none() && wide.read_epochs.iter().all(|&e| e == 0)
            );
        }
    }

    /// Join is the lattice supremum: both operands happen-before it.
    #[test]
    fn join_is_an_upper_bound(a in arb_clock(3), b in arb_clock(3)) {
        let mut j = a.clone();
        j.join(&b);
        prop_assert!(a.happens_before(&j));
        prop_assert!(b.happens_before(&j));
    }

    /// Join is commutative, associative and idempotent.
    #[test]
    fn join_lattice_laws(a in arb_clock(3), b in arb_clock(3), c in arb_clock(3)) {
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(&ab, &ba, "commutative");

        let mut ab_c = ab.clone();
        ab_c.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut a_bc = a.clone();
        a_bc.join(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");

        let mut aa = a.clone();
        aa.join(&a);
        prop_assert_eq!(&aa, &a, "idempotent");
    }

    /// happens_before is a partial order: reflexive, antisymmetric
    /// (equal clocks), transitive.
    #[test]
    fn happens_before_is_a_partial_order(
        a in arb_clock(3),
        b in arb_clock(3),
        c in arb_clock(3),
    ) {
        prop_assert!(a.happens_before(&a), "reflexive");
        if a.happens_before(&b) && b.happens_before(&a) {
            prop_assert_eq!(&a, &b, "antisymmetric");
        }
        if a.happens_before(&b) && b.happens_before(&c) {
            prop_assert!(a.happens_before(&c), "transitive");
        }
    }

    /// Thread clocks are monotone under every synchronization
    /// operation: nobody's knowledge ever decreases.
    #[test]
    fn sync_clocks_are_monotone(ops in arb_sync_ops()) {
        let mut s = SyncClocks::new(3);
        let mut prev: Vec<VectorClock> =
            (0..3).map(|t| s.thread(ThreadId(t)).clone()).collect();
        for op in ops {
            match op {
                SyncOp::Acquire(t, l) => s.acquire(ThreadId(t), LockId(u64::from(l) * 4)),
                SyncOp::Release(t, l) => s.release(ThreadId(t), LockId(u64::from(l) * 4)),
                SyncOp::Fork(a, b) if a != b && b != 0 => s.fork(ThreadId(a), ThreadId(b)),
                SyncOp::Join(a, b) if a != b => s.join_thread(ThreadId(a), ThreadId(b)),
                SyncOp::Barrier => s.barrier_all(),
                _ => {}
            }
            for t in 0..3 {
                let now = s.thread(ThreadId(t));
                prop_assert!(
                    prev[t as usize].happens_before(now),
                    "thread {t} clock went backwards"
                );
                prev[t as usize] = now.clone();
            }
        }
    }

    /// The race check is symmetric in outcome: for a write-write pair,
    /// whichever access is checked second, a race is flagged iff the
    /// clocks are concurrent.
    #[test]
    fn write_write_race_iff_concurrent(a in arb_clock(2), b in arb_clock(2)) {
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        // Give each access a distinct owner epoch so epochs are
        // meaningful (epoch = own component; skip degenerate zeros).
        let mut a = a;
        let mut b = b;
        a.tick(t0);
        b.tick(t1);

        let mut m = LineClocks::new(2);
        hb_access(&mut m, t0, &a, AccessKind::Write);
        let out = hb_access(&mut m, t1, &b, AccessKind::Write);
        // a's write is ordered before b's iff a's own epoch is known
        // to b.
        let ordered = b.epoch_before(t0, a.get(t0));
        prop_assert_eq!(out.race_with_write, !ordered);
    }
}
