//! Property-based tests for the memory hierarchy's invariants.

use hard_cache::policy::MetaFactory;
use hard_cache::{CacheGeometry, Hierarchy, HierarchyConfig, MetaDirectory};
use hard_types::{AccessKind, Addr, CoreId};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
struct SeqFactory;

impl MetaFactory for SeqFactory {
    type Meta = u64;

    fn fresh(&self, core: CoreId) -> u64 {
        u64::from(core.0) + 1
    }
}

fn tiny() -> HierarchyConfig {
    HierarchyConfig {
        num_cores: 3,
        l1: CacheGeometry::new(128, 2, 32),
        l2: CacheGeometry::new(512, 2, 32),
    }
}

fn arb_accesses() -> impl Strategy<Value = Vec<(u32, u64, bool)>> {
    // (core, line index over a small hot range, is_write)
    prop::collection::vec((0u32..3, 0u64..24, any::<bool>()), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inclusion: every valid L1 line is present in the L2.
    #[test]
    fn inclusion_invariant(accs in arb_accesses()) {
        let mut h = Hierarchy::new(tiny(), SeqFactory).unwrap();
        for (c, l, w) in accs {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let addr = Addr(l * 32);
            h.ensure(CoreId(c), addr, kind).unwrap();
            // After every step the requester holds the line...
            prop_assert!(h.meta(CoreId(c), addr).is_some());
        }
    }

    /// Coherence: if any L1 copy is M or E, it is the only copy; S
    /// copies may be plural. Checked after every single access.
    #[test]
    fn single_writer_invariant(accs in arb_accesses()) {
        let mut h = Hierarchy::new(tiny(), SeqFactory).unwrap();
        for (c, l, w) in accs {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            h.ensure(CoreId(c), Addr(l * 32), kind).unwrap();
            for la in 0..24u64 {
                let addr = Addr(la * 32);
                let states: Vec<_> = (0..3)
                    .filter_map(|cc| h.l1_state(CoreId(cc), addr))
                    .collect();
                if states.iter().any(|s| s.is_exclusive_kind()) {
                    prop_assert_eq!(
                        states.len(),
                        1,
                        "M/E copy of {:?} coexists with others: {:?}",
                        addr,
                        states
                    );
                }
            }
        }
    }

    /// A write by core A followed by any access from core B always
    /// yields B a copy carrying A-era metadata (piggyback), never a
    /// freshly fabricated one — unless the line was displaced from the
    /// L2 in between.
    #[test]
    fn metadata_piggybacks_on_transfer(l in 0u64..8, wb in any::<bool>()) {
        let mut h = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let addr = Addr(l * 32);
        h.ensure(CoreId(0), addr, AccessKind::Write).unwrap();
        *h.meta_mut(CoreId(0), addr).unwrap() = 0xABCD;
        let kind = if wb { AccessKind::Write } else { AccessKind::Read };
        h.ensure(CoreId(1), addr, kind).unwrap();
        prop_assert_eq!(h.meta(CoreId(1), addr), Some(&0xABCD));
    }

    /// Statistics are consistent: hits + misses equals accesses, and
    /// each ensure call counts exactly one access.
    #[test]
    fn stats_add_up(accs in arb_accesses()) {
        let mut h = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let n = accs.len() as u64;
        for (c, l, w) in accs {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            h.ensure(CoreId(c), Addr(l * 32), kind).unwrap();
        }
        prop_assert_eq!(h.stats().accesses(), n);
        prop_assert_eq!(h.stats().l1_hits + h.stats().l1_misses, n);
        prop_assert!(h.stats().l2_hits + h.stats().l2_misses <= h.stats().l1_misses);
    }

    /// Displacement marking is sound: `was_meta_lost` is set for every
    /// line reported through the eviction log, and refetching such a
    /// line yields factory-fresh metadata.
    #[test]
    fn displacement_resets_metadata(stream in prop::collection::vec(0u64..64, 30..120)) {
        let mut h = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let probe = Addr(0);
        h.ensure(CoreId(0), probe, AccessKind::Write).unwrap();
        *h.meta_mut(CoreId(0), probe).unwrap() = 0xFFFF;
        for l in stream {
            h.ensure(CoreId(0), Addr((1 + l) * 32), AccessKind::Read).unwrap();
        }
        let evicted: Vec<Addr> = h.drain_l2_evictions().collect();
        if evicted.contains(&probe) {
            prop_assert!(h.was_meta_lost(probe));
            let r = h.ensure(CoreId(0), probe, AccessKind::Read).unwrap();
            prop_assert!(r.refetch_after_loss);
            prop_assert_eq!(h.meta(CoreId(0), probe), Some(&1), "factory fresh");
        }
    }

    /// The batched access path is the scalar path: on arbitrary event
    /// windows (cross-line, cross-core, byte-offset addresses), the
    /// machines' batched recipe — `access_prepared` per access, one
    /// `flush_deferred_stats` per window — must reproduce a fold of
    /// per-access `ensure` + `meta_mut` calls exactly: `EnsureResult`
    /// sequence, `MemStats`, per-copy MESI states and LRU stamps, every
    /// cache's LRU tick, and the L2 eviction order.
    #[test]
    fn prepared_window_is_the_scalar_fold(
        accs in prop::collection::vec(
            (0u32..3, 0u64..1536, any::<bool>()), 1..200),
    ) {
        let window: Vec<(CoreId, Addr, AccessKind)> = accs
            .iter()
            .map(|&(c, a, w)| {
                let kind = if w { AccessKind::Write } else { AccessKind::Read };
                (CoreId(c), Addr(a), kind)
            })
            .collect();

        let mut scalar = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let mut want = Vec::new();
        for &(core, addr, kind) in &window {
            want.push(scalar.ensure(core, addr, kind).unwrap());
            prop_assert!(scalar.meta_mut(core, addr).is_some());
        }

        let mut batched = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let mut got = Vec::new();
        for &(core, addr, kind) in &window {
            let (line, set) = tiny().l1.line_and_set(addr);
            got.push(batched.access_prepared(core, line, set, kind).unwrap().0);
        }
        batched.flush_deferred_stats();

        prop_assert_eq!(&got, &want, "EnsureResult sequences diverged");
        prop_assert_eq!(scalar.stats(), batched.stats());
        for c in 0..3 {
            let core = CoreId(c);
            prop_assert_eq!(
                scalar.l1_lru_tick(core),
                batched.l1_lru_tick(core),
                "L1 tick diverged on core {}", c
            );
            for l in 0u64..48 {
                let addr = Addr(l * 32);
                prop_assert_eq!(
                    scalar.l1_state(core, addr),
                    batched.l1_state(core, addr),
                    "MESI state diverged for core {} line {:?}", c, addr
                );
                prop_assert_eq!(
                    scalar.l1_lru_of(core, addr),
                    batched.l1_lru_of(core, addr),
                    "LRU stamp diverged for core {} line {:?}", c, addr
                );
            }
        }
        prop_assert_eq!(scalar.l2_lru_tick(), batched.l2_lru_tick());
        let scalar_ev: Vec<Addr> = scalar.drain_l2_evictions().collect();
        let batched_ev: Vec<Addr> = batched.drain_l2_evictions().collect();
        prop_assert_eq!(scalar_ev, batched_ev, "L2 eviction order diverged");
    }

    /// The prepared single-probe path (`ensure_prepared`, the directory
    /// machine's batched entry point) is the unprepared `ensure` —
    /// identical results, MESI states, LRU stamps and ticks, stats, and
    /// eviction order for any access sequence.
    #[test]
    fn ensure_prepared_is_the_unprepared_ensure(accs in arb_accesses()) {
        let cfg = tiny();
        let mut plain = Hierarchy::new(cfg, SeqFactory).unwrap();
        let mut prepared = Hierarchy::new(cfg, SeqFactory).unwrap();
        for (c, l, w) in accs {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let core = CoreId(c);
            let addr = Addr(l * 32);
            let want = plain.ensure(core, addr, kind).unwrap();
            let (line_addr, set) = cfg.l1.line_and_set(addr);
            let got = prepared.ensure_prepared(core, line_addr, set, kind).unwrap();
            prop_assert_eq!(want, got);
        }
        prop_assert_eq!(plain.stats(), prepared.stats());
        for c in 0..3 {
            let core = CoreId(c);
            prop_assert_eq!(plain.l1_lru_tick(core), prepared.l1_lru_tick(core));
            for l in 0u64..24 {
                let addr = Addr(l * 32);
                prop_assert_eq!(plain.l1_state(core, addr), prepared.l1_state(core, addr));
                prop_assert_eq!(plain.l1_lru_of(core, addr), prepared.l1_lru_of(core, addr));
            }
        }
        prop_assert_eq!(plain.l2_lru_tick(), prepared.l2_lru_tick());
        let plain_ev: Vec<Addr> = plain.drain_l2_evictions().collect();
        let prepared_ev: Vec<Addr> = prepared.drain_l2_evictions().collect();
        prop_assert_eq!(plain_ev, prepared_ev);
    }

    /// The slab-and-hot-slot [`MetaDirectory`] is observationally the
    /// plain ordered-map directory it replaced: any interleaving of
    /// access / retire / flash leaves identical entry values, request
    /// counts, and membership.
    #[test]
    fn directory_slab_matches_the_map_reference(
        ops in prop::collection::vec((0u8..8, 0u64..16, 0u32..3), 1..250),
    ) {
        let mut dir = MetaDirectory::new(SeqFactory);
        let mut reference: BTreeMap<Addr, u64> = BTreeMap::new();
        let mut requests = 0u64;
        for (sel, l, c) in ops {
            let line = Addr(l * 32);
            match sel {
                // Weighted toward access, the hot operation.
                0..=4 => {
                    let m = dir.access(line, CoreId(c));
                    *m += 1;
                    let r = reference
                        .entry(line)
                        .or_insert_with(|| u64::from(c) + 1);
                    *r += 1;
                    requests += 1;
                    prop_assert_eq!(*m, *r, "entry value diverged for {:?}", line);
                }
                5 | 6 => {
                    dir.retire(line);
                    reference.remove(&line);
                }
                _ => {
                    dir.flash(|m| *m = m.wrapping_mul(3) + 1);
                    for m in reference.values_mut() {
                        *m = m.wrapping_mul(3) + 1;
                    }
                }
            }
            prop_assert_eq!(dir.len(), reference.len());
            prop_assert_eq!(dir.requests(), requests);
            for probe in 0u64..16 {
                let a = Addr(probe * 32);
                prop_assert_eq!(dir.peek(a), reference.get(&a));
            }
        }
    }
}
