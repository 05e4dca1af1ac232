//! Property-based tests for the memory hierarchy's invariants.

use hard_cache::policy::MetaFactory;
use hard_cache::{CacheGeometry, Hierarchy, HierarchyConfig, MetaDirectory, ServedBy};
use hard_types::{AccessKind, Addr, CoreId};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

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

/// [`tiny`] with Figure 3's L2 lines: two sectors per L2 line.
fn tiny_sectored() -> HierarchyConfig {
    HierarchyConfig {
        l2: CacheGeometry::new(512, 2, 64),
        ..tiny()
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
    /// line an access reports as displaced, and refetching such a line
    /// yields factory-fresh metadata.
    #[test]
    fn displacement_resets_metadata(stream in prop::collection::vec(0u64..64, 30..120)) {
        let mut h = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let probe = Addr(0);
        h.ensure(CoreId(0), probe, AccessKind::Write).unwrap();
        *h.meta_mut(CoreId(0), probe).unwrap() = 0xFFFF;
        let mut evicted = Vec::new();
        for l in stream {
            let r = h.ensure(CoreId(0), Addr((1 + l) * 32), AccessKind::Read).unwrap();
            evicted.extend(r.displaced);
        }
        for &line in &evicted {
            prop_assert!(h.was_meta_lost(line));
        }
        if evicted.contains(&probe) {
            prop_assert!(h.was_meta_lost(probe));
            let r = h.ensure(CoreId(0), probe, AccessKind::Read).unwrap();
            prop_assert!(r.refetch_after_loss);
            prop_assert_eq!(h.meta(CoreId(0), probe), Some(&1), "factory fresh");
        }
    }

    /// The fused access path is the two-call recipe: on arbitrary
    /// access sequences (cross-line, cross-core, byte-offset
    /// addresses), `access_prepared` per access must reproduce a fold
    /// of per-access `ensure` + `meta_mut` calls exactly:
    /// `EnsureResult` sequence (whose `displaced` field pins the L2
    /// eviction order), `MemStats`, per-copy MESI states and LRU
    /// stamps, and every cache's LRU tick. Interleaved spurious
    /// displacements and metadata broadcasts — the fault layer's and
    /// §3.4's writes between accesses, applied identically to both
    /// hierarchies — remove and touch lines under the hot-slot memo.
    #[test]
    fn prepared_window_is_the_scalar_fold(
        accs in prop::collection::vec(
            (0u32..3, 0u64..1536, any::<bool>(), 0u8..8), 1..200),
    ) {
        // Before its access, step `i` displaces the L2 line picked by
        // the address (side 0) or broadcasts the accessing core's copy
        // (side 1); sides 2..8 add nothing.
        let window: Vec<(CoreId, Addr, AccessKind, u8)> = accs
            .iter()
            .map(|&(c, a, w, side)| {
                let kind = if w { AccessKind::Write } else { AccessKind::Read };
                (CoreId(c), Addr(a), kind, side)
            })
            .collect();
        fn side_step(h: &mut Hierarchy<SeqFactory>, core: CoreId, addr: Addr, side: u8) -> Option<Option<Addr>> {
            match side {
                0 => {
                    let n = addr.0 as usize % h.l2_occupancy().max(1);
                    Some(h.force_displace(n))
                }
                1 => Some(h.broadcast_meta(core, addr).ok().map(|()| addr)),
                _ => None,
            }
        }

        let mut scalar = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let mut want = Vec::new();
        let mut want_sides = Vec::new();
        for &(core, addr, kind, side) in &window {
            want_sides.push(side_step(&mut scalar, core, addr, side));
            want.push(scalar.ensure(core, addr, kind).unwrap());
            prop_assert!(scalar.meta_mut(core, addr).is_some());
        }

        let mut batched = Hierarchy::new(tiny(), SeqFactory).unwrap();
        let mut got = Vec::new();
        let mut got_sides = Vec::new();
        for &(core, addr, kind, side) in &window {
            got_sides.push(side_step(&mut batched, core, addr, side));
            let (line, set) = tiny().l1.line_and_set(addr);
            got.push(batched.access_prepared(core, line, set, kind).unwrap().0);
        }

        prop_assert_eq!(&got_sides, &want_sides, "side-step outcomes diverged");
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
                prop_assert_eq!(
                    scalar.meta(core, addr),
                    batched.meta(core, addr),
                    "metadata diverged for core {} line {:?}", c, addr
                );
            }
        }
        prop_assert_eq!(scalar.l2_lru_tick(), batched.l2_lru_tick());
    }

    /// The prepared single-probe path (`ensure_prepared`, the directory
    /// machine's batched entry point) is the unprepared `ensure` —
    /// identical results (eviction order included), MESI states, LRU
    /// stamps and ticks, and stats for any access sequence.
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
    }

    /// The L2 holder words are exact: after every operation of an
    /// arbitrary sequence of scalar and batched accesses with spurious
    /// displacements interleaved, the holders recorded for each line
    /// are precisely the L1s that hold it (and none when the L2 does
    /// not), and an M/E copy is the only copy — on the one-sector and
    /// the two-sector geometry alike.
    #[test]
    fn holder_words_are_the_l1_residency(
        ops in prop::collection::vec((0u32..3, 0u64..48, 0u8..9), 1..250),
        sectored in any::<bool>(),
    ) {
        let cfg = if sectored { tiny_sectored() } else { tiny() };
        let mut h = Hierarchy::new(cfg, SeqFactory).unwrap();
        for (c, l, sel) in ops {
            let core = CoreId(c);
            let kind = if sel % 2 == 0 { AccessKind::Write } else { AccessKind::Read };
            match sel {
                0 => {
                    let n = h.l2_occupancy();
                    if n > 0 {
                        h.force_displace(l as usize % n);
                    }
                }
                1..=4 => {
                    h.ensure(core, Addr(l * 32), kind).unwrap();
                }
                _ => {
                    let (line, set) = cfg.l1.line_and_set(Addr(l * 32));
                    h.access_prepared(core, line, set, kind).unwrap();
                }
            }
            for la in 0u64..48 {
                let addr = Addr(la * 32);
                let resident = (0..3u32)
                    .filter(|&cc| h.l1_state(CoreId(cc), addr).is_some())
                    .fold(0u32, |m, cc| m | 1 << cc);
                prop_assert_eq!(
                    h.holders(addr), resident,
                    "holder word of {:?} diverged from the L1s", addr
                );
                // The snoops read the word: an M/E copy stays the only one.
                let exclusive = (0..3u32).any(|cc| {
                    h.l1_state(CoreId(cc), addr).is_some_and(|s| s.is_exclusive_kind())
                });
                prop_assert!(
                    !exclusive || resident.count_ones() == 1,
                    "M/E copy of {:?} coexists with others", addr
                );
            }
        }
    }

    /// The lost-line set is a set of line addresses at every line size
    /// a geometry accepts. A one-line L1 over a one-line L2 loses each
    /// line the moment another is touched (or a displacement is
    /// forced), so the hierarchy's answers — `was_meta_lost`, an
    /// access's `refetch_after_loss` and `displaced` — must be a
    /// `HashSet` model's. Lines are drawn near the bottom of the
    /// address space, around its top address bit and at its top, so
    /// neighbouring lines share and straddle blocks, and a line that
    /// differs from another only in its top bit is likely.
    #[test]
    fn lost_lines_match_a_set_model(
        shift in 1u32..64,
        ops in prop::collection::vec((0u8..4, 0u8..3, 0u64..160, any::<u64>()), 1..200),
    ) {
        let line_bytes = 1u64 << shift;
        let geom = CacheGeometry::new(line_bytes, 1, line_bytes);
        let cfg = HierarchyConfig { num_cores: 1, l1: geom, l2: geom };
        let mut h = Hierarchy::new(cfg, SeqFactory).unwrap();
        let top = u64::MAX >> shift; // the highest line index
        let mut model: HashSet<Addr> = HashSet::new();
        let mut resident: Option<Addr> = None;
        for (op, anchor, offset, byte) in ops {
            let index = match anchor {
                0 => offset.min(top),
                1 => ((top >> 1) + 1).saturating_sub(80).saturating_add(offset).min(top),
                _ => top - offset.min(top),
            };
            let line = Addr(index << shift);
            let addr = Addr(line.0 | (byte & (line_bytes - 1)));
            match op {
                0 | 1 => {
                    let r = h.ensure(CoreId(0), addr, AccessKind::Read).unwrap();
                    if resident == Some(line) {
                        prop_assert_eq!(r.served_by, ServedBy::L1);
                    } else {
                        prop_assert_eq!(r.served_by, ServedBy::Memory);
                        prop_assert_eq!(r.displaced, resident);
                        prop_assert_eq!(r.refetch_after_loss, model.contains(&line));
                        model.extend(resident.replace(line));
                    }
                }
                2 => prop_assert_eq!(
                    h.was_meta_lost(addr),
                    model.contains(&line),
                    "line {:?} at {}-byte lines", line, line_bytes
                ),
                _ => {
                    prop_assert_eq!(h.force_displace(0), resident);
                    model.extend(resident.take());
                }
            }
        }
    }

    /// The slab-and-hot-slot [`MetaDirectory`] is observationally the
    /// plain ordered-map directory it replaced: any interleaving of
    /// access / retire / flash leaves identical entry values, request
    /// counts, and membership.
    #[test]
    fn directory_slab_matches_the_map_reference(
        ops in prop::collection::vec((0u8..8, 0u64..16, 0u32..3), 1..250),
    ) {
        let mut dir = MetaDirectory::new(SeqFactory, 32);
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
