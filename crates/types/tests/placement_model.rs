//! A `PlacementHashMap`, grown early by `reserve_early` as the ideal
//! detectors grow theirs, checked against a `BTreeMap` model over keys
//! drawn as dense granule runs from the workload layout's regions.
//!
//! Every region base is 1 MiB-aligned, so under plain identity
//! placement all of them would share home bucket 0: the runs drawn here
//! collide on purpose. The map must stay exact however they collide,
//! and the hasher must keep the contract the ideal detectors' speed
//! rests on (each run in consecutive positions, neighbours with
//! distinct tags). The model comparison alone cannot see a hasher that
//! drops its tag bits — the map compares full keys after a tag match,
//! the tag only decides how many — so the contract is asserted on the
//! same keys.

use hard_types::{reserve_early, Addr, PlacementHashMap, PlacementHasher};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Locks, shared data and 16 private stripes, as `hard_workloads`'s
/// `Layout` places them.
fn region_base(r: u64) -> u64 {
    match r {
        0 => 0x1000_0000,
        1 => 0x2000_0000,
        t => 0x4000_0000 + (t - 2) * 0x0100_0000,
    }
}

/// Dense runs of 4-byte granules: `(first granule address, length)`.
/// Runs start within 16 KiB of a base and stay well inside one 1 MiB
/// placement run.
fn arb_runs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..18, 0u64..4096, 1u64..600), 1..8).prop_map(|runs| {
        runs.into_iter()
            .map(|(r, off, len)| (region_base(r) + 4 * off, len))
            .collect()
    })
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Insert,
    Get,
    Entry,
}

fn arb_steps() -> impl Strategy<Value = Vec<(Step, u64, u64, u32)>> {
    let step = prop_oneof![Just(Step::Insert), Just(Step::Get), Just(Step::Entry)];
    prop::collection::vec((step, any::<u64>(), any::<u64>(), any::<u32>()), 1..3000)
}

fn hash(key: u64) -> u64 {
    BuildHasherDefault::<PlacementHasher>::default().hash_one(Addr(key))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn placement_map_matches_a_btreemap(
        runs in arb_runs(),
        steps in arb_steps(),
        presized in any::<bool>(),
    ) {
        let mut map: PlacementHashMap<Addr, u32> = if presized {
            PlacementHashMap::with_capacity_and_hasher(1 << 12, Default::default())
        } else {
            PlacementHashMap::default()
        };
        let mut model: BTreeMap<Addr, u32> = BTreeMap::new();
        for (step, run_pick, granule_pick, value) in steps {
            let (start, len) = runs[(run_pick % runs.len() as u64) as usize];
            let key = Addr(start + 4 * (granule_pick % len));
            reserve_early(&mut map);
            match step {
                Step::Insert => {
                    prop_assert_eq!(map.insert(key, value), model.insert(key, value));
                }
                Step::Get => prop_assert_eq!(map.get(&key), model.get(&key)),
                Step::Entry => {
                    let m = map.entry(key).or_insert(value);
                    *m = m.wrapping_add(1);
                    let e = model.entry(key).or_insert(value);
                    *e = e.wrapping_add(1);
                    prop_assert_eq!(*m, *e);
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        let mut contents: Vec<(Addr, u32)> = map.into_iter().collect();
        contents.sort_unstable();
        prop_assert_eq!(contents, model.into_iter().collect::<Vec<_>>());

        for &(start, len) in &runs {
            let home = hash(start);
            for i in 0..len {
                let h = hash(start + 4 * i);
                prop_assert_eq!(
                    h << 7,
                    home.wrapping_add(i) << 7,
                    "granule {} of the run at {:#x} leaves its position",
                    i,
                    start
                );
            }
            for w in 0..len.saturating_sub(15) {
                let mut tags: Vec<u64> = (0..16).map(|i| hash(start + 4 * (w + i)) >> 57).collect();
                tags.sort_unstable();
                tags.dedup();
                prop_assert!(
                    tags.len() >= 12,
                    "16 neighbours from {:#x} share tags: {} distinct",
                    start + 4 * w,
                    tags.len()
                );
            }
        }
    }
}
