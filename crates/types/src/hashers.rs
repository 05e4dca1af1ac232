//! Fast, deterministic hashers for the detectors' hot-path tables.
//!
//! The per-access structures (granule tables, reported-race sets, the
//! directory index) are keyed by addresses and site ids — small integer
//! keys hashed millions of times per campaign. The standard library's
//! SipHash is DoS-resistant but costs more than the table lookup it
//! guards; simulation tables face no adversarial keys, so both hashers
//! here are cheap and — unlike `RandomState` — deterministic across
//! processes, which keeps any incidental iteration order reproducible.
//!
//! Which one to use:
//!
//! * [`PlacementHasher`] for hit-mostly tables keyed by 4-byte granule
//!   addresses (the ideal detectors' granule stores), where a lookup
//!   either finds its granule or inserts it at its own, still empty,
//!   home. It keeps consecutive granules in consecutive buckets, so an
//!   access stream that walks memory walks the table too: it touches
//!   few pages, and the host's prefetchers can follow it.
//! * [`FastHasher`] (the rustc `FxHash` multiply-rotate mixer) for
//!   everything else, and in particular for miss-heavy tables such as
//!   the directory index. A missing key must probe until it finds an
//!   empty slot, and under placement hashing a dense run of live
//!   neighbours is exactly what it probes through; scattered keys
//!   leave empty slots everywhere. Its bucket comes from the low bits
//!   of `key * SEED`, which for an aligned key (a line address) depend
//!   only on the key's low bits, so such keys start their probes at a
//!   fraction of the buckets; a table can key by the aligned value's
//!   index instead, as the cache model's lost-line set keys by block
//!   and the metadata directory by line index.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` mixing function over the written words.
#[derive(Default, Clone)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// A `HashMap` using [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` using [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Granule-index bits kept in address order: a run of `2^RUN_BITS`
/// consecutive granules (1 MiB of 4-byte granules, one pre-sized ideal
/// table's worth of buckets) occupies consecutive home buckets.
/// Chosen by measurement on the Table 2 sweep. Shorter runs (2^16)
/// split a region's dense parts into runs that land on each other, so
/// ocean's inserts probe 1.3 groups on average. Longer ones (2^20,
/// 2^22) give each thread's sparse private stripe its own stretch of
/// the table instead of letting the stripes interleave, so cholesky
/// touches 2.9x the bucket pages. Both lost a third to a half of the
/// gain.
const RUN_BITS: u32 = 18;

/// The hash bits std's `HashMap` (hashbrown) takes its bucket index
/// from; the 7 bits above them are its per-slot group tag.
const POSITION_MASK: u64 = (1 << 57) - 1;

/// Places 4-byte granule addresses by address: a key's home bucket
/// follows its granule index `x = addr >> 2`, offset by a mixed start
/// per run of `2^RUN_BITS` granules, and only the 7 tag bits are mixed.
///
/// The per-run offset keeps region bases apart: the workload layout
/// aligns every region (locks, shared data, each thread's private
/// stripe) to 1 MiB, so under plain identity placement all of their
/// first granules would share home bucket 0. The tag bits come from
/// `x * SEED`, so the 16 neighbours hashbrown compares in one group
/// almost never share a tag and a lookup compares one key, not many.
///
/// Made for keys that hash as a single integer (`Addr`, `u64`); keys
/// written as several words still hash correctly but place poorly.
#[derive(Default, Clone)]
pub struct PlacementHasher(u64);

impl PlacementHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.rotate_left(5).wrapping_mul(SEED) ^ word;
    }
}

impl Hasher for PlacementHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let x = self.0 >> 2;
        let run_start = (x >> RUN_BITS).wrapping_mul(SEED) >> 32;
        let home = x.wrapping_add(run_start);
        (home & POSITION_MASK) | (x.wrapping_mul(SEED) & !POSITION_MASK)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
}

/// A `HashMap` using [`PlacementHasher`]: for granule-keyed tables.
pub type PlacementHashMap<K, V> = HashMap<K, V, BuildHasherDefault<PlacementHasher>>;

/// Doubles `map` once it holds 3/4 of its buckets, ahead of hashbrown's
/// own growth at 7/8. Placement fills a table in runs, and past 3/4
/// the runs close up, so a new key's home sits in a long full stretch:
/// on cholesky's full-scale trace an insert at 3/4–7/8 load probed 59
/// groups on average, against at most 1.1 below 3/4. Call it before
/// each access's few inserts.
#[inline]
pub fn reserve_early<K: Eq + Hash, V>(map: &mut PlacementHashMap<K, V>) {
    #[cold]
    #[inline(never)]
    fn grow<K: Eq + Hash, V>(map: &mut PlacementHashMap<K, V>, additional: usize) {
        map.reserve(additional);
    }
    let capacity = map.capacity();
    if map.len() >= capacity - capacity / 7 {
        grow(map, capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn different_keys_differ() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        m.insert(7, 1);
        assert_eq!(m.get(&7), Some(&1));
        let mut s: FastHashSet<(u64, u32)> = FastHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    fn placed(addr: u64) -> u64 {
        let mut h = PlacementHasher::default();
        h.write_u64(addr);
        h.finish()
    }

    /// The workload layout's region bases (`hard_workloads::layout`):
    /// locks, shared data, then `stripes` private stripes 16 MiB apart.
    fn region_bases(stripes: u64) -> Vec<u64> {
        let mut bases = vec![0x1000_0000, 0x2000_0000];
        bases.extend((0..stripes).map(|t| 0x4000_0000 + t * 0x0100_0000));
        bases
    }

    const TABLE_MASK: u64 = (1 << 18) - 1;

    #[test]
    fn consecutive_granules_get_consecutive_buckets() {
        for base in region_bases(16).into_iter().chain([0, 0x7f_0000_0000]) {
            let home = placed(base);
            for i in 1..(1u64 << RUN_BITS) {
                let h = placed(base + 4 * i);
                assert_eq!(
                    h & POSITION_MASK,
                    (home + i) & POSITION_MASK,
                    "granule {i} of the run at {base:#x}"
                );
            }
        }
    }

    #[test]
    fn region_bases_get_distinct_homes() {
        for stripes in [4, 16] {
            let bases = region_bases(stripes);
            let homes: FastHashSet<u64> = bases.iter().map(|&b| placed(b) & TABLE_MASK).collect();
            assert_eq!(homes.len(), bases.len(), "{stripes} stripes: {homes:x?}");
        }
    }

    #[test]
    fn neighbours_carry_distinct_tags() {
        let starts = region_bases(16)
            .into_iter()
            .chain((0..64).map(|k| 0x2000_0000 + k * 0x1234_5678));
        for start in starts {
            for w in 0..64 {
                let window = start + w * 4;
                let tags: FastHashSet<u64> =
                    (0..16).map(|i| placed(window + 4 * i) >> 57).collect();
                assert!(tags.len() >= 12, "{} tags from {window:#x}", tags.len());
            }
        }
    }

    #[test]
    fn placement_bytes_agree_with_words() {
        for key in [0u64, 4, 0x2000_0000, 0x4123_4568, u64::MAX] {
            let mut a = PlacementHasher::default();
            a.write(&key.to_le_bytes());
            assert_eq!(a.finish(), placed(key));
        }
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PlacementHasher>::default();
        assert_eq!(
            build.hash_one(crate::Addr(0x2000_0010)),
            placed(0x2000_0010)
        );
    }

    #[test]
    fn tables_grow_at_three_quarters() {
        let mut m: PlacementHashMap<u64, ()> =
            PlacementHashMap::with_capacity_and_hasher(1 << 10, Default::default());
        let buckets = (m.capacity() + 1).next_power_of_two();
        for k in 0..(buckets * 3 / 4) as u64 {
            reserve_early(&mut m);
            m.insert(4 * k, ());
        }
        assert_eq!(
            (m.capacity() + 1).next_power_of_two(),
            buckets,
            "no growth below 3/4"
        );
        reserve_early(&mut m);
        assert!(m.capacity() >= buckets, "grown to twice the buckets");
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FastHasher::default();
        a.write(b"hello world");
        let mut b = FastHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
    }
}
