//! A generic set-associative cache array with LRU replacement.

use crate::cstate::CState;
use crate::geometry::CacheGeometry;
use hard_types::{Addr, HardError};
use std::mem::MaybeUninit;

/// One cache line: identity, coherence state and attached metadata.
#[derive(Clone, Debug)]
pub struct Line<M> {
    /// Line-aligned base address (we store the full address rather than
    /// the tag; the simulator favours clarity over bit-packing).
    pub addr: Addr,
    /// Coherence state (always [`CState::Modified`] or a plain
    /// valid/dirty notion in the L2, which is not a coherence
    /// participant).
    pub state: CState,
    /// The attached metadata (candidate set + LState for HARD,
    /// timestamps for happens-before).
    pub meta: M,
    lru: u64,
}

impl<M> Line<M> {
    /// The line's LRU stamp (the cache tick of its last touch).
    /// Exposed read-only so parity tests can pin replacement state
    /// across the scalar and batched probe paths.
    #[must_use]
    pub fn lru(&self) -> u64 {
        self.lru
    }
}

/// A line evicted to make room for an insertion.
#[derive(Clone, Debug)]
pub struct Evicted<M> {
    /// The victim's line address.
    pub addr: Addr,
    /// The victim's coherence state at eviction.
    pub state: CState,
    /// The victim's metadata (to be written back or dropped).
    pub meta: M,
}

/// The tag value of an empty slot. Never collides with a real line:
/// line addresses are aligned to `line_bytes ≥ 2`, so their low bit is
/// zero while `u64::MAX` is odd.
const TAG_EMPTY: u64 = u64::MAX;

/// A set-associative cache with LRU replacement, generic over per-line
/// metadata.
///
/// Storage is a single flat slot array of `num_sets × ways` entries in
/// which each set occupies a fixed window and keeps its valid lines as
/// a dense prefix (`lens[set]` of them). This replaces the former
/// `Vec<Vec<Line>>` — every set walk is a short contiguous scan with no
/// per-set heap indirection, and the array is allocated once at
/// construction. Within a set the prefix order emulates `Vec` push /
/// `swap_remove` exactly, so victim choice and global iteration order
/// are bit-identical to the nested representation.
///
/// Line identity and recency are mirrored into two dense `u64` arrays
/// (`tags`, `lrus`) kept in lockstep with the slots: a probe resolves
/// the tag match and a full-set insert resolves its LRU victim by
/// scanning one CPU cache line of packed words instead of striding
/// across `Line<M>` structs that can span hundreds of bytes each once
/// detection metadata is attached. `Line::lru` remains the
/// authoritative stamp (the parity tests pin it); the mirror is pure
/// acceleration and carries no independent state.
///
/// The slot array itself is *uninitialized capacity*: a slot holds a
/// live line **iff** its mirror tag is not `TAG_EMPTY` (equivalently,
/// iff it lies inside its set's dense prefix). This avoids writing —
/// and page-faulting — megabytes of empty `Line` storage every time a
/// machine is constructed, which a campaign does once per detector per
/// cell; sets the trace never touches never materialize at all. Every
/// read of a slot is gated on its tag, and [`Drop`]/[`Clone`] walk the
/// tags so exactly the live lines are freed or duplicated.
pub struct SetAssocCache<M> {
    geom: CacheGeometry,
    slots: Vec<MaybeUninit<Line<M>>>,
    tags: Vec<u64>,
    lrus: Vec<u64>,
    lens: Vec<u32>,
    tick: u64,
}

impl<M> SetAssocCache<M> {
    /// An empty cache of the given geometry.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> SetAssocCache<M> {
        let sets = geom.num_sets() as usize;
        let ways = geom.ways() as usize;
        SetAssocCache {
            geom,
            slots: Self::uninit_slots(sets * ways),
            tags: vec![TAG_EMPTY; sets * ways],
            lrus: vec![0; sets * ways],
            lens: vec![0; sets],
            tick: 0,
        }
    }

    /// `n` slots of uninitialized capacity — the backing array is
    /// reserved but never written, so construction costs O(1) work
    /// (plus the tag/LRU mirror memsets, 16 bytes per slot).
    fn uninit_slots(n: usize) -> Vec<MaybeUninit<Line<M>>> {
        let mut v = Vec::with_capacity(n);
        // SAFETY: `MaybeUninit` imposes no initialization requirement,
        // so exposing uninitialized capacity is sound. Reads are gated
        // by the struct invariant (live iff tag != TAG_EMPTY).
        unsafe { v.set_len(n) };
        v
    }

    /// Shared reference to a live slot.
    ///
    /// Internal contract: callers must have established that
    /// `self.tags[slot] != TAG_EMPTY`.
    #[inline]
    fn slot_ref(&self, slot: usize) -> &Line<M> {
        debug_assert_ne!(self.tags[slot], TAG_EMPTY);
        // SAFETY: a non-empty tag marks a live slot (struct invariant).
        unsafe { self.slots[slot].assume_init_ref() }
    }

    /// Mutable reference to a live slot (same contract as `slot_ref`).
    #[inline]
    fn slot_mut(&mut self, slot: usize) -> &mut Line<M> {
        debug_assert_ne!(self.tags[slot], TAG_EMPTY);
        // SAFETY: a non-empty tag marks a live slot (struct invariant).
        unsafe { self.slots[slot].assume_init_mut() }
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Number of currently valid lines.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    #[inline]
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The slot range holding `set`'s valid lines (its dense prefix).
    #[inline]
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.geom.ways() as usize;
        base..base + self.lens[set] as usize
    }

    /// Looks up the line containing `addr` without touching LRU state.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> Option<&Line<M>> {
        let line_addr = self.geom.line_of(addr);
        let range = self.set_range(self.geom.set_index(line_addr));
        let i = self.tags[range.clone()]
            .iter()
            .position(|&t| t == line_addr.0)?;
        Some(self.slot_ref(range.start + i))
    }

    /// Looks up the line containing `addr`, refreshing its LRU age.
    #[inline]
    pub fn probe(&mut self, addr: Addr) -> Option<&mut Line<M>> {
        let (line_addr, set) = self.geom.line_and_set(addr);
        self.probe_prepared(line_addr, set)
    }

    /// [`SetAssocCache::probe`] with the line address and set index
    /// already computed (by [`CacheGeometry::line_and_set`] in the
    /// batch kernel's pre-pass). Bumps the LRU tick exactly like
    /// `probe`, so the two are interchangeable bit-for-bit; the only
    /// difference is the hoisted address arithmetic. The set walk is a
    /// single flat slot-array sweep over the set's dense prefix.
    #[inline]
    pub fn probe_prepared(&mut self, line_addr: Addr, set: usize) -> Option<&mut Line<M>> {
        let tick = self.bump();
        let range = self.set_range(set);
        let i = self.tags[range.clone()]
            .iter()
            .position(|&t| t == line_addr.0)?;
        let slot = range.start + i;
        self.lrus[slot] = tick;
        let line = self.slot_mut(slot);
        line.lru = tick;
        Some(line)
    }

    /// [`SetAssocCache::probe`] returning the hit slot index instead
    /// of the line: one tag scan with the identical LRU charge (bump,
    /// then stamp on a hit), after which the caller can inspect and
    /// mutate the line through the tick-neutral slot accessors
    /// ([`SetAssocCache::peek_slot`],
    /// [`SetAssocCache::slot_line_mut`]) without paying a second scan.
    pub fn probe_slot(&mut self, addr: Addr) -> Option<usize> {
        let (line_addr, set) = self.geom.line_and_set(addr);
        let tick = self.bump();
        let range = self.set_range(set);
        let i = self.tags[range.clone()]
            .iter()
            .position(|&t| t == line_addr.0)?;
        let slot = range.start + i;
        self.lrus[slot] = tick;
        self.slot_mut(slot).lru = tick;
        Some(slot)
    }

    /// The cache's LRU tick (total probe/insert bumps so far). The
    /// batched-path parity tests compare tick values to prove the fused
    /// probe charges exactly what the scalar probe pair does.
    #[must_use]
    pub fn lru_tick(&self) -> u64 {
        self.tick
    }

    /// One scan charged as *two* consecutive probes: the batched access
    /// path replaces the scalar `ensure`-probe + metadata-probe pair
    /// (both of which bump the tick and, on a hit, stamp the line with
    /// the bumped value) with a single walk.
    ///
    /// On a hit the tick advances by 2 and the line's LRU is stamped
    /// with the final value — exactly the end state of two back-to-back
    /// hitting probes, whose intermediate stamp is dead (immediately
    /// overwritten, observable by nothing). On a miss the tick advances
    /// by 1, matching the single failed `ensure` probe (the metadata
    /// probe then happens separately, after the fill). Returns the
    /// absolute slot index alongside the line so the caller can memoize
    /// the hit for the same-core/same-line fast path.
    #[inline]
    pub fn probe_fused(&mut self, line_addr: Addr, set: usize) -> Option<(usize, &mut Line<M>)> {
        let range = self.set_range(set);
        let hit = self.tags[range.clone()]
            .iter()
            .position(|&t| t == line_addr.0);
        match hit {
            Some(i) => {
                self.tick += 2;
                let tick = self.tick;
                let slot = range.start + i;
                self.lrus[slot] = tick;
                let line = self.slot_mut(slot);
                line.lru = tick;
                Some((slot, line))
            }
            None => {
                self.tick += 1;
                None
            }
        }
    }

    /// Reads slot `slot` without touching LRU state — the validation
    /// half of the hot-slot fast path (`None` past the dense prefix or
    /// out of range).
    #[must_use]
    #[inline]
    pub fn peek_slot(&self, slot: usize) -> Option<&Line<M>> {
        if *self.tags.get(slot)? == TAG_EMPTY {
            return None;
        }
        Some(self.slot_ref(slot))
    }

    /// Touches a slot already validated by [`SetAssocCache::peek_slot`]
    /// with the same two-probe LRU charge as
    /// [`SetAssocCache::probe_fused`], skipping the set walk entirely.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty — the caller must have validated it.
    #[inline]
    pub fn touch_slot_fused(&mut self, slot: usize) -> &mut Line<M> {
        assert_ne!(self.tags[slot], TAG_EMPTY, "validated hot slot");
        self.tick += 2;
        let tick = self.tick;
        self.lrus[slot] = tick;
        let line = self.slot_mut(slot);
        line.lru = tick;
        line
    }

    /// Mutable access to a slot without any LRU charge (re-borrowing a
    /// line whose probe cost was already paid this access).
    #[inline]
    pub fn slot_line_mut(&mut self, slot: usize) -> Option<&mut Line<M>> {
        if *self.tags.get(slot)? == TAG_EMPTY {
            return None;
        }
        Some(self.slot_mut(slot))
    }

    /// Inserts a line (which must not already be present), evicting the
    /// LRU victim if the set is full.
    ///
    /// # Errors
    ///
    /// Returns [`HardError::DuplicateLine`] if the line is already
    /// present — the hierarchy must probe first.
    pub fn insert(
        &mut self,
        addr: Addr,
        state: CState,
        meta: M,
    ) -> Result<Option<Evicted<M>>, HardError> {
        let line_addr = self.geom.line_of(addr);
        let ways = self.geom.ways() as usize;
        let tick = self.bump();
        let set = self.geom.set_index(line_addr);
        let range = self.set_range(set);
        if self.tags[range.clone()].contains(&line_addr.0) {
            return Err(HardError::DuplicateLine { line: line_addr });
        }
        let victim = if range.len() >= ways {
            // Victim choice reads the packed recency mirror; ties are
            // impossible (the tick strictly increases), so "first
            // minimum" agrees with a scan of the line structs.
            self.lrus[range]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &lru)| lru)
                .map(|(vi, _)| vi)
                .map(|vi| {
                    let v = self.swap_remove(set, vi);
                    Evicted {
                        addr: v.addr,
                        state: v.state,
                        meta: v.meta,
                    }
                })
        } else {
            None
        };
        let slot = set * ways + self.lens[set] as usize;
        self.tags[slot] = line_addr.0;
        self.lrus[slot] = tick;
        // Overwriting a `MaybeUninit` never drops the old contents;
        // this slot was vacant (past the prefix), so there is nothing
        // to drop.
        self.slots[slot] = MaybeUninit::new(Line {
            addr: line_addr,
            state,
            meta,
            lru: tick,
        });
        self.lens[set] += 1;
        Ok(victim)
    }

    /// Removes position `i` of `set`'s prefix, backfilling with the
    /// last valid line — the `Vec::swap_remove` dance on the flat
    /// window.
    fn swap_remove(&mut self, set: usize, i: usize) -> Line<M> {
        let base = set * self.geom.ways() as usize;
        let last = self.lens[set] as usize - 1;
        self.slots.swap(base + i, base + last);
        self.tags.swap(base + i, base + last);
        self.lrus.swap(base + i, base + last);
        debug_assert_ne!(self.tags[base + last], TAG_EMPTY);
        self.tags[base + last] = TAG_EMPTY;
        self.lrus[base + last] = 0;
        self.lens[set] -= 1;
        // SAFETY: both positions were inside the dense prefix (live),
        // and the vacated slot's tag is now TAG_EMPTY, so ownership of
        // the line moves out exactly once.
        unsafe {
            std::mem::replace(&mut self.slots[base + last], MaybeUninit::uninit()).assume_init()
        }
    }

    /// Removes the line containing `addr`, returning it.
    pub fn remove(&mut self, addr: Addr) -> Option<Line<M>> {
        let line_addr = self.geom.line_of(addr);
        let set = self.geom.set_index(line_addr);
        let range = self.set_range(set);
        let i = self.tags[range].iter().position(|&t| t == line_addr.0)?;
        Some(self.swap_remove(set, i))
    }

    /// Iterates over all valid lines (in flat slot order, exactly the
    /// order the former `Option`-based array yielded).
    pub fn iter(&self) -> impl Iterator<Item = &Line<M>> {
        self.slots
            .iter()
            .zip(&self.tags)
            .filter(|(_, t)| **t != TAG_EMPTY)
            // SAFETY: a non-empty tag marks a live slot (struct
            // invariant).
            .map(|(s, _)| unsafe { s.assume_init_ref() })
    }

    /// Mutably iterates over all valid lines (for metadata flash
    /// operations such as HARD's barrier reset).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Line<M>> {
        self.slots
            .iter_mut()
            .zip(&self.tags)
            .filter(|(_, t)| **t != TAG_EMPTY)
            // SAFETY: a non-empty tag marks a live slot (struct
            // invariant).
            .map(|(s, _)| unsafe { s.assume_init_mut() })
    }
}

impl<M> Drop for SetAssocCache<M> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<Line<M>>() {
            return;
        }
        for (s, t) in self.slots.iter_mut().zip(&self.tags) {
            if *t != TAG_EMPTY {
                // SAFETY: a non-empty tag marks a live slot; each live
                // line is dropped exactly once here.
                unsafe { s.assume_init_drop() };
            }
        }
    }
}

impl<M: Clone> Clone for SetAssocCache<M> {
    fn clone(&self) -> SetAssocCache<M> {
        let mut slots = Self::uninit_slots(self.slots.len());
        for (i, t) in self.tags.iter().enumerate() {
            if *t != TAG_EMPTY {
                slots[i] = MaybeUninit::new(self.slot_ref(i).clone());
            }
        }
        SetAssocCache {
            geom: self.geom,
            slots,
            tags: self.tags.clone(),
            lrus: self.lrus.clone(),
            lens: self.lens.clone(),
            tick: self.tick,
        }
    }
}

impl<M: std::fmt::Debug> std::fmt::Debug for SetAssocCache<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geom", &self.geom)
            .field("occupancy", &self.occupancy())
            .field("tick", &self.tick)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u32> {
        // 2 sets × 2 ways of 32-byte lines.
        SetAssocCache::new(CacheGeometry::new(128, 2, 32))
    }

    #[test]
    fn insert_probe_roundtrip() {
        let mut c = small();
        assert!(c
            .insert(Addr(0x20), CState::Exclusive, 7)
            .unwrap()
            .is_none());
        assert_eq!(c.occupancy(), 1);
        let line = c.probe(Addr(0x24)).expect("same line");
        assert_eq!(line.meta, 7);
        assert_eq!(line.state, CState::Exclusive);
        assert!(c.peek(Addr(0x40)).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0x00, 0x40 (with 2 sets of 32B lines,
        // set = (addr/32) & 1).
        c.insert(Addr(0x00), CState::Exclusive, 1).unwrap();
        c.insert(Addr(0x40), CState::Exclusive, 2).unwrap();
        // Touch 0x00 so 0x40 becomes LRU.
        c.probe(Addr(0x00));
        let ev = c
            .insert(Addr(0x80), CState::Exclusive, 3)
            .unwrap()
            .expect("eviction");
        assert_eq!(ev.addr, Addr(0x40));
        assert_eq!(ev.meta, 2);
        assert!(c.peek(Addr(0x00)).is_some());
        assert!(c.peek(Addr(0x80)).is_some());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        c.insert(Addr(0x00), CState::Exclusive, 1).unwrap();
        c.insert(Addr(0x20), CState::Exclusive, 2).unwrap(); // set 1
        c.insert(Addr(0x40), CState::Exclusive, 3).unwrap(); // set 0
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn remove_returns_line() {
        let mut c = small();
        c.insert(Addr(0x00), CState::Modified, 9).unwrap();
        let l = c.remove(Addr(0x1F)).expect("same line");
        assert_eq!(l.meta, 9);
        assert_eq!(l.state, CState::Modified);
        assert_eq!(c.occupancy(), 0);
        assert!(c.remove(Addr(0x00)).is_none());
    }

    #[test]
    fn double_insert_is_an_error() {
        let mut c = small();
        c.insert(Addr(0x00), CState::Exclusive, 1).unwrap();
        let err = c.insert(Addr(0x04), CState::Exclusive, 2); // same line
        assert_eq!(
            err.err(),
            Some(hard_types::HardError::DuplicateLine { line: Addr(0x00) })
        );
        assert_eq!(c.occupancy(), 1, "the original line is untouched");
    }

    #[test]
    fn probe_prepared_matches_probe() {
        let mut a = small();
        let mut b = small();
        for addr in [0x00u64, 0x20, 0x40, 0x24, 0x80, 0x00] {
            let _ = a.insert(Addr(addr), CState::Exclusive, addr as u32);
            let _ = b.insert(Addr(addr), CState::Exclusive, addr as u32);
            let got = a.probe(Addr(addr + 4)).map(|l| (l.addr, l.meta, l.lru));
            let (line, set) = b.geometry().line_and_set(Addr(addr + 4));
            let want = b.probe_prepared(line, set).map(|l| (l.addr, l.meta, l.lru));
            assert_eq!(got, want, "divergence at {addr:#x}");
        }
        assert_eq!(a.tick, b.tick, "LRU tick sequences must be identical");
    }

    #[test]
    fn probe_fused_matches_two_consecutive_probes() {
        let mut a = small();
        let mut b = small();
        for addr in [0x00u64, 0x20, 0x40, 0x24, 0x80, 0x00, 0x44] {
            let _ = a.insert(Addr(addr), CState::Exclusive, addr as u32);
            let _ = b.insert(Addr(addr), CState::Exclusive, addr as u32);
            let (line, set) = a.geometry().line_and_set(Addr(addr + 4));
            // Scalar recipe: the ensure probe then the metadata probe.
            let first = a.probe_prepared(line, set).map(|l| l.addr);
            let got = if first.is_some() {
                a.probe_prepared(line, set).map(|l| (l.addr, l.meta, l.lru))
            } else {
                None
            };
            let want = b
                .probe_fused(line, set)
                .map(|(_, l)| (l.addr, l.meta, l.lru));
            assert_eq!(got, want, "divergence at {addr:#x}");
            // On a miss the scalar path's second probe only happens
            // after a fill; model that by skipping it above, so the
            // tick must match probe-for-probe here.
            assert_eq!(a.tick, b.tick, "LRU tick divergence at {addr:#x}");
        }
    }

    #[test]
    fn touch_slot_fused_matches_probe_fused_on_the_same_slot() {
        let mut a = small();
        let mut b = small();
        a.insert(Addr(0x00), CState::Exclusive, 1).unwrap();
        b.insert(Addr(0x00), CState::Exclusive, 1).unwrap();
        let (line, set) = a.geometry().line_and_set(Addr(0x04));
        let (slot, _) = b.probe_fused(line, set).expect("hit");
        a.probe_fused(line, set);
        // Re-touch: scan path vs memoized hot-slot path.
        let la = a.probe_fused(line, set).map(|(_, l)| l.lru).expect("hit");
        assert_eq!(b.peek_slot(slot).map(|l| l.addr), Some(line));
        let lb = b.touch_slot_fused(slot).lru;
        assert_eq!(la, lb);
        assert_eq!(a.tick, b.tick);
    }

    #[test]
    fn iter_mut_allows_flash_updates() {
        let mut c = small();
        c.insert(Addr(0x00), CState::Exclusive, 1).unwrap();
        c.insert(Addr(0x20), CState::Exclusive, 2).unwrap();
        for line in c.iter_mut() {
            line.meta = 0;
        }
        assert!(c.iter().all(|l| l.meta == 0));
    }
}
