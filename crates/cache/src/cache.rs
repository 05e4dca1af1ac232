//! A generic set-associative cache array with LRU replacement.

use crate::cstate::CState;
use crate::geometry::CacheGeometry;
use hard_types::Addr;
use std::mem::MaybeUninit;

/// One cache line: coherence state, holder bits and attached metadata.
///
/// The line's address and LRU stamp are not stored here: the cache's
/// packed `tags`/`lrus` mirrors hold them, once, for every slot.
#[derive(Clone, Debug)]
pub struct Line<M> {
    /// Coherence state (always [`CState::Modified`] or a plain
    /// valid/dirty notion in the L2, which is not a coherence
    /// participant).
    pub state: CState,
    /// Which L1s hold a copy of this line, one bit per (sector, core)
    /// pair. Kept by the hierarchy for the lines of its shared L2 (the
    /// core-valid bits of an inclusive last-level cache) and read
    /// through [`Hierarchy::holders`](crate::Hierarchy::holders); zero
    /// in an L1 line, and never interpreted by the cache itself.
    pub(crate) holders: u32,
    /// The attached metadata (candidate set + LState for HARD,
    /// timestamps for happens-before).
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
/// Line identity and recency live only in two dense `u64` arrays
/// (`tags`, `lrus`) kept in lockstep with the slots: a probe resolves
/// the tag match and a full-set fill resolves its LRU victim by
/// scanning one CPU cache line of packed words instead of striding
/// across `Line<M>` structs, and a `Line` carries neither field. The
/// parity tests read a line's stamp through [`SetAssocCache::lru_of`].
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

    /// The slot holding `line_addr` in `set` (as
    /// [`CacheGeometry::line_and_set`] gives them): one scan of the
    /// set's packed tags, without touching LRU state.
    #[inline]
    fn find(&self, line_addr: Addr, set: usize) -> Option<usize> {
        let range = self.set_range(set);
        let i = self.tags[range.clone()]
            .iter()
            .position(|&t| t == line_addr.0)?;
        Some(range.start + i)
    }

    /// The slot holding the line containing `addr`, without touching
    /// LRU state.
    #[must_use]
    #[inline]
    pub fn slot_of(&self, addr: Addr) -> Option<usize> {
        let (line_addr, set) = self.geom.line_and_set(addr);
        self.find(line_addr, set)
    }

    /// Looks up the line containing `addr` without touching LRU state.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> Option<&Line<M>> {
        self.slot_of(addr).map(|slot| self.slot_ref(slot))
    }

    /// The LRU stamp (the cache tick of its last touch) of the line
    /// containing `addr`, if resident. Tick-neutral; the parity tests
    /// pin replacement state across the scalar and batched probe paths
    /// with it.
    #[must_use]
    pub fn lru_of(&self, addr: Addr) -> Option<u64> {
        self.slot_of(addr).map(|slot| self.lrus[slot])
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
        let slot = self.probe_slot(line_addr, set)?;
        Some(self.slot_mut(slot))
    }

    /// [`SetAssocCache::probe_prepared`] returning the hit slot index
    /// instead of the line: one tag scan with the identical LRU charge
    /// (bump, then stamp on a hit), after which the caller can inspect
    /// and mutate the line through the tick-neutral slot accessors
    /// ([`SetAssocCache::peek_slot`], [`SetAssocCache::slot_line_mut`])
    /// without paying a second scan, and on a miss fill the probed set
    /// with [`SetAssocCache::fill`].
    #[inline]
    pub fn probe_slot(&mut self, line_addr: Addr, set: usize) -> Option<usize> {
        let tick = self.bump();
        let slot = self.find(line_addr, set)?;
        self.lrus[slot] = tick;
        Some(slot)
    }

    /// The cache's LRU tick (total probe/fill bumps so far). The
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
        match self.find(line_addr, set) {
            Some(slot) => {
                self.tick += 2;
                let tick = self.tick;
                self.lrus[slot] = tick;
                Some((slot, self.slot_mut(slot)))
            }
            None => {
                self.tick += 1;
                None
            }
        }
    }

    /// Reads slot `slot` if it holds the line containing `addr`,
    /// without touching LRU state — also the validation half of the
    /// hot-slot fast path.
    #[must_use]
    #[inline]
    pub fn peek_slot(&self, slot: usize, addr: Addr) -> Option<&Line<M>> {
        let tag = *self.tags.get(slot)?;
        if tag != self.geom.line_of(addr).0 || tag == TAG_EMPTY {
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
        self.slot_mut(slot)
    }

    /// Touches a live slot with the charge of one hitting probe (bump,
    /// then stamp), without scanning its set again: the slot
    /// [`SetAssocCache::fill`] just wrote (the metadata probe that
    /// follows a fill), or one [`SetAssocCache::slot_of`] just found.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[inline]
    pub fn touch_slot(&mut self, slot: usize) -> &mut Line<M> {
        assert_ne!(self.tags[slot], TAG_EMPTY, "a live slot");
        let tick = self.bump();
        self.lrus[slot] = tick;
        self.slot_mut(slot)
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

    /// Fills the set a probe has just missed: writes `line_addr` with
    /// no holder bits into `set` (both as [`CacheGeometry::line_and_set`]
    /// gives them) and returns its slot, so the caller can reach the
    /// line again through the slot accessors.
    ///
    /// On a full set the LRU victim is evicted where it lies: `evict`
    /// sees its address and line in their slot, the set's last line
    /// backfills that slot, and the victim is dropped in the last slot,
    /// where the new line is then written — the `Vec` swap-remove and
    /// push the dense-prefix order emulates. `evict` runs on no other
    /// fill.
    ///
    /// The line must be absent: the caller's probe of this set is the
    /// only duplicate check. Debug builds assert it; a release build
    /// would hold two copies of the line.
    pub fn fill(
        &mut self,
        line_addr: Addr,
        set: usize,
        state: CState,
        meta: M,
        evict: impl FnOnce(Addr, &Line<M>),
    ) -> usize {
        debug_assert_eq!(self.geom.line_and_set(line_addr), (line_addr, set));
        let ways = self.geom.ways() as usize;
        let tick = self.bump();
        let range = self.set_range(set);
        debug_assert!(
            self.find(line_addr, set).is_none(),
            "cache line {line_addr} filled while already present"
        );
        if range.len() >= ways {
            // Victim choice reads the packed recency mirror; ties are
            // impossible (the tick strictly increases), so "first
            // minimum" agrees with a scan of the line structs.
            let start = range.start;
            let victim = self.lrus[range]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &lru)| lru)
                .map_or(start, |(vi, _)| start + vi);
            evict(Addr(self.tags[victim]), self.slot_ref(victim));
            self.vacate(set, victim);
        }
        let slot = set * ways + self.lens[set] as usize;
        self.tags[slot] = line_addr.0;
        self.lrus[slot] = tick;
        // Overwriting a `MaybeUninit` never drops the old contents;
        // this slot is vacant (past the prefix), so there is nothing
        // to drop.
        self.slots[slot] = MaybeUninit::new(Line {
            state,
            holders: 0,
            meta,
        });
        self.lens[set] += 1;
        slot
    }

    /// Drops the live line at `slot` of `set`'s prefix, backfilling the
    /// hole with the set's last line. The line is swapped to the end of
    /// the prefix and the prefix shortened before it is dropped there,
    /// so a panicking drop leaves every tag naming a live line.
    fn vacate(&mut self, set: usize, slot: usize) {
        let last = set * self.geom.ways() as usize + self.lens[set] as usize - 1;
        debug_assert!(slot <= last && self.tags[slot] != TAG_EMPTY);
        self.slots.swap(slot, last);
        self.tags[slot] = self.tags[last];
        self.lrus[slot] = self.lrus[last];
        self.tags[last] = TAG_EMPTY;
        self.lrus[last] = 0;
        self.lens[set] -= 1;
        // SAFETY: the line now in `last` was live, and its tag is
        // TAG_EMPTY, so nothing else reads or drops it: it is dropped
        // exactly once, here.
        unsafe { self.slots[last].assume_init_drop() };
    }

    /// Removes the line containing `addr`, returning its coherence
    /// state. The line is dropped inside the cache, never moved out.
    pub fn remove(&mut self, addr: Addr) -> Option<CState> {
        let (line_addr, set) = self.geom.line_and_set(addr);
        let slot = self.find(line_addr, set)?;
        let state = self.slot_ref(slot).state;
        self.vacate(set, slot);
        Some(state)
    }

    /// Iterates over all valid lines with their addresses (in flat slot
    /// order, exactly the order the former `Option`-based array
    /// yielded).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &Line<M>)> {
        self.slots
            .iter()
            .zip(&self.tags)
            .filter(|(_, t)| **t != TAG_EMPTY)
            // SAFETY: a non-empty tag marks a live slot (struct
            // invariant).
            .map(|(s, t)| (Addr(*t), unsafe { s.assume_init_ref() }))
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

    /// Fills the line containing `addr` into the set it maps to,
    /// returning the victim's address and metadata.
    fn fill(c: &mut SetAssocCache<u32>, addr: u64, meta: u32) -> Option<(Addr, u32)> {
        let (line, set) = c.geometry().line_and_set(Addr(addr));
        let mut victim = None;
        c.fill(line, set, CState::Exclusive, meta, |a, l| {
            victim = Some((a, l.meta));
        });
        victim
    }

    /// `fill` unless the line is already resident, as the hierarchy
    /// only fills after a missing probe.
    fn fill_absent(c: &mut SetAssocCache<u32>, addr: u64, meta: u32) {
        if c.peek(Addr(addr)).is_none() {
            fill(c, addr, meta);
        }
    }

    #[test]
    fn insert_probe_roundtrip() {
        let mut c = small();
        assert!(fill(&mut c, 0x20, 7).is_none());
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
        fill(&mut c, 0x00, 1);
        fill(&mut c, 0x40, 2);
        // Touch 0x00 so 0x40 becomes LRU.
        c.probe(Addr(0x00));
        assert_eq!(fill(&mut c, 0x80, 3), Some((Addr(0x40), 2)));
        assert!(c.peek(Addr(0x00)).is_some());
        assert!(c.peek(Addr(0x80)).is_some());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        fill(&mut c, 0x00, 1);
        fill(&mut c, 0x20, 2); // set 1
        fill(&mut c, 0x40, 3); // set 0
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn remove_returns_the_state() {
        let mut c = small();
        c.fill(Addr(0x00), 0, CState::Modified, 9, |_, _| unreachable!());
        assert_eq!(c.remove(Addr(0x1F)), Some(CState::Modified), "same line");
        assert_eq!(c.occupancy(), 0);
        assert!(c.remove(Addr(0x00)).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "filled while already present")]
    fn double_insert_trips_the_absence_assert() {
        let mut c = small();
        fill(&mut c, 0x00, 1);
        fill(&mut c, 0x04, 2); // same line
    }

    #[test]
    fn probe_slot_then_insert_matches_the_probe_then_fill() {
        // The hierarchy's fill: one charged probe of the set, then a
        // fill of it, then a one-probe touch of the new slot — the
        // same ticks and stamps as probe, fill, probe.
        let mut a = small();
        let mut b = small();
        for addr in [0x00u64, 0x40, 0x00, 0x80, 0x24, 0x44] {
            let (line, set) = a.geometry().line_and_set(Addr(addr));
            if a.probe(Addr(addr)).is_none() {
                fill(&mut a, addr, addr as u32);
                a.probe(Addr(addr));
            }
            if b.probe_slot(line, set).is_none() {
                let slot = b.fill(line, set, CState::Exclusive, addr as u32, |_, _| {});
                assert_eq!(b.touch_slot(slot).meta, addr as u32);
            }
            assert_eq!(a.lru_of(line), b.lru_of(line), "stamp at {addr:#x}");
            assert_eq!(a.tick, b.tick, "LRU tick divergence at {addr:#x}");
        }
        let lines = |c: &SetAssocCache<u32>| c.iter().map(|(l, _)| l).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
    }

    #[test]
    fn probe_prepared_matches_probe() {
        let mut a = small();
        let mut b = small();
        for addr in [0x00u64, 0x20, 0x40, 0x24, 0x80, 0x00] {
            fill_absent(&mut a, addr, addr as u32);
            fill_absent(&mut b, addr, addr as u32);
            let got = a.probe(Addr(addr + 4)).map(|l| l.meta);
            let (line, set) = b.geometry().line_and_set(Addr(addr + 4));
            let want = b.probe_prepared(line, set).map(|l| l.meta);
            assert_eq!(got, want, "divergence at {addr:#x}");
            assert_eq!(a.lru_of(line), b.lru_of(line), "stamp at {addr:#x}");
        }
        assert_eq!(a.tick, b.tick, "LRU tick sequences must be identical");
    }

    #[test]
    fn probe_fused_matches_two_consecutive_probes() {
        let mut a = small();
        let mut b = small();
        for addr in [0x00u64, 0x20, 0x40, 0x24, 0x80, 0x00, 0x44] {
            fill_absent(&mut a, addr, addr as u32);
            fill_absent(&mut b, addr, addr as u32);
            let (line, set) = a.geometry().line_and_set(Addr(addr + 4));
            // Scalar recipe: the ensure probe then the metadata probe.
            let first = a.probe_prepared(line, set).is_some();
            let got = if first {
                a.probe_prepared(line, set).map(|l| l.meta)
            } else {
                None
            };
            let want = b.probe_fused(line, set).map(|(_, l)| l.meta);
            assert_eq!(got, want, "divergence at {addr:#x}");
            assert_eq!(a.lru_of(line), b.lru_of(line), "stamp at {addr:#x}");
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
        fill(&mut a, 0x00, 1);
        fill(&mut b, 0x00, 1);
        let (line, set) = a.geometry().line_and_set(Addr(0x04));
        let (slot, _) = b.probe_fused(line, set).expect("hit");
        a.probe_fused(line, set);
        // Re-touch: scan path vs memoized hot-slot path.
        assert!(a.probe_fused(line, set).is_some());
        assert!(b.peek_slot(slot, line).is_some());
        assert!(b.peek_slot(slot, Addr(0x1F)).is_some(), "any address in it");
        assert!(b.peek_slot(slot, Addr(0x20)).is_none(), "wrong line");
        assert!(b.peek_slot(1, Addr(TAG_EMPTY)).is_none(), "empty slot");
        b.touch_slot_fused(slot);
        assert_eq!(a.lru_of(line), b.lru_of(line));
        assert_eq!(a.tick, b.tick);
    }

    #[test]
    fn iter_mut_allows_flash_updates() {
        let mut c = small();
        fill(&mut c, 0x00, 1);
        fill(&mut c, 0x20, 2);
        for line in c.iter_mut() {
            line.meta = 0;
        }
        assert!(c.iter().all(|(_, l)| l.meta == 0));
        let addrs: Vec<Addr> = c.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, [Addr(0x00), Addr(0x20)]);
    }
}
