//! The CMP memory hierarchy: per-core L1s, shared inclusive L2, snoopy
//! MESI bus, with metadata travelling alongside every line.
//!
//! The L2 may use the L1's line size (Table 1) or twice it (Figure 3:
//! "The L2 line size is twice of the L1 line size"). In the sectored
//! configuration each L2 line holds one metadata slot per L1-line
//! sector, sectors validate independently, and an L2 displacement
//! loses the metadata of every valid sector at once.
//!
//! Snoops go through the inclusive L2, as a real CMP's core-valid bits
//! let them: every L2 line keeps a holder word recording which L1s hold
//! each of its sectors, so a miss finds its peer copies with the one L2
//! probe it makes anyway instead of searching every L1.

use crate::cache::{Line, SetAssocCache};
use crate::cstate::CState;
use crate::geometry::CacheGeometry;
use crate::lost::LostLines;
use crate::policy::MetaFactory;
use crate::stats::MemStats;
use hard_obs::{CounterId, Event, ObsHandle};
use hard_types::{AccessKind, Addr, CoreId, HardError};

/// Hierarchy shape (Table 1 defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores, each with a private L1.
    pub num_cores: usize,
    /// Per-core L1 geometry.
    pub l1: CacheGeometry,
    /// Shared, inclusive L2 geometry.
    pub l2: CacheGeometry,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            num_cores: 4,
            l1: CacheGeometry::new(16 * 1024, 4, 32),
            l2: CacheGeometry::new(1024 * 1024, 8, 32),
        }
    }
}

/// The metadata an L2 line carries: one slot per configured sector.
///
/// Table 1's L2 uses the L1's line size, so its lines have one sector
/// and hold that sector's slot inline — an L2 line costs what one slot
/// costs. Figure 3's L2 lines are twice the L1's; only that geometry
/// pays for a second slot, and it keeps both slots in one heap block so
/// the one-sector line never grows to make room for them. A slot is
/// `None` while its sector is invalid. Every line of one hierarchy has
/// the same arm.
#[derive(Clone, Debug)]
pub enum L2Sectors<M> {
    /// One sector (Table 1).
    One(Option<M>),
    /// Two sectors (Figure 3).
    Two(Box<[Option<M>; 2]>),
}

impl<M> L2Sectors<M> {
    /// All-invalid slots for a line of `sectors` sectors (1 or 2).
    fn vacant(sectors: usize) -> L2Sectors<M> {
        if sectors == 1 {
            L2Sectors::One(None)
        } else {
            L2Sectors::Two(Box::new([None, None]))
        }
    }

    /// The slots, one per sector, in address order.
    #[must_use]
    pub fn as_slice(&self) -> &[Option<M>] {
        match self {
            L2Sectors::One(slot) => std::slice::from_ref(slot),
            L2Sectors::Two(slots) => &slots[..],
        }
    }

    /// Mutable view of the slots.
    pub fn as_mut_slice(&mut self) -> &mut [Option<M>] {
        match self {
            L2Sectors::One(slot) => std::slice::from_mut(slot),
            L2Sectors::Two(slots) => &mut slots[..],
        }
    }
}

impl<M> std::ops::Index<usize> for L2Sectors<M> {
    type Output = Option<M>;
    fn index(&self, i: usize) -> &Option<M> {
        &self.as_slice()[i]
    }
}

impl<M> std::ops::IndexMut<usize> for L2Sectors<M> {
    fn index_mut(&mut self, i: usize) -> &mut Option<M> {
        &mut self.as_mut_slice()[i]
    }
}

/// Copies `meta` into an L2 sector slot, overwriting a valid slot in
/// place ([`Clone::clone_from`]) so metadata that keeps its words on
/// the heap reuses the slot's allocation.
fn store<M: Clone>(slot: &mut Option<M>, meta: &M) {
    match slot {
        Some(m) => m.clone_from(meta),
        None => *slot = Some(meta.clone()),
    }
}

/// Where an access was served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedBy {
    /// L1 hit (possibly with a silent E→M upgrade).
    L1,
    /// L1 hit in Shared state that needed a bus upgrade to write.
    L1Upgrade,
    /// Another core's L1 supplied the line.
    Peer,
    /// The shared L2 supplied the line.
    L2,
    /// Fetched from memory.
    Memory,
}

/// Outcome of making a line accessible to a core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnsureResult {
    /// Service point of the access.
    pub served_by: ServedBy,
    /// Data-carrying bus transactions performed.
    pub bus_data: u32,
    /// Control-only bus transactions performed (upgrades/invalidates).
    pub bus_control: u32,
    /// The line was re-fetched from memory after its metadata had been
    /// lost to an earlier L2 displacement — the cause of HARD's missed
    /// races (paper §3.6).
    pub refetch_after_loss: bool,
    /// The L2 line this access's fill displaced, if any. Its L1 copies
    /// were back-invalidated and the metadata of its valid sectors lost
    /// (their L1 lines now read [`Hierarchy::was_meta_lost`]); the
    /// directory variant retires its entries for the line here.
    pub displaced: Option<Addr>,
}

impl EnsureResult {
    fn hit() -> EnsureResult {
        EnsureResult {
            served_by: ServedBy::L1,
            bus_data: 0,
            bus_control: 0,
            refetch_after_loss: false,
            displaced: None,
        }
    }

    fn upgrade() -> EnsureResult {
        EnsureResult {
            served_by: ServedBy::L1Upgrade,
            bus_control: 1,
            ..EnsureResult::hit()
        }
    }
}

/// The cores in a core mask, lowest first.
fn cores(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            core
        })
    })
}

/// One bit per core of a `num_cores`-core hierarchy: the width of a
/// sector's holder group.
#[inline]
fn all_cores(num_cores: usize) -> u32 {
    u32::MAX >> (u32::BITS as usize - num_cores)
}

/// The cores a holder word records for `sector`, as a core mask, in a
/// hierarchy of `num_cores` cores.
#[inline]
fn holders_of(holders: u32, sector: usize, num_cores: usize) -> u32 {
    (holders >> (sector * num_cores)) & all_cores(num_cores)
}

/// Handles an L2 eviction, on the victim where it still lies:
/// back-invalidate the L1 copies its holder word records (inclusion)
/// and record each valid sector's metadata loss. A function of the
/// fields it touches, so the L2 fill can run it while it holds the L2.
fn l2_evicted<M>(
    cfg: &HierarchyConfig,
    l1: &mut [SetAssocCache<M>],
    stats: &mut MemStats,
    lost_meta: &mut LostLines,
    obs: &ObsHandle,
    victim_addr: Addr,
    victim: &Line<L2Sectors<M>>,
) {
    stats.l2_evictions += 1;
    let mut sectors_lost = 0u32;
    for (i, slot) in victim.meta.as_slice().iter().enumerate() {
        let l1_line = Addr(victim_addr.0 + i as u64 * cfg.l1.line_bytes());
        if slot.is_some() {
            lost_meta.insert(l1_line);
            sectors_lost += 1;
        }
        for p in cores(holders_of(victim.holders, i, cfg.num_cores)) {
            if l1[p].remove(l1_line) == Some(CState::Modified) {
                stats.writebacks += 1;
            }
        }
    }
    if victim.holders != 0 {
        stats.l2_back_invalidations += 1;
    }
    obs.counter(CounterId::L2Displacements, 1);
    if sectors_lost > 0 {
        obs.counter(CounterId::MetaLossLines, u64::from(sectors_lost));
    }
    obs.emit(|| Event::Displacement {
        line: victim_addr.0,
        sectors_lost,
    });
}

/// The simulated memory system. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Hierarchy<F: MetaFactory> {
    cfg: HierarchyConfig,
    factory: F,
    l1: Vec<SetAssocCache<F::Meta>>,
    /// The L2 line holds one metadata slot per L1-line sector
    /// (one slot in the Table 1 configuration, two in Figure 3's), and
    /// its `Line::holders` word has bit `sector * num_cores + core`
    /// set iff that core's L1 holds that sector.
    l2: SetAssocCache<L2Sectors<F::Meta>>,
    sectors: usize,
    /// `log2` of the L1 line size: a line's sector is
    /// `(addr >> l1_shift) & (sectors - 1)`.
    l1_shift: u32,
    stats: MemStats,
    lost_meta: LostLines,
    /// Same-core/same-line memo for the fused access path: the L1
    /// slot that served the previous [`Hierarchy::access_prepared`]
    /// hit. Validated (address + state) before every use, so it is a
    /// pure scan-skip — never a source of stale coherence decisions.
    hot: Option<(u32, Addr, u32)>,
    obs: ObsHandle,
}

impl<F: MetaFactory> Hierarchy<F> {
    /// An empty hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`HardError::InvalidConfig`] if there are no cores, if
    /// the L2 line size is not the L1's (Table 1) or twice it
    /// (Figure 3) — the simulator keeps one machine-wide line size — or
    /// if cores × sectors exceed the 32 bits of an L2 line's holder
    /// word.
    pub fn new(cfg: HierarchyConfig, factory: F) -> Result<Hierarchy<F>, HardError> {
        if cfg.num_cores == 0 {
            return Err(HardError::InvalidConfig {
                what: "need at least one core".into(),
            });
        }
        let factor = cfg.l2.line_bytes() / cfg.l1.line_bytes();
        if !cfg.l2.line_bytes().is_multiple_of(cfg.l1.line_bytes()) || !(1..=2).contains(&factor) {
            return Err(HardError::InvalidConfig {
                what: "the L2 line must equal the L1 line (Table 1) or twice it (Figure 3)".into(),
            });
        }
        let sectors = factor as usize;
        if cfg.num_cores * sectors > u32::BITS as usize {
            return Err(HardError::InvalidConfig {
                what: format!(
                    "{} cores x {sectors} sectors exceed the {}-bit L2 holder word",
                    cfg.num_cores,
                    u32::BITS
                ),
            });
        }
        let l1_shift = cfg.l1.line_bytes().trailing_zeros();
        Ok(Hierarchy {
            l1: (0..cfg.num_cores)
                .map(|_| SetAssocCache::new(cfg.l1))
                .collect(),
            l2: SetAssocCache::new(cfg.l2),
            sectors,
            l1_shift,
            cfg,
            factory,
            stats: MemStats::default(),
            lost_meta: LostLines::new(l1_shift),
            hot: None,
            obs: ObsHandle::off(),
        })
    }

    /// The sector index of an L1 line within its L2 line.
    #[inline]
    fn sector_of(&self, l1_line: Addr) -> usize {
        (l1_line.0 >> self.l1_shift) as usize & (self.sectors - 1)
    }

    /// `core`'s bit for `sector` in an L2 line's holder word.
    #[inline]
    fn holder_bit(&self, core: usize, sector: usize) -> u32 {
        1 << (sector * self.cfg.num_cores + core)
    }

    /// Mutable access to the L2 metadata slot for an L1 line, if the
    /// L2 line is present (the sector itself may be invalid/`None`).
    fn l2_slot_mut(&mut self, l1_line: Addr) -> Option<&mut Option<F::Meta>> {
        let idx = self.sector_of(l1_line);
        self.l2.probe(l1_line).map(|l| &mut l.meta[idx])
    }

    /// The hierarchy's configuration.
    #[must_use]
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// Machine-wide line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.cfg.l1.line_bytes()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Attaches an observability handle. The default is
    /// [`ObsHandle::off`], which is bit- and perf-inert; cloning a
    /// hierarchy shares the attached recorder.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The cores whose L1 holds a copy of `addr`'s line, as a core
    /// mask (bit `i` for core `i`) read from the line's L2 holder word;
    /// 0 when the L2 does not hold the line. Pure: no LRU or
    /// statistics effects.
    #[must_use]
    pub fn holders(&self, addr: Addr) -> u32 {
        let line = self.cfg.l1.line_of(addr);
        self.l2.peek(line).map_or(0, |l| {
            holders_of(l.holders, self.sector_of(line), self.cfg.num_cores)
        })
    }

    /// Number of L1 caches holding a valid copy of `addr`'s line.
    #[must_use]
    pub fn sharers(&self, addr: Addr) -> usize {
        self.holders(addr).count_ones() as usize
    }

    /// True iff a copy of `addr`'s line exists in an L1 *other than*
    /// `core`'s, given that `core` holds the line (the caller just
    /// ensured it). MESI grants Exclusive only when no peer holds a
    /// copy and Modified only after invalidating them, so when `core`'s
    /// copy is not Shared the answer is `false` after a single tag
    /// probe — the detectors use this to skip the L2 lookup of
    /// [`Hierarchy::sharers`] on the (dominant) exclusive paths.
    /// Pure: no LRU or statistics effects.
    #[must_use]
    pub fn shared_beyond(&self, core: CoreId, addr: Addr) -> bool {
        match self.l1[core.index()].peek(addr).map(|l| l.state) {
            Some(CState::Shared) => self.sharers(addr) > 1,
            _ => false,
        }
    }

    /// True if the line containing `addr` ever lost its metadata to an
    /// L2 displacement.
    #[must_use]
    pub fn was_meta_lost(&self, addr: Addr) -> bool {
        self.lost_meta.contains(addr)
    }

    /// Mutable access to `core`'s copy of the metadata for `addr`'s
    /// line. The line must have been made resident with
    /// [`Hierarchy::ensure`] first.
    pub fn meta_mut(&mut self, core: CoreId, addr: Addr) -> Option<&mut F::Meta> {
        self.l1[core.index()].probe(addr).map(|l| &mut l.meta)
    }

    /// Read access to `core`'s copy of the metadata for `addr`'s line.
    #[must_use]
    pub fn meta(&self, core: CoreId, addr: Addr) -> Option<&F::Meta> {
        self.l1[core.index()].peek(addr).map(|l| &l.meta)
    }

    /// The coherence state of `core`'s copy of `addr`'s line, if any
    /// (inspection/testing).
    #[must_use]
    pub fn l1_state(&self, core: CoreId, addr: Addr) -> Option<CState> {
        self.l1[core.index()].peek(addr).map(|l| l.state)
    }

    /// Broadcasts `core`'s metadata for `addr`'s line to every other L1
    /// copy and the L2 (paper §3.4: performed when a shared line's
    /// candidate set changes). Counts one metadata bus transaction.
    ///
    /// # Errors
    ///
    /// Returns [`HardError::CoherenceViolation`] if `core` does not
    /// hold the line — possible when a fault displaced it between the
    /// access and the broadcast.
    pub fn broadcast_meta(&mut self, core: CoreId, addr: Addr) -> Result<(), HardError> {
        let meta = self.l1[core.index()]
            .peek(addr)
            .ok_or(HardError::CoherenceViolation {
                core,
                line: self.cfg.l1.line_of(addr),
                what: "broadcast sourced from a core without a copy",
            })?
            .meta
            .clone();
        for (i, l1) in self.l1.iter_mut().enumerate() {
            if i != core.index() {
                if let Some(line) = l1.probe(addr) {
                    line.meta.clone_from(&meta);
                }
            }
        }
        let l1_line = self.cfg.l1.line_of(addr);
        if let Some(slot) = self.l2_slot_mut(l1_line) {
            store(slot, &meta);
        }
        self.stats.meta_broadcasts += 1;
        self.obs.counter(CounterId::BroadcastsSent, 1);
        self.obs.emit(|| Event::Broadcast { line: l1_line.0 });
        Ok(())
    }

    /// Applies `f` to the metadata of every valid L1 and L2 line
    /// (HARD's barrier flash-reset, §3.5).
    pub fn flash_meta(&mut self, mut f: impl FnMut(&mut F::Meta)) {
        for l1 in &mut self.l1 {
            for line in l1.iter_mut() {
                f(&mut line.meta);
            }
        }
        for line in self.l2.iter_mut() {
            for slot in line.meta.as_mut_slice().iter_mut().flatten() {
                f(slot);
            }
        }
    }

    /// Fills set `set` of core `c`'s L1, which has just missed
    /// `line_addr`, writing the victim (if any) back to the L2, and
    /// records the core among the holders of the new line's L2 line (at
    /// `l2_slot`). Returns the new line's L1 slot.
    fn l1_insert(
        &mut self,
        c: usize,
        line_addr: Addr,
        set: usize,
        state: CState,
        meta: F::Meta,
        l2_slot: usize,
    ) -> usize {
        let slot = self.l1[c].fill(line_addr, set, state, meta, |victim_addr, victim| {
            self.stats.l1_evictions += 1;
            let dirty = victim.state == CState::Modified;
            if dirty {
                self.stats.writebacks += 1;
            }
            // Inclusion: the L2 still holds the victim; push the
            // freshest metadata down and drop the core from its holders.
            // (`sector_of` and `holder_bit` would borrow all of `self`.)
            let idx = (victim_addr.0 >> self.l1_shift) as usize & (self.sectors - 1);
            if let Some(l2line) = self.l2.probe(victim_addr) {
                store(&mut l2line.meta[idx], &victim.meta);
                l2line.holders &= !(1 << (idx * self.cfg.num_cores + c));
                if dirty {
                    l2line.state = CState::Modified;
                }
            }
        });
        let bit = self.holder_bit(c, self.sector_of(line_addr));
        if let Some(l2line) = self.l2.slot_line_mut(l2_slot) {
            l2line.holders |= bit;
        }
        slot
    }

    /// Invalidates every copy of the L1 line `line_addr` held by a core
    /// other than `c` — the BusRdX / bus-upgrade broadcast — visiting
    /// only the holders recorded in its L2 line at `l2_slot`, and
    /// clears their bits there.
    fn invalidate_peers(&mut self, c: usize, line_addr: Addr, l2_slot: Option<usize>) {
        let shift = self.sector_of(line_addr) * self.cfg.num_cores;
        let mask = all_cores(self.cfg.num_cores) & !(1 << c);
        let Some(l2line) = l2_slot.and_then(|s| self.l2.slot_line_mut(s)) else {
            return;
        };
        let peers = (l2line.holders >> shift) & mask;
        l2line.holders &= !(peers << shift);
        for p in cores(peers) {
            self.l1[p].remove(line_addr);
        }
    }

    /// Makes the line containing `addr` resident in `core`'s L1 with
    /// permission for `kind`, performing all coherence actions, and
    /// reports how the access was served.
    ///
    /// `addr` may be any address within the line.
    ///
    /// # Errors
    ///
    /// Returns [`HardError::CoherenceViolation`] if an MESI invariant
    /// does not hold; impossible in a fault-free run, but reachable when
    /// a fault layer perturbs the caches between accesses.
    pub fn ensure(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
    ) -> Result<EnsureResult, HardError> {
        let (line_addr, set) = self.cfg.l1.line_and_set(addr);
        self.ensure_prepared(core, line_addr, set, kind)
    }

    /// [`Hierarchy::ensure`] with the line address and set index already
    /// computed by the batch kernel's pre-pass. Charges exactly one LRU
    /// probe on the hit path, like `ensure` — the directory variant,
    /// whose scalar recipe is a single `ensure` per access (its
    /// metadata lives in the directory, not the L1), batches through
    /// this entry point.
    ///
    /// # Errors
    ///
    /// As [`Hierarchy::ensure`].
    pub fn ensure_prepared(
        &mut self,
        core: CoreId,
        line_addr: Addr,
        set: usize,
        kind: AccessKind,
    ) -> Result<EnsureResult, HardError> {
        let c = core.index();

        // L1 hit paths.
        if let Some(line) = self.l1[c].probe_prepared(line_addr, set) {
            match kind {
                AccessKind::Read => {
                    self.stats.l1_hits += 1;
                    return Ok(EnsureResult::hit());
                }
                AccessKind::Write => match line.state {
                    CState::Modified => {
                        self.stats.l1_hits += 1;
                        return Ok(EnsureResult::hit());
                    }
                    CState::Exclusive => {
                        line.state = CState::Modified;
                        self.stats.l1_hits += 1;
                        return Ok(EnsureResult::hit());
                    }
                    CState::Shared => {
                        // Bus upgrade: invalidate the other copies.
                        line.state = CState::Modified;
                        self.stats.l1_hits += 1;
                        self.stats.upgrades += 1;
                        self.stats.bus_control += 1;
                        let l2_slot = self.l2.slot_of(line_addr);
                        self.invalidate_peers(c, line_addr, l2_slot);
                        return Ok(EnsureResult::upgrade());
                    }
                    CState::Invalid => {
                        return Err(HardError::CoherenceViolation {
                            core,
                            line: line_addr,
                            what: "an invalid line was stored in an L1",
                        })
                    }
                },
            }
        }

        self.miss_path(core, line_addr, set, kind)
            .map(|(result, _)| result)
    }

    /// The L1-miss half of [`Hierarchy::ensure`]: snoop, fill, insert.
    /// Shared verbatim by `ensure_prepared` and `access_prepared` so the
    /// coherence actions (and their stat/LRU charges) cannot diverge
    /// between them. `set` is the L1 set whose probe missed; each cache
    /// the miss fills is filled in the set its one probe scanned, and
    /// the new L1 line's slot is returned with the result.
    fn miss_path(
        &mut self,
        core: CoreId,
        line_addr: Addr,
        set: usize,
        kind: AccessKind,
    ) -> Result<(EnsureResult, usize), HardError> {
        let c = core.index();
        self.stats.l1_misses += 1;
        self.obs.counter(CounterId::CacheFills, 1);
        let mut result = EnsureResult {
            served_by: ServedBy::L2,
            bus_data: 1,
            ..EnsureResult::hit()
        };
        self.stats.bus_data += 1;
        let idx = self.sector_of(line_addr);

        // Snoop through the inclusive L2: the line's holder word names
        // every peer copy. This is the miss's one charged L2 probe,
        // whether a peer, the L2 or memory then supplies the line; the
        // line is reached again through tick-neutral slot accessors.
        let (l2_line, l2_set) = self.cfg.l2.line_and_set(line_addr);
        let mut l2_slot = self.l2.probe_slot(l2_line, l2_set);
        let peers = l2_slot
            .and_then(|s| self.l2.peek_slot(s, line_addr))
            .map_or(0, |l| holders_of(l.holders, idx, self.cfg.num_cores))
            & !(1 << c);
        // MESI: an M/E copy is the only copy, so only a lone peer can
        // own the line. One tick-neutral scan finds the owner's slot.
        let owner = if peers.is_power_of_two() {
            let o = peers.trailing_zeros() as usize;
            let l1 = &self.l1[o];
            l1.slot_of(line_addr)
                .filter(|&s| {
                    l1.peek_slot(s, line_addr)
                        .is_some_and(|l| l.state.is_exclusive_kind())
                })
                .map(|s| (o, s))
        } else {
            None
        };

        let meta = if let Some((o, slot)) = owner {
            // Cache-to-cache transfer from the owning peer, charged as
            // one hitting probe of its copy.
            self.stats.c2c_transfers += 1;
            result.served_by = ServedBy::Peer;
            let line = self.l1[o].touch_slot(slot);
            let peer_meta = line.meta.clone();
            let was_modified = line.state == CState::Modified;
            // A read downgrades the owner; a write's BusRdX invalidates
            // it below with the other peers.
            line.state = CState::Shared;
            // The owner's (freshest) metadata and data flow to the L2.
            if was_modified {
                self.stats.writebacks += 1;
            }
            if let Some(l2line) = l2_slot.and_then(|s| self.l2.slot_line_mut(s)) {
                store(&mut l2line.meta[idx], &peer_meta);
                if was_modified {
                    l2line.state = CState::Modified;
                }
            }
            peer_meta
        } else if let Some(m) = l2_slot
            .and_then(|s| self.l2.peek_slot(s, line_addr))
            .and_then(|l| l.meta[idx].as_ref())
        {
            // The L2 holds a valid sector; sharers (if any) are clean
            // and consistent with it.
            self.stats.l2_hits += 1;
            m.clone()
        } else {
            // Fetch from memory: fresh metadata (paper §3.1).
            self.stats.l2_misses += 1;
            result.served_by = ServedBy::Memory;
            result.refetch_after_loss = self.lost_meta.contains(line_addr);
            if result.refetch_after_loss {
                self.obs.counter(CounterId::RefetchesAfterLoss, 1);
                self.obs
                    .emit(|| Event::RefetchAfterLoss { line: line_addr.0 });
            }
            let fresh = self.factory.fresh(core);
            if let Some(l2line) = l2_slot.and_then(|s| self.l2.slot_line_mut(s)) {
                // The L2 line exists but this sector was invalid:
                // validate it in place, no eviction.
                l2line.meta[idx] = Some(fresh.clone());
            } else {
                let mut sectors = L2Sectors::vacant(self.sectors);
                sectors[idx] = Some(fresh.clone());
                let evict = |a, victim: &_| {
                    result.displaced = Some(a);
                    let (l1, stats, lost) = (&mut self.l1, &mut self.stats, &mut self.lost_meta);
                    l2_evicted(&self.cfg, l1, stats, lost, &self.obs, a, victim);
                };
                let slot = self
                    .l2
                    .fill(l2_line, l2_set, CState::Exclusive, sectors, evict);
                l2_slot = Some(slot);
            }
            fresh
        };

        let new_state = if kind.is_write() {
            // BusRdX: every peer copy, an owner's included, goes.
            self.invalidate_peers(c, line_addr, l2_slot);
            CState::Modified
        } else if peers != 0 {
            // A read leaves every peer copy (a downgraded owner's too).
            CState::Shared
        } else {
            CState::Exclusive
        };
        let l2_slot = l2_slot.ok_or(HardError::CoherenceViolation {
            core,
            line: line_addr,
            what: "a filled line has no L2 line to record its holder",
        })?;
        let slot = self.l1_insert(c, line_addr, set, new_state, meta, l2_slot);
        Ok((result, slot))
    }

    /// The detectors' access path: [`Hierarchy::ensure`] and
    /// [`Hierarchy::meta_mut`] fused into one L1 walk, pinned
    /// bit-identical to calling them back to back.
    ///
    /// That two-call recipe charges two LRU probes per access (the
    /// ensure probe and the metadata probe); this charges the same two
    /// ticks in a single scan ([`SetAssocCache::probe_fused`]), and a
    /// same-core/same-line run skips even that via a validated hot-slot
    /// memo. Every counter, every coherence action and every
    /// replacement decision is the two-call recipe's.
    ///
    /// # Errors
    ///
    /// As [`Hierarchy::ensure`].
    #[inline]
    pub fn access_prepared(
        &mut self,
        core: CoreId,
        line_addr: Addr,
        set: usize,
        kind: AccessKind,
    ) -> Result<(EnsureResult, &mut F::Meta), HardError> {
        let c = core.index();

        // Hot-slot fast path: same core, same line as the previous hit.
        // Validate address and (for writes) state *before* charging any
        // LRU tick — a failed validation must leave no trace, because
        // the two-call recipe never sees a memo at all.
        if let Some((hc, haddr, hslot)) = self.hot {
            if hc == core.0 && haddr == line_addr {
                let slot = hslot as usize;
                let ok = self.l1[c].peek_slot(slot, line_addr).is_some_and(|l| {
                    !kind.is_write() || matches!(l.state, CState::Modified | CState::Exclusive)
                });
                if ok {
                    self.stats.l1_hits += 1;
                    let line = self.l1[c].touch_slot_fused(slot);
                    if kind.is_write() {
                        // Covers the silent E→M upgrade; a no-op on M.
                        line.state = CState::Modified;
                    }
                    return Ok((EnsureResult::hit(), &mut line.meta));
                }
            }
        }

        // One fused scan replaces the ensure-probe + metadata-probe
        // pair. Copy out the slot/state so the borrow does not pin the
        // miss path below.
        let hit = self.l1[c]
            .probe_fused(line_addr, set)
            .map(|(slot, line)| (slot, line.state));
        if let Some((slot, state)) = hit {
            match (kind, state) {
                (AccessKind::Write, CState::Shared) => {
                    // Bus upgrade: invalidate the other copies.
                    self.stats.l1_hits += 1;
                    self.stats.upgrades += 1;
                    self.stats.bus_control += 1;
                    let l2_slot = self.l2.slot_of(line_addr);
                    self.invalidate_peers(c, line_addr, l2_slot);
                    self.hot = Some((core.0, line_addr, slot as u32));
                    let line = self.l1[c].slot_line_mut(slot).ok_or({
                        HardError::CoherenceViolation {
                            core,
                            line: line_addr,
                            what: "an upgrading line vanished mid-access",
                        }
                    })?;
                    line.state = CState::Modified;
                    return Ok((EnsureResult::upgrade(), &mut line.meta));
                }
                (AccessKind::Write, CState::Invalid) => {
                    return Err(HardError::CoherenceViolation {
                        core,
                        line: line_addr,
                        what: "an invalid line was stored in an L1",
                    })
                }
                _ => {
                    // Read hit (any state, like `ensure`), or a
                    // write hit in M (plain) / E (silent upgrade).
                    self.stats.l1_hits += 1;
                    self.hot = Some((core.0, line_addr, slot as u32));
                    let line = self.l1[c].slot_line_mut(slot).ok_or({
                        HardError::CoherenceViolation {
                            core,
                            line: line_addr,
                            what: "a hitting line vanished mid-access",
                        }
                    })?;
                    if kind.is_write() {
                        line.state = CState::Modified;
                    }
                    return Ok((EnsureResult::hit(), &mut line.meta));
                }
            }
        }

        // Miss: the fused probe already charged the single failed
        // ensure-probe tick; the fill then the metadata probe follow,
        // exactly the scalar sequence. The metadata probe's hit is the
        // slot the fill returned, so it charges its tick without a scan.
        let (result, slot) = self.miss_path(core, line_addr, set, kind)?;
        Ok((result, &mut self.l1[c].touch_slot(slot).meta))
    }

    /// `core`'s L1 LRU tick — exposed so parity tests can pin the
    /// fused path's replacement arithmetic against `ensure` +
    /// `meta_mut`.
    #[must_use]
    pub fn l1_lru_tick(&self, core: CoreId) -> u64 {
        self.l1[core.index()].lru_tick()
    }

    /// The shared L2's LRU tick (see [`Hierarchy::l1_lru_tick`]).
    #[must_use]
    pub fn l2_lru_tick(&self) -> u64 {
        self.l2.lru_tick()
    }

    /// The LRU stamp of `core`'s copy of `addr`'s line, if resident.
    /// Tick-neutral (peek-based), for parity tests.
    #[must_use]
    pub fn l1_lru_of(&self, core: CoreId, addr: Addr) -> Option<u64> {
        self.l1[core.index()].lru_of(addr)
    }

    /// The line addresses currently resident in `core`'s L1, in set
    /// order. Used by the fault layer to pick corruption victims; only
    /// called when a (rare) fault actually fires.
    #[must_use]
    pub fn resident_lines(&self, core: CoreId) -> Vec<Addr> {
        self.l1[core.index()].iter().map(|(addr, _)| addr).collect()
    }

    /// Number of valid L2 lines (victim pool for spurious
    /// displacement faults).
    #[must_use]
    pub fn l2_occupancy(&self) -> usize {
        self.l2.occupancy()
    }

    /// Forcibly displaces the `n`-th valid L2 line (and, via
    /// inclusion, every covered L1 copy), exactly as a genuine
    /// capacity eviction would: metadata of valid sectors is lost and
    /// recorded. Models a spurious displacement fault. Returns the
    /// displaced L2 line address, or `None` if `n` is out of range.
    pub fn force_displace(&mut self, n: usize) -> Option<Addr> {
        let (victim_addr, victim) = self.l2.iter().nth(n)?;
        let (l1, stats, lost) = (&mut self.l1, &mut self.stats, &mut self.lost_meta);
        l2_evicted(&self.cfg, l1, stats, lost, &self.obs, victim_addr, victim);
        self.l2.remove(victim_addr);
        Some(victim_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullFactory;

    /// A factory stamping the fetching core's id into the metadata so
    /// tests can watch metadata movement.
    #[derive(Clone, Copy, Debug)]
    struct StampFactory;

    impl MetaFactory for StampFactory {
        type Meta = u32;

        fn fresh(&self, core: CoreId) -> u32 {
            1000 + core.0
        }
    }

    fn tiny_cfg() -> HierarchyConfig {
        HierarchyConfig {
            num_cores: 2,
            l1: CacheGeometry::new(128, 2, 32), // 2 sets x 2 ways
            l2: CacheGeometry::new(256, 2, 32), // 4 sets x 2 ways
        }
    }

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    #[test]
    fn cold_miss_then_hit() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        let r = h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        assert_eq!(r.served_by, ServedBy::Memory);
        assert!(!r.refetch_after_loss);
        let r2 = h.ensure(C0, Addr(0x104), AccessKind::Read).unwrap();
        assert_eq!(r2.served_by, ServedBy::L1);
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l2_misses, 1);
        assert_eq!(h.meta(C0, Addr(0x100)), Some(&1000));
    }

    #[test]
    fn read_sharing_transfers_metadata() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        *h.meta_mut(C0, Addr(0x100)).unwrap() = 42;
        let r = h.ensure(C1, Addr(0x100), AccessKind::Read).unwrap();
        assert_eq!(r.served_by, ServedBy::Peer);
        assert_eq!(h.meta(C1, Addr(0x100)), Some(&42), "metadata piggybacks");
        assert_eq!(h.sharers(Addr(0x100)), 2);
        // Both copies now Shared.
        assert_eq!(h.l1[0].peek(Addr(0x100)).unwrap().state, CState::Shared);
        assert_eq!(h.l1[1].peek(Addr(0x100)).unwrap().state, CState::Shared);
        // The L2 received the owner's metadata on the downgrade.
        assert_eq!(h.l2.peek(Addr(0x100)).unwrap().meta[0], Some(42));
    }

    #[test]
    fn peer_read_charges_the_owner_one_hitting_probe() {
        // A hitting probe bumps the cache's tick and stamps the line
        // with it; the owner of a cache-to-cache transfer pays exactly
        // that, so replacement state matches a probe of its copy.
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        let tick = h.l1_lru_tick(C0);
        let r = h.ensure(C1, Addr(0x100), AccessKind::Read).unwrap();
        assert_eq!(r.served_by, ServedBy::Peer);
        assert_eq!(h.l1_lru_tick(C0), tick + 1);
        assert_eq!(h.l1_lru_of(C0, Addr(0x100)), Some(tick + 1));
    }

    #[test]
    fn write_invalidates_peers() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        h.ensure(C1, Addr(0x100), AccessKind::Read).unwrap();
        assert_eq!(h.sharers(Addr(0x100)), 2);
        let r = h.ensure(C1, Addr(0x100), AccessKind::Write).unwrap();
        assert_eq!(r.served_by, ServedBy::L1Upgrade);
        assert_eq!(h.sharers(Addr(0x100)), 1);
        assert!(h.meta(C0, Addr(0x100)).is_none());
        assert_eq!(h.stats().upgrades, 1);
    }

    #[test]
    fn write_miss_steals_modified_line() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Write).unwrap();
        *h.meta_mut(C0, Addr(0x100)).unwrap() = 7;
        let r = h.ensure(C1, Addr(0x100), AccessKind::Write).unwrap();
        assert_eq!(r.served_by, ServedBy::Peer);
        assert_eq!(h.meta(C1, Addr(0x100)), Some(&7));
        assert_eq!(h.sharers(Addr(0x100)), 1, "old owner invalidated");
        assert_eq!(h.stats().writebacks, 1, "dirty data written back");
    }

    #[test]
    fn silent_e_to_m_upgrade() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        let before = h.stats().bus_transactions();
        let r = h.ensure(C0, Addr(0x100), AccessKind::Write).unwrap();
        assert_eq!(r.served_by, ServedBy::L1);
        assert_eq!(h.stats().bus_transactions(), before, "no bus traffic");
        assert_eq!(h.l1[0].peek(Addr(0x100)).unwrap().state, CState::Modified);
    }

    #[test]
    fn broadcast_updates_all_copies_and_l2() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        h.ensure(C1, Addr(0x100), AccessKind::Read).unwrap();
        *h.meta_mut(C0, Addr(0x100)).unwrap() = 99;
        h.broadcast_meta(C0, Addr(0x100)).unwrap();
        assert_eq!(h.meta(C1, Addr(0x100)), Some(&99));
        assert_eq!(h.l2.peek(Addr(0x100)).unwrap().meta[0], Some(99));
        assert_eq!(h.stats().meta_broadcasts, 1);
    }

    #[test]
    fn l2_displacement_loses_metadata() {
        // The tiny L2 has 2 ways per set; three lines mapping to the
        // same L2 set displace the first.
        let cfg = tiny_cfg();
        let mut h = Hierarchy::new(cfg, StampFactory).unwrap();
        // L2 has 4 sets of 32B lines: set = (addr/32) & 3.
        // 0x000, 0x080, 0x100 all map to L2 set 0.
        h.ensure(C0, Addr(0x000), AccessKind::Read).unwrap();
        *h.meta_mut(C0, Addr(0x000)).unwrap() = 5;
        h.ensure(C0, Addr(0x080), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        assert_eq!(h.stats().l2_evictions, 1);
        assert!(h.was_meta_lost(Addr(0x000)));
        // Back-invalidation removed the L1 copy too (inclusion).
        assert!(h.meta(C0, Addr(0x000)).is_none());
        // Refetch restores *fresh* metadata, not the old value.
        let r = h.ensure(C0, Addr(0x000), AccessKind::Read).unwrap();
        assert_eq!(r.served_by, ServedBy::Memory);
        assert!(r.refetch_after_loss);
        assert_eq!(h.meta(C0, Addr(0x000)), Some(&1000));
    }

    #[test]
    fn l1_eviction_writes_metadata_back_to_l2() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        // L1 has 2 sets; lines 0x00, 0x40, 0x80 all map to L1 set 0
        // (set = (addr/32) & 1) but different L2 sets.
        h.ensure(C0, Addr(0x000), AccessKind::Read).unwrap();
        *h.meta_mut(C0, Addr(0x000)).unwrap() = 77;
        h.ensure(C0, Addr(0x040), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0x080), AccessKind::Read).unwrap(); // evicts 0x000 from L1
        assert_eq!(h.stats().l1_evictions, 1);
        assert!(h.meta(C0, Addr(0x000)).is_none());
        assert_eq!(
            h.l2.peek(Addr(0x000)).unwrap().meta[0],
            Some(77),
            "meta preserved in L2"
        );
        // Re-reading restores the preserved metadata from the L2.
        let r = h.ensure(C0, Addr(0x000), AccessKind::Read).unwrap();
        assert_eq!(r.served_by, ServedBy::L2);
        assert_eq!(h.meta(C0, Addr(0x000)), Some(&77));
    }

    #[test]
    fn flash_meta_touches_every_line() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x000), AccessKind::Read).unwrap();
        h.ensure(C1, Addr(0x020), AccessKind::Read).unwrap();
        h.flash_meta(|m| *m = 1);
        assert_eq!(h.meta(C0, Addr(0x000)), Some(&1));
        assert_eq!(h.meta(C1, Addr(0x020)), Some(&1));
        assert!(h
            .l2
            .iter()
            .all(|(_, l)| l.meta.as_slice().iter().flatten().all(|m| *m == 1)));
    }

    #[test]
    fn attached_recorder_sees_coherence_traffic() {
        use hard_obs::MemoryRecorder;
        use std::sync::Arc;
        let rec = Arc::new(MemoryRecorder::new());
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.set_obs(ObsHandle::new(rec.clone()));
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        h.ensure(C1, Addr(0x100), AccessKind::Read).unwrap();
        h.broadcast_meta(C0, Addr(0x100)).unwrap();
        // Thrash L2 set 0 (0x000/0x080/0x100 conflict) to displace.
        h.ensure(C0, Addr(0x000), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0x080), AccessKind::Read).unwrap();
        let s = rec.snapshot();
        assert_eq!(s.counter(CounterId::BroadcastsSent), 1);
        assert_eq!(s.counter(CounterId::CacheFills), h.stats().l1_misses);
        assert_eq!(
            s.counter(CounterId::L2Displacements),
            h.stats().l2_evictions
        );
        assert!(s.counter(CounterId::MetaLossLines) >= 1);
    }

    #[test]
    fn detached_hierarchy_matches_attached_noop() {
        use hard_obs::NoopRecorder;
        use std::sync::Arc;
        let drive = |h: &mut Hierarchy<StampFactory>| {
            for a in [0x000u64, 0x080, 0x100, 0x000, 0x040] {
                h.ensure(C0, Addr(a), AccessKind::Write).unwrap();
                h.ensure(C1, Addr(a), AccessKind::Read).unwrap();
            }
        };
        let mut plain = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        drive(&mut plain);
        let mut noop = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        noop.set_obs(ObsHandle::new(Arc::new(NoopRecorder)));
        drive(&mut noop);
        assert_eq!(plain.stats(), noop.stats());
        assert_eq!(plain.lost_meta, noop.lost_meta);
    }

    #[test]
    fn null_factory_hierarchy_works() {
        let mut h = Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap();
        let r = h.ensure(C0, Addr(0x1234), AccessKind::Write).unwrap();
        assert_eq!(r.served_by, ServedBy::Memory);
        let r2 = h.ensure(C0, Addr(0x1234), AccessKind::Write).unwrap();
        assert_eq!(r2.served_by, ServedBy::L1);
    }

    #[test]
    fn oversized_l2_lines_rejected() {
        let cfg = HierarchyConfig {
            num_cores: 1,
            l1: CacheGeometry::new(128, 2, 32),
            l2: CacheGeometry::new(512, 2, 128), // 4x: beyond Figure 3
        };
        let err = Hierarchy::new(cfg, NullFactory).expect_err("must be rejected");
        assert!(
            matches!(err, hard_types::HardError::InvalidConfig { .. }),
            "{err}"
        );
        let none = Hierarchy::new(
            HierarchyConfig {
                num_cores: 0,
                ..HierarchyConfig::default()
            },
            NullFactory,
        );
        assert!(none.is_err(), "zero cores must be rejected");
    }

    #[test]
    fn holder_word_bounds_cores_times_sectors() {
        let cfg = |num_cores, l2_line| HierarchyConfig {
            num_cores,
            l1: CacheGeometry::new(128, 2, 32),
            l2: CacheGeometry::new(512, 2, l2_line),
        };
        assert!(Hierarchy::new(cfg(32, 32), NullFactory).is_ok());
        assert!(Hierarchy::new(cfg(16, 64), NullFactory).is_ok());
        for (cores, line) in [(33, 32), (17, 64)] {
            let err = Hierarchy::new(cfg(cores, line), NullFactory).expect_err("too wide");
            assert!(
                matches!(err, hard_types::HardError::InvalidConfig { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn holder_word_tracks_every_l1_copy() {
        let mut h = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        assert_eq!(h.holders(Addr(0x100)), 0b01);
        h.ensure(C1, Addr(0x100), AccessKind::Read).unwrap();
        assert_eq!(h.holders(Addr(0x104)), 0b11);
        h.ensure(C1, Addr(0x100), AccessKind::Write).unwrap(); // upgrade
        assert_eq!(h.holders(Addr(0x100)), 0b10);
        h.ensure(C0, Addr(0x100), AccessKind::Write).unwrap(); // BusRdX
        assert_eq!(h.holders(Addr(0x100)), 0b01);
        assert_eq!(h.sharers(Addr(0x100)), 1);
        assert_eq!(h.holders(Addr(0x040)), 0, "never fetched");
    }

    fn sectored_cfg() -> HierarchyConfig {
        HierarchyConfig {
            num_cores: 2,
            l1: CacheGeometry::new(128, 2, 32),
            l2: CacheGeometry::new(512, 2, 64), // Figure 3: 2x L1 lines
        }
    }

    #[test]
    fn sectored_l2_validates_sectors_independently() {
        let mut h = Hierarchy::new(sectored_cfg(), StampFactory).unwrap();
        // Two L1 lines sharing one L2 line (0x00 and 0x20).
        let r0 = h.ensure(C0, Addr(0x00), AccessKind::Read).unwrap();
        assert_eq!(r0.served_by, ServedBy::Memory);
        // The sibling sector is NOT validated by the first fetch.
        let r1 = h.ensure(C0, Addr(0x20), AccessKind::Read).unwrap();
        assert_eq!(r1.served_by, ServedBy::Memory, "own sector fetch");
        assert_eq!(h.stats().l2_misses, 2);
        assert_eq!(h.stats().l2_evictions, 0, "sector fill evicts nothing");
    }

    #[test]
    fn sectored_l2_eviction_loses_both_sectors() {
        let mut h = Hierarchy::new(sectored_cfg(), StampFactory).unwrap();
        // Fill both sectors of L2 line 0x00.
        h.ensure(C0, Addr(0x00), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0x20), AccessKind::Read).unwrap();
        *h.meta_mut(C0, Addr(0x00)).unwrap() = 5;
        *h.meta_mut(C0, Addr(0x20)).unwrap() = 6;
        // Thrash L2 set 0: with 512B/2-way/64B lines there are 4 sets;
        // L2 set of 0x00 is shared by 0x100, 0x200, ...
        let displaced: Vec<Addr> = [0x100, 0x200]
            .into_iter()
            .filter_map(|a| h.ensure(C0, Addr(a), AccessKind::Read).unwrap().displaced)
            .collect();
        assert_eq!(displaced, [Addr(0x00)], "the access reports its victim");
        assert_eq!(h.stats().l2_evictions, 1);
        assert!(h.was_meta_lost(Addr(0x00)));
        assert!(h.was_meta_lost(Addr(0x20)), "the sibling sector died too");
        assert_eq!(h.holders(Addr(0x20)), 0, "both sectors back-invalidated");
        assert!(h.meta(C0, Addr(0x20)).is_none());
    }

    #[test]
    fn access_prepared_matches_ensure_plus_meta_probe() {
        // The two-call recipe: ensure, then meta_mut. The fused one:
        // access_prepared. Same accesses, both hierarchies — every
        // observable must agree after every access, including the LRU
        // ticks and stamps that drive replacement.
        let accesses: &[(u32, u64, AccessKind)] = &[
            (0, 0x100, AccessKind::Read),  // cold miss
            (0, 0x104, AccessKind::Read),  // same-line hit (memo)
            (0, 0x108, AccessKind::Write), // silent E→M on the memo path
            (1, 0x100, AccessKind::Read),  // c2c transfer
            (0, 0x100, AccessKind::Read),  // back to shared copy
            (0, 0x100, AccessKind::Write), // S→M upgrade (scan path)
            (1, 0x100, AccessKind::Read),  // refetch after invalidate
            (0, 0x000, AccessKind::Read),  // new set
            (0, 0x080, AccessKind::Read),  // L2 set-0 conflict
            (0, 0x100, AccessKind::Write), // thrash
            (0, 0x000, AccessKind::Read),  // refetch-after-loss path
        ];
        let mut scalar = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        let mut batched = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        for &(core, addr, kind) in accesses {
            let core = CoreId(core);
            let addr = Addr(addr);
            let want = scalar.ensure(core, addr, kind).unwrap();
            let want_meta = *scalar.meta_mut(core, addr).unwrap();
            let (line, set) = batched.config().l1.line_and_set(addr);
            let (got, meta) = batched.access_prepared(core, line, set, kind).unwrap();
            assert_eq!(got, want, "EnsureResult diverged at {addr:?}");
            assert_eq!(*meta, want_meta, "metadata diverged at {addr:?}");
            assert_eq!(
                scalar.l1_lru_of(core, addr),
                batched.l1_lru_of(core, addr),
                "LRU stamp diverged at {addr:?}"
            );
            assert_eq!(
                scalar.stats(),
                batched.stats(),
                "stats diverged at {addr:?}"
            );
        }
        for c in [C0, C1] {
            assert_eq!(scalar.l1_lru_tick(c), batched.l1_lru_tick(c));
        }
        assert_eq!(scalar.l2_lru_tick(), batched.l2_lru_tick());
    }

    #[test]
    fn prepared_window_matches_the_scalar_fold() {
        // A window through the machines' recipe (`access_prepared` per
        // access) against the two-call fold (`ensure` + `meta_mut`).
        let window: &[(u32, u64, AccessKind)] = &[
            (0, 0x100, AccessKind::Write),
            (0, 0x104, AccessKind::Write),
            (1, 0x100, AccessKind::Read),
            (1, 0x120, AccessKind::Read),
            (0, 0x120, AccessKind::Write),
            (0, 0x000, AccessKind::Read),
            (0, 0x080, AccessKind::Read),
            (0, 0x100, AccessKind::Read),
        ];
        let mut scalar = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        let mut batched = Hierarchy::new(tiny_cfg(), StampFactory).unwrap();
        for &(core, addr, kind) in window {
            let (core, addr) = (CoreId(core), Addr(addr));
            let want = scalar.ensure(core, addr, kind).unwrap();
            scalar.meta_mut(core, addr).unwrap();
            let (line, set) = batched.config().l1.line_and_set(addr);
            let (got, _) = batched.access_prepared(core, line, set, kind).unwrap();
            assert_eq!(got, want, "EnsureResult diverged at {addr:?}");
        }
        assert_eq!(scalar.stats(), batched.stats());
        for c in [C0, C1] {
            assert_eq!(scalar.l1_lru_tick(c), batched.l1_lru_tick(c));
            for &(_, addr, _) in window {
                let addr = Addr(addr);
                assert_eq!(scalar.l1_lru_of(c, addr), batched.l1_lru_of(c, addr));
            }
        }
        assert_eq!(scalar.l2_lru_tick(), batched.l2_lru_tick());
    }

    #[test]
    fn one_and_two_sector_lines_count_metadata_alike() {
        // Same L1, same L2 capacity and ways; the one-sector L2 has
        // twice the sets of 32 B lines. Touching only lines 64 B apart
        // puts them in the even one-sector sets, which mirror the
        // two-sector sets one for one, and leaves every second sector
        // vacant — so the two geometries make identical decisions, and
        // every count that walks the slots must agree too.
        let one = HierarchyConfig {
            num_cores: 2,
            l1: CacheGeometry::new(128, 2, 32),
            l2: CacheGeometry::new(512, 2, 32), // 8 sets x 2 ways
        };
        let two = sectored_cfg(); // 4 sets x 2 ways of 64 B lines
        let drive = |cfg: HierarchyConfig| {
            use hard_obs::MemoryRecorder;
            use std::sync::Arc;
            let rec = Arc::new(MemoryRecorder::new());
            let mut h = Hierarchy::new(cfg, StampFactory).unwrap();
            h.set_obs(ObsHandle::new(rec.clone()));
            // L2 set 0 takes 0x000, 0x100, 0x200: the third displaces
            // 0x100, the less recently used of the first two, by
            // capacity.
            let mut displaced = Vec::new();
            for (core, a) in [(C0, 0x000), (C1, 0x040), (C0, 0x100), (C1, 0x000)] {
                displaced.extend(
                    h.ensure(core, Addr(a), AccessKind::Write)
                        .unwrap()
                        .displaced,
                );
            }
            displaced.extend(
                h.ensure(C0, Addr(0x200), AccessKind::Read)
                    .unwrap()
                    .displaced,
            );
            let capacity_lost = rec.snapshot().counter(CounterId::MetaLossLines);
            let mut flashed = 0u32;
            h.flash_meta(|_| flashed += 1);
            let mut forced = Vec::new();
            while let Some(victim) = h.force_displace(0) {
                forced.push(victim);
            }
            let s = rec.snapshot();
            (
                capacity_lost,
                flashed,
                forced,
                s.counter(CounterId::MetaLossLines),
                *h.stats(),
                displaced,
            )
        };
        let (one_run, two_run) = (drive(one), drive(two));
        assert_eq!(one_run.0, 1, "one capacity displacement, one sector lost");
        assert!(one_run.1 > 0 && !one_run.2.is_empty());
        assert_eq!(one_run.5, [Addr(0x100)]);
        assert_eq!(one_run, two_run);
    }

    #[test]
    fn sectored_l2_roundtrips_metadata_per_sector() {
        let mut h = Hierarchy::new(sectored_cfg(), StampFactory).unwrap();
        h.ensure(C0, Addr(0x00), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0x20), AccessKind::Read).unwrap();
        *h.meta_mut(C0, Addr(0x00)).unwrap() = 7;
        *h.meta_mut(C0, Addr(0x20)).unwrap() = 8;
        // Evict both from the tiny L1 set (L1: 2 sets, 0x00/0x40 in
        // set 0; 0x20/0x60 in set 1) by touching conflicting lines.
        h.ensure(C0, Addr(0x40), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0x80), AccessKind::Read).unwrap(); // evicts 0x00
        h.ensure(C0, Addr(0x60), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0xA0), AccessKind::Read).unwrap(); // evicts 0x20
                                                             // Refetch: the sector metadata written back to L2 must return.
        let r0 = h.ensure(C0, Addr(0x00), AccessKind::Read).unwrap();
        assert_eq!(r0.served_by, ServedBy::L2);
        assert_eq!(h.meta(C0, Addr(0x00)), Some(&7));
        let r1 = h.ensure(C0, Addr(0x20), AccessKind::Read).unwrap();
        assert_eq!(r1.served_by, ServedBy::L2);
        assert_eq!(h.meta(C0, Addr(0x20)), Some(&8));
    }
}
