//! The CMP memory hierarchy: per-core L1s, shared inclusive L2, snoopy
//! MESI bus, with metadata travelling alongside every line.
//!
//! The L2 may use the L1's line size (Table 1) or twice it (Figure 3:
//! "The L2 line size is twice of the L1 line size"). In the sectored
//! configuration each L2 line holds one metadata slot per L1-line
//! sector, sectors validate independently, and an L2 displacement
//! loses the metadata of every valid sector at once.

use crate::cache::SetAssocCache;
use crate::cstate::CState;
use crate::geometry::CacheGeometry;
use crate::policy::MetaFactory;
use crate::stats::MemStats;
use hard_obs::{CounterId, Event, ObsHandle};
use hard_types::{AccessKind, Addr, CoreId, FastHashSet, HardError};

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
}

impl EnsureResult {
    fn hit() -> EnsureResult {
        EnsureResult {
            served_by: ServedBy::L1,
            bus_data: 0,
            bus_control: 0,
            refetch_after_loss: false,
        }
    }
}

/// The simulated memory system. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Hierarchy<F: MetaFactory> {
    cfg: HierarchyConfig,
    factory: F,
    l1: Vec<SetAssocCache<F::Meta>>,
    /// The L2 line holds one metadata slot per L1-line sector
    /// (one slot in the Table 1 configuration, two in Figure 3's).
    /// Fixed-size storage — a line never has more than two sectors, so
    /// a `Vec` here would put one heap allocation on every L2 fill;
    /// slots at or past `sectors` are permanently `None`.
    l2: SetAssocCache<[Option<F::Meta>; 2]>,
    sectors: usize,
    stats: MemStats,
    lost_meta: FastHashSet<Addr>,
    eviction_log: Vec<Addr>,
    /// Same-core/same-line memo for the batched access path: the L1
    /// slot that served the previous [`Hierarchy::access_prepared`]
    /// hit. Validated (address + state) before every use, so it is a
    /// pure scan-skip — never a source of stale coherence decisions.
    hot: Option<(u32, Addr, u32)>,
    /// L1 hits accumulated by the batched access path and folded into
    /// [`MemStats`] once per window by
    /// [`Hierarchy::flush_deferred_stats`]. `u64` addition commutes, so
    /// the flushed totals are identical to per-access increments.
    deferred_l1_hits: u64,
    obs: ObsHandle,
}

impl<F: MetaFactory> Hierarchy<F> {
    /// An empty hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`HardError::InvalidConfig`] if there are no cores or if
    /// the L2 line size is not the L1's (Table 1) or twice it
    /// (Figure 3) — the simulator keeps one machine-wide line size.
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
        Ok(Hierarchy {
            l1: (0..cfg.num_cores)
                .map(|_| SetAssocCache::new(cfg.l1))
                .collect(),
            l2: SetAssocCache::new(cfg.l2),
            sectors: factor as usize,
            cfg,
            factory,
            stats: MemStats::default(),
            lost_meta: FastHashSet::default(),
            eviction_log: Vec::new(),
            hot: None,
            deferred_l1_hits: 0,
            obs: ObsHandle::off(),
        })
    }

    /// The sector index of an L1 line within its L2 line.
    fn sector_of(&self, l1_line: Addr) -> usize {
        ((l1_line.0 / self.cfg.l1.line_bytes()) % self.sectors as u64) as usize
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

    /// Number of L1 caches holding a valid copy of `addr`'s line.
    #[must_use]
    pub fn sharers(&self, addr: Addr) -> usize {
        self.l1.iter().filter(|c| c.peek(addr).is_some()).count()
    }

    /// True iff a copy of `addr`'s line exists in an L1 *other than*
    /// `core`'s, given that `core` holds the line (the caller just
    /// ensured it). MESI grants Exclusive only when no peer holds a
    /// copy and Modified only after invalidating them, so when `core`'s
    /// copy is not Shared the answer is `false` after a single tag
    /// probe — the detectors use this to skip the all-cores
    /// [`Hierarchy::sharers`] scan on the (dominant) exclusive paths.
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
        self.lost_meta.contains(&self.cfg.l1.line_of(addr))
    }

    /// Drains the line addresses displaced from the L2 since the last
    /// call. The directory-protocol variant uses this to retire its
    /// directory-resident metadata exactly when the paper's in-cache
    /// variant would lose it. Returns a draining iterator over the
    /// hierarchy-owned log rather than a fresh `Vec`, so the (very hot)
    /// nothing-pending case and the steady state both allocate nothing:
    /// the log's capacity is retained across drains.
    pub fn drain_l2_evictions(&mut self) -> std::vec::Drain<'_, Addr> {
        self.eviction_log.drain(..)
    }

    /// True if at least one L2 displacement is waiting to be drained.
    /// Lets callers skip the drain call entirely on the (dominant)
    /// no-eviction path.
    #[must_use]
    pub fn l2_evictions_pending(&self) -> bool {
        !self.eviction_log.is_empty()
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
                    line.meta = meta.clone();
                }
            }
        }
        let l1_line = self.cfg.l1.line_of(addr);
        if let Some(slot) = self.l2_slot_mut(l1_line) {
            *slot = Some(meta.clone());
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
            for slot in line.meta.iter_mut().flatten() {
                f(slot);
            }
        }
    }

    /// Handles an L2 eviction: back-invalidate every covered L1 line
    /// (inclusion) and record each valid sector's metadata loss.
    fn l2_evicted(&mut self, victim_addr: Addr, sectors: &[Option<F::Meta>]) {
        self.stats.l2_evictions += 1;
        let mut invalidated = false;
        let mut sectors_lost = 0u32;
        // Walk only the configured sectors: in a one-sector geometry the
        // array's second slot is permanently vacant and its computed
        // address would belong to the *next* L2 line.
        for (i, slot) in sectors.iter().enumerate().take(self.sectors) {
            let l1_line = Addr(victim_addr.0 + i as u64 * self.cfg.l1.line_bytes());
            if slot.is_some() {
                self.lost_meta.insert(l1_line);
                self.eviction_log.push(l1_line);
                sectors_lost += 1;
            }
            for l1 in &mut self.l1 {
                if let Some(line) = l1.remove(l1_line) {
                    invalidated = true;
                    if line.state == CState::Modified {
                        self.stats.writebacks += 1;
                    }
                }
            }
        }
        if invalidated {
            self.stats.l2_back_invalidations += 1;
        }
        self.obs.counter(CounterId::L2Displacements, 1);
        if sectors_lost > 0 {
            self.obs
                .counter(CounterId::MetaLossLines, u64::from(sectors_lost));
        }
        self.obs.emit(|| Event::Displacement {
            line: victim_addr.0,
            sectors_lost,
        });
    }

    /// Inserts a line into an L1, handling the victim writeback.
    fn l1_insert(
        &mut self,
        core: CoreId,
        addr: Addr,
        state: CState,
        meta: F::Meta,
    ) -> Result<(), HardError> {
        if let Some(victim) = self.l1[core.index()].insert(addr, state, meta)? {
            self.stats.l1_evictions += 1;
            if victim.state == CState::Modified {
                self.stats.writebacks += 1;
            }
            // Inclusion: the L2 still holds the victim unless it was
            // just displaced; push the freshest metadata down.
            let idx = self.sector_of(victim.addr);
            let dirty = victim.state == CState::Modified;
            if let Some(l2line) = self.l2.probe(victim.addr) {
                l2line.meta[idx] = Some(victim.meta);
                if dirty {
                    l2line.state = CState::Modified;
                }
            }
        }
        Ok(())
    }

    /// Makes the line containing `addr` resident in `core`'s L1 with
    /// permission for `kind`, performing all coherence actions, and
    /// reports how the access was served.
    ///
    /// `addr` may be any address within the line.
    ///
    /// # Errors
    ///
    /// Returns [`HardError::CoherenceViolation`] or
    /// [`HardError::DuplicateLine`] if an MESI invariant does not hold;
    /// impossible in a fault-free run, but reachable when a fault layer
    /// perturbs the caches between accesses.
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
                        for (i, l1) in self.l1.iter_mut().enumerate() {
                            if i != c {
                                l1.remove(line_addr);
                            }
                        }
                        return Ok(EnsureResult {
                            served_by: ServedBy::L1Upgrade,
                            bus_data: 0,
                            bus_control: 1,
                            refetch_after_loss: false,
                        });
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

        self.miss_path(core, line_addr, kind)
    }

    /// The L1-miss half of [`Hierarchy::ensure`]: snoop, fill, insert.
    /// Shared verbatim by `ensure`, `ensure_prepared` and
    /// `access_prepared` so the coherence actions (and their stat/LRU
    /// charges) cannot diverge between them.
    fn miss_path(
        &mut self,
        core: CoreId,
        line_addr: Addr,
        kind: AccessKind,
    ) -> Result<EnsureResult, HardError> {
        let c = core.index();
        self.stats.l1_misses += 1;
        self.obs.counter(CounterId::CacheFills, 1);
        let mut result = EnsureResult {
            served_by: ServedBy::L2,
            bus_data: 0,
            bus_control: 0,
            refetch_after_loss: false,
        };

        // Snoop: find a peer owner (M/E) or sharers.
        let owner = (0..self.cfg.num_cores).find(|&i| {
            i != c
                && self.l1[i]
                    .peek(line_addr)
                    .is_some_and(|l| l.state.is_exclusive_kind())
        });

        let meta = if let Some(o) = owner {
            // Cache-to-cache transfer from the owning peer.
            self.stats.c2c_transfers += 1;
            self.stats.bus_data += 1;
            result.bus_data += 1;
            result.served_by = ServedBy::Peer;
            let (peer_meta, was_modified) = {
                let line = self.l1[o]
                    .probe(line_addr)
                    .ok_or(HardError::CoherenceViolation {
                        core: CoreId(o as u32),
                        line: line_addr,
                        what: "snooped owner no longer holds the line",
                    })?;
                let m = line.meta.clone();
                let dirty = line.state == CState::Modified;
                if kind.is_write() {
                    // BusRdX: the owner's copy is invalidated.
                    self.l1[o].remove(line_addr);
                } else {
                    line.state = CState::Shared;
                }
                (m, dirty)
            };
            // The owner's (freshest) metadata and data flow to the L2.
            if was_modified {
                self.stats.writebacks += 1;
            }
            let idx = self.sector_of(line_addr);
            if let Some(l2line) = self.l2.probe(line_addr) {
                l2line.meta[idx] = Some(peer_meta.clone());
                if was_modified {
                    l2line.state = CState::Modified;
                }
            }
            peer_meta
        } else {
            // Sharers (if any) are clean and consistent with the L2.
            if kind.is_write() {
                for (i, l1) in self.l1.iter_mut().enumerate() {
                    if i != c {
                        l1.remove(line_addr);
                    }
                }
            }
            let idx = self.sector_of(line_addr);
            // One tag scan serves the sector test and the LRU touch:
            // the scalar recipe was a tick-neutral peek followed by a
            // single charged probe, which collapses into `probe_slot`
            // (same one bump, same stamp) with the line reached again
            // through tick-neutral slot accessors. On the streaming
            // workloads three out of four accesses take this path, so
            // the saved scan is per-miss, not per-corner-case.
            let l2_slot = self.l2.probe_slot(line_addr);
            let sector_hit = l2_slot
                .is_some_and(|s| self.l2.peek_slot(s).is_some_and(|l| l.meta[idx].is_some()));
            if sector_hit {
                self.stats.l2_hits += 1;
                self.stats.bus_data += 1;
                result.bus_data += 1;
                result.served_by = ServedBy::L2;
                l2_slot
                    .and_then(|s| self.l2.peek_slot(s))
                    .and_then(|l| l.meta[idx].clone())
                    .ok_or(HardError::CoherenceViolation {
                        core,
                        line: line_addr,
                        what: "a valid L2 sector vanished during the fill",
                    })?
            } else {
                // Fetch from memory: fresh metadata (paper §3.1).
                self.stats.l2_misses += 1;
                self.stats.bus_data += 1;
                result.bus_data += 1;
                result.served_by = ServedBy::Memory;
                result.refetch_after_loss = self.lost_meta.contains(&line_addr);
                if result.refetch_after_loss {
                    self.obs.counter(CounterId::RefetchesAfterLoss, 1);
                    self.obs
                        .emit(|| Event::RefetchAfterLoss { line: line_addr.0 });
                }
                let fresh = self.factory.fresh(core);
                if let Some(l2line) = l2_slot.and_then(|s| self.l2.slot_line_mut(s)) {
                    // The L2 line exists but this sector was invalid:
                    // validate it in place, no eviction. (`probe_slot`
                    // above already charged the probe's LRU touch.)
                    l2line.meta[idx] = Some(fresh.clone());
                } else {
                    let mut sectors = [None, None];
                    sectors[idx] = Some(fresh.clone());
                    if let Some(victim) = self.l2.insert(line_addr, CState::Exclusive, sectors)? {
                        self.l2_evicted(victim.addr, &victim.meta);
                    }
                }
                fresh
            }
        };

        let others_hold =
            (0..self.cfg.num_cores).any(|i| i != c && self.l1[i].peek(line_addr).is_some());
        let new_state = if kind.is_write() {
            CState::Modified
        } else if others_hold {
            CState::Shared
        } else {
            CState::Exclusive
        };
        self.l1_insert(core, line_addr, new_state, meta)?;
        Ok(result)
    }

    /// The batched hot path: [`Hierarchy::ensure`] and
    /// [`Hierarchy::meta_mut`] fused into one L1 walk, pinned
    /// bit-identical to calling them back to back.
    ///
    /// The scalar recipe charges two LRU probes per access (the ensure
    /// probe and the metadata probe); this charges the same two ticks
    /// in a single scan ([`SetAssocCache::probe_fused`]), and a
    /// same-core/same-line run skips even that via a validated hot-slot
    /// memo. L1 hits are accumulated in a deferred counter — call
    /// [`Hierarchy::flush_deferred_stats`] once per window to fold them
    /// into [`MemStats`]; every other counter, every coherence action,
    /// and every replacement decision happens inline, identically to
    /// the scalar path.
    ///
    /// # Errors
    ///
    /// As [`Hierarchy::ensure`]; additionally if the just-filled line
    /// vanished before its metadata probe (impossible fault-free).
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
        // the scalar path never saw a memo at all.
        if let Some((hc, haddr, hslot)) = self.hot {
            if hc == core.0 && haddr == line_addr {
                let slot = hslot as usize;
                let ok = self.l1[c].peek_slot(slot).is_some_and(|l| {
                    l.addr == line_addr
                        && (!kind.is_write()
                            || matches!(l.state, CState::Modified | CState::Exclusive))
                });
                if ok {
                    self.deferred_l1_hits += 1;
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
                    self.deferred_l1_hits += 1;
                    self.stats.upgrades += 1;
                    self.stats.bus_control += 1;
                    for (i, l1) in self.l1.iter_mut().enumerate() {
                        if i != c {
                            l1.remove(line_addr);
                        }
                    }
                    self.hot = Some((core.0, line_addr, slot as u32));
                    let line = self.l1[c].slot_line_mut(slot).ok_or({
                        HardError::CoherenceViolation {
                            core,
                            line: line_addr,
                            what: "an upgrading line vanished mid-access",
                        }
                    })?;
                    line.state = CState::Modified;
                    return Ok((
                        EnsureResult {
                            served_by: ServedBy::L1Upgrade,
                            bus_data: 0,
                            bus_control: 1,
                            refetch_after_loss: false,
                        },
                        &mut line.meta,
                    ));
                }
                (AccessKind::Write, CState::Invalid) => {
                    return Err(HardError::CoherenceViolation {
                        core,
                        line: line_addr,
                        what: "an invalid line was stored in an L1",
                    })
                }
                _ => {
                    // Read hit (any state, like the scalar path), or a
                    // write hit in M (plain) / E (silent upgrade).
                    self.deferred_l1_hits += 1;
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
        // exactly the scalar sequence.
        let result = self.miss_path(core, line_addr, kind)?;
        let meta = self.l1[c]
            .probe_prepared(line_addr, set)
            .map(|l| &mut l.meta)
            .ok_or(HardError::CoherenceViolation {
                core,
                line: line_addr,
                what: "a just-filled line vanished before its metadata probe",
            })?;
        Ok((result, meta))
    }

    /// Folds the L1 hits deferred by [`Hierarchy::access_prepared`]
    /// into [`MemStats`]. Call once per batch window; idempotent when
    /// nothing is pending.
    pub fn flush_deferred_stats(&mut self) {
        self.stats.l1_hits += self.deferred_l1_hits;
        self.deferred_l1_hits = 0;
    }

    /// `core`'s L1 LRU tick — exposed so parity tests can pin the
    /// batched path's replacement arithmetic against the scalar path's.
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
        self.l1[core.index()].peek(addr).map(|l| l.lru())
    }

    /// The line addresses currently resident in `core`'s L1, in set
    /// order. Used by the fault layer to pick corruption victims; only
    /// called when a (rare) fault actually fires.
    #[must_use]
    pub fn resident_lines(&self, core: CoreId) -> Vec<Addr> {
        self.l1[core.index()].iter().map(|l| l.addr).collect()
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
        let victim_addr = self.l2.iter().nth(n).map(|l| l.addr)?;
        let victim = self.l2.remove(victim_addr)?;
        self.l2_evicted(victim.addr, &victim.meta);
        Some(victim.addr)
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
            .all(|l| l.meta.iter().flatten().all(|m| *m == 1)));
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
        h.ensure(C0, Addr(0x100), AccessKind::Read).unwrap();
        h.ensure(C0, Addr(0x200), AccessKind::Read).unwrap();
        assert!(h.stats().l2_evictions >= 1);
        assert!(h.was_meta_lost(Addr(0x00)));
        assert!(h.was_meta_lost(Addr(0x20)), "the sibling sector died too");
        let lost: Vec<Addr> = h.drain_l2_evictions().collect();
        assert!(lost.contains(&Addr(0x00)) && lost.contains(&Addr(0x20)));
        assert!(!h.l2_evictions_pending(), "drain leaves nothing pending");
    }

    #[test]
    fn access_prepared_matches_ensure_plus_meta_probe() {
        // The scalar recipe (what HardMachine/HbMachine do per access):
        // ensure, then meta_mut. The batched recipe: access_prepared.
        // Same accesses, both hierarchies — every observable must agree,
        // including the LRU ticks and stamps that drive replacement.
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
        }
        batched.flush_deferred_stats();
        assert_eq!(scalar.stats(), batched.stats());
        for c in [C0, C1] {
            assert_eq!(scalar.l1_lru_tick(c), batched.l1_lru_tick(c));
        }
        assert_eq!(scalar.l2_lru_tick(), batched.l2_lru_tick());
        assert_eq!(
            scalar.drain_l2_evictions().collect::<Vec<_>>(),
            batched.drain_l2_evictions().collect::<Vec<_>>()
        );
    }

    #[test]
    fn prepared_window_matches_the_scalar_fold() {
        // A window through the machines' batched recipe
        // (`access_prepared` per access, one `flush_deferred_stats` at
        // the end) against the scalar fold (`ensure` + `meta_mut`).
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
        batched.flush_deferred_stats();
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
