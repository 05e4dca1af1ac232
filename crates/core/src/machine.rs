//! The HARD machine: detection and timing on the simulated CMP.

use crate::cmp::{dispatch_window, Access, Cmp, ReportLog, Windowed};
use crate::config::HardConfig;
use crate::metadata::HardMetaFactory;
use hard_bloom::{LaneKernel, LockRegister};
use hard_cache::{BusTimeline, CacheGeometry, Hierarchy, MemStats};
use hard_lockset::dummy_lock;
use hard_obs::{CounterId, Event, HistId, ObsHandle};
use hard_trace::{Detector, Op, RaceReport, TraceEvent};
use hard_types::{
    AccessKind, Addr, CoreId, Cycles, FaultInjector, FaultStats, HardError, LockId, ThreadId,
};
use std::collections::BTreeSet;

/// HARD: a CMP whose caches carry bloom-filter candidate sets and
/// LStates, with per-core Lock/Counter Registers (paper §3).
///
/// The machine is a [`Detector`] (it reports races) and a timing model
/// (it tracks per-core cycles and shared-bus contention; see
/// [`HardMachine::total_cycles`]).
///
/// # Fault tolerance
///
/// When the configuration carries a non-trivial
/// [`FaultPlan`](hard_types::FaultPlan), the machine injects hardware
/// faults (metadata/register bit flips, lost or delayed metadata
/// broadcasts, spurious L2 displacements) and *degrades gracefully*:
/// every metadata word and lock register carries a parity bit, so a
/// strike is caught the next time the word is read and the state falls
/// back to the paper's safe value — an all-ones candidate set in the
/// Virgin state (the §3.1 fetch value), or a lock register rebuilt
/// from the OS's software lock shadow. Detection quality degrades
/// (evidence is discarded), correctness of the simulation does not:
/// the machine never panics and never diverges from the trace.
#[derive(Debug)]
pub struct HardMachine {
    cfg: HardConfig,
    hierarchy: Hierarchy<HardMetaFactory>,
    /// One Lock/Counter Register pair per *thread*: the hardware holds
    /// the running thread's pair; on a context switch the OS swaps it
    /// like any other register state (§3.3 stores "the lock set of the
    /// running thread").
    registers: Vec<LockRegister>,
    /// The OS's software shadow of each thread's held locks (in
    /// acquisition order, with multiplicity). Real lock implementations
    /// keep this anyway; HARD's recovery path rebuilds a corrupted lock
    /// register from it.
    shadow: Vec<Vec<LockId>>,
    cmp: Cmp,
    log: ReportLog,
    faults: FaultInjector,
    /// Granules whose stored metadata parity no longer matches —
    /// corruption that has landed but not yet been read. Only touched
    /// while the fault plan is active; the detection hot path never
    /// consults it on a fault-free machine.
    corrupt_meta: BTreeSet<(Addr, usize)>,
    /// Per-thread flag: the lock-register parity no longer matches
    /// (flat table indexed like `registers`).
    corrupt_registers: Vec<bool>,
    /// Delayed metadata broadcasts `(due_event, source core, line)`:
    /// a flat FIFO drained from `pending_head`, compacted when empty.
    pending_broadcasts: Vec<(u64, CoreId, Addr)>,
    pending_head: usize,
    /// Trace events consumed (drives broadcast-delay delivery).
    event_count: u64,
    /// Observability sink; [`ObsHandle::off`] (the default) is bit-
    /// and perf-inert.
    obs: ObsHandle,
    /// Lane kernel the span access runs through. Every kernel is
    /// bit-identical; this is a throughput and testing lever only.
    kernel: LaneKernel,
    /// Window pre-pass scratch (see [`dispatch_window`]).
    window: Vec<Option<(Addr, usize)>>,
}

impl HardMachine {
    /// A fresh machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid; use
    /// [`HardMachine::try_new`] to handle that as an error.
    #[must_use]
    pub fn new(cfg: HardConfig) -> HardMachine {
        Self::try_new(cfg).expect("HardConfig must describe a valid machine")
    }

    /// A fresh machine, or the configuration error that prevents one.
    ///
    /// # Errors
    ///
    /// Returns [`HardError::InvalidConfig`] for structurally invalid
    /// cache shapes (zero cores, incompatible L1/L2 line sizes, ...).
    pub fn try_new(cfg: HardConfig) -> Result<HardMachine, HardError> {
        let factory = HardMetaFactory {
            shape: cfg.bloom,
            granules_per_line: cfg.granules_per_line(),
        };
        let n = cfg.hierarchy.num_cores;
        Ok(HardMachine {
            hierarchy: Hierarchy::new(cfg.hierarchy, factory)?,
            registers: (0..n).map(|_| LockRegister::new(cfg.bloom)).collect(),
            shadow: (0..n).map(|_| Vec::new()).collect(),
            cmp: Cmp::new(n, cfg.latency),
            log: ReportLog::new(cfg.granularity),
            faults: FaultInjector::new(cfg.faults),
            corrupt_meta: BTreeSet::new(),
            corrupt_registers: vec![false; n],
            pending_broadcasts: Vec::new(),
            pending_head: 0,
            event_count: 0,
            obs: ObsHandle::off(),
            kernel: LaneKernel::auto(),
            window: Vec::new(),
            cfg,
        })
    }

    /// Selects the lane kernel the access path runs with. Every
    /// kernel produces bit-identical results; the default is
    /// [`LaneKernel::auto`] (the widest one the host supports).
    pub fn set_lane_kernel(&mut self, kernel: LaneKernel) {
        self.kernel = kernel;
    }

    /// The lane kernel the access path runs with.
    #[must_use]
    pub fn lane_kernel(&self) -> LaneKernel {
        self.kernel
    }

    /// Attaches an observability recorder to the machine and its
    /// memory hierarchy. Detection-pipeline counters, histograms and
    /// events flow to it from now on; attaching [`ObsHandle::off`]
    /// restores the inert default.
    pub fn attach_recorder(&mut self, obs: ObsHandle) {
        self.hierarchy.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &HardConfig {
        &self.cfg
    }

    /// Memory-system statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        self.hierarchy.stats()
    }

    /// The shared-bus timeline (for utilization reporting).
    #[must_use]
    pub fn bus(&self) -> &BusTimeline {
        self.cmp.bus()
    }

    /// Fault-injection and degradation statistics (all zero on a
    /// fault-free machine).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Execution time so far: the maximum core clock.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.cmp.total_cycles()
    }

    /// True if the line containing `addr` ever lost its metadata to an
    /// L2 displacement — the paper's only cause of missed races in the
    /// default configuration (§5.1).
    #[must_use]
    pub fn was_meta_lost(&self, addr: Addr) -> bool {
        self.hierarchy.was_meta_lost(addr)
    }

    /// The lock register of `thread` (inspection/debugging). The
    /// hardware register physically lives in the core the thread runs
    /// on; the OS swaps it on context switches.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was never seen by the machine.
    #[must_use]
    pub fn lock_register(&self, thread: ThreadId) -> &LockRegister {
        &self.registers[thread.index()]
    }

    /// Maps a thread to its core (see [`Cmp::core_of`]) and makes sure
    /// it has a register pair.
    fn core_of(&mut self, thread: ThreadId) -> CoreId {
        let core = self.cmp.core_of(thread);
        self.ensure_thread(thread);
        core
    }

    /// Grows the per-thread register file and its software lock shadow
    /// to cover `thread`.
    fn ensure_thread(&mut self, thread: ThreadId) {
        while self.registers.len() <= thread.index() {
            self.registers.push(LockRegister::new(self.cfg.bloom));
            self.shadow.push(Vec::new());
            self.corrupt_registers.push(false);
        }
    }

    /// Parity check on `thread`'s lock register: if a strike landed
    /// since the last read, rebuild the register from the software
    /// lock shadow (the recovery path of the fault model).
    fn repair_register_if_corrupt(&mut self, thread: ThreadId) {
        let t = thread.index();
        if std::mem::take(&mut self.corrupt_registers[t]) {
            self.registers[t].rebuild_from(&self.shadow[t]);
            self.faults.stats.parity_detections += 1;
            self.faults.stats.register_rebuilds += 1;
            self.obs.counter(CounterId::RegisterRebuilds, 1);
            self.obs
                .emit(|| Event::RegisterRebuild { thread: thread.0 });
        }
    }

    /// §3.4: sends `core`'s metadata for `line` to every other copy.
    /// The broadcast is posted: it occupies the bus (delaying later
    /// transactions) without stalling the core.
    fn broadcast(&mut self, core: CoreId, line: Addr) {
        if self.hierarchy.broadcast_meta(core, line).is_ok() {
            self.cmp
                .post(core, self.cfg.latency.meta_broadcast_occupancy);
        } else {
            self.faults.stats.internal_errors += 1;
        }
    }

    /// Rolls the fault plan's drop and delay for a metadata broadcast
    /// of `line` from `core`: returns whether it goes out now. A
    /// delayed broadcast is queued for [`Self::fault_tick`].
    fn broadcast_survives_faults(&mut self, core: CoreId, line: Addr) -> bool {
        if self.faults.roll_broadcast_drop() {
            self.faults.stats.broadcasts_dropped += 1;
            self.obs.counter(CounterId::BroadcastsDropped, 1);
            self.obs.emit(|| Event::BroadcastDropped { line: line.0 });
            false
        } else if self.faults.roll_broadcast_delay() {
            self.faults.stats.broadcasts_delayed += 1;
            let wait = u64::from(self.cfg.faults.broadcast_delay_events).max(1);
            self.obs.counter(CounterId::BroadcastsDelayed, 1);
            self.obs.emit(|| Event::BroadcastDelayed {
                line: line.0,
                wait_events: wait,
            });
            self.pending_broadcasts
                .push((self.event_count + wait, core, line));
            false
        } else {
            true
        }
    }

    fn on_lock_op(&mut self, thread: ThreadId, lock: LockId, acquire: bool) {
        let core = self.core_of(thread);
        if self.faults.is_active() {
            self.repair_register_if_corrupt(thread);
        }
        // The lock variable itself is memory traffic (test-and-set),
        // but lock/unlock instructions are recognized by HARD and do
        // not run the lockset update on their own line. A coherence
        // error is reachable only under injected corruption.
        match self.hierarchy.ensure(core, lock.addr(), AccessKind::Write) {
            Ok(r) => self.cmp.charge(core, &r, false),
            Err(_) => self.faults.stats.internal_errors += 1,
        }
        let lat = &self.cfg.latency;
        self.cmp
            .advance(core, lat.sync_op + lat.lock_register_update);
        let t = thread.index();
        if acquire {
            self.registers[t].acquire(lock);
            self.shadow[t].push(lock);
            self.obs.counter(CounterId::LockAcquires, 1);
        } else {
            self.registers[t].release(lock);
            // Mirror the register's tolerance of unbalanced releases.
            if let Some(p) = self.shadow[t].iter().rposition(|&l| l == lock) {
                self.shadow[t].remove(p);
            }
            self.obs.counter(CounterId::LockReleases, 1);
        }
        self.obs
            .histogram(HistId::LockDepth, u64::from(self.registers[t].depth()));
    }

    fn on_barrier_complete(&mut self) {
        self.cmp.barrier();
        if self.cfg.barrier_pruning {
            let mut granules = 0u64;
            self.hierarchy.flash_meta(|meta| {
                granules += meta.len() as u64;
                meta.barrier_reset_all();
            });
            // The flash rewrite regenerates every metadata word's
            // parity, clearing any corruption still in flight.
            self.corrupt_meta.clear();
            self.obs.counter(CounterId::BarrierResets, 1);
            self.obs.emit(|| Event::BarrierReset { granules });
        }
    }

    /// One fault-model step per trace event: delivers due delayed
    /// broadcasts and samples the plan for new strikes. Only called
    /// when the plan is active, so a fault-free machine never reaches
    /// this code (or the injector's RNG).
    fn fault_tick(&mut self) {
        self.event_count += 1;
        while self.pending_head < self.pending_broadcasts.len() {
            let (due, core, line) = self.pending_broadcasts[self.pending_head];
            if due > self.event_count {
                break;
            }
            self.pending_head += 1;
            if self.hierarchy.sharers(line) > 0 && self.hierarchy.broadcast_meta(core, line).is_ok()
            {
                self.cmp
                    .post(core, self.cfg.latency.meta_broadcast_occupancy);
            } else {
                // The source copy is gone (evicted or displaced while
                // the message waited): the deferred broadcast is lost
                // exactly like a dropped one.
                self.faults.stats.broadcasts_dropped += 1;
            }
        }
        // Compact the FIFO once fully drained so the backing vector
        // never grows beyond the peak number of in-flight delays.
        if self.pending_head == self.pending_broadcasts.len() && self.pending_head > 0 {
            self.pending_broadcasts.clear();
            self.pending_head = 0;
        }
        if self.faults.roll_meta_flip() {
            self.inject_meta_flip();
        }
        if self.faults.roll_register_flip() {
            self.inject_register_flip();
        }
        if self.faults.roll_displacement() {
            let n = self.hierarchy.l2_occupancy();
            if n > 0 {
                let victim = self.faults.pick(n);
                if self.hierarchy.force_displace(victim).is_some() {
                    self.faults.stats.spurious_displacements += 1;
                }
            }
        }
    }

    /// Flips one bit in a randomly chosen resident granule's metadata
    /// word (candidate vector or 2-bit LState) and marks its parity
    /// stale.
    fn inject_meta_flip(&mut self) {
        let core = CoreId(self.faults.pick(self.cfg.hierarchy.num_cores) as u32);
        let lines = self.hierarchy.resident_lines(core);
        if lines.is_empty() {
            return;
        }
        let line = lines[self.faults.pick(lines.len())];
        let vector_bits = self.cfg.bloom.total_bits();
        // The word under strike: all vector bits plus the 2 state bits.
        let bit = self.faults.pick(vector_bits as usize + 2) as u32;
        let Some(meta) = self.hierarchy.meta_mut(core, line) else {
            return;
        };
        let gi = self.faults.pick(meta.len());
        // Bits [0, V) are the candidate vector, [V, V+2) the LState —
        // the packed word makes both the same XOR. Parity is left
        // stale: that is the strike being modeled.
        meta.flip_bit(gi, bit);
        self.corrupt_meta.insert((line, gi));
        self.faults.stats.meta_bits_flipped += 1;
    }

    /// Flips one vector bit in a randomly chosen thread's Lock
    /// Register and marks its parity stale.
    fn inject_register_flip(&mut self) {
        if self.registers.is_empty() {
            return;
        }
        let t = self.faults.pick(self.registers.len());
        let bit = self.faults.pick(self.cfg.bloom.total_bits() as usize) as u32;
        self.registers[t].flip_vector_bit(bit);
        self.corrupt_registers[t] = true;
        self.faults.stats.register_bits_flipped += 1;
    }
}

impl Detector for HardMachine {
    fn name(&self) -> &str {
        "hard"
    }

    fn on_event(&mut self, index: usize, event: &TraceEvent) {
        if self.faults.is_active() {
            self.fault_tick();
        }
        match *event {
            TraceEvent::Op { thread, op } => match op {
                Op::Read { .. } | Op::Write { .. } => {
                    if let Some(a) = Access::of(event) {
                        self.access(index, a);
                    }
                }
                Op::Lock { lock, .. } => self.on_lock_op(thread, lock, true),
                Op::Unlock { lock, .. } => self.on_lock_op(thread, lock, false),
                Op::Fork { child, .. } => {
                    // §3.1 ownership model: the parent's exclusively
                    // owned granules go back to Virgin so the child can
                    // adopt them without a false foreign transition.
                    self.hierarchy
                        .flash_meta(|meta| meta.fork_transfer_all(thread));
                    let core = self.core_of(thread);
                    // §3.1 dummy lock: the child holds it for life.
                    self.ensure_thread(child);
                    self.registers[child.index()].acquire(dummy_lock(child));
                    self.shadow[child.index()].push(dummy_lock(child));
                    self.cmp.advance(core, self.cfg.latency.sync_op);
                }
                Op::Join { child, .. } => {
                    // The parent inherits the child's dummy lock.
                    let core = self.core_of(thread);
                    self.registers[thread.index()].acquire(dummy_lock(child));
                    self.shadow[thread.index()].push(dummy_lock(child));
                    self.cmp.advance(core, self.cfg.latency.sync_op);
                }
                Op::Barrier { .. } => {
                    let core = self.core_of(thread);
                    self.cmp.advance(core, self.cfg.latency.sync_op);
                }
                Op::Compute { cycles } => {
                    let core = self.core_of(thread);
                    self.cmp.advance(core, u64::from(cycles));
                }
            },
            TraceEvent::BarrierComplete { .. } => self.on_barrier_complete(),
        }
    }

    fn on_batch(&mut self, index: usize, events: &[TraceEvent]) {
        // Under fault injection a fault tick precedes every event, so
        // the window runs per event through `on_event`; the access
        // path itself is the same `access_line` either way.
        if self.faults.is_active() {
            for (i, e) in events.iter().enumerate() {
                self.on_event(index + i, e);
            }
            return;
        }
        dispatch_window(self, index, events);
    }

    fn reports(&self) -> &[RaceReport] {
        self.log.reports()
    }
}

impl Windowed for HardMachine {
    fn l1(&self) -> CacheGeometry {
        self.cfg.hierarchy.l1
    }

    fn window(&mut self) -> &mut Vec<Option<(Addr, usize)>> {
        &mut self.window
    }

    /// The machine's one access path, per-event, batched and
    /// fault-armed alike: the line reached through the fused
    /// [`Hierarchy::access_prepared`] probe, then the per-granule
    /// Figure 2 transition + §3.3 intersect + emptiness test as one
    /// [`PackedLineMeta`](hard_lockset::PackedLineMeta) span access
    /// through the lane kernel, then the §3.4 broadcast.
    fn access_line(&mut self, index: usize, a: Access, line: Addr, set: usize) {
        let core = self.core_of(a.thread);
        let faults_active = self.faults.is_active();
        if faults_active {
            self.repair_register_if_corrupt(a.thread);
        }
        let (lo, len) = a.clip(line, self.hierarchy.line_bytes());
        let gshift = self.cfg.granularity.shift();
        let g0 = ((lo.0 - line.0) >> gshift) as usize;
        // An empty access covers its base granule.
        let g1 = ((lo.0 + len.saturating_sub(1) - line.0) >> gshift) as usize + 1;
        let held = self.registers[a.thread.index()].vector();
        let kernel = self.kernel;
        let Ok((r, meta)) = self.hierarchy.access_prepared(core, line, set, a.kind) else {
            // Only reachable under injected faults: skip the line.
            self.faults.stats.internal_errors += 1;
            return;
        };
        // Reading a metadata word checks its parity. A mismatch means a
        // strike landed since the last read: fall back to the safe
        // state the hardware fetches lines with (§3.1) — all-ones
        // candidate set, no sharing history — rather than trust corrupt
        // evidence. The side table is only ever populated while faults
        // are active, so the fault-free path skips the lookup.
        let mut reset = 0u64;
        if faults_active {
            for gi in g0..g1 {
                if self.corrupt_meta.remove(&(line, gi)) {
                    meta.degrade(gi);
                    self.faults.stats.parity_detections += 1;
                    self.faults.stats.conservative_resets += 1;
                    reset |= 1 << gi;
                }
            }
        }
        let span = meta.access_span(g0, g1, a.thread, a.kind, &held, kernel);
        if self.obs.is_on() {
            // Per granule, in granule order: the reset, the updated
            // candidate set's population, its emptiness.
            for gi in g0..g1 {
                if reset & (1 << gi) != 0 {
                    self.obs.counter(CounterId::ConservativeResets, 1);
                    self.obs.emit(|| Event::ConservativeReset {
                        line: line.0,
                        granule: gi as u32,
                    });
                }
                self.obs
                    .histogram(HistId::BloomPopulation, u64::from(meta.population(gi)));
                if span.race_mask & (1 << (gi - g0)) != 0 {
                    self.obs.emit(|| Event::CandidateEmpty {
                        line: line.0,
                        granule: gi as u32,
                        thread: a.thread.0,
                    });
                }
            }
        }
        // Charging after the span is unobservable: the span kernel
        // never reads the clocks and the bus never reads the metadata,
        // and the broadcast below still sees the updated core time.
        self.cmp.charge(core, &r, true);
        // §3.4 keeps candidate sets AND LStates consistent across
        // copies, so any metadata change on a shared line is broadcast
        // — pure state transitions and the safe state of a reset
        // included.
        if self.cfg.metadata_broadcast
            && (span.changed || reset != 0)
            && self.hierarchy.shared_beyond(core, line)
            && (!faults_active || self.broadcast_survives_faults(core, line))
        {
            self.broadcast(core, line);
        }
        self.log.record_observed(
            &self.obs,
            CounterId::RacesReported,
            index,
            &a,
            line,
            u64::from(span.race_mask) << g0,
        );
        if self.obs.is_on() {
            self.obs
                .counter(CounterId::CandidateChecks, (g1 - g0) as u64);
            let empties = u64::from(span.race_mask.count_ones());
            if empties > 0 {
                self.obs.counter(CounterId::CandidateEmpties, empties);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::{run_detector, ProgramBuilder, SchedConfig, Scheduler, Trace};
    use hard_types::{BarrierId, FaultPlan, SiteId};

    fn sched(seed: u64) -> Scheduler {
        Scheduler::new(SchedConfig {
            seed,
            max_quantum: 4,
        })
    }

    fn detect(trace: &Trace, cfg: HardConfig) -> (Vec<RaceReport>, HardMachine) {
        let mut m = HardMachine::new(cfg);
        let r = run_detector(&mut m, trace);
        (r, m)
    }

    #[test]
    fn unprotected_sharing_is_flagged() {
        let x = Addr(0x2000);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        b.thread(1).write(x, 4, SiteId(2));
        let trace = sched(0).run(&b.build());
        let (r, _) = detect(&trace, HardConfig::default());
        assert!(r.iter().any(|r| r.overlaps(x, Addr(x.0 + 4))));
    }

    #[test]
    fn figure1_race_caught_in_every_interleaving() {
        let lock = LockId(0x40);
        let x = Addr(0x2000);
        let y = Addr(0x3000);
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .write(x, 4, SiteId(1))
            .lock(lock, SiteId(2))
            .write(y, 4, SiteId(3))
            .unlock(lock, SiteId(4));
        b.thread(1)
            .lock(lock, SiteId(5))
            .write(y, 4, SiteId(6))
            .unlock(lock, SiteId(7))
            .write(x, 4, SiteId(8));
        let p = b.build();
        for seed in 0..16 {
            let trace = sched(seed).run(&p);
            let (r, _) = detect(&trace, HardConfig::default());
            assert!(
                r.iter().any(|r| r.overlaps(x, Addr(x.0 + 4))),
                "seed {seed}: HARD is interleaving-insensitive"
            );
        }
    }

    #[test]
    fn consistent_locking_is_clean() {
        let mut b = ProgramBuilder::new(4);
        for t in 0..4u32 {
            let tp = b.thread(t);
            for i in 0..20u32 {
                tp.lock(LockId(0x40), SiteId(t * 1000 + i))
                    .write(Addr(0x1000), 4, SiteId(5))
                    .read(Addr(0x1000), 4, SiteId(6))
                    .unlock(LockId(0x40), SiteId(t * 1000 + 500 + i));
            }
        }
        let trace = sched(1).run(&b.build());
        let (r, m) = detect(&trace, HardConfig::default());
        assert!(r.is_empty(), "{r:?}");
        assert!(m.total_cycles().0 > 0);
    }

    #[test]
    fn barrier_pruning_suppresses_phase_alarms() {
        let a = Addr(0x500);
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .write(a, 4, SiteId(1))
            .barrier(BarrierId(0), SiteId(2));
        b.thread(1)
            .barrier(BarrierId(0), SiteId(3))
            .write(a, 4, SiteId(4));
        let p = b.build();
        let trace = sched(2).run(&p);
        let (with, _) = detect(&trace, HardConfig::default());
        assert!(with.is_empty());
        let raw_cfg = HardConfig {
            barrier_pruning: false,
            ..HardConfig::default()
        };
        let (without, _) = detect(&trace, raw_cfg);
        assert!(!without.is_empty(), "pruning disabled: alarm expected");
    }

    #[test]
    fn l2_displacement_causes_missed_race() {
        // Tiny caches: thrash the L2 between the two racy accesses so
        // the candidate-set evidence is displaced and the race missed.
        let mut cfg = HardConfig::default();
        cfg.hierarchy.l1 = hard_cache::CacheGeometry::new(128, 2, 32);
        cfg.hierarchy.l2 = hard_cache::CacheGeometry::new(256, 2, 32);
        let x = Addr(0x0);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        // Thrash: walk far more lines than the 256-byte L2 holds.
        let tp = b.thread(0);
        for i in 1..64u64 {
            tp.write(Addr(i * 32), 4, SiteId(100 + i as u32));
        }
        b.thread(1).barrier(BarrierId(9), SiteId(200));
        b.thread(0).barrier(BarrierId(9), SiteId(201));
        b.thread(1).write(x, 4, SiteId(2));
        let p = b.build();
        let trace = sched(0).run(&p);
        // Disable pruning so the barrier (used here only for ordering)
        // does not also reset metadata — we want to isolate eviction.
        let mut cfg_raw = cfg;
        cfg_raw.barrier_pruning = false;
        let (r, m) = detect(&trace, cfg_raw);
        assert!(
            !r.iter().any(|r| r.overlaps(x, Addr(x.0 + 4))),
            "evidence was evicted: race missed"
        );
        assert!(
            m.was_meta_lost(x),
            "the miss is attributable to L2 displacement"
        );
        assert!(m.stats().l2_evictions > 0);
    }

    #[test]
    fn metadata_broadcasts_happen_on_shared_lines() {
        // Two threads read-share a line, then take turns updating the
        // candidate set under different locks: changes on the shared
        // line must broadcast.
        let x = Addr(0x1000);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).read(x, 4, SiteId(1));
        b.thread(1).read(x, 4, SiteId(2));
        for t in 0..2u32 {
            b.thread(t)
                .lock(LockId(0x40), SiteId(10 + t))
                .read(x, 4, SiteId(20 + t))
                .unlock(LockId(0x40), SiteId(30 + t));
        }
        let trace = sched(3).run(&b.build());
        let (_, m) = detect(&trace, HardConfig::default());
        assert!(
            m.stats().meta_broadcasts > 0,
            "candidate-set change on a shared line must broadcast"
        );
    }

    #[test]
    fn timing_advances_and_barrier_syncs_cores() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0).compute(1000).barrier(BarrierId(0), SiteId(1));
        b.thread(1).compute(10).barrier(BarrierId(0), SiteId(2));
        let trace = sched(0).run(&b.build());
        let (_, m) = detect(&trace, HardConfig::default());
        // Both cores end at the barrier: total = slowest core.
        assert!(m.total_cycles().0 >= 1000);
    }

    #[test]
    fn more_threads_than_cores_multiplex() {
        // Six threads on the 4-core machine: threads 0 and 4 share
        // core 0 and pay context switches; detection is unaffected.
        let x = Addr(0x2000);
        let mut b = ProgramBuilder::new(6);
        for t in 0..6u32 {
            let tp = b.thread(t);
            for i in 0..3u32 {
                tp.write(x, 4, SiteId(t * 10 + i)).compute(5);
            }
        }
        let trace = sched(1).run(&b.build());
        let (r, m) = detect(&trace, HardConfig::default());
        assert!(
            r.iter().any(|rr| rr.addr == x),
            "the unprotected sharing is still flagged"
        );
        // Context switches register in the timing: rerun with a free
        // switch and compare.
        let mut free_cfg = HardConfig::default();
        free_cfg.latency.context_switch = 0;
        let (_, free) = detect(&trace, free_cfg);
        assert!(
            m.total_cycles().0 > free.total_cycles().0,
            "context switches must cost cycles ({} vs {})",
            m.total_cycles(),
            free.total_cycles()
        );
    }

    #[test]
    fn figure3_l2_detects_like_table1_when_nothing_evicts() {
        // With a footprint far below both L2 configurations, the L2
        // line organization cannot change detection.
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            let tp = b.thread(t);
            for i in 0..10u64 {
                tp.write(Addr(0x1000 + (i % 4) * 32), 4, SiteId(t * 100 + i as u32));
            }
        }
        let trace = sched(2).run(&b.build());
        let (table1, _) = detect(&trace, HardConfig::default());
        let (fig3, _) = detect(&trace, HardConfig::default().with_figure3_l2());
        assert_eq!(table1, fig3);
    }

    #[test]
    fn lock_register_tracks_held_locks() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0).lock(LockId(0x40), SiteId(0));
        let trace = sched(0).run(&b.build());
        let mut m = HardMachine::new(HardConfig::default());
        run_detector(&mut m, &trace);
        assert!(m.lock_register(ThreadId(0)).vector().contains(LockId(0x40)));
        assert_eq!(m.lock_register(ThreadId(0)).depth(), 1);
    }

    /// A workload with enough sharing, locking and fork/join structure
    /// to exercise every fault path.
    fn fault_workload() -> Trace {
        let mut b = ProgramBuilder::new(4);
        for t in 0..4u32 {
            let tp = b.thread(t);
            for i in 0..30u64 {
                tp.lock(LockId(0x40), SiteId(t * 1000 + i as u32))
                    .write(Addr(0x1000 + (i % 6) * 32), 4, SiteId(10 + i as u32))
                    .read(Addr(0x1000 + ((i + 1) % 6) * 32), 4, SiteId(40 + i as u32))
                    .unlock(LockId(0x40), SiteId(t * 1000 + 500 + i as u32))
                    .write(Addr(0x8000 + u64::from(t) * 0x100 + i * 32), 4, SiteId(70))
                    .compute(3);
            }
            tp.barrier(BarrierId(0), SiteId(900 + t));
        }
        sched(5).run(&b.build())
    }

    #[test]
    fn explicit_none_plan_is_bit_identical_to_default() {
        // The fault layer must be invisible when inert: same reports,
        // same cycles, same memory statistics, no fault activity.
        let trace = fault_workload();
        let (r_def, m_def) = detect(&trace, HardConfig::default());
        let cfg = HardConfig::default().with_faults(FaultPlan {
            seed: 777,
            ..FaultPlan::none()
        });
        let (r_none, m_none) = detect(&trace, cfg);
        assert_eq!(r_def, r_none);
        assert_eq!(m_def.total_cycles(), m_none.total_cycles());
        assert_eq!(
            m_def.stats().meta_broadcasts,
            m_none.stats().meta_broadcasts
        );
        assert_eq!(m_none.fault_stats(), hard_types::FaultStats::default());
    }

    #[test]
    fn heavy_faults_never_panic_and_are_counted() {
        let trace = fault_workload();
        for seed in 0..4u64 {
            let cfg = HardConfig::default().with_faults(FaultPlan::uniform(seed, 200_000));
            let (_, m) = detect(&trace, cfg);
            let fs = m.fault_stats();
            assert!(
                fs.injected() > 0,
                "seed {seed}: a 20% uniform plan must fire"
            );
            assert!(
                fs.parity_detections <= fs.meta_bits_flipped + fs.register_bits_flipped,
                "seed {seed}: cannot detect more corruptions than were injected"
            );
            assert_eq!(
                fs.conservative_resets + fs.register_rebuilds,
                fs.parity_detections,
                "seed {seed}: every detection triggers exactly one recovery"
            );
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let trace = fault_workload();
        let cfg = HardConfig::default().with_faults(FaultPlan::uniform(9, 50_000));
        let (r1, m1) = detect(&trace, cfg);
        let (r2, m2) = detect(&trace, cfg);
        assert_eq!(r1, r2);
        assert_eq!(m1.fault_stats(), m2.fault_stats());
        assert_eq!(m1.total_cycles(), m2.total_cycles());
    }

    #[test]
    fn register_corruption_is_repaired_from_the_shadow() {
        // Only register flips: the next event from the corrupted thread
        // rebuilds its Lock/Counter register from the software shadow,
        // so consistent locking still produces no false alarms from
        // register state (metadata is untouched by this fault class).
        let trace = fault_workload();
        let plan = FaultPlan {
            seed: 3,
            register_flip_ppm: 100_000,
            ..FaultPlan::none()
        };
        let (_, m) = detect(&trace, HardConfig::default().with_faults(plan));
        let fs = m.fault_stats();
        assert!(fs.register_bits_flipped > 0);
        assert_eq!(fs.register_rebuilds, fs.parity_detections);
        assert!(
            fs.register_rebuilds > 0,
            "corrupted registers must be rebuilt"
        );
        assert_eq!(fs.conservative_resets, 0, "no metadata was corrupted");
        // After the full run every register matches its shadow exactly.
        for t in 0..4u32 {
            assert_eq!(
                m.lock_register(ThreadId(t)).depth(),
                0,
                "thread {t}: balanced locking leaves an empty register"
            );
        }
    }

    #[test]
    fn meta_corruption_degrades_conservatively() {
        // Metadata flips alone: parity catches the corrupt granule on
        // its next access and resets it to the safe all-ones state. The
        // race-free workload stays panic-free and the machine keeps
        // producing deterministic output.
        let trace = fault_workload();
        let plan = FaultPlan {
            seed: 11,
            meta_bit_flip_ppm: 80_000,
            ..FaultPlan::none()
        };
        let (_, m) = detect(&trace, HardConfig::default().with_faults(plan));
        let fs = m.fault_stats();
        assert!(fs.meta_bits_flipped > 0);
        assert_eq!(fs.register_rebuilds, 0);
        assert!(
            fs.conservative_resets <= fs.meta_bits_flipped,
            "resets only happen for detected corruptions"
        );
    }

    #[test]
    fn broadcast_faults_and_displacements_inject() {
        let trace = fault_workload();
        let plan = FaultPlan {
            seed: 21,
            broadcast_drop_ppm: 500_000,
            broadcast_delay_ppm: 500_000,
            broadcast_delay_events: 8,
            displacement_ppm: 30_000,
            ..FaultPlan::none()
        };
        let (_, m) = detect(&trace, HardConfig::default().with_faults(plan));
        let fs = m.fault_stats();
        assert!(
            fs.broadcasts_dropped + fs.broadcasts_delayed > 0,
            "shared-line updates must hit the broadcast fault path"
        );
        assert!(fs.spurious_displacements > 0);
    }

    #[test]
    fn attached_recorder_observes_the_detection_pipeline() {
        use hard_obs::{CounterId, HistId, MemoryRecorder, ObsHandle};
        use std::sync::Arc;
        let trace = fault_workload();
        let rec = Arc::new(MemoryRecorder::new());
        let mut m = HardMachine::new(HardConfig::default());
        m.attach_recorder(ObsHandle::new(rec.clone()));
        let reports = run_detector(&mut m, &trace);
        let s = rec.snapshot();
        assert!(s.counter(CounterId::CandidateChecks) > 0);
        assert_eq!(s.counter(CounterId::RacesReported), reports.len() as u64);
        assert_eq!(
            s.counter(CounterId::BroadcastsSent),
            m.stats().meta_broadcasts
        );
        assert_eq!(s.counter(CounterId::CacheFills), m.stats().l1_misses);
        // 4 threads x 30 iterations of lock/unlock pairs.
        assert_eq!(s.counter(CounterId::LockAcquires), 120);
        assert_eq!(s.counter(CounterId::LockReleases), 120);
        assert_eq!(s.counter(CounterId::BarrierResets), 1);
        let pop = s.histogram(HistId::BloomPopulation).unwrap();
        assert_eq!(pop.count, s.counter(CounterId::CandidateChecks));
        let depth = s.histogram(HistId::LockDepth).unwrap();
        assert_eq!(depth.count, 240, "one observation per lock op");
    }

    #[test]
    fn noop_recorder_is_bit_identical_to_no_recorder() {
        use hard_obs::{NoopRecorder, ObsHandle};
        use std::sync::Arc;
        let trace = fault_workload();
        let (r_plain, m_plain) = detect(&trace, HardConfig::default());
        let mut m = HardMachine::new(HardConfig::default());
        m.attach_recorder(ObsHandle::new(Arc::new(NoopRecorder)));
        let r_noop = run_detector(&mut m, &trace);
        assert_eq!(r_plain, r_noop);
        assert_eq!(m_plain.total_cycles(), m.total_cycles());
        assert_eq!(m_plain.stats(), m.stats());
    }

    #[test]
    fn batched_run_is_bit_identical_to_scalar_for_every_kernel() {
        use hard_bloom::LaneKernel;
        use hard_trace::run_detector_batched;
        let trace = crate::cmp::mixed_workload();
        let mut scalar = HardMachine::new(HardConfig::default());
        let r_scalar = run_detector(&mut scalar, &trace);
        for kernel in [LaneKernel::Scalar, LaneKernel::Unroll4, LaneKernel::Simd] {
            let mut m = HardMachine::new(HardConfig::default());
            m.set_lane_kernel(kernel);
            let r = run_detector_batched(&mut m, &trace);
            assert_eq!(r_scalar, r, "{} kernel reports diverged", kernel.name());
            assert_eq!(scalar.total_cycles(), m.total_cycles(), "{}", kernel.name());
            assert_eq!(scalar.stats(), m.stats(), "{}", kernel.name());
        }
    }

    #[test]
    fn batched_run_with_faults_or_recorder_is_bit_identical() {
        use hard_obs::{MemoryRecorder, ObsHandle};
        use hard_trace::run_detector_batched;
        use std::sync::Arc;
        let trace = crate::cmp::mixed_workload();
        // Fault-injected windows run per event.
        let cfg = HardConfig::default().with_faults(FaultPlan::uniform(13, 60_000));
        let mut scalar = HardMachine::new(cfg);
        let r_scalar = run_detector(&mut scalar, &trace);
        let mut batched = HardMachine::new(cfg);
        let r_batched = run_detector_batched(&mut batched, &trace);
        assert_eq!(r_scalar, r_batched);
        assert_eq!(scalar.fault_stats(), batched.fault_stats());
        assert_eq!(scalar.total_cycles(), batched.total_cycles());
        // Observed runs keep the batched path and make the per-event
        // run's recorder calls: identical counters, histograms and
        // event stream.
        let rec_s = Arc::new(MemoryRecorder::new());
        let mut m_s = HardMachine::new(HardConfig::default());
        m_s.attach_recorder(ObsHandle::new(rec_s.clone()));
        let r_s = run_detector(&mut m_s, &trace);
        let rec_b = Arc::new(MemoryRecorder::new());
        let mut m_b = HardMachine::new(HardConfig::default());
        m_b.attach_recorder(ObsHandle::new(rec_b.clone()));
        let r_b = run_detector_batched(&mut m_b, &trace);
        assert_eq!(r_s, r_b);
        assert_eq!(m_s.total_cycles(), m_b.total_cycles());
        assert_eq!(m_s.stats(), m_b.stats());
        let (s, b) = (rec_s.snapshot(), rec_b.snapshot());
        assert_eq!(s.nonzero_counters(), b.nonzero_counters());
        assert_eq!(s.histograms, b.histograms);
        assert_eq!(s.events_recorded, b.events_recorded);
        // Non-vacuous: the workload exercises every per-granule call.
        for id in [
            CounterId::CandidateChecks,
            CounterId::CandidateEmpties,
            CounterId::RacesReported,
        ] {
            assert!(s.counter(id) > 0, "{id:?} never fired");
        }
        let population = s.histogram(HistId::BloomPopulation).expect("histogram");
        assert_eq!(population.count, s.counter(CounterId::CandidateChecks));
    }

    #[test]
    fn injected_race_survives_zero_fault_plan() {
        // The acceptance property in miniature: at rate zero the fault
        // machinery cannot eat a real race.
        let x = Addr(0x2000);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        b.thread(1).write(x, 4, SiteId(2));
        let trace = sched(0).run(&b.build());
        let cfg = HardConfig::default().with_faults(FaultPlan {
            seed: 5,
            ..FaultPlan::none()
        });
        let (r, _) = detect(&trace, cfg);
        assert!(r.iter().any(|r| r.overlaps(x, Addr(x.0 + 4))));
    }
}
