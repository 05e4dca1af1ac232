//! HARD on a directory-based coherence protocol (paper §3.4).
//!
//! The candidate sets and LStates live in the home directory instead of
//! travelling with the cache lines: management is simpler (one copy, no
//! broadcasts), but every monitored access performs a directory round
//! trip — even L1 hits — so the detection traffic is higher. The paper
//! notes the lookup "can be done on the background, but may delay the
//! detection"; the machine models it as posted bus traffic that does
//! not stall the core.
//!
//! Detection behaviour is identical to the snoopy [`crate::HardMachine`]
//! because both designs keep exactly one coherent view of each line's
//! metadata and lose it on the same L2 displacements — the integration
//! tests assert report-for-report equality.

use crate::cmp::{dispatch_window, Access, Cmp, ReportLog, Windowed};
use crate::config::HardConfig;
use crate::metadata::{HardLineMeta, HardMetaFactory};
use hard_bloom::LockRegister;
use hard_cache::policy::NullFactory;
use hard_cache::{CacheGeometry, Hierarchy, MemStats, MetaDirectory};
use hard_lockset::dummy_lock;
use hard_trace::{Detector, Op, RaceReport, TraceEvent};
use hard_types::{AccessKind, Addr, CoreId, Cycles, LockId, ThreadId};

/// HARD with directory-resident metadata. See the [module docs](self).
#[derive(Debug)]
pub struct DirectoryHardMachine {
    cfg: HardConfig,
    hierarchy: Hierarchy<NullFactory>,
    directory: MetaDirectory<HardMetaFactory>,
    registers: Vec<LockRegister>,
    cmp: Cmp,
    log: ReportLog,
    /// Window pre-pass scratch (see [`dispatch_window`]).
    window: Vec<Option<(Addr, usize)>>,
}

impl DirectoryHardMachine {
    /// A fresh machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid; use
    /// [`DirectoryHardMachine::try_new`] to handle that as an error.
    #[must_use]
    pub fn new(cfg: HardConfig) -> DirectoryHardMachine {
        Self::try_new(cfg).expect("HardConfig must describe a valid machine")
    }

    /// A fresh machine, or the configuration error that prevents one.
    ///
    /// # Errors
    ///
    /// Returns [`hard_types::HardError::InvalidConfig`] for invalid
    /// cache shapes.
    pub fn try_new(cfg: HardConfig) -> Result<DirectoryHardMachine, hard_types::HardError> {
        let factory = HardMetaFactory {
            shape: cfg.bloom,
            granules_per_line: cfg.granules_per_line(),
        };
        let n = cfg.hierarchy.num_cores;
        Ok(DirectoryHardMachine {
            hierarchy: Hierarchy::new(cfg.hierarchy, NullFactory)?,
            directory: MetaDirectory::new(factory),
            registers: (0..n).map(|_| LockRegister::new(cfg.bloom)).collect(),
            cmp: Cmp::new(n, cfg.latency),
            log: ReportLog::new(cfg.granularity),
            window: Vec::new(),
            cfg,
        })
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

    /// Directory metadata round trips performed (the §3.4 traffic
    /// trade-off: compare with the snoopy machine's broadcast count).
    #[must_use]
    pub fn directory_requests(&self) -> u64 {
        self.directory.requests()
    }

    /// Execution time so far.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.cmp.total_cycles()
    }

    /// True if the line containing `addr` lost its metadata to an L2
    /// displacement.
    #[must_use]
    pub fn was_meta_lost(&self, addr: Addr) -> bool {
        self.hierarchy.was_meta_lost(addr)
    }

    fn core_of(&mut self, thread: ThreadId) -> CoreId {
        let core = self.cmp.core_of(thread);
        self.ensure_thread(thread);
        core
    }

    fn ensure_thread(&mut self, thread: ThreadId) {
        while self.registers.len() <= thread.index() {
            self.registers.push(LockRegister::new(self.cfg.bloom));
        }
    }

    /// Performs the cache access and charges it to the core. The
    /// metadata lives in the directory, not the line, so this is the
    /// machine's only cache probe per line, scalar and batched alike:
    /// [`Hierarchy::ensure_prepared`], never the two-probe fused path.
    fn timed_ensure(&mut self, core: CoreId, line: Addr, set: usize, kind: AccessKind) {
        let Ok(r) = self.hierarchy.ensure_prepared(core, line, set, kind) else {
            // This machine injects no faults, so a coherence error is a
            // simulator bug; skip the access rather than unwind.
            debug_assert!(false, "coherence invariant broken on a fault-free machine");
            return;
        };
        // Metadata entries die with the line's L2 residency. Guarded:
        // the common no-eviction access skips the drain construction.
        if self.hierarchy.l2_evictions_pending() {
            for line in self.hierarchy.drain_l2_evictions() {
                self.directory.retire(line);
            }
        }
        self.cmp.charge(core, &r, false);
    }

    /// Every access: one [`Self::access_line`] per line it overlaps.
    fn on_access(&mut self, index: usize, a: Access) {
        let core = self.core_of(a.thread);
        let geom = self.cfg.hierarchy.l1;
        for line in geom.lines_in(a.addr, u64::from(a.size)) {
            let (line, set) = geom.line_and_set(line);
            self.access_line(core, index, &a, line, set);
        }
    }

    /// The part of access `a` inside `line`: the cache access, then the
    /// directory round trip — get the line's metadata, run the lockset
    /// update, put it back — posted on the bus.
    fn access_line(&mut self, core: CoreId, index: usize, a: &Access, line: Addr, set: usize) {
        self.timed_ensure(core, line, set, a.kind);
        let held = self.registers[a.thread.index()].vector();
        let gran = self.cfg.granularity;
        let (lo, len) = a.clip(line, self.cfg.hierarchy.l1.line_bytes());
        let meta: &mut HardLineMeta = self.directory.access(line, core);
        let mut racy = 0u64;
        for g in gran.granules_in(lo, len) {
            let gi = ((g.0 - line.0) / gran.bytes()) as usize;
            if meta.access(gi, a.thread, a.kind, &held).1.race {
                racy |= 1 << gi;
            }
        }
        self.cmp
            .post(core, self.cfg.latency.meta_broadcast_occupancy);
        self.log.record(index, a, line, racy);
    }

    fn on_lock_op(&mut self, thread: ThreadId, lock: LockId, acquire: bool) {
        let core = self.core_of(thread);
        let (line, set) = self.cfg.hierarchy.l1.line_and_set(lock.addr());
        self.timed_ensure(core, line, set, AccessKind::Write);
        let lat = &self.cfg.latency;
        self.cmp
            .advance(core, lat.sync_op + lat.lock_register_update);
        if acquire {
            self.registers[thread.index()].acquire(lock);
        } else {
            self.registers[thread.index()].release(lock);
        }
    }
}

impl Detector for DirectoryHardMachine {
    fn name(&self) -> &str {
        "hard-directory"
    }

    fn on_event(&mut self, index: usize, event: &TraceEvent) {
        match *event {
            TraceEvent::Op { thread, op } => match op {
                Op::Read { .. } | Op::Write { .. } => {
                    if let Some(a) = Access::of(event) {
                        self.on_access(index, a);
                    }
                }
                Op::Lock { lock, .. } => self.on_lock_op(thread, lock, true),
                Op::Unlock { lock, .. } => self.on_lock_op(thread, lock, false),
                Op::Fork { child, .. } => {
                    self.directory.flash(|meta| meta.fork_transfer_all(thread));
                    let core = self.core_of(thread);
                    self.ensure_thread(child);
                    self.registers[child.index()].acquire(dummy_lock(child));
                    self.cmp.advance(core, self.cfg.latency.sync_op);
                }
                Op::Join { child, .. } => {
                    let core = self.core_of(thread);
                    self.registers[thread.index()].acquire(dummy_lock(child));
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
            TraceEvent::BarrierComplete { .. } => {
                self.cmp.barrier();
                if self.cfg.barrier_pruning {
                    self.directory.flash(|meta| meta.barrier_reset_all());
                }
            }
        }
    }

    fn on_batch(&mut self, index: usize, events: &[TraceEvent]) {
        dispatch_window(self, index, events);
    }

    fn reports(&self) -> &[RaceReport] {
        self.log.reports()
    }
}

impl Windowed for DirectoryHardMachine {
    fn l1(&self) -> CacheGeometry {
        self.cfg.hierarchy.l1
    }

    fn window(&mut self) -> &mut Vec<Option<(Addr, usize)>> {
        &mut self.window
    }

    fn access(&mut self, index: usize, a: Access) {
        self.on_access(index, a);
    }

    fn access_prepared(&mut self, index: usize, a: Access, line: Addr, set: usize) {
        let core = self.core_of(a.thread);
        self.access_line(core, index, &a, line, set);
    }

    /// A no-op: `ensure_prepared` counts hits inline, exactly like the
    /// scalar `ensure`.
    fn flush_deferred_stats(&mut self) {
        self.hierarchy.flush_deferred_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::HardMachine;
    use hard_trace::{run_detector, ProgramBuilder, SchedConfig, Scheduler};
    use hard_types::SiteId;

    #[test]
    fn detects_the_basic_race() {
        let x = Addr(0x2000);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        b.thread(1).write(x, 4, SiteId(2));
        let trace = Scheduler::new(SchedConfig::default()).run(&b.build());
        let mut m = DirectoryHardMachine::new(HardConfig::default());
        let r = run_detector(&mut m, &trace);
        assert!(r.iter().any(|r| r.addr == x));
        assert!(
            m.directory_requests() >= 2,
            "every access pays a round trip"
        );
    }

    #[test]
    fn agrees_with_snoopy_machine_report_for_report() {
        let mut b = ProgramBuilder::new(4);
        for t in 0..4u32 {
            let tp = b.thread(t);
            for i in 0..20u64 {
                tp.lock(LockId(0x1000_0000), SiteId(100 + t))
                    .write(Addr(0x1000 + (i % 4) * 32), 4, SiteId(i as u32))
                    .unlock(LockId(0x1000_0000), SiteId(200 + t))
                    .write(Addr(0x8000 + u64::from(t) * 4), 4, SiteId(50 + t));
            }
        }
        let trace = Scheduler::new(SchedConfig {
            seed: 3,
            max_quantum: 5,
        })
        .run(&b.build());
        let mut snoopy = HardMachine::new(HardConfig::default());
        let rs = run_detector(&mut snoopy, &trace);
        let mut dir = DirectoryHardMachine::new(HardConfig::default());
        let rd = run_detector(&mut dir, &trace);
        assert_eq!(rs, rd, "both §3.4 designs detect identically");
        // ...but the directory pays a round trip per access, far more
        // than the snoopy design's occasional broadcasts.
        assert!(dir.directory_requests() > snoopy.stats().meta_broadcasts);
    }

    #[test]
    fn batched_run_is_bit_identical_to_scalar() {
        use hard_trace::run_detector_batched;
        let trace = crate::cmp::mixed_workload();
        let mut scalar = DirectoryHardMachine::new(HardConfig::default());
        let r_scalar = run_detector(&mut scalar, &trace);
        let mut batched = DirectoryHardMachine::new(HardConfig::default());
        let r_batched = run_detector_batched(&mut batched, &trace);
        assert_eq!(r_scalar, r_batched, "reports diverged");
        assert_eq!(scalar.total_cycles(), batched.total_cycles());
        assert_eq!(scalar.stats(), batched.stats());
        assert_eq!(
            scalar.directory_requests(),
            batched.directory_requests(),
            "a batched run must pay exactly the scalar round trips"
        );
    }

    #[test]
    fn displacement_still_loses_metadata() {
        let mut cfg = HardConfig::default();
        cfg.hierarchy.l1 = hard_cache::CacheGeometry::new(128, 2, 32);
        cfg.hierarchy.l2 = hard_cache::CacheGeometry::new(256, 2, 32);
        cfg.barrier_pruning = false;
        let x = Addr(0x0);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        let tp = b.thread(0);
        for i in 1..64u64 {
            tp.write(Addr(i * 32), 4, SiteId(100 + i as u32));
        }
        b.thread(1).barrier(hard_types::BarrierId(0), SiteId(200));
        b.thread(0).barrier(hard_types::BarrierId(0), SiteId(201));
        b.thread(1).write(x, 4, SiteId(2));
        let trace = Scheduler::new(SchedConfig::default()).run(&b.build());
        let mut m = DirectoryHardMachine::new(cfg);
        let r = run_detector(&mut m, &trace);
        assert!(!r.iter().any(|r| r.addr == x), "evidence displaced");
        assert!(m.was_meta_lost(x));
    }
}
