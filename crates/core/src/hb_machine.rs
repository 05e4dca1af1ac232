//! The hardware happens-before baseline detector.
//!
//! "For the happens-before implementation, we store the timestamps at
//! cache-line granularity, very similar to storing the candidate sets
//! and LStates in HARD" (paper §4). This machine applies the same two
//! hardware approximations as HARD — line-granularity metadata and
//! metadata only for cached data — while thread/lock clocks (per-core
//! register state) survive displacement.

use crate::cmp::{dispatch_window, pin, Access, ReportLog, Windowed};
use crate::metadata::{HbLineMeta, HbMetaFactory};
use hard_cache::{CacheGeometry, Hierarchy, HierarchyConfig, MemStats};
use hard_hb::{hb_access, SyncClocks, VectorClock};
use hard_obs::{CounterId, ObsHandle};
use hard_trace::{Detector, Op, RaceReport, TraceEvent};
use hard_types::{AccessKind, Addr, CoreId, Granularity, ThreadId};

/// Configuration of the hardware happens-before machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HbMachineConfig {
    /// Cache shape (Table 1 defaults; Tables 4/5 sweep the L2 size).
    pub hierarchy: HierarchyConfig,
    /// Timestamp granularity (Table 3 sweeps 4–32 B).
    pub granularity: Granularity,
    /// Number of application threads (the vector-clock width). Equals
    /// the core count in the paper's one-thread-per-core runs; larger
    /// values multiplex threads onto cores round-robin.
    pub num_threads: usize,
}

impl Default for HbMachineConfig {
    fn default() -> Self {
        HbMachineConfig {
            hierarchy: HierarchyConfig::default(),
            granularity: Granularity::new(32),
            num_threads: HierarchyConfig::default().num_cores,
        }
    }
}

impl HbMachineConfig {
    /// Granules per line.
    ///
    /// # Panics
    ///
    /// Panics if the granularity exceeds the line size.
    #[must_use]
    pub fn granules_per_line(&self) -> usize {
        let line = self.hierarchy.l1.line_bytes();
        let g = self.granularity.bytes();
        assert!(g <= line, "granularity {g}B exceeds the {line}B line");
        (line / g) as usize
    }

    /// A copy with a different L2 capacity.
    #[must_use]
    pub fn with_l2_size(mut self, bytes: u64) -> HbMachineConfig {
        let l2 = self.hierarchy.l2;
        self.hierarchy.l2 = hard_cache::CacheGeometry::new(bytes, l2.ways(), l2.line_bytes());
        self
    }

    /// A copy with a different timestamp granularity.
    #[must_use]
    pub fn with_granularity(mut self, bytes: u64) -> HbMachineConfig {
        self.granularity = Granularity::new(bytes);
        self
    }

    /// A copy sized for `n` application threads.
    #[must_use]
    pub fn with_num_threads(mut self, n: usize) -> HbMachineConfig {
        self.num_threads = n;
        self
    }
}

/// The hardware happens-before detector. See the [module docs](self).
#[derive(Debug)]
pub struct HbMachine {
    cfg: HbMachineConfig,
    hierarchy: Hierarchy<HbMetaFactory>,
    sync: SyncClocks,
    log: ReportLog,
    obs: ObsHandle,
    /// Window pre-pass scratch (see [`dispatch_window`]).
    window: Vec<Option<(Addr, usize)>>,
}

impl HbMachine {
    /// A fresh machine; the vector-clock width equals the core count.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid; use
    /// [`HbMachine::try_new`] to handle that as an error.
    #[must_use]
    pub fn new(cfg: HbMachineConfig) -> HbMachine {
        Self::try_new(cfg).expect("HbMachineConfig must describe a valid machine")
    }

    /// A fresh machine, or the configuration error that prevents one.
    ///
    /// # Errors
    ///
    /// Returns [`hard_types::HardError::InvalidConfig`] for invalid
    /// cache shapes.
    pub fn try_new(cfg: HbMachineConfig) -> Result<HbMachine, hard_types::HardError> {
        let n = cfg.num_threads.max(cfg.hierarchy.num_cores);
        let factory = HbMetaFactory {
            num_threads: n,
            granules_per_line: cfg.granules_per_line(),
        };
        Ok(HbMachine {
            hierarchy: Hierarchy::new(cfg.hierarchy, factory)?,
            sync: SyncClocks::new(n),
            log: ReportLog::new(cfg.granularity),
            obs: ObsHandle::off(),
            window: Vec::new(),
            cfg,
        })
    }

    /// Attaches an observability recorder to the machine and its
    /// memory hierarchy. The default ([`ObsHandle::off`]) is inert.
    pub fn attach_recorder(&mut self, obs: ObsHandle) {
        self.hierarchy.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &HbMachineConfig {
        &self.cfg
    }

    /// Memory-system statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        self.hierarchy.stats()
    }

    /// True if the line containing `addr` ever lost its timestamps to
    /// an L2 displacement.
    #[must_use]
    pub fn was_meta_lost(&self, addr: Addr) -> bool {
        self.hierarchy.was_meta_lost(addr)
    }

    /// Threads map to cores round-robin; this machine keeps no clocks,
    /// so a context switch costs nothing.
    fn core_of(&self, thread: ThreadId) -> CoreId {
        pin(thread, self.cfg.hierarchy.num_cores)
    }

    /// The scalar access path: `ensure` then `meta_mut` per line, the
    /// reference the batched path is tested against.
    fn on_access(&mut self, index: usize, a: Access) {
        let core = self.core_of(a.thread);
        let geom = self.cfg.hierarchy.l1;
        for line in geom.lines_in(a.addr, u64::from(a.size)) {
            if self.hierarchy.ensure(core, line, a.kind).is_err() {
                // This machine injects no faults, so a coherence error
                // is a simulator bug; skip the access rather than
                // unwind a campaign over it.
                debug_assert!(false, "coherence invariant broken on a fault-free machine");
                continue;
            }
            let (lo, len) = a.clip(line, geom.line_bytes());
            // Field-disjoint borrows: the clock is read from `sync`
            // while the line metadata is updated in `hierarchy` — no
            // per-access clock clone.
            let meta = self
                .hierarchy
                .meta_mut(core, line)
                .expect("line was just ensured resident");
            let clock = self.sync.thread(a.thread);
            let (changed, racy) =
                check_granules(meta, clock, self.cfg.granularity, &a, line, lo, len);
            self.finish_line(index, &a, core, line, changed, racy);
        }
    }

    /// Timestamps on shared lines are kept coherent the same way HARD's
    /// candidate sets are; then the line's races are reported.
    fn finish_line(
        &mut self,
        index: usize,
        a: &Access,
        core: CoreId,
        line: Addr,
        changed: bool,
        racy: u64,
    ) {
        if changed && self.hierarchy.shared_beyond(core, line) {
            let ok = self.hierarchy.broadcast_meta(core, line).is_ok();
            debug_assert!(ok, "broadcast from a core that just accessed the line");
        }
        self.log
            .record_observed(&self.obs, CounterId::HbRaces, index, a, line, racy);
    }
}

/// Runs the happens-before check of access `a` on the granules of
/// `line` that `[lo, lo + len)` overlaps. Returns whether any granule's
/// record changed and the mask of racy granules (bit `i` is granule
/// `i`).
fn check_granules(
    meta: &mut HbLineMeta,
    clock: &VectorClock,
    gran: Granularity,
    a: &Access,
    line: Addr,
    lo: Addr,
    len: u64,
) -> (bool, u64) {
    let (thread, kind) = (a.thread, a.kind);
    let epoch = clock.get(thread);
    let mut changed = false;
    let mut racy = 0u64;
    for g in gran.granules_in(lo, len) {
        let gi = ((g.0 - line.0) / gran.bytes()) as usize;
        let m = &mut meta[gi];
        // `hb_access` writes `last_write = (thread, epoch)` and zeroes
        // the thread's read epoch on a write, or sets the read epoch on
        // a read; the record changed iff those slots held different
        // values before.
        changed |= if kind.is_write() {
            m.last_write != Some((thread, epoch)) || m.read_epochs[thread.index()] != 0
        } else {
            m.read_epochs[thread.index()] != epoch
        };
        if hb_access(m, thread, clock, kind).is_race() {
            racy |= 1 << gi;
        }
    }
    (changed, racy)
}

impl Detector for HbMachine {
    fn name(&self) -> &str {
        "happens-before-hw"
    }

    fn on_event(&mut self, index: usize, event: &TraceEvent) {
        match *event {
            TraceEvent::Op { thread, op } => match op {
                Op::Read { .. } | Op::Write { .. } => {
                    if let Some(a) = Access::of(event) {
                        self.on_access(index, a);
                    }
                }
                Op::Lock { lock, .. } => {
                    let core = self.core_of(thread);
                    let _ = self.hierarchy.ensure(core, lock.addr(), AccessKind::Write);
                    self.sync.acquire(thread, lock);
                }
                Op::Unlock { lock, .. } => {
                    let core = self.core_of(thread);
                    let _ = self.hierarchy.ensure(core, lock.addr(), AccessKind::Write);
                    self.sync.release(thread, lock);
                }
                Op::Fork { child, .. } => self.sync.fork(thread, child),
                Op::Join { child, .. } => self.sync.join_thread(thread, child),
                Op::Barrier { .. } | Op::Compute { .. } => {}
            },
            TraceEvent::BarrierComplete { .. } => self.sync.barrier_all(),
        }
    }

    fn on_batch(&mut self, index: usize, events: &[TraceEvent]) {
        dispatch_window(self, index, events);
    }

    fn reports(&self) -> &[RaceReport] {
        self.log.reports()
    }
}

impl Windowed for HbMachine {
    fn l1(&self) -> CacheGeometry {
        self.cfg.hierarchy.l1
    }

    fn window(&mut self) -> &mut Vec<Option<(Addr, usize)>> {
        &mut self.window
    }

    fn access(&mut self, index: usize, a: Access) {
        self.on_access(index, a);
    }

    /// [`HbMachine::on_access`] with the hierarchy walked once through
    /// the fused [`Hierarchy::access_prepared`] probe. Bit-identical to
    /// the scalar path, recorder calls included (pinned by the tests
    /// below and the harness invariance tests).
    fn access_prepared(&mut self, index: usize, a: Access, line: Addr, set: usize) {
        let core = self.core_of(a.thread);
        let Ok((_, meta)) = self.hierarchy.access_prepared(core, line, set, a.kind) else {
            debug_assert!(false, "coherence invariant broken on a fault-free machine");
            return;
        };
        let clock = self.sync.thread(a.thread);
        let len = u64::from(a.size);
        let (changed, racy) =
            check_granules(meta, clock, self.cfg.granularity, &a, line, a.addr, len);
        self.finish_line(index, &a, core, line, changed, racy);
    }

    fn flush_deferred_stats(&mut self) {
        self.hierarchy.flush_deferred_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::{run_detector, ProgramBuilder, SchedConfig, Scheduler, Trace};
    use hard_types::{BarrierId, LockId, SiteId};

    fn sched(seed: u64) -> Scheduler {
        Scheduler::new(SchedConfig {
            seed,
            max_quantum: 4,
        })
    }

    fn detect(trace: &Trace) -> Vec<RaceReport> {
        let mut m = HbMachine::new(HbMachineConfig::default());
        run_detector(&mut m, trace)
    }

    #[test]
    fn unordered_writes_race() {
        let x = Addr(0x2000);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        b.thread(1).write(x, 4, SiteId(2));
        let trace = sched(0).run(&b.build());
        assert!(detect(&trace).iter().any(|r| r.overlaps(x, Addr(x.0 + 4))));
    }

    #[test]
    fn lock_ordered_accesses_are_clean() {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            let tp = b.thread(t);
            for i in 0..10u32 {
                tp.lock(LockId(0x40), SiteId(t * 100 + i))
                    .write(Addr(0x1000), 4, SiteId(5))
                    .unlock(LockId(0x40), SiteId(t * 100 + 50 + i));
            }
        }
        for seed in 0..4 {
            let trace = sched(seed).run(&b.clone().build());
            assert!(detect(&trace).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn barrier_ordered_accesses_are_clean() {
        let a = Addr(0x500);
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .write(a, 4, SiteId(1))
            .barrier(BarrierId(0), SiteId(2));
        b.thread(1)
            .barrier(BarrierId(0), SiteId(3))
            .write(a, 4, SiteId(4));
        for seed in 0..4 {
            let trace = sched(seed).run(&b.clone().build());
            assert!(detect(&trace).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn figure1_sensitivity_to_interleaving() {
        // HB must miss the x race in interleavings where the y-lock
        // orders the accesses, and catch it otherwise (contrast with
        // the HardMachine test that catches it in all interleavings).
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
        let mut caught = 0;
        let mut missed = 0;
        for seed in 0..64 {
            let trace = sched(seed).run(&p);
            if detect(&trace).iter().any(|r| r.overlaps(x, Addr(x.0 + 4))) {
                caught += 1;
            } else {
                missed += 1;
            }
        }
        assert!(caught > 0, "HB catches the race in unordered interleavings");
        assert!(
            missed > 0,
            "HB misses the race in lock-ordered interleavings"
        );
    }

    #[test]
    fn batched_run_is_bit_identical_to_scalar() {
        use hard_trace::run_detector_batched;
        let trace = crate::cmp::mixed_workload();
        let mut scalar = HbMachine::new(HbMachineConfig::default());
        let r_scalar = run_detector(&mut scalar, &trace);
        let mut batched = HbMachine::new(HbMachineConfig::default());
        let r_batched = run_detector_batched(&mut batched, &trace);
        assert_eq!(r_scalar, r_batched);
        assert_eq!(scalar.stats(), batched.stats());
    }

    #[test]
    fn batched_run_with_recorder_is_bit_identical() {
        use hard_obs::{MemoryRecorder, ObsHandle};
        use hard_trace::run_detector_batched;
        use std::sync::Arc;
        let x = Addr(0x2000);
        let mut b = ProgramBuilder::new(2);
        for i in 0..40u32 {
            b.thread(0).write(x, 4, SiteId(i));
            b.thread(1).write(x, 4, SiteId(100 + i));
        }
        let trace = sched(3).run(&b.build());
        let rec_s = Arc::new(MemoryRecorder::new());
        let mut m_s = HbMachine::new(HbMachineConfig::default());
        m_s.attach_recorder(ObsHandle::new(rec_s.clone()));
        let r_s = run_detector(&mut m_s, &trace);
        let rec_b = Arc::new(MemoryRecorder::new());
        let mut m_b = HbMachine::new(HbMachineConfig::default());
        m_b.attach_recorder(ObsHandle::new(rec_b.clone()));
        let r_b = run_detector_batched(&mut m_b, &trace);
        assert_eq!(r_s, r_b);
        let (s, b) = (rec_s.snapshot(), rec_b.snapshot());
        assert!(s.counter(CounterId::HbRaces) > 0, "the workload races");
        assert_eq!(s.nonzero_counters(), b.nonzero_counters());
        assert_eq!(s.histograms, b.histograms);
        assert_eq!(s.events_recorded, b.events_recorded);
        assert_eq!(m_s.stats(), m_b.stats());
    }

    #[test]
    fn displacement_loses_history() {
        let mut cfg = HbMachineConfig::default();
        cfg.hierarchy.l1 = hard_cache::CacheGeometry::new(128, 2, 32);
        cfg.hierarchy.l2 = hard_cache::CacheGeometry::new(256, 2, 32);
        let x = Addr(0x0);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        let tp = b.thread(0);
        for i in 1..64u64 {
            tp.write(Addr(i * 32), 4, SiteId(100 + i as u32));
        }
        b.thread(1).write(x, 4, SiteId(2));
        // Order t1 after the thrash via the lock (an HB edge would mask
        // the race anyway, so use raw position: run many seeds and only
        // require that *when* t1 goes last the race can be lost).
        let trace = sched(0).run(&b.build());
        let mut m = HbMachine::new(cfg);
        let r = run_detector(&mut m, &trace);
        if m.was_meta_lost(x) && !r.iter().any(|rr| rr.overlaps(x, Addr(x.0 + 4))) {
            // The expected displacement miss occurred.
        }
        assert!(m.stats().l2_evictions > 0, "the tiny L2 must thrash");
    }
}
