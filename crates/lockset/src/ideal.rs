//! The ideal lockset implementation (paper §4).
//!
//! "We maintain the candidate set at variable granularity for all
//! variables using complete set representation, as in software
//! implementations of the lockset algorithm." — i.e. exact sets,
//! configurable (default 4-byte) granularity, and an unbounded metadata
//! store (the infinite-L2 idealization).

use crate::meta::{dummy_lock, fork_transfer, lockset_access, GranuleMeta};
use hard_bloom::ExactSet;
use hard_trace::{Detector, Op, RaceReport, TraceEvent, MAX_TRACE_EVENTS};
use hard_types::{
    reserve_early, AccessKind, Addr, FastHashSet, Granularity, PlacementHashMap, SiteId, ThreadId,
};

/// Configuration of the ideal lockset detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdealLocksetConfig {
    /// Monitoring granularity; the paper's ideal uses 4 bytes
    /// ("variable granularity").
    pub granularity: Granularity,
    /// Apply HARD's barrier pruning (§3.5). The paper's ideal lockset
    /// numbers include it (barrier-heavy apps like ocean show almost no
    /// ideal false alarms); disable for the ablation.
    pub barrier_pruning: bool,
}

impl Default for IdealLocksetConfig {
    fn default() -> Self {
        IdealLocksetConfig {
            granularity: Granularity::new(4),
            barrier_pruning: true,
        }
    }
}

/// A whole-store operation (barrier reset or fork ownership transfer)
/// applied lazily: logged once when the event occurs, replayed onto
/// each granule the next time it is touched. Sweeping the unbounded
/// store eagerly is quadratic in practice — a streaming app like ocean
/// tracks hundreds of thousands of granules, and one eager sweep per
/// barrier dwarfed the per-access work itself.
#[derive(Clone, Copy, Debug)]
enum FlashOp {
    /// HARD-style barrier pruning: discard the accumulated evidence.
    BarrierReset,
    /// Fork: the parent's exclusively-owned granules are put up for
    /// adoption by the next toucher.
    ForkTransfer(ThreadId),
}

fn apply_flash(meta: &mut GranuleMeta<ExactSet>, op: FlashOp) {
    match op {
        FlashOp::BarrierReset => meta.barrier_reset(()),
        FlashOp::ForkTransfer(parent) => fork_transfer(meta, parent),
    }
}

/// `len` as a [`Tracked::applied`] cursor. A validated trace holds at
/// most [`MAX_TRACE_EVENTS`] events and so fewer flash ops than
/// `u32::MAX`; an unvalidated one past that bound panics rather than
/// wrap and replay old ops onto a granule.
fn cursor32(len: usize) -> u32 {
    #[cold]
    #[inline(never)]
    fn overflow(len: usize) -> ! {
        panic!("{len} flash ops exceed 32 bits: a trace may hold at most {MAX_TRACE_EVENTS} events")
    }
    u32::try_from(len).unwrap_or_else(|_| overflow(len))
}

/// One tracked granule: its metadata plus the number of [`FlashOp`]s
/// already folded in. A granule is logically up to date iff `applied`
/// equals the log length; granules created after an op was logged start
/// at the current length (a barrier or fork cannot touch metadata that
/// did not exist yet), exactly as the eager sweep behaved.
#[derive(Debug)]
struct Tracked {
    meta: GranuleMeta<ExactSet>,
    applied: u32,
}

/// The ideal lockset detector. See the [module docs](self).
#[derive(Debug)]
pub struct IdealLockset {
    cfg: IdealLocksetConfig,
    granules: PlacementHashMap<Addr, Tracked>,
    flash_ops: Vec<FlashOp>,
    held: Vec<ExactSet>,
    reports: Vec<RaceReport>,
    reported: FastHashSet<(Addr, SiteId)>,
}

impl IdealLockset {
    /// A fresh detector.
    #[must_use]
    pub fn new(cfg: IdealLocksetConfig) -> IdealLockset {
        IdealLockset {
            cfg,
            // Sized for the largest reduced-scale workloads (~100k live
            // granules): growing from empty would re-hash the whole
            // table ~15 times. Placement hashing keeps each region's
            // granules in consecutive buckets, so only the pages under
            // the touched runs (plus the control bytes) become
            // resident; a wide footprint still touches most of the
            // 2^18 buckets of 48 B (12 MiB).
            granules: PlacementHashMap::with_capacity_and_hasher(1 << 17, Default::default()),
            flash_ops: Vec::new(),
            held: Vec::new(),
            reports: Vec::new(),
            reported: FastHashSet::default(),
        }
    }

    /// The detector's configuration.
    #[must_use]
    pub fn config(&self) -> IdealLocksetConfig {
        self.cfg
    }

    /// Number of granules with live metadata (unbounded store).
    #[must_use]
    pub fn tracked_granules(&self) -> usize {
        self.granules.len()
    }

    /// The current metadata of the granule containing `addr`, if any,
    /// with any pending whole-store operations folded in.
    #[must_use]
    pub fn granule_meta(&self, addr: Addr) -> Option<GranuleMeta<ExactSet>> {
        let t = self.granules.get(&self.cfg.granularity.granule_of(addr))?;
        let mut meta = t.meta.clone();
        for &op in &self.flash_ops[t.applied as usize..] {
            apply_flash(&mut meta, op);
        }
        Some(meta)
    }

    fn held_mut(&mut self, t: ThreadId) -> &mut ExactSet {
        if self.held.len() <= t.index() {
            self.held.resize(t.index() + 1, ExactSet::empty());
        }
        &mut self.held[t.index()]
    }

    fn on_access(
        &mut self,
        index: usize,
        thread: ThreadId,
        addr: Addr,
        size: u8,
        kind: AccessKind,
        site: SiteId,
    ) {
        if self.held.len() <= thread.index() {
            self.held.resize(thread.index() + 1, ExactSet::empty());
        }
        let gran = self.cfg.granularity;
        reserve_early(&mut self.granules);
        for g in gran.granules_in(addr, u64::from(size)) {
            let ops = &self.flash_ops;
            let t = self.granules.entry(g).or_insert_with(|| Tracked {
                meta: GranuleMeta::virgin(()),
                applied: cursor32(ops.len()),
            });
            // Replay whole-store ops logged since this granule was last
            // touched, in order (usually none).
            for &op in &ops[t.applied as usize..] {
                apply_flash(&mut t.meta, op);
            }
            t.applied = cursor32(ops.len());
            let meta = &mut t.meta;
            let outcome = lockset_access(meta, thread, kind, &self.held[thread.index()]);
            if outcome.race && self.reported.insert((g, site)) {
                self.reports.push(RaceReport {
                    addr,
                    size,
                    site,
                    thread,
                    kind,
                    event_index: index,
                });
            }
        }
    }
}

impl Detector for IdealLockset {
    fn name(&self) -> &str {
        "lockset-ideal"
    }

    fn on_event(&mut self, index: usize, event: &TraceEvent) {
        match *event {
            TraceEvent::Op { thread, op } => match op {
                Op::Read { addr, size, site } => {
                    self.on_access(index, thread, addr, size, AccessKind::Read, site);
                }
                Op::Write { addr, size, site } => {
                    self.on_access(index, thread, addr, size, AccessKind::Write, site);
                }
                Op::Lock { lock, .. } => {
                    self.held_mut(thread).insert(lock);
                }
                Op::Unlock { lock, .. } => {
                    let held = self.held_mut(thread);
                    if held.contains(lock) {
                        held.remove(lock);
                    }
                }
                Op::Fork { child, .. } => {
                    // Ownership model: the parent's exclusive data is
                    // up for adoption by the next toucher. Logged and
                    // applied lazily per granule.
                    self.flash_ops.push(FlashOp::ForkTransfer(thread));
                    // The child implicitly holds its dummy lock.
                    self.held_mut(child).insert(dummy_lock(child));
                }
                Op::Join { child, .. } => {
                    // The parent holds the finished child's dummy lock
                    // from here on: post-join accesses share it.
                    self.held_mut(thread).insert(dummy_lock(child));
                }
                Op::Barrier { .. } | Op::Compute { .. } => {}
            },
            TraceEvent::BarrierComplete { .. } => {
                if self.cfg.barrier_pruning {
                    self.flash_ops.push(FlashOp::BarrierReset);
                }
            }
        }
    }

    fn reports(&self) -> &[RaceReport] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::{run_detector, ProgramBuilder, SchedConfig, Scheduler, Trace};
    use hard_types::{BarrierId, LockId};

    fn run(p: &hard_trace::Program, seed: u64) -> Trace {
        Scheduler::new(SchedConfig {
            seed,
            max_quantum: 4,
        })
        .run(p)
    }

    fn detect(trace: &Trace, cfg: IdealLocksetConfig) -> Vec<RaceReport> {
        let mut d = IdealLockset::new(cfg);
        run_detector(&mut d, trace)
    }

    #[test]
    fn figure1_race_detected_in_any_interleaving() {
        // Figure 1: both threads access x (0x2000) without locks, but
        // their lock operations on the lock protecting y order the
        // accesses. Lockset must flag x under EVERY interleaving.
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
            let trace = run(&p, seed);
            let reports = detect(&trace, IdealLocksetConfig::default());
            assert!(
                reports.iter().any(|r| r.overlaps(x, Addr(x.0 + 4))),
                "seed {seed}: race on x must be flagged"
            );
            assert!(
                !reports.iter().any(|r| r.overlaps(y, Addr(y.0 + 4))),
                "seed {seed}: y is properly locked"
            );
        }
    }

    #[test]
    fn properly_locked_program_is_clean() {
        let lock = LockId(0x40);
        let mut b = ProgramBuilder::new(4);
        for t in 0..4u32 {
            let tp = b.thread(t);
            for i in 0..10u32 {
                tp.lock(lock, SiteId(t * 100 + i))
                    .write(Addr(0x1000), 4, SiteId(t * 100 + 50 + i))
                    .unlock(lock, SiteId(t * 100 + 80 + i));
            }
        }
        let trace = run(&b.build(), 3);
        assert!(detect(&trace, IdealLocksetConfig::default()).is_empty());
    }

    #[test]
    fn initialization_then_read_only_is_clean() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .write(Addr(0x100), 4, SiteId(0)) // unlocked init
            .barrier(BarrierId(0), SiteId(1))
            .read(Addr(0x100), 4, SiteId(2));
        b.thread(1)
            .barrier(BarrierId(0), SiteId(3))
            .read(Addr(0x100), 4, SiteId(4));
        let trace = run(&b.build(), 1);
        assert!(detect(&trace, IdealLocksetConfig::default()).is_empty());
    }

    #[test]
    fn barrier_pruning_suppresses_figure7_false_positive() {
        // Figure 7: t0 writes A before the barrier, t1 writes A after.
        // Without pruning lockset reports a false race; with pruning it
        // stays silent.
        let a = Addr(0x500);
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .write(a, 4, SiteId(1))
            .barrier(BarrierId(0), SiteId(2));
        b.thread(1)
            .barrier(BarrierId(0), SiteId(3))
            .read(a, 4, SiteId(4))
            .write(a, 4, SiteId(5));
        let p = b.build();
        let trace = run(&p, 2);

        let with = detect(&trace, IdealLocksetConfig::default());
        assert!(with.is_empty(), "barrier pruning must suppress the alarm");

        let without = detect(
            &trace,
            IdealLocksetConfig {
                barrier_pruning: false,
                ..IdealLocksetConfig::default()
            },
        );
        assert!(
            !without.is_empty(),
            "without pruning the barrier pattern is (falsely) reported"
        );
    }

    #[test]
    fn wider_granularity_creates_false_sharing_alarms() {
        // Two variables in the same 32-byte line, each protected by its
        // own lock: clean at 4 B, falsely flagged at 32 B.
        let v1 = Addr(0x1000);
        let v2 = Addr(0x1010);
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            let tp = b.thread(t);
            for i in 0..4u32 {
                tp.lock(LockId(0x40), SiteId(1000 + t * 10 + i))
                    .write(v1, 4, SiteId(1))
                    .unlock(LockId(0x40), SiteId(2000 + t * 10 + i))
                    .lock(LockId(0x80), SiteId(3000 + t * 10 + i))
                    .write(v2, 4, SiteId(2))
                    .unlock(LockId(0x80), SiteId(4000 + t * 10 + i));
            }
        }
        let p = b.build();
        let trace = run(&p, 5);
        let fine = detect(&trace, IdealLocksetConfig::default());
        assert!(fine.is_empty(), "4B granularity separates the variables");
        let coarse = detect(
            &trace,
            IdealLocksetConfig {
                granularity: Granularity::new(32),
                ..IdealLocksetConfig::default()
            },
        );
        assert!(
            !coarse.is_empty(),
            "32B granularity merges the candidate sets"
        );
    }

    #[test]
    fn reports_dedupe_by_granule_and_site() {
        let x = Addr(0x100);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        let tp = b.thread(1);
        for _ in 0..10 {
            tp.write(x, 4, SiteId(2)); // same static site, many instances
        }
        let trace = run(&b.build(), 0);
        let reports = detect(&trace, IdealLocksetConfig::default());
        let at_site2 = reports.iter().filter(|r| r.site == SiteId(2)).count();
        assert_eq!(
            at_site2, 1,
            "ten dynamic instances at site 2 collapse to one alarm"
        );
        assert!(reports.len() <= 2, "at most one alarm per involved site");
    }

    /// Pins the per-granule record: with all 2^18 buckets resident,
    /// each byte of it is 256 KiB of a wide run's footprint.
    #[test]
    fn tracked_record_stays_small() {
        assert!(std::mem::size_of::<Tracked>() <= 40);
    }

    #[test]
    fn tracked_granules_grow_with_footprint() {
        let mut b = ProgramBuilder::new(1);
        for i in 0..8u64 {
            b.thread(0).write(Addr(i * 4), 4, SiteId(i as u32));
        }
        let trace = run(&b.build(), 0);
        let mut d = IdealLockset::new(IdealLocksetConfig::default());
        run_detector(&mut d, &trace);
        assert_eq!(d.tracked_granules(), 8);
        assert!(d.granule_meta(Addr(0)).is_some());
        assert!(d.granule_meta(Addr(0x1000)).is_none());
    }

    #[test]
    fn flash_cursor_narrows_exactly_up_to_32_bits() {
        assert_eq!(cursor32(0), 0);
        assert_eq!(cursor32(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "a trace may hold at most 4294967294 events")]
    fn flash_cursor_past_32_bits_panics_naming_the_bound() {
        let _ = cursor32(u32::MAX as usize + 1);
    }
}
