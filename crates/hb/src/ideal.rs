//! The ideal happens-before detector (paper §4): variable granularity,
//! unbounded metadata store, full vector clocks.

use crate::meta::{hb_access, LineClocks};
use crate::sync::SyncClocks;
use hard_trace::{Detector, Op, RaceReport, TraceEvent};
use hard_types::{
    reserve_early, AccessKind, Addr, FastHashSet, Granularity, PlacementHashMap, SiteId, ThreadId,
};

/// Configuration of the ideal happens-before detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdealHbConfig {
    /// Number of threads (the vector-clock width).
    pub num_threads: usize,
    /// Monitoring granularity; the ideal setup uses 4 bytes.
    pub granularity: Granularity,
}

impl IdealHbConfig {
    /// The paper's ideal configuration for `num_threads` threads.
    #[must_use]
    pub fn new(num_threads: usize) -> IdealHbConfig {
        IdealHbConfig {
            num_threads,
            granularity: Granularity::new(4),
        }
    }
}

/// The ideal happens-before detector. See the [module docs](self).
#[derive(Debug)]
pub struct IdealHappensBefore {
    cfg: IdealHbConfig,
    sync: SyncClocks,
    granules: PlacementHashMap<Addr, LineClocks>,
    reports: Vec<RaceReport>,
    reported: FastHashSet<(Addr, SiteId)>,
}

impl IdealHappensBefore {
    /// A fresh detector.
    #[must_use]
    pub fn new(cfg: IdealHbConfig) -> IdealHappensBefore {
        IdealHappensBefore {
            cfg,
            sync: SyncClocks::new(cfg.num_threads),
            // Sized for the largest reduced-scale workloads (~100k live
            // granules): growing from empty would re-hash the whole
            // table ~15 times. Placement hashing keeps each region's
            // granules in consecutive buckets, so only the pages under
            // the touched runs (plus the control bytes) become
            // resident; a wide footprint still touches most of the
            // 2^18 buckets of 40 B (10 MiB).
            granules: PlacementHashMap::with_capacity_and_hasher(1 << 17, Default::default()),
            reports: Vec::new(),
            reported: FastHashSet::default(),
        }
    }

    /// The detector's configuration.
    #[must_use]
    pub fn config(&self) -> IdealHbConfig {
        self.cfg
    }

    /// Number of granules with live metadata.
    #[must_use]
    pub fn tracked_granules(&self) -> usize {
        self.granules.len()
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
        let gran = self.cfg.granularity;
        let n = self.cfg.num_threads;
        // Field-disjoint borrows: the clock is read from `sync` while
        // the granule table is updated — no per-access clock clone.
        let clock = self.sync.thread(thread);
        reserve_early(&mut self.granules);
        for g in gran.granules_in(addr, u64::from(size)) {
            let meta = self.granules.entry(g).or_insert_with(|| LineClocks::new(n));
            let out = hb_access(meta, thread, clock, kind);
            if out.is_race() && self.reported.insert((g, site)) {
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

impl Detector for IdealHappensBefore {
    fn name(&self) -> &str {
        "happens-before-ideal"
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
                Op::Lock { lock, .. } => self.sync.acquire(thread, lock),
                Op::Unlock { lock, .. } => self.sync.release(thread, lock),
                Op::Fork { child, .. } => self.sync.fork(thread, child),
                Op::Join { child, .. } => self.sync.join_thread(thread, child),
                Op::Barrier { .. } | Op::Compute { .. } => {}
            },
            TraceEvent::BarrierComplete { .. } => self.sync.barrier_all(),
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

    fn detect(trace: &Trace) -> Vec<RaceReport> {
        let mut d = IdealHappensBefore::new(IdealHbConfig::new(trace.num_threads));
        run_detector(&mut d, trace)
    }

    #[test]
    fn locked_accesses_are_ordered_and_clean() {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            let tp = b.thread(t);
            for i in 0..5u32 {
                tp.lock(LockId(0x40), SiteId(t * 100 + i))
                    .write(Addr(0x1000), 4, SiteId(t * 100 + 50 + i))
                    .unlock(LockId(0x40), SiteId(t * 100 + 80 + i));
            }
        }
        for seed in 0..8 {
            let trace = run(&b.clone().build(), seed);
            assert!(detect(&trace).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn unlocked_concurrent_writes_race() {
        let x = Addr(0x2000);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(x, 4, SiteId(1));
        b.thread(1).write(x, 4, SiteId(2));
        let trace = run(&b.build(), 0);
        let r = detect(&trace);
        assert!(r.iter().any(|r| r.overlaps(x, Addr(x.0 + 4))));
    }

    #[test]
    fn barrier_separated_accesses_are_clean() {
        let a = Addr(0x500);
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .write(a, 4, SiteId(1))
            .barrier(BarrierId(0), SiteId(2));
        b.thread(1)
            .barrier(BarrierId(0), SiteId(3))
            .write(a, 4, SiteId(4));
        for seed in 0..8 {
            let trace = run(&b.clone().build(), seed);
            assert!(detect(&trace).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn figure1_race_missed_when_lock_orders_the_interleaving() {
        // Figure 1: accesses to x are unprotected, but in interleavings
        // where t0's critical section on the y-lock completes before
        // t1's, the release->acquire edge orders the x accesses and
        // happens-before stays silent. In the opposite order (t1's
        // section first, t1's x-write last) the x accesses are
        // unordered and it reports. Both behaviours must occur across
        // seeds — that is exactly the interleaving sensitivity the
        // paper demonstrates.
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
        let mut missed = 0;
        let mut caught = 0;
        for seed in 0..64 {
            let trace = run(&p, seed);
            let racy_on_x = detect(&trace).iter().any(|r| r.overlaps(x, Addr(x.0 + 4)));
            if racy_on_x {
                caught += 1;
            } else {
                missed += 1;
            }
        }
        assert!(missed > 0, "some interleavings must hide the race from HB");
        assert!(caught > 0, "some interleavings must expose the race to HB");
    }

    #[test]
    fn read_only_sharing_is_clean() {
        let a = Addr(0x100);
        let mut b = ProgramBuilder::new(3);
        b.thread(0)
            .write(a, 4, SiteId(0))
            .barrier(BarrierId(0), SiteId(1))
            .read(a, 4, SiteId(2));
        b.thread(1)
            .barrier(BarrierId(0), SiteId(3))
            .read(a, 4, SiteId(4));
        b.thread(2)
            .barrier(BarrierId(0), SiteId(5))
            .read(a, 4, SiteId(6));
        let trace = run(&b.build(), 7);
        assert!(detect(&trace).is_empty());
    }

    #[test]
    fn hand_crafted_flag_sync_is_invisible_and_reported() {
        // Flag-based signalling: t0 writes data then sets a flag; t1
        // spins on the flag then reads data. Real programs are ordered,
        // but happens-before sees no sync edge and reports — one of the
        // paper's residual false-alarm sources for BOTH algorithms.
        let data = Addr(0x700);
        let flag = Addr(0x800);
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .write(data, 4, SiteId(1))
            .write(flag, 4, SiteId(2));
        b.thread(1)
            .read(flag, 4, SiteId(3))
            .read(data, 4, SiteId(4));
        // Pick an interleaving where t1 truly runs after t0.
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        let trace = Trace {
            events: vec![
                TraceEvent::Op {
                    thread: t0,
                    op: Op::Write {
                        addr: data,
                        size: 4,
                        site: SiteId(1),
                    },
                },
                TraceEvent::Op {
                    thread: t0,
                    op: Op::Write {
                        addr: flag,
                        size: 4,
                        site: SiteId(2),
                    },
                },
                TraceEvent::Op {
                    thread: t1,
                    op: Op::Read {
                        addr: flag,
                        size: 4,
                        site: SiteId(3),
                    },
                },
                TraceEvent::Op {
                    thread: t1,
                    op: Op::Read {
                        addr: data,
                        size: 4,
                        site: SiteId(4),
                    },
                },
            ],
            num_threads: 2,
        };
        let r = detect(&trace);
        assert!(
            r.iter().any(|r| r.overlaps(data, Addr(data.0 + 4))),
            "flag sync is invisible to happens-before"
        );
    }

    #[test]
    fn granularity_merges_distinct_variables() {
        // Two independent single-writer variables in one 32-byte line:
        // clean at 4 B, false alarm at 32 B.
        let v1 = Addr(0x1000);
        let v2 = Addr(0x1004);
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(v1, 4, SiteId(1)).write(v1, 4, SiteId(2));
        b.thread(1).write(v2, 4, SiteId(3)).write(v2, 4, SiteId(4));
        let trace = run(&b.build(), 3);
        let fine = detect(&trace);
        assert!(fine.is_empty());
        let mut coarse = IdealHappensBefore::new(IdealHbConfig {
            num_threads: 2,
            granularity: Granularity::new(32),
        });
        let rc = run_detector(&mut coarse, &trace);
        assert!(!rc.is_empty(), "false sharing at 32B granularity");
    }
}
