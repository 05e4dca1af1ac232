//! The simulated CMP every machine in this crate runs on.
//!
//! The paper compares HARD against "the original execution time without
//! HARD" (Figure 8), snoopy against directory metadata (§3.4), and
//! lockset against happens-before on identical executions (§5). Those
//! comparisons mean something only on one substrate, so the machines
//! share it:
//!
//! * [`Cmp`] — per-core cycle clocks, the thread-to-core mapping with
//!   its context-switch charge, and the shared-bus charge of every
//!   coherence access (HARD, directory HARD, baseline);
//! * [`Windowed`] + [`dispatch_window`] — the batched dispatch of one
//!   event window (HARD, directory HARD, hardware happens-before);
//! * [`ReportLog`] — race reports, deduplicated per (granule, site)
//!   (the three detecting machines).

use hard_cache::{BusTimeline, CacheGeometry, EnsureResult, LatencyModel, ServedBy};
use hard_obs::{CounterId, Event, ObsHandle};
use hard_trace::{Detector, Op, RaceReport, TraceEvent};
use hard_types::{AccessKind, Addr, CoreId, Cycles, FastHashSet, Granularity, SiteId, ThreadId};

/// Threads map to cores round-robin: the paper's one-thread-per-core
/// pinning while threads fit, core sharing beyond that.
pub(crate) fn pin(thread: ThreadId, num_cores: usize) -> CoreId {
    CoreId(thread.0 % num_cores as u32)
}

/// Per-core clocks and the shared snoopy bus.
#[derive(Debug)]
pub(crate) struct Cmp {
    /// The thread currently occupying each core, for context-switch
    /// accounting.
    running: Vec<Option<ThreadId>>,
    core_time: Vec<u64>,
    bus: BusTimeline,
    latency: LatencyModel,
}

impl Cmp {
    pub(crate) fn new(num_cores: usize, latency: LatencyModel) -> Cmp {
        Cmp {
            running: vec![None; num_cores],
            core_time: vec![0; num_cores],
            bus: BusTimeline::new(),
            latency,
        }
    }

    /// The core `thread` runs on, charging a context switch whenever
    /// the core's occupant changes.
    #[inline]
    pub(crate) fn core_of(&mut self, thread: ThreadId) -> CoreId {
        let core = pin(thread, self.running.len());
        let slot = &mut self.running[core.index()];
        if *slot != Some(thread) {
            if slot.is_some() {
                self.core_time[core.index()] += self.latency.context_switch;
            }
            *slot = Some(thread);
        }
        core
    }

    /// Charges one coherence access to `core`: bus occupancy, then the
    /// service latency. With `detect`, every data transfer also carries
    /// the 18 metadata bits (§3.4), and a non-L1-hit access pays the
    /// candidate check — on an L1 hit it overlaps the access entirely;
    /// on a miss the metadata arrives with the line and the AND+test
    /// tacks on.
    #[inline]
    pub(crate) fn charge(&mut self, core: CoreId, r: &EnsureResult, detect: bool) {
        let lat = &self.latency;
        let c = core.index();
        let piggyback = if detect && r.bus_data > 0 {
            lat.meta_piggyback_occupancy
        } else {
            0
        };
        let occ = lat.bus_occupancy(r) + piggyback;
        // Most accesses are L1 hits with no bus traffic: skip the call.
        let start = if occ > 0 {
            self.bus.acquire(self.core_time[c], occ)
        } else {
            self.core_time[c]
        };
        let mut t = start + lat.service_latency(r) + piggyback;
        if detect && r.served_by != ServedBy::L1 {
            t += lat.candidate_check;
        }
        self.core_time[c] = t;
    }

    /// Posted bus traffic (metadata broadcasts, directory round trips):
    /// it occupies the bus, delaying later transactions, without
    /// stalling `core`.
    #[inline]
    pub(crate) fn post(&mut self, core: CoreId, occupancy: u64) {
        self.bus.acquire(self.core_time[core.index()], occupancy);
    }

    /// Advances `core`'s clock by `cycles`.
    #[inline]
    pub(crate) fn advance(&mut self, core: CoreId, cycles: u64) {
        self.core_time[core.index()] += cycles;
    }

    /// All cores leave a barrier together, at the slowest core's time.
    pub(crate) fn barrier(&mut self) {
        let max = self.total_cycles().0;
        self.core_time.fill(max);
    }

    /// Execution time so far: the maximum core clock.
    pub(crate) fn total_cycles(&self) -> Cycles {
        Cycles(self.core_time.iter().copied().max().unwrap_or(0))
    }

    pub(crate) fn bus(&self) -> &BusTimeline {
        &self.bus
    }
}

/// One memory access of the trace.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Access {
    pub(crate) thread: ThreadId,
    pub(crate) addr: Addr,
    pub(crate) size: u8,
    pub(crate) kind: AccessKind,
    pub(crate) site: SiteId,
}

impl Access {
    /// The access `event` performs, if it is a read or a write.
    #[inline]
    pub(crate) fn of(event: &TraceEvent) -> Option<Access> {
        let TraceEvent::Op { thread, op } = *event else {
            return None;
        };
        let (addr, size, kind, site) = match op {
            Op::Read { addr, size, site } => (addr, size, AccessKind::Read, site),
            Op::Write { addr, size, site } => (addr, size, AccessKind::Write, site),
            _ => return None,
        };
        Some(Access {
            thread,
            addr,
            size,
            kind,
            site,
        })
    }

    /// One past the last byte accessed.
    #[inline]
    pub(crate) fn end(&self) -> u64 {
        self.addr.0 + u64::from(self.size)
    }

    /// The part of the access inside `line` (of `line_bytes` bytes), as
    /// a start address and length: the whole access when it lies in
    /// one line.
    #[inline]
    pub(crate) fn clip(&self, line: Addr, line_bytes: u64) -> (Addr, u64) {
        let lo = self.addr.0.max(line.0);
        let hi = self.end().min(line.0 + line_bytes);
        (Addr(lo), hi - lo)
    }
}

/// A machine whose [`Detector::on_batch`] is [`dispatch_window`].
pub(crate) trait Windowed: Detector {
    /// The L1 geometry accesses are split into lines with.
    fn l1(&self) -> CacheGeometry;
    /// The pre-pass scratch, kept on the machine so it is allocated
    /// once, not per window.
    fn window(&mut self) -> &mut Vec<Option<(Addr, usize)>>;
    /// The scalar access path: the reference behavior, walking every
    /// line the access overlaps.
    fn access(&mut self, index: usize, a: Access);
    /// The access path for an access inside one line whose `(line,
    /// set)` the pre-pass computed; bit-identical to [`Self::access`].
    fn access_prepared(&mut self, index: usize, a: Access, line: Addr, set: usize);
    /// Folds hierarchy statistics deferred during the window.
    fn flush_deferred_stats(&mut self);
}

/// Dispatches one window of events whose first global index is
/// `index`. A pre-pass hoists the L1 line/set arithmetic of every
/// single-line access (the overwhelmingly common case) out of the
/// dispatch loop; single-line accesses take the prepared path,
/// line-straddling ones the scalar walk, every other event
/// [`Detector::on_event`]. The deferred statistics are folded once at
/// the end, so the window is bit-identical to per-event dispatch.
pub(crate) fn dispatch_window<M: Windowed>(m: &mut M, index: usize, events: &[TraceEvent]) {
    let geom = m.l1();
    let line_bytes = geom.line_bytes();
    let mut prep = std::mem::take(m.window());
    prep.clear();
    prep.extend(events.iter().map(|e| {
        let a = Access::of(e)?;
        let (line, set) = geom.line_and_set(a.addr);
        (a.end() <= line.0 + line_bytes).then_some((line, set))
    }));
    for (i, (e, p)) in events.iter().zip(&prep).enumerate() {
        match (Access::of(e), *p) {
            (Some(a), Some((line, set))) => m.access_prepared(index + i, a, line, set),
            (Some(a), None) => m.access(index + i, a),
            (None, _) => m.on_event(index + i, e),
        }
    }
    *m.window() = prep;
    m.flush_deferred_stats();
}

/// Race reports, one per (granule, site).
#[derive(Debug)]
pub(crate) struct ReportLog {
    reports: Vec<RaceReport>,
    seen: FastHashSet<(Addr, SiteId)>,
    gshift: u32,
}

impl ReportLog {
    /// An empty log for metadata of granularity `gran`.
    pub(crate) fn new(gran: Granularity) -> ReportLog {
        ReportLog {
            reports: Vec::new(),
            seen: FastHashSet::default(),
            gshift: gran.shift(),
        }
    }

    /// Reports access `a` (event `index`) once for every granule of
    /// `line` set in `racy` (bit `i` is granule `i`) that has no report
    /// at `a`'s site yet. Returns the number of new reports.
    #[inline]
    pub(crate) fn record(&mut self, index: usize, a: &Access, line: Addr, mut racy: u64) -> u64 {
        let mut new = 0;
        while racy != 0 {
            let gi = racy.trailing_zeros();
            racy &= racy - 1;
            let granule = Addr(line.0 + (u64::from(gi) << self.gshift));
            if self.seen.insert((granule, a.site)) {
                self.reports.push(RaceReport {
                    addr: a.addr,
                    size: a.size,
                    site: a.site,
                    thread: a.thread,
                    kind: a.kind,
                    event_index: index,
                });
                new += 1;
            }
        }
        new
    }

    /// [`ReportLog::record`], counting each new report under `counter`
    /// and emitting a race event for it.
    #[inline]
    pub(crate) fn record_observed(
        &mut self,
        obs: &ObsHandle,
        counter: CounterId,
        index: usize,
        a: &Access,
        line: Addr,
        racy: u64,
    ) {
        for _ in 0..self.record(index, a, line, racy) {
            obs.counter(counter, 1);
            obs.emit(|| Event::Race {
                addr: a.addr.0,
                site: a.site.0,
                thread: a.thread.0,
            });
        }
    }

    pub(crate) fn reports(&self) -> &[RaceReport] {
        &self.reports
    }
}

/// The mixed workload every machine's batch-parity test replays: four
/// threads, 200 accesses each of sizes 1..16 (some straddle granules, a
/// few straddle the 32-byte line), locks, compute and a barrier, long
/// enough to cross several window boundaries.
#[cfg(test)]
pub(crate) fn mixed_workload() -> hard_trace::Trace {
    use hard_trace::{ProgramBuilder, SchedConfig, Scheduler};
    use hard_types::{BarrierId, LockId};
    let mut b = ProgramBuilder::new(4);
    for t in 0..4u32 {
        let tp = b.thread(t);
        for i in 0..200u64 {
            let a = 0x1000 + (i % 24) * 12 + u64::from(t % 2) * 8;
            let site = SiteId(t * 10_000 + i as u32);
            let size = (1 + (i % 16)) as u8;
            if i % 3 == 0 {
                tp.lock(LockId(0x40), site).write(Addr(a), size, SiteId(7));
                tp.unlock(LockId(0x40), SiteId(t * 10_000 + 5000 + i as u32));
            } else if i % 3 == 1 {
                tp.write(Addr(a), size, SiteId(8 + (i % 5) as u32));
            } else {
                tp.read(Addr(a), size, SiteId(20)).compute(2);
            }
        }
        tp.barrier(BarrierId(1), SiteId(99_000 + t));
    }
    Scheduler::new(SchedConfig {
        seed: 7,
        max_quantum: 4,
    })
    .run(&b.build())
}
