//! The HARD-disabled reference machine for overhead measurements.
//!
//! Figure 8 reports HARD's execution-time overhead "as percentages of
//! the original execution time without HARD". This machine is that
//! original: the identical CMP and timing model, with no metadata, no
//! candidate checks, no lock-register updates and no broadcasts. Both
//! machines consume the same deterministic trace, so the cycle delta is
//! attributable purely to HARD.

use crate::cmp::Cmp;
use crate::config::HardConfig;
use hard_cache::{BusTimeline, Hierarchy, MemStats};
use hard_trace::{Op, TraceEvent};
use hard_types::{AccessKind, Addr, CoreId, Cycles};

/// The baseline (no-detection) machine.
#[derive(Debug)]
pub struct BaselineMachine {
    cfg: HardConfig,
    hierarchy: Hierarchy<hard_cache::policy::NullFactory>,
    cmp: Cmp,
}

impl BaselineMachine {
    /// A fresh baseline machine with the same shape and latencies as
    /// the HARD machine it is compared against.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid; use
    /// [`BaselineMachine::try_new`] to handle that as an error.
    #[must_use]
    pub fn new(cfg: HardConfig) -> BaselineMachine {
        Self::try_new(cfg).expect("HardConfig must describe a valid machine")
    }

    /// A fresh baseline machine, or the configuration error that
    /// prevents one.
    ///
    /// # Errors
    ///
    /// Returns [`hard_types::HardError::InvalidConfig`] for invalid
    /// cache shapes.
    pub fn try_new(cfg: HardConfig) -> Result<BaselineMachine, hard_types::HardError> {
        Ok(BaselineMachine {
            hierarchy: Hierarchy::new(cfg.hierarchy, hard_cache::policy::NullFactory)?,
            cmp: Cmp::new(cfg.hierarchy.num_cores, cfg.latency),
            cfg,
        })
    }

    /// Memory-system statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        self.hierarchy.stats()
    }

    /// Execution time so far: the maximum core clock.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.cmp.total_cycles()
    }

    /// The shared-bus timeline.
    #[must_use]
    pub fn bus(&self) -> &BusTimeline {
        self.cmp.bus()
    }

    fn timed_ensure(&mut self, core: CoreId, addr: Addr, kind: AccessKind) {
        let Ok(r) = self.hierarchy.ensure(core, addr, kind) else {
            // This machine injects no faults, so a coherence error is a
            // simulator bug; skip the access rather than unwind.
            debug_assert!(false, "coherence invariant broken on a fault-free machine");
            return;
        };
        self.cmp.charge(core, &r, false);
    }

    /// Consumes one trace event, advancing the clocks.
    pub fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Op { thread, op } => {
                let core = self.cmp.core_of(thread);
                match op {
                    Op::Read { addr, size, .. } | Op::Write { addr, size, .. } => {
                        let kind = if matches!(op, Op::Write { .. }) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let geom = self.cfg.hierarchy.l1;
                        for line in geom.lines_in(addr, u64::from(size)) {
                            self.timed_ensure(core, line, kind);
                        }
                    }
                    Op::Lock { lock, .. } | Op::Unlock { lock, .. } => {
                        self.timed_ensure(core, lock.addr(), AccessKind::Write);
                        self.cmp.advance(core, self.cfg.latency.sync_op);
                    }
                    Op::Barrier { .. } | Op::Fork { .. } | Op::Join { .. } => {
                        self.cmp.advance(core, self.cfg.latency.sync_op);
                    }
                    Op::Compute { cycles } => self.cmp.advance(core, u64::from(cycles)),
                }
            }
            TraceEvent::BarrierComplete { .. } => self.cmp.barrier(),
        }
    }

    /// Runs a whole trace and returns the total execution time.
    pub fn run(&mut self, trace: &hard_trace::Trace) -> Cycles {
        for e in &trace.events {
            self.on_event(e);
        }
        self.total_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::HardMachine;
    use hard_trace::{run_detector, ProgramBuilder, SchedConfig, Scheduler};
    use hard_types::{LockId, SiteId};

    #[test]
    fn baseline_and_hard_have_identical_cache_behaviour() {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            let tp = b.thread(t);
            for i in 0..50u64 {
                tp.lock(LockId(0x40), SiteId(1000 + t * 100 + i as u32))
                    .write(Addr(0x1000 + (i % 8) * 32), 4, SiteId(i as u32))
                    .unlock(LockId(0x40), SiteId(2000 + t * 100 + i as u32))
                    .compute(10);
            }
        }
        let trace = Scheduler::new(SchedConfig::default()).run(&b.build());

        let mut base = BaselineMachine::new(HardConfig::default());
        let base_cycles = base.run(&trace);

        let mut hard = HardMachine::new(HardConfig::default());
        run_detector(&mut hard, &trace);
        let hard_cycles = hard.total_cycles();

        // Same residency behaviour...
        assert_eq!(base.stats().l1_hits, hard.stats().l1_hits);
        assert_eq!(base.stats().l2_misses, hard.stats().l2_misses);
        // ...but HARD costs at least the lock-register updates.
        assert!(hard_cycles.0 >= base_cycles.0);
        let overhead = (hard_cycles.0 - base_cycles.0) as f64 / base_cycles.0 as f64;
        assert!(
            overhead < 0.10,
            "HARD overhead should be small, got {:.1}%",
            overhead * 100.0
        );
    }
}
