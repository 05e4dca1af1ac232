//! The globally ordered event stream a scheduler run produces.

use crate::op::Op;
use hard_types::{BarrierId, LockId, ThreadId};
use std::collections::HashMap;
use std::fmt;

/// One event of the global interleaving.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// Thread `thread` performed `op`. For [`Op::Lock`] this is the
    /// moment the acquire *succeeded*; blocking time is not an event.
    Op {
        /// The issuing thread.
        thread: ThreadId,
        /// The operation it performed.
        op: Op,
    },
    /// All threads have arrived at `barrier`; the barrier opens. HARD's
    /// barrier pruning (§3.5) flash-resets candidate sets at this point.
    BarrierComplete {
        /// The barrier that opened.
        barrier: BarrierId,
    },
}

impl TraceEvent {
    /// The issuing thread, if the event belongs to one.
    #[must_use]
    pub fn thread(&self) -> Option<ThreadId> {
        match *self {
            TraceEvent::Op { thread, .. } => Some(thread),
            TraceEvent::BarrierComplete { .. } => None,
        }
    }

    /// The program operation, if the event carries one.
    #[must_use]
    pub fn op(&self) -> Option<&Op> {
        match self {
            TraceEvent::Op { op, .. } => Some(op),
            TraceEvent::BarrierComplete { .. } => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Op { thread, op } => write!(f, "{thread}: {op}"),
            TraceEvent::BarrierComplete { barrier } => write!(f, "-- {barrier} complete --"),
        }
    }
}

/// A complete interleaved execution.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    /// The events in global order.
    pub events: Vec<TraceEvent>,
    /// Number of threads in the program that produced the trace.
    pub num_threads: usize,
}

impl Trace {
    /// Iterates over only the per-thread operations (skipping barrier
    /// completion markers).
    pub fn ops(&self) -> impl Iterator<Item = (ThreadId, &Op)> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Op { thread, op } => Some((*thread, op)),
            TraceEvent::BarrierComplete { .. } => None,
        })
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks that the event stream is a plausible execution by
    /// folding a [`Validator`] over it.
    ///
    /// Returns `event {index}: {cause}` for the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut v = Validator::new(self.num_threads);
        for (i, e) in self.events.iter().enumerate() {
            v.check(e).map_err(|cause| format!("event {i}: {cause}"))?;
        }
        Ok(())
    }
}

/// Per-thread state of a [`Validator`].
#[derive(Clone, Copy, Default, Debug)]
struct ThreadState {
    /// The thread has issued an event.
    acted: bool,
    /// Some thread has forked it.
    forked: bool,
}

/// The most events a trace may hold: `u32::MAX - 1`.
///
/// Happens-before thread clocks start at epoch 1, and an event
/// advances any clock component at most once (a release or fork ticks
/// its thread, a barrier completion ticks every thread once). So after
/// this many events every epoch still fits the 32 bits the detectors'
/// per-granule records store. The [`Validator`] rejects the event that
/// would pass the bound.
pub const MAX_TRACE_EVENTS: u64 = u32::MAX as u64 - 1;

/// The one well-formedness check for event streams, folded one event
/// at a time so a byte stream can be checked as it arrives.
///
/// An event is rejected when it names a thread, fork child or join
/// child outside `num_threads`; accesses bytes whose end address does
/// not fit in a `u64`; acquires a lock some thread holds;
/// releases a lock its thread does not hold; forks a thread that was
/// already forked; forks a thread that has already acted (the early
/// action is caught at the later fork); or would make the stream
/// longer than [`MAX_TRACE_EVENTS`]. Every scheduler trace passes; a
/// stream that fails leaves HARD's per-thread lock register describing
/// no real execution, so detectors' reports on it would be
/// meaningless.
///
/// The state is the owner of each held lock, two flags per thread and
/// an event count. After construction the check allocates only when
/// the number of simultaneously held locks reaches a new peak.
#[derive(Debug)]
pub struct Validator {
    /// Keyed by lock ids from uploaded streams, so it keeps the
    /// default, collision-resistant hasher.
    owners: HashMap<LockId, ThreadId>,
    threads: Vec<ThreadState>,
    /// Events checked so far.
    events: u64,
}

impl Validator {
    /// A validator for a stream of `num_threads` threads.
    #[must_use]
    pub fn new(num_threads: usize) -> Validator {
        Validator {
            owners: HashMap::new(),
            threads: vec![ThreadState::default(); num_threads],
            events: 0,
        }
    }

    /// Folds in the next event.
    ///
    /// # Errors
    ///
    /// Describes why `e` cannot follow the events checked before it.
    /// The validator state is then spent; callers stop.
    pub fn check(&mut self, e: &TraceEvent) -> Result<(), String> {
        if self.events == MAX_TRACE_EVENTS {
            return Err(format!(
                "trace passes the {MAX_TRACE_EVENTS}-event bound of 32-bit epochs"
            ));
        }
        self.events += 1;
        let TraceEvent::Op { thread, op } = *e else {
            return Ok(());
        };
        let n = self.threads.len();
        let child = match op {
            Op::Fork { child, .. } | Op::Join { child, .. } => Some(child),
            _ => None,
        };
        if let Some(t) = std::iter::once(thread)
            .chain(child)
            .find(|t| t.index() >= n)
        {
            return Err(format!("{t} out of range for {n} threads"));
        }
        self.threads[thread.index()].acted = true;
        match op {
            Op::Read { addr, size, .. } | Op::Write { addr, size, .. }
                if addr.0.checked_add(u64::from(size)).is_none() =>
            {
                return Err(format!(
                    "{thread} access of {size} bytes at {addr} runs past the top of the address space"
                ));
            }
            Op::Lock { lock, .. } => {
                if let Some(owner) = self.owners.insert(lock, thread) {
                    return Err(format!("{thread} acquires {lock} held by {owner}"));
                }
            }
            // Race injection removes lock/unlock *pairs*, so even
            // injected traces never release an unheld lock.
            Op::Unlock { lock, .. } => match self.owners.remove(&lock) {
                Some(owner) if owner == thread => {}
                Some(owner) => return Err(format!("{thread} releases {lock} held by {owner}")),
                None => return Err(format!("{thread} releases unheld {lock}")),
            },
            Op::Fork { child, .. } => {
                let c = &mut self.threads[child.index()];
                if c.forked {
                    return Err(format!("{child} forked twice"));
                }
                if c.acted {
                    return Err(format!("{child} acts before its fork"));
                }
                c.forked = true;
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_types::{Addr, SiteId};

    #[test]
    fn accessors() {
        let e = TraceEvent::Op {
            thread: ThreadId(1),
            op: Op::Read {
                addr: Addr(4),
                size: 4,
                site: SiteId(0),
            },
        };
        assert_eq!(e.thread(), Some(ThreadId(1)));
        assert!(e.op().is_some());
        let b = TraceEvent::BarrierComplete {
            barrier: BarrierId(0),
        };
        assert_eq!(b.thread(), None);
        assert!(b.op().is_none());
    }

    #[test]
    fn validate_accepts_scheduled_traces() {
        use crate::program::ProgramBuilder;
        use crate::sched::{SchedConfig, Scheduler};
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            b.thread(t)
                .lock(LockId(0x40), SiteId(t))
                .write(Addr(0x100), 4, SiteId(10 + t))
                .unlock(LockId(0x40), SiteId(20 + t));
        }
        let trace = Scheduler::new(SchedConfig::default()).run(&b.build());
        assert_eq!(trace.validate(), Ok(()));
    }

    /// A trace of `num_threads` threads over `(thread, op)` pairs.
    fn ops_trace(num_threads: usize, ops: &[(u32, Op)]) -> Trace {
        Trace {
            events: ops
                .iter()
                .map(|&(t, op)| TraceEvent::Op {
                    thread: ThreadId(t),
                    op,
                })
                .collect(),
            num_threads,
        }
    }

    #[test]
    fn validate_names_each_violation_at_its_event() {
        let (lock, site) = (LockId(0x40), SiteId(0));
        let (acquire, release) = (Op::Lock { lock, site }, Op::Unlock { lock, site });
        let compute = Op::Compute { cycles: 1 };
        let fork = |c| Op::Fork {
            child: ThreadId(c),
            site,
        };
        let join = Op::Join {
            child: ThreadId(2),
            site,
        };
        let top = |addr, size| Op::Write {
            addr: Addr(addr),
            size,
            site,
        };
        let cases: [(&[(u32, Op)], &str); 12] = [
            (&[(7, compute)], "event 0: t7 out of range for 2 threads"),
            (&[(0, fork(2))], "event 0: t2 out of range for 2 threads"),
            (&[(0, join)], "event 0: t2 out of range for 2 threads"),
            (
                &[(0, acquire), (1, acquire)],
                "event 1: t1 acquires lock@0x40 held by t0",
            ),
            (
                &[(0, acquire), (0, acquire)],
                "event 1: t0 acquires lock@0x40 held by t0",
            ),
            (
                &[(0, acquire), (1, release)],
                "event 1: t1 releases lock@0x40 held by t0",
            ),
            (&[(1, release)], "event 0: t1 releases unheld lock@0x40"),
            (&[(0, fork(1)), (0, fork(1))], "event 1: t1 forked twice"),
            // An early action is caught at the later fork; so is a
            // thread forking itself.
            (
                &[(1, compute), (0, fork(1))],
                "event 1: t1 acts before its fork",
            ),
            (&[(0, fork(0))], "event 0: t0 acts before its fork"),
            (
                &[(0, top(u64::MAX - 4, 4)), (1, top(u64::MAX - 1, 4))],
                "event 1: t1 access of 4 bytes at 0xfffffffffffffffe runs past the top of the address space",
            ),
            (
                &[(1, top(u64::MAX, 1))],
                "event 0: t1 access of 1 bytes at 0xffffffffffffffff runs past the top of the address space",
            ),
        ];
        for (ops, want) in cases {
            assert_eq!(ops_trace(2, ops).validate(), Err(want.to_string()));
        }
    }

    /// The epoch bound, checked from just below it: the last event
    /// that fits passes, the next is rejected, barrier markers count.
    #[test]
    fn validator_rejects_the_event_past_the_epoch_bound() {
        let mut v = Validator::new(1);
        v.events = MAX_TRACE_EVENTS - 2;
        let compute = TraceEvent::Op {
            thread: ThreadId(0),
            op: Op::Compute { cycles: 1 },
        };
        let marker = TraceEvent::BarrierComplete {
            barrier: BarrierId(0),
        };
        assert_eq!(v.check(&compute), Ok(()));
        assert_eq!(v.check(&marker), Ok(()));
        assert_eq!(v.events, MAX_TRACE_EVENTS);
        assert_eq!(
            v.check(&compute),
            Err("trace passes the 4294967294-event bound of 32-bit epochs".to_string())
        );
    }

    /// An access may end exactly at the top of the address space, and
    /// a read is bounded like a write.
    #[test]
    fn accesses_must_end_inside_the_address_space() {
        let access = |read: bool, addr: u64, size: u8| TraceEvent::Op {
            thread: ThreadId(0),
            op: if read {
                Op::Read {
                    addr: Addr(addr),
                    size,
                    site: SiteId(0),
                }
            } else {
                Op::Write {
                    addr: Addr(addr),
                    size,
                    site: SiteId(0),
                }
            },
        };
        for read in [false, true] {
            let mut v = Validator::new(1);
            assert_eq!(v.check(&access(read, u64::MAX - 4, 4)), Ok(()));
            assert_eq!(v.check(&access(read, u64::MAX, 0)), Ok(()));
            let err = v.check(&access(read, u64::MAX - 2, 4)).unwrap_err();
            assert!(
                err.ends_with("runs past the top of the address space"),
                "{err}"
            );
        }
    }

    #[test]
    fn ops_iterator_skips_barrier_markers() {
        let t = Trace {
            events: vec![
                TraceEvent::Op {
                    thread: ThreadId(0),
                    op: Op::Compute { cycles: 1 },
                },
                TraceEvent::BarrierComplete {
                    barrier: BarrierId(0),
                },
                TraceEvent::Op {
                    thread: ThreadId(1),
                    op: Op::Compute { cycles: 2 },
                },
            ],
            num_threads: 2,
        };
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.ops().count(), 2);
    }
}
