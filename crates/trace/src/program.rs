//! Per-thread programs and the whole-program container.

use crate::op::Op;
use hard_types::{Addr, BarrierId, LockId, SiteId, ThreadId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The operation list of one simulated thread.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ThreadProgram {
    ops: Vec<Op>,
}

impl ThreadProgram {
    /// An empty thread program.
    #[must_use]
    pub fn new() -> ThreadProgram {
        ThreadProgram::default()
    }

    /// The operations in program order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the thread performs no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends a raw operation.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends a read.
    pub fn read(&mut self, addr: Addr, size: u8, site: SiteId) -> &mut Self {
        self.push(Op::Read { addr, size, site })
    }

    /// Appends a write.
    pub fn write(&mut self, addr: Addr, size: u8, site: SiteId) -> &mut Self {
        self.push(Op::Write { addr, size, site })
    }

    /// Appends a lock acquire.
    pub fn lock(&mut self, lock: LockId, site: SiteId) -> &mut Self {
        self.push(Op::Lock { lock, site })
    }

    /// Appends a lock release.
    pub fn unlock(&mut self, lock: LockId, site: SiteId) -> &mut Self {
        self.push(Op::Unlock { lock, site })
    }

    /// Appends a barrier arrival.
    pub fn barrier(&mut self, barrier: BarrierId, site: SiteId) -> &mut Self {
        self.push(Op::Barrier { barrier, site })
    }

    /// Appends a fork of `child`.
    pub fn fork(&mut self, child: ThreadId, site: SiteId) -> &mut Self {
        self.push(Op::Fork { child, site })
    }

    /// Appends a join on `child`.
    pub fn join(&mut self, child: ThreadId, site: SiteId) -> &mut Self {
        self.push(Op::Join { child, site })
    }

    /// Appends private computation.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.push(Op::Compute { cycles })
    }

    /// Removes the operation at `index`, returning it. Used by the race
    /// injector to omit a dynamic lock/unlock instance.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> Op {
        self.ops.remove(index)
    }

    /// Replaces the operation at `index`, returning the old one. Used
    /// by the wrong-lock injector.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn replace(&mut self, index: usize, op: Op) -> Op {
        std::mem::replace(&mut self.ops[index], op)
    }
}

/// A complete multithreaded program: one [`ThreadProgram`] per thread.
///
/// Thread *i* is [`ThreadId`]`(i)` and is pinned to core *i*. Thread
/// programs are copy-on-write: a clone shares every thread with its
/// source, and [`Program::thread_mut`] copies only the thread it hands
/// out, so a race injector editing one thread copies one thread.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    threads: Vec<Arc<ThreadProgram>>,
}

impl Program {
    /// Builds a program from per-thread operation lists.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty.
    #[must_use]
    pub fn new(threads: Vec<ThreadProgram>) -> Program {
        assert!(!threads.is_empty(), "a program needs at least one thread");
        Program {
            threads: threads.into_iter().map(Arc::new).collect(),
        }
    }

    /// Number of threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The per-thread programs, indexed by thread id.
    #[must_use]
    pub fn threads(&self) -> &[Arc<ThreadProgram>] {
        &self.threads
    }

    /// Mutable access for the race injector. Copies the thread first
    /// when another program still shares it.
    pub fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadProgram {
        Arc::make_mut(&mut self.threads[t.index()])
    }

    /// The thread program of `t`.
    #[must_use]
    pub fn thread(&self, t: ThreadId) -> &ThreadProgram {
        &self.threads[t.index()]
    }

    /// Total operation count across threads.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }

    /// Threads that only start when some other thread forks them.
    #[must_use]
    pub fn fork_targets(&self) -> BTreeSet<ThreadId> {
        let mut s = BTreeSet::new();
        for t in &self.threads {
            for op in t.ops() {
                if let Op::Fork { child, .. } = *op {
                    s.insert(child);
                }
            }
        }
        s
    }

    /// The set of locks named anywhere in the program.
    #[must_use]
    pub fn locks_used(&self) -> BTreeSet<LockId> {
        let mut s = BTreeSet::new();
        for t in &self.threads {
            for op in t.ops() {
                match *op {
                    Op::Lock { lock, .. } | Op::Unlock { lock, .. } => {
                        s.insert(lock);
                    }
                    _ => {}
                }
            }
        }
        s
    }

    /// Checks the structural well-formedness the scheduler relies on:
    /// balanced lock/unlock per thread (locks released in any order but
    /// never released while not held, never left held at exit) and the
    /// same multiset of barrier arrivals in every thread.
    ///
    /// Returns a human-readable description of the first violation.
    /// Note that *race-injected* programs intentionally violate balance
    /// only by omitting a lock/unlock **pair**, which keeps this check
    /// passing.
    pub fn validate(&self) -> Result<(), String> {
        // Fork structure: a thread is forked at most once, never by
        // itself, and fork targets must exist. Thread 0 is always an
        // initial thread; other threads may be initial or forked.
        let mut fork_targets = std::collections::BTreeSet::new();
        for (ti, t) in self.threads.iter().enumerate() {
            for (oi, op) in t.ops().iter().enumerate() {
                match *op {
                    Op::Fork { child, .. } => {
                        if child.index() >= self.threads.len() {
                            return Err(format!("thread {ti} op {oi}: fork of unknown {child}"));
                        }
                        if child.index() == ti {
                            return Err(format!("thread {ti} op {oi}: self-fork"));
                        }
                        if !fork_targets.insert(child) {
                            return Err(format!("thread {ti} op {oi}: {child} forked twice"));
                        }
                    }
                    Op::Join { child, .. } => {
                        if child.index() >= self.threads.len() {
                            return Err(format!("thread {ti} op {oi}: join of unknown {child}"));
                        }
                        if child.index() == ti {
                            return Err(format!("thread {ti} op {oi}: self-join"));
                        }
                    }
                    _ => {}
                }
            }
        }
        if fork_targets.contains(&ThreadId(0)) {
            return Err("thread 0 cannot be a fork target".into());
        }
        // Barrier completion waits for *all* threads; a not-yet-forked
        // participant would deadlock, so fork/join programs must not
        // use barriers (SPLASH-style programs use one or the other).
        if !fork_targets.is_empty() {
            let uses_barriers = self
                .threads
                .iter()
                .flat_map(|t| t.ops())
                .any(|op| matches!(op, Op::Barrier { .. }));
            if uses_barriers {
                return Err("programs with forked threads cannot use barriers".into());
            }
        }
        let mut barrier_counts: Option<Vec<(BarrierId, usize)>> = None;
        for (ti, t) in self.threads.iter().enumerate() {
            let mut held: Vec<LockId> = Vec::new();
            let mut barriers: Vec<(BarrierId, usize)> = Vec::new();
            for (oi, op) in t.ops().iter().enumerate() {
                match *op {
                    Op::Lock { lock, .. } => {
                        if held.contains(&lock) {
                            return Err(format!("thread {ti} op {oi}: relock of held {lock}"));
                        }
                        held.push(lock);
                    }
                    Op::Unlock { lock, .. } => match held.iter().position(|&l| l == lock) {
                        Some(p) => {
                            held.remove(p);
                        }
                        None => {
                            return Err(format!("thread {ti} op {oi}: unlock of unheld {lock}"))
                        }
                    },
                    Op::Barrier { barrier, .. } => {
                        match barriers.iter_mut().find(|(b, _)| *b == barrier) {
                            Some((_, c)) => *c += 1,
                            None => barriers.push((barrier, 1)),
                        }
                    }
                    _ => {}
                }
            }
            if !held.is_empty() {
                return Err(format!("thread {ti}: exits holding {held:?}"));
            }
            barriers.sort();
            match &barrier_counts {
                None => barrier_counts = Some(barriers),
                Some(first) => {
                    if *first != barriers {
                        return Err(format!(
                            "thread {ti}: barrier arrivals {barriers:?} differ from thread 0's {first:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience builder producing a [`Program`] with a fixed thread
/// count.
///
/// # Examples
///
/// ```
/// use hard_trace::ProgramBuilder;
/// use hard_types::{Addr, SiteId};
///
/// let mut b = ProgramBuilder::new(2);
/// b.thread(0).write(Addr(0x100), 4, SiteId(1));
/// b.thread(1).read(Addr(0x100), 4, SiteId(2));
/// let p = b.build();
/// assert_eq!(p.num_threads(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    threads: Vec<ThreadProgram>,
}

impl ProgramBuilder {
    /// A builder for `num_threads` (initially empty) threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    #[must_use]
    pub fn new(num_threads: usize) -> ProgramBuilder {
        assert!(num_threads > 0, "a program needs at least one thread");
        ProgramBuilder {
            threads: vec![ThreadProgram::new(); num_threads],
        }
    }

    /// Mutable access to thread `t`'s program.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn thread(&mut self, t: u32) -> &mut ThreadProgram {
        &mut self.threads[t as usize]
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> Program {
        Program::new(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u32) -> SiteId {
        SiteId(n)
    }

    #[test]
    fn builder_chains_and_counts() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .lock(LockId(4), site(0))
            .write(Addr(0x10), 4, site(1))
            .unlock(LockId(4), site(2))
            .compute(5);
        b.thread(1).read(Addr(0x10), 4, site(3));
        let p = b.build();
        assert_eq!(p.total_ops(), 5);
        assert_eq!(p.thread(ThreadId(0)).len(), 4);
        assert!(!p.thread(ThreadId(0)).is_empty());
        assert_eq!(p.locks_used().len(), 1);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2 {
            b.thread(t)
                .lock(LockId(4), site(0))
                .unlock(LockId(4), site(1))
                .barrier(BarrierId(0), site(2));
        }
        assert_eq!(b.build().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unlock_of_unheld() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0).unlock(LockId(4), site(0));
        let err = b.build().validate().unwrap_err();
        assert!(err.contains("unheld"), "{err}");
    }

    #[test]
    fn validate_rejects_leaked_lock() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0).lock(LockId(4), site(0));
        let err = b.build().validate().unwrap_err();
        assert!(err.contains("exits holding"), "{err}");
    }

    #[test]
    fn validate_rejects_relock() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0)
            .lock(LockId(4), site(0))
            .lock(LockId(4), site(1));
        let err = b.build().validate().unwrap_err();
        assert!(err.contains("relock"), "{err}");
    }

    #[test]
    fn validate_rejects_mismatched_barriers() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0).barrier(BarrierId(0), site(0));
        // thread 1 never arrives
        let err = b.build().validate().unwrap_err();
        assert!(err.contains("barrier"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_program_panics() {
        let _ = Program::new(vec![]);
    }

    #[test]
    fn remove_op_for_injection() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .lock(LockId(4), site(0))
            .write(Addr(0x10), 4, site(1))
            .unlock(LockId(4), site(2));
        b.thread(1).compute(1);
        let p = b.build();
        // The clone shares both threads until one is edited.
        let mut q = p.clone();
        let removed = q.thread_mut(ThreadId(0)).remove(0);
        assert!(matches!(removed, Op::Lock { .. }));
        assert_eq!(q.thread(ThreadId(0)).len(), 2);
        assert_eq!(p.thread(ThreadId(0)).len(), 3, "the source is untouched");
        assert!(!Arc::ptr_eq(&p.threads()[0], &q.threads()[0]));
        assert!(Arc::ptr_eq(&p.threads()[1], &q.threads()[1]));
    }
}
