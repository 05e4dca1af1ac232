//! The scheduler against a reference copy of its earlier
//! implementation, which kept lock owners and barrier counts in
//! `BTreeMap`s and indexed every op through the program. Every trace a
//! program and seed produce must be identical event for event: the
//! corpus, the goldens and the injected picks are all keyed on it.

use hard_trace::{Op, Program, SchedConfig, Scheduler, ThreadProgram, Trace, TraceEvent};
use hard_types::{BarrierId, LockId, SiteId, ThreadId, Xoshiro256};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Blocked {
    No,
    OnLock(LockId),
    OnBarrier(BarrierId),
    OnJoin(ThreadId),
    NotStarted,
}

/// The reference scheduler, kept as it was.
fn reference_run(cfg: SchedConfig, program: &Program) -> Trace {
    let n = program.num_threads();
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let mut pc = vec![0usize; n];
    let mut blocked = vec![Blocked::No; n];
    for &t in &program.fork_targets() {
        blocked[t.index()] = Blocked::NotStarted;
    }
    let mut lock_owner: BTreeMap<LockId, ThreadId> = BTreeMap::new();
    let mut barrier_arrivals: BTreeMap<BarrierId, usize> = BTreeMap::new();
    let mut events = Vec::with_capacity(program.total_ops() + 16);

    let finished = |pc: &[usize], t: usize| pc[t] >= program.threads()[t].len();

    loop {
        let runnable: Vec<usize> = (0..n)
            .filter(|&t| !finished(&pc, t))
            .filter(|&t| match blocked[t] {
                Blocked::No => true,
                Blocked::OnLock(l) => !lock_owner.contains_key(&l),
                Blocked::OnBarrier(_) => false,
                Blocked::OnJoin(c) => finished(&pc, c.index()),
                Blocked::NotStarted => false,
            })
            .collect();

        if runnable.is_empty() {
            assert!((0..n).all(|t| finished(&pc, t)), "reference deadlock");
            break;
        }

        let t = runnable[rng.gen_index(runnable.len())];
        blocked[t] = Blocked::No;
        let tid = ThreadId(t as u32);
        let quantum = 1 + rng.gen_range(u64::from(cfg.max_quantum)) as usize;

        for _ in 0..quantum {
            if finished(&pc, t) {
                break;
            }
            let op = program.threads()[t].ops()[pc[t]];
            match op {
                Op::Lock { lock, .. } => match lock_owner.get(&lock) {
                    Some(&owner) if owner != tid => {
                        blocked[t] = Blocked::OnLock(lock);
                        break;
                    }
                    _ => {
                        lock_owner.insert(lock, tid);
                        events.push(TraceEvent::Op { thread: tid, op });
                        pc[t] += 1;
                    }
                },
                Op::Unlock { lock, .. } => {
                    if lock_owner.get(&lock) == Some(&tid) {
                        lock_owner.remove(&lock);
                    }
                    events.push(TraceEvent::Op { thread: tid, op });
                    pc[t] += 1;
                }
                Op::Barrier { barrier, .. } => {
                    events.push(TraceEvent::Op { thread: tid, op });
                    pc[t] += 1;
                    let count = barrier_arrivals.entry(barrier).or_insert(0);
                    *count += 1;
                    if *count == n {
                        *count = 0;
                        events.push(TraceEvent::BarrierComplete { barrier });
                        for b in blocked.iter_mut() {
                            if matches!(*b, Blocked::OnBarrier(bb) if bb == barrier) {
                                *b = Blocked::No;
                            }
                        }
                    } else {
                        blocked[t] = Blocked::OnBarrier(barrier);
                    }
                    break;
                }
                Op::Fork { child, .. } => {
                    assert_eq!(blocked[child.index()], Blocked::NotStarted);
                    blocked[child.index()] = Blocked::No;
                    events.push(TraceEvent::Op { thread: tid, op });
                    pc[t] += 1;
                }
                Op::Join { child, .. } => {
                    if finished(&pc, child.index()) {
                        events.push(TraceEvent::Op { thread: tid, op });
                        pc[t] += 1;
                    } else {
                        blocked[t] = Blocked::OnJoin(child);
                        break;
                    }
                }
                _ => {
                    events.push(TraceEvent::Op { thread: tid, op });
                    pc[t] += 1;
                }
            }
        }
    }

    Trace {
        events,
        num_threads: n,
    }
}

/// Locks the generated programs contend on: few, so threads collide.
const LOCKS: u64 = 3;

fn lock(i: u64) -> LockId {
    LockId(0x40 + i * 4)
}

/// Appends a random run of blocks to `tp`. Blocks hold no lock across
/// their ends, and nested sections acquire in increasing lock order,
/// so no program deadlocks. Some blocks release a lock the thread does
/// not hold, which race-injected programs never do but the scheduler
/// tolerates: another thread may be holding it at that moment.
fn blocks(rng: &mut Xoshiro256, tp: &mut ThreadProgram, site: &mut u32) {
    let mut next_site = || {
        *site += 1;
        SiteId(*site)
    };
    for _ in 0..rng.gen_index(8) {
        let addr = hard_types::Addr(0x1000 + rng.gen_range(16) * 4);
        match rng.gen_index(6) {
            0 => {
                tp.write(addr, 4, next_site());
            }
            1 => {
                tp.compute(1 + rng.gen_range(20) as u32);
            }
            2 => {
                let l = lock(rng.gen_range(LOCKS));
                tp.lock(l, next_site())
                    .write(addr, 4, next_site())
                    .unlock(l, next_site());
            }
            3 => {
                // Nested: outer < inner; released in either order.
                let outer = rng.gen_range(LOCKS - 1);
                let inner = outer + 1 + rng.gen_range(LOCKS - 1 - outer);
                let (outer, inner) = (lock(outer), lock(inner));
                tp.lock(outer, next_site())
                    .read(addr, 4, next_site())
                    .lock(inner, next_site())
                    .write(addr, 4, next_site());
                if rng.gen_bool(0.5) {
                    tp.unlock(inner, next_site()).unlock(outer, next_site());
                } else {
                    tp.unlock(outer, next_site()).unlock(inner, next_site());
                }
            }
            4 => {
                tp.unlock(lock(rng.gen_range(LOCKS)), next_site());
            }
            _ => {
                tp.read(addr, 4, next_site());
            }
        }
    }
}

/// A barrier program: every thread arrives at the same sequence of
/// barrier ids (ids repeat), with random blocks between arrivals.
fn barrier_program(rng: &mut Xoshiro256) -> Program {
    let n = 2 + rng.gen_index(3);
    let arrivals: Vec<BarrierId> = (0..rng.gen_index(5))
        .map(|_| BarrierId(rng.gen_range(3) as u32))
        .collect();
    let mut site = 0;
    let threads = (0..n)
        .map(|_| {
            let mut tp = ThreadProgram::new();
            blocks(rng, &mut tp, &mut site);
            for &b in &arrivals {
                tp.barrier(b, SiteId(9000 + b.0));
                blocks(rng, &mut tp, &mut site);
            }
            tp
        })
        .collect();
    Program::new(threads)
}

/// A fork/join program: thread 0 forks some of the others between its
/// blocks and joins every other thread, forked or initial, at its end;
/// one forked child may fork another.
fn fork_program(rng: &mut Xoshiro256) -> Program {
    let n = 2 + rng.gen_index(4);
    let mut site = 0;
    let mut threads: Vec<ThreadProgram> = (0..n)
        .map(|_| {
            let mut tp = ThreadProgram::new();
            blocks(rng, &mut tp, &mut site);
            tp
        })
        .collect();
    let forked: Vec<usize> = (1..n).filter(|_| rng.gen_bool(0.7)).collect();
    let (by_child, by_main) = match forked.split_last() {
        Some((&last, rest)) if rest.len() > 1 && rng.gen_bool(0.5) => (Some((rest[0], last)), rest),
        _ => (None, &forked[..]),
    };
    let mut main = ThreadProgram::new();
    for &c in by_main {
        blocks(rng, &mut main, &mut site);
        main.fork(ThreadId(c as u32), SiteId(8000 + c as u32));
    }
    for op in threads[0].ops() {
        main.push(*op);
    }
    let mut joins: Vec<usize> = (1..n).collect();
    rng.shuffle(&mut joins);
    for c in joins {
        main.join(ThreadId(c as u32), SiteId(8100 + c as u32));
    }
    threads[0] = main;
    if let Some((parent, child)) = by_child {
        threads[parent].fork(ThreadId(child as u32), SiteId(8200));
        blocks(rng, &mut threads[parent], &mut site);
    }
    Program::new(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Barrier programs with nested, contended locks and stray
    /// releases: identical traces for every quantum bound.
    #[test]
    fn barrier_programs_schedule_like_the_reference(shape in any::<u64>(), seed in any::<u64>()) {
        let program = barrier_program(&mut Xoshiro256::seed_from_u64(shape));
        for max_quantum in 1..=16 {
            let cfg = SchedConfig { seed, max_quantum };
            prop_assert_eq!(
                Scheduler::new(cfg).run(&program),
                reference_run(cfg, &program),
                "shape {} {:?}", shape, cfg
            );
        }
    }

    /// Fork/join programs, including a fork by a forked child and joins
    /// of initial threads: identical traces for every quantum bound.
    #[test]
    fn fork_programs_schedule_like_the_reference(shape in any::<u64>(), seed in any::<u64>()) {
        let program = fork_program(&mut Xoshiro256::seed_from_u64(shape));
        for max_quantum in 1..=16 {
            let cfg = SchedConfig { seed, max_quantum };
            prop_assert_eq!(
                Scheduler::new(cfg).run(&program),
                reference_run(cfg, &program),
                "shape {} {:?}", shape, cfg
            );
        }
    }
}

/// The generators reach what the properties claim to cover: stray
/// releases that land while another thread holds the lock, barrier ids
/// reused within a run, and forks by forked children.
#[test]
fn generated_programs_cover_the_scheduler_paths() {
    let (mut foreign_release, mut repeat_barrier, mut grandchild) = (false, false, false);
    for shape in 0..256u64 {
        let p = barrier_program(&mut Xoshiro256::seed_from_u64(shape));
        let mut ids: Vec<BarrierId> = p.threads()[0]
            .ops()
            .iter()
            .filter_map(|op| match *op {
                Op::Barrier { barrier, .. } => Some(barrier),
                _ => None,
            })
            .collect();
        let arrivals = ids.len();
        ids.sort_unstable();
        ids.dedup();
        repeat_barrier |= ids.len() < arrivals;
        let trace = Scheduler::new(SchedConfig {
            seed: shape,
            max_quantum: 4,
        })
        .run(&p);
        let mut owner: BTreeMap<LockId, ThreadId> = BTreeMap::new();
        for (tid, op) in trace.ops() {
            match *op {
                Op::Lock { lock, .. } => {
                    owner.insert(lock, tid);
                }
                Op::Unlock { lock, .. } => match owner.get(&lock) {
                    Some(&o) if o == tid => {
                        owner.remove(&lock);
                    }
                    Some(_) => foreign_release = true,
                    None => {}
                },
                _ => {}
            }
        }
        let f = fork_program(&mut Xoshiro256::seed_from_u64(shape));
        grandchild |= f.threads()[1..]
            .iter()
            .any(|t| t.ops().iter().any(|op| matches!(op, Op::Fork { .. })));
    }
    assert!(foreign_release, "no stray release met a held lock");
    assert!(repeat_barrier, "no program reused a barrier id");
    assert!(grandchild, "no forked child forked");
}
