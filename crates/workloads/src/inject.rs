//! Dynamic race injection (paper §4).
//!
//! "For each application, we randomly inject a single dynamic instance
//! of a data race into each run … by omitting a randomly selected
//! dynamic instance of a lock primitive and the corresponding unlock
//! primitive."
//!
//! [`enumerate_critical_sections`] finds every dynamic lock/unlock pair
//! in a program together with the shared accesses it protects;
//! [`inject_race`] removes one such pair and returns the ground truth
//! the harness scores detectors against.

use hard_trace::{Op, Program};
use hard_types::hashers::FastHashMap;
use hard_types::{AccessKind, Addr, HardError, LockId, ThreadId, Xoshiro256};

/// One dynamic critical section of a thread program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalSection {
    /// The executing thread.
    pub thread: ThreadId,
    /// The lock taken.
    pub lock: LockId,
    /// Index of the `Lock` op in the thread's program.
    pub lock_index: usize,
    /// Index of the matching `Unlock` op.
    pub unlock_index: usize,
    /// The `(addr, size, kind)` of accesses inside the section that are
    /// *not* protected by another (nested) lock — the accesses that
    /// become racy when the pair is omitted.
    pub exposed_accesses: Vec<(Addr, u8, AccessKind)>,
}

/// Finds every dynamic critical section in `program`.
///
/// Nested sections are handled: an access counts as *exposed* for the
/// outermost lock only if no other lock is simultaneously held at that
/// point (removing the outer pair leaves it protected otherwise).
///
/// # Errors
///
/// Returns [`HardError::UnlockOfUnheld`] if a thread releases a lock it
/// does not hold, and [`HardError::UnbalancedLocks`] if a thread's
/// program ends with open sections.
pub fn enumerate_critical_sections(program: &Program) -> Result<Vec<CriticalSection>, HardError> {
    sections(program)
}

/// What injection eligibility needs to know about one 4-byte word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Word {
    /// The one lock every access held: `None` once an access held no
    /// lock, several locks, or a different lock.
    lock: Option<LockId>,
    /// The first thread that accessed the word.
    first: ThreadId,
    /// Whether a second thread accessed it.
    shared: bool,
}

/// The 4-byte words an access of `size` bytes at `addr` covers. A
/// zero-size access covers its base word, as in
/// `Granularity::granules_in`.
fn words(addr: Addr, size: u8) -> std::ops::RangeInclusive<u64> {
    let last = addr.0.saturating_add(u64::from(size.max(1) - 1));
    addr.0 >> 2..=last >> 2
}

/// The critical sections, in [`enumerate_critical_sections`] order,
/// plus a [`Word`] summary of every word some section's exposed write
/// covers — the only words [`pick_eligible`] reads.
fn scan(program: &Program) -> Result<(Vec<CriticalSection>, FastHashMap<u64, Word>), HardError> {
    let sections = sections(program)?;
    let summary = summarize(program, &sections);
    Ok((sections, summary))
}

/// One walk over every thread that pairs each `Lock` with its `Unlock`.
fn sections(program: &Program) -> Result<Vec<CriticalSection>, HardError> {
    let mut out = Vec::new();
    for (t, tp) in program.threads().iter().enumerate() {
        let thread = ThreadId(t as u32);
        // Stack of open sections: (lock, lock_index, exposed accesses).
        type OpenSection = (LockId, usize, Vec<(Addr, u8, AccessKind)>);
        let mut open: Vec<OpenSection> = Vec::new();
        for (i, op) in tp.ops().iter().enumerate() {
            let access = match *op {
                Op::Lock { lock, .. } => {
                    open.push((lock, i, Vec::new()));
                    continue;
                }
                Op::Unlock { lock, .. } => {
                    let pos = open
                        .iter()
                        .rposition(|(l, _, _)| *l == lock)
                        .ok_or(HardError::UnlockOfUnheld { thread, lock })?;
                    let (l, li, accesses) = open.remove(pos);
                    out.push(CriticalSection {
                        thread,
                        lock: l,
                        lock_index: li,
                        unlock_index: i,
                        exposed_accesses: accesses,
                    });
                    continue;
                }
                Op::Read { addr, size, .. } => (addr, size, AccessKind::Read),
                Op::Write { addr, size, .. } => (addr, size, AccessKind::Write),
                _ => continue,
            };
            // An access is exposed only for the section whose removal
            // leaves it wholly unprotected: when exactly one lock is
            // held, that section.
            if let [(_, _, exposed)] = open.as_mut_slice() {
                exposed.push(access);
            }
        }
        if !open.is_empty() {
            return Err(HardError::UnbalancedLocks {
                thread,
                depth: open.len(),
            });
        }
    }
    Ok(out)
}

/// A second walk over every access of `program` (whose lock nesting
/// [`sections`] has already checked) that folds an access into a word's
/// [`Word`] only if some section's exposed write covers that word.
///
/// Held locks follow the same stack rule as [`sections`], so an
/// access's `only` lock is the one section it is exposed for.
fn summarize(program: &Program, sections: &[CriticalSection]) -> FastHashMap<u64, Word> {
    let mut summary: FastHashMap<u64, Option<Word>> = FastHashMap::default();
    for cs in sections {
        for &(a, s, kind) in &cs.exposed_accesses {
            if kind.is_write() {
                summary.extend(words(a, s).map(|w| (w, None)));
            }
        }
    }
    let (Some(&lo), Some(&hi)) = (summary.keys().min(), summary.keys().max()) else {
        return FastHashMap::default();
    };
    for (t, tp) in program.threads().iter().enumerate() {
        let thread = ThreadId(t as u32);
        let mut held: Vec<LockId> = Vec::new();
        for op in tp.ops() {
            let (addr, size) = match *op {
                Op::Lock { lock, .. } => {
                    held.push(lock);
                    continue;
                }
                Op::Unlock { lock, .. } => {
                    if let Some(pos) = held.iter().rposition(|&l| l == lock) {
                        held.remove(pos);
                    }
                    continue;
                }
                Op::Read { addr, size, .. } | Op::Write { addr, size, .. } => (addr, size),
                _ => continue,
            };
            let range = words(addr, size);
            // Most accesses miss the candidates' span: skip the table.
            if *range.end() < lo || *range.start() > hi {
                continue;
            }
            let only = match held.as_slice() {
                [lock] => Some(*lock),
                _ => None,
            };
            for w in range {
                match summary.get_mut(&w) {
                    Some(Some(s)) => {
                        if s.lock != only {
                            s.lock = None;
                        }
                        s.shared |= s.first != thread;
                    }
                    Some(slot) => {
                        *slot = Some(Word {
                            lock: only,
                            first: thread,
                            shared: false,
                        });
                    }
                    None => {}
                }
            }
        }
    }
    // Every key is filled: the exposed write that seeded it visits it.
    summary
        .into_iter()
        .filter_map(|(w, s)| Some((w, s?)))
        .collect()
}

/// The ground truth of one injected race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injection {
    /// The critical section whose lock/unlock pair was omitted.
    pub section: CriticalSection,
}

impl Injection {
    /// True if the byte range `[lo, hi)` overlaps any target access of
    /// the injected race. An access running past the top of the address
    /// space ends there.
    #[must_use]
    pub fn overlaps(&self, lo: Addr, hi: Addr) -> bool {
        self.section
            .exposed_accesses
            .iter()
            .any(|&(a, s, _)| a.0 < hi.0 && lo.0 < a.0.saturating_add(u64::from(s)))
    }
}

/// Picks one eligible critical section for injection, or explains why
/// none qualifies.
///
/// A section's own exposed write holds exactly its lock, and its thread
/// is an accessor, so a word whose summary reads `lock == Some(cs.lock)`
/// and `shared` is consistently protected by that lock and touched by
/// another thread — the test [`inject_race`] documents.
fn pick_eligible(program: &Program, seed: u64) -> Result<CriticalSection, HardError> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let (sections, summary) = scan(program)?;
    let eligible: Vec<&CriticalSection> = sections
        .iter()
        .filter(|cs| {
            cs.exposed_accesses.iter().any(|&(a, s, kind)| {
                kind.is_write()
                    && words(a, s).any(|w| {
                        let word = summary[&w];
                        word.lock == Some(cs.lock) && word.shared
                    })
            })
        })
        .collect();
    if eligible.is_empty() {
        return Err(HardError::NoEligibleInjection {
            what: "no critical section can manifest as a race in this program",
        });
    }
    Ok((*eligible[rng.gen_index(eligible.len())]).clone())
}

/// Removes one randomly chosen critical section's lock/unlock pair from
/// `program`, returning the modified program and the ground truth.
///
/// Only sections whose omission creates a *new, manifestable* race are
/// eligible — the paper's injections delete the protection of properly
/// protected data. Concretely, a section qualifies when some exposed
/// word is (1) **consistently protected**: every access to it anywhere
/// in the program holds exactly the section's lock (this excludes data
/// that already generates reports, such as lock-rotation variables);
/// (2) **conflicting**: accessed by another thread, with a write on at
/// least one side; and (3) the section itself **writes** the word —
/// omitting a read-only section leaves a race only the surrounding
/// writers can expose, which even an ideal lockset can miss when the
/// bare read initializes the granule's state (the paper's 60 injected
/// bugs are all detectable by the ideal lockset, implying
/// write-sections).
///
/// # Errors
///
/// Returns [`HardError::NoEligibleInjection`] if the program contains
/// no eligible critical section, and propagates the lock-balance
/// errors of [`enumerate_critical_sections`].
///
/// # Examples
///
/// ```
/// use hard_workloads::{inject_race, App, WorkloadConfig};
///
/// let program = App::Barnes.generate(&WorkloadConfig::reduced(0.1));
/// let (injected, info) = inject_race(&program, 42).unwrap();
/// assert_eq!(injected.total_ops(), program.total_ops() - 2);
/// assert!(!info.section.exposed_accesses.is_empty());
/// ```
pub fn inject_race(program: &Program, seed: u64) -> Result<(Program, Injection), HardError> {
    let chosen = pick_eligible(program, seed)?;
    let mut injected = program.clone();
    let tp = injected.thread_mut(chosen.thread);
    // Remove the higher index first so the lower one stays valid.
    tp.remove(chosen.unlock_index);
    tp.remove(chosen.lock_index);
    Ok((injected, Injection { section: chosen }))
}

/// Replaces one randomly chosen critical section's lock with a fresh,
/// otherwise-unused lock — the "wrong lock" bug class: the section is
/// still mutually exclusive against nothing, so its accesses race with
/// the properly locked ones exactly like an omitted pair, but the
/// access pattern keeps its critical-section shape (same instruction
/// count, a lock still held).
///
/// Eligibility matches [`inject_race`]. The replacement lock is taken
/// from the dedicated region above all workload locks.
///
/// # Errors
///
/// Returns [`HardError::NoEligibleInjection`] if the program contains
/// no eligible critical section, and propagates the lock-balance
/// errors of [`enumerate_critical_sections`].
pub fn inject_wrong_lock(program: &Program, seed: u64) -> Result<(Program, Injection), HardError> {
    let chosen = pick_eligible(program, seed)?;
    let wrong = LockId(0x6FFF_0000 + (seed % 256) * 4);
    let mut injected = program.clone();
    let tp = injected.thread_mut(chosen.thread);
    let fix = |op: Op| match op {
        Op::Lock { site, .. } => Op::Lock { lock: wrong, site },
        Op::Unlock { site, .. } => Op::Unlock { lock: wrong, site },
        other => other,
    };
    let lock_op = fix(tp.ops()[chosen.lock_index]);
    let unlock_op = fix(tp.ops()[chosen.unlock_index]);
    // Rebuild the two ops in place (remove + insert preserves indexes
    // because we replace rather than delete).
    tp.replace(chosen.lock_index, lock_op);
    tp.replace(chosen.unlock_index, unlock_op);
    Ok((injected, Injection { section: chosen }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::ProgramBuilder;
    use hard_types::SiteId;
    use std::collections::BTreeSet;

    fn site(n: u32) -> SiteId {
        SiteId(n)
    }

    #[test]
    fn targets_at_the_top_of_the_address_space_overlap_without_wrapping() {
        let inj = Injection {
            section: CriticalSection {
                thread: ThreadId(0),
                lock: LockId(0x40),
                lock_index: 0,
                unlock_index: 2,
                exposed_accesses: vec![(Addr(u64::MAX - 1), 4, AccessKind::Write)],
            },
        };
        assert!(inj.overlaps(Addr(u64::MAX - 1), Addr(u64::MAX)));
        assert!(
            !inj.overlaps(Addr(0), Addr(16)),
            "the access does not wrap to 0"
        );
    }

    fn sample() -> Program {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            b.thread(t)
                .lock(LockId(0x40), site(t * 10))
                .read(Addr(0x1000), 4, site(t * 10 + 1))
                .write(Addr(0x1000), 4, site(t * 10 + 2))
                .unlock(LockId(0x40), site(t * 10 + 3))
                .lock(LockId(0x44), site(t * 10 + 4))
                .write(Addr(0x2000 + u64::from(t) * 0x1000), 4, site(t * 10 + 5))
                .unlock(LockId(0x44), site(t * 10 + 6));
        }
        b.build()
    }

    #[test]
    fn enumeration_finds_all_sections() {
        let cs = enumerate_critical_sections(&sample()).unwrap();
        assert_eq!(cs.len(), 4);
        assert!(cs.iter().all(|c| c.lock_index < c.unlock_index));
        let first = cs.iter().find(|c| c.lock == LockId(0x40)).unwrap();
        assert_eq!(first.exposed_accesses.len(), 2);
    }

    #[test]
    fn nested_sections_expose_correctly() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0)
            .lock(LockId(0x40), site(0))
            .write(Addr(0x100), 4, site(1)) // exposed for outer
            .lock(LockId(0x44), site(2))
            .write(Addr(0x200), 4, site(3)) // protected by inner
            .unlock(LockId(0x44), site(4))
            .write(Addr(0x300), 4, site(5)) // exposed for outer
            .unlock(LockId(0x40), site(6));
        let cs = enumerate_critical_sections(&b.build()).unwrap();
        let outer = cs.iter().find(|c| c.lock == LockId(0x40)).unwrap();
        let inner = cs.iter().find(|c| c.lock == LockId(0x44)).unwrap();
        assert_eq!(
            outer.exposed_accesses,
            vec![
                (Addr(0x100), 4, AccessKind::Write),
                (Addr(0x300), 4, AccessKind::Write)
            ]
        );
        // The inner access is nested under two locks: removing the
        // inner pair alone leaves it protected by the outer lock.
        assert_eq!(inner.exposed_accesses, Vec::<(Addr, u8, AccessKind)>::new());
    }

    #[test]
    fn injection_removes_exactly_one_pair() {
        let p = sample();
        let before = p.total_ops();
        let (inj, info) = inject_race(&p, 7).unwrap();
        assert_eq!(inj.total_ops(), before - 2);
        assert_eq!(inj.validate(), Ok(()), "balance is preserved");
        // Only the shared variable's sections are eligible (0x2000
        // region is thread-private here).
        assert_eq!(info.section.lock, LockId(0x40));
        assert!(info.overlaps(Addr(0x1000), Addr(0x1004)));
        assert!(!info.overlaps(Addr(0x3000), Addr(0x3004)));
    }

    #[test]
    fn different_seeds_pick_different_sections() {
        let p = sample();
        let picks: BTreeSet<(u32, usize)> = (0..32)
            .map(|s| {
                let (_, i) = inject_race(&p, s).unwrap();
                (i.section.thread.0, i.section.lock_index)
            })
            .collect();
        assert!(
            picks.len() > 1,
            "32 seeds should hit both eligible sections"
        );
    }

    #[test]
    fn injection_requires_manifestable_race() {
        // Each thread's section touches only private data.
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            b.thread(t)
                .lock(LockId(0x40), site(t))
                .write(Addr(0x1000 + u64::from(t) * 0x1000), 4, site(10 + t))
                .unlock(LockId(0x40), site(20 + t));
        }
        let err = inject_race(&b.build(), 0);
        assert!(
            matches!(err, Err(HardError::NoEligibleInjection { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_lock_nesting_is_an_error_not_a_panic() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0).unlock(LockId(0x40), site(0));
        assert_eq!(
            enumerate_critical_sections(&b.build()),
            Err(HardError::UnlockOfUnheld {
                thread: ThreadId(0),
                lock: LockId(0x40)
            })
        );
        let mut b = ProgramBuilder::new(1);
        b.thread(0)
            .lock(LockId(0x40), site(0))
            .lock(LockId(0x44), site(1));
        assert_eq!(
            enumerate_critical_sections(&b.build()),
            Err(HardError::UnbalancedLocks {
                thread: ThreadId(0),
                depth: 2
            })
        );
    }

    #[test]
    fn wrong_lock_injection_preserves_shape() {
        let p = sample();
        let before = p.total_ops();
        let (inj, info) = inject_wrong_lock(&p, 3).unwrap();
        assert_eq!(inj.total_ops(), before, "ops replaced, not removed");
        assert_eq!(inj.validate(), Ok(()), "lock balance preserved");
        // The section's lock changed to a fresh one.
        let new_lock = match inj.thread(info.section.thread).ops()[info.section.lock_index] {
            Op::Lock { lock, .. } => lock,
            ref other => panic!("expected a lock op, got {other:?}"),
        };
        assert_ne!(new_lock, info.section.lock);
        assert!(new_lock.0 >= 0x6FFF_0000, "from the wrong-lock region");
        assert!(info.overlaps(Addr(0x1000), Addr(0x1004)));
    }

    #[test]
    fn wrong_lock_breaks_the_discipline() {
        // After the injection, the target word is accessed under two
        // different locks program-wide — the lockset-violating shape.
        let p = sample();
        let (inj, info) = inject_wrong_lock(&p, 5).unwrap();
        let (_, summary) = scan(&inj).unwrap();
        let target = info.section.exposed_accesses[0].0;
        let word = summary[&(target.0 >> 2)];
        assert!(word.shared, "{word:?}");
        assert_eq!(word.lock, None, "no one lock protects the word now");
        // Before it, one lock did.
        assert_eq!(
            scan(&p).unwrap().1[&(target.0 >> 2)].lock,
            Some(info.section.lock)
        );
    }

    #[test]
    fn zero_size_access_covers_its_base_word() {
        assert_eq!(words(Addr(0), 0), 0..=0);
        assert_eq!(words(Addr(13), 0), 3..=3);
        assert_eq!(words(Addr(6), 4), 1..=2);
        assert_eq!(words(Addr(u64::MAX), 8), u64::MAX >> 2..=u64::MAX >> 2);
        // Both threads write word 0 under one lock: eligible, and the
        // summary holds word 0 alone.
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            b.thread(t)
                .lock(LockId(0x40), site(t))
                .write(Addr(0), 0, site(10 + t))
                .unlock(LockId(0x40), site(20 + t));
        }
        let p = b.build();
        let (_, info) = inject_race(&p, 0).unwrap();
        assert_eq!(
            info.section.exposed_accesses,
            vec![(Addr(0), 0, AccessKind::Write)]
        );
        let (_, summary) = scan(&p).unwrap();
        assert_eq!(summary.keys().copied().collect::<Vec<_>>(), vec![0]);
        assert!(summary[&0].shared);
    }

    #[test]
    fn summary_keys_are_the_words_exposed_writes_cover() {
        let mut programs = vec![sample()];
        programs.extend(
            crate::App::all()
                .into_iter()
                .map(|app| app.generate(&crate::WorkloadConfig::reduced(0.05))),
        );
        for p in &programs {
            let (sections, summary) = scan(p).unwrap();
            let covered: BTreeSet<u64> = sections
                .iter()
                .flat_map(|cs| &cs.exposed_accesses)
                .filter(|&&(_, _, kind)| kind.is_write())
                .flat_map(|&(a, s, _)| words(a, s))
                .collect();
            assert!(!covered.is_empty());
            // So `summary[&w]` in `pick_eligible` cannot panic.
            assert_eq!(summary.keys().copied().collect::<BTreeSet<_>>(), covered);
        }
    }

    #[test]
    fn read_read_sharing_is_not_eligible() {
        // Both threads only read the shared word inside their sections;
        // one writes it elsewhere... no: reads only => no race.
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            b.thread(t)
                .lock(LockId(0x40), site(t))
                .read(Addr(0x1000), 4, site(10 + t))
                .unlock(LockId(0x40), site(20 + t));
        }
        let p = b.build();
        let cs = enumerate_critical_sections(&p).unwrap();
        assert_eq!(cs.len(), 2);
        let result = inject_race(&p, 0);
        assert!(
            matches!(result, Err(HardError::NoEligibleInjection { .. })),
            "read-read sharing cannot race: {result:?}"
        );
    }
}
