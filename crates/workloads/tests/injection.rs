//! Pins race-injection picks.
//!
//! The goldens are the `(thread, lock, lock_index, unlock_index,
//! exposed accesses)` of every section the campaigns inject. Corpus
//! keys do not cover the injector's code, so a changed pick must bump
//! `GENERATOR_VERSION`; these tests catch one that does not. The
//! proptest checks [`inject_race`] against a brute-force reading of its
//! documented eligibility rule.

use hard_trace::{Op, Program, ProgramBuilder};
use hard_types::{Addr, BarrierId, HardError, LockId, SiteId, Xoshiro256};
use hard_workloads::apps::server;
use hard_workloads::{
    enumerate_critical_sections, inject_race, inject_wrong_lock, App, CriticalSection, Scale,
    WorkloadConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

/// `(thread, lock, lock_index, unlock_index, exposed_accesses.len())`.
type Pick = (u32, u64, usize, usize, usize);

fn pick(section: &CriticalSection) -> Pick {
    (
        section.thread.0,
        section.lock.0,
        section.lock_index,
        section.unlock_index,
        section.exposed_accesses.len(),
    )
}

/// The campaign's picks: `injected_trace` seeds `0xBEEF + run` for
/// runs 0..10 of each app, in `App::all()` order.
const APP_PICKS: [&[Pick]; 6] = [
    // cholesky
    &[
        (2, 0x1000003c, 462, 465, 2),
        (3, 0x10000054, 1782, 1785, 2),
        (1, 0x10000004, 5976, 5979, 2),
        (2, 0x10000020, 7993, 7996, 2),
        (3, 0x1000002c, 5482, 5485, 2),
        (3, 0x10000050, 9403, 9406, 2),
        (1, 0x1000004c, 7639, 7642, 2),
        (1, 0x1000003c, 3077, 3080, 2),
        (0, 0x1000004c, 5310, 5313, 2),
        (0, 0x1000005c, 4499, 4502, 2),
    ],
    // barnes
    &[
        (2, 0x10000000, 180, 183, 2),
        (3, 0x10000000, 434, 437, 2),
        (1, 0x10000040, 1441, 1444, 2),
        (2, 0x10000000, 1973, 1976, 2),
        (3, 0x10000020, 1324, 1327, 2),
        (3, 0x10000000, 2248, 2251, 2),
        (1, 0x10000000, 1899, 1902, 2),
        (1, 0x1000006c, 755, 758, 2),
        (0, 0x10000024, 1292, 1295, 2),
        (0, 0x10000000, 1118, 1121, 2),
    ],
    // fmm
    &[
        (2, 0x10000044, 1050, 1053, 2),
        (3, 0x10000010, 3751, 3754, 2),
        (1, 0x10000008, 12387, 12390, 2),
        (2, 0x10000004, 16691, 16694, 2),
        (3, 0x10000000, 11640, 11643, 2),
        (3, 0x10000024, 19633, 19636, 2),
        (1, 0x10000030, 15960, 15963, 2),
        (1, 0x10000000, 6593, 6596, 2),
        (0, 0x10000040, 11158, 11161, 2),
        (0, 0x10000010, 9545, 9548, 2),
    ],
    // ocean
    &[
        (2, 0x10000008, 878, 881, 2),
        (3, 0x10000008, 5662, 5665, 2),
        (1, 0x10000004, 17893, 17896, 2),
        (2, 0x10000008, 23521, 23524, 2),
        (3, 0x10000000, 16550, 16553, 2),
        (3, 0x10000008, 27006, 27009, 2),
        (1, 0x1000000c, 23982, 23985, 2),
        (1, 0x10000000, 10023, 10026, 2),
        (0, 0x10000000, 15269, 15272, 2),
        (0, 0x1000000c, 13514, 13517, 2),
    ],
    // water-nsquared
    &[
        (2, 0x10000030, 343, 346, 2),
        (3, 0x10000068, 875, 878, 2),
        (1, 0x1000000c, 2707, 2710, 2),
        (2, 0x10000024, 3629, 3632, 2),
        (3, 0x1000002c, 2501, 2504, 2),
        (3, 0x10000044, 4201, 4204, 2),
        (1, 0x10000050, 3467, 3470, 2),
        (1, 0x10000080, 1413, 1416, 2),
        (0, 0x1000000c, 2419, 2422, 2),
        (0, 0x10000008, 2051, 2054, 2),
    ],
    // raytrace
    &[
        (2, 0x10000004, 186, 189, 2),
        (3, 0x1000001c, 472, 475, 2),
        (1, 0x10000008, 1741, 1744, 2),
        (2, 0x10000010, 2217, 2220, 2),
        (3, 0x10000024, 1587, 1590, 2),
        (3, 0x10000020, 2706, 2709, 2),
        (1, 0x10000014, 2160, 2163, 2),
        (1, 0x1000003c, 905, 908, 2),
        (0, 0x1000002c, 1534, 1537, 2),
        (0, 0x10000000, 1185, 1188, 2),
    ],
];

/// The `server` campaign's picks: seeds `0xFACE + run`, 4 then 8
/// threads.
const SERVER_PICKS: [&[Pick]; 2] = [
    // server, 4 threads
    &[
        (1, 0x10000004, 8, 11, 2),
        (3, 0x10000004, 8, 11, 2),
        (0, 0x10000000, 11, 14, 2),
        (0, 0x10000000, 7, 10, 2),
        (3, 0x10000004, 128, 131, 2),
        (3, 0x10000004, 8, 11, 2),
        (2, 0x10000004, 8, 11, 2),
        (3, 0x10000000, 120, 123, 2),
        (3, 0x1000002c, 4, 7, 2),
        (1, 0x10000000, 120, 123, 2),
    ],
    // server, 8 threads
    &[
        (1, 0x10000004, 8, 11, 2),
        (6, 0x10000000, 0, 3, 2),
        (0, 0x10000000, 19, 22, 2),
        (0, 0x10000000, 11, 14, 2),
        (7, 0x10000004, 8, 11, 2),
        (6, 0x1000000c, 4, 7, 2),
        (3, 0x1000002c, 4, 7, 2),
        (6, 0x10000004, 8, 11, 2),
        (5, 0x10000004, 8, 11, 2),
        (2, 0x10000000, 0, 3, 2),
    ],
];

#[test]
fn campaign_picks_match_the_goldens() {
    for (app, golden) in App::all().into_iter().zip(APP_PICKS) {
        let p = app.generate(&WorkloadConfig {
            num_threads: 4,
            seed: 0xA00 + app as u64,
            scale: Scale::Reduced(0.3),
        });
        for (run, want) in golden.iter().enumerate() {
            let (_, info) = inject_race(&p, 0xBEEF + run as u64).unwrap();
            assert_eq!(pick(&info.section), *want, "{} run {run}", app.name());
        }
    }
}

#[test]
fn server_picks_match_the_goldens() {
    for (threads, golden) in [4usize, 8].into_iter().zip(SERVER_PICKS) {
        let p = server::generate(&WorkloadConfig {
            num_threads: threads,
            seed: 0x5E47,
            scale: Scale::Reduced(0.3),
        });
        for (run, want) in golden.iter().enumerate() {
            let (_, info) = inject_race(&p, 0xFACE + run as u64).unwrap();
            assert_eq!(pick(&info.section), *want, "{threads} threads run {run}");
        }
    }
}

/// A small random program: 2–4 threads, 1–3 locks taken and released
/// in any order (so sections nest and interleave), and 0/1/2/4/8-byte
/// accesses at unaligned addresses, so some span two words. Accesses
/// under a lock mostly land in that lock's 12-byte home region; the
/// rest, and every bare access, land in any home region — or, for a
/// quarter of bare accesses, in a cold region that no section writes.
/// Threads also issue `Barrier` and `Compute` ops, which carry no
/// access.
fn random_program(seed: u64) -> Program {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let threads = 2 + rng.gen_index(3);
    let locks = 1 + rng.gen_range(3);
    let mut b = ProgramBuilder::new(threads);
    for t in 0..threads as u32 {
        let tp = b.thread(t);
        let mut held: Vec<u64> = Vec::new();
        for _ in 0..rng.gen_index(20) {
            if rng.gen_range(8) == 0 {
                if rng.gen_range(2) == 0 {
                    tp.barrier(BarrierId(0), SiteId(4));
                } else {
                    tp.compute(1 + rng.gen_range(4) as u32);
                }
                continue;
            }
            let free: Vec<u64> = (0..locks).filter(|l| !held.contains(l)).collect();
            let r = rng.gen_range(10);
            if !free.is_empty() && (r < 2 || (held.is_empty() && r < 7)) {
                let l = free[rng.gen_index(free.len())];
                held.push(l);
                tp.lock(LockId(0x40 + 4 * l), SiteId(0));
            } else if !held.is_empty() && r < 4 {
                let l = held.remove(rng.gen_index(held.len()));
                tp.unlock(LockId(0x40 + 4 * l), SiteId(1));
            } else {
                let addr = if held.is_empty() && rng.gen_range(4) == 0 {
                    Addr(0x2000 + rng.gen_range(16))
                } else {
                    let home = if held.is_empty() || rng.gen_range(8) == 0 {
                        rng.gen_range(locks)
                    } else {
                        held[rng.gen_index(held.len())]
                    };
                    Addr(0x1000 + 12 * home + rng.gen_range(12))
                };
                let size = [0u8, 1, 2, 4, 8][rng.gen_index(5)];
                if rng.gen_range(2) == 0 {
                    tp.read(addr, size, SiteId(2));
                } else {
                    tp.write(addr, size, SiteId(3));
                }
            }
        }
        while !held.is_empty() {
            let l = held.remove(rng.gen_index(held.len()));
            tp.unlock(LockId(0x40 + 4 * l), SiteId(1));
        }
    }
    b.build()
}

/// The last 4-byte word an access covers: a zero-size access covers
/// its base word.
fn last_word(addr: Addr, size: u8) -> u64 {
    if size == 0 {
        addr.0 / 4
    } else {
        (addr.0 + u64::from(size) - 1) / 4
    }
}

/// `inject_race`'s rule, by brute force: a section qualifies when it
/// writes some word (through an exposed access) that every access in
/// the program makes holding exactly the section's lock, and that
/// another thread also accesses. The pick is one `gen_index` draw over
/// the qualifying sections in enumeration order.
fn oracle(p: &Program, seed: u64) -> Option<CriticalSection> {
    // Every access as (thread, first word, last word, held locks).
    let mut accesses = Vec::new();
    for (t, tp) in p.threads().iter().enumerate() {
        let mut held: Vec<LockId> = Vec::new();
        for op in tp.ops() {
            match *op {
                Op::Lock { lock, .. } => held.push(lock),
                Op::Unlock { lock, .. } => {
                    let at = held.iter().rposition(|&l| l == lock).unwrap();
                    held.remove(at);
                }
                Op::Read { addr, size, .. } | Op::Write { addr, size, .. } => {
                    accesses.push((t as u32, addr.0 / 4, last_word(addr, size), held.clone()));
                }
                _ => {}
            }
        }
    }
    let eligible: Vec<CriticalSection> = enumerate_critical_sections(p)
        .unwrap()
        .into_iter()
        .filter(|cs| {
            cs.exposed_accesses.iter().any(|&(a, s, kind)| {
                kind.is_write()
                    && (a.0 / 4..=last_word(a, s)).any(|w| {
                        let on_w = accesses
                            .iter()
                            .filter(|&&(_, lo, hi, _)| lo <= w && w <= hi);
                        let consistent = on_w.clone().all(|(_, _, _, held)| *held == [cs.lock]);
                        let shared = on_w.clone().any(|&(t, ..)| t != cs.thread.0);
                        consistent && shared
                    })
            })
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let mut rng = Xoshiro256::seed_from_u64(seed);
    Some(eligible[rng.gen_index(eligible.len())].clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn inject_race_agrees_with_the_oracle(program_seed in any::<u64>(), seed in any::<u64>()) {
        let p = random_program(program_seed);
        match (inject_race(&p, seed), oracle(&p, seed)) {
            (Ok((_, info)), Some(want)) => prop_assert_eq!(info.section, want),
            (Err(HardError::NoEligibleInjection { .. }), None) => {}
            (got, want) => prop_assert!(false, "got {:?}, oracle {:?}", got, want),
        }
    }
}

#[test]
fn random_programs_cover_both_outcomes() {
    let eligible = (0..256)
        .filter(|&s| oracle(&random_program(s), 0).is_some())
        .count();
    assert!(
        (32..224).contains(&eligible),
        "{eligible} of 256 programs have an eligible section"
    );
}

/// Both injectors copy only the thread they edit: every other thread
/// of the result is the input's own, and the input keeps its ops.
#[test]
fn injected_programs_share_every_thread_they_do_not_edit() {
    for app in App::all() {
        let p = app.generate(&WorkloadConfig::reduced(0.05));
        let before: Vec<Vec<Op>> = p.threads().iter().map(|t| t.ops().to_vec()).collect();
        for seed in 0..4 {
            for injector in [inject_race, inject_wrong_lock] {
                let (q, info) = injector(&p, seed).unwrap();
                let edited = info.section.thread.index();
                for (t, (a, b)) in p.threads().iter().zip(q.threads()).enumerate() {
                    assert_eq!(
                        Arc::ptr_eq(a, b),
                        t != edited,
                        "{} seed {seed} thread {t}",
                        app.name()
                    );
                }
                assert_ne!(q.threads()[edited], p.threads()[edited]);
            }
        }
        for (t, ops) in before.iter().enumerate() {
            assert_eq!(p.threads()[t].ops(), ops, "{} input thread {t}", app.name());
        }
    }
}
