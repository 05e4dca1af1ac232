//! Property tests of the assembled machines.

use hard::{
    BaselineMachine, DirectoryHardMachine, HardConfig, HardMachine, HbMachine, HbMachineConfig,
};
use hard_trace::{
    run_detector, run_detector_batched, Program, SchedConfig, Scheduler, ThreadProgram,
};
use hard_types::{Addr, FaultPlan, FaultStats, LockId, SiteId};
use proptest::prelude::*;

fn arb_program() -> impl Strategy<Value = Program> {
    let block = prop_oneof![
        (0u64..16, any::<bool>()).prop_map(|(l, wr)| {
            let addr = Addr(0x1000 + l * 32);
            vec![if wr {
                hard_trace::Op::Write {
                    addr,
                    size: 4,
                    site: SiteId(l as u32),
                }
            } else {
                hard_trace::Op::Read {
                    addr,
                    size: 4,
                    site: SiteId(l as u32),
                }
            }]
        }),
        (0u64..3, 0u64..16).prop_map(|(k, l)| {
            let lock = LockId(0x1000_0000 + k * 4);
            let addr = Addr(0x1000 + l * 32);
            vec![
                hard_trace::Op::Lock {
                    lock,
                    site: SiteId(100 + k as u32),
                },
                hard_trace::Op::Write {
                    addr,
                    size: 4,
                    site: SiteId(l as u32),
                },
                hard_trace::Op::Unlock {
                    lock,
                    site: SiteId(200 + k as u32),
                },
            ]
        }),
        // Sizes 1..=16 at any byte offset: some accesses straddle
        // granules, some the 32-byte line.
        (0u64..512, 1u8..=16, any::<bool>()).prop_map(|(off, size, wr)| {
            let addr = Addr(0x1000 + off);
            let site = SiteId(300 + (off % 16) as u32);
            vec![if wr {
                hard_trace::Op::Write { addr, size, site }
            } else {
                hard_trace::Op::Read { addr, size, site }
            }]
        }),
        (1u32..100).prop_map(|c| vec![hard_trace::Op::Compute { cycles: c }]),
    ];
    let thread = prop::collection::vec(block, 0..12).prop_map(|blocks| {
        let mut tp = ThreadProgram::new();
        for b in blocks {
            for op in b {
                tp.push(op);
            }
        }
        tp
    });
    prop::collection::vec(thread, 2..=4).prop_map(Program::new)
}

/// The address carrying the injected, definitely-detectable bug in
/// [`arb_racy_program`]: written unsynchronized by two threads.
const RACE_ADDR: Addr = Addr(0x9000);

/// An arbitrary program with a guaranteed data race appended: threads 0
/// and 1 both write [`RACE_ADDR`] holding no locks. The surrounding
/// blocks touch disjoint addresses, so the race is always real and (at
/// this working-set size) never displaced out of the cache.
fn arb_racy_program() -> impl Strategy<Value = Program> {
    arb_program().prop_map(|p| {
        let mut threads: Vec<ThreadProgram> = p
            .threads()
            .iter()
            .map(|t| ThreadProgram::clone(t))
            .collect();
        for (t, tp) in threads.iter_mut().enumerate().take(2) {
            tp.push(hard_trace::Op::Write {
                addr: RACE_ADDR,
                size: 4,
                site: SiteId(7000 + t as u32),
            });
        }
        Program::new(threads)
    })
}

/// Arbitrary fault plans spanning all injection channels, up to rates
/// far beyond anything the experiments sweep.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u32..300_000,
        0u32..300_000,
        0u32..400_000,
        0u32..400_000,
        0u32..60_000,
    )
        .prop_map(|(seed, meta, reg, drop, delay, disp)| FaultPlan {
            seed,
            meta_bit_flip_ppm: meta,
            register_flip_ppm: reg,
            broadcast_drop_ppm: drop,
            broadcast_delay_ppm: delay,
            broadcast_delay_events: 8,
            displacement_ppm: disp,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Monitoring never makes the machine faster: HARD's cycle count is
    /// at least the detection-disabled baseline's on the identical
    /// trace, and the cache behaviour is bit-identical.
    #[test]
    fn monitoring_is_never_free(p in arb_program(), seed in 0u64..4) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);

        let mut base = BaselineMachine::new(HardConfig::default());
        let base_cycles = base.run(&trace);

        let mut hard = HardMachine::new(HardConfig::default());
        run_detector(&mut hard, &trace);

        prop_assert!(hard.total_cycles() >= base_cycles);
        prop_assert_eq!(hard.stats().l1_hits, base.stats().l1_hits);
        prop_assert_eq!(hard.stats().l1_misses, base.stats().l1_misses);
        prop_assert_eq!(hard.stats().l2_misses, base.stats().l2_misses);
        prop_assert_eq!(hard.stats().l2_evictions, base.stats().l2_evictions);
    }

    /// Determinism of the full machine: identical traces produce
    /// identical reports, cycles and statistics.
    #[test]
    fn machines_are_deterministic(p in arb_program(), seed in 0u64..4) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);
        let mut a = HardMachine::new(HardConfig::default());
        let ra = run_detector(&mut a, &trace);
        let mut b = HardMachine::new(HardConfig::default());
        let rb = run_detector(&mut b, &trace);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(a.total_cycles(), b.total_cycles());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.bus().transactions(), b.bus().transactions());
    }

    /// Barrier pruning only removes reports, never adds them
    /// (on barrier-free programs the two configurations are identical).
    #[test]
    fn pruning_never_invents_races(p in arb_program(), seed in 0u64..4) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);
        let mut pruned = HardMachine::new(HardConfig::default());
        let rp = run_detector(&mut pruned, &trace);
        let raw_cfg = HardConfig { barrier_pruning: false, ..HardConfig::default() };
        let mut raw = HardMachine::new(raw_cfg);
        let rr = run_detector(&mut raw, &trace);
        // These programs have no barriers, so the configurations agree
        // exactly; with barriers pruning is a subset (checked in the
        // harness ablation).
        prop_assert_eq!(rp, rr);
    }

    /// Corrupted metadata never panics the machine, recovery is fully
    /// accounted (each parity detection triggers exactly one reset or
    /// rebuild), and faulted runs stay a pure function of
    /// (trace, plan).
    #[test]
    fn corrupted_metadata_never_panics(
        p in arb_program(),
        plan in arb_fault_plan(),
        seed in 0u64..4,
    ) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);
        let mut a = HardMachine::new(HardConfig::default().with_faults(plan));
        let ra = run_detector(&mut a, &trace);
        let s = a.fault_stats();
        prop_assert_eq!(
            s.conservative_resets + s.register_rebuilds,
            s.parity_detections
        );
        prop_assert!(
            s.parity_detections <= s.meta_bits_flipped + s.register_bits_flipped
        );
        let mut b = HardMachine::new(HardConfig::default().with_faults(plan));
        let rb = run_detector(&mut b, &trace);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(a.fault_stats(), b.fault_stats());
    }

    /// At fault rate zero the fault machinery is inert: it touches no
    /// statistics, reproduces the plain machine bit-for-bit, and never
    /// loses the injected bug.
    #[test]
    fn zero_rate_plan_never_loses_the_injected_bug(
        p in arb_racy_program(),
        seed in 0u64..4,
        plan_seed in any::<u64>(),
    ) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);
        let plan = FaultPlan { seed: plan_seed, ..FaultPlan::none() };
        let mut faulted = HardMachine::new(HardConfig::default().with_faults(plan));
        let rf = run_detector(&mut faulted, &trace);
        let mut plain = HardMachine::new(HardConfig::default());
        let rp = run_detector(&mut plain, &trace);
        prop_assert_eq!(&rf, &rp);
        prop_assert_eq!(faulted.fault_stats(), FaultStats::default());
        prop_assert!(
            rf.iter().any(|r| r.addr == RACE_ADDR),
            "injected race at {:?} lost (seed {})", RACE_ADDR, seed
        );
    }

    /// The batched window dispatch is the per-event path for every
    /// detecting machine, line-straddling accesses included: same
    /// reports, cycles, memory statistics and directory round trips.
    #[test]
    fn batched_runs_equal_scalar_runs(p in arb_program(), seed in 0u64..4) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);

        let mut scalar = HardMachine::new(HardConfig::default());
        let mut batched = HardMachine::new(HardConfig::default());
        prop_assert_eq!(
            run_detector(&mut scalar, &trace),
            run_detector_batched(&mut batched, &trace)
        );
        prop_assert_eq!(scalar.total_cycles(), batched.total_cycles());
        prop_assert_eq!(scalar.stats(), batched.stats());

        let mut scalar = DirectoryHardMachine::new(HardConfig::default());
        let mut batched = DirectoryHardMachine::new(HardConfig::default());
        prop_assert_eq!(
            run_detector(&mut scalar, &trace),
            run_detector_batched(&mut batched, &trace)
        );
        prop_assert_eq!(scalar.total_cycles(), batched.total_cycles());
        prop_assert_eq!(scalar.stats(), batched.stats());
        prop_assert_eq!(scalar.directory_requests(), batched.directory_requests());

        let mut scalar = HbMachine::new(HbMachineConfig::default());
        let mut batched = HbMachine::new(HbMachineConfig::default());
        prop_assert_eq!(
            run_detector(&mut scalar, &trace),
            run_detector_batched(&mut batched, &trace)
        );
        prop_assert_eq!(scalar.stats(), batched.stats());
    }
}
