//! Property-based tests for the program model and scheduler.

use hard_trace::{packed_event, Op, Program, SchedConfig, Scheduler, ThreadProgram, TraceEvent};
use hard_types::{Addr, BarrierId, LockId, SiteId, ThreadId};
use proptest::prelude::*;

/// A random well-formed thread program: balanced lock/unlock around
/// accesses, plus unlocked accesses and compute ops. Every thread gets
/// the same number of arrivals at barrier 0.
fn arb_program(max_threads: usize) -> impl Strategy<Value = Program> {
    let op_block = prop_oneof![
        // Unlocked access.
        (0u64..64, any::<bool>()).prop_map(|(w, wr)| {
            vec![if wr {
                Op::Write {
                    addr: Addr(0x1000 + w * 4),
                    size: 4,
                    site: SiteId(w as u32),
                }
            } else {
                Op::Read {
                    addr: Addr(0x1000 + w * 4),
                    size: 4,
                    site: SiteId(w as u32),
                }
            }]
        }),
        // A balanced critical section.
        (0u64..4, 0u64..64).prop_map(|(l, w)| {
            let lock = LockId(0x4000_0000 + l * 4);
            vec![
                Op::Lock {
                    lock,
                    site: SiteId(900 + l as u32),
                },
                Op::Write {
                    addr: Addr(0x1000 + w * 4),
                    size: 4,
                    site: SiteId(w as u32),
                },
                Op::Unlock {
                    lock,
                    site: SiteId(950 + l as u32),
                },
            ]
        }),
        // Compute.
        (1u32..50).prop_map(|c| vec![Op::Compute { cycles: c }]),
    ];
    let thread = prop::collection::vec(op_block, 0..12).prop_map(|blocks| {
        let mut tp = ThreadProgram::new();
        for b in blocks {
            for op in b {
                tp.push(op);
            }
        }
        tp
    });
    (2..=max_threads).prop_flat_map(move |n| {
        prop::collection::vec(thread.clone(), n..=n).prop_map(|mut threads| {
            // One barrier arrival per thread keeps arrivals balanced.
            for tp in &mut threads {
                tp.barrier(BarrierId(0), SiteId(999));
            }
            Program::new(threads)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated programs are well-formed.
    #[test]
    fn generated_programs_validate(p in arb_program(4)) {
        prop_assert_eq!(p.validate(), Ok(()));
    }

    /// The scheduler emits every operation exactly once, in per-thread
    /// program order.
    #[test]
    fn scheduler_preserves_program_order(p in arb_program(4), seed in 0u64..32) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 5 }).run(&p);
        prop_assert_eq!(trace.ops().count(), p.total_ops());
        let mut pcs = vec![0usize; p.num_threads()];
        for (tid, op) in trace.ops() {
            let t = tid.index();
            prop_assert_eq!(*op, p.threads()[t].ops()[pcs[t]]);
            pcs[t] += 1;
        }
        for (t, pc) in pcs.iter().enumerate() {
            prop_assert_eq!(*pc, p.threads()[t].len(), "thread {} incomplete", t);
        }
    }

    /// Identical seeds give identical traces; the trace is a pure
    /// function of (program, seed).
    #[test]
    fn scheduler_is_deterministic(p in arb_program(4), seed in 0u64..16) {
        let a = Scheduler::new(SchedConfig { seed, max_quantum: 7 }).run(&p);
        let b = Scheduler::new(SchedConfig { seed, max_quantum: 7 }).run(&p);
        prop_assert_eq!(a, b);
    }

    /// Mutual exclusion: between a lock's acquire by thread T and its
    /// release, no other thread acquires it.
    #[test]
    fn mutual_exclusion_holds(p in arb_program(4), seed in 0u64..16) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 3 }).run(&p);
        let mut owner: std::collections::BTreeMap<LockId, ThreadId> = Default::default();
        for (tid, op) in trace.ops() {
            match *op {
                Op::Lock { lock, .. } => {
                    prop_assert!(owner.insert(lock, tid).is_none(), "double acquire");
                }
                Op::Unlock { lock, .. } => {
                    prop_assert_eq!(owner.remove(&lock), Some(tid), "foreign release");
                }
                _ => {}
            }
        }
        prop_assert!(owner.is_empty(), "locks leaked at exit");
    }

    /// Barrier semantics: exactly one completion marker, after every
    /// thread's arrival.
    #[test]
    fn barrier_completes_after_all_arrivals(p in arb_program(4), seed in 0u64..8) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 4 }).run(&p);
        let completes: Vec<usize> = trace
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, TraceEvent::BarrierComplete { .. }).then_some(i))
            .collect();
        prop_assert_eq!(completes.len(), 1);
        let arrivals: Vec<usize> = trace
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                matches!(e, TraceEvent::Op { op: Op::Barrier { .. }, .. }).then_some(i)
            })
            .collect();
        prop_assert_eq!(arrivals.len(), p.num_threads());
        prop_assert!(arrivals.iter().all(|&a| a < completes[0]));
    }

    /// Every scheduled trace is well-formed: the stream validator
    /// accepts exactly what the scheduler can produce.
    #[test]
    fn scheduled_traces_validate(p in arb_program(4), seed in 0u64..8) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 6 }).run(&p);
        prop_assert_eq!(trace.validate(), Ok(()));
    }
}

/// An arbitrary single event covering every variant at full payload
/// width (thread ids bounded by the packed encoding's 20-bit field).
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let thread = 0u32..=packed_event::MAX_PACKED_THREAD;
    let site = any::<u32>().prop_map(SiteId);
    prop_oneof![
        (
            thread.clone(),
            any::<u64>(),
            any::<u8>(),
            site.clone(),
            any::<bool>()
        )
            .prop_map(|(t, a, s, site, wr)| {
                let (addr, size) = (Addr(a), s);
                TraceEvent::Op {
                    thread: ThreadId(t),
                    op: if wr {
                        Op::Write { addr, size, site }
                    } else {
                        Op::Read { addr, size, site }
                    },
                }
            }),
        (thread.clone(), any::<u64>(), site.clone(), any::<bool>()).prop_map(
            |(t, l, site, acq)| TraceEvent::Op {
                thread: ThreadId(t),
                op: if acq {
                    Op::Lock {
                        lock: LockId(l),
                        site,
                    }
                } else {
                    Op::Unlock {
                        lock: LockId(l),
                        site,
                    }
                },
            }
        ),
        (thread.clone(), any::<u32>(), site.clone()).prop_map(|(t, b, site)| TraceEvent::Op {
            thread: ThreadId(t),
            op: Op::Barrier {
                barrier: BarrierId(b),
                site,
            },
        }),
        (thread.clone(), any::<u32>()).prop_map(|(t, c)| TraceEvent::Op {
            thread: ThreadId(t),
            op: Op::Compute { cycles: c },
        }),
        (thread, any::<u32>(), site, any::<bool>()).prop_map(|(t, c, site, fork)| TraceEvent::Op {
            thread: ThreadId(t),
            op: if fork {
                Op::Fork {
                    child: ThreadId(c),
                    site,
                }
            } else {
                Op::Join {
                    child: ThreadId(c),
                    site,
                }
            },
        }),
        any::<u32>().prop_map(|b| TraceEvent::BarrierComplete {
            barrier: BarrierId(b)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fixed-width packing is lossless on every event variant at
    /// full payload width, both as words and as bytes.
    #[test]
    fn packed_event_roundtrips(e in arb_event()) {
        let p = packed_event::PackedEvent::pack(&e).unwrap();
        prop_assert_eq!(p.unpack().unwrap(), e);
        let b = p.to_bytes();
        prop_assert_eq!(packed_event::PackedEvent::from_bytes(&b), p);
        prop_assert_eq!(packed_event::PackedEvent::from_bytes(&b).unpack().unwrap(), e);
    }

    /// Unpacking an arbitrary record pair never panics: it either
    /// yields an event that re-packs to the same words, or reports a
    /// bad tag.
    #[test]
    fn arbitrary_records_unpack_total(w0 in any::<u64>(), w1 in any::<u64>()) {
        let p = packed_event::PackedEvent { w0, w1 };
        match p.unpack() {
            Ok(e) => {
                let back = packed_event::PackedEvent::pack(&e).unwrap();
                // Fields a variant does not carry are zeroed by the
                // packer, so only the fields the event kept must agree.
                prop_assert_eq!(back.unpack().unwrap(), e);
            }
            Err(packed_event::PackError::BadTag(t)) => prop_assert!(t > 8),
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A packed trace is a lossless image of the scheduled trace, and
    /// its streaming iterator yields the exact event sequence.
    #[test]
    fn packed_trace_roundtrips(p in arb_program(4), seed in 0u64..8) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 6 }).run(&p);
        let packed = packed_event::PackedTrace::from_trace(&trace).unwrap();
        prop_assert_eq!(packed.len(), trace.events.len());
        prop_assert_eq!(&packed.to_trace(), &trace);
        let streamed: Vec<TraceEvent> = packed.iter().collect();
        prop_assert_eq!(streamed, trace.events.clone());
        // And adopting the raw bytes revalidates to the same trace.
        let adopted = packed_event::PackedTrace::from_bytes(
            trace.num_threads as u32,
            packed.bytes().to_vec(),
        )
        .unwrap();
        prop_assert_eq!(adopted, packed);
    }

    /// The double-buffered chunk reader reassembles any packed stream
    /// exactly, for any chunk size, and never splits a record.
    #[test]
    fn chunked_reader_is_exact(p in arb_program(4), seed in 0u64..8, records in 1usize..200) {
        let trace = Scheduler::new(SchedConfig { seed, max_quantum: 6 }).run(&p);
        let packed = packed_event::PackedTrace::from_trace(&trace).unwrap();
        let mut r = packed_event::ChunkedReader::spawn(
            std::io::Cursor::new(packed.bytes().to_vec()),
            records,
        );
        let mut got = Vec::new();
        while let Some(chunk) = r.next_chunk() {
            let chunk = chunk.unwrap();
            prop_assert_eq!(chunk.len() % packed_event::RECORD_BYTES, 0);
            got.extend_from_slice(&chunk);
        }
        prop_assert_eq!(got, packed.bytes().to_vec());
    }
}
