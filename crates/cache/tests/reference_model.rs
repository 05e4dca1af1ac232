//! The set-associative cache checked against an executable reference
//! model (a per-set LRU list), over random operation sequences.

use hard_cache::{CState, CacheGeometry, SetAssocCache};
use hard_types::Addr;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The reference: per-set bounded LRU queues, most recent at the back.
struct RefCache {
    geom: CacheGeometry,
    sets: Vec<VecDeque<(Addr, u32)>>,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> RefCache {
        RefCache {
            geom,
            sets: (0..geom.num_sets()).map(|_| VecDeque::new()).collect(),
        }
    }

    fn probe(&mut self, addr: Addr) -> Option<u32> {
        let line = self.geom.line_of(addr);
        let set = &mut self.sets[self.geom.set_index(line)];
        let pos = set.iter().position(|(a, _)| *a == line)?;
        let entry = set.remove(pos).expect("present");
        set.push_back(entry);
        Some(entry.1)
    }

    fn insert(&mut self, addr: Addr, meta: u32) -> Option<Addr> {
        let line = self.geom.line_of(addr);
        let set = &mut self.sets[self.geom.set_index(line)];
        assert!(set.iter().all(|(a, _)| *a != line));
        let victim = if set.len() == self.geom.ways() as usize {
            set.pop_front().map(|(a, _)| a)
        } else {
            None
        };
        set.push_back((line, meta));
        victim
    }

    fn remove(&mut self, addr: Addr) -> Option<u32> {
        let line = self.geom.line_of(addr);
        let set = &mut self.sets[self.geom.set_index(line)];
        let pos = set.iter().position(|(a, _)| *a == line)?;
        set.remove(pos).map(|(_, m)| m)
    }
}

#[derive(Clone, Debug)]
enum CacheOp {
    Probe(u64),
    InsertIfAbsent(u64, u32),
    Remove(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let op = prop_oneof![
        (0u64..24).prop_map(CacheOp::Probe),
        (0u64..24, any::<u32>()).prop_map(|(l, m)| CacheOp::InsertIfAbsent(l, m)),
        (0u64..24).prop_map(CacheOp::Remove),
    ];
    prop::collection::vec(op, 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every probe/insert/remove outcome — including the LRU victim
    /// choice — matches the reference model exactly.
    #[test]
    fn matches_the_reference_model(ops in arb_ops()) {
        let geom = CacheGeometry::new(256, 2, 32); // 4 sets x 2 ways
        let mut sut: SetAssocCache<u32> = SetAssocCache::new(geom);
        let mut reference = RefCache::new(geom);

        for op in ops {
            match op {
                CacheOp::Probe(l) => {
                    let addr = Addr(l * 32);
                    let got = sut.probe(addr).map(|line| line.meta);
                    let want = reference.probe(addr);
                    prop_assert_eq!(got, want);
                }
                CacheOp::InsertIfAbsent(l, m) => {
                    let addr = Addr(l * 32);
                    // `insert` requires absence; mirror a real user.
                    if sut.peek(addr).is_none() {
                        let (line, set) = geom.line_and_set(addr);
                        let got = sut
                            .insert(line, set, CState::Exclusive, m)
                            .1
                            .map(|e| e.addr);
                        let want = reference.insert(addr, m);
                        prop_assert_eq!(got, want, "victim choice must match LRU");
                    }
                }
                CacheOp::Remove(l) => {
                    let addr = Addr(l * 32);
                    let got = sut.remove(addr).map(|line| line.meta);
                    let want = reference.remove(addr);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(
                sut.occupancy(),
                reference.sets.iter().map(VecDeque::len).sum::<usize>()
            );
        }
    }
}
