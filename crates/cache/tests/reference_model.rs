//! The set-associative cache checked against an executable reference
//! model (a per-set LRU list), over random operation sequences, and
//! its line ownership checked with metadata that counts its drops.

use hard_cache::{CState, CacheGeometry, SetAssocCache};
use hard_types::Addr;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A resident line in the reference: address, state, metadata.
type RefLine = (Addr, CState, u32);

/// The reference: per-set bounded LRU queues, most recent at the back.
struct RefCache {
    geom: CacheGeometry,
    sets: Vec<VecDeque<RefLine>>,
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
        let pos = set.iter().position(|(a, _, _)| *a == line)?;
        let entry = set.remove(pos).expect("present");
        set.push_back(entry);
        Some(entry.2)
    }

    /// Fills the line, returning the victim a full set gives up.
    fn fill(&mut self, addr: Addr, state: CState, meta: u32) -> Option<RefLine> {
        let line = self.geom.line_of(addr);
        let set = &mut self.sets[self.geom.set_index(line)];
        assert!(set.iter().all(|(a, _, _)| *a != line));
        let victim = if set.len() == self.geom.ways() as usize {
            set.pop_front()
        } else {
            None
        };
        set.push_back((line, state, meta));
        victim
    }

    fn remove(&mut self, addr: Addr) -> Option<(CState, u32)> {
        let line = self.geom.line_of(addr);
        let set = &mut self.sets[self.geom.set_index(line)];
        let pos = set.iter().position(|(a, _, _)| *a == line)?;
        set.remove(pos).map(|(_, s, m)| (s, m))
    }
}

const STATES: [CState; 3] = [CState::Shared, CState::Exclusive, CState::Modified];

#[derive(Clone, Debug)]
enum CacheOp {
    Probe(u64),
    FillIfAbsent(u64, usize, u32),
    Remove(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let op = prop_oneof![
        (0u64..24).prop_map(CacheOp::Probe),
        (0u64..24, 0usize..3, any::<u32>()).prop_map(|(l, s, m)| CacheOp::FillIfAbsent(l, s, m)),
        (0u64..24).prop_map(CacheOp::Remove),
    ];
    prop::collection::vec(op, 0..300)
}

/// Metadata that records, per value, how often it was dropped. Every
/// value, a clone included, takes a fresh id.
#[derive(Debug)]
struct Counted {
    id: usize,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl Counted {
    fn new(drops: &Rc<RefCell<Vec<u32>>>) -> Counted {
        let mut d = drops.borrow_mut();
        d.push(0);
        Counted {
            id: d.len() - 1,
            drops: Rc::clone(drops),
        }
    }

    fn drops(&self) -> u32 {
        self.drops.borrow()[self.id]
    }
}

impl Clone for Counted {
    fn clone(&self) -> Counted {
        Counted::new(&self.drops)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.id] += 1;
    }
}

#[derive(Clone, Debug)]
enum OwnOp {
    Fill(usize, u64),
    Remove(usize, u64),
    Clone(usize),
    DropCache(usize),
}

fn arb_own_ops() -> impl Strategy<Value = Vec<OwnOp>> {
    // Fills weigh double, so sets fill up and evict.
    let op = prop_oneof![
        (0usize..4, 0u64..24).prop_map(|(c, l)| OwnOp::Fill(c, l)),
        (0usize..4, 0u64..24).prop_map(|(c, l)| OwnOp::Fill(c, l)),
        (0usize..4, 0u64..24).prop_map(|(c, l)| OwnOp::Remove(c, l)),
        (0usize..4).prop_map(OwnOp::Clone),
        (0usize..4).prop_map(OwnOp::DropCache),
    ];
    prop::collection::vec(op, 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every probe/fill/remove outcome — including the LRU victim
    /// choice — matches the reference model exactly: `evict` runs once
    /// per full-set fill, on the model's victim with its state and
    /// metadata, and never on a set with room.
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
                CacheOp::FillIfAbsent(l, s, m) => {
                    let addr = Addr(l * 32);
                    // `fill` requires absence; mirror a real user.
                    if sut.peek(addr).is_none() {
                        let (line, set) = geom.line_and_set(addr);
                        let mut evicted = Vec::new();
                        let slot = sut.fill(line, set, STATES[s], m, |a, victim| {
                            evicted.push((a, victim.state, victim.meta));
                        });
                        let want = reference.fill(addr, STATES[s], m);
                        prop_assert_eq!(evicted, Vec::from_iter(want), "victim must match LRU");
                        prop_assert_eq!(sut.peek_slot(slot, addr).map(|l| l.meta), Some(m));
                    }
                }
                CacheOp::Remove(l) => {
                    let addr = Addr(l * 32);
                    let meta = sut.peek(addr).map(|line| line.meta);
                    let got = sut.remove(addr).map(|state| (state, meta.expect("resident")));
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

    /// Fills, removals, clones and dropped caches drop every line's
    /// metadata exactly once: an evicted or removed line as it leaves,
    /// and never before `evict` has seen it.
    #[test]
    fn every_line_is_dropped_exactly_once(ops in arb_own_ops()) {
        let geom = CacheGeometry::new(256, 2, 32); // 4 sets x 2 ways
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut caches: Vec<SetAssocCache<Counted>> = vec![SetAssocCache::new(geom)];
        for op in ops {
            if caches.is_empty() {
                caches.push(SetAssocCache::new(geom));
            }
            let n = caches.len();
            match op {
                OwnOp::Fill(c, l) => {
                    let cache = &mut caches[c % n];
                    let (line, set) = geom.line_and_set(Addr(l * 32));
                    if cache.peek(line).is_none() {
                        let mut victim = None;
                        cache.fill(line, set, CState::Exclusive, Counted::new(&drops), |_, v| {
                            assert_eq!(v.meta.drops(), 0, "evict sees a live line");
                            victim = Some(v.meta.id);
                        });
                        if let Some(id) = victim {
                            prop_assert_eq!(drops.borrow()[id], 1, "victim dropped on eviction");
                        }
                    }
                }
                OwnOp::Remove(c, l) => {
                    let cache = &mut caches[c % n];
                    let id = cache.peek(Addr(l * 32)).map(|line| line.meta.id);
                    prop_assert_eq!(cache.remove(Addr(l * 32)).is_some(), id.is_some());
                    if let Some(id) = id {
                        prop_assert_eq!(drops.borrow()[id], 1, "line dropped on removal");
                    }
                }
                OwnOp::Clone(c) => {
                    let copy = caches[c % n].clone();
                    caches.push(copy);
                }
                OwnOp::DropCache(c) => {
                    caches.swap_remove(c % n);
                }
            }
            for cache in &caches {
                prop_assert!(cache.iter().all(|(_, line)| line.meta.drops() == 0));
            }
        }
        drop(caches);
        prop_assert!(drops.borrow().iter().all(|&d| d == 1), "{:?}", drops.borrow());
    }
}
