//! The set of L1 lines whose metadata an L2 displacement lost.

use hard_types::{Addr, FastHashMap};

/// `log2` of the lines per block: 64, one per bit of a mask word.
const BLOCK_SHIFT: u32 = 6;

/// A set of line addresses kept as one 64-bit mask per block of 64
/// consecutive lines, keyed by the block index `line >> (l1_shift + 6)`.
///
/// The hierarchy looks the set up on every L2 miss and adds to it on
/// every displacement. A dense run of lost lines shares one 16-byte
/// map entry; a sparse set (an uploaded trace may scatter its lines
/// anywhere) costs at most one entry per line, never a page of bits.
/// Consecutive block indices are not aligned, so the multiplicative
/// hash spreads them over the whole table, which line addresses
/// themselves (multiples of the line size) did not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LostLines {
    l1_shift: u32,
    blocks: FastHashMap<u64, u64>,
}

impl LostLines {
    /// An empty set of lines of `1 << l1_shift` bytes.
    pub(crate) fn new(l1_shift: u32) -> LostLines {
        LostLines {
            l1_shift,
            blocks: FastHashMap::default(),
        }
    }

    /// The block key and mask bit of the line containing `addr`.
    #[inline]
    fn locate(&self, addr: Addr) -> (u64, u64) {
        let line = addr.0 >> self.l1_shift;
        (line >> BLOCK_SHIFT, 1 << (line & 63))
    }

    /// Adds the line containing `addr`.
    pub(crate) fn insert(&mut self, addr: Addr) {
        let (block, bit) = self.locate(addr);
        *self.blocks.entry(block).or_insert(0) |= bit;
    }

    /// True iff the line containing `addr` was added.
    #[inline]
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        let (block, bit) = self.locate(addr);
        self.blocks.get(&block).is_some_and(|mask| mask & bit != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of one map entry.
    fn entry_bytes<K, V>(_: &FastHashMap<K, V>) -> usize {
        std::mem::size_of::<(K, V)>()
    }

    #[test]
    fn sparse_lost_lines_cost_one_entry_each() {
        // 32-byte lines 1 MiB apart: no two share a block.
        let mut lost = LostLines::new(5);
        let lines: Vec<Addr> = (0..10_000u64).map(|i| Addr(i << 20)).collect();
        for &line in &lines {
            lost.insert(line);
        }
        let bytes = lost.blocks.len() * entry_bytes(&lost.blocks);
        assert!(
            bytes <= 16 * lines.len(),
            "{bytes} B of entries for {} lines",
            lines.len()
        );
        for &line in &lines {
            assert!(lost.contains(Addr(line.0 + 31)), "{line} was added");
            for neighbour in [line.0 + 32, line.0 + 64 * 32, line.0.wrapping_sub(32)] {
                assert!(!lost.contains(Addr(neighbour)), "{neighbour:#x} was not");
            }
        }
    }

    #[test]
    fn a_dense_run_shares_its_blocks() {
        let mut lost = LostLines::new(6);
        for i in 0..640u64 {
            lost.insert(Addr(i * 64));
        }
        assert_eq!(lost.blocks.len(), 10);
        assert!(lost.contains(Addr(639 * 64 + 63)));
        assert!(!lost.contains(Addr(640 * 64)));
    }
}
