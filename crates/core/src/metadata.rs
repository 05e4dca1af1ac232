//! Per-line metadata layouts and factories for the two hardware
//! detectors.
//!
//! A cache line holds one metadata slot per granule (Table 3 varies the
//! granularity from 4 B to 32 B within 32 B lines). For HARD a slot is
//! a bloom-filter candidate set plus LState; for the hardware
//! happens-before baseline it is a timestamp record.

use hard_bloom::BloomShape;
use hard_cache::MetaFactory;
use hard_hb::LineClocks;
use hard_lockset::PackedLineMeta;
use hard_types::CoreId;

/// HARD's per-line metadata: one candidate set + LState per granule,
/// stored in the hardware's packed form ([`PackedLineMeta`]) — one
/// `u64` word per granule. At the paper's default line granularity the
/// one word sits inline, so the metadata is 16 bytes and cloning it for
/// a broadcast or writeback allocates nothing; only the Table 3
/// sub-line sweeps keep their 2–8 words on the heap.
pub type HardLineMeta = PackedLineMeta;

/// Creates HARD metadata for freshly fetched lines: every granule gets
/// an all-ones BFVector (paper §3.1) in the Virgin state, so the first
/// *access* to each granule establishes its Exclusive owner.
///
/// The paper states the fetched line's LState is initialized to
/// Exclusive; at the default line granularity the fetch is triggered by
/// the very access that would perform the Virgin→Exclusive transition,
/// so the two formulations coincide. At sub-line granularities (the
/// Table 3 sweep) per-granule Virgin is the faithful generalization:
/// marking *unaccessed* granules as owned by the fetching core would
/// make every other thread's first touch of its own data look foreign
/// and flood the fine-granularity configurations with false alarms —
/// the opposite of the paper's Table 3 result.
#[derive(Clone, Copy, Debug)]
pub struct HardMetaFactory {
    /// Vector layout.
    pub shape: BloomShape,
    /// Granules per line.
    pub granules_per_line: usize,
}

impl MetaFactory for HardMetaFactory {
    type Meta = HardLineMeta;

    fn fresh(&self, _core: CoreId) -> HardLineMeta {
        PackedLineMeta::virgin(self.shape, self.granules_per_line)
    }
}

/// Hardware happens-before per-line metadata: one timestamp record per
/// granule.
///
/// The paper's default shape (Table 1: 32 B lines at line granularity)
/// has exactly one granule per line, which lives inline — the hierarchy
/// clones line metadata on every cache-to-cache transfer, L2 writeback
/// and broadcast, and with an inline record (whose [`LineClocks`] also
/// holds its 32-bit epochs inline for the paper's thread counts) those
/// clones are 32-byte memcpys instead of heap allocations, exactly like
/// HARD's [`PackedLineMeta`]. The Table 3 sub-line granularity sweeps
/// (16 B down to 4 B, two to eight granules per line) transparently
/// fall back to the heap; the inline arm is deliberately capped at one
/// granule because streaming workloads move every line several times
/// per miss — each inline byte is multiplied by tens of thousands of
/// fills per run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HbLineMeta {
    /// One granule (the default line-granularity shape): no heap.
    Inline(LineClocks),
    /// Two or more granules: heap storage.
    Heap(Vec<LineClocks>),
}

impl HbLineMeta {
    /// Empty histories for `granules_per_line` granules of
    /// `num_threads` threads each.
    #[must_use]
    pub fn fresh(granules_per_line: usize, num_threads: usize) -> HbLineMeta {
        if granules_per_line == 1 {
            HbLineMeta::Inline(LineClocks::new(num_threads))
        } else {
            HbLineMeta::Heap(
                (0..granules_per_line)
                    .map(|_| LineClocks::new(num_threads))
                    .collect(),
            )
        }
    }

    /// Number of granules.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            HbLineMeta::Inline(_) => 1,
            HbLineMeta::Heap(v) => v.len(),
        }
    }

    /// True iff the line has no granules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Index<usize> for HbLineMeta {
    type Output = LineClocks;
    fn index(&self, i: usize) -> &LineClocks {
        match self {
            HbLineMeta::Inline(g) => {
                assert!(i == 0, "granule {i} out of range for a 1-granule line");
                g
            }
            HbLineMeta::Heap(v) => &v[i],
        }
    }
}

impl std::ops::IndexMut<usize> for HbLineMeta {
    fn index_mut(&mut self, i: usize) -> &mut LineClocks {
        match self {
            HbLineMeta::Inline(g) => {
                assert!(i == 0, "granule {i} out of range for a 1-granule line");
                g
            }
            HbLineMeta::Heap(v) => &mut v[i],
        }
    }
}

/// Creates empty happens-before histories for freshly fetched lines.
#[derive(Clone, Copy, Debug)]
pub struct HbMetaFactory {
    /// Vector-clock width.
    pub num_threads: usize,
    /// Granules per line.
    pub granules_per_line: usize,
}

impl MetaFactory for HbMetaFactory {
    type Meta = HbLineMeta;

    fn fresh(&self, _core: CoreId) -> HbLineMeta {
        HbLineMeta::fresh(self.granules_per_line, self.num_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_lockset::LState;

    #[test]
    fn hard_factory_initializes_per_paper() {
        let f = HardMetaFactory {
            shape: BloomShape::B16,
            granules_per_line: 8,
        };
        let meta = f.fresh(CoreId(2));
        assert_eq!(meta.len(), 8);
        for gi in 0..meta.len() {
            let g = meta.granule(gi);
            assert_eq!(g.state, LState::Virgin, "first access sets Exclusive");
            assert_eq!(g.owner, None);
            assert_eq!(g.candidate, hard_bloom::BloomVector::full(BloomShape::B16));
        }
    }

    /// Pins the simulated lines at hardware size: a field added to the
    /// metadata, the line or the L2 sector storage must not silently
    /// regrow them. The streaming workloads move every line's metadata
    /// several times per miss, and a served session's memory is mostly
    /// its simulated L2, so each byte here is paid per line per fill
    /// and per session. A line carries its state, the L2's holder bits
    /// and its metadata; its tag and LRU stamp live only in the cache's
    /// packed mirrors.
    #[test]
    fn simulated_lines_stay_at_hardware_size() {
        use hard_cache::{L2Sectors, Line};
        use std::mem::size_of;
        assert!(size_of::<Line<HardLineMeta>>() <= 24, "HARD L1 line");
        assert!(
            size_of::<Line<L2Sectors<HardLineMeta>>>() <= 24,
            "HARD L2 line"
        );
        assert!(size_of::<HbLineMeta>() <= 32, "HB line metadata");
        assert!(size_of::<Line<L2Sectors<HbLineMeta>>>() <= 40, "HB L2 line");
        assert!(size_of::<Line<L2Sectors<()>>>() <= 24, "baseline L2 line");
    }

    #[test]
    fn hb_factory_initializes_empty() {
        let f = HbMetaFactory {
            num_threads: 4,
            granules_per_line: 1,
        };
        let meta = f.fresh(CoreId(0));
        assert_eq!(meta.len(), 1);
        assert!(meta[0].is_empty());
    }
}
