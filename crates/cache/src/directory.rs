//! Directory-resident detection metadata (paper §3.4, second half).
//!
//! "For a directory-based protocol, the candidate set and the LState
//! are stored in the directory instead of together with each cache
//! line. Every shared access gets the candidate set and LState
//! information from the directory, and then puts the new information
//! back."
//!
//! [`MetaDirectory`] is that home-node store: one metadata entry per
//! cached line, created on first access, retired when the line is
//! displaced from the L2 (the detection window is the same as the
//! snoopy design's). Management is simpler — there is exactly one copy,
//! so no broadcasts — but *every* monitored access performs a directory
//! round trip, even L1 hits, which is the §3.4 traffic trade-off the
//! `hard` crate's directory machine measures.

use crate::policy::MetaFactory;
use hard_types::{Addr, CoreId, FastHashMap};

/// The per-line metadata directory.
///
/// Entries live in a slab (stable slot indices, tombstoned on retire,
/// slots recycled through a free list) behind a hash index, which gives
/// the home node the same prepared-probe treatment PR 8 gave the snoopy
/// caches: a same-line run of accesses revalidates one remembered slot
/// instead of re-walking the map — the dominant pattern, since every
/// monitored access round-trips here, even L1 hits. Semantically
/// identical to the previous ordered-map store (the flash callbacks are
/// per-entry independent, so iteration order is unobservable).
///
/// The index is keyed by line index (`line >> line_shift`), not by the
/// aligned line address: [`FastHasher`](hard_types::FastHasher) takes
/// the bucket from the low bits of `key * SEED`, and an aligned key's
/// low bits are zero, so line addresses would start their probes at
/// one bucket in `line_bytes`.
#[derive(Clone, Debug)]
pub struct MetaDirectory<F: MetaFactory> {
    factory: F,
    /// `log2` of the line size.
    line_shift: u32,
    index: FastHashMap<u64, u32>,
    slab: Vec<Option<(Addr, F::Meta)>>,
    free: Vec<u32>,
    /// The slot that served the previous round trip — validated
    /// (address match on a live slot) before every reuse.
    hot: Option<(Addr, u32)>,
    requests: u64,
}

impl<F: MetaFactory> MetaDirectory<F> {
    /// An empty directory of lines of `line_bytes` bytes (a power of
    /// two).
    #[must_use]
    pub fn new(factory: F, line_bytes: u64) -> MetaDirectory<F> {
        debug_assert!(line_bytes.is_power_of_two());
        MetaDirectory {
            factory,
            line_shift: line_bytes.trailing_zeros(),
            index: FastHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            hot: None,
            requests: 0,
        }
    }

    /// The index key of `line`: its line index.
    #[inline]
    fn key(&self, line: Addr) -> u64 {
        line.0 >> self.line_shift
    }

    /// Gets (creating if absent) the metadata entry for `line`,
    /// counting one get+put-back round trip.
    ///
    /// `core` initializes fresh entries, mirroring the fetch-time
    /// initialization of the snoopy design.
    pub fn access(&mut self, line: Addr, core: CoreId) -> &mut F::Meta {
        self.requests += 1;
        // Hot-entry fast path: the previous round trip's slot, if it
        // still holds this line (retire tombstones the slot and the
        // free list may recycle it, so revalidate the stored address).
        if let Some((haddr, hslot)) = self.hot {
            if haddr == line
                && self
                    .slab
                    .get(hslot as usize)
                    .is_some_and(|s| s.as_ref().is_some_and(|(a, _)| *a == line))
            {
                let entry = self.slab[hslot as usize]
                    .as_mut()
                    .expect("validated hot entry");
                return &mut entry.1;
            }
        }
        let key = self.key(line);
        let slot = match self.index.get(&key) {
            Some(&s) => s,
            None => {
                let meta = self.factory.fresh(core);
                let s = if let Some(s) = self.free.pop() {
                    self.slab[s as usize] = Some((line, meta));
                    s
                } else {
                    self.slab.push(Some((line, meta)));
                    u32::try_from(self.slab.len() - 1).expect("slab outgrew u32 slots")
                };
                self.index.insert(key, s);
                s
            }
        };
        self.hot = Some((line, slot));
        let entry = self.slab[slot as usize].as_mut().expect("indexed entry");
        &mut entry.1
    }

    /// Reads the entry without counting a request (tests/inspection).
    #[must_use]
    pub fn peek(&self, line: Addr) -> Option<&F::Meta> {
        let &slot = self.index.get(&self.key(line))?;
        self.slab[slot as usize].as_ref().map(|(_, m)| m)
    }

    /// Retires the entry for a line displaced from the L2; the
    /// detection metadata is lost exactly as in the in-cache design.
    pub fn retire(&mut self, line: Addr) {
        if let Some(slot) = self.index.remove(&self.key(line)) {
            self.slab[slot as usize] = None;
            self.free.push(slot);
            if self.hot.is_some_and(|(a, _)| a == line) {
                self.hot = None;
            }
        }
    }

    /// Applies `f` to every live entry (barrier flash-reset).
    pub fn flash(&mut self, mut f: impl FnMut(&mut F::Meta)) {
        for entry in self.slab.iter_mut().flatten() {
            f(&mut entry.1);
        }
    }

    /// Number of directory round trips performed.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the directory holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug)]
    struct CountFactory;

    impl MetaFactory for CountFactory {
        type Meta = u32;

        fn fresh(&self, core: CoreId) -> u32 {
            core.0 * 100
        }
    }

    #[test]
    fn access_creates_then_reuses() {
        let mut d = MetaDirectory::new(CountFactory, 32);
        assert!(d.is_empty());
        let m = d.access(Addr(0x40), CoreId(2));
        assert_eq!(*m, 200);
        *m = 7;
        assert_eq!(*d.access(Addr(0x40), CoreId(0)), 7, "entry persists");
        assert_eq!(d.requests(), 2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn retire_loses_the_entry() {
        let mut d = MetaDirectory::new(CountFactory, 32);
        *d.access(Addr(0x40), CoreId(0)) = 9;
        d.retire(Addr(0x40));
        assert!(d.peek(Addr(0x40)).is_none());
        // Re-access re-initializes, as after an L2 displacement.
        assert_eq!(*d.access(Addr(0x40), CoreId(1)), 100);
    }

    #[test]
    fn flash_touches_all_entries() {
        let mut d = MetaDirectory::new(CountFactory, 32);
        d.access(Addr(0x40), CoreId(0));
        d.access(Addr(0x80), CoreId(1));
        d.flash(|m| *m = 1);
        assert_eq!(*d.peek(Addr(0x40)).unwrap(), 1);
        assert_eq!(*d.peek(Addr(0x80)).unwrap(), 1);
    }

    #[test]
    fn consecutive_lines_start_their_probes_all_over_the_index() {
        // hashbrown starts a key's probe at bucket `hash & mask`.
        use std::hash::BuildHasher;
        let d = MetaDirectory::new(CountFactory, 32);
        let homes: std::collections::HashSet<u64> = (0..4096u64)
            .map(|i| d.index.hasher().hash_one(d.key(Addr(i * 32))) & 4095)
            .collect();
        assert!(homes.len() >= 4000, "{} distinct homes", homes.len());
    }
}
