//! Address-space and site allocation for generated workloads.
//!
//! The simulated address space is carved into disjoint regions so the
//! workload pieces cannot alias by accident:
//!
//! * locks at `0x1000_0000`, spaced 4 bytes so the first 256 locks have
//!   pairwise distinct bloom signatures (the signature uses address
//!   bits 2–9, Figure 4);
//! * shared data at `0x2000_0000` (bump-allocated with alignment);
//! * per-thread private data at `0x4000_0000 + t * 0x0100_0000`.

use hard_types::{Addr, LockId, SiteId};

/// Base of the lock region.
pub const LOCK_REGION: u64 = 0x1000_0000;
/// Base of the shared-data region.
pub const SHARED_REGION: u64 = 0x2000_0000;
/// Base of the private region (per-thread stripes).
pub const PRIVATE_REGION: u64 = 0x4000_0000;
/// Stride between threads' private stripes.
pub const PRIVATE_STRIDE: u64 = 0x0100_0000;

/// Allocates locks, shared variables, private cursors and static sites.
#[derive(Clone, Debug)]
pub struct Layout {
    next_lock: u64,
    next_shared: u64,
    next_site: u32,
    next_private: Vec<u64>,
}

impl Layout {
    /// A fresh layout for `num_threads` threads.
    #[must_use]
    pub fn new(num_threads: usize) -> Layout {
        Layout {
            next_lock: 0,
            next_shared: SHARED_REGION,
            next_site: 1,
            next_private: (0..num_threads as u64)
                .map(|t| PRIVATE_REGION + t * PRIVATE_STRIDE)
                .collect(),
        }
    }

    /// Allocates a new lock.
    ///
    /// The first 256 locks have pairwise distinct 16-bit bloom
    /// signatures; the paper's applications use far fewer.
    pub fn lock(&mut self) -> LockId {
        let id = LockId(LOCK_REGION + self.next_lock * 4);
        self.next_lock += 1;
        id
    }

    /// Allocates `bytes` of shared data aligned to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `align` is a power of two.
    pub fn shared(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next_shared + align - 1) & !(align - 1);
        self.next_shared = base + bytes;
        Addr(base)
    }

    /// Allocates a fresh cache line (32 B, line-aligned) of shared data
    /// — the footing for false-sharing clusters.
    pub fn shared_line(&mut self) -> Addr {
        self.shared(32, 32)
    }

    /// Allocates a 4-byte shared word on its own cache line, so that it
    /// cannot false-share with anything else at any granularity.
    pub fn isolated_word(&mut self) -> Addr {
        self.shared(32, 32)
    }

    /// Allocates `bytes` of private data for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the thread index is out of range or the stripe
    /// overflows.
    pub fn private(&mut self, thread: usize, bytes: u64) -> Addr {
        let cursor = &mut self.next_private[thread];
        let base = *cursor;
        *cursor += bytes;
        assert!(
            *cursor <= PRIVATE_REGION + (thread as u64 + 1) * PRIVATE_STRIDE,
            "thread {thread} private stripe overflow"
        );
        Addr(base)
    }

    /// Allocates a fresh static site id.
    pub fn site(&mut self) -> SiteId {
        let s = SiteId(self.next_site);
        self.next_site += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_bloom::BloomShape;

    #[test]
    fn first_256_locks_have_distinct_signatures() {
        let mut l = Layout::new(1);
        let sigs: Vec<u64> = (0..256)
            .map(|_| BloomShape::B16.signature(l.lock()))
            .collect();
        for i in 0..sigs.len() {
            for j in 0..i {
                assert_ne!(sigs[i], sigs[j], "locks {i} and {j} collide");
            }
        }
    }

    #[test]
    fn shared_allocation_respects_alignment() {
        let mut l = Layout::new(1);
        let a = l.shared(4, 4);
        let b = l.shared(8, 32);
        assert_eq!(a.0 % 4, 0);
        assert_eq!(b.0 % 32, 0);
        assert!(b.0 >= a.0 + 4);
    }

    #[test]
    fn isolated_words_never_share_lines() {
        let mut l = Layout::new(1);
        let a = l.isolated_word();
        let b = l.isolated_word();
        assert_ne!(a.0 / 32, b.0 / 32);
    }

    #[test]
    fn private_stripes_are_disjoint() {
        let mut l = Layout::new(4);
        let a = l.private(0, 1024);
        let b = l.private(1, 1024);
        assert!(b.0 - a.0 >= PRIVATE_STRIDE);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn private_overflow_detected() {
        let mut l = Layout::new(2);
        l.private(0, PRIVATE_STRIDE + 1);
    }

    #[test]
    fn sites_are_sequential_and_unique() {
        let mut l = Layout::new(1);
        let a = l.site();
        let b = l.site();
        assert_ne!(a, b);
    }
}
