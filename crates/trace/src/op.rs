//! Program-level operations.

use hard_types::{AccessKind, Addr, BarrierId, LockId, SiteId, ThreadId};
use std::fmt;

/// One operation of a simulated thread.
///
/// Memory accesses carry a byte size (1–8; SPLASH-2 data are word/
/// double-word accesses) and every operation that corresponds to a
/// program statement carries the static [`SiteId`] of that statement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// A load of `size` bytes at `addr`.
    Read {
        /// First byte of the accessed range.
        addr: Addr,
        /// Access width in bytes (1–8).
        size: u8,
        /// Static site of the load statement.
        site: SiteId,
    },
    /// A store of `size` bytes at `addr`.
    Write {
        /// First byte of the accessed range.
        addr: Addr,
        /// Access width in bytes (1–8).
        size: u8,
        /// Static site of the store statement.
        site: SiteId,
    },
    /// Acquire `lock` (blocks while another thread holds it).
    Lock {
        /// The lock being acquired.
        lock: LockId,
        /// Static site of the acquire statement.
        site: SiteId,
    },
    /// Release `lock`.
    Unlock {
        /// The lock being released.
        lock: LockId,
        /// Static site of the release statement.
        site: SiteId,
    },
    /// Arrive at `barrier` and wait for all threads.
    Barrier {
        /// The barrier being arrived at.
        barrier: BarrierId,
        /// Static site of the barrier statement.
        site: SiteId,
    },
    /// Spawn `child`, which must not have started yet. The child's
    /// program begins executing after this event.
    Fork {
        /// The spawned thread.
        child: ThreadId,
        /// Static site of the fork statement.
        site: SiteId,
    },
    /// Wait for `child` to finish its program.
    Join {
        /// The thread being joined.
        child: ThreadId,
        /// Static site of the join statement.
        site: SiteId,
    },
    /// `cycles` of private computation (no memory traffic); consumed by
    /// the timing model only.
    Compute {
        /// Simulated cycle count.
        cycles: u32,
    },
}

impl Op {
    /// The static site, if the operation has one.
    #[must_use]
    pub fn site(&self) -> Option<SiteId> {
        match *self {
            Op::Read { site, .. }
            | Op::Write { site, .. }
            | Op::Lock { site, .. }
            | Op::Unlock { site, .. }
            | Op::Barrier { site, .. }
            | Op::Fork { site, .. }
            | Op::Join { site, .. } => Some(site),
            Op::Compute { .. } => None,
        }
    }

    /// For memory accesses, the `(addr, size, kind, site)` tuple.
    #[must_use]
    pub fn as_access(&self) -> Option<(Addr, u8, AccessKind, SiteId)> {
        match *self {
            Op::Read { addr, size, site } => Some((addr, size, AccessKind::Read, site)),
            Op::Write { addr, size, site } => Some((addr, size, AccessKind::Write, site)),
            _ => None,
        }
    }

    /// True for memory accesses.
    #[must_use]
    pub fn is_access(&self) -> bool {
        matches!(self, Op::Read { .. } | Op::Write { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Read { addr, size, site } => write!(f, "rd {addr}+{size} @{site}"),
            Op::Write { addr, size, site } => write!(f, "wr {addr}+{size} @{site}"),
            Op::Lock { lock, site } => write!(f, "lock {lock} @{site}"),
            Op::Unlock { lock, site } => write!(f, "unlock {lock} @{site}"),
            Op::Barrier { barrier, site } => write!(f, "barrier {barrier} @{site}"),
            Op::Fork { child, site } => write!(f, "fork {child} @{site}"),
            Op::Join { child, site } => write!(f, "join {child} @{site}"),
            Op::Compute { cycles } => write!(f, "compute {cycles}cy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_extraction() {
        assert_eq!(
            Op::Read {
                addr: Addr(4),
                size: 4,
                site: SiteId(9)
            }
            .site(),
            Some(SiteId(9))
        );
        assert_eq!(Op::Compute { cycles: 10 }.site(), None);
    }

    #[test]
    fn access_extraction() {
        let w = Op::Write {
            addr: Addr(8),
            size: 2,
            site: SiteId(1),
        };
        assert_eq!(
            w.as_access(),
            Some((Addr(8), 2, AccessKind::Write, SiteId(1)))
        );
        assert!(w.is_access());
        let l = Op::Lock {
            lock: LockId(4),
            site: SiteId(2),
        };
        assert_eq!(l.as_access(), None);
        assert!(!l.is_access());
    }

    #[test]
    fn display_is_informative() {
        let op = Op::Barrier {
            barrier: BarrierId(2),
            site: SiteId(3),
        };
        assert_eq!(format!("{op}"), "barrier barrier2 @site3");
    }
}
