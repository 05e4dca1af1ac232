//! Identifier newtypes shared across the workspace.
//!
//! These are deliberately thin (`pub` tuple fields, `Copy`): they are
//! compound, passive identifiers in the C spirit, and the simulator
//! manipulates millions of them per run.

use std::fmt;

/// A byte address in the simulated flat physical address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the address `bytes` bytes above `self`.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// The address of a lock object.
///
/// Following Eraser and HARD, a lock is identified by the address of the
/// lock variable itself; HARD hashes this address into a bloom-filter
/// vector (paper §3.2, Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u64);

impl LockId {
    /// The lock's address as a raw [`Addr`].
    #[must_use]
    pub fn addr(self) -> Addr {
        Addr(self.0)
    }
}

impl fmt::Debug for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockId({:#x})", self.0)
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock@{:#x}", self.0)
    }
}

/// A simulated application thread.
///
/// The evaluation model pins thread *i* to core *i* (the paper runs one
/// SPLASH-2 worker per core on a 4-core CMP), so conversion to
/// [`CoreId`] is provided.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// Core the thread is pinned to (identity mapping).
    #[must_use]
    pub fn core(self) -> CoreId {
        CoreId(self.0)
    }

    /// The thread id as a usable index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A processor core of the simulated CMP.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The core id as a usable index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A barrier object, identified by a small integer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BarrierId(pub u32);

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "barrier{}", self.0)
    }
}

/// A static source-code location.
///
/// The paper counts false positives "at source code level": every
/// reported race is mapped back to the static program point that issued
/// the access, and duplicates are collapsed. Workload generators tag
/// every operation with a `SiteId` to model this.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A number of simulated processor cycles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating subtraction, useful for overhead computations.
    #[must_use]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cy", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "rd"),
            AccessKind::Write => write!(f, "wr"),
        }
    }
}

/// A power-of-two monitoring granularity in bytes.
///
/// HARD stores candidate sets per cache line (32 B by default); the
/// sensitivity study (Table 3) varies the metadata granularity from 4 B
/// to 32 B. A `Granularity` maps byte addresses to granule base
/// addresses.
///
/// # Examples
///
/// ```
/// use hard_types::{Addr, Granularity};
/// let g = Granularity::new(8);
/// assert_eq!(g.granule_of(Addr(0x17)), Addr(0x10));
/// assert_eq!(g.bytes(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Granularity {
    shift: u32,
}

impl Granularity {
    /// Creates a granularity of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or is zero.
    #[must_use]
    pub fn new(bytes: u64) -> Granularity {
        assert!(
            bytes.is_power_of_two(),
            "granularity must be a power of two, got {bytes}"
        );
        Granularity {
            shift: bytes.trailing_zeros(),
        }
    }

    /// The granularity in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        1 << self.shift
    }

    /// log2 of the granularity.
    #[must_use]
    pub fn shift(self) -> u32 {
        self.shift
    }

    /// Base address of the granule containing `addr`.
    #[must_use]
    pub fn granule_of(self, addr: Addr) -> Addr {
        Addr(addr.0 >> self.shift << self.shift)
    }

    /// Byte offset of `addr` within its granule.
    #[must_use]
    pub fn offset_of(self, addr: Addr) -> u64 {
        addr.0 & (self.bytes() - 1)
    }

    /// Iterates over the base addresses of all granules overlapped by
    /// the byte range `[addr, addr + len)`, clipped at the top of the
    /// address space.
    ///
    /// # Examples
    ///
    /// ```
    /// use hard_types::{Addr, Granularity};
    /// let g = Granularity::new(4);
    /// let v: Vec<_> = g.granules_in(Addr(6), 4).collect();
    /// assert_eq!(v, vec![Addr(4), Addr(8)]);
    /// ```
    pub fn granules_in(self, addr: Addr, len: u64) -> impl Iterator<Item = Addr> {
        let bytes = self.bytes();
        let first = self.granule_of(addr).0;
        let last = if len == 0 {
            first
        } else {
            self.granule_of(Addr(addr.0.saturating_add(len - 1))).0
        };
        (first..=last).step_by(bytes as usize).map(Addr)
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_offset_and_display() {
        let a = Addr(0x100);
        assert_eq!(a.offset(0x20), Addr(0x120));
        assert_eq!(format!("{a}"), "0x100");
        assert_eq!(format!("{a:?}"), "Addr(0x100)");
    }

    #[test]
    fn thread_pins_to_same_core() {
        assert_eq!(ThreadId(3).core(), CoreId(3));
        assert_eq!(ThreadId(3).index(), 3);
    }

    #[test]
    fn lock_id_addr_roundtrip() {
        assert_eq!(LockId(0xdead).addr(), Addr(0xdead));
        assert_eq!(format!("{}", LockId(0x10)), "lock@0x10");
    }

    #[test]
    fn cycles_arithmetic() {
        let mut c = Cycles(10);
        c += Cycles(5);
        assert_eq!(c, Cycles(15));
        assert_eq!(c - Cycles(5), Cycles(10));
        assert_eq!(Cycles(3).saturating_sub(Cycles(7)), Cycles::ZERO);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(format!("{}", AccessKind::Read), "rd");
    }

    #[test]
    fn granularity_mapping() {
        let g = Granularity::new(32);
        assert_eq!(g.bytes(), 32);
        assert_eq!(g.shift(), 5);
        assert_eq!(g.granule_of(Addr(0)), Addr(0));
        assert_eq!(g.granule_of(Addr(31)), Addr(0));
        assert_eq!(g.granule_of(Addr(32)), Addr(32));
        assert_eq!(g.offset_of(Addr(33)), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn granularity_rejects_non_power_of_two() {
        let _ = Granularity::new(24);
    }

    #[test]
    fn granules_in_spans_boundaries() {
        let g = Granularity::new(8);
        let v: Vec<_> = g.granules_in(Addr(7), 2).collect();
        assert_eq!(v, vec![Addr(0), Addr(8)]);
        let single: Vec<_> = g.granules_in(Addr(8), 8).collect();
        assert_eq!(single, vec![Addr(8)]);
        let empty_len: Vec<_> = g.granules_in(Addr(13), 0).collect();
        assert_eq!(empty_len, vec![Addr(8)]);
    }

    #[test]
    fn granules_in_large_access() {
        let g = Granularity::new(4);
        let v: Vec<_> = g.granules_in(Addr(0), 16).collect();
        assert_eq!(v, vec![Addr(0), Addr(4), Addr(8), Addr(12)]);
    }

    #[test]
    fn granules_in_stops_at_the_top_of_the_address_space() {
        let g = Granularity::new(4);
        let top = u64::MAX - 3;
        let v: Vec<_> = g.granules_in(Addr(u64::MAX - 5), 4).collect();
        assert_eq!(v, vec![Addr(top - 4), Addr(top)]);
        let past: Vec<_> = g.granules_in(Addr(u64::MAX - 1), 4).collect();
        assert_eq!(past, vec![Addr(top)]);
    }
}
