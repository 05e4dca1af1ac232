//! Cache geometry: size / associativity / line size arithmetic.

use hard_types::Addr;
use std::fmt;

/// Geometry of one set-associative cache.
///
/// # Examples
///
/// ```
/// use hard_cache::CacheGeometry;
/// use hard_types::Addr;
///
/// // The paper's L1: 16 KB, 4-way, 32 B lines.
/// let g = CacheGeometry::new(16 * 1024, 4, 32);
/// assert_eq!(g.num_sets(), 128);
/// assert_eq!(g.line_of(Addr(0x1234)), Addr(0x1220));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
    line_bytes: u64,
    // Derived shift/mask forms of the power-of-two parameters, kept so
    // the per-access address arithmetic (several lookups per trace
    // event across every hardware machine) compiles to shifts and
    // masks instead of 64-bit divisions.
    line_shift: u32,
    set_mask: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes`, `line_bytes` and the resulting set
    /// count are powers of two, lines are at least 2 bytes (a line
    /// address is then even, and never the all-ones word a cache marks
    /// its empty slots with), and the cache holds at least one set of
    /// `ways` lines.
    #[must_use]
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u64) -> CacheGeometry {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(line_bytes >= 2, "line size must be at least 2 bytes");
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        let lines = size_bytes / line_bytes;
        assert!(
            lines >= u64::from(ways),
            "cache of {size_bytes}B cannot hold {ways} ways of {line_bytes}B lines"
        );
        let sets = lines / u64::from(ways);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    #[must_use]
    pub fn ways(self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(self) -> u64 {
        self.set_mask + 1
    }

    /// Line-aligned base address of the line containing `addr`.
    #[must_use]
    #[inline]
    pub fn line_of(self, addr: Addr) -> Addr {
        Addr(addr.0 >> self.line_shift << self.line_shift)
    }

    /// Set index of a (line-aligned or not) address.
    #[must_use]
    #[inline]
    pub fn set_index(self, addr: Addr) -> usize {
        ((addr.0 >> self.line_shift) & self.set_mask) as usize
    }

    /// Line base address and set index of `addr` in one shift — the
    /// batch kernel's pre-pass hoists this pair out of the per-event
    /// probe loop instead of recomputing both on every cache touch.
    #[must_use]
    #[inline]
    pub fn line_and_set(self, addr: Addr) -> (Addr, usize) {
        let line = addr.0 >> self.line_shift;
        (
            Addr(line << self.line_shift),
            (line & self.set_mask) as usize,
        )
    }

    /// Iterates over the line base addresses overlapped by the byte
    /// range `[addr, addr + len)`, clipped at the top of the address
    /// space.
    pub fn lines_in(self, addr: Addr, len: u64) -> impl Iterator<Item = Addr> {
        let first = self.line_of(addr).0;
        let last = if len == 0 {
            first
        } else {
            self.line_of(Addr(addr.0.saturating_add(len - 1))).0
        };
        (first..=last).step_by(self.line_bytes as usize).map(Addr)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B/line",
            self.size_bytes / 1024,
            self.ways,
            self.line_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        let g = CacheGeometry::new(16 * 1024, 4, 32);
        assert_eq!(g.num_sets(), 128);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.line_bytes(), 32);
        assert_eq!(format!("{g}"), "16KB 4-way 32B/line");
    }

    #[test]
    fn paper_l2_geometry() {
        let g = CacheGeometry::new(1024 * 1024, 8, 32);
        assert_eq!(g.num_sets(), 4096);
    }

    #[test]
    fn line_and_set_mapping() {
        let g = CacheGeometry::new(1024, 2, 32);
        assert_eq!(g.num_sets(), 16);
        assert_eq!(g.line_of(Addr(0x7F)), Addr(0x60));
        assert_eq!(g.set_index(Addr(0x00)), 0);
        assert_eq!(g.set_index(Addr(0x20)), 1);
        // Wraps modulo set count.
        assert_eq!(g.set_index(Addr(0x20 + 16 * 32)), 1);
    }

    #[test]
    fn line_and_set_agrees_with_separate_calls() {
        let g = CacheGeometry::new(1024, 2, 32);
        for a in [0x00u64, 0x1F, 0x20, 0x7F, 0x20 + 16 * 32, u64::MAX - 7] {
            let (line, set) = g.line_and_set(Addr(a));
            assert_eq!(line, g.line_of(Addr(a)));
            assert_eq!(set, g.set_index(Addr(a)));
        }
    }

    #[test]
    fn lines_in_spans() {
        let g = CacheGeometry::new(1024, 2, 32);
        let v: Vec<Addr> = g.lines_in(Addr(30), 4).collect();
        assert_eq!(v, vec![Addr(0), Addr(32)]);
        let single: Vec<Addr> = g.lines_in(Addr(32), 32).collect();
        assert_eq!(single, vec![Addr(32)]);
    }

    #[test]
    fn lines_in_stops_at_the_top_of_the_address_space() {
        let g = CacheGeometry::new(1024, 2, 32);
        let top = u64::MAX - 31;
        let v: Vec<Addr> = g.lines_in(Addr(u64::MAX - 33), 4).collect();
        assert_eq!(v, vec![Addr(top - 32), Addr(top)]);
        let past: Vec<Addr> = g.lines_in(Addr(u64::MAX - 1), 4).collect();
        assert_eq!(past, vec![Addr(top)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_line() {
        let _ = CacheGeometry::new(1024, 2, 24);
    }

    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn rejects_one_byte_line() {
        let _ = CacheGeometry::new(1024, 2, 1);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn rejects_too_many_ways() {
        let _ = CacheGeometry::new(64, 4, 32);
    }
}
