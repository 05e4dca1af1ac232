//! Deterministic pseudo-random number generation.
//!
//! The reproduction's experiment campaigns ("10 runs, each time
//! injecting different data races") must be exactly reproducible from a
//! seed, independent of external crate versions. This module implements
//! xoshiro256** (Blackman & Vigna) seeded through SplitMix64, the same
//! construction used by many simulators.

/// A deterministic xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use hard_types::Xoshiro256;
/// let mut a = Xoshiro256::seed_from_u64(42);
/// let mut b = Xoshiro256::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // SplitMix64 cannot produce four zero outputs from any seed, but
        // guard anyway: the all-zero state is the one fixed point.
        debug_assert!(s.iter().any(|&w| w != 0));
        Xoshiro256 { s }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, n)`.
    ///
    /// Uses Lemire's unbiased multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range upper bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `usize` index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53-bit uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Splits off an independent generator, advancing `self`.
    ///
    /// Used to hand one sub-stream per simulated thread so the event
    /// order inside one thread does not depend on the other threads.
    pub fn fork(&mut self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_range_zero_panics() {
        Xoshiro256::seed_from_u64(0).gen_range(0);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-1.0));
        assert!(rng.gen_bool(2.0));
    }

    #[test]
    fn gen_bool_rate_roughly_matches() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(sorted, expect);
        assert_ne!(
            v, expect,
            "a 100-element shuffle fixing everything is astronomically unlikely"
        );
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let one = [42u8];
        assert_eq!(rng.choose(&one), Some(&42));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Xoshiro256::seed_from_u64(13);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
