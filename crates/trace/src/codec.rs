//! The FNV-1a checksum behind the `HARDCRP1` corpus format, the
//! serve tier's report cache and the benchmarks' payload pins.

/// 64-bit FNV-1a over `bytes`: tiny, dependency-free, and plenty to
/// catch bit flips and torn writes (this is an integrity check, not a
/// cryptographic one).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV1A_INIT, bytes)
}

/// The FNV-1a offset basis — the initial state for [`fnv1a_update`].
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an in-progress FNV-1a state, for hashing a
/// stream chunk by chunk: `fnv1a(ab) == fnv1a_update(fnv1a(a), b)`.
#[must_use]
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_update_folds_chunks() {
        assert_eq!(fnv1a_update(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
